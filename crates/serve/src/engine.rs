//! The serve engine: resident tenant sessions, batched open-loop
//! dispatch onto the campaign worker pool, and jobs-invariant folding
//! of per-batch evidence.
//!
//! Execution shape:
//!
//! * The main thread compiles each hosted app **once**, then deploys
//!   every (fleet, app) cell — clone the module, run the defense pass,
//!   verify — and pre-lowers the bytecode image for each cell, holding
//!   the `Arc` so every worker's builds resolve through the process
//!   cache instead of re-lowering.
//! * Workers keep private state: one [`Build`] + serve [`Executor`] per
//!   cell, the cell's attack objects, and a map of resident
//!   [`Session`]s — one long-lived VM per tenant, respawned (never
//!   rebuilt) per request.
//! * The schedule is cut into fixed-size batches; each batch folds its
//!   requests into a small [`FleetReport`] vector. The pool hands
//!   batches back sorted by index and every histogram/min-fold merge is
//!   order-independent, so aggregates are bit-identical across `--jobs`
//!   settings.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use smokestack_attacks::{Attack, AttackOutcome, Build};
use smokestack_campaign::{run_pool_draining, DrainGate, RecordSink};
use smokestack_defenses::{deploy_configured, DefenseKind, Deployment};
use smokestack_ir::Module;
use smokestack_minic::compile;
use smokestack_vm::{CompiledModule, Executor, Exit, MemConfig, ScriptedInput, Session};
use std::sync::Arc;

use crate::apps::{self, ServeApp};
use crate::plan::ServePlan;
use crate::report::{FleetReport, ServeReport};
use crate::traffic::{self, Request};

/// How the engine runs a plan.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads.
    pub jobs: usize,
    /// Close the drain gate after this long: in-flight batches finish,
    /// no new ones dispatch (partial runs are reported `drained`).
    pub duration: Option<Duration>,
    /// Requests per pool task. The batch size shapes scheduling only —
    /// aggregates are invariant to it being a divisor of the total or
    /// not — but it is part of drain granularity.
    pub batch: u64,
    /// Serve at most this many requests of the schedule (a prefix, so
    /// determinism is preserved).
    pub max_requests: Option<u64>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            jobs: 1,
            duration: None,
            batch: 1024,
            max_requests: None,
        }
    }
}

/// Memory geometry for resident serve sessions: far smaller than the
/// campaign default (the hosted programs are small), but with enough
/// stack headroom for the stack-base ASLR offset (up to 1 MiB) plus
/// deep hardened frames. Its 14 MiB sit in one fresh mapping (padded
/// to 32 MiB, see `Memory::new`) that is zeroed on demand, so a
/// resident tenant costs only the pages its loader and requests have
/// touched, and thousands of tenants stay cheap.
fn serve_mem() -> MemConfig {
    MemConfig {
        rodata_size: 1 << 20,
        data_size: 1 << 20,
        heap_size: 8 << 20,
        stack_size: 4 << 20,
    }
}

/// Everything the main thread pre-computes for one (fleet, app) cell.
/// Only `Send + Sync` data lives here; workers rebuild the cheap
/// non-`Sync` wrappers ([`Build`], [`Executor`]) locally on top of the
/// shared module and pre-lowered image.
struct CellSpec {
    defense: DefenseKind,
    app: &'static ServeApp,
    module: Arc<Module>,
    deployment: Deployment,
    build_seed: u64,
    /// Held (not used directly) so the process-wide compiled-image
    /// cache keeps this cell's lowering alive for every worker.
    _image: Arc<CompiledModule>,
}

/// Worker-private per-cell state.
struct WorkerCell {
    app_name: &'static str,
    build: Build,
    serve_exec: Executor,
    attacks: Vec<Box<dyn Attack>>,
    benign: Vec<Vec<u8>>,
}

/// Worker-private state: cells plus the resident tenant sessions this
/// worker has touched.
struct WorkerState {
    cells: Vec<WorkerCell>,
    sessions: HashMap<u32, Session>,
}

/// Per-batch evidence, folded into the final report in task order.
struct BatchStats {
    served: u64,
    fleets: Vec<FleetReport>,
}

fn outcome_slot(outcome: &AttackOutcome) -> usize {
    match outcome {
        AttackOutcome::Success(_) => 0,
        AttackOutcome::Detected(_) => 1,
        AttackOutcome::Crashed(_) => 2,
        AttackOutcome::Failed(_) => 3,
        AttackOutcome::Aborted => 4,
    }
}

fn outcome_label(outcome: &AttackOutcome) -> &'static str {
    ["success", "detected", "crashed", "failed", "aborted"][outcome_slot(outcome)]
}

/// Deploy every (fleet, app) cell of `plan` on the calling thread.
fn deploy_cells(plan: &ServePlan) -> Result<Vec<CellSpec>, String> {
    let mut bases: Vec<(&'static ServeApp, Module)> = Vec::new();
    for name in &plan.apps {
        let app = apps::by_name(name).ok_or_else(|| format!("unknown app `{name}`"))?;
        let module = compile(app.source).map_err(|e| format!("compile {name}: {e}"))?;
        bases.push((app, module));
    }
    let mut cells = Vec::new();
    for (fi, fleet) in plan.fleets.iter().enumerate() {
        for (ai, (app, base)) in bases.iter().enumerate() {
            let build_seed = traffic::cell_build_seed(plan, fi, ai);
            let mut module = base.clone();
            let deployment = deploy_configured(
                fleet.defense,
                &mut module,
                build_seed,
                0,
                &fleet.smokestack_config(),
            );
            smokestack_ir::verify_module(&module)
                .map_err(|e| format!("cell {}/{}: {e:?}", fleet.label(), app.name))?;
            let module = Arc::new(module);
            let image = Executor::for_module(Arc::clone(&module))
                .scheme(fleet.defense.scheme())
                .build()
                .compiled();
            cells.push(CellSpec {
                defense: fleet.defense,
                app,
                module,
                deployment,
                build_seed,
                _image: image,
            });
        }
    }
    Ok(cells)
}

/// Instantiate a worker's private view of the deployed cells.
fn worker_cells(specs: &[CellSpec]) -> Vec<WorkerCell> {
    specs
        .iter()
        .map(|spec| {
            let build = Build::from_deployed(
                Arc::clone(&spec.module),
                spec.defense,
                spec.deployment.clone(),
                spec.build_seed,
            );
            let serve_exec = Executor::for_module(Arc::clone(&spec.module))
                .scheme(spec.defense.scheme())
                .mem(serve_mem())
                .build();
            let attacks = spec
                .app
                .attack_names()
                .iter()
                .map(|n| smokestack_attacks::by_name(n).expect("catalog attack resolves"))
                .collect();
            WorkerCell {
                app_name: spec.app.name,
                build,
                serve_exec,
                attacks,
                benign: spec.app.benign_chunks(),
            }
        })
        .collect()
}

/// Run `plan` to completion (or until the duration drain): the tentpole
/// entry point behind the `serve` binary.
///
/// When `sink` is set, one JSON line is journaled per *poisoned*
/// request (benign traffic is summarized in histograms only — a
/// million-request run must not write a million lines).
pub fn run_serve(
    plan: &ServePlan,
    cfg: &ServeConfig,
    sink: Option<&dyn RecordSink>,
) -> Result<ServeReport, String> {
    if plan.fleets.is_empty() || plan.apps.is_empty() {
        return Err("serve plan has no fleets or no apps".into());
    }
    if plan.tenants == 0 {
        return Err("serve plan has no tenants".into());
    }
    let specs = deploy_cells(plan)?;
    if let Some(sink) = sink {
        sink.write_line(&format!(
            "{{\"journal\":\"smokestack-serve-v1\",\"plan\":\"{}\",\"seed\":{},\
             \"tenants\":{},\"fingerprint\":{}}}",
            plan.name,
            plan.master_seed,
            plan.tenants,
            plan.fingerprint()
        ));
    }

    let total = plan.requests.min(cfg.max_requests.unwrap_or(u64::MAX));
    let batch = cfg.batch.max(1);
    let tasks: Vec<(u64, u64)> = (0..total)
        .step_by(usize::try_from(batch).unwrap_or(usize::MAX).max(1))
        .map(|start| (start, batch.min(total - start)))
        .collect();

    let gate = DrainGate::new();
    if let Some(after) = cfg.duration {
        let timer = gate.clone();
        std::thread::spawn(move || {
            std::thread::sleep(after);
            timer.close();
        });
    }

    let resident = AtomicU64::new(0);
    let started = Instant::now();
    let fleet_labels: Vec<String> = plan.fleets.iter().map(|f| f.label()).collect();
    let run = run_pool_draining(
        cfg.jobs,
        tasks,
        None,
        Some(&gate),
        |_worker| WorkerState {
            cells: worker_cells(&specs),
            sessions: HashMap::new(),
        },
        |state, &(start, len)| {
            let mut stats = BatchStats {
                served: len,
                fleets: fleet_labels
                    .iter()
                    .map(|l| FleetReport::new(l.clone(), 0))
                    .collect(),
            };
            let WorkerState { cells, sessions } = state;
            for i in start..start + len {
                let req = Request::at(plan, i);
                let (fleet, app) = traffic::tenant_cell(plan, req.tenant);
                let cell = &cells[fleet * plan.apps.len() + app];
                let fr = &mut stats.fleets[fleet];
                if req.poisoned {
                    let pick = usize::try_from(req.attack_pick % cell.attacks.len() as u64)
                        .expect("pick fits usize");
                    let attack = &cell.attacks[pick];
                    let outcome = attack.attempt(&cell.build, req.seed);
                    fr.attacks += 1;
                    fr.outcomes[outcome_slot(&outcome)] += 1;
                    if matches!(outcome, AttackOutcome::Success(_)) {
                        fr.first_compromise
                            .entry(req.tenant)
                            .and_modify(|cur| *cur = (*cur).min(i))
                            .or_insert(i);
                    }
                    if let Some(sink) = sink {
                        sink.write_line(&format!(
                            "{{\"req\":{i},\"tenant\":{},\"fleet\":\"{}\",\"app\":\"{}\",\
                             \"attack\":\"{}\",\"seed\":{},\"outcome\":\"{}\"}}",
                            req.tenant,
                            fr.label,
                            cell.app_name,
                            attack.name(),
                            req.seed,
                            outcome_label(&outcome)
                        ));
                    }
                } else {
                    let session = sessions
                        .entry(req.tenant)
                        .or_insert_with(|| cell.serve_exec.session());
                    let offset = cell.build.run_offset(req.seed);
                    let mut input = ScriptedInput::new(cell.benign.clone());
                    let t0 = Instant::now();
                    let out = session.run_main_configured(req.seed, offset, &mut input);
                    let wall = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
                    fr.benign += 1;
                    fr.deci.observe(out.decicycles);
                    if traffic::in_attack_wake(plan, i, fleet) {
                        fr.deci_attack.observe(out.decicycles);
                    }
                    fr.wall_ns.observe(wall);
                    if out.exit != Exit::Return(0) {
                        fr.benign_anomalies += 1;
                    }
                }
            }
            stats
        },
        |state| {
            resident.fetch_add(state.sessions.len() as u64, Ordering::Relaxed);
        },
    );
    let wall_secs = started.elapsed().as_secs_f64();

    let mut fleets: Vec<FleetReport> = Vec::new();
    for (fi, label) in fleet_labels.iter().enumerate() {
        let tenants = (0..plan.tenants)
            .filter(|&t| traffic::tenant_cell(plan, t).0 == fi)
            .count() as u32;
        fleets.push(FleetReport::new(label.clone(), tenants));
    }
    let mut served = 0;
    for stats in &run.results {
        served += stats.served;
        for (acc, part) in fleets.iter_mut().zip(stats.fleets.iter()) {
            acc.merge(part);
        }
    }
    Ok(ServeReport {
        plan: plan.name.clone(),
        master_seed: plan.master_seed,
        tenants: plan.tenants,
        scheduled: total,
        served,
        drained: run.drained,
        wall_secs,
        resident_sessions: resident.into_inner(),
        fleets,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Fleet;
    use smokestack_srng::SchemeKind;

    fn mini_plan() -> ServePlan {
        ServePlan {
            name: "mini".into(),
            master_seed: 0x51e7,
            tenants: 4,
            requests: 400,
            poison_ppm: 50_000, // 5%
            fleets: vec![
                Fleet {
                    defense: DefenseKind::None,
                    pruned: false,
                },
                Fleet {
                    defense: DefenseKind::Smokestack(SchemeKind::Aes10),
                    pruned: false,
                },
            ],
            apps: vec!["proftpd".into()],
        }
    }

    #[test]
    fn mini_plan_serves_every_request_cleanly() {
        let plan = mini_plan();
        let report = run_serve(&plan, &ServeConfig::default(), None).unwrap();
        assert_eq!(report.served, 400);
        assert!(!report.drained);
        let benign: u64 = report.fleets.iter().map(|f| f.benign).sum();
        let attacks: u64 = report.fleets.iter().map(|f| f.attacks).sum();
        assert_eq!(benign + attacks, 400);
        assert!(attacks > 0, "5% poison over 400 requests must fire");
        for fleet in &report.fleets {
            assert_eq!(fleet.benign_anomalies, 0, "{}", fleet.label);
            assert_eq!(fleet.deci.count(), fleet.benign);
            assert!(
                fleet.deci_attack.count() <= fleet.benign,
                "the under-attack split is a subset of benign traffic"
            );
        }
        let under_attack: u64 = report.fleets.iter().map(|f| f.deci_attack.count()).sum();
        assert!(
            under_attack > 0,
            "5% poison must leave some benign requests in an attack wake"
        );
        // Residency: every tenant that saw benign traffic stayed alive.
        assert!(report.resident_sessions > 0);
    }

    #[test]
    fn aggregates_are_bit_identical_across_jobs() {
        let plan = mini_plan();
        let narrow = run_serve(&plan, &ServeConfig::default(), None).unwrap();
        let wide = run_serve(
            &plan,
            &ServeConfig {
                jobs: 4,
                batch: 64,
                ..ServeConfig::default()
            },
            None,
        )
        .unwrap();
        assert_eq!(narrow.deterministic_digest(), wide.deterministic_digest());
    }

    #[test]
    fn max_requests_serves_a_schedule_prefix() {
        let plan = mini_plan();
        let full = run_serve(&plan, &ServeConfig::default(), None).unwrap();
        let cut = run_serve(
            &plan,
            &ServeConfig {
                max_requests: Some(100),
                ..ServeConfig::default()
            },
            None,
        )
        .unwrap();
        assert_eq!(cut.served, 100);
        assert!(cut.served < full.served);
        // The prefix property: every count is ≤ the full run's.
        for (c, f) in cut.fleets.iter().zip(full.fleets.iter()) {
            assert!(c.benign <= f.benign && c.attacks <= f.attacks);
        }
    }
}
