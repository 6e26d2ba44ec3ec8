//! `serve-mixed`: `serve::run_serve` on a plan with the built-in `load`
//! plan's mix (5 fleets × 3 apps, 0.5% poison), its master seed taken
//! from the benchmark seed.
//!
//! The schedule has no arrival times, so this drains a fixed schedule:
//! it reports throughput and per-request service time, not latency at a
//! fixed arrival rate.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use smokestack_attacks::{Attack, AttackOutcome, Build};
use smokestack_campaign::run_pool_draining;
use smokestack_core::SmokestackConfig;
use smokestack_defenses::{DefenseKind, Deployment};
use smokestack_ir::Module;
use smokestack_serve::traffic::{cell_build_seed, in_attack_wake, tenant_cell};
use smokestack_serve::{
    apps, run_serve, FleetReport, Request, ServeApp, ServeConfig, ServePlan, ServeReport,
};
use smokestack_telemetry::StreamingHistogram;
use smokestack_vm::{CompiledModule, Executor, Exit, MemConfig, ScriptedInput, Session};

use crate::layers::{mix, SetupTimes};
use crate::stats::{hist_quantile, median, name_segment, quantile, Checks, Metric};
use crate::trace;

/// Serve worker threads: `ServeConfig`'s default of one. It is a
/// spawned pool thread, so the worker-thread cost of attack attempts
/// counts. With two workers, each keeps its own session per tenant, and
/// peak RSS varied from 1,163 to 1,367 MiB between seeds on a 2-vCPU
/// host, against 695–699 MiB with one.
pub const JOBS: usize = 1;

/// The plan for `pass` of a run seeded with `seed`: the `load` plan's
/// fleets, apps and poison rate over `requests` requests, with the
/// `load` plan's requests per tenant.
///
/// Each pass starts its workers afresh, so every tenant's session is
/// opened and its pages first touched inside the pass. Keeping `load`'s
/// ratio of requests to tenants (about 952) keeps the share of that cost
/// in each request the same as in `load`. `load`'s own 1,050 tenants
/// cannot be resident here: each session holds about 14 MiB, so they
/// take 14.6 GiB of resident memory per worker.
pub fn plan(seed: u64, pass: u64, requests: u64) -> ServePlan {
    let mut p = ServePlan::load();
    let cells = (p.fleets.len() * p.apps.len()) as u64;
    let tenants = (requests * u64::from(p.tenants)).div_ceil(p.requests);
    p.tenants = u32::try_from(tenants.div_ceil(cells) * cells).expect("tenant count fits u32");
    p.name = "serve-mixed".into();
    p.master_seed = mix(seed, 0x5e7e_0000 + pass);
    p.requests = requests;
    p
}

/// Whether a fleet runs Smokestack.
fn is_smokestack(report: &FleetReport) -> bool {
    report.label.starts_with("smokestack/")
}

/// One deployed (fleet, app) cell, as `run_serve` prepares it.
pub struct CellSpec {
    defense: DefenseKind,
    app: &'static ServeApp,
    module: Arc<Module>,
    deployment: Deployment,
    build_seed: u64,
    _image: Arc<CompiledModule>,
}

/// Compile every app once and deploy every (fleet, app) cell, as the
/// serve engine does before it dispatches a request.
pub fn deploy_cells(plan: &ServePlan, times: &mut SetupTimes) -> Result<Vec<CellSpec>, String> {
    let mut bases = Vec::new();
    for name in &plan.apps {
        let app = apps::by_name(name).ok_or(format!("unknown app {name}"))?;
        bases.push((app, times.compile(app.source)?));
    }
    let mut cells = Vec::new();
    for (fi, fleet) in plan.fleets.iter().enumerate() {
        for (ai, (app, base)) in bases.iter().enumerate() {
            let build_seed = cell_build_seed(plan, fi, ai);
            let cfg = SmokestackConfig {
                prune_safe_slots: fleet.pruned,
                ..SmokestackConfig::default()
            };
            let (module, deployment) = times.deploy(base, fleet.defense, build_seed, &cfg)?;
            let module = Arc::new(module);
            let image = times.lower(
                &Executor::for_module(Arc::clone(&module))
                    .scheme(fleet.defense.scheme())
                    .build(),
            );
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

/// Check one serve report: every scheduled request served, no benign
/// anomaly, and the per-fleet counts adding up.
pub fn check_report(plan: &ServePlan, r: &ServeReport, checks: &mut Checks) {
    checks.attempted += r.served;
    checks.require(r.served == plan.requests && !r.drained, || {
        format!("serve: {} of {} requests served", r.served, plan.requests)
    });
    let sum: u64 = r.fleets.iter().map(|f| f.benign + f.attacks).sum();
    checks.require(sum == r.served, || {
        format!("serve: fleets account for {sum} of {} requests", r.served)
    });
    for f in &r.fleets {
        checks.require(f.benign_anomalies == 0, || {
            format!(
                "serve: {} benign anomalies on {}",
                f.benign_anomalies, f.label
            )
        });
    }
}

/// A measured serve-mixed phase.
pub struct ServeStats {
    /// Requests per second of engine wall time, one per pass.
    pub pass_rps: Vec<f64>,
    /// The end-to-end figures of each pass on its own (see
    /// [`figures`]).
    pub pass_figures: Vec<[f64; 2]>,
    /// The unprotected fleet's median benign request of each pass, ms.
    pub pass_baseline_ms: Vec<f64>,
    /// Benign-request wall times, merged over passes, per fleet.
    pub fleets: Vec<FleetReport>,
}

/// Requests of the first pass replayed twice to check that deterministic
/// aggregates repeat exactly.
const REPEAT_PREFIX: u64 = 3_000;

/// Run passes of `requests` requests until `seconds` have passed, then
/// serve a prefix of the first pass twice and require identical
/// deterministic aggregates.
pub fn measure(
    seed: u64,
    jobs: usize,
    requests: u64,
    seconds: f64,
    checks: &mut Checks,
) -> Result<ServeStats, String> {
    let cfg = ServeConfig {
        jobs,
        ..ServeConfig::default()
    };
    let start = Instant::now();
    let mut stats = ServeStats {
        pass_rps: Vec::new(),
        pass_figures: Vec::new(),
        pass_baseline_ms: Vec::new(),
        fleets: Vec::new(),
    };
    let mut pass = 0;
    while pass == 0 || start.elapsed().as_secs_f64() < seconds {
        let p = plan(seed, pass, requests);
        let r = run_serve(&p, &cfg, None)?;
        check_report(&p, &r, checks);
        stats.pass_rps.push(r.served as f64 / r.wall_secs.max(1e-9));
        stats.pass_figures.push(figures(&r.fleets));
        stats.pass_baseline_ms.push(baseline_ms(&r.fleets));
        if stats.fleets.is_empty() {
            stats.fleets = r.fleets.clone();
        } else {
            for (acc, f) in stats.fleets.iter_mut().zip(&r.fleets) {
                acc.merge(f);
            }
        }
        pass += 1;
    }
    let prefix = ServeConfig {
        max_requests: Some(REPEAT_PREFIX),
        ..cfg
    };
    let first = run_serve(&plan(seed, 0, requests), &prefix, None)?;
    let again = run_serve(&plan(seed, 0, requests), &prefix, None)?;
    checks.attempted += 1;
    checks.require(
        again.deterministic_digest() == first.deterministic_digest(),
        || {
            "serve: a repeated pass does not reproduce its outcome counts and \
         decicycle percentiles"
                .to_string()
        },
    );
    Ok(stats)
}

/// Benign wall-time histogram over the Smokestack fleets.
pub fn hardened_wall(fleets: &[FleetReport]) -> StreamingHistogram {
    let mut h = StreamingHistogram::new();
    for f in fleets.iter().filter(|f| is_smokestack(f)) {
        h.merge(&f.wall_ns);
    }
    h
}

/// Benign requests per second of benign service time, summed over
/// every fleet's `wall_ns` histogram.
pub fn benign_rps(fleets: &[FleetReport]) -> f64 {
    let (n, ns) = fleets.iter().fold((0, 0), |(n, ns), f| {
        (n + f.wall_ns.count(), ns + f.wall_ns.sum())
    });
    n as f64 * 1e9 / ns.max(1) as f64
}

/// Benign requests per second if every request cost its fleet's median
/// benign request, and the median benign request on the Smokestack
/// fleets (ms).
///
/// Medians, not the mean service time: the slowest requests (first
/// touches of a session's pages) follow the host's memory load: over
/// ten runs on a 2-vCPU VM a rate from the mean moved 1.33x while the
/// Smokestack fleets' median moved 1.17x.
pub fn figures(fleets: &[FleetReport]) -> [f64; 2] {
    let (n, ns) = fleets.iter().fold((0, 0.0), |(n, ns), f| {
        let count = f.wall_ns.count();
        (
            n + count,
            ns + count as f64 * hist_quantile(&f.wall_ns, 0.5),
        )
    });
    [
        n as f64 * 1e9 / ns.max(1.0),
        hist_quantile(&hardened_wall(fleets), 0.5) / 1e6,
    ]
}

/// The unprotected fleet's median benign request, ms.
pub fn baseline_ms(fleets: &[FleetReport]) -> f64 {
    fleets
        .iter()
        .find(|f| f.label == "none")
        .map_or(0.0, |f| hist_quantile(&f.wall_ns, 0.5) / 1e6)
}

impl ServeStats {
    /// The end-to-end metrics: [`figures`] of the run's fastest pass —
    /// the highest rate and the lowest median over passes.
    ///
    /// The fastest pass, not the figures pooled over the run: every pass
    /// serves the same mix, while on a shared host the core's speed
    /// follows other tenants' load, so pooled figures follow that load.
    /// On a 2-vCPU VM one run's passes served 49,800–66,400 benign
    /// requests per second of service time. The pooled figures are in
    /// the report.
    ///
    /// Engine-wall throughput ([`ServeStats::pass_rps`]) is reported but
    /// not gated. Attack attempts take most of the engine's time, and
    /// each maps a fresh 80 MiB VM whose page faults cost about 3 ms in
    /// some passes and about 15 ms in others of the same process, so the
    /// median pass moved between 12,000 and 25,000 requests/s from run to
    /// run. Attack cost is gated through campaign-matrix.
    pub fn end_to_end(&self) -> Vec<Metric> {
        let best = |i: usize, pick: fn(f64, f64) -> f64| {
            self.pass_figures
                .iter()
                .map(|f| f[i])
                .reduce(pick)
                .unwrap_or(0.0)
        };
        vec![
            Metric::new("ops_per_s", "1/s", best(0, f64::max)),
            Metric::new("hardened_ms", "ms", best(1, f64::min)),
        ]
    }
}

/// Memory geometry of resident serve sessions (as the serve engine
/// configures them).
fn serve_mem() -> MemConfig {
    MemConfig {
        rodata_size: 1 << 20,
        data_size: 1 << 20,
        heap_size: 8 << 20,
        stack_size: 4 << 20,
    }
}

struct WorkerCell {
    fleet_tag: &'static str,
    defense_tag: &'static str,
    build: Build,
    serve_exec: Executor,
    attacks: Vec<Box<dyn Attack>>,
    benign: Vec<Vec<u8>>,
}

struct WorkerState {
    born: Instant,
    cells: Vec<WorkerCell>,
    sessions: HashMap<u32, Session>,
}

/// Entropy evidence from benign requests, per fleet.
#[derive(Clone, Copy, Default)]
struct Entropy {
    draws: u64,
    rng_deci: u64,
    deci: u64,
    wall_ns: u64,
}

struct Batch {
    served: u64,
    fleets: Vec<FleetReport>,
    entropy: Vec<Entropy>,
}

/// Index of an attack outcome in `FleetReport::outcomes` order.
pub(crate) fn outcome_slot(outcome: &AttackOutcome) -> usize {
    match outcome {
        AttackOutcome::Success(_) => 0,
        AttackOutcome::Detected(_) => 1,
        AttackOutcome::Crashed(_) => 2,
        AttackOutcome::Failed(_) => 3,
        AttackOutcome::Aborted => 4,
    }
}

/// What the traced loop produced.
pub struct Traced {
    /// The report, built exactly as `run_serve` builds it.
    pub report: ServeReport,
    /// Every span recorded.
    pub spans: trace::Blocks,
    /// Worker lifetimes plus the main-thread fold, ns: the time the
    /// spans could cover.
    pub loop_ns: u64,
    /// Per fleet: its entropy scheme and the entropy evidence of its
    /// benign requests.
    entropy: Vec<(smokestack_srng::SchemeKind, Entropy)>,
}

/// The serve loop of `run_serve`, driven from pool worker threads with
/// a span around every call into a layer.
pub fn traced(plan: &ServePlan, jobs: usize, specs: &[CellSpec]) -> Traced {
    let batch = ServeConfig::default().batch;
    let tasks: Vec<(u64, u64)> = (0..plan.requests)
        .step_by(batch as usize)
        .map(|s| (s, batch.min(plan.requests - s)))
        .collect();
    let labels: Vec<String> = plan.fleets.iter().map(|f| f.label()).collect();
    let spans = Mutex::new(Vec::new());
    let lifetimes = AtomicU64::new(0);
    let resident = AtomicU64::new(0);
    let started = Instant::now();
    let run = run_pool_draining(
        jobs,
        tasks,
        None,
        None,
        |_| {
            let born = Instant::now();
            let cells = trace::span("serve.worker_init", "", 0, || {
                specs
                    .iter()
                    .enumerate()
                    .map(|(i, s)| WorkerCell {
                        fleet_tag: trace::intern(&name_segment(&labels[i / plan.apps.len()])),
                        defense_tag: trace::intern(&name_segment(&s.defense.label())),
                        build: Build::from_deployed(
                            Arc::clone(&s.module),
                            s.defense,
                            s.deployment.clone(),
                            s.build_seed,
                        ),
                        serve_exec: Executor::for_module(Arc::clone(&s.module))
                            .scheme(s.defense.scheme())
                            .mem(serve_mem())
                            .build(),
                        attacks: s
                            .app
                            .attack_names()
                            .iter()
                            .map(|n| smokestack_attacks::by_name(n).expect("catalog attack"))
                            .collect(),
                        benign: s.app.benign_chunks(),
                    })
                    .collect()
            });
            WorkerState {
                born,
                cells,
                sessions: HashMap::new(),
            }
        },
        |state, &(start, len)| {
            let mut b = Batch {
                served: len,
                fleets: labels
                    .iter()
                    .map(|l| FleetReport::new(l.clone(), 0))
                    .collect(),
                entropy: vec![Entropy::default(); labels.len()],
            };
            let WorkerState {
                cells, sessions, ..
            } = state;
            for i in start..start + len {
                let (req, fleet, app, wake) = trace::span("serve.schedule", "", i, || {
                    let req = Request::at(plan, i);
                    let (fleet, app) = tenant_cell(plan, req.tenant);
                    let wake = !req.poisoned && in_attack_wake(plan, i, fleet);
                    (req, fleet, app, wake)
                });
                let cell = &cells[fleet * plan.apps.len() + app];
                let fr = &mut b.fleets[fleet];
                if req.poisoned {
                    let pick = (req.attack_pick % cell.attacks.len() as u64) as usize;
                    let outcome = trace::span("attacks.attempt", cell.defense_tag, i, || {
                        cell.attacks[pick].attempt(&cell.build, req.seed)
                    });
                    trace::span("serve.record", "", i, || {
                        fr.attacks += 1;
                        fr.outcomes[outcome_slot(&outcome)] += 1;
                        if matches!(outcome, AttackOutcome::Success(_)) {
                            fr.first_compromise
                                .entry(req.tenant)
                                .and_modify(|cur| *cur = (*cur).min(i))
                                .or_insert(i);
                        }
                    });
                } else {
                    let session = match sessions.entry(req.tenant) {
                        std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
                        std::collections::hash_map::Entry::Vacant(e) => {
                            e.insert(trace::span("vm.session_open", cell.fleet_tag, i, || {
                                cell.serve_exec.session()
                            }))
                        }
                    };
                    let (offset, mut input) = trace::span("serve.prep", "", i, || {
                        (
                            cell.build.run_offset(req.seed),
                            ScriptedInput::new(cell.benign.clone()),
                        )
                    });
                    let t0 = Instant::now();
                    let out = trace::span("vm.request", cell.fleet_tag, i, || {
                        session.run_main_configured(req.seed, offset, &mut input)
                    });
                    let wall = t0.elapsed().as_nanos() as u64;
                    trace::span("serve.record", "", i, || {
                        fr.benign += 1;
                        fr.deci.observe(out.decicycles);
                        if wake {
                            fr.deci_attack.observe(out.decicycles);
                        }
                        fr.wall_ns.observe(wall);
                        if out.exit != Exit::Return(0) {
                            fr.benign_anomalies += 1;
                        }
                        let e = &mut b.entropy[fleet];
                        e.draws += out.rng_invocations;
                        e.rng_deci += out.breakdown.rng;
                        e.deci += out.decicycles;
                        e.wall_ns += wall;
                    });
                }
            }
            b
        },
        |state| {
            resident.fetch_add(state.sessions.len() as u64, Ordering::Relaxed);
            lifetimes.fetch_add(state.born.elapsed().as_nanos() as u64, Ordering::Relaxed);
            spans
                .lock()
                .expect("no worker panics while holding the span list")
                .extend(trace::take_thread_spans());
        },
    );
    let fold_start = Instant::now();
    let (fleets, served, entropy) = trace::span("serve.fold", "", 0, || {
        let mut fleets: Vec<FleetReport> = labels
            .iter()
            .enumerate()
            .map(|(fi, l)| {
                let tenants = (0..plan.tenants)
                    .filter(|&t| tenant_cell(plan, t).0 == fi)
                    .count() as u32;
                FleetReport::new(l.clone(), tenants)
            })
            .collect();
        let mut entropy = vec![Entropy::default(); labels.len()];
        let mut served = 0;
        for b in &run.results {
            served += b.served;
            for (acc, part) in fleets.iter_mut().zip(&b.fleets) {
                acc.merge(part);
            }
            for (acc, e) in entropy.iter_mut().zip(&b.entropy) {
                acc.draws += e.draws;
                acc.rng_deci += e.rng_deci;
                acc.deci += e.deci;
                acc.wall_ns += e.wall_ns;
            }
        }
        (fleets, served, entropy)
    });
    let fold_ns = fold_start.elapsed().as_nanos() as u64;
    let mut all = spans
        .into_inner()
        .expect("no worker panics while holding the span list");
    all.extend(trace::take_thread_spans());
    let report = ServeReport {
        plan: plan.name.clone(),
        master_seed: plan.master_seed,
        tenants: plan.tenants,
        scheduled: plan.requests,
        served,
        drained: run.drained,
        wall_secs: started.elapsed().as_secs_f64(),
        resident_sessions: resident.into_inner(),
        fleets,
    };
    Traced {
        report,
        spans: all,
        loop_ns: lifetimes.into_inner() + fold_ns,
        entropy: plan
            .fleets
            .iter()
            .map(|f| f.defense.scheme())
            .zip(entropy)
            .collect(),
    }
}

impl Traced {
    /// Share of the loop's wall time no span covers.
    pub fn unattributed_share(&self) -> f64 {
        let covered: u64 = trace::self_times(&self.spans.concat()).iter().sum();
        1.0 - covered as f64 / self.loop_ns.max(1) as f64
    }

    /// Serve per-layer metrics.
    pub fn layer_metrics(
        &self,
        draw_ns: &dyn Fn(smokestack_srng::SchemeKind) -> f64,
    ) -> Vec<Metric> {
        let layers = trace::by_layer(&self.spans.concat());
        let mut out = Vec::new();
        for f in &self.report.fleets {
            let tag = trace::intern(&name_segment(&f.label));
            let durs: Vec<f64> = layers.get(&("vm.request", tag)).map_or(Vec::new(), |l| {
                l.durations.iter().map(|&n| n as f64 / 1e3).collect()
            });
            for (q, label) in [(0.5, "p50"), (0.99, "p99")] {
                out.push(Metric::new(
                    format!("vm.request_us.{tag}.{label}"),
                    "us",
                    quantile(&durs, q),
                ));
            }
        }
        let durations_us = |name: &'static str| -> Vec<f64> {
            layers
                .iter()
                .filter(|((n, _), _)| *n == name)
                .flat_map(|(_, l)| l.durations.iter().map(|&d| d as f64 / 1e3))
                .collect()
        };
        out.push(Metric::new(
            "vm.session_open_us",
            "us",
            median(&durations_us("vm.session_open")),
        ));
        let schedule = durations_us("serve.schedule");
        out.push(Metric::new(
            "serve.schedule_us",
            "us",
            schedule.iter().sum::<f64>() / schedule.len().max(1) as f64,
        ));
        out.push(Metric::new(
            "serve.fold_us",
            "us",
            durations_us("serve.fold").iter().sum::<f64>(),
        ));
        out.push(Metric::new(
            "serve.unattributed_share",
            "share",
            self.unattributed_share(),
        ));
        let mut draws = 0;
        let (mut draw_wall, mut rng_deci, mut deci, mut wall) = (0.0, 0, 0, 0);
        for (scheme, e) in self.entropy.iter().filter(|(_, e)| e.draws > 0) {
            draws += e.draws;
            draw_wall += e.draws as f64 * draw_ns(*scheme);
            rng_deci += e.rng_deci;
            deci += e.deci;
            wall += e.wall_ns;
        }
        out.push(Metric::new("srng.draws.serve-mixed", "count", draws as f64));
        out.push(Metric::new(
            "srng.wall_share.serve-mixed",
            "share",
            draw_wall / wall.max(1) as f64,
        ));
        out.push(Metric::new(
            "srng.model_share.serve-mixed",
            "share",
            rng_deci as f64 / deci.max(1) as f64,
        ));
        out
    }
}
