//! `campaign-matrix`: `campaign::run_campaign` on the built-in `matrix`
//! plan's cells, truncated to a per-cell trial count.
//!
//! Attack attempts and fresh-VM spawns do all the work here; respawn
//! does none. Trials are multi-round adaptive campaigns, unlike serve's
//! one attempt per request.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::Instant;

use smokestack_attacks::{by_name, run_trial, Attack, AttackOutcome, Build};
use smokestack_campaign::{
    aggregate, bounds_for_plan, build_seed, check, run_campaign, run_pool, trial_seed,
    wilson_interval, CampaignPlan, CellStats, EngineConfig, MatrixBound, RecordSink, TrialRecord,
    Z95,
};
use smokestack_core::SmokestackConfig;
use smokestack_defenses::DefenseKind;

use crate::layers::{mix, SetupTimes};
use crate::stats::{median, name_segment, quantile, Checks, Metric};
use crate::trace;

/// The `matrix` plan truncated to `trials` per cell, with a master
/// seed derived from the benchmark seed.
pub fn matrix_plan(seed: u64, trials: u32) -> CampaignPlan {
    let mut plan = CampaignPlan::matrix().truncated(trials);
    plan.master_seed = mix(seed, 0xca3e_0000);
    plan
}

/// Compile each attack's program once and deploy every cell of `plan`,
/// as each campaign worker does before its first trial of a cell.
pub fn setup(plan: &CampaignPlan, times: &mut SetupTimes) -> Result<(), String> {
    let mut bases = HashMap::new();
    for (ci, cell) in plan.cells.iter().enumerate() {
        let attack = by_name(&cell.attack).ok_or(format!("unknown attack {}", cell.attack))?;
        if !bases.contains_key(&cell.attack) {
            bases.insert(cell.attack.clone(), times.compile(attack.source())?);
        }
        let (module, _) = times.deploy(
            &bases[&cell.attack],
            cell.defense,
            build_seed(plan.master_seed, ci as u32),
            &SmokestackConfig::default(),
        )?;
        times.lower(
            &smokestack_vm::Executor::for_module(module)
                .scheme(cell.defense.scheme())
                .build(),
        );
    }
    Ok(())
}

/// Check cell statistics against matrix bounds at a truncated trial
/// count. A Wilson interval over a few dozen trials is too wide to prove
/// a cap of 10–15% (that needs the plan's full 120 trials per cell), so
/// a bound fails here when the trials *contradict* it: a cap whose
/// Wilson lower bound already exceeds it, a floor whose Wilson upper
/// bound falls below it, or a cell that was not measured.
pub fn contradicted(stats: &[CellStats], bounds: &[MatrixBound]) -> Vec<String> {
    let mut out = Vec::new();
    for b in bounds {
        let label = b.defense.label();
        let Some(cell) = stats
            .iter()
            .find(|s| s.attack == b.attack && s.defense == label)
        else {
            out.push(format!("{} vs {label}: cell not measured", b.attack));
            continue;
        };
        let (lo, hi) = wilson_interval(cell.successes(), cell.trials, Z95);
        if let Some(cap) = b.max_success_upper.filter(|&cap| lo > cap) {
            out.push(format!(
                "{} vs {label}: success rate significantly above cap {cap} ({}/{})",
                b.attack,
                cell.successes(),
                cell.trials
            ));
        }
        if let Some(floor) = b.min_success_rate.filter(|&floor| hi < floor) {
            out.push(format!(
                "{} vs {label}: success rate significantly below floor {floor} ({}/{})",
                b.attack,
                cell.successes(),
                cell.trials
            ));
        }
    }
    out
}

/// Count a failure for every bound of the `matrix` plan the records
/// contradict; bounds that remain undecided at this trial count are
/// returned for the report.
pub fn check_bounds(
    records: &[TrialRecord],
    bounds: &[MatrixBound],
    checks: &mut Checks,
) -> Vec<String> {
    let stats = aggregate(records);
    checks.attempted += 1;
    for v in contradicted(&stats, bounds) {
        checks.fail(format!("campaign: {v}"));
    }
    check(&stats, bounds)
        .iter()
        .map(|v| v.to_string())
        .collect()
}

/// Times every trial of `run_campaign` from its record journal. The
/// engine writes a trial's record on the worker thread right after the
/// trial, so the time between one write and the next on a thread is one
/// trial, plus the cell context a worker builds before its first trial
/// of a cell.
struct LapSink {
    start: Instant,
    laps: Mutex<Laps>,
}

/// Last write per worker thread, and every lap (ns) with its line.
type Laps = (HashMap<ThreadId, Instant>, Vec<(u64, String)>);

impl RecordSink for LapSink {
    fn write_line(&self, line: &str) {
        let now = Instant::now();
        let mut laps = self.laps.lock().expect("no worker panics while timing");
        let prev = laps.0.insert(std::thread::current().id(), now);
        let ns = (now - prev.unwrap_or(self.start)).as_nanos() as u64;
        laps.1.push((ns, line.to_owned()));
    }
}

/// A measured campaign-matrix phase.
///
/// Trial cost is heavy-tailed: a cross-thread trial that ends out of
/// fuel runs for seconds while a typical trial takes a few
/// milliseconds, and how many such trials a run draws depends on its
/// seed. Whole-campaign throughput is therefore a count of those rare
/// trials, so the gated figures come from the per-trial times of
/// `run_campaign`'s workers.
pub struct CampaignStats {
    /// Trials completed.
    pub trials: u64,
    /// Wall time of the passes, s.
    pub wall_s: f64,
    /// Per-trial worker times, ms, for unprotected and hardened cells.
    pub trial_ms: [Vec<f64>; 2],
    /// Worker threads.
    pub jobs: usize,
    /// Bounds the truncated run cannot decide either way.
    pub undecided: Vec<String>,
}

/// Run passes of `run_campaign` on `plan` (a fresh master seed each)
/// until `seconds` have passed, timing every trial; then check all
/// trials against the `matrix` plan's bounds.
pub fn measure(
    plan: &CampaignPlan,
    jobs: usize,
    seconds: f64,
    checks: &mut Checks,
) -> Result<CampaignStats, String> {
    let cfg = EngineConfig {
        jobs,
        ..EngineConfig::default()
    };
    let mut stats = CampaignStats {
        trials: 0,
        wall_s: 0.0,
        trial_ms: [Vec::new(), Vec::new()],
        jobs,
        undecided: Vec::new(),
    };
    let mut records = Vec::new();
    let start = Instant::now();
    let mut pass = 0;
    while pass == 0 || start.elapsed().as_secs_f64() < seconds {
        let mut p = plan.clone();
        p.master_seed = mix(plan.master_seed, pass);
        let sink = LapSink {
            start: Instant::now(),
            laps: Mutex::new((HashMap::new(), Vec::new())),
        };
        let r = run_campaign(&p, &cfg, &HashSet::new(), Some(&sink))?;
        stats.wall_s += sink.start.elapsed().as_secs_f64();
        let n = r.records.len() as u64;
        checks.attempted += n;
        checks.require(n == p.total_trials(), || {
            format!("campaign: {n} of {} trials completed", p.total_trials())
        });
        let laps = sink
            .laps
            .into_inner()
            .expect("no worker panics while timing")
            .1;
        let mut journaled = Vec::with_capacity(laps.len());
        for (ns, line) in laps {
            if let Some(rec) = TrialRecord::from_json_line(&line) {
                let side = usize::from(plan.cells[rec.cell as usize].defense != DefenseKind::None);
                stats.trial_ms[side].push(ns as f64 / 1e6);
                journaled.push(rec);
            }
        }
        journaled.sort_unstable_by_key(|r| (r.cell, r.index));
        checks.require(journaled == r.records, || {
            "campaign: the journal does not hold every trial's record once".to_string()
        });
        stats.trials += n;
        records.extend(r.records);
        pass += 1;
    }
    let bounds = bounds_for_plan("matrix").ok_or("matrix plan has no bounds")?;
    stats.undecided = check_bounds(&records, &bounds, checks);
    Ok(stats)
}

impl CampaignStats {
    /// Trials per second over the whole run (mean throughput).
    pub fn mean_rate(&self) -> f64 {
        self.trials as f64 / self.wall_s.max(1e-9)
    }

    /// The end-to-end metrics: the worker pool's trial throughput if
    /// every trial cost its side's median, for the plan's mix of
    /// unprotected and hardened trials, and the median hardened trial.
    ///
    /// Measured rates moved with the seed: on a 2-vCPU VM, over seeds
    /// 501–506, trials per second of worker time without the out-of-fuel
    /// trials ranged 589–796, attack rounds per second 1,152–1,630, and
    /// the rate at each cell's median trial 796–962, against 854–908
    /// for this figure.
    pub fn end_to_end(&self) -> Vec<Metric> {
        let med = [median(&self.trial_ms[0]), median(&self.trial_ms[1])];
        let n = [self.trial_ms[0].len() as f64, self.trial_ms[1].len() as f64];
        let busy_ms = n[0] * med[0] + n[1] * med[1];
        vec![
            Metric::new(
                "ops_per_s",
                "1/s",
                self.jobs as f64 * 1e3 * (n[0] + n[1]) / busy_ms.max(1e-9),
            ),
            Metric::new("hardened_ms", "ms", med[1]),
        ]
    }
}

/// Wraps an attack so each `Attack::attempt` is a span and its outcome
/// is counted.
struct TimedAttack<'a> {
    inner: Box<dyn Attack>,
    defense: &'static str,
    outcomes: &'a [AtomicU64; 5],
}

impl Attack for TimedAttack<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn source(&self) -> &str {
        self.inner.source()
    }

    fn attempt(&self, build: &Build, trial_seed: u64) -> AttackOutcome {
        let out = trace::span("attacks.attempt", self.defense, trace::INHERIT, || {
            self.inner.attempt(build, trial_seed)
        });
        self.outcomes[crate::serve_mixed::outcome_slot(&out)].fetch_add(1, Ordering::Relaxed);
        out
    }
}

/// Attempt outcome labels, in counter order.
pub const OUTCOMES: [&str; 5] = ["success", "detected", "crashed", "failed", "aborted"];

/// What the loop produced.
pub struct Driven {
    /// Trial records, sorted as `run_campaign` sorts them.
    pub records: Vec<TrialRecord>,
    /// Every span recorded (empty unless tracing is on).
    pub spans: trace::Blocks,
    /// Loop wall time, s.
    pub wall_s: f64,
    /// Attempt outcome counts, in [`OUTCOMES`] order.
    pub outcomes: [u64; 5],
}

/// The trial loop of `run_campaign` for the traced run, driven from the
/// same public parts (`run_pool`, `Build::new`, `run_trial`,
/// `TrialRecord::from_run`) so that, when tracing is on, each build,
/// trial and attack attempt is a span. The traced run checks its records
/// against `run_campaign`'s.
pub fn drive(plan: &CampaignPlan, jobs: usize) -> Driven {
    let tasks: Vec<(u32, u32, u64)> = plan
        .cells
        .iter()
        .enumerate()
        .flat_map(|(ci, c)| {
            (0..c.trials).map(move |i| (ci as u32, i, trial_seed(plan.master_seed, ci as u32, i)))
        })
        .collect();
    let outcomes: [AtomicU64; 5] = Default::default();
    let spans = Mutex::new(Vec::new());
    let started = Instant::now();
    let run = run_pool(
        jobs,
        tasks,
        None,
        |_| HashMap::<u32, (TimedAttack, Build)>::new(),
        |cache, &(cell, index, seed)| {
            let spec = &plan.cells[cell as usize];
            let tag = trace::intern(&name_segment(&spec.defense.label()));
            let req = (u64::from(cell) << 32) | u64::from(index);
            let (attack, build) = cache.entry(cell).or_insert_with(|| {
                trace::span("campaign.build", tag, req, || {
                    let inner = by_name(&spec.attack).expect("plan attack resolves");
                    let build = Build::new(
                        inner.source(),
                        spec.defense,
                        build_seed(plan.master_seed, cell),
                    );
                    let attack = TimedAttack {
                        inner,
                        defense: tag,
                        outcomes: &outcomes,
                    };
                    (attack, build)
                })
            });
            let run = trace::span("campaign.trial", tag, req, || {
                run_trial(&*attack, build, seed)
            });
            TrialRecord::from_run(
                cell,
                index,
                attack.name(),
                &spec.defense.label(),
                seed,
                &run,
            )
        },
        |_| {
            spans
                .lock()
                .expect("no worker panics while holding the span list")
                .extend(trace::take_thread_spans())
        },
    );
    let wall_s = started.elapsed().as_secs_f64();
    let mut records = run.results;
    records.sort_unstable_by_key(|r| (r.cell, r.index));
    Driven {
        records,
        spans: spans
            .into_inner()
            .expect("no worker panics while holding the span list"),
        wall_s,
        outcomes: outcomes.map(AtomicU64::into_inner),
    }
}

/// Time `Build::vm` — the fresh VM every attack attempt spawns — from
/// `jobs` pool workers, `probes` spawns per cell of `plan`.
pub fn spawn_probes(plan: &CampaignPlan, jobs: usize, probes: u32) -> trace::Blocks {
    let tag = trace::intern("attack-build");
    let tasks: Vec<(u32, u32)> = (0..plan.cells.len() as u32)
        .flat_map(|c| (0..probes).map(move |k| (c, k)))
        .collect();
    let spans = Mutex::new(Vec::new());
    run_pool(
        jobs,
        tasks,
        None,
        |_| HashMap::<u32, Build>::new(),
        |cache, &(cell, k)| {
            let spec = &plan.cells[cell as usize];
            let build = cache.entry(cell).or_insert_with(|| {
                let attack = by_name(&spec.attack).expect("plan attack resolves");
                Build::new(
                    attack.source(),
                    spec.defense,
                    build_seed(plan.master_seed, cell),
                )
            });
            let seed = (u64::from(cell) << 32) | u64::from(k);
            drop(trace::span("vm.spawn", tag, seed, || build.vm(seed)));
        },
        |_| {
            spans
                .lock()
                .expect("no worker panics while holding the span list")
                .extend(trace::take_thread_spans())
        },
    );
    spans
        .into_inner()
        .expect("no worker panics while holding the span list")
}

impl Driven {
    /// Campaign per-layer metrics for a traced run on `jobs` workers,
    /// with `spawns` from [`spawn_probes`].
    pub fn layer_metrics(&self, jobs: usize, spawns: &trace::Blocks) -> Vec<Metric> {
        let trials: Vec<f64> = self
            .spans
            .iter()
            .flatten()
            .filter(|s| s.name == "campaign.trial")
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect();
        let spawn_us: Vec<f64> = spawns
            .iter()
            .flatten()
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect();
        let busy_ms: f64 = trials.iter().sum();
        let mut out = vec![
            Metric::new("campaign.trial_ms.p50", "ms", quantile(&trials, 0.5)),
            Metric::new("campaign.trial_ms.p99", "ms", quantile(&trials, 0.99)),
            Metric::new(
                "campaign.busy_share",
                "share",
                busy_ms / (self.wall_s * 1e3 * jobs as f64).max(1e-9),
            ),
            Metric::new("vm.spawn_us.p50", "us", quantile(&spawn_us, 0.5)),
            Metric::new("vm.spawn_us.p99", "us", quantile(&spawn_us, 0.99)),
        ];
        for (label, count) in OUTCOMES.iter().zip(self.outcomes) {
            out.push(Metric::new(
                format!("attacks.outcomes.{label}"),
                "count",
                count as f64,
            ));
        }
        out
    }
}
