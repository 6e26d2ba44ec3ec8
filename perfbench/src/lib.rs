//! # perfbench
//!
//! The repository's wall-clock benchmark: three workloads, each timed
//! end to end with tracing off, plus a traced run that times every
//! layer from outside by wrapping the calls into its public functions.
//!
//! * `spec-cpu` — hardened and unhardened runs of a fixed program set.
//! * `serve-mixed` — `serve::run_serve` on the `load` plan's traffic mix.
//! * `campaign-matrix` — `campaign::run_campaign` on the `matrix` plan's
//!   cells, truncated per cell.
//!
//! Every run checks the program's outputs and counts failed checks.

pub mod campaign_matrix;
pub mod layers;
pub mod serve_mixed;
pub mod spec;
pub mod stats;
pub mod trace;

use smokestack_srng::SchemeKind;

use layers::{repeated_setup, SetupTimes};
use stats::{median, name_segment, peak_rss_mib, quantile, Checks, Metric};

/// The end-to-end metrics every untraced run reports, in order.
pub const END_TO_END: [&str; 4] = ["ops_per_s", "hardened_ms", "setup_s", "peak_rss_mib"];

/// The workloads, by name.
pub const WORKLOADS: [&str; 3] = ["spec-cpu", "serve-mixed", "campaign-matrix"];

/// How much work a run does. [`Size::full`] is the benchmark; the tests
/// use [`Size::tiny`].
#[derive(Debug, Clone)]
pub struct Size {
    /// spec-cpu programs.
    pub programs: Vec<&'static str>,
    /// Requests per serve pass.
    pub serve_requests: u64,
    /// Trials per campaign cell and pass.
    pub campaign_trials: u32,
    /// Set-ups per run (`setup_s` is their median).
    pub setup_reps: usize,
    /// Traced run: untraced/traced spec-cpu round pairs.
    pub trace_spec_rounds: u64,
    /// Traced run: requests the serve loop replays.
    pub trace_serve_requests: u64,
    /// Traced run: trials per campaign cell.
    pub trace_campaign_trials: u32,
    /// Traced run: `Build::vm` spawns timed per campaign cell.
    pub spawn_probes: u32,
}

impl Size {
    /// The benchmark's sizes.
    pub fn full() -> Size {
        Size {
            programs: spec::PROGRAMS.to_vec(),
            serve_requests: 42_840,
            campaign_trials: 8,
            setup_reps: 40,
            trace_spec_rounds: 2,
            trace_serve_requests: 28_560,
            trace_campaign_trials: 3,
            spawn_probes: 4,
        }
    }

    /// A run small enough for a unit test.
    pub fn tiny() -> Size {
        Size {
            programs: vec!["gcc", "proftpd", "dedup"],
            serve_requests: 600,
            campaign_trials: 1,
            setup_reps: 1,
            trace_spec_rounds: 1,
            trace_serve_requests: 600,
            trace_campaign_trials: 1,
            spawn_probes: 1,
        }
    }
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Seconds the timed phase runs.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of end-to-end.
    pub trace: bool,
    /// Work sizes.
    pub size: Size,
    /// Worker threads for campaign-matrix (serve-mixed uses
    /// [`serve_mixed::JOBS`]).
    pub jobs: usize,
}

/// What a run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Correctness bookkeeping.
    pub checks: Checks,
    /// Metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Human-readable report lines.
    pub report: Vec<String>,
}

/// Worker threads: every available core.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Run the benchmark.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    if !WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(format!(
            "unknown workload `{}` (expected one of {WORKLOADS:?})",
            opts.workload
        ));
    }
    if opts.trace {
        run_traced(opts)
    } else {
        run_end_to_end(opts)
    }
}

fn run_end_to_end(opts: &Options) -> Result<Outcome, String> {
    let (seed, size) = (opts.seed, &opts.size);
    let mut out = Outcome::default();
    let setup_s;
    match opts.workload.as_str() {
        "spec-cpu" => {
            let (s, progs, _) =
                repeated_setup(size.setup_reps, |t| spec::setup(&size.programs, seed, t))?;
            setup_s = s;
            let st = spec::measure(&progs, opts.seconds, 1, u64::MAX, &mut out.checks);
            out.metrics = st.end_to_end();
            out.report.extend(st.rows());
            out.report.push(format!(
                "spec_hardened_ms = {:.4} ms\nspec_baseline_ms = {:.4} ms",
                out.metrics[1].value,
                st.geomean_fastest_ms(false)
            ));
        }
        "serve-mixed" => {
            let plan = serve_mixed::plan(seed, 0, size.serve_requests);
            let (s, _, _) =
                repeated_setup(size.setup_reps, |t| serve_mixed::deploy_cells(&plan, t))?;
            setup_s = s;
            let st = serve_mixed::measure(
                seed,
                serve_mixed::JOBS,
                size.serve_requests,
                opts.seconds,
                &mut out.checks,
            )?;
            out.metrics = st.end_to_end();
            let hard = serve_mixed::hardened_wall(&st.fleets);
            let passes: Vec<String> = st
                .pass_figures
                .iter()
                .zip(&st.pass_baseline_ms)
                .map(|([rps, h], b)| format!("{rps:.0}/{:.2}/{:.2}", h * 1e3, b * 1e3))
                .collect();
            out.report.push(format!(
                "serve_rps = {:.1} 1/s (engine wall, median pass; passes {:.0?}; not gated)\n\
                 per pass, benign rps at fleet medians / hardened p50 us / unprotected p50 us: {}\n\
                 pooled over passes:\n\
                 serve_benign_rps = {:.1} 1/s (benign requests per second of benign service time)\n\
                 serve_hardened_p50_us = {:.2} us\n\
                 serve_hardened_p99_us = {:.2} us ({} hardened benign requests)",
                median(&st.pass_rps),
                st.pass_rps,
                passes.join(" "),
                serve_mixed::benign_rps(&st.fleets),
                stats::hist_quantile(&hard, 0.5) / 1e3,
                stats::hist_quantile(&hard, 0.99) / 1e3,
                hard.count()
            ));
            for f in &st.fleets {
                out.report.push(format!(
                    "fleet {:<26} benign {:>7} attacks {:>4} outcomes {:?} wall p50 {:.2} us p99 {:.2} us",
                    f.label,
                    f.benign,
                    f.attacks,
                    f.outcomes,
                    stats::hist_quantile(&f.wall_ns, 0.5) / 1e3,
                    stats::hist_quantile(&f.wall_ns, 0.99) / 1e3
                ));
            }
        }
        _ => {
            let plan = campaign_matrix::matrix_plan(seed, size.campaign_trials);
            let (s, _, _) = repeated_setup(size.setup_reps, |t| campaign_matrix::setup(&plan, t))?;
            setup_s = s;
            let st = campaign_matrix::measure(&plan, opts.jobs, opts.seconds, &mut out.checks)?;
            out.metrics = st.end_to_end();
            out.report.push(format!(
                "campaign_trials_per_s = {:.3} 1/s at each side's median trial \
                 ({:.3} 1/s of wall time over {} trials)\n{}\n{}",
                out.metrics[0].value,
                st.mean_rate(),
                st.trials,
                stats::summary("hardened trial_ms", &st.trial_ms[1]),
                stats::summary("baseline trial_ms", &st.trial_ms[0])
            ));
            for u in &st.undecided {
                out.report
                    .push(format!("undecided at this trial count: {u}"));
            }
        }
    }
    out.metrics.push(Metric::new("setup_s", "s", setup_s));
    out.metrics
        .push(Metric::new("peak_rss_mib", "MiB", peak_rss_mib()));
    Ok(out)
}

/// Every span name the traced run records, in report order.
pub const SPAN_NAMES: [&str; 13] = [
    "spec.run",
    "vm.spawn",
    "vm.run",
    "serve.worker_init",
    "serve.schedule",
    "serve.prep",
    "vm.session_open",
    "vm.request",
    "attacks.attempt",
    "serve.record",
    "serve.fold",
    "campaign.build",
    "campaign.trial",
];

/// Defense labels whose attack attempts the traced run reports.
pub const ATTEMPT_DEFENSES: [&str; 4] = [
    "none",
    "stack-canary",
    "smokestack/AES-10",
    "smokestack/RDRAND",
];

/// Of four rounds of the same work, the traced ones: untraced, traced,
/// traced, untraced, so run order weighs equally on both sides of the
/// tracing-overhead ratio.
const TRACED_ROUNDS: [u64; 2] = [1, 2];

/// The traced run. Each workload exercises only some layers and every
/// traced run reports every layer, so it drives all three workloads at
/// reduced size whatever `--workload` names (the name only labels the
/// span dump). Each workload's checks run against its engine
/// (`Executor::run_main_seeded`, `run_serve`, `run_campaign`); its spans
/// come from the same calls driven by the benchmark, run untraced and
/// traced on the same inputs in [`TRACED_ROUNDS`] order. Metrics are
/// computed after all three have run, so no phase runs beside the
/// allocations that computing them makes.
fn run_traced(opts: &Options) -> Result<Outcome, String> {
    let (seed, size, jobs) = (opts.seed, &opts.size, opts.jobs);
    let mut out = Outcome::default();
    let mut setup = SetupTimes::default();
    // Spans per serve request (schedule, prep or attempt, request,
    // record, session open) for both traced serve rounds, plus headroom
    // for spec-cpu and campaigns.
    trace::preallocate(2 * 5 * size.trace_serve_requests as usize + 64 * 1024);
    let srng = layers::srng_metrics(seed);

    // spec-cpu: untraced and traced rounds of the same runs, alternating
    // which goes first.
    let progs = spec::setup(&size.programs, seed, &mut setup)?;
    let mut spec_wall = [0.0; 2];
    let mut spec_stats = None;
    for round in 0..2 * size.trace_spec_rounds {
        let traced = TRACED_ROUNDS.contains(&(round % 4));
        trace::set_enabled(traced);
        let st = spec::measure(&progs, 0.0, 1, 1, &mut out.checks);
        trace::set_enabled(false);
        spec_wall[usize::from(traced)] += st.wall_s;
        if traced {
            spec_stats = Some(st);
        }
    }
    let spec_stats = spec_stats.expect("at least one traced round");
    let spec_spans = trace::take_thread_spans();
    let recorder_ratio = spec::recorder_ratio(&progs, 1);
    drop(progs);

    // serve-mixed: run_serve, then the replica loop on the same plan,
    // untraced and traced in alternating order.
    let plan = serve_mixed::plan(seed, 0, size.trace_serve_requests);
    let cells = serve_mixed::deploy_cells(&plan, &mut setup)?;
    let serve_cfg = smokestack_serve::ServeConfig {
        jobs: serve_mixed::JOBS,
        ..Default::default()
    };
    let serve_plain = smokestack_serve::run_serve(&plan, &serve_cfg, None)?;
    serve_mixed::check_report(&plan, &serve_plain, &mut out.checks);
    let mut serve = None;
    let mut serve_wall = [0.0; 2];
    for round in 0..4 {
        let traced = TRACED_ROUNDS.contains(&round);
        trace::set_enabled(traced);
        let t = serve_mixed::traced(&plan, serve_mixed::JOBS, &cells);
        trace::set_enabled(false);
        serve_wall[usize::from(traced)] += t.report.wall_secs;
        serve_mixed::check_report(&plan, &t.report, &mut out.checks);
        out.checks.attempted += 1;
        out.checks.require(
            t.report.deterministic_digest() == serve_plain.deterministic_digest(),
            || "serve: replica loop does not reproduce run_serve's counts".to_string(),
        );
        if serve.is_none() && traced {
            serve = Some(t);
        } else {
            trace::recycle(t.spans);
        }
    }
    let serve = serve.expect("a traced round");
    drop(cells);

    // campaign-matrix: run_campaign, then the replica loop, untraced and
    // traced in alternating order.
    let plan = campaign_matrix::matrix_plan(seed, size.trace_campaign_trials);
    campaign_matrix::setup(&plan, &mut setup)?;
    let campaign_plain = smokestack_campaign::run_campaign(
        &plan,
        &smokestack_campaign::EngineConfig {
            jobs,
            ..Default::default()
        },
        &Default::default(),
        None,
    )?;
    out.checks.attempted += 1;
    out.checks.require(
        campaign_plain.records.len() as u64 == plan.total_trials(),
        || "campaign: run_campaign did not complete every trial".to_string(),
    );
    let mut campaign = None;
    let mut campaign_wall = [0.0; 2];
    for round in 0..4 {
        let traced = TRACED_ROUNDS.contains(&round);
        trace::set_enabled(traced);
        let d = campaign_matrix::drive(&plan, jobs);
        trace::set_enabled(false);
        campaign_wall[usize::from(traced)] += d.wall_s;
        out.checks.attempted += d.records.len() as u64;
        out.checks.require(d.records == campaign_plain.records, || {
            "campaign: replica loop does not reproduce run_campaign's records".to_string()
        });
        if campaign.is_none() && traced {
            campaign = Some(d);
        } else {
            trace::recycle(d.spans);
        }
    }
    let campaign = campaign.expect("a traced round");
    trace::set_enabled(true);
    let spawns = campaign_matrix::spawn_probes(&plan, jobs, size.spawn_probes);
    trace::set_enabled(false);

    // Metrics, now that every phase has run.
    let draw_of = |scheme: SchemeKind| {
        let name = format!("srng.draw_ns.{}", name_segment(scheme.label()));
        srng.iter()
            .find(|x| x.name == name)
            .map_or(0.0, |x| x.value)
    };
    let mut m = srng.clone();
    m.extend(spec::layer_metrics(
        &spec_stats,
        &spec_spans.concat(),
        draw_of(SchemeKind::Aes10),
    ));
    m.push(Metric::new(
        "telemetry.recorder_ratio",
        "ratio",
        recorder_ratio,
    ));
    m.extend(serve.layer_metrics(&draw_of));
    m.extend(campaign.layer_metrics(jobs, &spawns));
    let serve_rps = serve_plain.served as f64 / serve_plain.wall_secs.max(1e-9);
    m.push(Metric::new("serve.engine_rps", "1/s", serve_rps));
    out.report.push(format!(
        "serve replica loop wall: untraced {:.1} ms, traced {:.1} ms (two rounds each); \
         run_serve {:.1} req/s\n\
         serve span coverage {:.1}% of loop time (target >= 90%)",
        serve_wall[0] * 1e3,
        serve_wall[1] * 1e3,
        serve_rps,
        100.0 * (1.0 - serve.unattributed_share())
    ));
    let overhead = [
        ("spec-cpu", spec_wall[1] / spec_wall[0].max(1e-9)),
        ("serve-mixed", serve_wall[1] / serve_wall[0].max(1e-9)),
        (
            "campaign-matrix",
            campaign_wall[1] / campaign_wall[0].max(1e-9),
        ),
    ];
    let spans: Vec<trace::Span> = [spec_spans, serve.spans, campaign.spans, spawns]
        .concat()
        .concat();

    // Cross-workload layers: attack attempts, set-up, self time.
    let layers = trace::by_layer(&spans);
    for label in ATTEMPT_DEFENSES {
        let tag = trace::intern(&name_segment(label));
        let durs: Vec<f64> = layers
            .get(&("attacks.attempt", tag))
            .map_or(Vec::new(), |l| {
                l.durations.iter().map(|&d| d as f64 / 1e6).collect()
            });
        for (q, p) in [(0.5, "p50"), (0.99, "p99")] {
            m.push(Metric::new(
                format!("attacks.attempt_ms.{tag}.{p}"),
                "ms",
                quantile(&durs, q),
            ));
        }
    }
    m.extend(setup.metrics());
    for name in SPAN_NAMES {
        let self_ns: u64 = layers
            .iter()
            .filter(|((n, _), _)| *n == name)
            .map(|(_, l)| l.self_ns)
            .sum();
        m.push(Metric::new(
            format!("self_ms.{name}"),
            "ms",
            self_ns as f64 / 1e6,
        ));
    }
    for (w, ratio) in overhead {
        m.push(Metric::new(format!("trace.overhead.{w}"), "ratio", ratio));
    }
    let path = std::path::PathBuf::from(".bench_out")
        .join(format!("spans-{}-seed{seed}.jsonl", opts.workload));
    out.report.push(match trace::write_jsonl(&path, &spans) {
        Ok(()) => format!("{} spans written to {}", spans.len(), path.display()),
        Err(e) => format!("spans not written to {}: {e}", path.display()),
    });
    out.metrics = m;
    Ok(out)
}
