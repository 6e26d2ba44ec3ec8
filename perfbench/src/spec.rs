//! `spec-cpu`: hardened (Smokestack, AES-10) and unhardened runs of a
//! fixed program set from `smokestack-workloads`, through
//! `Executor::run_main_seeded`.
//!
//! Compile, harden and lower happen only in set-up; the timed phase is
//! dispatch plus, on the hardened side, one entropy draw per hardened
//! call. Respawn and attacks never run.

use std::time::Instant;

use smokestack_srng::SchemeKind;
use smokestack_telemetry::SharedRecorder;
use smokestack_vm::{Executor, Exit, RunOutcome, ScriptedInput};

use crate::layers::{mix, SetupTimes};
use crate::stats::{fastest, geomean, median, tail, Checks, Metric};
use crate::trace::{self, Span};

/// The program set. Call-heavy and large-frame programs, two with a low
/// call rate, the two I/O programs, and the three threaded ones.
pub const PROGRAMS: [&str; 14] = [
    "perlbench",
    "gcc",
    "gobmk",
    "omnetpp",
    "astar",
    "xalancbmk",
    "h264ref",
    "mcf",
    "hmmer",
    "proftpd",
    "wireshark",
    "swaptions",
    "dedup",
    "streamcluster",
];

/// Instructions a program's repeat group should cover per round: cheap
/// programs run several times per round so every program collects
/// enough samples for a tail percentile.
const INSTS_PER_GROUP: u64 = 2_000_000;
/// Cap on repeats per round for the cheapest programs.
const MAX_REPS: u64 = 40;

/// One prepared program: its hardened and unhardened executors and the
/// per-program seeds the benchmark seed derives.
pub struct Program {
    /// Workload name.
    pub name: &'static str,
    /// Smokestack (AES-10) build.
    pub hardened: Executor,
    /// Unhardened build.
    pub baseline: Executor,
    /// TRNG seed every run of this program uses.
    pub trng_seed: u64,
}

/// Compile, harden, and lower every program in `names`.
pub fn setup(names: &[&str], seed: u64, times: &mut SetupTimes) -> Result<Vec<Program>, String> {
    let mut out = Vec::new();
    for (i, &name) in names.iter().enumerate() {
        let w = smokestack_workloads::by_name(name).ok_or(format!("unknown program {name}"))?;
        let base = times
            .compile(w.source)
            .map_err(|e| format!("{name}: {e}"))?;
        let hard = times.harden(&base).map_err(|e| format!("{name}: {e}"))?;
        let trng_seed = mix(seed, 0x5bec_0000 + i as u64);
        let sched_seed = mix(seed, 0x5ced_0000 + i as u64);
        let exec = |m| {
            Executor::for_module(m)
                .scheme(SchemeKind::Aes10)
                .trng_seed(trng_seed)
                .sched_seed(sched_seed)
                .build()
        };
        let (hardened, baseline) = (exec(hard), exec(base));
        times.lower(&hardened);
        times.lower(&baseline);
        out.push(Program {
            name: w.name,
            hardened,
            baseline,
            trng_seed,
        });
    }
    Ok(out)
}

/// What every repeat of a run must reproduce exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct Reference {
    /// How the program ended.
    pub exit: Exit,
    /// Canonical output text.
    pub output: String,
    /// Modeled decicycles.
    pub decicycles: u64,
    /// Instructions executed.
    pub insts: u64,
}

impl Reference {
    /// The reference values of `out`.
    pub fn of(out: &RunOutcome) -> Reference {
        Reference {
            exit: out.exit.clone(),
            output: out.output_text(),
            decicycles: out.decicycles,
            insts: out.insts,
        }
    }
}

/// Samples and counters for one program.
#[derive(Debug, Clone, Default)]
pub struct ProgramStats {
    /// Program name.
    pub name: &'static str,
    /// Runs of each variant per round.
    pub reps: u64,
    /// Hardened run wall times, ms.
    pub hardened_ms: Vec<f64>,
    /// Unhardened run wall times, ms.
    pub baseline_ms: Vec<f64>,
    /// Instructions per hardened / unhardened run.
    pub insts: [u64; 2],
    /// Entropy draws per hardened run.
    pub draws: u64,
    /// Modeled entropy decicycles per hardened run.
    pub rng_deci: u64,
    /// Total decicycles per hardened run.
    pub deci: u64,
}

impl ProgramStats {
    /// Run wall times of one variant, ms.
    pub fn samples(&self, hardened: bool) -> &[f64] {
        if hardened {
            &self.hardened_ms
        } else {
            &self.baseline_ms
        }
    }
}

/// A measured spec-cpu phase.
#[derive(Debug, Default)]
pub struct SpecStats {
    /// Per program, in [`PROGRAMS`] order.
    pub programs: Vec<ProgramStats>,
    /// Wall time of the timed loop, s.
    pub wall_s: f64,
}

fn run(exec: &Executor, seed: u64, tag: &'static str, req: u64) -> (RunOutcome, f64) {
    let t = Instant::now();
    let out = if trace::enabled() {
        trace::span("spec.run", tag, req, || {
            let mut vm = trace::span("vm.spawn", tag, req, || exec.vm_seeded(seed));
            trace::span("vm.run", tag, req, || {
                vm.run_main_with(&mut ScriptedInput::empty())
            })
        })
    } else {
        exec.run_main_seeded(seed, &mut ScriptedInput::empty())
    };
    (out, t.elapsed().as_secs_f64() * 1e3)
}

/// Reference-run every program once per variant, then run rounds until
/// `seconds` have passed (at least `min_rounds`, at most `max_rounds`),
/// checking every run against its reference.
pub fn measure(
    progs: &[Program],
    seconds: f64,
    min_rounds: u64,
    max_rounds: u64,
    checks: &mut Checks,
) -> SpecStats {
    let mut refs = Vec::new();
    let mut stats = SpecStats::default();
    for p in progs {
        let (h, _) = run(&p.hardened, p.trng_seed, "", 0);
        let (b, _) = run(&p.baseline, p.trng_seed, "", 0);
        checks.attempted += 2;
        checks.require(h.exit == b.exit && h.output == b.output, || {
            format!("{}: hardened run diverges from unhardened", p.name)
        });
        checks.require(b.exit.is_clean(), || {
            format!("{}: baseline faulted", p.name)
        });
        let reps = (INSTS_PER_GROUP / b.insts.max(1)).clamp(1, MAX_REPS);
        stats.programs.push(ProgramStats {
            name: p.name,
            reps,
            insts: [h.insts, b.insts],
            draws: h.rng_invocations,
            rng_deci: h.breakdown.rng,
            deci: h.decicycles,
            ..ProgramStats::default()
        });
        refs.push([Reference::of(&h), Reference::of(&b)]);
    }
    let tags: Vec<[&'static str; 2]> = progs
        .iter()
        .map(|p| {
            [
                trace::intern(&format!("{}.hardened", p.name)),
                trace::intern(&format!("{}.baseline", p.name)),
            ]
        })
        .collect();
    let start = Instant::now();
    let mut round = 0u64;
    let mut req = 0u64;
    while round < max_rounds && (round < min_rounds || start.elapsed().as_secs_f64() < seconds) {
        for (pi, p) in progs.iter().enumerate() {
            for k in 0..stats.programs[pi].reps {
                // Alternate which variant goes first so neither side
                // systematically inherits a warmer cache.
                let order = if (round + k).is_multiple_of(2) {
                    [0, 1]
                } else {
                    [1, 0]
                };
                for v in order {
                    let exec = if v == 0 { &p.hardened } else { &p.baseline };
                    req += 1;
                    let (out, ms) = run(exec, p.trng_seed, tags[pi][v], req);
                    check_repeat(&refs[pi][v], &out, tags[pi][v], checks);
                    let ps = &mut stats.programs[pi];
                    if v == 0 {
                        ps.hardened_ms.push(ms);
                    } else {
                        ps.baseline_ms.push(ms);
                    }
                }
            }
        }
        round += 1;
    }
    stats.wall_s = start.elapsed().as_secs_f64();
    stats
}

/// Count one run, failing it unless it repeats `reference` exactly.
pub fn check_repeat(reference: &Reference, out: &RunOutcome, what: &str, checks: &mut Checks) {
    checks.attempted += 1;
    let got = Reference::of(out);
    checks.require(got == *reference, || {
        format!(
            "{what}: run does not repeat its reference (deci {} vs {}, insts {} vs {})",
            got.decicycles, reference.decicycles, got.insts, reference.insts
        )
    });
}

impl SpecStats {
    /// Geometric mean over programs of the per-program fastest run, ms.
    ///
    /// The fastest run, not the median: every run of one program repeats
    /// the same instructions exactly, while on a shared host the core's
    /// speed follows other tenants' load (on a 2-vCPU VM, the geometric
    /// mean of one round moved between 6.9 and 13.3 ms within a single
    /// 12 s run). A run's median follows that load; each program's
    /// fastest run tracks the program's own cost. The report prints
    /// medians and tails as well.
    pub fn geomean_fastest_ms(&self, hardened: bool) -> f64 {
        let fastest: Vec<f64> = self
            .programs
            .iter()
            .map(|p| fastest(p.samples(hardened)))
            .collect();
        geomean(&fastest)
    }

    /// Runs per second of a round in which every run costs its
    /// program's fastest run (each program's repeats, both variants).
    pub fn fastest_round_rate(&self) -> f64 {
        let (runs, ms) = self.programs.iter().fold((0.0, 0.0), |(runs, ms), p| {
            let reps = p.reps as f64;
            (
                runs + 2.0 * reps,
                ms + reps * (fastest(&p.hardened_ms) + fastest(&p.baseline_ms)),
            )
        });
        runs * 1e3 / f64::max(ms, 1e-9)
    }

    /// The end-to-end metrics.
    pub fn end_to_end(&self) -> Vec<Metric> {
        vec![
            Metric::new("ops_per_s", "1/s", self.fastest_round_rate()),
            Metric::new("hardened_ms", "ms", self.geomean_fastest_ms(true)),
        ]
    }

    /// One row per program: fastest run, median, tail percentile, sample
    /// count.
    pub fn rows(&self) -> Vec<String> {
        let cell = |v: &[f64]| {
            let t = tail(v).map_or("-".to_string(), |(p, x)| format!("p{p:.0}={x:.3}"));
            format!(
                "{:>9.3} {:>9.3} {:>14} n={:<4}",
                fastest(v),
                median(v),
                t,
                v.len()
            )
        };
        let mut rows = vec![format!(
            "{:<14} {:>9} {:>9} {:>14} {:<6} {:>9} {:>9} {:>14} {:<6}",
            "program",
            "hard_min",
            "hard_p50",
            "hard_tail",
            "",
            "base_min",
            "base_p50",
            "base_tail",
            ""
        )];
        for p in &self.programs {
            rows.push(format!(
                "{:<14} {} {}",
                p.name,
                cell(&p.hardened_ms),
                cell(&p.baseline_ms)
            ));
        }
        rows
    }
}

/// Per-layer metrics from a traced phase's spans: per-program run time,
/// ns per instruction, entropy draws and their wall vs modeled share.
pub fn layer_metrics(stats: &SpecStats, spans: &[Span], aes10_draw_ns: f64) -> Vec<Metric> {
    let layers = trace::by_layer(spans);
    let mut out = Vec::new();
    let mut run_ns = [0u64; 2];
    let mut insts = [0u64; 2];
    for p in &stats.programs {
        for (v, variant) in ["hardened", "baseline"].into_iter().enumerate() {
            let tag = trace::intern(&format!("{}.{variant}", p.name));
            let d = layers.get(&("vm.run", tag));
            let durs: Vec<f64> = d.map_or(Vec::new(), |l| {
                l.durations.iter().map(|&n| n as f64 / 1e6).collect()
            });
            out.push(Metric::new(
                format!("vm.run_ms.{}.{variant}", p.name),
                "ms",
                median(&durs),
            ));
            if let Some(l) = d {
                run_ns[v] += l.total_ns;
                insts[v] += l.count * p.insts[v];
            }
        }
    }
    for (v, variant) in ["hardened", "baseline"].into_iter().enumerate() {
        out.push(Metric::new(
            format!("vm.ns_per_inst.{variant}"),
            "ns",
            run_ns[v] as f64 / insts[v].max(1) as f64,
        ));
    }
    let runs_of = |name: &str| {
        layers
            .get(&("vm.run", trace::intern(&format!("{name}.hardened"))))
            .map_or(0, |l| l.count)
    };
    let draws: u64 = stats
        .programs
        .iter()
        .map(|p| p.draws * runs_of(p.name))
        .sum();
    let rng_deci: u64 = stats.programs.iter().map(|p| p.rng_deci).sum();
    let deci: u64 = stats.programs.iter().map(|p| p.deci).sum();
    out.push(Metric::new("srng.draws.spec-cpu", "count", draws as f64));
    out.push(Metric::new(
        "srng.wall_share.spec-cpu",
        "share",
        draws as f64 * aes10_draw_ns / run_ns[0].max(1) as f64,
    ));
    out.push(Metric::new(
        "srng.model_share.spec-cpu",
        "share",
        rng_deci as f64 / deci.max(1) as f64,
    ));
    out
}

/// Recorder-on ÷ recorder-off wall time of the hardened runs, from
/// interleaved pairs.
pub fn recorder_ratio(progs: &[Program], pairs: u32) -> f64 {
    let mut on = 0.0;
    let mut off = 0.0;
    for p in progs {
        let recorded = p.hardened.clone().with_recorder(SharedRecorder::default());
        for _ in 0..pairs {
            off += run(&p.hardened, p.trng_seed, "", 0).1;
            on += run(&recorded, p.trng_seed, "", 0).1;
        }
    }
    on / off.max(1e-9)
}
