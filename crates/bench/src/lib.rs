//! # smokestack-bench
//!
//! The benchmark harness that regenerates every table and figure of the
//! paper's evaluation. Everything runs as a subcommand of the one
//! `bench` binary (`cargo run --release -p smokestack-bench --bin bench
//! -- <command>`):
//!
//! | artifact | command | data |
//! |----------|---------|------|
//! | Table I (RNG source rates) | `bench table1` | [`table1_rows`] |
//! | Figure 3 (% runtime overhead) | `bench figure3` | [`figure3_data`] |
//! | Figure 4 (% memory overhead) | `bench figure4` | [`figure4_data`] |
//! | §V-A cycle attribution (OProfile analog) | `bench oprofile` | [`profile_data`] |
//! | Design ablations | `bench ablations` | [`pbox_ablation`], [`table_len_sweep`], [`guard_ablation`] |
//! | One workload's telemetry profile | `bench profile <workload> [scheme] [seed]` | [`profile_workload`] |
//! | Interpreter vs bytecode, `BENCH_baseline.json` pin | `bench backends` | [`BASELINE_SCHEMA`] |
//! | Campaign engine scaling | `bench scaling` | `smokestack_campaign::run_campaign` |
//! | §V-C penetration tests | `campaign --plan full --jobs 2 [--deny-regressions]` | `smokestack_campaign::full_bounds` |
//!
//! Hand-rolled benches (`cargo bench`, see [`harness`]) additionally
//! measure host wall-clock for the RNG sources, the permutation engine,
//! baseline-vs-hardened VM execution, and the flight recorder's
//! enabled-vs-disabled overhead.

#![warn(missing_docs)]

pub mod harness;

use smokestack_core::{harden, SmokestackConfig};
use smokestack_defenses::DefenseKind;
use smokestack_srng::SchemeKind;
use smokestack_telemetry::{
    Column, FunctionCycles, Kind, RecorderConfig, Schema, SharedRecorder, Ty,
};
use smokestack_vm::{Executor, RunOutcome, ScriptedInput};
use smokestack_workloads::{all as all_workloads, Workload, WorkloadClass};

/// TRNG seed for the deterministic cycle measurement (any fixed value
/// works; it is recorded in the pin for reproduction).
pub const TRNG_SEED: u64 = 0xbe9c;

/// The `BENCH_baseline.json` schema written and checked by `bench
/// backends`: one row per workload. Every deterministic column is
/// compared exactly; the wall-clock columns are written, never
/// compared.
pub static BASELINE_SCHEMA: Schema = Schema {
    id: "smokestack-bench/1",
    header: &[
        Column("scheme", Ty::Str, Kind::Exact),
        Column("trng_seed", Ty::Uint, Kind::Exact),
    ],
    rows: "workloads",
    columns: &[
        Column("name", Ty::Str, Kind::Key),
        Column("class", Ty::Str, Kind::Exact),
        Column("decicycles", Ty::Uint, Kind::Exact),
        Column("base_decicycles", Ty::Uint, Kind::Exact),
        Column("overhead", Ty::Fixed(3), Kind::Exact),
        Column("insts", Ty::Uint, Kind::Exact),
        Column("interp_ns", Ty::Fixed(1), Kind::Info),
        Column("bytecode_ns", Ty::Fixed(1), Kind::Info),
        Column("traced_ns", Ty::Fixed(1), Kind::Info),
        Column("tracer_ratio", Ty::Fixed(3), Kind::Info),
        Column("speedup", Ty::Fixed(2), Kind::Info),
    ],
};

/// Whether a pinned row belongs to the workload set `filter` selects
/// (every workload when it is empty).
pub fn workload_scope(filter: &[String]) -> impl Fn(&[&str]) -> bool + '_ {
    move |key| filter.is_empty() || filter.iter().any(|f| key == [f.as_str()])
}

/// One row of Table I.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Row {
    /// Scheme label (paper's "source" column).
    pub source: &'static str,
    /// Security classification.
    pub security: String,
    /// Modeled cycles per invocation (the paper's measurement).
    pub rate_cycles: f64,
}

/// Table I: the four randomness sources with their modeled rates.
pub fn table1_rows() -> Vec<Table1Row> {
    SchemeKind::ALL
        .into_iter()
        .map(|s| Table1Row {
            source: s.label(),
            security: s.security().to_string(),
            rate_cycles: s.cost_cycles(),
        })
        .collect()
}

/// Run one workload under a given configuration.
fn run_workload(w: &Workload, scheme: SchemeKind, hardened: bool, seed: u64) -> RunOutcome {
    let mut m = w.compile().expect("corpus compiles");
    if hardened {
        harden(&mut m, &SmokestackConfig::default()).unwrap();
    }
    Executor::for_module(m)
        .scheme(scheme)
        .trng_seed(seed)
        .build()
        .run_main(ScriptedInput::empty())
}

/// One benchmark's Figure 3 measurements: % runtime overhead per scheme.
#[derive(Debug, Clone)]
pub struct Figure3Row {
    /// Benchmark name.
    pub name: &'static str,
    /// CPU or I/O bound.
    pub class: WorkloadClass,
    /// Overhead (%) for pseudo / AES-1 / AES-10 / RDRAND, in that order.
    pub overhead_pct: [f64; 4],
}

/// Compute Figure 3: per-benchmark percentage runtime overhead of
/// Smokestack under each randomness scheme.
pub fn figure3_data() -> Vec<Figure3Row> {
    all_workloads()
        .iter()
        .map(|w| {
            let base = run_workload(w, SchemeKind::Aes10, false, 7);
            assert!(base.exit.is_clean(), "{} baseline faulted", w.name);
            let mut overhead = [0.0f64; 4];
            for (i, scheme) in SchemeKind::ALL.into_iter().enumerate() {
                let hard = run_workload(w, scheme, true, 7);
                assert_eq!(
                    base.exit, hard.exit,
                    "{} behavior changed under {scheme}",
                    w.name
                );
                overhead[i] = 100.0 * (hard.decicycles as f64 / base.decicycles as f64 - 1.0);
            }
            Figure3Row {
                name: w.name,
                class: w.class,
                overhead_pct: overhead,
            }
        })
        .collect()
}

/// Geometric-mean-free summary the paper quotes: arithmetic average
/// overhead over the CPU-bound (SPEC) subset for one scheme column.
pub fn average_cpu_overhead(rows: &[Figure3Row], scheme_index: usize) -> f64 {
    let cpu: Vec<&Figure3Row> = rows
        .iter()
        .filter(|r| r.class == WorkloadClass::Cpu)
        .collect();
    cpu.iter()
        .map(|r| r.overhead_pct[scheme_index])
        .sum::<f64>()
        / cpu.len() as f64
}

/// One benchmark's Figure 4 measurement.
#[derive(Debug, Clone)]
pub struct Figure4Row {
    /// Benchmark name.
    pub name: &'static str,
    /// Peak-RSS increase (%) of the hardened build (AES-10).
    pub overhead_pct: f64,
    /// Absolute P-BOX bytes added to the read-only segment.
    pub pbox_bytes: u64,
}

/// Compute Figure 4: percentage increase in peak resident set size
/// (`ru_maxrss` analog) of the Smokestack-hardened SPEC builds.
pub fn figure4_data() -> Vec<Figure4Row> {
    smokestack_workloads::spec_cpu()
        .iter()
        .map(|w| {
            let base = run_workload(w, SchemeKind::Aes10, false, 7);
            let mut m = w.compile().expect("corpus compiles");
            let report = harden(&mut m, &SmokestackConfig::default()).unwrap();
            let hard = Executor::for_module(m)
                .scheme(SchemeKind::Aes10)
                .trng_seed(7)
                .build()
                .run_main(ScriptedInput::empty());
            assert_eq!(base.exit, hard.exit, "{} behavior changed", w.name);
            Figure4Row {
                name: w.name,
                overhead_pct: 100.0 * (hard.peak_rss as f64 / base.peak_rss as f64 - 1.0),
                pbox_bytes: report.pbox_bytes,
            }
        })
        .collect()
}

/// Render a simple ASCII bar (for the figure binaries).
pub fn bar(pct: f64, scale: f64) -> String {
    let n = ((pct.abs() / scale).round() as usize).min(60);
    let body: String = std::iter::repeat_n('#', n).collect();
    if pct < 0.0 {
        format!("-{body}")
    } else {
        body
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_paper() {
        let rows = table1_rows();
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0].source, "pseudo");
        assert_eq!(rows[0].rate_cycles, 3.4);
        assert_eq!(rows[3].source, "RDRAND");
        assert_eq!(rows[3].rate_cycles, 265.6);
    }

    #[test]
    fn bar_rendering() {
        assert_eq!(bar(10.0, 1.0).len(), 10);
        assert!(bar(-3.0, 1.0).starts_with('-'));
        assert_eq!(bar(0.2, 1.0), "");
    }

    #[test]
    fn profile_attribution_sums_to_decicycles() {
        // The tentpole invariant: every decicycle the VM charges lands
        // on exactly one function (or the `(vm)` bucket), so the flat
        // profile and the collapsed stacks both sum to the run total.
        let w = smokestack_workloads::by_name("xalancbmk").unwrap();
        let (out, shared) = profile_workload(&w, SchemeKind::Aes10, 7);
        assert!(out.exit.is_clean());
        let flat_sum: u64 = shared.with(|r| r.flat_profile().iter().map(|f| f.total()).sum());
        assert_eq!(flat_sum, out.decicycles);
        let collapsed_sum: u64 = shared.with(|r| {
            r.collapsed_lines()
                .iter()
                .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
                .sum()
        });
        assert_eq!(collapsed_sum, out.decicycles);
    }

    #[test]
    fn figure3_single_workload_sane() {
        // Quick sanity on one cheap workload: overhead ordering follows
        // the scheme cost ordering.
        let w = smokestack_workloads::by_name("xalancbmk").unwrap();
        let base = run_workload(&w, SchemeKind::Aes10, false, 7);
        let pseudo = run_workload(&w, SchemeKind::Pseudo, true, 7);
        let rdrand = run_workload(&w, SchemeKind::Rdrand, true, 7);
        assert_eq!(base.exit, pseudo.exit);
        assert!(rdrand.decicycles > pseudo.decicycles);
    }
}

// ---------------------------------------------------------------------
// Extensions: OProfile-style breakdown and Section III-E ablations.
// ---------------------------------------------------------------------

/// Run one workload hardened under `scheme` with a flight recorder
/// attached (a 4096-event window); returns the outcome and the
/// recorder handle for trace, metrics, and per-function attribution.
pub fn profile_workload(
    w: &Workload,
    scheme: SchemeKind,
    seed: u64,
) -> (RunOutcome, SharedRecorder) {
    let mut m = w.compile().expect("corpus compiles");
    harden(&mut m, &SmokestackConfig::default()).unwrap();
    let shared = SharedRecorder::new(RecorderConfig {
        ring_capacity: 4096,
    });
    let out = Executor::for_module(m)
        .scheme(scheme)
        .trng_seed(seed)
        .recorder(shared.clone())
        .build()
        .run_main(ScriptedInput::empty());
    (out, shared)
}

/// One benchmark's cycle breakdown under the AES-10 hardened build —
/// the analog of the paper's OProfile RESOURCE_STALLS analysis (§V-A),
/// now attributed per function by the live flight recorder.
#[derive(Debug, Clone)]
pub struct ProfileRow {
    /// Benchmark name.
    pub name: &'static str,
    /// Breakdown of the hardened run.
    pub breakdown: smokestack_vm::CycleBreakdown,
    /// Cycles spent on entropy generation as a fraction of total.
    pub rng_share: f64,
    /// `stack_rng` draws per million cycles — the call-rate driver.
    pub draws_per_mcycle: f64,
    /// Per-function flat profile, hottest first; totals sum to the
    /// run's decicycles.
    pub per_function: Vec<FunctionCycles>,
}

/// Profile the hardened corpus (AES-10) with live per-function
/// telemetry.
pub fn profile_data() -> Vec<ProfileRow> {
    all_workloads()
        .iter()
        .map(|w| {
            let (out, shared) = profile_workload(w, SchemeKind::Aes10, 7);
            let b = out.breakdown;
            ProfileRow {
                name: w.name,
                breakdown: b,
                rng_share: b.share(b.rng),
                draws_per_mcycle: out.rng_invocations as f64 / (out.cycles() / 1.0e6),
                per_function: shared.with(|r| r.flat_profile()),
            }
        })
        .collect()
}

/// A server-style module in which table sharing actually bites: many
/// request handlers with the same allocation multiset (possibly in
/// different declaration orders), plus variants that differ by exactly
/// one primitive local (round-up candidates). Real services look like
/// this; the SPEC-style corpus's functions are mostly unique.
const SHARING_HEAVY_SRC: &str = r#"
    int h0(long t) { long a = 0; char b[64]; int c = 0; short d = 0; char e[16]; return c; }
    int h1(long t) { char b[64]; long a = 0; int c = 0; char e[16]; short d = 0; return c; }
    int h2(long t) { int c = 0; long a = 0; char e[16]; char b[64]; short d = 0; return c; }
    int h3(long t) { short d = 1; long a = 1; int c = 2; char b[64]; char e[16]; return c; }
    int h4(long t) { char b[64]; char e[16]; int c = 3; long a = 4; short d = 2; return c; }
    int h5(long t) { int c = 5; short d = 3; char b[64]; long a = 6; char e[16]; return c; }
    int h6(long t) { char e[16]; char b[64]; short d = 4; int c = 7; long a = 8; return c; }
    int h7(long t) { long a = 9; char e[16]; short d = 5; char b[64]; int c = 1; return c; }
    int r0(long t) { long a = 0; char b[64]; int c = 0; char e[16]; return a; }
    int r1(long t) { char b[64]; long a = 0; char e[16]; int c = 0; return a; }
    int r2(long t) { long a = 0; char e[16]; char b[64]; int c = 0; return a; }
    int main() {
        long s = 0;
        s = h0(1) + h1(2) + h2(3) + h3(4) + h4(5) + h5(6) + h6(7) + h7(8);
        s = s + r0(7) + r1(8) + r2(9);
        return s;
    }
"#;

/// P-BOX size of the sharing-heavy module under one configuration.
fn sharing_module_pbox_bytes(pbox: smokestack_core::PBoxConfig) -> u64 {
    let cfg = SmokestackConfig {
        pbox,
        ..SmokestackConfig::default()
    };
    let mut m = smokestack_minic::compile(SHARING_HEAVY_SRC).expect("sharing module");
    harden(&mut m, &cfg).unwrap().pbox_bytes
}

/// Section III-E ablation: memory cost of each P-BOX optimization, on a
/// server-style module where many handlers share frame signatures.
#[derive(Debug, Clone)]
pub struct PBoxAblation {
    /// Configuration label.
    pub config: &'static str,
    /// P-BOX bytes for the sharing-heavy module.
    pub total_bytes: u64,
}

/// Measure the P-BOX sharing optimizations' effect on memory.
pub fn pbox_ablation() -> Vec<PBoxAblation> {
    use smokestack_core::PBoxConfig;
    let base = PBoxConfig::default();
    vec![
        PBoxAblation {
            config: "all optimizations (default)",
            total_bytes: sharing_module_pbox_bytes(base),
        },
        PBoxAblation {
            config: "no round-up sharing",
            total_bytes: sharing_module_pbox_bytes(PBoxConfig {
                round_up_sharing: false,
                ..base
            }),
        },
        PBoxAblation {
            config: "no table sharing at all",
            total_bytes: sharing_module_pbox_bytes(PBoxConfig {
                share_tables: false,
                round_up_sharing: false,
                ..base
            }),
        },
    ]
}

/// Table-length sweep: entropy vs. memory for the whole corpus.
#[derive(Debug, Clone)]
pub struct TableLenPoint {
    /// `max_table_len` setting.
    pub max_table_len: u64,
    /// Total P-BOX bytes.
    pub total_bytes: u64,
    /// Minimum per-function entropy across the corpus (bits).
    pub min_entropy_bits: f64,
    /// Maximum per-function entropy across the corpus (bits).
    pub max_entropy_bits: f64,
}

/// Sweep the P-BOX logical table length (entropy/memory trade-off).
pub fn table_len_sweep(lengths: &[u64]) -> Vec<TableLenPoint> {
    lengths
        .iter()
        .map(|&len| {
            let cfg = SmokestackConfig {
                pbox: smokestack_core::PBoxConfig {
                    max_table_len: len,
                    ..smokestack_core::PBoxConfig::default()
                },
                ..SmokestackConfig::default()
            };
            let mut total = 0u64;
            let mut min_bits = f64::INFINITY;
            let mut max_bits: f64 = 0.0;
            for w in all_workloads() {
                let mut m = w.compile().expect("corpus compiles");
                let report = harden(&mut m, &cfg).unwrap();
                total += report.pbox_bytes;
                let er = smokestack_core::EntropyReport::from_harden(&report);
                if let Some(b) = er.min_bits() {
                    min_bits = min_bits.min(b);
                }
                for f in &er.functions {
                    max_bits = max_bits.max(f.bits);
                }
            }
            TableLenPoint {
                max_table_len: len,
                total_bytes: total,
                min_entropy_bits: if min_bits.is_finite() { min_bits } else { 0.0 },
                max_entropy_bits: max_bits,
            }
        })
        .collect()
}

/// Guard ablation: overhead and detection effect of the §III-D.2
/// function-identifier checks.
#[derive(Debug, Clone)]
pub struct GuardAblation {
    /// Whether guards were enabled.
    pub guards: bool,
    /// SPEC-average AES-10 runtime overhead (%).
    pub avg_overhead_pct: f64,
    /// Wireshark-exploit campaign outcomes: (stopped, detections) over
    /// the trial count.
    pub wireshark_stopped: bool,
    /// Number of guard detections observed.
    pub wireshark_detections: u32,
}

/// Measure the guard checks' cost and their detection value.
pub fn guard_ablation(trials: u32) -> Vec<GuardAblation> {
    [true, false]
        .into_iter()
        .map(|guards| {
            let cfg = SmokestackConfig {
                guards,
                ..SmokestackConfig::default()
            };
            // Overhead over a fast subset.
            let subset = ["xalancbmk", "sjeng", "povray", "lbm"];
            let mut sum = 0.0;
            for name in subset {
                let w = smokestack_workloads::by_name(name).expect("exists");
                let base = run_workload(&w, SchemeKind::Aes10, false, 7);
                let mut m = w.compile().expect("compiles");
                harden(&mut m, &cfg).unwrap();
                let hard = Executor::for_module(m)
                    .scheme(SchemeKind::Aes10)
                    .trng_seed(7)
                    .build()
                    .run_main(ScriptedInput::empty());
                sum += 100.0 * (hard.decicycles as f64 / base.decicycles as f64 - 1.0);
            }
            // Wireshark exploit with/without guards. We rebuild the
            // defense by hand to control the guard flag.
            use smokestack_attacks::{run_trial, Attack, Build};
            let attack = smokestack_attacks::wireshark::WiresharkAttack;
            let mut module = smokestack_minic::compile(attack.source()).expect("attack program");
            let report = harden(&mut module, &cfg).unwrap();
            let build = Build::from_deployed(
                module,
                DefenseKind::Smokestack(SchemeKind::Aes10),
                smokestack_defenses::Deployment {
                    functions_modified: report.functions_instrumented,
                    stack_base_offset: 0,
                    smokestack: Some(report),
                },
                0xb11d,
            );
            let mut stopped = true;
            let mut detections = 0;
            for t in 0..trials {
                match run_trial(&attack, &build, 0x1000 + t as u64).outcome {
                    smokestack_attacks::AttackOutcome::Success(_) => stopped = false,
                    smokestack_attacks::AttackOutcome::Detected(_) => detections += 1,
                    _ => {}
                }
            }
            GuardAblation {
                guards,
                avg_overhead_pct: sum / subset.len() as f64,
                wireshark_stopped: stopped,
                wireshark_detections: detections,
            }
        })
        .collect()
}

#[cfg(test)]
mod shape_tests {
    use super::*;

    /// Figure 3 regression: the paper's qualitative shape must hold.
    /// (Runs the full corpus once; release-mode recommended.)
    #[test]
    fn figure3_shape_holds() {
        let rows = figure3_data();
        let get = |name: &str| {
            rows.iter()
                .find(|r| r.name == name)
                .unwrap_or_else(|| panic!("{name} missing"))
        };
        // Scheme ordering on every benchmark.
        for r in &rows {
            for w in r.overhead_pct.windows(2) {
                assert!(
                    w[0] <= w[1] + 0.2,
                    "{}: scheme ordering violated {:?}",
                    r.name,
                    r.overhead_pct
                );
            }
        }
        // Call-heavy benchmarks pay more than streaming kernels (AES-10).
        let aes10 = 2;
        assert!(get("perlbench").overhead_pct[aes10] > 10.0);
        assert!(get("xalancbmk").overhead_pct[aes10] > 10.0);
        assert!(get("lbm").overhead_pct[aes10] < 2.0);
        assert!(get("libquantum").overhead_pct[aes10] < 2.0);
        // I/O apps within the paper's 6% worst case for AES-10.
        assert!(get("proftpd").overhead_pct[aes10] < 6.0);
        assert!(get("wireshark").overhead_pct[aes10] < 6.0);
        // The SPEC averages sit in the paper's band, loosely.
        let avg10 = average_cpu_overhead(&rows, 2);
        assert!((2.0..15.0).contains(&avg10), "AES-10 avg {avg10}");
        let avg_rdrand = average_cpu_overhead(&rows, 3);
        assert!(avg_rdrand > avg10, "RDRAND must cost more than AES-10");
    }

    /// Figure 4 regression: perlbench/h264ref lead; kernels near zero.
    #[test]
    fn figure4_shape_holds() {
        let rows = figure4_data();
        let get = |name: &str| {
            rows.iter()
                .find(|r| r.name == name)
                .unwrap_or_else(|| panic!("{name} missing"))
                .overhead_pct
        };
        let top2 = {
            let mut v: Vec<(&str, f64)> = rows.iter().map(|r| (r.name, r.overhead_pct)).collect();
            v.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));
            [v[0].0, v[1].0]
        };
        assert!(
            top2.contains(&"perlbench") && top2.contains(&"h264ref"),
            "expected perlbench+h264ref on top, saw {top2:?}"
        );
        assert!(get("lbm") < 1.0);
        assert!(get("mcf") < 1.0);
    }

    /// The sharing ablation must show sharing actually shrinking tables.
    #[test]
    fn pbox_ablation_shape_holds() {
        let rows = pbox_ablation();
        assert!(rows[2].total_bytes > rows[0].total_bytes * 4);
        assert!(rows[1].total_bytes >= rows[0].total_bytes);
    }
}
