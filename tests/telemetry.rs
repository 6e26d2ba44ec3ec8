//! End-to-end telemetry: the flight recorder observes real hardened
//! runs, its event window round-trips through JSONL, the per-function
//! attribution reproduces the VM's cycle breakdown category by
//! category, and the P-BOX index selection it records is statistically
//! uniform — the paper's core randomization claim, checked from the
//! observability side.

use smokestack_repro::core::{harden, SmokestackConfig};
use smokestack_repro::ir::Module;
use smokestack_repro::minic::compile;
use smokestack_repro::srng::SchemeKind;
use smokestack_repro::telemetry::{chi_squared_uniform, TracedEvent};
use smokestack_repro::vm::{
    CycleCategory, Executor, Exit, RecorderConfig, RunOutcome, ScriptedInput, SharedRecorder,
};

/// A multi-alloca leaf driven ≥1k times from a loop in main, so the
/// P-BOX row choice is sampled over a thousand fresh entropy draws.
const MULTI_ALLOCA_LOOP: &str = r#"
    int leaf(int i) {
        long acc = 0;
        char buf[24];
        int tmp = 0;
        short flag = 0;
        buf[0] = i & 7;
        tmp = i * 3 + buf[0];
        acc = tmp + flag;
        return acc;
    }
    int main() {
        int s = 0;
        int i = 0;
        for (i = 0; i < 1200; i++) {
            s = s + leaf(i);
        }
        return s & 1023;
    }
"#;

fn traced_run(src: &str, scheme: SchemeKind, seed: u64) -> (RunOutcome, SharedRecorder) {
    traced_module(compile(src).expect("compiles"), scheme, seed)
}

fn traced_module(mut m: Module, scheme: SchemeKind, seed: u64) -> (RunOutcome, SharedRecorder) {
    harden(&mut m, &SmokestackConfig::default()).unwrap();
    let shared = SharedRecorder::new(RecorderConfig {
        ring_capacity: 1 << 16,
    });
    let out = Executor::for_module(m)
        .scheme(scheme)
        .trng_seed(seed)
        .recorder(shared.clone())
        .build()
        .run_main(ScriptedInput::empty());
    (out, shared)
}

/// §III-C from the observability side: across ≥1k invocations of a
/// multi-alloca function, the traced P-BOX index choice is uniform
/// (chi-squared well under the rejection threshold for the table's
/// degrees of freedom).
#[test]
fn pbox_index_selection_is_uniform() {
    let (out, shared) = traced_run(MULTI_ALLOCA_LOOP, SchemeKind::Aes10, 11);
    assert!(matches!(out.exit, Exit::Return(_)), "{:?}", out.exit);
    let metrics = shared.with(|r| r.to_metrics());
    {
        let table = metrics
            .freq_table("pbox_index.leaf")
            .expect("leaf P-BOX index table recorded");
        assert!(table.total() >= 1000, "only {} draws traced", table.total());
        let bins = table.counts().len();
        assert!(bins >= 2, "need multiple rows to test uniformity");
        // Every logical index must actually be reachable.
        assert!(
            table.counts().iter().all(|&c| c > 0),
            "some P-BOX rows never chosen: {:?}",
            table.counts()
        );
        // Generous bound: for uniform draws chi² concentrates around
        // df = bins-1; 3×bins + 10 is far outside any plausible p-value
        // for a correct implementation and still catches gross bias
        // (e.g. a stuck index gives chi² ≈ total × (bins-1)).
        let chi = table.chi_squared();
        assert!(
            chi < 3.0 * bins as f64 + 10.0,
            "chi-squared {chi:.1} over {bins} bins suggests biased row selection"
        );
    }
}

/// The same run's event window round-trips through JSONL at the event
/// level, and the recorder counts every draw the VM made.
#[test]
fn live_trace_round_trips_and_counts_draws() {
    let (out, shared) = traced_run(MULTI_ALLOCA_LOOP, SchemeKind::Aes1, 5);
    shared.with(|r| {
        assert_eq!(r.ring().dropped(), 0, "window too small for the run");
        let events = r.events();
        assert_eq!(events.len(), r.ring().len());
        let text: String = events.iter().map(|e| e.to_json(r.names()) + "\n").collect();
        let parsed: Vec<TracedEvent> = text
            .lines()
            .map(|l| TracedEvent::from_json(l, r.names()).expect("line parses"))
            .collect();
        assert_eq!(parsed, events);
        // One rng_draw counter tick per VM-reported invocation.
        assert_eq!(
            r.to_metrics().counter("rng_draws.AES-1"),
            out.rng_invocations
        );
    });
}

/// Per-function attribution is lossless: the flat profile reproduces
/// the VM's own cycle breakdown category by category, the collapsed
/// stacks sum to the run's decicycles, and every guard check the
/// instrumentation inserted passed. Checked on a single-threaded loop
/// and on a threaded workload (swaptions), whose workers' frames
/// interleave on the recorder's one span stack.
#[test]
fn attribution_and_guards_consistent() {
    let swaptions = smokestack_repro::workloads::by_name("swaptions")
        .unwrap()
        .compile()
        .expect("corpus compiles");
    for (name, (out, shared), min_guards) in [
        (
            "multi-alloca loop",
            traced_run(MULTI_ALLOCA_LOOP, SchemeKind::Pseudo, 3),
            1200,
        ),
        (
            "swaptions",
            traced_module(swaptions, SchemeKind::Aes10, 7),
            1,
        ),
    ] {
        assert!(out.exit.is_clean(), "{name}: {:?}", out.exit);
        shared.with(|r| {
            let flat = r.flat_profile();
            for cat in CycleCategory::ALL {
                let attributed: u64 = flat.iter().map(|f| f.get(cat)).sum();
                assert_eq!(
                    attributed,
                    out.breakdown.get_category(cat),
                    "{name}: {cat:?} attribution"
                );
            }
            let collapsed_sum: u64 = r
                .collapsed_lines()
                .iter()
                .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
                .sum();
            assert_eq!(collapsed_sum, out.decicycles, "{name}: collapsed stacks");
            let m = r.to_metrics();
            assert!(
                m.counter("guard_checks.passed") >= min_guards,
                "{name}: {} guard checks",
                m.counter("guard_checks.passed")
            );
            assert_eq!(m.counter("guard_checks.failed"), 0, "{name}");
        });
    }
}

/// `chi_squared_uniform` itself flags a frozen layout: if the same row
/// were chosen every time (the DOP attacker's dream), the statistic
/// explodes past any uniformity bound.
#[test]
fn frozen_selection_would_be_flagged() {
    let frozen = [1200u64, 0, 0, 0, 0, 0, 0, 0];
    assert!(chi_squared_uniform(&frozen) > 1000.0);
}

/// The streaming histogram's quantiles track exact sorted-order
/// quantiles over a 10k-sample latency-shaped stream within the
/// documented log-bucket error (1/32 per octave, halved by midpoint
/// reporting — 4% leaves slack for bucket-edge effects), and merging
/// two disjoint halves is bit-identical to streaming the whole.
#[test]
fn streaming_quantiles_track_exact_quantiles_over_10k_samples() {
    use smokestack_rand::Rng;
    use smokestack_repro::telemetry::StreamingHistogram;

    // Log-normal-ish spread: the product of two uniform draws covers
    // several octaves, like real per-run latencies do.
    let mut rng = Rng::seed_from_u64(0x9d5a);
    let samples: Vec<u64> = (0..10_000)
        .map(|_| {
            let a = rng.gen_range(1, 1 << 10);
            let b = rng.gen_range(1, 1 << 10);
            a * b
        })
        .collect();

    let mut whole = StreamingHistogram::new();
    let (mut lo, mut hi) = (StreamingHistogram::new(), StreamingHistogram::new());
    for (i, &s) in samples.iter().enumerate() {
        whole.observe(s);
        if i % 2 == 0 {
            lo.observe(s);
        } else {
            hi.observe(s);
        }
    }

    let mut sorted = samples.clone();
    sorted.sort_unstable();
    let exact = |q: f64| sorted[((q * (sorted.len() - 1) as f64).round()) as usize];
    for q in [0.50, 0.95, 0.99] {
        let est = whole.quantile(q) as f64;
        let want = exact(q) as f64;
        let rel = (est - want).abs() / want;
        assert!(
            rel <= 0.04,
            "p{}: streaming {est} vs exact {want} ({:.2}% off)",
            (q * 100.0) as u32,
            rel * 100.0
        );
    }

    // Merge of disjoint halves == single stream, in either fold order.
    let mut merged = lo.clone();
    merged.merge(&hi);
    assert_eq!(merged, whole);
    let mut reversed = hi.clone();
    reversed.merge(&lo);
    assert_eq!(reversed, whole);
}
