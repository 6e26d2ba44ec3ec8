//! The benchmark's own tests: metric naming, tiny runs of every
//! workload passing their correctness checks, and checks that fail
//! (and are counted) when an expected value is wrong.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::collections::HashSet;
use std::sync::Mutex;

use perfbench::campaign_matrix::{check_bounds, contradicted, matrix_plan, measure};
use perfbench::serve_mixed::{check_report, plan as serve_plan};
use perfbench::spec::{check_repeat, Reference};
use perfbench::stats::{valid_name, Checks, Metric};
use perfbench::{run, Options, Size, END_TO_END, WORKLOADS};
use smokestack_campaign::{run_campaign, security_matrix_v2, EngineConfig, MatrixBound};
use smokestack_defenses::DefenseKind;
use smokestack_serve::{run_serve, ServeConfig};
use smokestack_vm::{Executor, ScriptedInput};

/// Span recording is process-wide, so benchmark runs take turns.
static RUNS: Mutex<()> = Mutex::new(());

fn tiny(workload: &str, seed: u64, trace: bool) -> perfbench::Outcome {
    let _turn = RUNS.lock().unwrap_or_else(|e| e.into_inner());
    let opts = Options {
        workload: workload.into(),
        seed,
        seconds: 0.0,
        trace,
        size: Size::tiny(),
        jobs: 2,
    };
    run(&opts).unwrap_or_else(|e| panic!("{workload}: {e}"))
}

fn assert_well_named(metrics: &[Metric]) {
    let mut seen = HashSet::new();
    for m in metrics {
        assert!(valid_name(&m.name), "bad metric name {}", m.name);
        assert!(!m.unit.is_empty(), "{} has no unit", m.name);
        assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
        assert!(seen.insert(m.name.clone()), "{} reported twice", m.name);
    }
}

/// The names a `BENCHMARK.json` list declares (a flat scan: every
/// `"name": "..."` inside the list's brackets).
fn declared(list: &str) -> Vec<String> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json beside the benchmark directory");
    let start = text.find(&format!("\"{list}\"")).expect("list present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("list closes")];
    body.split("\"name\"")
        .skip(1)
        .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
        .collect()
}

#[test]
fn every_workload_passes_its_checks_at_tiny_size() {
    for w in WORKLOADS {
        let out = tiny(w, 7, false);
        assert_eq!(out.checks.failed, 0, "{w}: {:?}", out.checks.failures);
        assert!(out.checks.attempted > 0, "{w}");
        assert_well_named(&out.metrics);
        let names: Vec<&str> = out.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, END_TO_END, "{w}");
        assert!(
            out.metrics.iter().all(|m| m.value > 0.0),
            "{w}: {:?}",
            out.metrics
        );
    }
}

#[test]
fn end_to_end_metrics_match_the_declared_list() {
    assert_eq!(declared("end_to_end"), END_TO_END);
}

#[test]
fn a_second_seed_passes_too() {
    for w in WORKLOADS {
        let out = tiny(w, 0x5eed_0002, false);
        assert_eq!(out.checks.failed, 0, "{w}: {:?}", out.checks.failures);
    }
}

#[test]
fn traced_run_reports_declared_layers_and_reproduces_the_engines() {
    let out = tiny("serve-mixed", 7, true);
    assert_eq!(out.checks.failed, 0, "{:?}", out.checks.failures);
    assert_well_named(&out.metrics);
    let declared: HashSet<String> = declared("per_layer").into_iter().collect();
    for m in &out.metrics {
        assert!(declared.contains(&m.name), "{} is not declared", m.name);
    }
    for required in [
        "srng.draw_ns.AES-10",
        "srng.rekey_ns.AES-10",
        "vm.request_us.smokestack-AES-10.p99",
        "attacks.attempt_ms.smokestack-AES-10.p50",
        "campaign.trial_ms.p99",
        "serve.unattributed_share",
        "vm.lower_ms",
        "telemetry.recorder_ratio",
        "trace.overhead.serve-mixed",
    ] {
        assert!(out.metrics.iter().any(|m| m.name == required), "{required}");
    }
}

#[test]
fn a_wrong_repeat_is_counted() {
    let w = smokestack_workloads::by_name("gcc").unwrap();
    let exec = Executor::for_module(w.compile().unwrap()).build();
    let out = exec.run_main_seeded(3, &mut ScriptedInput::empty());
    let mut checks = Checks::default();
    check_repeat(&Reference::of(&out), &out, "gcc", &mut checks);
    assert_eq!((checks.attempted, checks.failed), (1, 0));
    let wrong = Reference {
        decicycles: out.decicycles + 1,
        ..Reference::of(&out)
    };
    check_repeat(&wrong, &out, "gcc", &mut checks);
    assert_eq!((checks.attempted, checks.failed), (2, 1));
}

#[test]
fn a_wrong_request_count_is_counted() {
    let plan = serve_plan(7, 0, 300);
    let report = run_serve(&plan, &ServeConfig::default(), None).unwrap();
    let mut checks = Checks::default();
    check_report(&plan, &report, &mut checks);
    assert_eq!(checks.failed, 0, "{:?}", checks.failures);
    let mut expected = plan.clone();
    expected.requests += 1;
    check_report(&expected, &report, &mut checks);
    assert_eq!(checks.failed, 1);
}

#[test]
fn a_wrong_bound_is_counted() {
    let plan = matrix_plan(7, 1);
    let result = run_campaign(&plan, &EngineConfig::default(), &HashSet::new(), None).unwrap();
    let mut checks = Checks::default();
    check_bounds(&result.records, &security_matrix_v2(), &mut checks);
    assert_eq!(checks.failed, 0, "{:?}", checks.failures);
    // Every baseline trial succeeds, so a 0% success cap on a baseline
    // cell is contradicted outright.
    let wrong = [MatrixBound {
        attack: "wireshark-cve-2014-2299".into(),
        defense: DefenseKind::None,
        max_success_upper: Some(0.0),
        min_success_rate: None,
    }];
    check_bounds(&result.records, &wrong, &mut checks);
    assert_eq!(checks.failed, 1, "{:?}", checks.failures);
    let stats = smokestack_campaign::aggregate(&result.records);
    assert_eq!(contradicted(&stats, &wrong).len(), 1);
}

#[test]
fn serve_passes_keep_the_load_plan_requests_per_tenant() {
    let load = smokestack_serve::ServePlan::load();
    let plan = serve_plan(7, 0, Size::full().serve_requests);
    let per_tenant = |p: &smokestack_serve::ServePlan| p.requests as f64 / f64::from(p.tenants);
    let ratio = per_tenant(&plan) / per_tenant(&load);
    assert!((0.95..=1.05).contains(&ratio), "{ratio}");
    assert_eq!(plan.poison_ppm, load.poison_ppm);
    assert_eq!(plan.fleets.len() * plan.apps.len(), 15);
}

#[test]
fn every_campaign_trial_is_timed_from_the_engine() {
    let _turn = RUNS.lock().unwrap_or_else(|e| e.into_inner());
    let mut checks = Checks::default();
    let stats = measure(&matrix_plan(7, 1), 2, 0.0, &mut checks).unwrap();
    assert_eq!(checks.failed, 0, "{:?}", checks.failures);
    let timed = stats.trial_ms[0].len() + stats.trial_ms[1].len();
    assert_eq!(timed as u64, stats.trials);
    assert!(stats.trial_ms.iter().all(|ms| !ms.is_empty()));
}
