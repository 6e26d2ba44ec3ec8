//! Baseline-vs-hardened VM execution for one representative call-heavy
//! workload (xalancbmk) and one loop kernel (lbm) — the two poles of
//! Figure 3 — plus the flight recorder's own host-side overhead
//! (recorder attached vs. the default no-recorder configuration).

use smokestack_bench::harness::{bench, group};
use smokestack_core::{harden, SmokestackConfig};
use smokestack_srng::SchemeKind;
use smokestack_vm::{Executor, ScriptedInput, SharedRecorder};
use smokestack_workloads::by_name;

fn run(name: &str, hardened: bool, scheme: SchemeKind, trace: bool) {
    let w = by_name(name).expect("workload exists");
    let mut m = w.compile().expect("compiles");
    if hardened {
        harden(&mut m, &SmokestackConfig::default()).unwrap();
    }
    let mut exec = Executor::for_module(m).scheme(scheme);
    if trace {
        exec = exec.recorder(SharedRecorder::default());
    }
    let out = exec.build().run_main(ScriptedInput::empty());
    assert!(out.exit.is_clean());
}

fn main() {
    group("overhead");
    for name in ["xalancbmk", "lbm"] {
        bench(&format!("{name}/baseline"), || {
            run(name, false, SchemeKind::Aes10, false)
        });
        for scheme in SchemeKind::ALL {
            bench(&format!("{name}/smokestack-{scheme}"), || {
                run(name, true, scheme, false)
            });
        }
    }

    group("telemetry tracer overhead (hardened AES-10)");
    for name in ["xalancbmk", "lbm"] {
        let off = bench(&format!("{name}/tracer-off"), || {
            run(name, true, SchemeKind::Aes10, false)
        });
        let on = bench(&format!("{name}/tracer-on"), || {
            run(name, true, SchemeKind::Aes10, true)
        });
        println!(
            "{name}: tracer-on/tracer-off = {:.2}x ({:+.1}%)",
            on.ns_per_iter / off.ns_per_iter,
            100.0 * (on.ns_per_iter / off.ns_per_iter - 1.0)
        );
    }
}
