//! Telemetry tour: attach the flight recorder to a hardened run and
//! inspect all three observability surfaces — the structured event
//! trace, the metrics registry, and the per-function profile.
//!
//! ```sh
//! cargo run --example telemetry_tour
//! ```

use smokestack_repro::harden_source;
use smokestack_repro::vm::{CycleCategory, Executor, ScriptedInput, SharedRecorder};

const SRC: &str = r#"
    int hash_block(int seed) {
        long state = 0;
        char block[32];
        int round = 0;
        for (round = 0; round < 8; round++) {
            seed = seed * 1103515245 + 12345;
            block[round & 31] = seed & 127;
            state = state + block[round & 31];
        }
        return state & 255;
    }

    int main() {
        int sum = 0;
        int i = 0;
        for (i = 0; i < 50; i++) {
            sum = sum + hash_block(i);
        }
        return sum & 127;
    }
"#;

fn main() {
    let (module, _report) = harden_source(SRC).expect("compiles");

    // The SharedRecorder is cloned into every VM the executor spawns;
    // the handle we keep reads the same underlying recorder afterwards.
    let shared = SharedRecorder::default();
    let exec = Executor::for_module(module)
        .recorder(shared.clone())
        .build();
    let out = exec.run_main(ScriptedInput::empty());
    println!("exit: {:?} after {} decicycles\n", out.exit, out.decicycles);

    // Surface 1: the structured event trace (last few events).
    println!("== event trace (tail) ==");
    shared.with(|r| {
        let events = r.events();
        for ev in &events[events.len().saturating_sub(5)..] {
            println!("{}", ev.to_json(r.names()));
        }
    });

    // Surface 2: the metrics registry, including the per-function
    // P-BOX index frequency table that certifies per-call re-layout.
    println!("\n== metrics ==");
    let metrics = shared.with(|r| r.to_metrics());
    println!("rng draws: {}", metrics.counter("rng_draws.AES-10"));
    println!(
        "guard checks passed: {}",
        metrics.counter("guard_checks.passed")
    );
    if let Some(t) = metrics.freq_table("pbox_index.hash_block") {
        println!(
            "hash_block P-BOX rows over {} calls: {:?} (chi² {:.1})",
            t.total(),
            t.counts(),
            t.chi_squared()
        );
    }

    // Surface 3: the per-function profile, attributed at span
    // boundaries from the category clock each event carries.
    println!("\n== flat profile ==");
    for f in shared.with(|r| r.flat_profile()) {
        println!(
            "{:<12} {:>4} calls {:>9} decicycles ({:.1}% rng)",
            f.name,
            f.calls,
            f.total(),
            100.0 * f.get(CycleCategory::Rng) as f64 / f.total().max(1) as f64
        );
    }
    println!("\n== collapsed stacks ==");
    for line in shared.with(|r| r.collapsed_lines()) {
        println!("{line}");
    }
}
