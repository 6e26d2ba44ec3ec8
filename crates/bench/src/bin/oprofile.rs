//! The paper's §V-A OProfile analysis, reproduced from live telemetry:
//! where the hardened builds' cycles go, per benchmark *and per
//! function*, and the call-rate statistic that explains Figure 3's
//! ordering. Every number is attributed by the flight recorder's
//! per-function spans during an instrumented run — nothing here is
//! hardcoded.

use smokestack_bench::profile_data;
use smokestack_vm::CycleCategory;

fn main() {
    println!("CYCLE BREAKDOWN OF HARDENED BUILDS (AES-10) - OProfile analog\n");
    println!(
        "{:<12} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7}   {:>14}",
        "benchmark", "rng%", "mem%", "alu%", "ctrl%", "io%", "bulk%", "draws/Mcycle"
    );
    println!("{}", "-".repeat(84));
    let rows = profile_data();
    for r in &rows {
        let b = r.breakdown;
        println!(
            "{:<12} {:>6.1}% {:>6.1}% {:>6.1}% {:>6.1}% {:>6.1}% {:>6.1}%   {:>14.1}",
            r.name,
            100.0 * b.share(b.rng),
            100.0 * b.share(b.mem),
            100.0 * b.share(b.alu),
            100.0 * b.share(b.control),
            100.0 * b.share(b.io),
            100.0 * b.share(b.bulk),
            r.draws_per_mcycle,
        );
    }

    println!("\nHOTTEST FUNCTIONS PER BENCHMARK (self time, top 3)\n");
    println!(
        "{:<12} {:<22} {:>8} {:>8} {:>7}",
        "benchmark", "function", "calls", "self%", "rng%"
    );
    println!("{}", "-".repeat(62));
    for r in &rows {
        let total: u64 = r.per_function.iter().map(|f| f.total()).sum();
        for f in r.per_function.iter().take(3) {
            println!(
                "{:<12} {:<22} {:>8} {:>7.1}% {:>6.1}%",
                r.name,
                f.name,
                f.calls,
                100.0 * f.total() as f64 / total.max(1) as f64,
                100.0 * f.get(CycleCategory::Rng) as f64 / f.total().max(1) as f64,
            );
        }
    }

    println!();
    println!("Reading: rng% tracks Figure 3's overhead almost exactly - the cost");
    println!("of Smokestack is the entropy draw per invocation, so benchmarks");
    println!("with high draws/Mcycle (perlbench, xalancbmk) pay the most, and");
    println!("I/O-bound apps bury it under io%. The per-function rows show the");
    println!("same story inside each binary: hot small callees carry the rng%.");
}
