//! Capture a full telemetry profile of one workload:
//!
//! ```text
//! cargo run --bin profile -- <workload> [scheme] [seed]
//! ```
//!
//! Runs the Smokestack-hardened build with the flight recorder attached
//! and writes, under `target/profile/<workload>/`:
//!
//! * `trace.jsonl`    — the retained structured event trace (the last
//!   4096 events)
//! * `metrics.json`   — the metrics registry (counters, gauges,
//!   streaming histograms, per-function P-BOX index frequency tables)
//! * `collapsed.txt`  — collapsed-stack lines for flamegraph tooling
//!
//! and prints a flat per-function profile. Exits non-zero unless the
//! per-function totals sum to the run's decicycles.

use std::fs;
use std::io::{BufWriter, Write};
use std::process::ExitCode;

use smokestack_bench::profile_workload;
use smokestack_srng::SchemeKind;
use smokestack_vm::CycleCategory;
use smokestack_workloads::by_name;

fn scheme_by_label(label: &str) -> Option<SchemeKind> {
    SchemeKind::ALL.into_iter().find(|s| s.label() == label)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(name) = args.first() else {
        eprintln!("usage: profile <workload> [scheme] [seed]");
        eprintln!(
            "workloads: {}",
            smokestack_workloads::all()
                .iter()
                .map(|w| w.name)
                .collect::<Vec<_>>()
                .join(", ")
        );
        return ExitCode::FAILURE;
    };
    let Some(w) = by_name(name) else {
        eprintln!("unknown workload {name:?}");
        return ExitCode::FAILURE;
    };
    let scheme = match args.get(1) {
        Some(l) => match scheme_by_label(l) {
            Some(s) => s,
            None => {
                eprintln!("unknown scheme {l:?} (pseudo, AES-1, AES-10, RDRAND)");
                return ExitCode::FAILURE;
            }
        },
        None => SchemeKind::Aes10,
    };
    let seed = match args.get(2) {
        Some(s) => match s.parse() {
            Ok(v) => v,
            Err(_) => {
                eprintln!("seed {s:?} is not a u64");
                return ExitCode::FAILURE;
            }
        },
        None => 7,
    };

    let (out, shared) = profile_workload(&w, scheme, seed);
    let dir = format!("target/profile/{name}");
    fs::create_dir_all(&dir).expect("create output dir");

    // Event trace.
    let trace_path = format!("{dir}/trace.jsonl");
    let mut trace = BufWriter::new(fs::File::create(&trace_path).expect("create trace.jsonl"));
    let lines = shared.with(|r| {
        let events = r.events();
        for ev in &events {
            writeln!(trace, "{}", ev.to_json(r.names())).expect("write trace.jsonl");
        }
        events.len()
    });
    trace.flush().expect("flush trace.jsonl");

    // Metrics registry.
    let metrics_path = format!("{dir}/metrics.json");
    fs::write(
        &metrics_path,
        shared.with(|r| r.to_metrics().to_json()) + "\n",
    )
    .expect("write metrics.json");

    // Collapsed stacks.
    let collapsed_path = format!("{dir}/collapsed.txt");
    let collapsed = shared.with(|r| r.collapsed_lines());
    fs::write(&collapsed_path, collapsed.join("\n") + "\n").expect("write collapsed.txt");

    println!(
        "{name} under {} (seed {seed}): exit {:?}, {:.0} cycles, peak RSS {} bytes",
        scheme.label(),
        out.exit,
        out.cycles(),
        out.peak_rss
    );
    println!("wrote {trace_path} ({lines} events)");
    println!("wrote {metrics_path}");
    println!("wrote {collapsed_path} ({} stacks)", collapsed.len());

    println!("\nFLAT PROFILE (self decicycles, hottest first)");
    println!(
        "{:<22} {:>8} {:>12} {:>7} {:>7} {:>7}",
        "function", "calls", "decicycles", "rng%", "mem%", "ctrl%"
    );
    let flat = shared.with(|r| r.flat_profile());
    for f in &flat {
        let t = f.total().max(1);
        println!(
            "{:<22} {:>8} {:>12} {:>6.1}% {:>6.1}% {:>6.1}%",
            f.name,
            f.calls,
            f.total(),
            100.0 * f.get(CycleCategory::Rng) as f64 / t as f64,
            100.0 * f.get(CycleCategory::Mem) as f64 / t as f64,
            100.0 * f.get(CycleCategory::Control) as f64 / t as f64,
        );
    }

    let flat_sum: u64 = flat.iter().map(|f| f.total()).sum();
    if flat_sum == out.decicycles {
        println!("\nattribution check: per-function totals sum to {flat_sum} decicycles ✓");
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "\nattribution check FAILED: flat sum {flat_sum} != run total {}",
            out.decicycles
        );
        ExitCode::FAILURE
    }
}
