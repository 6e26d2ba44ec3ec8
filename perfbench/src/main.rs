//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a human-readable report, then one JSON result line. Exits
//! non-zero when any correctness check fails.

use std::process::ExitCode;

use perfbench::stats::result_json;
use perfbench::{default_jobs, run, Options, Size};

const USAGE: &str =
    "usage: perfbench --workload <spec-cpu|serve-mixed|campaign-matrix> --seed <n> \
     --seconds <s> --trace <0|1>";

fn parse() -> Result<Options, String> {
    let mut opts = Options {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        size: Size::full(),
        jobs: default_jobs(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or(format!("{flag} needs a value\n{USAGE}"))?;
        let bad = || format!("bad value `{value}` for {flag}\n{USAGE}");
        match flag.as_str() {
            "--workload" => opts.workload = value.clone(),
            "--seed" => opts.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => opts.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => opts.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let out = match run(&opts) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "workload {} seed {} seconds {} trace {} jobs {} (serve-mixed {})",
        opts.workload,
        opts.seed,
        opts.seconds,
        opts.trace as u8,
        opts.jobs,
        perfbench::serve_mixed::JOBS
    );
    for line in &out.report {
        println!("{line}");
    }
    for m in &out.metrics {
        println!("metric {:<44} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for f in &out.checks.failures {
        println!("FAILED: {f}");
    }
    println!("{}", result_json(&out.checks, &out.metrics));
    if out.checks.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
