//! `campaign` — run Monte-Carlo security campaigns from the command
//! line.
//!
//! ```text
//! campaign --plan smoke --jobs 4 --out smoke.jsonl
//! campaign --plan full --jobs 2 --deny-regressions
//! campaign --plan my-plan.txt --resume --out my.jsonl --json
//! ```
//!
//! `--out` names the JSONL journal (header + one record per trial).
//! With `--resume`, an existing journal for the same plan is parsed
//! and its completed trials are skipped; new records are appended, so
//! a killed campaign picks up where it stopped.

use std::collections::HashSet;
use std::fs::{File, OpenOptions};
use std::io::Read as _;
use std::process::ExitCode;

use smokestack_campaign::{
    aggregate, check, journal_header, parse_journal, pinned_bounds, run_campaign, CampaignPlan,
    CellStats, EngineConfig, Journal,
};
use smokestack_telemetry::{render_prometheus, SharedJsonlSink};

struct Args {
    plan: String,
    jobs: usize,
    out: Option<String>,
    resume: bool,
    json: bool,
    deny_regressions: bool,
    max_trials: Option<u32>,
    master_seed: Option<u64>,
    uniformity: bool,
    stats: bool,
    incidents: bool,
}

const USAGE: &str = "usage: campaign --plan <name|file> [--jobs N] [--out journal.jsonl] \
[--resume] [--json] [--deny-regressions] [--max-trials N] [--master-seed S] [--uniformity] \
[--stats] [--incidents]

plans: smoke | matrix | matrix-synth | full | path to a plan file
  --jobs N             worker threads (default 1)
  --out FILE           write/append the JSONL trial journal to FILE
  --resume             skip trials already present in --out's journal
  --json               emit per-cell stats as JSONL instead of a table
  --deny-regressions   check the built-in plan's pinned bounds; exit 1 on violation
  --max-trials N       cap every plan cell at N trials
  --master-seed S      override the plan's master seed (decimal or 0x hex)
  --uniformity         trace P-BOX draws and report chi-squared uniformity
  --stats              record per-defense latency and per-attack time-to-detection
                       streams; print them as Prometheus text exposition
  --incidents          capture a replayable incident report for every blocked
                       trial (journaled to --out alongside the trial records)";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        plan: String::new(),
        jobs: 1,
        out: None,
        resume: false,
        json: false,
        deny_regressions: false,
        max_trials: None,
        master_seed: None,
        uniformity: false,
        stats: false,
        incidents: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--plan" => args.plan = value("--plan")?,
            "--jobs" => {
                args.jobs = value("--jobs")?
                    .parse()
                    .map_err(|_| "bad --jobs value".to_string())?;
            }
            "--out" => args.out = Some(value("--out")?),
            "--resume" => args.resume = true,
            "--json" => args.json = true,
            "--deny-regressions" => args.deny_regressions = true,
            "--max-trials" => {
                args.max_trials = Some(
                    value("--max-trials")?
                        .parse()
                        .map_err(|_| "bad --max-trials value".to_string())?,
                );
            }
            "--master-seed" => {
                let v = value("--master-seed")?;
                let parsed = if let Some(hex) = v.strip_prefix("0x") {
                    u64::from_str_radix(hex, 16)
                } else {
                    v.parse()
                };
                args.master_seed = Some(parsed.map_err(|_| "bad --master-seed value".to_string())?);
            }
            "--uniformity" => args.uniformity = true,
            "--stats" => args.stats = true,
            "--incidents" => args.incidents = true,
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument `{other}`\n\n{USAGE}")),
        }
    }
    if args.plan.is_empty() {
        return Err(format!("--plan is required\n\n{USAGE}"));
    }
    if args.resume && args.out.is_none() {
        return Err("--resume needs --out (the journal to resume from)".to_string());
    }
    Ok(args)
}

fn load_plan(spec: &str) -> Result<CampaignPlan, String> {
    if let Some(plan) = CampaignPlan::builtin(spec) {
        return Ok(plan);
    }
    let mut text = String::new();
    File::open(spec)
        .and_then(|mut f| f.read_to_string(&mut text))
        .map_err(|e| format!("cannot read plan `{spec}`: {e}"))?;
    CampaignPlan::parse(&text)
}

fn print_table(stats: &[CellStats]) {
    println!(
        "{:<28} {:<20} {:>6} {:>9} {:>17} {:>8}",
        "attack", "defense", "trials", "success", "rate [95% CI]", "rounds"
    );
    for s in stats {
        println!(
            "{:<28} {:<20} {:>6} {:>9} {:>5.1}% [{:>4.1}, {:>4.1}] {:>8.1}",
            s.attack,
            s.defense,
            s.trials,
            s.successes(),
            s.success_rate * 100.0,
            s.ci.0 * 100.0,
            s.ci.1 * 100.0,
            s.mean_rounds,
        );
    }
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let mut plan = load_plan(&args.plan)?;
    if let Some(seed) = args.master_seed {
        plan.master_seed = seed;
    }
    if let Some(max) = args.max_trials {
        plan = plan.truncated(max);
    }
    // Resolve the bounds before running anything: a plan they were not
    // calibrated for is refused up front.
    let bounds = args
        .deny_regressions
        .then(|| pinned_bounds(&plan))
        .transpose()
        .map_err(|e| format!("--deny-regressions: {e}"))?;

    // Resume: recover completed trials from the journal on disk.
    let mut prior = Journal::default();
    if args.resume {
        let path = args.out.as_deref().expect("checked in parse_args");
        match File::open(path) {
            Ok(mut f) => {
                let mut text = String::new();
                f.read_to_string(&mut text)
                    .map_err(|e| format!("cannot read journal `{path}`: {e}"))?;
                prior = parse_journal(&text, &plan)?;
                eprintln!(
                    "resuming: {} trials already journaled ({} torn lines skipped)",
                    prior.records.len(),
                    prior.skipped
                );
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(format!("cannot open journal `{path}`: {e}")),
        }
    }
    let done: HashSet<(u32, u32)> = prior.done();

    // Journal sink: append on resume, fresh (with header) otherwise.
    let sink = match &args.out {
        Some(path) => {
            let fresh = done.is_empty();
            let file = OpenOptions::new()
                .create(true)
                .append(!fresh)
                .write(true)
                .truncate(fresh)
                .open(path)
                .map_err(|e| format!("cannot open journal `{path}`: {e}"))?;
            let sink = SharedJsonlSink::new(file);
            if fresh {
                sink.write_line(&journal_header(&plan));
            }
            Some(sink)
        }
        None => None,
    };

    let cfg = EngineConfig {
        jobs: args.jobs,
        stop_after: None,
        trace_uniformity: args.uniformity,
        collect_stats: args.stats,
        capture_incidents: args.incidents,
    };
    let started = std::time::Instant::now();
    let result = run_campaign(
        &plan,
        &cfg,
        &done,
        sink.as_ref()
            .map(|s| s as &dyn smokestack_campaign::RecordSink),
    )?;
    if let Some(sink) = sink {
        sink.flush()
            .map_err(|e| format!("journal write failed: {e}"))?;
        if sink.has_error() {
            return Err("journal write failed mid-campaign".to_string());
        }
    }
    eprintln!(
        "plan `{}`: {} trials ({} resumed) on {} jobs in {:.1}s",
        plan.name,
        plan.total_trials(),
        prior.records.len(),
        args.jobs.max(1),
        started.elapsed().as_secs_f64()
    );

    // Aggregate journaled + fresh records together.
    let mut records = prior.records;
    records.extend(result.records);
    records.sort_unstable_by_key(|r| (r.cell, r.index));
    let stats = aggregate(&records);

    if args.json {
        for s in &stats {
            println!("{}", s.to_json_line());
        }
    } else {
        print_table(&stats);
    }

    if args.stats {
        print!("{}", render_prometheus(&result.metrics));
    }

    if args.incidents {
        eprintln!(
            "incidents: {} blocked trials captured{}",
            result.incidents.len(),
            match &args.out {
                Some(path) => format!(" (journaled to {path})"),
                None => String::new(),
            }
        );
    }

    if args.uniformity {
        let mut tables: Vec<_> = result.metrics.freq_tables().collect();
        tables.sort_by_key(|(name, _)| name.to_string());
        for (name, table) in tables {
            println!(
                "uniformity {:<40} draws={:<6} chi2={:.2}",
                name,
                table.total(),
                table.chi_squared()
            );
        }
    }

    let mut ok = true;
    if let Some(bounds) = bounds {
        let violations = check(&stats, &bounds);
        for v in &violations {
            eprintln!("REGRESSION: {v}");
        }
        if violations.is_empty() {
            eprintln!(
                "pinned bounds of plan `{}`: all {} hold",
                plan.name,
                bounds.len()
            );
        }
        ok = violations.is_empty();
    }
    Ok(ok)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
