//! `serve` — run a multi-tenant hardened-session server from the
//! command line.
//!
//! ```text
//! serve --plan smoke --jobs 4 --stats
//! serve --plan load --json BENCH_serve.json
//! serve --plan smoke --check BENCH_serve.json
//! serve --plan my-plan.txt --duration 30 --out poisoned.jsonl
//! ```
//!
//! `--json` writes (or merges into) a `BENCH_serve.json`-style pin:
//! rows for the current plan replace any stale rows of the same plan,
//! rows of other plans are kept, and an existing file that does not
//! parse is an error. `--check` re-measures and compares against such a
//! pin, failing on any change to a deterministic column, any
//! compromise-rate regression, and any missing or unmeasured row of the
//! plan.

use std::fs::File;
use std::io::Read as _;
use std::process::ExitCode;

use smokestack_campaign::RecordSink;
use smokestack_serve::{
    plan_scope, report_pin, run_serve, schedule_digest, serve_registry, ServeConfig, ServePlan,
    PIN_SCHEMA,
};
use smokestack_telemetry::{render_prometheus, SharedJsonlSink};

struct Args {
    plan: String,
    jobs: usize,
    duration: Option<u64>,
    poison_ppm: Option<u32>,
    master_seed: Option<u64>,
    max_requests: Option<u64>,
    tenants: Option<u32>,
    stats: bool,
    json: Option<String>,
    check: Option<String>,
    out: Option<String>,
    dump_schedule: Option<u64>,
}

const USAGE: &str = "usage: serve --plan <name|file> [--jobs N] [--duration SECS] \
[--poison-rate PPM] [--master-seed S] [--max-requests N] [--tenants N] [--stats] \
[--json FILE] [--check FILE] [--out FILE] [--dump-schedule N]

plans: smoke | load | path to a plan file
  --jobs N           worker threads (default 1)
  --duration SECS    drain gracefully after SECS: in-flight batches finish,
                     no new ones dispatch (partial runs are never pinned)
  --poison-rate PPM  override the plan's poison rate (parts per million)
  --master-seed S    override the plan's master seed (decimal or 0x hex)
  --max-requests N   serve only the first N scheduled requests
  --tenants N        override the plan's resident tenant count
  --stats            print the serve metrics as Prometheus text exposition
  --json FILE        write bench rows to FILE (merging with other plans' rows)
  --check FILE       compare against the pinned rows in FILE; exit 1 on any
                     change to a deterministic column, any compromise-rate
                     regression, or a missing or unmeasured row of the plan
  --out FILE         journal one JSON line per poisoned request to FILE
  --dump-schedule N  print the first N scheduled requests and exit";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        plan: String::new(),
        jobs: 1,
        duration: None,
        poison_ppm: None,
        master_seed: None,
        max_requests: None,
        tenants: None,
        stats: false,
        json: None,
        check: None,
        out: None,
        dump_schedule: None,
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
            "--duration" => {
                args.duration = Some(
                    value("--duration")?
                        .parse()
                        .map_err(|_| "bad --duration value".to_string())?,
                );
            }
            "--poison-rate" => {
                args.poison_ppm = Some(
                    value("--poison-rate")?
                        .parse()
                        .map_err(|_| "bad --poison-rate value".to_string())?,
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
            "--max-requests" => {
                args.max_requests = Some(
                    value("--max-requests")?
                        .parse()
                        .map_err(|_| "bad --max-requests value".to_string())?,
                );
            }
            "--tenants" => {
                args.tenants = Some(
                    value("--tenants")?
                        .parse()
                        .map_err(|_| "bad --tenants value".to_string())?,
                );
            }
            "--stats" => args.stats = true,
            "--json" => args.json = Some(value("--json")?),
            "--check" => args.check = Some(value("--check")?),
            "--out" => args.out = Some(value("--out")?),
            "--dump-schedule" => {
                args.dump_schedule = Some(
                    value("--dump-schedule")?
                        .parse()
                        .map_err(|_| "bad --dump-schedule value".to_string())?,
                );
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument `{other}`\n\n{USAGE}")),
        }
    }
    if args.plan.is_empty() {
        return Err(format!("--plan is required\n\n{USAGE}"));
    }
    Ok(args)
}

fn load_plan(spec: &str) -> Result<ServePlan, String> {
    if let Some(plan) = ServePlan::builtin(spec) {
        return Ok(plan);
    }
    let mut text = String::new();
    File::open(spec)
        .and_then(|mut f| f.read_to_string(&mut text))
        .map_err(|e| format!("cannot read plan `{spec}`: {e}"))?;
    ServePlan::parse(&text)
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let mut plan = load_plan(&args.plan)?;
    if let Some(seed) = args.master_seed {
        plan.master_seed = seed;
    }
    if let Some(ppm) = args.poison_ppm {
        if ppm > 1_000_000 {
            return Err("--poison-rate exceeds 1000000 ppm".to_string());
        }
        plan.poison_ppm = ppm;
    }
    if let Some(tenants) = args.tenants {
        if tenants == 0 {
            return Err("--tenants must be positive".to_string());
        }
        plan.tenants = tenants;
    }

    if let Some(n) = args.dump_schedule {
        print!("{}", schedule_digest(&plan, n));
        return Ok(true);
    }

    let sink = match &args.out {
        Some(path) => {
            let file =
                File::create(path).map_err(|e| format!("cannot open journal `{path}`: {e}"))?;
            Some(SharedJsonlSink::new(file))
        }
        None => None,
    };

    let cfg = ServeConfig {
        jobs: args.jobs,
        duration: args.duration.map(std::time::Duration::from_secs),
        max_requests: args.max_requests,
        ..ServeConfig::default()
    };
    let report = run_serve(&plan, &cfg, sink.as_ref().map(|s| s as &dyn RecordSink))?;
    if let Some(sink) = sink {
        sink.flush()
            .map_err(|e| format!("journal write failed: {e}"))?;
        if sink.has_error() {
            return Err("journal write failed mid-run".to_string());
        }
    }

    eprintln!(
        "plan `{}`: {}/{} requests over {} tenants on {} jobs in {:.1}s ({:.0} req/s){}",
        report.plan,
        report.served,
        report.scheduled,
        report.tenants,
        args.jobs.max(1),
        report.wall_secs,
        report.requests_per_sec(),
        if report.drained { " [drained]" } else { "" },
    );

    println!(
        "{:<26} {:>8} {:>8} {:>8} {:>8} {:>9} {:>9} {:>9} {:>12}",
        "fleet",
        "benign",
        "attacks",
        "success",
        "detect",
        "deci_p50",
        "deci_p99",
        "deci_p999",
        "compromised"
    );
    for f in &report.fleets {
        println!(
            "{:<26} {:>8} {:>8} {:>8} {:>8} {:>9} {:>9} {:>9} {:>7}/{:<4}",
            f.label,
            f.benign,
            f.attacks,
            f.outcomes[0],
            f.outcomes[1],
            f.deci.p50(),
            f.deci.p99(),
            f.deci.p999(),
            f.compromised_tenants(),
            f.tenants,
        );
    }
    for f in &report.fleets {
        let curve = f
            .ttfc_curve(report.scheduled)
            .into_iter()
            .map(|(b, s)| format!("{b}:{:.4}", s))
            .collect::<Vec<_>>()
            .join(" ");
        println!("ttfc {:<26} {curve}", f.label);
    }

    if args.stats {
        print!("{}", render_prometheus(&serve_registry(&report)));
    }

    let pin = report_pin(&report);

    if let Some(path) = &args.json {
        if report.drained {
            return Err("refusing to pin a drained (partial) run with --json".to_string());
        }
        let n = pin.write_merged(path, plan_scope(&report.plan))?;
        eprintln!("pinned {n} rows to {path}");
    }

    if let Some(path) = &args.check {
        if report.drained {
            return Err("cannot --check a drained (partial) run".to_string());
        }
        match PIN_SCHEMA
            .read(path)
            .and_then(|pinned| pin.check(&pinned, plan_scope(&report.plan)))
        {
            Ok(n) => eprintln!("check: {n} (plan, fleet) rows match {path}"),
            Err(e) => {
                eprintln!("CHECK FAILED:\n{e}");
                return Ok(false);
            }
        }
    }

    Ok(true)
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
