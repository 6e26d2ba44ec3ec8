//! The one pin format behind both committed BENCH files: byte-exact
//! round trips, strict reading, the `--check` rules (missing, extra and
//! truncated rows, header mismatches) and the `--json` merge that keeps
//! other plans' and workloads' rows.

use std::path::PathBuf;

use smokestack_bench::{workload_scope, BASELINE_SCHEMA as BENCH, TRNG_SEED};
use smokestack_serve::{plan_scope, PIN_SCHEMA as SERVE};
use smokestack_telemetry::{Pin, Schema, Value};

const BASELINE: &str = include_str!("../BENCH_baseline.json");
const SERVE_PINS: &str = include_str!("../BENCH_serve.json");

fn every(_: &[&str]) -> bool {
    true
}

/// A pin holding `pin`'s rows except those at `drop`.
fn without(pin: &Pin, schema: &'static Schema, header: Vec<Value>, drop: usize) -> Pin {
    let mut out = Pin::new(schema, header);
    for i in (0..pin.rows().len()).filter(|&i| i != drop) {
        out.push(pin.rows()[i].clone());
    }
    out
}

fn bench_header() -> Vec<Value> {
    vec![Value::Str("aes10".into()), Value::Uint(TRNG_SEED)]
}

/// A scratch file path unique to this process and test.
fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("smokestack-pins-{}-{name}", std::process::id()))
}

#[test]
fn committed_pins_round_trip_byte_for_byte() {
    let bench = BENCH.parse(BASELINE).unwrap();
    assert_eq!(bench.rows().len(), smokestack_workloads::all().len());
    assert_eq!(bench.render(), BASELINE);
    let serve = SERVE.parse(SERVE_PINS).unwrap();
    assert_eq!(serve.rows().len(), 10);
    assert_eq!(serve.render(), SERVE_PINS);
    // A run that reproduces a pin passes its check.
    assert_eq!(bench.check(&bench, every), Ok(bench.rows().len()));
    assert_eq!(serve.check(&serve, plan_scope("smoke")), Ok(10));
}

#[test]
fn truncated_pins_do_not_parse() {
    for (schema, text) in [(&BENCH, BASELINE), (&SERVE, SERVE_PINS)] {
        let schema: &'static Schema = schema;
        // Cut anywhere inside the document: mid-row, between rows,
        // before the closing brackets.
        for cut in [
            text.len() / 3,
            text.len() / 2,
            text.len() - 8,
            text.len() - 3,
        ] {
            assert!(
                schema.parse(&text[..cut]).is_err(),
                "{} cut at {cut}",
                schema.id
            );
        }
        // A row that lost its last field is still valid JSON, and still
        // refused.
        let last = text.rfind(",\n      \"").unwrap();
        let end = text[last..].find("\n    }").unwrap() + last;
        let short = format!("{}{}", &text[..last], &text[end..]);
        let err = schema.parse(&short).unwrap_err();
        assert!(err.contains("missing or mistyped field"), "{err}");
    }
}

#[test]
fn pins_are_read_strictly() {
    let cases = [
        (
            BASELINE.replacen("\"insts\"", "\"instructions\"", 1),
            "unknown field",
        ),
        (
            BASELINE.replacen(
                "\"decicycles\": 40649132",
                "\"decicycles\": \"40649132\"",
                1,
            ),
            "mistyped",
        ),
        (
            BASELINE.replacen("\"overhead\": 1.226", "\"overhead\": 1", 1),
            "mistyped",
        ),
        (
            BASELINE.replacen("smokestack-bench/1", "smokestack-bench/2", 1),
            "schema is",
        ),
        (
            BASELINE.replacen("\"bzip2\"", "\"perlbench\"", 1),
            "duplicate row perlbench",
        ),
    ];
    for (text, want) in cases {
        let err = BENCH.parse(&text).unwrap_err();
        assert!(err.contains(want), "{want}: {err}");
    }
    let err = SERVE
        .parse(&SERVE_PINS.replacen("\"fleet\": \"stack-canary\"", "\"fleet\": \"none\"", 1))
        .unwrap_err();
    assert!(err.contains("duplicate row smoke/none"), "{err}");
}

#[test]
fn missing_and_extra_pinned_rows_fail_the_check() {
    let bench = BENCH.parse(BASELINE).unwrap();
    let fewer = without(&bench, &BENCH, bench_header(), 3); // mcf
                                                            // A measured row without a pin.
    let err = bench.check(&fewer, every).unwrap_err();
    assert_eq!(err, "mcf: no pinned row");
    // A pinned row of the measured set that was not measured...
    let err = fewer.check(&bench, every).unwrap_err();
    assert_eq!(err, "mcf: pinned row was not measured");
    // ...unless the measured set leaves it out.
    let filter = vec!["perlbench".to_string(), "sjeng".to_string()];
    assert_eq!(fewer.check(&bench, workload_scope(&filter)), Ok(20));

    let serve = SERVE.parse(SERVE_PINS).unwrap();
    let fewer = without(&serve, &SERVE, Vec::new(), 7);
    let err = serve.check(&fewer, plan_scope("load")).unwrap_err();
    assert_eq!(err, "load/smokestack/AES-10: no pinned row");
    let err = fewer.check(&serve, plan_scope("load")).unwrap_err();
    assert_eq!(err, "load/smokestack/AES-10: pinned row was not measured");
}

#[test]
fn header_and_exact_column_changes_fail_the_check() {
    let bench = BENCH.parse(BASELINE).unwrap();
    let reseeded = BENCH
        .parse(&BASELINE.replacen("\"trng_seed\": 48796", "\"trng_seed\": 48797", 1))
        .unwrap();
    let err = bench.check(&reseeded, every).unwrap_err();
    assert_eq!(err, "header: trng_seed changed 48797 -> 48796");
    // Every deterministic column is compared, not only decicycles.
    for (col, value) in [
        ("base_decicycles", Value::Uint(1)),
        ("insts", Value::Uint(1)),
        ("overhead", Value::Fixed(1.3)),
        ("class", Value::Str("io".into())),
    ] {
        let mut changed = bench.clone();
        *changed.get_mut(0, col) = value;
        let err = changed.check(&bench, every).unwrap_err();
        assert!(
            err.starts_with(&format!("perlbench: {col} changed")),
            "{err}"
        );
    }
    // Wall-clock columns never are.
    let mut faster = bench.clone();
    *faster.get_mut(0, "bytecode_ns") = Value::Fixed(1.0);
    *faster.get_mut(0, "speedup") = Value::Fixed(99.0);
    assert!(faster.check(&bench, every).is_ok());
}

#[test]
fn bench_json_replaces_only_the_measured_workloads() {
    let path = scratch("baseline.json");
    std::fs::write(&path, BASELINE).unwrap();
    let pinned = BENCH.parse(BASELINE).unwrap();
    // `bench backends --workloads mcf --json <pin>` with a new wall time.
    let mut mcf = Pin::new(&BENCH, bench_header());
    mcf.push(pinned.rows()[3].clone());
    *mcf.get_mut(0, "bytecode_ns") = Value::Fixed(1.5);
    let filter = vec!["mcf".to_string()];
    let written = mcf
        .write_merged(path.to_str().unwrap(), workload_scope(&filter))
        .unwrap();
    assert_eq!(written, pinned.rows().len());
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    assert_eq!(
        text,
        BASELINE.replacen("\"bytecode_ns\": 23135201.3", "\"bytecode_ns\": 1.5", 1)
    );
}

#[test]
fn serve_json_replaces_its_plan_and_refuses_an_unreadable_file() {
    let serve = SERVE.parse(SERVE_PINS).unwrap();
    let mut smoke = Pin::new(&SERVE, Vec::new());
    for i in 0..5 {
        smoke.push(serve.rows()[i].clone());
    }
    *smoke.get_mut(0, "wall_p50_ns") = Value::Uint(1);
    let path = scratch("serve.json");
    let path_str = path.to_str().unwrap();

    // Re-pinning smoke replaces its rows and keeps load's, in place.
    std::fs::write(&path, SERVE_PINS).unwrap();
    assert_eq!(smoke.write_merged(path_str, plan_scope("smoke")), Ok(10));
    assert_eq!(
        std::fs::read_to_string(&path).unwrap(),
        SERVE_PINS.replacen("\"wall_p50_ns\": 5184", "\"wall_p50_ns\": 1", 1)
    );

    // An existing file with a row another plan wrote that no longer
    // parses is an error, and the file is left as it was.
    let damaged = SERVE_PINS.replacen("\"plan\": \"load\",\n      \"fleet\": \"none\",\n", "", 1);
    std::fs::write(&path, &damaged).unwrap();
    let err = smoke
        .write_merged(path_str, plan_scope("smoke"))
        .unwrap_err();
    assert!(err.contains("not overwriting"), "{err}");
    assert_eq!(std::fs::read_to_string(&path).unwrap(), damaged);

    // A missing file is created with just this plan's rows.
    std::fs::remove_file(&path).unwrap();
    assert_eq!(smoke.write_merged(path_str, plan_scope("smoke")), Ok(5));
    let created = SERVE.read(path_str).unwrap();
    std::fs::remove_file(&path).unwrap();
    assert_eq!(created.render(), smoke.render());
}
