//! End-to-end tests of the serve subsystem: schedule determinism,
//! jobs-invariance of every deterministic aggregate, benign-traffic
//! cleanliness across the whole (fleet × app) matrix, graceful drain,
//! the bench-row self-check, and resident-session memory identity.

use std::time::Duration;

use smokestack_core::{harden, SmokestackConfig};
use smokestack_defenses::DefenseKind;
use smokestack_minic::compile;
use smokestack_serve::{
    plan_scope, report_pin, run_serve, schedule_digest, Fleet, ServeConfig, ServePlan, PIN_SCHEMA,
};
use smokestack_srng::SchemeKind;
use smokestack_telemetry::Value;
use smokestack_vm::{layout, Executor, FnInput, MemConfig, Memory, ScriptedInput};

/// A two-fleet, two-app plan small enough for debug-profile CI but
/// large enough that both fleets see benign and poisoned traffic.
fn small_plan() -> ServePlan {
    ServePlan {
        name: "it-small".into(),
        master_seed: 0x7e57_0001,
        tenants: 12,
        requests: 2_000,
        poison_ppm: 20_000, // 2%
        fleets: vec![
            Fleet {
                defense: DefenseKind::None,
                pruned: false,
            },
            Fleet {
                defense: DefenseKind::Smokestack(SchemeKind::Aes10),
                pruned: false,
            },
        ],
        apps: vec!["librelp".into(), "proftpd".into()],
    }
}

#[test]
fn schedule_is_byte_identical_for_identical_plans() {
    let plan = small_plan();
    let again = small_plan();
    assert_eq!(
        schedule_digest(&plan, 1_500),
        schedule_digest(&again, 1_500)
    );
    // And sensitive to the seed: a different master seed is a
    // different schedule.
    let mut reseeded = small_plan();
    reseeded.master_seed ^= 0x10;
    assert_ne!(
        schedule_digest(&plan, 1_500),
        schedule_digest(&reseeded, 1_500)
    );
}

#[test]
fn aggregates_bit_identical_jobs_1_vs_8() {
    let plan = small_plan();
    let narrow = run_serve(&plan, &ServeConfig::default(), None).unwrap();
    let wide = run_serve(
        &plan,
        &ServeConfig {
            jobs: 8,
            batch: 100,
            ..ServeConfig::default()
        },
        None,
    )
    .unwrap();
    assert_eq!(narrow.served, 2_000);
    assert_eq!(narrow.deterministic_digest(), wide.deterministic_digest());
    // Both fleets saw both traffic kinds.
    for fleet in &narrow.fleets {
        assert!(fleet.benign > 0, "{} served no benign traffic", fleet.label);
        assert!(fleet.attacks > 0, "{} absorbed no attacks", fleet.label);
    }
}

#[test]
fn benign_traffic_runs_clean_on_every_cell() {
    // The full standard fleet lineup × the whole app catalog, with the
    // poison rate forced to zero: every request must exit Return(0),
    // whatever the defense. Tenant count = one per (fleet, app) cell.
    let mut plan = ServePlan::smoke();
    plan.name = "it-clean".into();
    plan.tenants = (plan.fleets.len() * plan.apps.len()) as u32;
    plan.requests = 600;
    plan.poison_ppm = 0;
    let report = run_serve(&plan, &ServeConfig::default(), None).unwrap();
    assert_eq!(report.served, 600);
    let mut benign = 0;
    for fleet in &report.fleets {
        assert_eq!(
            fleet.benign_anomalies, 0,
            "{}: hardened build broke benign traffic",
            fleet.label
        );
        assert_eq!(fleet.attacks, 0);
        assert_eq!(fleet.deci.count(), fleet.benign);
        benign += fleet.benign;
    }
    assert_eq!(benign, 600);
}

#[test]
fn duration_drain_cuts_the_schedule_short() {
    let mut plan = small_plan();
    plan.name = "it-drain".into();
    plan.requests = 500_000;
    plan.poison_ppm = 0;
    let report = run_serve(
        &plan,
        &ServeConfig {
            duration: Some(Duration::ZERO),
            batch: 64,
            ..ServeConfig::default()
        },
        None,
    )
    .unwrap();
    assert!(report.drained, "a zero-duration gate must drain the run");
    assert!(
        report.served < report.scheduled,
        "drain left {}/{} — nothing was cut",
        report.served,
        report.scheduled
    );
}

#[test]
fn bench_rows_self_check() {
    let plan = small_plan();
    let report = run_serve(&plan, &ServeConfig::default(), None).unwrap();
    let pin = report_pin(&report);
    assert_eq!(pin.rows().len(), plan.fleets.len());
    let scope = plan_scope(&plan.name);
    // A report always passes a check against its own rows, also after
    // a round trip through the file format, and a poisoned-latency
    // forgery fails it.
    assert_eq!(pin.check(&pin, &scope), Ok(pin.rows().len()));
    let reread = PIN_SCHEMA.parse(&pin.render()).unwrap();
    assert_eq!(pin.check(&reread, &scope), Ok(pin.rows().len()));
    let mut forged = pin.clone();
    let Value::Uint(p50) = *forged.get_mut(0, "deci_p50") else {
        panic!("deci_p50 is an integer column");
    };
    *forged.get_mut(0, "deci_p50") = Value::Uint(p50 * 3 + 1_000);
    assert!(forged.check(&pin, &scope).is_err());
}

/// First byte offset at which two equally long memory ranges differ.
fn first_difference(a: &[u8], b: &[u8]) -> Option<usize> {
    assert_eq!(a.len(), b.len());
    a.iter().zip(b).position(|(x, y)| x != y)
}

/// A resident hardened librelp session keeps its read-only P-BOX image
/// in place across respawns and re-zeroes only what a request can
/// dirty. After requests that scribble on data, heap and stack, the
/// next request must leave rodata and data byte-identical to a fresh
/// VM serving the same request.
#[test]
fn respawned_librelp_session_matches_fresh_vm_memory() {
    let mut module = compile(smokestack_attacks::librelp::SOURCE).expect("librelp compiles");
    harden(&mut module, &SmokestackConfig::default()).expect("librelp hardens");
    let exec = Executor::for_module(module)
        .scheme(SchemeKind::Aes10)
        .build();
    let cfg = MemConfig::default();
    let key = exec.vm().global_addr("private_key");
    let mut session = exec.session();
    let stack_scribble = session.vm().mem().stack_base() + 64;

    for (seed, offset) in [(11u64, 0u64), (12, 4096)] {
        let mut dirty = FnInput(move |mem: &mut Memory, req, _max| {
            if req > 0 {
                return vec![];
            }
            mem.write(key, b"overwritten").unwrap();
            mem.write(layout::DATA_BASE + 0x1000, &[0x3c; 32]).unwrap();
            mem.write(layout::HEAP_BASE + 128, &[0x5a; 256]).unwrap();
            mem.write(stack_scribble, &[0xa5; 64]).unwrap();
            // Rodata is out of every program's and attacker's reach.
            assert!(mem.write(layout::RODATA_BASE, &[0xff]).is_err());
            b"peer.example.org".to_vec()
        });
        session.run_main_configured(seed, offset, &mut dirty);
        let mem = session.vm().mem();
        assert_eq!(mem.read(key, 11).unwrap(), b"overwritten");
        assert_eq!(mem.read(layout::DATA_BASE + 0x1000, 1).unwrap()[0], 0x3c);
        assert_eq!(mem.read(layout::HEAP_BASE + 128, 1).unwrap()[0], 0x5a);
        assert_eq!(mem.read(stack_scribble, 1).unwrap()[0], 0xa5);
    }

    let (seed, offset) = (13u64, 8192u64);
    session.run_main_configured(seed, offset, &mut ScriptedInput::empty());
    let mut fresh = exec.vm_configured(seed, offset);
    fresh.run_main_with(&mut ScriptedInput::empty());
    let (resident, fresh) = (session.vm().mem(), fresh.mem());
    assert!(
        resident.rodata_used() > 100_000,
        "hardened librelp carries its P-BOX in rodata ({} B)",
        resident.rodata_used()
    );
    assert_eq!(resident.rodata_used(), fresh.rodata_used());
    assert_eq!(resident.data_used(), fresh.data_used());
    assert_eq!(resident.peak_rss(), fresh.peak_rss());
    for (segment, base, size) in [
        ("rodata", layout::RODATA_BASE, cfg.rodata_size),
        ("data", layout::DATA_BASE, cfg.data_size),
        ("heap", layout::HEAP_BASE, 4096),
        ("stack", stack_scribble, 64),
    ] {
        let size = size as u64;
        let diff = first_difference(
            resident.read(base, size).unwrap(),
            fresh.read(base, size).unwrap(),
        );
        assert_eq!(
            diff, None,
            "{segment} differs from a fresh VM at this offset"
        );
    }
}
