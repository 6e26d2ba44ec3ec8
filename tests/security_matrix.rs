//! The paper's security evaluation (§II-C + §V-C) as one Monte-Carlo
//! campaign: the built-in `full` plan run through the campaign engine
//! and checked against its pinned Wilson bounds. Every test shares one
//! run of the plan; each named verdict test checks the slice of
//! `full_bounds()` behind one of the paper's claims, so a failure names
//! the claim that broke.

use std::collections::HashSet;
use std::sync::OnceLock;

use smokestack_repro::campaign::matrix::REAL_CVE_ATTACKS;
use smokestack_repro::campaign::{
    aggregate, check, full_bounds, run_campaign, CampaignPlan, CellBound, CellStats, EngineConfig,
};
use smokestack_repro::defenses::{DefenseKind, Fleet};
use smokestack_repro::srng::SchemeKind;

/// Per-cell statistics of one run of the `full` plan.
fn full_stats() -> &'static [CellStats] {
    static STATS: OnceLock<Vec<CellStats>> = OnceLock::new();
    STATS.get_or_init(|| {
        let cfg = EngineConfig {
            jobs: 2,
            ..EngineConfig::default()
        };
        let result = run_campaign(&CampaignPlan::full(), &cfg, &HashSet::new(), None)
            .expect("the full plan runs");
        aggregate(&result.records)
    })
}

/// Check the pinned bounds of `full` that `pick` selects (at least one).
fn assert_verdict(pick: impl Fn(&str, Fleet) -> bool) {
    let bounds: Vec<CellBound> = full_bounds()
        .into_iter()
        .filter(|b| pick(&b.bound.attack, b.fleet()))
        .collect();
    assert!(!bounds.is_empty(), "the verdict selects no pinned bound");
    let violations = check(full_stats(), &bounds);
    assert!(
        violations.is_empty(),
        "{}",
        violations
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

fn is_secure(fleet: Fleet) -> bool {
    matches!(
        fleet.defense,
        DefenseKind::Smokestack(SchemeKind::Aes1 | SchemeKind::Aes10 | SchemeKind::Rdrand)
    )
}

/// Every cell of the plan is measured and every pinned bound holds.
#[test]
fn full_plan_meets_every_pinned_bound() {
    let plan = CampaignPlan::full();
    let stats = full_stats();
    assert_eq!(stats.len(), plan.cells.len());
    for (cell, s) in plan.cells.iter().zip(stats) {
        assert_eq!(s.defense, cell.fleet().label());
        assert_eq!(s.trials, u64::from(cell.trials));
    }
    let violations = check(stats, &full_bounds());
    assert!(violations.is_empty(), "{violations:#?}");
}

/// Paper §II-C: prior randomization schemes do not stop DOP.
#[test]
fn prior_schemes_bypassed_by_dop() {
    assert_verdict(|_, f| {
        matches!(
            f.defense,
            DefenseKind::None | DefenseKind::StackBase | DefenseKind::EntryPadding
        )
    });
}

/// Paper §V-C: Smokestack with a high-security source stops the
/// synthetic suite.
#[test]
fn smokestack_stops_synthetic_suite() {
    assert_verdict(|a, f| a.starts_with("synthetic-") && is_secure(f) && !f.pruned);
}

/// The §III-D ablation: a memory-based PRNG gives no protection
/// (the guard-crossing sweeps are still detected, by a guard key that
/// lives outside attacker-readable memory).
#[test]
fn pseudo_rng_ablation() {
    assert_verdict(|_, f| f.defense == DefenseKind::Smokestack(SchemeKind::Pseudo));
}

/// The real-vulnerability case studies under Smokestack (§V-C): all
/// three are stopped with every secure source.
#[test]
fn real_world_attacks_stopped() {
    assert_verdict(|a, f| REAL_CVE_ATTACKS.contains(&a) && is_secure(f) && !f.pruned);
}

/// And all three succeed against an unprotected service.
#[test]
fn real_world_attacks_work_unprotected() {
    assert_verdict(|a, f| REAL_CVE_ATTACKS.contains(&a) && f.defense == DefenseKind::None);
}

/// The ProFTPD exploit's headline property: it bypasses ASLR (paper:
/// "extract private keys bypassing ASLR").
#[test]
fn proftpd_bypasses_aslr() {
    assert_verdict(|a, f| a.starts_with("proftpd") && f.defense == DefenseKind::StackBase);
}

/// The librelp exploit's headline property: its non-linear write skips
/// stack canaries.
#[test]
fn librelp_bypasses_canary() {
    assert_verdict(|a, f| a.starts_with("librelp") && f.defense == DefenseKind::Canary);
}

/// Analysis-driven slot pruning must not weaken the security verdicts:
/// the `smokestack/AES-10+prune` row of every standard-suite attack
/// meets the same bound as the unpruned AES-10 row.
#[test]
fn pruned_configuration_no_security_regression() {
    assert_verdict(|_, f| f.pruned);
}

/// Wireshark's linear sweep is stopped under every Smokestack scheme,
/// and the guard is what catches it (the paper's "detected the
/// violations when the overflow corrupted unintended data like the
/// function identifier").
#[test]
fn wireshark_guard_detection_all_schemes() {
    assert_verdict(|a, f| {
        a.starts_with("wireshark") && matches!(f.defense, DefenseKind::Smokestack(_))
    });
}
