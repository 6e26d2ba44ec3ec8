//! Interval-based regression bounds for the built-in campaign plans.
//!
//! Each pinned bound constrains the *Wilson 95% confidence interval*
//! of a cell's success rate, so it distinguishes "we observed no
//! successes" (weak) from "the 95% upper bound on success probability
//! is below 10%" (strong, and exactly the paper's §V-C claim shape:
//! DOP attacks reduced to brute-force odds under AES-10 / RDRAND, full
//! compromise of the unprotected baseline). A bound only holds at the
//! trial counts it was calibrated at, so every set names them.
//!
//! The paper's whole §II-C/§V-C verdict matrix is [`full_bounds`] over
//! [`CampaignPlan::full`]; regenerate and check it with
//!
//! ```text
//! campaign --plan full --jobs 2 --deny-regressions
//! ```

use smokestack_attacks::Attack;
use smokestack_defenses::{DefenseKind, Fleet};
use smokestack_srng::SchemeKind;

use crate::plan::{CampaignPlan, BUILTIN_PLANS};
use crate::stats::CellStats;

/// One pinned bound on an (attack, defense) cell.
#[derive(Debug, Clone)]
pub struct MatrixBound {
    /// Attack name the bound applies to.
    pub attack: String,
    /// Defense row the bound applies to.
    pub defense: DefenseKind,
    /// Wilson 95% *upper* bound on success probability must be ≤ this.
    pub max_success_upper: Option<f64>,
    /// Observed success rate must be ≥ this (point estimate).
    pub min_success_rate: Option<f64>,
}

impl MatrixBound {
    /// The attack must compromise the cell at a rate of at least `floor`.
    pub fn bypassed(attack: &str, defense: DefenseKind, floor: f64) -> MatrixBound {
        MatrixBound {
            attack: attack.into(),
            defense,
            max_success_upper: None,
            min_success_rate: Some(floor),
        }
    }

    /// The Wilson 95% upper bound on the cell's success rate must stay
    /// at or below `cap`.
    pub fn stopped(attack: &str, defense: DefenseKind, cap: f64) -> MatrixBound {
        MatrixBound {
            attack: attack.into(),
            defense,
            max_success_upper: Some(cap),
            min_success_rate: None,
        }
    }
}

/// A [`MatrixBound`] on one fleet row (which may be a `+prune`
/// variant), optionally with a floor on the defense-detection rate:
/// the bound shape of the `full` plan. Every [`MatrixBound`] is a
/// `CellBound` on an unpruned row without a detection floor.
#[derive(Debug, Clone)]
pub struct CellBound {
    /// The success bounds and the (attack, defense) they apply to.
    pub bound: MatrixBound,
    /// Whether the bound applies to the `+prune` row of the defense.
    pub pruned: bool,
    /// Observed detection rate (trials a deployed check terminated)
    /// must be ≥ this (point estimate).
    pub min_detection_rate: Option<f64>,
}

impl CellBound {
    /// The fleet row this bound applies to.
    pub fn fleet(&self) -> Fleet {
        Fleet {
            defense: self.bound.defense,
            pruned: self.pruned,
        }
    }
}

impl From<MatrixBound> for CellBound {
    fn from(bound: MatrixBound) -> CellBound {
        CellBound {
            bound,
            pruned: false,
            min_detection_rate: None,
        }
    }
}

/// A bound the measured statistics violate (or could not be checked).
#[derive(Debug, Clone)]
pub struct Violation {
    /// The bound that failed.
    pub bound: CellBound,
    /// What went wrong, with the measured numbers.
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} vs {}: {}",
            self.bound.bound.attack,
            self.bound.fleet().label(),
            self.message
        )
    }
}

/// The real-CVE case-study attacks (paper §V-C).
pub const REAL_CVE_ATTACKS: [&str; 3] = [
    "librelp-cve-2018-1000140",
    "wireshark-cve-2014-2299",
    "proftpd-cve-2006-5815",
];

/// The cross-thread DOP attacks (concurrency subsystem): one thread
/// corrupting a sibling thread's frame through a shared pointer or a
/// raced length check.
pub const XTHREAD_ATTACKS: [&str; 2] = ["xthread-shared-overflow", "xthread-toctou-race"];

/// Whether `attack` keeps a brute-force residual under a secure
/// Smokestack scheme, so its cap sits at 15% over 120 trials rather
/// than 10% over 40. These attacks aim targeted writes (listing1's
/// gadget writes, the synthetic suite's direct and indirect stores,
/// librelp's cursor jump) or, for the `synth-chains-*` corpus, a sweep
/// that stays inside one small frame, so they need not cross a guard
/// slot; each of a campaign's 48 restarts is a fresh guess at the
/// layout, and a few campaigns land. Measured per campaign under
/// AES-10/RDRAND: listing1 1/400, synthetic-direct-stack 0–5/400, the
/// others up to 7/120. The cross-frame linear sweeps (wireshark,
/// proftpd and their synthesized variants) cross a guard every time
/// and keep 10% over 40. The built-in plans size their cells by this
/// rule and the bound sets cap them by it.
pub fn retains_residual(attack: &str) -> bool {
    attack.contains("librelp")
        || attack.contains("chains")
        || attack.starts_with("synthetic-")
        || attack.starts_with("listing1")
}

/// The pinned bounds of security matrix v2, matching the cells of
/// [`crate::plan::CampaignPlan::matrix`] (120 trials per cell):
///
/// * Every real-CVE attack fully compromises the unprotected baseline
///   (success rate ≥ 99%: at most one failed trial in 120).
/// * Under Smokestack with a secure scheme (AES-10, RDRAND) the attack
///   is reduced to its paper-consistent residual, asserted on the
///   Wilson 95% *upper* bound of the success rate:
///   - librelp's non-linear primitive survives as pure brute force —
///     guessing a P-BOX row across the 48-restart campaign budget
///     measures ≈ 2% success per campaign (8/400 at calibration), so
///     its upper bound is capped at 15%, far below any layout leak but
///     leaving no room for the ≈ 2% residual to flake.
///   - wireshark's and proftpd's linear sweeps cross the function-
///     identifier guard slot deterministically, so their cap is 10%
///     (0 successes in 120 trials gives an upper bound of ≈ 3.1%).
pub fn security_matrix_v2() -> Vec<MatrixBound> {
    let mut bounds = Vec::new();
    for attack in REAL_CVE_ATTACKS {
        bounds.push(MatrixBound::bypassed(attack, DefenseKind::None, 0.99));
        let cap = if retains_residual(attack) { 0.15 } else { 0.10 };
        for scheme in [SchemeKind::Aes10, SchemeKind::Rdrand] {
            bounds.push(MatrixBound::stopped(
                attack,
                DefenseKind::Smokestack(scheme),
                cap,
            ));
        }
    }
    bounds
}

/// Pinned bounds for the cross-thread rows of the `matrix` plan (120
/// trials per cell): both attacks fully compromise the unprotected
/// baseline (the in-frame distances are static and disclosed by one
/// probe), while per-thread Smokestack draws reduce them to a blind
/// P-BOX row guess whose double-gate target (two exact 8-byte tokens in
/// independently permuted slots) leaves only a small brute-force
/// residual — capped at the same 15% upper bound as the librelp
/// residual.
pub fn xthread_bounds() -> Vec<MatrixBound> {
    let mut bounds = Vec::new();
    for attack in XTHREAD_ATTACKS {
        bounds.push(MatrixBound::bypassed(attack, DefenseKind::None, 0.99));
        for scheme in [SchemeKind::Aes10, SchemeKind::Rdrand] {
            bounds.push(MatrixBound::stopped(
                attack,
                DefenseKind::Smokestack(scheme),
                0.15,
            ));
        }
    }
    bounds
}

/// Regression bounds for the CI smoke plan
/// ([`crate::plan::CampaignPlan::smoke`], 25 trials per cell): the
/// cheap attacks must keep bypassing every weak defense (and the
/// insecure `pseudo` ablation) while AES-10 holds them to a 15% upper
/// bound (0/25 successes gives ≈ 13.3%).
pub fn smoke_bounds() -> Vec<MatrixBound> {
    let mut bounds = Vec::new();
    for (attack, bypassed) in [
        ("listing1-dop", DefenseKind::Canary),
        ("listing1-dop", DefenseKind::Smokestack(SchemeKind::Pseudo)),
        ("synthetic-direct-stack", DefenseKind::StackBase),
        ("synthetic-direct-stack", DefenseKind::EntryPadding),
    ] {
        bounds.push(MatrixBound::bypassed(attack, bypassed, 0.99));
    }
    for attack in ["listing1-dop", "synthetic-direct-stack"] {
        bounds.push(MatrixBound::bypassed(attack, DefenseKind::None, 0.99));
        bounds.push(MatrixBound::stopped(
            attack,
            DefenseKind::Smokestack(SchemeKind::Aes10),
            0.15,
        ));
    }
    bounds
}

/// Regression bounds for the synthesized-payload plan
/// ([`crate::plan::CampaignPlan::matrix_synth`]): every synthesized
/// payload must keep compromising the unprotected baseline (the
/// planner's output stays valid), while AES-10 holds each one to the
/// *same* caps the handwritten case studies are pinned at — 10% over
/// 40 trials for cross-frame linear sweeps (the guard slot is crossed
/// deterministically), 15% over 120 trials for the attacks that
/// [`retains_residual`].
pub fn synth_bounds() -> Vec<MatrixBound> {
    let mut bounds = Vec::new();
    for attack in smokestack_attacks::synth::catalog() {
        bounds.push(MatrixBound::bypassed(
            attack.name(),
            DefenseKind::None,
            0.99,
        ));
        let cap = if retains_residual(attack.name()) {
            0.15
        } else {
            0.10
        };
        bounds.push(MatrixBound::stopped(
            attack.name(),
            DefenseKind::Smokestack(SchemeKind::Aes10),
            cap,
        ));
    }
    bounds
}

/// Success floor of a deterministic bypass: the attack's layout
/// knowledge survives the defense, so every trial succeeds (40/40 in
/// every such cell of `full` at calibration). 0.99 allows no failed
/// trial in 40.
const BYPASS_FLOOR: f64 = 0.99;

/// Success floor of a bypass that occasionally misses: librelp against
/// `smokestack/pseudo` (36/40 at calibration; the other four trip the
/// guard) and the adaptive attacker against every
/// Smokestack scheme (37–40/40; an ambiguous observation makes it
/// abort).
const PARTIAL_BYPASS_FLOOR: f64 = 0.75;

/// Cap on the Wilson 95% upper bound of a stopped cell at 40 trials:
/// 0/40 gives ≈ 0.088, a single success ≈ 0.129. Every such cell of
/// `full` measured 0/40 at calibration.
const STOPPED_CAP: f64 = 0.10;

/// Cap on the Wilson 95% upper bound of a stopped cell that
/// [`retains_residual`], at 120 trials: 10/120 gives ≈ 0.147. At
/// calibration these cells of `full` measured at most 7/120, and held
/// across eight further master seeds.
const RESIDUAL_CAP: f64 = 0.15;

/// Detection floor of wireshark's linear sweep under every Smokestack
/// scheme: it crosses the function-identifier guard, which catches it
/// 29–35 times in 40 at calibration (the rest land harmlessly).
const GUARD_DETECTION_FLOOR: f64 = 0.5;

/// Detection floor of a sweep that a check always catches: proftpd
/// under the canary and every Smokestack scheme, and wireshark under
/// the canary (40/40 at calibration).
const ALWAYS_DETECTED_FLOOR: f64 = 0.99;

/// The bound of one `full` cell, or `None` where one cell cannot carry
/// the verdict (see [`full_bounds`]).
fn full_verdict(attack: &str, fleet: Fleet) -> Option<CellBound> {
    let (proftpd, wireshark) = (
        attack.starts_with("proftpd"),
        attack.starts_with("wireshark"),
    );
    let detected = match fleet.defense {
        DefenseKind::Canary | DefenseKind::Smokestack(_) if proftpd => Some(ALWAYS_DETECTED_FLOOR),
        DefenseKind::Canary if wireshark => Some(ALWAYS_DETECTED_FLOOR),
        DefenseKind::Smokestack(_) if wireshark => Some(GUARD_DETECTION_FLOOR),
        _ => None,
    };
    let bound = match fleet.defense {
        DefenseKind::StaticPermutation => return None,
        DefenseKind::Smokestack(_) if attack.starts_with("adaptive") => {
            MatrixBound::bypassed(attack, fleet.defense, PARTIAL_BYPASS_FLOOR)
        }
        DefenseKind::Smokestack(SchemeKind::Pseudo) if detected.is_none() => {
            let floor = if attack.starts_with("librelp") {
                PARTIAL_BYPASS_FLOOR
            } else {
                BYPASS_FLOOR
            };
            MatrixBound::bypassed(attack, fleet.defense, floor)
        }
        DefenseKind::Smokestack(scheme) => {
            let residual = scheme != SchemeKind::Pseudo && retains_residual(attack);
            let cap = if residual { RESIDUAL_CAP } else { STOPPED_CAP };
            MatrixBound::stopped(attack, fleet.defense, cap)
        }
        DefenseKind::Canary if detected.is_some() => {
            MatrixBound::stopped(attack, fleet.defense, STOPPED_CAP)
        }
        _ => MatrixBound::bypassed(attack, fleet.defense, BYPASS_FLOOR),
    };
    Some(CellBound {
        bound,
        pruned: fleet.pruned,
        min_detection_rate: detected,
    })
}

/// The pinned bounds of [`CampaignPlan::full`], the paper's
/// §II-C/§V-C verdicts cell by cell:
///
/// * Stack-base randomization and entry padding are bypassed by every
///   attack (§II-C: relative distances survive), as is the canary by
///   every non-linear or targeted write.
/// * A compile-time static permutation is a per-build coin flip for
///   most attacks, and a cell deploys exactly one build, so its row is
///   unbounded. Unit tests in `listing1` and `librelp` check the coin
///   flip across builds.
/// * The `pseudo` source falls to PRNG-state disclosure (§III-D),
///   except for the guard-crossing sweeps of wireshark and proftpd,
///   which it still detects.
/// * AES-1, AES-10 and RDRAND stop the standard suite, pruned or not
///   (analysis-driven pruning removes only slots no overflow can
///   reach). Wireshark and proftpd are stopped *by detection*.
/// * The adaptive attacker bypasses every scheme within one long-lived
///   invocation (the paper's own caveat).
pub fn full_bounds() -> Vec<CellBound> {
    CampaignPlan::full()
        .cells
        .iter()
        .filter_map(|c| full_verdict(&c.attack, c.fleet()))
        .collect()
}

/// The pinned success-bound set of a built-in plan, if it has one. The
/// `matrix` plan carries the full v2 bounds plus the cross-thread rows;
/// `smoke` has its own scaled-down set. `full`'s bounds carry pruned
/// rows and detection floors, so they come from [`full_bounds`]
/// instead (see [`pinned_bounds`]).
pub fn bounds_for_plan(name: &str) -> Option<Vec<MatrixBound>> {
    match name {
        "matrix" => {
            let mut bounds = security_matrix_v2();
            bounds.extend(xthread_bounds());
            Some(bounds)
        }
        "matrix-synth" => Some(synth_bounds()),
        "smoke" => Some(smoke_bounds()),
        _ => None,
    }
}

/// The bounds `--deny-regressions` checks `plan` against: those of the
/// built-in plan of the same name, provided `plan` runs exactly that
/// plan's cells (its master seed may differ). Bounds only hold at the
/// trial counts they were calibrated at, so a plan file that borrows a
/// built-in name, or a grid cut by `--max-trials`, is refused instead
/// of being checked against bounds it cannot meet.
pub fn pinned_bounds(plan: &CampaignPlan) -> Result<Vec<CellBound>, String> {
    let builtin = CampaignPlan::builtin(&plan.name).ok_or_else(|| {
        format!(
            "no pinned bounds for plan `{}` (built-in plans: {})",
            plan.name,
            BUILTIN_PLANS.join(", ")
        )
    })?;
    if builtin.cells != plan.cells {
        return Err(format!(
            "plan `{}` does not run the built-in `{}` cells its bounds were calibrated \
             at (edited grid or --max-trials)",
            plan.name, builtin.name
        ));
    }
    Ok(match bounds_for_plan(&plan.name) {
        Some(bounds) => bounds.into_iter().map(CellBound::from).collect(),
        None => full_bounds(),
    })
}

/// Check `stats` against `bounds`. A bound whose cell was not measured
/// is itself a violation — silently skipping an unmeasured cell is how
/// regressions hide.
pub fn check<B: Clone + Into<CellBound>>(stats: &[CellStats], bounds: &[B]) -> Vec<Violation> {
    let mut violations = Vec::new();
    for bound in bounds {
        let bound: CellBound = bound.clone().into();
        let label = bound.fleet().label();
        let cell = stats
            .iter()
            .find(|s| s.attack == bound.bound.attack && s.defense == label);
        let mut fail = |message: String| {
            violations.push(Violation {
                bound: bound.clone(),
                message,
            })
        };
        let Some(cell) = cell else {
            fail("cell not measured by this campaign".into());
            continue;
        };
        let counts = format!("{}/{} successes", cell.successes(), cell.trials);
        if let Some(cap) = bound.bound.max_success_upper.filter(|&cap| cell.ci.1 > cap) {
            fail(format!(
                "95% upper bound on success rate is {:.4} > {cap} ({counts})",
                cell.ci.1
            ));
        }
        if let Some(floor) = bound
            .bound
            .min_success_rate
            .filter(|&f| cell.success_rate < f)
        {
            fail(format!(
                "success rate {:.4} < {floor} ({counts})",
                cell.success_rate
            ));
        }
        let detection_rate = cell.detections() as f64 / cell.trials.max(1) as f64;
        if let Some(floor) = bound.min_detection_rate.filter(|&f| detection_rate < f) {
            fail(format!(
                "detection rate {detection_rate:.4} < {floor} ({}/{} detected)",
                cell.detections(),
                cell.trials
            ));
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{OutcomeKind, TrialRecord};
    use crate::stats::aggregate;

    fn fake_cell(
        cell: u32,
        attack: &str,
        defense: &str,
        successes: u32,
        total: u32,
    ) -> Vec<TrialRecord> {
        (0..total)
            .map(|i| TrialRecord {
                cell,
                index: i,
                attack: attack.into(),
                defense: defense.into(),
                seed: 0,
                kind: if i < successes {
                    OutcomeKind::Success
                } else {
                    OutcomeKind::Detected
                },
                rounds: 1,
                detail: String::new(),
            })
            .collect()
    }

    #[test]
    fn paper_consistent_results_pass() {
        let mut records = Vec::new();
        for (i, attack) in REAL_CVE_ATTACKS.iter().enumerate() {
            let base = i as u32 * 3;
            // librelp retains its ≈2% brute-force residual; the sweep
            // attacks are deterministically guard-detected.
            let residual = if attack.starts_with("librelp") { 3 } else { 0 };
            records.extend(fake_cell(base, attack, "none", 120, 120));
            records.extend(fake_cell(
                base + 1,
                attack,
                "smokestack/AES-10",
                residual,
                120,
            ));
            records.extend(fake_cell(
                base + 2,
                attack,
                "smokestack/RDRAND",
                residual,
                120,
            ));
        }
        let violations = check(&aggregate(&records), &security_matrix_v2());
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn leaky_defense_and_broken_attack_are_flagged() {
        let mut records = Vec::new();
        for (i, attack) in REAL_CVE_ATTACKS.iter().enumerate() {
            let base = i as u32 * 3;
            // Attack rotted: only succeeds half the time unprotected.
            records.extend(fake_cell(base, attack, "none", 60, 120));
            // Defense rotted: 30/120 successes → Wilson upper ≈ 0.33.
            records.extend(fake_cell(base + 1, attack, "smokestack/AES-10", 30, 120));
            records.extend(fake_cell(base + 2, attack, "smokestack/RDRAND", 0, 120));
        }
        let violations = check(&aggregate(&records), &security_matrix_v2());
        // Per attack: one floor violation (none) + one cap violation
        // (AES-10).
        assert_eq!(violations.len(), 6, "{violations:?}");
    }

    #[test]
    fn unmeasured_cells_are_violations() {
        let violations = check(&[], &security_matrix_v2());
        assert_eq!(violations.len(), security_matrix_v2().len());
        assert!(violations[0].to_string().contains("not measured"));
    }

    #[test]
    fn every_builtin_plan_covers_its_bounds() {
        use crate::plan::CampaignPlan;
        // Every pinned bound must name a cell its plan actually runs;
        // otherwise --deny-regressions reports spurious "not measured"
        // violations. Checked structurally (no trials executed).
        for name in BUILTIN_PLANS {
            let plan = CampaignPlan::builtin(name).unwrap();
            for bound in pinned_bounds(&plan).unwrap() {
                assert!(
                    plan.cells
                        .iter()
                        .any(|c| c.attack == bound.bound.attack && c.fleet() == bound.fleet()),
                    "plan `{name}` never measures {} vs {}",
                    bound.bound.attack,
                    bound.fleet().label()
                );
            }
        }
        assert!(bounds_for_plan("custom").is_none());
    }

    #[test]
    fn bounds_apply_only_to_the_builtin_grid() {
        // A plan file that borrows a built-in name but not its cells is
        // refused instead of reporting "cell not measured" (or passing
        // at a trial count the bounds were never calibrated for).
        let borrowed =
            CampaignPlan::parse("name smoke\ncell listing1-dop smokestack/AES-10 3\n").unwrap();
        assert!(pinned_bounds(&borrowed).is_err());
        let truncated = CampaignPlan::smoke().truncated(3);
        assert!(pinned_bounds(&truncated).is_err());
        let mut unnamed = CampaignPlan::smoke();
        unnamed.name = "custom".into();
        assert!(pinned_bounds(&unnamed).is_err());
        // The master seed may differ: the grid is what the bounds need.
        for name in BUILTIN_PLANS {
            let mut plan = CampaignPlan::builtin(name).unwrap();
            plan.master_seed ^= 0xfeed;
            assert!(!pinned_bounds(&plan).unwrap().is_empty(), "{name}");
        }
    }

    #[test]
    fn full_bounds_cover_every_verdict_row() {
        // Every cell but the per-build static-permutation coin flip
        // carries a verdict, in plan order, pruned rows included.
        let rows = |b: &CellBound| (b.bound.attack.clone(), b.fleet());
        let bounds = full_bounds();
        let expected: Vec<_> = CampaignPlan::full()
            .cells
            .iter()
            .filter(|c| c.defense != DefenseKind::StaticPermutation)
            .map(|c| (c.attack.clone(), c.fleet()))
            .collect();
        assert_eq!(bounds.iter().map(rows).collect::<Vec<_>>(), expected);
        // The canary, four schemes and the pruned row detect each sweep.
        for sweep in ["wireshark", "proftpd"] {
            let detected = bounds
                .iter()
                .filter(|b| b.bound.attack.starts_with(sweep) && b.min_detection_rate.is_some());
            assert_eq!(detected.count(), 6, "{sweep}");
        }
    }

    #[test]
    fn detection_floors_are_checked() {
        let mut records = fake_cell(
            0,
            "wireshark-cve-2014-2299",
            "smokestack/AES-10+prune",
            0,
            40,
        );
        for r in &mut records[20..] {
            r.kind = OutcomeKind::Failed;
        }
        let bound = |floor| CellBound {
            pruned: true,
            min_detection_rate: Some(floor),
            ..CellBound::from(MatrixBound::stopped(
                "wireshark-cve-2014-2299",
                DefenseKind::Smokestack(SchemeKind::Aes10),
                STOPPED_CAP,
            ))
        };
        let stats = aggregate(&records);
        assert!(check(&stats, &[bound(0.5)]).is_empty());
        let violations = check(&stats, &[bound(0.6)]);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].to_string().contains("+prune: detection rate"));
    }

    #[test]
    fn zero_of_forty_clears_the_cap_with_confidence() {
        // The arithmetic the pinned cap relies on: 0/40 → upper ≈
        // 0.088 < 0.10, but 2/40 → upper ≈ 0.165 fails.
        let clean = aggregate(&fake_cell(
            0,
            REAL_CVE_ATTACKS[0],
            "smokestack/AES-10",
            0,
            40,
        ));
        assert!(clean[0].ci.1 < 0.10);
        let leaky = aggregate(&fake_cell(
            0,
            REAL_CVE_ATTACKS[0],
            "smokestack/AES-10",
            2,
            40,
        ));
        assert!(leaky[0].ci.1 > 0.10);
    }
}
