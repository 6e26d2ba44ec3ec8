//! Declarative campaign plans: an attack × defense × trial-count grid
//! plus the master seed every per-trial seed is derived from.
//!
//! A plan is the unit of reproducibility: the same plan (same
//! fingerprint) always produces the same per-trial seeds, regardless of
//! worker count or scheduling, so campaign aggregates are bit-stable
//! across `--jobs` settings and across checkpoint/resume boundaries.

use smokestack_attacks::Attack;
use smokestack_defenses::{DefenseKind, Fleet};
use smokestack_srng::SchemeKind;

use crate::matrix::retains_residual;

/// One grid cell: `trials` independent campaigns of one attack against
/// one deployed defense.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanCell {
    /// Attack name, resolvable via `smokestack_attacks::by_name`.
    pub attack: String,
    /// The defense deployed on the vulnerable build.
    pub defense: DefenseKind,
    /// Whether Smokestack deploys with `prune_safe_slots` (the
    /// `+prune` fleet variant).
    pub pruned: bool,
    /// Number of independent Monte-Carlo trials.
    pub trials: u32,
}

impl PlanCell {
    /// An unpruned cell.
    pub fn new(attack: &str, defense: DefenseKind, trials: u32) -> PlanCell {
        PlanCell {
            attack: attack.into(),
            defense,
            pruned: false,
            trials,
        }
    }

    /// The defense row this cell deploys.
    pub fn fleet(&self) -> Fleet {
        Fleet {
            defense: self.defense,
            pruned: self.pruned,
        }
    }
}

/// Names of the built-in plans, in [`CampaignPlan::builtin`] order.
pub const BUILTIN_PLANS: [&str; 4] = ["smoke", "matrix", "matrix-synth", "full"];

/// A full campaign plan: named grid + master seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignPlan {
    /// Plan name (journal header, reports).
    pub name: String,
    /// Master seed; every build seed and trial seed splits off this.
    pub master_seed: u64,
    /// The grid, in report order.
    pub cells: Vec<PlanCell>,
}

impl CampaignPlan {
    /// Total trials across all cells.
    pub fn total_trials(&self) -> u64 {
        self.cells.iter().map(|c| u64::from(c.trials)).sum()
    }

    /// Order-sensitive FNV-1a fingerprint of the whole plan. Journals
    /// embed it so a resume against an edited plan is rejected instead
    /// of silently merging incompatible trial grids.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x100_0000_01b3);
            }
        };
        eat(self.name.as_bytes());
        eat(&self.master_seed.to_le_bytes());
        for cell in &self.cells {
            eat(cell.attack.as_bytes());
            eat(cell.fleet().label().as_bytes());
            eat(&cell.trials.to_le_bytes());
        }
        h
    }

    /// Cap every cell at `max` trials (quick exploratory runs).
    pub fn truncated(mut self, max: u32) -> CampaignPlan {
        for cell in &mut self.cells {
            cell.trials = cell.trials.min(max);
        }
        self
    }

    /// The CI smoke plan: cheap attacks, every defense class, ~200
    /// trials total. Small enough for a debug-build test run, varied
    /// enough to exercise the full engine (grid, seeds, journal).
    pub fn smoke() -> CampaignPlan {
        let mut cells = Vec::new();
        for defense in [
            DefenseKind::None,
            DefenseKind::Canary,
            DefenseKind::Smokestack(SchemeKind::Pseudo),
            DefenseKind::Smokestack(SchemeKind::Aes10),
        ] {
            cells.push(PlanCell::new("listing1-dop", defense, 25));
        }
        for defense in [
            DefenseKind::None,
            DefenseKind::StackBase,
            DefenseKind::EntryPadding,
            DefenseKind::Smokestack(SchemeKind::Aes10),
        ] {
            cells.push(PlanCell::new("synthetic-direct-stack", defense, 25));
        }
        CampaignPlan {
            name: "smoke".into(),
            master_seed: 0x5e11_ab1e,
            cells,
        }
    }

    /// The paper-scale evaluation plan behind the security matrix v2:
    /// every real-CVE attack against the unprotected baseline and the
    /// two secure Smokestack schemes, with enough trials for meaningful
    /// 95% intervals.
    pub fn matrix() -> CampaignPlan {
        let mut cells = Vec::new();
        for attack in [
            "librelp-cve-2018-1000140",
            "wireshark-cve-2014-2299",
            "proftpd-cve-2006-5815",
        ] {
            for defense in [
                DefenseKind::None,
                DefenseKind::Smokestack(SchemeKind::Aes10),
                DefenseKind::Smokestack(SchemeKind::Rdrand),
            ] {
                cells.push(PlanCell::new(attack, defense, 120));
            }
        }
        // Cross-thread DOP rows: one thread corrupting a sibling
        // thread's frame, against the baseline and both secure schemes
        // with per-thread layout draws.
        for attack in ["xthread-shared-overflow", "xthread-toctou-race"] {
            for defense in [
                DefenseKind::None,
                DefenseKind::Smokestack(SchemeKind::Aes10),
                DefenseKind::Smokestack(SchemeKind::Rdrand),
            ] {
                cells.push(PlanCell::new(attack, defense, 120));
            }
        }
        CampaignPlan {
            name: "matrix".into(),
            master_seed: 0xcafe_f00d,
            cells,
        }
    }

    /// The paper's §II-C/§V-C evaluation, pinned by
    /// [`crate::matrix::full_bounds`]: the whole standard suite plus
    /// the adaptive attacker against every defense row of the paper's
    /// comparison, and one `smokestack/AES-10+prune` row per
    /// standard-suite attack for the pruning verdict. Cells get 40
    /// trials, except that attacks which retain a brute-force residual
    /// get 120 against the secure Smokestack schemes, where their
    /// caps need the tighter interval.
    pub fn full() -> CampaignPlan {
        let mut cells = Vec::new();
        let suite: Vec<String> = smokestack_attacks::standard_suite()
            .iter()
            .map(|a| a.name().to_string())
            .collect();
        let mut cell = |attack: &str, defense: DefenseKind, pruned: bool| {
            let secure = matches!(defense, DefenseKind::Smokestack(s) if s != SchemeKind::Pseudo);
            let trials = if secure && retains_residual(attack) {
                120
            } else {
                40
            };
            cells.push(PlanCell {
                pruned,
                ..PlanCell::new(attack, defense, trials)
            });
        };
        for attack in &suite {
            for defense in DefenseKind::MATRIX {
                cell(attack, defense, false);
            }
            cell(attack, DefenseKind::Smokestack(SchemeKind::Aes10), true);
        }
        for defense in DefenseKind::MATRIX {
            cell("adaptive-same-invocation", defense, false);
        }
        CampaignPlan {
            name: "full".into(),
            master_seed: 0xf01d_ab1e,
            cells,
        }
    }

    /// The synthesized-payload evaluation plan: every `synth-*` catalog
    /// attack against the unprotected baseline (does the planner's
    /// payload still work?) and against Smokestack/AES-10 (is it
    /// contained?). Baseline cells are small because the unprotected
    /// layout is deterministic; AES-10 cells carry enough trials for
    /// the Wilson bounds in [`crate::matrix::synth_bounds`], with extra
    /// budget for the attacks that [`retains_residual`].
    pub fn matrix_synth() -> CampaignPlan {
        let mut cells = Vec::new();
        for attack in smokestack_attacks::synth::catalog() {
            cells.push(PlanCell::new(attack.name(), DefenseKind::None, 8));
            // Residual caps need the tighter interval of more trials.
            let trials = if retains_residual(attack.name()) {
                120
            } else {
                40
            };
            cells.push(PlanCell::new(
                attack.name(),
                DefenseKind::Smokestack(SchemeKind::Aes10),
                trials,
            ));
        }
        CampaignPlan {
            name: "matrix-synth".into(),
            master_seed: 0x5d0_7e51,
            cells,
        }
    }

    /// Look up a built-in plan by name.
    pub fn builtin(name: &str) -> Option<CampaignPlan> {
        match name {
            "smoke" => Some(CampaignPlan::smoke()),
            "matrix" => Some(CampaignPlan::matrix()),
            "matrix-synth" => Some(CampaignPlan::matrix_synth()),
            "full" => Some(CampaignPlan::full()),
            _ => None,
        }
    }

    /// Parse a plan file. Line-oriented:
    ///
    /// ```text
    /// # comment
    /// name my-plan
    /// seed 1234
    /// cell listing1-dop smokestack/AES-10 40
    /// ```
    ///
    /// `cell` lines are `<attack> <defense-label> <trials>`; attack and
    /// defense names never contain whitespace. A defense label may carry
    /// the `+prune` suffix of a [`Fleet::label`]. Unknown attacks and
    /// defense labels are rejected here, not at run time.
    pub fn parse(text: &str) -> Result<CampaignPlan, String> {
        let mut name = None;
        let mut seed = None;
        let mut cells = Vec::new();
        for (ln, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut words = line.split_whitespace();
            let keyword = words.next().expect("non-empty line");
            let err = |msg: String| format!("plan line {}: {msg}", ln + 1);
            match keyword {
                "name" => {
                    name = Some(
                        words
                            .next()
                            .ok_or_else(|| err("missing plan name".into()))?
                            .to_string(),
                    );
                }
                "seed" => {
                    let w = words.next().ok_or_else(|| err("missing seed".into()))?;
                    let parsed = if let Some(hex) = w.strip_prefix("0x") {
                        u64::from_str_radix(hex, 16)
                    } else {
                        w.parse()
                    };
                    seed = Some(parsed.map_err(|_| err(format!("bad seed `{w}`")))?);
                }
                "cell" => {
                    let attack = words
                        .next()
                        .ok_or_else(|| err("missing attack name".into()))?;
                    let defense = words
                        .next()
                        .ok_or_else(|| err("missing defense label".into()))?;
                    let trials = words
                        .next()
                        .ok_or_else(|| err("missing trial count".into()))?;
                    if smokestack_attacks::by_name(attack).is_none() {
                        return Err(err(format!("unknown attack `{attack}`")));
                    }
                    let fleet = Fleet::from_label(defense)
                        .ok_or_else(|| err(format!("unknown defense `{defense}`")))?;
                    let trials: u32 = trials
                        .parse()
                        .map_err(|_| err(format!("bad trial count `{trials}`")))?;
                    if trials == 0 {
                        return Err(err("trial count must be positive".into()));
                    }
                    cells.push(PlanCell {
                        pruned: fleet.pruned,
                        ..PlanCell::new(attack, fleet.defense, trials)
                    });
                }
                other => return Err(err(format!("unknown keyword `{other}`"))),
            }
            if let Some(extra) = words.next() {
                return Err(err(format!("trailing junk `{extra}`")));
            }
        }
        if cells.is_empty() {
            return Err("plan has no cells".into());
        }
        Ok(CampaignPlan {
            name: name.unwrap_or_else(|| "unnamed".into()),
            master_seed: seed.unwrap_or(0),
            cells,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_plan_file() {
        let plan = CampaignPlan::parse(
            "# demo\nname demo\nseed 0xabc\n\
             cell listing1-dop smokestack/AES-10 8\n\
             cell listing1-dop none 4\n",
        )
        .unwrap();
        assert_eq!(plan.name, "demo");
        assert_eq!(plan.master_seed, 0xabc);
        assert_eq!(plan.cells.len(), 2);
        assert_eq!(
            plan.cells[0].defense,
            DefenseKind::Smokestack(SchemeKind::Aes10)
        );
        assert_eq!(plan.total_trials(), 12);
    }

    #[test]
    fn rejects_unknown_names() {
        assert!(CampaignPlan::parse("cell no-such-attack none 4").is_err());
        assert!(CampaignPlan::parse("cell listing1-dop no-such-defense 4").is_err());
        assert!(CampaignPlan::parse("cell listing1-dop none 0").is_err());
        assert!(CampaignPlan::parse("name only-a-name").is_err());
    }

    #[test]
    fn fingerprint_tracks_every_field() {
        let base = CampaignPlan::smoke();
        let mut renamed = base.clone();
        renamed.name = "other".into();
        let mut reseeded = base.clone();
        reseeded.master_seed ^= 1;
        let mut resized = base.clone();
        resized.cells[0].trials += 1;
        let prints = [
            base.fingerprint(),
            renamed.fingerprint(),
            reseeded.fingerprint(),
            resized.fingerprint(),
        ];
        for i in 0..prints.len() {
            for j in i + 1..prints.len() {
                assert_ne!(prints[i], prints[j], "cells {i} and {j} collide");
            }
        }
    }

    #[test]
    fn builtin_plans_resolve_and_are_runnable() {
        for name in BUILTIN_PLANS {
            let plan = CampaignPlan::builtin(name).unwrap();
            assert_eq!(plan.name, name);
            assert!(plan.total_trials() > 0);
            for cell in &plan.cells {
                assert!(
                    smokestack_attacks::by_name(&cell.attack).is_some(),
                    "unknown attack {} in builtin {name}",
                    cell.attack
                );
            }
        }
        assert!(CampaignPlan::builtin("nope").is_none());
        // The smoke plan is sized for CI: ~200 trials.
        let smoke = CampaignPlan::smoke();
        assert!(
            (150..=250).contains(&smoke.total_trials()),
            "{}",
            smoke.total_trials()
        );
    }
}
