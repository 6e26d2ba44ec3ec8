//! Golden verdicts: every attack against every family of layout
//! knowledge its adversary uses, pinned as `(rounds, outcome)` per
//! `(attack, defense, build seed, campaign seed)` in `outcomes.golden`.
//!
//! The defenses cover each kind of knowledge an attack can hold: a
//! disclosed static layout (`none`, `static-permutation`), a layout
//! predicted from the disclosed PRNG state (`smokestack/pseudo`), and a
//! blind P-BOX row guess or the unprotected twin's layout
//! (`smokestack/AES-10`, and `+prune` for the synthesized payloads,
//! whose twin fallback keys on the entry slot being undisclosed).
//!
//! `xthread-toctou-race` runs against `none` only. Under Smokestack its
//! trials spin to the 200 M-instruction fuel limit, 1.7–3.1 s each in
//! release (the `matrix` campaign plan covers those cells), and a
//! static-permutation build whose sweep commits spins the same way
//! (24 s in a debug build at build seed 3).
//!
//! On a mismatch the test prints the whole measured table; a change
//! that moves a verdict on purpose replaces the file with it.

use smokestack_attacks::{by_name, run_trial, synth, Attack, Build};
use smokestack_core::SmokestackConfig;
use smokestack_defenses::DefenseKind;
use smokestack_srng::SchemeKind;

const GOLDEN: &str = include_str!("outcomes.golden");

/// `(build seed, campaign seed)` pairs run for every cell.
const SEEDS: [(u64, u64); 3] = [(1, 1), (2, 7), (3, 42)];

/// Every attack `by_name` resolves in the standard suite, the adaptive
/// and cross-thread extensions, and the first synthesized payload of
/// each catalog label.
fn attacks() -> Vec<String> {
    let mut names: Vec<String> = smokestack_attacks::standard_suite()
        .iter()
        .map(|a| a.name().to_string())
        .collect();
    names.push("adaptive-same-invocation".into());
    names.push("xthread-shared-overflow".into());
    names.push("xthread-toctou-race".into());
    for label in ["librelp", "proftpd", "wireshark", "indirect", "chains"] {
        let first = synth::catalog()
            .iter()
            .find(|a| a.name().starts_with(&format!("synth-{label}-")))
            .expect("one synthesized payload per label");
        names.push(first.name().to_string());
    }
    names
}

fn measured() -> String {
    let defenses = [
        DefenseKind::None,
        DefenseKind::StaticPermutation,
        DefenseKind::Smokestack(SchemeKind::Pseudo),
        DefenseKind::Smokestack(SchemeKind::Aes10),
    ];
    let pruned = SmokestackConfig {
        prune_safe_slots: true,
        ..SmokestackConfig::default()
    };
    let mut out = String::new();
    for name in attacks() {
        let attack = by_name(&name).expect("attack resolves");
        let mut rows: Vec<(String, SmokestackConfig)> = defenses
            .iter()
            .map(|d| (d.label(), SmokestackConfig::default()))
            .collect();
        if name.starts_with("synth-") {
            rows.push(("smokestack/AES-10+prune".into(), pruned));
        }
        for (label, cfg) in rows {
            let defense = DefenseKind::from_label(label.trim_end_matches("+prune"))
                .expect("defense label parses");
            if name == "xthread-toctou-race" && defense != DefenseKind::None {
                continue;
            }
            for (build_seed, campaign_seed) in SEEDS {
                let build = Build::new_configured(attack.source(), defense, build_seed, &cfg);
                let run = run_trial(&*attack, &build, campaign_seed);
                out.push_str(&format!(
                    "{name} {label} {build_seed} {campaign_seed} -> {} {}\n",
                    run.rounds, run.outcome
                ));
            }
        }
    }
    out
}

#[test]
fn every_attack_verdict_is_pinned() {
    let got = measured();
    if got != GOLDEN {
        let first = got
            .lines()
            .zip(GOLDEN.lines())
            .find(|(g, w)| g != w)
            .map_or("(line count differs)".to_string(), |(g, w)| {
                format!("measured `{g}`, pinned `{w}`")
            });
        panic!("verdicts moved: first difference {first}\n\nmeasured table:\n{got}");
    }
}
