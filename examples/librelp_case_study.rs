//! The librelp CVE-2018-1000140 case study (paper §II-C): the
//! `snprintf` return-value bug gives a *non-linear* overflow whose
//! write cursor the attacker teleports past canaries and guard slots,
//! programming copy gadgets in the caller that exfiltrate the private
//! key through the error-reporting path.
//!
//! ```sh
//! cargo run --example librelp_case_study
//! ```

use smokestack_repro::attacks::librelp::{LibrelpAttack, SECRET};
use smokestack_repro::attacks::{run_trial, Attack, AttackOutcome, Build};
use smokestack_repro::defenses::DefenseKind;
use smokestack_repro::srng::SchemeKind;

fn main() {
    println!("librelp CVE-2018-1000140 reproduction");
    println!("=====================================\n");
    println!("The bug: relpTcpChkPeerName() accumulates subject-alt-names with");
    println!("  iAllNames += snprintf(allNames + iAllNames, cap - iAllNames, ...);");
    println!("snprintf returns the WOULD-BE length, so one oversized SAN pushes the");
    println!("cursor past the buffer without writing there (the capped write is");
    println!("truncated) - and the capacity computation goes negative, unbounding");
    println!("every later write. The next SAN lands at an attacker-chosen distance:");
    println!("a non-linear write that skips stack canaries entirely.\n");
    println!("Goal: leak \"{SECRET}\" through the error output.\n");

    let attack = LibrelpAttack;
    println!("{:<24} outcome", "defense");
    println!("{}", "-".repeat(72));
    for defense in DefenseKind::MATRIX {
        let build = Build::new(attack.source(), defense, 0xb11d);
        let outcome = run_trial(&attack, &build, 0xfeed).outcome;
        let note = match (&outcome, defense) {
            (AttackOutcome::Success(_), DefenseKind::Canary) => {
                "  <- non-linear hop skips the canary"
            }
            (AttackOutcome::Success(_), DefenseKind::StaticPermutation) => {
                "  <- layout disclosed once per build"
            }
            (AttackOutcome::Failed(_), DefenseKind::StaticPermutation) => {
                "  <- per-BUILD coin flip: this build got lucky (other builds fall; see tests)"
            }
            (AttackOutcome::Success(_), DefenseKind::Smokestack(SchemeKind::Pseudo)) => {
                "  <- PRNG state disclosed from data memory"
            }
            (_, DefenseKind::Smokestack(SchemeKind::Aes10)) => {
                "  <- per-invocation layout unpredictable"
            }
            _ => "",
        };
        println!("{:<24} {outcome}{note}", defense.label());
    }
    println!();
    println!("This mirrors the paper's Section II-C finding (static permutation and");
    println!("padding schemes fall to one disclosure probe) and its Section V-C");
    println!("result (Smokestack with a disclosure-resistant source stops the");
    println!("attack by making the gadget block's location a fresh secret per call).");
}
