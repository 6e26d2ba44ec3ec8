//! The paper's Listing 1, end to end: a data-oriented programming
//! attack that chains ADD / SUB / LOAD / STORE gadgets through a
//! corrupted loop — executed against an unprotected build, then against
//! Smokestack with each randomness scheme.
//!
//! ```sh
//! cargo run --example dop_attack_demo
//! ```

use smokestack_repro::attacks::listing1::{Listing1Attack, EXPECTED, SOURCE};
use smokestack_repro::attacks::{run_trial, Attack, Build};
use smokestack_repro::defenses::DefenseKind;
use smokestack_repro::srng::SchemeKind;

fn main() {
    println!("Paper Listing 1: a loop whose counter and operand variables are");
    println!("adjacent to an overflowable buffer. The adversary re-corrupts them");
    println!("every iteration, turning the loop into a gadget dispatcher that");
    println!("computes  target = 1000 + 700 - 58 = {EXPECTED}  - a computation no");
    println!("benign execution performs.\n");
    println!("--- vulnerable function ---");
    for line in SOURCE.lines().skip(1).take(20) {
        println!("{line}");
    }
    println!("---------------------------\n");

    let attack = Listing1Attack;
    let defenses = [
        DefenseKind::None,
        DefenseKind::StackBase,
        DefenseKind::EntryPadding,
        DefenseKind::Canary,
        DefenseKind::Smokestack(SchemeKind::Pseudo),
        DefenseKind::Smokestack(SchemeKind::Aes1),
        DefenseKind::Smokestack(SchemeKind::Aes10),
        DefenseKind::Smokestack(SchemeKind::Rdrand),
    ];
    println!("{:<24} outcome", "defense");
    println!("{}", "-".repeat(64));
    for defense in defenses {
        let build = Build::new(attack.source(), defense, 0xb11d);
        let outcome = run_trial(&attack, &build, 0x5eed).outcome;
        println!("{:<24} {outcome}", defense.label());
    }
    println!();
    println!("Reading: the insecure in-memory PRNG (`pseudo`) is fully predicted");
    println!("from a single state disclosure, so Smokestack only holds when its");
    println!("entropy source resists disclosure (AES-10 / RDRAND) - the paper's");
    println!("central design argument (Section III-D).");
}
