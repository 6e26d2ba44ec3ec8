//! Extension experiment: the **adaptive same-invocation** attack — the
//! residual risk the paper itself acknowledges in its conclusion:
//! Smokestack "forc\[es\] the attacker to reverse engineer a function
//! frame and deliver a payload in the same invocation."
//!
//! This adversary does exactly that. The victim is a long-lived session
//! loop *inside one invocation* of the vulnerable function (paper
//! Listing 1's own shape), so its permutation is drawn once and stays
//! live across many attacker interactions. The attacker:
//!
//! 1. plants a marker and locates the buffer;
//! 2. snapshots the surrounding stack across benign iterations and
//!    identifies the loop counter (the slot incrementing by one) and
//!    the loop bound (the constant slot) — passive recon;
//! 3. intersects those observations with the **public** P-BOX to pin
//!    the positions of the remaining gadget slots as a set; the three
//!    zero-valued slots (`op`, `operand`, `acc`) are mutually
//!    indistinguishable by observation, so the adversary *actively*
//!    disambiguates them using the program's own gadgets: writing the
//!    LOAD opcode into all three makes whichever is `op` fire and park
//!    a known value in `acc`; a follow-up round with two distinct
//!    values separates `op` from `operand` by the sign of the delta;
//! 4. replays the gadget script with exact offsets.
//!
//! The attack succeeds against Smokestack under **every** RNG scheme,
//! including AES-10 and RDRAND: per-invocation randomization cannot
//! protect state that survives within one invocation of a function with
//! an internal input loop. Cross-invocation attacks — the paper's main
//! subject — remain stopped; see the rest of this crate.

use smokestack_core::HardenReport;
use smokestack_vm::{layout, FnInput, Memory};

use crate::intel::{probe, scan_stack};
use crate::{conclude, Attack, AttackOutcome, Build, CommitFlag};

/// Attacker-chosen computation: `5000 - 111 + 13`.
pub const EXPECTED: i64 = 4902;

const MARKER: u64 = 0x05ca1ab1e0ddba11;
const TARGET_INITIAL: i64 = 5000;

/// The vulnerable program: one invocation, many requests — a session
/// loop with DOP gadget state in its own frame.
pub const SOURCE: &str = r#"
    long target = 5000;

    void session() {
        long ctr = 0;
        long max = 12;
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

    int main() { session(); return 0; }
"#;

/// Slot declaration order in `session` (read out of the binary).
const SLOT_CTR: usize = 0;
const SLOT_MAX: usize = 1;
const SLOT_BUFF: usize = 5;

/// Gadget script once the layout is known: (op, operand). The LOAD
/// (op 4) first parks `target` in `acc`; the adaptive path enters at
/// step 1 because its disambiguation phase already performed the LOAD.
const SCRIPT: [(i64, i64); 4] = [(4, 0), (2, 111), (1, 13), (3, 0)];

/// The adaptive same-invocation DOP attack.
pub struct AdaptiveAttack;

/// A window of stack memory the adversary snapshots each round.
#[derive(Clone)]
struct Snapshot {
    base: u64,
    words: Vec<u64>,
}

fn take_snapshot(mem: &Memory, around: u64) -> Snapshot {
    let lo = around
        .saturating_sub(512)
        .max(layout::STACK_TOP - (8 << 20));
    let hi = (around + 512).min(layout::STACK_TOP);
    let base = lo & !7;
    let mut words = Vec::new();
    let mut a = base;
    while a + 8 <= hi {
        words.push(mem.read_uint(a, 8).unwrap_or(0));
        a += 8;
    }
    Snapshot { base, words }
}

impl Snapshot {
    fn value_at(&self, addr: u64) -> Option<u64> {
        if addr < self.base || !addr.is_multiple_of(8) {
            return None;
        }
        self.words.get(((addr - self.base) / 8) as usize).copied()
    }

    /// Addresses whose value changed by exactly `delta` vs `earlier`.
    fn changed_by(&self, earlier: &Snapshot, delta: i64) -> Vec<u64> {
        let mut out = Vec::new();
        for (i, &w) in self.words.iter().enumerate() {
            let addr = self.base + 8 * i as u64;
            if let Some(old) = earlier.value_at(addr) {
                if w.wrapping_sub(old) as i64 == delta {
                    out.push(addr);
                }
            }
        }
        out
    }
}

/// Passive solve: rows consistent with the observed (buff, ctr, max)
/// addresses. Returns `(ctr_off, max_off, unknown_offsets)` — offsets
/// relative to buff, with the `{op, operand, acc}` *set* of positions
/// (their assignment is resolved actively). `None` when the candidate
/// rows disagree even on the position set.
fn passive_solve(
    report: &HardenReport,
    buff_addr: u64,
    ctr_candidates: &[u64],
    max_candidates: &[u64],
) -> Option<(i64, i64, [i64; 3])> {
    let p = report.placements.get("session")?;
    let t = &report.pbox.tables[p.table];
    let mut solution: Option<(i64, i64, [i64; 3])> = None;
    for row in t.rows.iter() {
        let offs: Vec<i64> = p.columns.iter().map(|&c| row.offsets[c] as i64).collect();
        let buff_off = offs[SLOT_BUFF];
        let slab = buff_addr as i64 - buff_off;
        if slab < 0 {
            continue;
        }
        let ctr_addr = (slab + offs[SLOT_CTR]) as u64;
        let max_addr = (slab + offs[SLOT_MAX]) as u64;
        if !ctr_candidates.contains(&ctr_addr) || !max_candidates.contains(&max_addr) {
            continue;
        }
        let mut unknown = [offs[2] - buff_off, offs[3] - buff_off, offs[4] - buff_off];
        unknown.sort_unstable();
        let cand = (
            offs[SLOT_CTR] - buff_off,
            offs[SLOT_MAX] - buff_off,
            unknown,
        );
        match &solution {
            None => solution = Some(cand),
            Some(existing) if *existing != cand => return None,
            Some(_) => {}
        }
    }
    solution
}

/// What the adversary has figured out so far.
enum Phase {
    /// Waiting for the first snapshot.
    Recon1,
    /// Have one snapshot; diff on the next request.
    Recon2(Snapshot),
    /// Know ctr/max and the unknown-position set; LOAD opcode sprayed.
    DisambA {
        ctr: i64,
        max: i64,
        unknown: [i64; 3],
    },
    /// Know acc; the two remaining get distinct opcodes.
    DisambB {
        ctr: i64,
        max: i64,
        acc: i64,
        q: [i64; 2],
    },
    /// Full layout known; running the script.
    Script {
        ctr: i64,
        max: i64,
        op: i64,
        operand: i64,
        acc: i64,
        step: usize,
    },
    /// Stealthy give-up.
    Aborted,
}

/// Read-modify-write payload over `[buff, buff+span)`.
fn rmw(mem: &Memory, buff: u64, span: usize) -> Option<Vec<u8>> {
    mem.read(buff, span as u64).ok().map(|b| b.to_vec())
}

fn put(payload: &mut [u8], off: i64, v: i64) {
    let at = off as usize;
    payload[at..at + 8].copy_from_slice(&v.to_le_bytes());
}

impl Attack for AdaptiveAttack {
    fn name(&self) -> &str {
        "adaptive-same-invocation"
    }

    fn source(&self) -> &str {
        SOURCE
    }

    fn attempt(&self, build: &Build, run_seed: u64) -> AttackOutcome {
        use std::cell::RefCell;
        use std::rc::Rc;

        let report = build.deployment.smokestack.clone();
        // Static (non-Smokestack) builds need no adaptivity: one probe
        // of a prior run reveals everything, including which zero-slot
        // is which (the trace is labeled).
        let probed: Option<(i64, i64, i64, i64, i64)> = if report.is_none() {
            let intel = probe(build, run_seed ^ 0xd1c, (0..12).map(|_| vec![]).collect());
            (|| {
                Some((
                    intel.offset_between("session", "buff", "ctr")?,
                    intel.offset_between("session", "buff", "max")?,
                    intel.offset_between("session", "buff", "op")?,
                    intel.offset_between("session", "buff", "operand")?,
                    intel.offset_between("session", "buff", "acc")?,
                ))
            })()
        } else {
            None
        };

        let phase = Rc::new(RefCell::new(match probed {
            Some((ctr, max, op, operand, acc)) => Phase::Script {
                ctr,
                max,
                op,
                operand,
                acc,
                step: 0,
            },
            None => Phase::Recon1,
        }));
        let phase_c = phase.clone();
        let committed = CommitFlag::new();
        let committed_c = committed.clone();

        let reachable = |offs: &[i64]| offs.iter().all(|&d| (8..=504).contains(&d));

        let mut vm = build.vm(run_seed);
        let adversary = FnInput(move |mem: &mut Memory, req, _max| {
            if req == 0 {
                return MARKER.to_le_bytes().to_vec();
            }
            let Some(buff) = scan_stack(mem, MARKER, 2 << 20) else {
                return vec![];
            };
            let mut ph = phase_c.borrow_mut();
            let next: Vec<u8>;
            #[allow(unused_assignments)] // every arm either sets or early-returns
            let mut next_phase: Option<Phase> = None;
            match &*ph {
                Phase::Aborted => return vec![],
                Phase::Recon1 => {
                    next_phase = Some(Phase::Recon2(take_snapshot(mem, buff)));
                    next = MARKER.to_le_bytes().to_vec();
                }
                Phase::Recon2(earlier) => {
                    let now = take_snapshot(mem, buff);
                    let ctr_candidates = now.changed_by(earlier, 1);
                    let max_candidates: Vec<u64> = now
                        .words
                        .iter()
                        .enumerate()
                        .filter(|(_, &w)| w == 12)
                        .map(|(i, _)| now.base + 8 * i as u64)
                        .filter(|a| earlier.value_at(*a) == Some(12))
                        .collect();
                    let rep = report.as_ref().expect("smokestack build");
                    match passive_solve(rep, buff, &ctr_candidates, &max_candidates) {
                        Some((ctr, max, unknown))
                            if reachable(&[ctr, max]) && reachable(&unknown) =>
                        {
                            // Spray the LOAD opcode: whichever unknown
                            // slot is `op` fires `acc = target`.
                            let span = unknown
                                .iter()
                                .chain([ctr, max].iter())
                                .map(|&d| d + 8)
                                .max()
                                .unwrap() as usize;
                            let Some(mut payload) = rmw(mem, buff, span) else {
                                return vec![];
                            };
                            put(&mut payload, ctr, 1);
                            put(&mut payload, max, 12);
                            for &u in &unknown {
                                put(&mut payload, u, 4);
                            }
                            payload[..8].copy_from_slice(&MARKER.to_le_bytes());
                            committed_c.arm();
                            next = payload;
                            next_phase = Some(Phase::DisambA { ctr, max, unknown });
                        }
                        _ => {
                            next_phase = Some(Phase::Aborted);
                            next = vec![];
                        }
                    }
                }
                Phase::DisambA { ctr, max, unknown } => {
                    // One of the unknown slots now holds `target`.
                    let slab_rel = |d: i64| (buff as i64 + d) as u64;
                    let acc = unknown.iter().copied().find(|&d| {
                        mem.read_uint(slab_rel(d), 8).ok() == Some(TARGET_INITIAL as u64)
                    });
                    match acc {
                        Some(acc_off) => {
                            let q: Vec<i64> =
                                unknown.iter().copied().filter(|&d| d != acc_off).collect();
                            let span = unknown
                                .iter()
                                .chain([*ctr, *max].iter())
                                .map(|&d| d + 8)
                                .max()
                                .unwrap() as usize;
                            let Some(mut payload) = rmw(mem, buff, span) else {
                                return vec![];
                            };
                            put(&mut payload, *ctr, 1);
                            put(&mut payload, *max, 12);
                            // Distinct opcodes: if q[0] is op, acc += 2
                            // (ADD with operand q[1]=2); if q[1] is op,
                            // acc -= 1 (SUB with operand q[0]=1).
                            put(&mut payload, q[0], 1);
                            put(&mut payload, q[1], 2);
                            put(&mut payload, acc_off, TARGET_INITIAL);
                            payload[..8].copy_from_slice(&MARKER.to_le_bytes());
                            next = payload;
                            next_phase = Some(Phase::DisambB {
                                ctr: *ctr,
                                max: *max,
                                acc: acc_off,
                                q: [q[0], q[1]],
                            });
                        }
                        None => {
                            next_phase = Some(Phase::Aborted);
                            next = vec![];
                        }
                    }
                }
                Phase::DisambB { ctr, max, acc, q } => {
                    let acc_now = mem.read_uint((buff as i64 + acc) as u64, 8).unwrap_or(0) as i64;
                    let (op_off, operand_off) = if acc_now == TARGET_INITIAL + 2 {
                        (q[0], q[1])
                    } else if acc_now == TARGET_INITIAL - 1 {
                        (q[1], q[0])
                    } else {
                        *ph = Phase::Aborted;
                        return vec![];
                    };
                    // Restore acc to the clean target value and start
                    // the script.
                    let span = [*ctr, *max, op_off, operand_off, *acc]
                        .iter()
                        .map(|&d| d + 8)
                        .max()
                        .unwrap() as usize;
                    let Some(mut payload) = rmw(mem, buff, span) else {
                        return vec![];
                    };
                    let (op, operand) = SCRIPT[1];
                    put(&mut payload, *ctr, 1);
                    put(&mut payload, *max, 12);
                    put(&mut payload, op_off, op);
                    put(&mut payload, operand_off, operand);
                    put(&mut payload, *acc, TARGET_INITIAL);
                    payload[..8].copy_from_slice(&MARKER.to_le_bytes());
                    next = payload;
                    next_phase = Some(Phase::Script {
                        ctr: *ctr,
                        max: *max,
                        op: op_off,
                        operand: operand_off,
                        acc: *acc,
                        step: 2,
                    });
                }
                Phase::Script {
                    ctr,
                    max,
                    op,
                    operand,
                    acc,
                    step,
                } => {
                    if *step >= SCRIPT.len() {
                        return vec![];
                    }
                    let offs = [*ctr, *max, *op, *operand, *acc];
                    if !reachable(&offs) {
                        *ph = Phase::Aborted;
                        return vec![];
                    }
                    let span = offs.iter().map(|&d| d + 8).max().unwrap() as usize;
                    let Some(mut payload) = rmw(mem, buff, span) else {
                        return vec![];
                    };
                    let (opcode, arg) = SCRIPT[*step];
                    let last = *step + 1 == SCRIPT.len();
                    let acc_val = i64::from_le_bytes(
                        payload[*acc as usize..*acc as usize + 8]
                            .try_into()
                            .expect("in span"),
                    );
                    put(&mut payload, *ctr, if last { 11 } else { 1 });
                    put(&mut payload, *max, 12);
                    put(&mut payload, *op, opcode);
                    put(&mut payload, *operand, arg);
                    put(&mut payload, *acc, acc_val);
                    payload[..8].copy_from_slice(&MARKER.to_le_bytes());
                    committed_c.arm();
                    next = payload;
                    next_phase = Some(Phase::Script {
                        ctr: *ctr,
                        max: *max,
                        op: *op,
                        operand: *operand,
                        acc: *acc,
                        step: step + 1,
                    });
                }
            }
            if let Some(p) = next_phase {
                *ph = p;
            }
            next
        });
        let out = vm.run_main(adversary);
        let target = vm.mem().read_uint(vm.global_addr("target"), 8).unwrap_or(0) as i64;
        conclude(
            &out,
            &committed,
            target == EXPECTED,
            "same-invocation derandomization",
        )
        .into_outcome()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seeded_trial;
    use smokestack_defenses::DefenseKind;
    use smokestack_srng::SchemeKind;

    #[test]
    fn no_noisy_failures() {
        // Across campaigns the attack either succeeds or aborts
        // (ambiguity / unreachable layout) — never crashes or trips the
        // guard, because its writes stay surgical and intra-slab.
        for seed in 0..6 {
            let out = seeded_trial(
                &AdaptiveAttack,
                DefenseKind::Smokestack(SchemeKind::Aes1),
                100 + seed,
                0,
            );
            assert!(
                !matches!(out, AttackOutcome::Crashed(_) | AttackOutcome::Detected(_)),
                "{out}"
            );
        }
    }
}
