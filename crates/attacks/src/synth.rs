//! Synthesized attacks: the runtime half of the STEROIDS loop.
//!
//! The analyzer's [`smokestack_analyzer::synth`] planner turns a
//! gadget-chain report plus a goal into symbolic [`PayloadPlan`]s; this
//! module compiles each plan into a live [`Attack`]: it resolves the
//! plan's slot names against a disclosed baseline layout (a probe of a
//! prior run — the same recon model every handwritten attack uses),
//! derives the overflow request protocol from the entry's mechanic, and
//! verifies the goal against the victim VM after the run.
//!
//! Against Smokestack builds the probe discloses nothing (replaced
//! allocas are never recorded), so the adapter falls back to the
//! unprotected build's layout — its only static knowledge — and the
//! randomized frame then mismatches the schedule, exactly like the
//! handwritten case studies.
//!
//! [`catalog`] instantiates the standard synthesized population: one
//! leak payload per real-CVE target plus value-parameterized flip and
//! redirect families, all discovered from chain reports rather than
//! written by hand.

use std::sync::OnceLock;

use smokestack_analyzer::chain::ChainReport;
use smokestack_analyzer::synth::{synthesize, Goal, GoalCheck, PayloadPlan, SymValue};
use smokestack_analyzer::Mechanic;
use smokestack_ir::{Callee, GlobalInit, Inst, Intrinsic, Module, Value};
use smokestack_vm::{FnInput, Memory};

use crate::intel::{Knowledge, Slot};
use crate::{conclude, Attack, AttackOutcome, Build, CommitFlag};

/// Boxed adversarial input source: answers each `get_input` request
/// from the victim with the next protocol step.
type Adversary = Box<dyn FnMut(&mut Memory, u64, u64) -> Vec<u8>>;

/// The chain-corpus victim program (also golden-tested in
/// `tests/analyzer.rs`): a lifted overflow entry reaching an
/// accumulate gadget across one call edge.
pub const CHAINS_SOURCE: &str = include_str!("../../../examples/minic/chains.mc");

/// One synthesized payload, adapted to the [`Attack`] interface so it
/// slots into campaigns exactly like a handwritten case study.
#[derive(Debug, Clone)]
pub struct SynthesizedAttack {
    name: String,
    source: &'static str,
    plan: PayloadPlan,
    /// `(prefix, suffix)` byte counts of the cursor-jump format string
    /// (e.g. `"DNSname: %s; "` = `(9, 2)`); `None` for sweeps.
    cursor_pad: Option<(usize, usize)>,
}

/// One write with its runtime placement resolved: `(delta from the
/// entry slot, width, value bytes)`.
struct ResolvedWrite {
    delta: i64,
    width: u64,
    value: u64,
}

impl SynthesizedAttack {
    /// Wrap `plan` (synthesized for `source`) as a runnable attack.
    pub fn new(name: String, source: &'static str, plan: PayloadPlan) -> SynthesizedAttack {
        let cursor_pad = if plan.mechanic == Mechanic::CursorJump {
            let m = smokestack_minic::compile(source).expect("synth source compiles");
            cursor_format(&m, &plan.entry_func)
        } else {
            None
        };
        SynthesizedAttack {
            name,
            source,
            plan,
            cursor_pad,
        }
    }

    /// The plan this attack executes.
    pub fn plan(&self) -> &PayloadPlan {
        &self.plan
    }

    /// Resolve every planned write to an entry-relative delta, using a
    /// probe of `build` when it discloses the entry slot, otherwise the
    /// unprotected twin (the attacker's only static knowledge).
    fn resolve(&self, build: &Build, run_seed: u64) -> Option<Vec<ResolvedWrite>> {
        let entry: Slot = (&self.plan.entry_func, &self.plan.entry_slot);
        let mut knowledge =
            Knowledge::probed_or_twin(build, self.source, run_seed ^ 0x53ED, &[], &[entry]);
        let slots: Vec<Slot> = self
            .plan
            .writes
            .iter()
            .map(|w| (&*w.func, &*w.slot))
            .collect();
        let deltas = knowledge.deltas(None, 0, entry, &slots)?;
        let mut out = Vec::new();
        for (w, d) in self.plan.writes.iter().zip(deltas) {
            let delta = d + w.offset;
            if delta <= 0 || delta > (1 << 16) {
                return None; // not reachable by an upward overflow
            }
            let value = match &w.value {
                SymValue::Int(v) => *v as u64,
                SymValue::GlobalAddr(g) => build.global_addr(g),
            };
            out.push(ResolvedWrite {
                delta,
                width: w.width,
                value,
            });
        }
        Some(out)
    }

    /// Whether the finished run achieved the plan's goal.
    fn goal_met(&self, vm: &smokestack_vm::Vm, output: &str) -> bool {
        match &self.plan.check {
            GoalCheck::GlobalEquals { global, value } => vm
                .mem()
                .read_uint(vm.global_addr(global), 8)
                .is_ok_and(|v| v == *value as u64),
            GoalCheck::GlobalAtLeast { global, value } => vm
                .mem()
                .read_uint(vm.global_addr(global), 8)
                .is_ok_and(|v| v >= *value as u64),
            GoalCheck::OutputContainsGlobal { global } => {
                let addr = vm.global_addr(global);
                let Ok(bytes) = vm.mem().read(addr, 64) else {
                    return false;
                };
                let secret: Vec<u8> = bytes.iter().copied().take_while(|&b| b != 0).collect();
                if secret.len() < 4 {
                    return false; // too short to be meaningful evidence
                }
                match std::str::from_utf8(&secret) {
                    Ok(s) => output.contains(s),
                    Err(_) => false,
                }
            }
        }
    }
}

/// Stamp `writes` into a zero-filled byte window starting at `lo`.
fn stamp(writes: &[ResolvedWrite], lo: i64, len: usize) -> Vec<u8> {
    let mut bytes = vec![0u8; len];
    for w in writes {
        let at = (w.delta - lo) as usize;
        let width = w.width as usize;
        if at + width <= len {
            bytes[at..at + width].copy_from_slice(&w.value.to_le_bytes()[..width]);
        }
    }
    bytes
}

impl Attack for SynthesizedAttack {
    fn name(&self) -> &str {
        &self.name
    }

    fn source(&self) -> &str {
        self.source
    }

    fn attempt(&self, build: &Build, run_seed: u64) -> AttackOutcome {
        let Some(writes) = self.resolve(build, run_seed) else {
            return AttackOutcome::Aborted; // unusable static layout
        };
        let committed = CommitFlag::new();
        let committed_c = committed.clone();
        let mut vm = build.vm(run_seed);

        let adversary: Adversary = match self.plan.mechanic {
            Mechanic::CursorJump => {
                // Non-linear entry (librelp shape): one oversized field
                // advances the cursor without writing, the next lands
                // the window bytes at the chosen distance.
                let Some((prefix, suffix)) = self.cursor_pad else {
                    return AttackOutcome::Aborted;
                };
                let lo = writes.iter().map(|w| w.delta).min().unwrap_or(0);
                let hi = writes
                    .iter()
                    .map(|w| w.delta + w.width as i64)
                    .max()
                    .unwrap_or(0);
                // After request 0 (n filler bytes) the cursor sits at
                // n + prefix + suffix; request 1's payload lands
                // another prefix further in.
                let filler = lo - 2 * prefix as i64 - suffix as i64;
                if filler <= 0 {
                    return AttackOutcome::Aborted;
                }
                let window = stamp(&writes, lo, (hi - lo) as usize);
                Box::new(move |_mem, req, _max| match req {
                    0 => vec![b'A'; filler as usize],
                    1 => {
                        committed_c.arm();
                        window.clone()
                    }
                    _ => vec![],
                })
            }
            Mechanic::LinearSweep if self.plan.feed.is_some() || self.plan.lifted => {
                // Length-header protocol: even requests feed the
                // declared length, odd requests carry the sweep.
                let span = writes
                    .iter()
                    .map(|w| w.delta + w.width as i64)
                    .max()
                    .unwrap_or(0) as usize;
                let payload = stamp(&writes, 0, span);
                Box::new(move |_mem, req, _max| {
                    if committed_c.is_armed() {
                        return vec![];
                    }
                    if req % 2 == 0 {
                        (payload.len() as u64).to_le_bytes().to_vec()
                    } else {
                        committed_c.arm();
                        payload.clone()
                    }
                })
            }
            Mechanic::LinearSweep => {
                // Constant over-capacity read: a single oversized
                // payload on the first request.
                let span = writes
                    .iter()
                    .map(|w| w.delta + w.width as i64)
                    .max()
                    .unwrap_or(0) as usize;
                let payload = stamp(&writes, 0, span);
                Box::new(move |_mem, _req, _max| {
                    if committed_c.is_armed() {
                        return vec![];
                    }
                    committed_c.arm();
                    payload.clone()
                })
            }
        };

        let out = vm.run_main(FnInput(adversary));
        let goal_met = self.goal_met(&vm, &out.output_text());
        conclude(&out, &committed, goal_met, &self.plan.goal).into_outcome()
    }
}

/// `(prefix, suffix)` byte counts around `%s` in the first
/// `snprintf_cat` format string of `func` — what the cursor-jump
/// protocol must subtract when placing its landing site.
fn cursor_format(m: &Module, func: &str) -> Option<(usize, usize)> {
    let f = m.func(m.func_by_name(func)?);
    for (_, b) in f.iter_blocks() {
        for inst in &b.insts {
            let Inst::Call {
                callee: Callee::Intrinsic(Intrinsic::SnprintfCat),
                args,
                ..
            } = inst
            else {
                continue;
            };
            let Some(Value::Global(g)) = args.get(2) else {
                continue;
            };
            let GlobalInit::Bytes(bytes) = &m.global(*g).init else {
                continue;
            };
            let fmt: Vec<u8> = bytes.iter().copied().take_while(|&b| b != 0).collect();
            let s = std::str::from_utf8(&fmt).ok()?;
            let at = s.find("%s")?;
            return Some((at, s.len() - at - 2));
        }
    }
    None
}

/// The standard synthesized-attack population: leak payloads for the
/// librelp and ProFTPD analogs plus value-parameterized flip/redirect
/// families over the Wireshark, RIPE-indirect and chain-corpus targets.
/// Deterministic (plans and names are stable across processes).
pub fn catalog() -> &'static [SynthesizedAttack] {
    static CATALOG: OnceLock<Vec<SynthesizedAttack>> = OnceLock::new();
    CATALOG.get_or_init(build_catalog)
}

/// Look up a synthesized attack by its `synth-` report-row name.
pub fn by_name(name: &str) -> Option<SynthesizedAttack> {
    catalog().iter().find(|a| a.name == name).cloned()
}

fn build_catalog() -> Vec<SynthesizedAttack> {
    let mut out = Vec::new();
    let mut add = |label: &str, source: &'static str, goals: &[Goal]| {
        let m = smokestack_minic::compile(source).expect("synth target compiles");
        let report = ChainReport::analyze(&m);
        let mut n = 0;
        for goal in goals {
            for plan in synthesize(&m, &report, goal) {
                out.push(SynthesizedAttack::new(
                    format!("synth-{label}-{n:02}"),
                    source,
                    plan,
                ));
                n += 1;
            }
        }
    };
    add(
        "librelp",
        crate::librelp::SOURCE,
        &[Goal::Leak {
            global: "private_key".into(),
        }],
    );
    add(
        "proftpd",
        crate::proftpd::SOURCE,
        &[Goal::Leak {
            global: "secret_key".into(),
        }],
    );
    let flips: Vec<Goal> = [1, 2, 5, 13, 99, 777, 4242, 31337]
        .into_iter()
        .map(|value| Goal::Flip {
            global: "bot_commands".into(),
            value,
            accumulate: true,
        })
        .collect();
    add("wireshark", crate::wireshark::SOURCE, &flips);
    let redirects: Vec<Goal> = [1, 7, 42, 99, 777, 4242, 31337, 123456789]
        .into_iter()
        .map(|value| Goal::Redirect {
            func: "handle".into(),
            slot: "p".into(),
            global: "granted".into(),
            value,
        })
        .collect();
    add("indirect", crate::synthetic::INDIRECT_STACK_SRC, &redirects);
    let chain_flips: Vec<Goal> = [1, 3, 9, 27, 81, 243, 729, 2187]
        .into_iter()
        .map(|value| Goal::Flip {
            global: "g_total".into(),
            value,
            accumulate: true,
        })
        .collect();
    add("chains", CHAINS_SOURCE, &chain_flips);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use smokestack_defenses::DefenseKind;
    use smokestack_srng::SchemeKind;

    #[test]
    fn catalog_is_populated_and_named() {
        let cat = catalog();
        assert!(cat.len() >= 25, "only {} synthesized attacks", cat.len());
        for label in ["librelp", "proftpd", "wireshark", "indirect", "chains"] {
            assert!(
                cat.iter().any(|a| a.name.contains(label)),
                "no synthesized attack for {label}"
            );
        }
        let names: std::collections::HashSet<&str> = cat.iter().map(|a| a.name.as_str()).collect();
        assert_eq!(names.len(), cat.len(), "duplicate attack names");
        assert!(by_name(cat[0].name()).is_some());
    }

    #[test]
    fn leak_payloads_validate_against_baseline() {
        for label in ["librelp", "proftpd"] {
            let a = catalog()
                .iter()
                .find(|a| a.name.contains(label))
                .expect("leak attack");
            let build = Build::new(a.source(), DefenseKind::None, 7);
            let out = a.attempt(&build, 11);
            assert!(out.is_success(), "{}: {out}", a.name());
        }
    }

    #[test]
    fn flip_and_redirect_payloads_validate_against_baseline() {
        for label in ["wireshark", "indirect", "chains"] {
            let a = catalog()
                .iter()
                .find(|a| a.name.contains(label))
                .expect("attack");
            let build = Build::new(a.source(), DefenseKind::None, 3);
            let out = a.attempt(&build, 5);
            assert!(out.is_success(), "{}: {out}", a.name());
        }
    }

    #[test]
    fn smokestack_aes_stops_a_synthesized_sweep() {
        let a = catalog()
            .iter()
            .find(|a| a.name.contains("wireshark"))
            .expect("attack");
        let build = Build::new(a.source(), DefenseKind::Smokestack(SchemeKind::Aes10), 3);
        let out = a.attempt(&build, 5);
        assert!(!out.is_success(), "{}: {out}", a.name());
    }
}
