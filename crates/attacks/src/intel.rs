//! What the attacker knows: the threat model's three kinds of layout
//! knowledge (§III-B) as one type, [`Knowledge`], plus the live-memory
//! scan every attack uses to find its frames.
//!
//! The adversary knows the binary (the module and its public, read-only
//! P-BOX), can disclose the memory of *prior* runs of the same build, and
//! reads all writable memory of the exploited run at every input point.
//! From these it learns a frame's layout in exactly one of three ways:
//!
//! * [`Knowledge::Probed`]: a static layout disclosed by a probe of a
//!   prior run. When the defense hides the frame (Smokestack's replaced
//!   allocas are never disclosed), an attack that crafts its payload
//!   offline probes the build's [unprotected twin](Build::unprotected_twin)
//!   instead, its only static knowledge of the program.
//! * [`Knowledge::Predicted`]: under the insecure `pseudo` scheme, the
//!   P-BOX row of each live invocation, predicted from the PRNG state the
//!   scheme keeps in data memory.
//! * [`Knowledge::Guessed`]: under a secure scheme, one blind P-BOX row
//!   per function, drawn from the attempt's seed.
//!
//! Every query is answered per (function, invocation) as slot deltas by
//! name ([`Knowledge::deltas`]), so an attack states only its constants
//! (probe salt and input, guess salt, whether `pseudo` is predicted), its
//! usability test, and its payload. [`row_deltas`] answers for one P-BOX
//! row, so a payload can be replayed against every row of a table.

use smokestack_core::HardenReport;
use smokestack_defenses::DefenseKind;
use smokestack_rand::Rng;
use smokestack_srng::{SchemeKind, XorShift64};
use smokestack_vm::{layout, AllocaRecord, Memory, ScriptedInput, VmConfig};

use crate::Build;

/// One stack slot by source-level names: `(function, variable)`.
pub type Slot<'s> = (&'s str, &'s str);

/// The stack allocations a memory-disclosure probe observed in one run,
/// in allocation order.
#[derive(Debug, Clone)]
pub struct ProbeIntel {
    /// Every stack allocation observed, in allocation order.
    pub records: Vec<AllocaRecord>,
}

impl ProbeIntel {
    /// Address of `slot` in the first invocation of its function.
    pub fn addr_of(&self, (func, var): Slot) -> Option<u64> {
        self.records
            .iter()
            .find(|r| r.func == func && r.var == var)
            .map(|r| r.addr)
    }
}

/// P-BOX rows guessed so far in one attempt: one per function, drawn
/// from a single seeded stream in the order the functions are first
/// asked about.
#[derive(Debug, Clone)]
pub struct Guesses {
    rng: Rng,
    drawn: Vec<(String, u64)>,
}

impl Guesses {
    /// The guessed draw for `func`, drawing it on first request.
    fn draw(&mut self, func: &str) -> u64 {
        if let Some(&(_, d)) = self.drawn.iter().find(|(f, _)| f == func) {
            return d;
        }
        let d = self.rng.next_u64();
        self.drawn.push((func.to_string(), d));
        d
    }
}

/// What the attacker knows of the victim's frame layouts in one attempt.
/// The P-BOX variants borrow the build's hardening report for the
/// attempt.
#[derive(Debug, Clone)]
pub enum Knowledge<'b> {
    /// A static layout disclosed from a prior run of the build or of
    /// its unprotected twin.
    Probed(ProbeIntel),
    /// Live rows read back from the `pseudo` PRNG state in data memory.
    Predicted(&'b HardenReport),
    /// Blind rows, one per function.
    Guessed(&'b HardenReport, Guesses),
}

impl<'b> Knowledge<'b> {
    /// Disclose the layout of one run of `build` under `probe_seed`,
    /// reading `input`: the model of a read-primitive disclosure attack
    /// against a *previous* run of the same binary. On a build with a
    /// flight recorder the probe run is recorded like any other.
    pub fn probed(build: &Build, probe_seed: u64, input: &[Vec<u8>]) -> Knowledge<'b> {
        let cfg = VmConfig {
            record_allocas: true,
            ..build.vm_config(probe_seed)
        };
        let mut vm = build.executor().vm_with_config(cfg);
        let outcome = vm.run_main(ScriptedInput::new(input.to_vec()));
        Knowledge::Probed(ProbeIntel {
            records: outcome.alloca_trace,
        })
    }

    /// [`Knowledge::probed`] of `build`, or of its unprotected twin
    /// (compiled from `src`) when the probe leaves any of `needs`
    /// undisclosed because the defense hides it.
    pub fn probed_or_twin(
        build: &Build,
        src: &str,
        probe_seed: u64,
        input: &[Vec<u8>],
        needs: &[Slot],
    ) -> Knowledge<'b> {
        let own = Knowledge::probed(build, probe_seed, input);
        match &own {
            Knowledge::Probed(p) if needs.iter().all(|&s| p.addr_of(s).is_some()) => own,
            _ => Knowledge::probed(build.unprotected_twin(src), probe_seed, input),
        }
    }

    /// What the public P-BOX tells the attacker about a Smokestack
    /// build: predicted rows under `pseudo` when `predict_pseudo`, else
    /// rows guessed from `run_seed ^ guess_salt`. `None` when `build`
    /// is not a Smokestack build.
    pub fn pbox(
        build: &'b Build,
        run_seed: u64,
        guess_salt: u64,
        predict_pseudo: bool,
    ) -> Option<Knowledge<'b>> {
        let report = build.deployment.smokestack.as_ref()?;
        Some(
            if predict_pseudo && build.defense == DefenseKind::Smokestack(SchemeKind::Pseudo) {
                Knowledge::Predicted(report)
            } else {
                Knowledge::Guessed(
                    report,
                    Guesses {
                        rng: Rng::seed_from_u64(run_seed ^ guess_salt),
                        drawn: Vec::new(),
                    },
                )
            },
        )
    }

    /// Signed offsets `slot - anchor` of each of `slots`, or `None` when
    /// the knowledge does not cover one of them.
    ///
    /// `live` is the victim's memory at an input point, or `None` before
    /// the run, when nothing can be predicted yet. `back` names the live
    /// invocation a prediction is for: the frame whose layout the
    /// `back`-th most recent draw chose (0 is the newest, the innermost
    /// randomized frame). A static layout is the same at every
    /// invocation and a guess is one row per function, so the other
    /// variants ignore it. A P-BOX row fixes offsets within one frame
    /// only, so the P-BOX variants answer only when every slot lies in
    /// the anchor's function.
    pub fn deltas(
        &mut self,
        live: Option<&Memory>,
        back: u32,
        anchor: Slot,
        slots: &[Slot],
    ) -> Option<Vec<i64>> {
        let (func, from) = anchor;
        let (report, draw) = match self {
            Knowledge::Probed(p) => {
                let base = p.addr_of(anchor)? as i64;
                return slots
                    .iter()
                    .map(|&s| Some(p.addr_of(s)? as i64 - base))
                    .collect();
            }
            Knowledge::Predicted(report) => {
                let mut state = live?.read_uint(layout::DATA_BASE, 8).ok()?;
                for _ in 0..back {
                    state = XorShift64::unstep(state);
                }
                (*report, XorShift64::output_of_state(state))
            }
            Knowledge::Guessed(report, guesses) => (*report, guesses.draw(func)),
        };
        let names: Option<Vec<&str>> = slots
            .iter()
            .map(|&(f, var)| (f == func).then_some(var))
            .collect();
        row_deltas(report, func, draw, from, &names?)
    }

    /// The pre-commit test that keeps an attack stealthy: whether a
    /// layout known before the run (a disclosed or a guessed one) already
    /// fails `usable`. A prediction waits for the run, so it rules
    /// nothing out here.
    pub fn rules_out(
        &mut self,
        anchor: Slot,
        slots: &[Slot],
        usable: impl Fn(&[i64]) -> bool,
    ) -> bool {
        !matches!(self, Knowledge::Predicted(_))
            && !self
                .deltas(None, 0, anchor, slots)
                .is_some_and(|o| usable(&o))
    }
}

/// Offsets `slot - anchor` of each of `slots` in `func`'s frame when its
/// invocation made layout draw `draw`: read from the public P-BOX row
/// the draw selects. `None` when `func` is not randomized or has no slot
/// of one of the names.
pub fn row_deltas(
    report: &HardenReport,
    func: &str,
    draw: u64,
    anchor: &str,
    slots: &[&str],
) -> Option<Vec<i64>> {
    let p = report.placements.get(func)?;
    let row = &report.pbox.tables[p.table].rows[(draw & p.mask) as usize];
    let offset = |name: &str| {
        let slot = p.slot_names.iter().position(|n| n == name)?;
        Some(row.offsets[p.columns[slot]] as i64)
    };
    let base = offset(anchor)?;
    slots.iter().map(|s| Some(offset(s)? - base)).collect()
}

/// Scan the live stack (top `span` bytes) for an 8-byte marker the
/// attacker previously injected; returns its address. This is how the
/// adversary re-locates its buffer when ASLR moves the stack.
pub fn scan_stack(mem: &Memory, marker: u64, span: u64) -> Option<u64> {
    let top = layout::STACK_TOP;
    let mut addr = top - 8;
    let stop = top.saturating_sub(span);
    while addr >= stop {
        if let Ok(v) = mem.read_uint(addr, 8) {
            if v == marker {
                return Some(addr);
            }
        }
        addr -= 8;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use smokestack_vm::{FnInput, OutputEvent, RunOutcome};
    use std::cell::RefCell;
    use std::rc::Rc;

    const SRC: &str = r#"
        int victim() {
            long a = 11;
            char buf[32];
            long c = 22;
            get_input(buf, 32);
            print_int(&a);
            print_int(buf);
            return a + c;
        }
        int outer() {
            long x = 1;
            char pad[16];
            long y = 2;
            pad[0] = 3;
            print_int(&x);
            print_int(&y);
            return victim() + victim() + x + y;
        }
        int main() { return outer(); }
    "#;

    const A: Slot = ("victim", "a");
    const BUF: Slot = ("victim", "buf");
    const X: Slot = ("outer", "x");
    const Y: Slot = ("outer", "y");

    /// Printed integers as address pairs: `(x, y)` of `outer`, then
    /// `(a, buf)` per `victim` invocation.
    fn printed_pairs(out: &RunOutcome) -> Vec<(i64, i64)> {
        let ints: Vec<i64> = out
            .output
            .iter()
            .filter_map(|e| match e {
                OutputEvent::Int(v) => Some(*v),
                _ => None,
            })
            .collect();
        ints.chunks(2).map(|c| (c[0], c[1])).collect()
    }

    fn probe_of(build: &Build, seed: u64) -> ProbeIntel {
        match Knowledge::probed(build, seed, &[vec![], vec![]]) {
            Knowledge::Probed(p) => p,
            _ => unreachable!(),
        }
    }

    #[test]
    fn probe_extracts_layout() {
        let build = Build::new(SRC, DefenseKind::None, 1);
        let intel = probe_of(&build, 5);
        let a = intel.addr_of(A).unwrap();
        let buf = intel.addr_of(BUF).unwrap();
        assert!(a > buf, "a allocated before buf, so higher on the stack");
        let mut k = Knowledge::Probed(intel.clone());
        assert_eq!(
            k.deltas(None, 0, BUF, &[A]),
            Some(vec![a as i64 - buf as i64])
        );
        // Two invocations of victim recorded.
        let bufs = intel
            .records
            .iter()
            .filter(|r| r.func == "victim" && r.var == "buf");
        assert_eq!(bufs.count(), 2);
        // A probe discloses every frame, so cross-frame deltas resolve.
        assert!(k.deltas(None, 0, BUF, &[X]).is_some());
    }

    #[test]
    fn baseline_layout_stable_across_runs() {
        let build = Build::new(SRC, DefenseKind::None, 1);
        assert_eq!(
            probe_of(&build, 5).addr_of(A),
            probe_of(&build, 99).addr_of(A),
            "unprotected layout must be deterministic"
        );
    }

    #[test]
    fn smokestack_layout_varies_across_invocations() {
        let build = Build::new(SRC, DefenseKind::Smokestack(SchemeKind::Aes10), 1);
        // The a/buf distance differs between the two victim()
        // invocations for at least one of a handful of seeds.
        let varied = (0..10).any(|seed| {
            let mut vm = build.vm(seed);
            let out = vm.run_main(ScriptedInput::new(vec![vec![], vec![]]));
            let pairs = printed_pairs(&out);
            pairs[1].0 - pairs[1].1 != pairs[2].0 - pairs[2].1
        });
        assert!(varied, "per-invocation randomization not observed");
    }

    #[test]
    fn scan_finds_marker() {
        let build = Build::new(SRC, DefenseKind::StackBase, 1);
        let marker = 0xdeadbeefcafef00du64;
        let mut vm = build.vm(3);
        let mut found = 0;
        vm.run_main(FnInput(|mem: &mut Memory, i, _max| {
            if i == 0 {
                return marker.to_le_bytes().to_vec();
            }
            if let Some(addr) = scan_stack(mem, marker, 4 << 20) {
                found = addr;
            }
            vec![]
        }));
        assert_ne!(found, 0, "marker not found on stack");
    }

    /// The three variants against the layouts a run actually used.
    #[test]
    fn knowledge_variants_answer_per_function_and_invocation() {
        // Guessed: exactly the rows the salted stream draws, one per
        // function, in first-request order.
        let build = Build::new(SRC, DefenseKind::Smokestack(SchemeKind::Aes10), 1);
        let report = build.deployment.smokestack.as_ref().unwrap();
        let (run_seed, salt) = (77, 0x6355);
        let mut k = Knowledge::pbox(&build, run_seed, salt, true).unwrap();
        assert!(matches!(k, Knowledge::Guessed(..)), "AES-10 is guessed");
        let mut rng = Rng::seed_from_u64(run_seed ^ salt);
        let (first, second) = (rng.next_u64(), rng.next_u64());
        let victim = k.deltas(None, 0, BUF, &[A]);
        assert_eq!(victim, row_deltas(report, "victim", first, "buf", &["a"]));
        assert_eq!(
            k.deltas(None, 3, X, &[Y]),
            row_deltas(report, "outer", second, "x", &["y"])
        );
        assert_eq!(k.deltas(None, 1, BUF, &[A]), victim, "one row per function");
        assert_eq!(k.deltas(None, 0, BUF, &[X]), None, "rows are per frame");

        // Predicted: the live row of each invocation, and of its caller.
        let build = Build::new(SRC, DefenseKind::Smokestack(SchemeKind::Pseudo), 1);
        let mut k = Knowledge::pbox(&build, run_seed, salt, true).unwrap();
        assert!(matches!(k, Knowledge::Predicted(_)));
        assert_eq!(k.deltas(None, 0, BUF, &[A]), None, "nothing before the run");
        let predicted = Rc::new(RefCell::new(Vec::new()));
        let mut vm = build.vm(7);
        let sink = predicted.clone();
        let out = vm.run_main(FnInput(move |mem: &mut Memory, i, _max| {
            let victim = k.deltas(Some(mem), 0, BUF, &[A]).unwrap()[0];
            // At the first input, one draw back is outer's invocation.
            let caller = (i == 0).then(|| k.deltas(Some(mem), 1, X, &[Y]).unwrap()[0]);
            sink.borrow_mut().push((victim, caller));
            vec![]
        }));
        let pairs = printed_pairs(&out);
        let predicted = predicted.borrow();
        assert_eq!(predicted.len(), 2);
        assert_eq!(predicted[0].1, Some(pairs[0].1 - pairs[0].0));
        for (inv, &(a, buf)) in pairs[1..].iter().enumerate() {
            assert_eq!(predicted[inv].0, a - buf, "invocation {inv} mispredicted");
        }

        // Probed: a Smokestack build hides the frame, so the probe falls
        // back to the unprotected twin's layout.
        let build = Build::new(SRC, DefenseKind::Smokestack(SchemeKind::Aes10), 4);
        assert_eq!(probe_of(&build, 5).addr_of(BUF), None, "hidden frame");
        let twin = Build::new(SRC, DefenseKind::None, 4);
        let mut k = Knowledge::probed_or_twin(&build, SRC, 5, &[vec![], vec![]], &[BUF]);
        let mut expected = Knowledge::probed(&twin, 5, &[vec![], vec![]]);
        assert!(k.deltas(None, 0, BUF, &[A, X]).is_some());
        assert_eq!(
            k.deltas(None, 0, BUF, &[A, X]),
            expected.deltas(None, 0, BUF, &[A, X])
        );
    }
}
