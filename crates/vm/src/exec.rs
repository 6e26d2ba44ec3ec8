//! The interpreter: executes IR over the flat memory with cycle
//! accounting.

use std::collections::HashMap;
use std::sync::Arc;

#[cfg(test)]
use smokestack_ir::Type;
use smokestack_ir::{
    BinOp, BlockId, Callee, CastKind, CmpPred, FuncId, Function, Inst, IntWidth, Intrinsic, Module,
    RegId, Terminator, Value,
};
use smokestack_srng::{build_source, RandomSource, SchemeKind, SeededTrng, XorShift64};
use smokestack_telemetry::{CycleCategory, Event, GuardKind, SharedRecorder};

use crate::bytecode::{classify_slabs, layout_globals, CompiledModule, ExecBackend, GlobalLayout};
use crate::cycles::{CostModel, CycleBreakdown};
use crate::io::{InputSource, OutputEvent};
use crate::mem::{layout, MemConfig, MemFault, Memory};

/// Why a run stopped abnormally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultKind {
    /// Memory access outside every segment or a write to rodata — the
    /// simulated SIGSEGV.
    Mem(MemFault),
    /// Stack segment exhausted (or unpayable VLA size).
    StackOverflow,
    /// Integer division by zero.
    DivByZero,
    /// Instruction budget exhausted (runaway loop).
    OutOfFuel,
    /// Indirect call through a value that is not a function address.
    BadIndirectCall(u64),
    /// A Smokestack function-identifier check failed (§III-D.2).
    GuardViolation {
        /// Function whose epilogue check fired.
        func: String,
    },
    /// A stack canary check failed (baseline defense).
    CanarySmashed {
        /// Function whose canary check fired.
        func: String,
    },
    /// An `unreachable` terminator was executed.
    UnreachableExecuted,
    /// The race detector observed two unsynchronized conflicting
    /// accesses to the same word (the address is the later access).
    DataRace {
        /// Address of the racing access.
        addr: u64,
    },
    /// Every thread is blocked (joins or mutexes that can never
    /// resolve) — the scheduler has nothing to run.
    Deadlock,
}

impl FaultKind {
    /// The incident-report view of this fault: the description plus,
    /// for memory faults, the raw access and its segment locus.
    pub fn fault_access(&self) -> smokestack_telemetry::FaultAccess {
        let mut fa = smokestack_telemetry::FaultAccess {
            what: self.to_string(),
            ..Default::default()
        };
        if let FaultKind::Mem(m) = self {
            fa.addr = Some(m.addr);
            fa.len = Some(m.len);
            fa.write = Some(m.write);
            let (segment, offset) = match m.locus {
                crate::mem::FaultLocus::Within { segment, offset } => (segment.to_string(), offset),
                crate::mem::FaultLocus::PastEnd { segment, by } => {
                    (format!("past-end:{segment}"), by)
                }
                crate::mem::FaultLocus::Below { segment, by } => (format!("below:{segment}"), by),
            };
            fa.segment = Some(segment);
            fa.offset = Some(offset);
        }
        fa
    }
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultKind::Mem(m) => write!(f, "memory fault: {m}"),
            FaultKind::StackOverflow => write!(f, "stack overflow"),
            FaultKind::DivByZero => write!(f, "division by zero"),
            FaultKind::OutOfFuel => write!(f, "out of fuel"),
            FaultKind::BadIndirectCall(a) => write!(f, "bad indirect call to {a:#x}"),
            FaultKind::GuardViolation { func } => {
                write!(f, "smokestack guard violation in `{func}`")
            }
            FaultKind::CanarySmashed { func } => write!(f, "stack canary smashed in `{func}`"),
            FaultKind::UnreachableExecuted => write!(f, "unreachable executed"),
            FaultKind::DataRace { addr } => write!(f, "data race at {addr:#x}"),
            FaultKind::Deadlock => write!(f, "deadlock: no runnable thread"),
        }
    }
}

/// How a run ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Exit {
    /// The entry function returned this value.
    Return(u64),
    /// The entry function (of void return type) returned.
    ReturnVoid,
    /// The program called `exit(code)`.
    Exited(i64),
    /// The program crashed or a defense fired.
    Fault(FaultKind),
}

impl Exit {
    /// Whether the program terminated without a fault.
    pub fn is_clean(&self) -> bool {
        !matches!(self, Exit::Fault(_))
    }

    /// Whether a *defense* (guard or canary) terminated the program.
    pub fn is_defense_detection(&self) -> bool {
        matches!(
            self,
            Exit::Fault(FaultKind::GuardViolation { .. })
                | Exit::Fault(FaultKind::CanarySmashed { .. })
        )
    }
}

/// One recorded stack allocation (enabled by
/// [`VmConfig::record_allocas`]); used by analyses and by attack code as
/// the product of a memory-disclosure probe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllocaRecord {
    /// Function name.
    pub func: String,
    /// Source-level variable name.
    pub var: String,
    /// Address handed to the program.
    pub addr: u64,
    /// Size in bytes.
    pub size: u64,
    /// Call-depth at allocation time.
    pub depth: usize,
}

/// Everything observable about a finished run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// How the program ended.
    pub exit: Exit,
    /// Simulated time in cost units ([`crate::cycles::DECI`] per cycle).
    pub decicycles: u64,
    /// Instructions executed.
    pub insts: u64,
    /// Program output events in order.
    pub output: Vec<OutputEvent>,
    /// Peak resident set (bytes) — the `ru_maxrss` analog.
    pub peak_rss: u64,
    /// Deepest call stack reached.
    pub max_call_depth: usize,
    /// Number of `stack_rng` draws (one per hardened invocation).
    pub rng_invocations: u64,
    /// Where the cycles went — the OProfile-style breakdown (§V-A).
    pub breakdown: CycleBreakdown,
    /// Recorded allocations, if enabled.
    pub alloca_trace: Vec<AllocaRecord>,
    /// FNV digest over every scheduling decision of the run: 0 when the
    /// program never used the scheduler, otherwise a replayable
    /// fingerprint of the interleaving (same `sched_seed` ⇒ same
    /// digest on both backends).
    pub sched_digest: u64,
}

impl RunOutcome {
    /// Simulated cycles as the paper reports them.
    pub fn cycles(&self) -> f64 {
        self.decicycles as f64 / crate::cycles::DECI as f64
    }

    /// All output rendered as one string.
    pub fn output_text(&self) -> String {
        self.output.iter().map(|e| e.to_text()).collect()
    }
}

/// VM configuration.
pub struct VmConfig {
    /// Which Table I randomness scheme services `stack_rng`.
    pub scheme: SchemeKind,
    /// Seed for the simulated true-random source (keys, guard key,
    /// canary, defense randomness). Experiments vary this per trial.
    pub trng_seed: u64,
    /// Extra offset subtracted from the initial stack pointer (used by
    /// the stack-base-randomization baseline defense).
    pub stack_base_offset: u64,
    /// Instruction budget.
    pub fuel: u64,
    /// Memory sizes.
    pub mem: MemConfig,
    /// Cycle-cost parameters.
    pub cost: CostModel,
    /// Record every stack allocation (address/size/name).
    pub record_allocas: bool,
    /// Flight recorder fed with every telemetry event. `None` (the
    /// default) disables tracing entirely; every emit site in the VM is
    /// guarded by an is-some check so the disabled path costs nothing
    /// measurable.
    pub recorder: Option<SharedRecorder>,
    /// Execution engine. [`ExecBackend::Bytecode`] (the default) lowers
    /// the module to flat bytecode once and replays it; the tree-walking
    /// [`ExecBackend::Interp`] is retained as the semantic reference.
    /// Both produce bit-identical [`RunOutcome`]s.
    pub backend: ExecBackend,
    /// Seed for the deterministic thread scheduler's preemption-quantum
    /// draws: one seed fully determines the interleaving. Ignored by
    /// programs that never spawn.
    pub sched_seed: u64,
    /// Enable the (FastTrack-style) data-race detector: two
    /// unsynchronized conflicting plain accesses fault with
    /// [`FaultKind::DataRace`]. Off by default — detection roughly
    /// doubles per-access cost in threaded code.
    pub detect_races: bool,
}

impl Default for VmConfig {
    fn default() -> VmConfig {
        VmConfig {
            scheme: SchemeKind::Aes10,
            trng_seed: 0x5eed,
            stack_base_offset: 0,
            fuel: 200_000_000,
            mem: MemConfig::default(),
            cost: CostModel::default(),
            record_allocas: false,
            recorder: None,
            backend: ExecBackend::default(),
            sched_seed: 0,
            detect_races: false,
        }
    }
}

/// Recover the slab-prologue P-BOX draw from an instrumented
/// function's entry block: a `stack_rng` call whose result is masked
/// (`And` with a constant) and then scaled by the row size (`Mul`).
/// The `Mul` distinguishes the slab draw from VLA-pad draws, whose
/// masked result feeds an `alloca` count directly.
pub(crate) fn find_pbox_draw(f: &Function) -> Option<(RegId, u64)> {
    let entry = f.block(Function::ENTRY);
    let mut rng_reg: Option<RegId> = None;
    let mut masked: Option<(RegId, u64, RegId)> = None; // (rng, mask, and_result)
    for inst in &entry.insts {
        match inst {
            Inst::Call {
                result: Some(r),
                callee: Callee::Intrinsic(Intrinsic::StackRng),
                ..
            } => rng_reg = Some(*r),
            Inst::Bin {
                result,
                op: BinOp::And,
                lhs: Value::Reg(l),
                rhs: Value::ConstInt(m, _),
                ..
            } if Some(*l) == rng_reg => {
                masked = Some((rng_reg?, *m as u64, *result));
            }
            Inst::Bin {
                op: BinOp::Mul,
                lhs: Value::Reg(l),
                ..
            } => {
                if let Some((rng, mask, and_result)) = masked {
                    if *l == and_result {
                        return Some((rng, mask));
                    }
                }
            }
            _ => {}
        }
    }
    None
}

struct Frame {
    func: FuncId,
    regs: Vec<u64>,
    block: BlockId,
    idx: usize,
    entry_sp: u64,
    ret_reg: Option<RegId>,
    /// Lowest stack pointer this frame's allocas reached (frame size =
    /// `entry_sp - low_sp`).
    low_sp: u64,
    /// `guard_key` intrinsic calls in this frame (call #1 is the
    /// prologue store; each later call is an epilogue check).
    guard_calls: u32,
    /// `canary` intrinsic calls in this frame (same convention).
    canary_calls: u32,
}

/// The virtual machine: owns a loaded module image and executes it.
///
/// The module is held behind an [`Arc`], so spawning many VMs over the
/// same build (Monte-Carlo trial campaigns, per-worker VM pools) shares
/// one immutable image instead of deep-copying the IR per run; `Vm` only
/// ever reads the module. `Module` itself is `Send`, so a build can be
/// deployed once and fanned out across worker threads.
pub struct Vm {
    pub(crate) module: Arc<Module>,
    pub(crate) mem: Memory,
    pub(crate) cost: CostModel,
    pub(crate) scheme: SchemeKind,
    pub(crate) rng: Box<dyn RandomSource>,
    pub(crate) guard_key: u64,
    pub(crate) canary: u64,
    pub(crate) stack_base_offset: u64,
    pub(crate) fuel: u64,
    pub(crate) record_allocas: bool,
    /// The global layout (addresses + initializer blits), shared with
    /// the compiled image and retained so [`Vm::respawn`] can re-install
    /// the data image without touching the module or the compiled cache.
    pub(crate) globals: Arc<GlobalLayout>,
    pub(crate) slab_funcs: Vec<crate::cycles::SlabClass>,
    pub(crate) recorder: Option<SharedRecorder>,
    /// Per function: the `stack_rng` result register and P-BOX mask of
    /// the hardened slab prologue, recovered by prescan (None if the
    /// function is uninstrumented).
    pub(crate) pbox_draws: Vec<Option<(RegId, u64)>>,
    /// Which engine [`Vm::run_with`] dispatches to.
    pub(crate) backend: ExecBackend,
    /// Compiled image (present iff `backend` is bytecode).
    pub(crate) compiled: Option<Arc<CompiledModule>>,
    /// Reusable register file + call stack for the bytecode dispatcher.
    pub(crate) scratch: crate::dispatch::Scratch,
    // Heap allocator state.
    pub(crate) heap_next: u64,
    pub(crate) free_lists: HashMap<u64, Vec<u64>>,
    pub(crate) block_sizes: HashMap<u64, u64>,
    pub(crate) pending_exit: Option<i64>,
    // Run accounting.
    pub(crate) decicycles: u64,
    pub(crate) breakdown: CycleBreakdown,
    pub(crate) insts: u64,
    pub(crate) input_requests: u64,
    pub(crate) rng_invocations: u64,
    pub(crate) output: Vec<OutputEvent>,
    pub(crate) alloca_trace: Vec<AllocaRecord>,
    pub(crate) max_depth: usize,
    pub(crate) sp: u64,
    // Scheduler state (see `crate::sched`). `sched` is `None` until the
    // first concurrency intrinsic; `next_preempt` stays `u64::MAX` (the
    // compare never fires) for single-threaded programs.
    pub(crate) trng_seed: u64,
    pub(crate) sched_seed: u64,
    pub(crate) detect_races: bool,
    /// Lowest address the running thread's allocas may reach (the
    /// segment base for the main thread, the slab base for workers).
    pub(crate) stack_limit: u64,
    /// Instruction count at which the running thread's quantum expires.
    pub(crate) next_preempt: u64,
    /// Set by a blocking intrinsic: the current slice must rewind the
    /// call and yield.
    pub(crate) pending_block: bool,
    pub(crate) sched: Option<Box<crate::sched::SchedState>>,
}

impl Vm {
    /// The real constructor. `compiled` (if provided by an
    /// [`crate::Executor`]) must have been lowered from this exact
    /// module; it is revalidated against the config's cost model and
    /// recompiled through the process cache on mismatch.
    pub(crate) fn new_internal(
        module: Arc<Module>,
        cfg: VmConfig,
        compiled: Option<Arc<CompiledModule>>,
    ) -> Vm {
        let compiled = match cfg.backend {
            ExecBackend::Bytecode => Some(match compiled {
                Some(c)
                    if c.cost_fp == cfg.cost.fingerprint() && Arc::ptr_eq(&c.module, &module) =>
                {
                    c
                }
                _ => crate::bytecode::compiled_for(&module, &cfg.cost),
            }),
            ExecBackend::Interp => None,
        };

        let mut trng = SeededTrng::new(cfg.trng_seed);
        use smokestack_srng::TrueRandom;
        let guard_key = trng.next_u64();
        let canary = trng.next_u64() | 0xff; // never zero
        let pseudo_seed = trng.next_u64();
        let rng = build_source(cfg.scheme, trng);

        let mut mem = Memory::new(cfg.mem);
        // Lay out globals (shared with the bytecode image: the layout
        // depends only on the module, never on the config).
        let gl = match &compiled {
            Some(c) => Arc::clone(&c.globals),
            None => Arc::new(layout_globals(&module)),
        };
        // Rodata is the compiled module's shared image, mapped rather
        // than copied; only the data globals are blitted per VM.
        mem.map_rodata(Arc::clone(&gl.rodata));
        for (addr, bytes) in &gl.data_blits {
            mem.write_init(*addr, bytes).expect("global fits segment");
        }
        mem.set_rodata_used(gl.rodata_used);
        mem.set_data_used(gl.data_used);
        // First 8 bytes of data hold the memory-resident pseudo-PRNG state.
        mem.write_init(layout::DATA_BASE, &pseudo_seed.to_le_bytes())
            .expect("pseudo state slot");

        let slab_funcs = match &compiled {
            Some(c) => c.slab_classes.clone(),
            None => classify_slabs(&module, &cfg.cost),
        };
        let pbox_draws = match &compiled {
            Some(c) => c.pbox_draws.clone(),
            None => module.funcs.iter().map(find_pbox_draw).collect(),
        };

        if let Some(r) = &cfg.recorder {
            let names: Vec<String> = module.funcs.iter().map(|f| f.name.clone()).collect();
            r.on_functions(&names);
        }

        Vm {
            module,
            mem,
            cost: cfg.cost,
            scheme: cfg.scheme,
            rng,
            guard_key,
            canary,
            stack_base_offset: cfg.stack_base_offset,
            fuel: cfg.fuel,
            record_allocas: cfg.record_allocas,
            globals: gl,
            slab_funcs,
            recorder: cfg.recorder,
            pbox_draws,
            backend: cfg.backend,
            compiled,
            scratch: crate::dispatch::Scratch::default(),
            heap_next: 0,
            free_lists: HashMap::new(),
            block_sizes: HashMap::new(),
            pending_exit: None,
            decicycles: 0,
            breakdown: CycleBreakdown::default(),
            insts: 0,
            input_requests: 0,
            rng_invocations: 0,
            output: Vec::new(),
            alloca_trace: Vec::new(),
            max_depth: 0,
            sp: 0,
            trng_seed: cfg.trng_seed,
            sched_seed: cfg.sched_seed,
            detect_races: cfg.detect_races,
            stack_limit: 0,
            next_preempt: u64::MAX,
            pending_block: false,
            sched: None,
        }
    }

    /// Re-arm this VM for a fresh run under a new TRNG seed, reusing
    /// every allocation the previous runs paid for: the memory segments,
    /// the bytecode register file and call stack, the compiled image,
    /// and the precomputed slab/P-BOX tables. The cost follows the bytes
    /// a run can dirty: data, heap and stack are re-zeroed over their
    /// dirty spans, then only the data blits and the pseudo-PRNG slot
    /// are rewritten. The rodata image (string literals, the P-BOX)
    /// stays mapped from construction: program stores to read-only
    /// segments fault, and only the loader uses `Memory::write_init`. After
    /// `respawn` the VM is observationally identical to a
    /// freshly-constructed one with the same config — the TRNG draw
    /// order below mirrors `new_internal` exactly, which the backends
    /// bit-identity tests pin.
    pub fn respawn(&mut self, trng_seed: u64) {
        let offset = self.stack_base_offset;
        self.respawn_configured(trng_seed, offset);
    }

    /// [`Vm::respawn`] with a per-run stack base offset (the resident
    /// analog of [`crate::Executor::vm_configured`]).
    pub fn respawn_configured(&mut self, trng_seed: u64, stack_base_offset: u64) {
        let mut trng = SeededTrng::new(trng_seed);
        use smokestack_srng::TrueRandom;
        self.guard_key = trng.next_u64();
        self.canary = trng.next_u64() | 0xff; // never zero
        let pseudo_seed = trng.next_u64();
        self.rng = build_source(self.scheme, trng);
        self.trng_seed = trng_seed;
        self.stack_base_offset = stack_base_offset;

        self.mem.reset();
        for (addr, bytes) in &self.globals.data_blits {
            self.mem
                .write_init(*addr, bytes)
                .expect("global fits segment");
        }
        self.mem.set_data_used(self.globals.data_used);
        self.mem
            .write_init(layout::DATA_BASE, &pseudo_seed.to_le_bytes())
            .expect("pseudo state slot");

        self.heap_next = 0;
        self.free_lists.clear();
        self.block_sizes.clear();
        self.pending_exit = None;
        self.decicycles = 0;
        self.breakdown = CycleBreakdown::default();
        self.insts = 0;
        self.input_requests = 0;
        self.rng_invocations = 0;
        self.output.clear();
        self.alloca_trace.clear();
        self.max_depth = 0;
        self.sp = 0;
        self.next_preempt = u64::MAX;
        self.pending_block = false;
        self.sched = None;
    }

    /// Re-seed the scheduler for the next run (the interleaving knob;
    /// orthogonal to the TRNG seed, which re-keys the defenses).
    pub fn set_sched_seed(&mut self, seed: u64) {
        self.sched_seed = seed;
    }

    /// Toggle the data-race detector for the next run.
    pub fn set_detect_races(&mut self, on: bool) {
        self.detect_races = on;
    }

    /// Charge `c` cost units in category `cat` (single choke point for
    /// all cycle accounting, so the category clock is exact).
    #[inline]
    pub(crate) fn charge(&mut self, cat: CycleCategory, c: u64) {
        self.decicycles += c;
        self.breakdown.add_category(cat, c);
    }

    /// Emit a telemetry event stamped with the category clock (no-op
    /// without a recorder).
    #[inline]
    pub(crate) fn emit(&mut self, ev: Event) {
        if let Some(r) = &self.recorder {
            r.on_event(&self.breakdown.categories(), &ev);
        }
    }

    /// The randomness scheme in use.
    pub fn scheme(&self) -> SchemeKind {
        self.scheme
    }

    /// Post-mortem access to memory (attacker reads, assertions).
    pub fn mem(&self) -> &Memory {
        &self.mem
    }

    /// Mutable access to memory (attacker writes between runs).
    pub fn mem_mut(&mut self) -> &mut Memory {
        &mut self.mem
    }

    /// Address of a global.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not a global of the module.
    pub fn global_addr(&self, name: &str) -> u64 {
        let idx = self
            .module
            .globals
            .iter()
            .position(|g| g.name == name)
            .unwrap_or_else(|| panic!("no global named {name}"));
        self.globals.addrs[idx]
    }

    /// Run `main` with no arguments and scripted (possibly empty) input.
    pub fn run_main(&mut self, mut input: impl InputSource) -> RunOutcome {
        self.run_main_with(&mut input)
    }

    /// [`Vm::run_main`] for an already-borrowed input source, so session
    /// APIs can replay one scripted input across runs without rebuilding
    /// or boxing it.
    pub fn run_main_with(&mut self, input: &mut dyn InputSource) -> RunOutcome {
        self.run_with("main", &[], input)
    }

    /// Run the named entry function.
    ///
    /// # Panics
    ///
    /// Panics if the function does not exist or the argument count is
    /// wrong.
    pub fn run(&mut self, entry: &str, args: &[u64], mut input: impl InputSource) -> RunOutcome {
        self.run_with(entry, args, &mut input)
    }

    /// [`Vm::run`] for an already-borrowed input source.
    ///
    /// # Panics
    ///
    /// Panics if the function does not exist or the argument count is
    /// wrong.
    pub fn run_with(
        &mut self,
        entry: &str,
        args: &[u64],
        input: &mut dyn InputSource,
    ) -> RunOutcome {
        let fid = self
            .module
            .func_by_name(entry)
            .unwrap_or_else(|| panic!("no function named {entry}"));
        let f = self.module.func(fid);
        assert_eq!(f.params.len(), args.len(), "entry argument count");
        let entry_reg_count = f.reg_count();
        self.sp = layout::STACK_TOP - layout::STACK_START_GAP - self.stack_base_offset;
        self.sp &= !0xf;
        self.stack_limit = self.mem.stack_base();
        self.next_preempt = u64::MAX;
        self.pending_block = false;
        self.sched = None;
        self.max_depth = 1;
        self.emit(Event::FuncEnter {
            func: fid.0,
            depth: 1,
        });
        let exit = match self.backend {
            ExecBackend::Bytecode => crate::dispatch::run_compiled(self, fid, args, input),
            ExecBackend::Interp => {
                let mut regs = vec![0u64; entry_reg_count];
                regs[..args.len()].copy_from_slice(args);
                let mut frames = vec![Frame {
                    func: fid,
                    regs,
                    block: Function::ENTRY,
                    idx: 0,
                    entry_sp: self.sp,
                    ret_reg: None,
                    low_sp: self.sp,
                    guard_calls: 0,
                    canary_calls: 0,
                }];
                self.exec_loop(&mut frames, input)
            }
        };
        if self.recorder.is_some() {
            if let Exit::Fault(f) = &exit {
                let what = f.to_string();
                self.emit(Event::Fault { what });
            }
            self.emit(Event::RunEnd {
                peak_rss: self.mem.peak_rss(),
                decicycles: self.decicycles,
            });
        }
        RunOutcome {
            exit,
            decicycles: self.decicycles,
            insts: self.insts,
            output: std::mem::take(&mut self.output),
            peak_rss: self.mem.peak_rss(),
            max_call_depth: self.max_depth,
            rng_invocations: self.rng_invocations,
            breakdown: self.breakdown,
            alloca_trace: std::mem::take(&mut self.alloca_trace),
            sched_digest: self.sched_digest(),
        }
    }

    /// Top-level interpreter driver: runs slices of the current thread
    /// and rotates through the scheduler between them. Single-threaded
    /// programs take exactly one `exec_slice` call (the preemption
    /// compare is disarmed at `u64::MAX`, and `sched_pick_next` is a
    /// no-op while `sched` is `None`).
    fn exec_loop(&mut self, frames: &mut Vec<Frame>, input: &mut dyn InputSource) -> Exit {
        // Call stacks for spawned threads (tid >= 1), created on first
        // schedule; `frames` stays the main thread's stack.
        let mut extra: Vec<Vec<Frame>> = Vec::new();
        loop {
            let cur = self.sched.as_deref().map_or(0, |s| s.cur);
            if cur != 0 && extra.len() < cur {
                extra.resize_with(cur, Vec::new);
            }
            let stack: &mut Vec<Frame> = if cur == 0 {
                frames
            } else {
                &mut extra[cur - 1]
            };
            if stack.is_empty() {
                // First time this thread runs: materialize its entry
                // frame at the top of its slab (`sched_pick_next`
                // already restored `self.sp` to the slab top).
                let (entry, arg) = {
                    let s = self.sched.as_deref().expect("worker implies sched");
                    (s.threads[cur].entry, s.threads[cur].arg)
                };
                let mut regs = vec![0u64; self.module.func(entry).reg_count()];
                regs[0] = arg;
                stack.push(Frame {
                    func: entry,
                    regs,
                    block: Function::ENTRY,
                    idx: 0,
                    entry_sp: self.sp,
                    ret_reg: None,
                    low_sp: self.sp,
                    guard_calls: 0,
                    canary_calls: 0,
                });
                self.emit(Event::FuncEnter {
                    func: entry.0,
                    depth: 1,
                });
            }
            match self.exec_slice(stack, input) {
                crate::sched::SliceEnd::Exit(exit) => {
                    if cur == 0 {
                        // Main returning (or any exit/fault) ends the
                        // whole run — process semantics.
                        return exit;
                    }
                    if let Some(fatal) = self.sched_thread_finished(cur, exit) {
                        return fatal;
                    }
                }
                crate::sched::SliceEnd::Preempt | crate::sched::SliceEnd::Block => {}
            }
            if let Err(fault) = self.sched_pick_next() {
                return Exit::Fault(fault);
            }
        }
    }

    /// Run the current thread until its quantum expires, it blocks, or
    /// it finishes. The loop protocol (fuel check → preempt check →
    /// `insts += 1` → charge → execute) is mirrored exactly by the
    /// bytecode dispatcher — bit-identity depends on it.
    fn exec_slice(
        &mut self,
        frames: &mut Vec<Frame>,
        input: &mut dyn InputSource,
    ) -> crate::sched::SliceEnd {
        use crate::sched::SliceEnd;
        loop {
            if self.insts >= self.fuel {
                return SliceEnd::Exit(Exit::Fault(FaultKind::OutOfFuel));
            }
            if self.insts >= self.next_preempt {
                return SliceEnd::Preempt;
            }
            self.insts += 1;

            let fr = frames.last().expect("nonempty call stack");
            let func = &self.module.funcs[fr.func.0 as usize];
            let block = func.block(fr.block);

            if fr.idx >= block.insts.len() {
                // Execute terminator.
                let term = block.term.clone();
                let c = self.cost.term_cost(&term);
                self.charge(CycleCategory::Control, c);
                match term {
                    Terminator::Br(b) => {
                        let fr = frames.last_mut().expect("frame");
                        fr.block = b;
                        fr.idx = 0;
                    }
                    Terminator::CondBr {
                        cond,
                        then_bb,
                        else_bb,
                    } => {
                        let v = self.eval(frames.last().expect("frame"), &cond);
                        let fr = frames.last_mut().expect("frame");
                        fr.block = if v != 0 { then_bb } else { else_bb };
                        fr.idx = 0;
                    }
                    Terminator::Ret(v) => {
                        let val = v.map(|v| self.eval(frames.last().expect("frame"), &v));
                        let done = frames.last().expect("frame");
                        self.sp = done.entry_sp;
                        let ret_reg = done.ret_reg;
                        if self.recorder.is_some() {
                            let func = done.func.0;
                            let frame_bytes = done.entry_sp - done.low_sp;
                            // Reaching `ret` means any epilogue integrity
                            // check (guard-key/canary call #2+) passed —
                            // failures divert to GuardFail/CanaryFail and
                            // never get here.
                            if done.guard_calls >= 2 {
                                self.emit(Event::GuardCheck {
                                    func,
                                    kind: GuardKind::Word,
                                    passed: true,
                                });
                            }
                            if done.canary_calls >= 2 {
                                self.emit(Event::GuardCheck {
                                    func,
                                    kind: GuardKind::Canary,
                                    passed: true,
                                });
                            }
                            self.emit(Event::FuncExit { func, frame_bytes });
                        }
                        frames.pop();
                        match frames.last_mut() {
                            None => {
                                return SliceEnd::Exit(match val {
                                    Some(v) => Exit::Return(v),
                                    None => Exit::ReturnVoid,
                                });
                            }
                            Some(caller) => {
                                if let (Some(r), Some(v)) = (ret_reg, val) {
                                    caller.regs[r.0 as usize] = v;
                                }
                            }
                        }
                    }
                    Terminator::Unreachable => {
                        return SliceEnd::Exit(Exit::Fault(FaultKind::UnreachableExecuted));
                    }
                }
                continue;
            }

            let inst = block.insts[fr.idx].clone();
            let c = self.cost.inst_cost(&inst);
            match &inst {
                Inst::Call { .. } => self.charge(CycleCategory::Control, c),
                _ => self.charge(CycleCategory::Alu, c),
            }

            // Advance past this instruction *before* executing it so that
            // calls resume correctly.
            frames.last_mut().expect("frame").idx += 1;

            if let Err(fault) = self.exec_inst(&inst, frames, input) {
                return SliceEnd::Exit(Exit::Fault(fault));
            }
            if self.pending_block {
                // A blocking intrinsic yielded: rewind so the call
                // re-executes (and re-charges, deterministically on both
                // backends) when the thread wakes.
                self.pending_block = false;
                frames.last_mut().expect("frame").idx -= 1;
                return SliceEnd::Block;
            }
            if let Some(code) = self.pending_exit.take() {
                return SliceEnd::Exit(Exit::Exited(code));
            }
        }
    }

    fn eval(&self, fr: &Frame, v: &Value) -> u64 {
        match v {
            Value::Reg(r) => fr.regs[r.0 as usize],
            Value::ConstInt(c, w) => w.truncate(*c as u64),
            Value::Global(g) => self.globals.addrs[g.0 as usize],
            Value::Func(f) => layout::CODE_BASE + 16 * f.0 as u64,
            Value::NullPtr => 0,
        }
    }

    /// Charge one load/store executed by `func` at `addr` (slab-class
    /// discount plus stack locality), shared by both backends.
    pub(crate) fn charge_mem_for(&mut self, func: FuncId, addr: u64) {
        let slab = self.slab_funcs[func.0 as usize];
        let is_stack = addr >= self.mem.stack_base() && addr < layout::STACK_TOP;
        let c = self.cost.mem_cost(slab, is_stack);
        self.charge(CycleCategory::Mem, c);
    }

    fn charge_mem(&mut self, fr: &Frame, addr: u64) {
        self.charge_mem_for(fr.func, addr);
    }

    fn set_reg(frames: &mut [Frame], r: RegId, v: u64) {
        let fr = frames.last_mut().expect("frame");
        fr.regs[r.0 as usize] = v;
    }

    fn exec_inst(
        &mut self,
        inst: &Inst,
        frames: &mut Vec<Frame>,
        input: &mut dyn InputSource,
    ) -> Result<(), FaultKind> {
        let fr = frames.last().expect("frame");
        match inst {
            Inst::Alloca {
                result,
                ty,
                count,
                align,
                name,
                ..
            } => {
                let n = count.as_ref().map(|c| self.eval(fr, c)).unwrap_or(1);
                let size = ty.size().checked_mul(n).ok_or(FaultKind::StackOverflow)?;
                let align = (*align).max(1);
                let new_sp =
                    self.sp.checked_sub(size).ok_or(FaultKind::StackOverflow)? & !(align - 1);
                if new_sp < self.stack_limit {
                    return Err(FaultKind::StackOverflow);
                }
                self.sp = new_sp;
                self.mem.note_stack_pointer(new_sp);
                if self.recorder.is_some() {
                    self.emit(Event::Alloca {
                        func: fr.func.0,
                        addr: new_sp,
                        size,
                    });
                }
                if self.record_allocas {
                    let func_name = self.module.funcs[fr.func.0 as usize].name.clone();
                    self.alloca_trace.push(AllocaRecord {
                        func: func_name,
                        var: name.clone(),
                        addr: new_sp,
                        size,
                        depth: frames.len(),
                    });
                }
                let frm = frames.last_mut().expect("frame");
                frm.low_sp = frm.low_sp.min(new_sp);
                Self::set_reg(frames, *result, new_sp);
            }
            Inst::Load { result, ty, ptr } => {
                let addr = self.eval(fr, ptr);
                self.charge_mem(fr, addr);
                self.race_plain(addr, ty.size(), false)?;
                let v = self
                    .mem
                    .read_uint(addr, ty.size())
                    .map_err(FaultKind::Mem)?;
                Self::set_reg(frames, *result, v);
            }
            Inst::Store { ty, val, ptr } => {
                let addr = self.eval(fr, ptr);
                self.charge_mem(fr, addr);
                self.race_plain(addr, ty.size(), true)?;
                let v = self.eval(fr, val);
                self.mem
                    .write_uint(addr, v, ty.size())
                    .map_err(FaultKind::Mem)?;
            }
            Inst::Gep {
                result,
                base,
                offset,
            } => {
                let b = self.eval(fr, base);
                let o = self.eval(fr, offset);
                Self::set_reg(frames, *result, b.wrapping_add(o));
            }
            Inst::Bin {
                result,
                op,
                width,
                lhs,
                rhs,
            } => {
                let a = self.eval(fr, lhs);
                let b = self.eval(fr, rhs);
                let v = Self::binop(*op, *width, a, b)?;
                Self::set_reg(frames, *result, v);
            }
            Inst::Icmp {
                result,
                pred,
                width,
                lhs,
                rhs,
            } => {
                let a = self.eval(fr, lhs);
                let b = self.eval(fr, rhs);
                let v = Self::icmp(*pred, *width, a, b);
                Self::set_reg(frames, *result, v as u64);
            }
            Inst::Cast {
                result,
                kind,
                to,
                val,
            } => {
                let v = self.eval(fr, val);
                let out = match kind {
                    CastKind::ZextOrTrunc => match to.int_width() {
                        Some(w) => w.truncate(v),
                        None => v,
                    },
                    CastKind::SextFrom(src) => {
                        let wide = src.sext(src.truncate(v)) as u64;
                        match to.int_width() {
                            Some(w) => w.truncate(wide),
                            None => wide,
                        }
                    }
                    CastKind::PtrToInt | CastKind::IntToPtr => v,
                };
                Self::set_reg(frames, *result, out);
            }
            Inst::Call {
                result,
                callee,
                args,
            } => {
                let argv: Vec<u64> = args.iter().map(|a| self.eval(fr, a)).collect();
                match callee {
                    Callee::Intrinsic(i) => {
                        let top = frames.last_mut().expect("frame");
                        let cur_func = top.func;
                        let Frame {
                            guard_calls,
                            canary_calls,
                            ..
                        } = top;
                        let ret = self.exec_intrinsic(
                            *i,
                            &argv,
                            input,
                            cur_func,
                            *result,
                            guard_calls,
                            canary_calls,
                        )?;
                        if let (Some(r), Some(v)) = (result, ret) {
                            Self::set_reg(frames, *r, v);
                        }
                    }
                    Callee::Direct(fid) => {
                        self.push_frame(frames, *fid, &argv, *result)?;
                    }
                    Callee::Indirect(target) => {
                        let addr = self.eval(fr, target);
                        let off = addr.wrapping_sub(layout::CODE_BASE);
                        if !off.is_multiple_of(16) || (off / 16) as usize >= self.module.funcs.len()
                        {
                            return Err(FaultKind::BadIndirectCall(addr));
                        }
                        let fid = FuncId((off / 16) as u32);
                        if self.module.func(fid).params.len() != argv.len() {
                            return Err(FaultKind::BadIndirectCall(addr));
                        }
                        self.push_frame(frames, fid, &argv, *result)?;
                    }
                }
            }
        }
        Ok(())
    }

    fn push_frame(
        &mut self,
        frames: &mut Vec<Frame>,
        fid: FuncId,
        argv: &[u64],
        ret_reg: Option<RegId>,
    ) -> Result<(), FaultKind> {
        if frames.len() >= 100_000 {
            return Err(FaultKind::StackOverflow);
        }
        let f = self.module.func(fid);
        let mut regs = vec![0u64; f.reg_count()];
        regs[..argv.len()].copy_from_slice(argv);
        frames.push(Frame {
            func: fid,
            regs,
            block: Function::ENTRY,
            idx: 0,
            entry_sp: self.sp,
            ret_reg,
            low_sp: self.sp,
            guard_calls: 0,
            canary_calls: 0,
        });
        self.max_depth = self.max_depth.max(frames.len());
        self.emit(Event::FuncEnter {
            func: fid.0,
            depth: frames.len() as u32,
        });
        Ok(())
    }

    pub(crate) fn binop(op: BinOp, w: IntWidth, a: u64, b: u64) -> Result<u64, FaultKind> {
        let ua = w.truncate(a);
        let ub = w.truncate(b);
        let sa = w.sext(ua);
        let sb = w.sext(ub);
        let shift_mask = (w.bits() - 1) as u64;
        let v = match op {
            BinOp::Add => ua.wrapping_add(ub),
            BinOp::Sub => ua.wrapping_sub(ub),
            BinOp::Mul => ua.wrapping_mul(ub),
            BinOp::SDiv => {
                if sb == 0 {
                    return Err(FaultKind::DivByZero);
                }
                sa.wrapping_div(sb) as u64
            }
            BinOp::UDiv => {
                if ub == 0 {
                    return Err(FaultKind::DivByZero);
                }
                ua / ub
            }
            BinOp::SRem => {
                if sb == 0 {
                    return Err(FaultKind::DivByZero);
                }
                sa.wrapping_rem(sb) as u64
            }
            BinOp::URem => {
                if ub == 0 {
                    return Err(FaultKind::DivByZero);
                }
                ua % ub
            }
            BinOp::And => ua & ub,
            BinOp::Or => ua | ub,
            BinOp::Xor => ua ^ ub,
            BinOp::Shl => ua << (ub & shift_mask),
            BinOp::LShr => ua >> (ub & shift_mask),
            BinOp::AShr => (sa >> (ub & shift_mask)) as u64,
        };
        Ok(w.truncate(v))
    }

    pub(crate) fn icmp(pred: CmpPred, w: IntWidth, a: u64, b: u64) -> bool {
        let ua = w.truncate(a);
        let ub = w.truncate(b);
        let sa = w.sext(ua);
        let sb = w.sext(ub);
        match pred {
            CmpPred::Eq => ua == ub,
            CmpPred::Ne => ua != ub,
            CmpPred::Slt => sa < sb,
            CmpPred::Sle => sa <= sb,
            CmpPred::Sgt => sa > sb,
            CmpPred::Sge => sa >= sb,
            CmpPred::Ult => ua < ub,
            CmpPred::Ule => ua <= ub,
            CmpPred::Ugt => ua > ub,
            CmpPred::Uge => ua >= ub,
        }
    }

    /// Execute one intrinsic. Decoupled from the interpreter's frame
    /// representation (the caller passes the executing function and its
    /// frame's guard/canary counters) so the bytecode dispatcher shares
    /// this exact code path — intrinsic behavior, cycle charges, and
    /// telemetry events are bit-identical across backends by
    /// construction.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn exec_intrinsic(
        &mut self,
        which: Intrinsic,
        argv: &[u64],
        input: &mut dyn InputSource,
        cur_func: FuncId,
        result: Option<RegId>,
        guard_calls: &mut u32,
        canary_calls: &mut u32,
    ) -> Result<Option<u64>, FaultKind> {
        match which {
            Intrinsic::GetInput | Intrinsic::ReadLine => {
                let (ptr, max) = (argv[0], argv[1]);
                let idx = self.input_requests;
                self.input_requests += 1;
                let mut bytes = input.provide(&mut self.mem, idx, max);
                bytes.truncate(max as usize);
                if !bytes.is_empty() {
                    self.mem.write(ptr, &bytes).map_err(FaultKind::Mem)?;
                }
                let c = self.cost.bulk_cost(which, bytes.len() as u64);
                self.charge(CycleCategory::Bulk, c);
                self.emit(Event::InputRequest {
                    index: idx,
                    bytes: bytes.len() as u64,
                });
                Ok(Some(bytes.len() as u64))
            }
            Intrinsic::PrintInt => {
                self.output.push(OutputEvent::Int(argv[0] as i64));
                Ok(None)
            }
            Intrinsic::PrintStr => {
                let len = self.mem.strlen(argv[0]).map_err(FaultKind::Mem)?;
                let bytes = self
                    .mem
                    .read(argv[0], len)
                    .map_err(FaultKind::Mem)?
                    .to_vec();
                let c = self.cost.bulk_cost(Intrinsic::Strlen, len);
                self.charge(CycleCategory::Bulk, c);
                self.output.push(OutputEvent::Str(bytes));
                Ok(None)
            }
            Intrinsic::Memcpy => {
                let (dst, src, n) = (argv[0], argv[1], argv[2]);
                let bytes = self.mem.read(src, n).map_err(FaultKind::Mem)?.to_vec();
                self.mem.write(dst, &bytes).map_err(FaultKind::Mem)?;
                let c = self.cost.bulk_cost(which, n);
                self.charge(CycleCategory::Bulk, c);
                Ok(None)
            }
            Intrinsic::Memset => {
                let (dst, byte, n) = (argv[0], argv[1] as u8, argv[2]);
                self.mem
                    .write(dst, &vec![byte; n as usize])
                    .map_err(FaultKind::Mem)?;
                let c = self.cost.bulk_cost(which, n);
                self.charge(CycleCategory::Bulk, c);
                Ok(None)
            }
            Intrinsic::Strlen => {
                let n = self.mem.strlen(argv[0]).map_err(FaultKind::Mem)?;
                let c = self.cost.bulk_cost(which, n);
                self.charge(CycleCategory::Bulk, c);
                Ok(Some(n))
            }
            Intrinsic::SnprintfCat => {
                let (dst, cap, fmt, arg) = (argv[0], argv[1], argv[2], argv[3]);
                let fmt_len = self.mem.strlen(fmt).map_err(FaultKind::Mem)?;
                let fmt_bytes = self
                    .mem
                    .read(fmt, fmt_len)
                    .map_err(FaultKind::Mem)?
                    .to_vec();
                let mut out = Vec::new();
                let mut i = 0usize;
                while i < fmt_bytes.len() {
                    if fmt_bytes[i] == b'%' && i + 1 < fmt_bytes.len() {
                        match fmt_bytes[i + 1] {
                            b's' => {
                                let sl = self.mem.strlen(arg).map_err(FaultKind::Mem)?;
                                let s = self.mem.read(arg, sl).map_err(FaultKind::Mem)?;
                                out.extend_from_slice(s);
                                i += 2;
                                continue;
                            }
                            b'd' => {
                                out.extend_from_slice((arg as i64).to_string().as_bytes());
                                i += 2;
                                continue;
                            }
                            b'%' => {
                                out.push(b'%');
                                i += 2;
                                continue;
                            }
                            _ => {}
                        }
                    }
                    out.push(fmt_bytes[i]);
                    i += 1;
                }
                let would = out.len() as u64;
                if cap > 0 {
                    let n = would.min(cap - 1);
                    self.mem
                        .write(dst, &out[..n as usize])
                        .map_err(FaultKind::Mem)?;
                    self.mem.write(dst + n, &[0]).map_err(FaultKind::Mem)?;
                }
                let c = self.cost.bulk_cost(which, would);
                self.charge(CycleCategory::Bulk, c);
                Ok(Some(would))
            }
            Intrinsic::Malloc => {
                let size = smokestack_ir::align_to(argv[0].max(1), 16);
                let c = self.cost.bulk_cost(which, 0);
                self.charge(CycleCategory::Bulk, c);
                if let Some(addr) = self.free_lists.get_mut(&size).and_then(|v| v.pop()) {
                    return Ok(Some(addr));
                }
                if self.heap_next + size > self.mem.heap_capacity() {
                    return Ok(Some(0)); // out of memory -> NULL
                }
                let addr = layout::HEAP_BASE + self.heap_next;
                self.heap_next += size;
                self.mem.note_heap_used(self.heap_next);
                // Remember block size for free().
                self.block_sizes.insert(addr, size);
                Ok(Some(addr))
            }
            Intrinsic::Free => {
                let c = self.cost.bulk_cost(which, 0);
                self.charge(CycleCategory::Bulk, c);
                if argv[0] != 0 {
                    if let Some(size) = self.block_sizes.remove(&argv[0]) {
                        self.free_lists.entry(size).or_default().push(argv[0]);
                    }
                }
                Ok(None)
            }
            Intrinsic::IoWait => {
                let c = argv[0].saturating_mul(crate::cycles::DECI);
                self.charge(CycleCategory::Io, c);
                Ok(None)
            }
            Intrinsic::StackRng => {
                self.rng_invocations += 1;
                // Table I costs are in deci-cycles; the VM accounts in
                // twentieths of a cycle. With live sibling threads the
                // TRNG port is contended: each competitor adds a
                // surcharge (§ per-thread draws).
                let contention = match self.sched.as_deref() {
                    Some(s) => self.cost.rng_contention * s.live_threads().saturating_sub(1),
                    None => 0,
                };
                let c = self.scheme.cost_decicycles() * (crate::cycles::DECI / 10) + contention;
                self.charge(CycleCategory::Rng, c);
                let v = if self.scheme == SchemeKind::Pseudo {
                    // The insecure scheme's state lives in data memory,
                    // where the attacker can read *and overwrite* it
                    // (shared by all threads).
                    let state = self
                        .mem
                        .read_uint(layout::DATA_BASE, 8)
                        .map_err(FaultKind::Mem)?;
                    let (next, out) = XorShift64::step(state);
                    self.mem
                        .write_uint(layout::DATA_BASE, next, 8)
                        .map_err(FaultKind::Mem)?;
                    out
                } else {
                    // Worker threads draw from their own independently
                    // seeded source — each spawn is its own P-BOX epoch.
                    match self.sched.as_deref_mut() {
                        Some(s) if s.cur != 0 => {
                            let cur = s.cur;
                            s.threads[cur].rng.as_mut().expect("worker rng").next_u64()
                        }
                        _ => self.rng.next_u64(),
                    }
                };
                if self.recorder.is_some() {
                    self.emit(Event::RngDraw {
                        scheme: self.scheme.label(),
                        cost_decicycles: c,
                    });
                    // If this draw is the executing function's slab
                    // prologue draw, report which P-BOX row it selects.
                    if let Some((reg, mask)) = self.pbox_draws[cur_func.0 as usize] {
                        if result == Some(reg) {
                            self.emit(Event::PboxSelect {
                                func: cur_func.0,
                                index: v & mask,
                            });
                        }
                    }
                }
                Ok(Some(v))
            }
            Intrinsic::GuardKey => {
                *guard_calls = guard_calls.saturating_add(1);
                Ok(Some(self.guard_key))
            }
            Intrinsic::Canary => {
                *canary_calls = canary_calls.saturating_add(1);
                Ok(Some(self.canary))
            }
            Intrinsic::GuardFail => {
                let func = self.module.funcs[cur_func.0 as usize].name.clone();
                if self.recorder.is_some() {
                    self.emit(Event::GuardCheck {
                        func: cur_func.0,
                        kind: GuardKind::Word,
                        passed: false,
                    });
                }
                Err(FaultKind::GuardViolation { func })
            }
            Intrinsic::CanaryFail => {
                let func = self.module.funcs[cur_func.0 as usize].name.clone();
                if self.recorder.is_some() {
                    self.emit(Event::GuardCheck {
                        func: cur_func.0,
                        kind: GuardKind::Canary,
                        passed: false,
                    });
                }
                Err(FaultKind::CanarySmashed { func })
            }
            Intrinsic::Exit => {
                self.pending_exit = Some(argv[0] as i64);
                Ok(None)
            }
            Intrinsic::Spawn => {
                let tid = self.sched_spawn(argv[0], argv[1])?;
                Ok(Some(tid))
            }
            Intrinsic::Join => self.sched_join(argv[0]),
            Intrinsic::AtomicLoad => {
                let addr = argv[0];
                self.charge_mem_for(cur_func, addr);
                let sync = self.cost.sync_op;
                self.charge(CycleCategory::Mem, sync);
                let v = self.mem.read_uint(addr, 8).map_err(FaultKind::Mem)?;
                if argv[1] == 1 {
                    self.atomic_acquire(addr);
                }
                Ok(Some(v))
            }
            Intrinsic::AtomicStore => {
                let (addr, val) = (argv[0], argv[1]);
                self.charge_mem_for(cur_func, addr);
                let sync = self.cost.sync_op;
                self.charge(CycleCategory::Mem, sync);
                self.mem.write_uint(addr, val, 8).map_err(FaultKind::Mem)?;
                if argv[2] == 2 {
                    self.atomic_release(addr);
                }
                Ok(None)
            }
            Intrinsic::AtomicRmw => {
                let (addr, val, op, ord) = (argv[0], argv[1], argv[2], argv[3]);
                self.charge_mem_for(cur_func, addr);
                let sync = self.cost.sync_op;
                self.charge(CycleCategory::Mem, sync);
                let old = self.mem.read_uint(addr, 8).map_err(FaultKind::Mem)?;
                let new = match op {
                    0 => old.wrapping_add(val),
                    _ => val, // exchange
                };
                self.mem.write_uint(addr, new, 8).map_err(FaultKind::Mem)?;
                if ord == 3 {
                    self.atomic_acquire(addr);
                    self.atomic_release(addr);
                }
                Ok(Some(old))
            }
            Intrinsic::MutexLock => {
                self.sched_mutex_lock(argv[0]);
                Ok(None)
            }
            Intrinsic::MutexUnlock => {
                self.sched_mutex_unlock(argv[0]);
                Ok(None)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::ScriptedInput;
    use smokestack_ir::Builder;

    /// Non-deprecated stand-in for the old `Vm::new` in tests.
    fn vm_for(m: Module, cfg: VmConfig) -> Vm {
        Vm::new_internal(Arc::new(m), cfg, None)
    }

    fn run_module(m: Module) -> RunOutcome {
        let mut vm = vm_for(m, VmConfig::default());
        vm.run_main(ScriptedInput::empty())
    }

    fn simple_main(body: impl FnOnce(&mut Builder)) -> Module {
        let mut m = Module::new();
        let mut f = Function::new("main", vec![], Type::I64);
        let mut b = Builder::new(&mut f);
        body(&mut b);
        m.add_func(f);
        smokestack_ir::assert_verified(&m);
        m
    }

    #[test]
    fn returns_constant() {
        let m = simple_main(|b| b.ret(Some(Value::i64(42))));
        assert_eq!(run_module(m).exit, Exit::Return(42));
    }

    #[test]
    fn alloca_load_store_roundtrip() {
        let m = simple_main(|b| {
            let x = b.alloca(Type::I64, "x");
            b.store(Type::I64, Value::i64(7), x.into());
            let v = b.load(Type::I64, x.into());
            let y = b.add64(v.into(), Value::i64(35));
            b.ret(Some(y.into()));
        });
        assert_eq!(run_module(m).exit, Exit::Return(42));
    }

    #[test]
    fn loop_counts_to_ten() {
        let m = simple_main(|b| {
            let i = b.alloca(Type::I64, "i");
            b.store(Type::I64, Value::i64(0), i.into());
            let header = b.new_block();
            let body = b.new_block();
            let exit = b.new_block();
            b.br(header);
            b.switch_to(header);
            let iv = b.load(Type::I64, i.into());
            let c = b.icmp(CmpPred::Slt, IntWidth::W64, iv.into(), Value::i64(10));
            b.cond_br(c.into(), body, exit);
            b.switch_to(body);
            let iv2 = b.load(Type::I64, i.into());
            let inc = b.add64(iv2.into(), Value::i64(1));
            b.store(Type::I64, inc.into(), i.into());
            b.br(header);
            b.switch_to(exit);
            let fin = b.load(Type::I64, i.into());
            b.ret(Some(fin.into()));
        });
        assert_eq!(run_module(m).exit, Exit::Return(10));
    }

    #[test]
    fn function_call_and_return() {
        let mut m = Module::new();
        let mut callee = Function::new("double_it", vec![Type::I64], Type::I64);
        {
            let mut b = Builder::new(&mut callee);
            let v = b.bin(
                BinOp::Mul,
                IntWidth::W64,
                Value::Reg(RegId(0)),
                Value::i64(2),
            );
            b.ret(Some(v.into()));
        }
        let callee_id = m.add_func(callee);
        let mut f = Function::new("main", vec![], Type::I64);
        {
            let mut b = Builder::new(&mut f);
            let r = b.call(callee_id, Type::I64, vec![Value::i64(21)]).unwrap();
            b.ret(Some(r.into()));
        }
        m.add_func(f);
        smokestack_ir::assert_verified(&m);
        assert_eq!(run_module(m).exit, Exit::Return(42));
    }

    #[test]
    fn indirect_call_through_function_pointer() {
        let mut m = Module::new();
        let mut callee = Function::new("cb", vec![], Type::I64);
        Builder::new(&mut callee).ret(Some(Value::i64(5)));
        let cid = m.add_func(callee);
        let mut f = Function::new("main", vec![], Type::I64);
        {
            let mut b = Builder::new(&mut f);
            let slot = b.alloca(Type::Ptr, "fp");
            b.store(Type::Ptr, Value::Func(cid), slot.into());
            let fp = b.load(Type::Ptr, slot.into());
            let r = b.call_indirect(fp.into(), Type::I64, vec![]).unwrap();
            b.ret(Some(r.into()));
        }
        m.add_func(f);
        assert_eq!(run_module(m).exit, Exit::Return(5));
    }

    #[test]
    fn bad_indirect_call_faults() {
        let mut m = Module::new();
        let mut f = Function::new("main", vec![], Type::I64);
        {
            let mut b = Builder::new(&mut f);
            let r = b
                .call_indirect(Value::i64(0x1234567), Type::I64, vec![])
                .unwrap();
            b.ret(Some(r.into()));
        }
        m.add_func(f);
        let out = run_module(m);
        assert!(matches!(
            out.exit,
            Exit::Fault(FaultKind::BadIndirectCall(_))
        ));
    }

    #[test]
    fn buffer_overflow_corrupts_neighbor_silently() {
        // Two adjacent allocas; memset past the first corrupts the second
        // without faulting — the property DOP attacks rely on.
        let m = simple_main(|b| {
            let victim = b.alloca(Type::I64, "victim");
            let buf = b.alloca(Type::array(Type::I8, 16), "buf");
            b.store(Type::I64, Value::i64(1111), victim.into());
            // Overflow: fill 24 bytes into a 16-byte buffer.
            b.call_intrinsic(
                Intrinsic::Memset,
                vec![buf.into(), Value::i64(0), Value::i64(24)],
            );
            let v = b.load(Type::I64, victim.into());
            b.ret(Some(v.into()));
        });
        let out = run_module(m);
        // buf sits below victim? Allocas grow down: victim first (higher),
        // buf second (lower). buf+16..24 overwrites victim.
        assert_eq!(out.exit, Exit::Return(0));
    }

    #[test]
    fn wild_pointer_faults() {
        let m = simple_main(|b| {
            let p = b.cast(CastKind::IntToPtr, Type::Ptr, Value::i64(0x99));
            let v = b.load(Type::I64, p.into());
            b.ret(Some(v.into()));
        });
        assert!(matches!(run_module(m).exit, Exit::Fault(FaultKind::Mem(_))));
    }

    #[test]
    fn division_by_zero_faults() {
        let m = simple_main(|b| {
            let v = b.bin(BinOp::SDiv, IntWidth::W64, Value::i64(1), Value::i64(0));
            b.ret(Some(v.into()));
        });
        assert_eq!(run_module(m).exit, Exit::Fault(FaultKind::DivByZero));
    }

    #[test]
    fn fuel_exhaustion() {
        let m = simple_main(|b| {
            let l = b.new_block();
            b.br(l);
            b.switch_to(l);
            b.br(l);
        });
        let mut vm = vm_for(
            m,
            VmConfig {
                fuel: 1000,
                ..VmConfig::default()
            },
        );
        let out = vm.run_main(ScriptedInput::empty());
        assert_eq!(out.exit, Exit::Fault(FaultKind::OutOfFuel));
    }

    #[test]
    fn get_input_writes_and_returns_len() {
        let mut m = Module::new();
        let mut f = Function::new("main", vec![], Type::I64);
        {
            let mut b = Builder::new(&mut f);
            let buf = b.alloca(Type::array(Type::I8, 8), "buf");
            let n = b
                .call_intrinsic(Intrinsic::GetInput, vec![buf.into(), Value::i64(8)])
                .unwrap();
            let first = b.load(Type::I8, buf.into());
            let fz = b.cast(CastKind::ZextOrTrunc, Type::I64, first.into());
            let sum = b.add64(n.into(), fz.into());
            b.ret(Some(sum.into()));
        }
        m.add_func(f);
        let mut vm = vm_for(m, VmConfig::default());
        let out = vm.run_main(ScriptedInput::new([vec![10u8, 20, 30]]));
        // 3 bytes + first byte 10 = 13
        assert_eq!(out.exit, Exit::Return(13));
    }

    #[test]
    fn snprintf_cat_contract() {
        // Returns would-be length even when truncated; writes NUL.
        let mut m = Module::new();
        let fmt = m.add_cstring("fmt", "name: %s;");
        let arg = m.add_cstring("arg", "abcdef");
        let mut f = Function::new("main", vec![], Type::I64);
        {
            let mut b = Builder::new(&mut f);
            let buf = b.alloca(Type::array(Type::I8, 4), "buf");
            let n = b
                .call_intrinsic(
                    Intrinsic::SnprintfCat,
                    vec![
                        buf.into(),
                        Value::i64(4),
                        Value::Global(fmt),
                        Value::Global(arg),
                    ],
                )
                .unwrap();
            b.ret(Some(n.into()));
        }
        m.add_func(f);
        // "name: abcdef;" is 13 bytes.
        assert_eq!(run_module(m).exit, Exit::Return(13));
    }

    #[test]
    fn malloc_free_reuse() {
        let mut m = Module::new();
        let mut f = Function::new("main", vec![], Type::I64);
        {
            let mut b = Builder::new(&mut f);
            let p1 = b
                .call_intrinsic(Intrinsic::Malloc, vec![Value::i64(64)])
                .unwrap();
            b.call_intrinsic(Intrinsic::Free, vec![p1.into()]);
            let p2 = b
                .call_intrinsic(Intrinsic::Malloc, vec![Value::i64(64)])
                .unwrap();
            let p1i = b.cast(CastKind::PtrToInt, Type::I64, p1.into());
            let p2i = b.cast(CastKind::PtrToInt, Type::I64, p2.into());
            let same = b.icmp(CmpPred::Eq, IntWidth::W64, p1i.into(), p2i.into());
            let samez = b.cast(CastKind::ZextOrTrunc, Type::I64, same.into());
            b.ret(Some(samez.into()));
        }
        m.add_func(f);
        assert_eq!(run_module(m).exit, Exit::Return(1));
    }

    #[test]
    fn exit_intrinsic_stops_program() {
        let m = simple_main(|b| {
            b.call_intrinsic(Intrinsic::Exit, vec![Value::i64(3)]);
            b.ret(Some(Value::i64(0)));
        });
        assert_eq!(run_module(m).exit, Exit::Exited(3));
    }

    #[test]
    fn breakdown_accounts_for_all_cycles() {
        let m = simple_main(|b| {
            let x = b.alloca(Type::I64, "x");
            b.store(Type::I64, Value::i64(5), x.into());
            let v = b.load(Type::I64, x.into());
            b.call_intrinsic(Intrinsic::IoWait, vec![Value::i64(100)]);
            let r = b.call_intrinsic(Intrinsic::StackRng, vec![]).unwrap();
            let s = b.add64(v.into(), r.into());
            let masked = b.bin(BinOp::And, IntWidth::W64, s.into(), Value::i64(0));
            b.ret(Some(masked.into()));
        });
        let out = run_module(m);
        assert_eq!(out.exit, Exit::Return(0));
        assert_eq!(out.breakdown.total(), out.decicycles);
        assert!(out.breakdown.rng > 0);
        assert!(out.breakdown.io >= 100 * crate::cycles::DECI);
        assert!(out.breakdown.mem > 0);
        assert!(out.breakdown.alu > 0);
        assert!(out.breakdown.control > 0);
    }

    #[test]
    fn io_wait_charges_cycles() {
        let m = simple_main(|b| {
            b.call_intrinsic(Intrinsic::IoWait, vec![Value::i64(1000)]);
            b.ret(Some(Value::i64(0)));
        });
        let out = run_module(m);
        assert!(out.cycles() >= 1000.0);
    }

    #[test]
    fn stack_rng_pseudo_state_in_memory() {
        let m = simple_main(|b| {
            let r = b.call_intrinsic(Intrinsic::StackRng, vec![]).unwrap();
            b.ret(Some(r.into()));
        });
        let mut vm = vm_for(
            m,
            VmConfig {
                scheme: SchemeKind::Pseudo,
                ..VmConfig::default()
            },
        );
        // Attacker reads the PRNG state *before* the program runs and
        // predicts the draw.
        let state = vm.mem().read_uint(layout::DATA_BASE, 8).unwrap();
        let (_, predicted) = XorShift64::step(state);
        let out = vm.run_main(ScriptedInput::empty());
        assert_eq!(out.exit, Exit::Return(predicted));
        assert_eq!(out.rng_invocations, 1);
    }

    #[test]
    fn stack_rng_aes_not_predictable_from_memory() {
        let m = simple_main(|b| {
            let r = b.call_intrinsic(Intrinsic::StackRng, vec![]).unwrap();
            b.ret(Some(r.into()));
        });
        let mut vm = vm_for(
            m,
            VmConfig {
                scheme: SchemeKind::Aes10,
                ..VmConfig::default()
            },
        );
        let state = vm.mem().read_uint(layout::DATA_BASE, 8).unwrap();
        let (_, xs_prediction) = XorShift64::step(state);
        let out = vm.run_main(ScriptedInput::empty());
        match out.exit {
            Exit::Return(v) => assert_ne!(v, xs_prediction),
            other => panic!("unexpected exit {other:?}"),
        }
    }

    #[test]
    fn rng_cost_matches_table1() {
        for kind in SchemeKind::ALL {
            let m = simple_main(|b| {
                let r = b.call_intrinsic(Intrinsic::StackRng, vec![]).unwrap();
                b.ret(Some(r.into()));
            });
            let mut vm = vm_for(
                m,
                VmConfig {
                    scheme: kind,
                    ..VmConfig::default()
                },
            );
            let out = vm.run_main(ScriptedInput::empty());
            // decicycles includes the scheme cost plus small fixed costs.
            assert!(out.decicycles >= kind.cost_decicycles());
        }
    }

    #[test]
    fn guard_fail_reports_function() {
        let m = simple_main(|b| {
            b.call_intrinsic(Intrinsic::GuardFail, vec![Value::i64(1)]);
            b.ret(Some(Value::i64(0)));
        });
        let out = run_module(m);
        assert_eq!(
            out.exit,
            Exit::Fault(FaultKind::GuardViolation {
                func: "main".into()
            })
        );
        assert!(out.exit.is_defense_detection());
    }

    #[test]
    fn stack_base_offset_shifts_addresses() {
        let build = || {
            simple_main(|b| {
                let x = b.alloca(Type::I64, "x");
                let xi = b.cast(CastKind::PtrToInt, Type::I64, x.into());
                b.ret(Some(xi.into()));
            })
        };
        let addr_at = |off: u64| {
            let mut vm = vm_for(
                build(),
                VmConfig {
                    stack_base_offset: off,
                    ..VmConfig::default()
                },
            );
            match vm.run_main(ScriptedInput::empty()).exit {
                Exit::Return(a) => a,
                other => panic!("{other:?}"),
            }
        };
        let a0 = addr_at(0);
        let a1 = addr_at(4096);
        assert_eq!(a0 - a1, 4096);
    }

    #[test]
    fn record_allocas_trace() {
        let m = simple_main(|b| {
            b.alloca(Type::I64, "x");
            b.alloca(Type::array(Type::I8, 32), "buf");
            b.ret(Some(Value::i64(0)));
        });
        let mut vm = vm_for(
            m,
            VmConfig {
                record_allocas: true,
                ..VmConfig::default()
            },
        );
        let out = vm.run_main(ScriptedInput::empty());
        assert_eq!(out.alloca_trace.len(), 2);
        assert_eq!(out.alloca_trace[0].var, "x");
        assert_eq!(out.alloca_trace[1].var, "buf");
        assert!(out.alloca_trace[0].addr > out.alloca_trace[1].addr);
    }

    #[test]
    fn vla_alloca_sized_at_runtime() {
        let mut m = Module::new();
        let mut f = Function::new("main", vec![], Type::I64);
        {
            let mut b = Builder::new(&mut f);
            let n = b.alloca(Type::I64, "n");
            b.store(Type::I64, Value::i64(5), n.into());
            let count = b.load(Type::I64, n.into());
            let vla = b.alloca_vla(Type::I64, count.into(), "vla");
            b.store(Type::I64, Value::i64(9), vla.into());
            let v = b.load(Type::I64, vla.into());
            b.ret(Some(v.into()));
        }
        m.add_func(f);
        assert_eq!(run_module(m).exit, Exit::Return(9));
    }

    #[test]
    fn peak_rss_grows_with_frame_size() {
        let small = simple_main(|b| {
            b.alloca(Type::array(Type::I8, 64), "b");
            b.ret(Some(Value::i64(0)));
        });
        let big = simple_main(|b| {
            b.alloca(Type::array(Type::I8, 65536), "b");
            b.ret(Some(Value::i64(0)));
        });
        let r_small = run_module(small).peak_rss;
        let r_big = run_module(big).peak_rss;
        assert!(r_big > r_small + 60_000);
    }
}
