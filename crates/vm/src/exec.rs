//! The VM: its configuration, run lifecycle (construct, respawn, run)
//! and outcome types, plus the instruction semantics both backends
//! share by value — arithmetic, comparisons and every intrinsic.

use std::collections::HashMap;
use std::sync::Arc;

use smokestack_ir::{BinOp, CmpPred, IntWidth, Intrinsic};
use smokestack_srng::{build_source, EntropySource, SchemeKind, SeededTrng, XorShift64};
use smokestack_telemetry::{CycleCategory, Event, GuardKind, SharedRecorder};

use crate::bytecode::{CompiledModule, ExecBackend};
use crate::cycles::{CycleBreakdown, COST};
use crate::interp::Interp;
use crate::io::{InputSource, OutputEvent};
use crate::machine::Scratch;
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
#[derive(Clone)]
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
    /// Record every stack allocation (address/size/name).
    pub record_allocas: bool,
    /// Flight recorder fed with every telemetry event. `None` (the
    /// default) disables tracing entirely; every emit site in the VM is
    /// guarded by an is-some check so the disabled path costs nothing
    /// measurable.
    pub recorder: Option<SharedRecorder>,
    /// Execution engine. [`ExecBackend::Bytecode`] (the default) decodes
    /// the module's flat bytecode; the tree-walking
    /// [`ExecBackend::Interp`] decodes the IR itself and is retained as
    /// the differential oracle for lowering. Both run on one execution
    /// core and produce bit-identical [`RunOutcome`]s.
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
            record_allocas: false,
            recorder: None,
            backend: ExecBackend::default(),
            sched_seed: 0,
            detect_races: false,
        }
    }
}

/// The virtual machine: owns a loaded module image and executes it.
///
/// The module's compiled value is held behind an [`Arc`], so spawning
/// many VMs over the same build (Monte-Carlo trial campaigns, per-worker
/// VM pools) shares one immutable image — the IR, its bytecode, the
/// global layout with the rodata image, and the per-function tables —
/// instead of copying any of it per run. `Module` itself is `Send`, so a
/// build can be deployed once and fanned out across worker threads.
pub struct Vm {
    /// The module and every per-module table both backends read.
    pub(crate) compiled: Arc<CompiledModule>,
    pub(crate) mem: Memory,
    pub(crate) scheme: SchemeKind,
    pub(crate) rng: EntropySource,
    pub(crate) guard_key: u64,
    pub(crate) canary: u64,
    pub(crate) stack_base_offset: u64,
    pub(crate) fuel: u64,
    pub(crate) record_allocas: bool,
    pub(crate) recorder: Option<SharedRecorder>,
    /// Which decoder [`Vm::run_with`] runs on the execution core.
    pub(crate) backend: ExecBackend,
    /// The main thread's register file and call stack under the bytecode
    /// backend, reused across runs.
    pub(crate) scratch: Scratch<u32>,
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

/// A run's secrets, drawn from the TRNG seeded with the run's seed in
/// the one order that construction and respawn share: guard key,
/// canary, pseudo-PRNG seed, then the `stack_rng` source.
fn draw_secrets(scheme: SchemeKind, trng_seed: u64) -> (u64, u64, u64, EntropySource) {
    let mut trng = SeededTrng::new(trng_seed);
    let guard_key = trng.next_u64();
    let canary = trng.next_u64() | 0xff; // never zero
    let pseudo_seed = trng.next_u64();
    (guard_key, canary, pseudo_seed, build_source(scheme, trng))
}

impl Vm {
    /// The real constructor. `compiled` is the module's compiled value.
    pub(crate) fn new_internal(compiled: Arc<CompiledModule>, cfg: VmConfig) -> Vm {
        let (guard_key, canary, pseudo_seed, rng) = draw_secrets(cfg.scheme, cfg.trng_seed);

        let mut mem = Memory::new(cfg.mem);
        // Rodata is the compiled module's shared image, mapped rather
        // than copied; only the data globals are written per VM.
        let gl = &compiled.globals;
        mem.map_rodata(Arc::clone(&gl.rodata));
        mem.set_rodata_used(gl.rodata_used);

        if let Some(r) = &cfg.recorder {
            let names: Vec<String> = compiled
                .module
                .funcs
                .iter()
                .map(|f| f.name.clone())
                .collect();
            r.on_functions(&names);
        }

        let mut vm = Vm {
            compiled,
            mem,
            scheme: cfg.scheme,
            rng,
            guard_key,
            canary,
            stack_base_offset: cfg.stack_base_offset,
            fuel: cfg.fuel,
            record_allocas: cfg.record_allocas,
            recorder: cfg.recorder,
            backend: cfg.backend,
            scratch: Scratch::default(),
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
        };
        vm.install_data(pseudo_seed);
        vm
    }

    /// Write the data globals' initializers and the memory-resident
    /// pseudo-PRNG state (the first eight data bytes).
    fn install_data(&mut self, pseudo_seed: u64) {
        let gl = &self.compiled.globals;
        // Loader precondition, met once per construction and respawn and
        // never by a running program: the module's data globals fit
        // `MemConfig::data_size`. `layout_globals` packs them from
        // `DATA_BASE + 8`, so the state slot below always fits.
        for (addr, bytes) in &gl.data_blits {
            self.mem
                .write_init(*addr, bytes)
                .expect("data global fits the data segment");
        }
        self.mem.set_data_used(gl.data_used);
        self.mem
            .write_init(layout::DATA_BASE, &pseudo_seed.to_le_bytes())
            .expect("pseudo-PRNG slot lies in the data segment");
    }

    /// Re-arm this VM for a fresh run under a new TRNG seed, reusing
    /// every allocation the previous runs paid for: the memory segments,
    /// the bytecode register file and call stack, and the compiled
    /// value. The cost follows the bytes a run can dirty: data, heap and
    /// stack are re-zeroed over their dirty spans, then only the data
    /// globals and the pseudo-PRNG slot are rewritten. The rodata image
    /// (string literals, the P-BOX) stays mapped from construction:
    /// program stores to read-only segments fault, and only the loader
    /// uses `Memory::write_init`. After `respawn` the VM is
    /// observationally identical to a freshly-constructed one with the
    /// same config — both draw their secrets through one function and
    /// write the data image through another, which the backends
    /// bit-identity tests pin.
    pub fn respawn(&mut self, trng_seed: u64) {
        let offset = self.stack_base_offset;
        self.respawn_configured(trng_seed, offset);
    }

    /// [`Vm::respawn`] with a per-run stack base offset (the resident
    /// analog of [`crate::Executor::vm_configured`]).
    pub fn respawn_configured(&mut self, trng_seed: u64, stack_base_offset: u64) {
        let pseudo_seed;
        (self.guard_key, self.canary, pseudo_seed, self.rng) = draw_secrets(self.scheme, trng_seed);
        self.trng_seed = trng_seed;
        self.stack_base_offset = stack_base_offset;

        self.mem.reset();
        self.install_data(pseudo_seed);

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

    /// Address of a global ([`CompiledModule::global_addr`]).
    ///
    /// # Panics
    ///
    /// Panics if `name` is not a global of the module.
    pub fn global_addr(&self, name: &str) -> u64 {
        self.compiled.global_addr(name)
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
        let module = &self.compiled.module;
        // Caller contract (see # Panics), not reachable from a program.
        let fid = module
            .func_by_name(entry)
            .unwrap_or_else(|| panic!("no function named {entry}"));
        assert_eq!(
            module.func(fid).params.len(),
            args.len(),
            "entry argument count"
        );
        self.sp = layout::STACK_TOP - layout::STACK_START_GAP - self.stack_base_offset;
        self.sp &= !0xf;
        self.stack_limit = self.mem.stack_base();
        self.next_preempt = u64::MAX;
        self.pending_block = false;
        self.sched = None;
        self.max_depth = 1;
        let compiled = Arc::clone(&self.compiled);
        let exit = match self.backend {
            ExecBackend::Bytecode => {
                let mut main = std::mem::take(&mut self.scratch);
                let exit = self.run_threads(&*compiled, &mut main, fid.0, args, input);
                self.scratch = main;
                exit
            }
            ExecBackend::Interp => {
                let interp = Interp {
                    module: &compiled.module,
                    global_addrs: &compiled.globals.addrs,
                    slab_classes: &compiled.slab_classes,
                };
                self.run_threads(&interp, &mut Scratch::default(), fid.0, args, input)
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

    /// Execute one intrinsic for function `func`, whose frame's
    /// guard/canary counters the caller passes (see
    /// `Vm::call_intrinsic`, the one call site both backends share).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn exec_intrinsic(
        &mut self,
        which: Intrinsic,
        argv: &[u64],
        input: &mut dyn InputSource,
        func: u32,
        result: Option<u32>,
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
                let c = COST.bulk_cost(which, bytes.len() as u64);
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
                let c = COST.bulk_cost(Intrinsic::Strlen, len);
                self.charge(CycleCategory::Bulk, c);
                self.output.push(OutputEvent::Str(bytes));
                Ok(None)
            }
            Intrinsic::Memcpy => {
                let (dst, src, n) = (argv[0], argv[1], argv[2]);
                let bytes = self.mem.read(src, n).map_err(FaultKind::Mem)?.to_vec();
                self.mem.write(dst, &bytes).map_err(FaultKind::Mem)?;
                let c = COST.bulk_cost(which, n);
                self.charge(CycleCategory::Bulk, c);
                Ok(None)
            }
            Intrinsic::Memset => {
                let (dst, byte, n) = (argv[0], argv[1] as u8, argv[2]);
                self.mem
                    .write(dst, &vec![byte; n as usize])
                    .map_err(FaultKind::Mem)?;
                let c = COST.bulk_cost(which, n);
                self.charge(CycleCategory::Bulk, c);
                Ok(None)
            }
            Intrinsic::Strlen => {
                let n = self.mem.strlen(argv[0]).map_err(FaultKind::Mem)?;
                let c = COST.bulk_cost(which, n);
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
                let c = COST.bulk_cost(which, would);
                self.charge(CycleCategory::Bulk, c);
                Ok(Some(would))
            }
            Intrinsic::Malloc => {
                let size = smokestack_ir::align_to(argv[0].max(1), 16);
                let c = COST.bulk_cost(which, 0);
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
                let c = COST.bulk_cost(which, 0);
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
                    Some(s) => COST.rng_contention * s.live_threads().saturating_sub(1),
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
                            // Invariant: `sched_spawn` gives every worker
                            // a source, dropped only once it finishes.
                            s.threads[cur]
                                .rng
                                .as_mut()
                                .expect("a running worker has its rng")
                                .next_u64()
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
                    if let Some((reg, mask)) = self.compiled.pbox_draws[func as usize] {
                        if result == Some(reg.0) {
                            self.emit(Event::PboxSelect {
                                func,
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
                if self.recorder.is_some() {
                    self.emit(Event::GuardCheck {
                        func,
                        kind: GuardKind::Word,
                        passed: false,
                    });
                }
                let func = self.compiled.module.funcs[func as usize].name.clone();
                Err(FaultKind::GuardViolation { func })
            }
            Intrinsic::CanaryFail => {
                if self.recorder.is_some() {
                    self.emit(Event::GuardCheck {
                        func,
                        kind: GuardKind::Canary,
                        passed: false,
                    });
                }
                let func = self.compiled.module.funcs[func as usize].name.clone();
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
                self.charge_mem(self.compiled.slab_classes[func as usize], addr);
                let sync = COST.sync_op;
                self.charge(CycleCategory::Mem, sync);
                let v = self.mem.read_uint(addr, 8).map_err(FaultKind::Mem)?;
                if argv[1] == 1 {
                    self.atomic_acquire(addr);
                }
                Ok(Some(v))
            }
            Intrinsic::AtomicStore => {
                let (addr, val) = (argv[0], argv[1]);
                self.charge_mem(self.compiled.slab_classes[func as usize], addr);
                let sync = COST.sync_op;
                self.charge(CycleCategory::Mem, sync);
                self.mem.write_uint(addr, val, 8).map_err(FaultKind::Mem)?;
                if argv[2] == 2 {
                    self.atomic_release(addr);
                }
                Ok(None)
            }
            Intrinsic::AtomicRmw => {
                let (addr, val, op, ord) = (argv[0], argv[1], argv[2], argv[3]);
                self.charge_mem(self.compiled.slab_classes[func as usize], addr);
                let sync = COST.sync_op;
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
    use smokestack_ir::{Builder, CastKind, Function, Module, RegId, Type, Value};

    /// Non-deprecated stand-in for the old `Vm::new` in tests.
    fn vm_for(m: Module, cfg: VmConfig) -> Vm {
        let exec = crate::Executor::for_module(m).build();
        Vm::new_internal(exec.compiled(), cfg)
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
