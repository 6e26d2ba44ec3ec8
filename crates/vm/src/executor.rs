//! [`Executor`]: the builder-style session API over the VM.
//!
//! An `Executor` owns everything that is *per-build* rather than
//! *per-run*: the module, the hardening scheme, the cost model, the
//! flight recorder, and — crucially — the compiled bytecode image,
//! resolved once through the process-wide cache and shared by every VM
//! the session spawns. Campaign trials, fuzz variants, and benchmark
//! repetitions construct one `Executor` per build and then spawn
//! thousands of cheap per-seed VMs from it:
//!
//! ```
//! use smokestack_vm::{Executor, ScriptedInput};
//! use smokestack_ir::{Builder, Function, Module, Type, Value};
//!
//! let mut m = Module::new();
//! let mut f = Function::new("main", vec![], Type::I64);
//! let mut b = Builder::new(&mut f);
//! b.ret(Some(Value::i64(7)));
//! m.add_func(f);
//!
//! let exec = Executor::for_module(m).trng_seed(1).build();
//! let mut input = ScriptedInput::empty();
//! assert_eq!(exec.run_main_with(&mut input).exit, smokestack_vm::Exit::Return(7));
//! ```

use std::cell::OnceCell;
use std::sync::Arc;

use smokestack_ir::Module;
use smokestack_srng::SchemeKind;
use smokestack_telemetry::SharedRecorder;

use crate::bytecode::{compiled_for, CompiledModule, ExecBackend};
use crate::cycles::CostModel;
use crate::exec::{RunOutcome, Vm, VmConfig};
use crate::io::InputSource;
use crate::mem::MemConfig;
use crate::report::RunReport;

/// A VM session: one module + build configuration, many runs.
///
/// Cloning is cheap and shares the compiled image; clones are the
/// intended way to fork a session with one knob changed (see
/// [`Executor::with_record_allocas`]).
#[derive(Clone)]
pub struct Executor {
    module: Arc<Module>,
    scheme: SchemeKind,
    trng_seed: u64,
    stack_base_offset: u64,
    fuel: u64,
    mem: MemConfig,
    cost: CostModel,
    record_allocas: bool,
    backend: ExecBackend,
    sched_seed: u64,
    detect_races: bool,
    recorder: Option<SharedRecorder>,
    /// Lazily-resolved compiled image (interior so `&self` spawning
    /// works; `OnceCell` because a session never changes module/cost).
    compiled: OnceCell<Arc<CompiledModule>>,
}

/// Builder returned by [`Executor::for_module`]. Every knob defaults to
/// the corresponding [`VmConfig::default`] value.
pub struct ExecutorBuilder {
    inner: Executor,
}

impl ExecutorBuilder {
    /// Table I randomness scheme served to `stack_rng`.
    pub fn scheme(mut self, scheme: SchemeKind) -> Self {
        self.inner.scheme = scheme;
        self
    }

    /// Session-default TRNG seed (per-run seeds via
    /// [`Executor::vm_seeded`] take precedence).
    pub fn trng_seed(mut self, seed: u64) -> Self {
        self.inner.trng_seed = seed;
        self
    }

    /// Extra offset subtracted from the initial stack pointer.
    pub fn stack_base_offset(mut self, offset: u64) -> Self {
        self.inner.stack_base_offset = offset;
        self
    }

    /// Instruction budget per run.
    pub fn fuel(mut self, fuel: u64) -> Self {
        self.inner.fuel = fuel;
        self
    }

    /// Memory segment sizes.
    pub fn mem(mut self, mem: MemConfig) -> Self {
        self.inner.mem = mem;
        self
    }

    /// Cycle-cost parameters (part of the compiled-image fingerprint).
    pub fn cost(mut self, cost: CostModel) -> Self {
        self.inner.cost = cost;
        self
    }

    /// Record every stack allocation (address/size/name) per run.
    pub fn record_allocas(mut self, record: bool) -> Self {
        self.inner.record_allocas = record;
        self
    }

    /// Execution engine (bytecode by default).
    pub fn backend(mut self, backend: ExecBackend) -> Self {
        self.inner.backend = backend;
        self
    }

    /// Scheduler seed for threaded programs: one seed fully determines
    /// the preemption schedule (and so the interleaving).
    pub fn sched_seed(mut self, seed: u64) -> Self {
        self.inner.sched_seed = seed;
        self
    }

    /// Enable the data-race detector (off by default).
    pub fn detect_races(mut self, on: bool) -> Self {
        self.inner.detect_races = on;
        self
    }

    /// Flight recorder, cloned into every spawned VM.
    pub fn recorder(mut self, recorder: SharedRecorder) -> Self {
        self.inner.recorder = Some(recorder);
        self
    }

    /// Finish the session.
    pub fn build(self) -> Executor {
        self.inner
    }
}

impl Executor {
    /// Start building a session for `module`. Accepts an owned
    /// [`Module`] or a shared [`Arc<Module>`]; sessions built from the
    /// same `Arc` share one compiled image through the process cache.
    pub fn for_module(module: impl Into<Arc<Module>>) -> ExecutorBuilder {
        ExecutorBuilder {
            inner: Executor {
                module: module.into(),
                scheme: SchemeKind::Aes10,
                trng_seed: 0x5eed,
                stack_base_offset: 0,
                fuel: 200_000_000,
                mem: MemConfig::default(),
                cost: CostModel::default(),
                record_allocas: false,
                backend: ExecBackend::default(),
                sched_seed: 0,
                detect_races: false,
                recorder: None,
                compiled: OnceCell::new(),
            },
        }
    }

    /// The module this session executes.
    pub fn module(&self) -> &Arc<Module> {
        &self.module
    }

    /// The session's randomness scheme.
    pub fn scheme(&self) -> SchemeKind {
        self.scheme
    }

    /// The session's execution backend.
    pub fn backend(&self) -> ExecBackend {
        self.backend
    }

    /// The session's flight recorder, if any.
    pub fn recorder(&self) -> Option<&SharedRecorder> {
        self.recorder.as_ref()
    }

    /// Fork the session with alloca recording switched on/off (used by
    /// disclosure probes, which need the allocation trace of a single
    /// run without re-compiling the build).
    pub fn with_record_allocas(mut self, record: bool) -> Executor {
        self.record_allocas = record;
        self
    }

    /// Fork the session with a flight recorder attached; the compiled
    /// image carries over (incident capture re-runs a deciding attempt
    /// through such a fork).
    pub fn with_recorder(mut self, recorder: SharedRecorder) -> Executor {
        self.recorder = Some(recorder);
        self
    }

    /// Fork the session onto a different execution backend; the
    /// compiled image carries over (under [`ExecBackend::Interp`] its
    /// global layout and per-function tables are read, its bytecode is
    /// not).
    pub fn with_backend(mut self, backend: ExecBackend) -> Executor {
        self.backend = backend;
        self
    }

    /// Fork the session with a different scheduler seed (the
    /// interleaving knob for threaded programs); the compiled image
    /// carries over.
    pub fn with_sched_seed(mut self, seed: u64) -> Executor {
        self.sched_seed = seed;
        self
    }

    /// Fork the session with the data-race detector toggled.
    pub fn with_detect_races(mut self, on: bool) -> Executor {
        self.detect_races = on;
        self
    }

    /// The session's compiled bytecode image, lowering on first use.
    /// Identical `(module, cost-model)` sessions — clones, or sessions
    /// over the same `Arc<Module>` — return the same `Arc`.
    pub fn compiled(&self) -> Arc<CompiledModule> {
        Arc::clone(
            self.compiled
                .get_or_init(|| compiled_for(&self.module, &self.cost)),
        )
    }

    /// The [`VmConfig`] a spawned VM gets, before per-run overrides.
    pub fn base_config(&self) -> VmConfig {
        VmConfig {
            scheme: self.scheme,
            trng_seed: self.trng_seed,
            stack_base_offset: self.stack_base_offset,
            fuel: self.fuel,
            mem: self.mem,
            cost: self.cost,
            record_allocas: self.record_allocas,
            recorder: self.recorder.clone(),
            backend: self.backend,
            sched_seed: self.sched_seed,
            detect_races: self.detect_races,
        }
    }

    /// Spawn a fresh VM with the session defaults.
    pub fn vm(&self) -> Vm {
        self.vm_with_config(self.base_config())
    }

    /// Spawn a fresh VM with a per-run TRNG seed.
    pub fn vm_seeded(&self, trng_seed: u64) -> Vm {
        self.vm_with_config(VmConfig {
            trng_seed,
            ..self.base_config()
        })
    }

    /// Spawn a fresh VM with a per-run TRNG seed and stack-base offset
    /// (the stack-base-randomization baseline re-draws the offset per
    /// run).
    pub fn vm_configured(&self, trng_seed: u64, stack_base_offset: u64) -> Vm {
        self.vm_with_config(VmConfig {
            trng_seed,
            stack_base_offset,
            ..self.base_config()
        })
    }

    /// Escape hatch: spawn a VM from an explicit [`VmConfig`] while
    /// still reusing the session's compiled image (the image is
    /// revalidated against the config's cost model, so any override is
    /// safe).
    pub fn vm_with_config(&self, cfg: VmConfig) -> Vm {
        Vm::new_internal(self.compiled(), cfg)
    }

    /// Run `main` once with the session defaults.
    pub fn run_main(&self, mut input: impl InputSource) -> RunOutcome {
        self.run_main_with(&mut input)
    }

    /// Run `main` once against a borrowed input source (replayable
    /// across runs without rebuilding it).
    pub fn run_main_with(&self, input: &mut dyn InputSource) -> RunOutcome {
        self.vm().run_main_with(input)
    }

    /// Run `main` once with a per-run TRNG seed.
    pub fn run_main_seeded(&self, trng_seed: u64, input: &mut dyn InputSource) -> RunOutcome {
        self.vm_seeded(trng_seed).run_main_with(input)
    }

    /// Run an arbitrary entry function once with the session defaults.
    ///
    /// # Panics
    ///
    /// Panics if the function does not exist or the argument count is
    /// wrong.
    pub fn run(&self, entry: &str, args: &[u64], mut input: impl InputSource) -> RunOutcome {
        self.vm().run_with(entry, args, &mut input)
    }

    /// Run `main` once and reduce to the canonical [`RunReport`].
    pub fn report_main(&self, input: &mut dyn InputSource) -> RunReport {
        RunReport::from(self.run_main_with(input))
    }

    /// Open a resident [`Session`]: one long-lived VM that is respawned
    /// (not rebuilt) before every run, reusing its memory segments,
    /// register file, and call stack across requests. The cheap path for
    /// servers that keep thousands of tenant sessions alive.
    pub fn session(&self) -> Session {
        Session { vm: self.vm() }
    }
}

/// A resident VM session spawned by [`Executor::session`].
///
/// Each `run_main_*` call respawns the underlying VM under the given
/// per-request seed before executing, so every request observes exactly
/// the state a freshly-spawned VM would — the backends test suite pins
/// reused-session outcomes bit-identical to fresh-VM outcomes — while
/// the segment buffers, bytecode register file, and call-stack
/// allocations persist across requests.
pub struct Session {
    vm: Vm,
}

impl Session {
    /// Run `main` under a per-request TRNG seed.
    pub fn run_main_seeded(&mut self, trng_seed: u64, input: &mut dyn InputSource) -> RunOutcome {
        self.vm.respawn(trng_seed);
        self.vm.run_main_with(input)
    }

    /// Run `main` under a per-request TRNG seed and stack-base offset
    /// (defenses that re-draw the base offset per run need both knobs).
    pub fn run_main_configured(
        &mut self,
        trng_seed: u64,
        stack_base_offset: u64,
        input: &mut dyn InputSource,
    ) -> RunOutcome {
        self.vm.respawn_configured(trng_seed, stack_base_offset);
        self.vm.run_main_with(input)
    }

    /// Run `main` under a per-request TRNG seed *and* scheduler seed
    /// (threaded replay: the pair fully determines the run).
    pub fn run_main_interleaved(
        &mut self,
        trng_seed: u64,
        sched_seed: u64,
        input: &mut dyn InputSource,
    ) -> RunOutcome {
        self.vm.respawn(trng_seed);
        self.vm.set_sched_seed(sched_seed);
        self.vm.run_main_with(input)
    }

    /// The resident VM (post-mortem memory inspection between runs).
    pub fn vm(&self) -> &Vm {
        &self.vm
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::ScriptedInput;
    use smokestack_ir::{Builder, Function, Type, Value};

    fn sample() -> Arc<Module> {
        let mut m = Module::new();
        let mut f = Function::new("main", vec![], Type::I64);
        let mut b = Builder::new(&mut f);
        b.ret(Some(Value::i64(9)));
        m.add_func(f);
        Arc::new(m)
    }

    #[test]
    fn sessions_over_one_module_share_the_compiled_image() {
        let m = sample();
        let a = Executor::for_module(Arc::clone(&m)).build();
        let b = Executor::for_module(Arc::clone(&m)).build();
        assert!(Arc::ptr_eq(&a.compiled(), &b.compiled()));
        // Clones share trivially.
        let c = a.clone();
        assert!(Arc::ptr_eq(&a.compiled(), &c.compiled()));
    }

    #[test]
    fn replay_reuses_a_borrowed_input() {
        let exec = Executor::for_module(sample()).build();
        let mut input = ScriptedInput::empty();
        let one = exec.run_main_with(&mut input);
        let two = exec.run_main_with(&mut input);
        assert_eq!(one.decicycles, two.decicycles);
        assert_eq!(exec.report_main(&mut input).exit_class, "return:9");
    }

    #[test]
    fn resident_session_matches_fresh_vms() {
        let exec = Executor::for_module(sample()).build();
        let mut session = exec.session();
        for seed in [3u64, 99, 3, 0xdead] {
            let mut input = ScriptedInput::empty();
            let resident = session.run_main_seeded(seed, &mut input);
            let mut input = ScriptedInput::empty();
            let fresh = exec.run_main_seeded(seed, &mut input);
            assert_eq!(resident.exit, fresh.exit);
            assert_eq!(resident.decicycles, fresh.decicycles);
            assert_eq!(resident.insts, fresh.insts);
            assert_eq!(resident.peak_rss, fresh.peak_rss);
        }
    }

    #[test]
    fn interp_backend_session_spawns_interp_vms() {
        let exec = Executor::for_module(sample())
            .backend(ExecBackend::Interp)
            .build();
        assert_eq!(exec.backend(), ExecBackend::Interp);
        assert_eq!(exec.run_main(ScriptedInput::empty()).decicycles, 20);
    }
}
