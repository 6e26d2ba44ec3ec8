//! # smokestack-vm
//!
//! A deterministic execution engine for the Smokestack IR with the
//! properties the paper's evaluation needs:
//!
//! * **Native overflow semantics.** Memory is a flat address space of
//!   rodata / data / heap / stack segments; loads and stores are checked
//!   against segments, not objects, so a buffer overflow silently
//!   corrupts adjacent data — the primitive every DOP attack builds on.
//! * **Cycle model.** Every operation charges a deterministic cost (in
//!   deci-cycles) and the `stack_rng` intrinsic charges the paper's
//!   Table I per-invocation cost of the configured scheme, so Figure 3's
//!   overhead curves can be regenerated.
//! * **Threat-model fidelity.** The attacker interacts through
//!   [`InputSource`], which hands it read/write access to all writable
//!   memory at every input request (§III-B); rodata (the P-BOX) and the
//!   VM register file (AES key/nonce, guard key, canary) stay out of
//!   reach. The insecure *pseudo* scheme keeps its PRNG state in data
//!   memory where the attacker can read and overwrite it.
//! * **`ru_maxrss` analog.** Peak resident footprint is tracked for the
//!   memory-overhead experiment (Figure 4).
//!
//! # Execution backends
//!
//! Two backends execute the same IR with bit-identical results
//! ([`RunOutcome`] equality — output events, exit/fault class, cycle
//! and instruction totals). They share one execution core: frames and
//! the register file, the thread driver, the budget step (fuel, then
//! preemption, then the instruction count), alloca, call and return,
//! indirect-callee resolution, intrinsics and memory access. They
//! differ only in how they fetch and decode an instruction and evaluate
//! its operands:
//!
//! * [`ExecBackend::Bytecode`] (default) decodes a flat bytecode lowered
//!   once per module ([`CompiledModule`], cached process-wide per
//!   module);
//! * [`ExecBackend::Interp`] decodes the IR as built, pricing each
//!   instruction per execution, and is kept as the differential oracle
//!   for lowering and decode.
//!
//! Both read the module's global layout, rodata image and per-function
//! tables from the one [`CompiledModule`].
//!
//! # Examples
//!
//! The [`Executor`] session API is the front door: it owns the
//! compiled-module cache and spawns per-run VMs.
//!
//! ```
//! use smokestack_ir::{Builder, Function, Module, Type, Value};
//! use smokestack_vm::{Executor, Exit, ScriptedInput};
//!
//! let mut m = Module::new();
//! let mut f = Function::new("main", vec![], Type::I64);
//! let mut b = Builder::new(&mut f);
//! b.ret(Some(Value::i64(7)));
//! m.add_func(f);
//!
//! let exec = Executor::for_module(m).build();
//! let out = exec.run_main(ScriptedInput::empty());
//! assert_eq!(out.exit, Exit::Return(7));
//! ```

#![warn(missing_docs)]

mod bytecode;
mod cycles;
mod dispatch;
mod exec;
mod executor;
mod interp;
mod io;
mod machine;
mod mem;
mod report;
mod sched;

pub use bytecode::{compile_module, compiled_for, CompiledModule, ExecBackend};
pub use cycles::{CostModel, CycleBreakdown, SlabClass, COST, DECI};
pub use exec::{AllocaRecord, Exit, FaultKind, RunOutcome, Vm, VmConfig};
pub use executor::{Executor, ExecutorBuilder, Session};
pub use io::{FnInput, InputSource, OutputEvent, ScriptedInput};
pub use mem::{layout, FaultLocus, MemConfig, MemFault, Memory};
pub use report::{canonical_event, escape_bytes, exit_class, FaultClass, RunReport};
pub use sched::{MAX_THREADS, THREAD_SLAB};
// Telemetry surface, re-exported so VM users configure tracing without
// naming the telemetry crate directly.
pub use smokestack_telemetry::{
    render_prometheus, CycleCategory, Event, FaultAccess, FlightRecorder, FrameSlot,
    FunctionCycles, GuardKind, IncidentReport, RecorderConfig, RecorderStats, SharedRecorder,
    StreamingHistogram, INCIDENT_SCHEMA,
};
