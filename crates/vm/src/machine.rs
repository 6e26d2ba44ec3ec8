//! The execution core both backends share.
//!
//! Everything the interpreter ([`crate::interp`]) and the bytecode
//! dispatcher ([`crate::dispatch`]) have in common exists here, once:
//! the activation record and register file ([`Frame`], [`Scratch`]),
//! the thread driver, the per-instruction budget step, and every
//! operation whose semantics must not depend on the backend — alloca,
//! call and return, indirect-callee resolution, the intrinsic-call
//! glue, and plain loads and stores. A backend supplies only a
//! [`Decode`]: how to fetch the instruction at a decode position and
//! how to evaluate its operands. Bit-identity between the backends so
//! reduces to agreeing on decode, which is what the interpreter is kept
//! to check.

use std::convert::Infallible;

use smokestack_ir::Intrinsic;
use smokestack_telemetry::{CycleCategory, Event, GuardKind};

use crate::cycles::{SlabClass, COST};
use crate::exec::{AllocaRecord, Exit, FaultKind, Vm};
use crate::io::InputSource;
use crate::mem::layout;

/// Deepest call stack a thread may build; one more call faults with
/// [`FaultKind::StackOverflow`] even when no alloca ran out of stack.
pub(crate) const MAX_CALL_DEPTH: usize = 100_000;

/// Why an execution slice ended.
pub(crate) enum SliceEnd {
    /// The thread finished (or the program exited / faulted).
    Exit(Exit),
    /// The quantum expired at a preemption point.
    Preempt,
    /// The thread blocked in an intrinsic (which was rewound and will
    /// re-execute when the thread wakes).
    Block,
}

impl From<FaultKind> for SliceEnd {
    #[inline]
    fn from(f: FaultKind) -> SliceEnd {
        SliceEnd::Exit(Exit::Fault(f))
    }
}

/// One live activation record. `P` is the backend's decode position.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Frame<P> {
    pub(crate) func: u32,
    /// Where the frame resumes. Only current while the frame is not
    /// running: a slice loop keeps the running frame's position in a
    /// local and writes it back on call, preemption and block.
    pub(crate) pos: P,
    /// The frame's window origin in [`Scratch::regs`].
    pub(crate) base: usize,
    pub(crate) entry_sp: u64,
    /// Lowest stack pointer this frame's allocas reached (frame size =
    /// `entry_sp - low_sp`).
    pub(crate) low_sp: u64,
    pub(crate) ret_reg: Option<u32>,
    /// `guard_key` intrinsic calls in this frame (call #1 is the
    /// prologue store; each later call is an epilogue check).
    pub(crate) guard_calls: u32,
    /// `canary` intrinsic calls in this frame (same convention).
    pub(crate) canary_calls: u32,
}

/// One thread's register file (per-frame windows carved out of a single
/// `Vec`) and call stack. The main thread's lives on the [`Vm`] and
/// survives across runs, so a resident session touches the allocator
/// only when the high-water mark grows.
#[derive(Debug)]
pub(crate) struct Scratch<P> {
    pub(crate) regs: Vec<u64>,
    pub(crate) frames: Vec<Frame<P>>,
}

impl<P> Default for Scratch<P> {
    fn default() -> Self {
        Scratch {
            regs: Vec::new(),
            frames: Vec::new(),
        }
    }
}

impl<P> Scratch<P> {
    /// The running frame.
    #[inline]
    pub(crate) fn top(&mut self) -> &mut Frame<P> {
        // Invariant: a slice runs only with a nonempty call stack — the
        // driver pushes a thread's entry frame before its first slice,
        // and `Vm::ret` ends the slice when it pops the last frame.
        self.frames
            .last_mut()
            .expect("a slice runs on a nonempty call stack")
    }

    /// Enter `func` at `pos` with its register window at `base` and the
    /// stack pointer at `sp`.
    fn push(&mut self, func: u32, pos: P, base: usize, sp: u64, ret_reg: Option<u32>) {
        self.frames.push(Frame {
            func,
            pos,
            base,
            entry_sp: sp,
            low_sp: sp,
            ret_reg,
            guard_calls: 0,
            canary_calls: 0,
        });
    }
}

/// What a backend supplies to the core: its decode position, its
/// operand form, and the loop that fetches, decodes and executes.
pub(crate) trait Decode {
    /// A position inside a function body.
    type Pos: Copy;
    /// An operand as the backend holds it.
    type Operand;
    /// The position of a function's first instruction.
    const ENTRY: Self::Pos;

    /// Register-window size of function `func`.
    fn reg_count(&self, func: u32) -> usize;

    /// Evaluate `o` against the register window at `base`.
    fn eval(&self, regs: &[u64], base: usize, o: &Self::Operand) -> u64;

    /// Run the current thread until its quantum expires, it blocks, or
    /// it finishes. Each instruction takes [`Vm::tick`] first, then its
    /// static charge, then executes — bit-identity depends on it.
    fn run_slice(
        &self,
        vm: &mut Vm,
        stack: &mut Scratch<Self::Pos>,
        input: &mut dyn InputSource,
    ) -> Result<Infallible, SliceEnd>;
}

impl Vm {
    /// The thread driver: runs slices of the current thread and rotates
    /// through the scheduler between them. Each spawned thread gets its
    /// own [`Scratch`]; memory is shared through the `Vm`.
    /// Single-threaded programs take exactly one slice (the preemption
    /// compare is disarmed at `u64::MAX`, and `sched_pick_next` is a
    /// no-op while `sched` is `None`).
    pub(crate) fn run_threads<D: Decode>(
        &mut self,
        d: &D,
        main: &mut Scratch<D::Pos>,
        entry: u32,
        args: &[u64],
        input: &mut dyn InputSource,
    ) -> Exit {
        self.start_thread(d, main, entry, args);
        let mut workers: Vec<Scratch<D::Pos>> = Vec::new();
        loop {
            let worker = self
                .sched
                .as_deref()
                .filter(|s| s.cur != 0)
                .map(|s| (s.cur, s.threads[s.cur].entry.0, s.threads[s.cur].arg));
            let stack = match worker {
                None => &mut *main,
                Some((cur, entry, arg)) => {
                    if workers.len() < cur {
                        workers.resize_with(cur, Scratch::default);
                    }
                    let stack = &mut workers[cur - 1];
                    if stack.frames.is_empty() {
                        // First slice of this thread: `sched_pick_next`
                        // already restored `sp` to the top of its slab.
                        self.start_thread(d, stack, entry, &[arg]);
                    }
                    stack
                }
            };
            let Err(end) = d.run_slice(self, stack, input);
            if let SliceEnd::Exit(exit) = end {
                match worker {
                    // Main returning (or any exit/fault) ends the whole
                    // run — process semantics.
                    None => return exit,
                    Some((cur, ..)) => {
                        if let Some(fatal) = self.sched_thread_finished(cur, exit) {
                            return fatal;
                        }
                    }
                }
            }
            if let Err(fault) = self.sched_pick_next() {
                return Exit::Fault(fault);
            }
        }
    }

    /// Reset `stack` to one entry frame for `func` at the current stack
    /// pointer, with `args` in its first registers.
    fn start_thread<D: Decode>(
        &mut self,
        d: &D,
        stack: &mut Scratch<D::Pos>,
        func: u32,
        args: &[u64],
    ) {
        stack.regs.clear();
        stack.regs.resize(d.reg_count(func), 0);
        stack.regs[..args.len()].copy_from_slice(args);
        stack.frames.clear();
        stack.push(func, D::ENTRY, 0, self.sp, None);
        self.emit(Event::FuncEnter { func, depth: 1 });
    }

    /// The budget step every instruction pays before it executes: fuel,
    /// then preemption, then `insts += 1`. On preemption the running
    /// frame's position `pos` is saved so the thread resumes there.
    #[inline(always)]
    pub(crate) fn tick<P>(&mut self, stack: &mut Scratch<P>, pos: P) -> Result<(), SliceEnd> {
        if self.insts >= self.fuel {
            return Err(FaultKind::OutOfFuel.into());
        }
        if self.insts >= self.next_preempt {
            stack.top().pos = pos;
            return Err(SliceEnd::Preempt);
        }
        self.insts += 1;
        Ok(())
    }

    /// Grow the running frame's stack by `elem_size * count` bytes
    /// aligned to `align` and write the new address to register
    /// `result`. An unpayable size or a stack pointer below the thread's
    /// limit is a stack overflow.
    #[inline]
    pub(crate) fn alloca<P>(
        &mut self,
        stack: &mut Scratch<P>,
        result: u32,
        elem_size: u64,
        count: u64,
        align: u64,
        name: &str,
    ) -> Result<(), FaultKind> {
        let size = elem_size
            .checked_mul(count)
            .ok_or(FaultKind::StackOverflow)?;
        let new_sp = self.sp.checked_sub(size).ok_or(FaultKind::StackOverflow)? & !(align - 1);
        if new_sp < self.stack_limit {
            return Err(FaultKind::StackOverflow);
        }
        self.sp = new_sp;
        self.mem.note_stack_pointer(new_sp);
        let depth = stack.frames.len();
        let top = stack.top();
        top.low_sp = top.low_sp.min(new_sp);
        let (func, base) = (top.func, top.base);
        stack.regs[base + result as usize] = new_sp;
        if self.recorder.is_some() {
            self.emit(Event::Alloca {
                func,
                addr: new_sp,
                size,
            });
        }
        if self.record_allocas {
            self.alloca_trace.push(AllocaRecord {
                func: self.compiled.module.funcs[func as usize].name.clone(),
                var: name.to_string(),
                addr: new_sp,
                size,
                depth,
            });
        }
        Ok(())
    }

    /// Call `callee`: push its frame with `args` (evaluated against the
    /// caller's window at `caller_base`) in its first registers. The
    /// caller resumes at `resume`; its return value, if any, lands in
    /// `ret_reg`. Returns the callee's `(func, base, pos)`.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub(crate) fn call<D: Decode>(
        &mut self,
        d: &D,
        stack: &mut Scratch<D::Pos>,
        callee: u32,
        args: &[D::Operand],
        ret_reg: Option<u32>,
        caller_base: usize,
        resume: D::Pos,
    ) -> Result<(u32, usize, D::Pos), FaultKind> {
        if stack.frames.len() >= MAX_CALL_DEPTH {
            return Err(FaultKind::StackOverflow);
        }
        stack.top().pos = resume;
        let base = stack.regs.len();
        stack.regs.resize(base + d.reg_count(callee), 0);
        for (i, a) in args.iter().enumerate() {
            let v = d.eval(&stack.regs, caller_base, a);
            stack.regs[base + i] = v;
        }
        stack.push(callee, D::ENTRY, base, self.sp, ret_reg);
        let depth = stack.frames.len();
        self.max_depth = self.max_depth.max(depth);
        self.emit(Event::FuncEnter {
            func: callee,
            depth: depth as u32,
        });
        Ok((callee, base, D::ENTRY))
    }

    /// Return `val` from the running frame: restore the stack pointer,
    /// report the frame's passed epilogue checks and its exit, pop it,
    /// and write `val` to the caller's result register. Returns the
    /// caller's `(func, base, pos)`, or ends the slice when the thread's
    /// entry frame returns.
    #[inline]
    pub(crate) fn ret<P: Copy>(
        &mut self,
        stack: &mut Scratch<P>,
        val: Option<u64>,
    ) -> Result<(u32, usize, P), SliceEnd> {
        let done = *stack.top();
        self.sp = done.entry_sp;
        if self.recorder.is_some() {
            // Reaching `ret` means any epilogue integrity check
            // (guard-key/canary call #2+) passed — failures divert to
            // GuardFail/CanaryFail and never get here.
            for (calls, kind) in [
                (done.guard_calls, GuardKind::Word),
                (done.canary_calls, GuardKind::Canary),
            ] {
                if calls >= 2 {
                    self.emit(Event::GuardCheck {
                        func: done.func,
                        kind,
                        passed: true,
                    });
                }
            }
            self.emit(Event::FuncExit {
                func: done.func,
                frame_bytes: done.entry_sp - done.low_sp,
            });
        }
        stack.frames.pop();
        stack.regs.truncate(done.base);
        let Some(caller) = stack.frames.last() else {
            return Err(SliceEnd::Exit(match val {
                Some(v) => Exit::Return(v),
                None => Exit::ReturnVoid,
            }));
        };
        if let (Some(r), Some(v)) = (done.ret_reg, val) {
            stack.regs[caller.base + r as usize] = v;
        }
        Ok((caller.func, caller.base, caller.pos))
    }

    /// Decode an indirect-call target: `addr` must be a function's
    /// code-segment address and that function must take `arity`
    /// arguments.
    #[inline]
    pub(crate) fn resolve_callee(&self, addr: u64, arity: usize) -> Result<u32, FaultKind> {
        let off = addr.wrapping_sub(layout::CODE_BASE);
        match self.compiled.module.funcs.get((off / 16) as usize) {
            Some(f) if off.is_multiple_of(16) && f.params.len() == arity => Ok((off / 16) as u32),
            _ => Err(FaultKind::BadIndirectCall(addr)),
        }
    }

    /// Call intrinsic `which` with `args` from the running frame (whose
    /// call instruction sits at `at`) and write its result to `result`.
    /// A blocking intrinsic rewinds the frame to `at`, so the call
    /// re-executes (and re-charges, identically on both backends) when
    /// the thread wakes; `exit()` ends the run.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub(crate) fn call_intrinsic<D: Decode>(
        &mut self,
        d: &D,
        stack: &mut Scratch<D::Pos>,
        at: D::Pos,
        which: Intrinsic,
        args: &[D::Operand],
        result: Option<u32>,
        input: &mut dyn InputSource,
    ) -> Result<(), SliceEnd> {
        let top = stack.top();
        let (func, base) = (top.func, top.base);
        // Invariant: `ir::verify` holds every intrinsic call to its
        // signature's arity, which is at most four.
        let mut argv = [0u64; 4];
        for (slot, a) in argv.iter_mut().zip(args) {
            *slot = d.eval(&stack.regs, base, a);
        }
        let top = stack.top();
        let ret = self.exec_intrinsic(
            which,
            &argv[..args.len()],
            input,
            func,
            result,
            &mut top.guard_calls,
            &mut top.canary_calls,
        )?;
        if let (Some(r), Some(v)) = (result, ret) {
            stack.regs[base + r as usize] = v;
        }
        if self.pending_block {
            self.pending_block = false;
            stack.top().pos = at;
            return Err(SliceEnd::Block);
        }
        match self.pending_exit.take() {
            Some(code) => Err(SliceEnd::Exit(Exit::Exited(code))),
            None => Ok(()),
        }
    }

    /// Charge one load/store at `addr` by a function of slab class
    /// `slab`: the slab-class discount plus stack locality.
    #[inline]
    pub(crate) fn charge_mem(&mut self, slab: SlabClass, addr: u64) {
        let is_stack = addr >= self.mem.stack_base() && addr < layout::STACK_TOP;
        let c = COST.mem_cost(slab, is_stack);
        self.charge(CycleCategory::Mem, c);
    }

    /// A plain `size`-byte load by a function of slab class `slab`:
    /// charge, race check, read.
    #[inline]
    pub(crate) fn load(&mut self, slab: SlabClass, addr: u64, size: u64) -> Result<u64, FaultKind> {
        self.charge_mem(slab, addr);
        self.race_plain(addr, size, false)?;
        self.mem.read_uint(addr, size).map_err(FaultKind::Mem)
    }

    /// A plain `size`-byte store of `v`: charge, race check, write.
    #[inline]
    pub(crate) fn store(
        &mut self,
        slab: SlabClass,
        addr: u64,
        size: u64,
        v: u64,
    ) -> Result<(), FaultKind> {
        self.charge_mem(slab, addr);
        self.race_plain(addr, size, true)?;
        self.mem.write_uint(addr, v, size).map_err(FaultKind::Mem)
    }
}
