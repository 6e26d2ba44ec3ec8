//! The bytecode dispatcher: a single-loop, match-threaded engine over
//! [`crate::bytecode::CompiledModule`] images.
//!
//! Executes the flat bytecode with one contiguous `u64` register file
//! (per-frame windows carved out of a single `Vec`) and one reusable
//! frame stack — no allocation per call, no instruction cloning, no
//! block-map chasing. Both buffers live in [`Scratch`] on the [`Vm`]
//! and survive across runs, so an [`crate::Executor`] session replaying
//! thousands of trials touches the allocator only when the high-water
//! mark grows.
//!
//! Semantics are bit-identical to the reference interpreter in
//! [`crate::exec`] — same fetch/charge/execute order, same fuel
//! accounting (terminators are instructions), same intrinsic code path
//! (shared `Vm::exec_intrinsic`), same telemetry events. The tier-1
//! differential suite in `tests/backends.rs` pins this equivalence
//! across the workload corpus and the attack suite.

use smokestack_ir::{FuncId, RegId};
use smokestack_telemetry::{CycleCategory, Event, GuardKind};

use crate::bytecode::{BcCast, BcInst, CompiledModule, Opnd};
use crate::exec::{AllocaRecord, Exit, FaultKind, Vm};
use crate::io::InputSource;
use crate::mem::layout;
use crate::sched::SliceEnd;

/// One live activation record. `base` is the frame's window origin in
/// the shared register file; `pc` is only current when the frame is not
/// on top (the running frame's pc lives in a local).
#[derive(Debug, Clone, Copy)]
pub(crate) struct BcFrame {
    func: u32,
    pc: u32,
    base: usize,
    entry_sp: u64,
    low_sp: u64,
    ret_reg: Option<u32>,
    guard_calls: u32,
    canary_calls: u32,
}

/// Reusable register file and call stack, owned by the [`Vm`] so
/// repeated runs reuse the buffers.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    regs: Vec<u64>,
    frames: Vec<BcFrame>,
}

/// Evaluate a pre-folded operand against the current register window.
#[inline(always)]
fn ev(regs: &[u64], base: usize, o: Opnd) -> u64 {
    match o {
        Opnd::Reg(r) => regs[base + r as usize],
        Opnd::Imm(v) => v,
    }
}

/// Entry point from [`Vm::run_with`]: the caller has already set the
/// initial stack pointer and emitted the entry `FuncEnter` event.
pub(crate) fn run_compiled(
    vm: &mut Vm,
    entry: FuncId,
    args: &[u64],
    input: &mut dyn InputSource,
) -> Exit {
    let cm = vm
        .compiled
        .clone()
        .expect("bytecode backend requires a compiled module");
    let mut scratch = std::mem::take(&mut vm.scratch);
    let exit = exec(vm, &cm, &mut scratch, entry, args, input);
    vm.scratch = scratch;
    exit
}

/// Grow the stack by `size` bytes aligned to `align`, mirroring the
/// interpreter's alloca path exactly (including the overflow-as-
/// stack-overflow contract and alloca recording).
#[allow(clippy::too_many_arguments)]
#[inline]
fn alloca(
    vm: &mut Vm,
    cm: &CompiledModule,
    scratch: &mut Scratch,
    fidx: u32,
    base: usize,
    result: u32,
    size: u64,
    align: u64,
    name: u32,
) -> Result<(), FaultKind> {
    let new_sp = vm.sp.checked_sub(size).ok_or(FaultKind::StackOverflow)? & !(align - 1);
    if new_sp < vm.stack_limit {
        return Err(FaultKind::StackOverflow);
    }
    vm.sp = new_sp;
    vm.mem.note_stack_pointer(new_sp);
    if vm.recorder.is_some() {
        vm.emit(Event::Alloca {
            func: fidx,
            addr: new_sp,
            size,
        });
    }
    if vm.record_allocas {
        vm.alloca_trace.push(AllocaRecord {
            func: cm.module.funcs[fidx as usize].name.clone(),
            var: cm.alloca_names[name as usize].clone(),
            addr: new_sp,
            size,
            depth: scratch.frames.len(),
        });
    }
    let top = scratch.frames.last_mut().expect("frame");
    top.low_sp = top.low_sp.min(new_sp);
    scratch.regs[base + result as usize] = new_sp;
    Ok(())
}

/// Push an activation record for `callee`. Returns the new frame's
/// register-window base; the argument values are evaluated against the
/// caller's window and written directly into the callee's.
#[allow(clippy::too_many_arguments)]
fn push_frame(
    vm: &mut Vm,
    cm: &CompiledModule,
    scratch: &mut Scratch,
    callee: u32,
    args: &[Opnd],
    ret_reg: Option<u32>,
    caller_base: usize,
    caller_pc: u32,
) -> Result<usize, FaultKind> {
    if scratch.frames.len() >= 100_000 {
        return Err(FaultKind::StackOverflow);
    }
    scratch.frames.last_mut().expect("frame").pc = caller_pc;
    let f = &cm.funcs[callee as usize];
    let new_base = scratch.regs.len();
    scratch.regs.resize(new_base + f.reg_count as usize, 0);
    for (i, a) in args.iter().enumerate() {
        let v = ev(&scratch.regs, caller_base, *a);
        scratch.regs[new_base + i] = v;
    }
    scratch.frames.push(BcFrame {
        func: callee,
        pc: 0,
        base: new_base,
        entry_sp: vm.sp,
        low_sp: vm.sp,
        ret_reg,
        guard_calls: 0,
        canary_calls: 0,
    });
    vm.max_depth = vm.max_depth.max(scratch.frames.len());
    vm.emit(Event::FuncEnter {
        func: callee,
        depth: scratch.frames.len() as u32,
    });
    Ok(new_base)
}

/// Top-level bytecode driver, mirroring the interpreter's `exec_loop`:
/// runs slices of the current thread and rotates through the scheduler
/// between them. Each spawned thread gets its own [`Scratch`] (register
/// file + call stack); memory is shared through the `Vm`.
fn exec(
    vm: &mut Vm,
    cm: &CompiledModule,
    scratch: &mut Scratch,
    entry: FuncId,
    args: &[u64],
    input: &mut dyn InputSource,
) -> Exit {
    scratch.frames.clear();
    scratch.regs.clear();
    scratch
        .regs
        .resize(cm.funcs[entry.0 as usize].reg_count as usize, 0);
    scratch.regs[..args.len()].copy_from_slice(args);
    scratch.frames.push(BcFrame {
        func: entry.0,
        pc: 0,
        base: 0,
        entry_sp: vm.sp,
        low_sp: vm.sp,
        ret_reg: None,
        guard_calls: 0,
        canary_calls: 0,
    });

    let mut extra: Vec<Scratch> = Vec::new();
    loop {
        let cur = vm.sched.as_deref().map_or(0, |s| s.cur);
        if cur != 0 && extra.len() < cur {
            extra.resize_with(cur, Scratch::default);
        }
        let stack: &mut Scratch = if cur == 0 {
            &mut *scratch
        } else {
            &mut extra[cur - 1]
        };
        if stack.frames.is_empty() {
            // First time this thread runs: materialize its entry frame
            // at the slab top (`sched_pick_next` already restored
            // `vm.sp`).
            let (tentry, arg) = {
                let s = vm.sched.as_deref().expect("worker implies sched");
                (s.threads[cur].entry, s.threads[cur].arg)
            };
            stack.regs.clear();
            stack
                .regs
                .resize(cm.funcs[tentry.0 as usize].reg_count as usize, 0);
            stack.regs[0] = arg;
            stack.frames.push(BcFrame {
                func: tentry.0,
                pc: 0,
                base: 0,
                entry_sp: vm.sp,
                low_sp: vm.sp,
                ret_reg: None,
                guard_calls: 0,
                canary_calls: 0,
            });
            vm.emit(Event::FuncEnter {
                func: tentry.0,
                depth: 1,
            });
        }
        match run_thread(vm, cm, stack, input) {
            SliceEnd::Exit(exit) => {
                if cur == 0 {
                    // Main returning (or any exit/fault) ends the whole
                    // run — process semantics.
                    return exit;
                }
                if let Some(fatal) = vm.sched_thread_finished(cur, exit) {
                    return fatal;
                }
            }
            SliceEnd::Preempt | SliceEnd::Block => {}
        }
        if let Err(fault) = vm.sched_pick_next() {
            return Exit::Fault(fault);
        }
    }
}

/// Run the current thread until its quantum expires, it blocks, or it
/// finishes. The loop protocol (fuel check → preempt check →
/// `insts += 1` → fetch → charge → execute) mirrors the interpreter's
/// `exec_slice` exactly — bit-identity depends on it.
fn run_thread(
    vm: &mut Vm,
    cm: &CompiledModule,
    scratch: &mut Scratch,
    input: &mut dyn InputSource,
) -> SliceEnd {
    // The running frame's position is cached in locals; frames[top].pc
    // is written back on call, yield, and block, and reloaded on return
    // and resume.
    let top = scratch.frames.last().expect("nonempty call stack");
    let mut fidx = top.func;
    let mut base = top.base;
    let mut pc = top.pc;

    loop {
        if vm.insts >= vm.fuel {
            return SliceEnd::Exit(Exit::Fault(FaultKind::OutOfFuel));
        }
        if vm.insts >= vm.next_preempt {
            scratch.frames.last_mut().expect("frame").pc = pc;
            return SliceEnd::Preempt;
        }
        vm.insts += 1;

        let inst = &cm.funcs[fidx as usize].code[pc as usize];
        pc += 1;

        match inst {
            BcInst::Alloca {
                result,
                size,
                align,
                name,
                cost,
            } => {
                vm.charge(CycleCategory::Alu, *cost);
                if let Err(f) = alloca(vm, cm, scratch, fidx, base, *result, *size, *align, *name) {
                    return SliceEnd::Exit(Exit::Fault(f));
                }
            }
            BcInst::AllocaVla {
                result,
                elem_size,
                count,
                align,
                name,
                cost,
            } => {
                vm.charge(CycleCategory::Alu, *cost);
                let n = ev(&scratch.regs, base, *count);
                let size = match elem_size.checked_mul(n) {
                    Some(s) => s,
                    None => return SliceEnd::Exit(Exit::Fault(FaultKind::StackOverflow)),
                };
                if let Err(f) = alloca(vm, cm, scratch, fidx, base, *result, size, *align, *name) {
                    return SliceEnd::Exit(Exit::Fault(f));
                }
            }
            BcInst::Load { result, size, ptr } => {
                vm.charge(CycleCategory::Alu, 0);
                let addr = ev(&scratch.regs, base, *ptr);
                vm.charge_mem_for(FuncId(fidx), addr);
                if let Err(f) = vm.race_plain(addr, *size, false) {
                    return SliceEnd::Exit(Exit::Fault(f));
                }
                match vm.mem.read_uint(addr, *size) {
                    Ok(v) => scratch.regs[base + *result as usize] = v,
                    Err(m) => return SliceEnd::Exit(Exit::Fault(FaultKind::Mem(m))),
                }
            }
            BcInst::Store { size, val, ptr } => {
                vm.charge(CycleCategory::Alu, 0);
                let addr = ev(&scratch.regs, base, *ptr);
                vm.charge_mem_for(FuncId(fidx), addr);
                if let Err(f) = vm.race_plain(addr, *size, true) {
                    return SliceEnd::Exit(Exit::Fault(f));
                }
                let v = ev(&scratch.regs, base, *val);
                if let Err(m) = vm.mem.write_uint(addr, v, *size) {
                    return SliceEnd::Exit(Exit::Fault(FaultKind::Mem(m)));
                }
            }
            BcInst::Gep {
                result,
                base: b,
                offset,
                cost,
            } => {
                vm.charge(CycleCategory::Alu, *cost);
                let bv = ev(&scratch.regs, base, *b);
                let ov = ev(&scratch.regs, base, *offset);
                scratch.regs[base + *result as usize] = bv.wrapping_add(ov);
            }
            BcInst::Bin {
                result,
                op,
                width,
                lhs,
                rhs,
                cost,
            } => {
                vm.charge(CycleCategory::Alu, *cost);
                let a = ev(&scratch.regs, base, *lhs);
                let b = ev(&scratch.regs, base, *rhs);
                match Vm::binop(*op, *width, a, b) {
                    Ok(v) => scratch.regs[base + *result as usize] = v,
                    Err(f) => return SliceEnd::Exit(Exit::Fault(f)),
                }
            }
            BcInst::Icmp {
                result,
                pred,
                width,
                lhs,
                rhs,
                cost,
            } => {
                vm.charge(CycleCategory::Alu, *cost);
                let a = ev(&scratch.regs, base, *lhs);
                let b = ev(&scratch.regs, base, *rhs);
                scratch.regs[base + *result as usize] = Vm::icmp(*pred, *width, a, b) as u64;
            }
            BcInst::Cast {
                result,
                kind,
                val,
                cost,
            } => {
                vm.charge(CycleCategory::Alu, *cost);
                let v = ev(&scratch.regs, base, *val);
                let out = match kind {
                    BcCast::Move => v,
                    BcCast::Trunc(w) => w.truncate(v),
                    BcCast::Sext { from, to } => {
                        let wide = from.sext(from.truncate(v)) as u64;
                        match to {
                            Some(w) => w.truncate(wide),
                            None => wide,
                        }
                    }
                };
                scratch.regs[base + *result as usize] = out;
            }
            BcInst::CallDirect {
                result,
                callee,
                args,
                cost,
            } => {
                vm.charge(CycleCategory::Control, *cost);
                match push_frame(vm, cm, scratch, *callee, args, *result, base, pc) {
                    Ok(new_base) => {
                        fidx = *callee;
                        base = new_base;
                        pc = 0;
                    }
                    Err(f) => return SliceEnd::Exit(Exit::Fault(f)),
                }
            }
            BcInst::CallIndirect {
                result,
                target,
                args,
                cost,
            } => {
                vm.charge(CycleCategory::Control, *cost);
                let addr = ev(&scratch.regs, base, *target);
                let off = addr.wrapping_sub(layout::CODE_BASE);
                if !off.is_multiple_of(16) || (off / 16) as usize >= cm.funcs.len() {
                    return SliceEnd::Exit(Exit::Fault(FaultKind::BadIndirectCall(addr)));
                }
                let callee = (off / 16) as u32;
                if cm.funcs[callee as usize].param_count as usize != args.len() {
                    return SliceEnd::Exit(Exit::Fault(FaultKind::BadIndirectCall(addr)));
                }
                match push_frame(vm, cm, scratch, callee, args, *result, base, pc) {
                    Ok(new_base) => {
                        fidx = callee;
                        base = new_base;
                        pc = 0;
                    }
                    Err(f) => return SliceEnd::Exit(Exit::Fault(f)),
                }
            }
            BcInst::CallIntrinsic {
                result,
                which,
                args,
                cost,
            } => {
                vm.charge(CycleCategory::Control, *cost);
                let mut argv = [0u64; 4];
                debug_assert!(args.len() <= argv.len(), "intrinsic arity");
                for (slot, a) in argv.iter_mut().zip(args.iter()) {
                    *slot = ev(&scratch.regs, base, *a);
                }
                let top = scratch.frames.last_mut().expect("frame");
                let BcFrame {
                    guard_calls,
                    canary_calls,
                    ..
                } = top;
                let ret = vm.exec_intrinsic(
                    *which,
                    &argv[..args.len()],
                    input,
                    FuncId(fidx),
                    result.map(RegId),
                    guard_calls,
                    canary_calls,
                );
                match ret {
                    Ok(ret) => {
                        if let (Some(r), Some(v)) = (result, ret) {
                            scratch.regs[base + *r as usize] = v;
                        }
                    }
                    Err(f) => return SliceEnd::Exit(Exit::Fault(f)),
                }
                if vm.pending_block {
                    // A blocking intrinsic yielded: rewind so the call
                    // re-executes (and re-charges, deterministically on
                    // both backends) when the thread wakes.
                    vm.pending_block = false;
                    pc -= 1;
                    scratch.frames.last_mut().expect("frame").pc = pc;
                    return SliceEnd::Block;
                }
                if let Some(code) = vm.pending_exit.take() {
                    return SliceEnd::Exit(Exit::Exited(code));
                }
            }
            BcInst::Br { target, cost } => {
                vm.charge(CycleCategory::Control, *cost);
                pc = *target;
            }
            BcInst::CondBr {
                cond,
                then_pc,
                else_pc,
                cost,
            } => {
                vm.charge(CycleCategory::Control, *cost);
                let v = ev(&scratch.regs, base, *cond);
                pc = if v != 0 { *then_pc } else { *else_pc };
            }
            BcInst::Ret { val, cost } => {
                vm.charge(CycleCategory::Control, *cost);
                let v = val.map(|o| ev(&scratch.regs, base, o));
                let done = *scratch.frames.last().expect("frame");
                vm.sp = done.entry_sp;
                if vm.recorder.is_some() {
                    // Reaching `ret` means any epilogue integrity check
                    // (guard-key/canary call #2+) passed — failures
                    // divert to GuardFail/CanaryFail and never get here.
                    if done.guard_calls >= 2 {
                        vm.emit(Event::GuardCheck {
                            func: done.func,
                            kind: GuardKind::Word,
                            passed: true,
                        });
                    }
                    if done.canary_calls >= 2 {
                        vm.emit(Event::GuardCheck {
                            func: done.func,
                            kind: GuardKind::Canary,
                            passed: true,
                        });
                    }
                    vm.emit(Event::FuncExit {
                        func: done.func,
                        frame_bytes: done.entry_sp - done.low_sp,
                    });
                }
                scratch.frames.pop();
                scratch.regs.truncate(base);
                match scratch.frames.last() {
                    None => {
                        return SliceEnd::Exit(match v {
                            Some(v) => Exit::Return(v),
                            None => Exit::ReturnVoid,
                        });
                    }
                    Some(caller) => {
                        let (cf, cb, cp) = (caller.func, caller.base, caller.pc);
                        if let (Some(r), Some(v)) = (done.ret_reg, v) {
                            scratch.regs[cb + r as usize] = v;
                        }
                        fidx = cf;
                        base = cb;
                        pc = cp;
                    }
                }
            }
            BcInst::Unreachable => {
                vm.charge(CycleCategory::Control, 0);
                return SliceEnd::Exit(Exit::Fault(FaultKind::UnreachableExecuted));
            }
        }
    }
}
