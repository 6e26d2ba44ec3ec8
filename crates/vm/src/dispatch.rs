//! The bytecode dispatcher: a single-loop, match-threaded decoder over
//! [`crate::bytecode::CompiledModule`] images.
//!
//! Executes the flat bytecode on the shared execution core in
//! [`crate::machine`] — one contiguous `u64` register file and one
//! reusable frame stack, no allocation per call, no instruction
//! cloning, no block-map chasing. This module only fetches a
//! [`BcInst`] by `pc` and evaluates its pre-folded operands; frames,
//! the thread driver, the budget step, alloca, call/return, indirect
//! calls, intrinsics and memory access are the core's, shared with the
//! interpreter in [`crate::interp`]. The tier-1 differential suite in
//! `tests/backends.rs` pins the two decoders to bit-identical results
//! across the workload corpus and the attack suite.

use std::convert::Infallible;

use smokestack_telemetry::CycleCategory;

use crate::bytecode::{BcCast, BcInst, CompiledModule, Opnd};
use crate::exec::{FaultKind, Vm};
use crate::io::InputSource;
use crate::machine::{Decode, Scratch, SliceEnd};

/// Evaluate a pre-folded operand against the current register window.
#[inline(always)]
fn ev(regs: &[u64], base: usize, o: Opnd) -> u64 {
    match o {
        Opnd::Reg(r) => regs[base + r as usize],
        Opnd::Imm(v) => v,
    }
}

impl Decode for CompiledModule {
    type Pos = u32;
    type Operand = Opnd;
    const ENTRY: u32 = 0;

    #[inline]
    fn reg_count(&self, func: u32) -> usize {
        self.funcs[func as usize].reg_count as usize
    }

    #[inline(always)]
    fn eval(&self, regs: &[u64], base: usize, o: &Opnd) -> u64 {
        ev(regs, base, *o)
    }

    fn run_slice(
        &self,
        vm: &mut Vm,
        stack: &mut Scratch<u32>,
        input: &mut dyn InputSource,
    ) -> Result<Infallible, SliceEnd> {
        // The running frame's position is cached in locals: written back
        // to the frame on call, yield and block, reloaded on return and
        // resume.
        let top = stack.top();
        let (mut fidx, mut base, mut pc) = (top.func, top.base, top.pos);

        loop {
            vm.tick(stack, pc)?;
            let inst = &self.funcs[fidx as usize].code[pc as usize];
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
                    let name = &self.alloca_names[*name as usize];
                    vm.alloca(stack, *result, *size, 1, *align, name)?;
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
                    let n = ev(&stack.regs, base, *count);
                    let name = &self.alloca_names[*name as usize];
                    vm.alloca(stack, *result, *elem_size, n, *align, name)?;
                }
                BcInst::Load { result, size, ptr } => {
                    vm.charge(CycleCategory::Alu, 0);
                    let addr = ev(&stack.regs, base, *ptr);
                    stack.regs[base + *result as usize] =
                        vm.load(self.slab_classes[fidx as usize], addr, *size)?;
                }
                BcInst::Store { size, val, ptr } => {
                    vm.charge(CycleCategory::Alu, 0);
                    let addr = ev(&stack.regs, base, *ptr);
                    let v = ev(&stack.regs, base, *val);
                    vm.store(self.slab_classes[fidx as usize], addr, *size, v)?;
                }
                BcInst::Gep {
                    result,
                    base: b,
                    offset,
                    cost,
                } => {
                    vm.charge(CycleCategory::Alu, *cost);
                    let bv = ev(&stack.regs, base, *b);
                    let ov = ev(&stack.regs, base, *offset);
                    stack.regs[base + *result as usize] = bv.wrapping_add(ov);
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
                    let a = ev(&stack.regs, base, *lhs);
                    let b = ev(&stack.regs, base, *rhs);
                    stack.regs[base + *result as usize] = Vm::binop(*op, *width, a, b)?;
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
                    let a = ev(&stack.regs, base, *lhs);
                    let b = ev(&stack.regs, base, *rhs);
                    stack.regs[base + *result as usize] = Vm::icmp(*pred, *width, a, b) as u64;
                }
                BcInst::Cast {
                    result,
                    kind,
                    val,
                    cost,
                } => {
                    vm.charge(CycleCategory::Alu, *cost);
                    let v = ev(&stack.regs, base, *val);
                    stack.regs[base + *result as usize] = match kind {
                        BcCast::Move => v,
                        BcCast::Trunc(w) => w.truncate(v),
                        BcCast::Sext { from, to } => {
                            let wide = from.sext(from.truncate(v)) as u64;
                            to.map_or(wide, |w| w.truncate(wide))
                        }
                    };
                }
                BcInst::CallDirect {
                    result,
                    callee,
                    args,
                    cost,
                } => {
                    vm.charge(CycleCategory::Control, *cost);
                    (fidx, base, pc) = vm.call(self, stack, *callee, args, *result, base, pc)?;
                }
                BcInst::CallIndirect {
                    result,
                    target,
                    args,
                    cost,
                } => {
                    vm.charge(CycleCategory::Control, *cost);
                    let callee = vm.resolve_callee(ev(&stack.regs, base, *target), args.len())?;
                    (fidx, base, pc) = vm.call(self, stack, callee, args, *result, base, pc)?;
                }
                BcInst::CallIntrinsic {
                    result,
                    which,
                    args,
                    cost,
                } => {
                    vm.charge(CycleCategory::Control, *cost);
                    vm.call_intrinsic(self, stack, pc - 1, *which, args, *result, input)?;
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
                    let v = ev(&stack.regs, base, *cond);
                    pc = if v != 0 { *then_pc } else { *else_pc };
                }
                BcInst::Ret { val, cost } => {
                    vm.charge(CycleCategory::Control, *cost);
                    let v = val.map(|o| ev(&stack.regs, base, o));
                    (fidx, base, pc) = vm.ret(stack, v)?;
                }
                BcInst::Unreachable => {
                    vm.charge(CycleCategory::Control, 0);
                    return Err(FaultKind::UnreachableExecuted.into());
                }
            }
        }
    }
}
