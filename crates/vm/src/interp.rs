//! The tree-walking interpreter: a decoder that executes the IR as
//! built, on the shared execution core in [`crate::machine`].
//!
//! It fetches each [`Inst`] and [`Terminator`] by `(block, index)`
//! from the module, prices it through the [`crate::CostModel`] at every
//! execution, and evaluates [`Value`] operands on the fly — every step
//! the bytecode lowering does ahead of time. Everything else (frames,
//! the thread driver, the budget step, alloca, call/return, indirect
//! calls, intrinsics and memory access) is the core's. The interpreter
//! is kept as the differential oracle for lowering and decode:
//! `tests/backends.rs` holds the bytecode dispatcher to bit-identical
//! results.

use std::convert::Infallible;

use smokestack_ir::{BlockId, Callee, CastKind, Function, Inst, Module, Terminator, Value};
use smokestack_telemetry::CycleCategory;

use crate::cycles::SlabClass;
use crate::exec::{FaultKind, Vm};
use crate::io::InputSource;
use crate::machine::{Decode, Scratch, SliceEnd};
use crate::mem::layout;

/// The interpreter's view of a module: its IR, plus the global
/// addresses and slab classes of the module's one compiled value (whose
/// lowered code it never reads).
pub(crate) struct Interp<'a> {
    pub(crate) module: &'a Module,
    pub(crate) global_addrs: &'a [u64],
    pub(crate) slab_classes: &'a [SlabClass],
}

impl Decode for Interp<'_> {
    /// `(block, index)`; an index equal to the block's instruction count
    /// addresses its terminator.
    type Pos = (BlockId, u32);
    type Operand = Value;
    const ENTRY: (BlockId, u32) = (Function::ENTRY, 0);

    fn reg_count(&self, func: u32) -> usize {
        self.module.funcs[func as usize].reg_count()
    }

    fn eval(&self, regs: &[u64], base: usize, v: &Value) -> u64 {
        match v {
            Value::Reg(r) => regs[base + r.0 as usize],
            Value::ConstInt(c, w) => w.truncate(*c as u64),
            Value::Global(g) => self.global_addrs[g.0 as usize],
            Value::Func(f) => layout::CODE_BASE + 16 * f.0 as u64,
            Value::NullPtr => 0,
        }
    }

    fn run_slice(
        &self,
        vm: &mut Vm,
        stack: &mut Scratch<(BlockId, u32)>,
        input: &mut dyn InputSource,
    ) -> Result<Infallible, SliceEnd> {
        let top = stack.top();
        let (mut fidx, mut base, (mut block, mut idx)) = (top.func, top.base, top.pos);

        loop {
            vm.tick(stack, (block, idx))?;
            let blk = self.module.funcs[fidx as usize].block(block);

            let Some(inst) = blk.insts.get(idx as usize) else {
                let c = vm.cost.term_cost(&blk.term);
                vm.charge(CycleCategory::Control, c);
                match &blk.term {
                    Terminator::Br(b) => (block, idx) = (*b, 0),
                    Terminator::CondBr {
                        cond,
                        then_bb,
                        else_bb,
                    } => {
                        let v = self.eval(&stack.regs, base, cond);
                        (block, idx) = (if v != 0 { *then_bb } else { *else_bb }, 0);
                    }
                    Terminator::Ret(v) => {
                        let v = v.as_ref().map(|v| self.eval(&stack.regs, base, v));
                        (fidx, base, (block, idx)) = vm.ret(stack, v)?;
                    }
                    Terminator::Unreachable => {
                        return Err(FaultKind::UnreachableExecuted.into());
                    }
                }
                continue;
            };

            let c = vm.cost.inst_cost(inst);
            match inst {
                Inst::Call { .. } => vm.charge(CycleCategory::Control, c),
                _ => vm.charge(CycleCategory::Alu, c),
            }
            let at = (block, idx);
            idx += 1;

            match inst {
                Inst::Alloca {
                    result,
                    ty,
                    count,
                    align,
                    name,
                    ..
                } => {
                    let n = count
                        .as_ref()
                        .map_or(1, |c| self.eval(&stack.regs, base, c));
                    vm.alloca(stack, result.0, ty.size(), n, (*align).max(1), name)?;
                }
                Inst::Load { result, ty, ptr } => {
                    let addr = self.eval(&stack.regs, base, ptr);
                    stack.regs[base + result.0 as usize] =
                        vm.load(self.slab_classes[fidx as usize], addr, ty.size())?;
                }
                Inst::Store { ty, val, ptr } => {
                    let addr = self.eval(&stack.regs, base, ptr);
                    let v = self.eval(&stack.regs, base, val);
                    vm.store(self.slab_classes[fidx as usize], addr, ty.size(), v)?;
                }
                Inst::Gep {
                    result,
                    base: b,
                    offset,
                } => {
                    let b = self.eval(&stack.regs, base, b);
                    let o = self.eval(&stack.regs, base, offset);
                    stack.regs[base + result.0 as usize] = b.wrapping_add(o);
                }
                Inst::Bin {
                    result,
                    op,
                    width,
                    lhs,
                    rhs,
                } => {
                    let a = self.eval(&stack.regs, base, lhs);
                    let b = self.eval(&stack.regs, base, rhs);
                    stack.regs[base + result.0 as usize] = Vm::binop(*op, *width, a, b)?;
                }
                Inst::Icmp {
                    result,
                    pred,
                    width,
                    lhs,
                    rhs,
                } => {
                    let a = self.eval(&stack.regs, base, lhs);
                    let b = self.eval(&stack.regs, base, rhs);
                    stack.regs[base + result.0 as usize] = Vm::icmp(*pred, *width, a, b) as u64;
                }
                Inst::Cast {
                    result,
                    kind,
                    to,
                    val,
                } => {
                    let v = self.eval(&stack.regs, base, val);
                    let out = match kind {
                        CastKind::ZextOrTrunc => to.int_width().map_or(v, |w| w.truncate(v)),
                        CastKind::SextFrom(src) => {
                            let wide = src.sext(src.truncate(v)) as u64;
                            to.int_width().map_or(wide, |w| w.truncate(wide))
                        }
                        CastKind::PtrToInt | CastKind::IntToPtr => v,
                    };
                    stack.regs[base + result.0 as usize] = out;
                }
                Inst::Call {
                    result,
                    callee,
                    args,
                } => {
                    let result = result.map(|r| r.0);
                    let callee = match callee {
                        Callee::Intrinsic(which) => {
                            vm.call_intrinsic(self, stack, at, *which, args, result, input)?;
                            continue;
                        }
                        Callee::Direct(f) => f.0,
                        Callee::Indirect(target) => {
                            let addr = self.eval(&stack.regs, base, target);
                            vm.resolve_callee(addr, args.len())?
                        }
                    };
                    let resume = (block, idx);
                    (fidx, base, (block, idx)) =
                        vm.call(self, stack, callee, args, result, base, resume)?;
                }
            }
        }
    }
}
