//! One-time lowering of an [`ir::Module`](Module) to a flat,
//! cache-friendly bytecode.
//!
//! The tree-walking interpreter in [`crate::interp`] re-discovers
//! program structure on every instruction: it chases `BlockId -> Block`
//! indirections at every branch, evaluates each [`Value`] operand from
//! its IR form, and prices every instruction against the cost model per
//! execution. This module does that work **once per module**:
//!
//! * every function body becomes one flat `Vec<BcInst>` with block
//!   boundaries erased — branch targets are pre-resolved instruction
//!   indices (`pc` values), not block ids;
//! * every operand is folded to either a dense register slot or a
//!   pre-evaluated immediate (constants are pre-truncated to their
//!   width, globals become absolute addresses, function references
//!   become code-segment addresses);
//! * every instruction's cost-model row is interned into the
//!   instruction itself, so the dispatcher never looks one up in
//!   [`COST`] at runtime;
//! * module-level prescans (global layout, slab classification, P-BOX
//!   draw recovery) are captured in the [`CompiledModule`] and shared by
//!   every VM spawned from it, under either backend.
//!
//! Compiled modules are memoized in a process-wide cache keyed by
//! module identity, so campaign and fuzz trials compile once and
//! replay thousands of times.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock, PoisonError, Weak};

use smokestack_ir::{
    BinOp, Callee, CastKind, CmpPred, Function, GlobalInit, Inst, IntWidth, Intrinsic, Module,
    RegId, Terminator, Value,
};

use crate::cycles::{SlabClass, COST};
use crate::mem::layout;

/// Which execution engine a [`crate::Vm`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ExecBackend {
    /// The flat bytecode dispatcher (default): compile once per module,
    /// replay with a preallocated register file and call stack.
    #[default]
    Bytecode,
    /// The original tree-walking IR interpreter, retained as the
    /// semantic reference for differential testing.
    Interp,
}

impl ExecBackend {
    /// Stable lowercase label (used in bench JSON and test output).
    pub fn label(self) -> &'static str {
        match self {
            ExecBackend::Bytecode => "bytecode",
            ExecBackend::Interp => "interp",
        }
    }
}

/// A pre-folded operand: either a dense register slot or an immediate
/// whose evaluation (width truncation, global/function address
/// resolution) happened at compile time.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Opnd {
    /// Value lives in the current frame's register window.
    Reg(u32),
    /// Pre-evaluated constant.
    Imm(u64),
}

/// Pre-resolved cast behavior (the [`CastKind`]/target-type matrix
/// collapses to three runtime shapes).
#[derive(Debug, Clone, Copy)]
pub(crate) enum BcCast {
    /// Bit-identical move (ptr<->int casts, zext-or-trunc to pointer).
    Move,
    /// Truncate to an integer width.
    Trunc(IntWidth),
    /// Sign-extend from `from`, then optionally truncate to `to`.
    Sext {
        from: IntWidth,
        to: Option<IntWidth>,
    },
}

/// One flat bytecode instruction. Terminators are ordinary instructions
/// here (the execution core's budget step charges fuel for them as for
/// any instruction), so instruction counts match the interpreter's.
///
/// Every variant carries its interned cost-model charge `cost`; loads
/// and stores are priced at execution time from the address, exactly as
/// the interpreter does.
#[derive(Debug, Clone)]
pub(crate) enum BcInst {
    /// Fixed-size alloca: `size` = element size (count is statically 1).
    Alloca {
        result: u32,
        size: u64,
        align: u64,
        name: u32,
        cost: u64,
    },
    /// Variable-length alloca: size = `elem_size * count` at runtime.
    AllocaVla {
        result: u32,
        elem_size: u64,
        count: Opnd,
        align: u64,
        name: u32,
        cost: u64,
    },
    Load {
        result: u32,
        size: u64,
        ptr: Opnd,
    },
    Store {
        size: u64,
        val: Opnd,
        ptr: Opnd,
    },
    Gep {
        result: u32,
        base: Opnd,
        offset: Opnd,
        cost: u64,
    },
    Bin {
        result: u32,
        op: BinOp,
        width: IntWidth,
        lhs: Opnd,
        rhs: Opnd,
        cost: u64,
    },
    Icmp {
        result: u32,
        pred: CmpPred,
        width: IntWidth,
        lhs: Opnd,
        rhs: Opnd,
        cost: u64,
    },
    Cast {
        result: u32,
        kind: BcCast,
        val: Opnd,
        cost: u64,
    },
    CallDirect {
        result: Option<u32>,
        callee: u32,
        args: Box<[Opnd]>,
        cost: u64,
    },
    CallIndirect {
        result: Option<u32>,
        target: Opnd,
        args: Box<[Opnd]>,
        cost: u64,
    },
    CallIntrinsic {
        result: Option<u32>,
        which: Intrinsic,
        args: Box<[Opnd]>,
        cost: u64,
    },
    Br {
        target: u32,
        cost: u64,
    },
    CondBr {
        cond: Opnd,
        then_pc: u32,
        else_pc: u32,
        cost: u64,
    },
    Ret {
        val: Option<Opnd>,
        cost: u64,
    },
    Unreachable,
}

/// One compiled function body.
#[derive(Debug)]
pub(crate) struct BcFunc {
    pub(crate) code: Vec<BcInst>,
    pub(crate) reg_count: u32,
}

/// Module-level layout: global addresses, initializer images, and
/// segment high-water marks. The layout depends only on the module
/// (never on `VmConfig`), so it is computed once per compiled module and
/// read by both backends.
///
/// Initializers are split by segment. The rodata image (string
/// literals, the P-BOX) is built here once, as one immutable buffer,
/// and every VM spawned from this layout maps that same buffer as its
/// rodata segment — the analog of the OS sharing a library's `.rodata`
/// pages between processes — so a spawn neither copies nor faults in
/// the P-BOX. Data globals are writable and private to each VM: every
/// spawn and respawn blits `data_blits`.
#[derive(Debug, Default)]
pub(crate) struct GlobalLayout {
    pub(crate) addrs: Vec<u64>,
    /// Rodata bytes from `RODATA_BASE` to the end of the last
    /// initialized read-only global; the segment reads as zeros beyond.
    pub(crate) rodata: Arc<Vec<u8>>,
    pub(crate) data_blits: Vec<(u64, Vec<u8>)>,
    pub(crate) rodata_used: u64,
    pub(crate) data_used: u64,
}

/// Lay out the module's globals: read-only globals pack from `RODATA_BASE`, mutable globals from
/// `DATA_BASE + 8` (the first eight data bytes hold the pseudo-PRNG
/// state), each aligned to its type.
pub(crate) fn layout_globals(module: &Module) -> GlobalLayout {
    let mut addrs = Vec::with_capacity(module.globals.len());
    let mut data_blits = Vec::new();
    let mut ro_inits: Vec<(usize, &[u8])> = Vec::new();
    let mut ro_cursor = layout::RODATA_BASE;
    let mut data_cursor = layout::DATA_BASE + 8;
    for g in &module.globals {
        let cursor = if g.readonly {
            &mut ro_cursor
        } else {
            &mut data_cursor
        };
        *cursor = smokestack_ir::align_to(*cursor, g.ty.align().max(1));
        let addr = *cursor;
        addrs.push(addr);
        let size = g.ty.size();
        if let GlobalInit::Bytes(b) = &g.init {
            assert!(b.len() as u64 <= size, "initializer larger than global");
            if g.readonly {
                ro_inits.push(((addr - layout::RODATA_BASE) as usize, b));
            } else {
                data_blits.push((addr, b.clone()));
            }
        }
        *cursor += size;
    }
    // Read-only globals are laid out in increasing address order, so the
    // last initializer ends the image. One zeroed allocation, filled in
    // place and shared as is: no second copy into the `Arc`.
    let image_len = ro_inits.last().map_or(0, |(off, b)| off + b.len());
    let mut image = vec![0u8; image_len];
    for (off, b) in ro_inits {
        image[off..off + b.len()].copy_from_slice(b);
    }
    GlobalLayout {
        addrs,
        rodata: Arc::new(image),
        data_blits,
        rodata_used: ro_cursor - layout::RODATA_BASE,
        data_used: data_cursor - layout::DATA_BASE,
    }
}

/// A module lowered to bytecode, plus every module-level prescan a VM
/// needs. Immutable and shareable: campaign workers and fuzz variants
/// hold one `Arc<CompiledModule>` and spawn as many VMs from it as they
/// like. The compiled image keeps the source [`Module`] alive, which is
/// also what makes the pointer-keyed process cache sound.
#[derive(Debug)]
pub struct CompiledModule {
    pub(crate) module: Arc<Module>,
    pub(crate) funcs: Vec<BcFunc>,
    /// Shared with every VM spawned from this image, so a spawn never
    /// deep-copies the loader image; the rodata image (the P-BOX
    /// included) is mapped, not copied.
    pub(crate) globals: Arc<GlobalLayout>,
    /// Per-function slab class (drives the stack-access
    /// discount/penalty).
    pub(crate) slab_classes: Vec<SlabClass>,
    /// Per-function P-BOX slab-draw register and mask (telemetry).
    pub(crate) pbox_draws: Vec<Option<(RegId, u64)>>,
    /// Interned alloca variable names (indexed by `BcInst::Alloca::name`).
    pub(crate) alloca_names: Vec<String>,
}

impl CompiledModule {
    /// The IR module this image was lowered from.
    pub fn module(&self) -> &Arc<Module> {
        &self.module
    }

    /// Load address of the global `name`: the same for every VM spawned
    /// from this image.
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
            // Caller contract (see # Panics), not reachable from a program.
            .unwrap_or_else(|| panic!("no global named {name}"));
        self.globals.addrs[idx]
    }

    /// Total bytecode instructions across all functions (diagnostics).
    pub fn code_len(&self) -> usize {
        self.funcs.iter().map(|f| f.code.len()).sum()
    }
}

/// Fold a [`Value`] to an [`Opnd`] given the module's global layout.
fn fold(v: &Value, globals: &GlobalLayout) -> Opnd {
    match v {
        Value::Reg(r) => Opnd::Reg(r.0),
        Value::ConstInt(c, w) => Opnd::Imm(w.truncate(*c as u64)),
        Value::Global(g) => Opnd::Imm(globals.addrs[g.0 as usize]),
        Value::Func(f) => Opnd::Imm(layout::CODE_BASE + 16 * f.0 as u64),
        Value::NullPtr => Opnd::Imm(0),
    }
}

fn lower_func(
    f: &Function,
    globals: &GlobalLayout,
    names: &mut Vec<String>,
    name_ids: &mut HashMap<String, u32>,
) -> BcFunc {
    // First pass: assign each block its starting pc. A block occupies
    // `insts.len() + 1` slots (the terminator is an instruction too).
    let mut block_pc = Vec::with_capacity(f.blocks.len());
    let mut pc = 0u32;
    for (_, b) in f.iter_blocks() {
        block_pc.push(pc);
        pc += b.insts.len() as u32 + 1;
    }

    let mut intern = |name: &str| -> u32 {
        if let Some(&id) = name_ids.get(name) {
            return id;
        }
        let id = names.len() as u32;
        names.push(name.to_string());
        name_ids.insert(name.to_string(), id);
        id
    };

    let mut code = Vec::with_capacity(pc as usize);
    for (_, b) in f.iter_blocks() {
        for inst in &b.insts {
            let c = COST.inst_cost(inst);
            code.push(match inst {
                Inst::Alloca {
                    result,
                    ty,
                    count,
                    align,
                    name,
                    ..
                } => {
                    let align = (*align).max(1);
                    let name = intern(name);
                    match count {
                        None => BcInst::Alloca {
                            result: result.0,
                            size: ty.size(),
                            align,
                            name,
                            cost: c,
                        },
                        Some(n) => BcInst::AllocaVla {
                            result: result.0,
                            elem_size: ty.size(),
                            count: fold(n, globals),
                            align,
                            name,
                            cost: c,
                        },
                    }
                }
                Inst::Load { result, ty, ptr } => BcInst::Load {
                    result: result.0,
                    size: ty.size(),
                    ptr: fold(ptr, globals),
                },
                Inst::Store { ty, val, ptr } => BcInst::Store {
                    size: ty.size(),
                    val: fold(val, globals),
                    ptr: fold(ptr, globals),
                },
                Inst::Gep {
                    result,
                    base,
                    offset,
                } => BcInst::Gep {
                    result: result.0,
                    base: fold(base, globals),
                    offset: fold(offset, globals),
                    cost: c,
                },
                Inst::Bin {
                    result,
                    op,
                    width,
                    lhs,
                    rhs,
                } => BcInst::Bin {
                    result: result.0,
                    op: *op,
                    width: *width,
                    lhs: fold(lhs, globals),
                    rhs: fold(rhs, globals),
                    cost: c,
                },
                Inst::Icmp {
                    result,
                    pred,
                    width,
                    lhs,
                    rhs,
                } => BcInst::Icmp {
                    result: result.0,
                    pred: *pred,
                    width: *width,
                    lhs: fold(lhs, globals),
                    rhs: fold(rhs, globals),
                    cost: c,
                },
                Inst::Cast {
                    result,
                    kind,
                    to,
                    val,
                } => {
                    let kind = match kind {
                        CastKind::ZextOrTrunc => match to.int_width() {
                            Some(w) => BcCast::Trunc(w),
                            None => BcCast::Move,
                        },
                        CastKind::SextFrom(src) => BcCast::Sext {
                            from: *src,
                            to: to.int_width(),
                        },
                        CastKind::PtrToInt | CastKind::IntToPtr => BcCast::Move,
                    };
                    BcInst::Cast {
                        result: result.0,
                        kind,
                        val: fold(val, globals),
                        cost: c,
                    }
                }
                Inst::Call {
                    result,
                    callee,
                    args,
                } => {
                    let args: Box<[Opnd]> = args.iter().map(|a| fold(a, globals)).collect();
                    let result = result.map(|r| r.0);
                    match callee {
                        Callee::Direct(fid) => BcInst::CallDirect {
                            result,
                            callee: fid.0,
                            args,
                            cost: c,
                        },
                        Callee::Intrinsic(which) => BcInst::CallIntrinsic {
                            result,
                            which: *which,
                            args,
                            cost: c,
                        },
                        Callee::Indirect(target) => BcInst::CallIndirect {
                            result,
                            target: fold(target, globals),
                            args,
                            cost: c,
                        },
                    }
                }
            });
        }
        let tc = COST.term_cost(&b.term);
        code.push(match &b.term {
            Terminator::Br(t) => BcInst::Br {
                target: block_pc[t.0 as usize],
                cost: tc,
            },
            Terminator::CondBr {
                cond,
                then_bb,
                else_bb,
            } => BcInst::CondBr {
                cond: fold(cond, globals),
                then_pc: block_pc[then_bb.0 as usize],
                else_pc: block_pc[else_bb.0 as usize],
                cost: tc,
            },
            Terminator::Ret(v) => BcInst::Ret {
                val: v.as_ref().map(|v| fold(v, globals)),
                cost: tc,
            },
            Terminator::Unreachable => BcInst::Unreachable,
        });
    }

    BcFunc {
        code,
        reg_count: f.reg_count() as u32,
    }
}

/// Prescan: per-function `__ss_slab` size, classified by the cost model.
pub(crate) fn classify_slabs(module: &Module) -> Vec<SlabClass> {
    module
        .funcs
        .iter()
        .map(|f| {
            let slab_size = f.iter_insts().find_map(|(_, i)| match i {
                Inst::Alloca {
                    randomizable: false,
                    name,
                    ty,
                    ..
                } if name == "__ss_slab" => Some(ty.size()),
                _ => None,
            });
            COST.classify_slab(slab_size)
        })
        .collect()
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

/// Lower `module`. Prefer [`compiled_for`], which memoizes.
pub fn compile_module(module: Arc<Module>) -> CompiledModule {
    let globals = layout_globals(&module);
    let mut alloca_names = Vec::new();
    let mut name_ids = HashMap::new();
    let funcs = module
        .funcs
        .iter()
        .map(|f| lower_func(f, &globals, &mut alloca_names, &mut name_ids))
        .collect();
    let slab_classes = classify_slabs(&module);
    let pbox_draws = module.funcs.iter().map(find_pbox_draw).collect();
    CompiledModule {
        module,
        funcs,
        globals: Arc::new(globals),
        slab_classes,
        pbox_draws,
        alloca_names,
    }
}

/// One cache entry. The first caller for a key fills the slot outside
/// the map lock; later callers for the same key wait on the slot, so
/// different modules lower concurrently and one module lowers once.
type Slot = Arc<OnceLock<Weak<CompiledModule>>>;

/// Keyed by the module's `Arc` pointer.
fn cache() -> &'static Mutex<HashMap<usize, Slot>> {
    static CACHE: OnceLock<Mutex<HashMap<usize, Slot>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Compile-once cache: returns the memoized [`CompiledModule`] for this
/// exact `Arc<Module>`, lowering on first use. Entries are weak, so a compiled image lives exactly as long as
/// someone (an [`crate::Executor`], a [`crate::Vm`]) holds it. The
/// process-wide lock is held only to look a key up, never across
/// lowering.
///
/// Keying by `Arc` pointer identity is sound because the returned image
/// holds the module `Arc`: as long as a cache entry is upgradeable, no
/// new module can occupy that address.
pub fn compiled_for(module: &Arc<Module>) -> Arc<CompiledModule> {
    let key = Arc::as_ptr(module) as usize;
    loop {
        let slot = {
            // Every map operation below leaves the map consistent (no
            // lowering runs under the lock), so a poisoned lock is safe
            // to reuse.
            let mut map = cache().lock().unwrap_or_else(PoisonError::into_inner);
            // Drop entries whose image died; keep slots still filling.
            map.retain(|_, s| s.get().is_none_or(|w| w.strong_count() > 0));
            Arc::clone(map.entry(key).or_default())
        };
        let mut lowered = None;
        let image = slot.get_or_init(|| {
            let c = Arc::new(compile_module(Arc::clone(module)));
            let image = Arc::downgrade(&c);
            lowered = Some(c);
            image
        });
        if let Some(c) = lowered.or_else(|| image.upgrade()) {
            return c;
        }
        // The image died between its publication and this upgrade; the
        // next pass drops the dead slot and lowers afresh.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smokestack_ir::{Builder, Type};

    fn sample() -> Arc<Module> {
        let mut m = Module::new();
        let mut f = Function::new("main", vec![], Type::I64);
        let mut b = Builder::new(&mut f);
        let x = b.alloca(Type::I64, "x");
        b.store(Type::I64, Value::i64(7), x.into());
        let v = b.load(Type::I64, x.into());
        b.ret(Some(v.into()));
        m.add_func(f);
        Arc::new(m)
    }

    #[test]
    fn lowering_counts_terminators_as_instructions() {
        let m = sample();
        let c = compile_module(Arc::clone(&m));
        // 3 insts + 1 terminator in the single block.
        assert_eq!(c.code_len(), 4);
        assert!(matches!(c.funcs[0].code[3], BcInst::Ret { .. }));
    }

    #[test]
    fn cache_returns_same_arc_for_same_module() {
        let m = sample();
        let a = compiled_for(&m);
        let b = compiled_for(&m);
        assert!(Arc::ptr_eq(&a, &b), "the same module must hit");
    }

    #[test]
    fn concurrent_first_uses_of_one_module_share_one_image() {
        let m = sample();
        let start = std::sync::Barrier::new(4);
        let images: Vec<Arc<CompiledModule>> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        compiled_for(&m)
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        assert!(images.iter().all(|c| Arc::ptr_eq(c, &images[0])));
    }
}
