//! The deterministic cycle-cost model.
//!
//! All accounting is in twentieths of a cycle so the paper's fractional
//! Table I costs (3.4 / 19.2 / 92.8 / 265.6 cycles per RNG invocation)
//! are represented exactly and small (5%) locality effects are
//! expressible. [`DECI`] converts.
//!
//! The model is deliberately simple — uniform costs per IR operation,
//! byte-proportional costs for the memory intrinsics, and a one-per-cycle
//! I/O stall — because the paper's Figure 3 shape is driven by the
//! *ratio* of instrumentation work (RNG + table fetch + per-object GEP at
//! every prologue) to useful work per call, not by microarchitectural
//! detail. Two second-order effects are modelled, both called out by the
//! paper's §V-A analysis:
//!
//! * functions whose locals live in one compact Smokestack slab enjoy a
//!   small locality/scheduling discount on *stack* accesses — this is
//!   the source of the occasional speedups the paper attributes to
//!   instruction scheduling and register pressure;
//! * functions with *very large* slabs pay a locality penalty on stack
//!   accesses (randomized placement inside a multi-KB frame defeats
//!   spatial locality) — the paper's "stackframe size showed a
//!   significant impact on performance" (gobmk's 85 KB frames).

use std::ops::{Add, AddAssign};

use smokestack_ir::{Inst, Intrinsic, Terminator};
use smokestack_telemetry::CycleCategory;

/// Cost units per cycle (twentieths, so a 5% locality effect is
/// representable and the paper's fractional Table I costs stay exact).
pub const DECI: u64 = 20;

/// How a function's frame is laid out, as seen by the cost model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlabClass {
    /// Not Smokestack-instrumented (scattered allocas).
    None,
    /// One compact slab (≤ the compact threshold).
    Compact,
    /// Mid-sized slab: no adjustment either way.
    Neutral,
    /// Very large slab: randomized interior defeats locality.
    Huge,
}

/// Where simulated cycles were spent — the analog of the paper's
/// OProfile breakdown (§V-A attributes overheads to RNG latency,
/// memory stalls, and instrumentation ALU work).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CycleBreakdown {
    /// `stack_rng` entropy generation (Table I costs).
    pub rng: u64,
    /// Loads and stores.
    pub mem: u64,
    /// ALU work (gep/bin/icmp/cast) and allocas.
    pub alu: u64,
    /// Call/return linkage, intrinsic dispatch, and branches.
    pub control: u64,
    /// Simulated I/O waits.
    pub io: u64,
    /// Bulk intrinsic byte movement (memcpy/input/snprintf/strlen).
    pub bulk: u64,
}

impl CycleBreakdown {
    /// Total cost units across all categories.
    pub fn total(&self) -> u64 {
        self.rng + self.mem + self.alu + self.control + self.io + self.bulk
    }

    /// Fraction of the total spent in a category (0.0 if empty).
    pub fn share(&self, category: u64) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            category as f64 / self.total() as f64
        }
    }

    /// Add `c` cost units to the field for `cat` (the telemetry-facing
    /// view of the same six buckets).
    pub fn add_category(&mut self, cat: CycleCategory, c: u64) {
        match cat {
            CycleCategory::Rng => self.rng += c,
            CycleCategory::Mem => self.mem += c,
            CycleCategory::Alu => self.alu += c,
            CycleCategory::Control => self.control += c,
            CycleCategory::Io => self.io += c,
            CycleCategory::Bulk => self.bulk += c,
        }
    }

    /// The six fields as a category clock, indexed by
    /// [`CycleCategory::index`] (what telemetry events carry).
    #[inline]
    pub fn categories(&self) -> [u64; 6] {
        [
            self.rng,
            self.mem,
            self.alu,
            self.control,
            self.io,
            self.bulk,
        ]
    }

    /// Value of the field for `cat`.
    pub fn get_category(&self, cat: CycleCategory) -> u64 {
        match cat {
            CycleCategory::Rng => self.rng,
            CycleCategory::Mem => self.mem,
            CycleCategory::Alu => self.alu,
            CycleCategory::Control => self.control,
            CycleCategory::Io => self.io,
            CycleCategory::Bulk => self.bulk,
        }
    }
}

impl Add for CycleBreakdown {
    type Output = CycleBreakdown;
    fn add(self, rhs: CycleBreakdown) -> CycleBreakdown {
        CycleBreakdown {
            rng: self.rng + rhs.rng,
            mem: self.mem + rhs.mem,
            alu: self.alu + rhs.alu,
            control: self.control + rhs.control,
            io: self.io + rhs.io,
            bulk: self.bulk + rhs.bulk,
        }
    }
}

impl AddAssign for CycleBreakdown {
    fn add_assign(&mut self, rhs: CycleBreakdown) {
        *self = *self + rhs;
    }
}

/// Cost model parameters. [`CostModel::default`] matches the calibration
/// used by all experiments.
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    /// Fixed-size `alloca` (stack-pointer bump + bookkeeping).
    pub alloca: u64,
    /// Variable-length `alloca`.
    pub alloca_vla: u64,
    /// `load`/`store` to non-stack memory, and the baseline stack cost.
    pub mem_access: u64,
    /// Stack `load`/`store` in a compact-slab function.
    pub mem_access_compact: u64,
    /// Stack `load`/`store` in a huge-slab function.
    pub mem_access_huge: u64,
    /// `gep`, `bin`, `icmp`.
    pub alu: u64,
    /// Casts (usually free on hardware; cheap here).
    pub cast: u64,
    /// Branch (conditional or not).
    pub branch: u64,
    /// Call + return linkage overhead.
    pub call: u64,
    /// Return.
    pub ret: u64,
    /// Fixed part of any intrinsic.
    pub intrinsic_base: u64,
    /// Per-byte cost of bulk intrinsics (memcpy, input, snprintf).
    pub per_byte: u64,
    /// Per-byte cost of strlen scanning.
    pub per_byte_scan: u64,
    /// malloc/free bookkeeping.
    pub heap_op: u64,
    /// Slab size at or below which the compact discount applies.
    pub compact_slab_limit: u64,
    /// Slab size above which the huge-frame penalty applies.
    pub huge_slab_limit: u64,
    /// Synchronization step: join, mutex lock/unlock, and the atomic
    /// surcharge over a plain access (fence + lock-prefix analog).
    pub sync_op: u64,
    /// `spawn` — thread bookkeeping plus slab carving.
    pub thread_spawn: u64,
    /// Per-competitor TRNG port contention: each `stack_rng` draw pays
    /// this once per *other* live thread (the shared-entropy-port model
    /// for per-thread P-BOX epochs).
    pub rng_contention: u64,
}

impl Default for CostModel {
    fn default() -> CostModel {
        CostModel {
            alloca: 24,
            alloca_vla: 48,
            mem_access: 20,
            mem_access_compact: 19,
            mem_access_huge: 23,
            alu: 20,
            cast: 10,
            branch: 20,
            call: 40,
            ret: 20,
            intrinsic_base: 30,
            per_byte: 4,
            per_byte_scan: 2,
            heap_op: 60,
            compact_slab_limit: 2048,
            huge_slab_limit: 6144,
            sync_op: 30,
            thread_spawn: 400,
            rng_contention: 12,
        }
    }
}

impl CostModel {
    /// Classify a function by its slab size (`None` if uninstrumented).
    pub fn classify_slab(&self, slab_size: Option<u64>) -> SlabClass {
        match slab_size {
            None => SlabClass::None,
            Some(s) if s <= self.compact_slab_limit => SlabClass::Compact,
            Some(s) if s > self.huge_slab_limit => SlabClass::Huge,
            Some(_) => SlabClass::Neutral,
        }
    }

    /// Base cost of an instruction. Loads and stores are priced by
    /// [`CostModel::mem_cost`] once the address is known; here they
    /// contribute zero.
    pub fn inst_cost(&self, inst: &Inst) -> u64 {
        match inst {
            Inst::Alloca { count: None, .. } => self.alloca,
            Inst::Alloca { count: Some(_), .. } => self.alloca_vla,
            Inst::Load { .. } | Inst::Store { .. } => 0,
            Inst::Gep { .. } | Inst::Bin { .. } | Inst::Icmp { .. } => self.alu,
            Inst::Cast { .. } => self.cast,
            Inst::Call { callee, .. } => match callee {
                smokestack_ir::Callee::Intrinsic(_) => self.intrinsic_base,
                _ => self.call,
            },
        }
    }

    /// Cost of one load/store given the executing function's slab class
    /// and whether the address is in the stack segment.
    pub fn mem_cost(&self, slab: SlabClass, is_stack: bool) -> u64 {
        if !is_stack {
            return self.mem_access;
        }
        match slab {
            SlabClass::Compact => self.mem_access_compact,
            SlabClass::Huge => self.mem_access_huge,
            SlabClass::None | SlabClass::Neutral => self.mem_access,
        }
    }

    /// Cost of a terminator.
    pub fn term_cost(&self, term: &Terminator) -> u64 {
        match term {
            Terminator::Br(_) | Terminator::CondBr { .. } => self.branch,
            Terminator::Ret(_) => self.ret,
            Terminator::Unreachable => 0,
        }
    }

    /// Data-dependent extra cost for an intrinsic moving `bytes` bytes.
    pub fn bulk_cost(&self, which: Intrinsic, bytes: u64) -> u64 {
        match which {
            Intrinsic::Strlen => bytes * self.per_byte_scan,
            Intrinsic::Malloc | Intrinsic::Free => self.heap_op,
            _ => bytes * self.per_byte,
        }
    }

    /// Order-sensitive FNV-1a digest of every parameter. Compiled
    /// bytecode interns per-instruction costs, so a cached
    /// [`crate::CompiledModule`] is only valid for the exact cost model
    /// it was lowered with; the fingerprint is the cache key.
    pub fn fingerprint(&self) -> u64 {
        let fields = [
            self.alloca,
            self.alloca_vla,
            self.mem_access,
            self.mem_access_compact,
            self.mem_access_huge,
            self.alu,
            self.cast,
            self.branch,
            self.call,
            self.ret,
            self.intrinsic_base,
            self.per_byte,
            self.per_byte_scan,
            self.heap_op,
            self.compact_slab_limit,
            self.huge_slab_limit,
            self.sync_op,
            self.thread_spawn,
            self.rng_contention,
        ];
        fields.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, v| {
            (h ^ v).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smokestack_ir::{RegId, Type, Value};

    #[test]
    fn slab_classification() {
        let cm = CostModel::default();
        assert_eq!(cm.classify_slab(None), SlabClass::None);
        assert_eq!(cm.classify_slab(Some(100)), SlabClass::Compact);
        assert_eq!(cm.classify_slab(Some(4096)), SlabClass::Neutral);
        assert_eq!(cm.classify_slab(Some(80_000)), SlabClass::Huge);
    }

    #[test]
    fn stack_access_costs_depend_on_slab() {
        let cm = CostModel::default();
        assert!(cm.mem_cost(SlabClass::Compact, true) < cm.mem_cost(SlabClass::None, true));
        assert!(cm.mem_cost(SlabClass::Huge, true) > cm.mem_cost(SlabClass::None, true));
        // Non-stack (global/heap) accesses are unaffected.
        assert_eq!(
            cm.mem_cost(SlabClass::Compact, false),
            cm.mem_cost(SlabClass::Huge, false)
        );
    }

    #[test]
    fn loads_priced_at_execution_time() {
        let cm = CostModel::default();
        let load = Inst::Load {
            result: RegId(0),
            ty: Type::I64,
            ptr: Value::NullPtr,
        };
        assert_eq!(cm.inst_cost(&load), 0);
    }

    #[test]
    fn vla_costs_more_than_fixed_alloca() {
        let cm = CostModel::default();
        let fixed = Inst::Alloca {
            result: RegId(0),
            ty: Type::I64,
            count: None,
            align: 8,
            name: "a".into(),
            randomizable: true,
        };
        let vla = Inst::Alloca {
            result: RegId(1),
            ty: Type::I64,
            count: Some(Value::i64(4)),
            align: 8,
            name: "v".into(),
            randomizable: true,
        };
        assert!(cm.inst_cost(&vla) > cm.inst_cost(&fixed));
    }

    #[test]
    fn share_of_empty_breakdown_is_zero_not_nan() {
        let b = CycleBreakdown::default();
        assert_eq!(b.total(), 0);
        let s = b.share(b.rng);
        assert_eq!(s, 0.0);
        assert!(!s.is_nan(), "empty run must not propagate NaN into tables");
    }

    #[test]
    fn category_accessors_cover_every_field() {
        let mut b = CycleBreakdown::default();
        for (i, cat) in CycleCategory::ALL.into_iter().enumerate() {
            b.add_category(cat, (i + 1) as u64);
        }
        assert_eq!(b.rng, 1);
        assert_eq!(b.mem, 2);
        assert_eq!(b.alu, 3);
        assert_eq!(b.control, 4);
        assert_eq!(b.io, 5);
        assert_eq!(b.bulk, 6);
        assert_eq!(b.total(), 21);
        for cat in CycleCategory::ALL {
            assert_eq!(b.get_category(cat), (cat.index() + 1) as u64);
        }
    }

    #[test]
    fn bulk_costs_scale_with_bytes() {
        let cm = CostModel::default();
        assert_eq!(cm.bulk_cost(Intrinsic::Memcpy, 100), 100 * cm.per_byte);
        assert_eq!(cm.bulk_cost(Intrinsic::Strlen, 50), 50 * cm.per_byte_scan);
        assert_eq!(cm.bulk_cost(Intrinsic::Malloc, 0), cm.heap_op);
    }
}
