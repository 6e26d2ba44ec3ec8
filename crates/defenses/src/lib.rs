//! # smokestack-defenses
//!
//! The prior stack-randomization schemes the paper evaluates and defeats
//! (§II-B), implemented as IR passes over the same machinery as
//! Smokestack so attack outcomes are directly comparable:
//!
//! * **Stack base randomization** ([`stack_base_offset`]) — an
//!   ASLR-style random offset applied once at program start. Absolute
//!   addresses change per run; *relative* distances between locals do
//!   not.
//! * **Random padding at function entry** ([`apply_entry_padding`]) —
//!   Forrest et al.: every frame larger than 16 bytes gets one of eight
//!   paddings (8, 16, …, 64 bytes), chosen at **compile time**.
//! * **Static stack-layout randomization**
//!   ([`apply_static_permutation`]) — the frame's allocation order is
//!   permuted once at compile time (Giuffrida et al.); identical in
//!   every run of the same binary.
//! * **Stack canary** ([`apply_stack_canary`]) — the classic reference
//!   defense: detects *linear* overflows that cross the canary slot, but
//!   not targeted corruption beyond it.
//!
//! [`DefenseKind`] enumerates the full evaluation matrix (including
//! Smokestack itself) and [`deploy`] applies any of them uniformly;
//! [`Fleet`] pairs a kind with the Smokestack pruning variant.

#![warn(missing_docs)]

use std::fmt;

use smokestack_ir::{
    Callee, CmpPred, Function, Inst, IntWidth, Intrinsic, Module, Terminator, Type, Value,
};
use smokestack_rand::Rng;
use smokestack_srng::SchemeKind;

/// Name of padding allocas inserted by [`apply_entry_padding`].
pub const ENTRY_PAD_NAME: &str = "__forrest_pad";

/// Name of the canary slot inserted by [`apply_stack_canary`].
pub const CANARY_NAME: &str = "__canary";

/// A defense configuration for the evaluation matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DefenseKind {
    /// No protection.
    None,
    /// ASLR-style stack base randomization (per run).
    StackBase,
    /// Forrest-style compile-time random entry padding.
    EntryPadding,
    /// Compile-time static permutation of frame layouts.
    StaticPermutation,
    /// Stack canary with epilogue checks.
    Canary,
    /// Smokestack with the given randomness scheme.
    Smokestack(SchemeKind),
}

impl DefenseKind {
    /// Every row of the paper's comparison (§II-C + §V-C).
    pub const MATRIX: [DefenseKind; 9] = [
        DefenseKind::None,
        DefenseKind::StackBase,
        DefenseKind::EntryPadding,
        DefenseKind::StaticPermutation,
        DefenseKind::Canary,
        DefenseKind::Smokestack(SchemeKind::Pseudo),
        DefenseKind::Smokestack(SchemeKind::Aes1),
        DefenseKind::Smokestack(SchemeKind::Aes10),
        DefenseKind::Smokestack(SchemeKind::Rdrand),
    ];

    /// Short row label.
    pub fn label(&self) -> String {
        match self {
            DefenseKind::None => "none".into(),
            DefenseKind::StackBase => "stack-base-rand".into(),
            DefenseKind::EntryPadding => "entry-padding".into(),
            DefenseKind::StaticPermutation => "static-permutation".into(),
            DefenseKind::Canary => "stack-canary".into(),
            DefenseKind::Smokestack(s) => format!("smokestack/{s}"),
        }
    }

    /// The RNG scheme the VM should run (`stack_rng` service).
    pub fn scheme(&self) -> SchemeKind {
        match self {
            DefenseKind::Smokestack(s) => *s,
            _ => SchemeKind::Aes10,
        }
    }

    /// Parse a [`DefenseKind::label`] back into the kind (campaign plan
    /// files name defenses by their row label). Case-insensitive.
    pub fn from_label(label: &str) -> Option<DefenseKind> {
        let want = label.trim().to_ascii_lowercase();
        DefenseKind::MATRIX
            .into_iter()
            .find(|k| k.label().to_ascii_lowercase() == want)
    }
}

impl fmt::Display for DefenseKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// A defense plus the Smokestack pipeline variant it deploys with: the
/// row label shared by serve fleets and campaign plan cells. `pruned`
/// selects the `prune_safe_slots` variant (ignored for non-Smokestack
/// defenses).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fleet {
    /// The defense deployed on every build of this fleet.
    pub defense: DefenseKind,
    /// Whether Smokestack deploys with `prune_safe_slots` enabled.
    pub pruned: bool,
}

impl Fleet {
    /// Stable label, e.g. `smokestack/AES-10+prune`. Unpruned fleets
    /// carry the plain [`DefenseKind::label`].
    pub fn label(&self) -> String {
        if self.pruned {
            format!("{}+prune", self.defense.label())
        } else {
            self.defense.label()
        }
    }

    /// Parse a [`Fleet::label`].
    pub fn from_label(s: &str) -> Option<Fleet> {
        let (base, pruned) = match s.strip_suffix("+prune") {
            Some(base) => (base, true),
            None => (s, false),
        };
        Some(Fleet {
            defense: DefenseKind::from_label(base)?,
            pruned,
        })
    }

    /// The Smokestack configuration this fleet deploys with.
    pub fn smokestack_config(&self) -> smokestack_core::SmokestackConfig {
        smokestack_core::SmokestackConfig {
            prune_safe_slots: self.pruned,
            ..smokestack_core::SmokestackConfig::default()
        }
    }
}

/// What deploying a defense produced.
#[derive(Debug, Clone, Default)]
pub struct Deployment {
    /// Functions modified by the pass (0 for `None`/`StackBase`).
    pub functions_modified: usize,
    /// Stack base offset the VM should apply (ASLR analog).
    pub stack_base_offset: u64,
    /// Smokestack hardening report, when applicable.
    pub smokestack: Option<smokestack_core::HardenReport>,
}

/// Apply `kind` to `module`. `build_seed` drives compile-time choices
/// (padding sizes, static permutations); `run_seed` drives load-time
/// choices (the stack base offset). Returns deployment metadata,
/// including the `stack_base_offset` to put into `VmConfig`.
pub fn deploy(
    kind: DefenseKind,
    module: &mut Module,
    build_seed: u64,
    run_seed: u64,
) -> Deployment {
    deploy_configured(
        kind,
        module,
        build_seed,
        run_seed,
        &smokestack_core::SmokestackConfig::default(),
    )
}

/// [`deploy`] with an explicit Smokestack configuration, so experiments
/// can flip pipeline options (`prune_safe_slots`, guard insertion, P-BOX
/// sizing) while reusing the rest of the matrix unchanged. `ss_cfg` only
/// affects the `Smokestack(_)` rows.
pub fn deploy_configured(
    kind: DefenseKind,
    module: &mut Module,
    build_seed: u64,
    run_seed: u64,
    ss_cfg: &smokestack_core::SmokestackConfig,
) -> Deployment {
    match kind {
        DefenseKind::None => Deployment::default(),
        DefenseKind::StackBase => Deployment {
            stack_base_offset: stack_base_offset(run_seed, 1 << 20),
            ..Deployment::default()
        },
        DefenseKind::EntryPadding => Deployment {
            functions_modified: apply_entry_padding(module, build_seed),
            ..Deployment::default()
        },
        DefenseKind::StaticPermutation => Deployment {
            functions_modified: apply_static_permutation(module, build_seed),
            ..Deployment::default()
        },
        DefenseKind::Canary => Deployment {
            functions_modified: apply_stack_canary(module),
            ..Deployment::default()
        },
        DefenseKind::Smokestack(_) => {
            let report = smokestack_core::harden(module, ss_cfg).expect("instrumentation failed");
            Deployment {
                functions_modified: report.functions_instrumented,
                stack_base_offset: 0,
                smokestack: Some(report),
            }
        }
    }
}

/// ASLR-style random stack base offset in `[0, max)`, 16-byte aligned,
/// drawn per run from `run_seed`.
pub fn stack_base_offset(run_seed: u64, max: u64) -> u64 {
    let mut rng = Rng::seed_from_u64(run_seed ^ 0xa51a_51a5);
    (rng.gen_range(0, max.max(16))) & !0xf
}

/// Forrest et al.: add one of eight paddings (8..=64 bytes) before the
/// frame of every function whose frame exceeds 16 bytes, chosen at
/// compile time. Returns the number of functions padded.
pub fn apply_entry_padding(module: &mut Module, build_seed: u64) -> usize {
    let mut rng = Rng::seed_from_u64(build_seed ^ 0xf0e1_d2c3);
    let mut modified = 0;
    for f in &mut module.funcs {
        let info = smokestack_core::discover_frame(f);
        let frame = smokestack_core::frame_size_in_order(&info.slot_list());
        if frame <= 16 {
            continue;
        }
        let pad = 8 * rng.gen_range_inclusive(1, 8);
        let reg = f.new_reg(Type::Ptr);
        f.block_mut(Function::ENTRY).insts.insert(
            0,
            Inst::Alloca {
                result: reg,
                ty: Type::array(Type::I8, pad),
                count: None,
                align: 1,
                name: ENTRY_PAD_NAME.into(),
                randomizable: false,
            },
        );
        modified += 1;
    }
    modified
}

/// Static (compile-time) permutation of each function's entry-block
/// allocas — the layout differs per build but is identical in every run.
/// Returns the number of functions permuted.
pub fn apply_static_permutation(module: &mut Module, build_seed: u64) -> usize {
    let mut rng = Rng::seed_from_u64(build_seed ^ 0x57a7_1c00);
    let mut modified = 0;
    for f in &mut module.funcs {
        let info = smokestack_core::discover_frame(f);
        if info.slots.len() < 2 {
            continue;
        }
        let positions: Vec<usize> = info.slots.iter().map(|(i, _)| *i).collect();
        let mut shuffled = positions.clone();
        rng.shuffle(&mut shuffled);
        let entry = f.block_mut(Function::ENTRY);
        let originals: Vec<Inst> = positions.iter().map(|&i| entry.insts[i].clone()).collect();
        for (slot_idx, &new_pos) in shuffled.iter().enumerate() {
            entry.insts[new_pos] = originals[slot_idx].clone();
        }
        modified += 1;
    }
    modified
}

/// Classic stack canary: a slot above the locals holding a secret value,
/// checked before every return. Returns functions instrumented.
pub fn apply_stack_canary(module: &mut Module) -> usize {
    let mut modified = 0;
    for f in &mut module.funcs {
        let info = smokestack_core::discover_frame(f);
        if info.slots.is_empty() && !info.has_vla {
            continue;
        }
        add_canary(f);
        modified += 1;
    }
    modified
}

fn add_canary(f: &mut Function) {
    let slot = f.new_reg(Type::Ptr);
    let val = f.new_reg(Type::I64);
    let prologue = [
        Inst::Alloca {
            result: slot,
            ty: Type::I64,
            count: None,
            align: 8,
            name: CANARY_NAME.into(),
            randomizable: false,
        },
        Inst::Call {
            result: Some(val),
            callee: Callee::Intrinsic(Intrinsic::Canary),
            args: vec![],
        },
        Inst::Store {
            ty: Type::I64,
            val: Value::Reg(val),
            ptr: Value::Reg(slot),
        },
    ];
    for (i, inst) in prologue.into_iter().enumerate() {
        f.block_mut(Function::ENTRY).insts.insert(i, inst);
    }
    let fail_bb = f.add_block();
    f.block_mut(fail_bb).insts.push(Inst::Call {
        result: None,
        callee: Callee::Intrinsic(Intrinsic::CanaryFail),
        args: vec![],
    });
    f.block_mut(fail_bb).term = Terminator::Unreachable;
    let ret_blocks: Vec<_> = f
        .iter_blocks()
        .filter(|(_, b)| matches!(b.term, Terminator::Ret(_)))
        .map(|(id, _)| id)
        .collect();
    for bb in ret_blocks {
        let original_ret = f.block(bb).term.clone();
        let ret_bb = f.add_block();
        f.block_mut(ret_bb).term = original_ret;
        let loaded = f.new_reg(Type::I64);
        let expected = f.new_reg(Type::I64);
        let bad = f.new_reg(Type::I8);
        let b = f.block_mut(bb);
        b.insts.push(Inst::Load {
            result: loaded,
            ty: Type::I64,
            ptr: Value::Reg(slot),
        });
        b.insts.push(Inst::Call {
            result: Some(expected),
            callee: Callee::Intrinsic(Intrinsic::Canary),
            args: vec![],
        });
        b.insts.push(Inst::Icmp {
            result: bad,
            pred: CmpPred::Ne,
            width: IntWidth::W64,
            lhs: Value::Reg(loaded),
            rhs: Value::Reg(expected),
        });
        b.term = Terminator::CondBr {
            cond: Value::Reg(bad),
            then_bb: fail_bb,
            else_bb: ret_bb,
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smokestack_ir::verify_module;
    use smokestack_minic::compile;
    use smokestack_vm::{Executor, Exit, FaultKind, ScriptedInput};

    const PROG: &str = r#"
        int f(int a) {
            int x = a;
            char buf[32];
            long y = 2;
            buf[0] = 1;
            return x + y;
        }
        int main() { return f(1); }
    "#;

    #[test]
    fn all_defenses_preserve_behavior() {
        for kind in DefenseKind::MATRIX {
            let mut m = compile(PROG).unwrap();
            let dep = deploy(kind, &mut m, 7, 11);
            verify_module(&m).unwrap_or_else(|e| panic!("{kind}: {e:?}"));
            let out = Executor::for_module(m)
                .scheme(kind.scheme())
                .stack_base_offset(dep.stack_base_offset)
                .build()
                .run_main(ScriptedInput::empty());
            assert_eq!(out.exit, Exit::Return(3), "{kind} changed behavior");
        }
    }

    #[test]
    fn stack_base_offset_varies_per_run_seed() {
        let a = stack_base_offset(1, 1 << 20);
        let b = stack_base_offset(2, 1 << 20);
        assert_ne!(a, b);
        assert_eq!(a % 16, 0);
        assert_eq!(stack_base_offset(1, 1 << 20), a, "deterministic per seed");
    }

    #[test]
    fn entry_padding_only_big_frames() {
        let src = r#"
            int small() { int x = 1; return x; }
            int big() { char buf[64]; buf[0] = 1; return 0; }
            int main() { return small() + big(); }
        "#;
        let mut m = compile(src).unwrap();
        let n = apply_entry_padding(&mut m, 1);
        assert_eq!(n, 1);
        let big = m.func(m.func_by_name("big").unwrap());
        let pad = big
            .iter_insts()
            .find_map(|(_, i)| match i {
                Inst::Alloca { name, ty, .. } if name == ENTRY_PAD_NAME => Some(ty.size()),
                _ => None,
            })
            .expect("pad present");
        assert!((8..=64).contains(&pad) && pad % 8 == 0);
    }

    #[test]
    fn entry_padding_fixed_within_build_varies_across_builds() {
        let pad_of = |seed: u64| {
            let mut m = compile(PROG).unwrap();
            apply_entry_padding(&mut m, seed);
            let f = m.func(m.func_by_name("f").unwrap());
            let pad = f
                .iter_insts()
                .find_map(|(_, i)| match i {
                    Inst::Alloca { name, ty, .. } if name == ENTRY_PAD_NAME => Some(ty.size()),
                    _ => None,
                })
                .unwrap();
            pad
        };
        assert_eq!(pad_of(3), pad_of(3));
        let distinct: std::collections::HashSet<u64> = (0..16).map(pad_of).collect();
        assert!(distinct.len() > 1);
    }

    #[test]
    fn static_permutation_fixed_per_build() {
        let order_of = |seed: u64| -> Vec<String> {
            let mut m = compile(PROG).unwrap();
            apply_static_permutation(&mut m, seed);
            let f = m.func(m.func_by_name("f").unwrap());
            f.block(Function::ENTRY)
                .insts
                .iter()
                .filter_map(|i| match i {
                    Inst::Alloca { name, .. } => Some(name.clone()),
                    _ => None,
                })
                .collect()
        };
        assert_eq!(order_of(5), order_of(5), "same build seed, same layout");
        let orders: std::collections::HashSet<Vec<String>> = (0..20).map(order_of).collect();
        assert!(orders.len() > 1, "different builds should differ");
    }

    #[test]
    fn canary_detects_linear_overflow() {
        let src = r#"
            int victim() {
                char buf[16];
                memset(buf, 65, 64);
                return 0;
            }
            int main() { return victim(); }
        "#;
        let mut m = compile(src).unwrap();
        apply_stack_canary(&mut m);
        verify_module(&m).unwrap();
        let out = Executor::for_module(m)
            .build()
            .run_main(ScriptedInput::empty());
        assert!(
            matches!(out.exit, Exit::Fault(FaultKind::CanarySmashed { .. })),
            "expected canary detection, got {:?}",
            out.exit
        );
    }

    #[test]
    fn matrix_labels_are_distinct() {
        let labels: std::collections::HashSet<String> =
            DefenseKind::MATRIX.iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), DefenseKind::MATRIX.len());
    }

    #[test]
    fn labels_round_trip_through_from_label() {
        for kind in DefenseKind::MATRIX {
            assert_eq!(DefenseKind::from_label(&kind.label()), Some(kind));
            assert_eq!(
                DefenseKind::from_label(&kind.label().to_ascii_uppercase()),
                Some(kind)
            );
        }
        assert_eq!(DefenseKind::from_label("no-such-defense"), None);
    }

    #[test]
    fn fleet_labels_round_trip() {
        for defense in DefenseKind::MATRIX {
            for pruned in [false, true] {
                let fleet = Fleet { defense, pruned };
                assert_eq!(Fleet::from_label(&fleet.label()), Some(fleet));
            }
            let plain = Fleet {
                defense,
                pruned: false,
            };
            assert_eq!(plain.label(), defense.label());
        }
        assert_eq!(Fleet::from_label("nope+prune"), None);
    }
}
