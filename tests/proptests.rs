//! Randomized property tests over the core data structures and
//! invariants, driven by the in-workspace `smokestack_rand` generator so
//! the suite runs fully offline. Each test walks a deterministic seed
//! sequence; enable the `external-testing` feature for widened runs.

use smokestack_rand::Rng;
use smokestack_repro::core::{factorial, layout_for_rank, AllocSlot, PBoxBuilder, PBoxConfig};
use smokestack_repro::minic::compile;
use smokestack_repro::srng::{Aes128, Aes128Ctr, SeededTrng, XorShift64};
use smokestack_repro::vm::{layout, Executor, MemConfig, Memory, ScriptedInput};

/// Cases per property: modest by default, widened under
/// `--features external-testing` for soak runs.
fn cases() -> u64 {
    if cfg!(feature = "external-testing") {
        1024
    } else {
        96
    }
}

/// Arbitrary allocation multiset (realistic sizes/alignments).
fn arb_slots(rng: &mut Rng) -> Vec<AllocSlot> {
    let n = rng.gen_range(1, 7) as usize;
    (0..n)
        .map(|_| {
            let align_pow = rng.gen_range(0, 5).min(4);
            let units = rng.gen_range(1, 65);
            let align = 1u64 << align_pow;
            AllocSlot::new("s", units * align, align)
        })
        .collect()
}

/// Algorithm 1 invariants for every rank of arbitrary frames: slots are
/// aligned, non-overlapping, and inside the reported total.
#[test]
fn permutation_layouts_always_valid() {
    let mut rng = Rng::seed_from_u64(0x5eed_1001);
    for _ in 0..cases() {
        let slots = arb_slots(&mut rng);
        let n = slots.len();
        let nfact = factorial(n).unwrap();
        let rank = (rng.next_u64() as u128) % nfact;
        let l = layout_for_rank(&slots, rank);
        let mut ranges: Vec<(u64, u64)> = Vec::new();
        for (k, s) in slots.iter().enumerate() {
            assert_eq!(l.offsets[k] % s.align, 0, "misaligned slot");
            ranges.push((l.offsets[k], l.offsets[k] + s.size));
        }
        ranges.sort_unstable();
        for w in ranges.windows(2) {
            assert!(w[0].1 <= w[1].0, "slots overlap: {ranges:?}");
        }
        assert!(ranges.last().unwrap().1 <= l.total);
    }
}

/// Distinct ranks produce distinct orders (injectivity) for small n.
#[test]
fn permutation_ranks_injective() {
    let mut rng = Rng::seed_from_u64(0x5eed_1002);
    for _ in 0..cases() {
        let n = rng.gen_range(1, 6) as usize;
        let nfact = factorial(n).unwrap();
        let ra = (rng.next_u64() as u128) % nfact;
        let rb = (rng.next_u64() as u128) % nfact;
        let oa = smokestack_repro::core::order_for_rank(n, ra);
        let ob = smokestack_repro::core::order_for_rank(n, rb);
        assert_eq!(ra == rb, oa == ob, "n={n} ra={ra} rb={rb}");
    }
}

/// P-BOX tables built from arbitrary frames keep every row inside the
/// advertised slab size, for every function placement.
#[test]
fn pbox_rows_fit_slab() {
    let mut rng = Rng::seed_from_u64(0x5eed_1003);
    for _ in 0..cases() {
        let nframes = rng.gen_range(1, 5) as usize;
        let frames: Vec<Vec<AllocSlot>> = (0..nframes).map(|_| arb_slots(&mut rng)).collect();
        let mut b = PBoxBuilder::new(PBoxConfig {
            max_table_len: 64,
            ..PBoxConfig::default()
        });
        let keys: Vec<usize> = frames.iter().map(|f| b.add(f)).collect();
        let (pbox, placements) = b.finish();
        for (frame, key) in frames.iter().zip(keys) {
            let p = &placements[key];
            let t = &pbox.tables[p.table];
            for row in &t.rows {
                for (slot_idx, &col) in p.columns.iter().enumerate() {
                    let off = row.offsets[col];
                    assert!(off + frame[slot_idx].size <= p.slab_size);
                    assert_eq!(off % frame[slot_idx].align, 0);
                }
            }
        }
    }
}

/// AES-128 is a permutation: distinct blocks encrypt to distinct
/// ciphertexts under the same key.
#[test]
fn aes_injective() {
    let mut rng = Rng::seed_from_u64(0x5eed_1004);
    for round in 0..cases() {
        let mut key = [0u8; 16];
        let mut a = [0u8; 16];
        let mut b = [0u8; 16];
        rng.fill_bytes(&mut key);
        rng.fill_bytes(&mut a);
        if round % 4 == 0 {
            b = a; // exercise the equal-block direction too
        } else {
            rng.fill_bytes(&mut b);
        }
        let aes = Aes128::new(key);
        assert_eq!(a == b, aes.encrypt_block(a) == aes.encrypt_block(b));
    }
}

/// The CTR keystream never repeats within a window, for any seed.
#[test]
fn aes_ctr_no_repeats() {
    let mut rng = Rng::seed_from_u64(0x5eed_1005);
    for _ in 0..cases().min(32) {
        let seed = rng.next_u64();
        let mut g = Aes128Ctr::new(10, SeededTrng::new(seed));
        let mut seen = std::collections::HashSet::new();
        for _ in 0..512 {
            assert!(seen.insert(g.next_u64()), "CTR repeat under seed {seed}");
        }
    }
}

/// xorshift unstep is a two-sided inverse of step.
#[test]
fn xorshift_bijective() {
    let mut rng = Rng::seed_from_u64(0x5eed_1006);
    for _ in 0..cases() * 8 {
        let s = rng.next_u64();
        let (next, _) = XorShift64::step(s);
        assert_eq!(XorShift64::unstep(next), s);
    }
}

/// Memory round-trips arbitrary byte strings at arbitrary valid offsets
/// in the data segment.
#[test]
fn memory_roundtrip() {
    let mut rng = Rng::seed_from_u64(0x5eed_1007);
    for _ in 0..cases() {
        let off = rng.gen_range(8, 4000);
        let len = rng.gen_range(1, 64) as usize;
        let mut bytes = vec![0u8; len];
        rng.fill_bytes(&mut bytes);
        let mut m = Memory::new(MemConfig::default());
        let addr = layout::DATA_BASE + off;
        m.write(addr, &bytes).unwrap();
        assert_eq!(m.read(addr, bytes.len() as u64).unwrap(), &bytes[..]);
    }
}

/// Observational equivalence: for randomly generated straight-line
/// arithmetic programs, the hardened build returns exactly what the
/// baseline returns, across seeds.
#[test]
fn hardened_equivalence_random_programs() {
    let mut rng = Rng::seed_from_u64(0x5eed_1008);
    for _ in 0..cases().min(48) {
        let n = rng.gen_range(3, 8) as usize;
        let consts: Vec<i64> = (0..n).map(|_| rng.gen_range(0, 200) as i64 - 100).collect();
        let seed = rng.next_u64();
        // Build: long v0 = c0; ... ; return v0 + v1 + v2 ...;
        let decls: String = consts
            .iter()
            .enumerate()
            .map(|(i, c)| format!("long v{i} = {c}; char b{i}[{}];\n", 8 + 8 * (i % 3)))
            .collect();
        let expr: String = (0..consts.len())
            .map(|i| format!("v{i}"))
            .collect::<Vec<_>>()
            .join(" + ");
        let src = format!("long main() {{ {decls} return {expr}; }}");
        let baseline = {
            let m = compile(&src).unwrap();
            Executor::for_module(m)
                .build()
                .run_main(ScriptedInput::empty())
        };
        let mut m = compile(&src).unwrap();
        smokestack_repro::core::harden(
            &mut m,
            &smokestack_repro::core::SmokestackConfig::default(),
        )
        .unwrap();
        let hard = Executor::for_module(m)
            .trng_seed(seed)
            .build()
            .run_main(ScriptedInput::empty());
        assert_eq!(baseline.exit, hard.exit, "seed={seed}\n{src}");
    }
}
