//! In-workspace replacement for the small slice of the external `rand`
//! crate this workspace used: seedable generation, byte filling, ranges,
//! and shuffling.
//!
//! The workspace must build in registry-less environments (no crates.io
//! access at all), so even an optional external dependency is too much —
//! dependency *resolution* already needs the registry index. This crate
//! is the whole dependency instead: a SplitMix64 seed expander feeding a
//! xoshiro256++ generator (Blackman & Vigna), which is statistically far
//! stronger than anything the simulation needs for build-time seeds,
//! attacker guesses, and test-case generation.
//!
//! None of this is used for the *security-relevant* entropy of the
//! Smokestack runtime itself — that lives in `smokestack-srng` (AES-CTR,
//! simulated RDRAND) and models the paper's Table I sources.

/// SplitMix64: used to expand a 64-bit seed into generator state.
///
/// This is the constant-time mixer from Steele, Lea & Flood's
/// "Fast Splittable Pseudorandom Number Generators"; every output is a
/// bijective mix of the counter, so distinct seeds can never collapse to
/// identical xoshiro state.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Start the sequence at `seed`.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// Next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// xoshiro256++ deterministic generator.
///
/// 256 bits of state, period 2^256 − 1, passes BigCrush. Seeded through
/// [`SplitMix64`] so that a 64-bit seed yields well-mixed state.
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Deterministic generator from a 64-bit seed (drop-in for
    /// `StdRng::seed_from_u64`).
    pub fn seed_from_u64(seed: u64) -> Rng {
        let mut sm = SplitMix64::new(seed);
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = sm.next_u64();
        }
        // All-zero state is the one fixed point of the xoshiro transition;
        // SplitMix64 cannot produce four zero outputs in a row, but guard
        // anyway so the invariant is local.
        if s == [0, 0, 0, 0] {
            s[0] = 0x9e37_79b9_7f4a_7c15;
        }
        Rng { s }
    }

    /// Next 64-bit output (xoshiro256++ scrambler).
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Next 32-bit output (upper half of the 64-bit stream).
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Fill `buf` with random bytes.
    pub fn fill_bytes(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let v = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&v[..chunk.len()]);
        }
    }

    /// Uniform draw from `[lo, hi)` via rejection sampling (no modulo
    /// bias). Panics if the range is empty.
    pub fn gen_range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "gen_range: empty range {lo}..{hi}");
        let span = hi - lo;
        if span.is_power_of_two() {
            return lo + (self.next_u64() & (span - 1));
        }
        // Largest multiple of `span` that fits in u64; draws at or above
        // it would bias the low residues, so reject them.
        let zone = (u64::MAX / span) * span;
        loop {
            let v = self.next_u64();
            if v < zone {
                return lo + v % span;
            }
        }
    }

    /// Uniform draw from `[lo, hi]` inclusive.
    pub fn gen_range_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "gen_range_inclusive: empty range {lo}..={hi}");
        if lo == 0 && hi == u64::MAX {
            return self.next_u64();
        }
        self.gen_range(lo, hi + 1)
    }

    /// Uniform draw from `[0, n)` as usize (test-generator convenience).
    pub fn below(&mut self, n: usize) -> usize {
        self.gen_range(0, n as u64) as usize
    }

    /// Fisher-Yates shuffle (drop-in for `SliceRandom::shuffle`).
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.gen_range(0, i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }

    /// Pick a uniformly random element, or `None` on an empty slice.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> Option<&'a T> {
        if slice.is_empty() {
            None
        } else {
            Some(&slice[self.below(slice.len())])
        }
    }

    /// Bernoulli draw with probability `num / denom`.
    pub fn ratio(&mut self, num: u64, denom: u64) -> bool {
        self.gen_range(0, denom) < num
    }
}

/// Derive the `index`-th child seed of `master` in one hop.
///
/// This is the splittable-counter construction from Steele, Lea & Flood:
/// the child is a SplitMix64 mix of `master` advanced by `index` counter
/// steps, computed directly rather than by iterating. Two properties
/// matter for Monte-Carlo campaigns:
///
/// * **Order independence** — `split_seed(m, i)` depends only on
///   `(m, i)`, never on which worker thread asks first or how many
///   workers exist, so trial outcomes are bit-identical across `--jobs`
///   settings.
/// * **Statistical independence** — every output is a bijective mix of
///   the counter, so distinct `(master, index)` pairs cannot collapse to
///   identical trial randomness.
pub fn split_seed(master: u64, index: u64) -> u64 {
    let state = master.wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(index.wrapping_add(1)));
    let mut z = state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A labeled sub-stream of a master seed: `SeedStream::new(master,
/// domain)` isolates a domain (e.g. build seeds vs. trial seeds) and
/// [`SeedStream::seed`] indexes within it. Both hops go through
/// [`split_seed`], so streams never alias across domains or indices.
#[derive(Debug, Clone, Copy)]
pub struct SeedStream {
    root: u64,
}

impl SeedStream {
    /// Sub-stream `domain` of `master`.
    pub fn new(master: u64, domain: u64) -> SeedStream {
        SeedStream {
            root: split_seed(master, domain),
        }
    }

    /// The `index`-th seed of this stream.
    pub fn seed(&self, index: u64) -> u64 {
        split_seed(self.root, index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_deterministic_and_nonrepeating() {
        let mut a = SplitMix64::new(1234567);
        let mut b = SplitMix64::new(1234567);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), xs.len(), "outputs should not repeat");
    }

    #[test]
    fn seeds_differ_streams_differ() {
        let mut a = Rng::seed_from_u64(1);
        let mut b = Rng::seed_from_u64(2);
        let xs: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        assert_ne!(xs, ys);
    }

    #[test]
    fn fill_bytes_covers_partial_chunks() {
        let mut r = Rng::seed_from_u64(7);
        let mut buf = [0u8; 13];
        r.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
        // Same seed, same bytes.
        let mut r2 = Rng::seed_from_u64(7);
        let mut buf2 = [0u8; 13];
        r2.fill_bytes(&mut buf2);
        assert_eq!(buf, buf2);
    }

    #[test]
    fn gen_range_stays_in_bounds() {
        let mut r = Rng::seed_from_u64(99);
        for _ in 0..10_000 {
            let v = r.gen_range(10, 17);
            assert!((10..17).contains(&v));
            let w = r.gen_range_inclusive(1, 8);
            assert!((1..=8).contains(&w));
        }
    }

    #[test]
    fn gen_range_hits_every_residue() {
        let mut r = Rng::seed_from_u64(3);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            seen[r.gen_range(0, 7) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = Rng::seed_from_u64(5);
        let mut v: Vec<u32> = (0..64).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..64).collect::<Vec<u32>>());
        assert_ne!(v, (0..64).collect::<Vec<u32>>(), "64 elements should move");
    }

    #[test]
    fn split_seed_matches_iterated_counter() {
        // The one-hop form must equal "advance SplitMix64 by index+1
        // steps and take the last output" — the defining property of the
        // splittable counter.
        for master in [0u64, 1, 0xdead_beef] {
            let mut sm = SplitMix64::new(master);
            for index in 0..8u64 {
                let iterated = sm.next_u64();
                assert_eq!(split_seed(master, index), iterated, "m={master} i={index}");
            }
        }
    }

    #[test]
    fn seed_streams_do_not_alias() {
        let a = SeedStream::new(42, 0);
        let b = SeedStream::new(42, 1);
        let mut all: Vec<u64> = (0..64).map(|i| a.seed(i)).collect();
        all.extend((0..64).map(|i| b.seed(i)));
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n, "cross-domain or cross-index collision");
    }

    #[test]
    fn choose_and_ratio() {
        let mut r = Rng::seed_from_u64(11);
        assert!(r.choose::<u8>(&[]).is_none());
        let xs = [1, 2, 3];
        for _ in 0..100 {
            assert!(xs.contains(r.choose(&xs).unwrap()));
        }
        let hits = (0..1000).filter(|_| r.ratio(1, 4)).count();
        assert!((150..350).contains(&hits), "ratio(1,4) hit {hits}/1000");
    }
}
