//! The true-random seeding source.
//!
//! The paper seeds its AES generator (key + nonce) from a true-random
//! source and re-seeds when a universal call counter hits a maximum. For
//! reproducible experiments that source is a deterministic "lab bench"
//! TRNG seeded explicitly.

use smokestack_rand::Rng;

/// Deterministic TRNG stand-in for reproducible experiments and tests:
/// the source of keys, nonces, guard keys, canaries and RDRAND values.
///
/// Security analyses in this repo run attacks thousands of times; a fixed
/// seed makes failures replayable while the *program under test* still
/// sees an unpredictable-to-it stream.
#[derive(Debug, Clone)]
pub struct SeededTrng(Rng);

impl SeededTrng {
    /// Construct from a 64-bit seed.
    pub fn new(seed: u64) -> SeededTrng {
        SeededTrng(Rng::seed_from_u64(seed))
    }

    /// Fill `buf` with entropy.
    pub fn fill(&mut self, buf: &mut [u8]) {
        self.0.fill_bytes(buf);
    }

    /// Draw a true-random `u64` (the little-endian value of an
    /// eight-byte [`SeededTrng::fill`]).
    pub fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_trng_reproducible() {
        let mut a = SeededTrng::new(42);
        let mut b = SeededTrng::new(42);
        for _ in 0..16 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SeededTrng::new(43);
        assert_ne!(SeededTrng::new(42).next_u64(), c.next_u64());
    }
}
