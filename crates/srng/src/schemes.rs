//! Concrete random-source implementations: the insecure memory-based
//! PRNG, AES-128 CTR (1 and 10 rounds), and simulated RDRAND.

use crate::aes::Aes128;
use crate::source::SchemeKind;
use crate::trng::SeededTrng;

/// The insecure, memory-based PRNG ("pseudo" in the paper).
///
/// This is a plain xorshift64*; its entire state is one `u64` that the VM
/// mirrors into attacker-readable data memory. An attacker who reads the
/// state can predict every future permutation index — the ablation attack
/// in `smokestack-attacks` does exactly that, reproducing the paper's
/// argument for why memory-based PRNGs are unsafe under its threat model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    /// Construct from a nonzero seed (zero is mapped to a fixed odd seed).
    pub fn new(seed: u64) -> XorShift64 {
        XorShift64 {
            state: if seed == 0 { 0x9e3779b97f4a7c15 } else { seed },
        }
    }

    /// Advance and return the next value. Public as a free function of
    /// the state too (see [`XorShift64::step`]) so attack code can
    /// replicate the generator from disclosed state.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u64 {
        let (next_state, out) = Self::step(self.state);
        self.state = next_state;
        out
    }

    /// The output multiplier (public — the algorithm is no secret).
    pub const MULT: u64 = 0x2545f4914f6cdd1d;

    /// One generator step from an arbitrary state: `(next_state, output)`.
    ///
    /// Attack code uses this to run the generator forward from a
    /// disclosed state.
    pub fn step(mut s: u64) -> (u64, u64) {
        s ^= s >> 12;
        s ^= s << 25;
        s ^= s >> 27;
        (s, s.wrapping_mul(Self::MULT))
    }

    /// The output that was produced by the step that *led to* `state` —
    /// i.e. the most recent draw an attacker can reconstruct after
    /// disclosing the in-memory state (`output = state * MULT`).
    pub fn output_of_state(state: u64) -> u64 {
        state.wrapping_mul(Self::MULT)
    }

    /// Invert one generator step: given the state *after* a step,
    /// recover the state before it. Lets an attacker walk the generator
    /// backwards from a single disclosure.
    pub fn unstep(state: u64) -> u64 {
        // Invert s ^= s >> 27 (one application suffices: 27*2 > 64… use
        // iterative refinement for each stage).
        let mut s = state;
        s = invert_xorshift_right(s, 27);
        s = invert_xorshift_left(s, 25);
        s = invert_xorshift_right(s, 12);
        s
    }
}

fn invert_xorshift_right(mut v: u64, shift: u32) -> u64 {
    // y = x ^ (x >> s)  =>  recover x by repeated re-application.
    let mut recovered = v;
    for _ in 0..(64 / shift + 1) {
        recovered = v ^ (recovered >> shift);
    }
    v = recovered;
    v
}

fn invert_xorshift_left(mut v: u64, shift: u32) -> u64 {
    let mut recovered = v;
    for _ in 0..(64 / shift + 1) {
        recovered = v ^ (recovered << shift);
    }
    v = recovered;
    v
}

/// AES-128 counter-mode generator with a configurable round count.
///
/// Key and nonce are held **outside** the simulated data memory (the
/// paper keeps them in registers via AES-NI); a universal counter
/// triggers a re-key from the true-random source, mirroring §III-D.
///
/// The counter (`draws`) counts encrypted *blocks*, not `next_u64`
/// calls: each block yields two `u64`s. It is incremented before it is
/// compared with the interval, so the first key serves
/// `rekey_interval - 1` blocks and every later key `rekey_interval`
/// blocks. Keystreams past the first rekey are pinned, so the counting
/// stays as it is.
///
/// The key schedule is expanded on the first draw after each (re)key,
/// not when the key is drawn: a generator that never draws (every
/// unprotected or canary VM is handed one) costs two TRNG fills, not
/// an AES key expansion. The TRNG draw order, and so the keystream,
/// is the same either way.
pub struct Aes128Ctr {
    key: [u8; 16],
    /// `key`'s expanded schedule; `None` until the first draw under it.
    aes: Option<Aes128>,
    nonce: u128,
    counter: u32,
    rounds: u32,
    rekey_interval: u32,
    /// Blocks encrypted under the current key (see the type docs).
    draws: u32,
    trng: SeededTrng,
    /// One encrypted block yields two u64 outputs; the spare is cached.
    spare: Option<u64>,
}

/// Draw a fresh key, then a nonce whose low 32 bits are cleared for
/// the block counter: the one keying step of construction and rekey.
fn draw_key(trng: &mut SeededTrng) -> ([u8; 16], u128) {
    let mut key = [0u8; 16];
    trng.fill(&mut key);
    let mut nonce = [0u8; 16];
    trng.fill(&mut nonce);
    (key, u128::from_le_bytes(nonce) & !0xffff_ffff)
}

impl Aes128Ctr {
    /// Default re-key interval, in blocks (two `u64` draws each): the
    /// first key serves `2^20 - 1` blocks, every later key `2^20`.
    pub const DEFAULT_REKEY_INTERVAL: u32 = 1 << 20;

    /// Create a generator with `rounds` AES rounds (1 for "AES-1",
    /// 10 for "AES-10"), keyed from `trng`.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= rounds <= 10`.
    pub fn new(rounds: u32, mut trng: SeededTrng) -> Aes128Ctr {
        assert!((1..=10).contains(&rounds), "rounds must be in 1..=10");
        let (key, nonce) = draw_key(&mut trng);
        Aes128Ctr {
            key,
            aes: None,
            nonce,
            counter: 0,
            rounds,
            rekey_interval: Self::DEFAULT_REKEY_INTERVAL,
            draws: 0,
            trng,
            spare: None,
        }
    }

    fn rekey(&mut self) {
        (self.key, self.nonce) = draw_key(&mut self.trng);
        self.aes = None;
        self.counter = 0;
        self.spare = None;
    }

    /// Draw the next 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        if let Some(v) = self.spare.take() {
            return v;
        }
        self.draws += 1;
        if self.draws >= self.rekey_interval {
            self.draws = 0;
            self.rekey();
        }
        let block_in = (self.nonce | self.counter as u128).to_le_bytes();
        self.counter = self.counter.wrapping_add(1);
        let key = self.key;
        let aes = self.aes.get_or_insert_with(|| Aes128::new(key));
        let block = aes.encrypt_block_rounds(block_in, self.rounds);
        let lo = u64::from_le_bytes(block[..8].try_into().expect("8 bytes"));
        let hi = u64::from_le_bytes(block[8..].try_into().expect("8 bytes"));
        self.spare = Some(hi);
        lo
    }
}

/// The per-invocation entropy source serving `stack_rng`: one of the
/// paper's four schemes, held by value so a respawn or thread spawn
/// re-keys by assignment.
///
/// Its modelled hardware cost is reported separately through
/// [`SchemeKind::cost_decicycles`] so the VM can charge it to the
/// simulated cycle budget.
// The AES variant is large (its expanded key schedule), but a source
// lives in place for a VM's or a thread's lifetime; boxing it would put
// an allocation back on every respawn and thread spawn.
#[allow(clippy::large_enum_variant)]
pub enum EntropySource {
    /// The insecure memory-based PRNG ("pseudo").
    Pseudo(XorShift64),
    /// AES-128 CTR; its round count distinguishes AES-1 from AES-10.
    Aes(Aes128Ctr),
    /// Simulated RDRAND: a fresh true-random value per invocation, at
    /// the modelled 265.6-cycle latency of the hardware instruction.
    Rdrand(SeededTrng),
}

impl EntropySource {
    /// Draw the next 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        match self {
            EntropySource::Pseudo(x) => x.next(),
            EntropySource::Aes(a) => a.next_u64(),
            EntropySource::Rdrand(t) => t.next_u64(),
        }
    }
}

/// Build the scheme named by `kind`, seeded from `trng`.
pub fn build_source(kind: SchemeKind, mut trng: SeededTrng) -> EntropySource {
    match kind {
        SchemeKind::Pseudo => EntropySource::Pseudo(XorShift64::new(trng.next_u64())),
        SchemeKind::Aes1 => EntropySource::Aes(Aes128Ctr::new(1, trng)),
        SchemeKind::Aes10 => EntropySource::Aes(Aes128Ctr::new(10, trng)),
        SchemeKind::Rdrand => EntropySource::Rdrand(trng),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xorshift_predictable_from_state() {
        let mut gen = XorShift64::new(1234);
        let disclosed = gen.state;
        // Attacker replicates the stream from the disclosed state.
        let (s1, predicted) = XorShift64::step(disclosed);
        assert_eq!(gen.next(), predicted);
        let (_, predicted2) = XorShift64::step(s1);
        assert_eq!(gen.next(), predicted2);
    }

    #[test]
    fn xorshift_unstep_inverts_step() {
        for seed in [1u64, 42, 0xdead_beef, u64::MAX] {
            let (next, _) = XorShift64::step(seed);
            assert_eq!(XorShift64::unstep(next), seed);
        }
    }

    #[test]
    fn xorshift_output_recoverable_from_state() {
        let mut g = XorShift64::new(77);
        let out = g.next();
        // Attacker discloses the post-draw state and reconstructs the
        // draw that produced it.
        assert_eq!(XorShift64::output_of_state(g.state), out);
    }

    #[test]
    fn xorshift_zero_seed_handled() {
        let mut g = XorShift64::new(0);
        assert_ne!(g.next(), 0);
    }

    #[test]
    fn aes_ctr_streams_differ_by_rounds() {
        let a1: Vec<u64> = {
            let mut g = Aes128Ctr::new(1, SeededTrng::new(9));
            (0..8).map(|_| g.next_u64()).collect()
        };
        let a10: Vec<u64> = {
            let mut g = Aes128Ctr::new(10, SeededTrng::new(9));
            (0..8).map(|_| g.next_u64()).collect()
        };
        assert_ne!(a1, a10);
    }

    #[test]
    fn aes_ctr_deterministic_under_seeded_trng() {
        let mut a = Aes128Ctr::new(10, SeededTrng::new(5));
        let mut b = Aes128Ctr::new(10, SeededTrng::new(5));
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn aes_ctr_no_short_cycles() {
        let mut g = Aes128Ctr::new(10, SeededTrng::new(1));
        let mut seen = std::collections::HashSet::new();
        for _ in 0..10_000 {
            assert!(seen.insert(g.next_u64()), "keystream repeated");
        }
    }

    #[test]
    fn rekey_changes_stream() {
        let mut g = Aes128Ctr::new(10, SeededTrng::new(3));
        g.rekey_interval = 4;
        let vals: Vec<u64> = (0..64).map(|_| g.next_u64()).collect();
        let unique: std::collections::HashSet<_> = vals.iter().collect();
        assert_eq!(unique.len(), vals.len());
    }

    /// Eager reference for [`Aes128Ctr`]: expands each key as soon as
    /// it is drawn from the TRNG, in the same draw order.
    fn eager_stream(rounds: u32, seed: u64, rekey_interval: u32, n: usize) -> Vec<u64> {
        let mut trng = SeededTrng::new(seed);
        let rekey = |trng: &mut SeededTrng| {
            let mut key = [0u8; 16];
            trng.fill(&mut key);
            let mut nonce = [0u8; 16];
            trng.fill(&mut nonce);
            (Aes128::new(key), u128::from_le_bytes(nonce) & !0xffff_ffff)
        };
        let (mut aes, mut nonce) = rekey(&mut trng);
        let (mut counter, mut draws) = (0u32, 0u32);
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            draws += 1;
            if draws >= rekey_interval {
                draws = 0;
                (aes, nonce) = rekey(&mut trng);
                counter = 0;
            }
            let block = aes.encrypt_block_rounds((nonce | counter as u128).to_le_bytes(), rounds);
            counter += 1;
            out.push(u64::from_le_bytes(block[..8].try_into().unwrap()));
            out.push(u64::from_le_bytes(block[8..].try_into().unwrap()));
        }
        out.truncate(n);
        out
    }

    #[test]
    fn lazy_key_schedule_matches_eager_keying_across_rekeys() {
        for rounds in [1, 10] {
            for seed in [3, 0x5eed] {
                let mut lazy = Aes128Ctr::new(rounds, SeededTrng::new(seed));
                lazy.rekey_interval = 5;
                let got: Vec<u64> = (0..101).map(|_| lazy.next_u64()).collect();
                assert_eq!(got, eager_stream(rounds, seed, 5, 101), "rounds {rounds}");
                // The default interval: no rekey inside the window.
                let mut lazy = Aes128Ctr::new(rounds, SeededTrng::new(seed));
                let got: Vec<u64> = (0..16).map(|_| lazy.next_u64()).collect();
                let want = eager_stream(rounds, seed, Aes128Ctr::DEFAULT_REKEY_INTERVAL, 16);
                assert_eq!(got, want, "rounds {rounds}");
            }
        }
    }

    /// The first 16 draws of `build_source(kind, SeededTrng::new(42))`,
    /// recorded from the FIPS-197 software path: under the default
    /// interval, and with `rekey_interval = 3`, which rekeys after the
    /// 4th and the 10th draw. Every campaign pin, schedule digest and
    /// incident report rests on these keystreams, so a drift in the AES
    /// core fails here first.
    #[rustfmt::skip]
    const GOLDEN: [(SchemeKind, u32, [u64; 16]); 4] = [
        (SchemeKind::Aes1, Aes128Ctr::DEFAULT_REKEY_INTERVAL, [
            0x1dc059df4e0ea4c6, 0x39b01d4da0860466, 0x1dc059df4e0ea416, 0x39b01d4da0860466,
            0x1dc059df4e0ea443, 0x39b01d4da0860466, 0x1dc059df4e0ea4c3, 0x39b01d4da0860466,
            0x1dc059df4e0ea409, 0x39b01d4da0860466, 0x1dc059df4e0ea4a5, 0x39b01d4da0860466,
            0x1dc059df4e0ea4f3, 0x39b01d4da0860466, 0x1dc059df4e0ea45b, 0x39b01d4da0860466,
        ]),
        (SchemeKind::Aes1, 3, [
            0x1dc059df4e0ea4c6, 0x39b01d4da0860466, 0x1dc059df4e0ea416, 0x39b01d4da0860466,
            0x4e747257e9d0c526, 0x0df268297b38cb0e, 0x4e747257e9d0c5e9, 0x0df268297b38cb0e,
            0x4e747257e9d0c50a, 0x0df268297b38cb0e, 0x6a0370c649a912f6, 0xc148dd2f0b0f2a0b,
            0x6a0370c649a91284, 0xc148dd2f0b0f2a0b, 0x6a0370c649a91296, 0xc148dd2f0b0f2a0b,
        ]),
        (SchemeKind::Aes10, Aes128Ctr::DEFAULT_REKEY_INTERVAL, [
            0x38e8ce7244f5b62b, 0x15fbedb66d91a4e8, 0x781d0c341dde156f, 0xf84ec7cc026f3fb0,
            0xb9251e07a0022bde, 0x650179e3d6963ef8, 0x3522f804ad16c414, 0xe964008ac066755c,
            0x55e1c34fd9b5de34, 0x3074c21045389e7c, 0x96b4352542108ac1, 0x32dd29627a0ef544,
            0xa8e9fa3cb6172174, 0x0c85822878638bfa, 0x0f7cdc8cd2415857, 0x47454c0a7e4473e5,
        ]),
        (SchemeKind::Aes10, 3, [
            0x38e8ce7244f5b62b, 0x15fbedb66d91a4e8, 0x781d0c341dde156f, 0xf84ec7cc026f3fb0,
            0xbc86089b211289a0, 0x431a9651ab89e99b, 0xc1198462bfdfb187, 0xbeb2bbece6ae56de,
            0x94a7e5c55ae25a13, 0x3eef7d4dd908c4b3, 0x01eebd20b9ff34de, 0x8a1acb0e9404b4ce,
            0x1b6050db4778e48c, 0xec8a575b14163fb2, 0x4c5a8c53f423e12f, 0x0aa9ee3fd20efd8c,
        ]),
    ];

    #[test]
    fn aes_keystreams_match_golden() {
        for (kind, interval, want) in GOLDEN {
            let mut src = build_source(kind, SeededTrng::new(42));
            let EntropySource::Aes(ctr) = &mut src else {
                panic!("{kind:?} is not an AES source")
            };
            ctr.rekey_interval = interval;
            let got: Vec<u64> = (0..16).map(|_| src.next_u64()).collect();
            assert_eq!(got, want, "{kind:?}, rekey interval {interval}");
        }
    }

    #[test]
    fn rdrand_draws_fresh_values() {
        let mut r = build_source(SchemeKind::Rdrand, SeededTrng::new(7));
        assert_ne!(r.next_u64(), r.next_u64());
    }

    #[test]
    fn aes_ctr_bits_roughly_balanced() {
        // Not a randomness test suite — just a sanity check that the
        // keystream is not obviously biased.
        let mut g = Aes128Ctr::new(10, SeededTrng::new(31));
        let mut ones = 0u64;
        const N: u64 = 4096;
        for _ in 0..N {
            ones += g.next_u64().count_ones() as u64;
        }
        let expected = N * 32;
        let dev = ones.abs_diff(expected);
        assert!(
            dev < expected / 50,
            "bit bias too large: {ones} vs {expected}"
        );
    }

    #[test]
    fn masked_draws_cover_table_indices() {
        // Draw & mask must hit every row of a small table eventually —
        // the property the instrumentation's pow2 indexing relies on.
        let mut g = Aes128Ctr::new(10, SeededTrng::new(5));
        let mask = 7u64;
        let mut seen = std::collections::HashSet::new();
        for _ in 0..512 {
            seen.insert(g.next_u64() & mask);
        }
        assert_eq!(seen.len(), 8);
    }
}
