//! The AES-NI kernels: key expansion with `aeskeygenassist` and
//! reduced-round encryption with `aesenc`/`aesenclast`, on the same
//! `[[u8; 16]; 11]` round-key layout as the FIPS-197 software path.
//!
//! This module holds every `unsafe` block in `smokestack-srng`. The
//! kernels are `#[target_feature(enable = "aes")]` functions, which are
//! sound to call only on a CPU that has AES-NI; [`Kernel`] is the proof
//! that it does, since [`Kernel::detect`] returns one only after
//! `is_x86_feature_detected!("aes")` said so.

use core::arch::x86_64::{
    __m128i, _mm_aesenc_si128, _mm_aesenclast_si128, _mm_aeskeygenassist_si128, _mm_loadu_si128,
    _mm_shuffle_epi32, _mm_slli_si128, _mm_storeu_si128, _mm_xor_si128,
};

/// Proof that the running CPU has AES-NI; its methods run the kernels.
#[derive(Clone, Copy)]
pub(crate) struct Kernel(());

impl Kernel {
    /// `Some` when the CPU has AES-NI. The check reads a cached CPUID
    /// result, so calling it per block costs one load.
    #[inline]
    pub(crate) fn detect() -> Option<Kernel> {
        std::is_x86_feature_detected!("aes").then_some(Kernel(()))
    }

    /// The AES-128 key schedule of `key`.
    #[inline]
    pub(crate) fn expand_key(self, key: [u8; 16]) -> [[u8; 16]; 11] {
        // SAFETY: `self` exists only if `is_x86_feature_detected!("aes")`
        // returned true (see `Kernel::detect`), so the CPU executes the
        // `aes` target feature that `expand_key` is compiled for.
        unsafe { expand_key(key) }
    }

    /// `block` encrypted under `round_keys` with `rounds` rounds
    /// (`1..=10`, checked by the caller).
    #[inline]
    pub(crate) fn encrypt_rounds(
        self,
        round_keys: &[[u8; 16]; 11],
        block: [u8; 16],
        rounds: u32,
    ) -> [u8; 16] {
        // SAFETY: as in `expand_key` above, `self` proves that
        // `is_x86_feature_detected!("aes")` returned true.
        unsafe { encrypt_rounds(round_keys, block, rounds) }
    }
}

fn load(bytes: &[u8; 16]) -> __m128i {
    // SAFETY: `bytes` is 16 readable bytes, the unaligned load reads
    // exactly those, and SSE2 is part of the x86_64 baseline.
    unsafe { _mm_loadu_si128(bytes.as_ptr().cast()) }
}

fn store(v: __m128i) -> [u8; 16] {
    let mut out = [0u8; 16];
    // SAFETY: `out` is 16 writable bytes, the unaligned store writes
    // exactly those, and SSE2 is part of the x86_64 baseline.
    unsafe { _mm_storeu_si128(out.as_mut_ptr().cast(), v) };
    out
}

/// One key-expansion step: the previous round key, and the
/// `aeskeygenassist` of it under this round's constant.
#[target_feature(enable = "aes")]
fn next_round_key(prev: __m128i, assist: __m128i) -> __m128i {
    // Broadcast RotWord(SubWord(w3)) ^ rcon, then fold the running XOR
    // of the previous four words into it (FIPS-197 §5.2).
    let t = _mm_shuffle_epi32::<0xff>(assist);
    let mut k = _mm_xor_si128(prev, _mm_slli_si128::<4>(prev));
    k = _mm_xor_si128(k, _mm_slli_si128::<4>(k));
    k = _mm_xor_si128(k, _mm_slli_si128::<4>(k));
    _mm_xor_si128(k, t)
}

#[target_feature(enable = "aes")]
fn expand_key(key: [u8; 16]) -> [[u8; 16]; 11] {
    // `aeskeygenassist` takes its round constant as an immediate, so
    // the ten steps are spelled out (constants as in `RCON`).
    macro_rules! steps {
        ($k:ident, $rk:ident; $($i:literal => $rcon:literal),*) => {$(
            $k = next_round_key($k, _mm_aeskeygenassist_si128::<$rcon>($k));
            $rk[$i] = store($k);
        )*};
    }
    let mut rk = [[0u8; 16]; 11];
    rk[0] = key;
    let mut k = load(&key);
    steps!(k, rk; 1 => 0x01, 2 => 0x02, 3 => 0x04, 4 => 0x08, 5 => 0x10,
        6 => 0x20, 7 => 0x40, 8 => 0x80, 9 => 0x1b, 10 => 0x36);
    rk
}

#[target_feature(enable = "aes")]
fn encrypt_rounds(round_keys: &[[u8; 16]; 11], block: [u8; 16], rounds: u32) -> [u8; 16] {
    let rounds = rounds as usize;
    let mut s = _mm_xor_si128(load(&block), load(&round_keys[0]));
    for rk in &round_keys[1..rounds] {
        s = _mm_aesenc_si128(s, load(rk));
    }
    store(_mm_aesenclast_si128(s, load(&round_keys[rounds])))
}
