//! AES-128 with a configurable round count: AES-NI where the CPU has
//! it, a from-scratch FIPS-197 software path everywhere else.
//!
//! The paper's prototype uses Intel AES-NI to encrypt a counter with a
//! true-random key; it evaluates both the standard 10-round AES-128
//! ("AES-10", standard-conforming) and a weakened 1-round variant
//! ("AES-1") to expose the security/performance trade-off. This module
//! provides exactly that: [`Aes128::encrypt_block`] is standard AES-128
//! and is tested against the FIPS-197 appendix vectors, while
//! [`Aes128::encrypt_block_rounds`] runs a reduced number of rounds.
//!
//! [`Aes128::new`] and [`Aes128::encrypt_block_rounds`] pick the path
//! at run time: on an x86_64 CPU with the `aes` feature they run the
//! AES-NI kernels of the `ni` module (`aeskeygenassist`, `aesenc`,
//! `aesenclast`); on any other host they run the byte-at-a-time
//! software code below, which is also the reference the kernels are
//! tested against. Both paths use the same round-key layout and
//! produce the same bytes, so a keystream does not depend on the host.

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod ni;

/// The AES S-box.
const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

/// Round constants for key expansion.
const RCON: [u8; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];

/// Multiply in GF(2^8) with the AES reduction polynomial.
fn xtime(a: u8) -> u8 {
    let hi = a & 0x80;
    let mut r = a << 1;
    if hi != 0 {
        r ^= 0x1b;
    }
    r
}

fn gmul(a: u8, b: u8) -> u8 {
    let mut r = 0u8;
    let mut a = a;
    let mut b = b;
    while b != 0 {
        if b & 1 != 0 {
            r ^= a;
        }
        a = xtime(a);
        b >>= 1;
    }
    r
}

/// AES-128 with a precomputed key schedule.
#[derive(Debug, Clone)]
pub struct Aes128 {
    round_keys: [[u8; 16]; 11],
}

impl Aes128 {
    /// Expand a 128-bit key into the full schedule.
    pub fn new(key: [u8; 16]) -> Aes128 {
        #[cfg(target_arch = "x86_64")]
        if let Some(kernel) = ni::Kernel::detect() {
            return Aes128 {
                round_keys: kernel.expand_key(key),
            };
        }
        Aes128 {
            round_keys: expand_key(key),
        }
    }

    /// Standard 10-round AES-128 encryption of one block.
    pub fn encrypt_block(&self, block: [u8; 16]) -> [u8; 16] {
        self.encrypt_block_rounds(block, 10)
    }

    /// Reduced-round encryption: `AddRoundKey`, then `rounds - 1` full
    /// rounds, then a final round without `MixColumns`. `rounds == 10` is
    /// standard AES-128.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= rounds <= 10`.
    pub fn encrypt_block_rounds(&self, block: [u8; 16], rounds: u32) -> [u8; 16] {
        assert!((1..=10).contains(&rounds), "rounds must be in 1..=10");
        #[cfg(target_arch = "x86_64")]
        if let Some(kernel) = ni::Kernel::detect() {
            return kernel.encrypt_rounds(&self.round_keys, block, rounds);
        }
        encrypt_rounds(&self.round_keys, block, rounds)
    }
}

/// The FIPS-197 key expansion (§5.2): the software path's schedule.
fn expand_key(key: [u8; 16]) -> [[u8; 16]; 11] {
    let mut w = [[0u8; 4]; 44];
    for i in 0..4 {
        w[i] = [key[4 * i], key[4 * i + 1], key[4 * i + 2], key[4 * i + 3]];
    }
    for i in 4..44 {
        let mut t = w[i - 1];
        if i % 4 == 0 {
            t.rotate_left(1);
            for b in &mut t {
                *b = SBOX[*b as usize];
            }
            t[0] ^= RCON[i / 4 - 1];
        }
        for j in 0..4 {
            w[i][j] = w[i - 4][j] ^ t[j];
        }
    }
    let mut round_keys = [[0u8; 16]; 11];
    for (r, rk) in round_keys.iter_mut().enumerate() {
        for c in 0..4 {
            rk[4 * c..4 * c + 4].copy_from_slice(&w[4 * r + c]);
        }
    }
    round_keys
}

/// The FIPS-197 cipher (§5.1) cut to `rounds` rounds: the software
/// path's block encryption.
fn encrypt_rounds(round_keys: &[[u8; 16]; 11], block: [u8; 16], rounds: u32) -> [u8; 16] {
    let mut s = block;
    add_round_key(&mut s, &round_keys[0]);
    for rk in &round_keys[1..rounds as usize] {
        sub_bytes(&mut s);
        shift_rows(&mut s);
        mix_columns(&mut s);
        add_round_key(&mut s, rk);
    }
    sub_bytes(&mut s);
    shift_rows(&mut s);
    add_round_key(&mut s, &round_keys[rounds as usize]);
    s
}

// State is column-major: s[4*c + r] is row r, column c (as in FIPS-197).

fn add_round_key(s: &mut [u8; 16], rk: &[u8; 16]) {
    for i in 0..16 {
        s[i] ^= rk[i];
    }
}

fn sub_bytes(s: &mut [u8; 16]) {
    for b in s.iter_mut() {
        *b = SBOX[*b as usize];
    }
}

fn shift_rows(s: &mut [u8; 16]) {
    let orig = *s;
    for r in 1..4 {
        for c in 0..4 {
            s[4 * c + r] = orig[4 * ((c + r) % 4) + r];
        }
    }
}

fn mix_columns(s: &mut [u8; 16]) {
    for c in 0..4 {
        let col = [s[4 * c], s[4 * c + 1], s[4 * c + 2], s[4 * c + 3]];
        s[4 * c] = gmul(col[0], 2) ^ gmul(col[1], 3) ^ col[2] ^ col[3];
        s[4 * c + 1] = col[0] ^ gmul(col[1], 2) ^ gmul(col[2], 3) ^ col[3];
        s[4 * c + 2] = col[0] ^ col[1] ^ gmul(col[2], 2) ^ gmul(col[3], 3);
        s[4 * c + 3] = gmul(col[0], 3) ^ col[1] ^ col[2] ^ gmul(col[3], 2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(s: &str) -> [u8; 16] {
        let mut out = [0u8; 16];
        for i in 0..16 {
            out[i] = u8::from_str_radix(&s[2 * i..2 * i + 2], 16).unwrap();
        }
        out
    }

    /// FIPS-197 Appendix B (worked example) and C.1 (AES-128
    /// known-answer test): `(key, plaintext, ciphertext)`.
    const FIPS_197: [(&str, &str, &str); 2] = [
        (
            "2b7e151628aed2a6abf7158809cf4f3c",
            "3243f6a8885a308d313198a2e0370734",
            "3925841d02dc09fbdc118597196a0b32",
        ),
        (
            "000102030405060708090a0b0c0d0e0f",
            "00112233445566778899aabbccddeeff",
            "69c4e0d86a7b0430d8cdb78070b4c55a",
        ),
    ];

    /// The software path, and whichever path [`Aes128`] picks here.
    #[test]
    fn fips_197_vectors() {
        for (key, pt, ct) in FIPS_197 {
            assert_eq!(encrypt_rounds(&expand_key(hex(key)), hex(pt), 10), hex(ct));
            assert_eq!(Aes128::new(hex(key)).encrypt_block(hex(pt)), hex(ct));
        }
    }

    /// The AES-NI kernels, or `None` (and a note on stderr) on a host
    /// without them, where the NI cases skip.
    #[cfg(target_arch = "x86_64")]
    fn kernel() -> Option<ni::Kernel> {
        let kernel = ni::Kernel::detect();
        if kernel.is_none() {
            eprintln!("CPU has no AES-NI: skipping the AES-NI cases");
        }
        kernel
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn fips_197_vectors_ni() {
        let Some(kernel) = kernel() else { return };
        for (key, pt, ct) in FIPS_197 {
            let rk = kernel.expand_key(hex(key));
            assert_eq!(kernel.encrypt_rounds(&rk, hex(pt), 10), hex(ct));
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn ni_matches_software_on_random_keys() {
        let Some(kernel) = kernel() else { return };
        let mut trng = crate::SeededTrng::new(0xae5_417);
        for _ in 0..256 {
            let (mut key, mut block) = ([0u8; 16], [0u8; 16]);
            trng.fill(&mut key);
            trng.fill(&mut block);
            let rk = expand_key(key);
            assert_eq!(kernel.expand_key(key), rk, "schedule of key {key:02x?}");
            for rounds in 1..=10 {
                assert_eq!(
                    kernel.encrypt_rounds(&rk, block, rounds),
                    encrypt_rounds(&rk, block, rounds),
                    "key {key:02x?}, block {block:02x?}, {rounds} rounds"
                );
            }
        }
    }

    #[test]
    fn reduced_rounds_differ_from_full() {
        let aes = Aes128::new(hex("000102030405060708090a0b0c0d0e0f"));
        let pt = hex("00112233445566778899aabbccddeeff");
        let one = aes.encrypt_block_rounds(pt, 1);
        let ten = aes.encrypt_block_rounds(pt, 10);
        assert_ne!(one, ten);
        assert_ne!(one, pt);
    }

    #[test]
    fn rounds_are_deterministic() {
        let aes = Aes128::new([7u8; 16]);
        let pt = [1u8; 16];
        for r in 1..=10 {
            assert_eq!(
                aes.encrypt_block_rounds(pt, r),
                aes.encrypt_block_rounds(pt, r)
            );
        }
    }

    #[test]
    #[should_panic(expected = "rounds must be in 1..=10")]
    fn zero_rounds_rejected() {
        Aes128::new([0u8; 16]).encrypt_block_rounds([0u8; 16], 0);
    }

    #[test]
    fn gf_multiplication() {
        // Examples from FIPS-197 §4.2.
        assert_eq!(gmul(0x57, 0x13), 0xfe);
        assert_eq!(gmul(0x57, 0x02), 0xae);
        assert_eq!(gmul(0x57, 0x01), 0x57);
    }

    #[test]
    fn shift_rows_layout() {
        let mut s = [0u8; 16];
        for (i, b) in s.iter_mut().enumerate() {
            *b = i as u8;
        }
        shift_rows(&mut s);
        // Row 0 unshifted: bytes 0,4,8,12 stay.
        assert_eq!([s[0], s[4], s[8], s[12]], [0, 4, 8, 12]);
        // Row 1 rotated by 1: positions pick up next column.
        assert_eq!([s[1], s[5], s[9], s[13]], [5, 9, 13, 1]);
    }
}
