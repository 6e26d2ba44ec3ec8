//! # smokestack-srng
//!
//! Random-number sources for the Smokestack reproduction, covering the
//! four schemes the paper evaluates (§III-D, Table I):
//!
//! | source  | security | cycles/invocation |
//! |---------|----------|-------------------|
//! | pseudo  | None     | 3.4               |
//! | AES-1   | Low      | 19.2              |
//! | AES-10  | High     | 92.8              |
//! | RDRAND  | High     | 265.6             |
//!
//! * [`XorShift64`] is the insecure memory-based PRNG whose state is
//!   deliberately disclosable (the paper's "pseudo" baseline).
//! * [`Aes128Ctr`] is AES-128 counter mode built on a from-scratch
//!   FIPS-197 [`Aes128`] core, with 1-round ("AES-1") and 10-round
//!   ("AES-10") configurations and periodic true-random re-keying.
//! * RDRAND, the on-chip true random number generator, is modelled by
//!   drawing straight from the [`SeededTrng`] that keys the others.
//!
//! [`build_source`] builds any of the four as one [`EntropySource`]
//! value; nothing is boxed, so a VM re-keys by assigning a new one.
//! The TRNG is deterministic and explicitly seeded, so every run is
//! replayable from its seed.
//!
//! Hardware latency is *modelled*, not measured: [`SchemeKind`] carries
//! the paper's per-invocation cycle costs so the VM can charge them to
//! its simulated cycle budget.
//!
//! # Examples
//!
//! ```
//! use smokestack_srng::{build_source, SchemeKind, SeededTrng};
//!
//! let mut src = build_source(SchemeKind::Aes10, SeededTrng::new(42));
//! let a = src.next_u64();
//! let b = src.next_u64();
//! assert_ne!(a, b);
//! assert_eq!(SchemeKind::Aes10.cost_cycles(), 92.8);
//! ```

#![warn(missing_docs)]

mod aes;
mod schemes;
mod source;
mod trng;

pub use aes::Aes128;
pub use schemes::{build_source, Aes128Ctr, EntropySource, XorShift64};
pub use source::{SchemeKind, SecurityLevel};
pub use trng::SeededTrng;
