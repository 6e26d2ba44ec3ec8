//! Host wall-clock companion to Table I: what each randomness scheme's
//! implementation costs per draw, and what a respawn pays to re-key it.
//!
//! The VM charges the paper's modelled cycle costs (pseudo < AES-1 <
//! AES-10 < RDRAND), not these, and the host does not reproduce that
//! ordering. Measured per draw over three runs on a 2-vCPU Xeon with
//! AES-NI (release build): pseudo 3.1–3.7 ns ≈ RDRAND 2.6–4.0 ns <
//! AES-1 7.3–8.6 ns < AES-10 12.9–13.7 ns. The simulated RDRAND is a
//! software PRNG standing in for the 265.6-cycle instruction, so it is
//! among the cheapest here; the AES schemes run on AES-NI where the CPU
//! has it (107–169 ns per AES-10 draw on the FIPS-197 software path). A
//! respawn builds a fresh source and, the key schedule being expanded
//! lazily, pays the key expansion on its first draw; the "rekey + first
//! draw" cases time exactly that (107–141 ns for either AES scheme on
//! AES-NI; 346–369 ns for AES-1 and 592–674 ns for AES-10 in software).

use smokestack_bench::harness::{bench, black_box, group};
use smokestack_srng::{build_source, SchemeKind, SeededTrng};

fn main() {
    group("rng_sources");
    for kind in SchemeKind::ALL {
        let mut src = build_source(kind, SeededTrng::new(42));
        bench(kind.label(), || {
            black_box(src.next_u64());
        });
    }
    for kind in SchemeKind::ALL {
        let mut seed = 0u64;
        bench(&format!("{} rekey + first draw", kind.label()), || {
            seed += 1;
            let mut src = build_source(kind, SeededTrng::new(seed));
            black_box(src.next_u64());
        });
    }
}
