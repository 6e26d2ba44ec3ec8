//! Layers every workload shares: the set-up pipeline (compile, verify,
//! harden/deploy, lower) and the entropy sources, each timed from
//! outside through its public functions.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use smokestack_core::{harden, SmokestackConfig};
use smokestack_defenses::{deploy_configured, DefenseKind, Deployment};
use smokestack_ir::Module;
use smokestack_srng::{build_source, SchemeKind, SeededTrng};
use smokestack_vm::{CompiledModule, Executor};

use crate::stats::{median, name_segment, Metric};

/// Wall time spent in each set-up layer, summed over every module a
/// workload prepares.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// `minic::compile`, ns.
    pub compile_ns: u64,
    /// `ir::verify_module`, ns.
    pub verify_ns: u64,
    /// `smokestack::harden` (direct Smokestack builds), ns.
    pub harden_ns: u64,
    /// `defenses::deploy_configured` (defense-matrix builds), ns.
    pub deploy_ns: u64,
    /// First (uncached) bytecode lowering through `Executor::compiled`, ns.
    pub lower_ns: u64,
    /// P-BOX bytes the hardening pass added.
    pub pbox_bytes: u64,
}

fn timed<R>(slot: &mut u64, f: impl FnOnce() -> R) -> R {
    let t = Instant::now();
    let out = f();
    *slot += t.elapsed().as_nanos() as u64;
    out
}

impl SetupTimes {
    /// Compile MiniC `source` and verify it.
    pub fn compile(&mut self, source: &str) -> Result<Module, String> {
        let m = timed(&mut self.compile_ns, || smokestack_minic::compile(source))
            .map_err(|e| format!("compile: {e}"))?;
        self.verify(&m)?;
        Ok(m)
    }

    /// Verify `m`.
    pub fn verify(&mut self, m: &Module) -> Result<(), String> {
        timed(&mut self.verify_ns, || smokestack_ir::verify_module(m))
            .map_err(|e| format!("verify: {e:?}"))
    }

    /// Harden a copy of `base` with the default Smokestack configuration.
    pub fn harden(&mut self, base: &Module) -> Result<Module, String> {
        let mut m = base.clone();
        let report = timed(&mut self.harden_ns, || {
            harden(&mut m, &SmokestackConfig::default())
        })
        .map_err(|e| format!("harden: {e:?}"))?;
        self.pbox_bytes += report.pbox_bytes;
        self.verify(&m)?;
        Ok(m)
    }

    /// Deploy `defense` over a copy of `base`.
    pub fn deploy(
        &mut self,
        base: &Module,
        defense: DefenseKind,
        build_seed: u64,
        cfg: &SmokestackConfig,
    ) -> Result<(Module, Deployment), String> {
        let mut m = base.clone();
        let dep = timed(&mut self.deploy_ns, || {
            deploy_configured(defense, &mut m, build_seed, 0, cfg)
        });
        if let Some(h) = &dep.smokestack {
            self.pbox_bytes += h.pbox_bytes;
        }
        self.verify(&m)?;
        Ok((m, dep))
    }

    /// Lower `exec`'s module to bytecode (the first call for a fresh
    /// module misses the process-wide cache).
    pub fn lower(&mut self, exec: &Executor) -> Arc<CompiledModule> {
        timed(&mut self.lower_ns, || exec.compiled())
    }

    /// The set-up layer metrics.
    pub fn metrics(&self) -> Vec<Metric> {
        let ms = |ns: u64| ns as f64 / 1e6;
        vec![
            Metric::new("minic.compile_ms", "ms", ms(self.compile_ns)),
            Metric::new("ir.verify_ms", "ms", ms(self.verify_ns)),
            Metric::new("smokestack.harden_ms", "ms", ms(self.harden_ns)),
            Metric::new("smokestack.pbox_bytes", "bytes", self.pbox_bytes as f64),
            Metric::new("defenses.deploy_ms", "ms", ms(self.deploy_ns)),
            Metric::new("vm.lower_ms", "ms", ms(self.lower_ns)),
        ]
    }
}

/// Run `setup` `reps` times and return the median wall time in seconds
/// together with the last set-up's result and layer times.
pub fn repeated_setup<T>(
    reps: usize,
    mut setup: impl FnMut(&mut SetupTimes) -> Result<T, String>,
) -> Result<(f64, T, SetupTimes), String> {
    let mut walls = Vec::new();
    let mut last = None;
    for _ in 0..reps.max(1) {
        let mut times = SetupTimes::default();
        let t = Instant::now();
        let value = setup(&mut times)?;
        walls.push(t.elapsed().as_secs_f64());
        last = Some((value, times));
    }
    let (value, times) = last.expect("at least one set-up");
    Ok((median(&walls), value, times))
}

/// Per-draw cost of `RandomSource::next_u64` for `scheme`, ns (median
/// of several batches).
pub fn draw_ns(scheme: SchemeKind, seed: u64) -> f64 {
    const BATCH: u32 = 4096;
    let mut src = build_source(scheme, SeededTrng::new(seed));
    let mut per = Vec::new();
    for _ in 0..9 {
        let t = Instant::now();
        for _ in 0..BATCH {
            black_box(src.next_u64());
        }
        per.push(t.elapsed().as_nanos() as f64 / f64::from(BATCH));
    }
    median(&per)
}

/// Cost of `build_source` — the per-respawn rekey — for `scheme`, ns.
pub fn rekey_ns(scheme: SchemeKind, seed: u64) -> f64 {
    const BATCH: u64 = 512;
    let mut per = Vec::new();
    for round in 0..9u64 {
        let t = Instant::now();
        for i in 0..BATCH {
            black_box(build_source(
                scheme,
                SeededTrng::new(seed ^ (round * BATCH + i)),
            ));
        }
        per.push(t.elapsed().as_nanos() as f64 / BATCH as f64);
    }
    median(&per)
}

/// The entropy-layer metrics: draw and rekey cost for every scheme.
pub fn srng_metrics(seed: u64) -> Vec<Metric> {
    let mut out = Vec::new();
    for scheme in SchemeKind::ALL {
        let seg = name_segment(scheme.label());
        out.push(Metric::new(
            format!("srng.draw_ns.{seg}"),
            "ns",
            draw_ns(scheme, seed),
        ));
        out.push(Metric::new(
            format!("srng.rekey_ns.{seg}"),
            "ns",
            rekey_ns(scheme, seed),
        ));
    }
    out
}

/// SplitMix64: derive independent seeds from the benchmark seed.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
