//! The synthetic penetration-test suite (paper §V-C), following the
//! RIPE methodology: {direct, indirect} overflows × {stack, heap, data
//! segment} buffer locations, all corrupting *non-control* stack data.
//!
//! * [`DirectStack`] — classic adjacent-local overwrite: two distinct
//!   gate values must land on two distinct locals (a spray of one value
//!   cannot satisfy both, so layout knowledge is required).
//! * [`IndirectStack`] — the overflow corrupts a data pointer and a
//!   value; the program's own `*p = v` store finishes the job.
//! * [`HeapIndirect`] — a heap buffer overflow corrupts an adjacent
//!   heap control block holding a write target that points into the
//!   stack (the paper's "overflow a buffer in the data segment or heap
//!   to overwrite local variables in the stack").
//! * [`DataIndirect`] — same with globals in the data segment.
//!
//! Every attack needs the *current* address/offset of its stack
//! targets; Smokestack invalidates that knowledge per invocation, which
//! is exactly how it stops all four (the indirect ones "fail on the
//! first step, as they overwrote a different address than the intended
//! pointer" — §V-C).

use smokestack_core::HardenReport;
use smokestack_defenses::DefenseKind;
use smokestack_rand::Rng;
use smokestack_srng::SchemeKind;
use smokestack_vm::{FnInput, Memory};

use crate::intel::{probe, read_pseudo_state, scan_stack, PseudoOracle};
use crate::{conclude, Attack, AttackOutcome, Build, CommitFlag};

/// Base of the per-invocation tag main passes to `handle` — the anchor
/// value the adversary scans for to locate the live frame.
const TAG_BASE: i64 = 0x0123456789ABCDEF;

/// How many invocations of `handle` each victim program performs.
const INVOCATIONS: u64 = 6;

/// All four synthetic attacks in report order.
pub fn all() -> Vec<Box<dyn Attack>> {
    vec![
        Box::new(DirectStack),
        Box::new(IndirectStack),
        Box::new(HeapIndirect),
        Box::new(DataIndirect),
    ]
}

/// Strategy resolved per run: how the adversary obtains the victim
/// frame's slot offsets.
enum OffsetSource {
    /// Static layout disclosed from a probe of a prior run (keyed by
    /// slot name, offsets relative to the anchor variable `tag`).
    Probed(Vec<(String, i64)>),
    /// Smokestack + pseudo: predict per invocation from disclosed state.
    Predicted(HardenReport),
    /// Smokestack + secure RNG: one blind row guess.
    Guessed(HardenReport, u64),
}

fn offset_source(build: &Build, run_seed: u64, func: &str, vars: &[&str]) -> Option<OffsetSource> {
    match &build.deployment.smokestack {
        Some(report) => {
            if build.defense == DefenseKind::Smokestack(SchemeKind::Pseudo) {
                Some(OffsetSource::Predicted(report.clone()))
            } else {
                let draw: u64 = Rng::seed_from_u64(run_seed ^ 0x6355).next_u64();
                Some(OffsetSource::Guessed(report.clone(), draw))
            }
        }
        None => {
            let intel = probe(
                build,
                run_seed ^ 0x9999,
                (0..INVOCATIONS).map(|_| vec![]).collect(),
            );
            let mut out = Vec::new();
            for v in vars {
                let d = intel.offset_between(func, "tag", v)?;
                out.push(((*v).to_string(), d));
            }
            Some(OffsetSource::Probed(out))
        }
    }
}

/// Slab-relative offsets (keyed by var name) for a given draw.
fn oracle_offsets(report: &HardenReport, func: &str, draw: u64) -> Vec<(String, i64)> {
    let oracle = PseudoOracle::new(report);
    let offs = oracle.offsets_for_draw(func, draw);
    let names = &report.placements[func].slot_names;
    names
        .iter()
        .cloned()
        .zip(offs.iter().map(|&o| o as i64))
        .collect()
}

fn lookup(offs: &[(String, i64)], name: &str) -> Option<i64> {
    offs.iter().find(|(n, _)| n == name).map(|(_, d)| *d)
}

/// Anchor-relative offsets of `vars` for the current invocation.
fn current_offsets(
    src: &OffsetSource,
    func: &str,
    vars: &[&str],
    mem: &Memory,
) -> Option<Vec<i64>> {
    match src {
        OffsetSource::Probed(map) => vars.iter().map(|v| lookup(map, v)).collect(),
        OffsetSource::Predicted(report) => {
            let draw = PseudoOracle::last_draw(read_pseudo_state(mem));
            let map = oracle_offsets(report, func, draw);
            let tag = lookup(&map, "tag")?;
            vars.iter().map(|v| Some(lookup(&map, v)? - tag)).collect()
        }
        OffsetSource::Guessed(report, draw) => {
            let map = oracle_offsets(report, func, *draw);
            let tag = lookup(&map, "tag")?;
            vars.iter().map(|v| Some(lookup(&map, v)? - tag)).collect()
        }
    }
}

/// Pre-run offsets when the source is static (probe or fixed guess);
/// `None` means the decision must wait for live prediction.
fn static_offsets(src: &OffsetSource, func: &str, vars: &[&str]) -> Option<Option<Vec<i64>>> {
    match src {
        OffsetSource::Probed(map) => Some(vars.iter().map(|v| lookup(map, v)).collect()),
        OffsetSource::Guessed(report, draw) => {
            let map = oracle_offsets(report, func, *draw);
            let tag = lookup(&map, "tag");
            Some(tag.and_then(|t| {
                vars.iter()
                    .map(|v| Some(lookup(&map, v)? - t))
                    .collect::<Option<Vec<i64>>>()
            }))
        }
        OffsetSource::Predicted(_) => None,
    }
}

/// Find the live frame anchor: the spilled `tag` parameter of the
/// current invocation (`TAG_BASE + request_index`).
fn find_anchor(mem: &Memory, req: u64) -> Option<u64> {
    scan_stack(mem, (TAG_BASE + req as i64) as u64, 2 << 20)
}

// ---------------------------------------------------------------------
// 1. Direct stack overflow.
// ---------------------------------------------------------------------

/// Direct stack-buffer overflow corrupting two adjacent locals.
pub struct DirectStack;

const DIRECT_STACK_SRC: &str = r#"
    long granted = 0;

    void handle(long tag) {
        long key1 = 0;
        long key2 = 0;
        char scratch[24];
        long state = 7;
        char name[48];
        long len = 0;
        long tmp = 0;
        char buf[32];
        scratch[0] = 1;
        name[0] = 2;
        tmp = state + len;
        get_input(buf, 256);
        if (key1 == 287454020) {
            if (key2 == 1432778632) {
                granted = granted + 1;
            }
        }
    }

    int main() {
        long i = 0;
        while (i < 6) {
            handle(81985529216486895 + i);
            i = i + 1;
        }
        return 0;
    }
"#;

impl Attack for DirectStack {
    fn name(&self) -> &str {
        "synthetic-direct-stack"
    }

    fn source(&self) -> &str {
        DIRECT_STACK_SRC
    }

    fn attempt(&self, build: &Build, run_seed: u64) -> AttackOutcome {
        let vars = ["buf", "key1", "key2"];
        let Some(src) = offset_source(build, run_seed, "handle", &vars) else {
            return AttackOutcome::Failed("recon failed".into());
        };
        let usable = |offs: &[i64]| {
            let (buf, k1, k2) = (offs[0], offs[1], offs[2]);
            k1 > buf && k2 > buf && k1 - buf + 8 <= 256 && k2 - buf + 8 <= 256
        };
        if let Some(st) = static_offsets(&src, "handle", &vars) {
            match st {
                Some(o) if usable(&o) => {}
                _ => return AttackOutcome::Aborted,
            }
        }

        let committed = CommitFlag::new();
        let committed_c = committed.clone();

        let mut vm = build.vm(run_seed);
        let adversary = FnInput(move |mem: &mut Memory, req, _max| {
            if committed_c.is_armed() {
                return vec![]; // one shot per session
            }
            let Some(anchor) = find_anchor(mem, req) else {
                return vec![];
            };
            let Some(offs) = current_offsets(&src, "handle", &vars, mem) else {
                return vec![];
            };
            if !usable(&offs) {
                return vec![]; // this invocation's layout is no good
            }
            let (buf_d, k1_d, k2_d) = (offs[0], offs[1], offs[2]);
            let buf_addr = (anchor as i64 + buf_d) as u64;
            let span = (k1_d.max(k2_d) - buf_d + 8) as usize;
            let Ok(bytes) = mem.read(buf_addr, span as u64) else {
                return vec![];
            };
            let mut payload = bytes.to_vec();
            let p1 = (k1_d - buf_d) as usize;
            let p2 = (k2_d - buf_d) as usize;
            payload[p1..p1 + 8].copy_from_slice(&287454020i64.to_le_bytes());
            payload[p2..p2 + 8].copy_from_slice(&1432778632i64.to_le_bytes());
            committed_c.arm();
            payload
        });
        let out = vm.run_main(adversary);
        let granted = vm
            .mem()
            .read_uint(vm.global_addr("granted"), 8)
            .unwrap_or(0);
        conclude(
            &out,
            &committed,
            granted >= 1,
            "authorization gates overwritten",
        )
        .into_outcome()
    }
}

// ---------------------------------------------------------------------
// 2. Indirect stack overflow (pointer + value corruption).
// ---------------------------------------------------------------------

/// Indirect overflow: corrupt a pointer/value pair; the program's own
/// store writes the attacker's value to the attacker's address.
pub struct IndirectStack;

/// The indirect-stack victim: the overflow corrupts a data pointer
/// and a value; the program's own `*p = v` store finishes the job.
/// Shared with the payload synthesizer as a redirect-goal target.
pub const INDIRECT_STACK_SRC: &str = r#"
    long granted = 0;

    void handle(long tag) {
        long v = 0;
        long *p = 0;
        char scratch[24];
        long state = 7;
        char name[48];
        long len = 0;
        long tmp = 0;
        char buf[32];
        scratch[0] = 1;
        name[0] = 2;
        tmp = state + len;
        get_input(buf, 256);
        if (p != 0) { *p = v; }
    }

    int main() {
        long i = 0;
        while (i < 6) {
            handle(81985529216486895 + i);
            i = i + 1;
        }
        return 0;
    }
"#;

impl Attack for IndirectStack {
    fn name(&self) -> &str {
        "synthetic-indirect-stack"
    }

    fn source(&self) -> &str {
        INDIRECT_STACK_SRC
    }

    fn attempt(&self, build: &Build, run_seed: u64) -> AttackOutcome {
        let vars = ["buf", "v", "p"];
        let Some(src) = offset_source(build, run_seed, "handle", &vars) else {
            return AttackOutcome::Failed("recon failed".into());
        };
        let usable = |offs: &[i64]| {
            let (buf, v, p) = (offs[0], offs[1], offs[2]);
            v > buf && p > buf && v - buf + 8 <= 256 && p - buf + 8 <= 256
        };
        if let Some(st) = static_offsets(&src, "handle", &vars) {
            match st {
                Some(o) if usable(&o) => {}
                _ => return AttackOutcome::Aborted,
            }
        }

        let granted_addr = build.vm(0).global_addr("granted");

        let committed = CommitFlag::new();
        let committed_c = committed.clone();

        let mut vm = build.vm(run_seed);
        let adversary = FnInput(move |mem: &mut Memory, req, _max| {
            if committed_c.is_armed() {
                return vec![]; // one shot per session
            }
            let Some(anchor) = find_anchor(mem, req) else {
                return vec![];
            };
            let Some(offs) = current_offsets(&src, "handle", &vars, mem) else {
                return vec![];
            };
            if !usable(&offs) {
                return vec![];
            }
            let (buf_d, v_d, p_d) = (offs[0], offs[1], offs[2]);
            let buf_addr = (anchor as i64 + buf_d) as u64;
            let span = (v_d.max(p_d) - buf_d + 8) as usize;
            let Ok(bytes) = mem.read(buf_addr, span as u64) else {
                return vec![];
            };
            let mut payload = bytes.to_vec();
            let pv = (v_d - buf_d) as usize;
            let pp = (p_d - buf_d) as usize;
            payload[pv..pv + 8].copy_from_slice(&4242i64.to_le_bytes());
            payload[pp..pp + 8].copy_from_slice(&granted_addr.to_le_bytes());
            committed_c.arm();
            payload
        });
        let out = vm.run_main(adversary);
        let granted = vm
            .mem()
            .read_uint(vm.global_addr("granted"), 8)
            .unwrap_or(0);
        conclude(
            &out,
            &committed,
            granted == 4242,
            "arbitrary write via corrupted pointer",
        )
        .into_outcome()
    }
}

// ---------------------------------------------------------------------
// 3 & 4. Heap / data-segment indirect overflows into the stack.
// ---------------------------------------------------------------------

const HEAP_INDIRECT_SRC: &str = r#"
    long granted = 0;

    void handle(long tag) {
        long gate = 0;
        char scratch[24];
        long state = 7;
        char name[48];
        char extra1[40];
        char extra2[56];
        char extra3[72];
        long len = 0;
        long tmp = 0;
        char *hbuf = malloc(64);
        scratch[0] = 1;
        name[0] = 2;
        extra1[0] = 3;
        extra2[0] = 4;
        extra3[0] = 5;
        tmp = state + len;
        long *ctl = malloc(32);
        ctl[0] = &gate;
        ctl[1] = 7;
        get_input(hbuf, 128);
        long *d = ctl[0];
        *d = ctl[1];
        if (gate == 1234321) { granted = granted + 1; }
        free(ctl);
        free(hbuf);
    }

    int main() {
        long i = 0;
        while (i < 6) {
            handle(81985529216486895 + i);
            i = i + 1;
        }
        return 0;
    }
"#;

const DATA_INDIRECT_SRC: &str = r#"
    long granted = 0;
    char gbuf[64];
    long gctl[2];

    void handle(long tag) {
        long gate = 0;
        char scratch[24];
        long state = 7;
        char name[48];
        char extra1[40];
        char extra2[56];
        char extra3[72];
        long len = 0;
        long tmp = 0;
        scratch[0] = 1;
        name[0] = 2;
        extra1[0] = 3;
        extra2[0] = 4;
        extra3[0] = 5;
        tmp = state + len;
        gctl[0] = &gate;
        gctl[1] = 3;
        get_input(gbuf, 96);
        long *d = gctl[0];
        *d = gctl[1];
        if (gate == 7654321) { granted = granted + 1; }
    }

    int main() {
        long i = 0;
        while (i < 6) {
            handle(81985529216486895 + i);
            i = i + 1;
        }
        return 0;
    }
"#;

/// Shared implementation for the heap/data indirect attacks: overflow a
/// non-stack buffer to corrupt an adjacent `[dest, value]` control pair
/// that the program then stores through.
fn indirect_attempt(build: &Build, run_seed: u64, magic: i64, filler: usize) -> AttackOutcome {
    let vars = ["gate"];
    let Some(src) = offset_source(build, run_seed, "handle", &vars) else {
        return AttackOutcome::Failed("recon failed".into());
    };

    let committed = CommitFlag::new();
    let committed_c = committed.clone();

    let mut vm = build.vm(run_seed);
    let adversary = FnInput(move |mem: &mut Memory, req, _max| {
        if committed_c.is_armed() {
            return vec![]; // one shot per session
        }
        let Some(anchor) = find_anchor(mem, req) else {
            return vec![];
        };
        let Some(offs) = current_offsets(&src, "handle", &vars, mem) else {
            return vec![];
        };
        let gate_addr = (anchor as i64 + offs[0]) as u64;
        // [filler][dest pointer][value]
        let mut payload = vec![0x41u8; filler];
        payload.extend_from_slice(&gate_addr.to_le_bytes());
        payload.extend_from_slice(&magic.to_le_bytes());
        committed_c.arm();
        payload
    });
    let out = vm.run_main(adversary);
    let granted = vm
        .mem()
        .read_uint(vm.global_addr("granted"), 8)
        .unwrap_or(0);
    conclude(
        &out,
        &committed,
        granted >= 1,
        "stack local hit through corrupted pointer",
    )
    .into_outcome()
}

/// Heap-buffer overflow corrupting an adjacent heap control block.
pub struct HeapIndirect;

impl Attack for HeapIndirect {
    fn name(&self) -> &str {
        "synthetic-indirect-heap"
    }

    fn source(&self) -> &str {
        HEAP_INDIRECT_SRC
    }

    fn attempt(&self, build: &Build, run_seed: u64) -> AttackOutcome {
        indirect_attempt(build, run_seed, 1234321, 64)
    }
}

/// Data-segment overflow corrupting adjacent global control data.
pub struct DataIndirect;

impl Attack for DataIndirect {
    fn name(&self) -> &str {
        "synthetic-indirect-data"
    }

    fn source(&self) -> &str {
        DATA_INDIRECT_SRC
    }

    fn attempt(&self, build: &Build, run_seed: u64) -> AttackOutcome {
        indirect_attempt(build, run_seed, 7654321, 64)
    }
}
