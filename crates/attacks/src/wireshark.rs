//! The Wireshark case study (CVE-2014-2299, paper §V-C).
//!
//! The MPEG reader `cf_read_frame_r()` copies a frame of
//! attacker-declared length into the fixed buffer `pd`, giving a
//! classic *linear* stack overflow. Hu et al.'s DOP exploit overwrites
//! locals of `packet_list_dissect_and_cache_record()` and the loop
//! condition `cell_list` in its caller, turning the column-rendering
//! loop into a gadget dispatcher.
//!
//! Because the primitive is a contiguous sweep from the callee's buffer
//! up into the caller's frame, it necessarily crosses whatever sits at
//! the top of the callee frame. Under Smokestack that is the
//! function-identifier guard slot, whose value (`guard_key ^ id`)
//! depends on a load-time key the attacker cannot read — so the sweep is
//! detected at the callee's epilogue *for every RNG scheme*, which is
//! exactly how the paper reports this attack being stopped ("Smokestack
//! stopped this attack by detecting the violations when the overflow
//! corrupted unintended data like the Smokestack function identifier").

use smokestack_vm::{FnInput, Memory};

use crate::intel::{scan_stack, Knowledge, Slot};
use crate::{conclude, Attack, AttackOutcome, Build, CommitFlag};

const TAG: i64 = 52717237772009216;

/// The overflowed buffer, then the slots the capture file is crafted
/// against: the callee's tag and the caller's loop variables.
const SLOTS: [Slot; 5] = [
    ("dissect_record", "pd"),
    ("dissect_record", "tag"),
    ("render_columns", "cell_list"),
    ("render_columns", "cmd"),
    ("render_columns", "arg"),
];

/// The vulnerable program: a length-trusting packet copy inside a
/// column-rendering loop.
pub const SOURCE: &str = r#"
    long bot_commands = 0;

    void dissect_record(long tag) {
        long reqlen = 0;
        char pd[256];
        long col = 0;
        long cinfo = 0;
        get_input(&reqlen, 8);
        /* CVE-2014-2299: frame length used without validation. */
        get_input(pd, reqlen);
        col = col + cinfo;
    }

    void render_columns(long tag) {
        long cell_list = 3;
        long cmd = 0;
        long arg = 0;
        while (cell_list > 0) {
            dissect_record(tag + 1);
            if (cmd == 777) { bot_commands = bot_commands + arg; }
            cmd = 0;
            cell_list = cell_list - 1;
        }
    }

    int main() { render_columns(52717237772009216); return 0; }
"#;

/// The Wireshark CVE-2014-2299 DOP attack.
pub struct WiresharkAttack;

impl Attack for WiresharkAttack {
    fn name(&self) -> &str {
        "wireshark-cve-2014-2299"
    }

    fn source(&self) -> &str {
        SOURCE
    }

    fn attempt(&self, build: &Build, run_seed: u64) -> AttackOutcome {
        // The malicious capture file is crafted offline from a
        // disclosure probe of a prior run: relative offsets from the
        // callee's pd buffer up to the caller's loop variables. Against
        // Smokestack the replaced allocas are not disclosed; the attacker
        // falls back to the unprotected build's layout (its only static
        // knowledge), which the sweep then mismatches, and the guard
        // catches the sweep regardless.
        let mut knowledge = Knowledge::probed_or_twin(
            build,
            SOURCE,
            run_seed ^ 0x77a9,
            &[0u64.to_le_bytes().to_vec()],
            &SLOTS,
        );
        let Some(&[d_tag, d_cell, d_cmd, d_arg]) =
            knowledge.deltas(None, 0, SLOTS[0], &SLOTS[1..]).as_deref()
        else {
            return AttackOutcome::Aborted;
        };
        if d_cell <= 0 || d_cmd <= 0 || d_arg <= 0 {
            return AttackOutcome::Aborted; // unusable static layout
        }

        let committed = CommitFlag::new();

        let span = (d_cell.max(d_cmd).max(d_arg) + 8) as usize;
        let mut vm = build.vm(run_seed);
        let adversary = FnInput(|mem: &mut Memory, req, _max| {
            if committed.is_armed() {
                return if req % 2 == 0 {
                    0u64.to_le_bytes().to_vec() // benign zero-length frames
                } else {
                    vec![]
                };
            }
            match req {
                0 => (span as u64).to_le_bytes().to_vec(), // frame length
                1 => {
                    // The sweep: crafted offline, so regions whose
                    // per-run secrets the attacker cannot know (canary,
                    // guard) are necessarily filled blind. Locate pd via
                    // the live callee anchor to survive ASLR.
                    let Some(anchor) = scan_stack(mem, (TAG + 1) as u64, 2 << 20) else {
                        return vec![];
                    };
                    let pd_addr = (anchor as i64 - d_tag) as u64;
                    let mut payload = match mem.read(pd_addr, span as u64) {
                        Ok(b) => b.to_vec(),
                        Err(_) => vec![0u8; span],
                    };
                    // The capture file's filler bytes: the attacker has
                    // no way to reproduce per-run secrets, so secret-
                    // bearing slots get fixed junk. We model that by
                    // stamping the *whole* inter-frame gap (everything
                    // between the callee locals and the caller targets)
                    // with filler, as the real exploit's contiguous
                    // frame data does.
                    let gap_lo = (d_tag + 8) as usize;
                    let gap_hi = (d_cell.min(d_cmd).min(d_arg)) as usize;
                    for b in payload
                        .iter_mut()
                        .take(gap_hi.min(span))
                        .skip(gap_lo.min(span))
                    {
                        *b = 0x41;
                    }
                    let mut put = |d: i64, v: i64| {
                        let at = d as usize;
                        if at + 8 <= span {
                            payload[at..at + 8].copy_from_slice(&v.to_le_bytes());
                        }
                    };
                    put(d_cell, 2); // keep the dispatcher alive
                    put(d_cmd, 777); // fire the bot gadget
                    put(d_arg, 1);
                    committed.arm();
                    payload
                }
                _ => vec![],
            }
        });
        let out = vm.run_main(adversary);
        let bots = vm
            .mem()
            .read_uint(vm.global_addr("bot_commands"), 8)
            .unwrap_or(0);
        conclude(&out, &committed, bots >= 1, "bot command gadget executed").into_outcome()
    }
}
