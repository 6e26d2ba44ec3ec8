//! Resident footprint of fresh VMs. This is its own test binary, so
//! its own process: no other test's allocations move the RSS it reads.

#![cfg(target_os = "linux")]

use std::fs;

use smokestack_core::{harden, SmokestackConfig};
use smokestack_minic::compile;
use smokestack_srng::SchemeKind;
use smokestack_vm::{Executor, ScriptedInput, Session};

const KIB: u64 = 1 << 10;
const MIB: u64 = 1 << 20;

/// Resident set size of this process in bytes (`/proc/self/statm`
/// counts pages; `/proc/self/smaps` names their size).
fn rss_bytes() -> u64 {
    let statm = fs::read_to_string("/proc/self/statm").expect("statm");
    let pages: u64 = statm.split_whitespace().nth(1).unwrap().parse().unwrap();
    let smaps = fs::read_to_string("/proc/self/smaps").expect("smaps");
    let page_kib: u64 = smaps
        .lines()
        .find_map(|l| l.strip_prefix("KernelPageSize:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .map(|kib| kib.trim().parse().unwrap())
        .expect("smaps names the page size");
    pages * page_kib * 1024
}

/// 32 hardened VMs open at once must cost the pages their loaders
/// touch (data globals, the first stack page), not the 16 MiB of
/// rodata, data and stack each one maps — also when half of them were
/// opened in memory that closed VMs gave back, as campaign trials and
/// serve requests do all the time. The rodata image (string literals
/// and the ~250 KB P-BOX) is built once per compiled module and shared
/// by every VM, so the 32 together stay under 64 KiB each: a per-VM
/// copy of the image would cost about 280 KiB each.
#[test]
fn open_hardened_vms_fault_in_only_what_they_touch() {
    let mut module = compile(smokestack_attacks::librelp::SOURCE).expect("librelp compiles");
    harden(&mut module, &SmokestackConfig::default()).expect("librelp hardens");
    let exec = Executor::for_module(module)
        .scheme(SchemeKind::Aes10)
        .build();
    // Run and drop one VM first. Freeing its mapped memory is what
    // raises glibc's mmap threshold, after which allocations of a few
    // MiB come from the heap, and reused heap memory is zeroed in full.
    exec.run_main(ScriptedInput::empty());

    let before = rss_bytes();
    let mut sessions: Vec<Session> = (0..32).map(|_| exec.session()).collect();
    // Close every other VM, so the freed blocks sit between live ones
    // and cannot be trimmed, then open as many again.
    let mut keep = false;
    sessions.retain(|_| {
        keep = !keep;
        keep
    });
    sessions.extend((0..16).map(|_| exec.session()));
    let grown = rss_bytes().saturating_sub(before);
    let zeroed_in_full = 32 * 16 * MIB;
    assert!(
        grown < zeroed_in_full / 8,
        "32 open VMs grew RSS by {} MiB (zeroing 16 MiB each would be {} MiB)",
        grown / MIB,
        zeroed_in_full / MIB
    );
    let shared_image = 32 * 64 * KIB;
    assert!(
        grown < shared_image,
        "32 open VMs grew RSS by {} KiB, over {} KiB: is the P-BOX image copied per VM?",
        grown / KIB,
        shared_image / KIB
    );
}
