//! `vm::sched` — the deterministic thread scheduler.
//!
//! Concurrency in this VM is cooperative at machine granularity:
//! threads share the flat memory (globals, heap, rodata) but each owns
//! a register file, a call stack, and a stack *slab* carved from the
//! bottom of the stack segment, while the main thread keeps the top.
//! A seeded quantum generator picks preemption points by instruction
//! count, so one `sched_seed` fully determines the interleaving — the
//! same replayability contract as every other subsystem here (seed →
//! schedule → bit-identical outcome on both backends).
//!
//! The scheduler is created lazily by the first `spawn` (or the first
//! mutex/join intrinsic); programs that never use concurrency intrinsics
//! run exactly as before, with the preemption compare disarmed at
//! `u64::MAX`.
//!
//! Memory model (documented in DESIGN.md):
//! * preemption only at instruction-fetch boundaries — intrinsics are
//!   atomic steps, so bulk ops (`memcpy`, `get_input`) never tear;
//! * `atomic_*` intrinsics are 8-byte word operations; acquire/release
//!   orderings transfer happens-before, relaxed does not;
//! * `mutex_lock`/`mutex_unlock` identify a mutex by its address;
//!   blocking is deterministic (the blocked intrinsic re-executes when
//!   the thread wakes);
//! * the opt-in race detector is FastTrack-style at 8-byte-word
//!   granularity over *plain* loads/stores; atomics and bulk intrinsics
//!   are exempt (a documented simplification).

use std::collections::HashMap;

use smokestack_ir::FuncId;
use smokestack_srng::{build_source, EntropySource, SeededTrng, XorShift64};
use smokestack_telemetry::CycleCategory;

use crate::cycles::COST;
use crate::exec::{Exit, FaultKind, Vm};

/// Per-thread stack slab size (carved from the bottom of the stack
/// segment; the main thread keeps everything above the watermark).
pub const THREAD_SLAB: u64 = 1 << 18;

/// Maximum live threads per run (including main). Spawning past the cap
/// faults with `StackOverflow` — the slab region is exhausted.
pub const MAX_THREADS: usize = 16;

/// Quantum bounds in instructions: each slice runs
/// `QUANTUM_BASE + (draw % QUANTUM_SPREAD)` instructions before the
/// next preemption point.
const QUANTUM_BASE: u64 = 40;
const QUANTUM_SPREAD: u64 = 25;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

#[inline]
fn fnv_step(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(FNV_PRIME)
}

/// Mix a per-thread TRNG seed from the run seed and the thread id, so
/// every spawned thread draws an independent P-BOX epoch.
pub(crate) fn thread_seed(trng_seed: u64, tid: u64) -> u64 {
    let mut x = trng_seed ^ tid.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// What a blocked thread is waiting for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BlockOn {
    /// Waiting for a thread to finish.
    Join(usize),
    /// Waiting for the mutex at this address.
    Mutex(u64),
    /// Never wakes (join of an invalid thread id).
    Forever,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ThreadStatus {
    Runnable,
    Blocked(BlockOn),
    Finished,
}

/// Saved context of one thread. The *running* thread's `sp` and
/// `stack_limit` live on the `Vm`; they are written back here on every
/// context switch.
pub(crate) struct ThreadState {
    pub status: ThreadStatus,
    /// Entry function (decoded at spawn) and its single argument.
    pub entry: FuncId,
    pub arg: u64,
    /// Saved stack pointer.
    pub sp: u64,
    /// Lowest address this thread's allocas may reach (its slab base;
    /// for the main thread, the slab watermark).
    pub stack_limit: u64,
    /// Per-thread entropy source (`None` for the main thread, which
    /// keeps using `Vm::rng`). Each spawn draws its own P-BOX epoch.
    pub rng: Option<EntropySource>,
    /// Return value, valid once `Finished` (0 for void returns).
    pub result: u64,
}

struct MutexState {
    owner: Option<usize>,
}

/// FastTrack-style race detector state (opt-in via
/// `VmConfig::detect_races`).
pub(crate) struct RaceDetector {
    /// Per-thread vector clocks (grown on demand).
    vcs: Vec<Vec<u32>>,
    /// Last plain accesses per 8-byte word (`addr >> 3`).
    words: HashMap<u64, WordState>,
    /// Release vector clocks per synchronization site (mutex address or
    /// atomic cell address).
    release_vcs: HashMap<u64, Vec<u32>>,
}

#[derive(Default)]
struct WordState {
    /// Last write epoch `(tid, clock)`.
    write: Option<(u32, u32)>,
    /// Read epochs since the last write, one per thread.
    reads: Vec<(u32, u32)>,
}

#[inline]
fn vc_get(vc: &[u32], i: usize) -> u32 {
    vc.get(i).copied().unwrap_or(0)
}

fn vc_join(dst: &mut Vec<u32>, src: &[u32]) {
    if dst.len() < src.len() {
        dst.resize(src.len(), 0);
    }
    for (d, s) in dst.iter_mut().zip(src) {
        *d = (*d).max(*s);
    }
}

impl RaceDetector {
    fn new() -> RaceDetector {
        RaceDetector {
            vcs: Vec::new(),
            words: HashMap::new(),
            release_vcs: HashMap::new(),
        }
    }

    /// Record a spawn: the child inherits the parent's knowledge and
    /// the parent's epoch advances past the spawn point.
    fn on_spawn(&mut self, parent: usize, child: usize) {
        let mut child_vc = self.vcs[parent].clone();
        if child_vc.len() <= child {
            child_vc.resize(child + 1, 0);
        }
        child_vc[child] = 1;
        let pvc = &mut self.vcs[parent];
        pvc[parent] += 1;
        debug_assert_eq!(self.vcs.len(), child);
        self.vcs.push(child_vc);
    }

    /// Record a completed join: the joiner acquires the child's clock.
    fn on_join(&mut self, joiner: usize, child: usize) {
        let cvc = self.vcs[child].clone();
        vc_join(&mut self.vcs[joiner], &cvc);
    }

    /// Acquire edge from a synchronization site (lock, acquire load).
    fn acquire(&mut self, tid: usize, site: u64) {
        if let Some(rvc) = self.release_vcs.get(&site) {
            let rvc = rvc.clone();
            vc_join(&mut self.vcs[tid], &rvc);
        }
    }

    /// Release edge to a synchronization site (unlock, release store).
    fn release(&mut self, tid: usize, site: u64) {
        let vc = self.vcs[tid].clone();
        self.release_vcs.insert(site, vc);
        self.vcs[tid][tid] += 1;
    }

    /// Record one plain access to `word` by `tid`; returns `true` when
    /// it races with a previous unsynchronized conflicting access.
    fn access(&mut self, word: u64, tid: usize, write: bool) -> bool {
        let vc = &self.vcs[tid];
        let st = self.words.entry(word).or_default();
        if let Some((wt, wc)) = st.write {
            if wt as usize != tid && wc > vc_get(vc, wt as usize) {
                return true;
            }
        }
        if write {
            if st
                .reads
                .iter()
                .any(|&(rt, rc)| rt as usize != tid && rc > vc_get(vc, rt as usize))
            {
                return true;
            }
            st.write = Some((tid as u32, vc_get(vc, tid)));
            st.reads.clear();
        } else {
            let epoch = (tid as u32, vc_get(vc, tid));
            match st.reads.iter_mut().find(|(rt, _)| *rt as usize == tid) {
                Some(slot) => *slot = epoch,
                None => st.reads.push(epoch),
            }
        }
        false
    }
}

/// Scheduler state, hung off the `Vm` as `Option<Box<SchedState>>` and
/// created lazily by the first concurrency intrinsic.
pub(crate) struct SchedState {
    pub threads: Vec<ThreadState>,
    /// Currently running thread id.
    pub cur: usize,
    /// Seeded xorshift state driving quantum draws.
    quantum_state: u64,
    mutexes: HashMap<u64, MutexState>,
    pub detector: Option<RaceDetector>,
    /// Next free slab base (grows upward from the stack segment base).
    slab_watermark: u64,
    /// FNV-1a digest over every (chosen tid, inst count) schedule
    /// decision — the replayable fingerprint of the interleaving.
    pub digest: u64,
    /// Context switches taken.
    pub switches: u64,
}

impl SchedState {
    fn new(sched_seed: u64, detect_races: bool, stack_base: u64) -> SchedState {
        SchedState {
            threads: Vec::new(),
            cur: 0,
            quantum_state: sched_seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1,
            mutexes: HashMap::new(),
            detector: detect_races.then(RaceDetector::new),
            slab_watermark: stack_base,
            digest: FNV_OFFSET,
            switches: 0,
        }
    }

    fn next_quantum(&mut self) -> u64 {
        let (next, out) = XorShift64::step(self.quantum_state);
        self.quantum_state = next;
        QUANTUM_BASE + out % QUANTUM_SPREAD
    }

    /// Count of threads that have not finished (TRNG contention model).
    pub fn live_threads(&self) -> u64 {
        self.threads
            .iter()
            .filter(|t| t.status != ThreadStatus::Finished)
            .count() as u64
    }
}

impl Vm {
    /// The scheduler, created on first use: registers the caller as
    /// thread 0 and arms the first preemption point.
    pub(crate) fn ensure_sched(&mut self) -> &mut SchedState {
        let mut first_quantum = None;
        let s = self.sched.get_or_insert_with(|| {
            let mut s = SchedState::new(self.sched_seed, self.detect_races, self.mem.stack_base());
            s.threads.push(ThreadState {
                status: ThreadStatus::Runnable,
                entry: FuncId(0),
                arg: 0,
                sp: self.sp,
                stack_limit: self.stack_limit,
                rng: None,
                result: 0,
            });
            if let Some(d) = &mut s.detector {
                d.vcs.push(vec![1]);
            }
            first_quantum = Some(s.next_quantum());
            Box::new(s)
        });
        if let Some(q) = first_quantum {
            self.next_preempt = self.insts + q;
        }
        s
    }

    /// `spawn(fn_addr, arg)`: decode the entry function, carve a slab,
    /// and register the new thread. Returns the thread id.
    pub(crate) fn sched_spawn(&mut self, fn_addr: u64, arg: u64) -> Result<u64, FaultKind> {
        let fid = FuncId(self.resolve_callee(fn_addr, 1)?);
        let scheme = self.scheme;
        let trng_seed = self.trng_seed;
        let spawn_cost = COST.thread_spawn;

        let s = self.ensure_sched();
        if s.threads.len() >= MAX_THREADS {
            return Err(FaultKind::StackOverflow);
        }
        let limit = s.slab_watermark;
        let top = limit + THREAD_SLAB;
        s.slab_watermark = top;
        let tid = s.threads.len();
        let rng = build_source(scheme, SeededTrng::new(thread_seed(trng_seed, tid as u64)));
        s.threads.push(ThreadState {
            status: ThreadStatus::Runnable,
            entry: fid,
            arg,
            sp: top,
            stack_limit: limit,
            rng: Some(rng),
            result: 0,
        });
        let cur = s.cur;
        if let Some(d) = &mut s.detector {
            d.on_spawn(cur, tid);
        }
        // Raise the main thread's floor past the newly carved slab.
        s.threads[0].stack_limit = top;
        let main_running = cur == 0;
        if main_running {
            self.stack_limit = top;
        }
        self.charge(CycleCategory::Control, spawn_cost);
        Ok(tid as u64)
    }

    /// `join(tid)`: return the target's result if it finished, or block
    /// the caller (`Ok(None)` with `pending_block` set).
    pub(crate) fn sched_join(&mut self, tid: u64) -> Result<Option<u64>, FaultKind> {
        let sync_cost = COST.sync_op;
        let s = self.ensure_sched();
        let cur = s.cur;
        let t = tid as usize;
        if tid == 0 || t >= s.threads.len() || t == cur {
            // Joining an id that can never finish: block forever — the
            // scheduler reports Deadlock once nothing is runnable.
            s.threads[cur].status = ThreadStatus::Blocked(BlockOn::Forever);
            self.pending_block = true;
            return Ok(None);
        }
        if s.threads[t].status == ThreadStatus::Finished {
            if let Some(d) = &mut s.detector {
                d.on_join(cur, t);
            }
            let v = s.threads[t].result;
            self.charge(CycleCategory::Control, sync_cost);
            Ok(Some(v))
        } else {
            s.threads[cur].status = ThreadStatus::Blocked(BlockOn::Join(t));
            self.pending_block = true;
            Ok(None)
        }
    }

    /// `mutex_lock(addr)`: acquire or block.
    pub(crate) fn sched_mutex_lock(&mut self, addr: u64) {
        let sync_cost = COST.sync_op;
        let s = self.ensure_sched();
        let cur = s.cur;
        let m = s.mutexes.entry(addr).or_insert(MutexState { owner: None });
        match m.owner {
            None => {
                m.owner = Some(cur);
                if let Some(d) = &mut s.detector {
                    d.acquire(cur, addr);
                }
                self.charge(CycleCategory::Control, sync_cost);
            }
            Some(_) => {
                // Held (possibly by us — a self-deadlock): block until
                // an unlock wakes us, then re-execute the lock.
                s.threads[cur].status = ThreadStatus::Blocked(BlockOn::Mutex(addr));
                self.pending_block = true;
            }
        }
    }

    /// `mutex_unlock(addr)`: release and wake waiters (no-op when the
    /// caller does not hold the mutex).
    pub(crate) fn sched_mutex_unlock(&mut self, addr: u64) {
        let sync_cost = COST.sync_op;
        let s = self.ensure_sched();
        let cur = s.cur;
        let Some(m) = s.mutexes.get_mut(&addr) else {
            return;
        };
        if m.owner != Some(cur) {
            return;
        }
        m.owner = None;
        if let Some(d) = &mut s.detector {
            d.release(cur, addr);
        }
        for t in &mut s.threads {
            if t.status == ThreadStatus::Blocked(BlockOn::Mutex(addr)) {
                t.status = ThreadStatus::Runnable;
            }
        }
        self.charge(CycleCategory::Control, sync_cost);
    }

    /// Happens-before transfer for an acquire-ordered atomic load.
    pub(crate) fn atomic_acquire(&mut self, addr: u64) {
        if let Some(s) = self.sched.as_deref_mut() {
            let cur = s.cur;
            if let Some(d) = &mut s.detector {
                d.acquire(cur, addr);
            }
        }
    }

    /// Happens-before transfer for a release-ordered atomic store.
    pub(crate) fn atomic_release(&mut self, addr: u64) {
        if let Some(s) = self.sched.as_deref_mut() {
            let cur = s.cur;
            if let Some(d) = &mut s.detector {
                d.release(cur, addr);
            }
        }
    }

    /// Race-check one plain load/store (no-op unless the scheduler and
    /// the opt-in detector are both active).
    #[inline]
    pub(crate) fn race_plain(
        &mut self,
        addr: u64,
        size: u64,
        write: bool,
    ) -> Result<(), FaultKind> {
        let Some(s) = self.sched.as_deref_mut() else {
            return Ok(());
        };
        let cur = s.cur;
        let Some(d) = &mut s.detector else {
            return Ok(());
        };
        let first = addr >> 3;
        let last = (addr + size.max(1) - 1) >> 3;
        for w in first..=last {
            if d.access(w, cur, write) {
                return Err(FaultKind::DataRace { addr });
            }
        }
        Ok(())
    }

    /// Record a finished worker thread. Returns `Some(exit)` when the
    /// exit must end the whole run (process exit or fault), `None` when
    /// the thread's return value was stored and joiners woken.
    pub(crate) fn sched_thread_finished(&mut self, tid: usize, exit: Exit) -> Option<Exit> {
        let val = match exit {
            Exit::Return(v) => v,
            Exit::ReturnVoid => 0,
            other => return Some(other),
        };
        // Invariant: only a worker thread finishes here, and workers
        // exist only once the scheduler does.
        let s = self
            .sched
            .as_deref_mut()
            .expect("a worker implies a scheduler");
        s.threads[tid].status = ThreadStatus::Finished;
        s.threads[tid].result = val;
        s.threads[tid].rng = None;
        for t in &mut s.threads {
            if t.status == ThreadStatus::Blocked(BlockOn::Join(tid)) {
                t.status = ThreadStatus::Runnable;
            }
        }
        None
    }

    /// Save the outgoing thread's context, pick the next runnable
    /// thread round-robin, restore its context, and arm its quantum.
    /// `Err(Deadlock)` when no thread can run.
    pub(crate) fn sched_pick_next(&mut self) -> Result<(), FaultKind> {
        let sp = self.sp;
        let limit = self.stack_limit;
        let insts = self.insts;
        let Some(s) = self.sched.as_deref_mut() else {
            return Ok(());
        };
        let cur = s.cur;
        s.threads[cur].sp = sp;
        s.threads[cur].stack_limit = limit;
        let n = s.threads.len();
        let mut chosen = None;
        for i in 1..=n {
            let t = (cur + i) % n;
            if s.threads[t].status == ThreadStatus::Runnable {
                chosen = Some(t);
                break;
            }
        }
        let Some(t) = chosen else {
            return Err(FaultKind::Deadlock);
        };
        s.cur = t;
        s.switches += 1;
        s.digest = fnv_step(fnv_step(s.digest, t as u64), insts);
        let q = s.next_quantum();
        let (nsp, nlimit) = (s.threads[t].sp, s.threads[t].stack_limit);
        self.sp = nsp;
        self.stack_limit = nlimit;
        self.next_preempt = insts + q;
        Ok(())
    }

    /// The schedule digest of the last run (0 when the program never
    /// used the scheduler).
    pub fn sched_digest(&self) -> u64 {
        self.sched.as_deref().map_or(0, |s| s.digest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_seeds_are_distinct() {
        let s0 = thread_seed(0x5eed, 1);
        let s1 = thread_seed(0x5eed, 2);
        let s2 = thread_seed(0x5eee, 1);
        assert_ne!(s0, s1);
        assert_ne!(s0, s2);
    }

    #[test]
    fn detector_flags_unsynchronized_write_write() {
        let mut d = RaceDetector::new();
        d.vcs.push(vec![1]);
        d.on_spawn(0, 1);
        assert!(!d.access(100, 0, true));
        assert!(d.access(100, 1, true), "concurrent write-write races");
    }

    #[test]
    fn detector_orders_accesses_across_release_acquire() {
        let mut d = RaceDetector::new();
        d.vcs.push(vec![1]);
        d.on_spawn(0, 1);
        assert!(!d.access(100, 0, true));
        d.release(0, 0xa0);
        d.acquire(1, 0xa0);
        assert!(
            !d.access(100, 1, true),
            "release/acquire transfers happens-before"
        );
    }

    #[test]
    fn detector_read_read_never_races() {
        let mut d = RaceDetector::new();
        d.vcs.push(vec![1]);
        d.on_spawn(0, 1);
        assert!(!d.access(7, 0, false));
        assert!(!d.access(7, 1, false));
        assert!(d.access(7, 1, true), "write after foreign read races");
    }

    #[test]
    fn join_transfers_child_clock() {
        let mut d = RaceDetector::new();
        d.vcs.push(vec![1]);
        d.on_spawn(0, 1);
        assert!(!d.access(9, 1, true));
        d.on_join(0, 1);
        assert!(
            !d.access(9, 0, true),
            "join orders child work before parent"
        );
    }
}
