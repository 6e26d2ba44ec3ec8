//! A reusable scoped-thread worker pool over the work-stealing
//! [`WorkQueue`].
//!
//! The Monte-Carlo engine and the differential fuzzer share the same
//! parallelism shape: a fixed task list fanned across `jobs` workers,
//! each worker keeping private (non-`Send`) state — a build cache, a
//! flight recorder — that is created inside the worker thread and
//! drained when the queue runs dry. This module is that shape, exposed
//! as a public API so other subsystems stop re-rolling it.
//!
//! Determinism contract: the pool itself never introduces
//! nondeterminism. Results are handed back *sorted by task index*, so
//! as long as `step` derives everything from the task (never from the
//! worker id, scheduling order, or shared mutable state), the result
//! vector is bit-identical across `jobs` settings. Both the campaign
//! engine's `--jobs 1` vs `--jobs 8` aggregate test and the fuzzer's
//! shard-determinism test rest on this.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::queue::WorkQueue;

/// What a pool run produced.
#[derive(Debug)]
pub struct PoolRun<R> {
    /// One result per *completed* task, sorted by task index (the order
    /// tasks were supplied in). Shorter than the task list only when
    /// `stop_after` tripped or a [`DrainGate`] closed.
    pub results: Vec<R>,
    /// Whether `stop_after` tripped before the task list was drained.
    pub stopped_early: bool,
    /// Whether a [`DrainGate`] closed before the task list was drained.
    pub drained: bool,
}

/// A graceful-shutdown handle for [`run_pool_draining`]: once closed,
/// workers finish the task they are on and then stop pulling new ones —
/// no task is ever torn mid-step. Clone freely; all clones share one
/// flag, so a timer thread (or a signal handler) can close the gate
/// while the pool runs.
#[derive(Clone, Default)]
pub struct DrainGate(Arc<AtomicBool>);

impl DrainGate {
    /// A fresh, open gate.
    pub fn new() -> DrainGate {
        DrainGate::default()
    }

    /// Close the gate: refuse new tasks, let in-flight tasks finish.
    pub fn close(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Whether the gate has been closed.
    pub fn is_closed(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// Fan `tasks` across `jobs` scoped worker threads.
///
/// * `init(worker)` builds each worker's private state inside its own
///   thread, so the state need not be `Send` (flight recorders are
///   `Rc`-based).
/// * `step(state, task)` runs one task to a result.
/// * `drain(state)` runs once per worker after its loop ends — the hook
///   for folding worker-local evidence (merged metrics) into shared
///   accumulators captured by the closure.
/// * `stop_after`: stop dispatching new tasks once this many have
///   completed across all workers; in-flight tasks still finish, so up
///   to `jobs - 1` extra results may land.
pub fn run_pool<T, S, R>(
    jobs: usize,
    tasks: impl IntoIterator<Item = T>,
    stop_after: Option<u64>,
    init: impl Fn(usize) -> S + Sync,
    step: impl Fn(&mut S, &T) -> R + Sync,
    drain: impl Fn(S) + Sync,
) -> PoolRun<R>
where
    T: Send,
    R: Send,
{
    run_pool_draining(jobs, tasks, stop_after, None, init, step, drain)
}

/// [`run_pool`] with an optional [`DrainGate`]: when the gate closes,
/// workers finish their in-flight task and stop dispatching — the
/// graceful-shutdown path serve fleets use for duration-bounded runs.
/// Everything else (result ordering, the determinism contract, the
/// `stop_after` cap) is identical to [`run_pool`].
pub fn run_pool_draining<T, S, R>(
    jobs: usize,
    tasks: impl IntoIterator<Item = T>,
    stop_after: Option<u64>,
    gate: Option<&DrainGate>,
    init: impl Fn(usize) -> S + Sync,
    step: impl Fn(&mut S, &T) -> R + Sync,
    drain: impl Fn(S) + Sync,
) -> PoolRun<R>
where
    T: Send,
    R: Send,
{
    let jobs = jobs.max(1);
    let tasks: Vec<(usize, T)> = tasks.into_iter().enumerate().collect();
    let total = tasks.len();
    let queue = WorkQueue::new(jobs, tasks);
    let results: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::new());
    let completed = AtomicU64::new(0);
    let stop = AtomicBool::new(false);

    let drained = AtomicBool::new(false);

    std::thread::scope(|scope| {
        for w in 0..jobs {
            let queue = &queue;
            let results = &results;
            let completed = &completed;
            let stop = &stop;
            let drained = &drained;
            let init = &init;
            let step = &step;
            let drain = &drain;
            scope.spawn(move || {
                let mut state = init(w);
                loop {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    if gate.is_some_and(DrainGate::is_closed) {
                        drained.store(true, Ordering::Relaxed);
                        break;
                    }
                    let Some((idx, task)) = queue.pop(w) else {
                        break;
                    };
                    let r = step(&mut state, &task);
                    results.lock().unwrap().push((idx, r));
                    let n = completed.fetch_add(1, Ordering::Relaxed) + 1;
                    if stop_after.is_some_and(|cap| n >= cap) {
                        stop.store(true, Ordering::Relaxed);
                    }
                }
                drain(state);
            });
        }
    });

    let mut indexed = results.into_inner().unwrap();
    indexed.sort_unstable_by_key(|(i, _)| *i);
    let results: Vec<R> = indexed.into_iter().map(|(_, r)| r).collect();
    // A gate that closed after the last task completed did not actually
    // cut the run short; only report a drain that left tasks behind.
    let drained = drained.into_inner() && results.len() < total;
    PoolRun {
        results,
        stopped_early: stop.into_inner(),
        drained,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::rc::Rc;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn results_come_back_in_task_order_regardless_of_jobs() {
        let tasks: Vec<u64> = (0..200).collect();
        let serial = run_pool(1, tasks.clone(), None, |_| (), |_, t| t * 3, |_| {});
        let wide = run_pool(8, tasks, None, |_| (), |_, t| t * 3, |_| {});
        assert_eq!(serial.results, wide.results);
        assert_eq!(serial.results[7], 21);
        assert!(!serial.stopped_early && !wide.stopped_early);
    }

    #[test]
    fn worker_state_may_be_non_send() {
        // Rc is !Send: the state must be created and dropped inside the
        // worker thread for this to compile at all.
        let drained = AtomicUsize::new(0);
        let run = run_pool(
            4,
            0..50u64,
            None,
            |_| Rc::new(std::cell::Cell::new(0u64)),
            |s, t| {
                s.set(s.get() + t);
                *t
            },
            |s| {
                drained.fetch_add(usize::try_from(s.get()).unwrap(), Ordering::Relaxed);
            },
        );
        assert_eq!(run.results.len(), 50);
        // Every task landed in exactly one worker's private sum.
        assert_eq!(drained.into_inner(), (0..50).sum::<u64>() as usize);
    }

    #[test]
    fn stop_after_halts_dispatch() {
        let run = run_pool(2, 0..100u64, Some(10), |_| (), |_, t| *t, |_| {});
        assert!(run.stopped_early);
        assert!(!run.drained);
        let n = run.results.len();
        assert!((10..=11).contains(&n), "completed {n}");
    }

    #[test]
    fn closed_gate_refuses_every_task() {
        let gate = DrainGate::new();
        gate.close();
        let run = run_pool_draining(4, 0..100u64, None, Some(&gate), |_| (), |_, t| *t, |_| {});
        assert!(run.drained);
        assert!(run.results.is_empty());
    }

    #[test]
    fn gate_closing_mid_run_finishes_in_flight_tasks_only() {
        let gate = DrainGate::new();
        // Close the gate from inside task #10: tasks already popped may
        // finish, but dispatch stops shortly after.
        let closer = gate.clone();
        let run = run_pool_draining(
            2,
            0..10_000u64,
            None,
            Some(&gate),
            |_| (),
            move |_, t| {
                if *t == 10 {
                    closer.close();
                }
                *t
            },
            |_| {},
        );
        assert!(run.drained);
        assert!(!run.results.is_empty());
        assert!(run.results.len() < 10_000, "{}", run.results.len());
    }

    #[test]
    fn open_gate_changes_nothing() {
        let gate = DrainGate::new();
        let gated = run_pool_draining(4, 0..64u64, None, Some(&gate), |_| (), |_, t| t * 7, |_| {});
        let plain = run_pool(4, 0..64u64, None, |_| (), |_, t| t * 7, |_| {});
        assert_eq!(gated.results, plain.results);
        assert!(!gated.drained && !plain.drained);
    }

    #[test]
    fn gate_closed_after_completion_is_not_a_drain() {
        let gate = DrainGate::new();
        let run = run_pool_draining(2, 0..8u64, None, Some(&gate), |_| (), |_, t| *t, |_| {});
        gate.close();
        assert!(!run.drained);
        assert_eq!(run.results.len(), 8);
    }
}
