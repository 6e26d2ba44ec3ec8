//! [`FlightRecorder`]: the VM's tracer.
//!
//! On the hot path the recorder does exactly three kinds of work, none
//! of which allocate or format:
//!
//! 1. flatten the event to a 32-byte [`CompactRecord`] and store it in
//!    a preallocated power-of-two ring ([`RecordRing`]);
//! 2. bump a **fixed-slot** statistic (struct fields and
//!    index-addressed vectors — never a string-keyed map);
//! 3. push/pop the [`SpanRecorder`] stack on function boundaries,
//!    billing the category-clock advance to the span on top.
//!
//! The VM never calls into the recorder per instruction: its `charge()`
//! path is two plain adds, and the per-category split is recovered at
//! span boundaries from the clock each event carries. String
//! interning, metric-name materialization, and JSON rendering all
//! happen at **drain time** ([`FlightRecorder::events`],
//! [`FlightRecorder::to_metrics`], [`FlightRecorder::flat_profile`],
//! [`FlightRecorder::collapsed_lines`]), after the run is over.

use crate::event::{Event, GuardKind};
use crate::histogram::StreamingHistogram;
use crate::metrics::{FreqTable, MetricsRegistry};
use crate::record::{scheme_label, CompactRecord, RecordRing};
use crate::spans::{func_name, FunctionCycles, SpanRecorder};
use std::cell::RefCell;
use std::rc::Rc;

/// Flight-recorder sizing.
#[derive(Debug, Clone)]
pub struct RecorderConfig {
    /// Ring capacity in records (rounded up to a power of two). The
    /// default window of 1024 records is the "last N events" an
    /// incident report carries.
    pub ring_capacity: usize,
}

impl Default for RecorderConfig {
    fn default() -> RecorderConfig {
        RecorderConfig {
            ring_capacity: 1024,
        }
    }
}

/// Fixed-slot counters the recorder maintains inline (materialized
/// into a [`MetricsRegistry`] only at drain time).
#[derive(Debug, Clone, Default)]
pub struct RecorderStats {
    /// `stack_rng` draws, by interned scheme id.
    pub rng_draws: [u64; 5],
    /// Draw-cost distribution (decicycles).
    pub rng_cost: StreamingHistogram,
    /// Guard-word checks that passed / failed.
    pub guard_passed: u64,
    /// Guard-word checks that failed.
    pub guard_failed: u64,
    /// Canary checks that passed.
    pub canary_passed: u64,
    /// Canary checks that failed.
    pub canary_failed: u64,
    /// Faults observed.
    pub faults: u64,
    /// Attacker input requests.
    pub input_requests: u64,
    /// Total bytes delivered to input requests.
    pub input_bytes: u64,
    /// Frame-size distribution (bytes, one sample per function exit).
    pub frame_bytes: StreamingHistogram,
    /// Per-run decicycle distribution (one sample per run).
    pub run_decicycles: StreamingHistogram,
    /// Peak RSS high-water mark across runs.
    pub peak_rss: u64,
    /// Maximum call depth observed.
    pub call_depth_max: u64,
}

/// The always-on tracer: bounded ring + spans + fixed-slot stats.
#[derive(Debug, Default)]
pub struct FlightRecorder {
    names: Vec<String>,
    ring: RecordRing,
    spans: SpanRecorder,
    stats: RecorderStats,
    /// P-BOX row selections per function (index-addressed).
    pbox: Vec<FreqTable>,
    /// Most recent P-BOX row per function — the layout draw an
    /// incident report shows.
    last_pbox: Vec<Option<u64>>,
    /// Interned fault strings (at most one per run; never hot).
    fault_texts: Vec<String>,
}

impl Default for RecordRing {
    fn default() -> RecordRing {
        RecordRing::new(RecorderConfig::default().ring_capacity)
    }
}

impl FlightRecorder {
    /// Build from a config.
    pub fn new(cfg: RecorderConfig) -> FlightRecorder {
        FlightRecorder {
            ring: RecordRing::new(cfg.ring_capacity),
            ..FlightRecorder::default()
        }
    }

    /// Function names registered by the VM.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Resolve a function name (for drain-time rendering).
    pub fn func_name(&self, func: u32) -> String {
        func_name(&self.names, func)
    }

    /// The raw record ring.
    pub fn ring(&self) -> &RecordRing {
        &self.ring
    }

    /// Fixed-slot statistics.
    pub fn stats(&self) -> &RecorderStats {
        &self.stats
    }

    /// Runs completed.
    pub fn runs(&self) -> u64 {
        self.spans.runs()
    }

    /// Per-function self time by cycle category, hottest first, plus a
    /// `(vm)` row for time outside every frame. Totals sum to the
    /// decicycles charged across all recorded runs.
    pub fn flat_profile(&self) -> Vec<FunctionCycles> {
        self.spans.flat_profile(&self.names)
    }

    /// Collapsed-stack lines (`main;helper;leaf <self decicycles>`) for
    /// flamegraph tooling; counts sum like [`FlightRecorder::flat_profile`].
    pub fn collapsed_lines(&self) -> Vec<String> {
        self.spans.collapsed_lines(&self.names)
    }

    /// Interned fault strings, oldest first.
    pub fn fault_texts(&self) -> &[String] {
        &self.fault_texts
    }

    /// Most recent P-BOX row drawn for `func`, if any.
    pub fn last_pbox(&self, func: u32) -> Option<u64> {
        self.last_pbox.get(func as usize).copied().flatten()
    }

    /// Every function's most recent P-BOX draw, as `(name, row)` pairs
    /// in function-table order.
    pub fn layout_draws(&self) -> Vec<(String, u64)> {
        self.last_pbox
            .iter()
            .enumerate()
            .filter_map(|(f, row)| row.map(|r| (self.func_name(f as u32), r)))
            .collect()
    }

    /// The innermost function with an open frame (the victim when a
    /// fault just fired and `run_end` has not yet unwound the stack).
    pub fn innermost_open(&self) -> Option<u32> {
        self.spans.innermost_open()
    }

    /// Materialize the retained window as full
    /// [`TracedEvent`](crate::TracedEvent)s, oldest first.
    pub fn events(&self) -> Vec<crate::TracedEvent> {
        self.ring.to_events(&self.fault_texts)
    }

    /// Materialize the fixed-slot statistics into a named
    /// [`MetricsRegistry`] (drain time: this is where strings are
    /// built).
    pub fn to_metrics(&self) -> MetricsRegistry {
        let mut m = MetricsRegistry::new();
        for (id, &n) in self.stats.rng_draws.iter().enumerate() {
            if n > 0 {
                m.inc(&format!("rng_draws.{}", scheme_label(id as u8)), n);
            }
        }
        if self.stats.guard_passed > 0 {
            m.inc("guard_checks.passed", self.stats.guard_passed);
        }
        if self.stats.guard_failed > 0 {
            m.inc("guard_checks.failed", self.stats.guard_failed);
        }
        if self.stats.canary_passed > 0 {
            m.inc("canary_checks.passed", self.stats.canary_passed);
        }
        if self.stats.canary_failed > 0 {
            m.inc("canary_checks.failed", self.stats.canary_failed);
        }
        if self.stats.faults > 0 {
            m.inc("faults", self.stats.faults);
        }
        if self.stats.input_requests > 0 {
            m.inc("input_requests", self.stats.input_requests);
            m.inc("input_bytes", self.stats.input_bytes);
        }
        m.inc("runs", self.runs());
        m.gauge_max("peak_rss", self.stats.peak_rss);
        m.gauge_max("call_depth_max", self.stats.call_depth_max);
        if self.stats.rng_cost.count() > 0 {
            m.merge_stream("rng_cost_decicycles", &self.stats.rng_cost);
        }
        if self.stats.frame_bytes.count() > 0 {
            m.merge_stream("frame_bytes", &self.stats.frame_bytes);
        }
        if self.stats.run_decicycles.count() > 0 {
            m.merge_stream("run_decicycles", &self.stats.run_decicycles);
        }
        for (f, table) in self.pbox.iter().enumerate() {
            if table.total() > 0 {
                m.merge_freq_table(&format!("pbox_index.{}", self.func_name(f as u32)), table);
            }
        }
        m
    }

    /// The VM's function table; events refer to functions by index
    /// into it. Called once per VM, before it runs.
    pub fn on_functions(&mut self, names: &[String]) {
        if self.names.is_empty() {
            self.names = names.to_vec();
        }
        self.spans.set_function_count(names.len());
        if self.pbox.len() < names.len() {
            self.pbox.resize(names.len(), FreqTable::new());
            self.last_pbox.resize(names.len(), None);
        }
    }

    /// One event at category clock `clock`: the VM's running
    /// decicycle totals per [`CycleCategory`](crate::CycleCategory),
    /// indexed by [`CycleCategory::index`](crate::CycleCategory::index).
    /// Their sum is the event's timestamp.
    pub fn on_event(&mut self, clock: &[u64; 6], ev: &Event) {
        let now = clock.iter().sum();
        let mut fault_slot = 0u32;
        match ev {
            Event::FuncEnter { func, depth } => {
                self.spans.enter(*func, clock);
                self.stats.call_depth_max = self.stats.call_depth_max.max(*depth as u64);
            }
            Event::FuncExit {
                func: _,
                frame_bytes,
            } => {
                self.spans.exit(clock);
                self.stats.frame_bytes.observe(*frame_bytes);
            }
            Event::RngDraw {
                scheme,
                cost_decicycles,
            } => {
                let id = crate::record::scheme_id(scheme) as usize;
                self.stats.rng_draws[id] += 1;
                self.stats.rng_cost.observe(*cost_decicycles);
            }
            Event::PboxSelect { func, index } => {
                let f = *func as usize;
                if f < self.pbox.len() {
                    self.pbox[f].observe(*index);
                    self.last_pbox[f] = Some(*index);
                }
            }
            Event::GuardCheck { func, kind, passed } => {
                match (kind, passed) {
                    (GuardKind::Word, true) => self.stats.guard_passed += 1,
                    (GuardKind::Word, false) => self.stats.guard_failed += 1,
                    (GuardKind::Canary, true) => self.stats.canary_passed += 1,
                    (GuardKind::Canary, false) => self.stats.canary_failed += 1,
                }
                self.spans
                    .guard_check(*func, matches!(kind, GuardKind::Canary));
            }
            Event::Fault { what } => {
                // The one allocating path — faults are terminal, so
                // this fires at most once per run.
                fault_slot = self.fault_texts.len() as u32;
                self.fault_texts.push(what.clone());
                self.stats.faults += 1;
            }
            Event::InputRequest { bytes, .. } => {
                self.stats.input_requests += 1;
                self.stats.input_bytes += bytes;
            }
            Event::RunEnd {
                peak_rss,
                decicycles,
            } => {
                self.spans.run_end(clock);
                self.stats.run_decicycles.observe(*decicycles);
                self.stats.peak_rss = self.stats.peak_rss.max(*peak_rss);
            }
            Event::Alloca { .. } => {}
        }
        self.ring
            .push(CompactRecord::from_event(now, ev, fault_slot));
    }
}

/// Clonable handle around a [`FlightRecorder`] so the caller keeps
/// access while the VM (or every VM an executor spawns) feeds it.
#[derive(Debug, Clone, Default)]
pub struct SharedRecorder(Rc<RefCell<FlightRecorder>>);

impl SharedRecorder {
    /// Build from a config.
    pub fn new(cfg: RecorderConfig) -> SharedRecorder {
        SharedRecorder(Rc::new(RefCell::new(FlightRecorder::new(cfg))))
    }

    /// Read access to the underlying recorder.
    pub fn with<R>(&self, f: impl FnOnce(&FlightRecorder) -> R) -> R {
        f(&self.0.borrow())
    }

    /// [`FlightRecorder::on_functions`] through the handle.
    pub fn on_functions(&self, names: &[String]) {
        self.0.borrow_mut().on_functions(names);
    }

    /// [`FlightRecorder::on_event`] through the handle.
    #[inline]
    pub fn on_event(&self, clock: &[u64; 6], ev: &Event) {
        self.0.borrow_mut().on_event(clock, ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A category clock with `n` decicycles of ALU work.
    fn alu(n: u64) -> [u64; 6] {
        [0, 0, n, 0, 0, 0]
    }

    fn enter(r: &mut FlightRecorder, now: u64, func: u32, depth: u32) {
        r.on_event(&alu(now), &Event::FuncEnter { func, depth });
    }

    fn exit(r: &mut FlightRecorder, now: u64, func: u32, frame_bytes: u64) {
        r.on_event(&alu(now), &Event::FuncExit { func, frame_bytes });
    }

    fn run_end(r: &mut FlightRecorder, now: u64, peak_rss: u64) {
        r.on_event(
            &alu(now),
            &Event::RunEnd {
                peak_rss,
                decicycles: now,
            },
        );
    }

    #[test]
    fn recorder_aggregates_without_string_keys_until_drain() {
        let mut r = FlightRecorder::new(RecorderConfig { ring_capacity: 64 });
        r.on_functions(&["main".to_string(), "leaf".to_string()]);
        enter(&mut r, 0, 0, 1);
        r.on_event(
            &alu(2),
            &Event::RngDraw {
                scheme: "AES-10",
                cost_decicycles: 928,
            },
        );
        r.on_event(&alu(3), &Event::PboxSelect { func: 1, index: 4 });
        enter(&mut r, 5, 1, 2);
        r.on_event(
            &alu(20),
            &Event::GuardCheck {
                func: 1,
                kind: GuardKind::Word,
                passed: true,
            },
        );
        exit(&mut r, 21, 1, 64);
        exit(&mut r, 30, 0, 128);
        run_end(&mut r, 30, 4096);

        assert_eq!(r.stats().rng_draws[2], 1); // AES-10
        assert_eq!(r.stats().guard_passed, 1);
        assert_eq!(r.last_pbox(1), Some(4));
        assert_eq!(r.layout_draws(), vec![("leaf".to_string(), 4)]);
        let flat = r.flat_profile();
        let main = flat.iter().find(|f| f.name == "main").unwrap();
        assert_eq!(main.calls, 1);
        assert_eq!(main.inclusive_decicycles, 30);
        assert_eq!(main.total(), 14);
        let leaf = flat.iter().find(|f| f.name == "leaf").unwrap();
        assert_eq!(leaf.guard_checks, 1);
        assert_eq!(r.collapsed_lines(), vec!["main 14", "main;leaf 16"]);
        assert_eq!(r.runs(), 1);

        let m = r.to_metrics();
        assert_eq!(m.counter("rng_draws.AES-10"), 1);
        assert_eq!(m.counter("guard_checks.passed"), 1);
        assert_eq!(m.freq_table("pbox_index.leaf").unwrap().total(), 1);
        assert_eq!(m.stream("frame_bytes").unwrap().count(), 2);
        assert_eq!(m.gauge("peak_rss"), Some(4096));

        let events = r.events();
        assert_eq!(events.len(), 8);
        assert_eq!(events[0].seq, 0);
        // The ring stamps each event with the clock's total.
        assert_eq!(events[7].now, 30);
    }

    #[test]
    fn fault_text_interns_and_round_trips() {
        let mut r = FlightRecorder::default();
        r.on_functions(&["main".to_string()]);
        enter(&mut r, 0, 0, 1);
        r.on_event(
            &alu(50),
            &Event::Fault {
                what: "oob write 0x40".to_string(),
            },
        );
        run_end(&mut r, 50, 0);
        assert_eq!(r.stats().faults, 1);
        assert_eq!(r.fault_texts(), &["oob write 0x40".to_string()]);
        let events = r.events();
        assert!(events.iter().any(|e| matches!(
            &e.event,
            Event::Fault { what } if what == "oob write 0x40"
        )));
        // The faulting frame was unwound at the fault clock.
        assert_eq!(r.flat_profile()[0].inclusive_decicycles, 50);
    }

    #[test]
    fn shared_recorder_observable_through_a_clone() {
        let shared = SharedRecorder::default();
        let fed = shared.clone();
        fed.on_functions(&["main".to_string()]);
        fed.on_event(&alu(0), &Event::FuncEnter { func: 0, depth: 1 });
        fed.on_event(
            &alu(9),
            &Event::RunEnd {
                peak_rss: 1,
                decicycles: 9,
            },
        );
        drop(fed);
        assert_eq!(shared.with(|r| r.runs()), 1);
        assert_eq!(shared.with(|r| r.ring().total_pushed()), 2);
    }

    #[test]
    fn ring_window_is_bounded_but_stats_are_complete() {
        let mut r = FlightRecorder::new(RecorderConfig { ring_capacity: 4 });
        r.on_functions(&["f".to_string()]);
        for i in 0..100u64 {
            r.on_event(
                &alu(i),
                &Event::RngDraw {
                    scheme: "pseudo",
                    cost_decicycles: 34,
                },
            );
        }
        assert_eq!(r.ring().len(), 4);
        assert_eq!(r.ring().dropped(), 96);
        // Stats never drop, only the event window does.
        assert_eq!(r.stats().rng_draws[0], 100);
        assert_eq!(r.events().first().unwrap().seq, 96);
    }
}
