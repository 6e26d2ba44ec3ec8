//! Observability for the Smokestack VM, built around one tracer: the
//! **flight recorder**.
//!
//! The paper's evaluation is observability end to end — §V-A attributes
//! hardened-build cycles to RNG latency and instrumentation work with
//! OProfile, and §IV argues security from the *uniformity* of the layout
//! draws. This crate is the in-simulation analog of that tooling:
//!
//! * [`FlightRecorder`] / [`SharedRecorder`] — the VM's tracer. A
//!   bounded ring of compact 32-byte [`CompactRecord`]s (no allocation
//!   or formatting on the hot path), hierarchical spans
//!   (session → run → function-call → guard-check) over a call-path
//!   trie with per-category self time ([`SpanRecorder`]), and
//!   fixed-slot statistics materialized into names only at drain time.
//!   The VM hands it the category clock with each event and never
//!   calls it per instruction; the per-function flat profile
//!   ([`FunctionCycles`]) and collapsed stacks come from span
//!   boundaries alone and sum exactly to the run's decicycles.
//! * [`IncidentReport`] — fault forensics: on any fault or guard trip
//!   the recorder window drains into a structured, schema-versioned
//!   JSON report (scheme, layout draw, frame map of the victim
//!   function, faulting access with segment+offset, last N events),
//!   replayable via the seed protocol.
//! * [`StreamingHistogram`] — log-bucketed with linear sub-buckets:
//!   streaming p50/p95/p99/p999 within ~3%, mergeable across threads
//!   with bit-identical fold-order-independent results.
//! * [`MetricsRegistry`] — counters, gauges, streaming histograms, and
//!   per-function permutation-index frequency tables with a
//!   chi-squared uniformity statistic; [`render_prometheus`] exposes a
//!   registry in Prometheus text format.
//! * [`SharedJsonlSink`] — a line-atomic JSONL journal shared by
//!   campaign and serve workers.
//!
//! The default is no recorder at all (`None` on `VmConfig`), and every
//! emit site in the VM is guarded by a cheap `is-some` check, so the
//! disabled path costs nothing measurable.
//!
//! Everything here is dependency-free by design (hand-rolled JSON, no
//! serde): the workspace builds in registry-less environments.

pub mod event;
pub mod histogram;
pub mod incident;
pub mod json;
pub mod metrics;
pub mod prometheus;
pub mod record;
pub mod recorder;
pub mod sink;
pub mod spans;

pub use event::{Event, GuardKind, TracedEvent};
pub use histogram::StreamingHistogram;
pub use incident::{FaultAccess, FrameSlot, IncidentReport, INCIDENT_SCHEMA};
pub use metrics::{chi_squared_uniform, FreqTable, MetricsRegistry};
pub use prometheus::render_prometheus;
pub use record::{CompactRecord, RecordKind, RecordRing};
pub use recorder::{FlightRecorder, RecorderConfig, RecorderStats, SharedRecorder};
pub use sink::SharedJsonlSink;
pub use spans::{FunctionCycles, SpanRecorder};

/// The cycle-accounting categories of the VM's `CycleBreakdown`,
/// mirrored here so the VM can hand the recorder its category clock
/// without a dependency cycle (telemetry must not depend on the VM).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CycleCategory {
    /// Entropy draws (`stack_rng`).
    Rng,
    /// Loads, stores, address formation.
    Mem,
    /// Arithmetic/logic and intrinsic bookkeeping.
    Alu,
    /// Branches, calls, returns.
    Control,
    /// `get_input` / `print_*` style I/O.
    Io,
    /// Bulk memory intrinsics (memcpy/memset/strlen/...).
    Bulk,
}

impl CycleCategory {
    /// Every category, in `CycleBreakdown` field order.
    pub const ALL: [CycleCategory; 6] = [
        CycleCategory::Rng,
        CycleCategory::Mem,
        CycleCategory::Alu,
        CycleCategory::Control,
        CycleCategory::Io,
        CycleCategory::Bulk,
    ];

    /// Stable index into category clocks and per-function cycle arrays.
    pub fn index(self) -> usize {
        match self {
            CycleCategory::Rng => 0,
            CycleCategory::Mem => 1,
            CycleCategory::Alu => 2,
            CycleCategory::Control => 3,
            CycleCategory::Io => 4,
            CycleCategory::Bulk => 5,
        }
    }

    /// Short label used in JSON dumps and reports.
    pub fn name(self) -> &'static str {
        match self {
            CycleCategory::Rng => "rng",
            CycleCategory::Mem => "mem",
            CycleCategory::Alu => "alu",
            CycleCategory::Control => "control",
            CycleCategory::Io => "io",
            CycleCategory::Bulk => "bulk",
        }
    }
}
