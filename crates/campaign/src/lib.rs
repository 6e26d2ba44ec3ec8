//! Parallel Monte-Carlo campaign engine for probabilistic security
//! evaluation.
//!
//! The paper's security claims are statistical: Smokestack reduces a
//! DOP adversary to brute-forcing a per-invocation permutation, so
//! "the attack is stopped" really means "success probability is below
//! some bound". A handful of fixed-seed trials cannot distinguish a
//! working defense from a lucky one. This crate scales the evidence:
//!
//! * [`plan`] — declarative attack × defense × trial-count grids with
//!   a master seed; built-in `smoke`, `matrix`, `matrix-synth` and
//!   `full` plans plus a plan-file parser.
//! * [`pool`] — the reusable scoped-thread worker pool (over the
//!   hand-rolled work-stealing [`queue`]) with per-worker non-`Send`
//!   state; the engine here and the differential fuzzer both shard
//!   onto it.
//! * [`engine`] — runs each trial in an isolated VM on that pool.
//!   Per-trial seeds are split off the master seed by grid position,
//!   so aggregates are bit-identical across `--jobs` settings.
//! * [`record`] — one JSONL record per trial, streamed through a
//!   shared sink; the journal doubles as the checkpoint for
//!   kill/resume.
//! * [`stats`] — Wilson score confidence intervals on success
//!   probability, survival curves over adaptive-attacker restart
//!   budgets, and (via the engine's merged telemetry) chi-squared
//!   layout-uniformity evidence.
//! * [`matrix`] — the pinned interval bounds of every built-in plan,
//!   up to the `full` plan's bounds on the paper's whole §II-C/§V-C
//!   verdict matrix: prior schemes bypassed, secure Smokestack schemes
//!   holding every attack below a paper-consistent success ceiling,
//!   the `pseudo` source falling.
//!
//! The `campaign` binary drives all of it from the command line.

pub mod engine;
pub mod matrix;
pub mod plan;
pub mod pool;
pub mod queue;
pub mod record;
pub mod stats;

pub use engine::{build_seed, run_campaign, trial_seed, CampaignResult, EngineConfig, RecordSink};
pub use matrix::{
    bounds_for_plan, check, full_bounds, pinned_bounds, security_matrix_v2, smoke_bounds,
    CellBound, MatrixBound, Violation,
};
pub use plan::{CampaignPlan, PlanCell, BUILTIN_PLANS};
pub use pool::{run_pool, run_pool_draining, DrainGate, PoolRun};
pub use queue::WorkQueue;
pub use record::{
    is_incident_line, journal_header, parse_journal, Journal, OutcomeKind, TrialRecord,
};
pub use stats::{aggregate, wilson_interval, CellStats, SURVIVAL_BUDGETS, Z95};
