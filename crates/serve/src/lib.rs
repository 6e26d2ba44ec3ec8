//! # smokestack-serve
//!
//! A long-running multi-tenant server over hardened VM sessions: the
//! production-scale counterpart to the one-shot attack builds the
//! campaign engine evaluates. Thousands of tenants stay *resident* —
//! one [`smokestack_vm::Session`] each, respawned (never rebuilt)
//! per request, all sharing one compiled bytecode image per
//! (application, defense) cell through the process-wide cache — while a
//! deterministic open-loop traffic model drives millions of requests at
//! them: mostly benign workload traffic, with CVE and `synth-*` exploit
//! attempts interleaved at a configurable poison rate.
//!
//! The pipeline:
//!
//! * [`plan::ServePlan`] — tenants × fleets × apps × request count ×
//!   poison rate, all derived from one master seed.
//! * [`traffic`] — the open-loop schedule: request `i`'s tenant, seed,
//!   poison flag, and attack pick are positional functions of
//!   `(master_seed, i)`, so the schedule is byte-identical across
//!   worker counts and re-runs.
//! * [`engine`] — dispatches request batches onto the
//!   `campaign::pool` work-stealing fleet (with a
//!   [`smokestack_campaign::DrainGate`] for duration-bounded runs) and
//!   folds per-batch evidence jobs-invariantly.
//! * [`report`] — per-fleet SLO percentiles (wall-clock *and*
//!   deterministic decicycles), per-scheme compromise counts,
//!   time-to-first-compromise survival curves, Prometheus exposition,
//!   and the `BENCH_serve.json` pin schema.
//!
//! The `serve` binary drives all of it from the command line.

#![warn(missing_docs)]

pub mod apps;
pub mod engine;
pub mod plan;
pub mod report;
pub mod traffic;

pub use apps::{app_names, catalog, ServeApp};
pub use engine::{run_serve, ServeConfig};
pub use plan::{Fleet, ServePlan};
pub use report::{
    plan_scope, report_pin, serve_registry, FleetReport, ServeReport, PIN_SCHEMA, TTFC_BUDGETS,
};
pub use traffic::{schedule_digest, Request};
