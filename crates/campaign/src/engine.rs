//! The parallel Monte-Carlo trial engine.
//!
//! A campaign is a grid of `(attack, defense, trial)` cells flattened
//! into one task list, fanned across a [`WorkQueue`] of scoped worker
//! threads. Three properties make the parallelism safe *and* the
//! results reproducible:
//!
//! * **Per-trial seeds are positional, not temporal.** Every trial's
//!   campaign seed is split off the plan's master seed by `(cell,
//!   index)` via [`smokestack_rand::SeedStream`], so which worker runs
//!   a trial — or whether it runs before or after a checkpoint/resume
//!   boundary — cannot change its outcome. `--jobs 1` and `--jobs 8`
//!   produce bit-identical aggregates.
//! * **Workers share nothing mutable but the results.** The VM's
//!   telemetry handles are deliberately single-threaded
//!   (`Rc<RefCell<..>>`), so each worker deploys its *own* `Build` per
//!   cell (the compiled module itself is shared copy-free behind an
//!   `Arc`). Records funnel through a `Mutex<Vec<_>>` and, optionally,
//!   a [`RecordSink`] journal.
//! * **The journal is the checkpoint.** Each completed trial is one
//!   JSONL line, written atomically; a killed campaign resumes by
//!   parsing the journal and skipping the `(cell, index)` pairs
//!   already present.

use std::collections::{HashMap, HashSet};
use std::io::Write;
use std::sync::Mutex;

use smokestack_attacks::{by_name, capture_incident, run_trial, Attack, Build};
use smokestack_rand::SeedStream;
use smokestack_telemetry::{IncidentReport, MetricsRegistry, SharedJsonlSink, SharedRecorder};

use crate::plan::CampaignPlan;
use crate::pool::run_pool;
use crate::record::{OutcomeKind, TrialRecord};

/// Seed-stream domain for per-cell build seeds.
const BUILD_DOMAIN: u64 = 0xb11d;
/// Seed-stream domain for per-trial campaign seeds.
const TRIAL_DOMAIN: u64 = 0x7261;

/// The deterministic build seed for `cell` of a plan with `master_seed`.
pub fn build_seed(master_seed: u64, cell: u32) -> u64 {
    SeedStream::new(master_seed, BUILD_DOMAIN).seed(u64::from(cell))
}

/// The deterministic campaign seed for trial `index` of `cell`.
pub fn trial_seed(master_seed: u64, cell: u32, index: u32) -> u64 {
    let per_cell = SeedStream::new(master_seed, TRIAL_DOMAIN).seed(u64::from(cell));
    SeedStream::new(per_cell, 1).seed(u64::from(index))
}

/// Where workers stream completed trial records (one JSON line each).
pub trait RecordSink: Sync {
    /// Append one pre-formatted JSON line.
    fn write_line(&self, line: &str);
}

impl<W: Write + Send> RecordSink for SharedJsonlSink<W> {
    fn write_line(&self, line: &str) {
        SharedJsonlSink::write_line(self, line);
    }
}

/// Engine knobs.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Worker threads (clamped to at least 1).
    pub jobs: usize,
    /// Checkpoint hook: stop dispatching new trials once this many have
    /// completed *in this run*. In-flight trials still finish, so up to
    /// `jobs - 1` extra records may land. Tests use this to simulate a
    /// campaign killed mid-grid.
    pub stop_after: Option<u64>,
    /// Attach a flight recorder to every trial VM and merge its
    /// metrics — including the per-function `pbox_index.<function>`
    /// frequency tables — into the result's registry, for chi-squared
    /// layout-uniformity checks.
    pub trace_uniformity: bool,
    /// Attach a flight recorder to every trial VM and merge per-defense
    /// `trial_decicycles.<defense>` latency streams plus per-attack
    /// `ttd_rounds.<attack>` time-to-detection streams into the
    /// result's registry. Stream merges are bucket-wise adds, so
    /// aggregates stay bit-identical across worker counts. Combines
    /// freely with `trace_uniformity`: one recorder feeds both.
    pub collect_stats: bool,
    /// Re-run every blocked (detected/crashed) trial with a flight
    /// recorder and drain it into an [`IncidentReport`]: collected on
    /// the result and journaled as a dedicated incident line next to
    /// the trial's record.
    pub capture_incidents: bool,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            jobs: 1,
            stop_after: None,
            trace_uniformity: false,
            collect_stats: false,
            capture_incidents: false,
        }
    }
}

/// What a campaign run produced.
#[derive(Debug)]
pub struct CampaignResult {
    /// Records completed in *this* run (excludes resumed-over trials),
    /// sorted by `(cell, index)`.
    pub records: Vec<TrialRecord>,
    /// Merged telemetry across all trial VMs. Empty unless
    /// [`EngineConfig::trace_uniformity`] or
    /// [`EngineConfig::collect_stats`] was set; the
    /// `pbox_index.<function>` frequency tables aggregate layout draws,
    /// and the `trial_decicycles.<defense>` / `ttd_rounds.<attack>`
    /// streams aggregate latency and time-to-detection.
    pub metrics: MetricsRegistry,
    /// Incident reports for blocked trials, keyed by `(cell, index)`
    /// and sorted. Empty unless [`EngineConfig::capture_incidents`].
    pub incidents: Vec<(u32, u32, IncidentReport)>,
    /// Whether `stop_after` tripped before the grid was finished.
    pub stopped_early: bool,
}

/// One unit of work: a single trial campaign.
struct Trial {
    cell: u32,
    index: u32,
    seed: u64,
}

/// A worker's per-cell context: its own deployed build (telemetry
/// handles are not `Send`, so builds are never shared across threads;
/// the compiled module is shared behind an `Arc` inside `Build`).
struct CellCtx {
    attack: Box<dyn Attack>,
    build: Build,
    recorder: Option<SharedRecorder>,
    defense_label: String,
}

fn make_ctx(plan: &CampaignPlan, cell: u32, cfg: &EngineConfig) -> CellCtx {
    let spec = &plan.cells[cell as usize];
    let attack = by_name(&spec.attack).expect("plan validated before spawn");
    let fleet = spec.fleet();
    let mut build = Build::new_configured(
        attack.source(),
        fleet.defense,
        build_seed(plan.master_seed, cell),
        &fleet.smokestack_config(),
    );
    let recorder = (cfg.trace_uniformity || cfg.collect_stats).then(SharedRecorder::default);
    if let Some(r) = &recorder {
        build = build.with_recorder(r.clone());
    }
    CellCtx {
        attack,
        build,
        recorder,
        defense_label: fleet.label(),
    }
}

/// Run `plan` under `cfg`, skipping trials whose `(cell, index)` is in
/// `done` (resume), streaming each completed record to `sink`.
///
/// Fails fast (before spawning anything) if a plan cell names an
/// unknown attack.
pub fn run_campaign(
    plan: &CampaignPlan,
    cfg: &EngineConfig,
    done: &HashSet<(u32, u32)>,
    sink: Option<&dyn RecordSink>,
) -> Result<CampaignResult, String> {
    for cell in &plan.cells {
        if by_name(&cell.attack).is_none() {
            return Err(format!("plan cell names unknown attack `{}`", cell.attack));
        }
    }

    let mut tasks = Vec::new();
    for (ci, cell) in plan.cells.iter().enumerate() {
        let ci = u32::try_from(ci).expect("cell count fits u32");
        for index in 0..cell.trials {
            if !done.contains(&(ci, index)) {
                tasks.push(Trial {
                    cell: ci,
                    index,
                    seed: trial_seed(plan.master_seed, ci, index),
                });
            }
        }
    }

    let metrics: Mutex<MetricsRegistry> = Mutex::new(MetricsRegistry::new());
    let run = run_pool(
        cfg.jobs,
        tasks,
        cfg.stop_after,
        |_worker| HashMap::<u32, CellCtx>::new(),
        |cache, task| {
            let ctx = cache
                .entry(task.cell)
                .or_insert_with(|| make_ctx(plan, task.cell, cfg));
            let run = run_trial(&*ctx.attack, &ctx.build, task.seed);
            let rec = TrialRecord::from_run(
                task.cell,
                task.index,
                ctx.attack.name(),
                &ctx.defense_label,
                task.seed,
                &run,
            );
            // Blocked trials re-derive their deciding attempt under a
            // fresh recorder (replaying the same seed schedule) and
            // journal the forensic window next to the trial record.
            let incident = (cfg.capture_incidents
                && matches!(rec.kind, OutcomeKind::Detected | OutcomeKind::Crashed))
            .then(|| capture_incident(&*ctx.attack, &ctx.build, task.seed))
            .flatten();
            if let Some(sink) = sink {
                sink.write_line(&rec.to_json_line());
                if let Some(inc) = &incident {
                    sink.write_line(&inc.to_json());
                }
            }
            (rec, incident)
        },
        // Fold each worker's evidence into the campaign-wide registry.
        // Stream and table merges are bucket-wise adds (commutative and
        // associative), so the fold order — and thus the worker count —
        // cannot change the aggregates.
        |cache| {
            let mut reg = metrics.lock().unwrap();
            for ctx in cache.values() {
                if let Some(r) = &ctx.recorder {
                    r.with(|r| {
                        if cfg.trace_uniformity {
                            reg.merge(&r.to_metrics());
                        }
                        let stats = r.stats();
                        if cfg.collect_stats && stats.run_decicycles.count() > 0 {
                            reg.merge_stream(
                                &format!("trial_decicycles.{}", ctx.defense_label),
                                &stats.run_decicycles,
                            );
                        }
                    });
                }
            }
        },
    );

    let mut records = Vec::with_capacity(run.results.len());
    let mut incidents = Vec::new();
    for (rec, incident) in run.results {
        if let Some(inc) = incident {
            incidents.push((rec.cell, rec.index, inc));
        }
        records.push(rec);
    }
    records.sort_unstable_by_key(|r| (r.cell, r.index));
    incidents.sort_unstable_by_key(|(c, i, _)| (*c, *i));

    // Per-attack time-to-detection streams, derived from the sorted
    // records so they cover resumed runs' new trials uniformly.
    let mut registry = metrics.into_inner().unwrap();
    if cfg.collect_stats {
        for rec in &records {
            if rec.kind == OutcomeKind::Detected {
                registry.stream_observe(&format!("ttd_rounds.{}", rec.attack), rec.rounds as u64);
            }
        }
    }

    Ok(CampaignResult {
        records,
        metrics: registry,
        incidents,
        stopped_early: run.stopped_early,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::PlanCell;
    use crate::record::journal_header;
    use smokestack_defenses::DefenseKind;
    use smokestack_srng::SchemeKind;

    /// A small but non-trivial plan: an attack that mostly succeeds,
    /// one that gets detected, and a stealthy-abort-heavy cell.
    fn tiny_plan() -> CampaignPlan {
        CampaignPlan {
            name: "tiny".into(),
            master_seed: 0x7e57,
            cells: vec![
                PlanCell::new("listing1-dop", DefenseKind::None, 4),
                PlanCell::new(
                    "listing1-dop",
                    DefenseKind::Smokestack(SchemeKind::Pseudo),
                    3,
                ),
                PlanCell::new(
                    "synthetic-direct-stack",
                    DefenseKind::Smokestack(SchemeKind::Aes10),
                    3,
                ),
            ],
        }
    }

    #[test]
    fn aggregates_are_identical_across_worker_counts() {
        let plan = tiny_plan();
        let run = |jobs: usize| {
            run_campaign(
                &plan,
                &EngineConfig {
                    jobs,
                    ..EngineConfig::default()
                },
                &HashSet::new(),
                None,
            )
            .unwrap()
        };
        let serial = run(1);
        let wide = run(8);
        assert_eq!(serial.records.len(), plan.total_trials() as usize);
        // Not just equal aggregates: every individual record (outcome,
        // rounds, detail) is bit-identical, because seeds are keyed by
        // grid position rather than by scheduling order.
        assert_eq!(serial.records, wide.records);
        assert!(!serial.stopped_early && !wide.stopped_early);
    }

    #[test]
    fn resume_skips_done_trials_and_seeds_stay_positional() {
        let plan = tiny_plan();
        let full = run_campaign(&plan, &EngineConfig::default(), &HashSet::new(), None).unwrap();
        // Pretend the first 6 trials were journaled before a kill.
        let done: HashSet<(u32, u32)> = full.records[..6]
            .iter()
            .map(|r| (r.cell, r.index))
            .collect();
        let resumed = run_campaign(&plan, &EngineConfig::default(), &done, None).unwrap();
        assert_eq!(resumed.records, full.records[6..]);
    }

    #[test]
    fn stop_after_checkpoints_mid_grid() {
        let plan = tiny_plan();
        let result = run_campaign(
            &plan,
            &EngineConfig {
                jobs: 2,
                stop_after: Some(4),
                ..EngineConfig::default()
            },
            &HashSet::new(),
            None,
        )
        .unwrap();
        assert!(result.stopped_early);
        let n = result.records.len() as u64;
        assert!((4..=5).contains(&n), "completed {n} trials");
    }

    #[test]
    fn uniformity_tracing_accumulates_pbox_tables() {
        let plan = CampaignPlan {
            name: "uniform".into(),
            master_seed: 1,
            cells: vec![PlanCell::new(
                "listing1-dop",
                DefenseKind::Smokestack(SchemeKind::Aes10),
                2,
            )],
        };
        let result = run_campaign(
            &plan,
            &EngineConfig {
                jobs: 2,
                trace_uniformity: true,
                ..EngineConfig::default()
            },
            &HashSet::new(),
            None,
        )
        .unwrap();
        let tables: Vec<&str> = result.metrics.freq_tables().map(|(name, _)| name).collect();
        assert!(
            tables.iter().any(|n| n.starts_with("pbox_index.")),
            "no P-BOX frequency tables collected: {tables:?}"
        );
    }

    #[test]
    fn stats_streams_are_bit_identical_across_worker_counts() {
        let plan = tiny_plan();
        let run = |jobs: usize| {
            run_campaign(
                &plan,
                &EngineConfig {
                    jobs,
                    collect_stats: true,
                    ..EngineConfig::default()
                },
                &HashSet::new(),
                None,
            )
            .unwrap()
        };
        let serial = run(1);
        let wide = run(8);
        assert_eq!(serial.records, wide.records);
        // The merged registries — including the streaming histograms —
        // serialize identically: stream merges are bucket-wise adds, so
        // scheduling order cannot leak into the aggregates.
        assert_eq!(serial.metrics.to_json(), wide.metrics.to_json());
        // Per-defense latency streams exist and saw every trial.
        let streams: Vec<&str> = serial.metrics.streams().map(|(n, _)| n).collect();
        assert!(
            streams.iter().any(|n| n.starts_with("trial_decicycles.")),
            "no latency streams: {streams:?}"
        );
        // The detected cell produced a time-to-detection stream.
        if serial
            .records
            .iter()
            .any(|r| r.kind == OutcomeKind::Detected)
        {
            assert!(
                streams.iter().any(|n| n.starts_with("ttd_rounds.")),
                "no TTD streams: {streams:?}"
            );
        }
    }

    #[test]
    fn blocked_trials_produce_journaled_replayable_incidents() {
        let plan = CampaignPlan {
            name: "blocked".into(),
            master_seed: 0x7e57,
            cells: vec![PlanCell::new(
                "synthetic-direct-stack",
                DefenseKind::Smokestack(SchemeKind::Aes10),
                3,
            )],
        };
        let cfg = EngineConfig {
            capture_incidents: true,
            ..EngineConfig::default()
        };
        let sink = SharedJsonlSink::new(Vec::new());
        let result = run_campaign(&plan, &cfg, &HashSet::new(), Some(&sink)).unwrap();
        let blocked = result
            .records
            .iter()
            .filter(|r| matches!(r.kind, OutcomeKind::Detected | OutcomeKind::Crashed))
            .count();
        assert!(blocked > 0, "AES-10 blocks the synthetic attack");
        assert_eq!(result.incidents.len(), blocked);
        for (_, _, inc) in &result.incidents {
            smokestack_telemetry::IncidentReport::validate_json(&inc.to_json())
                .expect("schema-valid incident");
        }
        // The journal carries one incident line per blocked trial, and
        // parse_journal separates them from trial records.
        let bytes = sink.finish().unwrap();
        let text = format!(
            "{}\n{}",
            journal_header(&plan),
            String::from_utf8(bytes).unwrap()
        );
        let journal = crate::record::parse_journal(&text, &plan).unwrap();
        assert_eq!(journal.records.len(), result.records.len());
        assert_eq!(journal.incidents.len(), blocked);
        assert_eq!(journal.skipped, 0);
        // Replaying the campaign re-derives byte-identical incidents.
        let replay = run_campaign(&plan, &cfg, &HashSet::new(), None).unwrap();
        let a: Vec<String> = result
            .incidents
            .iter()
            .map(|(_, _, i)| i.to_json())
            .collect();
        let b: Vec<String> = replay
            .incidents
            .iter()
            .map(|(_, _, i)| i.to_json())
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn rejects_unknown_attacks_before_spawning() {
        let plan = CampaignPlan {
            name: "bad".into(),
            master_seed: 0,
            cells: vec![PlanCell::new("no-such-attack", DefenseKind::None, 1)],
        };
        assert!(run_campaign(&plan, &EngineConfig::default(), &HashSet::new(), None).is_err());
    }

    #[test]
    fn trial_seeds_are_unique_across_the_grid() {
        let mut seen = HashSet::new();
        for cell in 0..32u32 {
            for index in 0..64u32 {
                assert!(seen.insert(trial_seed(42, cell, index)));
            }
        }
    }
}
