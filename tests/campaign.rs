//! End-to-end tests of the Monte-Carlo campaign engine: journal
//! checkpointing across a mid-grid kill, worker-count-independent
//! aggregates, and interval-based matrix checking over real trials.

use std::collections::HashSet;
use std::fs::{File, OpenOptions};
use std::io::Read as _;

use smokestack_repro::campaign::{
    aggregate, check, journal_header, parse_journal, run_campaign, wilson_interval, CampaignPlan,
    EngineConfig, MatrixBound, PlanCell, Z95,
};
use smokestack_repro::defenses::DefenseKind;
use smokestack_repro::srng::SchemeKind;
use smokestack_repro::telemetry::SharedJsonlSink;

/// A plan small enough for a debug-build test but spanning success,
/// detection, and stealthy-abort behavior.
fn test_plan() -> CampaignPlan {
    CampaignPlan {
        name: "kill-resume".into(),
        master_seed: 0xdead_beef,
        cells: vec![
            PlanCell {
                attack: "listing1-dop".into(),
                defense: DefenseKind::None,
                pruned: false,
                trials: 5,
            },
            PlanCell {
                attack: "listing1-dop".into(),
                defense: DefenseKind::Smokestack(SchemeKind::Aes10),
                pruned: false,
                trials: 4,
            },
            PlanCell {
                attack: "synthetic-direct-stack".into(),
                defense: DefenseKind::Canary,
                pruned: false,
                trials: 5,
            },
        ],
    }
}

fn scratch_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "smokestack-campaign-{tag}-{}.jsonl",
        std::process::id()
    ))
}

#[test]
fn killed_campaign_resumes_without_duplicating_or_dropping_trials() {
    let plan = test_plan();
    let path = scratch_path("resume");
    let _ = std::fs::remove_file(&path);

    // Phase 1: run with a mid-grid stop (simulating a kill) while
    // journaling through the shared sink from two workers.
    let sink = SharedJsonlSink::new(File::create(&path).unwrap());
    sink.write_line(&journal_header(&plan));
    let first = run_campaign(
        &plan,
        &EngineConfig {
            jobs: 2,
            stop_after: Some(6),
            ..EngineConfig::default()
        },
        &HashSet::new(),
        Some(&sink),
    )
    .unwrap();
    sink.finish().unwrap();
    assert!(first.stopped_early);
    let done_first = first.records.len();
    assert!(done_first < plan.total_trials() as usize);

    // Phase 2: parse the journal back (as the CLI's --resume does) and
    // finish the grid, appending to the same file.
    let mut text = String::new();
    File::open(&path)
        .unwrap()
        .read_to_string(&mut text)
        .unwrap();
    let journal = parse_journal(&text, &plan).unwrap();
    assert_eq!(journal.records.len(), done_first);
    let done = journal.done();

    let sink = SharedJsonlSink::new(OpenOptions::new().append(true).open(&path).unwrap());
    let second = run_campaign(
        &plan,
        &EngineConfig {
            jobs: 2,
            ..EngineConfig::default()
        },
        &done,
        Some(&sink),
    )
    .unwrap();
    sink.finish().unwrap();
    assert!(!second.stopped_early);

    // The merged journal holds exactly one record per planned trial.
    let mut text = String::new();
    File::open(&path)
        .unwrap()
        .read_to_string(&mut text)
        .unwrap();
    let merged = parse_journal(&text, &plan).unwrap();
    assert_eq!(merged.skipped, 0, "no torn or duplicate lines");
    assert_eq!(merged.records.len(), plan.total_trials() as usize);
    let mut expected = HashSet::new();
    for (ci, cell) in plan.cells.iter().enumerate() {
        for t in 0..cell.trials {
            expected.insert((ci as u32, t));
        }
    }
    assert_eq!(merged.done(), expected);

    // And the resumed run is indistinguishable from an uninterrupted
    // one: positional seeds make every record identical.
    let uninterrupted = run_campaign(&plan, &EngineConfig::default(), &HashSet::new(), None)
        .unwrap()
        .records;
    let mut recovered = merged.records.clone();
    recovered.sort_unstable_by_key(|r| (r.cell, r.index));
    assert_eq!(recovered, uninterrupted);

    let _ = std::fs::remove_file(&path);
}

#[test]
fn aggregates_match_across_jobs_1_and_8() {
    let plan = test_plan();
    let run = |jobs| {
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
        .records
    };
    let serial = run(1);
    let wide = run(8);
    assert_eq!(serial, wide);
    // Aggregate view too: identical rates and intervals per cell.
    let (a, b) = (aggregate(&serial), aggregate(&wide));
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.counts, y.counts);
        assert_eq!(x.ci, y.ci);
    }
}

#[test]
fn threaded_campaign_aggregates_are_jobs_invariant() {
    // The cross-thread attacks run multi-threaded *guest* programs
    // (spawn/join inside the VM). Guest interleavings are derived from
    // per-trial seeds, never from host scheduling, so campaign records
    // and aggregates must stay bit-identical across worker counts.
    let plan = CampaignPlan {
        name: "xthread-jobs".into(),
        master_seed: 0xd00d_feed,
        cells: vec![
            PlanCell {
                attack: "xthread-shared-overflow".into(),
                defense: DefenseKind::None,
                pruned: false,
                trials: 3,
            },
            PlanCell {
                attack: "xthread-shared-overflow".into(),
                defense: DefenseKind::Smokestack(SchemeKind::Aes10),
                pruned: false,
                trials: 2,
            },
            PlanCell {
                attack: "xthread-toctou-race".into(),
                defense: DefenseKind::None,
                pruned: false,
                trials: 3,
            },
            PlanCell {
                attack: "xthread-toctou-race".into(),
                defense: DefenseKind::Smokestack(SchemeKind::Aes10),
                pruned: false,
                trials: 2,
            },
        ],
    };
    let run = |jobs| {
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
        .records
    };
    let serial = run(1);
    let wide = run(6);
    assert_eq!(serial, wide, "threaded trials must not depend on jobs");
    // Both baseline cells fully compromised, positionally seeded.
    let stats = aggregate(&serial);
    for cell in stats.iter().filter(|s| s.defense == "none") {
        assert_eq!(cell.successes(), cell.trials, "{}: {cell:?}", cell.attack);
    }
    let (a, b) = (aggregate(&serial), aggregate(&wide));
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.counts, y.counts);
        assert_eq!(x.ci, y.ci);
    }
}

#[test]
fn interval_checked_matrix_over_real_trials() {
    // A miniature of the pinned matrix v2, on real trials at test-size
    // counts: listing1 compromises the unprotected baseline while
    // AES-10 keeps its success interval below the smoke cap.
    let plan = CampaignPlan {
        name: "mini-matrix".into(),
        master_seed: 0x1234,
        cells: vec![
            PlanCell {
                attack: "listing1-dop".into(),
                defense: DefenseKind::None,
                pruned: false,
                trials: 6,
            },
            PlanCell {
                attack: "listing1-dop".into(),
                defense: DefenseKind::Smokestack(SchemeKind::Aes10),
                pruned: false,
                trials: 6,
            },
        ],
    };
    let result = run_campaign(&plan, &EngineConfig::default(), &HashSet::new(), None).unwrap();
    let stats = aggregate(&result.records);
    let bounds = vec![
        MatrixBound {
            attack: "listing1-dop".into(),
            defense: DefenseKind::None,
            max_success_upper: None,
            min_success_rate: Some(0.99),
        },
        MatrixBound {
            attack: "listing1-dop".into(),
            defense: DefenseKind::Smokestack(SchemeKind::Aes10),
            // 0/6 successes → Wilson 95% upper ≈ 0.39.
            max_success_upper: Some(wilson_interval(0, 6, Z95).1 + 1e-9),
            min_success_rate: None,
        },
    ];
    let violations = check(&stats, &bounds);
    assert!(violations.is_empty(), "{violations:?}");
}

#[test]
fn pruned_cells_carry_their_fleet_label() {
    // A plan-file cell may name a serve fleet's `+prune` variant; its
    // records and aggregated row carry that label, while unpruned rows
    // keep the plain defense label.
    let plan = CampaignPlan::parse(
        "name prune-labels\nseed 0x9\n\
         cell listing1-dop smokestack/AES-10+prune 3\n\
         cell listing1-dop smokestack/AES-10 2\n",
    )
    .unwrap();
    assert!(plan.cells[0].pruned && !plan.cells[1].pruned);
    let result = run_campaign(&plan, &EngineConfig::default(), &HashSet::new(), None).unwrap();
    let labels: Vec<&str> = result.records.iter().map(|r| r.defense.as_str()).collect();
    assert_eq!(
        labels,
        [
            "smokestack/AES-10+prune",
            "smokestack/AES-10+prune",
            "smokestack/AES-10+prune",
            "smokestack/AES-10",
            "smokestack/AES-10",
        ]
    );
    let stats = aggregate(&result.records);
    assert_eq!(stats[0].defense, "smokestack/AES-10+prune");
    assert_eq!(stats[1].defense, "smokestack/AES-10");

    // Unpruned labels, and so the built-in plans' fingerprints, are
    // unchanged by the `+prune` variant.
    for (name, fingerprint) in [
        ("smoke", 0x4ba6_7bf5_7d86_caa1_u64),
        ("matrix", 0x15ce_f0cc_4f62_dad0),
        ("matrix-synth", 0x7263_6eb2_fe7b_c785),
    ] {
        let plan = CampaignPlan::builtin(name).unwrap();
        assert_eq!(plan.fingerprint(), fingerprint, "{name}");
    }
}

#[test]
fn uniformity_and_stats_share_one_recorder() {
    // Both instruments on at once: the layout-uniformity tables and
    // the per-defense latency streams come from the same recorder, so
    // neither flag silences the other.
    let result = run_campaign(
        &CampaignPlan::smoke(),
        &EngineConfig {
            jobs: 2,
            trace_uniformity: true,
            collect_stats: true,
            ..EngineConfig::default()
        },
        &HashSet::new(),
        None,
    )
    .unwrap();
    let m = &result.metrics;
    let tables: Vec<&str> = m
        .freq_tables()
        .map(|(name, _)| name)
        .filter(|name| name.starts_with("pbox_index."))
        .collect();
    assert!(!tables.is_empty(), "no pbox_index.* tables");
    assert!(
        m.freq_tables().all(|(_, t)| t.total() > 0),
        "empty uniformity table"
    );
    let streams: Vec<&str> = m
        .streams()
        .map(|(name, _)| name)
        .filter(|name| name.starts_with("trial_decicycles."))
        .collect();
    assert!(!streams.is_empty(), "no trial_decicycles.* streams");
    let runs: u64 = streams.iter().map(|s| m.stream(s).unwrap().count()).sum();
    assert!(
        runs >= CampaignPlan::smoke().total_trials(),
        "{runs} runs streamed"
    );
}
