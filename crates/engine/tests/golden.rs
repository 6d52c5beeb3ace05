//! Golden documents for the schemas `rlp-engine` renders: `campaign/v1`
//! and the `campaign-run/v1` stream lines. Each render is compared byte for
//! byte with a checked-in file under `tests/golden/`.
//!
//! The reports are built by hand with fixed durations, never timed solves,
//! so the documents are deterministic. One more file,
//! `campaign_run_resumable.jsonl`, is a stream line written by a solve, not
//! rendered here: a stream on disk must stay resumable by every later
//! release of the same schema.

use rlp_chiplet::{Chiplet, ChipletSystem, Net, Placement, Position, Rotation};
use rlp_engine::{
    campaign_json, CampaignEngine, CampaignMethod, CampaignReport, CampaignSpec, CellSummary,
    DrainEvent, MemorySink, RunEvent, RunFailure, RunRecord, SchedulerTelemetry, WorkerTelemetry,
};
use rlp_obs::json::Value;
use rlp_thermal::{ThermalBackend, ThermalCacheStats, ThermalConfig, ThermalPrep};
use rlplanner::report::outcome_json;
use rlplanner::{
    Budget, EvalCounts, EvalMode, EvalTelemetry, FloorplanOutcome, Method, PlanError,
    RewardBreakdown, RewardConfig, RunManifest, TelemetrySample, TrainingTelemetry,
};
use std::time::Duration;

/// Asserts that `actual` plus a trailing newline is exactly the golden
/// file `tests/golden/<name>`.
fn golden(name: &str, actual: &str) {
    let expected =
        std::fs::read_to_string(golden_path(name)).unwrap_or_else(|e| panic!("{name}: {e}"));
    assert_eq!(format!("{actual}\n"), expected, "{name} drifted");
}

fn golden_path(name: &str) -> String {
    format!("{}/../../tests/golden/{name}", env!("CARGO_MANIFEST_DIR"))
}

fn system() -> ChipletSystem {
    let mut sys = ChipletSystem::new("golden-campaign", 24.0, 24.0);
    let a = sys.add_chiplet(Chiplet::new("a", 6.0, 6.0, 20.0));
    let b = sys.add_chiplet(Chiplet::new("b \"two\"", 5.0, 5.0, 10.0));
    sys.add_net(Net::new(a, b, 32));
    sys
}

fn outcome(sys: &ChipletSystem, method: Method, seed: u64, reward: f64) -> FloorplanOutcome {
    let ids: Vec<_> = sys.chiplet_ids().collect();
    let mut placement = Placement::for_system(sys);
    placement.place(ids[0], Position::new(4.0, 16.0));
    placement.place_rotated(ids[1], Position::new(12.5, 2.0 / 3.0), Rotation::Quarter);
    FloorplanOutcome {
        placement,
        breakdown: RewardBreakdown {
            reward,
            wirelength_mm: 96.0,
            max_temperature_c: 61.125,
            eval_mode: EvalMode::Full,
        },
        telemetry: vec![TelemetrySample {
            index: 0,
            reward,
            best_reward: reward,
        }],
        evaluations: 1,
        evaluation: EvalTelemetry {
            mode: EvalMode::Full,
            counts: EvalCounts {
                full: 1,
                incremental: 0,
            },
        },
        training: None,
        runtime: Duration::from_millis(40),
        thermal_prep: ThermalPrep {
            cache_hits: 0,
            cache_misses: 1,
            characterization: Duration::from_micros(2_500),
        },
        manifest: RunManifest {
            system_name: sys.name().to_string(),
            chiplet_count: sys.chiplet_count(),
            method,
            thermal: ThermalBackend::Grid {
                config: ThermalConfig::with_grid(8, 8),
            },
            reward: RewardConfig::default(),
            seed,
            budget: None,
            warm_start: false,
        },
    }
}

fn run(index: usize, method: &str, seed: u64, outcome: FloorplanOutcome) -> RunRecord {
    RunRecord {
        index,
        system: "golden-campaign".to_string(),
        system_index: 0,
        method: method.to_string(),
        seed,
        outcome,
    }
}

/// Three completed runs (one with a seed above 2^53), one failure, an SA
/// cell without rollout throughput and an RL cell with it.
fn report() -> CampaignReport {
    let sys = system();
    let mut rl = outcome(&sys, Method::rl(), 1, -1.25);
    rl.training = Some(TrainingTelemetry {
        episodes: 4,
        parallel_envs: 2,
        episodes_per_s: 12.5,
    });
    let big_seed = (1u64 << 53) + 1;
    let runs = vec![
        run(0, "sa", 1, outcome(&sys, Method::sa(), 1, -2.0)),
        run(
            1,
            "sa",
            big_seed,
            outcome(&sys, Method::sa(), big_seed, -1.5),
        ),
        run(2, "rl", 1, rl),
    ];
    let cells = vec![
        CellSummary {
            system: "golden-campaign".to_string(),
            system_index: 0,
            method: "sa".to_string(),
            seeds: vec![1, big_seed],
            best_run: 1,
            mean_reward: -1.75,
            min_reward: -2.0,
            max_reward: -1.5,
            total_runtime: Duration::from_millis(80),
            eval_counts: EvalCounts {
                full: 2,
                incremental: 0,
            },
            mean_eval_time: Duration::from_millis(40),
            episodes_per_s: None,
        },
        CellSummary {
            system: "golden-campaign".to_string(),
            system_index: 0,
            method: "rl".to_string(),
            seeds: vec![1, 2],
            best_run: 2,
            mean_reward: -1.25,
            min_reward: -1.25,
            max_reward: -1.25,
            total_runtime: Duration::from_millis(40),
            eval_counts: EvalCounts {
                full: 1,
                incremental: 0,
            },
            mean_eval_time: Duration::from_millis(40),
            episodes_per_s: Some(100.0),
        },
    ];
    CampaignReport {
        systems: vec![sys],
        runs,
        failures: vec![RunFailure {
            index: 3,
            system: "golden-campaign".to_string(),
            system_index: 0,
            method: "rl".to_string(),
            seed: 2,
            error: PlanError::Incomplete,
        }],
        cells,
        wall_clock: Duration::from_micros(123_456),
        parallelism: 2,
        resumed_runs: 1,
        scheduler: SchedulerTelemetry {
            workers: vec![
                WorkerTelemetry {
                    busy: Duration::from_millis(80),
                    runs: 2,
                },
                WorkerTelemetry {
                    busy: Duration::from_millis(45),
                    runs: 1,
                },
            ],
            drain: vec![
                DrainEvent {
                    index: 0,
                    worker: 0,
                    started: Duration::from_micros(100),
                    finished: Duration::from_micros(40_100),
                },
                DrainEvent {
                    index: 2,
                    worker: 1,
                    started: Duration::from_micros(150),
                    finished: Duration::from_micros(45_150),
                },
            ],
        },
        cache: ThermalCacheStats {
            hits: 2,
            misses: 1,
            characterization_time: Duration::from_micros(2_500),
        },
    }
}

#[test]
fn campaign_document_matches_its_golden_file() {
    golden("campaign.json", &campaign_json(&report()));
}

#[test]
fn campaign_document_without_runs_matches_its_golden_file() {
    let mut empty = report();
    empty.runs.clear();
    empty.cells.clear();
    empty.failures.clear();
    empty.scheduler = SchedulerTelemetry::default();
    golden("campaign_empty.json", &campaign_json(&empty));
}

#[test]
fn stream_lines_match_their_golden_file() {
    let report = report();
    let system = &report.systems[0];
    let mut lines: Vec<String> = report
        .runs
        .iter()
        .map(|run| RunEvent::Completed { run, system }.to_jsonl())
        .collect();
    lines.push(
        RunEvent::Failed {
            failure: &report.failures[0],
        }
        .to_jsonl(),
    );
    golden("campaign_run.jsonl", &lines.join("\n"));
}

/// The spec `campaign_run_resumable.jsonl` was streamed from.
fn resumable_spec() -> CampaignSpec {
    CampaignSpec::builder()
        .system(system())
        .method(CampaignMethod::new(
            "sa",
            Method::sa(),
            ThermalBackend::Grid {
                config: ThermalConfig::with_grid(8, 8),
            },
        ))
        .seeds([5, 6])
        .budget(Budget::Evaluations(6))
        .parallelism(1)
        .build()
        .expect("valid spec")
}

#[test]
fn a_stream_line_from_an_earlier_release_still_resumes() {
    let text = std::fs::read_to_string(golden_path("campaign_run_resumable.jsonl")).unwrap();
    let line = text.trim_end().to_string();
    let mut sink = MemorySink::with_prior(vec![line.clone()]);
    let report = CampaignEngine::new()
        .run_streamed(&resumable_spec(), &mut sink)
        .expect("the earlier stream resumes");
    assert_eq!(report.resumed_runs, 1);
    assert_eq!(sink.lines().len(), 1, "only the missing run executes");
    // The resumed outcome is the recorded one: re-rendering it gives the
    // embedded document back, number for number.
    let resumed = report.runs.iter().find(|r| r.index == 0).unwrap();
    let recorded = Value::parse(&line).unwrap();
    let rerendered = Value::parse(&outcome_json(&report.systems[0], &resumed.outcome)).unwrap();
    assert_eq!(recorded.get("outcome"), Some(&rerendered));
}
