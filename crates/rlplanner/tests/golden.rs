//! Golden documents for the schemas `rlplanner` renders: `outcome/v1` for
//! every method kind, `request/v1` for every budget kind, and the
//! placement document. Each render is compared byte for byte with a
//! checked-in file under `tests/golden/`, so any change to layout,
//! escaping or number spelling fails here first.
//!
//! The inputs are built by hand with fixed durations, never timed solves,
//! so the documents are deterministic.

use rlp_chiplet::{Chiplet, ChipletSystem, Net, Placement, Position, Rotation};
use rlp_sa::SaConfig;
use rlp_thermal::{ThermalBackend, ThermalConfig, ThermalPrep};
use rlplanner::report::{outcome_json, placement_json, request_json};
use rlplanner::{
    outcome_from_json, request_from_json, Budget, EvalCounts, EvalMode, EvalTelemetry,
    FloorplanOutcome, FloorplanRequest, GradientConfig, Method, PretrainedConfig, RewardBreakdown,
    RewardConfig, RunManifest, TelemetrySample, TrainingTelemetry,
};
use std::time::Duration;

/// Asserts that `actual` plus a trailing newline is exactly the golden
/// file `tests/golden/<name>`.
fn golden(name: &str, actual: &str) {
    let path = format!("{}/../../tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    assert_eq!(format!("{actual}\n"), expected, "{name} drifted");
}

/// Three chiplets, two nets, and names full of characters JSON escapes:
/// quotes, backslashes, newlines, tabs, C0 and C1 control characters.
fn system() -> ChipletSystem {
    let mut sys = ChipletSystem::new("golden \"sys\"\\\n\u{85}", 33.5, 30.25);
    let cpu = sys.add_chiplet(Chiplet::new("cpu", 8.125, 8.0, 25.5));
    let gpu = sys.add_chiplet(Chiplet::new("gpu\t\"x\"", 6.0, 6.75, 10.0));
    let hbm = sys.add_chiplet(Chiplet::new("hbm\u{1}\u{7f}", 4.0, 5.0, 0.0));
    sys.add_net(Net::new(cpu, gpu, 64));
    sys.add_net(Net::new(gpu, hbm, 1));
    sys
}

fn placement(sys: &ChipletSystem) -> Placement {
    let ids: Vec<_> = sys.chiplet_ids().collect();
    let mut placement = Placement::for_system(sys);
    placement.place(ids[0], Position::new(2.25, 3.5));
    placement.place_rotated(ids[1], Position::new(14.0, 9.75), Rotation::Quarter);
    placement.place(ids[2], Position::new(1.0 / 3.0, 20.123456789));
    placement
}

fn outcome(sys: &ChipletSystem, method: Method, thermal: ThermalBackend) -> FloorplanOutcome {
    FloorplanOutcome {
        placement: placement(sys),
        breakdown: RewardBreakdown {
            reward: -1.5,
            wirelength_mm: 120.0,
            max_temperature_c: 63.25,
            eval_mode: EvalMode::Incremental,
        },
        telemetry: vec![
            TelemetrySample {
                index: 0,
                reward: -2.5,
                best_reward: -2.5,
            },
            TelemetrySample {
                index: 1,
                reward: -1.5,
                best_reward: -1.5,
            },
        ],
        evaluations: 2,
        evaluation: EvalTelemetry {
            mode: EvalMode::Incremental,
            counts: EvalCounts {
                full: 1,
                incremental: 1,
            },
        },
        training: None,
        runtime: Duration::from_millis(250),
        thermal_prep: ThermalPrep {
            cache_hits: 1,
            cache_misses: 0,
            characterization: Duration::from_micros(1_250),
        },
        manifest: RunManifest {
            system_name: sys.name().to_string(),
            chiplet_count: sys.chiplet_count(),
            method,
            thermal,
            reward: RewardConfig::default(),
            seed: 7,
            warm_start: false,
        },
    }
}

fn training() -> Option<TrainingTelemetry> {
    Some(TrainingTelemetry {
        episodes: 33,
        parallel_envs: 2,
        episodes_per_s: 16.5,
        merge_order_hash: 0x0123_4567_89ab_cdef,
    })
}

/// The golden outcome documents, by file name.
fn outcomes(sys: &ChipletSystem) -> Vec<(&'static str, FloorplanOutcome)> {
    let mut rl = outcome(sys, Method::rl(), ThermalBackend::fast());
    rl.training = training();

    // Non-finite numbers everywhere a float can be.
    let mut rl_rnd = outcome(sys, Method::rl_rnd(), ThermalBackend::grid());
    rl_rnd.training = training().map(|t| TrainingTelemetry {
        episodes_per_s: f64::NAN,
        ..t
    });
    rl_rnd.breakdown.reward = f64::NEG_INFINITY;
    rl_rnd.breakdown.wirelength_mm = f64::NAN;
    rl_rnd.breakdown.max_temperature_c = f64::INFINITY;
    rl_rnd.telemetry[1].reward = f64::INFINITY;
    rl_rnd.telemetry[1].best_reward = f64::NEG_INFINITY;

    let sa = outcome(
        sys,
        Method::Sa {
            config: SaConfig {
                max_evaluations: Some(40),
                time_budget: Some(Duration::from_secs_f64(1.5)),
                ..SaConfig::default()
            },
        },
        ThermalBackend::Grid {
            config: ThermalConfig::with_grid(12, 10),
        },
    );

    let mut gradient = outcome(
        sys,
        Method::Gradient {
            config: GradientConfig {
                iterations: 80,
                max_evaluations: Some(60),
                ..GradientConfig::default()
            },
        },
        ThermalBackend::fast(),
    );
    gradient.manifest.warm_start = true;
    gradient.breakdown.eval_mode = EvalMode::Full;
    gradient.evaluation.mode = EvalMode::Full;

    // Empty telemetry and placement; the largest seed a double holds exactly.
    let mut pretrained = outcome(
        sys,
        Method::Pretrained {
            config: PretrainedConfig {
                policy_path: "weights/\"gen\".policy".to_string(),
                checksum: Some(0x00ab_cdef_0123_4567),
                seed: (1 << 53) - 1,
            },
        },
        ThermalBackend::fast(),
    );
    pretrained.placement = Placement::for_system(sys);
    pretrained.telemetry.clear();
    pretrained.evaluations = 1;
    pretrained.manifest.seed = (1 << 53) - 1;

    vec![
        ("outcome_rl_fast.json", rl),
        ("outcome_rl_rnd_grid_nonfinite.json", rl_rnd),
        ("outcome_sa_grid.json", sa),
        ("outcome_gradient_fast.json", gradient),
        ("outcome_pretrained_empty.json", pretrained),
    ]
}

/// The golden request documents, by file name.
fn requests() -> Vec<(&'static str, FloorplanRequest)> {
    let builder = || FloorplanRequest::builder().system(system());
    vec![
        (
            "request_sa_grid_evaluations.json",
            builder()
                .method(Method::sa())
                .thermal(ThermalBackend::grid())
                .budget(Budget::Evaluations(40))
                .seed(11)
                .build()
                .unwrap(),
        ),
        (
            "request_rl_fast_time_limit.json",
            builder()
                .method(Method::rl())
                .budget(Budget::TimeLimit(Duration::from_millis(1250)))
                .parallel_envs(4)
                .warm_start(true)
                .build()
                .unwrap(),
        ),
        (
            "request_pretrained_null_overrides.json",
            builder()
                .method(Method::pretrained("gen.policy"))
                .build()
                .unwrap(),
        ),
        (
            "request_gradient_fast.json",
            builder()
                .method(Method::gradient())
                .budget(Budget::Evaluations(60))
                .build()
                .unwrap(),
        ),
    ]
}

#[test]
fn outcome_documents_match_their_golden_files() {
    let sys = system();
    for (name, outcome) in outcomes(&sys) {
        golden(name, &outcome_json(&sys, &outcome));
    }
}

#[test]
fn request_documents_match_their_golden_files() {
    for (name, request) in requests() {
        golden(name, &request_json(&request));
    }
}

#[test]
fn placement_documents_match_their_golden_files() {
    let sys = system();
    golden("placement.json", &placement_json(&sys, &placement(&sys)));
    golden(
        "placement_empty.json",
        &placement_json(&sys, &Placement::for_system(&sys)),
    );
}

#[test]
fn golden_documents_parse_and_re_render_byte_for_byte() {
    let sys = system();
    for (name, outcome) in outcomes(&sys) {
        let json = outcome_json(&sys, &outcome);
        let parsed = outcome_from_json(&json, &sys).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(outcome_json(&sys, &parsed), json, "{name}");
    }
    for (name, request) in requests() {
        let json = request_json(&request);
        let parsed = request_from_json(&json).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(request_json(&parsed), json, "{name}");
    }
}
