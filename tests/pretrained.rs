//! Integration tests for the train-once/serve-forever flow: an RL solve
//! saves its policy as a `rlplanner.policy/v1` file, and a
//! `Method::Pretrained` request replays it as a single inference-only
//! greedy rollout — no optimiser, no training telemetry, bit-identical
//! across repeats. Hostile policy files (truncated, corrupted, foreign,
//! shape-mismatched) surface as typed `PlanError::Policy` values, never
//! panics.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use rlp_benchmarks::{multi_gpu_system, synthetic_case};
use rlp_thermal::{CharacterizationOptions, ThermalBackend, ThermalConfig};
use rlplanner::{
    AgentConfig, Budget, FloorplanRequest, Method, PlanError, PolicyError, PolicyFile,
    PreloadedPolicy, PretrainedConfig, RlPlannerConfig,
};

fn tiny_fast_backend() -> ThermalBackend {
    ThermalBackend::Fast {
        config: ThermalConfig::with_grid(12, 12),
        characterization: CharacterizationOptions {
            footprint_samples_mm: vec![4.0, 10.0],
            distance_bins: 8,
            ..CharacterizationOptions::default()
        },
    }
}

fn tiny_rl_method() -> Method {
    Method::Rl {
        config: RlPlannerConfig {
            episodes_per_update: 2,
            agent: AgentConfig {
                conv_channels: (2, 4),
                feature_dim: 16,
                rnd_hidden_dim: 16,
                rnd_embedding_dim: 4,
                ..AgentConfig::default()
            },
            ..RlPlannerConfig::default()
        },
    }
}

fn scratch_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "rlp-pretrained-{}-{name}.policy",
        std::process::id()
    ))
}

/// Trains a tiny RL run on `synthetic_case(1)` and saves its policy.
fn train_and_save(path: &Path) {
    let outcome = FloorplanRequest::builder()
        .system(synthetic_case(1))
        .method(tiny_rl_method())
        .thermal(tiny_fast_backend())
        .budget(Budget::Evaluations(2))
        .seed(5)
        .save_policy(path.display().to_string())
        .build()
        .unwrap()
        .solve()
        .unwrap();
    assert!(outcome.training.is_some(), "the training run still trains");
    assert!(path.exists(), "save_policy writes the file");
}

fn pretrained_request(system: rlp_chiplet::ChipletSystem, path: &Path) -> FloorplanRequest {
    FloorplanRequest::builder()
        .system(system)
        .method(Method::pretrained(path.display().to_string()))
        .thermal(tiny_fast_backend())
        .build()
        .unwrap()
}

#[test]
fn saved_policy_solves_inference_only_and_deterministically() {
    let path = scratch_path("roundtrip");
    train_and_save(&path);

    let request = pretrained_request(synthetic_case(1), &path);
    let first = request.solve().expect("pretrained solve");

    // Inference only: exactly one greedy rollout, no training telemetry.
    assert!(first.training.is_none(), "pretrained must not train");
    assert_eq!(first.evaluations, 1);
    assert_eq!(first.telemetry.len(), 1);
    assert!(first.placement.is_complete());
    assert!(first.breakdown.reward.is_finite());
    assert_eq!(first.manifest.method.label(), "pretrained");

    // The manifest records the checksum that actually ran.
    let Method::Pretrained { config } = &first.manifest.method else {
        panic!("manifest must carry the pretrained method");
    };
    let file = PolicyFile::load(&path).unwrap();
    assert_eq!(config.checksum, Some(file.checksum()));

    // Greedy argmax draws no randomness: repeats are bit-identical.
    let second = request.solve().unwrap();
    assert_eq!(second.placement, first.placement);
    assert_eq!(second.breakdown, first.breakdown);
    assert_eq!(second.telemetry, first.telemetry);

    // A manifest replay (checksum now pinned) reproduces the run too.
    let replay = FloorplanRequest::from_manifest(synthetic_case(1), &first.manifest)
        .unwrap()
        .solve()
        .unwrap();
    assert_eq!(replay.placement, first.placement);
    assert_eq!(replay.breakdown, first.breakdown);

    std::fs::remove_file(&path).ok();
}

#[test]
fn one_policy_generalises_to_a_different_system() {
    // The policy is tied to the placement grid, not the system: a network
    // trained on a synthetic case places a held-out standard benchmark.
    let path = scratch_path("generalise");
    train_and_save(&path);

    let outcome = pretrained_request(multi_gpu_system(), &path)
        .solve()
        .expect("pretrained solve on a held-out system");
    assert!(outcome.placement.is_complete());
    assert!(outcome.training.is_none());
    assert_eq!(outcome.manifest.system_name, "multi-gpu");

    std::fs::remove_file(&path).ok();
}

#[test]
fn checksum_pins_are_enforced() {
    let path = scratch_path("pin");
    train_and_save(&path);
    let good = PolicyFile::load(&path).unwrap().checksum();

    let solve_pinned = |checksum: u64| {
        FloorplanRequest::builder()
            .system(synthetic_case(1))
            .method(Method::Pretrained {
                config: PretrainedConfig {
                    policy_path: path.display().to_string(),
                    checksum: Some(checksum),
                    seed: 0,
                },
            })
            .thermal(tiny_fast_backend())
            .build()
            .unwrap()
            .solve()
    };

    // The correct pin solves; a wrong pin is a typed checksum error.
    assert!(solve_pinned(good).is_ok());
    let err = solve_pinned(good ^ 1).unwrap_err();
    assert!(
        matches!(
            err,
            PlanError::Policy {
                error: PolicyError::ChecksumMismatch { .. },
                ..
            }
        ),
        "{err}"
    );
    // The error names the file so daemon logs are actionable.
    assert!(err.to_string().contains("pin.policy"), "{err}");

    std::fs::remove_file(&path).ok();
}

#[test]
fn hostile_policy_files_are_typed_errors_not_panics() {
    let path = scratch_path("hostile");
    train_and_save(&path);
    let bytes = std::fs::read(&path).unwrap();

    let solve_file = |name: &str, contents: &[u8]| {
        let bad = scratch_path(name);
        std::fs::write(&bad, contents).unwrap();
        let result = pretrained_request(synthetic_case(1), &bad).solve();
        std::fs::remove_file(&bad).ok();
        result.unwrap_err()
    };

    // A missing file is an I/O error naming the path.
    let missing = scratch_path("does-not-exist");
    let err = pretrained_request(synthetic_case(1), &missing)
        .solve()
        .unwrap_err();
    assert!(
        matches!(
            &err,
            PlanError::Policy {
                error: PolicyError::Io(_),
                ..
            }
        ),
        "{err}"
    );

    // A truncated file is `Truncated`, a flipped payload byte is
    // `ChecksumMismatch`, and a foreign file is `BadMagic`.
    let err = solve_file("truncated", &bytes[..bytes.len() / 2]);
    assert!(
        matches!(
            &err,
            PlanError::Policy {
                error: PolicyError::Truncated,
                ..
            }
        ),
        "{err}"
    );

    let mut flipped = bytes.clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x40;
    let err = solve_file("flipped", &flipped);
    assert!(
        matches!(
            &err,
            PlanError::Policy {
                error: PolicyError::ChecksumMismatch { .. },
                ..
            }
        ),
        "{err}"
    );

    let err = solve_file("magic", b"PNG\x89 definitely not a policy file");
    assert!(
        matches!(
            &err,
            PlanError::Policy {
                error: PolicyError::BadMagic,
                ..
            }
        ),
        "{err}"
    );

    // A structurally valid file whose tensors do not match the network the
    // metadata describes is a shape error, not a panic.
    let file = PolicyFile::load(&path).unwrap();
    let mut tensors = file.tensors().to_vec();
    tensors.pop();
    let bad = scratch_path("shapes");
    PolicyFile::new(file.metadata().to_vec(), tensors)
        .save(&bad)
        .unwrap();
    let err = pretrained_request(synthetic_case(1), &bad)
        .solve()
        .unwrap_err();
    std::fs::remove_file(&bad).ok();
    assert!(
        matches!(
            &err,
            PlanError::Policy {
                error: PolicyError::TensorCountMismatch { .. },
                ..
            }
        ),
        "{err}"
    );

    // A checksum-valid file with a non-finite parameter is a typed error,
    // not a panic in the action distribution.
    for (tensor, value) in [(4, f32::INFINITY), (0, f32::NAN), (7, f32::NAN)] {
        let mut tensors = file.tensors().to_vec();
        tensors[tensor].data_mut()[0] = value;
        let bad = scratch_path("non-finite");
        PolicyFile::new(file.metadata().to_vec(), tensors)
            .save(&bad)
            .unwrap();
        let err = pretrained_request(synthetic_case(1), &bad)
            .solve()
            .unwrap_err();
        std::fs::remove_file(&bad).ok();
        assert!(
            matches!(
                &err,
                PlanError::Policy {
                    error: PolicyError::NonFinite { tensor: t, element: 0 },
                    ..
                } if *t == tensor
            ),
            "{err}"
        );
    }

    std::fs::remove_file(&path).ok();
}

#[test]
fn preloaded_policy_skips_the_disk_read() {
    let path = scratch_path("preload");
    train_and_save(&path);

    let from_disk = pretrained_request(synthetic_case(1), &path)
        .solve()
        .unwrap();

    // Parse once, delete the file, and solve from the preloaded handle —
    // the daemon's load-at-startup path.
    let file = Arc::new(PolicyFile::load(&path).unwrap());
    std::fs::remove_file(&path).unwrap();
    let preloaded = FloorplanRequest::builder()
        .system(synthetic_case(1))
        .method(Method::pretrained(path.display().to_string()))
        .thermal(tiny_fast_backend())
        .preloaded_policy(PreloadedPolicy::new(path.display().to_string(), file))
        .build()
        .unwrap()
        .solve()
        .expect("preloaded solve needs no disk");

    assert_eq!(preloaded.placement, from_disk.placement);
    assert_eq!(preloaded.breakdown, from_disk.breakdown);
}

/// Checksum of the policy that `rlplanner_cli case1 rl 4 --save-policy`
/// trained before the NN kernels were reordered (seed 0, the default
/// agent, one PPO update over 4 episodes, on any number of rollout
/// workers). Training must stay bit-identical.
const CASE1_RL4_CHECKSUM: u64 = 0x6ae1_4842_f09d_f5c5;

/// The default CLI's thermal backend.
fn cli_fast_backend() -> ThermalBackend {
    ThermalBackend::Fast {
        config: ThermalConfig::with_grid(32, 32),
        characterization: CharacterizationOptions::default(),
    }
}

#[test]
fn training_and_inference_reproduce_the_pinned_policy_and_outcome() {
    let path = scratch_path("pinned");
    FloorplanRequest::builder()
        .system(synthetic_case(1))
        .method(Method::rl())
        .thermal(cli_fast_backend())
        .budget(Budget::Evaluations(4))
        .parallel_envs(2)
        .save_policy(path.display().to_string())
        .build()
        .unwrap()
        .solve()
        .unwrap();
    let checksum = PolicyFile::load(&path).unwrap().checksum();
    assert_eq!(
        checksum, CASE1_RL4_CHECKSUM,
        "trained policy checksum {checksum:#018x}"
    );

    let outcome = FloorplanRequest::builder()
        .system(synthetic_case(1))
        .method(Method::pretrained(path.display().to_string()))
        .thermal(cli_fast_backend())
        .build()
        .unwrap()
        .solve()
        .unwrap();
    std::fs::remove_file(&path).ok();
    // Wall-clock lines and the scratch path aside, the document is pinned
    // to the byte.
    let document = rlplanner::report::outcome_json(&synthetic_case(1), &outcome);
    let document: Vec<&str> = document
        .lines()
        .filter(|line| {
            !["\"runtime_s\"", "\"thermal_prep\"", "\"policy_path\""]
                .iter()
                .any(|key| line.contains(key))
        })
        .collect();
    let expected: Vec<&str> = include_str!("data/pretrained_case1.outcome.json")
        .lines()
        .collect();
    assert_eq!(document, expected);
}
