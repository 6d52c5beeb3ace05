//! RLPlanner: reinforcement-learning chiplet floorplanning with fast thermal
//! analysis — a Rust reproduction of the DATE 2024 paper.
//!
//! # The unified facade
//!
//! Every run of the paper's comparison matrix — RLPlanner, RLPlanner (RND)
//! and the TAP-2.5D simulated-annealing baseline, each over either thermal
//! backend — plus analytic gradient descent and pretrained inference goes
//! through one API:
//!
//! * [`FloorplanRequest`] describes the run as data: the system, the
//!   [`Method`], the [`rlp_thermal::ThermalBackend`], the reward weights,
//!   an optional [`Budget`] and seed. The builder validates everything and
//!   returns a typed [`ConfigError`] instead of panicking.
//! * [`FloorplanRequest::solve`] executes it through one pipeline
//!   ([`facade`]) that does the shared work once and `match`es on the
//!   method only to pick the engine.
//!   [`FloorplanRequest::solve_observed`] additionally reports every
//!   candidate to an [`rlp_obs::OnCandidate`] progress callback.
//! * [`FloorplanOutcome`] is the common result: best placement, reward
//!   breakdown, per-candidate [`telemetry`](FloorplanOutcome::telemetry),
//!   runtime and a [`RunManifest`] that reproduces the run
//!   ([`FloorplanRequest::from_manifest`]).
//! * [`report`] renders placements and whole outcomes as JSON documents
//!   with a documented, stable schema.
//!
//! # Example
//!
//! Solving a two-chiplet system with a tiny training budget (the paper
//! trains for 600 episodes; this runs in seconds):
//!
//! ```
//! use rlp_chiplet::{Chiplet, ChipletSystem, Net};
//! use rlp_thermal::{ThermalBackend, ThermalConfig};
//! use rlplanner::{Budget, FloorplanRequest, Method};
//!
//! let mut system = ChipletSystem::new("demo", 30.0, 30.0);
//! let a = system.add_chiplet(Chiplet::new("a", 8.0, 8.0, 25.0));
//! let b = system.add_chiplet(Chiplet::new("b", 6.0, 6.0, 10.0));
//! system.add_net(Net::new(a, b, 64));
//!
//! let request = FloorplanRequest::builder()
//!     .system(system)
//!     .method(Method::sa())
//!     .thermal(ThermalBackend::Grid {
//!         config: ThermalConfig::with_grid(8, 8),
//!     })
//!     .budget(Budget::Evaluations(20))
//!     .seed(7)
//!     .build()
//!     .expect("valid request");
//! let outcome = request.solve().expect("solvable system");
//! assert!(outcome.placement.is_complete());
//! assert_eq!(outcome.manifest.seed, 7);
//! println!("best reward {:.3}", outcome.breakdown.reward);
//! ```
//!
//! Swapping `.method(Method::rl_rnd())` (and, say,
//! `ThermalBackend::fast()`) re-runs the same request through PPO with the
//! RND bonus and the fast LTI thermal model — no other code changes.
//!
//! # Underneath the facade
//!
//! The facade assembles the substrates of this workspace into the paper's
//! tool (Fig. 1 of the paper):
//!
//! * [`RewardCalculator`] — the thermal-aware reward
//!   `R = −λ·W − µ·(max(T−T₀, 0))^α / (1 + e^−(T−T₀))` evaluated after
//!   microbump assignment, with either thermal backend plugged in through
//!   [`rlp_thermal::ThermalAnalyzer`].
//! * [`FloorplanEnv`] — the chiplet floorplanning environment: chiplets are
//!   placed sequentially on a grid, the state tensor carries occupancy,
//!   power and feasibility channels, and infeasible cells are masked out of
//!   the action distribution.
//! * [`agent`] — builders for the CNN policy/value network and the RND
//!   exploration module sized for a given environment.
//! * [`RlPlanner`] — the PPO training loop (with optional RND bonus) that
//!   produces the best floorplan found during training.
//! * [`GradientDescent`] — the analytic-gradient placement engine.
//! * [`rlp_sa::SaPlanner`] — the simulated-annealing baseline (TAP-2.5D),
//!   run on the same reward.
//!
//! Each optimiser has exactly one entry point taking an optional warm
//! start, its objective where it needs one, and the progress callback.

pub mod agent;
mod codec;
pub mod env;
pub mod facade;
pub mod gradient;
pub mod minijson;
pub mod outcome;
pub mod parse;
pub mod planner;
pub mod report;
pub mod request;
pub mod reward;

pub use agent::AgentConfig;
pub use env::{EnvConfig, FloorplanEnv};
pub use facade::PlanError;
pub use gradient::{GradientConfig, GradientDescent, GradientResult, GradientStalled};
pub use outcome::{
    EvalTelemetry, FloorplanOutcome, RunManifest, TelemetrySample, TrainingTelemetry,
};
pub use parse::{
    outcome_from_json, outcome_from_value, request_from_json, request_from_value, OutcomeParseError,
};
pub use planner::{RlPlanner, RlPlannerConfig, TrainingResult, TrainingStalled};
pub use request::{
    Budget, FloorplanRequest, FloorplanRequestBuilder, Method, PrebuiltThermal, PreloadedPolicy,
    PretrainedConfig,
};
pub use reward::{DeltaRewardObjective, RewardBreakdown, RewardCalculator, RewardConfig};

// Re-exported so facade users can match on configuration errors without
// depending on `rlp_rl` directly.
pub use rlp_rl::ConfigError;

// Re-exported so pretrained-policy users can load, inspect and match on
// policy files/errors without depending on `rlp_nn` directly.
pub use rlp_nn::{PolicyError, PolicyFile, POLICY_SCHEMA};

// Re-exported so reward/outcome telemetry types can be named without
// depending on `rlp_sa` directly.
pub use rlp_sa::{EvalCounts, EvalMode};

// Re-exported so facade users can share characterisations across requests
// and read outcome telemetry without depending on `rlp_thermal` directly.
pub use rlp_thermal::{ThermalCacheSnapshot, ThermalCacheStats, ThermalModelCache, ThermalPrep};
