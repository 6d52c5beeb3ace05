//! The unified floorplanning request.
//!
//! A [`FloorplanRequest`] describes one run of the paper's comparison matrix
//! as plain data: *which system* to floorplan, *which method* to use
//! ([`Method`]), *which thermal backend* to put in the loop
//! ([`rlp_thermal::ThermalBackend`]), the reward weights, an optional
//! [`Budget`], an optional seed and an optional rollout parallelism
//! (`parallel_envs`). The request is the only home of a run's budget, seed
//! and parallelism: no method configuration carries any of them. Requests
//! are built through
//! [`FloorplanRequest::builder`], which validates every nested
//! configuration and returns a typed [`ConfigError`] instead of panicking,
//! and solved through [`FloorplanRequest::solve`] (or
//! [`FloorplanRequest::solve_observed`] to watch progress); see
//! [`crate::facade`] for the pipeline.
//!
//! Batch drivers that solve many requests against the same package
//! configuration can attach a [`PrebuiltThermal`] analyzer (served from a
//! shared [`rlp_thermal::ThermalModelCache`]) so the expensive fast-model
//! characterisation runs once instead of once per solve; the outcome
//! manifest still records the plain-data backend description, so replay
//! needs no cache.

use crate::gradient::GradientConfig;
use crate::outcome::RunManifest;
use crate::planner::RlPlannerConfig;
use crate::reward::RewardConfig;
use rlp_chiplet::ChipletSystem;
use rlp_nn::PolicyFile;
use rlp_rl::ConfigError;
use rlp_sa::{SaConfig, SaConfigError};
use rlp_thermal::{AnyThermalAnalyzer, ThermalBackend, ThermalError, ThermalPrep};
use std::sync::Arc;
use std::time::Duration;

/// Configuration of an inference-only solve from a saved policy — the
/// "train once, serve forever" path. The policy file is a
/// `rlplanner.policy/v1` document (see [`rlp_nn::policy`]) typically
/// produced by [`FloorplanRequestBuilder::save_policy`] or the CLI's
/// `train-generalist` mode.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PretrainedConfig {
    /// Path of the `rlplanner.policy/v1` file holding the trained weights.
    /// Read at solve time unless the request carries a matching
    /// [`PreloadedPolicy`].
    pub policy_path: String,
    /// Expected checksum of the policy file. `None` accepts any file at
    /// `policy_path`; `Some` makes the solve fail with a typed error when
    /// the file's checksum differs — the replay-integrity knob. The
    /// manifest always records the checksum that actually ran.
    pub checksum: Option<u64>,
}

impl PretrainedConfig {
    /// Validates the configuration. Deliberately does **not** touch the
    /// filesystem — campaign builders probe requests long before the solve
    /// runs, and the file only has to exist at solve time.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.policy_path.is_empty() {
            return Err(ConfigError::Invalid {
                field: "policy_path",
                reason: "a pretrained method needs a policy file path".to_string(),
            });
        }
        Ok(())
    }
}

/// The optimisation method of a request — one row of the paper's tables.
///
/// The enum is `#[non_exhaustive]`: related work (multi-agent RL,
/// surrogate-assisted placement, ...) may add methods without a breaking
/// release, so downstream `match`es need a wildcard arm.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Method {
    /// PPO training — the paper's "RLPlanner".
    Rl {
        /// Full training configuration.
        config: RlPlannerConfig,
    },
    /// PPO training with the RND exploration bonus — "RLPlanner (RND)".
    RlRnd {
        /// Full training configuration.
        config: RlPlannerConfig,
    },
    /// The TAP-2.5D simulated-annealing baseline.
    Sa {
        /// Full annealing configuration.
        config: SaConfig,
    },
    /// Analytic-gradient descent on the continuous relaxation of the
    /// reward, legalised onto the shared grid every iteration.
    Gradient {
        /// Full descent configuration.
        config: GradientConfig,
    },
    /// Inference-only greedy rollout of a saved policy — no training, no
    /// optimiser allocation, no RND. One argmax episode, milliseconds
    /// instead of minutes.
    Pretrained {
        /// Policy file path and optional expected checksum.
        config: PretrainedConfig,
    },
}

impl Method {
    /// PPO training with the default configuration.
    pub fn rl() -> Self {
        Method::Rl {
            config: RlPlannerConfig::default(),
        }
    }

    /// PPO + RND with the default configuration.
    pub fn rl_rnd() -> Self {
        Method::RlRnd {
            config: RlPlannerConfig::default(),
        }
    }

    /// Simulated annealing with the default configuration.
    pub fn sa() -> Self {
        Method::Sa {
            config: SaConfig::default(),
        }
    }

    /// Gradient descent with the default configuration.
    pub fn gradient() -> Self {
        Method::Gradient {
            config: GradientConfig::default(),
        }
    }

    /// Inference-only greedy rollout of the policy saved at `policy_path`.
    ///
    /// # Examples
    ///
    /// Train once (normally `--save-policy` or `rlplanner_cli
    /// train-generalist`), then every later solve is inference-only:
    ///
    /// ```
    /// use rlp_benchmarks::synthetic_case;
    /// use rlp_thermal::{CharacterizationOptions, ThermalBackend, ThermalConfig};
    /// use rlplanner::{AgentConfig, Budget, FloorplanRequest, Method, RlPlannerConfig};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let tiny_backend = || ThermalBackend::Fast {
    ///     config: ThermalConfig::with_grid(12, 12),
    ///     characterization: CharacterizationOptions {
    ///         footprint_samples_mm: vec![4.0, 10.0],
    ///         distance_bins: 8,
    ///         ..CharacterizationOptions::default()
    ///     },
    /// };
    /// let path = std::env::temp_dir()
    ///     .join(format!("rlp-doc-{}.policy", std::process::id()));
    ///
    /// // Train briefly and save the policy…
    /// FloorplanRequest::builder()
    ///     .system(synthetic_case(1))
    ///     .method(Method::Rl {
    ///         config: RlPlannerConfig {
    ///             episodes_per_update: 2,
    ///             agent: AgentConfig {
    ///                 conv_channels: (2, 4),
    ///                 feature_dim: 16,
    ///                 ..AgentConfig::default()
    ///             },
    ///             ..RlPlannerConfig::default()
    ///         },
    ///     })
    ///     .thermal(tiny_backend())
    ///     .budget(Budget::Evaluations(2))
    ///     .save_policy(path.display().to_string())
    ///     .build()?
    ///     .solve()?;
    ///
    /// // …then solve from the file: milliseconds, no training.
    /// let outcome = FloorplanRequest::builder()
    ///     .system(synthetic_case(1))
    ///     .method(Method::pretrained(path.display().to_string()))
    ///     .thermal(tiny_backend())
    ///     .build()?
    ///     .solve()?;
    /// assert!(outcome.training.is_none());
    /// assert!(outcome.placement.is_complete());
    /// # std::fs::remove_file(&path).ok();
    /// # Ok(())
    /// # }
    /// ```
    pub fn pretrained(policy_path: impl Into<String>) -> Self {
        Method::Pretrained {
            config: PretrainedConfig {
                policy_path: policy_path.into(),
                ..PretrainedConfig::default()
            },
        }
    }

    /// Stable machine-readable label (`"rl"`, `"rl-rnd"`, `"sa"`,
    /// `"gradient"` or `"pretrained"`), used in manifests and reports.
    pub fn label(&self) -> &'static str {
        match self {
            Method::Rl { .. } => "rl",
            Method::RlRnd { .. } => "rl-rnd",
            Method::Sa { .. } => "sa",
            Method::Gradient { .. } => "gradient",
            Method::Pretrained { .. } => "pretrained",
        }
    }

    /// The name the paper's tables use for this method.
    pub fn display_name(&self) -> &'static str {
        match self {
            Method::Rl { .. } => "RLPlanner",
            Method::RlRnd { .. } => "RLPlanner (RND)",
            Method::Sa { .. } => "TAP-2.5D",
            Method::Gradient { .. } => "Gradient",
            Method::Pretrained { .. } => "RLPlanner (pretrained)",
        }
    }

    /// Validates the method's nested configuration.
    fn validate(&self) -> Result<(), ConfigError> {
        match self {
            Method::Rl { config } | Method::RlRnd { config } => config.validate(),
            Method::Sa { config } => config.validate().map_err(sa_config_error),
            Method::Gradient { config } => config.validate(),
            Method::Pretrained { config } => config.validate(),
        }
    }
}

/// Maps an [`SaConfig::validate`] failure into the workspace's typed
/// [`ConfigError`].
fn sa_config_error(err: SaConfigError) -> ConfigError {
    match err {
        SaConfigError::MinSpacing(value) => ConfigError::ExpectedNonNegative {
            field: "sa.min_spacing_mm",
            value,
        },
        other => ConfigError::Invalid {
            field: "sa",
            reason: other.to_string(),
        },
    }
}

/// How much work a run may spend, in method-agnostic terms.
///
/// Every method spends its budget one *complete floorplan* at a time — an
/// RL training episode, an SA objective evaluation and a legalised gradient
/// iterate each count as one candidate floorplan — so
/// [`Budget::Evaluations`] is directly comparable across methods (the
/// paper's Table I protocol). What a budget means per method:
///
/// - **RL** (`rl`, `rl-rnd`) has no schedule of its own: `Evaluations(n)`
///   is the number of training episodes, and a run without an evaluation
///   budget trains for [`crate::DEFAULT_RL_EPISODES`] (600) episodes,
///   stopping earlier under a `TimeLimit`.
/// - **SA** and **gradient** run their own schedule (the anneal's
///   temperature steps, the descent's iterations); a budget only caps it,
///   so a run may end before spending it.
/// - **Pretrained** ignores the budget: it is one greedy rollout.
///
/// A request's budget and seed are the only ones a run has; the outcome
/// manifest records both, so a replay runs under the same budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum Budget {
    /// Number of candidate floorplans: RL training episodes, SA objective
    /// evaluations or gradient iterates.
    Evaluations(usize),
    /// Wall-clock limit; the run stops early once it is exceeded.
    TimeLimit(Duration),
}

/// A thermal analyzer built ahead of a request — by a campaign engine's
/// shared [`rlp_thermal::ThermalModelCache`], typically — together with the
/// [`ThermalBackend`] description it was built from and the [`ThermalPrep`]
/// telemetry describing how it was obtained.
///
/// A request carrying a prebuilt analyzer skips analyzer construction in
/// [`FloorplanRequest::solve`] and copies the recorded telemetry into its
/// outcome. The request's declared [`ThermalBackend`] must equal the one
/// the analyzer was built from (the builder rejects any difference, down
/// to individual configuration fields), because the outcome's
/// [`RunManifest`] records only the description: replaying the manifest
/// re-characterises from it, which reproduces the run bit-for-bit exactly
/// when the description matches what actually ran, with or without the
/// original cache.
#[derive(Debug, Clone)]
pub struct PrebuiltThermal {
    backend: ThermalBackend,
    analyzer: Arc<AnyThermalAnalyzer>,
    prep: ThermalPrep,
}

impl PrebuiltThermal {
    /// Wraps an already-built analyzer, the backend description it was
    /// built from (the caller's contract: `analyzer` really is
    /// `backend.build_for(...)`'s result for the request's system), and
    /// the telemetry of its build.
    pub fn new(
        backend: ThermalBackend,
        analyzer: Arc<AnyThermalAnalyzer>,
        prep: ThermalPrep,
    ) -> Self {
        Self {
            backend,
            analyzer,
            prep,
        }
    }

    /// The backend description the analyzer was built from.
    pub fn backend(&self) -> &ThermalBackend {
        &self.backend
    }

    /// The shared analyzer.
    pub fn analyzer(&self) -> &Arc<AnyThermalAnalyzer> {
        &self.analyzer
    }

    /// How the analyzer was obtained (cache hit/miss, characterisation
    /// wall-clock).
    pub fn prep(&self) -> ThermalPrep {
        self.prep
    }
}

/// A policy file already parsed and validated ahead of a request — by a
/// daemon that loaded it at startup, typically — together with the path it
/// was read from. The pretrained planner uses it instead of re-reading the
/// file from disk when the paths match; like [`PrebuiltThermal`], it is a
/// process-local cache handle, never serialized, and the manifest records
/// only the path + checksum so replay needs no cache.
#[derive(Debug, Clone)]
pub struct PreloadedPolicy {
    path: String,
    file: Arc<PolicyFile>,
}

impl PreloadedPolicy {
    /// Wraps an already-parsed policy and the path it was read from (the
    /// caller's contract: `file` really is the parse of the file at
    /// `path`).
    pub fn new(path: impl Into<String>, file: Arc<PolicyFile>) -> Self {
        Self {
            path: path.into(),
            file,
        }
    }

    /// The path the policy was read from.
    pub fn path(&self) -> &str {
        &self.path
    }

    /// The parsed policy.
    pub fn file(&self) -> &Arc<PolicyFile> {
        &self.file
    }
}

/// A fully-described floorplanning run; see the [module docs](self).
#[derive(Debug, Clone)]
pub struct FloorplanRequest {
    system: ChipletSystem,
    method: Method,
    thermal: ThermalBackend,
    prebuilt: Option<PrebuiltThermal>,
    reward: RewardConfig,
    budget: Option<Budget>,
    seed: Option<u64>,
    parallel_envs: Option<usize>,
    warm_start: bool,
    save_policy: Option<String>,
    preloaded_policy: Option<PreloadedPolicy>,
}

impl FloorplanRequest {
    /// Starts building a request.
    pub fn builder() -> FloorplanRequestBuilder {
        FloorplanRequestBuilder::default()
    }

    /// Rebuilds the request a manifest describes, for reproducing a run.
    ///
    /// The manifest stores the method, backend, reward, budget and seed, so
    /// solving the rebuilt request with the same `system` replays the same
    /// configuration. Replay is bit-for-bit reproducible unless the
    /// original run was bounded by wall clock ([`Budget::TimeLimit`]): such
    /// a run replays the same schedule but may stop after a different
    /// number of candidates on a differently-loaded machine.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if the manifest's configuration is invalid
    /// or `system` does not match the manifest's system name and size.
    pub fn from_manifest(
        system: ChipletSystem,
        manifest: &RunManifest,
    ) -> Result<Self, ConfigError> {
        if system.name() != manifest.system_name || system.chiplet_count() != manifest.chiplet_count
        {
            return Err(ConfigError::Invalid {
                field: "system",
                reason: format!(
                    "manifest was recorded for `{}` with {} chiplets, got `{}` with {}",
                    manifest.system_name,
                    manifest.chiplet_count,
                    system.name(),
                    system.chiplet_count()
                ),
            });
        }
        let mut builder = Self::builder()
            .system(system)
            .method(manifest.method.clone())
            .thermal(manifest.thermal.clone())
            .reward(manifest.reward.clone())
            .seed(manifest.seed)
            .warm_start(manifest.warm_start);
        if let Some(budget) = manifest.budget {
            builder = builder.budget(budget);
        }
        builder.build()
    }

    /// The system to floorplan.
    pub fn system(&self) -> &ChipletSystem {
        &self.system
    }

    /// The optimisation method.
    pub fn method(&self) -> &Method {
        &self.method
    }

    /// The thermal backend run inside the optimisation loop.
    pub fn thermal(&self) -> &ThermalBackend {
        &self.thermal
    }

    /// The prebuilt analyzer the request carries, if any.
    pub fn prebuilt(&self) -> Option<&PrebuiltThermal> {
        self.prebuilt.as_ref()
    }

    /// The analyzer a solve of this request runs against, and the
    /// [`ThermalPrep`] telemetry of its construction: the prebuilt analyzer
    /// when one is attached (zero build cost now — the telemetry recorded
    /// at prebuild time is passed through), otherwise a fresh build of the
    /// request's [`ThermalBackend`], characterisation included.
    ///
    /// # Errors
    ///
    /// Returns a [`ThermalError`] if a fresh build fails (invalid
    /// configuration or failed characterisation solves).
    pub fn thermal_analyzer(&self) -> Result<(AnyThermalAnalyzer, ThermalPrep), ThermalError> {
        match &self.prebuilt {
            Some(prebuilt) => Ok((prebuilt.analyzer.as_ref().clone(), prebuilt.prep)),
            None => self.thermal.build_prepared(&self.system),
        }
    }

    /// The reward weights shared by all methods.
    pub fn reward(&self) -> &RewardConfig {
        &self.reward
    }

    /// The run's budget, if any (see [`Budget`] for what each method does
    /// without one).
    pub fn budget(&self) -> Option<Budget> {
        self.budget
    }

    /// The run's seed, if set; a run without one uses seed 0.
    pub fn seed(&self) -> Option<u64> {
        self.seed
    }

    /// How many environments an RL solve collects episodes on, if set; a
    /// solve without it uses one. Only RL methods consume it. Parallel
    /// collection never changes results, so this is a wall-clock knob and
    /// the manifest does not record it.
    pub fn parallel_envs(&self) -> Option<usize> {
        self.parallel_envs
    }

    /// Whether the solve seeds its optimiser with a cheap gradient-descent
    /// presolve before the main run. SA starts annealing from the presolved
    /// placement and RL seeds its best-artifact tracker with it;
    /// [`Method::Gradient`] itself ignores the flag (it *is* the presolve).
    pub fn warm_start(&self) -> bool {
        self.warm_start
    }

    /// Where an RL solve writes its trained weights afterwards, if
    /// anywhere. Local output plumbing, not part of the run's identity:
    /// never serialized, never recorded in the manifest.
    pub fn save_policy(&self) -> Option<&str> {
        self.save_policy.as_deref()
    }

    /// The pre-parsed policy the request carries, if any (see
    /// [`PreloadedPolicy`]).
    pub fn preloaded_policy(&self) -> Option<&PreloadedPolicy> {
        self.preloaded_policy.as_ref()
    }
}

/// Builder for [`FloorplanRequest`]; see the [module docs](self).
#[derive(Debug, Clone)]
pub struct FloorplanRequestBuilder {
    system: Option<ChipletSystem>,
    method: Method,
    thermal: ThermalBackend,
    prebuilt: Option<PrebuiltThermal>,
    reward: RewardConfig,
    budget: Option<Budget>,
    seed: Option<u64>,
    parallel_envs: Option<usize>,
    warm_start: bool,
    save_policy: Option<String>,
    preloaded_policy: Option<PreloadedPolicy>,
}

impl Default for FloorplanRequestBuilder {
    fn default() -> Self {
        Self {
            system: None,
            method: Method::rl(),
            thermal: ThermalBackend::fast(),
            prebuilt: None,
            reward: RewardConfig::default(),
            budget: None,
            seed: None,
            parallel_envs: None,
            warm_start: false,
            save_policy: None,
            preloaded_policy: None,
        }
    }
}

impl FloorplanRequestBuilder {
    /// The system to floorplan (required).
    #[must_use]
    pub fn system(mut self, system: ChipletSystem) -> Self {
        self.system = Some(system);
        self
    }

    /// The optimisation method (default: [`Method::rl`]).
    #[must_use]
    pub fn method(mut self, method: Method) -> Self {
        self.method = method;
        self
    }

    /// The thermal backend (default: [`ThermalBackend::fast`]).
    #[must_use]
    pub fn thermal(mut self, thermal: ThermalBackend) -> Self {
        self.thermal = thermal;
        self
    }

    /// Attaches an already-built analyzer so the solve skips backend
    /// construction — the shared-characterisation path campaign engines use
    /// (see [`PrebuiltThermal`]). The builder checks it is consistent with
    /// the backend set via [`FloorplanRequestBuilder::thermal`], which is
    /// what the outcome manifest records.
    #[must_use]
    pub fn prebuilt_thermal(mut self, prebuilt: PrebuiltThermal) -> Self {
        self.prebuilt = Some(prebuilt);
        self
    }

    /// The reward weights (default: [`RewardConfig::default`]).
    #[must_use]
    pub fn reward(mut self, reward: RewardConfig) -> Self {
        self.reward = reward;
        self
    }

    /// The run's budget (default: none; see [`Budget`]).
    #[must_use]
    pub fn budget(mut self, budget: Budget) -> Self {
        self.budget = Some(budget);
        self
    }

    /// The run's seed (default: 0).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// How many environments an RL solve collects episodes on (default: 1;
    /// ignored by every other method). Parallel collection is
    /// trajectory-invariant, so this only changes wall-clock, and the
    /// manifest does not record it.
    #[must_use]
    pub fn parallel_envs(mut self, parallel_envs: usize) -> Self {
        self.parallel_envs = Some(parallel_envs);
        self
    }

    /// Seeds the solve with a cheap gradient-descent presolve (default:
    /// off). SA anneals from the presolved placement instead of a random
    /// one and RL seeds its best-artifact tracker with it, so the outcome
    /// is never worse than the presolve; [`Method::Gradient`] ignores the
    /// flag. Warm starting changes results and is therefore recorded in
    /// the [`RunManifest`].
    #[must_use]
    pub fn warm_start(mut self, warm_start: bool) -> Self {
        self.warm_start = warm_start;
        self
    }

    /// Writes the trained weights to `path` as a `rlplanner.policy/v1`
    /// file after an RL solve finishes (ignored by SA, gradient and
    /// pretrained solves). Local output plumbing: never serialized with
    /// the request and never recorded in the manifest, because it does not
    /// affect the run's result.
    #[must_use]
    pub fn save_policy(mut self, path: impl Into<String>) -> Self {
        self.save_policy = Some(path.into());
        self
    }

    /// Attaches an already-parsed policy file so a pretrained solve skips
    /// the disk read — the daemon's load-at-startup path (see
    /// [`PreloadedPolicy`]). Used only when its path equals the method's
    /// `policy_path`; ignored by every other method.
    #[must_use]
    pub fn preloaded_policy(mut self, preloaded: PreloadedPolicy) -> Self {
        self.preloaded_policy = Some(preloaded);
        self
    }

    /// Validates every nested configuration and builds the request.
    ///
    /// # Errors
    ///
    /// Returns a typed [`ConfigError`] describing the first invalid field —
    /// a missing or empty system, an invalid method/reward/thermal
    /// configuration, or a zero budget.
    pub fn build(self) -> Result<FloorplanRequest, ConfigError> {
        let system = self.system.ok_or(ConfigError::Invalid {
            field: "system",
            reason: "a request needs a system; call `.system(...)`".to_string(),
        })?;
        if system.chiplet_count() == 0 {
            return Err(ConfigError::Invalid {
                field: "system",
                reason: "the system must contain at least one chiplet".to_string(),
            });
        }
        self.method.validate()?;
        self.reward.validate()?;
        self.thermal
            .config()
            .validate()
            .map_err(|reason| ConfigError::Invalid {
                field: "thermal",
                reason,
            })?;
        if let Some(Budget::Evaluations(0)) = self.budget {
            return Err(ConfigError::ExpectedPositive {
                field: "budget.evaluations",
                value: 0.0,
            });
        }
        if self.parallel_envs == Some(0) {
            return Err(ConfigError::ExpectedPositive {
                field: "parallel_envs",
                value: 0.0,
            });
        }
        if let Some(prebuilt) = &self.prebuilt {
            // The manifest records the backend *description*, so a prebuilt
            // analyzer that does not match it would make the run
            // irreproducible — reject any difference, down to individual
            // configuration fields.
            if prebuilt.backend != self.thermal {
                return Err(ConfigError::Invalid {
                    field: "prebuilt",
                    reason: format!(
                        "prebuilt analyzer was built from a `{}` backend that differs from the \
                         request's declared `{}` backend; the manifest would not reproduce the run",
                        prebuilt.backend.label(),
                        self.thermal.label()
                    ),
                });
            }
            match prebuilt.analyzer.as_ref() {
                AnyThermalAnalyzer::Grid(_) => {}
                AnyThermalAnalyzer::Fast(model) => {
                    // A fast model is also bound to one interposer outline.
                    model
                        .check_system(&system)
                        .map_err(|err| ConfigError::Invalid {
                            field: "prebuilt",
                            reason: err.to_string(),
                        })?;
                }
            }
        }
        Ok(FloorplanRequest {
            system,
            method: self.method,
            thermal: self.thermal,
            prebuilt: self.prebuilt,
            reward: self.reward,
            budget: self.budget,
            seed: self.seed,
            parallel_envs: self.parallel_envs,
            warm_start: self.warm_start,
            save_policy: self.save_policy,
            preloaded_policy: self.preloaded_policy,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlp_chiplet::Chiplet;
    use rlp_thermal::ThermalConfig;

    fn tiny_system() -> ChipletSystem {
        let mut sys = ChipletSystem::new("t", 20.0, 20.0);
        sys.add_chiplet(Chiplet::new("a", 5.0, 5.0, 10.0));
        sys
    }

    #[test]
    fn builder_defaults_are_rl_with_the_fast_backend() {
        let request = FloorplanRequest::builder()
            .system(tiny_system())
            .build()
            .unwrap();
        assert_eq!(request.method().label(), "rl");
        assert_eq!(request.thermal().label(), "fast");
        assert!(request.budget().is_none());
        assert!(request.seed().is_none());
    }

    #[test]
    fn missing_system_is_a_typed_error() {
        let err = FloorplanRequest::builder().build().unwrap_err();
        assert_eq!(err.field(), "system");
    }

    #[test]
    fn invalid_nested_configs_are_rejected() {
        let err = FloorplanRequest::builder()
            .system(tiny_system())
            .method(Method::Rl {
                config: RlPlannerConfig {
                    episodes_per_update: 0,
                    ..RlPlannerConfig::default()
                },
            })
            .build()
            .unwrap_err();
        assert_eq!(err.field(), "episodes_per_update");

        let err = FloorplanRequest::builder()
            .system(tiny_system())
            .method(Method::Sa {
                config: SaConfig {
                    cooling_rate: 2.0,
                    ..SaConfig::default()
                },
            })
            .build()
            .unwrap_err();
        assert_eq!(err.field(), "sa");

        let err = FloorplanRequest::builder()
            .system(tiny_system())
            .method(Method::Sa {
                config: SaConfig {
                    min_spacing_mm: f64::NAN,
                    ..SaConfig::default()
                },
            })
            .build()
            .unwrap_err();
        assert_eq!(err.field(), "sa.min_spacing_mm");

        for (grid, min_spacing_mm, field) in [
            ((0, 16), 0.2, "env.grid"),
            ((16, 0), 0.2, "env.grid"),
            ((16, 16), f64::NAN, "env.min_spacing_mm"),
            ((16, 16), -1.0, "env.min_spacing_mm"),
        ] {
            let config = RlPlannerConfig {
                env: crate::EnvConfig {
                    grid,
                    min_spacing_mm,
                },
                ..RlPlannerConfig::default()
            };
            for method in [
                Method::Rl {
                    config: config.clone(),
                },
                Method::RlRnd {
                    config: config.clone(),
                },
            ] {
                let err = FloorplanRequest::builder()
                    .system(tiny_system())
                    .method(method)
                    .build()
                    .unwrap_err();
                assert_eq!(err.field(), field, "{grid:?} {min_spacing_mm}");
            }
        }

        let err = FloorplanRequest::builder()
            .system(tiny_system())
            .thermal(ThermalBackend::Grid {
                config: ThermalConfig::with_grid(1, 1),
            })
            .build()
            .unwrap_err();
        assert_eq!(err.field(), "thermal");

        let err = FloorplanRequest::builder()
            .system(tiny_system())
            .budget(Budget::Evaluations(0))
            .build()
            .unwrap_err();
        assert_eq!(err.field(), "budget.evaluations");
    }

    #[test]
    fn parallel_envs_budget_and_seed_stay_on_the_request() {
        // No method is changed by them: the request keeps each one.
        for method in [
            Method::rl(),
            Method::sa(),
            Method::rl_rnd(),
            Method::gradient(),
        ] {
            let request = FloorplanRequest::builder()
                .system(tiny_system())
                .method(method.clone())
                .parallel_envs(4)
                .budget(Budget::Evaluations(25))
                .seed(9)
                .build()
                .unwrap();
            assert_eq!(request.method(), &method);
            assert_eq!(request.parallel_envs(), Some(4));
            assert_eq!(request.budget(), Some(Budget::Evaluations(25)));
            assert_eq!(request.seed(), Some(9));
        }

        // Zero workers is rejected at build time.
        let err = FloorplanRequest::builder()
            .system(tiny_system())
            .parallel_envs(0)
            .build()
            .unwrap_err();
        assert_eq!(err.field(), "parallel_envs");
    }

    #[test]
    fn prebuilt_analyzer_must_match_the_declared_backend() {
        // An analyzer built from a grid backend under a declared fast
        // backend is rejected: the manifest would record a backend the run
        // never used.
        let grid_backend = ThermalBackend::Grid {
            config: ThermalConfig::with_grid(8, 8),
        };
        let grid = grid_backend.build(20.0, 20.0).unwrap();
        let err = FloorplanRequest::builder()
            .system(tiny_system())
            .prebuilt_thermal(PrebuiltThermal::new(
                grid_backend.clone(),
                Arc::new(grid.clone()),
                rlp_thermal::ThermalPrep::default(),
            ))
            .build()
            .unwrap_err();
        assert_eq!(err.field(), "prebuilt");

        // Same kind but a different configuration is rejected too — replay
        // would re-characterise with the declared config, not the one that
        // actually ran.
        let err = FloorplanRequest::builder()
            .system(tiny_system())
            .thermal(ThermalBackend::Grid {
                config: ThermalConfig::with_grid(16, 16),
            })
            .prebuilt_thermal(PrebuiltThermal::new(
                grid_backend.clone(),
                Arc::new(grid.clone()),
                rlp_thermal::ThermalPrep::default(),
            ))
            .build()
            .unwrap_err();
        assert_eq!(err.field(), "prebuilt");

        // The exactly-matching backend builds fine.
        let request = FloorplanRequest::builder()
            .system(tiny_system())
            .thermal(grid_backend.clone())
            .prebuilt_thermal(PrebuiltThermal::new(
                grid_backend,
                Arc::new(grid),
                rlp_thermal::ThermalPrep::default(),
            ))
            .build()
            .unwrap();
        assert!(request.prebuilt().is_some());
    }

    #[test]
    fn prebuilt_fast_model_must_match_the_system_interposer() {
        let backend = ThermalBackend::Fast {
            config: ThermalConfig::with_grid(8, 8),
            characterization: rlp_thermal::CharacterizationOptions {
                footprint_samples_mm: vec![4.0, 8.0],
                distance_bins: 4,
                ..rlp_thermal::CharacterizationOptions::default()
            },
        };
        // Characterised for a 40x40 interposer, attached to a 20x20 system.
        let analyzer = backend.build(40.0, 40.0).unwrap();
        let err = FloorplanRequest::builder()
            .system(tiny_system())
            .thermal(backend.clone())
            .prebuilt_thermal(PrebuiltThermal::new(
                backend.clone(),
                Arc::new(analyzer),
                rlp_thermal::ThermalPrep::default(),
            ))
            .build()
            .unwrap_err();
        assert_eq!(err.field(), "prebuilt");
    }

    #[test]
    fn thermal_analyzer_passes_through_the_prebuilt_prep() {
        let backend = ThermalBackend::Grid {
            config: ThermalConfig::with_grid(8, 8),
        };
        let analyzer = backend.build(20.0, 20.0).unwrap();
        let prep = rlp_thermal::ThermalPrep {
            cache_hits: 1,
            cache_misses: 0,
            characterization: Duration::ZERO,
        };
        let request = FloorplanRequest::builder()
            .system(tiny_system())
            .thermal(backend.clone())
            .prebuilt_thermal(PrebuiltThermal::new(backend, Arc::new(analyzer), prep))
            .build()
            .unwrap();
        let (_, seen) = request.thermal_analyzer().unwrap();
        assert_eq!(seen, prep);
        // Without a prebuilt analyzer the backend is built fresh.
        let request = FloorplanRequest::builder()
            .system(tiny_system())
            .thermal(ThermalBackend::Grid {
                config: ThermalConfig::with_grid(8, 8),
            })
            .build()
            .unwrap();
        let (_, fresh) = request.thermal_analyzer().unwrap();
        assert_eq!((fresh.cache_hits, fresh.cache_misses), (0, 0));
    }

    #[test]
    fn method_labels_and_names_are_stable() {
        assert_eq!(Method::rl().label(), "rl");
        assert_eq!(Method::rl_rnd().label(), "rl-rnd");
        assert_eq!(Method::sa().label(), "sa");
        assert_eq!(Method::gradient().label(), "gradient");
        assert_eq!(Method::rl().display_name(), "RLPlanner");
        assert_eq!(Method::rl_rnd().display_name(), "RLPlanner (RND)");
        assert_eq!(Method::sa().display_name(), "TAP-2.5D");
        assert_eq!(Method::gradient().display_name(), "Gradient");
    }

    #[test]
    fn warm_start_defaults_off_and_round_trips_via_the_builder() {
        let request = FloorplanRequest::builder()
            .system(tiny_system())
            .build()
            .unwrap();
        assert!(!request.warm_start());

        let request = FloorplanRequest::builder()
            .system(tiny_system())
            .method(Method::sa())
            .warm_start(true)
            .build()
            .unwrap();
        assert!(request.warm_start());
    }
}
