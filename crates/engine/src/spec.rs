//! Declarative description of a campaign: one base request times its axes.
//!
//! A [`CampaignSpec`] is a base [`FloorplanRequestBuilder`] times three
//! axes: [`CampaignMethod`] columns (a method and its thermal backend under
//! a report label), systems and seeds. The base carries everything every
//! run shares (budget, warm start, `parallel_envs`, reward weights, a
//! preloaded policy); each run sets its grid cell's system, method,
//! backend and seed on a copy of it. The grid expands into the full cross
//! product of [`FloorplanRequest`]s the paper's tables are made of, in a
//! deterministic order. The spec also carries the one execution parameter
//! that does *not* affect results (the parallelism level), so a parallel
//! campaign is byte-identical to a serial one under fixed seeds.

use rlp_chiplet::ChipletSystem;
use rlp_obs::json::MAX_EXACT_INTEGER;
use rlp_thermal::ThermalBackend;
use rlplanner::{ConfigError, FloorplanRequest, FloorplanRequestBuilder, Method, PrebuiltThermal};

/// One method column of a campaign: an optimisation [`Method`] paired with
/// the [`ThermalBackend`] it runs against, and a stable label naming the
/// column in reports.
#[derive(Debug, Clone)]
pub struct CampaignMethod {
    label: String,
    method: Method,
    thermal: ThermalBackend,
}

impl CampaignMethod {
    /// Creates a column.
    pub fn new(label: impl Into<String>, method: Method, thermal: ThermalBackend) -> Self {
        Self {
            label: label.into(),
            method,
            thermal,
        }
    }

    /// The column's report label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The optimisation method.
    pub fn method(&self) -> &Method {
        &self.method
    }

    /// The thermal backend description.
    pub fn thermal(&self) -> &ThermalBackend {
        &self.thermal
    }
}

/// One run of the expanded grid, identified by its axis indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RunSpec {
    /// Index into [`CampaignSpec::systems`].
    pub system: usize,
    /// Index into [`CampaignSpec::methods`].
    pub method: usize,
    /// The run's seed: one of the seeds axis, or 0 when the axis is empty.
    pub seed: u64,
}

/// A validated sweep grid; build one with [`CampaignSpec::builder`] and run
/// it with [`crate::CampaignEngine::run`].
#[derive(Debug, Clone)]
pub struct CampaignSpec {
    base: FloorplanRequestBuilder,
    methods: Vec<CampaignMethod>,
    systems: Vec<ChipletSystem>,
    seeds: Vec<u64>,
    parallelism: usize,
}

impl CampaignSpec {
    /// Starts building a spec.
    pub fn builder() -> CampaignSpecBuilder {
        CampaignSpecBuilder::default()
    }

    /// The method columns.
    pub fn methods(&self) -> &[CampaignMethod] {
        &self.methods
    }

    /// The systems axis.
    pub fn systems(&self) -> &[ChipletSystem] {
        &self.systems
    }

    /// The seeds axis (empty means one run per cell, on seed 0).
    pub fn seeds(&self) -> &[u64] {
        &self.seeds
    }

    /// Number of worker threads the engine uses for this campaign.
    pub fn parallelism(&self) -> usize {
        self.parallelism
    }

    /// Total number of runs the grid expands to.
    pub fn run_count(&self) -> usize {
        self.systems.len() * self.methods.len() * self.seeds.len().max(1)
    }

    /// The grid in its canonical order: systems outermost, then methods,
    /// then seeds. Reports aggregate and emit in exactly this order, which
    /// is also the order a serial engine executes.
    pub(crate) fn expand(&self) -> Vec<RunSpec> {
        let seeds: &[u64] = if self.seeds.is_empty() {
            &[0]
        } else {
            &self.seeds
        };
        let mut runs = Vec::with_capacity(self.run_count());
        for system in 0..self.systems.len() {
            for method in 0..self.methods.len() {
                for &seed in seeds {
                    runs.push(RunSpec {
                        system,
                        method,
                        seed,
                    });
                }
            }
        }
        runs
    }

    /// Builds the request for one run of the grid: the base request with
    /// the run's system, method, backend and seed, optionally carrying a
    /// prebuilt analyzer (the engine's cache-served path).
    pub(crate) fn request(
        &self,
        run: RunSpec,
        prebuilt: Option<PrebuiltThermal>,
    ) -> Result<FloorplanRequest, ConfigError> {
        let method = &self.methods[run.method];
        let mut builder = self
            .base
            .clone()
            .system(self.systems[run.system].clone())
            .method(method.method.clone())
            .thermal(method.thermal.clone())
            .seed(run.seed);
        if let Some(prebuilt) = prebuilt {
            builder = builder.prebuilt_thermal(prebuilt);
        }
        builder.build()
    }
}

/// Builder for [`CampaignSpec`].
#[derive(Debug, Clone)]
pub struct CampaignSpecBuilder {
    base: FloorplanRequestBuilder,
    methods: Vec<CampaignMethod>,
    systems: Vec<ChipletSystem>,
    seeds: Vec<u64>,
    parallelism: usize,
}

impl Default for CampaignSpecBuilder {
    fn default() -> Self {
        Self {
            base: FloorplanRequest::builder(),
            methods: Vec::new(),
            systems: Vec::new(),
            seeds: Vec::new(),
            parallelism: 1,
        }
    }
}

impl CampaignSpecBuilder {
    /// The request every run of the grid starts from (default:
    /// [`FloorplanRequest::builder`]). Its budget, warm start,
    /// `parallel_envs`, reward weights and preloaded policy apply to every
    /// run; each run replaces its system, method, thermal backend and seed
    /// with those of its grid cell.
    #[must_use]
    pub fn base(mut self, base: FloorplanRequestBuilder) -> Self {
        self.base = base;
        self
    }

    /// Adds one method column.
    #[must_use]
    pub fn method(mut self, method: CampaignMethod) -> Self {
        self.methods.push(method);
        self
    }

    /// Adds several method columns.
    #[must_use]
    pub fn methods(mut self, methods: impl IntoIterator<Item = CampaignMethod>) -> Self {
        self.methods.extend(methods);
        self
    }

    /// Adds one system to the systems axis.
    #[must_use]
    pub fn system(mut self, system: ChipletSystem) -> Self {
        self.systems.push(system);
        self
    }

    /// Adds several systems.
    #[must_use]
    pub fn systems(mut self, systems: impl IntoIterator<Item = ChipletSystem>) -> Self {
        self.systems.extend(systems);
        self
    }

    /// Adds one seed to the seeds axis.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seeds.push(seed);
        self
    }

    /// Adds several seeds.
    #[must_use]
    pub fn seeds(mut self, seeds: impl IntoIterator<Item = u64>) -> Self {
        self.seeds.extend(seeds);
        self
    }

    /// Number of worker threads (default 1, i.e. serial). Parallelism never
    /// changes outcomes — only wall-clock.
    #[must_use]
    pub fn parallelism(mut self, parallelism: usize) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Validates the axes and every (system, method) request of the grid.
    ///
    /// # Errors
    ///
    /// Returns a typed [`ConfigError`] for empty axes, a zero parallelism,
    /// duplicate column labels, a base that saves a policy, or any grid
    /// cell whose request would be invalid — campaigns fail at build time,
    /// not halfway through a run.
    pub fn build(self) -> Result<CampaignSpec, ConfigError> {
        if self.methods.is_empty() {
            return Err(ConfigError::Invalid {
                field: "methods",
                reason: "a campaign needs at least one method column".to_string(),
            });
        }
        if self.systems.is_empty() {
            return Err(ConfigError::Invalid {
                field: "systems",
                reason: "a campaign needs at least one system".to_string(),
            });
        }
        if self.parallelism == 0 {
            return Err(ConfigError::ExpectedPositive {
                field: "parallelism",
                value: 0.0,
            });
        }
        for (i, method) in self.methods.iter().enumerate() {
            if self.methods[..i].iter().any(|m| m.label == method.label) {
                return Err(ConfigError::Invalid {
                    field: "methods",
                    reason: format!(
                        "duplicate method label `{}`; labels key the report cells",
                        method.label
                    ),
                });
            }
        }
        // A stream records each run's seed as a JSON number, and a resumed
        // campaign must read back exactly the seed it would run with.
        if let Some(&seed) = self.seeds.iter().find(|&&s| s > MAX_EXACT_INTEGER) {
            return Err(ConfigError::Invalid {
                field: "seeds",
                reason: format!(
                    "seed {seed} exceeds {MAX_EXACT_INTEGER}, the largest seed a \
                     campaign stream records exactly"
                ),
            });
        }
        let spec = CampaignSpec {
            base: self.base,
            methods: self.methods,
            systems: self.systems,
            seeds: self.seeds,
            parallelism: self.parallelism,
        };
        // Validate the whole grid up front; seeds never invalidate a
        // request, so one probe per (system, method) cell suffices.
        for system in 0..spec.systems.len() {
            for method in 0..spec.methods.len() {
                let run = RunSpec {
                    system,
                    method,
                    seed: 0,
                };
                if spec.request(run, None)?.save_policy().is_some() {
                    return Err(ConfigError::Invalid {
                        field: "save_policy",
                        reason: "every RL run of the campaign would write the same policy file"
                            .to_string(),
                    });
                }
            }
        }
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlp_chiplet::Chiplet;
    use rlp_thermal::ThermalConfig;
    use rlplanner::{Budget, RewardConfig};

    fn tiny_system(name: &str) -> ChipletSystem {
        let mut sys = ChipletSystem::new(name, 20.0, 20.0);
        sys.add_chiplet(Chiplet::new("a", 5.0, 5.0, 10.0));
        sys
    }

    fn grid_backend() -> ThermalBackend {
        ThermalBackend::Grid {
            config: ThermalConfig::with_grid(8, 8),
        }
    }

    #[test]
    fn seeds_a_stream_cannot_record_exactly_are_refused() {
        let spec = |seeds: &[u64]| {
            CampaignSpec::builder()
                .system(tiny_system("s"))
                .method(CampaignMethod::new("sa", Method::sa(), grid_backend()))
                .seeds(seeds.iter().copied())
                .build()
        };
        let largest = MAX_EXACT_INTEGER;
        assert!(spec(&[largest]).is_ok());
        assert!(spec(&[]).is_ok());
        for seeds in [&[7, largest + 2][..], &[largest + 1][..]] {
            match spec(seeds) {
                Err(ConfigError::Invalid { field, reason }) => {
                    assert_eq!(field, "seeds");
                    assert!(
                        reason.contains(&(largest + 1).to_string())
                            || reason.contains(&(largest + 2).to_string()),
                        "{reason}"
                    );
                }
                other => panic!("{seeds:?}: expected a seeds error, got {other:?}"),
            }
        }
    }

    #[test]
    fn grid_expands_systems_then_methods_then_seeds() {
        let spec = CampaignSpec::builder()
            .system(tiny_system("s0"))
            .system(tiny_system("s1"))
            .method(CampaignMethod::new("rl", Method::rl(), grid_backend()))
            .method(CampaignMethod::new("sa", Method::sa(), grid_backend()))
            .seeds([1, 2])
            .build()
            .unwrap();
        assert_eq!(spec.run_count(), 8);
        let runs = spec.expand();
        assert_eq!(runs.len(), 8);
        assert_eq!((runs[0].system, runs[0].method, runs[0].seed), (0, 0, 1));
        assert_eq!((runs[1].system, runs[1].method, runs[1].seed), (0, 0, 2));
        assert_eq!((runs[2].system, runs[2].method, runs[2].seed), (0, 1, 1));
        assert_eq!((runs[7].system, runs[7].method, runs[7].seed), (1, 1, 2));
    }

    #[test]
    fn empty_seeds_run_each_cell_once_on_seed_zero() {
        let spec = CampaignSpec::builder()
            .system(tiny_system("s"))
            .method(CampaignMethod::new("sa", Method::sa(), grid_backend()))
            .build()
            .unwrap();
        assert_eq!(spec.run_count(), 1);
        assert_eq!(spec.expand()[0].seed, 0);
        let request = spec.request(spec.expand()[0], None).unwrap();
        assert_eq!(request.seed(), Some(0));
    }

    #[test]
    fn the_base_request_flows_into_every_grid_request() {
        let reward = RewardConfig {
            mu: 0.25,
            ..RewardConfig::default()
        };
        let base = || {
            FloorplanRequest::builder()
                .budget(Budget::Evaluations(9))
                .warm_start(true)
                .parallel_envs(3)
                .reward(reward.clone())
        };
        let spec = |base: FloorplanRequestBuilder| {
            CampaignSpec::builder()
                .base(base)
                .system(tiny_system("s0"))
                .system(tiny_system("s1"))
                .method(CampaignMethod::new("rl", Method::rl(), grid_backend()))
                .method(CampaignMethod::new("sa", Method::sa(), grid_backend()))
                .seeds([4, 5])
                .build()
        };
        let grid = spec(base()).unwrap();
        for run in grid.expand() {
            let request = grid.request(run, None).unwrap();
            // The run's own cell replaces what the base would set...
            assert_eq!(request.system(), &grid.systems()[run.system]);
            assert_eq!(request.method(), grid.methods()[run.method].method());
            assert_eq!(request.thermal(), grid.methods()[run.method].thermal());
            assert_eq!(request.seed(), Some(run.seed));
            // ...and everything else is the base's.
            assert_eq!(request.budget(), Some(Budget::Evaluations(9)));
            assert!(request.warm_start());
            assert_eq!(request.parallel_envs(), Some(3));
            assert_eq!(request.reward(), &reward);
        }

        // The request's own checks refuse a bad base at build time.
        let err = spec(base().parallel_envs(0)).unwrap_err();
        assert_eq!(err.field(), "parallel_envs");
        // Every RL cell would write one policy file over the others.
        let err = spec(base().save_policy("policy.json")).unwrap_err();
        assert_eq!(err.field(), "save_policy");
    }

    #[test]
    fn invalid_specs_are_rejected_at_build_time() {
        let err = CampaignSpec::builder()
            .system(tiny_system("s"))
            .build()
            .unwrap_err();
        assert_eq!(err.field(), "methods");

        let err = CampaignSpec::builder()
            .method(CampaignMethod::new("rl", Method::rl(), grid_backend()))
            .build()
            .unwrap_err();
        assert_eq!(err.field(), "systems");

        let err = CampaignSpec::builder()
            .system(tiny_system("s"))
            .method(CampaignMethod::new("rl", Method::rl(), grid_backend()))
            .parallelism(0)
            .build()
            .unwrap_err();
        assert_eq!(err.field(), "parallelism");

        let err = CampaignSpec::builder()
            .system(tiny_system("s"))
            .method(CampaignMethod::new("rl", Method::rl(), grid_backend()))
            .method(CampaignMethod::new("rl", Method::rl_rnd(), grid_backend()))
            .build()
            .unwrap_err();
        assert_eq!(err.field(), "methods");

        // An invalid grid cell surfaces at build time, not mid-campaign.
        let err = CampaignSpec::builder()
            .system(tiny_system("s"))
            .method(CampaignMethod::new(
                "bad",
                Method::rl(),
                ThermalBackend::Grid {
                    config: ThermalConfig::with_grid(1, 1),
                },
            ))
            .build()
            .unwrap_err();
        assert_eq!(err.field(), "thermal");
    }
}
