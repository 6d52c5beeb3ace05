//! Declarative description of a campaign: a sweep grid of runs.
//!
//! A [`CampaignSpec`] expands a small set of axes — [`CampaignMethod`]s
//! (method + thermal backend + optional budget override), systems and seeds
//! — into the full cross product of [`FloorplanRequest`]s the paper's
//! tables are made of, in a deterministic order. The spec also carries the
//! execution parameters that do *not* affect results (the parallelism
//! level), so a parallel campaign is byte-identical to a serial one under
//! fixed seeds.

use rlp_chiplet::ChipletSystem;
use rlp_obs::json::MAX_EXACT_INTEGER;
use rlp_thermal::ThermalBackend;
use rlplanner::{Budget, ConfigError, FloorplanRequest, Method, PrebuiltThermal};

/// One method column of a campaign: an optimisation [`Method`] paired with
/// the [`ThermalBackend`] it runs against, a stable label naming the column
/// in reports, and an optional budget override for this column only (the
/// paper gives its SA baselines a different budget than the RL runs).
#[derive(Debug, Clone)]
pub struct CampaignMethod {
    label: String,
    method: Method,
    thermal: ThermalBackend,
    budget: Option<Budget>,
}

impl CampaignMethod {
    /// Creates a column with the spec-level default budget.
    pub fn new(label: impl Into<String>, method: Method, thermal: ThermalBackend) -> Self {
        Self {
            label: label.into(),
            method,
            thermal,
            budget: None,
        }
    }

    /// Overrides the campaign's default budget for this column.
    #[must_use]
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = Some(budget);
        self
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

    /// The per-column budget override, if any.
    pub fn budget(&self) -> Option<Budget> {
        self.budget
    }
}

/// One run of the expanded grid, identified by its axis indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RunSpec {
    /// Index into [`CampaignSpec::systems`].
    pub system: usize,
    /// Index into [`CampaignSpec::methods`].
    pub method: usize,
    /// Seed override for this run (`None` leaves the method config's seed).
    pub seed: Option<u64>,
}

/// A validated sweep grid; build one with [`CampaignSpec::builder`] and run
/// it with [`crate::CampaignEngine::run`].
#[derive(Debug, Clone)]
pub struct CampaignSpec {
    methods: Vec<CampaignMethod>,
    systems: Vec<ChipletSystem>,
    seeds: Vec<u64>,
    budget: Option<Budget>,
    parallelism: usize,
    train_parallel: Option<usize>,
    warm_start: bool,
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

    /// The seeds axis (empty means one run per cell with the method
    /// config's own seed).
    pub fn seeds(&self) -> &[u64] {
        &self.seeds
    }

    /// The default budget applied to columns without their own override.
    pub fn budget(&self) -> Option<Budget> {
        self.budget
    }

    /// Number of worker threads the engine uses for this campaign.
    pub fn parallelism(&self) -> usize {
        self.parallelism
    }

    /// Rollout-parallelism override applied to every RL run of the grid
    /// (`None` leaves each method config's own `parallel_envs`). Like run
    /// parallelism, it never changes outcomes, only wall-clock.
    pub fn train_parallel(&self) -> Option<usize> {
        self.train_parallel
    }

    /// Whether every run of the grid seeds its optimiser with the
    /// gradient-descent presolve
    /// (see [`rlplanner::FloorplanRequestBuilder::warm_start`]).
    pub fn warm_start(&self) -> bool {
        self.warm_start
    }

    /// Total number of runs the grid expands to.
    pub fn run_count(&self) -> usize {
        self.systems.len() * self.methods.len() * self.seeds.len().max(1)
    }

    /// The grid in its canonical order: systems outermost, then methods,
    /// then seeds. Reports aggregate and emit in exactly this order, which
    /// is also the order a serial engine executes.
    pub(crate) fn expand(&self) -> Vec<RunSpec> {
        let mut runs = Vec::with_capacity(self.run_count());
        for system in 0..self.systems.len() {
            for method in 0..self.methods.len() {
                if self.seeds.is_empty() {
                    runs.push(RunSpec {
                        system,
                        method,
                        seed: None,
                    });
                } else {
                    for &seed in &self.seeds {
                        runs.push(RunSpec {
                            system,
                            method,
                            seed: Some(seed),
                        });
                    }
                }
            }
        }
        runs
    }

    /// Builds the request for one run of the grid, optionally carrying a
    /// prebuilt analyzer (the engine's cache-served path).
    pub(crate) fn request(
        &self,
        run: RunSpec,
        prebuilt: Option<PrebuiltThermal>,
    ) -> Result<FloorplanRequest, ConfigError> {
        let method = &self.methods[run.method];
        let mut builder = FloorplanRequest::builder()
            .system(self.systems[run.system].clone())
            .method(method.method.clone())
            .thermal(method.thermal.clone());
        if let Some(prebuilt) = prebuilt {
            builder = builder.prebuilt_thermal(prebuilt);
        }
        if let Some(budget) = method.budget.or(self.budget) {
            builder = builder.budget(budget);
        }
        if let Some(seed) = run.seed {
            builder = builder.seed(seed);
        }
        if let Some(train_parallel) = self.train_parallel {
            builder = builder.parallel_envs(train_parallel);
        }
        builder = builder.warm_start(self.warm_start);
        builder.build()
    }
}

/// Builder for [`CampaignSpec`].
#[derive(Debug, Clone)]
pub struct CampaignSpecBuilder {
    methods: Vec<CampaignMethod>,
    systems: Vec<ChipletSystem>,
    seeds: Vec<u64>,
    budget: Option<Budget>,
    parallelism: usize,
    train_parallel: Option<usize>,
    warm_start: bool,
}

impl Default for CampaignSpecBuilder {
    fn default() -> Self {
        Self {
            methods: Vec::new(),
            systems: Vec::new(),
            seeds: Vec::new(),
            budget: None,
            parallelism: 1,
            train_parallel: None,
            warm_start: false,
        }
    }
}

impl CampaignSpecBuilder {
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

    /// Default budget for columns without a per-column override.
    #[must_use]
    pub fn budget(mut self, budget: Budget) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Number of worker threads (default 1, i.e. serial). Parallelism never
    /// changes outcomes — only wall-clock.
    #[must_use]
    pub fn parallelism(mut self, parallelism: usize) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Rollout workers inside every RL run of the grid (default: each
    /// method config's own `parallel_envs`). Parallel rollout collection
    /// is trajectory-invariant, so this never changes outcomes either.
    #[must_use]
    pub fn train_parallel(mut self, train_parallel: usize) -> Self {
        self.train_parallel = Some(train_parallel);
        self
    }

    /// Seeds every run of the grid with the gradient-descent presolve
    /// (default off). Unlike parallelism this *does* change outcomes —
    /// warm-started cells are a different experiment than cold ones, which
    /// is exactly why it is a spec-level axis rather than a per-run detail:
    /// the whole grid stays internally comparable.
    #[must_use]
    pub fn warm_start(mut self, warm_start: bool) -> Self {
        self.warm_start = warm_start;
        self
    }

    /// Validates the axes and every (system, method) request of the grid.
    ///
    /// # Errors
    ///
    /// Returns a typed [`ConfigError`] for empty axes, a zero parallelism,
    /// duplicate column labels, or any grid cell whose request would be
    /// invalid — campaigns fail at build time, not halfway through a run.
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
        if self.train_parallel == Some(0) {
            return Err(ConfigError::ExpectedPositive {
                field: "train_parallel",
                value: 0.0,
            });
        }
        // A stream records each run's seed as a JSON number, and a resumed
        // campaign must read back exactly the seed it would run with.
        let run_seeds = if self.seeds.is_empty() {
            self.methods
                .iter()
                .map(|m| m.method.config_seed())
                .collect()
        } else {
            self.seeds.clone()
        };
        if let Some(seed) = run_seeds.into_iter().find(|&s| s > MAX_EXACT_INTEGER) {
            return Err(ConfigError::Invalid {
                field: "seeds",
                reason: format!(
                    "seed {seed} exceeds {MAX_EXACT_INTEGER}, the largest seed a \
                     campaign stream records exactly"
                ),
            });
        }
        let spec = CampaignSpec {
            methods: self.methods,
            systems: self.systems,
            seeds: self.seeds,
            budget: self.budget,
            parallelism: self.parallelism,
            train_parallel: self.train_parallel,
            warm_start: self.warm_start,
        };
        // Validate the whole grid up front; seeds never invalidate a
        // request, so one probe per (system, method) cell suffices.
        for system in 0..spec.systems.len() {
            for method in 0..spec.methods.len() {
                spec.request(
                    RunSpec {
                        system,
                        method,
                        seed: spec.seeds.first().copied(),
                    },
                    None,
                )?;
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
        let spec = |seeds: &[u64], config_seed: u64| {
            CampaignSpec::builder()
                .system(tiny_system("s"))
                .method(CampaignMethod::new(
                    "sa",
                    Method::Sa {
                        config: rlp_sa::SaConfig {
                            seed: config_seed,
                            ..rlp_sa::SaConfig::default()
                        },
                    },
                    grid_backend(),
                ))
                .seeds(seeds.iter().copied())
                .build()
        };
        let largest = MAX_EXACT_INTEGER;
        assert!(spec(&[largest], 0).is_ok());
        assert!(spec(&[], largest).is_ok());
        // The axis overrides the config seed, so only the axis counts.
        assert!(spec(&[7], u64::MAX).is_ok());
        for (seeds, config_seed) in [
            (&[7, largest + 2][..], 0),
            (&[largest + 1][..], 0),
            (&[][..], largest + 1),
        ] {
            match spec(seeds, config_seed) {
                Err(ConfigError::Invalid { field, reason }) => {
                    assert_eq!(field, "seeds");
                    assert!(
                        reason.contains(&(largest + 1).to_string())
                            || reason.contains(&(largest + 2).to_string()),
                        "{reason}"
                    );
                }
                other => panic!("{seeds:?}/{config_seed}: expected a seeds error, got {other:?}"),
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
        assert_eq!(
            (runs[0].system, runs[0].method, runs[0].seed),
            (0, 0, Some(1))
        );
        assert_eq!(
            (runs[1].system, runs[1].method, runs[1].seed),
            (0, 0, Some(2))
        );
        assert_eq!(
            (runs[2].system, runs[2].method, runs[2].seed),
            (0, 1, Some(1))
        );
        assert_eq!(
            (runs[7].system, runs[7].method, runs[7].seed),
            (1, 1, Some(2))
        );
    }

    #[test]
    fn empty_seeds_run_each_cell_once_with_the_config_seed() {
        let spec = CampaignSpec::builder()
            .system(tiny_system("s"))
            .method(CampaignMethod::new("sa", Method::sa(), grid_backend()))
            .build()
            .unwrap();
        assert_eq!(spec.run_count(), 1);
        assert_eq!(spec.expand()[0].seed, None);
        let request = spec.request(spec.expand()[0], None).unwrap();
        assert_eq!(request.seed(), None);
    }

    #[test]
    fn per_column_budget_overrides_the_default() {
        let spec = CampaignSpec::builder()
            .system(tiny_system("s"))
            .method(CampaignMethod::new("rl", Method::rl(), grid_backend()))
            .method(
                CampaignMethod::new("sa", Method::sa(), grid_backend())
                    .with_budget(Budget::Evaluations(5)),
            )
            .budget(Budget::Evaluations(9))
            .build()
            .unwrap();
        let runs = spec.expand();
        assert_eq!(
            spec.request(runs[0], None).unwrap().budget(),
            Some(Budget::Evaluations(9))
        );
        assert_eq!(
            spec.request(runs[1], None).unwrap().budget(),
            Some(Budget::Evaluations(5))
        );
    }

    #[test]
    fn train_parallel_flows_into_every_grid_request() {
        let spec = CampaignSpec::builder()
            .system(tiny_system("s"))
            .method(CampaignMethod::new("rl", Method::rl(), grid_backend()))
            .train_parallel(3)
            .build()
            .unwrap();
        assert_eq!(spec.train_parallel(), Some(3));
        let request = spec.request(spec.expand()[0], None).unwrap();
        assert_eq!(request.parallel_envs(), Some(3));

        let err = CampaignSpec::builder()
            .system(tiny_system("s"))
            .method(CampaignMethod::new("rl", Method::rl(), grid_backend()))
            .train_parallel(0)
            .build()
            .unwrap_err();
        assert_eq!(err.field(), "train_parallel");
    }

    #[test]
    fn warm_start_flows_into_every_grid_request() {
        let spec = CampaignSpec::builder()
            .system(tiny_system("s"))
            .method(CampaignMethod::new("sa", Method::sa(), grid_backend()))
            .method(CampaignMethod::new(
                "gradient",
                Method::gradient(),
                grid_backend(),
            ))
            .warm_start(true)
            .build()
            .unwrap();
        assert!(spec.warm_start());
        for run in spec.expand() {
            assert!(spec.request(run, None).unwrap().warm_start());
        }

        // Default stays off: cold campaigns remain the baseline experiment.
        let cold = CampaignSpec::builder()
            .system(tiny_system("s"))
            .method(CampaignMethod::new("sa", Method::sa(), grid_backend()))
            .build()
            .unwrap();
        assert!(!cold.warm_start());
        assert!(!cold.request(cold.expand()[0], None).unwrap().warm_start());
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
