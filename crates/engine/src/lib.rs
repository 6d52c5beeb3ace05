//! Campaign engine: parallel batch runs of floorplanning requests with a
//! shared thermal-characterisation cache.
//!
//! The paper's headline results (Tables I–III) are not single runs but
//! *campaigns* — many methods × systems × seeds, every run needing a
//! characterised fast thermal model. Solving each
//! [`rlplanner::FloorplanRequest`] in isolation re-characterises that model
//! per run, even though characterisation depends only on the package
//! configuration. This crate amortises the expensive step and executes the
//! grid concurrently:
//!
//! * [`CampaignSpec`] declares the sweep: one base request
//!   ([`rlplanner::FloorplanRequestBuilder`]: budget, warm start,
//!   `parallel_envs`, reward weights) times its axes — [`CampaignMethod`]
//!   columns (method + backend), a systems axis (the standard benchmarks,
//!   [`rlp_benchmarks::synthetic_cases`], or any
//!   [`rlp_benchmarks::SyntheticConfig`] sweep) and a seeds axis — plus a
//!   parallelism level.
//! * [`CampaignEngine`] drains the grid with a `std::thread::scope` worker
//!   pool. Every run's analyzer is served from a shared
//!   [`rlp_thermal::ThermalModelCache`], so each distinct package
//!   configuration is characterised exactly once, and results are stored
//!   by grid index so a parallel campaign yields outcomes byte-identical
//!   to a serial one under fixed seeds (wall-clock budgets being the
//!   documented exception).
//! * [`CampaignReport`] aggregates the outcomes — best-of-seeds run per
//!   (system, method) cell, mean/min/max reward, wall-clock, cache and
//!   scheduler telemetry — and [`report::campaign_json`] renders it as the
//!   documented `rlplanner.campaign/v1` JSON document.
//!
//! Campaigns are **fail-soft, streaming and resumable**: a failed solve
//! becomes an entry in [`CampaignReport::failures`] instead of discarding
//! every completed cell; [`CampaignEngine::run_streamed`] emits each
//! finished run as one `rlplanner.campaign-run/v1` JSONL record through a
//! pluggable [`RunSink`] (a file-backed [`JsonlSink`] behind the CLI's
//! `--stream` flag), flushed per record; and reopening a streamed file
//! resumes the campaign, re-executing only the grid cells the file does
//! not already hold, once each held record's manifest matches the run the
//! spec would make. See [`sink`] and [`runner`].
//!
//! # Example
//!
//! A 2-method × 1-system × 2-seed campaign on two worker threads:
//!
//! ```
//! use rlp_engine::{CampaignEngine, CampaignMethod, CampaignSpec};
//! use rlp_thermal::{ThermalBackend, ThermalConfig};
//! use rlplanner::{Budget, FloorplanRequest, Method};
//! use rlp_chiplet::{Chiplet, ChipletSystem, Net};
//!
//! let mut system = ChipletSystem::new("demo", 24.0, 24.0);
//! let a = system.add_chiplet(Chiplet::new("a", 6.0, 6.0, 20.0));
//! let b = system.add_chiplet(Chiplet::new("b", 5.0, 5.0, 10.0));
//! system.add_net(Net::new(a, b, 32));
//!
//! let backend = ThermalBackend::Grid {
//!     config: ThermalConfig::with_grid(8, 8),
//! };
//! let spec = CampaignSpec::builder()
//!     .system(system)
//!     .method(CampaignMethod::new("sa", Method::sa(), backend.clone()))
//!     .method(CampaignMethod::new(
//!         "sa-slow-cool",
//!         Method::Sa {
//!             config: rlp_sa::SaConfig {
//!                 cooling_rate: 0.9,
//!                 ..rlp_sa::SaConfig::default()
//!             },
//!         },
//!         backend,
//!     ))
//!     .seeds([7, 8])
//!     .base(FloorplanRequest::builder().budget(Budget::Evaluations(10)))
//!     .parallelism(2)
//!     .build()
//!     .expect("valid spec");
//! let report = CampaignEngine::new().run(&spec).expect("campaign runs");
//! assert_eq!(report.runs.len(), 4);
//! let best = report.best_outcome("demo", "sa").expect("cell exists");
//! assert!(best.placement.is_complete());
//! ```

pub mod report;
pub mod runner;
pub mod sink;
pub mod spec;

pub use report::{
    campaign_json, CampaignReport, CellSummary, DrainEvent, RunFailure, RunRecord,
    SchedulerTelemetry, WorkerTelemetry, CAMPAIGN_SCHEMA,
};
pub use runner::{CampaignEngine, CampaignError};
pub use sink::{JsonlSink, MemorySink, NullSink, RunEvent, RunSink, RUN_RECORD_SCHEMA};
pub use spec::{CampaignMethod, CampaignSpec, CampaignSpecBuilder};
