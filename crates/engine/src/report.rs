//! Campaign aggregation and the JSON campaign document.
//!
//! A [`CampaignReport`] is the aggregated result of one
//! [`crate::CampaignEngine::run`]: every run's [`FloorplanOutcome`] in grid
//! order, per-(system, method) [`CellSummary`]s (best-of-seeds run,
//! mean/min/max reward), and the campaign-level telemetry — wall-clock,
//! parallelism and the shared cache's hit/miss/characterisation-time delta.
//!
//! [`campaign_json`] renders the report through the workspace's one JSON
//! writer ([`rlp_obs::json`]), so it shares every encoding rule of
//! [`rlplanner::report`] (stable field order, RFC 8259 escaping, `null`
//! for non-finite numbers):
//!
//! # Campaign document ([`campaign_json`])
//!
//! ```json
//! {
//!   "schema": "rlplanner.campaign/v1",
//!   "parallelism": 2,
//!   "timing": {
//!     "resumed_runs": 0,
//!     "wall_clock_s": 12.5,
//!     "cache": { "hits": 15, "misses": 3, "characterization_s": 4.2 },
//!     "scheduler": {
//!       "workers": [ { "worker": 0, "busy_s": 11.9, "executed": 3 } ],
//!       "drain": [ { "index": 0, "worker": 0, "started_s": 0.1, "finished_s": 4.0 } ]
//!     }
//!   },
//!   "cells": [
//!     {
//!       "system": "multi-gpu", "method": "rl", "seeds": [7, 8, 9],
//!       "best_seed": 8, "mean_reward": -1.9, "min_reward": -2.4,
//!       "max_reward": -1.6,
//!       "evaluations": 1800, "full_evals": 3, "incremental_evals": 1797,
//!       "timing": { "total_runtime_s": 30.1, "mean_eval_us": 16.7, "episodes_per_s": 59.8 },
//!       "best": { "schema": "rlplanner.outcome/v1", ... }
//!     }
//!   ],
//!   "runs": [
//!     {
//!       "index": 0, "system": "multi-gpu", "method": "rl", "seed": 7,
//!       "reward": -2.4, "wirelength_mm": 6200, "max_temperature_c": 78.4,
//!       "evaluations": 600, "eval_mode": "incremental",
//!       "full_evals": 1, "incremental_evals": 599,
//!       "timing": { "runtime_s": 10.0, "cache_hits": 1, "cache_misses": 0 }
//!     }
//!   ],
//!   "failures": [
//!     {
//!       "index": 3, "system": "multi-gpu", "system_index": 0,
//!       "method": "sa", "seed": 8, "error": "initial placement failed: ..."
//!     }
//!   ]
//! }
//! ```
//!
//! `schema` identifies this exact layout ([`CAMPAIGN_SCHEMA`]); consumers
//! should check it before parsing. `cells` appear in grid order (systems
//! outermost, then methods); each cell's `best` is the full outcome
//! document ([`rlplanner::report::outcome_json`], schema
//! `rlplanner.outcome/v1`) of its best-of-seeds run, so the best placement
//! of every table cell — manifest included — travels inside the campaign
//! document. Each cell also aggregates its runs' evaluation telemetry:
//! `evaluations` is the total candidate count across seeds,
//! `full_evals`/`incremental_evals` split it by evaluation engine, and
//! `mean_eval_us` is the mean wall-clock per candidate evaluation in
//! microseconds — the number the incremental engine exists to shrink.
//! `episodes_per_s` is the cell's training throughput (total episodes over
//! total runtime) — the number the parallel rollout engine exists to grow;
//! it is `null` for cells without rollout telemetry (SA, gradient and
//! pretrained).
//! `runs` holds one compact record per completed run, also in grid order,
//! with the per-run evaluation-engine and cache telemetry that the cell and
//! campaign levels aggregate; each record's `index` is its position in the
//! spec's canonical grid. `failures` lists the grid cells whose solve
//! failed (the campaign is fail-soft: completed cells survive a failure);
//! `resumed_runs` counts runs reconstructed from a streamed
//! `rlplanner.campaign-run/v1` file instead of executed; `scheduler`
//! carries per-worker busy time and the queue-drain timeline for the runs
//! this execution performed.
//!
//! Every VOLATILE value sits in a `timing` member ([`TIMING`]): the
//! campaign's own, each cell's, each run's and each embedded outcome's.

use rlp_chiplet::ChipletSystem;
use rlp_obs::json::{Layout, Writer};
use rlp_thermal::ThermalCacheStats;
use rlplanner::report::{write_outcome, TIMING};
use rlplanner::{EvalCounts, FloorplanOutcome, PlanError};
use std::time::Duration;

/// Identifier of the campaign-document layout produced by
/// [`campaign_json`].
pub const CAMPAIGN_SCHEMA: &str = "rlplanner.campaign/v1";

/// One executed run of the campaign grid.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// Index of the run in the spec's canonical grid order. With failures
    /// removed from [`CampaignReport::runs`], this is what still ties a
    /// record to its grid cell (and to its line in a streamed JSONL file).
    pub index: usize,
    /// Name of the run's system.
    pub system: String,
    /// Index of the system in [`CampaignReport::systems`].
    pub system_index: usize,
    /// Label of the run's method column.
    pub method: String,
    /// The seed the run actually used (from the seeds axis, or the method
    /// config's own seed when the axis was empty).
    pub seed: u64,
    /// The run's full outcome.
    pub outcome: FloorplanOutcome,
}

/// One failed run of the campaign grid. Failures no longer abort the
/// campaign: completed cells keep their results and every failure is
/// reported here (and emitted as an error record on a streaming sink, so a
/// resumed campaign retries it).
#[derive(Debug, Clone, PartialEq)]
pub struct RunFailure {
    /// Index of the run in the spec's canonical grid order.
    pub index: usize,
    /// Name of the run's system.
    pub system: String,
    /// Index of the system in [`CampaignReport::systems`].
    pub system_index: usize,
    /// Label of the run's method column.
    pub method: String,
    /// The seed the run was executed with — the one a successful run's
    /// manifest records (its seeds-axis value, or 0 without a seeds axis),
    /// so the two paths always report the same number for the same grid
    /// cell.
    pub seed: u64,
    /// The underlying solve error.
    pub error: PlanError,
}

/// Per-worker utilisation of one campaign execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerTelemetry {
    /// Wall-clock this worker spent inside solves (queue-wait excluded).
    pub busy: Duration,
    /// Runs this worker executed (resumed runs are skipped, not executed).
    pub runs: usize,
}

/// One run draining off the shared queue: which worker took it and when.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainEvent {
    /// Index of the run in the spec's canonical grid order.
    pub index: usize,
    /// Worker that executed the run.
    pub worker: usize,
    /// Offset from campaign start when the solve began.
    pub started: Duration,
    /// Offset from campaign start when the solve finished.
    pub finished: Duration,
}

/// Scheduler-utilisation telemetry: how evenly the grid drained across the
/// worker pool. Events appear in completion order (the order records hit a
/// streaming sink); all values are wall-clock telemetry, never inputs to
/// results.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SchedulerTelemetry {
    /// One entry per worker thread, in worker order.
    pub workers: Vec<WorkerTelemetry>,
    /// The queue-drain timeline, in completion order.
    pub drain: Vec<DrainEvent>,
}

/// Per-(system, method) aggregation over the seeds axis — one table cell.
#[derive(Debug, Clone)]
pub struct CellSummary {
    /// Name of the cell's system.
    pub system: String,
    /// Index of the system in [`CampaignReport::systems`].
    pub system_index: usize,
    /// Label of the cell's method column.
    pub method: String,
    /// Seeds of the cell's runs, in run order.
    pub seeds: Vec<u64>,
    /// Index into [`CampaignReport::runs`] of the best-of-seeds run
    /// (highest reward).
    pub best_run: usize,
    /// Mean reward across the cell's runs.
    pub mean_reward: f64,
    /// Worst (most negative) reward across the cell's runs.
    pub min_reward: f64,
    /// Best reward across the cell's runs.
    pub max_reward: f64,
    /// Summed optimisation runtime of the cell's runs.
    pub total_runtime: Duration,
    /// Total candidate evaluations across the cell's runs, split by
    /// evaluation engine.
    pub eval_counts: EvalCounts,
    /// Mean wall-clock per candidate evaluation across the cell's runs
    /// (`total_runtime / eval_counts.total()`); zero when no evaluations
    /// ran. The per-move speed metric the incremental engine targets.
    pub mean_eval_time: Duration,
    /// Training throughput across the cell's runs: total episodes divided
    /// by total optimisation runtime, in episodes per second. `None` for
    /// cells whose runs report no rollout telemetry (the SA baseline). The
    /// per-episode speed metric the parallel rollout engine targets.
    pub episodes_per_s: Option<f64>,
}

/// The aggregated result of one campaign; see the [module docs](self).
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// The spec's systems axis (cloned so the report is self-contained and
    /// can render placement documents).
    pub systems: Vec<ChipletSystem>,
    /// Every completed run in grid order. Failed grid cells are absent here
    /// and present in [`failures`](Self::failures); each record's
    /// [`index`](RunRecord::index) ties it back to the grid.
    pub runs: Vec<RunRecord>,
    /// Every failed run in grid order. Empty when the whole grid completed.
    pub failures: Vec<RunFailure>,
    /// Per-(system, method) summaries in grid order. A cell whose runs all
    /// failed has no summary.
    pub cells: Vec<CellSummary>,
    /// Wall-clock of the whole campaign, prewarm and aggregation included.
    pub wall_clock: Duration,
    /// Worker threads the campaign ran with.
    pub parallelism: usize,
    /// Runs reconstructed from a streaming sink's prior records instead of
    /// executed (zero for a fresh campaign).
    pub resumed_runs: usize,
    /// Scheduler-utilisation telemetry for the runs this execution actually
    /// performed.
    pub scheduler: SchedulerTelemetry,
    /// The shared characterisation cache's telemetry delta for this
    /// campaign: `misses` counts characterisations actually performed —
    /// with a warm cache it is zero, and it never exceeds the number of
    /// distinct package configurations in the grid.
    pub cache: ThermalCacheStats,
}

impl CampaignReport {
    /// The best-of-seeds outcome of a (system, method) cell, if present.
    pub fn best_outcome(&self, system: &str, method: &str) -> Option<&FloorplanOutcome> {
        self.cells
            .iter()
            .find(|c| c.system == system && c.method == method)
            .map(|c| &self.runs[c.best_run].outcome)
    }

    /// The cell summary of a (system, method) pair, if present.
    pub fn cell(&self, system: &str, method: &str) -> Option<&CellSummary> {
        self.cells
            .iter()
            .find(|c| c.system == system && c.method == method)
    }
}

fn write_cell(w: &mut Writer, report: &CampaignReport, cell: &CellSummary) {
    let best = &report.runs[cell.best_run];
    w.object(Layout::Block, |w| {
        w.field("system", &cell.system)
            .field("method", &cell.method);
        w.key("seeds").array(Layout::Inline, |w| {
            for seed in &cell.seeds {
                w.value(seed);
            }
        });
        w.field("best_seed", best.seed)
            .field("mean_reward", cell.mean_reward)
            .field("min_reward", cell.min_reward)
            .field("max_reward", cell.max_reward)
            .field("evaluations", cell.eval_counts.total())
            .field("full_evals", cell.eval_counts.full)
            .field("incremental_evals", cell.eval_counts.incremental);
        w.key(TIMING).object(Layout::Inline, |w| {
            w.field("total_runtime_s", cell.total_runtime)
                .field("mean_eval_us", cell.mean_eval_time.as_secs_f64() * 1e6)
                .field("episodes_per_s", cell.episodes_per_s);
        });
        write_outcome(
            w.key("best"),
            &report.systems[cell.system_index],
            &best.outcome,
        );
    });
}

fn write_run(w: &mut Writer, run: &RunRecord) {
    let outcome = &run.outcome;
    w.object(Layout::Inline, |w| {
        w.field("index", run.index)
            .field("system", &run.system)
            .field("method", &run.method)
            .field("seed", run.seed)
            .field("reward", outcome.breakdown.reward)
            .field("wirelength_mm", outcome.breakdown.wirelength_mm)
            .field("max_temperature_c", outcome.breakdown.max_temperature_c)
            .field("evaluations", outcome.evaluations)
            .field("eval_mode", outcome.evaluation.mode.label())
            .field("full_evals", outcome.evaluation.counts.full)
            .field("incremental_evals", outcome.evaluation.counts.incremental);
        w.key(TIMING).object(Layout::Inline, |w| {
            w.field("runtime_s", outcome.runtime)
                .field("cache_hits", outcome.thermal_prep.cache_hits)
                .field("cache_misses", outcome.thermal_prep.cache_misses);
        });
    });
}

fn write_failure(w: &mut Writer, failure: &RunFailure) {
    w.object(Layout::Inline, |w| {
        w.field("index", failure.index)
            .field("system", &failure.system)
            .field("system_index", failure.system_index)
            .field("method", &failure.method)
            .field("seed", failure.seed)
            .field("error", failure.error.to_string());
    });
}

fn write_scheduler(w: &mut Writer, scheduler: &SchedulerTelemetry) {
    w.object(Layout::Block, |w| {
        w.key("workers").array(Layout::Block, |w| {
            for (worker, telemetry) in scheduler.workers.iter().enumerate() {
                w.object(Layout::Inline, |w| {
                    w.field("worker", worker)
                        .field("busy_s", telemetry.busy)
                        .field("executed", telemetry.runs);
                });
            }
        });
        w.key("drain").array(Layout::Block, |w| {
            for event in &scheduler.drain {
                w.object(Layout::Inline, |w| {
                    w.field("index", event.index)
                        .field("worker", event.worker)
                        .field("started_s", event.started)
                        .field("finished_s", event.finished);
                });
            }
        });
    });
}

/// Renders a campaign report as the documented campaign document.
pub fn campaign_json(report: &CampaignReport) -> String {
    let mut w = Writer::pretty();
    w.object(Layout::Block, |w| {
        w.field("schema", CAMPAIGN_SCHEMA)
            .field("parallelism", report.parallelism);
        w.key(TIMING).object(Layout::Block, |w| {
            w.field("resumed_runs", report.resumed_runs)
                .field("wall_clock_s", report.wall_clock);
            w.key("cache").object(Layout::Inline, |w| {
                w.field("hits", report.cache.hits)
                    .field("misses", report.cache.misses)
                    .field("characterization_s", report.cache.characterization_time);
            });
            write_scheduler(w.key("scheduler"), &report.scheduler);
        });
        w.key("cells").array(Layout::Block, |w| {
            for cell in &report.cells {
                write_cell(w, report, cell);
            }
        });
        w.key("runs").array(Layout::Block, |w| {
            for run in &report.runs {
                write_run(w, run);
            }
        });
        w.key("failures").array(Layout::Block, |w| {
            for failure in &report.failures {
                write_failure(w, failure);
            }
        });
    });
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CampaignEngine, CampaignMethod, CampaignSpec};
    use rlp_chiplet::{Chiplet, ChipletSystem, Net};
    use rlp_thermal::{ThermalBackend, ThermalConfig};
    use rlplanner::report::OUTCOME_SCHEMA;
    use rlplanner::{Budget, Method};

    fn tiny_system(name: &str) -> ChipletSystem {
        let mut sys = ChipletSystem::new(name, 24.0, 24.0);
        let a = sys.add_chiplet(Chiplet::new("a", 6.0, 6.0, 20.0));
        let b = sys.add_chiplet(Chiplet::new("b", 5.0, 5.0, 10.0));
        sys.add_net(Net::new(a, b, 32));
        sys
    }

    fn tiny_report() -> CampaignReport {
        let spec = CampaignSpec::builder()
            .system(tiny_system("alpha"))
            .method(CampaignMethod::new(
                "sa",
                Method::sa(),
                ThermalBackend::Grid {
                    config: ThermalConfig::with_grid(8, 8),
                },
            ))
            .seeds([1, 2])
            .budget(Budget::Evaluations(8))
            .build()
            .unwrap();
        CampaignEngine::new().run(&spec).unwrap()
    }

    #[test]
    fn campaign_document_has_the_documented_shape_and_order() {
        let report = tiny_report();
        let json = campaign_json(&report);
        let keys = [
            "\"schema\"",
            "\"parallelism\"",
            "\"timing\"",
            "\"resumed_runs\"",
            "\"wall_clock_s\"",
            "\"cache\"",
            "\"scheduler\"",
            "\"cells\"",
            "\"runs\"",
            "\"failures\"",
        ];
        let positions: Vec<usize> = keys
            .iter()
            .map(|k| json.find(k).unwrap_or_else(|| panic!("missing key {k}")))
            .collect();
        assert!(
            positions.windows(2).all(|w| w[0] < w[1]),
            "top-level keys out of order"
        );
        assert!(json.starts_with(&format!("{{\n  \"schema\": \"{CAMPAIGN_SCHEMA}\"")));
        // Each cell embeds the full outcome document of its best run.
        assert!(json.contains(&format!("\"schema\": \"{OUTCOME_SCHEMA}\"")));
        assert!(json.contains("\"best_seed\""));
        assert!(json.contains("\"cache_hits\""));
        // Evaluation telemetry is aggregated per cell and per run.
        assert!(json.contains("\"mean_eval_us\""));
        assert!(json.contains("\"full_evals\""));
        assert!(json.contains("\"incremental_evals\""));
        // The grid backend has no incremental state, so these SA runs
        // report full evaluation.
        assert!(json.contains("\"eval_mode\": \"full\""));
        // Two runs, and the best run's embedded manifest: a method object
        // carries no seed of its own.
        assert_eq!(json.matches("\"seed\": ").count(), 2 + 1);
        // An all-green campaign still renders the failure and scheduler
        // sections (empty / populated respectively).
        assert!(json.contains("\"failures\": []"));
        assert!(json.contains("\"busy_s\""));
        assert!(json.contains("\"drain\""));
    }

    #[test]
    fn scheduler_telemetry_accounts_for_every_executed_run() {
        let report = tiny_report();
        assert_eq!(report.resumed_runs, 0);
        assert!(report.failures.is_empty());
        assert!(!report.scheduler.workers.is_empty());
        let executed: usize = report.scheduler.workers.iter().map(|w| w.runs).sum();
        assert_eq!(executed, report.runs.len());
        assert_eq!(report.scheduler.drain.len(), report.runs.len());
        for event in &report.scheduler.drain {
            assert!(event.index < report.runs.len());
            assert!(event.worker < report.scheduler.workers.len());
            assert!(event.finished >= event.started);
        }
        // Run records carry their grid index; a single-cell serial campaign
        // drains in grid order.
        let indices: Vec<usize> = report.runs.iter().map(|r| r.index).collect();
        assert_eq!(indices, vec![0, 1]);
    }

    #[test]
    fn document_render_is_deterministic() {
        let report = tiny_report();
        assert_eq!(campaign_json(&report), campaign_json(&report));
    }

    #[test]
    fn best_outcome_and_cell_lookups_work() {
        let report = tiny_report();
        let cell = report.cell("alpha", "sa").unwrap();
        assert_eq!(cell.seeds, vec![1, 2]);
        assert!(cell.min_reward <= cell.max_reward);
        assert!(cell.mean_reward <= cell.max_reward && cell.mean_reward >= cell.min_reward);
        let best = report.best_outcome("alpha", "sa").unwrap();
        assert_eq!(best.breakdown.reward, cell.max_reward);
        assert!(report.best_outcome("alpha", "nope").is_none());
    }

    #[test]
    fn cells_aggregate_evaluation_telemetry() {
        let report = tiny_report();
        let cell = report.cell("alpha", "sa").unwrap();
        let total: usize = report.runs.iter().map(|r| r.outcome.evaluations).sum();
        assert_eq!(cell.eval_counts.total(), total);
        assert!(cell.eval_counts.total() > 0);
        assert!(cell.mean_eval_time > Duration::ZERO);
        let expected = cell.total_runtime.as_secs_f64() / cell.eval_counts.total() as f64;
        assert!((cell.mean_eval_time.as_secs_f64() - expected).abs() < 1e-9);
    }
}
