//! The campaign engine: a fail-soft, streaming, resumable worker pool.
//!
//! [`CampaignEngine::run_streamed`] drains a [`CampaignSpec`]'s grid with
//! `std::thread::scope` workers pulling run indices off a shared atomic
//! counter. Every run is an independent, seeded
//! [`rlplanner::FloorplanRequest::solve`] whose analyzer comes from the
//! engine's shared
//! [`ThermalModelCache`], so:
//!
//! * each distinct package configuration is characterised exactly once per
//!   cache lifetime, no matter how many runs or threads need it, and
//! * results are stored by grid index, so a campaign run at any parallelism
//!   level produces outcomes byte-identical to the serial execution under
//!   fixed seeds ([`Budget::TimeLimit`](rlplanner::Budget::TimeLimit) cells
//!   are the documented exception — wall-clock budgets stop runs at
//!   machine-load-dependent points).
//!
//! Three properties make long campaigns safe to run unattended:
//!
//! * **Fail-soft.** A run whose solve fails becomes a
//!   [`RunFailure`] in the report's `failures`
//!   list (and an `error` record on the sink) instead of aborting the
//!   campaign; every completed cell keeps its result.
//! * **Streaming.** The moment a run finishes it is emitted through the
//!   caller's [`RunSink`] as one `rlplanner.campaign-run/v1` line, flushed
//!   before the next run lands — a killed campaign loses at most the runs
//!   in flight. A sink write error is the one thing that does abort
//!   ([`CampaignError::Sink`]): records that cannot be persisted must not
//!   be dropped silently.
//! * **Resumable.** A sink that reports prior records (a reopened
//!   [`JsonlSink`](crate::sink::JsonlSink)) has its `ok` records validated
//!   against the spec and reconstructed via
//!   [`rlplanner::outcome_from_value`] instead of re-executed; `error`
//!   records are retried. A record must hold the grid cell's column label
//!   and system, and its manifest must render as the one the spec's run
//!   would record, so a stream never resumes under another budget, warm
//!   start or method configuration. Because streamed outcome documents
//!   re-render byte-identically, a truncated-then-resumed campaign
//!   produces the same deterministic results as an uninterrupted one.

use crate::report::{
    CampaignReport, CellSummary, DrainEvent, RunFailure, RunRecord, SchedulerTelemetry,
    WorkerTelemetry,
};
use crate::sink::{NullSink, RunEvent, RunSink, RUN_RECORD_SCHEMA};
use crate::spec::{CampaignSpec, RunSpec};
use rlp_obs::json::{Decode, Value};
use rlp_thermal::ThermalModelCache;
use rlplanner::report::manifest_json;
use rlplanner::{FloorplanOutcome, Method, PlanError, PrebuiltThermal, RunManifest};
use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Errors produced while executing a campaign. Solve failures are *not*
/// errors anymore — they land in [`CampaignReport::failures`]; only
/// problems with the stream itself abort a campaign.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CampaignError {
    /// The sink failed to persist a run record; the campaign aborts because
    /// a record that cannot be persisted must not be dropped silently.
    /// Every record emitted before this one is already safe, so reopening
    /// the same stream resumes from them.
    Sink {
        /// Grid index of the record that could not be persisted.
        index: usize,
        /// The rendered I/O error.
        reason: String,
    },
    /// A prior record of the stream being resumed is unusable — malformed,
    /// or inconsistent with the spec (wrong schema, out-of-range grid
    /// index, mismatched system/method/seed, duplicate index).
    Resume {
        /// 1-based line number of the offending record.
        line: usize,
        /// What was wrong with it.
        reason: String,
    },
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::Sink { index, reason } => write!(
                f,
                "streaming the record of run {index} failed ({reason}); \
                 records emitted before it are intact and resumable"
            ),
            CampaignError::Resume { line, reason } => {
                write!(f, "cannot resume campaign stream: line {line}: {reason}")
            }
        }
    }
}

impl Error for CampaignError {}

/// What the workers share under the emit lock: the caller's sink, the
/// queue-drain timeline (kept in emit order so it mirrors the stream), and
/// the first sink error.
struct EmitState<'a> {
    sink: &'a mut dyn RunSink,
    drain: Vec<DrainEvent>,
    error: Option<(usize, String)>,
}

/// Executes campaigns against a shared [`ThermalModelCache`]; see the
/// [module docs](self).
#[derive(Debug, Clone, Default)]
pub struct CampaignEngine {
    cache: Arc<ThermalModelCache>,
}

impl CampaignEngine {
    /// An engine with a fresh, empty characterisation cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// An engine sharing an existing cache — how several campaigns (or a
    /// campaign and ad-hoc solves) amortise one characterisation per
    /// package configuration across a whole session.
    pub fn with_cache(cache: Arc<ThermalModelCache>) -> Self {
        Self { cache }
    }

    /// The engine's characterisation cache.
    pub fn cache(&self) -> &Arc<ThermalModelCache> {
        &self.cache
    }

    /// Runs every cell of the grid and aggregates the outcomes, without
    /// streaming — equivalent to [`run_streamed`](Self::run_streamed) with
    /// a [`NullSink`].
    ///
    /// # Errors
    ///
    /// Never fails in practice (a [`NullSink`] cannot error and has no
    /// prior records to resume); the `Result` is kept so callers handle
    /// streaming and non-streaming campaigns uniformly. Failed runs are
    /// reported in [`CampaignReport::failures`], not as errors.
    ///
    /// # Panics
    ///
    /// Panics if a worker thread panics (the panic is propagated).
    pub fn run(&self, spec: &CampaignSpec) -> Result<CampaignReport, CampaignError> {
        self.run_streamed(spec, &mut NullSink)
    }

    /// Runs the grid, emitting each finished run through `sink` as one
    /// `rlplanner.campaign-run/v1` record and resuming from any prior
    /// records the sink reports; see the [module docs](self).
    ///
    /// # Errors
    ///
    /// [`CampaignError::Resume`] if a prior record is malformed or does not
    /// match the spec; [`CampaignError::Sink`] if emitting a record fails.
    /// Failed runs are reported in [`CampaignReport::failures`], not as
    /// errors.
    ///
    /// # Panics
    ///
    /// Panics if a worker thread panics (the panic is propagated).
    pub fn run_streamed(
        &self,
        spec: &CampaignSpec,
        sink: &mut dyn RunSink,
    ) -> Result<CampaignReport, CampaignError> {
        let started = Instant::now();
        let stats_before = self.cache.stats();
        let runs = spec.expand();

        let results: Vec<Mutex<Option<Result<RunRecord, RunFailure>>>> =
            runs.iter().map(|_| Mutex::new(None)).collect();
        let prior: Vec<String> = sink.prior_records().to_vec();
        let mut resumed_runs = 0usize;
        for (line_index, line) in prior.iter().enumerate() {
            let Some(record) = resume_record(spec, &runs, line_index, line)? else {
                continue; // an `error` record: retry the run
            };
            let mut slot = results[record.index]
                .lock()
                .expect("result slot lock poisoned");
            if slot.is_some() {
                return Err(CampaignError::Resume {
                    line: line_index + 1,
                    reason: format!("duplicate record for grid index {}", record.index),
                });
            }
            *slot = Some(Ok(record));
            resumed_runs += 1;
        }

        let workers = spec.parallelism().min(runs.len()).max(1);
        rlp_obs::obs_event!(
            rlp_obs::Level::Info,
            "rlp_engine",
            "campaign started",
            runs = runs.len(),
            resumed = resumed_runs,
            workers = workers,
        );
        let next = AtomicUsize::new(0);
        let abort = AtomicBool::new(false);
        let emit = Mutex::new(EmitState {
            sink,
            drain: Vec::new(),
            error: None,
        });
        let worker_stats: Vec<(Duration, usize)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|worker| {
                    let results = &results;
                    let runs = &runs;
                    let next = &next;
                    let abort = &abort;
                    let emit = &emit;
                    let started = &started;
                    scope.spawn(move || {
                        let mut busy = Duration::ZERO;
                        let mut executed = 0usize;
                        loop {
                            if abort.load(Ordering::SeqCst) {
                                break;
                            }
                            let index = next.fetch_add(1, Ordering::SeqCst);
                            let Some(run) = runs.get(index).copied() else {
                                break;
                            };
                            if results[index]
                                .lock()
                                .expect("result slot lock poisoned")
                                .is_some()
                            {
                                continue; // resumed from the sink's prior records
                            }
                            let method = &spec.methods()[run.method];
                            let system = &spec.systems()[run.system];
                            // Per-run span + metrics ride alongside the
                            // scheduler's own drain telemetry; the
                            // campaign/v1 report path is untouched, so
                            // reports stay byte-identical with obs on.
                            let mut span = rlp_obs::obs_span!(
                                rlp_obs::Level::Debug,
                                "rlp_engine",
                                "campaign.run",
                                index = index,
                                worker = worker,
                                system = system.name(),
                                method = method.label(),
                            );
                            let run_started = started.elapsed();
                            let solved = self.execute(spec, run);
                            let run_finished = started.elapsed();
                            let run_elapsed = run_finished.saturating_sub(run_started);
                            span.field("ok", solved.is_ok());
                            span.end();
                            if solved.is_ok() {
                                rlp_obs::obs_counter!("engine.runs.completed").inc();
                            } else {
                                rlp_obs::obs_counter!("engine.runs.failed").inc();
                            }
                            rlp_obs::obs_histogram!("engine.run_ns").record_duration(run_elapsed);
                            busy += run_elapsed;
                            executed += 1;
                            let result = match solved {
                                Ok(outcome) => Ok(RunRecord {
                                    index,
                                    system: system.name().to_string(),
                                    system_index: run.system,
                                    method: method.label().to_string(),
                                    seed: outcome.manifest.seed,
                                    outcome,
                                }),
                                // The run's seed is the one its request, and a
                                // successful run's manifest, carries.
                                Err(error) => Err(RunFailure {
                                    index,
                                    system: system.name().to_string(),
                                    system_index: run.system,
                                    method: method.label().to_string(),
                                    seed: run.seed,
                                    error,
                                }),
                            };
                            let mut guard = emit.lock().expect("emit lock poisoned");
                            if guard.error.is_some() {
                                break;
                            }
                            let event = match &result {
                                Ok(record) => RunEvent::Completed {
                                    run: record,
                                    system,
                                },
                                Err(failure) => RunEvent::Failed { failure },
                            };
                            match guard.sink.emit(&event) {
                                Ok(()) => {
                                    guard.drain.push(DrainEvent {
                                        index,
                                        worker,
                                        started: run_started,
                                        finished: run_finished,
                                    });
                                    drop(guard);
                                    *results[index].lock().expect("result slot lock poisoned") =
                                        Some(result);
                                }
                                Err(err) => {
                                    guard.error = Some((index, err.to_string()));
                                    abort.store(true, Ordering::SeqCst);
                                    break;
                                }
                            }
                        }
                        (busy, executed)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|handle| handle.join().expect("worker thread panicked"))
                .collect()
        });
        let emit_state = emit.into_inner().expect("emit lock poisoned");
        if let Some((index, reason)) = emit_state.error {
            return Err(CampaignError::Sink { index, reason });
        }

        let mut records = Vec::with_capacity(runs.len());
        let mut failures = Vec::new();
        for slot in results {
            let result = slot
                .into_inner()
                .expect("result slot lock poisoned")
                .expect("every grid index was drained by a worker");
            match result {
                Ok(record) => records.push(record),
                Err(failure) => failures.push(failure),
            }
        }

        let cells = aggregate(spec, &records);
        rlp_obs::obs_event!(
            rlp_obs::Level::Info,
            "rlp_engine",
            "campaign finished",
            completed = records.len(),
            failed = failures.len(),
            wall_clock_s = started.elapsed().as_secs_f64(),
        );
        Ok(CampaignReport {
            systems: spec.systems().to_vec(),
            runs: records,
            failures,
            cells,
            wall_clock: started.elapsed(),
            parallelism: spec.parallelism(),
            resumed_runs,
            scheduler: SchedulerTelemetry {
                workers: worker_stats
                    .into_iter()
                    .map(|(busy, runs)| WorkerTelemetry { busy, runs })
                    .collect(),
                drain: emit_state.drain,
            },
            cache: self.cache.stats().since(&stats_before),
        })
    }

    /// Executes one run: analyzer from the shared cache, then a facade
    /// solve carrying the prebuilt analyzer and its cache telemetry.
    fn execute(&self, spec: &CampaignSpec, run: RunSpec) -> Result<FloorplanOutcome, PlanError> {
        let method = &spec.methods()[run.method];
        let system = &spec.systems()[run.system];
        let (analyzer, prep) = method.thermal().build_cached(system, &self.cache)?;
        let prebuilt = PrebuiltThermal::new(method.thermal().clone(), Arc::new(analyzer), prep);
        let request = spec
            .request(run, Some(prebuilt))
            .map_err(PlanError::Config)?;
        request.solve()
    }
}

/// Validates one prior stream line against the spec and reconstructs its
/// run record. Returns `Ok(None)` for `error` records, which are retried.
fn resume_record(
    spec: &CampaignSpec,
    runs: &[RunSpec],
    line_index: usize,
    line: &str,
) -> Result<Option<RunRecord>, CampaignError> {
    let fail = |reason: String| CampaignError::Resume {
        line: line_index + 1,
        reason,
    };
    let value = Value::parse(line).map_err(|err| fail(format!("invalid JSON: {err}")))?;
    let text = |key: &str| {
        value
            .get(key)
            .and_then(Value::as_str)
            .ok_or_else(|| fail(format!("missing `{key}` field")))
    };
    let uint = |key: &str| {
        value
            .get(key)
            .and_then(u64::decode)
            .ok_or_else(|| fail(format!("missing or invalid `{key}` field")))
    };
    let schema = text("schema")?;
    if schema != RUN_RECORD_SCHEMA {
        return Err(fail(format!(
            "unknown schema `{schema}` (expected `{RUN_RECORD_SCHEMA}`)"
        )));
    }
    let index = uint("index")? as usize;
    if index >= runs.len() {
        return Err(fail(format!(
            "grid index {index} out of range for this spec ({} runs)",
            runs.len()
        )));
    }
    match text("status")? {
        "error" => Ok(None),
        "ok" => {
            let run = runs[index];
            let method = &spec.methods()[run.method];
            let system = &spec.systems()[run.system];
            let record_method = text("method")?;
            if record_method != method.label() {
                return Err(fail(format!(
                    "grid index {index} is method `{}` in this spec but `{record_method}` \
                     in the stream — the stream was produced by a different spec",
                    method.label()
                )));
            }
            let outcome_value = value
                .get("outcome")
                .ok_or_else(|| fail("missing `outcome` field".to_string()))?;
            let outcome = rlplanner::outcome_from_value(outcome_value, system)
                .map_err(|err| fail(format!("grid index {index}: {err}")))?;
            let mut expected = spec
                .request(run, None)
                .map_err(|err| fail(format!("grid index {index}: {err}")))?
                .manifest();
            // A column that pins no policy checksum runs whatever file is
            // at its path, so it takes the recorded one.
            if let (Method::Pretrained { config }, Method::Pretrained { config: recorded }) =
                (&mut expected.method, &outcome.manifest.method)
            {
                config.checksum = config.checksum.or(recorded.checksum);
            }
            if let Some(mismatch) = manifest_mismatch(&expected, &outcome.manifest) {
                return Err(fail(format!(
                    "grid index {index}: {mismatch} — the stream was produced by a \
                     different spec"
                )));
            }
            Ok(Some(RunRecord {
                index,
                system: system.name().to_string(),
                system_index: run.system,
                method: method.label().to_string(),
                seed: run.seed,
                outcome,
            }))
        }
        other => Err(fail(format!("unknown status `{other}`"))),
    }
}

/// Names the first manifest member a recorded run differs in from the run
/// this spec would make, comparing renderings; `None` when they agree.
fn manifest_mismatch(expected: &RunManifest, recorded: &RunManifest) -> Option<String> {
    let render = |manifest| Value::parse(&manifest_json(manifest)).expect("a manifest renders");
    let (Value::Obj(members), recorded) = (render(expected), render(recorded)) else {
        unreachable!("a manifest renders as an object")
    };
    members.into_iter().find_map(|(key, value)| {
        let want = value.render();
        let found = recorded
            .get(&key)
            .map_or_else(|| "nothing".into(), Value::render);
        (want != found)
            .then(|| format!("manifest `{key}` is {want} in this spec but {found} in the stream"))
    })
}

/// Aggregates run records into per-(system, method) cell summaries, in grid
/// order. Cells whose runs all failed produce no summary.
fn aggregate(spec: &CampaignSpec, records: &[RunRecord]) -> Vec<CellSummary> {
    let mut cells = Vec::with_capacity(spec.systems().len() * spec.methods().len());
    for (system_index, system) in spec.systems().iter().enumerate() {
        for method in spec.methods() {
            let members: Vec<(usize, &RunRecord)> = records
                .iter()
                .enumerate()
                .filter(|(_, r)| r.system_index == system_index && r.method == method.label())
                .collect();
            if members.is_empty() {
                continue;
            }
            let rewards: Vec<f64> = members
                .iter()
                .map(|(_, r)| r.outcome.breakdown.reward)
                .collect();
            // A degenerate run can report a NaN reward (the report module
            // renders those as JSON null), which must not panic away a
            // completed campaign; NaN runs are excluded from best-of-seeds
            // rather than ranked.
            let best_run = members
                .iter()
                .filter(|(_, r)| !r.outcome.breakdown.reward.is_nan())
                .max_by(|(_, a), (_, b)| {
                    a.outcome
                        .breakdown
                        .reward
                        .total_cmp(&b.outcome.breakdown.reward)
                })
                .or_else(|| members.first())
                .map(|(index, _)| *index)
                .expect("cell has at least one run");
            let total_runtime = members
                .iter()
                .map(|(_, r)| r.outcome.runtime)
                .sum::<Duration>();
            let eval_counts =
                members
                    .iter()
                    .fold(rlplanner::EvalCounts::default(), |mut acc, (_, r)| {
                        acc.full += r.outcome.evaluation.counts.full;
                        acc.incremental += r.outcome.evaluation.counts.incremental;
                        acc
                    });
            let mean_eval_time = match eval_counts.total() {
                0 => Duration::ZERO,
                evals => Duration::from_secs_f64(total_runtime.as_secs_f64() / evals as f64),
            };
            // Training throughput over the runs that report rollout
            // telemetry (RL methods): total episodes / their total runtime.
            // Episodes come from the rollout telemetry, NOT from
            // `outcome.evaluations` — that counts objective evaluations
            // (hundreds per episode under incremental evaluation) and
            // inflates the throughput by orders of magnitude.
            let training_runs: Vec<&RunRecord> = members
                .iter()
                .filter(|(_, r)| r.outcome.training.is_some())
                .map(|(_, r)| *r)
                .collect();
            let episodes_per_s = (!training_runs.is_empty()).then(|| {
                let episodes: usize = training_runs
                    .iter()
                    .filter_map(|r| r.outcome.training.as_ref())
                    .map(|t| t.episodes)
                    .sum();
                let runtime: f64 = training_runs
                    .iter()
                    .map(|r| r.outcome.runtime.as_secs_f64())
                    .sum();
                episodes as f64 / runtime.max(f64::MIN_POSITIVE)
            });
            cells.push(CellSummary {
                system: system.name().to_string(),
                system_index,
                method: method.label().to_string(),
                seeds: members.iter().map(|(_, r)| r.seed).collect(),
                best_run,
                mean_reward: rewards.iter().sum::<f64>() / rewards.len() as f64,
                min_reward: rewards.iter().copied().fold(f64::INFINITY, f64::min),
                max_reward: rewards.iter().copied().fold(f64::NEG_INFINITY, f64::max),
                total_runtime,
                eval_counts,
                mean_eval_time,
                episodes_per_s,
            });
        }
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::CampaignMethod;
    use rlp_chiplet::{Chiplet, ChipletSystem, Net, Placement};
    use rlp_thermal::{ThermalBackend, ThermalConfig};
    use rlplanner::{
        Budget, EvalCounts, EvalMode, EvalTelemetry, FloorplanRequest, Method, RewardBreakdown,
        RewardConfig, RunManifest, ThermalPrep, TrainingTelemetry,
    };

    fn tiny_system() -> ChipletSystem {
        let mut sys = ChipletSystem::new("alpha", 24.0, 24.0);
        let a = sys.add_chiplet(Chiplet::new("a", 6.0, 6.0, 20.0));
        let b = sys.add_chiplet(Chiplet::new("b", 5.0, 5.0, 10.0));
        sys.add_net(Net::new(a, b, 32));
        sys
    }

    fn two_method_spec() -> CampaignSpec {
        let grid = ThermalBackend::Grid {
            config: ThermalConfig::with_grid(8, 8),
        };
        CampaignSpec::builder()
            .system(tiny_system())
            .method(CampaignMethod::new("sa", Method::sa(), grid.clone()))
            .method(CampaignMethod::new("rl", Method::rl(), grid))
            .seeds([1, 2])
            .base(FloorplanRequest::builder().budget(Budget::Evaluations(8)))
            .build()
            .unwrap()
    }

    /// A synthetic record: aggregation only reads reward, runtime,
    /// evaluation counts, training telemetry and the labels, so the rest
    /// can be minimal.
    #[allow(clippy::too_many_arguments)]
    fn record(
        index: usize,
        method: &str,
        seed: u64,
        reward: f64,
        evaluations: usize,
        runtime: Duration,
        counts: EvalCounts,
        training: Option<TrainingTelemetry>,
    ) -> RunRecord {
        let system = tiny_system();
        RunRecord {
            index,
            system: system.name().to_string(),
            system_index: 0,
            method: method.to_string(),
            seed,
            outcome: rlplanner::FloorplanOutcome {
                placement: Placement::for_system(&system),
                breakdown: RewardBreakdown {
                    reward,
                    wirelength_mm: 10.0,
                    max_temperature_c: 60.0,
                    eval_mode: EvalMode::Full,
                },
                telemetry: Vec::new(),
                evaluations,
                evaluation: EvalTelemetry {
                    mode: EvalMode::Full,
                    counts,
                },
                training,
                runtime,
                thermal_prep: ThermalPrep::default(),
                manifest: RunManifest {
                    system_name: system.name().to_string(),
                    chiplet_count: system.chiplets().count(),
                    method: Method::sa(),
                    thermal: ThermalBackend::Grid {
                        config: ThermalConfig::with_grid(8, 8),
                    },
                    reward: RewardConfig::default(),
                    seed,
                    budget: None,
                    warm_start: false,
                },
            },
        }
    }

    fn training(episodes: usize) -> TrainingTelemetry {
        TrainingTelemetry {
            episodes,
            parallel_envs: 1,
            episodes_per_s: 0.0,
        }
    }

    #[test]
    fn episodes_per_s_counts_training_episodes_not_evaluations() {
        // 6 episodes produced 600 objective evaluations in 2 s. Correct
        // throughput: 3 episodes/s. Summing `outcome.evaluations` instead
        // (the old bug) would report 300 — a 100x inflation.
        let spec = two_method_spec();
        let records = vec![record(
            2,
            "rl",
            1,
            -1.0,
            600,
            Duration::from_secs(2),
            EvalCounts {
                full: 6,
                incremental: 594,
            },
            Some(training(6)),
        )];
        let cells = aggregate(&spec, &records);
        let cell = cells.iter().find(|c| c.method == "rl").unwrap();
        let eps = cell.episodes_per_s.unwrap();
        assert!(
            (eps - 3.0).abs() < 1e-9,
            "episodes_per_s should be 6 episodes / 2 s = 3, got {eps}"
        );
    }

    #[test]
    fn all_nan_reward_cell_aggregates_without_panicking() {
        let spec = two_method_spec();
        let records = vec![
            record(
                0,
                "sa",
                1,
                f64::NAN,
                4,
                Duration::from_secs(1),
                EvalCounts {
                    full: 4,
                    incremental: 0,
                },
                None,
            ),
            record(
                1,
                "sa",
                2,
                f64::NAN,
                4,
                Duration::from_secs(1),
                EvalCounts {
                    full: 4,
                    incremental: 0,
                },
                None,
            ),
        ];
        let cells = aggregate(&spec, &records);
        let cell = cells.iter().find(|c| c.method == "sa").unwrap();
        // No run is rankable, so best-of-seeds falls back to the first.
        assert_eq!(cell.best_run, 0);
        assert!(cell.mean_reward.is_nan());
        assert_eq!(cell.seeds, vec![1, 2]);
    }

    #[test]
    fn mixed_rl_and_sa_cells_aggregate_independently() {
        let spec = two_method_spec();
        let records = vec![
            record(
                0,
                "sa",
                1,
                -2.0,
                8,
                Duration::from_secs(1),
                EvalCounts {
                    full: 8,
                    incremental: 0,
                },
                None,
            ),
            record(
                2,
                "rl",
                1,
                -1.5,
                120,
                Duration::from_secs(3),
                EvalCounts {
                    full: 1,
                    incremental: 119,
                },
                Some(training(12)),
            ),
        ];
        let cells = aggregate(&spec, &records);
        assert_eq!(cells.len(), 2);
        let sa = cells.iter().find(|c| c.method == "sa").unwrap();
        let rl = cells.iter().find(|c| c.method == "rl").unwrap();
        // The SA baseline has no rollout telemetry: no throughput figure.
        assert!(sa.episodes_per_s.is_none());
        let eps = rl.episodes_per_s.unwrap();
        assert!((eps - 4.0).abs() < 1e-9, "12 episodes / 3 s, got {eps}");
        assert_eq!(sa.eval_counts.total(), 8);
        assert_eq!(rl.eval_counts.total(), 120);
    }

    #[test]
    fn mean_eval_time_is_zero_when_no_evaluations_ran() {
        let spec = two_method_spec();
        let records = vec![record(
            0,
            "sa",
            1,
            -2.0,
            0,
            Duration::from_secs(1),
            EvalCounts::default(),
            None,
        )];
        let cells = aggregate(&spec, &records);
        let cell = cells.iter().find(|c| c.method == "sa").unwrap();
        assert_eq!(cell.eval_counts.total(), 0);
        assert_eq!(cell.mean_eval_time, Duration::ZERO);
    }

    #[test]
    fn cells_with_no_completed_runs_are_skipped() {
        // With only an "sa" record present, the "rl" cell (all runs failed
        // or absent) produces no summary instead of a degenerate one.
        let spec = two_method_spec();
        let records = vec![record(
            0,
            "sa",
            1,
            -2.0,
            4,
            Duration::from_secs(1),
            EvalCounts {
                full: 4,
                incremental: 0,
            },
            None,
        )];
        let cells = aggregate(&spec, &records);
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].method, "sa");
    }
}
