//! `rlp-obs`: the workspace's observability substrate — a process-wide
//! metrics registry (counters, gauges, log-scale latency histograms with
//! percentile extraction, rendered as `rlplanner.metrics/v1` JSON) plus
//! structured, levelled events and spans with pluggable sinks — and the
//! workspace's one JSON layer, [`json`]: every document any crate writes
//! or reads goes through its writer and parser.
//!
//! Hand-rolled on `std` only: the build environment vendors its few
//! dependencies and this crate sits *beneath* every other workspace crate,
//! so it depends on nothing and instruments everything — the thermal
//! cache, the SA hot loop, RL training, campaign runs and the serving
//! daemon all report through the same registry and clock.
//!
//! # Both halves default to off
//!
//! Metrics recording and log emission are independently gated and both
//! start disabled, so a library user who never heard of observability pays
//! ~one relaxed atomic load per instrumented site (see
//! [`metrics`](self::metrics#cost-model) and [`log`](self::log#cost-model)
//! for the exact cost model; the `obs_overhead` bench in `rlp-bench` holds
//! the disabled path to within noise of uninstrumented code). Binaries opt
//! in explicitly ([`set_metrics_enabled`], [`set_max_level`]) or via the
//! environment ([`init_from_env`]: `RLP_LOG`, `RLP_METRICS`, `RLP_TRACE`).
//!
//! # Typical call sites
//!
//! ```
//! use rlp_obs::{obs_counter, obs_histogram, obs_event, obs_span, Level, Stopwatch};
//!
//! // Counting is one macro call; the handle resolves once per site.
//! obs_counter!("thermal.cache.hits").inc();
//!
//! // Timing skips the clock entirely while metrics are off.
//! let timer = Stopwatch::start();
//! // ... do the work ...
//! timer.stop(obs_histogram!("thermal.characterization_ns"));
//!
//! // Events and spans: levelled, structured, zero-cost when filtered.
//! obs_event!(Level::Info, "doc", "characterised model", grid = 64usize);
//! let _span = obs_span!(Level::Debug, "doc", "solve", job = 3u64);
//! ```

pub mod json;
pub mod log;
pub mod metrics;

/// The progress callback every optimiser reports through:
/// `on_candidate(index, reward, best_reward)`, called once per evaluated
/// candidate floorplan — an RL training episode, an SA objective
/// evaluation, a legalised gradient-descent iterate or a pretrained
/// rollout.
///
/// The contract every caller may rely on:
///
/// * **Indices are dense:** the first call has index 0 and every later
///   call the previous index plus one.
/// * **Higher reward is better** for every method (SA objectives are
///   negated costs), so streams compare across methods directly.
///   `best_reward` is the best reward seen so far, this candidate
///   included.
/// * It fires **on the solving thread**, synchronously, so a slow callback
///   slows the run — but it **never influences** the run: a solve with a
///   no-op callback produces the same result as one with any other.
///
/// Pass a closure: `&mut |index, reward, best_reward| { ... }` coerces to
/// `&mut OnCandidate`, and `&mut |_, _, _| {}` is the silent callback.
pub type OnCandidate<'a> = dyn FnMut(usize, f64, f64) + 'a;

pub use crate::log::{
    add_sink, emit, event, inert_span, init_from_env, log_enabled, max_level, monotonic_ns,
    set_max_level, set_sinks, span, FieldValue, JsonlSink, Level, LogRecord, LogSink, RecordKind,
    SpanGuard, StderrSink,
};
pub use crate::metrics::{
    metrics_enabled, registry, set_metrics_enabled, Counter, Gauge, Histogram, HistogramSnapshot,
    MetricsRegistry, MetricsSnapshot, Stopwatch, BUCKET_COUNT, METRICS_SCHEMA,
};
