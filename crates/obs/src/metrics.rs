//! The process-wide metrics registry: atomic counters, gauges and
//! log-scale latency histograms.
//!
//! # Cost model
//!
//! Every instrument checks one shared `AtomicBool` (relaxed load) before
//! touching anything else, so an *off* registry costs ~one atomic load per
//! site and records nothing. An *on* registry costs a handful of relaxed
//! `fetch_add`s — there are no locks anywhere on the record path, so
//! instruments can be hammered from every worker thread concurrently and
//! merged at snapshot time.
//!
//! Handles are `Arc`s resolved once per call site (see the
//! [`obs_counter!`](crate::obs_counter), [`obs_gauge!`](crate::obs_gauge)
//! and [`obs_histogram!`](crate::obs_histogram) macros); name lookup takes
//! a registry mutex but only on the first hit of each site.
//!
//! # Histogram layout
//!
//! Histograms use a fixed log-linear bucket grid (the HdrHistogram trick):
//! values `0..8` get exact unit buckets, and every power-of-two octave
//! above is split into 4 linear sub-buckets, giving a worst-case relative
//! error of 25% and [`BUCKET_COUNT`] buckets total covering `0..2^50`
//! nanoseconds (~13 days) — values beyond clamp into the last bucket.
//! Because the grid is global and fixed, per-thread histograms merge by
//! adding bucket counts, and percentile extraction is a cumulative walk.

use crate::json::{Layout, Writer};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Schema identifier carried by rendered metrics snapshots.
pub const METRICS_SCHEMA: &str = "rlplanner.metrics/v1";

/// Linear sub-buckets per power-of-two octave.
const SUB: usize = 4;
/// Values below `DIRECT` get exact unit buckets.
const DIRECT: usize = 2 * SUB;
/// First log-linear octave: bucket values in `[2^FIRST_EXP, 2^(FIRST_EXP+1))`.
const FIRST_EXP: u32 = 3;
/// Last represented octave; larger values clamp into its top bucket.
const LAST_EXP: u32 = 49;

/// Total number of histogram buckets (direct region + 4 per octave).
pub const BUCKET_COUNT: usize = DIRECT + (LAST_EXP - FIRST_EXP + 1) as usize * SUB;

/// The bucket a value lands in.
fn bucket_index(value: u64) -> usize {
    if value < DIRECT as u64 {
        return value as usize;
    }
    let exp = 63 - value.leading_zeros();
    if exp > LAST_EXP {
        return BUCKET_COUNT - 1;
    }
    let sub = ((value >> (exp - 2)) & (SUB as u64 - 1)) as usize;
    DIRECT + (exp - FIRST_EXP) as usize * SUB + sub
}

/// The largest value a bucket represents (inclusive). The last bucket also
/// absorbs everything above the grid, so reported percentiles clamp at
/// `2^50 - 1`.
fn bucket_upper(index: usize) -> u64 {
    debug_assert!(index < BUCKET_COUNT);
    if index < DIRECT {
        return index as u64;
    }
    let offset = index - DIRECT;
    let exp = FIRST_EXP + (offset / SUB) as u32;
    let sub = (offset % SUB) as u64;
    (1u64 << exp) + (sub + 1) * (1u64 << (exp - 2)) - 1
}

/// A monotonically increasing event count.
///
/// Obtain one from a [`MetricsRegistry`] (or the [`obs_counter!`](crate::obs_counter)
/// macro); increments are relaxed atomics and no-ops while the owning
/// registry is disabled.
#[derive(Debug)]
pub struct Counter {
    enabled: Arc<AtomicBool>,
    value: AtomicU64,
}

impl Counter {
    fn new(enabled: Arc<AtomicBool>) -> Self {
        Counter {
            enabled,
            value: AtomicU64::new(0),
        }
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`; a no-op while the registry is disabled.
    #[inline]
    pub fn add(&self, n: u64) {
        if self.enabled.load(Ordering::Relaxed) {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// The current count.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A point-in-time signed value (queue depths, pool sizes).
#[derive(Debug)]
pub struct Gauge {
    enabled: Arc<AtomicBool>,
    value: AtomicI64,
}

impl Gauge {
    fn new(enabled: Arc<AtomicBool>) -> Self {
        Gauge {
            enabled,
            value: AtomicI64::new(0),
        }
    }

    /// Sets the gauge; a no-op while the registry is disabled.
    #[inline]
    pub fn set(&self, value: i64) {
        if self.enabled.load(Ordering::Relaxed) {
            self.value.store(value, Ordering::Relaxed);
        }
    }

    /// Adjusts the gauge by `delta`; a no-op while the registry is disabled.
    #[inline]
    pub fn add(&self, delta: i64) {
        if self.enabled.load(Ordering::Relaxed) {
            self.value.fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// The current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A lock-free log-linear latency histogram (see the
/// [module docs](self) for the bucket layout).
#[derive(Debug)]
pub struct Histogram {
    enabled: Arc<AtomicBool>,
    buckets: Box<[AtomicU64]>,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Histogram {
    fn new(enabled: Arc<AtomicBool>) -> Self {
        let buckets = (0..BUCKET_COUNT).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            enabled,
            buckets,
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one value; a no-op while the registry is disabled.
    #[inline]
    pub fn record(&self, value: u64) {
        if !self.enabled.load(Ordering::Relaxed) {
            return;
        }
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Records a duration in nanoseconds.
    #[inline]
    pub fn record_duration(&self, elapsed: Duration) {
        self.record(u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX));
    }

    /// A consistent-enough copy of the current state. Concurrent recorders
    /// may land between the bucket reads, so the snapshot is a point-in-time
    /// approximation — exact once recording has quiesced.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            sum: self.sum.load(Ordering::Relaxed),
            min: self.min.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// An owned copy of a [`Histogram`]'s state: mergeable across threads, with
/// nearest-rank percentile extraction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    buckets: Vec<u64>,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot::empty()
    }
}

impl HistogramSnapshot {
    /// A snapshot with no recorded values.
    pub fn empty() -> Self {
        HistogramSnapshot {
            buckets: vec![0; BUCKET_COUNT],
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Total number of recorded values.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Sum of all recorded values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded value, or `None` when empty.
    pub fn min(&self) -> Option<u64> {
        (self.count() > 0).then_some(self.min)
    }

    /// Largest recorded value, or `None` when empty.
    pub fn max(&self) -> Option<u64> {
        (self.count() > 0).then_some(self.max)
    }

    /// The nearest-rank `q`-quantile (`q` in `[0, 1]`, clamped), reported
    /// as the upper bound of the bucket holding that rank — so the true
    /// value is ≤ the reported one, within the bucket's 25% relative
    /// width. Returns 0 for an empty histogram.
    pub fn percentile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
        let rank = ((q * count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (index, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_upper(index);
            }
        }
        bucket_upper(BUCKET_COUNT - 1)
    }

    /// Adds another snapshot's counts into this one. Because every
    /// histogram shares the same fixed bucket grid, merging shards is exact
    /// bucket-wise addition.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// `(bucket upper bound, count)` for every non-empty bucket, in
    /// ascending value order.
    pub fn nonempty_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(index, &n)| (bucket_upper(index), n))
    }
}

/// Times one operation against [`metrics_enabled`]: when metrics are off,
/// `start()` never touches the clock, so an instrumented-but-disabled site
/// costs the enabled check and nothing else.
#[derive(Debug)]
#[must_use = "a stopwatch does nothing unless stopped into a histogram"]
pub struct Stopwatch(Option<Instant>);

impl Stopwatch {
    /// Starts timing if the global registry is enabled.
    #[inline]
    pub fn start() -> Self {
        Stopwatch(metrics_enabled().then(Instant::now))
    }

    /// Records the elapsed nanoseconds into `histogram` (if timing).
    #[inline]
    pub fn stop(self, histogram: &Histogram) {
        if let Some(at) = self.0 {
            histogram.record_duration(at.elapsed());
        }
    }
}

/// A named collection of instruments with a shared on/off switch.
///
/// The process-wide instance lives behind [`registry`]; tests build private
/// registries so enabling/disabling never races other tests in the same
/// process. Registries start *enabled* when built directly and *disabled*
/// for the global one — a binary opts in via
/// [`set_metrics_enabled`] or `RLP_METRICS=1` (see
/// [`crate::init_from_env`]).
#[derive(Debug)]
pub struct MetricsRegistry {
    enabled: Arc<AtomicBool>,
    started: Instant,
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry::new()
    }
}

impl MetricsRegistry {
    /// A fresh, enabled registry (the global registry starts disabled).
    pub fn new() -> Self {
        MetricsRegistry::with_enabled(true)
    }

    fn with_enabled(enabled: bool) -> Self {
        MetricsRegistry {
            enabled: Arc::new(AtomicBool::new(enabled)),
            started: Instant::now(),
            counters: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
        }
    }

    /// Flips recording on or off for every instrument of this registry.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether instruments currently record.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// The counter registered under `name`, creating it on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut counters = self.counters.lock().expect("metrics registry poisoned");
        Arc::clone(
            counters
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Counter::new(Arc::clone(&self.enabled)))),
        )
    }

    /// The gauge registered under `name`, creating it on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut gauges = self.gauges.lock().expect("metrics registry poisoned");
        Arc::clone(
            gauges
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Gauge::new(Arc::clone(&self.enabled)))),
        )
    }

    /// The histogram registered under `name`, creating it on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut histograms = self.histograms.lock().expect("metrics registry poisoned");
        Arc::clone(
            histograms
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Histogram::new(Arc::clone(&self.enabled)))),
        )
    }

    /// A point-in-time copy of every instrument, names sorted.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = self
            .counters
            .lock()
            .expect("metrics registry poisoned")
            .iter()
            .map(|(name, c)| (name.clone(), c.get()))
            .collect();
        let gauges = self
            .gauges
            .lock()
            .expect("metrics registry poisoned")
            .iter()
            .map(|(name, g)| (name.clone(), g.get()))
            .collect();
        let histograms = self
            .histograms
            .lock()
            .expect("metrics registry poisoned")
            .iter()
            .map(|(name, h)| (name.clone(), h.snapshot()))
            .collect();
        MetricsSnapshot {
            uptime: self.started.elapsed(),
            counters,
            gauges,
            histograms,
        }
    }
}

/// A point-in-time copy of a registry, renderable as
/// `rlplanner.metrics/v1` JSON.
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// Time since the registry was built.
    pub uptime: Duration,
    /// `(name, count)` pairs, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` pairs, sorted by name.
    pub gauges: Vec<(String, i64)>,
    /// `(name, snapshot)` pairs, sorted by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// Renders the documented `rlplanner.metrics/v1` document:
    ///
    /// ```json
    /// { "schema": "rlplanner.metrics/v1", "uptime_s": 12.345678,
    ///   "counters": { "thermal.cache.hits": 7 },
    ///   "gauges": { "serve.queue.depth": 0 },
    ///   "histograms": { "serve.job.solve_ns": {
    ///       "count": 3, "sum": 450000000, "min": 120000000, "max": 190000000,
    ///       "p50": 159383551, "p90": 191889407, "p99": 191889407,
    ///       "buckets": [{ "le": 127506431, "count": 1 }, ...] } } }
    /// ```
    ///
    /// Histogram `min`/`max` are exact recorded values; `p50`/`p90`/`p99`
    /// and bucket `le` bounds are bucket upper bounds (≤ 25% relative
    /// error). Only non-empty buckets are listed.
    pub fn render_json(&self) -> String {
        let mut w = Writer::pretty();
        w.object(Layout::Inline, |w| {
            w.field("schema", METRICS_SCHEMA);
            w.key("uptime_s").fixed(self.uptime.as_secs_f64(), 6);
            w.key("counters").object(Layout::Inline, |w| {
                for (name, value) in &self.counters {
                    w.field(name, value);
                }
            });
            w.key("gauges").object(Layout::Inline, |w| {
                for (name, value) in &self.gauges {
                    w.field(name, value);
                }
            });
            w.key("histograms").object(Layout::Inline, |w| {
                for (name, h) in &self.histograms {
                    w.key(name).object(Layout::Inline, |w| {
                        w.field("count", h.count())
                            .field("sum", h.sum())
                            .field("min", h.min().unwrap_or(0))
                            .field("max", h.max().unwrap_or(0))
                            .field("p50", h.percentile(0.50))
                            .field("p90", h.percentile(0.90))
                            .field("p99", h.percentile(0.99));
                        w.key("buckets").array(Layout::Inline, |w| {
                            for (le, count) in h.nonempty_buckets() {
                                w.object(Layout::Inline, |w| {
                                    w.field("le", le).field("count", count);
                                });
                            }
                        });
                    });
                }
            });
        });
        w.finish()
    }
}

static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();

/// The process-wide registry. Starts *disabled*: every instrument is a
/// cheap no-op until [`set_metrics_enabled`]`(true)` (or `RLP_METRICS=1`
/// via [`crate::init_from_env`]).
pub fn registry() -> &'static MetricsRegistry {
    GLOBAL.get_or_init(|| MetricsRegistry::with_enabled(false))
}

/// Flips the process-wide registry on or off.
pub fn set_metrics_enabled(on: bool) {
    registry().set_enabled(on);
}

/// Whether the process-wide registry currently records.
#[inline]
pub fn metrics_enabled() -> bool {
    registry().enabled()
}

/// A `&'static Counter` from the global registry, resolved once per call
/// site.
#[macro_export]
macro_rules! obs_counter {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<::std::sync::Arc<$crate::Counter>> =
            ::std::sync::OnceLock::new();
        &**HANDLE.get_or_init(|| $crate::registry().counter($name))
    }};
}

/// A `&'static Gauge` from the global registry, resolved once per call
/// site.
#[macro_export]
macro_rules! obs_gauge {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<::std::sync::Arc<$crate::Gauge>> =
            ::std::sync::OnceLock::new();
        &**HANDLE.get_or_init(|| $crate::registry().gauge($name))
    }};
}

/// A `&'static Histogram` from the global registry, resolved once per call
/// site.
#[macro_export]
macro_rules! obs_histogram {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<::std::sync::Arc<$crate::Histogram>> =
            ::std::sync::OnceLock::new();
        &**HANDLE.get_or_init(|| $crate::registry().histogram($name))
    }};
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn bucket_index_and_upper_are_consistent() {
        // Every probed value lands in a bucket whose upper bound is >= the
        // value, and whose predecessor's upper bound is < the value.
        let probes = [
            0u64,
            1,
            7,
            8,
            9,
            10,
            15,
            16,
            100,
            1_000,
            65_535,
            65_536,
            1_000_000,
            123_456_789,
            u64::from(u32::MAX),
            1 << 49,
            (1 << 50) - 1,
        ];
        for &v in &probes {
            let index = bucket_index(v);
            assert!(bucket_upper(index) >= v, "upper({index}) < {v}");
            if index > 0 {
                assert!(bucket_upper(index - 1) < v, "value {v} fits a lower bucket");
            }
        }
        // Bucket upper bounds are strictly increasing across the grid.
        for index in 1..BUCKET_COUNT {
            assert!(bucket_upper(index) > bucket_upper(index - 1));
        }
        // Relative bucket width stays within 25% in the log-linear region.
        for index in DIRECT..BUCKET_COUNT {
            let hi = bucket_upper(index) as f64;
            let lo = bucket_upper(index - 1) as f64 + 1.0;
            assert!((hi - lo) / lo <= 0.25 + 1e-9, "bucket {index} too wide");
        }
    }

    #[test]
    fn out_of_range_values_clamp_into_the_last_bucket() {
        assert_eq!(bucket_index(1 << 50), BUCKET_COUNT - 1);
        assert_eq!(bucket_index(u64::MAX), BUCKET_COUNT - 1);
        let registry = MetricsRegistry::new();
        let h = registry.histogram("clamp");
        h.record(u64::MAX);
        assert_eq!(h.snapshot().count(), 1);
        assert_eq!(h.snapshot().max(), Some(u64::MAX));
    }

    #[test]
    fn percentiles_use_nearest_rank_on_bucket_upper_bounds() {
        let registry = MetricsRegistry::new();
        let h = registry.histogram("p");
        // Values 0..8 land in exact buckets, so percentiles are exact.
        for v in 0..8 {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count(), 8);
        // rank(0.5) = ceil(0.5 * 8) = 4 -> 4th smallest value = 3.
        assert_eq!(snap.percentile(0.50), 3);
        assert_eq!(snap.percentile(0.0), 0, "q=0 is the minimum");
        assert_eq!(snap.percentile(1.0), 7, "q=1 is the maximum");
        // An approximate region value reports its bucket's upper bound.
        let registry = MetricsRegistry::new();
        let h = registry.histogram("approx");
        h.record(1000);
        let snap = h.snapshot();
        let reported = snap.percentile(0.5);
        assert!((1000..1250).contains(&reported), "25% bucket width");
    }

    #[test]
    fn empty_histogram_is_well_defined() {
        let snap = HistogramSnapshot::empty();
        assert_eq!(snap.count(), 0);
        assert_eq!(snap.percentile(0.5), 0);
        assert_eq!(snap.min(), None);
        assert_eq!(snap.max(), None);
        assert_eq!(snap.nonempty_buckets().count(), 0);
    }

    #[test]
    fn disabled_registry_records_nothing_and_enabling_is_dynamic() {
        let registry = MetricsRegistry::with_enabled(false);
        let c = registry.counter("c");
        let g = registry.gauge("g");
        let h = registry.histogram("h");
        c.inc();
        g.set(5);
        h.record(100);
        assert_eq!((c.get(), g.get(), h.snapshot().count()), (0, 0, 0));
        registry.set_enabled(true);
        c.inc();
        g.set(5);
        h.record(100);
        assert_eq!((c.get(), g.get(), h.snapshot().count()), (1, 5, 1));
    }

    #[test]
    fn concurrent_recording_then_merge_is_exact() {
        const THREADS: u64 = 4;
        const PER_THREAD: u64 = 10_000;
        let registry = Arc::new(MetricsRegistry::new());
        let shared = registry.histogram("shared");
        let counter = registry.counter("events");
        // Half the threads hammer one shared histogram; each also fills a
        // private registry whose shards merge to the same totals.
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let shared = Arc::clone(&shared);
                let counter = Arc::clone(&counter);
                thread::spawn(move || {
                    let private = MetricsRegistry::new();
                    let local = private.histogram("local");
                    for i in 0..PER_THREAD {
                        let v = t * PER_THREAD + i;
                        shared.record(v);
                        local.record(v);
                        counter.inc();
                    }
                    local.snapshot()
                })
            })
            .collect();
        let mut merged = HistogramSnapshot::empty();
        for handle in handles {
            merged.merge(&handle.join().unwrap());
        }
        let direct = shared.snapshot();
        assert_eq!(counter.get(), THREADS * PER_THREAD);
        assert_eq!(direct.count(), THREADS * PER_THREAD);
        assert_eq!(merged, direct, "shard merge equals shared recording");
        assert_eq!(merged.min(), Some(0));
        assert_eq!(merged.max(), Some(THREADS * PER_THREAD - 1));
        assert_eq!(merged.sum(), (0..THREADS * PER_THREAD).sum::<u64>());
    }

    #[test]
    fn snapshot_renders_documented_schema_shape() {
        let registry = MetricsRegistry::new();
        registry.counter("a.count").add(3);
        registry.gauge("b.depth").set(-2);
        registry.histogram("c.lat_ns").record(5);
        registry.histogram("c.lat_ns").record(1000);
        let json = registry.snapshot().render_json();
        assert!(json.starts_with("{ \"schema\": \"rlplanner.metrics/v1\""));
        assert!(json.contains("\"uptime_s\": "));
        assert!(json.contains("\"a.count\": 3"));
        assert!(json.contains("\"b.depth\": -2"));
        assert!(json.contains("\"count\": 2"));
        assert!(json.contains("\"sum\": 1005"));
        assert!(json.contains("\"min\": 5"));
        assert!(json.contains("\"max\": 1000"));
        assert!(json.contains("\"p50\": "));
        assert!(json.contains("\"p90\": "));
        assert!(json.contains("\"p99\": "));
        assert!(json.contains("\"le\": 5, \"count\": 1"));
        // Balanced braces/brackets — cheap structural sanity; the golden
        // test pins the exact bytes.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(crate::json::Value::parse(&json).is_ok());
    }

    #[test]
    fn metric_names_are_json_escaped() {
        let registry = MetricsRegistry::new();
        registry.counter("weird\"name\\with\ncontrol\u{1}").inc();
        let json = registry.snapshot().render_json();
        assert!(json.contains("weird\\\"name\\\\with\\ncontrol\\u0001"));
    }

    #[test]
    fn del_and_c1_controls_in_metric_names_are_escaped() {
        let registry = MetricsRegistry::new();
        registry.counter("del\u{7f}c1\u{85}").inc();
        let json = registry.snapshot().render_json();
        assert!(json.contains("\"del\\u007fc1\\u0085\": 1"), "{json}");
    }

    #[test]
    fn stopwatch_skips_the_clock_when_disabled() {
        let registry = MetricsRegistry::new();
        let h = registry.histogram("sw");
        // What `start` returns while metrics are off.
        Stopwatch(None).stop(&h);
        assert_eq!(h.snapshot().count(), 0);
        // Manual start against an enabled private histogram.
        Stopwatch(Some(Instant::now())).stop(&h);
        assert_eq!(h.snapshot().count(), 1);
    }

    #[test]
    fn registry_returns_the_same_instrument_per_name() {
        let registry = MetricsRegistry::new();
        let a = registry.counter("same");
        let b = registry.counter("same");
        a.inc();
        assert_eq!(b.get(), 1);
        assert!(Arc::ptr_eq(&a, &b));
    }
}
