//! Structured events and spans with levelled filtering and pluggable
//! sinks.
//!
//! # Cost model
//!
//! The level filter is one process-wide `AtomicU8`; a site below the
//! current level costs exactly that relaxed load (the
//! [`obs_event!`](crate::obs_event) / [`obs_span!`](crate::obs_span)
//! macros gate *argument construction* on it, so disabled sites never
//! format strings or read the clock). Logging defaults to **off** until
//! [`set_max_level`] or [`crate::init_from_env`] (`RLP_LOG=info`, …) turns
//! it on.
//!
//! # Records and sinks
//!
//! Every record carries a timestamp from a process-wide monotonic clock
//! ([`monotonic_ns`], nanoseconds since the first observability touch), a
//! level, a `target` (usually the crate or subsystem), a message, typed
//! key/value fields, and — for span ends — the span's elapsed time.
//! Records fan out to the registered [`LogSink`]s; with none registered
//! they fall back to a human-readable stderr format. [`JsonlSink`] appends
//! one JSON object per record to a file, giving a machine-readable trace
//! (`rlp_serve --trace jobs.jsonl` style usage).
//!
//! # Spans
//!
//! [`span`] returns a [`SpanGuard`] that emits a single record *when
//! dropped*, carrying `elapsed_ns` — a deliberate one-record-per-span
//! design: the interesting datum is the duration, and the start time is
//! recoverable as `t_ns - elapsed_ns`.

use crate::json::{Encode, Layout, Writer};
use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::Instant;

/// Log verbosity, ordered: `Error < Warn < Info < Debug < Trace`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    /// The operation failed.
    Error = 1,
    /// Something surprising that does not fail the operation.
    Warn = 2,
    /// Lifecycle milestones (daemon ready, job finished).
    Info = 3,
    /// Per-job / per-run detail (span timelines live here).
    Debug = 4,
    /// Hot-loop detail; expensive, normally off.
    Trace = 5,
}

impl Level {
    /// The lowercase label used on the wire and in `RLP_LOG`.
    pub fn label(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
            Level::Trace => "trace",
        }
    }

    /// Parses a level filter: a level name or `off`/`none` (case
    /// insensitive). `None` means logging disabled.
    ///
    /// # Errors
    ///
    /// Returns the unrecognised input.
    pub fn parse_filter(s: &str) -> Result<Option<Level>, String> {
        match s.to_ascii_lowercase().as_str() {
            "off" | "none" | "" => Ok(None),
            "error" => Ok(Some(Level::Error)),
            "warn" | "warning" => Ok(Some(Level::Warn)),
            "info" => Ok(Some(Level::Info)),
            "debug" => Ok(Some(Level::Debug)),
            "trace" => Ok(Some(Level::Trace)),
            other => Err(format!(
                "unknown log level `{other}` (expected off|error|warn|info|debug|trace)"
            )),
        }
    }
}

/// 0 = off; otherwise the numeric value of the maximum enabled [`Level`].
static MAX_LEVEL: AtomicU8 = AtomicU8::new(0);

/// Sets the maximum enabled level (`None` disables logging entirely).
pub fn set_max_level(level: Option<Level>) {
    MAX_LEVEL.store(level.map_or(0, |l| l as u8), Ordering::Relaxed);
}

/// The current maximum enabled level.
pub fn max_level() -> Option<Level> {
    match MAX_LEVEL.load(Ordering::Relaxed) {
        1 => Some(Level::Error),
        2 => Some(Level::Warn),
        3 => Some(Level::Info),
        4 => Some(Level::Debug),
        5 => Some(Level::Trace),
        _ => None,
    }
}

/// Whether a record at `level` would be emitted — one relaxed atomic load,
/// the disabled fast path of every event/span site.
#[inline]
pub fn log_enabled(level: Level) -> bool {
    level as u8 <= MAX_LEVEL.load(Ordering::Relaxed)
}

/// Nanoseconds since the process's observability epoch (the first call
/// into this function). Monotonic, `Instant`-backed, shared by every
/// record so timelines across threads line up.
pub fn monotonic_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A typed structured-field value.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float (rendered as JSON `null` when non-finite).
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// String (JSON-escaped in machine sinks).
    Str(String),
}

impl Encode for FieldValue {
    fn encode(&self, w: &mut Writer) {
        match self {
            FieldValue::U64(v) => v.encode(w),
            FieldValue::I64(v) => v.encode(w),
            FieldValue::F64(v) => v.encode(w),
            FieldValue::Bool(v) => v.encode(w),
            FieldValue::Str(v) => v.encode(w),
        }
    }
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}

impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}

impl From<u32> for FieldValue {
    fn from(v: u32) -> Self {
        FieldValue::U64(u64::from(v))
    }
}

impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}

impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}

impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

/// What kind of record this is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordKind {
    /// A point-in-time event.
    Event,
    /// A completed span (carries `elapsed_ns`).
    SpanEnd,
}

/// One structured record, as handed to every sink.
#[derive(Debug, Clone)]
pub struct LogRecord {
    /// [`monotonic_ns`] at emission.
    pub t_ns: u64,
    /// Record severity.
    pub level: Level,
    /// Emitting subsystem (crate or module name).
    pub target: &'static str,
    /// Event or span end.
    pub kind: RecordKind,
    /// Human-readable message (the span name for span ends).
    pub message: String,
    /// Span duration; `Some` iff `kind` is [`RecordKind::SpanEnd`].
    pub elapsed_ns: Option<u64>,
    /// Typed key/value context.
    pub fields: Vec<(&'static str, FieldValue)>,
}

/// Where records go. Implementations must be `Send + Sync`; dispatch may
/// happen from any thread.
pub trait LogSink: Send + Sync {
    /// Handles one record.
    fn record(&self, record: &LogRecord);
}

/// Human-readable single-line records on stderr:
///
/// ```text
/// [    0.001772s INFO  rlp_serve] listening on 127.0.0.1:7421 workers=2
/// [    0.143210s DEBUG rlp_serve] job.solve took 141.2ms job=3
/// ```
#[derive(Debug, Default)]
pub struct StderrSink;

impl LogSink for StderrSink {
    fn record(&self, record: &LogRecord) {
        let mut line = String::with_capacity(96);
        let _ = write!(
            line,
            "[{:>12.6}s {:<5} {}] {}",
            record.t_ns as f64 / 1e9,
            record.level.label().to_ascii_uppercase(),
            record.target,
            record.message
        );
        if let Some(elapsed) = record.elapsed_ns {
            let _ = write!(line, " took {:.3}ms", elapsed as f64 / 1e6);
        }
        for (key, value) in &record.fields {
            match value {
                FieldValue::U64(v) => _ = write!(line, " {key}={v}"),
                FieldValue::I64(v) => _ = write!(line, " {key}={v}"),
                FieldValue::F64(v) => _ = write!(line, " {key}={v}"),
                FieldValue::Bool(v) => _ = write!(line, " {key}={v}"),
                FieldValue::Str(v) => _ = write!(line, " {key}={v}"),
            }
        }
        // A failed write (say, to a reader that has gone away) drops the
        // line; logging never panics.
        line.push('\n');
        let _ = std::io::Write::write_all(&mut std::io::stderr().lock(), line.as_bytes());
    }
}

/// Machine-readable trace: one JSON object per record, appended to a file.
///
/// ```json
/// {"t_ns":143210000,"level":"debug","target":"rlp_serve","kind":"span",
///  "message":"job.solve","elapsed_ns":141200000,"fields":{"job":3}}
/// ```
pub struct JsonlSink {
    out: Mutex<BufWriter<File>>,
}

impl JsonlSink {
    /// Creates (or truncates) `path` and streams records to it.
    ///
    /// # Errors
    ///
    /// Returns the underlying file-creation error.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<JsonlSink> {
        Ok(JsonlSink {
            out: Mutex::new(BufWriter::new(File::create(path)?)),
        })
    }

    fn render(record: &LogRecord) -> String {
        let mut w = Writer::compact();
        w.object(Layout::Inline, |w| {
            w.field("t_ns", record.t_ns)
                .field("level", record.level.label())
                .field("target", record.target)
                .field(
                    "kind",
                    match record.kind {
                        RecordKind::Event => "event",
                        RecordKind::SpanEnd => "span",
                    },
                )
                .field("message", &record.message);
            if let Some(elapsed) = record.elapsed_ns {
                w.field("elapsed_ns", elapsed);
            }
            if !record.fields.is_empty() {
                w.key("fields").object(Layout::Inline, |w| {
                    for (key, value) in &record.fields {
                        w.field(key, value);
                    }
                });
            }
        });
        w.finish()
    }
}

impl LogSink for JsonlSink {
    fn record(&self, record: &LogRecord) {
        let line = JsonlSink::render(record);
        let mut out = self.out.lock().expect("jsonl sink poisoned");
        let _ = writeln!(out, "{line}");
        let _ = out.flush();
    }
}

fn sinks() -> &'static RwLock<Vec<Arc<dyn LogSink>>> {
    static SINKS: OnceLock<RwLock<Vec<Arc<dyn LogSink>>>> = OnceLock::new();
    SINKS.get_or_init(|| RwLock::new(Vec::new()))
}

/// Replaces the sink set. With no sinks registered, records fall back to
/// [`StderrSink`].
pub fn set_sinks(new_sinks: Vec<Arc<dyn LogSink>>) {
    *sinks().write().expect("log sinks poisoned") = new_sinks;
}

/// Adds a sink alongside the existing ones.
pub fn add_sink(sink: Arc<dyn LogSink>) {
    sinks().write().expect("log sinks poisoned").push(sink);
}

/// Emits one record to every sink (stderr when none are registered).
/// Prefer the [`obs_event!`](crate::obs_event) macro, which also gates
/// argument construction on [`log_enabled`].
pub fn emit(record: &LogRecord) {
    let registered = sinks().read().expect("log sinks poisoned");
    if registered.is_empty() {
        StderrSink.record(record);
    } else {
        for sink in registered.iter() {
            sink.record(record);
        }
    }
}

/// Emits an event if `level` is enabled.
pub fn event(
    level: Level,
    target: &'static str,
    message: impl Into<String>,
    fields: Vec<(&'static str, FieldValue)>,
) {
    if !log_enabled(level) {
        return;
    }
    emit(&LogRecord {
        t_ns: monotonic_ns(),
        level,
        target,
        kind: RecordKind::Event,
        message: message.into(),
        elapsed_ns: None,
        fields,
    });
}

/// Starts a span; the returned guard emits one [`RecordKind::SpanEnd`]
/// record with the elapsed time when dropped. Disabled levels return an
/// inert guard that never reads the clock.
pub fn span(
    level: Level,
    target: &'static str,
    name: impl Into<String>,
    fields: Vec<(&'static str, FieldValue)>,
) -> SpanGuard {
    if !log_enabled(level) {
        return SpanGuard(None);
    }
    SpanGuard(Some(SpanInner {
        started: Instant::now(),
        level,
        target,
        name: name.into(),
        fields,
    }))
}

struct SpanInner {
    started: Instant,
    level: Level,
    target: &'static str,
    name: String,
    fields: Vec<(&'static str, FieldValue)>,
}

/// Emits its span's end record (with `elapsed_ns`) on drop; see [`span`].
#[must_use = "a span guard measures until dropped; binding it to _ ends it immediately"]
pub struct SpanGuard(Option<SpanInner>);

impl SpanGuard {
    /// Attaches another field to the eventual end record — handy for
    /// results only known mid-span.
    pub fn field(&mut self, key: &'static str, value: impl Into<FieldValue>) {
        if let Some(inner) = &mut self.0 {
            inner.fields.push((key, value.into()));
        }
    }

    /// Whether the span is live (its level was enabled at creation).
    pub fn active(&self) -> bool {
        self.0.is_some()
    }

    /// Ends the span now (equivalent to dropping it).
    pub fn end(self) {}
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(inner) = self.0.take() else {
            return;
        };
        let elapsed = u64::try_from(inner.started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        emit(&LogRecord {
            t_ns: monotonic_ns(),
            level: inner.level,
            target: inner.target,
            kind: RecordKind::SpanEnd,
            message: inner.name,
            elapsed_ns: Some(elapsed),
            fields: inner.fields,
        });
    }
}

/// Emits a structured event: `obs_event!(Level::Info, "rlp_serve",
/// "listening on {addr}", addr = addr.to_string(), workers = workers)`.
/// Message formatting and field construction only happen when the level is
/// enabled.
#[macro_export]
macro_rules! obs_event {
    ($level:expr, $target:expr, $fmt:expr $(, $key:ident = $value:expr)* $(,)?) => {
        if $crate::log_enabled($level) {
            $crate::event(
                $level,
                $target,
                format!($fmt),
                vec![$((stringify!($key), $crate::FieldValue::from($value))),*],
            );
        }
    };
}

/// Opens a span: `let _span = obs_span!(Level::Debug, "rlp_serve",
/// "job.solve", job = id);`. The guard emits one end record with
/// `elapsed_ns` when dropped; when the level is disabled the macro costs
/// one atomic load and constructs nothing.
#[macro_export]
macro_rules! obs_span {
    ($level:expr, $target:expr, $name:expr $(, $key:ident = $value:expr)* $(,)?) => {
        if $crate::log_enabled($level) {
            $crate::span(
                $level,
                $target,
                $name,
                vec![$((stringify!($key), $crate::FieldValue::from($value))),*],
            )
        } else {
            $crate::inert_span()
        }
    };
}

/// An inert [`SpanGuard`] (used by [`obs_span!`](crate::obs_span) on the
/// disabled path).
#[inline]
pub fn inert_span() -> SpanGuard {
    SpanGuard(None)
}

/// What [`init_from_env`] applies, decided from the variables' values
/// alone (`None` for an unset variable).
#[derive(Debug, PartialEq)]
struct EnvSettings {
    metrics: Option<bool>,
    trace_path: Option<String>,
    /// `Some` replaces the level filter; `None` leaves it as it is.
    level: Option<Option<Level>>,
}

fn env_settings(
    log: Option<&str>,
    metrics: Option<&str>,
    trace: Option<&str>,
) -> Result<EnvSettings, String> {
    let trace_path = trace.filter(|path| !path.is_empty()).map(str::to_string);
    let level = match log {
        Some(filter) => Some(Level::parse_filter(filter)?),
        // A trace file with logging off would stay empty.
        None if trace_path.is_some() => Some(Some(Level::Trace)),
        None => None,
    };
    Ok(EnvSettings {
        metrics: metrics
            .map(|value| matches!(value.to_ascii_lowercase().as_str(), "1" | "true" | "on")),
        trace_path,
        level,
    })
}

/// Applies `RLP_LOG` (level filter: `off|error|warn|info|debug|trace`),
/// `RLP_METRICS` (`1`/`true` enables the global metrics registry) and
/// `RLP_TRACE` (path: attach a [`JsonlSink`]). Unset variables leave
/// defaults untouched, except that `RLP_TRACE` without `RLP_LOG` sets the
/// `trace` level. The trace file is then the only registered sink, so
/// records go to it and nothing reaches stderr.
///
/// # Errors
///
/// Returns a description of an unparseable `RLP_LOG`, in which case nothing
/// is applied, or of a trace file that cannot be created.
pub fn init_from_env() -> Result<(), String> {
    let var = |name: &str| std::env::var(name).ok();
    let settings = env_settings(
        var("RLP_LOG").as_deref(),
        var("RLP_METRICS").as_deref(),
        var("RLP_TRACE").as_deref(),
    )?;
    if let Some(on) = settings.metrics {
        crate::set_metrics_enabled(on);
    }
    if let Some(path) = settings.trace_path {
        let sink = JsonlSink::create(&path)
            .map_err(|e| format!("RLP_TRACE: cannot create `{path}`: {e}"))?;
        add_sink(Arc::new(sink));
    }
    if let Some(level) = settings.level {
        set_max_level(level);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    struct CaptureSink {
        records: Mutex<Vec<LogRecord>>,
        hits: AtomicUsize,
    }

    impl CaptureSink {
        fn new() -> Arc<CaptureSink> {
            Arc::new(CaptureSink {
                records: Mutex::new(Vec::new()),
                hits: AtomicUsize::new(0),
            })
        }
    }

    impl LogSink for CaptureSink {
        fn record(&self, record: &LogRecord) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            self.records.lock().unwrap().push(record.clone());
        }
    }

    // The level filter, sink registry and epoch are process-global, so the
    // tests that manipulate them run under one lock to stay order-independent
    // with the rest of the suite.
    fn global_test_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        match LOCK.get_or_init(|| Mutex::new(())).lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    #[test]
    fn level_filter_parses_and_orders() {
        assert_eq!(Level::parse_filter("off"), Ok(None));
        assert_eq!(Level::parse_filter("INFO"), Ok(Some(Level::Info)));
        assert_eq!(Level::parse_filter("warning"), Ok(Some(Level::Warn)));
        assert!(Level::parse_filter("loud").is_err());
        assert!(Level::Error < Level::Trace);
    }

    #[test]
    fn events_respect_the_level_filter_and_reach_sinks() {
        let _guard = global_test_lock();
        let sink = CaptureSink::new();
        set_sinks(vec![Arc::clone(&sink) as Arc<dyn LogSink>]);
        set_max_level(Some(Level::Info));
        assert!(log_enabled(Level::Error) && log_enabled(Level::Info));
        assert!(!log_enabled(Level::Debug));
        event(Level::Info, "test", "kept", vec![("k", 7u64.into())]);
        event(Level::Debug, "test", "filtered", vec![]);
        set_max_level(None);
        event(Level::Error, "test", "off means off", vec![]);
        let records = sink.records.lock().unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].message, "kept");
        assert_eq!(records[0].fields, vec![("k", FieldValue::U64(7))]);
        assert_eq!(records[0].kind, RecordKind::Event);
        drop(records);
        set_sinks(Vec::new());
    }

    #[test]
    fn spans_emit_elapsed_on_drop_and_inert_spans_do_nothing() {
        let _guard = global_test_lock();
        let sink = CaptureSink::new();
        set_sinks(vec![Arc::clone(&sink) as Arc<dyn LogSink>]);
        set_max_level(Some(Level::Debug));
        {
            let mut span = span(Level::Debug, "test", "work", vec![("job", 3u64.into())]);
            span.field("result", "ok");
            assert!(span.active());
        }
        set_max_level(None);
        {
            let span = span(Level::Debug, "test", "invisible", vec![]);
            assert!(!span.active());
        }
        let records = sink.records.lock().unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].kind, RecordKind::SpanEnd);
        assert_eq!(records[0].message, "work");
        assert!(records[0].elapsed_ns.is_some());
        assert_eq!(
            records[0].fields,
            vec![
                ("job", FieldValue::U64(3)),
                ("result", FieldValue::Str("ok".into()))
            ]
        );
        drop(records);
        set_sinks(Vec::new());
    }

    #[test]
    fn jsonl_rendering_escapes_and_carries_the_schema_fields() {
        let record = LogRecord {
            t_ns: 42,
            level: Level::Warn,
            target: "test",
            kind: RecordKind::SpanEnd,
            message: "a \"quoted\"\nname".to_string(),
            elapsed_ns: Some(1000),
            fields: vec![
                ("n", FieldValue::I64(-2)),
                ("x", FieldValue::F64(f64::NAN)),
                ("s", FieldValue::Str("tab\there".into())),
            ],
        };
        let line = JsonlSink::render(&record);
        assert!(line.starts_with("{\"t_ns\":42,\"level\":\"warn\",\"target\":\"test\""));
        assert!(line.contains("\"kind\":\"span\""));
        assert!(line.contains("\"message\":\"a \\\"quoted\\\"\\nname\""));
        assert!(line.contains("\"elapsed_ns\":1000"));
        assert!(line.contains("\"n\":-2"));
        assert!(line.contains("\"x\":null"), "NaN renders as null");
        assert!(line.contains("\"s\":\"tab\\there\""));
        assert!(line.ends_with("}}"));
    }

    #[test]
    fn a_trace_file_alone_turns_on_the_trace_level() {
        let settings = env_settings(None, None, Some("run.jsonl")).unwrap();
        assert_eq!(settings.trace_path.as_deref(), Some("run.jsonl"));
        assert_eq!(settings.level, Some(Some(Level::Trace)));
        // An explicit RLP_LOG wins, `off` included.
        let level = |log: &str| {
            env_settings(Some(log), None, Some("run.jsonl"))
                .unwrap()
                .level
        };
        assert_eq!(level("info"), Some(Some(Level::Info)));
        assert_eq!(level("off"), Some(None));
        // Without a trace file (an empty path is none) the level is left alone.
        assert_eq!(
            env_settings(None, Some("1"), Some("")).unwrap(),
            EnvSettings {
                metrics: Some(true),
                trace_path: None,
                level: None,
            }
        );
        assert!(env_settings(Some("loud"), None, Some("run.jsonl")).is_err());
    }

    #[test]
    fn monotonic_clock_never_goes_backwards() {
        let a = monotonic_ns();
        let b = monotonic_ns();
        assert!(b >= a);
    }
}
