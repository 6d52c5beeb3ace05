//! In-memory span recording for the traced run.
//!
//! The benchmark records a span around every call it makes into a crate's
//! public functions; nothing inside the crates is instrumented. Spans nest
//! through an explicit stack, stay in memory while the run measures, and
//! are written as JSON lines once the run is over. A span's *self time* is
//! its duration minus the durations of its direct children (children of
//! one tracer are strictly nested and sequential, so that is exactly the
//! part of the interval they cover).

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// The name of the span wrapping one whole operation. Its own self time is
/// the operation's unattributed remainder.
pub const OP_SPAN: &str = "op";

/// One finished span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Layer-qualified name, e.g. `thermal.characterize`.
    pub name: &'static str,
    /// Index of the enclosing span in the same tracer, if any.
    pub parent: Option<usize>,
    /// Operation this span belongs to (shared by all spans of one
    /// operation), or `None` for set-up and probe work.
    pub op: Option<u64>,
    /// Start, nanoseconds since the run's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the run's origin.
    pub end_ns: u64,
}

impl SpanRecord {
    /// The span's duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A per-thread span recorder. A disabled tracer runs the wrapped closures
/// and records nothing.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    op: Option<u64>,
    spans: Vec<SpanRecord>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer whose timestamps count from `origin`.
    pub fn new(enabled: bool, origin: Instant) -> Self {
        Tracer {
            enabled,
            origin,
            op: None,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off for later spans.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Tags later spans with operation `op` (`None` for probe work).
    pub fn set_op(&mut self, op: Option<u64>) {
        self.op = op;
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(SpanRecord {
            name,
            parent: self.stack.last().copied(),
            op: self.op,
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.stack.push(index);
        let out = f(self);
        self.stack.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// Index the next recorded span will get; with [`self_times`] this
    /// selects the spans of one operation.
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Self time per span name, in nanoseconds, over `spans[from..]`. Parent
/// indices refer to positions in the whole `spans` slice.
pub fn self_times(spans: &[SpanRecord], from: usize) -> BTreeMap<&'static str, u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for span in &spans[from..] {
        if let Some(parent) = span.parent {
            child_ns[parent] += span.duration_ns();
        }
    }
    let mut out = BTreeMap::new();
    for (index, span) in spans.iter().enumerate().skip(from) {
        *out.entry(span.name).or_insert(0) += span.duration_ns().saturating_sub(child_ns[index]);
    }
    out
}

/// Writes spans as one JSON object per line, tagged with the thread that
/// recorded them.
pub fn write_jsonl(path: &Path, threads: &[(usize, &[SpanRecord])]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (thread, spans) in threads {
        for (id, span) in spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let op = span.op.map_or("null".to_string(), |o| o.to_string());
            writeln!(
                out,
                "{{\"thread\": {thread}, \"id\": {id}, \"parent\": {parent}, \"op\": {op}, \
                 \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                span.name, span.start_ns, span.end_ns
            )?;
        }
    }
    out.flush()
}

/// Current value of a counter in the process-wide `rlp-obs` registry.
pub fn counter(name: &str) -> u64 {
    rlp_obs::registry().counter(name).get()
}

/// The `rlp-obs` counters the per-layer metrics are computed from.
pub const COUNTERS: [&str; 5] = [
    "linalg.cg.solves",
    "linalg.cg.iterations",
    "chiplet.incremental.nets_recomputed",
    "sa.moves.proposed",
    "sa.moves.accepted",
];

/// A reading of every counter in [`COUNTERS`].
pub fn read_counters() -> [u64; COUNTERS.len()] {
    COUNTERS.map(counter)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> SpanRecord {
        SpanRecord {
            name,
            parent,
            op: Some(0),
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_times_subtract_direct_children_and_sum_to_the_root() {
        // op [0, 100) > a [10, 60) > b [20, 50); op > c [60, 90).
        let spans = vec![
            span(OP_SPAN, None, 0, 100),
            span("a", Some(0), 10, 60),
            span("b", Some(1), 20, 50),
            span("c", Some(0), 60, 90),
        ];
        let times = self_times(&spans, 0);
        assert_eq!(times[OP_SPAN], 20);
        assert_eq!(times["a"], 20);
        assert_eq!(times["b"], 30);
        assert_eq!(times["c"], 30);
        assert_eq!(times.values().sum::<u64>(), 100);
        // Restricting to a later operation ignores earlier spans.
        let mut more = spans.clone();
        more.push(span(OP_SPAN, None, 100, 150));
        more.push(span("a", Some(4), 110, 140));
        let later = self_times(&more, 4);
        assert_eq!(later[OP_SPAN], 20);
        assert_eq!(later["a"], 30);
    }

    #[test]
    fn tracer_nests_spans_and_a_disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(true, Instant::now());
        tracer.set_op(Some(3));
        let value = tracer.span(OP_SPAN, |t| t.span("inner", |_| 7));
        assert_eq!(value, 7);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].op, Some(3));
        assert!(spans[0].duration_ns() >= spans[1].duration_ns());

        let mut off = Tracer::new(false, Instant::now());
        assert_eq!(off.span(OP_SPAN, |_| 1), 1);
        assert!(off.spans().is_empty());
    }
}
