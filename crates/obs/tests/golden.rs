//! Golden documents for the schemas `rlp-obs` renders: `metrics/v1`
//! snapshots and the trace JSONL lines. Each render is compared byte for
//! byte with a checked-in file under `tests/golden/`.

use rlp_obs::{
    FieldValue, JsonlSink, Level, LogRecord, LogSink, MetricsRegistry, MetricsSnapshot, RecordKind,
};
use std::time::Duration;

/// Asserts that `actual` plus a trailing newline is exactly the golden
/// file `tests/golden/<name>`.
fn golden(name: &str, actual: &str) {
    let path = format!("{}/../../tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    assert_eq!(format!("{actual}\n"), expected, "{name} drifted");
}

fn snapshot(registry: &MetricsRegistry) -> MetricsSnapshot {
    let mut snapshot = registry.snapshot();
    snapshot.uptime = Duration::from_nanos(12_345_678_901);
    snapshot
}

#[test]
fn metrics_documents_match_their_golden_files() {
    golden(
        "metrics_empty.json",
        &snapshot(&MetricsRegistry::new()).render_json(),
    );

    let registry = MetricsRegistry::new();
    registry.counter("thermal.cache.hits").add(7);
    registry.counter("weird \"name\"\n").inc();
    registry.gauge("serve.queue.depth").set(-2);
    registry.gauge("serve.workers").set(4);
    let solve = registry.histogram("serve.job.solve_ns");
    for value in [5, 1_000, 1_000, 190_000_000] {
        solve.record(value);
    }
    registry.histogram("unused_ns");
    golden("metrics.json", &snapshot(&registry).render_json());
}

#[test]
fn trace_lines_match_their_golden_file() {
    let record = |kind, elapsed_ns, fields| LogRecord {
        t_ns: 143_210_000,
        level: Level::Debug,
        target: "rlp_serve",
        kind,
        message: "job \"solve\"\n".to_string(),
        elapsed_ns,
        fields,
    };
    let records = [
        record(RecordKind::Event, None, Vec::new()),
        record(
            RecordKind::SpanEnd,
            Some(141_200_000),
            vec![("job", FieldValue::U64(u64::MAX))],
        ),
        record(
            RecordKind::Event,
            None,
            vec![("delta", FieldValue::I64(i64::MIN))],
        ),
        record(
            RecordKind::Event,
            None,
            vec![
                ("ms", FieldValue::F64(0.1 + 0.2)),
                ("nan", FieldValue::F64(f64::NAN)),
                ("inf", FieldValue::F64(f64::NEG_INFINITY)),
            ],
        ),
        record(
            RecordKind::Event,
            None,
            vec![("ok", FieldValue::Bool(false))],
        ),
        record(
            RecordKind::Event,
            None,
            vec![("state", FieldValue::Str("tab\there \\ \u{1}".to_string()))],
        ),
    ];
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("golden-trace.jsonl");
    let sink = JsonlSink::create(&path).unwrap();
    for record in &records {
        sink.record(record);
    }
    drop(sink);
    let text = std::fs::read_to_string(&path).unwrap();
    golden("trace.jsonl", text.trim_end());
}
