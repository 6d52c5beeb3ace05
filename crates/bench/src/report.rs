//! The `rlplanner.bench/v1` document and the bench-regression gate.
//!
//! The vendored criterion harness appends one JSON record per completed
//! benchmark to a shard file (`cargo bench ... -- --save-json shards.jsonl`).
//! This module assembles those shards into the documented bench report and
//! compares two reports for regressions; the `bench_gate` binary is a thin
//! CLI over it and CI fails the `bench-regression` job on its exit code.
//!
//! # Bench document ([`render_report`])
//!
//! ```json
//! {
//!   "schema": "rlplanner.bench/v1",
//!   "benchmarks": [
//!     { "id": "sa_move_eval/incremental/multi-gpu", "median_ns": 3817.0,
//!       "mean_ns": 3902.4, "min_ns": 3711.0, "max_ns": 4480.0, "samples": 20 }
//!   ]
//! }
//! ```
//!
//! `schema` identifies this exact layout ([`BENCH_SCHEMA`]); consumers
//! should check it before parsing. `benchmarks` holds one record per
//! criterion benchmark id, in shard order, with per-iteration timing
//! statistics in nanoseconds; `median_ns` is the value the regression gate
//! compares (medians are robust to the odd slow sample on shared CI
//! runners). All numbers are finite, and `samples` is an exact integer.

use rlp_obs::json::{Decode, Layout, Value, Writer};
use std::fmt;

/// Identifier of the bench-document layout produced by [`render_report`].
pub const BENCH_SCHEMA: &str = "rlplanner.bench/v1";

/// One benchmark's timing statistics, in nanoseconds per iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Criterion benchmark id (`group/function/parameter`).
    pub id: String,
    /// Median time per iteration — the gated statistic.
    pub median_ns: f64,
    /// Mean time per iteration.
    pub mean_ns: f64,
    /// Fastest sample.
    pub min_ns: f64,
    /// Slowest sample.
    pub max_ns: f64,
    /// Number of timed samples.
    pub samples: u64,
}

fn record_from(value: &Value, context: &str) -> Result<BenchRecord, String> {
    let field = |key: &str| {
        value
            .get(key)
            .and_then(Value::as_f64)
            .filter(|v| v.is_finite())
            .ok_or_else(|| format!("{context}: missing or non-finite `{key}`"))
    };
    Ok(BenchRecord {
        id: value
            .get("id")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{context}: missing `id`"))?
            .to_string(),
        median_ns: field("median_ns")?,
        mean_ns: field("mean_ns")?,
        min_ns: field("min_ns")?,
        max_ns: field("max_ns")?,
        samples: value
            .get("samples")
            .and_then(u64::decode)
            .ok_or_else(|| format!("{context}: missing or non-integer `samples`"))?,
    })
}

/// Parses the shard lines a `--save-json` bench run appended (one JSON
/// object per line; blank lines are ignored).
///
/// # Errors
///
/// Returns a description of the first malformed line.
pub fn parse_shards(text: &str) -> Result<Vec<BenchRecord>, String> {
    let mut records = Vec::new();
    for (index, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let value = Value::parse(line).map_err(|err| format!("shard line {}: {err}", index + 1))?;
        records.push(record_from(&value, &format!("shard line {}", index + 1))?);
    }
    Ok(records)
}

/// Renders records as the documented `rlplanner.bench/v1` document.
pub fn render_report(records: &[BenchRecord]) -> String {
    let mut w = Writer::pretty();
    w.object(Layout::Block, |w| {
        w.field("schema", BENCH_SCHEMA);
        w.key("benchmarks").array(Layout::Block, |w| {
            for record in records {
                write_record(w, record);
            }
        });
    });
    w.finish()
}

/// Writes one record as an inline object — a `benchmarks` element, or on
/// its own a shard line.
pub fn write_record(w: &mut Writer, record: &BenchRecord) {
    w.object(Layout::Inline, |w| {
        w.field("id", &record.id)
            .field("median_ns", record.median_ns)
            .field("mean_ns", record.mean_ns)
            .field("min_ns", record.min_ns)
            .field("max_ns", record.max_ns)
            .field("samples", record.samples);
    });
}

/// Parses a `rlplanner.bench/v1` document back into records.
///
/// # Errors
///
/// Returns a description of the first violation (bad JSON, wrong schema,
/// malformed record).
pub fn parse_report(text: &str) -> Result<Vec<BenchRecord>, String> {
    let value = Value::parse(text).map_err(|err| err.to_string())?;
    let schema = value
        .get("schema")
        .and_then(Value::as_str)
        .ok_or("missing `schema`")?;
    if schema != BENCH_SCHEMA {
        return Err(format!(
            "unsupported schema `{schema}`, expected `{BENCH_SCHEMA}`"
        ));
    }
    value
        .get("benchmarks")
        .and_then(Value::as_array)
        .ok_or("missing `benchmarks` array")?
        .iter()
        .enumerate()
        .map(|(i, v)| record_from(v, &format!("benchmarks[{i}]")))
        .collect()
}

/// One gate violation found by [`compare`].
#[derive(Debug, Clone, PartialEq)]
pub enum GateFinding {
    /// A benchmark's median slowed down past the allowed ratio.
    Regressed {
        /// Benchmark id.
        id: String,
        /// Baseline median, nanoseconds.
        baseline_ns: f64,
        /// Current median, nanoseconds.
        current_ns: f64,
        /// `current / baseline`.
        ratio: f64,
    },
    /// A baseline benchmark is absent from the current report — coverage
    /// silently shrank, which the gate treats as a failure too.
    Missing {
        /// Benchmark id.
        id: String,
    },
    /// A median was NaN or infinite, so the regression ratio is
    /// meaningless. Without this finding a NaN median would sail through
    /// the gate: `NaN > threshold` is false, so the comparison alone never
    /// flags it.
    NonFinite {
        /// Benchmark id.
        id: String,
        /// Baseline median, nanoseconds.
        baseline_ns: f64,
        /// Current median, nanoseconds.
        current_ns: f64,
    },
}

impl fmt::Display for GateFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GateFinding::Regressed {
                id,
                baseline_ns,
                current_ns,
                ratio,
            } => write!(
                f,
                "{id}: median {baseline_ns:.0} ns -> {current_ns:.0} ns ({:+.1}%)",
                (ratio - 1.0) * 100.0
            ),
            GateFinding::Missing { id } => {
                write!(
                    f,
                    "{id}: present in the baseline but not in the current report"
                )
            }
            GateFinding::NonFinite {
                id,
                baseline_ns,
                current_ns,
            } => write!(
                f,
                "{id}: non-finite median ({baseline_ns} ns -> {current_ns} ns) cannot be gated"
            ),
        }
    }
}

/// Compares `current` against `baseline`, flagging every benchmark whose
/// median regressed by more than `max_regression` (0.25 = +25%) and every
/// baseline benchmark missing from `current`. Benchmarks new in `current`
/// are fine — they will be gated once the baseline is regenerated.
pub fn compare(
    baseline: &[BenchRecord],
    current: &[BenchRecord],
    max_regression: f64,
) -> Vec<GateFinding> {
    let mut findings = Vec::new();
    for base in baseline {
        let Some(now) = current.iter().find(|r| r.id == base.id) else {
            findings.push(GateFinding::Missing {
                id: base.id.clone(),
            });
            continue;
        };
        // Reject non-finite medians before forming the ratio: a NaN on
        // either side makes `ratio > threshold` false, which would wave
        // a meaningless measurement through the gate.
        if !base.median_ns.is_finite() || !now.median_ns.is_finite() {
            findings.push(GateFinding::NonFinite {
                id: base.id.clone(),
                baseline_ns: base.median_ns,
                current_ns: now.median_ns,
            });
            continue;
        }
        let ratio = now.median_ns / base.median_ns.max(f64::MIN_POSITIVE);
        if ratio > 1.0 + max_regression {
            findings.push(GateFinding::Regressed {
                id: base.id.clone(),
                baseline_ns: base.median_ns,
                current_ns: now.median_ns,
                ratio,
            });
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(id: &str, median_ns: f64) -> BenchRecord {
        BenchRecord {
            id: id.to_string(),
            median_ns,
            mean_ns: median_ns * 1.05,
            min_ns: median_ns * 0.9,
            max_ns: median_ns * 1.3,
            samples: 10,
        }
    }

    #[test]
    fn shards_round_trip_through_the_report() {
        let shards = concat!(
            "{ \"id\": \"fast_eval/cold/multi-gpu\", \"median_ns\": 770.5, ",
            "\"mean_ns\": 800, \"min_ns\": 750, \"max_ns\": 900, \"samples\": 20 }\n",
            "\n",
            "{ \"id\": \"sa_move_eval/full\", \"median_ns\": 27300, ",
            "\"mean_ns\": 27500, \"min_ns\": 27000, \"max_ns\": 29000, \"samples\": 20 }\n",
        );
        let records = parse_shards(shards).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].id, "fast_eval/cold/multi-gpu");
        assert_eq!(records[0].median_ns, 770.5);

        let rendered = render_report(&records);
        assert!(rendered.starts_with(&format!("{{\n  \"schema\": \"{BENCH_SCHEMA}\"")));
        let reparsed = parse_report(&rendered).unwrap();
        assert_eq!(records, reparsed);
    }

    #[test]
    fn ids_with_control_characters_round_trip() {
        let records = vec![record("line\nbreak\u{1}\"q\"", 12.0)];
        let rendered = render_report(&records);
        assert!(
            rendered.contains("line\\nbreak\\u0001\\\"q\\\""),
            "{rendered}"
        );
        assert_eq!(parse_report(&rendered).unwrap(), records);
    }

    #[test]
    fn empty_report_renders_and_parses() {
        let rendered = render_report(&[]);
        assert!(parse_report(&rendered).unwrap().is_empty());
    }

    #[test]
    fn wrong_schema_and_malformed_records_are_rejected() {
        assert!(
            parse_report("{ \"schema\": \"other/v2\", \"benchmarks\": [] }")
                .unwrap_err()
                .contains("unsupported schema")
        );
        assert!(parse_report("{ \"benchmarks\": [] }").is_err());
        let missing_median = format!(
            "{{ \"schema\": \"{BENCH_SCHEMA}\", \"benchmarks\": [ {{ \"id\": \"x\" }} ] }}"
        );
        assert!(parse_report(&missing_median)
            .unwrap_err()
            .contains("median_ns"));
        assert!(parse_shards("not json").is_err());
    }

    #[test]
    fn gate_flags_regressions_and_missing_coverage() {
        let baseline = vec![record("a", 1000.0), record("b", 500.0), record("c", 80.0)];
        // `a` regressed 30%, `b` within bounds, `c` disappeared, `d` is new.
        let current = vec![record("a", 1300.0), record("b", 600.0), record("d", 10.0)];
        let findings = compare(&baseline, &current, 0.25);
        assert_eq!(findings.len(), 2);
        assert!(matches!(
            &findings[0],
            GateFinding::Regressed { id, ratio, .. } if id == "a" && (*ratio - 1.3).abs() < 1e-9
        ));
        assert!(matches!(&findings[1], GateFinding::Missing { id } if id == "c"));
        assert!(findings[0].to_string().contains("+30.0%"));

        // Improvements and equal timings pass.
        assert!(compare(&baseline, &baseline, 0.25).is_empty());
        let faster = vec![record("a", 10.0), record("b", 5.0), record("c", 1.0)];
        assert!(compare(&baseline, &faster, 0.25).is_empty());
    }

    #[test]
    fn non_finite_medians_fail_the_gate_instead_of_passing_silently() {
        let baseline = vec![record("a", 1000.0), record("b", 500.0)];
        // A NaN current median makes `ratio > threshold` false, so without
        // the explicit check this would produce zero findings.
        let current = vec![record("a", f64::NAN), record("b", 600.0)];
        let findings = compare(&baseline, &current, 0.25);
        assert_eq!(findings.len(), 1);
        assert!(matches!(
            &findings[0],
            GateFinding::NonFinite { id, current_ns, .. } if id == "a" && current_ns.is_nan()
        ));
        assert!(findings[0].to_string().contains("cannot be gated"));

        // Infinite and NaN baselines are rejected the same way.
        for bad in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            let poisoned = vec![record("a", bad), record("b", 500.0)];
            let findings = compare(&poisoned, &current, 0.25);
            assert!(
                findings
                    .iter()
                    .any(|f| matches!(f, GateFinding::NonFinite { id, .. } if id == "a")),
                "baseline median {bad} must fail the gate"
            );
        }
    }
}
