//! Golden documents for `rlplanner.bench/v1`: the report `bench_gate
//! collect` writes, empty and with records, compared byte for byte with
//! checked-in files under `tests/golden/`.

use rlp_bench::report::{parse_report, render_report, BenchRecord};

/// Asserts that `actual` plus a trailing newline is exactly the golden
/// file `tests/golden/<name>`.
fn golden(name: &str, actual: &str) {
    let path = format!("{}/../../tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    assert_eq!(format!("{actual}\n"), expected, "{name} drifted");
}

#[test]
fn bench_reports_match_their_golden_files() {
    golden("bench_empty.json", &render_report(&[]));
    let records = [
        BenchRecord {
            id: "sa_move_eval/incremental/multi-gpu".to_string(),
            median_ns: 3817.0,
            mean_ns: 3902.4,
            min_ns: 3711.0,
            max_ns: 4480.0,
            samples: 20,
        },
        BenchRecord {
            id: "json/\"quoted\"\\path".to_string(),
            median_ns: 0.1 + 0.2,
            mean_ns: 1e21,
            min_ns: 1e-7,
            max_ns: 123_456_789.5,
            samples: 1,
        },
    ];
    let rendered = render_report(&records);
    golden("bench.json", &rendered);
    assert_eq!(parse_report(&rendered).unwrap(), records);
}
