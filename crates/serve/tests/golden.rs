//! Golden documents for `rlplanner.rpc/v1`: all eleven server frames and
//! all six client messages, compared byte for byte with two checked-in
//! files under `tests/golden/` (one frame per paragraph). Frames embed
//! pretty documents, so the files also pin how a document nests inside a
//! frame.

use rlp_chiplet::{Chiplet, ChipletSystem, Net};
use rlp_serve::protocol::frames;
use rlp_serve::queue::JobTimings;
use rlp_serve::{ClientMessage, SchedulerStats};
use rlp_thermal::{ThermalBackend, ThermalCacheSnapshot, ThermalCacheStats};
use rlplanner::report::request_json;
use rlplanner::{Budget, FloorplanRequest, Method};
use std::time::Duration;

/// Asserts that `actual` plus a trailing newline is exactly the golden
/// file `tests/golden/<name>`.
fn golden(name: &str, actual: &str) {
    let path = format!("{}/../../tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    assert_eq!(format!("{actual}\n"), expected, "{name} drifted");
}

fn request_document() -> String {
    let mut sys = ChipletSystem::new("rpc-golden", 20.0, 20.0);
    let a = sys.add_chiplet(Chiplet::new("a", 5.0, 5.0, 10.0));
    let b = sys.add_chiplet(Chiplet::new("b", 4.0, 6.0, 2.5));
    sys.add_net(Net::new(a, b, 8));
    let request = FloorplanRequest::builder()
        .system(sys)
        .method(Method::sa())
        .thermal(ThermalBackend::grid())
        .budget(Budget::Evaluations(40))
        .seed(3)
        .build()
        .unwrap();
    request_json(&request)
}

/// A small pretty outcome-like document: frames embed whatever document
/// text they are handed, so its exact content does not matter.
const EMBEDDED: &str =
    "{\n  \"schema\": \"rlplanner.outcome/v1\",\n  \"nested\": {\n    \"x\": [1, 2]\n  }\n}";

#[test]
fn server_frames_match_their_golden_file() {
    let dispatched = JobTimings {
        queue_wait: Duration::from_micros(410),
        run: Some(Duration::from_millis(141)),
    };
    let waiting = JobTimings {
        queue_wait: Duration::from_nanos(12_500_001),
        run: None,
    };
    let cache = ThermalCacheSnapshot {
        models: 1,
        stats: ThermalCacheStats {
            hits: 7,
            misses: 1,
            characterization_time: Duration::from_millis(3),
        },
    };
    let scheduler = SchedulerStats {
        workers: 2,
        capacity: 16,
        queued: 3,
        running: 2,
        admitted: 12,
        completed: 6,
        failed: 1,
        cancelled: 0,
    };
    let metrics = "{ \"schema\": \"rlplanner.metrics/v1\", \"uptime_s\": 1.000000, \
                   \"counters\": { \"a\": 1 }, \"gauges\": { }, \"histograms\": { } }";
    let frames = [
        frames::accepted(3),
        frames::busy(16),
        frames::error("bad \"request\"\n\u{1}"),
        frames::progress(3, 40, -2.125, -1.875),
        frames::progress(3, 41, f64::NAN, f64::NEG_INFINITY),
        frames::outcome(3, EMBEDDED, Some(&dispatched)),
        frames::outcome(4, EMBEDDED, None),
        frames::failed(3, "thermal backend failed: \"grid\"", Some(&dispatched)),
        frames::status(3, "queued", Some(&waiting)),
        frames::status(3, "running", Some(&dispatched)),
        frames::status(9, "unknown", None),
        frames::cancelled(3, true),
        frames::cancelled(4, false),
        frames::stats(cache, scheduler),
        frames::metrics(metrics),
        frames::shutdown(2),
    ];
    golden("rpc_server_frames.txt", &frames.join("\n\n"));
}

#[test]
fn client_messages_match_their_golden_file() {
    let messages = [
        ClientMessage::render_solve(&request_document(), 25),
        ClientMessage::render_status(3),
        ClientMessage::render_cancel(u64::MAX),
        ClientMessage::render_stats(),
        ClientMessage::render_metrics(),
        ClientMessage::render_shutdown(),
    ];
    golden("rpc_client_messages.txt", &messages.join("\n\n"));
}
