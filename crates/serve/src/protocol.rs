//! The `rlplanner.rpc/v1` wire protocol: framing and message documents.
//!
//! # Framing
//!
//! Every message in either direction is one *frame*: a 4-byte big-endian
//! unsigned length followed by that many bytes of UTF-8 JSON. Frames are
//! bounded by [`MAX_FRAME_BYTES`]; a peer announcing a larger frame is
//! malformed and the connection is closed. Frames are written by the
//! workspace's one JSON writer and parsed by its hardened parser
//! ([`rlp_obs::json`], nesting bounded by [`rlp_obs::json::MAX_DEPTH`]), so
//! adversarial documents fail with an error frame instead of exhausting
//! the stack. Integers on the wire (`job`, `progress_every`, and every
//! count the client reads) follow the one integer rule, `u64`'s
//! [`Decode`]: a number that is not an exact non-negative integer up to
//! 2^53 − 1 is refused, never saturated.
//!
//! # Client → server messages
//!
//! Every message carries `"schema": "rlplanner.rpc/v1"` and a `"type"`:
//!
//! ```json
//! { "schema": "rlplanner.rpc/v1", "type": "solve",
//!   "progress_every": 0, "request": { ...rlplanner.request/v1... } }
//! { "schema": "rlplanner.rpc/v1", "type": "status",  "job": 3 }
//! { "schema": "rlplanner.rpc/v1", "type": "cancel",  "job": 3 }
//! { "schema": "rlplanner.rpc/v1", "type": "stats" }
//! { "schema": "rlplanner.rpc/v1", "type": "metrics" }
//! { "schema": "rlplanner.rpc/v1", "type": "shutdown" }
//! ```
//!
//! `solve` embeds a full `rlplanner.request/v1` document (see
//! `rlplanner::report::request_json`). `progress_every` asks the daemon to
//! stream every Nth candidate as a progress frame while the job runs; `0`
//! (the default) disables streaming. Progress never influences the solve.
//!
//! # Server → client messages
//!
//! ```json
//! { "schema": "rlplanner.rpc/v1", "type": "accepted",  "job": 3 }
//! { "schema": "rlplanner.rpc/v1", "type": "busy",      "capacity": 16 }
//! { "schema": "rlplanner.rpc/v1", "type": "error",     "message": "..." }
//! { "schema": "rlplanner.rpc/v1", "type": "progress",  "job": 3,
//!   "candidate": 40, "reward": -2.1, "best_reward": -1.9 }
//! { "schema": "rlplanner.rpc/v1", "type": "outcome",   "job": 3,
//!   "queue_ms": 0.41, "solve_ms": 141.2,
//!   "outcome": { ...rlplanner.outcome/v1... } }
//! { "schema": "rlplanner.rpc/v1", "type": "failed",    "job": 3, "message": "...",
//!   "queue_ms": 0.41, "solve_ms": 141.2 }
//! { "schema": "rlplanner.rpc/v1", "type": "status",    "job": 3, "state": "queued",
//!   "queue_ms": 12.5 }
//! { "schema": "rlplanner.rpc/v1", "type": "cancelled", "job": 3, "ok": true }
//! { "schema": "rlplanner.rpc/v1", "type": "stats",
//!   "cache": { "models": 1, "hits": 7, "misses": 1 },
//!   "scheduler": { "workers": 2, "capacity": 16, "queued": 0, "running": 1,
//!                  "admitted": 8, "completed": 7, "failed": 0, "cancelled": 0 } }
//! { "schema": "rlplanner.rpc/v1", "type": "metrics",
//!   "metrics": { ...rlplanner.metrics/v1... } }
//! { "schema": "rlplanner.rpc/v1", "type": "shutdown", "draining": 2 }
//! ```
//!
//! Request/response pairs (`accepted`/`busy`/`error`, `status`,
//! `cancelled`, `stats`, `metrics`, `shutdown`) are sent in request order,
//! but job-lifecycle frames (`progress`, `outcome`, `failed`) are pushed
//! by worker threads whenever the job produces them, so a client must be
//! prepared to see them interleaved with any reply and demultiplex on
//! `job`. A job's own lifecycle frames never precede its `accepted`. `busy` is the backpressure signal: the job queue was full and
//! the request was *not* admitted — retry later. Job states reported by
//! `status` are `queued`, `running`, `done`, `failed`, `cancelled` and
//! `unknown` (an id never admitted, or a finished job older than the
//! last 1024 to finish: the daemon forgets those so its job table stays
//! bounded).
//!
//! # Job timings are VOLATILE
//!
//! `outcome`, `failed` and `status` frames carry the queue's wall-clock
//! measurements for the job (see [`crate::queue::JobTimings`]):
//! `queue_ms` (admission → worker dispatch) and `solve_ms` (dispatch →
//! finish; absent until the job is dispatched — on `status` frames a
//! running job reports its still-growing value). Like the outcome
//! document's `timing` member, these are VOLATILE fields: they vary run to
//! run and must be dropped before byte-comparing a served solve against a
//! direct one. The embedded `outcome` document itself is unchanged and
//! stays byte-identical outside its `timing` member.
//!
//! `metrics` replies embed a full `rlplanner.metrics/v1` registry
//! snapshot (see `rlp_obs::MetricsSnapshot::render_json` for the schema):
//! process-wide counters, gauges and latency histograms, including the
//! per-phase job timeline histograms `serve.job.queue_wait_ns`,
//! `serve.job.solve_ns`, `serve.job.serialize_ns` and
//! `serve.job.flush_ns`.

use rlp_obs::json::{Decode, Layout, Value, Writer};
use std::io::{self, Read, Write};

/// Identifier carried by every rpc message in both directions.
pub const RPC_SCHEMA: &str = "rlplanner.rpc/v1";

/// Upper bound on a frame's JSON payload. Large enough for any realistic
/// outcome document (telemetry included), small enough that a hostile
/// length prefix cannot make the receiver allocate unbounded memory.
pub const MAX_FRAME_BYTES: usize = 8 * 1024 * 1024;

/// Writes one length-prefixed frame.
///
/// # Errors
///
/// Returns the underlying I/O error, or `InvalidInput` if `payload`
/// exceeds [`MAX_FRAME_BYTES`].
pub fn write_frame(stream: &mut impl Write, payload: &str) -> io::Result<()> {
    if payload.len() > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame of {} bytes exceeds {MAX_FRAME_BYTES}", payload.len()),
        ));
    }
    // Prefix and payload leave in one write: two small writes on a socket
    // with Nagle's algorithm on wait for the peer's delayed ACK, ~40 ms a
    // frame.
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    frame.extend_from_slice(payload.as_bytes());
    stream.write_all(&frame)?;
    stream.flush()
}

/// Reads one length-prefixed frame. Returns `Ok(None)` on a clean EOF at a
/// frame boundary (the peer closed the connection).
///
/// # Errors
///
/// Returns `InvalidData` for an oversized length prefix or a non-UTF-8
/// payload, `UnexpectedEof` for a connection cut mid-frame, or the
/// underlying I/O error.
pub fn read_frame(stream: &mut impl Read) -> io::Result<Option<String>> {
    let mut len = [0u8; 4];
    match stream.read_exact(&mut len) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_be_bytes(len) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("peer announced a frame of {len} bytes (limit {MAX_FRAME_BYTES})"),
        ));
    }
    let mut payload = vec![0u8; len];
    stream.read_exact(&mut payload)?;
    String::from_utf8(payload)
        .map(Some)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "frame payload is not UTF-8"))
}

/// A parsed client → server message.
#[derive(Debug)]
pub enum ClientMessage {
    /// Submit the embedded request; stream every Nth candidate (0 = none).
    Solve {
        /// The embedded `rlplanner.request/v1` document, still undecoded —
        /// the server parses it with `rlplanner::request_from_value`.
        request: Value,
        /// Progress-streaming stride (0 disables streaming).
        progress_every: usize,
    },
    /// Ask for a job's lifecycle state.
    Status {
        /// The job id being queried.
        job: u64,
    },
    /// Cancel a *queued* job (running jobs cannot be interrupted).
    Cancel {
        /// The job id to cancel.
        job: u64,
    },
    /// Ask for cache + scheduler telemetry.
    Stats,
    /// Ask for the full `rlplanner.metrics/v1` registry snapshot.
    Metrics,
    /// Begin graceful shutdown: stop admissions, drain the queue, exit 0.
    Shutdown,
}

impl ClientMessage {
    /// Parses one client frame.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violation: JSON
    /// syntax, wrong schema, unknown type or a malformed field.
    pub fn parse(payload: &str) -> Result<ClientMessage, String> {
        let doc = Value::parse(payload).map_err(|e| e.to_string())?;
        let schema = doc
            .get("schema")
            .and_then(Value::as_str)
            .ok_or("message has no `schema` string")?;
        if schema != RPC_SCHEMA {
            return Err(format!(
                "unsupported schema `{schema}` (expected `{RPC_SCHEMA}`)"
            ));
        }
        let kind = doc
            .get("type")
            .and_then(Value::as_str)
            .ok_or("message has no `type` string")?;
        let job = |doc: &Value| -> Result<u64, String> {
            doc.get("job")
                .and_then(u64::decode)
                .ok_or_else(|| format!("`{kind}` needs a non-negative integer `job`"))
        };
        match kind {
            "solve" => {
                let request = doc
                    .get("request")
                    .cloned()
                    .ok_or("`solve` needs a `request` document")?;
                let progress_every = match doc.get("progress_every") {
                    None | Some(Value::Null) => 0,
                    Some(value) => match u64::decode(value) {
                        Some(n) => n as usize,
                        None => {
                            return Err("`progress_every` must be a non-negative integer".into())
                        }
                    },
                };
                Ok(ClientMessage::Solve {
                    request,
                    progress_every,
                })
            }
            "status" => Ok(ClientMessage::Status { job: job(&doc)? }),
            "cancel" => Ok(ClientMessage::Cancel { job: job(&doc)? }),
            "stats" => Ok(ClientMessage::Stats),
            "metrics" => Ok(ClientMessage::Metrics),
            "shutdown" => Ok(ClientMessage::Shutdown),
            other => Err(format!("unknown message type `{other}`")),
        }
    }

    /// Renders a `solve` message embedding an already-rendered
    /// `rlplanner.request/v1` document.
    pub fn render_solve(request_json: &str, progress_every: usize) -> String {
        message("solve", |w| {
            w.field("progress_every", progress_every)
                .key("request")
                .raw(request_json);
        })
    }

    /// Renders a `status` query.
    pub fn render_status(job: u64) -> String {
        message("status", |w| {
            w.field("job", job);
        })
    }

    /// Renders a `cancel` request.
    pub fn render_cancel(job: u64) -> String {
        message("cancel", |w| {
            w.field("job", job);
        })
    }

    /// Renders a `stats` query.
    pub fn render_stats() -> String {
        message("stats", |_| {})
    }

    /// Renders a `metrics` query.
    pub fn render_metrics() -> String {
        message("metrics", |_| {})
    }

    /// Renders a `shutdown` request.
    pub fn render_shutdown() -> String {
        message("shutdown", |_| {})
    }
}

/// Renders one message of either direction: `schema` and `type`, then the
/// members `body` writes.
fn message(kind: &str, body: impl FnOnce(&mut Writer)) -> String {
    let mut w = Writer::pretty();
    w.object(Layout::Inline, |w| {
        w.field("schema", RPC_SCHEMA).field("type", kind);
        body(w);
    });
    w.finish()
}

/// Scheduler-side counters reported by a `stats` frame.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedulerStats {
    /// Worker threads in the pool.
    pub workers: usize,
    /// Bounded queue capacity (jobs waiting, not counting running ones).
    pub capacity: usize,
    /// Jobs currently waiting in the queue.
    pub queued: usize,
    /// Jobs currently executing on a worker.
    pub running: usize,
    /// Jobs ever admitted (ids are assigned at admission).
    pub admitted: usize,
    /// Jobs that finished with an outcome.
    pub completed: usize,
    /// Jobs that finished with a solve error.
    pub failed: usize,
    /// Queued jobs cancelled before running.
    pub cancelled: usize,
}

/// Server-side render helpers; one function per frame type.
pub mod frames {
    use super::*;
    use crate::queue::JobTimings;
    use rlp_thermal::ThermalCacheSnapshot;

    /// Writes the VOLATILE `queue_ms`/`solve_ms` fields job frames carry
    /// (nothing when the queue had no record of the job).
    fn timing_fields(w: &mut Writer, timings: Option<&JobTimings>) {
        if let Some(timings) = timings {
            w.field("queue_ms", timings.queue_ms());
            if let Some(solve_ms) = timings.solve_ms() {
                w.field("solve_ms", solve_ms);
            }
        }
    }

    /// `accepted` — the job was admitted under this id.
    pub fn accepted(job: u64) -> String {
        message("accepted", |w| {
            w.field("job", job);
        })
    }

    /// `busy` — the queue was full; the request was not admitted.
    pub fn busy(capacity: usize) -> String {
        message("busy", |w| {
            w.field("capacity", capacity);
        })
    }

    /// `error` — the request was malformed or inadmissible.
    pub fn error(text: &str) -> String {
        message("error", |w| {
            w.field("message", text);
        })
    }

    /// `progress` — one streamed candidate from a running job.
    pub fn progress(job: u64, candidate: usize, reward: f64, best_reward: f64) -> String {
        message("progress", |w| {
            w.field("job", job)
                .field("candidate", candidate)
                .field("reward", reward)
                .field("best_reward", best_reward);
        })
    }

    /// `outcome` — the job finished; embeds the canonical outcome document
    /// plus the VOLATILE job timings (see the [module docs](super)).
    pub fn outcome(job: u64, outcome_json: &str, timings: Option<&JobTimings>) -> String {
        message("outcome", |w| {
            w.field("job", job);
            timing_fields(w, timings);
            w.key("outcome").raw(outcome_json);
        })
    }

    /// `failed` — the job's solve returned an error.
    pub fn failed(job: u64, text: &str, timings: Option<&JobTimings>) -> String {
        message("failed", |w| {
            w.field("job", job).field("message", text);
            timing_fields(w, timings);
        })
    }

    /// `status` — a job's lifecycle state, with the timings measured so
    /// far for a known job (`solve_ms` still growing while running).
    pub fn status(job: u64, state: &str, timings: Option<&JobTimings>) -> String {
        message("status", |w| {
            w.field("job", job).field("state", state);
            timing_fields(w, timings);
        })
    }

    /// `cancelled` — whether a cancel request removed the queued job.
    pub fn cancelled(job: u64, ok: bool) -> String {
        message("cancelled", |w| {
            w.field("job", job).field("ok", ok);
        })
    }

    /// `stats` — cache + scheduler telemetry.
    pub fn stats(cache: ThermalCacheSnapshot, scheduler: SchedulerStats) -> String {
        message("stats", |w| {
            w.key("cache").object(Layout::Inline, |w| {
                w.field("models", cache.models)
                    .field("hits", cache.stats.hits)
                    .field("misses", cache.stats.misses);
            });
            w.key("scheduler").object(Layout::Inline, |w| {
                w.field("workers", scheduler.workers)
                    .field("capacity", scheduler.capacity)
                    .field("queued", scheduler.queued)
                    .field("running", scheduler.running)
                    .field("admitted", scheduler.admitted)
                    .field("completed", scheduler.completed)
                    .field("failed", scheduler.failed)
                    .field("cancelled", scheduler.cancelled);
            });
        })
    }

    /// `metrics` — embeds an already-rendered `rlplanner.metrics/v1`
    /// registry snapshot.
    pub fn metrics(snapshot_json: &str) -> String {
        message("metrics", |w| {
            w.key("metrics").raw(snapshot_json);
        })
    }

    /// `shutdown` — acknowledgement; `draining` jobs remained at the time.
    pub fn shutdown(draining: usize) -> String {
        message("shutdown", |w| {
            w.field("draining", draining);
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_through_a_buffer() {
        let mut buffer = Vec::new();
        write_frame(&mut buffer, "{\"a\": 1}").unwrap();
        write_frame(&mut buffer, "second").unwrap();
        let mut cursor = io::Cursor::new(buffer);
        assert_eq!(
            read_frame(&mut cursor).unwrap().as_deref(),
            Some("{\"a\": 1}")
        );
        assert_eq!(read_frame(&mut cursor).unwrap().as_deref(), Some("second"));
        // Clean EOF at a frame boundary is a graceful close...
        assert!(read_frame(&mut cursor).unwrap().is_none());
    }

    #[test]
    fn a_frame_leaves_in_one_write() {
        #[derive(Default)]
        struct CountingWriter {
            writes: usize,
            bytes: Vec<u8>,
        }
        impl Write for CountingWriter {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.writes += 1;
                self.bytes.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut out = CountingWriter::default();
        write_frame(&mut out, "{\"type\": \"stats\"}").unwrap();
        assert_eq!(out.writes, 1);
        let mut cursor = io::Cursor::new(out.bytes);
        assert_eq!(
            read_frame(&mut cursor).unwrap().as_deref(),
            Some("{\"type\": \"stats\"}")
        );
    }

    #[test]
    fn truncated_and_oversized_frames_are_errors() {
        // ...but EOF mid-frame is an error.
        let mut buffer = Vec::new();
        write_frame(&mut buffer, "truncated payload").unwrap();
        buffer.truncate(buffer.len() - 3);
        let mut cursor = io::Cursor::new(buffer);
        assert_eq!(
            read_frame(&mut cursor).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );

        // A hostile length prefix is rejected before any allocation.
        let huge = (u32::MAX).to_be_bytes().to_vec();
        let mut cursor = io::Cursor::new(huge);
        assert_eq!(
            read_frame(&mut cursor).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
    }

    #[test]
    fn client_messages_parse_and_render() {
        let solve = ClientMessage::render_solve("{ \"schema\": \"rlplanner.request/v1\" }", 25);
        match ClientMessage::parse(&solve).unwrap() {
            ClientMessage::Solve {
                request,
                progress_every,
            } => {
                assert_eq!(progress_every, 25);
                assert_eq!(
                    request.get("schema").and_then(Value::as_str),
                    Some("rlplanner.request/v1")
                );
            }
            other => panic!("parsed as {other:?}"),
        }
        assert!(matches!(
            ClientMessage::parse(&ClientMessage::render_status(3)).unwrap(),
            ClientMessage::Status { job: 3 }
        ));
        assert!(matches!(
            ClientMessage::parse(&ClientMessage::render_cancel(9)).unwrap(),
            ClientMessage::Cancel { job: 9 }
        ));
        assert!(matches!(
            ClientMessage::parse(&ClientMessage::render_stats()).unwrap(),
            ClientMessage::Stats
        ));
        assert!(matches!(
            ClientMessage::parse(&ClientMessage::render_metrics()).unwrap(),
            ClientMessage::Metrics
        ));
        assert!(matches!(
            ClientMessage::parse(&ClientMessage::render_shutdown()).unwrap(),
            ClientMessage::Shutdown
        ));
    }

    #[test]
    fn malformed_client_messages_are_described() {
        for (payload, needle) in [
            ("not json", "at byte"),
            ("{ \"type\": \"stats\" }", "no `schema`"),
            (
                "{ \"schema\": \"rlplanner.rpc/v0\", \"type\": \"stats\" }",
                "unsupported schema",
            ),
            ("{ \"schema\": \"rlplanner.rpc/v1\" }", "no `type`"),
            (
                "{ \"schema\": \"rlplanner.rpc/v1\", \"type\": \"reboot\" }",
                "unknown message type",
            ),
            (
                "{ \"schema\": \"rlplanner.rpc/v1\", \"type\": \"cancel\", \"job\": -1 }",
                "non-negative integer",
            ),
            (
                "{ \"schema\": \"rlplanner.rpc/v1\", \"type\": \"solve\" }",
                "needs a `request`",
            ),
            // Integers on the wire are refused, never saturated.
            (
                "{ \"schema\": \"rlplanner.rpc/v1\", \"type\": \"cancel\", \"job\": 1e300 }",
                "non-negative integer",
            ),
            (
                "{ \"schema\": \"rlplanner.rpc/v1\", \"type\": \"status\", \"job\": 9007199254740992 }",
                "non-negative integer",
            ),
            (
                "{ \"schema\": \"rlplanner.rpc/v1\", \"type\": \"solve\", \"request\": {}, \"progress_every\": 1e20 }",
                "`progress_every` must be a non-negative integer",
            ),
        ] {
            let error = ClientMessage::parse(payload).unwrap_err();
            assert!(error.contains(needle), "`{error}` lacks `{needle}`");
        }
    }

    #[test]
    fn server_frames_carry_schema_and_type() {
        let cache = rlp_thermal::ThermalCacheSnapshot::default();
        let scheduler = SchedulerStats {
            workers: 2,
            capacity: 16,
            ..SchedulerStats::default()
        };
        let timings = crate::queue::JobTimings {
            queue_wait: std::time::Duration::from_micros(410),
            run: Some(std::time::Duration::from_millis(141)),
        };
        for (frame, kind) in [
            (frames::accepted(1), "accepted"),
            (frames::busy(16), "busy"),
            (frames::error("no"), "error"),
            (frames::progress(1, 0, -2.0, -2.0), "progress"),
            (frames::outcome(1, "{}", Some(&timings)), "outcome"),
            (frames::failed(1, "oops", Some(&timings)), "failed"),
            (frames::status(1, "queued", None), "status"),
            (frames::cancelled(1, true), "cancelled"),
            (frames::stats(cache, scheduler), "stats"),
            (
                frames::metrics("{ \"schema\": \"rlplanner.metrics/v1\" }"),
                "metrics",
            ),
            (frames::shutdown(0), "shutdown"),
        ] {
            let doc = Value::parse(&frame).expect("frame renders valid JSON");
            assert_eq!(doc.get("schema").and_then(Value::as_str), Some(RPC_SCHEMA));
            assert_eq!(doc.get("type").and_then(Value::as_str), Some(kind));
        }
    }

    #[test]
    fn job_frames_carry_volatile_timings_when_known() {
        let dispatched = crate::queue::JobTimings {
            queue_wait: std::time::Duration::from_micros(410),
            run: Some(std::time::Duration::from_millis(141)),
        };
        let waiting = crate::queue::JobTimings {
            queue_wait: std::time::Duration::from_millis(13),
            run: None,
        };
        let outcome = frames::outcome(3, "{}", Some(&dispatched));
        let doc = Value::parse(&outcome).unwrap();
        assert_eq!(doc.get("queue_ms").and_then(Value::as_f64), Some(0.41));
        assert_eq!(doc.get("solve_ms").and_then(Value::as_f64), Some(141.0));
        // A queued job has no solve time yet; an unknown job has neither.
        let status = frames::status(3, "queued", Some(&waiting));
        let doc = Value::parse(&status).unwrap();
        assert_eq!(doc.get("queue_ms").and_then(Value::as_f64), Some(13.0));
        assert!(doc.get("solve_ms").is_none());
        let unknown = frames::status(9, "unknown", None);
        let doc = Value::parse(&unknown).unwrap();
        assert!(doc.get("queue_ms").is_none());
        // The embedded metrics snapshot round-trips through the parser.
        let metrics =
            frames::metrics("{ \"schema\": \"rlplanner.metrics/v1\", \"counters\": { \"a\": 1 } }");
        let doc = Value::parse(&metrics).unwrap();
        assert_eq!(
            doc.get("metrics")
                .and_then(|m| m.get("schema"))
                .and_then(Value::as_str),
            Some("rlplanner.metrics/v1")
        );
    }
}
