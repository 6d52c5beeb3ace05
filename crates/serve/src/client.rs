//! A blocking client for the `rlplanner.rpc/v1` protocol.
//!
//! [`ServeClient`] wraps one TCP connection and handles the protocol's one
//! wrinkle: job-lifecycle frames (`progress`, `outcome`, `failed`) are
//! pushed by worker threads and may arrive interleaved with the reply to
//! any request, so every receive path demultiplexes — frames that answer
//! the pending request are consumed, job frames for other work are stashed
//! and replayed by [`ServeClient::wait_outcome`].

use crate::protocol::{self, ClientMessage, SchedulerStats, RPC_SCHEMA};
use rlp_obs::json::{Decode, Value};
use std::collections::VecDeque;
use std::fmt;
use std::io;
use std::net::{TcpStream, ToSocketAddrs};

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// The socket failed (including the daemon closing mid-reply).
    Io(io::Error),
    /// The daemon sent a frame the client cannot interpret.
    Protocol(String),
    /// The daemon reported an error (`error` frame, or `failed` while
    /// waiting for an outcome).
    Remote(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "connection error: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol violation: {m}"),
            ClientError::Remote(m) => write!(f, "daemon error: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// The daemon's answer to a `solve` submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Submit {
    /// Admitted under this job id.
    Accepted(u64),
    /// Rejected with backpressure: the queue (of this capacity) was full.
    Busy {
        /// The daemon's queue capacity, echoed from the `busy` frame.
        capacity: usize,
    },
}

/// One streamed progress sample from a running job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProgressSample {
    /// Candidate index within the solve (episode or SA evaluation).
    pub candidate: usize,
    /// The candidate's reward/objective.
    pub reward: f64,
    /// Best reward seen so far.
    pub best_reward: f64,
}

/// A finished job: its outcome document plus any progress seen on the way.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// The embedded `rlplanner.outcome/v1` document.
    pub outcome: Value,
    /// Progress samples streamed while the job ran (empty unless the solve
    /// was submitted with a non-zero `progress_every`).
    pub progress: Vec<ProgressSample>,
}

/// Cache + scheduler telemetry from a `stats` frame.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsReport {
    /// Distinct thermal models held by the daemon's shared cache.
    pub cache_models: usize,
    /// Cache hits since the daemon started.
    pub cache_hits: usize,
    /// Cache misses (characterisations actually run).
    pub cache_misses: usize,
    /// Scheduler counters.
    pub scheduler: SchedulerStats,
}

/// A blocking `rlplanner.rpc/v1` client over one TCP connection.
pub struct ServeClient {
    stream: TcpStream,
    stashed: VecDeque<Value>,
}

impl ServeClient {
    /// Connects to a daemon.
    ///
    /// # Errors
    ///
    /// Returns the connection or socket-option error.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<ServeClient> {
        let stream = TcpStream::connect(addr)?;
        // Every frame waits for an answer: send it at once instead of
        // holding it for Nagle's algorithm and the daemon's delayed ACK.
        stream.set_nodelay(true)?;
        Ok(ServeClient {
            stream,
            stashed: VecDeque::new(),
        })
    }

    /// Submits an already-rendered `rlplanner.request/v1` document.
    /// `progress_every` asks the daemon to stream every Nth candidate
    /// (0 disables streaming).
    ///
    /// # Errors
    ///
    /// [`ClientError::Remote`] if the daemon rejected the document,
    /// otherwise transport/protocol errors.
    pub fn submit(
        &mut self,
        request_json: &str,
        progress_every: usize,
    ) -> Result<Submit, ClientError> {
        self.send(&ClientMessage::render_solve(request_json, progress_every))?;
        let reply = self.read_reply(&["accepted", "busy"])?;
        match frame_type(&reply)? {
            "accepted" => Ok(Submit::Accepted(field(&reply, "job")?)),
            _ => Ok(Submit::Busy {
                capacity: field(&reply, "capacity")?,
            }),
        }
    }

    /// Blocks until `job` finishes, collecting its streamed progress.
    ///
    /// # Errors
    ///
    /// [`ClientError::Remote`] if the job failed, otherwise
    /// transport/protocol errors.
    pub fn wait_outcome(&mut self, job: u64) -> Result<JobResult, ClientError> {
        let mut progress = Vec::new();
        loop {
            // Replay this job's stashed frames first; frames for other jobs
            // stay stashed (popping and re-stashing them would spin).
            let frame = match self
                .stashed
                .iter()
                .position(|f| field(f, "job").ok() == Some(job))
            {
                Some(index) => self.stashed.remove(index).expect("index in bounds"),
                None => {
                    let frame = self.read_socket_frame()?;
                    if field(&frame, "job").ok() != Some(job) {
                        self.stashed.push_back(frame);
                        continue;
                    }
                    frame
                }
            };
            match frame_type(&frame)? {
                "progress" => progress.push(ProgressSample {
                    candidate: field(&frame, "candidate")?,
                    reward: field(&frame, "reward")?,
                    best_reward: field(&frame, "best_reward")?,
                }),
                "outcome" => {
                    let outcome = frame
                        .into_member("outcome")
                        .ok_or_else(|| protocol_err("outcome frame has no `outcome`"))?;
                    return Ok(JobResult { outcome, progress });
                }
                "failed" => {
                    return Err(ClientError::Remote(field(&frame, "message")?));
                }
                other => {
                    return Err(protocol_err(&format!(
                        "unexpected `{other}` frame for job {job}"
                    )));
                }
            }
        }
    }

    /// Queries a job's lifecycle state (`queued`, `running`, `done`,
    /// `failed`, `cancelled` or `unknown`).
    ///
    /// # Errors
    ///
    /// Transport/protocol errors, or a daemon-reported error.
    pub fn status(&mut self, job: u64) -> Result<String, ClientError> {
        self.send(&ClientMessage::render_status(job))?;
        let reply = self.read_reply(&["status"])?;
        field(&reply, "state")
    }

    /// Cancels a queued job; `true` if it was removed before running.
    ///
    /// # Errors
    ///
    /// Transport/protocol errors, or a daemon-reported error.
    pub fn cancel(&mut self, job: u64) -> Result<bool, ClientError> {
        self.send(&ClientMessage::render_cancel(job))?;
        let reply = self.read_reply(&["cancelled"])?;
        match reply.get("ok") {
            Some(Value::Bool(ok)) => Ok(*ok),
            _ => Err(protocol_err("cancelled frame has no boolean `ok`")),
        }
    }

    /// Fetches cache + scheduler telemetry.
    ///
    /// # Errors
    ///
    /// Transport/protocol errors, or a daemon-reported error.
    pub fn stats(&mut self) -> Result<StatsReport, ClientError> {
        self.send(&ClientMessage::render_stats())?;
        let reply = self.read_reply(&["stats"])?;
        let cache = reply
            .get("cache")
            .ok_or_else(|| protocol_err("stats frame has no `cache`"))?;
        let scheduler = reply
            .get("scheduler")
            .ok_or_else(|| protocol_err("stats frame has no `scheduler`"))?;
        Ok(StatsReport {
            cache_models: field(cache, "models")?,
            cache_hits: field(cache, "hits")?,
            cache_misses: field(cache, "misses")?,
            scheduler: SchedulerStats {
                workers: field(scheduler, "workers")?,
                capacity: field(scheduler, "capacity")?,
                queued: field(scheduler, "queued")?,
                running: field(scheduler, "running")?,
                admitted: field(scheduler, "admitted")?,
                completed: field(scheduler, "completed")?,
                failed: field(scheduler, "failed")?,
                cancelled: field(scheduler, "cancelled")?,
            },
        })
    }

    /// Fetches the daemon's `rlplanner.metrics/v1` snapshot.
    ///
    /// Returns the embedded snapshot document; render it with
    /// [`Value::render`] to recover the JSON text.
    ///
    /// # Errors
    ///
    /// Transport/protocol errors, or a daemon-reported error.
    pub fn metrics(&mut self) -> Result<Value, ClientError> {
        self.send(&ClientMessage::render_metrics())?;
        let reply = self.read_reply(&["metrics"])?;
        reply
            .get("metrics")
            .cloned()
            .ok_or_else(|| protocol_err("metrics frame has no `metrics`"))
    }

    /// Requests graceful shutdown; returns the number of jobs the daemon
    /// still had to drain.
    ///
    /// # Errors
    ///
    /// Transport/protocol errors, or a daemon-reported error.
    pub fn shutdown(&mut self) -> Result<usize, ClientError> {
        self.send(&ClientMessage::render_shutdown())?;
        let reply = self.read_reply(&["shutdown"])?;
        field(&reply, "draining")
    }

    fn send(&mut self, payload: &str) -> io::Result<()> {
        protocol::write_frame(&mut self.stream, payload)
    }

    /// Reads frames from the socket until one matches `expected`, stashing
    /// pushed job-lifecycle frames for later [`ServeClient::wait_outcome`]
    /// calls. Replies always arrive after their request on the wire, so a
    /// stashed (older) frame can never be the reply and the stash is not
    /// consulted. An `error` frame becomes [`ClientError::Remote`].
    fn read_reply(&mut self, expected: &[&str]) -> Result<Value, ClientError> {
        loop {
            let frame = self.read_socket_frame()?;
            let kind = frame_type(&frame)?;
            if expected.contains(&kind) {
                return Ok(frame);
            }
            match kind {
                "error" => {
                    return Err(ClientError::Remote(field(&frame, "message")?));
                }
                "progress" | "outcome" | "failed" => self.stashed.push_back(frame),
                other => {
                    return Err(protocol_err(&format!(
                        "expected one of {expected:?}, daemon sent `{other}`"
                    )));
                }
            }
        }
    }

    /// Reads and schema-checks the next frame off the socket.
    fn read_socket_frame(&mut self) -> Result<Value, ClientError> {
        let payload = protocol::read_frame(&mut self.stream)?.ok_or_else(|| {
            ClientError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            ))
        })?;
        let frame =
            Value::parse(&payload).map_err(|e| protocol_err(&format!("unparseable frame: {e}")))?;
        match frame.get("schema").and_then(Value::as_str) {
            Some(RPC_SCHEMA) => Ok(frame),
            other => Err(protocol_err(&format!(
                "frame schema is {other:?}, expected `{RPC_SCHEMA}`"
            ))),
        }
    }
}

fn protocol_err(message: &str) -> ClientError {
    ClientError::Protocol(message.to_string())
}

fn frame_type(frame: &Value) -> Result<&str, ClientError> {
    frame
        .get("type")
        .and_then(Value::as_str)
        .ok_or_else(|| protocol_err("frame has no `type`"))
}

/// Member `key` of a frame, read by the rules of [`rlp_obs::json`]: an
/// integer must be exact, and a `null` number is NaN.
fn field<T: Decode>(frame: &Value, key: &str) -> Result<T, ClientError> {
    frame
        .get(key)
        .and_then(T::decode)
        .ok_or_else(|| protocol_err(&format!("frame has no `{key}` that is {}", T::EXPECTED)))
}
