//! The daemon: accept loop, connection handlers and the worker pool.
//!
//! One process-wide [`ThermalModelCache`] backs every solve, which is the
//! point of serving: the expensive fast-model characterisation runs once
//! per distinct thermal configuration and is amortised across all requests
//! (cache-served analyzers are bit-identical to freshly characterised
//! ones, so a served solve is byte-identical to a direct
//! [`rlplanner::FloorplanRequest::solve`] on its deterministic fields).
//!
//! Threading model: the accept loop polls a non-blocking listener so it can
//! observe shutdown; each connection gets a reader thread; `workers`
//! threads pull jobs from the shared bounded [`JobQueue`]. Progress and
//! terminal frames are pushed to the submitting connection through a
//! `ConnWriter` (a mutex around the socket plus a liveness flag), so a
//! worker never races a reply and a departed connection degrades to
//! dropped frames, never a worker crash. Connection teardown cancels that
//! connection's *queued* jobs; running jobs always complete (no cancel
//! token reaches the solve's `SearchRun` yet), they just lose their
//! audience.

use crate::protocol::{self, frames, ClientMessage, SchedulerStats};
use crate::queue::{AdmitError, JobQueue, JobState};
use rlp_thermal::ThermalModelCache;
use rlplanner::report::outcome_json;
use rlplanner::{
    request_from_value, FloorplanOutcome, FloorplanRequest, Method, PlanError, PolicyFile,
    PrebuiltThermal, PreloadedPolicy,
};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

/// How the daemon is sized; see [`Server::bind`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to listen on; use port 0 to let the OS pick.
    pub addr: String,
    /// Worker threads solving jobs concurrently.
    pub workers: usize,
    /// Bounded queue capacity (waiting jobs beyond the running ones).
    pub queue_capacity: usize,
    /// Optional `rlplanner.policy/v1` file to load at startup. Pretrained
    /// requests naming this exact path then solve from the in-memory copy
    /// — no per-job disk read — and a corrupt file fails the bind, not the
    /// first request.
    pub policy: Option<String>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_capacity: 16,
            policy: None,
        }
    }
}

/// A socket writer shared between a connection's reader thread and the
/// workers streaming that connection's job frames.
struct ConnWriter {
    stream: Mutex<TcpStream>,
    alive: AtomicBool,
}

impl ConnWriter {
    fn new(stream: TcpStream) -> Self {
        ConnWriter {
            stream: Mutex::new(stream),
            alive: AtomicBool::new(true),
        }
    }

    /// Writes one frame; a failed or closed connection drops the frame and
    /// marks the writer dead so later sends return immediately.
    fn send(&self, payload: &str) {
        if !self.alive.load(Ordering::Acquire) {
            return;
        }
        let mut stream = self.stream.lock().expect("connection writer poisoned");
        if protocol::write_frame(&mut *stream, payload).is_err() {
            self.alive.store(false, Ordering::Release);
        }
    }

    /// Writes the frame `render` returns, then runs `after`, all under the
    /// write lock. No other frame reaches this connection in between, so
    /// what `after` records is visible to every request the client sends
    /// once it has read the frame and that is answered on this connection
    /// (the `metrics` reply renders under the same lock). `render` and
    /// `after` run even when the connection is dead.
    fn send_then(&self, render: impl FnOnce() -> String, after: impl FnOnce()) {
        let mut stream = self.stream.lock().expect("connection writer poisoned");
        let payload = render();
        if self.alive.load(Ordering::Acquire)
            && protocol::write_frame(&mut *stream, &payload).is_err()
        {
            self.alive.store(false, Ordering::Release);
        }
        after();
    }

    fn close(&self) {
        self.alive.store(false, Ordering::Release);
    }
}

/// One admitted solve.
struct Job {
    request: FloorplanRequest,
    progress_every: usize,
    writer: Arc<ConnWriter>,
    conn_id: u64,
}

struct Shared {
    queue: JobQueue<Job>,
    cache: ThermalModelCache,
    policy: Option<PreloadedPolicy>,
    workers: usize,
    shutdown: AtomicBool,
}

impl Shared {
    fn scheduler_stats(&self) -> SchedulerStats {
        let counters = self.queue.counters();
        SchedulerStats {
            workers: self.workers,
            capacity: self.queue.capacity(),
            queued: counters.queued,
            running: counters.running,
            admitted: counters.admitted,
            completed: counters.completed,
            failed: counters.failed,
            cancelled: counters.cancelled,
        }
    }
}

/// A bound-but-not-yet-running daemon; [`Server::run`] serves until a
/// client sends `shutdown`.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds the listener, sizes the worker pool and queue, and — when
    /// [`ServerConfig::policy`] is set — loads and checks the policy file
    /// up front, so a daemon that starts can actually serve it.
    ///
    /// # Errors
    ///
    /// Returns the bind error, or an [`io::ErrorKind::InvalidData`] error
    /// when the configured policy file is unreadable, corrupt or holds a
    /// non-finite parameter (fail-fast: a bad file is a startup error, not
    /// a per-request one).
    ///
    /// # Panics
    ///
    /// Panics if `workers` or `queue_capacity` is zero.
    pub fn bind(config: ServerConfig) -> io::Result<Server> {
        assert!(config.workers > 0, "the daemon needs at least one worker");
        let policy = match &config.policy {
            Some(path) => {
                let file = PolicyFile::load(path)
                    .and_then(|file| file.check_finite().map(|()| file))
                    .map_err(|e| {
                        io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("policy file `{path}`: {e}"),
                        )
                    })?;
                let checksum = file.checksum();
                rlp_obs::obs_event!(
                    rlp_obs::Level::Info,
                    "rlp_serve",
                    "preloaded policy `{path}` (checksum {checksum:#018x})",
                    checksum = checksum,
                );
                Some(PreloadedPolicy::new(path.clone(), Arc::new(file)))
            }
            None => None,
        };
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        Ok(Server {
            listener,
            shared: Arc::new(Shared {
                queue: JobQueue::new(config.queue_capacity),
                cache: ThermalModelCache::new(),
                policy,
                workers: config.workers,
                shutdown: AtomicBool::new(false),
            }),
        })
    }

    /// The bound address (useful with port 0).
    ///
    /// # Errors
    ///
    /// Returns the underlying socket error.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves until a client requests shutdown, then drains the queue,
    /// joins the workers and returns. In-flight and queued jobs complete;
    /// only admissions stop.
    ///
    /// # Errors
    ///
    /// Returns an accept-loop I/O error (shutdown itself is `Ok`).
    pub fn run(self) -> io::Result<()> {
        let workers: Vec<_> = (0..self.shared.workers)
            .map(|_| {
                let shared = Arc::clone(&self.shared);
                thread::spawn(move || run_worker(&shared))
            })
            .collect();
        let conn_ids = AtomicU64::new(1);
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    // Frames are small and each one is waited for: send them
                    // at once instead of holding them for Nagle's algorithm.
                    // Best effort; without it frames still arrive, later.
                    let _ = stream.set_nodelay(true);
                    let conn_id = conn_ids.fetch_add(1, Ordering::Relaxed);
                    let shared = Arc::clone(&self.shared);
                    thread::spawn(move || handle_connection(stream, &shared, conn_id));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if self.shared.shutdown.load(Ordering::Acquire) {
                        break;
                    }
                    thread::sleep(Duration::from_millis(10));
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        // Idempotent if the shutdown handler already flipped it; makes the
        // drain unconditional even if run() is stopped another way.
        self.shared.queue.begin_shutdown();
        for worker in workers {
            let _ = worker.join();
        }
        Ok(())
    }
}

fn run_worker(shared: &Shared) {
    while let Some((id, job)) = shared.queue.next_job() {
        // Reading the depth takes the queue lock; the guard skips that too.
        if rlp_obs::metrics_enabled() {
            rlp_obs::obs_gauge!("serve.queue.depth").set(shared.queue.counters().queued as i64);
        }
        // One span per job covering solve → serialize → flush; the
        // queue-wait leg comes from the queue's own timestamps, so the
        // full admission → flush timeline is reconstructable from the
        // span plus the VOLATILE timings on the terminal frame.
        let mut span = rlp_obs::obs_span!(
            rlp_obs::Level::Debug,
            "rlp_serve",
            "job.run",
            job = id,
            conn = job.conn_id,
        );
        // Record the terminal state before any later frame can be written to
        // the connection, so a client that receives the terminal frame never
        // observes stale counters.
        let solve_timer = rlp_obs::Stopwatch::start();
        match solve_job(id, &job, shared) {
            Ok(outcome) => {
                solve_timer.stop(rlp_obs::obs_histogram!("serve.job.solve_ns"));
                let serialize_timer = rlp_obs::Stopwatch::start();
                let rendered = outcome_json(job.request.system(), &outcome);
                serialize_timer.stop(rlp_obs::obs_histogram!("serve.job.serialize_ns"));
                let timings = shared.queue.finish(id, JobState::Done);
                let flush_timer = rlp_obs::Stopwatch::start();
                job.writer.send_then(
                    || frames::outcome(id, &rendered, Some(&timings)),
                    || {
                        flush_timer.stop(rlp_obs::obs_histogram!("serve.job.flush_ns"));
                        record_finished_job(&timings, true);
                    },
                );
                span.field("state", "done");
                span.field("queue_ms", timings.queue_ms());
            }
            Err(e) => {
                let timings = shared.queue.finish(id, JobState::Failed);
                job.writer.send_then(
                    || frames::failed(id, &e.to_string(), Some(&timings)),
                    || record_finished_job(&timings, false),
                );
                span.field("state", "failed");
                rlp_obs::obs_event!(
                    rlp_obs::Level::Warn,
                    "rlp_serve",
                    "job {id} failed: {e}",
                    job = id,
                );
            }
        }
    }
}

/// Job-level counters + the queue-wait histogram, recorded once per
/// finished job.
fn record_finished_job(timings: &crate::queue::JobTimings, ok: bool) {
    if ok {
        rlp_obs::obs_counter!("serve.jobs.completed").inc();
    } else {
        rlp_obs::obs_counter!("serve.jobs.failed").inc();
    }
    rlp_obs::obs_histogram!("serve.job.queue_wait_ns").record_duration(timings.queue_wait);
}

/// Solves one job against the process-wide cache; the caller renders the
/// canonical outcome document (so serialization is its own timed phase).
fn solve_job(id: u64, job: &Job, shared: &Shared) -> Result<FloorplanOutcome, PlanError> {
    let request = &job.request;
    // Route analyzer construction through the shared cache, then attach the
    // result as a prebuilt analyzer: the solve itself is unchanged, and a
    // cache-served model is bit-identical to a fresh characterisation.
    let (analyzer, prep) = request
        .thermal()
        .build_cached(request.system(), &shared.cache)?;
    let mut builder = FloorplanRequest::builder()
        .system(request.system().clone())
        .method(request.method().clone())
        .thermal(request.thermal().clone())
        .reward(request.reward().clone())
        .warm_start(request.warm_start())
        .prebuilt_thermal(PrebuiltThermal::new(
            request.thermal().clone(),
            Arc::new(analyzer),
            prep,
        ));
    if let Some(budget) = request.budget() {
        builder = builder.budget(budget);
    }
    if let Some(seed) = request.seed() {
        builder = builder.seed(seed);
    }
    if let Some(parallel_envs) = request.parallel_envs() {
        builder = builder.parallel_envs(parallel_envs);
    }
    // A pretrained request naming the daemon's preloaded policy solves
    // from the in-memory copy (the facade only uses it when the paths
    // match, so a request naming a different file still reads the disk).
    if let (Some(preloaded), Method::Pretrained { .. }) = (&shared.policy, request.method()) {
        builder = builder.preloaded_policy(preloaded.clone());
    }
    let request = builder.build()?;
    // Stream every Nth candidate to the submitting connection. The callback
    // never influences the run, so streamed and silent solves produce
    // identical outcomes.
    let every = job.progress_every;
    request.solve_observed(&mut |index, reward, best_reward| {
        if every != 0 && index.is_multiple_of(every) {
            job.writer
                .send(&frames::progress(id, index, reward, best_reward));
        }
    })
}

fn handle_connection(stream: TcpStream, shared: &Arc<Shared>, conn_id: u64) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    rlp_obs::obs_counter!("serve.connections.opened").inc();
    let writer = Arc::new(ConnWriter::new(write_half));
    let mut reader = stream;
    // Clean close and read errors tear the connection down the same way:
    // its queued jobs are cancelled, running ones finish.
    while let Ok(Some(payload)) = protocol::read_frame(&mut reader) {
        match ClientMessage::parse(&payload) {
            Ok(message) => handle_message(message, &writer, shared, conn_id),
            Err(description) => writer.send(&frames::error(&description)),
        }
    }
    writer.close();
    let dropped = shared.queue.cancel_where(|job| job.conn_id == conn_id);
    rlp_obs::obs_counter!("serve.connections.closed").inc();
    rlp_obs::obs_counter!("serve.jobs.cancelled").add(dropped as u64);
    rlp_obs::obs_event!(
        rlp_obs::Level::Debug,
        "rlp_serve",
        "connection closed",
        conn = conn_id,
        cancelled_jobs = dropped,
    );
}

fn handle_message(
    message: ClientMessage,
    writer: &Arc<ConnWriter>,
    shared: &Arc<Shared>,
    conn_id: u64,
) {
    match message {
        ClientMessage::Solve {
            request,
            progress_every,
        } => {
            let request = match request_from_value(&request) {
                Ok(request) => request,
                Err(e) => {
                    writer.send(&frames::error(&e.to_string()));
                    return;
                }
            };
            let job = Job {
                request,
                progress_every,
                writer: Arc::clone(writer),
                conn_id,
            };
            // Admit under the write lock, so the job's `accepted` frame is
            // on the wire before its worker can send a progress frame.
            writer.send_then(
                || match shared.queue.admit(job) {
                    Ok(id) => {
                        rlp_obs::obs_counter!("serve.jobs.admitted").inc();
                        if rlp_obs::metrics_enabled() {
                            rlp_obs::obs_gauge!("serve.queue.depth")
                                .set(shared.queue.counters().queued as i64);
                        }
                        rlp_obs::obs_event!(
                            rlp_obs::Level::Debug,
                            "rlp_serve",
                            "job admitted",
                            job = id,
                            conn = conn_id,
                        );
                        frames::accepted(id)
                    }
                    Err(AdmitError::Busy { capacity }) => {
                        rlp_obs::obs_counter!("serve.jobs.rejected").inc();
                        frames::busy(capacity)
                    }
                    Err(AdmitError::ShuttingDown) => frames::error("daemon is shutting down"),
                },
                || {},
            );
        }
        ClientMessage::Status { job } => {
            let state = shared.queue.state(job).map_or("unknown", JobState::label);
            let timings = shared.queue.timings(job);
            writer.send(&frames::status(job, state, timings.as_ref()));
        }
        ClientMessage::Cancel { job } => {
            let removed = shared.queue.cancel(job);
            if removed {
                rlp_obs::obs_counter!("serve.jobs.cancelled").inc();
            }
            writer.send(&frames::cancelled(job, removed));
        }
        ClientMessage::Stats => {
            writer.send(&frames::stats(
                shared.cache.snapshot(),
                shared.scheduler_stats(),
            ));
        }
        ClientMessage::Metrics => {
            writer.send_then(
                || frames::metrics(&rlp_obs::registry().snapshot().render_json()),
                || {},
            );
        }
        ClientMessage::Shutdown => {
            let draining = shared.queue.begin_shutdown();
            shared.shutdown.store(true, Ordering::Release);
            writer.send(&frames::shutdown(draining));
        }
    }
}
