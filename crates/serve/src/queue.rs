//! The bounded job queue behind the daemon's worker pool.
//!
//! [`JobQueue`] is the scheduler's single synchronisation point: admission
//! (with backpressure — a full queue *rejects* instead of blocking, which
//! becomes the protocol's `busy` frame), worker dispatch, cancellation of
//! queued jobs, per-job lifecycle states for `status`, and graceful
//! shutdown (stop admitting, drain what is queued, wake every worker).
//! Job ids are assigned at admission and never reused.
//!
//! Running jobs cannot be cancelled yet. Every engine polls its
//! `SearchRun::exhausted` between candidates, but no cancel token reaches
//! the `SearchRun` a job's solve builds, so `cancel` only removes jobs
//! still waiting in the queue — the same contract connection teardown uses
//! for the departed connection's queued jobs.

use std::collections::{HashMap, VecDeque};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Lifecycle of a job, as reported by the protocol's `status` frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Admitted, waiting for a worker.
    Queued,
    /// Executing on a worker.
    Running,
    /// Finished with an outcome.
    Done,
    /// Finished with a solve error.
    Failed,
    /// Removed from the queue before running.
    Cancelled,
}

impl JobState {
    /// The stable label the `status` frame carries.
    pub fn label(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }
}

/// Wall-clock milestones of one job's lifecycle, measured by the queue
/// from its admission/dispatch/finish timestamps. These feed the VOLATILE
/// `queue_ms`/`solve_ms` fields of the protocol's job frames and the
/// `serve.job.*` histograms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobTimings {
    /// Admission → worker dispatch (still growing for a queued job).
    pub queue_wait: Duration,
    /// Dispatch → finish (`None` until dispatched; still growing while
    /// running).
    pub run: Option<Duration>,
}

impl JobTimings {
    /// Queue wait in fractional milliseconds.
    pub fn queue_ms(&self) -> f64 {
        self.queue_wait.as_secs_f64() * 1e3
    }

    /// Run time in fractional milliseconds, if dispatched.
    pub fn solve_ms(&self) -> Option<f64> {
        self.run.map(|d| d.as_secs_f64() * 1e3)
    }
}

/// Why [`JobQueue::admit`] rejected a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitError {
    /// The queue is at capacity; retry later (the `busy` frame).
    Busy {
        /// The queue's capacity, echoed to the client.
        capacity: usize,
    },
    /// The daemon is shutting down and admits nothing new.
    ShuttingDown,
}

/// Point-in-time queue counters (the scheduler half of the `stats` frame).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueCounters {
    /// Jobs currently waiting.
    pub queued: usize,
    /// Jobs currently executing.
    pub running: usize,
    /// Jobs ever admitted.
    pub admitted: usize,
    /// Jobs finished with an outcome.
    pub completed: usize,
    /// Jobs finished with an error.
    pub failed: usize,
    /// Jobs cancelled while queued.
    pub cancelled: usize,
}

/// Per-job lifecycle record: the state plus the timestamps [`JobTimings`]
/// are derived from.
struct JobInfo {
    state: JobState,
    admitted: Instant,
    started: Option<Instant>,
    finished: Option<Instant>,
}

impl JobInfo {
    fn timings(&self, now: Instant) -> JobTimings {
        let dispatched = self.started.unwrap_or_else(|| self.finished.unwrap_or(now));
        JobTimings {
            queue_wait: dispatched.saturating_duration_since(self.admitted),
            run: self.started.map(|started| {
                self.finished
                    .unwrap_or(now)
                    .saturating_duration_since(started)
            }),
        }
    }
}

/// How many finished (done, failed or cancelled) jobs keep their state for
/// `status`. Older ones are forgotten, so a long-running daemon's job table
/// stays bounded however many jobs it serves.
const FINISHED_STATES_KEPT: usize = 1024;

struct QueueInner<T> {
    queue: VecDeque<(u64, T)>,
    states: HashMap<u64, JobInfo>,
    /// Ids of finished jobs still in `states`, oldest first.
    finished: VecDeque<u64>,
    next_id: u64,
    shutting_down: bool,
    counters: QueueCounters,
}

impl<T> QueueInner<T> {
    fn set_state(&mut self, id: u64, state: JobState) {
        let now = Instant::now();
        match self.states.get_mut(&id) {
            Some(info) => {
                info.state = state;
                match state {
                    JobState::Running => info.started = Some(now),
                    JobState::Done | JobState::Failed | JobState::Cancelled => {
                        info.finished = Some(now);
                        self.finished.push_back(id);
                        if self.finished.len() > FINISHED_STATES_KEPT {
                            let oldest = self.finished.pop_front().expect("non-empty");
                            self.states.remove(&oldest);
                        }
                    }
                    JobState::Queued => {}
                }
            }
            None => {
                self.states.insert(
                    id,
                    JobInfo {
                        state,
                        admitted: now,
                        started: None,
                        finished: None,
                    },
                );
            }
        }
    }
}

/// A bounded multi-producer multi-consumer job queue; see the
/// [module docs](self).
pub struct JobQueue<T> {
    inner: Mutex<QueueInner<T>>,
    job_ready: Condvar,
    capacity: usize,
}

impl<T> JobQueue<T> {
    /// Creates a queue holding at most `capacity` waiting jobs.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero — the daemon could never admit work.
    pub fn new(capacity: usize) -> Self {
        assert!(
            capacity > 0,
            "the job queue needs capacity for at least one job"
        );
        JobQueue {
            inner: Mutex::new(QueueInner {
                queue: VecDeque::new(),
                states: HashMap::new(),
                finished: VecDeque::new(),
                next_id: 1,
                shutting_down: false,
                counters: QueueCounters::default(),
            }),
            job_ready: Condvar::new(),
            capacity,
        }
    }

    /// The queue's capacity (waiting jobs; running jobs do not count).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Admits a job, assigning the next id, or rejects it with
    /// backpressure.
    ///
    /// # Errors
    ///
    /// [`AdmitError::Busy`] when the queue is full, or
    /// [`AdmitError::ShuttingDown`] after [`JobQueue::begin_shutdown`].
    pub fn admit(&self, payload: T) -> Result<u64, AdmitError> {
        let mut inner = self.lock();
        if inner.shutting_down {
            return Err(AdmitError::ShuttingDown);
        }
        if inner.queue.len() >= self.capacity {
            return Err(AdmitError::Busy {
                capacity: self.capacity,
            });
        }
        let id = inner.next_id;
        inner.next_id += 1;
        inner.queue.push_back((id, payload));
        inner.set_state(id, JobState::Queued);
        inner.counters.admitted += 1;
        drop(inner);
        self.job_ready.notify_one();
        Ok(id)
    }

    /// Blocks until a job is available and claims it (marking it running),
    /// or returns `None` once the queue is shut down *and* drained — the
    /// worker-loop exit condition.
    pub fn next_job(&self) -> Option<(u64, T)> {
        let mut inner = self.lock();
        loop {
            if let Some((id, payload)) = inner.queue.pop_front() {
                inner.set_state(id, JobState::Running);
                inner.counters.running += 1;
                return Some((id, payload));
            }
            if inner.shutting_down {
                return None;
            }
            inner = self.job_ready.wait(inner).expect("job queue lock poisoned");
        }
    }

    /// Records a claimed job's terminal state ([`JobState::Done`] or
    /// [`JobState::Failed`]) and returns its final timings.
    ///
    /// # Panics
    ///
    /// Panics if `state` is not terminal-from-running, which would corrupt
    /// the counters.
    pub fn finish(&self, id: u64, state: JobState) -> JobTimings {
        assert!(
            matches!(state, JobState::Done | JobState::Failed),
            "finish() only records done/failed"
        );
        let mut inner = self.lock();
        inner.set_state(id, state);
        inner.counters.running -= 1;
        match state {
            JobState::Done => inner.counters.completed += 1,
            _ => inner.counters.failed += 1,
        }
        let now = Instant::now();
        inner
            .states
            .get(&id)
            .map(|info| info.timings(now))
            .expect("finish() follows next_job(), which recorded the job")
    }

    /// Cancels a job if it is still queued; returns whether it was removed.
    /// Running and finished jobs are untouched (and return `false`).
    pub fn cancel(&self, id: u64) -> bool {
        let mut inner = self.lock();
        let Some(index) = inner.queue.iter().position(|(job, _)| *job == id) else {
            return false;
        };
        inner.queue.remove(index);
        inner.set_state(id, JobState::Cancelled);
        inner.counters.cancelled += 1;
        true
    }

    /// Cancels every queued job matching `predicate` — how connection
    /// teardown drops the departed connection's pending work. Returns the
    /// number cancelled.
    pub fn cancel_where(&self, predicate: impl Fn(&T) -> bool) -> usize {
        let mut inner = self.lock();
        let mut cancelled = Vec::new();
        inner.queue.retain(|(id, payload)| {
            if predicate(payload) {
                cancelled.push(*id);
                false
            } else {
                true
            }
        });
        for id in &cancelled {
            inner.set_state(*id, JobState::Cancelled);
        }
        inner.counters.cancelled += cancelled.len();
        cancelled.len()
    }

    /// A job's lifecycle state, or `None` for an id never admitted or one
    /// of the finished jobs older than the last 1024 to finish.
    pub fn state(&self, id: u64) -> Option<JobState> {
        self.lock().states.get(&id).map(|info| info.state)
    }

    /// A job's wall-clock timings so far, or `None` for an id
    /// [`JobQueue::state`] does not know. Queued and running jobs report
    /// partial (still growing)
    /// values; finished jobs report final ones.
    pub fn timings(&self, id: u64) -> Option<JobTimings> {
        let now = Instant::now();
        self.lock().states.get(&id).map(|info| info.timings(now))
    }

    /// Point-in-time counters for the `stats` frame.
    pub fn counters(&self) -> QueueCounters {
        let inner = self.lock();
        QueueCounters {
            queued: inner.queue.len(),
            ..inner.counters
        }
    }

    /// Stops admissions and wakes every waiting worker; already-queued jobs
    /// still drain. Returns the number of jobs remaining (queued + running)
    /// at this moment — the `draining` count of the shutdown ack.
    pub fn begin_shutdown(&self) -> usize {
        let mut inner = self.lock();
        inner.shutting_down = true;
        let draining = inner.queue.len() + inner.counters.running;
        drop(inner);
        self.job_ready.notify_all();
        draining
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, QueueInner<T>> {
        self.inner.lock().expect("job queue lock poisoned")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn admission_assigns_sequential_ids_and_rejects_when_full() {
        let queue = JobQueue::new(2);
        assert_eq!(queue.admit("a"), Ok(1));
        assert_eq!(queue.admit("b"), Ok(2));
        assert_eq!(queue.admit("c"), Err(AdmitError::Busy { capacity: 2 }));
        // Dispatching one frees a slot; ids keep counting up.
        assert_eq!(queue.next_job(), Some((1, "a")));
        assert_eq!(queue.admit("c"), Ok(3));
        let counters = queue.counters();
        assert_eq!(
            (counters.admitted, counters.queued, counters.running),
            (3, 2, 1)
        );
    }

    #[test]
    fn lifecycle_states_follow_the_job() {
        let queue = JobQueue::new(4);
        let id = queue.admit(()).unwrap();
        assert_eq!(queue.state(id), Some(JobState::Queued));
        assert_eq!(queue.state(99), None);
        let (claimed, ()) = queue.next_job().unwrap();
        assert_eq!(claimed, id);
        assert_eq!(queue.state(id), Some(JobState::Running));
        // A running job cannot be cancelled.
        assert!(!queue.cancel(id));
        queue.finish(id, JobState::Done);
        assert_eq!(queue.state(id), Some(JobState::Done));
        assert_eq!(queue.counters().completed, 1);
    }

    #[test]
    fn timings_follow_the_job_lifecycle() {
        let queue = JobQueue::new(4);
        let id = queue.admit(()).unwrap();
        let queued = queue.timings(id).unwrap();
        assert!(queued.run.is_none(), "not dispatched yet");
        assert!(queue.timings(999).is_none(), "unknown id");
        let (claimed, ()) = queue.next_job().unwrap();
        assert_eq!(claimed, id);
        thread::sleep(Duration::from_millis(2));
        let running = queue.timings(id).unwrap();
        assert!(
            running.run.is_some(),
            "running jobs report partial run time"
        );
        let final_timings = queue.finish(id, JobState::Done);
        assert!(final_timings.run.unwrap() >= Duration::from_millis(2));
        assert!(final_timings.solve_ms().unwrap() >= 2.0);
        // Timings freeze at the recorded timestamps once the job finished.
        assert_eq!(queue.timings(id), Some(final_timings));
    }

    #[test]
    fn only_the_most_recent_finished_jobs_keep_their_state() {
        let queue = JobQueue::new(1);
        let total = FINISHED_STATES_KEPT + 3;
        for _ in 0..total {
            queue.admit(()).unwrap();
            let (id, ()) = queue.next_job().unwrap();
            queue.finish(id, JobState::Done);
        }
        let first = 1;
        let last = total as u64;
        assert_eq!(queue.state(first), None, "the oldest state is forgotten");
        assert_eq!(queue.state(last - FINISHED_STATES_KEPT as u64), None);
        assert_eq!(
            queue.state(last - FINISHED_STATES_KEPT as u64 + 1),
            Some(JobState::Done)
        );
        assert_eq!(queue.state(last), Some(JobState::Done));
        assert_eq!(queue.lock().states.len(), FINISHED_STATES_KEPT);
        assert_eq!(queue.counters().completed, total);
    }

    #[test]
    fn cancel_removes_only_queued_jobs() {
        let queue = JobQueue::new(4);
        let keep = queue.admit("keep").unwrap();
        let drop_ = queue.admit("drop").unwrap();
        assert!(queue.cancel(drop_));
        assert!(!queue.cancel(drop_), "double cancel is a no-op");
        assert_eq!(queue.state(drop_), Some(JobState::Cancelled));
        assert_eq!(queue.next_job(), Some((keep, "keep")));
        assert_eq!(queue.counters().cancelled, 1);
    }

    #[test]
    fn cancel_where_drops_a_connections_jobs() {
        let queue = JobQueue::new(8);
        queue.admit(("conn-a", 1)).unwrap();
        queue.admit(("conn-b", 2)).unwrap();
        queue.admit(("conn-a", 3)).unwrap();
        assert_eq!(queue.cancel_where(|(conn, _)| *conn == "conn-a"), 2);
        assert_eq!(queue.counters().queued, 1);
        assert_eq!(queue.counters().cancelled, 2);
    }

    #[test]
    fn shutdown_drains_queued_jobs_then_releases_workers() {
        let queue = Arc::new(JobQueue::new(8));
        queue.admit(1).unwrap();
        queue.admit(2).unwrap();
        // Shut down before any worker runs so the draining count is exact.
        assert_eq!(queue.begin_shutdown(), 2);
        assert_eq!(queue.admit(3), Err(AdmitError::ShuttingDown));
        let worker = {
            let queue = Arc::clone(&queue);
            thread::spawn(move || {
                let mut seen = Vec::new();
                while let Some((id, payload)) = queue.next_job() {
                    seen.push(payload);
                    queue.finish(id, JobState::Done);
                }
                seen
            })
        };
        // The worker drains both queued jobs, then exits on the flag.
        assert_eq!(worker.join().unwrap(), vec![1, 2]);
        assert_eq!(queue.counters().completed, 2);
    }

    #[test]
    fn blocked_workers_wake_for_new_jobs_and_for_shutdown() {
        let queue = Arc::new(JobQueue::new(4));
        let worker = {
            let queue = Arc::clone(&queue);
            thread::spawn(move || {
                let mut seen = 0;
                while let Some((id, ())) = queue.next_job() {
                    seen += 1;
                    queue.finish(id, JobState::Done);
                }
                seen
            })
        };
        // The worker is (eventually) parked on the condvar; admission wakes
        // it, then shutdown releases it.
        queue.admit(()).unwrap();
        while queue.counters().completed == 0 {
            thread::yield_now();
        }
        queue.begin_shutdown();
        assert_eq!(worker.join().unwrap(), 1);
    }
}
