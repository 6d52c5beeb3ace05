//! Floorplanning as a service: a persistent daemon over the
//! [`rlplanner`] facade.
//!
//! The crate has three layers:
//!
//! - [`protocol`] — the `rlplanner.rpc/v1` wire format: 4-byte big-endian
//!   length-prefixed JSON frames, client messages (`solve`, `status`,
//!   `cancel`, `stats`, `shutdown`) and server frames (including streamed
//!   `progress` while a job runs).
//! - [`queue`] + [`server`] — the daemon: a bounded job queue with
//!   reject-not-block backpressure feeding an N-worker pool, every worker
//!   solving through one process-wide thermal-model cache so repeat
//!   configurations skip characterisation.
//! - [`client`] — a blocking [`ServeClient`] that demultiplexes pushed job
//!   frames from request replies; both the `rlp_load` harness and the
//!   integration tests drive the daemon through it.
//!
//! Determinism contract: a fixed-seed solve through the daemon is
//! byte-identical to a direct [`rlplanner::FloorplanRequest::solve`] on every
//! deterministic field of the outcome document — progress streaming
//! observes the solve without influencing it, and cache-served thermal
//! models are bit-identical to freshly characterised ones.

pub mod client;
pub mod protocol;
pub mod queue;
pub mod server;

pub use client::{ClientError, JobResult, ProgressSample, ServeClient, StatsReport, Submit};
pub use protocol::{ClientMessage, SchedulerStats, MAX_FRAME_BYTES, RPC_SCHEMA};
pub use queue::{AdmitError, JobQueue, JobState, QueueCounters};
pub use server::{Server, ServerConfig};
