//! Streaming run records and the pluggable [`RunSink`].
//!
//! A campaign is hours of compute whose value used to materialise only at
//! the very end, inside one [`CampaignReport`](crate::CampaignReport) — a
//! crash at run N−1 of N threw everything away. The engine now emits each
//! grid cell the moment it finishes as one single-line JSON record
//! (schema [`RUN_RECORD_SCHEMA`], `rlplanner.campaign-run/v1`) through a
//! sink chosen by the caller:
//!
//! * [`NullSink`] — discard records; the classic in-memory
//!   [`CampaignEngine::run`](crate::CampaignEngine::run) API.
//! * [`MemorySink`] — collect records in a `Vec<String>`; what the tests
//!   use to observe the stream.
//! * [`JsonlSink`] — append records to a JSONL file, flushed per record.
//!   Reopening an existing file resumes it: prior records are handed to the
//!   engine, which skips their grid indices and only executes what is
//!   missing.
//!
//! # Run record ([`RUN_RECORD_SCHEMA`])
//!
//! One line per record, compact (no newlines — JSON strings escape them):
//!
//! ```json
//! {"schema":"rlplanner.campaign-run/v1","index":0,"status":"ok",
//!  "system":"multi-gpu","system_index":0,"method":"rl","seed":7,
//!  "outcome":{"schema":"rlplanner.outcome/v1",...}}
//! {"schema":"rlplanner.campaign-run/v1","index":3,"status":"error",
//!  "system":"multi-gpu","system_index":0,"method":"sa","seed":8,
//!  "error":"initial placement failed: ..."}
//! ```
//!
//! `index` is the run's position in the spec's canonical grid order
//! (systems outermost, then methods, then seeds) — the key a resumed
//! campaign matches records against its spec with. An `ok` record embeds
//! the full `rlplanner.outcome/v1` document, written compact by the same
//! writer as the pretty document, so every number keeps its spelling:
//! placement coordinates keep four decimals and integers stay exact. The
//! record restates nothing of it: the run's evaluation counts are the
//! outcome's, and its only VOLATILE values are the outcome's `timing`
//! member. [`rlplanner::outcome_from_value`] reconstructs the outcome
//! losslessly on resume. An `error` record carries the rendered solve
//! error only — resume retries it.

use crate::report::{RunFailure, RunRecord};
use rlp_chiplet::ChipletSystem;
use rlp_obs::json::{Layout, Writer};
use rlplanner::report::write_outcome;
use std::fs::OpenOptions;
use std::io::{self, BufWriter, ErrorKind, Write};
use std::path::{Path, PathBuf};

/// Identifier of the single-line run-record layout streamed by
/// [`crate::CampaignEngine::run_streamed`]; see the [module docs](self).
pub const RUN_RECORD_SCHEMA: &str = "rlplanner.campaign-run/v1";

/// One event of a running campaign, borrowed from the engine at the moment
/// the run finishes.
#[derive(Debug, Clone, Copy)]
pub enum RunEvent<'a> {
    /// A run completed; `system` is the run's system (needed to render the
    /// embedded outcome document).
    Completed {
        /// The completed record, grid index included.
        run: &'a RunRecord,
        /// The record's system.
        system: &'a ChipletSystem,
    },
    /// A run failed to solve.
    Failed {
        /// The failure, grid index included.
        failure: &'a RunFailure,
    },
}

impl RunEvent<'_> {
    /// Grid index of the run this event describes.
    pub fn index(&self) -> usize {
        match self {
            RunEvent::Completed { run, .. } => run.index,
            RunEvent::Failed { failure } => failure.index,
        }
    }

    /// Renders the event as one `rlplanner.campaign-run/v1` line (no
    /// trailing newline).
    pub fn to_jsonl(&self) -> String {
        let mut w = Writer::compact();
        w.object(Layout::Inline, |w| {
            w.field("schema", RUN_RECORD_SCHEMA)
                .field("index", self.index());
            match self {
                RunEvent::Completed { run, system } => {
                    w.field("status", "ok")
                        .field("system", &run.system)
                        .field("system_index", run.system_index)
                        .field("method", &run.method)
                        .field("seed", run.seed);
                    write_outcome(w.key("outcome"), system, &run.outcome);
                }
                RunEvent::Failed { failure } => {
                    w.field("status", "error")
                        .field("system", &failure.system)
                        .field("system_index", failure.system_index)
                        .field("method", &failure.method)
                        .field("seed", failure.seed)
                        .field("error", failure.error.to_string());
                }
            }
        });
        w.finish()
    }
}

/// Where a campaign streams its per-run records.
///
/// `emit` is called exactly once per run this execution performs (completed
/// or failed), under the engine's emit lock, in completion order. An error
/// aborts the campaign with
/// [`CampaignError::Sink`](crate::CampaignError::Sink) — a record that
/// cannot be persisted must not be silently dropped, and everything emitted
/// before the error is already safe.
pub trait RunSink: Send {
    /// Persist one run record.
    fn emit(&mut self, event: &RunEvent<'_>) -> io::Result<()>;

    /// Records persisted by a previous execution, one line each. The engine
    /// skips the grid indices of `ok` records (after validating them
    /// against the spec) and retries `error` records.
    fn prior_records(&self) -> &[String] {
        &[]
    }
}

/// Discards every record; streaming disabled.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl RunSink for NullSink {
    fn emit(&mut self, _event: &RunEvent<'_>) -> io::Result<()> {
        Ok(())
    }
}

/// Collects records in memory, in emit order.
#[derive(Debug, Clone, Default)]
pub struct MemorySink {
    lines: Vec<String>,
    prior: Vec<String>,
}

impl MemorySink {
    /// An empty sink (fresh campaign).
    pub fn new() -> Self {
        Self::default()
    }

    /// A sink resuming from previously captured lines.
    pub fn with_prior(prior: Vec<String>) -> Self {
        Self {
            lines: Vec::new(),
            prior,
        }
    }

    /// Records emitted by this execution, in emit order.
    pub fn lines(&self) -> &[String] {
        &self.lines
    }
}

impl RunSink for MemorySink {
    fn emit(&mut self, event: &RunEvent<'_>) -> io::Result<()> {
        self.lines.push(event.to_jsonl());
        Ok(())
    }

    fn prior_records(&self) -> &[String] {
        &self.prior
    }
}

/// Appends records to a JSONL file, flushing after every record so a killed
/// campaign loses at most the run in flight.
///
/// Opening a path that already holds records resumes it: the existing
/// lines are loaded as [`prior_records`](RunSink::prior_records) and new
/// records are appended after them. A partially written final line (from a
/// hard kill mid-write) makes the resumed campaign fail with a
/// [`CampaignError::Resume`](crate::CampaignError::Resume) naming the line;
/// delete that line to repair the file.
#[derive(Debug)]
pub struct JsonlSink {
    path: PathBuf,
    writer: BufWriter<std::fs::File>,
    prior: Vec<String>,
}

impl JsonlSink {
    /// Opens `path` for streaming, loading any records a previous campaign
    /// left there.
    pub fn open(path: impl AsRef<Path>) -> io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let prior = match std::fs::read_to_string(&path) {
            Ok(text) => text
                .lines()
                .map(str::trim)
                .filter(|line| !line.is_empty())
                .map(str::to_string)
                .collect(),
            Err(err) if err.kind() == ErrorKind::NotFound => Vec::new(),
            Err(err) => return Err(err),
        };
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        Ok(Self {
            path,
            writer: BufWriter::new(file),
            prior,
        })
    }

    /// The file this sink appends to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of records loaded from a previous campaign.
    pub fn prior_len(&self) -> usize {
        self.prior.len()
    }
}

impl RunSink for JsonlSink {
    fn emit(&mut self, event: &RunEvent<'_>) -> io::Result<()> {
        writeln!(self.writer, "{}", event.to_jsonl())?;
        self.writer.flush()
    }

    fn prior_records(&self) -> &[String] {
        &self.prior
    }
}
