//! `rlp_serve` — the floorplanning daemon.
//!
//! ```text
//! rlp_serve [--addr <host:port>] [--workers <n>] [--capacity <n>]
//!           [--policy <path>]
//!           [--log-level <off|error|warn|info|debug|trace>]
//!
//!   --addr       listen address (default 127.0.0.1:7878; port 0 lets the
//!                OS pick — the resolved address is printed either way)
//!   --workers    solver threads sharing one thermal-model cache (default 2)
//!   --capacity   bounded job-queue capacity; a full queue answers `busy`
//!                (default 16)
//!   --policy     `rlplanner.policy/v1` file to preload; pretrained
//!                requests naming this path solve from the in-memory copy
//!                with zero training episodes. A corrupt or unreadable
//!                file fails startup, not the first request
//!   --log-level  structured-log filter (default `info`; overrides the
//!                `RLP_LOG` environment variable)
//! ```
//!
//! On startup the daemon logs one readiness line to **stderr** through the
//! structured logger (at `info`, so `--log-level off` suppresses it):
//!
//! ```text
//! [   0.001234s INFO  rlp_serve] rlp-serve listening on 127.0.0.1:7878 (workers=2, capacity=16)
//! ```
//!
//! Scripts should wait for the `rlp-serve listening on <addr>` substring.
//! The daemon then serves `rlplanner.rpc/v1` until a client sends
//! `shutdown`, which drains in-flight jobs and exits 0. See the
//! `rlp_serve::protocol` docs for the wire format.
//!
//! The process-wide metrics registry is **enabled by default** (the
//! `metrics` RPC returns a populated `rlplanner.metrics/v1` snapshot);
//! `RLP_METRICS=0` turns it off. `RLP_TRACE=<path>` additionally mirrors
//! events and spans to a JSONL trace file.

use rlp_serve::{Server, ServerConfig};
use rlplanner::cli::{self, Scanner};
use rlplanner::errln;
use std::process::ExitCode;

const USAGE: &str = "usage: rlp_serve [--addr <host:port>] [--workers <n>] [--capacity <n>] \
         [--policy <path>] [--log-level <filter>]";

fn parse_args(mut scan: Scanner) -> Result<ServerConfig, String> {
    let mut config = ServerConfig {
        addr: "127.0.0.1:7878".to_string(),
        ..ServerConfig::default()
    };
    while let Some(arg) = scan.next_arg()? {
        match arg.flag() {
            Some("addr") => config.addr = scan.value()?,
            Some("workers") => config.workers = scan.positive("worker count")?,
            Some("capacity") => config.queue_capacity = scan.positive("capacity")?,
            Some("policy") => config.policy = Some(scan.path()?),
            _ => return Err(arg.unexpected()),
        }
    }
    Ok(config)
}

fn main() -> ExitCode {
    // Daemon defaults: metrics on (the `metrics` RPC should answer with
    // real data out of the box) and `info` logging (the readiness line).
    // `init_from_env` lets `RLP_METRICS`/`RLP_LOG`/`RLP_TRACE` override,
    // and an explicit `--log-level` flag overrides the environment.
    rlp_obs::set_metrics_enabled(true);
    rlp_obs::set_max_level(Some(rlp_obs::Level::Info));
    if let Err(e) = rlp_obs::init_from_env() {
        errln!("{e}");
        return ExitCode::from(2);
    }

    let config = match parse_args(Scanner::new(std::env::args().skip(1)).with_log_level()) {
        Ok(config) => config,
        Err(reason) => return cli::usage_error(&reason, USAGE),
    };
    let (workers, capacity) = (config.workers, config.queue_capacity);
    let server = match Server::bind(config) {
        Ok(server) => server,
        Err(e) => {
            errln!("cannot bind: {e}");
            return ExitCode::FAILURE;
        }
    };
    match server.local_addr() {
        Ok(addr) => {
            // The readiness line scripts wait for (on stderr, unbuffered,
            // so a piped reader sees it before the first connection).
            rlp_obs::obs_event!(
                rlp_obs::Level::Info,
                "rlp_serve",
                "rlp-serve listening on {addr} (workers={workers}, capacity={capacity})",
                workers = workers,
                capacity = capacity,
            );
        }
        Err(e) => {
            errln!("cannot resolve listen address: {e}");
            return ExitCode::FAILURE;
        }
    }
    match server.run() {
        Ok(()) => {
            rlp_obs::obs_event!(
                rlp_obs::Level::Info,
                "rlp_serve",
                "rlp-serve drained and shut down",
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            errln!("accept loop failed: {e}");
            ExitCode::FAILURE
        }
    }
}
