//! `rlp_load` — load-test harness and request generator for `rlp_serve`.
//!
//! ```text
//! rlp_load <addr> [--clients <n>] [--requests <m>] [--system <s>]
//!          [--method <m>] [--budget <n>] [--seed <n>] [--warm-start]
//!          [--policy <path>] [--progress-every <k>] [--save-json <path>]
//!          [--metrics] [--shutdown]
//!
//!   <addr>            daemon address, e.g. 127.0.0.1:7878
//!   --clients         concurrent client connections        (default 4)
//!   --requests        solve requests per client            (default 8)
//!   --system          multi-gpu | cpu-dram | ascend910 | case1..case5
//!                                                          (default case1)
//!   --method          rl | rl-rnd | sa-hotspot | sa-fast | gradient |
//!                     pretrained                           (default sa-fast)
//!   --budget          candidate floorplans per request     (default 60)
//!   --seed            fixed request seed (default: the method's own)
//!   --warm-start      gradient-presolve each request's SA/RL solve
//!   --policy          `rlplanner.policy/v1` file a `pretrained` request
//!                     names (required by that method only); the daemon
//!                     reads it, so give a path valid on its host
//!   --progress-every  stream every Nth candidate           (default 0, off)
//!   --save-json       append p50/p99 latency + throughput as
//!                     `rlplanner.bench/v1` shard lines to <path>
//!   --metrics         fetch the daemon's `rlplanner.metrics/v1` snapshot
//!                     after the run and print it to stdout
//!   --shutdown        send a graceful shutdown after the run
//!
//! rlp_load print-request <system> <method> [budget] [--seed <n>]
//!                        [--warm-start] [--policy <path>]
//!
//!   prints the `rlplanner.request/v1` document the load run would submit —
//!   the same system/method mapping as `rlplanner_cli`, so a daemon solve
//!   of this document is byte-comparable to a direct CLI `--json` run.
//! ```
//!
//! Every client thread submits its requests sequentially; a `busy` answer
//! (the daemon's backpressure) is retried with linear backoff and counted,
//! never treated as a failure. Latency is measured client-side from first
//! submission attempt to the outcome frame, so it includes queueing and
//! backpressure delay. The run exits nonzero if any request ultimately
//! failed.

use rlp_obs::json::{Layout, Writer};
use rlp_serve::{ClientError, ServeClient, Submit};
use rlplanner::cli::{self, Scanner};
use rlplanner::report::request_json;
use rlplanner::{errln, outln};
use std::process::ExitCode;
use std::thread;
use std::time::{Duration, Instant};

const USAGE: &str = "usage: rlp_load <addr> [--clients <n>] [--requests <m>] [--system <s>] \
         [--method <m>] [--budget <n>] [--seed <n>] [--warm-start] \
         [--policy <path>] [--progress-every <k>] [--save-json <path>] [--metrics] \
         [--shutdown]\n\
         \x20      rlp_load print-request <system> <method> [budget] [--seed <n>] \
         [--warm-start] [--policy <path>]";

/// The `rlplanner.request/v1` document a load run submits and
/// `print-request` prints, named by `<system> <method> [budget]`.
fn request_document(
    named: &[String],
    seed: Option<u64>,
    warm_start: bool,
    policy: Option<&str>,
) -> Result<String, String> {
    let mut builder = cli::named_request(named, policy)?.warm_start(warm_start);
    if let Some(seed) = seed {
        builder = builder.seed(seed);
    }
    let request = builder
        .build()
        .map_err(|e| format!("invalid request: {e}"))?;
    Ok(request_json(&request))
}

fn print_request(scan: &mut Scanner) -> Result<String, String> {
    let (mut named, mut seed, mut warm_start, mut policy) = (Vec::new(), None, false, None);
    while let Some(arg) = scan.next_arg()? {
        match arg.flag() {
            Some("seed") => seed = Some(scan.seed()?),
            Some("warm-start") => warm_start = true,
            Some("policy") => policy = Some(scan.path()?),
            Some(_) => return Err(arg.unexpected()),
            None => named.push(arg.to_string()),
        }
    }
    request_document(&named, seed, warm_start, policy.as_deref())
}

struct LoadArgs {
    addr: String,
    clients: usize,
    requests: usize,
    system: String,
    method: String,
    budget: usize,
    /// The `rlplanner.request/v1` document every request submits.
    document: String,
    progress_every: usize,
    save_json: Option<String>,
    metrics: bool,
    shutdown: bool,
}

fn parse_load_args(scan: &mut Scanner) -> Result<LoadArgs, String> {
    let (mut addr, mut seed, mut warm_start, mut policy) = (None, None, false, None);
    let mut parsed = LoadArgs {
        addr: String::new(),
        clients: 4,
        requests: 8,
        system: "case1".to_string(),
        method: "sa-fast".to_string(),
        budget: 60,
        document: String::new(),
        progress_every: 0,
        save_json: None,
        metrics: false,
        shutdown: false,
    };
    while let Some(arg) = scan.next_arg()? {
        match arg.flag() {
            Some("shutdown") => parsed.shutdown = true,
            Some("metrics") => parsed.metrics = true,
            Some("warm-start") => warm_start = true,
            Some("clients") => parsed.clients = scan.positive("client count")?,
            Some("requests") => parsed.requests = scan.positive("request count")?,
            Some("system") => parsed.system = scan.value()?,
            Some("method") => parsed.method = scan.value()?,
            Some("budget") => parsed.budget = scan.positive("budget")?,
            Some("seed") => seed = Some(scan.seed()?),
            Some("policy") => policy = Some(scan.path()?),
            Some("progress-every") => {
                let value = scan.value()?;
                parsed.progress_every = value
                    .parse()
                    .map_err(|_| format!("invalid stride `{value}`"))?;
            }
            Some("save-json") => parsed.save_json = Some(scan.path()?),
            None if addr.is_none() => addr = Some(arg.to_string()),
            _ => return Err(arg.unexpected()),
        }
    }
    parsed.addr = addr.ok_or("missing daemon address")?;
    let named = [
        parsed.system.clone(),
        parsed.method.clone(),
        parsed.budget.to_string(),
    ];
    parsed.document = request_document(&named, seed, warm_start, policy.as_deref())?;
    Ok(parsed)
}

/// One client's tally: per-request latencies, busy retries, failures.
#[derive(Default)]
struct ClientTally {
    latencies: Vec<Duration>,
    busy_retries: usize,
    failures: Vec<String>,
}

fn run_client(
    addr: &str,
    request_json: &str,
    requests: usize,
    progress_every: usize,
) -> ClientTally {
    let mut tally = ClientTally::default();
    let mut client = match ServeClient::connect(addr) {
        Ok(client) => client,
        Err(e) => {
            // None of this client's requests can be sent.
            tally.failures = vec![format!("connect: {e}"); requests];
            return tally;
        }
    };
    for _ in 0..requests {
        let started = Instant::now();
        let mut backoff = 1u64;
        let job = loop {
            match client.submit(request_json, progress_every) {
                Ok(Submit::Accepted(job)) => break Ok(job),
                Ok(Submit::Busy { .. }) => {
                    // Backpressure: the queue was full. Linear backoff keeps
                    // retries cheap without hammering the daemon.
                    tally.busy_retries += 1;
                    thread::sleep(Duration::from_millis(backoff.min(50)));
                    backoff += 5;
                }
                Err(e) => break Err(e),
            }
        };
        match job.and_then(|job| client.wait_outcome(job)) {
            Ok(_) => tally.latencies.push(started.elapsed()),
            Err(e) => tally.failures.push(e.to_string()),
        }
    }
    tally
}

fn percentile(sorted: &[Duration], q: f64) -> Duration {
    let index = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[index]
}

/// One `rlplanner.bench/v1` shard line for a single latency percentile.
///
/// A percentile shard carries exactly one statistic, so every summary
/// field is that value; `samples` records how many requests the
/// percentile was extracted from. (Copying the whole distribution's
/// mean/min/max into both the p50 and p99 shards — as an earlier version
/// did — made the two rows describe overlapping, inconsistent
/// distributions.)
fn shard_line(id: &str, value_ns: f64, samples: usize) -> String {
    let mut w = Writer::pretty();
    w.object(Layout::Inline, |w| {
        w.field("id", id);
        for stat in ["median_ns", "mean_ns", "min_ns", "max_ns"] {
            w.field(stat, value_ns);
        }
        w.field("samples", samples);
    });
    w.finish()
}

fn run_load(args: &LoadArgs) -> ExitCode {
    let started = Instant::now();
    let tallies: Vec<ClientTally> = thread::scope(|scope| {
        let handles: Vec<_> = (0..args.clients)
            .map(|_| {
                let (addr, document) = (&args.addr, &args.document);
                scope.spawn(move || run_client(addr, document, args.requests, args.progress_every))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let wall = started.elapsed();

    let mut latencies: Vec<Duration> = tallies.iter().flat_map(|t| t.latencies.clone()).collect();
    let busy_retries: usize = tallies.iter().map(|t| t.busy_retries).sum();
    let failures: Vec<&String> = tallies.iter().flat_map(|t| &t.failures).collect();
    let total = args.clients * args.requests;

    // Fetch metrics before any shutdown: the snapshot lives in the
    // daemon's process, and covers the whole load run just completed.
    if args.metrics {
        match ServeClient::connect(&args.addr) {
            Ok(mut client) => match client.metrics() {
                Ok(snapshot) => outln!("{}", snapshot.render()),
                Err(e) => errln!("metrics request failed: {e}"),
            },
            Err(e) => errln!("metrics connection failed: {e}"),
        }
    }

    if args.shutdown {
        match ServeClient::connect(&args.addr).map_err(ClientError::Io) {
            Ok(mut client) => {
                if let Err(e) = client.shutdown() {
                    errln!("shutdown request failed: {e}");
                }
            }
            Err(e) => errln!("shutdown connection failed: {e}"),
        }
    }

    if latencies.is_empty() {
        errln!("all {total} request(s) failed:");
        for failure in failures.iter().take(5) {
            errln!("  {failure}");
        }
        return ExitCode::FAILURE;
    }
    latencies.sort();
    let ns = |d: Duration| d.as_nanos() as f64;
    let (p50, p99) = (percentile(&latencies, 0.50), percentile(&latencies, 0.99));
    let mean = latencies.iter().map(|&d| ns(d)).sum::<f64>() / latencies.len() as f64;
    let (min, max) = (latencies[0], latencies[latencies.len() - 1]);
    let throughput = latencies.len() as f64 / wall.as_secs_f64();

    outln!(
        "{} clients x {} requests against {} ({} {} budget {}): \
         {} ok, {} failed, {} busy retr{} in {:.2?}",
        args.clients,
        args.requests,
        args.addr,
        args.system,
        args.method,
        args.budget,
        latencies.len(),
        failures.len(),
        busy_retries,
        if busy_retries == 1 { "y" } else { "ies" },
        wall,
    );
    outln!(
        "latency p50 {:.2?}  p99 {:.2?}  mean {:.2?}  min {:.2?}  max {:.2?}  |  {:.1} solves/s",
        p50,
        p99,
        Duration::from_secs_f64(mean / 1e9),
        min,
        max,
        throughput
    );

    if let Some(path) = &args.save_json {
        let prefix = format!("rlp_serve/solve_{}_{}", args.system, args.method);
        let shards = format!(
            "{}\n{}\n",
            shard_line(&format!("{prefix}/p50"), ns(p50), latencies.len()),
            shard_line(&format!("{prefix}/p99"), ns(p99), latencies.len()),
        );
        if let Err(e) = append(path, &shards) {
            errln!("cannot append shards to `{path}`: {e}");
            return ExitCode::FAILURE;
        }
        errln!("appended 2 shard line(s) to `{path}`");
    }

    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        errln!("{} request(s) failed:", failures.len());
        for failure in failures.iter().take(5) {
            errln!("  {failure}");
        }
        ExitCode::FAILURE
    }
}

fn append(path: &str, text: &str) -> std::io::Result<()> {
    use std::io::Write;
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    file.write_all(text.as_bytes())
}

fn main() -> ExitCode {
    let mut scan = Scanner::new(std::env::args().skip(1));
    let run = match scan.subcommand(&["print-request"]) {
        Ok(Some(_)) => print_request(&mut scan).map(|document| {
            outln!("{document}");
            ExitCode::SUCCESS
        }),
        Ok(None) => parse_load_args(&mut scan).map(|args| run_load(&args)),
        Err(reason) => Err(reason),
    };
    run.unwrap_or_else(|reason| cli::usage_error(&reason, USAGE))
}

#[cfg(test)]
mod tests {
    use super::{run_client, shard_line};

    #[test]
    fn a_client_that_cannot_connect_fails_every_request() {
        // A port that was just free: nothing listens on it.
        let addr = std::net::TcpListener::bind("127.0.0.1:0")
            .and_then(|listener| listener.local_addr())
            .expect("an ephemeral port");
        let tally = run_client(&addr.to_string(), "{}", 3, 0);
        assert_eq!(tally.failures.len(), 3, "{:?}", tally.failures);
        assert!(tally.latencies.is_empty());
    }

    #[test]
    fn shard_lines_match_their_golden_file() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../tests/golden/bench_shards.jsonl"
        );
        let expected = std::fs::read_to_string(path).unwrap();
        let lines = [
            shard_line("serve/latency/p50", 1_234_567.0, 32),
            shard_line("serve/latency/p99", 0.1 + 0.2, 1),
        ];
        assert_eq!(format!("{}\n", lines.join("\n")), expected);
    }
}
