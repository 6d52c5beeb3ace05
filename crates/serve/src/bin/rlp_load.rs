//! `rlp_load` — load-test harness and request generator for `rlp_serve`.
//!
//! ```text
//! rlp_load <addr> [--clients <n>] [--requests <m>] [--system <s>]
//!          [--method <m>] [--budget <n>] [--seed <n>] [--warm-start]
//!          [--progress-every <k>] [--save-json <path>] [--metrics]
//!          [--shutdown]
//!
//!   <addr>            daemon address, e.g. 127.0.0.1:7878
//!   --clients         concurrent client connections        (default 4)
//!   --requests        solve requests per client            (default 8)
//!   --system          multi-gpu | cpu-dram | ascend910 | case1..case5
//!                                                          (default case1)
//!   --method          rl | rl-rnd | sa-hotspot | sa-fast | gradient
//!                                                          (default sa-fast)
//!   --budget          candidate floorplans per request     (default 60)
//!   --seed            fixed request seed (default: the method's own)
//!   --warm-start      gradient-presolve each request's SA/RL solve
//!   --progress-every  stream every Nth candidate           (default 0, off)
//!   --save-json       append p50/p99 latency + throughput as
//!                     `rlplanner.bench/v1` shard lines to <path>
//!   --metrics         fetch the daemon's `rlplanner.metrics/v1` snapshot
//!                     after the run and print it to stdout
//!   --shutdown        send a graceful shutdown after the run
//!
//! rlp_load print-request <system> <method> [budget] [--seed <n>]
//!                        [--warm-start]
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

use rlp_benchmarks::{ascend910_system, cpu_dram_system, multi_gpu_system, synthetic_case};
use rlp_chiplet::ChipletSystem;
use rlp_obs::json::{Layout, Writer};
use rlp_sa::SaConfig;
use rlp_serve::{ClientError, ServeClient, Submit};
use rlp_thermal::{CharacterizationOptions, ThermalBackend, ThermalConfig};
use rlplanner::report::request_json;
use rlplanner::{Budget, FloorplanRequest, Method};
use std::process::ExitCode;
use std::thread;
use std::time::{Duration, Instant};

fn usage() -> ExitCode {
    eprintln!(
        "usage: rlp_load <addr> [--clients <n>] [--requests <m>] [--system <s>] \
         [--method <m>] [--budget <n>] [--seed <n>] [--warm-start] \
         [--progress-every <k>] [--save-json <path>] [--metrics] [--shutdown]\n\
         \x20      rlp_load print-request <system> <method> [budget] [--seed <n>] \
         [--warm-start]"
    );
    ExitCode::from(2)
}

fn load_system(name: &str) -> Option<ChipletSystem> {
    match name {
        "multi-gpu" => Some(multi_gpu_system()),
        "cpu-dram" => Some(cpu_dram_system()),
        "ascend910" => Some(ascend910_system()),
        _ => name
            .strip_prefix("case")
            .and_then(|n| n.parse::<usize>().ok())
            .filter(|n| (1..=5).contains(n))
            .map(synthetic_case),
    }
}

/// The same method → (Method, ThermalBackend) mapping as `rlplanner_cli`,
/// so served and direct solves are byte-comparable.
fn load_method(name: &str) -> Option<(Method, ThermalBackend)> {
    let thermal_config = ThermalConfig::with_grid(32, 32);
    let fast = ThermalBackend::Fast {
        config: thermal_config.clone(),
        characterization: CharacterizationOptions::default(),
    };
    let sa = Method::Sa {
        config: SaConfig {
            final_temperature: 1e-6,
            ..SaConfig::default()
        },
    };
    match name {
        "rl" => Some((Method::rl(), fast)),
        "rl-rnd" => Some((Method::rl_rnd(), fast)),
        "sa-fast" => Some((sa, fast)),
        "sa-hotspot" => Some((
            sa,
            ThermalBackend::Grid {
                config: thermal_config,
            },
        )),
        "gradient" => Some((Method::gradient(), fast)),
        _ => None,
    }
}

fn build_request(
    system: &str,
    method: &str,
    budget: usize,
    seed: Option<u64>,
    warm_start: bool,
) -> Result<FloorplanRequest, String> {
    let system = load_system(system).ok_or_else(|| format!("unknown system `{system}`"))?;
    let (method, thermal) =
        load_method(method).ok_or_else(|| format!("unknown method `{method}`"))?;
    let mut builder = FloorplanRequest::builder()
        .system(system)
        .method(method)
        .thermal(thermal)
        .budget(Budget::Evaluations(budget))
        .warm_start(warm_start);
    if let Some(seed) = seed {
        builder = builder.seed(seed);
    }
    builder.build().map_err(|e| format!("invalid request: {e}"))
}

struct LoadArgs {
    addr: String,
    clients: usize,
    requests: usize,
    system: String,
    method: String,
    budget: usize,
    seed: Option<u64>,
    warm_start: bool,
    progress_every: usize,
    save_json: Option<String>,
    metrics: bool,
    shutdown: bool,
}

fn parse_load_args(args: &[String]) -> Result<LoadArgs, String> {
    let mut iter = args.iter();
    let addr = iter
        .next()
        .filter(|a| !a.starts_with("--"))
        .ok_or("missing daemon address")?
        .clone();
    let mut parsed = LoadArgs {
        addr,
        clients: 4,
        requests: 8,
        system: "case1".to_string(),
        method: "sa-fast".to_string(),
        budget: 60,
        seed: None,
        warm_start: false,
        progress_every: 0,
        save_json: None,
        metrics: false,
        shutdown: false,
    };
    while let Some(arg) = iter.next() {
        let Some(rest) = arg.strip_prefix("--") else {
            return Err(format!("unexpected argument `{arg}`"));
        };
        let (flag, inline) = match rest.split_once('=') {
            Some((flag, value)) => (flag, Some(value.to_string())),
            None => (rest, None),
        };
        if flag == "shutdown" || flag == "metrics" || flag == "warm-start" {
            if inline.is_some() {
                return Err(format!("--{flag} takes no value"));
            }
            match flag {
                "shutdown" => parsed.shutdown = true,
                "metrics" => parsed.metrics = true,
                _ => parsed.warm_start = true,
            }
            continue;
        }
        let value = inline
            .or_else(|| iter.next().cloned())
            .ok_or_else(|| format!("flag `--{flag}` needs a value"))?;
        let positive = |value: &str, what: &str| {
            value
                .parse::<usize>()
                .ok()
                .filter(|&n| n > 0)
                .ok_or_else(|| format!("invalid {what} `{value}`: expected a positive integer"))
        };
        match flag {
            "clients" => parsed.clients = positive(&value, "client count")?,
            "requests" => parsed.requests = positive(&value, "request count")?,
            "system" => parsed.system = value,
            "method" => parsed.method = value,
            "budget" => parsed.budget = positive(&value, "budget")?,
            "seed" => {
                parsed.seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("invalid seed `{value}`: expected an integer"))?,
                );
            }
            "progress-every" => {
                parsed.progress_every = value
                    .parse::<usize>()
                    .map_err(|_| format!("invalid stride `{value}`"))?;
            }
            "save-json" => parsed.save_json = Some(value),
            other => return Err(format!("unknown flag `--{other}`")),
        }
    }
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
            tally.failures.push(format!("connect: {e}"));
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
    let request = match build_request(
        &args.system,
        &args.method,
        args.budget,
        args.seed,
        args.warm_start,
    ) {
        Ok(request) => request,
        Err(reason) => {
            eprintln!("{reason}");
            return usage();
        }
    };
    let document = request_json(&request);

    let started = Instant::now();
    let tallies: Vec<ClientTally> = thread::scope(|scope| {
        let handles: Vec<_> = (0..args.clients)
            .map(|_| {
                let (addr, document) = (&args.addr, &document);
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
                Ok(snapshot) => println!("{}", snapshot.render()),
                Err(e) => eprintln!("metrics request failed: {e}"),
            },
            Err(e) => eprintln!("metrics connection failed: {e}"),
        }
    }

    if args.shutdown {
        match ServeClient::connect(&args.addr).map_err(ClientError::Io) {
            Ok(mut client) => {
                if let Err(e) = client.shutdown() {
                    eprintln!("shutdown request failed: {e}");
                }
            }
            Err(e) => eprintln!("shutdown connection failed: {e}"),
        }
    }

    if latencies.is_empty() {
        eprintln!("all {total} request(s) failed:");
        for failure in failures.iter().take(5) {
            eprintln!("  {failure}");
        }
        return ExitCode::FAILURE;
    }
    latencies.sort();
    let ns = |d: Duration| d.as_nanos() as f64;
    let (p50, p99) = (percentile(&latencies, 0.50), percentile(&latencies, 0.99));
    let mean = latencies.iter().map(|&d| ns(d)).sum::<f64>() / latencies.len() as f64;
    let (min, max) = (latencies[0], latencies[latencies.len() - 1]);
    let throughput = latencies.len() as f64 / wall.as_secs_f64();

    println!(
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
    println!(
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
            eprintln!("cannot append shards to `{path}`: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("appended 2 shard line(s) to `{path}`");
    }

    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("{} request(s) failed:", failures.len());
        for failure in failures.iter().take(5) {
            eprintln!("  {failure}");
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
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("print-request") {
        let mut positional: Vec<&String> = Vec::new();
        let mut seed = None;
        let mut warm_start = false;
        let mut iter = args[1..].iter();
        while let Some(arg) = iter.next() {
            let Some(rest) = arg.strip_prefix("--") else {
                positional.push(arg);
                continue;
            };
            let (flag, inline) = match rest.split_once('=') {
                Some((flag, value)) => (flag, Some(value.to_string())),
                None => (rest, None),
            };
            if flag == "warm-start" {
                if inline.is_some() {
                    eprintln!("--warm-start takes no value");
                    return usage();
                }
                warm_start = true;
                continue;
            }
            if flag != "seed" {
                eprintln!("unknown flag `--{flag}`");
                return usage();
            }
            let Some(value) = inline.or_else(|| iter.next().cloned()) else {
                eprintln!("--seed needs a value");
                return usage();
            };
            seed = match value.parse::<u64>() {
                Ok(seed) => Some(seed),
                Err(_) => {
                    eprintln!("invalid seed `{value}`: expected an integer");
                    return usage();
                }
            };
        }
        if !(2..=3).contains(&positional.len()) {
            return usage();
        }
        let budget = match positional.get(2) {
            Some(raw) => match raw.parse::<usize>() {
                Ok(n) if n > 0 => n,
                _ => {
                    eprintln!("invalid budget `{raw}`: expected a positive integer");
                    return usage();
                }
            },
            None => 100,
        };
        return match build_request(positional[0], positional[1], budget, seed, warm_start) {
            Ok(request) => {
                println!("{}", request_json(&request));
                ExitCode::SUCCESS
            }
            Err(reason) => {
                eprintln!("{reason}");
                usage()
            }
        };
    }

    match parse_load_args(&args) {
        Ok(parsed) => run_load(&parsed),
        Err(reason) => {
            eprintln!("{reason}");
            usage()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::shard_line;

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
