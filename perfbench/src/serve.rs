//! `serve_loop`: the daemon path. An in-process `rlp_serve::Server` on
//! 127.0.0.1:0 with two workers, the policy preloaded and the thermal cache
//! warmed in set-up. Two client threads run a closed loop (callers wait for
//! each reply), each with its own `ServeClient`: submit, `wait_outcome`,
//! next request. The mix is `sa-fast`@600, `gradient`@60 and `pretrained`
//! over case1–case3, every request on a warm cache key with a seeded
//! request seed. Latency runs from the first submit attempt to the outcome
//! frame; `busy` answers are retried and counted.
//!
//! Layer probes run after the traced phase, one per request key, so they
//! never perturb the closed loop.

use crate::checks;
use crate::probes;
use crate::stats;
use crate::trace::{self, Tracer, COUNTERS};
use crate::warm::{policy_path, train_policy};
use crate::workload::{
    cli_sa, fast_backend, record_outcome, repeat_setup, shuffle, Args, Family, Report, Serial, GRID,
};
use rlp_benchmarks::synthetic_case;
use rlp_nn::PolicyFile;
use rlp_serve::{ServeClient, Server, ServerConfig, Submit};
use rlp_thermal::{AnyThermalAnalyzer, GridThermalSolver, ThermalConfig, ThermalModelCache};
use rlplanner::minijson::Value;
use rlplanner::report::{outcome_json, request_json};
use rlplanner::{
    outcome_from_value, Budget, FloorplanOutcome, FloorplanRequest, Method, PrebuiltThermal,
    PreloadedPolicy,
};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

const CASES: [usize; 3] = [1, 2, 3];
const FAMILIES: [Family; 3] = [Family::Sa, Family::Gradient, Family::Pretrained];
const CLIENTS: usize = 2;
const WORKERS: usize = 2;
const QUEUE_CAPACITY: usize = 16;
const SA_EVALUATIONS: usize = 600;
const GRADIENT_EVALUATIONS: usize = 60;

/// One request of the mix.
pub struct Key {
    pub case: usize,
    pub family: Family,
    pub request: FloorplanRequest,
    /// The rendered `rlplanner.request/v1` document clients submit.
    pub document: String,
}

/// The request mix in seeded order: every (case, method) pair once. A
/// pair's request seed is its position in the unshuffled mix, so every
/// workload seed serves the same nine requests, in a different order.
pub fn keys(seed: u64, policy_path: &str) -> Result<Vec<Key>, String> {
    let mut pairs: Vec<(u64, usize, Family)> = CASES
        .iter()
        .flat_map(|&case| FAMILIES.iter().map(move |&family| (case, family)))
        .enumerate()
        .map(|(index, (case, family))| (index as u64, case, family))
        .collect();
    shuffle(&mut pairs, seed);
    pairs
        .into_iter()
        .map(|(request_seed, case, family)| {
            let builder = FloorplanRequest::builder()
                .system(synthetic_case(case))
                .thermal(fast_backend())
                .seed(request_seed);
            let builder = match family {
                Family::Sa => builder
                    .method(cli_sa())
                    .budget(Budget::Evaluations(SA_EVALUATIONS)),
                Family::Gradient => builder
                    .method(Method::gradient())
                    .budget(Budget::Evaluations(GRADIENT_EVALUATIONS)),
                _ => builder.method(Method::pretrained(policy_path)),
            };
            let request = builder
                .build()
                .map_err(|e| format!("invalid request: {e}"))?;
            let document = request_json(&request);
            Ok(Key {
                case,
                family,
                request,
                document,
            })
        })
        .collect()
}

/// A running daemon plus the benchmark-side cache and policy.
struct Daemon {
    addr: SocketAddr,
    thread: Option<JoinHandle<std::io::Result<()>>>,
    cache: ThermalModelCache,
    policy: Arc<PolicyFile>,
}

impl Daemon {
    /// Trains and saves the policy, binds the server with it preloaded and
    /// warms the server's cache with one solve per case.
    fn start(keys: &[Key], path: &PathBuf) -> Result<Daemon, String> {
        let cache = ThermalModelCache::new();
        let policy = train_policy(&cache, path)?;
        let server = Server::bind(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: WORKERS,
            queue_capacity: QUEUE_CAPACITY,
            policy: Some(path.display().to_string()),
        })
        .map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr().map_err(|e| e.to_string())?;
        let daemon = Daemon {
            addr,
            thread: Some(thread::spawn(move || server.run())),
            cache,
            policy,
        };
        let mut client = ServeClient::connect(addr).map_err(|e| format!("connect: {e}"))?;
        for case in CASES {
            let key = keys
                .iter()
                .find(|k| k.case == case)
                .ok_or("no request for a case")?;
            let Submit::Accepted(job) = client
                .submit(&key.document, 0)
                .map_err(|e| format!("warm-up submit: {e}"))?
            else {
                return Err("an idle daemon refused the warm-up".to_string());
            };
            client
                .wait_outcome(job)
                .map_err(|e| format!("warm-up solve: {e}"))?;
        }
        Ok(daemon)
    }

    /// Shuts the daemon down and joins its accept loop.
    fn stop(mut self) -> Result<(), String> {
        self.shutdown()
    }

    fn shutdown(&mut self) -> Result<(), String> {
        let Some(thread) = self.thread.take() else {
            return Ok(());
        };
        let sent = ServeClient::connect(self.addr)
            .map_err(|e| e.to_string())
            .and_then(|mut c| c.shutdown().map_err(|e| e.to_string()));
        let joined = thread
            .join()
            .map_err(|_| "server thread panicked".to_string())?;
        sent?;
        joined.map_err(|e| format!("server: {e}"))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Err(error) = self.shutdown() {
            eprintln!("daemon shutdown: {error}");
        }
    }
}

/// What one client thread hands back.
struct ClientRun {
    serial: Serial,
    /// The first served outcome of each key (outcomes of one key are
    /// identical by the daemon's determinism contract).
    outcomes: Vec<Option<FloorplanOutcome>>,
    busy_retries: usize,
}

fn run_client(
    addr: SocketAddr,
    keys: &[Key],
    client_index: usize,
    seconds: f64,
    traced: bool,
    origin: Instant,
    first_op: usize,
) -> ClientRun {
    let mut serial = Serial::new(origin);
    serial.per_op_counters = false;
    serial.tracer.set_enabled(traced);
    let mut run = ClientRun {
        serial,
        outcomes: keys.iter().map(|_| None).collect(),
        busy_retries: 0,
    };
    let mut client = match ServeClient::connect(addr) {
        Ok(client) => client,
        Err(error) => {
            eprintln!("client {client_index}: connect: {error}");
            run.serial.tally.op(false);
            return run;
        }
    };
    let start = Instant::now();
    let mut k = 0;
    // Every client covers every key at least once (the key count is odd,
    // so stepping by the client count visits them all).
    while k < keys.len() || start.elapsed().as_secs_f64() < seconds {
        let key_index = (client_index + k * CLIENTS) % keys.len();
        let key = &keys[key_index];
        let index = first_op + k * CLIENTS + client_index;
        k += 1;
        let mut busy = 0;
        let served = run.serial.timed(index, key.family, |t| {
            let job = loop {
                match t.span("serve.submit", |_| client.submit(&key.document, 0)) {
                    Ok(Submit::Accepted(job)) => break job,
                    Ok(Submit::Busy { .. }) => {
                        busy += 1;
                        thread::sleep(Duration::from_millis(1 + busy.min(10)));
                    }
                    Err(e) => return Err(format!("submit: {e}")),
                }
            };
            t.span("serve.wait_outcome", |_| client.wait_outcome(job))
                .map_err(|e| format!("wait: {e}"))
        });
        run.busy_retries += busy as usize;
        let latency = run.serial.ops.last().map(|op| op.wall).unwrap_or_default();
        let Some(served) = served else { continue };
        match outcome_from_value(&served.outcome, key.request.system()) {
            Ok(outcome) => {
                let system = key.request.system();
                run.serial
                    .tally
                    .check(checks::outcome_is_valid(system, &outcome));
                if traced {
                    record_outcome(&mut run.serial.layers, key.family, &outcome);
                    let outside = latency
                        .saturating_sub(outcome.runtime)
                        .saturating_sub(outcome.thermal_prep.characterization);
                    run.serial
                        .layers
                        .push("serve.outside_solve_ms", outside.as_secs_f64() * 1e3);
                }
                if run.outcomes[key_index].is_none() {
                    run.outcomes[key_index] = Some(outcome);
                }
            }
            Err(error) => {
                eprintln!("unparseable served outcome: {error}");
                run.serial.tally.check(false);
            }
        }
    }
    run
}

/// p50 (bucket upper bound) and exact mean of one histogram of a
/// `rlplanner.metrics/v1` document, in ms.
fn histogram_ms(metrics: &Value, name: &str) -> (f64, f64) {
    let Some(h) = metrics.get("histograms").and_then(|h| h.get(name)) else {
        return (0.0, 0.0);
    };
    let field = |key: &str| h.get(key).and_then(Value::as_f64).unwrap_or(0.0);
    (
        field("p50") / 1e6,
        stats::ratio(field("sum"), field("count")) / 1e6,
    )
}

/// The direct in-process solve of a key: same request, the benchmark's own
/// cache-served analyzer and preloaded policy.
fn direct_solve(
    key: &Key,
    analyzer: &AnyThermalAnalyzer,
    policy: &Arc<PolicyFile>,
    path: &str,
) -> Result<FloorplanOutcome, String> {
    let request = &key.request;
    let mut builder = FloorplanRequest::builder()
        .system(request.system().clone())
        .method(request.method().clone())
        .thermal(request.thermal().clone())
        .reward(request.reward().clone())
        .prebuilt_thermal(PrebuiltThermal::new(
            request.thermal().clone(),
            Arc::new(analyzer.clone()),
            rlp_thermal::ThermalPrep::default(),
        ));
    if let Some(budget) = request.budget() {
        builder = builder.budget(budget);
    }
    if let Some(seed) = request.seed() {
        builder = builder.seed(seed);
    }
    if key.family == Family::Pretrained {
        builder = builder.preloaded_policy(PreloadedPolicy::new(path, Arc::clone(policy)));
    }
    builder
        .build()
        .map_err(|e| e.to_string())?
        .solve()
        .map_err(|e| e.to_string())
}

pub fn run(args: &Args) -> Result<Report, String> {
    let path = policy_path("serve_loop");
    let path_str = path.display().to_string();
    let keys = keys(args.seed, &path_str)?;
    let (daemon, setup_s) = repeat_setup(args.setup_reps(), || Daemon::start(&keys, &path))?;
    // The benchmark's own fast models of the three interposers, for the
    // direct solves, the fast-vs-grid error and the probes.
    let backend = fast_backend();
    let reference: Vec<AnyThermalAnalyzer> = CASES
        .iter()
        .map(|&case| {
            backend
                .build_cached(&synthetic_case(case), &daemon.cache)
                .map(|(analyzer, _)| analyzer)
        })
        .collect::<Result<_, _>>()
        .map_err(|e| format!("reference fast model: {e}"))?;
    let grid = GridThermalSolver::try_new(ThermalConfig::with_grid(GRID, GRID))
        .map_err(|e| e.to_string())?;

    let origin = Instant::now();
    let mut report = Report::default();
    let mut outcomes: Vec<Option<FloorplanOutcome>> = keys.iter().map(|_| None).collect();
    let mut busy_retries = 0;
    let mut first_op = 0;
    for (seconds, traced) in args.phases() {
        rlp_obs::set_metrics_enabled(traced);
        let counters_before = trace::read_counters();
        let start = Instant::now();
        let runs: Vec<ClientRun> = thread::scope(|scope| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    let keys = &keys;
                    let addr = daemon.addr;
                    scope
                        .spawn(move || run_client(addr, keys, c, seconds, traced, origin, first_op))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let elapsed = start.elapsed().as_secs_f64();
        report.measured_s.push(elapsed);
        if !traced {
            report.concurrent_s = Some(elapsed);
        }
        let longest = runs
            .iter()
            .map(|run| run.serial.ops.len())
            .max()
            .unwrap_or(0);
        first_op += longest * CLIENTS;
        for run in runs {
            for (slot, outcome) in outcomes.iter_mut().zip(run.outcomes) {
                if slot.is_none() {
                    *slot = outcome;
                }
            }
            if traced {
                busy_retries += run.busy_retries;
            }
            report.ops.extend(run.serial.ops);
            report.tally.merge(run.serial.tally);
            report.layers.merge(run.serial.layers);
            report.spans.push(run.serial.tracer.spans().to_vec());
        }
        if traced {
            let after = trace::read_counters();
            for (name, (a, b)) in COUNTERS.iter().zip(after.iter().zip(counters_before)) {
                report.layers.push(&format!("sum.{name}"), (a - b) as f64);
            }
            server_phases(&daemon, &mut report)?;
            report.layers.set("serve.busy_retries", busy_retries as f64);
        }
    }
    rlp_obs::set_metrics_enabled(false);

    // Checks: every key was served, equals a direct solve on every
    // non-VOLATILE field, and (untraced) yields the quality figures.
    let mut probe_tracer = Tracer::new(args.trace, origin);
    for (key, served) in keys.iter().zip(&outcomes) {
        let Some(served) = served else {
            eprintln!(
                "request for case{} ({}) was never served",
                key.case,
                key.family.label()
            );
            report.tally.check(false);
            continue;
        };
        let system = key.request.system();
        let fast = &reference[CASES
            .iter()
            .position(|&c| c == key.case)
            .expect("known case")];
        match direct_solve(key, fast, &daemon.policy, &path_str) {
            Ok(direct) => report.tally.check(
                checks::deterministic_projection(&outcome_json(system, served))
                    == checks::deterministic_projection(&outcome_json(system, &direct)),
            ),
            Err(error) => {
                eprintln!("direct solve failed: {error}");
                report.tally.check(false);
            }
        }
        if !args.trace {
            match checks::temperatures(system, &served.placement, fast, &grid) {
                Ok(temps) => report.quality.push(checks::quality(served, &temps)),
                Err(error) => {
                    eprintln!("check failed: {error}");
                    report.tally.check(false);
                }
            }
        } else {
            let target = probes::Target {
                system,
                request: &key.request,
                outcome: served,
                fast,
                grid: &grid,
            };
            let mut probed = probes::layers(&mut probe_tracer, &mut report.layers, &target);
            if key.family == Family::Pretrained {
                probed = probed.and_then(|()| {
                    probes::policy(
                        &mut probe_tracer,
                        &mut report.layers,
                        system,
                        fast,
                        &daemon.policy,
                        false,
                        args.seed,
                    )
                });
            }
            if let Err(error) = probed {
                eprintln!("probe failed: {error}");
                report.tally.check(false);
            }
        }
    }
    report.spans.push(probe_tracer.spans().to_vec());
    report.setup_s = setup_s;
    daemon.stop()?;
    std::fs::remove_file(&path).ok();
    Ok(report)
}

/// Reads the server-side job phases from the `metrics` RPC: p50 of each
/// `serve.job.*_ns` histogram, and the latency left outside all of them
/// (mean client latency minus the phases' exact means).
fn server_phases(daemon: &Daemon, report: &mut Report) -> Result<(), String> {
    let mut client = ServeClient::connect(daemon.addr).map_err(|e| format!("connect: {e}"))?;
    let metrics = client.metrics().map_err(|e| format!("metrics: {e}"))?;
    let mut phase_means = 0.0;
    for (histogram, metric) in [
        ("serve.job.queue_wait_ns", "serve.queue_ms"),
        ("serve.job.solve_ns", "serve.solve_ms"),
        ("serve.job.serialize_ns", "serve.serialize_ms"),
        ("serve.job.flush_ns", "serve.flush_ms"),
    ] {
        let (p50, mean) = histogram_ms(&metrics, histogram);
        report.layers.set(metric, p50);
        report.layers.push(&format!("mean.{metric}"), mean);
        phase_means += mean;
    }
    let latencies: Vec<f64> = report
        .ops
        .iter()
        .filter(|op| op.traced)
        .map(|op| op.wall.as_secs_f64() * 1e3)
        .collect();
    let unattributed = stats::mean(&latencies) - phase_means;
    report.layers.set("serve.unattributed_ms", unattributed);
    report
        .layers
        .set("mean.latency_ms", stats::mean(&latencies));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_mix_repeats_for_a_seed_and_differs_across_seeds() {
        let docs = |seed| -> Vec<String> {
            keys(seed, "p.policy")
                .unwrap()
                .into_iter()
                .map(|k| k.document)
                .collect()
        };
        assert_eq!(docs(9), docs(9));
        assert_ne!(docs(9), docs(10));
        let (mut a, mut b) = (docs(9), docs(10));
        a.sort();
        b.sort();
        assert_eq!(a, b, "the same requests in another order");
        assert_eq!(
            docs(9).len() % CLIENTS,
            1,
            "odd key count: every client visits every key"
        );
    }

    #[test]
    fn histogram_reader_takes_p50_and_exact_mean() {
        let doc = Value::parse(
            "{\"histograms\": {\"h\": {\"count\": 4, \"sum\": 10000000, \"p50\": 2000000}}}",
        )
        .unwrap();
        assert_eq!(histogram_ms(&doc, "h"), (2.0, 2.5));
        assert_eq!(histogram_ms(&doc, "missing"), (0.0, 0.0));
    }
}
