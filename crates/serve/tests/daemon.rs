//! End-to-end tests driving an in-process daemon over real TCP sockets:
//! the byte-identity contract, progress streaming, backpressure, cancel,
//! connection teardown and graceful shutdown under load.

use rlp_benchmarks::synthetic_case;
use rlp_obs::json::Value;
use rlp_sa::SaConfig;
use rlp_serve::{ClientError, ServeClient, Server, ServerConfig, Submit};
use rlp_thermal::{CharacterizationOptions, ThermalBackend, ThermalConfig};
use rlplanner::report::{outcome_json, request_json, TIMING};
use rlplanner::{cli, outcome_from_value, Budget, FloorplanRequest, Method};
use std::io;
use std::net::SocketAddr;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// An outcome document without its `timing` member, the only values that
/// legitimately differ between two runs of the same solve. Everything else
/// must match to the byte.
fn deterministic_projection(doc: &str) -> String {
    Value::parse(doc)
        .expect("outcome documents are valid JSON")
        .without(TIMING)
        .render()
}

/// A small fixed-seed SA request over the fast thermal backend (the cached
/// path) — milliseconds per solve.
fn sa_request(budget: usize, seed: u64) -> FloorplanRequest {
    sa_request_with_moves(budget, seed, SaConfig::default().moves_per_temperature)
}

/// A deliberately long anneal (seconds, not milliseconds): the evaluations
/// budget only *caps* the anneal, so a slow job needs a slow natural
/// schedule, not a large cap.
fn slow_sa_request(seed: u64) -> FloorplanRequest {
    sa_request_with_moves(1_000_000, seed, 400)
}

fn sa_request_with_moves(
    budget: usize,
    seed: u64,
    moves_per_temperature: usize,
) -> FloorplanRequest {
    FloorplanRequest::builder()
        .system(synthetic_case(1))
        .method(Method::Sa {
            config: SaConfig {
                final_temperature: 1e-6,
                moves_per_temperature,
                ..SaConfig::default()
            },
        })
        .thermal(ThermalBackend::Fast {
            config: ThermalConfig::with_grid(16, 16),
            characterization: CharacterizationOptions::default(),
        })
        .budget(Budget::Evaluations(budget))
        .seed(seed)
        .build()
        .expect("test request is valid")
}

/// The request `rlp_load print-request case1 sa-fast 40` prints.
fn case1_sa_fast_40() -> FloorplanRequest {
    let named = ["case1", "sa-fast", "40"].map(String::from);
    cli::named_request(&named, None)
        .expect("known names")
        .build()
        .expect("named request is valid")
}

fn start_server(workers: usize, capacity: usize) -> (SocketAddr, JoinHandle<io::Result<()>>) {
    start_server_with_policy(workers, capacity, None)
}

fn start_server_with_policy(
    workers: usize,
    capacity: usize,
    policy: Option<String>,
) -> (SocketAddr, JoinHandle<io::Result<()>>) {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers,
        queue_capacity: capacity,
        policy,
    })
    .expect("bind on an OS-assigned port");
    let addr = server.local_addr().expect("bound address");
    (addr, thread::spawn(move || server.run()))
}

/// Polls `stats` until `accept` passes or the deadline expires.
fn wait_for_stats(
    client: &mut ServeClient,
    accept: impl Fn(&rlp_serve::StatsReport) -> bool,
    what: &str,
) -> rlp_serve::StatsReport {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let stats = client.stats().expect("stats reply");
        if accept(&stats) {
            return stats;
        }
        assert!(
            Instant::now() < deadline,
            "timed out waiting for {what}: {stats:?}"
        );
        thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn fixed_seed_daemon_solve_is_byte_identical_to_direct_planner() {
    let request = sa_request(400, 7);
    let direct = outcome_json(
        request.system(),
        &request.solve().expect("direct solve succeeds"),
    );

    let (addr, server) = start_server(2, 4);
    let mut client = ServeClient::connect(addr).expect("connect");
    let document = request_json(&request);

    // Two identical solves: the second must hit the shared thermal cache.
    for round in 0..2 {
        let Submit::Accepted(job) = client.submit(&document, 0).expect("submit") else {
            panic!("empty daemon rejected a solve");
        };
        let result = client.wait_outcome(job).expect("job completes");
        assert!(result.progress.is_empty(), "streaming was not requested");
        let served = result.outcome.render();
        assert_eq!(
            deterministic_projection(&served),
            deterministic_projection(&direct),
            "served solve diverged from the direct planner on round {round}"
        );
    }

    let stats = client.stats().expect("stats reply");
    assert_eq!(stats.cache_models, 1, "one distinct thermal configuration");
    assert_eq!(stats.cache_misses, 1, "characterised exactly once");
    assert!(stats.cache_hits >= 1, "second solve hit the cache");
    assert_eq!(stats.scheduler.completed, 2);

    assert_eq!(client.shutdown().expect("shutdown ack"), 0);
    server.join().expect("server thread").expect("clean exit");
}

/// `solve_job` rebuilds the request member by member, so an RL request
/// that sets every `request/v1` member must come back as the direct solve.
/// The outcome's `training` object records `parallel_envs`, so the
/// projection alone catches a daemon that drops it.
#[test]
fn rl_request_with_every_member_set_is_served_as_the_direct_solve() {
    let request = FloorplanRequest::builder()
        .system(synthetic_case(1))
        .method(Method::rl())
        .thermal(ThermalBackend::Fast {
            config: ThermalConfig::with_grid(16, 16),
            characterization: CharacterizationOptions::default(),
        })
        .budget(Budget::Evaluations(6))
        .seed(23)
        .parallel_envs(2)
        .warm_start(true)
        .build()
        .expect("test request is valid");
    let direct = request.solve().expect("direct solve succeeds");

    let (addr, server) = start_server(1, 4);
    let mut client = ServeClient::connect(addr).expect("connect");
    let Submit::Accepted(job) = client.submit(&request_json(&request), 0).expect("submit") else {
        panic!("empty daemon rejected a solve");
    };
    let result = client.wait_outcome(job).expect("job completes");
    let served = outcome_from_value(&result.outcome, request.system()).expect("outcome parses");
    assert_eq!(
        deterministic_projection(&outcome_json(request.system(), &served)),
        deterministic_projection(&outcome_json(request.system(), &direct)),
    );
    let training = served.training.expect("RL outcomes report training");
    assert_eq!(training.parallel_envs, 2);
    assert_eq!(training.episodes, 6);
    assert!(served.manifest.warm_start);
    assert_eq!(served.manifest.seed, 23);
    assert_eq!(served.manifest.budget, Some(Budget::Evaluations(6)));

    client.shutdown().expect("shutdown ack");
    server.join().expect("server thread").expect("clean exit");
}

#[test]
fn progress_streams_without_changing_the_outcome() {
    let request = sa_request(300, 11);
    let direct = outcome_json(
        request.system(),
        &request.solve().expect("direct solve succeeds"),
    );

    let (addr, server) = start_server(1, 4);
    let mut client = ServeClient::connect(addr).expect("connect");
    let Submit::Accepted(job) = client.submit(&request_json(&request), 50).expect("submit") else {
        panic!("empty daemon rejected a solve");
    };
    let result = client.wait_outcome(job).expect("job completes");
    assert!(
        !result.progress.is_empty(),
        "progress_every=50 over 300 evaluations must stream samples"
    );
    for sample in &result.progress {
        assert!(sample.candidate.is_multiple_of(50));
        assert!(sample.best_reward >= sample.reward);
    }
    // Observation is passive: the streamed solve is the direct solve.
    assert_eq!(
        deterministic_projection(&result.outcome.render()),
        deterministic_projection(&direct),
    );

    client.shutdown().expect("shutdown ack");
    server.join().expect("server thread").expect("clean exit");
}

#[test]
fn full_queue_answers_busy_and_queued_jobs_cancel() {
    // One worker, queue of one: job A runs, job B waits, job C bounces.
    let (addr, server) = start_server(1, 1);
    let mut client = ServeClient::connect(addr).expect("connect");

    let slow = request_json(&slow_sa_request(3));
    let Submit::Accepted(running) = client.submit(&slow, 0).expect("submit A") else {
        panic!("empty daemon rejected job A");
    };
    wait_for_stats(&mut client, |s| s.scheduler.running == 1, "job A to start");

    let quick = request_json(&sa_request(100, 4));
    let Submit::Accepted(queued) = client.submit(&quick, 0).expect("submit B") else {
        panic!("queue had a free slot for job B");
    };
    assert_eq!(
        client.submit(&quick, 0).expect("submit C"),
        Submit::Busy { capacity: 1 },
        "a full queue must answer busy, not block"
    );

    // Cancel reaches only queued jobs; ids never admitted are unknown.
    assert_eq!(client.status(queued).expect("status"), "queued");
    assert!(client.cancel(queued).expect("cancel B"));
    assert!(
        !client.cancel(queued).expect("double cancel"),
        "already gone"
    );
    assert_eq!(client.status(queued).expect("status"), "cancelled");
    assert!(!client.cancel(running).expect("cancel A"), "A is running");
    assert_eq!(client.status(999).expect("status"), "unknown");

    client.wait_outcome(running).expect("job A completes");
    client.shutdown().expect("shutdown ack");
    server.join().expect("server thread").expect("clean exit");
}

#[test]
fn connection_teardown_cancels_its_queued_jobs() {
    let (addr, server) = start_server(1, 4);
    let mut doomed = ServeClient::connect(addr).expect("connect A");
    let mut watcher = ServeClient::connect(addr).expect("connect B");

    let slow = request_json(&slow_sa_request(5));
    let quick = request_json(&sa_request(100, 6));
    assert!(matches!(
        doomed.submit(&slow, 0).expect("submit slow"),
        Submit::Accepted(_)
    ));
    wait_for_stats(
        &mut watcher,
        |s| s.scheduler.running == 1,
        "slow job to start",
    );
    for _ in 0..2 {
        assert!(matches!(
            doomed.submit(&quick, 0).expect("submit quick"),
            Submit::Accepted(_)
        ));
    }

    // Dropping the connection must cancel its two queued jobs; the running
    // one completes without an audience.
    drop(doomed);
    let stats = wait_for_stats(
        &mut watcher,
        |s| s.scheduler.cancelled == 2 && s.scheduler.running == 0 && s.scheduler.queued == 0,
        "teardown to cancel the queued jobs",
    );
    assert_eq!(
        stats.scheduler.completed, 1,
        "only the running job finished"
    );

    watcher.shutdown().expect("shutdown ack");
    server.join().expect("server thread").expect("clean exit");
}

#[test]
fn graceful_shutdown_under_load_drains_in_flight_jobs() {
    let (addr, server) = start_server(2, 8);
    let mut submitter = ServeClient::connect(addr).expect("connect A");
    let mut controller = ServeClient::connect(addr).expect("connect B");

    let document = request_json(&sa_request(30_000, 9));
    let jobs: Vec<u64> = (0..4)
        .map(|i| match submitter.submit(&document, 0).expect("submit") {
            Submit::Accepted(job) => job,
            Submit::Busy { .. } => panic!("queue of 8 rejected job {i}"),
        })
        .collect();

    // Shutdown with work still queued/running: everything already admitted
    // must drain before the daemon exits.
    controller.shutdown().expect("shutdown ack");
    for job in jobs {
        submitter.wait_outcome(job).expect("admitted job drains");
    }
    server.join().expect("server thread").expect("clean exit");
}

#[test]
fn malformed_and_inadmissible_documents_are_remote_errors() {
    let (addr, server) = start_server(1, 2);
    let mut client = ServeClient::connect(addr).expect("connect");

    // Not a request document at all.
    match client.submit("{ \"schema\": \"other/v9\" }", 0) {
        Err(ClientError::Remote(message)) => {
            assert!(message.contains("schema"), "unhelpful error: {message}");
        }
        other => panic!("daemon accepted a non-request document: {other:?}"),
    }
    // Structurally valid but semantically hostile: a zero-evaluation
    // budget, which the builder's validation must reject at admission.
    let hostile =
        request_json(&sa_request(100, 1)).replace("\"evaluations\": 100", "\"evaluations\": 0");
    match client.submit(&hostile, 0) {
        Err(ClientError::Remote(message)) => {
            assert!(!message.is_empty());
        }
        other => panic!("daemon accepted a hostile document: {other:?}"),
    }
    // The connection survives rejected documents.
    assert_eq!(client.status(1).expect("status"), "unknown");

    client.shutdown().expect("shutdown ack");
    server.join().expect("server thread").expect("clean exit");
}

#[test]
fn an_anneal_that_never_cools_is_refused_and_the_only_worker_stays_free() {
    let request = case1_sa_fast_40();
    let document = request_json(&request);
    // `1e999` decodes to +inf, and +inf never cools below the final
    // temperature: with no budget such a job, once admitted, ran forever on
    // its worker, and a running job cannot be cancelled.
    let temperature = "\"initial_temperature\": 1,";
    let budget = "\"budget\": { \"evaluations\": 40 }";
    assert!(document.contains(temperature) && document.contains(budget));
    let hostile = document
        .replace(temperature, "\"initial_temperature\": 1e999,")
        .replace(budget, "\"budget\": null");

    let (addr, server) = start_server(1, 2);
    let mut client = ServeClient::connect(addr).expect("connect");
    match client.submit(&hostile, 0) {
        Err(ClientError::Remote(message)) => assert!(
            message.contains("`sa` is invalid: temperatures must be finite and positive"),
            "{message}"
        ),
        other => panic!("daemon admitted a never-cooling anneal: {other:?}"),
    }
    // The one worker is free: an honest job on the same daemon completes,
    // byte-identical to the direct solve.
    let Submit::Accepted(job) = client.submit(&document, 0).expect("submit") else {
        panic!("empty daemon rejected a solve");
    };
    let result = client.wait_outcome(job).expect("honest job completes");
    let direct = outcome_json(request.system(), &request.solve().expect("direct solve"));
    assert_eq!(
        deterministic_projection(&result.outcome.render()),
        deterministic_projection(&direct)
    );

    client.shutdown().expect("shutdown ack");
    server.join().expect("server thread").expect("clean exit");
}

#[test]
fn a_duration_too_long_to_represent_is_an_error_frame_and_the_connection_serves_on() {
    let request = case1_sa_fast_40();
    let document = request_json(&request);
    // `1e300` seconds is finite but beyond `Duration`: decoding it used to
    // panic on the connection thread, so the client got no answer at all.
    let budget = "\"budget\": { \"evaluations\": 40 }";
    assert!(document.contains(budget));
    let hostile = document.replace(budget, "\"budget\": { \"time_limit_s\": 1e300 }");

    let (addr, server) = start_server(1, 2);
    let mut client = ServeClient::connect(addr).expect("connect");
    match client.submit(&hostile, 0) {
        Err(ClientError::Remote(message)) => {
            assert!(message.contains("`budget.time_limit_s`"), "{message}")
        }
        other => panic!("daemon admitted an unrepresentable time limit: {other:?}"),
    }
    // An honest job on the same connection completes, byte-identical to the
    // direct solve.
    let Submit::Accepted(job) = client.submit(&document, 0).expect("submit") else {
        panic!("empty daemon rejected a solve");
    };
    let result = client.wait_outcome(job).expect("honest job completes");
    let direct = outcome_json(request.system(), &request.solve().expect("direct solve"));
    assert_eq!(
        deterministic_projection(&result.outcome.render()),
        deterministic_projection(&direct)
    );

    client.shutdown().expect("shutdown ack");
    server.join().expect("server thread").expect("clean exit");
}

#[test]
fn metrics_rpc_exposes_a_job_timeline_and_frames_carry_timings() {
    use rlp_serve::protocol::{self, ClientMessage};
    use std::net::TcpStream;

    // The metrics registry is process-global (the `rlp_serve` binary
    // enables it at startup; tests must do so themselves). Recording is
    // outcome-invariant by design, so enabling it here cannot disturb the
    // byte-identity tests sharing this process.
    rlp_obs::set_metrics_enabled(true);

    let (addr, server) = start_server(1, 4);
    let document = request_json(&sa_request(200, 23));

    // Drive the wire directly: the frame-level timing fields are stripped
    // by `ServeClient` (it only surfaces the embedded outcome document).
    let mut stream = TcpStream::connect(addr).expect("connect");
    let read = |stream: &mut TcpStream| -> Value {
        let payload = protocol::read_frame(stream)
            .expect("read frame")
            .expect("daemon closed early");
        Value::parse(&payload).expect("daemon frames are valid JSON")
    };

    protocol::write_frame(&mut stream, &ClientMessage::render_solve(&document, 0))
        .expect("send solve");
    let accepted = read(&mut stream);
    assert_eq!(
        accepted.get("type").and_then(Value::as_str),
        Some("accepted")
    );
    let outcome = read(&mut stream);
    assert_eq!(outcome.get("type").and_then(Value::as_str), Some("outcome"));

    // The VOLATILE job timings ride on the frame, never inside the
    // byte-comparable outcome document.
    let queue_ms = outcome
        .get("queue_ms")
        .and_then(Value::as_f64)
        .expect("outcome frame carries queue_ms");
    let solve_ms = outcome
        .get("solve_ms")
        .and_then(Value::as_f64)
        .expect("outcome frame carries solve_ms");
    assert!(queue_ms >= 0.0, "negative queue wait: {queue_ms}");
    assert!(solve_ms > 0.0, "a real solve takes measurable time");
    let embedded = outcome.get("outcome").expect("embedded outcome document");
    assert!(
        embedded.get("queue_ms").is_none(),
        "timings leaked into the document"
    );

    // Status frames carry queue_ms too (this job is done; its timings
    // stay frozen).
    protocol::write_frame(&mut stream, &ClientMessage::render_status(1)).expect("send status");
    let status = read(&mut stream);
    assert_eq!(status.get("type").and_then(Value::as_str), Some("status"));
    assert!(
        status.get("queue_ms").and_then(Value::as_f64).is_some(),
        "status frame for a known job carries queue_ms: {status:?}"
    );

    protocol::write_frame(&mut stream, &ClientMessage::render_metrics()).expect("send metrics");
    let reply = read(&mut stream);
    assert_eq!(reply.get("type").and_then(Value::as_str), Some("metrics"));
    let snapshot = reply.get("metrics").expect("embedded snapshot");
    assert_eq!(
        snapshot.get("schema").and_then(Value::as_str),
        Some("rlplanner.metrics/v1")
    );

    let counters = snapshot.get("counters").expect("counters object");
    let counter = |name: &str| counters.get(name).and_then(Value::as_f64).unwrap_or(0.0);
    assert!(
        counter("serve.jobs.admitted") >= 1.0,
        "no admitted jobs counted"
    );
    assert!(
        counter("serve.jobs.completed") >= 1.0,
        "no completed jobs counted"
    );
    assert!(
        counter("plan.solves") >= 1.0,
        "the planner facade saw no solve"
    );

    // The per-job span timeline: every phase histogram saw this job.
    let histograms = snapshot.get("histograms").expect("histograms object");
    for phase in [
        "serve.job.queue_wait_ns",
        "serve.job.solve_ns",
        "serve.job.serialize_ns",
        "serve.job.flush_ns",
    ] {
        let hist = histograms
            .get(phase)
            .unwrap_or_else(|| panic!("missing `{phase}` histogram"));
        let count = hist.get("count").and_then(Value::as_f64).unwrap_or(0.0);
        assert!(count >= 1.0, "`{phase}` recorded nothing");
        assert!(
            hist.get("p50").and_then(Value::as_f64).is_some(),
            "`{phase}` has no p50"
        );
    }

    protocol::write_frame(&mut stream, &ClientMessage::render_shutdown()).expect("send shutdown");
    let ack = read(&mut stream);
    assert_eq!(ack.get("type").and_then(Value::as_str), Some("shutdown"));
    drop(stream);
    server.join().expect("server thread").expect("clean exit");
}

/// The thermal backend the pretrained tests share with `tests/pretrained.rs`
/// at the repository root: small enough that characterisation is cheap.
fn tiny_fast_backend() -> ThermalBackend {
    ThermalBackend::Fast {
        config: ThermalConfig::with_grid(12, 12),
        characterization: CharacterizationOptions {
            footprint_samples_mm: vec![4.0, 10.0],
            distance_bins: 8,
            ..CharacterizationOptions::default()
        },
    }
}

/// Trains a two-episode RL run on `synthetic_case(1)` and saves its policy
/// to a scratch path unique to this process and `name`.
fn train_tiny_policy(name: &str) -> std::path::PathBuf {
    use rlplanner::{AgentConfig, RlPlannerConfig};
    let path =
        std::env::temp_dir().join(format!("rlp-daemon-{}-{name}.policy", std::process::id()));
    FloorplanRequest::builder()
        .system(synthetic_case(1))
        .method(Method::Rl {
            config: RlPlannerConfig {
                episodes_per_update: 2,
                agent: AgentConfig {
                    conv_channels: (2, 4),
                    feature_dim: 16,
                    rnd_hidden_dim: 16,
                    rnd_embedding_dim: 4,
                    ..AgentConfig::default()
                },
                ..RlPlannerConfig::default()
            },
        })
        .thermal(tiny_fast_backend())
        .budget(Budget::Evaluations(2))
        .seed(5)
        .save_policy(path.display().to_string())
        .build()
        .expect("training request is valid")
        .solve()
        .expect("training solve succeeds");
    path
}

fn pretrained_request(path: &std::path::Path) -> FloorplanRequest {
    FloorplanRequest::builder()
        .system(synthetic_case(1))
        .method(Method::pretrained(path.display().to_string()))
        .thermal(tiny_fast_backend())
        .build()
        .expect("pretrained request is valid")
}

#[test]
fn preloaded_pretrained_daemon_solve_is_byte_identical_and_needs_no_disk() {
    let path = train_tiny_policy("preload");
    let request = pretrained_request(&path);
    let direct = outcome_json(
        request.system(),
        &request.solve().expect("direct pretrained solve"),
    );

    // The daemon preloads the policy at bind; deleting the file afterwards
    // proves the solve runs from the in-memory copy, not the filesystem.
    let (addr, server) = start_server_with_policy(1, 4, Some(path.display().to_string()));
    std::fs::remove_file(&path).expect("remove policy after preload");

    let mut client = ServeClient::connect(addr).expect("connect");
    let Submit::Accepted(job) = client.submit(&request_json(&request), 0).expect("submit") else {
        panic!("empty daemon rejected a pretrained solve");
    };
    let result = client.wait_outcome(job).expect("pretrained job completes");
    let served = result.outcome.render();
    assert_eq!(
        deterministic_projection(&served),
        deterministic_projection(&direct),
        "daemon pretrained solve diverged from the direct planner"
    );

    // Inference only: the served outcome carries no training telemetry.
    let parsed = outcome_from_value(&result.outcome, request.system()).expect("outcome parses");
    assert!(parsed.training.is_none(), "daemon solve must not train");
    assert_eq!(parsed.evaluations, 1, "one greedy rollout");

    assert_eq!(client.shutdown().expect("shutdown ack"), 0);
    server.join().expect("server thread").expect("clean exit");
}

#[test]
fn hostile_policy_files_surface_as_failed_frames_not_crashes() {
    // No preload: the worker reads the policy path per request.
    let (addr, server) = start_server(1, 2);
    let mut client = ServeClient::connect(addr).expect("connect");

    let submit_and_fail = |client: &mut ServeClient, path: &std::path::Path| -> String {
        let Submit::Accepted(job) = client
            .submit(&request_json(&pretrained_request(path)), 0)
            .expect("submit")
        else {
            panic!("daemon rejected a structurally valid pretrained request");
        };
        match client.wait_outcome(job) {
            Err(ClientError::Remote(message)) => message,
            other => panic!("hostile policy file did not fail the job: {other:?}"),
        }
    };

    // A missing file is a typed I/O failure naming the path.
    let missing = std::env::temp_dir().join(format!(
        "rlp-daemon-{}-does-not-exist.policy",
        std::process::id()
    ));
    let message = submit_and_fail(&mut client, &missing);
    assert!(
        message.contains("policy file"),
        "unhelpful error: {message}"
    );
    assert!(
        message.contains("does-not-exist"),
        "error does not name the path: {message}"
    );

    // A corrupt (checksum-flipped) file is a typed integrity failure.
    let path = train_tiny_policy("corrupt");
    let mut bytes = std::fs::read(&path).expect("read policy");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&path, &bytes).expect("rewrite policy");
    let message = submit_and_fail(&mut client, &path);
    std::fs::remove_file(&path).ok();
    assert!(
        message.contains("checksum"),
        "corruption not surfaced as a checksum error: {message}"
    );

    // The daemon survives both failures and still answers RPCs.
    assert_eq!(client.status(999).expect("status"), "unknown");
    client.shutdown().expect("shutdown ack");
    server.join().expect("server thread").expect("clean exit");
}

#[test]
fn binding_on_a_corrupt_policy_fails_fast() {
    let path = std::env::temp_dir().join(format!(
        "rlp-daemon-{}-bad-preload.policy",
        std::process::id()
    ));
    std::fs::write(&path, b"PNG\x89 definitely not a policy file").expect("write garbage");
    let Err(err) = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        queue_capacity: 1,
        policy: Some(path.display().to_string()),
    }) else {
        panic!("binding with a corrupt policy must fail");
    };
    std::fs::remove_file(&path).ok();
    assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    assert!(
        err.to_string().contains("policy file"),
        "unhelpful bind error: {err}"
    );
}

#[test]
fn binding_on_a_non_finite_policy_fails_fast() {
    // A checksum-valid file with one `+inf` in the encoder's feature-layer
    // weight (tensor 4) parses, but no network can run on it.
    let trained = train_tiny_policy("inf-source");
    let file = rlplanner::PolicyFile::load(&trained).expect("trained policy loads");
    std::fs::remove_file(&trained).ok();
    let mut tensors = file.tensors().to_vec();
    tensors[4].data_mut()[0] = f32::INFINITY;
    let path = std::env::temp_dir().join(format!(
        "rlp-daemon-{}-inf-preload.policy",
        std::process::id()
    ));
    rlplanner::PolicyFile::new(file.metadata().to_vec(), tensors)
        .save(&path)
        .expect("write policy");
    let Err(err) = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        queue_capacity: 1,
        policy: Some(path.display().to_string()),
    }) else {
        panic!("binding with a non-finite policy must fail");
    };
    std::fs::remove_file(&path).ok();
    assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    assert!(
        err.to_string().contains("non-finite value at element 0"),
        "unhelpful bind error: {err}"
    );
}
