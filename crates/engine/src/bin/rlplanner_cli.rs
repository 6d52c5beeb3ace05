//! `rlplanner_cli` — run any benchmark system through any of the six
//! methods from the command line, via the unified [`FloorplanRequest`]
//! facade; run whole sweep campaigns through the
//! [`rlp_engine::CampaignEngine`]; or train a generalist policy across
//! the synthetic system distribution.
//!
//! ```text
//! rlplanner_cli <system> <method> [budget] [--train-parallel <n>]
//!               [--warm-start] [--policy <path>] [--save-policy <path>]
//!               [--json] [--log-level <filter>]
//!
//!   <system>   multi-gpu | cpu-dram | ascend910 | case1..case5
//!   <method>   rl | rl-rnd | sa-hotspot | sa-fast | gradient | pretrained
//!   [budget]   candidate floorplans to evaluate: RL training episodes or
//!              SA/gradient objective evaluations (default 100); must be a
//!              positive integer — anything else is a usage error (the
//!              `pretrained` method ignores it: inference is one rollout)
//!   --train-parallel  rollout workers collecting RL training episodes;
//!              parallel collection is trajectory-invariant, so any value
//!              produces the byte-identical result, only faster (default:
//!              the method config's `parallel_envs`, i.e. 1)
//!   --warm-start  seed the SA/RL optimiser with the analytic
//!              gradient-descent presolve instead of a random start (no-op
//!              for the `gradient` method, which IS the presolve engine)
//!   --policy   `rlplanner.policy/v1` file the `pretrained` method solves
//!              with (required by — and only read by — that method)
//!   --save-policy  write the trained policy network to this path after an
//!              `rl`/`rl-rnd` run, for later `pretrained` solves
//!   --json     print the full outcome document (placement, reward
//!              breakdown, telemetry, reproducibility manifest) as JSON
//!              instead of the human-readable summary
//!   --log-level  structured-log filter on stderr
//!              (off|error|warn|info|debug|trace; default off, overrides
//!              the `RLP_LOG` environment variable; valid in every mode —
//!              `RLP_METRICS=1` and `RLP_TRACE=<path>` are also honoured)
//!
//! rlplanner_cli sweep [--systems <s,...>] [--methods <m,...>]
//!                     [--seeds <n,...>] [--budget <n>] [--parallel <n>]
//!                     [--train-parallel <n>] [--warm-start]
//!                     [--policy <path>] [--stream <path>] [--json]
//!
//!   --systems  comma-separated systems axis       (default: case1)
//!   --methods  comma-separated method columns     (default: rl)
//!   --seeds    comma-separated seeds axis         (default: 7)
//!   --budget   candidate floorplans per run       (default: 50)
//!   --parallel worker threads; parallelism never changes outcomes, only
//!              wall-clock                         (default: 1)
//!   --train-parallel  rollout workers inside every RL run; also
//!              outcome-invariant                  (default: 1)
//!   --warm-start  gradient-presolve every run of the grid; unlike the
//!              parallelism knobs this DOES change outcomes, uniformly
//!              across the whole grid               (default: off)
//!   --policy   policy file backing a `pretrained` column in --methods
//!   --stream   append each finished run to <path> as one
//!              `rlplanner.campaign-run/v1` JSONL record, flushed per run.
//!              If <path> already holds records from an interrupted sweep
//!              of the same grid, those runs are loaded instead of
//!              re-executed (resume)
//!   --json     print the campaign document (`rlplanner.campaign/v1`)
//!              instead of the human-readable cell table
//!
//! rlplanner_cli train-generalist --out <path> [--systems <n>]
//!                                [--episodes-per-system <n>] [--seed <n>]
//!
//!   Trains ONE policy sequentially across <n> randomized synthetic
//!   systems (default 8) drawn from `rlp_benchmarks::SyntheticConfig`,
//!   carrying the network weights from system to system, then saves the
//!   result as a `rlplanner.policy/v1` file at --out. The saved policy
//!   drives `pretrained` solves (above) and the `rlp_serve --policy`
//!   daemon; training progress is reported per system on stderr.
//! ```
//!
//! A sweep runs the full systems × methods × seeds grid through one shared
//! thermal-characterisation cache: each distinct package configuration is
//! characterised exactly once, however many runs and threads need it.
//! Sweeps are fail-soft: a run whose solve fails is reported (and exits
//! nonzero) without discarding the completed cells.
//!
//! Without `--json`, the single-run mode prints the reward breakdown on
//! stdout followed by the placement as JSON (the `rlplanner::report`
//! placement document), and the sweep mode prints one summary line per
//! (system, method) cell. Exit codes: 0 on success, 2 on usage errors, 1
//! when a solve fails (single-run) or any sweep run fails.

use rlp_benchmarks::{system_by_name, SyntheticConfig, SyntheticSystemGenerator};
use rlp_engine::{campaign_json, CampaignEngine, CampaignMethod, CampaignSpec, JsonlSink};
use rlp_thermal::{CharacterizationOptions, ThermalBackend, ThermalConfig};
use rlplanner::report::{outcome_json, placement_json};
use rlplanner::{
    method_by_name, Budget, FloorplanRequest, Method, PolicyFile, RewardConfig, RlPlanner,
    RlPlannerConfig,
};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: rlplanner_cli <multi-gpu|cpu-dram|ascend910|case1..case5> \
         <rl|rl-rnd|sa-hotspot|sa-fast|gradient|pretrained> [budget] \
         [--train-parallel <n>] [--warm-start] [--policy <path>] \
         [--save-policy <path>] [--json] [--log-level <filter>]\n\
         \x20      rlplanner_cli sweep [--systems <s,...>] [--methods <m,...>] \
         [--seeds <n,...>] [--budget <n>] [--parallel <n>] \
         [--train-parallel <n>] [--warm-start] [--policy <path>] \
         [--stream <path>] [--json] [--log-level <filter>]\n\
         \x20      rlplanner_cli train-generalist --out <path> [--systems <n>] \
         [--episodes-per-system <n>] [--seed <n>] [--log-level <filter>]"
    );
    ExitCode::from(2)
}

/// Parsed `--flag value` / `--flag=value` sweep options.
struct SweepArgs {
    systems: Vec<String>,
    methods: Vec<String>,
    seeds: Vec<u64>,
    budget: usize,
    parallel: usize,
    train_parallel: Option<usize>,
    warm_start: bool,
    stream: Option<String>,
    policy: Option<String>,
    json: bool,
}

fn parse_sweep_args(args: &[String]) -> Result<SweepArgs, String> {
    let mut parsed = SweepArgs {
        systems: vec!["case1".to_string()],
        methods: vec!["rl".to_string()],
        seeds: vec![7],
        budget: 50,
        parallel: 1,
        train_parallel: None,
        warm_start: false,
        stream: None,
        policy: None,
        json: false,
    };
    let mut iter = args.iter().peekable();
    while let Some(arg) = iter.next() {
        let (flag, inline) = match arg.split_once('=') {
            Some((flag, value)) => (flag, Some(value.to_string())),
            None => (arg.as_str(), None),
        };
        if flag == "--json" || flag == "--warm-start" {
            if inline.is_some() {
                return Err(format!("{flag} takes no value"));
            }
            if flag == "--json" {
                parsed.json = true;
            } else {
                parsed.warm_start = true;
            }
            continue;
        }
        let value = match inline {
            Some(value) => value,
            None => iter
                .next()
                .ok_or_else(|| format!("flag `{flag}` needs a value"))?
                .clone(),
        };
        match flag {
            "--systems" => parsed.systems = value.split(',').map(str::to_string).collect(),
            "--methods" => parsed.methods = value.split(',').map(str::to_string).collect(),
            "--seeds" => {
                parsed.seeds = value
                    .split(',')
                    .map(|s| {
                        s.parse::<u64>()
                            .map_err(|_| format!("invalid seed `{s}`: expected an integer"))
                    })
                    .collect::<Result<_, _>>()?;
            }
            "--budget" => {
                parsed.budget =
                    value
                        .parse::<usize>()
                        .ok()
                        .filter(|&n| n > 0)
                        .ok_or_else(|| {
                            format!("invalid budget `{value}`: expected a positive integer")
                        })?;
            }
            "--parallel" => {
                parsed.parallel =
                    value
                        .parse::<usize>()
                        .ok()
                        .filter(|&n| n > 0)
                        .ok_or_else(|| {
                            format!("invalid parallelism `{value}`: expected a positive integer")
                        })?;
            }
            "--train-parallel" => {
                parsed.train_parallel = Some(
                    value
                        .parse::<usize>()
                        .ok()
                        .filter(|&n| n > 0)
                        .ok_or_else(|| {
                            format!(
                                "invalid rollout parallelism `{value}`: expected a positive integer"
                            )
                        })?,
                );
            }
            "--stream" => {
                if value.is_empty() {
                    return Err("--stream needs a non-empty path".to_string());
                }
                parsed.stream = Some(value);
            }
            "--policy" => {
                if value.is_empty() {
                    return Err("--policy needs a non-empty path".to_string());
                }
                parsed.policy = Some(value);
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(parsed)
}

fn run_sweep(args: &[String]) -> ExitCode {
    let parsed = match parse_sweep_args(args) {
        Ok(parsed) => parsed,
        Err(reason) => {
            eprintln!("{reason}");
            return usage();
        }
    };
    let mut spec = CampaignSpec::builder()
        .budget(Budget::Evaluations(parsed.budget))
        .parallelism(parsed.parallel)
        .seeds(parsed.seeds.iter().copied());
    if let Some(train_parallel) = parsed.train_parallel {
        spec = spec.train_parallel(train_parallel);
    }
    if parsed.warm_start {
        spec = spec.warm_start(true);
    }
    for name in &parsed.systems {
        let Some(system) = system_by_name(name) else {
            eprintln!("unknown system `{name}`");
            return usage();
        };
        spec = spec.system(system);
    }
    for name in &parsed.methods {
        let (method, thermal) = match method_by_name(name, parsed.policy.as_deref()) {
            Ok(loaded) => loaded,
            Err(reason) => {
                eprintln!("{reason}");
                return usage();
            }
        };
        spec = spec.method(CampaignMethod::new(name.clone(), method, thermal));
    }
    let spec = match spec.build() {
        Ok(spec) => spec,
        Err(err) => {
            eprintln!("invalid sweep: {err}");
            return ExitCode::from(2);
        }
    };
    let engine = CampaignEngine::new();
    let report = if let Some(path) = &parsed.stream {
        let mut sink = match JsonlSink::open(path) {
            Ok(sink) => sink,
            Err(err) => {
                eprintln!("cannot open stream file `{path}`: {err}");
                return ExitCode::FAILURE;
            }
        };
        if sink.prior_len() > 0 {
            eprintln!(
                "resuming from {} record(s) already in `{path}`",
                sink.prior_len()
            );
        }
        match engine.run_streamed(&spec, &mut sink) {
            Ok(report) => report,
            Err(err) => {
                eprintln!("sweep failed: {err}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        match engine.run(&spec) {
            Ok(report) => report,
            Err(err) => {
                eprintln!("sweep failed: {err}");
                return ExitCode::FAILURE;
            }
        }
    };
    if parsed.json {
        println!("{}", campaign_json(&report));
    } else {
        eprintln!(
            "{} runs ({} resumed) on {} worker(s) in {:.2?}; cache: {} hit(s), {} characterisation(s) ({:.2?})",
            report.runs.len() + report.failures.len(),
            report.resumed_runs,
            report.parallelism,
            report.wall_clock,
            report.cache.hits,
            report.cache.misses,
            report.cache.characterization_time,
        );
        println!(
            "{:<12}{:<12}{:>8}{:>12}{:>12}{:>12}{:>12}{:>10}{:>12}{:>10}{:>14}",
            "system",
            "method",
            "seeds",
            "best",
            "mean",
            "min",
            "best seed",
            "evals",
            "us/eval",
            "eps/s",
            "eval engine"
        );
        for cell in &report.cells {
            let episodes_per_s = cell
                .episodes_per_s
                .map_or_else(|| "-".to_string(), |v| format!("{v:.1}"));
            println!(
                "{:<12}{:<12}{:>8}{:>12.4}{:>12.4}{:>12.4}{:>12}{:>10}{:>12.1}{:>10}{:>14}",
                cell.system,
                cell.method,
                cell.seeds.len(),
                cell.max_reward,
                cell.mean_reward,
                cell.min_reward,
                report.runs[cell.best_run].seed,
                cell.eval_counts.total(),
                cell.mean_eval_time.as_secs_f64() * 1e6,
                episodes_per_s,
                cell.eval_counts.mode().label(),
            );
        }
    }
    // Fail-soft: completed cells were reported above (and streamed), but a
    // sweep with failed runs still exits nonzero.
    if !report.failures.is_empty() {
        eprintln!("{} run(s) failed:", report.failures.len());
        for failure in &report.failures {
            eprintln!(
                "  run {} `{}` on `{}` (seed {}): {}",
                failure.index, failure.method, failure.system, failure.seed, failure.error
            );
        }
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Parsed `train-generalist` options.
struct GeneralistArgs {
    out: String,
    systems: usize,
    episodes_per_system: usize,
    seed: u64,
}

fn parse_generalist_args(args: &[String]) -> Result<GeneralistArgs, String> {
    let mut out = None;
    let mut parsed = GeneralistArgs {
        out: String::new(),
        systems: 8,
        episodes_per_system: 60,
        seed: 7,
    };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let (flag, inline) = match arg.split_once('=') {
            Some((flag, value)) => (flag, Some(value.to_string())),
            None => (arg.as_str(), None),
        };
        let value = match inline {
            Some(value) => value,
            None => iter
                .next()
                .ok_or_else(|| format!("flag `{flag}` needs a value"))?
                .clone(),
        };
        match flag {
            "--out" => {
                if value.is_empty() {
                    return Err("--out needs a non-empty path".to_string());
                }
                out = Some(value);
            }
            "--systems" => {
                parsed.systems =
                    value
                        .parse::<usize>()
                        .ok()
                        .filter(|&n| n > 0)
                        .ok_or_else(|| {
                            format!("invalid system count `{value}`: expected a positive integer")
                        })?;
            }
            "--episodes-per-system" => {
                parsed.episodes_per_system = value
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or_else(|| {
                        format!("invalid episode count `{value}`: expected a positive integer")
                    })?;
            }
            "--seed" => {
                parsed.seed = value
                    .parse::<u64>()
                    .map_err(|_| format!("invalid seed `{value}`: expected an integer"))?;
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    parsed.out = out.ok_or_else(|| "train-generalist needs --out <path>".to_string())?;
    Ok(parsed)
}

/// Trains one policy across the randomized synthetic system distribution
/// and saves it as a `rlplanner.policy/v1` file: the "train once" half of
/// train once, serve forever. The weights carry from system to system via
/// the in-memory policy snapshot (all systems share the default 16×16
/// placement grid, so the network shapes are equal), and the saved file
/// records the distribution provenance in its metadata.
fn run_train_generalist(args: &[String]) -> ExitCode {
    let parsed = match parse_generalist_args(args) {
        Ok(parsed) => parsed,
        Err(reason) => {
            eprintln!("{reason}");
            return usage();
        }
    };
    let systems = SyntheticSystemGenerator::new(SyntheticConfig::default(), parsed.seed)
        .generate_batch(parsed.systems);
    let thermal = ThermalBackend::Fast {
        config: ThermalConfig::with_grid(32, 32),
        characterization: CharacterizationOptions::default(),
    };
    let mut snapshot: Option<PolicyFile> = None;
    for (index, system) in systems.into_iter().enumerate() {
        let name = system.name().to_string();
        let chiplets = system.chiplet_count();
        let (analyzer, _prep) = match thermal.build_prepared(&system) {
            Ok(built) => built,
            Err(err) => {
                eprintln!("thermal backend failed on `{name}`: {err}");
                return ExitCode::FAILURE;
            }
        };
        let config = RlPlannerConfig {
            episodes: parsed.episodes_per_system,
            // Each system trains on its own deterministic stream; the
            // carried weights are the only cross-system state.
            seed: parsed.seed.wrapping_add(index as u64),
            ..RlPlannerConfig::default()
        };
        let mut planner = match RlPlanner::new(system, analyzer, RewardConfig::default(), config) {
            Ok(planner) => planner,
            Err(err) => {
                eprintln!("invalid training configuration on `{name}`: {err}");
                return ExitCode::FAILURE;
            }
        };
        if let Some(file) = &snapshot {
            if let Err(err) = planner.import_policy(file) {
                eprintln!("cannot carry weights into `{name}`: {err}");
                return ExitCode::FAILURE;
            }
        }
        match planner.train(None, &mut |_, _, _| {}) {
            Ok(result) => {
                eprintln!(
                    "[{}/{}] {name}: {chiplets} chiplets, {} episodes, best reward {:.4}",
                    index + 1,
                    parsed.systems,
                    result.episodes_run,
                    result.best_breakdown.reward,
                );
            }
            Err(err) => {
                eprintln!("training stalled on `{name}`: {err}");
                return ExitCode::FAILURE;
            }
        }
        snapshot = Some(planner.export_policy(vec![
            ("trained.distribution".to_string(), "synthetic".to_string()),
            ("trained.systems".to_string(), (index + 1).to_string()),
            (
                "trained.episodes_per_system".to_string(),
                parsed.episodes_per_system.to_string(),
            ),
            ("trained.seed".to_string(), parsed.seed.to_string()),
        ]));
    }
    let snapshot = snapshot.expect("at least one system trains");
    if let Err(err) = snapshot.save(&parsed.out) {
        eprintln!("cannot save policy to `{}`: {err}", parsed.out);
        return ExitCode::FAILURE;
    }
    eprintln!(
        "saved generalist policy to `{}` (checksum {:#018x})",
        parsed.out,
        snapshot.checksum(),
    );
    ExitCode::SUCCESS
}

/// Strips a `--log-level <filter>` / `--log-level=<filter>` flag from
/// `args` and applies it, overriding whatever `RLP_LOG` set. Handled
/// before mode dispatch so the flag works for single runs and sweeps
/// alike.
fn apply_log_level_flag(args: &mut Vec<String>) -> Result<(), String> {
    let Some(index) = args
        .iter()
        .position(|a| a == "--log-level" || a.starts_with("--log-level="))
    else {
        return Ok(());
    };
    let raw = args.remove(index);
    let value = match raw.strip_prefix("--log-level=") {
        Some(inline) => inline.to_string(),
        None => {
            if index >= args.len() {
                return Err("--log-level needs a value".to_string());
            }
            args.remove(index)
        }
    };
    let filter =
        rlp_obs::Level::parse_filter(&value).map_err(|e| format!("invalid --log-level: {e}"))?;
    rlp_obs::set_max_level(filter);
    Ok(())
}

fn main() -> ExitCode {
    // Environment first (`RLP_LOG`, `RLP_METRICS`, `RLP_TRACE`), then an
    // explicit `--log-level` flag overrides the environment. The CLI
    // defaults to everything off: solves stay silent unless asked.
    if let Err(e) = rlp_obs::init_from_env() {
        eprintln!("{e}");
        return ExitCode::from(2);
    }
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = apply_log_level_flag(&mut args) {
        eprintln!("{e}");
        return usage();
    }
    if args.first().map(String::as_str) == Some("sweep") {
        return run_sweep(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("train-generalist") {
        return run_train_generalist(&args[1..]);
    }

    let mut json = false;
    let mut warm_start = false;
    let mut train_parallel: Option<usize> = None;
    let mut policy: Option<String> = None;
    let mut save_policy: Option<String> = None;
    let mut positional: Vec<&String> = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let Some(rest) = arg.strip_prefix("--") else {
            positional.push(arg);
            continue;
        };
        let (flag, inline) = match rest.split_once('=') {
            Some((flag, value)) => (flag, Some(value.to_string())),
            None => (rest, None),
        };
        match flag {
            "json" | "warm-start" => {
                if inline.is_some() {
                    eprintln!("--{flag} takes no value");
                    return usage();
                }
                if flag == "json" {
                    json = true;
                } else {
                    warm_start = true;
                }
            }
            "train-parallel" => {
                let value = match inline.or_else(|| iter.next().cloned()) {
                    Some(value) => value,
                    None => {
                        eprintln!("--train-parallel needs a value");
                        return usage();
                    }
                };
                train_parallel = match value.parse::<usize>() {
                    Ok(n) if n > 0 => Some(n),
                    _ => {
                        eprintln!(
                            "invalid rollout parallelism `{value}`: expected a positive integer"
                        );
                        return usage();
                    }
                };
            }
            "policy" | "save-policy" => {
                let value = match inline.or_else(|| iter.next().cloned()) {
                    Some(value) if !value.is_empty() => value,
                    _ => {
                        eprintln!("--{flag} needs a non-empty path");
                        return usage();
                    }
                };
                if flag == "policy" {
                    policy = Some(value);
                } else {
                    save_policy = Some(value);
                }
            }
            other => {
                eprintln!("unknown flag `--{other}`");
                return usage();
            }
        }
    }
    if !(2..=3).contains(&positional.len()) {
        return usage();
    }

    let Some(system) = system_by_name(positional[0]) else {
        eprintln!("unknown system `{}`", positional[0]);
        return usage();
    };
    let (method, thermal) = match method_by_name(positional[1], policy.as_deref()) {
        Ok(loaded) => loaded,
        Err(reason) => {
            eprintln!("{reason}");
            return usage();
        }
    };
    // Saving weights only makes sense for a run that trains them.
    if save_policy.is_some() && !matches!(method, Method::Rl { .. } | Method::RlRnd { .. }) {
        eprintln!("--save-policy needs an RL method (rl or rl-rnd)");
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

    let mut builder = FloorplanRequest::builder()
        .system(system)
        .method(method)
        .thermal(thermal)
        .budget(Budget::Evaluations(budget));
    if let Some(train_parallel) = train_parallel {
        builder = builder.parallel_envs(train_parallel);
    }
    if let Some(path) = save_policy {
        builder = builder.save_policy(path);
    }
    builder = builder.warm_start(warm_start);
    let request = match builder.build() {
        Ok(request) => request,
        Err(err) => {
            eprintln!("invalid request: {err}");
            return ExitCode::from(2);
        }
    };

    let outcome = match request.solve() {
        Ok(outcome) => outcome,
        Err(err) => {
            eprintln!("solve failed: {err}");
            return ExitCode::FAILURE;
        }
    };

    if json {
        println!("{}", outcome_json(request.system(), &outcome));
    } else {
        eprintln!(
            "{}: {} candidate floorplans in {:.2?}",
            request.method().display_name(),
            outcome.evaluations,
            outcome.runtime
        );
        println!(
            "reward {:.4} | wirelength {:.0} mm | peak temperature {:.2} C",
            outcome.breakdown.reward,
            outcome.breakdown.wirelength_mm,
            outcome.breakdown.max_temperature_c
        );
        println!("{}", placement_json(request.system(), &outcome.placement));
    }
    ExitCode::SUCCESS
}
