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
//!              produces the byte-identical result, only faster; sets
//!              the request's `parallel_envs` (default 1)
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
//!              `RLP_TRACE=<path>` is also honoured, and `RLP_METRICS=1`
//!              prints the run's `rlplanner.metrics/v1` snapshot as one
//!              line on stderr when the process ends)
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
//! when a solve fails (single-run) or any sweep run fails. A stdout
//! closed by its reader (`| head`) ends the run quietly with 0.

use rlp_benchmarks::{system_by_name, SyntheticConfig, SyntheticSystemGenerator};
use rlp_engine::{campaign_json, CampaignEngine, CampaignMethod, CampaignSpec, JsonlSink};
use rlplanner::cli::{self, Scanner};
use rlplanner::report::{outcome_json, placement_json};
use rlplanner::{errln, outln};
use rlplanner::{
    search_run, Budget, FloorplanRequest, Method, PolicyFile, RewardConfig, RlPlanner,
    RlPlannerConfig,
};
use std::process::ExitCode;

const USAGE: &str = "usage: rlplanner_cli <multi-gpu|cpu-dram|ascend910|case1..case5> \
         <rl|rl-rnd|sa-hotspot|sa-fast|gradient|pretrained> [budget] \
         [--train-parallel <n>] [--warm-start] [--policy <path>] \
         [--save-policy <path>] [--json] [--log-level <filter>]\n\
         \x20      rlplanner_cli sweep [--systems <s,...>] [--methods <m,...>] \
         [--seeds <n,...>] [--budget <n>] [--parallel <n>] \
         [--train-parallel <n>] [--warm-start] [--policy <path>] \
         [--stream <path>] [--json] [--log-level <filter>]\n\
         \x20      rlplanner_cli train-generalist --out <path> [--systems <n>] \
         [--episodes-per-system <n>] [--seed <n>] [--log-level <filter>]";

/// What a command line asks for.
enum Mode {
    Run {
        request: Box<FloorplanRequest>,
        json: bool,
    },
    Sweep(Box<SweepArgs>),
    TrainGeneralist(GeneralistArgs),
}

fn parse_run_args(scan: &mut Scanner) -> Result<Mode, String> {
    let mut json = false;
    let mut warm_start = false;
    let mut train_parallel = None;
    let mut policy = None;
    let mut save_policy = None;
    let mut positional = Vec::new();
    while let Some(arg) = scan.next_arg()? {
        match arg.flag() {
            Some("json") => json = true,
            Some("warm-start") => warm_start = true,
            Some("train-parallel") => train_parallel = Some(scan.positive("rollout parallelism")?),
            Some("policy") => policy = Some(scan.path()?),
            Some("save-policy") => save_policy = Some(scan.path()?),
            Some(_) => return Err(arg.unexpected()),
            None => positional.push(arg.to_string()),
        }
    }
    let mut builder = cli::named_request(&positional, policy.as_deref())?.warm_start(warm_start);
    if let Some(train_parallel) = train_parallel {
        builder = builder.parallel_envs(train_parallel);
    }
    if let Some(path) = save_policy {
        builder = builder.save_policy(path);
    }
    let request = builder
        .build()
        .map_err(|err| format!("invalid request: {err}"))?;
    // Saving weights only makes sense for a run that trains them.
    if request.save_policy().is_some()
        && !matches!(request.method(), Method::Rl { .. } | Method::RlRnd { .. })
    {
        return Err("--save-policy needs an RL method (rl or rl-rnd)".to_string());
    }
    Ok(Mode::Run {
        request: Box::new(request),
        json,
    })
}

fn run(request: &FloorplanRequest, json: bool) -> ExitCode {
    let outcome = match request.solve() {
        Ok(outcome) => outcome,
        Err(err) => {
            errln!("solve failed: {err}");
            return ExitCode::FAILURE;
        }
    };

    if json {
        outln!("{}", outcome_json(request.system(), &outcome));
    } else {
        errln!(
            "{}: {} candidate floorplans in {:.2?}",
            request.method().display_name(),
            outcome.evaluations,
            outcome.runtime
        );
        outln!(
            "reward {:.4} | wirelength {:.0} mm | peak temperature {:.2} C",
            outcome.breakdown.reward,
            outcome.breakdown.wirelength_mm,
            outcome.breakdown.max_temperature_c
        );
        outln!("{}", placement_json(request.system(), &outcome.placement));
    }
    ExitCode::SUCCESS
}

/// Parsed sweep options.
struct SweepArgs {
    spec: CampaignSpec,
    stream: Option<String>,
    json: bool,
}

fn parse_sweep_args(scan: &mut Scanner) -> Result<Mode, String> {
    let (mut systems, mut methods, mut seeds) = ("case1".to_string(), "rl".to_string(), vec![7]);
    let (mut parallel, mut stream, mut policy, mut json) = (1, None, None, false);
    let mut base = FloorplanRequest::builder().budget(Budget::Evaluations(50));
    while let Some(arg) = scan.next_arg()? {
        match arg.flag() {
            Some("json") => json = true,
            Some("warm-start") => base = base.warm_start(true),
            Some("systems") => systems = scan.value()?,
            Some("methods") => methods = scan.value()?,
            Some("seeds") => {
                seeds = scan
                    .value()?
                    .split(',')
                    .map(cli::seed)
                    .collect::<Result<_, _>>()?;
            }
            Some("budget") => base = base.budget(Budget::Evaluations(scan.positive("budget")?)),
            Some("parallel") => parallel = scan.positive("parallelism")?,
            Some("train-parallel") => {
                base = base.parallel_envs(scan.positive("rollout parallelism")?);
            }
            Some("stream") => stream = Some(scan.path()?),
            Some("policy") => policy = Some(scan.path()?),
            _ => return Err(arg.unexpected()),
        }
    }
    let mut spec = CampaignSpec::builder()
        .base(base)
        .parallelism(parallel)
        .seeds(seeds);
    for name in systems.split(',') {
        spec = spec.system(system_by_name(name).ok_or_else(|| format!("unknown system `{name}`"))?);
    }
    for name in methods.split(',') {
        let (method, thermal) = cli::method_by_name(name, policy.as_deref())?;
        spec = spec.method(CampaignMethod::new(name, method, thermal));
    }
    let spec = spec
        .build()
        .map_err(|err| format!("invalid sweep: {err}"))?;
    Ok(Mode::Sweep(Box::new(SweepArgs { spec, stream, json })))
}

fn run_sweep(parsed: &SweepArgs) -> ExitCode {
    let spec = &parsed.spec;
    let engine = CampaignEngine::new();
    let report = if let Some(path) = &parsed.stream {
        let mut sink = match JsonlSink::open(path) {
            Ok(sink) => sink,
            Err(err) => {
                errln!("cannot open stream file `{path}`: {err}");
                return ExitCode::FAILURE;
            }
        };
        if sink.prior_len() > 0 {
            errln!(
                "resuming from {} record(s) already in `{path}`",
                sink.prior_len()
            );
        }
        match engine.run_streamed(spec, &mut sink) {
            Ok(report) => report,
            Err(err) => {
                errln!("sweep failed: {err}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        match engine.run(spec) {
            Ok(report) => report,
            Err(err) => {
                errln!("sweep failed: {err}");
                return ExitCode::FAILURE;
            }
        }
    };
    if parsed.json {
        outln!("{}", campaign_json(&report));
    } else {
        errln!(
            "{} runs ({} resumed) on {} worker(s) in {:.2?}; cache: {} hit(s), {} characterisation(s) ({:.2?})",
            report.runs.len() + report.failures.len(),
            report.resumed_runs,
            report.parallelism,
            report.wall_clock,
            report.cache.hits,
            report.cache.misses,
            report.cache.characterization_time,
        );
        outln!(
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
            outln!(
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
        errln!("{} run(s) failed:", report.failures.len());
        for failure in &report.failures {
            errln!(
                "  run {} `{}` on `{}` (seed {}): {}",
                failure.index,
                failure.method,
                failure.system,
                failure.seed,
                failure.error
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

fn parse_generalist_args(scan: &mut Scanner) -> Result<GeneralistArgs, String> {
    let (mut out, mut systems, mut episodes_per_system, mut seed) = (None, 8, 60, 7);
    while let Some(arg) = scan.next_arg()? {
        match arg.flag() {
            Some("out") => out = Some(scan.path()?),
            Some("systems") => systems = scan.positive("system count")?,
            Some("episodes-per-system") => episodes_per_system = scan.positive("episode count")?,
            Some("seed") => seed = scan.seed()?,
            _ => return Err(arg.unexpected()),
        }
    }
    let out = out.ok_or("train-generalist needs --out <path>")?;
    Ok(GeneralistArgs {
        out,
        systems,
        episodes_per_system,
        seed,
    })
}

/// Trains one policy across the randomized synthetic system distribution
/// and saves it as a `rlplanner.policy/v1` file: the "train once" half of
/// train once, serve forever. The weights carry from system to system via
/// the in-memory policy snapshot (all systems share the default 16×16
/// placement grid, so the network shapes are equal), and the saved file
/// records the distribution provenance in its metadata.
fn run_train_generalist(parsed: &GeneralistArgs) -> ExitCode {
    let systems = SyntheticSystemGenerator::new(SyntheticConfig::default(), parsed.seed)
        .generate_batch(parsed.systems);
    // The `rl` backend, which `pretrained` solves share.
    let (_, thermal) = cli::method_by_name("rl", None).expect("`rl` is a CLI method");
    let mut snapshot: Option<PolicyFile> = None;
    for (index, system) in systems.into_iter().enumerate() {
        let name = system.name().to_string();
        let chiplets = system.chiplet_count();
        let (analyzer, _prep) = match thermal.build_prepared(&system) {
            Ok(built) => built,
            Err(err) => {
                errln!("thermal backend failed on `{name}`: {err}");
                return ExitCode::FAILURE;
            }
        };
        // Each system trains on its own deterministic stream; the carried
        // weights are the only cross-system state.
        let seed = parsed.seed.wrapping_add(index as u64);
        let mut planner = match RlPlanner::new(
            system,
            analyzer,
            RewardConfig::default(),
            RlPlannerConfig::default(),
            seed,
            false,
            1,
        ) {
            Ok(planner) => planner,
            Err(err) => {
                errln!("invalid training configuration on `{name}`: {err}");
                return ExitCode::FAILURE;
            }
        };
        if let Some(file) = &snapshot {
            if let Err(err) = planner.import_policy(file) {
                errln!("cannot carry weights into `{name}`: {err}");
                return ExitCode::FAILURE;
            }
        }
        let mut silent = |_, _, _| {};
        let budget = Some(Budget::Evaluations(parsed.episodes_per_system));
        match planner.train(None, &mut search_run(&Method::rl(), budget, &mut silent)) {
            Ok(result) => {
                errln!(
                    "[{}/{}] {name}: {chiplets} chiplets, {} episodes, best reward {:.4}",
                    index + 1,
                    parsed.systems,
                    result.episodes_run,
                    result.best_breakdown.reward,
                );
            }
            Err(err) => {
                errln!("training stalled on `{name}`: {err}");
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
        errln!("cannot save policy to `{}`: {err}", parsed.out);
        return ExitCode::FAILURE;
    }
    errln!(
        "saved generalist policy to `{}` (checksum {:#018x})",
        parsed.out,
        snapshot.checksum(),
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    // Environment first (`RLP_LOG`, `RLP_METRICS`, `RLP_TRACE`), then an
    // explicit `--log-level` flag overrides the environment. The CLI
    // defaults to everything off: solves stay silent unless asked.
    if let Err(e) = rlp_obs::init_from_env() {
        errln!("{e}");
        return ExitCode::from(2);
    }
    let mut scan = Scanner::new(std::env::args().skip(1)).with_log_level();
    let mode = scan
        .subcommand(&["sweep", "train-generalist"])
        .and_then(|mode| match mode {
            Some("sweep") => parse_sweep_args(&mut scan),
            Some(_) => parse_generalist_args(&mut scan).map(Mode::TrainGeneralist),
            None => parse_run_args(&mut scan),
        });
    let code = match mode {
        Ok(Mode::Run { request, json }) => run(&request, json),
        Ok(Mode::Sweep(args)) => run_sweep(&args),
        Ok(Mode::TrainGeneralist(args)) => run_train_generalist(&args),
        Err(reason) => cli::usage_error(&reason, USAGE),
    };
    // What the run collected, as one `rlplanner.metrics/v1` line; stdout
    // stays the run's own.
    if rlp_obs::metrics_enabled() {
        errln!("{}", rlp_obs::registry().snapshot().render_json());
    }
    code
}
