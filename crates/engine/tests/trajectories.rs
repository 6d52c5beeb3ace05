//! Fixed-seed trajectory pins for the CLI's default solves.
//!
//! Each case runs `rlplanner_cli <system> <method> <budget> --json` and
//! compares the outcome document, its `timing` member aside, with a
//! checked-in file under `tests/data/`: the document without that one
//! line. The documents carry every candidate's reward in their telemetry,
//! so any change to move generation, legality checks, legalisation or the
//! observation tensors that re-keys a trajectory fails here, not only a
//! change to the final placement.

use rlp_obs::json::Value;
use rlplanner::report::TIMING;
use std::process::Command;

fn assert_pinned(system: &str, method: &str, budget: &str) {
    assert_pinned_run(system, method, budget, false);
}

/// Pins one CLI run; a warm-started run (`--warm-start`) is pinned in the
/// file with the `_warm` suffix.
fn assert_pinned_run(system: &str, method: &str, budget: &str, warm_start: bool) {
    let mut args = vec![system, method, budget, "--json"];
    if warm_start {
        args.push("--warm-start");
    }
    let output = Command::new(env!("CARGO_BIN_EXE_rlplanner_cli"))
        .args(&args)
        .output()
        .expect("the CLI runs");
    assert!(
        output.status.success(),
        "{args:?} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let document = String::from_utf8(output.stdout).expect("the document is UTF-8");
    let suffix = if warm_start { "_warm" } else { "" };
    let name = format!("trajectory_{system}_{method}_{budget}{suffix}.outcome.json");
    let path = format!("{}/../../tests/data/{name}", env!("CARGO_MANIFEST_DIR"));
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{name}: {e}"));
    let parse = |text: &str| Value::parse(text).unwrap_or_else(|e| panic!("{name}: {e}"));
    assert_eq!(
        parse(&document).without(TIMING).render(),
        parse(&expected).render(),
        "{name} drifted"
    );
}

#[test]
fn sa_fast_trajectories_are_pinned() {
    assert_pinned("case3", "sa-fast", "600");
    assert_pinned("ascend910", "sa-fast", "600");
}

#[test]
fn gradient_trajectories_are_pinned() {
    assert_pinned("case3", "gradient", "60");
    assert_pinned("ascend910", "gradient", "60");
}

#[test]
fn rl_trajectory_is_pinned() {
    assert_pinned("case1", "rl", "4");
}

/// Warm-started runs: SA anneals from the presolve's placement, and RL
/// keeps the presolve as its best artifact while its candidate stream
/// starts from its own first episode.
#[test]
fn warm_started_trajectories_are_pinned() {
    assert_pinned_run("case1", "rl", "4", true);
    assert_pinned_run("case3", "sa-fast", "600", true);
}
