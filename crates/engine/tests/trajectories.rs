//! Fixed-seed trajectory pins for the CLI's default solves.
//!
//! Each case runs `rlplanner_cli <system> <method> <budget> --json` and
//! compares the outcome document, wall-clock lines aside, byte for byte
//! with a checked-in file under `tests/data/`. The documents carry every
//! candidate's reward in their telemetry, so any change to move generation,
//! legality checks, legalisation or the observation tensors that re-keys a
//! trajectory fails here, not only a change to the final placement.

use std::process::Command;

/// Lines holding wall-clock figures: they vary run to run (the VOLATILE
/// fields of `docs/SCHEMAS.md`).
const VOLATILE: [&str; 3] = ["\"runtime_s\"", "\"thermal_prep\"", "\"episodes_per_s\""];

fn assert_pinned(system: &str, method: &str, budget: &str) {
    let output = Command::new(env!("CARGO_BIN_EXE_rlplanner_cli"))
        .args([system, method, budget, "--json"])
        .output()
        .expect("the CLI runs");
    assert!(
        output.status.success(),
        "{system} {method} {budget} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let document = String::from_utf8(output.stdout).expect("the document is UTF-8");
    let document: Vec<&str> = document
        .lines()
        .filter(|line| !VOLATILE.iter().any(|key| line.contains(key)))
        .collect();
    let name = format!("trajectory_{system}_{method}_{budget}.outcome.json");
    let path = format!("{}/../../tests/data/{name}", env!("CARGO_MANIFEST_DIR"));
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{name}: {e}"));
    let expected: Vec<&str> = expected.lines().collect();
    assert_eq!(document, expected, "{name} drifted");
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
