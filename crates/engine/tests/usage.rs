//! `rlplanner_cli` usage errors: exit status 2, with a first stderr line
//! that names the offending argument.

use std::process::{Command, Stdio};

#[test]
fn usage_errors_exit_2_and_name_the_argument() {
    for (args, reason) in [
        (&["sweep", "case1"][..], "unexpected argument `case1`"),
        // `--log-level` may precede the mode word.
        (
            &["--log-level", "off", "sweep", "--budget"],
            "flag `--budget` needs a value",
        ),
        (
            &["case1", "rl", "abc"],
            "invalid budget `abc`: expected a positive integer",
        ),
        (
            &["case1", "sa-fast", "--save-policy", "p.policy"],
            "--save-policy needs an RL method (rl or rl-rnd)",
        ),
        (&["train-generalist"], "train-generalist needs --out <path>"),
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_rlplanner_cli"))
            .args(args)
            .output()
            .expect("the CLI runs");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{args:?}: {stderr}");
        assert_eq!(stderr.lines().next(), Some(reason), "{args:?}");
    }
}

/// `RLP_METRICS=1` ends the run with its `rlplanner.metrics/v1` snapshot as
/// one stderr line; without the variable no such line appears.
#[test]
fn rlp_metrics_prints_the_snapshot_on_stderr() {
    let snapshot_line = |metrics: Option<&str>| {
        let mut command = Command::new(env!("CARGO_BIN_EXE_rlplanner_cli"));
        command
            .args(["case1", "sa-fast", "40"])
            .env_remove("RLP_METRICS");
        if let Some(value) = metrics {
            command.env("RLP_METRICS", value);
        }
        let output = command.output().expect("the CLI runs");
        assert!(output.status.success(), "{output:?}");
        String::from_utf8_lossy(&output.stderr)
            .lines()
            .find(|line| line.starts_with("{ \"schema\": \"rlplanner.metrics/v1\""))
            .map(str::to_string)
    };
    assert_eq!(snapshot_line(None), None);

    let line = snapshot_line(Some("1")).expect("a metrics line on stderr");
    let snapshot = rlp_obs::json::Value::parse(&line).expect("the snapshot is JSON");
    let counter = |name: &str| {
        snapshot
            .get("counters")
            .and_then(|counters| counters.get(name))
            .and_then(|value| value.as_f64())
    };
    assert_eq!(counter("plan.solves"), Some(1.0));
    assert_eq!(counter("sa.moves.proposed"), Some(39.0));
    assert_eq!(counter("sa.evals.incremental"), Some(39.0));
    let characterizations = snapshot
        .get("histograms")
        .and_then(|histograms| histograms.get("thermal.characterization_ns"))
        .and_then(|histogram| histogram.get("count"))
        .and_then(|count| count.as_f64());
    assert_eq!(characterizations, Some(1.0));
}

/// A reader that goes away (`| head`) is no `Broken pipe` panic: the run
/// exits with its own status. The RL run trains before it writes, so the
/// pipes are closed by then.
#[test]
fn closed_pipes_exit_quietly() {
    for close_stderr in [false, true] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_rlplanner_cli"))
            .args(["case1", "rl", "20"])
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("the CLI runs");
        drop(child.stdout.take());
        if close_stderr {
            drop(child.stderr.take());
        }
        let output = child.wait_with_output().expect("the CLI exits");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(0), "{stderr}");
        assert!(!stderr.contains("panicked"), "{stderr}");
    }
}
