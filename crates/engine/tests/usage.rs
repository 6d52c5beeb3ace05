//! `rlplanner_cli` usage errors: exit status 2, with a first stderr line
//! that names the offending argument.

use std::process::Command;

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
