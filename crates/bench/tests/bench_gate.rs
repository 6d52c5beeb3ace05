//! `bench_gate check` reads its threshold in both flag spellings.

use std::process::Command;

#[test]
fn check_takes_the_threshold_in_both_spellings() {
    let baseline = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_baseline.json");
    for threshold in [
        &["--max-regression-pct", "5"][..],
        &["--max-regression-pct=5"],
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_bench_gate"))
            .args(["check", baseline, baseline])
            .args(threshold)
            .output()
            .expect("bench_gate runs");
        assert!(
            output.status.success(),
            "{threshold:?}: {}",
            String::from_utf8_lossy(&output.stderr)
        );
    }
}
