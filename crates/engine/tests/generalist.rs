//! `rlplanner_cli train-generalist`: the weights it carries from system to
//! system and saves are pinned to the byte.

use std::process::Command;

/// Checksum of the policy `train-generalist --systems 2
/// --episodes-per-system 12 --seed 3` saves: two collect/update rounds per
/// system (batches of 8 and 4), measured before the trailing PPO update
/// moved into the export.
const GENERALIST_CHECKSUM: u64 = 0x36f9_106f_1295_7cc7;

#[test]
fn train_generalist_saves_the_pinned_policy() {
    let path = std::env::temp_dir().join(format!("rlp-generalist-{}.policy", std::process::id()));
    let output = Command::new(env!("CARGO_BIN_EXE_rlplanner_cli"))
        .args([
            "train-generalist",
            "--systems",
            "2",
            "--episodes-per-system",
            "12",
        ])
        .args(["--seed", "3", "--out"])
        .arg(&path)
        .output()
        .expect("the CLI runs");
    assert!(output.status.success(), "{output:?}");
    let checksum = rlplanner::PolicyFile::load(&path).unwrap().checksum();
    std::fs::remove_file(&path).ok();
    assert_eq!(
        checksum, GENERALIST_CHECKSUM,
        "generalist checksum {checksum:#018x}"
    );
}
