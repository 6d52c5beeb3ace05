//! `rlp_load print-request` prints the request a load run submits.

use rlplanner::{request_from_json, Method};
use std::process::Command;

#[test]
fn print_request_names_the_policy_of_a_pretrained_request() {
    let output = Command::new(env!("CARGO_BIN_EXE_rlp_load"))
        .args([
            "print-request",
            "case1",
            "pretrained",
            "--policy",
            "p.policy",
        ])
        .output()
        .expect("rlp_load runs");
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let document = String::from_utf8(output.stdout).expect("the document is UTF-8");
    let request = request_from_json(&document).expect("a request/v1 document");
    match request.method() {
        Method::Pretrained { config } => assert_eq!(config.policy_path, "p.policy"),
        other => panic!("expected a pretrained method, got `{}`", other.label()),
    }
}
