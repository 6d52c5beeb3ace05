//! `bench_gate` — assemble and gate `rlplanner.bench/v1` reports.
//!
//! ```text
//! bench_gate collect <out.json> <shards.jsonl>...
//! bench_gate check <baseline.json> <current.json> [--max-regression-pct <p>]
//! ```
//!
//! `collect` merges the JSONL shards that `cargo bench -- --save-json`
//! appended into one documented `rlplanner.bench/v1` report at `out.json`.
//!
//! `check` compares the current report against a checked-in baseline and
//! fails (exit 1) when any benchmark's median regressed by more than the
//! threshold (default 25%) or a baseline benchmark disappeared; benchmarks
//! new in the current report pass until the baseline is regenerated
//! (`collect` over a fresh run, committed as the new baseline). Exit codes:
//! 0 pass, 1 gate failure, 2 usage or parse error.

use rlp_bench::report::{compare, parse_report, parse_shards, render_report};
use rlplanner::cli::{self, Scanner};
use rlplanner::errln;
use std::process::ExitCode;

const USAGE: &str = "usage: bench_gate collect <out.json> <shards.jsonl>...\n\
         \x20      bench_gate check <baseline.json> <current.json> [--max-regression-pct <p>]";

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|err| format!("cannot read `{path}`: {err}"))
}

fn collect(out: &str, shards: &[String]) -> ExitCode {
    let mut records = Vec::new();
    for shard in shards {
        let text = match read(shard) {
            Ok(text) => text,
            Err(err) => {
                errln!("{err}");
                return ExitCode::from(2);
            }
        };
        match parse_shards(&text) {
            Ok(mut parsed) => records.append(&mut parsed),
            Err(err) => {
                errln!("`{shard}`: {err}");
                return ExitCode::from(2);
            }
        }
    }
    if let Err(err) = std::fs::write(out, render_report(&records) + "\n") {
        errln!("cannot write `{out}`: {err}");
        return ExitCode::from(2);
    }
    errln!("wrote {} benchmark(s) to {out}", records.len());
    ExitCode::SUCCESS
}

fn check(baseline_path: &str, current_path: &str, max_regression_pct: f64) -> ExitCode {
    let parse = |path: &str| -> Result<_, String> {
        parse_report(&read(path)?).map_err(|err| format!("`{path}`: {err}"))
    };
    let (baseline, current) = match (parse(baseline_path), parse(current_path)) {
        (Ok(baseline), Ok(current)) => (baseline, current),
        (Err(err), _) | (_, Err(err)) => {
            errln!("{err}");
            return ExitCode::from(2);
        }
    };
    for record in &current {
        let against =
            baseline
                .iter()
                .find(|b| b.id == record.id)
                .map_or("new, not gated".to_string(), |b| {
                    format!(
                        "baseline {:.0} ns, {:+.1}%",
                        b.median_ns,
                        (record.median_ns / b.median_ns.max(f64::MIN_POSITIVE) - 1.0) * 100.0
                    )
                });
        errln!(
            "{:<55} median {:>12.0} ns ({against})",
            record.id,
            record.median_ns
        );
    }
    let findings = compare(&baseline, &current, max_regression_pct / 100.0);
    if findings.is_empty() {
        errln!(
            "bench gate passed: {} benchmark(s) within {max_regression_pct}% of the baseline",
            baseline.len()
        );
        return ExitCode::SUCCESS;
    }
    errln!(
        "bench gate FAILED ({} finding(s), threshold {max_regression_pct}%):",
        findings.len()
    );
    for finding in &findings {
        errln!("  {finding}");
    }
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let mut scan = Scanner::new(std::env::args().skip(1));
    let run = scan.subcommand(&["collect", "check"]).and_then(|mode| {
        let mode = mode.ok_or("expected `collect` or `check`")?;
        let mut paths = Vec::new();
        let mut max_regression_pct = 25.0;
        while let Some(arg) = scan.next_arg()? {
            match arg.flag() {
                Some("max-regression-pct") if mode == "check" => {
                    max_regression_pct = scan
                        .value()?
                        .parse::<f64>()
                        .ok()
                        .filter(|pct| pct.is_finite() && *pct >= 0.0)
                        .ok_or("--max-regression-pct needs a non-negative number")?;
                }
                None if mode == "collect" || paths.len() < 2 => paths.push(arg.to_string()),
                _ => return Err(arg.unexpected()),
            }
        }
        match (mode, paths.as_slice()) {
            ("collect", [out, shards @ ..]) if !shards.is_empty() => Ok(collect(out, shards)),
            ("check", [baseline, current]) => Ok(check(baseline, current, max_regression_pct)),
            _ => Err(format!("`{mode}` is missing a path")),
        }
    });
    run.unwrap_or_else(|reason| cli::usage_error(&reason, USAGE))
}
