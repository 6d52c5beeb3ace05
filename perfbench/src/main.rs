//! `perfbench` — the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <cold_solve|warm_solve|hotspot_anneal|serve_loop> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload through the public crate APIs for `--seconds`,
//! generating every input from `--seed`, checks every output, prints a
//! human-readable summary on stderr and, as the last line of stdout, one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` they
//! are the per-layer ones, measured by a separate traced run (see
//! `perfbench/README.md`).

mod checks;
mod cold;
mod hotspot;
mod metrics;
mod probes;
mod serve;
mod stats;
mod trace;
mod warm;
mod workload;

use crate::metrics::{END_TO_END, PER_LAYER};
use crate::workload::{Args, Report};
use std::process::ExitCode;

/// Every runnable workload. `BENCHMARK.json` gates all but
/// `hotspot_anneal`, whose run-to-run spread on a shared 2-core host is
/// wider than the largest allowed regression bound (see the README).
pub const WORKLOADS: [&str; 4] = ["cold_solve", "warm_solve", "hotspot_anneal", "serve_loop"];

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut iter = raw.iter();
    while let Some(flag) = iter.next() {
        let value = iter
            .next()
            .ok_or_else(|| format!("flag `{flag}` needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => return Err(format!("unknown workload `{value}`")),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| "invalid --seed")?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| "invalid --seconds")?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds must be a non-negative number".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                });
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        smoke: false,
    })
}

/// Runs the workload named in `args`.
pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = match args.workload.as_str() {
        "cold_solve" => cold::run(args),
        "warm_solve" => warm::run(args),
        "hotspot_anneal" => hotspot::run(args),
        "serve_loop" => serve::run(args),
        other => Err(format!("unknown workload `{other}`")),
    }?;
    report.finish_layers();
    Ok(report)
}

/// Peak resident set of this process in MB (`VmHWM`), 0 where the kernel
/// does not report it.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The end-to-end metrics of an untraced run, in [`END_TO_END`] order.
pub fn end_to_end(report: &Report) -> Vec<f64> {
    let walls: Vec<f64> = report
        .ops
        .iter()
        .filter(|op| !op.traced)
        .map(|op| op.wall.as_secs_f64() * 1e3)
        .collect();
    let busy_s = report
        .concurrent_s
        .unwrap_or(walls.iter().sum::<f64>() / 1e3);
    let quality = |f: fn(&checks::Quality) -> f64| {
        stats::mean(&report.quality.iter().map(f).collect::<Vec<_>>())
    };
    END_TO_END
        .iter()
        .map(|m| match m.name {
            "setup_s" => stats::median(&report.setup_s),
            "op_p50_ms" => stats::nearest_rank(&walls, 0.5),
            "op_p90_ms" => stats::nearest_rank(&walls, stats::tail_quantile(walls.len())),
            "ops_per_s" => stats::ratio(walls.len() as f64, busy_s),
            "neg_reward_mean" => quality(|q| q.neg_reward),
            "peak_temp_c_mean" => quality(|q| q.peak_temp_c),
            "wirelength_mm_mean" => quality(|q| q.wirelength_mm),
            "fast_grid_mae_k" => quality(|q| q.mae_k),
            "peak_rss_mb" => peak_rss_mb(),
            other => unreachable!("no end-to-end metric `{other}`"),
        })
        .collect()
}

/// The result line: every metric of the mode, with its unit.
fn result_json(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[(&str, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(reason) => {
            eprintln!("{reason}");
            return usage();
        }
    };
    let report = match run(&args) {
        Ok(report) => report,
        Err(reason) => {
            eprintln!("{}: {reason}", args.workload);
            return ExitCode::FAILURE;
        }
    };

    let mut metrics: Vec<(&str, f64, &str)> = if args.trace {
        PER_LAYER
            .iter()
            .map(|m| (m.name, report.layers.p50(m.name), m.unit))
            .collect()
    } else {
        END_TO_END
            .iter()
            .zip(end_to_end(&report))
            .map(|(m, value)| (m.name, value, m.unit))
            .collect()
    };
    // A non-finite figure is a broken output, never a number to compare.
    let mut tally = report.tally;
    for (name, value, _) in &mut metrics {
        // Adding 0.0 turns an empty sum's -0.0 into 0.0.
        *value += 0.0;
        if !value.is_finite() {
            eprintln!("metric {name} is not finite");
            tally.check(false);
            *value = 0.0;
        }
    }

    report::summary(&args, &report, &metrics, tally);
    if args.trace {
        let path = std::path::PathBuf::from(".bench_out")
            .join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
        match report.write_trace(&path) {
            Ok(()) => eprintln!("spans written to {}", path.display()),
            Err(e) => eprintln!("cannot write spans to {}: {e}", path.display()),
        }
    }
    println!(
        "{}",
        result_json(
            tally.failed() == 0,
            tally.attempted,
            tally.failed(),
            &metrics
        )
    );
    ExitCode::SUCCESS
}

mod report {
    //! The human-readable summary on stderr.

    use super::*;

    pub fn summary(
        args: &Args,
        report: &Report,
        metrics: &[(&str, f64, &str)],
        tally: stats::Tally,
    ) {
        let untraced = report.ops.iter().filter(|op| !op.traced).count();
        let traced = report.ops.len() - untraced;
        eprintln!(
            "{} seed {}: {untraced} op(s) untraced, {traced} traced, measured {:?} s; \
             set-up {:?} s",
            args.workload, args.seed, report.measured_s, report.setup_s
        );
        eprintln!(
            "attempted {}, failed ops {}, failed checks {}, error_rate {}",
            tally.attempted,
            tally.failed_ops,
            tally.failed_checks,
            tally.error_rate()
        );
        if args.trace {
            for (m, (name, value, unit)) in PER_LAYER.iter().zip(metrics) {
                eprintln!(
                    "  {name:<30} {value:>14.4} {unit:<6} {:<6} {}",
                    m.better, m.moves
                );
            }
            eprintln!("self time per traced op, p50 ms, of the spans the benchmark recorded:");
            for (name, samples) in report.layers.self_times() {
                let p50 = stats::median(samples);
                eprintln!("  {name:<30} {p50:>14.4} over {} op(s)", samples.len());
            }
            let latency = report.layers.p50("mean.latency_ms");
            if latency > 0.0 {
                eprintln!("serve_loop mean client latency {latency:.4} ms =");
                for phase in ["queue", "solve", "serialize", "flush"] {
                    let mean = report.layers.p50(&format!("mean.serve.{phase}_ms"));
                    eprintln!("  {phase:<12} {mean:>10.4} ms");
                }
                let rest = report.layers.p50("serve.unattributed_ms");
                eprintln!(
                    "  {:<12} {rest:>10.4} ms (outside every server-side phase)",
                    "outside"
                );
            }
        } else {
            for (m, (name, value, unit)) in END_TO_END.iter().zip(metrics) {
                eprintln!(
                    "  {name:<30} {value:>14.4} {unit:<6} {} is better, bound {}",
                    m.better, m.bound
                );
            }
            eprintln!(
                "  ({untraced} op samples; quality over the first {} op(s))",
                report.quality.len()
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal-length run: one set-up, the shortest measuring phases.
    fn smoke(workload: &str, trace: bool) -> Report {
        let args = Args {
            workload: workload.to_string(),
            seed: 3,
            seconds: 0.0,
            trace,
            smoke: true,
        };
        let report = run(&args).unwrap_or_else(|e| panic!("{workload}: {e}"));
        assert!(report.tally.attempted > 0, "{workload}: no operation ran");
        assert_eq!(report.tally.failed(), 0, "{workload}: {:?}", report.tally);
        report
    }

    #[test]
    fn every_workload_passes_a_smoke_run() {
        for workload in WORKLOADS {
            let report = smoke(workload, false);
            let values = end_to_end(&report);
            for (m, value) in END_TO_END.iter().zip(values) {
                assert!(
                    value.is_finite() && value > 0.0,
                    "{workload}: {} = {value}",
                    m.name
                );
            }

            let report = smoke(workload, true);
            assert!(report.ops.iter().any(|op| op.traced));
            for m in PER_LAYER {
                let value = report.layers.p50(m.name);
                assert!(value.is_finite(), "{workload}: {} = {value}", m.name);
            }
            // Attribution: per-op self times plus the unattributed remainder
            // are the op's wall-clock, so the remainder is a share in [0, 100].
            let unattributed = report.layers.get("trace.unattributed_pct");
            assert!(!unattributed.is_empty());
            assert!(unattributed.iter().all(|p| (0.0..=100.0).contains(p)));
            if workload == "serve_loop" {
                let phases: f64 = ["queue", "solve", "serialize", "flush"]
                    .iter()
                    .map(|p| report.layers.p50(&format!("mean.serve.{p}_ms")))
                    .sum();
                let rest = report.layers.p50("serve.unattributed_ms");
                let latency = report.layers.p50("mean.latency_ms");
                assert!((phases + rest - latency).abs() < 1e-9 * latency.max(1.0));
                assert!(report.layers.p50("serve.solve_ms") > 0.0);
            }
            if workload == "cold_solve" {
                assert_eq!(report.layers.p50("thermal.characterize_count"), 1.0);
                assert!(report.layers.p50("thermal.characterize_ms") > 0.0);
            }
        }
    }

    #[test]
    fn arguments_are_validated() {
        let parse = |line: &str| {
            parse_args(
                &line
                    .split_whitespace()
                    .map(str::to_string)
                    .collect::<Vec<_>>(),
            )
        };
        let args = parse("--workload warm_solve --seed 4 --seconds 10 --trace 1").unwrap();
        assert_eq!((args.seed, args.seconds, args.trace), (4, 10.0, true));
        assert!(parse("--workload nope --seed 4 --seconds 10 --trace 1").is_err());
        assert!(parse("--workload warm_solve --seed 4 --seconds 10 --trace 2").is_err());
        assert!(parse("--workload warm_solve --seed 4 --seconds 10").is_err());
        assert!(parse("--workload warm_solve --seed x --seconds 10 --trace 0").is_err());
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let line = result_json(true, 3, 0, &[("op_p50_ms", 1.5, "ms")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"op_p50_ms\": {\"value\": 1.5, \"unit\": \"ms\"}}}"
        );
    }
}
