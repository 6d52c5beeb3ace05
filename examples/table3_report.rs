//! Table III — reward comparison on the five synthetic systems.
//!
//! Runs the same four methods as the Table I report on the five seeded
//! synthetic cases (Case1–Case5) and prints the reward of each, mirroring
//! the paper's Table III. The comparison runs as [`rlp_engine`] campaigns
//! against one shared characterisation cache, so the fast thermal model is
//! characterised exactly once per distinct package configuration (each
//! case sizes its own interposer, so that is once per case — shared by the
//! two RL variants and the fast-model SA baseline, where the pre-engine
//! code characterised three times per case). As in the paper, the SA
//! baselines receive the same wall-clock budget as the RLPlanner training
//! run. Budgets are reduced; set `RLP_EPISODES` (default 120) to change
//! them.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example table3_report
//! ```

use rlp_benchmarks::synthetic_cases;
use rlp_engine::{CampaignEngine, CampaignMethod, CampaignSpec};
use rlplanner::cli::method_by_name;
use rlplanner::{Budget, FloorplanRequest};
use std::time::Duration;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let episodes = env_usize("RLP_EPISODES", 120);
    // The CLI's method table: each column runs what `rlplanner_cli
    // <system> <method>` runs.
    let column = |label: &str, name: &str| {
        let (method, thermal) = method_by_name(name, None).expect("a CLI method");
        CampaignMethod::new(label, method, thermal)
    };
    let methods = [
        "RLPlanner",
        "RLPlanner (RND)",
        "TAP-2.5D (HotSpot)",
        "TAP-2.5D (fast model)",
    ];

    println!("== Table III: reward on 5 synthetic systems ==");
    println!(
        "budget: {episodes} RL episodes per case; SA baselines get the RL run's wall-clock budget\n"
    );

    // One engine — one shared characterisation cache — for all ten
    // campaigns below.
    let engine = CampaignEngine::new();
    let cases = synthetic_cases();
    // rewards[method][case] = reward
    let mut rewards = vec![vec![f64::NAN; cases.len()]; methods.len()];

    for (case_index, system) in cases.iter().enumerate() {
        let rl_spec = CampaignSpec::builder()
            .system(system.clone())
            .method(column(methods[0], "rl"))
            .method(column(methods[1], "rl-rnd"))
            .seed(13)
            .base(FloorplanRequest::builder().budget(Budget::Evaluations(episodes)))
            .build()
            .expect("valid RL campaign");
        let rl_report = engine.run(&rl_spec).expect("RL campaign failed");
        assert!(
            rl_report.failures.is_empty(),
            "RL runs failed: {:?}",
            rl_report.failures
        );
        let rl_runtime = rl_report
            .runs
            .iter()
            .map(|run| run.outcome.runtime)
            .max()
            .unwrap_or(Duration::from_secs(1))
            .max(Duration::from_secs(1));

        let sa_spec = CampaignSpec::builder()
            .system(system.clone())
            .method(column(methods[2], "sa-hotspot"))
            .method(column(methods[3], "sa-fast"))
            .seed(13)
            .base(FloorplanRequest::builder().budget(Budget::TimeLimit(rl_runtime)))
            .build()
            .expect("valid SA campaign");
        let sa_report = engine.run(&sa_spec).expect("SA campaign failed");
        assert!(
            sa_report.failures.is_empty(),
            "SA runs failed: {:?}",
            sa_report.failures
        );

        for (method_index, method) in methods.iter().enumerate() {
            let report = if method_index < 2 {
                &rl_report
            } else {
                &sa_report
            };
            rewards[method_index][case_index] = report
                .best_outcome(system.name(), method)
                .expect("cell was run")
                .breakdown
                .reward;
        }
        println!("finished {}", system.name());
    }

    println!(
        "\n{:<24}{:>10}{:>10}{:>10}{:>10}{:>10}",
        "method", "Case1", "Case2", "Case3", "Case4", "Case5"
    );
    for (method, row) in methods.iter().zip(&rewards) {
        print!("{method:<24}");
        for reward in row {
            print!("{reward:>10.4}");
        }
        println!();
    }

    // Average improvement of the best RL variant over SA with HotSpot,
    // matching the headline statistic the paper reports over all 8 cases
    // (positive = RL reaches a better, i.e. less negative, reward).
    let mut improvements = Vec::new();
    for ((&rl_plain, &rl_rnd), &sa_hotspot) in rewards[0].iter().zip(&rewards[1]).zip(&rewards[2]) {
        let rl_best = rl_plain.max(rl_rnd);
        improvements.push((rl_best - sa_hotspot) / sa_hotspot.abs() * 100.0);
    }
    let mean: f64 = improvements.iter().sum::<f64>() / improvements.len() as f64;
    let stats = engine.cache().stats();
    println!(
        "\ncharacterisation cache: {} model(s) characterised in {:.2?}, {} cache hit(s)",
        stats.misses, stats.characterization_time, stats.hits
    );
    println!(
        "mean objective change of the best RLPlanner variant vs TAP-2.5D (HotSpot): {mean:+.2} % (positive = RL better)"
    );
    println!("paper reference (Tables I+III): ~20.3 % average improvement, ~9.3 % vs TAP-2.5D (fast model)");
}
