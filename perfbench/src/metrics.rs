//! The metric definitions: names, units, better-directions, regression
//! bounds for the end-to-end metrics, and for each per-layer metric the
//! end-to-end metric it should move and where it should stay flat.
//! `BENCHMARK.json` mirrors these tables (a self-test keeps them in step).

/// An end-to-end metric, reported by the untraced run.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// A per-layer metric, reported by the traced run.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Which end-to-end metric it should move on which workload, and where
    /// it should stay flat.
    pub moves: &'static str,
}

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p50_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p90_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "neg_reward_mean",
        unit: "1",
        better: "lower",
        bound: 0.15,
    },
    EndToEnd {
        name: "peak_temp_c_mean",
        unit: "degC",
        better: "lower",
        bound: 0.05,
    },
    EndToEnd {
        name: "wirelength_mm_mean",
        unit: "mm",
        better: "lower",
        bound: 0.15,
    },
    EndToEnd {
        name: "fast_grid_mae_k",
        unit: "K",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.25,
    },
];

pub const PER_LAYER: &[PerLayer] = &[
    PerLayer { name: "thermal.characterize_ms", unit: "ms", better: "lower",
        moves: "cold_solve.op_p50_ms (~99% of it); 0 per op on warm_solve/serve_loop, where characterisation moves only setup_s" },
    PerLayer { name: "thermal.characterize_count", unit: "count", better: "lower",
        moves: "characterisations per op: 1 on cold_solve, 0 elsewhere" },
    PerLayer { name: "thermal.grid_solve_ms", unit: "ms", better: "lower",
        moves: "cold_solve op_p50_ms (and the ungated hotspot_anneal); flat on warm_solve" },
    PerLayer { name: "thermal.fast_eval_us", unit: "us", better: "lower",
        moves: "warm_solve op_p50_ms" },
    PerLayer { name: "thermal.state_move_us", unit: "us", better: "lower",
        moves: "warm_solve op_p50_ms (SA share)" },
    PerLayer { name: "thermal.fast_speedup_x", unit: "x", better: "higher",
        moves: "grid_solve / fast_eval; the paper's >120x claim" },
    PerLayer { name: "thermal.cache_hit_ratio", unit: "ratio", better: "higher",
        moves: "0 on cold_solve, 1 on warm_solve and serve_loop" },
    PerLayer { name: "linalg.cg_iters_per_solve", unit: "count", better: "lower",
        moves: "cold_solve op_p50_ms (and the ungated hotspot_anneal); exact count" },
    PerLayer { name: "linalg.cg_iters_per_op", unit: "count", better: "lower",
        moves: "cold_solve op_p50_ms (and the ungated hotspot_anneal); exact count" },
    PerLayer { name: "linalg.probe_cg_iters", unit: "count", better: "lower",
        moves: "ThermalSolution::solver_iterations of the grid probe" },
    PerLayer { name: "chiplet.wirelength_us", unit: "us", better: "lower",
        moves: "warm_solve op_p50_ms" },
    PerLayer { name: "chiplet.incremental_move_us", unit: "us", better: "lower",
        moves: "warm_solve op_p50_ms (SA share)" },
    PerLayer { name: "chiplet.nets_per_move", unit: "count", better: "lower",
        moves: "warm_solve op_p50_ms (SA share)" },
    PerLayer { name: "sa.solve_ms", unit: "ms", better: "lower",
        moves: "warm_solve op_p50_ms (and the ungated hotspot_anneal)" },
    PerLayer { name: "sa.eval_us", unit: "us", better: "lower",
        moves: "warm_solve op_p50_ms (and the ungated hotspot_anneal)" },
    PerLayer { name: "sa.incremental_ratio", unit: "ratio", better: "higher",
        moves: "~1 on warm_solve and serve_loop, 0 on the ungated hotspot_anneal" },
    PerLayer { name: "sa.accept_ratio", unit: "ratio", better: "higher",
        moves: "accepted / proposed SA moves; explains neg_reward_mean" },
    PerLayer { name: "rlplanner.gradient_solve_ms", unit: "ms", better: "lower",
        moves: "warm_solve op_p50_ms" },
    PerLayer { name: "rlplanner.pretrained_solve_ms", unit: "ms", better: "lower",
        moves: "warm_solve and serve_loop op_p50_ms" },
    PerLayer { name: "rlplanner.outcome_render_us", unit: "us", better: "lower",
        moves: "serve_loop op_p50_ms; flat on cold_solve" },
    PerLayer { name: "rlplanner.outcome_bytes", unit: "bytes", better: "lower",
        moves: "serve_loop op_p50_ms; flat on cold_solve" },
    PerLayer { name: "rlplanner.request_parse_us", unit: "us", better: "lower",
        moves: "serve_loop op_p50_ms; flat on cold_solve" },
    PerLayer { name: "rlplanner.outcome_parse_us", unit: "us", better: "lower",
        moves: "serve_loop op_p50_ms; flat on cold_solve" },
    PerLayer { name: "nn.forward_us", unit: "us", better: "lower",
        moves: "rl/pretrained share of warm_solve and serve_loop" },
    PerLayer { name: "nn.backward_us", unit: "us", better: "lower",
        moves: "rl share of warm_solve" },
    PerLayer { name: "rl.solve_ms", unit: "ms", better: "lower",
        moves: "warm_solve op_p90_ms; flat elsewhere" },
    PerLayer { name: "rl.episodes_per_s", unit: "1/s", better: "higher",
        moves: "warm_solve ops_per_s; flat elsewhere" },
    PerLayer { name: "rl.rollout_collect_ms", unit: "ms", better: "lower",
        moves: "warm_solve; flat elsewhere" },
    PerLayer { name: "rl.ppo_update_ms", unit: "ms", better: "lower",
        moves: "warm_solve; flat elsewhere" },
    PerLayer { name: "serve.queue_ms", unit: "ms", better: "lower",
        moves: "serve_loop op_p50_ms/ops_per_s" },
    PerLayer { name: "serve.solve_ms", unit: "ms", better: "lower",
        moves: "serve_loop op_p50_ms/ops_per_s" },
    PerLayer { name: "serve.serialize_ms", unit: "ms", better: "lower",
        moves: "serve_loop op_p50_ms/ops_per_s" },
    PerLayer { name: "serve.flush_ms", unit: "ms", better: "lower",
        moves: "serve_loop op_p50_ms/ops_per_s" },
    PerLayer { name: "serve.outside_solve_ms", unit: "ms", better: "lower",
        moves: "serve_loop op_p50_ms; while it dominates, solver speed-ups cannot show there" },
    PerLayer { name: "serve.unattributed_ms", unit: "ms", better: "lower",
        moves: "serve_loop op_p50_ms: mean latency outside every server-side phase" },
    PerLayer { name: "serve.busy_retries", unit: "count", better: "lower",
        moves: "serve_loop op_p90_ms" },
    PerLayer { name: "mix.sa_share_pct", unit: "%", better: "lower",
        moves: "share of op time spent in SA operations" },
    PerLayer { name: "mix.gradient_share_pct", unit: "%", better: "lower",
        moves: "share of op time spent in gradient operations" },
    PerLayer { name: "mix.rl_share_pct", unit: "%", better: "lower",
        moves: "share of op time spent in RL operations" },
    PerLayer { name: "mix.pretrained_share_pct", unit: "%", better: "lower",
        moves: "share of op time spent in pretrained operations" },
    PerLayer { name: "trace.op_p50_ms", unit: "ms", better: "lower",
        moves: "op_p50_ms of the traced phase" },
    PerLayer { name: "trace.overhead_pct", unit: "%", better: "lower",
        moves: "traced versus untraced op_p50_ms" },
    PerLayer { name: "trace.unattributed_pct", unit: "%", better: "lower",
        moves: "median share of an op's wall-clock outside every recorded span" },
];

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count, "duplicate metric name");
        assert!(names.iter().all(|n| valid_name(n)));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn benchmark_json_lists_every_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        for m in END_TO_END {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name, m.unit, m.better, m.bound
            );
            assert!(doc.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for m in PER_LAYER {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name, m.unit, m.better
            );
            assert!(doc.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }
}
