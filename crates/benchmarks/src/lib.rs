//! Benchmark chiplet systems used in the paper's evaluation.
//!
//! Three "open-source" benchmark systems (Table I) plus a synthetic system
//! generator used for the 2,000-sample thermal-model evaluation (Table II)
//! and the five synthetic cases of Table III.
//!
//! The exact netlists of the published benchmarks are not distributed with
//! the paper, so the systems here are reconstructed from the public sources
//! the paper cites (TAP-2.5D for the multi-GPU system, Kannan et al. for the
//! disaggregated CPU-DRAM system and press material for the Ascend 910
//! package): die footprints, power budgets and connection structure follow
//! those descriptions, which preserves the relative behaviour the paper's
//! comparisons rest on. See DESIGN.md for the substitution notes.

pub mod standard;
pub mod synthetic;

pub use standard::{ascend910_system, cpu_dram_system, multi_gpu_system, standard_benchmarks};
pub use synthetic::{synthetic_case, synthetic_cases, SyntheticConfig, SyntheticSystemGenerator};

use rlp_chiplet::ChipletSystem;

/// The benchmark system a command line names: `multi-gpu`, `cpu-dram`,
/// `ascend910` or `case1`..`case5`, each the system of that name.
///
/// # Examples
///
/// ```
/// assert_eq!(rlp_benchmarks::system_by_name("case3").unwrap().name(), "case3");
/// assert!(rlp_benchmarks::system_by_name("case6").is_none());
/// ```
pub fn system_by_name(name: &str) -> Option<ChipletSystem> {
    match name {
        "multi-gpu" => Some(multi_gpu_system()),
        "cpu-dram" => Some(cpu_dram_system()),
        "ascend910" => Some(ascend910_system()),
        _ => name
            .strip_prefix("case")
            .and_then(|n| n.parse::<usize>().ok())
            .filter(|n| (1..=5).contains(n))
            .map(synthetic_case),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_named_system_carries_its_name() {
        let names = [
            "multi-gpu",
            "cpu-dram",
            "ascend910",
            "case1",
            "case2",
            "case3",
            "case4",
            "case5",
        ];
        for name in names {
            assert_eq!(
                system_by_name(name).map(|s| s.name().to_string()),
                Some(name.to_string())
            );
        }
        for name in ["case0", "case6", "case", "case01x", "Multi-GPU", ""] {
            assert!(system_by_name(name).is_none(), "{name}");
        }
    }
}
