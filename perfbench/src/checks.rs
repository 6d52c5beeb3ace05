//! Output checks and the quality figures taken from checked outputs.

use rlp_chiplet::{ChipletSystem, Placement};
use rlp_thermal::{GridThermalSolver, ThermalAnalyzer};
use rlplanner::FloorplanOutcome;

/// Outcome-document lines that legitimately differ between two runs of the
/// same solve: the wall-clock fields marked VOLATILE in `docs/SCHEMAS.md`.
pub const VOLATILE_KEYS: [&str; 3] = ["\"runtime_s\"", "\"thermal_prep\"", "\"episodes_per_s\""];

/// An outcome document without its VOLATILE lines; two solves of the same
/// request must agree on it byte for byte.
pub fn deterministic_projection(doc: &str) -> String {
    doc.lines()
        .filter(|line| !VOLATILE_KEYS.iter().any(|key| line.contains(key)))
        .collect::<Vec<_>>()
        .join("\n")
}

/// The placement is complete, inside the interposer and free of overlap,
/// and the reward is finite.
pub fn outcome_is_valid(system: &ChipletSystem, outcome: &FloorplanOutcome) -> bool {
    placement_is_valid(system, &outcome.placement) && outcome.breakdown.reward.is_finite()
}

/// Complete, inside the interposer, no two chiplets overlapping.
pub fn placement_is_valid(system: &ChipletSystem, placement: &Placement) -> bool {
    system.validate_placement(placement, 0.0).is_ok()
}

/// The fast-versus-grid agreement bound the `backend_agreement` test
/// holds: the peak temperatures differ by less than 3 K or 10% of the
/// reference rise over ambient, whichever is larger.
pub fn within_agreement_bound(fast_peak_c: f64, grid_peak_c: f64, ambient_c: f64) -> bool {
    let bound = (0.10 * (grid_peak_c - ambient_c)).max(3.0);
    (fast_peak_c - grid_peak_c).abs() < bound
}

/// Mean absolute difference of two equally long series; NaN if they
/// differ in length or are empty, so a broken comparison cannot pass.
pub fn mean_abs_error(a: &[f64], b: &[f64]) -> f64 {
    if a.len() != b.len() || a.is_empty() {
        return f64::NAN;
    }
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum::<f64>() / a.len() as f64
}

/// Quality of one checked operation's best placement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quality {
    /// `-reward` of the best placement (the reward is never positive).
    pub neg_reward: f64,
    /// Peak chiplet temperature of the best placement, °C.
    pub peak_temp_c: f64,
    /// Bump-aware wirelength of the best placement, mm.
    pub wirelength_mm: f64,
    /// Mean absolute per-chiplet error of the fast model against the grid
    /// solver on the best placement, K.
    pub mae_k: f64,
}

/// The grid solver's and the fast model's per-chiplet temperatures on an
/// outcome's best placement.
pub struct Temperatures {
    pub fast: Vec<f64>,
    pub grid: Vec<f64>,
}

/// Evaluates an outcome's best placement with both backends.
pub fn temperatures(
    system: &ChipletSystem,
    placement: &Placement,
    fast: &impl ThermalAnalyzer,
    grid: &GridThermalSolver,
) -> Result<Temperatures, String> {
    Ok(Temperatures {
        fast: fast
            .chiplet_temperatures(system, placement)
            .map_err(|e| format!("fast model: {e}"))?,
        grid: grid
            .chiplet_temperatures(system, placement)
            .map_err(|e| format!("grid solver: {e}"))?,
    })
}

/// The quality figures of an outcome, given both backends' temperatures of
/// its best placement.
pub fn quality(outcome: &FloorplanOutcome, temps: &Temperatures) -> Quality {
    Quality {
        neg_reward: -outcome.breakdown.reward,
        peak_temp_c: outcome.breakdown.max_temperature_c,
        wirelength_mm: outcome.breakdown.wirelength_mm,
        mae_k: mean_abs_error(&temps.fast, &temps.grid),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlp_chiplet::{Chiplet, Position};

    #[test]
    fn overlapping_out_of_bounds_and_incomplete_placements_fail() {
        let mut system = ChipletSystem::new("t", 20.0, 20.0);
        let a = system.add_chiplet(Chiplet::new("a", 5.0, 5.0, 1.0));
        let b = system.add_chiplet(Chiplet::new("b", 5.0, 5.0, 1.0));
        let mut placement = Placement::for_system(&system);
        placement.place(a, Position::new(0.0, 0.0));
        assert!(!placement_is_valid(&system, &placement), "incomplete");
        placement.place(b, Position::new(5.0, 0.0));
        assert!(placement_is_valid(&system, &placement), "touching is legal");
        placement.place(b, Position::new(4.0, 1.0));
        assert!(!placement_is_valid(&system, &placement), "overlap");
        placement.place(b, Position::new(16.0, 0.0));
        assert!(!placement_is_valid(&system, &placement), "out of bounds");
    }

    #[test]
    fn agreement_bound_is_the_larger_of_3k_and_a_tenth_of_the_rise() {
        // Rise 20 K: bound 3 K.
        assert!(within_agreement_bound(47.9, 45.0, 25.0));
        assert!(!within_agreement_bound(48.1, 45.0, 25.0));
        // Rise 60 K: bound 6 K.
        assert!(within_agreement_bound(90.0, 85.0, 25.0));
        assert!(!within_agreement_bound(91.5, 85.0, 25.0));
    }

    #[test]
    fn mean_abs_error_and_projection() {
        assert_eq!(mean_abs_error(&[1.0, 2.0], &[2.0, 0.0]), 1.5);
        assert!(mean_abs_error(&[1.0], &[1.0, 2.0]).is_nan());
        let doc = "{\n  \"reward\": 1,\n  \"runtime_s\": 0.5,\n  \"thermal_prep\": {}\n}";
        assert_eq!(deterministic_projection(doc), "{\n  \"reward\": 1,\n}");
    }
}
