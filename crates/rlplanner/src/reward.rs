//! The thermal-aware reward calculator.
//!
//! [`RewardCalculator::evaluate`] is the full evaluation: microbump
//! assignment and wirelength over every net, then the complete O(n²)
//! thermal superposition. Move-based optimisers instead evaluate through
//! [`DeltaRewardObjective`] ([`RewardCalculator::delta_objective`]), which
//! implements the [`rlp_sa::DeltaObjective`] propose/commit/reject protocol
//! on top of [`IncrementalWirelength`] and the fast model's
//! [`rlp_thermal::ThermalState`]: a proposed move recomputes only the nets
//! and thermal row/column the move touched, with values bit-identical to
//! the full evaluation. Backends without incremental support (the grid
//! solver) fall back to full evaluation transparently.

use rlp_chiplet::bumps::BumpConfig;
use rlp_chiplet::wirelength::bump_aware_wirelength;
use rlp_chiplet::{ChipletId, ChipletSystem, IncrementalWirelength, Placement};
use rlp_rl::ConfigError;
use rlp_sa::{DeltaObjective, EvalMode, Objective};
use rlp_thermal::{AnyThermalAnalyzer, ThermalAnalyzer, ThermalError, ThermalState};

/// Weights and limits of the reward function
/// `R = −λ·W − µ·(max(T−T₀, 0))^α / (1 + e^−(T−T₀))`.
#[derive(Debug, Clone, PartialEq)]
pub struct RewardConfig {
    /// Wirelength weight λ, in reward units per millimetre.
    pub lambda: f64,
    /// Temperature weight µ.
    pub mu: f64,
    /// Temperature limit T₀ in degrees Celsius.
    pub temperature_limit_c: f64,
    /// Exponent α that keeps the penalty smooth around T₀.
    pub alpha: f64,
    /// Microbump geometry used for the wirelength evaluation.
    pub bump_config: BumpConfig,
    /// Reward assigned to placements that cannot be evaluated (incomplete or
    /// thermally unsolvable); strongly negative so optimisers avoid them.
    pub infeasible_penalty: f64,
}

impl Default for RewardConfig {
    fn default() -> Self {
        Self {
            lambda: 3e-4,
            mu: 0.5,
            temperature_limit_c: 90.0,
            alpha: 2.0,
            bump_config: BumpConfig::default(),
            infeasible_penalty: -100.0,
        }
    }
}

impl RewardConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a typed [`ConfigError`] describing the first invalid field.
    pub fn validate(&self) -> Result<(), ConfigError> {
        // Every check is written so that NaN fails it.
        for (field, value) in [
            ("reward.lambda", self.lambda),
            ("reward.mu", self.mu),
            (
                "reward.bump_edge_margin_mm",
                self.bump_config.edge_margin_mm,
            ),
        ] {
            if !(value >= 0.0 && value.is_finite()) {
                return Err(ConfigError::ExpectedNonNegative { field, value });
            }
        }
        for (field, value) in [
            ("reward.alpha", self.alpha),
            ("reward.bump_pitch_mm", self.bump_config.pitch_mm),
        ] {
            if !(value > 0.0 && value.is_finite()) {
                return Err(ConfigError::ExpectedPositive { field, value });
            }
        }
        if !self.temperature_limit_c.is_finite() {
            return Err(ConfigError::NotFinite {
                field: "reward.temperature_limit_c",
            });
        }
        if !(self.infeasible_penalty < 0.0 && self.infeasible_penalty.is_finite()) {
            return Err(ConfigError::ExpectedNegative {
                field: "reward.infeasible_penalty",
                value: self.infeasible_penalty,
            });
        }
        Ok(())
    }
}

/// The three quantities the paper reports per design: reward, total
/// wirelength and maximum operating temperature — plus which evaluation
/// engine produced them.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RewardBreakdown {
    /// Combined reward (higher is better, always negative in practice).
    pub reward: f64,
    /// Total bump-to-bump wirelength in millimetres.
    pub wirelength_mm: f64,
    /// Maximum chiplet temperature in degrees Celsius.
    pub max_temperature_c: f64,
    /// Whether this breakdown came from a full evaluation or the
    /// incremental propose/commit/reject engine (the two agree bit for
    /// bit; the mode is telemetry, not a caveat).
    pub eval_mode: EvalMode,
}

/// Evaluates the reward of complete placements using a pluggable thermal
/// backend — the grid solver for "(HotSpot)" rows and the fast model for
/// "(Fast Thermal Model)" rows of the paper's tables.
#[derive(Debug, Clone)]
pub struct RewardCalculator {
    system: ChipletSystem,
    analyzer: AnyThermalAnalyzer,
    config: RewardConfig,
}

impl RewardCalculator {
    /// Creates a calculator for a system and thermal backend.
    ///
    /// # Panics
    ///
    /// Panics if the reward configuration is invalid.
    pub fn new(system: ChipletSystem, analyzer: AnyThermalAnalyzer, config: RewardConfig) -> Self {
        config.validate().expect("invalid reward configuration");
        Self {
            system,
            analyzer,
            config,
        }
    }

    /// The system being evaluated.
    pub fn system(&self) -> &ChipletSystem {
        &self.system
    }

    /// The reward configuration.
    pub fn config(&self) -> &RewardConfig {
        &self.config
    }

    /// The thermal backend.
    pub fn analyzer(&self) -> &AnyThermalAnalyzer {
        &self.analyzer
    }

    /// Temperature penalty term of the reward for a given peak temperature.
    pub fn temperature_penalty(&self, max_temperature_c: f64) -> f64 {
        let excess = (max_temperature_c - self.config.temperature_limit_c).max(0.0);
        let sigmoid = 1.0 + (-(max_temperature_c - self.config.temperature_limit_c)).exp();
        self.config.mu * excess.powf(self.config.alpha) / sigmoid
    }

    /// Evaluates a complete placement: microbump assignment, wirelength and
    /// thermal analysis, combined into the paper's reward.
    ///
    /// # Errors
    ///
    /// Returns a [`ThermalError`] if the placement is incomplete or the
    /// thermal backend fails.
    pub fn evaluate(&self, placement: &Placement) -> Result<RewardBreakdown, ThermalError> {
        let wirelength_mm =
            bump_aware_wirelength(&self.system, placement, &self.config.bump_config)?;
        let max_temperature_c = self.analyzer.max_temperature(&self.system, placement)?;
        let reward =
            -self.config.lambda * wirelength_mm - self.temperature_penalty(max_temperature_c);
        Ok(RewardBreakdown {
            reward,
            wirelength_mm,
            max_temperature_c,
            eval_mode: EvalMode::Full,
        })
    }

    /// Like [`RewardCalculator::evaluate`] but maps failures to the
    /// configured infeasible penalty, which is what optimisation loops need.
    pub fn reward_or_penalty(&self, placement: &Placement) -> f64 {
        self.evaluate(placement)
            .map(|b| b.reward)
            .unwrap_or(self.config.infeasible_penalty)
    }

    /// The breakdown [`RewardCalculator::reward_or_penalty`] corresponds
    /// to: the evaluated breakdown, or the infeasible penalty with NaN
    /// components when the placement cannot be evaluated.
    fn breakdown_or_penalty(&self, placement: &Placement) -> RewardBreakdown {
        self.evaluate(placement).unwrap_or(RewardBreakdown {
            reward: self.config.infeasible_penalty,
            wirelength_mm: f64::NAN,
            max_temperature_c: f64::NAN,
            eval_mode: EvalMode::Full,
        })
    }

    /// Combines incremental wirelength and peak-temperature values into the
    /// reward, with exactly the arithmetic of
    /// [`RewardCalculator::evaluate`].
    fn combine(&self, wirelength_mm: f64, max_temperature_c: f64) -> RewardBreakdown {
        RewardBreakdown {
            reward: -self.config.lambda * wirelength_mm
                - self.temperature_penalty(max_temperature_c),
            wirelength_mm,
            max_temperature_c,
            eval_mode: EvalMode::Incremental,
        }
    }

    /// A propose/commit/reject objective over this calculator — the
    /// [`rlp_sa::DeltaObjective`] implementation move-based optimisers run
    /// on. See [`DeltaRewardObjective`].
    pub fn delta_objective(&self) -> DeltaRewardObjective<'_> {
        DeltaRewardObjective {
            calc: self,
            mode: EvalMode::Full,
            wirelength: None,
            thermal: None,
            current: None,
            pending: None,
            best: None,
        }
    }
}

/// The incremental evaluation engine of a [`RewardCalculator`]: implements
/// [`rlp_sa::DeltaObjective`] so the SA loop (and any move-based optimiser)
/// pays O(moved terms) per candidate instead of a full re-evaluation.
///
/// On [`DeltaObjective::reset`] the engine probes the thermal backend via
/// [`ThermalAnalyzer::incremental_state`]:
///
/// * fast LTI backend → **incremental mode**: wirelength deltas through
///   [`IncrementalWirelength`], thermal deltas through
///   [`rlp_thermal::ThermalState`]. Every value is bit-identical to a full
///   [`RewardCalculator::evaluate`] of the same placement, so fixed-seed
///   anneals are trajectory-identical to the full-evaluation path.
/// * grid solver (or any backend without incremental support, or an
///   incomplete starting placement) → **full mode**: every proposal is a
///   from-scratch [`RewardCalculator::reward_or_penalty`].
///
/// The engine also tracks the best *committed* breakdown, which mirrors
/// the annealer's best-so-far tracking and saves the final re-evaluation
/// of the best placement.
#[derive(Debug)]
pub struct DeltaRewardObjective<'a> {
    calc: &'a RewardCalculator,
    mode: EvalMode,
    wirelength: Option<IncrementalWirelength>,
    thermal: Option<ThermalState>,
    current: Option<RewardBreakdown>,
    pending: Option<RewardBreakdown>,
    best: Option<RewardBreakdown>,
}

impl DeltaRewardObjective<'_> {
    /// Which engine is evaluating (decided at [`DeltaObjective::reset`]).
    pub fn mode(&self) -> EvalMode {
        self.mode
    }

    /// Breakdown of the current (committed) placement, if initialised.
    pub fn current_breakdown(&self) -> Option<RewardBreakdown> {
        self.current
    }

    /// Best breakdown among the committed placements so far (the initial
    /// placement counts), if initialised. Tracks exactly the annealer's
    /// best-so-far: commits happen precisely on accepted moves.
    pub fn best_breakdown(&self) -> Option<RewardBreakdown> {
        self.best
    }

    fn set_current(&mut self, breakdown: RewardBreakdown) {
        self.current = Some(breakdown);
        let improved = self.best.is_none_or(|b| breakdown.reward > b.reward);
        if improved {
            self.best = Some(breakdown);
        }
    }
}

impl DeltaObjective for DeltaRewardObjective<'_> {
    fn reset(&mut self, placement: &Placement) -> f64 {
        self.pending = None;
        self.best = None;
        self.wirelength = None;
        self.thermal = None;
        self.mode = EvalMode::Full;
        let calc = self.calc;
        if let Ok(Some(thermal)) = calc.analyzer.incremental_state(&calc.system, placement) {
            if let Ok(wirelength) =
                IncrementalWirelength::new(&calc.system, placement, calc.config.bump_config)
            {
                let breakdown = calc.combine(wirelength.total(), thermal.max_temperature());
                self.mode = EvalMode::Incremental;
                self.wirelength = Some(wirelength);
                self.thermal = Some(thermal);
                self.current = Some(breakdown);
                self.best = Some(breakdown);
                return breakdown.reward;
            }
        }
        let breakdown = calc.breakdown_or_penalty(placement);
        self.current = Some(breakdown);
        self.best = Some(breakdown);
        breakdown.reward
    }

    fn propose(&mut self, candidate: &Placement, changed: &[ChipletId]) -> f64 {
        let breakdown = match self.mode {
            EvalMode::Incremental => {
                let wirelength = self
                    .wirelength
                    .as_mut()
                    .expect("incremental mode has wirelength state");
                let thermal = self
                    .thermal
                    .as_mut()
                    .expect("incremental mode has thermal state");
                let wl = wirelength.propose(&self.calc.system, candidate, changed);
                let max_t = thermal.propose(&self.calc.system, candidate, changed);
                self.calc.combine(wl, max_t)
            }
            EvalMode::Full => self.calc.breakdown_or_penalty(candidate),
        };
        self.pending = Some(breakdown);
        breakdown.reward
    }

    fn commit(&mut self) {
        if let Some(wirelength) = self.wirelength.as_mut() {
            wirelength.commit();
        }
        if let Some(thermal) = self.thermal.as_mut() {
            thermal.commit();
        }
        let breakdown = self.pending.take().expect("no proposal to commit");
        self.set_current(breakdown);
    }

    fn reject(&mut self) {
        if let Some(wirelength) = self.wirelength.as_mut() {
            wirelength.reject();
        }
        if let Some(thermal) = self.thermal.as_mut() {
            thermal.reject();
        }
        self.pending = None;
    }

    fn evaluation_mode(&self) -> EvalMode {
        self.mode
    }
}

impl Objective for RewardCalculator {
    fn evaluate(&self, placement: &Placement) -> f64 {
        self.reward_or_penalty(placement)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlp_chiplet::{Chiplet, Net, Position};
    use rlp_thermal::{GridThermalSolver, ThermalConfig};

    fn system() -> ChipletSystem {
        let mut sys = ChipletSystem::new("t", 40.0, 40.0);
        let a = sys.add_chiplet(Chiplet::new("a", 8.0, 8.0, 30.0));
        let b = sys.add_chiplet(Chiplet::new("b", 8.0, 8.0, 30.0));
        sys.add_net(Net::new(a, b, 64));
        sys
    }

    fn calculator() -> RewardCalculator {
        RewardCalculator::new(
            system(),
            AnyThermalAnalyzer::Grid(GridThermalSolver::new(ThermalConfig::with_grid(12, 12))),
            RewardConfig::default(),
        )
    }

    fn placement(gap: f64) -> Placement {
        let sys = system();
        let ids: Vec<_> = sys.chiplet_ids().collect();
        let mut p = Placement::for_system(&sys);
        p.place(ids[0], Position::new(4.0, 16.0));
        p.place(ids[1], Position::new(12.0 + gap, 16.0));
        p
    }

    #[test]
    fn reward_is_negative_and_decomposes() {
        let calc = calculator();
        let breakdown = calc.evaluate(&placement(4.0)).unwrap();
        assert!(breakdown.reward < 0.0);
        assert!(breakdown.wirelength_mm > 0.0);
        assert!(breakdown.max_temperature_c > 45.0);
        let expected = -calc.config().lambda * breakdown.wirelength_mm
            - calc.temperature_penalty(breakdown.max_temperature_c);
        assert!((breakdown.reward - expected).abs() < 1e-9);
    }

    #[test]
    fn longer_wires_hurt_the_reward() {
        let calc = calculator();
        let near = calc.evaluate(&placement(2.0)).unwrap();
        let far = calc.evaluate(&placement(18.0)).unwrap();
        assert!(far.wirelength_mm > near.wirelength_mm);
        // With the default weights, wirelength dominates at these (cool)
        // temperatures, so the farther placement is worse.
        assert!(far.reward < near.reward);
    }

    #[test]
    fn temperature_penalty_is_zero_well_below_the_limit() {
        let calc = calculator();
        assert!(calc.temperature_penalty(60.0) < 1e-9);
        assert_eq!(
            calc.temperature_penalty(calc.config().temperature_limit_c),
            0.0
        );
        assert!(calc.temperature_penalty(100.0) > 1.0);
    }

    #[test]
    fn temperature_penalty_is_monotone_above_the_limit() {
        let calc = calculator();
        let p95 = calc.temperature_penalty(95.0);
        let p100 = calc.temperature_penalty(100.0);
        let p110 = calc.temperature_penalty(110.0);
        assert!(p95 < p100 && p100 < p110);
    }

    #[test]
    fn incomplete_placement_gets_the_penalty() {
        let calc = calculator();
        let sys = system();
        let ids: Vec<_> = sys.chiplet_ids().collect();
        let mut p = Placement::for_system(&sys);
        p.place(ids[0], Position::new(4.0, 16.0));
        assert!(calc.evaluate(&p).is_err());
        assert_eq!(calc.reward_or_penalty(&p), calc.config().infeasible_penalty);
    }

    #[test]
    fn objective_trait_matches_reward_or_penalty() {
        let calc = calculator();
        let p = placement(6.0);
        assert_eq!(Objective::evaluate(&calc, &p), calc.reward_or_penalty(&p));
    }

    /// The field a config with one field replaced fails validation on.
    fn rejected_field(edit: impl FnOnce(&mut RewardConfig)) -> Option<&'static str> {
        let mut config = RewardConfig::default();
        edit(&mut config);
        config.validate().err().map(|e| e.field())
    }

    #[test]
    fn invalid_configs_are_rejected_with_typed_errors() {
        assert!(matches!(
            RewardConfig {
                lambda: -1.0,
                ..RewardConfig::default()
            }
            .validate(),
            Err(ConfigError::ExpectedNonNegative {
                field: "reward.lambda",
                ..
            })
        ));
        assert!(matches!(
            RewardConfig {
                alpha: 0.0,
                ..RewardConfig::default()
            }
            .validate(),
            Err(ConfigError::ExpectedPositive {
                field: "reward.alpha",
                ..
            })
        ));
        assert!(matches!(
            RewardConfig {
                infeasible_penalty: 1.0,
                ..RewardConfig::default()
            }
            .validate(),
            Err(ConfigError::ExpectedNegative { .. })
        ));
        assert!(RewardConfig::default().validate().is_ok());
    }

    #[test]
    fn lambda_must_be_non_negative_and_finite() {
        for value in [-1.0, f64::NAN, f64::INFINITY] {
            assert_eq!(rejected_field(|c| c.lambda = value), Some("reward.lambda"));
        }
        assert_eq!(rejected_field(|c| c.lambda = 0.0), None);
    }

    #[test]
    fn mu_must_be_non_negative_and_finite() {
        for value in [-0.5, f64::NAN, f64::INFINITY] {
            assert_eq!(rejected_field(|c| c.mu = value), Some("reward.mu"));
        }
        assert_eq!(rejected_field(|c| c.mu = 0.0), None);
    }

    #[test]
    fn alpha_must_be_positive_and_finite() {
        for value in [0.0, -2.0, f64::NAN, f64::INFINITY] {
            assert_eq!(rejected_field(|c| c.alpha = value), Some("reward.alpha"));
        }
    }

    #[test]
    fn temperature_limit_must_be_finite() {
        for value in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(
                rejected_field(|c| c.temperature_limit_c = value),
                Some("reward.temperature_limit_c")
            );
        }
    }

    #[test]
    fn infeasible_penalty_must_be_negative_and_finite() {
        for value in [0.0, 1.0, f64::NAN, f64::NEG_INFINITY] {
            assert_eq!(
                rejected_field(|c| c.infeasible_penalty = value),
                Some("reward.infeasible_penalty")
            );
        }
    }

    #[test]
    fn bump_pitch_must_be_positive_and_finite() {
        for value in [0.0, -0.1, f64::NAN, f64::INFINITY] {
            assert_eq!(
                rejected_field(|c| c.bump_config.pitch_mm = value),
                Some("reward.bump_pitch_mm")
            );
        }
    }

    #[test]
    fn bump_edge_margin_must_be_non_negative_and_finite() {
        for value in [-5.0, -1e-9, f64::NAN, f64::INFINITY] {
            assert_eq!(
                rejected_field(|c| c.bump_config.edge_margin_mm = value),
                Some("reward.bump_edge_margin_mm")
            );
        }
        assert_eq!(rejected_field(|c| c.bump_config.edge_margin_mm = 0.0), None);
    }
}
