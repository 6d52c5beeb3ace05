//! The analytic-gradient placement engine.
//!
//! SA and RL both explore the discrete grid one candidate at a time, paying
//! one reward evaluation per move or episode. This module descends the
//! *continuous* relaxation of the same objective instead, using gradients
//! that are differentiated by hand — no autodiff framework:
//!
//! * **wirelength** — the log-sum-exp smoothed estimate of
//!   [`rlp_chiplet::smooth`], whose sharpness `γ` anneals upward every
//!   iteration so the surrogate approaches the exact piecewise-linear
//!   wirelength as the descent converges;
//! * **temperature** — the fast LTI model's softmax-smoothed maximum via
//!   [`rlp_thermal::ThermalAnalyzer::thermal_gradient`], scaled by the
//!   derivative of the reward's temperature penalty plus an always-on
//!   spreading weight (the penalty is identically zero below the limit, so
//!   without the extra term cool systems would feel no thermal force at
//!   all). Backends without a differentiable model (the grid solver) return
//!   `None` and the thermal force is simply absent — descent still works on
//!   wirelength alone, and the *exact* evaluation below always includes
//!   temperature;
//! * **separation** — quadratic penalties that push overlapping chiplets
//!   apart and keep every footprint inside the interposer outline.
//!
//! Positions update with Adam. After every step the continuous centres are
//! **legalised** onto the shared placement grid (the same
//! [`rlp_chiplet::PlacementGrid`] action space SA moves and the RL
//! environment use, via [`rlp_chiplet::PlacementGrid::nearest_cell`]) and
//! the legal placement is scored with the *exact*
//! [`RewardCalculator::evaluate`] — so every reported reward is a real
//! reward, directly comparable to SA and RL candidates, and the engine
//! spends one full evaluation per iteration instead of tens per temperature
//! step. Typical budgets are ~200 evaluations where the SA baseline spends
//! thousands.
//!
//! Because the relaxed landscape is non-convex, the engine is
//! **multi-start**: the first two thirds of the iteration budget are
//! divided across [`GradientConfig::restarts`] independent random
//! initialisations (Adam state and the sharpness anneal reset each start)
//! and the best legalised placement across all starts wins. A start that
//! converges early hands its leftover budget to additional starts. Descent
//! quality is dominated by the initial placement — a handful of short
//! probes reliably beats one long descent from a poor start. The final
//! third of the budget then **polishes** the winner with greedy discrete
//! moves mirroring SA's move set (relocations, 90° rotations and pairwise
//! swaps): candidates are ranked by the cheap centre-to-centre wirelength
//! and only the best-ranked move pays an exact evaluation, which also
//! guards acceptance. This recovers the adjacency — and the orientations —
//! that snapping the continuous optimum loses, the same global-then-detailed
//! split analytic placers use, and rounds of probing and polishing
//! alternate until the budget is spent.
//!
//! The descent is deterministic for a fixed seed: the only randomness is
//! the initial centres, drawn sequentially (one batch per start) from a
//! [`rand_chacha::ChaCha8Rng`] seeded with the seed [`GradientDescent::run`]
//! is given.

use crate::reward::{RewardBreakdown, RewardCalculator, RewardConfig};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use rlp_chiplet::grid::centered_position;
use rlp_chiplet::smooth::smoothed_wirelength_gradient;
use rlp_chiplet::wirelength::total_wirelength;
use rlp_chiplet::{ChipletId, ChipletSystem, Placement, PlacementGrid, Point, Rotation};
use rlp_obs::{obs_counter, obs_histogram, Stopwatch};
use rlp_rl::ConfigError;
use rlp_sa::SearchRun;
use rlp_thermal::{AnyThermalAnalyzer, ThermalAnalyzer};

/// Configuration of the gradient placement engine.
#[derive(Debug, Clone, PartialEq)]
pub struct GradientConfig {
    /// Maximum number of descent iterations (each ending in one exact
    /// reward evaluation of the legalised iterate), shared across all
    /// random starts.
    pub iterations: usize,
    /// Number of independent random starts the iteration budget is divided
    /// across (`≥ 1`). Each start caps at `⌈iterations / restarts⌉` of its
    /// own iterations; starts that converge early leave budget for extra
    /// starts beyond this count.
    pub restarts: usize,
    /// Adam step size in millimetres (Adam normalises the raw gradient, so
    /// this is approximately the per-iteration displacement).
    pub learning_rate: f64,
    /// Initial sharpness `γ` of the smoothed wirelength, in 1/mm; the
    /// surrogate is within `2·ln 2/γ` of the exact estimate per wire.
    pub wirelength_sharpness: f64,
    /// Multiplicative sharpness growth per iteration (`≥ 1`); annealing `γ`
    /// upward lets early iterations see a smooth landscape and late
    /// iterations track the exact objective.
    pub sharpness_growth: f64,
    /// Softmax inverse temperature `β` of the smoothed maximum chiplet
    /// temperature, in 1/°C.
    pub thermal_sharpness: f64,
    /// Always-on weight of the smoothed maximum temperature in the
    /// continuous loss, in reward units per °C. The reward's own penalty is
    /// zero below the temperature limit, so this term is what spreads hot
    /// chiplets apart on designs that never exceed the limit.
    pub thermal_weight: f64,
    /// Weight of the pairwise overlap penalty (overlap-rectangle area,
    /// including the minimum spacing margin).
    pub overlap_weight: f64,
    /// Weight of the squared out-of-outline penalty.
    pub boundary_weight: f64,
    /// Convergence tolerance: the descent stops once the largest Adam step
    /// of an iteration falls below this many millimetres.
    pub tolerance_mm: f64,
    /// Minimum spacing between chiplets used during legalisation, in mm.
    pub min_spacing_mm: f64,
    /// Legalisation grid (columns, rows) — the discrete action space shared
    /// with SA moves and the RL environment.
    pub grid: (usize, usize),
}

impl Default for GradientConfig {
    fn default() -> Self {
        Self {
            iterations: 200,
            restarts: 4,
            learning_rate: 1.0,
            wirelength_sharpness: 0.5,
            sharpness_growth: 1.02,
            thermal_sharpness: 2.0,
            thermal_weight: 0.01,
            overlap_weight: 0.05,
            boundary_weight: 0.05,
            tolerance_mm: 1e-4,
            min_spacing_mm: 0.2,
            grid: (16, 16),
        }
    }
}

impl GradientConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a typed [`ConfigError`] describing the first invalid field.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.iterations == 0 {
            return Err(ConfigError::ExpectedPositive {
                field: "gradient.iterations",
                value: 0.0,
            });
        }
        if self.restarts == 0 {
            return Err(ConfigError::ExpectedPositive {
                field: "gradient.restarts",
                value: 0.0,
            });
        }
        for (field, value) in [
            ("gradient.learning_rate", self.learning_rate),
            ("gradient.wirelength_sharpness", self.wirelength_sharpness),
            ("gradient.thermal_sharpness", self.thermal_sharpness),
        ] {
            if !(value > 0.0 && value.is_finite()) {
                return Err(ConfigError::ExpectedPositive { field, value });
            }
        }
        if !(self.sharpness_growth >= 1.0 && self.sharpness_growth.is_finite()) {
            return Err(ConfigError::OutOfRange {
                field: "gradient.sharpness_growth",
                min: 1.0,
                max: f64::INFINITY,
                value: self.sharpness_growth,
            });
        }
        for (field, value) in [
            ("gradient.thermal_weight", self.thermal_weight),
            ("gradient.overlap_weight", self.overlap_weight),
            ("gradient.boundary_weight", self.boundary_weight),
            ("gradient.tolerance_mm", self.tolerance_mm),
            ("gradient.min_spacing_mm", self.min_spacing_mm),
        ] {
            if !(value >= 0.0 && value.is_finite()) {
                return Err(ConfigError::ExpectedNonNegative { field, value });
            }
        }
        if self.grid.0 == 0 || self.grid.1 == 0 {
            return Err(ConfigError::ExpectedPositive {
                field: "gradient.grid",
                value: 0.0,
            });
        }
        Ok(())
    }
}

/// Error returned when the descent finishes without legalising a single
/// placement — the grid is too coarse (or the interposer too small) for
/// every chiplet to get a feasible cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GradientStalled;

impl std::fmt::Display for GradientStalled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "gradient descent never legalised a complete placement; increase the grid resolution"
        )
    }
}

impl std::error::Error for GradientStalled {}

/// Outcome of a gradient descent run.
#[derive(Debug, Clone)]
pub struct GradientResult {
    /// Best legalised placement found.
    pub best_placement: Placement,
    /// Exact reward breakdown of the best placement.
    pub best_breakdown: RewardBreakdown,
    /// Exact reward evaluations performed (one per legalised iterate).
    pub evaluations: usize,
    /// Descent iterations and polish trials actually run across all starts
    /// (may be fewer than configured under a budget).
    pub iterations_run: usize,
    /// Whether at least one start stopped because its step size fell below
    /// [`GradientConfig::tolerance_mm`] (rather than exhausting its share
    /// of the iteration budget).
    pub converged: bool,
}

/// The analytic-gradient placement engine; see the [module docs](self).
#[derive(Debug, Clone)]
pub struct GradientDescent {
    reward: RewardCalculator,
    config: GradientConfig,
}

impl GradientDescent {
    /// Creates an engine for a system, thermal backend and reward weights.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if the descent or reward configuration is
    /// invalid.
    pub fn new(
        system: ChipletSystem,
        analyzer: AnyThermalAnalyzer,
        reward_config: RewardConfig,
        config: GradientConfig,
    ) -> Result<Self, ConfigError> {
        config.validate()?;
        reward_config.validate()?;
        Ok(Self {
            reward: RewardCalculator::new(system, analyzer, reward_config),
            config,
        })
    }

    /// Runs the descent from initial centres drawn with `seed` and returns
    /// the best legalised placement, recording every exact evaluation in
    /// `search` as it happens. The descent stops after
    /// [`GradientConfig::iterations`] iterations or when `search` is
    /// exhausted, whichever comes first.
    ///
    /// # Errors
    ///
    /// Returns [`GradientStalled`] if no iterate could be legalised.
    pub fn run(
        &self,
        seed: u64,
        search: &mut SearchRun<'_>,
    ) -> Result<GradientResult, GradientStalled> {
        let cfg = &self.config;
        let system = self.reward.system();
        let n = system.chiplet_count();
        let grid = PlacementGrid::new(cfg.grid.0, cfg.grid.1);
        let footprints: Vec<(f64, f64)> = system
            .chiplet_ids()
            .map(|id| system.chiplet(id).footprint(Rotation::None))
            .collect();

        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        // Split whichever budget binds first — a legalised iteration costs
        // one evaluation, so an evaluation cap below `iterations`
        // effectively shortens the run. The last third of the budget is
        // reserved for the discrete polish pass below.
        let effective_iterations = search.capped(cfg.iterations);
        let probe_iterations = (effective_iterations - effective_iterations / 3).max(1);
        let per_start = probe_iterations.div_ceil(cfg.restarts).max(1);
        let mut wl_grad = vec![Point::new(0.0, 0.0); n];
        let mut grad = vec![Point::new(0.0, 0.0); n];
        const BETA1: f64 = 0.9;
        const BETA2: f64 = 0.999;
        const EPS: f64 = 1e-8;

        let mut best: Option<(Placement, RewardBreakdown)> = None;
        let mut iterations_run = 0usize;
        let mut converged = false;
        let lambda = self.reward.config().lambda;

        // Rounds alternate probing and polishing until the budget is gone:
        // the first round spends two thirds of it on random starts, each
        // later round adds one more start, and the winner is re-polished
        // whenever it changes.
        let mut next_probe_target = probe_iterations;
        let mut last_polished = f64::NEG_INFINITY;
        'rounds: loop {
            'starts: while iterations_run < next_probe_target {
                let mut centers = self.initial_centers(&mut rng, &footprints);
                // Adam moment estimates, per coordinate; fresh for every start.
                let mut m = vec![Point::new(0.0, 0.0); n];
                let mut v = vec![Point::new(0.0, 0.0); n];

                for iteration in 0..per_start {
                    if iterations_run == next_probe_target || search.exhausted() {
                        break 'starts;
                    }
                    // Recording never touches the RNG or the iterate, so
                    // results are identical with metrics on or off.
                    let timer = Stopwatch::start();
                    iterations_run += 1;

                    // 1. Assemble the continuous loss gradient (reward
                    //    units/mm). The sharpness anneal restarts with the
                    //    start, so every probe begins on a smooth landscape.
                    let gamma = (cfg.wirelength_sharpness
                        * cfg.sharpness_growth.powi(iteration as i32))
                    .min(1e6);
                    smoothed_wirelength_gradient(system, &centers, gamma, &mut wl_grad);
                    for (g, wl) in grad.iter_mut().zip(&wl_grad) {
                        g.x = lambda * wl.x;
                        g.y = lambda * wl.y;
                    }
                    self.add_thermal_gradient(&centers, &footprints, &mut grad);
                    self.add_separation_gradient(&centers, &footprints, &mut grad);

                    // 2. Adam step, projected back into the interposer box.
                    let t = (iteration + 1) as i32;
                    let bias1 = 1.0 - BETA1.powi(t);
                    let bias2 = 1.0 - BETA2.powi(t);
                    let mut max_step = 0.0f64;
                    for i in 0..n {
                        let (w, h) = footprints[i];
                        for (axis, lo, hi) in [
                            (0, w / 2.0, system.interposer_width() - w / 2.0),
                            (1, h / 2.0, system.interposer_height() - h / 2.0),
                        ] {
                            let (g, m, v, c) = if axis == 0 {
                                (grad[i].x, &mut m[i].x, &mut v[i].x, &mut centers[i].x)
                            } else {
                                (grad[i].y, &mut m[i].y, &mut v[i].y, &mut centers[i].y)
                            };
                            *m = BETA1 * *m + (1.0 - BETA1) * g;
                            *v = BETA2 * *v + (1.0 - BETA2) * g * g;
                            let step =
                                cfg.learning_rate * (*m / bias1) / ((*v / bias2).sqrt() + EPS);
                            max_step = max_step.max(step.abs());
                            *c = (*c - step).clamp(lo, hi.max(lo));
                        }
                    }

                    // 3. Legalise onto the shared grid and score exactly.
                    if let Some(placement) = self.legalize(&grid, &centers, &footprints) {
                        if let Ok(breakdown) = self.reward.evaluate(&placement) {
                            if search.record(breakdown.reward) {
                                best = Some((placement, breakdown));
                            }
                        }
                    }

                    timer.stop(obs_histogram!("grad.step_ns"));
                    if max_step < cfg.tolerance_mm {
                        // This start settled; spend what remains on a new one.
                        converged = true;
                        continue 'starts;
                    }
                }
            }

            // 4. Detailed-placement polish: snapping a continuous optimum
            //    loses adjacency, so the reserved budget greedily relocates one
            //    chiplet at a time on the shared grid — candidate cells are
            //    ranked by the cheap centre-to-centre wirelength (no thermal
            //    solve) and only the best-ranked move pays an exact evaluation,
            //    which also guards acceptance. Passes repeat until none of the
            //    chiplets improves or the budget runs out. Skipped when the
            //    round's probes found nothing better — re-polishing the same
            //    placement would re-buy the same rejections.
            let polishable = best
                .as_ref()
                .map(|(_, bb)| bb.reward > last_polished)
                .unwrap_or(false);
            if polishable {
                'polish: {
                    let Some((placement, breakdown)) = best.clone() else {
                        break 'polish;
                    };
                    let mut current = placement;
                    let mut current_reward = breakdown.reward;
                    loop {
                        let mut improved = false;
                        for i in 0..n {
                            let id = ChipletId::from_index(i);
                            let Some(center) = current.center_of(id, system) else {
                                continue;
                            };
                            let home = grid.nearest_cell(system, center);
                            let home_rotation = current.rotation(id).unwrap_or(Rotation::None);
                            // Rank every feasible destination — including the 90°
                            // rotation SA's move set explores — by the cheap
                            // centre-to-centre wirelength; ties keep the lowest
                            // cell index and the unrotated orientation.
                            let mut candidate: Option<(usize, Rotation, f64)> = None;
                            for rotation in [Rotation::None, Rotation::Quarter] {
                                let mask = grid.feasibility_mask(
                                    system,
                                    &current,
                                    id,
                                    rotation,
                                    cfg.min_spacing_mm,
                                );
                                let mut scratch = current.clone();
                                for (cell, &feasible) in mask.iter().enumerate() {
                                    if !feasible || (cell == home && rotation == home_rotation) {
                                        continue;
                                    }
                                    if grid
                                        .apply_action(system, &mut scratch, id, rotation, cell)
                                        .is_err()
                                    {
                                        continue;
                                    }
                                    let wl = total_wirelength(system, &scratch);
                                    if candidate
                                        .map(|(_, _, best_wl)| wl < best_wl)
                                        .unwrap_or(true)
                                    {
                                        candidate = Some((cell, rotation, wl));
                                    }
                                }
                            }
                            let Some((cell, rotation, _)) = candidate else {
                                continue;
                            };
                            if iterations_run == cfg.iterations || search.exhausted() {
                                break 'polish;
                            }
                            iterations_run += 1;
                            let mut trial = current.clone();
                            if grid
                                .apply_action(system, &mut trial, id, rotation, cell)
                                .is_err()
                            {
                                continue;
                            }
                            let Ok(b) = self.reward.evaluate(&trial) else {
                                continue;
                            };
                            if search.record(b.reward) {
                                best = Some((trial.clone(), b));
                            }
                            if b.reward > current_reward {
                                current_reward = b.reward;
                                current = trial;
                                improved = true;
                            }
                        }
                        // Relocation alone gets trapped when two chiplets hold
                        // each other's best cells; one ranked pairwise swap per
                        // pass breaks those deadlocks. `current` is legal (it
                        // came from `legalize` or a masked relocation), so
                        // checking the two swapped chiplets is exact.
                        let mut swap: Option<(Placement, f64)> = None;
                        for i in 0..n {
                            for j in (i + 1)..n {
                                let (a, b) = (ChipletId::from_index(i), ChipletId::from_index(j));
                                let (Some(ca), Some(cb)) =
                                    (current.center_of(a, system), current.center_of(b, system))
                                else {
                                    continue;
                                };
                                let mut trial = current.clone();
                                let cell_a = grid.nearest_cell(system, ca);
                                let cell_b = grid.nearest_cell(system, cb);
                                let rot_a = current.rotation(a).unwrap_or(Rotation::None);
                                let rot_b = current.rotation(b).unwrap_or(Rotation::None);
                                if cell_a == cell_b
                                    || grid
                                        .apply_action(system, &mut trial, a, rot_a, cell_b)
                                        .is_err()
                                    || grid
                                        .apply_action(system, &mut trial, b, rot_b, cell_a)
                                        .is_err()
                                    || !system.moved_chiplets_legal(
                                        &trial,
                                        &[a, b],
                                        cfg.min_spacing_mm,
                                    )
                                {
                                    continue;
                                }
                                let wl = total_wirelength(system, &trial);
                                if swap
                                    .as_ref()
                                    .map(|(_, best_wl)| wl < *best_wl)
                                    .unwrap_or(true)
                                {
                                    swap = Some((trial, wl));
                                }
                            }
                        }
                        if let Some((trial, _)) = swap {
                            if iterations_run == cfg.iterations || search.exhausted() {
                                break 'polish;
                            }
                            iterations_run += 1;
                            if let Ok(b) = self.reward.evaluate(&trial) {
                                if search.record(b.reward) {
                                    best = Some((trial.clone(), b));
                                }
                                if b.reward > current_reward {
                                    current_reward = b.reward;
                                    current = trial;
                                    improved = true;
                                }
                            }
                        }
                        if !improved {
                            break;
                        }
                    }
                }
                last_polished = best
                    .as_ref()
                    .map(|(_, bb)| bb.reward)
                    .unwrap_or(last_polished);
            }

            if iterations_run >= cfg.iterations || search.exhausted() {
                break 'rounds;
            }
            next_probe_target = (iterations_run + per_start).min(cfg.iterations);
        }

        obs_counter!("grad.iterations").add(iterations_run as u64);
        if converged {
            obs_counter!("grad.converged").inc();
        }

        let (best_placement, best_breakdown) = best.ok_or(GradientStalled)?;
        Ok(GradientResult {
            best_placement,
            best_breakdown,
            evaluations: search.evaluations(),
            iterations_run,
            converged,
        })
    }

    /// Random initial centres, uniform inside the interposer with each
    /// footprint's half-extent as margin; one batch per start, drawn from
    /// the run's shared RNG.
    fn initial_centers(&self, rng: &mut ChaCha8Rng, footprints: &[(f64, f64)]) -> Vec<Point> {
        let system = self.reward.system();
        footprints
            .iter()
            .map(|&(w, h)| {
                let x = sample_box(rng, w / 2.0, system.interposer_width() - w / 2.0);
                let y = sample_box(rng, h / 2.0, system.interposer_height() - h / 2.0);
                Point::new(x, y)
            })
            .collect()
    }

    /// Adds the temperature force: the analytic gradient of the smoothed
    /// maximum temperature, weighted by the derivative of the reward's
    /// temperature penalty plus the always-on spreading weight. A backend
    /// without a differentiable model contributes nothing.
    fn add_thermal_gradient(
        &self,
        centers: &[Point],
        footprints: &[(f64, f64)],
        grad: &mut [Point],
    ) {
        let cfg = &self.config;
        if cfg.thermal_weight == 0.0 && self.reward.config().mu == 0.0 {
            return;
        }
        let system = self.reward.system();
        // The scratch placement may overlap or stick out — the LTI
        // superposition is defined (and differentiable) regardless.
        let mut scratch = Placement::for_system(system);
        for (i, id) in system.chiplet_ids().enumerate() {
            scratch.place(id, centered_position(footprints[i], centers[i]));
        }
        if let Ok(Some(thermal)) =
            self.reward
                .analyzer()
                .thermal_gradient(system, &scratch, cfg.thermal_sharpness)
        {
            let weight =
                cfg.thermal_weight + self.temperature_penalty_gradient(thermal.smoothed_max_c);
            for (g, t) in grad.iter_mut().zip(&thermal.gradient) {
                g.x += weight * t.x;
                g.y += weight * t.y;
            }
        }
    }

    /// Derivative of the reward's temperature penalty
    /// `p(T) = µ·max(T−T₀, 0)^α / (1 + e^{−(T−T₀)})` with respect to `T`,
    /// in reward units per °C; identically zero at and below the limit.
    fn temperature_penalty_gradient(&self, max_temperature_c: f64) -> f64 {
        let reward = self.reward.config();
        let excess = max_temperature_c - reward.temperature_limit_c;
        if excess <= 0.0 {
            return 0.0;
        }
        let exp_neg = (-excess).exp();
        let sigmoid = 1.0 + exp_neg;
        reward.mu
            * (reward.alpha * excess.powf(reward.alpha - 1.0) * sigmoid
                + excess.powf(reward.alpha) * exp_neg)
            / (sigmoid * sigmoid)
    }

    /// Adds the separation forces: pairwise overlap (with the minimum
    /// spacing as margin) pushes chiplets apart, and out-of-outline
    /// violations pull them back inside.
    fn add_separation_gradient(
        &self,
        centers: &[Point],
        footprints: &[(f64, f64)],
        grad: &mut [Point],
    ) {
        let cfg = &self.config;
        let system = self.reward.system();
        let n = centers.len();
        if cfg.overlap_weight > 0.0 {
            for i in 0..n {
                for j in (i + 1)..n {
                    let dx = centers[i].x - centers[j].x;
                    let dy = centers[i].y - centers[j].y;
                    let ox =
                        (footprints[i].0 + footprints[j].0) / 2.0 + cfg.min_spacing_mm - dx.abs();
                    let oy =
                        (footprints[i].1 + footprints[j].1) / 2.0 + cfg.min_spacing_mm - dy.abs();
                    if ox > 0.0 && oy > 0.0 {
                        // d(ox·oy)/dxᵢ = −sign(dx)·oy (and symmetrically
                        // for y and for chiplet j). sign(0) picks +1 so two
                        // exactly-coincident chiplets still separate.
                        let sx = if dx >= 0.0 { 1.0 } else { -1.0 };
                        let sy = if dy >= 0.0 { 1.0 } else { -1.0 };
                        let gx = cfg.overlap_weight * sx * oy;
                        let gy = cfg.overlap_weight * sy * ox;
                        grad[i].x -= gx;
                        grad[i].y -= gy;
                        grad[j].x += gx;
                        grad[j].y += gy;
                    }
                }
            }
        }
        if cfg.boundary_weight > 0.0 {
            for i in 0..n {
                let (w, h) = footprints[i];
                let lo_x = (w / 2.0 - centers[i].x).max(0.0);
                let hi_x = (centers[i].x + w / 2.0 - system.interposer_width()).max(0.0);
                let lo_y = (h / 2.0 - centers[i].y).max(0.0);
                let hi_y = (centers[i].y + h / 2.0 - system.interposer_height()).max(0.0);
                grad[i].x += cfg.boundary_weight * 2.0 * (hi_x - lo_x);
                grad[i].y += cfg.boundary_weight * 2.0 * (hi_y - lo_y);
            }
        }
    }

    /// Snaps the continuous centres onto the grid: chiplets legalise in
    /// decreasing-area order (hardest first), each taking the cell nearest
    /// its centre when feasible and otherwise the feasible cell whose
    /// centre is closest (lowest index on ties — fully deterministic).
    /// Returns `None` when some chiplet has no feasible cell.
    fn legalize(
        &self,
        grid: &PlacementGrid,
        centers: &[Point],
        footprints: &[(f64, f64)],
    ) -> Option<Placement> {
        let system = self.reward.system();
        let mut order: Vec<usize> = (0..centers.len()).collect();
        order.sort_by(|&a, &b| {
            let area = |i: usize| footprints[i].0 * footprints[i].1;
            area(b).partial_cmp(&area(a)).unwrap().then(a.cmp(&b))
        });
        let mut placement = Placement::for_system(system);
        let spacing = self.config.min_spacing_mm;
        for i in order {
            let id = ChipletId::from_index(i);
            let preferred = grid.nearest_cell(system, centers[i]);
            // The full mask is built only when the preferred cell is blocked.
            let preferred_free =
                grid.cell_feasible(system, &placement, id, Rotation::None, spacing, preferred);
            let cell = if preferred_free {
                preferred
            } else {
                let mask = grid.feasibility_mask(system, &placement, id, Rotation::None, spacing);
                let mut chosen = None;
                let mut best_d2 = f64::INFINITY;
                for (cell, &feasible) in mask.iter().enumerate() {
                    if !feasible {
                        continue;
                    }
                    let center = grid
                        .cell_center(system, cell)
                        .expect("mask index is in range");
                    let d2 = (center.x - centers[i].x).powi(2) + (center.y - centers[i].y).powi(2);
                    if d2 < best_d2 {
                        best_d2 = d2;
                        chosen = Some(cell);
                    }
                }
                chosen?
            };
            grid.apply_action(system, &mut placement, id, Rotation::None, cell)
                .expect("chosen cell is in range");
        }
        Some(placement)
    }
}

/// Uniform sample from `[lo, hi]`, degrading to the midpoint when the box
/// is empty (a footprint as large as the interposer).
fn sample_box(rng: &mut ChaCha8Rng, lo: f64, hi: f64) -> f64 {
    if hi > lo {
        rng.gen_range(lo..hi)
    } else {
        (lo + hi) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlp_chiplet::{Chiplet, Net};
    use rlp_thermal::{
        CharacterizationOptions, FastThermalModel, GridThermalSolver, ThermalConfig,
    };

    fn system() -> ChipletSystem {
        let mut sys = ChipletSystem::new("t", 36.0, 36.0);
        let a = sys.add_chiplet(Chiplet::new("a", 9.0, 9.0, 30.0));
        let b = sys.add_chiplet(Chiplet::new("b", 7.0, 7.0, 15.0));
        let c = sys.add_chiplet(Chiplet::new("c", 5.0, 5.0, 5.0));
        sys.add_net(Net::new(a, b, 64));
        sys.add_net(Net::new(b, c, 16));
        sys
    }

    fn fast_model() -> AnyThermalAnalyzer {
        AnyThermalAnalyzer::Fast(
            FastThermalModel::characterize(
                &ThermalConfig::with_grid(12, 12),
                36.0,
                36.0,
                &CharacterizationOptions {
                    footprint_samples_mm: vec![4.0, 8.0, 12.0],
                    distance_bins: 16,
                    ..CharacterizationOptions::default()
                },
            )
            .unwrap(),
        )
    }

    fn quick_config() -> GradientConfig {
        GradientConfig {
            iterations: 60,
            grid: (12, 12),
            ..GradientConfig::default()
        }
    }

    /// Runs `engine` on `seed` under at most `cap` evaluations, silently.
    fn run_silently(
        engine: &GradientDescent,
        seed: u64,
        cap: Option<usize>,
    ) -> Result<GradientResult, GradientStalled> {
        let mut silent = |_, _, _| {};
        engine.run(seed, &mut SearchRun::new(cap, None, &mut silent))
    }

    #[test]
    fn descent_finds_a_legal_placement_and_improves() {
        let engine = GradientDescent::new(
            system(),
            fast_model(),
            RewardConfig::default(),
            quick_config(),
        )
        .unwrap();
        let mut samples = Vec::new();
        let mut on_candidate = |index, reward, best_reward| {
            assert_eq!(index, samples.len(), "evaluation indices must be dense");
            samples.push((index, reward, best_reward));
        };
        let result = engine
            .run(0, &mut SearchRun::new(None, None, &mut on_candidate))
            .unwrap();
        assert!(result.best_placement.is_complete());
        assert!(system()
            .validate_placement(&result.best_placement, 0.2)
            .is_ok());
        assert!(result.best_breakdown.reward < 0.0);
        assert!(result.best_breakdown.wirelength_mm > 0.0);
        assert_eq!(samples.len(), result.evaluations);
        assert!(result.evaluations > 0 && result.evaluations <= result.iterations_run);
        // The best-so-far series is monotone and the descent actually
        // improves over the first legalised iterate.
        assert!(samples.windows(2).all(|w| w[1].2 >= w[0].2));
        let first = samples.first().unwrap().1;
        assert!(result.best_breakdown.reward >= first);
    }

    #[test]
    fn fixed_seed_runs_are_bit_identical() {
        let engine = GradientDescent::new(
            system(),
            fast_model(),
            RewardConfig::default(),
            quick_config(),
        )
        .unwrap();
        let run = |seed| run_silently(&engine, seed, None).unwrap();
        let (a, b) = (run(7), run(7));
        assert_eq!(a.best_placement, b.best_placement);
        assert_eq!(a.best_breakdown, b.best_breakdown);
        assert_eq!(a.evaluations, b.evaluations);
        assert_eq!(a.iterations_run, b.iterations_run);
        // A different seed starts elsewhere (and generally ends elsewhere).
        let c = run(8);
        assert!(
            a.best_placement != c.best_placement || a.best_breakdown != c.best_breakdown,
            "different seeds should explore different starts"
        );
    }

    #[test]
    fn grid_backend_descends_on_wirelength_alone() {
        // The grid solver has no thermal gradient; the engine must still
        // legalise and improve using the wirelength force.
        let engine = GradientDescent::new(
            system(),
            AnyThermalAnalyzer::Grid(GridThermalSolver::new(ThermalConfig::with_grid(10, 10))),
            RewardConfig::default(),
            GradientConfig {
                iterations: 20,
                ..quick_config()
            },
        )
        .unwrap();
        let result = run_silently(&engine, 1, Some(10)).unwrap();
        assert!(result.best_placement.is_complete());
        assert!(result.evaluations <= 10);
    }

    #[test]
    fn single_chiplet_converges_immediately() {
        let mut sys = ChipletSystem::new("solo", 20.0, 20.0);
        sys.add_chiplet(Chiplet::new("a", 5.0, 5.0, 10.0));
        let engine = GradientDescent::new(
            sys,
            AnyThermalAnalyzer::Grid(GridThermalSolver::new(ThermalConfig::with_grid(8, 8))),
            RewardConfig::default(),
            quick_config(),
        )
        .unwrap();
        let result = run_silently(&engine, 3, None).unwrap();
        // No nets, no thermal gradient, inside the outline: zero gradient.
        // Every start converges on its first iteration; leftover probe
        // budget goes to more one-step starts and the polish pass stops at
        // a local optimum, so the budget is never exceeded.
        assert!(result.converged);
        assert!(result.iterations_run <= quick_config().iterations);
    }

    #[test]
    fn invalid_configs_are_rejected_with_typed_errors() {
        let check = |config: GradientConfig, field: &str| {
            let err = config.validate().unwrap_err();
            assert_eq!(err.field(), field, "{err}");
        };
        check(
            GradientConfig {
                iterations: 0,
                ..GradientConfig::default()
            },
            "gradient.iterations",
        );
        check(
            GradientConfig {
                restarts: 0,
                ..GradientConfig::default()
            },
            "gradient.restarts",
        );
        check(
            GradientConfig {
                learning_rate: 0.0,
                ..GradientConfig::default()
            },
            "gradient.learning_rate",
        );
        check(
            GradientConfig {
                sharpness_growth: 0.5,
                ..GradientConfig::default()
            },
            "gradient.sharpness_growth",
        );
        check(
            GradientConfig {
                overlap_weight: -1.0,
                ..GradientConfig::default()
            },
            "gradient.overlap_weight",
        );
        check(
            GradientConfig {
                grid: (0, 8),
                ..GradientConfig::default()
            },
            "gradient.grid",
        );
        assert!(GradientConfig::default().validate().is_ok());
    }
}
