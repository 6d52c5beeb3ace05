//! The fast physics-informed thermal model (the paper's contribution).
//!
//! The thermal resistance network of the package is linear and
//! time-invariant, so in steady state a chiplet's temperature rise is the
//! superposition of
//!
//! * its **self-heating**: `R_self(w, h) · P_i`, where `R_self` is the
//!   self-thermal resistance of a die with footprint `w × h`, and
//! * **mutual heating** from every other chiplet: `R_mutual(d_ij) · P_j`,
//!   where `d_ij` is the centre-to-centre distance.
//!
//! Both resistance tables are *characterised* once per package configuration
//! by running the [`crate::GridThermalSolver`] on single-hot-chiplet
//! configurations — a 2D sweep over die footprints for the self term and a
//! distance histogram of the temperature field around an isolated source for
//! the mutual term, exactly as the paper describes. After characterisation,
//! evaluating a floorplan costs a few table lookups per chiplet pair, which
//! is where the reported >120x speed-up over the full solver comes from.
//!
//! The characterisation probes run on `std::thread::available_parallelism()`
//! threads against one grid operator assembled for the interposer, and
//! their results are reduced in sweep order: the tables are bit-identical
//! whatever the core count.

use crate::config::ThermalConfig;
use crate::error::ThermalError;
use crate::grid::GridThermalSolver;
use crate::ThermalAnalyzer;
use rlp_chiplet::{Chiplet, ChipletId, ChipletSystem, Placement, Point, Position, Rect};
use serde::{Deserialize, Serialize};
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Options controlling fast-model characterisation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CharacterizationOptions {
    /// Die side lengths (mm) sampled for the 2D self-resistance table.
    pub footprint_samples_mm: Vec<f64>,
    /// Power (W) applied to the probe chiplet during characterisation.
    pub reference_power_w: f64,
    /// Number of distance bins in the 1D mutual-resistance table.
    pub distance_bins: usize,
    /// Footprint (mm) of the probe chiplet used for mutual characterisation.
    pub mutual_source_size_mm: f64,
}

impl Default for CharacterizationOptions {
    fn default() -> Self {
        Self {
            footprint_samples_mm: vec![2.0, 4.0, 6.0, 8.0, 12.0, 16.0, 20.0, 26.0],
            reference_power_w: 10.0,
            distance_bins: 40,
            mutual_source_size_mm: 4.0,
        }
    }
}

/// The characterised fast thermal model for one interposer configuration.
///
/// # Examples
///
/// ```no_run
/// use rlp_chiplet::{Chiplet, ChipletSystem, Placement, Position};
/// use rlp_thermal::{CharacterizationOptions, FastThermalModel, ThermalAnalyzer, ThermalConfig};
///
/// let mut sys = ChipletSystem::new("demo", 30.0, 30.0);
/// let cpu = sys.add_chiplet(Chiplet::new("cpu", 10.0, 10.0, 40.0));
/// let mut placement = Placement::for_system(&sys);
/// placement.place(cpu, Position::new(10.0, 10.0));
///
/// let model = FastThermalModel::characterize(
///     &ThermalConfig::default(),
///     30.0,
///     30.0,
///     &CharacterizationOptions::default(),
/// ).unwrap();
/// let t = model.max_temperature(&sys, &placement).unwrap();
/// assert!(t > 45.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FastThermalModel {
    ambient_c: f64,
    interposer_width_mm: f64,
    interposer_height_mm: f64,
    /// Sampled die widths for the self-resistance table (sorted, mm).
    widths_mm: Vec<f64>,
    /// Sampled die heights for the self-resistance table (sorted, mm).
    heights_mm: Vec<f64>,
    /// Self-thermal resistance table, `self_resistance[h_idx * widths + w_idx]`, K/W.
    self_resistance_k_per_w: Vec<f64>,
    /// Bin-centre distances for the mutual-resistance table (sorted, mm).
    distances_mm: Vec<f64>,
    /// Mutual thermal resistance per bin, K/W.
    mutual_resistance_k_per_w: Vec<f64>,
}

impl FastThermalModel {
    /// Characterises the model for an interposer of the given size using the
    /// grid solver as the reference, following the paper's procedure.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::InvalidConfig`] for unusable options and
    /// propagates solver errors from the underlying characterisation runs:
    /// the first failing probe in sweep order.
    pub fn characterize(
        config: &ThermalConfig,
        interposer_width_mm: f64,
        interposer_height_mm: f64,
        options: &CharacterizationOptions,
    ) -> Result<Self, ThermalError> {
        if options.footprint_samples_mm.len() < 2 {
            return Err(ThermalError::InvalidConfig {
                reason: "need at least two footprint samples".to_string(),
            });
        }
        if options.distance_bins < 2 {
            return Err(ThermalError::InvalidConfig {
                reason: "need at least two distance bins".to_string(),
            });
        }
        if options.reference_power_w <= 0.0 {
            return Err(ThermalError::InvalidConfig {
                reason: "reference power must be positive".to_string(),
            });
        }
        let solver = GridThermalSolver::try_new(config.clone())?;
        let workers = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
        Self::characterize_on(
            solver,
            interposer_width_mm,
            interposer_height_mm,
            options,
            workers,
        )
    }

    /// The characterisation sweep on up to `workers` threads, with one
    /// conductance operator assembled for the whole sweep.
    fn characterize_on(
        solver: GridThermalSolver,
        interposer_width_mm: f64,
        interposer_height_mm: f64,
        options: &CharacterizationOptions,
        workers: usize,
    ) -> Result<Self, ThermalError> {
        let solver = solver.with_interposer(interposer_width_mm, interposer_height_mm);
        let config = solver.config();
        let mut samples = options.footprint_samples_mm.clone();
        samples.sort_by(|a, b| a.partial_cmp(b).expect("footprint samples must be finite"));
        samples.dedup();
        // Footprints larger than the interposer cannot occur in a legal
        // placement; clamp the sample range so characterisation stays legal.
        let max_w = interposer_width_mm * 0.95;
        let max_h = interposer_height_mm * 0.95;
        let widths_mm: Vec<f64> = samples.iter().map(|&s| s.min(max_w)).collect();
        let heights_mm: Vec<f64> = samples.iter().map(|&s| s.min(max_h)).collect();
        let p0 = options.reference_power_w;

        // The mutual-resistance table is a distance histogram of the field
        // around an isolated source, using two source positions so that the
        // table covers distances up to the interposer diagonal.
        let src = options.mutual_source_size_mm.min(max_w).min(max_h);
        let source_positions = [
            Point2::new(interposer_width_mm / 2.0, interposer_height_mm / 2.0),
            Point2::new(interposer_width_mm * 0.2, interposer_height_mm * 0.2),
        ];

        // Probes in sweep order: one solve per (w, h) footprint sample, in
        // self-resistance table order, then one per mutual source.
        let footprints = widths_mm.len() * heights_mm.len();
        let probe = |index: usize| -> Result<Probe, ThermalError> {
            let mut sys = ChipletSystem::new("probe", interposer_width_mm, interposer_height_mm);
            if index < footprints {
                let w = widths_mm[index % widths_mm.len()];
                let h = heights_mm[index / widths_mm.len()];
                let id = sys.add_chiplet(Chiplet::new("probe", w, h, p0));
                let mut placement = Placement::for_system(&sys);
                placement.place(
                    id,
                    Position::new(
                        (interposer_width_mm - w) / 2.0,
                        (interposer_height_mm - h) / 2.0,
                    ),
                );
                let solution = solver.solve(&sys, &placement)?;
                let temps = solver.chiplet_temperatures_from_solution(&sys, &placement, &solution);
                Ok(Probe::SelfResistance((temps[0] - config.ambient_c) / p0))
            } else {
                let center = source_positions[index - footprints];
                let id = sys.add_chiplet(Chiplet::new("src", src, src, p0));
                let mut placement = Placement::for_system(&sys);
                placement.place(
                    id,
                    Position::new(center.x - src / 2.0, center.y - src / 2.0),
                );
                let solution = solver.solve(&sys, &placement)?;
                Ok(Probe::MutualField(solution.die_temperature_field()))
            }
        };
        let mut self_resistance = Vec::with_capacity(footprints);
        let mut fields = Vec::with_capacity(source_positions.len());
        for probe in sweep(footprints + source_positions.len(), workers, probe)? {
            match probe {
                Probe::SelfResistance(r) => self_resistance.push(r),
                Probe::MutualField(field) => fields.push(field),
            }
        }

        let (nx, ny) = (config.grid_nx, config.grid_ny);
        let max_distance = (interposer_width_mm.powi(2) + interposer_height_mm.powi(2)).sqrt();
        let bin_width = max_distance / options.distance_bins as f64;
        let mut bin_sum = vec![0.0; options.distance_bins];
        let mut bin_count = vec![0usize; options.distance_bins];
        for (source_center, field) in source_positions.iter().zip(&fields) {
            let cell_w = interposer_width_mm / nx as f64;
            let cell_h = interposer_height_mm / ny as f64;
            for row in 0..ny {
                for col in 0..nx {
                    let cx = (col as f64 + 0.5) * cell_w;
                    let cy = (row as f64 + 0.5) * cell_h;
                    let d =
                        ((cx - source_center.x).powi(2) + (cy - source_center.y).powi(2)).sqrt();
                    // Cells inside the source footprint measure self-heating,
                    // not mutual heating; skip them.
                    if d < src {
                        continue;
                    }
                    let bin = ((d / bin_width) as usize).min(options.distance_bins - 1);
                    bin_sum[bin] += (field[row * nx + col] - config.ambient_c) / p0;
                    bin_count[bin] += 1;
                }
            }
        }

        let mut distances_mm = Vec::with_capacity(options.distance_bins);
        let mut mutual_resistance = Vec::with_capacity(options.distance_bins);
        let mut last = 0.0;
        for bin in 0..options.distance_bins {
            let center = (bin as f64 + 0.5) * bin_width;
            let value = if bin_count[bin] > 0 {
                bin_sum[bin] / bin_count[bin] as f64
            } else {
                last
            };
            last = value;
            distances_mm.push(center);
            mutual_resistance.push(value);
        }

        Ok(Self {
            ambient_c: config.ambient_c,
            interposer_width_mm,
            interposer_height_mm,
            widths_mm,
            heights_mm,
            self_resistance_k_per_w: self_resistance,
            distances_mm,
            mutual_resistance_k_per_w: mutual_resistance,
        })
    }

    /// Ambient temperature the model was characterised at, in Celsius.
    pub fn ambient(&self) -> f64 {
        self.ambient_c
    }

    /// Interposer outline `(width, height)` the model was characterised for, mm.
    pub fn interposer(&self) -> (f64, f64) {
        (self.interposer_width_mm, self.interposer_height_mm)
    }

    /// Self-thermal resistance of a die with footprint `w × h` (mm), K/W.
    ///
    /// Values outside the characterised range are clamped to the table edge.
    pub fn self_resistance(&self, width_mm: f64, height_mm: f64) -> f64 {
        bilinear(
            &self.widths_mm,
            &self.heights_mm,
            &self.self_resistance_k_per_w,
            width_mm,
            height_mm,
        )
    }

    /// Mutual thermal resistance at centre-to-centre distance `d` (mm), K/W.
    ///
    /// Values outside the characterised range are clamped to the table edge.
    pub fn mutual_resistance(&self, distance_mm: f64) -> f64 {
        linear(
            &self.distances_mm,
            &self.mutual_resistance_k_per_w,
            distance_mm,
        )
    }

    /// Derivative of [`FastThermalModel::mutual_resistance`] with respect to
    /// distance, K/W per mm: the slope of the active table segment, zero in
    /// the clamped regions beyond the characterised range.
    pub fn mutual_resistance_gradient(&self, distance_mm: f64) -> f64 {
        linear_gradient(
            &self.distances_mm,
            &self.mutual_resistance_k_per_w,
            distance_mm,
        )
    }

    /// Checks that a system matches the characterised interposer outline.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::OutOfCharacterizedRange`] on mismatch.
    pub fn check_system(&self, system: &ChipletSystem) -> Result<(), ThermalError> {
        let tol = 1e-6;
        if (system.interposer_width() - self.interposer_width_mm).abs() > tol
            || (system.interposer_height() - self.interposer_height_mm).abs() > tol
        {
            return Err(ThermalError::OutOfCharacterizedRange {
                query: format!(
                    "system interposer {}x{} mm differs from characterised {}x{} mm",
                    system.interposer_width(),
                    system.interposer_height(),
                    self.interposer_width_mm,
                    self.interposer_height_mm
                ),
            });
        }
        Ok(())
    }
}

/// Internal 2D point helper (avoids importing the full geometry type here).
#[derive(Clone, Copy)]
struct Point2 {
    x: f64,
    y: f64,
}

impl Point2 {
    fn new(x: f64, y: f64) -> Self {
        Self { x, y }
    }
}

/// What one characterisation probe keeps of its solve.
enum Probe {
    /// A footprint probe: the self-resistance of its die, K/W.
    SelfResistance(f64),
    /// A mutual-source probe: the die-layer temperature field, °C.
    MutualField(Vec<f64>),
}

/// Runs `probe(0..count)` on up to `workers` threads, the calling thread
/// being one of them, and returns the results in index order.
///
/// Workers take the next index from a shared counter, so indices start in
/// increasing order. After a failure no new index starts, but every index
/// below it has already started and runs to completion. The error returned
/// is therefore the first in index order: the one a serial sweep returns.
fn sweep<T: Send>(
    count: usize,
    workers: usize,
    probe: impl Fn(usize) -> Result<T, ThermalError> + Sync,
) -> Result<Vec<T>, ThermalError> {
    // Relaxed is enough for both atomics: the counter's read-modify-writes
    // are totally ordered on their own, `failed` is only a hint to stop
    // early, and results travel back through the thread joins.
    let next = AtomicUsize::new(0);
    let failed = AtomicBool::new(false);
    let work = || {
        let mut done = Vec::new();
        while !failed.load(Ordering::Relaxed) {
            let index = next.fetch_add(1, Ordering::Relaxed);
            if index >= count {
                break;
            }
            let result = probe(index);
            if result.is_err() {
                failed.store(true, Ordering::Relaxed);
            }
            done.push((index, result));
        }
        done
    };
    let batches = std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..workers.min(count).max(1))
            .map(|_| scope.spawn(work))
            .collect();
        let mut batches = vec![work()];
        for helper in helpers {
            batches.push(
                helper
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic)),
            );
        }
        batches
    });
    let mut slots: Vec<Option<Result<T, ThermalError>>> =
        std::iter::repeat_with(|| None).take(count).collect();
    for (index, result) in batches.into_iter().flatten() {
        slots[index] = Some(result);
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("every probe before the first failure ran"))
        .collect()
}

/// Piecewise-linear interpolation with clamping at the table edges.
fn linear(xs: &[f64], ys: &[f64], x: f64) -> f64 {
    debug_assert_eq!(xs.len(), ys.len());
    if xs.is_empty() {
        return 0.0;
    }
    if x <= xs[0] {
        return ys[0];
    }
    if x >= xs[xs.len() - 1] {
        return ys[ys.len() - 1];
    }
    let mut hi = 1;
    while xs[hi] < x {
        hi += 1;
    }
    let lo = hi - 1;
    let t = (x - xs[lo]) / (xs[hi] - xs[lo]);
    ys[lo] + t * (ys[hi] - ys[lo])
}

/// Bilinear interpolation over a rectangular table with edge clamping.
///
/// Indexes the table directly — this runs once per chiplet per thermal
/// evaluation, so it must not allocate.
fn bilinear(xs: &[f64], ys: &[f64], table: &[f64], x: f64, y: f64) -> f64 {
    debug_assert_eq!(table.len(), xs.len() * ys.len());
    let at = |xi: usize, yi: usize| table[yi * xs.len() + xi];
    // Interpolate along x for the two bracketing rows of y, then along y.
    let x_clamped = x.clamp(xs[0], xs[xs.len() - 1]);
    let y_clamped = y.clamp(ys[0], ys[ys.len() - 1]);
    // Find bracketing x indices.
    let (x_lo, x_hi) = bracket(xs, x_clamped);
    let (y_lo, y_hi) = bracket(ys, y_clamped);
    let tx = if xs[x_hi] > xs[x_lo] {
        (x_clamped - xs[x_lo]) / (xs[x_hi] - xs[x_lo])
    } else {
        0.0
    };
    let ty = if ys[y_hi] > ys[y_lo] {
        (y_clamped - ys[y_lo]) / (ys[y_hi] - ys[y_lo])
    } else {
        0.0
    };
    let v_lo = at(x_lo, y_lo) + tx * (at(x_hi, y_lo) - at(x_lo, y_lo));
    let v_hi = at(x_lo, y_hi) + tx * (at(x_hi, y_hi) - at(x_lo, y_hi));
    v_lo + ty * (v_hi - v_lo)
}

/// Slope of the piecewise-linear interpolant [`linear`] at `x`: the active
/// segment's `Δy/Δx`, or `0.0` in the clamped regions beyond the table
/// (where the interpolant is constant). At an interior knot the left
/// segment's slope is reported, matching [`bracket`]'s convention.
fn linear_gradient(xs: &[f64], ys: &[f64], x: f64) -> f64 {
    debug_assert_eq!(xs.len(), ys.len());
    if xs.is_empty() {
        return 0.0;
    }
    let (lo, hi) = bracket(xs, x);
    if lo == hi {
        return 0.0;
    }
    (ys[hi] - ys[lo]) / (xs[hi] - xs[lo])
}

/// Returns the indices of the table entries bracketing `x` (equal when clamped).
fn bracket(xs: &[f64], x: f64) -> (usize, usize) {
    if x <= xs[0] {
        return (0, 0);
    }
    if x >= xs[xs.len() - 1] {
        return (xs.len() - 1, xs.len() - 1);
    }
    let mut hi = 1;
    while xs[hi] < x {
        hi += 1;
    }
    (hi - 1, hi)
}

impl FastThermalModel {
    /// Builds an incremental [`ThermalState`](crate::ThermalState) for a
    /// system and placement: per-chiplet self and mutual contributions are
    /// maintained so a proposed move re-derives only the moved chiplet's
    /// row and column, instead of the full O(n²) superposition.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::OutOfCharacterizedRange`] if the system's
    /// interposer does not match the characterised outline.
    pub fn state_for(
        &self,
        system: &ChipletSystem,
        placement: &Placement,
    ) -> Result<crate::ThermalState, ThermalError> {
        crate::ThermalState::build(self, system, placement)
    }

    /// Temperature of one chiplet given its rectangle and the centres and
    /// powers of every placed chiplet — the shared superposition kernel of
    /// [`ThermalAnalyzer::chiplet_temperatures`] and
    /// [`ThermalAnalyzer::max_temperature`].
    fn superpose(
        &self,
        id: ChipletId,
        rect: &Rect,
        power: f64,
        placed: &[(ChipletId, Point, f64)],
    ) -> f64 {
        let mut t = self.ambient_c + self.self_resistance(rect.width, rect.height) * power;
        let center = rect.center();
        for (other_id, other_center, other_power) in placed {
            if *other_id == id {
                continue;
            }
            let d = center.euclidean_distance(*other_center);
            t += self.mutual_resistance(d) * other_power;
        }
        t
    }

    /// Collects `(id, centre, power)` of every placed chiplet.
    fn collect_placed(
        &self,
        system: &ChipletSystem,
        placement: &Placement,
    ) -> Vec<(ChipletId, Point, f64)> {
        system
            .chiplet_ids()
            .filter_map(|id| {
                let rect = placement.rect_of(id, system)?;
                Some((id, rect.center(), system.chiplet(id).power()))
            })
            .collect()
    }
}

impl ThermalAnalyzer for FastThermalModel {
    fn chiplet_temperatures(
        &self,
        system: &ChipletSystem,
        placement: &Placement,
    ) -> Result<Vec<f64>, ThermalError> {
        self.check_system(system)?;
        let placed = self.collect_placed(system, placement);
        let temps = system
            .chiplet_ids()
            .map(|id| {
                let Some(rect) = placement.rect_of(id, system) else {
                    return self.ambient_c;
                };
                self.superpose(id, &rect, system.chiplet(id).power(), &placed)
            })
            .collect();
        Ok(temps)
    }

    fn max_temperature(
        &self,
        system: &ChipletSystem,
        placement: &Placement,
    ) -> Result<f64, ThermalError> {
        // Folds the maximum directly instead of collecting the temperature
        // vector first — one less allocation per evaluation in the hot loop.
        self.check_system(system)?;
        let placed = self.collect_placed(system, placement);
        Ok(crate::fold_max(system.chiplet_ids().map(|id| {
            let Some(rect) = placement.rect_of(id, system) else {
                return self.ambient_c;
            };
            self.superpose(id, &rect, system.chiplet(id).power(), &placed)
        })))
    }

    fn incremental_state(
        &self,
        system: &ChipletSystem,
        placement: &Placement,
    ) -> Result<Option<crate::ThermalState>, ThermalError> {
        Ok(Some(self.state_for(system, placement)?))
    }

    fn thermal_gradient(
        &self,
        system: &ChipletSystem,
        placement: &Placement,
        sharpness_per_c: f64,
    ) -> Result<Option<crate::ThermalGradient>, ThermalError> {
        if !(sharpness_per_c > 0.0 && sharpness_per_c.is_finite()) {
            return Err(ThermalError::InvalidConfig {
                reason: format!(
                    "softmax sharpness must be positive and finite, got {sharpness_per_c}"
                ),
            });
        }
        self.check_system(system)?;
        let temperatures_c = self.chiplet_temperatures(system, placement)?;
        let n = temperatures_c.len();
        let mut gradient = vec![Point::new(0.0, 0.0); n];
        if n == 0 {
            return Ok(Some(crate::ThermalGradient {
                temperatures_c,
                smoothed_max_c: self.ambient_c,
                gradient,
            }));
        }

        // Softmax-weighted mean with the usual max-shift for stability:
        // wᵢ ∝ exp(β·(Tᵢ − Tmax)), S = Σ wᵢ·Tᵢ, ∂S/∂Tᵢ = wᵢ·(1 + β·(Tᵢ − S)).
        let beta = sharpness_per_c;
        let t_max = crate::fold_max(temperatures_c.iter().copied());
        let weights: Vec<f64> = temperatures_c
            .iter()
            .map(|&t| (beta * (t - t_max)).exp())
            .collect();
        let weight_sum: f64 = weights.iter().sum();
        let smoothed_max_c = temperatures_c
            .iter()
            .zip(&weights)
            .map(|(&t, &w)| w * t)
            .sum::<f64>()
            / weight_sum;
        let sensitivity: Vec<f64> = temperatures_c
            .iter()
            .zip(&weights)
            .map(|(&t, &w)| (w / weight_sum) * (1.0 + beta * (t - smoothed_max_c)))
            .collect();

        // Only the mutual-heating term depends on positions (self-heating is
        // footprint-only), through the pairwise distances:
        //   ∂S/∂c_k = Σ_{i≠k} (sᵢ·P_k + s_k·Pᵢ) · Rm'(d_ik) · (c_k − c_i)/d_ik
        // accumulated over each pair once. Coincident centres (d = 0) sit on
        // the clamped flat head of the table, so their contribution is zero.
        let placed = self.collect_placed(system, placement);
        for (ai, &(id_a, center_a, power_a)) in placed.iter().enumerate() {
            for &(id_b, center_b, power_b) in placed.iter().skip(ai + 1) {
                let d = center_a.euclidean_distance(center_b);
                if d <= 0.0 {
                    continue;
                }
                let slope = self.mutual_resistance_gradient(d);
                if slope == 0.0 {
                    continue;
                }
                let coeff = (sensitivity[id_a.index()] * power_b
                    + sensitivity[id_b.index()] * power_a)
                    * slope;
                let ux = (center_a.x - center_b.x) / d;
                let uy = (center_a.y - center_b.y) / d;
                gradient[id_a.index()].x += coeff * ux;
                gradient[id_a.index()].y += coeff * uy;
                gradient[id_b.index()].x -= coeff * ux;
                gradient[id_b.index()].y -= coeff * uy;
            }
        }

        Ok(Some(crate::ThermalGradient {
            temperatures_c,
            smoothed_max_c,
            gradient,
        }))
    }

    fn name(&self) -> &str {
        "fast-thermal-model"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Layer, LayerStack, ThermalConfig};
    use crate::power::PowerMap;
    use std::sync::Barrier;

    fn quick_options() -> CharacterizationOptions {
        CharacterizationOptions {
            footprint_samples_mm: vec![4.0, 8.0, 16.0],
            reference_power_w: 10.0,
            distance_bins: 20,
            mutual_source_size_mm: 4.0,
        }
    }

    fn quick_model() -> FastThermalModel {
        FastThermalModel::characterize(
            &ThermalConfig::with_grid(16, 16),
            30.0,
            30.0,
            &quick_options(),
        )
        .unwrap()
    }

    /// Every table of a model as bit patterns, for byte-for-byte comparison.
    fn table_bits(model: &FastThermalModel) -> Vec<u64> {
        [
            model.ambient_c,
            model.interposer_width_mm,
            model.interposer_height_mm,
        ]
        .iter()
        .chain(&model.widths_mm)
        .chain(&model.heights_mm)
        .chain(&model.self_resistance_k_per_w)
        .chain(&model.distances_mm)
        .chain(&model.mutual_resistance_k_per_w)
        .map(|v| v.to_bits())
        .collect()
    }

    /// The characterisation sweep done the plain way: serially, in sweep
    /// order, with every solve assembling its own CSR matrix and running CG
    /// on it, preconditioned like the solver does (or by Jacobi, if
    /// `jacobi` is set).
    fn serial_csr_reference(
        solver: &GridThermalSolver,
        interposer_width_mm: f64,
        interposer_height_mm: f64,
        options: &CharacterizationOptions,
        jacobi: bool,
    ) -> Result<FastThermalModel, ThermalError> {
        let config = solver.config();
        let (nx, ny) = (config.grid_nx, config.grid_ny);
        let solve = |sys: &ChipletSystem, placement: &Placement| {
            let power = PowerMap::rasterize(sys, placement, nx, ny);
            solver.solve_power_map_csr(sys, &power, jacobi)
        };
        let mut samples = options.footprint_samples_mm.clone();
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        samples.dedup();
        let max_w = interposer_width_mm * 0.95;
        let max_h = interposer_height_mm * 0.95;
        let widths_mm: Vec<f64> = samples.iter().map(|&s| s.min(max_w)).collect();
        let heights_mm: Vec<f64> = samples.iter().map(|&s| s.min(max_h)).collect();
        let p0 = options.reference_power_w;
        let mut self_resistance = vec![0.0; widths_mm.len() * heights_mm.len()];
        for (hi, &h) in heights_mm.iter().enumerate() {
            for (wi, &w) in widths_mm.iter().enumerate() {
                let mut sys =
                    ChipletSystem::new("probe", interposer_width_mm, interposer_height_mm);
                let id = sys.add_chiplet(Chiplet::new("probe", w, h, p0));
                let mut placement = Placement::for_system(&sys);
                placement.place(
                    id,
                    Position::new(
                        (interposer_width_mm - w) / 2.0,
                        (interposer_height_mm - h) / 2.0,
                    ),
                );
                let solution = solve(&sys, &placement)?;
                let temps = solver.chiplet_temperatures_from_solution(&sys, &placement, &solution);
                self_resistance[hi * widths_mm.len() + wi] = (temps[0] - config.ambient_c) / p0;
            }
        }
        let src = options.mutual_source_size_mm.min(max_w).min(max_h);
        let max_distance = (interposer_width_mm.powi(2) + interposer_height_mm.powi(2)).sqrt();
        let bin_width = max_distance / options.distance_bins as f64;
        let mut bin_sum = vec![0.0; options.distance_bins];
        let mut bin_count = vec![0usize; options.distance_bins];
        for center in [
            Point2::new(interposer_width_mm / 2.0, interposer_height_mm / 2.0),
            Point2::new(interposer_width_mm * 0.2, interposer_height_mm * 0.2),
        ] {
            let mut sys = ChipletSystem::new("probe", interposer_width_mm, interposer_height_mm);
            let id = sys.add_chiplet(Chiplet::new("src", src, src, p0));
            let mut placement = Placement::for_system(&sys);
            placement.place(
                id,
                Position::new(center.x - src / 2.0, center.y - src / 2.0),
            );
            let solution = solve(&sys, &placement)?;
            let cell_w = interposer_width_mm / nx as f64;
            let cell_h = interposer_height_mm / ny as f64;
            for row in 0..ny {
                for col in 0..nx {
                    let cx = (col as f64 + 0.5) * cell_w;
                    let cy = (row as f64 + 0.5) * cell_h;
                    let d = ((cx - center.x).powi(2) + (cy - center.y).powi(2)).sqrt();
                    if d < src {
                        continue;
                    }
                    let bin = ((d / bin_width) as usize).min(options.distance_bins - 1);
                    bin_sum[bin] += (solution.die_temperature_at(col, row) - config.ambient_c) / p0;
                    bin_count[bin] += 1;
                }
            }
        }
        let mut distances_mm = Vec::new();
        let mut mutual_resistance = Vec::new();
        let mut last = 0.0;
        for (bin, (&sum, &count)) in bin_sum.iter().zip(&bin_count).enumerate() {
            let value = if count > 0 { sum / count as f64 } else { last };
            last = value;
            distances_mm.push((bin as f64 + 0.5) * bin_width);
            mutual_resistance.push(value);
        }
        Ok(FastThermalModel {
            ambient_c: config.ambient_c,
            interposer_width_mm,
            interposer_height_mm,
            widths_mm,
            heights_mm,
            self_resistance_k_per_w: self_resistance,
            distances_mm,
            mutual_resistance_k_per_w: mutual_resistance,
        })
    }

    #[test]
    fn characterisation_equals_a_serial_per_solve_csr_reference_byte_for_byte() {
        let two_layers = LayerStack::new(
            vec![
                Layer::new("die", 0.15, 120.0),
                Layer::new("sink", 2.0, 400.0),
            ],
            0,
        );
        let power_on_top = LayerStack::new(LayerStack::default_2_5d().layers().to_vec(), 4);
        let cases = [
            (
                "non-square grid",
                ThermalConfig::with_grid(12, 7),
                30.0,
                20.0,
            ),
            ("2x2 grid", ThermalConfig::with_grid(2, 2), 10.0, 10.0),
            (
                "2-layer stack",
                ThermalConfig {
                    stack: two_layers,
                    ..ThermalConfig::with_grid(6, 5)
                },
                25.0,
                25.0,
            ),
            (
                "power layer on top",
                ThermalConfig {
                    stack: power_on_top,
                    ..ThermalConfig::with_grid(5, 6)
                },
                20.0,
                24.0,
            ),
        ];
        for (case, config, w, h) in cases {
            let solver = GridThermalSolver::new(config.clone());
            let reference =
                table_bits(&serial_csr_reference(&solver, w, h, &quick_options(), false).unwrap());
            for workers in [1, 3] {
                let model = FastThermalModel::characterize_on(
                    solver.clone(),
                    w,
                    h,
                    &quick_options(),
                    workers,
                )
                .unwrap();
                assert_eq!(table_bits(&model), reference, "{case}, {workers} worker(s)");
            }
            let public = FastThermalModel::characterize(&config, w, h, &quick_options()).unwrap();
            assert_eq!(table_bits(&public), reference, "{case}");
        }
    }

    #[test]
    fn multigrid_and_jacobi_characterisations_agree() {
        let cases = [
            ("square", ThermalConfig::with_grid(16, 16), 30.0, 30.0),
            ("odd grid", ThermalConfig::with_grid(15, 9), 30.0, 20.0),
        ];
        for (case, config, w, h) in cases {
            let multigrid =
                FastThermalModel::characterize(&config, w, h, &quick_options()).unwrap();
            let solver = GridThermalSolver::new(config);
            let jacobi = serial_csr_reference(&solver, w, h, &quick_options(), true).unwrap();
            assert_eq!(multigrid.widths_mm, jacobi.widths_mm, "{case}");
            assert_eq!(multigrid.heights_mm, jacobi.heights_mm, "{case}");
            assert_eq!(multigrid.distances_mm, jacobi.distances_mm, "{case}");
            let entries = |model: &FastThermalModel| {
                [
                    &model.self_resistance_k_per_w,
                    &model.mutual_resistance_k_per_w,
                ]
                .map(|table| table.clone())
                .concat()
            };
            let (m, j) = (entries(&multigrid), entries(&jacobi));
            assert_eq!(m.len(), j.len());
            for (index, (m, j)) in m.iter().zip(&j).enumerate() {
                assert!(
                    (m - j).abs() <= 1e-6 * j.abs(),
                    "{case}, entry {index}: multigrid {m} vs jacobi {j}"
                );
            }
        }
    }

    #[test]
    fn a_failing_probe_returns_the_serial_sweeps_first_failure() {
        let mut failures = 0;
        for max_iterations in [1, 10, 20, 40, 80] {
            let solver = GridThermalSolver::new(ThermalConfig::with_grid(12, 7))
                .with_max_iterations(max_iterations);
            let reference = serial_csr_reference(&solver, 30.0, 20.0, &quick_options(), false);
            failures += usize::from(reference.is_err());
            for workers in [1, 3] {
                let result = FastThermalModel::characterize_on(
                    solver.clone(),
                    30.0,
                    20.0,
                    &quick_options(),
                    workers,
                );
                assert_eq!(
                    result.as_ref().err(),
                    reference.as_ref().err(),
                    "cap {max_iterations}, {workers} worker(s)"
                );
            }
        }
        assert!(failures > 0, "no cap made a probe fail");
    }

    #[test]
    fn sweep_keeps_index_order_and_reports_the_first_failure_in_it() {
        let fail = |i: usize| ThermalError::InvalidConfig {
            reason: format!("probe {i}"),
        };
        for workers in 1..=4 {
            assert_eq!(
                sweep(10, workers, |i| Ok(i * i)),
                Ok((0..10).map(|i| i * i).collect::<Vec<_>>())
            );
            let result = sweep(10, workers, |i| {
                if i == 3 || i == 7 {
                    Err(fail(i))
                } else {
                    Ok(i)
                }
            });
            assert_eq!(result, Err(fail(3)));
        }
        // Probes 3 and 7 are in flight together and both fail: the result is
        // still probe 3's, whichever failure is recorded first.
        for workers in 2..=4 {
            let both_running = Barrier::new(2);
            let result = sweep(10, workers, |i| {
                if i == 3 || i == 7 {
                    both_running.wait();
                    return Err(fail(i));
                }
                Ok(i)
            });
            assert_eq!(result, Err(fail(3)));
        }
    }

    #[test]
    fn interpolation_helpers_clamp_and_interpolate() {
        let xs = [0.0, 1.0, 2.0];
        let ys = [10.0, 20.0, 40.0];
        assert_eq!(linear(&xs, &ys, -1.0), 10.0);
        assert_eq!(linear(&xs, &ys, 5.0), 40.0);
        assert!((linear(&xs, &ys, 0.5) - 15.0).abs() < 1e-12);
        assert!((linear(&xs, &ys, 1.5) - 30.0).abs() < 1e-12);
    }

    #[test]
    fn bilinear_reduces_to_table_values_at_nodes() {
        let xs = [1.0, 2.0];
        let ys = [10.0, 20.0];
        let table = [1.0, 2.0, 3.0, 4.0]; // rows: y=10 -> [1,2]; y=20 -> [3,4]
        assert_eq!(bilinear(&xs, &ys, &table, 1.0, 10.0), 1.0);
        assert_eq!(bilinear(&xs, &ys, &table, 2.0, 10.0), 2.0);
        assert_eq!(bilinear(&xs, &ys, &table, 1.0, 20.0), 3.0);
        assert_eq!(bilinear(&xs, &ys, &table, 2.0, 20.0), 4.0);
        assert!((bilinear(&xs, &ys, &table, 1.5, 15.0) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn characterization_produces_monotone_tables() {
        let model = quick_model();
        // Self resistance decreases as the die gets larger (same power spreads
        // over more area).
        let small = model.self_resistance(4.0, 4.0);
        let large = model.self_resistance(16.0, 16.0);
        assert!(small > large, "small {small} <= large {large}");
        // Mutual resistance decays with distance.
        let near = model.mutual_resistance(5.0);
        let far = model.mutual_resistance(25.0);
        assert!(near > far, "near {near} <= far {far}");
        assert!(near > 0.0);
    }

    #[test]
    fn fast_model_tracks_grid_solver_on_single_chiplet() {
        let config = ThermalConfig::with_grid(16, 16);
        let model = quick_model();
        let solver = GridThermalSolver::new(config);

        let mut sys = ChipletSystem::new("t", 30.0, 30.0);
        let a = sys.add_chiplet(Chiplet::new("a", 8.0, 8.0, 20.0));
        let mut p = Placement::for_system(&sys);
        p.place(a, Position::new(11.0, 11.0));

        let t_fast = model.max_temperature(&sys, &p).unwrap();
        let t_grid = solver.max_temperature(&sys, &p).unwrap();
        let rise_fast = t_fast - 45.0;
        let rise_grid = t_grid - 45.0;
        let rel = (rise_fast - rise_grid).abs() / rise_grid;
        assert!(rel < 0.15, "fast {t_fast} vs grid {t_grid}");
    }

    #[test]
    fn fast_model_penalises_clustered_placements() {
        let model = quick_model();
        let mut sys = ChipletSystem::new("t", 30.0, 30.0);
        let a = sys.add_chiplet(Chiplet::new("a", 6.0, 6.0, 20.0));
        let b = sys.add_chiplet(Chiplet::new("b", 6.0, 6.0, 20.0));

        let mut close = Placement::for_system(&sys);
        close.place(a, Position::new(8.0, 12.0));
        close.place(b, Position::new(16.0, 12.0));
        let mut far = Placement::for_system(&sys);
        far.place(a, Position::new(1.0, 1.0));
        far.place(b, Position::new(23.0, 23.0));

        let t_close = model.max_temperature(&sys, &close).unwrap();
        let t_far = model.max_temperature(&sys, &far).unwrap();
        assert!(t_close > t_far);
    }

    #[test]
    fn linear_gradient_reports_segment_slopes_and_clamps() {
        let xs = [0.0, 1.0, 3.0];
        let ys = [10.0, 20.0, 16.0];
        assert_eq!(linear_gradient(&xs, &ys, -1.0), 0.0);
        assert_eq!(linear_gradient(&xs, &ys, 5.0), 0.0);
        assert!((linear_gradient(&xs, &ys, 0.5) - 10.0).abs() < 1e-12);
        assert!((linear_gradient(&xs, &ys, 2.0) - (-2.0)).abs() < 1e-12);
    }

    #[test]
    fn thermal_gradient_matches_central_differences() {
        let model = quick_model();
        let mut sys = ChipletSystem::new("t", 30.0, 30.0);
        let a = sys.add_chiplet(Chiplet::new("a", 6.0, 6.0, 20.0));
        let b = sys.add_chiplet(Chiplet::new("b", 4.0, 4.0, 8.0));
        let c = sys.add_chiplet(Chiplet::new("c", 5.0, 5.0, 12.0));
        let mut p = Placement::for_system(&sys);
        p.place(a, Position::new(3.0, 4.0));
        p.place(b, Position::new(18.0, 6.0));
        p.place(c, Position::new(10.0, 20.0));

        let beta = 0.7;
        let grad = model.thermal_gradient(&sys, &p, beta).unwrap().unwrap();
        assert_eq!(grad.gradient.len(), 3);
        assert_eq!(
            grad.temperatures_c,
            model.chiplet_temperatures(&sys, &p).unwrap()
        );
        let hard_max = model.max_temperature(&sys, &p).unwrap();
        assert!(grad.smoothed_max_c <= hard_max);
        assert!(hard_max - grad.smoothed_max_c <= (3f64).ln() / beta);

        // Softmax-smoothed max at a shifted placement, for differencing.
        let smoothed = |p: &Placement| {
            model
                .thermal_gradient(&sys, p, beta)
                .unwrap()
                .unwrap()
                .smoothed_max_c
        };
        let h = 1e-5;
        for (id, base) in [(a, Position::new(3.0, 4.0)), (b, Position::new(18.0, 6.0))] {
            let mut plus = p.clone();
            plus.place(id, Position::new(base.x + h, base.y));
            let mut minus = p.clone();
            minus.place(id, Position::new(base.x - h, base.y));
            let fd_x = (smoothed(&plus) - smoothed(&minus)) / (2.0 * h);
            plus.place(id, Position::new(base.x, base.y + h));
            minus.place(id, Position::new(base.x, base.y - h));
            let fd_y = (smoothed(&plus) - smoothed(&minus)) / (2.0 * h);
            let g = grad.gradient[id.index()];
            assert!(
                (g.x - fd_x).abs() <= 1e-6 * fd_x.abs().max(1.0),
                "x: analytic {} vs fd {fd_x}",
                g.x
            );
            assert!(
                (g.y - fd_y).abs() <= 1e-6 * fd_y.abs().max(1.0),
                "y: analytic {} vs fd {fd_y}",
                g.y
            );
        }
    }

    #[test]
    fn thermal_gradient_pushes_hot_chiplets_apart() {
        let model = quick_model();
        let mut sys = ChipletSystem::new("t", 30.0, 30.0);
        let a = sys.add_chiplet(Chiplet::new("a", 6.0, 6.0, 20.0));
        let b = sys.add_chiplet(Chiplet::new("b", 6.0, 6.0, 20.0));
        let mut p = Placement::for_system(&sys);
        p.place(a, Position::new(8.0, 12.0));
        p.place(b, Position::new(16.0, 12.0));
        let grad = model.thermal_gradient(&sys, &p, 1.0).unwrap().unwrap();
        // Mutual resistance decays with distance, so descending the smoothed
        // max moves `a` left (negative gradient means descent goes +x... no:
        // descent steps along -grad; heating decreases as the pair separates,
        // so ∂S/∂a.x > 0 (moving `a` right, towards `b`, heats it up).
        assert!(grad.gradient[a.index()].x > 0.0, "{:?}", grad.gradient);
        assert!(grad.gradient[b.index()].x < 0.0, "{:?}", grad.gradient);
        // Symmetric pair: y components cancel.
        assert!(grad.gradient[a.index()].y.abs() < 1e-12);
        // Unplaced chiplets and empty systems still answer.
        let empty = Placement::for_system(&sys);
        let g0 = model.thermal_gradient(&sys, &empty, 1.0).unwrap().unwrap();
        assert_eq!(g0.gradient[0], Point::new(0.0, 0.0));
        assert_eq!(g0.smoothed_max_c, model.ambient());
    }

    #[test]
    fn thermal_gradient_rejects_bad_sharpness() {
        let model = quick_model();
        let mut sys = ChipletSystem::new("t", 30.0, 30.0);
        sys.add_chiplet(Chiplet::new("a", 6.0, 6.0, 20.0));
        let p = Placement::for_system(&sys);
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                model.thermal_gradient(&sys, &p, bad),
                Err(ThermalError::InvalidConfig { .. })
            ));
        }
    }

    #[test]
    fn mismatched_interposer_is_rejected() {
        let model = quick_model();
        let mut sys = ChipletSystem::new("t", 50.0, 50.0);
        let a = sys.add_chiplet(Chiplet::new("a", 6.0, 6.0, 20.0));
        let mut p = Placement::for_system(&sys);
        p.place(a, Position::new(20.0, 20.0));
        assert!(matches!(
            model.chiplet_temperatures(&sys, &p),
            Err(ThermalError::OutOfCharacterizedRange { .. })
        ));
    }

    #[test]
    fn unplaced_chiplets_sit_at_ambient() {
        let model = quick_model();
        let mut sys = ChipletSystem::new("t", 30.0, 30.0);
        let a = sys.add_chiplet(Chiplet::new("a", 6.0, 6.0, 20.0));
        sys.add_chiplet(Chiplet::new("b", 6.0, 6.0, 20.0));
        let mut p = Placement::for_system(&sys);
        p.place(a, Position::new(10.0, 10.0));
        let temps = model.chiplet_temperatures(&sys, &p).unwrap();
        assert!(temps[0] > model.ambient());
        assert_eq!(temps[1], model.ambient());
    }

    #[test]
    fn bad_characterization_options_are_rejected() {
        let config = ThermalConfig::with_grid(8, 8);
        let bad_samples = CharacterizationOptions {
            footprint_samples_mm: vec![4.0],
            ..quick_options()
        };
        assert!(FastThermalModel::characterize(&config, 30.0, 30.0, &bad_samples).is_err());
        let bad_bins = CharacterizationOptions {
            distance_bins: 1,
            ..quick_options()
        };
        assert!(FastThermalModel::characterize(&config, 30.0, 30.0, &bad_bins).is_err());
        let bad_power = CharacterizationOptions {
            reference_power_w: 0.0,
            ..quick_options()
        };
        assert!(FastThermalModel::characterize(&config, 30.0, 30.0, &bad_power).is_err());
    }

    // Requires a real serde backend; the offline build vendors a no-op
    // serde. Compiled only under `--cfg serde_roundtrip` (see the root
    // Cargo.toml lints table) with crates.io serde + serde_json dev-deps.
    #[cfg(serde_roundtrip)]
    #[test]
    fn model_serde_round_trip() {
        // JSON serialisation may drop the last bit of a float, so compare the
        // lookups rather than requiring bit-exact equality.
        let model = quick_model();
        let json = serde_json::to_string(&model).unwrap();
        let back: FastThermalModel = serde_json::from_str(&json).unwrap();
        assert_eq!(back.ambient(), model.ambient());
        assert_eq!(back.interposer(), model.interposer());
        for &(w, h) in &[(4.0, 4.0), (10.0, 6.0), (16.0, 16.0)] {
            assert!((back.self_resistance(w, h) - model.self_resistance(w, h)).abs() < 1e-9);
        }
        for &d in &[2.0, 10.0, 30.0] {
            assert!((back.mutual_resistance(d) - model.mutual_resistance(d)).abs() < 1e-9);
        }
    }
}
