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
//! Characterisation runs serially on the calling thread against one direct
//! grid solve prepared for the interposer, and solves only die-layer cells.
//! A centred footprint probe's rasterised power is the outer product of its
//! overlaps with the columns and with the rows of cells, so all footprint
//! probes are one separable sweep of 1-D cosine transforms
//! (`SpectralSolver::solve_separable_windows`). Each self-resistance entry
//! equals a windowed solve of the rasterised die to at most 1e-13 relative,
//! not bit for bit. The two mutual probes solve the whole die layer, which
//! equals a full solve bit for bit, so the mutual table is exactly what
//! full solves give. Either table is the same on one core or many.

use crate::config::ThermalConfig;
use crate::error::ThermalError;
use crate::grid::{footprint_cells, peak_temperature, GridThermalSolver};
use crate::power::PowerMap;
use crate::ThermalAnalyzer;
use rlp_chiplet::{ChipletId, ChipletSystem, Placement, Point, Rect};
use rlp_obs::{obs_histogram, Stopwatch};

/// Options controlling fast-model characterisation.
#[derive(Debug, Clone, PartialEq)]
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

impl CharacterizationOptions {
    /// Checks every field, naming the first unusable one.
    fn validate(&self) -> Result<(), ThermalError> {
        let mut sizes_and_power = self
            .footprint_samples_mm
            .iter()
            .map(|&s| ("footprint_samples_mm", s))
            .chain([
                ("reference_power_w", self.reference_power_w),
                ("mutual_source_size_mm", self.mutual_source_size_mm),
            ]);
        let reason = if self.footprint_samples_mm.len() < 2 {
            "footprint_samples_mm needs at least two samples".to_string()
        } else if self.distance_bins < 2 {
            format!(
                "distance_bins must be at least 2, got {}",
                self.distance_bins
            )
        } else if let Some((field, bad)) =
            sizes_and_power.find(|&(_, v)| !(v > 0.0 && v.is_finite()))
        {
            format!("{field} must be positive and finite, got {bad}")
        } else {
            return Ok(());
        };
        Err(ThermalError::InvalidConfig { reason })
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
#[derive(Debug, Clone, PartialEq)]
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
    /// The footprint probes run as one separable sweep: every
    /// self-resistance entry is within 1e-13 relative of the peak a
    /// windowed solve of the rasterised probe die gives. The mutual table
    /// equals full solves bit for bit. A call returns the same bits on one
    /// core or many.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::InvalidConfig`] for unusable options, before
    /// any probe runs, and propagates the grid solve's error for an
    /// interposer outline it cannot invert.
    pub fn characterize(
        config: &ThermalConfig,
        interposer_width_mm: f64,
        interposer_height_mm: f64,
        options: &CharacterizationOptions,
    ) -> Result<Self, ThermalError> {
        let timer = Stopwatch::start();
        options.validate()?;
        let solver = GridThermalSolver::try_new(config.clone())?;
        let spectral = solver.spectral_for(interposer_width_mm, interposer_height_mm)?;
        let (nx, ny) = (config.grid_nx, config.grid_ny);
        let die_layer = config.stack.power_layer();
        let ambient = config.ambient_c;
        let mut samples = options.footprint_samples_mm.clone();
        samples.sort_by(f64::total_cmp);
        samples.dedup();
        // Footprints larger than the interposer cannot occur in a legal
        // placement; clamp the sample range so characterisation stays legal.
        let max_w = interposer_width_mm * 0.95;
        let max_h = interposer_height_mm * 0.95;
        let widths_mm: Vec<f64> = samples.iter().map(|&s| s.min(max_w)).collect();
        let heights_mm: Vec<f64> = samples.iter().map(|&s| s.min(max_h)).collect();
        let p0 = options.reference_power_w;

        // One probe per (w, h) footprint sample, in self-resistance table
        // order: a centred die, whose temperature is the peak over the
        // cells under it. Its rasterised power is `density·oy[y]·ox[x]`,
        // with `ox` its overlap with each column of cells, which depends on
        // `w` alone, and `oy` with each row, on `h` alone. So the sweep is
        // one separable solve of the die layer over those cells.
        let (cell_w, cell_h) = (
            interposer_width_mm / nx as f64,
            interposer_height_mm / ny as f64,
        );
        let (mut columns, mut rows) = (Vec::new(), Vec::new());
        for (&w, &h) in widths_mm.iter().zip(&heights_mm) {
            let rect = Rect::new(
                (interposer_width_mm - w) / 2.0,
                (interposer_height_mm - h) / 2.0,
                w,
                h,
            );
            let (die_rows, die_cols) = footprint_cells(&rect, cell_w, cell_h, nx, ny);
            columns.push((cell_overlaps(rect.x, w, cell_w, nx), die_cols));
            rows.push((cell_overlaps(rect.y, h, cell_h, ny), die_rows));
        }
        let mut self_resistance = Vec::with_capacity(widths_mm.len() * heights_mm.len());
        spectral.solve_separable_windows(die_layer, &rows, &columns, |hi, wi, window| {
            // `PowerMap::add`'s density: the probe power over the die's area.
            let density = p0 / (widths_mm[wi] * heights_mm[hi]);
            let rises = window.iter().map(|&s| density * s);
            self_resistance.push((peak_temperature(ambient, rises) - ambient) / p0);
        });

        // The mutual-resistance table is a distance histogram of the
        // die-layer field around an isolated source, using two source
        // positions so that the table covers distances up to the interposer
        // diagonal.
        let src = options.mutual_source_size_mm.min(max_w).min(max_h);
        let max_distance = (interposer_width_mm.powi(2) + interposer_height_mm.powi(2)).sqrt();
        let bin_width = max_distance / options.distance_bins as f64;
        let mut bin_sum = vec![0.0; options.distance_bins];
        let mut bin_count = vec![0usize; options.distance_bins];
        for (cx_src, cy_src) in [
            (interposer_width_mm / 2.0, interposer_height_mm / 2.0),
            (interposer_width_mm * 0.2, interposer_height_mm * 0.2),
        ] {
            let mut power = PowerMap::empty(interposer_width_mm, interposer_height_mm, nx, ny);
            power.add(
                &Rect::new(cx_src - src / 2.0, cy_src - src / 2.0, src, src),
                p0,
            );
            let rises = spectral.solve_layer(power.cells(), die_layer);
            for row in 0..ny {
                for col in 0..nx {
                    let cx = (col as f64 + 0.5) * cell_w;
                    let cy = (row as f64 + 0.5) * cell_h;
                    let d = ((cx - cx_src).powi(2) + (cy - cy_src).powi(2)).sqrt();
                    // Cells inside the source footprint measure self-heating,
                    // not mutual heating; skip them.
                    if d < src {
                        continue;
                    }
                    let bin = ((d / bin_width) as usize).min(options.distance_bins - 1);
                    // Through the temperature, as the solved field reports
                    // it, so the table matches a full solve bit for bit.
                    let temperature = ambient + rises[row * nx + col];
                    bin_sum[bin] += (temperature - ambient) / p0;
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

        timer.stop(obs_histogram!("thermal.characterization_ns"));
        Ok(Self {
            ambient_c: ambient,
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

/// The overlap (mm) of the interval `lo..lo + len` with each of `n` cells
/// of `cell` mm along one axis, zero where they are disjoint: one factor of
/// the `dx·dy` that `Rect::intersection_area` gives `PowerMap::add`.
fn cell_overlaps(lo: f64, len: f64, cell: f64, n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let cell_lo = i as f64 * cell;
            let overlap = (cell_lo + cell).min(lo + len) - cell_lo.max(lo);
            if overlap > 0.0 {
                overlap
            } else {
                0.0
            }
        })
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
    use crate::grid::ThermalSolution;
    use proptest::prelude::*;
    use rlp_chiplet::{Chiplet, Position};

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
    /// order, with every probe solved by `solve`.
    fn serial_reference(
        solver: &GridThermalSolver,
        interposer_width_mm: f64,
        interposer_height_mm: f64,
        options: &CharacterizationOptions,
        solve: &dyn Fn(&ChipletSystem, &Placement) -> Result<ThermalSolution, ThermalError>,
    ) -> Result<FastThermalModel, ThermalError> {
        let config = solver.config();
        let (nx, ny) = (config.grid_nx, config.grid_ny);
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
            Point::new(interposer_width_mm / 2.0, interposer_height_mm / 2.0),
            Point::new(interposer_width_mm * 0.2, interposer_height_mm * 0.2),
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
    fn characterisation_equals_serial_solves_bit_for_bit_and_the_cg_oracle_to_1e9() {
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
            ("odd grid", ThermalConfig::with_grid(15, 9), 30.0, 20.0),
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
            let serial = serial_reference(&solver, w, h, &quick_options(), &|sys, placement| {
                solver.solve(sys, placement)
            })
            .unwrap();
            let model = FastThermalModel::characterize(&config, w, h, &quick_options()).unwrap();
            assert_eq!(table_bits(&model), table_bits(&serial), "{case}");

            let (nx, ny) = (config.grid_nx, config.grid_ny);
            let oracle = serial_reference(&solver, w, h, &quick_options(), &|sys, placement| {
                let power = PowerMap::rasterize(sys, placement, nx, ny);
                Ok(solver.solve_power_map_cg(sys, &power, 1e-12))
            })
            .unwrap();
            assert_eq!(serial.widths_mm, oracle.widths_mm, "{case}");
            assert_eq!(serial.heights_mm, oracle.heights_mm, "{case}");
            assert_eq!(serial.distances_mm, oracle.distances_mm, "{case}");
            let entries = |model: &FastThermalModel| {
                [
                    &model.self_resistance_k_per_w,
                    &model.mutual_resistance_k_per_w,
                ]
                .map(|table| table.clone())
                .concat()
            };
            let (direct, cg) = (entries(&serial), entries(&oracle));
            assert_eq!(direct.len(), cg.len());
            for (index, (d, c)) in direct.iter().zip(&cg).enumerate() {
                assert!(
                    (d - c).abs() <= 1e-9 * c.abs(),
                    "{case}, entry {index}: direct {d} vs CG oracle {c}"
                );
            }
        }
    }

    /// Checks `model` against the serial `reference`: every self-resistance
    /// entry within 1e-13 relative, every other field bit for bit.
    fn assert_matches_reference(
        model: &FastThermalModel,
        reference: &FastThermalModel,
        case: &str,
    ) -> Result<(), TestCaseError> {
        let without_self = |model: &FastThermalModel| {
            table_bits(&FastThermalModel {
                self_resistance_k_per_w: Vec::new(),
                ..model.clone()
            })
        };
        prop_assert_eq!(without_self(model), without_self(reference), "{}", case);
        let (table, expected) = (
            &model.self_resistance_k_per_w,
            &reference.self_resistance_k_per_w,
        );
        prop_assert_eq!(table.len(), expected.len(), "{}", case);
        for (index, (r, e)) in table.iter().zip(expected).enumerate() {
            prop_assert!(
                (r - e).abs() <= 1e-13 * e.abs(),
                "{case}, entry {index}: separable {r} vs windowed solve {e}"
            );
        }
        Ok(())
    }

    fn serial_solves(
        config: &ThermalConfig,
        width_mm: f64,
        height_mm: f64,
        options: &CharacterizationOptions,
    ) -> FastThermalModel {
        let solver = GridThermalSolver::new(config.clone());
        serial_reference(&solver, width_mm, height_mm, options, &|sys, placement| {
            solver.solve(sys, placement)
        })
        .unwrap()
    }

    #[test]
    fn separable_footprint_tables_match_windowed_solves_on_every_benchmark_outline() {
        let outlines = [
            ("multi-gpu", 55.0, 55.0),
            ("cpu-dram", 55.0, 55.0),
            ("ascend910", 65.0, 50.0),
            ("case1", 26.0, 26.0),
            ("case2", 29.0, 29.0),
            ("case3", 34.0, 34.0),
            ("case4", 38.0, 38.0),
            ("case5", 40.0, 40.0),
        ];
        let (config, options) = (ThermalConfig::default(), CharacterizationOptions::default());
        for (name, w, h) in outlines {
            let model = FastThermalModel::characterize(&config, w, h, &options).unwrap();
            let reference = serial_solves(&config, w, h, &options);
            assert_matches_reference(&model, &reference, name).unwrap();
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// On random non-square outlines and grids, odd ones included, with
        /// samples clamped to the outline and duplicated, every footprint
        /// entry is within 1e-13 of the windowed solves and the rest of the
        /// model is bit-identical.
        #[test]
        fn separable_footprint_tables_match_windowed_solves_on_random_outlines(
            width_mm in 10.0f64..80.0,
            height_mm in 10.0f64..80.0,
            nx in 2usize..=33,
            ny in 2usize..=33,
            samples in prop::collection::vec(0.5f64..90.0, 2..=4),
            duplicate in 0usize..4,
            reference_power_w in 0.5f64..50.0,
            distance_bins in 2usize..30,
            mutual_source_size_mm in 1.0f64..12.0,
        ) {
            let mut footprint_samples_mm = samples.clone();
            footprint_samples_mm.push(samples[duplicate % samples.len()]);
            let options = CharacterizationOptions {
                footprint_samples_mm,
                reference_power_w,
                distance_bins,
                mutual_source_size_mm,
            };
            let config = ThermalConfig::with_grid(nx, ny);
            let model = FastThermalModel::characterize(&config, width_mm, height_mm, &options).unwrap();
            let reference = serial_solves(&config, width_mm, height_mm, &options);
            assert_matches_reference(&model, &reference, &format!("{options:?} on {nx}x{ny}"))?;
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
        let cases = [
            (
                "footprint_samples_mm",
                CharacterizationOptions {
                    footprint_samples_mm: vec![4.0],
                    ..quick_options()
                },
            ),
            (
                "distance_bins",
                CharacterizationOptions {
                    distance_bins: 1,
                    ..quick_options()
                },
            ),
        ];
        let samples = [0.0, -2.0, f64::NAN, f64::INFINITY].map(|bad| {
            (
                "footprint_samples_mm",
                CharacterizationOptions {
                    footprint_samples_mm: vec![bad, 4.0],
                    ..quick_options()
                },
            )
        });
        let sources = [0.0, -1.0, f64::NAN, f64::INFINITY].map(|bad| {
            (
                "mutual_source_size_mm",
                CharacterizationOptions {
                    mutual_source_size_mm: bad,
                    ..quick_options()
                },
            )
        });
        let powers = [0.0, -1.0, f64::NAN, f64::INFINITY].map(|bad| {
            (
                "reference_power_w",
                CharacterizationOptions {
                    reference_power_w: bad,
                    ..quick_options()
                },
            )
        });
        for (field, options) in cases
            .into_iter()
            .chain(samples)
            .chain(sources)
            .chain(powers)
        {
            match FastThermalModel::characterize(&config, 30.0, 30.0, &options) {
                Err(ThermalError::InvalidConfig { reason }) => {
                    assert!(reason.contains(field), "{options:?}: {reason}");
                }
                other => panic!("{options:?} was not refused: {other:?}"),
            }
        }
    }
}
