//! Synthetic chiplet system generation.
//!
//! The paper evaluates its fast thermal model on 2,000 synthetic chiplet
//! systems (Table II) and its planner on five synthetic cases (Table III).
//! This module provides a seeded generator for such systems so both
//! experiments are reproducible.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rlp_chiplet::{Chiplet, ChipletSystem, Net};

/// Parameters of the synthetic system distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticConfig {
    /// Inclusive range of chiplet counts.
    pub chiplet_count: (usize, usize),
    /// Range of die side lengths in millimetres.
    pub side_mm: (f64, f64),
    /// Range of power densities in W/mm².
    pub power_density_w_mm2: (f64, f64),
    /// Range of wire counts per net.
    pub wires: (u32, u32),
    /// Probability of adding an extra net beyond the connectivity spanning tree.
    pub extra_net_probability: f64,
    /// Target interposer utilisation (chiplet area / interposer area).
    pub target_utilization: f64,
}

impl Default for SyntheticConfig {
    fn default() -> Self {
        Self {
            chiplet_count: (4, 10),
            side_mm: (4.0, 14.0),
            power_density_w_mm2: (0.1, 0.6),
            wires: (16, 256),
            extra_net_probability: 0.3,
            target_utilization: 0.35,
        }
    }
}

impl SyntheticConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.chiplet_count.0 < 1 || self.chiplet_count.0 > self.chiplet_count.1 {
            return Err("chiplet count range is invalid".to_string());
        }
        if self.side_mm.0 <= 0.0 || self.side_mm.0 > self.side_mm.1 {
            return Err("side length range is invalid".to_string());
        }
        if self.power_density_w_mm2.0 < 0.0
            || self.power_density_w_mm2.0 > self.power_density_w_mm2.1
        {
            return Err("power density range is invalid".to_string());
        }
        if self.wires.0 < 1 || self.wires.0 > self.wires.1 {
            return Err("wire count range is invalid".to_string());
        }
        if !(0.0..=1.0).contains(&self.extra_net_probability) {
            return Err("extra net probability must be in [0, 1]".to_string());
        }
        if !(0.05..=0.7).contains(&self.target_utilization) {
            return Err("target utilization must be in [0.05, 0.7]".to_string());
        }
        Ok(())
    }
}

/// A seeded generator of random chiplet systems.
#[derive(Debug, Clone)]
pub struct SyntheticSystemGenerator {
    config: SyntheticConfig,
    rng: ChaCha8Rng,
    generated: usize,
}

impl SyntheticSystemGenerator {
    /// Creates a generator with the given configuration and seed.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(config: SyntheticConfig, seed: u64) -> Self {
        config.validate().expect("invalid synthetic configuration");
        Self {
            config,
            rng: ChaCha8Rng::seed_from_u64(seed),
            generated: 0,
        }
    }

    /// The generator configuration.
    pub fn config(&self) -> &SyntheticConfig {
        &self.config
    }

    /// Generates the next random system.
    pub fn generate(&mut self) -> ChipletSystem {
        self.generated += 1;
        rlp_obs::obs_counter!("benchmarks.synthetic.systems").inc();
        let count = self
            .rng
            .gen_range(self.config.chiplet_count.0..=self.config.chiplet_count.1);
        // Draw dies first so the interposer can be sized from their total area.
        let mut dies = Vec::with_capacity(count);
        let mut total_area = 0.0;
        for i in 0..count {
            let w = self
                .rng
                .gen_range(self.config.side_mm.0..=self.config.side_mm.1);
            let h = self
                .rng
                .gen_range(self.config.side_mm.0..=self.config.side_mm.1);
            let density = self
                .rng
                .gen_range(self.config.power_density_w_mm2.0..=self.config.power_density_w_mm2.1);
            total_area += w * h;
            dies.push((format!("chiplet{i}"), w, h, w * h * density));
        }
        let interposer_area = total_area / self.config.target_utilization;
        let side = interposer_area.sqrt().ceil();
        // Never smaller than twice the largest die side, so rotations stay legal.
        let largest_side = dies
            .iter()
            .map(|(_, w, h, _)| w.max(*h))
            .fold(0.0f64, f64::max);
        let side = side.max(2.0 * largest_side);

        let mut sys = ChipletSystem::new(format!("synthetic-{}", self.generated), side, side);
        let ids: Vec<_> = dies
            .into_iter()
            .map(|(name, w, h, p)| sys.add_chiplet(Chiplet::new(name, w, h, p)))
            .collect();

        // Connectivity: a random spanning tree keeps the system connected,
        // plus optional extra nets.
        for i in 1..ids.len() {
            let parent = self.rng.gen_range(0..i);
            let wires = self
                .rng
                .gen_range(self.config.wires.0..=self.config.wires.1);
            sys.add_net(Net::new(ids[parent], ids[i], wires));
        }
        for i in 0..ids.len() {
            for j in (i + 1)..ids.len() {
                if self.rng.gen::<f64>() < self.config.extra_net_probability {
                    let wires = self
                        .rng
                        .gen_range(self.config.wires.0..=self.config.wires.1);
                    sys.add_net(Net::new(ids[i], ids[j], wires));
                }
            }
        }
        sys
    }

    /// Generates a batch of systems.
    pub fn generate_batch(&mut self, count: usize) -> Vec<ChipletSystem> {
        (0..count).map(|_| self.generate()).collect()
    }
}

/// The five fixed synthetic cases of the paper's Table III (Case1–Case5).
///
/// Each case uses a distinct seed and chiplet-count range so the five
/// systems span small to moderately large floorplanning instances.
///
/// # Panics
///
/// Panics if `case` is not in `1..=5`.
pub fn synthetic_case(case: usize) -> ChipletSystem {
    assert!(
        (1..=5).contains(&case),
        "synthetic cases are numbered 1..=5"
    );
    let counts = [(4, 4), (5, 5), (6, 6), (7, 7), (8, 8)];
    let config = SyntheticConfig {
        chiplet_count: counts[case - 1],
        ..SyntheticConfig::default()
    };
    let mut generator = SyntheticSystemGenerator::new(config, 1000 + case as u64);
    let mut sys = generator.generate();
    // Give the case a stable, paper-style name.
    let renamed = ChipletSystem::new(
        format!("case{case}"),
        sys.interposer_width(),
        sys.interposer_height(),
    );
    let mut out = renamed;
    let mut id_map = Vec::new();
    for (_, chiplet) in sys.chiplets() {
        id_map.push(out.add_chiplet(chiplet.clone()));
    }
    for net in sys.nets() {
        out.add_net(Net::new(
            id_map[net.from.index()],
            id_map[net.to.index()],
            net.wires,
        ));
    }
    sys = out;
    sys
}

/// All five synthetic cases, in order.
pub fn synthetic_cases() -> Vec<ChipletSystem> {
    (1..=5).map(synthetic_case).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_deterministic_for_a_seed() {
        let mut g1 = SyntheticSystemGenerator::new(SyntheticConfig::default(), 7);
        let mut g2 = SyntheticSystemGenerator::new(SyntheticConfig::default(), 7);
        let a = g1.generate();
        let b = g2.generate();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_produce_different_systems() {
        let mut g1 = SyntheticSystemGenerator::new(SyntheticConfig::default(), 1);
        let mut g2 = SyntheticSystemGenerator::new(SyntheticConfig::default(), 2);
        assert_ne!(g1.generate(), g2.generate());
    }

    #[test]
    fn generated_systems_are_connected_and_plannable() {
        let mut generator = SyntheticSystemGenerator::new(SyntheticConfig::default(), 42);
        for sys in generator.generate_batch(25) {
            assert!(sys.chiplet_count() >= 4);
            // Spanning tree guarantees at least n-1 nets.
            assert!(sys.net_count() >= sys.chiplet_count() - 1);
            // Utilisation near the target leaves room to plan.
            let util = sys.utilization();
            assert!(util < 0.5, "{}: utilization {util}", sys.name());
            // Every chiplet appears in at least one net.
            for id in sys.chiplet_ids() {
                assert!(sys.nets_of(id).count() > 0, "{id} is disconnected");
            }
        }
    }

    #[test]
    fn batch_size_is_respected() {
        let mut generator = SyntheticSystemGenerator::new(SyntheticConfig::default(), 0);
        assert_eq!(generator.generate_batch(10).len(), 10);
    }

    #[test]
    fn synthetic_cases_are_stable_and_distinct() {
        let cases = synthetic_cases();
        assert_eq!(cases.len(), 5);
        for (i, case) in cases.iter().enumerate() {
            assert_eq!(case.name(), format!("case{}", i + 1));
            assert_eq!(case.chiplet_count(), i + 4);
        }
        // Regenerating gives identical systems (fixed seeds).
        assert_eq!(synthetic_case(3), synthetic_case(3));
    }

    #[test]
    fn config_validation_catches_bad_ranges() {
        assert!(SyntheticConfig {
            chiplet_count: (5, 2),
            ..SyntheticConfig::default()
        }
        .validate()
        .is_err());
        assert!(SyntheticConfig {
            side_mm: (0.0, 5.0),
            ..SyntheticConfig::default()
        }
        .validate()
        .is_err());
        assert!(SyntheticConfig {
            target_utilization: 0.9,
            ..SyntheticConfig::default()
        }
        .validate()
        .is_err());
        assert!(SyntheticConfig::default().validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "numbered 1..=5")]
    fn out_of_range_case_panics() {
        synthetic_case(6);
    }
}
