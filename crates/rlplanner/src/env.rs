//! The chiplet floorplanning environment.
//!
//! Chiplets are placed one per step, largest first. The agent's action is a
//! grid cell; the chiplet is centred on it. The state tensor has four
//! channels over the placement grid:
//!
//! 1. occupancy — fraction of each cell covered by already-placed chiplets,
//! 2. power — power already injected into each cell (normalised),
//! 3. feasibility — the action mask of the chiplet to be placed next,
//! 4. next-chiplet descriptor — a constant plane encoding the next
//!    chiplet's relative footprint and power.
//!
//! Intermediate steps earn zero reward; once the last chiplet lands, the
//! reward calculator performs microbump assignment, wirelength and thermal
//! evaluation and returns the combined reward (the structure of Fig. 1 in
//! the paper). Episodes where the remaining chiplet has no feasible cell end
//! immediately with the configured infeasible penalty.

use crate::reward::{RewardBreakdown, RewardCalculator};
use rlp_chiplet::{ChipletId, Placement, PlacementGrid, Rotation};
use rlp_nn::Tensor;
use rlp_rl::{Environment, Observation, StepResult};
use rlp_thermal::ThermalAnalyzer;
use serde::{Deserialize, Serialize};

/// Environment parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnvConfig {
    /// Placement grid resolution (columns, rows); also the action space.
    pub grid: (usize, usize),
    /// Minimum spacing between chiplets in millimetres.
    pub min_spacing_mm: f64,
}

impl Default for EnvConfig {
    fn default() -> Self {
        Self {
            grid: (16, 16),
            min_spacing_mm: 0.2,
        }
    }
}

/// The sequential chiplet placement environment.
#[derive(Debug)]
pub struct FloorplanEnv<A> {
    reward: RewardCalculator<A>,
    grid: PlacementGrid,
    config: EnvConfig,
    /// Placement order: chiplet ids sorted by decreasing area.
    order: Vec<ChipletId>,
    placement: Placement,
    next_index: usize,
    episode_done: bool,
    last_breakdown: Option<RewardBreakdown>,
    max_cell_power: f64,
    /// Feasibility mask of the next chiplet on the current placement, as
    /// the last observation built it; `step` checks the action against it.
    mask: Vec<bool>,
}

impl<A: ThermalAnalyzer> FloorplanEnv<A> {
    /// Creates an environment around a reward calculator.
    ///
    /// # Panics
    ///
    /// Panics if the grid is empty or the system has no chiplets.
    pub fn new(reward: RewardCalculator<A>, config: EnvConfig) -> Self {
        assert!(
            reward.system().chiplet_count() > 0,
            "the system must contain at least one chiplet"
        );
        let grid = PlacementGrid::new(config.grid.0, config.grid.1);
        let system = reward.system();
        let mut order: Vec<ChipletId> = system.chiplet_ids().collect();
        order.sort_by(|&a, &b| {
            system
                .chiplet(b)
                .area()
                .partial_cmp(&system.chiplet(a).area())
                .expect("chiplet areas are finite")
        });
        // Normaliser for the power channel: the densest chiplet fully
        // covering one cell.
        let cell_area = grid.cell_width(system) * grid.cell_height(system);
        let max_density = system
            .chiplets()
            .map(|(_, c)| c.power_density())
            .fold(0.0f64, f64::max);
        let max_cell_power = (max_density * cell_area).max(f64::MIN_POSITIVE);
        let placement = Placement::for_system(system);
        Self {
            reward,
            grid,
            config,
            order,
            placement,
            next_index: 0,
            episode_done: false,
            last_breakdown: None,
            max_cell_power,
            mask: Vec::new(),
        }
    }

    /// The environment configuration.
    pub fn config(&self) -> &EnvConfig {
        &self.config
    }

    /// The reward calculator driving the final reward.
    pub fn reward_calculator(&self) -> &RewardCalculator<A> {
        &self.reward
    }

    /// The placement grid shared with the agent's action space.
    pub fn grid(&self) -> &PlacementGrid {
        &self.grid
    }

    /// The current (possibly partial) placement.
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// Reward breakdown of the last completed episode, if it finished with a
    /// complete placement.
    pub fn last_breakdown(&self) -> Option<RewardBreakdown> {
        self.last_breakdown
    }

    /// Number of chiplets still to place in the current episode.
    pub fn remaining(&self) -> usize {
        self.order.len() - self.next_index
    }

    fn next_chiplet(&self) -> Option<ChipletId> {
        self.order.get(self.next_index).copied()
    }

    /// Builds the 4-channel state tensor and mask for the next chiplet,
    /// keeping the mask for the next `step`; returns `None` when the next
    /// chiplet has no feasible cell.
    fn observe(&mut self) -> Option<Observation> {
        let chiplet = self.next_chiplet()?;
        let system = self.reward.system();
        let mask = self.grid.feasibility_mask(
            system,
            &self.placement,
            chiplet,
            Rotation::None,
            self.config.min_spacing_mm,
        );
        if !mask.iter().any(|&m| m) {
            return None;
        }
        let cells = self.grid.cell_count();
        let occupancy = self.grid.occupancy_map(system, &self.placement);
        let power = self.grid.power_map(system, &self.placement);
        let next = system.chiplet(chiplet);
        let next_descriptor =
            (next.area() / (system.interposer_width() * system.interposer_height())
                + next.power() / system.total_power().max(f64::MIN_POSITIVE)) as f32
                / 2.0;

        let mut data = Vec::with_capacity(4 * cells);
        data.extend(occupancy.iter().copied());
        data.extend(
            power
                .iter()
                .map(|&p| (f64::from(p) / self.max_cell_power) as f32),
        );
        data.extend(mask.iter().map(|&m| if m { 1.0f32 } else { 0.0 }));
        data.extend(std::iter::repeat_n(next_descriptor, cells));
        let state = Tensor::from_vec(data, vec![4, self.grid.rows(), self.grid.cols()]);
        self.mask.clone_from(&mask);
        Some(Observation::new(state, mask))
    }
}

impl<A: ThermalAnalyzer> Environment for FloorplanEnv<A> {
    fn reset(&mut self) -> Observation {
        self.placement = Placement::for_system(self.reward.system());
        self.next_index = 0;
        self.episode_done = false;
        self.last_breakdown = None;
        self.observe()
            .expect("the first chiplet must have at least one feasible cell")
    }

    fn step(&mut self, action: usize) -> StepResult {
        assert!(!self.episode_done, "step called on a finished episode");
        let chiplet = self
            .next_chiplet()
            .expect("step called with no chiplet left to place");
        // The observation the agent acted on built this chiplet's mask on
        // this placement; nothing has moved since.
        let system = self.reward.system();
        if !self.mask.get(action).copied().unwrap_or(false) {
            // The agent ignored the mask: terminate with the penalty.
            self.episode_done = true;
            return StepResult {
                observation: None,
                reward: self.reward.config().infeasible_penalty,
                done: true,
            };
        }
        self.grid
            .apply_action(system, &mut self.placement, chiplet, Rotation::None, action)
            .expect("masked action is in range");
        self.next_index += 1;

        if self.next_index == self.order.len() {
            // All chiplets placed: run the full reward pipeline.
            self.episode_done = true;
            let breakdown = self.reward.evaluate(&self.placement);
            let reward = match breakdown {
                Ok(b) => {
                    self.last_breakdown = Some(b);
                    b.reward
                }
                Err(_) => self.reward.config().infeasible_penalty,
            };
            return StepResult {
                observation: None,
                reward,
                done: true,
            };
        }

        match self.observe() {
            Some(observation) => StepResult {
                observation: Some(observation),
                reward: 0.0,
                done: false,
            },
            None => {
                // The remaining chiplet cannot be placed anywhere.
                self.episode_done = true;
                StepResult {
                    observation: None,
                    reward: self.reward.config().infeasible_penalty,
                    done: true,
                }
            }
        }
    }

    fn action_count(&self) -> usize {
        self.grid.cell_count()
    }

    fn observation_shape(&self) -> Vec<usize> {
        vec![4, self.grid.rows(), self.grid.cols()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reward::RewardConfig;
    use rlp_chiplet::{Chiplet, ChipletSystem, Net};
    use rlp_thermal::{GridThermalSolver, ThermalConfig};

    fn env() -> FloorplanEnv<GridThermalSolver> {
        let mut sys = ChipletSystem::new("t", 40.0, 40.0);
        let a = sys.add_chiplet(Chiplet::new("a", 10.0, 10.0, 30.0));
        let b = sys.add_chiplet(Chiplet::new("b", 6.0, 6.0, 10.0));
        let c = sys.add_chiplet(Chiplet::new("c", 4.0, 4.0, 5.0));
        sys.add_net(Net::new(a, b, 32));
        sys.add_net(Net::new(b, c, 8));
        let calc = RewardCalculator::new(
            sys,
            GridThermalSolver::new(ThermalConfig::with_grid(12, 12)),
            RewardConfig::default(),
        );
        FloorplanEnv::new(calc, EnvConfig::default())
    }

    #[test]
    fn observation_has_four_channels_over_the_grid() {
        let mut e = env();
        let obs = e.reset();
        assert_eq!(obs.state.shape(), &[4, 16, 16]);
        assert_eq!(e.observation_shape(), vec![4, 16, 16]);
        assert_eq!(e.action_count(), 256);
        assert!(obs.feasible_count() > 0);
        // Empty placement: occupancy and power channels are all zero.
        let occupancy: f32 = obs.state.data()[..256].iter().sum();
        assert_eq!(occupancy, 0.0);
    }

    #[test]
    fn chiplets_are_placed_largest_first() {
        let mut e = env();
        e.reset();
        let first = e.next_chiplet().unwrap();
        assert_eq!(e.reward_calculator().system().chiplet(first).name(), "a");
    }

    #[test]
    fn episode_terminates_with_a_full_placement_and_reward() {
        let mut e = env();
        let mut obs = e.reset();
        let mut done = false;
        let mut final_reward = 0.0;
        for _ in 0..3 {
            let action = obs.action_mask.iter().position(|&m| m).unwrap();
            let step = e.step(action);
            final_reward = step.reward;
            if step.done {
                done = true;
                break;
            }
            obs = step.observation.unwrap();
        }
        assert!(done);
        assert!(e.placement().is_complete());
        assert!(final_reward < 0.0);
        let breakdown = e.last_breakdown().unwrap();
        assert!((breakdown.reward - final_reward).abs() < 1e-9);
        assert!(breakdown.wirelength_mm > 0.0);
        assert!(breakdown.max_temperature_c > 45.0);
    }

    #[test]
    fn intermediate_steps_give_zero_reward() {
        let mut e = env();
        let obs = e.reset();
        let action = obs.action_mask.iter().position(|&m| m).unwrap();
        let step = e.step(action);
        assert!(!step.done);
        assert_eq!(step.reward, 0.0);
        assert_eq!(e.remaining(), 2);
    }

    #[test]
    fn ignoring_the_mask_is_punished() {
        let mut e = env();
        let obs = e.reset();
        let infeasible = obs.action_mask.iter().position(|&m| !m).unwrap();
        let step = e.step(infeasible);
        assert!(step.done);
        assert_eq!(
            step.reward,
            e.reward_calculator().config().infeasible_penalty
        );
        assert!(e.last_breakdown().is_none());
    }

    #[test]
    fn occupancy_channel_fills_in_as_chiplets_land() {
        let mut e = env();
        let obs = e.reset();
        let action = obs.action_mask.iter().position(|&m| m).unwrap();
        let step = e.step(action);
        let next_obs = step.observation.unwrap();
        let occupancy: f32 = next_obs.state.data()[..256].iter().sum();
        assert!(occupancy > 0.0);
        // Power channel values stay in a sane range after normalisation.
        let power_channel = &next_obs.state.data()[256..512];
        assert!(power_channel.iter().all(|&v| (0.0..=1.5).contains(&v)));
    }

    #[test]
    fn reset_clears_previous_episode_state() {
        let mut e = env();
        let obs = e.reset();
        let action = obs.action_mask.iter().position(|&m| m).unwrap();
        e.step(action);
        let obs2 = e.reset();
        assert_eq!(e.remaining(), 3);
        assert_eq!(obs2.state.data()[..256].iter().sum::<f32>(), 0.0);
        assert!(e.last_breakdown().is_none());
    }

    #[test]
    #[should_panic(expected = "finished episode")]
    fn stepping_a_finished_episode_panics() {
        let mut e = env();
        let obs = e.reset();
        let infeasible = obs.action_mask.iter().position(|&m| !m).unwrap();
        e.step(infeasible);
        e.step(0);
    }
}
