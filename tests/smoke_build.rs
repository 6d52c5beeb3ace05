//! Fast wiring smoke test: a 2-chiplet system through the whole stack —
//! geometry, reward, thermal solve, environment, and a full facade solve
//! (policy network, PPO episodes, outcome assembly) — with budgets tiny
//! enough to finish in a couple of seconds. CI runs this first to catch
//! crate-wiring regressions without waiting for the full integration suite.

use rlp_chiplet::{Chiplet, ChipletSystem, Net};
use rlp_rl::Environment;
use rlp_thermal::{AnyThermalAnalyzer, GridThermalSolver, ThermalBackend, ThermalConfig};
use rlplanner::{
    Budget, EnvConfig, FloorplanEnv, FloorplanRequest, Method, RewardCalculator, RewardConfig,
    RlPlannerConfig,
};

fn two_chiplet_system() -> ChipletSystem {
    let mut system = ChipletSystem::new("smoke", 20.0, 20.0);
    let cpu = system.add_chiplet(Chiplet::new("cpu", 6.0, 6.0, 20.0));
    let mem = system.add_chiplet(Chiplet::new("mem", 4.0, 4.0, 4.0));
    system.add_net(Net::new(cpu, mem, 32));
    system
}

fn tiny_env() -> FloorplanEnv {
    let calculator = RewardCalculator::new(
        two_chiplet_system(),
        AnyThermalAnalyzer::Grid(GridThermalSolver::new(ThermalConfig::with_grid(8, 8))),
        RewardConfig::default(),
    );
    FloorplanEnv::new(
        calculator,
        EnvConfig {
            grid: (8, 8),
            min_spacing_mm: 0.2,
        },
    )
}

#[test]
fn greedy_episode_completes_with_a_legal_placement() {
    let mut env = tiny_env();
    let mut observation = env.reset();
    let mut steps = 0;
    loop {
        let action = observation
            .action_mask
            .iter()
            .position(|&feasible| feasible)
            .expect("at least one feasible action");
        let result = env.step(action);
        steps += 1;
        assert!(steps <= 2, "a 2-chiplet episode must end in 2 steps");
        assert!(result.reward.is_finite());
        if result.done {
            break;
        }
        observation = result
            .observation
            .expect("ongoing episode has an observation");
    }
    assert_eq!(steps, 2);
    assert!(env.placement().is_complete());
    let breakdown = env
        .last_breakdown()
        .expect("a complete episode reports a reward breakdown");
    assert!(breakdown.wirelength_mm > 0.0);
    assert!(breakdown.max_temperature_c > 0.0);
}

#[test]
fn facade_solves_a_tiny_rl_request_end_to_end() {
    let episodes = 2usize;
    let outcome = FloorplanRequest::builder()
        .system(two_chiplet_system())
        .method(Method::Rl {
            config: RlPlannerConfig {
                episodes_per_update: 2,
                env: EnvConfig {
                    grid: (8, 8),
                    min_spacing_mm: 0.2,
                },
                ..RlPlannerConfig::default()
            },
        })
        .thermal(ThermalBackend::Grid {
            config: ThermalConfig::with_grid(8, 8),
        })
        .budget(Budget::Evaluations(episodes))
        .seed(3)
        .build()
        .expect("valid request")
        .solve()
        .expect("solve failed");
    assert!(outcome.placement.is_complete());
    assert_eq!(outcome.evaluations, episodes);
    assert_eq!(outcome.telemetry.len(), episodes);
    assert_eq!(outcome.manifest.seed, 3);
    assert!(outcome.breakdown.wirelength_mm > 0.0);
}
