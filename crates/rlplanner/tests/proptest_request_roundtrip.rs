//! Property-based round-trip tests for the `rlplanner.request/v1` wire
//! document: any request the builder accepts must survive
//! render → parse → render byte-identically, because the daemon relies on
//! the parsed request being exactly what the client built. Seeds and
//! budgets are drawn at request level only: no method configuration
//! carries either.

use proptest::prelude::*;
use rlp_chiplet::{Chiplet, ChipletSystem, Net};
use rlp_sa::SaConfig;
use rlp_thermal::{CharacterizationOptions, ThermalBackend, ThermalConfig};
use rlplanner::report::request_json;
use rlplanner::{
    request_from_json, Budget, FloorplanRequest, GradientConfig, Method, RlPlannerConfig,
};
use std::time::Duration;

/// Builds a chain-connected system with full-precision dimensions/powers
/// and a hostile name drawn from characters JSON must escape.
fn system_for(name_bits: u32, n: usize, dims: &[(f64, f64, f64)], wires: u32) -> ChipletSystem {
    let hostile = ['q', '"', '\\', ' ', '\n', 'z'];
    let name: String = (0..4)
        .map(|i| hostile[((name_bits >> (8 * i)) & 0xff) as usize % hostile.len()])
        .collect();
    let mut sys = ChipletSystem::new(name, 60.0, 60.0);
    let mut prev = None;
    for i in 0..n {
        let (w, h, p) = dims[i % dims.len()];
        let id = sys.add_chiplet(Chiplet::new(format!("c{i}"), w, h, p));
        if let Some(prev) = prev {
            sys.add_net(Net::new(prev, id, wires));
        }
        prev = Some(id);
    }
    sys
}

fn method_for(selector: u8, count: usize, knob: f64) -> Method {
    match selector % 4 {
        0 | 1 => {
            let config = RlPlannerConfig {
                episodes_per_update: count,
                ..RlPlannerConfig::default()
            };
            if selector.is_multiple_of(4) {
                Method::Rl { config }
            } else {
                Method::RlRnd { config }
            }
        }
        2 => Method::Sa {
            config: SaConfig {
                initial_temperature: 1.0 + knob * 400.0,
                cooling_rate: 0.5 + knob * 0.49,
                moves_per_temperature: count,
                ..SaConfig::default()
            },
        },
        _ => Method::Gradient {
            config: GradientConfig {
                iterations: count,
                restarts: 1 + count % 8,
                learning_rate: 0.05 + knob * 4.0,
                sharpness_growth: 1.0 + knob * 0.1,
                ..GradientConfig::default()
            },
        },
    }
}

fn thermal_for(selector: u8, grid: usize, bins: usize, reference_power_w: f64) -> ThermalBackend {
    if selector.is_multiple_of(2) {
        ThermalBackend::Grid {
            config: ThermalConfig::with_grid(grid, grid),
        }
    } else {
        ThermalBackend::Fast {
            config: ThermalConfig::with_grid(grid, grid),
            characterization: CharacterizationOptions {
                distance_bins: bins,
                reference_power_w,
                ..CharacterizationOptions::default()
            },
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Builder-generated requests round-trip through the wire document
    /// byte-identically, and the parsed request is semantically equal. A
    /// request rebuilt from its own builder copy renders the same document.
    #[test]
    fn request_documents_round_trip_byte_identically(
        name_bits in any::<u32>(),
        n in 1usize..6,
        dims in prop::collection::vec((0.5f64..9.5, 0.5f64..9.5, 0.0f64..40.0), 6),
        wires in 1u32..200,
        method_selector in any::<u8>(),
        count in 1usize..500,
        knob in 0.0f64..1.0,
        thermal_selector in any::<u8>(),
        grid in 2usize..24,
        bins in 2usize..16,
        reference_power_w in 0.5f64..5.0,
        budget_selector in any::<u8>(),
        budget_amount in 1usize..10_000,
        seed_override in any::<u32>(),
        use_seed in any::<bool>(),
        parallel_envs in 1usize..8,
        use_parallel_envs in any::<bool>(),
        warm_start in any::<bool>(),
    ) {
        let mut builder = FloorplanRequest::builder()
            .system(system_for(name_bits, n, &dims, wires))
            .method(method_for(method_selector, count, knob))
            .thermal(thermal_for(thermal_selector, grid, bins, reference_power_w));
        match budget_selector % 3 {
            0 => {}
            1 => builder = builder.budget(Budget::Evaluations(budget_amount)),
            _ => builder = builder.budget(Budget::TimeLimit(Duration::from_millis(
                budget_amount as u64,
            ))),
        }
        if use_seed {
            builder = builder.seed(u64::from(seed_override));
        }
        if use_parallel_envs {
            builder = builder.parallel_envs(parallel_envs);
        }
        builder = builder.warm_start(warm_start);
        let request = builder.build().expect("generated request is valid");

        let json = request_json(&request);
        let rebuilt = request.to_builder().build().expect("a request's own builder builds");
        prop_assert_eq!(request_json(&rebuilt), json.clone());
        let parsed = request_from_json(&json).expect("rendered request parses");
        prop_assert_eq!(request_json(&parsed), json);
        prop_assert_eq!(parsed.system().name(), request.system().name());
        prop_assert_eq!(parsed.system().chiplet_count(), request.system().chiplet_count());
        prop_assert_eq!(parsed.system().net_count(), request.system().net_count());
        prop_assert_eq!(parsed.method(), request.method());
        prop_assert_eq!(parsed.thermal(), request.thermal());
        prop_assert_eq!(parsed.reward(), request.reward());
        prop_assert_eq!(parsed.budget(), request.budget());
        prop_assert_eq!(parsed.seed(), request.seed());
        prop_assert_eq!(parsed.parallel_envs(), request.parallel_envs());
        prop_assert_eq!(parsed.warm_start(), request.warm_start());
    }
}
