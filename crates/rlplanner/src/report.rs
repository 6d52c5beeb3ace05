//! JSON reports for placements and run outcomes.
//!
//! Every document here is written by the one writer in [`rlp_obs::json`],
//! which fixes the encoding: strings escaped per RFC 8259 (every control
//! character included), numbers in shortest round-trip form and `null`
//! for non-finite ones (JSON has no spelling for `NaN` and `±inf`). The
//! field order is stable: fields always appear exactly in the order
//! documented below. The nested configuration and telemetry objects are
//! written from the key tables in `codec.rs`, the same tables
//! [`crate::parse`] reads them back with.
//!
//! # Placement document ([`placement_json`])
//!
//! ```json
//! {
//!   "chiplets": [
//!     { "name": "cpu", "x_mm": 4.0000, "y_mm": 16.0000, "rotation": "None" }
//!   ]
//! }
//! ```
//!
//! One record per *placed* chiplet, in placement-slot order. `x_mm`/`y_mm`
//! are the lower-left corner in millimetres with four decimals; `rotation`
//! is `"None"` or `"Quarter"`.
//!
//! # Outcome document ([`outcome_json`])
//!
//! ```json
//! {
//!   "schema": "rlplanner.outcome/v1",
//!   "system": { "name": "...", "chiplets": 4, "interposer_mm": [40, 40] },
//!   "breakdown": { "reward": -1.9, "wirelength_mm": 6200, "max_temperature_c": 78.4,
//!                  "eval_mode": "full" | "incremental" },
//!   "evaluations": 600,
//!   "evaluation": { "mode": "full" | "incremental", "full_evals": 1, "incremental_evals": 599 },
//!   "training": { "episodes": 600, "parallel_envs": 4 },
//!   "timing": { "runtime_s": 12.5, "characterization_s": 0.8, "cache_hits": 0,
//!               "cache_misses": 1, "episodes_per_s": 48.2 },
//!   "placement": { "chiplets": [ ... ] },
//!   "telemetry": [ { "index": 0, "reward": -2.5, "best_reward": -2.5 } ],
//!   "manifest": {
//!     "seed": 7,
//!     "budget": null | { "evaluations": 600 } | { "time_limit_s": 30 },
//!     "method": { "kind": "rl" | "rl-rnd" | "sa" | "gradient" | "pretrained", ... },
//!     "thermal": { "kind": "grid" | "fast", ... },
//!     "reward": { "lambda": 0.0003, ... },
//!     "warm_start": false
//!   }
//! }
//! ```
//!
//! `schema` identifies this exact layout ([`OUTCOME_SCHEMA`]); consumers
//! should check it before parsing. `breakdown.eval_mode` records which
//! evaluation engine produced the best breakdown, and the `evaluation`
//! object how the run's candidates were evaluated: `"incremental"` means
//! the propose/commit/reject engine served `incremental_evals` move
//! evaluations (bit-identical to full evaluation, so results never depend
//! on the mode), `"full"` that every candidate was evaluated from scratch.
//! `training` describes how an RL run's episodes were collected:
//! `episodes` the count actually collected (distinct from the top-level
//! `evaluations`, which counts objective evaluations) and `parallel_envs`
//! the rollout workers; parallel collection is trajectory-invariant, so
//! the knob changes only throughput, never results. It is `null` for the
//! runs that collect no episodes: SA, gradient and pretrained. `timing`
//! holds, on one line, every value that varies between two runs of the same
//! request, so a deterministic comparison drops this one member
//! ([`TIMING`]): the optimisation and analyzer-construction wall-clocks,
//! whether a shared characterisation cache served the analyzer, and the
//! training throughput (`null` when `training` is). The `manifest` object
//! carries everything the run depended on, so a run can be reproduced
//! from its report alone: `seed` is the seed it used (0 when the request set none)
//! and `budget` the request's budget in the request document's encoding;
//! `method` is every hyper-parameter of the method (`method.kind` selects
//! which method fields follow, mirroring [`crate::Method`]; a method
//! object carries no seed, budget or `parallel_envs`); `thermal.kind`
//! mirrors [`rlp_thermal::ThermalBackend`]; `warm_start` records whether
//! the run was seeded by the gradient presolve, which changes results and
//! must be replayed.
//!
//! # Request document ([`request_json`])
//!
//! ```json
//! {
//!   "schema": "rlplanner.request/v1",
//!   "system": {
//!     "name": "...",
//!     "interposer_mm": [40, 40],
//!     "chiplets": [ { "name": "cpu", "width_mm": 8, "height_mm": 8, "power_w": 25 } ],
//!     "nets": [ { "from": 0, "to": 1, "wires": 64 } ]
//!   },
//!   "method": { "kind": "rl" | "rl-rnd" | "sa" | "gradient" | "pretrained", ... },
//!   "thermal": { "kind": "grid" | "fast", ... },
//!   "reward": { "lambda": 0.0003, ... },
//!   "budget": null | { "evaluations": 600 } | { "time_limit_s": 30 },
//!   "seed": null | 7,
//!   "parallel_envs": null | 4,
//!   "warm_start": false
//! }
//! ```
//!
//! The wire form of a [`crate::FloorplanRequest`] — what a client sends an
//! `rlp-serve` daemon. Unlike the outcome document, the system is inlined
//! in full (chiplet footprints/powers at full precision, nets by chiplet
//! index in insertion order), so the receiver needs no out-of-band
//! benchmark registry. `method`/`thermal`/`reward` reuse the manifest
//! object shapes above; `budget`, `seed` and `parallel_envs` are the run's
//! only budget, seed and rollout parallelism (each `null` when unset) —
//! rendering a parsed request reproduces the original document byte for
//! byte; `warm_start` asks the solver to seed its optimiser with a
//! gradient-descent presolve. A request carrying a prebuilt analyzer renders only its backend
//! description; the analyzer itself never crosses the wire (the serving
//! side re-attaches one from its own cache).

use crate::codec::{budget, method, thermal, Record, Timing};
use crate::outcome::{FloorplanOutcome, RunManifest};
use crate::request::FloorplanRequest;
use rlp_chiplet::{ChipletSystem, Placement, Rotation};
use rlp_obs::json::{Layout, Writer};

/// Identifier of the outcome-document layout produced by [`outcome_json`].
pub const OUTCOME_SCHEMA: &str = "rlplanner.outcome/v1";

/// The member holding the VOLATILE values of an outcome, a campaign and
/// each campaign cell and run; dropping it with
/// [`rlp_obs::json::Value::without`] leaves what two runs must agree on.
pub const TIMING: &str = "timing";

/// Identifier of the request-document layout produced by [`request_json`].
pub const REQUEST_SCHEMA: &str = "rlplanner.request/v1";

/// Renders a placement as the documented placement document.
pub fn placement_json(system: &ChipletSystem, placement: &Placement) -> String {
    let mut w = Writer::pretty();
    write_placement(&mut w, system, placement);
    w.finish()
}

fn write_placement(w: &mut Writer, system: &ChipletSystem, placement: &Placement) {
    w.object(Layout::Block, |w| {
        w.key("chiplets").array(Layout::Block, |w| {
            for (id, position, rotation) in placement.iter_placed() {
                w.object(Layout::Inline, |w| {
                    w.field("name", system.chiplet(id).name());
                    w.key("x_mm").fixed(position.x, 4);
                    w.key("y_mm").fixed(position.y, 4);
                    w.field(
                        "rotation",
                        match rotation {
                            Rotation::None => "None",
                            Rotation::Quarter => "Quarter",
                        },
                    );
                });
            }
        });
    });
}

/// Renders a full run outcome as the documented outcome document.
pub fn outcome_json(system: &ChipletSystem, outcome: &FloorplanOutcome) -> String {
    let mut w = Writer::pretty();
    write_outcome(&mut w, system, outcome);
    w.finish()
}

/// Writes the outcome document as `w`'s next value — how documents that
/// embed an outcome (campaign cells, stream records) nest it, pretty or
/// compact.
pub fn write_outcome(w: &mut Writer, system: &ChipletSystem, outcome: &FloorplanOutcome) {
    w.object(Layout::Block, |w| {
        w.field("schema", OUTCOME_SCHEMA);
        w.key("system").object(Layout::Inline, |w| {
            w.field("name", system.name())
                .field("chiplets", system.chiplet_count())
                .field(
                    "interposer_mm",
                    (system.interposer_width(), system.interposer_height()),
                );
        });
        outcome.breakdown.write(w.key("breakdown"));
        w.field("evaluations", outcome.evaluations);
        outcome.evaluation.write(w.key("evaluation"));
        match &outcome.training {
            Some(training) => training.write(w.key("training")),
            None => {
                w.key("training").null();
            }
        }
        Timing {
            runtime: outcome.runtime,
            prep: outcome.thermal_prep,
            episodes_per_s: outcome.training.map_or(f64::NAN, |t| t.episodes_per_s),
        }
        .write(w.key(TIMING));
        write_placement(w.key("placement"), system, &outcome.placement);
        w.key("telemetry").array(Layout::Block, |w| {
            for sample in &outcome.telemetry {
                sample.write(w);
            }
        });
        write_manifest(w.key("manifest"), &outcome.manifest);
    });
}

/// Renders a manifest as the outcome document's `manifest` member, on one
/// line. Comparing two renderings compares what the runs were, with a
/// wall-clock budget taken at its rendered seconds.
pub fn manifest_json(manifest: &RunManifest) -> String {
    let mut w = Writer::compact();
    write_manifest(&mut w, manifest);
    w.finish()
}

fn write_manifest(w: &mut Writer, manifest: &RunManifest) {
    w.object(Layout::Block, |w| {
        w.field("seed", manifest.seed);
        budget::write(&manifest.budget, w.key("budget"));
        method::write(&manifest.method, w.key("method"));
        thermal::write(&manifest.thermal, w.key("thermal"));
        manifest.reward.write(w.key("reward"));
        w.field("warm_start", manifest.warm_start);
    });
}

/// Renders a request as the documented request document — the wire form an
/// `rlp-serve` client sends. [`crate::request_from_json`] is the inverse.
pub fn request_json(request: &FloorplanRequest) -> String {
    let mut w = Writer::pretty();
    w.object(Layout::Block, |w| {
        w.field("schema", REQUEST_SCHEMA);
        let system = request.system();
        w.key("system").object(Layout::Block, |w| {
            w.field("name", system.name()).field(
                "interposer_mm",
                (system.interposer_width(), system.interposer_height()),
            );
            w.key("chiplets").array(Layout::Block, |w| {
                for id in system.chiplet_ids() {
                    let chiplet = system.chiplet(id);
                    w.object(Layout::Inline, |w| {
                        w.field("name", chiplet.name())
                            .field("width_mm", chiplet.width())
                            .field("height_mm", chiplet.height())
                            .field("power_w", chiplet.power());
                    });
                }
            });
            w.key("nets").array(Layout::Block, |w| {
                for net in system.nets() {
                    w.object(Layout::Inline, |w| {
                        w.field("from", net.from.index())
                            .field("to", net.to.index())
                            .field("wires", net.wires);
                    });
                }
            });
        });
        method::write(request.method(), w.key("method"));
        thermal::write(request.thermal(), w.key("thermal"));
        request.reward().write(w.key("reward"));
        budget::write(&request.budget(), w.key("budget"));
        w.field("seed", request.seed())
            .field("parallel_envs", request.parallel_envs())
            .field("warm_start", request.warm_start());
    });
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outcome::TelemetrySample;
    use crate::request::Method;
    use crate::reward::{RewardBreakdown, RewardConfig};
    use rlp_chiplet::{Chiplet, Position};
    use rlp_thermal::ThermalBackend;
    use std::time::Duration;

    fn system_with(names: &[&str]) -> (ChipletSystem, Placement) {
        let mut sys = ChipletSystem::new("report-test", 30.0, 30.0);
        let ids: Vec<_> = names
            .iter()
            .map(|name| sys.add_chiplet(Chiplet::new(*name, 5.0, 5.0, 10.0)))
            .collect();
        let mut placement = Placement::for_system(&sys);
        for (i, id) in ids.iter().enumerate() {
            placement.place(*id, Position::new(2.0 + 7.0 * i as f64, 3.0));
        }
        (sys, placement)
    }

    fn outcome_for(system: &ChipletSystem, placement: Placement) -> FloorplanOutcome {
        FloorplanOutcome {
            placement,
            breakdown: RewardBreakdown {
                reward: -1.5,
                wirelength_mm: 120.0,
                max_temperature_c: 63.25,
                eval_mode: rlp_sa::EvalMode::Incremental,
            },
            evaluation: crate::outcome::EvalTelemetry {
                mode: rlp_sa::EvalMode::Incremental,
                counts: rlp_sa::EvalCounts {
                    full: 1,
                    incremental: 1,
                },
            },
            training: Some(crate::outcome::TrainingTelemetry {
                episodes: 33,
                parallel_envs: 2,
                episodes_per_s: 16.5,
            }),
            telemetry: vec![
                TelemetrySample {
                    index: 0,
                    reward: -2.0,
                    best_reward: -2.0,
                },
                TelemetrySample {
                    index: 1,
                    reward: -1.5,
                    best_reward: -1.5,
                },
            ],
            evaluations: 2,
            runtime: Duration::from_millis(250),
            thermal_prep: rlp_thermal::ThermalPrep {
                cache_hits: 1,
                cache_misses: 0,
                characterization: Duration::ZERO,
            },
            manifest: RunManifest {
                system_name: system.name().to_string(),
                chiplet_count: system.chiplet_count(),
                method: Method::rl_rnd(),
                thermal: ThermalBackend::fast(),
                reward: RewardConfig::default(),
                seed: 7,
                budget: None,
                warm_start: false,
            },
        }
    }

    #[test]
    fn placement_json_lists_every_placed_chiplet() {
        let (sys, placement) = system_with(&["cpu", "gpu"]);
        let json = placement_json(&sys, &placement);
        assert!(json.contains("\"name\": \"cpu\""));
        assert!(json.contains("\"name\": \"gpu\""));
        assert!(json.contains("\"rotation\": \"None\""));
        assert_eq!(json.matches("\"x_mm\"").count(), 2);
    }

    #[test]
    fn empty_placement_renders_an_empty_array() {
        let (sys, _) = system_with(&["cpu"]);
        let json = placement_json(&sys, &Placement::for_system(&sys));
        assert_eq!(json, "{\n  \"chiplets\": []\n}");
    }

    #[test]
    fn quotes_backslashes_and_control_characters_are_escaped() {
        // The escaping rules themselves are tested in `rlp_obs::json`.
        let (sys, placement) = system_with(&["die\"0\\\n"]);
        let json = placement_json(&sys, &placement);
        assert!(json.contains("\"name\": \"die\\\"0\\\\\\n\""));
    }

    #[test]
    fn non_finite_numbers_render_as_null() {
        let (sys, placement) = system_with(&["cpu"]);
        let mut outcome = outcome_for(&sys, placement);
        outcome.breakdown.wirelength_mm = f64::NAN;
        let json = outcome_json(&sys, &outcome);
        assert!(json.contains("\"wirelength_mm\": null"));
    }

    #[test]
    fn outcome_document_has_the_documented_shape_and_order() {
        let (sys, placement) = system_with(&["cpu", "gpu"]);
        let outcome = outcome_for(&sys, placement);
        let json = outcome_json(&sys, &outcome);

        // Every documented top-level field is present...
        let keys = [
            "\"schema\"",
            "\"system\"",
            "\"breakdown\"",
            "\"evaluations\"",
            "\"evaluation\"",
            "\"training\"",
            "\"timing\"",
            "\"placement\"",
            "\"telemetry\"",
            "\"manifest\"",
        ];
        // ...exactly in the documented order.
        let positions: Vec<usize> = keys
            .iter()
            .map(|k| json.find(k).unwrap_or_else(|| panic!("missing key {k}")))
            .collect();
        assert!(
            positions.windows(2).all(|w| w[0] < w[1]),
            "top-level keys out of order"
        );

        assert!(json.starts_with(&format!("{{\n  \"schema\": \"{OUTCOME_SCHEMA}\"")));
        assert!(json.contains("\"eval_mode\": \"incremental\""));
        assert!(json.contains(
            "\"evaluation\": { \"mode\": \"incremental\", \"full_evals\": 1, \"incremental_evals\": 1 }"
        ));
        assert!(json.contains("\"training\": { \"episodes\": 33, \"parallel_envs\": 2 }"));
        // The manifest does not record the rollout-parallelism knob: it
        // cannot change the result.
        assert_eq!(json.matches("\"parallel_envs\"").count(), 1);
        assert!(json.contains(
            "\n  \"timing\": { \"runtime_s\": 0.25, \"characterization_s\": 0, \
             \"cache_hits\": 1, \"cache_misses\": 0, \"episodes_per_s\": 16.5 },\n"
        ));
        assert!(json.contains("\"kind\": \"rl-rnd\""));
        assert!(json.contains("\"kind\": \"fast\""));
        assert!(json.contains("\"seed\": 7,\n    \"budget\": null,\n    \"method\": {"));
        assert!(json.contains("\"index\": 1"));
        // The manifest records the full PPO and agent hyper-parameters.
        assert!(json.contains("\"gamma\": 0.99"));
        assert!(json.contains("\"conv_channels\": [8, 16]"));
        assert!(json.contains("\"lambda\": 0.0003"));
    }

    #[test]
    fn field_order_is_deterministic_across_renders() {
        let (sys, placement) = system_with(&["cpu"]);
        let outcome = outcome_for(&sys, placement.clone());
        assert_eq!(outcome_json(&sys, &outcome), outcome_json(&sys, &outcome));
        // An SA manifest renders its own stable shape, and an SA outcome
        // (no rollout pool) renders a null training object.
        let mut sa_outcome = outcome_for(&sys, placement);
        sa_outcome.manifest.method = Method::sa();
        sa_outcome.training = None;
        let json = outcome_json(&sys, &sa_outcome);
        assert!(json.contains("\"training\": null"));
        let kind = json.find("\"kind\": \"sa\"").unwrap();
        let cooling = json.find("\"cooling_rate\"").unwrap();
        let grid = json.find("\"grid\": [16, 16]").unwrap();
        assert!(kind < cooling && cooling < grid);
    }

    #[test]
    fn gradient_manifest_renders_its_stable_shape() {
        let (sys, placement) = system_with(&["cpu"]);
        let mut outcome = outcome_for(&sys, placement);
        outcome.manifest.method = Method::gradient();
        outcome.manifest.budget = Some(crate::Budget::Evaluations(60));
        outcome.manifest.warm_start = true;
        outcome.training = None;
        let json = outcome_json(&sys, &outcome);
        let budget = json.find("\"budget\": { \"evaluations\": 60 }").unwrap();
        let kind = json.find("\"kind\": \"gradient\"").unwrap();
        let restarts = json.find("\"restarts\": 4").unwrap();
        let lr = json.find("\"learning_rate\"").unwrap();
        let grid = json.find("\"grid\": [16, 16]").unwrap();
        let warm = json.find("\"warm_start\": true").unwrap();
        assert!(budget < kind && kind < restarts && restarts < lr && lr < grid && grid < warm);
        assert!(json.contains("\"sharpness_growth\": 1.02"));
    }
}
