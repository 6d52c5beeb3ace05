//! Parsing outcome and request documents back into facade values.
//!
//! [`crate::report::outcome_json`] renders a run as the documented
//! `rlplanner.outcome/v1` document; this module is the inverse, used by
//! batch drivers that resume interrupted campaign streams and need the
//! prior runs as real [`FloorplanOutcome`] values, not opaque text. The
//! document carries the whole manifest, so the reconstruction is
//! complete: every configuration field, the budget and seed, the
//! placement, the telemetry history and the evaluation counts come back
//! exactly as rendered.
//!
//! A method object holds its `kind` and its configuration's members and
//! nothing else: any other member, such as the seed or budget members that
//! method objects carried before those moved to the request (and the
//! manifest's `seed` and `budget`), is refused with an error naming it, so
//! such a document is never run on seed 0.
//!
//! [`request_from_json`] is the matching inverse of
//! [`crate::report::request_json`]: it rebuilds a full
//! [`FloorplanRequest`] — system included — from an
//! `rlplanner.request/v1` document, which is how the `rlp-serve` daemon
//! receives work over a socket. Every construction contract that panics in
//! the typed API (non-positive footprints, out-of-range net endpoints,
//! zero-wire nets, invalid configurations) is surfaced as a parse error
//! here, so adversarial documents cannot crash the receiving process.
//!
//! The nested configuration and telemetry objects are read with the key
//! tables in `codec.rs`, the same tables [`crate::report`] renders them
//! from; this module adds what those tables cannot know: schema checks,
//! the system header, chiplet names resolved against the system, and the
//! construction contracts of the system itself.
//!
//! Two encodings are lossy by design and documented here rather than
//! hidden: JSON has no non-finite numbers, so the writer emits `null` for
//! them and this parser maps `null` back to NaN (an `-inf` reward
//! round-trips as NaN); and placement coordinates are rendered with four
//! decimals, so positions come back rounded to 0.1 µm. Re-rendering a
//! parsed outcome reproduces the original document byte for byte, which is
//! the invariant the campaign resume path relies on.

use crate::codec::{budget, err, member, method, object, read, thermal, Key, Record, Timing};
use crate::outcome::{FloorplanOutcome, RunManifest, TrainingTelemetry};
use crate::report::{OUTCOME_SCHEMA, REQUEST_SCHEMA, TIMING};
use crate::request::FloorplanRequest;
use rlp_chiplet::{Chiplet, ChipletId, ChipletSystem, Net, Placement, Position, Rotation};
use rlp_obs::json::Value;
use std::collections::HashMap;
use std::fmt;

/// Why an outcome document could not be parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutcomeParseError {
    /// Description of the first violation, naming the offending field.
    pub message: String,
}

impl fmt::Display for OutcomeParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid outcome document: {}", self.message)
    }
}

impl std::error::Error for OutcomeParseError {}

fn parse(text: &str) -> Result<Value, OutcomeParseError> {
    Value::parse(text).map_err(|e| OutcomeParseError {
        message: e.to_string(),
    })
}

fn check_schema(doc: &Value, expected: &str) -> Result<(), OutcomeParseError> {
    let schema: String = read(doc, Key::top("schema"))?;
    if schema != expected {
        return err(format!(
            "unsupported schema `{schema}` (expected `{expected}`)"
        ));
    }
    Ok(())
}

/// Parses an `rlplanner.outcome/v1` document against the system it was
/// solved for.
///
/// The system provides the chiplet-name-to-slot mapping the placement
/// object needs; the document's own `system` header must agree with it
/// (same name and chiplet count), which catches a stream resumed against
/// the wrong benchmark.
///
/// # Errors
///
/// Returns an [`OutcomeParseError`] naming the first malformed, missing or
/// inconsistent field (including JSON syntax errors).
pub fn outcome_from_json(
    text: &str,
    system: &ChipletSystem,
) -> Result<FloorplanOutcome, OutcomeParseError> {
    outcome_from_value(&parse(text)?, system)
}

/// Parses an already-decoded outcome document; see [`outcome_from_json`].
///
/// # Errors
///
/// Returns an [`OutcomeParseError`] naming the first malformed, missing or
/// inconsistent field.
pub fn outcome_from_value(
    doc: &Value,
    system: &ChipletSystem,
) -> Result<FloorplanOutcome, OutcomeParseError> {
    check_schema(doc, OUTCOME_SCHEMA)?;
    let header = member(doc, Key::top("system"))?;
    let name: String = read(header, Key::new("system", "name"))?;
    if name != system.name() {
        return err(format!(
            "document is for system `{name}`, not `{}`",
            system.name()
        ));
    }
    let chiplets: usize = read(header, Key::new("system", "chiplets"))?;
    if chiplets != system.chiplet_count() {
        return err(format!(
            "document records {chiplets} chiplets but `{}` has {}",
            system.name(),
            system.chiplet_count()
        ));
    }
    let top = Key::top;
    let in_manifest = |name| Key::new("manifest", name);
    let timing: Timing = object::read(doc, top(TIMING))?;
    Ok(FloorplanOutcome {
        breakdown: object::read(doc, top("breakdown"))?,
        evaluations: read(doc, top("evaluations"))?,
        evaluation: object::read(doc, top("evaluation"))?,
        training: match member(doc, top("training"))? {
            Value::Null => None,
            value => Some(TrainingTelemetry {
                episodes_per_s: timing.episodes_per_s,
                ..TrainingTelemetry::read(value, "training")?
            }),
        },
        runtime: timing.runtime,
        thermal_prep: timing.prep,
        placement: placement_from(member(doc, top("placement"))?, system)?,
        telemetry: match member(doc, top("telemetry"))?.as_array() {
            Some(samples) => samples
                .iter()
                .map(|sample| Record::read(sample, "telemetry[]"))
                .collect::<Result<_, _>>()?,
            None => return err("field `telemetry` must be an array"),
        },
        manifest: {
            let manifest = member(doc, top("manifest"))?;
            RunManifest {
                // The document's `system` header was already checked
                // against the caller's system, so the manifest identity
                // comes from there.
                system_name: system.name().to_string(),
                chiplet_count: system.chiplet_count(),
                method: method::read(manifest, in_manifest("method"))?,
                thermal: thermal::read(manifest, in_manifest("thermal"))?,
                reward: object::read(manifest, in_manifest("reward"))?,
                seed: read(manifest, in_manifest("seed"))?,
                budget: budget::read(manifest, in_manifest("budget"))?,
                warm_start: read(manifest, in_manifest("warm_start"))?,
            }
        },
    })
}

/// Parses an `rlplanner.request/v1` document into a ready-to-solve
/// [`FloorplanRequest`].
///
/// The document inlines the system, so no benchmark registry is needed;
/// the request comes back exactly as the sender built it (method, backend,
/// reward, budget, seed and the parallel-envs override), validated through
/// [`FloorplanRequest::builder`]. Re-rendering the parsed request with
/// [`crate::report::request_json`] reproduces the document byte for byte.
///
/// # Errors
///
/// Returns an [`OutcomeParseError`] naming the first malformed, missing or
/// invalid field (including JSON syntax errors and configuration errors the
/// builder rejects).
pub fn request_from_json(text: &str) -> Result<FloorplanRequest, OutcomeParseError> {
    request_from_value(&parse(text)?)
}

/// Parses an already-decoded request document; see [`request_from_json`].
///
/// # Errors
///
/// Returns an [`OutcomeParseError`] naming the first malformed, missing or
/// invalid field.
pub fn request_from_value(doc: &Value) -> Result<FloorplanRequest, OutcomeParseError> {
    check_schema(doc, REQUEST_SCHEMA)?;
    let top = Key::top;
    let mut builder = FloorplanRequest::builder()
        .system(system_from(member(doc, top("system"))?)?)
        .method(method::read(doc, top("method"))?)
        .thermal(thermal::read(doc, top("thermal"))?)
        .reward(object::read(doc, top("reward"))?);
    if let Some(budget) = budget::read(doc, top("budget"))? {
        builder = builder.budget(budget);
    }
    if let Some(seed) = read(doc, top("seed"))? {
        builder = builder.seed(seed);
    }
    if let Some(parallel_envs) = read(doc, top("parallel_envs"))? {
        builder = builder.parallel_envs(parallel_envs);
    }
    builder = builder.warm_start(read(doc, top("warm_start"))?);
    builder.build().map_err(|e| OutcomeParseError {
        message: format!("invalid request configuration: {e}"),
    })
}

fn system_from(obj: &Value) -> Result<ChipletSystem, OutcomeParseError> {
    let at = |name| Key::new("system", name);
    let name: String = read(obj, at("name"))?;
    let (width, height): (f64, f64) = read(obj, at("interposer_mm"))?;
    // `ChipletSystem::new` panics on a non-positive outline; reject first.
    if !(width > 0.0 && height > 0.0 && width.is_finite() && height.is_finite()) {
        return err("field `system.interposer_mm` must hold positive finite dimensions");
    }
    let mut system = ChipletSystem::new(name, width, height);

    let Some(records) = member(obj, at("chiplets"))?.as_array() else {
        return err("field `system.chiplets` must be an array");
    };
    for record in records {
        let at = |name| Key::new("system.chiplets[]", name);
        let name: String = read(record, at("name"))?;
        let width_mm: f64 = read(record, at("width_mm"))?;
        let height_mm: f64 = read(record, at("height_mm"))?;
        let power_w: f64 = read(record, at("power_w"))?;
        // `Chiplet::new` panics on these contracts; turn them into errors.
        if !(width_mm > 0.0 && height_mm > 0.0 && width_mm.is_finite() && height_mm.is_finite()) {
            return err(format!(
                "chiplet `{name}` must have a positive finite footprint"
            ));
        }
        if !(power_w >= 0.0 && power_w.is_finite()) {
            return err(format!(
                "chiplet `{name}` must have non-negative finite power"
            ));
        }
        system.add_chiplet(Chiplet::new(name, width_mm, height_mm, power_w));
    }

    let Some(records) = member(obj, at("nets"))?.as_array() else {
        return err("field `system.nets` must be an array");
    };
    for record in records {
        let at = |name| Key::new("system.nets[]", name);
        let from: usize = read(record, at("from"))?;
        let to: usize = read(record, at("to"))?;
        let wires: usize = read(record, at("wires"))?;
        // `Net::new`/`add_net` panic on these contracts; reject first.
        if from >= system.chiplet_count() || to >= system.chiplet_count() {
            return err(format!(
                "net endpoints ({from}, {to}) must index the system's {} chiplets",
                system.chiplet_count()
            ));
        }
        if from == to {
            return err(format!("net ({from}, {to}) must connect distinct chiplets"));
        }
        if wires == 0 || wires > u32::MAX as usize {
            return err(format!(
                "net ({from}, {to}) must carry between 1 and {} wires",
                u32::MAX
            ));
        }
        system.add_net(Net::new(
            ChipletId::from_index(from),
            ChipletId::from_index(to),
            wires as u32,
        ));
    }
    Ok(system)
}

fn placement_from(obj: &Value, system: &ChipletSystem) -> Result<Placement, OutcomeParseError> {
    let slots: HashMap<&str, _> = system
        .chiplet_ids()
        .map(|id| (system.chiplet(id).name(), id))
        .collect();
    let Some(records) = member(obj, Key::new("placement", "chiplets"))?.as_array() else {
        return err("field `placement.chiplets` must be an array");
    };
    let mut placement = Placement::for_system(system);
    for record in records {
        let at = |name| Key::new("placement.chiplets[]", name);
        let name: String = read(record, at("name"))?;
        let Some(&id) = slots.get(name.as_str()) else {
            return err(format!(
                "placement names chiplet `{name}`, which `{}` does not contain",
                system.name()
            ));
        };
        let position = Position::new(read(record, at("x_mm"))?, read(record, at("y_mm"))?);
        let rotation = match read::<String>(record, at("rotation"))?.as_str() {
            "None" => Rotation::None,
            "Quarter" => Rotation::Quarter,
            other => {
                return err(format!(
                    "placement of `{name}` has unknown rotation `{other}`"
                ))
            }
        };
        placement.place_rotated(id, position, rotation);
    }
    Ok(placement)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradient::GradientConfig;
    use crate::outcome::{EvalTelemetry, TelemetrySample, TrainingTelemetry};
    use crate::report::outcome_json;
    use crate::request::{Budget, Method, PretrainedConfig};
    use crate::reward::{RewardBreakdown, RewardConfig};
    use rlp_sa::{EvalCounts, EvalMode, SaConfig};
    use rlp_thermal::{ThermalBackend, ThermalPrep};
    use std::time::Duration;

    fn demo_system() -> ChipletSystem {
        let mut sys = ChipletSystem::new("parse-test", 30.0, 30.0);
        sys.add_chiplet(Chiplet::new("cpu", 8.0, 8.0, 25.0));
        sys.add_chiplet(Chiplet::new("gpu", 6.0, 6.0, 10.0));
        sys
    }

    fn rl_outcome(system: &ChipletSystem) -> FloorplanOutcome {
        let mut placement = Placement::for_system(system);
        let ids: Vec<_> = system.chiplet_ids().collect();
        placement.place(ids[0], Position::new(2.25, 3.5));
        placement.place_rotated(ids[1], Position::new(14.0, 9.75), Rotation::Quarter);
        FloorplanOutcome {
            placement,
            breakdown: RewardBreakdown {
                reward: -1.5,
                wirelength_mm: 120.0,
                max_temperature_c: 63.25,
                eval_mode: EvalMode::Full,
            },
            telemetry: vec![
                TelemetrySample {
                    index: 0,
                    reward: -2.5,
                    best_reward: -2.5,
                },
                TelemetrySample {
                    index: 1,
                    reward: -1.5,
                    best_reward: -1.5,
                },
            ],
            evaluations: 2,
            evaluation: EvalTelemetry {
                mode: EvalMode::Full,
                counts: EvalCounts {
                    full: 2,
                    incremental: 0,
                },
            },
            training: Some(TrainingTelemetry {
                episodes: 2,
                parallel_envs: 4,
                episodes_per_s: 16.5,
            }),
            runtime: Duration::from_millis(250),
            thermal_prep: ThermalPrep {
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

    fn sa_outcome(system: &ChipletSystem) -> FloorplanOutcome {
        let mut outcome = rl_outcome(system);
        outcome.training = None;
        outcome.evaluation = EvalTelemetry {
            mode: EvalMode::Incremental,
            counts: EvalCounts {
                full: 1,
                incremental: 1,
            },
        };
        outcome.breakdown.eval_mode = EvalMode::Incremental;
        outcome.manifest.method = Method::Sa {
            config: SaConfig {
                cooling_rate: 0.9,
                ..SaConfig::default()
            },
        };
        outcome.manifest.budget = Some(Budget::Evaluations(40));
        outcome.manifest.thermal = ThermalBackend::grid();
        outcome
    }

    #[test]
    fn rl_outcome_round_trips_byte_for_byte() {
        let sys = demo_system();
        let outcome = rl_outcome(&sys);
        let json = outcome_json(&sys, &outcome);
        let parsed = outcome_from_json(&json, &sys).expect("parses");
        assert_eq!(outcome_json(&sys, &parsed), json);
        assert_eq!(parsed.manifest.method, outcome.manifest.method);
        assert_eq!(parsed.manifest.thermal, outcome.manifest.thermal);
        assert_eq!(parsed.training, outcome.training);
        assert_eq!(parsed.runtime, outcome.runtime);
    }

    #[test]
    fn sa_outcome_round_trips_byte_for_byte() {
        let sys = demo_system();
        let outcome = sa_outcome(&sys);
        let json = outcome_json(&sys, &outcome);
        let parsed = outcome_from_json(&json, &sys).expect("parses");
        assert_eq!(outcome_json(&sys, &parsed), json);
        assert_eq!(parsed.manifest.method, outcome.manifest.method);
        assert!(parsed.training.is_none());
        assert_eq!(parsed.evaluation, outcome.evaluation);
    }

    #[test]
    fn gradient_outcome_round_trips_byte_for_byte() {
        let sys = demo_system();
        let mut outcome = rl_outcome(&sys);
        outcome.training = None;
        outcome.manifest.method = Method::Gradient {
            config: GradientConfig {
                iterations: 80,
                ..GradientConfig::default()
            },
        };
        outcome.manifest.budget = Some(Budget::TimeLimit(Duration::from_secs_f64(0.5)));
        outcome.manifest.warm_start = true;
        let json = outcome_json(&sys, &outcome);
        let parsed = outcome_from_json(&json, &sys).expect("parses");
        assert_eq!(outcome_json(&sys, &parsed), json);
        assert_eq!(parsed.manifest.method, outcome.manifest.method);
        assert_eq!(parsed.manifest.budget, outcome.manifest.budget);
        assert!(parsed.manifest.warm_start);
    }

    #[test]
    fn unknown_method_kinds_are_typed_errors_naming_the_string() {
        let sys = demo_system();
        let json = outcome_json(&sys, &sa_outcome(&sys));
        let doc = json.replace("\"kind\": \"sa\"", "\"kind\": \"quantum\"");
        let error = outcome_from_json(&doc, &sys).unwrap_err();
        assert!(
            error.to_string().contains("unknown method `quantum`"),
            "{error}"
        );
    }

    #[test]
    fn non_finite_rewards_come_back_as_nan_and_re_render_as_null() {
        let sys = demo_system();
        let mut outcome = rl_outcome(&sys);
        outcome.telemetry[0].reward = f64::NEG_INFINITY;
        outcome.breakdown.wirelength_mm = f64::NAN;
        let json = outcome_json(&sys, &outcome);
        let parsed = outcome_from_json(&json, &sys).expect("parses");
        assert!(parsed.telemetry[0].reward.is_nan());
        assert!(parsed.breakdown.wirelength_mm.is_nan());
        assert_eq!(outcome_json(&sys, &parsed), json);
    }

    #[test]
    fn wrong_system_and_schema_are_rejected() {
        let sys = demo_system();
        let json = outcome_json(&sys, &rl_outcome(&sys));

        let other = ChipletSystem::new("other", 30.0, 30.0);
        let error = outcome_from_json(&json, &other).unwrap_err();
        assert!(error.to_string().contains("parse-test"), "{error}");

        let bad_schema = json.replace("rlplanner.outcome/v1", "rlplanner.outcome/v0");
        let error = outcome_from_json(&bad_schema, &sys).unwrap_err();
        assert!(error.to_string().contains("unsupported schema"), "{error}");
    }

    #[test]
    fn request_round_trips_byte_for_byte() {
        use crate::report::request_json;
        let mut sys = ChipletSystem::new("req-test", 33.5, 30.25);
        let a = sys.add_chiplet(Chiplet::new("cpu", 8.125, 8.0, 25.5));
        let b = sys.add_chiplet(Chiplet::new("gpu", 6.0, 6.75, 10.0));
        sys.add_net(Net::new(a, b, 64));
        let request = FloorplanRequest::builder()
            .system(sys)
            .method(Method::sa())
            .thermal(ThermalBackend::grid())
            .budget(Budget::Evaluations(40))
            .seed(11)
            .build()
            .unwrap();
        let json = request_json(&request);
        let parsed = request_from_json(&json).expect("parses");
        assert_eq!(request_json(&parsed), json);
        assert_eq!(parsed.method(), request.method());
        assert_eq!(parsed.budget(), request.budget());
        assert_eq!(parsed.seed(), Some(11));
        assert_eq!(parsed.system().net_count(), 1);

        // A minimal RL request with no overrides round-trips too (null
        // budget/seed/parallel_envs stay unset).
        let mut sys = ChipletSystem::new("req-rl", 20.0, 20.0);
        sys.add_chiplet(Chiplet::new("solo", 5.0, 5.0, 10.0));
        let request = FloorplanRequest::builder()
            .system(sys)
            .method(Method::rl_rnd())
            .build()
            .unwrap();
        let json = request_json(&request);
        let parsed = request_from_json(&json).expect("parses");
        assert_eq!(request_json(&parsed), json);
        assert!(parsed.budget().is_none());
        assert!(parsed.seed().is_none());
        assert!(parsed.parallel_envs().is_none());
    }

    #[test]
    fn gradient_request_with_warm_start_round_trips() {
        use crate::report::request_json;
        let mut sys = ChipletSystem::new("req-g", 20.0, 20.0);
        sys.add_chiplet(Chiplet::new("solo", 5.0, 5.0, 10.0));
        let request = FloorplanRequest::builder()
            .system(sys.clone())
            .method(Method::gradient())
            .budget(Budget::Evaluations(30))
            .warm_start(true)
            .build()
            .unwrap();
        let json = request_json(&request);
        assert!(json.contains("\"kind\": \"gradient\""));
        assert!(json.contains("\"warm_start\": true"));
        let parsed = request_from_json(&json).expect("parses");
        assert_eq!(request_json(&parsed), json);
        assert_eq!(parsed.method(), request.method());
        assert!(parsed.warm_start());

        // Warm starting SA round-trips too.
        let request = FloorplanRequest::builder()
            .system(sys)
            .method(Method::sa())
            .warm_start(true)
            .build()
            .unwrap();
        let json = request_json(&request);
        let parsed = request_from_json(&json).expect("parses");
        assert_eq!(request_json(&parsed), json);
        assert!(parsed.warm_start());
    }

    #[test]
    fn pretrained_request_round_trips_byte_for_byte() {
        use crate::report::request_json;
        let mut sys = ChipletSystem::new("req-p", 20.0, 20.0);
        sys.add_chiplet(Chiplet::new("solo", 5.0, 5.0, 10.0));

        // Unpinned checksum renders as null and comes back as None.
        let request = FloorplanRequest::builder()
            .system(sys.clone())
            .method(Method::pretrained("weights/gen.policy"))
            .build()
            .unwrap();
        let json = request_json(&request);
        assert!(json.contains("\"kind\": \"pretrained\""));
        assert!(json.contains("\"policy_path\": \"weights/gen.policy\""));
        assert!(json.contains("\"checksum\": null"));
        let parsed = request_from_json(&json).expect("parses");
        assert_eq!(request_json(&parsed), json);
        assert_eq!(parsed.method(), request.method());

        // A pinned checksum round-trips through the hex-string encoding.
        let request = FloorplanRequest::builder()
            .system(sys)
            .method(Method::Pretrained {
                config: PretrainedConfig {
                    policy_path: "gen.policy".to_string(),
                    checksum: Some(0x0123_4567_89ab_cdef),
                },
            })
            .build()
            .unwrap();
        let json = request_json(&request);
        assert!(json.contains("\"checksum\": \"0x0123456789abcdef\""));
        let parsed = request_from_json(&json).expect("parses");
        assert_eq!(request_json(&parsed), json);
        assert_eq!(parsed.method(), request.method());

        // A malformed checksum is a named error, not a panic.
        let doc = json.replace("\"0x0123456789abcdef\"", "\"0xnope\"");
        let error = request_from_json(&doc).unwrap_err();
        assert!(error.to_string().contains("not a hex hash"), "{error}");
    }

    #[test]
    fn request_time_limit_and_parallel_envs_round_trip() {
        use crate::report::request_json;
        let mut sys = ChipletSystem::new("req-t", 20.0, 20.0);
        sys.add_chiplet(Chiplet::new("solo", 5.0, 5.0, 10.0));
        let request = FloorplanRequest::builder()
            .system(sys)
            .method(Method::rl())
            .budget(Budget::TimeLimit(Duration::from_millis(1250)))
            .parallel_envs(4)
            .build()
            .unwrap();
        let json = request_json(&request);
        assert!(json.contains("\"time_limit_s\": 1.25"));
        let parsed = request_from_json(&json).expect("parses");
        assert_eq!(request_json(&parsed), json);
        assert_eq!(
            parsed.budget(),
            Some(Budget::TimeLimit(Duration::from_millis(1250)))
        );
        assert_eq!(parsed.parallel_envs(), Some(4));
    }

    #[test]
    fn request_seeds_beyond_the_exact_double_range_are_refused() {
        use crate::report::request_json;
        let request = |seed: u64| {
            FloorplanRequest::builder()
                .system(demo_system())
                .seed(seed)
                .build()
                .unwrap()
        };
        let largest_exact = (1u64 << 53) - 1;
        let parsed = request_from_json(&request_json(&request(largest_exact))).unwrap();
        assert_eq!(parsed.seed(), Some(largest_exact));
        // 2^53 + 1 parses as the double 2^53, so both are ambiguous.
        for seed in [1u64 << 53, (1u64 << 53) + 1] {
            let error: OutcomeParseError =
                request_from_json(&request_json(&request(seed))).unwrap_err();
            assert!(error.to_string().contains("`seed`"), "{seed}: {error}");
        }
    }

    #[test]
    fn hashes_must_be_hex_strings() {
        use crate::report::request_json;
        let request = FloorplanRequest::builder()
            .system(demo_system())
            .method(Method::pretrained("gen.policy"))
            .build()
            .unwrap();
        let json = request_json(&request);
        let doc = json.replace("\"checksum\": null", "\"checksum\": 5");
        assert_ne!(doc, json);
        let error = request_from_json(&doc).unwrap_err();
        assert!(
            error
                .to_string()
                .contains("`method.checksum` must be a hex-string hash"),
            "{error}"
        );

        // A pinned hash spelled as a JSON number is refused too: a double
        // cannot carry every 64-bit value.
        let request = FloorplanRequest::builder()
            .system(demo_system())
            .method(Method::Pretrained {
                config: PretrainedConfig {
                    policy_path: "gen.policy".to_string(),
                    checksum: Some(0x0123_4567_89ab_cdef),
                },
            })
            .build()
            .unwrap();
        let json = request_json(&request);
        let doc = json.replace("\"0x0123456789abcdef\"", "81985529216486895");
        assert_ne!(doc, json);
        let error = request_from_json(&doc).unwrap_err();
        assert!(
            error.to_string().contains("must be a hex-string hash"),
            "{error}"
        );
    }

    #[test]
    fn hostile_request_documents_are_errors_not_panics() {
        use crate::report::request_json;
        let mut sys = ChipletSystem::new("req-h", 20.0, 20.0);
        let a = sys.add_chiplet(Chiplet::new("a", 5.0, 5.0, 10.0));
        let b = sys.add_chiplet(Chiplet::new("b", 5.0, 5.0, 10.0));
        sys.add_net(Net::new(a, b, 8));
        let request = FloorplanRequest::builder().system(sys).build().unwrap();
        let json = request_json(&request);

        // Every typed-API panic path comes back as a named parse error.
        for (needle, replacement, expect) in [
            (
                "rlplanner.request/v1",
                "rlplanner.request/v0",
                "unsupported schema",
            ),
            (
                "\"width_mm\": 5",
                "\"width_mm\": -5",
                "positive finite footprint",
            ),
            (
                "\"power_w\": 10",
                "\"power_w\": -1",
                "non-negative finite power",
            ),
            (
                "\"interposer_mm\": [20, 20]",
                "\"interposer_mm\": [0, 20]",
                "positive finite dimensions",
            ),
            ("\"wires\": 8", "\"wires\": 0", "between 1 and"),
            ("\"to\": 1", "\"to\": 7", "must index the system's"),
            (
                "\"from\": 0, \"to\": 1",
                "\"from\": 1, \"to\": 1",
                "distinct chiplets",
            ),
            (
                "\"budget\": null",
                "\"budget\": { \"moves\": 3 }",
                "`evaluations` or `time_limit_s`",
            ),
        ] {
            let doc = json.replace(needle, replacement);
            assert_ne!(doc, json, "replacement `{needle}` did not apply");
            let error = request_from_json(&doc).unwrap_err();
            assert!(
                error.to_string().contains(expect),
                "expected `{expect}` in `{error}`"
            );
        }

        // An invalid configuration is caught by the builder, not a panic.
        let doc = json.replace("\"episodes_per_update\": 8", "\"episodes_per_update\": 0");
        let error = request_from_json(&doc).unwrap_err();
        assert!(
            error.to_string().contains("invalid request configuration"),
            "{error}"
        );
    }

    #[test]
    fn durations_too_long_to_represent_are_named_errors_not_panics() {
        use crate::report::request_json;
        let request = FloorplanRequest::builder()
            .system(demo_system())
            .method(Method::rl())
            .build()
            .unwrap();
        let too_long = "\"budget\": { \"time_limit_s\": 1e300 }";
        let json = request_json(&request);
        let doc = json.replace("\"budget\": null", too_long);
        assert_ne!(doc, json);
        let error = request_from_json(&doc).unwrap_err();
        assert!(
            error.to_string().contains("`budget.time_limit_s`"),
            "{error}"
        );
        // The manifest's budget reads through the same codec.
        let sys = demo_system();
        let json = outcome_json(&sys, &rl_outcome(&sys));
        let doc = json.replace("\"budget\": null", too_long);
        assert_ne!(doc, json);
        let error = outcome_from_json(&doc, &sys).unwrap_err();
        assert!(
            error.to_string().contains("`manifest.budget.time_limit_s`"),
            "{error}"
        );
    }

    #[test]
    fn missing_and_malformed_fields_are_named_in_errors() {
        let sys = demo_system();
        let error =
            outcome_from_json("{ \"schema\": \"rlplanner.outcome/v1\" }", &sys).unwrap_err();
        assert!(
            error.to_string().contains("missing field `system`"),
            "{error}"
        );

        let error = outcome_from_json("not json", &sys).unwrap_err();
        assert!(error.to_string().contains("at byte"), "{error}");

        let json = outcome_json(&sys, &rl_outcome(&sys));
        let bad_rotation = json.replace("\"Quarter\"", "\"Half\"");
        let error = outcome_from_json(&bad_rotation, &sys).unwrap_err();
        assert!(error.to_string().contains("unknown rotation"), "{error}");

        let bad_chiplet = json.replace("\"name\": \"gpu\"", "\"name\": \"npu\"");
        let error = outcome_from_json(&bad_chiplet, &sys).unwrap_err();
        assert!(error.to_string().contains("npu"), "{error}");
    }
}
