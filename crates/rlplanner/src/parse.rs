//! Parsing outcome and request documents back into facade values.
//!
//! [`crate::report::outcome_json`] renders a run as the documented
//! `rlplanner.outcome/v1` document; this module is the inverse, used by
//! batch drivers that resume interrupted campaign streams and need the
//! prior runs as real [`FloorplanOutcome`] values, not opaque text. The
//! document carries the fully-resolved manifest, so the reconstruction is
//! complete: every configuration field, the placement, the telemetry
//! history and the evaluation counts come back exactly as rendered.
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
//! Two encodings are lossy by design and documented here rather than
//! hidden: JSON has no non-finite numbers, so the writer emits `null` for
//! them and this parser maps `null` back to NaN (an `-inf` reward
//! round-trips as NaN); and placement coordinates are rendered with four
//! decimals, so positions come back rounded to 0.1 µm. Re-rendering a
//! parsed outcome reproduces the original document byte for byte, which is
//! the invariant the campaign resume path relies on.

use crate::gradient::GradientConfig;
use crate::minijson::Value;
use crate::outcome::{
    EvalTelemetry, FloorplanOutcome, RunManifest, TelemetrySample, TrainingTelemetry,
};
use crate::planner::RlPlannerConfig;
use crate::report::{OUTCOME_SCHEMA, REQUEST_SCHEMA};
use crate::request::{Budget, FloorplanRequest, Method, PretrainedConfig};
use crate::reward::{RewardBreakdown, RewardConfig};
use crate::{AgentConfig, EnvConfig};
use rlp_chiplet::bumps::BumpConfig;
use rlp_chiplet::{Chiplet, ChipletId, ChipletSystem, Net, Placement, Position, Rotation};
use rlp_rl::PpoConfig;
use rlp_sa::{EvalCounts, EvalMode, SaConfig};
use rlp_thermal::{
    CharacterizationOptions, Layer, LayerStack, ThermalBackend, ThermalConfig, ThermalPrep,
};
use std::collections::HashMap;
use std::fmt;
use std::time::Duration;

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

fn err<T>(message: impl Into<String>) -> Result<T, OutcomeParseError> {
    Err(OutcomeParseError {
        message: message.into(),
    })
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
    let doc = Value::parse(text).map_err(|e| OutcomeParseError {
        message: e.to_string(),
    })?;
    outcome_from_value(&doc, system)
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
    let schema = str_field(doc, "schema")?;
    if schema != OUTCOME_SCHEMA {
        return err(format!(
            "unsupported schema `{schema}` (expected `{OUTCOME_SCHEMA}`)"
        ));
    }

    let header = field(doc, "system")?;
    let name = str_field(header, "system.name")?;
    if name != system.name() {
        return err(format!(
            "document is for system `{name}`, not `{}`",
            system.name()
        ));
    }
    let chiplets = usize_field(header, "system.chiplets")?;
    if chiplets != system.chiplet_count() {
        return err(format!(
            "document records {chiplets} chiplets but `{}` has {}",
            system.name(),
            system.chiplet_count()
        ));
    }

    let breakdown = breakdown_from(field(doc, "breakdown")?)?;
    let evaluations = usize_field(doc, "evaluations")?;
    let evaluation = evaluation_from(field(doc, "evaluation")?)?;
    let training = match field(doc, "training")? {
        Value::Null => None,
        value => Some(training_from(value)?),
    };
    let runtime = duration_field(doc, "runtime_s")?;
    let thermal_prep = thermal_prep_from(field(doc, "thermal_prep")?)?;
    let placement = placement_from(field(doc, "placement")?, system)?;
    let telemetry = telemetry_from(field(doc, "telemetry")?)?;
    let manifest = manifest_from(field(doc, "manifest")?, system)?;

    Ok(FloorplanOutcome {
        placement,
        breakdown,
        telemetry,
        evaluations,
        evaluation,
        training,
        runtime,
        thermal_prep,
        manifest,
    })
}

/// Parses an `rlplanner.request/v1` document into a ready-to-solve
/// [`FloorplanRequest`].
///
/// The document inlines the system, so no benchmark registry is needed;
/// the request comes back exactly as the sender built it (method, backend,
/// reward, and the budget/seed/parallel-envs overrides), validated through
/// [`FloorplanRequest::builder`]. Re-rendering the parsed request with
/// [`crate::report::request_json`] reproduces the document byte for byte.
///
/// # Errors
///
/// Returns an [`OutcomeParseError`] naming the first malformed, missing or
/// invalid field (including JSON syntax errors and configuration errors the
/// builder rejects).
pub fn request_from_json(text: &str) -> Result<FloorplanRequest, OutcomeParseError> {
    let doc = Value::parse(text).map_err(|e| OutcomeParseError {
        message: e.to_string(),
    })?;
    request_from_value(&doc)
}

/// Parses an already-decoded request document; see [`request_from_json`].
///
/// # Errors
///
/// Returns an [`OutcomeParseError`] naming the first malformed, missing or
/// invalid field.
pub fn request_from_value(doc: &Value) -> Result<FloorplanRequest, OutcomeParseError> {
    let schema = str_field(doc, "schema")?;
    if schema != REQUEST_SCHEMA {
        return err(format!(
            "unsupported schema `{schema}` (expected `{REQUEST_SCHEMA}`)"
        ));
    }
    let system = system_from(field(doc, "system")?)?;
    let mut builder = FloorplanRequest::builder()
        .system(system)
        .method(method_from(field(doc, "method")?)?)
        .thermal(thermal_from(field(doc, "thermal")?)?)
        .reward(reward_from(field(doc, "reward")?)?);
    match field(doc, "budget")? {
        Value::Null => {}
        value => builder = builder.budget(budget_from(value)?),
    }
    if !matches!(field(doc, "seed")?, Value::Null) {
        builder = builder.seed(u64_field(doc, "seed")?);
    }
    if !matches!(field(doc, "parallel_envs")?, Value::Null) {
        builder = builder.parallel_envs(usize_field(doc, "parallel_envs")?);
    }
    builder = builder.warm_start(bool_field(doc, "warm_start")?);
    builder.build().map_err(|e| OutcomeParseError {
        message: format!("invalid request configuration: {e}"),
    })
}

fn system_from(obj: &Value) -> Result<ChipletSystem, OutcomeParseError> {
    let name = str_field(obj, "system.name")?;
    let Some(outline) = field(obj, "system.interposer_mm")?.as_array() else {
        return err("field `system.interposer_mm` must be a two-element array");
    };
    if outline.len() != 2 {
        return err("field `system.interposer_mm` must be a two-element array");
    }
    let (Some(width), Some(height)) = (outline[0].as_f64(), outline[1].as_f64()) else {
        return err("field `system.interposer_mm` must hold numbers");
    };
    // `ChipletSystem::new` panics on a non-positive outline; reject first.
    if !(width > 0.0 && height > 0.0 && width.is_finite() && height.is_finite()) {
        return err("field `system.interposer_mm` must hold positive finite dimensions");
    }
    let mut system = ChipletSystem::new(name, width, height);

    let Some(records) = field(obj, "system.chiplets")?.as_array() else {
        return err("field `system.chiplets` must be an array");
    };
    for record in records {
        let name = str_field(record, "system.chiplets[].name")?;
        let width_mm = f64_field(record, "system.chiplets[].width_mm")?;
        let height_mm = f64_field(record, "system.chiplets[].height_mm")?;
        let power_w = f64_field(record, "system.chiplets[].power_w")?;
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

    let Some(records) = field(obj, "system.nets")?.as_array() else {
        return err("field `system.nets` must be an array");
    };
    for record in records {
        let from = usize_field(record, "system.nets[].from")?;
        let to = usize_field(record, "system.nets[].to")?;
        let wires = usize_field(record, "system.nets[].wires")?;
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

fn budget_from(obj: &Value) -> Result<Budget, OutcomeParseError> {
    if obj.get("evaluations").is_some() {
        Ok(Budget::Evaluations(usize_field(obj, "budget.evaluations")?))
    } else if obj.get("time_limit_s").is_some() {
        Ok(Budget::TimeLimit(duration_field(
            obj,
            "budget.time_limit_s",
        )?))
    } else {
        err("field `budget` must be null or hold `evaluations` or `time_limit_s`")
    }
}

fn field<'a>(obj: &'a Value, key: &str) -> Result<&'a Value, OutcomeParseError> {
    // Nested callers name fields by path ("system.name"); look up the last
    // segment so error messages can stay fully qualified.
    let leaf = key.rsplit('.').next().expect("split is non-empty");
    match obj.get(leaf) {
        Some(value) => Ok(value),
        None => err(format!("missing field `{key}`")),
    }
}

fn str_field<'a>(obj: &'a Value, key: &str) -> Result<&'a str, OutcomeParseError> {
    match field(obj, key)?.as_str() {
        Some(s) => Ok(s),
        None => err(format!("field `{key}` must be a string")),
    }
}

/// A required number; `null` (the writer's encoding of NaN/±inf) maps back
/// to NaN.
fn f64_field(obj: &Value, key: &str) -> Result<f64, OutcomeParseError> {
    match field(obj, key)? {
        Value::Num(n) => Ok(*n),
        Value::Null => Ok(f64::NAN),
        _ => err(format!("field `{key}` must be a number or null")),
    }
}

/// Reads a non-negative integer carried as a JSON double. Only integers up
/// to 2^53 − 1 are exact: 2^53 is also the double that 2^53 + 1 rounds to,
/// so it and everything above are refused rather than silently replayed
/// as a different number.
fn usize_field(obj: &Value, key: &str) -> Result<usize, OutcomeParseError> {
    let v = f64_field(obj, key)?;
    if v.fract() != 0.0 || !(0.0..9_007_199_254_740_992.0).contains(&v) {
        return err(format!("field `{key}` must be a non-negative integer"));
    }
    Ok(v as usize)
}

fn u64_field(obj: &Value, key: &str) -> Result<u64, OutcomeParseError> {
    usize_field(obj, key).map(|v| v as u64)
}

fn bool_field(obj: &Value, key: &str) -> Result<bool, OutcomeParseError> {
    match field(obj, key)? {
        Value::Bool(b) => Ok(*b),
        _ => err(format!("field `{key}` must be a boolean")),
    }
}

fn duration_field(obj: &Value, key: &str) -> Result<Duration, OutcomeParseError> {
    let v = f64_field(obj, key)?;
    if !v.is_finite() || v < 0.0 {
        return err(format!("field `{key}` must be a non-negative duration"));
    }
    Ok(Duration::from_secs_f64(v))
}

fn opt_duration_field(obj: &Value, key: &str) -> Result<Option<Duration>, OutcomeParseError> {
    match field(obj, key)? {
        Value::Null => Ok(None),
        _ => duration_field(obj, key).map(Some),
    }
}

fn usize_pair_field(obj: &Value, key: &str) -> Result<(usize, usize), OutcomeParseError> {
    let items = match field(obj, key)?.as_array() {
        Some(items) if items.len() == 2 => items,
        _ => return err(format!("field `{key}` must be a two-element array")),
    };
    let mut pair = [0usize; 2];
    for (slot, item) in pair.iter_mut().zip(items) {
        match item.as_f64() {
            Some(v) if v.fract() == 0.0 && v >= 0.0 => *slot = v as usize,
            _ => return err(format!("field `{key}` must hold non-negative integers")),
        }
    }
    Ok((pair[0], pair[1]))
}

fn eval_mode_from(label: &str, key: &str) -> Result<EvalMode, OutcomeParseError> {
    match label {
        "full" => Ok(EvalMode::Full),
        "incremental" => Ok(EvalMode::Incremental),
        other => err(format!("field `{key}` has unknown eval mode `{other}`")),
    }
}

fn breakdown_from(obj: &Value) -> Result<RewardBreakdown, OutcomeParseError> {
    Ok(RewardBreakdown {
        reward: f64_field(obj, "breakdown.reward")?,
        wirelength_mm: f64_field(obj, "breakdown.wirelength_mm")?,
        max_temperature_c: f64_field(obj, "breakdown.max_temperature_c")?,
        eval_mode: eval_mode_from(
            str_field(obj, "breakdown.eval_mode")?,
            "breakdown.eval_mode",
        )?,
    })
}

fn evaluation_from(obj: &Value) -> Result<EvalTelemetry, OutcomeParseError> {
    Ok(EvalTelemetry {
        mode: eval_mode_from(str_field(obj, "evaluation.mode")?, "evaluation.mode")?,
        counts: EvalCounts {
            full: usize_field(obj, "evaluation.full_evals")?,
            incremental: usize_field(obj, "evaluation.incremental_evals")?,
        },
    })
}

fn training_from(obj: &Value) -> Result<TrainingTelemetry, OutcomeParseError> {
    let hash = str_field(obj, "training.merge_order_hash")?;
    let digits = hash.strip_prefix("0x").unwrap_or(hash);
    let merge_order_hash = u64::from_str_radix(digits, 16).map_err(|_| OutcomeParseError {
        message: format!("field `training.merge_order_hash` is not a hex hash: `{hash}`"),
    })?;
    Ok(TrainingTelemetry {
        episodes: usize_field(obj, "training.episodes")?,
        parallel_envs: usize_field(obj, "training.parallel_envs")?,
        episodes_per_s: f64_field(obj, "training.episodes_per_s")?,
        merge_order_hash,
    })
}

fn thermal_prep_from(obj: &Value) -> Result<ThermalPrep, OutcomeParseError> {
    Ok(ThermalPrep {
        cache_hits: usize_field(obj, "thermal_prep.cache_hits")?,
        cache_misses: usize_field(obj, "thermal_prep.cache_misses")?,
        characterization: duration_field(obj, "thermal_prep.characterization_s")?,
    })
}

fn placement_from(obj: &Value, system: &ChipletSystem) -> Result<Placement, OutcomeParseError> {
    let slots: HashMap<&str, _> = system
        .chiplet_ids()
        .map(|id| (system.chiplet(id).name(), id))
        .collect();
    let Some(records) = field(obj, "placement.chiplets")?.as_array() else {
        return err("field `placement.chiplets` must be an array");
    };
    let mut placement = Placement::for_system(system);
    for record in records {
        let name = str_field(record, "placement.chiplets[].name")?;
        let Some(&id) = slots.get(name) else {
            return err(format!(
                "placement names chiplet `{name}`, which `{}` does not contain",
                system.name()
            ));
        };
        let position = Position::new(
            f64_field(record, "placement.chiplets[].x_mm")?,
            f64_field(record, "placement.chiplets[].y_mm")?,
        );
        let rotation = match str_field(record, "placement.chiplets[].rotation")? {
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

fn telemetry_from(value: &Value) -> Result<Vec<TelemetrySample>, OutcomeParseError> {
    let Some(records) = value.as_array() else {
        return err("field `telemetry` must be an array");
    };
    records
        .iter()
        .map(|record| {
            Ok(TelemetrySample {
                index: usize_field(record, "telemetry[].index")?,
                reward: f64_field(record, "telemetry[].reward")?,
                best_reward: f64_field(record, "telemetry[].best_reward")?,
            })
        })
        .collect()
}

fn manifest_from(obj: &Value, system: &ChipletSystem) -> Result<RunManifest, OutcomeParseError> {
    Ok(RunManifest {
        // The document's `system` header was already checked against the
        // caller's system, so the manifest identity comes from there.
        system_name: system.name().to_string(),
        chiplet_count: system.chiplet_count(),
        method: method_from(field(obj, "manifest.method")?)?,
        thermal: thermal_from(field(obj, "manifest.thermal")?)?,
        reward: reward_from(field(obj, "manifest.reward")?)?,
        seed: u64_field(obj, "manifest.seed")?,
        warm_start: bool_field(obj, "manifest.warm_start")?,
    })
}

fn method_from(obj: &Value) -> Result<Method, OutcomeParseError> {
    match str_field(obj, "method.kind")? {
        "rl" => Ok(Method::Rl {
            config: rl_config_from(obj)?,
        }),
        "rl-rnd" => Ok(Method::RlRnd {
            config: rl_config_from(obj)?,
        }),
        "sa" => Ok(Method::Sa {
            config: sa_config_from(obj)?,
        }),
        "gradient" => Ok(Method::Gradient {
            config: gradient_config_from(obj)?,
        }),
        "pretrained" => Ok(Method::Pretrained {
            config: pretrained_config_from(obj)?,
        }),
        other => err(format!("field `method.kind` has unknown method `{other}`")),
    }
}

fn rl_config_from(obj: &Value) -> Result<RlPlannerConfig, OutcomeParseError> {
    let ppo = field(obj, "method.ppo")?;
    let agent = field(obj, "method.agent")?;
    let env = field(obj, "method.env")?;
    Ok(RlPlannerConfig {
        episodes: usize_field(obj, "method.episodes")?,
        episodes_per_update: usize_field(obj, "method.episodes_per_update")?,
        parallel_envs: usize_field(obj, "method.parallel_envs")?,
        use_rnd: bool_field(obj, "method.use_rnd")?,
        seed: u64_field(obj, "method.seed")?,
        time_budget: opt_duration_field(obj, "method.time_budget_s")?,
        ppo: PpoConfig {
            gamma: f64_field(ppo, "method.ppo.gamma")?,
            gae_lambda: f64_field(ppo, "method.ppo.gae_lambda")?,
            clip_epsilon: f64_field(ppo, "method.ppo.clip_epsilon")? as f32,
            entropy_coef: f64_field(ppo, "method.ppo.entropy_coef")? as f32,
            value_coef: f64_field(ppo, "method.ppo.value_coef")? as f32,
            learning_rate: f64_field(ppo, "method.ppo.learning_rate")? as f32,
            epochs: usize_field(ppo, "method.ppo.epochs")?,
            minibatch_size: usize_field(ppo, "method.ppo.minibatch_size")?,
            max_grad_norm: f64_field(ppo, "method.ppo.max_grad_norm")? as f32,
        },
        agent: AgentConfig {
            conv_channels: usize_pair_field(agent, "method.agent.conv_channels")?,
            feature_dim: usize_field(agent, "method.agent.feature_dim")?,
            rnd_hidden_dim: usize_field(agent, "method.agent.rnd_hidden_dim")?,
            rnd_embedding_dim: usize_field(agent, "method.agent.rnd_embedding_dim")?,
            rnd_bonus_scale: f64_field(agent, "method.agent.rnd_bonus_scale")?,
            seed: u64_field(agent, "method.agent.seed")?,
        },
        env: EnvConfig {
            grid: usize_pair_field(env, "method.env.grid")?,
            min_spacing_mm: f64_field(env, "method.env.min_spacing_mm")?,
        },
    })
}

fn sa_config_from(obj: &Value) -> Result<SaConfig, OutcomeParseError> {
    Ok(SaConfig {
        initial_temperature: f64_field(obj, "method.initial_temperature")?,
        final_temperature: f64_field(obj, "method.final_temperature")?,
        cooling_rate: f64_field(obj, "method.cooling_rate")?,
        moves_per_temperature: usize_field(obj, "method.moves_per_temperature")?,
        min_spacing_mm: f64_field(obj, "method.min_spacing_mm")?,
        grid: usize_pair_field(obj, "method.grid")?,
        seed: u64_field(obj, "method.seed")?,
        time_budget: opt_duration_field(obj, "method.time_budget_s")?,
        max_evaluations: match field(obj, "method.max_evaluations")? {
            Value::Null => None,
            _ => Some(usize_field(obj, "method.max_evaluations")?),
        },
    })
}

fn gradient_config_from(obj: &Value) -> Result<GradientConfig, OutcomeParseError> {
    Ok(GradientConfig {
        iterations: usize_field(obj, "method.iterations")?,
        restarts: usize_field(obj, "method.restarts")?,
        learning_rate: f64_field(obj, "method.learning_rate")?,
        wirelength_sharpness: f64_field(obj, "method.wirelength_sharpness")?,
        sharpness_growth: f64_field(obj, "method.sharpness_growth")?,
        thermal_sharpness: f64_field(obj, "method.thermal_sharpness")?,
        thermal_weight: f64_field(obj, "method.thermal_weight")?,
        overlap_weight: f64_field(obj, "method.overlap_weight")?,
        boundary_weight: f64_field(obj, "method.boundary_weight")?,
        tolerance_mm: f64_field(obj, "method.tolerance_mm")?,
        min_spacing_mm: f64_field(obj, "method.min_spacing_mm")?,
        grid: usize_pair_field(obj, "method.grid")?,
        seed: u64_field(obj, "method.seed")?,
        time_budget: opt_duration_field(obj, "method.time_budget_s")?,
        max_evaluations: match field(obj, "method.max_evaluations")? {
            Value::Null => None,
            _ => Some(usize_field(obj, "method.max_evaluations")?),
        },
    })
}

fn pretrained_config_from(obj: &Value) -> Result<PretrainedConfig, OutcomeParseError> {
    // The checksum is written as null (unpinned) or an `0x...` hex string,
    // like `training.merge_order_hash`.
    let checksum = match field(obj, "method.checksum")? {
        Value::Null => None,
        value => {
            let Some(hash) = value.as_str() else {
                return err("field `method.checksum` must be null or a hex-string hash");
            };
            let digits = hash.strip_prefix("0x").unwrap_or(hash);
            Some(
                u64::from_str_radix(digits, 16).map_err(|_| OutcomeParseError {
                    message: format!("field `method.checksum` is not a hex hash: `{hash}`"),
                })?,
            )
        }
    };
    Ok(PretrainedConfig {
        policy_path: str_field(obj, "method.policy_path")?.to_string(),
        checksum,
        seed: u64_field(obj, "method.seed")?,
    })
}

fn thermal_from(obj: &Value) -> Result<ThermalBackend, OutcomeParseError> {
    let config = thermal_config_from(obj)?;
    match str_field(obj, "thermal.kind")? {
        "grid" => Ok(ThermalBackend::Grid { config }),
        "fast" => {
            let sweep = field(obj, "thermal.characterization")?;
            let Some(samples) =
                field(sweep, "thermal.characterization.footprint_samples_mm")?.as_array()
            else {
                return err(
                    "field `thermal.characterization.footprint_samples_mm` must be an array",
                );
            };
            let footprint_samples_mm = samples
                .iter()
                .map(|v| {
                    v.as_f64().ok_or_else(|| OutcomeParseError {
                        message: "footprint samples must be numbers".to_string(),
                    })
                })
                .collect::<Result<Vec<_>, _>>()?;
            Ok(ThermalBackend::Fast {
                config,
                characterization: CharacterizationOptions {
                    footprint_samples_mm,
                    reference_power_w: f64_field(
                        sweep,
                        "thermal.characterization.reference_power_w",
                    )?,
                    distance_bins: usize_field(sweep, "thermal.characterization.distance_bins")?,
                    mutual_source_size_mm: f64_field(
                        sweep,
                        "thermal.characterization.mutual_source_size_mm",
                    )?,
                },
            })
        }
        other => err(format!(
            "field `thermal.kind` has unknown backend `{other}`"
        )),
    }
}

fn thermal_config_from(obj: &Value) -> Result<ThermalConfig, OutcomeParseError> {
    let (grid_nx, grid_ny) = usize_pair_field(obj, "thermal.grid")?;
    let Some(records) = field(obj, "thermal.layers")?.as_array() else {
        return err("field `thermal.layers` must be an array");
    };
    if records.is_empty() {
        return err("field `thermal.layers` must hold at least one layer");
    }
    let mut layers = Vec::with_capacity(records.len());
    for record in records {
        let name = str_field(record, "thermal.layers[].name")?;
        let thickness_mm = f64_field(record, "thermal.layers[].thickness_mm")?;
        let conductivity_w_mk = f64_field(record, "thermal.layers[].conductivity_w_mk")?;
        // `Layer::new` panics on non-positive values; turn that contract
        // into a parse error instead.
        if !(thickness_mm > 0.0 && conductivity_w_mk > 0.0) {
            return err(format!(
                "layer `{name}` must have positive thickness and conductivity"
            ));
        }
        layers.push(Layer::new(name, thickness_mm, conductivity_w_mk));
    }
    let power_layer = usize_field(obj, "thermal.power_layer")?;
    if power_layer >= layers.len() {
        return err(format!(
            "field `thermal.power_layer` ({power_layer}) is out of range for {} layers",
            layers.len()
        ));
    }
    Ok(ThermalConfig {
        grid_nx,
        grid_ny,
        stack: LayerStack::new(layers, power_layer),
        ambient_c: f64_field(obj, "thermal.ambient_c")?,
        convection_resistance_k_per_w: f64_field(obj, "thermal.convection_resistance_k_per_w")?,
    })
}

fn reward_from(obj: &Value) -> Result<RewardConfig, OutcomeParseError> {
    Ok(RewardConfig {
        lambda: f64_field(obj, "reward.lambda")?,
        mu: f64_field(obj, "reward.mu")?,
        temperature_limit_c: f64_field(obj, "reward.temperature_limit_c")?,
        alpha: f64_field(obj, "reward.alpha")?,
        bump_config: BumpConfig {
            pitch_mm: f64_field(obj, "reward.bump_pitch_mm")?,
            edge_margin_mm: f64_field(obj, "reward.bump_edge_margin_mm")?,
        },
        infeasible_penalty: f64_field(obj, "reward.infeasible_penalty")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::outcome_json;
    use rlp_chiplet::{Chiplet, ChipletSystem};

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
                merge_order_hash: 0x0123_4567_89ab_cdef,
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
                max_evaluations: Some(40),
                time_budget: Some(Duration::from_secs_f64(1.5)),
                ..SaConfig::default()
            },
        };
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
                max_evaluations: Some(60),
                time_budget: Some(Duration::from_secs_f64(0.5)),
                ..GradientConfig::default()
            },
        };
        outcome.manifest.warm_start = true;
        let json = outcome_json(&sys, &outcome);
        let parsed = outcome_from_json(&json, &sys).expect("parses");
        assert_eq!(outcome_json(&sys, &parsed), json);
        assert_eq!(parsed.manifest.method, outcome.manifest.method);
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
                    seed: 9,
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
    fn request_time_budget_and_parallel_envs_round_trip() {
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
        let doc = json.replace("\"episodes\": 600", "\"episodes\": 0");
        let error = request_from_json(&doc).unwrap_err();
        assert!(
            error.to_string().contains("invalid request configuration"),
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
