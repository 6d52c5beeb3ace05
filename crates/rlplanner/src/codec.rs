//! One key table per configuration and telemetry type, shared by the
//! renderer ([`crate::report`]) and the parser ([`crate::parse`]).
//!
//! Each record's JSON keys are declared once, in a `record!` table that
//! maps every key to a field. The table derives both directions, so a key
//! cannot be rendered without being parsed, or spelled two ways. A field
//! is encoded by its type ([`rlp_obs::json::Encode`] and [`Decode`])
//! unless the table names a codec: `as object` for a nested record,
//! `as hex` for an optional 64-bit hash, `as eval_mode` for an [`EvalMode`](rlp_sa::EvalMode) label.
//! The thermal configuration, the thermal backend and the method have
//! cross-field rules and are written out by hand below the tables.
//!
//! Every read error names the offending field by its full path, e.g.
//! `method.ppo.gamma`.

use crate::gradient::GradientConfig;
use crate::outcome::{EvalTelemetry, TelemetrySample, TrainingTelemetry};
use crate::parse::OutcomeParseError;
use crate::planner::RlPlannerConfig;
use crate::request::{Method, PretrainedConfig};
use crate::reward::{RewardBreakdown, RewardConfig};
use crate::{AgentConfig, EnvConfig};
use rlp_obs::json::{Decode, Layout, Value, Writer};
use rlp_rl::PpoConfig;
use rlp_sa::SaConfig;
use rlp_thermal::{
    CharacterizationOptions, Layer, LayerStack, ThermalBackend, ThermalConfig, ThermalPrep,
};
use std::borrow::Cow;
use std::fmt;
use std::time::Duration;

pub(crate) type Result<T> = std::result::Result<T, OutcomeParseError>;

pub(crate) fn err<T>(message: impl Into<String>) -> Result<T> {
    Err(OutcomeParseError {
        message: message.into(),
    })
}

/// A member's name and the path of the object holding it, for error
/// messages: `method.ppo` + `gamma` displays as `method.ppo.gamma`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Key<'a> {
    parent: &'a str,
    name: &'a str,
}

impl<'a> Key<'a> {
    pub(crate) fn new(parent: &'a str, name: &'a str) -> Self {
        Key { parent, name }
    }

    /// A member of the document's top-level object.
    pub(crate) fn top(name: &'a str) -> Self {
        Key::new("", name)
    }

    /// The member's full path, which is the parent of its own members.
    pub(crate) fn path(self) -> Cow<'a, str> {
        if self.parent.is_empty() {
            Cow::Borrowed(self.name)
        } else {
            Cow::Owned(self.to_string())
        }
    }
}

impl fmt::Display for Key<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.parent.is_empty() {
            f.write_str(self.name)
        } else {
            write!(f, "{}.{}", self.parent, self.name)
        }
    }
}

/// The required member `key` of `obj`.
pub(crate) fn member<'v>(obj: &'v Value, key: Key<'_>) -> Result<&'v Value> {
    obj.get(key.name)
        .map_or_else(|| err(format!("missing field `{key}`")), Ok)
}

/// Reads the required member `key` of `obj` as a `T`.
pub(crate) fn read<T: Decode>(obj: &Value, key: Key<'_>) -> Result<T> {
    T::decode(member(obj, key)?)
        .map_or_else(|| err(format!("field `{key}` must be {}", T::EXPECTED)), Ok)
}

/// A type whose members a `record!` table lists. Its members can also be
/// written into an object another codec opens: the method configurations
/// follow a `kind` tag that way.
pub(crate) trait Record: Default {
    const LAYOUT: Layout;

    /// The members' keys, in render order.
    const KEYS: &'static [&'static str];

    fn write_fields(&self, w: &mut Writer);

    fn read_fields(&mut self, obj: &Value, path: &str) -> Result<()>;

    fn write(&self, w: &mut Writer) {
        w.object(Self::LAYOUT, |w| self.write_fields(w));
    }

    /// Reads the object `value`, whose own path is `path`.
    fn read(value: &Value, path: &str) -> Result<Self> {
        let mut out = Self::default();
        out.read_fields(value, path)?;
        Ok(out)
    }
}

/// Declares a record's key table: `"json_key" => field.path`, optionally
/// `as codec`. Keys render in table order; parsing starts from `Default`
/// and sets every listed field.
macro_rules! record {
    (@write $w:ident, $key:literal, $value:expr) => { $w.field($key, $value) };
    (@write $w:ident, $key:literal, $value:expr, $codec:ident) => {
        $codec::write($value, $w.key($key))
    };
    (@read $obj:ident, $key:expr) => { read($obj, $key) };
    (@read $obj:ident, $key:expr, $codec:ident) => { $codec::read($obj, $key) };
    ($ty:ty, $layout:ident { $($key:literal => $($field:ident).+ $(as $codec:ident)?),* $(,)? }) => {
        impl Record for $ty {
            const LAYOUT: Layout = Layout::$layout;

            const KEYS: &'static [&'static str] = &[$($key),*];

            fn write_fields(&self, w: &mut Writer) {
                $( record!(@write w, $key, &self.$($field).+ $(, $codec)?); )*
            }

            fn read_fields(&mut self, obj: &Value, path: &str) -> Result<()> {
                $( self.$($field).+ = record!(@read obj, Key::new(path, $key) $(, $codec)?)?; )*
                Ok(())
            }
        }
    };
}

record!(RlPlannerConfig, Block {
    "episodes_per_update" => episodes_per_update,
    "ppo" => ppo as object,
    "agent" => agent as object,
    "env" => env as object,
});

record!(PpoConfig, Inline {
    "gamma" => gamma,
    "gae_lambda" => gae_lambda,
    "clip_epsilon" => clip_epsilon,
    "entropy_coef" => entropy_coef,
    "value_coef" => value_coef,
    "learning_rate" => learning_rate,
    "epochs" => epochs,
    "minibatch_size" => minibatch_size,
    "max_grad_norm" => max_grad_norm,
});

record!(AgentConfig, Inline {
    "conv_channels" => conv_channels,
    "feature_dim" => feature_dim,
    "rnd_hidden_dim" => rnd_hidden_dim,
    "rnd_embedding_dim" => rnd_embedding_dim,
    "rnd_bonus_scale" => rnd_bonus_scale,
    "seed" => seed,
});

record!(EnvConfig, Inline {
    "grid" => grid,
    "min_spacing_mm" => min_spacing_mm,
});

record!(SaConfig, Block {
    "initial_temperature" => initial_temperature,
    "final_temperature" => final_temperature,
    "cooling_rate" => cooling_rate,
    "moves_per_temperature" => moves_per_temperature,
    "min_spacing_mm" => min_spacing_mm,
    "grid" => grid,
});

record!(GradientConfig, Block {
    "iterations" => iterations,
    "restarts" => restarts,
    "learning_rate" => learning_rate,
    "wirelength_sharpness" => wirelength_sharpness,
    "sharpness_growth" => sharpness_growth,
    "thermal_sharpness" => thermal_sharpness,
    "thermal_weight" => thermal_weight,
    "overlap_weight" => overlap_weight,
    "boundary_weight" => boundary_weight,
    "tolerance_mm" => tolerance_mm,
    "min_spacing_mm" => min_spacing_mm,
    "grid" => grid,
});

record!(PretrainedConfig, Block {
    "policy_path" => policy_path,
    "checksum" => checksum as hex,
});

record!(CharacterizationOptions, Inline {
    "footprint_samples_mm" => footprint_samples_mm,
    "reference_power_w" => reference_power_w,
    "distance_bins" => distance_bins,
    "mutual_source_size_mm" => mutual_source_size_mm,
});

record!(RewardConfig, Inline {
    "lambda" => lambda,
    "mu" => mu,
    "temperature_limit_c" => temperature_limit_c,
    "alpha" => alpha,
    "bump_pitch_mm" => bump_config.pitch_mm,
    "bump_edge_margin_mm" => bump_config.edge_margin_mm,
    "infeasible_penalty" => infeasible_penalty,
});

record!(RewardBreakdown, Inline {
    "reward" => reward,
    "wirelength_mm" => wirelength_mm,
    "max_temperature_c" => max_temperature_c,
    "eval_mode" => eval_mode as eval_mode,
});

record!(EvalTelemetry, Inline {
    "mode" => mode as eval_mode,
    "full_evals" => counts.full,
    "incremental_evals" => counts.incremental,
});

record!(TrainingTelemetry, Inline {
    "episodes" => episodes,
    "parallel_envs" => parallel_envs,
});

/// An outcome's VOLATILE values, rendered together as its `timing` member;
/// `episodes_per_s` is NaN (`null`) for a run without training.
#[derive(Default)]
pub(crate) struct Timing {
    pub(crate) runtime: Duration,
    pub(crate) prep: ThermalPrep,
    pub(crate) episodes_per_s: f64,
}

record!(Timing, Inline {
    "runtime_s" => runtime,
    "characterization_s" => prep.characterization,
    "cache_hits" => prep.cache_hits,
    "cache_misses" => prep.cache_misses,
    "episodes_per_s" => episodes_per_s,
});

record!(TelemetrySample, Inline {
    "index" => index,
    "reward" => reward,
    "best_reward" => best_reward,
});

/// Nested records: `"ppo" => ppo as object`.
pub(crate) mod object {
    use super::{member, Key, Record, Result};
    use rlp_obs::json::{Value, Writer};

    pub(crate) fn write<T: Record>(value: &T, w: &mut Writer) {
        value.write(w);
    }

    pub(crate) fn read<T: Record>(obj: &Value, key: Key<'_>) -> Result<T> {
        T::read(member(obj, key)?, &key.path())
    }
}

/// Optional 64-bit hashes, as `"0x…"` strings (a JSON number cannot carry
/// one exactly), or `null` when unset.
mod hex {
    use super::{err, member, Key, Result};
    use rlp_obs::json::{Value, Writer};

    pub(super) fn write(value: &Option<u64>, w: &mut Writer) {
        w.value(value.map(|hash| format!("{hash:#018x}")));
    }

    pub(super) fn read(obj: &Value, key: Key<'_>) -> Result<Option<u64>> {
        match member(obj, key)? {
            Value::Str(text) => {
                let digits = text.strip_prefix("0x").unwrap_or(text);
                match u64::from_str_radix(digits, 16) {
                    Ok(hash) => Ok(Some(hash)),
                    Err(_) => err(format!("field `{key}` is not a hex hash: `{text}`")),
                }
            }
            Value::Null => Ok(None),
            _ => err(format!("field `{key}` must be a hex-string hash")),
        }
    }
}

/// [`EvalMode`] by its label.
mod eval_mode {
    use super::{err, Key, Result};
    use rlp_obs::json::{Value, Writer};
    use rlp_sa::EvalMode;

    pub(super) fn write(mode: &EvalMode, w: &mut Writer) {
        w.value(mode.label());
    }

    pub(super) fn read(obj: &Value, key: Key<'_>) -> Result<EvalMode> {
        match super::read::<String>(obj, key)?.as_str() {
            "full" => Ok(EvalMode::Full),
            "incremental" => Ok(EvalMode::Incremental),
            other => err(format!("field `{key}` has unknown eval mode `{other}`")),
        }
    }
}

/// A request's budget: `null`, `{ "evaluations": n }` or
/// `{ "time_limit_s": s }`. Requests and manifests share this encoding.
pub(crate) mod budget {
    use super::{err, member, Key, Result};
    use crate::request::Budget;
    use rlp_obs::json::{Layout, Value, Writer};

    pub(crate) fn write(budget: &Option<Budget>, w: &mut Writer) {
        match budget {
            None => {
                w.null();
            }
            Some(Budget::Evaluations(n)) => {
                w.object(Layout::Inline, |w| {
                    w.field("evaluations", *n);
                });
            }
            Some(Budget::TimeLimit(limit)) => {
                w.object(Layout::Inline, |w| {
                    w.field("time_limit_s", *limit);
                });
            }
        }
    }

    pub(crate) fn read(obj: &Value, key: Key<'_>) -> Result<Option<Budget>> {
        let (value, path) = (member(obj, key)?, key.path());
        let at = |name| Key::new(&path, name);
        Ok(if matches!(value, Value::Null) {
            None
        } else if value.get("evaluations").is_some() {
            Some(Budget::Evaluations(super::read(value, at("evaluations"))?))
        } else if value.get("time_limit_s").is_some() {
            Some(Budget::TimeLimit(super::read(value, at("time_limit_s"))?))
        } else {
            return err(format!(
                "field `{key}` must be null or hold `evaluations` or `time_limit_s`"
            ));
        })
    }
}

/// The thermal configuration's members inside a backend object. The stack
/// is two keys that must agree (`power_layer` indexes `layers`), and the
/// grid is one pair for two fields, so this table is written out.
impl Record for ThermalConfig {
    const LAYOUT: Layout = Layout::Block;

    const KEYS: &'static [&'static str] = &[
        "grid",
        "ambient_c",
        "convection_resistance_k_per_w",
        "power_layer",
        "layers",
    ];

    fn write_fields(&self, w: &mut Writer) {
        w.field("grid", (self.grid_nx, self.grid_ny))
            .field("ambient_c", self.ambient_c)
            .field(
                "convection_resistance_k_per_w",
                self.convection_resistance_k_per_w,
            )
            .field("power_layer", self.stack.power_layer());
        w.key("layers").array(Layout::Inline, |w| {
            for layer in self.stack.layers() {
                w.object(Layout::Inline, |w| {
                    w.field("name", &layer.name)
                        .field("thickness_mm", layer.thickness_mm)
                        .field("conductivity_w_mk", layer.conductivity_w_mk);
                });
            }
        });
    }

    fn read_fields(&mut self, obj: &Value, path: &str) -> Result<()> {
        (self.grid_nx, self.grid_ny) = read(obj, Key::new(path, "grid"))?;
        let Some(records) = member(obj, Key::new(path, "layers"))?.as_array() else {
            return err(format!("field `{path}.layers` must be an array"));
        };
        if records.is_empty() {
            return err(format!(
                "field `{path}.layers` must hold at least one layer"
            ));
        }
        let item = format!("{path}.layers[]");
        let mut layers = Vec::with_capacity(records.len());
        for record in records {
            let name: String = read(record, Key::new(&item, "name"))?;
            let thickness_mm: f64 = read(record, Key::new(&item, "thickness_mm"))?;
            let conductivity_w_mk: f64 = read(record, Key::new(&item, "conductivity_w_mk"))?;
            // `Layer::new` panics on non-positive values; turn that
            // contract into a parse error instead.
            if !(thickness_mm > 0.0 && conductivity_w_mk > 0.0) {
                return err(format!(
                    "layer `{name}` must have positive thickness and conductivity"
                ));
            }
            layers.push(Layer::new(name, thickness_mm, conductivity_w_mk));
        }
        let power_layer: usize = read(obj, Key::new(path, "power_layer"))?;
        if power_layer >= layers.len() {
            return err(format!(
                "field `{path}.power_layer` ({power_layer}) is out of range for {} layers",
                layers.len()
            ));
        }
        self.stack = LayerStack::new(layers, power_layer);
        self.ambient_c = read(obj, Key::new(path, "ambient_c"))?;
        self.convection_resistance_k_per_w =
            read(obj, Key::new(path, "convection_resistance_k_per_w"))?;
        Ok(())
    }
}

/// `{ "kind": "grid" | "fast", <thermal configuration>,
/// "characterization": {...} }`, the last for the fast backend only.
pub(crate) mod thermal {
    use super::*;

    pub(crate) fn write(thermal: &ThermalBackend, w: &mut Writer) {
        w.object(Layout::Block, |w| {
            w.field("kind", thermal.label());
            thermal.config().write_fields(w);
            if let ThermalBackend::Fast {
                characterization, ..
            } = thermal
            {
                characterization.write(w.key("characterization"));
            }
        });
    }

    pub(crate) fn read(obj: &Value, key: Key<'_>) -> Result<ThermalBackend> {
        let (value, path) = (member(obj, key)?, key.path());
        let kind: String = super::read(value, Key::new(&path, "kind"))?;
        let config = ThermalConfig::read(value, &path)?;
        match kind.as_str() {
            "grid" => Ok(ThermalBackend::Grid { config }),
            "fast" => Ok(ThermalBackend::Fast {
                config,
                characterization: object::read(value, Key::new(&path, "characterization"))?,
            }),
            other => err(format!("field `{path}.kind` has unknown backend `{other}`")),
        }
    }
}

/// `{ "kind": <label>, <the method configuration's members> }`. A method
/// object holds exactly those members: any other is refused by name, so a
/// document written when method objects still carried a seed, a budget or
/// `parallel_envs` is never run on the request's defaults instead.
pub(crate) mod method {
    use super::*;

    pub(crate) fn write(method: &Method, w: &mut Writer) {
        w.object(Layout::Block, |w| {
            w.field("kind", method.label());
            match method {
                Method::Rl { config } | Method::RlRnd { config } => config.write_fields(w),
                Method::Sa { config } => config.write_fields(w),
                Method::Gradient { config } => config.write_fields(w),
                Method::Pretrained { config } => config.write_fields(w),
            }
        });
    }

    pub(crate) fn read(obj: &Value, key: Key<'_>) -> Result<Method> {
        let (value, path) = (member(obj, key)?, key.path());
        let kind: String = super::read(value, Key::new(&path, "kind"))?;
        Ok(match kind.as_str() {
            "rl" => Method::Rl {
                config: config(value, &path)?,
            },
            "rl-rnd" => Method::RlRnd {
                config: config(value, &path)?,
            },
            "sa" => Method::Sa {
                config: config(value, &path)?,
            },
            "gradient" => Method::Gradient {
                config: config(value, &path)?,
            },
            "pretrained" => Method::Pretrained {
                config: config(value, &path)?,
            },
            other => return err(format!("field `{path}.kind` has unknown method `{other}`")),
        })
    }

    /// Reads a method configuration from the method object `value`, which
    /// may hold `kind` and the configuration's members only.
    fn config<T: Record>(value: &Value, path: &str) -> Result<T> {
        if let Value::Obj(members) = value {
            let known = |name: &str| name == "kind" || T::KEYS.contains(&name);
            if let Some((name, _)) = members.iter().find(|(name, _)| !known(name)) {
                return err(format!(
                    "field `{}` is not a method member; a run's seed, budget and rollout \
                     parallelism are the request's `seed`, `budget` and `parallel_envs`",
                    Key::new(path, name)
                ));
            }
        }
        T::read(value, path)
    }
}
