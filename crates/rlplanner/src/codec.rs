//! One key table per configuration and telemetry type, shared by the
//! renderer ([`crate::report`]) and the parser ([`crate::parse`]).
//!
//! Each record's JSON keys are declared once, in a `record!` table that
//! maps every key to a field. The table derives both directions, so a key
//! cannot be rendered without being parsed, or spelled two ways. A field
//! is encoded by its type ([`rlp_obs::json::Encode`] and [`Decode`])
//! unless the table names a codec: `as object` for a nested record,
//! `as hex` for a 64-bit hash, `as eval_mode` for an [`EvalMode`](rlp_sa::EvalMode) label.
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
    "episodes" => episodes,
    "episodes_per_update" => episodes_per_update,
    "parallel_envs" => parallel_envs,
    "use_rnd" => use_rnd,
    "seed" => seed,
    "time_budget_s" => time_budget,
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
    "seed" => seed,
    "time_budget_s" => time_budget,
    "max_evaluations" => max_evaluations,
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
    "seed" => seed,
    "time_budget_s" => time_budget,
    "max_evaluations" => max_evaluations,
});

record!(PretrainedConfig, Block {
    "policy_path" => policy_path,
    "checksum" => checksum as hex,
    "seed" => seed,
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
    "episodes_per_s" => episodes_per_s,
    "merge_order_hash" => merge_order_hash as hex,
});

record!(ThermalPrep, Inline {
    "cache_hits" => cache_hits,
    "cache_misses" => cache_misses,
    "characterization_s" => characterization,
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

/// 64-bit hashes, as `"0x…"` strings: a JSON number cannot carry one
/// exactly. An optional hash is `null` when unset.
mod hex {
    use super::{err, member, Key, Result};
    use rlp_obs::json::{Value, Writer};

    /// A `u64` hash, or an optional one.
    pub(super) trait Hash: Copy + Into<Option<u64>> {
        fn from_hash(hash: Option<u64>) -> Option<Self>;
    }

    impl Hash for u64 {
        fn from_hash(hash: Option<u64>) -> Option<Self> {
            hash
        }
    }

    impl Hash for Option<u64> {
        fn from_hash(hash: Option<u64>) -> Option<Self> {
            Some(hash)
        }
    }

    pub(super) fn write<T: Hash>(value: &T, w: &mut Writer) {
        w.value((*value).into().map(|hash| format!("{hash:#018x}")));
    }

    pub(super) fn read<T: Hash>(obj: &Value, key: Key<'_>) -> Result<T> {
        let hash = match member(obj, key)? {
            Value::Str(text) => {
                let digits = text.strip_prefix("0x").unwrap_or(text);
                match u64::from_str_radix(digits, 16) {
                    Ok(hash) => Some(hash),
                    Err(_) => return err(format!("field `{key}` is not a hex hash: `{text}`")),
                }
            }
            Value::Null => None,
            _ => return err(format!("field `{key}` must be a hex-string hash")),
        };
        T::from_hash(hash).map_or_else(
            || err(format!("field `{key}` must be a hex-string hash")),
            Ok,
        )
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

/// The thermal configuration's members inside a backend object. The stack
/// is two keys that must agree (`power_layer` indexes `layers`), and the
/// grid is one pair for two fields, so this table is written out.
impl Record for ThermalConfig {
    const LAYOUT: Layout = Layout::Block;

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

/// `{ "kind": <label>, <the method configuration's members> }`.
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
                config: Record::read(value, &path)?,
            },
            "rl-rnd" => Method::RlRnd {
                config: Record::read(value, &path)?,
            },
            "sa" => Method::Sa {
                config: Record::read(value, &path)?,
            },
            "gradient" => Method::Gradient {
                config: Record::read(value, &path)?,
            },
            "pretrained" => Method::Pretrained {
                config: Record::read(value, &path)?,
            },
            other => return err(format!("field `{path}.kind` has unknown method `{other}`")),
        })
    }
}
