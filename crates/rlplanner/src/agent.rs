//! Builders for the RLPlanner agent networks.
//!
//! The paper's agent is a CNN feature encoder shared by a policy head (a
//! probability over grid cells) and a value head, trained with PPO and
//! optionally augmented with an RND exploration bonus. These builders size
//! the networks for a given environment observation shape and action count.

use crate::env::EnvConfig;
use rlp_nn::layers::{Conv2d, Flatten, Linear, ReLU, Sequential};
use rlp_nn::{PolicyError, PolicyFile, Tensor};
use rlp_rl::{ActorCritic, RandomNetworkDistillation};
use serde::{Deserialize, Serialize};

/// Agent network hyper-parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AgentConfig {
    /// Channel widths of the two convolutional encoder stages.
    pub conv_channels: (usize, usize),
    /// Width of the shared fully connected feature layer.
    pub feature_dim: usize,
    /// Hidden width of the RND networks.
    pub rnd_hidden_dim: usize,
    /// Embedding width of the RND networks.
    pub rnd_embedding_dim: usize,
    /// Scale of the RND intrinsic reward.
    pub rnd_bonus_scale: f64,
    /// Seed for weight initialisation.
    pub seed: u64,
}

impl Default for AgentConfig {
    fn default() -> Self {
        Self {
            conv_channels: (8, 16),
            feature_dim: 128,
            rnd_hidden_dim: 128,
            rnd_embedding_dim: 32,
            rnd_bonus_scale: 0.5,
            seed: 0,
        }
    }
}

/// Where [`build_actor_critic`] takes a network's parameters from.
///
/// * `&AgentConfig` — a fresh seeded initialisation
///   ([`AgentConfig::seed`]). It cannot fail, so the build returns the
///   [`ActorCritic`] itself.
/// * `&PolicyFile` — the file's tensors, used as they are, with the
///   encoder geometry its metadata records ([`configs_from_policy`]). The
///   build returns a `Result`: a file with missing metadata, the wrong
///   tensor count or shapes, or a non-finite parameter is a typed
///   [`PolicyError`].
pub trait Weights<'a> {
    /// What the build returns.
    type Built;

    /// The encoder geometry, plus the file whose tensors to use (`None`
    /// for a seeded initialisation).
    ///
    /// # Errors
    ///
    /// A [`PolicyError`] when the source cannot describe a network.
    fn source(self) -> Result<(AgentConfig, Option<&'a PolicyFile>), PolicyError>;

    /// Wraps the build result as [`Weights::Built`].
    fn finish(built: Result<ActorCritic, PolicyError>) -> Self::Built;
}

impl<'a> Weights<'a> for &'a AgentConfig {
    type Built = ActorCritic;

    fn source(self) -> Result<(AgentConfig, Option<&'a PolicyFile>), PolicyError> {
        Ok((self.clone(), None))
    }

    fn finish(built: Result<ActorCritic, PolicyError>) -> ActorCritic {
        built.expect("a seeded initialisation fits its own architecture")
    }
}

impl<'a> Weights<'a> for &'a PolicyFile {
    type Built = Result<ActorCritic, PolicyError>;

    fn source(self) -> Result<(AgentConfig, Option<&'a PolicyFile>), PolicyError> {
        let (_, agent) = configs_from_policy(self)?;
        self.check_finite()?;
        Ok((agent, Some(self)))
    }

    fn finish(built: Result<ActorCritic, PolicyError>) -> Self::Built {
        built
    }
}

/// Builds the CNN actor-critic network for an observation of shape
/// `[channels, rows, cols]` and a discrete action space of `action_count`
/// cells, with its parameters taken from `weights` (see [`Weights`]).
///
/// The encoder is two stride-2 convolutions followed by a fully connected
/// feature layer; the policy and value heads sit on top of the shared
/// features, as described in the paper. A network built from a policy file
/// draws no initialisation at all.
///
/// # Panics
///
/// Panics if the observation shape is not rank 3 or the grid is too small
/// for two stride-2 convolutions.
pub fn build_actor_critic<'a, W: Weights<'a>>(
    observation_shape: &[usize],
    action_count: usize,
    weights: W,
) -> W::Built {
    assert_eq!(
        observation_shape.len(),
        3,
        "observation must be [channels, rows, cols]"
    );
    W::finish(
        weights
            .source()
            .and_then(|(config, file)| assemble(observation_shape, action_count, &config, file)),
    )
}

/// Parameter tensors of the network [`build_actor_critic`] assembles: a
/// weight and a bias for each of two convolutions, the feature layer and
/// the two heads.
const PARAMETER_TENSORS: usize = 10;

fn assemble(
    observation_shape: &[usize],
    action_count: usize,
    config: &AgentConfig,
    file: Option<&PolicyFile>,
) -> Result<ActorCritic, PolicyError> {
    let (channels, rows, cols) = (
        observation_shape[0],
        observation_shape[1],
        observation_shape[2],
    );
    let mut params = Params::new(file)?;
    let (c1, c2) = config.conv_channels;
    let seed = config.seed;
    let conv1 = params.conv(channels, c1, seed.wrapping_add(1))?;
    let (h1, w1) = conv1.output_size(rows, cols);
    let conv2 = params.conv(c1, c2, seed.wrapping_add(2))?;
    let (h2, w2) = conv2.output_size(h1, w1);
    assert!(h2 > 0 && w2 > 0, "grid too small for the CNN encoder");
    let flat_dim = c2 * h2 * w2;
    let features = params.linear(flat_dim, config.feature_dim, seed.wrapping_add(3))?;

    let mut encoder = Sequential::new();
    encoder.push(conv1);
    encoder.push(ReLU::new());
    encoder.push(conv2);
    encoder.push(ReLU::new());
    encoder.push(Flatten::new());
    encoder.push(features);
    encoder.push(ReLU::new());

    // The head seeds `ActorCritic::new` derives, so a seeded network is
    // the one it would build.
    let head_seed = seed.wrapping_mul(31);
    let policy_head = params.linear(config.feature_dim, action_count, head_seed.wrapping_add(1))?;
    let value_head = params.linear(config.feature_dim, 1, head_seed.wrapping_add(2))?;
    Ok(ActorCritic::from_parts(encoder, policy_head, value_head))
}

/// Hands out a network's layers in parameter traversal order: seeded
/// draws, or a policy file's tensors checked against the shapes the
/// architecture expects.
struct Params<'a> {
    /// The file's tensors; `None` for a seeded initialisation.
    tensors: Option<&'a [Tensor]>,
    next: usize,
}

impl<'a> Params<'a> {
    fn new(file: Option<&'a PolicyFile>) -> Result<Self, PolicyError> {
        let tensors = file.map(PolicyFile::tensors);
        if let Some(tensors) = tensors {
            if tensors.len() != PARAMETER_TENSORS {
                return Err(PolicyError::TensorCountMismatch {
                    file: tensors.len(),
                    network: PARAMETER_TENSORS,
                });
            }
        }
        Ok(Self { tensors, next: 0 })
    }

    /// The next file tensor, which must have `shape`.
    fn take(&mut self, tensors: &[Tensor], shape: &[usize]) -> Result<Tensor, PolicyError> {
        let index = self.next;
        self.next += 1;
        let tensor = &tensors[index];
        if tensor.shape() != shape {
            return Err(PolicyError::ShapeMismatch {
                index,
                file: tensor.shape().to_vec(),
                network: shape.to_vec(),
            });
        }
        Ok(tensor.clone())
    }

    /// A 3×3, stride-2, padding-1 convolution.
    fn conv(&mut self, inputs: usize, outputs: usize, seed: u64) -> Result<Conv2d, PolicyError> {
        let Some(tensors) = self.tensors else {
            return Ok(Conv2d::new(inputs, outputs, 3, 2, 1, seed));
        };
        let weight = self.take(tensors, &[outputs, inputs, 3, 3])?;
        let bias = self.take(tensors, &[outputs])?;
        Ok(Conv2d::from_parameters(weight, bias, 2, 1))
    }

    fn linear(&mut self, inputs: usize, outputs: usize, seed: u64) -> Result<Linear, PolicyError> {
        let Some(tensors) = self.tensors else {
            return Ok(Linear::new(inputs, outputs, seed));
        };
        let weight = self.take(tensors, &[inputs, outputs])?;
        let bias = self.take(tensors, &[outputs])?;
        Ok(Linear::from_parameters(weight, bias))
    }
}

/// The metadata a `rlplanner.policy/v1` file carries so the facade can
/// rebuild a matching environment and network at inference time: the
/// placement grid and spacing ([`EnvConfig`]) and the encoder geometry
/// ([`AgentConfig::conv_channels`], [`AgentConfig::feature_dim`]). Callers
/// append their own provenance entries (e.g. `trained.*`) on top.
pub fn policy_metadata(env: &EnvConfig, agent: &AgentConfig) -> Vec<(String, String)> {
    vec![
        ("schema".to_string(), rlp_nn::POLICY_SCHEMA.to_string()),
        (
            "env.grid".to_string(),
            format!("{}x{}", env.grid.0, env.grid.1),
        ),
        (
            "env.min_spacing_mm".to_string(),
            format!("{}", env.min_spacing_mm),
        ),
        (
            "agent.conv_channels".to_string(),
            format!("{},{}", agent.conv_channels.0, agent.conv_channels.1),
        ),
        (
            "agent.feature_dim".to_string(),
            agent.feature_dim.to_string(),
        ),
    ]
}

/// Rebuilds the environment and agent configurations recorded in a policy
/// file's metadata (the inverse of [`policy_metadata`]). The RND fields of
/// the returned [`AgentConfig`] are defaults — inference never uses them.
///
/// # Errors
///
/// Returns [`PolicyError::Metadata`] when a required key is missing or
/// unparsable, so a policy saved by something else fails loudly instead of
/// rebuilding the wrong network.
pub fn configs_from_policy(file: &PolicyFile) -> Result<(EnvConfig, AgentConfig), PolicyError> {
    fn value<'a>(file: &'a PolicyFile, key: &str) -> Result<&'a str, PolicyError> {
        file.metadata_value(key)
            .ok_or_else(|| PolicyError::Metadata(format!("missing metadata key `{key}`")))
    }
    fn parse<T: std::str::FromStr>(key: &str, raw: &str) -> Result<T, PolicyError> {
        raw.parse()
            .map_err(|_| PolicyError::Metadata(format!("unparsable metadata `{key}` = `{raw}`")))
    }
    fn pair(key: &str, raw: &str, sep: char) -> Result<(usize, usize), PolicyError> {
        let (a, b) = raw.split_once(sep).ok_or_else(|| {
            PolicyError::Metadata(format!("unparsable metadata `{key}` = `{raw}`"))
        })?;
        Ok((parse(key, a)?, parse(key, b)?))
    }

    let grid = pair("env.grid", value(file, "env.grid")?, 'x')?;
    if grid.0 == 0 || grid.1 == 0 {
        return Err(PolicyError::Metadata(format!(
            "policy was saved for an empty {}x{} grid",
            grid.0, grid.1
        )));
    }
    let min_spacing_mm: f64 = parse("env.min_spacing_mm", value(file, "env.min_spacing_mm")?)?;
    let conv_channels = pair(
        "agent.conv_channels",
        value(file, "agent.conv_channels")?,
        ',',
    )?;
    let feature_dim: usize = parse("agent.feature_dim", value(file, "agent.feature_dim")?)?;
    if conv_channels.0 == 0 || conv_channels.1 == 0 || feature_dim == 0 {
        return Err(PolicyError::Metadata(
            "policy records a zero-width network".to_string(),
        ));
    }
    Ok((
        EnvConfig {
            grid,
            min_spacing_mm,
        },
        AgentConfig {
            conv_channels,
            feature_dim,
            ..AgentConfig::default()
        },
    ))
}

/// Builds the RND exploration module for a flattened observation of the
/// given shape.
pub fn build_rnd(observation_shape: &[usize], config: &AgentConfig) -> RandomNetworkDistillation {
    let input_dim: usize = observation_shape.iter().product();
    RandomNetworkDistillation::new(
        input_dim,
        config.rnd_hidden_dim,
        config.rnd_embedding_dim,
        config.rnd_bonus_scale,
        config.seed.wrapping_add(1000),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlp_nn::Layer;

    #[test]
    fn actor_critic_matches_environment_dimensions() {
        let config = AgentConfig::default();
        let mut model = build_actor_critic(&[4, 16, 16], 256, &config);
        assert_eq!(model.action_count(), 256);
        let states = Tensor::zeros(vec![2, 4, 16, 16]);
        let (logits, values) = model.evaluate(&states, false);
        assert_eq!(logits.shape(), &[2, 256]);
        assert_eq!(values.shape(), &[2, 1]);
    }

    #[test]
    fn encoder_handles_non_square_grids() {
        let config = AgentConfig::default();
        let mut model = build_actor_critic(&[4, 12, 20], 240, &config);
        let (logits, _) = model.evaluate(&Tensor::zeros(vec![1, 4, 12, 20]), false);
        assert_eq!(logits.shape(), &[1, 240]);
    }

    #[test]
    fn network_size_scales_with_config() {
        let small = AgentConfig {
            conv_channels: (4, 8),
            feature_dim: 32,
            ..AgentConfig::default()
        };
        let large = AgentConfig::default();
        let mut small_model = build_actor_critic(&[4, 16, 16], 256, &small);
        let mut large_model = build_actor_critic(&[4, 16, 16], 256, &large);
        assert!(small_model.parameter_count() < large_model.parameter_count());
    }

    /// A small agent on an 8×8 grid, and the policy file of a seeded
    /// network of it.
    fn small_policy(seed: u64) -> (ActorCritic, PolicyFile) {
        let env = EnvConfig {
            grid: (8, 8),
            min_spacing_mm: 0.2,
        };
        let agent = AgentConfig {
            conv_channels: (3, 5),
            feature_dim: 12,
            seed,
            ..AgentConfig::default()
        };
        let mut model = build_actor_critic(&[4, 8, 8], 64, &agent);
        let file = model.export_policy(policy_metadata(&env, &agent));
        (model, file)
    }

    fn parameters(model: &mut ActorCritic) -> Vec<Tensor> {
        let mut out = Vec::new();
        model.visit_parameters(&mut |p| out.push(p.value.clone()));
        out
    }

    #[test]
    fn a_network_built_from_a_policy_file_holds_its_tensors() {
        let (mut source, file) = small_policy(3);
        let mut built = build_actor_critic(&[4, 8, 8], 64, &file).unwrap();
        assert_eq!(parameters(&mut built), parameters(&mut source));
        // The same network as a seeded build with the file applied on top.
        let (mut applied, _) = small_policy(99);
        file.apply_to(&mut applied).unwrap();
        let states = Tensor::from_vec(
            (0..4 * 64).map(|i| (i % 5) as f32 / 5.0).collect(),
            vec![1, 4, 8, 8],
        );
        assert_eq!(
            built.evaluate(&states, false),
            applied.evaluate(&states, false)
        );
    }

    #[test]
    fn policy_files_that_do_not_fit_are_typed_errors() {
        let (_, file) = small_policy(4);
        let build = |file: &PolicyFile| build_actor_critic(&[4, 8, 8], 64, file).unwrap_err();
        let metadata = file.metadata().to_vec();

        let mut tensors = file.tensors().to_vec();
        tensors.pop();
        assert_eq!(
            build(&PolicyFile::new(metadata.clone(), tensors)),
            PolicyError::TensorCountMismatch {
                file: 9,
                network: 10
            }
        );

        let mut tensors = file.tensors().to_vec();
        tensors[2] = Tensor::zeros(vec![5, 3, 2, 2]);
        assert_eq!(
            build(&PolicyFile::new(metadata.clone(), tensors)),
            PolicyError::ShapeMismatch {
                index: 2,
                file: vec![5, 3, 2, 2],
                network: vec![5, 3, 3, 3],
            }
        );

        let mut tensors = file.tensors().to_vec();
        tensors[9].data_mut()[0] = f32::INFINITY;
        assert_eq!(
            build(&PolicyFile::new(metadata, tensors)),
            PolicyError::NonFinite {
                tensor: 9,
                element: 0
            }
        );

        let foreign = PolicyFile::new(Vec::new(), file.tensors().to_vec());
        assert!(matches!(build(&foreign), PolicyError::Metadata(_)));
    }

    #[test]
    fn rnd_matches_flattened_observation() {
        let config = AgentConfig::default();
        let mut rnd = build_rnd(&[4, 16, 16], &config);
        assert_eq!(rnd.input_dim(), 4 * 16 * 16);
        let bonus = rnd.bonus(&Tensor::zeros(vec![4, 16, 16]));
        assert!(bonus.is_finite());
    }

    #[test]
    #[should_panic(expected = "observation must be")]
    fn flat_observation_is_rejected() {
        build_actor_critic(&[16], 16, &AgentConfig::default());
    }

    #[test]
    fn policy_metadata_round_trips_through_configs_from_policy() {
        let env = EnvConfig {
            grid: (12, 16),
            min_spacing_mm: 0.35,
        };
        let agent = AgentConfig {
            conv_channels: (4, 8),
            feature_dim: 32,
            ..AgentConfig::default()
        };
        let file = PolicyFile::new(policy_metadata(&env, &agent), Vec::new());
        let (env_back, agent_back) = configs_from_policy(&file).unwrap();
        assert_eq!(env_back, env);
        assert_eq!(agent_back.conv_channels, (4, 8));
        assert_eq!(agent_back.feature_dim, 32);
    }

    #[test]
    fn foreign_or_corrupt_policy_metadata_is_a_typed_error() {
        // No metadata at all (a policy saved by something else entirely).
        let empty = PolicyFile::new(Vec::new(), Vec::new());
        assert!(matches!(
            configs_from_policy(&empty),
            Err(PolicyError::Metadata(_))
        ));
        // A zero grid must not reach `PlacementGrid::new` (which panics).
        let mut metadata = policy_metadata(&EnvConfig::default(), &AgentConfig::default());
        for (key, value) in &mut metadata {
            if key == "env.grid" {
                *value = "0x16".to_string();
            }
        }
        let zero_grid = PolicyFile::new(metadata, Vec::new());
        assert!(matches!(
            configs_from_policy(&zero_grid),
            Err(PolicyError::Metadata(_))
        ));
    }
}
