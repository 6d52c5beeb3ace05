//! Reinforcement-learning algorithms for RLPlanner.
//!
//! This crate is problem-agnostic: it knows nothing about chiplets. It
//! provides the pieces the paper's agent is assembled from:
//!
//! * [`Environment`] — the interface a sequential decision problem exposes
//!   (observations carry an explicit *action mask*, mirroring RLPlanner's
//!   masking of infeasible placement cells).
//! * [`ActorCritic`] — a policy/value network with a shared feature encoder
//!   and two linear heads, exactly the agent architecture in the paper.
//! * [`RolloutBuffer`] — trajectory storage with generalised advantage
//!   estimation (GAE).
//! * [`PpoAgent`] — proximal policy optimisation with clipped surrogate
//!   objective, entropy bonus, value loss and gradient clipping.
//! * [`VecEnvPool`] — N independent environments plus the per-episode
//!   seeding discipline that makes
//!   [`PpoAgent::collect_episodes_parallel`] produce the bit-identical
//!   trajectory at any parallelism level.
//! * [`RandomNetworkDistillation`] — the RND exploration bonus used by the
//!   "RLPlanner (RND)" variant.
//! * [`ConfigError`] — the typed validation error shared by the
//!   configuration structs of this crate and its consumers.
//!
//! # Examples
//!
//! ```
//! use rlp_nn::layers::{Linear, ReLU, Sequential};
//! use rlp_rl::{ActorCritic, PpoAgent, PpoConfig};
//!
//! let mut encoder = Sequential::new();
//! encoder.push(Linear::new(4, 16, 0));
//! encoder.push(ReLU::new());
//! let model = ActorCritic::new(encoder, 16, 3, 1);
//! let agent = PpoAgent::new(model, PpoConfig::default(), 42);
//! assert_eq!(agent.config().clip_epsilon, 0.2);
//! ```

pub mod actor_critic;
pub mod buffer;
pub mod env;
pub mod error;
pub mod ppo;
pub mod rnd;
pub mod vec_env;

pub use actor_critic::ActorCritic;
pub use buffer::{RolloutBuffer, Transition};
pub use env::{Environment, Observation, StepResult};
pub use error::{ConfigError, RlError};
pub use ppo::{PpoAgent, PpoConfig, PpoStats};
pub use rnd::RandomNetworkDistillation;
pub use vec_env::{episode_rng, ParallelEpisode, VecEnvPool};
