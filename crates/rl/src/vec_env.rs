//! A pool of independent environments for vectorised rollout collection.
//!
//! [`VecEnvPool`] owns N interchangeable [`Environment`] instances and the
//! deterministic seeding discipline that makes parallel collection
//! reproducible: every episode draws its actions from its *own*
//! [`ChaCha8Rng`] stream, derived from the pool's run seed and the episode's
//! global index by [`episode_rng`]. Because a stream depends only on
//! `(run_seed, episode_index)` — never on which worker ran the episode or
//! how long earlier episodes were — a collection pass over the pool produces
//! the bit-identical trajectory for **any** pool size, and
//! [`crate::PpoAgent::collect_episodes_parallel`] merges transitions back in
//! episode order so downstream advantage estimation is order-stable too.
//!
//! The pool requires its environments to be *reset-pure*: after
//! [`Environment::reset`], behaviour must depend only on the actions taken
//! in the current episode (no hidden cross-episode state). The chiplet
//! floorplanning environment satisfies this by construction.

use crate::env::Environment;
use crate::error::RlError;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The action-sampling stream of one episode: a [`ChaCha8Rng`] keyed by the
/// run seed and the episode's global (run-wide) index.
///
/// The index is decorrelated from the seed with a golden-ratio multiply
/// before the SplitMix64 expansion inside `seed_from_u64`, so neighbouring
/// episodes and neighbouring run seeds produce unrelated streams.
pub fn episode_rng(run_seed: u64, episode: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(
        run_seed ^ episode.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
    )
}

/// One episode collected by a parallel rollout pass, in episode order.
#[derive(Debug, Clone, PartialEq)]
pub struct ParallelEpisode<T> {
    /// Global (run-wide) episode index; also the key of the episode's
    /// action-sampling stream.
    pub episode: u64,
    /// Total extrinsic episode reward.
    pub reward: f64,
    /// Number of transitions the episode appended to the rollout buffer.
    pub transitions: usize,
    /// Caller-defined per-episode artifact, extracted from the environment
    /// right after the episode ended (e.g. the final placement).
    pub artifact: T,
}

/// A pool of N independent environments; see the [module docs](self).
#[derive(Debug)]
pub struct VecEnvPool<E> {
    envs: Vec<E>,
    run_seed: u64,
    next_episode: u64,
}

impl<E: Environment> VecEnvPool<E> {
    /// Wraps `envs` (all reset-pure replicas of the same problem) with the
    /// run seed every episode stream is derived from.
    ///
    /// # Errors
    ///
    /// Returns [`RlError::EmptyPool`] when `envs` is empty.
    pub fn new(envs: Vec<E>, run_seed: u64) -> Result<Self, RlError> {
        if envs.is_empty() {
            return Err(RlError::EmptyPool);
        }
        Ok(Self {
            envs,
            run_seed,
            next_episode: 0,
        })
    }

    /// Number of environments in the pool (the maximum rollout parallelism).
    pub fn env_count(&self) -> usize {
        self.envs.len()
    }

    /// The run seed episode streams are derived from.
    pub fn run_seed(&self) -> u64 {
        self.run_seed
    }

    /// Global index the next collected episode will receive.
    pub fn episodes_started(&self) -> u64 {
        self.next_episode
    }

    /// The pooled environments.
    pub fn envs(&self) -> &[E] {
        &self.envs
    }

    /// Mutable access to the pooled environments (e.g. for greedy
    /// evaluation rollouts outside the collection pass).
    pub fn envs_mut(&mut self) -> &mut [E] {
        &mut self.envs
    }

    /// Advances the global episode counter after a collection pass.
    pub(crate) fn advance(&mut self, episodes: u64) {
        self.next_episode += episodes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::{Observation, StepResult};
    use rand::RngCore;
    use rlp_nn::Tensor;

    #[derive(Debug)]
    struct Trivial;

    impl Environment for Trivial {
        fn reset(&mut self) -> Observation {
            Observation::new(Tensor::zeros(vec![1]), vec![true])
        }
        fn step(&mut self, _action: usize) -> StepResult {
            StepResult {
                observation: None,
                reward: 0.0,
                done: true,
            }
        }
        fn action_count(&self) -> usize {
            1
        }
        fn observation_shape(&self) -> Vec<usize> {
            vec![1]
        }
    }

    #[test]
    fn empty_pool_is_a_typed_error() {
        let err = VecEnvPool::<Trivial>::new(Vec::new(), 0).unwrap_err();
        assert_eq!(err, RlError::EmptyPool);
    }

    #[test]
    fn pool_tracks_its_configuration() {
        let mut pool = VecEnvPool::new(vec![Trivial, Trivial], 42).unwrap();
        assert_eq!(pool.env_count(), 2);
        assert_eq!(pool.run_seed(), 42);
        assert_eq!(pool.episodes_started(), 0);
        pool.advance(5);
        assert_eq!(pool.episodes_started(), 5);
        assert_eq!(pool.envs().len(), pool.envs_mut().len());
    }

    #[test]
    fn episode_streams_are_deterministic_and_distinct() {
        let draws = |seed, episode| {
            let mut rng = episode_rng(seed, episode);
            (0..4).map(|_| rng.next_u64()).collect::<Vec<_>>()
        };
        // Same key, same stream.
        assert_eq!(draws(7, 0), draws(7, 0));
        // Neighbouring episodes and seeds diverge.
        assert_ne!(draws(7, 0), draws(7, 1));
        assert_ne!(draws(7, 0), draws(8, 0));
    }
}
