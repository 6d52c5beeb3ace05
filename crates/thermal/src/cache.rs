//! A shared cache of characterised fast thermal models.
//!
//! Characterising a [`FastThermalModel`] is the one expensive offline step
//! of the paper's flow: a sweep of grid-solver runs per package
//! configuration. The result, however, depends only on the interposer
//! outline, the [`ThermalConfig`] and the [`CharacterizationOptions`] — not
//! on the chiplets being floorplanned — so campaign drivers that solve many
//! requests (methods × systems × seeds) can share one characterisation per
//! distinct package configuration instead of re-running the sweep for every
//! run. [`ThermalModelCache`] provides exactly that: a thread-safe map from
//! [`FastModelKey`] to the characterised model, with hit/miss/time
//! telemetry ([`ThermalCacheStats`]) so cache regressions are observable.
//!
//! [`ThermalPrep`] is the per-run slice of that telemetry: how a single
//! solve obtained its analyzer (served from a cache, or characterised from
//! scratch) and how long the construction took. Request-level APIs thread
//! it through to their outcome reports.

use crate::config::ThermalConfig;
use crate::error::ThermalError;
use crate::fast::{CharacterizationOptions, FastThermalModel};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Canonical cache key of one fast-model characterisation: the interposer
/// outline, the full [`ThermalConfig`] (grid, boundary conditions and layer
/// stack) and the [`CharacterizationOptions`] sweep density.
///
/// Floating-point fields are keyed on their exact bit patterns, so two
/// configurations share a key if and only if they are numerically identical
/// — the conservative choice, guaranteeing a cache-served model is
/// bit-identical to one characterised fresh for the same inputs.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FastModelKey {
    /// Bit patterns of every numeric field, with length prefixes before the
    /// variable-length segments (layers, footprint samples).
    bits: Vec<u64>,
    /// Layer names, which are part of the configuration's identity.
    names: Vec<String>,
}

impl FastModelKey {
    /// Derives the key for an interposer outline, solver configuration and
    /// characterisation sweep.
    pub fn new(
        config: &ThermalConfig,
        interposer_width_mm: f64,
        interposer_height_mm: f64,
        options: &CharacterizationOptions,
    ) -> Self {
        let mut bits = vec![
            interposer_width_mm.to_bits(),
            interposer_height_mm.to_bits(),
            config.grid_nx as u64,
            config.grid_ny as u64,
            config.ambient_c.to_bits(),
            config.convection_resistance_k_per_w.to_bits(),
            config.stack.power_layer() as u64,
            config.stack.layer_count() as u64,
        ];
        let mut names = Vec::with_capacity(config.stack.layer_count());
        for layer in config.stack.layers() {
            names.push(layer.name.clone());
            bits.push(layer.thickness_mm.to_bits());
            bits.push(layer.conductivity_w_mk.to_bits());
        }
        bits.push(options.footprint_samples_mm.len() as u64);
        bits.extend(options.footprint_samples_mm.iter().map(|v| v.to_bits()));
        bits.push(options.reference_power_w.to_bits());
        bits.push(options.distance_bins as u64);
        bits.push(options.mutual_source_size_mm.to_bits());
        Self { bits, names }
    }
}

/// How one solve obtained its thermal analyzer.
///
/// `cache_hits`/`cache_misses` count fast-model characterisations that were
/// served from a cache versus performed for this run (for the grid backend
/// both are zero — it has no characterisation step). `characterization` is
/// the wall-clock spent constructing the analyzer within this run: zero on
/// a cache hit, the full sweep time on a miss or an uncached build.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ThermalPrep {
    /// Characterisations avoided because a cache already held the model.
    pub cache_hits: usize,
    /// Characterisations performed while building this run's analyzer.
    pub cache_misses: usize,
    /// Wall-clock spent building the analyzer for this run.
    pub characterization: Duration,
}

/// Aggregate telemetry of a [`ThermalModelCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ThermalCacheStats {
    /// Lookups served from an already-characterised model.
    pub hits: usize,
    /// Lookups that had to characterise (equals the number of distinct
    /// models the cache has built).
    pub misses: usize,
    /// Total wall-clock spent characterising on behalf of this cache.
    pub characterization_time: Duration,
}

impl ThermalCacheStats {
    /// Telemetry accumulated since an earlier snapshot of the same cache —
    /// the per-campaign slice of a cache shared across campaigns.
    #[must_use]
    pub fn since(&self, earlier: &ThermalCacheStats) -> ThermalCacheStats {
        ThermalCacheStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            characterization_time: self
                .characterization_time
                .saturating_sub(earlier.characterization_time),
        }
    }
}

/// A coherent point-in-time view of a [`ThermalModelCache`]: how many
/// distinct models it holds and the telemetry accumulated so far, read
/// under one lock acquisition — so `stats.misses == models` holds exactly
/// when no characterisation has ever failed, which separate
/// [`ThermalModelCache::stats`]/[`ThermalModelCache::len`] calls cannot
/// guarantee under concurrency. Serving telemetry (the `rlp-serve` `stats`
/// endpoint) reports this snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ThermalCacheSnapshot {
    /// Distinct characterised models currently held.
    pub models: usize,
    /// Hit/miss/characterisation-time telemetry at the same instant.
    pub stats: ThermalCacheStats,
}

struct CacheInner {
    models: HashMap<FastModelKey, Arc<FastThermalModel>>,
    stats: ThermalCacheStats,
}

/// A thread-safe cache of characterised [`FastThermalModel`]s, keyed on
/// [`FastModelKey`]; see the [module docs](self).
///
/// The internal lock is held *across* characterisation. That guarantees
/// each distinct configuration is characterised exactly once no matter how
/// many threads request it simultaneously — the property campaign
/// telemetry asserts on — at the price of serialising the warm-up phase:
/// concurrent misses run one at a time even for distinct keys, and a
/// lookup that would hit waits while any characterisation is in flight
/// (its [`ThermalPrep::characterization`], measured by callers like
/// [`crate::ThermalBackend::build_cached`], can therefore include lock
/// wait). Once the cache is warm, lookups only hold the lock for a map
/// access.
pub struct ThermalModelCache {
    inner: Mutex<CacheInner>,
}

impl ThermalModelCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self {
            inner: Mutex::new(CacheInner {
                models: HashMap::new(),
                stats: ThermalCacheStats::default(),
            }),
        }
    }

    /// Returns the cached model for the configuration, characterising and
    /// inserting it on first use. The boolean is `true` on a cache hit.
    ///
    /// The returned model is shared; cloning out of the [`Arc`] yields data
    /// bit-identical to a fresh [`FastThermalModel::characterize`] run with
    /// the same inputs (characterisation is deterministic).
    ///
    /// # Errors
    ///
    /// Propagates [`ThermalError`] from characterisation; failed
    /// characterisations are not cached (the miss still counts, but a later
    /// lookup retries).
    pub fn get_or_characterize(
        &self,
        config: &ThermalConfig,
        interposer_width_mm: f64,
        interposer_height_mm: f64,
        options: &CharacterizationOptions,
    ) -> Result<(Arc<FastThermalModel>, bool), ThermalError> {
        let key = FastModelKey::new(config, interposer_width_mm, interposer_height_mm, options);
        let mut inner = self.inner.lock().expect("thermal cache lock poisoned");
        if let Some(model) = inner.models.get(&key) {
            let model = Arc::clone(model);
            inner.stats.hits += 1;
            rlp_obs::obs_counter!("thermal.cache.hits").inc();
            return Ok((model, true));
        }
        inner.stats.misses += 1;
        rlp_obs::obs_counter!("thermal.cache.misses").inc();
        let start = Instant::now();
        let model = FastThermalModel::characterize(
            config,
            interposer_width_mm,
            interposer_height_mm,
            options,
        );
        inner.stats.characterization_time += start.elapsed();
        let model = Arc::new(model?);
        inner.models.insert(key, Arc::clone(&model));
        Ok((model, false))
    }

    /// A coherent model-count + telemetry snapshot under one lock
    /// acquisition; see [`ThermalCacheSnapshot`].
    pub fn snapshot(&self) -> ThermalCacheSnapshot {
        let inner = self.inner.lock().expect("thermal cache lock poisoned");
        ThermalCacheSnapshot {
            models: inner.models.len(),
            stats: inner.stats,
        }
    }

    /// Snapshot of the cache telemetry.
    pub fn stats(&self) -> ThermalCacheStats {
        self.inner
            .lock()
            .expect("thermal cache lock poisoned")
            .stats
    }

    /// Number of distinct characterised models currently held.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .expect("thermal cache lock poisoned")
            .models
            .len()
    }

    /// Whether the cache holds no models yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Default for ThermalModelCache {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for ThermalModelCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock().expect("thermal cache lock poisoned");
        f.debug_struct("ThermalModelCache")
            .field("models", &inner.models.len())
            .field("stats", &inner.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_options() -> CharacterizationOptions {
        CharacterizationOptions {
            footprint_samples_mm: vec![4.0, 8.0],
            distance_bins: 4,
            ..CharacterizationOptions::default()
        }
    }

    #[test]
    fn second_lookup_is_a_hit_and_shares_the_model() {
        let cache = ThermalModelCache::new();
        let config = ThermalConfig::with_grid(8, 8);
        let (first, hit1) = cache
            .get_or_characterize(&config, 30.0, 30.0, &quick_options())
            .unwrap();
        let (second, hit2) = cache
            .get_or_characterize(&config, 30.0, 30.0, &quick_options())
            .unwrap();
        assert!(!hit1);
        assert!(hit2);
        assert!(Arc::ptr_eq(&first, &second));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert!(stats.characterization_time > Duration::ZERO);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_configurations_get_distinct_models() {
        let cache = ThermalModelCache::new();
        let config = ThermalConfig::with_grid(8, 8);
        cache
            .get_or_characterize(&config, 30.0, 30.0, &quick_options())
            .unwrap();
        // A different outline, grid and sweep each miss separately.
        cache
            .get_or_characterize(&config, 40.0, 30.0, &quick_options())
            .unwrap();
        cache
            .get_or_characterize(
                &ThermalConfig::with_grid(10, 8),
                30.0,
                30.0,
                &quick_options(),
            )
            .unwrap();
        let wider_sweep = CharacterizationOptions {
            distance_bins: 5,
            ..quick_options()
        };
        cache
            .get_or_characterize(&config, 30.0, 30.0, &wider_sweep)
            .unwrap();
        assert_eq!(cache.len(), 4);
        assert_eq!(cache.stats().misses, 4);
        assert_eq!(cache.stats().hits, 0);
    }

    #[test]
    fn failed_characterisation_is_not_cached() {
        let cache = ThermalModelCache::new();
        let bad = CharacterizationOptions {
            footprint_samples_mm: vec![4.0],
            ..quick_options()
        };
        let err = cache
            .get_or_characterize(&ThermalConfig::with_grid(8, 8), 30.0, 30.0, &bad)
            .unwrap_err();
        assert!(matches!(err, ThermalError::InvalidConfig { .. }));
        assert!(cache.is_empty());
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn key_is_insensitive_to_clone_but_sensitive_to_every_field() {
        let config = ThermalConfig::with_grid(8, 8);
        let options = quick_options();
        let key = FastModelKey::new(&config, 30.0, 30.0, &options);
        assert_eq!(
            key,
            FastModelKey::new(&config.clone(), 30.0, 30.0, &options.clone())
        );
        assert_ne!(key, FastModelKey::new(&config, 30.0, 31.0, &options));
        let mut other = config.clone();
        other.ambient_c += 1.0;
        assert_ne!(key, FastModelKey::new(&other, 30.0, 30.0, &options));
        let mut other = options.clone();
        other.reference_power_w += 1.0;
        assert_ne!(key, FastModelKey::new(&config, 30.0, 30.0, &other));
    }

    #[test]
    fn snapshot_reports_models_and_stats_coherently() {
        let cache = ThermalModelCache::new();
        assert_eq!(cache.snapshot(), ThermalCacheSnapshot::default());
        let config = ThermalConfig::with_grid(8, 8);
        cache
            .get_or_characterize(&config, 30.0, 30.0, &quick_options())
            .unwrap();
        cache
            .get_or_characterize(&config, 30.0, 30.0, &quick_options())
            .unwrap();
        let snapshot = cache.snapshot();
        assert_eq!(snapshot.models, 1);
        assert_eq!((snapshot.stats.hits, snapshot.stats.misses), (1, 1));
    }

    #[test]
    fn stats_since_reports_the_delta() {
        let cache = ThermalModelCache::new();
        let config = ThermalConfig::with_grid(8, 8);
        cache
            .get_or_characterize(&config, 30.0, 30.0, &quick_options())
            .unwrap();
        let snapshot = cache.stats();
        cache
            .get_or_characterize(&config, 30.0, 30.0, &quick_options())
            .unwrap();
        let delta = cache.stats().since(&snapshot);
        assert_eq!((delta.hits, delta.misses), (1, 0));
        assert_eq!(delta.characterization_time, Duration::ZERO);
    }

    #[test]
    fn concurrent_lookups_characterise_each_key_exactly_once() {
        let cache = ThermalModelCache::new();
        let config = ThermalConfig::with_grid(8, 8);
        let options = quick_options();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    cache
                        .get_or_characterize(&config, 30.0, 30.0, &options)
                        .unwrap();
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 3);
    }
}
