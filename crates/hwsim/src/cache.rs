//! Memoizing evaluation cache: canonical architecture hashing, a sharded
//! LRU of simulated cost triples, and a caching simulator facade.
//!
//! A one-shot search re-visits architectures constantly — the policy
//! concentrates as entropy decays, so late-search steps sample the same
//! few candidates over and over. Re-walking the op graph for a candidate
//! the simulator has already costed wastes the hot path. This module keys
//! every simulated evaluation by a **canonical architecture hash** and
//! memoizes the resulting latency/energy/memory triple in a sharded LRU,
//! so repeated candidates cost one hash lookup instead of a graph build
//! plus a simulator walk.
//!
//! Determinism: a cached value is the exact `f64` triple the simulator
//! produced for that key, so cache-on and cache-off searches are
//! bit-identical (asserted by the workspace determinism suite).

use crate::config::SystemConfig;
use crate::simulator::{SimReport, Simulator};
use h2o_graph::Graph;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;

// Reference FNV-1a. `h2o_exec::wire::fnv1a` multiplies by a different
// constant, so it cannot stand in without changing every cache key.
const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

fn fnv1a(hash: u64, byte: u8) -> u64 {
    (hash ^ byte as u64).wrapping_mul(FNV_PRIME)
}

fn fnv1a_u64(mut hash: u64, value: u64) -> u64 {
    for byte in value.to_le_bytes() {
        hash = fnv1a(hash, byte);
    }
    hash
}

/// Canonical hash of a sampled architecture within a named search space.
///
/// FNV-1a over the space name, the decision count, and every choice index
/// — so equal `(space, sample)` pairs always collide and any single-field
/// mutation (a different choice, a truncated sample, a different space)
/// changes the key with overwhelming probability. The property suite in
/// `crates/hwsim/tests/cache_props.rs` pins both directions.
pub fn arch_key(space: &str, sample: &[usize]) -> u64 {
    let mut hash = FNV_OFFSET;
    for byte in space.as_bytes() {
        hash = fnv1a(hash, *byte);
    }
    // Length before elements: distinguishes [1] in a 2-decision prefix
    // from [1, 0] even though FNV of the elements alone could agree.
    hash = fnv1a_u64(hash, sample.len() as u64);
    for &choice in sample {
        hash = fnv1a_u64(hash, choice as u64);
    }
    hash
}

/// Mixes an evaluation context (serving vs training, system size) into an
/// architecture key, so one cache can hold both cost kinds.
pub fn context_key(base: u64, tag: &str, chips: usize) -> u64 {
    let mut hash = base ^ 0x9e3779b97f4a7c15;
    for byte in tag.as_bytes() {
        hash = fnv1a(hash, *byte);
    }
    fnv1a_u64(hash, chips as u64)
}

/// The memoized cost of one evaluated architecture: the latency / energy /
/// memory triple the reward objectives consume, plus the parameter count
/// quality surrogates need (cached alongside so a hit also skips the graph
/// build).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct EvalCost {
    /// Critical-path execution time, seconds.
    pub latency: f64,
    /// Total dynamic + idle energy, joules.
    pub energy: f64,
    /// Memory traffic (HBM + CMEM), bytes.
    pub memory_bytes: f64,
    /// Trainable parameters of the evaluated graph.
    pub params: f64,
}

impl EvalCost {
    /// Extracts the cached cost triple from a simulation report.
    pub fn from_report(report: &SimReport) -> Self {
        Self {
            latency: report.time,
            energy: report.energy,
            memory_bytes: report.total_mem_bytes(),
            params: report.params,
        }
    }
}

/// Hit / miss / eviction counters of an [`EvalCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct CacheStats {
    /// Lookups that found the key.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries displaced by the LRU policy.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
}

impl CacheStats {
    /// Hits over total lookups, in `[0, 1]`; zero when nothing was looked
    /// up yet.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Entry {
    cost: EvalCost,
    last_used: u64,
}

struct Shard {
    map: BTreeMap<u64, Entry>,
    clock: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl Shard {
    fn new() -> Self {
        Self {
            map: BTreeMap::new(),
            clock: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }
}

struct Inner {
    shards: Vec<Mutex<Shard>>,
    capacity_per_shard: usize,
}

/// A sharded, memoizing LRU cache of [`EvalCost`] keyed by canonical
/// architecture hash.
///
/// Shards are selected by the key's top bits, so concurrent evaluators
/// contend on `1/shards` of the lock traffic. Cloning is cheap and shares
/// the underlying storage — hand one clone to every worker.
///
/// # Examples
///
/// ```
/// use h2o_hwsim::{arch_key, EvalCache, EvalCost};
///
/// let cache = EvalCache::new(1024);
/// let key = arch_key("dlrm", &[1, 2, 3]);
/// let cost = cache.get_or_insert_with(key, || EvalCost { latency: 1e-3, ..Default::default() });
/// assert_eq!(cache.get(key), Some(cost)); // hit
/// assert!(cache.stats().hits >= 1);
/// ```
#[derive(Clone)]
pub struct EvalCache {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for EvalCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EvalCache")
            .field("capacity", &self.capacity())
            .field("stats", &self.stats())
            .finish()
    }
}

const DEFAULT_SHARDS: usize = 16;

impl EvalCache {
    /// Creates a cache holding at most `capacity` entries across 16
    /// shards (fewer shards when `capacity < 16` so every shard holds at
    /// least one entry).
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        Self::with_shards(capacity, DEFAULT_SHARDS.min(capacity.max(1)))
    }

    /// Creates a cache with an explicit shard count.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0` or `shards == 0` or `capacity < shards`.
    pub fn with_shards(capacity: usize, shards: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        assert!(shards > 0, "need at least one shard");
        assert!(
            capacity >= shards,
            "capacity {capacity} must cover all {shards} shards"
        );
        Self {
            inner: Arc::new(Inner {
                shards: (0..shards).map(|_| Mutex::new(Shard::new())).collect(),
                capacity_per_shard: capacity / shards,
            }),
        }
    }

    fn shard_of(&self, key: u64) -> &Mutex<Shard> {
        // SplitMix64 finalizer: raw keys (tests, sequential ids) are as
        // well-spread across shards as FNV-hashed ones.
        let mut mixed = key;
        mixed = (mixed ^ (mixed >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        mixed = (mixed ^ (mixed >> 27)).wrapping_mul(0x94D049BB133111EB);
        mixed ^= mixed >> 31;
        let n = self.inner.shards.len() as u64;
        &self.inner.shards[(mixed % n) as usize]
    }

    /// Looks up a key, refreshing its recency on a hit.
    pub fn get(&self, key: u64) -> Option<EvalCost> {
        let mut shard = self.shard_of(key).lock();
        shard.clock += 1;
        let clock = shard.clock;
        match shard.map.get_mut(&key) {
            Some(entry) => {
                entry.last_used = clock;
                let cost = entry.cost;
                shard.hits += 1;
                h2o_obs::counter("h2o_hwsim_cache_hits_total").inc();
                Some(cost)
            }
            None => {
                shard.misses += 1;
                h2o_obs::counter("h2o_hwsim_cache_misses_total").inc();
                None
            }
        }
    }

    /// Inserts (or overwrites) a key, evicting the least-recently-used
    /// entry of its shard when that shard is full.
    pub fn insert(&self, key: u64, cost: EvalCost) {
        let mut shard = self.shard_of(key).lock();
        shard.clock += 1;
        let clock = shard.clock;
        if let Some(entry) = shard.map.get_mut(&key) {
            entry.cost = cost;
            entry.last_used = clock;
            return;
        }
        if shard.map.len() >= self.inner.capacity_per_shard {
            if let Some(&victim) = shard
                .map
                .iter()
                .min_by_key(|(_, entry)| entry.last_used)
                .map(|(key, _)| key)
            {
                shard.map.remove(&victim);
                shard.evictions += 1;
                h2o_obs::counter("h2o_hwsim_cache_evictions_total").inc();
            }
        }
        shard.map.insert(
            key,
            Entry {
                cost,
                last_used: clock,
            },
        );
    }

    /// Returns the cached cost for `key`, computing and inserting it on a
    /// miss. The computation runs **outside** the shard lock, so an
    /// expensive simulator walk never blocks other shardmates; two racing
    /// computations of the same key both produce the identical value, so
    /// the overwrite is benign.
    pub fn get_or_insert_with(&self, key: u64, compute: impl FnOnce() -> EvalCost) -> EvalCost {
        if let Some(cost) = self.get(key) {
            return cost;
        }
        let cost = compute();
        self.insert(key, cost);
        cost
    }

    /// Total entries across all shards.
    pub fn len(&self) -> usize {
        self.inner
            .shards
            .iter()
            .map(|shard| shard.lock().map.len())
            .sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum entries the cache can hold (capacity per shard × shards).
    pub fn capacity(&self) -> usize {
        self.inner.capacity_per_shard * self.inner.shards.len()
    }

    /// Aggregated hit / miss / eviction counters.
    pub fn stats(&self) -> CacheStats {
        let mut stats = CacheStats::default();
        for shard in &self.inner.shards {
            let shard = shard.lock();
            stats.hits += shard.hits;
            stats.misses += shard.misses;
            stats.evictions += shard.evictions;
            stats.entries += shard.map.len();
        }
        stats
    }
}

/// A [`Simulator`] facade that memoizes whole-graph evaluations through an
/// [`EvalCache`].
///
/// The caller supplies the canonical key (from [`arch_key`]) and a graph
/// *builder* rather than a graph — on a hit, neither the graph build nor
/// the simulator walk happens. Clones share the cache, so one
/// `CachedSimulator` per worker shard all feed the same memo table.
#[derive(Debug, Clone)]
pub struct CachedSimulator {
    sim: Simulator,
    cache: EvalCache,
}

impl CachedSimulator {
    /// Wraps a simulator with a shared cache.
    pub fn new(sim: Simulator, cache: EvalCache) -> Self {
        Self { sim, cache }
    }

    /// The wrapped simulator.
    pub fn simulator(&self) -> &Simulator {
        &self.sim
    }

    /// The shared cache (clone it to inspect stats elsewhere).
    pub fn cache(&self) -> &EvalCache {
        &self.cache
    }

    /// One timed evaluation through the cache: the `h2o_hwsim_evals_total`
    /// counter ticks per call, and wall time lands in
    /// `h2o_hwsim_eval_seconds{result="hit"|"miss"}` so the hit/miss
    /// latency gap (hash lookup vs graph build + simulator walk) is
    /// visible in snapshots. Instruments are looked up per call — a
    /// `CachedSimulator` may outlive a registry reset, and a cached handle
    /// would silently drop out of snapshots. Like
    /// [`EvalCache::get_or_insert_with`], the miss computation runs
    /// outside the shard lock; racing misses recompute the identical value.
    fn timed_eval(&self, ck: u64, compute: impl FnOnce() -> EvalCost) -> EvalCost {
        let watch = h2o_obs::Stopwatch::start();
        h2o_obs::counter("h2o_hwsim_evals_total").inc();
        if let Some(cost) = self.cache.get(ck) {
            h2o_obs::histogram("h2o_hwsim_eval_seconds{result=\"hit\"}")
                .record(watch.elapsed_secs());
            return cost;
        }
        let cost = compute();
        self.cache.insert(ck, cost);
        h2o_obs::histogram("h2o_hwsim_eval_seconds{result=\"miss\"}").record(watch.elapsed_secs());
        cost
    }

    /// Memoized training-step cost of the architecture identified by
    /// `key`. `build` runs only on a miss.
    pub fn training_cost(
        &self,
        key: u64,
        system: &SystemConfig,
        build: impl FnOnce() -> Graph,
    ) -> EvalCost {
        self.timed_eval(context_key(key, "train", system.chips), || {
            EvalCost::from_report(&self.sim.simulate_training(&build(), system))
        })
    }

    /// Memoized serving (single forward pass) cost of the architecture
    /// identified by `key`. `build` runs only on a miss.
    pub fn serving_cost(&self, key: u64, build: impl FnOnce() -> Graph) -> EvalCost {
        self.timed_eval(context_key(key, "serve", 1), || {
            EvalCost::from_report(&self.sim.simulate(&build()))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HardwareConfig;
    use h2o_graph::{DType, OpKind};

    fn cost(latency: f64) -> EvalCost {
        EvalCost {
            latency,
            ..Default::default()
        }
    }

    #[test]
    fn equal_samples_equal_keys() {
        assert_eq!(arch_key("cnn", &[1, 2, 3]), arch_key("cnn", &[1, 2, 3]));
        assert_ne!(arch_key("cnn", &[1, 2, 3]), arch_key("vit", &[1, 2, 3]));
        assert_ne!(arch_key("cnn", &[1, 2, 3]), arch_key("cnn", &[1, 2, 4]));
        assert_ne!(arch_key("cnn", &[1, 2]), arch_key("cnn", &[1, 2, 0]));
    }

    #[test]
    fn context_key_separates_training_from_serving() {
        let base = arch_key("dlrm", &[0, 1]);
        assert_ne!(
            context_key(base, "train", 128),
            context_key(base, "serve", 1)
        );
        assert_ne!(
            context_key(base, "train", 1),
            context_key(base, "train", 128)
        );
    }

    #[test]
    fn hit_returns_inserted_value_and_counts() {
        let cache = EvalCache::new(8);
        let key = arch_key("s", &[1]);
        assert_eq!(cache.get(key), None);
        cache.insert(key, cost(1.0));
        assert_eq!(cache.get(key), Some(cost(1.0)));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn reinsert_overwrites() {
        let cache = EvalCache::new(8);
        cache.insert(7, cost(1.0));
        cache.insert(7, cost(2.0));
        assert_eq!(cache.get(7), Some(cost(2.0)));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn lru_evicts_oldest_within_a_shard() {
        // Single shard: recency order is global.
        let cache = EvalCache::with_shards(2, 1);
        cache.insert(1, cost(1.0));
        cache.insert(2, cost(2.0));
        cache.get(1); // refresh 1 → 2 is now LRU
        cache.insert(3, cost(3.0));
        assert_eq!(cache.get(2), None, "LRU entry evicted");
        assert_eq!(cache.get(1), Some(cost(1.0)));
        assert_eq!(cache.get(3), Some(cost(3.0)));
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn cached_simulator_skips_rebuilds_on_hits() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let builds = AtomicUsize::new(0);
        let cached =
            CachedSimulator::new(Simulator::new(HardwareConfig::tpu_v4()), EvalCache::new(64));
        let build = || {
            builds.fetch_add(1, Ordering::SeqCst);
            let mut g = Graph::new("g", DType::Bf16);
            g.add(
                OpKind::MatMul {
                    m: 256,
                    k: 256,
                    n: 256,
                },
                &[],
            );
            g
        };
        let key = arch_key("bench", &[4, 2]);
        let first = cached.serving_cost(key, build);
        let second = cached.serving_cost(key, build);
        assert_eq!(first, second, "hit returns the exact memoized triple");
        assert_eq!(builds.load(Ordering::SeqCst), 1, "graph built only once");
        assert!(first.latency > 0.0 && first.energy > 0.0);
    }

    #[test]
    fn training_and_serving_costs_do_not_collide() {
        let cached =
            CachedSimulator::new(Simulator::new(HardwareConfig::tpu_v4()), EvalCache::new(64));
        let build = || {
            let mut g = Graph::new("g", DType::Bf16);
            g.add(
                OpKind::MatMul {
                    m: 512,
                    k: 512,
                    n: 512,
                },
                &[],
            );
            g
        };
        let key = arch_key("bench", &[1]);
        let train = cached.training_cost(key, &SystemConfig::single(64), build);
        let serve = cached.serving_cost(key, build);
        assert!(train.latency > serve.latency, "training ≈ 3× forward work");
    }

    #[test]
    fn timed_eval_splits_hit_and_miss_latency() {
        let cached =
            CachedSimulator::new(Simulator::new(HardwareConfig::tpu_v4()), EvalCache::new(64));
        let build = || {
            let mut g = Graph::new("g", DType::Bf16);
            g.add(
                OpKind::MatMul {
                    m: 128,
                    k: 128,
                    n: 128,
                },
                &[],
            );
            g
        };
        let key = arch_key("timed", &[9, 9]);
        cached.serving_cost(key, build); // miss
        cached.serving_cost(key, build); // hit
                                         // The registry is global and other tests in this binary may touch
                                         // the same series, so assert floors rather than exact counts.
        let snap = h2o_obs::snapshot();
        assert!(snap.counters["h2o_hwsim_evals_total"] >= 2);
        assert!(snap.histograms["h2o_hwsim_eval_seconds{result=\"miss\"}"].count >= 1);
        assert!(snap.histograms["h2o_hwsim_eval_seconds{result=\"hit\"}"].count >= 1);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        EvalCache::new(0);
    }
}
