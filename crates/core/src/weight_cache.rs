//! The service-wide weight-block cache behind cold-start streaming.
//!
//! Every artifact object a streamed cold launch fetches from object
//! storage lands here, keyed by its full object key
//! (`{model}/p{P}/w{m}/…`), so pool growth and repeated cold starts of
//! the same shape skip the GETs entirely: a cached block is resident
//! process memory, delivered with zero transfer latency and zero billing
//! (decode work is still charged, so outputs and work totals stay
//! bit-identical to an independent load). The cache is consulted **only
//! by streaming-mode loads** — with `EngineConfig::stream_weights` off,
//! nothing reads or writes it, which keeps the committed non-streaming
//! baselines bit-stable.
//!
//! [`WeightCache::invalidate`] bumps the generation and empties the map in
//! one critical section, so a stale block is never resident; a load that
//! started under the old generation loses its insert rights (it passes its
//! starting generation back to [`WeightCache::insert_block`]), so a load
//! straddling an invalidation cannot write stale blocks back.
//! `FsdService::invalidate_warm_trees` wires it to the warm-pool
//! generation bump — re-staged model weights must never be served from a
//! stale cache, exactly as they must never be served by a stale warm tree.
//!
//! The counters ([`WeightCacheStats`]) live beside the map under the same
//! lock, so each operation counts itself in the critical section it
//! already takes.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// The block map, its generation and its counters, under one lock so an
/// insert can never race an invalidation: the generation is compared and
/// the map mutated in one critical section.
#[derive(Default)]
struct BlockMap {
    generation: u64,
    blocks: HashMap<String, Arc<[u8]>>,
    stats: WeightCacheStats,
}

/// The counters of one [`WeightCache`] (diagnostics/tests/benches).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WeightCacheStats {
    /// Lookups served from a resident block.
    pub hits: u64,
    /// Lookups that found nothing resident.
    pub misses: u64,
    /// Blocks accepted by [`WeightCache::insert_block`].
    pub inserts: u64,
    /// Inserts rejected because their load began under a generation that
    /// was retired mid-load.
    pub stale_rejected: u64,
    /// Blocks removed by [`WeightCache::evict_block`] or an invalidation.
    pub evicted: u64,
}

/// Process-wide shared weight-block cache (see the module docs).
#[derive(Default)]
pub struct WeightCache {
    map: Mutex<BlockMap>,
}

impl WeightCache {
    /// An empty cache at generation 0.
    pub fn new() -> WeightCache {
        WeightCache::default()
    }

    /// The live generation. Loads capture it once at load start and pass
    /// it back to [`WeightCache::insert_block`], so a load that straddles
    /// an invalidation can never repopulate the cache with blocks fetched
    /// for retired artifacts.
    pub fn generation(&self) -> u64 {
        self.map.lock().generation
    }

    /// Looks `key` up. Counts a hit or a miss.
    pub fn lookup(&self, key: &str) -> Option<Arc<[u8]>> {
        let mut map = self.map.lock();
        let found = map.blocks.get(key).cloned();
        match found {
            Some(_) => map.stats.hits += 1,
            None => map.stats.misses += 1,
        }
        found
    }

    /// Inserts a fetched block under the generation its load captured at
    /// start. Returns `false` (and drops the block) when that generation
    /// has since been retired — the concurrent-invalidation case.
    pub fn insert_block(&self, key: &str, body: Arc<[u8]>, generation: u64) -> bool {
        let mut map = self.map.lock();
        if generation != map.generation {
            map.stats.stale_rejected += 1;
            return false;
        }
        map.blocks.insert(key.to_string(), body);
        map.stats.inserts += 1;
        true
    }

    /// Evicts one block (teardown twin of [`WeightCache::insert_block`]).
    /// Returns whether a block was resident.
    // fsd_lint::allow(orphan-pub): the teardown twin teardown-pair demands of insert_block
    pub fn evict_block(&self, key: &str) -> bool {
        let mut map = self.map.lock();
        let existed = map.blocks.remove(key).is_some();
        map.stats.evicted += u64::from(existed);
        existed
    }

    /// Bumps the generation — every in-flight load loses its insert
    /// rights — and drops every resident block, in one critical section.
    /// Returns how many blocks were dropped.
    pub fn invalidate(&self) -> usize {
        let mut map = self.map.lock();
        map.generation += 1;
        let dropped = map.blocks.len();
        map.blocks.clear();
        map.stats.evicted += dropped as u64;
        dropped
    }

    /// Blocks currently resident.
    pub fn len(&self) -> usize {
        self.map.lock().blocks.len()
    }

    /// Whether the cache holds no blocks at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counter snapshot.
    pub fn stats(&self) -> WeightCacheStats {
        self.map.lock().stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn body(s: &str) -> Arc<[u8]> {
        Arc::from(s.as_bytes())
    }

    #[test]
    fn insert_lookup_evict_roundtrip() {
        let cache = WeightCache::new();
        let generation = cache.generation();
        assert!(cache.lookup("model/p4/w0/L0").is_none());
        assert!(cache.insert_block("model/p4/w0/L0", body("w"), generation));
        let hit = cache.lookup("model/p4/w0/L0").expect("cached");
        assert_eq!(&hit[..], b"w");
        assert!(cache.evict_block("model/p4/w0/L0"));
        assert!(!cache.evict_block("model/p4/w0/L0"));
        let stats = cache.stats();
        assert_eq!(
            (stats.hits, stats.misses, stats.inserts, stats.evicted),
            (1, 1, 1, 1)
        );
    }

    #[test]
    fn invalidation_empties_the_cache() {
        let cache = WeightCache::new();
        let generation = cache.generation();
        assert!(cache.insert_block("k", body("old"), generation));
        assert_eq!(cache.invalidate(), 1);
        assert!(cache.lookup("k").is_none(), "invalidated blocks never hit");
        assert!(cache.is_empty());
        // The new generation serves fresh inserts normally.
        assert!(cache.insert_block("k", body("new"), cache.generation()));
        assert_eq!(&cache.lookup("k").expect("fresh")[..], b"new");
    }

    #[test]
    fn straddling_load_cannot_repopulate_after_invalidate() {
        let cache = WeightCache::new();
        let load_started_under = cache.generation();
        cache.invalidate();
        assert!(
            !cache.insert_block("k", body("torn"), load_started_under),
            "inserts tagged with a retired generation must be rejected"
        );
        assert!(cache.is_empty());
        assert_eq!(cache.stats().stale_rejected, 1);
    }

    #[test]
    fn concurrent_inserts_and_invalidates_stay_consistent() {
        let cache = Arc::new(WeightCache::new());
        let writers: Vec<_> = (0..4)
            .map(|w| {
                let cache = cache.clone();
                std::thread::spawn(move || {
                    for i in 0..200 {
                        let generation = cache.generation();
                        cache.insert_block(&format!("w{w}/k{i}"), body("b"), generation);
                        cache.lookup(&format!("w{w}/k{i}"));
                    }
                })
            })
            .collect();
        let invalidator = {
            let cache = cache.clone();
            std::thread::spawn(move || {
                for _ in 0..50 {
                    cache.invalidate();
                }
            })
        };
        for handle in writers {
            handle.join().expect("writer");
        }
        invalidator.join().expect("invalidator");
        cache.invalidate();
        assert!(cache.is_empty(), "final invalidate leaves nothing resident");
    }
}
