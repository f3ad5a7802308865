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
//! Invalidation is generation-tagged: [`WeightCache::retire_generation`]
//! bumps the live generation (every resident block becomes stale and
//! invisible to lookups, and in-flight loads that started under the old
//! generation can no longer insert), and [`WeightCache::purge_stale`]
//! sweeps the stale blocks out. [`WeightCache::invalidate`] does both,
//! and `FsdService::invalidate_warm_trees` wires it to the warm-pool
//! generation bump — re-staged model weights must never be served from a
//! stale cache, exactly as they must never be served by a stale warm
//! tree. A retire *without* a purge leaves stale blocks resident; the
//! residue audit ([`WeightCache::residue_report`]) flags them as leaks.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The generation-tagged block map. Generation lives under the same lock
/// as the blocks so an insert can never race an invalidation: a tag is
/// compared and the map mutated in one critical section.
struct BlockMap {
    generation: u64,
    blocks: HashMap<String, CachedBlock>,
}

struct CachedBlock {
    body: Arc<[u8]>,
    generation: u64,
}

/// Counter snapshot of one [`WeightCache`] (diagnostics/tests/benches).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WeightCacheStats {
    /// Lookups served from a live (current-generation) block.
    pub hits: u64,
    /// Lookups that found nothing live.
    pub misses: u64,
    /// Blocks accepted by [`WeightCache::insert_block`].
    pub inserts: u64,
    /// Inserts rejected because their load began under a generation that
    /// was retired mid-load.
    pub stale_rejected: u64,
    /// Blocks removed by [`WeightCache::evict_block`] or a stale sweep.
    pub evicted: u64,
}

/// Process-wide shared weight-block cache (see the module docs).
pub struct WeightCache {
    map: Mutex<BlockMap>,
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
    stale_rejected: AtomicU64,
    evicted: AtomicU64,
}

impl Default for WeightCache {
    fn default() -> Self {
        WeightCache::new()
    }
}

impl WeightCache {
    /// An empty cache at generation 0.
    pub fn new() -> WeightCache {
        WeightCache {
            map: Mutex::new(BlockMap {
                generation: 0,
                blocks: HashMap::new(),
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            stale_rejected: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
        }
    }

    /// The live generation. Loads capture it once at load start and pass
    /// it back to [`WeightCache::insert_block`], so a load that straddles
    /// an invalidation can never repopulate the cache with blocks fetched
    /// for retired artifacts.
    pub fn generation(&self) -> u64 {
        self.map.lock().generation
    }

    /// Looks `key` up, returning the block only if it is live (tagged with
    /// the current generation). Counts a hit or a miss.
    pub fn lookup(&self, key: &str) -> Option<Arc<[u8]>> {
        let map = self.map.lock();
        match map.blocks.get(key) {
            Some(block) if block.generation == map.generation => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(block.body.clone())
            }
            _ => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts a fetched block under the generation its load captured at
    /// start. Returns `false` (and drops the block) when that generation
    /// has since been retired — the concurrent-invalidation case.
    pub fn insert_block(&self, key: &str, body: Arc<[u8]>, generation: u64) -> bool {
        let mut map = self.map.lock();
        if generation != map.generation {
            self.stale_rejected.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        map.blocks
            .insert(key.to_string(), CachedBlock { body, generation });
        self.inserts.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Evicts one block regardless of generation (teardown twin of
    /// [`WeightCache::insert_block`]). Returns whether a block was
    /// resident.
    pub fn evict_block(&self, key: &str) -> bool {
        let mut map = self.map.lock();
        let existed = map.blocks.remove(key).is_some();
        if existed {
            self.evicted.fetch_add(1, Ordering::Relaxed);
        }
        existed
    }

    /// Bumps the live generation: every resident block becomes stale
    /// (invisible to lookups) and every in-flight load loses its insert
    /// rights. Callers must follow with [`WeightCache::purge_stale`] —
    /// the two are split so the residue audit can detect a retire whose
    /// sweep was forgotten. Returns the new generation.
    pub fn retire_generation(&self) -> u64 {
        let mut map = self.map.lock();
        map.generation += 1;
        map.generation
    }

    /// Sweeps out every stale block. Returns how many were dropped.
    pub fn purge_stale(&self) -> usize {
        let mut map = self.map.lock();
        let generation = map.generation;
        let before = map.blocks.len();
        map.blocks.retain(|_, b| b.generation == generation);
        let dropped = before - map.blocks.len();
        self.evicted.fetch_add(dropped as u64, Ordering::Relaxed);
        dropped
    }

    /// Full invalidation: retire the generation, then sweep. Returns how
    /// many blocks were dropped.
    pub fn invalidate(&self) -> usize {
        self.retire_generation();
        self.purge_stale()
    }

    /// Blocks currently resident (live and stale).
    pub fn len(&self) -> usize {
        self.map.lock().blocks.len()
    }

    /// Whether the cache holds no blocks at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Leak audit: stale-generation blocks still resident, as
    /// human-readable descriptions. Empty means clean — after an
    /// [`WeightCache::invalidate`] nothing stale may linger; a non-empty
    /// report means a retire ran without its sweep (or a block was planted
    /// behind the cache's back).
    pub fn residue_report(&self) -> Vec<String> {
        let map = self.map.lock();
        let generation = map.generation;
        let mut stale: Vec<&String> = map
            .blocks
            .iter()
            .filter(|(_, b)| b.generation != generation)
            .map(|(k, _)| k)
            .collect();
        stale.sort();
        stale
            .into_iter()
            .map(|k| format!("stale weight-cache block `{k}`"))
            .collect()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> WeightCacheStats {
        WeightCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            stale_rejected: self.stale_rejected.load(Ordering::Relaxed),
            evicted: self.evicted.load(Ordering::Relaxed),
        }
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
    fn invalidation_hides_and_sweeps_old_generations() {
        let cache = WeightCache::new();
        let generation = cache.generation();
        assert!(cache.insert_block("k", body("old"), generation));
        assert_eq!(cache.invalidate(), 1);
        assert!(cache.lookup("k").is_none(), "stale blocks never hit");
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
    fn residue_audit_flags_retire_without_sweep() {
        let cache = WeightCache::new();
        assert!(cache.insert_block("model/p4/w1/L2", body("x"), cache.generation()));
        assert!(cache.residue_report().is_empty());
        cache.retire_generation();
        let residue = cache.residue_report();
        assert_eq!(residue.len(), 1);
        assert!(residue[0].contains("model/p4/w1/L2"), "{residue:?}");
        assert_eq!(cache.purge_stale(), 1);
        assert!(cache.residue_report().is_empty());
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
        assert!(cache.is_empty(), "final invalidate leaves nothing live");
        assert!(cache.residue_report().is_empty());
    }
}
