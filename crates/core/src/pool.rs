//! The warm-tree pool: checkout/checkin of parked [`WorkerTree`]s.
//!
//! Trees are shelved by [`TreeKey`] `(variant, P, memory)`. A request of a
//! matching shape checks the most-recently-parked tree out (LIFO keeps the
//! hottest tree in use), runs, and checks it back in at teardown; a miss
//! falls back to a cold launch that creates the tree the checkin then
//! parks. The shelf is bounded (`max_trees`) — a checkin that would
//! overflow it evicts a parked tree of the **least-recently-used shape**
//! to make room (the incoming tree is always the hottest, so it parks) —
//! and parked trees age out after `idle_ttl` pool ticks.
//!
//! **Time base.** Requests run on private virtual timelines, so there is
//! no global virtual "now" to age idle trees against. The pool instead
//! counts **ticks**: every checkout attempt advances the pool clock by
//! one. `idle_ttl` is therefore "evict a tree that sat out this many
//! subsequent *distributed* requests" — Serial requests run no tree,
//! never reach the pool, and do not age the shelf. Tick counting is
//! deterministic under a deterministic request sequence — the property
//! every load-replay test relies on.
//!
//! **Invalidation.** [`TreePool::invalidate`] bumps the pool generation;
//! parked trees from older generations are shut down lazily at the next
//! pool operation (and eagerly by `invalidate` itself). Call it when the
//! model's staged artifacts change — a warm tree keeps its weights
//! resident, so it must never serve a request for newer weights.

use crate::warm::{TreeKey, WorkerTree};
use fsd_faas::lockorder;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Builder-facing pool configuration.
#[derive(Debug, Clone, Copy)]
pub struct WarmPoolConfig {
    /// Maximum parked (idle) trees across all shapes; `0` disables the
    /// pool entirely.
    pub max_trees: usize,
    /// Idle ticks (subsequent checkout attempts) after which a parked tree
    /// is evicted. `u64::MAX` never evicts.
    pub idle_ttl: u64,
}

impl WarmPoolConfig {
    /// A shelf of `max_trees` whose trees age out after `idle_ttl` ticks.
    pub fn new(max_trees: usize, idle_ttl: u64) -> WarmPoolConfig {
        WarmPoolConfig {
            max_trees,
            idle_ttl,
        }
    }

    /// Sizes a pool for a predicted workload of `shapes` distinct request
    /// shapes bursting up to `burst_depth` requests deep: the shelf holds
    /// one full burst of every shape simultaneously, and the tick TTL
    /// spans four shelf turnovers so a shape survives the other shapes'
    /// bursts between its own. This is the sizing
    /// `ServiceBuilder::auto_warm_pool` and the `sched` predictor share.
    pub fn auto(shapes: usize, burst_depth: usize) -> WarmPoolConfig {
        let max_trees = (shapes * burst_depth).max(1);
        WarmPoolConfig::new(max_trees, 4 * max_trees as u64)
    }
}

/// Point-in-time pool counters (all monotonic except `idle`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WarmPoolStats {
    /// Checkouts that found a matching parked tree.
    pub hits: u64,
    /// Checkouts that found none (the request cold-launches).
    pub misses: u64,
    /// Trees created (cold launches + pre-warms) and offered to the pool.
    pub created: u64,
    /// Parked trees evicted by the idle tick-TTL.
    pub evicted_ttl: u64,
    /// Parked trees of the least-recently-used shape evicted to make room
    /// for a checkin on a full shelf.
    pub evicted_lru: u64,
    /// Parked trees evicted by an explicit per-shape eviction (predictor
    /// decisions, `FsdService::evict_warm_trees`).
    pub evicted_shape: u64,
    /// Parked trees dropped by a generation bump.
    pub evicted_stale: u64,
    /// Poisoned trees discarded at checkin (a worker died).
    pub discarded_poisoned: u64,
    /// Currently parked trees.
    pub idle: usize,
}

struct Parked {
    tree: WorkerTree,
    parked_at_tick: u64,
}

#[derive(Default)]
struct Counters {
    hits: u64,
    misses: u64,
    created: u64,
    evicted_ttl: u64,
    evicted_lru: u64,
    evicted_shape: u64,
    evicted_stale: u64,
    discarded_poisoned: u64,
}

/// The pool itself; owned by the service, shared by all request threads.
pub(crate) struct TreePool {
    cfg: WarmPoolConfig,
    tick: AtomicU64,
    generation: AtomicU64,
    shelf: Mutex<Vec<Parked>>,
    /// Trees currently checked out (or cold-launched for a request),
    /// per shape — the predictor counts these toward a shape's standing
    /// so a burst's own checkouts don't trigger redundant pre-warms.
    in_use: Mutex<HashMap<TreeKey, usize>>,
    counters: Mutex<Counters>,
}

impl TreePool {
    pub(crate) fn new(cfg: WarmPoolConfig) -> TreePool {
        TreePool {
            cfg,
            tick: AtomicU64::new(0),
            generation: AtomicU64::new(0),
            shelf: Mutex::new(Vec::new()),
            in_use: Mutex::new(HashMap::new()),
            counters: Mutex::new(Counters::default()),
        }
    }

    /// The current pool generation (new trees must carry it).
    pub(crate) fn generation(&self) -> u64 {
        self.generation.load(Ordering::Relaxed)
    }

    /// Checks a matching tree out (most recently parked first). Returns
    /// `None` on a miss — the caller cold-launches and later checks the
    /// new tree in.
    pub(crate) fn checkout(&self, key: TreeKey) -> Option<WorkerTree> {
        let now_tick = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
        let generation = self.generation();
        let mut expired: Vec<WorkerTree> = Vec::new();
        let picked = {
            let _shelf_ord = lockorder::acquire(lockorder::rank::POOL_SHELF, "pool.shelf");
            let mut shelf = self.shelf.lock();
            let _counters_ord = lockorder::acquire(lockorder::rank::POOL_COUNTERS, "pool.counters");
            let mut counters = self.counters.lock();
            // Age out stale / expired trees first, keeping the survivors.
            let mut survivors: Vec<Parked> = Vec::with_capacity(shelf.len());
            for parked in shelf.drain(..) {
                if parked.tree.generation() != generation {
                    counters.evicted_stale += 1;
                    expired.push(parked.tree);
                } else if now_tick.saturating_sub(parked.parked_at_tick) > self.cfg.idle_ttl {
                    counters.evicted_ttl += 1;
                    expired.push(parked.tree);
                } else {
                    survivors.push(parked);
                }
            }
            *shelf = survivors;
            let found = shelf.iter().rposition(|p| p.tree.key() == key);
            match found {
                Some(i) => {
                    counters.hits += 1;
                    Some(shelf.remove(i).tree)
                }
                None => {
                    counters.misses += 1;
                    None
                }
            }
        };
        for mut tree in expired {
            tree.shutdown();
        }
        if picked.is_some() {
            *self.in_use.lock().entry(key).or_insert(0) += 1;
        }
        picked
    }

    /// Records a newly created tree (cold launch or pre-warm).
    pub(crate) fn record_created(&self) {
        self.counters.lock().created += 1;
    }

    /// Marks a cold-launched request tree as in service for its shape
    /// (checked-out trees are marked by `checkout` itself).
    pub(crate) fn note_in_use(&self, key: TreeKey) {
        *self.in_use.lock().entry(key).or_insert(0) += 1;
    }

    /// Drops one in-service mark for `key` (checkin or discard).
    /// Saturating: a build-time pre-warm's checkin has no matching mark.
    fn release_in_use(&self, key: TreeKey) {
        let mut in_use = self.in_use.lock();
        if let Some(n) = in_use.get_mut(&key) {
            *n -= 1;
            if *n == 0 {
                in_use.remove(&key);
            }
        }
    }

    /// Returns a tree to the shelf — or shuts it down if it is poisoned or
    /// stale. A full shelf no longer rejects the newcomer: a parked tree
    /// of the least-recently-used *shape* is evicted to make room, because
    /// the tree being checked in just served traffic and is therefore the
    /// hottest tree of its shape.
    pub(crate) fn checkin(&self, mut tree: WorkerTree) {
        self.release_in_use(tree.key());
        if tree.is_poisoned() {
            self.counters.lock().discarded_poisoned += 1;
            tree.shutdown();
            return;
        }
        if tree.generation() != self.generation() {
            let _counters_ord = lockorder::acquire(lockorder::rank::POOL_COUNTERS, "pool.counters");
            self.counters.lock().evicted_stale += 1;
            tree.shutdown();
            return;
        }
        let parked_at_tick = self.tick.load(Ordering::Relaxed);
        let victim = {
            let _shelf_ord = lockorder::acquire(lockorder::rank::POOL_SHELF, "pool.shelf");
            let mut shelf = self.shelf.lock();
            let victim = if shelf.len() >= self.cfg.max_trees {
                let i = Self::lru_shape_victim(&shelf);
                let _counters_ord =
                    lockorder::acquire(lockorder::rank::POOL_COUNTERS, "pool.counters");
                self.counters.lock().evicted_lru += 1;
                Some(shelf.remove(i).tree)
            } else {
                None
            };
            shelf.push(Parked {
                tree,
                parked_at_tick,
            });
            victim
        };
        if let Some(mut victim) = victim {
            victim.shutdown();
        }
    }

    /// Index of the oldest parked tree of the least-recently-used shape.
    ///
    /// The shelf is ordered by checkin time, so a shape's *last* index is
    /// its most recent use; the shape whose last use is earliest is the
    /// LRU shape, and its first (oldest) tree is the victim.
    fn lru_shape_victim(shelf: &[Parked]) -> usize {
        let victim_key = shelf
            .iter()
            .map(|p| p.tree.key())
            .min_by_key(|&key| {
                shelf
                    .iter()
                    .rposition(|p| p.tree.key() == key)
                    .expect("key taken from the shelf")
            })
            .expect("checkin on a full shelf implies max_trees >= 1");
        shelf
            .iter()
            .position(|p| p.tree.key() == victim_key)
            .expect("victim shape is on the shelf")
    }

    /// Discards a tree without parking it (failed request teardown).
    pub(crate) fn discard(&self, mut tree: WorkerTree) {
        self.release_in_use(tree.key());
        if tree.is_poisoned() {
            self.counters.lock().discarded_poisoned += 1;
        }
        tree.shutdown();
    }

    /// Parked trees currently matching `key` (predictor sizing input).
    pub(crate) fn idle_of(&self, key: TreeKey) -> usize {
        let generation = self.generation();
        self.shelf
            .lock()
            .iter()
            .filter(|p| p.tree.key() == key && p.tree.generation() == generation)
            .count()
    }

    /// Trees of shape `key` that exist at all — parked or serving a
    /// request right now. The predictor tops a shape up to its burst
    /// target against *this* count, so checkouts by the burst's own
    /// requests don't look like missing capacity.
    pub(crate) fn live_of(&self, key: TreeKey) -> usize {
        self.idle_of(key) + self.in_use.lock().get(&key).copied().unwrap_or(0)
    }

    /// Evicts every parked tree of shape `key` (predictor decisions).
    /// Returns how many trees were dropped.
    pub(crate) fn evict_shape(&self, key: TreeKey) -> usize {
        let drained: Vec<WorkerTree> = {
            let _shelf_ord = lockorder::acquire(lockorder::rank::POOL_SHELF, "pool.shelf");
            let mut shelf = self.shelf.lock();
            let mut kept = Vec::with_capacity(shelf.len());
            let mut evicted = Vec::new();
            for parked in shelf.drain(..) {
                if parked.tree.key() == key {
                    evicted.push(parked.tree);
                } else {
                    kept.push(parked);
                }
            }
            *shelf = kept;
            let _counters_ord = lockorder::acquire(lockorder::rank::POOL_COUNTERS, "pool.counters");
            self.counters.lock().evicted_shape += evicted.len() as u64;
            evicted
        };
        let n = drained.len();
        for mut tree in drained {
            tree.shutdown();
        }
        n
    }

    /// Bumps the generation and eagerly shuts every parked tree down.
    /// Returns how many trees were dropped.
    pub(crate) fn invalidate(&self) -> usize {
        self.generation.fetch_add(1, Ordering::Relaxed);
        let drained: Vec<Parked> = std::mem::take(&mut *self.shelf.lock());
        let n = drained.len();
        self.counters.lock().evicted_stale += n as u64;
        for mut parked in drained {
            parked.tree.shutdown();
        }
        n
    }

    /// Arms the kill switch of `rank` on one parked tree of shape `key`
    /// (failure injection / chaos hook). Returns whether a tree matched.
    pub(crate) fn arm_kill(&self, key: TreeKey, rank: u32) -> bool {
        let shelf = self.shelf.lock();
        match shelf.iter().rev().find(|p| p.tree.key() == key) {
            Some(parked) => {
                parked.tree.kill_worker(rank);
                true
            }
            None => false,
        }
    }

    /// Point-in-time counters.
    pub(crate) fn stats(&self) -> WarmPoolStats {
        // Lock order: shelf before counters, matching `checkout` — enforced
        // by the debug-assertions lockorder registry.
        let idle = {
            let _shelf_ord = lockorder::acquire(lockorder::rank::POOL_SHELF, "pool.shelf");
            self.shelf.lock().len()
        };
        let _counters_ord = lockorder::acquire(lockorder::rank::POOL_COUNTERS, "pool.counters");
        let counters = self.counters.lock();
        WarmPoolStats {
            hits: counters.hits,
            misses: counters.misses,
            created: counters.created,
            evicted_ttl: counters.evicted_ttl,
            evicted_lru: counters.evicted_lru,
            evicted_shape: counters.evicted_shape,
            evicted_stale: counters.evicted_stale,
            discarded_poisoned: counters.discarded_poisoned,
            idle,
        }
    }
}

impl Drop for TreePool {
    fn drop(&mut self) {
        let drained: Vec<Parked> = std::mem::take(&mut *self.shelf.lock());
        for parked in drained {
            // WorkerTree::drop shuts the instances down.
            drop(parked);
        }
    }
}
