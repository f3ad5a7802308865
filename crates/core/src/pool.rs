//! The warm-tree pool: checkout/checkin of parked [`WorkerTree`]s.
//!
//! Trees are shelved by [`TreeKey`] `(variant, P, memory)`. A request of a
//! matching shape checks the most-recently-parked tree out (LIFO keeps the
//! hottest tree in use), runs, and checks it back in at teardown; a miss
//! falls back to a cold launch that creates the tree the checkin then
//! parks. The shelf is bounded (`max_trees`) — a checkin that would
//! overflow it evicts a parked tree of the **least-recently-used shape**
//! to make room (the incoming tree is always the hottest, so it parks) —
//! and parked trees age out after `idle_ttl` pool ticks. Every service
//! has a pool: one built without `warm_pool`, or with `max_trees = 0`, has
//! a shelf that holds no trees, so every checkout misses and every checkin
//! retires the tree.
//!
//! **Retirement.** A tree is shut down one way: it is dropped, and its
//! `Drop` joins every instance. Whatever leaves the shelf — a poisoned or
//! stale checkin, a checkin to a shelf that holds no trees, an LRU, TTL,
//! shape or stale eviction — is dropped after the shelf lock is released.
//!
//! **Time base.** Requests run on private virtual timelines, so there is
//! no global virtual "now" to age idle trees against. The pool instead
//! counts **ticks**: every checkout attempt advances the pool clock by
//! one. `idle_ttl` is therefore "evict a tree that sat out this many
//! subsequent requests" — Serial ones included, since a Serial request
//! checks out its one-rank tree like any other. Tick counting is
//! deterministic under a deterministic request sequence — the property
//! every load-replay test relies on.
//!
//! **Live trees.** Every launched tree carries a [`Live`] guard from
//! [`TreePool::record_created`] until it drops, so a shape's live count —
//! parked or serving — is kept by the trees themselves, under a lock of
//! its own that a dropping tree takes outside the shelf lock.
//!
//! **Invalidation.** [`TreePool::invalidate`] bumps the pool generation
//! and drops every parked tree; a tree in service at the bump is dropped
//! at its checkin instead of parked. Call it when the model's
//! staged artifacts change — a warm tree keeps its weights resident, so it
//! must never serve a request for newer weights.

use crate::warm::{TreeKey, WorkerTree};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// Builder-facing pool configuration.
#[derive(Debug, Clone, Copy)]
pub struct WarmPoolConfig {
    /// Maximum parked (idle) trees across all shapes; `0` is a shelf that
    /// holds no trees, so every tree is retired after its request.
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
    /// Both products saturate, so an oversized prediction means an
    /// unbounded shelf that never ages out, never a wrapped small one.
    pub fn auto(shapes: usize, burst_depth: usize) -> WarmPoolConfig {
        let max_trees = shapes.saturating_mul(burst_depth).max(1);
        WarmPoolConfig::new(max_trees, (max_trees as u64).saturating_mul(4))
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
    /// Poisoned trees retired at checkin (a worker died).
    pub discarded_poisoned: u64,
    /// Currently parked trees.
    pub idle: usize,
}

struct Parked {
    tree: WorkerTree,
    parked_at_tick: u64,
}

/// The shelf, the tick clock and the counters, under the shelf lock.
#[derive(Default)]
struct PoolState {
    tick: u64,
    generation: u64,
    shelf: Vec<Parked>,
    /// The counters; `idle` is filled in by [`TreePool::stats`].
    stats: WarmPoolStats,
}

/// Trees alive per shape: launched, not yet dropped (a shape keeps its
/// entry, at 0, once its last tree is gone).
type LiveCounts = Arc<Mutex<HashMap<TreeKey, usize>>>;

/// One tree's place in its pool's live count. The tree carries it and
/// gives it back when it drops, after its instances have joined.
pub(crate) struct Live {
    key: TreeKey,
    counts: LiveCounts,
}

impl Drop for Live {
    fn drop(&mut self) {
        if let Some(n) = self.counts.lock().get_mut(&self.key) {
            *n -= 1;
        }
    }
}

/// The pool itself; owned by the service, shared by all request threads.
/// Trees leave the lock before they are dropped.
pub(crate) struct TreePool {
    cfg: WarmPoolConfig,
    state: Mutex<PoolState>,
    live: LiveCounts,
}

impl TreePool {
    pub(crate) fn new(cfg: WarmPoolConfig) -> TreePool {
        TreePool {
            cfg,
            state: Mutex::new(PoolState::default()),
            live: LiveCounts::default(),
        }
    }

    /// Whether the shelf can park a tree at all (`max_trees > 0`).
    pub(crate) fn holds_trees(&self) -> bool {
        self.cfg.max_trees > 0
    }

    /// The current pool generation (new trees must carry it).
    pub(crate) fn generation(&self) -> u64 {
        self.state.lock().generation
    }

    /// Checks a matching tree out (most recently parked first). Returns
    /// `None` on a miss — the caller cold-launches and later checks the
    /// new tree in.
    pub(crate) fn checkout(&self, key: TreeKey) -> Option<WorkerTree> {
        let (picked, expired) = {
            let mut state = self.state.lock();
            state.tick += 1;
            let now_tick = state.tick;
            let PoolState { shelf, stats, .. } = &mut *state;
            // Age out expired trees first, keeping the survivors. No stale
            // tree is ever parked: `invalidate` drains the shelf under this
            // lock and `checkin` retires a stale tree instead.
            let expired: Vec<Parked> = shelf
                .extract_if(.., |parked| {
                    now_tick.saturating_sub(parked.parked_at_tick) > self.cfg.idle_ttl
                })
                .collect();
            stats.evicted_ttl += expired.len() as u64;
            let picked = match shelf.iter().rposition(|p| p.tree.key() == key) {
                Some(i) => {
                    stats.hits += 1;
                    Some(shelf.remove(i).tree)
                }
                None => {
                    stats.misses += 1;
                    None
                }
            };
            (picked, expired)
        };
        drop(expired);
        picked
    }

    /// Records a newly created tree (cold launch or pre-warm) and returns
    /// the guard that counts it live until the tree drops.
    pub(crate) fn record_created(&self, key: TreeKey) -> Live {
        self.state.lock().stats.created += 1;
        *self.live.lock().entry(key).or_insert(0) += 1;
        Live {
            key,
            counts: self.live.clone(),
        }
    }

    /// Returns a tree to the shelf — or retires it if it is poisoned (its
    /// run failed) or stale, or if the shelf holds no trees. A full shelf
    /// does not reject the newcomer: a parked tree of the
    /// least-recently-used *shape* is evicted to make room, because the
    /// tree being checked in just served traffic and is therefore the
    /// hottest tree of its shape. The retired tree is dropped, joining its
    /// instances, once the shelf lock is released.
    pub(crate) fn checkin(&self, tree: WorkerTree) {
        let retired = {
            let mut state = self.state.lock();
            if tree.is_poisoned() {
                state.stats.discarded_poisoned += 1;
                Some(tree)
            } else if tree.generation() != state.generation {
                state.stats.evicted_stale += 1;
                Some(tree)
            } else if !self.holds_trees() {
                Some(tree)
            } else {
                let victim = (state.shelf.len() >= self.cfg.max_trees).then(|| {
                    let i = Self::lru_shape_victim(&state.shelf);
                    state.stats.evicted_lru += 1;
                    state.shelf.remove(i).tree
                });
                let parked_at_tick = state.tick;
                state.shelf.push(Parked {
                    tree,
                    parked_at_tick,
                });
                victim
            }
        };
        drop(retired);
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

    /// Parked trees currently matching `key` (predictor sizing input).
    pub(crate) fn idle_of(&self, key: TreeKey) -> usize {
        let state = self.state.lock();
        state.shelf.iter().filter(|p| p.tree.key() == key).count()
    }

    /// Trees of shape `key` that exist at all — parked or serving a
    /// request right now. The predictor tops a shape up to its burst
    /// target against *this* count, so checkouts by the burst's own
    /// requests don't look like missing capacity.
    pub(crate) fn live_of(&self, key: TreeKey) -> usize {
        self.live.lock().get(&key).copied().unwrap_or(0)
    }

    /// Live trees that are not parked, over every shape: 0 once no
    /// request holds a tree (`FsdService::audit`).
    pub(crate) fn in_use(&self) -> usize {
        let parked = self.state.lock().shelf.len();
        let live: usize = self.live.lock().values().sum();
        live.saturating_sub(parked)
    }

    /// Evicts every parked tree of shape `key` (predictor decisions).
    /// Returns how many trees were dropped.
    pub(crate) fn evict_shape(&self, key: TreeKey) -> usize {
        let evicted: Vec<Parked> = {
            let mut state = self.state.lock();
            let evicted: Vec<Parked> = state
                .shelf
                .extract_if(.., |p| p.tree.key() == key)
                .collect();
            state.stats.evicted_shape += evicted.len() as u64;
            evicted
        };
        evicted.len()
    }

    /// Bumps the generation and eagerly drops every parked tree.
    /// Returns how many trees were dropped.
    pub(crate) fn invalidate(&self) -> usize {
        let drained = {
            let mut state = self.state.lock();
            state.generation += 1;
            let drained = std::mem::take(&mut state.shelf);
            state.stats.evicted_stale += drained.len() as u64;
            drained
        };
        drained.len()
    }

    /// Arms the kill switch of `rank` on one parked tree of shape `key`
    /// (failure injection / chaos hook). Returns whether a tree matched.
    pub(crate) fn arm_kill(&self, key: TreeKey, rank: u32) -> bool {
        let state = self.state.lock();
        match state.shelf.iter().rev().find(|p| p.tree.key() == key) {
            Some(parked) => {
                parked.tree.kill_worker(rank);
                true
            }
            None => false,
        }
    }

    /// Point-in-time counters.
    pub(crate) fn stats(&self) -> WarmPoolStats {
        let state = self.state.lock();
        WarmPoolStats {
            idle: state.shelf.len(),
            ..state.stats
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auto_sizing_saturates_instead_of_wrapping() {
        let small = WarmPoolConfig::auto(3, 2);
        assert_eq!((small.max_trees, small.idle_ttl), (6, 24));
        let huge = WarmPoolConfig::auto(usize::MAX, 2);
        assert_eq!(huge.max_trees, usize::MAX);
        assert_eq!(huge.idle_ttl, u64::MAX);
    }
}
