//! Trace-driven pre-warming: mining arrival history into warm-pool
//! decisions.
//!
//! The warm pool (PR 3) is purely reactive — a tree only parks after some
//! request has already paid its cold start. λScale-style serving instead
//! scales *proactively*: observed arrival patterns drive pre-warm and
//! evict decisions ahead of the traffic that needs them. This module is
//! that policy, deliberately separated from mechanism:
//!
//! * the **[`Predictor`]** consumes the scheduler's per-request arrival
//!   shapes (`(variant, P, memory)` — [`fsd_core::TreeKey`]) and maintains
//!   a **sliding window** over the most recent arrivals plus a
//!   **last-seen** index per shape;
//! * **burst detection**: a shape with at least
//!   [`PredictorConfig::burst_threshold`] arrivals inside the window is
//!   mid-burst, and its warm target is the full in-window count (the
//!   observed burst depth). Below the threshold a single warm tree covers
//!   the trickle;
//! * **quiescence**: a shape unseen for [`PredictorConfig::quiet_after`]
//!   arrivals is predicted dead — the decision set evicts its warm trees,
//!   so quiescent traffic converges the pool back to zero pre-warms;
//! * **budgeting**: warm targets are clamped so their sum never exceeds
//!   [`PredictorConfig::max_warm`], allocated in canonical shape order so
//!   the clamp itself is deterministic.
//!
//! **Determinism.** The predictor's state advances only through
//! [`Predictor::observe`], and [`Predictor::decisions`] is a pure
//! function of that state — the same arrival sequence always yields the
//! same decision sequence (the property the proptests pin down). The
//! scheduler *applies* decisions idempotently (pre-warm up to the target,
//! evict what is already gone), so re-applying a standing decision set on
//! a drain tick never perturbs a replay.

use fsd_core::TreeKey;
use std::collections::{BTreeMap, VecDeque};

/// Tuning knobs for the arrival-history miner. The defaults pair with
/// `ServiceBuilder::auto_warm_pool(4, 2)` — four distinct shapes bursting
/// two deep, the envelope of the seeded `trace::bursty` workload.
#[derive(Debug, Clone, Copy)]
pub struct PredictorConfig {
    /// Sliding-window length, in arrivals (across all shapes).
    pub window: usize,
    /// In-window arrivals of one shape that constitute a burst; below
    /// this, at most one tree is kept warm for the shape.
    pub burst_threshold: usize,
    /// Upper bound on the summed warm targets across shapes (keep it at
    /// or below the pool's `max_trees`; excess pre-warms would only churn
    /// the pool's LRU policy).
    pub max_warm: usize,
    /// Arrivals without a shape after which that shape's warm trees are
    /// evicted.
    pub quiet_after: u64,
}

impl Default for PredictorConfig {
    fn default() -> Self {
        PredictorConfig {
            window: 16,
            burst_threshold: 2,
            max_warm: 8,
            quiet_after: 48,
        }
    }
}

impl PredictorConfig {
    /// Sets the sliding-window length (clamped to ≥ 1).
    pub fn window(mut self, window: usize) -> PredictorConfig {
        self.window = window.max(1);
        self
    }

    /// Sets the global warm-target budget.
    pub fn max_warm(mut self, max_warm: usize) -> PredictorConfig {
        self.max_warm = max_warm;
        self
    }
}

/// One pool action the predictor wants taken.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrewarmDecision {
    /// Keep `target` trees of `shape` warm (pre-warm the difference if
    /// fewer are parked; never tear down because of a *lower* target —
    /// the pool's own TTL/LRU policies shrink gently).
    Warm {
        /// The request shape to keep warm.
        shape: TreeKey,
        /// How many parked trees the shape should have ready.
        target: usize,
    },
    /// Evict every parked tree of `shape` (traffic went quiet).
    Evict {
        /// The request shape to evict.
        shape: TreeKey,
    },
}

/// The arrival-history miner. One per `(scheduler, model)`; all state is
/// local, so the scheduler wraps it in a mutex and drives it from its
/// intake path.
pub struct Predictor {
    cfg: PredictorConfig,
    /// Total arrivals observed (the predictor's event clock).
    seq: u64,
    /// The most recent `cfg.window` arrivals; `None` marks an arrival
    /// that claims no tree but still advances the window.
    window: VecDeque<Option<TreeKey>>,
    /// Last arrival seq per shape ever seen (bounded by distinct shapes).
    last_seen: BTreeMap<TreeKey, u64>,
}

impl Predictor {
    /// A predictor with no history.
    pub fn new(cfg: PredictorConfig) -> Predictor {
        Predictor {
            cfg: PredictorConfig {
                window: cfg.window.max(1),
                burst_threshold: cfg.burst_threshold.max(1),
                max_warm: cfg.max_warm,
                quiet_after: cfg.quiet_after.max(1),
            },
            seq: 0,
            window: VecDeque::new(),
            last_seen: BTreeMap::new(),
        }
    }

    /// Records one arrival (`None` for one that claims no worker tree — it
    /// advances the event clock without competing for warm capacity; the
    /// scheduler feeds only shapes) and returns the updated decision set.
    pub fn observe(&mut self, shape: Option<TreeKey>) -> Vec<PrewarmDecision> {
        self.seq += 1;
        self.window.push_back(shape);
        while self.window.len() > self.cfg.window {
            self.window.pop_front();
        }
        if let Some(shape) = shape {
            self.last_seen.insert(shape, self.seq);
        }
        self.decisions()
    }

    /// Whether `shape` is past the quiescence horizon.
    fn is_quiet(&self, shape: &TreeKey) -> bool {
        self.last_seen
            .get(shape)
            .is_none_or(|&at| self.seq.saturating_sub(at) >= self.cfg.quiet_after)
    }

    /// The current decision set — a pure function of the observed history:
    /// evictions for every quiet shape ever seen (standing until the shape
    /// re-arrives; applying them is idempotent), then warm targets in
    /// canonical shape order, clamped to the `max_warm` budget. `last_seen`
    /// is bounded by the distinct-shape population, never by trace length.
    pub fn decisions(&self) -> Vec<PrewarmDecision> {
        let mut counts: BTreeMap<TreeKey, usize> = BTreeMap::new();
        for shape in self.window.iter().flatten() {
            *counts.entry(*shape).or_insert(0) += 1;
        }
        let mut out = Vec::new();
        for shape in self.last_seen.keys() {
            if self.is_quiet(shape) {
                out.push(PrewarmDecision::Evict { shape: *shape });
            }
        }
        let mut budget = self.cfg.max_warm;
        for (shape, count) in &counts {
            if self.is_quiet(shape) {
                continue;
            }
            let want = if *count >= self.cfg.burst_threshold {
                *count
            } else {
                1
            };
            let target = want.min(budget);
            budget -= target;
            if target > 0 {
                out.push(PrewarmDecision::Warm {
                    shape: *shape,
                    target,
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsd_core::Variant;

    fn shape(variant: Variant, workers: u32) -> TreeKey {
        TreeKey {
            variant,
            workers,
            memory_mb: 1769,
        }
    }

    fn warm_target(decisions: &[PrewarmDecision], s: TreeKey) -> Option<usize> {
        decisions.iter().find_map(|d| match d {
            PrewarmDecision::Warm { shape, target } if *shape == s => Some(*target),
            _ => None,
        })
    }

    #[test]
    fn first_arrival_warms_one_tree() {
        let mut p = Predictor::new(PredictorConfig::default());
        let s = shape(Variant::Queue, 2);
        let d = p.observe(Some(s));
        assert_eq!(
            d,
            vec![PrewarmDecision::Warm {
                shape: s,
                target: 1
            }]
        );
    }

    #[test]
    fn burst_raises_the_target_to_observed_depth() {
        let mut p = Predictor::new(PredictorConfig::default());
        let s = shape(Variant::Queue, 1);
        p.observe(Some(s));
        p.observe(Some(s));
        let d = p.observe(Some(s));
        assert_eq!(warm_target(&d, s), Some(3), "three in-window arrivals");
    }

    #[test]
    fn empty_arrivals_advance_the_clock_but_claim_no_capacity() {
        let mut p = Predictor::new(PredictorConfig::default());
        let d = p.observe(None);
        assert!(d.is_empty(), "no shape, no decision: {d:?}");
        assert_eq!(p.seq, 1);
    }

    #[test]
    fn targets_never_exceed_the_budget() {
        let mut p = Predictor::new(PredictorConfig {
            burst_threshold: 1,
            ..PredictorConfig::default().max_warm(3)
        });
        let a = shape(Variant::Queue, 1);
        let b = shape(Variant::Queue, 2);
        let c = shape(Variant::Object, 1);
        let mut last = Vec::new();
        for _ in 0..4 {
            for s in [a, b, c] {
                last = p.observe(Some(s));
            }
        }
        let total: usize = last
            .iter()
            .map(|d| match d {
                PrewarmDecision::Warm { target, .. } => *target,
                PrewarmDecision::Evict { .. } => 0,
            })
            .sum();
        assert!(total <= 3, "budget 3 exceeded: {last:?}");
        assert!(total > 0, "live shapes must get some budget");
    }

    #[test]
    fn quiet_shapes_are_evicted_while_still_windowed() {
        // window 8 and quiet_after 8: a shape 8 arrivals quiet is retired
        // exactly as its last window slot expires, so the eviction is
        // emitted while the shape is still nameable.
        let cfg = PredictorConfig {
            quiet_after: 8,
            ..PredictorConfig::default().window(8)
        };
        let mut p = Predictor::new(cfg);
        let a = shape(Variant::Queue, 1);
        let b = shape(Variant::Object, 2);
        p.observe(Some(a));
        let mut saw_eviction = false;
        for _ in 0..8 {
            let d = p.observe(Some(b));
            saw_eviction |= d.contains(&PrewarmDecision::Evict { shape: a });
            if saw_eviction {
                break;
            }
        }
        assert!(saw_eviction, "shape a must be evicted once quiet");
        // After retirement, no decision mentions `a` and targets for `b`
        // remain — quiescent traffic converges to only the live shape.
        let d = p.decisions();
        assert!(warm_target(&d, a).is_none());
        assert!(warm_target(&d, b).is_some());
    }

    #[test]
    fn decisions_are_a_pure_function_of_history() {
        let cfg = PredictorConfig::default();
        let seq = [
            Some(shape(Variant::Queue, 1)),
            None,
            Some(shape(Variant::Object, 2)),
            Some(shape(Variant::Hybrid, 2)),
            Some(shape(Variant::Queue, 1)),
            None,
            Some(shape(Variant::Hybrid, 2)),
            Some(shape(Variant::Queue, 2)),
        ];
        let mut p1 = Predictor::new(cfg);
        let mut p2 = Predictor::new(cfg);
        for s in seq {
            assert_eq!(p1.observe(s), p2.observe(s));
        }
        assert_eq!(p1.decisions(), p2.decisions());
    }
}
