//! Seeded arrival traces for scheduler load testing.
//!
//! A trace is a list of [`Arrival`]s in virtual-time order. Generation is
//! fully deterministic per seed (the offline `rand` shim's xoshiro256++),
//! so the same seed replays the same workload in tests, benchmarks and
//! bug reports.

use crate::config::Priority;
use fsd_comm::VirtualTime;
use fsd_core::{BatchedRequest, Variant};
use fsd_model::{generate_inputs, InputSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One request arrival in a load trace. The inputs themselves are not
/// materialized here — `width`/`input_seed` describe how
/// [`Arrival::request`] generates them against the model under test,
/// which keeps traces model-agnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Arrival {
    /// Virtual arrival time (traces are sorted by this).
    pub at: VirtualTime,
    /// Priority class the client requests.
    pub priority: Priority,
    /// Requested execution variant.
    pub variant: Variant,
    /// Requested worker parallelism `P`.
    pub workers: u32,
    /// Per-worker memory (MB).
    pub memory_mb: u32,
    /// Input batch width (samples).
    pub width: usize,
    /// Seed for deterministic input generation.
    pub input_seed: u64,
}

impl Arrival {
    /// The request this arrival stands for against a model of `neurons`
    /// neurons: one batch of `width` inputs generated from `input_seed`.
    pub fn request(&self, neurons: usize) -> BatchedRequest {
        BatchedRequest {
            variant: self.variant,
            workers: self.workers,
            memory_mb: self.memory_mb,
            batches: vec![generate_inputs(
                neurons,
                &InputSpec::scaled(self.width, self.input_seed),
            )],
        }
    }
}

fn arrival(
    rng: &mut StdRng,
    at_us: u64,
    priority: Priority,
    variant: Variant,
    workers: u32,
    idx: usize,
) -> Arrival {
    Arrival {
        at: VirtualTime::from_micros(at_us),
        priority,
        variant,
        workers,
        memory_mb: 1769,
        width: rng.gen_range(4usize..10),
        input_seed: rng.gen_range(1u64..1 << 48) ^ idx as u64,
    }
}

/// Bursts of simultaneous arrivals: `bursts` groups of `burst_size`
/// requests, each group sharing one arrival instant, groups `gap_us`
/// apart. Each burst mixes both classes and both channel variants.
pub fn bursty(bursts: usize, burst_size: usize, gap_us: u64, seed: u64) -> Vec<Arrival> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(bursts * burst_size);
    for b in 0..bursts {
        for j in 0..burst_size {
            let i = b * burst_size + j;
            let priority = if j % 3 == 2 {
                Priority::Batch
            } else {
                Priority::Interactive
            };
            let variant = match j % 3 {
                0 => Variant::Queue,
                1 => Variant::Object,
                _ => Variant::Serial,
            };
            let workers = 1 + (j % 2) as u32;
            out.push(arrival(
                &mut rng,
                b as u64 * gap_us,
                priority,
                variant,
                workers,
                i,
            ));
        }
    }
    out
}

/// One arrival in a multi-model *fleet* trace: which registered model the
/// request targets, plus the arrival itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetArrival {
    /// Index into the fleet replay's model list
    /// ([`crate::harness::replay_fleet`]).
    pub model: usize,
    /// The request arrival.
    pub arrival: Arrival,
}

/// The fleet-scale workload: `rounds` rounds, each sending one burst of
/// `burst` simultaneous requests to *every* one of `models` models, rounds
/// `gap_us` apart. A burst shares one arrival instant, one variant and one
/// worker count (shapes alternate per `(model, round)`), so continuous
/// batching can coalesce its Batch body; on even rounds each burst leads
/// with an Interactive head, exercising the never-spans-classes rule under
/// coalescing pressure. Scaling `models × rounds × burst` is the 10–100×
/// fleet axis of the `scheduler_throughput` bench.
pub fn fleet(
    models: usize,
    rounds: usize,
    burst: usize,
    gap_us: u64,
    seed: u64,
) -> Vec<FleetArrival> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(models * rounds * burst);
    let mut idx = 0usize;
    for round in 0..rounds {
        for model in 0..models {
            let variant = if (model + round) % 2 == 0 {
                Variant::Queue
            } else {
                Variant::Object
            };
            let workers = 1 + ((model + round) % 2) as u32;
            for j in 0..burst {
                let priority = if j == 0 && round % 2 == 0 {
                    Priority::Interactive
                } else {
                    Priority::Batch
                };
                out.push(FleetArrival {
                    model,
                    arrival: arrival(
                        &mut rng,
                        round as u64 * gap_us,
                        priority,
                        variant,
                        workers,
                        idx,
                    ),
                });
                idx += 1;
            }
        }
    }
    out
}

/// The adversarial case: `n` large-`P` requests all arriving at once
/// (virtual time zero), batch-heavy, cycling through every channel
/// transport (queue, object, hybrid, direct) — the flood that must trip the
/// bounded queues into explicit backpressure instead of buffering without
/// bound or starving interactive traffic.
pub fn flood(n: usize, workers: u32, seed: u64) -> Vec<Arrival> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let priority = if i % 3 == 0 {
                Priority::Interactive
            } else {
                Priority::Batch
            };
            let variant = match i % 4 {
                0 => Variant::Queue,
                1 => Variant::Object,
                2 => Variant::Hybrid,
                _ => Variant::Direct,
            };
            arrival(&mut rng, 0, priority, variant, workers, i)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traces_are_deterministic_per_seed() {
        assert_eq!(bursty(3, 8, 50_000, 7), bursty(3, 8, 50_000, 7));
        assert_eq!(flood(16, 4, 7), flood(16, 4, 7));
        assert_eq!(fleet(4, 5, 6, 100_000, 7), fleet(4, 5, 6, 100_000, 7));
        assert_ne!(bursty(3, 8, 50_000, 7), bursty(3, 8, 50_000, 8));
        assert_ne!(fleet(4, 5, 6, 100_000, 7), fleet(4, 5, 6, 100_000, 8));
    }

    #[test]
    fn fleet_traces_are_coalescible_per_burst_and_fair_to_interactive() {
        let models = 3;
        let burst = 5;
        let t = fleet(models, 4, burst, 100_000, 9);
        assert_eq!(t.len(), models * 4 * burst);
        assert!(
            t.windows(2).all(|w| w[0].arrival.at <= w[1].arrival.at),
            "sorted by time"
        );
        assert!(t.iter().all(|a| a.model < models));
        for chunk in t.chunks(burst) {
            // A burst shares model, instant and coalescing shape...
            assert!(chunk.iter().all(|a| a.model == chunk[0].model));
            assert!(chunk.iter().all(|a| a.arrival.at == chunk[0].arrival.at));
            assert!(chunk
                .iter()
                .all(|a| a.arrival.variant == chunk[0].arrival.variant));
            assert!(chunk
                .iter()
                .all(|a| a.arrival.workers == chunk[0].arrival.workers));
            // ...but never mixes an Interactive head into its Batch body.
            assert!(chunk[1..]
                .iter()
                .all(|a| a.arrival.priority == Priority::Batch));
        }
        assert!(t
            .iter()
            .any(|a| a.arrival.priority == Priority::Interactive));
        for v in [Variant::Queue, Variant::Object] {
            assert!(t.iter().any(|a| a.arrival.variant == v));
        }
    }

    #[test]
    fn traces_are_time_ordered_and_mixed() {
        let t = bursty(4, 6, 10_000, 3);
        assert!(t.windows(2).all(|w| w[0].at <= w[1].at), "sorted by time");
        assert!(t.iter().any(|a| a.priority == Priority::Batch));
        assert!(t.iter().any(|a| a.priority == Priority::Interactive));
        assert!(t.iter().any(|a| a.variant == Variant::Object));
        let f = flood(10, 4, 3);
        assert!(f.iter().all(|a| a.at == VirtualTime::ZERO));
        assert!(f.iter().all(|a| a.workers == 4));
        for v in [
            Variant::Queue,
            Variant::Object,
            Variant::Hybrid,
            Variant::Direct,
        ] {
            assert!(
                f.iter().any(|a| a.variant == v),
                "flood must cycle through {v}"
            );
        }
    }
}
