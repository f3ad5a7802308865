//! Latency model for the simulated cloud services.
//!
//! Figures are round-trip latencies observed from inside a Lambda-class
//! container in the same region as the services, per published measurements
//! and the ranges reported in the serverless-analytics literature (Lambada,
//! Starling, PyWren). Each call site draws a deterministic jitter factor so
//! runs are reproducible per seed but not artificially smooth.

use std::sync::atomic::{AtomicU64, Ordering};

/// Latency/throughput parameters, in microseconds and bytes/second.
#[derive(Debug, Clone, Copy)]
pub struct LatencyModel {
    /// SNS `PublishBatch` API round trip.
    pub sns_publish_us: u64,
    /// Topic → queue fan-out delivery delay (filter evaluation + enqueue).
    pub sns_delivery_us: u64,
    /// SQS `ReceiveMessage` round trip (non-empty response).
    pub sqs_poll_us: u64,
    /// SQS `DeleteMessageBatch` round trip.
    pub sqs_delete_us: u64,
    /// S3 `PUT` first-byte latency.
    pub s3_put_us: u64,
    /// S3 `GET` first-byte latency.
    pub s3_get_us: u64,
    /// S3 `LIST` round trip.
    pub s3_list_us: u64,
    /// S3 per-stream bandwidth, bytes/second (PUT and GET bodies).
    pub s3_bandwidth_bps: u64,
    /// SNS/SQS per-message body bandwidth, bytes/second.
    pub mq_bandwidth_bps: u64,
    /// Lambda `Invoke` API round trip (asynchronous invocation accepted).
    pub lambda_invoke_us: u64,
    /// Cold-start delay before a fresh instance runs user code.
    pub lambda_cold_start_us: u64,
    /// Direct-exchange NAT punch / handshake round trip (one-time per
    /// connection pair; relayed through the hole-punching rendezvous).
    pub direct_punch_us: u64,
    /// Direct-exchange per-message latency over an established punched
    /// connection (in-region TCP round trip, no service API in the path).
    pub direct_latency_us: u64,
    /// Direct-exchange per-connection bandwidth, bytes/second.
    pub direct_bandwidth_bps: u64,
    /// Relative jitter half-width (0.2 = ±20 %); 0 disables jitter.
    pub jitter: f64,
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel {
            sns_publish_us: 12_000,
            sns_delivery_us: 35_000,
            sqs_poll_us: 8_000,
            sqs_delete_us: 5_000,
            s3_put_us: 25_000,
            s3_get_us: 15_000,
            s3_list_us: 20_000,
            s3_bandwidth_bps: 85_000_000,
            mq_bandwidth_bps: 60_000_000,
            lambda_invoke_us: 30_000,
            lambda_cold_start_us: 250_000,
            direct_punch_us: 40_000,
            direct_latency_us: 700,
            direct_bandwidth_bps: 160_000_000,
            jitter: 0.15,
        }
    }
}

impl LatencyModel {
    /// A model with no jitter — bit-identical timing across runs, used by
    /// the deterministic tests and cost-model validation.
    pub fn deterministic() -> LatencyModel {
        LatencyModel {
            jitter: 0.0,
            ..LatencyModel::default()
        }
    }

    /// Transfer time for `bytes` at `bps`, in microseconds.
    pub fn transfer_us(bytes: usize, bps: u64) -> u64 {
        if bps == 0 {
            return 0;
        }
        (bytes as u128 * 1_000_000 / bps as u128) as u64
    }

    /// S3 PUT duration for a body of `bytes`.
    pub fn s3_put_total_us(&self, bytes: usize) -> u64 {
        self.s3_put_us + Self::transfer_us(bytes, self.s3_bandwidth_bps)
    }

    /// S3 GET duration for a body of `bytes`.
    pub fn s3_get_total_us(&self, bytes: usize) -> u64 {
        self.s3_get_us + Self::transfer_us(bytes, self.s3_bandwidth_bps)
    }

    /// SNS publish duration for a batch totalling `bytes`.
    pub fn sns_publish_total_us(&self, bytes: usize) -> u64 {
        self.sns_publish_us + Self::transfer_us(bytes, self.mq_bandwidth_bps)
    }

    /// SQS poll duration returning `bytes` of bodies.
    pub fn sqs_poll_total_us(&self, bytes: usize) -> u64 {
        self.sqs_poll_us + Self::transfer_us(bytes, self.mq_bandwidth_bps)
    }

    /// Direct-exchange send duration for a frame of `bytes` over an
    /// already-punched connection.
    pub fn direct_send_total_us(&self, bytes: usize) -> u64 {
        self.direct_latency_us + Self::transfer_us(bytes, self.direct_bandwidth_bps)
    }
}

/// Deterministic jitter source: a seeded counter hashed per draw, producing
/// factors in `[1 − j, 1 + j]`. Thread-safe and allocation-free.
#[derive(Debug)]
pub struct Jitter {
    state: AtomicU64,
    half_width: f64,
}

impl Jitter {
    /// Creates a jitter source; `half_width` typically comes from
    /// [`LatencyModel::jitter`].
    pub fn new(seed: u64, half_width: f64) -> Jitter {
        Jitter {
            state: AtomicU64::new(seed | 1),
            half_width,
        }
    }

    /// Applies a fresh jitter factor to a duration in microseconds.
    pub fn apply(&self, us: u64) -> u64 {
        if self.half_width == 0.0 {
            return us;
        }
        let u = self.unit() * 2.0 - 1.0; // uniform in [-1, 1)
        let factor = 1.0 + u * self.half_width;
        (us as f64 * factor).round().max(0.0) as u64
    }

    /// A fresh deterministic uniform draw in `[0, 1)`.
    fn unit(&self) -> f64 {
        let n = self
            .state
            .fetch_add(0x9E37_79B9_7F4A_7C15, Ordering::Relaxed);
        (splitmix(n) >> 11) as f64 / (1u64 << 53) as f64
    }
}

pub(crate) fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_scales_linearly() {
        assert_eq!(LatencyModel::transfer_us(1_000_000, 1_000_000), 1_000_000);
        assert_eq!(LatencyModel::transfer_us(0, 1_000_000), 0);
        assert_eq!(LatencyModel::transfer_us(500, 0), 0);
    }

    #[test]
    fn totals_include_base_and_body() {
        let m = LatencyModel::deterministic();
        assert_eq!(m.s3_put_total_us(0), m.s3_put_us);
        assert!(m.s3_put_total_us(10_000_000) > m.s3_put_us + 100_000);
        assert!(m.sns_publish_total_us(256 * 1024) > m.sns_publish_us);
    }

    #[test]
    fn zero_jitter_is_identity() {
        let j = Jitter::new(1, 0.0);
        for us in [0u64, 1, 1000, 123_456] {
            assert_eq!(j.apply(us), us);
        }
    }

    #[test]
    fn jitter_stays_in_band_and_varies() {
        let j = Jitter::new(7, 0.2);
        let mut distinct = std::collections::HashSet::new();
        for _ in 0..200 {
            let v = j.apply(10_000);
            assert!((8_000..=12_000).contains(&v), "jittered {v} outside ±20%");
            distinct.insert(v);
        }
        assert!(distinct.len() > 50, "jitter barely varies");
    }

    #[test]
    fn unit_draws_cover_the_interval() {
        let j = Jitter::new(9, 0.0);
        let draws: Vec<f64> = (0..1000).map(|_| j.unit()).collect();
        assert!(draws.iter().all(|&u| (0.0..1.0).contains(&u)));
        let below = draws.iter().filter(|&&u| u < 0.5).count();
        assert!(
            (350..650).contains(&below),
            "unit() heavily skewed: {below}/1000 below 0.5"
        );
    }

    #[test]
    fn jitter_is_deterministic_per_seed() {
        let a = Jitter::new(42, 0.1);
        let b = Jitter::new(42, 0.1);
        let va: Vec<u64> = (0..20).map(|_| a.apply(5_000)).collect();
        let vb: Vec<u64> = (0..20).map(|_| b.apply(5_000)).collect();
        assert_eq!(va, vb);
    }
}
