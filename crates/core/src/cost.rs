//! The FSD-Inference cost model (paper Section IV).
//!
//! `C_Queue = C_λ + C_SNS + C_SQS`, `C_Object = C_λ + C_S3`,
//! `C_Serial = C_λ` — with `C_λ = P·C_inv + P·T̄·M·C_run`.
//!
//! Two derivations are kept deliberately separate, mirroring §VI-F:
//! * **actual** — from the service-side billing meters (the simulation's
//!   "AWS Cost & Usage report");
//! * **predicted** — from the application's own client-side statistics.

use crate::stats::ChannelStatsSnapshot;
use fsd_comm::MeterSnapshot;
use fsd_faas::LambdaSnapshot;

/// Public AWS price points (us-east-1, late 2023 — the paper's era).
#[derive(Debug, Clone, Copy)]
pub struct PriceBook {
    /// Per Lambda invocation request ($0.20 / 1M).
    pub lambda_invoke: f64,
    /// Per MB-millisecond of Lambda runtime ($0.0000166667 / GB-s).
    pub lambda_mb_ms: f64,
    /// Per billed SNS publish request, 64 KiB granularity ($0.50 / 1M).
    pub sns_publish: f64,
    /// Per byte transferred SNS → SQS ($0.09 / GB).
    pub sns_byte: f64,
    /// Per SQS API call ($0.40 / 1M).
    pub sqs_api: f64,
    /// Per S3 PUT request ($0.005 / 1k).
    pub s3_put: f64,
    /// Per S3 GET request ($0.0004 / 1k).
    pub s3_get: f64,
    /// Per S3 LIST request ($0.005 / 1k).
    pub s3_list: f64,
}

impl Default for PriceBook {
    fn default() -> Self {
        PriceBook {
            lambda_invoke: 0.20 / 1e6,
            lambda_mb_ms: 0.000_016_666_7 / 1024.0 / 1000.0,
            sns_publish: 0.50 / 1e6,
            sns_byte: 0.09 / 1e9,
            sqs_api: 0.40 / 1e6,
            s3_put: 0.005 / 1e3,
            s3_get: 0.0004 / 1e3,
            s3_list: 0.005 / 1e3,
        }
    }
}

/// A cost split into the model's two terms.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CostBreakdown {
    /// `C_λ`: invocations + MB-ms.
    pub compute: f64,
    /// Communication services (SNS+SQS or S3, plus artifact GETs).
    pub comms: f64,
}

impl CostBreakdown {
    /// Total dollars.
    pub fn total(&self) -> f64 {
        self.compute + self.comms
    }

    /// Both terms scaled by `share` (a fused member's part of its item).
    pub(crate) fn scaled(&self, share: f64) -> CostBreakdown {
        CostBreakdown {
            compute: self.compute * share,
            comms: self.comms * share,
        }
    }

    /// Relative difference of totals (validation metric).
    pub fn relative_error(&self, other: &CostBreakdown) -> f64 {
        let a = self.total();
        let b = other.total();
        if a == 0.0 && b == 0.0 {
            return 0.0;
        }
        (a - b).abs() / a.abs().max(b.abs())
    }
}

/// The cost calculator.
#[derive(Debug, Clone, Copy, Default)]
pub struct CostModel {
    /// Price points in force.
    pub prices: PriceBook,
}

impl CostModel {
    /// `C_λ` from billing counters.
    fn lambda_cost(&self, snap: &LambdaSnapshot) -> f64 {
        snap.invocations as f64 * self.prices.lambda_invoke
            + snap.mb_ms as f64 * self.prices.lambda_mb_ms
    }

    /// `C_SNS + C_SQS` (Eqs. 5–6).
    fn queue_comms(&self, s: u64, z: u64, q: u64) -> f64 {
        s as f64 * self.prices.sns_publish
            + z as f64 * self.prices.sns_byte
            + q as f64 * self.prices.sqs_api
    }

    /// `C_S3` (Eq. 7).
    fn object_comms(&self, v: u64, r: u64, l: u64) -> f64 {
        v as f64 * self.prices.s3_put
            + r as f64 * self.prices.s3_get
            + l as f64 * self.prices.s3_list
    }

    /// **Actual** cost from the service-side meters.
    pub fn actual(&self, lambda: &LambdaSnapshot, comm: &MeterSnapshot) -> CostBreakdown {
        CostBreakdown {
            compute: self.lambda_cost(lambda),
            comms: self.queue_comms(
                comm.sns_publish_requests,
                comm.sns_delivered_bytes,
                comm.sqs_api_calls,
            ) + self.object_comms(
                comm.s3_put_requests,
                comm.s3_get_requests,
                comm.s3_list_requests,
            ),
        }
    }

    /// **Predicted** cost from client-side channel statistics plus the
    /// engine's own accounting of invocations and artifact reads. Input
    /// staging is written with `put_offline` and billed to nobody, so it
    /// has no term of its own: a staged share is one GET counted in
    /// `artifact_gets` when its rank reads it, and a share that rides a
    /// warm dispatch issues no GET at all.
    pub fn predicted(
        &self,
        lambda: &LambdaSnapshot,
        client: &ChannelStatsSnapshot,
        artifact_gets: u64,
    ) -> CostBreakdown {
        CostBreakdown {
            compute: self.lambda_cost(lambda),
            comms: self.queue_comms(client.sns_billed, client.bytes_sent, client.sqs_calls)
                + self.object_comms(
                    client.s3_puts,
                    client.s3_gets + artifact_gets,
                    client.s3_lists,
                ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_price_sanity() {
        let p = PriceBook::default();
        // SNS/SQS API ≈ 1 OOM cheaper than S3 PUT/LIST (Section IV-C).
        assert!(p.s3_put / p.sns_publish >= 9.0);
        assert!(p.s3_list / p.sqs_api >= 9.0);
        // GB-s of Lambda: $0.0000166667.
        let gbs = p.lambda_mb_ms * 1024.0 * 1000.0;
        assert!((gbs - 0.000_016_666_7).abs() < 1e-12);
    }

    #[test]
    fn closed_form_matches_meter_form() {
        let m = CostModel::default();
        // `C_λ = P·C_inv + P·T̄·M·C_run` (Eq. 4): 10 workers, 2.5 s
        // average, 2048 MB.
        let closed = 10.0 * m.prices.lambda_invoke + 10.0 * 2500.0 * 2048.0 * m.prices.lambda_mb_ms;
        let snap = LambdaSnapshot {
            invocations: 10,
            mb_ms: 10 * 2500 * 2048,
        };
        let metered = m.lambda_cost(&snap);
        assert!(
            (closed - metered).abs() < 1e-9,
            "closed {closed} vs metered {metered}"
        );
    }

    #[test]
    fn queue_cost_example_from_paper_shape() {
        let m = CostModel::default();
        // 256 KiB published as one batch = 4 billed requests; cost is
        // byte-transfer dominated but still sub-millidollar.
        let c = m.queue_comms(4, 256 * 1024, 2);
        assert!(c > 0.0 && c < 0.001);
        // For small request-dominated exchanges (1 KiB), the queue path is
        // ~1 OOM cheaper than the S3 request trio (§IV-C).
        let small_q = m.queue_comms(1, 1024, 2);
        let small_o = m.object_comms(1, 1, 1);
        assert!(
            small_o > 5.0 * small_q,
            "object {small_o} should dwarf queue {small_q} at small payloads"
        );
    }

    #[test]
    fn breakdown_total_and_error() {
        let a = CostBreakdown {
            compute: 0.10,
            comms: 0.25,
        };
        let b = CostBreakdown {
            compute: 0.10,
            comms: 0.26,
        };
        assert!((a.total() - 0.35).abs() < 1e-12);
        assert!(a.relative_error(&b) < 0.03);
        assert_eq!(a.relative_error(&a), 0.0);
        let zero = CostBreakdown::default();
        assert_eq!(zero.relative_error(&zero), 0.0);
    }

    #[test]
    fn actual_splits_services() {
        let m = CostModel::default();
        let lambda = LambdaSnapshot {
            invocations: 5,
            mb_ms: 1000,
        };
        let comm = MeterSnapshot {
            sns_publish_requests: 100,
            sns_delivered_bytes: 1_000_000,
            sqs_api_calls: 500,
            s3_put_requests: 10,
            s3_get_requests: 20,
            s3_list_requests: 30,
            ..MeterSnapshot::default()
        };
        let c = m.actual(&lambda, &comm);
        assert!(c.compute > 0.0);
        let manual = m.queue_comms(100, 1_000_000, 500) + m.object_comms(10, 20, 30);
        assert!((c.comms - manual).abs() < 1e-12);
    }
}
