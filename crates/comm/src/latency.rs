//! Latency model for the simulated cloud services.
//!
//! Figures are round-trip latencies observed from inside a Lambda-class
//! container in the same region as the services, per published measurements
//! and the ranges reported in the serverless-analytics literature (Lambada,
//! Starling, PyWren). Every call takes exactly its modelled duration, so a
//! request's virtual latency is a function of its workload alone.

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
        }
    }
}

impl LatencyModel {
    /// Transfer time for `bytes` at `bps`, in microseconds.
    fn transfer_us(bytes: usize, bps: u64) -> u64 {
        if bps == 0 {
            return 0;
        }
        (bytes as u128 * 1_000_000 / bps as u128) as u64
    }

    /// Time `bytes` of body take at the S3 stream rate, without any
    /// request's first-byte latency.
    pub fn s3_body_us(&self, bytes: usize) -> u64 {
        Self::transfer_us(bytes, self.s3_bandwidth_bps)
    }

    /// S3 PUT duration for a body of `bytes`.
    pub fn s3_put_total_us(&self, bytes: usize) -> u64 {
        self.s3_put_us + self.s3_body_us(bytes)
    }

    /// S3 GET duration for a body of `bytes`.
    pub fn s3_get_total_us(&self, bytes: usize) -> u64 {
        self.s3_get_us + self.s3_body_us(bytes)
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
        let m = LatencyModel::default();
        assert_eq!(m.s3_put_total_us(0), m.s3_put_us);
        assert!(m.s3_put_total_us(10_000_000) > m.s3_put_us + 100_000);
        assert!(m.sns_publish_total_us(256 * 1024) > m.sns_publish_us);
    }
}
