//! Channel matrix — payload-size sweep across all four transports.
//!
//! Not a paper table: this measures where each channel wins, the evidence
//! behind the §IV-C routing bands extended with the FMI direct-exchange
//! band (Direct → Queue → Hybrid → Object).
//! For each payload size, `SAMPLES` seeded layer fan-outs (one sender
//! shipping a per-pair payload to [`FANOUT`] targets, `ROUNDS` successive
//! layer tags — the send shape of an FSI layer) run over each transport
//! in a fresh deterministic region; the metric is the slowest receiver's
//! end-to-end virtual time. The run asserts the hybrid contract — p50 no
//! worse than pure queue wherever payloads spill, and no worse than pure
//! object wherever they stay inline — plus the direct contract (p50 no
//! worse than queue on inline payloads, where zero per-message API cost
//! must dominate), sweeps the direct transport across NAT-punch transient
//! failure rates (failed handshakes cost retries, never correctness),
//! prints the matrices, and emits `BENCH_comm_matrix.json` for the CI
//! bench-regression gate.
//!
//! ```text
//! cargo run --release -p fsd-bench --bin comm_matrix
//! ```

use fsd_bench::{gate, percentile, row, Table};
use fsd_comm::{ApiClass, CloudConfig, CloudEnv, FaultPlan, VirtualTime};
use fsd_core::{ChannelOptions, RecvTracker, Tag, Transport, Variant};
use fsd_faas::{ComputeModel, FaasPlatform, FunctionConfig};
use fsd_sparse::{codec, SparseRows};

const SEED: u64 = 77;
const SAMPLES: usize = 5;
const ROUNDS: u32 = 3;
/// Receivers per layer fan-out (worker 0 → workers 1..=FANOUT).
const FANOUT: u32 = 7;
const NNZ_PER_ROW: usize = 500;

/// One per-pair payload: `total_nnz` nonzeros spread over rows of
/// [`NNZ_PER_ROW`], hash-varied values (activation-like entropy — near
/// enough incompressible that wire bytes track the serialized size, as
/// they do for real intermediates).
fn payload(total_nnz: usize, seed: u64) -> SparseRows {
    let n_rows = total_nnz.div_ceil(NNZ_PER_ROW).max(1);
    SparseRows::from_rows(
        NNZ_PER_ROW,
        (0..n_rows as u32).map(|i| {
            let cols: Vec<u32> = (0..NNZ_PER_ROW as u32).collect();
            let vals: Vec<f32> = (0..NNZ_PER_ROW)
                .map(|j| {
                    let h = (i as u64)
                        .wrapping_mul(2654435761)
                        .wrapping_add(j as u64 * 40503)
                        .wrapping_add(seed)
                        % 65521;
                    h as f32 * 1.73e-4
                })
                .collect();
            (i, cols, vals)
        }),
    )
}

/// Slowest-receiver virtual time for `ROUNDS` fan-outs of `rows` (worker
/// 0 → every other rank) over `variant` in a fresh deterministic region,
/// with a seeded transient failure rate on the direct transport's NAT
/// punches ([`ApiClass::DirectPunch`]). Failed handshakes are retried by
/// the channel; they cost time, never payloads.
fn measure(variant: Variant, rows: &SparseRows, seed: u64, punch_fail_rate: f64) -> u64 {
    let mut config = CloudConfig::deterministic(seed);
    if punch_fail_rate > 0.0 {
        config = config.with_faults(
            FaultPlan::new(seed).with_transient(ApiClass::DirectPunch, punch_fail_rate),
        );
    }
    let env = CloudEnv::new(config);
    let channel = Transport::of(variant).expect("channel variant").provision(
        &env,
        FANOUT + 1,
        ChannelOptions::default(),
        0,
    );
    let platform = FaasPlatform::new(env, ComputeModel::default());
    let ch_send = channel.clone();
    let sent = rows.clone();
    platform
        .invoke(
            FunctionConfig::worker("send", 4096),
            VirtualTime::ZERO,
            move |ctx| {
                for r in 0..ROUNDS {
                    let sends: Vec<(u32, SparseRows)> =
                        (1..=FANOUT).map(|t| (t, sent.clone())).collect();
                    ch_send.send_layer(ctx, Tag::Layer(r), 0, &sends)?;
                }
                Ok(())
            },
        )
        .join()
        .expect("sender ok");
    let expected_nnz = rows.nnz();
    let mut slowest = 0u64;
    for me in 1..=FANOUT {
        let ch_recv = channel.clone();
        let (elapsed_us, _) = platform
            .invoke(
                FunctionConfig::worker(format!("recv{me}"), 4096),
                VirtualTime::ZERO,
                move |ctx| {
                    for r in 0..ROUNDS {
                        let mut tracker = RecvTracker::expecting([0u32]);
                        let got = ch_recv.receive_all(ctx, Tag::Layer(r), me, &mut tracker)?;
                        let got_nnz: usize = got.iter().map(|(_, b)| b.nnz()).sum();
                        assert_eq!(got_nnz, expected_nnz, "{variant} round {r} lost payload");
                    }
                    Ok(ctx.now().as_micros())
                },
            )
            .join()
            .expect("receiver ok");
        slowest = slowest.max(elapsed_us);
    }
    channel.teardown();
    slowest
}

/// Median over `SAMPLES` seeded fan-outs of `total_nnz`-nonzero payloads.
fn p50(variant: Variant, total_nnz: usize, punch_fail_rate: f64) -> u64 {
    let mut samples: Vec<u64> = (0..SAMPLES)
        .map(|s| {
            let rows = payload(total_nnz, SEED + s as u64);
            measure(variant, &rows, SEED + 100 * s as u64, punch_fail_rate)
        })
        .collect();
    samples.sort_unstable();
    percentile(&samples, 50.0)
}

fn main() {
    let threshold = ChannelOptions::default().spill_threshold;
    let sweeps: [(&'static str, usize); 4] = [
        ("small", 2_000),
        ("medium", 30_000),
        ("large", 400_000),
        ("huge", 1_200_000),
    ];
    let mut table = Table::new(&[
        "payload",
        "nnz",
        "serialized",
        "plane",
        "queue p50",
        "object p50",
        "hybrid p50",
        "direct p50",
    ]);
    let mut sweep_rows = Vec::new();
    for (label, total_nnz) in sweeps {
        let wire_bytes = codec::encoded_size(&payload(total_nnz, SEED));
        let spilled = wire_bytes > threshold;
        let p50s = [
            Variant::Queue,
            Variant::Object,
            Variant::Hybrid,
            Variant::Direct,
        ]
        .map(|variant| p50(variant, total_nnz, 0.0));
        let [queue, object, hybrid, direct] = p50s;
        // The hybrid contract the §IV-C bands are built on.
        if spilled {
            assert!(
                hybrid <= queue,
                "{label}: spilled hybrid p50 {hybrid} must not exceed queue p50 {queue}"
            );
        } else {
            assert!(
                hybrid <= object,
                "{label}: inline hybrid p50 {hybrid} must not exceed object p50 {object}"
            );
            // The direct contract behind the §IV-C Direct band: on
            // small/mid inline payloads, zero per-message API cost must
            // beat the cheapest managed transport.
            assert!(
                direct <= queue,
                "{label}: inline direct p50 {direct} must not exceed queue p50 {queue}"
            );
        }
        let mut cells = vec![
            label.to_string(),
            total_nnz.to_string(),
            format!("{:.0} KiB", wire_bytes as f64 / 1024.0),
            if spilled { "spill" } else { "inline" }.to_string(),
        ];
        cells.extend(p50s.map(|us| format!("{:.1}ms", us as f64 / 1000.0)));
        table.row(cells);
        sweep_rows.push(row!(
            label: label,
            payload_nnz: total_nnz,
            wire_bytes: wire_bytes,
            spilled: spilled,
            queue_p50_us: queue,
            object_p50_us: object,
            hybrid_p50_us: hybrid,
            direct_p50_us: direct,
        ));
    }
    table.print(&format!(
        "Channel matrix — 1→{FANOUT} layer fan-out, {ROUNDS} layers, {SAMPLES} seeded samples, \
         spill threshold {} KiB (serialized)",
        threshold / 1024
    ));

    // Direct-transport resilience: sweep the NAT-punch transient failure
    // rate on the small inline payload. Every handshake refusal is billed,
    // elapsed and retried, so latency may only climb with the rate —
    // payloads are conserved at every point (asserted inside `measure`).
    let mut punch_table = Table::new(&["punch fail rate", "direct p50"]);
    let mut punch_rows = Vec::new();
    let mut fault_free = None;
    for rate in [0.0, 0.1, 0.3] {
        let v = p50(Variant::Direct, 2_000, rate);
        let fault_free = *fault_free.get_or_insert(v);
        let rate_pct = (rate * 100.0) as u32;
        assert!(
            v >= fault_free,
            "punch failures can only add retry time: {rate_pct}% p50 {v} < fault-free {fault_free}"
        );
        punch_table.row(vec![
            format!("{:.0}%", rate * 100.0),
            format!("{:.1}ms", v as f64 / 1000.0),
        ]);
        punch_rows.push(row!(punch_fail_rate_pct: rate_pct, direct_punch_p50_us: v));
    }
    punch_table.print(&format!(
        "Direct under punch faults — small payload, 1→{FANOUT} fan-out, {ROUNDS} layers, \
         {SAMPLES} seeded samples"
    ));

    // Machine-readable emission for the CI bench-regression gate.
    gate::emit(
        "comm_matrix",
        &[
            ("samples", SAMPLES.into()),
            ("rounds", ROUNDS.into()),
            ("spill_threshold", threshold.into()),
        ],
        &[("sweeps", sweep_rows), ("punch_sweeps", punch_rows)],
    );
}
