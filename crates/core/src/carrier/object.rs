//! FSD-Inf-Object: the object-storage carrier (FSI Algorithm 2).
//!
//! Send path: exactly one object per (source, target) pair per tag —
//! `bucket-{n % B}/f{flow}/{tag}/{n}/{m}_{n}.dat` for data, or a 0-byte
//! `….nul` marker when the source has nothing to ship (so targets never
//! read empty files).
//!
//! Receive path: each worker scans only its own bucket/prefix with LIST; a
//! source is complete when its file has *surfaced by name*. At completion
//! `.nul` markers are skipped and the `.dat` files are fetched with GET;
//! files from already-completed sources are never fetched (the paper's
//! redundant-read optimization).

use super::{Arrival, Carrier, Core, Cx, Opened, Sends, Wire};
use fsd_comm::{bucket_name, VClock, VirtualTime};
use fsd_faas::{FaasError, WorkerCtx};
use std::cmp::Ordering;
use std::sync::Arc;

/// Every key lives under a `f{flow}/` namespace of the environment's
/// pre-created buckets, so concurrent requests share them without LIST
/// scans ever surfacing each other's files.
pub(crate) struct ObjectCarrier {
    n_buckets: usize,
}

/// One object to write.
pub(crate) struct ObjectPut {
    bucket: String,
    pub(super) key: String,
    pub(super) body: Arc<[u8]>,
}

impl ObjectCarrier {
    /// Bucket for a target worker: `bucket-{n % B}` (k-fold API limit).
    fn bucket_for(&self, target: u32) -> String {
        bucket_name(target as usize % self.n_buckets)
    }

    /// Prefix a target scans for a tag: `f{flow}/{tag}/{target}/`.
    fn prefix_for(cx: &Cx, target: u32) -> String {
        format!("f{}/{}/{}/", cx.flow, cx.tag.key_segment(), target)
    }

    /// The object `{src}_{target}{suffix}` under `target`'s prefix.
    pub(crate) fn object(&self, cx: &Cx, target: u32, suffix: &str, body: Vec<u8>) -> ObjectPut {
        let prefix = Self::prefix_for(cx, target);
        ObjectPut {
            bucket: self.bucket_for(target),
            key: format!("{prefix}{}_{target}{suffix}", cx.rank),
            body: body.into(),
        }
    }

    /// One GET from the receiver's bucket (a pure read: retried).
    pub(crate) fn get(
        &self,
        cx: &Cx,
        clock: &mut VClock,
        key: &str,
    ) -> Result<Arc<[u8]>, FaasError> {
        let (store, bucket) = (cx.env.object_store(), self.bucket_for(cx.rank));
        let get = |clock: &mut VClock| store.get(&bucket, key, clock);
        let body = cx.retried(clock, "get", || key.to_string(), get)?;
        cx.stats.add(&cx.stats.s3_gets, 1);
        Ok(body)
    }
}

/// Parses `{src}_{target}[.c{i}].(dat|nul)` file names; returns `src`.
fn parse_source(key: &str) -> Option<u32> {
    let name = key.rsplit('/').next()?;
    let (stem, ext) = name.rsplit_once('.')?;
    if ext != "nul" && ext != "dat" {
        return None;
    }
    let (src, _target) = stem.split_once('_')?;
    src.parse().ok()
}

impl Carrier for ObjectCarrier {
    type Parcel = ObjectPut;
    /// The object's key.
    type Body = String;
    const DESTRUCTIVE_TAKE: bool = false;
    const DECODE_BEFORE_SETTLE: bool = false;

    fn bind(core: &Core) -> ObjectCarrier {
        ObjectCarrier {
            n_buckets: core.env.config().n_buckets.max(1),
        }
    }

    /// Deletes this flow's namespaced objects from every bucket (offline
    /// housekeeping; deletes are free on the billing model, as on S3).
    fn release(&self, core: &Core) {
        let (store, flow_prefix) = (core.env.object_store(), format!("f{}/", core.flow));
        for i in 0..self.n_buckets {
            store.delete_prefix(&bucket_name(i), &flow_prefix);
        }
    }

    fn frame(&self, cx: &Cx, ctx: &mut WorkerCtx, sends: &Sends) -> Vec<Vec<ObjectPut>> {
        let puts = sends.iter().map(|(target, rows)| {
            if rows.is_empty() && cx.opts.nul_markers {
                // Algorithm 2 line 5: a 0-byte marker instead of data.
                self.object(cx, *target, ".nul", Vec::new())
            } else {
                self.object(cx, *target, ".dat", cx.encode(ctx, rows))
            }
        });
        vec![puts.collect()]
    }

    /// A faulted PUT bills but stores nothing, so it is retried.
    fn put(&self, cx: &Cx, lane: &mut VClock, put: &ObjectPut) -> Result<(), FaasError> {
        let store = cx.env.object_store();
        let write = |lane: &mut VClock| store.put(&put.bucket, &put.key, put.body.clone(), lane);
        cx.retried(lane, "put", || put.key.clone(), write)?;
        cx.stats.add(&cx.stats.s3_puts, 1);
        cx.stats.add(&cx.stats.s3_bytes_put, put.body.len() as u64);
        Ok(())
    }

    /// Keys surface in key order, not arrival order, so the engine tells
    /// new from old by count and by which sources are still pending.
    fn take(&self, cx: &Cx, known: usize) -> Result<Vec<Arrival<String>>, FaasError> {
        let (store, prefix) = (cx.env.object_store(), Self::prefix_for(cx, cx.rank));
        let found = store
            .scan_keys(&self.bucket_for(cx.rank), &prefix, known)
            .map_err(|e| FaasError::comm("list", &prefix, e))?;
        let arrival = |(key, stamp): (String, VirtualTime)| Arrival {
            tag: cx.code,
            stamp,
            // A name that does not parse belongs to no source: it is
            // counted, so `known` stays in step with the store, and is
            // never pending, so it is never opened.
            src: parse_source(&key).unwrap_or(u32::MAX),
            total_chunks: 1,
            body: key,
        };
        Ok(found.into_iter().map(arrival).collect())
    }

    fn order(a: &Arrival<String>, b: &Arrival<String>) -> Ordering {
        (a.stamp, &a.body).cmp(&(b.stamp, &b.body))
    }

    fn settle(&self, cx: &Cx, clock: &mut VClock, raw: &[Arrival<String>]) {
        let stamps: Vec<VirtualTime> = raw.iter().map(|a| a.stamp).collect();
        let scans = cx.env.object_store().settle_scans(clock, None, &stamps);
        cx.stats.add(&cx.stats.s3_lists, scans);
    }

    fn open<'a>(&self, cx: &Cx, clock: &mut VClock, key: &'a String) -> Opened<'a> {
        if key.ends_with(".nul") {
            return Ok(None);
        }
        Ok(Some(Wire::Fetched(self.get(cx, clock, key)?)))
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{bind, rows, with_ctx};
    use super::*;
    use crate::channel::{ChannelOptions, RecvTracker, Tag};
    use fsd_comm::{CloudConfig, CloudEnv};
    use fsd_sparse::SparseRows;

    #[test]
    fn parse_sources() {
        assert_eq!(parse_source("L3/5/2_5.dat"), Some(2));
        assert_eq!(parse_source("L3/5/12_5.nul"), Some(12));
        assert_eq!(parse_source("f1/L0/5/7_5.c0.dat"), Some(7));
        assert_eq!(parse_source("L3/5/garbage"), None);
        assert_eq!(parse_source("L3/5/x_5.tmp"), None);
    }

    #[test]
    fn nul_marker_completes_without_get() {
        let env = CloudEnv::new(CloudConfig::deterministic(12));
        let ch = bind::<ObjectCarrier>(&env, 2, ChannelOptions::default());
        let ch2 = ch.clone();
        with_ctx(env.clone(), move |ctx| {
            ch2.send_layer(ctx, Tag::Layer(0), 0, &[(1, SparseRows::new(4))])
        });
        let before_gets = env.snapshot().s3_get_requests;
        let got = with_ctx(env.clone(), move |ctx| {
            let mut tracker = RecvTracker::expecting([0u32]);
            ch.receive_all(ctx, Tag::Layer(0), 1, &mut tracker)
        });
        assert!(got.is_empty());
        assert_eq!(
            env.snapshot().s3_get_requests,
            before_gets,
            ".nul file was GET-read"
        );
    }

    #[test]
    fn one_put_per_target_per_layer() {
        let env = CloudEnv::new(CloudConfig::deterministic(13));
        let ch = bind::<ObjectCarrier>(&env, 4, ChannelOptions::default());
        let ch2 = ch.clone();
        let sends: Vec<(u32, SparseRows)> =
            vec![(1, rows(&[0])), (2, rows(&[1, 2])), (3, SparseRows::new(4))];
        with_ctx(env, move |ctx| {
            ch2.send_layer(ctx, Tag::Layer(0), 0, &sends)
        });
        let snap = ch.stats().snapshot();
        assert_eq!(
            snap.s3_puts, 3,
            "object channel must put exactly one file per target"
        );
    }

    #[test]
    fn completed_sources_not_reread() {
        let env = CloudEnv::new(CloudConfig::deterministic(14));
        let ch = bind::<ObjectCarrier>(&env, 2, ChannelOptions::default());
        let ch_send = ch.clone();
        with_ctx(env.clone(), move |ctx| {
            ch_send.send_layer(ctx, Tag::Layer(0), 0, &[(1, rows(&[5]))])
        });
        let ch_recv = ch.clone();
        with_ctx(env.clone(), move |ctx| {
            let mut tracker = RecvTracker::expecting([0u32]);
            ch_recv.receive_all(ctx, Tag::Layer(0), 1, &mut tracker)?;
            // Second round on a fresh tracker that does NOT expect source 0:
            // the .dat file is still listed, but must not be fetched again.
            let gets_before = ch_recv.stats().snapshot().s3_gets;
            let mut empty_tracker = RecvTracker::expecting([]);
            ch_recv.receive_round(ctx, Tag::Layer(0), 1, &mut empty_tracker)?;
            assert_eq!(ch_recv.stats().snapshot().s3_gets, gets_before);
            Ok(())
        });
    }

    #[test]
    fn different_targets_use_disjoint_prefixes() {
        let env = CloudEnv::new(CloudConfig::deterministic(15));
        // 2 workers share bucket count 10 → different buckets; force the
        // collision case with 12 workers: 1 and 11 share bucket-1.
        let ch = bind::<ObjectCarrier>(&env, 12, ChannelOptions::default());
        let ch2 = ch.clone();
        with_ctx(env.clone(), move |ctx| {
            ch2.send_layer(ctx, Tag::Layer(0), 0, &[(1, rows(&[1])), (11, rows(&[2]))])
        });
        let ch_recv = ch.clone();
        let got1 = with_ctx(env.clone(), move |ctx| {
            let mut t = RecvTracker::expecting([0u32]);
            ch_recv.receive_all(ctx, Tag::Layer(0), 1, &mut t)
        });
        assert_eq!(got1[0].1.ids(), &[1]);
        let got11 = with_ctx(env, move |ctx| {
            let mut t = RecvTracker::expecting([0u32]);
            ch.receive_all(ctx, Tag::Layer(0), 11, &mut t)
        });
        assert_eq!(got11[0].1.ids(), &[2]);
    }
}
