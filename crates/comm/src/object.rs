//! S3-like object storage.
//!
//! FSD-Inf-Object spreads intermediate-result files over multiple buckets
//! (`bucket-{n % 10}`) and per-target prefixes; each worker scans a single
//! prefix with LIST and reads `.dat` files with GET (never the 0-byte
//! `.nul` markers). PUT/GET/LIST are billed per request regardless of
//! object size — the economics the paper's cost model builds on.
//!
//! Visibility follows virtual time: an object written at virtual time `t`
//! is visible to LIST/GET calls whose clock has reached `t` (read-after-
//! write consistency in simulated time, preventing causality violations
//! between workers whose clocks have drifted apart).

use crate::fault::{ApiClass, FaultPlane};
use crate::grace::wait_for_producers;
use crate::latency::{Jitter, LatencyModel};
use crate::message::CommError;
use crate::meter::ServiceMeter;
use crate::time::{VClock, VirtualTime};
use parking_lot::{Condvar, Mutex};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Duration;

/// Real-time wait before an empty LIST returns (prevents busy-spinning
/// while producer threads catch up; virtual cost is modeled separately).
const REAL_WAIT: Duration = Duration::from_millis(2);

#[derive(Clone)]
struct StoredObject {
    bytes: Arc<[u8]>,
    available_at: VirtualTime,
}

type Buckets = HashMap<String, BTreeMap<String, StoredObject>>;

/// The object storage service.
pub struct ObjectStore {
    buckets: Mutex<Buckets>,
    cond: Condvar,
    meter: Arc<ServiceMeter>,
    latency: LatencyModel,
    jitter: Arc<Jitter>,
    faults: Arc<FaultPlane>,
}

impl ObjectStore {
    pub(crate) fn new(
        meter: Arc<ServiceMeter>,
        latency: LatencyModel,
        jitter: Arc<Jitter>,
        faults: Arc<FaultPlane>,
    ) -> ObjectStore {
        ObjectStore {
            buckets: Mutex::new(HashMap::new()),
            cond: Condvar::new(),
            meter,
            latency,
            jitter,
            faults,
        }
    }

    /// Creates a bucket (idempotent). Buckets are pre-created offline in
    /// the paper's deployment, so this is not billed.
    pub fn create_bucket(&self, name: &str) {
        self.buckets.lock().entry(name.to_string()).or_default();
    }

    /// Removes a bucket and everything in it (idempotent) — the teardown
    /// twin of [`ObjectStore::create_bucket`]. Like creation, bucket
    /// lifecycle is an offline control-plane operation and is not billed.
    pub fn remove_bucket(&self, name: &str) {
        self.buckets.lock().remove(name);
        self.cond.notify_all();
    }

    /// Whether a bucket exists.
    pub fn bucket_exists(&self, name: &str) -> bool {
        self.buckets.lock().contains_key(name)
    }

    /// One `PUT`: stores `bytes` under `bucket/key`, visible at the
    /// caller's clock plus the PUT duration. Overwrites are allowed (S3
    /// semantics); billing is per request, independent of size.
    pub fn put(
        &self,
        bucket: &str,
        key: &str,
        bytes: impl Into<Arc<[u8]>>,
        clock: &mut VClock,
    ) -> Result<(), CommError> {
        let bytes = bytes.into();
        let dur = self.jitter.apply(self.latency.s3_put_total_us(bytes.len()));
        // Injected PUT failure: billed and the round trip elapses (AWS
        // bills failed requests), but nothing is stored.
        if let Some(kind) = self
            .faults
            .check(ApiClass::ObjectPut, clock.flow(), clock.now(), key)
        {
            self.meter.record_s3_put(clock.flow(), bytes.len() as u64);
            clock.advance_micros(dur);
            return Err(kind.to_error(format!("s3:put {bucket}/{key}")));
        }
        clock.advance_micros(dur);
        let mut buckets = self.buckets.lock();
        let b = buckets
            .get_mut(bucket)
            .ok_or_else(|| CommError::NoSuchBucket {
                bucket: bucket.to_string(),
            })?;
        self.meter.record_s3_put(clock.flow(), bytes.len() as u64);
        b.insert(
            key.to_string(),
            StoredObject {
                bytes,
                available_at: clock.now(),
            },
        );
        drop(buckets);
        self.cond.notify_all();
        Ok(())
    }

    /// Offline PUT: stores an object visible from time zero, without
    /// billing. Used for artifacts staged *before* a run (model blocks,
    /// partition maps) — the paper treats partitioning and staging as
    /// offline post-processing of the trained model.
    pub fn put_offline(
        &self,
        bucket: &str,
        key: &str,
        bytes: impl Into<Arc<[u8]>>,
    ) -> Result<(), CommError> {
        let bytes = bytes.into();
        let mut buckets = self.buckets.lock();
        let b = buckets
            .get_mut(bucket)
            .ok_or_else(|| CommError::NoSuchBucket {
                bucket: bucket.to_string(),
            })?;
        b.insert(
            key.to_string(),
            StoredObject {
                bytes,
                available_at: VirtualTime::ZERO,
            },
        );
        drop(buckets);
        self.cond.notify_all();
        Ok(())
    }

    /// One `GET`: returns the object body if it exists and is visible at
    /// the caller's clock. Billed even when it fails (as on AWS).
    pub fn get(&self, bucket: &str, key: &str, clock: &mut VClock) -> Result<Arc<[u8]>, CommError> {
        // Injected GET failure: billed as an unproductive request, the
        // first-byte round trip elapses, no body moves.
        if let Some(kind) = self
            .faults
            .check(ApiClass::ObjectGet, clock.flow(), clock.now(), key)
        {
            self.meter.record_s3_get(clock.flow(), 0);
            clock.advance_micros(self.jitter.apply(self.latency.s3_get_us));
            return Err(kind.to_error(format!("s3:get {bucket}/{key}")));
        }
        let buckets = self.buckets.lock();
        let b = buckets.get(bucket).ok_or_else(|| CommError::NoSuchBucket {
            bucket: bucket.to_string(),
        })?;
        let found = b
            .get(key)
            .filter(|o| o.available_at <= clock.now())
            .cloned();
        drop(buckets);
        match found {
            Some(obj) => {
                self.meter
                    .record_s3_get(clock.flow(), obj.bytes.len() as u64);
                clock.advance_micros(
                    self.jitter
                        .apply(self.latency.s3_get_total_us(obj.bytes.len())),
                );
                Ok(obj.bytes)
            }
            None => {
                self.meter.record_s3_get(clock.flow(), 0);
                clock.advance_micros(self.jitter.apply(self.latency.s3_get_us));
                Err(CommError::NoSuchKey {
                    key: format!("{bucket}/{key}"),
                })
            }
        }
    }

    /// One `LIST`: keys under `prefix` visible at the caller's clock (after
    /// the LIST round trip). If nothing is visible, blocks briefly in real
    /// time for producers before re-checking, then returns (possibly empty).
    pub fn list(
        &self,
        bucket: &str,
        prefix: &str,
        clock: &mut VClock,
    ) -> Result<Vec<String>, CommError> {
        self.meter.record_s3_list(clock.flow());
        clock.advance_micros(self.jitter.apply(self.latency.s3_list_us));
        let mut buckets = self.buckets.lock();
        if !buckets.contains_key(bucket) {
            return Err(CommError::NoSuchBucket {
                bucket: bucket.to_string(),
            });
        }
        let collect = |buckets: &Buckets| {
            buckets[bucket]
                .range(prefix.to_string()..)
                .take_while(|(k, _)| k.starts_with(prefix))
                .filter(|(_, o)| o.available_at <= clock.now())
                .map(|(k, _)| k.clone())
                .collect::<Vec<String>>()
        };
        let mut keys = collect(&buckets);
        if keys.is_empty() {
            self.cond.wait_for(&mut buckets, REAL_WAIT);
            keys = collect(&buckets);
        }
        Ok(keys)
    }

    /// Raw scan for the deterministic channel receive path: blocks briefly
    /// in *real* time while no more than `known` keys match, then returns
    /// every matching `(key, availability stamp)` — **no billing, no clock
    /// movement, no visibility filter**. The caller later reconstructs the
    /// billed continuous-rescan sequence from the stamps with
    /// [`ObjectStore::settle_scans`], decoupling billing and timing from
    /// real-thread scheduling.
    pub fn scan_keys(
        &self,
        bucket: &str,
        prefix: &str,
        known: usize,
    ) -> Result<Vec<(String, VirtualTime)>, CommError> {
        let mut buckets = self.buckets.lock();
        if !buckets.contains_key(bucket) {
            return Err(CommError::NoSuchBucket {
                bucket: bucket.to_string(),
            });
        }
        fn under<'a>(
            buckets: &'a Buckets,
            bucket: &str,
            prefix: &'a str,
        ) -> impl Iterator<Item = (&'a String, &'a StoredObject)> {
            let keys = buckets.get(bucket).into_iter();
            keys.flat_map(move |b| {
                b.range(prefix.to_string()..)
                    .take_while(move |(k, _)| k.starts_with(prefix))
            })
        }
        wait_for_producers(&self.cond, &mut buckets, |b| {
            under(b, bucket, prefix).count() > known
        });
        Ok(under(&buckets, bucket, prefix)
            .map(|(k, o)| (k.clone(), o.available_at))
            .collect())
    }

    /// Bills one unproductive LIST (the liveness escape hatch of the
    /// deterministic receive path when a producer has really not shown up
    /// within the real-time grace).
    pub fn empty_scan(&self, clock: &mut VClock) {
        self.meter.record_s3_list(clock.flow());
        clock.advance_micros(self.jitter.apply(self.latency.s3_list_us));
    }

    /// Reconstructs — deterministically, from virtual stamps alone — the
    /// continuous-rescan LIST sequence a consumer starting at `clock`
    /// would have issued until every object with the given availability
    /// stamps had surfaced: objects already visible cost one productive
    /// scan, objects stamped in the virtual future cost
    /// `ceil(gap / scan_interval)` rescans (back-to-back scanning at the
    /// LIST round trip by default) before the productive one. Bills every
    /// scan and advances the clock through the sequence; returns the
    /// number of billed LISTs.
    pub fn settle_scans(
        &self,
        clock: &mut VClock,
        scan_interval_us: Option<u64>,
        stamps: &[VirtualTime],
    ) -> u64 {
        let interval = scan_interval_us.unwrap_or(self.latency.s3_list_us).max(1);
        let mut stamps: Vec<VirtualTime> = stamps.to_vec();
        stamps.sort_unstable();
        let mut scans = 0u64;
        let mut i = 0usize;
        while i < stamps.len() {
            let next = stamps[i];
            if next > clock.now() {
                // Model the rescan loop spinning until the next object
                // lands.
                let gap = next.as_micros() - clock.now().as_micros();
                let waiting = gap / interval;
                for _ in 0..waiting {
                    self.meter.record_s3_list(clock.flow());
                }
                scans += waiting;
                clock.observe(next);
            }
            // The productive scan surfaces everything visible at this
            // instant.
            while i < stamps.len() && stamps[i] <= clock.now() {
                i += 1;
            }
            self.meter.record_s3_list(clock.flow());
            scans += 1;
            clock.advance_micros(self.jitter.apply(self.latency.s3_list_us));
        }
        if scans == 0 {
            // Nothing to wait for still costs the scan that proved it.
            self.meter.record_s3_list(clock.flow());
            scans = 1;
            clock.advance_micros(self.jitter.apply(self.latency.s3_list_us));
        }
        scans
    }

    /// Deletes every object under `prefix` (inter-run cleanup; modeled as
    /// lifecycle expiry, not billed).
    ///
    /// Deletes are free and idempotent in this model, so an injected
    /// fault here is *counted* (observability for chaos runs) but the
    /// modeled lifecycle retry always succeeds — a delete that silently
    /// failed would leak residue with no billed call left to retry.
    pub fn delete_prefix(&self, bucket: &str, prefix: &str) {
        let _ = self
            .faults
            .check(ApiClass::ObjectDelete, 0, VirtualTime::ZERO, prefix);
        if let Some(b) = self.buckets.lock().get_mut(bucket) {
            b.retain(|k, _| !k.starts_with(prefix));
        }
    }

    /// Total object count in a bucket (diagnostics/tests).
    pub fn object_count(&self, bucket: &str) -> usize {
        self.buckets.lock().get(bucket).map_or(0, |b| b.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> ObjectStore {
        ObjectStore::new(
            Arc::new(ServiceMeter::new()),
            LatencyModel::deterministic(),
            Arc::new(Jitter::new(5, 0.0)),
            Arc::new(FaultPlane::disabled()),
        )
    }

    #[test]
    fn put_get_roundtrip() {
        let s = store();
        s.create_bucket("b0");
        let mut clock = VClock::default();
        s.put("b0", "1/2/3_4.dat", &b"payload"[..], &mut clock)
            .expect("put");
        let got = s.get("b0", "1/2/3_4.dat", &mut clock).expect("get");
        assert_eq!(&got[..], b"payload");
    }

    #[test]
    fn get_missing_key_fails_but_is_billed() {
        let s = store();
        s.create_bucket("b0");
        let mut clock = VClock::default();
        assert!(matches!(
            s.get("b0", "nope", &mut clock),
            Err(CommError::NoSuchKey { .. })
        ));
        assert_eq!(s.meter.snapshot().s3_get_requests, 1);
    }

    #[test]
    fn missing_bucket_fails() {
        let s = store();
        let mut clock = VClock::default();
        assert!(matches!(
            s.put("ghost", "k", &b"x"[..], &mut clock),
            Err(CommError::NoSuchBucket { .. })
        ));
        assert!(matches!(
            s.list("ghost", "", &mut clock),
            Err(CommError::NoSuchBucket { .. })
        ));
    }

    #[test]
    fn list_filters_by_prefix() {
        let s = store();
        s.create_bucket("b");
        let mut clock = VClock::default();
        s.put("b", "1/5/0_5.dat", &b"x"[..], &mut clock)
            .expect("put");
        s.put("b", "1/5/2_5.nul", &[][..], &mut clock).expect("put");
        s.put("b", "1/6/0_6.dat", &b"x"[..], &mut clock)
            .expect("put");
        s.put("b", "2/5/0_5.dat", &b"x"[..], &mut clock)
            .expect("put");
        let mut reader = VClock::starting_at(VirtualTime::from_secs_f64(100.0));
        let keys = s.list("b", "1/5/", &mut reader).expect("list");
        assert_eq!(
            keys,
            vec!["1/5/0_5.dat".to_string(), "1/5/2_5.nul".to_string()]
        );
    }

    #[test]
    fn objects_invisible_before_available_at() {
        let s = store();
        s.create_bucket("b");
        // Writer with a fast-forwarded clock writes "in the future".
        let mut writer = VClock::starting_at(VirtualTime::from_secs_f64(50.0));
        s.put("b", "k.dat", &b"x"[..], &mut writer).expect("put");
        // Reader still at t=0 cannot see or read it...
        let mut reader = VClock::default();
        assert!(s.list("b", "", &mut reader).expect("list").is_empty());
        assert!(s.get("b", "k.dat", &mut reader).is_err());
        // ...until its clock passes the availability stamp.
        let mut late = VClock::starting_at(VirtualTime::from_secs_f64(60.0));
        assert_eq!(s.list("b", "", &mut late).expect("list").len(), 1);
        assert!(s.get("b", "k.dat", &mut late).is_ok());
    }

    #[test]
    fn put_duration_scales_with_size() {
        let s = store();
        s.create_bucket("b");
        let mut small = VClock::default();
        s.put("b", "s", &b"x"[..], &mut small).expect("put");
        let mut large = VClock::default();
        s.put("b", "l", &vec![0u8; 50_000_000][..], &mut large)
            .expect("put");
        assert!(
            large.now() > small.now().plus_micros(100_000),
            "bandwidth not modeled"
        );
    }

    #[test]
    fn overwrite_replaces_body() {
        let s = store();
        s.create_bucket("b");
        let mut clock = VClock::default();
        s.put("b", "k", &b"v1"[..], &mut clock).expect("put");
        s.put("b", "k", &b"v2"[..], &mut clock).expect("put");
        assert_eq!(&s.get("b", "k", &mut clock).expect("get")[..], b"v2");
        assert_eq!(s.object_count("b"), 1);
    }

    #[test]
    fn delete_prefix_cleans_up() {
        let s = store();
        s.create_bucket("b");
        let mut clock = VClock::default();
        s.put("b", "1/x", &b"a"[..], &mut clock).expect("put");
        s.put("b", "1/y", &b"b"[..], &mut clock).expect("put");
        s.put("b", "2/z", &b"c"[..], &mut clock).expect("put");
        s.delete_prefix("b", "1/");
        assert_eq!(s.object_count("b"), 1);
    }

    #[test]
    fn meters_count_every_call() {
        let s = store();
        s.create_bucket("b");
        let mut clock = VClock::default();
        s.put("b", "k", &b"abc"[..], &mut clock).expect("put");
        s.get("b", "k", &mut clock).expect("get");
        s.list("b", "", &mut clock).expect("list");
        let snap = s.meter.snapshot();
        assert_eq!(snap.s3_put_requests, 1);
        assert_eq!(snap.s3_put_bytes, 3);
        assert_eq!(snap.s3_get_requests, 1);
        assert_eq!(snap.s3_get_bytes, 3);
        assert_eq!(snap.s3_list_requests, 1);
    }

    /// The production scan: raw key scan, then settle the billed rescan
    /// sequence from the stamps. Returns `(keys surfaced, billed LISTs)`.
    fn scan_and_settle(
        s: &ObjectStore,
        prefix: &str,
        reader: &mut VClock,
        interval_us: Option<u64>,
    ) -> (usize, u64) {
        let found = s.scan_keys("b", prefix, 0).expect("scan");
        let stamps: Vec<VirtualTime> = found.iter().map(|(_, t)| *t).collect();
        (found.len(), s.settle_scans(reader, interval_us, &stamps))
    }

    #[test]
    fn settle_bills_rescans_for_future_objects() {
        let s = store();
        s.create_bucket("b");
        let mut writer = VClock::starting_at(VirtualTime::from_secs_f64(1.0));
        s.put("b", "5/3/1_3.dat", &b"x"[..], &mut writer)
            .expect("put");
        let stamp = writer.now();
        // Reader 1s of virtual time behind; scan interval 100ms → 10
        // rescans while the object is in flight, then the productive one.
        let mut reader = VClock::starting_at(VirtualTime(stamp.as_micros() - 1_000_000));
        let (keys, billed) = scan_and_settle(&s, "5/3/", &mut reader, Some(100_000));
        assert_eq!(keys, 1, "the raw scan applies no visibility filter");
        assert_eq!(billed, 11);
        assert_eq!(s.meter.snapshot().s3_list_requests, 11);
        assert!(reader.now() >= stamp);
    }

    #[test]
    fn settle_single_scan_when_ready() {
        let s = store();
        s.create_bucket("b");
        let mut writer = VClock::default();
        s.put("b", "k.dat", &b"x"[..], &mut writer).expect("put");
        let mut reader = VClock::starting_at(VirtualTime::from_secs_f64(10.0));
        let (keys, billed) = scan_and_settle(&s, "", &mut reader, None);
        assert_eq!(keys, 1);
        assert_eq!(billed, 1);
        assert_eq!(s.meter.snapshot().s3_list_requests, 1);
    }

    #[test]
    fn drought_scans_nothing_and_empty_scan_bills_one_list() {
        let s = store();
        s.create_bucket("b");
        let mut reader = VClock::default();
        // No producer within the real-time grace: the scan moves no clock
        // and bills nothing; the caller's drought bill is one LIST.
        assert!(s.scan_keys("b", "none/", 0).expect("scan").is_empty());
        assert_eq!(reader.now(), VirtualTime::ZERO);
        assert_eq!(s.meter.snapshot().s3_list_requests, 0);
        s.empty_scan(&mut reader);
        assert_eq!(s.meter.snapshot().s3_list_requests, 1);
        assert!(reader.now() > VirtualTime::ZERO);
        // Settling an empty stamp set still costs the scan that proved it.
        assert_eq!(s.settle_scans(&mut reader, None, &[]), 1);
        assert_eq!(s.meter.snapshot().s3_list_requests, 2);
        assert!(matches!(
            s.scan_keys("ghost", "", 0),
            Err(CommError::NoSuchBucket { .. })
        ));
    }

    #[test]
    fn concurrent_writers_and_reader() {
        let s = Arc::new(store());
        s.create_bucket("b");
        let mut writers = Vec::new();
        for w in 0..4 {
            let s = s.clone();
            writers.push(std::thread::spawn(move || {
                let mut clock = VClock::default();
                for i in 0..25 {
                    s.put("b", &format!("w{w}/{i}.dat"), &b"data"[..], &mut clock)
                        .expect("put");
                }
            }));
        }
        for h in writers {
            h.join().expect("writer");
        }
        let mut reader = VClock::starting_at(VirtualTime::from_secs_f64(1e6));
        let keys = s.list("b", "", &mut reader).expect("list");
        assert_eq!(keys.len(), 100);
    }
}
