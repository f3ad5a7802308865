//! S3-like object storage.
//!
//! FSD-Inf-Object spreads intermediate-result files over multiple buckets
//! (`bucket-{n % 10}`) and per-target prefixes; each worker scans a single
//! prefix with LIST and reads `.dat` files with GET (never the 0-byte
//! `.nul` markers). PUT/GET/LIST are billed per request regardless of
//! object size — the economics the paper's cost model builds on.
//!
//! Visibility follows virtual time: an object written at virtual time `t`
//! is visible to a GET whose clock has reached `t` (read-after-write
//! consistency in simulated time, preventing causality violations between
//! workers whose clocks have drifted apart). The prefix rescan of
//! Algorithm 2 goes through the crate's one receive protocol: a raw
//! [`ObjectStore::scan_keys`] returns every key with its stamp, and
//! [`ObjectStore::settle_scans`] bills the LIST sequence that would have
//! surfaced those stamps — a LIST bills and moves a clock only there.

use crate::env::Region;
use crate::fault::ApiClass;
use crate::mailbox::wait_for_producers;
use crate::message::CommError;
use crate::time::{VClock, VirtualTime};
use parking_lot::{Condvar, Mutex};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

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
    region: Region,
}

impl ObjectStore {
    pub(crate) fn new(region: Region) -> ObjectStore {
        ObjectStore {
            buckets: Mutex::new(HashMap::new()),
            cond: Condvar::new(),
            region,
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
        let len = bytes.len();
        let region = &self.region;
        let fault = region
            .faults
            .check(ApiClass::ObjectPut, clock.flow(), clock.now(), key);
        region.elapse(clock, region.latency.s3_put_total_us(len));
        // Injected PUT failure: billed and the round trip elapses (AWS
        // bills failed requests), but nothing is stored.
        if let Some(kind) = fault {
            region.meter.record_s3_put(clock.flow(), len as u64);
            return Err(kind.to_error(format!("s3:put {bucket}/{key}")));
        }
        let available_at = clock.now();
        let object = StoredObject {
            bytes,
            available_at,
        };
        self.store(bucket, key, object)?;
        region.meter.record_s3_put(clock.flow(), len as u64);
        Ok(())
    }

    /// Writes `object` under `bucket/key` (overwriting) and wakes scanners.
    fn store(&self, bucket: &str, key: &str, object: StoredObject) -> Result<(), CommError> {
        self.buckets
            .lock()
            .get_mut(bucket)
            .ok_or_else(|| no_such_bucket(bucket))?
            .insert(key.to_string(), object);
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
        let object = StoredObject {
            bytes: bytes.into(),
            available_at: VirtualTime::ZERO,
        };
        self.store(bucket, key, object)
    }

    /// One `GET`: returns the object body if it exists and is visible at
    /// the caller's clock. Billed even when it fails (as on AWS).
    pub fn get(&self, bucket: &str, key: &str, clock: &mut VClock) -> Result<Arc<[u8]>, CommError> {
        // Injected GET failure: billed as an unproductive request, the
        // first-byte round trip elapses, no body moves.
        if let Some(kind) =
            self.region
                .faults
                .check(ApiClass::ObjectGet, clock.flow(), clock.now(), key)
        {
            self.bill_get(clock, 0);
            return Err(kind.to_error(format!("s3:get {bucket}/{key}")));
        }
        let found = self
            .buckets
            .lock()
            .get(bucket)
            .ok_or_else(|| no_such_bucket(bucket))?
            .get(key)
            .filter(|o| o.available_at <= clock.now())
            .map(|o| o.bytes.clone());
        self.bill_get(clock, found.as_ref().map_or(0, |body| body.len()));
        found.ok_or_else(|| CommError::NoSuchKey {
            key: format!("{bucket}/{key}"),
        })
    }

    /// Bills one GET that moved `bytes` of body — none when it failed or
    /// found nothing: only the first-byte round trip elapses.
    fn bill_get(&self, clock: &mut VClock, bytes: usize) {
        self.region.meter.record_s3_get(clock.flow(), bytes as u64);
        self.region
            .elapse(clock, self.region.latency.s3_get_total_us(bytes));
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
            return Err(no_such_bucket(bucket));
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

    /// Bills one LIST round trip: each scan of
    /// [`ObjectStore::settle_scans`].
    pub(crate) fn empty_scan(&self, clock: &mut VClock) {
        self.region.meter.record_s3_list(clock.flow());
        self.region.elapse(clock, self.region.latency.s3_list_us);
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
        let interval = scan_interval_us
            .unwrap_or(self.region.latency.s3_list_us)
            .max(1);
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
                    self.region.meter.record_s3_list(clock.flow());
                }
                scans += waiting;
                clock.observe(next);
            }
            // The productive scan surfaces everything visible at this
            // instant.
            while i < stamps.len() && stamps[i] <= clock.now() {
                i += 1;
            }
            self.empty_scan(clock);
            scans += 1;
        }
        if scans == 0 {
            // Nothing to wait for still costs the scan that proved it.
            self.empty_scan(clock);
            scans = 1;
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
            .region
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

fn no_such_bucket(bucket: &str) -> CommError {
    CommError::NoSuchBucket {
        bucket: bucket.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> ObjectStore {
        ObjectStore::new(Region::deterministic())
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
        assert_eq!(s.region.meter.snapshot().s3_get_requests, 1);
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
            s.scan_keys("ghost", "", 0),
            Err(CommError::NoSuchBucket { .. })
        ));
    }

    #[test]
    fn scan_filters_by_prefix() {
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
        let found = s.scan_keys("b", "1/5/", 0).expect("scan");
        let keys: Vec<&str> = found.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, vec!["1/5/0_5.dat", "1/5/2_5.nul"]);
    }

    #[test]
    fn objects_invisible_before_available_at() {
        let s = store();
        s.create_bucket("b");
        // Writer with a fast-forwarded clock writes "in the future".
        let mut writer = VClock::starting_at(VirtualTime::from_secs_f64(50.0));
        s.put("b", "k.dat", &b"x"[..], &mut writer).expect("put");
        // A reader still at t=0 cannot read it...
        let mut reader = VClock::default();
        assert!(s.get("b", "k.dat", &mut reader).is_err());
        // ...until the settled scan sequence that surfaces it has carried
        // its clock past the availability stamp.
        let (keys, _) = scan_and_settle(&s, "", &mut reader, None);
        assert_eq!(keys, 1);
        assert!(reader.now() >= writer.now());
        assert!(s.get("b", "k.dat", &mut reader).is_ok());
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
        scan_and_settle(&s, "", &mut clock, None);
        let snap = s.region.meter.snapshot();
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
        assert_eq!(s.region.meter.snapshot().s3_list_requests, 11);
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
        assert_eq!(s.region.meter.snapshot().s3_list_requests, 1);
    }

    #[test]
    fn drought_scans_nothing_and_empty_scan_bills_one_list() {
        let s = store();
        s.create_bucket("b");
        let mut reader = VClock::default();
        // No producer within the real-time grace: the scan moves no clock
        // and bills nothing. One LIST bills one call and its round trip.
        assert!(s.scan_keys("b", "none/", 0).expect("scan").is_empty());
        assert_eq!(reader.now(), VirtualTime::ZERO);
        assert_eq!(s.region.meter.snapshot().s3_list_requests, 0);
        s.empty_scan(&mut reader);
        assert_eq!(s.region.meter.snapshot().s3_list_requests, 1);
        assert!(reader.now() > VirtualTime::ZERO);
        // Settling an empty stamp set still costs the scan that proved it.
        assert_eq!(s.settle_scans(&mut reader, None, &[]), 1);
        assert_eq!(s.region.meter.snapshot().s3_list_requests, 2);
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
        assert_eq!(s.scan_keys("b", "", 0).expect("scan").len(), 100);
    }
}
