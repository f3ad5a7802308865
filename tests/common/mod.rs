//! Shared helpers for the integration suites.

// Each suite compiles this module on its own and uses a subset of it.
#![allow(dead_code)]

use fsd_inference::core::Variant;
use proptest::prelude::Strategy;
use std::sync::mpsc::{channel, RecvTimeoutError};
use std::time::Duration;

/// Every channel transport, in [`Variant::ALL`] order: each variant but
/// Serial (a one-rank tree that never sends) and Auto (which resolves into
/// another variant first). The suites iterate this, so a new transport
/// joins every one of them without an edit.
pub fn channel_variants() -> impl Iterator<Item = Variant> {
    Variant::ALL
        .into_iter()
        .filter(|v| !matches!(v, Variant::Serial | Variant::Auto))
}

/// A proptest strategy drawing one of [`channel_variants`].
pub fn any_channel_variant() -> impl Strategy<Value = Variant> {
    let all: Vec<Variant> = channel_variants().collect();
    (0..all.len()).prop_map(move |i| all[i])
}

/// How long a liveness test may run before [`watchdog`] fails it: far
/// above what any of them takes in a debug build.
const WATCHDOG_SECS: u64 = 120;

/// Runs a liveness test's `body` on its own thread and fails the calling
/// test, naming it, if the body is still running after [`WATCHDOG_SECS`].
/// Raw receives wait untimed until their producer posts or their tree's
/// poison wakes them, so a missed wake hangs; this turns the hang into
/// one failed test. A panic in the body fails the test as usual.
pub fn watchdog(body: impl FnOnce() + Send + 'static) {
    let secs = WATCHDOG_SECS;
    let test = std::thread::current()
        .name()
        .unwrap_or("liveness test")
        .to_string();
    let (finished, done) = channel();
    let runner = std::thread::spawn(move || {
        body();
        let _ = finished.send(());
    });
    match done.recv_timeout(Duration::from_secs(secs)) {
        Err(RecvTimeoutError::Timeout) => {
            panic!("{test}: still running after {secs} s — a blocked receiver was never woken")
        }
        Ok(()) | Err(RecvTimeoutError::Disconnected) => {
            if let Err(panic) = runner.join() {
                std::panic::resume_unwind(panic);
            }
        }
    }
}
