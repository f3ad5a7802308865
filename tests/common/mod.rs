//! Shared helpers for the integration suites.

// Each suite compiles this module on its own and uses a subset of it.
#![allow(dead_code)]

use fsd_inference::core::Variant;
use std::sync::mpsc::{channel, RecvTimeoutError};
use std::time::Duration;

/// The channel variant under test, selected by the `FSD_TEST_VARIANT`
/// environment variable (any `Variant::channel_name`; default `queue`).
/// The CI channel-matrix job sets it per matrix leg, so the same suites
/// exercise every transport.
///
/// # Panics
/// On an unrecognized value — a misconfigured matrix leg must fail loudly,
/// not silently test the default transport.
pub fn test_variant() -> Variant {
    let name = std::env::var("FSD_TEST_VARIANT")
        .unwrap_or_default()
        .to_ascii_lowercase();
    if name.is_empty() {
        return Variant::Queue;
    }
    Variant::from_channel_name(&name).unwrap_or_else(|| {
        panic!("FSD_TEST_VARIANT={name:?}: expected queue | object | hybrid | direct")
    })
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
