//! Shared helpers for the integration suites.

use fsd_inference::core::Variant;

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
        let names: Vec<&str> = Variant::ALL
            .into_iter()
            .filter_map(Variant::channel_name)
            .collect();
        panic!("FSD_TEST_VARIANT={name:?}: expected {}", names.join(" | "))
    })
}
