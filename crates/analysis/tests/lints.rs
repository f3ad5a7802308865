//! Fixture tests: one known-bad and one known-good snippet per lint,
//! asserting the exact diagnostics (lint name + line) the scanner emits.
//! The fixtures live in `tests/fixtures/` — a directory the workspace
//! walker skips, so committed bad code never fails the real lint run.

use fsd_analysis::{lint_files, Finding};

/// The `Variant` enum every fixture set is linted beside, as the
/// workspace's `engine.rs` is.
const ENGINE: &str = "pub enum Variant { Serial, Queue, Object, Hybrid, Direct, Auto }";

/// Every finding of `files` linted as one set beside the `Variant` enum.
fn lint_set(files: &[(&str, &str)]) -> Vec<Finding> {
    let mut set: Vec<(String, String)> = files
        .iter()
        .map(|&(p, src)| (p.to_string(), src.to_string()))
        .collect();
    set.push(("crates/core/src/engine.rs".into(), ENGINE.into()));
    lint_files(&set)
}

/// `(lint, line)` pairs of every per-file finding of `src` linted alone at
/// `path`. A lone file names none of its own `pub` items elsewhere, so
/// `orphan-pub` is left to its own multi-file fixtures.
fn findings(src: &str, path: &str) -> Vec<(&'static str, u32)> {
    lint_set(&[(path, src)])
        .into_iter()
        .filter(|f| f.file == path && f.lint != "orphan-pub")
        .map(|f| (f.lint, f.line))
        .collect()
}

/// [`findings`] restricted to one lint.
fn findings_of(lint: &str, src: &str, path: &str) -> Vec<(&'static str, u32)> {
    findings(src, path)
        .into_iter()
        .filter(|f| f.0 == lint)
        .collect()
}

#[test]
fn variant_exhaustive_flags_catch_alls_and_gaps() {
    let bad = include_str!("fixtures/bad_variant_match.rs");
    assert_eq!(
        findings(bad, "crates/core/src/fixture.rs"),
        vec![("variant-exhaustive", 3), ("variant-exhaustive", 11)]
    );
    let good = include_str!("fixtures/good_variant_match.rs");
    assert_eq!(findings(good, "crates/core/src/fixture.rs"), vec![]);
}

#[test]
fn variant_exhaustive_reports_missing_variant_names() {
    let bad = include_str!("fixtures/bad_variant_match.rs");
    let path = "crates/core/src/fixture.rs";
    let out: Vec<Finding> = lint_set(&[(path, bad)])
        .into_iter()
        .filter(|f| f.file == path && f.lint == "variant-exhaustive")
        .collect();
    assert!(
        out[0].message.contains("Auto")
            && out[0].message.contains("Hybrid")
            && out[0].message.contains("Object"),
        "diagnostic must name the unnamed variants: {}",
        out[0].message
    );
}

#[test]
fn billing_pair_flags_unbalanced_windows() {
    let bad = include_str!("fixtures/bad_billing_pair.rs");
    assert_eq!(
        findings(bad, "crates/core/src/fixture.rs"),
        vec![("billing-pair", 2)]
    );
    let good = include_str!("fixtures/good_billing_pair.rs");
    assert_eq!(findings(good, "crates/core/src/fixture.rs"), vec![]);
}

#[test]
fn raw_channel_name_flags_inline_literals() {
    let bad = include_str!("fixtures/bad_raw_channel_name.rs");
    assert_eq!(
        findings(bad, "crates/core/src/fixture.rs"),
        vec![("raw-channel-name", 3), ("raw-channel-name", 7)]
    );
    let good = include_str!("fixtures/good_raw_channel_name.rs");
    assert_eq!(findings(good, "crates/core/src/fixture.rs"), vec![]);
}

#[test]
fn teardown_pair_flags_orphan_provisioners() {
    let bad = include_str!("fixtures/bad_teardown_pair.rs");
    assert_eq!(
        findings(bad, "crates/core/src/fixture.rs"),
        vec![
            ("teardown-pair", 2),
            ("teardown-pair", 6),
            ("teardown-pair", 10),
        ]
    );
    let good = include_str!("fixtures/good_teardown_pair.rs");
    assert_eq!(findings(good, "crates/core/src/fixture.rs"), vec![]);
}

#[test]
fn teardown_pair_is_scoped_to_core_and_comm() {
    // The same orphan provisioners outside crates/core//crates/comm pass:
    // other crates do not manage cloud resources.
    let bad = include_str!("fixtures/bad_teardown_pair.rs");
    assert_eq!(findings(bad, "crates/sched/src/fixture.rs"), vec![]);
}

#[test]
fn no_unwrap_flags_the_panic_family() {
    let bad = include_str!("fixtures/bad_no_unwrap.rs");
    assert_eq!(
        findings(bad, "crates/core/src/fixture.rs"),
        vec![
            ("no-unwrap", 3),
            ("no-unwrap", 7),
            ("no-unwrap", 13),
            ("no-unwrap", 18)
        ]
    );
    let good = include_str!("fixtures/good_no_unwrap.rs");
    assert_eq!(findings(good, "crates/core/src/fixture.rs"), vec![]);
}

#[test]
fn no_unwrap_exempts_tests_benches_and_bins() {
    let bad = include_str!("fixtures/bad_no_unwrap.rs");
    for path in [
        "crates/core/tests/fixture.rs",
        "crates/core/benches/fixture.rs",
        "crates/core/src/bin/tool.rs",
        "tests/fixture.rs",
    ] {
        assert_eq!(findings(bad, path), vec![], "{path} must be exempt");
    }
}

#[test]
fn lock_across_blocking_flags_live_guards() {
    // The fixtures' `sleep(` also trips `real-wait` under crates/core.
    let lint = "lock-across-blocking";
    let bad = include_str!("fixtures/bad_lock_across_blocking.rs");
    assert_eq!(
        findings_of(lint, bad, "crates/core/src/fixture.rs"),
        vec![(lint, 4), (lint, 10)]
    );
    let good = include_str!("fixtures/good_lock_across_blocking.rs");
    assert_eq!(
        findings_of(lint, good, "crates/core/src/fixture.rs"),
        vec![]
    );
}

#[test]
fn retry_idempotent_flags_consuming_ops_in_retry_closures() {
    let bad = include_str!("fixtures/bad_retry_idempotent.rs");
    assert_eq!(
        findings(bad, "crates/core/src/fixture.rs"),
        vec![
            ("retry-idempotent", 3),
            ("retry-idempotent", 10),
            ("retry-idempotent", 17)
        ]
    );
    let good = include_str!("fixtures/good_retry_idempotent.rs");
    assert_eq!(findings(good, "crates/core/src/fixture.rs"), vec![]);
}

#[test]
fn real_wait_flags_real_time_anywhere_in_the_serving_stack() {
    let bad = include_str!("fixtures/bad_real_wait.rs");
    // Every wait in comm, faas, core and sched is untimed — the comm
    // mailbox's included.
    for path in [
        "crates/comm/src/queue.rs",
        "crates/comm/src/mailbox.rs",
        "crates/faas/src/fixture.rs",
        "crates/core/src/fixture.rs",
        "crates/sched/src/scheduler.rs",
    ] {
        assert_eq!(
            findings(bad, path),
            vec![("real-wait", 3), ("real-wait", 7), ("real-wait", 11)],
            "{path} is in scope"
        );
    }
    // It is a `tests.rs` module's to use, and no business of this lint in
    // other crates.
    assert_eq!(findings(bad, "crates/core/src/carrier/tests.rs"), vec![]);
    assert_eq!(findings(bad, "crates/partition/src/fixture.rs"), vec![]);
    let good = include_str!("fixtures/good_real_wait.rs");
    assert_eq!(findings(good, "crates/comm/src/queue.rs"), vec![]);
}

#[test]
fn byte_reader_keeps_byte_decoding_in_the_shared_reader() {
    let bad = include_str!("fixtures/bad_byte_reader.rs");
    for path in [
        "crates/sparse/src/codec.rs",
        "crates/core/src/wire.rs",
        "crates/core/src/carrier/hybrid.rs",
        "crates/comm/src/fixture.rs",
    ] {
        assert_eq!(
            findings(bad, path),
            vec![("byte-reader", 2), ("byte-reader", 17)],
            "{path} is in scope"
        );
    }
    // The shared reader itself, test modules and other crates are exempt.
    assert_eq!(findings(bad, "crates/sparse/src/bytes.rs"), vec![]);
    assert_eq!(findings(bad, "crates/core/src/carrier/tests.rs"), vec![]);
    assert_eq!(findings(bad, "crates/faas/src/fixture.rs"), vec![]);
    let good = include_str!("fixtures/good_byte_reader.rs");
    assert_eq!(findings(good, "crates/core/src/carrier/hybrid.rs"), vec![]);
}

#[test]
fn std_lock_keeps_every_serving_stack_lock_in_the_shim() {
    let bad = include_str!("fixtures/bad_std_lock.rs");
    for path in [
        "crates/comm/src/fixture.rs",
        "crates/core/src/warm.rs",
        "crates/faas/src/fixture.rs",
        "crates/sched/src/scheduler.rs",
    ] {
        assert_eq!(
            findings(bad, path),
            vec![
                ("std-lock", 1),
                ("std-lock", 2),
                ("std-lock", 2),
                ("std-lock", 5)
            ],
            "{path} is in scope"
        );
    }
    // Test modules, the shim and other crates are exempt.
    assert_eq!(findings(bad, "crates/core/src/carrier/tests.rs"), vec![]);
    assert_eq!(findings(bad, "crates/shims/parking_lot/src/lib.rs"), vec![]);
    assert_eq!(findings(bad, "crates/bench/src/fixture.rs"), vec![]);
    let good = include_str!("fixtures/good_std_lock.rs");
    assert_eq!(findings(good, "crates/core/src/warm.rs"), vec![]);
}

#[test]
fn allow_comment_silences_only_the_named_line() {
    let src = include_str!("fixtures/allow_escape_hatch.rs");
    // The documented panic! is silenced; the undocumented unwrap is not.
    // An allow with no reason, or naming `all`, suppresses nothing, and the
    // reasonless one is reported on its own line.
    assert_eq!(
        findings(src, "crates/core/src/fixture.rs"),
        vec![
            ("no-unwrap", 11),
            ("no-unwrap", 16),
            ("no-unwrap", 17),
            ("no-unwrap", 23)
        ]
    );
}

#[test]
fn orphan_pub_flags_items_only_tests_comments_and_reexports_name() {
    let lib = "crates/core/src/fixture.rs";
    let bad = include_str!("fixtures/bad_orphan_pub.rs");
    let callers = [
        (lib, bad),
        (
            "crates/core/tests/it.rs",
            "fn t() { named_by_a_test_file(); }",
        ),
        (
            "crates/core/src/other.rs",
            "pub use crate::fixture::NAMED_BY_A_PUB_USE;\n\
             // NAMED_BY_A_COMMENT\n\
             #[cfg(test)]\n\
             mod tests {\n    fn t() { super::named_by_a_cfg_test_block(); }\n}\n\
             fn read(w: &Window) -> u32 { w.span }\n",
        ),
        (
            "crates/core/src/carrier/tests.rs",
            "fn t() { named_by_a_tests_module(); }",
        ),
    ];
    let lint = "orphan-pub";
    let out: Vec<(String, &str, u32)> = lint_set(&callers)
        .into_iter()
        .map(|f| (f.file, f.lint, f.line))
        .collect();
    assert_eq!(
        out,
        [2, 4, 6, 8, 10, 12, 22].map(|line| (lib.to_string(), lint, line))
    );
}

#[test]
fn orphan_pub_counts_bins_examples_and_other_library_files() {
    let good = include_str!("fixtures/good_orphan_pub.rs");
    let set = [
        ("crates/core/src/fixture.rs", good),
        (
            "crates/bench/src/bin/tool.rs",
            "fn main() { fixture::named_by_a_bin(); }\npub fn bins_are_not_indexed() {}",
        ),
        ("examples/demo.rs", "fn main() { named_by_an_example(); }"),
        (
            "crates/sched/src/caller.rs",
            "fn f() -> u32 { NAMED_BY_A_LIBRARY_FILE }\n\
             fn g(s: &Shape) {\n\
                 s.called_as_a_method();\n\
                 [s].map(Shape::passed_as_a_value);\n\
                 s.called_with_a_turbofish::<u32>();\n\
             }",
        ),
        ("tests/it.rs", "pub fn test_files_are_not_indexed() {}"),
    ];
    assert_eq!(lint_set(&set), vec![]);
}
