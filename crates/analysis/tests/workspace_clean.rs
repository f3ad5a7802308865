//! Self-check: `fsd_lint` over the real workspace reports zero findings.
//! This is the test CI leans on — any invariant regression anywhere in the
//! workspace fails here with the offending `path:line: [lint]` diagnostics.

use std::path::PathBuf;

#[test]
fn workspace_has_zero_lint_findings() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("crates/analysis sits two levels under the workspace root")
        .to_path_buf();
    let findings = fsd_analysis::lint_workspace(&root).expect("workspace walk succeeds");
    assert!(
        findings.is_empty(),
        "fsd_lint found {} violation(s):\n{}",
        findings.len(),
        findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn variant_enum_is_discovered_from_the_workspace() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("workspace root")
        .to_path_buf();
    let engine = std::fs::read_to_string(root.join("crates/core/src/engine.rs"))
        .expect("engine.rs readable");
    // A match naming one variant, linted beside the real enum: the
    // diagnostic lists every other variant the declaration has.
    let probe = "fn route(v: Variant) -> u32 { match v { Variant::Serial => 0 } }";
    let files = [
        ("crates/core/src/engine.rs".to_string(), engine),
        ("crates/core/src/probe.rs".to_string(), probe.to_string()),
    ];
    let messages: Vec<String> = fsd_analysis::lint_files(&files)
        .into_iter()
        .filter(|f| f.file == "crates/core/src/probe.rs")
        .map(|f| f.message)
        .collect();
    assert_eq!(
        messages,
        vec!["match over Variant must name every variant explicitly (unnamed variants: Auto, Direct, Hybrid, Object, Queue)"],
        "discovered variant set must track the enum declaration"
    );
}
