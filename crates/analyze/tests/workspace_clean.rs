//! The analyzer's gate: the repository itself is analyze-clean. An
//! unsuppressed finding or a stale `analyze:allow` anywhere in the
//! workspace fails `cargo test`, naming the rule and the `file:line`.

use std::path::Path;

use northup_analyze::analyze_workspace;

#[test]
fn the_workspace_is_analyze_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = analyze_workspace(&root).expect("walk the workspace");
    let failing: Vec<String> = report.failing().map(|f| f.render()).collect();
    assert!(
        failing.is_empty(),
        "{} failing finding(s) in {} files:\n{}",
        failing.len(),
        report.files_scanned,
        failing.join("\n")
    );
}
