//! The analyzer's gate: the repository itself is analyze-clean, and
//! every rule has something to inspect in every crate it scopes over.

use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use northup_analyze::explain::{in_scope, RULE_DOCS};
use northup_analyze::{analyze_workspace, Report};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// One analysis of the repository, shared by both tests.
fn report() -> &'static Report {
    static REPORT: OnceLock<Report> = OnceLock::new();
    REPORT.get_or_init(|| analyze_workspace(&repo_root()).expect("walk the workspace"))
}

/// An unsuppressed finding or a stale `analyze:allow` anywhere in the
/// workspace fails `cargo test`, naming the rule and the `file:line`.
#[test]
fn the_workspace_is_analyze_clean() {
    let report = report();
    let failing: Vec<String> = report.failing().map(|f| f.render()).collect();
    assert!(
        failing.is_empty(),
        "{} failing finding(s) in {} files:\n{}",
        failing.len(),
        report.files_scanned,
        failing.join("\n")
    );
}

/// The one scope table names only crates that exist, and the census
/// finds product sites for every (rule, crate) pair in it — a rule
/// scoped over a crate with nothing for it to inspect fails here. R4 and
/// R8 inspect every fn and every call, so they are not counted.
/// `cargo test -p northup-analyze --test workspace_clean -- --nocapture`
/// prints the census.
#[test]
fn every_scoped_crate_exists_and_gives_its_rule_input() {
    let (root, report) = (repo_root(), report());
    let mut starved = Vec::new();
    for doc in RULE_DOCS {
        let mut row = Vec::new();
        for krate in doc.scope {
            assert!(
                root.join("crates").join(krate).join("src").is_dir(),
                "{}: scope names `{krate}`, which is not a crate under crates/",
                doc.id
            );
            let sites = report
                .inputs
                .get(&(doc.id, krate.to_string()))
                .copied()
                .unwrap_or(0);
            if sites == 0 && doc.inputs.is_some() {
                starved.push(format!("{} over `{krate}`", doc.id));
            }
            row.push(format!("{krate} {sites}"));
        }
        if let Some(unit) = doc.inputs {
            println!("{:<18} {} [{unit}]", doc.id, row.join(", "));
        }
    }
    // Scope follows the crate, not the file: splitting `scheduler.rs`
    // into nested modules cannot carve anything out of a rule.
    for path in [
        "crates/sched/src/calendar.rs",
        "crates/sched/src/scheduler/policy.rs",
    ] {
        assert!(in_scope("ordered-iteration", path), "{path} escaped R2");
    }
    assert!(!in_scope("ordered-iteration", "examples/quickstart.rs"));
    assert!(
        starved.is_empty(),
        "rules scoped over crates with nothing for them to inspect: {}",
        starved.join("; ")
    );
}
