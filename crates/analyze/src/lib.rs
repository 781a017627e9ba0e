//! # northup-analyze — offline static analysis for the Northup workspace
//!
//! A dependency-free Rust-source analyzer (its own [`lexer`], no registry
//! crates, not even the workspace shims) that enforces the project's
//! determinism, unit, arena-index, lease, panic, atomic-ordering and
//! lock-extent invariants with `file:line` diagnostics, a SARIF report,
//! and `// analyze:allow(rule): <justification>` suppressions that fail
//! when unjustified, unknown, or stale.
//!
//! The engine is interprocedural: a workspace-wide
//! [`symbols::SymbolTable`] and [`callgraph::CallGraph`] are built once
//! from the lexed token streams, and a per-function dataflow pass
//! ([`dataflow`]) feeds the flow-sensitive rules.
//!
//! The rules and the crates each one scopes over are one table,
//! [`explain::RULE_DOCS`]; this rendering of it ([`explain::table`]) is
//! checked against the source by a test, and `--explain <rule>` and the
//! SARIF rule catalog print the same rows:
//!
//! | Rule | Scope | Invariant |
//! |------|-------|-----------|
//! | `ordered-iteration` (R2) | `core`, `sched`, `fleet` | unordered HashMap/HashSet iteration leaks into schedules; use ordered containers |
//! | `lease-discipline` (R3) | `sched`, `apps` | acquired buffers/leases need a reachable release or an escaping handle |
//! | `panic-paths` (R4) | `core`, `exec`, `sched`, `fleet`, `apps` | no unwrap()/expect(..)/panic!/assert! in non-test runtime code |
//! | `unit-consistency` (R6) | `core`, `sched`, `fleet` | no mixed-unit arithmetic/comparison across ns, bytes, events |
//! | `arena-index` (R7) | `sched` | dense arena indices stay in their declared domain and die on compaction |
//! | `determinism-taint` (R8) | `core`, `sim`, `sched`, `fleet` | wall-clock/entropy sources must not reach schedule-visible code, even transitively |
//! | `event-order` (R9) | `sched` | packed calendar events are ordered by the full (SimTime, kind, id, seq) tuple |
//! | `atomic-order` (R11) | `exec` | Relaxed accesses on a release/acquire publication or consumption edge need a fence or a justified allow |
//! | `blocking-extent` (R12) | `exec` | no lock guard may be held across a may-block call (sleep, channel ops, nested locks, file I/O) |
//!
//! A rule is here because the census in DESIGN.md §9 found it product
//! input and a seeded defect: `tests/fixtures.rs` and
//! `tests/concurrency.rs` mutate a real product file per rule and assert
//! the `file:line` finding, and `tests/workspace_clean.rs` fails when a
//! rule scopes over a crate that gives it nothing to inspect
//! ([`Report::inputs`] is that count).
//!
//! The gate is `cargo test`: `tests/workspace_clean.rs` runs
//! [`analyze_workspace`] on the repository and fails on any unsuppressed
//! finding or stale suppression. The CLI (`cargo run -p northup-analyze
//! -- --workspace [--sarif out.sarif]`) prints the same findings and
//! writes the SARIF artifact.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod callgraph;
pub mod dataflow;
pub mod diag;
pub mod explain;
pub mod lexer;
pub mod locks;
pub mod r11_atomics;
pub mod r12_blocking;
pub mod r6_units;
pub mod r7_arena;
pub mod r8_taint;
pub mod r9_events;
pub mod rules;
pub mod sarif;
pub mod shared;
pub mod source;
pub mod symbols;
pub mod units;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub use diag::{Finding, Report};
use source::SourceFile;

/// Analyze a set of `(logical_path, contents)` pairs. The logical path
/// determines rule scoping (`crates/<name>/src/...`), so tests can feed
/// synthetic fixtures under any crate's namespace.
pub fn analyze_sources(files: &[(String, String)]) -> Report {
    let parsed: Vec<SourceFile> = files.iter().map(|(p, s)| SourceFile::parse(p, s)).collect();
    let mut report = Report {
        files_scanned: parsed.len(),
        ..Report::default()
    };
    let inputs = &mut report.inputs;
    // Shared interprocedural infrastructure, built once.
    let symbols = symbols::SymbolTable::build(&parsed);
    let cg = callgraph::CallGraph::build(&parsed, &symbols);
    let registry = shared::SharedRegistry::build(&parsed, &symbols);
    let lock_world = locks::LockWorld::build(&parsed, &symbols, &cg);
    // Rule passes. Suppressions apply uniformly afterwards, file by file.
    let mut raw: Vec<Finding> = Vec::new();
    for sf in &parsed {
        rules::check_file(sf, inputs, &mut raw);
    }
    r6_units::check(&parsed, &symbols, &cg, inputs, &mut raw);
    r7_arena::check(&parsed, &symbols, inputs, &mut raw);
    r8_taint::check(&parsed, &symbols, &cg, &mut raw);
    r9_events::check(&parsed, &symbols, inputs, &mut raw);
    r11_atomics::check(&parsed, &registry, inputs, &mut raw);
    r12_blocking::check(&parsed, &symbols, &cg, &lock_world, inputs, &mut raw);
    for sf in &parsed {
        let mut mine: Vec<Finding> = Vec::new();
        let mut rest = Vec::new();
        for f in raw.drain(..) {
            if f.path == sf.path {
                mine.push(f);
            } else {
                rest.push(f);
            }
        }
        rules::apply_allows(sf, &mut mine, &mut report.findings);
        report.findings.extend(mine);
        raw = rest;
    }
    report.findings.extend(raw);
    report.finalize();
    report
}

/// Walk the workspace rooted at `root` and analyze every first-party
/// `.rs` file: `crates/*/src/**` (shims excluded — they emulate external
/// crates and are not on the audited paths) plus `crates/*/tests` and
/// root `src/`, `examples/`, `tests/` (scanned for completeness; no rule
/// scopes over them).
pub fn analyze_workspace(root: &Path) -> io::Result<Report> {
    let mut files: Vec<(String, String)> = Vec::new();
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_dir() && p.file_name().is_some_and(|n| n != "shims"))
        .collect();
    crate_dirs.sort();
    for dir in crate_dirs {
        for sub in ["src", "tests"] {
            collect_rs(root, &dir.join(sub), &mut files)?;
        }
    }
    for top in ["src", "examples", "tests"] {
        collect_rs(root, &root.join(top), &mut files)?;
    }
    files.sort();
    Ok(analyze_sources(&files))
}

/// Recursively collect `.rs` files under `dir` as
/// (root-relative path, contents), skipping anything named `target`.
fn collect_rs(root: &Path, dir: &Path, out: &mut Vec<(String, String)>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .collect();
    entries.sort();
    for p in entries {
        if p.is_dir() {
            if p.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            collect_rs(root, &p, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            let rel = p
                .strip_prefix(root)
                .unwrap_or(&p)
                .to_string_lossy()
                .replace('\\', "/");
            out.push((rel, fs::read_to_string(&p)?));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cross_file_lock_cycle_is_found_and_suppressable() {
        // Both edges of an a→b / b→a cycle are blocking-extent findings
        // (what the retired lock-order rule reported), each in its own
        // file, and each file's allows apply to its own findings only.
        let a = (
            "crates/exec/src/a.rs".to_string(),
            "fn ab(s: &S) { let _a = s.a.lock(); let _b = s.b.lock(); }".to_string(),
        );
        let b = (
            "crates/exec/src/b.rs".to_string(),
            "// analyze:allow(blocking-extent): fixture demonstrates suppression\n\
             fn ba(s: &S) { let _b = s.b.lock(); let _a = s.a.lock(); }"
                .to_string(),
        );
        let r = analyze_sources(&[a.clone(), b]);
        assert_eq!(r.failing_for(diag::rules::BLOCKING_EXTENT), 1);
        assert_eq!(
            r.failing().next().map(|f| f.path.as_str()),
            Some("crates/exec/src/a.rs")
        );
        assert_eq!(r.findings.len(), 2);

        let b_unsuppressed = (
            "crates/exec/src/b.rs".to_string(),
            "fn ba(s: &S) { let _b = s.b.lock(); let _a = s.a.lock(); }".to_string(),
        );
        let r = analyze_sources(&[a, b_unsuppressed]);
        assert_eq!(r.failing_for(diag::rules::BLOCKING_EXTENT), 2);
    }

    #[test]
    fn findings_are_sorted_and_counted() {
        let r = analyze_sources(&[
            (
                "crates/core/src/z.rs".to_string(),
                "use std::collections::HashMap;".to_string(),
            ),
            (
                "crates/core/src/a.rs".to_string(),
                "fn f() { x.unwrap(); }".to_string(),
            ),
        ]);
        assert_eq!(r.files_scanned, 2);
        assert_eq!(r.failing().count(), 2);
        assert_eq!(r.findings[0].path, "crates/core/src/a.rs");
        assert!(!r.is_clean());
    }
}
