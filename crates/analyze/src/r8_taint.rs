//! R8 determinism-taint: call-graph taint propagation from wall-clock
//! and OS-entropy sources into schedule-visible code.
//!
//! Supersedes the old per-file `determinism-sources` rule. A *source*
//! is any non-test function, anywhere in the workspace, whose body
//! mentions `Instant`, `SystemTime`, or `thread_rng`. Taint propagates
//! name-keyed up the call graph, so a helper that wraps `Instant::now`
//! two crates away is caught at every transitive call site inside the
//! modeled-path crates (`core`, `sim`, `sched`, `fleet`).
//!
//! The sanctioned carve-outs — `sim/src/time.rs` (the virtual clock)
//! and `sched/src/real.rs` (the real-time backend) — are exempt both as
//! sources and as propagation hops: wrapping real time is their job,
//! and their public APIs are the audited boundary.

use crate::callgraph::CallGraph;
use crate::diag::{rules, Finding};
use crate::explain;
use crate::rules::crate_of;
use crate::source::SourceFile;
use crate::symbols::{FnSig, SymbolTable};

/// Identifiers that are nondeterminism sources.
const SOURCES: &[&str] = &["Instant", "SystemTime", "thread_rng"];

/// Files allowed to touch real time / entropy.
const CARVE_OUTS: &[&str] = &["crates/sim/src/time.rs", "crates/sched/src/real.rs"];

/// Is this file's non-test code schedule-visible (in rule scope)?
fn in_scope(path: &str) -> bool {
    explain::in_scope(rules::DETERMINISM_TAINT, path) && !CARVE_OUTS.contains(&path)
}

/// Run R8: direct occurrences plus tainted transitive call sites.
pub fn check(files: &[SourceFile], symbols: &SymbolTable, cg: &CallGraph, out: &mut Vec<Finding>) {
    // Direct occurrences (the old R1, under the new rule id).
    for sf in files {
        if !in_scope(&sf.path) {
            continue;
        }
        let krate = crate_of(&sf.path).unwrap_or("");
        for ci in 0..sf.code.len() {
            if sf.in_test[ci] {
                continue;
            }
            let t = &sf.toks[sf.code[ci]];
            if let Some(name) = SOURCES.iter().find(|s| t.is_ident(s)) {
                out.push(Finding {
                    rule: rules::DETERMINISM_TAINT,
                    path: sf.path.clone(),
                    line: t.line,
                    message: format!(
                        "nondeterministic source `{name}` in modeled-path crate `{krate}`; \
                         use SimTime/SimDur (virtual clock) or a seeded StdRng"
                    ),
                    suppressed: false,
                    justification: None,
                });
            }
        }
    }
    // Taint: which fns transitively reach a source.
    let is_source = |f: &FnSig| -> bool {
        if f.is_test {
            return false;
        }
        let sf = &files[f.file];
        let item = &sf.fns[f.item];
        ((item.body_start + 1)..item.body_end)
            .any(|ci| !sf.in_test[ci] && SOURCES.iter().any(|s| sf.toks[sf.code[ci]].is_ident(s)))
    };
    // Exempt from sourcing *and* propagation: the carve-out files
    // (wrapping real time is their job) and test/example fns (their
    // names must not poison same-named runtime fns — propagation is
    // name-keyed).
    let is_exempt = |f: &FnSig| f.is_test || CARVE_OUTS.contains(&f.path.as_str());
    let taint = cg.taint(symbols, is_source, is_exempt);
    // Findings at call sites of tainted fns inside scoped code.
    for call in &cg.calls {
        let sf = &files[call.file];
        if call.in_test || !in_scope(&sf.path) || !taint.names.contains(&call.callee) {
            continue;
        }
        // Skip calls inside fns that are themselves direct sources in
        // this file — the direct-occurrence finding already covers them
        // when the source ident is here; but a call to a remote tainted
        // helper still needs its own finding, so only skip when the
        // callee resolves to the enclosing fn itself (recursion).
        if let Some(caller) = call.caller {
            if symbols.fns[caller].name == call.callee {
                continue;
            }
        }
        let witness = taint
            .tainted_fn_named(symbols, &call.callee)
            .map(|gi| {
                let chain = taint.chain(symbols, gi);
                let def = &symbols.fns[gi];
                format!(
                    " (defined at {}:{}; reaches a source via `{}`)",
                    def.path,
                    def.line,
                    chain.join(" → ")
                )
            })
            .unwrap_or_default();
        out.push(Finding {
            rule: rules::DETERMINISM_TAINT,
            path: sf.path.clone(),
            line: call.line,
            message: format!(
                "call to `{}` taints schedule-visible code with wall-clock/entropy{}; \
                 thread the virtual clock or a seeded StdRng through instead",
                call.callee, witness
            ),
            suppressed: false,
            justification: None,
        });
    }
}
