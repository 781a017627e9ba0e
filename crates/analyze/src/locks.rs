//! Guard extents for R12 (blocking-extent): each `.lock()` site in a
//! non-test function of an in-scope crate, with how long its guard is
//! held — let-bound guards live to `drop(g)` or the end of the
//! innermost block, statement temporaries to the end of their statement
//! — and the guard variable name when let-bound.
//!
//! Lock identity is the field/variable name the `.lock()` is called on
//! (`self.injector.lock()` → `injector`) — in this workspace those are
//! distinct mutex fields, so the name is the lock.

use std::collections::BTreeMap;

use crate::callgraph::CallGraph;
use crate::diag::rules;
use crate::explain::in_scope;
use crate::lexer::TokKind;
use crate::source::{FnItem, SourceFile};
use crate::symbols::SymbolTable;

/// One `.lock()` site inside a function.
#[derive(Debug, Clone)]
pub struct Acq {
    /// Lock name (the receiver ident of the `.lock()`).
    pub lock: String,
    /// Guard variable when let-bound (`let g = x.lock();` → `g`).
    pub guard_var: Option<String>,
    /// Code index of the `lock` ident.
    pub site: usize,
    /// 1-based source line of the acquisition.
    pub line: u32,
    /// Code index past which the guard is no longer held.
    pub held_until: usize,
}

/// The workspace lock world: per-function acquisitions and the call
/// sites inside each function.
#[derive(Debug, Default)]
pub struct LockWorld {
    /// Global fn index → acquisitions, for non-test fns in R12's scope.
    pub acqs: BTreeMap<usize, Vec<Acq>>,
    /// Call indices (into `cg.calls`) grouped by caller global fn index.
    pub calls_by_caller: BTreeMap<usize, Vec<usize>>,
}

impl LockWorld {
    /// Build the lock world over the parsed files and shared call graph.
    pub fn build(files: &[SourceFile], symbols: &SymbolTable, cg: &CallGraph) -> LockWorld {
        let mut w = LockWorld::default();
        for (gi, f) in symbols.fns.iter().enumerate() {
            if f.is_test || !in_scope(rules::BLOCKING_EXTENT, &f.path) {
                continue;
            }
            let sf = &files[f.file];
            w.acqs.insert(gi, scan_acqs(sf, &sf.fns[f.item]));
        }
        for (c, call) in cg.calls.iter().enumerate() {
            if let Some(g) = call.caller {
                w.calls_by_caller.entry(g).or_default().push(c);
            }
        }
        w
    }
}

/// Collect every `.lock()` acquisition inside one fn body (nested fn
/// items excluded — they are scanned as their own items).
pub fn scan_acqs(sf: &SourceFile, f: &FnItem) -> Vec<Acq> {
    let mut acqs = Vec::new();
    for ci in (f.body_start + 1)..f.body_end {
        if sf
            .fns
            .iter()
            .any(|g| g.sig_start > f.sig_start && g.contains(ci))
        {
            continue;
        }
        let t = &sf.toks[sf.code[ci]];
        if t.is_ident("lock")
            && ci > 0
            && sf.ct(ci - 1).is_some_and(|p| p.is_punct('.'))
            && sf.ct(ci + 1).is_some_and(|n| n.is_punct('('))
            && sf.ct(ci + 2).is_some_and(|n| n.is_punct(')'))
        {
            let lock = sf
                .ct(ci.wrapping_sub(2))
                .filter(|p| p.kind == TokKind::Ident)
                .map(|p| p.text.clone())
                .unwrap_or_else(|| "<expr>".to_string());
            let (held_until, guard_var) = guard_extent(sf, f, ci);
            acqs.push(Acq {
                lock,
                guard_var,
                site: ci,
                line: t.line,
                held_until,
            });
        }
    }
    acqs
}

/// How long the guard from the `.lock()` at code index `ci` is held, and
/// the guard variable's name when let-bound.
fn guard_extent(sf: &SourceFile, f: &FnItem, ci: usize) -> (usize, Option<String>) {
    // Statement start: the token after the nearest `;`/`{`/`}` behind.
    let mut s = ci;
    while s > f.body_start + 1 {
        let t = &sf.toks[sf.code[s - 1]];
        if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
            break;
        }
        s -= 1;
    }
    let let_bound = sf.ct(s).is_some_and(|t| t.is_ident("let"));
    if let_bound {
        // Guard name: `let [mut] g = ...`.
        let mut gi = s + 1;
        if sf.ct(gi).is_some_and(|t| t.is_ident("mut")) {
            gi += 1;
        }
        let guard = sf
            .ct(gi)
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.clone());
        if let Some(g) = &guard {
            // Explicit `drop(g)` ends the hold early.
            for j in ci..f.body_end {
                if sf.ct(j).is_some_and(|t| t.is_ident("drop"))
                    && sf.ct(j + 1).is_some_and(|t| t.is_punct('('))
                    && sf.ct(j + 2).is_some_and(|t| t.is_ident(g))
                    && sf.ct(j + 3).is_some_and(|t| t.is_punct(')'))
                {
                    return (j, guard);
                }
            }
        }
        return (sf.enclosing_block_end(ci, f.body_end), guard);
    }
    // Statement temporary: held to the end of its statement — the next
    // `;` at this nesting depth (blocks inside the statement, e.g. a
    // `match` scrutinee or `if let` body, stay inside the hold).
    let mut depth = 0i32;
    let mut entered_block = false;
    for j in ci..f.body_end {
        let t = &sf.toks[sf.code[j]];
        if t.is_punct('{') {
            depth += 1;
            entered_block = true;
        } else if t.is_punct('}') {
            if depth == 0 {
                return (j, None);
            }
            depth -= 1;
            // `if let Some(x) = m.lock() { .. }` — an attached block
            // closing back at depth 0 ends the statement.
            if depth == 0 && entered_block {
                return (j, None);
            }
        } else if t.is_punct(';') && depth == 0 {
            return (j, None);
        }
    }
    (f.body_end, None)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guard_vars_are_captured() {
        let files = vec![SourceFile::parse(
            "crates/exec/src/a.rs",
            "fn f(s: &S) { let mut g = s.lock.lock(); s.injector.lock().pop(); }\n",
        )];
        let symbols = SymbolTable::build(&files);
        let cg = CallGraph::build(&files, &symbols);
        let lw = LockWorld::build(&files, &symbols, &cg);
        let acqs = &lw.acqs[&symbols.fn_by_name["f"][0]];
        assert_eq!(acqs.len(), 2);
        assert_eq!(acqs[0].guard_var.as_deref(), Some("g"));
        assert_eq!(acqs[1].guard_var, None);
        // The let-bound guard outlives the statement temporary.
        assert!(acqs[0].held_until > acqs[1].held_until);
    }
}
