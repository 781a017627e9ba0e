//! Shared lock machinery for the concurrency rules (R5 / R10 / R12).
//!
//! The lock world is built once over the shared [`CallGraph`] and reused
//! by every rule that reasons about guards:
//!
//! * **acquisitions** — each `.lock()` site in a non-test function of a
//!   lock-scoped crate, with its guard extent (let-bound guards live to
//!   `drop(g)` or the end of the innermost block; statement temporaries
//!   to the end of their statement) and the guard variable name when
//!   let-bound;
//! * **transitive lock sets** — for every function, the locks it or any
//!   (name-keyed) callee may acquire, computed by fixpoint over the
//!   shared call graph;
//! * **entry-held sets** — the locks *guaranteed* held on entry: the
//!   greatest fixpoint of the intersection over all call sites, so a
//!   helper only ever invoked under `state` is analyzed as holding
//!   `state` (and a helper that is also called bare is not).
//!
//! Lock identity is the field/variable name the `.lock()` is called on
//! (`self.injector.lock()` → `injector`) — in this workspace those are
//! distinct mutex fields, so the name is the lock.

use std::collections::{BTreeMap, BTreeSet};

use crate::callgraph::CallGraph;
use crate::lexer::TokKind;
use crate::source::{FnItem, SourceFile};
use crate::symbols::SymbolTable;

/// Crates whose functions participate in the lock world.
pub const LOCK_SCOPE: &[&str] = &["exec", "sched", "fleet"];

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

/// The workspace lock world: per-function acquisitions plus the two
/// call-graph fixpoints every guard-aware rule consumes.
#[derive(Debug, Default)]
pub struct LockWorld {
    /// Global fn index → acquisitions, for non-test fns in
    /// [`LOCK_SCOPE`] crates.
    pub acqs: BTreeMap<usize, Vec<Acq>>,
    /// Global fn index → every lock the fn may (transitively) acquire.
    pub acquired: Vec<BTreeSet<String>>,
    /// Global fn index → locks held at *every* call site (greatest
    /// fixpoint; empty for fns with unknown or test callers).
    pub entry_held: Vec<BTreeSet<String>>,
    /// Call indices (into `cg.calls`) grouped by caller global fn index.
    pub calls_by_caller: BTreeMap<usize, Vec<usize>>,
}

impl LockWorld {
    /// Build the lock world over the parsed files and shared call graph.
    pub fn build(files: &[SourceFile], symbols: &SymbolTable, cg: &CallGraph) -> LockWorld {
        let mut w = LockWorld {
            acquired: vec![BTreeSet::new(); symbols.fns.len()],
            entry_held: vec![BTreeSet::new(); symbols.fns.len()],
            ..LockWorld::default()
        };
        for (gi, f) in symbols.fns.iter().enumerate() {
            if f.is_test || !f.krate.as_deref().is_some_and(|k| LOCK_SCOPE.contains(&k)) {
                continue;
            }
            let sf = &files[f.file];
            let acqs = scan_acqs(sf, &sf.fns[f.item]);
            for a in &acqs {
                w.acquired[gi].insert(a.lock.clone());
            }
            w.acqs.insert(gi, acqs);
        }
        for (c, call) in cg.calls.iter().enumerate() {
            if let Some(g) = call.caller {
                w.calls_by_caller.entry(g).or_default().push(c);
            }
        }
        w.propagate_acquired(symbols, cg);
        w.propagate_entry_held(symbols, cg);
        w
    }

    /// Locks whose guard extent covers code index `ci` inside fn `gi`
    /// (local acquisitions only; union with [`Self::entry_held`] for the
    /// interprocedural view).
    pub fn held_at(&self, gi: usize, ci: usize) -> BTreeSet<&str> {
        self.covering(gi, ci).map(|a| a.lock.as_str()).collect()
    }

    /// The acquisitions in fn `gi` whose guard is live at `ci`.
    pub fn covering(&self, gi: usize, ci: usize) -> impl Iterator<Item = &Acq> {
        self.acqs
            .get(&gi)
            .into_iter()
            .flatten()
            .filter(move |a| ci > a.site && ci <= a.held_until)
    }

    /// `held_at` ∪ `entry_held`: every lock the analysis can prove held
    /// at `ci` in fn `gi`.
    pub fn held_with_entry(&self, gi: usize, ci: usize) -> BTreeSet<&str> {
        let mut h = self.held_at(gi, ci);
        h.extend(self.entry_held[gi].iter().map(|s| s.as_str()));
        h
    }

    /// Fixpoint: `acquired[g] ∪= acquired[callee]` for every in-world
    /// callee, until stable. Name-keyed: a call resolves to every
    /// in-world fn sharing the callee name (collisions merge
    /// conservatively toward *more* locks).
    fn propagate_acquired(&mut self, symbols: &SymbolTable, cg: &CallGraph) {
        let members: Vec<usize> = self.acqs.keys().copied().collect();
        loop {
            let mut changed = false;
            for &g in &members {
                let mut add: BTreeSet<String> = BTreeSet::new();
                for &c in self.calls_by_caller.get(&g).into_iter().flatten() {
                    let callee = cg.calls[c].callee.as_str();
                    if callee == "drop" {
                        continue; // `drop(x)` — destructor identity unknowable
                    }
                    for &g2 in symbols.fn_by_name.get(callee).into_iter().flatten() {
                        if self.acqs.contains_key(&g2) {
                            add.extend(self.acquired[g2].iter().cloned());
                        }
                    }
                }
                for l in add {
                    if !self.acquired[g].contains(&l) {
                        self.acquired[g].insert(l);
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
    }

    /// Greatest fixpoint of the entry-held sets: start every in-world
    /// callee at ⊤ (all lock names) and intersect over its call sites
    /// with `held_at(caller) ∪ entry_held(caller)`. A call site in test
    /// code, outside the world, or with no resolvable caller contributes
    /// ⊥ (no locks), so public entry points correctly start bare.
    fn propagate_entry_held(&mut self, symbols: &SymbolTable, cg: &CallGraph) {
        let all_locks: BTreeSet<String> = self
            .acqs
            .values()
            .flatten()
            .map(|a| a.lock.clone())
            .collect();
        if all_locks.is_empty() {
            return;
        }
        let members: Vec<usize> = self.acqs.keys().copied().collect();
        for &g in &members {
            let name = &symbols.fns[g].name;
            let has_sites = cg
                .calls_by_callee
                .get(name)
                .is_some_and(|cs| !cs.is_empty());
            if has_sites {
                self.entry_held[g] = all_locks.clone();
            }
        }
        loop {
            let mut changed = false;
            for &g in &members {
                if self.entry_held[g].is_empty() {
                    continue;
                }
                let name = symbols.fns[g].name.clone();
                let mut meet: Option<BTreeSet<String>> = None;
                for &c in cg.calls_by_callee.get(&name).into_iter().flatten() {
                    let call = &cg.calls[c];
                    let at_site: BTreeSet<String> = match call.caller {
                        Some(h) if !call.in_test && self.acqs.contains_key(&h) => self
                            .held_at(h, call.ci)
                            .into_iter()
                            .map(str::to_string)
                            .chain(self.entry_held[h].iter().cloned())
                            .collect(),
                        _ => BTreeSet::new(),
                    };
                    meet = Some(match meet {
                        None => at_site,
                        Some(m) => m.intersection(&at_site).cloned().collect(),
                    });
                    if meet.as_ref().is_some_and(|m| m.is_empty()) {
                        break;
                    }
                }
                let next = meet.unwrap_or_default();
                if next != self.entry_held[g] {
                    self.entry_held[g] = next;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
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

    fn world(srcs: &[(&str, &str)]) -> (Vec<SourceFile>, SymbolTable, CallGraph, LockWorld) {
        let files: Vec<SourceFile> = srcs.iter().map(|(p, s)| SourceFile::parse(p, s)).collect();
        let symbols = SymbolTable::build(&files);
        let cg = CallGraph::build(&files, &symbols);
        let lw = LockWorld::build(&files, &symbols, &cg);
        (files, symbols, cg, lw)
    }

    #[test]
    fn transitive_acquired_crosses_files() {
        let (_f, sy, _cg, lw) = world(&[
            (
                "crates/exec/src/a.rs",
                "fn outer(s: &S) { helper(s); }\nfn helper(s: &S) { let _b = s.b.lock(); }\n",
            ),
            (
                "crates/sched/src/b.rs",
                "fn top(s: &S) { outer(s); }\nfn clean() {}\n",
            ),
        ]);
        let top = sy.fn_by_name["top"][0];
        assert!(lw.acquired[top].contains("b"));
        let clean = sy.fn_by_name["clean"][0];
        assert!(lw.acquired[clean].is_empty());
    }

    #[test]
    fn entry_held_is_the_meet_over_call_sites() {
        let (_f, sy, _cg, lw) = world(&[(
            "crates/exec/src/a.rs",
            "fn always(s: &S) { let _g = s.state.lock(); helper(s); }\n\
             fn also(s: &S) { let _g = s.state.lock(); helper(s); }\n\
             fn helper(s: &S) { s.touch(); }\n\
             fn sometimes(s: &S) { let _g = s.state.lock(); bare(s); }\n\
             fn elsewhere(s: &S) { bare(s); }\n\
             fn bare(s: &S) { s.touch(); }\n",
        )]);
        let helper = sy.fn_by_name["helper"][0];
        assert!(lw.entry_held[helper].contains("state"), "{lw:?}");
        let bare = sy.fn_by_name["bare"][0];
        assert!(lw.entry_held[bare].is_empty());
    }

    #[test]
    fn entry_held_chains_through_callers() {
        let (_f, sy, _cg, lw) = world(&[(
            "crates/exec/src/a.rs",
            "fn top(s: &S) { let _g = s.state.lock(); mid(s); }\n\
             fn mid(s: &S) { leaf(s); }\n\
             fn leaf(s: &S) { s.touch(); }\n",
        )]);
        let leaf = sy.fn_by_name["leaf"][0];
        assert!(lw.entry_held[leaf].contains("state"));
    }

    #[test]
    fn guard_vars_are_captured() {
        let (f, sy, _cg, lw) = world(&[(
            "crates/exec/src/a.rs",
            "fn f(s: &S) { let mut g = s.lock.lock(); s.injector.lock().pop(); }\n",
        )]);
        let _ = f;
        let gi = sy.fn_by_name["f"][0];
        let acqs = &lw.acqs[&gi];
        assert_eq!(acqs.len(), 2);
        assert_eq!(acqs[0].guard_var.as_deref(), Some("g"));
        assert_eq!(acqs[1].guard_var, None);
    }
}
