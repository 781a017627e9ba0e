//! R5: static lock-order analysis over `exec`/`sched`.
//!
//! Consumes the shared [`LockWorld`]: acquisition sites, guard extents,
//! and the call-graph fixpoint of transitive lock sets are built once
//! (over [`crate::callgraph::CallGraph`]) and shared with R10/R12.
//!
//! While a guard is held, a nested `.lock()` adds the edge
//! `held → nested`, and a call to another analyzed function adds edges
//! to every lock that callee (transitively) acquires. Any cycle in the
//! resulting graph (self-loops included) is a potential deadlock.

use std::collections::{BTreeMap, BTreeSet};

use crate::callgraph::CallGraph;
use crate::diag::{rules, Finding};
use crate::locks::LockWorld;
use crate::source::SourceFile;
use crate::symbols::SymbolTable;

/// Run R5 over the whole file set, appending findings.
pub fn check_lock_order(
    files: &[SourceFile],
    symbols: &SymbolTable,
    cg: &CallGraph,
    world: &LockWorld,
    out: &mut Vec<Finding>,
) {
    // Edges: held lock → lock acquired (directly or via a call) while
    // held. Deterministic order via BTreeMap; first site per edge wins.
    // R5 scopes over exec/sched only (fleet holds no locks, but scoping
    // is explicit, not incidental).
    let mut edges: BTreeMap<(String, String), (String, u32)> = BTreeMap::new();
    for (&g, acqs) in &world.acqs {
        let f = &symbols.fns[g];
        if !matches!(f.krate.as_deref(), Some("exec" | "sched")) {
            continue;
        }
        let path = &files[f.file].path;
        for a in acqs {
            for b in acqs {
                if b.site > a.site && b.site <= a.held_until {
                    edges
                        .entry((a.lock.clone(), b.lock.clone()))
                        .or_insert((path.clone(), b.line));
                }
            }
            for &c in world.calls_by_caller.get(&g).into_iter().flatten() {
                let call = &cg.calls[c];
                if call.ci <= a.site || call.ci > a.held_until {
                    continue;
                }
                // `.lock()` sites are the acquisitions above; `drop(x)`
                // runs a destructor whose identity the analysis cannot
                // name.
                if call.callee == "lock" || call.callee == "drop" {
                    continue;
                }
                let mut locks: BTreeSet<&str> = BTreeSet::new();
                for &g2 in symbols.fn_by_name.get(&call.callee).into_iter().flatten() {
                    if world.acqs.contains_key(&g2) {
                        locks.extend(world.acquired[g2].iter().map(|s| s.as_str()));
                    }
                }
                for l in locks {
                    edges
                        .entry((a.lock.clone(), l.to_string()))
                        .or_insert((path.clone(), call.line));
                }
            }
        }
    }

    // A cycle exists through edge (a → b) iff a is reachable from b.
    let graph: BTreeMap<&str, BTreeSet<&str>> = {
        let mut g: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
        for (a, b) in edges.keys() {
            g.entry(a.as_str()).or_default().insert(b.as_str());
        }
        g
    };
    for ((a, b), (path, line)) in &edges {
        if a == b || reaches(&graph, b, a) {
            let shape = if a == b {
                format!("`{a}` is re-acquired while already held")
            } else {
                format!(
                    "`{b}` is acquired while `{a}` is held, and elsewhere `{a}` is \
                     acquired while `{b}` is held (directly or transitively)"
                )
            };
            out.push(Finding {
                rule: rules::LOCK_ORDER,
                path: path.clone(),
                line: *line,
                message: format!(
                    "lock-order cycle: {shape}; a consistent global order is required"
                ),
                suppressed: false,
                justification: None,
            });
        }
    }
}

/// DFS reachability over the lock graph.
fn reaches(graph: &BTreeMap<&str, BTreeSet<&str>>, from: &str, to: &str) -> bool {
    let mut seen = BTreeSet::new();
    let mut stack = vec![from];
    while let Some(n) = stack.pop() {
        if n == to {
            return true;
        }
        if !seen.insert(n) {
            continue;
        }
        if let Some(next) = graph.get(n) {
            stack.extend(next.iter().copied());
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Vec<Finding> {
        let sf = SourceFile::parse("crates/exec/src/fixture.rs", src);
        let files = vec![sf];
        let symbols = SymbolTable::build(&files);
        let cg = CallGraph::build(&files, &symbols);
        let world = LockWorld::build(&files, &symbols, &cg);
        let mut out = Vec::new();
        check_lock_order(&files, &symbols, &cg, &world, &mut out);
        out
    }

    #[test]
    fn nested_opposite_orders_cycle() {
        let src = "
            fn ab(s: &S) { let _a = s.a.lock(); let _b = s.b.lock(); }
            fn ba(s: &S) { let _b = s.b.lock(); let _a = s.a.lock(); }
        ";
        let f = run(src);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().all(|x| x.rule == rules::LOCK_ORDER));
    }

    #[test]
    fn consistent_order_is_clean() {
        let src = "
            fn ab(s: &S) { let _a = s.a.lock(); let _b = s.b.lock(); }
            fn ab2(s: &S) { let _a = s.a.lock(); let _b = s.b.lock(); }
        ";
        assert!(run(src).is_empty());
    }

    #[test]
    fn statement_temporary_releases_before_next_lock() {
        // `inject` pattern: transient injector guard, then wake takes
        // the condvar mutex — no edge, so no cycle with the reverse.
        let src = "
            fn inject(s: &S) { s.injector.lock().push_back(1); s.wake(); }
            fn drain(s: &S) { let _g = s.lock.lock(); s.injector.lock().len(); }
        ";
        assert!(run(src).is_empty());
    }

    #[test]
    fn call_graph_propagates_locks() {
        let src = "
            fn outer(s: &S) { let _a = s.a.lock(); helper(s); }
            fn helper(s: &S) { let _b = s.b.lock(); }
            fn reverse(s: &S) { let _b = s.b.lock(); let _a = s.a.lock(); }
        ";
        let f = run(src);
        assert!(!f.is_empty());
    }

    #[test]
    fn drop_ends_the_hold() {
        let src = "
            fn ab(s: &S) { let g = s.a.lock(); drop(g); let _b = s.b.lock(); }
            fn ba(s: &S) { let _b = s.b.lock(); let _a = s.a.lock(); }
        ";
        assert!(run(src).is_empty());
    }

    #[test]
    fn block_scoped_guard_releases_at_block_end() {
        let src = "
            fn ab(s: &S) { let x = { let g = s.a.lock(); g.pop() }; s.b.lock().push(x); }
            fn ba(s: &S) { let _b = s.b.lock(); let _a = s.a.lock(); }
        ";
        assert!(run(src).is_empty());
    }

    #[test]
    fn self_reacquisition_is_reported() {
        let src = "fn f(s: &S) { let _g = s.a.lock(); s.a.lock().touch(); }";
        let f = run(src);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("re-acquired"));
    }

    #[test]
    fn cross_crate_propagation_uses_the_shared_call_graph() {
        // The callee lives in sched; the caller in exec holds `a` across
        // the call. The shared call graph links them, so the reverse
        // order elsewhere completes a cycle.
        let files = vec![
            SourceFile::parse(
                "crates/exec/src/a.rs",
                "fn outer(s: &S) { let _a = s.a.lock(); helper(s); }\n\
                 fn reverse(s: &S) { let _b = s.b.lock(); let _a = s.a.lock(); }\n",
            ),
            SourceFile::parse(
                "crates/sched/src/b.rs",
                "fn helper(s: &S) { let _b = s.b.lock(); }\n",
            ),
        ];
        let symbols = SymbolTable::build(&files);
        let cg = CallGraph::build(&files, &symbols);
        let world = LockWorld::build(&files, &symbols, &cg);
        let mut out = Vec::new();
        check_lock_order(&files, &symbols, &cg, &world, &mut out);
        assert!(!out.is_empty(), "{out:?}");
    }
}
