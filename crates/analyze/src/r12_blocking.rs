//! R12 blocking-extent: no guard held across a may-block call.
//!
//! A "may-block" predicate seeds on the operations that can park a pool
//! thread — sleeping, channel `recv`/`send`, thread `join`/`park`,
//! condvar waits, file I/O flushes, and lock acquisition itself — and
//! propagates transitively up the shared call graph (the same
//! machinery as R8's determinism taint). Holding any lock guard across
//! a may-block call is flagged: on the real-mode thread path a parked
//! worker that still owns `injector` or the sleep mutex stalls every
//! sibling, which is exactly the convoy the PR 3 statement-extent
//! heuristic tried to approximate (this rule subsumes it — guard
//! extents now come from [`crate::locks`], and the callee's blocking
//! behavior is resolved interprocedurally instead of lexically).
//!
//! Carve-outs:
//!
//! * **condvar waits** — `wait`/`wait_for`/`wait_while`/`wait_until`
//!   *release* the guard they are handed; a wait whose arguments name a
//!   held guard is the sleep protocol working as designed, not a
//!   convoy;
//! * `drop(x)` (destructor identity unknowable) and `.lock()` call
//!   sites (reported once as nested acquisitions, not again as calls);
//! * test code.

use std::collections::BTreeSet;

use crate::callgraph::CallGraph;
use crate::diag::{count_input, rules, Finding, Inputs};
use crate::locks::LockWorld;
use crate::source::SourceFile;
use crate::symbols::SymbolTable;

/// Callee names that block directly (std/parking_lot API surface; no
/// workspace definition required).
const DIRECT_BLOCKERS: &[&str] = &[
    "sleep",
    "sleep_ms",
    "recv",
    "recv_timeout",
    "send",
    "park",
    "park_timeout",
    "join",
    "wait",
    "wait_for",
    "wait_while",
    "wait_until",
    "read_to_string",
    "write_all",
    "sync_all",
    "flush",
];

/// Condvar wait family: exempt when handed a held guard.
const CONDVAR_WAITS: &[&str] = &["wait", "wait_for", "wait_while", "wait_until"];

/// Names that are (in the lock-scoped crates) always the atomic or
/// container method surface, never a blocking workspace fn — a
/// same-named fn elsewhere (e.g. a file-reading `load` in apps) must
/// not taint every `.load()` call site through name-keyed resolution.
const NEVER_BLOCK: &[&str] = &[
    "load",
    "store",
    "swap",
    "compare_exchange",
    "compare_exchange_weak",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_update",
    "len",
    "is_empty",
    "notify_one",
    "notify_all",
];

/// Run R12 over the lock world.
pub fn check(
    files: &[SourceFile],
    symbols: &SymbolTable,
    cg: &CallGraph,
    world: &LockWorld,
    inputs: &mut Inputs,
    out: &mut Vec<Finding>,
) {
    // Seed the may-block set: fns that call a direct blocker, plus fns
    // that acquire any lock (acquisition itself may block on a
    // contended mutex).
    let mut seeds: BTreeSet<(usize, usize)> = BTreeSet::new();
    for call in &cg.calls {
        if call.in_test || !DIRECT_BLOCKERS.contains(&call.callee.as_str()) {
            continue;
        }
        if let Some(g) = call.caller {
            let f = &symbols.fns[g];
            seeds.insert((f.file, f.item));
        }
    }
    for (&g, acqs) in &world.acqs {
        if !acqs.is_empty() {
            let f = &symbols.fns[g];
            seeds.insert((f.file, f.item));
        }
    }
    let taint = cg.taint(
        symbols,
        |f| seeds.contains(&(f.file, f.item)) && !NEVER_BLOCK.contains(&f.name.as_str()),
        |f| f.is_test || NEVER_BLOCK.contains(&f.name.as_str()),
    );

    for (&g, acqs) in &world.acqs {
        let f = &symbols.fns[g];
        let path = &files[f.file].path;
        for a in acqs {
            count_input(inputs, rules::BLOCKING_EXTENT, path);
            // Nested acquisition while `a` is held: blocking by
            // definition (and the raw material of a lock-order cycle).
            for b in acqs {
                if b.site > a.site && b.site <= a.held_until {
                    out.push(Finding {
                        rule: rules::BLOCKING_EXTENT,
                        path: path.clone(),
                        line: b.line,
                        message: format!(
                            "acquiring `{}` while guard `{}` (taken at line {}) is \
                             held may block the holder; release `{}` first or keep \
                             the critical section leaf-only",
                            b.lock, a.lock, a.line, a.lock
                        ),
                        suppressed: false,
                        justification: None,
                    });
                }
            }
            for &c in world.calls_by_caller.get(&g).into_iter().flatten() {
                let call = &cg.calls[c];
                if call.ci <= a.site || call.ci > a.held_until {
                    continue;
                }
                let callee = call.callee.as_str();
                if callee == "lock" || callee == "drop" || NEVER_BLOCK.contains(&callee) {
                    continue;
                }
                // Condvar carve-out: the wait releases the guard it is
                // handed.
                if CONDVAR_WAITS.contains(&callee)
                    && wait_releases_held_guard(
                        &files[call.file],
                        call.ci,
                        acqs.iter()
                            .filter(|h| call.ci > h.site && call.ci <= h.held_until)
                            .filter_map(|h| h.guard_var.as_deref()),
                    )
                {
                    continue;
                }
                let (blocks, why) = if DIRECT_BLOCKERS.contains(&callee) {
                    (true, format!("`{callee}` blocks"))
                } else if taint.names.contains(callee) {
                    let chain = taint
                        .tainted_fn_named(symbols, callee)
                        .map(|gi| taint.chain(symbols, gi).join(" → "))
                        .unwrap_or_else(|| callee.to_string());
                    (true, format!("`{callee}` may block via `{chain}`"))
                } else {
                    (false, String::new())
                };
                if blocks {
                    out.push(Finding {
                        rule: rules::BLOCKING_EXTENT,
                        path: path.clone(),
                        line: call.line,
                        message: format!(
                            "call to `{callee}` while guard `{}` (taken at line {}) \
                             is held: {why}; shrink the critical section so the \
                             guard drops before blocking",
                            a.lock, a.line
                        ),
                        suppressed: false,
                        justification: None,
                    });
                }
            }
        }
    }
}

/// Does the wait call at code index `ci` pass one of the held guard
/// variables (`cond.wait_for(&mut g, ..)`)?
fn wait_releases_held_guard<'a>(
    sf: &SourceFile,
    ci: usize,
    mut guards: impl Iterator<Item = &'a str>,
) -> bool {
    let Some(open) = (ci + 1 < sf.code.len()).then_some(ci + 1) else {
        return false;
    };
    if !sf.ct(open).is_some_and(|t| t.is_punct('(')) {
        return false;
    }
    let mut args: BTreeSet<&str> = BTreeSet::new();
    let mut depth = 0i32;
    for k in open..sf.code.len() {
        let t = &sf.toks[sf.code[k]];
        if t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(')') {
            depth -= 1;
            if depth == 0 {
                break;
            }
        } else if t.kind == crate::lexer::TokKind::Ident {
            args.insert(t.text.as_str());
        }
    }
    guards.any(|g| args.contains(g))
}
