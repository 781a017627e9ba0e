//! R11 atomic-ordering discipline.
//!
//! Every access to a registered atomic (struct field or `static`) is
//! collected workspace-wide and classified by role in a release/acquire
//! protocol:
//!
//! * **publication edge** — a `store`/RMW/`compare_exchange` success
//!   with `Release`, `AcqRel`, or `SeqCst`: the atomic hands data
//!   written before it to another thread;
//! * **consumption edge** — a `load` (or RMW/CAS) with `Acquire`,
//!   `AcqRel`, or `SeqCst`: the atomic pulls that data in.
//!
//! Once an atomic participates in such a protocol, a `Relaxed` access on
//! the *opposite* edge is an error: a Relaxed load can observe the flag
//! without the data it publishes (and a Relaxed store can publish the
//! flag without the data). Exceptions the rule understands:
//!
//! * the **`fence(SeqCst)` idiom** — Chase–Lev `pop`/`steal` issue a
//!   SeqCst fence and then legitimately use Relaxed accesses; any
//!   function whose body contains `fence(Ordering::SeqCst)` is exempt;
//! * **CAS failure orderings** — the failure ordering of a
//!   `compare_exchange` never publishes; `Relaxed` there is canonical;
//! * **non-protocol atomics** — counters only ever accessed Relaxed
//!   (e.g. an ID allocator) have no edges to violate;
//! * test code neither defines a protocol nor is checked against one.
//!
//! Anything else needs a justified `// analyze:allow(atomic-order)`
//! carrying the invariant argument (e.g. "owner is the only writer").

use std::collections::BTreeMap;

use crate::diag::{count_input, rules, Finding, Inputs};
use crate::explain::in_scope;
use crate::lexer::TokKind;
use crate::shared::SharedRegistry;
use crate::source::SourceFile;

/// The atomic access methods the rule classifies.
const LOADS: &[&str] = &["load"];
const STORES: &[&str] = &["store"];
const RMWS: &[&str] = &[
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_update",
];
const CASES: &[&str] = &["compare_exchange", "compare_exchange_weak"];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Load,
    Store,
    Rmw,
    Cas,
}

#[derive(Debug, Clone)]
struct Access {
    name: String,
    kind: Kind,
    /// The effective ordering (CAS: the success ordering).
    ord: String,
    method: String,
    path: String,
    line: u32,
    /// Enclosing fn contains `fence(Ordering::SeqCst)`.
    fenced: bool,
    in_scope: bool,
}

/// Run R11 over every file.
pub fn check(
    files: &[SourceFile],
    reg: &SharedRegistry,
    inputs: &mut Inputs,
    out: &mut Vec<Finding>,
) {
    if reg.atomics.is_empty() {
        return;
    }
    let mut accesses: Vec<Access> = Vec::new();
    for sf in files {
        collect(
            sf,
            reg,
            in_scope(rules::ATOMIC_ORDER, &sf.path),
            &mut accesses,
        );
    }
    for a in accesses.iter().filter(|a| a.in_scope) {
        count_input(inputs, rules::ATOMIC_ORDER, &a.path);
    }
    // Protocol edges per atomic name.
    let mut publisher: BTreeMap<&str, &Access> = BTreeMap::new();
    let mut consumer: BTreeMap<&str, &Access> = BTreeMap::new();
    for a in &accesses {
        let strong = |o: &str| matches!(o, "AcqRel" | "SeqCst");
        let publishes = match a.kind {
            Kind::Store | Kind::Rmw | Kind::Cas => a.ord == "Release" || strong(&a.ord),
            Kind::Load => false,
        };
        let consumes = match a.kind {
            Kind::Load | Kind::Rmw | Kind::Cas => a.ord == "Acquire" || strong(&a.ord),
            Kind::Store => false,
        };
        if publishes {
            publisher.entry(&a.name).or_insert(a);
        }
        if consumes {
            consumer.entry(&a.name).or_insert(a);
        }
    }
    for a in &accesses {
        if a.ord != "Relaxed" || a.fenced || !a.in_scope {
            continue;
        }
        let (edge, witness) = match a.kind {
            // A Relaxed load consumes a published value without the
            // acquire edge — flag when anyone publishes this atomic.
            Kind::Load => ("consumption", publisher.get(a.name.as_str())),
            // A Relaxed store/CAS-success publishes without the release
            // edge — flag when anyone consumes with Acquire.
            Kind::Store | Kind::Cas => ("publication", consumer.get(a.name.as_str())),
            // A Relaxed RMW breaks whichever side the protocol uses.
            Kind::Rmw => {
                let w = publisher
                    .get(a.name.as_str())
                    .or_else(|| consumer.get(a.name.as_str()));
                ("read-modify-write", w)
            }
        };
        let Some(w) = witness else { continue };
        let decl = &reg.atomics[&a.name];
        out.push(Finding {
            rule: rules::ATOMIC_ORDER,
            path: a.path.clone(),
            line: a.line,
            message: format!(
                "Relaxed `{m}` of protocol atomic `{n}` (declared at {dp}:{dl}) on its \
                 {edge} edge; the protocol peer is a {wo} `{wm}` at {wp}:{wl} — \
                 strengthen the ordering or justify with \
                 `// analyze:allow(atomic-order): <invariant>`",
                m = a.method,
                n = a.name,
                dp = decl.path,
                dl = decl.line,
                wo = w.ord,
                wm = w.method,
                wp = w.path,
                wl = w.line,
            ),
            suppressed: false,
            justification: None,
        });
    }
}

/// Collect the atomic accesses in one file (protocol classification uses
/// every crate; findings only fire for in-scope, non-test code).
fn collect(sf: &SourceFile, reg: &SharedRegistry, in_scope: bool, out: &mut Vec<Access>) {
    // Fns whose body issues `fence(Ordering::SeqCst)`.
    let fenced: Vec<bool> = sf
        .fns
        .iter()
        .map(|f| {
            ((f.body_start + 1)..f.body_end).any(|ci| {
                sf.ct(ci).is_some_and(|t| t.is_ident("fence"))
                    && sf.ct(ci + 1).is_some_and(|t| t.is_punct('('))
                    && orderings(sf, ci + 1).iter().any(|o| o == "SeqCst")
            })
        })
        .collect();
    for ci in 0..sf.code.len() {
        if sf.in_test[ci] {
            continue;
        }
        let t = &sf.toks[sf.code[ci]];
        if t.kind != TokKind::Ident || !reg.atomics.contains_key(&t.text) {
            continue;
        }
        // `recv.NAME.method(...)` or `STATIC.method(...)`.
        let Some(m) = sf.ct(ci + 1).filter(|n| n.is_punct('.')).and(sf.ct(ci + 2)) else {
            continue;
        };
        if !sf.ct(ci + 3).is_some_and(|n| n.is_punct('(')) {
            continue;
        }
        let method = m.text.as_str();
        let kind = if LOADS.contains(&method) {
            Kind::Load
        } else if STORES.contains(&method) {
            Kind::Store
        } else if RMWS.contains(&method) {
            Kind::Rmw
        } else if CASES.contains(&method) {
            Kind::Cas
        } else {
            continue;
        };
        let ords = orderings(sf, ci + 3);
        // CAS carries (success, failure); the failure ordering never
        // publishes and is canonically Relaxed — only the success
        // ordering is classified.
        let ord = match (kind, ords.as_slice()) {
            (Kind::Cas, [.., s, _f]) => s.clone(),
            (_, [o, ..]) => o.clone(),
            _ => continue,
        };
        let in_fence_fn = sf
            .fns
            .iter()
            .enumerate()
            .filter(|(_, f)| f.contains(ci))
            .max_by_key(|(_, f)| f.body_start)
            .is_some_and(|(i, _)| fenced[i]);
        out.push(Access {
            name: t.text.clone(),
            kind,
            ord,
            method: method.to_string(),
            path: sf.path.clone(),
            line: t.line,
            fenced: in_fence_fn,
            in_scope,
        });
    }
}

/// The memory-ordering idents inside the balanced parens opening at
/// code index `open`, in argument order.
fn orderings(sf: &SourceFile, open: usize) -> Vec<String> {
    const ORDS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];
    let mut depth = 0i32;
    let mut out = Vec::new();
    for k in open..sf.code.len() {
        let t = &sf.toks[sf.code[k]];
        if t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(')') {
            depth -= 1;
            if depth == 0 {
                break;
            }
        } else if t.kind == TokKind::Ident && ORDS.contains(&t.text.as_str()) {
            out.push(t.text.clone());
        }
    }
    out
}
