//! R9 event-order contract.
//!
//! Calendar events are packed `(SimTime, kind, id, seq)` tuples whose
//! *full* lexicographic order is the engine's tie-break contract —
//! bit-identical replay depends on every comparison seeing all four
//! components. Sorting or selecting over an event store by a projected
//! key (`sort_by_key(|e| e.0)`) silently drops the tie-break and lets
//! insertion order leak into schedules.
//!
//! Event stores are found declaratively: struct fields whose type
//! mentions `Packed` or `Event`, plus locals bound by reference to such
//! a field (tracked by the dataflow pass). On those receivers:
//!
//! - the `*_by_key` family is always flagged (a key projection cannot
//!   express the full-tuple order);
//! - the `*_by` family is flagged only when the comparator projects a
//!   tuple field (`.0`, `.1`, ...); a whole-value comparator like
//!   `|a, b| b.cmp(a)` honors the contract and stays clean.

use std::collections::BTreeSet;

use crate::dataflow::{self, FnFacts};
use crate::diag::{count_input, rules, Finding, Inputs};
use crate::explain::in_scope;
use crate::lexer::TokKind;
use crate::source::SourceFile;
use crate::symbols::SymbolTable;
use crate::units;

/// Methods that order by a projected key — never full-tuple.
const BY_KEY: &[&str] = &[
    "sort_by_key",
    "sort_unstable_by_key",
    "min_by_key",
    "max_by_key",
    "binary_search_by_key",
];

/// Methods whose closure decides the order — flagged when it projects.
const BY_CMP: &[&str] = &[
    "sort_by",
    "sort_unstable_by",
    "min_by",
    "max_by",
    "binary_search_by",
];

/// Struct fields that hold packed events: type mentions `Packed` or
/// `Event` as a whole word.
pub fn event_fields(symbols: &SymbolTable) -> BTreeSet<String> {
    symbols
        .fields
        .iter()
        .filter(|f| type_mentions_event(&f.ty))
        .map(|f| f.name.clone())
        .collect()
}

fn type_mentions_event(ty: &str) -> bool {
    units::contains_word(ty, "Packed") || units::contains_word(ty, "Event")
}

/// Run R9 over every file.
pub fn check(
    files: &[SourceFile],
    symbols: &SymbolTable,
    inputs: &mut Inputs,
    out: &mut Vec<Finding>,
) {
    let fields = event_fields(symbols);
    if fields.is_empty() {
        return;
    }
    for sf in files {
        if !in_scope(rules::EVENT_ORDER, &sf.path) {
            continue;
        }
        for f in &sf.fns {
            if f.is_test {
                continue;
            }
            let facts = FnFacts::collect(sf, f, symbols, &fields);
            for ci in (f.body_start + 1)..f.body_end {
                let t = &sf.toks[sf.code[ci]];
                if t.kind != TokKind::Ident
                    || !sf.ct(ci + 1).is_some_and(|n| n.is_punct('('))
                    || ci == 0
                    || !sf.ct(ci - 1).is_some_and(|p| p.is_punct('.'))
                {
                    continue;
                }
                let by_key = BY_KEY.contains(&t.text.as_str());
                let by_cmp = BY_CMP.contains(&t.text.as_str());
                if !by_key && !by_cmp {
                    continue;
                }
                // Receiver must be (or alias) an event store. Walk back
                // through no-arg adapter calls (`.iter()`) so the
                // store's field name stays in the path, then match any
                // segment: `self.overflow.iter().min_by_key` hits
                // `overflow`.
                let mut e = ci - 2;
                while e >= 3
                    && sf.ct(e).is_some_and(|t| t.is_punct(')'))
                    && sf.ct(e - 1).is_some_and(|t| t.is_punct('('))
                    && sf.ct(e - 2).is_some_and(|t| t.kind == TokKind::Ident)
                {
                    e -= 2;
                }
                let path = dataflow::path_ending_at(sf, e);
                let is_event = path
                    .split('.')
                    .any(|seg| fields.contains(seg) || facts.event_locals.contains(seg));
                if !is_event {
                    continue;
                }
                count_input(inputs, rules::EVENT_ORDER, &sf.path);
                if by_cmp && !closure_projects(sf, ci + 1, f.body_end) {
                    continue;
                }
                out.push(Finding {
                    rule: rules::EVENT_ORDER,
                    path: sf.path.clone(),
                    line: t.line,
                    message: format!(
                        "`{}` on event store `{path}` orders by a projected key and \
                         drops the `(SimTime, kind, id, seq)` tie-break; compare whole \
                         packed tuples (e.g. `sort_unstable()` or `cmp` on the full \
                         value)",
                        t.text
                    ),
                    suppressed: false,
                    justification: None,
                });
            }
        }
    }
}

/// Does the closure argument starting at `(` (code index `open`)
/// contain a tuple projection (`. NUM`)?
fn closure_projects(sf: &SourceFile, open: usize, hi: usize) -> bool {
    let mut depth = 0i32;
    for k in open..hi {
        let t = &sf.toks[sf.code[k]];
        if t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(')') {
            depth -= 1;
            if depth == 0 {
                return false;
            }
        } else if t.is_punct('.') && sf.ct(k + 1).is_some_and(|n| n.kind == TokKind::Num) {
            return true;
        }
    }
    false
}
