//! Per-function dataflow facts: a single forward pass over a function
//! body that records what the flow-sensitive rules (R6, R7, R9) need —
//! the unit of each local binding, which loop variables legitimately
//! index which container, and which locals alias an event store.
//!
//! The pass is deliberately shallow: facts come from `let` bindings,
//! parameters, and `for` headers only. Rebinding overwrites; anything
//! the pass cannot prove stays unknown, and unknown never produces a
//! finding.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::TokKind;
use crate::source::{FnItem, SourceFile};
use crate::symbols::SymbolTable;
use crate::units::{self, Unit};

/// Facts about one function body.
#[derive(Debug, Default)]
pub struct FnFacts {
    /// Known unit per local/parameter name.
    pub unit_of: BTreeMap<String, Unit>,
    /// Declared type text per parameter name.
    pub ty_of: BTreeMap<String, String>,
    /// Loop variable → canonical container path it may index
    /// (`for i in 0..st.hot.len()` sanctions `i` for `st.hot`).
    pub sanctioned_idx: BTreeMap<String, String>,
    /// Locals bound by reference to an event store.
    pub event_locals: BTreeSet<String>,
}

impl FnFacts {
    /// Collect facts for `f` in `sf`. `event_fields` names the struct
    /// fields known to hold packed events (for alias tracking).
    pub fn collect(
        sf: &SourceFile,
        f: &FnItem,
        symbols: &SymbolTable,
        event_fields: &BTreeSet<String>,
    ) -> FnFacts {
        let mut facts = FnFacts::default();
        // Parameters: find this fn in the symbol table by location.
        for sig in &symbols.fns {
            if sig.path == sf.path && sig.line == f.line && sig.name == f.name {
                for p in &sig.params {
                    if p.name.is_empty() {
                        continue;
                    }
                    facts.ty_of.insert(p.name.clone(), p.ty.clone());
                    if let Some(u) = units::of_decl(&p.name, &p.ty) {
                        facts.unit_of.insert(p.name.clone(), u);
                    }
                }
                break;
            }
        }
        let mut ci = f.body_start + 1;
        while ci < f.body_end {
            if let Some(next) = let_binding(sf, ci, symbols, event_fields, &mut facts) {
                ci = next;
                continue;
            }
            if let Some(next) = for_header(sf, ci, &mut facts) {
                ci = next;
                continue;
            }
            ci += 1;
        }
        facts
    }
}

/// `let [mut] NAME [: TY] = RHS ;` — record the binding's unit (from
/// the name, the declared type, or a simple RHS) and event aliasing.
/// Returns the code index just past `let NAME` on a match.
fn let_binding(
    sf: &SourceFile,
    ci: usize,
    symbols: &SymbolTable,
    event_fields: &BTreeSet<String>,
    facts: &mut FnFacts,
) -> Option<usize> {
    if !sf.ct(ci)?.is_ident("let") {
        return None;
    }
    let mut j = ci + 1;
    if sf.ct(j)?.is_ident("mut") {
        j += 1;
    }
    let name_tok = sf.ct(j)?;
    if name_tok.kind != TokKind::Ident {
        // Destructuring patterns: skip, no facts.
        return Some(ci + 1);
    }
    let name = name_tok.text.clone();
    j += 1;
    // Optional `: TY` — capture up to `=` or `;` at depth 0.
    let mut ty = String::new();
    if sf.ct(j).is_some_and(|t| t.is_punct(':')) {
        j += 1;
        let mut angle = 0i32;
        while let Some(t) = sf.ct(j) {
            if t.is_punct('<') {
                angle += 1;
            } else if t.is_punct('>') {
                angle -= 1;
            } else if (t.is_punct('=') || t.is_punct(';')) && angle <= 0 {
                break;
            }
            if !ty.is_empty() {
                ty.push(' ');
            }
            ty.push_str(&t.text);
            j += 1;
        }
    }
    let mut unit = units::of_decl(&name, &ty);
    // RHS inspection (only when `=` follows).
    if sf.ct(j).is_some_and(|t| t.is_punct('=')) {
        let mut r = j + 1;
        // Strip leading `&` / `&mut`.
        let mut by_ref = false;
        while let Some(t) = sf.ct(r) {
            if t.is_punct('&') {
                by_ref = true;
                r += 1;
            } else if t.is_ident("mut") {
                r += 1;
            } else {
                break;
            }
        }
        // Simple path RHS: `a.b.c` (terminated by `;`). Its unit is the
        // last segment's; event aliasing comes from any segment.
        let mut segs: Vec<String> = Vec::new();
        let mut k = r;
        while let Some(t) = sf.ct(k) {
            if t.kind == TokKind::Ident {
                segs.push(t.text.clone());
            } else if !(t.is_punct('.') || t.is_punct(':')) {
                break;
            }
            k += 1;
        }
        let simple_path = sf.ct(k).is_some_and(|t| t.is_punct(';'));
        if simple_path && !segs.is_empty() {
            if unit.is_none() {
                let last = segs.last().expect("non-empty");
                unit = units::of_ident(last).or_else(|| symbols.field_unit(last));
            }
            if by_ref && segs.iter().any(|s| event_fields.contains(s)) {
                facts.event_locals.insert(name.clone());
            }
        } else if unit.is_none() {
            // Call RHS: `f(...)` or `x.f(...)` — the callee's agreed
            // return unit, when the whole RHS is that one call.
            if let Some(callee) = rhs_single_call(sf, r) {
                unit = symbols.fn_ret_unit(&callee);
            }
        }
    }
    if let Some(u) = unit {
        facts.unit_of.insert(name, u);
    } else {
        // A rebinding kills any stale fact.
        facts.unit_of.remove(&name);
    }
    Some(ci + 1)
}

/// If the RHS starting at `r` is exactly one call expression
/// (`path . f ( args ) ;`), return the callee name.
fn rhs_single_call(sf: &SourceFile, r: usize) -> Option<String> {
    let mut k = r;
    let mut callee: Option<String> = None;
    // Leading path segments.
    while let Some(t) = sf.ct(k) {
        if t.kind == TokKind::Ident {
            callee = Some(t.text.clone());
            k += 1;
        } else if t.is_punct('.') || t.is_punct(':') {
            k += 1;
        } else {
            break;
        }
    }
    if !sf.ct(k)?.is_punct('(') {
        return None;
    }
    // Skip the balanced argument list.
    let mut depth = 0i32;
    while let Some(t) = sf.ct(k) {
        if t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(')') {
            depth -= 1;
            if depth == 0 {
                break;
            }
        }
        k += 1;
    }
    // `;` (or `as`/`.` unit-preserving tails would be nice, but keep it
    // strict: unknown never flags).
    if sf.ct(k + 1).is_some_and(|t| t.is_punct(';')) {
        callee
    } else {
        None
    }
}

/// `for VAR in 0 .. PATH . len ( )` sanctions `VAR` as an index into
/// `PATH`. Returns the index past the header on a match.
fn for_header(sf: &SourceFile, ci: usize, facts: &mut FnFacts) -> Option<usize> {
    if !sf.ct(ci)?.is_ident("for") {
        return None;
    }
    let var = sf.ct(ci + 1)?;
    if var.kind != TokKind::Ident || !sf.ct(ci + 2)?.is_ident("in") {
        return Some(ci + 1);
    }
    let mut k = ci + 3;
    // `0 ..` (or `0 ..=`)
    if !(sf
        .ct(k)
        .is_some_and(|t| t.kind == TokKind::Num && t.text == "0")
        && sf.ct(k + 1).is_some_and(|t| t.is_punct('.'))
        && sf.ct(k + 2).is_some_and(|t| t.is_punct('.')))
    {
        return Some(ci + 1);
    }
    k += 3;
    if sf.ct(k).is_some_and(|t| t.is_punct('=')) {
        k += 1;
    }
    // `PATH . len ( )` — collect path idents up to `.len()`.
    let mut segs: Vec<String> = Vec::new();
    while let Some(t) = sf.ct(k) {
        if t.kind == TokKind::Ident {
            if t.text == "len"
                && sf.ct(k + 1).is_some_and(|t| t.is_punct('('))
                && sf.ct(k + 2).is_some_and(|t| t.is_punct(')'))
            {
                if !segs.is_empty() {
                    facts
                        .sanctioned_idx
                        .insert(var.text.clone(), segs.join("."));
                }
                return Some(k + 3);
            }
            segs.push(t.text.clone());
        } else if !t.is_punct('.') {
            break;
        }
        k += 1;
    }
    Some(ci + 1)
}

/// Canonical dotted path of the identifier run ending at code index
/// `last` (inclusive): `st . hot` → `"st.hot"`. Walks backwards over
/// `ident (. ident)*`.
pub fn path_ending_at(sf: &SourceFile, last: usize) -> String {
    let mut segs: Vec<String> = Vec::new();
    let mut k = last as i64;
    loop {
        if k < 0 {
            break;
        }
        let Some(t) = sf.ct(k as usize) else { break };
        if t.kind != TokKind::Ident {
            break;
        }
        segs.push(t.text.clone());
        if k >= 2 && sf.ct(k as usize - 1).is_some_and(|t| t.is_punct('.')) {
            k -= 2;
        } else {
            break;
        }
    }
    segs.reverse();
    segs.join(".")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbols::SymbolTable;

    fn facts(src: &str) -> FnFacts {
        let sf = SourceFile::parse("crates/sched/src/x.rs", src);
        let symbols = SymbolTable::build(std::slice::from_ref(&sf));
        let mut events = BTreeSet::new();
        events.insert("overflow".to_string());
        let f = sf.fns[0].clone();
        FnFacts::collect(&sf, &f, &symbols, &events)
    }

    #[test]
    fn params_and_lets_gain_units() {
        let f = facts(
            "fn f(deadline_ns: u64, window: SimDur) {\n\
             \x20   let budget_bytes = 10;\n\
             \x20   let d = self.latency_ns;\n\
             \x20   let plain = 3;\n\
             }\n",
        );
        assert_eq!(f.unit_of["deadline_ns"], Unit::Ns);
        assert_eq!(f.unit_of["window"], Unit::Ns);
        assert_eq!(f.unit_of["budget_bytes"], Unit::Bytes);
        assert_eq!(f.unit_of["d"], Unit::Ns);
        assert!(!f.unit_of.contains_key("plain"));
    }

    #[test]
    fn call_rhs_takes_return_unit() {
        let sf = SourceFile::parse(
            "crates/sched/src/x.rs",
            "fn transfer(&self) -> SimDur { x }\n\
             fn g(&self) { let cost = self.link.transfer(); }\n",
        );
        let symbols = SymbolTable::build(std::slice::from_ref(&sf));
        let fg = FnFacts::collect(&sf, &sf.fns[1], &symbols, &BTreeSet::new());
        assert_eq!(fg.unit_of["cost"], Unit::Ns);
    }

    #[test]
    fn for_header_sanctions_loop_var() {
        let f = facts("fn f(&self) { for i in 0..st.hot.len() { use_(i); } }");
        assert_eq!(f.sanctioned_idx["i"], "st.hot");
    }

    #[test]
    fn event_alias_is_tracked() {
        let f = facts("fn f(&mut self) { let ovf = &mut self.overflow; }");
        assert!(f.event_locals.contains("ovf"));
    }

    #[test]
    fn path_helper_walks_back() {
        let sf = SourceFile::parse("crates/sched/src/x.rs", "a.b.c[i]");
        // code idx of `c` is 4 (a . b . c).
        assert_eq!(path_ending_at(&sf, 4), "a.b.c");
    }
}
