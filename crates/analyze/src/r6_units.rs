//! R6 unit-consistency: flags arithmetic and comparisons that mix the
//! workspace's physical units (ns, bytes, events), plus
//! call sites that pass a value of one unit to a parameter declared in
//! another.
//!
//! The rule is deliberately one-sided: a finding requires **both**
//! operands to resolve to *known, different* units. Multiplication and
//! division legitimately change units, so `*`, `/`, and `%` erase
//! knowledge — an operand adjacent to one never resolves. Unknown never
//! flags; the cost is recall, never false alarms in scoring code.

use std::collections::BTreeMap;

use crate::callgraph::CallGraph;
use crate::dataflow::FnFacts;
use crate::diag::{count_input, rules, Finding, Inputs};
use crate::explain::in_scope;
use crate::lexer::TokKind;
use crate::source::SourceFile;
use crate::symbols::SymbolTable;
use crate::units::{self, Unit};

/// A resolved operand: its unit, a display name, and the code-index
/// span `[start, end]` of the atom.
struct Atom {
    unit: Unit,
    name: String,
    start: usize,
    end: usize,
}

/// Run R6 over every file: intraprocedural operator checks, then the
/// interprocedural call-argument check.
pub fn check(
    files: &[SourceFile],
    symbols: &SymbolTable,
    cg: &CallGraph,
    inputs: &mut Inputs,
    out: &mut Vec<Finding>,
) {
    for sf in files {
        if !in_scope(rules::UNIT_CONSISTENCY, &sf.path) {
            continue;
        }
        let mut cache: FactsCache = BTreeMap::new();
        let n = sf.code.len();
        let mut ci = 0usize;
        while ci < n {
            if sf.in_test[ci] {
                ci += 1;
                continue;
            }
            let Some((op, lhs_end, rhs_start, width)) = binary_op_at(sf, ci) else {
                ci += 1;
                continue;
            };
            let facts = facts_at(sf, symbols, lhs_end, &mut cache);
            let lhs = unit_ending_at(sf, facts, symbols, lhs_end);
            let rhs = unit_starting_at(sf, facts, symbols, rhs_start);
            if let (Some(l), Some(r)) = (lhs, rhs) {
                count_input(inputs, rules::UNIT_CONSISTENCY, &sf.path);
                if l.unit != r.unit {
                    let kind = if matches!(op, "+" | "-" | "+=" | "-=") {
                        "arithmetic"
                    } else {
                        "comparison"
                    };
                    let t = &sf.toks[sf.code[ci]];
                    out.push(Finding {
                        rule: rules::UNIT_CONSISTENCY,
                        path: sf.path.clone(),
                        line: t.line,
                        message: format!(
                            "mixed-unit {kind}: `{}` ({}) {op} `{}` ({}); convert \
                             explicitly before combining",
                            l.name, l.unit, r.name, r.unit
                        ),
                        suppressed: false,
                        justification: None,
                    });
                }
            }
            ci += width;
        }
    }
    check_call_args(files, symbols, cg, inputs, out);
}

type FactsCache = BTreeMap<usize, FnFacts>;

/// Facts for the fn enclosing `ci` (empty facts outside any fn).
fn facts_at<'a>(
    sf: &SourceFile,
    symbols: &SymbolTable,
    ci: usize,
    cache: &'a mut FactsCache,
) -> &'a FnFacts {
    let key = sf.fn_at(ci).map(|f| f.body_start).unwrap_or(usize::MAX);
    cache.entry(key).or_insert_with(|| {
        sf.fns
            .iter()
            .find(|f| f.body_start == key)
            .map(|f| FnFacts::collect(sf, f, symbols))
            .unwrap_or_default()
    })
}

/// If the code token at `ci` is a binary operator R6 audits, return
/// `(op text, lhs end index, rhs start index, tokens to skip)`.
/// Non-operator look-alikes (`->`, `=>`, `<<`, `>>`, generics-adjacent
/// unary forms) return `None`.
fn binary_op_at(sf: &SourceFile, ci: usize) -> Option<(&'static str, usize, usize, usize)> {
    let t = sf.ct(ci)?;
    if t.kind != TokKind::Punct {
        return None;
    }
    let next = |k: usize| sf.ct(ci + k).map(|t| t.text.clone()).unwrap_or_default();
    let prev_is_expr_end = ci > 0
        && sf.ct(ci - 1).is_some_and(|p| {
            matches!(p.kind, TokKind::Ident | TokKind::Num) || p.is_punct(')') || p.is_punct(']')
        });
    match t.text.as_str() {
        "+" => {
            if next(1) == "=" {
                Some(("+=", ci.checked_sub(1)?, ci + 2, 2))
            } else if prev_is_expr_end {
                Some(("+", ci - 1, ci + 1, 1))
            } else {
                None
            }
        }
        "-" => {
            if next(1) == ">" {
                None
            } else if next(1) == "=" {
                Some(("-=", ci.checked_sub(1)?, ci + 2, 2))
            } else if prev_is_expr_end {
                Some(("-", ci - 1, ci + 1, 1))
            } else {
                None
            }
        }
        "<" => {
            if next(1) == "<" {
                None
            } else if next(1) == "=" {
                Some(("<=", ci.checked_sub(1)?, ci + 2, 2))
            } else if prev_is_expr_end {
                Some(("<", ci.checked_sub(1)?, ci + 1, 1))
            } else {
                None
            }
        }
        ">" => {
            // `->` and `=>` are consumed at their first char; `>>` is a
            // shift, not a comparison.
            if (ci > 0
                && sf
                    .ct(ci - 1)
                    .is_some_and(|p| p.is_punct('-') || p.is_punct('=')))
                || next(1) == ">"
            {
                None
            } else if next(1) == "=" {
                Some((">=", ci.checked_sub(1)?, ci + 2, 2))
            } else if prev_is_expr_end {
                Some((">", ci.checked_sub(1)?, ci + 1, 1))
            } else {
                None
            }
        }
        "=" => {
            if next(1) == "=" {
                Some(("==", ci.checked_sub(1)?, ci + 2, 2))
            } else {
                None // plain assignment or `=>` — not audited
            }
        }
        "!" => {
            if next(1) == "=" {
                Some(("!=", ci.checked_sub(1)?, ci + 2, 2))
            } else {
                None
            }
        }
        _ => None,
    }
}

/// True when the punct at `ci` erases unit knowledge (`*`, `/`, `%`).
fn is_mul_div(sf: &SourceFile, ci: usize) -> bool {
    sf.ct(ci)
        .is_some_and(|t| t.is_punct('*') || t.is_punct('/') || t.is_punct('%'))
}

/// Resolve the operand atom *ending* at code index `e` (inclusive).
fn unit_ending_at(
    sf: &SourceFile,
    facts: &FnFacts,
    symbols: &SymbolTable,
    e: usize,
) -> Option<Atom> {
    let t = sf.ct(e)?;
    match t.kind {
        // Tuple projection `x.0` keeps the receiver's unit; a bare
        // numeric literal is dimensionless.
        TokKind::Num => {
            if e >= 2 && sf.ct(e - 1).is_some_and(|p| p.is_punct('.')) {
                let inner = unit_ending_at(sf, facts, symbols, e - 2)?;
                Some(Atom { end: e, ..inner })
            } else {
                None
            }
        }
        TokKind::Ident => {
            // `x as u64` — the cast target carries no unit; look through.
            if e >= 2 && sf.ct(e - 1).is_some_and(|p| p.is_ident("as")) {
                let inner = unit_ending_at(sf, facts, symbols, e - 2)?;
                return Some(Atom { end: e, ..inner });
            }
            let (start, segs) = path_back(sf, e);
            if is_mul_div(sf, start.wrapping_sub(1)) {
                return None;
            }
            let last = segs.last()?;
            let unit = path_unit(facts, symbols, &segs)?;
            Some(Atom {
                unit,
                name: last.clone(),
                start,
                end: e,
            })
        }
        TokKind::Punct if t.is_punct(')') => {
            // A call result: find the opening paren and the callee.
            let open = open_paren_back(sf, e)?;
            let callee_i = open.checked_sub(1)?;
            let callee_t = sf.ct(callee_i)?;
            if callee_t.kind != TokKind::Ident {
                return None; // parenthesized expression — unknown
            }
            let callee = callee_t.text.clone();
            if unit_preserving_method(&callee)
                && callee_i >= 2
                && sf.ct(callee_i - 1).is_some_and(|p| p.is_punct('.'))
            {
                // `x.min(y)`, `x.saturating_add(y)` keep the receiver's
                // unit.
                let inner = unit_ending_at(sf, facts, symbols, callee_i - 2)?;
                return Some(Atom { end: e, ..inner });
            }
            if callee == "from"
                && callee_i >= 3
                && sf.ct(callee_i - 1).is_some_and(|p| p.is_punct(':'))
                && sf.ct(callee_i - 2).is_some_and(|p| p.is_punct(':'))
            {
                // `u128::from(x)` passes the inner unit through, when the
                // argument is a single atom filling the parens.
                let inner = unit_ending_at(sf, facts, symbols, e - 1)?;
                if inner.start == open + 1 {
                    return Some(Atom { end: e, ..inner });
                }
                return None;
            }
            let (start, _) = path_back(sf, callee_i);
            if is_mul_div(sf, start.wrapping_sub(1)) {
                return None;
            }
            let unit = symbols
                .fn_ret_unit(&callee)
                .or_else(|| units::of_ident(&callee))?;
            Some(Atom {
                unit,
                name: format!("{callee}()"),
                start,
                end: e,
            })
        }
        _ => None,
    }
}

/// Resolve the operand atom *starting* at code index `s`.
fn unit_starting_at(
    sf: &SourceFile,
    facts: &FnFacts,
    symbols: &SymbolTable,
    s: usize,
) -> Option<Atom> {
    // Skip leading borrows.
    let mut s = s;
    while sf
        .ct(s)
        .is_some_and(|t| t.is_punct('&') || t.is_ident("mut"))
    {
        s += 1;
    }
    let t = sf.ct(s)?;
    if t.kind != TokKind::Ident {
        return None;
    }
    // `u128::from(x)` forward form.
    if sf.ct(s + 1).is_some_and(|p| p.is_punct(':'))
        && sf.ct(s + 2).is_some_and(|p| p.is_punct(':'))
        && sf.ct(s + 3).is_some_and(|p| p.is_ident("from"))
        && sf.ct(s + 4).is_some_and(|p| p.is_punct('('))
    {
        let close = close_paren_fwd(sf, s + 4)?;
        let inner = unit_starting_at(sf, facts, symbols, s + 5)?;
        if inner.end == close - 1 && !is_mul_div(sf, close + 1) {
            return Some(Atom {
                start: s,
                end: close,
                ..inner
            });
        }
        return None;
    }
    // Walk the path: `ident (.ident | .NUM | ::ident)*`, stopping at a
    // call.
    let mut segs: Vec<String> = vec![t.text.clone()];
    let mut k = s;
    loop {
        let dot = sf.ct(k + 1);
        if dot.is_some_and(|p| p.is_punct('.')) {
            let nx = sf.ct(k + 2)?;
            match nx.kind {
                TokKind::Ident => {
                    // Method call?
                    if sf.ct(k + 3).is_some_and(|p| p.is_punct('(')) {
                        let callee = nx.text.clone();
                        let close = close_paren_fwd(sf, k + 3)?;
                        if sf.ct(close + 1).is_some_and(|p| p.is_punct('.')) {
                            return None; // longer method chain — unknown
                        }
                        if is_mul_div(sf, close + 1) {
                            return None;
                        }
                        let unit = if unit_preserving_method(&callee) {
                            path_unit(facts, symbols, &segs)?
                        } else {
                            symbols
                                .fn_ret_unit(&callee)
                                .or_else(|| units::of_ident(&callee))?
                        };
                        return Some(Atom {
                            unit,
                            name: format!("{callee}()"),
                            start: s,
                            end: close,
                        });
                    }
                    segs.push(nx.text.clone());
                    k += 2;
                }
                TokKind::Num => {
                    // Tuple projection: receiver unit, keep walking.
                    k += 2;
                }
                _ => break,
            }
        } else if dot.is_some_and(|p| p.is_punct(':'))
            && sf.ct(k + 2).is_some_and(|p| p.is_punct(':'))
        {
            let nx = sf.ct(k + 3)?;
            if nx.kind != TokKind::Ident {
                break;
            }
            segs.push(nx.text.clone());
            k += 3;
        } else {
            break;
        }
    }
    // Free-function call `callee(args)`.
    if sf.ct(k + 1).is_some_and(|p| p.is_punct('(')) {
        let callee = segs.last()?.clone();
        let close = close_paren_fwd(sf, k + 1)?;
        if sf.ct(close + 1).is_some_and(|p| p.is_punct('.')) || is_mul_div(sf, close + 1) {
            return None;
        }
        let unit = symbols
            .fn_ret_unit(&callee)
            .or_else(|| units::of_ident(&callee))?;
        return Some(Atom {
            unit,
            name: format!("{callee}()"),
            start: s,
            end: close,
        });
    }
    if is_mul_div(sf, k + 1) {
        return None;
    }
    let last = segs.last()?.clone();
    let unit = path_unit(facts, symbols, &segs)?;
    Some(Atom {
        unit,
        name: last,
        start: s,
        end: k,
    })
}

/// The unit of a resolved path: its final segment's identifier suffix,
/// a local/param fact for bare names, or the workspace-agreed field
/// unit for multi-segment paths.
fn path_unit(facts: &FnFacts, symbols: &SymbolTable, segs: &[String]) -> Option<Unit> {
    let last = segs.last()?;
    units::of_ident(last).or_else(|| {
        if segs.len() == 1 {
            facts.unit_of.get(last).copied()
        } else {
            symbols.field_unit(last)
        }
    })
}

/// Methods that return something in the receiver's unit — the same set
/// that name-keyed symbol lookups refuse to resolve.
fn unit_preserving_method(name: &str) -> bool {
    units::std_shadowed_method(name)
}

/// Walk a dotted/`::` path backwards from its final ident at `e`,
/// returning (start index, segments in order).
fn path_back(sf: &SourceFile, e: usize) -> (usize, Vec<String>) {
    let mut segs = vec![sf.ct(e).map(|t| t.text.clone()).unwrap_or_default()];
    let mut k = e;
    loop {
        if k >= 2
            && sf.ct(k - 1).is_some_and(|p| p.is_punct('.'))
            && sf
                .ct(k - 2)
                .is_some_and(|p| p.kind == TokKind::Ident || p.kind == TokKind::Num)
        {
            segs.push(sf.ct(k - 2).map(|t| t.text.clone()).unwrap_or_default());
            k -= 2;
        } else if k >= 3
            && sf.ct(k - 1).is_some_and(|p| p.is_punct(':'))
            && sf.ct(k - 2).is_some_and(|p| p.is_punct(':'))
            && sf.ct(k - 3).is_some_and(|p| p.kind == TokKind::Ident)
        {
            segs.push(sf.ct(k - 3).map(|t| t.text.clone()).unwrap_or_default());
            k -= 3;
        } else {
            break;
        }
    }
    segs.reverse();
    (k, segs)
}

/// Code index of the `(` matching the `)` at `close`, scanning back.
fn open_paren_back(sf: &SourceFile, close: usize) -> Option<usize> {
    let mut depth = 0i32;
    let mut k = close as i64;
    while k >= 0 {
        let t = sf.ct(k as usize)?;
        if t.is_punct(')') {
            depth += 1;
        } else if t.is_punct('(') {
            depth -= 1;
            if depth == 0 {
                return Some(k as usize);
            }
        }
        k -= 1;
    }
    None
}

/// Code index of the `)` matching the `(` at `open`, scanning forward.
fn close_paren_fwd(sf: &SourceFile, open: usize) -> Option<usize> {
    let mut depth = 0i32;
    let mut k = open;
    while let Some(t) = sf.ct(k) {
        if t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(')') {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
        k += 1;
    }
    None
}

/// Interprocedural leg: at every call site whose callee has a single
/// agreed parameter profile, check each single-atom argument's unit
/// against the declared parameter unit.
fn check_call_args(
    files: &[SourceFile],
    symbols: &SymbolTable,
    cg: &CallGraph,
    inputs: &mut Inputs,
    out: &mut Vec<Finding>,
) {
    let mut caches: BTreeMap<usize, FactsCache> = BTreeMap::new();
    for call in &cg.calls {
        let sf = &files[call.file];
        if call.in_test || !in_scope(rules::UNIT_CONSISTENCY, &sf.path) {
            continue;
        }
        let Some(params) = symbols.unified_params(&call.callee) else {
            continue;
        };
        if params.is_empty() {
            continue;
        }
        let Some(args) = split_args(sf, call.ci + 1) else {
            continue;
        };
        if args.len() != params.len() {
            continue;
        }
        let cache = caches.entry(call.file).or_default();
        let facts = facts_at(sf, symbols, call.ci, cache);
        for ((a_start, a_end), p) in args.iter().zip(params) {
            let Some(pu) = units::of_decl(&p.name, &p.ty) else {
                continue;
            };
            let Some(atom) = unit_starting_at(sf, facts, symbols, *a_start) else {
                continue;
            };
            if atom.end != *a_end {
                continue; // argument is a larger expression — unknown
            }
            count_input(inputs, rules::UNIT_CONSISTENCY, &sf.path);
            if atom.unit != pu {
                let t = &sf.toks[sf.code[*a_start]];
                out.push(Finding {
                    rule: rules::UNIT_CONSISTENCY,
                    path: sf.path.clone(),
                    line: t.line,
                    message: format!(
                        "call to `{}` passes `{}` ({}) for parameter `{}` ({}); convert \
                         explicitly at the call site",
                        call.callee, atom.name, atom.unit, p.name, pu
                    ),
                    suppressed: false,
                    justification: None,
                });
            }
        }
    }
}

/// Split the argument list opening at `(` (code index `open`) into
/// `[start, end]` spans at top-level commas. `None` for empty lists or
/// lists containing closures (whose commas are not argument breaks).
fn split_args(sf: &SourceFile, open: usize) -> Option<Vec<(usize, usize)>> {
    if !sf.ct(open)?.is_punct('(') {
        return None;
    }
    let close = close_paren_fwd(sf, open)?;
    if close == open + 1 {
        return None;
    }
    let mut spans = Vec::new();
    let mut depth = 0i32;
    let mut start = open + 1;
    for k in (open + 1)..close {
        let t = sf.ct(k)?;
        if t.is_punct('|') {
            return None;
        }
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth -= 1;
        } else if t.is_punct(',') && depth == 0 {
            if k == start {
                return None;
            }
            spans.push((start, k - 1));
            start = k + 1;
        }
    }
    // A trailing comma (a call rustfmt wraps) already closed the last
    // argument.
    if start < close {
        spans.push((start, close - 1));
    }
    Some(spans)
}
