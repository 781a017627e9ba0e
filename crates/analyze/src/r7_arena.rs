//! R7 arena-index discipline.
//!
//! The engine addresses everything through dense arenas (`HotJob` per
//! job, `ChainArena` interning `ChunkChain`s, per-node dense vectors).
//! An arena index is only meaningful in its declared domain and only
//! while the arena is not compacted. This rule finds arenas from struct
//! declarations — a field whose type mentions an arena payload
//! (`HotJob`, `ChunkChain`) or whose doc comment declares an index
//! domain (``indexed by `JobId.0` ``, ``dense by `NodeId.0` ``,
//! ``(index = `NodeId.0`)``) — and then audits every `arena[...]`
//! expression:
//!
//! - a numeric literal index is always flagged;
//! - a bare `usize` variable must be sanctioned by a
//!   `for i in 0..arena.len()` header over the *same* arena;
//! - a typed projection `arena[id.0 as usize]` must match the arena's
//!   declared domain (indexing `hot` with a `NodeId` is a finding);
//! - an index reused after a compacting call (`remove`, `swap_remove`,
//!   `truncate`, `clear`, `drain`, `retain`, `sort*`) on the same arena
//!   is flagged as stale. Growth (`push`) is *not* compaction — dense
//!   indices survive it.
//!
//! Access through `self` is exempt: the arena's own methods are the
//! sanctioned implementation; the discipline applies at arena
//! boundaries, where handles travel between components.

use std::collections::BTreeMap;

use crate::dataflow::{self, FnFacts};
use crate::diag::{count_input, rules, Finding, Inputs};
use crate::explain::in_scope;
use crate::lexer::TokKind;
use crate::source::SourceFile;
use crate::symbols::SymbolTable;

/// Payload types whose containers are arenas even without a doc
/// annotation.
const ARENA_PAYLOADS: &[&str] = &["HotJob", "ChunkChain", "ChainArena"];

/// Calls that can invalidate outstanding dense indices.
const COMPACTING: &[&str] = &[
    "remove",
    "swap_remove",
    "truncate",
    "clear",
    "drain",
    "retain",
    "sort",
    "sort_unstable",
    "sort_by",
    "sort_unstable_by",
    "sort_by_key",
    "sort_unstable_by_key",
    "dedup",
];

/// One known arena: field name → declared index domain (type name from
/// the doc annotation, `None` when only the payload type marked it).
#[derive(Debug, Default)]
pub struct ArenaRegistry {
    /// Arena field name → index domain (`JobId`, `NodeId`, ...).
    pub domains: BTreeMap<String, Option<String>>,
}

impl ArenaRegistry {
    /// Build the registry from the symbol table's field declarations.
    pub fn build(symbols: &SymbolTable) -> ArenaRegistry {
        let mut reg = ArenaRegistry::default();
        for f in &symbols.fields {
            let typed = ARENA_PAYLOADS.iter().any(|p| f.ty.contains(p));
            let domain = index_domain(&f.doc);
            if typed || domain.is_some() {
                // Conflicting domains for a same-named field merge to
                // unknown (raw-index checks still apply).
                reg.domains
                    .entry(f.name.clone())
                    .and_modify(|d| {
                        if *d != domain {
                            *d = None;
                        }
                    })
                    .or_insert(domain);
            }
        }
        reg
    }
}

/// Parse an index-domain annotation out of a field doc comment:
/// ``indexed by `JobId.0` ``, ``dense by `NodeId.0` ``, or
/// ``(index = `NodeId.0`)`` all declare the domain type.
fn index_domain(doc: &str) -> Option<String> {
    for marker in ["indexed by `", "dense by `", "index = `"] {
        if let Some(pos) = doc.find(marker) {
            let rest = &doc[pos + marker.len()..];
            let end = rest.find(['.', '`'])?;
            let ty = rest[..end].trim();
            if !ty.is_empty() {
                return Some(ty.to_string());
            }
        }
    }
    None
}

/// Run R7 over every file.
pub fn check(
    files: &[SourceFile],
    symbols: &SymbolTable,
    inputs: &mut Inputs,
    out: &mut Vec<Finding>,
) {
    let reg = ArenaRegistry::build(symbols);
    if reg.domains.is_empty() {
        return;
    }
    for sf in files {
        if !in_scope(rules::ARENA_INDEX, &sf.path) {
            continue;
        }
        for f in &sf.fns {
            if f.is_test {
                continue;
            }
            let facts = FnFacts::collect(sf, f, symbols);
            check_fn(sf, f.body_start + 1, f.body_end, &facts, &reg, inputs, out);
        }
    }
}

/// One indexing expression `path[...]` over a known arena.
struct IndexUse {
    /// Code index of the `[`.
    ci: usize,
    /// Full dotted receiver path.
    path: String,
    /// Bare index variable name, when the index is a single ident (with
    /// or without `as usize`).
    bare: Option<String>,
}

fn check_fn(
    sf: &SourceFile,
    lo: usize,
    hi: usize,
    facts: &FnFacts,
    reg: &ArenaRegistry,
    inputs: &mut Inputs,
    out: &mut Vec<Finding>,
) {
    let mut uses: Vec<IndexUse> = Vec::new();
    // (arena path, code index, method) of compacting calls, in order.
    let mut compactions: Vec<(String, usize, String)> = Vec::new();
    for ci in lo..hi {
        let t = &sf.toks[sf.code[ci]];
        // Compacting call: `path.method(` with method in COMPACTING.
        if t.kind == TokKind::Ident
            && COMPACTING.contains(&t.text.as_str())
            && ci >= 2
            && sf.ct(ci - 1).is_some_and(|p| p.is_punct('.'))
            && sf.ct(ci + 1).is_some_and(|n| n.is_punct('('))
        {
            let path = dataflow::path_ending_at(sf, ci - 2);
            if let Some(last) = path.rsplit('.').next() {
                if reg.domains.contains_key(last) {
                    compactions.push((path.clone(), ci, t.text.clone()));
                }
            }
        }
        // Indexing: `ident [` where ident is an arena field.
        if t.kind != TokKind::Ident || !sf.ct(ci + 1).is_some_and(|n| n.is_punct('[')) {
            continue;
        }
        let arena = t.text.clone();
        if !reg.domains.contains_key(&arena) {
            continue;
        }
        let path = dataflow::path_ending_at(sf, ci);
        // The arena's own methods are exempt (`self.chains[idx]`).
        if path.starts_with("self.") || path == "self" {
            continue;
        }
        count_input(inputs, rules::ARENA_INDEX, &sf.path);
        let open = ci + 1;
        let close = match_bracket(sf, open, hi);
        let idx_tokens = close.saturating_sub(open + 1);
        let first = sf.ct(open + 1);
        let line = t.line;
        // Case 1: literal index.
        if idx_tokens == 1 && first.is_some_and(|x| x.kind == TokKind::Num) {
            out.push(finding(
                sf,
                line,
                format!(
                    "literal index into arena `{path}`; dense indices are only \
                     meaningful as domain handles ({})",
                    domain_hint(reg, &arena)
                ),
            ));
            continue;
        }
        // Case 3: typed projection `id.0 [as usize]`.
        if let Some(var) = projection_var(sf, open, close) {
            if let (Some(dom), Some(ty)) = (&reg.domains[&arena], facts.ty_of.get(&var)) {
                let ty_head = ty
                    .trim_start_matches("& ")
                    .split_whitespace()
                    .next()
                    .unwrap_or("");
                if !ty_head.is_empty() && ty_head != dom {
                    out.push(finding(
                        sf,
                        line,
                        format!(
                            "`{path}` is indexed by `{dom}` but `{var}` is a `{ty_head}`; \
                             cross-domain arena indexing"
                        ),
                    ));
                }
            }
            uses.push(IndexUse {
                ci: open,
                path,
                bare: Some(var),
            });
            continue;
        }
        // Case 2: bare ident (optionally `as usize`).
        if let Some(var) = bare_index_var(sf, open, close) {
            let sanctioned = facts
                .sanctioned_idx
                .get(&var)
                .is_some_and(|p| p == &path || p.rsplit('.').next() == Some(arena.as_str()));
            if !sanctioned {
                out.push(finding(
                    sf,
                    line,
                    format!(
                        "raw index `{var}` into arena `{path}`; bound it with \
                         `for {var} in 0..{path}.len()` or index through the domain \
                         handle ({})",
                        domain_hint(reg, &arena)
                    ),
                ));
            }
            uses.push(IndexUse {
                ci: open,
                path,
                bare: Some(var),
            });
            continue;
        }
        uses.push(IndexUse {
            ci: open,
            path,
            bare: None,
        });
    }
    // Case 4: an index variable used on the same arena both before and
    // after a compacting call is stale.
    for (cpath, cci, method) in &compactions {
        for u in &uses {
            let Some(var) = &u.bare else { continue };
            if &u.path != cpath || u.ci <= *cci {
                continue;
            }
            let used_before = uses
                .iter()
                .any(|v| v.bare.as_ref() == Some(var) && v.path == *cpath && v.ci < *cci);
            if used_before {
                let line = sf.toks[sf.code[u.ci]].line;
                out.push(finding(
                    sf,
                    line,
                    format!(
                        "index `{var}` into `{}` is reused after `{}.{method}(..)` \
                         compacted the arena; re-derive the index",
                        u.path, cpath
                    ),
                ));
            }
        }
    }
}

fn finding(sf: &SourceFile, line: u32, message: String) -> Finding {
    Finding {
        rule: rules::ARENA_INDEX,
        path: sf.path.clone(),
        line,
        message,
        suppressed: false,
        justification: None,
    }
}

fn domain_hint(reg: &ArenaRegistry, arena: &str) -> String {
    match &reg.domains[arena] {
        Some(d) => format!("domain `{d}`"),
        None => "domain undeclared — add an `indexed by `T.0`` doc annotation".to_string(),
    }
}

/// Code index of the `]` matching `[` at `open`, bounded by `hi`.
fn match_bracket(sf: &SourceFile, open: usize, hi: usize) -> usize {
    let mut depth = 0i32;
    for k in open..hi {
        let t = &sf.toks[sf.code[k]];
        if t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(']') {
            depth -= 1;
            if depth == 0 {
                return k;
            }
        }
    }
    hi
}

/// `[ id . 0 ]` or `[ id . 0 as usize ]` → `id`.
fn projection_var(sf: &SourceFile, open: usize, close: usize) -> Option<String> {
    let id = sf.ct(open + 1)?;
    if id.kind != TokKind::Ident
        || !sf.ct(open + 2)?.is_punct('.')
        || sf.ct(open + 3)?.kind != TokKind::Num
    {
        return None;
    }
    let rest = close.saturating_sub(open + 4);
    let ok = rest == 0
        || (rest == 2
            && sf.ct(open + 4).is_some_and(|t| t.is_ident("as"))
            && sf.ct(open + 5).is_some_and(|t| t.kind == TokKind::Ident));
    ok.then(|| id.text.clone())
}

/// `[ i ]` or `[ i as usize ]` → `i`.
fn bare_index_var(sf: &SourceFile, open: usize, close: usize) -> Option<String> {
    let id = sf.ct(open + 1)?;
    if id.kind != TokKind::Ident {
        return None;
    }
    let rest = close.saturating_sub(open + 2);
    let ok = rest == 0
        || (rest == 2
            && sf.ct(open + 2).is_some_and(|t| t.is_ident("as"))
            && sf.ct(open + 3).is_some_and(|t| t.kind == TokKind::Ident));
    ok.then(|| id.text.clone())
}
