//! The single rules table: every rule's number, scope, one-line
//! summary, census unit, contract and example. Rule scoping
//! ([`in_scope`]), `northup-analyze --explain <rule>`, the SARIF rule
//! catalog and the table in the crate docs ([`table`]) all read it, so a
//! crate name decides scope in exactly one place.

use crate::diag::{rules, severity_of};
use crate::rules::crate_of;

/// One rule's documentation.
#[derive(Debug, Clone, Copy)]
pub struct RuleDoc {
    /// Rule identifier (`atomic-order`, ...).
    pub id: &'static str,
    /// Rule number (`R11`); empty for the suppression meta-rule.
    pub number: &'static str,
    /// One line for the `--explain` index and the SARIF catalog.
    pub summary: &'static str,
    /// The crates the rule scopes over (empty: every analyzed file).
    pub scope: &'static [&'static str],
    /// What the census ([`crate::diag::Inputs`]) counts as one inspected
    /// site of this rule; `None` when the rule inspects every fn or call
    /// of a scoped crate, so no crate with code can starve it.
    pub inputs: Option<&'static str>,
    /// The invariant the rule enforces.
    pub contract: &'static str,
    /// A minimal violating example.
    pub example: &'static str,
}

/// Every rule, suppression meta-rule included, in rule-number order.
pub const RULE_DOCS: &[RuleDoc] = &[
    RuleDoc {
        id: rules::ORDERED_ITERATION,
        number: "R2",
        summary: "unordered HashMap/HashSet iteration leaks into schedules; use ordered containers",
        scope: &["core", "sched", "fleet"],
        inputs: Some("map/set type mentions (Hash*/BTree*)"),
        contract: "No HashMap/HashSet in schedule-affecting code: iteration order \
                   feeds event order, and unordered maps make replay diverge. Use \
                   BTreeMap/BTreeSet or sorted vecs.",
        example: "use std::collections::HashMap;  // in crates/sched",
    },
    RuleDoc {
        id: rules::LEASE_DISCIPLINE,
        number: "R3",
        summary: "acquired buffers/leases need a reachable release or an escaping handle",
        scope: &["sched", "apps"],
        inputs: Some("alloc call sites in fns whose signature keeps the handle"),
        contract: "Every alloc/lease acquisition needs a reachable release in the \
                   same item — release/free/drop, or an alloc on a Runtime the \
                   item itself built (its drop reclaims the buffer) — or the \
                   handle must escape through the return type; leaked leases \
                   starve admission. Any release in the item answers every \
                   alloc in it: the rule does not pair them.",
        example: "let h = ctx.alloc(node, bytes)?;  // no release, h dropped",
    },
    RuleDoc {
        id: rules::PANIC_PATHS,
        number: "R4",
        summary: "no unwrap()/expect(..)/panic!/assert! in non-test runtime code",
        scope: &["core", "exec", "sched", "fleet", "apps"],
        inputs: None,
        contract: "No unwrap()/expect()/panic!/assert!/assert_eq!/assert_ne! in \
                   non-test runtime code; a panic on a pool thread poisons the run. \
                   Return the typed error instead. debug_assert* and asserts in a \
                   const item (outside every fn body) are not matched.",
        example: "let v = map.get(&k).unwrap();  // runtime path",
    },
    RuleDoc {
        id: rules::UNIT_CONSISTENCY,
        number: "R6",
        summary: "no mixed-unit arithmetic/comparison across ns, bytes, events",
        scope: &["core", "sched", "fleet"],
        inputs: Some("operators and call arguments with a known unit on both sides"),
        contract: "No arithmetic/comparison mixing ns, bytes, and event counts; \
                   unit identity comes from ident suffixes, field types, and \
                   fn signatures, and poisons through mul/div.",
        example: "let cost = transfer_ns + payload_bytes;",
    },
    RuleDoc {
        id: rules::ARENA_INDEX,
        number: "R7",
        summary: "dense arena indices stay in their declared domain and die on compaction",
        scope: &["sched"],
        inputs: Some("index expressions over a declared arena from outside its owner"),
        contract: "Dense arena indices (HotJob, ChunkChain, ...) stay in their \
                   declared domain: no raw/literal/cross-domain usize indexing, \
                   and no index held across a compacting call (swap_remove, \
                   retain, sort, ...).",
        example: "let j = hot[other_domain_id.0 as usize];",
    },
    RuleDoc {
        id: rules::DETERMINISM_TAINT,
        number: "R8",
        summary: "wall-clock/entropy sources must not reach schedule-visible code, even transitively",
        scope: &["core", "sim", "sched", "fleet"],
        inputs: None,
        contract: "No wall-clock or OS entropy (Instant/SystemTime/thread_rng) \
                   reaching schedule-visible code, even through helper fns in \
                   other crates; the call graph is chased with a witness chain. \
                   Carve-outs: sim/src/time.rs, sched/src/real.rs.",
        example: "fn stamp() -> u128 { Instant::now().elapsed().as_nanos() }",
    },
    RuleDoc {
        id: rules::EVENT_ORDER,
        number: "R9",
        summary: "packed calendar events are ordered by the full (SimTime, kind, id, seq) tuple",
        scope: &["sched"],
        inputs: Some("*_by/*_by_key calls on an event store"),
        contract: "Packed calendar events are ordered only by the full (SimTime, \
                   kind, id, seq) tuple; sorting or selecting by a projected key \
                   drops the tie-break and lets insertion order leak into \
                   schedules.",
        example: "events.sort_by_key(|e| e.0);",
    },
    RuleDoc {
        id: rules::ATOMIC_ORDER,
        number: "R11",
        summary: "Relaxed accesses on a release/acquire publication or consumption edge need a fence or a justified allow",
        scope: &["exec"],
        inputs: Some("accesses to a registered atomic"),
        contract: "An atomic with a release/acquire protocol (a Release+ store or \
                   Acquire+ load anywhere) admits no Relaxed access on the \
                   opposite edge. CAS failure orderings are exempt, as is any fn \
                   that issues fence(SeqCst) (the Chase-Lev idiom); counters only \
                   ever accessed Relaxed have no protocol to violate.",
        example: "flag.store(true, Ordering::Release);  ...  flag.load(Ordering::Relaxed)",
    },
    RuleDoc {
        id: rules::BLOCKING_EXTENT,
        number: "R12",
        summary: "no lock guard may be held across a may-block call (sleep, channel ops, nested locks, file I/O)",
        scope: &["exec"],
        inputs: Some(".lock() sites (guard extents audited)"),
        contract: "No lock guard held across a may-block operation: sleeping, \
                   channel recv/send, join/park, file I/O, and lock acquisition \
                   itself, propagated transitively through the call graph — so \
                   every edge of a lock-order cycle is a finding. Condvar waits \
                   handed a held guard are the sleep protocol and are exempt.",
        example: "let g = state.lock(); rx.recv();  // convoy",
    },
    RuleDoc {
        id: rules::SUPPRESSION,
        number: "",
        summary: "analyze:allow directives must be justified, known, and live",
        scope: &[],
        inputs: None,
        contract: "Suppression hygiene: an analyze:allow with an empty \
                   justification, an unknown or retired rule name, or no finding \
                   left to suppress is itself a (warning-tier) finding.",
        example: "// analyze:allow(panic-paths)  <- no justification",
    },
];

impl RuleDoc {
    /// The scope as prose: `` `core`, `sched` `` or `all analyzed files`.
    pub fn scope_text(&self) -> String {
        if self.scope.is_empty() {
            return "all analyzed files".to_string();
        }
        let names: Vec<String> = self.scope.iter().map(|c| format!("`{c}`")).collect();
        names.join(", ")
    }
}

/// Is `path` (a workspace-relative logical path) in `rule`'s scope?
pub fn in_scope(rule: &str, path: &str) -> bool {
    let scope = RULE_DOCS.iter().find(|d| d.id == rule).map(|d| d.scope);
    crate_of(path).is_some_and(|k| scope.is_some_and(|s| s.contains(&k)))
}

/// The rule table of the crate docs, one markdown row per numbered rule.
pub fn table() -> String {
    let mut out = String::from("| Rule | Scope | Invariant |\n|------|-------|-----------|\n");
    for d in RULE_DOCS.iter().filter(|d| !d.number.is_empty()) {
        out.push_str(&format!(
            "| `{}` ({}) | {} | {} |\n",
            d.id,
            d.number,
            d.scope_text(),
            d.summary
        ));
    }
    out
}

/// Render the doc for one rule (or `None` if the rule is unknown).
pub fn explain(rule: &str) -> Option<String> {
    let d = RULE_DOCS.iter().find(|d| d.id == rule)?;
    Some(format!(
        "{id} ({sev})\n  scope:    {scope}\n  contract: {contract}\n  \
         example:  {example}\n  allow:    // analyze:allow({id}): <why this \
         instance upholds the contract anyway>",
        id = d.id,
        sev = severity_of(d.id).as_str(),
        scope = d.scope_text(),
        contract = d.contract,
        example = d.example,
    ))
}

/// Render the one-line index of every rule (for `--explain` with no or
/// an unknown argument).
pub fn index() -> String {
    let mut out = String::from("rules (use --explain <rule> for the contract):\n");
    for d in RULE_DOCS {
        out.push_str(&format!("  {:<18} {}\n", d.id, d.summary));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::rules;

    #[test]
    fn every_rule_has_a_doc_and_vice_versa() {
        for r in rules::ALL.iter().chain([&rules::SUPPRESSION]) {
            assert_eq!(
                RULE_DOCS.iter().filter(|d| d.id == *r).count(),
                1,
                "rule {r} needs exactly one RuleDoc"
            );
        }
        assert_eq!(RULE_DOCS.len(), rules::ALL.len() + 1);
    }

    #[test]
    fn explain_renders_contract_and_allow_syntax() {
        let txt = explain("atomic-order").unwrap();
        assert!(txt.contains("fence(SeqCst)"));
        assert!(txt.contains("scope:    `exec`"));
        assert!(txt.contains("analyze:allow(atomic-order)"));
        assert!(explain("no-such-rule").is_none());
        assert!(index().contains("blocking-extent"));
    }

    #[test]
    fn the_crate_docs_carry_the_rendered_table() {
        let crate_docs = include_str!("lib.rs");
        for row in table().lines() {
            assert!(
                crate_docs.contains(&format!("//! {row}\n")),
                "lib.rs: {row}"
            );
        }
    }
}
