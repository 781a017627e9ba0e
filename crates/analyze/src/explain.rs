//! The single rules table behind `northup-analyze --explain <rule>` and
//! the SARIF rule catalog: every rule's one-line summary, contract, an
//! example, and the allow syntax, so a suppression justification can
//! reference the exact contract it waives.

use crate::diag::{rules, severity_of};

/// One rule's documentation.
#[derive(Debug, Clone, Copy)]
pub struct RuleDoc {
    /// Rule identifier (`lock-set`, ...).
    pub id: &'static str,
    /// One line for the `--explain` index and the SARIF catalog.
    pub summary: &'static str,
    /// The crates the rule scopes over.
    pub scope: &'static str,
    /// The invariant the rule enforces.
    pub contract: &'static str,
    /// A minimal violating example.
    pub example: &'static str,
}

/// Every rule, suppression meta-rule included, in rule-number order.
pub const RULE_DOCS: &[RuleDoc] = &[
    RuleDoc {
        id: rules::ORDERED_ITERATION,
        summary: "unordered HashMap/HashSet iteration leaks into schedules; use ordered containers",
        scope: "core, sim, sched, fleet",
        contract: "No HashMap/HashSet in schedule-affecting code: iteration order \
                   feeds event order, and unordered maps make replay diverge. Use \
                   BTreeMap/BTreeSet or sorted vecs.",
        example: "use std::collections::HashMap;  // in crates/sched",
    },
    RuleDoc {
        id: rules::LEASE_DISCIPLINE,
        summary: "acquired buffers/leases need a reachable release or an escaping handle",
        scope: "core, sched, apps",
        contract: "Every alloc/lease acquisition needs a reachable release on the \
                   same path, or the handle must escape to a caller that releases \
                   it; leaked leases starve admission.",
        example: "let h = ctx.alloc(node, bytes)?;  // no release, h dropped",
    },
    RuleDoc {
        id: rules::PANIC_PATHS,
        summary: "no unwrap()/expect(..)/panic! in non-test runtime code",
        scope: "core, exec, sched, fleet",
        contract: "No unwrap()/expect()/panic! in non-test runtime code; a panic on \
                   a pool thread poisons the run. Return the typed error instead.",
        example: "let v = map.get(&k).unwrap();  // runtime path",
    },
    RuleDoc {
        id: rules::LOCK_ORDER,
        summary: "the static lock-acquisition graph must be acyclic",
        scope: "exec, sched",
        contract: "The static lock-acquisition graph (guard extents plus locks \
                   acquired transitively through calls, over the shared call \
                   graph) must be acyclic; a cycle is a potential deadlock.",
        example: "fn a() { _1 = x.lock(); y.lock(); }  fn b() { _2 = y.lock(); x.lock(); }",
    },
    RuleDoc {
        id: rules::UNIT_CONSISTENCY,
        summary: "no mixed-unit arithmetic/comparison across ns, bytes, byte·seconds, events",
        scope: "core, sched, fleet",
        contract: "No arithmetic/comparison mixing ns, bytes, byte-seconds, and \
                   event counts; unit identity comes from ident suffixes, field \
                   types, and fn signatures, and poisons through mul/div.",
        example: "let cost = transfer_ns + payload_bytes;",
    },
    RuleDoc {
        id: rules::ARENA_INDEX,
        summary: "dense arena indices stay in their declared domain and die on compaction",
        scope: "core, sched, fleet",
        contract: "Dense arena indices (HotJob, ChunkChain, ...) stay in their \
                   declared domain: no raw/literal/cross-domain usize indexing, \
                   and no index held across a compacting call (swap_remove, \
                   retain, sort, ...).",
        example: "let j = hot[other_domain_id.0 as usize];",
    },
    RuleDoc {
        id: rules::DETERMINISM_TAINT,
        summary: "wall-clock/entropy sources must not reach schedule-visible code, even transitively",
        scope: "core, sim, sched, fleet",
        contract: "No wall-clock or OS entropy (Instant/SystemTime/thread_rng) \
                   reaching schedule-visible code, even through helper fns in \
                   other crates; the call graph is chased with a witness chain. \
                   Carve-outs: sim/src/time.rs, sched/src/real.rs.",
        example: "fn stamp() -> u128 { Instant::now().elapsed().as_nanos() }",
    },
    RuleDoc {
        id: rules::EVENT_ORDER,
        summary: "packed calendar events are ordered by the full (SimTime, kind, id, seq) tuple",
        scope: "core, sched",
        contract: "Packed calendar events are ordered only by the full (SimTime, \
                   kind, id, seq) tuple; sorting or selecting by a projected key \
                   drops the tie-break and lets insertion order leak into \
                   schedules.",
        example: "events.sort_by_key(|e| e.0);",
    },
    RuleDoc {
        id: rules::LOCK_SET,
        summary: "guarded fields need a live guard; shared plain fields must not be written from thread-escaping code",
        scope: "exec, sched, fleet",
        contract: "A field declared `guarded by \\`lock\\`` in its doc comment is \
                   only touched while that guard is live (locally or via the \
                   entry-held set every caller provides), and a plain field of a \
                   shared struct is never written from thread-escaping code \
                   (spawn/run_chain*/scope/par_for closures and their callees) \
                   without a lock; findings carry the witness chain to the spawn.",
        example: "pool.spawn(move || { shared.epoch += 1; });  // no guard",
    },
    RuleDoc {
        id: rules::ATOMIC_ORDER,
        summary: "Relaxed accesses on a release/acquire publication or consumption edge need a fence or a justified allow",
        scope: "exec, sched, fleet",
        contract: "An atomic with a release/acquire protocol (a Release+ store or \
                   Acquire+ load anywhere) admits no Relaxed access on the \
                   opposite edge. CAS failure orderings are exempt, as is any fn \
                   that issues fence(SeqCst) (the Chase-Lev idiom); counters only \
                   ever accessed Relaxed have no protocol to violate.",
        example: "flag.store(true, Ordering::Release);  ...  flag.load(Ordering::Relaxed)",
    },
    RuleDoc {
        id: rules::BLOCKING_EXTENT,
        summary: "no lock guard may be held across a may-block call (sleep, channel ops, nested locks, file I/O)",
        scope: "exec, sched, fleet",
        contract: "No lock guard held across a may-block operation: sleeping, \
                   channel recv/send, join/park, file I/O, and lock acquisition \
                   itself, propagated transitively through the call graph. \
                   Condvar waits handed a held guard are the sleep protocol and \
                   are exempt.",
        example: "let g = state.lock(); rx.recv();  // convoy",
    },
    RuleDoc {
        id: rules::SUPPRESSION,
        summary: "analyze:allow directives must be justified, known, and live",
        scope: "all analyzed files",
        contract: "Suppression hygiene: an analyze:allow with an empty \
                   justification, an unknown or retired rule name, or no finding \
                   left to suppress is itself a (warning-tier) finding.",
        example: "// analyze:allow(lock-order)  <- no justification",
    },
];

/// Render the doc for one rule (or `None` if the rule is unknown).
pub fn explain(rule: &str) -> Option<String> {
    let d = RULE_DOCS.iter().find(|d| d.id == rule)?;
    Some(format!(
        "{id} ({sev})\n  scope:    {scope}\n  contract: {contract}\n  \
         example:  {example}\n  allow:    // analyze:allow({id}): <why this \
         instance upholds the contract anyway>",
        id = d.id,
        sev = severity_of(d.id).as_str(),
        scope = d.scope,
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
        assert!(txt.contains("analyze:allow(atomic-order)"));
        assert!(explain("no-such-rule").is_none());
        assert!(index().contains("blocking-extent"));
    }
}
