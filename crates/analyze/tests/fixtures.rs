//! Per-rule tests, R2–R8, through the public
//! [`northup_analyze::analyze_sources`] entry point exactly as the CLI
//! runs. Each rule's `*_true_positive` is its seeded defect: a mutation
//! of a real product file (see [`common::Seed`]) with the `file:line`
//! finding asserted. Synthetic fixtures remain for what no single
//! product line shows: the other branches of a rule, its carve-outs and
//! suppression.

mod common;

use common::{failing_lines, one, Seed};
use northup_analyze::diag::rules;

// ---------------------------------------------------------------- R2

/// The DAG's category histogram becomes a `HashMap`: its `Debug`
/// rendering now varies run to run, and two of
/// `crates/core/tests/determinism.rs`' four tests fail.
#[test]
fn ordered_iteration_true_positive() {
    let seed = Seed {
        path: "crates/core/src/dag.rs",
        with: &[],
        old: "-> BTreeMap<&'static str, usize> {\n        let mut h = BTreeMap::new();",
        new: "-> std::collections::HashMap<&'static str, usize> {\n        let mut h = BTreeMap::new();",
    };
    seed.trips(rules::ORDERED_ITERATION, "-> std::collections::HashMap<");
}

#[test]
fn ordered_iteration_clean() {
    let r = one(
        "crates/sched/src/table.rs",
        "use std::collections::BTreeMap;\nfn f() { let m: BTreeMap<u32, u32> = BTreeMap::new(); }\n",
    );
    assert_eq!(r.failing_for(rules::ORDERED_ITERATION), 0);
    // HashSet in test code is out of scope.
    let r = one(
        "crates/core/src/x.rs",
        "#[cfg(test)]\nmod tests {\n    use std::collections::HashSet;\n    #[test]\n    fn t() { let _s: HashSet<u8> = HashSet::new(); }\n}\n",
    );
    assert_eq!(r.failing_for(rules::ORDERED_ITERATION), 0);
}

#[test]
fn ordered_iteration_suppressed_with_justification() {
    let r = one(
        "crates/core/src/cache.rs",
        "// analyze:allow(ordered-iteration): cache is never iterated, only probed by key\n\
         use std::collections::HashMap;\n",
    );
    assert_eq!(r.failing().count(), 0);
    assert_eq!(r.findings.iter().filter(|f| f.suppressed).count(), 1);
}

// ---------------------------------------------------------------- R3

/// `RealFabric::run_chunk` stops releasing its staging buffer: the
/// second chunk's alloc exceeds the job's lease, and
/// `real::tests::lease_is_enforced_at_staging_alloc` and
/// `faulted_chunks_are_transactional_…` fail.
#[test]
fn lease_true_positive() {
    let seed = Seed {
        path: "crates/sched/src/real.rs",
        with: &[],
        old: "let released = self.rt.release(buf);",
        new: "let released = self.rt.buffer_node(buf).map(drop);",
    };
    let message = seed.trips(
        rules::LEASE_DISCIPLINE,
        "Some(self.rt.alloc(stage_bytes, staging)?)",
    );
    assert!(message.contains("fn `run_chunk`"), "{message}");
}

#[test]
fn lease_clean_release_and_escape() {
    // Released in the same item: clean.
    let r = one(
        "crates/apps/src/ok.rs",
        "fn ok(rt: &Runtime) {\n    let b = rt.alloc(1024, root).unwrap();\n    rt.release(b).unwrap();\n}\n",
    );
    assert_eq!(r.failing_for(rules::LEASE_DISCIPLINE), 0);
    // Handle escapes via the return type: caller owns it, clean.
    let r = one(
        "crates/apps/src/escape.rs",
        "fn escape(rt: &Runtime) -> Result<BufferHandle> {\n    rt.alloc(1024, root)\n}\n",
    );
    assert_eq!(r.failing_for(rules::LEASE_DISCIPLINE), 0);
}

#[test]
fn lease_suppressed_with_justification() {
    let r = one(
        "crates/apps/src/pinned.rs",
        "fn pinned(rt: &Runtime) {\n    // analyze:allow(lease-discipline): buffer lives for the whole run; Runtime drop reclaims it\n    let b = rt.alloc(1024, root);\n    let _ = b;\n}\n",
    );
    assert_eq!(r.failing().count(), 0);
    assert_eq!(r.findings.iter().filter(|f| f.suppressed).count(), 1);
}

// ---------------------------------------------------------------- R4

/// A dead handle panics instead of returning `UnknownBuffer`:
/// `data::tests::bad_ranges_and_unknown_buffers_error` and
/// `with_bytes_rejects_bad_ranges_and_dead_handles_before_lending` fail.
#[test]
fn panic_paths_true_positive() {
    let seed = Seed {
        path: "crates/core/src/data.rs",
        with: &[],
        old: "            .copied()\n            .ok_or(NorthupError::UnknownBuffer(h))\n",
        new: "            .copied()\n            .map(Ok)\n            .expect(\"known buffer\")\n",
    };
    seed.trips(rules::PANIC_PATHS, ".expect(\"known buffer\")");
    // The branches that seed does not take: `panic!` and `unwrap`, and
    // the rest of the scope.
    let r = one("crates/exec/src/hot.rs", "fn f() { panic!(\"boom\"); }\n");
    assert_eq!(r.failing_for(rules::PANIC_PATHS), 1);
    for krate in ["sched", "fleet", "apps"] {
        let path = format!("crates/{krate}/src/hot.rs");
        let r = one(&path, "fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n");
        assert_eq!(failing_lines(&r, rules::PANIC_PATHS), vec![2], "{krate}");
    }
    let r = one(
        "crates/sched/src/hot.rs",
        "fn f(x: Option<u32>) -> u32 { x.expect(\"present\") }\n",
    );
    assert_eq!(r.failing_for(rules::PANIC_PATHS), 1);
}

/// The `assert!` family aborts as surely as `panic!`; `debug_assert!`
/// is compiled out of release builds, and an assert in a `const` item is
/// evaluated by the compiler, so neither is reported.
#[test]
fn panic_paths_reports_the_assert_family() {
    let r = one(
        "crates/apps/src/hot.rs",
        "fn f(n: usize, b: usize) -> usize {\n    assert!(n % b == 0);\n    \
         assert_eq!(n, 64);\n    assert_ne!(b, 0);\n    debug_assert!(b <= n);\n    \
         debug_assert_eq!(n % b, 0);\n    n / b\n}\n\
         const _: () = {\n    assert!(WINDOW > 0);\n};\n\
         const TOP: usize = { assert!(WINDOW > 1); WINDOW };\n",
    );
    assert_eq!(failing_lines(&r, rules::PANIC_PATHS), vec![2, 3, 4]);
}

#[test]
fn panic_paths_clean() {
    // Typed error instead of panic: clean.
    let r = one(
        "crates/core/src/hot.rs",
        "fn f(x: Option<u32>) -> Result<u32> { x.ok_or(NorthupError::Empty) }\n",
    );
    assert_eq!(r.failing_for(rules::PANIC_PATHS), 0);
    // unwrap in #[cfg(test)] code is fine.
    let r = one(
        "crates/core/src/hot.rs",
        "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { Some(1).unwrap(); }\n}\n",
    );
    assert_eq!(r.failing_for(rules::PANIC_PATHS), 0);
    // `unwrap` mentioned in a comment or string is not a finding.
    let r = one(
        "crates/core/src/hot.rs",
        "// never unwrap() here\nfn f() -> &'static str { \"x.unwrap()\" }\n",
    );
    assert_eq!(r.failing_for(rules::PANIC_PATHS), 0);
    // kernels is outside R4's scope.
    let r = one("crates/kernels/src/hot.rs", "fn f() { x.unwrap(); }\n");
    assert_eq!(r.failing_for(rules::PANIC_PATHS), 0);
}

#[test]
fn panic_paths_suppressed_with_justification() {
    let r = one(
        "crates/exec/src/hot.rs",
        "fn f(x: Option<u32>) -> u32 {\n    // analyze:allow(panic-paths): invariant established two lines up; unreachable in practice\n    x.unwrap()\n}\n",
    );
    assert_eq!(r.failing().count(), 0);
    assert_eq!(r.findings.iter().filter(|f| f.suppressed).count(), 1);
}

// ------------------------------------------------- R5 (retired) → R12

/// What `lock-order` reported, `blocking-extent` still rejects: both
/// edges of a direct cycle are nested acquisitions under a held guard.
#[test]
fn lock_order_true_positive() {
    let r = one(
        "crates/exec/src/locks.rs",
        "fn ab(s: &S) { let _a = s.alpha.lock(); let _b = s.beta.lock(); }\n\
         fn ba(s: &S) { let _b = s.beta.lock(); let _a = s.alpha.lock(); }\n",
    );
    assert_eq!(failing_lines(&r, rules::BLOCKING_EXTENT), vec![1, 2]);
}

#[test]
fn lock_order_clean() {
    // Dropping the first guard before taking the second leaves no edge.
    let r = one(
        "crates/exec/src/locks.rs",
        "fn ab(s: &S) { let a = s.alpha.lock(); drop(a); let _b = s.beta.lock(); }\n\
         fn ba(s: &S) { let b = s.beta.lock(); drop(b); let _a = s.alpha.lock(); }\n",
    );
    assert_eq!(r.failing_for(rules::BLOCKING_EXTENT), 0);
}

#[test]
fn lock_order_transitive_cycle_through_calls() {
    // f holds alpha and calls g, which takes beta; h orders them the
    // other way. Both edges of the cycle are findings: the call in f
    // (g may block on beta) and the nested acquisition in h.
    let r = one(
        "crates/exec/src/locks.rs",
        "fn f(s: &S) { let _a = s.alpha.lock(); g(s); }\n\
         fn g(s: &S) { let _b = s.beta.lock(); }\n\
         fn h(s: &S) { let _b = s.beta.lock(); let _a = s.alpha.lock(); }\n",
    );
    assert_eq!(failing_lines(&r, rules::BLOCKING_EXTENT), vec![1, 3]);
}

// ---------------------------------------------------------------- R6

#[test]
fn unit_mixed_arithmetic_true_positive() {
    let r = one(
        "crates/fleet/src/score.rs",
        "fn score(deadline_ns: u64, payload_bytes: u64) -> u64 {\n\
         \x20   deadline_ns + payload_bytes\n\
         }\n",
    );
    assert_eq!(failing_lines(&r, rules::UNIT_CONSISTENCY), vec![2]);
    let f = r
        .failing()
        .find(|f| f.rule == rules::UNIT_CONSISTENCY)
        .unwrap();
    assert!(f.message.contains("deadline_ns"), "{}", f.message);
    assert!(f.message.contains("payload_bytes"), "{}", f.message);
}

#[test]
fn unit_mixed_comparison_true_positive() {
    let r = one(
        "crates/sched/src/budget.rs",
        "fn over(t_ns: u64, budget_bytes: u64) -> bool {\n\
         \x20   t_ns < budget_bytes\n\
         }\n",
    );
    assert_eq!(failing_lines(&r, rules::UNIT_CONSISTENCY), vec![2]);
}

#[test]
fn unit_field_and_type_inference() {
    // `latency: SimDur` is ns by declared type; adding a byte count to
    // it through field access must flag, on the exact line.
    let r = one(
        "crates/fleet/src/link.rs",
        "struct Link {\n\
         \x20   latency: SimDur,\n\
         \x20   staged_bytes: u64,\n\
         }\n\
         impl Link {\n\
         \x20   fn broken(&self) -> u64 {\n\
         \x20       self.latency + self.staged_bytes\n\
         \x20   }\n\
         }\n",
    );
    assert_eq!(failing_lines(&r, rules::UNIT_CONSISTENCY), vec![7]);
}

#[test]
fn unit_clean_cases() {
    // Same unit: fine. Multiplication/division change units: erased,
    // never flagged. Unknown operands never flag.
    let r = one(
        "crates/fleet/src/score.rs",
        "fn ok(a_ns: u64, b_ns: u64, n: u64, c_bytes: u64) -> u64 {\n\
         \x20   let total_ns = a_ns + b_ns;\n\
         \x20   let scaled = n * c_bytes;\n\
         \x20   let mixed_product = a_ns + n * c_bytes;\n\
         \x20   total_ns + scaled + mixed_product\n\
         }\n",
    );
    assert_eq!(r.failing_for(rules::UNIT_CONSISTENCY), 0);
    // Out-of-scope crate: no findings.
    let r = one(
        "crates/apps/src/x.rs",
        "fn f(a_ns: u64, b_bytes: u64) -> u64 { a_ns + b_bytes }\n",
    );
    assert_eq!(r.failing_for(rules::UNIT_CONSISTENCY), 0);
    // Test code is out of scope.
    let r = one(
        "crates/fleet/src/score.rs",
        "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { let x = 1_u64; let _ = x + 2; }\n    fn h(a_ns: u64, b_bytes: u64) -> u64 { a_ns + b_bytes }\n}\n",
    );
    assert_eq!(r.failing_for(rules::UNIT_CONSISTENCY), 0);
}

/// A chunk's compute time goes where its transfer bytes belong (the
/// parameter is declared in another crate, `core::fabric`): staging
/// sizes and stage times move and four `northup-sched` unit tests fail
/// (`real::tests::lease_is_enforced_at_staging_alloc` among them).
#[test]
fn unit_call_site_argument_check() {
    let seed = Seed {
        path: "crates/sched/src/job.rs",
        with: &["crates/core/src/fabric.rs"],
        old: ".xfer(self.xfer_bytes)",
        new: ".xfer(self.compute.0)",
    };
    let message = seed.trips(rules::UNIT_CONSISTENCY, ".xfer(self.compute.0)");
    assert!(message.contains("`compute` (ns)"), "{message}");
    assert!(message.contains("parameter `bytes`"), "{message}");
}

/// A call rustfmt wraps over several lines ends its argument list in a
/// comma; the argument check must still see its arguments.
#[test]
fn unit_call_site_argument_check_sees_wrapped_calls() {
    let r = one(
        "crates/sched/src/stage.rs",
        "fn stage(bytes: u64, label: &str) -> u64 {\n\
         \x20   bytes + label.len() as u64\n\
         }\n\
         fn caller(wait_ns: u64) -> u64 {\n\
         \x20   stage(\n\
         \x20       wait_ns,\n\
         \x20       \"a label long enough that rustfmt wraps the call\",\n\
         \x20   )\n\
         }\n",
    );
    assert_eq!(failing_lines(&r, rules::UNIT_CONSISTENCY), vec![6]);
}

#[test]
fn unit_suppressed_with_justification() {
    let r = one(
        "crates/fleet/src/score.rs",
        "fn score(deadline_ns: u64, payload_bytes: u64) -> u64 {\n\
         \x20   // analyze:allow(unit-consistency): score is an intentionally unitless blend\n\
         \x20   deadline_ns + payload_bytes\n\
         }\n",
    );
    assert_eq!(r.failing().count(), 0);
    assert_eq!(r.findings.iter().filter(|f| f.suppressed).count(), 1);
}

// ---------------------------------------------------------------- R7

/// A fixture arena: `hot` is declared indexed by `JobId.0`.
const ARENA_DECL: &str = "\
pub struct RunState {
    /// Dense per-job state, indexed by `JobId.0`.
    pub hot: Vec<HotJob>,
}
";

#[test]
fn arena_literal_index_true_positive() {
    let src = format!(
        "{ARENA_DECL}fn peek(st: &RunState) -> u32 {{\n\
         \x20   st.hot[3].chain\n\
         }}\n"
    );
    let r = one("crates/sched/src/peek.rs", &src);
    assert_eq!(failing_lines(&r, rules::ARENA_INDEX), vec![6]);
}

/// `on_persistent_fault` counts the fault against the *job's* slot of a
/// per-node vector: quarantine never triggers (or indexes out of
/// bounds), and six `scheduler::tests` on quarantine and probation fail.
#[test]
fn arena_cross_domain_index_true_positive() {
    let seed = Seed {
        path: "crates/sched/src/scheduler.rs",
        with: &[],
        old: "        st.node_persistent[node.0] += 1;\n",
        new: "        st.node_persistent[id.0 as usize] += 1;\n",
    };
    let message = seed.trips(
        rules::ARENA_INDEX,
        "st.node_persistent[id.0 as usize] += 1;",
    );
    assert!(message.contains("NodeId"), "{message}");
    assert!(message.contains("JobId"), "{message}");
}

#[test]
fn arena_raw_index_true_positive() {
    let src = format!(
        "{ARENA_DECL}fn raw(st: &RunState) -> u32 {{\n\
         \x20   let k = pick();\n\
         \x20   st.hot[k].chain\n\
         }}\n"
    );
    let r = one("crates/sched/src/raw.rs", &src);
    assert_eq!(failing_lines(&r, rules::ARENA_INDEX), vec![7]);
}

#[test]
fn arena_stale_index_after_compaction() {
    let src = format!(
        "{ARENA_DECL}fn stale(st: &mut RunState) {{\n\
         \x20   for i in 0..st.hot.len() {{\n\
         \x20       touch(st.hot[i]);\n\
         \x20       st.hot.swap_remove(i);\n\
         \x20       audit(st.hot[i]);\n\
         \x20   }}\n\
         }}\n"
    );
    let r = one("crates/sched/src/stale.rs", &src);
    assert_eq!(failing_lines(&r, rules::ARENA_INDEX), vec![9]);
    let f = r.failing().find(|f| f.rule == rules::ARENA_INDEX).unwrap();
    assert!(f.message.contains("swap_remove"), "{}", f.message);
}

#[test]
fn arena_clean_cases() {
    // Matching-domain projection, sanctioned loop var, growth (push) not
    // treated as compaction, and owner (`self.`) access: all clean.
    let src = format!(
        "{ARENA_DECL}fn fine(st: &mut RunState, id: JobId) -> u32 {{\n\
         \x20   for i in 0..st.hot.len() {{\n\
         \x20       touch(st.hot[i]);\n\
         \x20       st.hot.push(fresh());\n\
         \x20       touch(st.hot[i]);\n\
         \x20   }}\n\
         \x20   st.hot[id.0 as usize].chain\n\
         }}\n\
         impl RunState {{\n\
         \x20   fn own(&self, k: usize) -> u32 {{ self.hot[k].chain }}\n\
         }}\n"
    );
    let r = one("crates/sched/src/fine.rs", &src);
    assert_eq!(r.failing_for(rules::ARENA_INDEX), 0);
}

#[test]
fn arena_suppressed_with_justification() {
    let src = format!(
        "{ARENA_DECL}fn boot(st: &RunState) -> u32 {{\n\
         \x20   // analyze:allow(arena-index): job 0 is the sentinel root; exists by construction\n\
         \x20   st.hot[0].chain\n\
         }}\n"
    );
    let r = one("crates/sched/src/boot.rs", &src);
    assert_eq!(r.failing().count(), 0);
    assert_eq!(r.findings.iter().filter(|f| f.suppressed).count(), 1);
}

// ---------------------------------------------------------------- R8

/// The router's mixer salts itself from the wall clock: tie-breaks and
/// the report checksum differ between identical runs, and four
/// `northup-fleet` tests on bit-identical replay fail.
#[test]
fn determinism_direct_true_positive() {
    let seed = Seed {
        path: "crates/fleet/src/router.rs",
        with: &["crates/sched/src/job.rs"],
        old: "    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);\n",
        new: "    x = x.wrapping_add(std::time::SystemTime::now().elapsed().map_or(0, |d| d.as_nanos() as u64));\n",
    };
    seed.trips(rules::DETERMINISM_TAINT, "std::time::SystemTime::now()");
}

#[test]
fn determinism_clean_and_exemptions() {
    // Virtual time in core is fine.
    let r = one(
        "crates/core/src/clock.rs",
        "use northup_sim::SimTime;\nfn now(t: SimTime) -> SimTime { t }\n",
    );
    assert_eq!(r.failing_for(rules::DETERMINISM_TAINT), 0);
    // The two carve-outs: sim's own clock module and sched's real backend.
    for path in ["crates/sim/src/time.rs", "crates/sched/src/real.rs"] {
        let r = one(
            path,
            "use std::time::Instant;\nfn t() { Instant::now(); }\n",
        );
        assert_eq!(r.failing_for(rules::DETERMINISM_TAINT), 0, "{path}");
    }
    // Outside the scoped crates the rule does not apply at all.
    let r = one(
        "crates/bench/src/wall.rs",
        "use std::time::Instant;\nfn t() { Instant::now(); }\n",
    );
    assert_eq!(r.failing_for(rules::DETERMINISM_TAINT), 0);
}

#[test]
fn determinism_suppressed_with_justification() {
    let r = one(
        "crates/sim/src/warmup.rs",
        "// analyze:allow(determinism-taint): wall-clock used only for a log banner\n\
         fn t() { std::time::Instant::now(); }\n",
    );
    assert_eq!(r.failing().count(), 0);
    assert_eq!(r.findings.iter().filter(|f| f.suppressed).count(), 1);
}

// The interprocedural (cross-crate) taint fixtures live in
// tests/interproc.rs.

// ------------------------------------------------- suppression hygiene

#[test]
fn empty_justification_always_fails() {
    let r = one(
        "crates/core/src/cache.rs",
        "// analyze:allow(ordered-iteration):\nuse std::collections::HashMap;\n",
    );
    // The HashMap finding may be suppressed, but the empty justification
    // itself is a failing meta-finding — the tree cannot go green.
    assert!(r.failing_for(rules::SUPPRESSION) >= 1);
    assert!(!r.is_clean());
}

#[test]
fn unknown_rule_in_allow_fails() {
    let r = one(
        "crates/core/src/cache.rs",
        "// analyze:allow(made-up-rule): sounds legit\nfn f() {}\n",
    );
    assert!(r.failing_for(rules::SUPPRESSION) >= 1);
    // A retired rule's name counts as unknown — stale directives must
    // go with the rule (or move to the one that took over its findings),
    // not be silently ignored.
    for retired in [
        "determinism-sources",
        "lock-order",
        "lock-set",
        "event-order",
    ] {
        let r = one(
            "crates/sched/src/cache.rs",
            &format!("// analyze:allow({retired}): directive of a retired rule\nfn f() {{}}\n"),
        );
        assert!(r.failing_for(rules::SUPPRESSION) >= 1, "{retired}");
    }
}

#[test]
fn unused_justified_allow_is_a_finding() {
    // Satellite: a justified allow that matches no finding is dead
    // weight that would mask a future regression — it fails.
    let r = one(
        "crates/core/src/fine.rs",
        "// analyze:allow(panic-paths): defensive allow on a line that is clean\nfn f() {}\n",
    );
    assert_eq!(r.failing_for(rules::SUPPRESSION), 1);
    let f = r.failing().find(|f| f.rule == rules::SUPPRESSION).unwrap();
    assert!(f.message.contains("matches no finding"), "{}", f.message);
    // Severity tier: suppression hygiene is a warning, invariant rules
    // are errors — but both fail the run.
    assert_eq!(f.severity().as_str(), "warning");
    assert!(!r.is_clean());
}
