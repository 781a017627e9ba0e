//! Diagnostics: findings, severity tiers, and the report they
//! aggregate into.

use std::collections::BTreeMap;

/// Rule identifiers, used both in diagnostics and in
/// `// analyze:allow(<rule>)` suppressions.
pub mod rules {
    /// R2: unordered `HashMap`/`HashSet` in schedule-affecting crates.
    pub const ORDERED_ITERATION: &str = "ordered-iteration";
    /// R3: allocation/lease acquisition without a reachable release.
    pub const LEASE_DISCIPLINE: &str = "lease-discipline";
    /// R4: `unwrap()`/`expect(`/`panic!` in non-test runtime code.
    pub const PANIC_PATHS: &str = "panic-paths";
    /// R6: mixed-unit arithmetic/comparison (ns vs bytes vs events) in
    /// scoring and accounting code.
    pub const UNIT_CONSISTENCY: &str = "unit-consistency";
    /// R7: raw or cross-domain indexing into dense arenas, and indices
    /// held across arena-compacting calls.
    pub const ARENA_INDEX: &str = "arena-index";
    /// R8: wall-clock/OS-entropy taint reaching schedule-visible code
    /// through the call graph (supersedes the old per-file
    /// `determinism-sources` rule).
    pub const DETERMINISM_TAINT: &str = "determinism-taint";
    /// R11: a `Relaxed` access on the publication/consumption edge of a
    /// release/acquire protocol atomic.
    pub const ATOMIC_ORDER: &str = "atomic-order";
    /// R12: holding a lock guard across a call that may block (sleep,
    /// channel ops, lock acquisition, file I/O — transitively).
    pub const BLOCKING_EXTENT: &str = "blocking-extent";
    /// Meta-rule: a suppression comment with an empty justification, an
    /// unknown rule name, or no finding to suppress.
    pub const SUPPRESSION: &str = "suppression";

    /// Every rule a suppression may name.
    pub const ALL: [&str; 8] = [
        ORDERED_ITERATION,
        LEASE_DISCIPLINE,
        PANIC_PATHS,
        UNIT_CONSISTENCY,
        ARENA_INDEX,
        DETERMINISM_TAINT,
        ATOMIC_ORDER,
        BLOCKING_EXTENT,
    ];
}

/// How bad a finding is. Every tier fails the run when unsuppressed;
/// the tier feeds the SARIF `level` and lets downstream dashboards
/// triage invariant breaks before hygiene issues.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// A violated project invariant (determinism, units, indices,
    /// leases, locks, panics).
    Error,
    /// Suppression hygiene: stale, unjustified, or unknown allows.
    Warning,
}

impl Severity {
    /// SARIF-compatible level string.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
        }
    }
}

/// The severity tier of a rule.
pub fn severity_of(rule: &str) -> Severity {
    if rule == rules::SUPPRESSION {
        Severity::Warning
    } else {
        Severity::Error
    }
}

/// One diagnostic: a rule violation at a source location.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule identifier (one of [`rules`]).
    pub rule: &'static str,
    /// Workspace-relative path (`crates/core/src/runtime.rs`).
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable explanation with the steer-to alternative.
    pub message: String,
    /// True when an `analyze:allow` with a non-empty justification covers
    /// this finding; suppressed findings are reported but do not fail.
    pub suppressed: bool,
    /// The justification text of the covering suppression, if any.
    pub justification: Option<String>,
}

impl Finding {
    /// `path:line: [rule] message` — the terminal rendering.
    pub fn render(&self) -> String {
        let tag = if self.suppressed { " (suppressed)" } else { "" };
        format!(
            "{}:{}: {} [{}]{} {}",
            self.path,
            self.line,
            severity_of(self.rule).as_str(),
            self.rule,
            tag,
            self.message
        )
    }

    /// The severity tier of this finding's rule.
    pub fn severity(&self) -> Severity {
        severity_of(self.rule)
    }
}

/// The census: per `(rule, crate)`, how many non-test sites the rule
/// actually inspected (see [`crate::explain::RuleDoc::inputs`] for what
/// a site is, rule by rule).
pub type Inputs = BTreeMap<(&'static str, String), usize>;

/// Record one inspected site of `rule` in the crate `path` belongs to.
pub fn count_input(inputs: &mut Inputs, rule: &'static str, path: &str) {
    if let Some(krate) = crate::rules::crate_of(path) {
        *inputs.entry((rule, krate.to_string())).or_default() += 1;
    }
}

/// The aggregate result of analyzing a set of sources.
#[derive(Debug, Default)]
pub struct Report {
    /// All findings, suppressed ones included, ordered by (path, line).
    pub findings: Vec<Finding>,
    /// Number of files analyzed.
    pub files_scanned: usize,
    /// The census of inspected sites.
    pub inputs: Inputs,
}

impl Report {
    /// Findings that fail the run (everything not suppressed).
    pub fn failing(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| !f.suppressed)
    }

    /// True when the tree is analyze-clean.
    pub fn is_clean(&self) -> bool {
        self.failing().next().is_none()
    }

    /// Count of failing findings for a given rule.
    pub fn failing_for(&self, rule: &str) -> usize {
        self.failing().filter(|f| f.rule == rule).count()
    }

    /// Sort findings into the stable (path, line, rule) order every
    /// consumer (terminal, SARIF, tests) sees, dropping exact
    /// duplicates (two passes may witness the same site).
    pub fn finalize(&mut self) {
        self.findings.sort_by(|a, b| {
            (a.path.as_str(), a.line, a.rule, a.message.as_str()).cmp(&(
                b.path.as_str(),
                b.line,
                b.rule,
                b.message.as_str(),
            ))
        });
        self.findings.dedup_by(|a, b| {
            a.path == b.path && a.line == b.line && a.rule == b.rule && a.message == b.message
        });
    }
}
