//! Seeded defects: a retained rule proves itself on the product tree.
//! A [`Seed`] is one textual mutation of one real product file, read
//! from disk; the census in DESIGN.md §9 names, per rule, the
//! behavioural test that fails on the same mutation (or the documented
//! contract it breaks).

#![allow(dead_code)] // each test file uses its own subset

use std::fs;
use std::path::Path;

use northup_analyze::{analyze_sources, Report};

/// Analyze one synthetic file under a logical workspace path.
pub fn one(path: &str, src: &str) -> Report {
    analyze_sources(&[(path.to_string(), src.to_string())])
}

/// The lines of the unsuppressed findings of `rule`.
pub fn failing_lines(r: &Report, rule: &str) -> Vec<u32> {
    let of_rule = r.failing().filter(|f| f.rule == rule);
    of_rule.map(|f| f.line).collect()
}

/// Replace `old` (which must occur exactly once) by `new` in `path`.
pub struct Seed {
    pub path: &'static str,
    /// Other product files the finding needs in view (a callee's
    /// declaration), unmodified.
    pub with: &'static [&'static str],
    pub old: &'static str,
    pub new: &'static str,
}

impl Seed {
    /// Analyze the seeded file (and its `with` files) and assert that it
    /// fails with findings of `rule` only, one of them on the line
    /// holding `at`: text of the seeded file, so the assertion follows the
    /// file as it moves. Returns that finding's message.
    pub fn trips(&self, rule: &str, at: &str) -> String {
        let Seed { path, old, new, .. } = *self;
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let read =
            |p: &str| fs::read_to_string(root.join(p)).unwrap_or_else(|e| panic!("{p}: {e}"));
        let mut files: Vec<(String, String)> =
            self.with.iter().map(|p| (p.to_string(), read(p))).collect();
        files.push((path.to_string(), read(path)));
        let (_, text) = files.last_mut().expect("the seeded file");
        // A moved site needs the seed re-aimed, not deleted.
        assert_eq!(text.matches(old).count(), 1, "seed site in {path}");
        *text = text.replace(old, new);
        let offset = text
            .find(at)
            .unwrap_or_else(|| panic!("`{at}` is not in the seeded {path}"));
        let line = 1 + text[..offset].matches('\n').count() as u32;

        let report = analyze_sources(&files);
        let failing: Vec<_> = report.failing().collect();
        assert!(
            failing.iter().all(|f| f.rule == rule),
            "the seed trips more than {rule}: {failing:#?}"
        );
        let hit = failing.iter().find(|f| f.path == path && f.line == line);
        hit.unwrap_or_else(|| panic!("no {rule} finding at {path}:{line}: {failing:#?}"))
            .message
            .clone()
    }
}
