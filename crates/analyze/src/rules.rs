//! Rules R2–R4: per-file token-pattern rules, plus suppression
//! application (with liveness tracking) shared by every rule.
//!
//! The interprocedural rules live in [`crate::r6_units`],
//! [`crate::r7_arena`], [`crate::r8_taint`], [`crate::r9_events`],
//! [`crate::r11_atomics`] and [`crate::r12_blocking`]; which crates each
//! rule scopes over is [`crate::explain::RULE_DOCS`]' business alone.

use crate::diag::{count_input, rules, Finding, Inputs};
use crate::explain::in_scope;
use crate::source::SourceFile;

/// The workspace crate a logical path belongs to
/// (`crates/core/src/runtime.rs` → `core`). `None` for anything outside
/// `crates/` (root `src/`, `examples/`, ...), which no rule scopes over.
pub fn crate_of(path: &str) -> Option<&str> {
    let rest = path.strip_prefix("crates/")?;
    let (name, _) = rest.split_once('/')?;
    Some(name)
}

/// Run R2–R4 over one file, appending raw (unsuppressed) findings.
pub fn check_file(sf: &SourceFile, inputs: &mut Inputs, out: &mut Vec<Finding>) {
    let Some(krate) = crate_of(&sf.path) else {
        return;
    };
    r2_ordered_iteration(sf, krate, inputs, out);
    r3_lease_discipline(sf, inputs, out);
    r4_panic_paths(sf, krate, out);
}

/// R2: `HashMap`/`HashSet` iteration order varies run-to-run (and with
/// the hasher); in schedule-affecting crates that order leaks into
/// schedules, so ordered containers are required.
fn r2_ordered_iteration(sf: &SourceFile, krate: &str, inputs: &mut Inputs, out: &mut Vec<Finding>) {
    if !in_scope(rules::ORDERED_ITERATION, &sf.path) {
        return;
    }
    for ci in 0..sf.code.len() {
        if sf.in_test[ci] {
            continue;
        }
        let t = &sf.toks[sf.code[ci]];
        if ["HashMap", "HashSet", "BTreeMap", "BTreeSet"]
            .iter()
            .any(|s| t.is_ident(s))
        {
            count_input(inputs, rules::ORDERED_ITERATION, &sf.path);
        }
        let bad = ["HashMap", "HashSet"].iter().find(|s| t.is_ident(s));
        if let Some(name) = bad {
            out.push(Finding {
                rule: rules::ORDERED_ITERATION,
                path: sf.path.clone(),
                line: t.line,
                message: format!(
                    "`{name}` in schedule-affecting crate `{krate}`: iteration order is \
                     unordered and leaks into schedules; use BTreeMap/BTreeSet or sort \
                     before iterating"
                ),
                suppressed: false,
                justification: None,
            });
        }
    }
}

/// R3: a function that acquires a buffer/lease (`alloc` call) must either release it in the same item (`release`/`free`/
/// `drop` reachable in the body, or the receiver is a `Runtime` the item
/// built, or a name bound from one, whose drop reclaims it) or visibly
/// transfer ownership out (return type mentioning a handle, or a
/// constructor returning `Self`).
fn r3_lease_discipline(sf: &SourceFile, inputs: &mut Inputs, out: &mut Vec<Finding>) {
    if !in_scope(rules::LEASE_DISCIPLINE, &sf.path) {
        return;
    }
    for f in &sf.fns {
        if f.is_test {
            continue;
        }
        // Ownership visibly escapes through the signature.
        if ["BufferHandle", "Handle", "Self"]
            .iter()
            .any(|s| f.ret.contains(s))
        {
            continue;
        }
        let mut acquire: Option<(u32, String)> = None;
        let mut releases = false;
        let mut owned: Vec<&str> = Vec::new();
        for ci in (f.body_start + 1)..f.body_end {
            // Skip nested fn bodies: they are separate items.
            if sf
                .fns
                .iter()
                .any(|g| g.sig_start > f.sig_start && g.contains(ci) && g.body_start < ci)
            {
                continue;
            }
            let t = &sf.toks[sf.code[ci]];
            // `let root = rt.root_ctx()`: a name bound from an owned
            // runtime allocates on it.
            if ci >= 3
                && owned.contains(&t.text.as_str())
                && sf.ct(ci - 1).is_some_and(|e| e.is_punct('='))
                && sf.ct(ci - 3).is_some_and(|l| l.is_ident("let"))
            {
                owned.extend(sf.ct(ci - 2).map(|n| n.text.as_str()));
            }
            if sf.ct(ci + 1).is_some_and(|n| n.is_punct('(')) {
                if t.is_ident("alloc") {
                    count_input(inputs, rules::LEASE_DISCIPLINE, &sf.path);
                    let receiver = ci.checked_sub(2).and_then(|r| sf.ct(r));
                    if !receiver.is_some_and(|r| owned.contains(&r.text.as_str())) {
                        acquire.get_or_insert((t.line, t.text.clone()));
                    }
                }
                if t.is_ident("release") || t.is_ident("free") || t.is_ident("drop") {
                    releases = true;
                }
                // `let rt = Runtime::new(..)`: the item owns `rt`, and its
                // drop at the end of the item reclaims every buffer
                // allocated on it (and on it only).
                if t.is_ident("new")
                    && ci >= 5
                    && sf.ct(ci - 3).is_some_and(|r| r.is_ident("Runtime"))
                    && sf.ct(ci - 4).is_some_and(|e| e.is_punct('='))
                {
                    owned.extend(sf.ct(ci - 5).map(|n| n.text.as_str()));
                }
            }
        }
        if let Some((line, what)) = acquire {
            if !releases {
                out.push(Finding {
                    rule: rules::LEASE_DISCIPLINE,
                    path: sf.path.clone(),
                    line,
                    message: format!(
                        "fn `{}` calls `{what}(..)` but no release/free/drop is reachable \
                         in the same item and the handle does not escape via the return \
                         type; leaked leases exhaust capacity budgets",
                        f.name
                    ),
                    suppressed: false,
                    justification: None,
                });
            }
        }
    }
}

/// R4: `unwrap()` / `expect(..)` / `panic!` and `assert!` /
/// `assert_eq!` / `assert_ne!` in non-test runtime code of the execution
/// crates turn recoverable conditions into aborts that take down
/// co-scheduled tenants. `debug_assert*` is not matched, and neither is
/// an assert outside every fn body: that is a `const` item's initializer,
/// checked at compile time.
fn r4_panic_paths(sf: &SourceFile, krate: &str, out: &mut Vec<Finding>) {
    if !in_scope(rules::PANIC_PATHS, &sf.path) {
        return;
    }
    for ci in 0..sf.code.len() {
        if sf.in_test[ci] {
            continue;
        }
        let t = &sf.toks[sf.code[ci]];
        // `.unwrap(` / `.expect(`
        let method_call = ci > 0
            && sf.ct(ci - 1).is_some_and(|p| p.is_punct('.'))
            && sf.ct(ci + 1).is_some_and(|n| n.is_punct('('));
        let found = if method_call && t.is_ident("unwrap") {
            Some("unwrap()")
        } else if method_call && t.is_ident("expect") {
            Some("expect(..)")
        } else if !sf.ct(ci + 1).is_some_and(|n| n.is_punct('!')) {
            None
        } else if t.is_ident("panic") {
            Some("panic!")
        } else if sf.fn_at(ci).is_none() {
            // Outside every fn body an assert belongs to a `const` item,
            // which the compiler evaluates.
            None
        } else if t.is_ident("assert") {
            Some("assert!")
        } else if t.is_ident("assert_eq") {
            Some("assert_eq!")
        } else if t.is_ident("assert_ne") {
            Some("assert_ne!")
        } else {
            None
        };
        if let Some(what) = found {
            out.push(Finding {
                rule: rules::PANIC_PATHS,
                path: sf.path.clone(),
                line: t.line,
                message: format!(
                    "`{what}` in non-test runtime code of crate `{krate}`; return a typed \
                     error (NorthupError/SchedError/FabricError) instead"
                ),
                suppressed: false,
                justification: None,
            });
        }
    }
}

/// Apply this file's `analyze:allow` directives to `findings` (which
/// must all belong to `sf`), marking covered ones suppressed, and emit
/// meta-findings for suppression-hygiene violations: an empty
/// justification, an unknown rule name, or — the liveness check — a
/// well-formed suppression that matched no finding and is therefore
/// dead weight that would silently swallow a future regression.
pub fn apply_allows(sf: &SourceFile, findings: &mut [Finding], out_meta: &mut Vec<Finding>) {
    let mut used = vec![false; sf.allows.len()];
    for (ai, a) in sf.allows.iter().enumerate() {
        if a.justification.is_empty() {
            out_meta.push(Finding {
                rule: rules::SUPPRESSION,
                path: sf.path.clone(),
                line: a.line,
                message: format!(
                    "analyze:allow({}) has an empty justification; write why the \
                     violation is sound, e.g. `// analyze:allow({}): <reason>`",
                    a.rule, a.rule
                ),
                suppressed: false,
                justification: None,
            });
            continue;
        }
        if !rules::ALL.contains(&a.rule.as_str()) {
            out_meta.push(Finding {
                rule: rules::SUPPRESSION,
                path: sf.path.clone(),
                line: a.line,
                message: format!(
                    "analyze:allow names unknown rule `{}` (known: {})",
                    a.rule,
                    rules::ALL.join(", ")
                ),
                suppressed: false,
                justification: None,
            });
            continue;
        }
        for f in findings.iter_mut() {
            if f.rule == a.rule && (f.line == a.line || f.line == a.line + 1) {
                f.suppressed = true;
                f.justification = Some(a.justification.clone());
                used[ai] = true;
            }
        }
    }
    for (ai, a) in sf.allows.iter().enumerate() {
        if used[ai] || a.justification.is_empty() || !rules::ALL.contains(&a.rule.as_str()) {
            continue;
        }
        out_meta.push(Finding {
            rule: rules::SUPPRESSION,
            path: sf.path.clone(),
            line: a.line,
            message: format!(
                "analyze:allow({}) matches no finding on line {} or {}; the rule no \
                 longer fires here — delete the stale suppression",
                a.rule,
                a.line,
                a.line + 1
            ),
            suppressed: false,
            justification: None,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(path: &str, src: &str) -> Vec<Finding> {
        let sf = SourceFile::parse(path, src);
        let mut out = Vec::new();
        check_file(&sf, &mut Inputs::new(), &mut out);
        let mut meta = Vec::new();
        apply_allows(&sf, &mut out, &mut meta);
        out.extend(meta);
        out
    }

    #[test]
    fn scoping_by_crate() {
        // `HashMap` in apps is out of R2 scope.
        assert!(run("crates/apps/src/x.rs", "use std::collections::HashMap;").is_empty());
        let f = run("crates/core/src/x.rs", "use std::collections::HashMap;");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, rules::ORDERED_ITERATION);
    }

    #[test]
    fn unwrap_or_is_not_unwrap() {
        assert!(run("crates/core/src/x.rs", "fn f() { x.unwrap_or(0); }").is_empty());
        assert_eq!(
            run("crates/core/src/x.rs", "fn f() { x.unwrap(); }").len(),
            1
        );
    }

    #[test]
    fn suppression_covers_same_and_next_line() {
        let same = "fn f() { x.unwrap(); } // analyze:allow(panic-paths): init-only path";
        let f = run("crates/core/src/x.rs", same);
        assert!(f[0].suppressed);
        let prev = "// analyze:allow(panic-paths): init-only path\nfn f() { x.unwrap(); }";
        let f = run("crates/core/src/x.rs", prev);
        assert!(f[0].suppressed);
    }

    #[test]
    fn empty_justification_is_a_finding() {
        let f = run(
            "crates/core/src/x.rs",
            "// analyze:allow(panic-paths)\nfn f() { x.unwrap(); }",
        );
        assert!(f.iter().any(|x| x.rule == rules::SUPPRESSION));
    }

    #[test]
    fn unused_suppression_is_a_finding() {
        // A justified allow that matches nothing is dead weight.
        let f = run(
            "crates/core/src/x.rs",
            "// analyze:allow(panic-paths): nothing panics here anymore\nfn f() { ok(); }",
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, rules::SUPPRESSION);
        assert!(f[0].message.contains("matches no finding"));
        // The same allow, matching: no meta-finding.
        let f = run(
            "crates/core/src/x.rs",
            "// analyze:allow(panic-paths): init-only path\nfn f() { x.unwrap(); }",
        );
        assert_eq!(f.len(), 1);
        assert!(f[0].suppressed);
    }

    #[test]
    fn r3_escape_hatches() {
        // Release in the same fn: clean.
        let clean = "fn f(ctx: &Ctx) { let h = ctx.alloc(n, 8).ok(); ctx.release(h); }";
        assert!(run("crates/apps/src/x.rs", clean).is_empty());
        // Handle escapes via return type: clean.
        let escape = "fn f(ctx: &Ctx) -> Result<BufferHandle> { ctx.alloc(n, 8) }";
        assert!(run("crates/apps/src/x.rs", escape).is_empty());
        // ... also from inside an array or a tuple.
        let array = "fn f(ctx: &Ctx) -> Result<[BufferHandle; 4]> { four(ctx.alloc(n, 8)) }";
        assert!(run("crates/apps/src/x.rs", array).is_empty());
        let tuple = "fn f(rt: Runtime) -> Result<(Runtime, BufferHandle)> { let h = rt.alloc(n, 8)?; Ok((rt, h)) }";
        assert!(run("crates/apps/src/x.rs", tuple).is_empty());
        // The item builds the runtime the buffer lives on: its drop
        // reclaims the buffer when the item returns.
        let owned = "fn f() -> Result<AppRun> { let rt = Runtime::new(tree, mode)?; let root = rt.root_ctx(); let h = root.alloc(8)?; run(&rt, h) }";
        assert!(run("crates/apps/src/x.rs", owned).is_empty());
        // ... and only that one: a caller-owned runtime keeps the buffer.
        let other = "fn f(rt: &Runtime) -> Result<AppRun> { let tmp = Runtime::new(tree, mode)?; let h = rt.alloc(8, root)?; run(&tmp, h) }";
        assert_eq!(run("crates/apps/src/x.rs", other).len(), 1);
        // Neither: finding.
        let leak = "fn f(ctx: &Ctx) { let _h = ctx.alloc(n, 8); }";
        let f = run("crates/apps/src/x.rs", leak);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, rules::LEASE_DISCIPLINE);
    }
}
