//! Source model: a lexed file plus the structure the rules need —
//! suppression directives, test-region marking, and function items.

use crate::lexer::{lex, TokKind, Token};

/// A parsed `// analyze:allow(rule): justification` directive.
#[derive(Debug, Clone)]
pub struct Allow {
    /// Rule name inside the parentheses (not validated here).
    pub rule: String,
    /// Line the comment starts on; it covers findings on this line and
    /// the next, so it works both trailing and as a preceding line.
    pub line: u32,
    /// Text after the closing `):` — empty means the suppression itself
    /// is a finding.
    pub justification: String,
}

/// One `fn` item (free function, method, or nested fn).
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Function name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Code-token index of the `fn` keyword (into [`SourceFile::code`]).
    pub sig_start: usize,
    /// Code-token index of the opening `{`.
    pub body_start: usize,
    /// Code-token index of the matching `}`.
    pub body_end: usize,
    /// Return-type text (tokens between `->` and the body), `""` if none.
    pub ret: String,
    /// True when the function lives in a test region.
    pub is_test: bool,
}

impl FnItem {
    /// Does `ci` (a code-token index) fall inside this fn's body?
    pub fn contains(&self, ci: usize) -> bool {
        ci > self.body_start && ci < self.body_end
    }
}

/// A lexed source file with the derived structure rules operate on.
pub struct SourceFile {
    /// Workspace-relative logical path (`crates/core/src/runtime.rs`).
    pub path: String,
    /// Full token stream, comments included.
    pub toks: Vec<Token>,
    /// Indices into `toks` of non-comment tokens, in order. Rules match
    /// adjacency over this view so comments never split a pattern.
    pub code: Vec<usize>,
    /// Per-*code-token* flag: true when the token is inside a test
    /// region (`#[cfg(test)]` item, `#[test]` fn, a test/bench file, or
    /// a module file that opens with `#![cfg(test)]`).
    pub in_test: Vec<bool>,
    /// Suppression directives found in comments.
    pub allows: Vec<Allow>,
    /// All fn items, outer before nested (by start index).
    pub fns: Vec<FnItem>,
}

impl SourceFile {
    /// Lex and structure one file. `path` is the logical
    /// workspace-relative path used for rule scoping and diagnostics.
    pub fn parse(path: &str, src: &str) -> SourceFile {
        let toks = lex(src);
        let code: Vec<usize> = (0..toks.len())
            .filter(|&i| toks[i].kind != TokKind::Comment)
            .collect();
        let allows = parse_allows(&toks);
        let mut sf = SourceFile {
            path: path.to_string(),
            toks,
            code,
            in_test: Vec::new(),
            allows,
            fns: Vec::new(),
        };
        sf.in_test = mark_test_regions(&sf);
        sf.fns = extract_fns(&sf);
        sf
    }

    /// The token behind code index `ci`, if in range.
    pub fn ct(&self, ci: usize) -> Option<&Token> {
        self.code.get(ci).map(|&i| &self.toks[i])
    }

    /// Find the code index of the `}` matching the `{` at code index
    /// `open`. Returns the last code index if unbalanced.
    pub fn match_brace(&self, open: usize) -> usize {
        let mut depth = 0usize;
        for ci in open..self.code.len() {
            let t = &self.toks[self.code[ci]];
            if t.is_punct('{') {
                depth += 1;
            } else if t.is_punct('}') {
                depth -= 1;
                if depth == 0 {
                    return ci;
                }
            }
        }
        self.code.len().saturating_sub(1)
    }

    /// Code index of the `}` closing the innermost block containing
    /// `ci`, searching no further than `hi`. Falls back to `hi`.
    pub fn enclosing_block_end(&self, ci: usize, hi: usize) -> usize {
        // Track depth from `ci` forward; the first `}` seen at depth 0
        // closes the innermost enclosing block.
        let mut depth = 0i32;
        for j in ci..=hi.min(self.code.len().saturating_sub(1)) {
            let t = &self.toks[self.code[j]];
            if t.is_punct('{') {
                depth += 1;
            } else if t.is_punct('}') {
                if depth == 0 {
                    return j;
                }
                depth -= 1;
            }
        }
        hi
    }

    /// The innermost fn item containing code index `ci`, if any.
    pub fn fn_at(&self, ci: usize) -> Option<&FnItem> {
        self.fns
            .iter()
            .filter(|f| f.contains(ci))
            .max_by_key(|f| f.body_start)
    }
}

/// Pull `analyze:allow(rule): justification` out of comment tokens.
///
/// The directive must be the first thing in the comment (after the
/// delimiter), so prose that merely *mentions* the syntax — like this
/// doc comment — is never treated as a suppression.
fn parse_allows(toks: &[Token]) -> Vec<Allow> {
    let mut out = Vec::new();
    for t in toks {
        if t.kind != TokKind::Comment {
            continue;
        }
        let body = t
            .text
            .trim_start_matches('/')
            .trim_start_matches('*')
            .trim_start_matches('!')
            .trim_start();
        let Some(rest) = body.strip_prefix("analyze:allow(") else {
            continue;
        };
        let Some(close) = rest.find(')') else {
            continue;
        };
        let rule = rest[..close].trim().to_string();
        let after = rest[close + 1..].trim_start();
        let justification = after
            .strip_prefix(':')
            .map(|j| j.trim().trim_end_matches("*/").trim().to_string())
            .unwrap_or_default();
        out.push(Allow {
            rule,
            line: t.line,
            justification,
        });
    }
    out
}

/// Compute the per-code-token test flag.
fn mark_test_regions(sf: &SourceFile) -> Vec<bool> {
    let n = sf.code.len();
    let mut flag = vec![false; n];
    let p = sf.path.as_str();
    if p.contains("/tests/")
        || p.contains("/benches/")
        || p.starts_with("tests/")
        || p.starts_with("benches/")
        || p.starts_with("examples/")
    {
        return vec![true; n];
    }
    // A module file that opens with `#![cfg(test)]` is test code whole.
    let inner_cfg_test = ["#", "!", "[", "cfg", "(", "test", ")", "]"];
    if inner_cfg_test
        .iter()
        .enumerate()
        .all(|(k, s)| sf.ct(k).is_some_and(|t| t.text == *s))
    {
        return vec![true; n];
    }
    let mut ci = 0usize;
    while ci < n {
        if let Some(end) = test_attr_item_end(sf, ci) {
            for f in flag.iter_mut().take(end + 1).skip(ci) {
                *f = true;
            }
            ci = end + 1;
        } else {
            ci += 1;
        }
    }
    flag
}

/// If the code tokens at `ci` start a `#[cfg(test)]` or `#[test]`
/// attribute, return the code index where the attributed item ends.
fn test_attr_item_end(sf: &SourceFile, ci: usize) -> Option<usize> {
    let t = |k: usize| sf.ct(ci + k);
    if !(t(0)?.is_punct('#') && t(1)?.is_punct('[')) {
        return None;
    }
    // `#[test]` or `#[cfg(test)]` (also matches `#[cfg(all(test,..))]`
    // loosely: any cfg attr whose first argument tokens include `test`).
    let mut k = 2usize;
    let is_test_attr = if t(2)?.is_ident("test") && t(3)?.is_punct(']') {
        k = 4;
        true
    } else if t(2)?.is_ident("cfg") {
        // Scan the attribute to its closing `]`, looking for `test`.
        let mut depth = 0i32;
        let mut saw_test = false;
        let mut j = ci + 2;
        loop {
            let tok = sf.ct(j)?;
            if tok.is_punct('[') {
                depth += 1;
            } else if tok.is_punct(']') {
                if depth == 0 {
                    break;
                }
                depth -= 1;
            } else if tok.is_ident("test") {
                saw_test = true;
            }
            j += 1;
        }
        k = j - ci + 1;
        saw_test
    } else {
        false
    };
    if !is_test_attr {
        return None;
    }
    // Skip any further attributes between this one and the item.
    let mut j = ci + k;
    while sf.ct(j)?.is_punct('#') && sf.ct(j + 1)?.is_punct('[') {
        let mut depth = 0i32;
        let mut m = j + 1;
        loop {
            let tok = sf.ct(m)?;
            if tok.is_punct('[') {
                depth += 1;
            } else if tok.is_punct(']') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            m += 1;
        }
        j = m + 1;
    }
    // The item runs to the first `;` (e.g. `use`) or the brace-matched
    // `{ .. }` body, whichever comes first.
    let mut m = j;
    loop {
        let tok = sf.ct(m)?;
        if tok.is_punct(';') {
            return Some(m);
        }
        if tok.is_punct('{') {
            return Some(sf.match_brace(m));
        }
        m += 1;
    }
}

fn push_spaced(out: &mut String, tok: &str) {
    if !out.is_empty() {
        out.push(' ');
    }
    out.push_str(tok);
}

/// Extract every fn item (with a body) from the code-token stream.
fn extract_fns(sf: &SourceFile) -> Vec<FnItem> {
    let mut fns = Vec::new();
    let n = sf.code.len();
    for ci in 0..n {
        let t = &sf.toks[sf.code[ci]];
        if !(t.kind == TokKind::Ident && t.text == "fn") {
            continue;
        }
        // `fn` in `Fn()` bounds is `Fn`, capital — fine. But skip
        // `fn` appearing as a type in `fn(..)` pointer types: those
        // have `(` immediately after, not a name.
        let Some(name_tok) = sf.ct(ci + 1) else {
            continue;
        };
        if name_tok.kind != TokKind::Ident {
            continue;
        }
        let name = name_tok.text.clone();
        // Scan to the body `{` or a `;` (trait method declaration),
        // capturing the return type after the first top-level `->`.
        let mut j = ci + 2;
        let mut paren = 0i32;
        let mut ret = String::new();
        let mut in_ret = false;
        let mut body_start = None;
        while j < n {
            let tok = &sf.toks[sf.code[j]];
            let open = tok.is_punct('(') || tok.is_punct('[');
            let close = tok.is_punct(')') || tok.is_punct(']');
            paren += open as i32 - close as i32;
            if open || close || paren > 0 {
                // Inside a tuple or array: part of the return type once
                // one is being captured (`-> Result<[BufferHandle; 4]>`).
                if in_ret {
                    push_spaced(&mut ret, &tok.text);
                }
            } else {
                if tok.is_punct('{') {
                    body_start = Some(j);
                    break;
                }
                if tok.is_punct(';') {
                    break;
                }
                if tok.is_ident("where") {
                    in_ret = false;
                }
                if in_ret {
                    push_spaced(&mut ret, &tok.text);
                }
                if tok.is_punct('-')
                    && sf.ct(j + 1).is_some_and(|t2| t2.is_punct('>'))
                    && ret.is_empty()
                {
                    in_ret = true;
                    j += 2;
                    continue;
                }
            }
            j += 1;
        }
        let Some(body_start) = body_start else {
            continue;
        };
        let body_end = sf.match_brace(body_start);
        fns.push(FnItem {
            name,
            line: t.line,
            sig_start: ci,
            body_start,
            body_end,
            ret,
            is_test: sf.in_test[ci],
        });
    }
    fns
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allows_are_parsed() {
        let sf = SourceFile::parse(
            "crates/core/src/x.rs",
            "// analyze:allow(panic-paths): startup can only fail fatally\n\
             let x = 1; // analyze:allow(ordered-iteration)\n",
        );
        assert_eq!(sf.allows.len(), 2);
        assert_eq!(sf.allows[0].rule, "panic-paths");
        assert_eq!(sf.allows[0].justification, "startup can only fail fatally");
        assert_eq!(sf.allows[0].line, 1);
        assert_eq!(sf.allows[1].rule, "ordered-iteration");
        assert!(sf.allows[1].justification.is_empty());
    }

    #[test]
    fn test_regions_are_marked() {
        let src = "fn runtime() { x.unwrap(); }\n\
                   #[cfg(test)]\nmod tests {\n    fn helper() { y.unwrap(); }\n}\n\
                   #[test]\nfn t() { z.unwrap(); }\n";
        let sf = SourceFile::parse("crates/core/src/x.rs", src);
        let unwraps: Vec<bool> = (0..sf.code.len())
            .filter(|&ci| sf.ct(ci).unwrap().is_ident("unwrap"))
            .map(|ci| sf.in_test[ci])
            .collect();
        assert_eq!(unwraps, vec![false, true, true]);
    }

    #[test]
    fn an_inner_cfg_test_marks_the_whole_file() {
        let src = "//! A test-only module.\n#![cfg(test)]\nfn f() { x.unwrap(); }";
        let sf = SourceFile::parse("crates/core/src/oracle.rs", src);
        assert!(sf.in_test.iter().all(|&b| b));
        let sf = SourceFile::parse("crates/core/src/x.rs", "fn f() { x.unwrap(); }");
        assert!(!sf.in_test.iter().any(|&b| b));
    }

    #[test]
    fn test_files_are_all_test() {
        let sf = SourceFile::parse("crates/core/tests/integ.rs", "fn f() { x.unwrap(); }");
        assert!(sf.in_test.iter().all(|&b| b));
    }

    #[test]
    fn fns_are_extracted_with_ret_types() {
        let src = "fn a() -> Result<BufferHandle> { inner() }\n\
                   impl T { fn b(&self) { let c = || {}; c(); } }\n\
                   fn outer() { fn inner2() {} }\n";
        let sf = SourceFile::parse("crates/core/src/x.rs", src);
        let names: Vec<&str> = sf.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["a", "b", "outer", "inner2"]);
        assert_eq!(sf.fns[0].ret, "Result < BufferHandle >");
        assert!(sf.fns[1].ret.is_empty());
        // inner2 nests inside outer.
        let outer = &sf.fns[2];
        let inner2 = &sf.fns[3];
        assert!(outer.contains(inner2.sig_start));
    }

    #[test]
    fn where_clause_does_not_pollute_ret() {
        let src = "fn f<F>(g: F) -> usize where F: Fn() -> u8 { 0 }";
        let sf = SourceFile::parse("crates/core/src/x.rs", src);
        assert_eq!(sf.fns[0].ret, "usize");
    }
}
