//! SARIF 2.1.0 output (`--sarif FILE`) — the minimal subset GitHub code
//! scanning and other SARIF consumers ingest: one run, the rule
//! catalog, and per-finding results with level, message, and a
//! `startLine` region. Suppressed findings are emitted with an
//! `inSource` suppression carrying the in-tree justification.

use crate::diag::{severity_of, Report};
use crate::explain::RULE_DOCS;

/// Escape a string for a JSON string literal.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render the report as a SARIF 2.1.0 document.
pub fn report_to_sarif(r: &Report) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n");
    s.push_str("  \"version\": \"2.1.0\",\n");
    s.push_str("  \"runs\": [\n    {\n");
    s.push_str("      \"tool\": {\n        \"driver\": {\n");
    s.push_str("          \"name\": \"northup-analyze\",\n");
    s.push_str("          \"rules\": [");
    let mut first = true;
    for doc in RULE_DOCS {
        if !first {
            s.push(',');
        }
        first = false;
        s.push_str(&format!(
            "\n            {{\"id\": \"{}\", \"shortDescription\": {{\"text\": \"{}\"}}, \
             \"defaultConfiguration\": {{\"level\": \"{}\"}}}}",
            doc.id,
            escape(doc.summary),
            severity_of(doc.id).as_str()
        ));
    }
    s.push_str("\n          ]\n        }\n      },\n");
    s.push_str("      \"results\": [");
    let mut first = true;
    for f in &r.findings {
        if !first {
            s.push(',');
        }
        first = false;
        s.push_str(&format!(
            "\n        {{\"ruleId\": \"{}\", \"level\": \"{}\", \
             \"message\": {{\"text\": \"{}\"}}, \"locations\": [{{\"physicalLocation\": \
             {{\"artifactLocation\": {{\"uri\": \"{}\"}}, \"region\": {{\"startLine\": {}}}}}}}]",
            f.rule,
            f.severity().as_str(),
            escape(&f.message),
            escape(&f.path),
            f.line.max(1)
        ));
        if f.suppressed {
            let just = f.justification.as_deref().unwrap_or("");
            s.push_str(&format!(
                ", \"suppressions\": [{{\"kind\": \"inSource\", \"justification\": \"{}\"}}]",
                escape(just)
            ));
        }
        s.push('}');
    }
    s.push_str("\n      ]\n    }\n  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::{rules, Finding};

    #[test]
    fn escapes_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    /// Brackets and braces outside string literals nest and close.
    fn is_balanced(doc: &str) -> bool {
        let mut stack = Vec::new();
        let mut chars = doc.chars();
        while let Some(c) = chars.next() {
            match c {
                '"' => {
                    while let Some(c) = chars.next() {
                        match c {
                            '\\' => drop(chars.next()),
                            '"' => break,
                            _ => {}
                        }
                    }
                }
                '{' | '[' => stack.push(c),
                '}' if stack.pop() != Some('{') => return false,
                ']' if stack.pop() != Some('[') => return false,
                _ => {}
            }
        }
        stack.is_empty()
    }

    #[test]
    fn sarif_is_valid_json_with_expected_shape() {
        let mut r = Report::default();
        r.findings.push(Finding {
            rule: rules::UNIT_CONSISTENCY,
            path: "crates/fleet/src/router.rs".into(),
            line: 7,
            message: "mixed units \"x\"".into(),
            suppressed: false,
            justification: None,
        });
        r.findings.push(Finding {
            rule: rules::PANIC_PATHS,
            path: "crates/core/src/x.rs".into(),
            line: 3,
            message: "m".into(),
            suppressed: true,
            justification: Some("why".into()),
        });
        let s = report_to_sarif(&r);
        assert!(is_balanced(&s), "{s}");
        assert!(s.contains("\"version\": \"2.1.0\""));
        let results: Vec<&str> = s.split("{\"ruleId\": ").skip(1).collect();
        assert_eq!(results.len(), 2);
        assert!(results[0].starts_with("\"unit-consistency\", \"level\": \"error\""));
        assert!(results[0].contains("mixed units \\\"x\\\""));
        assert!(!results[0].contains("suppressions"));
        assert!(results[1]
            .contains("\"suppressions\": [{\"kind\": \"inSource\", \"justification\": \"why\"}]"));
        // Every rule plus the suppression meta-rule.
        assert_eq!(s.matches("{\"id\": ").count(), rules::ALL.len() + 1);
    }
}
