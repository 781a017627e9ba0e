//! Shared-state registry: the atomics R11 audits — struct fields and
//! `static` items whose type is one of the `Atomic*` primitives, keyed
//! by name like every other symbol in the analyzer.

use std::collections::BTreeMap;

use crate::lexer::TokKind;
use crate::source::SourceFile;
use crate::symbols::SymbolTable;

/// Where a declaration lives, for diagnostics.
#[derive(Debug, Clone)]
pub struct DeclSite {
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
}

/// The registry R11 consumes.
#[derive(Debug, Default)]
pub struct SharedRegistry {
    /// Atomic field/static name → first declaration site.
    pub atomics: BTreeMap<String, DeclSite>,
}

impl SharedRegistry {
    /// Build the registry over the parsed files and symbol table.
    pub fn build(files: &[SourceFile], symbols: &SymbolTable) -> SharedRegistry {
        let mut reg = SharedRegistry::default();
        for f in &symbols.fields {
            if f.ty.split(' ').any(|w| w.starts_with("Atomic")) {
                reg.atomics.entry(f.name.clone()).or_insert(DeclSite {
                    path: f.path.clone(),
                    line: f.line,
                });
            }
        }
        for sf in files {
            collect_atomic_statics(sf, &mut reg);
        }
        reg
    }
}

/// Register `static NAME: AtomicX` items (the pool-ID allocator
/// pattern): `static` (optionally `mut`), an ident, `:`, then a type
/// whose tokens mention an `Atomic*` primitive before `=` or `;`.
fn collect_atomic_statics(sf: &SourceFile, reg: &mut SharedRegistry) {
    for ci in 0..sf.code.len() {
        if !sf.toks[sf.code[ci]].is_ident("static") {
            continue;
        }
        let mut k = ci + 1;
        if sf.ct(k).is_some_and(|t| t.is_ident("mut")) {
            k += 1;
        }
        let Some(name) = sf.ct(k).filter(|t| t.kind == TokKind::Ident) else {
            continue;
        };
        if !sf.ct(k + 1).is_some_and(|t| t.is_punct(':')) {
            continue;
        }
        let name = name.text.clone();
        let line = sf.toks[sf.code[ci]].line;
        let mut j = k + 2;
        while let Some(t) = sf.ct(j) {
            if t.is_punct('=') || t.is_punct(';') {
                break;
            }
            if t.kind == TokKind::Ident && t.text.starts_with("Atomic") {
                reg.atomics.entry(name.clone()).or_insert(DeclSite {
                    path: sf.path.clone(),
                    line,
                });
                break;
            }
            j += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reg(path: &str, src: &str) -> SharedRegistry {
        let files = vec![SourceFile::parse(path, src)];
        let symbols = SymbolTable::build(&files);
        SharedRegistry::build(&files, &symbols)
    }

    #[test]
    fn atomic_statics_are_registered() {
        let r = reg(
            "crates/exec/src/a.rs",
            "static POOL_IDS: AtomicU64 = AtomicU64::new(0);\n\
             struct Shared { bottom: AtomicIsize, label: String }\n",
        );
        assert!(r.atomics.contains_key("POOL_IDS"));
        assert!(r.atomics.contains_key("bottom"));
        assert!(!r.atomics.contains_key("label"));
    }
}
