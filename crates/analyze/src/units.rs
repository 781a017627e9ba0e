//! The unit lattice for R6 (unit-consistency).
//!
//! The workspace denominates scheduler and router arithmetic in a small
//! set of physical units: virtual **nanoseconds** (deadlines, transfer
//! times, router scores), **bytes** (capacity budgets, staging traffic),
//! and **events** (engine throughput numerators). Everything else is
//! dimensionless.
//!
//! Units are inferred, never declared: an identifier suffix (`_ns`,
//! `_bytes`, `_events`), a declared field or parameter type
//! (`SimTime`/`SimDur` are ns-denominated), or a function's return type
//! each pin a unit. Expressions combine units conservatively — `*` and
//! `/` legitimately change units so they *erase* knowledge, while `+`,
//! `-`, and comparisons require both sides to agree. Only two *known,
//! different* units ever produce a finding; unknown operands never do.

use std::fmt;

/// One point of the unit lattice (`None` = dimensionless/unknown).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    /// Virtual nanoseconds (`SimTime`/`SimDur`, `*_ns`).
    Ns,
    /// Bytes (`*_bytes`, capacity budgets).
    Bytes,
    /// Engine events (`*_events`, throughput numerators).
    Events,
}

impl fmt::Display for Unit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Unit::Ns => "ns",
            Unit::Bytes => "bytes",
            Unit::Events => "events",
        })
    }
}

/// Infer a unit from an identifier (variable, field, const, or function
/// name). Case-insensitive so `PRESSURE_NS` and `load_ns` agree.
pub fn of_ident(name: &str) -> Option<Unit> {
    let n = name.to_ascii_lowercase();
    if n.ends_with("_ns") || n == "ns" {
        Some(Unit::Ns)
    } else if n.ends_with("_bytes") || n == "bytes" {
        Some(Unit::Bytes)
    } else if n.ends_with("_events") || n == "events" {
        Some(Unit::Events)
    } else {
        None
    }
}

/// Infer a unit from a declared type's text (`SimTime`, `SimDur`, and
/// references/paths to them are ns-denominated).
pub fn of_type(ty: &str) -> Option<Unit> {
    if contains_word(ty, "SimTime") || contains_word(ty, "SimDur") {
        Some(Unit::Ns)
    } else {
        None
    }
}

/// The unit of a declaration: name suffix first (most specific), then
/// the declared type.
pub fn of_decl(name: &str, ty: &str) -> Option<Unit> {
    of_ident(name).or_else(|| of_type(ty))
}

/// Methods of the std numeric types that workspace types also define
/// (`SimTime::min`, `SimDur::saturating_sub`, ...). Name-keyed symbol
/// lookups must never resolve these: a `u64::min(bytes, bytes)` call
/// site would otherwise inherit the sim-time signature and flag a
/// perfectly unitful byte comparison. R6 instead treats them as
/// receiver-unit-preserving.
pub fn std_shadowed_method(name: &str) -> bool {
    matches!(name, "min" | "max" | "clamp" | "abs")
        || name.starts_with("saturating_")
        || name.starts_with("wrapping_")
        || name.starts_with("checked_")
}

/// Whole-word containment (`Vec < SimDur >` contains `SimDur`;
/// `SimDurable` does not).
pub fn contains_word(hay: &str, word: &str) -> bool {
    let mut rest = hay;
    while let Some(pos) = rest.find(word) {
        let before_ok = pos == 0
            || !rest[..pos]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after = &rest[pos + word.len()..];
        let after_ok = !after
            .chars()
            .next()
            .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok && after_ok {
            return true;
        }
        rest = &rest[pos + word.len()..];
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suffix_inference() {
        assert_eq!(of_ident("deadline_ns"), Some(Unit::Ns));
        assert_eq!(of_ident("PRESSURE_NS"), Some(Unit::Ns));
        assert_eq!(of_ident("read_bytes"), Some(Unit::Bytes));
        assert_eq!(of_ident("events"), Some(Unit::Events));
        assert_eq!(of_ident("chunks"), None);
    }

    #[test]
    fn type_inference() {
        assert_eq!(of_type("SimDur"), Some(Unit::Ns));
        assert_eq!(of_type("Option < SimTime >"), Some(Unit::Ns));
        assert_eq!(of_type("SimDurable"), None);
        assert_eq!(of_type("u64"), None);
    }

    #[test]
    fn decl_prefers_name_over_type() {
        assert_eq!(of_decl("xfer_bytes", "u64"), Some(Unit::Bytes));
        assert_eq!(of_decl("latency", "SimDur"), Some(Unit::Ns));
        assert_eq!(of_decl("count", "u64"), None);
    }
}
