//! Lint data model: severities, rule metadata, findings, sink events.
//!
//! The execution engine lives in [`crate::rules`]: every rule — the four
//! builtins below, weapon-declared rules, and installed pack rules — is
//! declared as a [`crate::rules::RuleSpec`] and compiled into a
//! [`crate::rules::RuleSet`], which is the single path from declaration
//! to finding.
//!
//! Built-in rules:
//!
//! * [`RULE_UNGUARDED_SINK`] — a call to a catalog sink whose argument
//!   variables have no dominating validation guard.
//! * [`RULE_UNREACHABLE`] — statements control flow can never reach
//!   (typically code after `exit`/`return`/`throw`).
//! * [`RULE_ASSIGN_IN_COND`] — an assignment used as a branch condition,
//!   the classic `if ($x = f())` typo.
//! * [`RULE_TAINTED_SINK`] — a taint-confirmed sink (from the engine's
//!   candidate list) with no dominating guard on the tainted variables.
//! * [`RULE_UNRESOLVED_INCLUDE`] — a dynamic include whose path no
//!   analysis resolved, so its target is a coverage gap (synthesized by
//!   the pipeline's lint pass, not by the rule engine; suppressed when
//!   the `--values` value analysis resolves the path).
//!
//! All rule-set entry points return findings sorted by `(file, line,
//! span, rule, message)` so output is bit-identical regardless of
//! traversal or scheduling order.

use wap_php::Span;
use wap_php::Symbol;

/// Rule id: call to a known sink without any dominating guard.
pub const RULE_UNGUARDED_SINK: &str = "WAP-LINT-UNGUARDED-SINK";
/// Rule id: statement unreachable from function entry.
pub const RULE_UNREACHABLE: &str = "WAP-LINT-UNREACHABLE";
/// Rule id: assignment used as a branch condition.
pub const RULE_ASSIGN_IN_COND: &str = "WAP-LINT-ASSIGN-IN-COND";
/// Rule id: tainted data reaches a sink with no dominating guard.
pub const RULE_TAINTED_SINK: &str = "WAP-LINT-TAINTED-SINK";
/// Rule id: dynamic include whose path the analysis could not resolve —
/// a visible coverage gap (suppressed when the value analysis resolves
/// the path to scan-set files).
pub const RULE_UNRESOLVED_INCLUDE: &str = "WAP-LINT-UNRESOLVED-INCLUDE";

/// Finding severity, ordered from most to least severe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Must fix: almost certainly a vulnerability or logic error.
    Error,
    /// Should fix: a risky pattern.
    Warning,
    /// Informational.
    Note,
}

impl Severity {
    /// Lowercase name, also the SARIF `level` value.
    pub fn as_str(&self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
            Severity::Note => "note",
        }
    }

    /// Parses a severity name (case-insensitive); `None` when unknown.
    pub fn parse(s: &str) -> Option<Severity> {
        match s.to_ascii_lowercase().as_str() {
            "error" => Some(Severity::Error),
            "warning" | "warn" => Some(Severity::Warning),
            "note" | "info" => Some(Severity::Note),
            _ => None,
        }
    }
}

/// Metadata describing one lint rule, rendered into report rule tables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintRule {
    /// Stable rule id (`WAP-LINT-...`).
    pub id: String,
    /// One-line description of what the rule reports.
    pub summary: String,
    /// Severity of the rule's findings.
    pub severity: Severity,
    /// Rule pack the rule came from; `None` for builtin and
    /// weapon-declared rules.
    pub pack: Option<String>,
}

/// One lint finding, anchored to a source span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintFinding {
    /// Id of the rule that fired.
    pub rule_id: String,
    /// Finding severity (copied from the rule).
    pub severity: Severity,
    /// File the finding is in.
    pub file: String,
    /// 1-based source line.
    pub line: u32,
    /// Source span of the offending code.
    pub span: Span,
    /// Human-readable message.
    pub message: String,
}

/// A taint-confirmed sink occurrence, as reported by the taint engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SinkEvent {
    /// Span of the sink call/construct.
    pub span: Span,
    /// 1-based line of the sink.
    pub line: u32,
    /// Vulnerability class name (e.g. `sqli`).
    pub class: String,
    /// Tainted variables flowing into the sink (without `$`).
    pub vars: Vec<Symbol>,
}

/// Metadata for the four built-in rules, in stable id order.
pub fn builtin_rules() -> Vec<LintRule> {
    vec![
        LintRule {
            id: RULE_ASSIGN_IN_COND.to_string(),
            summary: "assignment used as a branch condition".to_string(),
            severity: Severity::Warning,
            pack: None,
        },
        LintRule {
            id: RULE_TAINTED_SINK.to_string(),
            summary: "tainted data reaches a sink without a dominating validation guard"
                .to_string(),
            severity: Severity::Error,
            pack: None,
        },
        LintRule {
            id: RULE_UNGUARDED_SINK.to_string(),
            summary: "sink call not dominated by any validation guard on its arguments".to_string(),
            severity: Severity::Warning,
            pack: None,
        },
        LintRule {
            id: RULE_UNREACHABLE.to_string(),
            summary: "statement is unreachable".to_string(),
            severity: Severity::Note,
            pack: None,
        },
        LintRule {
            id: RULE_UNRESOLVED_INCLUDE.to_string(),
            summary: "dynamic include path could not be resolved (analysis coverage gap)"
                .to_string(),
            severity: Severity::Note,
            pack: None,
        },
    ]
}

/// Normalizes a declared rule id to the `WAP-` namespace.
pub fn normalize_rule_id(id: &str) -> String {
    let upper = id.trim().to_ascii_uppercase().replace([' ', '_'], "-");
    if upper.starts_with("WAP-") {
        upper
    } else {
        format!("WAP-{upper}")
    }
}

/// Sorts findings into the canonical `(file, line, span, rule, message)`
/// order every lint entry point guarantees. Public so pipelines merging
/// findings from several passes can restore the invariant.
pub fn sort_findings(findings: &mut [LintFinding]) {
    findings.sort_by(|a, b| {
        (&a.file, a.line, a.span, &a.rule_id, &a.message)
            .cmp(&(&b.file, b.line, b.span, &b.rule_id, &b.message))
    });
}

pub(crate) fn var_list(vars: &[Symbol]) -> String {
    if vars.is_empty() {
        return "its arguments".to_string();
    }
    vars.iter()
        .map(|v| format!("${v}"))
        .collect::<Vec<_>>()
        .join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_ids_are_normalized() {
        assert_eq!(normalize_rule_id("wap-x"), "WAP-X");
        assert_eq!(normalize_rule_id("my rule"), "WAP-MY-RULE");
        assert_eq!(
            normalize_rule_id("  wp_unprepared_query "),
            "WAP-WP-UNPREPARED-QUERY"
        );
    }

    #[test]
    fn builtin_rules_are_stable_and_prefixed() {
        let rules = builtin_rules();
        assert_eq!(rules.len(), 5);
        assert!(rules.iter().all(|r| r.id.starts_with("WAP-LINT-")));
        assert!(rules.iter().all(|r| r.pack.is_none()));
        let mut ids: Vec<&str> = rules.iter().map(|r| r.id.as_str()).collect();
        let sorted = {
            let mut s = ids.clone();
            s.sort();
            s
        };
        assert_eq!(ids, sorted, "rule table is in stable id order");
        ids.dedup();
        assert_eq!(ids.len(), 5);
    }

    #[test]
    fn severity_parse_round_trips() {
        for s in [Severity::Error, Severity::Warning, Severity::Note] {
            assert_eq!(Severity::parse(s.as_str()), Some(s));
        }
        assert_eq!(Severity::parse("INFO"), Some(Severity::Note));
        assert_eq!(Severity::parse("bogus"), None);
    }
}
