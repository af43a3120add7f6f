//! The taint lattice.
//!
//! WAP's taint analysis uses "two states — tainted and untainted — that may
//! change during the data flow analysis" (§VI). We refine the tainted state
//! with *per-class sanitization*: `mysql_real_escape_string($x)` neutralizes
//! the SQLI payload but the value can still attack an XSS sink, so taint
//! carries the set of classes that have already been sanitized away.

use std::collections::BTreeSet;
use std::sync::Arc;
use wap_catalog::VulnClass;
use wap_php::Span;
use wap_php::Symbol;

/// One provenance step in a tainted data flow, used to build the candidate
/// vulnerability's path tree ("trees describing candidate vulnerable
/// data-flow paths", §II).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaintStep {
    /// Human-readable description, e.g. `$id <- $_GET['id']` (interned:
    /// step descriptions repeat heavily across passes and files).
    pub what: Symbol,
    /// 1-based source line.
    pub line: u32,
    /// Source span of the step.
    pub span: Span,
}

impl TaintStep {
    /// Creates a step.
    pub fn new(what: impl AsRef<str>, span: Span) -> Self {
        TaintStep {
            what: Symbol::intern(what.as_ref()),
            line: span.line(),
            span,
        }
    }
}

/// Maximum provenance steps kept per taint value; flows longer than this
/// keep the earliest steps (the entry point end of the path).
const MAX_STEPS: usize = 24;

/// Information attached to a tainted value.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TaintInfo {
    /// The entry point descriptions this value derives from,
    /// e.g. `$_GET['id']`.
    pub sources: BTreeSet<Symbol>,
    /// Classes whose payloads have been neutralized by sanitizers.
    pub sanitized: BTreeSet<VulnClass>,
    /// Provenance trail from entry point toward the current use.
    pub steps: Vec<TaintStep>,
    /// Variables that carried this taint (for symptom collection).
    pub carriers: BTreeSet<Symbol>,
    /// Literal string fragments concatenated/interpolated around the
    /// tainted data — an approximation of the query text, feeding the SQL
    /// manipulation attributes of Table I.
    pub literals: Vec<String>,
}

/// The lattice value for one expression or variable.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum TaintState {
    /// Trustworthy data.
    #[default]
    Clean,
    /// Untrusted data with provenance. Behind an [`Arc`]: taint values
    /// are cloned at every branch join, environment snapshot, and summary
    /// application, and the shared-read case vastly outnumbers mutation —
    /// a clone is a refcount bump, mutation copies on write.
    Tainted(Arc<TaintInfo>),
}

impl wap_php::flow::Lattice for TaintState {
    fn join(&self, other: &TaintState) -> TaintState {
        TaintState::join(self, other)
    }

    /// Unmodelled bindings are treated as clean: globals usually hold DB
    /// handles and configuration, and exception objects are not tracked.
    fn opaque() -> TaintState {
        TaintState::Clean
    }
}

impl TaintState {
    /// A fresh taint originating at `source` (an entry point).
    pub fn source(source: impl AsRef<str>, span: Span) -> Self {
        let source = Symbol::intern(source.as_ref());
        let mut sources = BTreeSet::new();
        sources.insert(source);
        TaintState::Tainted(Arc::new(TaintInfo {
            sources,
            sanitized: BTreeSet::new(),
            steps: vec![TaintStep::new(format!("entry point {source}"), span)],
            carriers: BTreeSet::new(),
            literals: Vec::new(),
        }))
    }

    /// Whether this value is tainted at all (ignoring sanitization).
    pub fn is_tainted(&self) -> bool {
        matches!(self, TaintState::Tainted(_))
    }

    /// Whether the value is dangerous for `class`: tainted and not
    /// sanitized for that class.
    pub fn is_tainted_for(&self, class: &VulnClass) -> bool {
        match self {
            TaintState::Clean => false,
            TaintState::Tainted(info) => !info.sanitized.contains(class),
        }
    }

    /// The taint info, if tainted.
    pub fn info(&self) -> Option<&TaintInfo> {
        match self {
            TaintState::Clean => None,
            TaintState::Tainted(i) => Some(i.as_ref()),
        }
    }

    /// Least upper bound: combining two values (e.g. string concatenation
    /// or control-flow join). The result is tainted if either side is; a
    /// class counts as sanitized only if *every* tainted contributor
    /// sanitized it.
    pub fn join(&self, other: &TaintState) -> TaintState {
        match (self, other) {
            (TaintState::Clean, TaintState::Clean) => TaintState::Clean,
            (TaintState::Clean, t @ TaintState::Tainted(_)) => t.clone(),
            (t @ TaintState::Tainted(_), TaintState::Clean) => t.clone(),
            (TaintState::Tainted(a), TaintState::Tainted(b)) => {
                if Arc::ptr_eq(a, b) {
                    // join(x, x) == x for every field; skip the rebuild.
                    return self.clone();
                }
                let mut info = TaintInfo {
                    sources: a.sources.union(&b.sources).copied().collect(),
                    sanitized: a.sanitized.intersection(&b.sanitized).cloned().collect(),
                    steps: a.steps.clone(),
                    carriers: a.carriers.union(&b.carriers).copied().collect(),
                    literals: a.literals.clone(),
                };
                for s in &b.steps {
                    if !info.steps.contains(s) {
                        info.steps.push(*s);
                    }
                }
                info.steps.truncate(MAX_STEPS);
                for l in &b.literals {
                    if info.literals.len() < 16 && !info.literals.contains(l) {
                        info.literals.push(l.clone());
                    }
                }
                TaintState::Tainted(Arc::new(info))
            }
        }
    }

    /// Records that `sanitizer` was applied, neutralizing `classes`.
    pub fn sanitize(&self, classes: &[VulnClass], sanitizer: &str, span: Span) -> TaintState {
        match self {
            TaintState::Clean => TaintState::Clean,
            TaintState::Tainted(info) => {
                let mut info = TaintInfo::clone(info);
                for c in classes {
                    info.sanitized.insert(c.clone());
                }
                info.push_step(TaintStep::new(format!("sanitized by {sanitizer}()"), span));
                TaintState::Tainted(Arc::new(info))
            }
        }
    }

    /// Appends a provenance step (no-op on clean values).
    pub fn with_step(&self, what: impl AsRef<str>, span: Span) -> TaintState {
        match self {
            TaintState::Clean => TaintState::Clean,
            TaintState::Tainted(info) => {
                let mut info = TaintInfo::clone(info);
                info.push_step(TaintStep::new(what, span));
                TaintState::Tainted(Arc::new(info))
            }
        }
    }

    /// Registers a variable that carries this taint.
    pub fn with_carrier(&self, var: impl Into<Symbol>) -> TaintState {
        match self {
            TaintState::Clean => TaintState::Clean,
            TaintState::Tainted(info) => {
                let mut info = TaintInfo::clone(info);
                info.carriers.insert(var.into());
                TaintState::Tainted(Arc::new(info))
            }
        }
    }
}

impl TaintInfo {
    fn push_step(&mut self, step: TaintStep) {
        if self.steps.len() < MAX_STEPS && self.steps.last() != Some(&step) {
            self.steps.push(step);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp() -> Span {
        Span::synthetic()
    }

    #[test]
    fn clean_is_never_dangerous() {
        let c = TaintState::Clean;
        assert!(!c.is_tainted());
        assert!(!c.is_tainted_for(&VulnClass::Sqli));
        assert!(c.info().is_none());
    }

    #[test]
    fn source_taints_everything() {
        let t = TaintState::source("$_GET['id']", sp());
        assert!(t.is_tainted());
        assert!(t.is_tainted_for(&VulnClass::Sqli));
        assert!(t.is_tainted_for(&VulnClass::XssReflected));
        assert_eq!(t.info().unwrap().sources.len(), 1);
    }

    #[test]
    fn sanitize_is_class_specific() {
        let t = TaintState::source("$_GET['id']", sp());
        let s = t.sanitize(&[VulnClass::Sqli], "mysql_real_escape_string", sp());
        assert!(!s.is_tainted_for(&VulnClass::Sqli));
        assert!(s.is_tainted_for(&VulnClass::XssReflected));
        assert!(
            s.is_tainted(),
            "sanitized data is still untrusted for other classes"
        );
    }

    #[test]
    fn join_unions_sources_and_intersects_sanitization() {
        let a = TaintState::source("$_GET['a']", sp()).sanitize(&[VulnClass::Sqli], "s", sp());
        let b = TaintState::source("$_POST['b']", sp());
        let j = a.join(&b);
        // b was never sanitized, so the joint value is dangerous for SQLI
        assert!(j.is_tainted_for(&VulnClass::Sqli));
        assert_eq!(j.info().unwrap().sources.len(), 2);

        let both_sanitized = a.join(&b.sanitize(&[VulnClass::Sqli], "s", sp()));
        assert!(!both_sanitized.is_tainted_for(&VulnClass::Sqli));
    }

    #[test]
    fn join_with_clean_keeps_taint() {
        let a = TaintState::source("$_GET['a']", sp());
        assert!(a.join(&TaintState::Clean).is_tainted());
        assert!(TaintState::Clean.join(&a).is_tainted());
        assert!(!TaintState::Clean.join(&TaintState::Clean).is_tainted());
    }

    #[test]
    fn join_is_commutative_for_danger() {
        let a = TaintState::source("$_GET['a']", sp()).sanitize(&[VulnClass::Sqli], "s", sp());
        let b = TaintState::source("$_POST['b']", sp());
        for class in [VulnClass::Sqli, VulnClass::XssReflected] {
            assert_eq!(
                a.join(&b).is_tainted_for(&class),
                b.join(&a).is_tainted_for(&class)
            );
        }
    }

    #[test]
    fn steps_are_bounded() {
        let mut t = TaintState::source("$_GET['x']", sp());
        for i in 0..100 {
            t = t.with_step(format!("step {i}"), sp());
        }
        assert!(t.info().unwrap().steps.len() <= MAX_STEPS);
        // earliest step (the entry point) is preserved
        assert!(t.info().unwrap().steps[0]
            .what
            .as_str()
            .contains("entry point"));
    }

    #[test]
    fn carriers_accumulate() {
        let t = TaintState::source("$_GET['x']", sp())
            .with_carrier("id")
            .with_carrier("q");
        let c = &t.info().unwrap().carriers;
        assert!(c.contains(&"id".into()) && c.contains(&"q".into()));
    }
}
