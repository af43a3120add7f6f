//! The unified rule API: every lint rule — builtin, weapon-declared, or
//! pack-distributed — is one [`RuleSpec`], compiled once into a
//! [`CompiledRule`] inside a [`RuleSet`], and executed by a single pass
//! over the lowered CFGs. There is exactly one path from declaration to
//! finding.
//!
//! The match language ([`MatchSpec`]) covers:
//!
//! * structural matchers backing the builtin lints (unreachable code,
//!   assignment-in-condition, unguarded catalog sinks, tainted sinks),
//! * call matchers (`forbid_call` / `require_guard` from weapon files),
//! * call-with-argument constraints — the call's argument text must
//!   match a [`Pattern`] (regex-lite, no external regex crate),
//! * statement patterns over printed statements, with `...` gaps and
//!   `$NAME` metavariable bindings plus per-binding `where` constraints.
//!
//! A `where` constraint is either the historical regex-lite pattern over
//! the bound text, or — when every `" and "`-separated term is a
//! recognized predicate — a semantic predicate chain evaluated against
//! per-file [`FileFacts`]: `tainted($X)` (the binding mentions a request
//! superglobal or a taint-analysis carrier), `const($X)` (the binding is
//! a literal or the value analysis proves it constant), `not const($X)`
//! / `!const($X)`, and `matches-value($X, <regex-lite>)` (some resolved
//! concrete value matches). Any unrecognized term keeps the whole
//! expression a plain regex, so existing packs compile unchanged.
//!
//! Executions are deterministic: findings come out in the canonical
//! `(file, line, span, rule, message)` order regardless of rule or
//! traversal order.

use crate::graph::{Cfg, FileCfgs};
use crate::guard::GuardAnalysis;
use crate::lint::{
    normalize_rule_id, sort_findings, var_list, LintFinding, LintRule, Severity, SinkEvent,
    RULE_ASSIGN_IN_COND, RULE_TAINTED_SINK, RULE_UNGUARDED_SINK, RULE_UNREACHABLE,
    RULE_UNRESOLVED_INCLUDE,
};
use crate::values::{AbstractValue, FileValues};
use std::collections::BTreeSet;
use wap_php::Symbol;

/// A rule declaration: the single schema every rule source (builtin
/// table, weapon `lint_rules`, installed packs) lowers into.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleSpec {
    /// Rule id; normalized into the `WAP-` namespace at compile time.
    pub id: String,
    /// Severity name (`error`/`warning`/`note`); unknown names compile
    /// to `warning`, matching the historical weapon-rule behavior.
    pub severity: String,
    /// One-line description for report rule tables; when empty the
    /// message is used.
    pub summary: String,
    /// Message attached to findings (call rules append the call name).
    pub message: String,
    /// Pack this rule came from, for provenance in SARIF; `None` for
    /// builtin and weapon-declared rules.
    pub pack: Option<String>,
    /// What the rule matches.
    pub matcher: MatchSpec,
}

/// The match language of [`RuleSpec`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MatchSpec {
    /// Statements control flow can never reach (builtin).
    Unreachable,
    /// An assignment used as a branch condition (builtin).
    AssignInCond,
    /// A call to one of the listed sink functions whose argument
    /// variables have no dominating validation guard (builtin; the
    /// sink list comes from the active catalog).
    UnguardedSink {
        /// Sink function/method names (case-insensitive).
        sinks: Vec<String>,
    },
    /// A taint-engine sink event with no dominating guard on the
    /// tainted variables (builtin; events ride in via
    /// [`RuleSet::run_tainted`]).
    TaintedSink,
    /// A dynamic include whose path no analysis resolved to a scan-set
    /// file (builtin; unresolved sites ride in via
    /// [`RuleSet::run_unresolved_includes`], computed by the pipeline
    /// from the value pass).
    UnresolvedInclude,
    /// Every call to `function` (the weapon `forbid_call` kind).
    Call {
        /// Forbidden function name (case-insensitive).
        function: String,
    },
    /// Calls to `function` whose argument variables lack a dominating
    /// guard (the weapon `require_guard` kind).
    CallGuarded {
        /// Guarded function name (case-insensitive).
        function: String,
    },
    /// Calls to `function` whose printed argument list matches a
    /// regex-lite pattern (e.g. an interpolated string reaching
    /// `$wpdb->query`).
    CallWithArg {
        /// Function or method name (case-insensitive).
        function: String,
        /// Regex-lite pattern searched in the call's argument text.
        argument: String,
    },
    /// A statement whose printed source matches a pattern. The pattern
    /// matches literally (whitespace-insensitive), `...` matches any
    /// run of text, and `$NAME` (all-caps) binds a metavariable;
    /// repeated metavariables must bind identical text and each
    /// `where` entry constrains a binding with a regex-lite pattern or
    /// a predicate chain (`tainted($X)`, `const($X)`, `!const($X)`,
    /// `matches-value($X, <re>)`, joined with `" and "`) evaluated
    /// against [`FileFacts`].
    Pattern {
        /// The statement pattern.
        pattern: String,
        /// Per-metavariable constraints (regex-lite or predicates).
        constraints: Vec<(String, String)>,
    },
}

impl MatchSpec {
    /// The matcher's kind name — manifest `kind` strings for pack
    /// matchers, descriptive names for the structural builtins. Used by
    /// `wap rules list` to show what a pack's rules match on.
    pub fn kind_name(&self) -> &'static str {
        match self {
            MatchSpec::Unreachable => "unreachable",
            MatchSpec::AssignInCond => "assign_in_cond",
            MatchSpec::UnguardedSink { .. } => "unguarded_sink",
            MatchSpec::TaintedSink => "tainted_sink",
            MatchSpec::UnresolvedInclude => "unresolved_include",
            MatchSpec::Call { .. } => "forbid_call",
            MatchSpec::CallGuarded { .. } => "require_guard",
            MatchSpec::CallWithArg { .. } => "call_with_arg",
            MatchSpec::Pattern { .. } => "pattern",
        }
    }
}

impl RuleSpec {
    /// The compatibility loader for weapon-declared rules: maps the
    /// legacy `kind` strings (`forbid_call` / `require_guard`) onto the
    /// unified schema. Unknown kinds fall back to `forbid_call`,
    /// matching the historical loader. An empty message gets the
    /// historical default naming the weapon rule.
    pub fn legacy(id: &str, kind: &str, function: &str, severity: &str, message: &str) -> RuleSpec {
        let normalized = normalize_rule_id(id);
        let message = if message.is_empty() {
            format!("call to {function} flagged by weapon rule {normalized}")
        } else {
            message.to_string()
        };
        let matcher = match kind {
            "require_guard" => MatchSpec::CallGuarded {
                function: function.to_string(),
            },
            _ => MatchSpec::Call {
                function: function.to_string(),
            },
        };
        RuleSpec {
            id: id.to_string(),
            severity: severity.to_string(),
            summary: message.clone(),
            message,
            pack: None,
            matcher,
        }
    }
}

/// The builtin lint rules as [`RuleSpec`]s — the same schema pack rules
/// use, so the builtin table is just another rule source. `sinks` is the
/// active catalog's sink-name list for the unguarded-sink rule.
pub fn builtin_specs(sinks: Vec<String>) -> Vec<RuleSpec> {
    vec![
        RuleSpec {
            id: RULE_ASSIGN_IN_COND.to_string(),
            severity: "warning".to_string(),
            summary: "assignment used as a branch condition".to_string(),
            message: "assignment used as a branch condition (did you mean '=='?)".to_string(),
            pack: None,
            matcher: MatchSpec::AssignInCond,
        },
        RuleSpec {
            id: RULE_TAINTED_SINK.to_string(),
            severity: "error".to_string(),
            summary: "tainted data reaches a sink without a dominating validation guard"
                .to_string(),
            message: String::new(),
            pack: None,
            matcher: MatchSpec::TaintedSink,
        },
        RuleSpec {
            id: RULE_UNGUARDED_SINK.to_string(),
            severity: "warning".to_string(),
            summary: "sink call not dominated by any validation guard on its arguments".to_string(),
            message: String::new(),
            pack: None,
            matcher: MatchSpec::UnguardedSink { sinks },
        },
        RuleSpec {
            id: RULE_UNREACHABLE.to_string(),
            severity: "note".to_string(),
            summary: "statement is unreachable".to_string(),
            message: String::new(),
            pack: None,
            matcher: MatchSpec::Unreachable,
        },
        RuleSpec {
            id: RULE_UNRESOLVED_INCLUDE.to_string(),
            severity: "note".to_string(),
            summary: "dynamic include path could not be resolved (analysis coverage gap)"
                .to_string(),
            message: "dynamic include path could not be resolved; its target is not analyzed"
                .to_string(),
            pack: None,
            matcher: MatchSpec::UnresolvedInclude,
        },
    ]
}

/// A compile error for one rule (bad pattern, unbound metavariable).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleError {
    /// Id of the offending rule (as declared, not normalized).
    pub rule: String,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for RuleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "rule {}: {}", self.rule, self.message)
    }
}

impl std::error::Error for RuleError {}

/// One rule after compilation: normalized id, parsed severity, and a
/// matcher ready to execute.
#[derive(Debug, Clone)]
pub struct CompiledRule {
    /// Normalized rule id (`WAP-...`).
    pub id: String,
    /// Parsed severity.
    pub severity: Severity,
    /// Rule-table summary.
    pub summary: String,
    /// Finding message template.
    pub message: String,
    /// Source pack, when the rule came from an installed pack.
    pub pack: Option<String>,
    matcher: CompiledMatcher,
}

#[derive(Debug, Clone)]
enum CompiledMatcher {
    Unreachable,
    AssignInCond,
    UnguardedSink { sinks: Vec<String> },
    TaintedSink,
    UnresolvedInclude,
    Call { function: String },
    CallGuarded { function: String },
    CallWithArg { function: String, argument: Pattern },
    Pattern { pattern: StmtPattern },
}

/// A compiled, immutable set of rules executed by one lint pass.
#[derive(Debug, Clone, Default)]
pub struct RuleSet {
    rules: Vec<CompiledRule>,
    needs_guards: bool,
    needs_source: bool,
}

impl RuleSet {
    /// Compiles rule specs into an executable set.
    ///
    /// # Errors
    ///
    /// Returns the first [`RuleError`] (bad regex-lite pattern, `where`
    /// constraint naming a metavariable absent from the pattern).
    pub fn compile(specs: &[RuleSpec]) -> Result<RuleSet, RuleError> {
        let mut rules = Vec::with_capacity(specs.len());
        for spec in specs {
            let err = |message: String| RuleError {
                rule: spec.id.clone(),
                message,
            };
            let matcher = match &spec.matcher {
                MatchSpec::Unreachable => CompiledMatcher::Unreachable,
                MatchSpec::AssignInCond => CompiledMatcher::AssignInCond,
                MatchSpec::UnguardedSink { sinks } => CompiledMatcher::UnguardedSink {
                    sinks: sinks.clone(),
                },
                MatchSpec::TaintedSink => CompiledMatcher::TaintedSink,
                MatchSpec::UnresolvedInclude => CompiledMatcher::UnresolvedInclude,
                MatchSpec::Call { function } => CompiledMatcher::Call {
                    function: function.clone(),
                },
                MatchSpec::CallGuarded { function } => CompiledMatcher::CallGuarded {
                    function: function.clone(),
                },
                MatchSpec::CallWithArg { function, argument } => CompiledMatcher::CallWithArg {
                    function: function.clone(),
                    argument: Pattern::compile(argument).map_err(&err)?,
                },
                MatchSpec::Pattern {
                    pattern,
                    constraints,
                } => CompiledMatcher::Pattern {
                    pattern: StmtPattern::compile(pattern, constraints).map_err(&err)?,
                },
            };
            rules.push(CompiledRule {
                id: normalize_rule_id(&spec.id),
                severity: Severity::parse(&spec.severity).unwrap_or(Severity::Warning),
                summary: if spec.summary.is_empty() {
                    if spec.message.is_empty() {
                        spec.id.clone()
                    } else {
                        spec.message.clone()
                    }
                } else {
                    spec.summary.clone()
                },
                message: spec.message.clone(),
                pack: spec.pack.clone(),
                matcher,
            });
        }
        let needs_guards = rules.iter().any(|r| match &r.matcher {
            CompiledMatcher::UnguardedSink { sinks } => !sinks.is_empty(),
            CompiledMatcher::CallGuarded { .. } => true,
            _ => false,
        });
        let needs_source = rules.iter().any(|r| {
            matches!(
                r.matcher,
                CompiledMatcher::CallWithArg { .. } | CompiledMatcher::Pattern { .. }
            )
        });
        Ok(RuleSet {
            rules,
            needs_guards,
            needs_source,
        })
    }

    /// The builtin set alone: the four historical lints over the given
    /// catalog sink list.
    pub fn builtin(sinks: Vec<String>) -> RuleSet {
        RuleSet::compile(&builtin_specs(sinks)).expect("builtin specs compile")
    }

    /// The compiled rules, in declaration order.
    pub fn rules(&self) -> &[CompiledRule] {
        &self.rules
    }

    /// Whether any rule needs the original source text (pattern and
    /// call-with-argument matchers print statements from it).
    pub fn needs_source(&self) -> bool {
        self.needs_source
    }

    /// Whether any rule carries a predicate `where` constraint, i.e.
    /// consumes [`FileFacts`]. Callers use this to decide whether to
    /// compute facts (and to salt lint cache keys with them).
    pub fn needs_facts(&self) -> bool {
        self.rules.iter().any(|r| match &r.matcher {
            CompiledMatcher::Pattern { pattern } => pattern.has_predicates(),
            _ => false,
        })
    }

    /// Report rule-table metadata: one entry per distinct rule id, in
    /// sorted id order.
    pub fn rule_table(&self) -> Vec<LintRule> {
        let mut table: Vec<LintRule> = self
            .rules
            .iter()
            .map(|r| LintRule {
                id: r.id.clone(),
                summary: r.summary.clone(),
                severity: r.severity,
                pack: r.pack.clone(),
            })
            .collect();
        table.sort_by(|a, b| a.id.cmp(&b.id));
        table.dedup_by(|a, b| a.id == b.id);
        table
    }

    /// Runs every CFG-local rule over one file's graphs. `source` is the
    /// file's original text, required by pattern and call-with-argument
    /// rules (they never fire without it). Findings are sorted and
    /// deterministic. Predicate `where` constraints see empty facts, so
    /// `tainted`/`const` predicates only fire on what the binding text
    /// alone proves; use [`RuleSet::run_with_facts`] to supply facts.
    pub fn run(&self, file: &str, cfgs: &FileCfgs, source: Option<&str>) -> Vec<LintFinding> {
        self.run_with_facts(file, cfgs, source, &FileFacts::default())
    }

    /// [`RuleSet::run`] with per-file semantic facts backing predicate
    /// `where` constraints.
    pub fn run_with_facts(
        &self,
        file: &str,
        cfgs: &FileCfgs,
        source: Option<&str>,
        facts: &FileFacts<'_>,
    ) -> Vec<LintFinding> {
        let mut out = Vec::new();
        for cfg in &cfgs.cfgs {
            self.run_cfg(file, cfg, source, facts, &mut out);
        }
        sort_findings(&mut out);
        out
    }

    fn run_cfg(
        &self,
        file: &str,
        cfg: &Cfg,
        source: Option<&str>,
        facts: &FileFacts<'_>,
        out: &mut Vec<LintFinding>,
    ) {
        let reachable = cfg.reachable();

        for rule in &self.rules {
            match &rule.matcher {
                CompiledMatcher::Unreachable => {
                    // one finding per dead block that has statements
                    for (b, block) in cfg.blocks.iter().enumerate() {
                        if reachable[b] || block.nodes.is_empty() {
                            continue;
                        }
                        let first = &block.nodes[0];
                        out.push(LintFinding {
                            rule_id: rule.id.clone(),
                            severity: rule.severity,
                            file: file.to_string(),
                            line: first.line,
                            span: first.span,
                            message: match &cfg.name {
                                Some(n) => format!("statement in function '{n}' is unreachable"),
                                None => "statement is unreachable".to_string(),
                            },
                        });
                    }
                }
                CompiledMatcher::AssignInCond => {
                    for block in &cfg.blocks {
                        for node in &block.nodes {
                            if node.is_cond && node.assign_in_cond {
                                out.push(LintFinding {
                                    rule_id: rule.id.clone(),
                                    severity: rule.severity,
                                    file: file.to_string(),
                                    line: node.line,
                                    span: node.span,
                                    message: rule.message.clone(),
                                });
                            }
                        }
                    }
                }
                _ => {}
            }
        }

        // call + pattern rules share one guard analysis per graph and
        // skip dead blocks: dead sinks are already reported as unreachable
        let analysis = if self.needs_guards {
            Some(GuardAnalysis::new(cfg))
        } else {
            None
        };
        let call_rules = self.rules.iter().any(|r| {
            matches!(
                r.matcher,
                CompiledMatcher::UnguardedSink { .. }
                    | CompiledMatcher::Call { .. }
                    | CompiledMatcher::CallGuarded { .. }
                    | CompiledMatcher::CallWithArg { .. }
                    | CompiledMatcher::Pattern { .. }
            )
        });
        if !call_rules {
            return;
        }

        for (b, block) in cfg.blocks.iter().enumerate() {
            if !reachable[b] {
                continue;
            }
            for (i, node) in block.nodes.iter().enumerate() {
                // synthesized entry nodes (empty spans) print nothing
                let text = match source {
                    Some(s) if !node.span.is_empty() => slice_span(s, node.span),
                    _ => None,
                };
                // normalized once per node, on the first rule that needs it
                let mut normalized: Option<Vec<char>> = None;
                for rule in &self.rules {
                    if let CompiledMatcher::Pattern { pattern } = &rule.matcher {
                        let Some(text) = text else {
                            continue;
                        };
                        if !pattern.may_match(text) {
                            continue;
                        }
                        let chars =
                            normalized.get_or_insert_with(|| normalize_ws(text).chars().collect());
                        if pattern.matches(chars, node.span.start(), facts) {
                            out.push(LintFinding {
                                rule_id: rule.id.clone(),
                                severity: rule.severity,
                                file: file.to_string(),
                                line: node.line,
                                span: node.span,
                                message: rule.message.clone(),
                            });
                        }
                    }
                }
                for call in &node.calls {
                    for rule in &self.rules {
                        match &rule.matcher {
                            CompiledMatcher::UnguardedSink { sinks } => {
                                let is_sink = sinks
                                    .iter()
                                    .any(|s| s.eq_ignore_ascii_case(call.name.as_str()));
                                if is_sink && !call.arg_vars.is_empty() {
                                    let analysis = analysis.as_ref().expect("guard analysis");
                                    if analysis.guards_at(b, i, &call.arg_vars).is_empty() {
                                        out.push(LintFinding {
                                            rule_id: rule.id.clone(),
                                            severity: rule.severity,
                                            file: file.to_string(),
                                            line: call.line,
                                            span: call.span,
                                            message: format!(
                                                "call to sink '{}' is not dominated by a validation guard on {}",
                                                call.name,
                                                var_list(&call.arg_vars)
                                            ),
                                        });
                                    }
                                }
                            }
                            CompiledMatcher::Call { function }
                                if function.eq_ignore_ascii_case(call.name.as_str()) =>
                            {
                                out.push(LintFinding {
                                    rule_id: rule.id.clone(),
                                    severity: rule.severity,
                                    file: file.to_string(),
                                    line: call.line,
                                    span: call.span,
                                    message: format!("{} (call to '{}')", rule.message, call.name),
                                });
                            }
                            CompiledMatcher::CallGuarded { function }
                                if function.eq_ignore_ascii_case(call.name.as_str())
                                    && !call.arg_vars.is_empty() =>
                            {
                                let analysis = analysis.as_ref().expect("guard analysis");
                                if analysis.guards_at(b, i, &call.arg_vars).is_empty() {
                                    out.push(LintFinding {
                                        rule_id: rule.id.clone(),
                                        severity: rule.severity,
                                        file: file.to_string(),
                                        line: call.line,
                                        span: call.span,
                                        message: format!(
                                            "{} (unguarded call to '{}')",
                                            rule.message, call.name
                                        ),
                                    });
                                }
                            }
                            CompiledMatcher::CallWithArg { function, argument }
                                if function.eq_ignore_ascii_case(call.name.as_str()) =>
                            {
                                let Some(text) = source.and_then(|s| slice_span(s, call.span))
                                else {
                                    continue;
                                };
                                if argument.search(&normalize_ws(call_args_text(text))) {
                                    out.push(LintFinding {
                                        rule_id: rule.id.clone(),
                                        severity: rule.severity,
                                        file: file.to_string(),
                                        line: call.line,
                                        span: call.span,
                                        message: format!(
                                            "{} (call to '{}')",
                                            rule.message, call.name
                                        ),
                                    });
                                }
                            }
                            _ => {}
                        }
                    }
                }
            }
        }
    }

    /// Runs the tainted-sink rule: each taint-engine sink event is
    /// checked for a dominating guard on its tainted variables; guarded
    /// events are suppressed. A no-op when the set declares no
    /// [`MatchSpec::TaintedSink`] rule. Findings are sorted.
    pub fn run_tainted(
        &self,
        file: &str,
        cfgs: &FileCfgs,
        sinks: &[SinkEvent],
    ) -> Vec<LintFinding> {
        let mut out: Vec<LintFinding> = Vec::new();
        for rule in &self.rules {
            if !matches!(rule.matcher, CompiledMatcher::TaintedSink) {
                continue;
            }
            for s in sinks {
                let guards = cfgs.dominating_guards(s.span, &s.vars);
                if !guards.is_empty() {
                    continue; // validated: the committee's false-positive case
                }
                out.push(LintFinding {
                    rule_id: rule.id.clone(),
                    severity: rule.severity,
                    file: file.to_string(),
                    line: s.line,
                    span: s.span,
                    message: format!(
                        "tainted data reaches {} sink without a dominating guard on {}",
                        s.class,
                        var_list(&s.vars)
                    ),
                });
            }
        }
        sort_findings(&mut out);
        out
    }

    /// Runs the unresolved-include rule over the given unresolved
    /// dynamic-include sites (`(span, 1-based line)` pairs, computed by
    /// the pipeline as the dynamic include sites the value analysis
    /// could not resolve). A no-op when the set declares no
    /// [`MatchSpec::UnresolvedInclude`] rule. Findings are sorted.
    pub fn run_unresolved_includes(
        &self,
        file: &str,
        sites: &[(wap_php::Span, u32)],
    ) -> Vec<LintFinding> {
        let mut out: Vec<LintFinding> = Vec::new();
        for rule in &self.rules {
            if !matches!(rule.matcher, CompiledMatcher::UnresolvedInclude) {
                continue;
            }
            for &(span, line) in sites {
                out.push(LintFinding {
                    rule_id: rule.id.clone(),
                    severity: rule.severity,
                    file: file.to_string(),
                    line,
                    span,
                    message: rule.message.clone(),
                });
            }
        }
        sort_findings(&mut out);
        out
    }
}

/// Slices a span out of the source, tolerating out-of-range or
/// non-boundary spans (returns `None` instead of panicking).
fn slice_span(source: &str, span: wap_php::Span) -> Option<&str> {
    source.get(span.start() as usize..span.end() as usize)
}

/// Collapses whitespace runs to single spaces and trims, so patterns are
/// whitespace-insensitive.
fn normalize_ws(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut in_ws = false;
    for c in text.trim().chars() {
        if c.is_whitespace() {
            in_ws = true;
            continue;
        }
        if in_ws && !out.is_empty() {
            out.push(' ');
        }
        in_ws = false;
        out.push(c);
    }
    out
}

/// The argument-list text of a printed call: everything between the
/// outermost parentheses, or the whole text when there are none.
fn call_args_text(text: &str) -> &str {
    match (text.find('('), text.rfind(')')) {
        (Some(open), Some(close)) if close > open => &text[open + 1..close],
        _ => text,
    }
}

// ---------------------------------------------------------------------------
// regex-lite: the pattern engine behind `where` constraints and
// call-with-argument rules. Supported syntax: literals, `\`-escapes
// (including \d \w \s and their negations), `.`, `[...]`/`[^...]` classes
// with ranges, postfix `*` `+` `?`, `(...)` groups, `|` alternation, and
// `^`/`$` anchors. Backtracking over a parsed AST — no external crate.
// ---------------------------------------------------------------------------

/// A compiled regex-lite pattern.
#[derive(Debug, Clone)]
pub struct Pattern {
    ast: Alt,
    anchored_start: bool,
}

#[derive(Debug, Clone)]
struct Alt(Vec<Seq>);

#[derive(Debug, Clone)]
struct Seq(Vec<Rep>);

#[derive(Debug, Clone)]
struct Rep {
    atom: Atom,
    min: u32,
    max: Option<u32>,
}

#[derive(Debug, Clone)]
enum Atom {
    Char(char),
    Any,
    Class {
        negated: bool,
        items: Vec<ClassItem>,
    },
    Group(Alt),
    Start,
    End,
}

#[derive(Debug, Clone)]
enum ClassItem {
    Single(char),
    Range(char, char),
}

impl Pattern {
    /// Compiles a regex-lite pattern.
    ///
    /// # Errors
    ///
    /// Returns a message for unbalanced groups/classes, dangling
    /// repetition operators, and trailing escapes.
    pub fn compile(pattern: &str) -> Result<Pattern, String> {
        let chars: Vec<char> = pattern.chars().collect();
        let mut pos = 0usize;
        let ast = parse_alt(&chars, &mut pos)?;
        if pos != chars.len() {
            return Err(format!("unexpected ')' at offset {pos}"));
        }
        let anchored_start = matches!(
            ast.0.first().and_then(|s| s.0.first()),
            Some(Rep {
                atom: Atom::Start,
                ..
            })
        ) && ast.0.len() == 1;
        Ok(Pattern {
            ast,
            anchored_start,
        })
    }

    /// Whether the pattern matches anywhere in `text` (substring search
    /// unless `^`-anchored).
    pub fn search(&self, text: &str) -> bool {
        let chars: Vec<char> = text.chars().collect();
        let starts = if self.anchored_start {
            0..1
        } else {
            0..chars.len() + 1
        };
        for start in starts {
            if match_alt(&self.ast, &chars, start, &mut |_| true) {
                return true;
            }
        }
        false
    }
}

fn parse_alt(chars: &[char], pos: &mut usize) -> Result<Alt, String> {
    let mut branches = vec![parse_seq(chars, pos)?];
    while *pos < chars.len() && chars[*pos] == '|' {
        *pos += 1;
        branches.push(parse_seq(chars, pos)?);
    }
    Ok(Alt(branches))
}

fn parse_seq(chars: &[char], pos: &mut usize) -> Result<Seq, String> {
    let mut reps = Vec::new();
    while *pos < chars.len() && chars[*pos] != '|' && chars[*pos] != ')' {
        let atom = parse_atom(chars, pos)?;
        let (min, max) = if *pos < chars.len() {
            match chars[*pos] {
                '*' => {
                    *pos += 1;
                    (0, None)
                }
                '+' => {
                    *pos += 1;
                    (1, None)
                }
                '?' => {
                    *pos += 1;
                    (0, Some(1))
                }
                _ => (1, Some(1)),
            }
        } else {
            (1, Some(1))
        };
        if (min != 1 || max != Some(1)) && matches!(atom, Atom::Start | Atom::End) {
            return Err("repetition applied to an anchor".to_string());
        }
        reps.push(Rep { atom, min, max });
    }
    Ok(Seq(reps))
}

fn parse_atom(chars: &[char], pos: &mut usize) -> Result<Atom, String> {
    let c = chars[*pos];
    *pos += 1;
    match c {
        '.' => Ok(Atom::Any),
        '^' => Ok(Atom::Start),
        '$' => Ok(Atom::End),
        '(' => {
            let inner = parse_alt(chars, pos)?;
            if *pos >= chars.len() || chars[*pos] != ')' {
                return Err("unclosed group".to_string());
            }
            *pos += 1;
            Ok(Atom::Group(inner))
        }
        '[' => parse_class(chars, pos),
        '\\' => {
            if *pos >= chars.len() {
                return Err("trailing escape".to_string());
            }
            let e = chars[*pos];
            *pos += 1;
            Ok(escape_atom(e))
        }
        '*' | '+' | '?' => Err(format!("dangling repetition operator '{c}'")),
        other => Ok(Atom::Char(other)),
    }
}

fn escape_atom(e: char) -> Atom {
    let class = |items: Vec<ClassItem>, negated: bool| Atom::Class { negated, items };
    match e {
        'd' => class(vec![ClassItem::Range('0', '9')], false),
        'D' => class(vec![ClassItem::Range('0', '9')], true),
        'w' => class(word_items(), false),
        'W' => class(word_items(), true),
        's' => class(space_items(), false),
        'S' => class(space_items(), true),
        'n' => Atom::Char('\n'),
        't' => Atom::Char('\t'),
        'r' => Atom::Char('\r'),
        other => Atom::Char(other),
    }
}

fn word_items() -> Vec<ClassItem> {
    vec![
        ClassItem::Range('a', 'z'),
        ClassItem::Range('A', 'Z'),
        ClassItem::Range('0', '9'),
        ClassItem::Single('_'),
    ]
}

fn space_items() -> Vec<ClassItem> {
    vec![
        ClassItem::Single(' '),
        ClassItem::Single('\t'),
        ClassItem::Single('\n'),
        ClassItem::Single('\r'),
    ]
}

fn parse_class(chars: &[char], pos: &mut usize) -> Result<Atom, String> {
    let negated = *pos < chars.len() && chars[*pos] == '^';
    if negated {
        *pos += 1;
    }
    let mut items = Vec::new();
    while *pos < chars.len() && chars[*pos] != ']' {
        let mut c = chars[*pos];
        *pos += 1;
        if c == '\\' {
            if *pos >= chars.len() {
                return Err("trailing escape in class".to_string());
            }
            c = match chars[*pos] {
                'n' => '\n',
                't' => '\t',
                'r' => '\r',
                other => other,
            };
            *pos += 1;
        }
        if *pos + 1 < chars.len() && chars[*pos] == '-' && chars[*pos + 1] != ']' {
            let mut hi = chars[*pos + 1];
            *pos += 2;
            if hi == '\\' {
                if *pos >= chars.len() {
                    return Err("trailing escape in class".to_string());
                }
                hi = chars[*pos];
                *pos += 1;
            }
            items.push(ClassItem::Range(c, hi));
        } else {
            items.push(ClassItem::Single(c));
        }
    }
    if *pos >= chars.len() {
        return Err("unclosed character class".to_string());
    }
    *pos += 1; // consume ']'
    Ok(Atom::Class { negated, items })
}

fn class_matches(negated: bool, items: &[ClassItem], c: char) -> bool {
    let hit = items.iter().any(|item| match item {
        ClassItem::Single(x) => *x == c,
        ClassItem::Range(lo, hi) => (*lo..=*hi).contains(&c),
    });
    hit != negated
}

/// Matches `alt` at `pos`; on success calls `k` with the end position.
fn match_alt(alt: &Alt, text: &[char], pos: usize, k: &mut dyn FnMut(usize) -> bool) -> bool {
    for branch in &alt.0 {
        if match_seq(&branch.0, text, pos, k) {
            return true;
        }
    }
    false
}

fn match_seq(seq: &[Rep], text: &[char], pos: usize, k: &mut dyn FnMut(usize) -> bool) -> bool {
    let Some((first, rest)) = seq.split_first() else {
        return k(pos);
    };
    match_rep(first, text, pos, 0, &mut |end| {
        match_seq(rest, text, end, k)
    })
}

fn match_rep(
    rep: &Rep,
    text: &[char],
    pos: usize,
    count: u32,
    k: &mut dyn FnMut(usize) -> bool,
) -> bool {
    // greedy: try one more repetition first, then settle
    if rep.max.is_none_or(|m| count < m) {
        let advanced = match_atom(&rep.atom, text, pos, &mut |end| {
            // zero-width atoms must not loop forever
            if end == pos && count >= rep.min {
                return false;
            }
            match_rep(rep, text, end, count + 1, k)
        });
        if advanced {
            return true;
        }
    }
    if count >= rep.min {
        return k(pos);
    }
    false
}

fn match_atom(atom: &Atom, text: &[char], pos: usize, k: &mut dyn FnMut(usize) -> bool) -> bool {
    match atom {
        Atom::Char(c) => pos < text.len() && text[pos] == *c && k(pos + 1),
        Atom::Any => pos < text.len() && k(pos + 1),
        Atom::Class { negated, items } => {
            pos < text.len() && class_matches(*negated, items, text[pos]) && k(pos + 1)
        }
        Atom::Group(inner) => match_alt(inner, text, pos, k),
        Atom::Start => pos == 0 && k(pos),
        Atom::End => pos == text.len() && k(pos),
    }
}

// ---------------------------------------------------------------------------
// Predicate `where` constraints: semantic facts + the predicate grammar.
// ---------------------------------------------------------------------------

/// Per-file semantic facts backing predicate `where` constraints. The
/// pipeline computes them from the taint report and the value analysis;
/// the empty default means any predicate needing a missing fact
/// conservatively fails (except literal bindings, which prove
/// const-ness on their own).
#[derive(Debug, Clone, Copy, Default)]
pub struct FileFacts<'a> {
    /// Bare variable names (no `$`) the taint analysis marked as
    /// tainted carriers in this file.
    pub tainted_vars: Option<&'a BTreeSet<String>>,
    /// The file's value-analysis result, when the value pass ran.
    pub values: Option<&'a FileValues>,
}

/// One compiled `where` constraint: the historical regex-lite form, or
/// a conjunction of semantic predicates.
#[derive(Debug, Clone)]
enum Constraint {
    Regex(Pattern),
    Predicates(Vec<Predicate>),
}

#[derive(Debug, Clone)]
enum Predicate {
    Tainted,
    Const,
    NotConst,
    MatchesValue(Pattern),
}

/// Request superglobals: bindings mentioning these are tainted without
/// any taint-analysis fact (they *are* the paper's entry points).
const SOURCE_SUPERGLOBALS: [&str; 6] =
    ["_GET", "_POST", "_REQUEST", "_COOKIE", "_FILES", "_SERVER"];

/// Parses one constraint expression. Every `" and "`-separated term
/// must be a recognized predicate for the predicate reading to win;
/// otherwise the whole expression compiles as a regex-lite pattern
/// (the historical behavior, so existing packs are unaffected).
fn parse_constraint(name: &str, expr: &str) -> Result<Constraint, String> {
    let mut preds = Vec::new();
    for term in expr.split(" and ") {
        match parse_predicate(name, term.trim())? {
            Some(p) => preds.push(p),
            None => return Ok(Constraint::Regex(Pattern::compile(expr)?)),
        }
    }
    if preds.is_empty() {
        return Err("empty where-constraint".to_string());
    }
    Ok(Constraint::Predicates(preds))
}

/// One predicate term: `Ok(None)` means "not predicate syntax, fall
/// back to regex"; `Err` means predicate syntax naming the wrong
/// metavariable (certainly a typo, so it does not silently regex-match).
fn parse_predicate(name: &str, term: &str) -> Result<Option<Predicate>, String> {
    let (head, arg) = match term.find('(') {
        Some(i) if term.ends_with(')') => (
            term[..i].trim_end(),
            Some(term[i + 1..term.len() - 1].trim()),
        ),
        _ => (term, None),
    };
    let head: String = head.split_whitespace().collect::<Vec<_>>().join(" ");
    let check_name = |arg: Option<&str>| -> Result<(), String> {
        match arg {
            None | Some("") => Ok(()),
            Some(a) if a == format!("${name}") => Ok(()),
            Some(a) => Err(format!(
                "predicate argument '{a}' does not name the constrained metavariable ${name}"
            )),
        }
    };
    match head.as_str() {
        "tainted" => {
            check_name(arg)?;
            Ok(Some(Predicate::Tainted))
        }
        "const" => {
            check_name(arg)?;
            Ok(Some(Predicate::Const))
        }
        "not const" | "!const" => {
            check_name(arg)?;
            Ok(Some(Predicate::NotConst))
        }
        "matches-value" => {
            let Some(arg) = arg else {
                return Err("matches-value needs a (pattern) argument".to_string());
            };
            // optional leading `$NAME,` names the metavariable
            let re = match arg.strip_prefix(&format!("${name},")) {
                Some(rest) => rest.trim_start(),
                None if arg.starts_with('$') => {
                    let named = arg.split(',').next().unwrap_or(arg).trim();
                    return Err(format!(
                        "predicate argument '{named}' does not name the constrained metavariable ${name}"
                    ));
                }
                None => arg,
            };
            Ok(Some(Predicate::MatchesValue(Pattern::compile(re)?)))
        }
        _ => Ok(None),
    }
}

impl Predicate {
    fn eval(&self, bound: &str, offset: u32, facts: &FileFacts<'_>) -> bool {
        match self {
            Predicate::Tainted => binding_is_tainted(bound, facts),
            Predicate::Const => binding_is_const(bound, offset, facts),
            Predicate::NotConst => !binding_is_const(bound, offset, facts),
            Predicate::MatchesValue(p) => binding_values(bound, offset, facts)
                .is_some_and(|vals| vals.iter().any(|v| p.search(v))),
        }
    }
}

/// Bare variable names (`$x` → `x`) mentioned anywhere in bound text.
fn binding_var_names(text: &str) -> Vec<String> {
    let chars: Vec<char> = text.chars().collect();
    let mut out = Vec::new();
    let mut i = 0;
    while i < chars.len() {
        if chars[i] == '$' {
            let mut j = i + 1;
            while j < chars.len() && (chars[j].is_ascii_alphanumeric() || chars[j] == '_') {
                j += 1;
            }
            if j > i + 1 {
                out.push(chars[i + 1..j].iter().collect());
            }
            i = j;
        } else {
            i += 1;
        }
    }
    out
}

fn binding_is_tainted(bound: &str, facts: &FileFacts<'_>) -> bool {
    binding_var_names(bound).iter().any(|v| {
        SOURCE_SUPERGLOBALS.contains(&v.as_str())
            || facts.tainted_vars.is_some_and(|t| t.contains(v))
    })
}

/// The concrete value of a literal binding (`"x"`, `'x'`, `42`), when
/// the bound text alone proves one.
fn literal_const(bound: &str) -> Option<String> {
    let t = bound.trim();
    let b = t.as_bytes();
    if t.len() >= 2 && (b[0] == b'"' || b[0] == b'\'') && b[t.len() - 1] == b[0] {
        let inner = &t[1..t.len() - 1];
        if !inner.contains(b[0] as char) && !inner.contains('$') {
            return Some(inner.to_string());
        }
        return None;
    }
    let digits = t.strip_prefix('-').unwrap_or(t);
    if !digits.is_empty() && digits.bytes().all(|c| c.is_ascii_digit()) {
        return Some(t.to_string());
    }
    None
}

/// The bare name when the whole binding is one simple variable.
fn single_var(bound: &str) -> Option<&str> {
    let rest = bound.trim().strip_prefix('$')?;
    let simple = !rest.is_empty()
        && !rest.starts_with(|c: char| c.is_ascii_digit())
        && rest.chars().all(|c| c.is_ascii_alphanumeric() || c == '_');
    simple.then_some(rest)
}

fn binding_is_const(bound: &str, offset: u32, facts: &FileFacts<'_>) -> bool {
    if literal_const(bound).is_some() {
        return true;
    }
    let Some(var) = single_var(bound) else {
        return false;
    };
    facts.values.is_some_and(|fv| {
        fv.value_at(Symbol::intern(var), offset)
            .is_some_and(AbstractValue::is_const)
    })
}

/// Every concrete value the binding may hold, when fully known: the
/// literal itself, or the value analysis' exact string set / constant.
fn binding_values(bound: &str, offset: u32, facts: &FileFacts<'_>) -> Option<Vec<String>> {
    if let Some(lit) = literal_const(bound) {
        return Some(vec![lit]);
    }
    let var = single_var(bound)?;
    match facts.values?.value_at(Symbol::intern(var), offset)? {
        AbstractValue::Num(n) => Some(vec![n.to_string()]),
        AbstractValue::Strs { items, exact: true } => Some(items.iter().cloned().collect()),
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Statement patterns: literal text (whitespace-insensitive) + `...` gaps
// + `$NAME` metavariables with `where` regex-lite constraints.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct StmtPattern {
    elems: Vec<Elem>,
    /// The longest `Lit` element, the prefilter: a statement whose raw
    /// text lacks it cannot match. `None` when the pattern has no `Lit`.
    literal: Option<String>,
    /// Constraint per metavariable index (parallel to `names`).
    constraints: Vec<Option<Constraint>>,
    names: Vec<String>,
}

#[derive(Debug, Clone)]
enum Elem {
    /// Literal text (no spaces).
    Lit(Vec<char>),
    /// A space in the pattern: matches an optional space in the subject,
    /// so `md5( ... )` still matches `md5($x)`.
    OptSpace,
    /// `...`: any (possibly empty) run.
    Gap,
    /// `$NAME`: binds a non-empty run; index into `names`.
    Meta(usize),
}

impl StmtPattern {
    fn compile(pattern: &str, constraints: &[(String, String)]) -> Result<StmtPattern, String> {
        let normalized = normalize_ws(pattern);
        let chars: Vec<char> = normalized.chars().collect();
        let mut elems = Vec::new();
        let mut names: Vec<String> = Vec::new();
        let mut lit = Vec::new();
        let mut i = 0usize;
        while i < chars.len() {
            if chars[i] == '.' && chars.get(i + 1) == Some(&'.') && chars.get(i + 2) == Some(&'.') {
                if !lit.is_empty() {
                    elems.push(Elem::Lit(std::mem::take(&mut lit)));
                }
                elems.push(Elem::Gap);
                i += 3;
                continue;
            }
            if chars[i] == '$' && chars.get(i + 1).is_some_and(|c| c.is_ascii_uppercase()) {
                let mut j = i + 1;
                while j < chars.len()
                    && (chars[j].is_ascii_uppercase()
                        || chars[j].is_ascii_digit()
                        || chars[j] == '_')
                {
                    j += 1;
                }
                let name: String = chars[i + 1..j].iter().collect();
                if !lit.is_empty() {
                    elems.push(Elem::Lit(std::mem::take(&mut lit)));
                }
                let idx = names.iter().position(|n| n == &name).unwrap_or_else(|| {
                    names.push(name);
                    names.len() - 1
                });
                elems.push(Elem::Meta(idx));
                i = j;
                continue;
            }
            if chars[i] == ' ' {
                if !lit.is_empty() {
                    elems.push(Elem::Lit(std::mem::take(&mut lit)));
                }
                elems.push(Elem::OptSpace);
                i += 1;
                continue;
            }
            lit.push(chars[i]);
            i += 1;
        }
        if !lit.is_empty() {
            elems.push(Elem::Lit(lit));
        }
        if elems.is_empty() {
            return Err("empty pattern".to_string());
        }
        let mut compiled: Vec<Option<Constraint>> = vec![None; names.len()];
        for (name, expr) in constraints {
            let Some(idx) = names.iter().position(|n| n == name) else {
                return Err(format!(
                    "where-constraint on ${name} not bound in the pattern"
                ));
            };
            compiled[idx] = Some(
                parse_constraint(name, expr)
                    .map_err(|e| format!("where-constraint on ${name}: {e}"))?,
            );
        }
        let literal = elems
            .iter()
            .filter_map(|e| match e {
                Elem::Lit(l) => Some(l),
                _ => None,
            })
            .max_by_key(|l| l.len())
            .map(|l| l.iter().collect());
        Ok(StmtPattern {
            elems,
            literal,
            constraints: compiled,
            names,
        })
    }

    /// The literal prefilter over a statement's *raw* source text. Exact:
    /// a `Lit` holds no whitespace, since compilation normalizes the
    /// pattern and turns its spaces into `OptSpace`, and normalization
    /// only collapses whitespace runs, so a `Lit` occurs in the
    /// normalized text only if it occurs verbatim in the raw text.
    fn may_match(&self, raw: &str) -> bool {
        self.literal.as_deref().is_none_or(|lit| raw.contains(lit))
    }

    /// Whether any `where` constraint is a semantic predicate chain.
    fn has_predicates(&self) -> bool {
        self.constraints
            .iter()
            .flatten()
            .any(|c| matches!(c, Constraint::Predicates(_)))
    }

    /// Whether the pattern matches anywhere in the (whitespace-normalized)
    /// statement text, given as chars. `offset` is the statement's source
    /// offset and `facts` the file's semantic facts, consumed by predicate
    /// constraints.
    fn matches(&self, chars: &[char], offset: u32, facts: &FileFacts<'_>) -> bool {
        let mut bindings: Vec<Option<(usize, usize)>> = vec![None; self.names.len()];
        for start in 0..chars.len() + 1 {
            if self.match_elems(&self.elems, chars, start, &mut bindings, offset, facts) {
                return true;
            }
        }
        false
    }

    fn match_elems(
        &self,
        elems: &[Elem],
        text: &[char],
        pos: usize,
        bindings: &mut Vec<Option<(usize, usize)>>,
        offset: u32,
        facts: &FileFacts<'_>,
    ) -> bool {
        let Some((first, rest)) = elems.split_first() else {
            // substring semantics: trailing text is fine
            return self.bindings_ok(text, bindings, offset, facts);
        };
        match first {
            Elem::Lit(lit) => {
                if pos + lit.len() <= text.len() && text[pos..pos + lit.len()] == lit[..] {
                    self.match_elems(rest, text, pos + lit.len(), bindings, offset, facts)
                } else {
                    false
                }
            }
            Elem::OptSpace => {
                if pos < text.len()
                    && text[pos] == ' '
                    && self.match_elems(rest, text, pos + 1, bindings, offset, facts)
                {
                    return true;
                }
                self.match_elems(rest, text, pos, bindings, offset, facts)
            }
            Elem::Gap => {
                for end in pos..text.len() + 1 {
                    if self.match_elems(rest, text, end, bindings, offset, facts) {
                        return true;
                    }
                }
                false
            }
            Elem::Meta(idx) => {
                if let Some((s, e)) = bindings[*idx] {
                    // repeated metavariable: must match its first binding
                    let len = e - s;
                    if pos + len <= text.len() && text[pos..pos + len] == text[s..e] {
                        return self.match_elems(rest, text, pos + len, bindings, offset, facts);
                    }
                    return false;
                }
                for end in (pos + 1..text.len() + 1).rev() {
                    bindings[*idx] = Some((pos, end));
                    if self.match_elems(rest, text, end, bindings, offset, facts) {
                        return true;
                    }
                }
                bindings[*idx] = None;
                false
            }
        }
    }

    fn bindings_ok(
        &self,
        text: &[char],
        bindings: &[Option<(usize, usize)>],
        offset: u32,
        facts: &FileFacts<'_>,
    ) -> bool {
        for (idx, constraint) in self.constraints.iter().enumerate() {
            let Some(constraint) = constraint else {
                continue;
            };
            let Some((s, e)) = bindings[idx] else {
                return false;
            };
            let bound: String = text[s..e].iter().collect();
            let ok = match constraint {
                Constraint::Regex(p) => p.search(&bound),
                Constraint::Predicates(ps) => ps.iter().all(|p| p.eval(&bound, offset, facts)),
            };
            if !ok {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::lower_program;
    use wap_php::parse;

    fn run_set(src: &str, set: &RuleSet) -> Vec<LintFinding> {
        let cfgs = lower_program(&parse(src).expect("parse"));
        set.run("test.php", &cfgs, Some(src))
    }

    fn sink_set() -> RuleSet {
        RuleSet::builtin(vec!["mysql_query".to_string()])
    }

    #[test]
    fn unguarded_sink_is_flagged() {
        let f = run_set("<?php $id = $_GET['id']; mysql_query($id);", &sink_set());
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule_id, RULE_UNGUARDED_SINK);
        assert_eq!(f[0].severity, Severity::Warning);
        assert!(f[0].message.contains("$id"));
    }

    #[test]
    fn guarded_sink_is_suppressed() {
        let f = run_set(
            "<?php $id = $_GET['id']; if (!is_numeric($id)) { exit; } mysql_query($id);",
            &sink_set(),
        );
        assert!(
            f.iter().all(|x| x.rule_id != RULE_UNGUARDED_SINK),
            "dominating guard must suppress the finding: {f:?}"
        );
    }

    #[test]
    fn literal_only_sink_calls_are_ignored() {
        let f = run_set("<?php mysql_query('SELECT 1');", &sink_set());
        assert!(f.is_empty());
    }

    #[test]
    fn unreachable_code_is_noted_once_per_region() {
        let f = run_set(
            "<?php exit; echo 'a'; echo 'b';",
            &RuleSet::builtin(Vec::new()),
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule_id, RULE_UNREACHABLE);
        assert_eq!(f[0].severity, Severity::Note);
    }

    #[test]
    fn unreachable_in_function_names_the_function() {
        let f = run_set(
            "<?php function g() { return 1; echo 'dead'; }",
            &RuleSet::builtin(Vec::new()),
        );
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("'g'"));
    }

    #[test]
    fn assignment_in_condition_fires() {
        let f = run_set(
            "<?php if ($x = rand()) { echo $x; }",
            &RuleSet::builtin(Vec::new()),
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule_id, RULE_ASSIGN_IN_COND);
    }

    #[test]
    fn dead_sink_reports_unreachable_not_unguarded() {
        let f = run_set("<?php exit; mysql_query($id);", &sink_set());
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule_id, RULE_UNREACHABLE);
    }

    #[test]
    fn legacy_forbid_call_rule_fires_everywhere() {
        let set = RuleSet::compile(&[RuleSpec::legacy(
            "no eval",
            "forbid_call",
            "eval",
            "error",
            "eval is forbidden by policy",
        )])
        .unwrap();
        let f = run_set("<?php eval($code);", &set);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule_id, "WAP-NO-EVAL");
        assert_eq!(f[0].severity, Severity::Error);
        assert_eq!(f[0].message, "eval is forbidden by policy (call to 'eval')");
    }

    #[test]
    fn legacy_require_guard_rule_respects_dominating_guard() {
        let set = RuleSet::compile(&[RuleSpec::legacy(
            "guard-exec",
            "require_guard",
            "exec",
            "warning",
            "exec arguments must be validated",
        )])
        .unwrap();
        let unguarded = run_set("<?php exec($cmd);", &set);
        assert_eq!(unguarded.len(), 1);
        assert_eq!(unguarded[0].rule_id, "WAP-GUARD-EXEC");

        let guarded = run_set(
            "<?php if (!preg_match('/^[a-z]+$/', $cmd)) { exit; } exec($cmd);",
            &set,
        );
        assert!(guarded.is_empty());
    }

    #[test]
    fn legacy_empty_message_gets_the_historical_default() {
        let spec = RuleSpec::legacy("wp-x", "forbid_call", "frob", "warning", "");
        assert_eq!(spec.message, "call to frob flagged by weapon rule WAP-WP-X");
    }

    #[test]
    fn tainted_sink_rule_flags_and_suppresses() {
        let set = RuleSet::builtin(Vec::new());
        let src = "<?php $id = $_GET['id']; mysql_query($id);";
        let cfgs = lower_program(&parse(src).expect("parse"));
        let span = cfgs.find_call("mysql_query").unwrap();
        let events = vec![SinkEvent {
            span,
            line: span.line(),
            class: "sqli".to_string(),
            vars: vec!["id".into()],
        }];
        let f = set.run_tainted("t.php", &cfgs, &events);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule_id, RULE_TAINTED_SINK);
        assert_eq!(f[0].severity, Severity::Error);

        let src2 = "<?php $id = $_GET['id']; if (!is_numeric($id)) { exit; } mysql_query($id);";
        let cfgs2 = lower_program(&parse(src2).expect("parse"));
        let span2 = cfgs2.find_call("mysql_query").unwrap();
        let events2 = vec![SinkEvent {
            span: span2,
            line: span2.line(),
            class: "sqli".to_string(),
            vars: vec!["id".into()],
        }];
        assert!(set.run_tainted("t.php", &cfgs2, &events2).is_empty());
    }

    #[test]
    fn findings_are_sorted() {
        let f = run_set(
            "<?php if ($x = rand()) { mysql_query($x); } mysql_query($y);",
            &sink_set(),
        );
        let sorted = {
            let mut s = f.clone();
            sort_findings(&mut s);
            s
        };
        assert_eq!(f, sorted);
    }

    #[test]
    fn call_with_arg_matches_interpolated_query() {
        let set = RuleSet::compile(&[RuleSpec {
            id: "wp-interp".to_string(),
            severity: "warning".to_string(),
            summary: String::new(),
            message: "query built from an interpolated string".to_string(),
            pack: Some("wordpress".to_string()),
            matcher: MatchSpec::CallWithArg {
                function: "query".to_string(),
                argument: "\"[^\"]*\\$".to_string(),
            },
        }])
        .unwrap();
        let hit = run_set(
            "<?php $wpdb->query(\"SELECT * FROM t WHERE id = $id\");",
            &set,
        );
        assert_eq!(hit.len(), 1);
        assert_eq!(hit[0].rule_id, "WAP-WP-INTERP");
        assert!(hit[0].message.contains("(call to 'query')"));

        let miss = run_set("<?php $wpdb->query('SELECT 1');", &set);
        assert!(miss.is_empty(), "{miss:?}");
    }

    #[test]
    fn call_with_arg_needs_source_text() {
        let set = RuleSet::compile(&[RuleSpec {
            id: "x".to_string(),
            severity: "warning".to_string(),
            summary: String::new(),
            message: "m".to_string(),
            pack: None,
            matcher: MatchSpec::CallWithArg {
                function: "query".to_string(),
                argument: ".".to_string(),
            },
        }])
        .unwrap();
        assert!(set.needs_source());
        let src = "<?php $wpdb->query(\"x $id\");";
        let cfgs = lower_program(&parse(src).expect("parse"));
        assert!(set.run("t.php", &cfgs, None).is_empty());
    }

    #[test]
    fn statement_pattern_with_metavariable_and_where() {
        let set = RuleSet::compile(&[RuleSpec {
            id: "echo-get".to_string(),
            severity: "error".to_string(),
            summary: String::new(),
            message: "raw superglobal echoed".to_string(),
            pack: None,
            matcher: MatchSpec::Pattern {
                pattern: "echo $X".to_string(),
                constraints: vec![("X".to_string(), "^\\$_(GET|POST)\\[".to_string())],
            },
        }])
        .unwrap();
        let hit = run_set("<?php echo $_GET['q'];", &set);
        assert_eq!(hit.len(), 1);
        assert_eq!(hit[0].rule_id, "WAP-ECHO-GET");
        assert_eq!(hit[0].message, "raw superglobal echoed");

        let miss = run_set("<?php echo $safe;", &set);
        assert!(miss.is_empty(), "{miss:?}");
    }

    #[test]
    fn repeated_metavariables_must_bind_equal_text() {
        let set = RuleSet::compile(&[RuleSpec {
            id: "self-concat".to_string(),
            severity: "note".to_string(),
            summary: String::new(),
            message: "x = x . ...".to_string(),
            pack: None,
            matcher: MatchSpec::Pattern {
                pattern: "$X = $X .".to_string(),
                constraints: Vec::new(),
            },
        }])
        .unwrap();
        assert_eq!(run_set("<?php $a = $a . $b;", &set).len(), 1);
        assert!(run_set("<?php $a = $c . $b;", &set).is_empty());
    }

    #[test]
    fn pattern_gap_spans_arbitrary_text() {
        let set = RuleSet::compile(&[RuleSpec {
            id: "md5-pw".to_string(),
            severity: "warning".to_string(),
            summary: String::new(),
            message: "weak hash over a password".to_string(),
            pack: None,
            matcher: MatchSpec::Pattern {
                pattern: "md5( ... password ... )".to_string(),
                constraints: Vec::new(),
            },
        }])
        .unwrap();
        assert_eq!(run_set("<?php $h = md5($salt . $password);", &set).len(), 1);
        assert!(run_set("<?php $h = md5($salt);", &set).is_empty());
    }

    /// `set` with every pattern's literal prefilter switched off.
    fn without_prefilter(set: &RuleSet) -> RuleSet {
        let mut set = set.clone();
        for rule in &mut set.rules {
            if let CompiledMatcher::Pattern { pattern } = &mut rule.matcher {
                pattern.literal = None;
            }
        }
        set
    }

    #[test]
    fn literal_prefilter_never_changes_findings() {
        // the statement patterns of the `wordpress` and `generic-php`
        // packs, plus one with no literal at all
        let specs: Vec<RuleSpec> = [
            (
                "wp-unvalidated-extract",
                "extract( $X )",
                r"^\$_(GET|POST|REQUEST)",
            ),
            ("gp-tainted-query", "mysql_query( $X )", "tainted($X)"),
            ("gp-constant-eval", "eval( $X )", "const($X)"),
            ("any-get", "$X", r"^\$_GET"),
        ]
        .into_iter()
        .map(|(id, pattern, constraint)| RuleSpec {
            id: id.to_string(),
            severity: "warning".to_string(),
            summary: String::new(),
            message: id.to_string(),
            pack: None,
            matcher: MatchSpec::Pattern {
                pattern: pattern.to_string(),
                constraints: vec![("X".to_string(), constraint.to_string())],
            },
        })
        .collect();
        let set = RuleSet::compile(&specs).unwrap();
        let literals: Vec<Option<&str>> = set
            .rules
            .iter()
            .map(|r| match &r.matcher {
                CompiledMatcher::Pattern { pattern } => pattern.literal.as_deref(),
                _ => unreachable!("pattern rules only"),
            })
            .collect();
        assert_eq!(
            literals,
            [Some("extract("), Some("mysql_query("), Some("eval("), None]
        );

        let src = "<?php\nextract(\n $_REQUEST\n);\nextract(\t$_POST);\nextract(     $_GET   );\n\
                   extract ( $_GET );\nextract($safe);\nmysql_query(\n\t$_GET['q']);\n\
                   mysql_query('SELECT 1');\neval(   'return 1;'  );\neval($code);\n\
                   echo $_GET['x'];\n$y = 1;\n";
        let with = run_set(src, &set);
        assert_eq!(with, run_set(src, &without_prefilter(&set)));
        let fired = |id: &str| with.iter().filter(|f| f.rule_id.ends_with(id)).count();
        // the three split `extract(` calls; `extract (` matches neither way
        assert_eq!(fired("WP-UNVALIDATED-EXTRACT"), 3, "{with:?}");
        assert_eq!(fired("GP-TAINTED-QUERY"), 1, "{with:?}");
        assert_eq!(fired("GP-CONSTANT-EVAL"), 1, "{with:?}");
        assert_eq!(fired("ANY-GET"), 4, "{with:?}");
    }

    fn pattern_rule(pattern: &str, constraint: &str) -> RuleSet {
        RuleSet::compile(&[RuleSpec {
            id: "pred".to_string(),
            severity: "warning".to_string(),
            summary: String::new(),
            message: "predicate rule matched".to_string(),
            pack: None,
            matcher: MatchSpec::Pattern {
                pattern: pattern.to_string(),
                constraints: vec![("X".to_string(), constraint.to_string())],
            },
        }])
        .unwrap()
    }

    fn run_with(src: &str, set: &RuleSet, facts: &FileFacts<'_>) -> Vec<LintFinding> {
        let cfgs = lower_program(&parse(src).expect("parse"));
        set.run_with_facts("test.php", &cfgs, Some(src), facts)
    }

    #[test]
    fn tainted_predicate_fires_on_superglobals_without_facts() {
        let set = pattern_rule("query_db( $X )", "tainted($X)");
        assert!(set.needs_facts());
        assert_eq!(run_set("<?php query_db($_GET['id']);", &set).len(), 1);
        assert!(run_set("<?php query_db('SELECT 1');", &set).is_empty());
        assert!(run_set("<?php query_db($id);", &set).is_empty());
    }

    #[test]
    fn tainted_predicate_consumes_taint_carrier_facts() {
        let set = pattern_rule("query_db( $X )", "tainted");
        let mut tainted = BTreeSet::new();
        tainted.insert("id".to_string());
        let facts = FileFacts {
            tainted_vars: Some(&tainted),
            values: None,
        };
        assert_eq!(run_with("<?php query_db($id);", &set, &facts).len(), 1);
        assert!(run_with("<?php query_db($other);", &set, &facts).is_empty());
    }

    #[test]
    fn const_predicate_accepts_literals_and_proven_values() {
        let set = pattern_rule("query_db( $X )", "const($X)");
        // literals prove const-ness with no facts at all
        assert_eq!(run_set("<?php query_db('SELECT 1');", &set).len(), 1);
        assert_eq!(run_set("<?php query_db(42);", &set).len(), 1);
        // a bare variable needs the value analysis to prove it
        let src = "<?php $q = 'SELECT 1'; query_db($q);";
        assert!(run_set(src, &set).is_empty());
        let program = parse(src).unwrap();
        let fv = crate::values::analyze_file_values(
            "test.php",
            &program,
            &std::collections::HashMap::new(),
            &crate::values::ScanSet::default(),
        );
        let facts = FileFacts {
            tainted_vars: None,
            values: Some(&fv),
        };
        assert_eq!(run_with(src, &set, &facts).len(), 1);
        // and stays silent when the value is unknown
        assert!(run_with("<?php $q = f(); query_db($q);", &set, &facts).is_empty());
    }

    #[test]
    fn not_const_predicate_negates() {
        let set = pattern_rule("query_db( $X )", "!const($X)");
        assert!(run_set("<?php query_db('SELECT 1');", &set).is_empty());
        assert_eq!(run_set("<?php query_db($q);", &set).len(), 1);
    }

    #[test]
    fn matches_value_predicate_resolves_through_values() {
        let set = pattern_rule("query_db( $X )", "matches-value($X, ^SELECT )");
        assert_eq!(run_set("<?php query_db('SELECT 1');", &set).len(), 1);
        assert!(run_set("<?php query_db('DELETE 1');", &set).is_empty());
        let src = "<?php $q = 'SELECT ' . $cols; query_db($q);";
        let program = parse(src).unwrap();
        let fv = crate::values::analyze_file_values(
            "test.php",
            &program,
            &std::collections::HashMap::new(),
            &crate::values::ScanSet::default(),
        );
        let facts = FileFacts {
            tainted_vars: None,
            values: Some(&fv),
        };
        // prefix-only value: not exactly known, so no match
        assert!(run_with(src, &set, &facts).is_empty());
        let src = "<?php $q = 'SELECT 1'; query_db($q);";
        let program = parse(src).unwrap();
        let fv = crate::values::analyze_file_values(
            "test.php",
            &program,
            &std::collections::HashMap::new(),
            &crate::values::ScanSet::default(),
        );
        let facts = FileFacts {
            tainted_vars: None,
            values: Some(&fv),
        };
        assert_eq!(run_with(src, &set, &facts).len(), 1);
    }

    #[test]
    fn predicate_chain_requires_every_term() {
        let set = pattern_rule("echo $X", "tainted($X) and !const($X)");
        assert!(set.needs_facts());
        assert_eq!(run_set("<?php echo $_GET['q'];", &set).len(), 1);
        assert!(run_set("<?php echo $x;", &set).is_empty());
    }

    #[test]
    fn unrecognized_terms_stay_regex_constraints() {
        // looks nothing like a predicate: plain regex, historical path
        let set = pattern_rule("echo $X", "^\\$_(GET|POST)\\[");
        assert!(!set.needs_facts());
        assert_eq!(run_set("<?php echo $_GET['q'];", &set).len(), 1);
        // one unrecognized term keeps the WHOLE expression a regex
        let set = pattern_rule("echo $X", "GET and POST");
        assert!(!set.needs_facts());
        assert!(run_set("<?php echo $_GET['q'];", &set).is_empty());
    }

    #[test]
    fn predicate_naming_wrong_metavariable_is_rejected() {
        let err = RuleSet::compile(&[RuleSpec {
            id: "typo".to_string(),
            severity: "warning".to_string(),
            summary: String::new(),
            message: String::new(),
            pack: None,
            matcher: MatchSpec::Pattern {
                pattern: "echo $X".to_string(),
                constraints: vec![("X".to_string(), "tainted($Y)".to_string())],
            },
        }])
        .unwrap_err();
        assert!(err.message.contains("$X"), "{err}");
    }

    #[test]
    fn compile_rejects_bad_patterns() {
        let bad = RuleSpec {
            id: "bad".to_string(),
            severity: "warning".to_string(),
            summary: String::new(),
            message: String::new(),
            pack: None,
            matcher: MatchSpec::CallWithArg {
                function: "f".to_string(),
                argument: "[unclosed".to_string(),
            },
        };
        let err = RuleSet::compile(&[bad]).unwrap_err();
        assert_eq!(err.rule, "bad");
        assert!(err.message.contains("unclosed"));

        let unbound = RuleSpec {
            id: "unbound".to_string(),
            severity: "warning".to_string(),
            summary: String::new(),
            message: String::new(),
            pack: None,
            matcher: MatchSpec::Pattern {
                pattern: "echo $X".to_string(),
                constraints: vec![("Y".to_string(), ".".to_string())],
            },
        };
        assert!(RuleSet::compile(&[unbound]).is_err());
    }

    #[test]
    fn rule_table_is_sorted_and_deduped() {
        let mut specs = builtin_specs(Vec::new());
        specs.push(RuleSpec::legacy("zzz", "forbid_call", "f", "warning", "m"));
        specs.push(RuleSpec::legacy("zzz", "forbid_call", "f", "warning", "m"));
        let table = RuleSet::compile(&specs).unwrap().rule_table();
        assert_eq!(table.len(), 6);
        let ids: Vec<&str> = table.iter().map(|r| r.id.as_str()).collect();
        let mut sorted = ids.clone();
        sorted.sort();
        assert_eq!(ids, sorted);
        assert_eq!(table.last().unwrap().id, "WAP-ZZZ");
    }

    #[test]
    fn builtin_table_matches_the_historical_rules() {
        let table = RuleSet::builtin(Vec::new()).rule_table();
        assert_eq!(table, crate::lint::builtin_rules());
    }

    #[test]
    fn regex_lite_semantics() {
        let m = |p: &str, t: &str| Pattern::compile(p).unwrap().search(t);
        assert!(m("abc", "xxabcxx"));
        assert!(!m("abc", "ab"));
        assert!(m("^ab", "abc"));
        assert!(!m("^bc", "abc"));
        assert!(m("bc$", "abc"));
        assert!(!m("ab$", "abc"));
        assert!(m("a.c", "abc"));
        assert!(m("a[bx]c", "abc"));
        assert!(!m("a[^bx]c", "abc"));
        assert!(m("a[0-9]+c", "a123c"));
        assert!(!m("a[0-9]+c", "ac"));
        assert!(m("a[0-9]*c", "ac"));
        assert!(m("colou?r", "color"));
        assert!(m("colou?r", "colour"));
        assert!(m("cat|dog", "hotdog"));
        assert!(m("(ab)+c", "ababc"));
        assert!(m("\\$\\w+", "echo $id"));
        assert!(m("\\d\\d", "a42b"));
        assert!(!m("\\s", "abc"));
        assert!(Pattern::compile("a(b").is_err());
        assert!(Pattern::compile("*a").is_err());
        assert!(Pattern::compile("a\\").is_err());
    }

    #[test]
    fn unknown_severity_defaults_to_warning() {
        let set =
            RuleSet::compile(&[RuleSpec::legacy("x", "forbid_call", "f", "bogus", "m")]).unwrap();
        assert_eq!(set.rules()[0].severity, Severity::Warning);
    }
}
