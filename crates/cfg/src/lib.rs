//! # wap-cfg — control-flow graphs and guard analysis for the wap pipeline
//!
//! The taint engine is deliberately flow-insensitive: validation guards
//! like `is_numeric`/`preg_match` never stop taint, exactly the blind spot
//! the paper's data-mining committee papers over. This crate adds real
//! control-flow facts on the side:
//!
//! * [`lower_program`] lowers each parsed PHP function body and the
//!   top-level script into a [`Cfg`] of basic blocks connected by branch,
//!   loop, and try edges ([`graph`]).
//! * One forward gen/kill bitset solver, a worklist over a [`Cfg`] with
//!   a union or an intersection meet and optional per-edge gen sets,
//!   is the crate's only fixpoint (`dataflow`).
//! * [`GuardAnalysis`] answers "did a validation guard on the tainted
//!   variable necessarily run before this sink, with no redefinition
//!   since?" for the known validators (`is_numeric`, `is_int`,
//!   `preg_match`, `in_array`, cast guards, ...) with two instances of
//!   that solver: guard-edge facts (must) and sanitizing-def kinds (may)
//!   ([`guard`]).
//! * [`RuleSet`] hosts the unified rule engine ([`rules`]): builtin
//!   lints (unguarded sinks, unreachable code after exit,
//!   assignment-in-condition, tainted-sink-without-dominating-guard),
//!   weapon-declared rules, and installed pack rules all compile from
//!   one [`RuleSpec`] schema — call matchers, call-with-argument
//!   regex-lite constraints, statement patterns with metavariables —
//!   producing deterministic, sorted [`LintFinding`]s ([`lint`] holds
//!   the data model).
//!
//! Like the rest of the workspace's analysis core, this crate is
//! dependency-free apart from `wap-php` (the AST it lowers).
//!
//! ## Quick start
//!
//! ```
//! use wap_cfg::{lower_program, GuardAnalysis};
//! use wap_php::parse;
//!
//! let p = parse(
//!     "<?php
//!      $id = $_GET['id'];
//!      if (!is_numeric($id)) { exit; }
//!      mysql_query(\"SELECT * FROM t WHERE id = $id\");",
//! )?;
//! let cfgs = lower_program(&p);
//! let sink = cfgs.find_call("mysql_query").expect("sink call");
//! let guards = cfgs.dominating_guards(sink, &["id".into()]);
//! assert_eq!(guards[0].validator, "is_numeric");
//! # Ok::<(), wap_php::ParseError>(())
//! ```

#![warn(missing_docs)]

mod dataflow;
pub mod graph;
pub mod guard;
pub mod lint;
pub mod rules;
pub mod values;

pub use graph::{lower_program, lower_stmts, Block, BlockId, Cfg, Edge, FileCfgs, Guard, Node};
pub use guard::{GuardAnalysis, GuardFact};
pub use lint::{
    builtin_rules, normalize_rule_id, sort_findings, LintFinding, LintRule, Severity, SinkEvent,
    RULE_ASSIGN_IN_COND, RULE_TAINTED_SINK, RULE_UNGUARDED_SINK, RULE_UNREACHABLE,
    RULE_UNRESOLVED_INCLUDE,
};
pub use rules::{
    builtin_specs, CompiledRule, FileFacts, MatchSpec, Pattern, RuleError, RuleSet, RuleSpec,
};
pub use values::{
    analyze_file_values, dynamic_include_sites, summarize_values, AbstractValue, FileValues,
    ScanSet, SinkContext, ValueResolution, ValueSummary,
};
