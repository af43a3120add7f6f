//! Guard analysis: two instances of the one dataflow solver.
//!
//! A sink is *guarded* on variable `$v` when either
//!
//! 1. every path from the entry to the sink takes some CFG edge carrying
//!    a guard on `$v` (e.g. the true edge of `is_numeric($v)`, or the
//!    false edge of `!is_numeric($v)`), and `$v` is not redefined after
//!    the last such edge; or
//! 2. every definition of `$v` that may reach the sink is itself
//!    sanitizing — an `(int)`/`(float)`/`(bool)` cast or an
//!    `intval`-family conversion.
//!
//! Condition 1 is a must (∩) problem over guard-edge facts, condition 2
//! a may (∪) problem over the kinds of reaching defs; [`GuardAnalysis`]
//! solves both once per graph with the crate's one dataflow solver. A guard fact
//! lives on an edge that is its target's only in-edge, so re-entering the
//! target (around a loop, say) re-validates the variable.

use crate::dataflow::{solve, Meet};
use crate::graph::{BlockId, Cfg, Guard, Node};
use std::collections::{HashMap, HashSet};
use wap_php::ast::Expr;
use wap_php::Symbol;

/// A proven "validator dominates this program point" fact.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct GuardFact {
    /// The guarded variable (without `$`).
    pub var: Symbol,
    /// Lower-cased validator establishing the guard (`is_numeric`,
    /// `preg_match`, `in_array`, `cast_int`, `intval`, ...).
    pub validator: Symbol,
}

/// Validators whose truthiness checks their **first** argument.
const ARG0_VALIDATORS: &[&str] = &[
    "is_numeric",
    "is_int",
    "is_integer",
    "is_long",
    "is_float",
    "is_double",
    "is_real",
    "is_bool",
    "is_scalar",
    "ctype_digit",
    "ctype_alpha",
    "ctype_alnum",
    "in_array",
];

/// Validators whose truthiness checks their **second** argument
/// (`preg_match($pattern, $subject)`).
const ARG1_VALIDATORS: &[&str] = &["preg_match", "preg_match_all"];

/// Recognizes a call to a known validator and extracts the guarded
/// variable. Function-name matching is case-insensitive, like PHP.
pub(crate) fn validator_call(name: Symbol, args: &[Expr]) -> Option<Guard> {
    let lower = name.lower();
    let arg = if ARG0_VALIDATORS.contains(&lower.as_str()) {
        args.first()
    } else if ARG1_VALIDATORS.contains(&lower.as_str()) {
        args.get(1)
    } else {
        return None;
    }?;
    let var = arg.root_var_symbol()?;
    Some(Guard {
        var,
        validator: lower,
    })
}

/// Whether an expression is a call to a known validator (any position).
/// Used by consumers that only need a yes/no classification.
pub fn is_validator_name(name: &str) -> bool {
    let lower = name.to_ascii_lowercase();
    ARG0_VALIDATORS.contains(&lower.as_str()) || ARG1_VALIDATORS.contains(&lower.as_str())
}

/// Per-function guard analysis: the guard-edge and sanitizing-def
/// instances of the dataflow solver, solved once over one CFG.
#[derive(Debug)]
pub struct GuardAnalysis<'c> {
    cfg: &'c Cfg,
    /// Must: guard edges every path to a point takes, with no def of the
    /// guarded variable since.
    edges: Facts,
    /// May: the kind of every def that may reach a point, for variables
    /// with at least one sanitizing def.
    defs: Facts,
}

impl<'c> GuardAnalysis<'c> {
    /// Builds the analysis for `cfg` (solves both instances once; queries
    /// then replay only the queried block).
    pub fn new(cfg: &'c Cfg) -> GuardAnalysis<'c> {
        // guard-edge facts: one per (edge, guard) on an edge that is its
        // target's only in-edge, generated on that edge
        let mut edge_facts = Vec::new();
        let mut fact_edges = Vec::new();
        for (edge, e) in cfg.blocks.iter().flat_map(|b| &b.succs).enumerate() {
            if cfg.blocks[e.to].preds.len() == 1 {
                for g in &e.guards {
                    edge_facts.push((g.var, Some(g.validator)));
                    fact_edges.push(edge);
                }
            }
        }
        let edges = Facts::new(cfg, Meet::Intersect, edge_facts, &fact_edges);

        // def-kind facts: one per (var, kind) of a def, plain or the
        // node's sanitizing validator, for variables that are sanitized
        // somewhere (any other variable is never guarded by its defs)
        let nodes = || cfg.blocks.iter().flat_map(|b| &b.nodes);
        let sanitized: HashSet<Symbol> = nodes()
            .flat_map(|n| n.guard_defs.iter().map(|&(v, _)| v))
            .collect();
        let mut def_facts = Vec::new();
        for n in nodes() {
            for &v in n.defs.iter().filter(|v| sanitized.contains(v)) {
                let fact = (v, def_kind(n, v));
                if !def_facts.contains(&fact) {
                    def_facts.push(fact);
                }
            }
        }
        let defs = Facts::new(cfg, Meet::Union, def_facts, &[]);

        GuardAnalysis { cfg, edges, defs }
    }

    /// All guards on any of `vars` proven to hold at node
    /// `(block, node)`. Deterministically sorted by `(var, validator)`.
    pub fn guards_at(&self, block: BlockId, node: usize, vars: &[Symbol]) -> Vec<GuardFact> {
        let mut out: Vec<GuardFact> = Vec::new();
        // condition 1: a guard edge every path takes, not redefined since
        for (var, validator) in self.edges.holding(self.cfg, block, node) {
            if vars.contains(&var) {
                out.extend(validator.map(|validator| GuardFact { var, validator }));
            }
        }
        // condition 2: every reaching def is itself sanitizing
        let kinds = self.defs.holding(self.cfg, block, node);
        for &var in vars {
            let reaching: Option<Vec<Symbol>> = kinds
                .iter()
                .filter(|(v, _)| *v == var)
                .map(|&(_, kind)| kind)
                .collect();
            for validator in reaching.unwrap_or_default() {
                out.push(GuardFact { var, validator });
            }
        }
        out.sort();
        out.dedup();
        out
    }
}

/// The kind of `node`'s def of `var`: its first sanitizing validator, or
/// `None` for a plain def.
fn def_kind(node: &Node, var: Symbol) -> Option<Symbol> {
    node.guard_defs
        .iter()
        .find(|(v, _)| *v == var)
        .map(|&(_, g)| g)
}

fn set(bits: &mut [u64], i: usize) {
    bits[i / 64] |= 1 << (i % 64);
}

/// One solved instance: what each fact bit says, the per-variable kill
/// masks, and the block-entry facts.
#[derive(Debug)]
struct Facts {
    /// `(var, validator)` per bit; `None` marks a plain def.
    bits: Vec<(Symbol, Option<Symbol>)>,
    /// Per variable: the bits a def of it kills.
    kill: HashMap<Symbol, Vec<u64>>,
    /// Per `(var, kind)`: the bit a def of that kind generates (empty
    /// when facts come from edges).
    gen: HashMap<(Symbol, Option<Symbol>), usize>,
    /// Block-entry facts, `words` per block.
    ins: Vec<u64>,
}

impl Facts {
    /// Solves the instance whose facts are `bits`. When `fact_edges` is
    /// empty, defs generate their own facts; otherwise fact `i` is
    /// generated on edge `fact_edges[i]`.
    fn new(
        cfg: &Cfg,
        meet: Meet,
        bits: Vec<(Symbol, Option<Symbol>)>,
        fact_edges: &[usize],
    ) -> Facts {
        let w = bits.len().div_ceil(64);
        let mut facts = Facts {
            kill: HashMap::new(),
            gen: HashMap::new(),
            ins: Vec::new(),
            bits,
        };
        for (i, &fact) in facts.bits.iter().enumerate() {
            set(facts.kill.entry(fact.0).or_insert_with(|| vec![0; w]), i);
            if fact_edges.is_empty() {
                facts.gen.insert(fact, i);
            }
        }
        let edges: usize = match fact_edges {
            [] => 0,
            _ => cfg.blocks.iter().map(|b| b.succs.len()).sum(),
        };
        let mut edge_gen = vec![0; edges * w];
        for (i, &edge) in fact_edges.iter().enumerate() {
            set(&mut edge_gen[edge * w..], i);
        }
        let (mut gen, mut kill) = (vec![0; cfg.blocks.len() * w], vec![0; cfg.blocks.len() * w]);
        for (b, block) in cfg.blocks.iter().enumerate() {
            let (g, k) = (&mut gen[b * w..(b + 1) * w], &mut kill[b * w..(b + 1) * w]);
            for node in &block.nodes {
                facts.step(g, k, node);
            }
        }
        facts.ins = solve(cfg, meet, w, &gen, &kill, &edge_gen);
        facts
    }

    /// Applies `node` to `state`: each def kills its variable's facts,
    /// then generates its own kind when this instance tracks defs. Kills
    /// are also collected into `kill`.
    fn step(&self, state: &mut [u64], kill: &mut [u64], node: &Node) {
        for &var in &node.defs {
            let Some(mask) = self.kill.get(&var) else {
                continue;
            };
            for ((s, k), m) in state.iter_mut().zip(kill.iter_mut()).zip(mask) {
                *s &= !m;
                *k |= m;
            }
            if let Some(&i) = self.gen.get(&(var, def_kind(node, var))) {
                set(state, i);
            }
        }
    }

    /// The facts holding at the start of node `(block, node)`: the block's
    /// entry facts replayed through its earlier nodes.
    fn holding(&self, cfg: &Cfg, block: BlockId, node: usize) -> Vec<(Symbol, Option<Symbol>)> {
        if self.bits.is_empty() {
            return Vec::new();
        }
        let w = self.bits.len().div_ceil(64);
        let mut state = self.ins[block * w..(block + 1) * w].to_vec();
        let mut kill = vec![0; w];
        for n in cfg.blocks[block].nodes.iter().take(node) {
            self.step(&mut state, &mut kill, n);
        }
        self.bits
            .iter()
            .enumerate()
            .filter(|(i, _)| state[i / 64] & (1 << (i % 64)) != 0)
            .map(|(_, &f)| f)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::lower_program;
    use wap_php::parse;

    fn guards(src: &str, sink: &str, vars: &[&str]) -> Vec<GuardFact> {
        let f = lower_program(&parse(src).expect("parse"));
        let span = f.find_call(sink).expect("sink call present");
        let syms: Vec<Symbol> = vars.iter().map(|v| Symbol::intern(v)).collect();
        f.dominating_guards(span, &syms)
    }

    /// Guard validators on `var` at every call to `sink`, in source order.
    fn guards_each(src: &str, sink: &str, var: &str) -> Vec<Vec<&'static str>> {
        let f = lower_program(&parse(src).expect("parse"));
        let mut spans: Vec<_> = f
            .cfgs
            .iter()
            .flat_map(|c| c.blocks.iter().flat_map(|b| b.nodes.iter()))
            .flat_map(|n| n.calls.iter())
            .filter(|c| c.name.as_str() == sink)
            .map(|c| c.span)
            .collect();
        spans.sort_by_key(|s| s.start());
        spans
            .into_iter()
            .map(|span| {
                f.dominating_guards(span, &[Symbol::intern(var)])
                    .into_iter()
                    .map(|g| g.validator.as_str())
                    .collect()
            })
            .collect()
    }

    #[test]
    fn positive_guard_dominates_then_branch() {
        let g = guards(
            "<?php $id = $_GET['id']; if (is_numeric($id)) { mysql_query($id); }",
            "mysql_query",
            &["id"],
        );
        assert_eq!(g.len(), 1);
        assert_eq!(g[0].validator, "is_numeric");
        assert_eq!(g[0].var, "id");
    }

    #[test]
    fn negated_guard_with_exit_dominates_continuation() {
        let g = guards(
            "<?php $id = $_GET['id']; if (!is_numeric($id)) { exit; } mysql_query($id);",
            "mysql_query",
            &["id"],
        );
        assert_eq!(g.len(), 1, "false-edge guard must dominate the sink");
        assert_eq!(g[0].validator, "is_numeric");
    }

    #[test]
    fn unguarded_sink_yields_nothing() {
        let g = guards(
            "<?php $id = $_GET['id']; mysql_query($id);",
            "mysql_query",
            &["id"],
        );
        assert!(g.is_empty());
    }

    #[test]
    fn guard_on_one_branch_only_does_not_dominate() {
        let g = guards(
            "<?php if ($c) { if (!is_numeric($id)) { exit; } } mysql_query($id);",
            "mysql_query",
            &["id"],
        );
        assert!(g.is_empty(), "guard inside one arm must not dominate");
        // the same guard in both arms: neither edge is on every path
        let g = guards(
            "<?php if ($c) { if (!is_numeric($x)) { exit; } }
             else { if (!is_numeric($x)) { exit; } }
             mysql_query($x);",
            "mysql_query",
            &["x"],
        );
        assert!(g.is_empty(), "{g:?}");
    }

    #[test]
    fn redefinition_after_guard_invalidates_it() {
        let g = guards(
            "<?php if (!is_numeric($id)) { exit; } $id = $_GET['id']; mysql_query($id);",
            "mysql_query",
            &["id"],
        );
        assert!(g.is_empty(), "redef between guard and sink kills the guard");
    }

    #[test]
    fn sanitizing_cast_guards_without_a_branch() {
        let g = guards(
            "<?php $id = (int)$_GET['id']; mysql_query($id);",
            "mysql_query",
            &["id"],
        );
        assert_eq!(g.len(), 1);
        assert_eq!(g[0].validator, "cast_int");
    }

    #[test]
    fn intval_def_guards() {
        let g = guards(
            "<?php $n = intval($_POST['n']); mysql_query($n);",
            "mysql_query",
            &["n"],
        );
        assert_eq!(g.len(), 1);
        assert_eq!(g[0].validator, "intval");
    }

    #[test]
    fn mixed_defs_do_not_guard() {
        let g = guards(
            "<?php if ($c) { $id = intval($x); } else { $id = $_GET['id']; } mysql_query($id);",
            "mysql_query",
            &["id"],
        );
        assert!(g.is_empty());
        let g = guards(
            "<?php $id = (int)$a; if ($c) { $id = $_GET['id']; } mysql_query($id);",
            "mysql_query",
            &["id"],
        );
        assert!(g.is_empty(), "a plain def on one path reaches: {g:?}");
    }

    #[test]
    fn preg_match_guard_on_subject() {
        let g = guards(
            "<?php if (!preg_match('/^[a-z]+$/', $name)) { die('bad'); } mysql_query($name);",
            "mysql_query",
            &["name"],
        );
        assert_eq!(g.len(), 1);
        assert_eq!(g[0].validator, "preg_match");
        assert_eq!(g[0].var, "name");
    }

    #[test]
    fn in_array_guard_on_first_arg() {
        let g = guards(
            "<?php if (in_array($col, array('a','b'))) { mysql_query($col); }",
            "mysql_query",
            &["col"],
        );
        assert_eq!(g.len(), 1);
        assert_eq!(g[0].validator, "in_array");
    }

    #[test]
    fn guard_inside_loop_body_applies_to_loop_sink() {
        let g = guards(
            "<?php foreach ($ids as $id) { if (!is_int($id)) { continue; } mysql_query($id); }",
            "mysql_query",
            &["id"],
        );
        assert_eq!(g.len(), 1, "continue-guard dominates the rest of the body");
        assert_eq!(g[0].validator, "is_int");
    }

    #[test]
    fn multiple_vars_report_only_guarded_ones() {
        let g = guards(
            "<?php if (!is_numeric($a)) { exit; } mysql_query($a . $b);",
            "mysql_query",
            &["a", "b"],
        );
        assert_eq!(g.len(), 1);
        assert_eq!(g[0].var, "a");
    }

    #[test]
    fn entry_guard_covers_every_reachable_sink() {
        let g = guards_each(
            "<?php if (!is_numeric($x)) { exit; }
             if ($c) { mysql_query($x); } else { mysql_query($x); }
             while ($d) { mysql_query($x); }
             mysql_query($x);",
            "mysql_query",
            "x",
        );
        assert_eq!(g, vec![vec!["is_numeric"]; 4]);
    }

    #[test]
    fn branch_arm_guards_cover_their_arm_not_the_join() {
        let g = guards_each(
            "<?php if (is_int($x)) { mysql_query($x); } else { mysql_query($x); } mysql_query($x);",
            "mysql_query",
            "x",
        );
        assert_eq!(g, vec![vec!["is_int"], vec![], vec![]]);
    }

    #[test]
    fn loop_head_guards_cover_body_and_exit() {
        let g = guards_each(
            "<?php while (is_numeric($x)) { mysql_query($x); } mysql_query($x);",
            "mysql_query",
            "x",
        );
        assert_eq!(g, vec![vec!["is_numeric"], vec![]]);
        // the loop exit edge of a negated test carries the guard
        let g = guards_each(
            "<?php while (!is_numeric($x)) { $x = next_id(); } mysql_query($x);",
            "mysql_query",
            "x",
        );
        assert_eq!(g, vec![vec!["is_numeric"]]);
    }

    #[test]
    fn loop_redefinition_after_the_sink_kills_the_guard() {
        // a guard before a loop covers a sink inside it ...
        let g = guards(
            "<?php if (!is_numeric($x)) { exit; } while ($c) { mysql_query($x); $y = 1; }",
            "mysql_query",
            &["x"],
        );
        assert_eq!(g.len(), 1, "{g:?}");
        assert_eq!(g[0].validator, "is_numeric");
        // ... until `$x` is redefined after the sink: that def flows back
        // to the sink around the loop
        let g = guards(
            "<?php if (!is_numeric($x)) { exit; } while ($c) { mysql_query($x); $x = $_GET['a']; }",
            "mysql_query",
            &["x"],
        );
        assert!(g.is_empty(), "{g:?}");
        // and from a nested block the same way
        let g = guards(
            "<?php if (!is_numeric($x)) { exit; } while ($c) { mysql_query($x); if ($d) { $x = $_GET['a']; } }",
            "mysql_query",
            &["x"],
        );
        assert!(g.is_empty(), "{g:?}");
    }

    #[test]
    fn unreachable_sinks_have_no_edge_guards_but_keep_def_kinds() {
        let g = guards(
            "<?php if (!is_numeric($x)) { exit; } exit; mysql_query($x);",
            "mysql_query",
            &["x"],
        );
        assert!(g.is_empty(), "no path reaches the sink: {g:?}");
        let g = guards(
            "<?php exit; $x = (int)$a; mysql_query($x);",
            "mysql_query",
            &["x"],
        );
        assert_eq!(g.len(), 1, "{g:?}");
        assert_eq!(g[0].validator, "cast_int");
        // a def in dead code still reaches a live join
        let g = guards(
            "<?php $x = (int)$a; if ($c) { exit; $x = $b; } mysql_query($x);",
            "mysql_query",
            &["x"],
        );
        assert!(g.is_empty(), "{g:?}");
    }

    #[test]
    fn later_def_shadows_earlier_in_same_block() {
        let g = guards_each(
            "<?php $x = (int)$a; $x = $b; mysql_query($x); $x = intval($b); mysql_query($x);",
            "mysql_query",
            "x",
        );
        assert_eq!(g, vec![vec![], vec!["intval"]]);
    }

    #[test]
    fn sanitizing_defs_from_both_arms_reach_the_join() {
        let g = guards_each(
            "<?php if ($c) { $x = (int)$a; } else { $x = intval($b); } mysql_query($x);",
            "mysql_query",
            "x",
        );
        assert_eq!(g, vec![vec!["cast_int", "intval"]]);
    }

    #[test]
    fn loop_carried_defs_reach_the_loop_exit() {
        let g = guards(
            "<?php $i = (int)$a; while ($i) { $i = $i - 1; } mysql_query($i);",
            "mysql_query",
            &["i"],
        );
        assert!(g.is_empty(), "the plain loop-carried def reaches: {g:?}");
        let g = guards_each(
            "<?php $i = (int)$a; while ($c) { mysql_query($i); $i = intval($i); } mysql_query($i);",
            "mysql_query",
            "i",
        );
        assert_eq!(g, vec![vec!["cast_int", "intval"]; 2]);
    }

    #[test]
    fn params_are_entry_defs() {
        let g = guards_each(
            "<?php function g($a) { mysql_query($a); if ($c) { $a = (int)$a; } mysql_query($a); $a = (int)$a; mysql_query($a); }",
            "mysql_query",
            "a",
        );
        assert_eq!(g, vec![vec![], vec![], vec!["cast_int"]]);
    }

    #[test]
    fn validator_name_classification() {
        assert!(is_validator_name("is_numeric"));
        assert!(is_validator_name("PREG_MATCH"));
        assert!(!is_validator_name("strlen"));
    }
}
