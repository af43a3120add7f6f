//! Reaching definitions for simple variables.
//!
//! A classic forward gen/kill bitset dataflow: every assignment, `++`,
//! `foreach` binding, catch binding, or parameter is a [`DefSite`]; a def
//! of `$x` kills every other def of `$x`. The fixpoint gives, per block,
//! the set of defs that may reach its entry; [`ReachingDefs::defs_reaching`]
//! then replays the block's own nodes to answer position-precise queries
//! ("which defs of `$id` reach this sink call?").
//!
//! The guard analysis uses two facts from here: whether a variable is
//! redefined between a guard edge and a sink, and whether *every* def
//! reaching a sink is itself sanitizing (an `(int)` cast or `intval`).

use crate::graph::{BlockId, Cfg};
use wap_php::Symbol;

/// One definition site of a simple variable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DefSite {
    /// Block containing the definition.
    pub block: BlockId,
    /// Node index within the block.
    pub node: usize,
    /// Defined variable (without `$`).
    pub var: Symbol,
    /// The validator name when the def is itself sanitizing
    /// (`cast_int`, `intval`, ...); `None` for ordinary assignments.
    pub validator: Option<Symbol>,
}

impl DefSite {
    /// Whether this definition sanitizes the variable by construction.
    pub fn is_guard(&self) -> bool {
        self.validator.is_some()
    }
}

/// The reaching-definitions solution for one [`Cfg`].
#[derive(Debug, Clone)]
pub struct ReachingDefs {
    defs: Vec<DefSite>,
    /// Bitset over `defs` per block: defs that may reach the block entry.
    in_sets: Vec<BitSet>,
}

impl ReachingDefs {
    /// Runs the dataflow to fixpoint over `cfg`.
    pub fn compute(cfg: &Cfg) -> ReachingDefs {
        // enumerate def sites in (block, node, decl-order) order so ids
        // are deterministic
        let mut defs: Vec<DefSite> = Vec::new();
        for (b, block) in cfg.blocks.iter().enumerate() {
            for (i, node) in block.nodes.iter().enumerate() {
                for var in &node.defs {
                    let validator = node
                        .guard_defs
                        .iter()
                        .find(|(v, _)| v == var)
                        .map(|&(_, g)| g);
                    defs.push(DefSite {
                        block: b,
                        node: i,
                        var: *var,
                        validator,
                    });
                }
            }
        }
        let nd = defs.len();
        let nb = cfg.blocks.len();

        // per-block gen/kill: replay nodes in order so later defs of the
        // same variable shadow earlier ones within the block
        let mut gen_sets = vec![BitSet::new(nd); nb];
        let mut kill_sets = vec![BitSet::new(nd); nb];
        for b in 0..nb {
            for (d, def) in defs.iter().enumerate() {
                if def.block != b {
                    continue;
                }
                // kill every other def of the same variable
                for (other, odef) in defs.iter().enumerate() {
                    if other != d && odef.var == def.var {
                        kill_sets[b].insert(other);
                        gen_sets[b].remove(other);
                    }
                }
                gen_sets[b].insert(d);
            }
        }

        let mut in_sets = vec![BitSet::new(nd); nb];
        let mut out_sets: Vec<BitSet> = (0..nb)
            .map(|b| {
                let mut o = in_sets[b].clone();
                o.subtract(&kill_sets[b]);
                o.union(&gen_sets[b]);
                o
            })
            .collect();

        let mut changed = true;
        while changed {
            changed = false;
            for b in 0..nb {
                let mut inb = BitSet::new(nd);
                for &p in &cfg.blocks[b].preds {
                    inb.union(&out_sets[p]);
                }
                if inb != in_sets[b] {
                    in_sets[b] = inb.clone();
                    let mut o = inb;
                    o.subtract(&kill_sets[b]);
                    o.union(&gen_sets[b]);
                    if o != out_sets[b] {
                        out_sets[b] = o;
                    }
                    changed = true;
                }
            }
        }

        ReachingDefs { defs, in_sets }
    }

    /// All definition sites, in deterministic (block, node) order.
    pub fn defs(&self) -> &[DefSite] {
        &self.defs
    }

    /// Definitions of `var` that may reach the *start* of node
    /// `(block, node)` — block-entry facts replayed through the block's
    /// earlier nodes.
    pub fn defs_reaching(
        &self,
        cfg: &Cfg,
        block: BlockId,
        node: usize,
        var: Symbol,
    ) -> Vec<&DefSite> {
        let mut live: Vec<usize> = self
            .in_sets
            .get(block)
            .map(|s| {
                (0..self.defs.len())
                    .filter(|&d| s.contains(d) && self.defs[d].var == var)
                    .collect()
            })
            .unwrap_or_default();
        // replay nodes before `node` in this block
        for (i, n) in cfg.blocks[block].nodes.iter().enumerate() {
            if i >= node {
                break;
            }
            if n.defs.contains(&var) {
                live.clear();
                // the last def of `var` in this node wins
                if let Some(d) = self
                    .defs
                    .iter()
                    .rposition(|def| def.block == block && def.node == i && def.var == var)
                {
                    live.push(d);
                }
            }
        }
        live.into_iter().map(|d| &self.defs[d]).collect()
    }
}

/// A small growable bitset over `u64` words.
#[derive(Debug, Clone, PartialEq, Eq)]
struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    fn new(bits: usize) -> BitSet {
        BitSet {
            words: vec![0; bits.div_ceil(64)],
        }
    }

    fn insert(&mut self, i: usize) {
        self.words[i / 64] |= 1 << (i % 64);
    }

    fn remove(&mut self, i: usize) {
        self.words[i / 64] &= !(1 << (i % 64));
    }

    fn contains(&self, i: usize) -> bool {
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    fn union(&mut self, other: &BitSet) {
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w |= o;
        }
    }

    fn subtract(&mut self, other: &BitSet) {
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w &= !o;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::lower_program;
    use wap_php::parse;

    fn solved(src: &str) -> (crate::graph::FileCfgs, ReachingDefs) {
        let f = lower_program(&parse(src).expect("parse"));
        let rd = ReachingDefs::compute(&f.cfgs[0]);
        (f, rd)
    }

    #[test]
    fn later_def_shadows_earlier_in_same_block() {
        let (f, rd) = solved("<?php $x = 1; $x = 2; mysql_query($x);");
        let top = &f.cfgs[0];
        let (b, i) = top.locate(f.find_call("mysql_query").unwrap()).unwrap();
        let defs = rd.defs_reaching(top, b, i, "x".into());
        assert_eq!(defs.len(), 1);
        assert_eq!(defs[0].node, 1, "only the second assignment reaches");
    }

    #[test]
    fn both_branch_defs_reach_the_join() {
        let (f, rd) = solved("<?php if ($c) { $x = 1; } else { $x = 2; } mysql_query($x);");
        let top = &f.cfgs[0];
        let (b, i) = top.locate(f.find_call("mysql_query").unwrap()).unwrap();
        let defs = rd.defs_reaching(top, b, i, "x".into());
        assert_eq!(defs.len(), 2, "defs from both arms reach the join");
    }

    #[test]
    fn loop_carried_def_reaches_head() {
        let (f, rd) = solved("<?php $i = 0; while ($i) { $i = $i - 1; } mysql_query($i);");
        let top = &f.cfgs[0];
        let (b, i) = top.locate(f.find_call("mysql_query").unwrap()).unwrap();
        let defs = rd.defs_reaching(top, b, i, "i".into());
        assert_eq!(defs.len(), 2, "initial and loop-carried defs both reach");
    }

    #[test]
    fn sanitizing_defs_are_marked() {
        let (f, rd) = solved("<?php $id = (int)$_GET['id']; mysql_query($id);");
        let top = &f.cfgs[0];
        let (b, i) = top.locate(f.find_call("mysql_query").unwrap()).unwrap();
        let defs = rd.defs_reaching(top, b, i, "id".into());
        assert_eq!(defs.len(), 1);
        assert!(defs[0].is_guard());
        assert_eq!(defs[0].validator.map(Symbol::as_str), Some("cast_int"));
    }

    #[test]
    fn mixed_defs_are_not_all_guarding() {
        let (f, rd) =
            solved("<?php if ($c) { $id = intval($_GET['id']); } else { $id = $_GET['id']; } mysql_query($id);");
        let top = &f.cfgs[0];
        let (b, i) = top.locate(f.find_call("mysql_query").unwrap()).unwrap();
        let defs = rd.defs_reaching(top, b, i, "id".into());
        assert_eq!(defs.len(), 2);
        assert!(!defs.iter().all(|d| d.is_guard()));
    }

    #[test]
    fn params_are_entry_defs() {
        let src = "<?php function g($a) { mysql_query($a); }";
        let f = lower_program(&parse(src).expect("parse"));
        let fun = &f.cfgs[1];
        let rd = ReachingDefs::compute(fun);
        let (b, i) = fun.locate(f.find_call("mysql_query").unwrap()).unwrap();
        let defs = rd.defs_reaching(fun, b, i, "a".into());
        assert_eq!(defs.len(), 1);
        assert!(!defs[0].is_guard());
    }
}
