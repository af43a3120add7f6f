//! Dominator trees via the iterative Cooper–Harvey–Kennedy algorithm.
//!
//! A block `A` dominates `B` when every path from the entry to `B` passes
//! through `A`. The guard analysis uses this to prove that a validation
//! branch was *necessarily* taken before a sink executes.
//!
//! The algorithm ("A Simple, Fast Dominance Algorithm", Cooper, Harvey &
//! Kennedy, 2001) iterates `idom[b] = intersect(processed preds of b)`
//! over a reverse-postorder walk until fixpoint. On the small per-function
//! graphs this crate produces it converges in one or two passes and beats
//! the asymptotically better Lengauer–Tarjan in both code size and
//! constant factors.

use crate::graph::{BlockId, Cfg};

/// The dominator tree of one [`Cfg`].
///
/// Unreachable blocks have no immediate dominator and are reported as
/// dominated by nothing (and dominating nothing but themselves).
#[derive(Debug, Clone)]
pub struct Dominators {
    /// `idom[b]` — immediate dominator of `b`; `idom[entry] == entry`;
    /// `None` for unreachable blocks.
    idom: Vec<Option<BlockId>>,
}

impl Dominators {
    /// Computes the dominator tree of `cfg`.
    pub fn compute(cfg: &Cfg) -> Dominators {
        let n = cfg.blocks.len();
        let rpo = reverse_postorder(cfg);
        // position of each block in the reverse postorder, used by the
        // intersection walk; `usize::MAX` for unreachable blocks
        let mut rpo_pos = vec![usize::MAX; n];
        for (pos, &b) in rpo.iter().enumerate() {
            rpo_pos[b] = pos;
        }

        let mut idom: Vec<Option<BlockId>> = vec![None; n];
        let entry = cfg.entry();
        idom[entry] = Some(entry);

        let mut changed = true;
        while changed {
            changed = false;
            for &b in rpo.iter().skip(1) {
                // pick the first predecessor that already has an idom
                let mut new_idom: Option<BlockId> = None;
                for &p in &cfg.blocks[b].preds {
                    if idom[p].is_none() {
                        continue;
                    }
                    new_idom = Some(match new_idom {
                        None => p,
                        Some(cur) => intersect(&idom, &rpo_pos, p, cur),
                    });
                }
                if new_idom.is_some() && idom[b] != new_idom {
                    idom[b] = new_idom;
                    changed = true;
                }
            }
        }

        Dominators { idom }
    }

    /// Immediate dominator of `b` (`b` itself for the entry, `None` for
    /// unreachable blocks).
    pub fn idom(&self, b: BlockId) -> Option<BlockId> {
        self.idom.get(b).copied().flatten()
    }

    /// Whether `a` dominates `b` (reflexively: every block dominates
    /// itself). Unreachable blocks are dominated only by themselves.
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        if a == b {
            return true;
        }
        let mut cur = b;
        loop {
            match self.idom(cur) {
                Some(d) if d == cur => return false, // reached the entry
                Some(d) if d == a => return true,
                Some(d) => cur = d,
                None => return false,
            }
        }
    }
}

/// Reverse postorder over reachable blocks, entry first.
fn reverse_postorder(cfg: &Cfg) -> Vec<BlockId> {
    let n = cfg.blocks.len();
    let mut visited = vec![false; n];
    let mut post: Vec<BlockId> = Vec::with_capacity(n);
    // iterative DFS with an explicit edge cursor to get a true postorder
    let mut stack: Vec<(BlockId, usize)> = vec![(cfg.entry(), 0)];
    visited[cfg.entry()] = true;
    while let Some((b, i)) = stack.pop() {
        if let Some(e) = cfg.blocks[b].succs.get(i) {
            stack.push((b, i + 1));
            if !visited[e.to] {
                visited[e.to] = true;
                stack.push((e.to, 0));
            }
        } else {
            post.push(b);
        }
    }
    post.reverse();
    post
}

/// The CHK two-finger intersection: walks both blocks up the (partial)
/// dominator tree until they meet.
fn intersect(
    idom: &[Option<BlockId>],
    rpo_pos: &[usize],
    mut a: BlockId,
    mut b: BlockId,
) -> BlockId {
    while a != b {
        while rpo_pos[a] > rpo_pos[b] {
            a = idom[a].expect("intersect walks processed blocks only");
        }
        while rpo_pos[b] > rpo_pos[a] {
            b = idom[b].expect("intersect walks processed blocks only");
        }
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::lower_program;
    use wap_php::parse;

    fn doms(src: &str) -> (crate::graph::FileCfgs, Dominators) {
        let f = lower_program(&parse(src).expect("parse"));
        let d = Dominators::compute(&f.cfgs[0]);
        (f, d)
    }

    #[test]
    fn entry_dominates_everything_reachable() {
        let (f, d) = doms("<?php if ($x) { echo 1; } else { echo 2; } echo 3;");
        let top = &f.cfgs[0];
        for (b, _) in top.blocks.iter().enumerate() {
            if top.reachable()[b] {
                assert!(d.dominates(top.entry(), b), "entry must dominate {b}");
            }
        }
    }

    #[test]
    fn branch_arms_do_not_dominate_join() {
        let (f, d) = doms("<?php if ($x) { echo 1; } else { echo 2; } echo 3;");
        let top = &f.cfgs[0];
        // find the join block: holds the `echo 3` node and has 2+ preds
        let join = top
            .blocks
            .iter()
            .enumerate()
            .find(|(_, b)| b.preds.len() >= 2 && !b.nodes.is_empty())
            .map(|(i, _)| i)
            .expect("join block");
        for (arm, block) in top.blocks.iter().enumerate() {
            if arm != join && arm != top.entry() && !block.nodes.is_empty() {
                assert!(!d.dominates(arm, join), "arm {arm} must not dominate join");
            }
        }
        assert!(d.dominates(top.entry(), join));
    }

    #[test]
    fn guard_continuation_is_dominated_by_guard_target() {
        // `if (!g) exit;` — the continuation is dominated by the false-edge
        // target (which *is* the continuation), the crux of guard queries
        let (f, d) = doms("<?php if (!is_numeric($id)) { exit; } mysql_query($id);");
        let top = &f.cfgs[0];
        let (sink_block, _) = top
            .locate(f.find_call("mysql_query").expect("call"))
            .expect("sink");
        // the guard edge target must dominate the sink block
        let mut guarded_target = None;
        for b in &top.blocks {
            for e in &b.succs {
                if !e.guards.is_empty() {
                    guarded_target = Some(e.to);
                }
            }
        }
        let t = guarded_target.expect("guard edge");
        assert!(d.dominates(t, sink_block));
    }

    #[test]
    fn loop_head_dominates_body() {
        let (f, d) = doms("<?php while ($x) { echo $x; } echo 'after';");
        let top = &f.cfgs[0];
        // the block with a back edge into it is the head
        let head = top
            .blocks
            .iter()
            .enumerate()
            .find(|(i, b)| b.preds.iter().any(|&p| p > *i))
            .map(|(i, _)| i)
            .expect("loop head");
        for (b, block) in top.blocks.iter().enumerate() {
            if block.preds.contains(&head) {
                assert!(d.dominates(head, b));
            }
        }
    }

    #[test]
    fn unreachable_blocks_have_no_idom() {
        let (f, d) = doms("<?php exit; echo 'dead';");
        let top = &f.cfgs[0];
        let reach = top.reachable();
        for (b, _) in top.blocks.iter().enumerate() {
            if !reach[b] {
                assert_eq!(d.idom(b), None);
                assert!(!d.dominates(top.entry(), b));
                assert!(d.dominates(b, b), "reflexive even when unreachable");
            }
        }
    }
}
