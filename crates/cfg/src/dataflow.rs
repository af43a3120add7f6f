//! The forward gen/kill bitset solver.
//!
//! Facts are bit positions in `words`-long `u64` sets. Each block has a
//! gen and a kill set, and each edge may add a gen set of its own (the
//! guards its traversal establishes). A worklist iterates
//!
//! ```text
//! out[b] = (in[b] − kill[b]) ∪ gen[b]
//! in[s]  = meet over edges b→s of (out[b] ∪ gen[b→s])
//! ```
//!
//! until nothing changes. Every transfer is monotone and the lattice is
//! finite, so loops need no pass bound.

use crate::graph::{BlockId, Cfg};

/// How the facts of several in-edges combine at a block entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Meet {
    /// May: a fact holds when some in-edge carries it. Every block takes
    /// part, dead code included; a block with no predecessors starts
    /// empty.
    Union,
    /// Must: a fact holds when every in-edge from a reachable block
    /// carries it. Blocks no path from the entry reaches have no facts.
    Intersect,
}

/// Solves one gen/kill problem over `cfg` and returns each block's entry
/// facts, `words` words per block. `gen` and `kill` hold `words` words per
/// block; `edge_gen` holds `words` words per edge in block-then-successor
/// order, or is empty when no edge gens anything.
pub(crate) fn solve(
    cfg: &Cfg,
    meet: Meet,
    words: usize,
    gen: &[u64],
    kill: &[u64],
    edge_gen: &[u64],
) -> Vec<u64> {
    let (n, w) = (cfg.blocks.len(), words);
    if w == 0 {
        return Vec::new();
    }
    let must = meet == Meet::Intersect;
    // ∩ starts from "everything" and pushes from reached blocks only, so
    // an edge out of dead code never weakens a live block
    let mut ins = vec![if must { !0 } else { 0 }; n * w];
    ins[..w].fill(0);
    let mut work: Vec<BlockId> = if must {
        vec![cfg.entry()]
    } else {
        (0..n).rev().collect()
    };
    let mut queued = vec![false; n];
    for &b in &work {
        queued[b] = true;
    }
    let mut seen = queued.clone();
    let mut first_edge = Vec::with_capacity(n);
    let mut edges = 0;
    for block in &cfg.blocks {
        first_edge.push(edges);
        edges += block.succs.len();
    }
    let mut out = vec![0u64; w];
    while let Some(b) = work.pop() {
        queued[b] = false;
        for (i, o) in out.iter_mut().enumerate() {
            let j = b * w + i;
            *o = (ins[j] & !kill[j]) | gen[j];
        }
        for (k, e) in cfg.blocks[b].succs.iter().enumerate() {
            let edge = (first_edge[b] + k) * w;
            let edge_gen = edge_gen.get(edge..edge + w);
            let mut changed = !seen[e.to];
            for (i, o) in out.iter().enumerate() {
                let v = o | edge_gen.map_or(0, |g| g[i]);
                let d = &mut ins[e.to * w + i];
                let met = if must { *d & v } else { *d | v };
                changed |= met != *d;
                *d = met;
            }
            seen[e.to] = true;
            if changed && !queued[e.to] {
                queued[e.to] = true;
                work.push(e.to);
            }
        }
    }
    for (b, _) in seen.iter().enumerate().filter(|(_, s)| !**s) {
        ins[b * w..(b + 1) * w].fill(0);
    }
    ins
}
