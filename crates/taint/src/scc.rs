//! Strongly connected components of a call graph.
//!
//! Interprocedural summaries are derived bottom-up: a function is walked
//! after every function it calls, and the members of one recursive
//! component are walked together until their summaries stop changing. The
//! same components group the files whose summaries must be derived
//! together, both in a pass and in the incremental cache's choice of what
//! to re-derive.

/// The strongly connected components of a directed graph given as
/// successor lists, in the order Tarjan's algorithm completes them: every
/// component comes after each component it reaches, so callees come
/// before their callers. Roots are tried in index order and successors in
/// list order, so the result is a pure function of `succ`. Members of a
/// component are sorted by index.
///
/// The depth-first search keeps its own stack: a call chain of any length
/// costs heap, never call-stack frames.
///
/// # Examples
///
/// ```
/// // 0 calls 1, 1 and 2 call each other
/// let order = wap_taint::strongly_connected(&[vec![1], vec![2], vec![1]]);
/// assert_eq!(order, vec![vec![1, 2], vec![0]]);
/// ```
pub fn strongly_connected(succ: &[Vec<usize>]) -> Vec<Vec<usize>> {
    const UNSEEN: usize = usize::MAX;
    let n = succ.len();
    let mut index = vec![UNSEEN; n];
    let mut low = vec![0; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    // the search path: (node, position of its next successor)
    let mut path: Vec<(usize, usize)> = Vec::new();
    let mut next = 0;
    let mut out = Vec::new();
    for root in 0..n {
        if index[root] != UNSEEN {
            continue;
        }
        path.push((root, 0));
        while let Some(&(v, pos)) = path.last() {
            if index[v] == UNSEEN {
                index[v] = next;
                low[v] = next;
                next += 1;
                on_stack[v] = true;
                stack.push(v);
            }
            if let Some(&w) = succ[v].get(pos) {
                path.last_mut().expect("non-empty").1 += 1;
                if index[w] == UNSEEN {
                    path.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
                continue;
            }
            path.pop();
            if let Some(&(parent, _)) = path.last() {
                low[parent] = low[parent].min(low[v]);
            }
            if low[v] == index[v] {
                let mut component = Vec::new();
                loop {
                    let w = stack.pop().expect("v is on the stack");
                    on_stack[w] = false;
                    component.push(w);
                    if w == v {
                        break;
                    }
                }
                component.sort_unstable();
                out.push(component);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chains_complete_callee_first() {
        let succ = vec![vec![1], vec![2], vec![]];
        assert_eq!(strongly_connected(&succ), vec![vec![2], vec![1], vec![0]]);
    }

    #[test]
    fn cycles_and_self_loops_are_one_component() {
        // 0 -> 1 -> 2 -> 0, 3 -> 3, 3 -> 0
        let succ = vec![vec![1], vec![2], vec![0], vec![3, 0]];
        assert_eq!(strongly_connected(&succ), vec![vec![0, 1, 2], vec![3]]);
    }

    #[test]
    fn a_long_chain_needs_no_call_stack() {
        let n = 200_000;
        let succ: Vec<Vec<usize>> = (0..n)
            .map(|i| if i + 1 < n { vec![i + 1] } else { vec![] })
            .collect();
        let order = strongly_connected(&succ);
        assert_eq!(order.len(), n);
        assert_eq!(order[0], vec![n - 1]);
        assert_eq!(order[n - 1], vec![0]);
    }
}
