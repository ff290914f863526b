//! Condensation ranks: a topological numbering of a CFG's strongly
//! connected components.
//!
//! Every pCFG engine step moves process sets along CFG edges, so each
//! node of a successor state is reachable from some node of the state it
//! came from. Ranked over the condensation, the lowest rank among the
//! queued states therefore never falls, and a stored state whose lowest
//! rank lies below it can never be revisited. The engine's scheduler
//! evicts such states with these ranks.
//!
//! [`SccRanks::compute`] runs one iterative Tarjan pass (no recursion, so
//! a CFG of any length ranks on a small thread stack). Tarjan completes
//! components in reverse topological order, so numbering them backwards
//! gives `rank(u) <= rank(v)` on every edge `u -> v`, with equality
//! exactly when `u` and `v` lie in one strongly connected component.

use crate::graph::{Cfg, CfgNodeId};

/// Per-node ranks over the SCC condensation of a [`Cfg`].
#[derive(Debug)]
pub struct SccRanks {
    /// `rank[node.0]`: the node's component, numbered topologically.
    rank: Vec<u32>,
    /// Number of strongly connected components, so every rank is below
    /// it.
    count: u32,
}

impl SccRanks {
    /// Ranks every node of `cfg`, starting the depth-first search at the
    /// entry and then at each node not yet visited, in index order.
    #[must_use]
    pub fn compute(cfg: &Cfg) -> SccRanks {
        const UNSET: usize = usize::MAX;
        let n = cfg.node_count();
        let mut index = vec![UNSET; n];
        let mut lowlink = vec![0usize; n];
        let mut on_stack = vec![false; n];
        let mut comp = vec![0u32; n];
        let mut stack: Vec<usize> = Vec::new();
        let mut next_index = 0usize;
        let mut count = 0u32;
        // Explicit DFS frames: (node, next successor position).
        let mut frames: Vec<(usize, usize)> = Vec::new();
        let roots = std::iter::once(cfg.entry().0 as usize).chain(0..n);
        for root in roots {
            if index[root] != UNSET {
                continue;
            }
            index[root] = next_index;
            lowlink[root] = next_index;
            next_index += 1;
            stack.push(root);
            on_stack[root] = true;
            frames.push((root, 0));
            while let Some(&mut (v, ref mut pos)) = frames.last_mut() {
                let succs = cfg.succs(node_id(v));
                if let Some(&(_, succ)) = succs.get(*pos) {
                    *pos += 1;
                    let w = succ.0 as usize;
                    if index[w] == UNSET {
                        index[w] = next_index;
                        lowlink[w] = next_index;
                        next_index += 1;
                        stack.push(w);
                        on_stack[w] = true;
                        frames.push((w, 0));
                    } else if on_stack[w] {
                        lowlink[v] = lowlink[v].min(index[w]);
                    }
                    continue;
                }
                frames.pop();
                if let Some(&(parent, _)) = frames.last() {
                    lowlink[parent] = lowlink[parent].min(lowlink[v]);
                }
                if lowlink[v] == index[v] {
                    loop {
                        let w = stack.pop().expect("tarjan stack holds v");
                        on_stack[w] = false;
                        comp[w] = count;
                        if w == v {
                            break;
                        }
                    }
                    count += 1;
                }
            }
        }
        // Components completed first are sinks: number them last.
        let rank = comp.into_iter().map(|c| count - 1 - c).collect();
        SccRanks { rank, count }
    }

    /// The rank of `node`'s strongly connected component.
    #[must_use]
    pub fn rank(&self, node: CfgNodeId) -> u32 {
        self.rank[node.0 as usize]
    }

    /// Number of distinct ranks (one per strongly connected component).
    #[must_use]
    pub fn count(&self) -> usize {
        self.count as usize
    }
}

fn node_id(i: usize) -> CfgNodeId {
    CfgNodeId(u32::try_from(i).expect("CFG node index fits in u32"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{Cfg, CfgNode};
    use mpl_lang::corpus;

    /// `reach[u][v]`: `v` is reachable from `u` by zero or more edges.
    fn reachability(cfg: &Cfg) -> Vec<Vec<bool>> {
        let n = cfg.node_count();
        let mut reach = vec![vec![false; n]; n];
        for (u, row) in reach.iter_mut().enumerate() {
            let mut todo = vec![node_id(u)];
            while let Some(v) = todo.pop() {
                if std::mem::replace(&mut row[v.0 as usize], true) {
                    continue;
                }
                todo.extend(cfg.succs(v).iter().map(|&(_, s)| s));
            }
        }
        reach
    }

    #[test]
    fn corpus_ranks_order_every_edge_and_tie_exactly_within_an_scc() {
        for prog in corpus::all() {
            let cfg = Cfg::build(&prog.program);
            let ranks = SccRanks::compute(&cfg);
            let reach = reachability(&cfg);
            for u in cfg.node_ids() {
                for &(_, v) in cfg.succs(u) {
                    assert!(
                        ranks.rank(u) <= ranks.rank(v),
                        "{}: edge {u:?} -> {v:?} goes down in rank",
                        prog.name
                    );
                }
                for v in cfg.node_ids() {
                    let mutual =
                        reach[u.0 as usize][v.0 as usize] && reach[v.0 as usize][u.0 as usize];
                    assert_eq!(
                        ranks.rank(u) == ranks.rank(v),
                        mutual,
                        "{}: {u:?} and {v:?}",
                        prog.name
                    );
                }
            }
            assert!(cfg
                .node_ids()
                .all(|id| (ranks.rank(id) as usize) < ranks.count()));
        }
    }

    #[test]
    fn exchange_with_root_loop_shares_one_rank() {
        let cfg = Cfg::build(&corpus::exchange_with_root().program);
        let ranks = SccRanks::compute(&cfg);
        let comm: Vec<CfgNodeId> = cfg
            .node_ids()
            .filter(|&id| cfg.node(id).is_comm_op())
            .collect();
        // The loop's send and receive, then the else branch's pair.
        let (loop_send, loop_recv) = (comm[0], comm[1]);
        let header = cfg
            .node_ids()
            .find(|&id| {
                matches!(cfg.node(id), CfgNode::Branch { .. })
                    && cfg.succs(id).iter().any(|&(_, s)| s == loop_send)
            })
            .expect("the for loop's header branch");
        let body: Vec<CfgNodeId> = cfg
            .node_ids()
            .filter(|&id| ranks.rank(id) == ranks.rank(header))
            .collect();
        assert!(body.contains(&loop_send) && body.contains(&loop_recv));
        // Header, send, recv and the increment: one component.
        assert_eq!(body.len(), 4, "{body:?}");
        assert!(ranks.rank(cfg.entry()) < ranks.rank(header));
        assert!(ranks.rank(header) < ranks.rank(cfg.exit()));
    }

    #[test]
    fn long_chain_ranks_on_a_small_thread_stack() {
        let cfg = Cfg::build(&corpus::repeated_exchanges(5000).program);
        assert!(cfg.node_count() > 20_000, "{} nodes", cfg.node_count());
        let ranks = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || SccRanks::compute(&cfg).count())
            .expect("spawn ranking thread")
            .join()
            .expect("ranking finishes without overflowing the stack");
        assert!(ranks > 20_000);
    }
}
