//! A generic worklist dataflow solver over sequential CFGs, in both
//! directions.
//!
//! This is the classic framework the paper *extends*: facts flow along CFG
//! edges of a single process, with joins at merge points. It is used for
//! sequential baselines (constant propagation that must treat every `recv`
//! as unknown) against which the parallel pCFG analysis is compared, and
//! backwards for the liveness that keeps dead variables out of every pCFG
//! state ([`crate::liveness`]).

use std::collections::VecDeque;

use crate::graph::{Cfg, CfgNodeId, EdgeKind};

/// A join-semilattice of dataflow facts.
pub trait JoinSemiLattice: Clone + PartialEq {
    /// Least upper bound. Returns `true` if `self` changed.
    fn join(&mut self, other: &Self) -> bool;
}

/// A dataflow problem over a [`Cfg`], solved in either direction by
/// [`solve_forward`] or [`solve_backward`].
pub trait DataflowAnalysis {
    /// The fact attached to each CFG node.
    type Fact: JoinSemiLattice;

    /// The fact holding at the seed: procedure entry for a forward
    /// problem, procedure exit for a backward one.
    fn boundary(&self) -> Self::Fact;

    /// The fact for nodes the flow never reaches (bottom).
    fn bottom(&self) -> Self::Fact;

    /// Carries `fact` across `node` along an edge of kind `kind`: forward,
    /// from the node's entry out along an outgoing edge (branch analyses
    /// may refine by outcome); backward, from the node's exit back along
    /// an incoming edge.
    fn transfer(&self, cfg: &Cfg, node: CfgNodeId, kind: EdgeKind, fact: &Self::Fact)
        -> Self::Fact;
}

/// Runs `analysis` forward to fixpoint and returns the fact holding *on
/// entry to* each node (indexed by node id).
pub fn solve_forward<A: DataflowAnalysis>(cfg: &Cfg, analysis: &A) -> Vec<A::Fact> {
    solve(cfg, analysis, cfg.entry(), Cfg::succs)
}

/// Runs `analysis` backward to fixpoint and returns the fact holding *on
/// exit from* each node (indexed by node id): the join, over the node's
/// successors, of the fact [`DataflowAnalysis::transfer`] carries back
/// across each of them. Every node of a built CFG reaches the exit, so
/// every node is solved.
pub fn solve_backward<A: DataflowAnalysis>(cfg: &Cfg, analysis: &A) -> Vec<A::Fact> {
    solve(cfg, analysis, cfg.exit(), Cfg::preds)
}

/// The one worklist loop behind both directions: `seed` starts at the
/// boundary fact and `edges` names the neighbours a node's fact flows to.
fn solve<A: DataflowAnalysis>(
    cfg: &Cfg,
    analysis: &A,
    seed: CfgNodeId,
    edges: fn(&Cfg, CfgNodeId) -> &[(EdgeKind, CfgNodeId)],
) -> Vec<A::Fact> {
    let n = cfg.node_count();
    let mut facts: Vec<A::Fact> = (0..n).map(|_| analysis.bottom()).collect();
    facts[seed.0 as usize] = analysis.boundary();

    let mut queue: VecDeque<CfgNodeId> = VecDeque::new();
    let mut queued = vec![false; n];
    queue.push_back(seed);
    queued[seed.0 as usize] = true;

    while let Some(node) = queue.pop_front() {
        queued[node.0 as usize] = false;
        let fact = facts[node.0 as usize].clone();
        for &(kind, next) in edges(cfg, node) {
            let out = analysis.transfer(cfg, node, kind, &fact);
            if facts[next.0 as usize].join(&out) && !queued[next.0 as usize] {
                queued[next.0 as usize] = true;
                queue.push_back(next);
            }
        }
    }
    facts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::CfgNode;
    use crate::seq_constprop::{ConstFact, SeqConstProp};
    use mpl_lang::parse_program;

    // `solve_forward` on sequential constant propagation.

    fn solve(src: &str) -> (Cfg, Vec<ConstFact>) {
        let cfg = Cfg::build(&parse_program(src).unwrap());
        let facts = solve_forward(&cfg, &SeqConstProp);
        (cfg, facts)
    }

    fn fact_at_print<'a>(cfg: &Cfg, facts: &'a [ConstFact]) -> &'a ConstFact {
        let print = cfg
            .node_ids()
            .find(|&id| matches!(cfg.node(id), CfgNode::Print(_)))
            .expect("no print node");
        &facts[print.0 as usize]
    }

    #[test]
    fn straight_line_constant_folds() {
        let (cfg, facts) = solve("x := 2; y := x * 3; print y;");
        let f = fact_at_print(&cfg, &facts);
        assert_eq!(f.const_of("y"), Some(6));
    }

    #[test]
    fn join_of_different_constants_is_unknown() {
        let (cfg, facts) = solve("if id = 0 then x := 1; else x := 2; end print x;");
        let f = fact_at_print(&cfg, &facts);
        assert_eq!(f.const_of("x"), None);
    }

    #[test]
    fn join_of_equal_constants_stays_constant() {
        let (cfg, facts) = solve("if id = 0 then x := 7; else x := 7; end print x;");
        let f = fact_at_print(&cfg, &facts);
        assert_eq!(f.const_of("x"), Some(7));
    }

    #[test]
    fn loop_reaches_fixpoint() {
        let (cfg, facts) = solve("x := 0; while x < 5 do x := x + 1; end print x;");
        let f = fact_at_print(&cfg, &facts);
        // x is not constant at the print (it varies over iterations when
        // observed at the loop head join).
        assert_eq!(f.const_of("x"), None);
    }

    #[test]
    fn recv_kills_constantness_sequentially() {
        // This is the motivating gap: sequentially, the received value is
        // unknown even though the parallel analysis can prove it is 5.
        let (cfg, facts) = solve("x := 5; send x -> 1; recv y <- 1; print y;");
        let f = fact_at_print(&cfg, &facts);
        assert_eq!(f.const_of("x"), Some(5));
        assert_eq!(f.const_of("y"), None);
    }

    #[test]
    fn unreachable_code_contributes_nothing() {
        let (cfg, facts) = solve("x := 1; if true then y := 2; end print x;");
        let f = fact_at_print(&cfg, &facts);
        assert_eq!(f.const_of("x"), Some(1));
        assert!(f.is_reachable());
    }

    #[test]
    fn exit_fact_is_reachable() {
        let (cfg, facts) = solve("x := 1;");
        assert!(facts[cfg.exit().0 as usize].is_reachable());
    }

    // `solve_backward` on the liveness lattice: each fact is the set of
    // names live on exit from its node.

    fn live_out(src: &str) -> (Cfg, Vec<crate::liveness::LiveSet>) {
        let cfg = Cfg::build(&parse_program(src).unwrap());
        let facts = solve_backward(&cfg, &crate::liveness::Liveness);
        (cfg, facts)
    }

    /// The first node whose statement renders as `stmt`.
    fn node_of(cfg: &Cfg, stmt: &str) -> CfgNodeId {
        cfg.node_ids()
            .find(|&id| cfg.node(id).to_string() == stmt)
            .unwrap_or_else(|| panic!("no node `{stmt}`"))
    }

    fn live_after(cfg: &Cfg, facts: &[crate::liveness::LiveSet], stmt: &str) -> Vec<String> {
        let fact = &facts[node_of(cfg, stmt).0 as usize];
        fact.names().map(str::to_owned).collect()
    }

    #[test]
    fn backward_straight_line_kill() {
        let (cfg, facts) = live_out("x := 1; y := x; print y;");
        assert_eq!(live_after(&cfg, &facts, "x := 1"), ["x"]);
        // `x` is dead once `y := x` has read it.
        assert_eq!(live_after(&cfg, &facts, "y := x"), ["y"]);
        assert!(live_after(&cfg, &facts, "print y").is_empty());
        assert!(facts[cfg.entry().0 as usize].names().next().is_none());
    }

    #[test]
    fn backward_loop_carries_liveness_across_the_back_edge() {
        let (cfg, facts) = live_out("x := 0; n := 5; while x < n do x := x + 1; end print 0;");
        // Live at the loop head (on exit from the last initializer) ...
        assert_eq!(live_after(&cfg, &facts, "n := 5"), ["n", "x"]);
        // ... and along the back edge out of the body.
        assert_eq!(live_after(&cfg, &facts, "x := (x + 1)"), ["n", "x"]);
        assert_eq!(live_after(&cfg, &facts, "branch (x < n)"), ["n", "x"]);
    }

    #[test]
    fn backward_join_is_the_union_over_both_arms() {
        let (cfg, facts) = live_out("a := 1; b := 2; if id = 0 then print a; else print b; end");
        assert_eq!(live_after(&cfg, &facts, "branch (id = 0)"), ["a", "b"]);
        assert_eq!(live_after(&cfg, &facts, "b := 2"), ["a", "b"]);
    }

    #[test]
    fn backward_recv_defines_its_target_and_reads_its_source() {
        let (cfg, facts) = live_out("x := 3; s := 1; recv x <- s; print x;");
        // `s` is read by the receive; `x` is overwritten by it.
        assert_eq!(live_after(&cfg, &facts, "s := 1"), ["s"]);
        assert!(live_after(&cfg, &facts, "x := 3").is_empty());
        assert_eq!(live_after(&cfg, &facts, "recv x <- s"), ["x"]);
    }

    #[test]
    fn backward_send_reads_value_and_destination() {
        let (cfg, facts) = live_out("v := 7; d := 1; send v -> d;");
        assert_eq!(live_after(&cfg, &facts, "d := 1"), ["d", "v"]);
        assert_eq!(live_after(&cfg, &facts, "v := 7"), ["v"]);
        assert!(live_after(&cfg, &facts, "send v -> d").is_empty());
    }
}
