//! Sequential constant propagation — the "traditional analysis" baseline
//! the paper's Fig 2 argues against: because it analyzes one process in
//! isolation, every received value is unknown, so it cannot prove that
//! both processes of Fig 2 print `5`. The parallel framework in
//! `mpl-core` can; comparing the two quantifies the precision gained by
//! communication sensitivity.

use std::collections::BTreeMap;

use mpl_lang::ast::Expr;

use crate::dataflow::{solve_forward, DataflowAnalysis, JoinSemiLattice};
use crate::graph::{Cfg, CfgNode, CfgNodeId, EdgeKind};

/// The flat constant lattice over the variables of one process:
/// `Some(c)` = proven constant, `None` = unknown. Missing = unassigned.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct ConstFact {
    reachable: bool,
    vars: BTreeMap<String, Option<i64>>,
}

impl ConstFact {
    /// The constant value of `name` at this point, if proven.
    #[must_use]
    pub fn const_of(&self, name: &str) -> Option<i64> {
        self.vars.get(name).copied().flatten()
    }

    /// True if this program point is reachable.
    #[must_use]
    pub fn is_reachable(&self) -> bool {
        self.reachable
    }
}

impl JoinSemiLattice for ConstFact {
    fn join(&mut self, other: &Self) -> bool {
        if !other.reachable {
            return false;
        }
        if !self.reachable {
            *self = other.clone();
            return true;
        }
        let mut changed = false;
        for (k, v) in &other.vars {
            match self.vars.get(k) {
                None => {
                    self.vars.insert(k.clone(), *v);
                    changed = true;
                }
                Some(cur) if cur != v && cur.is_some() => {
                    self.vars.insert(k.clone(), None);
                    changed = true;
                }
                _ => {}
            }
        }
        for (k, v) in self.vars.clone() {
            if v.is_some() && !other.vars.contains_key(&k) {
                self.vars.insert(k, None);
                changed = true;
            }
        }
        changed
    }
}

/// The sequential constant-propagation analysis. `id` and `np` are
/// unknown (the analysis models an arbitrary process), and so is every
/// received value — the precision gap the pCFG framework closes.
#[derive(Debug, Clone, Copy, Default)]
pub struct SeqConstProp;

fn eval(e: &Expr, env: &BTreeMap<String, Option<i64>>) -> Option<i64> {
    match e {
        Expr::Int(n) => Some(*n),
        Expr::Bool(b) => Some(i64::from(*b)),
        Expr::Var(v) => env.get(v).copied().flatten(),
        Expr::Id | Expr::Np => None,
        Expr::Unary(op, e) => eval(e, env).map(|v| op.eval(v)),
        Expr::Binary(op, l, r) => op.eval(eval(l, env)?, eval(r, env)?),
    }
}

impl DataflowAnalysis for SeqConstProp {
    type Fact = ConstFact;

    fn boundary(&self) -> ConstFact {
        ConstFact {
            reachable: true,
            vars: BTreeMap::new(),
        }
    }

    fn bottom(&self) -> ConstFact {
        ConstFact::default()
    }

    fn transfer(&self, cfg: &Cfg, node: CfgNodeId, _kind: EdgeKind, fact: &ConstFact) -> ConstFact {
        let mut out = fact.clone();
        match cfg.node(node) {
            CfgNode::Assign { name, value } => {
                let v = eval(value, &fact.vars);
                out.vars.insert(name.clone(), v);
            }
            // Sequentially, a received value could be anything.
            CfgNode::Recv { var, .. } => {
                out.vars.insert(var.clone(), None);
            }
            _ => {}
        }
        out
    }
}

/// Runs sequential constant propagation and returns the fact *entering*
/// each node.
///
/// ```
/// use mpl_cfg::{seq_constprop::solve_seq_constprop, Cfg};
/// let cfg = Cfg::build(&mpl_lang::parse_program("x := 2; y := x * 3;")?);
/// let facts = solve_seq_constprop(&cfg);
/// assert_eq!(facts[cfg.exit().0 as usize].const_of("y"), Some(6));
/// # Ok::<(), mpl_lang::ParseError>(())
/// ```
#[must_use]
pub fn solve_seq_constprop(cfg: &Cfg) -> Vec<ConstFact> {
    solve_forward(cfg, &SeqConstProp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpl_lang::parse_program;

    fn facts_at_print(src: &str) -> ConstFact {
        let cfg = Cfg::build(&parse_program(src).unwrap());
        let facts = solve_seq_constprop(&cfg);
        let print = cfg
            .node_ids()
            .find(|&id| matches!(cfg.node(id), CfgNode::Print(_)))
            .expect("print node");
        facts[print.0 as usize].clone()
    }

    #[test]
    fn folds_straight_line_arithmetic() {
        let f = facts_at_print("x := 2; y := x * 3 + 1; print y;");
        assert_eq!(f.const_of("y"), Some(7));
        assert!(f.is_reachable());
    }

    #[test]
    fn fig2_receive_is_unknown_sequentially() {
        // The motivating gap: the parallel analysis proves y = 5 here.
        let f = facts_at_print("x := 5; send x -> 1; recv y <- 1; print y;");
        assert_eq!(f.const_of("x"), Some(5));
        assert_eq!(f.const_of("y"), None);
    }

    #[test]
    fn id_and_np_are_unknown() {
        let f = facts_at_print("x := id; y := np; print x;");
        assert_eq!(f.const_of("x"), None);
        assert_eq!(f.const_of("y"), None);
    }

    #[test]
    fn branch_join_loses_disagreeing_constants() {
        let f = facts_at_print("if id = 0 then x := 1; else x := 2; end print x;");
        assert_eq!(f.const_of("x"), None);
        let f = facts_at_print("if id = 0 then x := 3; else x := 3; end print x;");
        assert_eq!(f.const_of("x"), Some(3));
    }
}
