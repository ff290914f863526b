//! The MPI-CFG baseline (paper §II, Shires et al. \[22\]).
//!
//! MPI-CFGs take the *sequentially*-derived route to a communication
//! topology: first connect **every** send statement to **every** receive
//! statement, then prune edges that per-process information alone can
//! refute. This module implements that baseline so the pCFG framework's
//! precision gain is measurable (see the `tables` binary and
//! EXPERIMENTS.md): on loop-based patterns the pCFG analysis produces the
//! exact statement topology while MPI-CFG retains the all-pairs
//! over-approximation minus a few constant-rank refutations.
//!
//! Pruning implemented (all derivable without cross-process reasoning):
//!
//! * **guard intervals** — a forward interval analysis on `id` over each
//!   process's CFG (branches like `id = 0` or `id <= np - 2` refine the
//!   interval); a pair is pruned when the send's destination is a
//!   constant outside the receive's possible `id` interval, or the
//!   receive's source is a constant outside the send's `id` interval;
//! * **constant mismatch** — when both the destination and the source are
//!   constants, the pair survives only if mutually consistent with the
//!   guard intervals.

use std::collections::BTreeSet;
use std::fmt;

use mpl_cfg::dataflow::{solve_forward, DataflowAnalysis, JoinSemiLattice};
use mpl_cfg::{Cfg, CfgNode, CfgNodeId, EdgeKind};
use mpl_lang::ast::{BinOp, Expr};

/// An inclusive interval of possible `id` values; `None` ends are
/// unbounded (`np` is unknown to a sequential analysis).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IdInterval {
    /// True once the node is reachable.
    reachable: bool,
    /// Lower bound on `id`, if known.
    pub lo: Option<i64>,
    /// Upper bound on `id`, if known.
    pub hi: Option<i64>,
}

impl IdInterval {
    fn top() -> IdInterval {
        IdInterval {
            reachable: true,
            lo: None,
            hi: None,
        }
    }

    /// True if the constant `c` may be this process's `id`.
    #[must_use]
    pub fn may_contain(&self, c: i64) -> bool {
        if !self.reachable {
            return false;
        }
        self.lo.is_none_or(|lo| lo <= c) && self.hi.is_none_or(|hi| c <= hi)
    }
}

impl JoinSemiLattice for IdInterval {
    fn join(&mut self, other: &Self) -> bool {
        if !other.reachable {
            return false;
        }
        if !self.reachable {
            *self = *other;
            return true;
        }
        let lo = match (self.lo, other.lo) {
            (Some(a), Some(b)) => Some(a.min(b)),
            _ => None,
        };
        let hi = match (self.hi, other.hi) {
            (Some(a), Some(b)) => Some(a.max(b)),
            _ => None,
        };
        let changed = lo != self.lo || hi != self.hi;
        self.lo = lo;
        self.hi = hi;
        changed
    }
}

struct IdGuards;

/// Extracts `id REL constant` from a branch condition.
fn id_comparison(cond: &Expr) -> Option<(BinOp, i64)> {
    let Expr::Binary(op, l, r) = cond else {
        return None;
    };
    match (l.as_ref(), r.as_ref()) {
        (Expr::Id, Expr::Int(c)) => Some((*op, *c)),
        (Expr::Int(c), Expr::Id) => {
            let flipped = match op {
                BinOp::Lt => BinOp::Gt,
                BinOp::Le => BinOp::Ge,
                BinOp::Gt => BinOp::Lt,
                BinOp::Ge => BinOp::Le,
                other => *other,
            };
            Some((flipped, *c))
        }
        _ => None,
    }
}

impl DataflowAnalysis for IdGuards {
    type Fact = IdInterval;

    fn boundary(&self) -> IdInterval {
        IdInterval::top()
    }

    fn bottom(&self) -> IdInterval {
        IdInterval::default()
    }

    fn transfer(
        &self,
        cfg: &Cfg,
        node: CfgNodeId,
        kind: EdgeKind,
        fact: &IdInterval,
    ) -> IdInterval {
        let mut out = *fact;
        let CfgNode::Branch { cond } = cfg.node(node) else {
            return out;
        };
        let Some((op, c)) = id_comparison(cond) else {
            return out;
        };
        let taken = kind == EdgeKind::True;
        let narrow_lo = |out: &mut IdInterval, v: i64| {
            out.lo = Some(out.lo.map_or(v, |lo| lo.max(v)));
        };
        let narrow_hi = |out: &mut IdInterval, v: i64| {
            out.hi = Some(out.hi.map_or(v, |hi| hi.min(v)));
        };
        match (op, taken) {
            (BinOp::Eq, true) => {
                narrow_lo(&mut out, c);
                narrow_hi(&mut out, c);
            }
            (BinOp::Ne, false) => {
                narrow_lo(&mut out, c);
                narrow_hi(&mut out, c);
            }
            (BinOp::Le, true) | (BinOp::Lt, false) => narrow_hi(&mut out, c),
            (BinOp::Lt, true) | (BinOp::Le, false) => {
                if taken {
                    narrow_hi(&mut out, c - 1);
                } else {
                    narrow_lo(&mut out, c);
                }
            }
            (BinOp::Ge, true) | (BinOp::Gt, false) => narrow_lo(&mut out, c),
            (BinOp::Gt, true) | (BinOp::Ge, false) => {
                if taken {
                    narrow_lo(&mut out, c + 1);
                } else {
                    narrow_hi(&mut out, c - 1);
                }
            }
            _ => {}
        }
        out
    }
}

/// The MPI-CFG over-approximate topology: every send statement connected
/// to every receive statement it could not be sequentially refuted from.
#[derive(Debug, Clone)]
pub struct MpiCfgTopology {
    pairs: BTreeSet<(CfgNodeId, CfgNodeId)>,
    all_pairs: usize,
}

impl MpiCfgTopology {
    /// The surviving (send, recv) statement pairs.
    #[must_use]
    pub fn pairs(&self) -> &BTreeSet<(CfgNodeId, CfgNodeId)> {
        &self.pairs
    }

    /// The unpruned all-pairs count (sends × recvs).
    #[must_use]
    pub fn all_pairs(&self) -> usize {
        self.all_pairs
    }
}

impl fmt::Display for MpiCfgTopology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "MPI-CFG topology: {} of {} send x recv pairs survive sequential pruning",
            self.pairs.len(),
            self.all_pairs
        )?;
        for (s, r) in &self.pairs {
            writeln!(f, "  {s} -> {r}")?;
        }
        Ok(())
    }
}

/// Builds the MPI-CFG baseline topology for `cfg`.
#[must_use]
pub fn mpi_cfg_topology(cfg: &Cfg) -> MpiCfgTopology {
    let guards = solve_forward(cfg, &IdGuards);
    let mut sends = Vec::new();
    let mut recvs = Vec::new();
    for id in cfg.node_ids() {
        match cfg.node(id) {
            CfgNode::Send { dest, .. } => sends.push((id, dest.clone())),
            CfgNode::Recv { src, .. } => recvs.push((id, src.clone())),
            _ => {}
        }
    }
    let all_pairs = sends.len() * recvs.len();
    let mut pairs = BTreeSet::new();
    for (s, dest) in &sends {
        for (r, src) in &recvs {
            let mut possible = true;
            // Destination constant must fit the receiver's id interval.
            if let Expr::Int(c) = dest {
                if !guards[r.0 as usize].may_contain(*c) {
                    possible = false;
                }
            }
            // Source constant must fit the sender's id interval.
            if let Expr::Int(m) = src {
                if !guards[s.0 as usize].may_contain(*m) {
                    possible = false;
                }
            }
            if possible {
                pairs.insert((*s, *r));
            }
        }
    }
    MpiCfgTopology { pairs, all_pairs }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AnalysisConfig;
    use crate::engine::analyze_cfg;
    use mpl_lang::{corpus, parse_program};
    use mpl_sim::Simulator;

    fn build(src: &str) -> Cfg {
        Cfg::build(&parse_program(src).unwrap())
    }

    #[test]
    fn guard_intervals_refine_on_id_branches() {
        let cfg = build("if id = 0 then send 1 -> 1; else recv x <- 0; end");
        let guards = solve_forward(&cfg, &IdGuards);
        let send = cfg.comm_nodes()[0];
        let recv = cfg.comm_nodes()[1];
        assert!(guards[send.0 as usize].may_contain(0));
        assert!(!guards[send.0 as usize].may_contain(1));
        // The else side excludes nothing except... id != 0 is not an
        // interval fact, so 0 may still be contained.
        assert!(guards[recv.0 as usize].may_contain(5));
    }

    #[test]
    fn fig2_mpicfg_equals_pcfg() {
        // Two sends, two recvs; constant pruning removes the crossed
        // pairs, so MPI-CFG happens to be exact on Fig 2.
        let prog = corpus::fig2_exchange();
        let cfg = Cfg::build(&prog.program);
        let mpicfg = mpi_cfg_topology(&cfg);
        let pcfg = analyze_cfg(&cfg, &AnalysisConfig::default());
        assert_eq!(mpicfg.all_pairs(), 4);
        assert_eq!(*mpicfg.pairs(), pcfg.matches);
    }

    #[test]
    fn mdcask_mpicfg_is_coarser_than_pcfg() {
        // The paper's positioning: pCFG strictly refines MPI-CFG on
        // loop-based patterns.
        let prog = corpus::mdcask_full();
        let cfg = Cfg::build(&prog.program);
        let mpicfg = mpi_cfg_topology(&cfg);
        let pcfg = analyze_cfg(&cfg, &AnalysisConfig::default());
        assert!(pcfg.is_exact());
        assert!(
            pcfg.matches.is_subset(mpicfg.pairs()),
            "baseline must over-approximate"
        );
        assert!(
            mpicfg.pairs().len() > pcfg.matches.len(),
            "MPI-CFG {} pairs vs pCFG {}",
            mpicfg.pairs().len(),
            pcfg.matches.len()
        );
    }

    #[test]
    fn mpicfg_always_covers_runtime() {
        // Soundness of the baseline itself.
        for prog in [
            corpus::exchange_with_root(),
            corpus::nearest_neighbor_shift(),
        ] {
            let cfg = Cfg::build(&prog.program);
            let mpicfg = mpi_cfg_topology(&cfg);
            let outcome = Simulator::from_cfg(cfg, 6).run().unwrap();
            assert!(
                outcome.topology.site_pairs().is_subset(mpicfg.pairs()),
                "{}",
                prog.name
            );
        }
    }

    #[test]
    fn display_reports_pruning() {
        let prog = corpus::fig2_exchange();
        let cfg = Cfg::build(&prog.program);
        let text = mpi_cfg_topology(&cfg).to_string();
        assert!(text.contains("2 of 4"));
    }
}
