//! Live-variable analysis: the backward client of [`crate::dataflow`].
//!
//! A name is live on entry to a node when the node's statement, or some
//! statement on a path from it, reads the name before writing it. The
//! pCFG engine projects every per-set variable that is dead at its set's
//! node out of the analysis state, so each constraint graph carries only
//! the variables a later statement can still observe (the paper's §IX
//! "fewer variables").

use std::collections::BTreeSet;

use crate::dataflow::{solve_backward, DataflowAnalysis, JoinSemiLattice};
use crate::graph::{Cfg, CfgNode, CfgNodeId, EdgeKind};

/// The names live at one program point; `reached` stays false until the
/// backward flow arrives, so the first arrival always counts as a change.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct LiveSet {
    reached: bool,
    names: BTreeSet<String>,
}

impl LiveSet {
    /// The live names, in sorted order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.names.iter().map(String::as_str)
    }
}

impl JoinSemiLattice for LiveSet {
    fn join(&mut self, other: &Self) -> bool {
        let before = (self.reached, self.names.len());
        self.reached |= other.reached;
        self.names.extend(other.names.iter().cloned());
        before != (self.reached, self.names.len())
    }
}

/// The liveness problem: `Assign` and `Recv` define their target; every
/// expression of `Assign`, `Recv.src`, `Send`, `Branch`, `Print` and
/// `Assume` reads its variables (`id` and `np` are not variables).
#[derive(Debug, Clone, Copy, Default)]
pub struct Liveness;

impl DataflowAnalysis for Liveness {
    type Fact = LiveSet;

    fn boundary(&self) -> LiveSet {
        LiveSet {
            reached: true,
            names: BTreeSet::new(),
        }
    }

    fn bottom(&self) -> LiveSet {
        LiveSet::default()
    }

    fn transfer(&self, cfg: &Cfg, node: CfgNodeId, _kind: EdgeKind, fact: &LiveSet) -> LiveSet {
        let node = cfg.node(node);
        let mut out = fact.clone();
        if let Some(name) = defines(node) {
            out.names.remove(name);
        }
        out.names.extend(reads(node).into_iter().map(str::to_owned));
        out
    }
}

/// The name `node` writes, if any.
#[must_use]
pub fn defines(node: &CfgNode) -> Option<&str> {
    match node {
        CfgNode::Assign { name, .. } | CfgNode::Recv { var: name, .. } => Some(name),
        _ => None,
    }
}

/// The names `node` reads, each once, in first-use order.
#[must_use]
pub fn reads(node: &CfgNode) -> Vec<&str> {
    let mut names = Vec::new();
    for_each_read(node, &mut |name| {
        if !names.contains(&name) {
            names.push(name);
        }
    });
    names
}

/// Calls `f` on every name `node` reads, repeats included, without
/// collecting them.
pub fn for_each_read<'a>(node: &'a CfgNode, f: &mut impl FnMut(&'a str)) {
    match node {
        CfgNode::Assign { value: e, .. }
        | CfgNode::Recv { src: e, .. }
        | CfgNode::Branch { cond: e }
        | CfgNode::Print(e)
        | CfgNode::Assume(e) => e.for_each_var(f),
        CfgNode::Send { value, dest } => {
            value.for_each_var(f);
            dest.for_each_var(f);
        }
        CfgNode::Entry | CfgNode::Exit | CfgNode::Skip => {}
    }
}

/// The names live on entry to each node (indexed by node id).
///
/// ```
/// use mpl_cfg::{liveness::live_on_entry, Cfg};
/// let cfg = Cfg::build(&mpl_lang::parse_program("x := 1; y := x; print y;")?);
/// let live = live_on_entry(&cfg);
/// let first = cfg.sole_succ(cfg.entry());
/// assert!(live[first.0 as usize].is_empty()); // x := 1 reads nothing
/// # Ok::<(), mpl_lang::ParseError>(())
/// ```
#[must_use]
pub fn live_on_entry(cfg: &Cfg) -> Vec<BTreeSet<String>> {
    let live_out = solve_backward(cfg, &Liveness);
    cfg.node_ids()
        .zip(&live_out)
        .map(|(id, out)| Liveness.transfer(cfg, id, EdgeKind::Seq, out).names)
        .collect()
}
