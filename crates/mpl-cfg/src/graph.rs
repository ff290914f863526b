//! CFG representation and construction from the MPL AST.

use std::fmt;

use mpl_lang::ast::{BinOp, Expr, Program, Stmt, StmtKind};
use mpl_lang::token::Span;

/// An index identifying a node of a [`Cfg`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CfgNodeId(pub u32);

impl fmt::Display for CfgNodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// The statement (or pseudo-statement) a CFG node executes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CfgNode {
    /// Program entry; the unique starting node of every process.
    Entry,
    /// Program exit; the paper's `End` node. Process sets that reach it
    /// block there until the end of the analysis.
    Exit,
    /// `name := value`
    Assign { name: String, value: Expr },
    /// A two-way branch on `cond`; successors are labelled
    /// [`EdgeKind::True`] and [`EdgeKind::False`].
    Branch { cond: Expr },
    /// `send value -> dest`
    Send { value: Expr, dest: Expr },
    /// `recv var <- src`
    Recv { var: String, src: Expr },
    /// `print expr`
    Print(Expr),
    /// `assume expr` — a fact the analysis may incorporate.
    Assume(Expr),
    /// `skip`
    Skip,
}

impl CfgNode {
    /// True if this node is a communication operation (the paper's
    /// `isCommOp`).
    #[must_use]
    pub fn is_comm_op(&self) -> bool {
        matches!(self, CfgNode::Send { .. } | CfgNode::Recv { .. })
    }
}

impl fmt::Display for CfgNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CfgNode::Entry => f.write_str("entry"),
            CfgNode::Exit => f.write_str("exit"),
            CfgNode::Assign { name, value } => write!(f, "{name} := {value}"),
            CfgNode::Branch { cond } => write!(f, "branch {cond}"),
            CfgNode::Send { value, dest } => write!(f, "send {value} -> {dest}"),
            CfgNode::Recv { var, src } => write!(f, "recv {var} <- {src}"),
            CfgNode::Print(e) => write!(f, "print {e}"),
            CfgNode::Assume(e) => write!(f, "assume {e}"),
            CfgNode::Skip => f.write_str("skip"),
        }
    }
}

/// The label on a CFG edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeKind {
    /// Unconditional fall-through.
    Seq,
    /// Branch taken (condition true).
    True,
    /// Branch not taken (condition false).
    False,
}

impl fmt::Display for EdgeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EdgeKind::Seq => f.write_str(""),
            EdgeKind::True => f.write_str("T"),
            EdgeKind::False => f.write_str("F"),
        }
    }
}

/// A control-flow graph for an MPL program.
///
/// Node 0 is always [`CfgNode::Entry`] and node 1 is always
/// [`CfgNode::Exit`]. `for` loops are desugared into an initializing
/// assignment, a `while`-style branch on `var <= bound`, and an increment
/// — exactly the loop structure the paper's Figure 5 walk-through assumes
/// (`i = np` holds on the loop's exit edge by combining the entry and exit
/// branch conditions).
///
/// The graph is stored flat: one table each of nodes and spans, and the
/// edges twice in compressed sparse rows, once by source (`succs`) and
/// once by target (`preds`). Node `i`'s outgoing edges are
/// `succs[succ_at[i]..succ_at[i + 1]]`, its incoming ones likewise, each
/// in the order the build added them. Every table is sized exactly once.
#[derive(Debug, Clone)]
pub struct Cfg {
    nodes: Box<[CfgNode]>,
    spans: Box<[Span]>,
    succ_at: Box<[u32]>,
    succs: Box<[Edge]>,
    pred_at: Box<[u32]>,
    preds: Box<[Edge]>,
}

/// One end of an edge, as a row of [`Cfg`] lists it: the label and the
/// node at the other end.
type Edge = (EdgeKind, CfgNodeId);

/// The entry node id (always 0).
pub const ENTRY: CfgNodeId = CfgNodeId(0);
/// The exit node id (always 1).
pub const EXIT: CfgNodeId = CfgNodeId(1);

/// The nodes and edges (from, label, to) a [`Cfg`] is lowered into, in
/// the order they are added, before the edges are sorted into rows.
struct Builder {
    nodes: Vec<CfgNode>,
    spans: Vec<Span>,
    edges: Vec<(CfgNodeId, EdgeKind, CfgNodeId)>,
}

impl Cfg {
    /// Builds the CFG for `program`.
    ///
    /// # Panics
    ///
    /// Panics if the program has more than `u32::MAX` nodes or edges.
    #[must_use]
    pub fn build(program: &Program) -> Cfg {
        let (nodes, edges) = Builder::count(&program.stmts);
        assert!(u32::try_from(2 + nodes.max(edges)).is_ok(), "CFG too large");
        let mut b = Builder {
            nodes: Vec::with_capacity(2 + nodes),
            spans: Vec::with_capacity(2 + nodes),
            edges: Vec::with_capacity(1 + edges),
        };
        let entry = b.add_node(CfgNode::Entry, Span::default());
        let exit = b.add_node(CfgNode::Exit, Span::default());
        debug_assert_eq!(entry, ENTRY);
        debug_assert_eq!(exit, EXIT);
        let (from, kind) = b.lower_block(&program.stmts, entry, EdgeKind::Seq);
        b.add_edge(from, kind, exit);
        debug_assert_eq!(b.nodes.len(), b.nodes.capacity());
        debug_assert_eq!(b.edges.len(), b.edges.capacity());
        let n = b.nodes.len();
        let (succ_at, succs) = rows(
            n,
            b.edges.iter().map(|&(from, kind, to)| (from, (kind, to))),
        );
        let (pred_at, preds) = rows(
            n,
            b.edges.iter().map(|&(from, kind, to)| (to, (kind, from))),
        );
        Cfg {
            nodes: b.nodes.into_boxed_slice(),
            spans: b.spans.into_boxed_slice(),
            succ_at,
            succs,
            pred_at,
            preds,
        }
    }
}

/// Sorts `edges`, each `(row, entry)`, into compressed sparse rows over
/// `n` rows: the row offsets (`n + 1` of them) and the entries, each
/// row's in the order `edges` gave them (a stable counting sort).
fn rows(
    n: usize,
    edges: impl Iterator<Item = (CfgNodeId, Edge)> + Clone,
) -> (Box<[u32]>, Box<[Edge]>) {
    let mut at = vec![0u32; n + 1].into_boxed_slice();
    for (row, _) in edges.clone() {
        at[row.0 as usize + 1] += 1;
    }
    for i in 1..=n {
        at[i] += at[i - 1];
    }
    let mut next = at[..n].to_vec();
    let mut entries = vec![(EdgeKind::Seq, ENTRY); at[n] as usize].into_boxed_slice();
    for (row, entry) in edges {
        let slot = &mut next[row.0 as usize];
        entries[*slot as usize] = entry;
        *slot += 1;
    }
    (at, entries)
}

impl Builder {
    /// The nodes and edges lowering `stmts` adds, entry, exit and the
    /// edge into exit not included.
    fn count(stmts: &[Stmt]) -> (usize, usize) {
        stmts.iter().fold((0, 0), |(nodes, edges), stmt| {
            let (n, e) = match &stmt.kind {
                StmtKind::If {
                    then_branch,
                    else_branch,
                    ..
                } => {
                    let (tn, te) = Self::count(then_branch);
                    let (en, ee) = Self::count(else_branch);
                    (2 + tn + en, 3 + te + ee)
                }
                StmtKind::While { body, .. } => {
                    let (bn, be) = Self::count(body);
                    (1 + bn, 2 + be)
                }
                StmtKind::For { body, .. } => {
                    let (bn, be) = Self::count(body);
                    (3 + bn, 4 + be)
                }
                _ => (1, 1),
            };
            (nodes + n, edges + e)
        })
    }

    fn add_node(&mut self, node: CfgNode, span: Span) -> CfgNodeId {
        let id = CfgNodeId(u32::try_from(self.nodes.len()).expect("CFG too large"));
        self.nodes.push(node);
        self.spans.push(span);
        id
    }

    fn add_edge(&mut self, from: CfgNodeId, kind: EdgeKind, to: CfgNodeId) {
        self.edges.push((from, kind, to));
    }

    /// Lowers a statement block. `pred`/`kind` describe the dangling edge
    /// entering the block; returns the dangling edge leaving it.
    fn lower_block(
        &mut self,
        stmts: &[Stmt],
        mut pred: CfgNodeId,
        mut kind: EdgeKind,
    ) -> (CfgNodeId, EdgeKind) {
        for stmt in stmts {
            let (p, k) = self.lower_stmt(stmt, pred, kind);
            pred = p;
            kind = k;
        }
        (pred, kind)
    }

    fn lower_stmt(
        &mut self,
        stmt: &Stmt,
        pred: CfgNodeId,
        kind: EdgeKind,
    ) -> (CfgNodeId, EdgeKind) {
        match &stmt.kind {
            StmtKind::Assign { name, value } => {
                let n = self.add_node(
                    CfgNode::Assign {
                        name: name.clone(),
                        value: value.clone(),
                    },
                    stmt.span,
                );
                self.add_edge(pred, kind, n);
                (n, EdgeKind::Seq)
            }
            StmtKind::Send { value, dest } => {
                let n = self.add_node(
                    CfgNode::Send {
                        value: value.clone(),
                        dest: dest.clone(),
                    },
                    stmt.span,
                );
                self.add_edge(pred, kind, n);
                (n, EdgeKind::Seq)
            }
            StmtKind::Recv { var, src } => {
                let n = self.add_node(
                    CfgNode::Recv {
                        var: var.clone(),
                        src: src.clone(),
                    },
                    stmt.span,
                );
                self.add_edge(pred, kind, n);
                (n, EdgeKind::Seq)
            }
            StmtKind::Print(e) => {
                let n = self.add_node(CfgNode::Print(e.clone()), stmt.span);
                self.add_edge(pred, kind, n);
                (n, EdgeKind::Seq)
            }
            StmtKind::Assume(e) => {
                let n = self.add_node(CfgNode::Assume(e.clone()), stmt.span);
                self.add_edge(pred, kind, n);
                (n, EdgeKind::Seq)
            }
            StmtKind::Skip => {
                let n = self.add_node(CfgNode::Skip, stmt.span);
                self.add_edge(pred, kind, n);
                (n, EdgeKind::Seq)
            }
            StmtKind::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let b = self.add_node(CfgNode::Branch { cond: cond.clone() }, stmt.span);
                self.add_edge(pred, kind, b);
                // Join node so both arms re-converge at a single point.
                let join = self.add_node(CfgNode::Skip, stmt.span);
                let (tp, tk) = self.lower_block(then_branch, b, EdgeKind::True);
                self.add_edge(tp, tk, join);
                let (ep, ek) = self.lower_block(else_branch, b, EdgeKind::False);
                self.add_edge(ep, ek, join);
                (join, EdgeKind::Seq)
            }
            StmtKind::While { cond, body } => {
                let b = self.add_node(CfgNode::Branch { cond: cond.clone() }, stmt.span);
                self.add_edge(pred, kind, b);
                let (bp, bk) = self.lower_block(body, b, EdgeKind::True);
                self.add_edge(bp, bk, b);
                (b, EdgeKind::False)
            }
            StmtKind::For {
                var,
                from,
                to,
                body,
            } => {
                // Desugar: var := from; while var <= to do body; var := var + 1; end
                let init = self.add_node(
                    CfgNode::Assign {
                        name: var.clone(),
                        value: from.clone(),
                    },
                    stmt.span,
                );
                self.add_edge(pred, kind, init);
                let cond = Expr::binary(BinOp::Le, Expr::var(var.clone()), to.clone());
                let b = self.add_node(CfgNode::Branch { cond }, stmt.span);
                self.add_edge(init, EdgeKind::Seq, b);
                let (bp, bk) = self.lower_block(body, b, EdgeKind::True);
                let inc = self.add_node(
                    CfgNode::Assign {
                        name: var.clone(),
                        value: Expr::binary(BinOp::Add, Expr::var(var.clone()), Expr::Int(1)),
                    },
                    stmt.span,
                );
                self.add_edge(bp, bk, inc);
                self.add_edge(inc, EdgeKind::Seq, b);
                (b, EdgeKind::False)
            }
        }
    }
}

impl Cfg {
    /// The entry node id.
    #[must_use]
    pub fn entry(&self) -> CfgNodeId {
        ENTRY
    }

    /// The exit node id.
    #[must_use]
    pub fn exit(&self) -> CfgNodeId {
        EXIT
    }

    /// Number of nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The statement at `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this graph.
    #[must_use]
    pub fn node(&self, id: CfgNodeId) -> &CfgNode {
        &self.nodes[id.0 as usize]
    }

    /// The source span of the statement at `id` (empty for entry/exit and
    /// synthesized nodes).
    #[must_use]
    pub fn span(&self, id: CfgNodeId) -> Span {
        self.spans[id.0 as usize]
    }

    /// Outgoing edges of `id`, in the order the build added them.
    #[must_use]
    pub fn succs(&self, id: CfgNodeId) -> &[(EdgeKind, CfgNodeId)] {
        let i = id.0 as usize;
        &self.succs[self.succ_at[i] as usize..self.succ_at[i + 1] as usize]
    }

    /// Incoming edges of `id`, in the order the build added them.
    #[must_use]
    pub fn preds(&self, id: CfgNodeId) -> &[(EdgeKind, CfgNodeId)] {
        let i = id.0 as usize;
        &self.preds[self.pred_at[i] as usize..self.pred_at[i + 1] as usize]
    }

    /// Iterates over all node ids in index order.
    pub fn node_ids(&self) -> impl Iterator<Item = CfgNodeId> + '_ {
        (0..self.nodes.len()).map(|i| CfgNodeId(i as u32))
    }

    /// The unique successor of a non-branch node.
    ///
    /// # Panics
    ///
    /// Panics if the node does not have exactly one successor.
    #[must_use]
    pub fn sole_succ(&self, id: CfgNodeId) -> CfgNodeId {
        let succs = self.succs(id);
        assert_eq!(
            succs.len(),
            1,
            "node {id} ({}) has {} successors",
            self.node(id),
            succs.len()
        );
        succs[0].1
    }

    /// The successor reached along the edge labelled `kind` out of a
    /// branch node, if any.
    #[must_use]
    pub fn succ_along(&self, id: CfgNodeId, kind: EdgeKind) -> Option<CfgNodeId> {
        self.succs(id)
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|&(_, t)| t)
    }

    /// All send and receive node ids.
    #[must_use]
    pub fn comm_nodes(&self) -> Vec<CfgNodeId> {
        self.node_ids()
            .filter(|&id| self.node(id).is_comm_op())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpl_lang::parse_program;

    fn cfg_of(src: &str) -> Cfg {
        Cfg::build(&parse_program(src).unwrap())
    }

    #[test]
    fn straight_line_chains_to_exit() {
        let cfg = cfg_of("x := 1; y := 2;");
        // entry -> assign -> assign -> exit
        let a = cfg.sole_succ(cfg.entry());
        assert!(matches!(cfg.node(a), CfgNode::Assign { name, .. } if name == "x"));
        let b = cfg.sole_succ(a);
        assert!(matches!(cfg.node(b), CfgNode::Assign { name, .. } if name == "y"));
        assert_eq!(cfg.sole_succ(b), cfg.exit());
    }

    #[test]
    fn empty_program_connects_entry_to_exit() {
        let cfg = cfg_of("");
        assert_eq!(cfg.sole_succ(cfg.entry()), cfg.exit());
        assert_eq!(cfg.node_count(), 2);
    }

    #[test]
    fn if_has_true_false_edges_and_join() {
        let cfg = cfg_of("if id = 0 then x := 1; else x := 2; end");
        let b = cfg.sole_succ(cfg.entry());
        assert!(matches!(cfg.node(b), CfgNode::Branch { .. }));
        let t = cfg.succ_along(b, EdgeKind::True).unwrap();
        let f = cfg.succ_along(b, EdgeKind::False).unwrap();
        assert!(matches!(cfg.node(t), CfgNode::Assign { .. }));
        assert!(matches!(cfg.node(f), CfgNode::Assign { .. }));
        // Both arms rejoin at the same node.
        assert_eq!(cfg.sole_succ(t), cfg.sole_succ(f));
    }

    #[test]
    fn if_without_else_false_edge_reaches_join() {
        let cfg = cfg_of("if id = 0 then x := 1; end y := 2;");
        let b = cfg.sole_succ(cfg.entry());
        let f = cfg.succ_along(b, EdgeKind::False).unwrap();
        // False edge goes directly to the join skip node.
        assert!(matches!(cfg.node(f), CfgNode::Skip));
    }

    #[test]
    fn while_loop_has_back_edge() {
        let cfg = cfg_of("while x < 3 do x := x + 1; end");
        let b = cfg.sole_succ(cfg.entry());
        assert!(matches!(cfg.node(b), CfgNode::Branch { .. }));
        let body = cfg.succ_along(b, EdgeKind::True).unwrap();
        // Body's successor loops back to the branch.
        assert_eq!(cfg.sole_succ(body), b);
        // False edge exits.
        assert_eq!(cfg.succ_along(b, EdgeKind::False).unwrap(), cfg.exit());
    }

    #[test]
    fn for_loop_desugars_to_init_branch_increment() {
        let cfg = cfg_of("for i = 1 to np - 1 do send 0 -> i; end");
        let init = cfg.sole_succ(cfg.entry());
        assert!(matches!(cfg.node(init), CfgNode::Assign { name, .. } if name == "i"));
        let b = cfg.sole_succ(init);
        let CfgNode::Branch { cond } = cfg.node(b) else {
            panic!("expected branch")
        };
        assert_eq!(cond.to_string(), "(i <= (np - 1))");
        let send = cfg.succ_along(b, EdgeKind::True).unwrap();
        assert!(cfg.node(send).is_comm_op());
        let inc = cfg.sole_succ(send);
        assert!(matches!(cfg.node(inc), CfgNode::Assign { name, .. } if name == "i"));
        assert_eq!(cfg.sole_succ(inc), b);
    }

    #[test]
    fn comm_nodes_found() {
        let cfg = cfg_of("send 1 -> 0; recv x <- 2; print x;");
        assert_eq!(cfg.comm_nodes().len(), 2);
    }

    #[test]
    fn preds_mirror_succs() {
        let cfg = cfg_of("if id = 0 then send 1 -> 1; else recv x <- 0; end");
        for id in cfg.node_ids() {
            for &(kind, succ) in cfg.succs(id) {
                assert!(cfg.preds(succ).contains(&(kind, id)));
            }
        }
    }

    /// A node's edges as `(label, node)` pairs, labelled `S`, `T` or `F`.
    type Row = Vec<(char, u32)>;

    /// Every node's successors and predecessors.
    fn edge_lists(cfg: &Cfg) -> (Vec<Row>, Vec<Row>) {
        let list = |edges: &[Edge]| {
            edges
                .iter()
                .map(|&(kind, node)| {
                    let label = match kind {
                        EdgeKind::Seq => 'S',
                        EdgeKind::True => 'T',
                        EdgeKind::False => 'F',
                    };
                    (label, node.0)
                })
                .collect::<Vec<_>>()
        };
        let succs = cfg.node_ids().map(|id| list(cfg.succs(id))).collect();
        let preds = cfg.node_ids().map(|id| list(cfg.preds(id))).collect();
        (succs, preds)
    }

    /// A diamond: the branch lists its true edge before its false edge,
    /// and the join its then-arm before its else-arm.
    #[test]
    fn diamond_edges_keep_their_order() {
        // 2 branch, 3 join, 4 then-arm, 5 else-arm.
        let (succs, preds) = edge_lists(&cfg_of("if id = 0 then x := 1; else x := 2; end"));
        assert_eq!(
            succs,
            [
                vec![('S', 2)],
                vec![],
                vec![('T', 4), ('F', 5)],
                vec![('S', 1)],
                vec![('S', 3)],
                vec![('S', 3)],
            ]
        );
        assert_eq!(
            preds,
            [
                vec![],
                vec![('S', 3)],
                vec![('S', 0)],
                vec![('S', 4), ('S', 5)],
                vec![('T', 2)],
                vec![('F', 2)],
            ]
        );
    }

    /// A `while` header lists the edge into the loop before the back
    /// edge; an empty body is a self loop on the true edge.
    #[test]
    fn while_back_edges_keep_their_order() {
        // 2 `x := 0`, 3 branch, 4 body, 5 print.
        let cfg = cfg_of("x := 0; while x < 3 do x := x + 1; end print x;");
        let (succs, preds) = edge_lists(&cfg);
        assert_eq!(succs[3], [('T', 4), ('F', 5)]);
        assert_eq!(preds[3], [('S', 2), ('S', 4)]);
        assert_eq!(succs[4], [('S', 3)]);
        assert_eq!(preds[5], [('F', 3)]);
        let (succs, preds) = edge_lists(&cfg_of("while c do end"));
        assert_eq!(succs, [vec![('S', 2)], vec![], vec![('T', 2), ('F', 1)]]);
        assert_eq!(preds, [vec![], vec![('F', 2)], vec![('S', 0), ('T', 2)]]);
    }

    /// A `for` loop: init, branch, body, increment, with the increment's
    /// back edge listed after the init edge at the branch.
    #[test]
    fn for_loop_edges_keep_their_order() {
        // 2 init, 3 branch, 4 send, 5 increment.
        let (succs, preds) = edge_lists(&cfg_of("for i = 1 to np do send 0 -> i; end"));
        assert_eq!(
            succs,
            [
                vec![('S', 2)],
                vec![],
                vec![('S', 3)],
                vec![('T', 4), ('F', 1)],
                vec![('S', 5)],
                vec![('S', 3)],
            ]
        );
        assert_eq!(
            preds,
            [
                vec![],
                vec![('F', 3)],
                vec![('S', 0)],
                vec![('S', 2), ('S', 5)],
                vec![('T', 3)],
                vec![('S', 4)],
            ]
        );
    }

    /// Nested `if`s: each join lists its predecessors in the order the
    /// arms were lowered, an arm's own join before the outer else-arm.
    #[test]
    fn nested_if_edges_keep_their_order() {
        // 2 outer branch, 3 outer join, 4 inner branch, 5 inner join,
        // 6 `x := 1`, 7 `y := 2`.
        let (succs, preds) =
            edge_lists(&cfg_of("if a then if b then x := 1; end else y := 2; end"));
        assert_eq!(
            succs,
            [
                vec![('S', 2)],
                vec![],
                vec![('T', 4), ('F', 7)],
                vec![('S', 1)],
                vec![('T', 6), ('F', 5)],
                vec![('S', 3)],
                vec![('S', 5)],
                vec![('S', 3)],
            ]
        );
        assert_eq!(
            preds,
            [
                vec![],
                vec![('S', 3)],
                vec![('S', 0)],
                vec![('S', 5), ('S', 7)],
                vec![('T', 2)],
                vec![('S', 6), ('F', 4)],
                vec![('T', 4)],
                vec![('F', 2)],
            ]
        );
    }

    /// `preds` lists exactly the edges `succs` lists, seen from the other
    /// end, on the corpus and on generated programs of every size shape.
    #[test]
    fn preds_mirror_succs_on_the_corpus_and_generated_programs() {
        let mut programs = mpl_lang::corpus::all();
        for k in [1, 8, 64, 1024] {
            programs.push(mpl_lang::corpus::repeated_exchanges(k));
        }
        for n in [1, 8, 48] {
            programs.push(mpl_lang::corpus::exchange_with_root_wide(n));
            programs.push(mpl_lang::corpus::exchange_with_root_wide_live(n));
        }
        for prog in programs {
            let cfg = Cfg::build(&prog.program);
            let mut forward = Vec::new();
            let mut backward = Vec::new();
            for id in cfg.node_ids() {
                forward.extend(cfg.succs(id).iter().map(|&(kind, to)| (id, kind, to)));
                backward.extend(cfg.preds(id).iter().map(|&(kind, from)| (from, kind, id)));
            }
            let key = |&(from, kind, to): &(CfgNodeId, EdgeKind, CfgNodeId)| (from, to, kind as u8);
            forward.sort_by_key(key);
            backward.sort_by_key(key);
            assert_eq!(forward, backward, "{}", prog.name);
            assert!(cfg.preds(cfg.entry()).is_empty(), "{}", prog.name);
            assert!(cfg.succs(cfg.exit()).is_empty(), "{}", prog.name);
        }
    }

    #[test]
    fn exit_has_no_successors() {
        let cfg = cfg_of("x := 1; if x = 1 then skip; end");
        assert!(cfg.succs(cfg.exit()).is_empty());
    }

    #[test]
    fn spans_preserved_for_diagnostics() {
        let cfg = cfg_of("x := 1;\nsend x -> 1;");
        let send = cfg.comm_nodes()[0];
        assert_eq!(cfg.span(send).line, 2);
    }
}
