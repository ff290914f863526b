//! Normalization of MPL expressions into analysis-level forms:
//! linear expressions over namespaced variables, branch-condition
//! refinements, and symbolic (polynomial) values for the HSM client.

use std::collections::{BTreeSet, HashSet};

use mpl_cfg::{Cfg, CfgNode, CfgNodeId};
use mpl_domains::{intern_name, ConstraintGraph, LinExpr, PsetId, VarId, VarKind};
use mpl_hsm::SymPoly;
use mpl_lang::ast::{BinOp, Expr, UnOp};

/// The largest constant magnitude the analysis admits. A literal or
/// folded constant beyond it counts as not linear and not constant —
/// sound, since it only forgets a fact — so every offset entering the
/// constraint graph stays far from `i64` overflow in its bound
/// arithmetic (2^40, about 10^12; MPL ranks and loop bounds are tiny).
pub const MAX_CONST: i64 = 1 << 40;

/// `c` if it is within [`MAX_CONST`].
fn admitted(c: i64) -> Option<i64> {
    (-MAX_CONST..=MAX_CONST).contains(&c).then_some(c)
}

/// Static context shared by all transfer functions: which variable names
/// are ever assigned (assigned → per-process-set variable; never assigned
/// → uniform global input parameter, shared by all processes). Assigned
/// names are pre-interned so [`NormCtx::var`] — the hottest name lookup
/// in the engine — is one interner probe plus bit packing, with no
/// string allocation.
#[derive(Debug, Clone, Default)]
pub struct NormCtx {
    assigned: BTreeSet<String>,
    assigned_idx: HashSet<u32>,
}

impl NormCtx {
    /// Scans the CFG for assignment and receive targets.
    #[must_use]
    pub fn from_cfg(cfg: &Cfg) -> NormCtx {
        let mut assigned = BTreeSet::new();
        let mut mentioned = BTreeSet::new();
        let mut collect = |e: &Expr| collect_var_names(e, &mut mentioned);
        for id in cfg.node_ids() {
            match cfg.node(id) {
                CfgNode::Assign { name, value } => {
                    assigned.insert(name.clone());
                    collect(value);
                }
                CfgNode::Recv { var: name, src } => {
                    assigned.insert(name.clone());
                    collect(src);
                }
                CfgNode::Send { value, dest } => {
                    collect(value);
                    collect(dest);
                }
                CfgNode::Branch { cond } => collect(cond),
                CfgNode::Print(e) | CfgNode::Assume(e) => collect(e),
                CfgNode::Entry | CfgNode::Exit | CfgNode::Skip => {}
            }
        }
        // Pre-intern every name the program can mention: assigned names
        // first (keeping their historical indices), then the remaining
        // input parameters in sorted order. With the whole vocabulary
        // interned up front, no transfer function ever grows the table, so
        // a name's `VarId` does not depend on the order states are
        // explored in.
        let assigned_idx: HashSet<u32> = assigned.iter().map(|n| intern_name(n)).collect();
        for name in mentioned.difference(&assigned) {
            let _ = intern_name(name);
        }
        NormCtx {
            assigned,
            assigned_idx,
        }
    }

    /// True if `name` is a never-assigned input parameter.
    #[must_use]
    pub fn is_input(&self, name: &str) -> bool {
        !self.assigned.contains(name)
    }

    /// The interned variable for `name` as seen by process set `pset`.
    #[must_use]
    pub fn var(&self, pset: PsetId, name: &str) -> VarId {
        let idx = intern_name(name);
        if self.assigned_idx.contains(&idx) {
            VarId::pset_var(pset, idx)
        } else {
            VarId::global(idx)
        }
    }

    /// Linearizes `expr` (as evaluated by process set `pset`) into
    /// `var + c` form, folding constant subtrees. Returns `None` for
    /// expressions outside the linear fragment.
    #[must_use]
    pub fn linearize(&self, expr: &Expr, pset: PsetId) -> Option<LinExpr> {
        match expr {
            Expr::Int(c) => admitted(*c).map(LinExpr::constant),
            Expr::Bool(b) => Some(LinExpr::constant(i64::from(*b))),
            Expr::Id => Some(LinExpr::of_var(VarId::id_of(pset))),
            Expr::Np => Some(LinExpr::of_var(VarId::NP)),
            Expr::Var(name) => Some(LinExpr::of_var(self.var(pset, name))),
            Expr::Unary(op @ UnOp::Neg, e) => {
                let c = self.linearize(e, pset)?.as_constant()?;
                Some(LinExpr::constant(op.eval(c)))
            }
            Expr::Unary(UnOp::Not, _) => None,
            Expr::Binary(op, l, r) => {
                let (l, r) = (self.linearize(l, pset)?, self.linearize(r, pset)?);
                let lin = match (op, l.as_constant(), r.as_constant()) {
                    (op, Some(a), Some(b)) if !op.is_boolean() => LinExpr::constant(op.eval(a, b)?),
                    (BinOp::Add, _, Some(c)) => l.plus(c),
                    (BinOp::Add, Some(c), _) => r.plus(c),
                    // c - (v + d) is not var+c form; only a constant
                    // subtrahend keeps the expression linear.
                    (BinOp::Sub, _, Some(c)) => l.plus(-c),
                    (BinOp::Mul, Some(1), _) => r,
                    (BinOp::Mul | BinOp::Div, _, Some(1)) => l,
                    (BinOp::Mul, Some(0), _) | (BinOp::Mul, _, Some(0)) => LinExpr::constant(0),
                    _ => return None,
                };
                admitted(lin.offset).map(|_| lin)
            }
        }
    }

    /// Replaces every variable (and `np`) whose value the graph pins to a
    /// constant by that constant, so syntactically non-linear expressions
    /// like `id + ncols` or `np - ncols` become linear once the grid
    /// dimensions are concrete.
    #[must_use]
    pub fn resolve_consts(&self, expr: &Expr, pset: PsetId, cg: &ConstraintGraph) -> Expr {
        match expr {
            Expr::Var(name) => match cg.const_of(self.var(pset, name)) {
                Some(c) => Expr::Int(c),
                None => expr.clone(),
            },
            Expr::Np => match cg.const_of(VarId::NP) {
                Some(c) => Expr::Int(c),
                None => Expr::Np,
            },
            Expr::Binary(op, l, r) => Expr::binary(
                *op,
                self.resolve_consts(l, pset, cg),
                self.resolve_consts(r, pset, cg),
            ),
            Expr::Unary(op, e) => Expr::Unary(*op, Box::new(self.resolve_consts(e, pset, cg))),
            _ => expr.clone(),
        }
    }

    /// [`NormCtx::linearize`] after [`NormCtx::resolve_consts`].
    #[must_use]
    pub fn linearize_resolved(
        &self,
        expr: &Expr,
        pset: PsetId,
        cg: &ConstraintGraph,
    ) -> Option<LinExpr> {
        let resolved = self.resolve_consts(expr, pset, cg);
        self.linearize(&resolved, pset)
    }

    /// Evaluates `expr` (as process set `pset` sees it) to a constant,
    /// reading every name the graph pins — variables, the set's `id`
    /// and `np` alike — and folding operators through
    /// [`BinOp::eval`]/[`UnOp::eval`]. Any value beyond [`MAX_CONST`]
    /// counts as unknown.
    #[must_use]
    pub fn eval_const(&self, expr: &Expr, pset: PsetId, cg: &ConstraintGraph) -> Option<i64> {
        admitted(match expr {
            Expr::Int(c) => *c,
            Expr::Bool(b) => i64::from(*b),
            Expr::Id => cg.const_of(VarId::id_of(pset))?,
            Expr::Np => cg.const_of(VarId::NP)?,
            Expr::Var(name) => cg.const_of(self.var(pset, name))?,
            Expr::Unary(op, e) => op.eval(self.eval_const(e, pset, cg)?),
            Expr::Binary(op, l, r) => {
                op.eval(self.eval_const(l, pset, cg)?, self.eval_const(r, pset, cg)?)?
            }
        })
    }

    /// Extracts the atomic linear comparisons implied by `cond` holding
    /// (`negate = false`) or failing (`negate = true`), for constraint
    /// refinement. Conjunctions refine only positively; anything outside
    /// the fragment contributes nothing (sound: refinement is optional).
    pub fn refinements(
        &self,
        cond: &Expr,
        pset: PsetId,
        negate: bool,
    ) -> Vec<(LinExpr, LinExpr, RelOp)> {
        let mut out = Vec::new();
        self.collect_refinements(cond, pset, negate, &mut out);
        out
    }

    fn collect_refinements(
        &self,
        cond: &Expr,
        pset: PsetId,
        negate: bool,
        out: &mut Vec<(LinExpr, LinExpr, RelOp)>,
    ) {
        match cond {
            Expr::Binary(BinOp::And, l, r) if !negate => {
                self.collect_refinements(l, pset, false, out);
                self.collect_refinements(r, pset, false, out);
            }
            Expr::Binary(BinOp::Or, l, r) if negate => {
                // ¬(a ∨ b) = ¬a ∧ ¬b
                self.collect_refinements(l, pset, true, out);
                self.collect_refinements(r, pset, true, out);
            }
            Expr::Unary(UnOp::Not, e) => self.collect_refinements(e, pset, !negate, out),
            Expr::Binary(op, l, r) => {
                let Some(rel) = RelOp::from_binop(*op) else {
                    return;
                };
                let (Some(le), Some(re)) = (self.linearize(l, pset), self.linearize(r, pset))
                else {
                    return;
                };
                let rel = if negate { rel.negated() } else { Some(rel) };
                if let Some(rel) = rel {
                    out.push((le, re, rel));
                }
            }
            _ => {}
        }
    }

    /// Applies comparison refinements to the constraint graph.
    pub fn apply_refinements(
        &self,
        cg: &mut ConstraintGraph,
        refinements: &[(LinExpr, LinExpr, RelOp)],
    ) {
        for (l, r, rel) in refinements {
            let lv = l.var.unwrap_or(VarId::ZERO);
            let rv = r.var.unwrap_or(VarId::ZERO);
            // l.var + l.off REL r.var + r.off
            let delta = r.offset - l.offset;
            match rel {
                RelOp::Eq => cg.assert_eq_offset(lv, rv, delta),
                RelOp::Le => cg.assert_le(lv, rv, delta),
                RelOp::Lt => cg.assert_le(lv, rv, delta - 1),
                RelOp::Ge => cg.assert_le(rv, lv, -delta),
                RelOp::Gt => cg.assert_le(rv, lv, -delta - 1),
            }
        }
    }

    /// Converts a linear expression to a symbolic polynomial for the HSM
    /// client. Only globals, `np` and constants survive; per-set
    /// variables must first be proven equal to one of those.
    #[must_use]
    pub fn linexpr_to_poly(e: &LinExpr) -> Option<SymPoly> {
        let base = match e.var.map(VarId::kind) {
            None | Some(VarKind::Zero) => SymPoly::zero(),
            Some(VarKind::Np) => SymPoly::sym("np"),
            Some(VarKind::Global(g)) => {
                SymPoly::sym(mpl_domains::with_table(|t| t.name(g).to_owned()))
            }
            Some(VarKind::Pset(..)) => return None,
        };
        Some(base + SymPoly::constant(e.offset))
    }
}

/// The names live on entry to each CFG node ([`mpl_cfg::liveness`]) and
/// the names each node reads, interned once per run (after
/// [`NormCtx::from_cfg`] has fixed the vocabulary) so the engine's
/// dead-variable projection tests a variable by its name index alone.
#[derive(Debug, Clone, Default)]
pub struct LiveNames {
    /// Sorted name indices live on entry, per node id.
    live: Vec<Vec<u32>>,
    /// Sorted name indices the node's own statement reads, per node id.
    reads: Vec<Vec<u32>>,
}

impl LiveNames {
    /// Solves liveness over `cfg` and interns the result.
    #[must_use]
    pub fn from_cfg(cfg: &Cfg) -> LiveNames {
        fn interned<'a>(names: impl IntoIterator<Item = &'a str>) -> Vec<u32> {
            let mut idx: Vec<u32> = names.into_iter().map(intern_name).collect();
            idx.sort_unstable();
            idx.dedup();
            idx
        }
        LiveNames {
            live: mpl_cfg::liveness::live_on_entry(cfg)
                .iter()
                .map(|names| interned(names.iter().map(String::as_str)))
                .collect(),
            reads: cfg
                .node_ids()
                .map(|id| interned(mpl_cfg::liveness::reads(cfg.node(id))))
                .collect(),
        }
    }

    /// True if the name with index `name` is live on entry to `node`.
    #[must_use]
    pub fn is_live(&self, node: CfgNodeId, name: u32) -> bool {
        self.live[node.0 as usize].binary_search(&name).is_ok()
    }

    /// True if `node`'s own statement reads the name with index `name`.
    #[must_use]
    pub fn is_read(&self, node: CfgNodeId, name: u32) -> bool {
        self.reads[node.0 as usize].binary_search(&name).is_ok()
    }
}

/// Collects every `Var` name mentioned in `e` (for vocabulary
/// pre-interning in [`NormCtx::from_cfg`]).
fn collect_var_names(e: &Expr, out: &mut BTreeSet<String>) {
    match e {
        Expr::Var(name) => {
            out.insert(name.clone());
        }
        Expr::Binary(_, l, r) => {
            collect_var_names(l, out);
            collect_var_names(r, out);
        }
        Expr::Unary(_, inner) => collect_var_names(inner, out),
        Expr::Int(_) | Expr::Bool(_) | Expr::Id | Expr::Np => {}
    }
}

/// A comparison operator in a refinement (strictness made explicit).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RelOp {
    Eq,
    Le,
    Lt,
    Ge,
    Gt,
}

impl RelOp {
    fn from_binop(op: BinOp) -> Option<RelOp> {
        match op {
            BinOp::Eq => Some(RelOp::Eq),
            BinOp::Le => Some(RelOp::Le),
            BinOp::Lt => Some(RelOp::Lt),
            BinOp::Ge => Some(RelOp::Ge),
            BinOp::Gt => Some(RelOp::Gt),
            _ => None,
        }
    }

    /// The relation implied by this one failing; `None` for `=` (whose
    /// negation `≠` carries no difference-bound information).
    fn negated(self) -> Option<RelOp> {
        match self {
            RelOp::Eq => None,
            RelOp::Le => Some(RelOp::Gt),
            RelOp::Lt => Some(RelOp::Ge),
            RelOp::Ge => Some(RelOp::Lt),
            RelOp::Gt => Some(RelOp::Le),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpl_cfg::Cfg;
    use mpl_lang::parse_program;

    fn ctx_of(src: &str) -> NormCtx {
        NormCtx::from_cfg(&Cfg::build(&parse_program(src).unwrap()))
    }

    fn expr(src: &str) -> Expr {
        use mpl_lang::ast::StmtKind;
        let p = parse_program(&format!("send 0 -> {src};")).unwrap();
        let StmtKind::Send { dest, .. } = &p.stmts[0].kind else {
            panic!()
        };
        dest.clone()
    }

    const P: PsetId = PsetId(0);

    #[test]
    fn assigned_vs_input_classification() {
        let ctx = ctx_of("x := 1; recv y <- 0; send nrows -> 0;");
        assert!(!ctx.is_input("x"));
        assert!(!ctx.is_input("y"));
        assert!(ctx.is_input("nrows"));
        assert_eq!(ctx.var(P, "x"), VarId::pset_var(P, intern_name("x")));
        assert_eq!(ctx.var(P, "nrows"), VarId::global(intern_name("nrows")));
    }

    #[test]
    fn linearize_basic_forms() {
        let ctx = ctx_of("x := 1;");
        assert_eq!(ctx.linearize(&expr("7"), P), Some(LinExpr::constant(7)));
        assert_eq!(
            ctx.linearize(&expr("id + 1"), P),
            Some(LinExpr::var_plus(VarId::id_of(P), 1))
        );
        assert_eq!(
            ctx.linearize(&expr("np - 1"), P),
            Some(LinExpr::var_plus(VarId::NP, -1))
        );
        assert_eq!(
            ctx.linearize(&expr("x + 2"), P),
            Some(LinExpr::var_plus(VarId::pset_var(P, intern_name("x")), 2))
        );
        assert_eq!(
            ctx.linearize(&expr("2 * 3 + 1"), P),
            Some(LinExpr::constant(7))
        );
    }

    #[test]
    fn linearize_rejects_nonlinear() {
        let ctx = ctx_of("x := 1;");
        assert_eq!(ctx.linearize(&expr("id * 2"), P), None);
        assert_eq!(ctx.linearize(&expr("id % np"), P), None);
        assert_eq!(ctx.linearize(&expr("x + id"), P), None);
        assert_eq!(ctx.linearize(&expr("3 - id"), P), None);
    }

    #[test]
    fn linearize_identity_multiplications() {
        let ctx = ctx_of("x := 1;");
        assert_eq!(
            ctx.linearize(&expr("1 * id"), P),
            Some(LinExpr::of_var(VarId::id_of(P)))
        );
        assert_eq!(
            ctx.linearize(&expr("id * 0"), P),
            Some(LinExpr::constant(0))
        );
        assert_eq!(
            ctx.linearize(&expr("x / 1"), P),
            Some(LinExpr::of_var(VarId::pset_var(P, intern_name("x"))))
        );
    }

    #[test]
    fn refinements_of_conjunction() {
        let ctx = ctx_of("x := 1;");
        let cond = expr("(id >= 1) and (id <= np - 1)");
        let refs = ctx.refinements(&cond, P, false);
        assert_eq!(refs.len(), 2);
        let mut cg = ConstraintGraph::new();
        ctx.apply_refinements(&mut cg, &refs);
        cg.close();
        assert!(cg.implies_le(VarId::id_of(P), VarId::NP, -1));
        assert!(cg.implies_le(VarId::ZERO, VarId::id_of(P), -1));
    }

    #[test]
    fn negated_refinements() {
        let ctx = ctx_of("x := 1;");
        // ¬(id <= 5) → id >= 6
        let refs = ctx.refinements(&expr("id <= 5"), P, true);
        let mut cg = ConstraintGraph::new();
        ctx.apply_refinements(&mut cg, &refs);
        cg.close();
        assert!(cg.implies_le(VarId::ZERO, VarId::id_of(P), -6));
        // ¬(id = 5) carries nothing for a DBM.
        assert!(ctx.refinements(&expr("id = 5"), P, true).is_empty());
    }

    #[test]
    fn eval_const_uses_environment() {
        let ctx = ctx_of("x := 1; y := 2;");
        let mut cg = ConstraintGraph::new();
        cg.assert_eq_const(VarId::pset_var(P, intern_name("x")), 6);
        cg.close();
        assert_eq!(ctx.eval_const(&expr("x * x + 1"), P, &cg), Some(37));
        assert_eq!(ctx.eval_const(&expr("x / 0"), P, &cg), None);
        assert_eq!(ctx.eval_const(&expr("y"), P, &cg), None);
        assert_eq!(ctx.eval_const(&expr("id"), P, &cg), None);
        // A pinned rank and `np` fold like any other name.
        cg.assert_eq_const(VarId::id_of(P), 3);
        cg.close();
        assert_eq!(ctx.eval_const(&expr("id * 2 + np"), P, &cg), None);
        cg.assert_eq_const(VarId::NP, 4);
        cg.close();
        assert_eq!(ctx.eval_const(&expr("id * 2 + np"), P, &cg), Some(10));
    }

    #[test]
    fn linexpr_to_poly_forms() {
        assert_eq!(
            NormCtx::linexpr_to_poly(&LinExpr::var_plus(VarId::NP, -1)),
            Some(SymPoly::sym("np") - SymPoly::constant(1))
        );
        assert_eq!(
            NormCtx::linexpr_to_poly(&LinExpr::constant(4)),
            Some(SymPoly::constant(4))
        );
        assert_eq!(
            NormCtx::linexpr_to_poly(&LinExpr::of_var(VarId::global(intern_name("nrows")))),
            Some(SymPoly::sym("nrows"))
        );
        assert_eq!(
            NormCtx::linexpr_to_poly(&LinExpr::of_var(VarId::pset_var(P, intern_name("i")))),
            None
        );
    }
}
