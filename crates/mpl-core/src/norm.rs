//! Normalization of MPL expressions into analysis-level forms:
//! linear expressions over namespaced variables, branch-condition
//! refinements, and symbolic (polynomial) values for the HSM client.

use std::collections::{BTreeSet, HashSet};
use std::hash::BuildHasherDefault;

use mpl_cfg::{liveness, Cfg, CfgNode, CfgNodeId};
use mpl_domains::{intern_name, ConstraintGraph, FxHasher, LinExpr, PsetId, VarId, VarKind};
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
    assigned_idx: HashSet<u32, BuildHasherDefault<FxHasher>>,
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
                    insert_name(&mut assigned, name);
                    collect(value);
                }
                CfgNode::Recv { var: name, src } => {
                    insert_name(&mut assigned, name);
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
        let assigned_idx = assigned.iter().map(|n| intern_name(n)).collect();
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

/// The names live on entry to each CFG node and the names each node's
/// own statement reads, solved once per run over interned name ids
/// (after [`NormCtx::from_cfg`] has fixed the vocabulary), so the
/// engine's dead-variable projection tests a variable by one bit.
///
/// The equations are [`mpl_cfg::liveness`]'s: `Assign` and `Recv`
/// define their target, every expression of a statement reads its
/// variables, and a name is live on entry to a node when the node reads
/// it, or when it is live on exit and the node does not define it. They
/// are solved backward from the exit over one dense bitset, each name a
/// column and each node two rows, instead of over sets of strings.
#[derive(Debug, Clone, Default)]
pub struct LiveNames {
    /// The column of each interned name index, [`NO_COLUMN`] for a name
    /// the program never mentions.
    column: Vec<u32>,
    /// Words per row.
    words: usize,
    /// Node `n`'s live-on-entry row at word `2n · words`, its read row
    /// right after it.
    bits: Vec<u64>,
}

/// [`LiveNames::column`] of a name the program never mentions.
const NO_COLUMN: u32 = u32::MAX;

impl LiveNames {
    /// Solves liveness over `cfg`.
    #[must_use]
    pub fn from_cfg(cfg: &Cfg) -> LiveNames {
        let n = cfg.node_count();
        // Number the program's names densely, in order of appearance.
        let mut column: Vec<u32> = Vec::new();
        let mut columns = 0u32;
        let mut column_of = |name: &str| {
            let idx = intern_name(name) as usize;
            if column.len() <= idx {
                column.resize(idx + 1, NO_COLUMN);
            }
            if column[idx] == NO_COLUMN {
                column[idx] = columns;
                columns += 1;
            }
            column[idx] as usize
        };
        // Each node's defined column, and its reads in the read rows.
        let mut defs: Vec<Option<usize>> = Vec::with_capacity(n);
        let mut reads: Vec<(usize, usize)> = Vec::new();
        for id in cfg.node_ids() {
            let node = cfg.node(id);
            defs.push(liveness::defines(node).map(&mut column_of));
            liveness::for_each_read(node, &mut |name| {
                reads.push((id.0 as usize, column_of(name)));
            });
        }
        let words = (columns as usize).div_ceil(64);
        let row = |node: usize, read: bool| (2 * node + usize::from(read)) * words;
        let mut bits = vec![0u64; 2 * n * words];
        for &(node, col) in &reads {
            bits[row(node, true) + col / 64] |= 1 << (col % 64);
        }
        // Backward worklist from the exit, as `mpl_cfg::dataflow`'s:
        // `out` holds each node's live-on-exit row, and a node joins the
        // queue on its first arrival even if that adds no name.
        let mut out = vec![0u64; n * words];
        let mut entry = vec![0u64; words];
        let (mut reached, mut queued) = (vec![false; n], vec![false; n]);
        let exit = cfg.exit().0 as usize;
        reached[exit] = true;
        queued[exit] = true;
        let mut queue = std::collections::VecDeque::from([cfg.exit()]);
        while let Some(node) = queue.pop_front() {
            let v = node.0 as usize;
            queued[v] = false;
            live_on_entry(&bits, &out, &defs, words, v, &mut entry);
            for &(_, pred) in cfg.preds(node) {
                let p = pred.0 as usize;
                let mut changed = !reached[p];
                reached[p] = true;
                for (word, add) in out[p * words..(p + 1) * words].iter_mut().zip(&entry) {
                    changed |= *add & !*word != 0;
                    *word |= add;
                }
                if changed && !queued[p] {
                    queued[p] = true;
                    queue.push_back(pred);
                }
            }
        }
        for v in 0..n {
            live_on_entry(&bits, &out, &defs, words, v, &mut entry);
            bits[row(v, false)..row(v, true)].copy_from_slice(&entry);
        }
        LiveNames {
            column,
            words,
            bits,
        }
    }

    /// Bit `name` of `node`'s live (`read = false`) or read row.
    fn bit(&self, node: CfgNodeId, name: u32, read: bool) -> bool {
        let Some(&col) = self.column.get(name as usize) else {
            return false;
        };
        if col == NO_COLUMN {
            return false;
        }
        let col = col as usize;
        let row = (2 * node.0 as usize + usize::from(read)) * self.words;
        self.bits[row + col / 64] & (1 << (col % 64)) != 0
    }

    /// True if the name with index `name` is live on entry to `node`.
    #[must_use]
    pub fn is_live(&self, node: CfgNodeId, name: u32) -> bool {
        self.bit(node, name, false)
    }

    /// True if `node`'s own statement reads the name with index `name`.
    #[must_use]
    pub fn is_read(&self, node: CfgNodeId, name: u32) -> bool {
        self.bit(node, name, true)
    }
}

/// Writes node `v`'s live-on-entry row into `entry`: its reads, plus
/// its live-on-exit row `out` less the name it defines.
fn live_on_entry(
    bits: &[u64],
    out: &[u64],
    defs: &[Option<usize>],
    words: usize,
    v: usize,
    entry: &mut [u64],
) {
    let reads = &bits[(2 * v + 1) * words..(2 * v + 2) * words];
    entry.copy_from_slice(&out[v * words..(v + 1) * words]);
    if let Some(col) = defs[v] {
        entry[col / 64] &= !(1 << (col % 64));
    }
    for (word, read) in entry.iter_mut().zip(reads) {
        *word |= read;
    }
}

/// Collects every `Var` name mentioned in `e` (for vocabulary
/// pre-interning in [`NormCtx::from_cfg`]).
fn collect_var_names(e: &Expr, out: &mut BTreeSet<String>) {
    e.for_each_var(&mut |name| insert_name(out, name));
}

/// Adds `name` to `names`, copying it only if it is new.
fn insert_name(names: &mut BTreeSet<String>, name: &str) {
    if !names.contains(name) {
        names.insert(name.to_owned());
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

    /// Checks [`LiveNames`] against the string-set liveness of
    /// [`mpl_cfg::liveness`] it replaced, kept as the oracle: at every
    /// node, for every name the program mentions and one it does not.
    fn assert_liveness_matches_oracle(label: &str, program: &mpl_lang::ast::Program) {
        let cfg = Cfg::build(program);
        let _ = NormCtx::from_cfg(&cfg);
        let live = LiveNames::from_cfg(&cfg);
        let oracle = mpl_cfg::liveness::live_on_entry(&cfg);
        let mut names = BTreeSet::from(["never_mentioned".to_owned()]);
        for id in cfg.node_ids() {
            if let CfgNode::Assign { name, .. } | CfgNode::Recv { var: name, .. } = cfg.node(id) {
                names.insert(name.clone());
            }
            names.extend(
                mpl_cfg::liveness::reads(cfg.node(id))
                    .into_iter()
                    .map(str::to_owned),
            );
        }
        for id in cfg.node_ids() {
            let reads = mpl_cfg::liveness::reads(cfg.node(id));
            for name in &names {
                let idx = intern_name(name);
                assert_eq!(
                    live.is_live(id, idx),
                    oracle[id.0 as usize].contains(name),
                    "{label}: `{name}` live on entry to {id}"
                );
                assert_eq!(
                    live.is_read(id, idx),
                    reads.contains(&name.as_str()),
                    "{label}: `{name}` read at {id}"
                );
            }
        }
    }

    #[test]
    fn live_names_match_the_string_liveness_on_the_corpus() {
        for prog in mpl_lang::corpus::all() {
            assert_liveness_matches_oracle(prog.name, &prog.program);
        }
    }

    #[test]
    fn live_names_match_the_string_liveness_on_the_examples() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/programs");
        let mut seen = 0;
        for entry in std::fs::read_dir(dir).expect("examples/programs") {
            let path = entry.expect("directory entry").path();
            if path.extension().is_some_and(|e| e == "mpl") {
                let source = std::fs::read_to_string(&path).expect("readable example");
                let program = parse_program(&source).expect("example parses");
                assert_liveness_matches_oracle(&path.display().to_string(), &program);
                seen += 1;
            }
        }
        assert!(seen >= 5, "{seen} examples");
    }

    #[test]
    fn live_names_match_the_string_liveness_on_generated_programs() {
        use mpl_lang::corpus;
        for k in [1, 8, 64] {
            assert_liveness_matches_oracle(
                "repeated_exchanges",
                &corpus::repeated_exchanges(k).program,
            );
        }
        for n in [8, 48, 96] {
            assert_liveness_matches_oracle("wide", &corpus::exchange_with_root_wide(n).program);
            assert_liveness_matches_oracle(
                "wide_live",
                &corpus::exchange_with_root_wide_live(n).program,
            );
        }
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
