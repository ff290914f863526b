//! Send–receive matching: the heart of `matchSendsRecvs` (Fig 4).
//!
//! A *matching strategy* is the paper's "client analysis" choice of
//! message-expression abstraction:
//!
//! * [`SimpleMatcher`] — §VII: expressions of the form `var + c`
//!   (including `id + c` and constants), matched via constraint-graph
//!   comparisons over symbolic process ranges;
//! * [`CartesianMatcher`] — §VIII: everything the simple matcher does,
//!   plus whole-set matching of `+ * / %` expressions over cartesian
//!   grids via Hierarchical Sequence Maps.
//!
//! Both implement the paper's matching conditions exactly: the send
//! expression must map the matched sender subset *surjectively* onto the
//! matched receiver subset, and the composition of the receive and send
//! expressions must be the *identity* on the sender subset. Anything not
//! provable is "no match" — never a guess.

use std::collections::BTreeMap;

use mpl_cfg::CfgNodeId;
use mpl_domains::{intern_name, PsetId, VarId};
use mpl_hsm::{compose_exprs, AssumptionCtx, Hsm, SymPoly};
use mpl_lang::ast::{BinOp, Expr};
use mpl_procset::{Bound, ProcRange};

use crate::norm::NormCtx;
use crate::state::AnalysisState;

/// A send operation offered for matching (either a process set blocked at
/// a `send` node, or a pending send it carries).
#[derive(Debug, Clone)]
pub struct SendSite {
    /// Index of the sending pset in the state.
    pub pset_idx: usize,
    /// The send statement's CFG node.
    pub node: CfgNodeId,
    /// The value expression.
    pub value: Expr,
    /// The destination expression.
    pub dest: Expr,
    /// True if this is a pending (already-issued) send.
    pub pending: bool,
}

/// A receive operation offered for matching.
#[derive(Debug, Clone)]
pub struct RecvSite {
    /// Index of the receiving pset in the state.
    pub pset_idx: usize,
    /// The recv statement's CFG node.
    pub node: CfgNodeId,
    /// The source expression.
    pub src: Expr,
    /// The variable receiving the value.
    pub var: String,
}

/// The shape of a successful match, used by the pattern classifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatchKind {
    /// Sender rank `s` matched receiver `s + offset` across the range.
    Shift {
        /// The rank offset.
        offset: i64,
    },
    /// A single sender rank matched a single receiver rank through
    /// uniform expressions.
    UniformPair,
    /// A whole process set exchanged with itself through a permutation
    /// (HSM matching; e.g. the transpose).
    SelfPermutation,
}

/// A successful match: the sender/receiver subsets that exchange
/// messages. Per the paper, matching is exact: every rank in `s_procs`
/// sends exactly one message received by the corresponding rank in
/// `r_procs`.
#[derive(Debug, Clone)]
pub struct MatchOutcome {
    /// Matched sender ranks (a subset of the sender pset's range).
    pub s_procs: ProcRange,
    /// Matched receiver ranks.
    pub r_procs: ProcRange,
    /// The shape of the match.
    pub kind: MatchKind,
}

/// A pluggable `matchSendsRecvs` implementation.
pub trait MatchStrategy {
    /// Attempts to match `send` against `recv` in `st`. On success
    /// returns the matched subsets; `None` means "not provably matched".
    fn try_match(
        &self,
        st: &mut AnalysisState,
        send: &SendSite,
        recv: &RecvSite,
        norm: &NormCtx,
        assumes: &[Expr],
    ) -> Option<MatchOutcome>;

    /// When `try_match` failed *only* because a bound comparison was
    /// undecidable, returns the expression pair whose relation would
    /// decide it. The engine then forks the analysis state on that
    /// comparison — realizing the paper's §VI split "because one subset's
    /// send or receive gets matched and the other's does not".
    fn split_hint(
        &self,
        _st: &mut AnalysisState,
        _send: &SendSite,
        _recv: &RecvSite,
        _norm: &NormCtx,
    ) -> Option<(mpl_domains::LinExpr, mpl_domains::LinExpr)> {
        None
    }
}

/// The §VII client: `var + c` message expressions.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimpleMatcher;

impl MatchStrategy for SimpleMatcher {
    fn try_match(
        &self,
        st: &mut AnalysisState,
        send: &SendSite,
        recv: &RecvSite,
        norm: &NormCtx,
        _assumes: &[Expr],
    ) -> Option<MatchOutcome> {
        let ps = st.psets[send.pset_idx].id;
        let pr = st.psets[recv.pset_idx].id;
        if send.pset_idx == recv.pset_idx {
            // Self-exchanges need the HSM client.
            return None;
        }
        let dest = norm.linearize_resolved(&send.dest, ps, &mut st.cg)?;
        let src = norm.linearize_resolved(&recv.src, pr, &mut st.cg)?;
        let s_range = st.psets[send.pset_idx].range.clone();
        let r_range = st.psets[recv.pset_idx].range.clone();
        if s_range.is_vacant() || r_range.is_vacant() {
            return None;
        }

        let id_s = VarId::id_of(ps);
        let id_r = VarId::id_of(pr);
        let dest_uses_id = dest.var == Some(id_s);
        let src_uses_id = src.var == Some(id_r);

        // Each case singles out the matched senders; the receivers are
        // always their image under the destination expression.
        let (s_procs, kind, check_r) = match (dest_uses_id, src_uses_id) {
            (true, true) => {
                // dest = id + c, src = id + d: composition is the
                // identity iff d = -c.
                if !dest.composes_to_identity_with(&src) {
                    return None;
                }
                // Maximal matched senders: S ∩ (R - c).
                let shifted_r = r_range.plus(-dest.offset);
                let mut s_procs = intersect(st, &s_range, &shifted_r).ok()?;
                s_procs.saturate(&mut st.cg);
                // The intersection construction already bounds the image
                // inside R; no containment check needed.
                (
                    s_procs,
                    MatchKind::Shift {
                        offset: dest.offset,
                    },
                    false,
                )
            }
            (false, true) => {
                // dest uniform t, src = id + d: the receiver at rank t
                // expects sender t + d; only that sender matches.
                let mut s_procs = ProcRange::singleton(dest.plus(src.offset));
                s_procs.saturate(&mut st.cg);
                (s_procs, MatchKind::UniformPair, true)
            }
            (true, false) | (false, false) => {
                // src uniform m: only sender m matches, landing on
                // receiver m + c (per-process dest) or the uniform t.
                // The (false, false) identity condition dest(m) = t with
                // src(t) = m holds by construction once both singletons
                // lie in their sets.
                let mut s_procs = ProcRange::singleton(src);
                s_procs.saturate(&mut st.cg);
                (s_procs, MatchKind::UniformPair, true)
            }
        };
        if check_r && !s_range.provably_contains(&mut st.cg, &s_procs) {
            return None;
        }
        // The receivers are the senders' image under the destination: a
        // per-process `id + c` shifts them, a set-uniform expression
        // collapses them to the one targeted rank.
        let mut r_procs = if dest_uses_id {
            s_procs.plus(dest.offset)
        } else {
            ProcRange::singleton(dest)
        };
        r_procs.saturate(&mut st.cg);
        if check_r && !r_range.provably_contains(&mut st.cg, &r_procs) {
            return None;
        }
        let outcome = MatchOutcome {
            s_procs,
            r_procs,
            kind,
        };

        // The matched subsets must be provably non-empty.
        let mut st_cg = st.cg.clone();
        if outcome.s_procs.is_empty(&mut st_cg) != Some(false)
            || outcome.r_procs.is_empty(&mut st_cg) != Some(false)
        {
            return None;
        }
        Some(outcome)
    }

    fn split_hint(
        &self,
        st: &mut AnalysisState,
        send: &SendSite,
        recv: &RecvSite,
        norm: &NormCtx,
    ) -> Option<(mpl_domains::LinExpr, mpl_domains::LinExpr)> {
        if send.pset_idx == recv.pset_idx {
            return None;
        }
        let ps = st.psets[send.pset_idx].id;
        let pr = st.psets[recv.pset_idx].id;
        let dest = norm.linearize_resolved(&send.dest, ps, &mut st.cg)?;
        let src = norm.linearize_resolved(&recv.src, pr, &mut st.cg)?;
        let s_range = st.psets[send.pset_idx].range.clone();
        let r_range = st.psets[recv.pset_idx].range.clone();
        let id_s = VarId::id_of(ps);
        let id_r = VarId::id_of(pr);
        match (dest.var == Some(id_s), src.var == Some(id_r)) {
            (true, true) => {
                if dest.offset + src.offset != 0 {
                    return None;
                }
                // The comparison intersect() could not decide — or, once
                // the matched subsets exist, an undecidable emptiness or
                // the containment comparison the releasing subtraction
                // needs.
                let shifted = r_range.plus(-dest.offset);
                match intersect(st, &s_range, &shifted) {
                    Err(hint) => Some(hint),
                    Ok(s_procs) => {
                        let mut r_procs = s_procs.plus(dest.offset);
                        r_procs.saturate(&mut st.cg);
                        emptiness_hint(st, &s_procs)
                            .or_else(|| emptiness_hint(st, &r_procs))
                            .or_else(|| containment_hint(st, &s_range, &s_procs))
                            .or_else(|| containment_hint(st, &r_range, &r_procs))
                    }
                }
            }
            (false, true) => {
                let mut r_procs = ProcRange::singleton(dest);
                r_procs.saturate(&mut st.cg);
                containment_hint(st, &r_range, &r_procs)
            }
            (true, false) => {
                let mut s_procs = ProcRange::singleton(src);
                s_procs.saturate(&mut st.cg);
                containment_hint(st, &s_range, &s_procs).or_else(|| {
                    let mut r_procs = ProcRange::singleton(src.plus(dest.offset));
                    r_procs.saturate(&mut st.cg);
                    containment_hint(st, &r_range, &r_procs)
                })
            }
            (false, false) => {
                let mut s_procs = ProcRange::singleton(src);
                s_procs.saturate(&mut st.cg);
                containment_hint(st, &s_range, &s_procs).or_else(|| {
                    let mut r_procs = ProcRange::singleton(dest);
                    r_procs.saturate(&mut st.cg);
                    containment_hint(st, &r_range, &r_procs)
                })
            }
        }
    }
}

/// The bound pair whose relation decides whether `r` is empty, when
/// undecidable.
fn emptiness_hint(
    st: &mut AnalysisState,
    r: &ProcRange,
) -> Option<(mpl_domains::LinExpr, mpl_domains::LinExpr)> {
    if r.is_empty(&mut st.cg).is_some() || r.is_vacant() {
        return None;
    }
    Some((*r.lb.rep(), *r.ub.rep()))
}

/// The first undecidable comparison preventing `outer ⊇ inner` — `None`
/// both when containment holds and when it provably fails (splitting
/// would not help either way).
fn containment_hint(
    st: &mut AnalysisState,
    outer: &ProcRange,
    inner: &ProcRange,
) -> Option<(mpl_domains::LinExpr, mpl_domains::LinExpr)> {
    if !outer.lb.provably_le(&mut st.cg, &inner.lb) {
        if inner.lb.provably_lt(&mut st.cg, &outer.lb) {
            return None; // Provably outside: no split helps.
        }
        return Some((*outer.lb.rep(), *inner.lb.rep()));
    }
    if !inner.ub.provably_le(&mut st.cg, &outer.ub) {
        if outer.ub.provably_lt(&mut st.cg, &inner.ub) {
            return None;
        }
        return Some((*inner.ub.rep(), *outer.ub.rep()));
    }
    None
}

/// The larger of two bounds, or the undecided pair as a split hint.
fn max_bound(
    st: &mut AnalysisState,
    a: &Bound,
    b: &Bound,
) -> Result<Bound, (mpl_domains::LinExpr, mpl_domains::LinExpr)> {
    if b.provably_le(&mut st.cg, a) {
        Ok(a.clone())
    } else if a.provably_le(&mut st.cg, b) {
        Ok(b.clone())
    } else {
        Err((*a.rep(), *b.rep()))
    }
}

/// The smaller of two bounds, or the undecided pair as a split hint.
fn min_bound(
    st: &mut AnalysisState,
    a: &Bound,
    b: &Bound,
) -> Result<Bound, (mpl_domains::LinExpr, mpl_domains::LinExpr)> {
    if a.provably_le(&mut st.cg, b) {
        Ok(a.clone())
    } else if b.provably_le(&mut st.cg, a) {
        Ok(b.clone())
    } else {
        Err((*a.rep(), *b.rep()))
    }
}

/// Intersection of two ranges when the bound order is provable; `Err`
/// carries the undecided comparison as a split hint.
#[allow(clippy::type_complexity)]
fn intersect(
    st: &mut AnalysisState,
    a: &ProcRange,
    b: &ProcRange,
) -> Result<ProcRange, (mpl_domains::LinExpr, mpl_domains::LinExpr)> {
    let lb = max_bound(st, &a.lb, &b.lb)?;
    let ub = min_bound(st, &a.ub, &b.ub)?;
    let mut r = ProcRange::new(lb, ub);
    r.saturate(&mut st.cg);
    Ok(r)
}

/// The §VIII client: simple matching plus HSM-based whole-set matching
/// for cartesian-grid expressions.
#[derive(Debug, Clone, Copy, Default)]
pub struct CartesianMatcher;

impl CartesianMatcher {
    /// The §VII strategy this one extends: everything outside the HSM
    /// fragment is delegated here, so the simple matching rules live in
    /// exactly one place.
    pub(crate) const fn base(&self) -> &'static SimpleMatcher {
        &SimpleMatcher
    }
}

impl MatchStrategy for CartesianMatcher {
    fn try_match(
        &self,
        st: &mut AnalysisState,
        send: &SendSite,
        recv: &RecvSite,
        norm: &NormCtx,
        assumes: &[Expr],
    ) -> Option<MatchOutcome> {
        if let Some(out) = self.base().try_match(st, send, recv, norm, assumes) {
            return Some(out);
        }
        // Whole-set HSM matching (the transpose pattern): both sets are
        // matched in full.
        let s_range = st.psets[send.pset_idx].range.clone();
        let r_range = st.psets[recv.pset_idx].range.clone();
        let ctx = build_assumption_ctx(st, norm, assumes);
        let (s_lb, s_n) = range_to_polys(st, &s_range, &ctx)?;
        let (r_lb, r_n) = range_to_polys(st, &r_range, &ctx)?;
        if !ctx.pos(&s_n) || !ctx.pos(&r_n) {
            return None;
        }
        let vars_s = uniform_vars(st, norm, &send.dest, st.psets[send.pset_idx].id)?;
        let vars_r = uniform_vars(st, norm, &recv.src, st.psets[recv.pset_idx].id)?;
        let id_s = Hsm::range(s_lb.clone(), s_n.clone());
        let (h_send, composed) =
            compose_exprs(&send.dest, &recv.src, &id_s, &vars_s, &vars_r, &ctx).ok()?;
        // Surjection of the send expression onto the receiver set.
        if !h_send.is_surjection_onto(&r_lb, &r_n, &ctx) {
            return None;
        }
        // Composition (recv ∘ send) must be the identity on the senders.
        if !composed.is_identity_on(&s_lb, &s_n, &ctx) {
            return None;
        }
        Some(MatchOutcome {
            s_procs: s_range,
            r_procs: r_range,
            kind: MatchKind::SelfPermutation,
        })
    }

    fn split_hint(
        &self,
        st: &mut AnalysisState,
        send: &SendSite,
        recv: &RecvSite,
        norm: &NormCtx,
    ) -> Option<(mpl_domains::LinExpr, mpl_domains::LinExpr)> {
        self.base().split_hint(st, send, recv, norm)
    }
}

/// Builds the HSM assumption context from the program's `assume`
/// equalities, resolving variables through the current state (inputs
/// become symbols; assigned variables must be known constants).
pub fn build_assumption_ctx(
    st: &mut AnalysisState,
    norm: &NormCtx,
    assumes: &[Expr],
) -> AssumptionCtx {
    let mut ctx = AssumptionCtx::new();
    for e in assumes {
        let Expr::Binary(BinOp::Eq, lhs, rhs) = e else {
            continue;
        };
        let name = match lhs.as_ref() {
            Expr::Np => "np".to_owned(),
            Expr::Var(v) if norm.is_input(v) => v.clone(),
            _ => continue,
        };
        if let Some(p) = expr_to_poly(rhs, norm, st) {
            if !p.symbols().contains(&name.as_str()) {
                ctx.define(name, p);
            }
        }
    }
    ctx
}

/// Converts an expression over inputs/constants into a polynomial.
fn expr_to_poly(e: &Expr, norm: &NormCtx, st: &mut AnalysisState) -> Option<SymPoly> {
    match e {
        Expr::Int(c) => Some(SymPoly::constant(*c)),
        Expr::Np => Some(SymPoly::sym("np")),
        Expr::Var(v) if norm.is_input(v) => Some(SymPoly::sym(v.clone())),
        Expr::Var(v) => {
            // Assigned variable: usable only if uniform across all psets,
            // i.e. pinned to one constant in every namespace it exists in.
            let name_idx = intern_name(v);
            let ids: Vec<PsetId> = st.psets.iter().map(|p| p.id).collect();
            let mut val: Option<i64> = None;
            for id in ids {
                if let Some(c) = st.cg.const_of(VarId::pset_var(id, name_idx)) {
                    match val {
                        None => val = Some(c),
                        Some(prev) if prev == c => {}
                        _ => return None,
                    }
                }
            }
            val.map(SymPoly::constant)
        }
        Expr::Binary(BinOp::Add, l, r) => {
            Some(expr_to_poly(l, norm, st)? + expr_to_poly(r, norm, st)?)
        }
        Expr::Binary(BinOp::Sub, l, r) => {
            Some(expr_to_poly(l, norm, st)? - expr_to_poly(r, norm, st)?)
        }
        Expr::Binary(BinOp::Mul, l, r) => {
            Some(expr_to_poly(l, norm, st)? * expr_to_poly(r, norm, st)?)
        }
        _ => None,
    }
}

/// Converts a range's bounds to `(lb, size)` polynomials, trying each
/// bound alias.
fn range_to_polys(
    st: &mut AnalysisState,
    r: &ProcRange,
    ctx: &AssumptionCtx,
) -> Option<(SymPoly, SymPoly)> {
    let lb = bound_to_poly(&r.lb)?;
    let ub = bound_to_poly(&r.ub)?;
    let n = ctx.normalize(&(ub - lb.clone() + SymPoly::constant(1)));
    let _ = st;
    Some((ctx.normalize(&lb), n))
}

fn bound_to_poly(b: &Bound) -> Option<SymPoly> {
    b.exprs().iter().find_map(NormCtx::linexpr_to_poly)
}

/// Resolves every variable in `expr` to a uniform symbolic value for the
/// HSM conversion: inputs become symbols, assigned variables must be
/// provably constant or offset from `np`/an input.
fn uniform_vars(
    st: &mut AnalysisState,
    norm: &NormCtx,
    expr: &Expr,
    pset: PsetId,
) -> Option<BTreeMap<String, SymPoly>> {
    let mut out = BTreeMap::new();
    for name in expr.variables() {
        let poly = if norm.is_input(name) {
            SymPoly::sym(name)
        } else {
            let v = VarId::pset_var(pset, intern_name(name));
            if let Some(c) = st.cg.const_of(v) {
                SymPoly::constant(c)
            } else {
                // Try np + c or input + c aliases.
                let mut aliases = Vec::new();
                st.cg.equalities_of(v, &mut aliases);
                aliases.iter().find_map(NormCtx::linexpr_to_poly)?
            }
        };
        out.insert(name.to_owned(), poly);
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpl_cfg::Cfg;
    use mpl_domains::LinExpr;
    use mpl_lang::parse_program;

    fn setup(src: &str) -> (Cfg, NormCtx, AnalysisState) {
        let cfg = Cfg::build(&parse_program(src).unwrap());
        let norm = NormCtx::from_cfg(&cfg);
        let st = AnalysisState::initial(cfg.entry(), 4);
        (cfg, norm, st)
    }

    fn send_site(idx: usize, dest: &str) -> SendSite {
        use mpl_lang::ast::StmtKind;
        let p = parse_program(&format!("send x -> {dest};")).unwrap();
        let StmtKind::Send { value, dest } = &p.stmts[0].kind else {
            panic!("`send x -> {dest}` did not parse to a Send statement")
        };
        SendSite {
            pset_idx: idx,
            node: CfgNodeId(90),
            value: value.clone(),
            dest: dest.clone(),
            pending: false,
        }
    }

    fn recv_site(idx: usize, src: &str) -> RecvSite {
        use mpl_lang::ast::StmtKind;
        let p = parse_program(&format!("recv y <- {src};")).unwrap();
        let StmtKind::Recv { var, src } = &p.stmts[0].kind else {
            panic!("`recv y <- {src}` did not parse to a Recv statement")
        };
        RecvSite {
            pset_idx: idx,
            node: CfgNodeId(91),
            src: src.clone(),
            var: var.clone(),
        }
    }

    /// Splits the initial all-procs set into [0..0] and [1..np-1].
    fn split_root(st: &mut AnalysisState, root_node: CfgNodeId, rest_node: CfgNodeId) {
        let root = ProcRange::from_exprs(LinExpr::constant(0), LinExpr::constant(0));
        let rest = ProcRange::from_exprs(LinExpr::constant(1), LinExpr::var_plus(VarId::NP, -1));
        st.split_pset(0, vec![(root, root_node, false), (rest, rest_node, false)]);
    }

    #[test]
    fn shift_pattern_matches_with_intersection() {
        // Senders [0..0] with dest id+1; receivers [1..np-1] with src id-1.
        let (_, norm, mut st) = setup("x := 1;");
        split_root(&mut st, CfgNodeId(10), CfgNodeId(11));
        let out = SimpleMatcher
            .try_match(
                &mut st,
                &send_site(0, "id + 1"),
                &recv_site(1, "id - 1"),
                &norm,
                &[],
            )
            .expect("should match");
        // Senders [0..0] map onto receivers [1..1].
        assert!(out.s_procs.provably_eq(
            &mut st.cg,
            &ProcRange::from_exprs(LinExpr::constant(0), LinExpr::constant(0))
        ));
        assert!(out.r_procs.provably_eq(
            &mut st.cg,
            &ProcRange::from_exprs(LinExpr::constant(1), LinExpr::constant(1))
        ));
    }

    #[test]
    fn shift_mismatched_offsets_do_not_match() {
        let (_, norm, mut st) = setup("x := 1;");
        split_root(&mut st, CfgNodeId(10), CfgNodeId(11));
        assert!(SimpleMatcher
            .try_match(
                &mut st,
                &send_site(0, "id + 1"),
                &recv_site(1, "id - 2"),
                &norm,
                &[]
            )
            .is_none());
    }

    #[test]
    fn broadcast_iteration_matches_singleton_target() {
        // Root [0..0] sends to i (1 <= i <= np-1); receivers [1..np-1]
        // expect src 0.
        let (_, norm, mut st) = setup("i := 1;");
        split_root(&mut st, CfgNodeId(10), CfgNodeId(11));
        let root = st.psets[0].id;
        let iv = VarId::pset_var(root, intern_name("i"));
        st.cg.assert_le(VarId::ZERO, iv, -1); // i >= 1
        st.cg.assert_le(iv, VarId::NP, -1); // i <= np-1
        let out = SimpleMatcher
            .try_match(&mut st, &send_site(0, "i"), &recv_site(1, "0"), &norm, &[])
            .expect("should match");
        assert!(out.s_procs.is_singleton(&mut st.cg));
        assert!(out.r_procs.is_singleton(&mut st.cg));
        // The receiver bound carries the symbolic alias i.
        assert!(out.r_procs.lb.exprs().iter().any(|e| e.var == Some(iv)));
    }

    #[test]
    fn broadcast_requires_receiver_in_range() {
        // i unconstrained: [i..i] ⊆ [1..np-1] is not provable.
        let (_, norm, mut st) = setup("i := 1;");
        split_root(&mut st, CfgNodeId(10), CfgNodeId(11));
        assert!(SimpleMatcher
            .try_match(&mut st, &send_site(0, "i"), &recv_site(1, "0"), &norm, &[])
            .is_none());
    }

    #[test]
    fn uniform_src_matches_specific_sender() {
        // Receivers [1..np-1] with src 0; senders [0..0] with dest id+1:
        // sender 0 → receiver 1.
        let (_, norm, mut st) = setup("x := 1;");
        split_root(&mut st, CfgNodeId(10), CfgNodeId(11));
        let out = SimpleMatcher
            .try_match(
                &mut st,
                &send_site(0, "id + 1"),
                &recv_site(1, "0"),
                &norm,
                &[],
            )
            .expect("should match");
        assert!(out.r_procs.provably_eq(
            &mut st.cg,
            &ProcRange::from_exprs(LinExpr::constant(1), LinExpr::constant(1))
        ));
        let _ = out;
    }

    #[test]
    fn fig2_constant_pair_matches() {
        let (_, norm, mut st) = setup("x := 1;");
        // [0..0] and [1..1].
        let zero = ProcRange::from_exprs(LinExpr::constant(0), LinExpr::constant(0));
        let one = ProcRange::from_exprs(LinExpr::constant(1), LinExpr::constant(1));
        st.split_pset(
            0,
            vec![(zero, CfgNodeId(10), false), (one, CfgNodeId(11), false)],
        );
        let out = SimpleMatcher
            .try_match(&mut st, &send_site(0, "1"), &recv_site(1, "0"), &norm, &[])
            .expect("fig2 send must match");
        assert!(out.s_procs.is_singleton(&mut st.cg));
        assert!(out.r_procs.is_singleton(&mut st.cg));
    }

    #[test]
    fn cartesian_matches_square_transpose_self_exchange() {
        let src = "assume np = nrows * ncols; assume ncols = nrows; x := 1;";
        let (_, norm, mut st) = setup(src);
        let assumes: Vec<Expr> = {
            use mpl_lang::ast::StmtKind;
            parse_program(src)
                .unwrap()
                .stmts
                .iter()
                .filter_map(|s| match &s.kind {
                    StmtKind::Assume(e) => Some(e.clone()),
                    _ => None,
                })
                .collect()
        };
        let expr = "(id % nrows) * nrows + id / nrows";
        let send = SendSite {
            pset_idx: 0,
            node: CfgNodeId(90),
            value: Expr::Int(1),
            dest: parse_dest(expr),
            pending: true,
        };
        let recv = recv_site(0, expr);
        let out = CartesianMatcher
            .try_match(&mut st, &send, &recv, &norm, &assumes)
            .expect("transpose must match");
        assert!(out.s_procs.provably_eq(&mut st.cg, &ProcRange::all_procs()));
        assert!(out.r_procs.provably_eq(&mut st.cg, &ProcRange::all_procs()));
    }

    #[test]
    fn cartesian_rejects_wrapping_ring() {
        let (_, norm, mut st) = setup("x := 1;");
        let send = SendSite {
            pset_idx: 0,
            node: CfgNodeId(90),
            value: Expr::Int(1),
            dest: parse_dest("(id + 1) % np"),
            pending: true,
        };
        let recv = recv_site(0, "(id + np - 1) % np");
        assert!(CartesianMatcher
            .try_match(&mut st, &send, &recv, &norm, &[])
            .is_none());
    }

    fn parse_dest(src: &str) -> Expr {
        use mpl_lang::ast::StmtKind;
        let p = parse_program(&format!("send 0 -> {src};")).unwrap();
        let StmtKind::Send { dest, .. } = &p.stmts[0].kind else {
            panic!("`send 0 -> {src}` did not parse to a Send statement")
        };
        dest.clone()
    }

    #[test]
    fn simple_matcher_rejects_self_pset() {
        let (_, norm, mut st) = setup("x := 1;");
        assert!(SimpleMatcher
            .try_match(
                &mut st,
                &send_site(0, "id + 1"),
                &recv_site(0, "id - 1"),
                &norm,
                &[]
            )
            .is_none());
    }
}
