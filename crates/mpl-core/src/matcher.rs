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
use mpl_domains::{intern_name, ConstraintGraph, LinExpr, PsetId, VarId};
use mpl_hsm::{compose_exprs, AssumptionCtx, Hsm, SymPoly};
use mpl_lang::ast::{BinOp, Expr};
use mpl_procset::{Bound, ProcRange};

use crate::norm::NormCtx;
use crate::state::AnalysisState;

/// A send operation offered for matching (either a process set blocked at
/// a `send` node, or a pending send it carries). It borrows its
/// expressions from the CFG or the state it was found in.
#[derive(Debug, Clone, Copy)]
pub struct SendSite<'a> {
    /// Index of the sending pset in the state.
    pub pset_idx: usize,
    /// The send statement's CFG node.
    pub node: CfgNodeId,
    /// The value expression.
    pub value: &'a Expr,
    /// The destination expression.
    pub dest: &'a Expr,
    /// True if this is a pending (already-issued) send.
    pub pending: bool,
}

/// A receive operation offered for matching, borrowed from the CFG.
#[derive(Debug, Clone, Copy)]
pub struct RecvSite<'a> {
    /// Index of the receiving pset in the state.
    pub pset_idx: usize,
    /// The recv statement's CFG node.
    pub node: CfgNodeId,
    /// The source expression.
    pub src: &'a Expr,
    /// The variable receiving the value.
    pub var: &'a str,
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
    /// The comparison to fork on should the engine fail to release the
    /// matched subsets: the first containment of a matched subset in
    /// its set that the state cannot decide (for an HSM match, the
    /// §VII probe's [`Probe::Split`]).
    pub split: Option<(LinExpr, LinExpr)>,
}

/// What probing one (send, recv) pair found: the paper's one
/// `matchSendsRecvs` decision (§VI).
#[derive(Debug, Clone)]
pub enum Probe {
    /// The pair provably matches.
    Match(Box<MatchOutcome>),
    /// The match hinges on a comparison `a ≤ b` the state cannot
    /// decide. The engine forks the state on it, "because one subset's
    /// send or receive gets matched and the other's does not".
    Split(LinExpr, LinExpr),
    /// Not provably matched, and no split would change that.
    NoMatch,
}

/// A pluggable `matchSendsRecvs` implementation.
pub trait MatchStrategy {
    /// Probes `send` against `recv` in `st`. A probe only reads the
    /// state, so the same state always gives the same answer.
    fn try_match(
        &self,
        st: &AnalysisState,
        send: &SendSite<'_>,
        recv: &RecvSite<'_>,
        norm: &NormCtx,
        assumes: &[Expr],
    ) -> Probe;
}

/// A condition a match needs: `Ok` when the state proves it,
/// `Err(Some((a, b)))` when only a fork on `a ≤ b` could decide it, and
/// `Err(None)` when the state refutes it.
type Proof = Result<(), Option<(LinExpr, LinExpr)>>;

/// The comparison the first undecided condition of `proofs` forks on.
fn first_split(proofs: impl IntoIterator<Item = Proof>) -> Option<(LinExpr, LinExpr)> {
    proofs.into_iter().find_map(|p| p.err().flatten())
}

/// The §VII client: `var + c` message expressions.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimpleMatcher;

impl MatchStrategy for SimpleMatcher {
    fn try_match(
        &self,
        st: &AnalysisState,
        send: &SendSite<'_>,
        recv: &RecvSite<'_>,
        norm: &NormCtx,
        _assumes: &[Expr],
    ) -> Probe {
        if send.pset_idx == recv.pset_idx {
            // Self-exchanges need the HSM client.
            return Probe::NoMatch;
        }
        let cg = &*st.cg;
        let ps = st.psets[send.pset_idx].id;
        let pr = st.psets[recv.pset_idx].id;
        let Some(dest) = norm.linearize_resolved(send.dest, ps, cg) else {
            return Probe::NoMatch;
        };
        let Some(src) = norm.linearize_resolved(recv.src, pr, cg) else {
            return Probe::NoMatch;
        };
        let s_range = &st.psets[send.pset_idx].range;
        let r_range = &st.psets[recv.pset_idx].range;
        if s_range.is_vacant() || r_range.is_vacant() {
            return Probe::NoMatch;
        }

        let dest_uses_id = dest.var == Some(VarId::id_of(ps));
        let src_uses_id = src.var == Some(VarId::id_of(pr));

        // Each case singles out the matched senders; the receivers are
        // always their image under the destination expression.
        let (mut s_procs, kind) = match (dest_uses_id, src_uses_id) {
            (true, true) => {
                // dest = id + c, src = id + d: composition is the
                // identity iff d = -c.
                if !dest.composes_to_identity_with(&src) {
                    return Probe::NoMatch;
                }
                // Maximal matched senders: S ∩ (R - c).
                let shifted_r = r_range.plus(-dest.offset);
                match intersect(cg, s_range, &shifted_r) {
                    Ok(s_procs) => (
                        s_procs,
                        MatchKind::Shift {
                            offset: dest.offset,
                        },
                    ),
                    Err((a, b)) => return Probe::Split(a, b),
                }
            }
            // dest uniform t, src = id + d: the receiver at rank t
            // expects sender t + d; only that sender matches.
            (false, true) => (
                ProcRange::singleton(dest.plus(src.offset)),
                MatchKind::UniformPair,
            ),
            // src uniform m: only sender m matches, landing on receiver
            // m + c (per-process dest) or the uniform t. The (false,
            // false) identity condition dest(m) = t with src(t) = m holds
            // by construction once both singletons lie in their sets.
            (true, false) | (false, false) => (ProcRange::singleton(src), MatchKind::UniformPair),
        };
        s_procs.saturate(cg);
        // The receivers are the senders' image under the destination: a
        // per-process `id + c` shifts them, a set-uniform expression
        // collapses them to the one targeted rank.
        let mut r_procs = if dest_uses_id {
            s_procs.plus(dest.offset)
        } else {
            ProcRange::singleton(dest)
        };
        r_procs.saturate(cg);

        let senders_inside = contained(cg, s_range, &s_procs);
        let receivers_inside = contained(cg, r_range, &r_procs);
        if let MatchKind::Shift { .. } = kind {
            // The intersection lies inside both sets by construction, so
            // the match needs only provably non-empty subsets. Releasing
            // them re-checks their containment.
            let nonempty = [non_empty(cg, &s_procs), non_empty(cg, &r_procs)];
            if nonempty == [Ok(()), Ok(())] {
                let split = first_split([senders_inside, receivers_inside]);
                return Probe::Match(Box::new(MatchOutcome {
                    s_procs,
                    r_procs,
                    kind,
                    split,
                }));
            }
            let all = nonempty
                .into_iter()
                .chain([senders_inside, receivers_inside]);
            return split_or_no_match(first_split(all));
        }
        if senders_inside.is_ok() && receivers_inside.is_ok() {
            if non_empty(cg, &s_procs).is_ok() && non_empty(cg, &r_procs).is_ok() {
                return Probe::Match(Box::new(MatchOutcome {
                    s_procs,
                    r_procs,
                    kind,
                    split: None,
                }));
            }
            return Probe::NoMatch;
        }
        // A uniform destination forks only on where its receiver lies, a
        // uniform source first on where its sender lies.
        split_or_no_match(if src_uses_id {
            first_split([receivers_inside])
        } else {
            first_split([senders_inside, receivers_inside])
        })
    }
}

/// `Split` on the comparison, if there is one.
fn split_or_no_match(split: Option<(LinExpr, LinExpr)>) -> Probe {
    match split {
        Some((a, b)) => Probe::Split(a, b),
        None => Probe::NoMatch,
    }
}

/// Whether `r` is provably non-empty; undecided, a fork on `lb ≤ ub`
/// decides it.
fn non_empty(cg: &ConstraintGraph, r: &ProcRange) -> Proof {
    match r.is_empty(cg) {
        Some(false) => Ok(()),
        Some(true) => Err(None),
        None => Err((!r.is_vacant()).then(|| (*r.lb.rep(), *r.ub.rep()))),
    }
}

/// Whether `outer ⊇ inner` is provable; undecided, the first bound
/// comparison that would decide it.
fn contained(cg: &ConstraintGraph, outer: &ProcRange, inner: &ProcRange) -> Proof {
    if !outer.lb.provably_le(cg, &inner.lb) {
        return Err(
            (!inner.lb.provably_lt(cg, &outer.lb)).then(|| (*outer.lb.rep(), *inner.lb.rep()))
        );
    }
    if !inner.ub.provably_le(cg, &outer.ub) {
        return Err(
            (!outer.ub.provably_lt(cg, &inner.ub)).then(|| (*inner.ub.rep(), *outer.ub.rep()))
        );
    }
    Ok(())
}

/// The larger of two bounds, or the undecided pair as a split.
fn max_bound(cg: &ConstraintGraph, a: &Bound, b: &Bound) -> Result<Bound, (LinExpr, LinExpr)> {
    if b.provably_le(cg, a) {
        Ok(a.clone())
    } else if a.provably_le(cg, b) {
        Ok(b.clone())
    } else {
        Err((*a.rep(), *b.rep()))
    }
}

/// The smaller of two bounds, or the undecided pair as a split.
fn min_bound(cg: &ConstraintGraph, a: &Bound, b: &Bound) -> Result<Bound, (LinExpr, LinExpr)> {
    if a.provably_le(cg, b) {
        Ok(a.clone())
    } else if b.provably_le(cg, a) {
        Ok(b.clone())
    } else {
        Err((*a.rep(), *b.rep()))
    }
}

/// Intersection of two ranges when the bound order is provable; `Err`
/// carries the undecided comparison as a split.
fn intersect(
    cg: &ConstraintGraph,
    a: &ProcRange,
    b: &ProcRange,
) -> Result<ProcRange, (LinExpr, LinExpr)> {
    let lb = max_bound(cg, &a.lb, &b.lb)?;
    let ub = min_bound(cg, &a.ub, &b.ub)?;
    let mut r = ProcRange::new(lb, ub);
    r.saturate(cg);
    Ok(r)
}

/// The §VIII client: simple matching plus HSM-based whole-set matching
/// for cartesian-grid expressions.
#[derive(Debug, Clone, Copy, Default)]
pub struct CartesianMatcher;

impl MatchStrategy for CartesianMatcher {
    fn try_match(
        &self,
        st: &AnalysisState,
        send: &SendSite<'_>,
        recv: &RecvSite<'_>,
        norm: &NormCtx,
        assumes: &[Expr],
    ) -> Probe {
        // Everything outside the HSM fragment is the §VII strategy's, so
        // the simple matching rules live in exactly one place.
        let simple = SimpleMatcher.try_match(st, send, recv, norm, assumes);
        let split = match simple {
            Probe::Match(_) => return simple,
            Probe::Split(a, b) => Some((a, b)),
            Probe::NoMatch => None,
        };
        match hsm_match(st, send, recv, norm, assumes) {
            Some((s_procs, r_procs)) => Probe::Match(Box::new(MatchOutcome {
                s_procs,
                r_procs,
                kind: MatchKind::SelfPermutation,
                split,
            })),
            None => split_or_no_match(split),
        }
    }
}

/// Whole-set HSM matching (the transpose pattern): both sets are matched
/// in full, so the result is the two sets' ranges.
fn hsm_match(
    st: &AnalysisState,
    send: &SendSite<'_>,
    recv: &RecvSite<'_>,
    norm: &NormCtx,
    assumes: &[Expr],
) -> Option<(ProcRange, ProcRange)> {
    let s_range = &st.psets[send.pset_idx].range;
    let r_range = &st.psets[recv.pset_idx].range;
    let ctx = build_assumption_ctx(st, norm, assumes);
    let (s_lb, s_n) = range_to_polys(s_range, &ctx)?;
    let (r_lb, r_n) = range_to_polys(r_range, &ctx)?;
    if !ctx.pos(&s_n) || !ctx.pos(&r_n) {
        return None;
    }
    let vars_s = uniform_vars(st, norm, send.dest, st.psets[send.pset_idx].id)?;
    let vars_r = uniform_vars(st, norm, recv.src, st.psets[recv.pset_idx].id)?;
    let id_s = Hsm::range(s_lb.clone(), s_n.clone());
    let (h_send, composed) =
        compose_exprs(send.dest, recv.src, &id_s, &vars_s, &vars_r, &ctx).ok()?;
    // Surjection of the send expression onto the receiver set, and the
    // composition (recv ∘ send) must be the identity on the senders.
    (h_send.is_surjection_onto(&r_lb, &r_n, &ctx) && composed.is_identity_on(&s_lb, &s_n, &ctx))
        .then(|| (s_range.clone(), r_range.clone()))
}

/// Builds the HSM assumption context from the program's `assume`
/// equalities, resolving variables through the current state (inputs
/// become symbols; assigned variables must be known constants).
pub fn build_assumption_ctx(st: &AnalysisState, norm: &NormCtx, assumes: &[Expr]) -> AssumptionCtx {
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
fn expr_to_poly(e: &Expr, norm: &NormCtx, st: &AnalysisState) -> Option<SymPoly> {
    match e {
        Expr::Int(c) => Some(SymPoly::constant(*c)),
        Expr::Np => Some(SymPoly::sym("np")),
        Expr::Var(v) if norm.is_input(v) => Some(SymPoly::sym(v.clone())),
        Expr::Var(v) => {
            // Assigned variable: usable only if uniform across all psets,
            // i.e. pinned to one constant in every namespace it exists in.
            let name_idx = intern_name(v);
            let mut val: Option<i64> = None;
            for p in &st.psets {
                if let Some(c) = st.cg.const_of(VarId::pset_var(p.id, name_idx)) {
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
fn range_to_polys(r: &ProcRange, ctx: &AssumptionCtx) -> Option<(SymPoly, SymPoly)> {
    let lb = bound_to_poly(&r.lb)?;
    let ub = bound_to_poly(&r.ub)?;
    let n = ctx.normalize(&(ub - lb.clone() + SymPoly::constant(1)));
    Some((ctx.normalize(&lb), n))
}

fn bound_to_poly(b: &Bound) -> Option<SymPoly> {
    b.exprs().iter().find_map(NormCtx::linexpr_to_poly)
}

/// Resolves every variable in `expr` to a uniform symbolic value for the
/// HSM conversion: inputs become symbols, assigned variables must be
/// provably constant or offset from `np`/an input.
fn uniform_vars(
    st: &AnalysisState,
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

    /// A send site over leaked expressions: a test's sites outlive the
    /// parse they come from.
    fn send_site(idx: usize, dest: &str) -> SendSite<'static> {
        use mpl_lang::ast::StmtKind;
        let p = parse_program(&format!("send x -> {dest};")).unwrap();
        let StmtKind::Send { value, dest } = &p.stmts[0].kind else {
            panic!("`send x -> {dest}` did not parse to a Send statement")
        };
        SendSite {
            pset_idx: idx,
            node: CfgNodeId(90),
            value: Box::leak(Box::new(value.clone())),
            dest: Box::leak(Box::new(dest.clone())),
            pending: false,
        }
    }

    /// A receive site over leaked expressions, as [`send_site`].
    fn recv_site(idx: usize, src: &str) -> RecvSite<'static> {
        use mpl_lang::ast::StmtKind;
        let p = parse_program(&format!("recv y <- {src};")).unwrap();
        let StmtKind::Recv { var, src } = &p.stmts[0].kind else {
            panic!("`recv y <- {src}` did not parse to a Recv statement")
        };
        RecvSite {
            pset_idx: idx,
            node: CfgNodeId(91),
            src: Box::leak(Box::new(src.clone())),
            var: var.clone().leak(),
        }
    }

    /// The outcome of a probe that must match.
    fn matched(probe: Probe) -> MatchOutcome {
        match probe {
            Probe::Match(out) => *out,
            other => panic!("expected a match, got {other:?}"),
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
        let out = matched(SimpleMatcher.try_match(
            &st,
            &send_site(0, "id + 1"),
            &recv_site(1, "id - 1"),
            &norm,
            &[],
        ));
        // Senders [0..0] map onto receivers [1..1].
        assert!(out.s_procs.provably_eq(
            &st.cg,
            &ProcRange::from_exprs(LinExpr::constant(0), LinExpr::constant(0))
        ));
        assert!(out.r_procs.provably_eq(
            &st.cg,
            &ProcRange::from_exprs(LinExpr::constant(1), LinExpr::constant(1))
        ));
    }

    #[test]
    fn shift_mismatched_offsets_do_not_match() {
        let (_, norm, mut st) = setup("x := 1;");
        split_root(&mut st, CfgNodeId(10), CfgNodeId(11));
        let probe = SimpleMatcher.try_match(
            &st,
            &send_site(0, "id + 1"),
            &recv_site(1, "id - 2"),
            &norm,
            &[],
        );
        assert!(matches!(probe, Probe::NoMatch), "{probe:?}");
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
        st.cg.close();
        let out = matched(SimpleMatcher.try_match(
            &st,
            &send_site(0, "i"),
            &recv_site(1, "0"),
            &norm,
            &[],
        ));
        assert!(out.s_procs.is_singleton(&st.cg));
        assert!(out.r_procs.is_singleton(&st.cg));
        // The receiver bound carries the symbolic alias i.
        assert!(out.r_procs.lb.exprs().iter().any(|e| e.var == Some(iv)));
    }

    #[test]
    fn broadcast_requires_receiver_in_range() {
        // i unconstrained: [i..i] ⊆ [1..np-1] is not provable, so the
        // state forks on 1 ≤ i.
        let (_, norm, mut st) = setup("i := 1;");
        split_root(&mut st, CfgNodeId(10), CfgNodeId(11));
        let iv = VarId::pset_var(st.psets[0].id, intern_name("i"));
        let probe =
            SimpleMatcher.try_match(&st, &send_site(0, "i"), &recv_site(1, "0"), &norm, &[]);
        let Probe::Split(a, b) = probe else {
            panic!("expected a split, got {probe:?}")
        };
        assert_eq!((a, b), (LinExpr::constant(1), LinExpr::of_var(iv)));
        assert_eq!(format!("{a} {b}"), "1 P1.i");
    }

    #[test]
    fn uniform_src_matches_specific_sender() {
        // Receivers [1..np-1] with src 0; senders [0..0] with dest id+1:
        // sender 0 → receiver 1.
        let (_, norm, mut st) = setup("x := 1;");
        split_root(&mut st, CfgNodeId(10), CfgNodeId(11));
        let out = matched(SimpleMatcher.try_match(
            &st,
            &send_site(0, "id + 1"),
            &recv_site(1, "0"),
            &norm,
            &[],
        ));
        assert!(out.r_procs.provably_eq(
            &st.cg,
            &ProcRange::from_exprs(LinExpr::constant(1), LinExpr::constant(1))
        ));
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
        let out = matched(SimpleMatcher.try_match(
            &st,
            &send_site(0, "1"),
            &recv_site(1, "0"),
            &norm,
            &[],
        ));
        assert!(out.split.is_none());
        assert!(out.s_procs.is_singleton(&st.cg));
        assert!(out.r_procs.is_singleton(&st.cg));
    }

    #[test]
    fn cartesian_matches_square_transpose_self_exchange() {
        let src = "assume np = nrows * ncols; assume ncols = nrows; x := 1;";
        let (_, norm, st) = setup(src);
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
            value: &Expr::Int(1),
            dest: &parse_dest(expr),
            pending: true,
        };
        let recv = recv_site(0, expr);
        let out = matched(CartesianMatcher.try_match(&st, &send, &recv, &norm, &assumes));
        assert!(out.s_procs.provably_eq(&st.cg, &ProcRange::all_procs()));
        assert!(out.r_procs.provably_eq(&st.cg, &ProcRange::all_procs()));
    }

    #[test]
    fn cartesian_rejects_wrapping_ring() {
        let (_, norm, st) = setup("x := 1;");
        let send = SendSite {
            pset_idx: 0,
            node: CfgNodeId(90),
            value: &Expr::Int(1),
            dest: &parse_dest("(id + 1) % np"),
            pending: true,
        };
        let recv = recv_site(0, "(id + np - 1) % np");
        let probe = CartesianMatcher.try_match(&st, &send, &recv, &norm, &[]);
        assert!(matches!(probe, Probe::NoMatch), "{probe:?}");
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
        let (_, norm, st) = setup("x := 1;");
        let probe = SimpleMatcher.try_match(
            &st,
            &send_site(0, "id + 1"),
            &recv_site(0, "id - 1"),
            &norm,
            &[],
        );
        assert!(matches!(probe, Probe::NoMatch), "{probe:?}");
    }
}
