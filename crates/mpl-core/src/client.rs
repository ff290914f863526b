//! The framework/client seam (§VI): the engine is parameterized by a
//! [`ClientDomain`] — lattice operations, transfer functions, the
//! message-expression abstraction and the split/merge/rename hooks.
//!
//! The two clients of the paper instantiate it:
//!
//! * [`SymbolicClient`] — §VII, `var + c` message expressions matched by
//!   [`crate::matcher::SimpleMatcher`] over [`mpl_domains`] constraint
//!   graphs;
//! * [`CartesianClient`] — §VIII, everything the symbolic client does
//!   plus whole-set grid matching by
//!   [`crate::matcher::CartesianMatcher`] over [`mpl_hsm`] sequence maps.
//!
//! Both clients share the default transfer functions (constraint-graph
//! assignment, assume refinement, cross-process value propagation) and
//! the default split/merge/rename hooks; they differ only in the
//! message-expression abstraction reached through
//! [`ClientDomain::matcher`]. The [`Client`] enum is the value configs,
//! requests and the wire format carry; [`Client::domain`] is the single
//! place it is dispatched to a trait object.

use std::fmt;

use mpl_domains::{ConstraintGraph, LinExpr, PsetId, VarId};
use mpl_lang::ast::{BinOp, Expr, UnOp};
use mpl_procset::{Bound, ProcRange};

use crate::matcher::{CartesianMatcher, MatchStrategy, RecvSite, SendSite, SimpleMatcher};
use crate::norm::NormCtx;
use crate::state::AnalysisState;

/// Which client analysis instantiates the framework: a plain value,
/// resolved by [`Client::domain`] to the trait object the engine runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub enum Client {
    /// §VII: simple symbolic send–receive analysis (`var + c`).
    Simple,
    /// §VIII: cartesian topology analysis (adds HSM matching).
    #[default]
    Cartesian,
}

impl Client {
    /// The client implementation behind this tag — the one dispatch
    /// point from enum to trait.
    #[must_use]
    pub fn domain(self) -> &'static dyn ClientDomain {
        match self {
            Client::Simple => &SymbolicClient,
            Client::Cartesian => &CartesianClient,
        }
    }

    /// The stable machine-readable tag (`"simple"` / `"cartesian"`),
    /// used by the CLI flags and the corpus JSON output.
    #[must_use]
    pub fn tag(self) -> &'static str {
        self.domain().tag()
    }

    /// Parses a [`Client::tag`] back into the enum.
    #[must_use]
    pub fn from_tag(tag: &str) -> Option<Client> {
        [Client::Simple, Client::Cartesian]
            .into_iter()
            .find(|c| c.tag() == tag)
    }
}

/// A client analysis instantiating the pCFG framework (§VI).
///
/// Default method bodies implement the shared symbolic behaviour over
/// the interned constraint-graph state; a client must provide only its
/// tag and its message-expression abstraction (the [`MatchStrategy`]).
/// Everything is overridable so future domains (e.g. transducer-based
/// abstractions) can replace transfer functions or widening wholesale
/// without touching the engine.
pub trait ClientDomain: fmt::Debug + Sync {
    /// The stable machine-readable tag (kebab-case, never localized).
    fn tag(&self) -> &'static str;

    /// The client's message-expression abstraction: the paper's
    /// `image` / `compose` / `is-identity` algebra, realized as the
    /// matching strategy run when all process sets block.
    fn matcher(&self) -> &'static dyn MatchStrategy;

    /// True if `expr` provably evaluates to the same value on every
    /// process of the set: it avoids `id` and only reads inputs and
    /// proven-uniform variables.
    fn is_uniform_expr(
        &self,
        norm: &NormCtx,
        st: &AnalysisState,
        pset: PsetId,
        expr: &Expr,
    ) -> bool {
        !expr.mentions_id()
            && expr
                .variables()
                .iter()
                .all(|n| norm.is_input(n) || st.uniform.contains(&norm.var(pset, n)))
    }

    /// Transfer function for `name := value` on pset `idx`.
    fn transfer_assign(
        &self,
        norm: &NormCtx,
        st: &mut AnalysisState,
        idx: usize,
        name: &str,
        value: &Expr,
    ) {
        let pset = st.psets[idx].id;
        let var = norm.var(pset, name);
        if self.is_uniform_expr(norm, st, pset, value) {
            st.uniform.insert(var);
        } else {
            st.uniform.remove(&var);
        }
        st.resaturate_ranges();
        match norm.linearize(value, pset) {
            Some(lin) => {
                let shift = (lin.var.as_ref() == Some(&var)).then_some(lin.offset);
                st.cg.assign(var, &lin);
                st.rewrite_aliases_on_assign(var, shift);
            }
            None => {
                // Non-linear: fall back to constant evaluation.
                match norm.eval_const(value, pset, &st.cg) {
                    Some(c) => st.cg.assign(var, &LinExpr::constant(c)),
                    None => st.cg.assign_unknown(var),
                }
                st.rewrite_aliases_on_assign(var, None);
            }
        }
    }

    /// Transfer function for `assume e` on pset `idx`.
    fn transfer_assume(&self, norm: &NormCtx, st: &mut AnalysisState, idx: usize, e: &Expr) {
        let pset = st.psets[idx].id;
        let refs = norm.refinements(e, pset, false);
        norm.apply_refinements(&mut st.cg, &refs);
        // Equalities with one linear side and one constant-evaluable side
        // (e.g. `np = nrows * ncols` with concrete dims).
        if let Expr::Binary(BinOp::Eq, l, r) = e {
            for (a, b) in [(l, r), (r, l)] {
                // The refinements and the previous equality wrote the
                // graph; `eval_const` reads it.
                st.cg.close();
                if let (Some(lin), Some(c)) =
                    (norm.linearize(a, pset), norm.eval_const(b, pset, &st.cg))
                {
                    if let Some(v) = lin.var {
                        st.cg.assert_eq_const(v, c - lin.offset);
                    }
                }
            }
        }
    }

    /// Propagates the sent value into the receiver's variable (Fig 2's
    /// cross-process constant propagation). `sender_id` is the sending
    /// pset's namespace (captured before any receiver split), `recv_idx`
    /// the receiving pset's index in `st`.
    fn propagate_received(
        &self,
        norm: &NormCtx,
        st: &mut AnalysisState,
        send: &SendSite<'_>,
        recv: &RecvSite<'_>,
        sender_id: PsetId,
        recv_idx: usize,
    ) {
        let recv_pset = st.psets[recv_idx].id;
        let var = norm.var(recv_pset, recv.var);
        st.resaturate_ranges();
        st.rewrite_aliases_on_assign(var, None);
        // Received values are uniform only when pinned to one constant.
        // The uniform set is written only if that changes `var`'s
        // membership, so a set shared with the predecessor stays shared.
        let uniform = assign_received(norm, st, send, recv, sender_id, recv_pset, var);
        if st.uniform.contains(&var) != uniform {
            if uniform {
                st.uniform.insert(var);
            } else {
                st.uniform.remove(&var);
            }
        }
    }

    /// The join hook: merges compatible process sets back together
    /// (contiguous ranges at the same location — the state-level join).
    /// The engine looks for sets the join proved empty only when it
    /// merged some, so a join that merges nothing must leave the state
    /// as it found it.
    fn join(&self, st: &mut AnalysisState) {
        st.merge_psets();
    }

    /// Widening with thresholds at a recurring pCFG location.
    #[must_use]
    fn widen(
        &self,
        old: &AnalysisState,
        newer: &AnalysisState,
        thresholds: &[i64],
    ) -> AnalysisState {
        old.widen_with_thresholds(newer, thresholds)
    }

    /// The rename hook: renumbers process-set namespaces into canonical
    /// order so states at the same location compare equal.
    fn rename(&self, st: &mut AnalysisState) {
        st.renumber_canonical();
    }

    /// Splits pset `idx`'s range by an id-comparison. Returns
    /// (true-parts, false-parts), or `None` when the condition shape is
    /// not splittable in this client's range abstraction.
    #[allow(clippy::type_complexity)]
    fn split_on_id(
        &self,
        norm: &NormCtx,
        st: &AnalysisState,
        idx: usize,
        cond: &Expr,
    ) -> Option<(Vec<ProcRange>, Vec<ProcRange>)> {
        let pset = st.psets[idx].id;
        if let Expr::Unary(UnOp::Not, inner) = cond {
            // ¬c: swap the split sides.
            return self.split_on_id(norm, st, idx, inner).map(|(t, f)| (f, t));
        }
        let (op, l, r) = match cond {
            Expr::Binary(op, l, r) if op.is_boolean() => (*op, l.as_ref(), r.as_ref()),
            _ => return None,
        };
        let cg = &*st.cg;
        let (le, re) = (
            norm.linearize_resolved(l, pset, cg)?,
            norm.linearize_resolved(r, pset, cg)?,
        );
        let idv = VarId::id_of(pset);
        // Normalize to `id REL e`.
        let (e, op) = if le.var == Some(idv) && re.var != Some(idv) {
            (re.plus(-le.offset), op)
        } else if re.var == Some(idv) && le.var != Some(idv) {
            let flipped = match op {
                BinOp::Lt => BinOp::Gt,
                BinOp::Le => BinOp::Ge,
                BinOp::Gt => BinOp::Lt,
                BinOp::Ge => BinOp::Le,
                other => other,
            };
            (le.plus(-re.offset), flipped)
        } else {
            return None;
        };
        // The non-id side must itself be uniform across the set, or the
        // computed sub-ranges would differ per process.
        if let Some(v) = e.var {
            if v.namespace().is_some() && !st.uniform.contains(&v) {
                return None;
            }
        }
        let range = &st.psets[idx].range;
        match op {
            BinOp::Eq => split_eq(cg, range, e),
            BinOp::Ne => split_eq(cg, range, e).map(|(t, f)| (f, t)),
            BinOp::Le => split_le(cg, range, e),
            BinOp::Lt => split_le(cg, range, e.plus(-1)),
            BinOp::Ge => split_le(cg, range, e.plus(-1)).map(|(t, f)| (f, t)),
            BinOp::Gt => split_le(cg, range, e).map(|(t, f)| (f, t)),
            _ => None,
        }
    }
}

/// Assigns the value `send` carries to the receiver variable `var` of
/// namespace `recv_pset`; returns whether `var` is now uniform (pinned to
/// one constant). `var`'s old uniformity is never read: it counts as
/// overwritten.
fn assign_received(
    norm: &NormCtx,
    st: &mut AnalysisState,
    send: &SendSite<'_>,
    recv: &RecvSite<'_>,
    sender_id: PsetId,
    recv_pset: PsetId,
    var: VarId,
) -> bool {
    // A constant value: every receiver holds it.
    if let Some(c) = norm.eval_const(send.value, sender_id, &st.cg) {
        st.cg.assign(var, &LinExpr::constant(c));
        return true;
    }

    // Relational value through the constraint graph.
    let Some(lin) = norm.linearize(send.value, sender_id) else {
        st.cg.assign_unknown(var);
        return false;
    };
    if let Some(c) = st.cg.eval_expr(&lin) {
        st.cg.assign(var, &LinExpr::constant(c));
        return true;
    }
    // A per-process value (anything provably id-based) must be
    // rewritten through the receiver's src expression: receiver r got
    // the value of sender src(r), i.e. var = src(r) + k. A plain
    // cross-namespace equality would claim *every* receiver equals
    // *every* sender and bottom the graph after splits.
    let id_s = VarId::id_of(sender_id);
    let id_offset = match lin.var {
        Some(v) if v == id_s => Some(lin.offset),
        Some(v) => st.cg.eq_offset(v, id_s).map(|k| k + lin.offset),
        None => None,
    };
    if let Some(k) = id_offset {
        match norm.linearize(recv.src, recv_pset) {
            Some(src_lin) => st.cg.assign(var, &src_lin.plus(k)),
            None => st.cg.assign_unknown(var),
        }
        return false;
    }
    match lin.var {
        // A sender-local variable: a cross-namespace equality is only
        // sound when the value is uniform across the sender set.
        Some(v) if v.namespace() == Some(sender_id) => {
            if v != var && st.uniform.contains(&v) {
                st.cg.assign(var, &lin);
            } else {
                st.cg.assign_unknown(var);
            }
        }
        // Constant or global/np-based: valid in any namespace.
        _ => st.cg.assign(var, &lin),
    }
    false
}

/// Splits `range` by `id = e`.
#[allow(clippy::type_complexity)]
fn split_eq(
    cg: &ConstraintGraph,
    range: &ProcRange,
    e: LinExpr,
) -> Option<(Vec<ProcRange>, Vec<ProcRange>)> {
    let mut eb = Bound::of(e);
    eb.saturate(cg);
    let singleton = ProcRange::new(eb.clone(), eb.clone());
    if eb.provably_eq(cg, &range.lb) {
        let rest = ProcRange::new(range.lb.plus(1), range.ub.clone());
        return Some((vec![singleton], vec![rest]));
    }
    if eb.provably_eq(cg, &range.ub) {
        let rest = ProcRange::new(range.lb.clone(), range.ub.plus(-1));
        return Some((vec![singleton], vec![rest]));
    }
    // Strictly inside?
    if range.lb.provably_lt(cg, &eb) && eb.provably_lt(cg, &range.ub) {
        let low = ProcRange::new(range.lb.clone(), eb.plus(-1));
        let high = ProcRange::new(eb.plus(1), range.ub.clone());
        return Some((vec![singleton], vec![low, high]));
    }
    // Provably outside?
    if eb.provably_lt(cg, &range.lb) || range.ub.provably_lt(cg, &eb) {
        return Some((Vec::new(), vec![range.clone()]));
    }
    None
}

/// Splits `range` by `id <= e`.
#[allow(clippy::type_complexity)]
fn split_le(
    cg: &ConstraintGraph,
    range: &ProcRange,
    e: LinExpr,
) -> Option<(Vec<ProcRange>, Vec<ProcRange>)> {
    let mut eb = Bound::of(e);
    eb.saturate(cg);
    // Everything true?
    if range.ub.provably_le(cg, &eb) {
        return Some((vec![range.clone()], Vec::new()));
    }
    // Everything false?
    if eb.provably_lt(cg, &range.lb) {
        return Some((Vec::new(), vec![range.clone()]));
    }
    // Proper split: lb <= e < ub.
    if range.lb.provably_le(cg, &eb) && eb.provably_lt(cg, &range.ub) {
        let low = ProcRange::new(range.lb.clone(), eb.clone());
        let high = ProcRange::new(eb.plus(1), range.ub.clone());
        return Some((vec![low], vec![high]));
    }
    None
}

/// The §VII client: `var + c` message expressions over the symbolic
/// constraint-graph domain ([`mpl_domains`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct SymbolicClient;

impl ClientDomain for SymbolicClient {
    fn tag(&self) -> &'static str {
        "simple"
    }

    fn matcher(&self) -> &'static dyn MatchStrategy {
        &SimpleMatcher
    }
}

/// The §VIII client: the symbolic client plus whole-set cartesian-grid
/// matching through Hierarchical Sequence Maps ([`mpl_hsm`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct CartesianClient;

impl ClientDomain for CartesianClient {
    fn tag(&self) -> &'static str {
        "cartesian"
    }

    fn matcher(&self) -> &'static dyn MatchStrategy {
        &CartesianMatcher
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn client_enum_round_trips_through_tags() {
        for client in [Client::Simple, Client::Cartesian] {
            assert_eq!(Client::from_tag(client.tag()), Some(client));
        }
        assert_eq!(Client::from_tag("quantum"), None);
        assert_eq!(Client::default().tag(), "cartesian");
    }

    #[test]
    fn domains_report_their_matchers() {
        // Only the §VIII domain's matcher proves the transpose's
        // whole-set self-exchange.
        let prog = mpl_lang::corpus::nas_cg_transpose_square(mpl_lang::corpus::GridDims::Symbolic);
        for (client, exact) in [(Client::Simple, false), (Client::Cartesian, true)] {
            let config = crate::config::AnalysisConfig {
                client,
                ..crate::config::AnalysisConfig::default()
            };
            let result = crate::engine::analyze(&prog.program, &config);
            assert_eq!(result.is_exact(), exact, "{}", client.tag());
        }
    }
}

#[cfg(test)]
mod soundness_tests {
    use crate::client::Client;
    use crate::config::AnalysisConfig;
    use crate::engine::analyze;
    use crate::result::{TopReason, Verdict};
    use mpl_lang::{corpus, parse_program};

    /// Regression: a branch on a per-process (non-uniform) variable must
    /// never steer a whole set down one edge.
    #[test]
    fn non_uniform_branch_is_top() {
        // parity := id % 2 is different on different ranks; treating the
        // branch as uniform once produced a bogus "exact" verdict.
        let src = "\
            parity := id % 2;\n\
            if parity = 0 then\n  send 1 -> id + 1;\n\
            else\n  recv y <- id - 1;\nend\n";
        let result = analyze(&parse_program(src).unwrap(), &AnalysisConfig::default());
        assert!(
            matches!(result.verdict, Verdict::Top { .. }),
            "{:?}",
            result.verdict
        );
    }

    /// The id-aliased form of the same branch *is* splittable.
    #[test]
    fn id_aliased_branch_splits() {
        let src = "\
            myrank := id;\n\
            if myrank = 0 then\n  send 1 -> 1;\n\
            else\n  if myrank = 1 then\n    recv y <- 0;\n  end\nend\n";
        let result = analyze(&parse_program(src).unwrap(), &AnalysisConfig::default());
        assert!(result.is_exact(), "{:?}", result.verdict);
        assert_eq!(result.matches.len(), 1);
    }

    /// Uniform computed variables still branch both ways soundly.
    #[test]
    fn uniform_chain_stays_decidable() {
        let src = "\
            a := 3;\n\
            b := a * 2 + 1;\n\
            if b = 7 then\n  x := 1;\nelse\n  x := 2;\nend\n\
            print x;\n";
        let result = analyze(&parse_program(src).unwrap(), &AnalysisConfig::default());
        assert!(result.is_exact(), "{:?}", result.verdict);
        assert_eq!(result.prints[0].value, Some(1));
    }

    /// The five-point stencil: vertical phases match, the horizontal
    /// (id % ncols) phases honestly exceed the range abstraction.
    #[test]
    fn stencil_2d_full_is_honest_top() {
        let prog = corpus::stencil_2d_full(corpus::GridDims::Concrete { nrows: 3, ncols: 3 });
        let config = AnalysisConfig {
            client: Client::Simple,
            ..AnalysisConfig::default()
        };
        let result = analyze(&prog.program, &config);
        let Verdict::Top { reason } = &result.verdict else {
            panic!("expected ⊤, got {:?}", result.verdict);
        };
        assert!(
            matches!(reason, TopReason::NonUniformCondition { .. }),
            "{reason}"
        );
        // The vertical phases were matched before giving up.
        assert!(result.matches.len() >= 2, "{:?}", result.matches);
        // And the simulator confirms the program itself is fine.
        let out = mpl_sim::Simulator::new(&prog.program, 9).run().unwrap();
        assert!(out.is_complete());
        assert_eq!(out.topology.len(), 24);
    }

    /// Delayed widening lets bounded concrete chains finish exactly.
    #[test]
    fn concrete_block_chain_completes() {
        for nrows in [3i64, 4, 5] {
            let prog = corpus::stencil_2d_vertical(corpus::GridDims::Concrete {
                nrows,
                ncols: nrows,
            });
            let config = AnalysisConfig {
                client: Client::Simple,
                ..AnalysisConfig::default()
            };
            let result = analyze(&prog.program, &config);
            assert!(result.is_exact(), "{nrows}x{nrows}: {:?}", result.verdict);
        }
    }

    /// Received values are only uniform when pinned to a constant.
    #[test]
    fn received_rank_dependent_value_is_not_uniform() {
        // Workers receive their own rank back and branch on it: the
        // branch is on a non-uniform value (except via the id-alias
        // rewrite, which applies here since y = id - 1 + 1 = id is not
        // established... y = src + k gives y = id - 1 + ... ). The
        // program is constructed so y = id on every receiver; the
        // analysis may only proceed through the id-alias route or ⊤ —
        // never through a bogus uniform treatment.
        let src = "\
            x := id;\n\
            if id = 0 then\n  send x -> 1;\n\
            else\n  if id = 1 then\n    recv y <- 0;\n    if y = 0 then\n      print y;\n    end\n  end\nend\n";
        let result = analyze(&parse_program(src).unwrap(), &AnalysisConfig::default());
        // Singleton receiver: both branch directions are sound. Whatever
        // the verdict, it must not be a wrong topology.
        if result.is_exact() {
            assert_eq!(result.matches.len(), 1);
        }
    }
}

#[cfg(test)]
mod branch_split_tests {
    use crate::config::AnalysisConfig;
    use crate::engine::analyze;
    use crate::result::AnalysisResult;
    use mpl_lang::parse_program;

    fn analyze_src(src: &str) -> AnalysisResult {
        analyze(&parse_program(src).unwrap(), &AnalysisConfig::default())
    }

    #[test]
    fn ne_branch_swaps_split_sides() {
        // `id != 0` sends the singleton down the FALSE edge.
        let src = "\
            if id != 0 then\n  skip;\n\
            else\n  x := 1;\nend\n\
            print 3;\n";
        let result = analyze_src(src);
        assert!(result.is_exact(), "{:?}", result.verdict);
        // Both sides reach the print; value constant 3 on all.
        assert!(result.prints.iter().all(|p| p.value == Some(3)));
    }

    #[test]
    fn strict_comparisons_split_correctly() {
        for cond in ["id > 0", "id >= 1", "not (id = 0)", "0 < id"] {
            let src = format!(
                "if {cond} then\n  send id -> 0;\nelse\n  for i = 1 to np - 1 do\n    recv y <- i;\n  end\nend\n"
            );
            let result = analyze_src(&src);
            assert!(result.is_exact(), "cond `{cond}`: {:?}", result.verdict);
            assert_eq!(result.matches.len(), 1, "cond `{cond}`");
        }
    }

    #[test]
    fn middle_singleton_split_produces_three_parts() {
        // id = 2 inside [0..np-1] splits into [0..1], [2..2], [3..np-1].
        let src = "\
            if id = 2 then\n  for i = 0 to 1 do\n    recv y <- i;\n  end\n\
            else\n  if id < 2 then\n    send id -> 2;\n  end\nend\n";
        let result = analyze_src(src);
        assert!(result.is_exact(), "{:?}", result.verdict);
        assert_eq!(result.matches.len(), 1);
    }
}
