//! Contiguous symbolic rank ranges `[lb..ub]`.

use std::fmt;

use mpl_domains::{ConstraintGraph, LinExpr, PsetId, VarId};

use crate::bound::Bound;

/// A contiguous, inclusive range of process ranks with symbolic bounds.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ProcRange {
    /// Lower bound (inclusive).
    pub lb: Bound,
    /// Upper bound (inclusive).
    pub ub: Bound,
}

impl ProcRange {
    /// `[lb..ub]` from bounds.
    #[must_use]
    pub fn new(lb: Bound, ub: Bound) -> ProcRange {
        ProcRange { lb, ub }
    }

    /// `[lo..hi]` from expressions.
    #[must_use]
    pub fn from_exprs(lo: LinExpr, hi: LinExpr) -> ProcRange {
        ProcRange::new(Bound::of(lo), Bound::of(hi))
    }

    /// The full process range `[0 .. np-1]`.
    #[must_use]
    pub fn all_procs() -> ProcRange {
        ProcRange::from_exprs(LinExpr::constant(0), LinExpr::var_plus(VarId::NP, -1))
    }

    /// A singleton `[e..e]`.
    #[must_use]
    pub fn singleton(e: LinExpr) -> ProcRange {
        ProcRange::from_exprs(e, e)
    }

    /// Saturates both bounds with every alias the graph knows.
    pub fn saturate(&mut self, cg: &ConstraintGraph) {
        self.lb.saturate(cg);
        self.ub.saturate(cg);
    }

    /// True if an alias of either bound has a base variable `pred`
    /// selects.
    pub fn mentions(&self, pred: impl Fn(VarId) -> bool) -> bool {
        self.lb
            .exprs()
            .iter()
            .chain(self.ub.exprs())
            .any(|e| e.var.is_some_and(&pred))
    }

    /// True if either bound lost all its aliases (unrepresentable).
    #[must_use]
    pub fn is_vacant(&self) -> bool {
        self.lb.is_vacant() || self.ub.is_vacant()
    }

    /// `Some(true)` if provably empty (`lb > ub`), `Some(false)` if
    /// provably non-empty (`lb ≤ ub`), `None` if unknown.
    pub fn is_empty(&self, cg: &ConstraintGraph) -> Option<bool> {
        if self.ub.provably_lt(cg, &self.lb) {
            return Some(true);
        }
        if self.lb.provably_le(cg, &self.ub) {
            return Some(false);
        }
        None
    }

    /// True if the range is provably a single rank (`lb = ub`).
    pub fn is_singleton(&self, cg: &ConstraintGraph) -> bool {
        self.lb.provably_eq(cg, &self.ub)
    }

    /// True if both bounds are provably equal to `other`'s.
    pub fn provably_eq(&self, cg: &ConstraintGraph, other: &ProcRange) -> bool {
        self.lb.provably_eq(cg, &other.lb) && self.ub.provably_eq(cg, &other.ub)
    }

    /// True if `other` is provably contained in `self`.
    pub fn provably_contains(&self, cg: &ConstraintGraph, other: &ProcRange) -> bool {
        self.lb.provably_le(cg, &other.lb) && other.ub.provably_le(cg, &self.ub)
    }

    /// True if `other` starts right after `self` ends
    /// (`other.lb = self.ub + 1`) — the merge condition for adjacent
    /// ranges.
    pub fn provably_adjacent_before(&self, cg: &ConstraintGraph, other: &ProcRange) -> bool {
        self.ub.compare_shifted(1, cg, &other.lb) == Some(std::cmp::Ordering::Equal)
    }

    /// Merges `self ∪ other` when `other` is provably adjacent after
    /// `self`.
    pub fn merge_adjacent(&self, cg: &ConstraintGraph, other: &ProcRange) -> Option<ProcRange> {
        self.provably_adjacent_before(cg, other)
            .then(|| ProcRange::new(self.lb.clone(), other.ub.clone()))
    }

    /// The range shifted by a constant (`[lb+c .. ub+c]`).
    #[must_use]
    pub fn plus(&self, c: i64) -> ProcRange {
        ProcRange::new(self.lb.plus(c), self.ub.plus(c))
    }

    /// Renames per-set bound variables between namespaces.
    #[must_use]
    pub fn renamed(&self, from: PsetId, to: PsetId) -> ProcRange {
        ProcRange::new(self.lb.renamed(from, to), self.ub.renamed(from, to))
    }

    /// Pointwise bound widening (alias-set intersection). The result may
    /// be vacant; callers treat that as "cannot represent" (⊤).
    #[must_use]
    pub fn widen(&self, newer: &ProcRange) -> ProcRange {
        ProcRange::new(self.lb.widen(&newer.lb), self.ub.widen(&newer.ub))
    }

    /// `self − sub`: the remainders `[self.lb .. sub.lb-1]` below `sub`
    /// and `[sub.ub+1 .. self.ub]` above it. Requires `sub` to be
    /// provably non-empty and contained in `self`; the remainders are
    /// then correct *regardless of whether they are empty* (an empty
    /// symbolic range simply denotes no processes), so only a
    /// provably-empty remainder is `None` — a possibly-empty one is
    /// returned and resolved by later facts (e.g. the loop-exit edge of
    /// Fig 5 proving `[np..np-1]` empty).
    ///
    /// ```
    /// use mpl_domains::{ConstraintGraph, LinExpr, VarId};
    /// use mpl_procset::ProcRange;
    ///
    /// let mut cg = ConstraintGraph::new();
    /// cg.assert_le(VarId::ZERO, VarId::NP, -4); // np >= 4
    /// cg.close();
    /// let receivers = ProcRange::from_exprs(
    ///     LinExpr::constant(1),
    ///     LinExpr::var_plus(VarId::NP, -1),
    /// );
    /// let matched = ProcRange::from_exprs(LinExpr::constant(1), LinExpr::constant(1));
    /// let (below, above) = receivers.subtract(&cg, &matched).unwrap();
    /// assert!(below.is_none());
    /// assert_eq!(above.unwrap().to_string(), "[2..np-1]");
    /// ```
    pub fn subtract(
        &self,
        cg: &ConstraintGraph,
        sub: &ProcRange,
    ) -> Option<(Option<ProcRange>, Option<ProcRange>)> {
        if !self.provably_contains(cg, sub) || sub.is_empty(cg) != Some(false) {
            return None;
        }
        let keep = |mut r: ProcRange| {
            r.saturate(cg);
            (r.is_empty(cg) != Some(true)).then_some(r)
        };
        Some((
            keep(ProcRange::new(self.lb.clone(), sub.lb.plus(-1))),
            keep(ProcRange::new(sub.ub.plus(1), self.ub.clone())),
        ))
    }
}

impl fmt::Display for ProcRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}..{}]", self.lb, self.ub)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpl_domains::intern_name;

    fn var(name: &str) -> VarId {
        VarId::pset_var(PsetId(0), intern_name(name))
    }

    fn np_minus(c: i64) -> LinExpr {
        LinExpr::var_plus(VarId::NP, -c)
    }

    /// A graph knowing np >= 2.
    fn cg_np(min_np: i64) -> ConstraintGraph {
        let mut cg = ConstraintGraph::new();
        cg.assert_le(VarId::ZERO, VarId::NP, -min_np);
        cg.close();
        cg
    }

    #[test]
    fn all_procs_nonempty_when_np_positive() {
        let cg = cg_np(1);
        let r = ProcRange::all_procs();
        assert_eq!(r.is_empty(&cg), Some(false));
    }

    #[test]
    fn emptiness_of_tail_range() {
        // [np..np-1] is provably empty.
        let cg = cg_np(1);
        let r = ProcRange::from_exprs(LinExpr::of_var(VarId::NP), np_minus(1));
        assert_eq!(r.is_empty(&cg), Some(true));
    }

    #[test]
    fn emptiness_unknown_without_facts() {
        let cg = ConstraintGraph::new();
        let r = ProcRange::from_exprs(LinExpr::constant(1), np_minus(1));
        // With no lower bound on np, [1..np-1] may or may not be empty.
        assert_eq!(r.is_empty(&cg), None);
    }

    #[test]
    fn singleton_detection() {
        let mut cg = ConstraintGraph::new();
        cg.assert_eq_const(var("i"), 3);
        cg.close();
        let r = ProcRange::from_exprs(LinExpr::of_var(var("i")), LinExpr::constant(3));
        assert!(r.is_singleton(&cg));
        assert_eq!(r.is_empty(&cg), Some(false));
    }

    #[test]
    fn containment_and_equality() {
        let cg = cg_np(3);
        let all = ProcRange::all_procs();
        let inner = ProcRange::from_exprs(LinExpr::constant(1), np_minus(1));
        assert!(all.provably_contains(&cg, &inner));
        assert!(!inner.provably_contains(&cg, &all));
        assert!(all.provably_eq(&cg, &ProcRange::all_procs().clone()));
    }

    #[test]
    fn adjacency_and_merge() {
        let cg = cg_np(2);
        let root = ProcRange::from_exprs(LinExpr::constant(0), LinExpr::constant(0));
        let rest = ProcRange::from_exprs(LinExpr::constant(1), np_minus(1));
        assert!(root.provably_adjacent_before(&cg, &rest));
        let merged = root.merge_adjacent(&cg, &rest).unwrap();
        assert!(merged.provably_eq(&cg, &ProcRange::all_procs()));
        assert!(rest.merge_adjacent(&cg, &root).is_none());
    }

    #[test]
    fn subtract_prefix_like_fig5() {
        // Receivers [1..np-1]; matched [i..i] with i = 1 → remainder
        // [2..np-1], i.e. [i+1..np-1].
        let mut cg = cg_np(3);
        cg.assert_eq_const(var("i"), 1);
        cg.close();
        let receivers = ProcRange::from_exprs(LinExpr::constant(1), np_minus(1));
        let mut matched = ProcRange::singleton(LinExpr::of_var(var("i")));
        matched.saturate(&cg);
        let (None, Some(rem)) = receivers.subtract(&cg, &matched).unwrap() else {
            panic!("expected one remainder, above")
        };
        assert!(rem.lb.provably_eq(&cg, &Bound::constant(2)));
        // The remainder's lower bound also carries the symbolic alias i+1.
        assert!(rem.lb.exprs().contains(&LinExpr::var_plus(var("i"), 1)));
    }

    #[test]
    fn subtract_whole_is_empty() {
        let cg = cg_np(2);
        let r = ProcRange::from_exprs(LinExpr::constant(1), np_minus(1));
        assert_eq!(r.subtract(&cg, &r.clone()), Some((None, None)));
    }

    #[test]
    fn subtract_suffix() {
        let cg = cg_np(4);
        let r = ProcRange::from_exprs(LinExpr::constant(0), LinExpr::constant(9));
        let sub = ProcRange::from_exprs(LinExpr::constant(5), LinExpr::constant(9));
        let (Some(rem), None) = r.subtract(&cg, &sub).unwrap() else {
            panic!()
        };
        assert!(rem.lb.provably_eq(&cg, &Bound::constant(0)));
        assert!(rem.ub.provably_eq(&cg, &Bound::constant(4)));
    }

    #[test]
    fn subtract_middle_gives_two() {
        let cg = ConstraintGraph::new();
        let r = ProcRange::from_exprs(LinExpr::constant(0), LinExpr::constant(9));
        let sub = ProcRange::from_exprs(LinExpr::constant(3), LinExpr::constant(5));
        let (Some(lo), Some(hi)) = r.subtract(&cg, &sub).unwrap() else {
            panic!()
        };
        assert!(lo.ub.provably_eq(&cg, &Bound::constant(2)));
        assert!(hi.lb.provably_eq(&cg, &Bound::constant(6)));
    }

    #[test]
    fn subtract_undecidable_returns_none() {
        let cg = ConstraintGraph::new();
        let r = ProcRange::from_exprs(LinExpr::constant(0), np_minus(1));
        let sub = ProcRange::singleton(LinExpr::of_var(var("k"))); // unknown k
        assert_eq!(r.subtract(&cg, &sub), None);
    }

    #[test]
    fn widen_converges_to_loop_invariant() {
        // First iteration: released set [1..1] with ub aliases {1, i};
        // second: [1..2] with ub aliases {2, i}. Widening leaves [1..i].
        let mut cg1 = ConstraintGraph::new();
        cg1.assert_eq_const(var("i"), 1);
        cg1.close();
        let mut first = ProcRange::from_exprs(LinExpr::constant(1), LinExpr::of_var(var("i")));
        first.saturate(&cg1);

        let mut cg2 = ConstraintGraph::new();
        cg2.assert_eq_const(var("i"), 2);
        cg2.close();
        let mut second = ProcRange::from_exprs(LinExpr::constant(1), LinExpr::of_var(var("i")));
        second.saturate(&cg2);

        let w = first.widen(&second);
        assert!(!w.is_vacant());
        assert_eq!(w.ub.exprs().len(), 1);
        assert!(w.ub.exprs().contains(&LinExpr::of_var(var("i"))));
        // Widening with itself is stable (fixpoint).
        let w2 = w.widen(&w);
        assert_eq!(w, w2);
    }

    #[test]
    fn widen_unrelated_is_vacant() {
        let a = ProcRange::from_exprs(LinExpr::constant(0), LinExpr::constant(1));
        let b = ProcRange::from_exprs(LinExpr::constant(0), LinExpr::constant(2));
        assert!(a.widen(&b).is_vacant());
    }

    #[test]
    fn display_form() {
        let r = ProcRange::from_exprs(LinExpr::constant(1), np_minus(1));
        assert_eq!(r.to_string(), "[1..np-1]");
    }

    #[test]
    fn plus_and_rename() {
        let r = ProcRange::singleton(LinExpr::of_var(var("i")));
        let shifted = r.plus(2);
        assert!(shifted.lb.exprs().contains(&LinExpr::var_plus(var("i"), 2)));
        let renamed = r.renamed(PsetId(0), PsetId(3));
        assert!(renamed
            .lb
            .exprs()
            .contains(&LinExpr::of_var(VarId::pset_var(
                PsetId(3),
                intern_name("i")
            ))));
    }
}
