//! Range bounds as sets of provably-equal expressions.

use std::cell::Cell;
use std::cmp::Ordering;
use std::fmt;

use mpl_domains::{ConstraintGraph, LinExpr, PsetId};

/// Aliases a bound holds without a heap allocation.
const INLINE: usize = 4;

/// A sorted, duplicate-free list of aliases: up to [`INLINE`] live in
/// place, more spill to one heap vector. Every bound starts inline, and
/// most bounds stay there, so cloning, shifting, renaming and widening a
/// process set usually allocate nothing.
#[derive(Clone)]
enum Aliases {
    Inline { len: u8, items: [LinExpr; INLINE] },
    Heap(Vec<LinExpr>),
}

impl Aliases {
    const EMPTY: Aliases = Aliases::Inline {
        len: 0,
        items: [LinExpr {
            var: None,
            offset: 0,
        }; INLINE],
    };

    /// Copies `items` as they are (sorted and duplicate-free), inline
    /// when they fit.
    fn from_sorted(items: &[LinExpr]) -> Aliases {
        if items.len() > INLINE {
            return Aliases::Heap(items.to_vec());
        }
        let mut out = Aliases::EMPTY;
        for &e in items {
            out.push(e);
        }
        out
    }

    fn as_slice(&self) -> &[LinExpr] {
        match self {
            Aliases::Inline { len, items } => &items[..usize::from(*len)],
            Aliases::Heap(items) => items,
        }
    }

    fn as_mut_slice(&mut self) -> &mut [LinExpr] {
        match self {
            Aliases::Inline { len, items } => &mut items[..usize::from(*len)],
            Aliases::Heap(items) => items,
        }
    }

    /// Appends `e`, spilling to the heap past [`INLINE`] entries.
    fn push(&mut self, e: LinExpr) {
        match self {
            Aliases::Inline { len, items } if usize::from(*len) < INLINE => {
                items[usize::from(*len)] = e;
                *len += 1;
            }
            Aliases::Inline { items, .. } => {
                let mut spilled = Vec::with_capacity(2 * INLINE);
                spilled.extend_from_slice(items);
                spilled.push(e);
                *self = Aliases::Heap(spilled);
            }
            Aliases::Heap(items) => items.push(e),
        }
    }

    /// Restores the sorted, duplicate-free order after pushes or renames.
    fn normalize(&mut self) {
        let items = self.as_mut_slice();
        items.sort_unstable();
        let mut kept = 0;
        for k in 0..items.len() {
            if kept == 0 || items[k] != items[kept - 1] {
                items[kept] = items[k];
                kept += 1;
            }
        }
        match self {
            Aliases::Inline { len, .. } => *len = kept as u8,
            Aliases::Heap(items) => items.truncate(kept),
        }
    }
}

impl FromIterator<LinExpr> for Aliases {
    /// Collects aliases in any order, with duplicates, into a sorted,
    /// duplicate-free list.
    fn from_iter<I: IntoIterator<Item = LinExpr>>(exprs: I) -> Aliases {
        let mut out = Aliases::EMPTY;
        for e in exprs {
            out.push(e);
        }
        out.normalize();
        out
    }
}

impl PartialEq for Aliases {
    fn eq(&self, other: &Aliases) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Aliases {}

impl fmt::Debug for Aliases {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.as_slice()).finish()
    }
}

/// One end of a process range: a non-empty set of linear expressions,
/// all equal to the bound's value in the current dataflow state, kept
/// sorted and free of duplicates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bound {
    exprs: Aliases,
}

impl Bound {
    /// A bound known by a single expression.
    #[must_use]
    pub fn of(e: LinExpr) -> Bound {
        let mut exprs = Aliases::EMPTY;
        exprs.push(e);
        Bound { exprs }
    }

    /// A constant bound.
    #[must_use]
    pub fn constant(c: i64) -> Bound {
        Bound::of(LinExpr::constant(c))
    }

    /// A bound from arbitrary aliases, in any order and with duplicates
    /// (none = vacant).
    #[must_use]
    pub fn from_exprs(exprs: impl IntoIterator<Item = LinExpr>) -> Bound {
        Bound {
            exprs: exprs.into_iter().collect(),
        }
    }

    /// Adds an alias known to equal this bound.
    pub fn insert(&mut self, e: LinExpr) {
        if let Err(at) = self.exprs().binary_search(&e) {
            self.exprs.push(e);
            self.exprs.as_mut_slice()[at..].rotate_right(1);
        }
    }

    /// The expression aliases of this bound, sorted (constants first) and
    /// free of duplicates.
    #[must_use]
    pub fn exprs(&self) -> &[LinExpr] {
        self.exprs.as_slice()
    }

    /// Heap bytes the bound owns beyond its own size: none while its
    /// aliases fit inline.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        match &self.exprs {
            Aliases::Inline { .. } => 0,
            Aliases::Heap(items) => items.capacity() * std::mem::size_of::<LinExpr>(),
        }
    }

    /// True if the alias set is empty — an unrepresentable bound
    /// (produced only by widening two unrelated bounds).
    #[must_use]
    pub fn is_vacant(&self) -> bool {
        self.exprs().is_empty()
    }

    /// A canonical representative (constants first, then smallest).
    ///
    /// # Panics
    ///
    /// Panics if the bound is vacant.
    #[must_use]
    pub fn rep(&self) -> &LinExpr {
        self.exprs()
            .iter()
            .find(|e| e.is_constant())
            .or_else(|| self.exprs().first())
            .expect("vacant bound has no representative")
    }

    /// The constant value, if any alias is a bare constant.
    #[must_use]
    pub fn as_constant(&self) -> Option<i64> {
        self.exprs().iter().find_map(LinExpr::as_constant)
    }

    /// Adds to the alias set every expression the constraint graph can
    /// prove equal to this bound (see [`Bound::saturated`]).
    pub fn saturate(&mut self, cg: &mut ConstraintGraph) {
        if let Some(saturated) = self.saturated(cg) {
            *self = saturated;
        }
    }

    /// This bound with every expression the constraint graph can prove
    /// equal to it: all aliases of each base variable, the constant value
    /// when pinned, and — for constant aliases — offsets from every
    /// pinned-down `id` variable (needed so a wavefront singleton like
    /// `[2..2]` keeps the loop-invariant alias `P.id` across widening).
    /// `None` when the graph proves no alias the bound lacks.
    ///
    /// Every scan writes into one per-thread buffer that outlives the
    /// call, so saturation allocates only when the result outgrows the
    /// inline capacity.
    pub fn saturated(&self, cg: &mut ConstraintGraph) -> Option<Bound> {
        thread_local! {
            static FOUND: Cell<Vec<LinExpr>> = const { Cell::new(Vec::new()) };
        }
        let mut found = FOUND.take();
        found.clear();
        let aliases = self.exprs();
        // Constants sort first. A constant alias gets a partial scan
        // (pinned rank ids only): rank variables are identified by bit
        // test on the packed id.
        let constants = aliases.partition_point(LinExpr::is_constant);
        for e in &aliases[..constants] {
            for k in 0..cg.variables().len() {
                let v = cg.variables()[k];
                if !v.is_rank_id() {
                    continue;
                }
                if let Some(cv) = cg.const_of(v) {
                    found.push(LinExpr::var_plus(v, e.offset - cv));
                }
            }
        }
        // `found[scanned..]` holds, sorted, every alias a full class scan
        // emitted. The closed graph's exact-equality classes are
        // transitive, so scanning such an alias would re-emit exactly the
        // same class — and a saturated bound carries one alias per class
        // member, making the naive pass O(aliases · vars). Skipping keeps
        // it at one scan per distinct equality class. (Partial-scan
        // results do not justify skipping a full scan; they all sit
        // before `scanned`.)
        let scanned = found.len();
        for e in &aliases[constants..] {
            if found[scanned..].binary_search(e).is_ok() {
                continue;
            }
            let base = e.var.expect("non-constant aliases have a base variable");
            let class = found.len();
            cg.equalities_of(base, &mut found);
            for a in &mut found[class..] {
                *a = a.plus(e.offset);
            }
            if class > scanned {
                found[scanned..].sort_unstable();
            }
        }
        let grown = found.iter().any(|a| aliases.binary_search(a).is_err());
        let out = grown.then(|| {
            found.extend_from_slice(aliases);
            found.sort_unstable();
            found.dedup();
            Bound {
                exprs: Aliases::from_sorted(&found),
            }
        });
        FOUND.set(found);
        out
    }

    /// The bound shifted by a constant (`b + c`). Shifting every alias by
    /// one constant keeps their order.
    #[must_use]
    pub fn plus(&self, c: i64) -> Bound {
        let mut out = self.clone();
        for e in out.exprs.as_mut_slice() {
            *e = e.plus(c);
        }
        out
    }

    /// Rewrites per-set base variables from namespace `from` to `to`.
    #[must_use]
    pub fn renamed(&self, from: PsetId, to: PsetId) -> Bound {
        let mut out = self.clone();
        for e in out.exprs.as_mut_slice() {
            *e = e.renamed(from, to);
        }
        out.exprs.normalize();
        out
    }

    /// Widening: keeps only the aliases present in both bounds (the
    /// paper's Fig 5 loop-invariant mechanism). May produce a vacant
    /// bound if the two have nothing in common.
    #[must_use]
    pub fn widen(&self, newer: &Bound) -> Bound {
        let (a, b) = (self.exprs(), newer.exprs());
        let (mut i, mut j) = (0, 0);
        let mut out = Aliases::EMPTY;
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                Ordering::Less => i += 1,
                Ordering::Greater => j += 1,
                Ordering::Equal => {
                    out.push(a[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        Bound { exprs: out }
    }

    /// True if `self + shift` and `other` share an alias.
    fn shares_alias(&self, shift: i64, other: &Bound) -> bool {
        let (a, b) = (self.exprs(), other.exprs());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].plus(shift).cmp(&b[j]) {
                Ordering::Less => i += 1,
                Ordering::Greater => j += 1,
                Ordering::Equal => return true,
            }
        }
        false
    }

    /// Compares two bounds using the constraint graph; `None` when no
    /// relation is provable from any alias pair.
    pub fn compare(&self, cg: &mut ConstraintGraph, other: &Bound) -> Option<Ordering> {
        self.compare_shifted(0, cg, other)
    }

    /// [`Bound::compare`] of `self + shift` with `other`, without
    /// building the shifted bound. Shifting every alias by one constant
    /// keeps their order, so this asks the graph exactly what comparing
    /// `self.plus(shift)` would.
    pub(crate) fn compare_shifted(
        &self,
        shift: i64,
        cg: &mut ConstraintGraph,
        other: &Bound,
    ) -> Option<Ordering> {
        // Syntactic fast path: identical alias present in both.
        if self.shares_alias(shift, other) {
            return Some(Ordering::Equal);
        }
        // Same base variable: compare offsets directly.
        for a in self.exprs() {
            for b in other.exprs() {
                if let Some(d) = a.plus(shift).diff_if_comparable(b) {
                    return Some(d.cmp(&0));
                }
            }
        }
        for a in self.exprs() {
            for b in other.exprs() {
                if let Some(ord) = cg.compare_exprs(&a.plus(shift), b) {
                    return Some(ord);
                }
            }
        }
        None
    }

    /// True if the graph proves `self = other`.
    pub fn provably_eq(&self, cg: &mut ConstraintGraph, other: &Bound) -> bool {
        self.compare(cg, other) == Some(Ordering::Equal)
    }

    /// True if the graph proves `self ≤ other`.
    pub fn provably_le(&self, cg: &mut ConstraintGraph, other: &Bound) -> bool {
        self.le_shifted(0, cg, other)
    }

    /// True if the graph proves `self + shift ≤ other` (see
    /// [`Bound::compare_shifted`]).
    fn le_shifted(&self, shift: i64, cg: &mut ConstraintGraph, other: &Bound) -> bool {
        if matches!(
            self.compare_shifted(shift, cg, other),
            Some(Ordering::Less | Ordering::Equal)
        ) {
            return true;
        }
        // One-directional fallback over all alias pairs. Pinned pairs are
        // decided by value: on the closed feasible graph `proves_le`
        // holds for two pinned aliases exactly when their constant values
        // are ordered, so the integer comparison replaces the matrix
        // probe without changing the answer. (On a bottom graph
        // `eval_expr` pins nothing and every probe succeeds, as before.)
        // `other`'s values are evaluated once, on the stack while they
        // fit.
        let bs = other.exprs();
        let mut inline = [None; INLINE];
        let mut spilled = Vec::new();
        let bvals = if bs.len() <= INLINE {
            &mut inline[..bs.len()]
        } else {
            spilled.resize(bs.len(), None);
            &mut spilled[..]
        };
        for (vb, b) in bvals.iter_mut().zip(bs) {
            *vb = cg.eval_expr(b);
        }
        for a in self.exprs() {
            let a = a.plus(shift);
            let va = cg.eval_expr(&a);
            for (b, &vb) in bs.iter().zip(bvals.iter()) {
                let le = match (va, vb) {
                    (Some(x), Some(y)) => x <= y,
                    _ => cg.proves_le(&a, b),
                };
                if le {
                    return true;
                }
            }
        }
        false
    }

    /// True if the graph proves `self < other`.
    pub fn provably_lt(&self, cg: &mut ConstraintGraph, other: &Bound) -> bool {
        self.compare(cg, other) == Some(Ordering::Less) || self.le_shifted(1, cg, other)
    }

    /// When [`Bound::compare`] is inconclusive, a representative pair of
    /// expressions whose relation would decide it — used by the engine to
    /// case-split an ambiguous match.
    pub fn compare_hint(
        &self,
        cg: &mut ConstraintGraph,
        other: &Bound,
    ) -> Option<(LinExpr, LinExpr)> {
        if self.is_vacant() || other.is_vacant() || self.compare(cg, other).is_some() {
            return None;
        }
        Some((*self.rep(), *other.rep()))
    }
}

impl fmt::Display for Bound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.exprs() {
            [only] => write!(f, "{only}"),
            all => {
                f.write_str("{")?;
                for (k, e) in all.iter().enumerate() {
                    if k > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{e}")?;
                }
                f.write_str("}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpl_domains::NsVar;

    fn var(name: &str) -> NsVar {
        NsVar::pset(PsetId(0), name)
    }

    #[test]
    fn constant_bounds_compare_without_graph_facts() {
        let mut cg = ConstraintGraph::new();
        let a = Bound::constant(3);
        let b = Bound::constant(5);
        assert_eq!(a.compare(&mut cg, &b), Some(Ordering::Less));
        assert!(a.provably_lt(&mut cg, &b));
        assert!(a.provably_le(&mut cg, &b));
        assert!(!b.provably_le(&mut cg, &a));
    }

    #[test]
    fn same_base_compares_by_offset() {
        let mut cg = ConstraintGraph::new();
        let a = Bound::of(LinExpr::var_plus(NsVar::Np, -1));
        let b = Bound::of(LinExpr::of_var(NsVar::Np));
        assert_eq!(a.compare(&mut cg, &b), Some(Ordering::Less));
    }

    #[test]
    fn graph_facts_resolve_cross_variable_comparisons() {
        let mut cg = ConstraintGraph::new();
        cg.assert_eq_const(var("i"), 1);
        let a = Bound::of(LinExpr::of_var(var("i")));
        let b = Bound::constant(1);
        assert!(a.provably_eq(&mut cg, &b));
        let c = Bound::constant(4);
        assert!(a.provably_lt(&mut cg, &c));
    }

    #[test]
    fn saturate_collects_aliases() {
        let mut cg = ConstraintGraph::new();
        cg.assert_eq_const(var("i"), 1);
        let mut b = Bound::of(LinExpr::of_var(var("i")));
        b.saturate(&mut cg);
        assert!(b.exprs().contains(&LinExpr::constant(1)));
        assert_eq!(b.as_constant(), Some(1));
    }

    #[test]
    fn saturate_shifts_alias_offsets() {
        let mut cg = ConstraintGraph::new();
        cg.assert_eq_const(var("i"), 4);
        let mut b = Bound::of(LinExpr::var_plus(var("i"), -1));
        b.saturate(&mut cg);
        assert!(b.exprs().contains(&LinExpr::constant(3)));
    }

    #[test]
    fn widen_keeps_common_aliases() {
        let mut cg = ConstraintGraph::new();
        cg.assert_eq_const(var("i"), 1);
        let mut first = Bound::of(LinExpr::of_var(var("i")));
        first.saturate(&mut cg); // {i, 1}
        let mut cg2 = ConstraintGraph::new();
        cg2.assert_eq_const(var("i"), 2);
        let mut second = Bound::of(LinExpr::of_var(var("i")));
        second.saturate(&mut cg2); // {i, 2}
        let w = first.widen(&second);
        assert_eq!(w.exprs().len(), 1);
        assert!(w.exprs().contains(&LinExpr::of_var(var("i"))));
        assert!(!w.is_vacant());
    }

    #[test]
    fn widen_disjoint_is_vacant() {
        let a = Bound::constant(1);
        let b = Bound::constant(2);
        assert!(a.widen(&b).is_vacant());
    }

    #[test]
    fn rep_prefers_constants() {
        let mut cg = ConstraintGraph::new();
        cg.assert_eq_const(var("i"), 7);
        let mut b = Bound::of(LinExpr::of_var(var("i")));
        b.saturate(&mut cg);
        assert_eq!(b.rep(), &LinExpr::constant(7));
    }

    #[test]
    fn plus_shifts_every_alias() {
        let mut b = Bound::constant(1);
        b.insert(LinExpr::of_var(var("i")));
        let shifted = b.plus(2);
        assert!(shifted.exprs().contains(&LinExpr::constant(3)));
        assert!(shifted.exprs().contains(&LinExpr::var_plus(var("i"), 2)));
    }

    #[test]
    fn renamed_rewrites_namespaced_bases() {
        let b = Bound::of(LinExpr::of_var(var("i")));
        let r = b.renamed(PsetId(0), PsetId(4));
        assert!(r
            .exprs()
            .contains(&LinExpr::of_var(NsVar::pset(PsetId(4), "i"))));
    }

    #[test]
    fn display_single_and_multi() {
        let b = Bound::constant(3);
        assert_eq!(b.to_string(), "3");
        let mut m = Bound::constant(3);
        m.insert(LinExpr::of_var(var("i")));
        assert_eq!(m.to_string(), "{3,P0.i}");
    }
}
