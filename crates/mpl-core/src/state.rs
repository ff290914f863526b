//! The pCFG dataflow state `(dfState, pSets, matches)` of §VI.
//!
//! The heavy components live behind [`Shared`] copy-on-write handles:
//! cloning a state is O(#components) reference-count bumps, and each
//! component is deep-copied only when (and if) a successor actually
//! mutates it. The match set is a persistent [`MatchSet`], so a
//! successor shares its predecessor's matches and adds one path. See
//! DESIGN §3.12 for why sharing is sound.

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeSet;
use std::fmt;
use std::hash::{Hash, Hasher};

use mpl_cfg::CfgNodeId;
use mpl_domains::{ConstraintGraph, PsetId, VarId};
use mpl_lang::ast::Expr;
use mpl_procset::{Bound, ProcRange};

use crate::matchset::MatchSet;
use crate::share::Shared;

/// A send that has been issued but not yet matched (the depth-1
/// aggregation of non-blocking sends sketched in the paper's §X; required
/// for self-exchange patterns such as the NAS-CG transpose, where the
/// whole process set sends and then receives).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PendingSend {
    /// The send statement's CFG node.
    pub node: CfgNodeId,
    /// The value expression.
    pub value: Expr,
    /// The destination expression.
    pub dest: Expr,
}

/// One process set within the analysis state.
#[derive(Debug, Clone)]
pub struct PsetState {
    /// The set's variable namespace (unique within the state).
    pub id: PsetId,
    /// The CFG node the set is currently at.
    pub node: CfgNodeId,
    /// The ranks in the set.
    pub range: ProcRange,
    /// An issued-but-unmatched send, if any.
    pub pending: Option<PendingSend>,
}

/// The full analysis state at one pCFG node.
///
/// Cloning is cheap (copy-on-write component handles); mutation through
/// the `Shared` fields transparently unshares just the touched component.
#[derive(Debug, Clone)]
pub struct AnalysisState {
    /// The constraint-graph dataflow state (per-set namespaces). A
    /// constant is the pair of bounds `x − 0 ≤ c`, `0 − x ≤ −c`
    /// ([`ConstraintGraph::const_of`]).
    pub cg: Shared<ConstraintGraph>,
    /// Variables proven *uniform* across their process set (every
    /// process of the set holds the same value). Needed for soundness:
    /// only a uniform condition may steer a whole set through one branch
    /// edge. Never-assigned input variables are uniform by definition
    /// and are not tracked here.
    pub uniform: Shared<BTreeSet<VarId>>,
    /// The process sets, in canonical order.
    pub psets: Vec<Shared<PsetState>>,
    /// Send–receive matches established so far.
    pub matches: MatchSet,
    next_id: u32,
}

impl AnalysisState {
    /// The initial state: one process set containing `[0..np-1]` at
    /// `entry`, with `np ≥ min_np` assumed.
    #[must_use]
    pub fn initial(entry: CfgNodeId, min_np: i64) -> AnalysisState {
        let mut cg = ConstraintGraph::new();
        cg.assert_le(VarId::ZERO, VarId::NP, -min_np); // np >= min_np
        let p0 = PsetId(0);
        let id0 = VarId::id_of(p0);
        cg.assert_le(VarId::ZERO, id0, 0); // id >= 0
        cg.assert_le(id0, VarId::NP, -1); // id <= np-1
        cg.close();
        AnalysisState {
            cg: cg.into(),
            uniform: Shared::new(BTreeSet::new()),
            psets: vec![Shared::new(PsetState {
                id: p0,
                node: entry,
                range: ProcRange::all_procs(),
                pending: None,
            })],
            matches: MatchSet::new(),
            next_id: 1,
        }
    }

    /// Allocates a fresh process-set id.
    pub fn fresh_id(&mut self) -> PsetId {
        let id = PsetId(self.next_id);
        self.next_id += 1;
        id
    }

    /// Replaces pset `idx` by one or more parts, each cloning the
    /// original's variable namespace, with `id` bounds tightened to the
    /// part's range. Parts are `(range, node, keep_pending)`.
    pub fn split_pset(&mut self, idx: usize, parts: Vec<(ProcRange, CfgNodeId, bool)>) {
        assert!(!parts.is_empty(), "split into zero parts");
        self.resaturate_ranges();
        let old = self.psets.remove(idx);
        for (range, node, keep_pending) in parts {
            let nid = self.fresh_id();
            self.cg.clone_namespace(old.id, nid);
            let copies: Vec<VarId> = self
                .uniform
                .iter()
                .filter(|v| v.namespace() == Some(old.id))
                .map(|v| v.renamed(old.id, nid))
                .collect();
            self.uniform.extend(copies);
            // Assert the part's `id` bounds only when the part is provably
            // non-empty: an empty part's bounds would smuggle the false
            // fact `lb ≤ ub` into the shared constraint graph (e.g. a
            // loop remainder `[i+1..np-1]` forcing `i ≤ np-2`).
            if range.is_empty(&self.cg) == Some(false) {
                let idv = VarId::id_of(nid);
                for e in range.lb.exprs() {
                    self.cg.assert_ge_expr(idv, e);
                }
                for e in range.ub.exprs() {
                    self.cg.assert_le_expr(idv, e);
                }
            }
            self.psets.push(Shared::new(PsetState {
                id: nid,
                node,
                range,
                pending: if keep_pending {
                    old.pending.clone()
                } else {
                    None
                },
            }));
        }
        self.drop_namespace(old.id);
    }

    /// Refreshes every range bound's alias set against the current
    /// constraint graph. Must be called *before* facts are destroyed
    /// (namespace drops, reassignments) so each bound retains at least
    /// one surviving alias.
    ///
    /// A set whose range the graph adds no alias to keeps its
    /// copy-on-write handle shared.
    pub fn resaturate_ranges(&mut self) {
        self.cg.close();
        for p in &mut self.psets {
            let lb = p.range.lb.saturated(&self.cg);
            let ub = p.range.ub.saturated(&self.cg);
            if let Some(lb) = lb {
                p.range.lb = lb;
            }
            if let Some(ub) = ub {
                p.range.ub = ub;
            }
        }
    }

    /// Removes the process set at `idx` entirely (it is provably empty),
    /// dropping its variable namespace and any bound aliases that
    /// referenced it.
    pub fn remove_pset(&mut self, idx: usize) {
        self.resaturate_ranges();
        let dead = self.psets[idx].id;
        self.psets.remove(idx);
        self.drop_namespace(dead);
    }

    /// Projects every variable of namespace `dead` out of the state.
    fn drop_namespace(&mut self, dead: PsetId) {
        self.project_out(|v| v.namespace() == Some(dead));
    }

    /// Projects the variables `dead` selects out of the constraint graph
    /// (exactly, see [`ConstraintGraph::retain_vars`]) and the uniform
    /// set, and strips their aliases from every range bound. A component
    /// that holds none of them is left untouched, so its copy-on-write
    /// handle stays shared.
    pub fn project_out(&mut self, dead: impl Fn(VarId) -> bool) {
        self.project_out_by(|_, v| dead(v));
    }

    /// [`AnalysisState::project_out`] with a selector that also reads the
    /// process sets. Projection changes only their ranges, so a selector
    /// may decide a variable by its set's id, node or pending send
    /// without the caller copying the sets out first.
    pub fn project_out_by(&mut self, dead: impl Fn(&[Shared<PsetState>], VarId) -> bool) {
        let psets = &self.psets;
        if self.cg.variables().iter().any(|&v| dead(psets, v)) {
            self.cg.retain_vars(|v| !dead(psets, v));
        }
        if self.uniform.iter().any(|&v| dead(psets, v)) {
            self.uniform.retain(|&v| !dead(psets, v));
        }
        for i in 0..self.psets.len() {
            let range = &self.psets[i].range;
            if range.mentions(|v| dead(&self.psets, v)) {
                let stripped = strip_range(range, |v| dead(&self.psets, v));
                self.psets[i].range = stripped;
            }
        }
    }

    /// Rewrites range-bound aliases after an assignment in namespace `p`:
    /// a shift `x := x + c` translates aliases of `x`; any other write to
    /// `x` invalidates them. Call *before* mutating the constraint graph
    /// when possible so lost aliases can be re-derived. Sets whose bounds
    /// do not mention `var` keep their copy-on-write handle shared.
    pub fn rewrite_aliases_on_assign(&mut self, var: VarId, shift: Option<i64>) {
        for p in &mut self.psets {
            if !p.range.mentions(|v| v == var) {
                continue;
            }
            p.range = match shift {
                Some(c) => shift_range(&p.range, var, c),
                None => strip_range(&p.range, |v| v == var),
            };
        }
    }

    /// Drops process sets whose range is provably empty. Returns `true`
    /// if every remaining range's emptiness is known (no "maybe empty"
    /// sets survive).
    pub fn drop_empty_psets(&mut self) -> bool {
        self.cg.close();
        let mut i = 0;
        let mut all_known = true;
        while i < self.psets.len() {
            match self.psets[i].range.is_empty(&self.cg) {
                Some(true) => {
                    let dead = self.psets[i].id;
                    self.psets.remove(i);
                    self.drop_namespace(dead);
                }
                Some(false) => i += 1,
                None => {
                    all_known = false;
                    i += 1;
                }
            }
        }
        all_known
    }

    /// Merges process sets that sit at the same CFG node with provably
    /// adjacent ranges and no pending sends (§VI "merging of process
    /// sets"). Repeats to a fixpoint.
    pub fn merge_psets(&mut self) {
        loop {
            self.cg.close();
            let mut merged = false;
            'search: for i in 0..self.psets.len() {
                for j in 0..self.psets.len() {
                    if i == j
                        || self.psets[i].node != self.psets[j].node
                        || self.psets[i].pending.is_some()
                        || self.psets[j].pending.is_some()
                    {
                        continue;
                    }
                    let (ri, rj) = (&self.psets[i].range, &self.psets[j].range);
                    if let Some(joined) = ri.merge_adjacent(&self.cg, rj) {
                        self.merge_pair(i, j, joined);
                        merged = true;
                        break 'search;
                    }
                }
            }
            if !merged {
                return;
            }
        }
    }

    fn merge_pair(&mut self, i: usize, j: usize, joined: ProcRange) {
        self.resaturate_ranges();
        let (a, b) = (self.psets[i].id, self.psets[j].id);
        let node = self.psets[i].node;
        let m = self.fresh_id();
        // Uniformity across the merged set: both halves uniform and
        // pinned to the same constant (read before the join forgets it).
        let cg = &*self.cg;
        let merged_uniform: Vec<VarId> = self
            .uniform
            .iter()
            .filter(|v| v.namespace() == Some(a))
            .filter_map(|&v| {
                let vb = v.renamed(a, b);
                if !self.uniform.contains(&vb) {
                    return None;
                }
                let cva = cg.const_of(v)?;
                let cvb = cg.const_of(vb)?;
                (cva == cvb).then(|| v.renamed(a, m))
            })
            .collect();
        // Per-variable join of the two namespaces: project each side down
        // to one namespace renamed to `m`, then join pointwise.
        let mut a_side = self.cg.clone();
        a_side.drop_namespace(b);
        a_side.rename_namespaces(&[(a, m)]);
        let mut b_side = self.cg.clone();
        b_side.drop_namespace(a);
        b_side.rename_namespaces(&[(b, m)]);
        self.cg = a_side.join(&b_side).into();
        self.uniform
            .retain(|v| v.namespace() != Some(a) && v.namespace() != Some(b));
        self.uniform.extend(merged_uniform);
        // Remove higher index first.
        let (lo, hi) = (i.min(j), i.max(j));
        self.psets.remove(hi);
        self.psets.remove(lo);
        let mut range = joined;
        range = strip_range(&range, |v| {
            v.namespace() == Some(a) || v.namespace() == Some(b)
        });
        // Assert the merged set's id bounds.
        let idv = VarId::id_of(m);
        for e in range.lb.exprs() {
            self.cg.assert_ge_expr(idv, e);
        }
        for e in range.ub.exprs() {
            self.cg.assert_le_expr(idv, e);
        }
        self.psets.push(Shared::new(PsetState {
            id: m,
            node,
            range,
            pending: None,
        }));
        self.drop_namespace(a);
        self.drop_namespace(b);
    }

    /// Renumbers process sets into canonical order (sorted by CFG node,
    /// then by a textual rendering of the range, then pending sends
    /// last) with sequential ids — required so recurring pCFG locations
    /// compare equal across loop iterations.
    pub fn renumber_canonical(&mut self) {
        // Sets at different nodes order by node alone: ranges are
        // rendered only to break a tie between two sets at one node.
        self.psets.sort_by(|p, q| {
            p.node
                .cmp(&q.node)
                .then_with(|| p.range.to_string().cmp(&q.range.to_string()))
                .then_with(|| p.pending.is_some().cmp(&q.pending.is_some()))
        });
        let moves: Vec<(PsetId, PsetId)> = self
            .psets
            .iter()
            .enumerate()
            .map(|(k, p)| (p.id, PsetId(k as u32)))
            .filter(|&(old, new)| old != new)
            .collect();
        // Already canonical (the steady state once the analysis reaches a
        // loop's fixpoint): nothing moves, so skip the pass over graph,
        // uniform set and ranges.
        if !moves.is_empty() {
            self.rename_psets(&moves);
        }
        self.next_id = self.psets.len() as u32;
    }

    /// Moves namespace `from` to `to` for every `(from, to)` pair of
    /// `map` at once (the pairs may swap or cycle ids): one pass over
    /// the graph, one rebuild of the uniform set, and one rename of each
    /// set whose id moves or whose range mentions a moved namespace.
    fn rename_psets(&mut self, map: &[(PsetId, PsetId)]) {
        self.cg.rename_namespaces(map);
        let renamed: BTreeSet<VarId> = self.uniform.iter().map(|v| v.renamed_by(map)).collect();
        self.uniform = renamed.into();
        for p in &mut self.psets {
            let to = map
                .iter()
                .find(|&&(from, _)| from == p.id)
                .map(|&(_, to)| to);
            // Skip untouched sets so their `Shared` handle stays shared.
            if to.is_none() && !p.range.mentions(|v| v.renamed_by(map) != v) {
                continue;
            }
            if let Some(to) = to {
                p.id = to;
            }
            p.range = p.range.renamed(map);
        }
    }

    /// The pCFG location key: the multiset of (CFG node, has-pending)
    /// over canonical process sets. States at the same location are
    /// widened against each other.
    #[must_use]
    pub fn location_key(&self) -> Vec<(CfgNodeId, bool)> {
        self.psets
            .iter()
            .map(|p| (p.node, p.pending.is_some()))
            .collect()
    }

    /// Widens `self` (the stored state) with `newer` (same location key):
    /// constraint-graph widening over the `thresholds` ladder (see
    /// [`mpl_domains::ConstraintGraph::widen_with_thresholds`]),
    /// uniform-set and range-bound alias intersection, match-set union.
    #[must_use]
    pub fn widen_with_thresholds(
        &self,
        newer: &AnalysisState,
        thresholds: &[i64],
    ) -> AnalysisState {
        debug_assert_eq!(self.location_key(), newer.location_key());
        let mut out = self.clone();
        out.cg = self.cg.widen_with_thresholds(&newer.cg, thresholds).into();
        let uniform: BTreeSet<VarId> = self.uniform.intersection(&newer.uniform).cloned().collect();
        out.uniform = uniform.into();
        for (p, q) in out.psets.iter_mut().zip(&newer.psets) {
            p.range = p.range.widen(&q.range);
            debug_assert_eq!(p.pending.is_some(), q.pending.is_some());
        }
        out.matches = self.matches.union(&newer.matches);
        out.next_id = self.next_id.max(newer.next_id);
        out
    }

    /// A 64-bit structural fingerprint of the whole state, chaining
    /// [`ConstraintGraph::fingerprint`] with the uniform set, process sets
    /// (id, node, range-bound alias sets, pending send) and the match
    /// set's cached length and [`MatchSet::fingerprint`].
    ///
    /// Admission treats equal fingerprints as structural equality
    /// ([`AnalysisState::structurally_eq`]); collisions are
    /// debug-asserted against.
    /// The hash is deterministic within a process, which is all the
    /// admission dedup needs.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut h = DefaultHasher::new();
        self.cg.fingerprint().hash(&mut h);
        self.uniform.len().hash(&mut h);
        for v in self.uniform.iter() {
            v.hash(&mut h);
        }
        self.psets.len().hash(&mut h);
        for p in &self.psets {
            p.id.0.hash(&mut h);
            p.node.hash(&mut h);
            p.range.lb.exprs().hash(&mut h);
            p.range.ub.exprs().hash(&mut h);
            match &p.pending {
                None => 0u8.hash(&mut h),
                Some(pd) => {
                    1u8.hash(&mut h);
                    pd.node.hash(&mut h);
                    pd.value.hash(&mut h);
                    pd.dest.hash(&mut h);
                }
            }
        }
        self.matches.len().hash(&mut h);
        self.matches.fingerprint().hash(&mut h);
        h.finish()
    }

    /// A 64-bit hash of the pCFG location — the ordered (CFG node,
    /// has-pending) pairs of [`AnalysisState::location_key`] — without
    /// allocating the key vector. The scheduler interns these into slot
    /// indices.
    #[must_use]
    pub fn location_fingerprint(&self) -> u64 {
        let mut h = DefaultHasher::new();
        self.psets.len().hash(&mut h);
        for p in &self.psets {
            p.node.hash(&mut h);
            p.pending.is_some().hash(&mut h);
        }
        h.finish()
    }

    /// True if the two states record identical content field by field —
    /// the structural equality that fingerprint equality stands for.
    #[must_use]
    pub fn structurally_eq(&self, other: &AnalysisState) -> bool {
        self.matches == other.matches
            && self.uniform == other.uniform
            && self.psets.len() == other.psets.len()
            && self.psets.iter().zip(&other.psets).all(|(p, q)| {
                p.id == q.id
                    && p.node == q.node
                    && p.range.lb.exprs() == q.range.lb.exprs()
                    && p.range.ub.exprs() == q.range.ub.exprs()
                    && p.pending == q.pending
            })
            && self.cg.same_shape(&other.cg)
    }

    /// Estimated heap bytes reachable from this state, skipping
    /// allocations whose identity is already in `seen` — so a store of
    /// CoW states counts each shared component once. Public only so
    /// tests can measure states an observer kept.
    #[doc(hidden)]
    pub fn approx_bytes(&self, seen: &mut std::collections::HashSet<usize>) -> usize {
        const BTREE_ENTRY: usize = 24; // rough per-entry node overhead
        let mut total = std::mem::size_of::<AnalysisState>();
        if seen.insert(Shared::heap_id(&self.cg)) {
            total += std::mem::size_of::<ConstraintGraph>() + self.cg.side_bytes();
            let (matrix_id, matrix_bytes) = self.cg.matrix_id_and_bytes();
            if seen.insert(matrix_id) {
                total += matrix_bytes;
            }
        }
        if seen.insert(Shared::heap_id(&self.uniform)) {
            total += self.uniform.len() * BTREE_ENTRY;
        }
        total += self.matches.approx_bytes(seen);
        total += self.psets.capacity() * std::mem::size_of::<Shared<PsetState>>();
        for p in &self.psets {
            if seen.insert(Shared::heap_id(p)) {
                total += std::mem::size_of::<PsetState>()
                    + p.range.lb.heap_bytes()
                    + p.range.ub.heap_bytes();
            }
        }
        total
    }

    /// True if any range bound has lost all its aliases (the state can no
    /// longer be represented; the engine reports ⊤).
    #[must_use]
    pub fn any_vacant_range(&self) -> bool {
        self.psets.iter().any(|p| p.range.is_vacant())
    }

    /// The first variable that breaks namespace hygiene, if any: a
    /// per-set variable of the graph or the uniform set whose set is
    /// gone, or a range-bound alias the graph does not hold.
    /// [`AnalysisState::renumber_canonical`] needs a state without one,
    /// or a rename lands on a stale namespace's leftovers; the engine
    /// debug-asserts it on every successor.
    #[must_use]
    pub fn orphan_var(&self) -> Option<VarId> {
        let owned = |v: &VarId| v.namespace().is_none_or(|ns| self.index_of(ns).is_some());
        let mut aliases = self
            .psets
            .iter()
            .flat_map(|p| p.range.lb.exprs().iter().chain(p.range.ub.exprs()))
            .filter_map(|e| e.var);
        self.cg
            .variables()
            .iter()
            .chain(self.uniform.iter())
            .find(|v| !owned(v))
            .copied()
            .or_else(|| aliases.find(|&v| !self.cg.has_var(v)))
    }

    /// The index of the pset with namespace `id`.
    #[must_use]
    pub fn index_of(&self, id: PsetId) -> Option<usize> {
        self.psets.iter().position(|p| p.id == id)
    }
}

fn strip_range(r: &ProcRange, dead: impl Fn(VarId) -> bool) -> ProcRange {
    let keep = |b: &Bound| {
        Bound::from_exprs(
            b.exprs()
                .iter()
                .filter(|e| e.var.is_none_or(|v| !dead(v)))
                .copied(),
        )
    };
    ProcRange::new(keep(&r.lb), keep(&r.ub))
}

fn shift_range(r: &ProcRange, var: VarId, c: i64) -> ProcRange {
    let fix = |b: &Bound| {
        Bound::from_exprs(b.exprs().iter().map(|e| {
            if e.var == Some(var) {
                // The variable's value grew by c, so the alias must
                // shrink by c to denote the same bound value.
                e.plus(-c)
            } else {
                *e
            }
        }))
    };
    ProcRange::new(fix(&r.lb), fix(&r.ub))
}

impl fmt::Display for AnalysisState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts: Vec<String> = self
            .psets
            .iter()
            .map(|p| {
                let pend = if p.pending.is_some() { "+pending" } else { "" };
                format!("{}:{}@{}{}", p.id, p.range, p.node, pend)
            })
            .collect();
        write!(f, "{{{}}}", parts.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpl_domains::{intern_name, LinExpr};

    fn initial() -> AnalysisState {
        AnalysisState::initial(CfgNodeId(0), 4)
    }

    #[test]
    fn initial_state_has_all_procs_with_id_bounds() {
        let st = initial();
        assert_eq!(st.psets.len(), 1);
        let id0 = VarId::id_of(st.psets[0].id);
        assert!(st.cg.implies_le(VarId::ZERO, id0, 0)); // id >= 0
        assert!(st.cg.implies_le(id0, VarId::NP, -1)); // id <= np-1
        assert!(st.cg.implies_le(VarId::ZERO, VarId::NP, -4)); // np >= 4
        assert_eq!(st.psets[0].range.is_empty(&st.cg), Some(false));
    }

    #[test]
    fn split_pset_clones_namespace_and_bounds() {
        let mut st = initial();
        let x = VarId::pset_var(st.psets[0].id, intern_name("x"));
        st.cg.assert_eq_const(x, 9);
        let root = ProcRange::from_exprs(LinExpr::constant(0), LinExpr::constant(0));
        let rest = ProcRange::from_exprs(LinExpr::constant(1), LinExpr::var_plus(VarId::NP, -1));
        st.split_pset(
            0,
            vec![(root, CfgNodeId(5), false), (rest, CfgNodeId(6), false)],
        );
        assert_eq!(st.psets.len(), 2);
        for p in &st.psets {
            // Each part inherited x = 9 in its own namespace.
            assert_eq!(
                st.cg.const_of(VarId::pset_var(p.id, intern_name("x"))),
                Some(9)
            );
        }
        // The singleton part's id is pinned to 0.
        let root_pset = st.psets.iter().find(|p| p.node == CfgNodeId(5)).unwrap().id;
        assert_eq!(st.cg.const_of(VarId::id_of(root_pset)), Some(0));
    }

    #[test]
    fn split_pset_skips_bounds_of_possibly_empty_parts() {
        let mut st = initial();
        // [i .. np-1] with i unconstrained: emptiness unknown.
        let i = VarId::pset_var(st.psets[0].id, intern_name("i"));
        st.cg.ensure_var(i);
        let maybe_empty =
            ProcRange::from_exprs(LinExpr::of_var(i), LinExpr::var_plus(VarId::NP, -1));
        let rest = ProcRange::from_exprs(LinExpr::constant(0), LinExpr::constant(0));
        st.split_pset(
            0,
            vec![
                (maybe_empty, CfgNodeId(5), false),
                (rest, CfgNodeId(6), false),
            ],
        );
        // The shared graph must not have been poisoned with i <= np-1.
        assert!(!st
            .cg
            .implies_le(i.renamed(PsetId(0), PsetId(1)), VarId::NP, -1));
        assert!(!st.cg.is_bottom());
    }

    #[test]
    fn merge_psets_joins_adjacent_at_same_node() {
        let mut st = initial();
        let a = ProcRange::from_exprs(LinExpr::constant(0), LinExpr::constant(3));
        let b = ProcRange::from_exprs(LinExpr::constant(4), LinExpr::var_plus(VarId::NP, -1));
        st.split_pset(0, vec![(a, CfgNodeId(7), false), (b, CfgNodeId(7), false)]);
        st.merge_psets();
        assert_eq!(st.psets.len(), 1);
        let merged = &st.psets[0];
        assert_eq!(merged.node, CfgNodeId(7));
        assert!(merged.range.provably_eq(&st.cg, &ProcRange::all_procs()));
    }

    #[test]
    fn merge_keeps_common_constants_only() {
        let mut st = initial();
        let a = ProcRange::from_exprs(LinExpr::constant(0), LinExpr::constant(0));
        let b = ProcRange::from_exprs(LinExpr::constant(1), LinExpr::constant(1));
        st.split_pset(0, vec![(a, CfgNodeId(7), false), (b, CfgNodeId(7), false)]);
        // Give the two parts different values of y, same value of z.
        let (p0, p1) = (st.psets[0].id, st.psets[1].id);
        st.cg
            .assign(VarId::pset_var(p0, intern_name("y")), &LinExpr::constant(1));
        st.cg
            .assign(VarId::pset_var(p1, intern_name("y")), &LinExpr::constant(2));
        st.cg
            .assign(VarId::pset_var(p0, intern_name("z")), &LinExpr::constant(5));
        st.cg
            .assign(VarId::pset_var(p1, intern_name("z")), &LinExpr::constant(5));
        st.merge_psets();
        assert_eq!(st.psets.len(), 1);
        let m = st.psets[0].id;
        assert_eq!(st.cg.const_of(VarId::pset_var(m, intern_name("y"))), None);
        assert_eq!(
            st.cg.const_of(VarId::pset_var(m, intern_name("z"))),
            Some(5)
        );
        // Bounds survive: y in [1..2].
        assert!(st
            .cg
            .implies_le(VarId::pset_var(m, intern_name("y")), VarId::ZERO, 2));
        assert!(st
            .cg
            .implies_le(VarId::ZERO, VarId::pset_var(m, intern_name("y")), -1));
    }

    #[test]
    fn drop_empty_removes_provably_empty() {
        let mut st = initial();
        let empty =
            ProcRange::from_exprs(LinExpr::of_var(VarId::NP), LinExpr::var_plus(VarId::NP, -1));
        let rest = ProcRange::all_procs();
        st.split_pset(
            0,
            vec![(empty, CfgNodeId(5), false), (rest, CfgNodeId(6), false)],
        );
        let all_known = st.drop_empty_psets();
        assert!(all_known);
        assert_eq!(st.psets.len(), 1);
        assert_eq!(st.psets[0].node, CfgNodeId(6));
    }

    #[test]
    fn renumber_canonical_sorts_and_compacts_ids() {
        let mut st = initial();
        let a = ProcRange::from_exprs(LinExpr::constant(0), LinExpr::constant(1));
        let b = ProcRange::from_exprs(LinExpr::constant(2), LinExpr::var_plus(VarId::NP, -1));
        st.split_pset(0, vec![(b, CfgNodeId(9), false), (a, CfgNodeId(3), false)]);
        st.renumber_canonical();
        // Sorted by CFG node: node 3 first, ids sequential from 0.
        assert_eq!(st.psets[0].node, CfgNodeId(3));
        assert_eq!(st.psets[0].id, PsetId(0));
        assert_eq!(st.psets[1].id, PsetId(1));
        // Constraints moved with the renaming.
        assert!(st.cg.implies_le(VarId::id_of(PsetId(0)), VarId::ZERO, 1));
    }

    /// Sets at one CFG node order by their rendered ranges — as text, so
    /// `[10..np-1]` sorts before `[2..9]` — and a pending send breaks a
    /// tie between equal ranges.
    #[test]
    fn renumber_canonical_breaks_node_ties_by_rendered_range() {
        let mut st = initial();
        let range = |lo, hi| ProcRange::from_exprs(LinExpr::constant(lo), LinExpr::constant(hi));
        let tail = ProcRange::from_exprs(LinExpr::constant(10), LinExpr::var_plus(VarId::NP, -1));
        st.split_pset(
            0,
            vec![
                (range(0, 1), CfgNodeId(7), true),
                (range(2, 9), CfgNodeId(7), false),
                (range(0, 1), CfgNodeId(7), false),
                (tail, CfgNodeId(7), false),
                (range(0, 1), CfgNodeId(3), false),
            ],
        );
        st.psets[0].pending = Some(PendingSend {
            node: CfgNodeId(2),
            value: Expr::Int(1),
            dest: Expr::Int(0),
        });
        st.renumber_canonical();
        let order: Vec<(CfgNodeId, String, bool)> = st
            .psets
            .iter()
            .map(|p| (p.node, p.range.to_string(), p.pending.is_some()))
            .collect();
        let at7 = |r: &str, pending| (CfgNodeId(7), r.to_owned(), pending);
        assert_eq!(
            order,
            vec![
                (CfgNodeId(3), "[0..1]".to_owned(), false),
                at7("[0..1]", false),
                at7("[0..1]", true),
                at7("[10..np-1]", false),
                at7("[2..9]", false),
            ]
        );
        let ids: Vec<u32> = st.psets.iter().map(|p| p.id.0).collect();
        assert_eq!(ids, [0, 1, 2, 3, 4]);
    }

    /// Renumbering three sets whose ids, in canonical order, are 2, 0
    /// and 1 (a cycle: no id keeps its place) moves graph, uniform set
    /// and ranges exactly as the same renames made one at a time
    /// through a temporary band of unused ids do.
    #[test]
    fn renumber_canonical_matches_renames_through_a_band() {
        let mut st = initial();
        let parts = [(0, 0), (1, 1), (2, 3)].map(|(lo, hi)| {
            let r = ProcRange::from_exprs(LinExpr::constant(lo), LinExpr::constant(hi));
            (r, CfgNodeId(0), false)
        });
        st.split_pset(0, parts.to_vec());
        st.renumber_canonical();
        let x = |p: u32| VarId::pset_var(PsetId(p), intern_name("x"));
        for p in 0..3 {
            st.cg.assert_eq_const(x(p), i64::from(p) + 1);
            st.uniform.insert(x(p));
        }
        st.cg.close();
        // Each range also names the other sets' variables.
        st.resaturate_ranges();
        for (k, node) in [(0, 5), (1, 9), (2, 2)] {
            st.psets[k].node = CfgNodeId(node);
        }
        let mut reference = st.clone();
        reference
            .psets
            .sort_by_key(|p| (p.node, p.range.to_string(), p.pending.is_some()));
        let olds: Vec<PsetId> = reference.psets.iter().map(|p| p.id).collect();
        assert_eq!(olds, [PsetId(2), PsetId(0), PsetId(1)]);
        const BAND: u32 = 1 << 15;
        let rename = |s: &mut AnalysisState, from: PsetId, to: PsetId| {
            s.cg.rename_namespaces(&[(from, to)]);
            let uniform: BTreeSet<VarId> = s.uniform.iter().map(|v| v.renamed(from, to)).collect();
            s.uniform = uniform.into();
            for p in &mut s.psets {
                if p.id == from {
                    p.id = to;
                }
                p.range = p.range.renamed(&[(from, to)]);
            }
        };
        for (k, &old) in olds.iter().enumerate() {
            rename(&mut reference, old, PsetId(BAND + k as u32));
        }
        for k in 0..olds.len() as u32 {
            rename(&mut reference, PsetId(BAND + k), PsetId(k));
        }
        st.renumber_canonical();
        assert_eq!(st.cg.variables(), reference.cg.variables());
        assert!(st.cg.same_shape(&reference.cg));
        assert_eq!(st.cg.fingerprint(), reference.cg.fingerprint());
        assert_eq!(*st.uniform, *reference.uniform);
        for (p, q) in st.psets.iter().zip(&reference.psets) {
            assert_eq!((p.id, p.node), (q.id, q.node));
            assert_eq!(p.range, q.range);
            assert!(p.range.mentions(|v| v.namespace() != Some(p.id)));
        }
        assert!(st.structurally_eq(&reference));
        assert_eq!(st.fingerprint(), reference.fingerprint());
        assert_eq!(st.cg.const_of(x(0)), Some(3));
    }

    #[test]
    fn merge_psets_is_idempotent() {
        let mut st = initial();
        let a = ProcRange::from_exprs(LinExpr::constant(0), LinExpr::constant(3));
        let b = ProcRange::from_exprs(LinExpr::constant(4), LinExpr::var_plus(VarId::NP, -1));
        st.split_pset(0, vec![(a, CfgNodeId(7), false), (b, CfgNodeId(7), false)]);
        st.merge_psets();
        let once = st.clone();
        st.merge_psets();
        assert_eq!(st.psets.len(), once.psets.len());
        assert!(st.structurally_eq(&once));
    }

    #[test]
    fn renumber_canonical_is_idempotent() {
        let mut st = initial();
        let a = ProcRange::from_exprs(LinExpr::constant(0), LinExpr::constant(1));
        let b = ProcRange::from_exprs(LinExpr::constant(2), LinExpr::var_plus(VarId::NP, -1));
        st.split_pset(0, vec![(b, CfgNodeId(9), false), (a, CfgNodeId(3), false)]);
        st.renumber_canonical();
        let once = st.clone();
        st.renumber_canonical();
        assert_eq!(
            st.psets.iter().map(|p| p.id).collect::<Vec<_>>(),
            once.psets.iter().map(|p| p.id).collect::<Vec<_>>()
        );
        assert!(st.structurally_eq(&once));
    }

    #[test]
    fn location_key_reflects_nodes_and_pendings() {
        let mut st = initial();
        assert_eq!(st.location_key(), vec![(CfgNodeId(0), false)]);
        st.psets[0].pending = Some(PendingSend {
            node: CfgNodeId(2),
            value: Expr::Int(1),
            dest: Expr::Int(0),
        });
        assert_eq!(st.location_key(), vec![(CfgNodeId(0), true)]);
    }

    #[test]
    fn widen_with_same_state_is_fixpoint() {
        let mut st = initial();
        st.renumber_canonical();
        st.resaturate_ranges();
        let w = st.widen_with_thresholds(&st, &mpl_domains::DEFAULT_WIDEN_THRESHOLDS);
        assert!(w.structurally_eq(&st));
    }

    #[test]
    fn rewrite_aliases_shift_and_strip() {
        let mut st = initial();
        let i = VarId::pset_var(st.psets[0].id, intern_name("i"));
        st.cg.assert_eq_const(i, 1);
        // Install a range whose ub mentions i.
        st.psets[0].range = ProcRange::from_exprs(LinExpr::constant(0), LinExpr::of_var(i));
        st.rewrite_aliases_on_assign(i, Some(1)); // i := i + 1
        assert!(st.psets[0]
            .range
            .ub
            .exprs()
            .contains(&LinExpr::var_plus(i, -1)));
        st.rewrite_aliases_on_assign(i, None); // arbitrary overwrite
        assert!(st.psets[0].range.ub.is_vacant());
        assert!(st.any_vacant_range());
    }

    #[test]
    fn remove_pset_preserves_other_namespaces() {
        let mut st = initial();
        let a = ProcRange::from_exprs(LinExpr::constant(0), LinExpr::constant(0));
        let b = ProcRange::from_exprs(LinExpr::constant(1), LinExpr::var_plus(VarId::NP, -1));
        st.split_pset(0, vec![(a, CfgNodeId(5), false), (b, CfgNodeId(6), false)]);
        let keep = st.psets[1].id;
        st.cg
            .assert_eq_const(VarId::pset_var(keep, intern_name("v")), 3);
        st.remove_pset(0);
        assert_eq!(st.psets.len(), 1);
        assert_eq!(
            st.cg.const_of(VarId::pset_var(keep, intern_name("v"))),
            Some(3)
        );
    }
}
