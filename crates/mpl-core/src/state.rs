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
use mpl_domains::{ConstEnv, ConstraintGraph, NsVar, PsetId, VarId};
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
    /// The constraint-graph dataflow state (per-set namespaces).
    pub cg: Shared<ConstraintGraph>,
    /// The flat constant environment (constant-propagation client).
    pub consts: Shared<ConstEnv>,
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
        cg.assert_le(&NsVar::Zero, &NsVar::Np, -min_np); // np >= min_np
        let p0 = PsetId(0);
        let id0 = NsVar::id_of(p0);
        cg.assert_le(&NsVar::Zero, &id0, 0); // id >= 0
        cg.assert_le(&id0, &NsVar::Np, -1); // id <= np-1
        AnalysisState {
            cg: cg.into(),
            consts: Shared::new(ConstEnv::new()),
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
            self.consts.clone_namespace(old.id, nid);
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
            if range.is_empty(&mut self.cg) == Some(false) {
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
        for p in &mut self.psets {
            let lb = p.range.lb.saturated(&mut self.cg);
            let ub = p.range.ub.saturated(&mut self.cg);
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
    /// (exactly, see [`ConstraintGraph::retain_vars`]), the constant
    /// environment and the uniform set, and strips their aliases from
    /// every range bound. A component that holds none of them is left
    /// untouched, so its copy-on-write handle stays shared.
    pub fn project_out(&mut self, dead: impl Fn(VarId) -> bool) {
        if self.cg.variables().iter().any(|&v| dead(v)) {
            self.cg.retain_vars(|v| !dead(v));
        }
        if self.consts.iter().any(|(&v, _)| dead(v)) {
            self.consts.retain(|v| !dead(v));
        }
        if self.uniform.iter().any(|&v| dead(v)) {
            self.uniform.retain(|&v| !dead(v));
        }
        for p in &mut self.psets {
            if p.range.mentions(&dead) {
                p.range = strip_range(&p.range, &dead);
            }
        }
    }

    /// Rewrites range-bound aliases after an assignment in namespace `p`:
    /// a shift `x := x + c` translates aliases of `x`; any other write to
    /// `x` invalidates them. Call *before* mutating the constraint graph
    /// when possible so lost aliases can be re-derived. Sets whose bounds
    /// do not mention `var` keep their copy-on-write handle shared.
    pub fn rewrite_aliases_on_assign(&mut self, var: impl Into<VarId>, shift: Option<i64>) {
        let var = var.into();
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
        let mut i = 0;
        let mut all_known = true;
        while i < self.psets.len() {
            match self.psets[i].range.is_empty(&mut self.cg) {
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
                    let (ri, rj) = (self.psets[i].range.clone(), self.psets[j].range.clone());
                    if let Some(joined) = ri.merge_adjacent(&mut self.cg, &rj) {
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
        // Per-variable join of the two namespaces: project each side down
        // to one namespace renamed to `m`, then join pointwise.
        let mut a_side = self.cg.clone();
        a_side.drop_namespace(b);
        a_side.rename_namespace(a, m);
        let mut b_side = self.cg.clone();
        b_side.drop_namespace(a);
        b_side.rename_namespace(b, m);
        self.cg = a_side.join(&b_side).into();
        let mut ca = {
            let mut c = (*self.consts).clone();
            c.drop_namespace(b);
            c.rename_namespace(a, m)
        };
        let cb = {
            let mut c = (*self.consts).clone();
            c.drop_namespace(a);
            c.rename_namespace(b, m)
        };
        ca = ca.join(&cb);
        // Uniformity across the merged set: both halves uniform and
        // pinned to the same constant.
        let merged_uniform: Vec<VarId> = self
            .uniform
            .iter()
            .filter(|v| v.namespace() == Some(a))
            .filter_map(|&v| {
                let vb = v.renamed(a, b);
                if !self.uniform.contains(&vb) {
                    return None;
                }
                let cva = self.consts.const_of(v)?;
                let cvb = self.consts.const_of(vb)?;
                (cva == cvb).then(|| v.renamed(a, m))
            })
            .collect();
        self.consts = ca.into();
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
        // Already canonical (the steady state once the analysis reaches a
        // loop's fixpoint): every rename below would be the identity, so
        // skip the two O(p) rename sweeps over graph, consts and ranges.
        if self
            .psets
            .iter()
            .enumerate()
            .all(|(k, p)| p.id.0 == k as u32)
        {
            self.next_id = self.psets.len() as u32;
            return;
        }
        // Two-phase rename to avoid collisions. The temporary band sits
        // just below the packed VarId's 16-bit pset-id ceiling; live ids
        // are reset to 0.. right below, so the band is never reached by
        // real allocations.
        const TMP: u32 = 1 << 15;
        let olds: Vec<PsetId> = self.psets.iter().map(|p| p.id).collect();
        for (k, &old) in olds.iter().enumerate() {
            let tmp = PsetId(TMP + k as u32);
            self.rename_everywhere(old, tmp);
        }
        for k in 0..olds.len() {
            let tmp = PsetId(TMP + k as u32);
            let fin = PsetId(k as u32);
            self.rename_everywhere(tmp, fin);
        }
        self.next_id = self.psets.len() as u32;
    }

    fn rename_everywhere(&mut self, from: PsetId, to: PsetId) {
        self.cg.rename_namespace(from, to);
        self.consts = self.consts.rename_namespace(from, to).into();
        let renamed: BTreeSet<VarId> = self.uniform.iter().map(|v| v.renamed(from, to)).collect();
        self.uniform = renamed.into();
        for p in &mut self.psets {
            // Skip untouched sets so their `Shared` handle stays shared.
            let touches = p.id == from || p.range.mentions(|v| v.namespace() == Some(from));
            if !touches {
                continue;
            }
            if p.id == from {
                p.id = to;
            }
            p.range = p.range.renamed(from, to);
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
    /// constraint-graph widening, range-bound alias intersection,
    /// constant-env join, match-set union.
    #[must_use]
    pub fn widen_with(&self, newer: &AnalysisState) -> AnalysisState {
        self.widen_with_thresholds(newer, &mpl_domains::DEFAULT_WIDEN_THRESHOLDS)
    }

    /// [`AnalysisState::widen_with`] with an explicit threshold ladder for
    /// the constraint-graph widening (see
    /// [`mpl_domains::ConstraintGraph::widen_with_thresholds`]).
    #[must_use]
    pub fn widen_with_thresholds(
        &self,
        newer: &AnalysisState,
        thresholds: &[i64],
    ) -> AnalysisState {
        debug_assert_eq!(self.location_key(), newer.location_key());
        let mut out = self.clone();
        out.cg = self.cg.widen_with_thresholds(&newer.cg, thresholds).into();
        out.consts = self.consts.join(&newer.consts).into();
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

    /// True if `self` and `other` carry the same information (used for
    /// fixpoint detection after widening; `other` must be at the same
    /// location).
    ///
    /// Fast path: equal [`AnalysisState::fingerprint`]s mean structural
    /// equality (identical recorded content), which implies the full
    /// semantic check below — so the common no-new-info admission is
    /// O(1). Unequal fingerprints fall back to
    /// [`AnalysisState::same_as_slow`], since structurally different
    /// states can still be semantically equal (one may simply not be
    /// closed yet).
    #[must_use]
    pub fn same_as(&self, other: &AnalysisState) -> bool {
        if self.fingerprint() == other.fingerprint() {
            debug_assert!(
                self.structurally_eq(other),
                "state fingerprint collision: {self} vs {other}"
            );
            return true;
        }
        self.same_as_slow(other)
    }

    /// The full semantic equality check (bidirectional constraint-graph
    /// entailment plus field comparisons) — the pre-fingerprint
    /// [`AnalysisState::same_as`], kept as the fallback and as the test
    /// oracle for the fast path.
    #[must_use]
    pub fn same_as_slow(&self, other: &AnalysisState) -> bool {
        if self.matches != other.matches
            || self.consts != other.consts
            || self.uniform != other.uniform
        {
            return false;
        }
        if self.psets.len() != other.psets.len() {
            return false;
        }
        for (p, q) in self.psets.iter().zip(&other.psets) {
            if p.node != q.node
                || p.range.lb.exprs() != q.range.lb.exprs()
                || p.range.ub.exprs() != q.range.ub.exprs()
                || p.pending != q.pending
            {
                return false;
            }
        }
        let mut a = (*self.cg).clone();
        let mut b = (*other.cg).clone();
        a.entails(&other.cg) && b.entails(&self.cg)
    }

    /// A 64-bit structural fingerprint of the whole state, chaining the
    /// component fingerprints ([`ConstraintGraph::fingerprint`],
    /// [`ConstEnv::fingerprint`]) with the uniform set, process sets
    /// (id, node, range-bound alias sets, pending send) and the match
    /// set's cached length and [`MatchSet::fingerprint`].
    ///
    /// Equal fingerprints are treated as structural equality by
    /// [`AnalysisState::same_as`]; collisions are debug-asserted against.
    /// The hash is deterministic within a process, which is all the
    /// admission dedup needs.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut h = DefaultHasher::new();
        self.cg.fingerprint().hash(&mut h);
        self.consts.fingerprint().hash(&mut h);
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
    /// the structural equality that fingerprint equality stands for
    /// (stronger than [`AnalysisState::same_as_slow`], which also
    /// equates states whose graphs close to the same bounds).
    #[must_use]
    pub fn structurally_eq(&self, other: &AnalysisState) -> bool {
        self.matches == other.matches
            && self.consts == other.consts
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
        if seen.insert(Shared::heap_id(&self.consts)) {
            total += std::mem::size_of::<ConstEnv>() + self.consts.len() * BTREE_ENTRY;
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
    use mpl_domains::LinExpr;

    fn initial() -> AnalysisState {
        AnalysisState::initial(CfgNodeId(0), 4)
    }

    #[test]
    fn initial_state_has_all_procs_with_id_bounds() {
        let mut st = initial();
        assert_eq!(st.psets.len(), 1);
        let id0 = NsVar::id_of(st.psets[0].id);
        assert!(st.cg.implies_le(&NsVar::Zero, &id0, 0)); // id >= 0
        assert!(st.cg.implies_le(&id0, &NsVar::Np, -1)); // id <= np-1
        assert!(st.cg.implies_le(&NsVar::Zero, &NsVar::Np, -4)); // np >= 4
        assert_eq!(st.psets[0].range.is_empty(&mut st.cg), Some(false));
    }

    #[test]
    fn split_pset_clones_namespace_and_bounds() {
        let mut st = initial();
        let x = NsVar::pset(st.psets[0].id, "x");
        st.cg.assert_eq_const(&x, 9);
        let root = ProcRange::from_exprs(LinExpr::constant(0), LinExpr::constant(0));
        let rest = ProcRange::from_exprs(LinExpr::constant(1), LinExpr::var_plus(NsVar::Np, -1));
        st.split_pset(
            0,
            vec![(root, CfgNodeId(5), false), (rest, CfgNodeId(6), false)],
        );
        assert_eq!(st.psets.len(), 2);
        for p in st.psets.clone() {
            // Each part inherited x = 9 in its own namespace.
            assert_eq!(st.cg.const_of(NsVar::pset(p.id, "x")), Some(9));
        }
        // The singleton part's id is pinned to 0.
        let root_pset = st.psets.iter().find(|p| p.node == CfgNodeId(5)).unwrap().id;
        assert_eq!(st.cg.const_of(NsVar::id_of(root_pset)), Some(0));
    }

    #[test]
    fn split_pset_skips_bounds_of_possibly_empty_parts() {
        let mut st = initial();
        // [i .. np-1] with i unconstrained: emptiness unknown.
        let i = NsVar::pset(st.psets[0].id, "i");
        st.cg.ensure_var(&i);
        let maybe_empty =
            ProcRange::from_exprs(LinExpr::of_var(i.clone()), LinExpr::var_plus(NsVar::Np, -1));
        let rest = ProcRange::from_exprs(LinExpr::constant(0), LinExpr::constant(0));
        st.split_pset(
            0,
            vec![
                (maybe_empty, CfgNodeId(5), false),
                (rest, CfgNodeId(6), false),
            ],
        );
        // The shared graph must not have been poisoned with i <= np-1.
        let mut cg = st.cg.clone();
        assert!(!cg.implies_le(i.renamed(PsetId(0), PsetId(1)), &NsVar::Np, -1));
        assert!(!st.cg.is_bottom());
    }

    #[test]
    fn merge_psets_joins_adjacent_at_same_node() {
        let mut st = initial();
        let a = ProcRange::from_exprs(LinExpr::constant(0), LinExpr::constant(3));
        let b = ProcRange::from_exprs(LinExpr::constant(4), LinExpr::var_plus(NsVar::Np, -1));
        st.split_pset(0, vec![(a, CfgNodeId(7), false), (b, CfgNodeId(7), false)]);
        st.merge_psets();
        assert_eq!(st.psets.len(), 1);
        let merged = &st.psets[0];
        assert_eq!(merged.node, CfgNodeId(7));
        let mut cg = st.cg.clone();
        assert!(merged.range.provably_eq(&mut cg, &ProcRange::all_procs()));
    }

    #[test]
    fn merge_keeps_common_constants_only() {
        let mut st = initial();
        let a = ProcRange::from_exprs(LinExpr::constant(0), LinExpr::constant(0));
        let b = ProcRange::from_exprs(LinExpr::constant(1), LinExpr::constant(1));
        st.split_pset(0, vec![(a, CfgNodeId(7), false), (b, CfgNodeId(7), false)]);
        // Give the two parts different values of y, same value of z.
        let (p0, p1) = (st.psets[0].id, st.psets[1].id);
        st.cg.assign(NsVar::pset(p0, "y"), &LinExpr::constant(1));
        st.cg.assign(NsVar::pset(p1, "y"), &LinExpr::constant(2));
        st.cg.assign(NsVar::pset(p0, "z"), &LinExpr::constant(5));
        st.cg.assign(NsVar::pset(p1, "z"), &LinExpr::constant(5));
        st.merge_psets();
        assert_eq!(st.psets.len(), 1);
        let m = st.psets[0].id;
        assert_eq!(st.cg.const_of(NsVar::pset(m, "y")), None);
        assert_eq!(st.cg.const_of(NsVar::pset(m, "z")), Some(5));
        // Bounds survive: y in [1..2].
        assert!(st.cg.implies_le(NsVar::pset(m, "y"), &NsVar::Zero, 2));
        assert!(st.cg.implies_le(&NsVar::Zero, NsVar::pset(m, "y"), -1));
    }

    #[test]
    fn drop_empty_removes_provably_empty() {
        let mut st = initial();
        let empty =
            ProcRange::from_exprs(LinExpr::of_var(NsVar::Np), LinExpr::var_plus(NsVar::Np, -1));
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
        let b = ProcRange::from_exprs(LinExpr::constant(2), LinExpr::var_plus(NsVar::Np, -1));
        st.split_pset(0, vec![(b, CfgNodeId(9), false), (a, CfgNodeId(3), false)]);
        st.renumber_canonical();
        // Sorted by CFG node: node 3 first, ids sequential from 0.
        assert_eq!(st.psets[0].node, CfgNodeId(3));
        assert_eq!(st.psets[0].id, PsetId(0));
        assert_eq!(st.psets[1].id, PsetId(1));
        // Constraints moved with the renaming.
        let mut cg = st.cg.clone();
        assert!(cg.implies_le(NsVar::id_of(PsetId(0)), &NsVar::Zero, 1));
    }

    /// Sets at one CFG node order by their rendered ranges — as text, so
    /// `[10..np-1]` sorts before `[2..9]` — and a pending send breaks a
    /// tie between equal ranges.
    #[test]
    fn renumber_canonical_breaks_node_ties_by_rendered_range() {
        let mut st = initial();
        let range = |lo, hi| ProcRange::from_exprs(LinExpr::constant(lo), LinExpr::constant(hi));
        let tail = ProcRange::from_exprs(LinExpr::constant(10), LinExpr::var_plus(NsVar::Np, -1));
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

    #[test]
    fn merge_psets_is_idempotent() {
        let mut st = initial();
        let a = ProcRange::from_exprs(LinExpr::constant(0), LinExpr::constant(3));
        let b = ProcRange::from_exprs(LinExpr::constant(4), LinExpr::var_plus(NsVar::Np, -1));
        st.split_pset(0, vec![(a, CfgNodeId(7), false), (b, CfgNodeId(7), false)]);
        st.merge_psets();
        let once = st.clone();
        st.merge_psets();
        assert_eq!(st.psets.len(), once.psets.len());
        assert!(st.same_as(&once));
    }

    #[test]
    fn renumber_canonical_is_idempotent() {
        let mut st = initial();
        let a = ProcRange::from_exprs(LinExpr::constant(0), LinExpr::constant(1));
        let b = ProcRange::from_exprs(LinExpr::constant(2), LinExpr::var_plus(NsVar::Np, -1));
        st.split_pset(0, vec![(b, CfgNodeId(9), false), (a, CfgNodeId(3), false)]);
        st.renumber_canonical();
        let once = st.clone();
        st.renumber_canonical();
        assert_eq!(
            st.psets.iter().map(|p| p.id).collect::<Vec<_>>(),
            once.psets.iter().map(|p| p.id).collect::<Vec<_>>()
        );
        assert!(st.same_as(&once));
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
        let w = st.widen_with(&st.clone());
        assert!(w.same_as(&st));
    }

    #[test]
    fn rewrite_aliases_shift_and_strip() {
        let mut st = initial();
        let i = NsVar::pset(st.psets[0].id, "i");
        st.cg.assert_eq_const(&i, 1);
        // Install a range whose ub mentions i.
        st.psets[0].range = ProcRange::from_exprs(LinExpr::constant(0), LinExpr::of_var(i.clone()));
        st.rewrite_aliases_on_assign(&i, Some(1)); // i := i + 1
        assert!(st.psets[0]
            .range
            .ub
            .exprs()
            .contains(&LinExpr::var_plus(i.clone(), -1)));
        st.rewrite_aliases_on_assign(&i, None); // arbitrary overwrite
        assert!(st.psets[0].range.ub.is_vacant());
        assert!(st.any_vacant_range());
    }

    #[test]
    fn remove_pset_preserves_other_namespaces() {
        let mut st = initial();
        let a = ProcRange::from_exprs(LinExpr::constant(0), LinExpr::constant(0));
        let b = ProcRange::from_exprs(LinExpr::constant(1), LinExpr::var_plus(NsVar::Np, -1));
        st.split_pset(0, vec![(a, CfgNodeId(5), false), (b, CfgNodeId(6), false)]);
        let keep = st.psets[1].id;
        st.cg.assert_eq_const(NsVar::pset(keep, "v"), 3);
        st.remove_pset(0);
        assert_eq!(st.psets.len(), 1);
        assert_eq!(st.cg.const_of(NsVar::pset(keep, "v")), Some(3));
    }
}
