//! Constraint graphs (§VII-A): conjunctions of difference constraints
//! `x ≤ y + c` over interned variables, stored as a dense difference-bound
//! matrix keyed by [`VarId`] with instrumented transitive closure.
//!
//! Writes record dirty edges; [`ConstraintGraph::close`] is a no-op when
//! nothing changed and otherwise drains the dirty set with per-edge O(n²)
//! incremental propagation, falling back to the full O(n³) Floyd–Warshall
//! pass only when enough of the matrix was touched to make that cheaper.
//!
//! Queries take `&self` and read a closed graph: whoever writes calls
//! `close` before the next read. Debug builds assert it; a release build
//! reads the matrix as it stands, which is sound (a bound not yet
//! propagated is only missing, never wrong) and is how widened graphs
//! are read anyway.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;
use std::time::Instant;

use crate::linexpr::LinExpr;
use crate::stats;
use crate::var::{PsetId, VarId};

/// "No constraint". Kept well below `i64::MAX` so bound additions cannot
/// overflow; any sum reaching `INF` is clamped back to `INF`.
const INF: i64 = i64::MAX / 4;

/// The widening threshold ladder used by [`ConstraintGraph::widen`] when
/// the client supplies none (see
/// [`ConstraintGraph::widen_with_thresholds`]).
pub const DEFAULT_WIDEN_THRESHOLDS: [i64; 7] = [-2, -1, 0, 1, 2, 4, 8];

fn add(a: i64, b: i64) -> i64 {
    if a >= INF || b >= INF {
        INF
    } else {
        (a + b).min(INF)
    }
}

/// A fast hasher for small keys that an adversary does not choose (FxHash's
/// rotate-xor-multiply per word): the graph's variable index, and the
/// engine's per-run tables, whose outputs never depend on a table's
/// iteration order. A packed `VarId` costs one multiply, where SipHash
/// costs dozens of operations.
#[derive(Default)]
pub struct FxHasher(u64);

impl FxHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517C_C1B7_2722_0A95);
    }
}

impl Hasher for FxHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

/// A `HashMap` under [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

type IdMap = FxHashMap<VarId, usize>;

/// All bottoms fingerprint to this sentinel: once a negative cycle is
/// found, recorded bounds are meaningless and every bottom is the same
/// lattice element.
const BOTTOM_FP: u64 = 0x0B07_70B0_0B07_70B0;

/// SplitMix64 finalizer — the mixing behind the structural fingerprint.
/// Public because every fingerprint in the workspace (DBM structure,
/// analysis-request content hashes) draws from this one mixing function.
#[must_use]
pub fn splitmix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

use splitmix64 as mix64;

/// The fingerprint contribution of the bound `x ≤ y + c`.
fn edge_mix(x: VarId, y: VarId, c: i64) -> u64 {
    let pair = (u64::from(x.raw()) << 32) | u64::from(y.raw());
    mix64(pair.wrapping_add(mix64(c as u64 ^ 0x9E37_79B9_7F4A_7C15)))
}

/// The fingerprint contribution of tracking variable `x` at all.
fn var_mix(x: VarId) -> u64 {
    mix64(u64::from(x.raw()) ^ 0xD6E8_FEB8_6659_FD93)
}

thread_local! {
    /// Reusable keep-list for projections: `remove_var` and
    /// `drop_namespace` recycle this instead of building a fresh
    /// `Vec<usize>` on every call.
    static KEEP_SCRATCH: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

/// A conjunction of difference constraints `x ≤ y + c`.
///
/// The distinguished variable [`VarId::ZERO`] is always present, so unary
/// bounds are expressed as differences against it (`x ≤ 5` is
/// `x ≤ Zero + 5`). An inconsistent conjunction (negative cycle) is the
/// explicit bottom element, reported by [`ConstraintGraph::is_bottom`].
///
/// # Example
///
/// ```
/// use mpl_domains::{intern_name, ConstraintGraph, PsetId, VarId};
///
/// let mut g = ConstraintGraph::new();
/// let i = VarId::pset_var(PsetId(0), intern_name("i"));
/// g.assert_eq_const(i, 1);                 // i = 1
/// g.assert_le(i, VarId::NP, -1);           // i <= np - 1
/// g.close();                               // propagate before reading
/// assert_eq!(g.const_of(i), Some(1));
/// assert!(g.implies_le(VarId::ZERO, VarId::NP, -2)); // 0 <= np - 2
/// ```
#[derive(Clone)]
pub struct ConstraintGraph {
    vars: Vec<VarId>,
    index: IdMap,
    /// Row-major bound matrix with stride `cap ≥ n`; `m[i*cap + j] = c`
    /// means `vars[i] ≤ vars[j] + c`. The capacity grows geometrically so
    /// adding a variable does not reallocate the whole matrix.
    ///
    /// Shared copy-on-write: cloning a graph bumps a refcount, and the
    /// first mutation through [`ConstraintGraph::m_mut`] materializes a
    /// private copy. Queries never copy.
    m: Arc<Vec<i64>>,
    cap: usize,
    infeasible: bool,
    /// Edges written since the matrix was last closed; the graph is
    /// closed exactly when this is empty (or it is bottom).
    dirty: Vec<(u32, u32)>,
    /// Order-canonical structural fingerprint: XOR of [`var_mix`] per
    /// tracked variable and [`edge_mix`] per finite off-diagonal bound,
    /// maintained incrementally by every mutating operation.
    fp: u64,
}

impl Default for ConstraintGraph {
    fn default() -> Self {
        Self::new()
    }
}

impl ConstraintGraph {
    /// An unconstrained, feasible graph containing only [`VarId::ZERO`].
    #[must_use]
    pub fn new() -> ConstraintGraph {
        let mut g = ConstraintGraph {
            vars: Vec::new(),
            index: IdMap::default(),
            m: Arc::new(Vec::new()),
            cap: 0,
            infeasible: false,
            dirty: Vec::new(),
            fp: 0,
        };
        g.ensure_var(VarId::ZERO);
        g
    }

    /// The canonical bottom element.
    #[must_use]
    pub fn bottom() -> ConstraintGraph {
        let mut g = ConstraintGraph::new();
        g.infeasible = true;
        g
    }

    /// True if the constraints are known unsatisfiable. Like every
    /// query it reads a closed graph: a contradiction introduced by a
    /// deferred edge is detected by [`ConstraintGraph::close`]; the
    /// common direct cycle is caught eagerly at
    /// [`ConstraintGraph::assert_le`] time.
    #[must_use]
    pub fn is_bottom(&self) -> bool {
        self.infeasible
    }

    /// All tracked variables.
    #[must_use]
    pub fn variables(&self) -> &[VarId] {
        &self.vars
    }

    /// True if `v` is tracked.
    #[must_use]
    pub fn has_var(&self, v: VarId) -> bool {
        self.index.contains_key(&v)
    }

    fn n(&self) -> usize {
        self.vars.len()
    }

    fn at(&self, i: usize, j: usize) -> i64 {
        self.m[i * self.cap + j]
    }

    /// Mutable access to the bound matrix, materializing a private copy
    /// when the allocation is shared (copy-on-write).
    fn m_mut(&mut self) -> &mut Vec<i64> {
        if Arc::strong_count(&self.m) != 1 {
            stats::record_matrix_copy();
        }
        Arc::make_mut(&mut self.m)
    }

    fn set(&mut self, i: usize, j: usize, c: i64) {
        let idx = i * self.cap + j;
        let old = self.m[idx];
        if old == c {
            return;
        }
        if i != j {
            let (x, y) = (self.vars[i], self.vars[j]);
            if old < INF {
                self.fp ^= edge_mix(x, y, old);
            }
            if c < INF {
                self.fp ^= edge_mix(x, y, c);
            }
        }
        self.m_mut()[idx] = c;
    }

    /// True if every recorded bound is already propagated — no closure
    /// work pending. A bottom graph counts as closed.
    fn is_closed(&self) -> bool {
        self.infeasible || self.dirty.is_empty()
    }

    /// The query contract: a query reads a closed graph.
    #[track_caller]
    fn debug_assert_closed(&self) {
        debug_assert!(self.is_closed(), "query on an unclosed constraint graph");
    }

    /// Order-canonical 64-bit structural fingerprint.
    ///
    /// Equal fingerprints stand for structural equality (same tracked
    /// variables, same finite recorded bounds, or both bottom): the value
    /// is an XOR of per-variable and per-bound mixes, so it is
    /// independent of insertion order and matrix layout. Different
    /// fingerprints say nothing — the caller falls back to a full walk.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        if self.infeasible {
            BOTTOM_FP
        } else {
            self.fp
        }
    }

    /// The fingerprint recomputed from scratch — the oracle the
    /// incremental maintenance is property-tested against.
    #[doc(hidden)]
    #[must_use]
    pub fn recomputed_fingerprint(&self) -> u64 {
        if self.infeasible {
            return BOTTOM_FP;
        }
        let mut fp = 0;
        for &v in &self.vars {
            fp ^= var_mix(v);
        }
        for i in 0..self.n() {
            for j in 0..self.n() {
                if i != j {
                    let c = self.at(i, j);
                    if c < INF {
                        fp ^= edge_mix(self.vars[i], self.vars[j], c);
                    }
                }
            }
        }
        fp
    }

    /// True if the two graphs record identical constraints: the same
    /// variable set and the same finite bounds (positions may differ).
    /// Any two bottoms compare equal. This is the structural equality
    /// that fingerprint equality stands for.
    #[must_use]
    pub fn same_shape(&self, other: &ConstraintGraph) -> bool {
        if self.infeasible || other.infeasible {
            return self.infeasible && other.infeasible;
        }
        if self.vars.len() != other.vars.len() {
            return false;
        }
        let mut map = Vec::with_capacity(self.vars.len());
        for v in &self.vars {
            match other.index.get(v) {
                Some(&oi) => map.push(oi),
                None => return false,
            }
        }
        for i in 0..self.n() {
            for j in 0..self.n() {
                if i == j {
                    continue;
                }
                let a = self.at(i, j);
                let b = other.at(map[i], map[j]);
                if a < INF {
                    if a != b {
                        return false;
                    }
                } else if b < INF {
                    return false;
                }
            }
        }
        true
    }

    /// Heap footprint of the bound matrix together with an identity for
    /// its (possibly shared) allocation, so a store of CoW states can
    /// estimate bytes without double-counting shared matrices.
    #[must_use]
    pub fn matrix_id_and_bytes(&self) -> (usize, usize) {
        (
            Arc::as_ptr(&self.m) as usize,
            self.m.len() * std::mem::size_of::<i64>(),
        )
    }

    /// Heap bytes owned uniquely by this graph value (variable list and
    /// index), excluding the possibly-shared matrix.
    #[must_use]
    pub fn side_bytes(&self) -> usize {
        self.vars.capacity() * std::mem::size_of::<VarId>()
            + self.index.capacity() * std::mem::size_of::<(VarId, usize, u64)>()
            + self.dirty.capacity() * std::mem::size_of::<(u32, u32)>()
    }

    /// Adds `v` (unconstrained) if missing; returns its index.
    pub fn ensure_var(&mut self, v: VarId) -> usize {
        if let Some(&i) = self.index.get(&v) {
            return i;
        }
        let old_n = self.n();
        if old_n == self.cap {
            let new_cap = (old_n + 1).next_power_of_two().max(8);
            let mut m = vec![INF; new_cap * new_cap];
            for i in 0..old_n {
                m[i * new_cap..i * new_cap + old_n]
                    .copy_from_slice(&self.m[i * self.cap..i * self.cap + old_n]);
            }
            self.m = Arc::new(m);
            self.cap = new_cap;
        } else {
            // Clear the stale row/column left behind by compaction
            // (outside the live region, so no fingerprint delta).
            let cap = self.cap;
            let m = self.m_mut();
            for k in 0..=old_n {
                m[old_n * cap + k] = INF;
                m[k * cap + old_n] = INF;
            }
        }
        self.set(old_n, old_n, 0);
        self.vars.push(v);
        self.index.insert(v, old_n);
        self.fp ^= var_mix(v);
        // An unconstrained variable cannot invalidate closure.
        old_n
    }

    /// Runs the full O(n³) Floyd–Warshall closure (instrumented).
    fn full_close(&mut self) {
        if self.infeasible {
            return;
        }
        let start = Instant::now();
        let n = self.n();
        for k in 0..n {
            for i in 0..n {
                let ik = self.at(i, k);
                if ik >= INF {
                    continue;
                }
                for j in 0..n {
                    let through = add(ik, self.at(k, j));
                    if through < self.at(i, j) {
                        self.set(i, j, through);
                    }
                }
            }
        }
        for i in 0..n {
            if self.at(i, i) < 0 {
                self.infeasible = true;
                break;
            }
        }
        stats::record_full(n, start.elapsed().as_nanos() as u64);
    }

    /// Propagates the single edge `vars[i] ≤ vars[j] + m[i][j]` through an
    /// otherwise closed matrix: the O(n²) incremental step (instrumented).
    fn propagate_edge(&mut self, i: usize, j: usize) {
        let start = Instant::now();
        let n = self.n();
        let c = self.at(i, j);
        // Paths p -> i -> j -> q through the new edge.
        for p in 0..n {
            let pi = self.at(p, i);
            if pi >= INF {
                continue;
            }
            let via = add(pi, c);
            for q in 0..n {
                let cand = add(via, self.at(j, q));
                if cand < self.at(p, q) {
                    self.set(p, q, cand);
                }
            }
        }
        for p in 0..n {
            if self.at(p, p) < 0 {
                self.infeasible = true;
                break;
            }
        }
        stats::record_incremental(n, start.elapsed().as_nanos() as u64);
    }

    /// Restores closure. A no-op when nothing changed since the last
    /// closure; otherwise drains the dirty edges one incremental O(n²)
    /// step each, or falls back to one full O(n³) pass when the dirty set
    /// is large enough.
    ///
    /// Draining sequentially is complete: each propagation runs against a
    /// matrix already closed with respect to all previously drained
    /// edges, so every shortest path using several new edges is built up
    /// edge by edge.
    pub fn close(&mut self) {
        if self.infeasible || self.dirty.is_empty() {
            return;
        }
        if self.dirty.len() * 2 >= self.n() {
            self.dirty.clear();
            self.full_close();
            return;
        }
        let dirty = std::mem::take(&mut self.dirty);
        for (i, j) in dirty {
            if self.infeasible {
                break;
            }
            self.propagate_edge(i as usize, j as usize);
        }
    }

    /// Asserts `x ≤ y + c`.
    ///
    /// Missing variables are added. The edge is recorded and closure is
    /// deferred to the next [`ConstraintGraph::close`]; only a direct
    /// contradiction (`y ≤ x + c'` with `c + c' < 0`) is detected
    /// immediately.
    pub fn assert_le(&mut self, x: VarId, y: VarId, c: i64) {
        if self.infeasible {
            return;
        }
        let i = self.ensure_var(x);
        let j = self.ensure_var(y);
        if i == j {
            if c < 0 {
                self.infeasible = true;
            }
            return;
        }
        if c >= self.at(i, j) {
            return; // No new information.
        }
        self.set(i, j, c);
        if stats::force_full_closure() {
            // Ablation mode: behave like the paper's unoptimized
            // prototype and re-run the full O(n³) closure immediately.
            self.dirty.clear();
            self.full_close();
            return;
        }
        if add(c, self.at(j, i)) < 0 {
            self.infeasible = true;
            return;
        }
        self.dirty.push((i as u32, j as u32));
    }

    /// Asserts `x = y + c`.
    pub fn assert_eq_offset(&mut self, x: VarId, y: VarId, c: i64) {
        self.assert_le(x, y, c);
        self.assert_le(y, x, -c);
    }

    /// Asserts `x = c`.
    pub fn assert_eq_const(&mut self, x: VarId, c: i64) {
        self.assert_eq_offset(x, VarId::ZERO, c);
    }

    /// Asserts `x = e` for a linear expression.
    pub fn assert_eq_expr(&mut self, x: VarId, e: &LinExpr) {
        match e.var {
            Some(v) => self.assert_eq_offset(x, v, e.offset),
            None => self.assert_eq_const(x, e.offset),
        }
    }

    /// Asserts `x ≤ e`.
    pub fn assert_le_expr(&mut self, x: VarId, e: &LinExpr) {
        self.assert_le(x, e.var.unwrap_or(VarId::ZERO), e.offset);
    }

    /// Asserts `e ≤ x`.
    pub fn assert_ge_expr(&mut self, x: VarId, e: &LinExpr) {
        self.assert_le(e.var.unwrap_or(VarId::ZERO), x, -e.offset);
    }

    /// The tightest known `c` with `x ≤ y + c`, or `None` if unconstrained
    /// (or either variable is untracked).
    #[must_use]
    pub fn le_bound(&self, x: VarId, y: VarId) -> Option<i64> {
        self.debug_assert_closed();
        if self.infeasible {
            return Some(i64::MIN / 4); // Bottom entails everything.
        }
        let i = *self.index.get(&x)?;
        let j = *self.index.get(&y)?;
        let c = self.at(i, j);
        (c < INF).then_some(c)
    }

    /// True if the constraints imply `x ≤ y + c`.
    #[must_use]
    pub fn implies_le(&self, x: VarId, y: VarId, c: i64) -> bool {
        match self.le_bound(x, y) {
            Some(b) => b <= c,
            None => false,
        }
    }

    /// `Some(c)` if the constraints imply `x = y + c`. Returns `None` on
    /// bottom (an unreachable state pins nothing down usefully).
    #[must_use]
    pub fn eq_offset(&self, x: VarId, y: VarId) -> Option<i64> {
        self.debug_assert_closed();
        if self.infeasible {
            return None;
        }
        self.eq_at(*self.index.get(&x)?, *self.index.get(&y)?)
    }

    /// `Some(c)` if the bounds between rows `i` and `j` pin
    /// `vars[i] = vars[j] + c`.
    fn eq_at(&self, i: usize, j: usize) -> Option<i64> {
        let (upper, lower) = (self.at(i, j), self.at(j, i));
        (upper < INF && lower < INF && upper == -lower).then_some(upper)
    }

    /// The constant value of `x` if the constraints pin it down.
    #[must_use]
    pub fn const_of(&self, x: VarId) -> Option<i64> {
        self.eq_offset(x, VarId::ZERO)
    }

    /// Calls `f` with each tracked variable the graph pins to a constant,
    /// and the constant, in [`Self::variables`] order: what
    /// [`Self::const_of`] answers for each variable, found with one index
    /// lookup in all instead of two per variable.
    pub fn for_each_constant(&self, mut f: impl FnMut(VarId, i64)) {
        self.debug_assert_closed();
        if self.infeasible {
            return;
        }
        let Some(&zero) = self.index.get(&VarId::ZERO) else {
            return;
        };
        for (k, &v) in self.vars.iter().enumerate() {
            if let Some(c) = self.eq_at(k, zero) {
                f(v, c);
            }
        }
    }

    /// Appends to `out`, sorted, every expression `y + c` (with `y ≠ x`)
    /// that provably equals `x`, including `Zero + c` for constants. This
    /// powers the paper's multi-expression process-set bounds (Fig 5's
    /// `[1,i..1,i]`). A single scan of `x`'s row/column of the closed
    /// matrix — no clones, no per-pair lookups — into the caller's
    /// buffer, so a caller scanning several classes reuses one
    /// allocation. Entries already in `out` are left alone.
    pub fn equalities_of(&self, x: VarId, out: &mut Vec<LinExpr>) {
        if self.infeasible || !self.has_var(x) {
            return;
        }
        self.debug_assert_closed();
        let i = self.index[&x];
        let start = out.len();
        for j in 0..self.n() {
            if j == i {
                continue;
            }
            let up = self.at(i, j);
            let down = self.at(j, i);
            if up < INF && down < INF && up == -down {
                let y = self.vars[j];
                if y == VarId::ZERO {
                    out.push(LinExpr::constant(up));
                } else {
                    out.push(LinExpr::var_plus(y, up));
                }
            }
        }
        // One entry per variable, so no two are equal.
        out[start..].sort_unstable();
    }

    /// Evaluates a linear expression to a constant if possible.
    #[must_use]
    pub fn eval_expr(&self, e: &LinExpr) -> Option<i64> {
        match e.var {
            None => Some(e.offset),
            Some(v) => self.const_of(v).map(|c| c + e.offset),
        }
    }

    /// Compares two linear expressions: `Some(Ordering)` when the graph
    /// proves a relation, `None` when incomparable. Equal means provably
    /// equal.
    #[must_use]
    pub fn compare_exprs(&self, a: &LinExpr, b: &LinExpr) -> Option<std::cmp::Ordering> {
        use std::cmp::Ordering;
        let av = a.var.unwrap_or(VarId::ZERO);
        let bv = b.var.unwrap_or(VarId::ZERO);
        let delta = a.offset - b.offset;
        // a - b ≤ hi where av ≤ bv + u gives hi = u + delta;
        // a - b ≥ lo where bv ≤ av + l gives lo = delta - l.
        let hi = self.le_bound(av, bv).map(|u| u + delta);
        let lo = self.le_bound(bv, av).map(|l| delta - l);
        match (hi, lo) {
            (Some(0), Some(0)) => Some(Ordering::Equal),
            (Some(hi), _) if hi < 0 => Some(Ordering::Less),
            (_, Some(lo)) if lo > 0 => Some(Ordering::Greater),
            _ => None,
        }
    }

    /// True if the graph proves `a ≤ b` (for linear expressions).
    #[must_use]
    pub fn proves_le(&self, a: &LinExpr, b: &LinExpr) -> bool {
        let av = a.var.unwrap_or(VarId::ZERO);
        let bv = b.var.unwrap_or(VarId::ZERO);
        match self.le_bound(av, bv) {
            Some(u) => u + a.offset - b.offset <= 0,
            None => false,
        }
    }

    /// Removes all constraints mentioning `x` (keeping consequences
    /// routed through it), leaving `x` tracked but unconstrained.
    pub fn havoc(&mut self, x: VarId) {
        if self.infeasible {
            return;
        }
        self.close();
        let Some(&i) = self.index.get(&x) else {
            self.ensure_var(x);
            return;
        };
        let n = self.n();
        for k in 0..n {
            self.set(i, k, INF);
            self.set(k, i, INF);
        }
        self.set(i, i, 0);
    }

    /// Assigns `x := e`. Handles the self-referential case `x := x + c`
    /// by translating `x`'s constraints.
    pub fn assign(&mut self, x: VarId, e: &LinExpr) {
        if self.infeasible {
            return;
        }
        if e.var == Some(x) {
            // x := x + c — shift every bound involving x.
            let c = e.offset;
            self.close();
            let i = self.ensure_var(x);
            let n = self.n();
            for k in 0..n {
                if k == i {
                    continue;
                }
                let xk = self.at(i, k);
                if xk < INF {
                    self.set(i, k, add(xk, c));
                }
                let kx = self.at(k, i);
                if kx < INF {
                    self.set(k, i, add(kx, -c));
                }
            }
            return;
        }
        self.havoc(x);
        self.assert_eq_expr(x, e);
    }

    /// Assigns `x` a completely unknown value.
    pub fn assign_unknown(&mut self, x: VarId) {
        self.havoc(x);
    }

    /// Compacts the matrix in place onto the (ascending) kept indices.
    /// Reads always sit at or beyond the write cursor, so no scratch
    /// matrix is needed; the capacity is retained for reuse.
    fn compact_keep(&mut self, keep: &[usize]) {
        let cap = self.cap;
        let m = self.m_mut();
        for (a, &oa) in keep.iter().enumerate() {
            for (b, &ob) in keep.iter().enumerate() {
                m[a * cap + b] = m[oa * cap + ob];
            }
        }
        self.vars = keep.iter().map(|&k| self.vars[k]).collect();
        self.index.clear();
        for (k, &v) in self.vars.iter().enumerate() {
            self.index.insert(v, k);
        }
        // Dropping a variable erases a whole row and column of bounds;
        // a from-scratch recompute matches the O(n²) move cost above.
        self.fp = self.recomputed_fingerprint();
    }

    /// Removes every variable `keep` rejects in one projection pass. The
    /// graph is closed first, so every consequence routed through a
    /// removed variable survives among the rest: on a closed
    /// difference-bound graph, dropping rows and columns is exact
    /// projection. [`VarId::ZERO`] is always kept.
    pub fn retain_vars(&mut self, mut keep: impl FnMut(VarId) -> bool) {
        let mut kept = |v: VarId| v == VarId::ZERO || keep(v);
        if self.vars.iter().all(|&v| kept(v)) {
            return;
        }
        self.close();
        KEEP_SCRATCH.with(|s| {
            let mut rows = s.borrow_mut();
            rows.clear();
            rows.extend((0..self.n()).filter(|&k| kept(self.vars[k])));
            self.compact_keep(&rows);
        });
    }

    /// Removes `x` entirely (projecting the constraints onto the rest).
    pub fn remove_var(&mut self, x: VarId) {
        self.retain_vars(|v| v != x);
    }

    /// Removes every variable owned by process set `p` in one projection
    /// pass.
    pub fn drop_namespace(&mut self, p: PsetId) {
        self.retain_vars(|v| v.namespace() != Some(p));
    }

    /// Renames every variable of each namespace `from` into namespace
    /// `to`, for all `(from, to)` pairs of `map` at once: one
    /// fingerprint delta and one index rebuild however many namespaces
    /// move. Every variable moves at most once, so the pairs may swap
    /// or cycle namespaces.
    ///
    /// # Panics
    ///
    /// Panics if two pairs share a target, or if a target namespace
    /// holds a variable with a clashing name that does not move away.
    pub fn rename_namespaces(&mut self, map: &[(PsetId, PsetId)]) {
        for (k, &(_, to)) in map.iter().enumerate() {
            assert!(
                map[..k].iter().all(|&(_, t)| t != to),
                "two namespaces renamed into {to}"
            );
        }
        let n = self.n();
        // Collect the renamed positions first. Renaming preserves the
        // name part and the targets are distinct, so two moved
        // variables never meet; a target may only be held by a variable
        // that moves away itself.
        let mut renamed: Vec<(usize, VarId, VarId)> = Vec::new();
        for (k, &v) in self.vars.iter().enumerate() {
            let r = v.renamed_by(map);
            if r != v {
                renamed.push((k, v, r));
            }
        }
        if renamed.is_empty() {
            return;
        }
        for &(_, _, r) in &renamed {
            let held = self.index.get(&r).map(|&k| self.vars[k]);
            assert!(
                held.is_none_or(|h| h.renamed_by(map) != h),
                "rename collision on {r}"
            );
        }
        // Fingerprint delta: re-mix every bound touching a renamed
        // variable under its new id — O(renamed · n), not O(n²).
        let mut new_id: Vec<Option<VarId>> = vec![None; n];
        for &(k, _, r) in &renamed {
            new_id[k] = Some(r);
        }
        for &(i, oi, ni) in &renamed {
            self.fp ^= var_mix(oi) ^ var_mix(ni);
            for (j, nid) in new_id.iter().enumerate() {
                if i == j {
                    continue;
                }
                let oj = self.vars[j];
                let nj = nid.unwrap_or(oj);
                let c = self.at(i, j);
                if c < INF {
                    self.fp ^= edge_mix(oi, oj, c) ^ edge_mix(ni, nj, c);
                }
                // Bounds *into* i from a non-renamed row are not covered
                // by any renamed row's pass — re-mix them here.
                if nid.is_none() {
                    let c = self.at(j, i);
                    if c < INF {
                        self.fp ^= edge_mix(oj, oi, c) ^ edge_mix(oj, ni, c);
                    }
                }
            }
        }
        for &(k, _, r) in &renamed {
            self.vars[k] = r;
        }
        self.index.clear();
        for (k, &v) in self.vars.iter().enumerate() {
            self.index.insert(v, k);
        }
    }

    /// Duplicates every variable of namespace `src` into namespace `dst`
    /// (which must be empty), copying all internal and external
    /// constraints — the state-copy used when a process set splits.
    pub fn clone_namespace(&mut self, src: PsetId, dst: PsetId) {
        assert!(
            !self.vars.iter().any(|v| v.namespace() == Some(dst)),
            "destination namespace {dst} not empty"
        );
        if self.infeasible {
            return;
        }
        self.close();
        let src_idx: Vec<usize> = (0..self.n())
            .filter(|&i| self.vars[i].namespace() == Some(src))
            .collect();
        // Add the copies.
        let mut pairs: Vec<(usize, usize)> = Vec::new(); // (src index, dst index)
        for &si in &src_idx {
            let copy = self.vars[si].renamed(src, dst);
            let di = self.ensure_var(copy);
            pairs.push((si, di));
        }
        // Copy constraints. Internal (dst-dst) pairs mirror the src-src
        // bounds; dst-to-external pairs mirror src-to-external bounds.
        // Crucially, no constraint is added between a copy and its
        // original: after a process-set split the two subsets' variables
        // need not agree pointwise, so equating them would be unsound.
        let n = self.n();
        let src_of: HashMap<usize, usize> = pairs.iter().map(|&(s, d)| (d, s)).collect();
        let is_src: Vec<bool> = (0..n)
            .map(|k| self.vars[k].namespace() == Some(src))
            .collect();
        for &(si, di) in &pairs {
            for (k, &k_is_src) in is_src.iter().enumerate().take(n) {
                if k == di {
                    continue;
                }
                let mirror = match src_of.get(&k) {
                    Some(&sk) => sk,              // k is a fellow copy
                    None if k_is_src => continue, // never relate copy to original
                    None => k,                    // external variable
                };
                let down = self.at(si, mirror);
                if down < self.at(di, k) {
                    self.set(di, k, down);
                }
                let up = self.at(mirror, si);
                if up < self.at(k, di) {
                    self.set(k, di, up);
                }
            }
        }
        // Complete the copy-to-original bounds implied through shared
        // externals (e.g. both pinned to the same constant via Zero):
        // m[si][di] = min over external k of m[si][k] + m[k][di], and
        // symmetrically. This O(n_src · n) pass keeps the matrix closed
        // enough for sound queries without a full O(n³) re-closure per
        // process-set split; any residual un-closure only loses
        // precision, never soundness (INF reads as "no constraint").
        for &(si, di) in &pairs {
            let mut down = INF;
            let mut up = INF;
            for k in 0..n {
                if k == si || k == di {
                    continue;
                }
                down = down.min(add(self.at(si, k), self.at(k, di)));
                up = up.min(add(self.at(di, k), self.at(k, si)));
            }
            if down < self.at(si, di) {
                self.set(si, di, down);
            }
            if up < self.at(di, si) {
                self.set(di, si, up);
            }
        }
    }

    /// Least upper bound of two closed graphs: keeps each bound only at
    /// the weaker of the two values, over the intersection of the
    /// variable sets.
    #[must_use]
    pub fn join(&self, other: &ConstraintGraph) -> ConstraintGraph {
        self.debug_assert_closed();
        other.debug_assert_closed();
        if self.infeasible {
            return other.clone();
        }
        if other.infeasible {
            return self.clone();
        }
        let (a, b) = (self, other);
        let mut out = ConstraintGraph::new();
        // (index in a, index in b, index in out) per common variable.
        let mut triples: Vec<(usize, usize, usize)> = Vec::new();
        for (ai, &v) in a.vars.iter().enumerate() {
            if let Some(&bi) = b.index.get(&v) {
                let oi = out.ensure_var(v);
                triples.push((ai, bi, oi));
            }
        }
        for &(ai, bi, oi) in &triples {
            for &(aj, bj, oj) in &triples {
                if oi == oj {
                    continue;
                }
                let bound = a.at(ai, aj).max(b.at(bi, bj));
                if bound < INF {
                    out.set(oi, oj, bound);
                }
            }
        }
        // The pointwise max of two closed DBMs is closed.
        out
    }

    /// Widening with the default threshold ladder
    /// ([`DEFAULT_WIDEN_THRESHOLDS`]).
    #[must_use]
    pub fn widen(&self, newer: &ConstraintGraph) -> ConstraintGraph {
        self.widen_with_thresholds(newer, &DEFAULT_WIDEN_THRESHOLDS)
    }

    /// Widening of two closed graphs: keeps a bound only if the newer
    /// state did not weaken it.
    /// A weakened bound is snapped up to the smallest *threshold* in the
    /// given ascending set that still accommodates the newer bound
    /// (widening with thresholds — needed to retain loop facts like
    /// `i ≤ np` in Fig 5, whose exit edge derives `i = np`); beyond the
    /// largest threshold the bound is dropped to ∞. A finite threshold
    /// set guarantees a finite ascending chain. The result is
    /// deliberately *not* re-closed (re-closing a widened DBM can defeat
    /// termination).
    #[must_use]
    pub fn widen_with_thresholds(
        &self,
        newer: &ConstraintGraph,
        thresholds: &[i64],
    ) -> ConstraintGraph {
        self.debug_assert_closed();
        newer.debug_assert_closed();
        if self.infeasible {
            return newer.clone();
        }
        if newer.infeasible {
            return self.clone();
        }
        let (a, b) = (self, newer);
        let mut out = ConstraintGraph::new();
        let mut triples: Vec<(usize, usize, usize)> = Vec::new();
        for (ai, &v) in a.vars.iter().enumerate() {
            if let Some(&bi) = b.index.get(&v) {
                let oi = out.ensure_var(v);
                triples.push((ai, bi, oi));
            }
        }
        for &(ai, bi, oi) in &triples {
            for &(aj, bj, oj) in &triples {
                if oi == oj {
                    continue;
                }
                let old = a.at(ai, aj);
                let new = b.at(bi, bj);
                let widened = if new <= old {
                    old
                } else {
                    thresholds
                        .iter()
                        .copied()
                        .find(|&t| t >= new)
                        .unwrap_or(INF)
                };
                if widened < INF {
                    out.set(oi, oj, widened);
                }
            }
        }
        // Treat as closed: queries read recorded bounds only, which is
        // sound (possibly imprecise) and preserves termination.
        out
    }

    /// True if `self` entails `other` (every constraint of `other` is
    /// implied by `self`): the `⊑` order of the lattice, on closed
    /// graphs.
    #[must_use]
    pub fn entails(&self, other: &ConstraintGraph) -> bool {
        self.debug_assert_closed();
        other.debug_assert_closed();
        if self.infeasible {
            return true;
        }
        if other.infeasible {
            return false;
        }
        for (i, &x) in other.vars.iter().enumerate() {
            for (j, &y) in other.vars.iter().enumerate() {
                if i == j {
                    continue;
                }
                let bound = other.at(i, j);
                if bound >= INF {
                    continue;
                }
                // `self` must imply x ≤ y + bound; an untracked or
                // unconstrained pair implies nothing.
                let (Some(&si), Some(&sj)) = (self.index.get(&x), self.index.get(&y)) else {
                    return false;
                };
                if self.at(si, sj) > bound {
                    return false;
                }
            }
        }
        true
    }
}

impl fmt::Debug for ConstraintGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.infeasible {
            return f.write_str("ConstraintGraph(⊥)");
        }
        let n = self.n();
        let mut constraints = Vec::new();
        for i in 0..n {
            for j in 0..n {
                if i != j && self.at(i, j) < INF {
                    constraints.push(format!(
                        "{} <= {}+{}",
                        self.vars[i],
                        self.vars[j],
                        self.at(i, j)
                    ));
                }
            }
        }
        write!(f, "ConstraintGraph{{{}}}", constraints.join(", "))
    }
}

impl fmt::Display for ConstraintGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::var::intern_name;

    fn v(name: &str) -> VarId {
        VarId::pset_var(PsetId(0), intern_name(name))
    }

    #[test]
    fn transitivity_through_closure() {
        let mut g = ConstraintGraph::new();
        g.assert_le(v("a"), v("b"), 2);
        g.assert_le(v("b"), v("c"), 3);
        g.close();
        assert_eq!(g.le_bound(v("a"), v("c")), Some(5));
    }

    #[test]
    fn constants_via_zero() {
        let mut g = ConstraintGraph::new();
        g.assert_eq_const(v("x"), 5);
        g.close();
        assert_eq!(g.const_of(v("x")), Some(5));
        g.assert_eq_offset(v("y"), v("x"), 2);
        g.close();
        assert_eq!(g.const_of(v("y")), Some(7));
    }

    #[test]
    fn for_each_constant_lists_what_const_of_pins() {
        let mut g = ConstraintGraph::new();
        g.assert_eq_const(v("x"), 5);
        g.assert_eq_offset(v("y"), v("x"), 2);
        g.assert_le(v("z"), v("x"), 1);
        g.assert_eq_const(VarId::id_of(PsetId(0)), 3);
        g.close();
        let mut listed = Vec::new();
        g.for_each_constant(|var, c| listed.push((var, c)));
        let expected: Vec<(VarId, i64)> = g
            .variables()
            .iter()
            .filter_map(|&var| g.const_of(var).map(|c| (var, c)))
            .collect();
        assert_eq!(listed, expected);
        assert_eq!(listed.len(), 4, "zero, x, y and the rank id: {listed:?}");
        // Bottom pins nothing, as `const_of` says.
        g.assert_le(v("x"), VarId::ZERO, 0);
        g.close();
        assert!(g.is_bottom());
        g.for_each_constant(|var, c| panic!("{var} = {c} on bottom"));
    }

    #[test]
    fn negative_cycle_is_bottom() {
        let mut g = ConstraintGraph::new();
        g.assert_le(v("a"), v("b"), -1);
        g.assert_le(v("b"), v("a"), -1);
        g.close();
        assert!(g.is_bottom());
    }

    #[test]
    fn contradictory_constants_are_bottom() {
        let mut g = ConstraintGraph::new();
        g.assert_eq_const(v("x"), 1);
        g.assert_eq_const(v("x"), 2);
        g.close();
        assert!(g.is_bottom());
    }

    #[test]
    fn self_edge_negative_is_bottom() {
        let mut g = ConstraintGraph::new();
        g.assert_le(v("a"), v("a"), -1);
        assert!(g.is_bottom());
    }

    #[test]
    fn havoc_keeps_routed_consequences() {
        let mut g = ConstraintGraph::new();
        g.assert_eq_offset(v("a"), v("b"), 0);
        g.assert_eq_offset(v("b"), v("c"), 0);
        g.havoc(v("b"));
        // a = c survives even though it was only known through b.
        assert_eq!(g.eq_offset(v("a"), v("c")), Some(0));
        assert_eq!(g.eq_offset(v("a"), v("b")), None);
    }

    #[test]
    fn assign_self_increment_shifts_bounds() {
        let mut g = ConstraintGraph::new();
        g.assert_eq_const(v("i"), 1);
        g.assign(v("i"), &LinExpr::var_plus(v("i"), 1));
        assert_eq!(g.const_of(v("i")), Some(2));
    }

    #[test]
    fn assign_var_links_and_breaks_old() {
        let mut g = ConstraintGraph::new();
        g.assert_eq_const(v("x"), 10);
        g.assign(v("y"), &LinExpr::var_plus(v("x"), -1));
        g.close();
        assert_eq!(g.const_of(v("y")), Some(9));
        g.assign(v("x"), &LinExpr::constant(0));
        g.close();
        // y keeps its old value; the link was to x's *old* value.
        assert_eq!(g.const_of(v("y")), Some(9));
    }

    #[test]
    fn assign_self_preserves_relations_to_others() {
        let mut g = ConstraintGraph::new();
        g.assert_eq_offset(v("i"), VarId::NP, -3); // i = np - 3
        g.assign(v("i"), &LinExpr::var_plus(v("i"), 1));
        assert_eq!(g.eq_offset(v("i"), VarId::NP), Some(-2));
    }

    #[test]
    fn remove_var_projects() {
        let mut g = ConstraintGraph::new();
        g.assert_le(v("a"), v("b"), 1);
        g.assert_le(v("b"), v("c"), 1);
        g.remove_var(v("b"));
        assert!(!g.has_var(v("b")));
        assert_eq!(g.le_bound(v("a"), v("c")), Some(2));
    }

    #[test]
    fn join_keeps_common_weaker_bounds() {
        let mut g1 = ConstraintGraph::new();
        g1.assert_eq_const(v("x"), 1);
        let mut g2 = ConstraintGraph::new();
        g2.assert_eq_const(v("x"), 3);
        g1.close();
        g2.close();
        let j = g1.join(&g2);
        assert_eq!(j.const_of(v("x")), None);
        assert_eq!(j.le_bound(v("x"), VarId::ZERO), Some(3)); // x <= 3
        assert_eq!(j.le_bound(VarId::ZERO, v("x")), Some(-1)); // x >= 1
    }

    #[test]
    fn join_drops_one_sided_vars() {
        let mut g1 = ConstraintGraph::new();
        g1.assert_eq_const(v("x"), 1);
        g1.close();
        let g2 = ConstraintGraph::new();
        let j = g1.join(&g2);
        assert!(!j.has_var(v("x")));
    }

    #[test]
    fn join_with_bottom_is_identity() {
        let mut g = ConstraintGraph::new();
        g.assert_eq_const(v("x"), 4);
        g.close();
        let j1 = g.join(&ConstraintGraph::bottom());
        let j2 = ConstraintGraph::bottom().join(&g);
        assert_eq!(j1.const_of(v("x")), Some(4));
        assert_eq!(j2.const_of(v("x")), Some(4));
    }

    #[test]
    fn widen_drops_growing_bounds_keeps_stable() {
        // i = 1 widened with i = 2 under i <= np-1 in both.
        let mut g1 = ConstraintGraph::new();
        g1.assert_eq_const(v("i"), 1);
        g1.assert_le(v("i"), VarId::NP, -1);
        g1.assert_le(VarId::ZERO, VarId::NP, -2); // np >= 2
        let mut g2 = ConstraintGraph::new();
        g2.assert_eq_const(v("i"), 2);
        g2.assert_le(v("i"), VarId::NP, -1);
        g2.assert_le(VarId::ZERO, VarId::NP, -2);
        g1.close();
        g2.close();
        let w = g1.widen(&g2);
        // Upper bound by constant grew 1 -> 2: snapped to the threshold 2
        // (widening with thresholds). Lower bound (i >= 1) held.
        // Relation i <= np - 1 held.
        assert_eq!(w.le_bound(v("i"), VarId::ZERO), Some(2));
        assert_eq!(w.le_bound(VarId::ZERO, v("i")), Some(-1));
        assert!(w.implies_le(v("i"), VarId::NP, -1));
        // Repeated widening eventually drops the growing bound entirely.
        let mut g3 = ConstraintGraph::new();
        g3.assert_eq_const(v("i"), 100);
        g3.close();
        let w2 = w.widen(&g3);
        assert_eq!(w2.le_bound(v("i"), VarId::ZERO), None);
    }

    #[test]
    fn widen_with_custom_thresholds() {
        let mut g1 = ConstraintGraph::new();
        g1.assert_le(v("i"), VarId::ZERO, 1);
        let mut g2 = ConstraintGraph::new();
        g2.assert_le(v("i"), VarId::ZERO, 9);
        g1.close();
        g2.close();
        let w = g1.widen_with_thresholds(&g2, &[0, 16, 64]);
        assert_eq!(w.le_bound(v("i"), VarId::ZERO), Some(16));
        let dropped = g1.widen_with_thresholds(&g2, &[0, 4]);
        assert_eq!(dropped.le_bound(v("i"), VarId::ZERO), None);
    }

    #[test]
    fn entails_is_reflexive_and_detects_strengthening() {
        let mut g1 = ConstraintGraph::new();
        g1.assert_eq_const(v("x"), 5);
        g1.close();
        let snapshot = g1.clone();
        assert!(g1.entails(&snapshot));
        let mut weaker = ConstraintGraph::new();
        weaker.assert_le(v("x"), VarId::ZERO, 10);
        weaker.close();
        assert!(g1.entails(&weaker));
        assert!(!weaker.entails(&g1));
    }

    #[test]
    fn clone_namespace_copies_internal_and_external_constraints() {
        let mut g = ConstraintGraph::new();
        let x0 = VarId::pset_var(PsetId(0), intern_name("x"));
        let id0 = VarId::id_of(PsetId(0));
        g.assert_eq_offset(x0, id0, 3); // x = id + 3
        g.assert_le(id0, VarId::NP, -1); // id <= np - 1
        g.clone_namespace(PsetId(0), PsetId(1));
        let x1 = VarId::pset_var(PsetId(1), intern_name("x"));
        let id1 = VarId::id_of(PsetId(1));
        assert_eq!(g.eq_offset(x1, id1), Some(3));
        assert!(g.implies_le(id1, VarId::NP, -1));
        // The copies are not spuriously equated with the originals.
        assert_eq!(g.eq_offset(id0, id1), None);
        // Originals unchanged.
        assert_eq!(g.eq_offset(x0, id0), Some(3));
    }

    #[test]
    fn rename_namespace_moves_constraints() {
        let mut g = ConstraintGraph::new();
        g.assert_eq_const(VarId::pset_var(PsetId(2), intern_name("k")), 9);
        g.rename_namespaces(&[(PsetId(2), PsetId(5))]);
        g.close();
        assert_eq!(
            g.const_of(VarId::pset_var(PsetId(5), intern_name("k"))),
            Some(9)
        );
        assert!(!g.has_var(VarId::pset_var(PsetId(2), intern_name("k"))));
    }

    /// Renaming a permutation of namespaces in one call leaves a graph
    /// exactly as the same renames made one at a time through a
    /// temporary band of unused ids do: the same variables in the same
    /// slots, the same bounds and the same fingerprint.
    #[test]
    fn one_pass_rename_matches_renames_through_a_band() {
        const BAND: u32 = 1 << 15;
        let names = ["id", "a", "b"];
        for seed in 0..64 {
            let mut rng = mpl_rng::Rng64::seed_from_u64(seed);
            let sets = 2 + rng.index(4);
            let pick = |rng: &mut mpl_rng::Rng64| match rng.index(sets + 2) {
                0 => VarId::ZERO,
                1 => VarId::NP,
                k => VarId::pset_var(
                    PsetId(k as u32 - 2),
                    intern_name(names[rng.index(names.len())]),
                ),
            };
            let mut g = ConstraintGraph::new();
            for _ in 0..4 * sets {
                let (x, y) = (pick(&mut rng), pick(&mut rng));
                // Non-negative bounds never close a negative cycle.
                g.assert_le(x, y, rng.i64_in(0, 6));
            }
            g.close();
            let mut targets: Vec<u32> = (0..sets as u32).collect();
            for k in (1..sets).rev() {
                targets.swap(k, rng.index(k + 1));
            }
            let map: Vec<(PsetId, PsetId)> = targets
                .iter()
                .enumerate()
                .map(|(k, &to)| (PsetId(k as u32), PsetId(to)))
                .collect();
            let mut one = g.clone();
            one.rename_namespaces(&map);
            let mut reference = g.clone();
            for &(from, to) in &map {
                reference.rename_namespaces(&[(from, PsetId(BAND + to.0))]);
            }
            for &(_, to) in &map {
                reference.rename_namespaces(&[(PsetId(BAND + to.0), to)]);
            }
            assert_eq!(one.variables(), reference.variables(), "seed {seed}");
            for &x in one.variables() {
                for &y in one.variables() {
                    assert_eq!(one.le_bound(x, y), reference.le_bound(x, y), "seed {seed}");
                }
            }
            assert_eq!(one.fingerprint(), reference.fingerprint(), "seed {seed}");
            assert_eq!(
                one.fingerprint(),
                one.recomputed_fingerprint(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn drop_namespace_removes_all_set_vars() {
        let mut g = ConstraintGraph::new();
        g.assert_eq_const(VarId::pset_var(PsetId(1), intern_name("a")), 1);
        g.assert_eq_const(VarId::pset_var(PsetId(1), intern_name("b")), 2);
        g.assert_eq_const(VarId::pset_var(PsetId(2), intern_name("c")), 3);
        g.drop_namespace(PsetId(1));
        assert!(!g.has_var(VarId::pset_var(PsetId(1), intern_name("a"))));
        assert_eq!(
            g.const_of(VarId::pset_var(PsetId(2), intern_name("c"))),
            Some(3)
        );
    }

    #[test]
    fn equalities_of_lists_all_aliases() {
        let mut g = ConstraintGraph::new();
        g.assert_eq_const(v("i"), 1);
        g.assert_eq_const(v("one"), 1);
        g.close();
        let mut eqs = vec![LinExpr::constant(-9)];
        g.equalities_of(v("i"), &mut eqs);
        assert_eq!(eqs[0], LinExpr::constant(-9), "entries already there stay");
        assert!(eqs[1..].contains(&LinExpr::constant(1)));
        assert!(eqs[1..].contains(&LinExpr::of_var(v("one"))));
        assert!(eqs[1..].is_sorted());
    }

    #[test]
    fn proves_le_and_eq_on_expressions() {
        let mut g = ConstraintGraph::new();
        g.assert_eq_offset(v("i"), VarId::NP, 0); // i = np
        g.close();
        let (i_1, np_1) = (
            LinExpr::var_plus(v("i"), -1),
            LinExpr::var_plus(VarId::NP, -1),
        );
        assert!(g.proves_le(&i_1, &np_1) && g.proves_le(&np_1, &i_1));
        assert!(g.proves_le(&LinExpr::var_plus(v("i"), -1), &LinExpr::of_var(VarId::NP)));
        assert!(!g.proves_le(&LinExpr::var_plus(v("i"), 1), &LinExpr::of_var(VarId::NP)));
    }

    #[test]
    fn compare_exprs_detects_equal_and_strict() {
        use std::cmp::Ordering;
        let mut g = ConstraintGraph::new();
        g.assert_eq_const(v("i"), 4);
        g.close();
        assert_eq!(
            g.compare_exprs(&LinExpr::of_var(v("i")), &LinExpr::constant(4)),
            Some(Ordering::Equal)
        );
        assert_eq!(
            g.compare_exprs(&LinExpr::of_var(v("i")), &LinExpr::constant(9)),
            Some(Ordering::Less)
        );
        assert_eq!(
            g.compare_exprs(&LinExpr::of_var(v("i")), &LinExpr::constant(0)),
            Some(Ordering::Greater)
        );
        assert_eq!(
            g.compare_exprs(&LinExpr::of_var(v("q")), &LinExpr::constant(0)),
            None
        );
    }

    #[test]
    fn closure_stats_are_recorded() {
        crate::stats::ClosureStats::reset();
        let mut g = ConstraintGraph::new();
        g.assert_le(v("a"), v("b"), 1);
        g.close(); // drains the one dirty edge incrementally
        g.full_close();
        let s = crate::stats::ClosureStats::snapshot();
        assert!(s.full_closures >= 1);
        assert!(s.incremental_closures >= 1);
    }

    #[test]
    fn close_is_noop_when_clean() {
        crate::stats::ClosureStats::reset();
        let mut g = ConstraintGraph::new();
        g.assert_le(v("a"), v("b"), 1);
        g.close();
        let before = crate::stats::ClosureStats::snapshot();
        g.close();
        g.close();
        let after = crate::stats::ClosureStats::snapshot().since(&before);
        assert_eq!(after.full_closures, 0);
        assert_eq!(after.incremental_closures, 0);
    }

    #[test]
    fn eval_expr_resolves_constants() {
        let mut g = ConstraintGraph::new();
        g.assert_eq_const(v("n"), 6);
        g.close();
        assert_eq!(g.eval_expr(&LinExpr::var_plus(v("n"), -2)), Some(4));
        assert_eq!(g.eval_expr(&LinExpr::constant(3)), Some(3));
        assert_eq!(g.eval_expr(&LinExpr::of_var(v("unknown"))), None);
    }

    #[test]
    fn incremental_matches_full_closure() {
        // Property-style check: building a random-ish chain via
        // assert_le (dirty edges, drained by close) matches
        // rebuilding with a single full closure.
        let edges = [
            ("a", "b", 3),
            ("b", "c", -1),
            ("c", "d", 4),
            ("a", "d", 10),
            ("d", "a", -5),
            ("b", "d", 2),
        ];
        let mut incr = ConstraintGraph::new();
        for (x, y, c) in edges {
            incr.assert_le(v(x), v(y), c);
        }
        incr.close();
        let mut full = ConstraintGraph::new();
        for (x, y, c) in edges {
            let i = full.ensure_var(v(x));
            let j = full.ensure_var(v(y));
            let cur = full.at(i, j);
            if c < cur {
                full.set(i, j, c);
            }
        }
        full.full_close();
        for x in ["a", "b", "c", "d"] {
            for y in ["a", "b", "c", "d"] {
                assert_eq!(
                    incr.le_bound(v(x), v(y)),
                    full.le_bound(v(x), v(y)),
                    "{x} vs {y}"
                );
            }
        }
    }

    #[test]
    fn lazy_drain_matches_full_closure() {
        // A dirty set small relative to n takes the per-edge incremental
        // path; the result must equal a from-scratch full closure even
        // when the drained edges interact.
        let names = ["a", "b", "c", "d", "e", "f", "g", "h"];
        let mut g = ConstraintGraph::new();
        for w in names.windows(2) {
            g.assert_le(v(w[0]), v(w[1]), 1);
        }
        g.close();
        crate::stats::ClosureStats::reset();
        g.assert_le(v("h"), v("a"), 2); // closes a non-negative cycle
        g.assert_le(v("b"), v("g"), -4); // tighter than the chain path
        let mut full = g.clone();
        full.dirty.clear();
        full.full_close();
        g.close();
        let s = crate::stats::ClosureStats::snapshot();
        assert_eq!(s.incremental_closures, 2, "both edges drained per-edge");
        for x in names {
            for y in names {
                assert_eq!(
                    g.le_bound(v(x), v(y)),
                    full.le_bound(v(x), v(y)),
                    "{x} vs {y}"
                );
            }
        }
    }

    #[test]
    fn large_dirty_set_falls_back_to_full_closure() {
        let mut g = ConstraintGraph::new();
        for (k, name) in ["a", "b", "c"].iter().enumerate() {
            g.assert_le(v(name), VarId::ZERO, k as i64);
        }
        crate::stats::ClosureStats::reset();
        g.close(); // 3 dirty edges vs n = 4 (2*3 >= 4): full fallback
        let s = crate::stats::ClosureStats::snapshot();
        assert_eq!(s.full_closures, 1);
        assert_eq!(s.incremental_closures, 0);
    }
}

#[cfg(test)]
mod edge_case_tests {
    use super::*;
    use crate::stats;
    use crate::var::intern_name;

    fn v(name: &str) -> VarId {
        VarId::pset_var(PsetId(0), intern_name(name))
    }

    #[test]
    #[should_panic(expected = "rename collision")]
    fn rename_collision_panics() {
        let mut g = ConstraintGraph::new();
        g.ensure_var(VarId::pset_var(PsetId(0), intern_name("x")));
        g.ensure_var(VarId::pset_var(PsetId(1), intern_name("x")));
        g.rename_namespaces(&[(PsetId(0), PsetId(1))]);
    }

    #[test]
    #[should_panic(expected = "not empty")]
    fn clone_into_occupied_namespace_panics() {
        let mut g = ConstraintGraph::new();
        g.ensure_var(VarId::pset_var(PsetId(0), intern_name("x")));
        g.ensure_var(VarId::pset_var(PsetId(1), intern_name("y")));
        g.clone_namespace(PsetId(0), PsetId(1));
    }

    /// Queries read a closed graph; debug builds catch a query that
    /// follows a write without a `close`.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "query on an unclosed constraint graph")]
    fn query_after_unclosed_write_panics() {
        let mut g = ConstraintGraph::new();
        g.assert_le(v("a"), v("b"), 2);
        g.assert_le(v("b"), v("c"), 3);
        let _ = g.le_bound(v("a"), v("c"));
    }

    #[test]
    fn operations_on_bottom_are_inert() {
        let mut g = ConstraintGraph::bottom();
        g.assert_le(v("a"), v("b"), 1);
        g.assign(v("a"), &LinExpr::constant(5));
        g.havoc(v("a"));
        g.close();
        assert!(g.is_bottom());
        assert_eq!(g.const_of(v("a")), None);
        let mut eqs = Vec::new();
        g.equalities_of(v("a"), &mut eqs);
        assert!(eqs.is_empty());
    }

    #[test]
    fn widen_then_rewiden_terminates_at_infinity() {
        // An ever-growing bound must pass through the threshold ladder
        // and reach "no constraint" in finitely many widenings.
        let mut cur = ConstraintGraph::new();
        cur.assert_le(v("x"), VarId::ZERO, -10);
        cur.close();
        let mut steps = 0;
        loop {
            let mut next = ConstraintGraph::new();
            next.assert_le(v("x"), VarId::ZERO, -10 + steps * 7);
            next.close();
            let w = cur.widen(&next);
            if w.le_bound(v("x"), VarId::ZERO).is_none() {
                break; // Reached top for this bound.
            }
            cur = w;
            steps += 1;
            assert!(steps < 20, "widening did not terminate");
        }
    }

    #[test]
    fn force_full_closure_switch_changes_instrumentation() {
        stats::ClosureStats::reset();
        let mut g = ConstraintGraph::new();
        g.assert_le(v("a"), v("b"), 1);
        g.close();
        let before = stats::ClosureStats::snapshot();
        assert!(before.incremental_closures >= 1);

        stats::set_force_full_closure(true);
        let mut g2 = ConstraintGraph::new();
        g2.assert_le(v("a"), v("b"), 1);
        g2.assert_le(v("b"), v("c"), 1);
        stats::set_force_full_closure(false);
        let after = stats::ClosureStats::snapshot().since(&before);
        assert!(after.full_closures >= 1, "{after:?}");
        // Behaviour is unchanged, only the algorithm differs.
        assert_eq!(g2.le_bound(v("a"), v("c")), Some(2));
    }

    #[test]
    fn join_of_disjoint_carriers_is_unconstrained() {
        let mut g1 = ConstraintGraph::new();
        g1.assert_eq_const(v("only_left"), 1);
        let mut g2 = ConstraintGraph::new();
        g2.assert_eq_const(v("only_right"), 2);
        g1.close();
        g2.close();
        let j = g1.join(&g2);
        assert!(!j.has_var(v("only_left")));
        assert!(!j.has_var(v("only_right")));
        assert!(!j.is_bottom());
        assert_eq!(j.le_bound(VarId::ZERO, VarId::ZERO), Some(0));
    }

    #[test]
    fn fingerprint_is_order_canonical() {
        let mut g1 = ConstraintGraph::new();
        g1.assert_le(v("a"), v("b"), 2);
        g1.assert_eq_const(v("c"), 7);
        let mut g2 = ConstraintGraph::new();
        g2.assert_eq_const(v("c"), 7);
        g2.assert_le(v("a"), v("b"), 2);
        g1.close();
        g2.close();
        assert_eq!(g1.fingerprint(), g2.fingerprint());
        assert!(g1.same_shape(&g2));
        g2.assert_le(v("a"), v("b"), 1);
        g2.close();
        assert_ne!(g1.fingerprint(), g2.fingerprint());
        assert!(!g1.same_shape(&g2));
    }

    #[test]
    fn all_bottoms_share_one_fingerprint() {
        let mut g1 = ConstraintGraph::new();
        g1.assert_eq_const(v("x"), 1);
        g1.assert_eq_const(v("x"), 2);
        g1.close();
        let mut g2 = ConstraintGraph::new();
        g2.assert_le(v("y"), v("y"), -1);
        assert!(g1.is_bottom() && g2.is_bottom());
        assert_eq!(g1.fingerprint(), g2.fingerprint());
        assert!(g1.same_shape(&g2));
        assert_eq!(g1.fingerprint(), ConstraintGraph::bottom().fingerprint());
    }

    #[test]
    fn clone_shares_the_matrix_until_written() {
        stats::reset_matrix_copies();
        let mut g = ConstraintGraph::new();
        for k in 0..6 {
            g.assert_eq_const(v(&format!("x{k}")), k);
        }
        g.close();
        let mut probe = g.clone();
        assert_eq!(stats::matrix_copies(), 0, "clone must not copy");
        // Read-only queries on a closed graph never materialize.
        assert_eq!(probe.const_of(v("x3")), Some(3));
        assert_eq!(stats::matrix_copies(), 0, "closed queries must not copy");
        // The first write faults in a private copy and leaves the
        // original untouched.
        probe.assert_eq_const(v("x3"), 99);
        probe.close();
        assert!(probe.is_bottom());
        assert!(stats::matrix_copies() >= 1);
        assert_eq!(g.const_of(v("x3")), Some(3));
        assert!(!g.is_bottom());
    }

    #[test]
    fn maintained_fingerprint_matches_recompute_over_random_ops() {
        // Property test: drive a graph through a pseudo-random mutation
        // sequence and check after every step that the incrementally
        // maintained fingerprint equals the from-scratch recompute.
        let mut rng: u64 = 0x1234_5678_9ABC_DEF0;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let names = ["a", "b", "c", "d", "e"];
        for round in 0..40 {
            let mut g = ConstraintGraph::new();
            let mut cloned_into = 3u32;
            for _ in 0..30 {
                let x = VarId::pset_var(
                    PsetId((next() % 2) as u32),
                    intern_name(names[(next() % 5) as usize]),
                );
                let y = VarId::pset_var(
                    PsetId((next() % 2) as u32),
                    intern_name(names[(next() % 5) as usize]),
                );
                let c = (next() % 13) as i64 - 4;
                match next() % 10 {
                    0..=3 => g.assert_le(x, y, c),
                    4 => g.assert_eq_const(x, c),
                    5 => g.close(),
                    6 => g.havoc(x),
                    7 => g.remove_var(x),
                    8 => {
                        // Round-trip through a fresh namespace: two
                        // rename delta scans, net structural no-op.
                        g.rename_namespaces(&[(PsetId(0), PsetId(100 + cloned_into))]);
                        assert_eq!(g.fingerprint(), g.recomputed_fingerprint());
                        g.rename_namespaces(&[(PsetId(100 + cloned_into), PsetId(0))]);
                    }
                    _ => {
                        g.clone_namespace(PsetId(1), PsetId(cloned_into));
                        cloned_into += 1;
                    }
                }
                assert_eq!(
                    g.fingerprint(),
                    g.recomputed_fingerprint(),
                    "round {round}: {g:?}"
                );
            }
            g.close();
            let j = g.join(&ConstraintGraph::new());
            assert_eq!(j.fingerprint(), j.recomputed_fingerprint());
            let w = g.widen(&g.clone());
            assert_eq!(w.fingerprint(), w.recomputed_fingerprint());
        }
    }

    #[test]
    fn capacity_growth_and_compaction_reuse() {
        // Push past several capacity doublings, then remove and re-add:
        // the matrix must stay consistent through in-place compaction.
        let mut g = ConstraintGraph::new();
        for k in 0..20 {
            g.assert_eq_const(v(&format!("x{k}")), k);
        }
        for k in (0..20).step_by(2) {
            g.remove_var(v(&format!("x{k}")));
        }
        for k in (1..20).step_by(2) {
            assert_eq!(g.const_of(v(&format!("x{k}"))), Some(k), "x{k}");
        }
        // Re-added variables land on recycled slots and start fresh.
        g.assert_eq_const(v("x0"), 41);
        g.close();
        assert_eq!(g.const_of(v("x0")), Some(41));
        assert_eq!(g.const_of(v("x7")), Some(7));
    }
}
