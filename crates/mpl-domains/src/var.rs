//! Namespaced variables: the paper's per-process-set variable copies.
//!
//! A variable is a [`VarId`], a bit-packed `u32` handle whose names are
//! interned through a [`VarTable`]. The constraint graph, the constant
//! environment and the process-set bounds are all keyed by it: namespace
//! queries, renames and the distinguished per-set `id` variable are pure
//! bit arithmetic, with no string hashing or allocation.
//!
//! Packing layout (`u32`, tag in the top two bits):
//!
//! ```text
//! 00 | 0000…00 value      value 0 = Zero, 1 = Np
//! 01 | name-index (30b)   Global variable
//! 10 | pset (16b) | name-index (14b)   Per-set variable
//! ```
//!
//! The name `"id"` is pre-interned at index 0, so `VarId::id_of(p)` and
//! [`VarId::is_rank_id`] need no table access at all. The derived `Ord`
//! on the raw word orders `Zero < Np < Global < Pset`, psets major
//! within `Pset`.

use std::cell::RefCell;
use std::fmt;

use crate::constraint_graph::FxHashMap;

/// Identifies one process set within a pCFG node. Process-set ids are
/// allocated by the analysis engine; the constraint graph only uses them
/// as namespaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PsetId(pub u32);

impl fmt::Display for PsetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

const TAG_SHIFT: u32 = 30;
const TAG_MASK: u32 = 0b11 << TAG_SHIFT;
const TAG_SPECIAL: u32 = 0b00 << TAG_SHIFT;
const TAG_GLOBAL: u32 = 0b01 << TAG_SHIFT;
const TAG_PSET: u32 = 0b10 << TAG_SHIFT;
const PSET_SHIFT: u32 = 14;
const PSET_NAME_MASK: u32 = (1 << PSET_SHIFT) - 1;
const GLOBAL_NAME_MASK: u32 = (1 << TAG_SHIFT) - 1;

/// The largest process-set id representable in a packed [`VarId`]
/// (16 bits). The engine's canonical renumbering keeps live ids tiny.
pub const MAX_PSET_ID: u32 = (1 << 16) - 1;

/// The name index of the pre-interned rank variable `"id"`.
pub const ID_NAME: u32 = 0;

/// An interned, bit-packed variable handle (see the module docs for the
/// layout). `Copy`, 4 bytes, with namespace/rename/rank-id queries as
/// pure bit arithmetic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(u32);

/// The unpacked shape of a [`VarId`]. Name components are indices into
/// the owning [`VarTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarKind {
    /// The constant-zero anchor.
    Zero,
    /// The process count `np`.
    Np,
    /// A global parameter (name index).
    Global(u32),
    /// A per-set variable (owner, name index).
    Pset(PsetId, u32),
}

impl VarId {
    /// The constant-zero anchor.
    pub const ZERO: VarId = VarId(TAG_SPECIAL);
    /// The process count `np`.
    pub const NP: VarId = VarId(TAG_SPECIAL | 1);

    /// A global variable from an interned name index.
    #[must_use]
    pub fn global(name_idx: u32) -> VarId {
        assert!(name_idx <= GLOBAL_NAME_MASK, "global name index overflow");
        VarId(TAG_GLOBAL | name_idx)
    }

    /// A per-set variable from an interned name index.
    ///
    /// # Panics
    ///
    /// Panics if the pset id exceeds [`MAX_PSET_ID`] or the name index
    /// exceeds 14 bits.
    #[must_use]
    pub fn pset_var(pset: PsetId, name_idx: u32) -> VarId {
        assert!(
            pset.0 <= MAX_PSET_ID,
            "pset id {} overflows VarId packing",
            pset.0
        );
        assert!(name_idx <= PSET_NAME_MASK, "pset name index overflow");
        VarId(TAG_PSET | (pset.0 << PSET_SHIFT) | name_idx)
    }

    /// The per-set rank variable — no table access needed.
    #[must_use]
    pub fn id_of(pset: PsetId) -> VarId {
        VarId::pset_var(pset, ID_NAME)
    }

    /// The unpacked shape.
    #[must_use]
    pub fn kind(self) -> VarKind {
        match self.0 & TAG_MASK {
            TAG_SPECIAL => {
                if self == VarId::ZERO {
                    VarKind::Zero
                } else {
                    VarKind::Np
                }
            }
            TAG_GLOBAL => VarKind::Global(self.0 & GLOBAL_NAME_MASK),
            _ => VarKind::Pset(
                PsetId((self.0 >> PSET_SHIFT) & MAX_PSET_ID),
                self.0 & PSET_NAME_MASK,
            ),
        }
    }

    /// The process set owning this variable, if any — pure bit math.
    #[must_use]
    pub fn namespace(self) -> Option<PsetId> {
        (self.0 & TAG_MASK == TAG_PSET).then_some(PsetId((self.0 >> PSET_SHIFT) & MAX_PSET_ID))
    }

    /// The interned name index (globals and per-set variables).
    #[must_use]
    pub fn name_index(self) -> Option<u32> {
        match self.kind() {
            VarKind::Global(n) | VarKind::Pset(_, n) => Some(n),
            _ => None,
        }
    }

    /// True if this is some process set's rank variable `id`.
    #[must_use]
    pub fn is_rank_id(self) -> bool {
        self.0 & (TAG_MASK | PSET_NAME_MASK) == TAG_PSET | ID_NAME
    }

    /// Re-homes a per-set variable into namespace `to` (identity for
    /// globals and for other namespaces) — pure bit math.
    #[must_use]
    pub fn renamed(self, from: PsetId, to: PsetId) -> VarId {
        self.renamed_by(&[(from, to)])
    }

    /// Re-homes a per-set variable by a namespace map of `(from, to)`
    /// pairs: into the `to` of the pair whose `from` owns it, unchanged
    /// when no pair does (and for globals).
    #[must_use]
    pub fn renamed_by(self, map: &[(PsetId, PsetId)]) -> VarId {
        let Some(ns) = self.namespace() else {
            return self;
        };
        match map.iter().find(|&&(from, _)| from == ns) {
            Some(&(_, to)) => VarId::pset_var(to, self.0 & PSET_NAME_MASK),
            None => self,
        }
    }

    /// The packed bit representation — fingerprint mixing within the
    /// crate only.
    #[must_use]
    pub(crate) const fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind() {
            VarKind::Zero => f.write_str("0"),
            VarKind::Np => f.write_str("np"),
            VarKind::Global(n) => with_table(|t| f.write_str(t.name(n))),
            VarKind::Pset(p, n) => with_table(|t| write!(f, "{p}.{}", t.name(n))),
        }
    }
}

/// The variable-name interner backing [`VarId`]. A pure value type so it
/// can be unit-tested directly; analysis code uses the thread-local
/// instance through [`with_table`] and [`intern_name`].
#[derive(Debug, Clone)]
pub struct VarTable {
    names: Vec<String>,
    lookup: FxHashMap<String, u32>,
}

impl Default for VarTable {
    fn default() -> Self {
        Self::new()
    }
}

impl VarTable {
    /// A fresh table with `"id"` pre-interned at index [`ID_NAME`].
    #[must_use]
    pub fn new() -> VarTable {
        let mut t = VarTable {
            names: Vec::new(),
            lookup: FxHashMap::default(),
        };
        let idx = t.intern_name("id");
        debug_assert_eq!(idx, ID_NAME);
        t
    }

    /// Interns a name, returning its stable index.
    pub fn intern_name(&mut self, name: &str) -> u32 {
        if let Some(&i) = self.lookup.get(name) {
            return i;
        }
        let i = u32::try_from(self.names.len()).expect("name table overflow");
        self.names.push(name.to_owned());
        self.lookup.insert(name.to_owned(), i);
        i
    }

    /// The name at `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` was not produced by this table.
    #[must_use]
    pub fn name(&self, idx: u32) -> &str {
        &self.names[idx as usize]
    }

    /// Number of interned names.
    #[must_use]
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True if only the pre-interned `"id"` is present.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.names.len() <= 1
    }

    /// Clears every interned name except the pre-interned `"id"`,
    /// restoring the fresh-table state.
    pub fn reset(&mut self) {
        *self = VarTable::new();
    }
}

thread_local! {
    static TABLE: RefCell<VarTable> = RefCell::new(VarTable::new());
}

/// Runs `f` with the thread-local [`VarTable`]. All `VarId`s flowing
/// through one analysis live on one thread, so the table needs no
/// synchronization (the same pattern as [`crate::stats`]).
pub fn with_table<R>(f: impl FnOnce(&mut VarTable) -> R) -> R {
    TABLE.with(|t| f(&mut t.borrow_mut()))
}

/// Interns a bare name in the thread-local table.
pub fn intern_name(name: &str) -> u32 {
    with_table(|t| t.intern_name(name))
}

/// Resets the calling thread's interner to the fresh-table state.
///
/// Name *indices* — and therefore packed [`VarId`] words — depend on the
/// order names were first interned on the thread, so a worker that has
/// analyzed other programs carries their interning history. The batch
/// runtime calls this before each job so every analysis starts from the
/// same table and produces identical results no matter which worker (or
/// how many workers) ran it.
///
/// Any `VarId` produced before the reset is invalidated (its name index
/// may be reused for a different name); callers must not hold ids across
/// a reset.
pub fn reset_table() {
    with_table(VarTable::reset);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pvar(t: &mut VarTable, p: u32, name: &str) -> VarId {
        VarId::pset_var(PsetId(p), t.intern_name(name))
    }

    #[test]
    fn namespace_extraction() {
        let mut t = VarTable::new();
        assert_eq!(VarId::ZERO.namespace(), None);
        assert_eq!(VarId::NP.namespace(), None);
        assert_eq!(pvar(&mut t, 3, "x").namespace(), Some(PsetId(3)));
    }

    #[test]
    fn renamed_moves_only_matching_namespace() {
        let mut t = VarTable::new();
        let x = pvar(&mut t, 1, "x");
        assert_eq!(x.renamed(PsetId(1), PsetId(2)), pvar(&mut t, 2, "x"));
        assert_eq!(x.renamed(PsetId(3), PsetId(2)), x);
        assert_eq!(VarId::NP.renamed(PsetId(1), PsetId(2)), VarId::NP);
    }

    #[test]
    fn display_forms() {
        assert_eq!(VarId::id_of(PsetId(0)).to_string(), "P0.id");
        assert_eq!(VarId::global(intern_name("nrows")).to_string(), "nrows");
        assert_eq!(VarId::ZERO.to_string(), "0");
    }

    #[test]
    fn intern_round_trips_every_variant() {
        let mut t = VarTable::new();
        let x = t.intern_name("x");
        let nrows = t.intern_name("nrows");
        for (id, kind) in [
            (VarId::ZERO, VarKind::Zero),
            (VarId::NP, VarKind::Np),
            (VarId::global(nrows), VarKind::Global(nrows)),
            (VarId::pset_var(PsetId(0), x), VarKind::Pset(PsetId(0), x)),
            (VarId::pset_var(PsetId(7), x), VarKind::Pset(PsetId(7), x)),
            (VarId::id_of(PsetId(3)), VarKind::Pset(PsetId(3), ID_NAME)),
        ] {
            assert_eq!(id.kind(), kind, "round trip for {id:?}");
        }
        // Interning is idempotent.
        assert_eq!(t.intern_name("x"), x);
        assert_eq!(t.name(nrows), "nrows");
    }

    #[test]
    fn interning_shares_names_across_namespaces() {
        let mut t = VarTable::new();
        let a = pvar(&mut t, 0, "x");
        let b = pvar(&mut t, 1, "x");
        let g = VarId::global(t.intern_name("x"));
        assert_eq!(a.name_index(), b.name_index());
        assert_eq!(a.name_index(), g.name_index());
        assert_ne!(a, b);
        assert_ne!(a, g);
    }

    #[test]
    fn rank_id_is_pure_bit_math() {
        let mut t = VarTable::new();
        let id3 = VarId::id_of(PsetId(3));
        // Agrees with interning the name.
        assert_eq!(pvar(&mut t, 3, "id"), id3);
        assert!(id3.is_rank_id());
        assert!(!pvar(&mut t, 3, "x").is_rank_id());
        assert!(!VarId::NP.is_rank_id());
        assert!(!VarId::ZERO.is_rank_id());
        assert!(!VarId::global(t.intern_name("id")).is_rank_id());
    }

    #[test]
    fn namespace_and_rename_on_packed_ids() {
        let mut t = VarTable::new();
        let x1 = pvar(&mut t, 1, "x");
        assert_eq!(x1.namespace(), Some(PsetId(1)));
        assert_eq!(VarId::ZERO.namespace(), None);
        assert_eq!(VarId::NP.namespace(), None);
        assert_eq!(VarId::global(t.intern_name("g")).namespace(), None);

        let x2 = x1.renamed(PsetId(1), PsetId(2));
        assert_eq!(x2, pvar(&mut t, 2, "x"));
        assert_eq!(x1.renamed(PsetId(3), PsetId(2)), x1);
        assert_eq!(VarId::NP.renamed(PsetId(1), PsetId(2)), VarId::NP);
        // Rename round trip is the identity.
        assert_eq!(x2.renamed(PsetId(2), PsetId(1)), x1);
    }

    #[test]
    fn packed_order_matches_variant_order() {
        let mut t = VarTable::new();
        let g = VarId::global(t.intern_name("a"));
        let p0 = pvar(&mut t, 0, "a");
        let p1 = pvar(&mut t, 1, "a");
        assert!(VarId::ZERO < VarId::NP);
        assert!(VarId::NP < g);
        assert!(g < p0);
        assert!(p0 < p1, "pset id is the major key within Pset");
    }

    #[test]
    fn thread_local_conversions_and_display() {
        let id = VarId::pset_var(PsetId(2), intern_name("count"));
        assert_eq!(id, VarId::pset_var(PsetId(2), intern_name("count")));
        assert_eq!(id.to_string(), "P2.count");
        assert_eq!(VarId::ZERO.to_string(), "0");
        assert_eq!(VarId::NP.to_string(), "np");
        assert_eq!(VarId::global(intern_name("nrows")).to_string(), "nrows");
    }

    #[test]
    #[should_panic(expected = "overflows VarId packing")]
    fn pset_id_overflow_panics() {
        let _ = VarId::pset_var(PsetId(MAX_PSET_ID + 1), 0);
    }
}
