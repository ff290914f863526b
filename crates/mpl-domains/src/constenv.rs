//! A flat constant-propagation environment.
//!
//! This is the "simpler dataflow state representation than constraint
//! graphs" the paper's §IX roadmap calls for (item 1). The pCFG constant
//! propagation client (Fig 2) layers it next to — or instead of — the
//! constraint graph.

use std::collections::BTreeMap;
use std::fmt;

use crate::var::{PsetId, VarId};

/// The flat lattice over one variable: unknown (⊤ of the flat lattice) or
/// a known constant. Absent variables are unassigned (bottom).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConstVal {
    /// Provably this constant on every process of the owning set.
    Known(i64),
    /// Possibly many values.
    Unknown,
}

/// A map from interned variables to flat constant values. Namespace
/// operations are bit tests on the packed [`VarId`] keys — no string
/// traffic.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ConstEnv {
    vals: BTreeMap<VarId, ConstVal>,
}

impl ConstEnv {
    /// An empty environment (nothing assigned yet).
    #[must_use]
    pub fn new() -> ConstEnv {
        ConstEnv::default()
    }

    /// Sets `v` to a known constant.
    pub fn set_const(&mut self, v: VarId, c: i64) {
        self.vals.insert(v, ConstVal::Known(c));
    }

    /// Sets `v` to unknown.
    pub fn set_unknown(&mut self, v: VarId) {
        self.vals.insert(v, ConstVal::Unknown);
    }

    /// The constant value of `v`, if known.
    #[must_use]
    pub fn const_of(&self, v: VarId) -> Option<i64> {
        match self.vals.get(&v) {
            Some(ConstVal::Known(c)) => Some(*c),
            _ => None,
        }
    }

    /// The lattice value of `v` (`None` = never assigned).
    #[must_use]
    pub fn get(&self, v: VarId) -> Option<ConstVal> {
        self.vals.get(&v).copied()
    }

    /// Number of tracked variables.
    #[must_use]
    pub fn len(&self) -> usize {
        self.vals.len()
    }

    /// True if nothing is tracked.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.vals.is_empty()
    }

    /// Pointwise join: agreeing constants stay, disagreeing become
    /// unknown, one-sided entries become unknown (the other branch may
    /// hold any value).
    #[must_use]
    pub fn join(&self, other: &ConstEnv) -> ConstEnv {
        let mut out = BTreeMap::new();
        for (&k, v) in &self.vals {
            let merged = match (v, other.vals.get(&k)) {
                (ConstVal::Known(a), Some(ConstVal::Known(b))) if a == b => ConstVal::Known(*a),
                _ => ConstVal::Unknown,
            };
            out.insert(k, merged);
        }
        for &k in other.vals.keys() {
            out.entry(k).or_insert(ConstVal::Unknown);
        }
        ConstEnv { vals: out }
    }

    /// Renames every variable of namespace `from` into `to`.
    #[must_use]
    pub fn rename_namespace(&self, from: PsetId, to: PsetId) -> ConstEnv {
        ConstEnv {
            vals: self
                .vals
                .iter()
                .map(|(k, v)| (k.renamed(from, to), *v))
                .collect(),
        }
    }

    /// Copies every variable of namespace `src` into namespace `dst`.
    pub fn clone_namespace(&mut self, src: PsetId, dst: PsetId) {
        let copies: Vec<(VarId, ConstVal)> = self
            .vals
            .iter()
            .filter(|(k, _)| k.namespace() == Some(src))
            .map(|(k, v)| (k.renamed(src, dst), *v))
            .collect();
        self.vals.extend(copies);
    }

    /// Keeps only the variables `keep` accepts.
    pub fn retain(&mut self, mut keep: impl FnMut(VarId) -> bool) {
        self.vals.retain(|&k, _| keep(k));
    }

    /// Removes every variable of namespace `p`.
    pub fn drop_namespace(&mut self, p: PsetId) {
        self.retain(|k| k.namespace() != Some(p));
    }

    /// Iterates over all entries.
    pub fn iter(&self) -> impl Iterator<Item = (&VarId, &ConstVal)> {
        self.vals.iter()
    }

    /// Order-canonical 64-bit structural fingerprint: equal environments
    /// fingerprint equal, and (up to hash collisions) vice versa. Feeds
    /// the whole-state fingerprint used by the engine's admission dedup.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut fp = 0x5EED_C0D5_7E17_B00Du64;
        for (k, v) in &self.vals {
            let tag = match v {
                ConstVal::Known(c) => crate::constraint_graph::mix_for_fingerprint(*c as u64),
                ConstVal::Unknown => 0x0FF0_0FF0_0FF0_0FF0,
            };
            fp ^= crate::constraint_graph::mix_for_fingerprint(
                u64::from(k.raw()).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ tag,
            );
        }
        fp
    }
}

impl fmt::Display for ConstEnv {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (k, v) in &self.vals {
            if !first {
                f.write_str(", ")?;
            }
            first = false;
            match v {
                ConstVal::Known(c) => write!(f, "{k}={c}")?,
                ConstVal::Unknown => write!(f, "{k}=?")?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::var::intern_name;

    fn v(p: u32, name: &str) -> VarId {
        VarId::pset_var(PsetId(p), intern_name(name))
    }

    #[test]
    fn set_and_get() {
        let mut e = ConstEnv::new();
        e.set_const(v(0, "x"), 5);
        assert_eq!(e.const_of(v(0, "x")), Some(5));
        e.set_unknown(v(0, "x"));
        assert_eq!(e.const_of(v(0, "x")), None);
        assert_eq!(e.get(v(0, "x")), Some(ConstVal::Unknown));
        assert_eq!(e.get(v(0, "y")), None);
    }

    #[test]
    fn join_rules() {
        let mut a = ConstEnv::new();
        a.set_const(v(0, "x"), 1);
        a.set_const(v(0, "y"), 2);
        a.set_const(v(0, "only_a"), 3);
        let mut b = ConstEnv::new();
        b.set_const(v(0, "x"), 1);
        b.set_const(v(0, "y"), 9);
        b.set_const(v(0, "only_b"), 4);
        let j = a.join(&b);
        assert_eq!(j.const_of(v(0, "x")), Some(1));
        assert_eq!(j.const_of(v(0, "y")), None);
        assert_eq!(j.get(v(0, "only_a")), Some(ConstVal::Unknown));
        assert_eq!(j.get(v(0, "only_b")), Some(ConstVal::Unknown));
    }

    #[test]
    fn namespace_operations() {
        let mut e = ConstEnv::new();
        e.set_const(v(0, "x"), 1);
        e.set_const(v(1, "x"), 2);
        let renamed = e.rename_namespace(PsetId(0), PsetId(7));
        assert_eq!(renamed.const_of(v(7, "x")), Some(1));
        assert_eq!(renamed.const_of(v(1, "x")), Some(2));

        let mut e2 = e.clone();
        e2.clone_namespace(PsetId(1), PsetId(3));
        assert_eq!(e2.const_of(v(3, "x")), Some(2));
        assert_eq!(e2.const_of(v(1, "x")), Some(2));

        e2.drop_namespace(PsetId(1));
        assert_eq!(e2.get(v(1, "x")), None);
        assert_eq!(e2.const_of(v(3, "x")), Some(2));
    }

    #[test]
    fn display_is_compact() {
        let mut e = ConstEnv::new();
        e.set_const(v(0, "x"), 5);
        e.set_unknown(v(0, "y"));
        assert_eq!(e.to_string(), "P0.x=5, P0.y=?");
    }
}
