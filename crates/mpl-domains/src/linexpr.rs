//! Linear expressions `var + c` — the currency of the constraint graph
//! and the §VII message-expression abstraction.

use std::fmt;

use crate::var::{PsetId, VarId};

/// A linear expression of the form `var + offset` or a bare constant
/// (`var` absent). The base variable is an interned [`VarId`], making the
/// whole expression an 16-byte `Copy` value: alias sets in process-set
/// bounds and constraint-graph equality lists move without allocating.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LinExpr {
    /// The optional base variable.
    pub var: Option<VarId>,
    /// The constant offset.
    pub offset: i64,
}

impl LinExpr {
    /// A bare constant.
    #[must_use]
    pub fn constant(c: i64) -> LinExpr {
        LinExpr {
            var: None,
            offset: c,
        }
    }

    /// `var + 0`.
    #[must_use]
    pub fn of_var(var: VarId) -> LinExpr {
        LinExpr {
            var: Some(var),
            offset: 0,
        }
    }

    /// `var + c`.
    #[must_use]
    pub fn var_plus(var: VarId, c: i64) -> LinExpr {
        LinExpr {
            var: Some(var),
            offset: c,
        }
    }

    /// Adds a constant.
    #[must_use]
    pub fn plus(&self, c: i64) -> LinExpr {
        LinExpr {
            var: self.var,
            offset: self.offset + c,
        }
    }

    /// True if this is a bare constant.
    #[must_use]
    pub fn is_constant(&self) -> bool {
        self.var.is_none()
    }

    /// The constant value if this is a bare constant.
    #[must_use]
    pub fn as_constant(&self) -> Option<i64> {
        self.var.is_none().then_some(self.offset)
    }

    /// Rewrites a per-set base variable by a namespace map of
    /// `(from, to)` pairs ([`VarId::renamed_by`]).
    #[must_use]
    pub fn renamed(&self, map: &[(PsetId, PsetId)]) -> LinExpr {
        LinExpr {
            var: self.var.map(|v| v.renamed_by(map)),
            offset: self.offset,
        }
    }

    /// The difference `self - other` when both share the same base
    /// variable (or are both constants).
    #[must_use]
    pub fn diff_if_comparable(&self, other: &LinExpr) -> Option<i64> {
        (self.var == other.var).then(|| self.offset - other.offset)
    }

    /// True if composing this map with `other` yields the identity —
    /// the §VII matching condition for a send destination `id + c` and a
    /// receive source `id + d`: `(id + c) + d = id` iff `c + d = 0`.
    /// Only the offsets participate; the base variables live in different
    /// process-set namespaces and both denote the local rank.
    #[must_use]
    pub fn composes_to_identity_with(&self, other: &LinExpr) -> bool {
        self.offset + other.offset == 0
    }
}

impl fmt::Display for LinExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (&self.var, self.offset) {
            (None, c) => write!(f, "{c}"),
            (Some(v), 0) => write!(f, "{v}"),
            (Some(v), c) if c > 0 => write!(f, "{v}+{c}"),
            (Some(v), c) => write!(f, "{v}{c}"),
        }
    }
}

impl From<i64> for LinExpr {
    fn from(c: i64) -> LinExpr {
        LinExpr::constant(c)
    }
}

impl From<VarId> for LinExpr {
    fn from(v: VarId) -> LinExpr {
        LinExpr::of_var(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::var::intern_name;

    fn pvar(p: u32, name: &str) -> VarId {
        VarId::pset_var(PsetId(p), intern_name(name))
    }

    #[test]
    fn constructors_and_accessors() {
        let c = LinExpr::constant(5);
        assert!(c.is_constant());
        assert_eq!(c.as_constant(), Some(5));
        let v = LinExpr::var_plus(VarId::NP, -1);
        assert!(!v.is_constant());
        assert_eq!(v.as_constant(), None);
        assert_eq!(v.plus(1), LinExpr::of_var(VarId::NP));
        assert_eq!(v.var, Some(VarId::NP));
    }

    #[test]
    fn display_forms() {
        assert_eq!(LinExpr::constant(-3).to_string(), "-3");
        assert_eq!(LinExpr::var_plus(VarId::NP, -1).to_string(), "np-1");
        assert_eq!(LinExpr::var_plus(VarId::NP, 2).to_string(), "np+2");
        assert_eq!(LinExpr::of_var(VarId::NP).to_string(), "np");
    }

    #[test]
    fn diff_requires_same_base() {
        let a = LinExpr::var_plus(VarId::NP, 3);
        let b = LinExpr::var_plus(VarId::NP, 1);
        assert_eq!(a.diff_if_comparable(&b), Some(2));
        let c = LinExpr::constant(3);
        assert_eq!(a.diff_if_comparable(&c), None);
        assert_eq!(
            LinExpr::constant(7).diff_if_comparable(&LinExpr::constant(4)),
            Some(3)
        );
    }

    #[test]
    fn composition_identity_is_offset_cancellation() {
        // dest = id + 1 composed with src = id - 1 is the identity…
        let dest = LinExpr::var_plus(VarId::id_of(PsetId(0)), 1);
        let src = LinExpr::var_plus(VarId::id_of(PsetId(1)), -1);
        assert!(dest.composes_to_identity_with(&src));
        // …and the relation is symmetric; mismatched offsets are not.
        assert!(src.composes_to_identity_with(&dest));
        assert!(!dest.composes_to_identity_with(&LinExpr::var_plus(VarId::id_of(PsetId(1)), -2)));
    }

    #[test]
    fn renamed_rewrites_base() {
        let x = LinExpr::var_plus(pvar(0, "i"), 1);
        let y = x.renamed(&[(PsetId(0), PsetId(9))]);
        assert_eq!(y.var, Some(pvar(9, "i")));
        assert_eq!(y.offset, 1);
    }
}
