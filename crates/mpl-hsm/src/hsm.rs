//! The HSM type and the Table I algebra.

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

use crate::symval::{AssumptionCtx, SymPoly};

/// One level of the mixed-radix hierarchy: `rep` copies at `stride`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Level {
    /// Number of repetitions (`r > 0`).
    pub rep: SymPoly,
    /// Stride between consecutive copies (`s`, may be 0).
    pub stride: SymPoly,
}

impl Level {
    /// A new level.
    #[must_use]
    pub fn new(rep: SymPoly, stride: SymPoly) -> Level {
        Level { rep, stride }
    }
}

/// A Hierarchical Sequence Map in flat mixed-radix normal form.
///
/// Denotes the sequence whose element at index `(t_1, …, t_m)` — with
/// `t_d ∈ [0, rep_d)`, level 1 innermost/fastest — is
/// `base + Σ_d stride_d · t_d`. The paper's nested `[e : r, s]` builds
/// this form via [`Hsm::leaf`] and [`Hsm::repeat`], and [`fmt::Display`]
/// prints the nested syntax back.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Hsm {
    /// The innermost scalar.
    pub base: SymPoly,
    /// Levels, innermost first.
    pub levels: Vec<Level>,
}

/// An error from a partial HSM operation: the operands are outside the
/// fragment the rules cover (the client analysis then falls back to ⊤).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HsmError {
    /// Human-readable reason.
    pub reason: String,
}

impl HsmError {
    fn new(reason: impl Into<String>) -> HsmError {
        HsmError {
            reason: reason.into(),
        }
    }
}

impl fmt::Display for HsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unsupported HSM operation: {}", self.reason)
    }
}

impl Error for HsmError {}

impl Hsm {
    /// The single-element sequence `⟨v⟩`.
    #[must_use]
    pub fn leaf(v: SymPoly) -> Hsm {
        Hsm {
            base: v,
            levels: Vec::new(),
        }
    }

    /// The paper's `[self : rep, stride]`: repeats the whole sequence.
    #[must_use]
    pub fn repeat(mut self, rep: SymPoly, stride: SymPoly) -> Hsm {
        self.levels.push(Level::new(rep, stride));
        self
    }

    /// The contiguous range `⟨l, l+1, …, l+n-1⟩` (the HSM of a process
    /// set, `[l : n, 1]`).
    #[must_use]
    pub fn range(l: SymPoly, n: SymPoly) -> Hsm {
        Hsm::leaf(l).repeat(n, SymPoly::constant(1))
    }

    /// The constant sequence `⟨v, v, …⟩` of length `n` (`[v : n, 0]`).
    #[must_use]
    pub fn constant(v: SymPoly, n: SymPoly) -> Hsm {
        Hsm::leaf(v).repeat(n, SymPoly::zero())
    }

    /// Total sequence length (product of reps).
    #[must_use]
    pub fn len(&self, ctx: &AssumptionCtx) -> SymPoly {
        let mut n = SymPoly::constant(1);
        for l in &self.levels {
            n = n * l.rep.clone();
        }
        ctx.normalize(&n)
    }

    /// Enumerates the concrete sequence under symbol bindings.
    /// Returns `None` if a symbol is unbound, a rep is non-positive, or
    /// the sequence exceeds `1 << 20` elements.
    #[must_use]
    pub fn concretize(&self, bindings: &BTreeMap<String, i64>) -> Option<Vec<i64>> {
        let base = self.base.eval(bindings)?;
        let mut reps = Vec::new();
        let mut strides = Vec::new();
        let mut total: i64 = 1;
        for l in &self.levels {
            let r = l.rep.eval(bindings)?;
            if r <= 0 {
                return None;
            }
            total = total.checked_mul(r)?;
            if total > (1 << 20) {
                return None;
            }
            reps.push(r);
            strides.push(l.stride.eval(bindings)?);
        }
        let mut out = Vec::with_capacity(total as usize);
        let mut idx = vec![0i64; reps.len()];
        loop {
            let mut v = base;
            for (d, &t) in idx.iter().enumerate() {
                v += strides[d] * t;
            }
            out.push(v);
            // Advance the mixed-radix counter, innermost (level 0) fastest.
            let mut d = 0;
            loop {
                if d == reps.len() {
                    return Some(out);
                }
                idx[d] += 1;
                if idx[d] < reps[d] {
                    break;
                }
                idx[d] = 0;
                d += 1;
            }
        }
    }

    /// Normalizes all polynomials and canonicalizes the level list for
    /// *sequence* identity: drops `rep = 1` levels and fuses adjacent
    /// levels `(r, s), (r', r·s) → (r·r', s)` (the paper's
    /// sequence-equality reshape rule, applied as a reduction).
    #[must_use]
    pub fn seq_canonical(&self, ctx: &AssumptionCtx) -> Hsm {
        let base = ctx.normalize(&self.base);
        let mut levels: Vec<Level> = self
            .levels
            .iter()
            .map(|l| Level::new(ctx.normalize(&l.rep), ctx.normalize(&l.stride)))
            .filter(|l| !l.rep.is_one())
            .collect();
        // Fuse adjacent levels until stable.
        let mut changed = true;
        while changed {
            changed = false;
            let mut i = 0;
            while i + 1 < levels.len() {
                let fused = ctx.eq(
                    &levels[i + 1].stride,
                    &(levels[i].rep.clone() * levels[i].stride.clone()),
                );
                if fused {
                    let inner = levels.remove(i);
                    let outer = &mut levels[i];
                    outer.rep = ctx.normalize(&(inner.rep.clone() * outer.rep.clone()));
                    outer.stride = inner.stride;
                    changed = true;
                } else {
                    i += 1;
                }
            }
        }
        Hsm { base, levels }
    }

    /// True if `self` and `other` denote the *same sequence* (the paper's
    /// sequence-equality, decided via canonical forms).
    #[must_use]
    pub fn seq_eq(&self, other: &Hsm, ctx: &AssumptionCtx) -> bool {
        self.seq_canonical(ctx) == other.seq_canonical(ctx)
    }

    /// Canonicalizes for *set* (multiset) identity: level order is
    /// irrelevant to the multiset of values, so fuse any level pair
    /// `(r, s), (r', r·s)` regardless of position (subsuming the paper's
    /// interleave and transpose set-equality rules), then sort.
    #[must_use]
    pub fn set_canonical(&self, ctx: &AssumptionCtx) -> Hsm {
        let start = self.seq_canonical(ctx);
        let mut levels = start.levels;
        let mut changed = true;
        while changed {
            changed = false;
            'outer: for i in 0..levels.len() {
                for j in 0..levels.len() {
                    if i == j {
                        continue;
                    }
                    // Can level j sit directly above level i?
                    let fits = ctx.eq(
                        &levels[j].stride,
                        &(levels[i].rep.clone() * levels[i].stride.clone()),
                    );
                    if fits {
                        let rep = ctx.normalize(&(levels[i].rep.clone() * levels[j].rep.clone()));
                        let stride = levels[i].stride.clone();
                        let (a, b) = (i.min(j), i.max(j));
                        levels.remove(b);
                        levels.remove(a);
                        levels.push(Level::new(rep, stride));
                        changed = true;
                        break 'outer;
                    }
                }
            }
        }
        levels.sort();
        Hsm {
            base: start.base,
            levels,
        }
    }

    /// True if `self` and `other` provably denote the same *multiset* of
    /// values (the paper's set-equality `≈`). A `false` answer means
    /// "not proven", not "provably different".
    #[must_use]
    pub fn set_eq(&self, other: &Hsm, ctx: &AssumptionCtx) -> bool {
        self.set_canonical(ctx) == other.set_canonical(ctx)
    }

    /// True if this HSM is the identity map on `[l .. l+n-1]` — i.e. its
    /// sequence is exactly `⟨l, l+1, …⟩` (§VIII-B1).
    #[must_use]
    pub fn is_identity_on(&self, l: &SymPoly, n: &SymPoly, ctx: &AssumptionCtx) -> bool {
        if ctx.eq(n, &SymPoly::constant(1)) {
            // A single process: identity iff the value is l.
            let c = self.seq_canonical(ctx);
            return c.levels.is_empty() && ctx.eq(&c.base, l);
        }
        self.seq_eq(&Hsm::range(l.clone(), n.clone()), ctx)
    }

    /// True if this HSM is a surjection onto `[l .. l+n-1]` — its value
    /// multiset covers the range (§VIII-B2).
    #[must_use]
    pub fn is_surjection_onto(&self, l: &SymPoly, n: &SymPoly, ctx: &AssumptionCtx) -> bool {
        if ctx.eq(n, &SymPoly::constant(1)) {
            let c = self.set_canonical(ctx);
            return c.levels.iter().all(|lv| lv.stride.is_zero()) && ctx.eq(&c.base, l);
        }
        self.set_eq(&Hsm::range(l.clone(), n.clone()), ctx)
    }

    /// Element-wise sum of two equal-length HSMs (Table I addition),
    /// aligning the level structures by splitting reps where needed.
    ///
    /// # Errors
    ///
    /// Fails if the level structures cannot be aligned by exact rep
    /// division (which implies the lengths cannot be proven equal).
    pub fn add(&self, other: &Hsm, ctx: &AssumptionCtx) -> Result<Hsm, HsmError> {
        let a = self.seq_canonical(ctx);
        let b = other.seq_canonical(ctx);
        let (la, lb) = Hsm::align(a.levels, b.levels, ctx)?;
        let levels = la
            .into_iter()
            .zip(lb)
            .map(|(x, y)| Level::new(x.rep, ctx.normalize(&(x.stride + y.stride))))
            .collect();
        Ok(Hsm {
            base: ctx.normalize(&(a.base + b.base)),
            levels,
        })
    }

    /// Aligns two level lists (innermost first) to a common refinement,
    /// splitting a coarser level `(r·q, s)` into `(r, s)` + `(q, r·s)`
    /// when the other side's level has rep `r` — the sequence-equality
    /// reshape of Table I used as a refinement step.
    fn align(
        mut a: Vec<Level>,
        mut b: Vec<Level>,
        ctx: &AssumptionCtx,
    ) -> Result<(Vec<Level>, Vec<Level>), HsmError> {
        let mut out_a = Vec::new();
        let mut out_b = Vec::new();
        a.reverse(); // Work from innermost by popping.
        b.reverse();
        while let (Some(la), Some(lb)) = (a.last().cloned(), b.last().cloned()) {
            if ctx.eq(&la.rep, &lb.rep) {
                out_a.push(la);
                out_b.push(lb);
                a.pop();
                b.pop();
            } else if let Some(q) = ctx
                .div_exact(&la.rep, &lb.rep)
                .filter(|q| !q.is_one() && q.provably_pos())
            {
                // a's level is coarser: emit its inner slice, keep the rest.
                out_a.push(Level::new(lb.rep.clone(), la.stride.clone()));
                out_b.push(lb.clone());
                b.pop();
                let rest_stride = ctx.normalize(&(lb.rep.clone() * la.stride.clone()));
                *a.last_mut().expect("nonempty") = Level::new(q, rest_stride);
            } else if let Some(q) = ctx
                .div_exact(&lb.rep, &la.rep)
                .filter(|q| !q.is_one() && q.provably_pos())
            {
                out_b.push(Level::new(la.rep.clone(), lb.stride.clone()));
                out_a.push(la.clone());
                a.pop();
                let rest_stride = ctx.normalize(&(la.rep.clone() * lb.stride.clone()));
                *b.last_mut().expect("nonempty") = Level::new(q, rest_stride);
            } else {
                return Err(HsmError::new("cannot align HSM levels"));
            }
        }
        if a.is_empty() && b.is_empty() {
            Ok((out_a, out_b))
        } else {
            Err(HsmError::new("HSM lengths differ"))
        }
    }

    /// Scalar multiplication (Table I): multiplies base and all strides.
    #[must_use]
    pub fn mul_scalar(&self, k: &SymPoly, ctx: &AssumptionCtx) -> Hsm {
        Hsm {
            base: ctx.normalize(&(self.base.clone() * k.clone())),
            levels: self
                .levels
                .iter()
                .map(|l| {
                    Level::new(
                        l.rep.clone(),
                        ctx.normalize(&(l.stride.clone() * k.clone())),
                    )
                })
                .collect(),
        }
    }

    /// Adds a scalar to every element.
    #[must_use]
    pub fn add_scalar(&self, k: &SymPoly, ctx: &AssumptionCtx) -> Hsm {
        Hsm {
            base: ctx.normalize(&(self.base.clone() + k.clone())),
            levels: self.levels.clone(),
        }
    }

    /// Integral division of every element by `q` (Table I, both division
    /// rules generalized): levels whose stride is divisible by `q` divide
    /// exactly; the remaining "low" part must provably fit inside one
    /// `q`-block.
    ///
    /// ```
    /// use mpl_hsm::{AssumptionCtx, Hsm, SymPoly};
    /// // The paper's example: [20 : 6, 5] / 10 = <2, 2, 3, 3, 4, 4>.
    /// let h = Hsm::leaf(SymPoly::constant(20))
    ///     .repeat(SymPoly::constant(6), SymPoly::constant(5));
    /// let d = h.div(&SymPoly::constant(10), &AssumptionCtx::new())?;
    /// assert_eq!(d.concretize(&Default::default()).unwrap(), vec![2, 2, 3, 3, 4, 4]);
    /// # Ok::<(), mpl_hsm::HsmError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Fails when a level can neither be divided exactly nor bounded
    /// within a block (after attempting the paper's reshape).
    pub fn div(&self, q: &SymPoly, ctx: &AssumptionCtx) -> Result<Hsm, HsmError> {
        let parts = self.classify(q, ctx)?;
        let levels = parts
            .levels
            .into_iter()
            .map(|(level, class)| match class {
                Class::High(divided) => Level::new(level.rep, divided),
                Class::Low => Level::new(level.rep, SymPoly::zero()),
            })
            .collect();
        Ok(Hsm {
            base: parts.base_hi,
            levels,
        })
    }

    /// Modulus of every element by `q` (Table I, generalized like
    /// [`Hsm::div`]).
    ///
    /// ```
    /// use mpl_hsm::{AssumptionCtx, Hsm, SymPoly};
    /// // The paper's example: [12 : 15, 2] % 6 = [[0 : 3, 2] : 5, 0].
    /// let h = Hsm::leaf(SymPoly::constant(12))
    ///     .repeat(SymPoly::constant(15), SymPoly::constant(2));
    /// let m = h.modulo(&SymPoly::constant(6), &AssumptionCtx::new())?;
    /// assert_eq!(
    ///     m.seq_canonical(&AssumptionCtx::new()).to_string(),
    ///     "[[0 : 3, 2] : 5, 0]"
    /// );
    /// # Ok::<(), mpl_hsm::HsmError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Fails under the same conditions as [`Hsm::div`].
    pub fn modulo(&self, q: &SymPoly, ctx: &AssumptionCtx) -> Result<Hsm, HsmError> {
        let parts = self.classify(q, ctx)?;
        let levels = parts
            .levels
            .into_iter()
            .map(|(level, class)| match class {
                Class::High(_) => Level::new(level.rep, SymPoly::zero()),
                Class::Low => level,
            })
            .collect();
        Ok(Hsm {
            base: parts.base_lo,
            levels,
        })
    }

    /// Shared decomposition for `div`/`modulo`: writes every element as
    /// `q·hi + lo` with `0 ≤ lo < q` provable.
    fn classify(&self, q: &SymPoly, ctx: &AssumptionCtx) -> Result<Classified, HsmError> {
        let q = ctx.normalize(q);
        if !q.provably_pos() {
            return Err(HsmError::new(format!("divisor {q} not provably positive")));
        }
        let me = self.seq_canonical(ctx);
        let (base_hi, base_lo) = me.base.split_divisible(&q);
        if !ctx.nonneg(&base_lo) {
            return Err(HsmError::new(format!(
                "base remainder {base_lo} not provably non-negative"
            )));
        }
        let mut levels: Vec<(Level, Class)> = Vec::new();
        let mut lo_max = base_lo.clone();
        for level in me.levels {
            if let Some(divided) = ctx.div_exact(&level.stride, &q) {
                levels.push((level, Class::High(divided)));
                continue;
            }
            if ctx.nonneg(&level.stride) {
                // Candidate low level. If it is too wide to fit below q
                // but factors as r = r1·r2 with s·r1 = q, reshape it into
                // an inner low slice plus an outer q-strided (high) level
                // — the paper's `[e : r1·r2, s] = [[e : r1, s] : r2, r1·s]`.
                let split = ctx
                    .div_exact(&q, &level.stride)
                    .filter(|r1| !r1.is_one() && r1.provably_pos())
                    .and_then(|r1| {
                        let r2 = ctx.div_exact(&level.rep, &r1)?;
                        (!r2.is_one() && r2.provably_pos()).then_some((r1, r2))
                    });
                if let Some((r1, r2)) = split {
                    lo_max = lo_max + level.stride.clone() * (r1.clone() - SymPoly::constant(1));
                    levels.push((Level::new(r1, level.stride.clone()), Class::Low));
                    levels.push((Level::new(r2, q.clone()), Class::High(SymPoly::constant(1))));
                    continue;
                }
                lo_max = lo_max + level.stride.clone() * (level.rep.clone() - SymPoly::constant(1));
                levels.push((level, Class::Low));
            } else {
                return Err(HsmError::new(format!(
                    "stride {} neither divisible by {q} nor provably non-negative",
                    level.stride
                )));
            }
        }
        // The whole low part must fit strictly below q.
        let gap = q.clone() - ctx.normalize(&lo_max) - SymPoly::constant(1);
        if !ctx.nonneg(&gap) {
            return Err(HsmError::new(format!(
                "low part (max {}) not provably below divisor {q}",
                ctx.normalize(&lo_max)
            )));
        }
        Ok(Classified {
            base_hi,
            base_lo,
            levels,
        })
    }
}

enum Class {
    /// Stride divisible by `q`; payload is `stride / q`.
    High(SymPoly),
    /// Contributes to the within-block offset.
    Low,
}

struct Classified {
    base_hi: SymPoly,
    base_lo: SymPoly,
    levels: Vec<(Level, Class)>,
}

impl fmt::Display for Hsm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = self.base.to_string();
        for l in &self.levels {
            s = format!("[{s} : {}, {}]", l.rep, l.stride);
        }
        f.write_str(&s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(v: i64) -> SymPoly {
        SymPoly::constant(v)
    }

    fn s(name: &str) -> SymPoly {
        SymPoly::sym(name)
    }

    fn ctx() -> AssumptionCtx {
        AssumptionCtx::new()
    }

    fn concrete(h: &Hsm) -> Vec<i64> {
        h.concretize(&BTreeMap::new()).expect("concrete HSM")
    }

    #[test]
    fn concretize_paper_basic_example() {
        // [11 : 4, 5] = <11, 16, 21, 26>
        let h = Hsm::leaf(c(11)).repeat(c(4), c(5));
        assert_eq!(concrete(&h), vec![11, 16, 21, 26]);
    }

    #[test]
    fn concretize_nested_example() {
        // [[0 : 2, 10] : 3, 100] = <0, 10, 100, 110, 200, 210>
        let h = Hsm::leaf(c(0)).repeat(c(2), c(10)).repeat(c(3), c(100));
        assert_eq!(concrete(&h), vec![0, 10, 100, 110, 200, 210]);
    }

    #[test]
    fn paper_mod_example() {
        // [12 : 15, 2] % 6: the paper reduces it to [[0 : 3, 2] : 5, 0].
        let h = Hsm::leaf(c(12)).repeat(c(15), c(2));
        let m = h.modulo(&c(6), &ctx()).unwrap();
        let want: Vec<i64> = (0..15).map(|t| (12 + 2 * t) % 6).collect();
        assert_eq!(concrete(&m), want);
        // And structurally: base 0, levels (3,2),(5,0).
        let canon = m.seq_canonical(&ctx());
        assert_eq!(canon.base, c(0));
        assert_eq!(
            canon.levels,
            vec![Level::new(c(3), c(2)), Level::new(c(5), c(0))]
        );
    }

    #[test]
    fn paper_div_example() {
        // [20 : 6, 5] / 10 = <2, 2, 3, 3, 4, 4>.
        let h = Hsm::leaf(c(20)).repeat(c(6), c(5));
        let d = h.div(&c(10), &ctx()).unwrap();
        assert_eq!(concrete(&d), vec![2, 2, 3, 3, 4, 4]);
    }

    #[test]
    fn exact_division_rule() {
        // [20 : 3, 10] / 10 = <2, 3, 4>.
        let h = Hsm::leaf(c(20)).repeat(c(3), c(10));
        let d = h.div(&c(10), &ctx()).unwrap();
        assert_eq!(concrete(&d), vec![2, 3, 4]);
    }

    #[test]
    fn div_rejects_unprovable_cases() {
        // [0 : n, 3] / 2 with symbolic n: 3 not divisible by 2 and the
        // low span 3*(n-1) cannot be bounded below 2.
        let h = Hsm::leaf(c(0)).repeat(s("n"), c(3));
        assert!(h.div(&c(2), &ctx()).is_err());
        // Negative divisor.
        assert!(h.div(&c(-2), &ctx()).is_err());
    }

    #[test]
    fn mod_fits_whole_range() {
        // [0 : n, 1] % n: the range is exactly one block.
        let h = Hsm::range(c(0), s("n"));
        let m = h.modulo(&s("n"), &ctx()).unwrap();
        assert!(m.seq_eq(&Hsm::range(c(0), s("n")), &ctx()));
    }

    #[test]
    fn seq_equality_reshape_rule() {
        // [e : r*r', s] = [[e : r, s] : r', r*s]  (paper's rule 1)
        // [2 : 6, 2] = [[2 : 3, 2] : 2, 6]
        let flat = Hsm::leaf(c(2)).repeat(c(6), c(2));
        let nested = Hsm::leaf(c(2)).repeat(c(3), c(2)).repeat(c(2), c(6));
        assert!(flat.seq_eq(&nested, &ctx()));
        assert_eq!(concrete(&flat), concrete(&nested));
    }

    #[test]
    fn seq_equality_is_order_sensitive() {
        // <1, 11, 21, 2, 12, 22> vs <1, 2, 11, 12, 21, 22>: set-equal but
        // not sequence-equal.
        let a = Hsm::leaf(c(1)).repeat(c(3), c(10)).repeat(c(2), c(1));
        let b = Hsm::leaf(c(1)).repeat(c(2), c(1)).repeat(c(3), c(10));
        assert!(!a.seq_eq(&b, &ctx()));
        assert!(a.set_eq(&b, &ctx()));
        let mut va = concrete(&a);
        let mut vb = concrete(&b);
        assert_ne!(va, vb);
        va.sort_unstable();
        vb.sort_unstable();
        assert_eq!(va, vb);
    }

    #[test]
    fn set_equality_interleave_rule() {
        // [[2 : 3, 2*2] : 2, 2] ≈ [2 : 6, 2]  (paper's interleave rule)
        let interleaved = Hsm::leaf(c(2)).repeat(c(3), c(4)).repeat(c(2), c(2));
        let flat = Hsm::leaf(c(2)).repeat(c(6), c(2));
        assert!(interleaved.set_eq(&flat, &ctx()));
        assert!(!interleaved.seq_eq(&flat, &ctx()));
    }

    #[test]
    fn set_equality_rejects_different_sets() {
        let a = Hsm::leaf(c(0)).repeat(c(4), c(1));
        let b = Hsm::leaf(c(0)).repeat(c(4), c(2));
        assert!(!a.set_eq(&b, &ctx()));
    }

    #[test]
    fn identity_and_surjection_on_symbolic_range() {
        let h = Hsm::range(s("l"), s("n"));
        assert!(h.is_identity_on(&s("l"), &s("n"), &ctx()));
        assert!(h.is_surjection_onto(&s("l"), &s("n"), &ctx()));
        let shifted = h.add_scalar(&c(1), &ctx());
        assert!(!shifted.is_identity_on(&s("l"), &s("n"), &ctx()));
        assert!(shifted.is_identity_on(&(s("l") + c(1)), &s("n"), &ctx()));
    }

    #[test]
    fn singleton_identity() {
        let h = Hsm::leaf(s("i"));
        assert!(h.is_identity_on(&s("i"), &c(1), &ctx()));
        assert!(h.is_surjection_onto(&s("i"), &c(1), &ctx()));
        assert!(!h.is_identity_on(&(s("i") + c(1)), &c(1), &ctx()));
    }

    #[test]
    fn add_aligns_mismatched_levels() {
        // [0 : 6, 1] + [[0 : 2, 0] : 3, 10]: the flat range must split
        // into (2, 1), (3, 2)… actually (2,1)+(3,2*1): align by reps.
        let a = Hsm::leaf(c(0)).repeat(c(6), c(1));
        let b = Hsm::leaf(c(0)).repeat(c(2), c(0)).repeat(c(3), c(10));
        let sum = a.add(&b, &ctx()).unwrap();
        let want: Vec<i64> = concrete(&a)
            .into_iter()
            .zip(concrete(&b))
            .map(|(x, y)| x + y)
            .collect();
        assert_eq!(concrete(&sum), want);
    }

    #[test]
    fn add_rejects_length_mismatch() {
        let a = Hsm::leaf(c(0)).repeat(c(4), c(1));
        let b = Hsm::leaf(c(0)).repeat(c(5), c(1));
        assert!(a.add(&b, &ctx()).is_err());
        let sym = Hsm::leaf(c(0)).repeat(s("n"), c(1));
        assert!(a.add(&sym, &ctx()).is_err());
    }

    #[test]
    fn mul_scalar_scales_everything() {
        let h = Hsm::leaf(c(1)).repeat(c(3), c(2));
        let m = h.mul_scalar(&c(5), &ctx());
        assert_eq!(concrete(&m), vec![5, 15, 25]);
        let neg = h.mul_scalar(&c(-1), &ctx());
        assert_eq!(concrete(&neg), vec![-1, -3, -5]);
    }

    #[test]
    fn len_multiplies_reps() {
        let h = Hsm::leaf(c(0)).repeat(s("a"), c(1)).repeat(s("b"), c(10));
        assert_eq!(h.len(&ctx()), s("a") * s("b"));
        assert_eq!(Hsm::leaf(c(3)).len(&ctx()), c(1));
    }

    #[test]
    fn display_uses_paper_syntax() {
        let h = Hsm::leaf(c(0))
            .repeat(s("nrows"), s("nrows"))
            .repeat(s("nrows"), c(1));
        assert_eq!(h.to_string(), "[[0 : nrows, nrows] : nrows, 1]");
        assert_eq!(Hsm::leaf(c(7)).to_string(), "7");
    }

    #[test]
    fn concretize_guards() {
        // Unbound symbol.
        let h = Hsm::leaf(s("x"));
        assert_eq!(h.concretize(&BTreeMap::new()), None);
        // Non-positive rep.
        let h = Hsm::leaf(c(0)).repeat(c(0), c(1));
        assert_eq!(h.concretize(&BTreeMap::new()), None);
        // Oversized sequence.
        let h = Hsm::leaf(c(0)).repeat(c(1 << 30), c(1));
        assert_eq!(h.concretize(&BTreeMap::new()), None);
    }

    #[test]
    fn div_then_mod_reconstructs_value() {
        // For random-ish concrete HSMs where both ops succeed, check
        // v = q*(v/q) + (v%q) elementwise.
        let cases = vec![
            (Hsm::leaf(c(12)).repeat(c(15), c(2)), 6),
            (Hsm::leaf(c(20)).repeat(c(6), c(5)), 10),
            (Hsm::leaf(c(0)).repeat(c(4), c(1)).repeat(c(3), c(8)), 4),
            (Hsm::leaf(c(3)).repeat(c(2), c(0)).repeat(c(5), c(7)), 7),
        ];
        for (h, q) in cases {
            let ctx = ctx();
            let d = h
                .div(&c(q), &ctx)
                .unwrap_or_else(|e| panic!("div {h} by {q}: {e}"));
            let m = h
                .modulo(&c(q), &ctx)
                .unwrap_or_else(|e| panic!("mod {h} by {q}: {e}"));
            let vs = concrete(&h);
            let ds = concrete(&d);
            let ms = concrete(&m);
            for i in 0..vs.len() {
                assert_eq!(vs[i].div_euclid(q), ds[i], "div at {i} of {h}");
                assert_eq!(vs[i].rem_euclid(q), ms[i], "mod at {i} of {h}");
            }
        }
    }

    #[test]
    fn set_canonical_telescopes_transpose_image() {
        // levels (nrows, nrows), (nrows, 1) telescope to (nrows², 1).
        let h = Hsm::leaf(c(0))
            .repeat(s("nrows"), s("nrows"))
            .repeat(s("nrows"), c(1));
        let canon = h.set_canonical(&ctx());
        assert_eq!(canon.levels.len(), 1);
        assert_eq!(canon.levels[0].rep, s("nrows") * s("nrows"));
        assert_eq!(canon.levels[0].stride, c(1));
    }
}
