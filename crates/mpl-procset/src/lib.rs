//! # mpl-procset — symbolic process-set ranges
//!
//! The §VII-B process-set abstraction of the CGO'09 paper: a set of
//! processes is a contiguous rank range `[lb..ub]` whose bounds are *sets
//! of expressions* all provably equal to the bound's value. Keeping every
//! known alias of a bound is what makes the Fig 5 loop converge: on the
//! first iteration the released set is `[1..1]` with upper bound
//! `{1, i}` (since `i = 1` there), on the second it is `[1..2]` with
//! upper bound `{2, i}`; widening intersects the alias sets, leaving the
//! loop-invariant bound `{i}`.
//!
//! All comparisons are answered by a [`mpl_domains::ConstraintGraph`], so
//! a range like `[i+1 .. np-1]` can be proven empty exactly when the
//! constraints imply `i = np - 1`.

pub mod bound;
pub mod range;

pub use bound::Bound;
pub use range::ProcRange;
