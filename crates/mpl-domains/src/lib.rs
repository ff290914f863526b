//! # mpl-domains — abstract domains for communication-sensitive dataflow
//!
//! Implements the dataflow state representation of §VII-A of the CGO'09
//! paper: **constraint graphs** — conjunctions of difference constraints
//! `i ≤ j + c` over variables — with the paper's two twists:
//!
//! 1. every variable is annotated with the *process-set id* that owns it
//!    (so invariants can relate variables of different process sets), and
//! 2. every process set gets its own copy of the special variable `id`.
//!
//! The constraint graph is a difference-bound matrix (DBM), dense over
//! interned [`var::VarId`] handles, with full O(n³) transitive closure
//! and an O(n²) single-edge incremental variant driven by a dirty set
//! ([`ConstraintGraph::close`] is a no-op when nothing changed). Queries
//! take `&self` and read a closed graph; whoever writes closes. Both
//! closure paths are instrumented through [`stats::ClosureStats`], which
//! is how `mpl-bench`'s `profile` binary reproduces the §IX profile
//! (closure counts, average variable counts, share of runtime).
//!
//! A constant is not a separate domain: `x = c` is the bound pair
//! `x − 0 ≤ c`, `0 − x ≤ −c`, read back by
//! [`ConstraintGraph::const_of`] (the Fig 2 client's constants).

pub mod constraint_graph;
pub mod linexpr;
pub mod stats;
pub mod var;

pub use constraint_graph::{
    splitmix64, ConstraintGraph, FxHashMap, FxHasher, DEFAULT_WIDEN_THRESHOLDS,
};
pub use linexpr::LinExpr;
pub use stats::{force_full_closure, set_force_full_closure, ClosureStats};
pub use var::{
    intern_name, reset_table, with_table, PsetId, VarId, VarKind, VarTable, MAX_PSET_ID,
};
