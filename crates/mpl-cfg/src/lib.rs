//! # mpl-cfg — control-flow graphs and sequential dataflow for MPL
//!
//! This crate lowers an [`mpl_lang::Program`] into a control-flow graph
//! ([`Cfg`]) whose nodes are individual statements/branches — the exact
//! graph the CGO'09 pCFG framework is defined over (one CFG shared by all
//! processes of the SPMD program) — and provides a small *sequential*
//! dataflow framework ([`dataflow`]), solved forward or backward. Its
//! clients are baseline analyses (e.g. sequential constant propagation,
//! which cannot see through `send`/`recv` and therefore motivates the
//! parallel framework) and the [`liveness`] the pCFG engine uses to keep
//! dead variables out of its states. [`scc`] ranks the graph's strongly
//! connected components, which the engine uses to retire stored states
//! no later step can reach.
//!
//! ```
//! use mpl_lang::parse_program;
//! use mpl_cfg::Cfg;
//!
//! let program = parse_program("x := 1; if id = 0 then send x -> 1; end")?;
//! let cfg = Cfg::build(&program);
//! assert!(cfg.node_count() >= 4); // entry, assign, branch, send, exit
//! # Ok::<(), mpl_lang::ParseError>(())
//! ```

pub mod dataflow;
pub mod dot;
pub mod graph;
pub mod liveness;
pub mod scc;
pub mod seq_constprop;

pub use dataflow::{solve_backward, solve_forward, DataflowAnalysis, JoinSemiLattice};
pub use graph::{Cfg, CfgNode, CfgNodeId, EdgeKind};
pub use scc::SccRanks;
