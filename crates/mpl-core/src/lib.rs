//! # mpl-core — communication-sensitive static dataflow over pCFGs
//!
//! The primary contribution of the CGO'09 paper *Communication-Sensitive
//! Static Dataflow for Parallel Message Passing Applications*: a dataflow
//! framework over **parallel control-flow graphs** (pCFGs) that
//! symbolically executes *sets* of processes over the shared CFG of an
//! SPMD program, matching send and receive operations exactly to discover
//! the application's communication topology for **unbounded `np`**.
//!
//! The engine ([`engine::analyze`]) follows §VI (Fig 4):
//!
//! * each analysis state holds `(dfState, pSets, matches)` — a
//!   constraint-graph dataflow state with per-process-set variable
//!   namespaces, symbolic rank ranges for the process sets, and the
//!   send/receive matches established so far;
//! * unblocked process sets advance along the CFG (transfer functions),
//!   splitting on `id`-dependent branches;
//! * when every set is blocked, `matchSendsRecvs` finds a sender/receiver
//!   pair whose expressions compose to the identity and whose image is
//!   surjective, releasing (and possibly splitting) the matched subsets;
//! * states are widened at recurring pCFG locations until fixpoint;
//! * if no exact match is possible the analysis returns ⊤ rather than
//!   guess (matching must be exact — §VI).
//!
//! Two client analyses instantiate the framework, exactly as in the
//! paper: the **simple symbolic client** (§VII, [`matcher::SimpleMatcher`];
//! message expressions of the form `var + c`) and the **cartesian
//! topology client** (§VIII, [`matcher::CartesianMatcher`], which adds
//! HSM-based matching for grid patterns such as the NAS-CG transpose).
//! Constant propagation (Fig 2) runs inside either client: a constant is
//! a pair of bounds in the constraint graph
//! ([`mpl_domains::ConstraintGraph::const_of`]).
//!
//! ```
//! use mpl_core::{analyze, AnalysisConfig, Client};
//! use mpl_lang::corpus;
//!
//! let prog = corpus::fig2_exchange();
//! let result = analyze(&prog.program, &AnalysisConfig::default());
//! assert!(result.is_exact());
//! assert_eq!(result.matches.len(), 2); // the two send-recv pairs
//! # let _ = Client::Simple;
//! ```

pub mod cache;
pub mod client;
pub mod config;
#[cfg(test)]
mod corpus_tests;
pub mod diagnostics;
pub mod engine;
pub mod infoflow;
pub mod json;
pub mod matcher;
pub mod matchset;
pub mod mpicfg;
pub mod norm;
pub mod observer;
pub mod pattern;
pub mod persist;
pub mod request;
pub mod result;
pub mod rewrite;
pub mod scheduler;
pub mod service;
pub mod share;
pub mod state;

pub use cache::{CacheStats, ResultCache};
pub use client::{CartesianClient, Client, ClientDomain, SymbolicClient};
pub use config::{AnalysisConfig, ConfigError};
pub use engine::{analyze, analyze_cfg, analyze_cfg_with};
pub use infoflow::{info_flow, info_flow_with_pairs, InfoFlow};
pub use json::{json_escape, parse as parse_json, JsonError, JsonValue};
pub use matcher::{CartesianMatcher, MatchOutcome, MatchStrategy, Probe, SimpleMatcher};
pub use matchset::{MatchPair, MatchSet};
pub use mpicfg::{mpi_cfg_topology, MpiCfgTopology};
pub use mpl_runtime::{AdmissionGate, CancelToken, ClientQuotas, QuotaPolicy};
pub use observer::{
    AnalysisObserver, EngineProfile, NoopObserver, ObserverStack, StatsObserver, TraceObserver,
};
pub use pattern::{classify, classify_pairs, Pattern};
pub use persist::{CacheJournal, JournalEntry, JournalReplay, JournalStats, RecordSpan};
pub use request::{
    summary_json_line, AnalysisRequest, AnalysisRequestBuilder, AnalysisResponse, BatchResponse,
    BatchSummary, Fault, JobOutcome, RequestBatch, RequestError, PROTOCOL_VERSION,
};
pub use result::{AnalysisResult, MatchEvent, PrintFact, TopReason, Verdict};
pub use rewrite::{rewrite_broadcast, RewriteError};
pub use scheduler::{StoredStats, CANCEL_CHECK_STEPS};
pub use service::{error_line, AnalysisService, Reply, ServiceConfig, ShutdownMode};
pub use share::Shared;
pub use state::{AnalysisState, PsetState};
