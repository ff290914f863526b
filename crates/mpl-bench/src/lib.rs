//! # mpl-bench — evaluation harness
//!
//! Regenerates every table and figure of the paper's evaluation (see the
//! experiment index in `DESIGN.md`):
//!
//! * `cargo run -p mpl-bench --bin tables` — the per-figure analysis
//!   results (E1–E5, E10): verdicts, matched topologies, Table I HSM
//!   derivations and the pattern/collective table;
//! * `cargo run -p mpl-bench --bin profile` — the §IX profile (E6):
//!   closure operation counts, average variable counts and the share of
//!   analysis time spent in transitive closure, plus the full-closure
//!   ablation (E8);
//! * `cargo bench -p mpl-bench` — in-tree [`harness`] benches: closure
//!   scaling (E7), end-to-end analysis times (E6) and the closure
//!   ablation (E8).

pub mod harness;

use std::time::{Duration, Instant};

use mpl_core::{
    analyze_cfg_with, AnalysisConfig, AnalysisResult, Client, EngineProfile, StatsObserver,
};
use mpl_domains::ClosureStats;
use mpl_lang::corpus::CorpusProgram;

/// One measured analysis run with its closure profile.
#[derive(Debug, Clone)]
pub struct ProfiledRun {
    /// Client used.
    pub client: Client,
    /// The analysis result.
    pub result: AnalysisResult,
    /// Total wall-clock analysis time.
    pub total: Duration,
    /// Closure counters accumulated during the run.
    pub closure: ClosureStats,
    /// Per-phase engine breakdown (E18).
    pub profile: EngineProfile,
}

impl ProfiledRun {
    /// Fraction of the analysis time spent inside transitive closures —
    /// the paper's headline "92.5 %".
    #[must_use]
    pub fn closure_share(&self) -> f64 {
        if self.total.is_zero() {
            return 0.0;
        }
        self.closure.closure_time().as_secs_f64() / self.total.as_secs_f64()
    }
}

/// Runs `prog` under `client` with closure instrumentation.
///
/// The closure counters are the engine's per-run delta
/// ([`AnalysisResult::closure_stats`]), so earlier closure work on the
/// thread never needs a global reset.
#[must_use]
pub fn profiled_run(prog: &CorpusProgram, client: Client) -> ProfiledRun {
    let config = AnalysisConfig::builder()
        .client(client)
        .build()
        .expect("default-based config is valid");
    let cfg = mpl_cfg::Cfg::build(&prog.program);
    let mut stats = StatsObserver::new();
    let start = Instant::now();
    let result = analyze_cfg_with(&cfg, &config, &mut stats);
    let total = start.elapsed();
    let closure = result.closure_stats;
    let profile = stats
        .profile()
        .copied()
        .expect("StatsObserver captures the engine profile on completion");
    ProfiledRun {
        client,
        result,
        total,
        closure,
        profile,
    }
}
