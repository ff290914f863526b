//! Engine configuration: the knob set shared by every entry point
//! (`analyze`, the request API, the CLI and `mpl serve`).
//!
//! Configuration is deliberately separate from the engine loop: the
//! knobs are plain data consumed by the [`crate::scheduler`] (budgets,
//! cancellation, widening delay) and the [`crate::client`] layer (which
//! client instantiates the framework), so neither layer needs the other
//! to interpret them.

use std::fmt;

use mpl_runtime::CancelToken;

use crate::client::Client;

/// Engine configuration: plain data. Start from
/// [`AnalysisConfig::default`] and override fields with struct-update
/// syntax; entry points that take knobs from users check them with
/// [`AnalysisConfig::validate`].
///
/// ```
/// use mpl_core::{AnalysisConfig, Client, ConfigError};
///
/// let config = AnalysisConfig {
///     client: Client::Simple,
///     min_np: 8,
///     ..AnalysisConfig::default()
/// };
/// assert_eq!(config.validate(), Ok(()));
/// let zero = AnalysisConfig { max_steps: 0, ..config };
/// assert_eq!(zero.validate(), Err(ConfigError::ZeroStepBudget));
/// ```
#[derive(Debug, Clone)]
pub struct AnalysisConfig {
    /// The client analysis.
    pub client: Client,
    /// Assumed lower bound on `np` (the paper's implicit "sufficiently
    /// many processes" regime; patterns like the 1-d shift distinguish
    /// interior processes only when `np` is large enough).
    pub min_np: i64,
    /// Abort (⊤) after this many engine steps.
    pub max_steps: u64,
    /// Abort (⊤) if more than this many process sets coexist — the
    /// paper's parameter `p` bounding pCFG node width.
    pub max_psets: usize,
    /// Number of visits to a recurring pCFG location explored exactly
    /// before widening kicks in (delayed widening). Lets bounded concrete
    /// chains (e.g. a 4-block stencil on a 4x4 grid) finish without
    /// destructive merging while symbolic loops still converge.
    pub widen_delay: u32,
    /// Threshold ladder for constraint-graph widening: instead of jumping
    /// straight to ±∞, unstable bounds are relaxed to the next threshold.
    pub widen_thresholds: Vec<i64>,
    /// Cooperative cancellation: when set, the worklist loop polls the
    /// token at a bounded step interval and ends the analysis with a
    /// sound ⊤ ([`crate::result::TopReason::Deadline`]) once it fires.
    /// `None` (the default) means the run is bounded only by the step
    /// budget.
    pub cancel: Option<CancelToken>,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        AnalysisConfig {
            client: Client::Cartesian,
            min_np: 4,
            max_steps: 20_000,
            max_psets: 12,
            widen_delay: 6,
            widen_thresholds: mpl_domains::DEFAULT_WIDEN_THRESHOLDS.to_vec(),
            cancel: None,
        }
    }
}

impl AnalysisConfig {
    /// Checks every knob's range.
    ///
    /// # Errors
    ///
    /// Returns the first failing check as a [`ConfigError`], in this
    /// order: zero step budget, zero pset budget, `min_np < 1`, unsorted
    /// thresholds.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.max_steps == 0 {
            return Err(ConfigError::ZeroStepBudget);
        }
        if self.max_psets == 0 {
            return Err(ConfigError::ZeroPsetBudget);
        }
        if self.min_np < 1 {
            return Err(ConfigError::MinNpTooSmall { got: self.min_np });
        }
        if self.widen_thresholds.windows(2).any(|w| w[0] > w[1]) {
            return Err(ConfigError::UnsortedThresholds);
        }
        Ok(())
    }
}

/// A knob out of range, reported by [`AnalysisConfig::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConfigError {
    /// `max_steps` must be at least 1 — a zero step budget would ⊤ every
    /// program before the first transfer function.
    ZeroStepBudget,
    /// `max_psets` must be at least 1 — the initial state already holds
    /// one process set.
    ZeroPsetBudget,
    /// `min_np` must be at least 1 (the paper's "sufficiently many
    /// processes" regime assumes a non-empty machine).
    MinNpTooSmall {
        /// The rejected value.
        got: i64,
    },
    /// The widening threshold ladder must be sorted ascending, or the
    /// snap-to-next-threshold relaxation would not terminate.
    UnsortedThresholds,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroStepBudget => f.write_str("max_steps must be >= 1"),
            ConfigError::ZeroPsetBudget => f.write_str("max_psets must be >= 1"),
            ConfigError::MinNpTooSmall { got } => {
                write!(f, "min_np must be >= 1 (got {got})")
            }
            ConfigError::UnsortedThresholds => {
                f.write_str("widen_thresholds must be sorted ascending")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::analyze;
    use crate::result::Verdict;
    use mpl_cfg::CfgNodeId;
    use mpl_lang::corpus;

    #[test]
    fn validate_rejects_an_unsorted_threshold_ladder() {
        let unsorted = AnalysisConfig {
            widen_thresholds: vec![-8, 0, 16, 4],
            ..AnalysisConfig::default()
        };
        let err = unsorted.validate().unwrap_err();
        assert_eq!(err, ConfigError::UnsortedThresholds);
        assert_eq!(err.to_string(), "widen_thresholds must be sorted ascending");
        // Repeated thresholds are still ascending, and so is no ladder.
        for ladder in [vec![0, 0, 4], Vec::new()] {
            let config = AnalysisConfig {
                widen_thresholds: ladder,
                ..AnalysisConfig::default()
            };
            assert_eq!(config.validate(), Ok(()));
        }
    }

    #[test]
    fn max_psets_budget_yields_top() {
        let prog = corpus::nearest_neighbor_shift();
        let config = AnalysisConfig {
            max_psets: 2,
            ..AnalysisConfig::default()
        };
        let result = analyze(&prog.program, &config);
        assert!(matches!(result.verdict, Verdict::Top { .. }));
    }

    #[test]
    fn min_np_is_respected() {
        // With min_np = 8 the analysis still succeeds (it is a lower
        // bound, not an exact count).
        let prog = corpus::exchange_with_root();
        let config = AnalysisConfig {
            min_np: 8,
            ..AnalysisConfig::default()
        };
        let result = analyze(&prog.program, &config);
        assert!(result.is_exact());
    }

    #[test]
    fn printed_constant_accessor() {
        let prog = corpus::fig2_exchange();
        let result = analyze(&prog.program, &AnalysisConfig::default());
        let print_nodes: Vec<CfgNodeId> = result.prints.iter().map(|p| p.node).collect();
        for node in print_nodes {
            assert_eq!(result.printed_constant(node), Some(5));
        }
        assert_eq!(result.printed_constant(CfgNodeId(999)), None);
    }

    #[test]
    fn match_events_have_structured_kinds() {
        use crate::matcher::MatchKind;
        let prog = corpus::nearest_neighbor_shift();
        let result = analyze(&prog.program, &AnalysisConfig::default());
        assert!(result
            .events
            .iter()
            .all(|e| matches!(e.kind, MatchKind::Shift { offset: 1 })));
        let prog = corpus::fanout_broadcast();
        let result = analyze(&prog.program, &AnalysisConfig::default());
        assert!(result
            .events
            .iter()
            .all(|e| e.kind == MatchKind::UniformPair));
        assert!(result.events.iter().all(|e| e.s_const == Some(0)));
    }
}
