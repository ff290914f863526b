//! Engine configuration: the validated knob set shared by every entry
//! point (`analyze`, the batch runtime, the CLI).
//!
//! Configuration is deliberately separate from the engine loop: the
//! knobs are plain data consumed by the [`crate::scheduler`] (budgets,
//! cancellation, widening delay) and the [`crate::client`] layer (which
//! client instantiates the framework), so neither layer needs the other
//! to interpret them.

use std::fmt;

use mpl_runtime::CancelToken;

use crate::client::Client;

/// Engine configuration.
///
/// Construct through [`AnalysisConfig::builder`] (which validates the
/// knobs) or start from [`AnalysisConfig::default`]. The struct is
/// `#[non_exhaustive]`: fields stay readable everywhere, but literal
/// construction is reserved to this crate so knobs can be added without
/// breaking downstream code.
#[derive(Debug, Clone)]
#[non_exhaustive]
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
    /// Allow a blocked send to be buffered (depth 1) so the set can
    /// advance — the §X aggregation needed for self-exchange patterns.
    pub allow_pending_sends: bool,
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
            allow_pending_sends: true,
            widen_delay: 6,
            widen_thresholds: mpl_domains::DEFAULT_WIDEN_THRESHOLDS.to_vec(),
            cancel: None,
        }
    }
}

impl AnalysisConfig {
    /// A builder seeded with the defaults.
    #[must_use]
    pub fn builder() -> AnalysisConfigBuilder {
        AnalysisConfigBuilder {
            config: AnalysisConfig::default(),
        }
    }
}

/// A rejected [`AnalysisConfigBuilder`] knob combination.
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

/// Typed, validating constructor for [`AnalysisConfig`] — the supported
/// way to configure the engine from other crates.
///
/// ```
/// use mpl_core::{AnalysisConfig, Client};
/// let config = AnalysisConfig::builder()
///     .client(Client::Simple)
///     .min_np(8)
///     .build()
///     .expect("valid config");
/// assert_eq!(config.min_np, 8);
/// assert!(AnalysisConfig::builder().max_steps(0).build().is_err());
/// ```
#[derive(Debug, Clone)]
pub struct AnalysisConfigBuilder {
    config: AnalysisConfig,
}

impl AnalysisConfigBuilder {
    /// A builder seeded from an existing configuration (the request API
    /// uses this to layer per-request overrides onto server defaults and
    /// still route through [`Self::build`]'s validation).
    #[must_use]
    pub fn from_config(config: AnalysisConfig) -> AnalysisConfigBuilder {
        AnalysisConfigBuilder { config }
    }

    /// Sets the client analysis.
    #[must_use]
    pub fn client(mut self, client: Client) -> Self {
        self.config.client = client;
        self
    }

    /// Sets the assumed lower bound on `np`.
    #[must_use]
    pub fn min_np(mut self, min_np: i64) -> Self {
        self.config.min_np = min_np;
        self
    }

    /// Sets the engine step budget.
    #[must_use]
    pub fn max_steps(mut self, max_steps: u64) -> Self {
        self.config.max_steps = max_steps;
        self
    }

    /// Sets the pCFG node-width budget (the paper's parameter `p`).
    #[must_use]
    pub fn max_psets(mut self, max_psets: usize) -> Self {
        self.config.max_psets = max_psets;
        self
    }

    /// Enables or disables depth-1 send buffering (§X aggregation).
    #[must_use]
    pub fn allow_pending_sends(mut self, allow: bool) -> Self {
        self.config.allow_pending_sends = allow;
        self
    }

    /// Sets the number of exact visits before widening kicks in.
    #[must_use]
    pub fn widen_delay(mut self, widen_delay: u32) -> Self {
        self.config.widen_delay = widen_delay;
        self
    }

    /// Sets the widening threshold ladder (must be sorted ascending).
    #[must_use]
    pub fn widen_thresholds(mut self, thresholds: Vec<i64>) -> Self {
        self.config.widen_thresholds = thresholds;
        self
    }

    /// Attaches a cooperative cancellation token (deadline support). The
    /// engine polls it every few worklist steps and returns a sound ⊤
    /// ([`crate::result::TopReason::Deadline`]) once it fires.
    #[must_use]
    pub fn cancel_token(mut self, token: CancelToken) -> Self {
        self.config.cancel = Some(token);
        self
    }

    /// Validates and produces the configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] when a knob is out of range (zero
    /// budgets, `min_np < 1`, unsorted thresholds).
    pub fn build(self) -> Result<AnalysisConfig, ConfigError> {
        let c = self.config;
        if c.max_steps == 0 {
            return Err(ConfigError::ZeroStepBudget);
        }
        if c.max_psets == 0 {
            return Err(ConfigError::ZeroPsetBudget);
        }
        if c.min_np < 1 {
            return Err(ConfigError::MinNpTooSmall { got: c.min_np });
        }
        if c.widen_thresholds.windows(2).any(|w| w[0] > w[1]) {
            return Err(ConfigError::UnsortedThresholds);
        }
        Ok(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::analyze;
    use crate::result::Verdict;
    use mpl_cfg::CfgNodeId;
    use mpl_lang::corpus;

    #[test]
    fn transpose_requires_pending_sends() {
        // With strictly blocking sends (no §X aggregation) the whole set
        // blocks at the send forever: the framework must give up.
        let prog = corpus::nas_cg_transpose_square(corpus::GridDims::Symbolic);
        let config = AnalysisConfig {
            allow_pending_sends: false,
            ..AnalysisConfig::default()
        };
        let result = analyze(&prog.program, &config);
        assert!(
            matches!(result.verdict, Verdict::Top { .. }),
            "{:?}",
            result.verdict
        );
        // Rendezvous-compatible patterns still work without aggregation.
        let prog = corpus::exchange_with_root();
        let result = analyze(&prog.program, &config);
        assert!(result.is_exact(), "{:?}", result.verdict);
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
