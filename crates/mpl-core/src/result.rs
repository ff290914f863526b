//! Analysis outcomes: verdicts, ⊤ causes, match events, print facts.
//!
//! These are the data the engine reports and the only types most
//! consumers need; they are independent of the worklist loop so that
//! observers ([`crate::observer`]), the batch runtime and the CLI can
//! share them without pulling in engine internals.

use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::fmt::{self, Write as _};
use std::sync::Arc;

use mpl_cfg::CfgNodeId;

/// Why the analysis returned ⊤, as a typed cause. `Display` renders the
/// exact human-readable strings the engine has always reported, so logs
/// and golden files are unchanged while callers (the `--json` corpus
/// output, tests) can match on the cause structurally instead of by
/// substring.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TopReason {
    /// The engine step budget ([`crate::config::AnalysisConfig::max_steps`])
    /// ran out.
    StepBudget,
    /// More process sets coexisted than
    /// [`crate::config::AnalysisConfig::max_psets`].
    PsetBudget {
        /// The configured bound that was exceeded.
        max: usize,
    },
    /// Widening relaxed a process-set bound all the way to ±∞ — the
    /// range abstraction lost the set.
    AbstractionLoss,
    /// All sets blocked on communication and no exact send–receive
    /// match exists (matching must be exact — §VI).
    MatchFailure {
        /// Display form of the blocked state.
        state: String,
    },
    /// An `id`-dependent branch condition did not split the process
    /// range into provable sub-ranges.
    SplitFailure {
        /// The condition that could not be split.
        cond: String,
    },
    /// A branch condition was not provably uniform across the set, so
    /// steering the whole set down one edge would be unsound.
    NonUniformCondition {
        /// The offending condition.
        cond: String,
    },
    /// The match-ambiguity case split recursed past its depth bound.
    SplitDepthExceeded,
    /// The run's cooperative deadline
    /// ([`crate::config::AnalysisConfig::cancel`]) fired before a
    /// fixpoint was reached. Sound by construction: the engine stops
    /// with ⊤ and claims nothing about unexplored behaviour.
    Deadline,
}

impl TopReason {
    /// A stable, machine-readable cause code (used by the corpus JSON
    /// output; kebab-case, never localized).
    #[must_use]
    pub fn code(&self) -> &'static str {
        match self {
            TopReason::StepBudget => "step-budget",
            TopReason::PsetBudget { .. } => "pset-budget",
            TopReason::AbstractionLoss => "abstraction-loss",
            TopReason::MatchFailure { .. } => "match-failure",
            TopReason::SplitFailure { .. } => "split-failure",
            TopReason::NonUniformCondition { .. } => "non-uniform-condition",
            TopReason::SplitDepthExceeded => "split-depth-exceeded",
            TopReason::Deadline => "deadline",
        }
    }
}

impl fmt::Display for TopReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopReason::StepBudget => f.write_str("step budget exceeded"),
            TopReason::PsetBudget { max } => write!(f, "more than {max} process sets"),
            TopReason::AbstractionLoss => f.write_str("widening lost a process-set bound"),
            TopReason::MatchFailure { state } => {
                write!(f, "cannot match blocked communication in {state}")
            }
            TopReason::SplitFailure { cond } => {
                write!(f, "cannot split process set on condition `{cond}`")
            }
            TopReason::NonUniformCondition { cond } => write!(
                f,
                "condition `{cond}` is not provably uniform across the process set"
            ),
            TopReason::SplitDepthExceeded => f.write_str("ambiguity-split depth exceeded"),
            TopReason::Deadline => f.write_str("analysis deadline exceeded"),
        }
    }
}

/// How the analysis ended.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Verdict {
    /// Fixpoint reached with every send–receive interaction matched
    /// exactly: the reported topology is the application's communication
    /// topology.
    Exact,
    /// The analysis proved that blocked receives can never be satisfied —
    /// a guaranteed deadlock (§I error detection).
    Deadlock {
        /// The blocked (CFG node, process range) pairs.
        blocked: Vec<(CfgNodeId, String)>,
    },
    /// The analysis gave up (⊤): the pattern exceeds the client
    /// abstraction or the framework's exact-matching requirement.
    Top {
        /// Why, as a typed cause.
        reason: TopReason,
    },
}

impl Verdict {
    /// A stable, machine-readable verdict code (kebab-case, mirroring
    /// [`TopReason::code`]; used by every JSON record the workspace
    /// emits — the corpus NDJSON and the `mpl serve` wire protocol).
    #[must_use]
    pub fn code(&self) -> &'static str {
        match self {
            Verdict::Exact => "exact",
            Verdict::Deadlock { .. } => "deadlock",
            Verdict::Top { .. } => "top",
        }
    }
}

/// One recorded send–receive match with its process subsets.
///
/// The range texts are shared: every event and print fact of one run
/// that names the same range holds the same string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatchEvent {
    /// The send statement.
    pub send_node: CfgNodeId,
    /// The receive statement.
    pub recv_node: CfgNodeId,
    /// Matched sender ranks (display form).
    pub s_procs: Arc<str>,
    /// Matched receiver ranks (display form).
    pub r_procs: Arc<str>,
    /// The shape of the match.
    pub kind: crate::matcher::MatchKind,
    /// The sender rank, when the matched senders are one known constant.
    pub s_const: Option<i64>,
    /// The receiver rank, when the matched receivers are one known
    /// constant.
    pub r_const: Option<i64>,
}

impl MatchEvent {
    /// Compares the bytes of two events' [`Display`](fmt::Display)
    /// forms, `n{send}@{s_procs} -> n{recv}@{r_procs}`, without
    /// rendering either. The first field that differs decides: no node
    /// part `n{k}@` continues another (`@` is no digit), and no range
    /// text continues another (its only `]` closes it).
    pub(crate) fn cmp_display(&self, other: &MatchEvent) -> Ordering {
        cmp_node_text(self.send_node, other.send_node)
            .then_with(|| self.s_procs.cmp(&other.s_procs))
            .then_with(|| cmp_node_text(self.recv_node, other.recv_node))
            .then_with(|| self.r_procs.cmp(&other.r_procs))
    }
}

/// Compares `{a}@` with `{b}@` as bytes, in integer arithmetic: numbers
/// of one length as numbers; otherwise the shorter against as many
/// leading digits of the longer, and on a tie the shorter after the
/// longer (`@` follows the digits).
fn cmp_node_text(a: CfgNodeId, b: CfgNodeId) -> Ordering {
    let digits = |n: u32| n.checked_ilog10().unwrap_or(0);
    let (la, lb) = (digits(a.0), digits(b.0));
    let (a, b) = match la.cmp(&lb) {
        Ordering::Equal => return a.cmp(&b),
        Ordering::Less => (a.0, b.0 / 10u32.pow(lb - la)),
        Ordering::Greater => (a.0 / 10u32.pow(la - lb), b.0),
    };
    a.cmp(&b).then(lb.cmp(&la))
}

impl fmt::Display for MatchEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}@{} -> {}@{}",
            self.send_node, self.s_procs, self.recv_node, self.r_procs
        )
    }
}

/// A constant-propagation fact at a `print` statement (the Fig 2 client's
/// observable output).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrintFact {
    /// The print statement.
    pub node: CfgNodeId,
    /// The process range executing it (display form, shared like a
    /// [`MatchEvent`]'s).
    pub range: Arc<str>,
    /// The printed value, if proven constant.
    pub value: Option<i64>,
}

/// The result of a pCFG analysis.
///
/// Equality compares everything, including `closure_stats` (which holds
/// wall-clock nanos) — normalize that field first when comparing results
/// of separate runs for semantic equivalence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalysisResult {
    /// Terminal verdict.
    pub verdict: Verdict,
    /// All established (send node, recv node) matches — the static
    /// communication topology at statement granularity, directly
    /// comparable with `mpl_sim::RuntimeTopology::site_pairs`. An exact
    /// verdict covers a run when its pairs are a subset of these.
    pub matches: BTreeSet<(CfgNodeId, CfgNodeId)>,
    /// Matches with their process subsets.
    pub events: Vec<MatchEvent>,
    /// Constant-propagation facts at prints.
    pub prints: Vec<PrintFact>,
    /// Send statements whose messages are provably never received
    /// (message leaks, §I error detection).
    pub leaks: Vec<CfgNodeId>,
    /// Engine steps taken.
    pub steps: u64,
    /// Closure operations performed during this run (full and incremental
    /// counts with average variable sizes — the §IX profile quantities).
    pub closure_stats: mpl_domains::ClosureStats,
}

impl AnalysisResult {
    /// A bare ⊤ result that claims nothing: no matches, no leaks, no
    /// prints, zero steps. This is the sound degenerate answer the batch
    /// layer reports for jobs that never produced (or whose fault mode
    /// suppressed) a real engine run — deadline expiries in particular,
    /// where any partial progress would be wall-clock-dependent and
    /// therefore nondeterministic.
    #[must_use]
    pub fn top(reason: TopReason) -> AnalysisResult {
        AnalysisResult {
            verdict: Verdict::Top { reason },
            matches: BTreeSet::new(),
            events: Vec::new(),
            prints: Vec::new(),
            leaks: Vec::new(),
            steps: 0,
            closure_stats: mpl_domains::ClosureStats::default(),
        }
    }

    /// True if the analysis converged with exact matching.
    #[must_use]
    pub fn is_exact(&self) -> bool {
        self.verdict == Verdict::Exact
    }

    /// The static topology as `mpl analyze` prints it: whether it is
    /// exact (only then a sound and complete statement-level topology),
    /// then one line per match event with its symbolic process subsets.
    #[must_use]
    pub fn render_topology(&self) -> String {
        let exact = if self.is_exact() {
            "exact"
        } else {
            "approximate"
        };
        let mut out = format!("static topology ({exact}):\n");
        for e in &self.events {
            let _ = writeln!(out, "  {e}");
        }
        out
    }

    /// The constant printed at `node`, if every reaching process set
    /// prints the same proven constant.
    #[must_use]
    pub fn printed_constant(&self, node: CfgNodeId) -> Option<i64> {
        let mut vals = self
            .prints
            .iter()
            .filter(|p| p.node == node)
            .map(|p| p.value);
        let first = vals.next()??;
        for v in vals {
            if v != Some(first) {
                return None;
            }
        }
        Some(first)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// Every `TopReason` variant, with representative payloads. Extend
    /// this list when adding a variant — the tests below catch code
    /// collisions and Display drift for whatever is listed here.
    fn all_reasons() -> Vec<TopReason> {
        vec![
            TopReason::StepBudget,
            TopReason::PsetBudget { max: 12 },
            TopReason::AbstractionLoss,
            TopReason::MatchFailure {
                state: "{0:[0..np-1]@n3}".to_owned(),
            },
            TopReason::SplitFailure {
                cond: "id < k".to_owned(),
            },
            TopReason::NonUniformCondition {
                cond: "parity = 0".to_owned(),
            },
            TopReason::SplitDepthExceeded,
            TopReason::Deadline,
        ]
    }

    #[test]
    fn render_topology_lists_each_event() {
        let prog = mpl_lang::corpus::fig2_exchange();
        let result = crate::engine::analyze(&prog.program, &crate::AnalysisConfig::default());
        assert!(result.is_exact());
        assert_eq!((result.matches.len(), result.events.len()), (2, 2));
        let text = result.render_topology();
        assert!(text.starts_with("static topology (exact):\n"), "{text}");
        assert_eq!(text.lines().count(), 3, "{text}");
    }

    #[test]
    fn events_compare_as_their_display_text() {
        let event = |send: u32, s: &str, recv: u32, r: &str| MatchEvent {
            send_node: CfgNodeId(send),
            recv_node: CfgNodeId(recv),
            s_procs: s.into(),
            r_procs: r.into(),
            kind: crate::matcher::MatchKind::UniformPair,
            s_const: None,
            r_const: None,
        };
        // `n1@` sorts after `n12@` and `n3@` after `n30@`: '@' follows
        // the digits.
        let events = [
            event(1, "[0..0]", 3, "[1..1]"),
            event(12, "[0..0]", 3, "[1..1]"),
            event(1, "[0..0]", 30, "[1..1]"),
            event(1, "[0..0]", 3, "[1..np-1]"),
            event(1, "[0..np-1]", 3, "[1..1]"),
            event(0, "[{0,P1.i}..0]", 4_294_967_295, "[1..1]"),
            event(7, "[0..0]", 0, "[1..1]"),
        ];
        for a in &events {
            for b in &events {
                assert_eq!(
                    a.cmp_display(b),
                    a.to_string().cmp(&b.to_string()),
                    "{a} vs {b}"
                );
            }
        }
        let nodes: Vec<u32> = (0..=1100)
            .chain([9_999, 10_000, 99_999, 1_000_000_000, u32::MAX])
            .collect();
        for &a in &nodes {
            for &b in &nodes {
                assert_eq!(
                    cmp_node_text(CfgNodeId(a), CfgNodeId(b)),
                    format!("{a}@").cmp(&format!("{b}@")),
                    "{a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn top_reason_codes_are_unique_and_kebab_case() {
        let mut seen: BTreeMap<&'static str, TopReason> = BTreeMap::new();
        for reason in all_reasons() {
            let code = reason.code();
            assert!(
                code.chars().all(|c| c.is_ascii_lowercase() || c == '-'),
                "code `{code}` is not kebab-case"
            );
            assert!(!code.starts_with('-') && !code.ends_with('-'), "{code}");
            if let Some(prev) = seen.insert(code, reason.clone()) {
                panic!("code `{code}` collides: {prev:?} vs {reason:?}");
            }
        }
        assert_eq!(seen.len(), 8, "keep all_reasons() exhaustive");
    }

    #[test]
    fn top_reason_display_round_trips_through_code() {
        // Display strings must be stable, distinct per variant, and
        // consistent with code(): two reasons with different codes must
        // never render the same message (machine and human outputs stay
        // in one-to-one correspondence).
        let mut by_display: BTreeMap<String, &'static str> = BTreeMap::new();
        for reason in all_reasons() {
            let rendered = reason.to_string();
            assert!(!rendered.is_empty());
            if let Some(prev_code) = by_display.insert(rendered.clone(), reason.code()) {
                panic!(
                    "display `{rendered}` is shared by codes `{prev_code}` and `{}`",
                    reason.code()
                );
            }
        }
        // Spot-check the exact legacy strings golden files rely on.
        assert_eq!(TopReason::StepBudget.to_string(), "step budget exceeded");
        assert_eq!(
            TopReason::PsetBudget { max: 7 }.to_string(),
            "more than 7 process sets"
        );
        assert_eq!(
            TopReason::Deadline.to_string(),
            "analysis deadline exceeded"
        );
    }
}
