//! Zero-cost analysis observers.
//!
//! The engine is generic over an [`AnalysisObserver`] and invokes its
//! hooks where the Fig 5-style trace has a line (steps, promotions,
//! splits, matches, terminal states), then once with the run's
//! [`EngineProfile`], which holds every count. All hooks have empty
//! default bodies, so the default [`NoopObserver`] monomorphizes to
//! nothing — the observed engine compiles to the same code as a
//! hard-wired loop, and [`crate::analyze_cfg`] is just the engine run
//! with a `NoopObserver`.
//!
//! Three concrete observers cover the existing consumers:
//!
//! * [`TraceObserver`] renders the Fig 5-style human trace that
//!   `mpl analyze --trace` prints;
//! * [`StatsObserver`] turns the phase timers on and keeps the run's
//!   profile;
//! * [`ObserverStack`] composes any number of observers so the CLI and
//!   batch layers can stack `--trace` and `--stats` independently.

use std::fmt;
use std::time::Duration;

use mpl_domains::LinExpr;

use crate::result::MatchEvent;
use crate::scheduler::StoredStats;
use crate::state::AnalysisState;

/// The one record of an engine run's counts, with the per-phase
/// wall-clock breakdown of its worklist loop and the store's footprint.
///
/// The engine owns one profile per run, filled on every run: the
/// scheduler counts steps, frontiers, fingerprints, widenings and stored
/// locations where they happen, and the engine counts the rest. A new
/// count is one field here plus one increment where its event happens.
///
/// The phases partition the worklist loop: `schedule` (popping the next
/// state, which first evicts the stored locations below the queue's
/// watermark, and the budget checks), `transfer` (advancing unblocked
/// process sets), `matching` (blocked steps: send–receive matching,
/// ambiguity splits, pending-send promotion), `join_widen` (successor
/// normalization: closure, empty-set dropping, merging, canonical
/// renumbering, bound saturation) and `admission` (folding the
/// successor's new matches into the result, terminal bookkeeping, and
/// dedup / widening against stored states, including the state clones
/// it takes). [`EngineProfile::phase_sum`] covers the loop, so
/// `phase_sum ≈ total` within a few percent.
///
/// Only the phase timers and the store's byte estimate wait for the
/// observer to opt in via [`AnalysisObserver::timing_enabled`] — the
/// timer calls cost a few percent, and the estimate walks every stored
/// state, so the default engine loop skips them entirely.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct EngineProfile {
    /// Time in [`Scheduler::tick`](crate::scheduler::Scheduler::tick):
    /// popping the next state, evicting the stored locations below the
    /// watermark, and the step-budget and deadline checks.
    pub schedule: Duration,
    /// Time advancing unblocked process sets (CFG transfer functions).
    pub transfer: Duration,
    /// Time in blocked steps: matching, ambiguity splits, promotions.
    pub matching: Duration,
    /// Time normalizing successor states (close / merge / renumber /
    /// saturate).
    pub join_widen: Duration,
    /// Time admitting successors (match accumulation + clone + dedup +
    /// widening).
    pub admission: Duration,
    /// Wall-clock time of the whole engine run.
    pub total: Duration,
    /// The scheduler's per-location state store: locations stored over
    /// the run, the most held at once, and the bytes held at the end
    /// (zero unless the observer enabled timing).
    pub stored: StoredStats,
    /// States the scheduler handed out to be stepped (a state a budget
    /// refused is not one): the result's `steps`.
    pub steps: u64,
    /// Frontiers the FIFO worklist went through. A frontier is what the
    /// queue held when the previous one was used up, so `rounds` is the
    /// depth of the breadth-first exploration.
    pub rounds: u64,
    /// Sum of frontier widths (so the mean width is
    /// `frontier_total / rounds`).
    pub frontier_total: u64,
    /// Widest frontier: the most states that were ever ready to be
    /// stepped independently of one another.
    pub frontier_peak: usize,
    /// State fingerprints admission computed: two on a location's first
    /// revisit (the offered and the stored state), one on each later
    /// one, plus one per widened state, and none for a state that opens
    /// a location.
    pub fingerprints: u64,
    /// Widenings that moved a recurring location's stored state.
    pub widenings: u64,
    /// Pending-send promotions (§X depth-1 aggregation).
    pub promotions: u64,
    /// Match-ambiguity forks (§VI splits).
    pub splits: u64,
    /// Successors whose join merged process sets (one per successor,
    /// however many sets it merged).
    pub merges: u64,
    /// Send–receive pairs probed by the client's matcher.
    pub probes: u64,
    /// Probes that proved a match: each was applied or, when releasing
    /// the matched subsets failed, rejected (see
    /// [`EngineProfile::rejected`]).
    pub probes_matched: u64,
    /// Proved matches the engine applied.
    pub matches: u64,
    /// ⊤ causes recorded; the result reports the last.
    pub tops: u64,
    /// States that reached the pCFG exit with every set at `Exit`.
    pub terminals: u64,
    /// Successor states normalized (closed, merged, projected, renamed).
    pub normalized: u64,
    /// Process ranges rendered to text for the run's match events and
    /// print facts: one per distinct range structure, however many
    /// events and facts name it.
    pub ranges_rendered: u64,
}

impl EngineProfile {
    /// The sum of the phase timers covering the worklist loop.
    #[must_use]
    pub fn phase_sum(&self) -> Duration {
        self.schedule + self.transfer + self.matching + self.join_widen + self.admission
    }

    /// Proved matches that could not be applied: every proved probe is
    /// applied or rejected, so this is `probes_matched - matches`.
    #[must_use]
    pub fn rejected(&self) -> u64 {
        self.probes_matched - self.matches
    }

    /// The counts alone: the profile with its phase timers and the
    /// store's byte estimate zeroed. Two runs of one program report the
    /// same.
    #[must_use]
    pub fn counts(&self) -> EngineProfile {
        let (mut counts, zero) = (*self, Duration::ZERO);
        (counts.schedule, counts.transfer, counts.matching) = (zero, zero, zero);
        (counts.join_widen, counts.admission, counts.total) = (zero, zero, zero);
        counts.stored.approx_bytes = 0;
        counts
    }

    /// The event counts on one line, as the `engine events:` line of
    /// `mpl analyze --stats` prints them.
    pub fn events(&self) -> impl fmt::Display + '_ {
        fmt::from_fn(move |f| {
            write!(
                f,
                "{} steps, {} matches ({} rejected), {} splits, {} merges, \
                 {} widenings, {} promotions, {} terminals, {} tops",
                self.steps,
                self.matches,
                self.rejected(),
                self.splits,
                self.merges,
                self.widenings,
                self.promotions,
                self.terminals,
                self.tops,
            )
        })
    }
}

impl fmt::Display for EngineProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "schedule {:?}, transfer {:?}, match {:?}, join/widen {:?}, \
             admission {:?} (sum {:?} of {:?} total); {} rounds, frontier peak \
             {} mean {:.1}",
            self.schedule,
            self.transfer,
            self.matching,
            self.join_widen,
            self.admission,
            self.phase_sum(),
            self.total,
            self.rounds,
            self.frontier_peak,
            if self.rounds == 0 {
                0.0
            } else {
                self.frontier_total as f64 / self.rounds as f64
            },
        )
    }
}

/// Hooks invoked by the engine's worklist loop: the trace seam.
///
/// Every method has an empty default body: implement only what you need.
/// Hook arguments are passed by reference and are cheap to ignore — the
/// engine never formats or clones anything on an observer's behalf, so a
/// no-op implementation costs nothing.
pub trait AnalysisObserver {
    /// The scheduler handed out a state to step (`step` is 1-based).
    fn on_step(&mut self, step: u64, st: &AnalysisState) {
        let _ = (step, st);
    }

    /// A blocked send was buffered (§X depth-1 aggregation) on pset
    /// `pset_idx`, observed before the buffering is applied to `st`.
    fn on_promote(&mut self, pset_idx: usize, st: &AnalysisState) {
        let _ = (pset_idx, st);
    }

    /// The state forked on the undecidable comparison `a <=> b` (the §VI
    /// match-ambiguity split).
    fn on_split(&mut self, a: &LinExpr, b: &LinExpr) {
        let _ = (a, b);
    }

    /// A send–receive match was established.
    fn on_match(&mut self, event: &MatchEvent) {
        let _ = event;
    }

    /// A matcher-proposed match could not be applied (releasing the
    /// subsets failed); the engine keeps looking.
    fn on_match_rejected(&mut self) {}

    /// A state reached the pCFG exit with every set at `Exit`.
    fn on_terminal(&mut self, st: &AnalysisState) {
        let _ = st;
    }

    /// Whether the engine should collect per-phase wall-clock timings for
    /// this observer. Queried once at the start of a run; defaults to
    /// `false` so unobserved runs pay no timer calls.
    fn timing_enabled(&self) -> bool {
        false
    }

    /// The run's [`EngineProfile`], fired once when the run ends. The
    /// phase timers and the store's byte estimate are zero unless
    /// [`AnalysisObserver::timing_enabled`] returned `true`; `total` and
    /// the counts are always filled.
    fn on_profile(&mut self, profile: &EngineProfile) {
        let _ = profile;
    }
}

/// The default observer: every hook is a no-op. Monomorphized engine
/// code using it is identical to an unobserved loop.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopObserver;

impl AnalysisObserver for NoopObserver {}

/// Renders the Fig 5-style trace: one line per worklist step, plus one
/// per promotion, split, match and terminal state, in the order the
/// engine reaches them. `mpl analyze --trace` prints these lines.
#[derive(Debug, Clone, Default)]
pub struct TraceObserver {
    lines: Vec<String>,
}

impl TraceObserver {
    /// An empty trace.
    #[must_use]
    pub fn new() -> TraceObserver {
        TraceObserver::default()
    }

    /// The trace lines collected so far.
    #[must_use]
    pub fn lines(&self) -> &[String] {
        &self.lines
    }

    /// Consumes the observer, returning the collected lines.
    #[must_use]
    pub fn into_lines(self) -> Vec<String> {
        self.lines
    }
}

impl AnalysisObserver for TraceObserver {
    fn on_step(&mut self, step: u64, st: &AnalysisState) {
        self.lines.push(format!("step {step}: {st}"));
    }

    fn on_promote(&mut self, pset_idx: usize, st: &AnalysisState) {
        self.lines
            .push(format!("promote pending send on pset {pset_idx}: {st}"));
    }

    fn on_split(&mut self, a: &LinExpr, b: &LinExpr) {
        self.lines.push(format!("split on {a} <= {b} vs {b} < {a}"));
    }

    fn on_match(&mut self, event: &MatchEvent) {
        self.lines.push(format!("match: {event}"));
    }

    fn on_match_rejected(&mut self) {
        self.lines.push("  (match could not be applied)".to_owned());
    }

    fn on_terminal(&mut self, st: &AnalysisState) {
        self.lines.push(format!("terminal: {st}"));
    }
}

/// Turns the phase timers on and keeps the run's [`EngineProfile`] (the
/// closure statistics are the result's own,
/// [`AnalysisResult::closure_stats`](crate::result::AnalysisResult::closure_stats)).
#[derive(Debug, Clone, Default)]
pub struct StatsObserver {
    profile: Option<EngineProfile>,
}

impl StatsObserver {
    /// A collector that has seen no run yet.
    #[must_use]
    pub fn new() -> StatsObserver {
        StatsObserver::default()
    }

    /// The run's profile, available once the engine has completed (from
    /// [`AnalysisObserver::on_profile`]).
    #[must_use]
    pub fn profile(&self) -> Option<&EngineProfile> {
        self.profile.as_ref()
    }
}

impl AnalysisObserver for StatsObserver {
    fn timing_enabled(&self) -> bool {
        true
    }

    fn on_profile(&mut self, profile: &EngineProfile) {
        self.profile = Some(*profile);
    }
}

/// Composes observers: every hook fans out to each layer in push order.
///
/// ```
/// use mpl_core::observer::{ObserverStack, StatsObserver, TraceObserver};
/// let mut tracer = TraceObserver::new();
/// let mut stats = StatsObserver::new();
/// let mut stack = ObserverStack::new();
/// stack.push(&mut tracer);
/// stack.push(&mut stats);
/// // pass `&mut stack` to `analyze_cfg_with`...
/// ```
#[derive(Default)]
pub struct ObserverStack<'a> {
    layers: Vec<&'a mut dyn AnalysisObserver>,
}

impl<'a> ObserverStack<'a> {
    /// An empty stack (equivalent to [`NoopObserver`], minus the
    /// per-hook virtual dispatch).
    #[must_use]
    pub fn new() -> ObserverStack<'a> {
        ObserverStack { layers: Vec::new() }
    }

    /// Adds an observer layer; hooks fire in push order.
    pub fn push(&mut self, observer: &'a mut dyn AnalysisObserver) {
        self.layers.push(observer);
    }

    /// True if no layers are stacked.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }
}

impl AnalysisObserver for ObserverStack<'_> {
    fn on_step(&mut self, step: u64, st: &AnalysisState) {
        for layer in &mut self.layers {
            layer.on_step(step, st);
        }
    }

    fn on_promote(&mut self, pset_idx: usize, st: &AnalysisState) {
        for layer in &mut self.layers {
            layer.on_promote(pset_idx, st);
        }
    }

    fn on_split(&mut self, a: &LinExpr, b: &LinExpr) {
        for layer in &mut self.layers {
            layer.on_split(a, b);
        }
    }

    fn on_match(&mut self, event: &MatchEvent) {
        for layer in &mut self.layers {
            layer.on_match(event);
        }
    }

    fn on_match_rejected(&mut self) {
        for layer in &mut self.layers {
            layer.on_match_rejected();
        }
    }

    fn on_terminal(&mut self, st: &AnalysisState) {
        for layer in &mut self.layers {
            layer.on_terminal(st);
        }
    }

    fn timing_enabled(&self) -> bool {
        self.layers.iter().any(|layer| layer.timing_enabled())
    }

    fn on_profile(&mut self, profile: &EngineProfile) {
        for layer in &mut self.layers {
            layer.on_profile(profile);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AnalysisConfig;
    use crate::engine::{analyze, analyze_cfg_with};
    use mpl_cfg::Cfg;
    use mpl_lang::corpus;

    #[test]
    fn trace_observer_reproduces_legacy_trace() {
        // Pins the format `mpl analyze --trace` prints: one `step N:`
        // line per step, in step order, and one `match:` line per match.
        let prog = corpus::fig2_exchange();
        let config = AnalysisConfig::default();
        let plain = analyze(&prog.program, &config);
        let mut tracer = TraceObserver::new();
        let observed = analyze_cfg_with(&Cfg::build(&prog.program), &config, &mut tracer);
        assert_eq!(plain.verdict, observed.verdict);
        assert_eq!(plain.steps, observed.steps);
        let steps: Vec<&String> = tracer
            .lines()
            .iter()
            .filter(|l| l.starts_with("step "))
            .collect();
        assert_eq!(steps.len() as u64, observed.steps);
        for (i, line) in steps.iter().enumerate() {
            assert!(line.starts_with(&format!("step {}: ", i + 1)), "{line}");
        }
        let matches = tracer.lines().iter().filter(|l| l.starts_with("match: "));
        assert_eq!(matches.count(), observed.events.len());
    }

    #[test]
    fn stats_observer_counts_steps_and_matches() {
        let prog = corpus::fig2_exchange();
        let mut stats = StatsObserver::new();
        assert!(stats.profile().is_none());
        let result = analyze_cfg_with(
            &Cfg::build(&prog.program),
            &AnalysisConfig::default(),
            &mut stats,
        );
        let profile = stats.profile().expect("on_profile fired");
        assert_eq!(profile.steps, result.steps);
        assert_eq!(profile.matches as usize, result.events.len());
        assert_eq!(profile.rejected(), 0);
        // Timing was on: the phases are timed and the store is measured.
        assert!(profile.phase_sum() > Duration::ZERO);
        assert!(profile.stored.approx_bytes > 0);
        // The events line is a single line.
        let events = profile.events().to_string();
        assert!(events.starts_with(&format!("{} steps, ", result.steps)));
        assert!(!events.contains('\n'));
    }

    #[test]
    fn counts_are_filled_without_timing() {
        // A timing-off observer still gets every count; only the timers
        // and the store's byte estimate stay zero.
        #[derive(Default)]
        struct Untimed(Option<EngineProfile>);
        impl AnalysisObserver for Untimed {
            fn on_profile(&mut self, profile: &EngineProfile) {
                self.0 = Some(*profile);
            }
        }
        let cfg = Cfg::build(&corpus::exchange_with_root().program);
        let config = AnalysisConfig::default();
        let (mut untimed, mut timed) = (Untimed::default(), StatsObserver::new());
        let result = analyze_cfg_with(&cfg, &config, &mut untimed);
        let _ = analyze_cfg_with(&cfg, &config, &mut timed);
        let untimed = untimed.0.expect("on_profile fired");
        assert_eq!(untimed.steps, result.steps);
        assert_eq!(untimed.phase_sum(), Duration::ZERO);
        assert_eq!(untimed.stored.approx_bytes, 0);
        assert!(
            untimed.total > Duration::ZERO,
            "the run's total is always timed"
        );
        let timed = timed.profile().expect("on_profile fired");
        assert_eq!(untimed.counts(), timed.counts());
    }

    #[test]
    fn observer_stack_fans_out_to_all_layers() {
        let prog = corpus::exchange_with_root();
        let mut tracer = TraceObserver::new();
        let mut stats = StatsObserver::new();
        let result = {
            let mut stack = ObserverStack::new();
            assert!(stack.is_empty());
            stack.push(&mut tracer);
            stack.push(&mut stats);
            assert!(!stack.is_empty());
            analyze_cfg_with(
                &Cfg::build(&prog.program),
                &AnalysisConfig::default(),
                &mut stack,
            )
        };
        assert!(result.is_exact());
        assert_eq!(stats.profile().map(|p| p.steps), Some(result.steps));
        assert!(tracer.lines().len() as u64 >= result.steps);
    }
}
