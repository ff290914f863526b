//! The worklist scheduler: exploration order, budgets, cancellation,
//! widening-delay bookkeeping and the bounded location store, extracted
//! from the engine loop.
//!
//! States are keyed by their pCFG location (the `location_key`: the
//! ordered (CFG node, pending?) pairs of their process sets) and explored
//! FIFO — the deterministic order the golden corpus pins byte-for-byte.
//! The scheduler owns the three fixpoint policies of §VI:
//!
//! * **budgets** — the step budget and (via [`Scheduler::tick`]'s polling)
//!   the cooperative deadline;
//! * **delayed widening** — a recurring location is explored exactly for
//!   the first `widen_delay` visits, then widened with thresholds until
//!   it converges;
//! * **admission** — a successor state is queued only if it brings new
//!   information at its location (fingerprint dedup / widening
//!   progress). A state that opens a location is stored unhashed: most
//!   locations are reached once, so states are fingerprinted only when
//!   a second state reaches their location.
//!
//! The store keeps a location's state only while a queued state can
//! still reach it (DESIGN §3.17). A location's rank is the lowest
//! [`SccRanks`] rank of its process sets' nodes. Every step moves sets
//! along CFG edges, so no successor ranks below the state it came from,
//! and the lowest rank over the queue, the *watermark*, never falls.
//! Before each pop, every stored location ranked below the watermark is
//! evicted: no state can be admitted there again.

use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};

use mpl_cfg::{Cfg, SccRanks};
use mpl_runtime::CancelToken;

use crate::client::ClientDomain;
use crate::config::AnalysisConfig;
use crate::observer::EngineProfile;
use crate::result::TopReason;
use crate::state::AnalysisState;

/// How many worklist steps may pass between two polls of the
/// cancellation token — the bound behind the "engine observes
/// cancellation within a bounded number of steps" guarantee.
pub const CANCEL_CHECK_STEPS: u64 = 8;

/// Best-known state at one location, with its state fingerprint and the
/// location's visit count.
struct Slot {
    state: AnalysisState,
    /// `state`'s fingerprint, computed when a second state first reaches
    /// the location.
    fp: Option<u64>,
    visits: u32,
    /// Debug-only collision guard: the full location key.
    #[cfg(debug_assertions)]
    key: Vec<(mpl_cfg::CfgNodeId, bool)>,
}

/// The scheduler's location store over one run, for `--stats` memory
/// reporting ([`EngineProfile::stored`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct StoredStats {
    /// Number of distinct pCFG locations stored over the run.
    pub locations: usize,
    /// Most locations stored at once: the store's high-water mark.
    pub peak_live: usize,
    /// Estimated heap bytes of the states still stored when the run
    /// ended, counting each CoW-shared component allocation once. Zero
    /// unless the observer enabled timing: the estimate walks every
    /// stored state.
    pub approx_bytes: usize,
}

/// Hashes a store key as itself: the keys are location fingerprints,
/// hashes already.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 << 8) | u64::from(b);
        }
    }

    fn write_u64(&mut self, key: u64) {
        self.0 = key;
    }
}

/// The engine's worklist with its budget, widening and store
/// bookkeeping. Its counts go into the run's [`EngineProfile`], which
/// the engine passes in.
pub struct Scheduler {
    work: VecDeque<AnalysisState>,
    /// Location fingerprint → best-known state at that location.
    stored: HashMap<u64, Slot, BuildHasherDefault<KeyHasher>>,
    ranks: SccRanks,
    /// Queued states per location rank.
    queued: Vec<u32>,
    /// Stored location fingerprints per location rank.
    buckets: Vec<Vec<u64>>,
    /// The lowest rank any queued state can have: no state below it is
    /// ever queued again, and no location below it is stored.
    watermark: u32,
    max_steps: u64,
    widen_delay: u32,
    cancel: Option<CancelToken>,
    /// States of the current frontier not yet popped. A frontier is what
    /// the queue held when the previous one was used up: one generation
    /// of the FIFO exploration.
    frontier_left: usize,
}

impl Scheduler {
    /// A scheduler for `cfg`, configured from the engine knobs (step
    /// budget, widening delay, cancellation token).
    #[must_use]
    pub fn new(config: &AnalysisConfig, cfg: &Cfg) -> Scheduler {
        let ranks = SccRanks::compute(cfg);
        Scheduler {
            work: VecDeque::new(),
            stored: HashMap::default(),
            queued: vec![0; ranks.count()],
            buckets: vec![Vec::new(); ranks.count()],
            ranks,
            watermark: 0,
            max_steps: config.max_steps,
            widen_delay: config.widen_delay,
            cancel: config.cancel.clone(),
            frontier_left: 0,
        }
    }

    /// The location's rank: the lowest rank of its process sets' nodes.
    fn rank_of(&self, s: &AnalysisState) -> u32 {
        s.psets
            .iter()
            .map(|p| self.ranks.rank(p.node))
            .min()
            .expect("a queued state has a process set")
    }

    /// Queues `s`, which must not rank below the watermark.
    fn push(&mut self, s: AnalysisState) {
        let rank = self.rank_of(&s);
        debug_assert!(
            rank >= self.watermark,
            "state at rank {rank} queued below the watermark {}",
            self.watermark
        );
        self.queued[rank as usize] += 1;
        self.work.push_back(s);
    }

    /// Stores a state at a location not seen before, unhashed.
    fn insert_slot(&mut self, loc: u64, s: &AnalysisState, profile: &mut EngineProfile) {
        self.stored.insert(
            loc,
            Slot {
                state: s.clone(),
                fp: None,
                visits: 1,
                #[cfg(debug_assertions)]
                key: s.location_key(),
            },
        );
        let rank = self.rank_of(s);
        self.buckets[rank as usize].push(loc);
        profile.stored.locations += 1;
        profile.stored.peak_live = profile.stored.peak_live.max(self.stored.len());
    }

    /// Raises the watermark to the lowest rank still queued, evicting
    /// every location it passes. Some state must still count as queued.
    fn evict_below_watermark(&mut self) {
        while self.queued[self.watermark as usize] == 0 {
            for loc in std::mem::take(&mut self.buckets[self.watermark as usize]) {
                self.stored.remove(&loc);
            }
            self.watermark += 1;
        }
    }

    /// Estimated heap bytes of the stored states, each CoW-shared
    /// allocation counted once ([`StoredStats::approx_bytes`]).
    #[must_use]
    pub fn stored_bytes(&self) -> usize {
        let mut seen = std::collections::HashSet::new();
        self.stored
            .values()
            .map(|slot| slot.state.approx_bytes(&mut seen))
            .sum()
    }

    /// Seeds the worklist with the initial state (counted as the first
    /// visit of its location).
    pub fn seed(&mut self, init: AnalysisState, profile: &mut EngineProfile) {
        self.insert_slot(init.location_fingerprint(), &init, profile);
        self.push(init);
    }

    /// Pops the next state to explore, in FIFO order, first evicting
    /// every stored location below the queue's lowest rank.
    ///
    /// Returns `None` when the worklist is exhausted (fixpoint), and
    /// `Some(Err(reason))` when a budget ran out: the step budget, or —
    /// polled every [`CANCEL_CHECK_STEPS`] steps, before the 1st, 9th,
    /// 17th… state, so a pre-cancelled token is observed before any real
    /// work — the cooperative deadline. A refused state is not a step:
    /// `profile.steps` counts the states handed out.
    pub fn tick(
        &mut self,
        profile: &mut EngineProfile,
    ) -> Option<Result<AnalysisState, TopReason>> {
        let st = self.work.pop_front()?;
        // `st` still counts as queued, so the watermark cannot pass it.
        self.evict_below_watermark();
        let rank = self.rank_of(&st);
        self.queued[rank as usize] -= 1;
        if self.frontier_left == 0 {
            // A new frontier: its width is the number of states that
            // could be stepped independently, so it bounds what any
            // intra-analysis parallelism could use.
            let width = self.work.len() + 1;
            self.frontier_left = width;
            profile.rounds += 1;
            profile.frontier_total += width as u64;
            profile.frontier_peak = profile.frontier_peak.max(width);
        }
        self.frontier_left -= 1;
        // A step is a state handed out: a refused pop is not one.
        let step = profile.steps + 1;
        if step > self.max_steps {
            return Some(Err(TopReason::StepBudget));
        }
        if step % CANCEL_CHECK_STEPS == 1 {
            if let Some(token) = &self.cancel {
                if token.is_cancelled() {
                    return Some(Err(TopReason::Deadline));
                }
            }
        }
        profile.steps = step;
        Some(Ok(st))
    }

    /// Offers a successor state for exploration.
    ///
    /// The first `widen_delay` visits of a location are explored exactly
    /// (dropped only if identical to the stored state); later visits are
    /// widened against the stored state via the client's
    /// [`ClientDomain::widen`] until convergence. Returns
    /// `Some(TopReason::AbstractionLoss)` when widening relaxed a
    /// process-set bound to ±∞.
    ///
    /// Dedup is O(1): the offered state's fingerprint is compared
    /// against the fingerprint stored with the location's state, and
    /// equal fingerprints stand for structurally equal states (debug
    /// builds check [`AnalysisState::structurally_eq`]). A state that
    /// opens a location is stored without one; the stored state is
    /// fingerprinted on the location's first revisit.
    pub fn admit(
        &mut self,
        s: AnalysisState,
        domain: &dyn ClientDomain,
        thresholds: &[i64],
        profile: &mut EngineProfile,
    ) -> Option<TopReason> {
        let loc = s.location_fingerprint();
        let Some(slot) = self.stored.get_mut(&loc) else {
            self.insert_slot(loc, &s, profile);
            self.push(s);
            return None;
        };
        #[cfg(debug_assertions)]
        debug_assert_eq!(slot.key, s.location_key(), "location fingerprint collision");
        let count = &mut profile.fingerprints;
        let mut fingerprint = |st: &AnalysisState| {
            *count += 1;
            st.fingerprint()
        };
        let stored_fp = match slot.fp {
            Some(fp) => fp,
            None => fingerprint(&slot.state),
        };
        let visits = slot.visits + 1;
        if visits <= self.widen_delay {
            // Delayed widening: explore the state exactly (bounded
            // concrete chains finish precisely), but stop if nothing
            // changed.
            let s_fp = fingerprint(&s);
            slot.fp = Some(s_fp);
            if s_fp == stored_fp {
                debug_assert!(
                    s.structurally_eq(&slot.state),
                    "state fingerprint collision at admission"
                );
                return None;
            }
            slot.state = s.clone();
            slot.visits = visits;
            self.push(s);
            return None;
        }
        let widened = domain.widen(&slot.state, &s, thresholds);
        let w_fp = fingerprint(&widened);
        slot.fp = Some(stored_fp);
        if w_fp == stored_fp {
            debug_assert!(
                widened.structurally_eq(&slot.state),
                "state fingerprint collision at widening"
            );
            return None; // Converged at this location.
        }
        if widened.any_vacant_range() {
            return Some(TopReason::AbstractionLoss);
        }
        profile.widenings += 1;
        slot.state = widened.clone();
        slot.fp = Some(w_fp);
        slot.visits = visits;
        self.push(widened);
        None
    }
}

#[cfg(test)]
mod widen_delay_tests {
    use crate::client::Client;
    use crate::config::AnalysisConfig;
    use crate::engine::analyze;
    use crate::result::Verdict;
    use mpl_lang::corpus;

    #[test]
    fn immediate_widening_loses_concrete_chains() {
        // The delayed-widening knob: with no delay, the 4-block stencil
        // chain on a 4x4 grid is destructively merged; with the default
        // delay it completes exactly.
        let prog = corpus::stencil_2d_vertical(corpus::GridDims::Concrete { nrows: 4, ncols: 4 });
        let eager = AnalysisConfig {
            client: Client::Simple,
            widen_delay: 0,
            ..AnalysisConfig::default()
        };
        let result = analyze(&prog.program, &eager);
        assert!(
            matches!(result.verdict, Verdict::Top { .. }),
            "eager widening should lose the chain: {:?}",
            result.verdict
        );
        let default = AnalysisConfig {
            client: Client::Simple,
            ..AnalysisConfig::default()
        };
        assert!(analyze(&prog.program, &default).is_exact());
    }

    #[test]
    fn symbolic_loops_converge_under_any_delay() {
        for delay in [0u32, 2, 6, 12] {
            let config = AnalysisConfig {
                client: Client::Simple,
                widen_delay: delay,
                ..AnalysisConfig::default()
            };
            let result = analyze(&corpus::exchange_with_root().program, &config);
            assert!(result.is_exact(), "delay {delay}: {:?}", result.verdict);
        }
    }
}

#[cfg(test)]
mod cancel_tests {
    use super::CANCEL_CHECK_STEPS;
    use crate::config::AnalysisConfig;
    use crate::engine::analyze;
    use crate::result::{AnalysisResult, TopReason, Verdict};
    use mpl_lang::corpus;

    #[test]
    fn pre_cancelled_token_yields_deadline_top_within_bounded_steps() {
        let prog = corpus::exchange_with_root();
        let token = mpl_runtime::CancelToken::new();
        token.cancel();
        let config = AnalysisConfig {
            cancel: Some(token),
            ..AnalysisConfig::default()
        };
        let result = analyze(&prog.program, &config);
        assert!(
            matches!(
                result.verdict,
                Verdict::Top {
                    reason: TopReason::Deadline
                }
            ),
            "{:?}",
            result.verdict
        );
        assert!(
            result.steps <= CANCEL_CHECK_STEPS,
            "cancellation observed after {} steps (bound {CANCEL_CHECK_STEPS})",
            result.steps
        );
        // Sound ⊤: nothing is claimed about the program.
        assert!(result.matches.is_empty());
        assert!(result.leaks.is_empty());
    }

    #[test]
    fn uncancelled_token_does_not_perturb_the_analysis() {
        let prog = corpus::exchange_with_root();
        let plain = analyze(&prog.program, &AnalysisConfig::default());
        let config = AnalysisConfig {
            cancel: Some(mpl_runtime::CancelToken::new()),
            ..AnalysisConfig::default()
        };
        let tokened = analyze(&prog.program, &config);
        assert_eq!(plain.verdict, tokened.verdict);
        assert_eq!(plain.matches, tokened.matches);
        assert_eq!(plain.steps, tokened.steps);
    }

    #[test]
    fn deadline_reason_has_stable_code_and_message() {
        assert_eq!(TopReason::Deadline.code(), "deadline");
        assert_eq!(
            TopReason::Deadline.to_string(),
            "analysis deadline exceeded"
        );
        let bare = AnalysisResult::top(TopReason::Deadline);
        assert!(!bare.is_exact());
        assert_eq!(bare.steps, 0);
    }

    #[test]
    fn step_budget_yields_top() {
        let prog = corpus::exchange_with_root();
        let config = AnalysisConfig {
            max_steps: 3,
            ..AnalysisConfig::default()
        };
        let result = analyze(&prog.program, &config);
        assert!(matches!(result.verdict, Verdict::Top { .. }));
    }

    #[test]
    fn a_stopped_run_counts_only_the_states_it_stepped() {
        let prog = corpus::exchange_with_root();
        let full = analyze(&prog.program, &AnalysisConfig::default());
        assert!(full.is_exact() && full.steps > 17, "{}", full.steps);
        for k in [1, 3, 17] {
            let config = AnalysisConfig {
                max_steps: k,
                ..AnalysisConfig::default()
            };
            let result = analyze(&prog.program, &config);
            assert_eq!(
                result.verdict,
                Verdict::Top {
                    reason: TopReason::StepBudget
                }
            );
            assert_eq!(result.steps, k, "budget {k}");
        }
        let token = mpl_runtime::CancelToken::new();
        token.cancel();
        let config = AnalysisConfig {
            cancel: Some(token),
            ..AnalysisConfig::default()
        };
        let result = analyze(&prog.program, &config);
        assert_eq!(
            result.verdict,
            Verdict::Top {
                reason: TopReason::Deadline
            }
        );
        assert_eq!(result.steps, 0, "a pre-cancelled run steps nothing");
    }
}

#[cfg(test)]
mod frontier_order_tests {
    use mpl_cfg::{Cfg, CfgNodeId};
    use mpl_lang::corpus;

    use super::Scheduler;
    use crate::config::AnalysisConfig;
    use crate::observer::EngineProfile;
    use crate::state::AnalysisState;

    #[test]
    fn fifo_drain_preserves_insertion_order() {
        // One single-pset state per CFG node of the fig. 2 program, queued
        // in reverse node order: the worklist hands them back exactly as
        // queued, as one frontier.
        let cfg = Cfg::build(&corpus::fig2_exchange().program);
        let mut nodes: Vec<CfgNodeId> = cfg.node_ids().collect();
        nodes.reverse();
        let mut sched = Scheduler::new(&AnalysisConfig::default(), &cfg);
        let mut profile = EngineProfile::default();
        for &n in &nodes {
            sched.seed(AnalysisState::initial(n, 4), &mut profile);
        }
        let mut drained = Vec::new();
        while let Some(next) = sched.tick(&mut profile) {
            drained.push(next.expect("within the step budget").psets[0].node);
        }
        assert_eq!(drained, nodes, "FIFO drain is insertion-ordered");
        assert_eq!(profile.steps, nodes.len() as u64);
        assert_eq!(profile.rounds, 1);
        assert_eq!(profile.frontier_peak, nodes.len());
        assert_eq!(profile.frontier_total, nodes.len() as u64);
    }
}

#[cfg(test)]
mod fingerprint_tests {
    use mpl_cfg::{Cfg, CfgNodeId};
    use mpl_lang::corpus;

    use super::Scheduler;
    use crate::config::AnalysisConfig;
    use crate::engine::analyze_cfg_with;
    use crate::observer::{EngineProfile, StatsObserver};
    use crate::state::AnalysisState;

    #[test]
    fn admission_fingerprints_a_location_only_once_revisited() {
        let cfg = Cfg::build(&corpus::fig2_exchange().program);
        let config = AnalysisConfig::default();
        let domain = config.client.domain();
        let nodes: Vec<CfgNodeId> = cfg.node_ids().collect();
        let mut sched = Scheduler::new(&config, &cfg);
        let mut profile = EngineProfile::default();
        sched.seed(AnalysisState::initial(nodes[0], 4), &mut profile);
        assert_eq!(profile.fingerprints, 0, "seeding hashes nothing");
        let mut admit = |node| {
            let st = AnalysisState::initial(node, 4);
            assert!(sched.admit(st, domain, &[], &mut profile).is_none());
            profile.fingerprints
        };
        assert_eq!(admit(nodes[1]), 0, "a first visit hashes nothing");
        assert_eq!(
            admit(nodes[1]),
            2,
            "a revisit hashes the offered and the stored state"
        );
        assert_eq!(admit(nodes[1]), 3, "the stored fingerprint is kept");
        assert_eq!(admit(nodes[2]), 3);
        assert_eq!(profile.stored.locations, 3);
    }

    #[test]
    fn a_path_of_first_visits_computes_no_fingerprint() {
        // Each of the 2k + 8 locations of k pair exchanges is visited
        // once, so admission never hashes a state.
        let cfg = Cfg::build(&corpus::repeated_exchanges(64).program);
        let mut stats = StatsObserver::new();
        let result = analyze_cfg_with(&cfg, &AnalysisConfig::default(), &mut stats);
        assert!(result.is_exact(), "{:?}", result.verdict);
        let profile = stats.profile().expect("profile fired");
        assert_eq!(profile.stored.locations as u64, result.steps);
        assert_eq!(profile.fingerprints, 0);
        assert_eq!(profile.probes_matched, 128, "one proved match per exchange");
        assert!(profile.probes >= profile.probes_matched);
        assert!(profile.normalized >= result.steps - 1);
    }
}
