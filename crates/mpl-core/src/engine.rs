//! The pCFG dataflow engine (§VI, Fig 4).
//!
//! The engine explores the pCFG lazily along one chosen interleaving
//! (legitimate because the execution model is interleaving-oblivious,
//! §III): unblocked process sets advance deterministically; when all sets
//! are blocked, sends are matched to receives exactly; states are widened
//! at recurring pCFG locations until fixpoint.
//!
//! The engine is the *framework* half of the paper's framework/client
//! split. Everything client-specific reaches it through two seams:
//!
//! * [`ClientDomain`] (see [`crate::client`]) — transfer functions,
//!   join/widen/rename hooks and the message-expression abstraction;
//! * [`AnalysisObserver`] (see [`crate::observer`]) — instrumentation
//!   hooks, generic so the default no-op observer compiles away.
//!
//! The worklist loop is sequential: pop a state from the
//! [`crate::scheduler`], step it, normalize and admit its successors,
//! repeat until the worklist is empty, a budget runs out or the analysis
//! gives up. Observer events fire as they happen, in step order.
//!
//! Worklist order, budgets and widening bookkeeping live in
//! [`crate::scheduler`]; the configuration and result types live in
//! [`crate::config`] and [`crate::result`].

use std::collections::hash_map::Entry;
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

use mpl_cfg::{Cfg, CfgNode, CfgNodeId, EdgeKind};
use mpl_domains::{ClosureStats, FxHashMap, LinExpr, PsetId, VarId};
use mpl_lang::ast::{BinOp, Expr, Program, UnOp};
use mpl_procset::ProcRange;

use crate::client::ClientDomain;
use crate::config::AnalysisConfig;
use crate::matcher::{MatchOutcome, Probe, RecvSite, SendSite};
use crate::matchset::MatchSet;
use crate::norm::{LiveNames, NormCtx};
use crate::observer::{AnalysisObserver, EngineProfile, NoopObserver};
use crate::result::{AnalysisResult, MatchEvent, PrintFact, TopReason, Verdict};
use crate::scheduler::Scheduler;
use crate::share::Shared;
use crate::state::{AnalysisState, PendingSend, PsetState};

/// Analyzes `program` (builds its CFG internally).
#[must_use]
pub fn analyze(program: &Program, config: &AnalysisConfig) -> AnalysisResult {
    analyze_cfg(&Cfg::build(program), config)
}

/// Analyzes an already-built CFG (so node ids can be shared with the
/// simulator or other tooling) under the zero-cost [`NoopObserver`].
#[must_use]
pub fn analyze_cfg(cfg: &Cfg, config: &AnalysisConfig) -> AnalysisResult {
    analyze_cfg_with(cfg, config, &mut NoopObserver)
}

/// Analyzes a CFG under a caller-supplied [`AnalysisObserver`].
///
/// The observer receives the traced events (steps, promotions, splits,
/// matches, terminal states) as the run unfolds, then the run's
/// [`EngineProfile`]; a
/// [`TraceObserver`](crate::observer::TraceObserver) collects the events
/// as the Fig 5-style trace. The engine is monomorphized over `O`, so a
/// no-op observer costs nothing.
#[must_use]
pub fn analyze_cfg_with<O: AnalysisObserver>(
    cfg: &Cfg,
    config: &AnalysisConfig,
    observer: &mut O,
) -> AnalysisResult {
    Engine::new(cfg, config.clone(), observer).run()
}

struct Engine<'a, O: AnalysisObserver> {
    cfg: &'a Cfg,
    norm: NormCtx,
    live: LiveNames,
    config: AnalysisConfig,
    domain: &'static dyn ClientDomain,
    /// The thread's closure counters when the run started, so the run
    /// reports only its own closure work.
    closure_baseline: ClosureStats,
    scheduler: Scheduler,
    observer: &'a mut O,
    assumes: Vec<Expr>,
    /// Every match of every admitted state. Invariant: each queued or
    /// stored state's match set is a subset, so a successor contributes
    /// only the pairs its step added (see [`Engine::admit_successor`]).
    matches: BTreeSet<(CfgNodeId, CfgNodeId)>,
    /// The ranges `events` and `prints` name, each rendered once.
    ranges: RangeTable,
    /// Match events, one per key of `event_index`.
    events: Vec<MatchEvent>,
    /// Where `events` holds the event of each send node, receive node
    /// and pair of ranges.
    event_index: FxHashMap<(CfgNodeId, CfgNodeId, RangeId, RangeId), usize>,
    /// The value each print node printed for each range (`None` once
    /// two visits disagree).
    prints: FxHashMap<(CfgNodeId, RangeId), Option<i64>>,
    leaks: BTreeSet<CfgNodeId>,
    deadlock: Option<Vec<(CfgNodeId, String)>>,
    top: Option<TopReason>,
    /// The run's counts, each made where its event happens (the
    /// scheduler's through the profile passed to it), and its timers.
    profile: EngineProfile,
}

impl<'a, O: AnalysisObserver> Engine<'a, O> {
    fn new(cfg: &'a Cfg, config: AnalysisConfig, observer: &'a mut O) -> Engine<'a, O> {
        let norm = NormCtx::from_cfg(cfg);
        let live = LiveNames::from_cfg(cfg);
        let assumes = cfg
            .node_ids()
            .filter_map(|id| match cfg.node(id) {
                CfgNode::Assume(e) => Some(e.clone()),
                _ => None,
            })
            .collect();
        let scheduler = Scheduler::new(&config, cfg);
        Engine {
            cfg,
            norm,
            live,
            domain: config.client.domain(),
            config,
            closure_baseline: ClosureStats::snapshot(),
            scheduler,
            observer,
            assumes,
            matches: BTreeSet::new(),
            ranges: RangeTable::default(),
            events: Vec::new(),
            event_index: FxHashMap::default(),
            prints: FxHashMap::default(),
            leaks: BTreeSet::new(),
            deadlock: None,
            top: None,
            profile: EngineProfile::default(),
        }
    }

    /// Records a ⊤ cause (the last one reported wins in the verdict).
    fn give_up(&mut self, reason: TopReason) {
        self.profile.tops += 1;
        self.top = Some(reason);
    }

    fn run(mut self) -> AnalysisResult {
        // Phase timing is opt-in (a few percent of timer calls): queried
        // once so untimed runs skip every `Instant::now`.
        let timing = self.observer.timing_enabled();
        let run_start = Instant::now();

        let mut init = AnalysisState::initial(self.cfg.entry(), self.config.min_np);
        self.domain.rename(&mut init);
        self.scheduler.seed(init, &mut self.profile);

        while self.top.is_none() {
            let tick_start = timing.then(Instant::now);
            let ticked = self.scheduler.tick(&mut self.profile);
            if let Some(t) = tick_start {
                self.profile.schedule += t.elapsed();
            }
            let st = match ticked {
                None => break, // Worklist exhausted: fixpoint.
                Some(Err(reason)) => {
                    self.give_up(reason);
                    break;
                }
                Some(Ok(st)) => st,
            };
            self.observer.on_step(self.profile.steps, &st);
            self.explore(st, timing);
        }

        let verdict = if let Some(reason) = self.top {
            Verdict::Top { reason }
        } else if let Some(blocked) = self.deadlock {
            Verdict::Deadlock { blocked }
        } else {
            Verdict::Exact
        };
        // Events in the byte order of their text, prints by node, then
        // range text: the order of the rendered keys.
        let mut events = self.events;
        events.sort_unstable_by(MatchEvent::cmp_display);
        let mut prints: Vec<PrintFact> = self
            .prints
            .into_iter()
            .map(|((node, range), value)| PrintFact {
                node,
                range: Arc::clone(self.ranges.text(range)),
                value,
            })
            .collect();
        prints.sort_unstable_by(|a, b| (a.node, &a.range).cmp(&(b.node, &b.range)));
        let result = AnalysisResult {
            verdict,
            matches: self.matches,
            events,
            prints,
            leaks: self.leaks.into_iter().collect(),
            steps: self.profile.steps,
            closure_stats: ClosureStats::snapshot().since(&self.closure_baseline),
        };
        self.profile.total = run_start.elapsed();
        if timing {
            // The byte estimate walks every stored state: only an
            // observer that asked for the timings pays for it.
            self.profile.stored.approx_bytes = self.scheduler.stored_bytes();
        }
        self.profile.ranges_rendered = self.ranges.rendered();
        self.observer.on_profile(&self.profile);
        result
    }

    /// Steps one popped state, then normalizes and admits its successor
    /// states.
    fn explore(&mut self, st: AnalysisState, timing: bool) {
        // A step with an unblocked set is a transfer step; with every
        // set blocked it is a matching step (match / split / promote).
        let is_transfer = st.psets.iter().any(|p| {
            !matches!(
                self.cfg.node(p.node),
                CfgNode::Send { .. } | CfgNode::Recv { .. } | CfgNode::Exit
            )
        });
        let base = st.matches.clone();
        let step_start = timing.then(Instant::now);
        let successors = self.step(st, 0);
        if let Some(t) = step_start {
            let dt = t.elapsed();
            if is_transfer {
                self.profile.transfer += dt;
            } else {
                self.profile.matching += dt;
            }
        }
        for mut s in successors {
            let norm_start = timing.then(Instant::now);
            self.profile.normalized += 1;
            let keep = self.normalize_successor(&mut s);
            if let Some(t) = norm_start {
                self.profile.join_widen += t.elapsed();
            }
            if !keep {
                continue;
            }
            let admit_start = timing.then(Instant::now);
            let rejected = self.admit_successor(&base, s);
            if let Some(t) = admit_start {
                self.profile.admission += t.elapsed();
            }
            if let Some(reason) = rejected {
                self.give_up(reason);
            }
        }
    }

    /// One engine step from `st`: returns successor states.
    fn step(&mut self, st: AnalysisState, depth: u32) -> Vec<AnalysisState> {
        // 1. Advance an unblocked process set.
        let unblocked = st.psets.iter().position(|p| {
            !matches!(
                self.cfg.node(p.node),
                CfgNode::Send { .. } | CfgNode::Recv { .. } | CfgNode::Exit
            )
        });
        if let Some(idx) = unblocked {
            return self.advance(st, idx);
        }
        // 2. All blocked: match sends to receives, or fork the state on
        //    an undecidable match comparison (the §VI split driven by
        //    partially-matched subsets).
        if let Some(next) = self.match_step(&st, depth) {
            return next;
        }
        // 3. Buffer a send (depth-1 aggregation, §X).
        let promotable = st.psets.iter().position(|p| {
            matches!(self.cfg.node(p.node), CfgNode::Send { .. }) && p.pending.is_none()
        });
        if let Some(idx) = promotable {
            self.profile.promotions += 1;
            self.observer.on_promote(idx, &st);
            let mut s = st;
            let CfgNode::Send { value, dest } = self.cfg.node(s.psets[idx].node).clone() else {
                unreachable!()
            };
            s.psets[idx].pending = Some(PendingSend {
                node: s.psets[idx].node,
                value,
                dest,
            });
            s.psets[idx].node = self.cfg.sole_succ(s.psets[idx].node);
            return vec![s];
        }
        // 4. Stuck. Pending sends at exit are leaks; receives that can
        //    never be satisfied are a deadlock; anything else is ⊤.
        let any_comm_blocked = st.psets.iter().any(|p| {
            matches!(
                self.cfg.node(p.node),
                CfgNode::Send { .. } | CfgNode::Recv { .. }
            )
        });
        if !any_comm_blocked {
            // Everyone is at exit but pendings remain: terminal (leaks
            // recorded by finish_terminal).
            return vec![st];
        }
        let has_send_capability = st
            .psets
            .iter()
            .any(|p| p.pending.is_some() || matches!(self.cfg.node(p.node), CfgNode::Send { .. }));
        if !has_send_capability {
            // Only receives outstanding and nothing can ever send:
            // guaranteed deadlock (matching so far was exact). The first
            // report wins.
            if self.deadlock.is_none() {
                let blocked = st
                    .psets
                    .iter()
                    .filter(|p| !matches!(self.cfg.node(p.node), CfgNode::Exit))
                    .map(|p| (p.node, p.range.to_string()))
                    .collect();
                self.deadlock = Some(blocked);
            }
            return Vec::new();
        }
        self.give_up(TopReason::MatchFailure {
            state: st.to_string(),
        });
        Vec::new()
    }

    /// Advances the unblocked pset `idx` one CFG step.
    fn advance(&mut self, mut st: AnalysisState, idx: usize) -> Vec<AnalysisState> {
        let node = st.psets[idx].node;
        let cfg = self.cfg;
        match cfg.node(node) {
            CfgNode::Entry | CfgNode::Skip => {
                st.psets[idx].node = cfg.sole_succ(node);
                vec![st]
            }
            CfgNode::Assign { name, value } => {
                self.domain
                    .transfer_assign(&self.norm, &mut st, idx, name, value);
                st.psets[idx].node = cfg.sole_succ(node);
                vec![st]
            }
            CfgNode::Print(e) => {
                self.record_print(&st, idx, node, e);
                st.psets[idx].node = cfg.sole_succ(node);
                vec![st]
            }
            CfgNode::Assume(e) => {
                self.domain.transfer_assume(&self.norm, &mut st, idx, e);
                st.psets[idx].node = cfg.sole_succ(node);
                vec![st]
            }
            CfgNode::Branch { cond } => self.branch(st, idx, cond),
            CfgNode::Send { .. } | CfgNode::Recv { .. } | CfgNode::Exit => {
                unreachable!("blocked node reached advance")
            }
        }
    }

    /// Replaces variables provably equal to `id + k` by that expression,
    /// so conditions like `x < np - 1` after `x := id` split correctly.
    fn subst_id_aliases(&self, st: &AnalysisState, pset: PsetId, expr: &Expr) -> Expr {
        match expr {
            Expr::Var(name) if !self.norm.is_input(name) => {
                let v = self.norm.var(pset, name);
                match st.cg.eq_offset(v, VarId::id_of(pset)) {
                    Some(0) => Expr::Id,
                    Some(k) => Expr::binary(BinOp::Add, Expr::Id, Expr::Int(k)),
                    None => expr.clone(),
                }
            }
            Expr::Binary(op, l, r) => Expr::binary(
                *op,
                self.subst_id_aliases(st, pset, l),
                self.subst_id_aliases(st, pset, r),
            ),
            Expr::Unary(op, e) => Expr::Unary(*op, Box::new(self.subst_id_aliases(st, pset, e))),
            _ => expr.clone(),
        }
    }

    /// Evaluates a `print` and folds the fact into the per-(node, range)
    /// table: a conflicting value demotes the fact to "not constant".
    fn record_print(&mut self, st: &AnalysisState, idx: usize, node: CfgNodeId, e: &Expr) {
        let pset = st.psets[idx].id;
        let value = self.norm.eval_const(e, pset, &st.cg).or_else(|| {
            self.norm
                .linearize(e, pset)
                .and_then(|lin| st.cg.eval_expr(&lin))
        });
        let range = self.ranges.intern(&st.psets[idx].range);
        match self.prints.entry((node, range)) {
            Entry::Occupied(mut prev) => {
                if *prev.get() != value {
                    prev.insert(None);
                }
            }
            Entry::Vacant(slot) => {
                slot.insert(value);
            }
        }
    }

    fn branch(&mut self, st: AnalysisState, idx: usize, cond: &Expr) -> Vec<AnalysisState> {
        let t_succ = self
            .cfg
            .succ_along(st.psets[idx].node, EdgeKind::True)
            .expect("branch true edge");
        let f_succ = self
            .cfg
            .succ_along(st.psets[idx].node, EdgeKind::False)
            .expect("branch false edge");

        // Rewrite id-aliased variables so `x := id; if x < k` splits like
        // an id-branch.
        let pset = st.psets[idx].id;
        let cond = &self.subst_id_aliases(&st, pset, cond);

        // (a) id-dependent branch. A provably-singleton set has a single
        // `id` value, so the condition is uniform over the set and the
        // decide/refine machinery below applies (its refinements
        // constrain the set's `id` variable directly). Larger sets split.
        let singleton = st.psets[idx].range.is_singleton(&st.cg);
        if cond.mentions_id() && !singleton {
            if let Some((t_parts, f_parts)) = self.domain.split_on_id(&self.norm, &st, idx, cond) {
                let mut parts: Vec<(ProcRange, CfgNodeId, bool)> = Vec::new();
                for r in t_parts {
                    parts.push((r, t_succ, true));
                }
                for r in f_parts {
                    parts.push((r, f_succ, true));
                }
                let mut s = st;
                s.split_pset(idx, parts);
                return vec![s];
            }
            self.give_up(TopReason::SplitFailure {
                cond: cond.to_string(),
            });
            return Vec::new();
        }

        // Soundness gate: a whole (non-singleton) set may take one branch
        // edge only if the condition provably evaluates identically on
        // every member.
        if !singleton
            && !cond.mentions_id()
            && !self.domain.is_uniform_expr(&self.norm, &st, pset, cond)
        {
            self.give_up(TopReason::NonUniformCondition {
                cond: cond.to_string(),
            });
            return Vec::new();
        }

        // (b) uniform condition: decide if possible.
        if let Some(truth) = self.decide(&st, pset, cond) {
            let mut s = st;
            let refs = self.norm.refinements(cond, pset, !truth);
            if !self.refine_or_drop_empty(&mut s, &refs) {
                return Vec::new();
            }
            if let Some(i) = s.index_of(pset) {
                s.psets[i].node = if truth { t_succ } else { f_succ };
            }
            return vec![s];
        }

        // (c) undecided: explore both outcomes.
        let mut out = Vec::new();
        for (truth, succ) in [(true, t_succ), (false, f_succ)] {
            let mut s = st.clone();
            let refs = self.norm.refinements(cond, pset, !truth);
            if !self.refine_or_drop_empty(&mut s, &refs) {
                continue;
            }
            if let Some(i) = s.index_of(pset) {
                s.psets[i].node = succ;
                out.push(s);
            }
        }
        out
    }

    /// Applies comparison refinements to the state. A refinement that
    /// contradicts some *other* process set's `id` bounds proves that set
    /// empty under this path (e.g. the Fig 5 loop-exit edge `i = np`
    /// emptying the blocked receivers `[i..np-1]`): such sets are deleted
    /// and the refinement retried. Returns `false` if the path is
    /// genuinely infeasible (the branching set's own facts contradict).
    fn refine_or_drop_empty(
        &self,
        st: &mut AnalysisState,
        refs: &[(LinExpr, LinExpr, crate::norm::RelOp)],
    ) -> bool {
        loop {
            let mut probe = st.cg.clone();
            self.norm.apply_refinements(&mut probe, refs);
            probe.close();
            if !probe.is_bottom() {
                st.cg = probe;
                return true;
            }
            // Find a process set whose removal restores consistency.
            let mut removed = false;
            for i in 0..st.psets.len() {
                let victim = st.psets[i].id;
                let mut without = st.cg.clone();
                without.drop_namespace(victim);
                self.norm.apply_refinements(&mut without, refs);
                without.close();
                if !without.is_bottom() {
                    // `victim` is provably empty under the refinement.
                    st.remove_pset(i);
                    removed = true;
                    break;
                }
            }
            if !removed {
                return false;
            }
        }
    }

    /// Decides a set-uniform condition when provable.
    fn decide(&self, st: &AnalysisState, pset: PsetId, cond: &Expr) -> Option<bool> {
        let cg = &*st.cg;
        if let Some(c) = self.norm.eval_const(cond, pset, cg) {
            return Some(c != 0);
        }
        // Single comparison decidable from the constraint graph.
        let (op, l, r) = match cond {
            Expr::Binary(op, l, r) if op.is_boolean() => (*op, l, r),
            Expr::Unary(UnOp::Not, inner) => {
                return self.decide(st, pset, inner).map(|b| !b);
            }
            _ => return None,
        };
        let (le, re) = (
            self.norm.linearize_resolved(l, pset, cg)?,
            self.norm.linearize_resolved(r, pset, cg)?,
        );
        let cmp = cg.compare_exprs(&le, &re);
        use std::cmp::Ordering::{Equal, Greater, Less};
        match op {
            BinOp::Eq => match cmp {
                Some(Equal) => Some(true),
                Some(Less | Greater) => Some(false),
                None => None,
            },
            BinOp::Ne => match cmp {
                Some(Equal) => Some(false),
                Some(Less | Greater) => Some(true),
                None => None,
            },
            BinOp::Le => {
                if cg.proves_le(&le, &re) {
                    Some(true)
                } else if cg.proves_le(&re.plus(1), &le) {
                    Some(false)
                } else {
                    None
                }
            }
            BinOp::Lt => {
                if cg.proves_le(&le.plus(1), &re) {
                    Some(true)
                } else if cg.proves_le(&re, &le) {
                    Some(false)
                } else {
                    None
                }
            }
            BinOp::Ge => {
                if cg.proves_le(&re, &le) {
                    Some(true)
                } else if cg.proves_le(&le.plus(1), &re) {
                    Some(false)
                } else {
                    None
                }
            }
            BinOp::Gt => {
                if cg.proves_le(&re.plus(1), &le) {
                    Some(true)
                } else if cg.proves_le(&le, &re) {
                    Some(false)
                } else {
                    None
                }
            }
            _ => None,
        }
    }

    /// The send operations available for matching, in set order: a
    /// set's pending send, or else the send it is blocked at. Each
    /// borrows its expressions from the state or the CFG.
    fn send_sites<'s>(
        cfg: &'s Cfg,
        st: &'s AnalysisState,
    ) -> impl Iterator<Item = SendSite<'s>> + 's {
        st.psets.iter().enumerate().filter_map(move |(i, p)| {
            let (node, value, dest, pending) = match (&p.pending, cfg.node(p.node)) {
                (Some(pend), _) => (pend.node, &pend.value, &pend.dest, true),
                (None, CfgNode::Send { value, dest }) => (p.node, value, dest, false),
                (None, _) => return None,
            };
            Some(SendSite {
                pset_idx: i,
                node,
                value,
                dest,
                pending,
            })
        })
    }

    /// The receive operations available for matching, in set order,
    /// borrowed from the CFG.
    fn recv_sites<'s>(
        cfg: &'s Cfg,
        st: &'s AnalysisState,
    ) -> impl Iterator<Item = RecvSite<'s>> + 's {
        st.psets
            .iter()
            .enumerate()
            .filter_map(move |(i, p)| match cfg.node(p.node) {
                CfgNode::Recv { var, src } => Some(RecvSite {
                    pset_idx: i,
                    node: p.node,
                    src,
                    var,
                }),
                _ => None,
            })
    }

    /// Probes every (send, recv) pair once (`matchSendsRecvs`, §VI).
    /// The first match that applies gives the one successor. Failing
    /// that, the state forks on the first comparison a probe could not
    /// decide, and each branch steps again with it decided. `None` when
    /// nothing matched and nothing is left to split on.
    fn match_step(&mut self, st: &AnalysisState, depth: u32) -> Option<Vec<AnalysisState>> {
        let matcher = self.domain.matcher();
        let cfg = self.cfg;
        let mut split = None;
        for send in Self::send_sites(cfg, st) {
            for recv in Self::recv_sites(cfg, st) {
                self.profile.probes += 1;
                let undecided = match matcher.try_match(st, &send, &recv, &self.norm, &self.assumes)
                {
                    Probe::Match(outcome) => {
                        self.profile.probes_matched += 1;
                        if let Some(next) = self.apply_match(st.clone(), &send, &recv, &outcome) {
                            return Some(vec![next]);
                        }
                        self.observer.on_match_rejected();
                        outcome.split
                    }
                    Probe::Split(a, b) => Some((a, b)),
                    Probe::NoMatch => None,
                };
                split = split.or(undecided);
            }
        }
        if depth > 8 {
            self.give_up(TopReason::SplitDepthExceeded);
            return Some(Vec::new());
        }
        let (a, b) = split?;
        self.profile.splits += 1;
        self.observer.on_split(&a, &b);
        let (av, bv) = (a.var.unwrap_or(VarId::ZERO), b.var.unwrap_or(VarId::ZERO));
        let mut out = Vec::new();
        // a ≤ b, then b ≤ a - 1.
        for (x, y, c) in [
            (av, bv, b.offset - a.offset),
            (bv, av, a.offset - b.offset - 1),
        ] {
            let mut branch = st.clone();
            branch.cg.assert_le(x, y, c);
            branch.cg.close();
            if !branch.cg.is_bottom() {
                out.extend(self.step(branch, depth + 1));
            }
        }
        Some(out)
    }

    /// Applies a successful match: splits/releases the participating
    /// process sets, propagates the sent value, records the match.
    fn apply_match(
        &mut self,
        mut st: AnalysisState,
        send: &SendSite<'_>,
        recv: &RecvSite<'_>,
        outcome: &MatchOutcome,
    ) -> Option<AnalysisState> {
        let recv_succ = self.cfg.sole_succ(recv.node);
        let sender_id = st.psets[send.pset_idx].id;
        st.matches.insert((send.node, recv.node));
        // Read the event's constants now (they are provable in the
        // pre-release state), but only *record* the event once the match
        // has actually been applied — a failed application must leave no
        // trace in the reported topology.
        let singleton_const = |r: &ProcRange| -> Option<i64> {
            if !r.is_singleton(&st.cg) {
                return None;
            }
            r.lb.exprs().iter().find_map(|e| st.cg.eval_expr(e))
        };
        let consts = [
            singleton_const(&outcome.s_procs),
            singleton_const(&outcome.r_procs),
        ];

        if send.pset_idx == recv.pset_idx {
            // Self-exchange (transpose): only full-set matches supported.
            let range = &st.psets[send.pset_idx].range;
            if !outcome.s_procs.provably_eq(&st.cg, range)
                || !outcome.r_procs.provably_eq(&st.cg, range)
            {
                return None;
            }
            if !send.pending {
                return None; // A set cannot be at send and recv at once.
            }
            self.domain.propagate_received(
                &self.norm,
                &mut st,
                send,
                recv,
                sender_id,
                recv.pset_idx,
            );
            st.psets[recv.pset_idx].pending = None;
            st.psets[recv.pset_idx].node = recv_succ;
            self.record_match_event(send, recv, outcome, consts);
            return Some(st);
        }

        // Receiver side first (indices shift when psets split).
        let r_full = outcome
            .r_procs
            .provably_eq(&st.cg, &st.psets[recv.pset_idx].range);
        let recv_idx = if r_full {
            st.psets[recv.pset_idx].node = recv_succ;
            recv.pset_idx
        } else {
            release(&mut st, recv.pset_idx, &outcome.r_procs, recv_succ, true)?;
            // split_pset appends the new psets at the end; the matched
            // part is the one at recv_succ (first pushed).
            st.psets
                .iter()
                .position(|p| {
                    p.node == recv_succ && p.range.lb.exprs() == outcome.r_procs.lb.exprs()
                })
                .unwrap_or(st.psets.len() - 1)
        };
        self.domain
            .propagate_received(&self.norm, &mut st, send, recv, sender_id, recv_idx);
        // The propagation wrote the graph; the sender side reads it.
        st.cg.close();
        let assigned_ns = st.psets[recv_idx].id;

        // The receiver-side value propagation reassigned `recv.var`, so
        // any alias mentioning it inside the matched ranges is stale and
        // would corrupt bound comparisons (e.g. falsely proving the
        // matched senders empty). A receiver split also dropped the
        // receiving set's old namespace, whose aliases the matched
        // ranges (saturated before the split) still carry; asserting
        // bounds against one would revive a variable no set owns. Strip
        // both kinds and re-saturate against the updated facts.
        let stale = VarId::pset_var(assigned_ns, mpl_domains::intern_name(recv.var));
        let sanitize = |st: &AnalysisState, r: &ProcRange| -> ProcRange {
            let fresh =
                |v: VarId| v != stale && v.namespace().is_none_or(|ns| st.index_of(ns).is_some());
            let keep = |b: &mpl_procset::Bound| {
                mpl_procset::Bound::from_exprs(
                    b.exprs()
                        .iter()
                        .filter(|e| e.var.is_none_or(fresh))
                        .copied(),
                )
            };
            let mut out = ProcRange::new(keep(&r.lb), keep(&r.ub));
            if out.is_vacant() {
                return r.clone();
            }
            out.saturate(&st.cg);
            out
        };
        let s_procs = sanitize(&st, &outcome.s_procs);

        // Sender side.
        let send_idx = st.psets.iter().position(|p| {
            if send.pending {
                p.pending.as_ref().is_some_and(|pd| pd.node == send.node)
            } else {
                p.node == send.node
            }
        })?;
        // The matched senders move on: a pending send is cleared where
        // the set stands, a blocked one steps past its send.
        if s_procs.provably_eq(&st.cg, &st.psets[send_idx].range) {
            if send.pending {
                st.psets[send_idx].pending = None;
            } else {
                st.psets[send_idx].node = self.cfg.sole_succ(send.node);
            }
        } else {
            let released_node = if send.pending {
                st.psets[send_idx].node
            } else {
                self.cfg.sole_succ(send.node)
            };
            release(&mut st, send_idx, &s_procs, released_node, false)?;
        }
        self.record_match_event(send, recv, outcome, consts);
        Some(st)
    }

    /// Folds a normalized successor's new matches into the result, then
    /// finishes it (terminal) or offers it to the scheduler. The result
    /// already holds every match of `base` (the stepped state was
    /// admitted, and widening only unions admitted match sets), so only
    /// `s.matches \ base` is new.
    fn admit_successor(&mut self, base: &MatchSet, s: AnalysisState) -> Option<TopReason> {
        s.matches.for_each_missing(base, |pair| {
            self.matches.insert(pair);
        });
        debug_assert!(
            s.matches.iter().all(|m| self.matches.contains(&m)),
            "a stepped state's matches were missing from the result"
        );
        if self.is_terminal(&s) {
            self.finish_terminal(&s);
            return None;
        }
        self.scheduler.admit(
            s,
            self.domain,
            &self.config.widen_thresholds,
            &mut self.profile,
        )
    }

    /// Normalizes a successor state in place: closes the constraint
    /// graph, drops infeasible paths and provably-empty sets, merges
    /// compatible sets, projects out dead variables, renames canonically
    /// and re-saturates range bounds. Returns `false` if the state must
    /// be discarded (the ⊤ causes are recorded here).
    fn normalize_successor(&mut self, s: &mut AnalysisState) -> bool {
        // An inconsistent constraint graph marks an infeasible path:
        // under it every range would look empty and the state would
        // collapse to a bogus terminal.
        s.cg.close();
        if s.cg.is_bottom() || s.psets.is_empty() {
            return false; // Infeasible path.
        }
        // A possibly-empty set survives this: it would make matching
        // unsound, but matching demands provable non-emptiness anyway.
        s.drop_empty_psets();
        let before = s.psets.len();
        self.domain.join(s);
        // Without a merge the join only re-closed a closed graph, so a
        // second emptiness pass would find nothing the first did not.
        if s.psets.len() < before {
            s.drop_empty_psets();
            self.profile.merges += 1;
        }
        if s.any_vacant_range() {
            self.give_up(TopReason::AbstractionLoss);
            return false;
        }
        if s.psets.len() > self.config.max_psets {
            self.give_up(TopReason::PsetBudget {
                max: self.config.max_psets,
            });
            return false;
        }
        self.project_dead_vars(s);
        #[cfg(debug_assertions)]
        if let Some(v) = s.orphan_var() {
            panic!("{v} outlived its process set: {s}");
        }
        self.domain.rename(s);
        // Re-saturate range bounds against the current facts so
        // loop-invariant aliases (e.g. a wavefront's own `id`)
        // are present before widening intersects alias sets.
        s.resaturate_ranges();
        // Close once more so the state is admitted transitively closed:
        // equal states then share one fingerprint (the O(1) dedup path),
        // and later match probes read it through `&AnalysisState`, so
        // probing copies neither the state nor its graph.
        s.cg.close();
        true
    }

    /// Projects out of `s` every per-set variable that is dead at its
    /// set's CFG node (DESIGN §3.16), so each constraint graph carries
    /// only variables a later statement can read. `np`, inputs and each
    /// set's rank `id` are never candidates. A variable also stays when
    /// its set's pending send reads it (the send's `value` and `dest` are
    /// evaluated only at match time), or when it is the first alias of a
    /// range bound whose aliases are all dead: saturation lists every
    /// variable pinned to a bound's value as an alias, so many bound
    /// aliases are dead locals, yet a bound left with no alias would turn
    /// the state into ⊤. Every other alias of a dead variable is stripped.
    fn project_dead_vars(&self, s: &mut AnalysisState) {
        let live = &self.live;
        let is_dead = |psets: &[Shared<PsetState>], v: VarId| {
            let (Some(ns), Some(name)) = (v.namespace(), v.name_index()) else {
                return false;
            };
            !v.is_rank_id()
                && psets.iter().find(|p| p.id == ns).is_some_and(|p| {
                    !live.is_live(p.node, name)
                        && !p
                            .pending
                            .as_ref()
                            .is_some_and(|send| live.is_read(send.node, name))
                })
        };
        if !s
            .cg
            .variables()
            .iter()
            .chain(s.uniform.iter())
            .any(|&v| is_dead(&s.psets, v))
        {
            return;
        }
        // The first alias of a bound whose aliases are all dead stays,
        // in set order: a bound rescued earlier keeps its alias alive
        // for the bounds after it. Almost no bound needs this, so the
        // list almost never allocates.
        let mut rescued: Vec<VarId> = Vec::new();
        for p in &s.psets {
            for bound in [&p.range.lb, &p.range.ub] {
                let aliases = bound.exprs();
                if aliases.iter().all(|e| {
                    e.var
                        .is_some_and(|v| is_dead(&s.psets, v) && !rescued.contains(&v))
                }) {
                    if let Some(first) = aliases.first().and_then(|e| e.var) {
                        rescued.push(first);
                    }
                }
            }
        }
        s.project_out_by(|psets, v| is_dead(psets, v) && !rescued.contains(&v));
    }

    fn is_terminal(&self, st: &AnalysisState) -> bool {
        // An empty state is an infeasible path, never a real terminal
        // (a completed analysis always holds [0..np-1] at exit).
        !st.psets.is_empty() && st.psets.iter().all(|p| p.node == self.cfg.exit())
    }

    fn finish_terminal(&mut self, st: &AnalysisState) {
        for p in &st.psets {
            if let Some(pend) = &p.pending {
                self.leaks.insert(pend.node);
            }
        }
        self.profile.terminals += 1;
        self.observer.on_terminal(st);
    }

    /// Records an applied match's event (`consts` are its sender and
    /// receiver constants); a later event with the same key replaces it.
    fn record_match_event(
        &mut self,
        send: &SendSite<'_>,
        recv: &RecvSite<'_>,
        outcome: &MatchOutcome,
        [s_const, r_const]: [Option<i64>; 2],
    ) {
        let (s, r) = (
            self.ranges.intern(&outcome.s_procs),
            self.ranges.intern(&outcome.r_procs),
        );
        let event = MatchEvent {
            send_node: send.node,
            recv_node: recv.node,
            s_procs: Arc::clone(self.ranges.text(s)),
            r_procs: Arc::clone(self.ranges.text(r)),
            kind: outcome.kind,
            s_const,
            r_const,
        };
        self.profile.matches += 1;
        self.observer.on_match(&event);
        match self.event_index.entry((send.node, recv.node, s, r)) {
            Entry::Occupied(at) => self.events[*at.get()] = event,
            Entry::Vacant(slot) => {
                slot.insert(self.events.len());
                self.events.push(event);
            }
        }
    }
}

/// A [`RangeTable`] id: ranges with equal text share one.
type RangeId = u32;

/// The process ranges one run's match events and print facts name. A
/// range is looked up by structure first, and rendered only the first
/// time that structure is seen. Ranges of different structure can
/// render alike (a `VarId::ZERO` alias and the constant 0 both print
/// `0`); they share the id of their text, so events and facts keyed by
/// id group exactly as their text does.
#[derive(Default)]
struct RangeTable {
    /// Each range seen, by structure.
    ids: FxHashMap<ProcRange, RangeId>,
    /// Each text rendered, by content.
    by_text: FxHashMap<Arc<str>, RangeId>,
    /// Each id's text.
    texts: Vec<Arc<str>>,
}

impl RangeTable {
    /// The id of `range`'s text.
    fn intern(&mut self, range: &ProcRange) -> RangeId {
        if let Some(&id) = self.ids.get(range) {
            return id;
        }
        let text: Arc<str> = range.to_string().into();
        let id = match self.by_text.get(&text) {
            Some(&id) => id,
            None => {
                let id = RangeId::try_from(self.texts.len()).expect("fewer than 2^32 ranges");
                self.texts.push(Arc::clone(&text));
                self.by_text.insert(text, id);
                id
            }
        };
        self.ids.insert(range.clone(), id);
        id
    }

    /// The text of `id`.
    fn text(&self, id: RangeId) -> &Arc<str> {
        &self.texts[id as usize]
    }

    /// Ranges rendered so far: one per distinct structure.
    fn rendered(&self) -> u64 {
        self.ids.len() as u64
    }
}

/// Splits set `idx` of `st` around `matched`, the subset a match
/// released: `matched` moves to `node` (keeping its pending send only if
/// `keep_pending`), while the remainders below and above it stay where
/// the set stands, pending send included. `None` when the subtraction
/// is not provable.
fn release(
    st: &mut AnalysisState,
    idx: usize,
    matched: &ProcRange,
    node: CfgNodeId,
    keep_pending: bool,
) -> Option<()> {
    let (below, above) = st.psets[idx].range.subtract(&st.cg, matched)?;
    let stay = st.psets[idx].node;
    let mut parts = vec![(matched.clone(), node, keep_pending)];
    parts.extend(
        [below, above]
            .into_iter()
            .flatten()
            .map(|r| (r, stay, true)),
    );
    st.split_pset(idx, parts);
    Some(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpl_domains::LinExpr;

    #[test]
    fn ranges_that_render_alike_share_one_id() {
        let top = LinExpr::var_plus(VarId::NP, -1);
        let constant = ProcRange::from_exprs(LinExpr::constant(0), top);
        let zero_alias = ProcRange::from_exprs(LinExpr::of_var(VarId::ZERO), top);
        assert_ne!(constant, zero_alias);
        let mut table = RangeTable::default();
        let id = table.intern(&constant);
        assert_eq!(&**table.text(id), "[0..np-1]");
        // Rendered once more for the new structure, then found by text:
        // two events over these ranges get one key, as their text did.
        assert_eq!(table.intern(&zero_alias), id);
        assert_eq!(table.rendered(), 2);
        // Seen structures are not rendered again.
        assert_eq!(table.intern(&constant), id);
        assert_eq!(table.intern(&zero_alias), id);
        assert_eq!(table.rendered(), 2);
        let other = table.intern(&ProcRange::all_procs().plus(1));
        assert_ne!(other, id);
        assert_eq!(&**table.text(other), "[1..np]");
        assert_eq!(table.rendered(), 3);
    }
}
