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

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use mpl_cfg::{Cfg, CfgNode, CfgNodeId, EdgeKind};
use mpl_domains::{ClosureStats, LinExpr, PsetId, VarId};
use mpl_lang::ast::{BinOp, Expr, Program, UnOp};
use mpl_procset::{ProcRange, SubtractOutcome};

use crate::client::ClientDomain;
use crate::config::AnalysisConfig;
use crate::matcher::{MatchOutcome, RecvSite, SendSite};
use crate::matchset::MatchSet;
use crate::norm::{LiveNames, NormCtx};
use crate::observer::{AnalysisObserver, EngineProfile, NoopObserver};
use crate::result::{AnalysisResult, MatchEvent, PrintFact, TopReason, Verdict};
use crate::scheduler::Scheduler;
use crate::state::{AnalysisState, PendingSend};

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
/// The observer receives every engine event (steps, matches, splits,
/// merges, widenings, ⊤) as the run unfolds; a
/// [`TraceObserver`](crate::observer::TraceObserver) collects them as the
/// Fig 5-style trace. The engine is monomorphized over `O`, so a no-op
/// observer costs nothing.
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
    events: BTreeMap<String, MatchEvent>,
    prints: BTreeMap<(CfgNodeId, String), Option<i64>>,
    leaks: BTreeSet<CfgNodeId>,
    deadlock: Option<Vec<(CfgNodeId, String)>>,
    top: Option<TopReason>,
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
            events: BTreeMap::new(),
            prints: BTreeMap::new(),
            leaks: BTreeSet::new(),
            deadlock: None,
            top: None,
        }
    }

    /// Records a ⊤ cause (the last one reported wins in the verdict).
    fn give_up(&mut self, reason: TopReason) {
        self.observer.on_top(&reason);
        self.top = Some(reason);
    }

    fn run(mut self) -> AnalysisResult {
        // Phase timing is opt-in (a few percent of timer calls): queried
        // once so untimed runs skip every `Instant::now`.
        let timing = self.observer.timing_enabled();
        let mut profile = EngineProfile::default();
        let run_start = Instant::now();

        let mut init = AnalysisState::initial(self.cfg.entry(), self.config.min_np);
        self.domain.rename(&mut init);
        self.scheduler.seed(init);

        while self.top.is_none() {
            let st = match self.scheduler.tick() {
                None => break, // Worklist exhausted: fixpoint.
                Some(Err(reason)) => {
                    self.give_up(reason);
                    break;
                }
                Some(Ok(st)) => st,
            };
            self.observer.on_step(self.scheduler.steps(), &st);
            self.explore(st, timing, &mut profile);
        }

        let verdict = if let Some(reason) = self.top {
            Verdict::Top { reason }
        } else if let Some(blocked) = self.deadlock {
            Verdict::Deadlock { blocked }
        } else {
            Verdict::Exact
        };
        let result = AnalysisResult {
            verdict,
            matches: self.matches,
            events: self.events.into_values().collect(),
            prints: self
                .prints
                .into_iter()
                .map(|((node, range), value)| PrintFact { node, range, value })
                .collect(),
            leaks: self.leaks.into_iter().collect(),
            steps: self.scheduler.steps(),
            closure_stats: ClosureStats::snapshot().since(&self.closure_baseline),
        };
        self.observer.on_complete(&result);
        profile.total = run_start.elapsed();
        profile.stored = self.scheduler.stored_stats();
        self.scheduler.record_frontier(&mut profile);
        self.observer.on_profile(&profile);
        result
    }

    /// Steps one popped state, then normalizes and admits its successor
    /// states.
    fn explore(&mut self, st: AnalysisState, timing: bool, profile: &mut EngineProfile) {
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
                profile.transfer += dt;
            } else {
                profile.matching += dt;
            }
        }
        for mut s in successors {
            let norm_start = timing.then(Instant::now);
            let keep = self.normalize_successor(&mut s);
            if let Some(t) = norm_start {
                profile.join_widen += t.elapsed();
            }
            if !keep {
                continue;
            }
            let admit_start = timing.then(Instant::now);
            let rejected = self.admit_successor(&base, s);
            if let Some(t) = admit_start {
                profile.admission += t.elapsed();
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
        // 2. All blocked: match sends to receives.
        if let Some(next) = self.match_step(&st) {
            return vec![next];
        }
        // 3. Fork the state on an undecidable match comparison (the §VI
        //    split driven by partially-matched subsets).
        if let Some(states) = self.ambiguity_split(&st, depth) {
            return states;
        }
        // 4. Buffer a send (depth-1 aggregation).
        if self.config.allow_pending_sends {
            let promotable = st.psets.iter().position(|p| {
                matches!(self.cfg.node(p.node), CfgNode::Send { .. }) && p.pending.is_none()
            });
            if let Some(idx) = promotable {
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
        }
        // 5. Stuck. Pending sends at exit are leaks; receives that can
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
        match self.cfg.node(node).clone() {
            CfgNode::Entry | CfgNode::Skip => {
                st.psets[idx].node = self.cfg.sole_succ(node);
                vec![st]
            }
            CfgNode::Assign { name, value } => {
                self.domain
                    .transfer_assign(&self.norm, &mut st, idx, &name, &value);
                st.psets[idx].node = self.cfg.sole_succ(node);
                vec![st]
            }
            CfgNode::Print(e) => {
                self.record_print(&mut st, idx, node, &e);
                st.psets[idx].node = self.cfg.sole_succ(node);
                vec![st]
            }
            CfgNode::Assume(e) => {
                self.domain.transfer_assume(&self.norm, &mut st, idx, &e);
                st.psets[idx].node = self.cfg.sole_succ(node);
                vec![st]
            }
            CfgNode::Branch { cond } => self.branch(st, idx, &cond),
            CfgNode::Send { .. } | CfgNode::Recv { .. } | CfgNode::Exit => {
                unreachable!("blocked node reached advance")
            }
        }
    }

    /// Replaces variables provably equal to `id + k` by that expression,
    /// so conditions like `x < np - 1` after `x := id` split correctly.
    fn subst_id_aliases(
        &self,
        st: &mut AnalysisState,
        pset: mpl_domains::PsetId,
        expr: &Expr,
    ) -> Expr {
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
    fn record_print(&mut self, st: &mut AnalysisState, idx: usize, node: CfgNodeId, e: &Expr) {
        let pset = st.psets[idx].id;
        let value = self.norm.eval_const(e, pset, &st.consts).or_else(|| {
            self.norm
                .linearize(e, pset)
                .and_then(|lin| st.cg.eval_expr(&lin))
        });
        let key = (node, st.psets[idx].range.to_string());
        match self.prints.get(&key) {
            Some(prev) if *prev != value => {
                self.prints.insert(key, None);
            }
            Some(_) => {}
            None => {
                self.prints.insert(key, value);
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
        let cond = {
            let mut probe = st.clone();
            let pset = st.psets[idx].id;
            self.subst_id_aliases(&mut probe, pset, cond)
        };
        let cond = &cond;

        // (a) id-dependent branch. A provably-singleton set has a single
        // `id` value, so the condition is uniform over the set and the
        // decide/refine machinery below applies (its refinements
        // constrain the set's `id` variable directly). Larger sets split.
        let singleton = {
            let mut probe = st.cg.clone();
            st.psets[idx].range.is_singleton(&mut probe)
        };
        if cond.mentions_id() && !singleton {
            let mut s = st.clone();
            if let Some((t_parts, f_parts)) = self.domain.split_on_id(&self.norm, &mut s, idx, cond)
            {
                let mut parts: Vec<(ProcRange, CfgNodeId, bool)> = Vec::new();
                for r in t_parts {
                    parts.push((r, t_succ, true));
                }
                for r in f_parts {
                    parts.push((r, f_succ, true));
                }
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
        let pset = st.psets[idx].id;
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
    fn decide(&self, st: &AnalysisState, pset: mpl_domains::PsetId, cond: &Expr) -> Option<bool> {
        if let Some(c) = self.norm.eval_const(cond, pset, &st.consts) {
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
        let mut cg = st.cg.clone();
        let (le, re) = (
            self.norm.linearize_resolved(l, pset, &st.consts, &mut cg)?,
            self.norm.linearize_resolved(r, pset, &st.consts, &mut cg)?,
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

    /// Collects the send/receive operations available for matching.
    fn comm_sites(&self, st: &AnalysisState) -> (Vec<SendSite>, Vec<RecvSite>) {
        let mut sends: Vec<SendSite> = Vec::new();
        let mut recvs: Vec<RecvSite> = Vec::new();
        for (i, p) in st.psets.iter().enumerate() {
            if let Some(pend) = &p.pending {
                sends.push(SendSite {
                    pset_idx: i,
                    node: pend.node,
                    value: pend.value.clone(),
                    dest: pend.dest.clone(),
                    pending: true,
                });
            }
            match self.cfg.node(p.node) {
                CfgNode::Send { value, dest } if p.pending.is_none() => {
                    sends.push(SendSite {
                        pset_idx: i,
                        node: p.node,
                        value: value.clone(),
                        dest: dest.clone(),
                        pending: false,
                    });
                }
                CfgNode::Recv { var, src } => {
                    recvs.push(RecvSite {
                        pset_idx: i,
                        node: p.node,
                        src: src.clone(),
                        var: var.clone(),
                    });
                }
                _ => {}
            }
        }
        (sends, recvs)
    }

    /// Attempts one send–receive match; returns the successor state.
    fn match_step(&mut self, st: &AnalysisState) -> Option<AnalysisState> {
        let matcher = self.domain.matcher();
        let (sends, recvs) = self.comm_sites(st);
        for send in &sends {
            for recv in &recvs {
                let mut s = st.clone();
                if let Some(outcome) =
                    matcher.try_match(&mut s, send, recv, &self.norm, &self.assumes)
                {
                    match self.apply_match(s, send, recv, &outcome) {
                        Some(next) => return Some(next),
                        None => self.observer.on_match_rejected(),
                    }
                }
            }
        }
        None
    }

    /// Forks the state on the first undecidable comparison blocking a
    /// match, then advances each branch (the comparison is decided in
    /// each, so the match proceeds one way or the other).
    fn ambiguity_split(&mut self, st: &AnalysisState, depth: u32) -> Option<Vec<AnalysisState>> {
        if depth > 8 {
            self.give_up(TopReason::SplitDepthExceeded);
            return Some(Vec::new());
        }
        let matcher = self.domain.matcher();
        let (sends, recvs) = self.comm_sites(st);
        for send in &sends {
            for recv in &recvs {
                let mut probe = st.clone();
                let Some((a, b)) = matcher.split_hint(&mut probe, send, recv, &self.norm) else {
                    continue;
                };
                self.observer.on_split(&a, &b);
                let mut out = Vec::new();
                let av = a.var.unwrap_or(VarId::ZERO);
                let bv = b.var.unwrap_or(VarId::ZERO);
                // Branch 1: a <= b.
                let mut s1 = st.clone();
                s1.cg.assert_le(av, bv, b.offset - a.offset);
                s1.cg.close();
                if !s1.cg.is_bottom() {
                    out.extend(self.step(s1, depth + 1));
                }
                // Branch 2: b <= a - 1.
                let mut s2 = st.clone();
                s2.cg.assert_le(bv, av, a.offset - b.offset - 1);
                s2.cg.close();
                if !s2.cg.is_bottom() {
                    out.extend(self.step(s2, depth + 1));
                }
                return Some(out);
            }
        }
        None
    }

    /// Applies a successful match: splits/releases the participating
    /// process sets, propagates the sent value, records the match.
    fn apply_match(
        &mut self,
        mut st: AnalysisState,
        send: &SendSite,
        recv: &RecvSite,
        outcome: &MatchOutcome,
    ) -> Option<AnalysisState> {
        let recv_succ = self.cfg.sole_succ(recv.node);
        st.matches.insert((send.node, recv.node));
        // Capture the event now (the constants are provable in the
        // pre-release state), but only *record* it once the match has
        // actually been applied — a failed application must leave no
        // trace in the reported topology.
        let singleton_const = |st: &mut AnalysisState, r: &ProcRange| -> Option<i64> {
            let mut cg = st.cg.clone();
            if !r.is_singleton(&mut cg) {
                return None;
            }
            r.lb.exprs().iter().find_map(|e| cg.eval_expr(e))
        };
        let event = MatchEvent {
            send_node: send.node,
            recv_node: recv.node,
            s_procs: outcome.s_procs.to_string(),
            r_procs: outcome.r_procs.to_string(),
            kind: outcome.kind,
            s_const: singleton_const(&mut st, &outcome.s_procs),
            r_const: singleton_const(&mut st, &outcome.r_procs),
        };

        if send.pset_idx == recv.pset_idx {
            // Self-exchange (transpose): only full-set matches supported.
            let range = st.psets[send.pset_idx].range.clone();
            if !outcome.s_procs.provably_eq(&mut st.cg, &range)
                || !outcome.r_procs.provably_eq(&mut st.cg, &range)
            {
                return None;
            }
            if !send.pending {
                return None; // A set cannot be at send and recv at once.
            }
            self.propagate_value(&mut st, send, recv, recv.pset_idx);
            st.psets[recv.pset_idx].pending = None;
            st.psets[recv.pset_idx].node = recv_succ;
            self.record_match_event(event);
            return Some(st);
        }

        // Receiver side first (indices shift when psets split).
        let r_full = {
            let range = st.psets[recv.pset_idx].range.clone();
            outcome.r_procs.provably_eq(&mut st.cg, &range)
        };
        let assigned_ns;
        if r_full {
            assigned_ns = st.psets[recv.pset_idx].id;
            self.propagate_value(&mut st, send, recv, recv.pset_idx);
            st.psets[recv.pset_idx].node = recv_succ;
        } else {
            let range = st.psets[recv.pset_idx].range.clone();
            let remainder = range.subtract(&mut st.cg, &outcome.r_procs)?;
            let mut parts: Vec<(ProcRange, CfgNodeId, bool)> =
                vec![(outcome.r_procs.clone(), recv_succ, true)];
            match remainder {
                SubtractOutcome::Empty => {}
                SubtractOutcome::One(r) => parts.push((r, recv.node, true)),
                SubtractOutcome::Two(a, b) => {
                    parts.push((a, recv.node, true));
                    parts.push((b, recv.node, true));
                }
            }
            let sender_id = st.psets[send.pset_idx].id;
            st.split_pset(recv.pset_idx, parts);
            // After split_pset the new psets are appended at the end; the
            // matched part is the one at recv_succ (first pushed).
            let receiver_new_idx = st
                .psets
                .iter()
                .position(|p| {
                    p.node == recv_succ && p.range.lb.exprs() == outcome.r_procs.lb.exprs()
                })
                .unwrap_or(st.psets.len() - 1);
            assigned_ns = st.psets[receiver_new_idx].id;
            self.domain.propagate_received(
                &self.norm,
                &mut st,
                send,
                recv,
                sender_id,
                receiver_new_idx,
            );
        }

        // The receiver-side value propagation reassigned `recv.var`, so
        // any alias mentioning it inside the matched ranges is stale and
        // would corrupt bound comparisons (e.g. falsely proving the
        // matched senders empty). Strip those aliases and re-saturate
        // against the updated facts.
        let stale = VarId::pset_var(assigned_ns, mpl_domains::intern_name(&recv.var));
        let sanitize = |st: &mut AnalysisState, r: &ProcRange| -> ProcRange {
            let keep = |b: &mpl_procset::Bound| {
                mpl_procset::Bound::from_exprs(
                    b.exprs().iter().filter(|e| e.var != Some(stale)).copied(),
                )
            };
            let mut out = ProcRange::new(keep(&r.lb), keep(&r.ub));
            if out.is_vacant() {
                return r.clone();
            }
            out.saturate(&mut st.cg);
            out
        };
        let s_procs = sanitize(&mut st, &outcome.s_procs);

        // Sender side.
        let send_idx = st.psets.iter().position(|p| {
            if send.pending {
                p.pending.as_ref().is_some_and(|pd| pd.node == send.node)
            } else {
                p.node == send.node
            }
        })?;
        let s_range = st.psets[send_idx].range.clone();
        let s_full = s_procs.provably_eq(&mut st.cg, &s_range);
        if s_full {
            if send.pending {
                st.psets[send_idx].pending = None;
            } else {
                st.psets[send_idx].node = self.cfg.sole_succ(send.node);
            }
        } else {
            let remainder = s_range.subtract(&mut st.cg, &s_procs)?;
            let released_node = if send.pending {
                st.psets[send_idx].node
            } else {
                self.cfg.sole_succ(send.node)
            };
            let mut parts: Vec<(ProcRange, CfgNodeId, bool)> = Vec::new();
            // Matched part: pending cleared (if pending) or advanced.
            parts.push((s_procs.clone(), released_node, false));
            match remainder {
                SubtractOutcome::Empty => {}
                SubtractOutcome::One(r) => parts.push((r, st.psets[send_idx].node, true)),
                SubtractOutcome::Two(a, b) => {
                    parts.push((a, st.psets[send_idx].node, true));
                    parts.push((b, st.psets[send_idx].node, true));
                }
            }
            // For a non-pending sender the "keep pending" flag is
            // irrelevant (no pending exists); for a pending sender the
            // matched part released its pending while the rest keeps it.
            st.split_pset(send_idx, parts);
        }
        self.record_match_event(event);
        Some(st)
    }

    /// Propagates the sent value into the receiver's variable (Fig 2's
    /// cross-process constant propagation).
    fn propagate_value(
        &self,
        st: &mut AnalysisState,
        send: &SendSite,
        recv: &RecvSite,
        recv_idx: usize,
    ) {
        let sender_id = st.psets[send.pset_idx].id;
        self.domain
            .propagate_received(&self.norm, st, send, recv, sender_id, recv_idx);
    }

    /// Folds a normalized successor's new matches into the result, then
    /// finishes it (terminal) or offers it to the scheduler. The result
    /// already holds every match of `base` (the stepped state was
    /// admitted, and widening only unions admitted match sets), so only
    /// `s.matches \ base` is new.
    fn admit_successor(&mut self, base: &MatchSet, s: AnalysisState) -> Option<TopReason> {
        self.matches.extend(s.matches.difference(base));
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
            &mut *self.observer,
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
        if !s.drop_empty_psets() {
            // A possibly-empty set would make matching unsound.
            // Keep going only if it never participates in a
            // match; conservatively we continue (matching demands
            // provable non-emptiness anyway).
        }
        let before = s.psets.len();
        self.domain.join(s);
        s.drop_empty_psets();
        if s.psets.len() < before {
            self.observer.on_merge(before, s.psets.len());
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
        self.domain.rename(s);
        // Re-saturate range bounds against the current facts so
        // loop-invariant aliases (e.g. a wavefront's own `id`)
        // are present before widening intersects alias sets.
        s.resaturate_ranges();
        // Close once more so the state is admitted transitively closed:
        // equal states then share one fingerprint (the O(1) dedup path),
        // and later match probes against it only read the bound matrix —
        // no matrix copy. A probe's first `&mut st.cg` still unshares
        // the graph through `Shared::deref_mut`, cloning its `vars` and
        // `index` (the matrix itself stays shared).
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
        let homes: Vec<(PsetId, CfgNodeId, Option<CfgNodeId>)> = s
            .psets
            .iter()
            .map(|p| (p.id, p.node, p.pending.as_ref().map(|pd| pd.node)))
            .collect();
        let is_dead = |v: VarId| {
            let (Some(ns), Some(name)) = (v.namespace(), v.name_index()) else {
                return false;
            };
            !v.is_rank_id()
                && homes.iter().any(|&(id, node, pending)| {
                    id == ns
                        && !self.live.is_live(node, name)
                        && !pending.is_some_and(|send| self.live.is_read(send, name))
                })
        };
        let mut dead: BTreeSet<VarId> =
            s.cg.variables()
                .iter()
                .copied()
                .chain(s.consts.iter().map(|(&v, _)| v))
                .chain(s.uniform.iter().copied())
                .filter(|&v| is_dead(v))
                .collect();
        if dead.is_empty() {
            return;
        }
        for p in &s.psets {
            for bound in [&p.range.lb, &p.range.ub] {
                let aliases = bound.exprs();
                if aliases
                    .iter()
                    .all(|e| e.var.is_some_and(|v| dead.contains(&v)))
                {
                    if let Some(first) = aliases.first().and_then(|e| e.var) {
                        dead.remove(&first);
                    }
                }
            }
        }
        s.project_out(|v| dead.contains(&v));
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
        self.observer.on_terminal(st);
    }

    fn record_match_event(&mut self, event: MatchEvent) {
        self.observer.on_match(&event);
        self.events.insert(event.to_string(), event);
    }
}
