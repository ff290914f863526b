//! The process machine: states, schedules, channels and the run loop.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::error::Error;
use std::fmt;

use mpl_cfg::{Cfg, CfgNode, CfgNodeId, EdgeKind};
use mpl_lang::ast::{Expr, Program};
use mpl_rng::Rng64;

/// How `send` behaves (paper §III).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SendMode {
    /// Non-blocking sends with unbounded in-flight messages — the paper's
    /// base execution model.
    #[default]
    Buffered,
    /// Blocking (rendezvous) sends — the simplification the static
    /// analysis adopts. A send completes only when its receiver is parked
    /// at the matching `recv`.
    Rendezvous,
}

/// Which process to step next.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Schedule {
    /// Cycle through runnable processes in rank order.
    #[default]
    RoundRobin,
    /// Pick a uniformly random runnable process, seeded for
    /// reproducibility. Used to test interleaving-obliviousness.
    Random { seed: u64 },
}

/// Simulator configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Send semantics.
    pub send_mode: SendMode,
    /// Scheduling policy.
    pub schedule: Schedule,
    /// Abort after this many total steps (guards accidental infinite
    /// loops in test programs).
    pub max_steps: u64,
    /// Initial variable bindings installed in every process' store —
    /// used to give concrete values to symbolic parameters such as
    /// `nrows` when running the symbolic corpus programs.
    pub initial_vars: BTreeMap<String, i64>,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            send_mode: SendMode::Buffered,
            schedule: Schedule::RoundRobin,
            max_steps: 1_000_000,
            initial_vars: BTreeMap::new(),
        }
    }
}

/// A runtime error that aborts the whole run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// Read of a variable that was never assigned.
    UninitializedVariable { rank: u64, name: String },
    /// Division or modulus by zero.
    DivisionByZero { rank: u64 },
    /// An `assume` evaluated to false at runtime.
    AssumeViolated { rank: u64, expr: String },
    /// A send/recv partner expression evaluated outside `0..np`.
    PartnerOutOfRange { rank: u64, partner: i64, np: u64 },
    /// The step budget was exhausted (probable infinite loop).
    StepLimitExceeded { limit: u64 },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::UninitializedVariable { rank, name } => {
                write!(f, "rank {rank}: read of uninitialized variable `{name}`")
            }
            ExecError::DivisionByZero { rank } => write!(f, "rank {rank}: division by zero"),
            ExecError::AssumeViolated { rank, expr } => {
                write!(f, "rank {rank}: assume violated: {expr}")
            }
            ExecError::PartnerOutOfRange { rank, partner, np } => {
                write!(f, "rank {rank}: partner {partner} outside 0..{np}")
            }
            ExecError::StepLimitExceeded { limit } => {
                write!(f, "step limit of {limit} exceeded")
            }
        }
    }
}

impl Error for ExecError {}

/// How a run ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunStatus {
    /// Every process reached the exit node.
    Completed,
    /// No process could make progress; lists (rank, blocked CFG node).
    Deadlock { blocked: Vec<(u64, CfgNodeId)> },
}

/// A message left undelivered at the end of a run (a *message leak* in the
/// paper's terminology).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct LeakedMessage {
    /// The send statement.
    pub send_node: CfgNodeId,
    /// Sending rank.
    pub sender: u64,
    /// Intended receiving rank.
    pub receiver: u64,
}

/// The result of a completed (or deadlocked) run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// Terminal status.
    pub status: RunStatus,
    /// Final variable store of each rank.
    pub stores: Vec<BTreeMap<String, i64>>,
    /// Values printed by each rank, in program order.
    pub prints: Vec<Vec<i64>>,
    /// Observed communication topology.
    pub topology: crate::topology::RuntimeTopology,
    /// Messages sent but never received.
    pub leaks: Vec<LeakedMessage>,
    /// Total scheduler steps taken.
    pub steps: u64,
    /// Per-rank logical communication clocks: each send ticks the
    /// sender's clock; each receive advances to one past the maximum of
    /// the receiver's clock and the message's timestamp. Deterministic
    /// under any schedule (interleaving-obliviousness extends to them).
    pub clocks: Vec<u64>,
}

impl Outcome {
    /// True if every process terminated normally.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.status == RunStatus::Completed
    }

    /// The communication critical path (makespan in message hops): the
    /// maximum logical clock over all ranks. The exchange-with-root of
    /// Fig 1 has a Θ(np) critical path while the transpose is Θ(1) —
    /// the quantitative case for collective replacement (§I).
    #[must_use]
    pub fn critical_path(&self) -> u64 {
        self.clocks.iter().copied().max().unwrap_or(0)
    }
}

struct Proc {
    pc: CfgNodeId,
    store: BTreeMap<String, i64>,
    prints: Vec<i64>,
    clock: u64,
}

struct InFlight {
    value: i64,
    send_node: CfgNodeId,
    /// Sender's logical clock at the moment of sending.
    stamp: u64,
}

/// Drives an MPL program on `np` simulated processes.
///
/// The simulator owns a private copy of the program's CFG; use
/// [`Simulator::from_cfg`] to share one with a static analysis so that
/// node ids line up between the runtime topology and static matches.
pub struct Simulator {
    cfg: Cfg,
    np: u64,
    config: SimConfig,
}

impl Simulator {
    /// Creates a simulator for `program` on `np` processes with default
    /// configuration.
    ///
    /// # Panics
    ///
    /// Panics if `np == 0`.
    #[must_use]
    pub fn new(program: &Program, np: u64) -> Simulator {
        Simulator::from_cfg(Cfg::build(program), np)
    }

    /// Creates a simulator over an existing CFG (so node ids match a
    /// static analysis of the same graph).
    ///
    /// # Panics
    ///
    /// Panics if `np == 0`.
    #[must_use]
    pub fn from_cfg(cfg: Cfg, np: u64) -> Simulator {
        assert!(np > 0, "need at least one process");
        Simulator {
            cfg,
            np,
            config: SimConfig::default(),
        }
    }

    /// Replaces the configuration.
    #[must_use]
    pub fn with_config(mut self, config: SimConfig) -> Simulator {
        self.config = config;
        self
    }

    /// The CFG this simulator executes.
    #[must_use]
    pub fn cfg(&self) -> &Cfg {
        &self.cfg
    }

    /// Runs the program to completion, deadlock, or error.
    ///
    /// # Errors
    ///
    /// Returns an [`ExecError`] if any process performs an invalid
    /// operation (uninitialized read, division by zero, out-of-range
    /// partner, violated `assume`) or the step budget is exhausted.
    pub fn run(&self) -> Result<Outcome, ExecError> {
        let np = self.np;
        let mut procs: Vec<Proc> = (0..np)
            .map(|_| Proc {
                pc: self.cfg.entry(),
                store: self.config.initial_vars.clone(),
                prints: Vec::new(),
                clock: 0,
            })
            .collect();
        let mut channels: HashMap<(u64, u64), VecDeque<InFlight>> = HashMap::new();
        let mut topology = crate::topology::RuntimeTopology::new();
        let mut rng = match self.config.schedule {
            Schedule::Random { seed } => Some(Rng64::seed_from_u64(seed)),
            Schedule::RoundRobin => None,
        };

        let mut steps: u64 = 0;
        let mut rr_next: u64 = 0;
        loop {
            // Collect processes that can take a step right now.
            let mut runnable: Vec<u64> = Vec::new();
            for rank in 0..np {
                if self.can_step(rank, &procs, &channels)? {
                    runnable.push(rank);
                }
            }

            if runnable.is_empty() {
                let all_done = procs.iter().all(|p| p.pc == self.cfg.exit());
                let status = if all_done {
                    RunStatus::Completed
                } else {
                    let blocked = procs
                        .iter()
                        .enumerate()
                        .filter(|(_, p)| p.pc != self.cfg.exit())
                        .map(|(r, p)| (r as u64, p.pc))
                        .collect();
                    RunStatus::Deadlock { blocked }
                };
                let mut leaks: Vec<LeakedMessage> = Vec::new();
                for (&(s, r), q) in &channels {
                    for m in q {
                        leaks.push(LeakedMessage {
                            send_node: m.send_node,
                            sender: s,
                            receiver: r,
                        });
                    }
                }
                leaks.sort_unstable();
                return Ok(Outcome {
                    status,
                    stores: procs.iter().map(|p| p.store.clone()).collect(),
                    prints: procs.iter().map(|p| p.prints.clone()).collect(),
                    topology,
                    leaks,
                    steps,
                    clocks: procs.iter().map(|p| p.clock).collect(),
                });
            }

            let rank = match &mut rng {
                Some(rng) => runnable[rng.index(runnable.len())],
                None => {
                    // Round-robin: first runnable at or after `rr_next`.
                    let pick = runnable
                        .iter()
                        .copied()
                        .find(|&r| r >= rr_next)
                        .unwrap_or(runnable[0]);
                    rr_next = (pick + 1) % np;
                    pick
                }
            };

            self.step(rank, &mut procs, &mut channels, &mut topology)?;
            steps += 1;
            if steps >= self.config.max_steps {
                return Err(ExecError::StepLimitExceeded {
                    limit: self.config.max_steps,
                });
            }
        }
    }

    /// Whether `rank` can currently take a step.
    fn can_step(
        &self,
        rank: u64,
        procs: &[Proc],
        channels: &HashMap<(u64, u64), VecDeque<InFlight>>,
    ) -> Result<bool, ExecError> {
        let p = &procs[rank as usize];
        Ok(match self.cfg.node(p.pc) {
            CfgNode::Exit => false,
            CfgNode::Recv { src, .. } => {
                let src = self.eval_partner(rank, src, &p.store)?;
                channels.get(&(src, rank)).is_some_and(|q| !q.is_empty())
            }
            CfgNode::Send { dest, .. } => match self.config.send_mode {
                SendMode::Buffered => true,
                SendMode::Rendezvous => {
                    let dest = self.eval_partner(rank, dest, &p.store)?;
                    // The receiver must be parked at a recv naming us.
                    let recv = &procs[dest as usize];
                    match self.cfg.node(recv.pc) {
                        CfgNode::Recv { src, .. } => {
                            self.eval_partner(dest, src, &recv.store)? == rank
                        }
                        _ => false,
                    }
                }
            },
            _ => true,
        })
    }

    /// Executes one step of `rank`. Must only be called when
    /// [`Simulator::can_step`] returned true.
    fn step(
        &self,
        rank: u64,
        procs: &mut [Proc],
        channels: &mut HashMap<(u64, u64), VecDeque<InFlight>>,
        topology: &mut crate::topology::RuntimeTopology,
    ) -> Result<(), ExecError> {
        let pc = procs[rank as usize].pc;
        match self.cfg.node(pc).clone() {
            CfgNode::Entry | CfgNode::Skip => {
                procs[rank as usize].pc = self.cfg.sole_succ(pc);
            }
            CfgNode::Exit => unreachable!("exit is never runnable"),
            CfgNode::Assign { name, value } => {
                let v = self.eval(rank, &value, &procs[rank as usize].store)?;
                let p = &mut procs[rank as usize];
                p.store.insert(name, v);
                p.pc = self.cfg.sole_succ(pc);
            }
            CfgNode::Print(e) => {
                let v = self.eval(rank, &e, &procs[rank as usize].store)?;
                let p = &mut procs[rank as usize];
                p.prints.push(v);
                p.pc = self.cfg.sole_succ(pc);
            }
            CfgNode::Assume(e) => {
                let v = self.eval(rank, &e, &procs[rank as usize].store)?;
                if v == 0 {
                    return Err(ExecError::AssumeViolated {
                        rank,
                        expr: e.to_string(),
                    });
                }
                procs[rank as usize].pc = self.cfg.sole_succ(pc);
            }
            CfgNode::Branch { cond } => {
                let v = self.eval(rank, &cond, &procs[rank as usize].store)?;
                let kind = if v != 0 {
                    EdgeKind::True
                } else {
                    EdgeKind::False
                };
                let next = self
                    .cfg
                    .succ_along(pc, kind)
                    .expect("branch node missing labelled successor");
                procs[rank as usize].pc = next;
            }
            CfgNode::Send { value, dest } => {
                let v = self.eval(rank, &value, &procs[rank as usize].store)?;
                let dest = self.eval_partner(rank, &dest, &procs[rank as usize].store)?;
                match self.config.send_mode {
                    SendMode::Buffered => {
                        procs[rank as usize].clock += 1;
                        let stamp = procs[rank as usize].clock;
                        channels
                            .entry((rank, dest))
                            .or_default()
                            .push_back(InFlight {
                                value: v,
                                send_node: pc,
                                stamp,
                            });
                        procs[rank as usize].pc = self.cfg.sole_succ(pc);
                    }
                    SendMode::Rendezvous => {
                        // can_step guaranteed the receiver is parked at a
                        // matching recv; transfer directly and advance both.
                        let recv_pc = procs[dest as usize].pc;
                        let CfgNode::Recv { var, .. } = self.cfg.node(recv_pc).clone() else {
                            unreachable!("rendezvous receiver not at recv");
                        };
                        topology.record(crate::topology::TopologyEdge {
                            send_node: pc,
                            recv_node: recv_pc,
                            sender: rank,
                            receiver: dest,
                        });
                        procs[rank as usize].clock += 1;
                        let stamp = procs[rank as usize].clock;
                        procs[dest as usize].clock = procs[dest as usize].clock.max(stamp) + 1;
                        procs[dest as usize].store.insert(var, v);
                        procs[dest as usize].pc = self.cfg.sole_succ(recv_pc);
                        procs[rank as usize].pc = self.cfg.sole_succ(pc);
                    }
                }
            }
            CfgNode::Recv { var, src } => {
                let src = self.eval_partner(rank, &src, &procs[rank as usize].store)?;
                let m = channels
                    .get_mut(&(src, rank))
                    .and_then(VecDeque::pop_front)
                    .expect("recv stepped with empty channel");
                topology.record(crate::topology::TopologyEdge {
                    send_node: m.send_node,
                    recv_node: pc,
                    sender: src,
                    receiver: rank,
                });
                let p = &mut procs[rank as usize];
                p.clock = p.clock.max(m.stamp) + 1;
                p.store.insert(var, m.value);
                p.pc = self.cfg.sole_succ(pc);
            }
        }
        Ok(())
    }

    fn eval_partner(
        &self,
        rank: u64,
        expr: &Expr,
        store: &BTreeMap<String, i64>,
    ) -> Result<u64, ExecError> {
        let v = self.eval(rank, expr, store)?;
        if v < 0 || (v as u64) >= self.np {
            return Err(ExecError::PartnerOutOfRange {
                rank,
                partner: v,
                np: self.np,
            });
        }
        // Self-messages are legal (a buffered send to oneself, as on the
        // diagonal of a transpose exchange); under rendezvous semantics a
        // self-send can never complete and surfaces as deadlock.
        Ok(v as u64)
    }

    fn eval(
        &self,
        rank: u64,
        expr: &Expr,
        store: &BTreeMap<String, i64>,
    ) -> Result<i64, ExecError> {
        Ok(match expr {
            Expr::Int(n) => *n,
            Expr::Bool(b) => i64::from(*b),
            Expr::Id => rank as i64,
            Expr::Np => self.np as i64,
            Expr::Var(name) => {
                *store
                    .get(name)
                    .ok_or_else(|| ExecError::UninitializedVariable {
                        rank,
                        name: name.clone(),
                    })?
            }
            Expr::Unary(op, e) => op.eval(self.eval(rank, e, store)?),
            Expr::Binary(op, l, r) => {
                let l = self.eval(rank, l, store)?;
                let r = self.eval(rank, r, store)?;
                op.eval(l, r).ok_or(ExecError::DivisionByZero { rank })?
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpl_lang::corpus;
    use mpl_lang::parse_program;

    fn run(src: &str, np: u64) -> Outcome {
        Simulator::new(&parse_program(src).unwrap(), np)
            .run()
            .unwrap()
    }

    #[test]
    fn fig2_exchange_prints_five_on_both() {
        let out = run(&corpus::fig2_exchange().source, 4);
        assert!(out.is_complete());
        assert_eq!(out.prints[0], vec![5]);
        assert_eq!(out.prints[1], vec![5]);
        assert!(out.prints[2].is_empty());
        assert_eq!(out.topology.rank_pairs().len(), 2);
        assert!(out.leaks.is_empty());
    }

    #[test]
    fn exchange_with_root_topology() {
        let out = run(&corpus::exchange_with_root().source, 5);
        assert!(out.is_complete());
        let pairs = out.topology.rank_pairs();
        for i in 1..5 {
            assert!(pairs.contains(&(0, i)), "missing 0->{i}");
            assert!(pairs.contains(&(i, 0)), "missing {i}->0");
        }
        assert_eq!(pairs.len(), 8);
    }

    #[test]
    fn fanout_broadcast_delivers_to_all() {
        let out = run(&corpus::fanout_broadcast().source, 6);
        assert!(out.is_complete());
        let pairs = out.topology.rank_pairs();
        assert_eq!(pairs.len(), 5);
        for i in 1..6 {
            assert_eq!(out.stores[i as usize]["y"], 42);
        }
    }

    #[test]
    fn gather_collects_from_all() {
        let out = run(&corpus::gather_to_root().source, 5);
        assert!(out.is_complete());
        assert_eq!(out.topology.rank_pairs().len(), 4);
    }

    #[test]
    fn nearest_neighbor_shift_propagates_left_values() {
        let out = run(&corpus::nearest_neighbor_shift().source, 6);
        assert!(out.is_complete());
        for i in 1..6usize {
            assert_eq!(out.stores[i]["y"], i as i64 - 1);
        }
        assert_eq!(out.topology.rank_pairs().len(), 5);
    }

    #[test]
    fn nas_cg_square_transpose_runs() {
        let p = corpus::nas_cg_transpose_square(corpus::GridDims::Concrete { nrows: 3, ncols: 3 });
        let out = Simulator::new(&p.program, 9).run().unwrap();
        assert!(out.is_complete());
        // Every process receives its transpose partner's rank (diagonal
        // ranks exchange with themselves via a buffered self-send).
        for rank in 0..9i64 {
            let partner = (rank % 3) * 3 + rank / 3;
            assert_eq!(out.stores[rank as usize]["y"], partner, "rank {rank}");
        }
        assert!(out.leaks.is_empty());
    }

    #[test]
    fn nas_cg_rect_transpose_runs() {
        let p = corpus::nas_cg_transpose_rect(corpus::GridDims::Concrete { nrows: 2, ncols: 4 });
        let out = Simulator::new(&p.program, 8).run().unwrap();
        assert!(out.is_complete());
        for rank in 0..8i64 {
            let f = |p: i64| 2 * 2 * ((p / 2) % 2) + 2 * (p / 4) + p % 2;
            assert_eq!(out.stores[rank as usize]["y"], f(rank), "rank {rank}");
        }
        assert!(out.leaks.is_empty());
    }

    #[test]
    fn ring_uniform_completes_buffered_but_deadlocks_rendezvous() {
        let p = corpus::ring_uniform();
        let out = Simulator::new(&p.program, 4).run().unwrap();
        assert!(out.is_complete());
        assert_eq!(out.topology.rank_pairs().len(), 4);

        let cfg_out = Simulator::new(&p.program, 4)
            .with_config(SimConfig {
                send_mode: SendMode::Rendezvous,
                ..SimConfig::default()
            })
            .run()
            .unwrap();
        // With blocking sends every process is stuck at `send`.
        assert!(matches!(cfg_out.status, RunStatus::Deadlock { .. }));
    }

    #[test]
    fn deadlock_pair_detected() {
        let out = run(&corpus::deadlock_pair().source, 2);
        let RunStatus::Deadlock { blocked } = &out.status else {
            panic!("expected deadlock")
        };
        assert_eq!(blocked.len(), 2);
    }

    #[test]
    fn message_leak_detected() {
        let out = run(&corpus::message_leak().source, 3);
        assert!(out.is_complete());
        assert_eq!(out.leaks.len(), 1);
        assert_eq!(out.leaks[0].sender, 0);
        assert_eq!(out.leaks[0].receiver, 1);
    }

    #[test]
    fn const_relay_prints_eleven_everywhere() {
        let out = run(&corpus::const_relay().source, 3);
        assert!(out.is_complete());
        for rank in 0..3 {
            assert_eq!(out.prints[rank], vec![11]);
        }
    }

    #[test]
    fn round_robin_and_random_schedules_agree() {
        // Interleaving-obliviousness (paper Appendix): final stores,
        // prints and topology are schedule-independent.
        for prog in [
            corpus::exchange_with_root(),
            corpus::fanout_broadcast(),
            corpus::nearest_neighbor_shift(),
            corpus::ring_conditional(),
        ] {
            let base = Simulator::new(&prog.program, 5).run().unwrap();
            for seed in 0..10 {
                let alt = Simulator::new(&prog.program, 5)
                    .with_config(SimConfig {
                        schedule: Schedule::Random { seed },
                        ..SimConfig::default()
                    })
                    .run()
                    .unwrap();
                assert_eq!(base.stores, alt.stores, "{} seed {seed}", prog.name);
                assert_eq!(base.prints, alt.prints, "{} seed {seed}", prog.name);
                assert_eq!(base.topology, alt.topology, "{} seed {seed}", prog.name);
            }
        }
    }

    #[test]
    fn rendezvous_matches_buffered_for_paired_patterns() {
        for prog in [
            corpus::fig2_exchange(),
            corpus::exchange_with_root(),
            corpus::fanout_broadcast(),
        ] {
            let buffered = Simulator::new(&prog.program, 4).run().unwrap();
            let rendezvous = Simulator::new(&prog.program, 4)
                .with_config(SimConfig {
                    send_mode: SendMode::Rendezvous,
                    ..SimConfig::default()
                })
                .run()
                .unwrap();
            assert!(rendezvous.is_complete(), "{}", prog.name);
            assert_eq!(buffered.topology, rendezvous.topology, "{}", prog.name);
        }
    }

    #[test]
    fn uninitialized_read_is_an_error() {
        let err = Simulator::new(&parse_program("y := q + 1;").unwrap(), 2)
            .run()
            .unwrap_err();
        assert!(matches!(err, ExecError::UninitializedVariable { .. }));
    }

    #[test]
    fn division_by_zero_is_an_error() {
        let err = Simulator::new(&parse_program("x := 1 / 0;").unwrap(), 1)
            .run()
            .unwrap_err();
        assert!(matches!(err, ExecError::DivisionByZero { .. }));
    }

    #[test]
    fn assume_violation_is_an_error() {
        let err = Simulator::new(&parse_program("assume np = 3;").unwrap(), 2)
            .run()
            .unwrap_err();
        assert!(matches!(err, ExecError::AssumeViolated { .. }));
    }

    #[test]
    fn partner_out_of_range_is_an_error() {
        let err = Simulator::new(&parse_program("send 1 -> np;").unwrap(), 2)
            .run()
            .unwrap_err();
        assert!(matches!(err, ExecError::PartnerOutOfRange { .. }));
    }

    #[test]
    fn step_limit_catches_infinite_loop() {
        let config = SimConfig {
            max_steps: 1000,
            ..SimConfig::default()
        };
        let err = run_cfg_err(config, "while true do skip; end", 1);
        assert!(matches!(err, ExecError::StepLimitExceeded { .. }));
    }

    fn run_cfg_err(config: SimConfig, src: &str, np: u64) -> ExecError {
        Simulator::new(&parse_program(src).unwrap(), np)
            .with_config(config)
            .run()
            .unwrap_err()
    }

    #[test]
    fn initial_vars_parameterize_symbolic_programs() {
        let p = corpus::stencil_2d_vertical(corpus::GridDims::Symbolic);
        let mut initial = BTreeMap::new();
        initial.insert("nrows".to_owned(), 3i64);
        initial.insert("ncols".to_owned(), 3i64);
        let out = Simulator::new(&p.program, 9)
            .with_config(SimConfig {
                initial_vars: initial,
                ..SimConfig::default()
            })
            .run()
            .unwrap();
        assert!(out.is_complete());
        // 2 rows of 3 senders each.
        assert_eq!(out.topology.rank_pairs().len(), 6);
    }

    #[test]
    fn deterministic_prints_are_in_program_order() {
        let out = run("print 1; print 2; print 3;", 2);
        assert_eq!(out.prints[0], vec![1, 2, 3]);
        assert_eq!(out.prints[1], vec![1, 2, 3]);
    }

    #[test]
    fn run_reports_step_counts() {
        let out = run("x := 1;", 3);
        assert!(out.steps >= 3);
    }
}

#[cfg(test)]
mod clock_tests {
    use super::*;
    use mpl_lang::corpus;

    fn path(prog: &corpus::CorpusProgram, np: u64) -> u64 {
        Simulator::new(&prog.program, np)
            .run()
            .unwrap()
            .critical_path()
    }

    #[test]
    fn exchange_with_root_critical_path_is_linear() {
        // The root serializes 2 communications per partner.
        let prog = corpus::exchange_with_root();
        let p8 = path(&prog, 8);
        let p16 = path(&prog, 16);
        assert!(p8 >= 14, "got {p8}");
        assert!(
            p16 >= 2 * p8 - 4,
            "p8={p8} p16={p16}: expected linear growth"
        );
    }

    #[test]
    fn transpose_critical_path_is_constant() {
        for nrows in [2i64, 3, 4] {
            let prog = corpus::nas_cg_transpose_square(corpus::GridDims::Concrete {
                nrows,
                ncols: nrows,
            });
            let p = path(&prog, (nrows * nrows) as u64);
            assert!(p <= 3, "transpose should be O(1) hops, got {p}");
        }
    }

    #[test]
    fn shift_critical_path_is_linear_chain() {
        // Each hop depends on the previous one.
        let prog = corpus::nearest_neighbor_shift();
        assert!(path(&prog, 6) >= 6);
        assert!(path(&prog, 12) >= 12);
    }

    #[test]
    fn clocks_are_schedule_independent() {
        let prog = corpus::mdcask_full();
        let base = Simulator::new(&prog.program, 6).run().unwrap();
        for seed in 0..8 {
            let alt = Simulator::new(&prog.program, 6)
                .with_config(SimConfig {
                    schedule: Schedule::Random { seed },
                    ..SimConfig::default()
                })
                .run()
                .unwrap();
            assert_eq!(base.clocks, alt.clocks, "seed {seed}");
        }
    }

    #[test]
    fn no_comm_means_zero_critical_path() {
        let p = mpl_lang::parse_program("x := 1; print x;").unwrap();
        let out = Simulator::new(&p, 4).run().unwrap();
        assert_eq!(out.critical_path(), 0);
    }
}

#[cfg(test)]
mod fifo_tests {
    use super::*;
    use mpl_lang::parse_program;

    #[test]
    fn same_pair_messages_arrive_in_fifo_order() {
        // Rank 0 sends 10 then 20 to rank 1; FIFO guarantees a=10, b=20.
        let src = "\
            if id = 0 then\n  send 10 -> 1;\n  send 20 -> 1;\n\
            else\n  if id = 1 then\n    recv a <- 0;\n    recv b <- 0;\n  end\nend\n";
        let out = Simulator::new(&parse_program(src).unwrap(), 2)
            .run()
            .unwrap();
        assert!(out.is_complete());
        assert_eq!(out.stores[1]["a"], 10);
        assert_eq!(out.stores[1]["b"], 20);
    }

    #[test]
    fn fifo_holds_under_random_schedules() {
        let src = "\
            if id = 0 then\n  send 1 -> 1;\n  send 2 -> 1;\n  send 3 -> 1;\n\
            else\n  if id = 1 then\n    recv a <- 0;\n    recv b <- 0;\n    recv c <- 0;\n  end\nend\n";
        let program = parse_program(src).unwrap();
        for seed in 0..16 {
            let out = Simulator::new(&program, 3)
                .with_config(SimConfig {
                    schedule: Schedule::Random { seed },
                    ..SimConfig::default()
                })
                .run()
                .unwrap();
            assert_eq!(out.stores[1]["a"], 1, "seed {seed}");
            assert_eq!(out.stores[1]["b"], 2, "seed {seed}");
            assert_eq!(out.stores[1]["c"], 3, "seed {seed}");
        }
    }

    #[test]
    fn self_send_buffered_works_rendezvous_deadlocks() {
        let src = "if id = 0 then send 7 -> 0; recv z <- 0; end";
        let program = parse_program(src).unwrap();
        let buffered = Simulator::new(&program, 2).run().unwrap();
        assert!(buffered.is_complete());
        assert_eq!(buffered.stores[0]["z"], 7);
        let rendezvous = Simulator::new(&program, 2)
            .with_config(SimConfig {
                send_mode: SendMode::Rendezvous,
                ..SimConfig::default()
            })
            .run()
            .unwrap();
        assert!(matches!(rendezvous.status, RunStatus::Deadlock { .. }));
    }

    #[test]
    fn interleaved_pairs_do_not_mix_channels() {
        // Channels are per-pair: messages 0->2 and 1->2 interleave but
        // each pair's stream stays ordered.
        let src = "\
            if id = 0 then\n  send 100 -> 2;\n  send 101 -> 2;\nelse\n\
            if id = 1 then\n  send 200 -> 2;\n  send 201 -> 2;\nelse\n\
            if id = 2 then\n  recv a <- 0;\n  recv b <- 1;\n  recv c <- 0;\n  recv d <- 1;\nend end end\n";
        let out = Simulator::new(&parse_program(src).unwrap(), 3)
            .run()
            .unwrap();
        assert!(out.is_complete());
        assert_eq!(out.stores[2]["a"], 100);
        assert_eq!(out.stores[2]["b"], 200);
        assert_eq!(out.stores[2]["c"], 101);
        assert_eq!(out.stores[2]["d"], 201);
    }
}
