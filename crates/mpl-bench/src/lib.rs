//! # mpl-bench — evaluation binaries
//!
//! Regenerates every table and figure of the paper's evaluation (see the
//! experiment index in `DESIGN.md`):
//!
//! * `cargo run -p mpl-bench --bin tables` — the untimed results (E1–E5,
//!   E10–E12): verdicts, matched topologies, Table I HSM derivations,
//!   the pattern/collective table, MPI-CFG precision and critical paths;
//! * `cargo run -p mpl-bench --bin profile --release` — every timed row:
//!   the §IX profile (E6), closure and program-size scaling (E7), the
//!   per-phase breakdown (E18) and, with `--ablation`, the closure and
//!   client ablations (E8).
//!
//! [`sample`] is the one timing loop `profile` uses and [`profiled_run`]
//! is one instrumented engine run. End-to-end timings of the `mpl`
//! binary (serving, batches) belong to `mpl-benchmark`.
//!
//! This crate installs a counting global allocator, so its binaries and
//! tests can report how many heap allocations a run makes
//! ([`allocations`]). The `mpl` binary keeps the plain system allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::iter::Sum;
use std::time::{Duration, Instant};

use mpl_cfg::Cfg;
use mpl_core::{analyze_cfg_with, AnalysisConfig, Client, EngineProfile, StatsObserver};
use mpl_domains::{stats, ClosureStats};

thread_local! {
    /// Heap allocations made on this thread (see [`allocations`]).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting every `alloc`, `alloc_zeroed` and
/// `realloc` on the calling thread.
struct CountingAlloc;

fn count_allocation() {
    // A const-initialized `Cell` has no destructor and never allocates;
    // `try_with` only fails while the thread is being torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`; counting touches
// only a thread-local integer.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap allocations (each `alloc`, `alloc_zeroed` and `realloc`) the
/// calling thread has made so far. A run's count is the difference of
/// two readings; it does not depend on timing, so it repeats exactly
/// from run to run once the run's names are interned.
#[must_use]
pub fn allocations() -> u64 {
    ALLOCATIONS.try_with(Cell::get).unwrap_or(0)
}

/// Samples [`sample`] takes of every row.
pub const SAMPLES: usize = 5;

/// The shortest sample [`sample`] takes. A call shorter than this is
/// repeated until a sample lasts about this long, so the stopwatch's own
/// cost stays under 0.1 % of it. The engine runs `profile` times take
/// longer (0.13 ms and up on a 2-vCPU x86-64 VM), so each of their
/// samples is normally a single run.
const MIN_SAMPLE: Duration = Duration::from_micros(100);

/// The samples of one row.
#[derive(Debug, Clone)]
pub struct Sampled<T> {
    /// Each sample's per-call time and the result of its last call,
    /// fastest first; never empty.
    samples: Vec<(Duration, T)>,
}

impl<T> Sampled<T> {
    /// The median sample: its per-call time and its last call's result.
    #[must_use]
    pub fn median(&self) -> &(Duration, T) {
        &self.samples[self.samples.len() / 2]
    }

    /// The fastest sample's per-call time.
    #[must_use]
    pub fn min(&self) -> Duration {
        self.samples[0].0
    }

    /// The interquartile range of the per-call times (nearest rank).
    #[must_use]
    pub fn iqr(&self) -> Duration {
        let rank = |quarter: usize| self.samples[(quarter * self.samples.len()).div_ceil(4) - 1].0;
        rank(3) - rank(1)
    }

    /// Whether every sample's result reports the same `counters`.
    pub fn agree<K: PartialEq>(&self, counters: impl Fn(&T) -> K) -> bool {
        let first = counters(&self.samples[0].1);
        self.samples
            .iter()
            .all(|(_, result)| counters(result) == first)
    }
}

/// Times `f`. One warm-up call calibrates how many calls make a sample
/// of at least `MIN_SAMPLE`; then each of [`SAMPLES`] samples times
/// that many calls with one stopwatch and keeps the last call's result.
pub fn sample<T>(mut f: impl FnMut() -> T) -> Sampled<T> {
    let start = Instant::now();
    std::hint::black_box(f());
    let once = start.elapsed().max(Duration::from_nanos(1));
    let iters = u32::try_from(MIN_SAMPLE.as_nanos().div_ceil(once.as_nanos())).unwrap_or(u32::MAX);
    let mut samples: Vec<(Duration, T)> = (0..SAMPLES)
        .map(|_| {
            let start = Instant::now();
            for _ in 1..iters {
                std::hint::black_box(f());
            }
            let last = f();
            (start.elapsed() / iters, last)
        })
        .collect();
    samples.sort_by_key(|(time, _)| *time);
    Sampled { samples }
}

/// One instrumented engine run, or the sum of several (see the [`Sum`]
/// impl).
#[derive(Debug, Clone, Default)]
pub struct ProfiledRun {
    /// Engine steps.
    pub steps: u64,
    /// Closure counters accumulated during the run.
    pub closure: ClosureStats,
    /// Bound matrices the run copied on write.
    pub matrix_copies: u64,
    /// Heap allocations the run made on its thread.
    pub allocations: u64,
    /// Per-phase breakdown of the worklist loop and store footprint
    /// (E18), timed by the engine's own clock.
    pub profile: EngineProfile,
}

/// The counters of one run that do not depend on timing: every run of
/// one program on one thread reports the same.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunCounters {
    /// Engine steps.
    steps: u64,
    /// Closure counts and variable sums (`closure_nanos` zeroed).
    closure: ClosureStats,
    /// Bound matrices copied on write.
    matrix_copies: u64,
    /// Heap allocations.
    allocations: u64,
    /// Locations the store held over the run.
    stored_locations: usize,
    /// Most locations the store held at once.
    stored_peak_live: usize,
}

impl ProfiledRun {
    /// Fraction of the worklist loop spent inside transitive closures —
    /// the paper's headline "92.5 %".
    #[must_use]
    pub fn closure_share(&self) -> f64 {
        if self.profile.total.is_zero() {
            return 0.0;
        }
        self.closure.closure_time().as_secs_f64() / self.profile.total.as_secs_f64()
    }

    /// Heap allocations per engine step.
    #[must_use]
    pub fn allocations_per_step(&self) -> f64 {
        self.allocations as f64 / self.steps.max(1) as f64
    }

    /// The run's timing-independent counters.
    #[must_use]
    pub fn counters(&self) -> RunCounters {
        RunCounters {
            steps: self.steps,
            closure: ClosureStats {
                closure_nanos: 0,
                ..self.closure
            },
            matrix_copies: self.matrix_copies,
            allocations: self.allocations,
            stored_locations: self.profile.stored.locations,
            stored_peak_live: self.profile.stored.peak_live,
        }
    }
}

/// Sums runs over a program set: every counter and phase timer adds up,
/// except the store's high-water mark and the widest frontier, which are
/// the largest of the runs'.
impl Sum for ProfiledRun {
    fn sum<I: Iterator<Item = ProfiledRun>>(runs: I) -> ProfiledRun {
        runs.fold(ProfiledRun::default(), |mut acc, run| {
            acc.steps += run.steps;
            let (c, d) = (&mut acc.closure, run.closure);
            c.full_closures += d.full_closures;
            c.full_closure_vars += d.full_closure_vars;
            c.incremental_closures += d.incremental_closures;
            c.incremental_closure_vars += d.incremental_closure_vars;
            c.closure_nanos += d.closure_nanos;
            acc.matrix_copies += run.matrix_copies;
            acc.allocations += run.allocations;
            let (p, q) = (&mut acc.profile, run.profile);
            p.transfer += q.transfer;
            p.matching += q.matching;
            p.join_widen += q.join_widen;
            p.admission += q.admission;
            p.total += q.total;
            p.stored.locations += q.stored.locations;
            p.stored.peak_live = p.stored.peak_live.max(q.stored.peak_live);
            p.stored.approx_bytes += q.stored.approx_bytes;
            p.rounds += q.rounds;
            p.frontier_total += q.frontier_total;
            p.frontier_peak = p.frontier_peak.max(q.frontier_peak);
            acc
        })
    }
}

/// Runs the engine over `cfg` under `client` with closure and phase
/// instrumentation.
///
/// The closure counters are the engine's per-run delta
/// ([`mpl_core::AnalysisResult::closure_stats`]); the matrix copies and
/// allocations are deltas of the thread's counters, so earlier work on
/// the thread never needs a reset. The allocations span the whole
/// analysis, configuration and result included, but not building `cfg`.
#[must_use]
pub fn profiled_run(cfg: &Cfg, client: Client) -> ProfiledRun {
    let allocations_before = allocations();
    let config = AnalysisConfig::builder()
        .client(client)
        .build()
        .expect("default-based config is valid");
    let mut observer = StatsObserver::new();
    let copies_before = stats::matrix_copies();
    let result = analyze_cfg_with(cfg, &config, &mut observer);
    let matrix_copies = stats::matrix_copies() - copies_before;
    let profile = observer
        .profile()
        .copied()
        .expect("StatsObserver captures the engine profile on completion");
    ProfiledRun {
        steps: result.steps,
        closure: result.closure_stats,
        matrix_copies,
        profile,
        allocations: allocations() - allocations_before,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpl_lang::corpus;

    #[test]
    fn repeated_runs_on_one_thread_report_equal_counters() {
        for prog in [corpus::fig2_exchange(), corpus::repeated_exchanges(64)] {
            let cfg = Cfg::build(&prog.program);
            // The first run interns the program's variable names, which
            // allocates once per process.
            let _ = profiled_run(&cfg, Client::Simple);
            let first = profiled_run(&cfg, Client::Simple).counters();
            let second = profiled_run(&cfg, Client::Simple).counters();
            assert_eq!(first, second, "{}", prog.name);
            assert!(first.steps > 0 && first.stored_peak_live > 0, "{first:?}");
            assert!(first.allocations > 0, "{first:?}");
        }
    }
}
