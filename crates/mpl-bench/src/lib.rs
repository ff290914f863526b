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
//! ([`allocations`]) and how much heap a call holds at its peak and
//! keeps ([`heap_use`]; per layer of one cold analysis, E29's
//! [`heap_layers`]). The `mpl` binary keeps the plain system allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::iter::Sum;
use std::time::{Duration, Instant};

use mpl_cfg::Cfg;
use mpl_core::{
    analyze_cfg, analyze_cfg_with, json_escape, AnalysisConfig, AnalysisService, Client,
    EngineProfile, ServiceConfig, StatsObserver,
};
use mpl_domains::{stats, ClosureStats};
use mpl_lang::parse_program;

thread_local! {
    /// Heap allocations made on this thread (see [`allocations`]).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Heap bytes allocated on this thread less those freed on it (see
    /// [`heap_use`]).
    static LIVE: Cell<i64> = const { Cell::new(0) };
    /// The most `LIVE` has been since [`heap_use`] last reset it.
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

/// The system allocator, counting every `alloc`, `alloc_zeroed` and
/// `realloc` on the calling thread, and the bytes each adds to or
/// frees from the thread's live heap.
struct CountingAlloc;

fn count_allocation(grown: i64) {
    // A const-initialized `Cell` has no destructor and never allocates;
    // `try_with` only fails while the thread is being torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    count_bytes(grown);
}

fn count_bytes(grown: i64) {
    let _ = LIVE.try_with(|live| {
        let now = live.get() + grown;
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

fn size(bytes: usize) -> i64 {
    i64::try_from(bytes).unwrap_or(i64::MAX)
}

// SAFETY: every call is forwarded unchanged to `System`; counting touches
// only thread-local integers.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation(size(layout.size()));
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_allocation(size(layout.size()));
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation(size(new_size) - size(layout.size()));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count_bytes(-size(layout.size()));
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

/// The heap one call used on its thread, in bytes requested from the
/// allocator (a `realloc` counts as the change of its size).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeapUse {
    /// The most the thread's live heap rose above its level at the call.
    pub peak: i64,
    /// How far above that level the live heap ended: what the call's
    /// result, and anything else it kept, holds.
    pub retained: i64,
}

/// Calls `f` and measures the heap it used on the calling thread. Calls
/// nest: an enclosing [`heap_use`] still sees the inner call's peak.
pub fn heap_use<T>(f: impl FnOnce() -> T) -> (T, HeapUse) {
    let live = || LIVE.try_with(Cell::get).unwrap_or(0);
    let peak = || PEAK.try_with(Cell::get).unwrap_or(0);
    let set_peak = |bytes: i64| {
        let _ = PEAK.try_with(|peak| peak.set(bytes));
    };
    let (outer_peak, start) = (peak(), live());
    set_peak(start);
    let out = f();
    let (inner_peak, end) = (peak(), live());
    set_peak(outer_peak.max(inner_peak));
    let heap = HeapUse {
        peak: inner_peak - start,
        retained: end - start,
    };
    (out, heap)
}

/// The heap each layer of one cold analysis of a source used (E29).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeapRow {
    /// Source bytes.
    pub source: usize,
    /// `parse_program`: its peak, and the AST it returns.
    pub parse: HeapUse,
    /// `Cfg::build` from that AST.
    pub cfg: HeapUse,
    /// The graph's node count.
    pub nodes: usize,
    /// `analyze_cfg` over that graph under the default configuration:
    /// its peak above the AST and CFG, and the result it returns.
    pub engine: Option<HeapUse>,
    /// One `analyze` request line for the source, handled by a service
    /// with an empty cache, as the daemon's connection thread does.
    pub request: Option<HeapUse>,
}

impl HeapRow {
    /// The CFG's bytes per node.
    #[must_use]
    pub fn cfg_bytes_per_node(&self) -> f64 {
        self.cfg.retained as f64 / self.nodes.max(1) as f64
    }

    /// The parse's peak over the AST it keeps.
    #[must_use]
    pub fn parse_over_ast(&self) -> f64 {
        self.parse.peak as f64 / self.parse.retained.max(1) as f64
    }

    /// The cold request's peak over the AST kept, the CFG kept and the
    /// engine's peak summed, or `None` on a row without an engine run.
    /// The request holds all three at once, and so reads 1 or more, if
    /// its AST is alive under the engine.
    #[must_use]
    pub fn request_over_layers(&self) -> Option<f64> {
        let (engine, request) = (self.engine?, self.request?);
        let layers = self.parse.retained + self.cfg.retained + engine.peak;
        Some(request.peak as f64 / layers.max(1) as f64)
    }
}

/// Parses `source`, builds its CFG and, if `engine`, analyzes it and
/// handles it as one cold `analyze` request, measuring each layer's heap.
///
/// # Panics
///
/// If `source` does not parse.
#[must_use]
pub fn heap_layers(source: &str, engine: bool) -> HeapRow {
    let (program, parse) = heap_use(|| parse_program(source).expect("E29 sources parse"));
    let (cfg, cfg_heap) = heap_use(|| Cfg::build(&program));
    let engine_heap = engine.then(|| heap_use(|| analyze_cfg(&cfg, &AnalysisConfig::default())).1);
    let nodes = cfg.node_count();
    drop((cfg, program));
    let request = engine.then(|| {
        let service = AnalysisService::new(ServiceConfig::default());
        let line = format!(r#"{{"op":"analyze","program":"{}"}}"#, json_escape(source));
        heap_use(|| service.handle_line(&line)).1
    });
    HeapRow {
        source: source.len(),
        parse,
        cfg: cfg_heap,
        nodes,
        engine: engine_heap,
        request,
    }
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
    /// Closure counters accumulated during the run.
    pub closure: ClosureStats,
    /// Bound matrices the run copied on write.
    pub matrix_copies: u64,
    /// Heap allocations the run made on its thread.
    pub allocations: u64,
    /// The engine's counts, its per-phase breakdown of the worklist
    /// loop and its store footprint (E18), timed by its own clock.
    pub profile: EngineProfile,
}

/// The counters of one run that do not depend on timing: every run of
/// one program on one thread reports the same.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunCounters {
    /// Every count of the engine's profile ([`EngineProfile::counts`]).
    engine: EngineProfile,
    /// Closure counts and variable sums (`closure_nanos` zeroed).
    closure: ClosureStats,
    /// Bound matrices copied on write.
    matrix_copies: u64,
    /// Heap allocations.
    allocations: u64,
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
        self.allocations as f64 / self.profile.steps.max(1) as f64
    }

    /// The run's timing-independent counters.
    #[must_use]
    pub fn counters(&self) -> RunCounters {
        RunCounters {
            engine: self.profile.counts(),
            closure: ClosureStats {
                closure_nanos: 0,
                ..self.closure
            },
            matrix_copies: self.matrix_copies,
            allocations: self.allocations,
        }
    }
}

/// Sums runs over a program set: every counter and phase timer adds up,
/// except the store's high-water mark and the widest frontier, which are
/// the largest of the runs'.
impl Sum for ProfiledRun {
    fn sum<I: Iterator<Item = ProfiledRun>>(runs: I) -> ProfiledRun {
        runs.fold(ProfiledRun::default(), |mut acc, run| {
            let (c, d) = (&mut acc.closure, run.closure);
            c.full_closures += d.full_closures;
            c.full_closure_vars += d.full_closure_vars;
            c.incremental_closures += d.incremental_closures;
            c.incremental_closure_vars += d.incremental_closure_vars;
            c.closure_nanos += d.closure_nanos;
            acc.matrix_copies += run.matrix_copies;
            acc.allocations += run.allocations;
            let (p, q) = (&mut acc.profile, run.profile);
            p.schedule += q.schedule;
            p.transfer += q.transfer;
            p.matching += q.matching;
            p.join_widen += q.join_widen;
            p.admission += q.admission;
            p.total += q.total;
            p.stored.locations += q.stored.locations;
            p.stored.peak_live = p.stored.peak_live.max(q.stored.peak_live);
            p.stored.approx_bytes += q.stored.approx_bytes;
            p.steps += q.steps;
            p.rounds += q.rounds;
            p.frontier_total += q.frontier_total;
            p.frontier_peak = p.frontier_peak.max(q.frontier_peak);
            p.fingerprints += q.fingerprints;
            p.widenings += q.widenings;
            p.promotions += q.promotions;
            p.splits += q.splits;
            p.merges += q.merges;
            p.probes += q.probes;
            p.probes_matched += q.probes_matched;
            p.matches += q.matches;
            p.tops += q.tops;
            p.terminals += q.terminals;
            p.normalized += q.normalized;
            p.ranges_rendered += q.ranges_rendered;
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
    let config = AnalysisConfig {
        client,
        ..AnalysisConfig::default()
    };
    let mut observer = StatsObserver::new();
    let copies_before = stats::matrix_copies();
    let result = analyze_cfg_with(cfg, &config, &mut observer);
    let matrix_copies = stats::matrix_copies() - copies_before;
    let profile = observer
        .profile()
        .copied()
        .expect("StatsObserver captures the engine profile on completion");
    ProfiledRun {
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
    fn heap_use_reports_peak_and_retained_bytes_and_nests() {
        let (kept, outer) = heap_use(|| {
            let (_, inner) = heap_use(|| drop(std::hint::black_box(vec![0u8; 1 << 20])));
            assert_eq!(
                inner,
                HeapUse {
                    peak: 1 << 20,
                    retained: 0
                }
            );
            let mut kept: Vec<u8> = Vec::with_capacity(1000);
            kept.reserve_exact(3000);
            kept
        });
        assert_eq!(kept.capacity(), 3000);
        assert_eq!(
            outer,
            HeapUse {
                peak: 1 << 20,
                retained: 3000
            }
        );
    }

    #[test]
    fn a_cold_request_frees_its_ast_before_the_engine_runs() {
        let source = corpus::repeated_exchanges(256).program.to_string();
        let row = heap_layers(&source, true);
        let ratio = row.request_over_layers().expect("the row ran the engine");
        assert!(ratio < 1.0, "{ratio:.2}: {row:?}");
    }

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
            let engine = first.engine;
            assert!(engine.steps > 0 && engine.stored.peak_live > 0, "{first:?}");
            assert!(first.allocations > 0, "{first:?}");
        }
    }
}
