//! Every timed row of the evaluation: the §IX profile (E6), closure and
//! program-size scaling (E7), the per-phase engine breakdown (E18) and
//! the ablations (E8).
//!
//! The paper reports, for its fan-out broadcast analysis on a 2.8 GHz
//! Opteron: 381 s total, 92.5 % of it inside constraint-graph transitive
//! closure — 217 O(n³) closures averaging 52.3 variables and 78 O(n²)
//! operations averaging 66.3 variables. This binary prints the same rows
//! for our implementation (absolute numbers differ; the *shape* — closure
//! dominance, operation counts growing with the pattern's process-set
//! count — is the reproduction target).
//!
//! [`mpl_bench::sample`] times every row: the median, min and IQR of the
//! per-call time over [`SAMPLES`] samples. An engine row's call is one
//! whole analysis; its E18 phases are those of the median run, and
//! partition that run's worklist loop as the engine's own clock timed it.
//!
//! E18 also counts heap allocations per engine step, through the
//! counting allocator of `mpl-bench`, and adds the `hot-set` row: the
//! warm-up programs of the `serve-hot` benchmark workload, analyzed one
//! after another under the Cartesian client and summed.
//!
//! Run with `cargo run -p mpl-bench --bin profile --release`. Pass
//! `--ablation` to add the ablations (E8). Pass `--check` to exit 1 if
//! two samples of a row report different counters or count different
//! allocations, or if the phases of a mid-size median run do not account
//! for its loop — the smoke test `scripts/verify.sh` runs.

use std::process::Command;
use std::time::Duration;

use mpl_bench::{profiled_run, sample, ProfiledRun, Sampled, SAMPLES};
use mpl_cfg::Cfg;
use mpl_core::Client;
use mpl_domains::{set_force_full_closure, ClosureStats, ConstraintGraph, NsVar, PsetId};
use mpl_lang::corpus::{self, CorpusProgram, GridDims};

/// A row's median, min and IQR, under the header `   median       min       IQR`.
fn time_cells<T>(row: &Sampled<T>) -> String {
    let (median, min, iqr) = (row.median().0, row.min(), row.iqr());
    format!("{median:>9.2?} {min:>9.2?} {iqr:>9.2?}")
}

fn ratio(slow: Duration, fast: Duration) -> f64 {
    slow.as_secs_f64() / fast.as_secs_f64().max(1e-9)
}

fn banner(title: &str, header: &str) {
    println!("{}\n{title}\n{}", "=".repeat(64), "=".repeat(64));
    println!("{header}\n{}", "-".repeat(header.chars().count()));
}

/// Samples rows and remembers the ones whose samples disagree.
#[derive(Default)]
struct Profiler {
    /// Labels of the rows whose samples reported different counters.
    drifted: Vec<String>,
    /// Labels of the engine rows whose samples counted different
    /// allocations.
    alloc_drifted: Vec<String>,
}

impl Profiler {
    /// Samples `f`, whose results must agree on `counters`.
    fn sample<T, K: PartialEq>(
        &mut self,
        label: &str,
        f: impl FnMut() -> T,
        counters: impl Fn(&T) -> K,
    ) -> Sampled<T> {
        let row = sample(f);
        if !row.agree(counters) {
            self.drifted.push(label.to_owned());
        }
        row
    }

    /// Samples engine runs of `prog` under `client`.
    fn run(&mut self, label: &str, prog: &CorpusProgram, client: Client) -> Sampled<ProfiledRun> {
        self.run_set(label, std::slice::from_ref(prog), client)
    }

    /// Samples engine runs over every program of `progs` under `client`,
    /// summed into one run per sample.
    fn run_set(
        &mut self,
        label: &str,
        progs: &[CorpusProgram],
        client: Client,
    ) -> Sampled<ProfiledRun> {
        let cfgs: Vec<Cfg> = progs.iter().map(|p| Cfg::build(&p.program)).collect();
        let row = self.sample(
            label,
            || cfgs.iter().map(|cfg| profiled_run(cfg, client)).sum(),
            ProfiledRun::counters,
        );
        if !row.agree(|run| run.allocations) {
            self.alloc_drifted.push(label.to_owned());
        }
        row
    }

    /// Samples `f`, counting the closures it performs.
    fn closures(&mut self, label: &str, mut f: impl FnMut()) -> Sampled<ClosureStats> {
        let ops = move || {
            let before = ClosureStats::snapshot();
            f();
            ClosureStats {
                closure_nanos: 0,
                ..ClosureStats::snapshot().since(&before)
            }
        };
        self.sample(label, ops, |stats| *stats)
    }
}

/// The git revision of the source tree, or `unknown` outside a checkout.
fn git_rev() -> String {
    Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |rev| rev.trim().to_owned())
}

fn labelled(label: &str, prog: CorpusProgram) -> (String, CorpusProgram, Client) {
    (label.to_owned(), prog, Client::Simple)
}

fn simple(prog: CorpusProgram) -> (String, CorpusProgram, Client) {
    labelled(prog.name, prog)
}

fn wide_live(n: usize) -> (String, CorpusProgram, Client) {
    labelled(
        &format!("wide_live({n})"),
        corpus::exchange_with_root_wide_live(n),
    )
}

/// E6: closure operations and time per program.
fn closure_profile(profiler: &mut Profiler) -> Vec<(String, Sampled<ProfiledRun>)> {
    banner(
        "§IX profile — closure operations during pCFG analysis (E6)",
        "program                  client     steps  O(n³) avg vars  O(n²) avg vars    median       min       IQR closure%",
    );
    let cartesian = |prog: CorpusProgram| (prog.name.to_owned(), prog, Client::Cartesian);
    let programs = [
        simple(corpus::fanout_broadcast()),
        simple(corpus::exchange_with_root()),
        simple(corpus::gather_to_root()),
        simple(corpus::mdcask_full()),
        simple(corpus::nearest_neighbor_shift()),
        simple(corpus::left_shift()),
        simple(corpus::fig2_exchange()),
        cartesian(corpus::nas_cg_transpose_square(GridDims::Symbolic)),
        cartesian(corpus::nas_cg_transpose_rect(GridDims::Symbolic)),
        // The paper's variable-count regime (52-66 vars per graph) and
        // beyond (the E18 state-sharing stress row). The padding must
        // stay live, or dead-variable projection shrinks every graph.
        wide_live(24),
        wide_live(48),
        wide_live(96),
        // The same padding left dead: dead-variable projection's
        // before/after row (E23).
        labelled("wide(96)", corpus::exchange_with_root_wide(96)),
        // A match-heavy path (2048 matches on one path), so the phase-sum
        // check also covers the engine's match-set bookkeeping.
        labelled("repeated_exchanges(1024)", corpus::repeated_exchanges(1024)),
    ];
    let mut rows = Vec::new();
    for (label, prog, client) in programs {
        let row = profiler.run(&label, &prog, client);
        let run = &row.median().1;
        let c = &run.closure;
        println!(
            "{label:<24} {:<9} {:>6} {:>6} {:>8.1} {:>6} {:>8.1} {} {:>7.1}%",
            format!("{client:?}"),
            run.steps,
            c.full_closures,
            c.avg_full_vars(),
            c.incremental_closures,
            c.avg_incremental_vars(),
            time_cells(&row),
            100.0 * run.closure_share(),
        );
        rows.push((label, row));
    }
    println!();
    rows
}

/// The `serve-hot` benchmark workload's warm-up programs: the corpus,
/// `repeated_exchanges(k)` for 37 log-spaced `k` in 8..=1024 and
/// `exchange_with_root_wide(n)` for 8 log-spaced `n` in 8..=48.
fn hot_set() -> Vec<CorpusProgram> {
    let log_spaced = |lo: usize, hi: usize, i: usize, count: usize| {
        let u = (i as f64 + 0.5) / count as f64;
        let size = lo as f64 * (hi as f64 / lo as f64).powf(u);
        (size.round() as usize).clamp(lo, hi)
    };
    let mut set = corpus::all();
    set.extend((0..37).map(|i| corpus::repeated_exchanges(log_spaced(8, 1024, i, 37))));
    set.extend((0..8).map(|i| corpus::exchange_with_root_wide(log_spaced(8, 48, i, 8))));
    set
}

/// E18: where the median run of each E6 row and of the `hot-set` row
/// spent its worklist loop (`loop` is the loop's own clock), what its
/// store held, how many matrices it copied and how many heap
/// allocations it made per step.
fn phase_breakdown(rows: &[(String, Sampled<ProfiledRun>)]) {
    banner(
        "per-phase engine breakdown of the median run (E18)",
        "program                   transfer     match join/widen admission      loop stored  peak    ~bytes copies allocs/step",
    );
    for (label, row) in rows {
        let run = &row.median().1;
        let p = &run.profile;
        println!(
            "{label:<24} {:>9.2?} {:>9.2?} {:>10.2?} {:>9.2?} {:>9.2?} {:>6} {:>5} {:>9} {:>6} {:>11.1}",
            p.transfer,
            p.matching,
            p.join_widen,
            p.admission,
            p.total,
            p.stored.locations,
            p.stored.peak_live,
            p.stored.approx_bytes,
            run.matrix_copies,
            run.allocations_per_step(),
        );
    }
    println!();
}

/// A chain plus some cross edges over `vs`: representative of the
/// per-namespace structure the analysis builds (id/loop-var relations).
fn seed_graph(vs: &[NsVar]) -> ConstraintGraph {
    let mut g = ConstraintGraph::new();
    for w in vs.windows(2) {
        g.assert_le(&w[0], &w[1], 1);
    }
    for (i, v) in vs.iter().enumerate().step_by(5) {
        g.assert_le(v, &vs[(i * 3 + 1) % vs.len()], 4);
    }
    g
}

/// E7: the O(n³) closure against one O(n²) incremental update as the
/// variable count grows, then analysis time as a program grows.
fn scaling(profiler: &mut Profiler) {
    banner(
        "closure scaling: full O(n³) closure vs one O(n²) update (E7)",
        "vars    full med  full min  full IQR  incr med  incr min  incr IQR   ratio",
    );
    for n in [8usize, 16, 32, 52, 64, 96] {
        let vs: Vec<NsVar> = (0..n)
            .map(|i| NsVar::pset(PsetId((i % 7) as u32), format!("v{i}")))
            .collect();
        let full = profiler.closures(&format!("full closure n={n}"), || {
            let mut g = seed_graph(&vs);
            g.close();
            std::hint::black_box(g.is_bottom());
        });
        let mut base = seed_graph(&vs);
        base.close();
        let incremental = profiler.closures(&format!("incremental update n={n}"), || {
            let mut g = base.clone();
            g.assert_le(&vs[n - 1], &vs[0], -1);
            std::hint::black_box(g.is_bottom());
        });
        println!(
            "{n:<6} {} {} {:>6.0}x",
            time_cells(&full),
            time_cells(&incremental),
            ratio(full.median().0, incremental.median().0),
        );
    }
    println!();

    banner(
        "program-size scaling: repeated_exchanges(k) (E7)",
        "program                   steps    median       min       IQR",
    );
    for k in [1usize, 4, 16, 32] {
        let label = format!("repeated_exchanges({k})");
        let row = profiler.run(&label, &corpus::repeated_exchanges(k), Client::Simple);
        let steps = row.median().1.steps;
        println!("{label:<24} {steps:>6} {}", time_cells(&row));
    }
    println!();
}

/// E8: the unoptimized prototype's full re-closure after every new
/// constraint, and the richer Cartesian client on patterns the simple
/// client already handles (§IX point (i)).
fn ablations(profiler: &mut Profiler) {
    banner(
        "Ablation (E8): incremental O(n²) closure vs full re-closure",
        "program                   incremental full-reclose slowdown     ops(incr)     ops(full)",
    );
    // The widest programs are too slow to re-run under full re-closure;
    // measure the ablation on the small and mid-size workloads.
    let programs = [
        simple(corpus::fanout_broadcast()),
        simple(corpus::exchange_with_root()),
        wide_live(24),
    ];
    for (label, prog, client) in programs {
        let fast = profiler.run(&label, &prog, client);
        set_force_full_closure(true);
        let slow = profiler.run(&format!("{label} full-reclose"), &prog, client);
        set_force_full_closure(false);
        let ops = |row: &Sampled<ProfiledRun>| {
            let c = row.median().1.closure;
            format!("{:>6}+{:>6}", c.full_closures, c.incremental_closures)
        };
        let (fast_t, slow_t) = (fast.median().0, slow.median().0);
        println!(
            "{label:<24} {fast_t:>12.2?} {slow_t:>12.2?} {:>7.2}x {:>13} {:>13}",
            ratio(slow_t, fast_t),
            ops(&fast),
            ops(&slow),
        );
    }
    println!();

    banner(
        "Ablation (E8): Cartesian (HSM) client vs simple client",
        "program                  client     steps    median       min       IQR",
    );
    for prog in [
        corpus::exchange_with_root(),
        corpus::nearest_neighbor_shift(),
    ] {
        for client in [Client::Simple, Client::Cartesian] {
            let row = profiler.run(&format!("{} {client:?}", prog.name), &prog, client);
            let steps = row.median().1.steps;
            let client = format!("{client:?}");
            println!(
                "{:<24} {client:<9} {steps:>6} {}",
                prog.name,
                time_cells(&row)
            );
        }
    }
    println!();
}

/// The phase breakdown must explain the loop: on median runs long
/// enough to be out of timer noise, `|phase_sum - loop| <= 10% of loop`.
fn check_phase_coverage(rows: &[(String, Sampled<ProfiledRun>)]) -> bool {
    let mut ok = true;
    for (label, row) in rows {
        let p = &row.median().1.profile;
        // Sub-millisecond runs are dominated by timer granularity.
        if p.total.as_micros() < 2_000 {
            continue;
        }
        let (sum, total) = (p.phase_sum(), p.total);
        let gap = (total.as_secs_f64() - sum.as_secs_f64()).abs() / total.as_secs_f64();
        let verdict = if gap <= 0.10 { "ok" } else { "FAIL" };
        println!(
            "phase check {label:<24} sum {sum:>9.2?} of {total:>9.2?} (gap {:>5.1}%) {verdict}",
            100.0 * gap,
        );
        ok &= gap <= 0.10;
    }
    ok
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let ablation = args.iter().any(|a| a == "--ablation");
    let check = args.iter().any(|a| a == "--check");

    println!(
        "profile @ {} · nproc {} · {SAMPLES} samples per row",
        git_rev(),
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
    );
    println!("times are per call: median, min and IQR over the samples\n");

    let mut profiler = Profiler::default();
    let mut rows = closure_profile(&mut profiler);
    let hot = profiler.run_set("hot-set", &hot_set(), Client::Cartesian);
    rows.push(("hot-set".to_owned(), hot));
    phase_breakdown(&rows);
    scaling(&mut profiler);
    if ablation {
        ablations(&mut profiler);
    }

    if check {
        let phases_ok = check_phase_coverage(&rows);
        for label in &profiler.drifted {
            println!("counter check {label}: samples report different counters FAIL");
        }
        if profiler.drifted.is_empty() {
            println!("counter check: every sample of every row reports the same counters ok");
        }
        for label in &profiler.alloc_drifted {
            println!("alloc check {label}: samples count different allocations FAIL");
        }
        if profiler.alloc_drifted.is_empty() {
            println!(
                "alloc check: every sample of every engine row counts the same allocations ok"
            );
        }
        if !(phases_ok && profiler.drifted.is_empty() && profiler.alloc_drifted.is_empty()) {
            eprintln!(
                "profile --check failed: phases miss the loop, or counters or allocations drift"
            );
            std::process::exit(1);
        }
    }
}
