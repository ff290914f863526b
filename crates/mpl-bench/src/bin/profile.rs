//! The §IX profile (experiment E6) and the closure ablation (E8).
//!
//! The paper reports, for its fan-out broadcast analysis on a 2.8 GHz
//! Opteron: 381 s total, 92.5 % of it inside constraint-graph transitive
//! closure — 217 O(n³) closures averaging 52.3 variables and 78 O(n²)
//! operations averaging 66.3 variables. This binary prints the same rows
//! for our implementation (absolute numbers differ; the *shape* — closure
//! dominance, operation counts growing with the pattern's process-set
//! count — is the reproduction target).
//!
//! Run with `cargo run -p mpl-bench --bin profile --release`.
//! Pass `--ablation` to add the full-reclose ablation (the unoptimized
//! prototype behaviour, §IX roadmap). Pass `--check` to fail (exit 1)
//! unless the per-phase breakdown accounts for the measured total on the
//! mid-size programs — the smoke test `scripts/verify.sh` runs.

use mpl_bench::{profiled_run, ProfiledRun};
use mpl_core::Client;
use mpl_domains::set_force_full_closure;
use mpl_lang::corpus::{self, GridDims};

/// The phase breakdown must explain the run: on programs large enough to
/// be out of timer noise, `|phase_sum - total| <= 10% of total`.
fn check_phase_coverage(runs: &[(String, ProfiledRun)]) -> bool {
    let mut ok = true;
    for (label, run) in runs {
        // Sub-millisecond runs are dominated by timer granularity.
        if run.profile.total.as_micros() < 2_000 {
            continue;
        }
        let sum = run.profile.phase_sum().as_secs_f64();
        let total = run.profile.total.as_secs_f64();
        let gap = (total - sum).abs() / total;
        let verdict = if gap <= 0.10 { "ok" } else { "FAIL" };
        println!(
            "phase check {:<26} sum {:>9.2?} of {:>9.2?} (gap {:>5.1}%) {}",
            label,
            run.profile.phase_sum(),
            run.profile.total,
            100.0 * gap,
            verdict,
        );
        ok &= gap <= 0.10;
    }
    ok
}

/// A labelled `exchange_with_root_wide_live(n)` row.
fn wide_live(n: usize) -> (String, corpus::CorpusProgram) {
    (
        format!("wide_live({n})"),
        corpus::exchange_with_root_wide_live(n),
    )
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let ablation = args.iter().any(|a| a == "--ablation");
    let check = args.iter().any(|a| a == "--check");

    println!("================================================================");
    println!("§IX profile — closure operations during pCFG analysis (E6)");
    println!("================================================================");
    println!(
        "{:<26} {:<10} {:>9} {:>8} {:>9} {:>8} {:>9} {:>9} {:>8}",
        "program", "client", "steps", "O(n³)", "avg vars", "O(n²)", "avg vars", "total", "closure%"
    );
    println!("{}", "-".repeat(104));

    let named = |prog: corpus::CorpusProgram| (prog.name.to_owned(), prog);
    let programs = vec![
        (named(corpus::fanout_broadcast()), Client::Simple),
        (named(corpus::exchange_with_root()), Client::Simple),
        (named(corpus::gather_to_root()), Client::Simple),
        (named(corpus::mdcask_full()), Client::Simple),
        (named(corpus::nearest_neighbor_shift()), Client::Simple),
        (named(corpus::left_shift()), Client::Simple),
        (named(corpus::fig2_exchange()), Client::Simple),
        (
            named(corpus::nas_cg_transpose_square(GridDims::Symbolic)),
            Client::Cartesian,
        ),
        (
            named(corpus::nas_cg_transpose_rect(GridDims::Symbolic)),
            Client::Cartesian,
        ),
        // The paper's variable-count regime (52-66 vars per graph) and
        // beyond (the E18 state-sharing stress row). The padding must
        // stay live, or dead-variable projection shrinks every graph.
        (wide_live(24), Client::Simple),
        (wide_live(48), Client::Simple),
        (wide_live(96), Client::Simple),
        // The same padding left dead: dead-variable projection's
        // before/after row (E23).
        (
            ("wide(96)".to_owned(), corpus::exchange_with_root_wide(96)),
            Client::Simple,
        ),
        // A match-heavy path (2048 matches on one path), so the phase-sum
        // check also covers the engine's match-set bookkeeping.
        (named(corpus::repeated_exchanges(1024)), Client::Simple),
    ];

    let mut runs = Vec::new();
    for ((label, prog), client) in &programs {
        let run = profiled_run(prog, *client);
        println!(
            "{:<26} {:<10} {:>9} {:>8} {:>9.1} {:>8} {:>9.1} {:>8.2?} {:>7.1}%",
            label,
            format!("{client:?}"),
            run.result.steps,
            run.closure.full_closures,
            run.closure.avg_full_vars(),
            run.closure.incremental_closures,
            run.closure.avg_incremental_vars(),
            run.total,
            100.0 * run.closure_share(),
        );
        runs.push((label.clone(), run));
    }

    println!();
    println!("================================================================");
    println!("per-phase engine breakdown (E18)");
    println!("================================================================");
    println!(
        "{:<26} {:>10} {:>10} {:>10} {:>10} {:>10} {:>7} {:>5} {:>10}",
        "program",
        "transfer",
        "match",
        "join/widen",
        "admission",
        "total",
        "stored",
        "peak",
        "~bytes"
    );
    println!("{}", "-".repeat(106));
    for (label, run) in &runs {
        let p = &run.profile;
        println!(
            "{:<26} {:>10.2?} {:>10.2?} {:>10.2?} {:>10.2?} {:>10.2?} {:>7} {:>5} {:>10}",
            label,
            p.transfer,
            p.matching,
            p.join_widen,
            p.admission,
            p.total,
            p.stored.locations,
            p.stored.peak_live,
            p.stored.approx_bytes,
        );
    }

    if check {
        println!();
        if !check_phase_coverage(&runs) {
            eprintln!("phase breakdown does not account for the measured totals");
            std::process::exit(1);
        }
    }

    if ablation {
        println!();
        println!("================================================================");
        println!("Ablation (E8): incremental O(n²) closure vs full re-closure");
        println!("================================================================");
        println!(
            "{:<26} {:>14} {:>14} {:>9} {:>13} {:>13}",
            "program", "incremental", "full-reclose", "speedup", "ops(incr)", "ops(full)"
        );
        println!("{}", "-".repeat(96));
        // The widest program is too slow to re-run under full re-closure;
        // measure the ablation on the small and mid-size workloads.
        let ablation_set = vec![
            (named(corpus::fanout_broadcast()), Client::Simple),
            (named(corpus::exchange_with_root()), Client::Simple),
            (wide_live(24), Client::Simple),
        ];
        for ((label, prog), client) in &ablation_set {
            let fast = profiled_run(prog, *client);
            set_force_full_closure(true);
            let slow = profiled_run(prog, *client);
            set_force_full_closure(false);
            println!(
                "{:<26} {:>14.2?} {:>14.2?} {:>8.2}x {:>6}+{:>6} {:>6}+{:>6}",
                label,
                fast.total,
                slow.total,
                slow.total.as_secs_f64() / fast.total.as_secs_f64().max(1e-9),
                fast.closure.full_closures,
                fast.closure.incremental_closures,
                slow.closure.full_closures,
                slow.closure.incremental_closures,
            );
        }
    }
}
