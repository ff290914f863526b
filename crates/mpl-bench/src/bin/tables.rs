//! Regenerates the paper's worked tables and figures (experiments
//! E1–E5 and E10–E12 of DESIGN.md) as text tables.
//!
//! Run with `cargo run -p mpl-bench --bin tables`.

use std::collections::BTreeMap;

use mpl_cfg::Cfg;
use mpl_core::{analyze_cfg, classify, classify_pairs, AnalysisConfig, Client, Verdict};
use mpl_hsm::{AssumptionCtx, Hsm, SymPoly};
use mpl_lang::corpus::{self, GridDims};
use mpl_sim::{SimConfig, Simulator};

fn main() {
    table_i_hsm_algebra();
    figures_e1_to_e4();
    pattern_table_e10();
    mpicfg_precision_table();
    critical_path_table();
}

/// Precision against the MPI-CFG baseline (paper §II): statement pairs
/// retained by each analysis (fewer = more precise; both must cover the
/// runtime topology).
fn mpicfg_precision_table() {
    use mpl_core::mpi_cfg_topology;
    println!("================================================================");
    println!("Precision vs the MPI-CFG baseline (paper SII)");
    println!("================================================================");
    println!(
        "{:<26} {:>10} {:>10} {:>8} {:>10}",
        "program", "all pairs", "MPI-CFG", "pCFG", "runtime@8"
    );
    println!("{}", "-".repeat(70));
    for prog in [
        corpus::fig2_exchange(),
        corpus::exchange_with_root(),
        corpus::fanout_broadcast(),
        corpus::gather_to_root(),
        corpus::mdcask_full(),
        corpus::nearest_neighbor_shift(),
        corpus::left_shift(),
        corpus::const_relay(),
    ] {
        let cfg = Cfg::build(&prog.program);
        let baseline = mpi_cfg_topology(&cfg);
        let result = analyze_cfg(&cfg, &AnalysisConfig::default());
        let runtime = Simulator::from_cfg(cfg, 8)
            .run()
            .map(|o| o.topology.site_pairs().len())
            .unwrap_or(0);
        println!(
            "{:<26} {:>10} {:>10} {:>8} {:>10}",
            prog.name,
            baseline.all_pairs(),
            baseline.pairs().len(),
            if result.is_exact() {
                result.matches.len().to_string()
            } else {
                "⊤".into()
            },
            runtime
        );
    }
    println!();
}

/// Communication critical path (logical message hops) per pattern — the
/// quantitative motivation for collective replacement (SI, Fig 1).
fn critical_path_table() {
    println!("================================================================");
    println!("Communication critical path (message hops) by pattern");
    println!("================================================================");
    println!(
        "{:<26} {:>6} {:>6} {:>6}   growth",
        "program", "np=8", "np=16", "np=32"
    );
    println!("{}", "-".repeat(66));
    for prog in [
        corpus::exchange_with_root(),
        corpus::fanout_broadcast(),
        corpus::tree_broadcast(),
        corpus::nearest_neighbor_shift(),
        corpus::pipeline_double(),
        corpus::ring_conditional(),
    ] {
        let mut paths = Vec::new();
        for np in [8u64, 16, 32] {
            let out = Simulator::new(&prog.program, np).run().unwrap();
            paths.push(out.critical_path());
        }
        let growth = if paths[2] >= 3 * paths[0] {
            "~linear (a tree collective would be O(log np))"
        } else if paths[2] > paths[0] {
            "~logarithmic"
        } else {
            "O(1)"
        };
        println!(
            "{:<26} {:>6} {:>6} {:>6}   {growth}",
            prog.name, paths[0], paths[1], paths[2]
        );
    }
    // The transpose is O(1) regardless of grid size.
    for nrows in [3i64, 4] {
        let prog = corpus::nas_cg_transpose_square(GridDims::Concrete {
            nrows,
            ncols: nrows,
        });
        let out = Simulator::new(&prog.program, (nrows * nrows) as u64)
            .run()
            .unwrap();
        println!(
            "{:<26} np={:<3} critical path = {} (O(1): already a parallel exchange)",
            prog.name,
            nrows * nrows,
            out.critical_path()
        );
    }
}

/// E5 — Table I: the HSM operations and equality rules, replayed on the
/// paper's own examples.
fn table_i_hsm_algebra() {
    println!("================================================================");
    println!("Table I — HSM operations (paper's worked examples)");
    println!("================================================================");
    let ctx = AssumptionCtx::new();
    let c = SymPoly::constant;

    let h = Hsm::leaf(c(11)).repeat(c(4), c(5));
    println!(
        "[11 : 4, 5]                    = {:?}",
        h.concretize(&BTreeMap::new()).unwrap()
    );

    let h = Hsm::leaf(c(12)).repeat(c(15), c(2));
    let m = h.modulo(&c(6), &ctx).unwrap();
    println!(
        "[12 : 15, 2] % 6               = {} (paper: [[0:3,2] : 5, 0])",
        m.seq_canonical(&ctx)
    );

    let h = Hsm::leaf(c(20)).repeat(c(6), c(5));
    let d = h.div(&c(10), &ctx).unwrap();
    println!(
        "[20 : 6, 5] / 10               = {:?} (paper: <2,2,3,3,4,4>)",
        d.concretize(&BTreeMap::new()).unwrap()
    );

    // Sequence-equality (reshape) rule.
    let flat = Hsm::leaf(c(2)).repeat(c(6), c(2));
    let nested = Hsm::leaf(c(2)).repeat(c(3), c(2)).repeat(c(2), c(6));
    println!(
        "[2:6,2] seq-equals [[2:3,2]:2,6]: {}",
        flat.seq_eq(&nested, &ctx)
    );

    // Interleave set-equality rule.
    let interleaved = Hsm::leaf(c(2)).repeat(c(3), c(4)).repeat(c(2), c(2));
    println!(
        "[[2:3,2*2]:2,2] set-equals [2:6,2]: {} (sequence-equal: {})",
        interleaved.set_eq(&flat, &ctx),
        interleaved.seq_eq(&flat, &ctx)
    );

    // Transpose set-equality rule.
    let a = Hsm::leaf(c(1)).repeat(c(2), c(1)).repeat(c(3), c(10));
    let b = Hsm::leaf(c(1)).repeat(c(3), c(10)).repeat(c(2), c(1));
    println!(
        "[[1:2,1]:3,10] set-equals [[1:3,10]:2,1]: {}\n",
        a.set_eq(&b, &ctx)
    );
}

/// E1–E4: the per-figure analysis results.
fn figures_e1_to_e4() {
    println!("================================================================");
    println!("Figures 2, 5, 6, 7 — pCFG analysis results");
    println!("================================================================");
    println!(
        "{:<26} {:<10} {:<10} {:<8} notes",
        "program (paper ref)", "client", "verdict", "matches"
    );
    println!("{}", "-".repeat(96));

    let entries: Vec<(corpus::CorpusProgram, Client, &str)> = vec![
        (
            corpus::fig2_exchange(),
            Client::Simple,
            "both prints proven = 5",
        ),
        (
            corpus::exchange_with_root(),
            Client::Simple,
            "loop fixpoint {[0],[1..i-1],[i..np-1]}",
        ),
        (corpus::fanout_broadcast(), Client::Simple, "§IX workload"),
        (corpus::gather_to_root(), Client::Simple, ""),
        (corpus::mdcask_full(), Client::Simple, "Fig 1 two-phase"),
        (
            corpus::nas_cg_transpose_square(GridDims::Symbolic),
            Client::Cartesian,
            "HSM identity+surjection",
        ),
        (
            corpus::nas_cg_transpose_square(GridDims::Symbolic),
            Client::Simple,
            "expected ⊤: needs HSMs",
        ),
        (
            corpus::nas_cg_transpose_rect(GridDims::Symbolic),
            Client::Cartesian,
            "1:2 grid",
        ),
        (
            corpus::nearest_neighbor_shift(),
            Client::Simple,
            "unbounded np",
        ),
        (corpus::left_shift(), Client::Simple, "mirror shift"),
    ];
    for (prog, client, note) in entries {
        let result = mpl_core::analyze(
            &prog.program,
            &AnalysisConfig {
                client,
                ..AnalysisConfig::default()
            },
        );
        let verdict = match &result.verdict {
            Verdict::Exact => "exact",
            Verdict::Deadlock { .. } => "deadlock",
            _ => "⊤",
        };
        println!(
            "{:<26} {:<10} {:<10} {:<8} {}",
            format!("{} ({})", prog.name, prog.paper_ref),
            format!("{client:?}"),
            verdict,
            result.matches.len(),
            note
        );
    }
    println!();
}

/// E10: detected pattern and collective hint per corpus program, with the
/// simulator's ground-truth classification.
fn pattern_table_e10() {
    println!("================================================================");
    println!("Pattern detection and collective-replacement hints (E10)");
    println!("================================================================");
    println!(
        "{:<26} {:<10} {:<20} {:<20} hint",
        "program", "verdict", "static pattern", "runtime (np=9)"
    );
    println!("{}", "-".repeat(110));
    for prog in corpus::all() {
        let cfg = Cfg::build(&prog.program);
        let result = analyze_cfg(&cfg, &AnalysisConfig::default());
        let verdict = match &result.verdict {
            Verdict::Exact => "exact",
            Verdict::Deadlock { .. } => "deadlock",
            _ => "⊤",
        };
        let pattern = classify(&result);
        let mut config = SimConfig::default();
        // Provide grid parameters for symbolic programs.
        config.initial_vars.insert("nrows".into(), 3);
        config.initial_vars.insert("ncols".into(), 3);
        let runtime = Simulator::from_cfg(cfg, 9)
            .with_config(config)
            .run()
            .ok()
            .filter(mpl_sim::Outcome::is_complete)
            .map_or("-".to_owned(), |o| {
                classify_pairs(&o.topology.rank_pairs(), 9).to_string()
            });
        println!(
            "{:<26} {:<10} {:<20} {:<20} {}",
            prog.name,
            verdict,
            pattern.to_string(),
            runtime,
            pattern.collective_hint().unwrap_or("-")
        );
    }
}
