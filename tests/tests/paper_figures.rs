//! End-to-end reproduction of the paper's worked figures (experiments
//! E1–E4 in DESIGN.md): for each figure, the static analysis must reach
//! the paper's verdict and its statement-level topology must cover every
//! message of concrete executions across a range of process counts.

use std::collections::BTreeSet;

use mpl_cfg::{Cfg, CfgNodeId};
use mpl_core::{analyze_cfg, classify, AnalysisConfig, Client, Pattern, Verdict};
use mpl_lang::corpus::{self, CorpusProgram, GridDims};
use mpl_sim::Simulator;

/// Checks that `prog`'s exact static topology covers its runtime
/// topology at every `np`, and returns the static site pairs.
fn check_covers_runtime(
    prog: &CorpusProgram,
    client: Client,
    nps: &[u64],
) -> BTreeSet<(CfgNodeId, CfgNodeId)> {
    let cfg = Cfg::build(&prog.program);
    let result = analyze_cfg(
        &cfg,
        &AnalysisConfig {
            client,
            ..AnalysisConfig::default()
        },
    );
    assert!(
        result.is_exact(),
        "{}: expected exact verdict, got {:?}",
        prog.name,
        result.verdict
    );
    for &np in nps {
        let outcome = Simulator::from_cfg(Cfg::build(&prog.program), np)
            .run()
            .unwrap_or_else(|e| panic!("{} np={np}: {e}", prog.name));
        assert!(
            outcome.is_complete(),
            "{} np={np} did not complete",
            prog.name
        );
        assert!(
            outcome.topology.site_pairs().is_subset(&result.matches),
            "{} np={np}: static {:?} misses runtime {:?}",
            prog.name,
            result.matches,
            outcome.topology.site_pairs()
        );
        assert!(outcome.leaks.is_empty(), "{} np={np} leaked", prog.name);
    }
    result.matches
}

#[test]
fn e1_fig2_exchange() {
    let prog = corpus::fig2_exchange();
    let topo = check_covers_runtime(&prog, Client::Simple, &[4, 5, 9]);
    // Exactly the two matches of Fig 2(d), nothing more.
    assert_eq!(topo.len(), 2);
    // And the runtime topology at any np equals the static one exactly.
    let outcome = Simulator::new(&prog.program, 6).run().unwrap();
    assert_eq!(topo, outcome.topology.site_pairs());
}

#[test]
fn e1_fig2_constant_propagation() {
    // Both prints provably output 5 — the headline of Fig 2.
    let prog = corpus::fig2_exchange();
    let result = mpl_core::analyze(&prog.program, &AnalysisConfig::default());
    let constant_prints: Vec<_> = result
        .prints
        .iter()
        .filter(|p| p.value == Some(5))
        .collect();
    assert_eq!(constant_prints.len(), 2, "{:?}", result.prints);
}

#[test]
fn e2_fig5_exchange_with_root() {
    let prog = corpus::exchange_with_root();
    let topo = check_covers_runtime(&prog, Client::Simple, &[4, 5, 8, 13]);
    assert_eq!(
        topo.len(),
        2,
        "root send->worker recv, worker send->root recv"
    );
    let result = mpl_core::analyze(&prog.program, &AnalysisConfig::default());
    assert_eq!(classify(&result), Pattern::ExchangeWithRoot);
}

#[test]
fn e2_fig1_full_mdcask() {
    let prog = corpus::mdcask_full();
    let topo = check_covers_runtime(&prog, Client::Simple, &[4, 6, 9]);
    assert_eq!(topo.len(), 3);
    let result = mpl_core::analyze(&prog.program, &AnalysisConfig::default());
    assert_eq!(classify(&result), Pattern::ExchangeWithRoot);
}

#[test]
fn e3_fig6_transpose_square_symbolic() {
    let prog = corpus::nas_cg_transpose_square(GridDims::Symbolic);
    // The cartesian client matches for ALL square grids at once.
    let result = mpl_core::analyze(&prog.program, &AnalysisConfig::default());
    assert!(result.is_exact(), "{:?}", result.verdict);
    assert_eq!(classify(&result), Pattern::PartnerExchange);
    // The simple client must give up — this is the paper's motivation
    // for HSMs.
    let simple = mpl_core::analyze(
        &prog.program,
        &AnalysisConfig {
            client: Client::Simple,
            ..AnalysisConfig::default()
        },
    );
    assert!(matches!(simple.verdict, Verdict::Top { .. }));
}

#[test]
fn e3_fig6_transpose_square_concrete_matches_runtime() {
    for nrows in [2i64, 3, 4] {
        let prog = corpus::nas_cg_transpose_square(GridDims::Concrete {
            nrows,
            ncols: nrows,
        });
        let np = (nrows * nrows) as u64;
        let cfg = Cfg::build(&prog.program);
        let result = analyze_cfg(&cfg, &AnalysisConfig::default());
        assert!(result.is_exact(), "nrows={nrows}: {:?}", result.verdict);
        let outcome = Simulator::from_cfg(cfg, np).run().unwrap();
        assert!(outcome.is_complete());
        assert!(
            outcome.topology.site_pairs().is_subset(&result.matches),
            "nrows={nrows}"
        );
    }
}

#[test]
fn e3_fig6_transpose_rect_symbolic() {
    let prog = corpus::nas_cg_transpose_rect(GridDims::Symbolic);
    let result = mpl_core::analyze(&prog.program, &AnalysisConfig::default());
    assert!(result.is_exact(), "{:?}", result.verdict);
    // Concrete cross-check on a 2x4 grid.
    let conc = corpus::nas_cg_transpose_rect(GridDims::Concrete { nrows: 2, ncols: 4 });
    let cfg = Cfg::build(&conc.program);
    let outcome = Simulator::from_cfg(cfg, 8).run().unwrap();
    assert!(outcome.is_complete());
    assert_eq!(outcome.topology.rank_pairs().len(), 8);
}

#[test]
fn e4_fig7_nearest_neighbor_shift() {
    let prog = corpus::nearest_neighbor_shift();
    let topo = check_covers_runtime(&prog, Client::Simple, &[4, 6, 9, 12]);
    // Fig 8's three matches collapse to two statement-level pairs
    // (edge send and interior send target the same recv nodes).
    assert!(!topo.is_empty());
    let result = mpl_core::analyze(&prog.program, &AnalysisConfig::default());
    assert_eq!(classify(&result), Pattern::Shift { offset: 1 });
}

#[test]
fn e4_left_shift_mirror() {
    let prog = corpus::left_shift();
    check_covers_runtime(&prog, Client::Simple, &[4, 6, 10]);
    let result = mpl_core::analyze(&prog.program, &AnalysisConfig::default());
    assert_eq!(classify(&result), Pattern::Shift { offset: -1 });
}

#[test]
fn e4_stencil_2d_concrete() {
    for (nrows, ncols) in [(3i64, 3i64), (4, 4), (2, 5)] {
        let prog = corpus::stencil_2d_vertical(GridDims::Concrete { nrows, ncols });
        let np = (nrows * ncols) as u64;
        let cfg = Cfg::build(&prog.program);
        let result = analyze_cfg(
            &cfg,
            &AnalysisConfig {
                client: Client::Simple,
                ..AnalysisConfig::default()
            },
        );
        assert!(result.is_exact(), "{nrows}x{ncols}: {:?}", result.verdict);
        let outcome = Simulator::from_cfg(cfg, np).run().unwrap();
        assert!(outcome.is_complete());
        assert!(
            outcome.topology.site_pairs().is_subset(&result.matches),
            "{nrows}x{ncols}"
        );
        assert_eq!(outcome.topology.len(), ((nrows - 1) * ncols) as usize);
    }
}

#[test]
fn limitations_are_reported_not_guessed() {
    // §X limitations must surface as ⊤ (or deadlock), never as a wrong
    // "exact" topology.
    for prog in [corpus::ring_uniform(), corpus::pairwise_exchange()] {
        let result = mpl_core::analyze(&prog.program, &AnalysisConfig::default());
        assert!(
            matches!(result.verdict, Verdict::Top { .. }),
            "{}: {:?}",
            prog.name,
            result.verdict
        );
    }
}

#[test]
fn broadcast_and_gather_and_scatter() {
    for (prog, pattern) in [
        (corpus::fanout_broadcast(), Pattern::Broadcast),
        (corpus::gather_to_root(), Pattern::Gather),
        (corpus::scatter_indexed(), Pattern::Broadcast),
    ] {
        let topo = check_covers_runtime(&prog, Client::Simple, &[4, 7]);
        assert_eq!(topo.len(), 1, "{}", prog.name);
        let result = mpl_core::analyze(&prog.program, &AnalysisConfig::default());
        assert_eq!(classify(&result), pattern, "{}", prog.name);
    }
}

#[test]
fn const_relay_propagates_through_hops() {
    let prog = corpus::const_relay();
    check_covers_runtime(&prog, Client::Simple, &[4, 6]);
    let result = mpl_core::analyze(&prog.program, &AnalysisConfig::default());
    assert_eq!(
        result.prints.iter().filter(|p| p.value == Some(11)).count(),
        3
    );
}

#[test]
fn extension_pipeline_is_exact_shift_family() {
    let prog = corpus::pipeline_double();
    let topo = check_covers_runtime(&prog, Client::Simple, &[4, 8, 12]);
    assert_eq!(topo.len(), 3);
}

#[test]
fn extension_tree_broadcast_is_top_but_runs() {
    // §X lists tree-shaped patterns as future work: the analysis must
    // give up honestly, while the simulator confirms the O(log np)
    // behaviour that motivates collective replacement.
    let prog = corpus::tree_broadcast();
    let result = mpl_core::analyze(&prog.program, &AnalysisConfig::default());
    assert!(
        matches!(result.verdict, Verdict::Top { .. }),
        "{:?}",
        result.verdict
    );
    for np in [4u64, 16, 32] {
        let out = Simulator::new(&prog.program, np).run().unwrap();
        assert!(out.is_complete());
        assert!(out.leaks.is_empty());
        // Every rank got the value 42.
        for rank in 0..np as usize {
            assert_eq!(out.stores[rank]["x"], 42, "rank {rank} at np={np}");
        }
        // Logarithmic critical path: 2*log2(np) hops suffice.
        let log2 = 64 - (np - 1).leading_zeros() as u64;
        assert!(
            out.critical_path() <= 2 * log2 + 2,
            "np={np}: critical path {} not logarithmic",
            out.critical_path()
        );
    }
}

#[test]
fn fanout_vs_tree_critical_path_contrast() {
    // The quantitative Fig 1 motivation: the same broadcast as a fan-out
    // is Θ(np) deep, as a tree Θ(log np).
    let fan = corpus::fanout_broadcast();
    let tree = corpus::tree_broadcast();
    let np = 32;
    let fan_path = Simulator::new(&fan.program, np)
        .run()
        .unwrap()
        .critical_path();
    let tree_path = Simulator::new(&tree.program, np)
        .run()
        .unwrap()
        .critical_path();
    assert!(
        fan_path >= 3 * tree_path,
        "fan {fan_path} vs tree {tree_path}"
    );
}
