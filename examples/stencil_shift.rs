//! Nearest-neighbor shifts (paper Fig 7/8, §VIII-C).
//!
//! Analyzes the 1-d open-ended shift symbolically — the engine discovers
//! the three-way split `{[0], [1..np-2], [np-1]}` and matches the
//! wavefront chain for *unbounded* `np` — and the row-major 2-d vertical
//! shift with concrete grid dimensions.
//!
//! Run with `cargo run -p mpl-examples --bin stencil_shift`.

use mpl_cfg::Cfg;
use mpl_core::{analyze_cfg, classify, AnalysisConfig, Client};
use mpl_lang::corpus::{self, GridDims};
use mpl_sim::Simulator;

fn main() {
    for prog in [corpus::nearest_neighbor_shift(), corpus::left_shift()] {
        println!("=== {} ({}) ===", prog.name, prog.paper_ref);
        let cfg = Cfg::build(&prog.program);
        let result = analyze_cfg(
            &cfg,
            &AnalysisConfig {
                client: Client::Simple,
                ..AnalysisConfig::default()
            },
        );
        println!("verdict: {:?}", result.verdict);
        print!("{}", result.render_topology());
        let pattern = classify(&result);
        println!("pattern: {pattern}");
        if let Some(hint) = pattern.collective_hint() {
            println!("optimization hint: {hint}");
        }

        for np in [4, 7, 11] {
            let outcome = Simulator::from_cfg(Cfg::build(&prog.program), np)
                .run()
                .expect("simulation succeeds");
            assert!(outcome.is_complete());
            assert!(
                outcome.topology.site_pairs().is_subset(&result.matches),
                "static topology must cover np={np}"
            );
            println!(
                "np = {np:>2}: covered {} runtime messages ✓",
                outcome.topology.len()
            );
        }
        println!();
    }

    println!("=== 2-d vertical shift on a concrete 4x4 grid ===");
    let prog = corpus::stencil_2d_vertical(GridDims::Concrete { nrows: 4, ncols: 4 });
    let cfg = Cfg::build(&prog.program);
    let result = analyze_cfg(
        &cfg,
        &AnalysisConfig {
            client: Client::Simple,
            ..AnalysisConfig::default()
        },
    );
    println!("verdict: {:?}", result.verdict);
    for e in &result.events {
        println!("  match: {e}");
    }
    let outcome = Simulator::from_cfg(cfg, 16)
        .run()
        .expect("simulation succeeds");
    assert!(outcome.is_complete());
    println!(
        "simulator: {} messages delivered, no leaks: {}",
        outcome.topology.len(),
        outcome.leaks.is_empty()
    );
}
