//! The mdcask exchange-with-root pattern (paper Fig 1 / Fig 5).
//!
//! Shows the engine's Fig 5 walk-through: the loop over `send x -> i;
//! recv y <- i` converges to the symbolic loop invariant
//! `{[0], [1..i-1], [i..np-1]}`, the exit edge proves `i = np`, and the
//! final topology is exchange-with-root — which the pattern classifier
//! suggests replacing with `MPI_Bcast + MPI_Gather`, the optimization the
//! paper's introduction motivates.
//!
//! Run with `cargo run -p mpl-examples --bin mdcask_exchange`.

use mpl_cfg::Cfg;
use mpl_core::{analyze_cfg_with, classify, AnalysisConfig, Client, TraceObserver};
use mpl_lang::corpus;
use mpl_sim::Simulator;

fn main() {
    let prog = corpus::exchange_with_root();
    println!("=== program ({}) ===\n{}", prog.paper_ref, prog.source);
    let cfg = Cfg::build(&prog.program);

    let config = AnalysisConfig {
        client: Client::Simple, // §VII suffices for this pattern
        ..AnalysisConfig::default()
    };
    let mut tracer = TraceObserver::new();
    let result = analyze_cfg_with(&cfg, &config, &mut tracer);
    let trace = tracer.into_lines();

    println!("=== Fig 5-style engine trace (excerpt) ===");
    for line in trace.iter().take(24) {
        println!("{line}");
    }
    if trace.len() > 24 {
        println!("... ({} more steps to fixpoint)", trace.len() - 24);
    }

    println!("\n=== result ===");
    println!("verdict: {:?}", result.verdict);
    print!("{}", result.render_topology());
    let pattern = classify(&result);
    println!("pattern: {pattern}");
    if let Some(hint) = pattern.collective_hint() {
        println!("optimization hint: {hint}");
    }

    // Validate against concrete executions for several process counts.
    println!("\n=== simulator cross-check ===");
    for np in [4, 5, 8, 13] {
        let outcome = Simulator::from_cfg(Cfg::build(&prog.program), np)
            .run()
            .expect("simulation succeeds");
        assert!(outcome.is_complete());
        let ok = outcome.topology.site_pairs().is_subset(&result.matches);
        println!(
            "np = {np:>2}: {} runtime messages, static topology covers them: {}",
            outcome.topology.len(),
            if ok { "yes" } else { "NO" }
        );
        assert!(ok, "static topology must cover the runtime one");
    }
}
