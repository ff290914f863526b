//! Quickstart: analyze a small message-passing program end to end.
//!
//! Parses the paper's Figure 2 exchange, runs the communication-sensitive
//! dataflow analysis, prints the discovered topology and constant facts,
//! and cross-checks everything against the concrete simulator.
//!
//! Run with `cargo run -p mpl-examples --bin quickstart`.

use mpl_cfg::Cfg;
use mpl_core::{analyze_cfg, classify, AnalysisConfig};
use mpl_lang::parse_program;
use mpl_sim::Simulator;

fn main() {
    let source = "\
if id = 0 then
  x := 5;
  send x -> 1;
  recv y <- 1;
  print y;
else
  if id = 1 then
    recv y <- 0;
    send y -> 0;
    print y;
  end
end
";
    println!("=== program (paper Fig 2) ===\n{source}");

    let program = parse_program(source).expect("valid MPL");
    let cfg = Cfg::build(&program);

    // Static analysis: one run covers ALL process counts np >= 4.
    let result = analyze_cfg(&cfg, &AnalysisConfig::default());
    println!("=== static analysis ===");
    println!("verdict: {:?}", result.verdict);
    print!("{}", result.render_topology());
    println!("pattern: {}", classify(&result));
    for p in &result.prints {
        println!(
            "print at {} for ranks {}: {}",
            p.node,
            p.range,
            p.value
                .map_or("unknown".to_owned(), |v| format!("constant {v}"))
        );
    }

    // Ground truth: run the same CFG on 8 concrete processes.
    let outcome = Simulator::from_cfg(cfg, 8)
        .run()
        .expect("simulation succeeds");
    println!("\n=== simulator (np = 8) ===");
    println!("completed: {}", outcome.is_complete());
    print!("{}", outcome.topology);
    println!(
        "rank 0 printed {:?}, rank 1 printed {:?}",
        outcome.prints[0], outcome.prints[1]
    );

    // The static site-level topology covers exactly the runtime one.
    assert!(result.is_exact());
    assert_eq!(result.matches, outcome.topology.site_pairs());
    println!("\nstatic topology matches runtime topology exactly ✓");
}
