//! End-to-end corpus tests for the engine: every paper-derived program
//! run through [`crate::engine::analyze`] under the appropriate client.
//!
//! Kept as a separate module so `engine.rs` stays focused on the
//! framework logic itself.

use crate::engine::{analyze, analyze_cfg_with};
use crate::{
    AnalysisConfig, AnalysisResult, Client, PrintFact, StatsObserver, TraceObserver, Verdict,
};
use mpl_cfg::Cfg;
use mpl_lang::corpus;

fn run(prog: &corpus::CorpusProgram, client: Client) -> AnalysisResult {
    let config = AnalysisConfig {
        client,
        ..AnalysisConfig::default()
    };
    analyze(&prog.program, &config)
}

#[test]
fn fig2_exchange_is_exact_with_constant_propagation() {
    let prog = corpus::fig2_exchange();
    let result = run(&prog, Client::Simple);
    assert!(result.is_exact(), "verdict: {:?}", result.verdict);
    // Two matches: 0's send -> 1's recv, 1's send -> 0's recv.
    assert_eq!(result.matches.len(), 2);
    // Both prints output the constant 5 (the Fig 2 headline).
    let fives: Vec<&PrintFact> = result
        .prints
        .iter()
        .filter(|p| p.value == Some(5))
        .collect();
    assert_eq!(fives.len(), 2, "prints: {:?}", result.prints);
    assert!(result.leaks.is_empty());
}

#[test]
fn fanout_broadcast_is_exact() {
    let prog = corpus::fanout_broadcast();
    let result = run(&prog, Client::Simple);
    assert!(result.is_exact(), "verdict: {:?}", result.verdict);
    assert_eq!(
        result.matches.len(),
        1,
        "one send statement matches one recv"
    );
    assert!(result.leaks.is_empty());
}

#[test]
fn exchange_with_root_is_exact_fig5() {
    let prog = corpus::exchange_with_root();
    let result = run(&prog, Client::Simple);
    assert!(result.is_exact(), "verdict: {:?}", result.verdict);
    // Root's send matches worker recv; worker send matches root recv.
    assert_eq!(result.matches.len(), 2, "matches: {:?}", result.matches);
    assert!(result.leaks.is_empty());
}

#[test]
fn gather_to_root_is_exact() {
    let prog = corpus::gather_to_root();
    let result = run(&prog, Client::Simple);
    assert!(result.is_exact(), "verdict: {:?}", result.verdict);
    assert_eq!(result.matches.len(), 1);
}

#[test]
fn nearest_neighbor_shift_is_exact() {
    let prog = corpus::nearest_neighbor_shift();
    let result = run(&prog, Client::Simple);
    assert!(result.is_exact(), "verdict: {:?}", result.verdict);
    // Sends: edge 0's send, interior send; recvs: edge np-1, interior.
    assert!(!result.matches.is_empty(), "matches: {:?}", result.matches);
    assert!(result.leaks.is_empty());
}

#[test]
fn transpose_square_needs_cartesian_client() {
    let prog = corpus::nas_cg_transpose_square(corpus::GridDims::Symbolic);
    // The simple client must give up (E3's contrast)...
    let simple = run(&prog, Client::Simple);
    assert!(
        !simple.is_exact(),
        "simple client should fail: {:?}",
        simple.verdict
    );
    // ...while the HSM client matches exactly.
    let cart = run(&prog, Client::Cartesian);
    assert!(cart.is_exact(), "verdict: {:?}", cart.verdict);
    assert_eq!(cart.matches.len(), 1);
    assert!(cart
        .events
        .iter()
        .all(|e| e.kind == crate::matcher::MatchKind::SelfPermutation));
}

#[test]
fn transpose_rect_is_exact_with_cartesian_client() {
    let prog = corpus::nas_cg_transpose_rect(corpus::GridDims::Symbolic);
    let result = run(&prog, Client::Cartesian);
    assert!(result.is_exact(), "verdict: {:?}", result.verdict);
    assert_eq!(result.matches.len(), 1);
}

#[test]
fn message_leak_detected_statically() {
    let prog = corpus::message_leak();
    let result = run(&prog, Client::Simple);
    assert_eq!(result.leaks.len(), 1, "verdict {:?}", result.verdict);
}

#[test]
fn deadlock_pair_detected_statically() {
    let prog = corpus::deadlock_pair();
    let result = run(&prog, Client::Cartesian);
    assert!(
        matches!(result.verdict, Verdict::Deadlock { .. }),
        "verdict: {:?}",
        result.verdict
    );
}

#[test]
fn ring_uniform_is_top() {
    // Modular wrap-around exceeds both clients (paper §X).
    let prog = corpus::ring_uniform();
    let result = run(&prog, Client::Cartesian);
    assert!(
        matches!(result.verdict, Verdict::Top { .. }),
        "{:?}",
        result.verdict
    );
}

#[test]
fn pairwise_exchange_is_top() {
    // Parity split needs non-contiguous process sets.
    let prog = corpus::pairwise_exchange();
    let result = run(&prog, Client::Cartesian);
    assert!(
        matches!(result.verdict, Verdict::Top { .. }),
        "{:?}",
        result.verdict
    );
}

#[test]
fn const_relay_propagates_constant_through_two_hops() {
    let prog = corpus::const_relay();
    let result = run(&prog, Client::Simple);
    assert!(result.is_exact(), "verdict: {:?}", result.verdict);
    let elevens = result.prints.iter().filter(|p| p.value == Some(11)).count();
    assert_eq!(elevens, 3, "prints: {:?}", result.prints);
}

#[test]
fn trace_collects_steps() {
    let prog = corpus::fig2_exchange();
    let mut tracer = TraceObserver::new();
    let cfg = Cfg::build(&prog.program);
    let _ = analyze_cfg_with(&cfg, &AnalysisConfig::default(), &mut tracer);
    assert!(
        tracer.lines().iter().any(|l| l.contains("match")),
        "{:?}",
        tracer.lines()
    );
}

#[test]
fn closure_stats_count_only_this_run() {
    // Two identical runs back to back on one thread: the second starts
    // with the first's closure work already on the thread's counters,
    // and must not report it.
    let prog = corpus::exchange_with_root();
    let counts = |r: AnalysisResult| {
        let c = r.closure_stats;
        [
            c.full_closures,
            c.full_closure_vars,
            c.incremental_closures,
            c.incremental_closure_vars,
        ]
    };
    let first = counts(run(&prog, Client::Simple));
    assert!(first[0] + first[2] > 0, "the run closes some graph");
    assert_eq!(counts(run(&prog, Client::Simple)), first);
}

#[test]
fn left_shift_is_exact() {
    let prog = corpus::left_shift();
    let result = run(&prog, Client::Simple);
    assert!(result.is_exact(), "verdict: {:?}", result.verdict);
}

#[test]
fn mdcask_full_is_exact() {
    let prog = corpus::mdcask_full();
    let result = run(&prog, Client::Simple);
    assert!(result.is_exact(), "verdict: {:?}", result.verdict);
    // Phase 1 send->recv(b), phase 2 send->recv(y), worker send->root recv.
    assert_eq!(result.matches.len(), 3, "matches: {:?}", result.matches);
}

#[test]
fn scatter_indexed_is_exact() {
    let prog = corpus::scatter_indexed();
    let result = run(&prog, Client::Simple);
    assert!(result.is_exact(), "verdict: {:?}", result.verdict);
}

#[test]
fn stencil_2d_vertical_concrete_is_exact() {
    let prog = corpus::stencil_2d_vertical(corpus::GridDims::Concrete { nrows: 3, ncols: 3 });
    let result = run(&prog, Client::Simple);
    assert!(result.is_exact(), "verdict: {:?}", result.verdict);
}

/// Both ranks send first, so both sends go pending, and each reads its
/// destination local (`d`, `e`) only when it is matched, long after the
/// send statement. The dead-variable projection must keep a local that a
/// pending send reads, or the match fails and the second print is lost.
#[test]
fn pending_send_keeps_the_locals_it_reads() {
    let program = mpl_lang::parse_program(
        "if id = 0 then d := 1; send 7 -> d; recv z <- 1; print z; \
         else if id = 1 then e := 0; send 9 -> e; recv y <- 0; print y; end end",
    )
    .unwrap();
    let cfg = Cfg::build(&program);
    for client in [Client::Simple, Client::Cartesian] {
        let config = AnalysisConfig {
            client,
            ..AnalysisConfig::default()
        };
        let result = crate::engine::analyze_cfg(&cfg, &config);
        assert!(result.is_exact(), "{client:?}: {:?}", result.verdict);
        // `print z` runs on rank 0 and `print y` on rank 1.
        let prints: Vec<(String, Option<i64>)> = result
            .prints
            .iter()
            .map(|p| (cfg.node(p.node).to_string(), p.value))
            .collect();
        assert_eq!(
            prints,
            [
                ("print z".to_owned(), Some(9)),
                ("print y".to_owned(), Some(7))
            ],
            "{client:?}"
        );
    }
}

/// Each padding local of `exchange_with_root_wide` is dead once the next
/// assignment has read it, so the projection keeps every state of the
/// exchange at the unpadded program's size: each local costs exactly its
/// own transfer step.
#[test]
fn dead_padding_costs_one_step_per_local() {
    for client in [Client::Simple, Client::Cartesian] {
        let base = run(&corpus::exchange_with_root(), client).steps;
        for n in [8, 48, 96_usize] {
            let wide = run(&corpus::exchange_with_root_wide(n), client);
            assert!(wide.is_exact(), "{client:?} n={n}: {:?}", wide.verdict);
            assert_eq!(wide.steps, base + n as u64, "{client:?} n={n}");
        }
    }
}

/// The store keeps a location only while a queued state can still reach
/// it (DESIGN §3.17). A path of k pair exchanges visits each of its
/// 2k + 8 locations once, so the store's high-water mark must not grow
/// with k, while the distinct-location count and the steps still do.
#[test]
fn store_high_water_is_independent_of_path_length() {
    let peak_live = |k: usize| {
        let cfg = Cfg::build(&corpus::repeated_exchanges(k).program);
        let mut stats = StatsObserver::new();
        let result = analyze_cfg_with(&cfg, &AnalysisConfig::default(), &mut stats);
        assert!(result.is_exact(), "k={k}: {:?}", result.verdict);
        let visited = 2 * k + 8;
        assert_eq!(result.steps, visited as u64, "k={k}");
        let stored = stats.profile().expect("profile fired").stored;
        assert_eq!(stored.locations, visited, "k={k}");
        stored.peak_live
    };
    let short = peak_live(64);
    assert_eq!(short, peak_live(512));
    assert!(short <= 4, "{short} live locations");
}

/// The engine keys each match event by its interned ranges instead of
/// its text. Every distinct `match:` line of the trace must still be one
/// line of the rendered topology, in the byte order of the text.
#[test]
fn topology_lists_each_distinct_traced_match_once() {
    for prog in corpus::all() {
        for client in [Client::Simple, Client::Cartesian] {
            let config = AnalysisConfig {
                client,
                ..AnalysisConfig::default()
            };
            let mut tracer = TraceObserver::new();
            let result = analyze_cfg_with(&Cfg::build(&prog.program), &config, &mut tracer);
            let traced: std::collections::BTreeSet<&str> = tracer
                .lines()
                .iter()
                .filter_map(|l| l.strip_prefix("match: "))
                .collect();
            let topology = result.render_topology();
            let rendered: Vec<&str> = topology.lines().skip(1).map(str::trim_start).collect();
            assert_eq!(
                traced.into_iter().collect::<Vec<_>>(),
                rendered,
                "{} / {client:?}",
                prog.name
            );
        }
    }
}

/// A path of k pair exchanges names the same two ranges at every match,
/// so the run renders as many ranges at any k.
#[test]
fn ranges_rendered_do_not_grow_with_path_length() {
    let rendered = |k: usize| {
        let cfg = Cfg::build(&corpus::repeated_exchanges(k).program);
        let mut stats = StatsObserver::new();
        let result = analyze_cfg_with(&cfg, &AnalysisConfig::default(), &mut stats);
        assert_eq!(result.events.len(), 2 * k, "k={k}");
        stats.profile().expect("profile fired").ranges_rendered
    };
    let short = rendered(8);
    assert_eq!(short, rendered(256));
    assert!(short <= 4, "{short} ranges rendered");
}
