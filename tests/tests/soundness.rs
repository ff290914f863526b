//! Soundness properties of the whole pipeline, checked on randomized
//! (seeded, in-tree RNG) program families:
//!
//! * whenever the static analysis reports an *exact* verdict, its
//!   statement-level topology covers every message of every concrete
//!   execution (for all tested `np ≥ min_np`);
//! * parameterized program families (random constants/offsets) stay
//!   sound, not just the fixed corpus.

use mpl_cfg::Cfg;
use mpl_core::{analyze_cfg, AnalysisConfig, Client, Verdict};
use mpl_lang::{corpus, parse_program};
use mpl_rng::Rng64;
use mpl_sim::Simulator;

/// Analyzes `src` and, if exact, checks coverage for each np.
fn assert_sound(src: &str, nps: &[u64]) {
    let program = parse_program(src).unwrap_or_else(|e| panic!("{e}\n{src}"));
    let cfg = Cfg::build(&program);
    let result = analyze_cfg(&cfg, &AnalysisConfig::default());
    if !result.is_exact() {
        return; // ⊤ / deadlock verdicts promise nothing about topology.
    }
    for &np in nps {
        let outcome = Simulator::from_cfg(Cfg::build(&program), np)
            .run()
            .unwrap_or_else(|e| panic!("np={np}: {e}\n{src}"));
        if !outcome.is_complete() {
            panic!("exact verdict but runtime deadlock at np={np}\n{src}");
        }
        assert!(
            outcome.topology.site_pairs().is_subset(&result.matches),
            "np={np}: static {:?} misses {:?}\n{src}",
            result.matches,
            outcome.topology.site_pairs()
        );
    }
}

#[test]
fn corpus_exact_verdicts_are_sound_for_many_np() {
    let nps: Vec<u64> = (4..=12).collect();
    for prog in corpus::all() {
        // Skip programs that need symbolic grid parameters at runtime.
        if prog.source.contains("nrows") {
            continue;
        }
        let cfg = Cfg::build(&prog.program);
        let result = analyze_cfg(&cfg, &AnalysisConfig::default());
        if !result.is_exact() {
            continue;
        }
        for &np in &nps {
            let outcome = Simulator::from_cfg(Cfg::build(&prog.program), np)
                .run()
                .unwrap();
            if !outcome.is_complete() {
                panic!("{}: exact verdict but deadlock at np={np}", prog.name);
            }
            assert!(
                outcome.topology.site_pairs().is_subset(&result.matches),
                "{} at np={np}",
                prog.name
            );
        }
    }
}

#[test]
fn exact_verdict_never_hides_a_leak() {
    // If the analysis is exact and reports no leaks, the simulator must
    // not observe one either.
    for prog in corpus::all() {
        if prog.source.contains("nrows") {
            continue;
        }
        let cfg = Cfg::build(&prog.program);
        let result = analyze_cfg(&cfg, &AnalysisConfig::default());
        if !result.is_exact() || !result.leaks.is_empty() {
            continue;
        }
        for np in [4u64, 7] {
            let outcome = Simulator::from_cfg(Cfg::build(&prog.program), np)
                .run()
                .unwrap();
            assert!(
                outcome.leaks.is_empty(),
                "{}: static no-leak but runtime leaked at np={np}",
                prog.name
            );
        }
    }
}

/// Broadcast family: the root relays `v` to everyone; the analysis must
/// stay exact and sound for any payload and any direction of the loop
/// bound expression.
#[test]
fn broadcast_family_sound() {
    let mut rng = Rng64::seed_from_u64(0x50D0);
    for _ in 0..40 {
        let v = rng.i64_in(-100, 100);
        let bound = if rng.flip() { "np - 2" } else { "np - 1" };
        let src = format!(
            "x := {v};\n\
             if id = 0 then\n  for i = 1 to {bound} do\n    send x -> i;\n  end\n\
             else\n  if id <= {bound} then\n    recv y <- 0;\n  end\nend\n"
        );
        assert_sound(&src, &[4, 6, 9]);
    }
}

/// Pair exchange between rank 0 and a random fixed partner.
#[test]
fn pair_family_sound() {
    let mut rng = Rng64::seed_from_u64(0x50D1);
    for _ in 0..40 {
        // min_np = 4 guarantees the partner exists.
        let partner = rng.i64_in(1, 4);
        let v = rng.i64_in(-50, 50);
        let src = format!(
            "if id = 0 then\n  x := {v};\n  send x -> {partner};\n  recv y <- {partner};\n\
             else\n  if id = {partner} then\n    recv y <- 0;\n    send y -> 0;\n  end\nend\n"
        );
        assert_sound(&src, &[4, 5, 8]);
    }
}

/// Exchange-with-root carrying a random payload expression.
#[test]
fn exchange_family_sound() {
    let mut rng = Rng64::seed_from_u64(0x50D2);
    for _ in 0..40 {
        let v = rng.i64_in(0, 1000);
        let src = format!(
            "x := {v};\n\
             if id = 0 then\n  for i = 1 to np - 1 do\n    send x -> i;\n    recv y <- i;\n  end\n\
             else\n  recv y <- 0;\n  send x -> 0;\nend\n"
        );
        assert_sound(&src, &[4, 7, 10]);
    }
}

/// The verdict enum is exhaustive: every corpus program lands in one of
/// the three verdicts and the result is internally consistent.
#[test]
fn verdicts_partition() {
    let all = corpus::all();
    for prog in &all {
        let result = mpl_core::analyze(&prog.program, &AnalysisConfig::default());
        match &result.verdict {
            Verdict::Exact => {}
            Verdict::Deadlock { blocked } => assert!(!blocked.is_empty()),
            Verdict::Top { reason } => assert!(!reason.to_string().is_empty()),
            other => panic!("unexpected verdict {other:?}"),
        }
        // The simple client is never *more* capable than the cartesian
        // one on this corpus: if simple succeeds, cartesian does too.
        let simple = mpl_core::analyze(
            &prog.program,
            &AnalysisConfig {
                client: Client::Simple,
                ..AnalysisConfig::default()
            },
        );
        if simple.is_exact() {
            assert!(
                result.is_exact(),
                "{}: simple exact but cartesian {:?}",
                prog.name,
                result.verdict
            );
        }
    }
}

/// Communication inside a time-step loop, as stencil codes iterate it:
/// the guarded halo shift, and the paper's Fig 7 shift inside `for t = 1
/// to 3`. Both once panicked with a rename collision on a dropped set's
/// namespace. Under both clients they now give up honestly, and the
/// simulator confirms the programs themselves complete.
#[test]
fn looped_shifts_give_up_without_panicking() {
    let guarded = "\
        j := 0;\n\
        while j < 2 do\n\
          if id < np - 1 then\n    send 7 -> id + 1;\n  end\n\
          if id > 0 then\n    recv y <- id - 1;\n  end\n\
          j := j + 1;\n\
        end\n";
    let fig7 = format!(
        "for t = 1 to 3 do\n{}end\n",
        corpus::nearest_neighbor_shift().source
    );
    for (src, expected) in [
        (guarded, "abstraction-loss"),
        (fig7.as_str(), "non-uniform-condition"),
    ] {
        let program = parse_program(src).unwrap_or_else(|e| panic!("{e}\n{src}"));
        for client in [Client::Simple, Client::Cartesian] {
            let config = AnalysisConfig {
                client,
                ..AnalysisConfig::default()
            };
            let result = analyze_cfg(&Cfg::build(&program), &config);
            let Verdict::Top { reason } = &result.verdict else {
                panic!(
                    "{}: expected ⊤, got {:?}\n{src}",
                    client.tag(),
                    result.verdict
                );
            };
            assert_eq!(reason.code(), expected, "{}\n{src}", client.tag());
        }
        for np in 4..=9 {
            let outcome = Simulator::new(&program, np).run().unwrap();
            assert!(outcome.is_complete(), "np={np}\n{src}");
        }
    }
}

/// Integer edge cases: `i64::MIN / -1`, a sum past `i64::MAX`, a
/// difference past `i64::MIN`, the negation of `i64::MIN`, and a
/// product that wraps to zero. The simulator wraps (two's complement);
/// the analysis, `check` and `run` must not panic in any build, and any
/// constant the analysis claims for a print is what every rank prints.
#[test]
fn overflowing_arithmetic_never_panics_and_agrees_with_the_simulator() {
    let min = "m := 0 - 9223372036854775807 - 1;\n";
    let programs = [
        format!("{min}q := m / (0 - 1);\nprint q;\n"),
        "x := 9223372036854775807 + 1;\nprint x;\n".to_owned(),
        "x := 0 - 9223372036854775807;\ny := x - 9223372036854775807;\nprint y;\n".to_owned(),
        format!("{min}q := 0 - m;\nprint q;\n"),
        "x := 1099511627776 * 1099511627776;\nprint x;\n".to_owned(),
    ];
    let cli = |args: &[&str], src: &str| {
        let args: Vec<String> = args.iter().map(|a| (*a).to_owned()).collect();
        mpl_cli::run_command(&args, src).expect("command runs")
    };
    for src in &programs {
        let program = parse_program(src).unwrap_or_else(|e| panic!("{e}\n{src}"));
        let runs: Vec<_> = (2..=4)
            .map(|np| Simulator::new(&program, np).run().unwrap())
            .collect();
        for client in [Client::Simple, Client::Cartesian] {
            let config = AnalysisConfig {
                client,
                ..AnalysisConfig::default()
            };
            let result = analyze_cfg(&Cfg::build(&program), &config);
            for c in result.prints.iter().filter_map(|p| p.value) {
                for out in &runs {
                    assert!(
                        out.prints.iter().flatten().all(|&v| v == c),
                        "{}: analysis claims {c}, runtime printed {:?}\n{src}",
                        client.tag(),
                        out.prints
                    );
                }
            }
        }
        assert!(cli(&["check", "f.mpl"], src).code <= 1, "{src}");
        assert_eq!(cli(&["run", "f.mpl", "--np", "4"], src).code, 0, "{src}");
    }
}

/// A singleton set's rank is a constant, so an expression over it that
/// is not linear still folds: on the root's branch, `z := id * 2` prints
/// 0 just like `id`, under both clients, as every run prints.
#[test]
fn a_singleton_sets_rank_folds_into_print_constants() {
    let src = "if id = 0 then\n  z := id * 2;\n  print z;\n  print id;\nend\n";
    let program = parse_program(src).unwrap();
    for np in 2..=4 {
        let out = Simulator::new(&program, np).run().unwrap();
        assert_eq!(out.prints[0], [0, 0], "np={np}");
        assert!(out.prints[1..].iter().all(Vec::is_empty), "np={np}");
    }
    for client in [Client::Simple, Client::Cartesian] {
        let config = AnalysisConfig {
            client,
            ..AnalysisConfig::default()
        };
        let result = analyze_cfg(&Cfg::build(&program), &config);
        assert!(result.is_exact(), "{}: {:?}", client.tag(), result.verdict);
        let values: Vec<Option<i64>> = result.prints.iter().map(|p| p.value).collect();
        assert_eq!(values, [Some(0), Some(0)], "{}", client.tag());
    }
}
