//! Randomized end-to-end soundness (seeded, in-tree RNG): generate
//! structured MPL programs (random local computation wrapped around
//! randomly-parameterized communication skeletons, straight-line or
//! inside a time-step loop), then check that
//!
//! * the simulator completes and is schedule-oblivious,
//! * whenever the analysis answers "exact", its topology covers every
//!   concrete execution,
//! * exact verdicts never hide runtime leaks or deadlocks.

use mpl_cfg::Cfg;
use mpl_core::{analyze_cfg, AnalysisConfig, Client};
use mpl_lang::parse_program;
use mpl_rng::Rng64;
use mpl_sim::{Schedule, SimConfig, Simulator};

/// A random side-effect-free arithmetic expression over the given
/// variables plus `id`/`np` and literals.
fn gen_expr(rng: &mut Rng64, vars: &[String], depth: u32) -> String {
    if depth > 0 && rng.index(2) == 0 {
        let op = *rng.pick(&["+", "-", "*"]);
        let l = gen_expr(rng, vars, depth - 1);
        let r = gen_expr(rng, vars, depth - 1);
        return format!("({l} {op} {r})");
    }
    match rng.index(4) {
        0 => rng.i64_in(-20, 20).to_string(),
        1 => "id".to_owned(),
        2 => "np".to_owned(),
        _ => rng.pick(vars).clone(),
    }
}

/// A prologue of chained assignments `v0 := e; v1 := e; ...`.
fn gen_prologue(rng: &mut Rng64, n: usize) -> (String, Vec<String>) {
    let mut src = "seed := 1;\n".to_owned();
    let mut vars = vec!["seed".to_owned()];
    for i in 0..n {
        let name = format!("v{i}");
        let e = gen_expr(rng, &vars, 3);
        src.push_str(&format!("{name} := {e};\n"));
        vars.push(name);
    }
    (src, vars)
}

/// A communication skeleton template using `payload` as the sent value.
fn skeleton(kind: u8, payload: &str) -> String {
    match kind % 4 {
        0 => format!(
            "if id = 0 then\n  for i = 1 to np - 1 do\n    send {payload} -> i;\n  end\n\
             else\n  recv y <- 0;\n  print y;\nend\n"
        ),
        1 => format!(
            "if id = 0 then\n  for i = 1 to np - 1 do\n    recv y <- i;\n    print y;\n  end\n\
             else\n  send {payload} -> 0;\nend\n"
        ),
        2 => format!(
            "if id = 0 then\n  for i = 1 to np - 1 do\n    send {payload} -> i;\n    recv y <- i;\n  end\n\
             else\n  recv y <- 0;\n  send {payload} -> 0;\nend\n"
        ),
        _ => format!(
            "if id = 0 then\n  send {payload} -> 1;\nelse\n  if id = 1 then\n    recv y <- 0;\n    print y;\n  end\nend\n"
        ),
    }
}

/// A loop body: one communication phase of a time-step loop, sending
/// `payload`.
fn loop_body(kind: usize, payload: &str) -> String {
    match kind % 5 {
        // Guarded halo shift, right and left.
        0 => format!(
            "if id < np - 1 then\n  send {payload} -> id + 1;\nend\n\
             if id > 0 then\n  recv y <- id - 1;\nend\n"
        ),
        1 => format!(
            "if id > 0 then\n  send {payload} -> id - 1;\nend\n\
             if id < np - 1 then\n  recv y <- id + 1;\nend\n"
        ),
        // The paper's Fig 7 shift.
        2 => format!(
            "if id = 0 then\n  send {payload} -> id + 1;\nelse\n  if id = np - 1 then\n    \
             recv y <- id - 1;\n  else\n    recv y <- id - 1;\n    send {payload} -> id + 1;\n  \
             end\nend\n"
        ),
        // Exchange-with-root and fan-out.
        3 => format!(
            "if id = 0 then\n  for i = 1 to np - 1 do\n    send {payload} -> i;\n    recv y <- i;\n  end\n\
             else\n  recv y <- 0;\n  send {payload} -> 0;\nend\n"
        ),
        _ => format!(
            "if id = 0 then\n  for i = 1 to np - 1 do\n    send {payload} -> i;\n  end\n\
             else\n  recv y <- 0;\nend\n"
        ),
    }
}

/// Runs `src` on `np` ranks in program order and under a random
/// schedule, then analyzes it under each client: the simulator must
/// complete leak-free and schedule-obliviously, and an exact verdict
/// must cover the runtime site pairs and report no leak.
fn check_program(src: &str, np: u64, seed: u64, clients: &[Client]) {
    let program = parse_program(src).unwrap_or_else(|e| panic!("{e}\n{src}"));
    let cfg = Cfg::build(&program);

    // Concrete baseline run.
    let base = Simulator::from_cfg(Cfg::build(&program), np)
        .run()
        .unwrap_or_else(|e| panic!("{e}\n{src}"));
    assert!(
        base.is_complete(),
        "skeleton programs always complete:\n{src}"
    );
    assert!(base.leaks.is_empty());

    // Schedule independence.
    let alt = Simulator::from_cfg(Cfg::build(&program), np)
        .with_config(SimConfig {
            schedule: Schedule::Random { seed },
            ..SimConfig::default()
        })
        .run()
        .unwrap();
    assert_eq!(&base.stores, &alt.stores);
    assert_eq!(&base.topology, &alt.topology);
    assert_eq!(&base.clocks, &alt.clocks);

    // Analysis soundness (exact verdicts only promise coverage).
    for &client in clients {
        let config = AnalysisConfig {
            client,
            ..AnalysisConfig::default()
        };
        let result = analyze_cfg(&cfg, &config);
        if result.is_exact() {
            assert!(
                base.topology.site_pairs().is_subset(&result.matches),
                "static {:?} misses runtime {:?}\n{src}",
                result.matches,
                base.topology.site_pairs()
            );
            assert!(
                result.leaks.is_empty(),
                "exact verdict reported a leak on a leak-free program"
            );
        }
    }
}

#[test]
fn random_programs_are_sound_and_oblivious() {
    let mut rng = Rng64::seed_from_u64(0xF022);
    for _ in 0..48 {
        let (prologue, vars) = gen_prologue(&mut rng, 4);
        let kind = rng.index(4) as u8;
        let payload = rng.pick(&vars).clone();
        let np = rng.u64_in(4, 9);
        let seed = rng.u64_in(0, 1000);
        let src = format!("{prologue}{}", skeleton(kind, &payload));
        check_program(&src, np, seed, &[Client::default()]);
    }
    // Communication inside a time-step loop, under both clients.
    let mut rng = Rng64::seed_from_u64(0xF024);
    for _ in 0..48 {
        let (prologue, vars) = gen_prologue(&mut rng, 4);
        let kind = rng.index(5);
        let payload = rng.pick(&vars).clone();
        let body = loop_body(kind, &payload);
        let k = rng.i64_in(2, 5);
        let np = rng.u64_in(4, 9);
        let seed = rng.u64_in(0, 1000);
        let src = if rng.flip() {
            format!("{prologue}j := 0;\nwhile j < {k} do\n{body}j := j + 1;\nend\n")
        } else {
            format!("{prologue}for t = 1 to {k} do\n{body}end\n")
        };
        check_program(&src, np, seed, &[Client::Simple, Client::Cartesian]);
    }
}

/// Constant payloads must propagate to the receivers' prints whenever the
/// prologue pins the payload to a constant.
#[test]
fn constant_payloads_propagate() {
    let mut rng = Rng64::seed_from_u64(0xF023);
    for _ in 0..48 {
        let c = rng.i64_in(-50, 50);
        let kind = rng.index(3) as u8;
        let src = format!("x := {c};\n{}", skeleton(kind, "x"));
        let program = parse_program(&src).unwrap();
        let result = mpl_core::analyze(&program, &AnalysisConfig::default());
        assert!(result.is_exact(), "{:?}\n{src}", result.verdict);
        for p in &result.prints {
            assert_eq!(p.value, Some(c), "print fact {p:?}\n{src}");
        }
        // And the simulator agrees.
        let out = Simulator::new(&program, 5).run().unwrap();
        for prints in &out.prints {
            for v in prints {
                assert_eq!(*v, c);
            }
        }
    }
}
