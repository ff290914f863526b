//! Golden equivalence suite for the analysis engine: runs the full
//! corpus through both clients and compares a semantic snapshot —
//! verdict shape, matched site pairs (the static topology), pattern
//! classification, print facts, leaks, match-event kinds and the rendered
//! match events with their symbolic ranges — against `golden_corpus.txt`.
//!
//! The snapshot was captured from the String-keyed (`NsVar`-indexed)
//! constraint-graph representation and pins the interned `VarId`
//! representation to byte-identical results. To regenerate after an
//! *intentional* behavior change:
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test -p integration-tests --test golden_equivalence
//! ```

use std::fmt::Write as _;

use mpl_core::{analyze, classify, AnalysisConfig, Client, StaticTopology, Verdict};
use mpl_lang::corpus;

/// Renders one corpus program under one client as stable text lines.
fn render_run(out: &mut String, name: &str, client: Client) {
    let prog = corpus::all().into_iter().find(|p| p.name == name).unwrap();
    let config = AnalysisConfig::builder()
        .client(client)
        .build()
        .expect("valid config");
    let result = analyze(&prog.program, &config);

    let verdict = match &result.verdict {
        Verdict::Exact => "exact".to_owned(),
        Verdict::Deadlock { blocked } => {
            let nodes: Vec<String> = blocked.iter().map(|(n, _)| n.to_string()).collect();
            format!("deadlock at [{}]", nodes.join(", "))
        }
        Verdict::Top { reason } => format!("top: {reason}"),
        other => format!("unexpected: {other:?}"),
    };
    let _ = writeln!(out, "{name} / {client:?}");
    let _ = writeln!(out, "  verdict: {verdict}");

    let topo = StaticTopology::from_result(&result);
    let pairs: Vec<String> = topo
        .site_pairs()
        .iter()
        .map(|(s, r)| format!("{s}->{r}"))
        .collect();
    let _ = writeln!(out, "  topology: [{}]", pairs.join(", "));
    let _ = writeln!(out, "  pattern: {}", classify(&result));

    let mut prints: Vec<String> = result
        .prints
        .iter()
        .map(|p| match p.value {
            Some(v) => format!("{}={v}", p.node),
            None => format!("{}=?", p.node),
        })
        .collect();
    prints.sort();
    let _ = writeln!(out, "  prints: [{}]", prints.join(", "));

    let mut leaks: Vec<String> = result.leaks.iter().map(|n| n.to_string()).collect();
    leaks.sort();
    let _ = writeln!(out, "  leaks: [{}]", leaks.join(", "));

    let mut kinds: Vec<String> = result
        .events
        .iter()
        .map(|e| match e.s_const {
            Some(c) => format!("{:?}(s={c})", e.kind),
            None => format!("{:?}", e.kind),
        })
        .collect();
    kinds.sort();
    let _ = writeln!(out, "  events: [{}]", kinds.join(", "));

    // The rendered match events pin each event's symbolic ranges and
    // their order, not only the site pairs above.
    for line in topo.to_string().lines() {
        let _ = writeln!(out, "  {line}");
    }
}

fn render_all() -> String {
    let mut out = String::new();
    for prog in corpus::all() {
        for client in [Client::Simple, Client::Cartesian] {
            render_run(&mut out, prog.name, client);
        }
    }
    out
}

#[test]
fn corpus_results_match_golden_snapshot() {
    let actual = render_all();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden_corpus.txt");
    if std::env::var("GOLDEN_REGEN").is_ok() {
        std::fs::write(path, &actual).expect("write golden file");
        return;
    }
    let expected = std::fs::read_to_string(path)
        .expect("golden_corpus.txt missing — run with GOLDEN_REGEN=1 to create it");
    if actual != expected {
        // Line-level diff for a readable failure.
        for (i, (a, e)) in actual.lines().zip(expected.lines()).enumerate() {
            if a != e {
                panic!(
                    "golden mismatch at line {}:\n  expected: {e}\n  actual:   {a}",
                    i + 1
                );
            }
        }
        panic!(
            "golden length mismatch: expected {} lines, got {}",
            expected.lines().count(),
            actual.lines().count()
        );
    }
}

/// The paper-figure expectations baked into DESIGN.md §4 (E1–E14 shapes)
/// must not drift: spot-check the headline counts independently of the
/// snapshot file.
#[test]
fn headline_shapes_hold() {
    let cases: &[(&str, Client, usize)] = &[
        ("fig2_exchange", Client::Simple, 2),
        ("fanout_broadcast", Client::Simple, 1),
        ("exchange_with_root", Client::Simple, 2),
        ("mdcask_full", Client::Simple, 3),
        ("const_relay", Client::Simple, 2),
        ("nas_cg_transpose_square", Client::Cartesian, 1),
    ];
    for &(name, client, want_matches) in cases {
        let prog = corpus::all().into_iter().find(|p| p.name == name).unwrap();
        let config = AnalysisConfig::builder()
            .client(client)
            .build()
            .expect("valid config");
        let result = analyze(&prog.program, &config);
        assert!(result.is_exact(), "{name}: {:?}", result.verdict);
        assert_eq!(result.matches.len(), want_matches, "{name}");
    }
}
