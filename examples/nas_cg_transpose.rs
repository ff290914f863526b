//! The NAS-CG transpose (paper Fig 6 / §VIII): matching complex
//! cartesian-grid expressions with Hierarchical Sequence Maps.
//!
//! Replays the paper's §VIII derivations — converting the transpose
//! expression to an HSM, proving it is a surjection onto `[0..np-1]` and
//! that composing it with the receive expression yields the identity —
//! then runs the full pCFG analysis on both grid shapes, and shows that
//! the simple §VII client *cannot* handle this pattern (it returns ⊤).
//!
//! Run with `cargo run -p mpl-examples --bin nas_cg_transpose`.

use std::collections::BTreeMap;

use mpl_core::{analyze, AnalysisConfig, Client};
use mpl_hsm::{expr_to_hsm, AssumptionCtx, Hsm, SymPoly};
use mpl_lang::ast::StmtKind;
use mpl_lang::corpus::{self, GridDims};
use mpl_lang::parse_program;
use mpl_sim::{SimConfig, Simulator};

fn dest_of(src: &str) -> mpl_lang::ast::Expr {
    let p = parse_program(&format!("send 0 -> {src};")).unwrap();
    let StmtKind::Send { dest, .. } = &p.stmts[0].kind else {
        unreachable!()
    };
    dest.clone()
}

fn main() {
    // --- The §VIII-A/B derivation, square grid ---------------------------
    let mut ctx = AssumptionCtx::new();
    ctx.define("np", SymPoly::sym("nrows") * SymPoly::sym("ncols"));
    ctx.define("ncols", SymPoly::sym("nrows"));
    let mut vars = BTreeMap::new();
    vars.insert("nrows".to_owned(), SymPoly::sym("nrows"));
    vars.insert("ncols".to_owned(), SymPoly::sym("ncols"));

    let expr = dest_of("(id % nrows) * nrows + id / nrows");
    let np = ctx.normalize(&SymPoly::sym("np"));
    let all = Hsm::range(SymPoly::zero(), np.clone());
    let send = expr_to_hsm(&expr, &all, &vars, &ctx).expect("HSM conversion");
    println!("=== square grid (ncols = nrows), np = nrows² ===");
    println!("send expression: (id % nrows) * nrows + id / nrows");
    println!("as an HSM over [0..np-1]: {send}");
    println!(
        "surjection onto [0..np-1]:  {}",
        send.is_surjection_onto(&SymPoly::zero(), &np, &ctx)
    );
    let composed = expr_to_hsm(&expr, &send, &vars, &ctx).expect("composition");
    println!("recv ∘ send as an HSM:      {composed}");
    println!(
        "identity on [0..np-1]:      {}",
        composed.is_identity_on(&SymPoly::zero(), &np, &ctx)
    );

    // --- Full pCFG analysis, both grid shapes ----------------------------
    for (label, prog) in [
        (
            "square",
            corpus::nas_cg_transpose_square(GridDims::Symbolic),
        ),
        (
            "rectangular (ncols = 2*nrows)",
            corpus::nas_cg_transpose_rect(GridDims::Symbolic),
        ),
    ] {
        println!("\n=== pCFG analysis: {label} grid ===");
        let cart = analyze(&prog.program, &AnalysisConfig::default());
        println!("cartesian (§VIII) client verdict: {:?}", cart.verdict);
        for e in &cart.events {
            println!("  match: {e}");
        }
        let simple = analyze(
            &prog.program,
            &AnalysisConfig {
                client: Client::Simple,
                ..AnalysisConfig::default()
            },
        );
        println!("simple (§VII) client verdict:     {:?}", simple.verdict);
        assert!(cart.is_exact());
        assert!(
            !simple.is_exact(),
            "the simple client cannot match the transpose"
        );
    }

    // --- Concrete cross-check --------------------------------------------
    println!("\n=== simulator cross-check (3x3 grid, np = 9) ===");
    let prog = corpus::nas_cg_transpose_square(GridDims::Concrete { nrows: 3, ncols: 3 });
    let outcome = Simulator::new(&prog.program, 9)
        .with_config(SimConfig::default())
        .run()
        .expect("simulation succeeds");
    assert!(outcome.is_complete());
    for rank in 0..9 {
        let partner = outcome.stores[rank]["y"];
        println!("rank {rank} exchanged with rank {partner}");
        assert_eq!(partner, ((rank as i64) % 3) * 3 + (rank as i64) / 3);
    }
}
