//! E18 equivalence suite for the copy-on-write state layer: structural
//! sharing and fingerprints are pure optimizations, so they must never
//! change what the analysis computes.
//!
//! Three angles:
//! * the full corpus under both clients, analyzed twice — results must
//!   be identical run to run (in debug builds every fingerprint-equality
//!   fast path self-checks: a hit asserts structural equality, so this
//!   sweep exercises the dedup paths under live assertions);
//! * value semantics: mutating a cloned state never leaks into the
//!   original, while untouched components keep sharing one allocation;
//! * a seeded property test over random constraint-graph mutation
//!   sequences: the incrementally-maintained fingerprint always equals
//!   the from-scratch recomputation, equal build histories yield equal
//!   fingerprints, and fingerprint equality implies structural equality.
//!
//! A scaling check rides along: a path's states share their match set,
//! so the footprint of every state along the path grows near-linearly
//! with path length.

use std::collections::HashSet;

use mpl_cfg::{Cfg, CfgNodeId};
use mpl_core::{
    analyze_cfg, analyze_cfg_with, AnalysisConfig, AnalysisObserver, AnalysisResult, AnalysisState,
    Client, Shared,
};
use mpl_domains::{intern_name, ConstraintGraph, LinExpr, PsetId, VarId};
use mpl_lang::corpus;
use mpl_rng::Rng64;

/// Strips the wall-clock-bearing closure stats so results from separate
/// runs compare on semantics alone.
fn sans_timing(mut r: AnalysisResult) -> AnalysisResult {
    r.closure_stats = Default::default();
    r
}

#[test]
fn corpus_results_are_identical_across_repeat_runs() {
    for prog in corpus::all() {
        let cfg = Cfg::build(&prog.program);
        for client in [Client::Simple, Client::Cartesian] {
            let config = AnalysisConfig {
                client,
                ..AnalysisConfig::default()
            };
            let first = sans_timing(analyze_cfg(&cfg, &config));
            let second = sans_timing(analyze_cfg(&cfg, &config));
            assert_eq!(
                first, second,
                "analysis of {} under {client:?} is not reproducible",
                prog.name
            );
        }
    }
}

/// Keeps every state the engine steps. The scheduler's store evicts a
/// location once no queued state can reach it, so only an observer still
/// sees the whole path.
#[derive(Default)]
struct PathStates(Vec<AnalysisState>);

impl AnalysisObserver for PathStates {
    fn on_step(&mut self, _step: u64, st: &AnalysisState) {
        self.0.push(st.clone());
    }
}

/// Estimated bytes of every state an analysis of `k` sequential pair
/// exchanges steps (one path of 2k matches), each shared allocation
/// counted once.
fn path_bytes_of_repeated_exchanges(k: usize) -> usize {
    let cfg = Cfg::build(&corpus::repeated_exchanges(k).program);
    let mut path = PathStates::default();
    let result = analyze_cfg_with(&cfg, &AnalysisConfig::default(), &mut path);
    assert!(result.is_exact(), "{:?}", result.verdict);
    assert_eq!(result.matches.len(), 2 * k);
    assert_eq!(path.0.len() as u64, result.steps);
    let mut seen = HashSet::new();
    path.0.iter().map(|st| st.approx_bytes(&mut seen)).sum()
}

#[test]
fn stored_state_bytes_scale_near_linearly_with_match_history() {
    // Every state on the path holds the path's matches so far: with a
    // copied set per state the path's footprint grows quadratically
    // (about 3.5x per doubling here); with shared path-copied sets it
    // grows by k log k.
    let small = path_bytes_of_repeated_exchanges(256);
    let large = path_bytes_of_repeated_exchanges(512);
    assert!(
        (large as f64) < 2.5 * small as f64,
        "stored bytes grew {:.2}x for 2x the matches ({small} -> {large})",
        large as f64 / small as f64
    );
}

#[test]
fn cloned_state_mutations_stay_isolated() {
    let original = AnalysisState::initial(CfgNodeId(0), 2);
    let mut copy = original.clone();
    // A fresh clone is all sharing and compares equal through the
    // fingerprint fast path.
    assert!(Shared::ptr_eq(&copy.cg, &original.cg));
    assert!(Shared::ptr_eq(&copy.uniform, &original.uniform));
    assert!(copy.structurally_eq(&original));
    assert_eq!(copy.fingerprint(), original.fingerprint());

    // Mutating the clone's graph unshares only the graph.
    let x = VarId::pset_var(copy.psets[0].id, intern_name("x"));
    copy.cg.assert_eq_const(x, 7);
    assert!(!Shared::ptr_eq(&copy.cg, &original.cg));
    assert!(
        Shared::ptr_eq(&copy.uniform, &original.uniform),
        "the uniform set was untouched"
    );
    assert!(!original.cg.has_var(x));
    assert_ne!(copy.fingerprint(), original.fingerprint());
    assert!(!copy.structurally_eq(&original));

    // Reverting the mutation restores value equality (fingerprints
    // agree again even though the allocations stay distinct).
    copy.cg.remove_var(x);
    assert!(!Shared::ptr_eq(&copy.cg, &original.cg));
    assert!(copy.structurally_eq(&original));
    assert_eq!(copy.fingerprint(), original.fingerprint());
}

fn pvar(i: usize) -> VarId {
    VarId::pset_var(PsetId(0), intern_name(&format!("v{i}")))
}

/// One random mutation against `g`; the same (rng, op) stream applied to
/// equal graphs must keep them equal.
fn mutate(g: &mut ConstraintGraph, rng: &mut Rng64, nvars: usize) {
    match rng.index(7) {
        0 => {
            let (i, j) = (rng.index(nvars), rng.index(nvars));
            g.assert_le(pvar(i), pvar(j), rng.i64_in(-8, 8));
        }
        1 => g.assert_eq_const(pvar(rng.index(nvars)), rng.i64_in(-16, 16)),
        2 => {
            let (i, j) = (rng.index(nvars), rng.index(nvars));
            let e = LinExpr::var_plus(pvar(j), rng.i64_in(-4, 4));
            g.assign(pvar(i), &e);
        }
        3 => g.havoc(pvar(rng.index(nvars))),
        4 => g.remove_var(pvar(rng.index(nvars))),
        5 => {
            g.ensure_var(pvar(rng.index(nvars)));
        }
        _ => g.close(),
    }
}

#[test]
fn fingerprint_tracks_every_mutation_sequence() {
    let mut rng = Rng64::seed_from_u64(0xE18);
    for case in 0..80 {
        let nvars = 2 + rng.index(6);
        let mut g = ConstraintGraph::new();
        let mut twin = ConstraintGraph::new();
        let mut ops = Rng64::seed_from_u64(0x5EED + case);
        let mut twin_ops = Rng64::seed_from_u64(0x5EED + case);
        for step in 0..40 {
            mutate(&mut g, &mut ops, nvars);
            mutate(&mut twin, &mut twin_ops, nvars);
            // The incrementally-maintained fingerprint never drifts from
            // the from-scratch recomputation…
            assert_eq!(
                g.fingerprint(),
                g.recomputed_fingerprint(),
                "fingerprint drifted at case {case} step {step}"
            );
            // …identical histories agree…
            assert_eq!(
                g.fingerprint(),
                twin.fingerprint(),
                "case {case} step {step}"
            );
            // …and fingerprint equality means structural equality.
            if g.fingerprint() == twin.fingerprint() {
                assert!(g.same_shape(&twin), "collision at case {case} step {step}");
            }
        }
    }
}

#[test]
fn fingerprint_equality_implies_structural_equality_across_histories() {
    // Graphs built by *different* mutation sequences: any fingerprint
    // agreement must come with structural agreement (a 64-bit collision
    // inside this tiny pool would be a mixer bug, not bad luck).
    let mut rng = Rng64::seed_from_u64(0xC0117);
    let mut pool: Vec<ConstraintGraph> = Vec::new();
    for _ in 0..60 {
        let mut g = ConstraintGraph::new();
        for _ in 0..rng.index(12) {
            mutate(&mut g, &mut rng, 4);
        }
        g.close();
        pool.push(g);
    }
    for a in &pool {
        for b in &pool {
            if a.fingerprint() == b.fingerprint() {
                assert!(
                    a.same_shape(b),
                    "fingerprint collision without structural equality"
                );
            }
        }
    }
}
