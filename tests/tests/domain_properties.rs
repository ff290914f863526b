//! Randomized property tests on the abstract domains (seeded, in-tree
//! RNG): the constraint graph's incremental closure agrees with the full
//! O(n³) closure, lattice operations satisfy their laws, and HSM div/mod
//! agree with concrete integer arithmetic on random inputs.

use std::collections::BTreeMap;

use mpl_domains::{intern_name, ConstraintGraph, LinExpr, PsetId, VarId};
use mpl_hsm::{AssumptionCtx, Hsm, SymPoly};
use mpl_rng::Rng64;

fn var(i: usize) -> VarId {
    VarId::pset_var(PsetId(0), intern_name(&format!("v{i}")))
}

fn random_edges(
    rng: &mut Rng64,
    nvars: usize,
    bound: i64,
    max_len: usize,
) -> Vec<(usize, usize, i64)> {
    let len = 1 + rng.index(max_len);
    (0..len)
        .map(|_| {
            (
                rng.index(nvars),
                rng.index(nvars),
                rng.i64_in(-bound, bound),
            )
        })
        .collect()
}

fn build(edges: &[(usize, usize, i64)], carrier: usize) -> ConstraintGraph {
    let mut g = ConstraintGraph::new();
    for &(x, y, c) in edges {
        if x != y {
            g.assert_le(var(x), var(y), c);
        }
    }
    // Ensure all vars exist so lattice ops see a common carrier.
    for i in 0..carrier {
        g.ensure_var(var(i));
    }
    g.close();
    g
}

/// Incremental closure (assert_le on a closed DBM) computes exactly the
/// same bounds as batch insertion plus one full closure.
#[test]
fn incremental_closure_agrees_with_full() {
    let mut rng = Rng64::seed_from_u64(11);
    for case in 0..64 {
        let edges = random_edges(&mut rng, 5, 10, 11);
        let mut incr = ConstraintGraph::new();
        for &(x, y, c) in &edges {
            if x != y {
                incr.assert_le(var(x), var(y), c);
                // Close after every insertion to exercise the
                // incremental path rather than one batch closure.
                incr.close();
            }
        }
        let mut full = ConstraintGraph::new();
        // Insert without intermediate closure, then close once.
        for &(x, y, c) in &edges {
            if x != y {
                full.assert_le(var(x), var(y), c);
            }
        }
        full.close();
        assert_eq!(incr.is_bottom(), full.is_bottom(), "case {case}: {edges:?}");
        if !incr.is_bottom() {
            for x in 0..5 {
                for y in 0..5 {
                    assert_eq!(
                        incr.le_bound(var(x), var(y)),
                        full.le_bound(var(x), var(y)),
                        "case {case}: bound {x} -> {y} of {edges:?}"
                    );
                }
            }
        }
    }
}

/// join is an upper bound: both inputs entail the join.
#[test]
fn join_is_upper_bound() {
    let mut rng = Rng64::seed_from_u64(12);
    for case in 0..64 {
        let e1 = random_edges(&mut rng, 4, 8, 7);
        let e2 = random_edges(&mut rng, 4, 8, 7);
        let a = build(&e1, 4);
        let b = build(&e2, 4);
        let j = a.join(&b);
        assert!(a.entails(&j), "case {case}: a does not entail join");
        assert!(b.entails(&j), "case {case}: b does not entail join");
    }
}

/// Widening is an upper bound of the older state and stabilizes:
/// widen(w, w) adds nothing.
#[test]
fn widen_is_stable() {
    let mut rng = Rng64::seed_from_u64(13);
    for case in 0..64 {
        let e1 = random_edges(&mut rng, 4, 8, 7);
        let e2 = random_edges(&mut rng, 4, 8, 7);
        let a = build(&e1, 4);
        let b = build(&e2, 4);
        if a.is_bottom() || b.is_bottom() {
            continue;
        }
        let w = a.widen(&b);
        assert!(a.entails(&w), "case {case}");
        let w2 = w.widen(&w);
        assert!(w.entails(&w2) && w2.entails(&w), "case {case}");
    }
}

/// HSM division and modulus agree with floor/Euclidean arithmetic on
/// every element, whenever the (partial) operations succeed.
#[test]
fn hsm_div_mod_agree_with_arithmetic() {
    let mut rng = Rng64::seed_from_u64(14);
    for _ in 0..64 {
        let base = rng.i64_in(0, 50);
        let r1 = rng.i64_in(1, 6);
        let s1 = rng.i64_in(0, 8);
        let r2 = rng.i64_in(1, 5);
        let s2 = rng.i64_in(0, 20);
        let q = rng.i64_in(1, 12);
        let ctx = AssumptionCtx::new();
        let h = Hsm::leaf(SymPoly::constant(base))
            .repeat(SymPoly::constant(r1), SymPoly::constant(s1))
            .repeat(SymPoly::constant(r2), SymPoly::constant(s2));
        let vals = h.concretize(&BTreeMap::new()).expect("concrete");
        if let Ok(d) = h.div(&SymPoly::constant(q), &ctx) {
            let got = d.concretize(&BTreeMap::new()).expect("concrete div");
            let want: Vec<i64> = vals.iter().map(|v| v.div_euclid(q)).collect();
            assert_eq!(got, want, "div {h} by {q}");
        }
        if let Ok(m) = h.modulo(&SymPoly::constant(q), &ctx) {
            let got = m.concretize(&BTreeMap::new()).expect("concrete mod");
            let want: Vec<i64> = vals.iter().map(|v| v.rem_euclid(q)).collect();
            assert_eq!(got, want, "mod {h} by {q}");
        }
    }
}

/// HSM addition, when it succeeds, is element-wise addition.
#[test]
fn hsm_add_is_elementwise() {
    let mut rng = Rng64::seed_from_u64(15);
    for _ in 0..64 {
        let b1 = rng.i64_in(-20, 20);
        let b2 = rng.i64_in(-20, 20);
        let r = rng.i64_in(1, 8);
        let s1 = rng.i64_in(-5, 5);
        let s2 = rng.i64_in(-5, 5);
        let ctx = AssumptionCtx::new();
        let a =
            Hsm::leaf(SymPoly::constant(b1)).repeat(SymPoly::constant(r), SymPoly::constant(s1));
        let b =
            Hsm::leaf(SymPoly::constant(b2)).repeat(SymPoly::constant(r), SymPoly::constant(s2));
        let sum = a.add(&b, &ctx).expect("same shape adds");
        let va = a.concretize(&BTreeMap::new()).unwrap();
        let vb = b.concretize(&BTreeMap::new()).unwrap();
        let vs = sum.concretize(&BTreeMap::new()).unwrap();
        let want: Vec<i64> = va.iter().zip(&vb).map(|(x, y)| x + y).collect();
        assert_eq!(vs, want);
    }
}

/// seq_eq is sound: canonical equality implies identical concrete
/// sequences (checked via reshape pairs).
#[test]
fn seq_canonical_preserves_sequence() {
    let mut rng = Rng64::seed_from_u64(16);
    for _ in 0..64 {
        let base = rng.i64_in(-10, 10);
        let r1 = rng.i64_in(1, 5);
        let r2 = rng.i64_in(1, 5);
        let s = rng.i64_in(1, 6);
        let ctx = AssumptionCtx::new();
        let flat = Hsm::leaf(SymPoly::constant(base))
            .repeat(SymPoly::constant(r1 * r2), SymPoly::constant(s));
        let nested = Hsm::leaf(SymPoly::constant(base))
            .repeat(SymPoly::constant(r1), SymPoly::constant(s))
            .repeat(SymPoly::constant(r2), SymPoly::constant(r1 * s));
        assert!(flat.seq_eq(&nested, &ctx));
        assert_eq!(
            flat.concretize(&BTreeMap::new()),
            nested.concretize(&BTreeMap::new())
        );
    }
}

/// Range emptiness answers are consistent with concrete instantiation of
/// np.
#[test]
fn procrange_emptiness_sound() {
    use mpl_procset::ProcRange;
    let mut rng = Rng64::seed_from_u64(17);
    for _ in 0..64 {
        let np = rng.i64_in(1, 20);
        let lo = rng.i64_in(0, 6);
        let hi_off = rng.i64_in(-3, 3);
        let mut cg = ConstraintGraph::new();
        cg.assert_eq_const(VarId::NP, np);
        cg.close();
        let r = ProcRange::from_exprs(LinExpr::constant(lo), LinExpr::var_plus(VarId::NP, hi_off));
        let concrete_empty = lo > np + hi_off;
        // Unknown (`None`) is always acceptable.
        if let Some(b) = r.is_empty(&cg) {
            assert_eq!(b, concrete_empty, "np={np} lo={lo} hi_off={hi_off}");
        }
    }
}

/// set_eq soundness: whenever the canonicalizer proves two concrete HSMs
/// set-equal, their sorted concretizations are identical (and seq_eq
/// implies elementwise equality).
#[test]
fn hsm_equalities_are_sound() {
    let mut rng = Rng64::seed_from_u64(18);
    for _ in 0..64 {
        let base = rng.i64_in(-10, 10);
        let r1 = rng.i64_in(1, 5);
        let s1 = rng.i64_in(0, 6);
        let r2 = rng.i64_in(1, 5);
        let s2 = rng.i64_in(0, 20);
        let swap = rng.flip();
        let ctx = AssumptionCtx::new();
        let a = Hsm::leaf(SymPoly::constant(base))
            .repeat(SymPoly::constant(r1), SymPoly::constant(s1))
            .repeat(SymPoly::constant(r2), SymPoly::constant(s2));
        let b = if swap {
            Hsm::leaf(SymPoly::constant(base))
                .repeat(SymPoly::constant(r2), SymPoly::constant(s2))
                .repeat(SymPoly::constant(r1), SymPoly::constant(s1))
        } else {
            a.clone()
        };
        let va = a.concretize(&BTreeMap::new()).unwrap();
        let vb = b.concretize(&BTreeMap::new()).unwrap();
        if a.seq_eq(&b, &ctx) {
            assert_eq!(&va, &vb, "seq_eq but sequences differ");
        }
        if a.set_eq(&b, &ctx) {
            let mut sa = va.clone();
            let mut sb = vb.clone();
            sa.sort_unstable();
            sb.sort_unstable();
            assert_eq!(sa, sb, "set_eq but multisets differ");
        }
    }
}

/// subtract soundness on concrete ranges: the matched part plus the
/// remainders partition the original range.
#[test]
fn procrange_subtract_partitions() {
    use mpl_procset::ProcRange;
    let mut rng = Rng64::seed_from_u64(19);
    for _ in 0..64 {
        let lo = rng.i64_in(0, 10);
        let len = rng.i64_in(1, 12);
        let sub_off = rng.i64_in(0, 12);
        let sub_len = rng.i64_in(1, 12);
        let hi = lo + len - 1;
        let sub_lo = lo + (sub_off % len);
        let sub_hi = (sub_lo + sub_len - 1).min(hi);
        let cg = ConstraintGraph::new();
        let range = ProcRange::from_exprs(LinExpr::constant(lo), LinExpr::constant(hi));
        let sub = ProcRange::from_exprs(LinExpr::constant(sub_lo), LinExpr::constant(sub_hi));
        let Some((below, above)) = range.subtract(&cg, &sub) else {
            // Concrete contained non-empty subtrahends must succeed.
            panic!("subtract failed on [{lo}..{hi}] - [{sub_lo}..{sub_hi}]");
        };
        let concrete = |r: &ProcRange| -> Vec<i64> {
            let cg2 = ConstraintGraph::new();
            let a = r.lb.exprs().iter().find_map(|e| cg2.eval_expr(e)).unwrap();
            let b = r.ub.exprs().iter().find_map(|e| cg2.eval_expr(e)).unwrap();
            (a..=b).collect()
        };
        let mut rebuilt: Vec<i64> = (sub_lo..=sub_hi).collect();
        for r in [below, above].iter().flatten() {
            rebuilt.extend(concrete(r));
        }
        rebuilt.sort_unstable();
        let want: Vec<i64> = (lo..=hi).collect();
        assert_eq!(rebuilt, want);
    }
}

/// Constant-bound comparisons agree with integer ordering.
#[test]
fn bound_comparisons_are_consistent() {
    use mpl_procset::Bound;
    let mut rng = Rng64::seed_from_u64(20);
    for _ in 0..64 {
        let a = rng.i64_in(-30, 30);
        let b = rng.i64_in(-30, 30);
        let cg = ConstraintGraph::new();
        let ba = Bound::constant(a);
        let bb = Bound::constant(b);
        assert_eq!(ba.provably_le(&cg, &bb), a <= b);
        assert_eq!(ba.provably_lt(&cg, &bb), a < b);
        assert_eq!(ba.provably_eq(&cg, &bb), a == b);
    }
}
