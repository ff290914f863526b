//! Model test of a bound's alias list: random `insert`, `plus`,
//! `renamed`, `widen`, `from_exprs` and `saturate` sequences, many of
//! them past the list's inline capacity, run side by side against a
//! `BTreeSet<LinExpr>` model with the set-based algorithms the list
//! replaced. After every step both hold the same aliases in the same
//! order, render the same, and compare the same against other bounds.

use std::cmp::Ordering;
use std::collections::BTreeSet;

use mpl_domains::{splitmix64, ConstraintGraph, LinExpr, NsVar, PsetId, VarId};
use mpl_procset::Bound;

type Model = BTreeSet<LinExpr>;

struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        (splitmix64(self.0) % n as u64) as usize
    }

    fn offset(&mut self) -> i64 {
        self.below(7) as i64 - 3
    }

    fn pset(&mut self) -> PsetId {
        PsetId(self.below(3) as u32)
    }

    /// A rank id, a local, `np` or a constant.
    fn var(&mut self) -> Option<VarId> {
        match self.below(5) {
            0 => None,
            1 => Some(VarId::NP),
            2 => Some(VarId::id_of(self.pset())),
            _ => {
                let name = ["a", "b"][self.below(2)];
                Some(VarId::from(NsVar::pset(self.pset(), name)))
            }
        }
    }

    fn expr(&mut self) -> LinExpr {
        LinExpr {
            var: self.var(),
            offset: self.offset(),
        }
    }

    fn exprs(&mut self) -> Vec<LinExpr> {
        (0..self.below(11)).map(|_| self.expr()).collect()
    }

    /// A graph with a few equalities and bounds among the variables.
    fn graph(&mut self) -> ConstraintGraph {
        let mut cg = ConstraintGraph::new();
        for _ in 0..self.below(8) {
            let x = self.var().unwrap_or(VarId::ZERO);
            let y = self.var().unwrap_or(VarId::ZERO);
            match self.below(3) {
                0 => cg.assert_eq_const(x, self.offset()),
                1 => cg.assert_eq_offset(x, y, self.offset()),
                _ => cg.assert_le(x, y, self.offset()),
            }
        }
        cg
    }
}

/// The set-based saturation the alias list replaced.
fn model_saturate(model: &mut Model, cg: &mut ConstraintGraph) {
    let mut extra = Model::new();
    let mut scanned = Model::new();
    for e in model.iter() {
        if scanned.contains(e) {
            continue;
        }
        if let Some(base) = e.var {
            let mut class = Vec::new();
            cg.equalities_of(base, &mut class);
            for alias in class {
                let a = alias.plus(e.offset);
                extra.insert(a);
                scanned.insert(a);
            }
        } else {
            for v in cg.variables().to_vec() {
                if !v.is_rank_id() {
                    continue;
                }
                if let Some(cv) = cg.const_of(v) {
                    extra.insert(LinExpr::var_plus(v, e.offset - cv));
                }
            }
        }
    }
    model.extend(extra);
}

fn model_display(model: &Model) -> String {
    if model.len() == 1 {
        model.iter().next().unwrap().to_string()
    } else {
        let parts: Vec<String> = model.iter().map(ToString::to_string).collect();
        format!("{{{}}}", parts.join(","))
    }
}

fn model_compare(a: &Model, b: &Model, cg: &mut ConstraintGraph) -> Option<Ordering> {
    if a.intersection(b).next().is_some() {
        return Some(Ordering::Equal);
    }
    for x in a {
        for y in b {
            if let Some(d) = x.diff_if_comparable(y) {
                return Some(d.cmp(&0));
            }
        }
    }
    for x in a {
        for y in b {
            if let Some(ord) = cg.compare_exprs(x, y) {
                return Some(ord);
            }
        }
    }
    None
}

fn model_le(a: &Model, b: &Model, cg: &mut ConstraintGraph) -> bool {
    if matches!(
        model_compare(a, b, cg),
        Some(Ordering::Less | Ordering::Equal)
    ) {
        return true;
    }
    let avals: Vec<Option<i64>> = a.iter().map(|x| cg.eval_expr(x)).collect();
    let bvals: Vec<Option<i64>> = b.iter().map(|y| cg.eval_expr(y)).collect();
    for (x, &vx) in a.iter().zip(&avals) {
        for (y, &vy) in b.iter().zip(&bvals) {
            let le = match (vx, vy) {
                (Some(p), Some(q)) => p <= q,
                _ => cg.proves_le(x, y),
            };
            if le {
                return true;
            }
        }
    }
    false
}

fn model_lt(a: &Model, b: &Model, cg: &mut ConstraintGraph) -> bool {
    let shifted: Model = a.iter().map(|x| x.plus(1)).collect();
    model_compare(a, b, cg) == Some(Ordering::Less) || model_le(&shifted, b, cg)
}

fn assert_same(bound: &Bound, model: &Model, step: &str) {
    let listed: Vec<LinExpr> = model.iter().copied().collect();
    assert_eq!(bound.exprs(), &listed[..], "{step}");
    assert_eq!(bound.to_string(), model_display(model), "{step}");
}

#[test]
fn alias_list_matches_the_set_model() {
    let mut rng = Rng(0xA11A_5E75);
    let mut spilled = 0;
    for case in 0..400 {
        let start = rng.exprs();
        let mut bound = Bound::from_exprs(start.clone());
        let mut model: Model = start.into_iter().collect();
        for op in 0..12 {
            let step = format!("case {case} op {op}");
            match rng.below(6) {
                0 => {
                    let e = rng.expr();
                    bound.insert(e);
                    model.insert(e);
                }
                1 => {
                    let c = rng.offset();
                    bound = bound.plus(c);
                    model = model.iter().map(|e| e.plus(c)).collect();
                }
                2 => {
                    let (from, to) = (rng.pset(), rng.pset());
                    bound = bound.renamed(from, to);
                    model = model.iter().map(|e| e.renamed(from, to)).collect();
                }
                3 => {
                    let other = rng.exprs();
                    let other_model: Model = other.iter().copied().collect();
                    bound = bound.widen(&Bound::from_exprs(other));
                    model = model.intersection(&other_model).copied().collect();
                }
                4 => {
                    let fresh = rng.exprs();
                    bound = Bound::from_exprs(fresh.clone());
                    model = fresh.into_iter().collect();
                }
                _ => {
                    let cg = rng.graph();
                    bound.saturate(&mut cg.clone());
                    model_saturate(&mut model, &mut cg.clone());
                }
            }
            assert_same(&bound, &model, &step);
            spilled += usize::from(model.len() > 4);

            let other = rng.exprs();
            let other_bound = Bound::from_exprs(other.clone());
            let other_model: Model = other.into_iter().collect();
            let cg = rng.graph();
            assert_eq!(
                bound.compare(&mut cg.clone(), &other_bound),
                model_compare(&model, &other_model, &mut cg.clone()),
                "{step}: compare {bound} with {other_bound}"
            );
            assert_eq!(
                bound.provably_le(&mut cg.clone(), &other_bound),
                model_le(&model, &other_model, &mut cg.clone()),
                "{step}: {bound} <= {other_bound}"
            );
            assert_eq!(
                bound.provably_lt(&mut cg.clone(), &other_bound),
                model_lt(&model, &other_model, &mut cg.clone()),
                "{step}: {bound} < {other_bound}"
            );
        }
    }
    // The sequences must exercise the heap-spilled list, not only the
    // inline one.
    assert!(
        spilled > 200,
        "only {spilled} steps held more than 4 aliases"
    );
}
