//! `mpl-benchmark compare <parent-dir> <change-dir>`: judges a change
//! against its parent from result files, by the rule for claiming a
//! gain in a small sandbox:
//!
//! * at least [`MIN_PAIRS`] pairs of parent and change runs of a
//!   workload, alternating which side ran first;
//! * a gain only when the change wins at least 90 % of the pairs (ties
//!   count for neither) and the medians differ by more than the
//!   parent's interquartile range;
//! * a regression when the change's median is worse than the parent's
//!   by more than the metric's bound in `BENCHMARK.json`;
//! * otherwise unchanged, unless the parent's own spread is wider than
//!   the bound, which leaves the metric unresolved;
//! * for a saved metric `BENCHMARK.json` gives no bound (throughput,
//!   latency, CPU per request), a regression needs the evidence a gain
//!   does, from the parent's side, and anything short of either is
//!   unresolved;
//! * and whatever the numbers say: a wrong output in any paired run
//!   leaves every metric of the workload unresolved, and a change that
//!   fails a larger share of its requests than the parent claims no gain
//!   and no "unchanged" either.
//!
//! Runs with no partner of the same seed on the other side are counted
//! and reported, never silently dropped.

use std::collections::BTreeMap;
use std::path::Path;

use crate::json::{self, Json};
use crate::stats::{median, quartiles};

pub const MIN_PAIRS: usize = 10;

/// Share of pairs the change must win to claim a gain.
const WIN_SHARE: f64 = 0.9;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

impl Verdict {
    pub fn tag(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// A metric's direction and bound.
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    pub lower_is_better: bool,
    /// Share of the parent's median by which the metric may worsen;
    /// `None` for a metric saved without a bound.
    pub bound: Option<f64>,
}

impl Rule {
    /// The rule for a saved metric `BENCHMARK.json` does not list: every
    /// such metric is a time (lower is better) but throughput.
    fn unbounded(name: &str) -> Rule {
        Rule {
            lower_is_better: name != "throughput_rps",
            bound: None,
        }
    }
}

/// One run of one side.
#[derive(Debug, Clone)]
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub started_ms: u64,
    pub attempted: u64,
    pub failed: u64,
    pub wrong_outputs: u64,
    pub metrics: BTreeMap<String, f64>,
}

/// Requests attempted and failed, and wrong outputs, summed over one
/// side's paired runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Failures {
    pub attempted: u64,
    pub failed: u64,
    pub wrong_outputs: u64,
}

impl Failures {
    fn of<'a>(runs: impl IntoIterator<Item = &'a Run>) -> Failures {
        runs.into_iter()
            .fold(Failures::default(), |acc, r| Failures {
                attempted: acc.attempted + r.attempted,
                failed: acc.failed + r.failed,
                wrong_outputs: acc.wrong_outputs + r.wrong_outputs,
            })
    }

    fn failed_frac(self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// What the runs' failures leave of a verdict on their numbers: wrong
/// outputs on either side void it, and a change that fails a larger
/// share of requests than its parent keeps only a regression.
pub fn admit(verdict: Verdict, parent: Failures, change: Failures) -> Verdict {
    if parent.wrong_outputs > 0 || change.wrong_outputs > 0 {
        return Verdict::Unresolved;
    }
    if change.failed_frac() > parent.failed_frac() && verdict != Verdict::Regressed {
        return Verdict::Unresolved;
    }
    verdict
}

/// Judges one metric over paired runs: `pairs` holds (parent, change)
/// values, and `parent_first` whether the parent ran first in each.
pub fn judge(pairs: &[(f64, f64)], parent_first: &[bool], rule: Rule) -> Verdict {
    let firsts = parent_first.iter().filter(|&&p| p).count();
    let alternating = firsts.abs_diff(parent_first.len() - firsts) <= 1;
    if pairs.len() < MIN_PAIRS || !alternating {
        return Verdict::Unresolved;
    }
    let parent: Vec<f64> = pairs.iter().map(|p| p.0).collect();
    let change: Vec<f64> = pairs.iter().map(|p| p.1).collect();
    let (Some([q1, parent_med, q3]), Some(change_med)) = (quartiles(&parent), median(&change))
    else {
        return Verdict::Unresolved;
    };
    // Positive when the change is better.
    let gain = |p: f64, c: f64| if rule.lower_is_better { p - c } else { c - p };
    let wins = pairs.iter().filter(|(p, c)| gain(*p, *c) > 0.0).count();
    let improvement = gain(parent_med, change_med);
    if wins as f64 >= WIN_SHARE * pairs.len() as f64 && improvement > q3 - q1 {
        return Verdict::Improved;
    }
    let Some(bound) = rule.bound else {
        let losses = pairs.iter().filter(|(p, c)| gain(*p, *c) < 0.0).count();
        return if losses as f64 >= WIN_SHARE * pairs.len() as f64 && -improvement > q3 - q1 {
            Verdict::Regressed
        } else {
            Verdict::Unresolved
        };
    };
    if -improvement > bound * parent_med.abs() {
        return Verdict::Regressed;
    }
    let every_change_better = change
        .iter()
        .all(|&c| parent.iter().all(|&p| gain(p, c) > 0.0));
    if q3 - q1 > bound * parent_med.abs() && !every_change_better {
        return Verdict::Unresolved;
    }
    Verdict::Unchanged
}

/// Reads every untraced, full-scale result line under `dir`.
pub fn read_runs(dir: &Path) -> Result<Vec<Run>, String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    let mut runs = Vec::new();
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.extension().is_none_or(|x| x != "ndjson") {
            continue;
        }
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            let v = json::parse(line).map_err(|e| format!("{}: {e}", path.display()))?;
            let flagged = |key: &str| v.get(key) == Some(&Json::Bool(true));
            if flagged("trace") || flagged("smoke") {
                continue;
            }
            let metrics = match v.get("metrics") {
                Some(Json::Obj(members)) => members
                    .iter()
                    .filter_map(|(k, m)| Some((k.clone(), m.get("value")?.as_f64()?)))
                    .collect(),
                _ => return Err(format!("{}: result line without metrics", path.display())),
            };
            let required = |key: &str| {
                v.get(key)
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("{}: result line without `{key}`", path.display()))
            };
            runs.push(Run {
                workload: v
                    .get("workload")
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("{}: result line without workload", path.display()))?
                    .to_owned(),
                seed: required("seed")?,
                started_ms: required("started_unix_ms")?,
                attempted: required("attempted")?,
                failed: required("failed")?,
                wrong_outputs: required("wrong_outputs")?,
                metrics,
            });
        }
    }
    runs.sort_by_key(|r| r.started_ms);
    Ok(runs)
}

/// Reads each end-to-end metric's rule from `BENCHMARK.json`.
pub fn read_rules(path: &Path) -> Result<BTreeMap<String, Rule>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let v = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let metrics = v
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{}: no `end_to_end` list", path.display()))?;
    metrics
        .iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without name")?;
            let better = m
                .get("better")
                .and_then(Json::as_str)
                .ok_or("metric without `better`")?;
            let bound = m
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or("metric without bound")?;
            Ok((
                name.to_owned(),
                Rule {
                    lower_is_better: better == "lower",
                    bound: Some(bound),
                },
            ))
        })
        .collect()
}

/// Pairs parent and change runs of one workload by seed, in the order
/// each side ran them.
fn pair_runs<'a>(parent: &[&'a Run], change: &[&'a Run]) -> Vec<(&'a Run, &'a Run)> {
    let mut pairs = Vec::new();
    let mut used = vec![false; change.len()];
    for p in parent {
        if let Some(j) = (0..change.len()).find(|&j| !used[j] && change[j].seed == p.seed) {
            used[j] = true;
            pairs.push((*p, change[j]));
        }
    }
    pairs
}

/// Judges one metric over paired runs, numbers first, then the runs'
/// failures.
pub fn judge_pairs(pairs: &[(&Run, &Run)], name: &str, rule: Rule) -> Verdict {
    let (values, parent_first): (Vec<(f64, f64)>, Vec<bool>) = pairs
        .iter()
        .filter_map(|(p, c)| {
            let values = (*p.metrics.get(name)?, *c.metrics.get(name)?);
            Some((values, p.started_ms <= c.started_ms))
        })
        .unzip();
    admit(
        judge(&values, &parent_first, rule),
        Failures::of(pairs.iter().map(|(p, _)| *p)),
        Failures::of(pairs.iter().map(|(_, c)| *c)),
    )
}

/// The `compare` command: a summary line per workload and one line per
/// (workload, metric); returns whether any metric regressed or the
/// change answered wrongly.
pub fn compare(parent_dir: &Path, change_dir: &Path, rules_path: &Path) -> Result<bool, String> {
    let rules = read_rules(rules_path)?;
    let parent = read_runs(parent_dir)?;
    let change = read_runs(change_dir)?;
    let mut workloads: Vec<&str> = parent
        .iter()
        .chain(&change)
        .map(|r| r.workload.as_str())
        .collect();
    workloads.sort_unstable();
    workloads.dedup();
    let mut regressed = false;
    for workload in workloads {
        let parent_runs: Vec<&Run> = parent.iter().filter(|r| r.workload == workload).collect();
        let change_runs: Vec<&Run> = change.iter().filter(|r| r.workload == workload).collect();
        let pairs = pair_runs(&parent_runs, &change_runs);
        let (pf, cf) = (
            Failures::of(pairs.iter().map(|(p, _)| *p)),
            Failures::of(pairs.iter().map(|(_, c)| *c)),
        );
        println!(
            "# {workload}: {} pairs; unpaired runs: {} parent, {} change; \
             failed: parent {}/{}, change {}/{}; wrong outputs: parent {}, change {}",
            pairs.len(),
            parent_runs.len() - pairs.len(),
            change_runs.len() - pairs.len(),
            pf.failed,
            pf.attempted,
            cf.failed,
            cf.attempted,
            pf.wrong_outputs,
            cf.wrong_outputs
        );
        regressed |= cf.wrong_outputs > 0;
        println!(
            "{:<14} {:<20} {:>12} {:>12} {:>12} {:>12} {:>7} verdict",
            "workload", "metric", "parent p50", "parent iqr", "change p50", "change iqr", "wins"
        );
        // The bounded metrics first, then every other metric both sides
        // saved.
        let mut judged: Vec<(&str, Rule)> = rules.iter().map(|(n, r)| (n.as_str(), *r)).collect();
        let mut saved: Vec<&str> = pairs
            .iter()
            .flat_map(|(p, _)| p.metrics.keys().map(String::as_str))
            .filter(|n| !rules.contains_key(*n))
            .collect();
        saved.sort_unstable();
        saved.dedup();
        judged.extend(saved.into_iter().map(|n| (n, Rule::unbounded(n))));
        for (name, rule) in judged {
            let values: Vec<(f64, f64)> = pairs
                .iter()
                .filter_map(|(p, c)| Some((*p.metrics.get(name)?, *c.metrics.get(name)?)))
                .collect();
            let verdict = judge_pairs(&pairs, name, rule);
            regressed |= verdict == Verdict::Regressed;
            let side = |i: usize| {
                let v: Vec<f64> = values
                    .iter()
                    .map(|p| if i == 0 { p.0 } else { p.1 })
                    .collect();
                let q = quartiles(&v).unwrap_or([f64::NAN; 3]);
                (q[1], q[2] - q[0])
            };
            let ((pm, pi), (cm, ci)) = (side(0), side(1));
            let gain = |p: f64, c: f64| if rule.lower_is_better { p - c } else { c - p };
            let wins = values.iter().filter(|(p, c)| gain(*p, *c) > 0.0).count();
            println!(
                "{workload:<14} {name:<20} {pm:>12.4} {pi:>12.4} {cm:>12.4} {ci:>12.4} {:>7} {}",
                format!("{wins}/{}", values.len()),
                verdict.tag()
            );
        }
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: Rule = Rule {
        lower_is_better: true,
        bound: Some(0.05),
    };

    fn alternating(n: usize) -> Vec<bool> {
        (0..n).map(|i| i % 2 == 0).collect()
    }

    /// Parent values around 100 with a small spread.
    fn parent(i: usize) -> f64 {
        100.0 + (i % 5) as f64 * 0.5
    }

    #[test]
    fn clear_gain_is_improved() {
        let pairs: Vec<(f64, f64)> = (0..12).map(|i| (parent(i), parent(i) - 10.0)).collect();
        assert_eq!(judge(&pairs, &alternating(12), LOWER), Verdict::Improved);
    }

    #[test]
    fn gain_needs_ninety_percent_of_pairs() {
        // The change wins 8 of 10 pairs by a wide margin and loses two.
        let pairs: Vec<(f64, f64)> = (0..10)
            .map(|i| {
                (
                    parent(i),
                    if i < 8 {
                        parent(i) - 10.0
                    } else {
                        parent(i) + 1.0
                    },
                )
            })
            .collect();
        assert_ne!(judge(&pairs, &alternating(10), LOWER), Verdict::Improved);
    }

    #[test]
    fn gain_needs_medians_apart_by_more_than_the_parent_iqr() {
        // Every pair won, but by less than the parent's own spread.
        let pairs: Vec<(f64, f64)> = (0..10).map(|i| (parent(i), parent(i) - 0.1)).collect();
        assert_eq!(judge(&pairs, &alternating(10), LOWER), Verdict::Unchanged);
    }

    #[test]
    fn too_few_or_unalternated_pairs_are_unresolved() {
        let pairs: Vec<(f64, f64)> = (0..9).map(|i| (parent(i), parent(i) - 10.0)).collect();
        assert_eq!(judge(&pairs, &alternating(9), LOWER), Verdict::Unresolved);
        let pairs: Vec<(f64, f64)> = (0..10).map(|i| (parent(i), parent(i) - 10.0)).collect();
        assert_eq!(judge(&pairs, &[true; 10], LOWER), Verdict::Unresolved);
    }

    #[test]
    fn worse_beyond_the_bound_is_regressed() {
        let pairs: Vec<(f64, f64)> = (0..10).map(|i| (parent(i), parent(i) * 1.08)).collect();
        assert_eq!(judge(&pairs, &alternating(10), LOWER), Verdict::Regressed);
        let higher = Rule {
            lower_is_better: false,
            bound: Some(0.05),
        };
        let pairs: Vec<(f64, f64)> = (0..10).map(|i| (parent(i), parent(i) * 0.9)).collect();
        assert_eq!(judge(&pairs, &alternating(10), higher), Verdict::Regressed);
        assert_eq!(
            judge(
                &pairs.iter().map(|&(p, c)| (c, p)).collect::<Vec<_>>(),
                &alternating(10),
                higher
            ),
            Verdict::Improved
        );
    }

    #[test]
    fn an_unbounded_metric_is_improved_regressed_or_unresolved() {
        let rule = Rule::unbounded("latency_p50_ms");
        assert!(rule.lower_is_better && rule.bound.is_none());
        assert!(!Rule::unbounded("throughput_rps").lower_is_better);
        let shifted =
            |d: f64| -> Vec<(f64, f64)> { (0..10).map(|i| (parent(i), parent(i) + d)).collect() };
        assert_eq!(
            judge(&shifted(-10.0), &alternating(10), rule),
            Verdict::Improved
        );
        assert_eq!(
            judge(&shifted(10.0), &alternating(10), rule),
            Verdict::Regressed
        );
        // Worse in every pair, but by less than the parent's own spread.
        assert_eq!(
            judge(&shifted(0.1), &alternating(10), rule),
            Verdict::Unresolved
        );
        // No change: never "unchanged" without a bound to hold it to.
        assert_eq!(
            judge(&shifted(0.0), &alternating(10), rule),
            Verdict::Unresolved
        );
    }

    /// A run of `serve-hot` with one metric, `latency_p50_ms`.
    fn run(seed: u64, started_ms: u64, latency: f64, failed: u64, wrong: u64) -> Run {
        Run {
            workload: "serve-hot".to_owned(),
            seed,
            started_ms,
            attempted: 1000,
            failed,
            wrong_outputs: wrong,
            metrics: BTreeMap::from([("latency_p50_ms".to_owned(), latency)]),
        }
    }

    /// Ten alternating pairs; the change is 10 % faster in every one and
    /// fails (and answers wrongly) as `change_failed`/`change_wrong` say.
    fn faster_change(change_failed: u64, change_wrong: u64) -> Vec<(Run, Run)> {
        (0..10)
            .map(|i| {
                let (p_at, c_at) = if i % 2 == 0 { (0, 1) } else { (1, 0) };
                let t = 100 * i as u64;
                (
                    run(i as u64, t + p_at, parent(i), 0, 0),
                    run(
                        i as u64,
                        t + c_at,
                        parent(i) - 10.0,
                        change_failed,
                        change_wrong,
                    ),
                )
            })
            .collect()
    }

    fn judged(pairs: &[(Run, Run)]) -> Verdict {
        let refs: Vec<(&Run, &Run)> = pairs.iter().map(|(p, c)| (p, c)).collect();
        judge_pairs(&refs, "latency_p50_ms", LOWER)
    }

    #[test]
    fn a_faster_change_that_fails_more_claims_no_gain() {
        assert_eq!(judged(&faster_change(0, 0)), Verdict::Improved);
        assert_eq!(judged(&faster_change(3, 0)), Verdict::Unresolved);
    }

    #[test]
    fn wrong_outputs_leave_the_workload_unresolved() {
        assert_eq!(judged(&faster_change(1, 1)), Verdict::Unresolved);
        // A regression on numbers alone stays unresolved too: the numbers
        // are not those of a correct program.
        let slower: Vec<(Run, Run)> = faster_change(0, 1)
            .into_iter()
            .map(|(p, mut c)| {
                c.metrics.insert(
                    "latency_p50_ms".to_owned(),
                    p.metrics["latency_p50_ms"] * 1.2,
                );
                (p, c)
            })
            .collect();
        assert_eq!(judged(&slower), Verdict::Unresolved);
    }

    #[test]
    fn a_regression_stands_when_the_change_also_fails_more() {
        let f = |failed| Failures {
            attempted: 1000,
            failed,
            wrong_outputs: 0,
        };
        assert_eq!(admit(Verdict::Regressed, f(0), f(5)), Verdict::Regressed);
        assert_eq!(admit(Verdict::Unchanged, f(0), f(5)), Verdict::Unresolved);
        assert_eq!(admit(Verdict::Improved, f(5), f(5)), Verdict::Improved);
    }

    #[test]
    fn unpaired_runs_are_left_out_of_pairs() {
        let parent_runs = [run(1, 0, 100.0, 0, 0), run(2, 10, 100.0, 0, 0)];
        let change_runs = [run(2, 5, 90.0, 0, 0), run(3, 15, 90.0, 0, 0)];
        let p: Vec<&Run> = parent_runs.iter().collect();
        let c: Vec<&Run> = change_runs.iter().collect();
        let pairs = pair_runs(&p, &c);
        assert_eq!(pairs.len(), 1);
        assert_eq!((pairs[0].0.seed, pairs[0].1.seed), (2, 2));
    }

    #[test]
    fn noisy_parent_is_unresolved() {
        // Parent spread far wider than the 5 % bound, change no worse.
        let noisy = |i: usize| 100.0 + (i % 4) as f64 * 10.0;
        let pairs: Vec<(f64, f64)> = (0..10).map(|i| (noisy(i), noisy(i + 1))).collect();
        assert_eq!(judge(&pairs, &alternating(10), LOWER), Verdict::Unresolved);
    }
}
