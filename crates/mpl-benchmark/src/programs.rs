//! The input programs and their known answers.
//!
//! Answers never come from the analyzer under test. Corpus answers are
//! read from `expected.ndjson`, a copy of the checked-in golden corpus
//! (cartesian client, default `min_np`). Answers for the two generated
//! families follow from how `Cfg::build` numbers nodes (entry `n0`,
//! exit `n1`, then one node per statement in program order, an `if`
//! taking a branch node and a join node, a `for` an init, a branch and
//! an increment), and are checked once per run against the concrete
//! simulator by [`cross_check`].

use std::collections::{BTreeSet, HashMap};

use crate::json::{self, Json};

/// The corpus answers the benchmark checks against by default.
pub const EXPECTED: &str = include_str!("../expected.ndjson");

/// The fields of a program record that a correct analysis must match.
/// `steps` is left out on purpose: a change may legitimately take a
/// different number of engine steps to the same answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expect {
    pub client: String,
    pub verdict: String,
    pub reason: Option<String>,
    pub outcome: String,
    pub matches: u64,
    pub leaks: u64,
    pub topology: BTreeSet<String>,
}

impl Expect {
    fn exact(topology: BTreeSet<String>) -> Expect {
        Expect {
            client: "cartesian".to_owned(),
            verdict: "exact".to_owned(),
            reason: None,
            outcome: "completed".to_owned(),
            matches: topology.len() as u64,
            leaks: 0,
            topology,
        }
    }

    fn from_json(v: &Json) -> Result<Expect, String> {
        let text = |key: &str| {
            v.get(key)
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("missing string `{key}`"))
        };
        let count = |key: &str| {
            v.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("missing count `{key}`"))
        };
        let reason = match v.get("reason") {
            Some(Json::Null) => None,
            Some(Json::Str(r)) => Some(r.clone()),
            _ => return Err("`reason` must be a string or null".to_owned()),
        };
        let topology = v
            .get("topology")
            .and_then(Json::as_array)
            .ok_or("missing `topology`")?
            .iter()
            .map(|t| {
                t.as_str()
                    .map(str::to_owned)
                    .ok_or("topology entries are strings")
            })
            .collect::<Result<_, _>>()?;
        Ok(Expect {
            client: text("client")?,
            verdict: text("verdict")?,
            reason,
            outcome: text("outcome")?,
            matches: count("matches")?,
            leaks: count("leaks")?,
            topology,
        })
    }

    /// Compares one program record against this answer.
    pub fn check(&self, record: &Json) -> Result<(), String> {
        let got = Expect::from_json(record)?;
        if &got == self {
            Ok(())
        } else {
            Err(format!("expected {self:?}, got {got:?}"))
        }
    }
}

/// One input program with its known answer.
#[derive(Debug, Clone)]
pub struct Program {
    pub name: String,
    pub source: String,
    /// Built by [`exchanges`] or [`wide`], with an answer derived by
    /// construction; otherwise a corpus program answered by
    /// `expected.ndjson`.
    pub generated: bool,
    pub expect: Expect,
}

/// Corpus answers by program name.
pub struct Oracle {
    corpus: HashMap<String, Expect>,
}

impl Oracle {
    /// Reads answers from `expected.ndjson` text.
    pub fn parse(text: &str) -> Result<Oracle, String> {
        let mut corpus = HashMap::new();
        for (i, line) in text
            .lines()
            .enumerate()
            .filter(|(_, l)| !l.trim().is_empty())
        {
            let v =
                json::parse(line).map_err(|e| format!("expected answers line {}: {e}", i + 1))?;
            let name = v
                .get("name")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("expected answers line {}: missing `name`", i + 1))?;
            let expect = Expect::from_json(&v)
                .map_err(|e| format!("expected answers line {}: {e}", i + 1))?;
            corpus.insert(name.to_owned(), expect);
        }
        Ok(Oracle { corpus })
    }

    /// Every program of the built-in corpus, in its stable order.
    pub fn corpus(&self) -> Result<Vec<Program>, String> {
        mpl_lang::corpus::all()
            .into_iter()
            .map(|p| {
                let expect =
                    self.corpus.get(p.name).cloned().ok_or_else(|| {
                        format!("no expected answer for corpus program `{}`", p.name)
                    })?;
                Ok(Program {
                    name: p.name.to_owned(),
                    source: p.source,
                    generated: false,
                    expect,
                })
            })
            .collect()
    }
}

/// `mpl_lang::corpus::repeated_exchanges(k)` with every payload raised
/// by `salt`, so that programs of equal size still differ in text (and
/// in cache key) while their answer stays the same. `salt` 0 gives the
/// corpus program itself.
pub fn exchanges(k: usize, salt: usize) -> Program {
    let mut body0 = String::new();
    let mut body1 = String::new();
    for i in 0..k {
        body0.push_str(&format!("  send {} -> 1;\n  recv y <- 1;\n", i + salt));
        body1.push_str("  recv y <- 0;\n  send y -> 0;\n");
    }
    let source = format!("if id = 0 then\n{body0}else\n  if id = 1 then\n{body1}  end\nend\n");
    // n2/n3: `if id = 0` branch and join; rank 0's i-th exchange is
    // send n(4+2i), recv n(5+2i); then `if id = 1` takes n(4+2k) and
    // n(5+2k), and rank 1's i-th exchange is recv n(6+2k+2i), send
    // n(7+2k+2i).
    let topology = (0..k)
        .flat_map(|i| {
            [
                format!("n{}->n{}", 4 + 2 * i, 6 + 2 * k + 2 * i),
                format!("n{}->n{}", 7 + 2 * k + 2 * i, 5 + 2 * i),
            ]
        })
        .collect();
    Program {
        name: format!("exchanges-k{k}-s{salt}"),
        source,
        generated: true,
        expect: Expect::exact(topology),
    }
}

/// `mpl_lang::corpus::exchange_with_root_wide(n)` with the first local
/// raised by `salt`; `salt` 0 gives the corpus program itself.
pub fn wide(n: usize, salt: usize) -> Program {
    let mut pad = format!("w0 := {};\n", 1 + salt);
    for k in 1..n {
        pad.push_str(&format!("w{k} := w{} + 1;\n", k - 1));
    }
    let source = format!(
        "{pad}x := 7;\n\
         if id = 0 then\n  for i = 1 to np - 1 do\n    send x -> i;\n    recv y <- i;\n  end\n\
         else\n  recv y <- 0;\n  send x -> 0;\nend\n"
    );
    // n2..n(n+1): the locals; n(n+2): `x := 7`; n(n+3)/n(n+4): the `if`;
    // n(n+5)/n(n+6): loop init and test; root sends n(n+7), receives
    // n(n+8); n(n+9): increment; others receive n(n+10), send n(n+11).
    let topology = [
        format!("n{}->n{}", n + 7, n + 10),
        format!("n{}->n{}", n + 11, n + 8),
    ]
    .into_iter()
    .collect();
    Program {
        name: format!("wide-n{n}-s{salt}"),
        source,
        generated: true,
        expect: Expect::exact(topology),
    }
}

/// The `i`-th of `count` sizes spaced evenly on a log scale over
/// `lo..=hi`. Workloads fix their sizes this way rather than drawing
/// them, so that the seed changes program text, order and timing but not
/// how much work a run holds.
pub fn log_spaced(lo: usize, hi: usize, i: usize, count: usize) -> usize {
    let u = (i as f64 + 0.5) / count as f64;
    let size = lo as f64 * (hi as f64 / lo as f64).powf(u);
    (size.round() as usize).clamp(lo, hi)
}

/// Runs a generated program on the concrete simulator at several
/// process counts (a prime and a non-square among them) and checks
/// that its expected topology is exactly the set of send/receive sites
/// that exchanged a message, with no leak and no deadlock. Corpus
/// answers are taken as given.
pub fn cross_check(program: &Program) -> Result<(), String> {
    if !program.generated {
        return Ok(());
    }
    let ast = mpl_lang::parse_program(&program.source)
        .map_err(|e| format!("{}: does not parse: {e}", program.name))?;
    for np in [4, 5, 7] {
        let outcome = mpl_sim::Simulator::new(&ast, np)
            .run()
            .map_err(|e| format!("{} at np={np}: {e:?}", program.name))?;
        if !outcome.is_complete() || !outcome.leaks.is_empty() {
            return Err(format!(
                "{} at np={np}: run did not complete cleanly",
                program.name
            ));
        }
        let sites: BTreeSet<String> = outcome
            .topology
            .site_pairs()
            .into_iter()
            .map(|(s, r)| format!("{s}->{r}"))
            .collect();
        if sites != program.expect.topology {
            return Err(format!(
                "{} at np={np}: simulator sites {sites:?} differ from the expected topology {:?}",
                program.name, program.expect.topology
            ));
        }
    }
    Ok(())
}

/// The outcome of checking one reply line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    Correct,
    /// A structured refusal or error: the request failed, but no wrong
    /// answer was given.
    Failed(String),
    /// A program record that differs from the known answer.
    Wrong(String),
}

/// Checks a reply to an `analyze` request for `program` sent as `name`.
pub fn check_reply(program: &Program, name: Option<&str>, line: &str) -> Reply {
    let record = match json::parse(line) {
        Ok(v) => v,
        Err(e) => return Reply::Wrong(format!("unparseable reply ({e}): {line}")),
    };
    match record.get("type").and_then(Json::as_str) {
        Some("program") => {}
        Some("error" | "rejected") => return Reply::Failed(line.to_owned()),
        _ => return Reply::Wrong(format!("unexpected reply: {line}")),
    }
    if record.get("name").and_then(Json::as_str) != name {
        return Reply::Wrong(format!("reply names the wrong program: {line}"));
    }
    // A panicked, timed-out or unparseable job is a failed request
    // rather than a wrong answer.
    if record.get("outcome").and_then(Json::as_str) != Some(program.expect.outcome.as_str()) {
        return Reply::Failed(line.to_owned());
    }
    match program.expect.check(&record) {
        Ok(()) => Reply::Correct,
        Err(e) => Reply::Wrong(format!("{}: {e}", program.name)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_at_salt_zero_are_the_corpus_programs() {
        for k in [1, 3, 16] {
            assert_eq!(
                exchanges(k, 0).source,
                mpl_lang::corpus::repeated_exchanges(k).source
            );
        }
        for n in [1, 8, 24] {
            assert_eq!(
                wide(n, 0).source,
                mpl_lang::corpus::exchange_with_root_wide(n).source
            );
        }
    }

    #[test]
    fn constructed_answers_agree_with_the_simulator() {
        for program in [exchanges(1, 0), exchanges(5, 3), wide(1, 0), wide(6, 2)] {
            cross_check(&program).unwrap();
        }
        let mut bad = wide(4, 0);
        bad.expect.topology.insert("n3->n4".to_owned());
        assert!(cross_check(&bad).is_err());
    }

    #[test]
    fn log_spaced_sizes_cover_the_range_in_order() {
        let sizes: Vec<usize> = (0..16).map(|i| log_spaced(8, 1024, i, 16)).collect();
        assert!(sizes.windows(2).all(|w| w[0] <= w[1]), "{sizes:?}");
        assert!(sizes[0] < 10 && sizes[15] > 800, "{sizes:?}");
    }

    #[test]
    fn every_corpus_program_has_an_answer() {
        let oracle = Oracle::parse(EXPECTED).unwrap();
        let corpus = oracle.corpus().unwrap();
        assert_eq!(corpus.len(), mpl_lang::corpus::all().len());
    }

    #[test]
    fn replies_are_checked_without_steps() {
        let p = exchanges(1, 0);
        let good = r#"{"v":1,"type":"program","name":"a","client":"cartesian","verdict":"exact","reason":null,"outcome":"completed","matches":2,"leaks":0,"steps":99,"topology":["n9->n5","n4->n8"]}"#;
        assert_eq!(check_reply(&p, Some("a"), good), Reply::Correct);
        assert!(matches!(check_reply(&p, None, good), Reply::Wrong(_)));
        let wrong = good.replace("\"leaks\":0", "\"leaks\":1");
        assert!(matches!(
            check_reply(&p, Some("a"), &wrong),
            Reply::Wrong(_)
        ));
        let refused = r#"{"v":1,"type":"rejected","code":"queue-full"}"#;
        assert!(matches!(
            check_reply(&p, Some("a"), refused),
            Reply::Failed(_)
        ));
    }
}
