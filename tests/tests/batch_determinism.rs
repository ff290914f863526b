//! Determinism of the parallel batch runtime (mpl-runtime / RequestBatch
//! / `mpl analyze-corpus`): for the whole corpus, verdicts, topologies and
//! match events must be byte-identical no matter how many workers run the
//! batch. Also pins the `--json` output schema.

use mpl_core::{AnalysisConfig, AnalysisRequest, BatchResponse, Client, RequestBatch};
use mpl_lang::corpus;

/// Renders closure counters without `closure_nanos` (wall time — the one
/// field that legitimately varies between runs).
fn closure_counts(c: &mpl_domains::ClosureStats) -> String {
    format!(
        "full={}/{} incr={}/{}",
        c.full_closures, c.full_closure_vars, c.incremental_closures, c.incremental_closure_vars
    )
}

/// Every deterministic field of a batch response, rendered to one
/// string. Wall times and panic worker ids are the only fields excluded
/// (they vary by nature).
fn fingerprint(done: &BatchResponse) -> String {
    let mut out = String::new();
    for rec in &done.responses {
        out.push_str(&format!(
            "{:?} {}\noutcome: {:?}\n",
            rec.name,
            rec.client.tag(),
            rec.outcome
        ));
        match &rec.result {
            Some(result) => out.push_str(&format!(
                "verdict: {:?}\nmatches: {:?}\nevents: {:?}\nleaks: {:?}\nprints: {:?}\n\
                 steps: {}\nclosure: {}\n\n",
                result.verdict,
                result.matches,
                result.events,
                result.leaks,
                result.prints,
                result.steps,
                closure_counts(&result.closure_stats),
            )),
            None => out.push_str("no result\n\n"),
        }
    }
    let s = &done.summary;
    out.push_str(&format!(
        "summary: programs={} exact={} deadlock={} top={} completed={} degraded={} \
         timed_out={} panicked={} errors={} matches={} leaks={} steps={} closure={}\n",
        s.programs,
        s.exact,
        s.deadlock,
        s.top,
        s.completed,
        s.degraded,
        s.timed_out,
        s.panicked,
        s.errors,
        s.matches,
        s.leaks,
        s.steps,
        closure_counts(&s.closure)
    ));
    out
}

fn corpus_batch(workers: usize, client: Client) -> BatchResponse {
    let mut batch = RequestBatch::new().workers(workers);
    for prog in corpus::all() {
        let request = AnalysisRequest::builder()
            .name(prog.name)
            .program(prog.program)
            .config(AnalysisConfig {
                client,
                ..AnalysisConfig::default()
            });
        batch.push(request.build().expect("valid request"));
    }
    batch.run()
}

#[test]
fn corpus_batch_is_byte_identical_for_1_and_8_workers() {
    for client in [Client::Cartesian, Client::Simple] {
        let seq = fingerprint(&corpus_batch(1, client));
        let par = fingerprint(&corpus_batch(8, client));
        assert_eq!(seq, par, "batch output diverged at 8 workers ({client:?})");
    }
}

#[test]
fn mixed_config_batch_is_deterministic() {
    // Requests with different clients and budgets in one batch: each
    // request's config must travel with it, not leak across workers.
    let build = |workers: usize| {
        let mut batch = RequestBatch::new().workers(workers);
        for (i, prog) in corpus::all().into_iter().enumerate() {
            let client = if i % 2 == 0 {
                Client::Cartesian
            } else {
                Client::Simple
            };
            let request = AnalysisRequest::builder()
                .name(prog.name)
                .program(prog.program)
                .config(AnalysisConfig {
                    client,
                    min_np: 4 + (i as i64 % 3),
                    max_steps: 10_000,
                    ..AnalysisConfig::default()
                });
            batch.push(request.build().expect("valid request"));
        }
        batch.run()
    };
    let seq = fingerprint(&build(1));
    for workers in [2, 8] {
        assert_eq!(seq, fingerprint(&build(workers)), "diverged at {workers}");
    }
}

#[test]
fn repeated_batches_are_stable() {
    // Re-running on the *same* (already warmed-up) thread pool state must
    // not change results either: the per-job interner reset makes runs
    // history-independent.
    let first = fingerprint(&corpus_batch(4, Client::Cartesian));
    let second = fingerprint(&corpus_batch(4, Client::Cartesian));
    assert_eq!(first, second);
}

fn cli(args: &[&str]) -> String {
    let args: Vec<String> = args.iter().map(|s| (*s).to_owned()).collect();
    let out = mpl_cli::run_command(&args, "").expect("analyze-corpus runs");
    assert_eq!(out.code, 0);
    out.text
}

#[test]
fn cli_corpus_output_identical_for_1_and_8_jobs() {
    assert_eq!(
        cli(&["analyze-corpus", "--jobs", "1"]),
        cli(&["analyze-corpus", "--jobs", "8"])
    );
    assert_eq!(
        cli(&["analyze-corpus", "--jobs", "1", "--json"]),
        cli(&["analyze-corpus", "--jobs", "8", "--json"])
    );
}

#[test]
fn json_schema_is_pinned() {
    let text = cli(&["analyze-corpus", "--json", "--jobs", "2"]);
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), corpus::all().len() + 1);

    // Program records: fixed key order, one JSON object per line.
    let program_keys = [
        "\"v\":1",
        "\"type\":\"program\"",
        "\"name\":",
        "\"client\":",
        "\"verdict\":",
        "\"reason\":",
        "\"outcome\":",
        "\"matches\":",
        "\"leaks\":",
        "\"steps\":",
        "\"topology\":[",
    ];
    for line in &lines[..lines.len() - 1] {
        let mut pos = 0;
        for key in &program_keys {
            let at = line[pos..]
                .find(key)
                .unwrap_or_else(|| panic!("key {key} missing or out of order in {line}"));
            pos += at;
        }
        // No timing fields without --timing.
        assert!(!line.contains("wall_nanos"), "{line}");
    }

    // Summary record: fixed key order.
    let summary = lines.last().unwrap();
    let summary_keys = [
        "\"v\":1",
        "\"type\":\"summary\"",
        "\"programs\":",
        "\"exact\":",
        "\"deadlock\":",
        "\"top\":",
        "\"completed\":",
        "\"degraded\":",
        "\"timed_out\":",
        "\"panicked\":",
        "\"errors\":",
        "\"matches\":",
        "\"leaks\":",
        "\"steps\":",
        "\"full_closures\":",
        "\"incremental_closures\":",
    ];
    let mut pos = 0;
    for key in &summary_keys {
        let at = summary[pos..]
            .find(key)
            .unwrap_or_else(|| panic!("key {key} missing or out of order in {summary}"));
        pos += at;
    }

    // Semantic pins on a known-stable corpus entry: Fig 2's exchange is
    // exact with its two send/recv pairs under the default client.
    let fig2 = lines
        .iter()
        .find(|l| l.contains("\"name\":\"fig2_exchange\""))
        .expect("fig2_exchange record");
    assert!(fig2.contains("\"verdict\":\"exact\""), "{fig2}");
    assert!(fig2.contains("\"reason\":null"), "{fig2}");
    assert!(fig2.contains("\"outcome\":\"completed\""), "{fig2}");
    assert!(fig2.contains("\"matches\":2"), "{fig2}");
    // The deadlocking pair is reported as such with no topology.
    let dead = lines
        .iter()
        .find(|l| l.contains("\"name\":\"deadlock_pair\""))
        .expect("deadlock_pair record");
    assert!(dead.contains("\"verdict\":\"deadlock\""), "{dead}");
    assert!(dead.contains("\"topology\":[]"), "{dead}");
}
