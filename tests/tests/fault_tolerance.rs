//! Fault tolerance of the batch runtime and the `analyze-corpus` CLI:
//! panicking jobs are isolated, deadlines end with a sound ⊤ within a
//! bounded number of worklist steps, the retry ladder degrades
//! deterministically, and the failure records themselves are
//! byte-identical for any worker count.

use std::time::Duration;

use mpl_core::{
    analyze, AnalysisConfig, AnalysisRequest, AnalysisRequestBuilder, AnalysisResult,
    BatchResponse, Fault, JobOutcome, RequestBatch, TopReason, Verdict, CANCEL_CHECK_STEPS,
};
use mpl_lang::corpus;
use mpl_runtime::CancelToken;

/// The deterministic fields of a response, one line per response.
fn fingerprint(done: &BatchResponse) -> Vec<String> {
    done.responses
        .iter()
        .map(|rec| match &rec.result {
            Some(result) => format!(
                "{:?} [{}] verdict={:?} matches={:?} leaks={:?} steps={}",
                rec.name,
                rec.outcome.code(),
                result.verdict,
                result.matches,
                result.leaks,
                result.steps
            ),
            None => format!("{:?} [{}] {}", rec.name, rec.outcome.code(), rec.outcome),
        })
        .collect()
}

/// The built-in corpus as a batch on `workers` workers, every request
/// built from `policy`.
fn corpus_batch(workers: usize, policy: &AnalysisRequestBuilder) -> RequestBatch {
    let mut batch = RequestBatch::new().workers(workers);
    for prog in corpus::all() {
        let request = policy.clone().name(prog.name).program(prog.program);
        batch.push(request.build().expect("valid request"));
    }
    batch
}

#[test]
fn pool_survives_panicking_jobs_and_preserves_order() {
    let mut batch = RequestBatch::new().workers(4);
    for n in 0..32 {
        let mut request = AnalysisRequest::builder()
            .name(format!("job{n}"))
            .program(corpus::fig2_exchange().program);
        if n % 5 == 3 {
            request = request.fault(Fault::Panic);
        }
        batch.push(request.build().expect("valid request"));
    }
    let done = batch.run();
    assert_eq!(done.responses.len(), 32);
    for (n, response) in done.responses.iter().enumerate() {
        assert_eq!(response.name.as_deref(), Some(format!("job{n}").as_str()));
        if n % 5 == 3 {
            let detail = response.outcome.detail().expect("a panic detail");
            assert!(detail.contains(&format!("job `job{n}` panics")), "{detail}");
            assert!(response.panic_worker.is_some_and(|w| w < 4));
        } else {
            assert_eq!(response.outcome, JobOutcome::Completed, "job {n}");
            assert!(response
                .result
                .as_ref()
                .is_some_and(AnalysisResult::is_exact));
        }
    }
    assert_eq!((done.summary.panicked, done.summary.completed), (6, 26));
}

#[test]
fn cancelled_engine_stops_within_the_polling_interval() {
    // A pre-cancelled token: the engine must give up with ⊤/deadline
    // after at most one polling interval of worklist steps.
    let token = CancelToken::new();
    token.cancel();
    let prog = corpus::mdcask_full();
    let config = AnalysisConfig {
        cancel: Some(token),
        ..AnalysisConfig::default()
    };
    let result = analyze(&prog.program, &config);
    assert!(matches!(
        result.verdict,
        Verdict::Top {
            reason: TopReason::Deadline
        }
    ));
    assert!(
        result.steps <= CANCEL_CHECK_STEPS,
        "stopped after {} steps, poll interval is {}",
        result.steps,
        CANCEL_CHECK_STEPS
    );
}

#[test]
fn deadline_records_are_identical_across_worker_counts() {
    // Generous: mdcask_full alone takes ~0.3 s in a debug build, and
    // here it shares the cores with the two spinners.
    let policy = AnalysisRequest::builder().timeout(Duration::from_millis(2000));
    let report_at = |workers: usize| {
        let mut batch = corpus_batch(workers, &policy);
        // Two spinners exercise the deadline under contention.
        let spin = corpus::fig2_exchange();
        for name in ["spin_a", "spin_b"] {
            let spinner = policy.clone().name(name).program(spin.program.clone());
            batch.push(spinner.fault(Fault::Spin).build().expect("valid request"));
        }
        batch.run()
    };
    let seq = report_at(1);
    assert_eq!(seq.summary.timed_out, 2);
    for rec in &seq.responses {
        if rec.outcome == JobOutcome::TimedOut {
            let result = rec.result.as_ref().expect("timed-out records carry ⊤");
            assert!(matches!(
                result.verdict,
                Verdict::Top {
                    reason: TopReason::Deadline
                }
            ));
            assert_eq!(result.steps, 0, "normalized ⊤ must not leak progress");
            assert!(result.matches.is_empty());
        }
    }
    let seq_fp = fingerprint(&seq);
    for workers in [4, 8] {
        assert_eq!(
            seq_fp,
            fingerprint(&report_at(workers)),
            "deadline records diverged at {workers} workers"
        );
    }
}

#[test]
fn retry_ladder_ndjson_is_identical_across_worker_counts() {
    // The full CLI path: a corpus with a flaky (top-once) program run
    // with retries must emit byte-identical NDJSON at --jobs 1 and 8.
    let dir = std::env::temp_dir().join(format!("mpl-ft-retry-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create corpus dir");
    let good = corpus::fig2_exchange().source;
    std::fs::write(dir.join("a.mpl"), &good).unwrap();
    std::fs::write(
        dir.join("b_flaky.mpl"),
        format!("// mpl:fault=top-once\n{good}"),
    )
    .unwrap();
    std::fs::write(dir.join("c.mpl"), &good).unwrap();
    let dir_arg = dir.to_str().unwrap().to_owned();

    let cli = |jobs: &str| {
        let args: Vec<String> = [
            "analyze-corpus",
            "--dir",
            &dir_arg,
            "--jobs",
            jobs,
            "--retries",
            "2",
            "--json",
        ]
        .iter()
        .map(|s| (*s).to_owned())
        .collect();
        let out = mpl_cli::run_command(&args, "").expect("analyze-corpus runs");
        assert_eq!(out.code, 0, "{}", out.text);
        out.text
    };
    let base = cli("1");
    assert!(base.contains("\"outcome\":\"degraded\""), "{base}");
    assert!(base.contains("\"attempts\":2"), "{base}");
    for jobs in ["4", "8"] {
        assert_eq!(base, cli(jobs), "NDJSON diverged at --jobs {jobs}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn parse_failures_become_error_records_not_aborts() {
    let dir = std::env::temp_dir().join(format!("mpl-ft-parse-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create corpus dir");
    std::fs::write(dir.join("a_good.mpl"), corpus::fig2_exchange().source).unwrap();
    std::fs::write(dir.join("b_broken.mpl"), "send ->;").unwrap();
    let dir_arg = dir.to_str().unwrap().to_owned();

    let args: Vec<String> = [
        "analyze-corpus",
        "--dir",
        &dir_arg,
        "--json",
        "--keep-going",
    ]
    .iter()
    .map(|s| (*s).to_owned())
    .collect();
    let out = mpl_cli::run_command(&args, "").expect("command runs despite the bad file");
    assert_eq!(out.code, 0, "{}", out.text);
    let lines: Vec<&str> = out.text.lines().collect();
    assert_eq!(lines.len(), 3, "{}", out.text);
    assert!(lines[0].contains("\"name\":\"a_good\""), "{}", lines[0]);
    assert!(
        lines[0].contains("\"outcome\":\"completed\""),
        "{}",
        lines[0]
    );
    assert!(lines[1].contains("\"name\":\"b_broken\""), "{}", lines[1]);
    assert!(lines[1].contains("\"outcome\":\"error\""), "{}", lines[1]);
    assert!(lines[1].contains("parse error"), "{}", lines[1]);
    assert!(lines[2].contains("\"errors\":1"), "{}", lines[2]);

    // Without --keep-going the parse failure is a nonzero exit.
    let strict_args: Vec<String> = ["analyze-corpus", "--dir", &dir_arg]
        .iter()
        .map(|s| (*s).to_owned())
        .collect();
    let strict = mpl_cli::run_command(&strict_args, "").expect("command still runs");
    assert_eq!(strict.code, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn acceptance_corpus_panic_plus_spin_under_contention() {
    // The ISSUE acceptance scenario: an 8-program corpus with one
    // panicking and one spinning job, --jobs 4 --keep-going → exit 0,
    // 6 completed + 1 panicked + 1 timed-out, NDJSON identical at
    // --jobs 1 and --jobs 4. The deadline must be generous enough that
    // the good programs finish even while the spin job burns a core
    // (exchange_with_root alone needs ~90ms of debug-build CPU, and CI
    // containers may have a single core), yet finite so the spin job
    // reliably times out.
    let dir = std::env::temp_dir().join(format!("mpl-ft-accept-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create corpus dir");
    let programs = [
        corpus::fig2_exchange(),
        corpus::exchange_with_root(),
        corpus::nearest_neighbor_shift(),
        corpus::deadlock_pair(),
        corpus::fanout_broadcast(),
        corpus::message_leak(),
    ];
    for (i, prog) in programs.iter().enumerate() {
        std::fs::write(dir.join(format!("p{i}_{}.mpl", prog.name)), &prog.source).unwrap();
    }
    let good = &programs[0].source;
    std::fs::write(
        dir.join("x_panic.mpl"),
        format!("// mpl:fault=panic\n{good}"),
    )
    .unwrap();
    std::fs::write(dir.join("y_spin.mpl"), format!("// mpl:fault=spin\n{good}")).unwrap();
    let dir_arg = dir.to_str().unwrap().to_owned();

    let cli = |jobs: &str| {
        let args: Vec<String> = [
            "analyze-corpus",
            "--dir",
            &dir_arg,
            "--jobs",
            jobs,
            "--timeout-ms",
            "800",
            "--keep-going",
            "--json",
        ]
        .iter()
        .map(|s| (*s).to_owned())
        .collect();
        let out = mpl_cli::run_command(&args, "").expect("analyze-corpus runs");
        assert_eq!(out.code, 0, "{}", out.text);
        out.text
    };
    let base = cli("4");
    let lines: Vec<&str> = base.lines().collect();
    assert_eq!(lines.len(), 9, "{base}");
    let count = |tag: &str| {
        lines
            .iter()
            .filter(|l| l.contains(&format!("\"outcome\":\"{tag}\"")))
            .count()
    };
    assert_eq!(count("completed"), 6, "{base}");
    assert_eq!(count("panicked"), 1, "{base}");
    assert_eq!(count("timed-out"), 1, "{base}");
    assert!(
        lines[8]
            .contains("\"completed\":6,\"degraded\":0,\"timed_out\":1,\"panicked\":1,\"errors\":0"),
        "{}",
        lines[8]
    );
    assert_eq!(base, cli("1"), "NDJSON diverged between --jobs 1 and 4");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn injected_panic_is_invisible_to_the_rest_of_the_batch() {
    // A clean batch and one with an extra poisoned job: every shared
    // record must be identical — the panic cannot perturb neighbors.
    let policy = AnalysisRequest::builder();
    let clean = corpus_batch(4, &policy).run();
    let poisoned = {
        let mut batch = corpus_batch(4, &policy);
        let poison = policy
            .name("poison")
            .program(corpus::fig2_exchange().program);
        batch.push(poison.fault(Fault::Panic).build().expect("valid request"));
        batch.run()
    };
    let n = clean.responses.len();
    assert_eq!(poisoned.responses.len(), n + 1);
    assert_eq!(
        fingerprint(&clean),
        fingerprint(&poisoned)[..n],
        "the poisoned job leaked into its neighbors"
    );
    assert!(matches!(
        poisoned.responses[n].outcome,
        JobOutcome::Panicked { .. }
    ));
}

#[test]
fn timed_out_result_is_the_normalized_bare_top() {
    let bare = AnalysisResult::top(TopReason::Deadline);
    assert!(matches!(
        bare.verdict,
        Verdict::Top {
            reason: TopReason::Deadline
        }
    ));
    assert_eq!(bare.steps, 0);
    assert!(bare.matches.is_empty());
    assert!(bare.events.is_empty());
    assert!(bare.leaks.is_empty());
    assert!(bare.prints.is_empty());
}
