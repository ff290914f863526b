//! Golden schema test for protocol v1: locks the NDJSON wire format
//! shared by `mpl analyze --json`, `mpl analyze-corpus --json`, and the
//! `mpl serve` daemon.
//!
//! Every record must (a) parse as strict single-line JSON, (b) carry
//! `"v":1` as its first key, (c) tag its shape with a `type`, and
//! (d) use only the pinned kebab-case vocabularies for verdicts,
//! outcomes, reasons, and error codes. Changing any of these is a
//! protocol version bump, not a refactor — this test is the tripwire.

use mpl_core::{
    json_escape, parse_json, AnalysisService, JsonValue, ServiceConfig, PROTOCOL_VERSION,
};
use mpl_lang::corpus;

const VERDICTS: &[&str] = &["exact", "deadlock", "top"];
const OUTCOMES: &[&str] = &["completed", "degraded", "timed-out", "panicked", "error"];
const TOP_REASONS: &[&str] = &[
    "step-budget",
    "pset-budget",
    "abstraction-loss",
    "match-failure",
    "split-failure",
    "non-uniform-condition",
    "split-depth-exceeded",
    "deadline",
];
const ERROR_CODES: &[&str] = &[
    "bad-json",
    "bad-request",
    "parse-error",
    "unknown-client",
    "missing-program",
    "bad-config",
    "line-too-long",
];
const REJECTION_CODES: &[&str] = &["queue-full", "quota-exceeded"];

fn kebab(s: &str) -> bool {
    !s.is_empty()
        && s.chars().all(|c| c.is_ascii_lowercase() || c == '-')
        && !s.starts_with('-')
        && !s.ends_with('-')
}

/// Parses one wire line, asserting the versioned-envelope invariants
/// every record shares, and returns (type, parsed object).
fn record(line: &str) -> (String, JsonValue) {
    let value = parse_json(line).unwrap_or_else(|e| panic!("unparseable wire line: {e}\n{line}"));
    assert!(
        line.starts_with(&format!("{{\"v\":{PROTOCOL_VERSION},\"type\":\"")),
        "record must lead with the version envelope: {line}"
    );
    assert_eq!(value.get("v").and_then(JsonValue::as_i64), Some(1));
    let ty = value
        .get("type")
        .and_then(JsonValue::as_str)
        .unwrap_or_else(|| panic!("missing `type`: {line}"))
        .to_owned();
    assert!(kebab(&ty), "`type` must be kebab-case: {line}");
    (ty, value)
}

fn str_field(value: &JsonValue, key: &str, line: &str) -> String {
    value
        .get(key)
        .and_then(JsonValue::as_str)
        .unwrap_or_else(|| panic!("missing string `{key}`: {line}"))
        .to_owned()
}

fn int_field(value: &JsonValue, key: &str, line: &str) -> i64 {
    value
        .get(key)
        .and_then(JsonValue::as_i64)
        .unwrap_or_else(|| panic!("missing integer `{key}`: {line}"))
}

/// Asserts the full program-record contract shared by `analyze --json`,
/// `analyze-corpus --json`, and served `analyze` responses.
fn check_program_record(line: &str) {
    let (ty, value) = record(line);
    assert_eq!(ty, "program", "{line}");
    let verdict = str_field(&value, "verdict", line);
    assert!(VERDICTS.contains(&verdict.as_str()), "{line}");
    let outcome = str_field(&value, "outcome", line);
    assert!(OUTCOMES.contains(&outcome.as_str()), "{line}");
    match value.get("reason") {
        Some(JsonValue::Null) => {}
        Some(JsonValue::Str(reason)) => {
            assert!(TOP_REASONS.contains(&reason.as_str()), "{line}")
        }
        other => panic!("`reason` must be null or a pinned code, got {other:?}: {line}"),
    }
    for key in ["matches", "leaks", "steps"] {
        assert!(int_field(&value, key, line) >= 0, "{line}");
    }
    assert!(
        matches!(value.get("topology"), Some(JsonValue::Array(_))),
        "{line}"
    );
}

#[test]
fn corpus_json_records_use_the_pinned_vocabularies() {
    let args: Vec<String> = ["analyze-corpus", "--json"]
        .iter()
        .map(|s| (*s).to_owned())
        .collect();
    let out = mpl_cli::run_command(&args, "").expect("corpus runs");
    let lines: Vec<&str> = out.text.lines().collect();
    assert_eq!(lines.len(), corpus::all().len() + 1);
    for line in &lines[..lines.len() - 1] {
        check_program_record(line);
    }
    let (ty, summary) = record(lines.last().unwrap());
    assert_eq!(ty, "summary");
    for key in [
        "programs",
        "exact",
        "deadlock",
        "top",
        "completed",
        "degraded",
        "timed_out",
        "panicked",
        "errors",
        "matches",
        "leaks",
        "steps",
        "full_closures",
        "incremental_closures",
    ] {
        assert!(
            int_field(&summary, key, lines.last().unwrap()) >= 0,
            "summary missing {key}"
        );
    }
}

#[test]
fn served_records_use_the_versioned_envelope() {
    let svc = AnalysisService::new(ServiceConfig::default());

    let (ty, _) = record(svc.handle_line("{\"op\":\"ping\"}").line());
    assert_eq!(ty, "pong");

    let analyze = format!(
        "{{\"op\":\"analyze\",\"name\":\"fig2\",\"program\":\"{}\"}}",
        json_escape(&corpus::fig2_exchange().source)
    );
    let reply = svc.handle_line(&analyze);
    check_program_record(reply.line());

    // The shutdown summary reuses the stats schema under its own tag.
    let stats_line = svc.handle_line("{\"op\":\"stats\"}").line().to_owned();
    for (line, tag) in [
        (stats_line, "stats"),
        (svc.shutdown_summary_line(), "shutdown-summary"),
    ] {
        let (ty, stats) = record(&line);
        assert_eq!(ty, tag);
        for key in [
            "hits",
            "misses",
            "evictions",
            "collisions",
            "entries",
            "cache_capacity",
            "in_flight",
            "queue_capacity",
            "admitted",
            "rejected",
            "invalid",
            "coalesced",
            "quota_rejected",
            "quota_clients",
            "oversize",
            "replayed",
            "journal_hits",
            "journal_appends",
            "compactions",
            "journal_errors",
        ] {
            assert!(int_field(&stats, key, &line) >= 0, "{tag} missing {key}");
        }
    }
    let (ty, shutdown) = record(svc.handle_line("{\"op\":\"shutdown\"}").line());
    assert_eq!(ty, "shutdown");
    // The shutdown reply names its mode, from the pinned pair.
    let mode = str_field(&shutdown, "mode", "shutdown record");
    assert!(["abort", "drain"].contains(&mode.as_str()), "{mode}");
}

#[test]
fn error_and_rejection_codes_are_pinned_kebab_case() {
    let svc = AnalysisService::new(ServiceConfig {
        max_in_flight: 1,
        ..ServiceConfig::default()
    });
    // 20 000 nested brackets: past the parser's depth cap, so one
    // `bad-json` record instead of a stack overflow.
    let deep = "[".repeat(20_000);
    let failures = [
        ("not json", "bad-json"),
        (deep.as_str(), "bad-json"),
        ("{\"program\":\"x := 1;\"}", "bad-request"),
        ("{\"op\":\"warp\"}", "bad-request"),
        ("{\"op\":\"analyze\"}", "bad-request"),
        ("{\"op\":\"analyze\",\"program\":\"x := ;\"}", "parse-error"),
        (
            "{\"op\":\"analyze\",\"program\":\"x := 1;\",\"client\":\"quantum\"}",
            "unknown-client",
        ),
        (
            "{\"op\":\"analyze\",\"program\":\"x := 1;\",\"max_steps\":0}",
            "bad-config",
        ),
    ];
    for (request, expected) in failures {
        let reply = svc.handle_line(request);
        let (ty, value) = record(reply.line());
        assert_eq!(ty, "error", "{request}");
        let code = str_field(&value, "code", reply.line());
        assert_eq!(code, expected, "{request}");
        assert!(kebab(&code), "{request}");
        assert!(ERROR_CODES.contains(&code.as_str()), "{request}");
        str_field(&value, "message", reply.line());
    }

    // An oversized request line is also a pinned error code.
    let oversize = svc.oversize_reply(4096);
    let (ty, value) = record(&oversize);
    assert_eq!(ty, "error");
    assert_eq!(str_field(&value, "code", &oversize), "line-too-long");
    assert!(ERROR_CODES.contains(&"line-too-long"));

    // Backpressure: a saturated gate answers `rejected`, also versioned.
    let held = svc.gate().try_admit().expect("gate starts empty");
    let reply = svc.handle_line("{\"op\":\"analyze\",\"program\":\"x := 1;\"}");
    let (ty, value) = record(reply.line());
    assert_eq!(ty, "rejected");
    let code = str_field(&value, "code", reply.line());
    assert_eq!(code, "queue-full");
    assert!(REJECTION_CODES.contains(&code.as_str()));
    assert_eq!(int_field(&value, "capacity", reply.line()), 1);
    drop(held);

    // Quota exhaustion: `rejected` with the pinned code and retry hint.
    let svc = AnalysisService::new(ServiceConfig {
        quota: Some(mpl_core::QuotaPolicy {
            rate_per_sec: 1,
            burst: 1,
        }),
        ..ServiceConfig::default()
    });
    let analyze = "{\"op\":\"analyze\",\"program\":\"x := 1;\"}";
    let _ = svc.handle_line(analyze);
    let reply = svc.handle_line(analyze);
    let (ty, value) = record(reply.line());
    assert_eq!(ty, "rejected");
    let code = str_field(&value, "code", reply.line());
    assert_eq!(code, "quota-exceeded");
    assert!(REJECTION_CODES.contains(&code.as_str()));
    assert!(int_field(&value, "retry_after_ms", reply.line()) > 0);
    str_field(&value, "client", reply.line());
}
