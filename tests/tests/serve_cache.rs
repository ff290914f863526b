//! Cache and backpressure behaviour of the serving stack, end to end:
//! a cached daemon response must be byte-identical to the cold one, the
//! cold one byte-identical to `mpl analyze --json`, a fingerprint
//! collision must fall back to recomputation (never a wrong answer), and
//! a saturated admission gate must reject — not hang.

use mpl_core::{
    json_escape, AnalysisConfig, AnalysisRequest, AnalysisService, ResultCache, ServiceConfig,
};
use mpl_lang::corpus;

fn analyze_line(source: &str) -> String {
    format!(
        "{{\"op\":\"analyze\",\"program\":\"{}\"}}",
        json_escape(source)
    )
}

#[test]
fn cached_response_is_byte_identical_to_cold_and_to_analyze_json() {
    let prog = corpus::fig2_exchange();
    let svc = AnalysisService::new(ServiceConfig::default());
    let line = analyze_line(&prog.source);

    let cold = svc.handle_line(&line).line().to_owned();
    let warm = svc.handle_line(&line).line().to_owned();
    assert_eq!(cold, warm, "cache hit must replay the exact bytes");
    let stats = svc.cache_stats();
    assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));

    // `par` and `order` named the removed parallel and priority
    // worklists. Requests that still carry them, well-formed or not, are
    // answered from the same cache entry with the same bytes.
    for retired in [
        "\"par\":4,\"order\":\"priority\",",
        "\"par\":\"many\",\"order\":7,",
    ] {
        let with_retired = format!("{{{retired}{}", &line[1..]);
        assert_eq!(
            svc.handle_line(&with_retired).line(),
            cold,
            "{with_retired}"
        );
    }
    let stats = svc.cache_stats();
    assert_eq!((stats.hits, stats.misses, stats.entries), (3, 1, 1));

    // The daemon's cold path renders exactly what the one-shot CLI
    // prints: the cache (and the daemon itself) are invisible in the
    // wire format.
    let args: Vec<String> = ["analyze", "prog.mpl", "--json"]
        .iter()
        .map(|s| (*s).to_owned())
        .collect();
    let cli = mpl_cli::run_command(&args, &prog.source).expect("analyze runs");
    assert_eq!(cli.code, 0);
    assert_eq!(cli.text, format!("{cold}\n"));
}

#[test]
fn batch_lines_run_under_their_own_retries() {
    // A line is cached under its own `retries`, so it must also be
    // computed under them: otherwise the cache hit that follows serves
    // bytes the cold line never produced.
    let flaky = format!("// mpl:fault=top-once\n{}", corpus::fig2_exchange().source);
    let line = format!(
        "{{\"op\":\"analyze\",\"program\":\"{}\",\"retries\":1}}",
        json_escape(&flaky)
    );
    let svc = AnalysisService::new(ServiceConfig::default());
    let cold = svc.handle_line(&line).line().to_owned();
    let hit = svc.handle_line(&line).line().to_owned();
    assert!(
        cold.contains("\"outcome\":\"degraded\",\"attempts\":2"),
        "{cold}"
    );
    assert_eq!(hit, cold);
    assert_eq!(svc.cache_stats().hits, 1);
}

#[test]
fn retries_beyond_the_ladder_depth_change_nothing() {
    // The degradation ladder is 32 attempts deep, so any `retries` past
    // 31 answers exactly like 31 — and just as promptly.
    let svc = AnalysisService::new(ServiceConfig::default());
    let source = corpus::nearest_neighbor_shift().source;
    let line = |retries: u32| {
        format!(
            "{{\"op\":\"analyze\",\"program\":\"{}\",\"max_psets\":1,\"retries\":{retries}}}",
            json_escape(&source)
        )
    };
    let deepest = svc.handle_line(&line(31)).line().to_owned();
    assert!(deepest.contains("\"reason\":\"pset-budget\""), "{deepest}");
    assert_eq!(svc.handle_line(&line(u32::MAX)).line(), deepest);

    // A deadline that fires on every attempt gives up after the last
    // rung, not after `retries` more.
    let spin = format!(
        "{{\"op\":\"analyze\",\"program\":\"{}\",\"timeout_ms\":1,\"retries\":{}}}",
        json_escape("// mpl:fault=spin\nx := 1;"),
        u32::MAX
    );
    let reply = svc.handle_line(&spin);
    assert!(
        reply.line().contains("\"outcome\":\"timed-out\""),
        "{reply:?}"
    );
}

#[test]
fn fingerprint_collision_falls_back_to_recompute() {
    // Two requests forced onto the same 64-bit key: the stored check
    // string disagrees, so the lookup must miss (counted as a
    // collision) rather than serve the other request's bytes.
    let mut cache = ResultCache::new(8);
    let key = 0xDEAD_BEEF_u64;
    cache.insert(key, "check-a".to_owned(), "body-a".to_owned());
    assert_eq!(cache.lookup(key, "check-b"), None, "collision must miss");
    assert_eq!(cache.stats().collisions, 1);

    // The colliding request's own insert takes the slot over and both
    // subsequent lookups behave like ordinary entries.
    cache.insert(key, "check-b".to_owned(), "body-b".to_owned());
    assert_eq!(cache.lookup(key, "check-b").as_deref(), Some("body-b"));
    assert_eq!(cache.lookup(key, "check-a"), None, "old check is gone");
}

#[test]
fn distinct_configs_never_share_a_cache_entry() {
    // Same program under different request knobs must produce distinct
    // fingerprints (the check string covers the whole config).
    let prog = corpus::fig2_exchange();
    let base = AnalysisRequest::builder()
        .source(&prog.source)
        .build()
        .expect("valid request");
    let tweaked = AnalysisRequest::builder()
        .source(&prog.source)
        .config(AnalysisConfig {
            min_np: 5,
            ..AnalysisConfig::default()
        })
        .build()
        .expect("valid request");
    assert_ne!(base.cache_check(), tweaked.cache_check());
    assert_ne!(base.fingerprint(), tweaked.fingerprint());
}

#[test]
fn saturated_gate_rejects_immediately_with_structure() {
    let svc = AnalysisService::new(ServiceConfig {
        max_in_flight: 2,
        ..ServiceConfig::default()
    });
    let _a = svc.gate().try_admit().expect("permit 1");
    let _b = svc.gate().try_admit().expect("permit 2");
    let start = std::time::Instant::now();
    let reply = svc.handle_line(&analyze_line(&corpus::fig2_exchange().source));
    assert!(
        reply
            .line()
            .starts_with("{\"v\":1,\"type\":\"rejected\",\"code\":\"queue-full\""),
        "{reply:?}"
    );
    assert!(
        start.elapsed() < std::time::Duration::from_secs(5),
        "rejection must be immediate, not queued"
    );
    assert_eq!(svc.gate().rejected(), 1);
}
