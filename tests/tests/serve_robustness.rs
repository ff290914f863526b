//! Robustness integration tests for the analysis service: single-flight
//! coalescing under real thread storms, quota rejection behaviour, and
//! warm-restart byte-identity through the persistent cache journal.

use std::path::PathBuf;
use std::sync::atomic::Ordering as AtomicOrdering;
use std::sync::{Arc, Barrier};

use mpl_core::{json_escape, AnalysisRequest, AnalysisService, QuotaPolicy, Reply, ServiceConfig};
use mpl_lang::corpus;

fn scratch_dir(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "mpl-robust-{label}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn analyze_line(source: &str) -> String {
    format!(
        "{{\"op\":\"analyze\",\"client\":\"simple\",\"program\":\"{}\"}}",
        json_escape(source)
    )
}

#[test]
fn single_flight_storm_computes_once_per_distinct_request() {
    // A storm of threads, each hammering one of two distinct programs:
    // however the scheduler interleaves them, each program is computed
    // exactly once — every other response is a cache hit or a coalesced
    // share of the in-flight computation.
    const THREADS: usize = 8;
    const ROUNDS: usize = 5;
    let svc = Arc::new(AnalysisService::new(ServiceConfig {
        max_in_flight: THREADS,
        ..ServiceConfig::default()
    }));
    let lines: Arc<Vec<String>> = Arc::new(vec![
        analyze_line(&corpus::fig2_exchange().source),
        analyze_line(&corpus::all()[1].source),
    ]);
    let start = Arc::new(Barrier::new(THREADS));
    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            let svc = Arc::clone(&svc);
            let lines = Arc::clone(&lines);
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                start.wait();
                let mut replies = Vec::new();
                for round in 0..ROUNDS {
                    let line = &lines[(t + round) % lines.len()];
                    let reply = svc.handle_line(line).line().to_owned();
                    assert!(reply.contains("\"type\":\"program\""), "{reply}");
                    replies.push(((t + round) % lines.len(), reply));
                }
                replies
            })
        })
        .collect();
    let mut per_program: Vec<Vec<String>> = vec![Vec::new(), Vec::new()];
    for worker in workers {
        for (program, reply) in worker.join().expect("worker") {
            per_program[program].push(reply);
        }
    }
    for replies in &per_program {
        assert!(replies.windows(2).all(|w| w[0] == w[1]), "byte-identical");
    }
    let stats = svc.cache_stats();
    let total = (THREADS * ROUNDS) as u64;
    assert_eq!(stats.entries, 2, "one cache entry per distinct program");
    assert_eq!(
        stats.hits + svc.coalesced(),
        total - 2,
        "all but the two leader computations were shared: hits={} coalesced={}",
        stats.hits,
        svc.coalesced()
    );
}

#[test]
fn quota_storm_rejections_are_bounded_and_structured() {
    // 4 threads × 8 requests against a burst of 3 and a negligible
    // refill rate: exactly 3 requests are served, everything else gets
    // a structured quota rejection with a retry hint — and nothing
    // hangs or panics.
    const THREADS: usize = 4;
    const PER_THREAD: usize = 8;
    let svc = Arc::new(AnalysisService::new(ServiceConfig {
        quota: Some(QuotaPolicy {
            rate_per_sec: 1,
            burst: 3,
        }),
        ..ServiceConfig::default()
    }));
    let line = Arc::new(analyze_line(&corpus::fig2_exchange().source));
    let start = Arc::new(Barrier::new(THREADS));
    let served = Arc::new(std::sync::atomic::AtomicU64::new(0));
    let workers: Vec<_> = (0..THREADS)
        .map(|_| {
            let svc = Arc::clone(&svc);
            let line = Arc::clone(&line);
            let start = Arc::clone(&start);
            let served = Arc::clone(&served);
            std::thread::spawn(move || {
                start.wait();
                for _ in 0..PER_THREAD {
                    let reply = svc.handle_line(&line).line().to_owned();
                    if reply.contains("\"type\":\"program\"") {
                        served.fetch_add(1, AtomicOrdering::Relaxed);
                    } else {
                        assert!(reply.contains("\"code\":\"quota-exceeded\""), "{reply}");
                        assert!(reply.contains("\"retry_after_ms\":"), "{reply}");
                    }
                }
            })
        })
        .collect();
    for worker in workers {
        worker.join().expect("worker");
    }
    // The storm finishes in far less than the one second a refill
    // takes, so the burst is the whole budget.
    assert_eq!(served.load(AtomicOrdering::Relaxed), 3);
    assert_eq!(
        svc.quota_rejected(),
        (THREADS * PER_THREAD) as u64 - 3,
        "every non-served request was a quota rejection"
    );
}

#[test]
fn warm_restart_serves_byte_identical_responses_from_the_journal() {
    let dir = scratch_dir("warm-restart");
    let programs: Vec<String> = corpus::all()
        .iter()
        .take(4)
        .map(|p| analyze_line(&p.source))
        .collect();
    let config = || ServiceConfig {
        cache_dir: Some(dir.clone()),
        ..ServiceConfig::default()
    };
    // First life: compute and persist.
    let cold: Vec<String> = {
        let svc = AnalysisService::new(config());
        assert_eq!(svc.replayed(), 0);
        programs
            .iter()
            .map(|line| svc.handle_line(line).line().to_owned())
            .collect()
    };
    // Second life: replay, then serve the same requests as warm hits.
    let svc = AnalysisService::new(config());
    assert_eq!(svc.replayed(), 4, "all four entries recovered");
    let warm: Vec<String> = programs
        .iter()
        .map(|line| svc.handle_line(line).line().to_owned())
        .collect();
    assert_eq!(cold, warm, "restart must not change a single byte");
    let stats = svc.cache_stats();
    assert_eq!((stats.hits, stats.misses), (4, 0), "all served from replay");
    // And the replayed bytes match what the request API renders today.
    let direct = AnalysisRequest::builder()
        .source(corpus::fig2_exchange().source)
        .client_tag("simple")
        .build()
        .expect("request")
        .execute()
        .json_line(false);
    assert_eq!(warm[0], direct);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn compaction_preserves_cache_contents_across_restart() {
    let dir = scratch_dir("compaction");
    let programs: Vec<String> = corpus::all()
        .iter()
        .take(5)
        .map(|p| analyze_line(&p.source))
        .collect();
    {
        // compact_every=2 forces two compactions during five inserts.
        let svc = AnalysisService::new(ServiceConfig {
            cache_dir: Some(dir.clone()),
            compact_every: 2,
            ..ServiceConfig::default()
        });
        for line in &programs {
            let reply = svc.handle_line(line);
            assert!(reply.line().contains("\"type\":\"program\""));
        }
        let stats = svc.handle_line("{\"op\":\"stats\"}").line().to_owned();
        assert!(stats.contains("\"compactions\":2"), "{stats}");
    }
    let svc = AnalysisService::new(ServiceConfig {
        cache_dir: Some(dir.clone()),
        ..ServiceConfig::default()
    });
    assert_eq!(svc.replayed(), 5, "compaction lost nothing");
    for line in &programs {
        assert!(
            matches!(svc.handle_line(line), Reply::Line(body) if body.contains("\"type\":\"program\""))
        );
    }
    assert_eq!(svc.cache_stats().hits, 5);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn journal_capacity_overflow_keeps_newest_entries_on_restart() {
    let dir = scratch_dir("overflow");
    let programs: Vec<String> = corpus::all()
        .iter()
        .take(5)
        .map(|p| analyze_line(&p.source))
        .collect();
    {
        let svc = AnalysisService::new(ServiceConfig {
            cache_dir: Some(dir.clone()),
            ..ServiceConfig::default()
        });
        for line in &programs {
            let _ = svc.handle_line(line);
        }
    }
    // Restart with a smaller cache than the journal: replay keeps the
    // most recent two.
    let svc = AnalysisService::new(ServiceConfig {
        cache_dir: Some(dir.clone()),
        cache_capacity: 2,
        ..ServiceConfig::default()
    });
    assert_eq!(svc.replayed(), 5, "all journal entries were replayed");
    assert_eq!(svc.cache_stats().entries, 2);
    // The two most recently inserted programs are warm...
    for line in programs.iter().rev().take(2) {
        assert!(svc
            .handle_line(line)
            .line()
            .contains("\"type\":\"program\""));
    }
    assert_eq!(svc.cache_stats().hits, 2, "newest entries survived");
    // ...and the oldest is not.
    let _ = svc.handle_line(&programs[0]);
    assert!(svc.cache_stats().misses >= 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn anonymous_quota_buckets_are_keyed_by_peer_identity() {
    // A request with no `client_id` — or an *empty* one — must charge
    // the connection's peer identity, not one shared anonymous bucket:
    // two distinct peers each get their own burst, while repeat
    // requests from the same peer are throttled.
    let svc = AnalysisService::new(ServiceConfig {
        quota: Some(QuotaPolicy {
            rate_per_sec: 1,
            burst: 1,
        }),
        ..ServiceConfig::default()
    });
    let line = analyze_line(&corpus::fig2_exchange().source);
    let served = |reply: Reply| reply.line().contains("\"type\":\"program\"");

    // Absent client_id: each peer spends its own burst of 1.
    assert!(served(svc.handle_line_as(&line, "127.0.0.1:50001")));
    assert!(served(svc.handle_line_as(&line, "127.0.0.1:50002")));
    let again = svc.handle_line_as(&line, "127.0.0.1:50001");
    assert!(
        again.line().contains("\"code\":\"quota-exceeded\""),
        "{}",
        again.line()
    );
    assert_eq!(svc.quota_rejected(), 1);

    // Empty client_id is treated exactly like an absent one (it used
    // to select a single shared anonymous bucket).
    let empty_id = format!(
        "{{\"op\":\"analyze\",\"client\":\"simple\",\"client_id\":\"\",\"program\":\"{}\"}}",
        json_escape(&corpus::fig2_exchange().source)
    );
    assert!(served(svc.handle_line_as(&empty_id, "127.0.0.1:50003")));
    let again = svc.handle_line_as(&empty_id, "127.0.0.1:50003");
    assert!(
        again.line().contains("\"code\":\"quota-exceeded\""),
        "{}",
        again.line()
    );

    // An explicit client_id overrides the peer: the same id is one
    // bucket no matter which connection it arrives on.
    let with_id = format!(
        "{{\"op\":\"analyze\",\"client\":\"simple\",\"client_id\":\"team-a\",\"program\":\"{}\"}}",
        json_escape(&corpus::fig2_exchange().source)
    );
    assert!(served(svc.handle_line_as(&with_id, "127.0.0.1:50004")));
    let cross_peer = svc.handle_line_as(&with_id, "127.0.0.1:50005");
    assert!(
        cross_peer.line().contains("\"code\":\"quota-exceeded\""),
        "{}",
        cross_peer.line()
    );
}
