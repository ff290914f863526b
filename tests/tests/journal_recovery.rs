//! Property test for cache-journal torn-tail recovery: a `kill -9` can
//! truncate the journal at *any* byte boundary, so replay must be total
//! — for every possible truncation point it recovers the longest valid
//! record prefix, never panics, and never yields a partial record. A
//! record an older engine wrote replays too, but is never served.
//!
//! The journal is also the service's second cache tier: a request whose
//! entry was evicted from memory is answered from its journal record,
//! byte for byte, as long as the record reads back intact, belongs to
//! the current file and carries the request's full check string.

use std::os::unix::fs::FileExt as _;
use std::path::{Path, PathBuf};

use mpl_core::{
    json_escape, parse_json, AnalysisService, CacheJournal, JournalEntry, JsonValue, ServiceConfig,
};
use mpl_lang::corpus;

/// Builds a realistic journal through the public API (open + append in
/// a scratch dir) and returns its raw bytes plus the entries written.
fn build_journal(entries: &[(u64, String, String)]) -> Vec<u8> {
    let dir = std::env::temp_dir().join(format!(
        "mpl-journal-prop-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let (mut journal, _) = CacheJournal::open(&dir).expect("open scratch journal");
    for (key, check, body) in entries {
        journal.append(*key, check, body).expect("append");
    }
    let data = std::fs::read(journal.path()).expect("read journal bytes");
    drop(journal);
    let _ = std::fs::remove_dir_all(&dir);
    data
}

fn sample_entries() -> Vec<(u64, String, String)> {
    vec![
        (
            0x1111_2222_3333_4444,
            "client=simple;min_np=2;program=x := 1;".to_owned(),
            "{\"v\":1,\"type\":\"program\",\"verdict\":\"exact\"}".to_owned(),
        ),
        (
            u64::MAX,
            "check with \"quotes\" and \\ backslashes".to_owned(),
            "{\"v\":1,\"body\":2}".to_owned(),
        ),
        (0, String::new(), String::new()),
        (
            42,
            "newline\nin the middle".to_owned(),
            "body with unicode: héllo ∀x".to_owned(),
        ),
    ]
}

#[test]
fn replay_recovers_longest_valid_prefix_at_every_truncation_offset() {
    let entries = sample_entries();
    let data = build_journal(&entries);
    // Record boundaries: byte offsets right after each newline.
    let mut boundaries = vec![0usize];
    for (i, &b) in data.iter().enumerate() {
        if b == b'\n' {
            boundaries.push(i + 1);
        }
    }
    assert_eq!(
        boundaries.len(),
        entries.len() + 1,
        "one newline per record"
    );

    for cut in 0..=data.len() {
        let truncated = &data[..cut];
        // Total: must not panic for any prefix.
        let replay = CacheJournal::replay_bytes(truncated);
        // The recovered prefix is exactly the complete records that fit.
        let complete = boundaries.iter().filter(|&&b| b > 0 && b <= cut).count();
        assert_eq!(
            replay.entries.len(),
            complete,
            "cut at {cut}: expected {complete} complete records"
        );
        assert_eq!(
            replay.valid_bytes, boundaries[complete] as u64,
            "cut at {cut}"
        );
        assert_eq!(
            replay.valid_bytes + replay.torn_bytes,
            cut as u64,
            "cut at {cut}: every byte kept or discarded"
        );
        // Recovered entries are bit-exact, never partial.
        for (entry, (key, check, body)) in replay.entries.iter().zip(&entries) {
            assert_eq!(
                entry,
                &JournalEntry {
                    key: *key,
                    check: check.clone(),
                    body: body.clone()
                }
            );
        }
    }
}

#[test]
fn replay_is_monotone_in_the_prefix() {
    // More bytes can only recover more records, never fewer, and the
    // recovered prefix of a longer cut extends the shorter one.
    let data = build_journal(&sample_entries());
    let mut last = 0usize;
    for cut in 0..=data.len() {
        let replay = CacheJournal::replay_bytes(&data[..cut]);
        assert!(
            replay.entries.len() >= last,
            "cut at {cut}: recovered {} after {last}",
            replay.entries.len()
        );
        last = replay.entries.len();
    }
    assert_eq!(last, sample_entries().len(), "full journal replays fully");
}

#[test]
fn corruption_at_every_offset_never_panics_and_never_fabricates() {
    // Flip one byte at every offset: replay must stay total, and any
    // record it does recover must be one that was actually written
    // (the checksum rejects mutated payloads; flips in JSON syntax or
    // structure are rejected by the parser).
    let entries = sample_entries();
    let data = build_journal(&entries);
    for offset in 0..data.len() {
        let mut mutated = data.clone();
        // 0x20 also covers framing damage: it turns `*` into a newline
        // and a newline into `*`, not just payload case-flips.
        mutated[offset] ^= 0x20;
        let replay = CacheJournal::replay_bytes(&mutated);
        for entry in &replay.entries {
            assert!(
                entries
                    .iter()
                    .any(|(k, c, b)| entry.key == *k && &entry.check == c && &entry.body == b),
                "offset {offset}: recovered a record that was never written: {entry:?}"
            );
        }
        assert!(replay.valid_bytes + replay.torn_bytes == mutated.len() as u64);
    }
}

#[test]
fn replay_stops_at_a_deeply_nested_record_and_keeps_the_prefix_before_it() {
    // 300 000 nested brackets would overflow the stack of a recursive
    // parser; under the JSON depth cap the line is just unparseable, so
    // it ends recovery like any corrupt record, and the valid record
    // behind it is not recovered either.
    let entries = sample_entries();
    let valid = build_journal(&entries);
    let deep = format!("{}\n", "[".repeat(300_000));
    let mut data = valid.clone();
    data.extend_from_slice(deep.as_bytes());
    data.extend_from_slice(&build_journal(&entries[..1]));

    let replay = CacheJournal::replay_bytes(&data);
    assert_eq!(replay.entries.len(), entries.len());
    assert_eq!(replay.valid_bytes, valid.len() as u64);
    assert_eq!(replay.torn_bytes, (data.len() - valid.len()) as u64);
}

/// A journal written before the engine revision joined the check string
/// carries bodies the current engine would not produce (here: a stale
/// `steps`). Replay still loads the record, but the request must miss it
/// and answer exactly what `mpl analyze --json` prints.
#[test]
fn records_of_an_older_engine_replay_but_never_serve() {
    let dir = std::env::temp_dir().join(format!("mpl-journal-stale-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = || ServiceConfig {
        cache_dir: Some(dir.clone()),
        ..ServiceConfig::default()
    };
    let source = mpl_lang::corpus::exchange_with_root().source;
    let line = format!(
        "{{\"op\":\"analyze\",\"program\":\"{}\"}}",
        json_escape(&source)
    );

    // Let the service journal the record, then rewrite it in the older
    // format under the same key: no engine fragment, wrong `steps`.
    let fresh = AnalysisService::open(config()).expect("open service");
    let _ = fresh.handle_line(&line);
    drop(fresh);
    let (journal, replay) = CacheJournal::open(&dir).expect("reopen journal");
    drop(journal);
    let record = replay.entries.into_iter().next().expect("journaled record");
    assert!(record.check.contains(";engine=6;"), "{}", record.check);
    let old_check = record.check.replace(";engine=6;", ";");
    let stale_body = record.body.replace("\"steps\":74", "\"steps\":78");
    assert_ne!(stale_body, record.body, "{}", record.body);
    std::fs::remove_dir_all(&dir).expect("clear journal");
    let (mut journal, _) = CacheJournal::open(&dir).expect("fresh journal");
    journal
        .append(record.key, &old_check, &stale_body)
        .expect("plant stale record");
    drop(journal);

    let restarted = AnalysisService::open(config()).expect("restart on old journal");
    assert_eq!(restarted.replayed(), 1);
    let served = restarted.handle_line(&line).line().to_owned();
    let stats = restarted.cache_stats();
    assert_eq!((stats.hits, stats.misses, stats.collisions), (0, 1, 1));
    assert_eq!(
        stat(&restarted, "journal_errors"),
        0,
        "an expected invalidation is no journal error"
    );
    let args: Vec<String> = ["analyze", "prog.mpl", "--json"]
        .iter()
        .map(|s| (*s).to_owned())
        .collect();
    let cli = mpl_cli::run_command(&args, &source).expect("analyze runs");
    assert_eq!(format!("{served}\n"), cli.text);
    assert_ne!(served, stale_body);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A fresh scratch directory for one test's journal.
fn journal_dir(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "mpl-journal-tier-{label}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A one-entry cache over the journal in `dir`: every second distinct
/// program evicts the first from memory.
fn one_entry_service(dir: &Path, compact_every: u64) -> AnalysisService {
    AnalysisService::open(ServiceConfig {
        cache_capacity: 1,
        cache_dir: Some(dir.to_path_buf()),
        compact_every,
        ..ServiceConfig::default()
    })
    .expect("open service")
}

fn analyze_line(source: &str) -> String {
    format!(
        "{{\"op\":\"analyze\",\"program\":\"{}\"}}",
        json_escape(source)
    )
}

/// What `mpl analyze prog.mpl --json` prints for `source`, without the
/// trailing newline.
fn cli_json(source: &str) -> String {
    let args: Vec<String> = ["analyze", "prog.mpl", "--json"]
        .iter()
        .map(|s| (*s).to_owned())
        .collect();
    let out = mpl_cli::run_command(&args, source).expect("analyze runs");
    out.text.trim_end_matches('\n').to_owned()
}

/// One counter of the service's `stats` record.
fn stat(svc: &AnalysisService, key: &str) -> i64 {
    let line = svc.handle_line("{\"op\":\"stats\"}").line().to_owned();
    parse_json(&line)
        .expect("stats parses")
        .get(key)
        .and_then(JsonValue::as_i64)
        .unwrap_or_else(|| panic!("stats has no `{key}`: {line}"))
}

fn three_sources() -> [String; 3] {
    [
        corpus::fig2_exchange().source,
        corpus::exchange_with_root().source,
        corpus::nearest_neighbor_shift().source,
    ]
}

#[test]
fn an_evicted_entry_is_answered_from_the_journal_after_a_restart() {
    let dir = journal_dir("restart");
    let sources = three_sources();
    let first = one_entry_service(&dir, 1024);
    let cold: Vec<String> = sources
        .iter()
        .map(|s| first.handle_line(&analyze_line(s)).line().to_owned())
        .collect();
    drop(first);

    // Replay leaves only the newest entry in memory; the oldest is on
    // disk alone.
    let svc = one_entry_service(&dir, 1024);
    assert_eq!(svc.replayed(), 3);
    let served = svc
        .handle_line(&analyze_line(&sources[0]))
        .line()
        .to_owned();
    assert_eq!(served, cold[0]);
    assert_eq!(served, cli_json(&sources[0]));
    assert_eq!(stat(&svc, "journal_hits"), 1);
    assert_eq!(
        stat(&svc, "journal_appends"),
        0,
        "a journal hit is not re-appended"
    );
    assert_eq!(stat(&svc, "journal_errors"), 0);
    // A journal hit is still a miss of the in-memory LRU.
    let cache = svc.cache_stats();
    assert_eq!((cache.hits, cache.misses, cache.entries), (0, 1, 1));
    // It moved into memory: asking again is a memory hit.
    assert_eq!(svc.handle_line(&analyze_line(&sources[0])).line(), cold[0]);
    assert_eq!(svc.cache_stats().hits, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_entry_evicted_in_the_same_life_is_answered_from_the_journal() {
    let dir = journal_dir("same-life");
    let sources = three_sources();
    let svc = one_entry_service(&dir, 1024);
    let cold: Vec<String> = sources
        .iter()
        .map(|s| svc.handle_line(&analyze_line(s)).line().to_owned())
        .collect();
    for (source, cold) in sources.iter().zip(&cold) {
        assert_eq!(&svc.handle_line(&analyze_line(source)).line(), cold);
    }
    assert_eq!(stat(&svc, "journal_hits"), 3);
    assert_eq!(
        stat(&svc, "journal_appends"),
        3,
        "one append per computation"
    );
    assert_eq!(svc.cache_stats().evictions, 5);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_zero_capacity_cache_turns_the_journal_tier_off() {
    let dir = journal_dir("off");
    let svc = AnalysisService::open(ServiceConfig {
        cache_capacity: 0,
        cache_dir: Some(dir.clone()),
        ..ServiceConfig::default()
    })
    .expect("open service");
    let line = analyze_line(&corpus::fig2_exchange().source);
    let cold = svc.handle_line(&line).line().to_owned();
    assert_eq!(svc.handle_line(&line).line(), cold);
    assert_eq!(stat(&svc, "journal_hits"), 0);
    assert_eq!(
        stat(&svc, "journal_appends"),
        2,
        "both requests ran the engine"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_damaged_journal_record_is_recomputed_and_counted() {
    let dir = journal_dir("damaged");
    let sources = three_sources();
    let first = one_entry_service(&dir, 1024);
    let cold: Vec<String> = sources
        .iter()
        .map(|s| first.handle_line(&analyze_line(s)).line().to_owned())
        .collect();
    drop(first);

    let svc = one_entry_service(&dir, 1024);
    assert_eq!(svc.replayed(), 3);
    // After open, flip one byte inside the first record's body on disk.
    let path = dir.join(mpl_core::persist::JOURNAL_FILE);
    let data = std::fs::read(&path).expect("read journal");
    let first_line = &data[..data.iter().position(|&b| b == b'\n').expect("a record")];
    let body = String::from_utf8_lossy(first_line)
        .find("\"body\":\"")
        .expect("body field");
    let at = body + 20;
    let file = std::fs::OpenOptions::new()
        .write(true)
        .open(&path)
        .expect("open journal for writing");
    file.write_all_at(&[data[at] ^ 0x01], at as u64)
        .expect("flip a byte");
    drop(file);

    let served = svc
        .handle_line(&analyze_line(&sources[0]))
        .line()
        .to_owned();
    assert_eq!(
        served, cold[0],
        "the damaged record recomputes the same bytes"
    );
    assert_eq!(stat(&svc, "journal_errors"), 1);
    assert_eq!(stat(&svc, "journal_hits"), 0);
    assert_eq!(stat(&svc, "journal_appends"), 1);
    let hits = svc.cache_stats().hits;
    assert_eq!(svc.handle_line(&analyze_line(&sources[0])).line(), cold[0]);
    assert_eq!(
        svc.cache_stats().hits,
        hits + 1,
        "the recomputed entry is in memory"
    );
    assert_eq!(stat(&svc, "journal_errors"), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_entry_evicted_before_a_compaction_is_recomputed() {
    let dir = journal_dir("compacted");
    let sources = three_sources();
    // Every append compacts, so the file only ever holds the one live
    // entry: the record of an evicted entry is gone with it.
    let svc = one_entry_service(&dir, 1);
    let cold: Vec<String> = sources[..2]
        .iter()
        .map(|s| svc.handle_line(&analyze_line(s)).line().to_owned())
        .collect();
    assert_eq!(stat(&svc, "compactions"), 2);
    let (hits, appends) = (stat(&svc, "journal_hits"), stat(&svc, "journal_appends"));
    assert_eq!(svc.handle_line(&analyze_line(&sources[0])).line(), cold[0]);
    assert_eq!(stat(&svc, "journal_hits"), hits);
    assert_eq!(stat(&svc, "journal_appends"), appends + 1);
    assert_eq!(stat(&svc, "journal_errors"), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The sibling of [`records_of_an_older_engine_replay_but_never_serve`]
/// for the journal tier: the stale record is evicted at replay, so only
/// the index reaches it, and it must still never serve.
#[test]
fn records_of_an_older_engine_never_serve_from_the_journal_tier() {
    let dir = journal_dir("stale-tier");
    let stale_source = corpus::exchange_with_root().source;
    let newer_source = corpus::fig2_exchange().source;

    let fresh = one_entry_service(&dir, 1024);
    let _ = fresh.handle_line(&analyze_line(&stale_source));
    let _ = fresh.handle_line(&analyze_line(&newer_source));
    drop(fresh);
    let (journal, replay) = CacheJournal::open(&dir).expect("reopen journal");
    drop(journal);
    let [record, newer]: [JournalEntry; 2] = replay.entries.try_into().expect("two records");
    assert!(record.check.contains(";engine=6;"), "{}", record.check);
    let old_check = record.check.replace(";engine=6;", ";engine=5;");
    let stale_body = record.body.replace("\"steps\":74", "\"steps\":78");
    assert_ne!(stale_body, record.body, "{}", record.body);

    // Rewrite the journal: the stale record first, then a newer record
    // that replay leaves in the one-entry memory tier.
    std::fs::remove_dir_all(&dir).expect("clear journal");
    let (mut journal, _) = CacheJournal::open(&dir).expect("fresh journal");
    journal
        .append(record.key, &old_check, &stale_body)
        .expect("plant stale record");
    journal
        .append(newer.key, &newer.check, &newer.body)
        .expect("append newer record");
    drop(journal);

    let svc = one_entry_service(&dir, 1024);
    assert_eq!(svc.replayed(), 2);
    assert_eq!(svc.cache_stats().entries, 1);
    let served = svc
        .handle_line(&analyze_line(&stale_source))
        .line()
        .to_owned();
    assert_ne!(served, stale_body);
    assert_eq!(served, cli_json(&stale_source));
    assert_eq!(stat(&svc, "journal_hits"), 0);
    assert_eq!(
        stat(&svc, "journal_errors"),
        0,
        "the stale record read back intact"
    );
    assert_eq!(
        stat(&svc, "journal_appends"),
        1,
        "the fresh answer is journaled"
    );
    assert_eq!(
        svc.cache_stats().collisions,
        1,
        "the stale record's check string collided in the journal tier"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
