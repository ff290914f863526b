//! Property test for cache-journal torn-tail recovery: a `kill -9` can
//! truncate the journal at *any* byte boundary, so replay must be total
//! — for every possible truncation point it recovers the longest valid
//! record prefix, never panics, and never yields a partial record. A
//! record an older engine wrote replays too, but is never served.

use mpl_core::{json_escape, AnalysisService, CacheJournal, JournalEntry, ServiceConfig};

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
    assert!(record.check.contains(";engine=5;"), "{}", record.check);
    let old_check = record.check.replace(";engine=5;", ";");
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
    assert_eq!((stats.hits, stats.misses), (0, 1));
    let args: Vec<String> = ["analyze", "prog.mpl", "--json"]
        .iter()
        .map(|s| (*s).to_owned())
        .collect();
    let cli = mpl_cli::run_command(&args, &source).expect("analyze runs");
    assert_eq!(format!("{served}\n"), cli.text);
    assert_ne!(served, stale_body);
    let _ = std::fs::remove_dir_all(&dir);
}
