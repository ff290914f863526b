//! Crash-safe persistence for the serve result cache: an append-only,
//! checksummed NDJSON journal with torn-tail recovery, which the
//! service also reads as a second cache tier.
//!
//! The daemon's reason to exist is that analyses are expensive (the
//! paper's §IX: 381 s for the fan-out kernel), so losing the result
//! cache with the process defeats the point. [`CacheJournal`] makes the
//! cache durable with the cheapest discipline that survives `kill -9`:
//!
//! * **Write-ahead append.** Every cache insert appends one NDJSON
//!   record — `{"v":1,"type":"cache-entry","key":…,"check":…,"body":…,
//!   "crc":…}` — and flushes it to the kernel before the insert is
//!   considered durable. No in-place rewrites, so a crash can only ever
//!   damage the *tail* of the file.
//! * **Checksummed records.** `crc` is a [`mpl_domains::splitmix64`]
//!   chain over the payload. Replay verifies it, so a torn write that
//!   happens to still parse as JSON is caught too.
//! * **Torn-tail recovery.** [`CacheJournal::replay_bytes`] accepts any
//!   byte prefix of a valid journal (plus arbitrary trailing garbage):
//!   it recovers every record up to the first incomplete, unparseable,
//!   or checksum-failing line and stops there — never a panic, never a
//!   partial record. [`CacheJournal::open`] then truncates the file back
//!   to that valid prefix so subsequent appends produce a well-formed
//!   journal again.
//! * **Compaction.** The journal grows by one record per insert; the
//!   service periodically rewrites it from the live cache (newest last,
//!   so replay reproduces recency order) into a temp file and atomically
//!   renames it into place.
//! * **Positional reads.** Replay, [`CacheJournal::append`] and
//!   [`CacheJournal::compact`] report the [`RecordSpan`] of every
//!   record in the current file, and [`CacheJournal::read`] reads one
//!   record back by its span under replay's checks (newline, JSON
//!   schema, CRC). The service keeps an index of these spans, so an
//!   entry evicted from memory is answered from its record instead of
//!   by the engine.
//!
//! The module knows nothing about the cache or the service — it stores
//! `(key, check, body)` triples, the exact payload of
//! [`crate::cache::ResultCache`] entries.

use std::fs::{File, OpenOptions};
use std::io::{self, Read as _, Seek as _, Write as _};
use std::os::unix::fs::FileExt as _;
use std::path::{Path, PathBuf};

use crate::json::{json_escape, parse, JsonValue};
use crate::request::PROTOCOL_VERSION;

/// File name of the journal inside `--cache-dir`.
pub const JOURNAL_FILE: &str = "cache-journal.ndjson";

/// One recovered cache entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalEntry {
    /// The 64-bit request fingerprint.
    pub key: u64,
    /// The full collision-check string.
    pub check: String,
    /// The rendered response body.
    pub body: String,
}

/// Where one record sits in the journal file: its byte offset and its
/// length, trailing newline included.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordSpan {
    /// Byte offset of the record's first byte.
    pub offset: u64,
    /// Record length in bytes, newline included.
    pub len: u64,
}

/// The outcome of replaying a journal byte stream.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct JournalReplay {
    /// Entries recovered, in journal (insertion) order.
    pub entries: Vec<JournalEntry>,
    /// The span of each entry of `entries`, in the same order.
    pub spans: Vec<RecordSpan>,
    /// Length of the longest valid prefix, in bytes.
    pub valid_bytes: u64,
    /// Bytes past the valid prefix that were discarded (torn tail,
    /// corruption, or trailing garbage). Zero for a clean journal.
    pub torn_bytes: u64,
}

/// Counters describing a journal's lifetime activity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct JournalStats {
    /// Entries recovered at open time.
    pub replayed: u64,
    /// Bytes discarded from the tail at open time.
    pub torn_bytes: u64,
    /// Records appended since open.
    pub appends: u64,
    /// Compactions performed since open.
    pub compactions: u64,
}

/// Checksum over one record's payload: a splitmix64 chain keyed by the
/// entry key and every payload byte, so bit-flips anywhere in the line
/// fail verification.
fn record_crc(key: u64, check: &str, body: &str) -> u64 {
    let mut h = mpl_domains::splitmix64(key ^ 0xC5A5_17E4_9D2B_0346);
    for part in [check.as_bytes(), body.as_bytes()] {
        for chunk in part.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            h = mpl_domains::splitmix64(h ^ u64::from_le_bytes(buf));
        }
        h = mpl_domains::splitmix64(h ^ part.len() as u64);
    }
    h
}

/// Renders one journal line (without the trailing newline).
fn render_record(key: u64, check: &str, body: &str) -> String {
    format!(
        "{{\"v\":{PROTOCOL_VERSION},\"type\":\"cache-entry\",\"key\":\"{key:016x}\",\
         \"check\":\"{}\",\"body\":\"{}\",\"crc\":\"{:016x}\"}}",
        json_escape(check),
        json_escape(body),
        record_crc(key, check, body)
    )
}

/// Parses one complete journal line into an entry; `None` for any
/// malformed or checksum-failing record.
fn parse_record(line: &str) -> Option<JournalEntry> {
    let value = parse(line).ok()?;
    if value.get("v").and_then(JsonValue::as_i64) != Some(PROTOCOL_VERSION) {
        return None;
    }
    if value.get("type").and_then(JsonValue::as_str) != Some("cache-entry") {
        return None;
    }
    let key = u64::from_str_radix(value.get("key")?.as_str()?, 16).ok()?;
    let check = value.get("check")?.as_str()?.to_owned();
    let body = value.get("body")?.as_str()?.to_owned();
    let crc = u64::from_str_radix(value.get("crc")?.as_str()?, 16).ok()?;
    (crc == record_crc(key, &check, &body)).then_some(JournalEntry { key, check, body })
}

/// The append-only journal behind a persistent result cache.
#[derive(Debug)]
pub struct CacheJournal {
    path: PathBuf,
    file: File,
    stats: JournalStats,
}

impl CacheJournal {
    /// Replays a journal byte stream, recovering the longest valid
    /// prefix. Pure and total: any input — including every possible
    /// truncation of a valid journal — yields a well-defined result,
    /// never a panic.
    #[must_use]
    pub fn replay_bytes(data: &[u8]) -> JournalReplay {
        let mut replay = JournalReplay::default();
        let mut offset = 0usize;
        while offset < data.len() {
            // A record is only complete once its newline is on disk; a
            // tail without one is torn by definition.
            let Some(nl) = data[offset..].iter().position(|&b| b == b'\n') else {
                break;
            };
            let line = &data[offset..offset + nl];
            let Some(entry) = std::str::from_utf8(line).ok().and_then(parse_record) else {
                break;
            };
            replay.entries.push(entry);
            replay.spans.push(RecordSpan {
                offset: offset as u64,
                len: nl as u64 + 1,
            });
            offset += nl + 1;
        }
        replay.valid_bytes = offset as u64;
        replay.torn_bytes = (data.len() - offset) as u64;
        replay
    }

    /// Opens (creating if absent) the journal under `dir`, replaying
    /// whatever valid prefix survives there. A torn or corrupt tail is
    /// truncated away so the next append continues a well-formed file.
    ///
    /// # Errors
    ///
    /// Any I/O failure creating the directory or opening, reading, or
    /// truncating the journal file.
    pub fn open(dir: &Path) -> io::Result<(CacheJournal, JournalReplay)> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(JOURNAL_FILE);
        let mut file = OpenOptions::new()
            .create(true)
            .read(true)
            .append(true)
            .open(&path)?;
        let mut data = Vec::new();
        file.read_to_end(&mut data)?;
        let replay = Self::replay_bytes(&data);
        if replay.torn_bytes > 0 {
            // Cut the garbage tail; reopen in plain write mode because
            // append handles on some platforms ignore seek positions.
            drop(file);
            let trunc = OpenOptions::new().write(true).open(&path)?;
            trunc.set_len(replay.valid_bytes)?;
            trunc.sync_all()?;
            drop(trunc);
            file = OpenOptions::new().read(true).append(true).open(&path)?;
        }
        let stats = JournalStats {
            replayed: replay.entries.len() as u64,
            torn_bytes: replay.torn_bytes,
            appends: 0,
            compactions: 0,
        };
        Ok((CacheJournal { path, file, stats }, replay))
    }

    /// Appends one entry and flushes it to the kernel (durable across a
    /// `kill -9`; full power-loss durability would need fsync per
    /// record, which the serving path does not pay). Returns the span
    /// the record was written to. Its offset is the file's end as the
    /// kernel reports it, so the garbage a failed partial append leaves
    /// cannot shift the spans of later records.
    ///
    /// # Errors
    ///
    /// Any I/O failure seeking, writing or flushing.
    pub fn append(&mut self, key: u64, check: &str, body: &str) -> io::Result<RecordSpan> {
        let mut line = render_record(key, check, body);
        line.push('\n');
        let offset = self.file.seek(io::SeekFrom::End(0))?;
        self.file.write_all(line.as_bytes())?;
        self.file.flush()?;
        self.stats.appends += 1;
        Ok(RecordSpan {
            offset,
            len: line.len() as u64,
        })
    }

    /// Reads the record at `span` back from the current file and checks
    /// it as replay does: it must end in a newline, match the record
    /// schema and pass its CRC. `None` for any I/O failure (a span past
    /// the end of the file included) and any failed check.
    #[must_use]
    pub fn read(&self, span: RecordSpan) -> Option<JournalEntry> {
        let mut buf = vec![0u8; usize::try_from(span.len).ok()?];
        self.file.read_exact_at(&mut buf, span.offset).ok()?;
        let (&b'\n', line) = buf.split_last()? else {
            return None;
        };
        std::str::from_utf8(line).ok().and_then(parse_record)
    }

    /// Rewrites the journal from `entries` (oldest first — replay
    /// reproduces the iteration order) into a temp file, syncs it, and
    /// atomically renames it over the journal. Returns each written
    /// record's key and span in the new file, in file order. On error
    /// the journal keeps reading and appending through its old handle,
    /// so the spans it reported before stay valid.
    ///
    /// # Errors
    ///
    /// Any I/O failure writing, syncing, renaming or reopening.
    pub fn compact<'a, I>(&mut self, entries: I) -> io::Result<Vec<(u64, RecordSpan)>>
    where
        I: IntoIterator<Item = (u64, &'a str, &'a str)>,
    {
        let tmp_path = self.path.with_extension("ndjson.tmp");
        let mut tmp = File::create(&tmp_path)?;
        let mut spans = Vec::new();
        let mut offset = 0;
        for (key, check, body) in entries {
            let mut line = render_record(key, check, body);
            line.push('\n');
            tmp.write_all(line.as_bytes())?;
            let len = line.len() as u64;
            spans.push((key, RecordSpan { offset, len }));
            offset += len;
        }
        tmp.sync_all()?;
        drop(tmp);
        std::fs::rename(&tmp_path, &self.path)?;
        self.file = OpenOptions::new()
            .read(true)
            .append(true)
            .open(&self.path)?;
        self.stats.compactions += 1;
        Ok(spans)
    }

    /// Lifetime counters.
    #[must_use]
    pub fn stats(&self) -> JournalStats {
        self.stats
    }

    /// The journal file path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch_dir(label: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "mpl-persist-{label}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample_entries() -> Vec<(u64, String, String)> {
        vec![
            (
                1,
                "check one\nwith newline".to_owned(),
                "{\"body\":1}".to_owned(),
            ),
            (
                u64::MAX,
                "check \"two\"".to_owned(),
                "{\"body\":2}".to_owned(),
            ),
            (42, String::new(), String::new()),
        ]
    }

    #[test]
    fn round_trip_append_and_replay() {
        let dir = scratch_dir("roundtrip");
        {
            let (mut journal, replay) = CacheJournal::open(&dir).expect("open fresh");
            assert!(replay.entries.is_empty());
            for (k, c, b) in sample_entries() {
                journal.append(k, &c, &b).expect("append");
            }
            assert_eq!(journal.stats().appends, 3);
        }
        let (journal, replay) = CacheJournal::open(&dir).expect("reopen");
        assert_eq!(replay.torn_bytes, 0);
        assert_eq!(replay.entries.len(), 3);
        for (entry, (k, c, b)) in replay.entries.iter().zip(sample_entries()) {
            assert_eq!((entry.key, &entry.check, &entry.body), (k, &c, &b));
        }
        assert_eq!(journal.stats().replayed, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bitflip_fails_checksum_and_ends_replay() {
        let mut data = Vec::new();
        for (k, c, b) in sample_entries() {
            data.extend_from_slice(render_record(k, &c, &b).as_bytes());
            data.push(b'\n');
        }
        // Flip one byte inside the *second* record's body payload.
        let second_start = data.iter().position(|&b| b == b'\n').unwrap() + 1;
        let target = second_start + 60;
        data[target] ^= 0x01;
        let replay = CacheJournal::replay_bytes(&data);
        assert_eq!(replay.entries.len(), 1, "replay stops at the bad record");
        assert_eq!(replay.valid_bytes as usize, second_start);
        assert!(replay.torn_bytes > 0);
    }

    #[test]
    fn open_truncates_torn_tail_and_appends_cleanly() {
        let dir = scratch_dir("torn");
        {
            let (mut journal, _) = CacheJournal::open(&dir).expect("open");
            journal.append(7, "c7", "b7").expect("append");
            journal.append(8, "c8", "b8").expect("append");
        }
        let path = dir.join(JOURNAL_FILE);
        // Tear the tail: drop the last 5 bytes of the final record.
        let data = std::fs::read(&path).expect("read journal");
        std::fs::write(&path, &data[..data.len() - 5]).expect("tear");
        let (mut journal, replay) = CacheJournal::open(&dir).expect("reopen torn");
        assert_eq!(replay.entries.len(), 1);
        assert_eq!(replay.entries[0].key, 7);
        assert_eq!(
            replay.valid_bytes + replay.torn_bytes,
            data.len() as u64 - 5,
            "every byte of the torn file is either kept or discarded"
        );
        // The file was truncated to the valid prefix, so a fresh append
        // yields a clean two-record journal again.
        journal.append(9, "c9", "b9").expect("append after tear");
        drop(journal);
        let (_, replay) = CacheJournal::open(&dir).expect("final open");
        assert_eq!(replay.torn_bytes, 0);
        assert_eq!(
            replay.entries.iter().map(|e| e.key).collect::<Vec<_>>(),
            vec![7, 9]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compact_rewrites_and_preserves_order() {
        let dir = scratch_dir("compact");
        let (mut journal, _) = CacheJournal::open(&dir).expect("open");
        for (k, c, b) in sample_entries() {
            journal.append(k, &c, &b).expect("append");
        }
        // Compact down to one surviving entry.
        journal
            .compact(vec![(99u64, "kept-check", "kept-body")])
            .expect("compact");
        assert_eq!(journal.stats().compactions, 1);
        // Appends continue after the rename onto the new file handle.
        journal.append(100, "after", "compaction").expect("append");
        drop(journal);
        let (_, replay) = CacheJournal::open(&dir).expect("reopen");
        assert_eq!(
            replay.entries.iter().map(|e| e.key).collect::<Vec<_>>(),
            vec![99, 100]
        );
        assert_eq!(replay.entries[0].check, "kept-check");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn spans_from_replay_append_and_compact_read_back_their_entries() {
        let dir = scratch_dir("spans");
        let entries = sample_entries();
        let (mut journal, _) = CacheJournal::open(&dir).expect("open");
        let mut spans = Vec::new();
        for (k, c, b) in &entries {
            spans.push(journal.append(*k, c, b).expect("append"));
        }
        let read_back = |journal: &CacheJournal, span| journal.read(span).expect("span reads back");
        for (span, (k, c, b)) in spans.iter().zip(&entries) {
            let entry = read_back(&journal, *span);
            assert_eq!((entry.key, &entry.check, &entry.body), (*k, c, b));
        }
        drop(journal);
        let (mut journal, replay) = CacheJournal::open(&dir).expect("reopen");
        assert_eq!(replay.spans, spans, "replay reports the spans append did");
        for (span, entry) in replay.spans.iter().zip(&replay.entries) {
            assert_eq!(&read_back(&journal, *span), entry);
        }
        // Compaction reorders the file; its spans name the new offsets.
        let kept: Vec<_> = entries.iter().rev().collect();
        let written = journal
            .compact(kept.iter().map(|(k, c, b)| (*k, c.as_str(), b.as_str())))
            .expect("compact");
        assert_eq!(written.len(), kept.len());
        for ((key, span), (k, c, b)) in written.iter().zip(&kept) {
            let entry = read_back(&journal, *span);
            assert_eq!(*key, *k);
            assert_eq!((entry.key, &entry.check, &entry.body), (*k, c, b));
        }
        // And an append after compaction lands after the compacted file.
        let after = journal.append(7, "c7", "b7").expect("append");
        let (_, last) = written.last().copied().expect("records written");
        assert_eq!(after.offset, last.offset + last.len);
        assert_eq!(read_back(&journal, after).body, "b7");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn spans_past_the_end_or_into_a_torn_record_read_none() {
        let dir = scratch_dir("torn-span");
        let (mut journal, _) = CacheJournal::open(&dir).expect("open");
        let first = journal.append(1, "c1", "b1").expect("append");
        let second = journal.append(2, "c2", "b2").expect("append");
        let end = second.offset + second.len;
        for span in [
            RecordSpan {
                offset: end,
                len: second.len,
            },
            RecordSpan {
                offset: end + 100,
                len: 1,
            },
            RecordSpan {
                offset: second.offset,
                len: second.len + 1,
            },
            RecordSpan { offset: 0, len: 0 },
        ] {
            assert_eq!(journal.read(span), None, "{span:?}");
        }
        // A span that starts or ends inside a record is not a record.
        for span in [
            RecordSpan {
                offset: first.offset + 1,
                len: first.len - 1,
            },
            RecordSpan {
                offset: first.offset,
                len: first.len - 1,
            },
        ] {
            assert_eq!(journal.read(span), None, "{span:?}");
        }
        // Tear the second record on disk: its span now runs past the end.
        let path = dir.join(JOURNAL_FILE);
        let file = OpenOptions::new().write(true).open(&path).expect("open");
        file.set_len(end - 5).expect("tear");
        assert_eq!(journal.read(second), None);
        assert_eq!(journal.read(first).map(|e| e.key), Some(1));
        // Torn in place instead: same length, but a byte of its payload
        // flipped, so its CRC fails.
        file.set_len(end).expect("regrow");
        let data = render_record(2, "c2", "b2");
        let at = data.find("\"b2\"").expect("body field") + 1;
        let mut bytes = data.into_bytes();
        bytes[at] ^= 0x01;
        bytes.push(b'\n');
        file.write_all_at(&bytes, second.offset).expect("rewrite");
        assert_eq!(journal.read(second), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trailing_garbage_is_discarded() {
        let mut data = Vec::new();
        data.extend_from_slice(render_record(1, "c", "b").as_bytes());
        data.push(b'\n');
        data.extend_from_slice(b"not json at all\n{\"v\":1}\n");
        let replay = CacheJournal::replay_bytes(&data);
        assert_eq!(replay.entries.len(), 1);
        assert_eq!(replay.torn_bytes, 24);
    }

    #[test]
    fn empty_and_garbage_only_inputs_are_fine() {
        assert_eq!(CacheJournal::replay_bytes(b""), JournalReplay::default());
        let replay = CacheJournal::replay_bytes(&[0xFF, 0xFE, b'\n', b'x']);
        assert!(replay.entries.is_empty());
        assert_eq!(replay.valid_bytes, 0);
        assert_eq!(replay.torn_bytes, 4);
    }
}
