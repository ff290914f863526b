//! The analysis service behind `mpl serve`: a shareable, thread-safe
//! façade that turns newline-framed JSON request lines into response
//! lines, backed by the [`crate::request`] API, the
//! [`crate::cache::ResultCache`], an optional [`CacheJournal`] for
//! crash-safe persistence, an [`AdmissionGate`] for backpressure, and
//! optional per-client [`ClientQuotas`].
//!
//! The service is transport-agnostic on purpose: it knows nothing about
//! sockets. The CLI's `mpl serve` command owns the listener and the
//! per-connection threads and calls [`AnalysisService::handle_line_as`]
//! for every line it reads; tests call the same method directly. One
//! code path, every caller.
//!
//! ## Protocol (version [`PROTOCOL_VERSION`])
//!
//! Requests are single-line JSON objects selected by `"op"`:
//!
//! | op         | fields                                                        |
//! |------------|---------------------------------------------------------------|
//! | `analyze`  | `program` (required source text), `name`, `client`, `client_id`, `min_np`, `max_steps`, `max_psets`, `timeout_ms`, `retries` |
//! | `stats`    | —                                                             |
//! | `ping`     | —                                                             |
//! | `shutdown` | `mode` (`"abort"` default, or `"drain"`)                      |
//!
//! Other fields are ignored. That includes `par` and `order`, which
//! protocol v1 once defined for the removed parallel and priority
//! worklists: requests that still send them get the same answer as
//! requests that do not.
//!
//! Every response line is a JSON object stamped with `"v"`. An
//! `analyze` request answers with the *exact* program record `mpl
//! analyze --json` would print (that byte-identity is the contract that
//! makes the cache transparent); failures answer with `type:"error"`
//! and a kebab-case `code`; overload answers with `type:"rejected"` —
//! `code:"queue-full"` from the shared admission gate, or
//! `code:"quota-exceeded"` (carrying `retry_after_ms`) from the
//! per-client token bucket. Explicit backpressure, never an unbounded
//! queue and never a hang.
//!
//! ## Caching and single-flight
//!
//! Responses are cached by [`AnalysisRequest::fingerprint`] with the
//! full [`AnalysisRequest::cache_check`] string stored alongside for
//! collision safety. The cache mutex guards only lookup/insert — an
//! analysis itself never runs under the lock, so concurrent distinct
//! requests execute in parallel. Concurrent *identical* requests are
//! **single-flighted**: the first becomes the leader and computes; the
//! rest block on its flight slot and share the rendered bytes, counted
//! as `coalesced`. For `K` identical concurrent requests against a cold
//! cache, exactly one computes and `hits + coalesced = K - 1` — however
//! the threads interleave.
//!
//! ## Persistence
//!
//! With [`ServiceConfig::cache_dir`] set, every insert is appended to a
//! checksummed NDJSON journal (write-ahead, flushed per record) and the
//! journal is compacted to the live cache contents every
//! [`ServiceConfig::compact_every`] appends. [`AnalysisService::open`]
//! replays the journal — tolerating a torn tail, see [`crate::persist`]
//! — so a restarted daemon serves byte-identical responses as warm
//! cache hits.
//!
//! The journal is also the cache's second tier. The service indexes
//! each key's newest record in the current file, so a request whose
//! entry was evicted from memory reads that record back, checks it as
//! replay does, compares the full check string, and moves it into the
//! LRU without appending (`journal_hits`). Only a request neither tier
//! answers goes on to single-flight and the engine. Memory stays
//! bounded by the cache capacity and the file by compaction, so the
//! tier holds the live LRU plus at most `compact_every` appended
//! records. Journal I/O errors and records that fail to read back or
//! verify degrade the service to in-memory caching (counted in
//! `journal_errors`) rather than failing requests; an intact record
//! under another check string, such as one an older engine wrote,
//! counts as a collision.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use mpl_runtime::{AdmissionGate, CancelToken, ClientQuotas, QuotaPolicy};

use crate::cache::{CacheStats, ResultCache};
use crate::config::AnalysisConfig;
use crate::json::{json_escape, parse, JsonValue};
use crate::persist::{CacheJournal, JournalReplay, JournalStats, RecordSpan};
use crate::request::{AnalysisRequest, PROTOCOL_VERSION};

/// Knobs for [`AnalysisService::open`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Server-side default engine configuration; per-request fields
    /// override individual knobs.
    pub defaults: AnalysisConfig,
    /// Result-cache capacity in entries (0 disables caching).
    pub cache_capacity: usize,
    /// Maximum concurrently admitted `analyze` requests; the
    /// `max_in_flight + 1`-th concurrent request is rejected, not
    /// queued.
    pub max_in_flight: usize,
    /// Default per-request deadline when the request names none.
    pub default_timeout: Option<Duration>,
    /// Default degraded-retry count when the request names none.
    pub default_retries: u32,
    /// Directory for the persistent cache journal; `None` keeps the
    /// cache purely in-memory.
    pub cache_dir: Option<PathBuf>,
    /// Journal appends between compactions.
    pub compact_every: u64,
    /// Per-client token-bucket policy; `None` disables quotas.
    pub quota: Option<QuotaPolicy>,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            defaults: AnalysisConfig::default(),
            cache_capacity: 128,
            max_in_flight: 8,
            default_timeout: None,
            default_retries: 0,
            cache_dir: None,
            compact_every: 1024,
            quota: None,
        }
    }
}

/// A response to one request line, tagged with what the transport
/// should do next.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// Send this line and keep serving.
    Line(String),
    /// Send this line, then stop accepting requests (the service's
    /// shutdown token is already cancelled; consult
    /// [`AnalysisService::shutdown_mode`] for drain-vs-abort).
    Shutdown(String),
}

impl Reply {
    /// The response line, whichever variant carries it.
    #[must_use]
    pub fn line(&self) -> &str {
        match self {
            Reply::Line(line) | Reply::Shutdown(line) => line,
        }
    }
}

/// How a `shutdown` request asked the daemon to stop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShutdownMode {
    /// Stop immediately; in-flight connections are abandoned (they see
    /// a closed connection, never a hang).
    Abort,
    /// Stop accepting, finish in-flight requests under the transport's
    /// drain deadline, then exit.
    Drain,
}

impl ShutdownMode {
    /// The wire tag for this mode.
    #[must_use]
    pub fn tag(self) -> &'static str {
        match self {
            ShutdownMode::Abort => "abort",
            ShutdownMode::Drain => "drain",
        }
    }
}

/// The cache plus its optional journal — one lock, so the write-ahead
/// append and the in-memory insert are atomic with respect to other
/// requests, and a compaction never swaps the file under a journal
/// read.
#[derive(Debug)]
struct CacheState {
    cache: ResultCache,
    journal: Option<CacheJournal>,
    /// The span of each key's newest record in the current journal
    /// file: the journal tier.
    index: HashMap<u64, RecordSpan>,
    compact_every: u64,
    appends_since_compact: u64,
    journal_hits: u64,
    journal_errors: u64,
}

impl CacheState {
    /// Looks `key` up in memory, then in the journal. A journal record
    /// serves only if it reads back intact and carries the same key and
    /// check string; it then moves into the LRU without being appended
    /// again. A record that reads back intact under another key or
    /// check string counts as a collision, one that does not read back
    /// counts in `journal_errors`; either is dropped from the index, so
    /// the caller computes.
    fn lookup(&mut self, key: u64, check: &str) -> Option<String> {
        if let Some(body) = self.cache.lookup(key, check) {
            return Some(body);
        }
        // Capacity 0 turns caching off, the journal tier with it. A key
        // still in memory just collided there, and unless an append
        // failed, its index entry names the very record memory holds:
        // replay, appends and journal hits fill both from one record.
        if self.cache.capacity() == 0 || self.cache.contains(key) {
            return None;
        }
        let span = *self.index.get(&key)?;
        match self.journal.as_ref().and_then(|journal| journal.read(span)) {
            Some(entry) if entry.key == key && entry.check == check => {
                self.journal_hits += 1;
                self.cache.insert(key, entry.check, entry.body.clone());
                Some(entry.body)
            }
            Some(_) => {
                self.cache.note_collision();
                self.index.remove(&key);
                None
            }
            None => {
                self.journal_errors += 1;
                self.index.remove(&key);
                None
            }
        }
    }

    /// Journal-backed insert: write-ahead append (and periodic
    /// compaction), then the in-memory insert. Journal failures degrade
    /// to memory-only caching; they never fail the request.
    fn insert(&mut self, key: u64, check: String, body: String) {
        if let Some(journal) = &mut self.journal {
            match journal.append(key, &check, &body) {
                Ok(span) => {
                    self.index.insert(key, span);
                    self.appends_since_compact += 1;
                }
                Err(_) => self.journal_errors += 1,
            }
        }
        self.cache.insert(key, check, body);
        if self.appends_since_compact >= self.compact_every {
            self.compact();
        }
    }

    /// Rewrites the journal from the live LRU. The index follows the
    /// new file; if compaction fails, the old file stays in place and so
    /// does the index.
    fn compact(&mut self) {
        if let Some(journal) = &mut self.journal {
            match journal.compact(self.cache.iter_lru()) {
                Ok(spans) => self.index = spans.into_iter().collect(),
                Err(_) => self.journal_errors += 1,
            }
            self.appends_since_compact = 0;
        }
    }

    fn journal_stats(&self) -> Option<JournalStats> {
        self.journal.as_ref().map(CacheJournal::stats)
    }
}

/// One in-flight computation other identical requests can latch onto.
/// `state` is `None` while the leader runs, then `Some(Some(body))` on
/// success or `Some(None)` if the leader vanished without a result (the
/// waiter recomputes).
#[derive(Debug)]
struct FlightSlot {
    key: u64,
    check: String,
    state: Mutex<Option<Option<String>>>,
    cv: Condvar,
}

/// Publishes the flight outcome on every exit path (including unwind):
/// removes the slot from the table and wakes all waiters with whatever
/// body was recorded.
struct FlightGuard<'a> {
    service: &'a AnalysisService,
    slot: Arc<FlightSlot>,
    body: Option<String>,
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        let mut table = self.service.flights.lock().expect("flight table lock");
        table.retain(|s| !Arc::ptr_eq(s, &self.slot));
        drop(table);
        *self.slot.state.lock().expect("flight slot lock") = Some(self.body.take());
        self.slot.cv.notify_all();
    }
}

/// The shared daemon state. `&self` methods only — wrap it in an `Arc`
/// and hand clones to every connection thread.
#[derive(Debug)]
pub struct AnalysisService {
    defaults: AnalysisConfig,
    default_timeout: Option<Duration>,
    default_retries: u32,
    cache: Mutex<CacheState>,
    /// Single-flight table: at most one slot per (fingerprint, check)
    /// pair. A `Vec` because the live set is bounded by the admission
    /// gate capacity — a handful of entries, where a linear scan beats
    /// hashing the check string twice.
    flights: Mutex<Vec<Arc<FlightSlot>>>,
    coalesced: AtomicU64,
    gate: AdmissionGate,
    quotas: Option<ClientQuotas>,
    /// Quota clock origin: buckets are timed in milliseconds since the
    /// service was built, keeping the policy independent of wall time.
    started: Instant,
    /// `analyze` requests that failed validation (admitted, but never
    /// became an engine run) — kept so stats distinguish "analyzed"
    /// from "bounced off the parser".
    invalid: AtomicU64,
    /// Request lines refused for exceeding the transport's line cap
    /// (counted here so they appear in `stats`, rendered via
    /// [`AnalysisService::oversize_reply`]).
    oversize: AtomicU64,
    /// Entries recovered from the journal at startup.
    replayed: u64,
    shutdown: CancelToken,
    /// 0 = not shut down, else `ShutdownMode as u8 + 1`.
    shutdown_mode: AtomicU8,
}

impl AnalysisService {
    /// Builds a service, opening (and replaying) the persistent cache
    /// journal when [`ServiceConfig::cache_dir`] is set.
    ///
    /// # Errors
    ///
    /// A description of the I/O failure if the journal directory or
    /// file cannot be opened. Never fails when `cache_dir` is `None`.
    pub fn open(config: ServiceConfig) -> Result<AnalysisService, String> {
        let (journal, replay) = match &config.cache_dir {
            Some(dir) => {
                let (journal, replay) = CacheJournal::open(dir).map_err(|e| {
                    format!("cannot open cache journal in `{}`: {e}", dir.display())
                })?;
                (Some(journal), replay)
            }
            None => (None, JournalReplay::default()),
        };
        let mut cache = ResultCache::new(config.cache_capacity);
        // Journal order is oldest-first, so replay reproduces recency
        // and capacity keeps the newest entries. Every record was
        // verified on the way in. The index covers the ones capacity
        // evicts too, and the last record for a key wins, as in the
        // cache.
        let replayed = replay.entries.len() as u64;
        let mut index = HashMap::with_capacity(replay.spans.len());
        for (entry, span) in replay.entries.into_iter().zip(replay.spans) {
            index.insert(entry.key, span);
            cache.insert(entry.key, entry.check, entry.body);
        }
        Ok(AnalysisService {
            defaults: config.defaults,
            default_timeout: config.default_timeout,
            default_retries: config.default_retries,
            cache: Mutex::new(CacheState {
                cache,
                journal,
                index,
                compact_every: config.compact_every.max(1),
                appends_since_compact: 0,
                journal_hits: 0,
                journal_errors: 0,
            }),
            flights: Mutex::new(Vec::new()),
            coalesced: AtomicU64::new(0),
            gate: AdmissionGate::new(config.max_in_flight),
            quotas: config.quota.map(ClientQuotas::new),
            started: Instant::now(),
            invalid: AtomicU64::new(0),
            oversize: AtomicU64::new(0),
            replayed,
            shutdown: CancelToken::new(),
            shutdown_mode: AtomicU8::new(0),
        })
    }

    /// Builds a service from its configuration.
    ///
    /// # Panics
    ///
    /// If [`ServiceConfig::cache_dir`] is set and the journal cannot be
    /// opened — use [`AnalysisService::open`] to handle that error.
    #[must_use]
    pub fn new(config: ServiceConfig) -> AnalysisService {
        AnalysisService::open(config).expect("cache journal opens")
    }

    /// The admission gate. Exposed so tests can hold permits externally
    /// and exercise the rejection path deterministically.
    #[must_use]
    pub fn gate(&self) -> &AdmissionGate {
        &self.gate
    }

    /// A clone of the shutdown token; fires when a `shutdown` request
    /// is served (or when the owner cancels it directly).
    #[must_use]
    pub fn shutdown_token(&self) -> CancelToken {
        self.shutdown.clone()
    }

    /// How the served `shutdown` request asked the daemon to stop, once
    /// the shutdown token has fired.
    #[must_use]
    pub fn shutdown_mode(&self) -> Option<ShutdownMode> {
        match self.shutdown_mode.load(Ordering::Acquire) {
            1 => Some(ShutdownMode::Abort),
            2 => Some(ShutdownMode::Drain),
            _ => None,
        }
    }

    /// Current cache counters.
    #[must_use]
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.lock().expect("cache lock").cache.stats()
    }

    /// Identical concurrent requests served from another request's
    /// computation.
    #[must_use]
    pub fn coalesced(&self) -> u64 {
        self.coalesced.load(Ordering::Relaxed)
    }

    /// Requests rejected by the per-client quota (0 when quotas are
    /// off).
    #[must_use]
    pub fn quota_rejected(&self) -> u64 {
        self.quotas.as_ref().map_or(0, ClientQuotas::rejected)
    }

    /// Entries recovered from the journal when the service started.
    #[must_use]
    pub fn replayed(&self) -> u64 {
        self.replayed
    }

    /// Serves one request line on behalf of `peer` (the transport's
    /// client identity — e.g. a per-connection id — used for quota
    /// accounting unless the request carries an explicit `client_id`).
    /// Never panics and never blocks beyond the analysis itself:
    /// malformed input becomes an `error` line, overload becomes a
    /// `rejected` line.
    #[must_use]
    pub fn handle_line_as(&self, line: &str, peer: &str) -> Reply {
        let value = match parse(line) {
            Ok(value) => value,
            Err(e) => return Reply::Line(error_line("bad-json", &e.to_string())),
        };
        let op = match value.get("op").map(JsonValue::as_str) {
            Some(Some(op)) => op,
            Some(None) => return Reply::Line(error_line("bad-request", "`op` must be a string")),
            None => return Reply::Line(error_line("bad-request", "missing `op` field")),
        };
        match op {
            "ping" => Reply::Line(format!("{{\"v\":{PROTOCOL_VERSION},\"type\":\"pong\"}}")),
            "stats" => Reply::Line(self.render_stats("stats")),
            "shutdown" => {
                let mode = match value.get("mode").map(JsonValue::as_str) {
                    None => ShutdownMode::Abort,
                    Some(Some("abort")) => ShutdownMode::Abort,
                    Some(Some("drain")) => ShutdownMode::Drain,
                    _ => {
                        return Reply::Line(error_line(
                            "bad-request",
                            "`mode` must be \"drain\" or \"abort\"",
                        ))
                    }
                };
                self.shutdown_mode.store(
                    match mode {
                        ShutdownMode::Abort => 1,
                        ShutdownMode::Drain => 2,
                    },
                    Ordering::Release,
                );
                self.shutdown.cancel();
                Reply::Shutdown(format!(
                    "{{\"v\":{PROTOCOL_VERSION},\"type\":\"shutdown\",\"mode\":\"{}\"}}",
                    mode.tag()
                ))
            }
            "analyze" => Reply::Line(self.handle_analyze(value, peer)),
            other => Reply::Line(error_line("bad-request", &format!("unknown op `{other}`"))),
        }
    }

    /// [`Self::handle_line_as`] with an anonymous peer identity.
    #[must_use]
    pub fn handle_line(&self, line: &str) -> Reply {
        self.handle_line_as(line, "anon")
    }

    /// The structured refusal for a request line exceeding the
    /// transport's `limit`. Counted in `stats` as `oversize`.
    #[must_use]
    pub fn oversize_reply(&self, limit: usize) -> String {
        self.oversize.fetch_add(1, Ordering::Relaxed);
        error_line(
            "line-too-long",
            &format!("request line exceeds {limit} bytes"),
        )
    }

    /// Serves one decoded `analyze` object. The object, which holds a
    /// copy of the source, is dropped once the request is built, and a
    /// leader runs the consuming [`AnalysisRequest::into_response`], so
    /// under the engine a cold request holds its CFG and check string,
    /// not the AST or the decoded line.
    fn handle_analyze(&self, value: JsonValue, peer: &str) -> String {
        // Quota first: a client over its rate gets a structured
        // retry-after answer before it can occupy a gate slot. A missing
        // *or empty* `client_id` falls back to the transport's peer
        // identity — an empty string must not pool every anonymous
        // client into one shared bucket.
        if let Some(quotas) = &self.quotas {
            let client = match value.get("client_id") {
                None => peer,
                Some(JsonValue::Str(id)) if id.is_empty() => peer,
                Some(JsonValue::Str(id)) => id.as_str(),
                Some(_) => return error_line("bad-request", "`client_id` must be a string"),
            };
            let now_ms = u64::try_from(self.started.elapsed().as_millis()).unwrap_or(u64::MAX);
            if let Err(retry_after_ms) = quotas.try_acquire(client, now_ms) {
                return format!(
                    "{{\"v\":{PROTOCOL_VERSION},\"type\":\"rejected\",\"code\":\"quota-exceeded\",\
                     \"client\":\"{}\",\"retry_after_ms\":{retry_after_ms}}}",
                    json_escape(client)
                );
            }
        }
        // Backpressure second: a full service answers immediately with a
        // structured rejection instead of queueing unboundedly. The
        // permit is RAII — released on every return path below,
        // including panics inside the request (which are themselves
        // caught and rendered).
        let Some(_permit) = self.gate.try_admit() else {
            return format!(
                "{{\"v\":{PROTOCOL_VERSION},\"type\":\"rejected\",\"code\":\"queue-full\",\
                 \"in_flight\":{},\"capacity\":{}}}",
                self.gate.in_flight(),
                self.gate.capacity()
            );
        };
        let request = match self.build_request(&value) {
            Ok(request) => request,
            Err(line) => {
                self.invalid.fetch_add(1, Ordering::Relaxed);
                return line;
            }
        };
        drop(value);
        let check = request.cache_check();
        let key = AnalysisRequest::check_fingerprint(&check);
        loop {
            if let Some(body) = self.cache.lock().expect("cache lock").lookup(key, &check) {
                return body;
            }
            match self.join_flight(key, &check) {
                Flight::Lead(slot) => {
                    let mut guard = FlightGuard {
                        service: self,
                        slot,
                        body: None,
                    };
                    let body = request.into_response().json_line(false);
                    self.cache
                        .lock()
                        .expect("cache lock")
                        .insert(key, check, body.clone());
                    guard.body = Some(body.clone());
                    return body;
                }
                Flight::Join(slot) => {
                    let outcome = {
                        let mut state = slot.state.lock().expect("flight slot lock");
                        while state.is_none() {
                            state = slot.cv.wait(state).expect("flight slot wait");
                        }
                        state.clone().expect("loop exits only when published")
                    };
                    match outcome {
                        Some(body) => {
                            self.coalesced.fetch_add(1, Ordering::Relaxed);
                            return body;
                        }
                        // The leader vanished without publishing a body
                        // (it unwound past its own catch). Loop: retry
                        // from the cache and, if still absent, lead.
                        None => continue,
                    }
                }
            }
        }
    }

    /// Finds or creates the flight slot for `(key, check)`.
    fn join_flight(&self, key: u64, check: &str) -> Flight {
        let mut table = self.flights.lock().expect("flight table lock");
        if let Some(slot) = table.iter().find(|s| s.key == key && s.check == check) {
            return Flight::Join(Arc::clone(slot));
        }
        let slot = Arc::new(FlightSlot {
            key,
            check: check.to_owned(),
            state: Mutex::new(None),
            cv: Condvar::new(),
        });
        table.push(Arc::clone(&slot));
        Flight::Lead(slot)
    }

    /// Builds the request from an `analyze` object, mapping every
    /// failure to a rendered `error` line with the matching
    /// [`RequestError::code`](crate::request::RequestError::code).
    fn build_request(&self, value: &JsonValue) -> Result<AnalysisRequest, String> {
        let program = match value.get("program").map(JsonValue::as_str) {
            Some(Some(program)) => program,
            Some(None) => return Err(error_line("bad-request", "`program` must be a string")),
            None => return Err(error_line("bad-request", "missing `program` field")),
        };
        let mut config = self.defaults.clone();
        let mut builder = AnalysisRequest::builder()
            .source(program)
            .honor_fault_directive(true)
            .retries(self.default_retries);
        if let Some(timeout) = self.default_timeout {
            builder = builder.timeout(timeout);
        }
        if let Some(name) = value.get("name") {
            let Some(name) = name.as_str() else {
                return Err(error_line("bad-request", "`name` must be a string"));
            };
            builder = builder.name(name);
        }
        if let Some(tag) = value.get("client") {
            let Some(tag) = tag.as_str() else {
                return Err(error_line("bad-request", "`client` must be a string"));
            };
            builder = builder.client_tag(tag);
        }
        if let Some(min_np) = int_field(value, "min_np")? {
            config.min_np = min_np;
        }
        if let Some(max_steps) = uint_field(value, "max_steps")? {
            config.max_steps = max_steps;
        }
        if let Some(max_psets) = uint_field(value, "max_psets")? {
            config.max_psets = max_psets as usize;
        }
        if let Some(timeout_ms) = uint_field(value, "timeout_ms")? {
            // 0 switches the deadline off, mirroring `--timeout-ms 0`.
            if timeout_ms == 0 {
                builder = builder.no_timeout();
            } else {
                builder = builder.timeout(Duration::from_millis(timeout_ms));
            }
        }
        if let Some(retries) = uint_field(value, "retries")? {
            let Ok(retries) = u32::try_from(retries) else {
                return Err(error_line("bad-request", "`retries` out of range"));
            };
            builder = builder.retries(retries);
        }
        builder
            .config(config)
            .build()
            .map_err(|e| error_line(e.code(), &e.to_string()))
    }

    /// Renders the stats record (`kind` is `stats` or
    /// `shutdown-summary` — same fields, different type tag).
    fn render_stats(&self, kind: &str) -> String {
        let (cache, journal, journal_hits, journal_errors) = {
            let state = self.cache.lock().expect("cache lock");
            (
                state.cache.stats(),
                state.journal_stats(),
                state.journal_hits,
                state.journal_errors,
            )
        };
        let journal = journal.unwrap_or_default();
        format!(
            "{{\"v\":{PROTOCOL_VERSION},\"type\":\"{kind}\",\"hits\":{},\"misses\":{},\
             \"evictions\":{},\"collisions\":{},\"entries\":{},\"cache_capacity\":{},\
             \"in_flight\":{},\"queue_capacity\":{},\"admitted\":{},\"rejected\":{},\
             \"invalid\":{},\"coalesced\":{},\"quota_rejected\":{},\"quota_clients\":{},\
             \"oversize\":{},\"replayed\":{},\"journal_hits\":{journal_hits},\
             \"journal_appends\":{},\"compactions\":{},\"journal_errors\":{journal_errors}}}",
            cache.hits,
            cache.misses,
            cache.evictions,
            cache.collisions,
            cache.entries,
            cache.capacity,
            self.gate.in_flight(),
            self.gate.capacity(),
            self.gate.admitted(),
            self.gate.rejected(),
            self.invalid.load(Ordering::Relaxed),
            self.coalesced.load(Ordering::Relaxed),
            self.quota_rejected(),
            self.quotas.as_ref().map_or(0, ClientQuotas::clients),
            self.oversize.load(Ordering::Relaxed),
            self.replayed,
            journal.appends,
            journal.compactions,
        )
    }

    /// The final record a server prints when it exits: the same
    /// counters as `stats`, tagged `shutdown-summary`.
    #[must_use]
    pub fn shutdown_summary_line(&self) -> String {
        self.render_stats("shutdown-summary")
    }
}

/// A leader-or-follower decision for one cache miss.
enum Flight {
    Lead(Arc<FlightSlot>),
    Join(Arc<FlightSlot>),
}

/// Renders a protocol `error` record.
#[must_use]
pub fn error_line(code: &str, message: &str) -> String {
    format!(
        "{{\"v\":{PROTOCOL_VERSION},\"type\":\"error\",\"code\":\"{}\",\"message\":\"{}\"}}",
        json_escape(code),
        json_escape(message)
    )
}

/// Reads an optional integer field, rejecting non-integer values.
fn int_field(value: &JsonValue, key: &str) -> Result<Option<i64>, String> {
    match value.get(key) {
        None => Ok(None),
        Some(v) => match v.as_i64() {
            Some(n) => Ok(Some(n)),
            None => Err(error_line(
                "bad-request",
                &format!("`{key}` must be an integer"),
            )),
        },
    }
}

/// Reads an optional non-negative integer field.
fn uint_field(value: &JsonValue, key: &str) -> Result<Option<u64>, String> {
    match int_field(value, key)? {
        None => Ok(None),
        Some(n) if n >= 0 => Ok(Some(n as u64)),
        Some(_) => Err(error_line(
            "bad-request",
            &format!("`{key}` must be non-negative"),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpl_lang::corpus;

    fn service() -> AnalysisService {
        AnalysisService::new(ServiceConfig::default())
    }

    fn analyze_line(source: &str) -> String {
        format!(
            "{{\"op\":\"analyze\",\"client\":\"simple\",\"program\":\"{}\"}}",
            json_escape(source)
        )
    }

    #[test]
    fn ping_and_unknown_ops() {
        let svc = service();
        assert_eq!(
            svc.handle_line("{\"op\":\"ping\"}"),
            Reply::Line("{\"v\":1,\"type\":\"pong\"}".to_owned())
        );
        let reply = svc.handle_line("{\"op\":\"frobnicate\"}");
        assert!(
            reply.line().contains("\"code\":\"bad-request\""),
            "{reply:?}"
        );
        let reply = svc.handle_line("not json at all");
        assert!(reply.line().contains("\"code\":\"bad-json\""), "{reply:?}");
        let reply = svc.handle_line("{\"program\":\"x := 1;\"}");
        assert!(reply.line().contains("missing `op`"), "{reply:?}");
    }

    #[test]
    fn analyze_hits_cache_on_repeat_and_is_byte_identical() {
        let svc = service();
        let line = analyze_line(&corpus::fig2_exchange().source);
        let cold = svc.handle_line(&line);
        let warm = svc.handle_line(&line);
        assert_eq!(cold, warm, "cached response must be byte-identical");
        assert!(cold.line().starts_with("{\"v\":1,\"type\":\"program\""));
        let stats = svc.cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(stats.entries, 1);
        // And it matches the request API's own rendering — the daemon
        // adds nothing to the wire format.
        let direct = AnalysisRequest::builder()
            .source(corpus::fig2_exchange().source)
            .client_tag("simple")
            .build()
            .unwrap()
            .execute()
            .json_line(false);
        assert_eq!(cold.line(), direct);
    }

    #[test]
    fn analyze_validation_errors_are_structured() {
        let svc = service();
        let reply = svc.handle_line("{\"op\":\"analyze\"}");
        assert!(reply.line().contains("missing `program`"), "{reply:?}");
        let reply = svc.handle_line(&analyze_line("x := ;"));
        assert!(
            reply.line().contains("\"code\":\"parse-error\""),
            "{reply:?}"
        );
        let reply =
            svc.handle_line("{\"op\":\"analyze\",\"program\":\"x := 1;\",\"client\":\"quantum\"}");
        assert!(
            reply.line().contains("\"code\":\"unknown-client\""),
            "{reply:?}"
        );
        for (knob, message) in [
            ("\"max_steps\":0", "max_steps must be >= 1"),
            ("\"min_np\":0", "min_np must be >= 1 (got 0)"),
            ("\"max_psets\":0", "max_psets must be >= 1"),
        ] {
            let reply = svc.handle_line(&format!(
                "{{\"op\":\"analyze\",\"program\":\"x := 1;\",{knob}}}"
            ));
            assert_eq!(
                reply.line(),
                format!("{{\"v\":1,\"type\":\"error\",\"code\":\"bad-config\",\"message\":\"{message}\"}}")
            );
        }
        let reply =
            svc.handle_line("{\"op\":\"analyze\",\"program\":\"x := 1;\",\"min_np\":\"four\"}");
        assert!(reply.line().contains("must be an integer"), "{reply:?}");
        // Precedence: a parse error beats an unknown client, which beats
        // a bad knob.
        let reply = svc.handle_line(
            "{\"op\":\"analyze\",\"program\":\"x := ;\",\"client\":\"quantum\",\"max_steps\":0}",
        );
        assert!(
            reply.line().contains("\"code\":\"parse-error\""),
            "{reply:?}"
        );
        let reply = svc.handle_line(
            "{\"op\":\"analyze\",\"program\":\"x := 1;\",\"client\":\"quantum\",\"max_steps\":0}",
        );
        assert!(
            reply.line().contains("\"code\":\"unknown-client\""),
            "{reply:?}"
        );
        // Validation failures count as invalid, not as cache traffic.
        assert_eq!(svc.cache_stats().misses, 0);
        assert!(svc
            .handle_line("{\"op\":\"stats\"}")
            .line()
            .contains("\"invalid\":9"));
    }

    #[test]
    fn full_gate_rejects_instead_of_queueing() {
        let svc = AnalysisService::new(ServiceConfig {
            max_in_flight: 1,
            ..ServiceConfig::default()
        });
        let held = svc.gate().try_admit().expect("gate starts empty");
        let reply = svc.handle_line(&analyze_line("x := 1;"));
        assert!(
            reply
                .line()
                .starts_with("{\"v\":1,\"type\":\"rejected\",\"code\":\"queue-full\""),
            "{reply:?}"
        );
        assert!(reply.line().contains("\"capacity\":1"), "{reply:?}");
        drop(held);
        let reply = svc.handle_line(&analyze_line("x := 1;"));
        assert!(reply.line().contains("\"type\":\"program\""), "{reply:?}");
        assert_eq!(svc.gate().rejected(), 1);
        assert_eq!(svc.gate().in_flight(), 0, "permit released after serving");
    }

    #[test]
    fn a_panicking_request_is_answered_and_leaves_nothing_held() {
        let source = corpus::fig2_exchange().source;
        let panicking = analyze_line(&format!("// mpl:fault=panic\n{source}"));
        // With a cache the repeat is a hit; without one it leads a new
        // flight, which waits forever if the first left its slot behind.
        for cache_capacity in [128, 0] {
            let svc = AnalysisService::new(ServiceConfig {
                cache_capacity,
                ..ServiceConfig::default()
            });
            let reply = svc.handle_line(&panicking);
            let line = reply.line();
            assert!(line.starts_with("{\"v\":1,\"type\":\"program\""), "{line}");
            assert_eq!(
                line.matches("\"outcome\":\"panicked\"").count(),
                1,
                "{line}"
            );
            assert!(line.contains("injected fault"), "{line}");
            assert_eq!(svc.gate().in_flight(), 0, "permit released after the panic");
            let normal = svc.handle_line(&analyze_line(&source));
            assert!(
                normal.line().contains("\"outcome\":\"completed\""),
                "{normal:?}"
            );
            assert_eq!(svc.handle_line(&panicking), reply);
            assert_eq!(svc.gate().in_flight(), 0);
        }
    }

    #[test]
    fn shutdown_cancels_token_and_tags_reply() {
        let svc = service();
        let token = svc.shutdown_token();
        assert!(!token.is_cancelled());
        assert_eq!(svc.shutdown_mode(), None);
        let reply = svc.handle_line("{\"op\":\"shutdown\"}");
        assert_eq!(
            reply,
            Reply::Shutdown("{\"v\":1,\"type\":\"shutdown\",\"mode\":\"abort\"}".to_owned())
        );
        assert!(token.is_cancelled());
        assert_eq!(svc.shutdown_mode(), Some(ShutdownMode::Abort));
        assert!(svc
            .shutdown_summary_line()
            .contains("\"type\":\"shutdown-summary\""));
    }

    #[test]
    fn shutdown_drain_mode_is_recorded() {
        let svc = service();
        let reply = svc.handle_line("{\"op\":\"shutdown\",\"mode\":\"drain\"}");
        assert_eq!(
            reply,
            Reply::Shutdown("{\"v\":1,\"type\":\"shutdown\",\"mode\":\"drain\"}".to_owned())
        );
        assert_eq!(svc.shutdown_mode(), Some(ShutdownMode::Drain));
        // A bad mode is an error, not a shutdown.
        let svc = service();
        let reply = svc.handle_line("{\"op\":\"shutdown\",\"mode\":\"meltdown\"}");
        assert!(
            matches!(&reply, Reply::Line(l) if l.contains("`mode` must be")),
            "{reply:?}"
        );
        assert!(!svc.shutdown_token().is_cancelled());
    }

    #[test]
    fn concurrent_identical_requests_single_flight() {
        use std::sync::atomic::AtomicUsize;
        const THREADS: usize = 8;
        let svc = std::sync::Arc::new(AnalysisService::new(ServiceConfig {
            max_in_flight: THREADS,
            ..ServiceConfig::default()
        }));
        let line = std::sync::Arc::new(analyze_line(&corpus::fig2_exchange().source));
        let gate = std::sync::Arc::new(std::sync::Barrier::new(THREADS));
        let served = std::sync::Arc::new(AtomicUsize::new(0));
        let workers: Vec<_> = (0..THREADS)
            .map(|_| {
                let svc = std::sync::Arc::clone(&svc);
                let line = std::sync::Arc::clone(&line);
                let gate = std::sync::Arc::clone(&gate);
                let served = std::sync::Arc::clone(&served);
                std::thread::spawn(move || {
                    gate.wait();
                    let reply = svc.handle_line(&line).line().to_owned();
                    assert!(reply.contains("\"type\":\"program\""), "{reply}");
                    served.fetch_add(1, Ordering::Relaxed);
                    reply
                })
            })
            .collect();
        let bodies: Vec<String> = workers.into_iter().map(|w| w.join().unwrap()).collect();
        assert!(bodies.windows(2).all(|w| w[0] == w[1]), "identical bytes");
        assert_eq!(served.load(Ordering::Relaxed), THREADS);
        let stats = svc.cache_stats();
        // Exactly one computation: every other request was either a
        // cache hit (arrived after the insert) or coalesced onto the
        // leader's flight — whatever the interleaving was.
        assert_eq!(stats.entries, 1);
        assert_eq!(
            stats.hits + svc.coalesced(),
            (THREADS - 1) as u64,
            "hits={} coalesced={}",
            stats.hits,
            svc.coalesced()
        );
        assert!(svc
            .handle_line("{\"op\":\"stats\"}")
            .line()
            .contains("\"coalesced\":"));
    }

    #[test]
    fn quota_rejections_are_structured_with_retry_hint() {
        let svc = AnalysisService::new(ServiceConfig {
            quota: Some(QuotaPolicy {
                rate_per_sec: 1,
                burst: 2,
            }),
            ..ServiceConfig::default()
        });
        let line = analyze_line(&corpus::fig2_exchange().source);
        // The burst admits two requests; the third bounces with a
        // retry hint (the analyses above finish in well under the one
        // second a refill takes).
        assert!(svc
            .handle_line(&line)
            .line()
            .contains("\"type\":\"program\""));
        assert!(svc
            .handle_line(&line)
            .line()
            .contains("\"type\":\"program\""));
        let reply = svc.handle_line(&line);
        assert!(
            reply
                .line()
                .starts_with("{\"v\":1,\"type\":\"rejected\",\"code\":\"quota-exceeded\""),
            "{reply:?}"
        );
        assert!(reply.line().contains("\"retry_after_ms\":"), "{reply:?}");
        assert!(reply.line().contains("\"client\":\"anon\""), "{reply:?}");
        assert_eq!(svc.quota_rejected(), 1);
        // A different client id has its own bucket.
        let tagged = format!(
            "{{\"op\":\"analyze\",\"client_id\":\"other\",\"client\":\"simple\",\"program\":\"{}\"}}",
            json_escape(&corpus::fig2_exchange().source)
        );
        assert!(
            svc.handle_line(&tagged)
                .line()
                .contains("\"type\":\"program\""),
            "fresh client must not inherit anon's exhaustion"
        );
        assert!(svc
            .handle_line("{\"op\":\"stats\"}")
            .line()
            .contains("\"quota_rejected\":1"));
    }

    #[test]
    fn oversize_reply_is_structured_and_counted() {
        let svc = service();
        let reply = svc.oversize_reply(4096);
        assert!(
            reply.starts_with("{\"v\":1,\"type\":\"error\",\"code\":\"line-too-long\""),
            "{reply}"
        );
        assert!(reply.contains("4096"), "{reply}");
        assert!(svc
            .handle_line("{\"op\":\"stats\"}")
            .line()
            .contains("\"oversize\":1"));
    }
}
