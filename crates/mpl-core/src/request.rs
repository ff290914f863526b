//! The unified request/response API: every way of asking this workspace
//! for an analysis — `mpl analyze`, `mpl analyze-corpus`, the `mpl
//! serve` daemon — builds an [`AnalysisRequest`] and renders an
//! [`AnalysisResponse`]. A request is the one unit of work: it carries
//! its own deadline, retries and injected fault, and a [`RequestBatch`]
//! is an ordered list of requests fanned across worker threads.
//!
//! The point of funneling all entry points through one pair of types is
//! **byte-identity**: a response must render to the same bytes whether
//! it was computed by `mpl analyze --json`, by the daemon, in a batch of
//! any width, or replayed from the daemon's result cache. That is what
//! makes the cache testable (diff the bytes) and what makes cached
//! answers trustworthy (there is no "cached rendering" that can drift
//! from the real one). Consequences:
//!
//! * response bodies carry no request ids, no cache status, and no
//!   timestamps; timing fields are opt-in (`timing`) and explicitly
//!   nondeterministic, so cacheable paths never request them;
//! * the `name` field is optional and omitted when absent, so an
//!   anonymous daemon request renders exactly like `mpl analyze --json`;
//! * every record starts with the protocol version field `"v"`
//!   ([`PROTOCOL_VERSION`]) and uses the stable kebab-case codes from
//!   [`Verdict::code`], [`TopReason::code`] and [`JobOutcome::code`];
//! * every attempt starts from a fresh variable interner
//!   ([`mpl_domains::VarTable`]), whose name indices would otherwise
//!   depend on what the thread analyzed before, and a batch collects its
//!   responses by submission index, not completion order.
//!
//! Requests are also the **cache identity**: [`AnalysisRequest::fingerprint`]
//! hashes [`AnalysisRequest::cache_check`] — the full configuration
//! signature plus the *normalized* program (rendered from its AST, so
//! formatting differences cannot cause spurious misses) — with
//! [`mpl_domains::splitmix64`]. The check string itself is stored next
//! to every cache entry; see [`crate::cache`] for why a 64-bit key alone
//! is never trusted.
//!
//! Construction is builder-only ([`AnalysisRequest::builder`]) and
//! validating: malformed inputs become typed [`RequestError`]s
//! (mirroring [`ConfigError`]) instead of panics or silently-defaulted
//! knobs.
//!
//! # Fault tolerance
//!
//! The paper's framework *fails soundly*: when a pattern exceeds the
//! abstraction it returns ⊤, never a wrong answer (§VI). Requests extend
//! that discipline from one analysis to a fleet of them:
//!
//! * **panic isolation** — a panicking request, in its CFG build or in
//!   any attempt, becomes a [`JobOutcome::Panicked`] response, caught by
//!   [`AnalysisRequest::execute`] and its two siblings
//!   ([`AnalysisRequest::execute_on`], [`AnalysisRequest::into_response`]),
//!   which share one isolation layer; a [`RequestBatch`] runs every
//!   request through it and names the worker thread, and the rest of the
//!   batch completes;
//! * **cooperative deadlines** — each attempt gets a fresh
//!   [`CancelToken`] with the request's `timeout`, and the engine gives
//!   up with a sound ⊤ ([`TopReason::Deadline`]) when it fires. Partial
//!   progress at expiry is wall-clock-dependent, so a
//!   [`JobOutcome::TimedOut`] response carries the normalized bare ⊤
//!   ([`AnalysisResult::top`]);
//! * **retry with degradation** — with `retries > 0`, a request that ⊤s
//!   on a resource budget ([`TopReason::StepBudget`] /
//!   [`TopReason::PsetBudget`]) or times out is re-run under an
//!   escalating coarsening ladder (earlier widening, fewer thresholds,
//!   smaller step budget) that is 32 attempts deep. A retry that
//!   produces an answer yields [`JobOutcome::Degraded`]; if every
//!   attempt exhausts its budget the attempt-1 result (under the
//!   *requested* config) is reported.

use std::any::Any;
use std::fmt;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use mpl_cfg::Cfg;
use mpl_domains::ClosureStats;
use mpl_lang::ast::Program;
use mpl_lang::parse_program;
use mpl_runtime::CancelToken;

use crate::client::Client;
use crate::config::{AnalysisConfig, ConfigError};
use crate::engine::analyze_cfg;
use crate::json::json_escape;
use crate::result::{AnalysisResult, TopReason, Verdict};

/// Version of the JSON wire format. Stamped as `"v"` on every record
/// (program lines, summaries, and all daemon responses) so clients can
/// detect incompatible servers instead of misparsing them.
pub const PROTOCOL_VERSION: i64 = 1;

/// The engine revision stamped into every
/// [`AnalysisRequest::cache_check`]. Bump when an engine change alters
/// any response byte for the same request: a journal written by an
/// older engine then misses once, instead of replaying its stale bodies
/// under a check string the new engine would also produce.
const ENGINE_REVISION: u32 = 6;

/// The deepest level of the degradation ladder ([`degrade`]). Every
/// attempt past `MAX_LEVEL + 1` would rerun an identical configuration,
/// so the ladder stops there whatever `retries` asks for.
const MAX_LEVEL: u32 = 31;

/// A deterministic fault injected into a request — the test hook for
/// the fault-tolerance machinery. Injected via
/// [`AnalysisRequestBuilder::fault`] or the magic corpus directive
/// `// mpl:fault=<kind>` on its own line of an `.mpl` source file (see
/// [`Fault::from_directive`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum Fault {
    /// Panic on every attempt (directive `panic`). Exercises panic
    /// isolation: the request must become a [`JobOutcome::Panicked`]
    /// response.
    Panic,
    /// Run forever — poll the cancel token until the deadline fires
    /// (directive `spin`). Exercises the cooperative-deadline path end
    /// to end; a spinning request without a timeout panics
    /// (deterministically) rather than hanging its worker forever.
    Spin,
    /// Report a step-budget ⊤ on the first attempt and analyze normally
    /// on retries (directive `top-once`). Exercises the retry ladder
    /// deterministically.
    TopOnce,
}

impl Fault {
    /// The fault's directive tag (`panic`, `spin`, `top-once`), also its
    /// fragment of [`AnalysisRequest::cache_check`].
    #[must_use]
    pub fn tag(self) -> &'static str {
        match self {
            Fault::Panic => "panic",
            Fault::Spin => "spin",
            Fault::TopOnce => "top-once",
        }
    }

    /// Scans MPL source text for a `// mpl:fault=<kind>` directive line,
    /// `<kind>` being a [`Fault::tag`]. The directive is an ordinary line
    /// comment to the language, so faulted programs still parse.
    #[must_use]
    pub fn from_directive(source: &str) -> Option<Fault> {
        source.lines().find_map(|line| {
            let tag = line.trim().strip_prefix("// mpl:fault=")?.trim();
            [Fault::Panic, Fault::Spin, Fault::TopOnce]
                .into_iter()
                .find(|f| f.tag() == tag)
        })
    }
}

/// A rejected [`AnalysisRequestBuilder`] input — the request-level
/// analogue of [`ConfigError`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RequestError {
    /// Neither a program AST nor source text was supplied.
    MissingProgram,
    /// The supplied source text failed to parse.
    Parse {
        /// The parser's error message.
        message: String,
    },
    /// The client tag named no known client analysis (see
    /// [`Client::from_tag`]).
    UnknownClient {
        /// The unrecognized tag.
        tag: String,
    },
    /// The configuration knobs failed validation.
    Config(ConfigError),
}

impl fmt::Display for RequestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RequestError::MissingProgram => f.write_str("no program or source given"),
            RequestError::Parse { message } => write!(f, "{message}"),
            RequestError::UnknownClient { tag } => write!(f, "unknown client `{tag}`"),
            RequestError::Config(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for RequestError {}

impl From<ConfigError> for RequestError {
    fn from(e: ConfigError) -> RequestError {
        RequestError::Config(e)
    }
}

impl RequestError {
    /// A stable kebab-case code for the wire protocol's `error` records.
    #[must_use]
    pub fn code(&self) -> &'static str {
        match self {
            RequestError::MissingProgram => "missing-program",
            RequestError::Parse { .. } => "parse-error",
            RequestError::UnknownClient { .. } => "unknown-client",
            RequestError::Config(_) => "bad-config",
        }
    }
}

/// One validated analysis request: a program, the configuration to run
/// it under, and the execution policy (deadline, retry ladder, injected
/// fault). Construct via [`AnalysisRequest::builder`]; the struct is
/// `#[non_exhaustive]` so fields stay readable while construction is
/// reserved to the validating builder.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct AnalysisRequest {
    /// Optional display name, never empty. Part of the cache identity
    /// because it is rendered into the response (and into injected-fault
    /// panic messages).
    pub name: Option<String>,
    /// The program to analyze.
    pub program: Program,
    /// Validated engine configuration.
    pub config: AnalysisConfig,
    /// Cooperative deadline for each attempt.
    pub timeout: Option<Duration>,
    /// Degraded retries after a budget-⊤ or deadline (see the module
    /// docs). The ladder is 32 attempts deep, so values above 31 run
    /// exactly like 31.
    pub retries: u32,
    /// Deterministic fault injection (tests and smoke runs only).
    pub fault: Option<Fault>,
}

impl AnalysisRequest {
    /// A builder with nothing set: defaults come from
    /// [`AnalysisConfig::default`] at [`AnalysisRequestBuilder::build`]
    /// time.
    #[must_use]
    pub fn builder() -> AnalysisRequestBuilder {
        AnalysisRequestBuilder::default()
    }

    /// The canonical program text: the AST rendered back to source, so
    /// two differently-formatted inputs of the same program normalize to
    /// the same string (and hence the same cache identity).
    #[must_use]
    pub fn normalized_program(&self) -> String {
        self.program.to_string()
    }

    /// The full cache identity as a string: every knob that can change
    /// the rendered response, followed by the normalized program. Two
    /// requests with equal check strings produce byte-identical
    /// responses; the cache stores this string next to each entry and
    /// verifies it on every hit (collision safety — see
    /// [`crate::cache::ResultCache::lookup`]).
    #[must_use]
    pub fn cache_check(&self) -> String {
        let c = &self.config;
        let mut out = String::new();
        let _ = write!(
            out,
            "name={};client={};min_np={};max_steps={};max_psets={};widen_delay={};thresholds=",
            self.name.as_deref().unwrap_or(""),
            c.client.tag(),
            c.min_np,
            c.max_steps,
            c.max_psets,
            c.widen_delay,
        );
        for (i, t) in c.widen_thresholds.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{t}");
        }
        let _ = write!(
            out,
            ";engine={ENGINE_REVISION};timeout_nanos={};retries={};fault={}",
            self.timeout.map_or(0, |t| t.as_nanos()),
            self.retries,
            self.fault.map_or("none", Fault::tag),
        );
        let _ = write!(out, "\n{}", self.normalized_program());
        out
    }

    /// 64-bit content hash of [`Self::cache_check`], chained through
    /// [`mpl_domains::splitmix64`] — the same mixing function behind the
    /// engine's structural state fingerprints. Used as the cache key;
    /// never trusted without the check string.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        Self::check_fingerprint(&self.cache_check())
    }

    /// [`Self::fingerprint`] of an already rendered
    /// [`Self::cache_check`], for a caller that holds the check string
    /// anyway and should not render the program twice.
    #[must_use]
    pub fn check_fingerprint(check: &str) -> u64 {
        let mut h = 0x9E37_79B9_7F4A_7C15u64;
        for chunk in check.as_bytes().chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            h = mpl_domains::splitmix64(h ^ u64::from_le_bytes(buf));
        }
        mpl_domains::splitmix64(h ^ check.len() as u64)
    }

    /// Executes the request on the calling thread — CFG built from
    /// [`Self::program`], fresh interner per attempt, cooperative
    /// deadline, retry ladder — with panic isolation: an unwinding
    /// analysis, CFG build included, becomes a [`JobOutcome::Panicked`]
    /// response with a zero wall time. A [`RequestBatch`] runs each of
    /// its requests through it.
    #[must_use]
    pub fn execute(&self) -> AnalysisResponse {
        self.respond(|| self.run_ladder(&Cfg::build(&self.program)))
    }

    /// [`Self::execute`] over a CFG the caller already built from
    /// [`Self::program`], for a caller that keeps the graph anyway.
    #[must_use]
    pub fn execute_on(&self, cfg: &Cfg) -> AnalysisResponse {
        self.respond(|| self.run_ladder(cfg))
    }

    /// [`Self::execute`] for a request the caller is done with: the AST
    /// is dropped once the CFG is built, before the first attempt, so
    /// the engine runs beside the graph alone. Same response bytes.
    #[must_use]
    pub fn into_response(mut self) -> AnalysisResponse {
        let program = std::mem::take(&mut self.program);
        self.respond(|| {
            let cfg = Cfg::build(&program);
            drop(program);
            self.run_ladder(&cfg)
        })
    }

    /// Runs `ladder` under `catch_unwind` and wraps what it returns (or
    /// the panic) in a response. This is the only place a panic is
    /// caught.
    fn respond(
        &self,
        ladder: impl FnOnce() -> (JobOutcome, Option<AnalysisResult>),
    ) -> AnalysisResponse {
        let start = Instant::now();
        let (outcome, result, wall_nanos) = match catch_unwind(AssertUnwindSafe(ladder)) {
            Ok((outcome, result)) => (outcome, result, start.elapsed().as_nanos() as u64),
            Err(payload) => {
                let message = panic_message(payload.as_ref());
                (JobOutcome::Panicked { message }, None, 0)
            }
        };
        AnalysisResponse {
            name: self.name.clone(),
            client: self.config.client,
            outcome,
            result,
            wall_nanos,
            panic_worker: None,
        }
    }

    /// Runs the attempt ladder over `cfg`: attempt 1 under the requested
    /// configuration, then — after a budget-⊤ or a deadline — up to
    /// `retries` more under ever coarser [`degrade`]d ones, capped at the
    /// ladder's depth. Every attempt analyzes the same graph; only the
    /// interner and the configuration start afresh. Panics, including an
    /// injected [`Fault::Panic`], unwind out of here.
    fn run_ladder(&self, cfg: &Cfg) -> (JobOutcome, Option<AnalysisResult>) {
        let name = self.name.as_deref().unwrap_or("");
        let max_attempts = self.retries.saturating_add(1).min(MAX_LEVEL + 1);
        // The attempt-1 budget-⊤ result, kept so exhausted retries still
        // report the answer produced under the *requested* configuration.
        let mut requested_top: Option<AnalysisResult> = None;
        for attempt in 1..=max_attempts {
            // Fresh interner per attempt: VarId assignment must not depend
            // on prior attempts or on what this thread analyzed before.
            mpl_domains::reset_table();
            let token = self.timeout.map(CancelToken::with_deadline);
            let result = match self.fault {
                Some(Fault::Panic) => {
                    panic!("injected fault: job `{name}` panics by directive")
                }
                Some(Fault::Spin) => {
                    let Some(token) = &token else {
                        // Spinning with no deadline would hang the worker
                        // forever; fail deterministically instead.
                        panic!("injected fault: job `{name}` spins but no timeout is configured");
                    };
                    // Sleep-poll rather than busy-wait: the fault models a
                    // request that never finishes, and must not starve a
                    // batch's real requests of CPU on small machines.
                    while !token.is_cancelled() {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    AnalysisResult::top(TopReason::Deadline)
                }
                Some(Fault::TopOnce) if attempt == 1 => AnalysisResult::top(TopReason::StepBudget),
                _ => {
                    let mut config = degrade(&self.config, attempt);
                    config.cancel = token;
                    analyze_cfg(cfg, &config)
                }
            };
            let last = attempt == max_attempts;
            match result.verdict {
                Verdict::Top {
                    reason: TopReason::Deadline,
                } => {
                    if last {
                        // Normalized bare ⊤: partial progress at expiry is
                        // wall-clock-dependent and must not leak into
                        // deterministic output.
                        let top = AnalysisResult::top(TopReason::Deadline);
                        return (JobOutcome::TimedOut, Some(top));
                    }
                }
                Verdict::Top {
                    reason: TopReason::StepBudget | TopReason::PsetBudget { .. },
                } => {
                    if last {
                        // Prefer the budget-⊤ computed under the requested
                        // config over a coarsened one; if attempt 1 timed
                        // out, this one is the best sound answer available.
                        return match requested_top {
                            Some(original) => (JobOutcome::Completed, Some(original)),
                            None => answered(attempt, result),
                        };
                    }
                    if attempt == 1 {
                        requested_top = Some(result);
                    }
                }
                // A definitive answer: exact, deadlock, or a non-budget ⊤.
                _ => return answered(attempt, result),
            }
        }
        unreachable!("the attempt loop returns on its final attempt")
    }
}

/// The degradation ladder: attempt 1 is the requested configuration;
/// every later attempt widens sooner (halved delay), snaps through half
/// as many thresholds, and burns a quarter of the step budget, floored
/// at 1 000 steps or the requested budget if that is smaller — so a
/// request that timed out converges (or fails fast with a sound
/// budget-⊤) instead of timing out again, and no retry gets more steps
/// than the request asked for. A pure function of `(config, attempt)`,
/// so retries are deterministic; it bottoms out at level [`MAX_LEVEL`].
fn degrade(config: &AnalysisConfig, attempt: u32) -> AnalysisConfig {
    let mut coarse = config.clone();
    if attempt <= 1 {
        return coarse;
    }
    let level = (attempt - 1).min(MAX_LEVEL);
    coarse.widen_delay >>= level;
    let keep = coarse.widen_thresholds.len() >> level;
    coarse.widen_thresholds.truncate(keep);
    let floor = coarse.max_steps.min(1_000);
    coarse.max_steps = (coarse.max_steps >> (2 * u64::from(level)).min(63)).max(floor);
    coarse
}

/// Renders a caught panic payload as text: `&str` and `String` payloads
/// verbatim, a placeholder otherwise.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// The outcome of a ladder that stopped at `attempt` with `result`.
fn answered(attempt: u32, result: AnalysisResult) -> (JobOutcome, Option<AnalysisResult>) {
    let outcome = if attempt == 1 {
        JobOutcome::Completed
    } else {
        JobOutcome::Degraded { attempts: attempt }
    };
    (outcome, Some(result))
}

/// Validating builder for [`AnalysisRequest`].
///
/// ```
/// use mpl_core::{AnalysisConfig, AnalysisRequest, Client};
///
/// let request = AnalysisRequest::builder()
///     .source("x := 1;")
///     .config(AnalysisConfig {
///         client: Client::Simple,
///         min_np: 8,
///         ..AnalysisConfig::default()
///     })
///     .build()
///     .expect("valid request");
/// assert_eq!(request.config.min_np, 8);
/// assert!(AnalysisRequest::builder().build().is_err()); // no program
/// ```
#[derive(Debug, Clone, Default)]
pub struct AnalysisRequestBuilder {
    name: Option<String>,
    source: Option<String>,
    program: Option<Program>,
    config: AnalysisConfig,
    client_tag: Option<String>,
    timeout: Option<Duration>,
    retries: u32,
    fault: Option<Fault>,
    honor_fault_directive: bool,
}

impl AnalysisRequestBuilder {
    /// Sets the display name. An empty name is no name: it renders no
    /// `name` field, like the unnamed request whose cache identity it
    /// shares.
    #[must_use]
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.name = Some(name.into());
        self
    }

    /// Sets the program as source text (parsed — and its fault
    /// directives scanned, when enabled — at build time).
    #[must_use]
    pub fn source(mut self, source: impl Into<String>) -> Self {
        self.source = Some(source.into());
        self
    }

    /// Sets the program as an already-parsed AST (wins over
    /// [`Self::source`]).
    #[must_use]
    pub fn program(mut self, program: Program) -> Self {
        self.program = Some(program);
        self
    }

    /// Replaces the whole configuration (the defaults until set), which
    /// [`Self::build`] validates.
    #[must_use]
    pub fn config(mut self, config: AnalysisConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the configuration's client by its wire tag (`simple` /
    /// `cartesian`), resolved at build time.
    #[must_use]
    pub fn client_tag(mut self, tag: impl Into<String>) -> Self {
        self.client_tag = Some(tag.into());
        self
    }

    /// Sets the cooperative per-attempt deadline.
    #[must_use]
    pub fn timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Some(timeout);
        self
    }

    /// Clears any previously-set deadline (the wire protocol's
    /// `timeout_ms: 0` — "no deadline", overriding a server default).
    #[must_use]
    pub fn no_timeout(mut self) -> Self {
        self.timeout = None;
        self
    }

    /// Sets the degraded-retry count.
    #[must_use]
    pub fn retries(mut self, retries: u32) -> Self {
        self.retries = retries;
        self
    }

    /// Injects a deterministic fault.
    #[must_use]
    pub fn fault(mut self, fault: Fault) -> Self {
        self.fault = Some(fault);
        self
    }

    /// When enabled, `// mpl:fault=<kind>` directives in the source text
    /// are honored (the corpus-directory and daemon behaviour; off by
    /// default so `mpl analyze` runs what it is given).
    #[must_use]
    pub fn honor_fault_directive(mut self, honor: bool) -> Self {
        self.honor_fault_directive = honor;
        self
    }

    /// Validates and produces the request.
    ///
    /// # Errors
    ///
    /// [`RequestError::MissingProgram`] when neither program nor source
    /// was given, [`RequestError::Parse`] on bad source,
    /// [`RequestError::UnknownClient`] on a bad client tag, and
    /// [`RequestError::Config`] when a knob fails
    /// [`AnalysisConfig::validate`].
    pub fn build(mut self) -> Result<AnalysisRequest, RequestError> {
        let program = match (self.program, &self.source) {
            (Some(program), _) => program,
            (None, Some(source)) => parse_program(source).map_err(|e| RequestError::Parse {
                message: e.to_string(),
            })?,
            (None, None) => return Err(RequestError::MissingProgram),
        };
        if let Some(tag) = self.client_tag {
            self.config.client =
                Client::from_tag(&tag).ok_or(RequestError::UnknownClient { tag })?;
        }
        self.config.validate()?;
        let fault = self.fault.or_else(|| {
            if self.honor_fault_directive {
                self.source.as_deref().and_then(Fault::from_directive)
            } else {
                None
            }
        });
        Ok(AnalysisRequest {
            name: self.name.filter(|name| !name.is_empty()),
            program,
            config: self.config,
            timeout: self.timeout,
            retries: self.retries,
            fault,
        })
    }
}

/// How one request ended, as a typed taxonomy mirroring [`TopReason`]'s
/// style: [`Self::code`] is the stable kebab-case tag machine output
/// uses.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum JobOutcome {
    /// The analysis ran to its natural end under the requested
    /// configuration (any verdict — ⊤ on a budget counts as completed
    /// when retries are off or exhausted).
    Completed,
    /// A budget-⊤ or timed-out request produced this answer on a retry
    /// under a coarsened configuration.
    Degraded {
        /// Total attempts made (≥ 2).
        attempts: u32,
    },
    /// Every attempt hit the cooperative deadline; the response carries
    /// the normalized bare ⊤.
    TimedOut,
    /// The analysis panicked; the rest of its batch completed without it.
    Panicked {
        /// The panic payload, rendered to text.
        message: String,
    },
    /// The request could not even be built (e.g. its source failed to
    /// parse); queued via [`RequestBatch::push_error`].
    Error {
        /// Why the request never ran.
        message: String,
    },
}

impl JobOutcome {
    /// A stable, machine-readable outcome code (kebab-case, mirroring
    /// [`TopReason::code`]; used by the corpus JSON output).
    #[must_use]
    pub fn code(&self) -> &'static str {
        match self {
            JobOutcome::Completed => "completed",
            JobOutcome::Degraded { .. } => "degraded",
            JobOutcome::TimedOut => "timed-out",
            JobOutcome::Panicked { .. } => "panicked",
            JobOutcome::Error { .. } => "error",
        }
    }

    /// True for the two success shapes ([`Self::Completed`] /
    /// [`Self::Degraded`]) — the ones that carry a result produced by a
    /// finished analysis run.
    #[must_use]
    pub fn is_ok(&self) -> bool {
        matches!(self, JobOutcome::Completed | JobOutcome::Degraded { .. })
    }

    /// The failure detail for [`Self::Panicked`] / [`Self::Error`]
    /// outcomes, if any.
    #[must_use]
    pub fn detail(&self) -> Option<&str> {
        match self {
            JobOutcome::Panicked { message } | JobOutcome::Error { message } => Some(message),
            _ => None,
        }
    }
}

impl fmt::Display for JobOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobOutcome::Completed => f.write_str("completed"),
            JobOutcome::Degraded { attempts } => {
                write!(f, "degraded after {attempts} attempts")
            }
            JobOutcome::TimedOut => f.write_str("timed out"),
            JobOutcome::Panicked { message } => write!(f, "panicked: {message}"),
            JobOutcome::Error { message } => write!(f, "error: {message}"),
        }
    }
}

/// The answer to one [`AnalysisRequest`], renderable to the stable wire
/// format. `#[non_exhaustive]` for the same reason as the request.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct AnalysisResponse {
    /// The request's display name, echoed back (omitted from rendered
    /// output when absent).
    pub name: Option<String>,
    /// The client analysis that ran.
    pub client: Client,
    /// How the request ended.
    pub outcome: JobOutcome,
    /// The analysis result; `None` exactly when no analysis ran
    /// (panicked / error responses). A timed-out request carries the
    /// normalized bare ⊤.
    pub result: Option<AnalysisResult>,
    /// Wall-clock nanoseconds, summed over retries (0 for panicked and
    /// error responses). **Not deterministic** — rendered only with
    /// `timing`.
    pub wall_nanos: u64,
    /// The batch worker a panicked batch request ran on (0 when the
    /// batch ran inline). Scheduling-dependent, hence **not
    /// deterministic** — rendered only with `timing`.
    pub panic_worker: Option<usize>,
}

/// Renders a verdict as its stable tag plus the optional ⊤-cause code.
fn verdict_tag(verdict: &Verdict) -> (&'static str, Option<&'static str>) {
    match verdict {
        Verdict::Top { reason } => (verdict.code(), Some(reason.code())),
        other => (other.code(), None),
    }
}

/// Compact `send->recv` topology listing (deterministic: the match set
/// is ordered).
fn topology_list(result: &AnalysisResult) -> Vec<String> {
    result
        .matches
        .iter()
        .map(|(s, r)| format!("{s}->{r}"))
        .collect()
}

/// Writes the topology as JSON strings (`"n1->n2","n3->n4"`) straight
/// into `out`. A node id renders as `n` and digits, so no pair needs
/// JSON escaping.
fn write_topology_json(out: &mut String, result: &AnalysisResult) {
    for (i, (s, r)) in result.matches.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{s}->{r}\"");
    }
}

impl AnalysisResponse {
    /// The canonical JSON record for this response — one line, stable
    /// key order, versioned. This is *the* wire format: `mpl analyze
    /// --json`, the corpus NDJSON and the daemon all emit exactly these
    /// bytes, which is what lets the result cache store rendered bodies.
    /// `timing` appends the nondeterministic fields and must stay off on
    /// cacheable paths.
    #[must_use]
    pub fn json_line(&self, timing: bool) -> String {
        // Room for the fixed fields and about 16 bytes per listed pair.
        let pairs = self.result.as_ref().map_or(0, |r| r.matches.len());
        let mut out = String::with_capacity(192 + 16 * pairs);
        let _ = write!(out, "{{\"v\":{PROTOCOL_VERSION},\"type\":\"program\"");
        if let Some(name) = &self.name {
            let _ = write!(out, ",\"name\":\"{}\"", json_escape(name));
        }
        let _ = write!(out, ",\"client\":\"{}\"", self.client.tag());
        match &self.result {
            Some(result) => {
                let (tag, reason) = verdict_tag(&result.verdict);
                let _ = write!(out, ",\"verdict\":\"{tag}\",\"reason\":");
                match reason {
                    Some(code) => {
                        let _ = write!(out, "\"{code}\"");
                    }
                    None => out.push_str("null"),
                }
            }
            None => out.push_str(",\"verdict\":null,\"reason\":null"),
        }
        let _ = write!(out, ",\"outcome\":\"{}\"", self.outcome.code());
        if let JobOutcome::Degraded { attempts } = self.outcome {
            let _ = write!(out, ",\"attempts\":{attempts}");
        }
        if let Some(detail) = self.outcome.detail() {
            let _ = write!(out, ",\"detail\":\"{}\"", json_escape(detail));
        }
        let (matches, leaks, steps) = self
            .result
            .as_ref()
            .map_or((0, 0, 0), |r| (r.matches.len(), r.leaks.len(), r.steps));
        let _ = write!(
            out,
            ",\"matches\":{matches},\"leaks\":{leaks},\"steps\":{steps},\"topology\":["
        );
        if let Some(result) = &self.result {
            write_topology_json(&mut out, result);
        }
        out.push(']');
        if timing {
            let _ = write!(out, ",\"wall_nanos\":{}", self.wall_nanos);
            if let Some(worker) = self.panic_worker {
                let _ = write!(out, ",\"worker\":{worker}");
            }
        }
        out.push('}');
        out
    }

    /// The human-readable corpus line for this response (the
    /// `analyze-corpus` text format; unnamed responses render as
    /// `(unnamed)`).
    #[must_use]
    pub fn text_line(&self, timing: bool) -> String {
        let mut out = String::new();
        let _ = write!(out, "{}:", self.name.as_deref().unwrap_or("(unnamed)"));
        match &self.result {
            Some(result) => {
                let (tag, reason) = verdict_tag(&result.verdict);
                let _ = write!(out, " verdict={tag}");
                if let Some(code) = reason {
                    let _ = write!(out, " reason={code}");
                }
                if !matches!(self.outcome, JobOutcome::Completed) {
                    let _ = write!(out, " outcome={}", self.outcome.code());
                    if let JobOutcome::Degraded { attempts } = self.outcome {
                        let _ = write!(out, " attempts={attempts}");
                    }
                }
                let _ = write!(
                    out,
                    " matches={} leaks={} steps={}",
                    result.matches.len(),
                    result.leaks.len(),
                    result.steps
                );
                let topo = topology_list(result);
                if !topo.is_empty() {
                    let _ = write!(out, " topology={}", topo.join(","));
                }
            }
            None => {
                let _ = write!(out, " outcome={}", self.outcome.code());
                if let Some(detail) = self.outcome.detail() {
                    let _ = write!(out, " detail=\"{detail}\"");
                }
            }
        }
        if timing {
            let _ = write!(out, " wall_ms={:.3}", self.wall_nanos as f64 / 1e6);
            if let Some(worker) = self.panic_worker {
                let _ = write!(out, " worker={worker}");
            }
        }
        out
    }
}

/// Aggregated statistics over a whole batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BatchSummary {
    /// Total number of requests run (including panicked and error
    /// responses).
    pub programs: usize,
    /// Requests whose verdict was [`Verdict::Exact`].
    pub exact: usize,
    /// Requests whose verdict was [`Verdict::Deadlock`].
    pub deadlock: usize,
    /// Requests whose verdict was [`Verdict::Top`].
    pub top: usize,
    /// Requests that ended [`JobOutcome::Completed`].
    pub completed: usize,
    /// Requests that ended [`JobOutcome::Degraded`].
    pub degraded: usize,
    /// Requests that ended [`JobOutcome::TimedOut`].
    pub timed_out: usize,
    /// Requests that ended [`JobOutcome::Panicked`].
    pub panicked: usize,
    /// Requests that ended [`JobOutcome::Error`] (never ran at all).
    pub errors: usize,
    /// Total message leaks found across all requests.
    pub leaks: usize,
    /// Total send/recv matches established across all requests.
    pub matches: usize,
    /// Total engine steps across all requests.
    pub steps: u64,
    /// Sum of per-request wall times in nanoseconds (CPU work, not batch
    /// wall time). **Not deterministic.**
    pub wall_nanos: u64,
    /// Field-wise merge of every request's closure counters.
    pub closure: ClosureStats,
}

impl BatchSummary {
    /// Folds one response into the summary.
    fn absorb(&mut self, response: &AnalysisResponse) {
        self.programs += 1;
        match &response.outcome {
            JobOutcome::Completed => self.completed += 1,
            JobOutcome::Degraded { .. } => self.degraded += 1,
            JobOutcome::TimedOut => self.timed_out += 1,
            JobOutcome::Panicked { .. } => self.panicked += 1,
            JobOutcome::Error { .. } => self.errors += 1,
        }
        if let Some(result) = &response.result {
            match &result.verdict {
                Verdict::Exact => self.exact += 1,
                Verdict::Deadlock { .. } => self.deadlock += 1,
                Verdict::Top { .. } => self.top += 1,
            }
            self.leaks += result.leaks.len();
            self.matches += result.matches.len();
            self.steps += result.steps;
            self.closure.merge(&result.closure_stats);
        }
        self.wall_nanos += response.wall_nanos;
    }

    /// Requests that did not produce a finished analysis: timed out,
    /// panicked, or failed to build.
    #[must_use]
    pub fn failures(&self) -> usize {
        self.timed_out + self.panicked + self.errors
    }
}

/// The versioned JSON summary record for a batch (the last line of the
/// corpus NDJSON output).
#[must_use]
pub fn summary_json_line(summary: &BatchSummary, workers: usize, timing: bool) -> String {
    let s = summary;
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"v\":{PROTOCOL_VERSION},\"type\":\"summary\",\"programs\":{},\"exact\":{},\
         \"deadlock\":{},\"top\":{},\"completed\":{},\"degraded\":{},\"timed_out\":{},\
         \"panicked\":{},\"errors\":{},\"matches\":{},\"leaks\":{},\"steps\":{},\
         \"full_closures\":{},\"incremental_closures\":{}",
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
        s.closure.full_closures,
        s.closure.incremental_closures
    );
    if timing {
        let _ = write!(
            out,
            ",\"cpu_nanos\":{},\"workers\":{}",
            s.wall_nanos, workers
        );
    }
    out.push('}');
    out
}

/// An ordered batch of requests run across worker threads: one
/// [`AnalysisResponse`] per queued request, in submission order. Each
/// request runs through [`AnalysisRequest::execute`], under its own
/// deadline, retries and fault, so a response is the same bytes in a
/// batch of any width as on its own.
///
/// ```
/// use mpl_core::{AnalysisRequest, RequestBatch};
/// use mpl_lang::corpus;
///
/// let mut batch = RequestBatch::new().workers(4);
/// for prog in corpus::all() {
///     let request = AnalysisRequest::builder().name(prog.name).program(prog.program);
///     batch.push(request.build().expect("valid request"));
/// }
/// let done = batch.run();
/// assert_eq!(done.summary.programs, corpus::all().len());
/// assert_eq!(done.summary.completed, corpus::all().len());
/// ```
#[derive(Debug, Default)]
pub struct RequestBatch {
    /// Submission order: a request to run, or the response of one that
    /// failed before it could be built.
    queue: Vec<Result<AnalysisRequest, AnalysisResponse>>,
    workers: usize,
}

impl RequestBatch {
    /// An empty batch that runs on one worker.
    #[must_use]
    pub fn new() -> RequestBatch {
        RequestBatch::default()
    }

    /// Sets the worker count (clamped to at least 1).
    #[must_use]
    pub fn workers(mut self, workers: usize) -> RequestBatch {
        self.workers = workers;
        self
    }

    /// Appends a request.
    pub fn push(&mut self, request: AnalysisRequest) {
        self.queue.push(Ok(request));
    }

    /// Appends a pre-failed record (a request that could not even be
    /// built — unparseable source, bad knobs); it flows through in its
    /// submission slot as a [`JobOutcome::Error`] response rendered
    /// under `client`.
    pub fn push_error(
        &mut self,
        name: impl Into<String>,
        message: impl Into<String>,
        client: Client,
    ) {
        self.queue.push(Err(AnalysisResponse {
            name: Some(name.into()).filter(|name| !name.is_empty()),
            client,
            outcome: JobOutcome::Error {
                message: message.into(),
            },
            result: None,
            wall_nanos: 0,
            panic_worker: None,
        }));
    }

    /// Number of queued requests (including pre-failed records).
    #[must_use]
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// True if no requests are queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Runs every request on `min(workers, requests)` scoped threads,
    /// or inline on the caller's thread when that is one. Deterministic
    /// apart from the timing fields, for any worker count. No panic
    /// escapes this call: a panicking request becomes its own
    /// [`JobOutcome::Panicked`] response, stamped with the worker that
    /// ran it.
    ///
    /// The threads share one claim counter and take requests last
    /// submitted first: callers that list their heavy programs last
    /// start those first, so light requests fill in behind them instead
    /// of a heavy one finishing alone. Each response lands in its
    /// submission slot, so the order of `responses` never depends on the
    /// schedule.
    #[must_use]
    pub fn run(self) -> BatchResponse {
        let workers = self.workers.max(1);
        let queue = &self.queue;
        let slots: Vec<OnceLock<AnalysisResponse>> =
            queue.iter().map(|_| OnceLock::new()).collect();
        let claimed = AtomicUsize::new(0);
        let work = |worker: usize| {
            // Claim `c` takes slot `len - 1 - c`: last submitted first.
            // `Relaxed` suffices: the counter only hands out indices; the
            // responses are published by their `OnceLock` and the join.
            while let Some(i) = queue
                .len()
                .checked_sub(claimed.fetch_add(1, Ordering::Relaxed) + 1)
            {
                if let Ok(request) = &queue[i] {
                    let mut response = request.execute();
                    if matches!(response.outcome, JobOutcome::Panicked { .. }) {
                        response.panic_worker = Some(worker);
                    }
                    let _ = slots[i].set(response);
                }
            }
        };
        let threads = workers.min(queue.iter().filter(|entry| entry.is_ok()).count());
        if threads <= 1 {
            work(0);
        } else {
            let work = &work;
            std::thread::scope(|scope| {
                for worker in 0..threads {
                    scope.spawn(move || work(worker));
                }
            });
        }
        let responses: Vec<AnalysisResponse> = self
            .queue
            .into_iter()
            .zip(slots)
            .map(|(entry, slot)| match entry {
                Ok(_) => slot.into_inner().expect("every request answered once"),
                Err(failed) => failed,
            })
            .collect();
        let mut summary = BatchSummary::default();
        for response in &responses {
            summary.absorb(response);
        }
        BatchResponse {
            responses,
            summary,
            workers,
        }
    }
}

/// A completed [`RequestBatch`].
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct BatchResponse {
    /// One response per request, in submission order.
    pub responses: Vec<AnalysisResponse>,
    /// Aggregated statistics.
    pub summary: BatchSummary,
    /// Number of workers the batch ran with.
    pub workers: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpl_lang::corpus;

    fn simple() -> AnalysisConfig {
        AnalysisConfig {
            client: Client::Simple,
            ..AnalysisConfig::default()
        }
    }

    fn fig2_request() -> AnalysisRequest {
        AnalysisRequest::builder()
            .source(corpus::fig2_exchange().source)
            .config(simple())
            .build()
            .expect("valid request")
    }

    #[test]
    fn builder_validates_inputs() {
        assert_eq!(
            AnalysisRequest::builder().build().unwrap_err(),
            RequestError::MissingProgram
        );
        assert!(matches!(
            AnalysisRequest::builder().source("x := ;").build(),
            Err(RequestError::Parse { .. })
        ));
        assert!(matches!(
            AnalysisRequest::builder()
                .source("x := 1;")
                .client_tag("quantum")
                .build(),
            Err(RequestError::UnknownClient { tag }) if tag == "quantum"
        ));
        assert!(matches!(
            AnalysisRequest::builder()
                .source("x := 1;")
                .config(AnalysisConfig {
                    max_steps: 0,
                    ..AnalysisConfig::default()
                })
                .build(),
            Err(RequestError::Config(ConfigError::ZeroStepBudget))
        ));
    }

    #[test]
    fn fingerprint_ignores_formatting_but_not_config() {
        let a = AnalysisRequest::builder()
            .source("x := 1;\nsend x -> 0;")
            .build()
            .unwrap();
        let b = AnalysisRequest::builder()
            .source("x := 1;   send x -> 0;")
            .build()
            .unwrap();
        assert_eq!(a.normalized_program(), b.normalized_program());
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.cache_check(), b.cache_check());

        let c = AnalysisRequest::builder()
            .source("x := 1;\nsend x -> 0;")
            .config(AnalysisConfig {
                min_np: 9,
                ..AnalysisConfig::default()
            })
            .build()
            .unwrap();
        assert_ne!(a.fingerprint(), c.fingerprint());
        let named = AnalysisRequest::builder()
            .source("x := 1;\nsend x -> 0;")
            .name("n")
            .build()
            .unwrap();
        assert_ne!(a.fingerprint(), named.fingerprint());
        // The service hashes the check string it already rendered.
        for request in [&a, &c, &named] {
            assert_eq!(
                AnalysisRequest::check_fingerprint(&request.cache_check()),
                request.fingerprint()
            );
        }
    }

    #[test]
    fn execute_matches_batch_rendering() {
        // Every request renders the same bytes through the single-shot
        // path and through a batch of any width (the cache/daemon
        // invariant), whatever its fault or retry policy.
        let fig2 = || {
            AnalysisRequest::builder()
                .source(corpus::fig2_exchange().source)
                .config(simple())
        };
        let cases = [
            fig2(),
            fig2().fault(Fault::Panic),
            fig2().fault(Fault::Spin).timeout(Duration::from_millis(50)),
            fig2().fault(Fault::TopOnce).retries(1),
            AnalysisRequest::builder()
                .program(corpus::nearest_neighbor_shift().program)
                .config(AnalysisConfig {
                    max_psets: 1,
                    ..AnalysisConfig::default()
                })
                .retries(2),
        ]
        .map(|builder| builder.build().expect("valid request"));
        let solo: Vec<String> = cases.iter().map(|r| r.execute().json_line(false)).collect();
        for workers in [1, 4] {
            let mut batch = RequestBatch::new().workers(workers);
            for request in &cases {
                batch.push(request.clone());
            }
            batch.push_error("broken", "parse error", Client::Simple);
            let fleet: Vec<String> = batch
                .run()
                .responses
                .iter()
                .map(|r| r.json_line(false))
                .collect();
            assert_eq!(solo, fleet[..cases.len()], "at {workers} workers");
            assert_eq!(
                fleet[cases.len()],
                "{\"v\":1,\"type\":\"program\",\"name\":\"broken\",\"client\":\"simple\",\
                 \"verdict\":null,\"reason\":null,\"outcome\":\"error\",\
                 \"detail\":\"parse error\",\"matches\":0,\"leaks\":0,\"steps\":0,\
                 \"topology\":[]}"
            );
        }
        let outcomes = [
            "completed",
            "panicked",
            "timed-out",
            "degraded\",\"attempts\":2",
            "completed",
        ];
        for (line, outcome) in solo.iter().zip(outcomes) {
            assert!(line.starts_with("{\"v\":1,\"type\":\"program\","), "{line}");
            assert!(!line.contains("\"name\""), "anonymous request: {line}");
            assert!(line.contains(&format!("\"outcome\":\"{outcome}")), "{line}");
        }
        assert!(solo[0].contains("\"verdict\":\"exact\""), "{}", solo[0]);
    }

    #[test]
    fn named_request_renders_name_field() {
        let request = AnalysisRequest::builder()
            .source(corpus::fig2_exchange().source)
            .config(simple())
            .name("fig2")
            .build()
            .unwrap();
        let line = request.execute().json_line(false);
        assert!(line.contains("\"name\":\"fig2\""), "{line}");
        // An empty name is no name: it renders like the anonymous
        // request whose cache identity it shares.
        let empty = AnalysisRequest::builder()
            .source(corpus::fig2_exchange().source)
            .config(simple())
            .name("")
            .build()
            .unwrap();
        let anonymous = fig2_request();
        assert_eq!(empty.cache_check(), anonymous.cache_check());
        assert_eq!(
            empty.execute().json_line(false),
            anonymous.execute().json_line(false)
        );
    }

    #[test]
    fn execute_isolates_panics() {
        let request = AnalysisRequest::builder()
            .source("// mpl:fault=panic\nx := 1;")
            .honor_fault_directive(true)
            .build()
            .unwrap();
        assert_eq!(request.fault, Some(Fault::Panic));
        let response = request.execute();
        assert!(matches!(response.outcome, JobOutcome::Panicked { .. }));
        let line = response.json_line(false);
        assert!(line.contains("\"outcome\":\"panicked\""), "{line}");
        assert!(line.contains("\"verdict\":null"), "{line}");
        assert!(line.contains("\"detail\":\"injected fault"), "{line}");
        // A panic has no wall time, and a request run alone no worker.
        assert_eq!((response.wall_nanos, response.panic_worker), (0, None));
        assert!(response.text_line(true).ends_with(" wall_ms=0.000"));
    }

    #[test]
    fn panic_message_formats_string_and_str_payloads() {
        let caught = |f: fn()| panic_message(catch_unwind(f).unwrap_err().as_ref());
        assert_eq!(
            caught(|| panic!("static str payload")),
            "static str payload"
        );
        assert_eq!(
            caught(|| panic!("formatted {} payload", 1)),
            "formatted 1 payload"
        );
        assert_eq!(
            caught(|| std::panic::panic_any(7_u8)),
            "non-string panic payload"
        );
    }

    #[test]
    fn fault_directive_requires_opt_in() {
        let request = AnalysisRequest::builder()
            .source("// mpl:fault=panic\nx := 1;")
            .build()
            .unwrap();
        assert_eq!(request.fault, None);
    }

    #[test]
    fn timeout_is_honored() {
        let request = AnalysisRequest::builder()
            .source("// mpl:fault=spin\nx := 1;")
            .honor_fault_directive(true)
            .timeout(Duration::from_millis(50))
            .build()
            .unwrap();
        let response = request.execute();
        assert_eq!(response.outcome, JobOutcome::TimedOut);
        let line = response.json_line(false);
        assert!(
            line.contains("\"verdict\":\"top\",\"reason\":\"deadline\""),
            "{line}"
        );
    }

    #[test]
    fn summary_line_is_versioned() {
        let mut batch = RequestBatch::new().workers(0);
        batch.push(fig2_request());
        let done = batch.run();
        assert_eq!(done.workers, 1, "zero workers clamps to one");
        let line = summary_json_line(&done.summary, done.workers, false);
        assert!(line.starts_with("{\"v\":1,\"type\":\"summary\","), "{line}");
        assert!(!line.contains("cpu_nanos"), "{line}");
        let timed = summary_json_line(&done.summary, done.workers, true);
        assert!(timed.contains("\"workers\":1"), "{timed}");
    }

    /// A named request for `program` under the default configuration.
    fn named(name: &str, program: Program) -> AnalysisRequestBuilder {
        AnalysisRequest::builder().name(name).program(program)
    }

    /// Runs `request` as a one-request batch.
    fn run_alone(request: AnalysisRequestBuilder) -> AnalysisResponse {
        let mut batch = RequestBatch::new();
        batch.push(request.build().unwrap());
        batch.run().responses.remove(0)
    }

    fn corpus_batch(workers: usize) -> BatchResponse {
        let mut batch = RequestBatch::new().workers(workers);
        for prog in corpus::all() {
            batch.push(named(prog.name, prog.program).build().unwrap());
        }
        batch.run()
    }

    fn names(done: &BatchResponse) -> Vec<&str> {
        done.responses
            .iter()
            .map(|r| r.name.as_deref().unwrap_or(""))
            .collect()
    }

    /// Strips the non-deterministic fields for comparison.
    fn fingerprint(done: &BatchResponse) -> Vec<String> {
        done.responses
            .iter()
            .map(|r| match &r.result {
                Some(res) => format!(
                    "{:?} [{}] {:?} matches={:?} leaks={:?} steps={} closure=({},{},{},{})",
                    r.name,
                    r.outcome.code(),
                    res.verdict,
                    res.matches,
                    res.leaks,
                    res.steps,
                    res.closure_stats.full_closures,
                    res.closure_stats.full_closure_vars,
                    res.closure_stats.incremental_closures,
                    res.closure_stats.incremental_closure_vars,
                ),
                None => format!("{:?} [{}] {:?}", r.name, r.outcome.code(), r.outcome),
            })
            .collect()
    }

    #[test]
    fn records_preserve_submission_order() {
        let expected: Vec<&str> = corpus::all().iter().map(|p| p.name).collect();
        assert_eq!(names(&corpus_batch(4)), expected);
    }

    #[test]
    fn summary_counts_are_consistent() {
        let done = corpus_batch(3);
        let s = done.summary;
        let results = || done.responses.iter().filter_map(|r| r.result.as_ref());
        assert_eq!(s.programs, corpus::all().len());
        assert_eq!(s.programs, s.exact + s.deadlock + s.top);
        assert_eq!(s.programs, s.completed, "fault-free corpus completes");
        assert_eq!(s.failures(), 0);
        assert_eq!(
            s.matches,
            results().map(|res| res.matches.len()).sum::<usize>()
        );
        assert_eq!(s.steps, results().map(|res| res.steps).sum::<u64>());
        assert!(s.exact > 0, "corpus should contain exact programs");
        assert!(s.closure.full_closures > 0 || s.closure.incremental_closures > 0);
    }

    #[test]
    fn empty_batch_yields_empty_report() {
        let done = RequestBatch::new().workers(8).run();
        assert!(done.responses.is_empty());
        assert_eq!(done.summary, BatchSummary::default());
        assert_eq!(done.workers, 8);
    }

    #[test]
    fn panicking_job_is_isolated_and_named() {
        let good = corpus::fig2_exchange().program;
        // 64 workers over three requests start only three threads.
        for workers in [1usize, 4, 64] {
            let mut batch = RequestBatch::new().workers(workers);
            batch.push(named("before", good.clone()).build().unwrap());
            let poison = named("poison", good.clone()).fault(Fault::Panic);
            batch.push(poison.build().unwrap());
            batch.push(named("after", good.clone()).build().unwrap());
            let done = batch.run();
            assert_eq!(names(&done), ["before", "poison", "after"]);
            let poison = &done.responses[1];
            assert!(matches!(poison.outcome, JobOutcome::Panicked { .. }));
            assert!(
                poison.outcome.detail().unwrap().contains("injected fault"),
                "{:?}",
                poison.outcome
            );
            assert!(poison.result.is_none());
            assert_eq!(poison.wall_nanos, 0);
            // Below the thread count, so `Some(0)` when the batch ran inline.
            let worker = poison.panic_worker.expect("the batch names the worker");
            assert!(
                worker < workers.min(3),
                "worker {worker} at {workers} workers"
            );
            assert!(done.responses[0].outcome.is_ok());
            assert!(done.responses[2].outcome.is_ok());
            assert_eq!(done.summary.panicked, 1);
            assert_eq!(done.summary.completed, 2);
        }
        // A batch in which every request panics still answers each one.
        let mut batch = RequestBatch::new().workers(4);
        for name in ["a", "b", "c"] {
            batch.push(
                named(name, good.clone())
                    .fault(Fault::Panic)
                    .build()
                    .unwrap(),
            );
        }
        assert_eq!(batch.run().summary.panicked, 3);
    }

    #[test]
    fn spin_without_timeout_panics_deterministically() {
        let spinner = named("spinner", corpus::fig2_exchange().program).fault(Fault::Spin);
        let response = run_alone(spinner);
        assert!(matches!(response.outcome, JobOutcome::Panicked { .. }));
        assert!(response
            .outcome
            .detail()
            .unwrap()
            .contains("no timeout is configured"));
    }

    #[test]
    fn top_once_fault_degrades_with_retry_and_completes_without() {
        let flaky = named("flaky", corpus::fig2_exchange().program).fault(Fault::TopOnce);
        // Without retries: the injected budget-⊤ is the final answer.
        let response = run_alone(flaky.clone());
        assert_eq!(response.outcome, JobOutcome::Completed);
        assert!(matches!(
            response.result.unwrap().verdict,
            Verdict::Top {
                reason: TopReason::StepBudget
            }
        ));
        // With one retry: attempt 2 analyzes for real and recovers.
        let mut batch = RequestBatch::new();
        batch.push(flaky.retries(1).build().unwrap());
        let done = batch.run();
        assert_eq!(
            done.responses[0].outcome,
            JobOutcome::Degraded { attempts: 2 }
        );
        let result = done.responses[0].result.as_ref().unwrap();
        assert!(result.is_exact(), "{:?}", result.verdict);
        assert_eq!(done.summary.degraded, 1);
    }

    #[test]
    fn retry_ladder_is_deterministic_across_worker_counts() {
        let build = |workers: usize| {
            let mut batch = RequestBatch::new().workers(workers);
            for prog in corpus::all() {
                batch.push(named(prog.name, prog.program).retries(2).build().unwrap());
            }
            let flaky = named("flaky", corpus::fig2_exchange().program)
                .fault(Fault::TopOnce)
                .retries(2);
            batch.push(flaky.build().unwrap());
            batch.run()
        };
        let seq = fingerprint(&build(1));
        for workers in [4, 8] {
            assert_eq!(seq, fingerprint(&build(workers)), "diverged at {workers}");
        }
    }

    #[test]
    fn exhausted_retries_report_the_requested_config_answer() {
        // A pset-budget ⊤ that no coarsening fixes: the response must
        // carry the attempt-1 result (budget ⊤ under max_psets=1),
        // outcome Completed, not Degraded.
        let cramped = named("cramped", corpus::nearest_neighbor_shift().program)
            .config(AnalysisConfig {
                max_psets: 1,
                ..AnalysisConfig::default()
            })
            .retries(2);
        let response = run_alone(cramped);
        assert_eq!(response.outcome, JobOutcome::Completed);
        assert!(matches!(
            response.result.unwrap().verdict,
            Verdict::Top {
                reason: TopReason::PsetBudget { max: 1 }
            }
        ));
    }

    #[test]
    fn retries_never_raise_a_small_step_budget() {
        // Attempt 1 exhausts its 5 steps; the retry runs under the same
        // budget (the ladder never raises it), so it ⊤s too and the
        // response is the attempt-1 ⊤, completed.
        let source = "if id = 0 then\n  x := 5;\n  send x -> 1;\nelse\n  \
                      if id = 1 then\n    recv y <- 0;\n    print y;\n  end\nend\n";
        let tight = AnalysisConfig {
            max_steps: 5,
            ..AnalysisConfig::default()
        };
        let alone = AnalysisRequest::builder()
            .source(source)
            .config(tight.clone())
            .build()
            .unwrap()
            .execute();
        let retried = AnalysisRequest::builder()
            .source(source)
            .config(tight)
            .retries(1)
            .build()
            .unwrap()
            .execute();
        assert_eq!(retried.outcome, JobOutcome::Completed);
        let result = retried.result.as_ref().unwrap();
        assert!(matches!(
            result.verdict,
            Verdict::Top {
                reason: TopReason::StepBudget
            }
        ));
        assert_eq!(result.steps, alone.result.as_ref().unwrap().steps);
        assert_eq!(retried.json_line(false), alone.json_line(false));
    }

    #[test]
    fn error_records_flow_through_in_order() {
        let good = corpus::fig2_exchange().program;
        let mut batch = RequestBatch::new().workers(4);
        batch.push(named("first", good.clone()).build().unwrap());
        batch.push_error(
            "broken",
            "parse error at line 3: expected expression",
            Client::Cartesian,
        );
        batch.push(named("last", good).build().unwrap());
        assert_eq!(batch.len(), 3);
        let done = batch.run();
        assert_eq!(names(&done), ["first", "broken", "last"]);
        assert!(matches!(
            done.responses[1].outcome,
            JobOutcome::Error { .. }
        ));
        assert!(done.responses[1].result.is_none());
        assert_eq!(done.summary.errors, 1);
        assert_eq!(done.summary.programs, 3);
        assert_eq!(done.summary.failures(), 1);

        // A batch of nothing but error records runs no request at all.
        let mut batch = RequestBatch::new().workers(4);
        batch.push_error("a", "parse error", Client::Simple);
        batch.push_error("b", "parse error", Client::Simple);
        let done = batch.run();
        assert_eq!(names(&done), ["a", "b"]);
        assert_eq!((done.summary.errors, done.summary.programs), (2, 2));
    }

    #[test]
    fn fault_directives_parse_from_source_comments() {
        assert_eq!(
            Fault::from_directive("x := 1;\n// mpl:fault=panic\n"),
            Some(Fault::Panic)
        );
        assert_eq!(
            Fault::from_directive("  // mpl:fault=spin\nx := 1;\n"),
            Some(Fault::Spin)
        );
        assert_eq!(
            Fault::from_directive("// mpl:fault=top-once\n"),
            Some(Fault::TopOnce)
        );
        assert_eq!(Fault::from_directive("// mpl:fault=unknown\n"), None);
        assert_eq!(Fault::from_directive("x := 1;\n"), None);
    }

    #[test]
    fn cache_check_pins_fault_tags() {
        // Cache journals key their entries by these exact fragments;
        // renaming one would turn every journaled entry into a miss.
        for (fault, fragment) in [
            (None, ";fault=none\n"),
            (Some(Fault::Panic), ";fault=panic\n"),
            (Some(Fault::Spin), ";fault=spin\n"),
            (Some(Fault::TopOnce), ";fault=top-once\n"),
        ] {
            let mut builder = AnalysisRequest::builder().source("x := 1;");
            if let Some(fault) = fault {
                builder = builder.fault(fault);
            }
            let check = builder.build().unwrap().cache_check();
            assert!(check.contains(fragment), "{fault:?}: {check}");
        }
    }

    #[test]
    fn cache_check_pins_the_engine_revision() {
        // Journals written before the fragment existed, or under another
        // revision, must miss: their bodies may carry stale bytes.
        let check = AnalysisRequest::builder()
            .source("x := 1;")
            .build()
            .unwrap()
            .cache_check();
        assert!(check.contains(";engine=6;"), "{check}");
    }

    #[test]
    fn degradation_ladder_is_monotone_and_saturating() {
        let base = AnalysisConfig::default();
        let a1 = degrade(&base, 1);
        assert_eq!(a1.widen_delay, base.widen_delay);
        assert_eq!(a1.max_steps, base.max_steps);
        let a2 = degrade(&base, 2);
        assert!(a2.widen_delay <= a1.widen_delay);
        assert!(a2.widen_thresholds.len() <= a1.widen_thresholds.len());
        assert!(a2.max_steps <= a1.max_steps);
        // Deep attempts saturate instead of overflowing.
        let deep = degrade(&base, 40);
        assert_eq!(deep.widen_delay, 0);
        assert!(deep.widen_thresholds.is_empty());
        assert_eq!(deep.max_steps, 1_000);
        // The last attempt the ladder makes, and no earlier one, already
        // runs the deepest configuration: capping attempts there drops
        // only identical reruns.
        let slow = AnalysisConfig {
            widen_delay: u32::MAX,
            ..base
        };
        let last = degrade(&slow, MAX_LEVEL + 1);
        assert_eq!(last.widen_delay, degrade(&slow, u32::MAX).widen_delay);
        assert_ne!(last.widen_delay, degrade(&slow, MAX_LEVEL).widen_delay);
        // A budget below the 1 000-step floor is never raised on retry.
        for requested in [1, 5, 999, 1_000, 4_000] {
            let small = AnalysisConfig {
                max_steps: requested,
                ..AnalysisConfig::default()
            };
            let mut previous = requested;
            for attempt in 1..=MAX_LEVEL + 2 {
                let steps = degrade(&small, attempt).max_steps;
                assert!(steps <= previous, "{requested}: attempt {attempt}");
                assert!(steps >= requested.min(1_000));
                previous = steps;
            }
        }
    }

    #[test]
    fn outcome_codes_are_stable_kebab_case() {
        assert_eq!(JobOutcome::Completed.code(), "completed");
        assert_eq!(JobOutcome::Degraded { attempts: 2 }.code(), "degraded");
        assert_eq!(JobOutcome::TimedOut.code(), "timed-out");
        let panicked = JobOutcome::Panicked {
            message: "boom".to_owned(),
        };
        assert_eq!(panicked.code(), "panicked");
        assert_eq!(panicked.to_string(), "panicked: boom");
        let error = JobOutcome::Error {
            message: "bad file".to_owned(),
        };
        assert_eq!(error.code(), "error");
        assert!(!error.is_ok());
        assert!(JobOutcome::Completed.is_ok());
    }
}
