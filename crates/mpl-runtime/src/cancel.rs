//! Cooperative cancellation: a shared flag plus an optional deadline.
//!
//! A [`CancelToken`] is the answer to analyses that never finish on
//! their own: a request hands one to each of its attempts, and
//! long-running loops (the engine worklist, injected fault spins) poll
//! it at a bounded interval. Cancellation is *cooperative* — nothing is
//! killed; the observer is expected to stop with a sound "gave up"
//! answer (the analysis returns ⊤, never a partial verdict).
//!
//! The hot-path check is one relaxed-ish atomic load; the deadline clock
//! is consulted only until it first expires, after which the expiry is
//! latched into the flag and later checks are pure atomic reads.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A cloneable cancellation handle shared between a controller (who may
/// call [`CancelToken::cancel`]) and any number of observers (who poll
/// [`CancelToken::is_cancelled`]). Tokens may also carry a deadline set
/// at construction: once the deadline passes, the token behaves exactly
/// as if `cancel()` had been called.
#[derive(Debug, Clone)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

#[derive(Debug)]
struct Inner {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A token with no deadline; it only cancels when told to.
    #[must_use]
    pub fn new() -> CancelToken {
        CancelToken {
            inner: Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                deadline: None,
            }),
        }
    }

    /// A token that auto-cancels `timeout` from now.
    #[must_use]
    pub fn with_deadline(timeout: Duration) -> CancelToken {
        CancelToken {
            inner: Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                deadline: Instant::now().checked_add(timeout),
            }),
        }
    }

    /// Requests cancellation. Idempotent; observers see it on their next
    /// poll.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Release);
    }

    /// True once the token has been cancelled or its deadline has
    /// passed. Expiry is latched, so after the first `true` the check is
    /// a single atomic load.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        if self.inner.cancelled.load(Ordering::Acquire) {
            return true;
        }
        match self.inner.deadline {
            Some(deadline) if Instant::now() >= deadline => {
                self.inner.cancelled.store(true, Ordering::Release);
                true
            }
            _ => false,
        }
    }

    /// The instant this token auto-cancels, if it has a deadline.
    #[must_use]
    pub fn deadline(&self) -> Option<Instant> {
        self.inner.deadline
    }
}

impl Default for CancelToken {
    fn default() -> CancelToken {
        CancelToken::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_token_is_not_cancelled() {
        let token = CancelToken::new();
        assert!(!token.is_cancelled());
        assert!(token.deadline().is_none());
    }

    #[test]
    fn cancel_is_visible_to_clones() {
        let token = CancelToken::new();
        let observer = token.clone();
        token.cancel();
        assert!(observer.is_cancelled());
    }

    #[test]
    fn deadline_expires_and_latches() {
        let token = CancelToken::with_deadline(Duration::from_millis(1));
        std::thread::sleep(Duration::from_millis(5));
        assert!(token.is_cancelled());
        // Latched: still cancelled on every later poll.
        assert!(token.is_cancelled());
    }

    #[test]
    fn long_deadline_does_not_fire_early() {
        let token = CancelToken::with_deadline(Duration::from_secs(3600));
        assert!(!token.is_cancelled());
        token.cancel();
        assert!(token.is_cancelled());
    }

    #[test]
    fn cancellation_crosses_threads() {
        let token = CancelToken::new();
        let observer = token.clone();
        let waiter = std::thread::spawn(move || {
            while !observer.is_cancelled() {
                std::thread::yield_now();
            }
            true
        });
        token.cancel();
        assert!(waiter.join().unwrap());
    }
}
