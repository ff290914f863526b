//! # mpl-runtime — cancellation and admission primitives
//!
//! Two small, zero-external-dependency building blocks for running
//! analyses that may not finish on their own and for serving more
//! requests than the machine can absorb:
//!
//! * **Cooperative cancellation.** A [`CancelToken`] is a shared flag
//!   plus an optional deadline. Long-running loops (the engine worklist,
//!   injected fault spins) poll it at a bounded interval and stop with a
//!   sound "gave up" answer once it fires; nothing is killed.
//! * **Admission control.** An [`AdmissionGate`] bounds the number of
//!   analyses in flight and rejects the next one outright instead of
//!   queueing it; its RAII [`Permit`] releases the slot however the work
//!   ends, panics included. [`ClientQuotas`] adds a deterministic
//!   per-client token bucket ([`QuotaPolicy`]) in front of the gate.
//!
//! ```
//! use mpl_runtime::{AdmissionGate, CancelToken};
//! use std::time::Duration;
//!
//! let gate = AdmissionGate::new(1);
//! let permit = gate.try_admit().expect("one slot is free");
//! assert!(gate.try_admit().is_none(), "full: reject, never queue");
//! drop(permit);
//! assert!(gate.try_admit().is_some());
//!
//! let token = CancelToken::with_deadline(Duration::ZERO);
//! assert!(token.is_cancelled(), "an expired deadline reads as cancelled");
//! ```

pub mod cancel;
pub mod gate;

pub use cancel::CancelToken;
pub use gate::{AdmissionGate, ClientQuotas, Permit, QuotaPolicy};
