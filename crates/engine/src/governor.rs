//! Resource governance: budgets and cooperative cancellation.
//!
//! The fixpoint loop used to have exactly one guard against runaway
//! evaluation — the iteration cap. This module adds the rest of the
//! degrade-don't-die discipline the ROADMAP's production north star
//! needs: a [`Budget`] bundling a wall-clock deadline, an IDB row cap
//! and a resident-byte cap (estimated from [`Relation`] flat storage)
//! next to the iteration cap, and a [`CancelToken`] that lets another
//! thread interrupt an evaluation.
//!
//! Enforcement has two tiers. *Round-boundary* checks (rows, bytes,
//! iterations) run between rounds, where the committed relation state
//! is authoritative. *Cooperative* checks (deadline, cancellation) also
//! run inside long scan loops — every [`POLL_MASK`]+1 rows — through
//! the [`Governor`], so a deadline interrupts a round in flight instead
//! of waiting for it to finish. When a cooperative check trips, the
//! running task bails out and the evaluator discards the round's
//! partial derivations (nothing is committed on the error path),
//! leaving every relation exactly as the last completed round left it.
//!
//! [`Relation`]: crate::relation::Relation

use crate::error::EngineError;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Cooperative checks poll the clock when `rows & POLL_MASK == 0`: every
/// 1024 rows, a few tens of nanoseconds of check per ~100µs of row work.
pub(crate) const POLL_MASK: u64 = 0x3FF;

/// Resource limits for one evaluation. All limits default to unlimited;
/// combine with the builder methods.
///
/// ```
/// use semrec_engine::Budget;
/// use std::time::Duration;
/// let b = Budget::unlimited()
///     .with_deadline(Duration::from_millis(250))
///     .with_max_idb_rows(1_000_000);
/// assert_eq!((b.max_idb_rows, b.max_iterations), (Some(1_000_000), None));
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Budget {
    /// Wall-clock budget for the whole evaluation, measured from the
    /// first round.
    pub deadline: Option<Duration>,
    /// Cap on total materialized IDB rows across all predicates.
    pub max_idb_rows: Option<u64>,
    /// Cap on estimated resident bytes of the IDB relations (flat
    /// storage + dedup structures; see `Relation::estimated_bytes`).
    pub max_resident_bytes: Option<u64>,
    /// Cap on fixpoint rounds (the pre-existing iteration limit).
    pub max_iterations: Option<u64>,
}

impl Budget {
    /// A budget with every limit disabled.
    pub fn unlimited() -> Budget {
        Budget::default()
    }

    /// Sets the wall-clock deadline.
    pub fn with_deadline(mut self, d: Duration) -> Budget {
        self.deadline = Some(d);
        self
    }

    /// Sets the IDB row cap.
    pub fn with_max_idb_rows(mut self, n: u64) -> Budget {
        self.max_idb_rows = Some(n);
        self
    }

    /// Sets the resident-byte cap.
    pub fn with_max_resident_bytes(mut self, n: u64) -> Budget {
        self.max_resident_bytes = Some(n);
        self
    }

    /// Sets the iteration cap.
    pub fn with_max_iterations(mut self, n: u64) -> Budget {
        self.max_iterations = Some(n);
        self
    }
}

/// A shared cancellation flag. Clone the token, hand the clone to the
/// evaluating thread, and call [`CancelToken::cancel`] from anywhere;
/// the evaluation returns [`EngineError::Cancelled`] at its next
/// cooperative check.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Requests cancellation. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// True once [`CancelToken::cancel`] has been called.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// The run-time arm of a [`Budget`]: anchors the deadline to the start
/// of evaluation and provides the sticky trip state that cooperative
/// checks read. All interior mutability: the evaluator polls it through
/// `&self`, and the cancel flag may be set from another thread.
#[derive(Debug)]
pub(crate) struct Governor {
    cancel: CancelToken,
    started: Instant,
    deadline: Option<Instant>,
    /// Sticky fast-path flag: set exactly when `reason` is populated.
    tripped: AtomicBool,
    reason: Mutex<Option<EngineError>>,
}

impl Governor {
    /// Arms a governor for an evaluation starting now.
    pub(crate) fn new(budget: &Budget, cancel: CancelToken) -> Governor {
        let started = Instant::now();
        Governor {
            cancel,
            started,
            deadline: budget.deadline.map(|d| started + d),
            tripped: AtomicBool::new(false),
            reason: Mutex::new(None),
        }
    }

    /// Milliseconds since evaluation started.
    pub(crate) fn elapsed_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }

    /// The cooperative check: cancellation and deadline. Returns `true`
    /// if evaluation must abort; the caller should unwind to the round
    /// boundary without committing anything. Cheap enough for hot loops
    /// behind a row-count mask: one relaxed load when already tripped,
    /// one atomic load plus at most one `Instant::now` otherwise.
    pub(crate) fn should_abort(&self) -> bool {
        if self.tripped.load(Ordering::Relaxed) {
            return true;
        }
        if self.cancel.is_cancelled() {
            self.trip(EngineError::Cancelled);
            return true;
        }
        if let Some(dl) = self.deadline {
            if Instant::now() >= dl {
                self.trip(EngineError::DeadlineExceeded {
                    elapsed_ms: self.elapsed_ms(),
                });
                return true;
            }
        }
        false
    }

    /// Records a trip reason (first writer wins) and sets the sticky flag.
    pub(crate) fn trip(&self, err: EngineError) {
        let mut reason = self.reason.lock().unwrap_or_else(|e| e.into_inner());
        if reason.is_none() {
            *reason = Some(err);
        }
        self.tripped.store(true, Ordering::Release);
    }

    /// The trip reason, if any check has tripped.
    pub(crate) fn reason(&self) -> Option<EngineError> {
        if !self.tripped.load(Ordering::Acquire) {
            return None;
        }
        self.reason
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cancel_token_is_shared() {
        let a = CancelToken::new();
        let b = a.clone();
        assert!(!a.is_cancelled());
        b.cancel();
        assert!(a.is_cancelled());
        a.cancel(); // idempotent
        assert!(b.is_cancelled());
    }

    #[test]
    fn governor_trips_on_cancel_and_sticks() {
        let token = CancelToken::new();
        let gov = Governor::new(&Budget::unlimited(), token.clone());
        assert!(!gov.should_abort());
        assert!(gov.reason().is_none());
        token.cancel();
        assert!(gov.should_abort());
        assert_eq!(gov.reason(), Some(EngineError::Cancelled));
        // Sticky: still tripped, reason unchanged.
        assert!(gov.should_abort());
        assert_eq!(gov.reason(), Some(EngineError::Cancelled));
    }

    #[test]
    fn governor_trips_on_deadline() {
        let budget = Budget::unlimited().with_deadline(Duration::from_millis(0));
        let gov = Governor::new(&budget, CancelToken::new());
        std::thread::sleep(Duration::from_millis(2));
        assert!(gov.should_abort());
        assert!(matches!(
            gov.reason(),
            Some(EngineError::DeadlineExceeded { .. })
        ));
    }

    #[test]
    fn first_trip_reason_wins() {
        let gov = Governor::new(&Budget::unlimited(), CancelToken::new());
        gov.trip(EngineError::Cancelled);
        gov.trip(EngineError::DeadlineExceeded { elapsed_ms: 1 });
        assert_eq!(gov.reason(), Some(EngineError::Cancelled));
    }
}
