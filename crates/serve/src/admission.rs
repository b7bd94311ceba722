//! Admission control: a bounded in-flight gate with typed overload
//! shedding and a slow-reader watchdog.
//!
//! ## State machine
//!
//! A request is in exactly one of four states:
//!
//! ```text
//!            gate full
//!   arrive ────────────────────────────────────▶ REJECTED (Overloaded + retry-after)
//!     │
//!     │ slot acquired
//!     ▼
//!  ADMITTED ──── finishes ──▶ DONE (slot freed, latency folded into EWMA)
//!     │
//!     │ runs past the watchdog threshold
//!     ▼
//!  CANCELLED (cooperative: the reader observes its CancelToken and
//!             returns EpochReclaimed; the slot frees as usual)
//! ```
//!
//! Rejection happens **before** any work: an overloaded daemon sheds
//! load in O(1) per request instead of queueing unboundedly. The
//! retry-after hint is the EWMA of recently completed request
//! latencies — an estimate of when one slot frees.
//!
//! The watchdog exists for epoch reclamation, not fairness: a reader
//! pins its epoch's `Arc` for as long as it runs, so a stuck reader
//! would hold an arbitrarily old snapshot in memory forever. Cancelling
//! it (cooperatively, at the reader's next poll) bounds that window
//! without ever making the writer wait.
//!
//! ## Session pacing
//!
//! Fairness between sessions is [`SessionPace`]'s job. A network
//! session is a thread of its own, and since a reply leaves in one
//! write a client that asks again the moment it is answered keeps that
//! thread busy — three quarters of a core, measured — for as long as it
//! likes, beside the writer and every other session. So each network session holds a
//! token bucket over the requests that reach the engine (queries and
//! non-empty commits): [`SESSION_BURST`] requests at whatever speed the
//! machine gives, refilled at [`SESSION_RATE_PER_S`]. A session that
//! has spent its burst is not refused; the session loop just waits out
//! the rest of the slot before it reads the next request, which a
//! client only notices if it was saturating the link. What such a
//! client gets is then set by the clock and not by how busy the host
//! is — the one throughput the daemon can promise on any machine.
//! Commits have a rate of their own, [`SESSION_COMMITS_PER_S`], with no
//! burst: the single writer is the scarcer resource, and a commit is
//! acknowledged no sooner than one commit slot after the session's
//! previous one ([`SessionPace::hold_ack`]).

use crate::error::ServeError;
use semrec_engine::CancelToken;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Gate configuration.
#[derive(Clone, Copy, Debug)]
pub struct AdmissionConfig {
    /// Maximum concurrently admitted requests; the gate sheds beyond it.
    pub max_inflight: usize,
    /// Deadline applied to requests that do not carry their own.
    pub default_deadline: Option<Duration>,
    /// Cancel admitted requests still running after this long (the
    /// slow-reader watchdog); `None` disables it.
    pub watchdog_after: Option<Duration>,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            max_inflight: 64,
            default_deadline: None,
            watchdog_after: None,
        }
    }
}

struct ActiveEntry {
    cancel: CancelToken,
    started: Instant,
    reclaimed: Arc<AtomicBool>,
}

/// The admission gate. Shared (`Arc`) between connection handlers and
/// the watchdog.
pub struct Admission {
    cfg: AdmissionConfig,
    inflight: AtomicUsize,
    /// EWMA of completed-request latency, in microseconds (×1000 fixed
    /// point would be overkill; µs resolution is plenty for a hint).
    ewma_us: AtomicU64,
    admitted: AtomicU64,
    rejected: AtomicU64,
    watchdog_cancelled: AtomicU64,
    next_id: AtomicU64,
    active: Mutex<HashMap<u64, ActiveEntry>>,
}

impl Admission {
    /// A gate with the given configuration.
    pub fn new(cfg: AdmissionConfig) -> Arc<Admission> {
        Arc::new(Admission {
            cfg,
            inflight: AtomicUsize::new(0),
            ewma_us: AtomicU64::new(0),
            admitted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            watchdog_cancelled: AtomicU64::new(0),
            next_id: AtomicU64::new(0),
            active: Mutex::new(HashMap::new()),
        })
    }

    /// The gate's configuration.
    pub fn config(&self) -> &AdmissionConfig {
        &self.cfg
    }

    /// Total requests admitted so far.
    pub fn admitted(&self) -> u64 {
        self.admitted.load(Ordering::Relaxed)
    }

    /// Total requests shed with `Overloaded`.
    pub fn rejected(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }

    /// Total admitted requests the watchdog cancelled.
    pub fn watchdog_cancelled(&self) -> u64 {
        self.watchdog_cancelled.load(Ordering::Relaxed)
    }

    /// The retry-after hint: the latency EWMA, floored at 1ms.
    fn retry_after_ms(&self) -> u64 {
        (self.ewma_us.load(Ordering::Relaxed) / 1000).max(1)
    }

    /// Tries to admit a request. `deadline` is the client's own bound,
    /// if any; the configured default applies otherwise. Returns the
    /// typed `Overloaded` rejection when the gate is full.
    pub fn admit(self: &Arc<Self>, deadline: Option<Duration>) -> Result<Permit, ServeError> {
        let effective = deadline.or(self.cfg.default_deadline);
        // Optimistic increment; back out on overshoot. Two racers both
        // overshooting both back out — strictly bounded, never stuck.
        let prev = self.inflight.fetch_add(1, Ordering::AcqRel);
        if prev >= self.cfg.max_inflight {
            self.inflight.fetch_sub(1, Ordering::AcqRel);
            self.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::Overloaded {
                inflight: prev,
                limit: self.cfg.max_inflight,
                retry_after_ms: self.retry_after_ms(),
            });
        }
        self.admitted.fetch_add(1, Ordering::Relaxed);
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let cancel = CancelToken::new();
        let reclaimed = Arc::new(AtomicBool::new(false));
        self.active.lock().expect("admission lock").insert(
            id,
            ActiveEntry {
                cancel: cancel.clone(),
                started: Instant::now(),
                reclaimed: Arc::clone(&reclaimed),
            },
        );
        Ok(Permit {
            gate: Arc::clone(self),
            id,
            started: Instant::now(),
            cancel,
            reclaimed,
            deadline: effective,
        })
    }

    /// One watchdog sweep: cancels every admitted request running
    /// longer than `older_than`, marking it reclaimed so the reader can
    /// distinguish watchdog cancellation (`EpochReclaimed`) from a
    /// client abort (`Cancelled`). Returns how many were cancelled.
    pub fn reap_slow(&self, older_than: Duration) -> usize {
        let now = Instant::now();
        let mut n = 0;
        let active = self.active.lock().expect("admission lock");
        for entry in active.values() {
            if now.duration_since(entry.started) >= older_than && !entry.cancel.is_cancelled() {
                entry.reclaimed.store(true, Ordering::Release);
                entry.cancel.cancel();
                n += 1;
            }
        }
        self.watchdog_cancelled
            .fetch_add(n as u64, Ordering::Relaxed);
        n
    }

    fn finish(&self, id: u64, elapsed: Duration) {
        self.active.lock().expect("admission lock").remove(&id);
        self.inflight.fetch_sub(1, Ordering::AcqRel);
        // EWMA fold, α = 1/4. Racy read-modify-write is fine for a hint.
        let us = elapsed.as_micros().min(u64::MAX as u128) as u64;
        let old = self.ewma_us.load(Ordering::Relaxed);
        let new = if old == 0 { us } else { old - old / 4 + us / 4 };
        self.ewma_us.store(new, Ordering::Relaxed);
    }
}

/// An admitted request's slot. Dropping it frees the slot and folds the
/// request latency into the retry-after estimate.
pub struct Permit {
    gate: Arc<Admission>,
    id: u64,
    started: Instant,
    cancel: CancelToken,
    reclaimed: Arc<AtomicBool>,
    deadline: Option<Duration>,
}

impl Permit {
    /// The cancel token the request's evaluation must poll.
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// The effective deadline (request's own, or the configured
    /// default).
    pub fn deadline(&self) -> Option<Duration> {
        self.deadline
    }

    /// Time left before the effective deadline (`None` = unbounded).
    pub fn remaining(&self) -> Option<Duration> {
        self.deadline
            .map(|d| d.saturating_sub(self.started.elapsed()))
    }

    /// True once the watchdog cancelled this request to unblock epoch
    /// reclamation — the reader should surface `EpochReclaimed`, not
    /// plain `Cancelled`.
    pub fn was_reclaimed(&self) -> bool {
        self.reclaimed.load(Ordering::Acquire)
    }
}

impl Drop for Permit {
    fn drop(&mut self) {
        self.gate.finish(self.id, self.started.elapsed());
    }
}

/// Requests per second a paced session is served at once its burst is
/// spent. A 1000-row round trip takes 0.2–0.35 ms of the 1 ms slot on
/// the measured two-core host (0.65 ms at the 95th percentile), so the
/// slot is waited out, not overrun, until the host is about four times
/// oversubscribed (EXPERIMENTS.md "Serve: paced sessions").
pub const SESSION_RATE_PER_S: u32 = 1_000;

/// Requests a paced session may be ahead of [`SESSION_RATE_PER_S`]: an
/// interactive or bursty client never waits, and a saturating one gets
/// up to two seconds' worth back after the host stalled.
pub const SESSION_BURST: u32 = 2_048;

/// Commits per second a paced session is acknowledged at, with no burst
/// beyond the one in hand: acknowledgements are at least one commit slot
/// apart, counted from when the last one was *due*. A commit after a
/// pause, or one that outlasts the slot (a delete's maintenance), is
/// acknowledged the moment it is done; a client that commits again the
/// moment it is acknowledged gets one per slot, whatever the host's
/// spare capacity — and leaves the single writer to the other sessions
/// for the rest of it (EXPERIMENTS.md "O(delta) delete commits").
pub const SESSION_COMMITS_PER_S: u32 = 500;

const SLOT_NS: i64 = 1_000_000_000 / SESSION_RATE_PER_S as i64;
const BURST_NS: i64 = SLOT_NS * SESSION_BURST as i64;
const COMMIT_SLOT: Duration = Duration::from_nanos(1_000_000_000 / SESSION_COMMITS_PER_S as u64);

/// One session's token bucket, kept as clock time: every request costs
/// one slot (`1 / SESSION_RATE_PER_S`), elapsed time pays it back up to
/// [`SESSION_BURST`] slots. All of the elapsed time is booked, a wait
/// that overslept included, so the long-run rate is the clock's.
#[derive(Debug)]
pub struct SessionPace {
    /// Time in hand (at most the burst); negative: time owed.
    balance_ns: i64,
    at: Instant,
    /// When the next commit acknowledgement may leave at the earliest.
    ack_due: Instant,
}

impl SessionPace {
    /// A full bucket as of `now`.
    pub fn full(now: Instant) -> SessionPace {
        SessionPace {
            balance_ns: BURST_NS,
            at: now,
            ack_due: now,
        }
    }

    /// Books a commit that finished at `done` and returns how long its
    /// acknowledgement is held: until its slot, one commit slot after
    /// the previous one. The slots sit on a grid that only a pause or a
    /// long commit (a whole slot late) moves — neither a wait that
    /// overslept nor a commit that just missed its slot pushes the next
    /// one, so the long-run rate is the clock's.
    pub fn hold_ack(&mut self, done: Instant) -> Duration {
        if done.saturating_duration_since(self.ack_due) >= COMMIT_SLOT {
            self.ack_due = done;
        }
        let hold = self.ack_due.saturating_duration_since(done);
        self.ack_due += COMMIT_SLOT;
        hold
    }

    /// Books `requests` served by `now` and returns how long the
    /// session has to wait before its next one (zero while it has
    /// burst left).
    pub fn book(&mut self, requests: u32, now: Instant) -> Duration {
        let earned = now.saturating_duration_since(self.at).as_nanos();
        self.at = now;
        let earned = i64::try_from(earned).unwrap_or(i64::MAX);
        let cost = i64::from(requests) * SLOT_NS;
        self.balance_ns = self.balance_ns.saturating_add(earned).min(BURST_NS) - cost;
        Duration::from_nanos(self.balance_ns.min(0).unsigned_abs())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_sheds_beyond_capacity_with_retry_hint() {
        let gate = Admission::new(AdmissionConfig {
            max_inflight: 2,
            ..AdmissionConfig::default()
        });
        let a = gate.admit(None).unwrap();
        let _b = gate.admit(None).unwrap();
        let err = gate.admit(None).map(|_| ()).expect_err("gate is full");
        match err {
            ServeError::Overloaded {
                limit,
                retry_after_ms,
                ..
            } => {
                assert_eq!(limit, 2);
                assert!(retry_after_ms >= 1);
            }
            other => panic!("expected Overloaded, got {other:?}"),
        }
        assert_eq!(gate.rejected(), 1);
        drop(a);
        // A slot freed: admission works again.
        let _c = gate.admit(None).unwrap();
        assert_eq!(gate.admitted(), 3);
    }

    #[test]
    fn session_pace_spends_its_burst_then_runs_on_the_clock() {
        let slot = Duration::from_nanos(SLOT_NS as u64);
        let t0 = Instant::now();
        let mut pace = SessionPace::full(t0);
        // The burst costs nothing, however fast it is spent.
        for _ in 0..SESSION_BURST {
            assert_eq!(pace.book(1, t0), Duration::ZERO);
        }
        // Past it every request owes its slot, less whatever went by.
        assert_eq!(pace.book(1, t0), slot);
        assert_eq!(pace.book(1, t0 + slot), slot);
        let mut now = t0 + slot + slot / 4;
        let mut wait = pace.book(1, now);
        assert_eq!(wait, slot * 7 / 4);

        // A closed loop that waits what it owes — and oversleeps every
        // time — is still served exactly one request per slot.
        let started = now;
        for _ in 0..1_000 {
            now += wait + slot / 10;
            wait = pace.book(1, now);
        }
        let served = (now - started).as_nanos() / slot.as_nanos();
        assert!((998..=1_002).contains(&served), "{served} slots");

        // Idle time refills the bucket to the burst and no further.
        now += Duration::from_secs(3_600);
        for _ in 0..SESSION_BURST {
            assert_eq!(pace.book(1, now), Duration::ZERO);
        }
        assert_eq!(pace.book(1, now), slot);
    }

    #[test]
    fn commit_acks_keep_to_their_slots() {
        let slot = COMMIT_SLOT;
        let t0 = Instant::now();
        let mut pace = SessionPace::full(t0);
        // A commit after a pause is acknowledged when it is done.
        let mut due = t0 + slot * 10;
        assert_eq!(pace.hold_ack(due), Duration::ZERO);

        // A closed loop — the next commit done a quarter slot after the
        // last acknowledgement left, itself an eighth late — is held to
        // the grid: exactly one acknowledgement per slot.
        for _ in 0..1_000 {
            let done = due + slot / 8 + slot / 4;
            due += slot;
            assert_eq!(done + pace.hold_ack(done), due);
        }

        // One that misses its slot by less than a slot is not held and
        // does not move the grid ...
        due += slot;
        let done = due + slot / 2;
        assert_eq!(pace.hold_ack(done), Duration::ZERO);
        due += slot;
        assert_eq!(pace.hold_ack(done + slot / 4), slot / 4);

        // ... a whole slot late, the grid starts again from it.
        let done = due + slot * 2;
        assert_eq!(pace.hold_ack(done), Duration::ZERO);
        assert_eq!(pace.hold_ack(done + slot / 4), slot * 3 / 4);
    }

    #[test]
    fn watchdog_cancels_old_readers_and_marks_them_reclaimed() {
        let gate = Admission::new(AdmissionConfig::default());
        let p = gate.admit(None).unwrap();
        assert!(!p.cancel_token().is_cancelled());
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(gate.reap_slow(Duration::from_millis(1)), 1);
        assert!(p.cancel_token().is_cancelled());
        assert!(p.was_reclaimed());
        assert_eq!(gate.watchdog_cancelled(), 1);
        // Already-cancelled entries are not double-counted.
        assert_eq!(gate.reap_slow(Duration::from_millis(1)), 0);
    }

    #[test]
    fn default_deadline_applies_when_request_has_none() {
        let gate = Admission::new(AdmissionConfig {
            default_deadline: Some(Duration::from_millis(30)),
            ..AdmissionConfig::default()
        });
        let p = gate.admit(None).unwrap();
        assert_eq!(p.deadline(), Some(Duration::from_millis(30)));
    }
}
