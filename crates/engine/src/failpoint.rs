//! Deterministic fault injection for robustness tests.
//!
//! Compiled only under `--features failpoints`; without the feature the
//! module does not exist and every call site compiles to nothing, so
//! production builds pay zero cost. With the feature, named failpoints
//! embedded in the engine (and, via the `semrec-core/failpoints`
//! feature, the optimizer) consult a global schedule on every hit and
//! can panic, delay, or return an error — letting tests drive the
//! engine through evaluator panics, mid-round slowdowns, and I/O failures
//! on a reproducible, seed-derived schedule (the test harness draws
//! schedules from `semrec_gen::rng::Rng`, the workspace SplitMix64).
//!
//! ## Sites
//!
//! | name             | where                                   | `Err` action means |
//! |------------------|------------------------------------------|--------------------|
//! | `eval.round`     | start of every fixpoint round            | `EngineError::Io` |
//! | `optimizer.push` | before the optimizer's push stage        | analysis error |
//! | `io.load`        | per CSV file in [`crate::io::load_file`] | `EngineError::Io` |
//! | `incr.delete`    | before the DRed over-deletion pass of an incremental update (nothing mutated yet) | `EngineError::Io` |
//! | `incr.rederive`  | after the transaction is applied and the doomed rows are tombstoned | `EngineError::Io`, tombstones revived |
//! | `incr.propagate` | after DRed re-derivation appended, before the propagation run | `EngineError::Io`, appends cut, tombstones revived |
//! | `incr.icheck`    | before the delta IC re-check of an incremental update | `EngineError::Io` |
//! | `serve.accept`   | per accepted server connection (`semrec-serve`) | connection closed unserved, daemon lives |
//! | `serve.reader`   | at the start of every admitted read query  | typed I/O error to that client |
//! | `wal.append`     | before a WAL record write                  | commit rejected, log truncated back |
//! | `wal.fsync`      | before the WAL fsync-on-commit             | commit rejected, log truncated back |
//! | `snapshot.publish` | before an epoch snapshot is published    | commit durable+applied, publish deferred |
//!
//! A schedule entry is one-shot: after firing it disarms, so a single
//! armed fault injects exactly one failure per evaluation regardless of
//! how many times the site is hit.

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Duration;

/// What an armed failpoint does when its scheduled hit arrives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailAction {
    /// Panic at the site (`panic!`): tests callers' `catch_unwind`
    /// recovery.
    Panic,
    /// Sleep this many milliseconds, then continue normally. Used to
    /// push evaluations over tight deadlines mid-round.
    DelayMs(u64),
    /// Return an injected error from the site (see the site table for
    /// how each site surfaces it).
    Err,
}

#[derive(Clone, Copy, Debug)]
struct Site {
    action: FailAction,
    /// Fires when the site's 0-based hit counter equals this.
    fire_at: u64,
    hits: u64,
    armed: bool,
}

fn registry() -> &'static Mutex<HashMap<&'static str, Site>> {
    static REGISTRY: std::sync::OnceLock<Mutex<HashMap<&'static str, Site>>> =
        std::sync::OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
}

/// The failpoint names the engine and optimizer embed.
pub const SITES: [&str; 12] = [
    "eval.round",
    "optimizer.push",
    "io.load",
    "incr.delete",
    "incr.rederive",
    "incr.propagate",
    "incr.icheck",
    "serve.accept",
    "serve.reader",
    "wal.append",
    "wal.fsync",
    "snapshot.publish",
];

fn intern(site: &str) -> Option<&'static str> {
    SITES.iter().copied().find(|s| *s == site)
}

/// Arms `site` to perform `action` on its `fire_at`-th hit (0-based),
/// replacing any previous schedule for the site and resetting its hit
/// counter.
///
/// # Panics
/// Panics on an unknown site name — a typo'd schedule would otherwise
/// silently test nothing.
pub fn arm(site: &str, fire_at: u64, action: FailAction) {
    let site = intern(site).unwrap_or_else(|| panic!("unknown failpoint `{site}`"));
    registry().lock().unwrap_or_else(|e| e.into_inner()).insert(
        site,
        Site {
            action,
            fire_at,
            hits: 0,
            armed: true,
        },
    );
}

/// Disarms every site and resets all hit counters. Call between test
/// cases; schedules are global process state.
pub fn clear() {
    registry().lock().unwrap_or_else(|e| e.into_inner()).clear();
}

/// A failpoint call site. Returns `Err` with a description when the
/// site's armed `FailAction::Err` fires; panics when `Panic` fires;
/// sleeps and returns `Ok` when `DelayMs` fires; returns `Ok`
/// otherwise.
pub fn hit(site: &str) -> Result<(), String> {
    let fired = {
        let mut reg = registry().lock().unwrap_or_else(|e| e.into_inner());
        match reg.get_mut(site) {
            None => return Ok(()),
            Some(s) => {
                let n = s.hits;
                s.hits += 1;
                if s.armed && n == s.fire_at {
                    s.armed = false;
                    Some(s.action)
                } else {
                    None
                }
            }
        }
    };
    match fired {
        None => Ok(()),
        Some(FailAction::Panic) => panic!("injected panic at failpoint `{site}`"),
        Some(FailAction::DelayMs(ms)) => {
            std::thread::sleep(Duration::from_millis(ms));
            Ok(())
        }
        Some(FailAction::Err) => Err(format!("injected error at failpoint `{site}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Failpoint schedules are process-global; tests in this module
    // serialize on the lock and fully clear state behind themselves.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn unarmed_site_is_silent() {
        let _g = serial();
        clear();
        assert_eq!(hit("eval.round"), Ok(()));
    }

    #[test]
    fn err_fires_once_on_scheduled_hit() {
        let _g = serial();
        clear();
        arm("io.load", 2, FailAction::Err);
        assert!(hit("io.load").is_ok()); // hit 0
        assert!(hit("io.load").is_ok()); // hit 1
        assert!(hit("io.load").is_err()); // hit 2 fires
        assert!(hit("io.load").is_ok()); // one-shot: disarmed
        clear();
    }

    #[test]
    fn panic_action_panics() {
        let _g = serial();
        clear();
        arm("eval.round", 0, FailAction::Panic);
        let r = std::panic::catch_unwind(|| hit("eval.round"));
        clear();
        assert!(r.is_err());
    }

    #[test]
    #[should_panic(expected = "unknown failpoint")]
    fn unknown_site_is_rejected() {
        arm("no.such.site", 0, FailAction::Err);
    }
}
