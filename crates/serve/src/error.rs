//! The daemon's typed error surface.
//!
//! Every failure a client (or the operator) can see is one of these
//! variants — the serving extension of the engine's "exact answer or
//! typed error, never wrong" discipline. The three serving-specific
//! conditions (`Overloaded`, `WalCorrupt`, `EpochReclaimed`) get their
//! own CLI exit codes; see `src/bin/semrec.rs`.

use semrec_engine::EngineError;
use std::fmt;

/// Everything that can go wrong serving a request or a commit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// Admission control shed this request: the in-flight gate is full
    /// or the request's deadline leaves no headroom to finish. The
    /// request was **not** started; retry after the hint.
    Overloaded {
        /// Requests currently admitted (or queue depth hit).
        inflight: usize,
        /// The configured admission limit.
        limit: usize,
        /// Estimated milliseconds until capacity frees up (an EWMA of
        /// recent request latency; at least 1).
        retry_after_ms: u64,
    },
    /// The write-ahead log holds a record that is structurally complete
    /// but fails verification (bad checksum, absurd length, non-UTF-8
    /// payload) — data corruption, not a torn append. Refusing to
    /// replay is the only sound response: skipping a committed record
    /// would serve answers that diverge from the acknowledged history.
    WalCorrupt {
        /// Byte offset of the corrupt record's frame header.
        offset: u64,
        /// What failed to verify.
        detail: String,
    },
    /// The reader asked for an epoch the registry no longer retains
    /// (fell off the retention ring, or the reader was cancelled by the
    /// slow-reader watchdog to let reclamation proceed).
    EpochReclaimed {
        /// The epoch the reader wanted.
        requested: u64,
        /// The oldest epoch still retained.
        oldest: u64,
    },
    /// A malformed request line. The connection stays alive; only this
    /// request (or the in-progress transaction) is rejected.
    Protocol(String),
    /// An engine error from evaluation or maintenance (budget trips,
    /// cancellation, injected faults), passed through with its own
    /// exit-code mapping intact.
    Engine(EngineError),
    /// An I/O failure outside the WAL verification path (socket errors,
    /// WAL file creation, an injected `wal.append`/`wal.fsync` fault).
    Io(String),
}

impl ServeError {
    /// A stable machine-readable kind tag, used by the wire protocol
    /// (`err kind=…`) and the exit-code mapping.
    pub fn kind(&self) -> &'static str {
        match self {
            ServeError::Overloaded { .. } => "overloaded",
            ServeError::WalCorrupt { .. } => "wal-corrupt",
            ServeError::EpochReclaimed { .. } => "epoch-reclaimed",
            ServeError::Protocol(_) => "protocol",
            ServeError::Engine(_) => "engine",
            ServeError::Io(_) => "io",
        }
    }

    /// Rank among the conditions a whole session reports when it ends
    /// (the script-mode exit status): overloaded < epoch reclaimed <
    /// WAL corrupt. 0 for errors that concern one request only.
    pub fn severity(&self) -> u8 {
        match self {
            ServeError::WalCorrupt { .. } => 3,
            ServeError::EpochReclaimed { .. } => 2,
            ServeError::Overloaded { .. } => 1,
            ServeError::Protocol(_) | ServeError::Engine(_) | ServeError::Io(_) => 0,
        }
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Overloaded {
                inflight,
                limit,
                retry_after_ms,
            } => write!(
                f,
                "overloaded: {inflight}/{limit} requests in flight; retry in ~{retry_after_ms}ms"
            ),
            ServeError::WalCorrupt { offset, detail } => {
                write!(f, "WAL corrupt at byte {offset}: {detail}")
            }
            ServeError::EpochReclaimed { requested, oldest } => {
                write!(f, "epoch {requested} reclaimed (oldest retained: {oldest})")
            }
            ServeError::Protocol(msg) => write!(f, "protocol: {msg}"),
            ServeError::Engine(e) => write!(f, "{e}"),
            ServeError::Io(msg) => write!(f, "io: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<EngineError> for ServeError {
    fn from(e: EngineError) -> Self {
        ServeError::Engine(e)
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_are_stable() {
        let e = ServeError::Overloaded {
            inflight: 8,
            limit: 8,
            retry_after_ms: 5,
        };
        assert_eq!(e.kind(), "overloaded");
        assert!(e.to_string().contains("8/8"));
        assert_eq!(
            ServeError::EpochReclaimed {
                requested: 3,
                oldest: 7
            }
            .kind(),
            "epoch-reclaimed"
        );
        assert_eq!(
            ServeError::WalCorrupt {
                offset: 12,
                detail: "checksum".into()
            }
            .kind(),
            "wal-corrupt"
        );
    }
}
