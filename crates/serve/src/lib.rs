//! # semrec-serve
//!
//! The serving daemon behind `semrec serve`: a long-running process
//! holding a [`Database`](semrec_engine::Database) plus a
//! `MaintainedQuery` materialization, answering concurrent read queries
//! while a single writer applies `+fact./-fact./commit.` transaction
//! streams through the incremental maintenance path.
//!
//! The paper's guarantee — the optimized route is indistinguishable
//! from the rectified program, or the failure is typed — extends here
//! to concurrent, faulty, and overloaded execution:
//!
//! * **Snapshot isolation** ([`epoch`]) — every committed transaction
//!   publishes a new epoch: one read-only snapshot per relation, each a
//!   row watermark over the writer's own append-only store
//!   (`Relation::snapshot_after` — no rows are copied). Readers pin an
//!   epoch at admission and answer exactly against it; the writer never
//!   waits for readers and readers never wait for the writer.
//! * **Durability** ([`wal`]) — commits append a length+checksum framed
//!   record to a write-ahead log and fsync before acknowledging; replay
//!   on restart tolerates a torn trailing record and reconverges the
//!   materialization tuple-for-tuple by re-applying every surviving
//!   transaction.
//! * **Admission control** ([`admission`]) — a bounded in-flight gate
//!   with typed [`ServeError::Overloaded`] rejection (plus a
//!   retry-after hint), per-request deadlines mapped onto the engine's
//!   `Budget`/`CancelToken` governance, a slow-reader watchdog that
//!   cancels stragglers instead of letting them pin old epochs forever,
//!   and a per-session pace that holds a saturating network client to a
//!   rate set by the clock, not by what the host has spare.
//! * **Graceful degradation** — an IC-violating transaction flips the
//!   maintained route to the rectified program exactly as in one-shot
//!   mode; in-flight readers on older epochs keep their pinned
//!   snapshots and finish unperturbed.

#![warn(missing_docs)]

pub mod admission;
pub mod epoch;
pub mod error;
pub mod protocol;
pub mod server;
pub mod wal;

pub use admission::{
    Admission, AdmissionConfig, Permit, SESSION_BURST, SESSION_COMMITS_PER_S, SESSION_RATE_PER_S,
};
pub use epoch::{EpochRegistry, EpochState};
pub use error::ServeError;
pub use protocol::{serve_session, Connection, Response, REPLY_BUF_BYTES};
pub use server::{
    Answer, CommitReply, QueryReply, RecoveryReport, ServeConfig, Server, ServerStats,
};
pub use wal::{Replay, Wal};
