//! The line protocol: one request per line, one framed reply per
//! request.
//!
//! ## Requests
//!
//! | line | meaning |
//! |---|---|
//! | `query goal(args).` | answer `goal` at the latest epoch |
//! | `query@E goal(args).` | answer `goal` pinned at epoch `E` |
//! | `+p(a, b).` / `-p(a, b).` | queue an insert / delete into the open transaction |
//! | `commit.` | commit the queued transaction through WAL + apply + publish |
//! | `epoch.` | report the latest and oldest pinnable epochs |
//! | `stats.` | report server counters |
//! | `ping.` | liveness check |
//! | `quit.` | close the connection |
//!
//! Blank lines and `%`/`#` comments are ignored (so a WAL or a tx file
//! can be replayed over the wire verbatim).
//!
//! ## Replies
//!
//! Queries answer `ok epoch=E route=R rows=N`, then one rendered fact
//! per line, then `end`. Commits answer `ok epoch=E route=R` (plus
//! `violated=i,j` when the commit broke monitored constraints and the
//! daemon degraded to the rectified route, and a trailing `replanned`
//! tag when the commit re-consulted the cost planner). Errors answer a single
//! `err kind=<kind> msg=…` line — `kind` is [`ServeError::kind`], with
//! `retry_after_ms=N` added for `overloaded` — and the connection stays
//! alive: a malformed line rejects *that* request (or poisons the open
//! transaction until its `commit.`, which reports the error and resets),
//! never the session.

use crate::admission::SessionPace;
use crate::error::ServeError;
use crate::server::{Answer, CommitReply, Server};
use semrec_datalog::atom::Pred;
use semrec_datalog::parser::parse_atom;
use semrec_datalog::term::Value;
use semrec_engine::incr::TxStreamEvent;
use semrec_engine::{Route, Tx, TxStreamParser};
use std::fmt;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What a handled line sends back, as owned lines
/// ([`Connection::handle_line`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    /// Nothing (the line was queued, a comment, or blank).
    None,
    /// Reply lines to write back.
    Lines(Vec<String>),
    /// Close the connection.
    Quit,
}

/// A stable lowercase tag for each route, used on the wire.
pub fn route_tag(route: Route) -> &'static str {
    match route {
        Route::Direct => "direct",
        Route::Optimized => "optimized",
        Route::RectifiedFallback => "rectified-fallback",
        Route::IncrementalOptimized => "incr-optimized",
        Route::IncrementalInvalidated => "incr-invalidated",
    }
}

/// Writes one row of `pred` — values or their stored words, which
/// display alike — in fact syntax, `pred(a, b).`: the same surface the
/// parser accepts, so replies round-trip.
fn write_fact(out: &mut impl Write, pred: &str, row: &[impl fmt::Display]) -> io::Result<()> {
    out.write_all(pred.as_bytes())?;
    out.write_all(b"(")?;
    for (i, v) in row.iter().enumerate() {
        if i > 0 {
            out.write_all(b", ")?;
        }
        write!(out, "{v}")?;
    }
    out.write_all(b").")
}

/// Renders one tuple of `pred` as the fact line a query reply carries
/// for it.
pub fn render_fact(pred: Pred, tuple: &[Value]) -> String {
    let mut line = Vec::new();
    write_fact(&mut line, pred.name(), tuple).expect("writing to a Vec cannot fail");
    String::from_utf8(line).expect("facts render as UTF-8")
}

/// Renders an error as the single-line `err` reply.
pub fn render_err(e: &ServeError) -> String {
    let msg = e.to_string().replace('\n', " ");
    match e {
        ServeError::Overloaded { retry_after_ms, .. } => {
            format!(
                "err kind={} retry_after_ms={retry_after_ms} msg={msg}",
                e.kind()
            )
        }
        _ => format!("err kind={} msg={msg}", e.kind()),
    }
}

/// One client session: a transaction stream parser plus a handle to the
/// server. Connections are independent; each holds its own open
/// transaction.
pub struct Connection {
    server: Arc<Server>,
    parser: TxStreamParser,
    /// The most severe session-level condition answered so far
    /// ([`ServeError::severity`] > 0), for the caller's exit status.
    worst: Option<ServeError>,
    /// The session's token bucket, if it is paced, and the requests
    /// handled since [`serve_session`] last settled it.
    pace: Option<SessionPace>,
    unsettled: u32,
}

impl Connection {
    /// A fresh session against `server`, served as fast as it asks:
    /// scripts, stdin and in-process callers.
    pub fn new(server: Arc<Server>) -> Connection {
        Connection {
            server,
            parser: TxStreamParser::new(),
            worst: None,
            pace: None,
            unsettled: 0,
        }
    }

    /// A fresh session that [`serve_session`] holds to the per-session
    /// rate once its burst is spent ([`SessionPace`]): every network
    /// connection.
    pub fn paced(server: Arc<Server>) -> Connection {
        Connection {
            pace: Some(SessionPace::full(Instant::now())),
            ..Connection::new(server)
        }
    }

    /// Facts queued in the open (uncommitted) transaction.
    pub fn pending_ops(&self) -> usize {
        self.parser.pending_ops()
    }

    /// The most severe serving condition (overloaded, epoch reclaimed,
    /// WAL corrupt) this session has answered with an `err` line, if
    /// any. Per-request errors (protocol, engine, I/O) do not count.
    pub fn worst_error(&self) -> Option<&ServeError> {
        self.worst.as_ref()
    }

    /// Counts a request that reaches the engine (a query, a non-empty
    /// commit) towards a paced session's next [`Connection::settle`].
    fn note_request(&mut self) {
        if self.pace.is_some() {
            self.unsettled += 1;
        }
    }

    /// Books the requests noted since the last call against the
    /// session's pace; what comes back is how long the session waits
    /// before its next request (zero when it is not paced or has burst
    /// left).
    fn settle(&mut self) -> Duration {
        match (&mut self.pace, std::mem::take(&mut self.unsettled)) {
            (Some(pace), requests @ 1..) => pace.book(requests, Instant::now()),
            _ => Duration::ZERO,
        }
    }

    /// Handles one request line, returning its reply as owned lines:
    /// [`Connection::handle_into`] for callers that want to look at the
    /// reply rather than send it.
    pub fn handle_line(&mut self, raw: &str) -> Response {
        let mut reply = Vec::new();
        let open = self
            .handle_into(raw, &mut reply)
            .expect("writing to a Vec cannot fail");
        if !open {
            return Response::Quit;
        }
        if reply.is_empty() {
            return Response::None;
        }
        let reply = String::from_utf8(reply).expect("replies render as UTF-8");
        Response::Lines(reply.lines().map(str::to_owned).collect())
    }

    /// Handles one request line, writing the framed reply (if the line
    /// has one) to `out`. Returns `false` when the line ends the
    /// session (`quit.`). The only error is `out`'s.
    pub fn handle_into(&mut self, raw: &str, out: &mut impl Write) -> io::Result<bool> {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('%') || line.starts_with('#') {
            return Ok(true);
        }
        if line == "quit." {
            return Ok(false);
        }
        if line == "ping." {
            out.write_all(b"ok pong\n")?;
        } else if line == "epoch." {
            let stats = self.server.stats();
            writeln!(
                out,
                "ok epoch={} oldest={}",
                stats.epoch, stats.oldest_epoch
            )?;
        } else if line == "stats." {
            let s = self.server.stats();
            writeln!(
                out,
                "ok commits={} epoch={} oldest={} admitted={} rejected={} reaped={} \
                 cache_hits={} cache_misses={} batches={} batched_txs={} publish_bytes={}",
                s.commits,
                s.epoch,
                s.oldest_epoch,
                s.admitted,
                s.rejected,
                s.watchdog_cancelled,
                s.cache_hits,
                s.cache_misses,
                s.batches,
                s.batched_txs,
                s.publish_bytes
            )?;
        } else if let Some(rest) = line.strip_prefix("query") {
            self.handle_query(rest, out)?;
        } else {
            // Everything else is a transaction-stream line (+fact./
            // -fact./commit.), validated by the shared parser.
            self.handle_tx_line(line, out)?;
        }
        Ok(true)
    }

    /// Answers with the `err` line for `e`, remembering the most severe
    /// session-level condition seen.
    fn fail(&mut self, e: ServeError, out: &mut impl Write) -> io::Result<()> {
        writeln!(out, "{}", render_err(&e))?;
        if e.severity() > self.worst.as_ref().map_or(0, ServeError::severity) {
            self.worst = Some(e);
        }
        Ok(())
    }

    /// `query goal(args).` / `query@E goal(args).`
    fn handle_query(&mut self, rest: &str, out: &mut impl Write) -> io::Result<()> {
        self.note_request();
        let (at, goal_src) = match rest.strip_prefix('@') {
            None => (None, rest),
            Some(tail) => {
                let end = tail
                    .find(|c: char| !c.is_ascii_digit())
                    .unwrap_or(tail.len());
                match tail[..end].parse::<u64>() {
                    Ok(e) => (Some(e), &tail[end..]),
                    Err(_) => {
                        let e = ServeError::Protocol("query@ needs a numeric epoch".to_string());
                        return self.fail(e, out);
                    }
                }
            }
        };
        let goal_src = goal_src.trim().trim_end_matches('.');
        let goal = match parse_atom(goal_src) {
            Ok(g) => g,
            Err(e) => return self.fail(ServeError::Protocol(format!("bad goal: {e}")), out),
        };
        match self.server.query_rows(&goal, at, None) {
            Ok(answer) => write_answer(out, goal.pred, &answer),
            Err(e) => self.fail(e, out),
        }
    }

    /// [`Server::commit`], acknowledged no sooner than a paced session's
    /// commit slot allows ([`SessionPace::hold_ack`]). The commit is
    /// durable and published either way; replies rendered before it go
    /// out ahead of the wait.
    fn commit_paced(
        &mut self,
        tx: &Tx,
        out: &mut impl Write,
    ) -> io::Result<Result<CommitReply, ServeError>> {
        let result = self.server.commit(tx);
        let hold = match &mut self.pace {
            Some(pace) => pace.hold_ack(Instant::now()),
            None => Duration::ZERO,
        };
        if !hold.is_zero() {
            out.flush()?;
            std::thread::sleep(hold);
        }
        Ok(result)
    }

    /// `+fact.` / `-fact.` / `commit.` through the shared stream parser:
    /// a malformed line poisons only the open transaction; its `commit.`
    /// reports the error and the next transaction starts clean.
    fn handle_tx_line(&mut self, line: &str, out: &mut impl Write) -> io::Result<()> {
        let event = self.parser.feed(line);
        if matches!(event, Ok(TxStreamEvent::Committed(Some(_)))) {
            self.note_request();
        }
        match event {
            Ok(TxStreamEvent::Queued) => Ok(()),
            Ok(TxStreamEvent::Committed(None)) => {
                writeln!(out, "ok epoch={} empty", self.server.stats().epoch)
            }
            Ok(TxStreamEvent::Committed(Some(tx))) => match self.commit_paced(&tx, out)? {
                Ok(reply) => {
                    write!(
                        out,
                        "ok epoch={} route={}",
                        reply.epoch,
                        route_tag(reply.route)
                    )?;
                    for (i, v) in reply.violated.iter().enumerate() {
                        write!(out, "{}{v}", if i == 0 { " violated=" } else { "," })?;
                    }
                    if reply.replanned {
                        out.write_all(b" replanned")?;
                    }
                    out.write_all(b"\n")
                }
                Err(e) => self.fail(e, out),
            },
            Err(e) => self.fail(ServeError::Protocol(e.to_string()), out),
        }
    }
}

/// The framed query reply — header, one fact line per matching row,
/// `end` — rendered straight from the pinned relation's rows.
fn write_answer(out: &mut impl Write, pred: Pred, answer: &Answer) -> io::Result<()> {
    writeln!(
        out,
        "ok epoch={} route={} rows={}",
        answer.epoch,
        route_tag(answer.route),
        answer.len()
    )?;
    let pred = pred.name();
    for row in answer.rows() {
        write_fact(out, pred, row)?;
        out.write_all(b"\n")?;
    }
    out.write_all(b"end\n")
}

/// Reply bytes a session buffers before it writes without waiting for
/// the end of the reply: a few 1000-row answers. Bounds what one
/// session holds for a reply of any size.
pub const REPLY_BUF_BYTES: usize = 64 * 1024;

/// Drives one session to its end (`quit.`, end of input, or an I/O
/// error): reads request lines from `reader`, renders every reply into
/// one reused buffer in front of `writer`, and hands the buffer over in
/// a single `write` —
///
/// * before any read that could block, i.e. whenever `reader` does not
///   already hold another *complete* line: pipelined requests share a
///   write, while a partial trailing line never holds back replies
///   that are finished;
/// * before a paced session ([`Connection::paced`]) waits out what it
///   owes its [`SessionPace`] — the wait delays the next request, never
///   a reply that is ready — or holds a commit's acknowledgement to its
///   slot (`Connection::commit_paced`: the replies before it leave, the
///   acknowledgement is rendered after the wait);
/// * when it reaches [`REPLY_BUF_BYTES`];
/// * at the end of the session.
///
/// Every transport (TCP connection, script file, stdin) runs this loop.
pub fn serve_session<R: Read, W: Write>(
    conn: &mut Connection,
    mut reader: BufReader<R>,
    writer: W,
) -> io::Result<()> {
    let mut out = BufWriter::with_capacity(REPLY_BUF_BYTES, writer);
    let mut line = String::new();
    let read = loop {
        let owed = conn.settle();
        if !owed.is_zero() || !reader.buffer().contains(&b'\n') {
            out.flush()?;
        }
        if !owed.is_zero() {
            std::thread::sleep(owed);
        }
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => break Ok(()),
            Ok(_) => {}
            Err(e) => break Err(e),
        }
        if !conn.handle_into(&line, &mut out)? {
            break Ok(());
        }
    };
    // Replies already rendered go out even when the input broke.
    out.flush()?;
    read
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ServeConfig;
    use semrec_datalog::parser::parse_unit;

    fn conn() -> Connection {
        conn_with(ServeConfig::default())
    }

    fn conn_with(cfg: ServeConfig) -> Connection {
        let unit = parse_unit(
            "reach(X, Y) :- edge(X, Y).\n\
             reach(X, Y) :- edge(X, Z), reach(Z, Y).\n\
             edge(1, 2). edge(2, 3).",
        )
        .expect("parse");
        let (server, _) = Server::open(&unit, cfg, None).expect("open");
        Connection::new(server)
    }

    fn lines(r: Response) -> Vec<String> {
        match r {
            Response::Lines(l) => l,
            other => panic!("expected lines, got {other:?}"),
        }
    }

    #[test]
    fn query_commit_query_session() {
        let mut c = conn();
        let out = lines(c.handle_line("query reach(1, Y)."));
        assert_eq!(out[0], "ok epoch=0 route=direct rows=2");
        assert_eq!(out[1], "reach(1, 2).");
        assert_eq!(out.last().unwrap(), "end");

        assert_eq!(c.handle_line("+edge(3, 4)."), Response::None);
        let out = lines(c.handle_line("commit."));
        assert!(out[0].starts_with("ok epoch=1"), "{out:?}");

        let out = lines(c.handle_line("query@0 reach(1, Y)."));
        assert_eq!(out[0], "ok epoch=0 route=direct rows=2");
        let out = lines(c.handle_line("query reach(1, Y)."));
        assert!(out[0].contains("rows=3"), "{out:?}");
    }

    #[test]
    fn malformed_tx_line_rejects_only_that_transaction() {
        let mut c = conn();
        assert_eq!(c.handle_line("+edge(7, 8)."), Response::None);
        let out = lines(c.handle_line("+edge(oops"));
        assert!(out[0].starts_with("err kind=protocol"), "{out:?}");
        // The poisoned transaction reports the error at commit and
        // resets; nothing was applied.
        let out = lines(c.handle_line("commit."));
        assert!(out[0].starts_with("err kind=protocol"), "{out:?}");
        let out = lines(c.handle_line("query reach(1, Y)."));
        assert!(out[0].contains("epoch=0"), "{out:?}");
        // The connection is alive and the next transaction is clean.
        assert_eq!(c.handle_line("+edge(3, 4)."), Response::None);
        let out = lines(c.handle_line("commit."));
        assert!(out[0].starts_with("ok epoch=1"), "{out:?}");
    }

    #[test]
    fn session_remembers_its_most_severe_condition() {
        let mut c = conn_with(ServeConfig {
            retain_epochs: 1,
            admission: crate::AdmissionConfig {
                max_inflight: 1,
                ..crate::AdmissionConfig::default()
            },
            ..ServeConfig::default()
        });
        lines(c.handle_line("query reach(1,"));
        assert!(c.worst_error().is_none(), "a protocol error is per request");

        // Shed at a full gate: overloaded.
        let held = c.server.admission().admit(None).expect("fill the gate");
        let out = lines(c.handle_line("query reach(1, Y)."));
        assert!(out[0].starts_with("err kind=overloaded retry_after_ms="));
        drop(held);
        assert_eq!(c.worst_error().map(ServeError::kind), Some("overloaded"));

        // Epoch 0 falls off a one-epoch ring: reclaimed outranks it, and
        // nothing milder displaces it afterwards.
        c.handle_line("+edge(3, 4).");
        lines(c.handle_line("commit."));
        let out = lines(c.handle_line("query@0 reach(1, Y)."));
        assert!(out[0].starts_with("err kind=epoch-reclaimed"), "{out:?}");
        let held = c.server.admission().admit(None).expect("fill the gate");
        lines(c.handle_line("query reach(1, Y)."));
        drop(held);
        assert_eq!(
            c.worst_error().map(ServeError::kind),
            Some("epoch-reclaimed")
        );
    }

    /// Every `write` the session made, apart.
    struct Writes<'a>(&'a mut Vec<String>);

    impl Write for Writes<'_> {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.push(String::from_utf8(buf.to_vec()).expect("UTF-8"));
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_paced_session_sends_what_is_ready_before_it_waits() {
        let input = "query reach(2, Y).\n+edge(3, 4).\nping.\nquery reach(1, 3).\n";
        let first = "ok epoch=0 route=direct rows=1\nreach(2, 3).\nend\n";
        let rest = "ok pong\nok epoch=0 route=direct rows=1\nreach(1, 3).\nend\n";

        // Unpaced, the pipelined requests share one write.
        let mut writes = Vec::new();
        let mut c = conn();
        serve_session(
            &mut c,
            BufReader::new(input.as_bytes()),
            Writes(&mut writes),
        )
        .unwrap();
        assert_eq!(writes, [format!("{first}{rest}")]);

        // Twenty requests past its burst, the session owes over twenty
        // slots after the first query: its reply leaves before the wait, and
        // lines that never reach the engine (a queued fact, `ping.`)
        // are not waited for.
        let mut pace = SessionPace::full(Instant::now());
        pace.book(crate::SESSION_BURST + 20, Instant::now());
        c.pace = Some(pace);
        writes.clear();
        let started = Instant::now();
        serve_session(
            &mut c,
            BufReader::new(input.as_bytes()),
            Writes(&mut writes),
        )
        .unwrap();
        assert_eq!(writes, [first, rest]);
        let slot = Duration::from_secs(1) / crate::SESSION_RATE_PER_S;
        assert!(started.elapsed() >= slot * 20, "{:?}", started.elapsed());
        assert_eq!(c.pending_ops(), 2, "both sessions queued their fact");
    }

    #[test]
    fn a_paced_session_acknowledges_one_commit_per_slot() {
        let input = "query reach(2, Y).\n+edge(3, 4).\ncommit.\n+edge(4, 5).\ncommit.\n";
        let first =
            "ok epoch=0 route=direct rows=1\nreach(2, 3).\nend\nok epoch=1 route=incr-optimized\n";
        let second = "ok epoch=2 route=incr-optimized\n";

        // Unpaced, both commits are acknowledged as fast as they go.
        let mut writes = Vec::new();
        let mut c = conn();
        serve_session(
            &mut c,
            BufReader::new(input.as_bytes()),
            Writes(&mut writes),
        )
        .unwrap();
        assert_eq!(writes, [format!("{first}{second}")]);

        // Paced, the first is acknowledged at once and the second a
        // commit slot later, after what was ready has left.
        let mut c = conn();
        let started = Instant::now();
        c.pace = Some(SessionPace::full(started));
        writes.clear();
        serve_session(
            &mut c,
            BufReader::new(input.as_bytes()),
            Writes(&mut writes),
        )
        .unwrap();
        assert_eq!(writes, [first, second]);
        let slot = Duration::from_secs(1) / crate::SESSION_COMMITS_PER_S;
        assert!(started.elapsed() >= slot, "{:?}", started.elapsed());
    }

    #[test]
    fn control_lines() {
        let mut c = conn();
        assert_eq!(lines(c.handle_line("ping."))[0], "ok pong");
        assert_eq!(lines(c.handle_line("epoch."))[0], "ok epoch=0 oldest=0");
        assert!(lines(c.handle_line("stats."))[0].starts_with("ok commits=0"));
        assert_eq!(c.handle_line("% comment"), Response::None);
        assert_eq!(c.handle_line("   "), Response::None);
        assert_eq!(c.handle_line("quit."), Response::Quit);
        let out = lines(c.handle_line("query@banana reach(1, Y)."));
        assert!(out[0].starts_with("err kind=protocol"), "{out:?}");
        let out = lines(c.handle_line("commit."));
        assert!(out[0].contains("empty"), "{out:?}");
    }
}
