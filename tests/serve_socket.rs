//! The session loop on the wire: one `write` per reply (or per
//! pipelined batch), a flush before every read that could block, no
//! delayed-ACK stall on a real loopback socket, and a network session
//! past its burst — and its commits, from the second — served on the
//! clock.

use semrec::datalog::parser::{parse_unit, Unit};
use semrec::serve::{
    serve_session, Connection, ServeConfig, Server, REPLY_BUF_BYTES, SESSION_BURST,
    SESSION_COMMITS_PER_S, SESSION_RATE_PER_S,
};
use std::cell::{Cell, RefCell};
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A star: `reach(0, j)` for `j` in `1..=fan`, nothing else — answers
/// of `fan` rows out of a closure of `fan` rows.
fn star(fan: usize) -> Unit {
    let mut src = String::from(
        "reach(X, Y) :- edge(X, Y).\n\
         reach(X, Y) :- edge(X, Z), reach(Z, Y).\n",
    );
    for j in 1..=fan {
        let _ = writeln!(src, "edge(0, {j}).");
    }
    parse_unit(&src).expect("star parses")
}

fn open(fan: usize) -> Arc<Server> {
    Server::open(&star(fan), ServeConfig::default(), None)
        .expect("open")
        .0
}

/// What the session wrote, and in how many `write` calls.
#[derive(Clone, Default)]
struct Wire {
    bytes: Rc<RefCell<Vec<u8>>>,
    writes: Rc<Cell<usize>>,
}

impl Wire {
    fn text(&self) -> String {
        String::from_utf8(self.bytes.borrow().clone()).expect("replies are UTF-8")
    }
}

impl Write for Wire {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.writes.set(self.writes.get() + 1);
        self.bytes.borrow_mut().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Hands out `chunk` in one `read`; the next `read` is the point where
/// a socket would block, so it records what the wire holds by then and
/// reports the end of input.
struct OneChunk {
    chunk: Option<Vec<u8>>,
    wire: Wire,
    on_wire_when_blocking: Rc<RefCell<Option<String>>>,
}

impl Read for OneChunk {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self.chunk.take() {
            Some(chunk) => {
                assert!(chunk.len() <= buf.len(), "the chunk must arrive whole");
                buf[..chunk.len()].copy_from_slice(&chunk);
                Ok(chunk.len())
            }
            None => {
                self.on_wire_when_blocking
                    .borrow_mut()
                    .get_or_insert_with(|| self.wire.text());
                Ok(0)
            }
        }
    }
}

/// Runs one session over `input` arriving as a single chunk. Returns
/// the wire and what it held when the loop first ran out of input.
fn session(server: &Arc<Server>, input: &str) -> (Wire, String) {
    let wire = Wire::default();
    let seen = Rc::new(RefCell::new(None));
    let reader = OneChunk {
        chunk: Some(input.as_bytes().to_vec()),
        wire: wire.clone(),
        on_wire_when_blocking: Rc::clone(&seen),
    };
    let mut conn = Connection::new(Arc::clone(server));
    serve_session(&mut conn, BufReader::new(reader), wire.clone()).expect("session");
    let seen = seen.borrow_mut().take().unwrap_or_default();
    (wire, seen)
}

/// The reply the protocol promises for `reach(0, Y)` on a star: rows in
/// value order.
fn star_reply(fan: usize) -> String {
    let rows: String = (1..=fan).map(|j| format!("reach(0, {j}).\n")).collect();
    format!("ok epoch=0 route=direct rows={fan}\n{rows}end\n")
}

#[test]
fn one_request_leaves_in_exactly_one_write() {
    let server = open(200);
    let (wire, _) = session(&server, "query reach(0, Y).\n");
    assert_eq!(wire.text(), star_reply(200));
    assert_eq!(
        wire.writes.get(),
        1,
        "header, 200 rows and `end` in one write"
    );
}

#[test]
fn pipelined_requests_coalesce_and_stay_in_order() {
    let server = open(200);
    // Small replies: fifty requests in one chunk, one write.
    let (wire, _) = session(&server, &"ping.\n".repeat(50));
    assert_eq!(wire.text(), "ok pong\n".repeat(50));
    assert_eq!(wire.writes.get(), 1);

    // Replies beyond the buffer: written as the buffer fills, never
    // per line or per reply, and in request order.
    let n = 120;
    let mut input = String::new();
    let mut expect = String::new();
    for k in 0..n {
        if k % 2 == 0 {
            input.push_str("query reach(0, Y).\n");
            expect.push_str(&star_reply(200));
        } else {
            let _ = writeln!(input, "query reach(0, {k}).");
            let _ = write!(
                expect,
                "ok epoch=0 route=direct rows=1\nreach(0, {k}).\nend\n"
            );
        }
    }
    let (wire, _) = session(&server, &input);
    assert_eq!(wire.text(), expect);
    let bytes = expect.len();
    assert!(
        bytes > 2 * REPLY_BUF_BYTES,
        "the case must overflow the buffer"
    );
    assert!(
        wire.writes.get() <= bytes.div_ceil(REPLY_BUF_BYTES) + 1,
        "{} writes for {bytes} bytes",
        wire.writes.get()
    );
}

#[test]
fn a_partial_trailing_line_does_not_hold_back_finished_replies() {
    let server = open(200);
    let (wire, on_wire_when_blocking) = session(&server, "query reach(0, 7).\nquery reach(0, 9)");
    let first = "ok epoch=0 route=direct rows=1\nreach(0, 7).\nend\n";
    let second = "ok epoch=0 route=direct rows=1\nreach(0, 9).\nend\n";
    assert_eq!(
        on_wire_when_blocking, first,
        "the first reply must be out before the loop waits for the rest of the second request"
    );
    // The input then ended: the unterminated last line is still a
    // request, as it always was.
    assert_eq!(wire.text(), format!("{first}{second}"));
    assert_eq!(wire.writes.get(), 2);
}

#[test]
fn quit_flushes_what_is_pending_and_ends_the_session() {
    let server = open(200);
    let (wire, _) = session(&server, "ping.\nepoch.\nquit.\nping.\n");
    assert_eq!(wire.text(), "ok pong\nok epoch=0 oldest=0\n");
    assert_eq!(wire.writes.get(), 1);
}

/// A daemon on a real loopback socket, and a `TCP_NODELAY` client.
fn listen(server: &Arc<Server>) -> (BufReader<TcpStream>, TcpStream) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let server = Arc::clone(server);
    // Runs until the test process exits.
    std::thread::spawn(move || server.serve_listener(&listener));
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .expect("timeout");
    (BufReader::new(stream.try_clone().expect("clone")), stream)
}

/// Reads one framed query reply, returning its lines without the frame.
fn read_reply(reader: &mut BufReader<TcpStream>) -> Vec<String> {
    let mut line = String::new();
    reader.read_line(&mut line).expect("header");
    assert!(line.starts_with("ok epoch=0 "), "header: {line:?}");
    let mut rows = Vec::new();
    loop {
        line.clear();
        assert_ne!(
            reader.read_line(&mut line).expect("row"),
            0,
            "reply cut short"
        );
        if line == "end\n" {
            return rows;
        }
        rows.push(line.trim_end().to_owned());
    }
}

#[test]
fn fifty_round_trips_do_not_wait_for_delayed_acks() {
    let server = open(1000);
    let (mut reader, mut writer) = listen(&server);
    let started = Instant::now();
    for _ in 0..50 {
        writer.write_all(b"query reach(0, Y).\n").expect("request");
        assert_eq!(read_reply(&mut reader).len(), 1000);
    }
    let took = started.elapsed();
    // A reply split over two small writes without TCP_NODELAY waits
    // ≈ 40 ms for the client's delayed ACK: 50 of them take over 2 s.
    assert!(
        took < Duration::from_secs(1),
        "50 round trips of 1000 rows took {took:?}"
    );
}

#[test]
fn a_pipelined_burst_is_answered_completely_and_in_order() {
    let server = open(1000);
    let (mut reader, mut writer) = listen(&server);
    let mut burst = String::new();
    for k in 1..=64 {
        if k % 2 == 0 {
            burst.push_str("query reach(0, Y).\n");
        } else {
            let _ = writeln!(burst, "query reach(0, {k}).");
        }
    }
    writer.write_all(burst.as_bytes()).expect("burst");
    for k in 1..=64 {
        let rows = read_reply(&mut reader);
        if k % 2 == 0 {
            assert_eq!(rows.len(), 1000, "reply {k}");
        } else {
            assert_eq!(rows, [format!("reach(0, {k}).")], "reply {k}");
        }
    }
    writer.write_all(b"ping.\n").expect("ping");
    let mut line = String::new();
    reader.read_line(&mut line).expect("pong");
    assert_eq!(line, "ok pong\n", "nothing extra was sent");
}

#[test]
fn a_session_past_its_burst_is_served_on_the_clock() {
    let server = open(8);
    let (mut reader, mut writer) = listen(&server);
    let extra = 200;
    let n = SESSION_BURST + extra;
    let started = Instant::now();
    writer
        .write_all("query reach(0, 3).\n".repeat(n as usize).as_bytes())
        .expect("requests");
    for k in 1..=n {
        assert_eq!(read_reply(&mut reader), ["reach(0, 3)."], "reply {k}");
    }
    let took = started.elapsed();
    // The burst is free; every request after it waits for its slot,
    // and only the last reply is out before its own wait.
    let slot = Duration::from_secs(1) / SESSION_RATE_PER_S;
    assert!(took >= slot * (extra - 1), "{n} requests in {took:?}");
    assert!(took < slot * extra + Duration::from_secs(2), "{took:?}");
}

#[test]
fn a_closed_loop_of_commits_is_acknowledged_one_per_slot() {
    let server = open(8);
    let (mut reader, mut writer) = listen(&server);
    let n = 50;
    let mut line = String::new();
    let started = Instant::now();
    for k in 1..=n {
        let request = format!("+edge({}, {}).\ncommit.\n", 100 + k, 101 + k);
        writer.write_all(request.as_bytes()).expect("request");
        line.clear();
        reader.read_line(&mut line).expect("ack");
        assert!(
            line.starts_with(&format!("ok epoch={k} ")),
            "ack {k}: {line:?}"
        );
    }
    let took = started.elapsed();
    // The first is acknowledged when it is done, each one after it no
    // sooner than a commit slot after the one before.
    let slot = Duration::from_secs(1) / SESSION_COMMITS_PER_S;
    assert!(took >= slot * (n - 1), "{n} commits in {took:?}");
    assert!(took < slot * n + Duration::from_secs(2), "{took:?}");
    assert_eq!(server.stats().epoch, u64::from(n));
}
