//! Shared by the integration suites, pulled in by `mod common;`: the
//! naive oracle, the compile-step and parser oracles, the route matrix
//! and its case generators, and what a session puts on the wire.

#![allow(dead_code)] // each suite uses its own subset

pub mod cases;
pub mod compile;
pub mod naive;
pub mod parser;
pub mod routes;

use semrec::datalog::Pred;
use semrec::serve::protocol::{render_fact, route_tag};
use semrec::serve::{serve_session, Connection, QueryReply, Server};
use std::io::BufReader;
use std::sync::Arc;

/// The bytes a fresh session writes for `requests` (newline-separated
/// request lines), through the same loop every transport runs.
pub fn wire(server: &Arc<Server>, requests: &str) -> String {
    let mut conn = Connection::new(Arc::clone(server));
    let mut out = Vec::new();
    serve_session(&mut conn, BufReader::new(requests.as_bytes()), &mut out).expect("session");
    String::from_utf8(out).expect("replies are UTF-8")
}

/// The framed reply the protocol defines for `reply`: header, one
/// rendered fact per tuple, `end`.
pub fn frame(pred: Pred, reply: &QueryReply) -> String {
    let mut s = format!(
        "ok epoch={} route={} rows={}\n",
        reply.epoch,
        route_tag(reply.route),
        reply.tuples.len()
    );
    for t in &reply.tuples {
        s.push_str(&render_fact(pred, t));
        s.push('\n');
    }
    s.push_str("end\n");
    s
}
