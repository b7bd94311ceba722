//! The parser against its oracle: the token-at-a-time parser of
//! `tests/common/parser.rs`. On every source, seeded or hand-written,
//! `parse_unit` and `parse_atom` must give what the oracle gives: an
//! equal unit (rules, fact groups and their rows in order, constraints)
//! or a byte-identical error, position included.

mod common;

use common::parser as oracle;
use semrec::datalog::parser::{parse_atom, parse_unit};
use semrec::gen::rng::Rng;
use std::collections::BTreeMap;

/// Integers on both sides of `i64`'s ends and of the inline-word range
/// (±2^62), and ordinary ones.
const INTS: &[&str] = &[
    "0",
    "7",
    "-3",
    "12003",
    "007",
    "-0",
    "-9223372036854775808",
    "9223372036854775807",
    "-9223372036854775807",
    "4611686018427387904",
    "4611686018427387903",
    "-4611686018427387904",
    "-4611686018427387905",
];

/// Quoted constants: every escape, both quote kinds, non-ASCII.
const STRS: &[&str] = &[
    r#""a b""#,
    r#""""#,
    r#"'x'"#,
    r#""λ→😀""#,
    r#""\n\t\r\0""#,
    r#""\\\"\'""#,
    r#"'it\'s'"#,
    r#""\u{1}\u{1F600}\u{10FFFF}""#,
    r#""\λ\q""#,
    r#""%not a comment""#,
];

const IDENTS: &[&str] = &["p", "q", "e", "ic", "witness", "a_b1", "x"];
const VARS: &[&str] = &["X", "Y", "_", "_foo", "Z1"];
const CMPS: &[&str] = &["=", "!=", "<", "<=", ">", ">="];

/// Tokens that break a clause: out-of-range integers, a lone `-`,
/// `12abc`, bad escapes, unterminated literals, stray characters, and
/// punctuation out of place.
const BAD: &[&str] = &[
    "9223372036854775808",
    "-9223372036854775809",
    "99999999999999999999999",
    "-",
    "- 5",
    "12abc",
    "1.5",
    r#""\u{zz}""#,
    r#""\u{110000}""#,
    r#""\u{}""#,
    r#""\u{1234567}""#,
    r#""\u1""#,
    r#""open"#,
    "'a\\",
    "@",
    "λ",
    "#",
    ";",
    "(",
    ")",
    ",",
    ".",
    ":-",
    ":",
    "->",
    "!",
    "=",
    "ic",
    "p",
    "X",
];

/// What goes between two tokens.
const TRIVIA: &[&str] = &[
    " ", " ", " ", "", "\t", "\n", "\r\n", "  ", " % c\n", "// c\r\n", "%\n",
];

fn pick<'a>(rng: &mut Rng, from: &[&'a str]) -> &'a str {
    from[rng.gen_range(0..from.len())]
}

fn term(rng: &mut Rng, ground: bool) -> String {
    match rng.gen_range(0..10usize) {
        0..=3 => pick(rng, INTS).to_owned(),
        4 => rng.gen_range(-100_000..100_000i64).to_string(),
        5 | 6 => pick(rng, STRS).to_owned(),
        7 => pick(rng, IDENTS).to_owned(),
        _ if ground => pick(rng, INTS).to_owned(),
        _ => pick(rng, VARS).to_owned(),
    }
}

fn atom(rng: &mut Rng, ground: bool, out: &mut Vec<String>) {
    out.push(pick(rng, IDENTS).to_owned());
    out.push("(".into());
    for i in 0..rng.gen_range(1..5usize) {
        if i > 0 {
            out.push(",".into());
        }
        out.push(term(rng, ground));
    }
    out.push(")".into());
}

fn literal(rng: &mut Rng, out: &mut Vec<String>) {
    match rng.gen_range(0..6usize) {
        0 => {
            out.push("!".into());
            atom(rng, false, out);
        }
        1 => {
            out.push(term(rng, false));
            out.push(pick(rng, CMPS).to_owned());
            out.push(term(rng, false));
        }
        _ => atom(rng, false, out),
    }
}

fn literals(rng: &mut Rng, out: &mut Vec<String>) {
    for i in 0..rng.gen_range(1..4usize) {
        if i > 0 {
            out.push(",".into());
        }
        literal(rng, out);
    }
}

/// One clause: mostly facts (some non-ground), then rules and
/// constraints, with or without a name or a head.
fn clause(rng: &mut Rng, out: &mut Vec<String>) {
    match rng.gen_range(0..10usize) {
        0..=4 => {
            let ground = rng.gen_bool(0.8);
            atom(rng, ground, out);
        }
        5..=7 => {
            atom(rng, false, out);
            out.push(":-".into());
            literals(rng, out);
        }
        _ => {
            out.push("ic".into());
            if rng.gen_bool(0.5) {
                out.push(pick(rng, IDENTS).to_owned());
            }
            out.push(":".into());
            literals(rng, out);
            out.push("->".into());
            if rng.gen_bool(0.6) {
                literal(rng, out);
            }
        }
    }
    out.push(".".into());
}

/// Damages a token list: a bad token put in, a token taken out or
/// swapped, or a syntax error with a lexical one right after it.
fn mutate(rng: &mut Rng, tokens: &mut Vec<String>) {
    let at = rng.gen_range(0..tokens.len() + 1);
    match rng.gen_range(0..4usize) {
        0 => tokens.insert(at, pick(rng, BAD).to_owned()),
        1 if at < tokens.len() => {
            tokens.remove(at);
        }
        2 if at < tokens.len() => tokens[at] = pick(rng, BAD).to_owned(),
        _ => {
            tokens.insert(at, pick(rng, &["p", "X", "(", ",", ":-", "7"]).to_owned());
            tokens.insert(
                at + 1,
                pick(rng, &["@", "λ", "-", "9223372036854775808", r#""\u{zz}""#]).to_owned(),
            );
        }
    }
}

/// The tokens as text, with trivia between them and, sometimes, a
/// comment that runs to the end of input.
fn join(rng: &mut Rng, tokens: &[String]) -> String {
    let mut src = String::new();
    for t in tokens {
        src.push_str(t);
        src.push_str(pick(rng, TRIVIA));
    }
    if rng.gen_bool(0.1) {
        src.push_str("% trailing");
    }
    src
}

/// Sources every run holds, whatever the seeds: the edges of each rule
/// the argument loop shares with the lexer.
const DIRECTED: &[&str] = &[
    "p(-9223372036854775808, 9223372036854775807).",
    "p(4611686018427387904, -4611686018427387904, 4611686018427387903, -4611686018427387905).",
    "p(9223372036854775808).",
    "p(-9223372036854775809).",
    "p(-).",
    "p(- 1).",
    "p(->).",
    "p(12abc).",
    "p(1 2).",
    "p().",
    "p(1,).",
    "p(\"\\u{zz}\").",
    "p(\"a\\u{1F600}\\n\", 'b\\'').",
    "p(\"open",
    "p(\"a\\",
    "ic(1, 2). ic(X) :- e(X). ic: e(X) -> ic(X).",
    "ic ic(X).",
    "p(X). p(1, X, \"s\"). p(X) :- q(X).",
    "p(X) q @",
    "p(X) q(X). @",
    "p(X) :- q(X), r @",
    "p(1 @)",
    "p(1, @",
    "p(1 2 @)",
    "p(X 9223372036854775808)",
    "p(1) % no dot",
    "p(1)\r\n\t// no dot",
    "p(1",
    "p(",
    "p",
    "p λ",
    "p\t(\r\n1 % one\n,\n// two\n2\t)\n.",
    "e(1, 2). w(1). e(2, 3). e(9). w(1). e(1, 2).",
];

fn same_unit(src: &str) {
    match (parse_unit(src), oracle::parse_unit(src)) {
        (Ok(got), Ok(want)) => assert_eq!(got, want, "unit of {src:?}"),
        (Err(got), Err(want)) => {
            assert_eq!(got.to_string(), want.to_string(), "error of {src:?}");
            assert_eq!(got, want, "error of {src:?}");
        }
        (got, want) => panic!("{src:?}: parser {got:?}, oracle {want:?}"),
    }
}

fn same_atom(src: &str) {
    match (parse_atom(src), oracle::parse_atom(src)) {
        (Ok(got), Ok(want)) => assert_eq!(got, want, "atom of {src:?}"),
        (Err(got), Err(want)) => assert_eq!(got.to_string(), want.to_string(), "error of {src:?}"),
        (got, want) => panic!("{src:?}: parser {got:?}, oracle {want:?}"),
    }
}

/// The first words of an error message, with its position cut off, so
/// the test can show which kinds of error the seeds reached.
fn error_kind(src: &str) -> String {
    match parse_unit(src) {
        Ok(_) => "ok".into(),
        Err(e) => {
            let msg = e.to_string();
            let msg = msg.split_once(": ").map_or(&msg[..], |(_, m)| m);
            msg.split(['`', ':']).next().unwrap_or("").trim().to_owned()
        }
    }
}

#[test]
fn parser_agrees_with_the_token_oracle() {
    for src in DIRECTED {
        same_unit(src);
        same_atom(src.trim_end_matches('.'));
    }
    let mut kinds: BTreeMap<String, usize> = BTreeMap::new();
    const CASES: u64 = 2400;
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(0x0AC1E + case);
        let mut tokens = Vec::new();
        for _ in 0..rng.gen_range(1..6usize) {
            clause(&mut rng, &mut tokens);
        }
        if rng.gen_bool(0.5) {
            for _ in 0..rng.gen_range(1..3usize) {
                mutate(&mut rng, &mut tokens);
            }
        }
        let src = join(&mut rng, &tokens);
        same_unit(&src);
        *kinds.entry(error_kind(&src)).or_default() += 1;

        let mut goal = Vec::new();
        let ground = rng.gen_bool(0.5);
        atom(&mut rng, ground, &mut goal);
        if rng.gen_bool(0.3) {
            mutate(&mut rng, &mut goal);
        }
        same_atom(&join(&mut rng, &goal));
    }
    eprintln!("parser_agreement: {CASES} seeded units and goals; outcomes {kinds:?}");
    // The seeds reach every outcome the argument loop decides alone.
    for kind in [
        "ok",
        "expected term, found",
        "expected",
        "integer out of range",
        "expected digits after",
        "invalid unicode escape",
        "unterminated string literal",
        "unexpected character",
    ] {
        assert!(
            kinds.get(kind).is_some_and(|&n| n >= 10),
            "seeds reach `{kind}` fewer than 10 times: {kinds:?}"
        );
    }
}
