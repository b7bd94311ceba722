//! Robustness: the parser must never panic — any input yields `Ok` or a
//! positioned error — and everything it accepts must round-trip through
//! `Display`.

use semrec::datalog::analysis::{check, validate};
use semrec::datalog::parser::{parse_atom, parse_unit, Unit};
use semrec::datalog::{Term, Value};
use semrec::engine::{int_tuple, tx_to_stream, Tx, TxStreamEvent, TxStreamParser};
use semrec::gen::rng::Rng;

/// A printable-character soup of random length.
fn byte_soup(rng: &mut Rng) -> String {
    let len = rng.gen_range(0..200usize);
    (0..len)
        .map(|_| {
            // Mostly ASCII printables, with some multi-byte chars mixed in.
            match rng.gen_range(0..20usize) {
                0 => 'λ',
                1 => '→',
                2 => '\u{1F600}',
                3 => '\t',
                4 => '\n',
                _ => rng.gen_range(0x20..0x7Fi64) as u8 as char,
            }
        })
        .collect()
}

/// Arbitrary byte soup never panics the parser.
#[test]
fn parse_unit_never_panics() {
    for case in 0u64..256 {
        let mut rng = Rng::seed_from_u64(0x9A12 + case);
        let src = byte_soup(&mut rng);
        let _ = parse_unit(&src);
    }
}

/// A unit as source text, one clause per line, through `Display`.
fn render(unit: &Unit) -> String {
    unit.rules
        .iter()
        .map(|r| format!("{r}\n"))
        .chain(unit.facts.atoms().map(|f| format!("{f}.\n")))
        .chain(unit.constraints.iter().map(|c| format!("{c}\n")))
        .collect()
}

/// Syntax-shaped soup (drawn from the token alphabet) never panics and
/// round-trips when accepted.
#[test]
fn tokenish_inputs_roundtrip() {
    const ALPHABET: &[&str] = &[
        "p",
        "q",
        "X",
        "Y",
        "42",
        "(",
        ")",
        ",",
        ".",
        ":-",
        "->",
        "ic",
        ":",
        "!",
        "<=",
        "=",
        "\"s\"",
        "\"λ\"",
        "'x'",
        r#""a\\b""#,
        "-7",
        "// comment\n",
    ];
    for case in 0u64..256 {
        let mut rng = Rng::seed_from_u64(0xAB34 + case);
        let n = rng.gen_range(0..24usize);
        let tokens: Vec<&str> = (0..n)
            .map(|_| ALPHABET[rng.gen_range(0..ALPHABET.len())])
            .collect();
        let src = tokens.join(" ");
        if let Ok(unit) = parse_unit(&src) {
            // Whatever parsed must re-parse identically from its Display.
            let back = parse_unit(&render(&unit)).expect("display must re-parse");
            assert_eq!(unit.rules, back.rules, "case {case}: {src}");
            assert_eq!(unit.facts, back.facts, "case {case}: {src}");
            assert_eq!(
                unit.constraints.len(),
                back.constraints.len(),
                "case {case}: {src}"
            );
        }
    }
}

/// Every constant survives `parse(display(v)) == v`: strings of
/// multibyte and control characters, both quote kinds and backslashes
/// (the escape grammar the lexer reads is the one `Display` writes), and
/// integers to both ends of `i64`.
#[test]
fn constants_roundtrip_through_display() {
    const PALETTE: &[char] = &[
        'a',
        'Z',
        '0',
        ' ',
        '_',
        'u',
        '{',
        '}',
        'λ',
        '→',
        '\u{1F600}',
        '\u{301}',
        '\u{200B}',
        '\n',
        '\t',
        '\r',
        '\0',
        '\u{1}',
        '\u{7F}',
        '\u{85}',
        '"',
        '\'',
        '\\',
    ];
    for case in 0u64..512 {
        let mut rng = Rng::seed_from_u64(0xE1F0 + case);
        let len = rng.gen_range(0..12usize);
        let s: String = (0..len)
            .map(|_| PALETTE[rng.gen_range(0..PALETTE.len())])
            .collect();
        let n = match case {
            0 => i64::MIN,
            1 => i64::MAX,
            _ => rng.gen_range(-1_000_000..1_000_000i64),
        };
        let want = vec![Term::Const(Value::str(&s)), Term::Const(Value::Int(n))];
        let text = format!("p({}, {})", want[0], want[1]);
        let back = parse_atom(&text).unwrap_or_else(|e| panic!("case {case}: {text}: {e}"));
        assert_eq!(back.args, want, "case {case}: {text}");
    }
}

/// Every generator bundle `semrec gen` writes, with its facts inline,
/// parses, displays and re-parses to the identical unit: rules, facts and
/// constraints, in order.
#[test]
fn generator_bundles_roundtrip_through_display() {
    use semrec::gen::{export, fanout, flights, genealogy, org, parse_scenario, university};
    let bundles = [
        (
            parse_scenario(org::PROGRAM),
            org::generate(&org::OrgParams::default()),
        ),
        (
            parse_scenario(university::PROGRAM),
            university::generate(&university::UniversityParams::default()),
        ),
        (
            parse_scenario(genealogy::PROGRAM),
            genealogy::generate(&genealogy::GenealogyParams::default()),
        ),
        (
            parse_scenario(fanout::PROGRAM),
            fanout::generate(&fanout::FanoutParams::default()),
        ),
        (
            parse_scenario(flights::PROGRAM),
            flights::generate(&flights::FlightsParams::default()),
        ),
    ];
    for (scenario, db) in &bundles {
        let unit = parse_unit(&export::to_dl(scenario, Some(db))).expect("bundle parses");
        assert_eq!(unit.facts.len(), db.total_tuples());
        let back = parse_unit(&render(&unit)).expect("display re-parses");
        assert_eq!(unit.rules, back.rules);
        assert_eq!(unit.facts, back.facts);
        assert_eq!(unit.constraints, back.constraints);
    }
}

/// Atom parsing is total (no panics) on arbitrary input.
#[test]
fn parse_atom_never_panics() {
    for case in 0u64..256 {
        let mut rng = Rng::seed_from_u64(0xBC56 + case);
        let src = byte_soup(&mut rng);
        let _ = parse_atom(&src);
    }
}

// ---------------------------------------------------------------------
// Streaming transaction parser (`semrec serve`'s write protocol): a
// malformed line condemns exactly the transaction it arrived in, with a
// typed, line-numbered error; the stream itself stays alive and the
// next transaction parses cleanly.
// ---------------------------------------------------------------------

/// Directed: the malformed line errors immediately, later ops in the
/// doomed transaction are swallowed, the `commit.` re-surfaces the same
/// error, and the following transaction is unaffected.
#[test]
fn stream_malformed_line_condemns_one_transaction() {
    let mut p = TxStreamParser::new();
    assert!(matches!(p.feed("+edge(1, 2)."), Ok(TxStreamEvent::Queued)));
    let err = p.feed("+edge(1,").expect_err("unterminated op must reject");
    assert_eq!(err.line, 2, "error carries the stream line number");
    assert!(p.is_poisoned());
    // Ops after the poison are swallowed, not silently committed.
    assert!(matches!(p.feed("+edge(7, 8)."), Ok(TxStreamEvent::Queued)));
    let at_commit = p.feed("commit.").expect_err("doomed tx fails at commit");
    assert_eq!(at_commit.line, 2, "commit re-reports the original error");
    // The stream survives: the next transaction is clean.
    assert!(!p.is_poisoned());
    assert!(matches!(p.feed("+edge(3, 4)."), Ok(TxStreamEvent::Queued)));
    match p.feed("commit.") {
        Ok(TxStreamEvent::Committed(Some(tx))) => {
            assert_eq!(tx_to_stream(&tx), "+edge(3, 4).\ncommit.\n");
        }
        other => panic!("expected a clean commit, got {other:?}"),
    }
}

/// Every op `tx_to_stream` renders feeds back through the stream parser
/// to an identical transaction (the WAL replay invariant).
#[test]
fn stream_roundtrips_tx_to_stream() {
    for case in 0u64..64 {
        let mut rng = Rng::seed_from_u64(0xCD78 + case);
        let mut tx = Tx::new();
        for _ in 0..rng.gen_range(1..8usize) {
            let t = int_tuple(&[rng.gen_range(0..50i64), rng.gen_range(0..50i64)]);
            if rng.gen_bool(0.7) {
                tx.insert("edge", t);
            } else {
                tx.delete("edge", t);
            }
        }
        let rendered = tx_to_stream(&tx);
        let mut p = TxStreamParser::new();
        let mut committed = Vec::new();
        for line in rendered.lines() {
            match p.feed(line).expect("rendered stream must parse") {
                TxStreamEvent::Queued => {}
                TxStreamEvent::Committed(done) => committed.push(done),
            }
        }
        assert_eq!(committed.len(), 1, "case {case}: exactly one commit");
        let back = committed.pop().unwrap().expect("non-empty tx");
        assert_eq!(
            tx_to_stream(&back),
            rendered,
            "case {case}: stream round-trip"
        );
    }
}

/// Seeded soup: random valid ops, garbage lines, comments, and commits
/// interleaved. Invariants: `feed` never panics, every error is typed
/// with the exact 1-based line number of a garbage line, a transaction
/// containing garbage never commits, and a garbage-free transaction
/// always commits cleanly — no matter what came before it.
#[test]
fn stream_soup_rejects_typed_and_recovers() {
    for case in 0u64..128 {
        let mut rng = Rng::seed_from_u64(0xDE9A + case);
        let mut p = TxStreamParser::new();
        let mut line_no = 0u64;
        let mut tx_dirty = false;
        let mut saw_reject = false;
        let mut saw_commit = false;
        for _ in 0..rng.gen_range(10..60usize) {
            line_no += 1;
            let kind = rng.gen_range(0..10usize);
            match kind {
                // Garbage: soup that cannot be a tx op. Prefix with '+'
                // so it cannot be mistaken for a blank/comment no-op.
                0 | 1 => {
                    let soup = format!("+({}", byte_soup(&mut rng).replace('\n', " "));
                    let was_poisoned = p.is_poisoned();
                    let err = p.feed(&soup).err();
                    if was_poisoned {
                        assert!(err.is_none(), "case {case}: doomed tx swallows ops");
                    } else {
                        let err = err.expect("garbage must reject");
                        assert_eq!(err.line, line_no, "case {case}: line number");
                        saw_reject = true;
                    }
                    tx_dirty = true;
                }
                // Commit: doomed iff the tx saw garbage.
                2 | 3 => match p.feed("commit.") {
                    Ok(TxStreamEvent::Committed(_)) => {
                        assert!(!tx_dirty, "case {case}: dirty tx must not commit");
                        saw_commit = true;
                        tx_dirty = false;
                    }
                    Err(e) => {
                        assert!(tx_dirty, "case {case}: clean tx must commit");
                        assert!(e.line < line_no, "case {case}: error cites the bad line");
                        tx_dirty = false;
                    }
                    Ok(TxStreamEvent::Queued) => panic!("case {case}: commit. must commit"),
                },
                // Comment / blank: no-ops in any state.
                4 => assert!(matches!(p.feed("% noise"), Ok(TxStreamEvent::Queued))),
                // Valid op.
                _ => {
                    let l = format!(
                        "{}p({}, {}).",
                        if rng.gen_bool(0.8) { '+' } else { '-' },
                        rng.gen_range(0..9i64),
                        rng.gen_range(0..9i64)
                    );
                    assert!(
                        matches!(p.feed(&l), Ok(TxStreamEvent::Queued)),
                        "case {case}: valid op must queue"
                    );
                }
            }
        }
        // Make every case end by proving recovery end-to-end: flush
        // whatever transaction is in progress (doomed or not), then a
        // fresh one must commit cleanly.
        let _ = p.feed("commit.");
        p.feed("+p(1, 1).").expect("recovered stream accepts ops");
        assert!(matches!(
            p.feed("commit."),
            Ok(TxStreamEvent::Committed(Some(_)))
        ));
        let _ = (saw_reject, saw_commit);
    }
}

/// Syntactically fine, but a predicate with two arities: the parser
/// accepts it, analysis rejects it with a typed error that names the
/// offending constraint or fact.
#[test]
fn arity_clashes_are_typed_analysis_errors() {
    let rules = "t(X, Y) :- e(X, Y). t(X, Y) :- e(X, Z), t(Z, Y).";
    for (tail, says) in [
        (
            "ic ar: e(X) -> w(X, W).",
            "analysis error: constraint ar uses e with arity 1, \
             but e has arity 2 in the program's rules",
        ),
        (
            "ic: e(X, Y) -> t(X).",
            "analysis error: constraint ic: e(X, Y) -> t(X). uses t with arity 1, \
             but t has arity 2 in the program's rules",
        ),
        (
            "ic c1: g(X) -> h(X). ic c2: e(X, Y), g(X, Y) -> .",
            "analysis error: constraint c2 uses g with arity 2, \
             but g has arity 1 in constraint c1",
        ),
    ] {
        let unit = parse_unit(&format!("{rules} {tail}")).expect("parses");
        let err = validate(&unit.program(), &unit.constraints).unwrap_err();
        assert_eq!(err.to_string(), says);
    }
    let unit = parse_unit(&format!("{rules} e(1, 2). e(3).")).expect("parses");
    assert!(validate(&unit.program(), &unit.constraints).is_ok());
    let err = check(&unit.program(), &unit.constraints, &unit.facts).unwrap_err();
    assert_eq!(
        err.to_string(),
        "analysis error: fact e(3) has arity 1, but e has arity 2 elsewhere in the source"
    );
    // Constraint-only predicates are legal when the constraints agree.
    let unit = parse_unit(&format!("{rules} ic: e(X, Y) -> w(Y, Z). w(1, 2).")).unwrap();
    let arities = check(&unit.program(), &unit.constraints, &unit.facts)
        .unwrap()
        .arities;
    assert_eq!(arities[&semrec::datalog::Pred::new("w")], 2);
}
