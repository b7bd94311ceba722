//! Parser for programs, facts and integrity constraints.
//!
//! Surface syntax (Prolog-like, as in the paper):
//!
//! ```text
//! % rules
//! anc(X, Xa, Y, Ya) :- par(X, Xa, Y, Ya).
//! anc(X, Xa, Y, Ya) :- anc(X, Xa, Z, Za), par(Z, Za, Y, Ya).
//!
//! % ground facts
//! par(ann, 70, bea, 40).
//!
//! % integrity constraints ("ic [name]: body -> head ."; empty head = denial)
//! ic ic1: Ya <= 50, par(Z, Za, Y, Ya), par(Z1, Z1a, Z, Za),
//!         par(Z2, Z2a, Z1, Z1a) -> .
//! ```
//!
//! Variables start with an uppercase letter or `_`; symbolic constants are
//! lowercase identifiers or quoted strings; comparisons use
//! `=, !=, <, <=, >, >=`.

mod lexer;

pub(crate) use lexer::write_str_literal;
pub use lexer::{lex, line_col, unescape, Lexer, Token, TokenKind};

use crate::atom::{Atom, Pred};
use crate::constraint::{Constraint, IcHead};
use crate::error::Error;
use crate::facts::Facts;
use crate::literal::{Cmp, CmpOp, Literal};
use crate::program::Program;
use crate::rule::Rule;
use crate::symbol::Symbol;
use crate::term::{Term, Value};
use crate::word::Word;

/// The result of parsing a source unit: rules, ground facts and constraints.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Unit {
    /// Rules with non-empty bodies.
    pub rules: Vec<Rule>,
    /// Ground facts (`p(c1, …, cn).`), as word rows.
    pub facts: Facts,
    /// Integrity constraints.
    pub constraints: Vec<Constraint>,
}

impl Unit {
    /// The rules as a [`Program`] (facts are not included).
    pub fn program(&self) -> Program {
        Program::new(self.rules.clone())
    }
}

/// Parses a mixed source unit (rules, facts, constraints).
pub fn parse_unit(src: &str) -> Result<Unit, Error> {
    Parser::new(src).unit()
}

/// Parses a source containing only constraints (plus comments).
pub fn parse_constraints(src: &str) -> Result<Vec<Constraint>, Error> {
    let unit = parse_unit(src)?;
    if !unit.rules.is_empty() || !unit.facts.is_empty() {
        return Err(Error::analysis(
            "expected only constraints in this source".to_owned(),
        ));
    }
    Ok(unit.constraints)
}

/// Parses a single rule.
pub fn parse_rule(src: &str) -> Result<Rule, Error> {
    let unit = parse_unit(src)?;
    let mut facts = unit.facts.atoms();
    match (&unit.rules[..], facts.next(), facts.next()) {
        ([r], None, _) => Ok(r.clone()),
        ([], Some(f), None) => Ok(Rule::fact(f)),
        _ => Err(Error::analysis("expected exactly one rule")),
    }
}

/// Parses a single atom (no trailing dot required).
pub fn parse_atom(src: &str) -> Result<Atom, Error> {
    let mut p = Parser::new(src);
    let a = p.atom()?;
    p.expect_eof()?;
    Ok(a)
}

/// Recursive descent over the on-demand [`Lexer`]. Between atoms it
/// holds two tokens of lookahead (`cur`, `next`); an atom's argument list
/// is scanned straight from the source bytes ([`Parser::atom_args`]), and
/// no token is built for its arguments, commas, `)` or a fact's closing
/// `.`. Every error is raised where the parser stands, so the first error
/// in source order is the one reported: a lexical error in `next` waits
/// as a [`TokenKind::Error`] token until the parser reaches it, and the
/// argument loop reads nothing past the argument it is at.
struct Parser<'a> {
    lexer: Lexer<'a>,
    cur: Token<'a>,
    next: Token<'a>,
    /// One-entry predicate-name cache: facts come in runs of one
    /// predicate, and a run interns its name once.
    last_pred: Option<(&'a str, Pred)>,
    /// A ground atom's arguments, as the words a fact row stores; reused
    /// across atoms.
    row: Vec<Word>,
    /// A non-ground atom's arguments: `row`'s words up to the first
    /// variable, then every argument; reused across atoms.
    args: Vec<Term>,
    /// An escaped string literal's text, unescaped to be interned;
    /// reused across literals.
    text: String,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Parser<'a> {
        let mut lexer = Lexer::new(src);
        let cur = lexer.next_token();
        let next = lexer.next_token();
        Parser {
            lexer,
            cur,
            next,
            last_pred: None,
            row: Vec::new(),
            args: Vec::new(),
            text: String::new(),
        }
    }

    fn bump(&mut self) {
        self.cur = std::mem::replace(&mut self.next, self.lexer.next_token());
    }

    /// Refills the lookahead from where the lexer stands.
    fn refill(&mut self) {
        self.cur = self.lexer.next_token();
        self.next = self.lexer.next_token();
    }

    fn err_here(&self, msg: impl Into<String>) -> Error {
        if let (TokenKind::Error, Some(e)) = (self.cur.kind, self.lexer.error()) {
            return e.clone();
        }
        let (line, col) = line_col(self.lexer.src(), self.cur.start);
        Error::parse(line, col, msg)
    }

    /// `expected {what}, found {the current token}`.
    fn unexpected(&self, what: &str) -> Error {
        self.err_here(format!(
            "expected {what}, found {}",
            self.cur.kind.describe()
        ))
    }

    fn expect(&mut self, kind: TokenKind<'_>) -> Result<(), Error> {
        if self.cur.kind == kind {
            self.bump();
            Ok(())
        } else {
            Err(self.unexpected(&kind.describe()))
        }
    }

    fn expect_eof(&mut self) -> Result<(), Error> {
        if self.cur.kind == TokenKind::Eof {
            Ok(())
        } else {
            Err(self.unexpected("end of input"))
        }
    }

    fn unit(&mut self) -> Result<Unit, Error> {
        let mut out = Unit::default();
        while self.cur.kind != TokenKind::Eof {
            if self.at_constraint_start() {
                out.constraints.push(self.constraint()?);
                continue;
            }
            let (pred, ground) = self.atom_args()?;
            if self.lexer.eat(b'.') {
                if ground {
                    out.facts.push(pred, &self.row);
                } else {
                    // Non-ground bodyless clause: keep as a rule so
                    // range-restriction analysis reports it.
                    out.rules
                        .push(Rule::fact(Atom::new(pred, self.args.to_vec())));
                }
                self.refill();
                continue;
            }
            self.refill();
            if self.cur.kind != TokenKind::ColonDash {
                return Err(self.unexpected("`.` or `:-`"));
            }
            self.bump();
            let head = Atom::new(pred, self.take_args(ground));
            let body = self.literals()?;
            self.expect(TokenKind::Dot)?;
            out.rules.push(Rule::new(head, body));
        }
        Ok(out)
    }

    fn at_constraint_start(&self) -> bool {
        // `ic` then either `:` or `name :` begins a constraint; `ic(` is an
        // ordinary atom.
        self.cur.kind == TokenKind::Ident("ic")
            && matches!(self.next.kind, TokenKind::Colon | TokenKind::Ident(_))
    }

    fn constraint(&mut self) -> Result<Constraint, Error> {
        self.bump(); // `ic`
        let name = if let TokenKind::Ident(n) = self.cur.kind {
            self.bump();
            Some(Symbol::intern(n))
        } else {
            None
        };
        self.expect(TokenKind::Colon)?;
        let body = self.literals()?;
        self.expect(TokenKind::Arrow)?;
        let head = if self.cur.kind == TokenKind::Dot {
            IcHead::None
        } else {
            match self.literal()? {
                Literal::Atom(a) => IcHead::Atom(a),
                Literal::Neg(_) => {
                    return Err(self.err_here("negated subgoals are not allowed in constraints"));
                }
                Literal::Cmp(c) => IcHead::Cmp(c),
            }
        };
        self.expect(TokenKind::Dot)?;
        let mut atoms = Vec::new();
        let mut cmps = Vec::new();
        for l in body {
            match l {
                Literal::Atom(a) => atoms.push(a),
                Literal::Neg(_) => {
                    return Err(self.err_here("negated subgoals are not allowed in constraints"));
                }
                Literal::Cmp(c) => cmps.push(c),
            }
        }
        if atoms.is_empty() {
            return Err(self.err_here("constraint body needs at least one database atom"));
        }
        let mut ic = Constraint::new(atoms, cmps, head);
        ic.name = name;
        Ok(ic)
    }

    fn literals(&mut self) -> Result<Vec<Literal>, Error> {
        let mut out = vec![self.literal()?];
        while self.cur.kind == TokenKind::Comma {
            self.bump();
            out.push(self.literal()?);
        }
        Ok(out)
    }

    fn literal(&mut self) -> Result<Literal, Error> {
        // `!atom` is a (stratified) negated subgoal.
        if self.cur.kind == TokenKind::Bang {
            self.bump();
            return Ok(Literal::Neg(self.atom()?));
        }
        // An atom begins with `ident (`; anything else that parses as a term
        // must continue as a comparison.
        if matches!(self.cur.kind, TokenKind::Ident(_)) && self.next.kind == TokenKind::LParen {
            return Ok(Literal::Atom(self.atom()?));
        }
        let lhs = self.term()?;
        let op = self.cmp_op()?;
        let rhs = self.term()?;
        Ok(Literal::Cmp(Cmp::new(lhs, op, rhs)))
    }

    fn cmp_op(&mut self) -> Result<CmpOp, Error> {
        let op = match self.cur.kind {
            TokenKind::Eq => CmpOp::Eq,
            TokenKind::Ne => CmpOp::Ne,
            TokenKind::Lt => CmpOp::Lt,
            TokenKind::Le => CmpOp::Le,
            TokenKind::Gt => CmpOp::Gt,
            TokenKind::Ge => CmpOp::Ge,
            _ => return Err(self.unexpected("comparison operator")),
        };
        self.bump();
        Ok(op)
    }

    fn atom(&mut self) -> Result<Atom, Error> {
        let (pred, ground) = self.atom_args()?;
        let args = self.take_args(ground);
        self.refill();
        Ok(Atom::new(pred, args))
    }

    /// The arguments [`Parser::atom_args`] gathered, at exact size.
    fn take_args(&self, ground: bool) -> Vec<Term> {
        if ground {
            self.row.iter().map(|w| Term::Const(w.value())).collect()
        } else {
            self.args.to_vec()
        }
    }

    /// Parses the atom at `cur` and returns its predicate and whether it
    /// is ground: a ground atom's arguments are left in `row`, any
    /// other's in `args`. The arguments are scanned from the source bytes
    /// with the lexer's routines; the lexer is left just past the `)` and
    /// the lookahead is stale until the caller refills it.
    fn atom_args(&mut self) -> Result<(Pred, bool), Error> {
        let TokenKind::Ident(name) = self.cur.kind else {
            return Err(self.unexpected("predicate name"));
        };
        let pred = match self.last_pred {
            Some((last, pred)) if last == name => pred,
            _ => {
                let pred = Pred::new(name);
                self.last_pred = Some((name, pred));
                pred
            }
        };
        if self.next.kind != TokenKind::LParen {
            self.bump();
            return Err(self.unexpected("`(`"));
        }
        // `next` is the `(`, so the lexer stands just past it.
        let src = self.lexer.src();
        let bytes = src.as_bytes();
        self.row.clear();
        let mut ground = true;
        loop {
            let start = self.lexer.skip_trivia();
            let end = match bytes.get(start).copied() {
                Some(b'-' | b'0'..=b'9') if !src[start..].starts_with("->") => {
                    let (n, end) = self.lexer.int(start)?;
                    self.constant(ground, Value::Int(n));
                    end
                }
                Some(quote @ (b'\'' | b'"')) => {
                    let end = self.lexer.string(start, quote)?;
                    let value = self.string_value(&src[start + 1..end - 1]);
                    self.constant(ground, value);
                    end
                }
                Some(c) if c.is_ascii_alphabetic() || c == b'_' => {
                    let end = self.lexer.ident_end(start);
                    let text = &src[start..end];
                    if !lexer::is_var_start(c) {
                        self.constant(ground, Value::str(text));
                    } else {
                        if ground {
                            ground = false;
                            self.args.clear();
                            (self.args).extend(self.row.iter().map(|w| Term::Const(w.value())));
                        }
                        self.args.push(Term::Var(Symbol::intern(text)));
                    }
                    end
                }
                _ => return Err(self.unexpected_at(start, "term")),
            };
            self.lexer.seek(end);
            if !self.next_arg()? {
                return Ok((pred, ground));
            }
        }
    }

    /// Appends a constant argument: to the fact row while the atom is
    /// ground, as a term after its first variable.
    fn constant(&mut self, ground: bool, value: Value) {
        if ground {
            self.row.push(Word::new(value));
        } else {
            self.args.push(Term::Const(value));
        }
    }

    /// The constant a string literal's raw `body` stands for, unescaped
    /// into `text` when it has an escape.
    fn string_value(&mut self, body: &str) -> Value {
        if !body.contains('\\') {
            return Value::str(body);
        }
        self.text.clear();
        lexer::unescape_into(body, &mut self.text);
        Value::str(&self.text)
    }

    /// After an argument: true past a `,`, false past the closing `)`.
    fn next_arg(&mut self) -> Result<bool, Error> {
        let start = self.lexer.skip_trivia();
        let more = match self.lexer.src().as_bytes().get(start) {
            Some(b',') => true,
            Some(b')') => false,
            _ => return Err(self.unexpected_at(start, "`)`")),
        };
        self.lexer.seek(start + 1);
        Ok(more)
    }

    /// [`Parser::unexpected`] for the token at `start`, where the
    /// argument loop stands: that token's own error if it is a lexical
    /// one.
    fn unexpected_at(&mut self, start: usize, what: &str) -> Error {
        self.cur = self.lexer.token_at(start);
        self.unexpected(what)
    }

    fn term(&mut self) -> Result<Term, Error> {
        let t = match self.cur.kind {
            TokenKind::Var(v) => Term::Var(Symbol::intern(v)),
            TokenKind::Ident(c) => Term::Const(Value::str(c)),
            TokenKind::Int(i) => Term::Const(Value::Int(i)),
            TokenKind::Str(s) => Term::Const(self.string_value(s)),
            _ => return Err(self.unexpected("term")),
        };
        self.bump();
        Ok(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_rules_and_facts() {
        let unit = parse_unit(
            "anc(X, Y) :- par(X, Y).\n\
             anc(X, Y) :- anc(X, Z), par(Z, Y).\n\
             par(ann, bea). % a fact\n",
        )
        .unwrap();
        assert_eq!(unit.rules.len(), 2);
        assert_eq!(unit.facts.len(), 1);
        assert_eq!(
            unit.rules[1].to_string(),
            "anc(X, Y) :- anc(X, Z), par(Z, Y)."
        );
        assert_eq!(
            unit.facts.atoms().next().unwrap().to_string(),
            "par(ann, bea)"
        );
    }

    #[test]
    fn parse_constraint_with_head() {
        let ics =
            parse_constraints("ic ic1: works_with(P2, P1), expert(P1, F1) -> expert(P2, F1).")
                .unwrap();
        assert_eq!(ics.len(), 1);
        assert_eq!(ics[0].body_atoms.len(), 2);
        assert!(!ics[0].is_denial());
        assert_eq!(ics[0].name.unwrap().as_str(), "ic1");
    }

    #[test]
    fn parse_denial_with_cmp() {
        let ics = parse_constraints(
            "ic: Ya <= 50, par(Z, Za, Y, Ya), par(Z1, Z1a, Z, Za), par(Z2, Z2a, Z1, Z1a) -> .",
        )
        .unwrap();
        assert!(ics[0].is_denial());
        assert_eq!(ics[0].body_atoms.len(), 3);
        assert_eq!(ics[0].body_cmps.len(), 1);
    }

    #[test]
    fn parse_cmp_head() {
        let ics = parse_constraints("ic: pays(M, G, S, T), M > 10000 -> M < 50000.").unwrap();
        assert!(matches!(ics[0].head, IcHead::Cmp(_)));
    }

    #[test]
    fn parse_string_constants() {
        let r = parse_rule("q(X) :- boss(E, X, R), R = \"executive\".").unwrap();
        assert_eq!(r.body_cmps().count(), 1);
        let r2 = parse_rule("q(X) :- boss(E, X, R), R = executive.").unwrap();
        assert_eq!(
            r.body_cmps().next().unwrap(),
            r2.body_cmps().next().unwrap()
        );
    }

    #[test]
    fn ic_as_predicate_name_still_parses() {
        let unit = parse_unit("ic(X) :- p(X).").unwrap();
        assert_eq!(unit.rules.len(), 1);
        assert!(unit.constraints.is_empty());
    }

    #[test]
    fn roundtrip_through_display() {
        let src = "p(X, Y) :- e(X, Z), Z > 3, p(Z, Y).";
        let r = parse_rule(src).unwrap();
        let r2 = parse_rule(&r.to_string()).unwrap();
        assert_eq!(r, r2);
    }

    #[test]
    fn error_positions() {
        let err = parse_unit("p(X) :- q(X)").unwrap_err();
        assert!(matches!(err, Error::Parse { .. }));
        let err = parse_unit("p(X) q(X).").unwrap_err();
        assert!(err.to_string().contains("expected `.` or `:-`"));
    }

    #[test]
    fn first_error_in_source_order_wins() {
        // The parse error comes before the lexical one, so it is reported.
        assert_eq!(
            parse_unit("p(X) q(X). @").unwrap_err(),
            Error::parse(1, 6, "expected `.` or `:-`, found identifier `q`")
        );
        // A lexical error one token ahead of a good token waits its turn.
        assert_eq!(
            parse_unit("p(X) :- q(X), r @").unwrap_err(),
            Error::parse(1, 17, "unexpected character `@`")
        );
        // End of input after a trailing comment sits where the comment starts.
        assert_eq!(
            parse_unit("p(X) :- q(X) % no dot").unwrap_err(),
            Error::parse(1, 14, "expected `.`, found end of input")
        );
    }

    #[test]
    fn string_literals_roundtrip_through_display() {
        let a = parse_atom(r#"p("λ", "a\rb", 'it\'s', "\u{1F600}\0")"#).unwrap();
        let want = ["λ", "a\rb", "it's", "\u{1F600}\0"].map(Term::str);
        assert_eq!(a.args, want);
        assert_eq!(a.to_string(), r#"p("λ", "a\rb", "it's", "😀\0")"#);
        assert_eq!(parse_atom(&a.to_string()).unwrap(), a);
    }

    #[test]
    fn program_fromstr() {
        let p: Program = "t(X) :- e(X). t(X) :- e0(X), t(X).".parse().unwrap();
        assert_eq!(p.len(), 2);
        assert!("ic: a(X) -> .".parse::<Program>().is_err());
    }
}

#[cfg(test)]
mod negation_tests {
    use super::*;

    #[test]
    fn parses_negated_subgoals() {
        let r = parse_rule("open(X, Y) :- e(X, Y), !blocked(X).").unwrap();
        assert_eq!(r.body.len(), 2);
        let neg = r.body[1].as_neg().unwrap();
        assert_eq!(neg.pred.name(), "blocked");
        // Round-trips through Display.
        assert_eq!(r.to_string(), "open(X, Y) :- e(X, Y), !blocked(X).");
        assert_eq!(parse_rule(&r.to_string()).unwrap(), r);
    }

    #[test]
    fn bang_vs_not_equals() {
        let r = parse_rule("p(X, Y) :- e(X, Y), X != Y, !f(X).").unwrap();
        assert_eq!(r.body_cmps().count(), 1);
        assert_eq!(r.body.iter().filter(|l| l.as_neg().is_some()).count(), 1);
    }

    #[test]
    fn negation_rejected_in_constraints() {
        assert!(parse_unit("ic: a(X), !b(X) -> .").is_err());
        assert!(parse_unit("ic: a(X) -> !b(X).").is_err());
    }
}
