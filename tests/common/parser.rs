//! The token-at-a-time parser, kept as the oracle of the product's.
//!
//! The product scans an atom's arguments straight from the source bytes;
//! this parser reads every argument, comma and parenthesis as a
//! [`Token`] from the shared [`Lexer`], with two tokens of lookahead, and
//! raises every error at its current token. The two must build equal
//! units and byte-identical errors (`tests/parser_agreement.rs`).

use semrec::datalog::parser::{line_col, unescape, Lexer, Token, TokenKind, Unit};
use semrec::datalog::{
    Atom, Cmp, CmpOp, Constraint, Error, IcHead, Literal, Pred, Rule, Symbol, Term, Value, Word,
};

/// [`semrec::datalog::parse_unit`], token by token.
pub fn parse_unit(src: &str) -> Result<Unit, Error> {
    Parser::new(src).unit()
}

/// [`semrec::datalog::parse_atom`], token by token.
pub fn parse_atom(src: &str) -> Result<Atom, Error> {
    let mut p = Parser::new(src);
    let a = p.atom()?;
    p.expect_eof()?;
    Ok(a)
}

struct Parser<'a> {
    lexer: Lexer<'a>,
    cur: Token<'a>,
    next: Token<'a>,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Parser<'a> {
        let mut lexer = Lexer::new(src);
        let cur = lexer.next_token();
        let next = lexer.next_token();
        Parser { lexer, cur, next }
    }

    fn bump(&mut self) {
        self.cur = std::mem::replace(&mut self.next, self.lexer.next_token());
    }

    fn err_here(&self, msg: impl Into<String>) -> Error {
        if let (TokenKind::Error, Some(e)) = (self.cur.kind, self.lexer.error()) {
            return e.clone();
        }
        let (line, col) = line_col(self.lexer.src(), self.cur.start);
        Error::parse(line, col, msg)
    }

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
            if self.cur.kind == TokenKind::Ident("ic")
                && matches!(self.next.kind, TokenKind::Colon | TokenKind::Ident(_))
            {
                out.constraints.push(self.constraint()?);
                continue;
            }
            let head = self.atom()?;
            match self.cur.kind {
                TokenKind::Dot => {
                    self.bump();
                    let row: Option<Vec<Word>> = (head.args.iter())
                        .map(|t| t.as_const().map(Word::new))
                        .collect();
                    match row {
                        Some(row) => out.facts.push(head.pred, &row),
                        None => out.rules.push(Rule::fact(head)),
                    }
                }
                TokenKind::ColonDash => {
                    self.bump();
                    let body = self.literals()?;
                    self.expect(TokenKind::Dot)?;
                    out.rules.push(Rule::new(head, body));
                }
                _ => return Err(self.unexpected("`.` or `:-`")),
            }
        }
        Ok(out)
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
        let neg = "negated subgoals are not allowed in constraints";
        let head = if self.cur.kind == TokenKind::Dot {
            IcHead::None
        } else {
            match self.literal()? {
                Literal::Atom(a) => IcHead::Atom(a),
                Literal::Neg(_) => return Err(self.err_here(neg)),
                Literal::Cmp(c) => IcHead::Cmp(c),
            }
        };
        self.expect(TokenKind::Dot)?;
        let (mut atoms, mut cmps) = (Vec::new(), Vec::new());
        for l in body {
            match l {
                Literal::Atom(a) => atoms.push(a),
                Literal::Neg(_) => return Err(self.err_here(neg)),
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
        if self.cur.kind == TokenKind::Bang {
            self.bump();
            return Ok(Literal::Neg(self.atom()?));
        }
        if matches!(self.cur.kind, TokenKind::Ident(_)) && self.next.kind == TokenKind::LParen {
            return Ok(Literal::Atom(self.atom()?));
        }
        let lhs = self.term()?;
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
        let rhs = self.term()?;
        Ok(Literal::Cmp(Cmp::new(lhs, op, rhs)))
    }

    fn atom(&mut self) -> Result<Atom, Error> {
        let TokenKind::Ident(name) = self.cur.kind else {
            return Err(self.unexpected("predicate name"));
        };
        self.bump();
        self.expect(TokenKind::LParen)?;
        let mut args = vec![self.term()?];
        while self.cur.kind == TokenKind::Comma {
            self.bump();
            args.push(self.term()?);
        }
        self.expect(TokenKind::RParen)?;
        Ok(Atom::new(Pred::new(name), args))
    }

    fn term(&mut self) -> Result<Term, Error> {
        let t = match self.cur.kind {
            TokenKind::Var(v) => Term::Var(Symbol::intern(v)),
            TokenKind::Ident(c) => Term::Const(Value::str(c)),
            TokenKind::Int(i) => Term::Const(Value::Int(i)),
            TokenKind::Str(s) => Term::Const(Value::str(&unescape(s))),
            _ => return Err(self.unexpected("term")),
        };
        self.bump();
        Ok(t)
    }
}
