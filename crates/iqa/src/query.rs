//! Knowledge queries: `describe φ(X) where ψ(X)` (Motro & Yuan's syntax,
//! §5 of the paper).

use semrec_datalog::atom::Atom;
use semrec_datalog::error::Error;
use semrec_datalog::literal::Literal;
use semrec_datalog::parser::{lex, line_col, parse_atom, parse_rule, Token, TokenKind};

/// A parsed knowledge query.
#[derive(Clone, Debug)]
pub struct KnowledgeQuery {
    /// The described atom `φ(X)`.
    pub target: Atom,
    /// The context `ψ(X)`: database atoms and comparisons.
    pub context: Vec<Literal>,
}

/// Parses `describe φ(X) where l1, …, ln.` (the trailing dot and the
/// `where` clause are optional: `describe φ(X).` asks for an unconditional
/// description).
pub fn parse_describe(src: &str) -> Result<KnowledgeQuery, Error> {
    // Lex once to find the `describe` / `where` keywords and the closing
    // dot, then hand the source between them to the main parser.
    let tokens = lex(src)?;
    let kw = |t: &Token, s: &str| t.kind == TokenKind::Ident(s);
    if !kw(&tokens[0], "describe") {
        let (line, col) = line_col(src, tokens[0].start);
        return Err(Error::parse(line, col, "expected `describe`"));
    }
    let end = tokens
        .iter()
        .position(|t| t.kind == TokenKind::Dot)
        .unwrap_or(tokens.len() - 1);
    let between = |from: usize, to: usize| &src[tokens[from].start..tokens[to].start];
    let where_idx = tokens[1..end].iter().position(|t| kw(t, "where"));
    let (target_end, ctx) = match where_idx.map(|w| w + 1) {
        Some(w) => (w, Some(between(w + 1, end))),
        None => (end, None),
    };

    let target = parse_atom(between(1, target_end))?;
    let context = match ctx {
        None => vec![],
        // Parse as a rule body under a dummy head (range restriction is
        // not required for contexts).
        Some(body) => parse_rule(&format!("iqa_dummy_head(0) :- {body}."))?.body,
    };
    Ok(KnowledgeQuery { target, context })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_example_5_1_query() {
        let q = parse_describe(
            "describe honors(Stud) where major(Stud, cs), graduated(Stud, College), \
             topten(College), hobby(Stud, chess).",
        )
        .unwrap();
        assert_eq!(q.target.to_string(), "honors(Stud)");
        assert_eq!(q.context.len(), 4);
    }

    #[test]
    fn parse_without_context() {
        let q = parse_describe("describe honors(Stud).").unwrap();
        assert!(q.context.is_empty());
    }

    #[test]
    fn parse_with_comparison_in_context() {
        let q = parse_describe("describe rich(P) where salary(P, S), S > 100000.").unwrap();
        assert_eq!(q.context.len(), 2);
    }

    #[test]
    fn context_constants_keep_their_escapes() {
        use semrec_datalog::term::{Term, Value};
        let q = parse_describe(r#"describe p(X) where q(X, "a\u{1}b")."#).unwrap();
        let atom = q.context[0].as_atom().unwrap();
        assert_eq!(atom.args[1], Term::Const(Value::str("a\u{1}b")));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_describe("explain honors(S).").is_err());
    }
}
