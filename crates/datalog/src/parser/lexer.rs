//! On-demand tokenizer for the Prolog-like surface syntax. [`Lexer`]
//! hands out one token per call; tokens borrow the source (a string
//! literal is its raw body, unescaped when it becomes a constant). Each
//! token kind has one scanning routine (trivia, integer, string,
//! identifier), which the parser's argument loop calls too, straight on
//! the bytes. Positions are byte spans; an error's line and column are
//! counted only when it is built ([`line_col`]).
//!
//! String escapes are one grammar shared with `Value`'s `Display` (which
//! writes literals through [`write_str_literal`]): `\n`, `\t`, `\r`,
//! `\0`, `\u{H…}` (1–6 hex digits naming a Unicode scalar value), and a
//! backslash before any other character stands for that character (so
//! `\\`, `\"` and `\'`).

use crate::error::Error;
use std::borrow::Cow;
use std::fmt;

/// A lexical token and the byte span it covers.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Token<'a> {
    /// The token kind/payload.
    pub kind: TokenKind<'a>,
    /// Byte offset of the first byte.
    pub start: usize,
    /// Byte offset one past the last byte.
    pub end: usize,
}

/// Token kinds.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum TokenKind<'a> {
    /// Lowercase-initial identifier (predicate or symbolic constant).
    Ident(&'a str),
    /// Uppercase/underscore-initial identifier (variable).
    Var(&'a str),
    /// Integer literal (possibly negative).
    Int(i64),
    /// Quoted string literal (single or double quotes): the raw text
    /// between the quotes, escapes still in place (see [`unescape`]).
    Str(&'a str),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `:-`
    ColonDash,
    /// `:`
    Colon,
    /// `->`
    Arrow,
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `!` (negation)
    Bang,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// A lexical error: the lexer stops here, and [`Lexer::error`] holds
    /// the positioned error.
    Error,
    /// End of input.
    Eof,
}

impl TokenKind<'_> {
    /// Short human-readable description for error messages.
    pub fn describe(&self) -> String {
        match self {
            TokenKind::Ident(s) => format!("identifier `{s}`"),
            TokenKind::Var(s) => format!("variable `{s}`"),
            TokenKind::Int(i) => format!("integer `{i}`"),
            TokenKind::Str(s) => format!("string {:?}", unescape(s)),
            TokenKind::LParen => "`(`".into(),
            TokenKind::RParen => "`)`".into(),
            TokenKind::Comma => "`,`".into(),
            TokenKind::Dot => "`.`".into(),
            TokenKind::ColonDash => "`:-`".into(),
            TokenKind::Colon => "`:`".into(),
            TokenKind::Arrow => "`->`".into(),
            TokenKind::Eq => "`=`".into(),
            TokenKind::Ne => "`!=`".into(),
            TokenKind::Bang => "`!`".into(),
            TokenKind::Lt => "`<`".into(),
            TokenKind::Le => "`<=`".into(),
            TokenKind::Gt => "`>`".into(),
            TokenKind::Ge => "`>=`".into(),
            TokenKind::Error => "a lexical error".into(),
            TokenKind::Eof => "end of input".into(),
        }
    }
}

/// The 1-based line and column (in bytes) of byte `offset` of `src`.
pub fn line_col(src: &str, offset: usize) -> (usize, usize) {
    let before = &src.as_bytes()[..offset];
    let line = 1 + before.iter().filter(|&&b| b == b'\n').count();
    let line_start = before
        .iter()
        .rposition(|&b| b == b'\n')
        .map_or(0, |p| p + 1);
    (line, offset - line_start + 1)
}

/// The on-demand tokenizer. Comments run from `%` or `//` to end of line.
pub struct Lexer<'a> {
    src: &'a str,
    pos: usize,
    error: Option<Error>,
}

impl<'a> Lexer<'a> {
    /// A lexer at the start of `src`.
    pub fn new(src: &'a str) -> Lexer<'a> {
        Lexer {
            src,
            pos: 0,
            error: None,
        }
    }

    /// The source being tokenized.
    pub fn src(&self) -> &'a str {
        self.src
    }

    /// The error behind a [`TokenKind::Error`] token, once one was met.
    pub fn error(&self) -> Option<&Error> {
        self.error.as_ref()
    }

    /// The next token. After an [`TokenKind::Error`] every call returns
    /// the same error token: nothing past it is read.
    pub fn next_token(&mut self) -> Token<'a> {
        let at = |kind, start, end| Token { kind, start, end };
        if self.error.is_some() {
            return at(TokenKind::Error, self.pos, self.pos);
        }
        let start = self.skip_trivia();
        let bytes = self.src.as_bytes();
        if self.pos == bytes.len() {
            return at(TokenKind::Eof, start, start);
        }
        let c = bytes[start];
        let next = bytes.get(start + 1).copied();
        let (kind, len) = match c {
            b'(' => (TokenKind::LParen, 1),
            b')' => (TokenKind::RParen, 1),
            b',' => (TokenKind::Comma, 1),
            b'.' => (TokenKind::Dot, 1),
            b':' if next == Some(b'-') => (TokenKind::ColonDash, 2),
            b':' => (TokenKind::Colon, 1),
            b'-' if next == Some(b'>') => (TokenKind::Arrow, 2),
            b'=' => (TokenKind::Eq, 1),
            b'!' if next == Some(b'=') => (TokenKind::Ne, 2),
            b'!' => (TokenKind::Bang, 1),
            b'<' if next == Some(b'=') => (TokenKind::Le, 2),
            b'<' => (TokenKind::Lt, 1),
            b'>' if next == Some(b'=') => (TokenKind::Ge, 2),
            b'>' => (TokenKind::Gt, 1),
            b'\'' | b'"' => match self.string(start, c) {
                Ok(end) => (TokenKind::Str(&self.src[start + 1..end - 1]), end - start),
                Err(e) => return self.fail(e),
            },
            b'-' | b'0'..=b'9' => match self.int(start) {
                Ok((n, end)) => (TokenKind::Int(n), end - start),
                Err(e) => return self.fail(e),
            },
            _ if c.is_ascii_alphabetic() || c == b'_' => {
                let text = &self.src[start..self.ident_end(start)];
                if is_var_start(c) {
                    (TokenKind::Var(text), text.len())
                } else {
                    (TokenKind::Ident(text), text.len())
                }
            }
            _ => {
                let ch = self.src[start..].chars().next().expect("not at end");
                return self.fail(self.error_at(start, format!("unexpected character `{ch}`")));
            }
        };
        self.pos = start + len;
        at(kind, start, start + len)
    }

    /// The token that starts at `start`, where [`Lexer::skip_trivia`]
    /// left the scan; the lexer goes on after it.
    pub(super) fn token_at(&mut self, start: usize) -> Token<'a> {
        self.pos = start;
        self.next_token()
    }

    /// Moves the scan to byte `pos`, the end of what the caller scanned.
    pub(super) fn seek(&mut self, pos: usize) {
        self.pos = pos;
    }

    /// Consumes the one-byte token `byte` (such as `.`) if it comes next,
    /// trivia skipped; otherwise leaves the scan at the next token.
    pub(super) fn eat(&mut self, byte: u8) -> bool {
        let start = self.skip_trivia();
        let hit = self.src.as_bytes().get(start) == Some(&byte);
        self.pos = start + usize::from(hit);
        hit
    }

    fn error_at(&self, offset: usize, msg: impl Into<String>) -> Error {
        let (line, col) = line_col(self.src, offset);
        Error::parse(line, col, msg)
    }

    fn fail(&mut self, e: Error) -> Token<'a> {
        self.error = Some(e);
        self.next_token()
    }

    /// Skips whitespace and comments; returns where the next token
    /// starts. A comment that runs to end of input moves `pos` to the end
    /// but puts the end-of-input token at the comment's first character;
    /// scanning again from the returned offset finds the same one.
    pub(super) fn skip_trivia(&mut self) -> usize {
        let bytes = self.src.as_bytes();
        let mut i = self.pos;
        while let Some(&b) = bytes.get(i) {
            if b == b'%' || (b == b'/' && bytes.get(i + 1) == Some(&b'/')) {
                match bytes[i..].iter().position(|&b| b == b'\n') {
                    Some(n) => i += n,
                    None => {
                        self.pos = bytes.len();
                        return i;
                    }
                }
            } else if matches!(b, b' ' | b'\t' | b'\r' | b'\n') {
                i += 1;
            } else {
                break;
            }
        }
        self.pos = i;
        i
    }

    /// Scans the string literal opening at `start` with `quote`; returns
    /// the offset one past its closing quote. Escapes are checked here
    /// and decoded by [`unescape`] when the literal is used.
    pub(super) fn string(&self, start: usize, quote: u8) -> Result<usize, Error> {
        let bytes = self.src.as_bytes();
        let mut j = start + 1;
        loop {
            match bytes.get(j) {
                None | Some(b'\n') => {
                    return Err(self.error_at(start, "unterminated string literal"));
                }
                Some(&b) if b == quote => return Ok(j + 1),
                Some(b'\\') => match decode_escape(&self.src[j + 1..]) {
                    Ok((_, len)) => j += 1 + len,
                    Err(e) => return Err(self.error_at(start, e.message())),
                },
                // UTF-8 continuation and lead bytes are never a quote, a
                // backslash or a newline, so byte steps stay in sync.
                Some(_) => j += 1,
            }
        }
    }

    /// Scans the integer literal at `start` (an optional `-`, then
    /// digits); returns its value and end offset. Digits accumulate
    /// toward the literal's sign, so `i64::MIN` is in range; the first
    /// step out of `i64` makes the whole literal an error.
    pub(super) fn int(&self, start: usize) -> Result<(i64, usize), Error> {
        let bytes = self.src.as_bytes();
        let neg = bytes[start] == b'-';
        let digits = start + usize::from(neg);
        let step = |n: i64, d| {
            if neg {
                n.checked_sub(d)
            } else {
                n.checked_add(d)
            }
        };
        let mut end = digits;
        let mut n = Some(0i64);
        while let Some(&b) = bytes.get(end).filter(|b| b.is_ascii_digit()) {
            n = n.and_then(|n| step(n.checked_mul(10)?, i64::from(b - b'0')));
            end += 1;
        }
        if end == digits {
            return Err(self.error_at(start, "expected digits after `-`"));
        }
        let text = &self.src[start..end];
        let n = n.ok_or_else(|| self.error_at(start, format!("integer out of range: {text}")))?;
        Ok((n, end))
    }

    /// The end of the identifier or variable that starts at `start`.
    pub(super) fn ident_end(&self, start: usize) -> usize {
        let bytes = self.src.as_bytes();
        bytes[start..]
            .iter()
            .position(|&b| !(b.is_ascii_alphanumeric() || b == b'_'))
            .map_or(bytes.len(), |n| start + n)
    }
}

/// True if an identifier starting with `c` is a variable.
pub(super) fn is_var_start(c: u8) -> bool {
    c.is_ascii_uppercase() || c == b'_'
}

/// Tokenizes the whole of `src` (ending with [`TokenKind::Eof`]), or
/// returns the first lexical error.
pub fn lex(src: &str) -> Result<Vec<Token<'_>>, Error> {
    let mut lexer = Lexer::new(src);
    let mut out = Vec::new();
    loop {
        let t = lexer.next_token();
        match t.kind {
            TokenKind::Error => return Err(lexer.error.take().expect("error token")),
            TokenKind::Eof => {
                out.push(t);
                return Ok(out);
            }
            _ => out.push(t),
        }
    }
}

enum EscapeError {
    /// The input ended after the backslash.
    Unterminated,
    /// `\u` not followed by `{`, 1–6 hex digits naming a scalar value, `}`.
    BadUnicode,
}

impl EscapeError {
    fn message(&self) -> &'static str {
        match self {
            EscapeError::Unterminated => "unterminated escape",
            EscapeError::BadUnicode => "invalid unicode escape",
        }
    }
}

/// Decodes the escape whose text (after the backslash) starts `rest`:
/// the character it stands for and the bytes it spans.
fn decode_escape(rest: &str) -> Result<(char, usize), EscapeError> {
    let c = rest.chars().next().ok_or(EscapeError::Unterminated)?;
    Ok(match c {
        'n' => ('\n', 1),
        't' => ('\t', 1),
        'r' => ('\r', 1),
        '0' => ('\0', 1),
        'u' => {
            let body = rest[1..].strip_prefix('{').ok_or(EscapeError::BadUnicode)?;
            let hex = &body[..body.find('}').ok_or(EscapeError::BadUnicode)?];
            if hex.is_empty() || hex.len() > 6 || !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
                return Err(EscapeError::BadUnicode);
            }
            let ch = u32::from_str_radix(hex, 16)
                .ok()
                .and_then(char::from_u32)
                .ok_or(EscapeError::BadUnicode)?;
            (ch, hex.len() + 3)
        }
        c => (c, c.len_utf8()),
    })
}

/// The text a string literal stands for, given its raw body (the
/// payload of [`TokenKind::Str`]). Borrows when there is no escape.
pub fn unescape(body: &str) -> Cow<'_, str> {
    if !body.contains('\\') {
        return Cow::Borrowed(body);
    }
    let mut out = String::with_capacity(body.len());
    unescape_into(body, &mut out);
    Cow::Owned(out)
}

/// Appends [`unescape`]`(body)` to `out`, a buffer the caller reuses.
pub fn unescape_into(body: &str, out: &mut String) {
    let mut rest = body;
    while let Some(i) = rest.find('\\') {
        out.push_str(&rest[..i]);
        match decode_escape(&rest[i + 1..]) {
            Ok((c, len)) => {
                out.push(c);
                rest = &rest[i + 1 + len..];
            }
            // Only a body the lexer did not check can get here; keep
            // the rest verbatim rather than guess.
            Err(_) => {
                rest = &rest[i..];
                break;
            }
        }
    }
    out.push_str(rest);
}

/// Writes `s` as a double-quoted literal that [`Lexer`] reads back as
/// exactly `s`: the inverse of [`unescape`].
pub(crate) fn write_str_literal<W: fmt::Write + ?Sized>(f: &mut W, s: &str) -> fmt::Result {
    f.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\t' => f.write_str("\\t")?,
            '\r' => f.write_str("\\r")?,
            '\0' => f.write_str("\\0")?,
            c if c.is_control() => write!(f, "\\u{{{:x}}}", u32::from(c))?,
            c => f.write_char(c)?,
        }
    }
    f.write_char('"')
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind<'_>> {
        lex(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn basic_tokens() {
        let ks = kinds("p(X, 3) :- q(X), X >= -2.");
        assert_eq!(
            ks,
            vec![
                TokenKind::Ident("p"),
                TokenKind::LParen,
                TokenKind::Var("X"),
                TokenKind::Comma,
                TokenKind::Int(3),
                TokenKind::RParen,
                TokenKind::ColonDash,
                TokenKind::Ident("q"),
                TokenKind::LParen,
                TokenKind::Var("X"),
                TokenKind::RParen,
                TokenKind::Comma,
                TokenKind::Var("X"),
                TokenKind::Ge,
                TokenKind::Int(-2),
                TokenKind::Dot,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn strings_and_comments() {
        let ks = kinds("r(\"hello world\", 'exec') . % comment\n// another\n");
        assert_eq!(
            ks,
            vec![
                TokenKind::Ident("r"),
                TokenKind::LParen,
                TokenKind::Str("hello world"),
                TokenKind::Comma,
                TokenKind::Str("exec"),
                TokenKind::RParen,
                TokenKind::Dot,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn arrow_and_colon() {
        assert_eq!(
            kinds("ic: a -> b")[..],
            [
                TokenKind::Ident("ic"),
                TokenKind::Colon,
                TokenKind::Ident("a"),
                TokenKind::Arrow,
                TokenKind::Ident("b"),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn positions_and_errors() {
        let err = lex("p(X\n  @)").unwrap_err();
        assert_eq!(err, Error::parse(2, 3, "unexpected character `@`"));
        assert_eq!(
            lex("p(λ)").unwrap_err(),
            Error::parse(1, 3, "unexpected character `λ`")
        );
        assert!(lex("'open").is_err());
        assert!(lex("- x").is_err());
        assert_eq!(
            lex("p(\"a\\u{zz}\")").unwrap_err(),
            Error::parse(1, 3, "invalid unicode escape")
        );
        assert_eq!(
            lex("p(9223372036854775808)").unwrap_err(),
            Error::parse(1, 3, "integer out of range: 9223372036854775808")
        );
        assert_eq!(kinds("-9223372036854775808")[0], TokenKind::Int(i64::MIN));
    }

    #[test]
    fn spans_and_end_of_input_position() {
        let ts = lex("ab  'c\\'d' % tail").unwrap();
        assert_eq!((ts[0].start, ts[0].end), (0, 2));
        assert_eq!((ts[1].start, ts[1].end), (4, 10));
        assert_eq!(ts[1].kind, TokenKind::Str("c\\'d"));
        // A trailing comment leaves end of input where the comment starts.
        assert_eq!((ts[2].kind, ts[2].start), (TokenKind::Eof, 11));
        assert_eq!(line_col("a\nbc", 3), (2, 2));
    }

    #[test]
    fn escapes_decode_and_borrow_when_absent() {
        assert!(matches!(unescape("plain λ"), Cow::Borrowed("plain λ")));
        assert_eq!(
            unescape(r#"a\nb\tc\rd\0e\\f\"g\'h\u{1}i\u{1F600}\λ"#),
            "a\nb\tc\rd\0e\\f\"g'h\u{1}i\u{1F600}λ"
        );
    }

    #[test]
    fn underscore_is_variable() {
        assert!(matches!(kinds("_foo")[0], TokenKind::Var(_)));
    }
}
