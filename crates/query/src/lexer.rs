//! Tokenizer for the Fuse By dialect.

use crate::error::{QueryError, Result};
use std::fmt;

/// A lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// Bare or quoted identifier (`Name`, `"odd name"`).
    Ident(String),
    /// String literal (`'text'`).
    Str(String),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `*`
    Star,
    /// `=`
    Eq,
    /// `<>` or `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `/`
    Slash,
    /// `%`
    Percent,
    /// `;`
    Semicolon,
    /// End of input.
    Eof,
}

impl Token {
    /// If this token is an identifier matching `kw` case-insensitively.
    pub fn is_keyword(&self, kw: &str) -> bool {
        matches!(self, Token::Ident(s) if s.eq_ignore_ascii_case(kw))
    }
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Ident(s) => write!(f, "{s}"),
            Token::Str(s) => write!(f, "'{s}'"),
            Token::Int(i) => write!(f, "{i}"),
            Token::Float(x) => write!(f, "{x}"),
            Token::LParen => write!(f, "("),
            Token::RParen => write!(f, ")"),
            Token::Comma => write!(f, ","),
            Token::Dot => write!(f, "."),
            Token::Star => write!(f, "*"),
            Token::Eq => write!(f, "="),
            Token::Ne => write!(f, "<>"),
            Token::Lt => write!(f, "<"),
            Token::Le => write!(f, "<="),
            Token::Gt => write!(f, ">"),
            Token::Ge => write!(f, ">="),
            Token::Plus => write!(f, "+"),
            Token::Minus => write!(f, "-"),
            Token::Slash => write!(f, "/"),
            Token::Percent => write!(f, "%"),
            Token::Semicolon => write!(f, ";"),
            Token::Eof => write!(f, "<eof>"),
        }
    }
}

/// A token plus its byte offset in the source (for error messages).
#[derive(Debug, Clone, PartialEq)]
pub struct Spanned {
    /// The token.
    pub token: Token,
    /// Byte offset where the token starts.
    pub offset: usize,
}

/// Operators and punctuation, two-character ones first so `<=` is not
/// read as `<` `=`.
const PUNCTUATION: [(&str, Token); 17] = [
    ("<=", Token::Le),
    ("<>", Token::Ne),
    ("!=", Token::Ne),
    (">=", Token::Ge),
    ("(", Token::LParen),
    (")", Token::RParen),
    (",", Token::Comma),
    (".", Token::Dot),
    ("*", Token::Star),
    (";", Token::Semicolon),
    ("+", Token::Plus),
    ("-", Token::Minus),
    ("/", Token::Slash),
    ("%", Token::Percent),
    ("=", Token::Eq),
    ("<", Token::Lt),
    (">", Token::Gt),
];

/// Tokenize a query string. Comments (`-- …` to end of line) are skipped.
///
/// An identifier starts with an alphabetic character or `_` and goes on
/// with alphanumeric characters or `_`; any other name must be quoted
/// (`"€ price"`).
pub fn tokenize(input: &str) -> Result<Vec<Spanned>> {
    let mut out = Vec::new();
    let mut chars = input.char_indices().peekable();
    while let Some((offset, c)) = chars.next() {
        let rest = &input[offset..];
        let error = |message: String| QueryError::Lex {
            position: offset,
            message,
        };
        let digits = |s: &str| s.find(|c: char| !c.is_ascii_digit()).unwrap_or(s.len());
        // The token, if any, and the bytes it spans.
        let (token, len) = if c.is_ascii_whitespace() {
            continue;
        } else if rest.starts_with("--") {
            (None, rest.find('\n').unwrap_or(rest.len()))
        } else if c == '\'' || c == '"' {
            let Some((text, len)) = quoted(rest, c) else {
                let what = if c == '"' {
                    "quoted identifier"
                } else {
                    "string literal"
                };
                return Err(error(format!("unterminated {what}")));
            };
            let token = if c == '"' {
                Token::Ident(text)
            } else {
                Token::Str(text)
            };
            (Some(token), len)
        } else if c.is_ascii_digit() {
            // `1.5` is a float, `1.` an integer and a dot.
            let whole = digits(rest);
            let fraction = rest[whole..].strip_prefix('.').map_or(0, digits);
            if fraction > 0 {
                let text = &rest[..whole + 1 + fraction];
                let value = text
                    .parse()
                    .map_err(|_| error(format!("bad float literal `{text}`")))?;
                (Some(Token::Float(value)), text.len())
            } else {
                let text = &rest[..whole];
                let value = text
                    .parse()
                    .map_err(|_| error(format!("bad integer literal `{text}`")))?;
                (Some(Token::Int(value)), text.len())
            }
        } else if c.is_alphabetic() || c == '_' {
            let len = rest
                .find(|c: char| !(c.is_alphanumeric() || c == '_'))
                .unwrap_or(rest.len());
            (Some(Token::Ident(rest[..len].to_string())), len)
        } else if let Some((text, token)) = PUNCTUATION.iter().find(|(p, _)| rest.starts_with(p)) {
            (Some(token.clone()), text.len())
        } else {
            return Err(error(format!("unexpected character `{c}`")));
        };
        while chars.next_if(|&(i, _)| i < offset + len).is_some() {}
        out.extend(token.map(|token| Spanned { token, offset }));
    }
    out.push(Spanned {
        token: Token::Eof,
        offset: input.len(),
    });
    Ok(out)
}

/// The text between `rest`'s opening `quote` and its closing one (a doubled
/// `'` stands for one inside a string literal) and the bytes both quotes
/// span; `None` if the quote is not closed.
fn quoted(rest: &str, quote: char) -> Option<(String, usize)> {
    let mut text = String::new();
    let mut body = &rest[1..];
    loop {
        let end = body.find(quote)?;
        text.push_str(&body[..end]);
        body = &body[end + 1..];
        if quote == '\'' && body.starts_with('\'') {
            text.push('\'');
            body = &body[1..];
        } else {
            return Some((text, rest.len() - body.len()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(s: &str) -> Vec<Token> {
        tokenize(s).unwrap().into_iter().map(|s| s.token).collect()
    }

    #[test]
    fn keywords_and_punctuation() {
        let t = toks("SELECT Name, RESOLVE(Age, max) FUSE FROM A, B FUSE BY (Name)");
        assert_eq!(t[0], Token::Ident("SELECT".into()));
        assert!(t[0].is_keyword("select"));
        assert!(t.contains(&Token::LParen));
        assert!(t.contains(&Token::Comma));
        assert_eq!(*t.last().unwrap(), Token::Eof);
    }

    #[test]
    fn numbers() {
        assert_eq!(toks("42"), vec![Token::Int(42), Token::Eof]);
        assert_eq!(toks("3.5"), vec![Token::Float(3.5), Token::Eof]);
        // `1.` is Int then Dot (trailing dot is not a float).
        assert_eq!(toks("1."), vec![Token::Int(1), Token::Dot, Token::Eof]);
    }

    #[test]
    fn strings_with_escapes() {
        assert_eq!(toks("'it''s'"), vec![Token::Str("it's".into()), Token::Eof]);
        assert_eq!(
            toks("'héllo'"),
            vec![Token::Str("héllo".into()), Token::Eof]
        );
    }

    #[test]
    fn quoted_identifiers() {
        assert_eq!(
            toks("\"weird name\""),
            vec![Token::Ident("weird name".into()), Token::Eof]
        );
    }

    #[test]
    fn comparison_operators() {
        assert_eq!(
            toks("a <> b <= c >= d != e"),
            vec![
                Token::Ident("a".into()),
                Token::Ne,
                Token::Ident("b".into()),
                Token::Le,
                Token::Ident("c".into()),
                Token::Ge,
                Token::Ident("d".into()),
                Token::Ne,
                Token::Ident("e".into()),
                Token::Eof
            ]
        );
    }

    #[test]
    fn comments_skipped() {
        let t = toks("SELECT -- the select list\n *");
        assert_eq!(
            t,
            vec![Token::Ident("SELECT".into()), Token::Star, Token::Eof]
        );
    }

    #[test]
    fn unterminated_string_errors() {
        assert!(tokenize("'oops").is_err());
        assert!(tokenize("\"oops").is_err());
    }

    #[test]
    fn stray_bang_errors() {
        assert!(tokenize("a ! b").is_err());
    }

    #[test]
    fn offsets_recorded() {
        let spanned = tokenize("SELECT x").unwrap();
        assert_eq!(spanned[0].offset, 0);
        assert_eq!(spanned[1].offset, 7);
    }

    #[test]
    fn unicode_identifiers() {
        assert_eq!(
            toks("Straße"),
            vec![Token::Ident("Straße".into()), Token::Eof]
        );
        assert_eq!(toks("אב"), vec![Token::Ident("אב".into()), Token::Eof]);
        assert_eq!(toks("\"€\""), vec![Token::Ident("€".into()), Token::Eof]);
    }

    /// A character that is neither alphanumeric nor `_` ends an identifier
    /// and cannot start one: it is an error at its offset, named as itself.
    #[test]
    fn symbols_are_not_identifiers() {
        for (input, position, c) in [
            ("€", 0, '€'),
            ("×", 0, '×'),
            ("a€b", 1, '€'),
            ("x = \u{a0}", 4, '\u{a0}'),
        ] {
            match tokenize(input) {
                Err(QueryError::Lex {
                    position: p,
                    message,
                }) => {
                    assert_eq!(p, position, "{input}");
                    assert!(message.contains(c), "{input}: {message}");
                }
                other => panic!("{input}: {other:?}"),
            }
        }
    }
}
