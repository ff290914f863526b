//! A hand-written lexer for MPL.

use std::error::Error;
use std::fmt;

use crate::token::{Span, Token, TokenKind};

/// An error produced while tokenizing MPL source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LexError {
    /// Where the offending character sits.
    pub span: Span,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lex error at {}: {}", self.span, self.message)
    }
}

impl Error for LexError {}

/// Lexes MPL source one token at a time: [`tokenize`] collects every
/// token, and the parser pulls them as it goes.
pub(crate) struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
    col: u32,
}

impl<'a> Lexer<'a> {
    pub(crate) fn new(src: &'a str) -> Self {
        Lexer {
            src: src.as_bytes(),
            pos: 0,
            line: 1,
            col: 1,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.src.get(self.pos + 1).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.pos += 1;
        if c == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn here(&self) -> Span {
        Span {
            start: self.pos,
            end: self.pos,
            line: self.line,
            col: self.col,
        }
    }

    fn skip_trivia(&mut self) {
        loop {
            match self.peek() {
                Some(c) if c.is_ascii_whitespace() => {
                    self.bump();
                }
                // Line comments: `//` to end of line.
                Some(b'/') if self.peek2() == Some(b'/') => {
                    while let Some(c) = self.peek() {
                        if c == b'\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                _ => break,
            }
        }
    }

    /// The next token, or [`TokenKind::Eof`] once the source is spent
    /// (again on every later call).
    pub(crate) fn next_token(&mut self) -> Result<Token, LexError> {
        self.skip_trivia();
        let mut span = self.here();
        let Some(c) = self.peek() else {
            return Ok(Token {
                kind: TokenKind::Eof,
                span,
            });
        };

        let kind = match c {
            b'0'..=b'9' => {
                let start = self.pos;
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.bump();
                }
                let text = std::str::from_utf8(&self.src[start..self.pos]).expect("ascii digits");
                let value: i64 = text.parse().map_err(|_| LexError {
                    span,
                    message: format!("integer literal `{text}` out of range"),
                })?;
                TokenKind::Int(value)
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                let start = self.pos;
                while matches!(
                    self.peek(),
                    Some(b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'_')
                ) {
                    self.bump();
                }
                let text = std::str::from_utf8(&self.src[start..self.pos]).expect("ascii ident");
                keyword_or_ident(text)
            }
            b':' => {
                self.bump();
                if self.peek() == Some(b'=') {
                    self.bump();
                    TokenKind::Assign
                } else {
                    return Err(LexError {
                        span,
                        message: "expected `:=`".into(),
                    });
                }
            }
            b';' => {
                self.bump();
                TokenKind::Semi
            }
            b'(' => {
                self.bump();
                TokenKind::LParen
            }
            b')' => {
                self.bump();
                TokenKind::RParen
            }
            b'+' => {
                self.bump();
                TokenKind::Plus
            }
            b'-' => {
                self.bump();
                if self.peek() == Some(b'>') {
                    self.bump();
                    TokenKind::Arrow
                } else {
                    TokenKind::Minus
                }
            }
            b'*' => {
                self.bump();
                TokenKind::Star
            }
            b'/' => {
                self.bump();
                TokenKind::Slash
            }
            b'%' => {
                self.bump();
                TokenKind::Percent
            }
            b'=' => {
                self.bump();
                TokenKind::Eq
            }
            b'!' => {
                self.bump();
                if self.peek() == Some(b'=') {
                    self.bump();
                    TokenKind::Ne
                } else {
                    return Err(LexError {
                        span,
                        message: "expected `!=`".into(),
                    });
                }
            }
            b'<' => {
                self.bump();
                match self.peek() {
                    Some(b'=') => {
                        self.bump();
                        TokenKind::Le
                    }
                    Some(b'-') => {
                        self.bump();
                        TokenKind::BackArrow
                    }
                    _ => TokenKind::Lt,
                }
            }
            b'>' => {
                self.bump();
                if self.peek() == Some(b'=') {
                    self.bump();
                    TokenKind::Ge
                } else {
                    TokenKind::Gt
                }
            }
            other => {
                return Err(LexError {
                    span,
                    message: format!("unexpected character `{}`", other as char),
                })
            }
        };

        span.end = self.pos;
        Ok(Token { kind, span })
    }
}

fn keyword_or_ident(text: &str) -> TokenKind {
    match text {
        "if" => TokenKind::If,
        "then" => TokenKind::Then,
        "else" => TokenKind::Else,
        "end" => TokenKind::End,
        "while" => TokenKind::While,
        "do" => TokenKind::Do,
        "for" => TokenKind::For,
        "to" => TokenKind::To,
        "send" => TokenKind::Send,
        "recv" | "receive" => TokenKind::Recv,
        "print" => TokenKind::Print,
        "assume" | "assert" => TokenKind::Assume,
        "skip" => TokenKind::Skip,
        "id" | "me" => TokenKind::Id,
        "np" => TokenKind::Np,
        "and" => TokenKind::And,
        "or" => TokenKind::Or,
        "not" => TokenKind::Not,
        "true" => TokenKind::True,
        "false" => TokenKind::False,
        _ => TokenKind::Ident(text.to_owned()),
    }
}

/// Tokenizes `src` into a vector of tokens ending with [`TokenKind::Eof`].
///
/// # Errors
///
/// Returns a [`LexError`] on the first unrecognized character or malformed
/// literal.
pub fn tokenize(src: &str) -> Result<Vec<Token>, LexError> {
    let mut lexer = Lexer::new(src);
    let mut out = Vec::new();
    loop {
        let token = lexer.next_token()?;
        let done = token.kind == TokenKind::Eof;
        out.push(token);
        if done {
            return Ok(out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        tokenize(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lexes_send_statement() {
        assert_eq!(
            kinds("send x -> id+1;"),
            vec![
                TokenKind::Send,
                TokenKind::Ident("x".into()),
                TokenKind::Arrow,
                TokenKind::Id,
                TokenKind::Plus,
                TokenKind::Int(1),
                TokenKind::Semi,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn lexes_recv_statement() {
        assert_eq!(
            kinds("recv y <- 0;"),
            vec![
                TokenKind::Recv,
                TokenKind::Ident("y".into()),
                TokenKind::BackArrow,
                TokenKind::Int(0),
                TokenKind::Semi,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn distinguishes_lt_le_backarrow() {
        assert_eq!(
            kinds("< <= <-")[..3],
            [TokenKind::Lt, TokenKind::Le, TokenKind::BackArrow]
        );
    }

    #[test]
    fn distinguishes_minus_and_arrow() {
        assert_eq!(kinds("- ->")[..2], [TokenKind::Minus, TokenKind::Arrow]);
    }

    #[test]
    fn keywords_and_aliases() {
        assert_eq!(kinds("receive")[0], TokenKind::Recv);
        assert_eq!(kinds("me")[0], TokenKind::Id);
        assert_eq!(kinds("assert")[0], TokenKind::Assume);
        assert_eq!(kinds("idx")[0], TokenKind::Ident("idx".into()));
        assert_eq!(kinds("nprocs")[0], TokenKind::Ident("nprocs".into()));
    }

    #[test]
    fn skips_comments_and_whitespace() {
        let toks = kinds("x := 1; // trailing comment\n  y := 2;");
        assert_eq!(toks.len(), 9); // 2 statements * 4 tokens + eof
    }

    #[test]
    fn tracks_line_numbers() {
        let toks = tokenize("x := 1;\ny := 2;").unwrap();
        let y = toks
            .iter()
            .find(|t| t.kind == TokenKind::Ident("y".into()))
            .unwrap();
        assert_eq!(y.span.line, 2);
        assert_eq!(y.span.col, 1);
    }

    #[test]
    fn rejects_unknown_character() {
        let err = tokenize("x := #;").unwrap_err();
        assert!(err.message.contains("unexpected character"));
    }

    #[test]
    fn rejects_lone_colon() {
        let err = tokenize("x : 1").unwrap_err();
        assert!(err.message.contains(":="));
    }

    #[test]
    fn rejects_huge_integer() {
        let err = tokenize("x := 99999999999999999999;").unwrap_err();
        assert!(err.message.contains("out of range"));
    }

    #[test]
    fn empty_input_is_just_eof() {
        assert_eq!(kinds(""), vec![TokenKind::Eof]);
        assert_eq!(kinds("   // only a comment"), vec![TokenKind::Eof]);
    }
}
