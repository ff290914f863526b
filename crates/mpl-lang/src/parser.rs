//! Recursive-descent parser for MPL.
//!
//! Grammar (EBNF):
//!
//! ```text
//! program  := stmt*
//! stmt     := "if" expr "then" stmt* ("else" stmt*)? "end"
//!           | "while" expr "do" stmt* "end"
//!           | "for" IDENT ":=" expr "to" expr "do" stmt* "end"
//!           | IDENT ":=" expr ";"
//!           | "send" expr "->" expr ";"
//!           | "recv" IDENT "<-" expr ";"
//!           | "print" expr ";"
//!           | "assume" expr ";"
//!           | "skip" ";"
//! expr     := or
//! or       := and ("or" and)*
//! and      := not ("and" not)*
//! not      := "not" not | cmp
//! cmp      := sum (("="|"!="|"<"|"<="|">"|">=") sum)?
//! sum      := term (("+"|"-") term)*
//! term     := unary (("*"|"/"|"%") unary)*
//! unary    := "-" unary | atom
//! atom     := INT | IDENT | "id" | "np" | "true" | "false" | "(" expr ")"
//! ```
//!
//! For-loop headers also accept `=` in place of `:=` so the paper's
//! `for i=1 to np-1` parses verbatim.

use std::error::Error;
use std::fmt;

use crate::ast::{BinOp, Expr, Program, Stmt, StmtKind, UnOp};
use crate::lexer::{LexError, Lexer};
use crate::token::{Span, Token, TokenKind};

/// An error produced while parsing MPL source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Location of the offending token.
    pub span: Span,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at {}: {}", self.span, self.message)
    }
}

impl Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError {
            span: e.span,
            message: e.message,
        }
    }
}

/// Deepest nesting [`parse_program`] accepts. A statement block, a
/// parenthesized group, a unary operator and a binary operator each nest
/// what they enclose one level deeper, so an operand of the chain
/// `a + b + c` sits as deep as the expression tree puts it (`a` two
/// levels down). The token that would open level `MAX_DEPTH + 1` is a
/// [`ParseError`] at its offset. The cap bounds the parser's recursion
/// and every recursive walk of the tree it builds — the CFG build, the
/// analyses, `Display` and `Drop` — so no source can overflow the stack.
pub const MAX_DEPTH: usize = 256;

struct Parser<'a> {
    lexer: Lexer<'a>,
    /// The token being parsed, pulled from `lexer` one at a time.
    tok: Token,
    /// The span of the token [`Parser::bump`] last moved out: where the
    /// statement just parsed ends.
    prev: Span,
    /// The first lex error, once `lexer` has hit one. The parser sees the
    /// end of input from there on, and the error wins over whatever the
    /// parse makes of that (see [`Parser::finish`]).
    lex_error: Option<LexError>,
    /// Levels open above the token being parsed.
    depth: usize,
    /// The height of the expression the last expression parser returned:
    /// how many levels (see [`MAX_DEPTH`]) it nests below its root. Kept
    /// here rather than returned beside the expression so that each level
    /// of a deeply nested expression costs the least stack.
    height: usize,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Self {
        let mut parser = Parser {
            lexer: Lexer::new(src),
            tok: Token {
                kind: TokenKind::Eof,
                span: Span::default(),
            },
            prev: Span::default(),
            lex_error: None,
            depth: 0,
            height: 0,
        };
        parser.tok = parser.lex();
        parser
    }

    /// The lexer's next token; from the first lex error on, end of input.
    /// (Out of line, so the lexer adds nothing to the recursive parsers'
    /// frames.)
    #[inline(never)]
    fn lex(&mut self) -> Token {
        if self.lex_error.is_none() {
            match self.lexer.next_token() {
                Ok(token) => return token,
                Err(e) => self.lex_error = Some(e),
            }
        }
        Token {
            kind: TokenKind::Eof,
            span: self.prev,
        }
    }

    /// The outcome of the whole parse: the first lex error anywhere in the
    /// source wins over any parse error, as if the source had been
    /// tokenized before parsing. So after a parse error the rest of the
    /// source is lexed (and nothing kept) to look for one.
    fn finish(mut self, parsed: Result<Program, ParseError>) -> Result<Program, ParseError> {
        if parsed.is_err() {
            while self.tok.kind != TokenKind::Eof {
                self.tok = self.lex();
            }
        }
        match self.lex_error {
            Some(e) => Err(e.into()),
            None => parsed,
        }
    }

    fn peek(&self) -> &Token {
        &self.tok
    }

    /// Moves the current token out and pulls the next one in its place.
    fn bump(&mut self) -> Token {
        let next = self.lex();
        let token = std::mem::replace(&mut self.tok, next);
        self.prev = token.span;
        token
    }

    fn at(&self, kind: &TokenKind) -> bool {
        &self.peek().kind == kind
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.at(kind) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: &TokenKind) -> Result<(), ParseError> {
        if self.at(kind) {
            self.bump();
            Ok(())
        } else {
            Err(self.error_here(&format!(
                "expected {}, found {}",
                kind.describe(),
                self.peek().kind.describe()
            )))
        }
    }

    fn expect_ident(&mut self) -> Result<(String, Span), ParseError> {
        match &self.peek().kind {
            TokenKind::Ident(_) => {
                let t = self.bump();
                let TokenKind::Ident(name) = t.kind else {
                    unreachable!()
                };
                Ok((name, t.span))
            }
            other => {
                let msg = format!("expected identifier, found {}", other.describe());
                Err(self.error_here(&msg))
            }
        }
    }

    fn error_here(&self, message: &str) -> ParseError {
        ParseError {
            span: self.peek().span,
            message: message.to_owned(),
        }
    }

    /// The error for the token at `span` opening level `MAX_DEPTH + 1`.
    fn too_deep(span: Span) -> ParseError {
        ParseError {
            span,
            message: format!("nesting deeper than {MAX_DEPTH} levels"),
        }
    }

    /// Opens one more level, unless that would be level `MAX_DEPTH + 1`
    /// (then false). The caller closes it with `self.depth -= 1` once its
    /// construct parsed; an error ends the whole parse, so error paths
    /// leave it open. (Plain code rather than a `Result` or a closure
    /// keeps each level's stack frames few and small.)
    fn enter(&mut self) -> bool {
        if self.depth == MAX_DEPTH {
            return false;
        }
        self.depth += 1;
        true
    }

    fn parse_program(&mut self) -> Result<Program, ParseError> {
        let stmts = self.parse_block(&[TokenKind::Eof])?;
        self.expect(&TokenKind::Eof)?;
        Ok(Program::new(stmts))
    }

    /// Parses statements until one of `stop` tokens is at the front
    /// (the stop token is not consumed).
    fn parse_block(&mut self, stop: &[TokenKind]) -> Result<Vec<Stmt>, ParseError> {
        let mut stmts = Vec::new();
        while !stop.iter().any(|k| self.at(k)) {
            stmts.push(self.parse_stmt()?);
        }
        Ok(stmts)
    }

    /// Parses the body of the compound statement whose keyword is at
    /// `keyword`, one level deeper.
    fn parse_body(&mut self, keyword: Span, stop: &[TokenKind]) -> Result<Vec<Stmt>, ParseError> {
        if !self.enter() {
            return Err(Self::too_deep(keyword));
        }
        let body = self.parse_block(stop)?;
        self.depth -= 1;
        Ok(body)
    }

    fn parse_stmt(&mut self) -> Result<Stmt, ParseError> {
        let start = self.peek().span;
        // Each compound statement parses in a function of its own, so the
        // recursion through nested blocks carries only its frame.
        let kind = match self.peek().kind {
            TokenKind::If => self.parse_if(),
            TokenKind::While => self.parse_while(),
            TokenKind::For => self.parse_for(),
            _ => self.parse_simple(),
        }?;
        Ok(Stmt {
            kind,
            span: start.merge(self.prev),
        })
    }

    fn parse_if(&mut self) -> Result<StmtKind, ParseError> {
        let keyword = self.bump().span;
        let cond = self.parse_expr()?;
        self.expect(&TokenKind::Then)?;
        let then_branch = self.parse_body(keyword, &[TokenKind::Else, TokenKind::End])?;
        let else_branch = if self.eat(&TokenKind::Else) {
            self.parse_body(keyword, &[TokenKind::End])?
        } else {
            Vec::new()
        };
        self.expect(&TokenKind::End)?;
        Ok(StmtKind::If {
            cond,
            then_branch,
            else_branch,
        })
    }

    fn parse_while(&mut self) -> Result<StmtKind, ParseError> {
        let keyword = self.bump().span;
        let cond = self.parse_expr()?;
        self.expect(&TokenKind::Do)?;
        let body = self.parse_body(keyword, &[TokenKind::End])?;
        self.expect(&TokenKind::End)?;
        Ok(StmtKind::While { cond, body })
    }

    fn parse_for(&mut self) -> Result<StmtKind, ParseError> {
        let keyword = self.bump().span;
        let (var, _) = self.expect_ident()?;
        // Accept both `:=` and `=` in for headers.
        if !self.eat(&TokenKind::Assign) {
            self.expect(&TokenKind::Eq)?;
        }
        let from = self.parse_expr()?;
        self.expect(&TokenKind::To)?;
        let to = self.parse_expr()?;
        self.expect(&TokenKind::Do)?;
        let body = self.parse_body(keyword, &[TokenKind::End])?;
        self.expect(&TokenKind::End)?;
        Ok(StmtKind::For {
            var,
            from,
            to,
            body,
        })
    }

    /// Every statement without a body.
    fn parse_simple(&mut self) -> Result<StmtKind, ParseError> {
        let kind = match self.peek().kind {
            TokenKind::Send => {
                self.bump();
                let value = self.parse_expr()?;
                self.expect(&TokenKind::Arrow)?;
                let dest = self.parse_expr()?;
                StmtKind::Send { value, dest }
            }
            TokenKind::Recv => {
                self.bump();
                let (var, _) = self.expect_ident()?;
                self.expect(&TokenKind::BackArrow)?;
                let src = self.parse_expr()?;
                StmtKind::Recv { var, src }
            }
            TokenKind::Print => {
                self.bump();
                StmtKind::Print(self.parse_expr()?)
            }
            TokenKind::Assume => {
                self.bump();
                StmtKind::Assume(self.parse_expr()?)
            }
            TokenKind::Skip => {
                self.bump();
                StmtKind::Skip
            }
            TokenKind::Ident(_) => {
                let (name, _) = self.expect_ident()?;
                self.expect(&TokenKind::Assign)?;
                let value = self.parse_expr()?;
                StmtKind::Assign { name, value }
            }
            ref other => {
                return Err(
                    self.error_here(&format!("expected a statement, found {}", other.describe()))
                )
            }
        };
        self.expect(&TokenKind::Semi)?;
        Ok(kind)
    }

    fn parse_expr(&mut self) -> Result<Expr, ParseError> {
        self.parse_or()
    }

    /// Accounts for a binary operator over an operand of height
    /// `lhs_height` and the operand just parsed. False if that nests an
    /// operand below level `MAX_DEPTH`. (A plain `bool`, unlike a
    /// `Result` and `?`, adds next to nothing to the frames of the
    /// recursive expression parsers.)
    fn grow(&mut self, lhs_height: usize) -> bool {
        self.height = lhs_height.max(self.height) + 1;
        self.depth + self.height <= MAX_DEPTH
    }

    fn parse_or(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.parse_and()?;
        while self.at(&TokenKind::Or) {
            let lhs_height = self.height;
            let at = self.bump().span;
            let rhs = self.parse_and()?;
            if !self.grow(lhs_height) {
                return Err(Self::too_deep(at));
            }
            lhs = Expr::binary(BinOp::Or, lhs, rhs);
        }
        Ok(lhs)
    }

    fn parse_and(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.parse_not()?;
        while self.at(&TokenKind::And) {
            let lhs_height = self.height;
            let at = self.bump().span;
            let rhs = self.parse_not()?;
            if !self.grow(lhs_height) {
                return Err(Self::too_deep(at));
            }
            lhs = Expr::binary(BinOp::And, lhs, rhs);
        }
        Ok(lhs)
    }

    fn parse_not(&mut self) -> Result<Expr, ParseError> {
        if !self.at(&TokenKind::Not) {
            return self.parse_cmp();
        }
        let opener = self.bump().span;
        if !self.enter() {
            return Err(Self::too_deep(opener));
        }
        let e = self.parse_not()?;
        self.depth -= 1;
        self.height += 1;
        Ok(Expr::Unary(UnOp::Not, Box::new(e)))
    }

    fn parse_cmp(&mut self) -> Result<Expr, ParseError> {
        let lhs = self.parse_sum()?;
        let op = match self.peek().kind {
            TokenKind::Eq => BinOp::Eq,
            TokenKind::Ne => BinOp::Ne,
            TokenKind::Lt => BinOp::Lt,
            TokenKind::Le => BinOp::Le,
            TokenKind::Gt => BinOp::Gt,
            TokenKind::Ge => BinOp::Ge,
            _ => return Ok(lhs),
        };
        let lhs_height = self.height;
        let at = self.bump().span;
        let rhs = self.parse_sum()?;
        if !self.grow(lhs_height) {
            return Err(Self::too_deep(at));
        }
        Ok(Expr::binary(op, lhs, rhs))
    }

    fn parse_sum(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.parse_term()?;
        loop {
            let op = match self.peek().kind {
                TokenKind::Plus => BinOp::Add,
                TokenKind::Minus => BinOp::Sub,
                _ => return Ok(lhs),
            };
            let lhs_height = self.height;
            let at = self.bump().span;
            let rhs = self.parse_term()?;
            if !self.grow(lhs_height) {
                return Err(Self::too_deep(at));
            }
            lhs = Expr::binary(op, lhs, rhs);
        }
    }

    fn parse_term(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.parse_unary()?;
        loop {
            let op = match self.peek().kind {
                TokenKind::Star => BinOp::Mul,
                TokenKind::Slash => BinOp::Div,
                TokenKind::Percent => BinOp::Mod,
                _ => return Ok(lhs),
            };
            let lhs_height = self.height;
            let at = self.bump().span;
            let rhs = self.parse_unary()?;
            if !self.grow(lhs_height) {
                return Err(Self::too_deep(at));
            }
            lhs = Expr::binary(op, lhs, rhs);
        }
    }

    fn parse_unary(&mut self) -> Result<Expr, ParseError> {
        if !self.at(&TokenKind::Minus) {
            return self.parse_atom();
        }
        let opener = self.bump().span;
        if !self.enter() {
            return Err(Self::too_deep(opener));
        }
        let e = self.parse_unary()?;
        self.depth -= 1;
        self.height += 1;
        // Constant-fold negative literals so `-1` is `Int(-1)`.
        if let Expr::Int(n) = e {
            return Ok(Expr::Int(-n));
        }
        Ok(Expr::Unary(UnOp::Neg, Box::new(e)))
    }

    fn parse_atom(&mut self) -> Result<Expr, ParseError> {
        if self.at(&TokenKind::LParen) {
            return self.parse_group();
        }
        let e = match self.peek().kind {
            TokenKind::Int(n) => Expr::Int(n),
            TokenKind::True => Expr::Bool(true),
            TokenKind::False => Expr::Bool(false),
            TokenKind::Ident(_) => {
                let (name, _) = self.expect_ident()?;
                self.height = 0;
                return Ok(Expr::Var(name));
            }
            TokenKind::Id => Expr::Id,
            TokenKind::Np => Expr::Np,
            ref other => {
                let msg = format!("expected an expression, found {}", other.describe());
                return Err(self.error_here(&msg));
            }
        };
        self.bump();
        self.height = 0;
        Ok(e)
    }

    /// `( expr )`, one level deeper.
    fn parse_group(&mut self) -> Result<Expr, ParseError> {
        let opener = self.bump().span;
        if !self.enter() {
            return Err(Self::too_deep(opener));
        }
        let e = self.parse_expr()?;
        self.expect(&TokenKind::RParen)?;
        self.depth -= 1;
        self.height += 1;
        Ok(e)
    }
}

/// Parses MPL source into a [`Program`].
///
/// # Errors
///
/// Returns a [`ParseError`] (with line/column information) on malformed
/// input, and on nesting deeper than [`MAX_DEPTH`].
///
/// ```
/// let p = mpl_lang::parse_program("x := np - 1; send x -> (id + 1) % np;")?;
/// assert_eq!(p.stmts.len(), 2);
/// # Ok::<(), mpl_lang::ParseError>(())
/// ```
pub fn parse_program(src: &str) -> Result<Program, ParseError> {
    let mut parser = Parser::new(src);
    let parsed = parser.parse_program();
    parser.finish(parsed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{BinOp, Expr, StmtKind};

    #[test]
    fn parses_assignment_with_precedence() {
        let p = parse_program("x := 1 + 2 * 3;").unwrap();
        let StmtKind::Assign { value, .. } = &p.stmts[0].kind else {
            panic!()
        };
        assert_eq!(
            *value,
            Expr::binary(
                BinOp::Add,
                Expr::Int(1),
                Expr::binary(BinOp::Mul, Expr::Int(2), Expr::Int(3))
            )
        );
    }

    #[test]
    fn parses_parenthesized_grouping() {
        let p = parse_program("x := (1 + 2) * 3;").unwrap();
        let StmtKind::Assign { value, .. } = &p.stmts[0].kind else {
            panic!()
        };
        assert_eq!(
            *value,
            Expr::binary(
                BinOp::Mul,
                Expr::binary(BinOp::Add, Expr::Int(1), Expr::Int(2)),
                Expr::Int(3)
            )
        );
    }

    #[test]
    fn parses_if_else() {
        let p = parse_program("if id = 0 then x := 1; else x := 2; end").unwrap();
        let StmtKind::If {
            cond,
            then_branch,
            else_branch,
        } = &p.stmts[0].kind
        else {
            panic!()
        };
        assert_eq!(*cond, Expr::binary(BinOp::Eq, Expr::Id, Expr::Int(0)));
        assert_eq!(then_branch.len(), 1);
        assert_eq!(else_branch.len(), 1);
    }

    #[test]
    fn parses_if_without_else() {
        let p = parse_program("if id < np then skip; end").unwrap();
        let StmtKind::If { else_branch, .. } = &p.stmts[0].kind else {
            panic!()
        };
        assert!(else_branch.is_empty());
    }

    #[test]
    fn parses_for_with_paper_syntax() {
        // The paper writes `for i=1 to np-1`.
        let p = parse_program("for i = 1 to np - 1 do send 0 -> i; end").unwrap();
        let StmtKind::For {
            var,
            from,
            to,
            body,
        } = &p.stmts[0].kind
        else {
            panic!()
        };
        assert_eq!(var, "i");
        assert_eq!(*from, Expr::Int(1));
        assert_eq!(*to, Expr::binary(BinOp::Sub, Expr::Np, Expr::Int(1)));
        assert_eq!(body.len(), 1);
    }

    #[test]
    fn parses_send_recv() {
        let p = parse_program("send x + 1 -> id + 1; recv y <- id - 1;").unwrap();
        assert!(matches!(p.stmts[0].kind, StmtKind::Send { .. }));
        let StmtKind::Recv { var, src } = &p.stmts[1].kind else {
            panic!()
        };
        assert_eq!(var, "y");
        assert_eq!(*src, Expr::binary(BinOp::Sub, Expr::Id, Expr::Int(1)));
    }

    #[test]
    fn parses_nested_control_flow() {
        let src = "
            for i = 0 to 3 do
                if i % 2 = 0 then
                    while x < i do x := x + 1; end
                end
            end";
        let p = parse_program(src).unwrap();
        assert_eq!(p.stmts.len(), 1);
        assert_eq!(p.len(), 4);
    }

    #[test]
    fn parses_negative_literals() {
        let p = parse_program("x := -5;").unwrap();
        let StmtKind::Assign { value, .. } = &p.stmts[0].kind else {
            panic!()
        };
        assert_eq!(*value, Expr::Int(-5));
    }

    #[test]
    fn parses_logical_operators() {
        let p = parse_program("if id = 0 or id = np - 1 and not (x < 2) then skip; end").unwrap();
        let StmtKind::If { cond, .. } = &p.stmts[0].kind else {
            panic!()
        };
        // `and` binds tighter than `or`.
        let Expr::Binary(BinOp::Or, _, rhs) = cond else {
            panic!("expected or at top")
        };
        assert!(matches!(**rhs, Expr::Binary(BinOp::And, _, _)));
    }

    #[test]
    fn parses_assume() {
        let p = parse_program("assume np = nrows * ncols;").unwrap();
        assert!(matches!(p.stmts[0].kind, StmtKind::Assume(_)));
    }

    #[test]
    fn error_on_missing_semicolon() {
        let err = parse_program("x := 1").unwrap_err();
        assert!(err.message.contains("`;`"), "{}", err.message);
    }

    #[test]
    fn error_on_missing_end() {
        let err = parse_program("if id = 0 then x := 1;").unwrap_err();
        assert!(err.message.contains("statement") || err.message.contains("`end`"));
    }

    #[test]
    fn error_on_chained_comparison() {
        // `a < b < c` is not allowed (cmp is non-associative).
        assert!(parse_program("if 1 < 2 < 3 then skip; end").is_err());
    }

    #[test]
    fn error_reports_line_numbers() {
        let err = parse_program("x := 1;\ny := ;").unwrap_err();
        assert_eq!(err.span.line, 2);
    }

    #[test]
    fn empty_program_parses() {
        assert!(parse_program("").unwrap().is_empty());
    }

    /// `MAX_DEPTH` levels of each nesting construct parse; one more is an
    /// error at the token that opens it. The deepest accepted sources run
    /// the whole pipeline on a small stack in `tests/nesting_cap.rs`.
    #[test]
    fn one_level_past_max_depth_is_an_error_at_its_opening_token() {
        // Each shape at `n` levels, with the byte offset of its first
        // opener and the bytes between openers.
        let shapes = |n: usize| {
            [
                (format!("x := {}1{};", "(".repeat(n), ")".repeat(n)), 5, 1),
                (
                    format!("{}skip;{}", "if c then ".repeat(n), " end".repeat(n)),
                    0,
                    10,
                ),
                (format!("x := 1{};", "+1".repeat(n)), 6, 2),
                (format!("x := {}y;", "-".repeat(n)), 5, 1),
                (format!("assume {}c;", "not ".repeat(n)), 7, 4),
            ]
        };
        let message = format!("nesting deeper than {MAX_DEPTH} levels");
        for ((deepest, ..), (over, first, stride)) in
            shapes(MAX_DEPTH).into_iter().zip(shapes(MAX_DEPTH + 1))
        {
            assert!(parse_program(&deepest).is_ok(), "{deepest}");
            let err = parse_program(&over).unwrap_err();
            assert_eq!(err.message, message, "{deepest}");
            assert_eq!(err.span.start, first + stride * MAX_DEPTH, "{deepest}");
        }
    }

    /// A malformed source, what it shows, and the error it must give:
    /// `(start, end, line, col)` of the span and the message.
    type Malformed = (&'static str, String, (usize, usize, u32, u32), &'static str);

    /// Malformed sources with the errors `parse_program` gave when it
    /// tokenized the whole source before parsing. Pulling tokens as the
    /// parse goes must not change one of them.
    fn malformed_sources() -> Vec<Malformed> {
        let deep = MAX_DEPTH + 1;
        let too_deep = "nesting deeper than 256 levels";
        let src = str::to_owned;
        vec![
            (
                "lex error after a parse error",
                src("x := ;\ny := 1 # 2;"),
                (14, 14, 2, 8),
                "unexpected character `#`",
            ),
            (
                "lex error before a parse error",
                src("x := 1 @ 2;\ny := ;"),
                (7, 7, 1, 8),
                "unexpected character `@`",
            ),
            (
                "lex error after an unclosed block",
                src("if id = 0 then x := 1;\n$"),
                (23, 23, 2, 1),
                "unexpected character `$`",
            ),
            (
                "lex error in an otherwise whole program",
                src("x := 1;\nprint x;\n!"),
                (17, 17, 3, 1),
                "expected `!=`",
            ),
            ("lone colon", src("x : 1;"), (2, 2, 1, 3), "expected `:=`"),
            (
                "integer out of range",
                src("x := 99999999999999999999;"),
                (5, 5, 1, 6),
                "integer literal `99999999999999999999` out of range",
            ),
            (
                "end of input in an expression",
                src("x := 1 +"),
                (8, 8, 1, 9),
                "expected an expression, found end of input",
            ),
            (
                "end of input in a block",
                src("if id = 0 then\n  x := 1;\n"),
                (25, 25, 3, 1),
                "expected a statement, found end of input",
            ),
            (
                "end of input after a keyword",
                src("while"),
                (5, 5, 1, 6),
                "expected an expression, found end of input",
            ),
            (
                "stray token after end",
                src("if id = 0 then skip; end end"),
                (25, 28, 1, 26),
                "expected a statement, found `end`",
            ),
            (
                "stray parenthesis after a loop",
                src("while x < 1 do skip; end\n)"),
                (25, 26, 2, 1),
                "expected a statement, found `)`",
            ),
            (
                "missing semicolon",
                src("x := 1\ny := 2;"),
                (7, 8, 2, 1),
                "expected `;`, found identifier `y`",
            ),
            (
                "chained comparison",
                src("if 1 < 2 < 3 then skip; end"),
                (9, 10, 1, 10),
                "expected `then`, found `<`",
            ),
            (
                "receive into a literal",
                src("recv 5 <- 0;"),
                (5, 6, 1, 6),
                "expected identifier, found integer `5`",
            ),
            (
                "for header without assignment",
                src("for i to 3 do skip; end"),
                (6, 8, 1, 7),
                "expected `=`, found `to`",
            ),
            (
                "send without destination",
                src("send 1 -> ;"),
                (10, 11, 1, 11),
                "expected an expression, found `;`",
            ),
            (
                "empty parentheses",
                src("print ();"),
                (7, 8, 1, 8),
                "expected an expression, found `)`",
            ),
            (
                "unclosed parenthesis",
                src("print (1 + 2;"),
                (12, 13, 1, 13),
                "expected `)`, found `;`",
            ),
            (
                "else without if",
                src("x := 1;\nelse\n"),
                (8, 12, 2, 1),
                "expected a statement, found `else`",
            ),
            (
                "too deep at a binary operator",
                format!("x := 1{};", " + 1".repeat(deep)),
                (1031, 1032, 1, 1032),
                too_deep,
            ),
            (
                "too deep at a parenthesis",
                format!("x := {}1{};", "(".repeat(deep), ")".repeat(deep)),
                (261, 262, 1, 262),
                too_deep,
            ),
            (
                "too deep at a unary minus",
                format!("x := {}y;", "-".repeat(deep)),
                (261, 262, 1, 262),
                too_deep,
            ),
            (
                "too deep at a block",
                format!(
                    "{}skip;{}",
                    "while c do\n".repeat(deep),
                    "end\n".repeat(deep)
                ),
                (2816, 2821, 257, 1),
                too_deep,
            ),
            (
                "too deep, then a lex error",
                format!("x := {}1{}; #", "(".repeat(deep), ")".repeat(deep)),
                (522, 522, 1, 523),
                "unexpected character `#`",
            ),
        ]
    }

    #[test]
    fn malformed_sources_keep_their_errors() {
        for (what, source, (start, end, line, col), message) in malformed_sources() {
            let err = parse_program(&source).unwrap_err();
            let span = Span {
                start,
                end,
                line,
                col,
            };
            assert_eq!((err.span, err.message.as_str()), (span, message), "{what}");
        }
    }

    /// A lex error anywhere wins over the parse error before it, as it
    /// did when the whole source was tokenized first: the lexer's own
    /// error for the source is the parse's.
    #[test]
    fn the_first_lex_error_wins_over_every_parse_error() {
        for (what, source, ..) in malformed_sources() {
            if let Err(lex) = crate::lexer::tokenize(&source) {
                assert_eq!(parse_program(&source), Err(lex.into()), "{what}");
            }
        }
    }

    /// Each statement spans from its first token to its last, comments
    /// and blank lines after it excluded; a compound statement ends at
    /// its `end`.
    #[test]
    fn statement_spans_run_from_first_to_last_token() {
        let src = "x := 1;\nif id = 0 then\n  send x -> 1;\n  recv y <- 1; // a comment\nelse\n  \
                   while y < 3 do y := -y + 1; end\nend\nfor i = 1 to np - 1 do\n  print (i);\nend\n\nskip;   \n";
        fn walk(stmts: &[crate::ast::Stmt], out: &mut Vec<(usize, usize, u32, u32)>) {
            for stmt in stmts {
                let Span {
                    start,
                    end,
                    line,
                    col,
                } = stmt.span;
                out.push((start, end, line, col));
                match &stmt.kind {
                    StmtKind::If {
                        then_branch,
                        else_branch,
                        ..
                    } => {
                        walk(then_branch, out);
                        walk(else_branch, out);
                    }
                    StmtKind::While { body, .. } | StmtKind::For { body, .. } => walk(body, out),
                    _ => {}
                }
            }
        }
        let mut spans = Vec::new();
        walk(&parse_program(src).unwrap().stmts, &mut spans);
        assert_eq!(
            spans,
            [
                (0, 7, 1, 1),
                (8, 108, 2, 1),
                (25, 37, 3, 3),
                (40, 52, 4, 3),
                (73, 104, 6, 3),
                (88, 100, 6, 18),
                (109, 148, 8, 1),
                (134, 144, 9, 3),
                (150, 155, 12, 1),
            ]
        );
        assert_eq!(&src[73..104], "while y < 3 do y := -y + 1; end");
    }

    /// Blocks and expressions count against one cap: an expression inside
    /// `MAX_DEPTH - 1` blocks has one level left.
    #[test]
    fn blocks_and_expressions_share_the_depth_cap() {
        let nest = |inner: &str| {
            let n = MAX_DEPTH - 1;
            format!(
                "{}x := {inner};{}",
                "while c do ".repeat(n),
                " end".repeat(n)
            )
        };
        assert!(parse_program(&nest("(1)")).is_ok());
        assert!(parse_program(&nest("1 + 1")).is_ok());
        let x = "while c do ".len() * (MAX_DEPTH - 1);
        let err = parse_program(&nest("((1))")).unwrap_err();
        assert_eq!(err.span.start, x + "x := (".len());
        let err = parse_program(&nest("1 + 1 + 1")).unwrap_err();
        assert_eq!(err.span.start, x + "x := 1 + 1 ".len());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::ast::{BinOp, Expr, Program, Stmt, StmtKind};
    use mpl_rng::Rng64;

    /// A random identifier avoiding MPL keywords (`or`, `do`, …) —
    /// reserved words cannot round-trip as variable names.
    fn gen_ident(rng: &mut Rng64) -> String {
        const FIRST: &[u8] = b"abcdefghijklmnopqrstuvw";
        const REST: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789_";
        const KEYWORDS: &[&str] = &[
            "if", "then", "else", "end", "while", "do", "for", "to", "send", "recv", "receive",
            "print", "assume", "assert", "skip", "id", "me", "np", "and", "or", "not", "true",
            "false",
        ];
        let mut name = String::new();
        name.push(*rng.pick(FIRST) as char);
        for _ in 0..rng.index(7) {
            name.push(*rng.pick(REST) as char);
        }
        if KEYWORDS.contains(&name.as_str()) {
            format!("v_{name}")
        } else {
            name
        }
    }

    fn gen_expr(rng: &mut Rng64, depth: u32) -> Expr {
        if depth > 0 && rng.index(3) == 0 {
            let op = *rng.pick(&[BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div, BinOp::Mod]);
            let l = gen_expr(rng, depth - 1);
            let r = gen_expr(rng, depth - 1);
            return Expr::binary(op, l, r);
        }
        match rng.index(4) {
            0 => Expr::Int(rng.i64_in(-1000, 1000)),
            1 => Expr::Id,
            2 => Expr::Np,
            _ => Expr::Var(gen_ident(rng)),
        }
    }

    fn gen_stmts(rng: &mut Rng64, depth: u32, max: usize) -> Vec<Stmt> {
        (0..rng.index(max + 1))
            .map(|_| gen_stmt(rng, depth))
            .collect()
    }

    fn gen_stmt(rng: &mut Rng64, depth: u32) -> Stmt {
        let leaf = |rng: &mut Rng64| match rng.index(4) {
            0 => Stmt::synthetic(StmtKind::Assign {
                name: gen_ident(rng),
                value: gen_expr(rng, 4),
            }),
            1 => Stmt::synthetic(StmtKind::Send {
                value: gen_expr(rng, 4),
                dest: gen_expr(rng, 4),
            }),
            2 => Stmt::synthetic(StmtKind::Recv {
                var: gen_ident(rng),
                src: gen_expr(rng, 4),
            }),
            _ => Stmt::synthetic(StmtKind::Print(gen_expr(rng, 4))),
        };
        if depth == 0 {
            return leaf(rng);
        }
        // 3:1:1 odds of leaf : if : while, as in the original strategy.
        match rng.index(5) {
            0 => {
                let cond = Expr::binary(BinOp::Le, gen_expr(rng, 4), gen_expr(rng, 4));
                Stmt::synthetic(StmtKind::If {
                    cond,
                    then_branch: gen_stmts(rng, depth - 1, 2),
                    else_branch: gen_stmts(rng, depth - 1, 2),
                })
            }
            1 => {
                let cond = Expr::binary(BinOp::Le, gen_expr(rng, 4), gen_expr(rng, 4));
                Stmt::synthetic(StmtKind::While {
                    cond,
                    body: gen_stmts(rng, depth - 1, 2),
                })
            }
            _ => leaf(rng),
        }
    }

    /// Display ∘ parse is the identity on printed programs: any AST we
    /// can build pretty-prints to something that parses back to the
    /// same printed form.
    #[test]
    fn display_parse_round_trip() {
        let mut rng = Rng64::seed_from_u64(0x5EED_1234);
        for case in 0..128 {
            let stmts: Vec<Stmt> = (0..1 + rng.index(5))
                .map(|_| gen_stmt(&mut rng, 2))
                .collect();
            let program = Program::new(stmts);
            let printed = program.to_string();
            let reparsed =
                parse_program(&printed).unwrap_or_else(|e| panic!("case {case}: {e}\n{printed}"));
            assert_eq!(printed, reparsed.to_string(), "case {case}");
        }
    }
}
