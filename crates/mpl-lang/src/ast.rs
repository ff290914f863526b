//! Abstract syntax tree for MPL.

use std::fmt;

use crate::token::Span;

/// A binary operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    /// Euclidean integer division: the remainder [`BinOp::Mod`] leaves is
    /// never negative (flooring for a positive divisor).
    Div,
    /// The Euclidean remainder, consistent with [`BinOp::Div`].
    Mod,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    And,
    Or,
}

impl BinOp {
    /// True for operators producing a boolean (comparison / logical).
    #[must_use]
    pub fn is_boolean(self) -> bool {
        matches!(
            self,
            BinOp::Eq
                | BinOp::Ne
                | BinOp::Lt
                | BinOp::Le
                | BinOp::Gt
                | BinOp::Ge
                | BinOp::And
                | BinOp::Or
        )
    }

    /// Applies the operator to two values: the one definition of MPL
    /// integer arithmetic, shared by the simulator and every analysis.
    /// Arithmetic wraps (two's complement) and `/`, `%` are Euclidean;
    /// booleans are `0`/`1`, and any nonzero operand counts as true.
    /// `None` means a zero divisor and nothing else.
    #[must_use]
    pub fn eval(self, l: i64, r: i64) -> Option<i64> {
        Some(match self {
            BinOp::Add => l.wrapping_add(r),
            BinOp::Sub => l.wrapping_sub(r),
            BinOp::Mul => l.wrapping_mul(r),
            BinOp::Div if r == 0 => return None,
            BinOp::Div => l.wrapping_div_euclid(r),
            BinOp::Mod if r == 0 => return None,
            BinOp::Mod => l.wrapping_rem_euclid(r),
            BinOp::Eq => i64::from(l == r),
            BinOp::Ne => i64::from(l != r),
            BinOp::Lt => i64::from(l < r),
            BinOp::Le => i64::from(l <= r),
            BinOp::Gt => i64::from(l > r),
            BinOp::Ge => i64::from(l >= r),
            BinOp::And => i64::from(l != 0 && r != 0),
            BinOp::Or => i64::from(l != 0 || r != 0),
        })
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
            BinOp::Eq => "=",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "and",
            BinOp::Or => "or",
        };
        f.write_str(s)
    }
}

/// A unary operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// Logical negation.
    Not,
}

impl UnOp {
    /// Applies the operator to a value, with [`BinOp::eval`]'s
    /// conventions: negation wraps, and `not` maps zero to `1` and any
    /// other value to `0`.
    #[must_use]
    pub fn eval(self, v: i64) -> i64 {
        match self {
            UnOp::Neg => v.wrapping_neg(),
            UnOp::Not => i64::from(v == 0),
        }
    }
}

impl fmt::Display for UnOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnOp::Neg => f.write_str("-"),
            UnOp::Not => f.write_str("not "),
        }
    }
}

/// An MPL expression. Expressions are pure: they read variables and the
/// special `id`/`np` registers but have no side effects.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Expr {
    /// Integer literal.
    Int(i64),
    /// Boolean literal (`true`/`false`), represented as 1/0 at runtime.
    Bool(bool),
    /// A program variable.
    Var(String),
    /// The current process rank, in `0..np`.
    Id,
    /// The total number of processes.
    Np,
    /// A binary operation.
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// A unary operation.
    Unary(UnOp, Box<Expr>),
}

impl Expr {
    /// Convenience constructor for binary nodes.
    #[must_use]
    pub fn binary(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Binary(op, Box::new(lhs), Box::new(rhs))
    }

    /// Convenience constructor for a variable reference.
    #[must_use]
    pub fn var(name: impl Into<String>) -> Expr {
        Expr::Var(name.into())
    }

    /// True if the expression syntactically mentions `id`.
    #[must_use]
    pub fn mentions_id(&self) -> bool {
        match self {
            Expr::Id => true,
            Expr::Int(_) | Expr::Bool(_) | Expr::Var(_) | Expr::Np => false,
            Expr::Binary(_, l, r) => l.mentions_id() || r.mentions_id(),
            Expr::Unary(_, e) => e.mentions_id(),
        }
    }

    /// All variable names mentioned (excluding `id`/`np`), in first-use order.
    #[must_use]
    pub fn variables(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.for_each_var(&mut |name| {
            if !out.contains(&name) {
                out.push(name);
            }
        });
        out
    }

    /// Calls `f` on every variable name mentioned (excluding `id`/`np`),
    /// left to right, repeats included, without collecting them.
    pub fn for_each_var<'a>(&'a self, f: &mut impl FnMut(&'a str)) {
        match self {
            Expr::Var(name) => f(name),
            Expr::Binary(_, l, r) => {
                l.for_each_var(f);
                r.for_each_var(f);
            }
            Expr::Unary(_, e) => e.for_each_var(f),
            Expr::Int(_) | Expr::Bool(_) | Expr::Id | Expr::Np => {}
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Int(n) => write!(f, "{n}"),
            Expr::Bool(b) => write!(f, "{b}"),
            Expr::Var(name) => f.write_str(name),
            Expr::Id => f.write_str("id"),
            Expr::Np => f.write_str("np"),
            Expr::Binary(op, l, r) => write!(f, "({l} {op} {r})"),
            Expr::Unary(op, e) => write!(f, "{op}{e}"),
        }
    }
}

/// An MPL statement, annotated with its source [`Span`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stmt {
    pub kind: StmtKind,
    pub span: Span,
}

impl Stmt {
    /// Wraps a [`StmtKind`] with an empty span (used by programmatic
    /// builders in [`crate::corpus`]).
    #[must_use]
    pub fn synthetic(kind: StmtKind) -> Stmt {
        Stmt {
            kind,
            span: Span::default(),
        }
    }
}

/// The different statement forms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StmtKind {
    /// `x := e;`
    Assign { name: String, value: Expr },
    /// `if c then .. else .. end`
    If {
        cond: Expr,
        then_branch: Vec<Stmt>,
        else_branch: Vec<Stmt>,
    },
    /// `while c do .. end`
    While { cond: Expr, body: Vec<Stmt> },
    /// `for v := a to b do .. end` — inclusive upper bound, as in the
    /// paper's `for i=1 to np-1`.
    For {
        var: String,
        from: Expr,
        to: Expr,
        body: Vec<Stmt>,
    },
    /// `send value -> dest;`
    Send { value: Expr, dest: Expr },
    /// `recv var <- src;`
    Recv { var: String, src: Expr },
    /// `print e;`
    Print(Expr),
    /// `assume c;` — a fact the analysis may rely on; checked at runtime
    /// by the simulator (like the paper's `assert(np = ncols*nrows)`).
    Assume(Expr),
    /// `skip;`
    Skip,
}

/// A complete MPL program: a statement list executed by every process.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Program {
    pub stmts: Vec<Stmt>,
}

impl Program {
    /// Creates a program from a list of statements.
    #[must_use]
    pub fn new(stmts: Vec<Stmt>) -> Program {
        Program { stmts }
    }

    /// Total number of statements, counting nested bodies.
    #[must_use]
    pub fn len(&self) -> usize {
        fn count(stmts: &[Stmt]) -> usize {
            stmts
                .iter()
                .map(|s| {
                    1 + match &s.kind {
                        StmtKind::If {
                            then_branch,
                            else_branch,
                            ..
                        } => count(then_branch) + count(else_branch),
                        StmtKind::While { body, .. } | StmtKind::For { body, .. } => count(body),
                        _ => 0,
                    }
                })
                .sum()
        }
        count(&self.stmts)
    }

    /// True if the program has no statements at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.stmts.is_empty()
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn write_block(f: &mut fmt::Formatter<'_>, stmts: &[Stmt], indent: usize) -> fmt::Result {
            for stmt in stmts {
                write_stmt(f, stmt, indent)?;
            }
            Ok(())
        }
        fn write_stmt(f: &mut fmt::Formatter<'_>, stmt: &Stmt, indent: usize) -> fmt::Result {
            let pad = "  ".repeat(indent);
            match &stmt.kind {
                StmtKind::Assign { name, value } => writeln!(f, "{pad}{name} := {value};"),
                StmtKind::If {
                    cond,
                    then_branch,
                    else_branch,
                } => {
                    writeln!(f, "{pad}if {cond} then")?;
                    write_block(f, then_branch, indent + 1)?;
                    if !else_branch.is_empty() {
                        writeln!(f, "{pad}else")?;
                        write_block(f, else_branch, indent + 1)?;
                    }
                    writeln!(f, "{pad}end")
                }
                StmtKind::While { cond, body } => {
                    writeln!(f, "{pad}while {cond} do")?;
                    write_block(f, body, indent + 1)?;
                    writeln!(f, "{pad}end")
                }
                StmtKind::For {
                    var,
                    from,
                    to,
                    body,
                } => {
                    writeln!(f, "{pad}for {var} := {from} to {to} do")?;
                    write_block(f, body, indent + 1)?;
                    writeln!(f, "{pad}end")
                }
                StmtKind::Send { value, dest } => writeln!(f, "{pad}send {value} -> {dest};"),
                StmtKind::Recv { var, src } => writeln!(f, "{pad}recv {var} <- {src};"),
                StmtKind::Print(e) => writeln!(f, "{pad}print {e};"),
                StmtKind::Assume(e) => writeln!(f, "{pad}assume {e};"),
                StmtKind::Skip => writeln!(f, "{pad}skip;"),
            }
        }
        write_block(f, &self.stmts, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operator_table_wraps_and_divides_euclidean() {
        const MIN: i64 = i64::MIN;
        assert_eq!(BinOp::Div.eval(MIN, -1), Some(MIN));
        assert_eq!(BinOp::Mod.eval(MIN, -1), Some(0));
        assert_eq!(BinOp::Div.eval(7, 0), None);
        assert_eq!(BinOp::Mod.eval(7, 0), None);
        assert_eq!(BinOp::Div.eval(-7, 2), Some(-4));
        assert_eq!(BinOp::Mod.eval(-7, 2), Some(1));
        assert_eq!(BinOp::Div.eval(-7, -2), Some(4));
        assert_eq!(BinOp::Mod.eval(-7, -2), Some(1));
        assert_eq!(BinOp::Add.eval(i64::MAX, 1), Some(MIN));
        assert_eq!(BinOp::Sub.eval(MIN, 1), Some(i64::MAX));
        assert_eq!(BinOp::Mul.eval(MIN, -1), Some(MIN));
        assert_eq!(BinOp::Lt.eval(2, 3), Some(1));
        assert_eq!(BinOp::And.eval(2, 0), Some(0));
        assert_eq!(BinOp::Or.eval(0, -5), Some(1));
        assert_eq!(UnOp::Neg.eval(MIN), MIN);
        assert_eq!(UnOp::Not.eval(0), 1);
        assert_eq!(UnOp::Not.eval(-3), 0);
    }

    #[test]
    fn mentions_id_detects_nested_use() {
        let e = Expr::binary(
            BinOp::Add,
            Expr::binary(BinOp::Mul, Expr::var("k"), Expr::Np),
            Expr::binary(BinOp::Mod, Expr::Id, Expr::Int(2)),
        );
        assert!(e.mentions_id());
        let e2 = Expr::binary(BinOp::Add, Expr::var("k"), Expr::Np);
        assert!(!e2.mentions_id());
    }

    #[test]
    fn variables_deduplicates_in_order() {
        let e = Expr::binary(
            BinOp::Add,
            Expr::binary(BinOp::Add, Expr::var("a"), Expr::var("b")),
            Expr::var("a"),
        );
        assert_eq!(e.variables(), vec!["a", "b"]);
    }

    #[test]
    fn display_round_trips_through_parser() {
        let src = "if id = 0 then send 5 -> 1; else recv x <- 0; end";
        let program = crate::parse_program(src).unwrap();
        let printed = program.to_string();
        let reparsed = crate::parse_program(&printed).unwrap();
        // Spans differ between the two sources; compare printed forms.
        assert_eq!(printed, reparsed.to_string());
    }

    #[test]
    fn program_len_counts_nested() {
        let src = "if id = 0 then x := 1; y := 2; else skip; end print x;";
        let p = crate::parse_program(src).unwrap();
        assert_eq!(p.len(), 5); // if + 3 inner + print
        assert!(!p.is_empty());
    }

    #[test]
    fn binop_is_boolean() {
        assert!(BinOp::Le.is_boolean());
        assert!(BinOp::And.is_boolean());
        assert!(!BinOp::Add.is_boolean());
    }
}
