//! The expression tree and its pretty-printer.

use std::collections::BTreeSet;
use std::fmt;

/// Binary operators, in the order of the paper's spreadsheet formulas.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinaryOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%` (remainder)
    Rem,
    /// `^` (power, right-associative)
    Pow,
    /// `<` — yields 1.0 or 0.0
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==`
    Eq,
    /// `!=`
    Ne,
}

impl BinaryOp {
    /// The operator's surface syntax.
    pub fn symbol(self) -> &'static str {
        match self {
            BinaryOp::Add => "+",
            BinaryOp::Sub => "-",
            BinaryOp::Mul => "*",
            BinaryOp::Div => "/",
            BinaryOp::Rem => "%",
            BinaryOp::Pow => "^",
            BinaryOp::Lt => "<",
            BinaryOp::Le => "<=",
            BinaryOp::Gt => ">",
            BinaryOp::Ge => ">=",
            BinaryOp::Eq => "==",
            BinaryOp::Ne => "!=",
        }
    }

    /// Binding power pair `(left, right)` for the Pratt parser; higher
    /// binds tighter. `Pow` is right-associative (left > right).
    pub(crate) fn binding_power(self) -> (u8, u8) {
        match self {
            BinaryOp::Eq | BinaryOp::Ne => (2, 3),
            BinaryOp::Lt | BinaryOp::Le | BinaryOp::Gt | BinaryOp::Ge => (4, 5),
            BinaryOp::Add | BinaryOp::Sub => (6, 7),
            BinaryOp::Mul | BinaryOp::Div | BinaryOp::Rem => (8, 9),
            BinaryOp::Pow => (13, 12),
        }
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnaryOp {
    /// `-x`
    Neg,
}

/// A parsed formula.
///
/// `Expr` is immutable once parsed; sheets store one per parameter and
/// re-evaluate it against fresh [`Scope`](crate::Scope)s when the user
/// presses *Play*.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A literal, already scaled by any SI suffix (`253f` ⇒ `2.53e-13`).
    Number(f64),
    /// A variable reference, resolved against the scope chain.
    Variable(String),
    /// A unary operation.
    Unary(UnaryOp, Box<Expr>),
    /// A binary operation.
    Binary(BinaryOp, Box<Expr>, Box<Expr>),
    /// A call to a builtin function, e.g. `min(a, b)`.
    Call(String, Vec<Expr>),
}

impl Expr {
    /// Convenience constructor for a literal.
    pub fn number(value: f64) -> Expr {
        Expr::Number(value)
    }

    /// Convenience constructor for a variable reference.
    pub fn variable(name: impl Into<String>) -> Expr {
        Expr::Variable(name.into())
    }

    /// Whether `other` is the same formula, with numbers compared by bit
    /// pattern: unlike `==`, `0.0` and `-0.0` differ and a NaN equals
    /// itself. Two identical formulas evaluate to the same bits in every
    /// scope.
    ///
    /// ```
    /// use powerplay_expr::Expr;
    /// assert_eq!(Expr::number(0.0), Expr::number(-0.0));
    /// assert!(!Expr::number(0.0).identical(&Expr::number(-0.0)));
    /// ```
    pub fn identical(&self, other: &Expr) -> bool {
        match (self, other) {
            (Expr::Number(a), Expr::Number(b)) => a.to_bits() == b.to_bits(),
            (Expr::Variable(a), Expr::Variable(b)) => a == b,
            (Expr::Unary(op, a), Expr::Unary(op_b, b)) => op == op_b && a.identical(b),
            (Expr::Binary(op, a1, a2), Expr::Binary(op_b, b1, b2)) => {
                op == op_b && a1.identical(b1) && a2.identical(b2)
            }
            (Expr::Call(f, args), Expr::Call(g, args_b)) => {
                f == g
                    && args.len() == args_b.len()
                    && args.iter().zip(args_b).all(|(a, b)| a.identical(b))
            }
            _ => false,
        }
    }

    /// Collects every variable the formula references, in sorted order.
    ///
    /// The sheet engine uses this to build the dependency graph between
    /// parameters.
    ///
    /// ```
    /// use powerplay_expr::Expr;
    /// # fn main() -> Result<(), powerplay_expr::ParseExprError> {
    /// let e = Expr::parse("c * vdd^2 * f / 16")?;
    /// let vars: Vec<_> = e.free_variables().into_iter().collect();
    /// assert_eq!(vars, ["c", "f", "vdd"]);
    /// # Ok(())
    /// # }
    /// ```
    pub fn free_variables(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        self.collect_variables(&mut out);
        out
    }

    fn collect_variables(&self, out: &mut BTreeSet<String>) {
        match self {
            Expr::Number(_) => {}
            Expr::Variable(name) => {
                out.insert(name.clone());
            }
            Expr::Unary(_, inner) => inner.collect_variables(out),
            Expr::Binary(_, lhs, rhs) => {
                lhs.collect_variables(out);
                rhs.collect_variables(out);
            }
            Expr::Call(_, args) => {
                for arg in args {
                    arg.collect_variables(out);
                }
            }
        }
    }

    /// True when the formula references no variables at all.
    pub fn is_constant(&self) -> bool {
        self.free_variables().is_empty()
    }
}

impl fmt::Display for Expr {
    /// Prints a fully-parenthesized form that reparses to the same tree.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Number(n) => {
                if *n == n.trunc() && n.abs() < 1e15 {
                    write!(f, "{}", *n as i64)
                } else {
                    write!(f, "{n:?}")
                }
            }
            Expr::Variable(name) => f.write_str(name),
            Expr::Unary(UnaryOp::Neg, inner) => write!(f, "(-{inner})"),
            Expr::Binary(op, lhs, rhs) => write!(f, "({lhs} {} {rhs})", op.symbol()),
            Expr::Call(name, args) => {
                write!(f, "{name}(")?;
                for (i, arg) in args.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{arg}")?;
                }
                f.write_str(")")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn free_variables_deduplicate() {
        let e = Expr::parse("x + x * y").unwrap();
        let vars: Vec<_> = e.free_variables().into_iter().collect();
        assert_eq!(vars, ["x", "y"]);
    }

    #[test]
    fn constant_detection() {
        assert!(Expr::parse("1 + 2 * 3").unwrap().is_constant());
        assert!(!Expr::parse("1 + n").unwrap().is_constant());
        assert!(!Expr::parse("min(1, n)").unwrap().is_constant());
    }

    #[test]
    fn display_reparses_to_same_tree() {
        // The last five nest `MAX_DEPTH` levels: the print parenthesizes
        // every operator and still parses.
        let depth = crate::MAX_DEPTH;
        for src in [
            "1 + 2 * 3".to_string(),
            "-x ^ 2".to_string(),
            "min(a, b / 2)".to_string(),
            "(a + b) * c".to_string(),
            "a < b".to_string(),
            vec!["1"; depth + 1].join(" + "),
            vec!["2"; depth + 1].join(" ^ "),
            format!("{}x", "-".repeat(depth)),
            format!("{}x{}", "min(1, ".repeat(depth), ")".repeat(depth)),
            format!("{}x", "-".repeat(depth / 2)) + &" * y".repeat(depth / 2),
        ] {
            let parsed = Expr::parse(&src).unwrap();
            let printed = parsed.to_string();
            let reparsed = Expr::parse(&printed).unwrap();
            assert_eq!(parsed, reparsed, "{src} -> {printed}");
        }
    }

    #[test]
    fn display_integers_without_fraction() {
        assert_eq!(Expr::parse("16").unwrap().to_string(), "16");
        assert_eq!(Expr::parse("2.5").unwrap().to_string(), "2.5");
    }
}
