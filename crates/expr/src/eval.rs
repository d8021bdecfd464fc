//! Scopes and formula evaluation.

use std::collections::HashMap;
use std::sync::Arc;

use crate::ast::{BinaryOp, Expr, UnaryOp};
use crate::error::EvalError;

/// Builtin functions callable from formulas, with their arities.
///
/// `if(cond, then, else)` treats any non-zero condition as true, which
/// composes with the 0/1-valued comparison operators.
pub const BUILTIN_FUNCTIONS: [(&str, usize); 14] = [
    ("abs", 1),
    ("sqrt", 1),
    ("exp", 1),
    ("ln", 1),
    ("log10", 1),
    ("log2", 1),
    ("floor", 1),
    ("ceil", 1),
    ("round", 1),
    ("min", 2),
    ("max", 2),
    ("pow", 2),
    ("hypot", 2),
    ("if", 3),
];

/// A builtin function resolved to an opcode, so evaluators can dispatch
/// without comparing names. The tree walker and the sheet crate's
/// bytecode interpreter share this table — one source of truth for
/// which intrinsic each name means.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Builtin {
    Abs,
    Sqrt,
    Exp,
    Ln,
    Log10,
    Log2,
    Floor,
    Ceil,
    Round,
    Min,
    Max,
    Pow,
    Hypot,
    If,
}

impl Builtin {
    /// Resolves a function name to its opcode, or `None` for unknown
    /// functions. Covers exactly [`BUILTIN_FUNCTIONS`].
    pub fn lookup(name: &str) -> Option<Builtin> {
        Some(match name {
            "abs" => Builtin::Abs,
            "sqrt" => Builtin::Sqrt,
            "exp" => Builtin::Exp,
            "ln" => Builtin::Ln,
            "log10" => Builtin::Log10,
            "log2" => Builtin::Log2,
            "floor" => Builtin::Floor,
            "ceil" => Builtin::Ceil,
            "round" => Builtin::Round,
            "min" => Builtin::Min,
            "max" => Builtin::Max,
            "pow" => Builtin::Pow,
            "hypot" => Builtin::Hypot,
            "if" => Builtin::If,
            _ => return None,
        })
    }

    /// The name this opcode was resolved from.
    pub fn name(self) -> &'static str {
        match self {
            Builtin::Abs => "abs",
            Builtin::Sqrt => "sqrt",
            Builtin::Exp => "exp",
            Builtin::Ln => "ln",
            Builtin::Log10 => "log10",
            Builtin::Log2 => "log2",
            Builtin::Floor => "floor",
            Builtin::Ceil => "ceil",
            Builtin::Round => "round",
            Builtin::Min => "min",
            Builtin::Max => "max",
            Builtin::Pow => "pow",
            Builtin::Hypot => "hypot",
            Builtin::If => "if",
        }
    }

    /// Number of arguments the builtin takes.
    pub fn arity(self) -> usize {
        match self {
            Builtin::Abs
            | Builtin::Sqrt
            | Builtin::Exp
            | Builtin::Ln
            | Builtin::Log10
            | Builtin::Log2
            | Builtin::Floor
            | Builtin::Ceil
            | Builtin::Round => 1,
            Builtin::Min | Builtin::Max | Builtin::Pow | Builtin::Hypot => 2,
            Builtin::If => 3,
        }
    }

    /// Applies a unary builtin. Panics on arity-2/3 opcodes.
    #[inline]
    pub fn apply1(self, x: f64) -> f64 {
        match self {
            Builtin::Abs => x.abs(),
            Builtin::Sqrt => x.sqrt(),
            Builtin::Exp => x.exp(),
            Builtin::Ln => x.ln(),
            Builtin::Log10 => x.log10(),
            Builtin::Log2 => x.log2(),
            Builtin::Floor => x.floor(),
            Builtin::Ceil => x.ceil(),
            Builtin::Round => x.round(),
            _ => unreachable!("apply1 on arity-{} builtin {}", self.arity(), self.name()),
        }
    }

    /// Applies a binary builtin. Panics on arity-1/3 opcodes.
    #[inline]
    pub fn apply2(self, a: f64, b: f64) -> f64 {
        match self {
            Builtin::Min => a.min(b),
            Builtin::Max => a.max(b),
            Builtin::Pow => a.powf(b),
            Builtin::Hypot => a.hypot(b),
            _ => unreachable!("apply2 on arity-{} builtin {}", self.arity(), self.name()),
        }
    }

    /// Applies the builtin to an argument slice of exactly [`Self::arity`]
    /// values. `if` selects on `cond != 0.0` with all arguments already
    /// evaluated — eager, like the tree walker.
    #[inline]
    pub fn apply(self, args: &[f64]) -> f64 {
        match (self.arity(), args) {
            (1, [x]) => self.apply1(*x),
            (2, [a, b]) => self.apply2(*a, *b),
            (3, [c, t, e]) => {
                debug_assert_eq!(self, Builtin::If);
                if *c != 0.0 {
                    *t
                } else {
                    *e
                }
            }
            _ => unreachable!("arity checked before dispatch"),
        }
    }
}

/// A variable environment with optional lexical parent.
///
/// Sheets use one scope per hierarchy level: a sub-sheet's scope chains to
/// its parent's, so `vdd` defined at the top level is visible in every
/// nested sub-circuit unless shadowed — the paper's "subcircuits may be
/// defined to inherit global parameters".
///
/// ```
/// use powerplay_expr::{Expr, Scope};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut top = Scope::new();
/// top.set("vdd", 1.5);
/// let mut sub = top.child();
/// sub.set("bits", 6.0);
/// assert_eq!(Expr::parse("vdd * bits")?.eval(&sub)?, 9.0);
/// # Ok(())
/// # }
/// ```
/// Keys are shared `Arc<str>` handles so callers that evaluate the same
/// design repeatedly (compiled sheet plans, sweeps) can intern each name
/// once and re-bind it every play without allocating.
#[derive(Debug, Clone, Default)]
pub struct Scope<'parent> {
    bindings: HashMap<Arc<str>, f64>,
    parent: Option<&'parent Scope<'parent>>,
}

impl<'parent> Scope<'parent> {
    /// Creates an empty root scope.
    pub fn new() -> Scope<'static> {
        Scope {
            bindings: HashMap::new(),
            parent: None,
        }
    }

    /// Creates a child scope whose lookups fall back to `self`.
    pub fn child(&self) -> Scope<'_> {
        Scope {
            bindings: HashMap::new(),
            parent: Some(self),
        }
    }

    /// Binds (or shadows) a variable in this scope level.
    pub fn set(&mut self, name: impl Into<Arc<str>>, value: f64) {
        self.bindings.insert(name.into(), value);
    }

    /// Resolves a variable through the scope chain.
    pub fn get(&self, name: &str) -> Option<f64> {
        match self.bindings.get(name) {
            Some(v) => Some(*v),
            None => self.parent.and_then(|p| p.get(name)),
        }
    }

    /// Names bound at *this* level (not the whole chain), sorted.
    ///
    /// Allocates and sorts on every call — hot paths that need the same
    /// listing repeatedly (compiled-plan diagnostics) should compute it
    /// once at compile time and reuse the result.
    pub fn local_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.bindings.keys().map(|k| &**k).collect();
        names.sort_unstable();
        names
    }
}

impl<'p> FromIterator<(String, f64)> for Scope<'p> {
    fn from_iter<I: IntoIterator<Item = (String, f64)>>(iter: I) -> Self {
        Scope {
            bindings: iter
                .into_iter()
                .map(|(name, value)| (Arc::from(name), value))
                .collect(),
            parent: None,
        }
    }
}

impl Expr {
    /// Evaluates the formula against `scope`.
    ///
    /// Division by zero follows IEEE-754 (yielding ±inf/NaN) rather than
    /// erroring, matching spreadsheet behaviour; the sheet layer flags
    /// non-finite results.
    ///
    /// # Errors
    ///
    /// Returns [`EvalError`] for unknown variables or functions and wrong
    /// arities.
    pub fn eval(&self, scope: &Scope<'_>) -> Result<f64, EvalError> {
        match self {
            Expr::Number(n) => Ok(*n),
            Expr::Variable(name) => scope
                .get(name)
                .ok_or_else(|| EvalError::UnknownVariable(name.clone())),
            Expr::Unary(UnaryOp::Neg, inner) => Ok(-inner.eval(scope)?),
            Expr::Binary(op, lhs, rhs) => {
                let l = lhs.eval(scope)?;
                let r = rhs.eval(scope)?;
                Ok(apply_binary(*op, l, r))
            }
            Expr::Call(name, args) => {
                let builtin = Builtin::lookup(name)
                    .ok_or_else(|| EvalError::UnknownFunction(name.clone()))?;
                let arity = builtin.arity();
                if args.len() != arity {
                    return Err(EvalError::WrongArity {
                        function: name.clone(),
                        expected: arity,
                        found: args.len(),
                    });
                }
                let mut values = [0.0f64; 3];
                for (slot, arg) in values.iter_mut().zip(args) {
                    *slot = arg.eval(scope)?;
                }
                Ok(builtin.apply(&values[..arity]))
            }
        }
    }
}

impl Expr {
    /// Folds the expression to a constant, if it contains no variables
    /// and every call resolves to a builtin with the right arity.
    ///
    /// This is the evaluator restricted to closed expressions — the
    /// arithmetic is byte-for-byte the same dispatch `eval` uses — so a
    /// static analyzer can ask "what number would this term always
    /// produce?" without inventing a scope. Returns `None` as soon as a
    /// variable, unknown function, or wrong arity is encountered.
    ///
    /// ```
    /// use powerplay_expr::Expr;
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// assert_eq!(Expr::parse("2 * (3 + 4)")?.constant_value(), Some(14.0));
    /// assert_eq!(Expr::parse("2 * bits")?.constant_value(), None);
    /// # Ok(())
    /// # }
    /// ```
    pub fn constant_value(&self) -> Option<f64> {
        match self {
            Expr::Number(n) => Some(*n),
            Expr::Variable(_) => None,
            Expr::Unary(UnaryOp::Neg, inner) => Some(-inner.constant_value()?),
            Expr::Binary(op, lhs, rhs) => Some(apply_binary(
                *op,
                lhs.constant_value()?,
                rhs.constant_value()?,
            )),
            Expr::Call(name, args) => {
                let builtin = Builtin::lookup(name)?;
                let arity = builtin.arity();
                if args.len() != arity {
                    return None;
                }
                let mut values = [0.0f64; 3];
                for (slot, arg) in values.iter_mut().zip(args) {
                    *slot = arg.constant_value()?;
                }
                Some(builtin.apply(&values[..arity]))
            }
        }
    }
}

/// Applies a binary operator with the exact arithmetic the evaluator
/// uses (comparisons produce 0/1 indicators). Public so the bytecode
/// interpreter dispatches through the same code path bit for bit.
#[inline]
pub fn apply_binary(op: BinaryOp, l: f64, r: f64) -> f64 {
    match op {
        BinaryOp::Add => l + r,
        BinaryOp::Sub => l - r,
        BinaryOp::Mul => l * r,
        BinaryOp::Div => l / r,
        BinaryOp::Rem => l % r,
        BinaryOp::Pow => l.powf(r),
        BinaryOp::Lt => indicator(l < r),
        BinaryOp::Le => indicator(l <= r),
        BinaryOp::Gt => indicator(l > r),
        BinaryOp::Ge => indicator(l >= r),
        BinaryOp::Eq => indicator(l == r),
        BinaryOp::Ne => indicator(l != r),
    }
}

fn indicator(b: bool) -> f64 {
    if b {
        1.0
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eval_in(src: &str, scope: &Scope<'_>) -> f64 {
        Expr::parse(src).unwrap().eval(scope).unwrap()
    }

    #[test]
    fn scope_chain_resolution() {
        let mut top = Scope::new();
        top.set("vdd", 1.5);
        top.set("f", 2e6);
        let mut mid = top.child();
        mid.set("bits", 6.0);
        let mut leaf = mid.child();
        leaf.set("vdd", 3.3); // shadows the global

        assert_eq!(eval_in("vdd", &top), 1.5);
        assert_eq!(eval_in("vdd", &mid), 1.5);
        assert_eq!(eval_in("vdd", &leaf), 3.3);
        assert_eq!(eval_in("bits * 2", &leaf), 12.0);
        assert_eq!(eval_in("f / 16", &leaf), 125e3);
    }

    #[test]
    fn unknown_variable_error() {
        let err = Expr::parse("x + 1")
            .unwrap()
            .eval(&Scope::new())
            .unwrap_err();
        assert_eq!(err, EvalError::UnknownVariable("x".into()));
    }

    #[test]
    fn unknown_function_error() {
        let err = Expr::parse("frobnicate(1)")
            .unwrap()
            .eval(&Scope::new())
            .unwrap_err();
        assert_eq!(err, EvalError::UnknownFunction("frobnicate".into()));
    }

    #[test]
    fn wrong_arity_error() {
        let err = Expr::parse("min(1, 2, 3)")
            .unwrap()
            .eval(&Scope::new())
            .unwrap_err();
        assert_eq!(
            err,
            EvalError::WrongArity {
                function: "min".into(),
                expected: 2,
                found: 3
            }
        );
    }

    #[test]
    fn division_by_zero_is_ieee() {
        let v = Expr::parse("1 / 0").unwrap().eval(&Scope::new()).unwrap();
        assert!(v.is_infinite());
    }

    #[test]
    fn all_builtins_dispatch() {
        let scope = Scope::new();
        for (name, arity) in BUILTIN_FUNCTIONS {
            let args = ["2", "3", "4"][..arity].join(", ");
            let src = format!("{name}({args})");
            let v = Expr::parse(&src).unwrap().eval(&scope).unwrap();
            assert!(v.is_finite(), "{src} -> {v}");
        }
    }

    #[test]
    fn local_names_sorted() {
        let mut s = Scope::new();
        s.set("zeta", 1.0);
        s.set("alpha", 2.0);
        assert_eq!(s.local_names(), ["alpha", "zeta"]);
    }

    #[test]
    fn from_iterator() {
        let s: Scope<'_> = [("a".to_owned(), 1.0), ("b".to_owned(), 2.0)]
            .into_iter()
            .collect();
        assert_eq!(s.get("a"), Some(1.0));
        assert_eq!(s.get("c"), None);
    }
}
