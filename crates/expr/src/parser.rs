//! Pratt parser turning token streams into [`Expr`] trees.

use crate::ast::{BinaryOp, Expr, UnaryOp};
use crate::error::ParseExprError;
use crate::lexer::{lex, Spanned, Token};

impl Expr {
    /// Parses a formula.
    ///
    /// Supported grammar: `+ - * / % ^` with conventional precedence
    /// (`^` right-associative, binding tighter than unary minus),
    /// comparisons (`< <= > >= == !=`, lowest precedence, yielding 0/1),
    /// parentheses, function calls, identifiers and SI-scaled literals.
    ///
    /// A formula nests at most [`MAX_DEPTH`] levels: calls and unary
    /// and binary operators each count one, so a left-deep `1 + 1 + …`
    /// counts one per term. Every recursive walk over a parsed formula
    /// (evaluation, lowering, analysis, lint, printing) is bounded with
    /// it. Parentheses and unary plus leave no node in the tree; they
    /// nest at most [`MAX_DEPTH`] deep on their own count, which bounds
    /// the parser's stack. A printed formula parenthesizes each
    /// operator, so it nests no deeper than the tree it prints and
    /// parses again.
    ///
    /// # Errors
    ///
    /// Returns [`ParseExprError`] with a byte offset on malformed input,
    /// or on the token that nests past [`MAX_DEPTH`].
    ///
    /// ```
    /// use powerplay_expr::Expr;
    /// # fn main() -> Result<(), powerplay_expr::ParseExprError> {
    /// let e = Expr::parse("c0 + c1*words + c1*bits + c2*words*bits")?;
    /// assert_eq!(e.free_variables().len(), 5);
    /// assert!(Expr::parse(&"-".repeat(300)).is_err());
    /// # Ok(())
    /// # }
    /// ```
    pub fn parse(src: &str) -> Result<Expr, ParseExprError> {
        let tokens = lex(src)?;
        let mut parser = Parser {
            tokens: &tokens,
            pos: 0,
            src_len: src.len(),
        };
        let expr = parser.expression()?;
        if parser.pos != parser.tokens.len() {
            return Err(ParseExprError::new(
                parser.offset(),
                "unexpected trailing tokens",
            ));
        }
        Ok(expr)
    }
}

/// The deepest nesting a formula may have (see [`Expr::parse`]).
pub const MAX_DEPTH: usize = 256;

struct Parser<'a> {
    tokens: &'a [Spanned],
    pos: usize,
    src_len: usize,
}

/// Binding power to the right of unary minus: tighter than `*`, looser
/// than `^`, so `-x^2` parses as `-(x^2)` and `-x*y` as `(-x)*y`.
const UNARY_NEG_BP: u8 = 11;

/// Binding power of unary plus's operand: no binary operator binds it,
/// so `+` takes one prefix, as unary minus takes one power.
const PREFIX_BP: u8 = u8::MAX;

/// An expression being parsed: the least binding power of the operators
/// it takes, the tree levels it nests inside, and the groups
/// (parentheses, unary plus) it sits in.
#[derive(Clone, Copy)]
struct Ctx {
    min_bp: u8,
    level: usize,
    groups: usize,
}

/// The construct an expression being parsed completes, once it ends.
enum Pending {
    /// The right operand of `lhs op`, with `lhs`'s height.
    Binary(Expr, usize, BinaryOp),
    /// The operand of unary minus.
    Neg,
    /// The operand of unary plus, a group.
    Plus,
    /// The inside of parentheses, a group.
    Paren,
    /// The next argument of a call, after `args`, with their height.
    Call(String, Vec<Expr>, usize),
}

/// What a prefix token starts: an operand and its height, or a construct
/// that nests an expression of the binding power given.
enum Prefix {
    Leaf(Expr, usize),
    Nest(Pending, u8),
}

/// The error of a formula that nests past [`MAX_DEPTH`], at `offset`,
/// when a subformula `height` levels high sits `level` levels deep. A
/// group is checked the same way on its own count, as one level high.
fn bounded(level: usize, height: usize, offset: usize) -> Result<(), ParseExprError> {
    if level + height > MAX_DEPTH {
        return Err(ParseExprError::new(
            offset,
            format!("formula nests deeper than {MAX_DEPTH} levels"),
        ));
    }
    Ok(())
}

impl<'a> Parser<'a> {
    fn offset(&self) -> usize {
        self.tokens.get(self.pos).map_or(self.src_len, |t| t.offset)
    }

    fn peek(&self) -> Option<&'a Token> {
        self.tokens.get(self.pos).map(|t| &t.token)
    }

    fn expect(&mut self, expected: &Token, what: &str) -> Result<(), ParseExprError> {
        if self.peek() == Some(expected) {
            self.pos += 1;
            Ok(())
        } else {
            Err(ParseExprError::new(
                self.offset(),
                format!("expected {what}"),
            ))
        }
    }

    fn binary_op(&self) -> Option<BinaryOp> {
        Some(match self.peek()? {
            Token::Plus => BinaryOp::Add,
            Token::Minus => BinaryOp::Sub,
            Token::Star => BinaryOp::Mul,
            Token::Slash => BinaryOp::Div,
            Token::Percent => BinaryOp::Rem,
            Token::Caret => BinaryOp::Pow,
            Token::Lt => BinaryOp::Lt,
            Token::Le => BinaryOp::Le,
            Token::Gt => BinaryOp::Gt,
            Token::Ge => BinaryOp::Ge,
            Token::EqEq => BinaryOp::Eq,
            Token::Ne => BinaryOp::Ne,
            _ => return None,
        })
    }

    /// Pratt parsing with the recursion on an explicit stack: each
    /// construct that nests an expression (an operator's operand,
    /// parentheses, a call's argument) pushes what it completes and
    /// parses that expression inside it, so no formula, however deep,
    /// deepens the call stack.
    fn expression(&mut self) -> Result<Expr, ParseExprError> {
        let mut stack: Vec<(Ctx, Pending)> = Vec::new();
        let mut ctx = Ctx {
            min_bp: 0,
            level: 0,
            groups: 0,
        };
        'operand: loop {
            let offset = self.offset();
            let token = self.peek();
            self.pos += 1;
            let prefix = match token {
                Some(Token::Number(n)) => Prefix::Leaf(Expr::Number(*n), 0),
                Some(Token::Ident(name)) if self.peek() != Some(&Token::LParen) => {
                    Prefix::Leaf(Expr::Variable(name.clone()), 0)
                }
                Some(Token::Ident(name)) => {
                    self.pos += 1;
                    if self.peek() == Some(&Token::RParen) {
                        bounded(ctx.level, 1, offset)?;
                        self.pos += 1;
                        Prefix::Leaf(Expr::Call(name.clone(), Vec::new()), 1)
                    } else {
                        Prefix::Nest(Pending::Call(name.clone(), Vec::new(), 0), 0)
                    }
                }
                Some(Token::Minus) => Prefix::Nest(Pending::Neg, UNARY_NEG_BP),
                Some(Token::Plus) => Prefix::Nest(Pending::Plus, PREFIX_BP),
                Some(Token::LParen) => Prefix::Nest(Pending::Paren, 0),
                Some(_) => return Err(ParseExprError::new(offset, "unexpected token")),
                None => return Err(ParseExprError::new(offset, "unexpected end of formula")),
            };
            let (mut lhs, mut height) = match prefix {
                Prefix::Leaf(leaf, height) => (leaf, height),
                Prefix::Nest(pending, min_bp) => {
                    let mut inner = Ctx { min_bp, ..ctx };
                    if matches!(pending, Pending::Plus | Pending::Paren) {
                        bounded(ctx.groups, 1, offset)?;
                        inner.groups += 1;
                    } else {
                        bounded(ctx.level, 1, offset)?;
                        inner.level += 1;
                    }
                    stack.push((ctx, pending));
                    ctx = inner;
                    continue 'operand;
                }
            };
            // Extend the operand with the operators `ctx` takes; when
            // `ctx` ends, complete the construct it nests in.
            loop {
                if let Some(op) = self.binary_op() {
                    let (l_bp, r_bp) = op.binding_power();
                    if l_bp >= ctx.min_bp {
                        bounded(ctx.level, height + 1, self.offset())?;
                        self.pos += 1;
                        stack.push((ctx, Pending::Binary(lhs, height, op)));
                        ctx = Ctx {
                            min_bp: r_bp,
                            level: ctx.level + 1,
                            ..ctx
                        };
                        continue 'operand;
                    }
                }
                let Some((outer, pending)) = stack.pop() else {
                    return Ok(lhs);
                };
                match pending {
                    Pending::Binary(left, left_height, op) => {
                        lhs = Expr::Binary(op, Box::new(left), Box::new(lhs));
                        height = height.max(left_height) + 1;
                    }
                    Pending::Neg => {
                        lhs = Expr::Unary(UnaryOp::Neg, Box::new(lhs));
                        height += 1;
                    }
                    Pending::Plus => {}
                    Pending::Paren => self.expect(&Token::RParen, "`)`")?,
                    Pending::Call(name, mut args, args_height) => {
                        args.push(lhs);
                        height = height.max(args_height);
                        match self.peek() {
                            Some(Token::Comma) => {
                                self.pos += 1;
                                stack.push((outer, Pending::Call(name, args, height)));
                                ctx = Ctx {
                                    min_bp: 0,
                                    level: outer.level + 1,
                                    ..outer
                                };
                                continue 'operand;
                            }
                            Some(Token::RParen) => {
                                self.pos += 1;
                                lhs = Expr::Call(name, args);
                                height += 1;
                            }
                            _ => {
                                return Err(ParseExprError::new(
                                    self.offset(),
                                    "expected `,` or `)` in argument list",
                                ))
                            }
                        }
                    }
                }
                ctx = outer;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scope;

    fn eval(src: &str) -> f64 {
        Expr::parse(src).unwrap().eval(&Scope::new()).unwrap()
    }

    #[test]
    fn precedence() {
        assert_eq!(eval("1 + 2 * 3"), 7.0);
        assert_eq!(eval("(1 + 2) * 3"), 9.0);
        assert_eq!(eval("10 - 4 - 3"), 3.0); // left-assoc
        assert_eq!(eval("2 ^ 3 ^ 2"), 512.0); // right-assoc
        assert_eq!(eval("10 / 2 / 5"), 1.0);
        assert_eq!(eval("7 % 4"), 3.0);
    }

    #[test]
    fn unary_minus() {
        assert_eq!(eval("-3 + 5"), 2.0);
        assert_eq!(eval("-2 ^ 2"), -4.0); // -(2^2)
        assert_eq!(eval("(-2) ^ 2"), 4.0);
        assert_eq!(eval("--3"), 3.0);
        assert_eq!(eval("+5"), 5.0);
        assert_eq!(eval("-2 * 3"), -6.0);
    }

    #[test]
    fn comparisons_yield_indicator_values() {
        assert_eq!(eval("3 < 4"), 1.0);
        assert_eq!(eval("3 >= 4"), 0.0);
        assert_eq!(eval("2 + 2 == 4"), 1.0);
        assert_eq!(eval("1 != 1"), 0.0);
        // Comparisons bind loosest.
        assert_eq!(eval("1 + 1 < 1 + 3"), 1.0);
    }

    #[test]
    fn function_calls() {
        assert_eq!(eval("min(3, 2)"), 2.0);
        assert_eq!(eval("max(3, 2 * 2)"), 4.0);
        assert_eq!(eval("sqrt(16)"), 4.0);
        assert_eq!(eval("if(3 > 2, 10, 20)"), 10.0);
    }

    #[test]
    fn si_literals_in_formulas() {
        let v = eval("8 * 8 * 253f");
        assert!((v - 8.0 * 8.0 * 253e-15).abs() < 1e-24);
        assert_eq!(eval("2MHz / 16"), 125e3);
    }

    #[test]
    fn error_positions() {
        assert_eq!(Expr::parse("1 + * 2").unwrap_err().offset(), 4);
        assert_eq!(Expr::parse("1 + 2)").unwrap_err().offset(), 5);
        assert_eq!(Expr::parse("(1 + 2").unwrap_err().offset(), 6);
        assert!(Expr::parse("").is_err());
        assert!(Expr::parse("min(1, 2").is_err());
        assert!(Expr::parse("f(,)").is_err());
    }

    #[test]
    fn deep_nesting_parses() {
        let src = format!("{}1{}", "(".repeat(64), ")".repeat(64));
        assert_eq!(eval(&src), 1.0);
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let parens = |n: usize| format!("{}1{}", "(".repeat(n), ")".repeat(n));
        assert_eq!(eval(&parens(MAX_DEPTH)), 1.0);
        assert_eq!(
            Expr::parse(&parens(MAX_DEPTH + 1)).unwrap_err().offset(),
            256
        );
        // A left-deep sum nests one level per `+`: the one past the cap
        // is the error.
        let terms = |n: usize| vec!["1"; n].join("+");
        assert_eq!(eval(&terms(MAX_DEPTH + 1)), 257.0);
        let err = Expr::parse(&terms(MAX_DEPTH + 2)).unwrap_err();
        assert_eq!(err.offset(), 2 * MAX_DEPTH + 1);
        assert_eq!(
            err.to_string(),
            "formula nests deeper than 256 levels at offset 513"
        );
        assert_eq!(eval(&format!("{}1", "-".repeat(MAX_DEPTH))), 1.0);
        assert!(Expr::parse(&format!("{}1", "+".repeat(MAX_DEPTH + 1))).is_err());
        let calls = |n: usize| format!("{}1{}", "abs(".repeat(n), ")".repeat(n));
        assert_eq!(eval(&calls(MAX_DEPTH)), 1.0);
        assert!(Expr::parse(&calls(MAX_DEPTH + 1)).is_err());
        // Parentheses count apart from the tree: a sum at the cap
        // parenthesized at every level, as it prints, still parses; one
        // more group or one more `+` is the error.
        let grouped = format!("{}1{}", "(".repeat(MAX_DEPTH), "+1)".repeat(MAX_DEPTH));
        assert_eq!(eval(&grouped), 257.0);
        let err = Expr::parse(&format!("({grouped})")).unwrap_err();
        assert_eq!(err.offset(), MAX_DEPTH);
        let err = Expr::parse(&format!("{grouped}+1")).unwrap_err();
        assert_eq!(err.offset(), grouped.len());
    }
}
