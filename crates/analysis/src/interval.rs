//! The interval abstract domain.
//!
//! An [`Interval`] describes the set of `f64` values a formula can
//! evaluate to: a closed numeric range `[lo, hi]` (endpoints may be
//! infinite) plus a flag recording whether `NaN` is also reachable.
//! Every transfer function here *over-approximates* the corresponding
//! concrete operation in `powerplay-expr` (`apply_binary` /
//! `apply_function`): if `x ∈ A` and `y ∈ B` then `op(x, y) ∈
//! op#(A, B)`. That containment is the soundness contract the
//! property tests in this crate hammer.
//!
//! Two IEEE-754 facts keep the endpoint arithmetic honest without a
//! rounding-mode dance:
//!
//! * Round-to-nearest is *monotone*, so for the algebraic operations
//!   (`+ - * / %`) evaluating the operation at interval endpoints
//!   yields endpoints that bound every interior result — no outward
//!   rounding needed.
//! * The libm transcendentals (`exp`, `ln`, `log10`, `log2`, `powf`,
//!   `hypot`) are *not* guaranteed correctly rounded or monotone, so
//!   their endpoint results are widened outward by a few ulps
//!   (`ULP_SLOP`) before use. `sqrt` is IEEE-exact and needs none.
//!
//! Signed zeros are deliberately ignored: `-0.0 == 0.0` numerically,
//! and every containment check here compares numerically, so an
//! interval endpoint of either zero covers both. The one place sign
//! of zero changes a *result* class (division) is handled by treating
//! any zero-containing denominator pessimistically.

/// How many ulps endpoint results of non-correctly-rounded libm calls
/// are widened outward. glibc's worst published errors for these
/// functions are ≤ 2 ulp; 4 leaves margin for other libms.
const ULP_SLOP: u32 = 4;

/// A set of `f64` values: the closed range `[lo, hi]` (empty when
/// `lo > hi`) unioned with `{NaN}` when `nan` is set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    /// Numeric lower bound (may be `-inf`; `+inf` when the numeric
    /// part is empty).
    pub lo: f64,
    /// Numeric upper bound (may be `+inf`; `-inf` when the numeric
    /// part is empty).
    pub hi: f64,
    /// Whether `NaN` is a reachable value.
    pub nan: bool,
}

/// The empty numeric range used by [`Interval::BOTTOM`] and
/// [`Interval::NAN_ONLY`].
const EMPTY_LO: f64 = f64::INFINITY;
const EMPTY_HI: f64 = f64::NEG_INFINITY;

impl Interval {
    /// The empty set (no value reachable).
    pub const BOTTOM: Interval = Interval {
        lo: EMPTY_LO,
        hi: EMPTY_HI,
        nan: false,
    };

    /// Only `NaN` is reachable.
    pub const NAN_ONLY: Interval = Interval {
        lo: EMPTY_LO,
        hi: EMPTY_HI,
        nan: true,
    };

    /// Every value, including `NaN`.
    pub const TOP: Interval = Interval {
        lo: f64::NEG_INFINITY,
        hi: f64::INFINITY,
        nan: true,
    };

    /// The single value `v` (or [`Interval::NAN_ONLY`] when `v` is NaN).
    #[must_use]
    pub fn point(v: f64) -> Interval {
        if v.is_nan() {
            Interval::NAN_ONLY
        } else {
            Interval {
                lo: v,
                hi: v,
                nan: false,
            }
        }
    }

    /// The closed numeric range `[lo, hi]` without NaN.
    ///
    /// # Panics
    ///
    /// Panics when `lo > hi` or either endpoint is NaN.
    #[must_use]
    pub fn new(lo: f64, hi: f64) -> Interval {
        assert!(lo <= hi, "interval endpoints out of order: [{lo}, {hi}]");
        Interval { lo, hi, nan: false }
    }

    /// True when the numeric part is empty (only NaN, or nothing, is
    /// reachable).
    // The negated form deliberately reads a NaN endpoint as empty,
    // should one ever slip in; `lo > hi` would read it as non-empty.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    #[must_use]
    pub fn is_numeric_empty(&self) -> bool {
        !(self.lo <= self.hi)
    }

    /// True when no value at all is reachable.
    #[must_use]
    pub fn is_bottom(&self) -> bool {
        self.is_numeric_empty() && !self.nan
    }

    /// True when exactly one numeric value is reachable.
    #[must_use]
    pub fn is_point(&self) -> bool {
        self.lo == self.hi && !self.nan
    }

    /// True when `v` is a member of the set.
    #[must_use]
    pub fn contains(&self, v: f64) -> bool {
        if v.is_nan() {
            self.nan
        } else {
            self.lo <= v && v <= self.hi
        }
    }

    /// True when zero lies in the numeric range.
    #[must_use]
    pub fn contains_zero(&self) -> bool {
        self.lo <= 0.0 && 0.0 <= self.hi
    }

    /// True when either infinity lies in the numeric range.
    #[must_use]
    pub fn has_infinity(&self) -> bool {
        self.lo == f64::NEG_INFINITY || self.hi == f64::INFINITY
    }

    /// True when every reachable value is a finite number (no NaN, no
    /// infinities, numeric part nonempty).
    #[must_use]
    pub fn is_finite(&self) -> bool {
        !self.nan && !self.is_numeric_empty() && self.lo.is_finite() && self.hi.is_finite()
    }

    /// The smallest interval containing both sets.
    #[must_use]
    pub fn union(self, other: Interval) -> Interval {
        let nan = self.nan || other.nan;
        match (self.is_numeric_empty(), other.is_numeric_empty()) {
            (true, true) => Interval {
                nan,
                ..Interval::BOTTOM
            },
            (true, false) => Interval { nan, ..other },
            (false, true) => Interval { nan, ..self },
            (false, false) => Interval {
                lo: self.lo.min(other.lo),
                hi: self.hi.max(other.hi),
                nan,
            },
        }
    }

    /// Intersects with `[lo, hi]` and drops NaN — the shape of "this
    /// value passed the engine's finite-and-nonnegative check".
    #[must_use]
    pub fn clamp_numeric(self, lo: f64, hi: f64) -> Interval {
        Interval {
            lo: self.lo.max(lo),
            hi: self.hi.min(hi),
            nan: false,
        }
    }

    /// Largest absolute numeric value reachable (0 for an empty range).
    #[must_use]
    fn abs_hi(&self) -> f64 {
        if self.is_numeric_empty() {
            0.0
        } else {
            self.lo.abs().max(self.hi.abs())
        }
    }

    /// Widens both endpoints outward by [`ULP_SLOP`] ulps, covering
    /// libm's rounding slack at the endpoint evaluations.
    #[must_use]
    fn widen_ulps(self) -> Interval {
        if self.is_numeric_empty() {
            return self;
        }
        let mut lo = self.lo;
        let mut hi = self.hi;
        for _ in 0..ULP_SLOP {
            lo = lo.next_down();
            hi = hi.next_up();
        }
        Interval {
            lo,
            hi,
            nan: self.nan,
        }
    }
}

/// Collects candidate endpoint values: non-NaN candidates extend the
/// hull, NaN candidates set the nan flag (a NaN produced by endpoint
/// arithmetic — `inf - inf`, `0 * inf`, `inf / inf` — is always a
/// genuinely reachable concrete result, because the endpoints
/// themselves are reachable values).
fn hull(candidates: &[f64], nan: bool) -> Interval {
    let mut lo = EMPTY_LO;
    let mut hi = EMPTY_HI;
    let mut saw_nan = nan;
    for &c in candidates {
        if c.is_nan() {
            saw_nan = true;
        } else {
            lo = lo.min(c);
            hi = hi.max(c);
        }
    }
    if lo > hi {
        Interval {
            nan: saw_nan,
            ..Interval::BOTTOM
        }
    } else {
        Interval {
            lo,
            hi,
            nan: saw_nan,
        }
    }
}

/// True when either operand is bottom — no concrete pair exists, so
/// every operation yields bottom.
fn either_bottom(a: Interval, b: Interval) -> bool {
    a.is_bottom() || b.is_bottom()
}

/// Shared prologue for binary transfers: the result's NaN flag starts
/// from operand NaN flags (NaN propagates through all arithmetic), and
/// a pure-NaN operand empties the numeric part.
fn numeric_pair(a: Interval, b: Interval) -> Option<(Interval, Interval)> {
    if a.is_numeric_empty() || b.is_numeric_empty() {
        None
    } else {
        Some((a, b))
    }
}

/// `x + y`.
#[must_use]
pub fn add(a: Interval, b: Interval) -> Interval {
    if either_bottom(a, b) {
        return Interval::BOTTOM;
    }
    let nan = a.nan || b.nan;
    match numeric_pair(a, b) {
        None => Interval {
            nan,
            ..Interval::BOTTOM
        },
        Some((a, b)) => hull(&[a.lo + b.lo, a.lo + b.hi, a.hi + b.lo, a.hi + b.hi], nan),
    }
}

/// `x - y`.
#[must_use]
pub fn sub(a: Interval, b: Interval) -> Interval {
    if either_bottom(a, b) {
        return Interval::BOTTOM;
    }
    let nan = a.nan || b.nan;
    match numeric_pair(a, b) {
        None => Interval {
            nan,
            ..Interval::BOTTOM
        },
        Some((a, b)) => hull(&[a.lo - b.lo, a.lo - b.hi, a.hi - b.lo, a.hi - b.hi], nan),
    }
}

/// `x * y`.
#[must_use]
pub fn mul(a: Interval, b: Interval) -> Interval {
    if either_bottom(a, b) {
        return Interval::BOTTOM;
    }
    let mut nan = a.nan || b.nan;
    match numeric_pair(a, b) {
        None => Interval {
            nan,
            ..Interval::BOTTOM
        },
        Some((a, b)) => {
            // 0 × ∞ with the zero strictly inside one range and the
            // infinity at the other's end is invisible to the corner
            // scan.
            if (a.contains_zero() && b.has_infinity()) || (b.contains_zero() && a.has_infinity()) {
                nan = true;
            }
            hull(&[a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi], nan)
        }
    }
}

/// `x / y` (IEEE semantics: division by zero yields ±inf, `0/0` and
/// `inf/inf` yield NaN — the expression evaluator never errors here).
#[must_use]
pub fn div(a: Interval, b: Interval) -> Interval {
    if either_bottom(a, b) {
        return Interval::BOTTOM;
    }
    let nan = a.nan || b.nan;
    match numeric_pair(a, b) {
        None => Interval {
            nan,
            ..Interval::BOTTOM
        },
        Some((a, b)) => {
            if b.contains_zero() {
                // The denominator can be a zero of either sign (the
                // endpoints cannot tell `0.0` from `-0.0`), so the
                // quotient can blow up toward either infinity.
                Interval {
                    lo: f64::NEG_INFINITY,
                    hi: f64::INFINITY,
                    nan: nan || a.contains_zero() || (a.has_infinity() && b.has_infinity()),
                }
            } else {
                hull(&[a.lo / b.lo, a.lo / b.hi, a.hi / b.lo, a.hi / b.hi], nan)
            }
        }
    }
}

/// `x % y` (Rust `%` on floats: `fmod` — result has the sign of `x`
/// and magnitude at most `min(|x|, |y|)`).
#[must_use]
pub fn rem(a: Interval, b: Interval) -> Interval {
    if either_bottom(a, b) {
        return Interval::BOTTOM;
    }
    let nan = a.nan || b.nan;
    match numeric_pair(a, b) {
        None => Interval {
            nan,
            ..Interval::BOTTOM
        },
        Some((a, b)) => {
            let nan = nan || a.has_infinity() || b.contains_zero();
            let m = a.abs_hi().min(b.abs_hi());
            let lo = if a.lo < 0.0 { -m } else { 0.0 };
            let hi = if a.hi > 0.0 { m } else { 0.0 };
            Interval { lo, hi, nan }
        }
    }
}

/// `x.powf(y)` — both the `^` operator and the `pow` builtin.
#[must_use]
pub fn pow(a: Interval, b: Interval) -> Interval {
    if either_bottom(a, b) {
        return Interval::BOTTOM;
    }
    // powf(NaN, 0) == 1 and powf(1, NaN) == 1, so a NaN operand still
    // admits the numeric value 1; folding 1 into the hull whenever a
    // NaN operand is possible over-approximates both special cases.
    let operand_nan = a.nan || b.nan;

    // Constant integer exponent: the common `vdd^2` shape, kept tight.
    if b.is_point() && b.lo.fract() == 0.0 && b.lo.abs() <= 64.0 {
        let k = b.lo;
        let mut out = if a.is_numeric_empty() {
            Interval {
                nan: a.nan,
                ..Interval::BOTTOM
            }
        } else if k == 0.0 {
            // powf(x, 0) == 1 for every x, NaN included.
            return Interval::point(1.0);
        } else if (k as i64) % 2 == 0 {
            // Even powers depend on |x| only; powf(±inf, k) and
            // powf(0, k<0) land on the right infinities.
            let m_lo = if a.contains_zero() {
                0.0
            } else {
                a.lo.abs().min(a.hi.abs())
            };
            let m_hi = a.abs_hi();
            hull(&[m_lo.powf(k), m_hi.powf(k)], a.nan).widen_ulps()
        } else if k > 0.0 {
            // Odd positive powers are monotone over the whole line.
            hull(&[a.lo.powf(k), a.hi.powf(k)], a.nan).widen_ulps()
        } else if a.contains_zero() {
            // Odd negative power across zero: both infinities, with
            // the sign of the zero deciding which — give up precision.
            Interval {
                lo: f64::NEG_INFINITY,
                hi: f64::INFINITY,
                nan: a.nan,
            }
        } else {
            // Odd negative power, sign-definite base: monotone
            // (decreasing) on the base's sign half.
            hull(&[a.lo.powf(k), a.hi.powf(k)], a.nan).widen_ulps()
        };
        if operand_nan {
            out = out.union(Interval::point(1.0));
            out.nan = true;
        }
        return out;
    }

    let mut out = if a.is_numeric_empty() || b.is_numeric_empty() {
        Interval {
            nan: a.nan || b.nan,
            ..Interval::BOTTOM
        }
    } else if a.lo >= 0.0 {
        // x^y = e^(y·ln x) on x ≥ 0: extremes over a box are at the
        // corners. powf never returns NaN for x ≥ 0, and always ≥ 0.
        let mut h = hull(
            &[
                a.lo.powf(b.lo),
                a.lo.powf(b.hi),
                a.hi.powf(b.lo),
                a.hi.powf(b.hi),
                1.0, // powf(x, 0) == 1: covers a zero interior to b
            ],
            false,
        )
        .widen_ulps();
        h.lo = h.lo.max(0.0);
        h
    } else if a.hi < 0.0 && b.is_point() && b.lo.fract() != 0.0 && b.lo.is_finite() {
        // Strictly negative base, provably non-integer exponent:
        // powf is NaN everywhere.
        Interval::NAN_ONLY
    } else {
        // Base may be negative with a varying exponent: integers in
        // the exponent range hit ±|x|^y, non-integers hit NaN.
        Interval::TOP
    };
    if operand_nan {
        out = out.union(Interval::point(1.0));
        out.nan = true;
    }
    out
}

/// Comparison outcomes as the 0/1 indicator interval the evaluator
/// produces.
fn indicator(can_false: bool, can_true: bool) -> Interval {
    match (can_false, can_true) {
        (false, false) => Interval::BOTTOM,
        (true, false) => Interval::point(0.0),
        (false, true) => Interval::point(1.0),
        (true, true) => Interval::new(0.0, 1.0),
    }
}

/// The six comparison operators. NaN compares false with everything
/// (which makes `!=` true).
#[must_use]
pub fn compare(op: CompareOp, a: Interval, b: Interval) -> Interval {
    if either_bottom(a, b) {
        return Interval::BOTTOM;
    }
    let nan_pair = a.nan || b.nan;
    let nums = !a.is_numeric_empty() && !b.is_numeric_empty();
    let (can_true, can_false) = match op {
        CompareOp::Lt => (nums && a.lo < b.hi, (nums && a.hi >= b.lo) || nan_pair),
        CompareOp::Le => (nums && a.lo <= b.hi, (nums && a.hi > b.lo) || nan_pair),
        CompareOp::Gt => (nums && a.hi > b.lo, (nums && a.lo <= b.hi) || nan_pair),
        CompareOp::Ge => (nums && a.hi >= b.lo, (nums && a.lo < b.hi) || nan_pair),
        CompareOp::Eq => (
            nums && a.lo <= b.hi && b.lo <= a.hi,
            (nums && !(a.is_point() && b.is_point() && a.lo == b.lo)) || nan_pair,
        ),
        CompareOp::Ne => (
            (nums && !(a.is_point() && b.is_point() && a.lo == b.lo)) || nan_pair,
            nums && a.lo <= b.hi && b.lo <= a.hi,
        ),
    };
    indicator(can_false, can_true)
}

/// Which comparison [`compare`] performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompareOp {
    /// `<`
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

/// `-x`.
#[must_use]
pub fn neg(a: Interval) -> Interval {
    if a.is_numeric_empty() {
        a
    } else {
        Interval {
            lo: -a.hi,
            hi: -a.lo,
            nan: a.nan,
        }
    }
}

/// `x.abs()`.
#[must_use]
pub fn abs(a: Interval) -> Interval {
    if a.is_numeric_empty() {
        return a;
    }
    let lo = if a.contains_zero() {
        0.0
    } else {
        a.lo.abs().min(a.hi.abs())
    };
    Interval {
        lo,
        hi: a.abs_hi(),
        nan: a.nan,
    }
}

/// `x.sqrt()` — IEEE-correctly-rounded and monotone, so endpoints are
/// exact. Negative inputs yield NaN.
#[must_use]
pub fn sqrt(a: Interval) -> Interval {
    if a.is_numeric_empty() {
        return a;
    }
    let nan = a.nan || a.lo < 0.0;
    if a.hi < 0.0 {
        return Interval {
            nan,
            ..Interval::BOTTOM
        };
    }
    Interval {
        lo: a.lo.max(0.0).sqrt(),
        hi: a.hi.sqrt(),
        nan,
    }
}

/// Applies a monotone-nondecreasing libm function at the endpoints and
/// widens for rounding slack.
fn monotone_libm(a: Interval, f: impl Fn(f64) -> f64) -> Interval {
    Interval {
        lo: f(a.lo),
        hi: f(a.hi),
        nan: a.nan,
    }
    .widen_ulps()
}

/// `x.exp()`.
#[must_use]
pub fn exp(a: Interval) -> Interval {
    if a.is_numeric_empty() {
        return a;
    }
    let mut out = monotone_libm(a, f64::exp);
    out.lo = out.lo.max(0.0);
    out
}

/// `ln`/`log10`/`log2`: monotone on `[0, ∞)`, `-inf` at zero, NaN on
/// negatives.
fn log_like(a: Interval, f: impl Fn(f64) -> f64) -> Interval {
    if a.is_numeric_empty() {
        return a;
    }
    let nan = a.nan || a.lo < 0.0;
    if a.hi < 0.0 {
        return Interval {
            nan,
            ..Interval::BOTTOM
        };
    }
    let clamped = Interval {
        lo: a.lo.max(0.0),
        hi: a.hi,
        nan: false,
    };
    let mut out = monotone_libm(clamped, f);
    out.nan = nan;
    out
}

/// `x.ln()`.
#[must_use]
pub fn ln(a: Interval) -> Interval {
    log_like(a, f64::ln)
}

/// `x.log10()`.
#[must_use]
pub fn log10(a: Interval) -> Interval {
    log_like(a, f64::log10)
}

/// `x.log2()`.
#[must_use]
pub fn log2(a: Interval) -> Interval {
    log_like(a, f64::log2)
}

/// `x.floor()` — exact and monotone.
#[must_use]
pub fn floor(a: Interval) -> Interval {
    if a.is_numeric_empty() {
        return a;
    }
    Interval {
        lo: a.lo.floor(),
        hi: a.hi.floor(),
        nan: a.nan,
    }
}

/// `x.ceil()` — exact and monotone.
#[must_use]
pub fn ceil(a: Interval) -> Interval {
    if a.is_numeric_empty() {
        return a;
    }
    Interval {
        lo: a.lo.ceil(),
        hi: a.hi.ceil(),
        nan: a.nan,
    }
}

/// `x.round()` — exact and monotone (half away from zero).
#[must_use]
pub fn round(a: Interval) -> Interval {
    if a.is_numeric_empty() {
        return a;
    }
    Interval {
        lo: a.lo.round(),
        hi: a.hi.round(),
        nan: a.nan,
    }
}

/// `f64::min(x, y)`: ignores a NaN operand (returns the other), NaN
/// only when both are NaN.
#[must_use]
pub fn min(a: Interval, b: Interval) -> Interval {
    if either_bottom(a, b) {
        return Interval::BOTTOM;
    }
    let mut out = match numeric_pair(a, b) {
        Some((a, b)) => Interval {
            lo: a.lo.min(b.lo),
            hi: a.hi.min(b.hi),
            nan: false,
        },
        None => Interval::BOTTOM,
    };
    // When one side may be NaN, min returns the other side verbatim.
    if a.nan {
        out = out.union(Interval { nan: false, ..b });
    }
    if b.nan {
        out = out.union(Interval { nan: false, ..a });
    }
    out.nan = a.nan && b.nan;
    out
}

/// `f64::max(x, y)`: same NaN behaviour as [`min`].
#[must_use]
pub fn max(a: Interval, b: Interval) -> Interval {
    if either_bottom(a, b) {
        return Interval::BOTTOM;
    }
    let mut out = match numeric_pair(a, b) {
        Some((a, b)) => Interval {
            lo: a.lo.max(b.lo),
            hi: a.hi.max(b.hi),
            nan: false,
        },
        None => Interval::BOTTOM,
    };
    if a.nan {
        out = out.union(Interval { nan: false, ..b });
    }
    if b.nan {
        out = out.union(Interval { nan: false, ..a });
    }
    out.nan = a.nan && b.nan;
    out
}

/// `x.hypot(y)`: `√(x² + y²)`, monotone in each magnitude. Infinite
/// operands dominate NaN ones (`hypot(inf, NaN) == inf`), but the NaN
/// flag is kept pessimistic.
#[must_use]
pub fn hypot(a: Interval, b: Interval) -> Interval {
    if either_bottom(a, b) {
        return Interval::BOTTOM;
    }
    let nan = a.nan || b.nan;
    match numeric_pair(a, b) {
        None => {
            // One side pure NaN: hypot(NaN, ±inf) is still inf.
            let other = if a.is_numeric_empty() { b } else { a };
            if !other.is_numeric_empty() && other.has_infinity() {
                Interval {
                    lo: f64::INFINITY,
                    hi: f64::INFINITY,
                    nan,
                }
            } else {
                Interval {
                    nan,
                    ..Interval::BOTTOM
                }
            }
        }
        Some((a, b)) => {
            let ma = abs(Interval { nan: false, ..a });
            let mb = abs(Interval { nan: false, ..b });
            Interval {
                lo: ma.lo.hypot(mb.lo),
                hi: ma.hi.hypot(mb.hi),
                nan,
            }
            .widen_ulps()
        }
    }
}

/// Truthiness of an `if` condition (`c != 0.0`; NaN is truthy).
/// Returns `(can_take_then, can_take_else)`.
#[must_use]
pub fn condition_outcomes(c: Interval) -> (bool, bool) {
    let can_true = c.nan || !(c.is_numeric_empty() || c == Interval::point(0.0));
    let can_false = c.contains_zero();
    (can_true, can_false)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_arithmetic_is_exact() {
        let a = Interval::point(1.5);
        let b = Interval::point(2.25);
        assert_eq!(add(a, b), Interval::point(3.75));
        assert_eq!(mul(a, b), Interval::point(1.5 * 2.25));
        assert_eq!(div(a, b), Interval::point(1.5 / 2.25));
    }

    #[test]
    fn division_by_zero_containing_interval_is_wide_and_nan_aware() {
        let a = Interval::new(1.0, 2.0);
        let b = Interval::new(-1.0, 1.0);
        let q = div(a, b);
        assert_eq!(q.lo, f64::NEG_INFINITY);
        assert_eq!(q.hi, f64::INFINITY);
        assert!(!q.nan, "numerator excludes zero");
        let q = div(Interval::new(0.0, 2.0), b);
        assert!(q.nan, "0/0 reachable");
    }

    #[test]
    fn division_by_negative_zero_endpoint_covers_both_infinities() {
        // [−3, 0] as a denominator admits both 0.0 and −0.0.
        let q = div(Interval::point(1.0), Interval::new(-3.0, 0.0));
        assert!(q.contains(f64::NEG_INFINITY));
        assert!(q.contains(f64::INFINITY));
        assert!(q.contains(1.0 / -0.5));
    }

    #[test]
    fn mul_zero_times_infinity_sets_nan() {
        let q = mul(Interval::new(-1.0, 1.0), Interval::point(f64::INFINITY));
        assert!(q.nan);
        assert!(q.contains(f64::INFINITY));
        assert!(q.contains(f64::NEG_INFINITY));
    }

    #[test]
    fn min_ignores_one_sided_nan() {
        let a = Interval {
            lo: 1.0,
            hi: 2.0,
            nan: true,
        };
        let b = Interval::new(5.0, 6.0);
        let m = min(a, b);
        // x NaN → min(NaN, y) = y ∈ [5, 6]; x numeric → min ∈ [1, 2].
        assert!(m.contains(5.5));
        assert!(m.contains(1.0));
        assert!(!m.nan);
    }

    #[test]
    fn pow_constant_even_exponent_is_tight() {
        let q = pow(Interval::new(-2.0, 3.0), Interval::point(2.0));
        assert!(q.lo <= 0.0 && q.lo >= -1e-300);
        assert!(q.contains(9.0));
        assert!(q.contains(4.0));
        assert!(!q.nan);
    }

    #[test]
    fn pow_negative_base_fractional_exponent_is_nan() {
        let q = pow(Interval::new(-2.0, -1.0), Interval::point(0.5));
        assert!(q.nan);
        assert!(q.is_numeric_empty());
    }

    #[test]
    fn compare_decides_disjoint_intervals() {
        let a = Interval::new(0.0, 1.0);
        let b = Interval::new(2.0, 3.0);
        assert_eq!(compare(CompareOp::Lt, a, b), Interval::point(1.0));
        assert_eq!(compare(CompareOp::Gt, a, b), Interval::point(0.0));
        let c = Interval::new(0.5, 2.5);
        assert_eq!(compare(CompareOp::Lt, a, c), Interval::new(0.0, 1.0));
    }

    #[test]
    fn nan_compares_false_except_ne() {
        let a = Interval::NAN_ONLY;
        let b = Interval::point(1.0);
        assert_eq!(compare(CompareOp::Lt, a, b), Interval::point(0.0));
        assert_eq!(compare(CompareOp::Eq, a, b), Interval::point(0.0));
        assert_eq!(compare(CompareOp::Ne, a, b), Interval::point(1.0));
    }

    #[test]
    fn sqrt_of_mixed_sign_keeps_numeric_part_and_flags_nan() {
        let q = sqrt(Interval::new(-4.0, 9.0));
        assert!(q.nan);
        assert_eq!(q.lo, 0.0);
        assert_eq!(q.hi, 3.0);
    }

    #[test]
    fn condition_outcomes_match_truthiness() {
        assert_eq!(condition_outcomes(Interval::point(0.0)), (false, true));
        assert_eq!(condition_outcomes(Interval::point(2.0)), (true, false));
        assert_eq!(condition_outcomes(Interval::new(-1.0, 1.0)), (true, true));
        assert_eq!(condition_outcomes(Interval::NAN_ONLY), (true, false));
    }
}
