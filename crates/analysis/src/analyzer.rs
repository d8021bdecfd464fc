//! The interval analyzer: a back end of the engine's lowering walk.
//!
//! [`analyze`] runs [`CompiledSheet::walk`], the walk that lowers a
//! sheet into register code, with an abstract back end: where the
//! register back end folds, numbers and emits an instruction, this one
//! computes an [`AbsValue`] (interval + per-input monotonicity). Global
//! inheritance, row order, `P_<ident>`/`A_<ident>` publication, the EQ 1
//! template and its `vdd`/`f` traps are the walk's, so the analysis
//! follows the play's semantics by construction. This module keeps only
//! the transfer functions, the diagnostics, the input set and the
//! assembly of a [`SheetBounds`]: proven per-row and total power
//! intervals, reachability diagnostics, and the list of inputs power is
//! provably monotone in.
//!
//! Soundness contract: for any concrete play of the same plan whose
//! (overridden) inputs lie inside the declared ranges, every reported
//! value lies inside the corresponding interval. The property tests in
//! `tests/soundness.rs` check exactly that against random sheets.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, OnceLock};

use powerplay_expr::{BinaryOp, Builtin, Expr};
use powerplay_lint::{codes, convention_dim, infer_dims, Diagnostic, DimInfo, LintReport};
use powerplay_sheet::{Backend, CompiledSheet, EvaluateSheetError, Formula, Pure, SUM_IDENTITY};
use powerplay_telemetry::{Counter, Histogram};

use crate::bounds::{Direction, InputBound, MonotoneInput, RowBounds, SheetBounds};
use crate::interval::{self, CompareOp, Interval};
use crate::mono::{self, AbsValue, Mono};

/// Metrics for analysis runs (`powerplay_analysis_*`).
pub(crate) struct AnalysisMetrics {
    pub runs_total: Counter,
    pub seconds: Histogram,
    pub sweep_points_pruned_total: Counter,
    pub sweep_points_played_total: Counter,
    pub prunes_total: Counter,
    pub minvdd_narrowed_total: Counter,
}

pub(crate) fn analysis_metrics() -> &'static AnalysisMetrics {
    static METRICS: OnceLock<AnalysisMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let g = powerplay_telemetry::global();
        AnalysisMetrics {
            runs_total: g.counter(
                "powerplay_analysis_runs_total",
                "Abstract-interpretation analyses of compiled plans",
            ),
            seconds: g.histogram(
                "powerplay_analysis_seconds",
                "Time per plan analysis (interval + monotonicity pass)",
            ),
            sweep_points_pruned_total: g.counter(
                "powerplay_analysis_sweep_points_pruned_total",
                "Sweep points skipped because bounds proved them outside the constraint",
            ),
            sweep_points_played_total: g.counter(
                "powerplay_analysis_sweep_points_played_total",
                "Sweep points actually replayed after bound-guided pruning",
            ),
            prunes_total: g.counter(
                "powerplay_analysis_prunes_total",
                "Constrained sweeps that pruned at least one point",
            ),
            minvdd_narrowed_total: g.counter(
                "powerplay_analysis_minvdd_narrowed_total",
                "Min-vdd searches whose bracket was narrowed by proven bounds",
            ),
        }
    })
}

/// The abstract back end of the lowering walk: a handle indexes
/// `values`.
struct Abstract {
    values: Vec<AbsValue>,
    ninputs: usize,
    /// Constant dedup: f64 bit pattern → handle. Every value carries a
    /// monotonicity vector as long as the input set; sharing repeated
    /// literals, and keeping the handle of a value `check` leaves as it
    /// is, saves allocating one per literal and per passing check, a
    /// measurable share of an analysis.
    konsts: HashMap<u64, u32>,
    /// The handle each override name is bound to.
    overrides: Vec<(String, u32)>,
    /// Per declared top-level global: the tracked input a constant
    /// formula binds to.
    tracked: Vec<Option<u32>>,
    report: LintReport,
    /// The path of the formula being lowered, as diagnostics print it.
    path: String,
    /// Whether diagnostics are pushed: not inside a provably dead `if`
    /// arm, whose computations cannot reach the result.
    live: bool,
    /// `live` outside each open arm.
    arms: Vec<bool>,
    /// Set when some valuation in range can fail a play (bad value,
    /// missing operating point on a reachable path, …).
    may_fail: bool,
}

impl Abstract {
    fn push(&mut self, value: AbsValue) -> u32 {
        self.values.push(value);
        (self.values.len() - 1) as u32
    }

    fn val(&self, handle: u32) -> &AbsValue {
        &self.values[handle as usize]
    }

    fn diagnose(&mut self, d: Diagnostic) {
        if self.live {
            self.report.push(d);
        }
    }

    /// `if(c, t, e)` over abstract values: only reachable arms
    /// contribute. `node` is the `if` call, when there is one, and gets
    /// W116 when one arm is dead.
    fn select(&mut self, c: u32, t: u32, e: u32, node: Option<&Expr>) -> u32 {
        let (can_then, can_else) = interval::condition_outcomes(self.val(c).iv);
        if can_then != can_else && node.is_some() {
            let (truth, dead) = if can_then {
                ("true", "else")
            } else {
                ("false", "then")
            };
            self.diagnose(
                Diagnostic::warning(
                    codes::DEAD_BRANCH,
                    &self.path,
                    format!("`if` condition is provably {truth}: the {dead} branch is unreachable"),
                )
                .with_suggestion("replace the `if` with the live branch"),
            );
        }
        match (can_then, can_else) {
            (true, false) => t,
            (false, true) => e,
            (false, false) => self.push(AbsValue::constant(Interval::BOTTOM, self.ninputs)),
            (true, true) => {
                let (c, t, e) = (self.val(c), self.val(t), self.val(e));
                let mono = (t.mono.iter().zip(&e.mono).enumerate())
                    .map(|(k, (mt, me))| mono::if_branches(c.mono[k], true, true, *mt, *me))
                    .collect();
                let iv = t.iv.union(e.iv);
                self.push(AbsValue { iv, mono })
            }
        }
    }
}

impl Backend for Abstract {
    fn konst(&mut self, value: f64) -> u32 {
        if let Some(&handle) = self.konsts.get(&value.to_bits()) {
            return handle;
        }
        let handle = self.push(AbsValue::constant(Interval::point(value), self.ninputs));
        self.konsts.insert(value.to_bits(), handle);
        handle
    }

    fn input(&mut self, name: &str) -> Option<u32> {
        let bound = self.overrides.iter().find(|(n, _)| n == name);
        bound.map(|&(_, handle)| handle)
    }

    fn pure(&mut self, op: Pure, node: Option<&Expr>) -> u32 {
        let value = match op {
            Pure::Neg(a) => {
                let a = self.val(a);
                AbsValue {
                    iv: interval::neg(a.iv),
                    mono: a.mono.iter().map(|m| m.flip()).collect(),
                }
            }
            Pure::Bin(op, a, b) => {
                let b_iv = self.val(b).iv;
                if let (BinaryOp::Div, Some(Expr::Binary(_, _, rhs))) = (op, node) {
                    if !b_iv.is_bottom() && b_iv.contains_zero() {
                        self.diagnose(
                            Diagnostic::warning(
                                codes::POSSIBLE_DIV_ZERO,
                                &self.path,
                                format!(
                                    "denominator of `{rhs}` can be zero (range [{}, {}])",
                                    b_iv.lo, b_iv.hi
                                ),
                            )
                            .with_suggestion("guard the denominator or tighten the input range"),
                        );
                    }
                }
                apply_binary_abs(op, self.val(a), self.val(b))
            }
            Pure::Call1(f, a) => {
                let out = apply_function_abs(f, self.val(a), self.val(a));
                let arg = self.val(a).iv;
                let domain = matches!(
                    f,
                    Builtin::Sqrt | Builtin::Ln | Builtin::Log10 | Builtin::Log2
                );
                if domain && out.iv.nan && !arg.nan {
                    self.diagnose(
                        Diagnostic::warning(
                            codes::NAN_REACHABLE,
                            &self.path,
                            format!(
                                "`{}` argument can be negative (range [{}, {}]): NaN is reachable",
                                f.name(),
                                arg.lo,
                                arg.hi
                            ),
                        )
                        .with_suggestion("clamp the argument or tighten the input range"),
                    );
                }
                out
            }
            Pure::Call2(f, a, b) => apply_function_abs(f, self.val(a), self.val(b)),
            Pure::Sel(c, t, e) => return self.select(c, t, e, node),
        };
        self.push(value)
    }

    /// The engine's finite-and-nonnegative success filter: diagnostics
    /// describe the *raw* reachable set, the returned value is
    /// conditioned on success (the only evaluations that continue).
    fn check(&mut self, value: u32, _: &[Arc<str>], _: &Arc<str>, formula: &'static str) -> u32 {
        let iv = self.val(value).iv;
        let numeric_ok = !iv.is_numeric_empty() && iv.lo <= f64::MAX && iv.hi >= 0.0;
        if !numeric_ok {
            // Every reachable value fails the `finite && >= 0` check: the
            // row provably cannot evaluate.
            self.may_fail = true;
            let (code, what) = if iv.is_numeric_empty() && iv.nan {
                (codes::PROVABLY_NAN_VALUE, "is always NaN".to_string())
            } else if iv.hi < 0.0 {
                (
                    codes::PROVABLY_NEGATIVE_VALUE,
                    format!("is provably negative (range [{}, {}])", iv.lo, iv.hi),
                )
            } else {
                (
                    codes::PROVABLY_NEGATIVE_VALUE,
                    "is provably non-finite".to_string(),
                )
            };
            self.diagnose(
                Diagnostic::error(
                    code,
                    &self.path,
                    format!("`{formula}` {what}: every play fails"),
                )
                .with_suggestion("fix the formula or the input ranges it reads"),
            );
            return self.push(AbsValue::constant(Interval::BOTTOM, self.ninputs));
        }
        if iv.nan {
            self.may_fail = true;
            self.diagnose(
                Diagnostic::warning(
                    codes::NAN_REACHABLE,
                    &self.path,
                    format!("`{formula}` can evaluate to NaN: those plays fail"),
                )
                .with_suggestion("guard divisions and domain edges in the formula"),
            );
        }
        if iv.lo < 0.0 || iv.hi > f64::MAX {
            // Some (but not all) valuations produce a rejected value.
            self.may_fail = true;
        }
        let clamped = iv.clamp_numeric(0.0, f64::MAX);
        let same = |a: f64, b: f64| a.to_bits() == b.to_bits();
        if !iv.nan && same(clamped.lo, iv.lo) && same(clamped.hi, iv.hi) {
            return value;
        }
        let mono = self.val(value).mono.clone();
        self.push(AbsValue { iv: clamped, mono })
    }

    /// Fails the walk when the trap is certain: the condition is
    /// provably nonzero.
    fn trap_if(&mut self, cond: u32, _: &EvaluateSheetError) -> bool {
        let (can_trap, can_pass) = interval::condition_outcomes(self.val(cond).iv);
        self.may_fail |= can_trap;
        can_pass || !can_trap
    }

    fn trap(&mut self, _: &EvaluateSheetError) {}

    fn formula(&mut self, nest: &[Arc<str>], formula: Formula<'_>) {
        let path = &mut self.path;
        path.clear();
        for row in nest {
            path.extend(["rows/", row, "/"]);
        }
        match formula {
            Formula::Global(name) => path.extend(["globals/", name]),
            Formula::Binding { row, param } => path.extend(["rows/", row, "/params/", param]),
            Formula::Model { row, formula } => path.extend(["rows/", row, "/model/", formula]),
        }
    }

    fn enter_arm(&mut self, cond: u32, then: bool) {
        let (can_then, can_else) = interval::condition_outcomes(self.val(cond).iv);
        self.arms.push(self.live);
        self.live &= if then { can_then } else { can_else };
    }

    fn exit_arm(&mut self) {
        self.live = self.arms.pop().expect("an arm is open");
    }

    /// A constant-formula global is a tracked input: the play still
    /// evaluates its formula, whose diagnostics stand, but its value is
    /// the input's.
    fn global(&mut self, index: usize, value: u32) -> u32 {
        self.tracked[index].unwrap_or(value)
    }

    fn row(&mut self, nest: &[Arc<str>], name: &str, power: u32) {
        if self.val(power).iv != Interval::point(0.0) {
            return;
        }
        let mut path = String::new();
        for row in nest {
            path.extend(["rows/", row, "/"]);
        }
        path.extend(["rows/", name, "/power"]);
        self.diagnose(
            Diagnostic::warning(
                codes::DEAD_ROW,
                path,
                "row power is provably zero over the analyzed ranges",
            )
            .with_suggestion("remove the row or check its bindings"),
        );
    }
}

/// Zips two mono vectors through a pointwise rule.
fn zip_mono(a: &AbsValue, b: &AbsValue, f: impl Fn(Mono, Mono) -> Mono) -> Vec<Mono> {
    a.mono.iter().zip(&b.mono).map(|(x, y)| f(*x, *y)).collect()
}

/// Zips through an interval-aware rule.
fn zip_mono_iv(
    a: &AbsValue,
    b: &AbsValue,
    f: impl Fn(Mono, &Interval, Mono, &Interval) -> Mono,
) -> Vec<Mono> {
    a.mono
        .iter()
        .zip(&b.mono)
        .map(|(x, y)| f(*x, &a.iv, *y, &b.iv))
        .collect()
}

/// The abstract counterpart of `apply_binary`.
fn apply_binary_abs(op: BinaryOp, a: &AbsValue, b: &AbsValue) -> AbsValue {
    match op {
        BinaryOp::Add => AbsValue {
            iv: interval::add(a.iv, b.iv),
            mono: zip_mono(a, b, mono::add),
        },
        BinaryOp::Sub => AbsValue {
            iv: interval::sub(a.iv, b.iv),
            mono: zip_mono(a, b, mono::sub),
        },
        BinaryOp::Mul => AbsValue {
            iv: interval::mul(a.iv, b.iv),
            mono: zip_mono_iv(a, b, mono::mul),
        },
        BinaryOp::Div => AbsValue {
            iv: interval::div(a.iv, b.iv),
            mono: zip_mono_iv(a, b, mono::div),
        },
        BinaryOp::Rem => AbsValue {
            iv: interval::rem(a.iv, b.iv),
            mono: zip_mono(a, b, mono::opaque),
        },
        BinaryOp::Pow => AbsValue {
            iv: interval::pow(a.iv, b.iv),
            mono: zip_mono_iv(a, b, mono::pow),
        },
        BinaryOp::Lt => cmp_abs(CompareOp::Lt, a, b),
        BinaryOp::Le => cmp_abs(CompareOp::Le, a, b),
        BinaryOp::Gt => cmp_abs(CompareOp::Gt, a, b),
        BinaryOp::Ge => cmp_abs(CompareOp::Ge, a, b),
        BinaryOp::Eq => cmp_abs(CompareOp::Eq, a, b),
        BinaryOp::Ne => cmp_abs(CompareOp::Ne, a, b),
    }
}

fn cmp_abs(op: CompareOp, a: &AbsValue, b: &AbsValue) -> AbsValue {
    AbsValue {
        iv: interval::compare(op, a.iv, b.iv),
        mono: zip_mono(a, b, mono::opaque),
    }
}

/// The abstract counterpart of `apply_function` (sans `if`, which is
/// [`Pure::Sel`]); a one-argument builtin ignores `b`.
fn apply_function_abs(builtin: Builtin, a: &AbsValue, b: &AbsValue) -> AbsValue {
    let unary = |iv: fn(Interval) -> Interval, m: &dyn Fn(Mono, &Interval) -> Mono| AbsValue {
        iv: iv(a.iv),
        mono: a.mono.iter().map(|x| m(*x, &a.iv)).collect(),
    };
    match builtin {
        Builtin::Abs => unary(interval::abs, &mono::abs),
        Builtin::Sqrt => unary(interval::sqrt, &mono::increasing_on_nonneg),
        Builtin::Exp => unary(interval::exp, &|m, _| mono::increasing(m)),
        Builtin::Ln => unary(interval::ln, &mono::increasing_on_nonneg),
        Builtin::Log10 => unary(interval::log10, &mono::increasing_on_nonneg),
        Builtin::Log2 => unary(interval::log2, &mono::increasing_on_nonneg),
        Builtin::Floor => unary(interval::floor, &|m, _| mono::increasing(m)),
        Builtin::Ceil => unary(interval::ceil, &|m, _| mono::increasing(m)),
        Builtin::Round => unary(interval::round, &|m, _| mono::increasing(m)),
        Builtin::Min => AbsValue {
            iv: interval::min(a.iv, b.iv),
            mono: zip_mono(a, b, mono::min_max),
        },
        Builtin::Max => AbsValue {
            iv: interval::max(a.iv, b.iv),
            mono: zip_mono(a, b, mono::min_max),
        },
        Builtin::Pow => AbsValue {
            iv: interval::pow(a.iv, b.iv),
            mono: zip_mono_iv(a, b, mono::pow),
        },
        Builtin::Hypot => AbsValue {
            iv: interval::hypot(a.iv, b.iv),
            mono: zip_mono_iv(a, b, mono::hypot),
        },
        Builtin::If => unreachable!("`if` lowers to `Pure::Sel`"),
    }
}

/// Analyzes a compiled plan at its declared operating point (every
/// global at its formula value).
///
/// # Errors
///
/// Exactly the structural/value-independent failures a concrete
/// [`CompiledSheet::play`] would report: unknown elements, circular or
/// unevaluable globals, unknown variables in bindings, missing
/// operating points.
pub fn analyze(plan: &CompiledSheet) -> Result<SheetBounds, EvaluateSheetError> {
    analyze_with_ranges(plan, &[])
}

/// Analyzes a compiled plan with `ranges` overriding globals (or
/// introducing new override variables) as whole intervals.
///
/// Every concrete `play_with` whose override values lie inside the
/// declared ranges is covered by the returned bounds.
///
/// # Errors
///
/// See [`analyze`].
pub fn analyze_with_ranges(
    plan: &CompiledSheet,
    ranges: &[(String, Interval)],
) -> Result<SheetBounds, EvaluateSheetError> {
    let metrics = analysis_metrics();
    metrics.runs_total.inc();
    let _timer = metrics.seconds.start_timer();

    let globals: Vec<_> = plan.globals_view().collect();
    let overridden: BTreeMap<&str, Interval> =
        ranges.iter().map(|(n, iv)| (n.as_str(), *iv)).collect();

    // Tracked inputs: every global that is independently settable (a
    // range override, or a constant formula), then range names that
    // are not globals, in declaration order.
    let mut inputs: Vec<(String, Interval, DimInfo)> = Vec::new();
    for g in &globals {
        if let Some(iv) = overridden.get(g.name()) {
            inputs.push((g.name().to_string(), *iv, global_dim(g.name(), g.expr())));
        } else if let Some(v) = g.expr().constant_value() {
            inputs.push((
                g.name().to_string(),
                Interval::point(v),
                global_dim(g.name(), g.expr()),
            ));
        }
    }
    let global_names: Vec<&str> = globals.iter().map(|g| g.name()).collect();
    for (name, iv) in ranges {
        if !global_names.contains(&name.as_str()) {
            inputs.push((
                name.clone(),
                *iv,
                convention_dim(name).map_or(DimInfo::Any, DimInfo::Known),
            ));
        }
    }
    let ninputs = inputs.len();
    let input_index: BTreeMap<&str, u32> = inputs
        .iter()
        .enumerate()
        .map(|(k, (n, _, _))| (n.as_str(), k as u32))
        .collect();

    // Input `k` is handle `k`; the walk binds each override name to its
    // input, and each constant-formula global to its own.
    let mut ab = Abstract {
        values: (inputs.iter().enumerate())
            .map(|(k, (_, iv, _))| AbsValue::input(*iv, k, ninputs))
            .collect(),
        ninputs,
        konsts: HashMap::new(),
        overrides: (ranges.iter())
            .map(|(name, _)| (name.clone(), input_index[name.as_str()]))
            .collect(),
        tracked: (globals.iter())
            .map(|g| input_index.get(g.name()).copied())
            .collect(),
        report: LintReport::new(),
        path: String::new(),
        live: true,
        arms: Vec::new(),
        may_fail: false,
    };
    let names: Vec<&str> = ranges.iter().map(|(n, _)| n.as_str()).collect();
    let walked = plan.walk(&plan.override_plan(&names), &mut ab)?;

    // Total power sums row powers in declaration order from the
    // engine's identity, exactly as `SheetReport::total_power`.
    let mut total = ab.konst(SUM_IDENTITY);
    for row in &walked {
        total = ab.pure(Pure::Bin(BinaryOp::Add, total, row.power), None);
    }
    let iv = |handle: u32| ab.val(handle).iv;
    let rows: Vec<RowBounds> = walked
        .iter()
        .map(|row| {
            let power = iv(row.power);
            RowBounds {
                name: row.name.to_string(),
                ident: row.ident.to_string(),
                power,
                area: row.area.map(iv),
                delay: row.delay.map(iv),
                rate: row.rate.map(iv),
                constant: power.is_point(),
                dead: power == Interval::point(0.0),
            }
        })
        .collect();

    // Constant-foldable rows are only worth flagging when something
    // actually varies — under pure point inputs every row is trivially
    // constant.
    let any_range = inputs.iter().any(|(_, iv, _)| !iv.is_point());
    if any_range {
        for r in rows.iter().filter(|r| r.constant && !r.dead) {
            ab.diagnose(
                Diagnostic::warning(
                    codes::CONSTANT_FOLDABLE_ROW,
                    format!("rows/{}/power", r.name),
                    "row power is a single provable value over the analyzed ranges",
                )
                .with_suggestion("fold the row into a direct-power entry"),
            );
        }
    }

    let total = ab.val(total);
    let monotone = inputs
        .iter()
        .zip(&total.mono)
        .filter_map(|((name, _, _), mono)| {
            let direction = match mono {
                Mono::Inc => Direction::Increasing,
                Mono::Dec => Direction::Decreasing,
                Mono::Const => Direction::Constant,
                Mono::Unknown => return None,
            };
            Some(MonotoneInput {
                name: name.clone(),
                direction,
            })
        })
        .collect();

    Ok(SheetBounds {
        name: plan.plan_name().to_string(),
        total_power: total.iv,
        inputs: inputs
            .into_iter()
            .map(|(name, iv, dim)| InputBound {
                name,
                range: iv,
                dim: dim.known(),
            })
            .collect(),
        rows,
        monotone,
        diagnostics: ab.report,
        may_fail: ab.may_fail,
    })
}

/// The dimension tag for a global: naming convention first, formula
/// inference second (inference diagnostics are the linter's job, not
/// ours — they are discarded here).
fn global_dim(name: &str, expr: &Expr) -> DimInfo {
    if let Some(d) = convention_dim(name) {
        return DimInfo::Known(d);
    }
    let mut scratch = LintReport::new();
    infer_dims(
        expr,
        name,
        &|n| convention_dim(n).map_or(DimInfo::Any, DimInfo::Known),
        &mut scratch,
    )
}
