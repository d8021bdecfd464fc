//! The abstract interpreter over compiled plans.
//!
//! [`analyze`] walks a [`CompiledSheet`] in exactly the order a
//! concrete play would — globals in dependency order, then rows in the
//! compiled toposort, publishing `P_<ident>`/`A_<ident>` into a power
//! layer — but carries an [`AbsValue`] (interval + per-input
//! monotonicity) through every formula instead of an `f64`. The result
//! is a [`SheetBounds`]: proven per-row and total power intervals,
//! reachability diagnostics, and the list of inputs power is provably
//! monotone in.
//!
//! Soundness contract: for any concrete play of the same plan whose
//! (overridden) inputs lie inside the declared ranges, every reported
//! value lies inside the corresponding interval. The property tests in
//! `tests/soundness.rs` check exactly that against random sheets.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use powerplay_expr::{BinaryOp, Builtin, EvalError, Expr, UnaryOp};
use powerplay_library::{ElementModel, EvaluateElementError, LibraryElement};
use powerplay_lint::{codes, convention_dim, infer_dims, Diagnostic, DimInfo, LintReport};
use powerplay_sheet::{CompiledSheet, EvaluateSheetError, RowKindView, RowView};
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

/// A lexically-layered abstract environment mirroring the engine's
/// `Scope` chain.
struct Env<'p> {
    parent: Option<&'p Env<'p>>,
    vars: BTreeMap<String, AbsValue>,
}

impl<'p> Env<'p> {
    fn root() -> Env<'static> {
        Env {
            parent: None,
            vars: BTreeMap::new(),
        }
    }

    fn child(&self) -> Env<'_> {
        Env {
            parent: Some(self),
            vars: BTreeMap::new(),
        }
    }

    fn get(&self, name: &str) -> Option<&AbsValue> {
        match self.vars.get(name) {
            Some(v) => Some(v),
            None => self.parent.and_then(|p| p.get(name)),
        }
    }

    fn set(&mut self, name: &str, val: AbsValue) {
        self.vars.insert(name.to_string(), val);
    }
}

/// Where diagnostics from the current walk land. `enabled` is dropped
/// inside provably dead branches: their computations can't reach the
/// result, so warnings there would be noise.
struct Sink<'a> {
    report: &'a mut LintReport,
    enabled: bool,
    /// Set when any formula can fail a concrete evaluation (bad value,
    /// missing operating point on a reachable path, …).
    may_fail: &'a mut bool,
}

impl Sink<'_> {
    fn push(&mut self, d: Diagnostic) {
        if self.enabled {
            self.report.push(d);
        }
    }
}

/// Abstract evaluation of one expression. Mirrors `Expr::eval`
/// case-for-case; an `Err` here means a concrete evaluation fails for
/// *every* valuation (unknown variable/function/arity are
/// value-independent).
fn abs_eval(
    expr: &Expr,
    env: &Env<'_>,
    ninputs: usize,
    path: &str,
    sink: &mut Sink<'_>,
) -> Result<AbsValue, EvalError> {
    match expr {
        Expr::Number(v) => Ok(AbsValue::constant(Interval::point(*v), ninputs)),
        Expr::Variable(name) => match env.get(name) {
            Some(v) => Ok(v.clone()),
            None => Err(EvalError::UnknownVariable(name.clone())),
        },
        Expr::Unary(UnaryOp::Neg, inner) => {
            let v = abs_eval(inner, env, ninputs, path, sink)?;
            Ok(AbsValue {
                iv: interval::neg(v.iv),
                mono: v.mono.iter().map(|m| m.flip()).collect(),
            })
        }
        Expr::Binary(op, lhs, rhs) => {
            let a = abs_eval(lhs, env, ninputs, path, sink)?;
            let b = abs_eval(rhs, env, ninputs, path, sink)?;
            if *op == BinaryOp::Div && !b.iv.is_bottom() && b.iv.contains_zero() {
                sink.push(
                    Diagnostic::warning(
                        codes::POSSIBLE_DIV_ZERO,
                        path,
                        format!(
                            "denominator of `{}` can be zero (range [{}, {}])",
                            rhs, b.iv.lo, b.iv.hi
                        ),
                    )
                    .with_suggestion("guard the denominator or tighten the input range"),
                );
            }
            Ok(apply_binary_abs(*op, &a, &b))
        }
        Expr::Call(name, args) => {
            let Some(builtin) = Builtin::lookup(name) else {
                return Err(EvalError::UnknownFunction(name.clone()));
            };
            let expected = builtin.arity();
            if args.len() != expected {
                return Err(EvalError::WrongArity {
                    function: name.clone(),
                    expected,
                    found: args.len(),
                });
            }
            if builtin == Builtin::If {
                return abs_if(args, env, ninputs, path, sink);
            }
            let vals: Vec<AbsValue> = args
                .iter()
                .map(|a| abs_eval(a, env, ninputs, path, sink))
                .collect::<Result<_, _>>()?;
            Ok(apply_function_abs(builtin, &vals, path, sink))
        }
    }
}

/// `if(c, t, e)`: the concrete evaluator computes *all three*
/// arguments eagerly and then selects, so both branches must still be
/// walked for value-independent errors — but only reachable branches
/// contribute values or diagnostics.
fn abs_if(
    args: &[Expr],
    env: &Env<'_>,
    ninputs: usize,
    path: &str,
    sink: &mut Sink<'_>,
) -> Result<AbsValue, EvalError> {
    let c = abs_eval(&args[0], env, ninputs, path, sink)?;
    let (can_then, can_else) = interval::condition_outcomes(c.iv);
    let was_enabled = sink.enabled;

    sink.enabled = was_enabled && can_then;
    let t = abs_eval(&args[1], env, ninputs, path, sink);
    sink.enabled = was_enabled && can_else;
    let e = abs_eval(&args[2], env, ninputs, path, sink);
    sink.enabled = was_enabled;
    let (t, e) = (t?, e?);

    match (can_then, can_else) {
        (true, false) | (false, true) => {
            let (dead, live) = if can_then { ("else", t) } else { ("then", e) };
            sink.push(
                Diagnostic::warning(
                    codes::DEAD_BRANCH,
                    path,
                    format!(
                        "`if` condition is provably {}: the {dead} branch is unreachable",
                        if can_then { "true" } else { "false" }
                    ),
                )
                .with_suggestion("replace the `if` with the live branch"),
            );
            Ok(live)
        }
        (false, false) => Ok(AbsValue::constant(Interval::BOTTOM, ninputs)),
        (true, true) => Ok(AbsValue {
            iv: t.iv.union(e.iv),
            mono: t
                .mono
                .iter()
                .zip(&e.mono)
                .enumerate()
                .map(|(k, (mt, me))| mono::if_branches(c.mono[k], true, true, *mt, *me))
                .collect(),
        }),
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

/// The abstract counterpart of `apply_function` (sans `if`, handled in
/// [`abs_if`]).
fn apply_function_abs(
    builtin: Builtin,
    vals: &[AbsValue],
    path: &str,
    sink: &mut Sink<'_>,
) -> AbsValue {
    let unary = |iv: fn(Interval) -> Interval, m: &dyn Fn(Mono, &Interval) -> Mono| {
        let a = &vals[0];
        AbsValue {
            iv: iv(a.iv),
            mono: a.mono.iter().map(|x| m(*x, &a.iv)).collect(),
        }
    };
    match builtin {
        Builtin::Abs => unary(interval::abs, &mono::abs),
        Builtin::Sqrt => {
            let out = unary(interval::sqrt, &mono::increasing_on_nonneg);
            nan_domain_warning(out.iv, vals[0].iv, builtin.name(), path, sink);
            out
        }
        Builtin::Exp => unary(interval::exp, &|m, _| mono::increasing(m)),
        Builtin::Ln => {
            let out = unary(interval::ln, &mono::increasing_on_nonneg);
            nan_domain_warning(out.iv, vals[0].iv, builtin.name(), path, sink);
            out
        }
        Builtin::Log10 => {
            let out = unary(interval::log10, &mono::increasing_on_nonneg);
            nan_domain_warning(out.iv, vals[0].iv, builtin.name(), path, sink);
            out
        }
        Builtin::Log2 => {
            let out = unary(interval::log2, &mono::increasing_on_nonneg);
            nan_domain_warning(out.iv, vals[0].iv, builtin.name(), path, sink);
            out
        }
        Builtin::Floor => unary(interval::floor, &|m, _| mono::increasing(m)),
        Builtin::Ceil => unary(interval::ceil, &|m, _| mono::increasing(m)),
        Builtin::Round => unary(interval::round, &|m, _| mono::increasing(m)),
        Builtin::Min => AbsValue {
            iv: interval::min(vals[0].iv, vals[1].iv),
            mono: zip_mono(&vals[0], &vals[1], mono::min_max),
        },
        Builtin::Max => AbsValue {
            iv: interval::max(vals[0].iv, vals[1].iv),
            mono: zip_mono(&vals[0], &vals[1], mono::min_max),
        },
        Builtin::Pow => AbsValue {
            iv: interval::pow(vals[0].iv, vals[1].iv),
            mono: zip_mono_iv(&vals[0], &vals[1], mono::pow),
        },
        Builtin::Hypot => AbsValue {
            iv: interval::hypot(vals[0].iv, vals[1].iv),
            mono: zip_mono_iv(&vals[0], &vals[1], mono::hypot),
        },
        Builtin::If => unreachable!("`if` is handled by abs_if"),
    }
}

/// Flags a newly-NaN-able result from a domain edge (`sqrt`/`ln` of a
/// possibly-negative argument).
fn nan_domain_warning(out: Interval, arg: Interval, func: &str, path: &str, sink: &mut Sink<'_>) {
    if out.nan && !arg.nan {
        sink.push(
            Diagnostic::warning(
                codes::NAN_REACHABLE,
                path,
                format!(
                    "`{func}` argument can be negative (range [{}, {}]): NaN is reachable",
                    arg.lo, arg.hi
                ),
            )
            .with_suggestion("clamp the argument or tighten the input range"),
        );
    }
}

/// Result of analyzing one sheet level (top or nested).
struct LevelResult {
    rows: Vec<RowBounds>,
    total: AbsValue,
    /// Whether any row models area (mirrors `SheetReport::total_area`
    /// returning `Some`).
    has_area: bool,
}

/// Analysis of one row's element model at its parameter environment —
/// the abstract mirror of `LibraryElement::evaluate`.
struct ElementAbs {
    power: AbsValue,
    area: Option<AbsValue>,
    delay: Option<Interval>,
}

/// Evaluates one model formula, applying the engine's
/// finite-and-nonnegative success filter: diagnostics describe the
/// *raw* reachable set, the returned value is conditioned on success
/// (the only evaluations that continue).
fn eval_formula_abs(
    formula: &'static str,
    expr: &Expr,
    env: &Env<'_>,
    ninputs: usize,
    path_prefix: &str,
    row: &str,
    sink: &mut Sink<'_>,
) -> Result<AbsValue, EvaluateSheetError> {
    let path = format!("{path_prefix}model/{formula}");
    let raw = abs_eval(expr, env, ninputs, &path, sink).map_err(|source| {
        EvaluateSheetError::Element {
            row: row.to_string(),
            source: EvaluateElementError::Eval { formula, source },
        }
    })?;

    let iv = raw.iv;
    let numeric_ok = !iv.is_numeric_empty() && iv.lo <= f64::MAX && iv.hi >= 0.0;
    if !numeric_ok {
        // Every reachable value fails the `finite && >= 0` check: the
        // row provably cannot evaluate.
        *sink.may_fail = true;
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
        sink.push(
            Diagnostic::error(code, &path, format!("`{formula}` {what}: every play fails"))
                .with_suggestion("fix the formula or the input ranges it reads"),
        );
        return Ok(AbsValue::constant(Interval::BOTTOM, ninputs));
    }

    if iv.nan {
        *sink.may_fail = true;
        sink.push(
            Diagnostic::warning(
                codes::NAN_REACHABLE,
                &path,
                format!("`{formula}` can evaluate to NaN: those plays fail"),
            )
            .with_suggestion("guard divisions and domain edges in the formula"),
        );
    }
    if iv.lo < 0.0 || iv.hi > f64::MAX {
        // Some (but not all) valuations produce a rejected value.
        *sink.may_fail = true;
    }

    Ok(AbsValue {
        iv: iv.clamp_numeric(0.0, f64::MAX),
        mono: raw.mono,
    })
}

fn v_add(a: &AbsValue, b: &AbsValue) -> AbsValue {
    AbsValue {
        iv: interval::add(a.iv, b.iv),
        mono: zip_mono(a, b, mono::add),
    }
}

fn v_mul(a: &AbsValue, b: &AbsValue) -> AbsValue {
    AbsValue {
        iv: interval::mul(a.iv, b.iv),
        mono: zip_mono_iv(a, b, mono::mul),
    }
}

fn v_union(a: &AbsValue, b: &AbsValue) -> AbsValue {
    AbsValue {
        iv: a.iv.union(b.iv),
        mono: zip_mono(a, b, |x, y| x.join(y)),
    }
}

/// The abstract mirror of `LibraryElement::evaluate` at `env`.
#[allow(clippy::too_many_arguments)]
fn analyze_element(
    element: &LibraryElement,
    env: &Env<'_>,
    ninputs: usize,
    path_prefix: &str,
    row: &str,
    sink: &mut Sink<'_>,
) -> Result<ElementAbs, EvaluateSheetError> {
    let model: &ElementModel = element.model();
    let zero = AbsValue::constant(Interval::point(0.0), ninputs);

    // Switched-capacitance terms, in the concrete push order
    // (cap_full, then cap_partial); energy sums from 0.0 exactly as
    // `PowerComponents::energy_per_op` folds.
    let lookup = |name: &str| env.get(name).cloned();
    let vdd = lookup("vdd");

    let mut energy = zero.clone();
    let has_switched = model.cap_full.is_some() || model.cap_partial.is_some();
    if has_switched && vdd.is_none() {
        // The rate/supply lookup happens after the formulas evaluate,
        // but a missing `vdd` fails every valuation that gets there.
        return Err(EvaluateSheetError::Element {
            row: row.to_string(),
            source: EvaluateElementError::MissingOperatingPoint("vdd"),
        });
    }
    if let Some(e) = &model.cap_full {
        let cap = eval_formula_abs("cap_full", e, env, ninputs, path_prefix, row, sink)?;
        let vdd = vdd.as_ref().expect("checked above");
        // full-rail swing: cap * vdd * vdd, left-associated.
        energy = v_add(&energy, &v_mul(&v_mul(&cap, vdd), vdd));
    }
    if let Some((cap_e, swing_e)) = &model.cap_partial {
        let cap = eval_formula_abs("cap_partial", cap_e, env, ninputs, path_prefix, row, sink)?;
        let swing = eval_formula_abs(
            "cap_partial swing",
            swing_e,
            env,
            ninputs,
            path_prefix,
            row,
            sink,
        )?;
        let vdd = vdd.as_ref().expect("checked above");
        energy = v_add(&energy, &v_mul(&v_mul(&cap, &swing), vdd));
    }

    let static_current = match &model.static_current {
        Some(e) => Some(eval_formula_abs(
            "static_current",
            e,
            env,
            ninputs,
            path_prefix,
            row,
            sink,
        )?),
        None => None,
    };

    // `has_template_terms` is structural for switched caps but
    // *value-dependent* for static current (a current that folds to
    // exactly zero disables the template path, and with it the `vdd`
    // requirement).
    let static_definitely_zero = static_current
        .as_ref()
        .is_none_or(|s| s.iv == Interval::point(0.0));
    let static_possibly_zero = static_current
        .as_ref()
        .is_none_or(|s| s.iv.contains_zero() || s.iv.is_bottom());
    let template_definite = has_switched || !static_possibly_zero;
    let template_possible = has_switched || !static_definitely_zero;

    let freq = lookup("f");
    let static_v = static_current.unwrap_or_else(|| zero.clone());
    let template_power = || -> Result<AbsValue, EvaluateSheetError> {
        let vdd = match &vdd {
            Some(v) => v.clone(),
            None => {
                return Err(EvaluateSheetError::Element {
                    row: row.to_string(),
                    source: EvaluateElementError::MissingOperatingPoint("vdd"),
                })
            }
        };
        let freq = match &freq {
            Some(f) => f.clone(),
            None if !has_switched => zero.clone(),
            None => {
                return Err(EvaluateSheetError::Element {
                    row: row.to_string(),
                    source: EvaluateElementError::MissingOperatingPoint("f"),
                })
            }
        };
        // components.power(op) = energy * freq + vdd * static.
        Ok(v_add(&v_mul(&energy, &freq), &v_mul(&vdd, &static_v)))
    };

    let mut power = zero.clone();
    if template_definite {
        power = v_add(&power, &template_power()?);
    } else if template_possible {
        match template_power() {
            Ok(p) => {
                // Either path can be taken depending on the folded
                // current: union "template active" with "template
                // skipped".
                power = v_union(&v_add(&power, &p), &zero);
            }
            Err(_) => {
                // The template path needs an operating point the scope
                // lacks; only valuations where the current folds to
                // zero survive. Condition on that.
                *sink.may_fail = true;
            }
        }
    }

    let direct = match &model.power_direct {
        Some(e) => Some(eval_formula_abs(
            "power_direct",
            e,
            env,
            ninputs,
            path_prefix,
            row,
            sink,
        )?),
        None => None,
    };
    if let Some(d) = &direct {
        power = v_add(&power, d);
    }

    let area = match &model.area {
        Some(e) => Some(eval_formula_abs(
            "area",
            e,
            env,
            ninputs,
            path_prefix,
            row,
            sink,
        )?),
        None => None,
    };
    let delay = match &model.delay {
        Some(e) => Some(eval_formula_abs("delay", e, env, ninputs, path_prefix, row, sink)?.iv),
        None => None,
    };

    Ok(ElementAbs { power, area, delay })
}

/// Analyzes the rows of one sheet level against `outer` (globals plus
/// any enclosing sub-sheet parameters), mirroring `eval_rows_full`.
fn analyze_rows(
    plan: &CompiledSheet,
    outer: &Env<'_>,
    ninputs: usize,
    path_prefix: &str,
    sink: &mut Sink<'_>,
) -> Result<LevelResult, EvaluateSheetError> {
    let rows = plan.rows_view().map_err(Clone::clone)?;
    let mut power_layer = outer.child();
    let mut out: Vec<Option<RowBounds>> = (0..rows.len()).map(|_| None).collect();
    let mut abs_powers: Vec<Option<AbsValue>> = (0..rows.len()).map(|_| None).collect();
    let mut has_area = false;

    for &i in rows.order() {
        let row = rows.row(i);
        let (bounds, power) = analyze_row(&row, &power_layer, ninputs, path_prefix, sink)?;
        if let Some(power_ref) = row.power_ref() {
            // Publish P_/A_ exactly like `set_row_outputs`.
            power_layer.set(power_ref, power.clone());
            if let (Some(area_ref), Some(area)) = (row.area_ref(), &bounds.area) {
                power_layer.set(
                    area_ref,
                    AbsValue {
                        iv: *area,
                        mono: power.mono.clone(),
                    },
                );
            }
        }
        has_area = has_area || bounds.area.is_some();
        abs_powers[i] = Some(power);
        out[i] = Some(bounds);
    }

    // Total power sums row powers in declaration order, exactly as
    // `SheetReport::total_power`.
    let mut total = AbsValue::constant(Interval::point(0.0), ninputs);
    for p in abs_powers.iter() {
        let p = p.as_ref().expect("every row analyzed");
        total = v_add(&total, p);
    }

    Ok(LevelResult {
        rows: out
            .into_iter()
            .map(|r| r.expect("every row analyzed"))
            .collect(),
        total,
        has_area,
    })
}

/// Analyzes one row (element or nested sub-sheet), mirroring
/// `evaluate_compiled_row`.
fn analyze_row(
    row: &RowView<'_>,
    outer: &Env<'_>,
    ninputs: usize,
    path_prefix: &str,
    sink: &mut Sink<'_>,
) -> Result<(RowBounds, AbsValue), EvaluateSheetError> {
    if let RowKindView::Missing(path) = row.kind() {
        return Err(EvaluateSheetError::UnknownElement {
            row: row.name().to_string(),
            element: path.to_string(),
        });
    }

    let row_path = format!("{path_prefix}rows/{}/", row.name());

    // Defaults seed the parameter scope; bindings shadow them in
    // declaration order and can read earlier ones.
    let mut param_env = outer.child();
    for (name, value) in row.param_defaults() {
        param_env.set(name, AbsValue::constant(Interval::point(value), ninputs));
    }
    for (param, expr) in row.bindings() {
        let path = format!("{row_path}params/{param}");
        let val = abs_eval(expr, &param_env, ninputs, &path, sink).map_err(|source| {
            EvaluateSheetError::Binding {
                row: row.name().to_string(),
                param: param.to_string(),
                source,
            }
        })?;
        param_env.set(param, val);
    }

    let (power, area, delay, rate) = match row.kind() {
        RowKindView::Element(element) => {
            let abs = analyze_element(element, &param_env, ninputs, &row_path, row.name(), sink)?;
            let rate = param_env.get("f").map(|v| v.iv);
            (abs.power, abs.area.map(|a| a.iv), abs.delay, rate)
        }
        RowKindView::SubSheet(sub) => {
            // As the engine plays a sub-sheet: its globals evaluate in a
            // child of the row's parameter scope, then its rows.
            let sub_result =
                analyze_nested(sub, &param_env, ninputs, &row_path, sink).map_err(|source| {
                    EvaluateSheetError::Nested {
                        row: row.name().to_string(),
                        source: Box::new(source),
                    }
                })?;
            let area = if sub_result.has_area {
                Some(
                    sub_result
                        .rows
                        .iter()
                        .filter_map(|r| r.area)
                        .fold(Interval::point(0.0), interval::add),
                )
            } else {
                None
            };
            // Sub-sheet rows report no delay/rate at this level
            // (`RowReport::for_subsheet`).
            (sub_result.total, area, None, None)
        }
        RowKindView::Missing(_) => unreachable!("rejected above"),
    };

    let iv = power.iv;
    let dead = iv == Interval::point(0.0);
    let constant = iv.is_point();
    if dead {
        sink.push(
            Diagnostic::warning(
                codes::DEAD_ROW,
                format!("{row_path}power"),
                "row power is provably zero over the analyzed ranges",
            )
            .with_suggestion("remove the row or check its bindings"),
        );
    }

    let bounds = RowBounds {
        name: row.name().to_string(),
        ident: row.ident().to_string(),
        power: iv,
        area,
        delay,
        rate,
        constant,
        dead,
    };
    Ok((bounds, power))
}

/// Analyzes a nested sub-sheet: globals (base plan order) then rows.
fn analyze_nested(
    sub: &CompiledSheet,
    param_env: &Env<'_>,
    ninputs: usize,
    path_prefix: &str,
    sink: &mut Sink<'_>,
) -> Result<LevelResult, EvaluateSheetError> {
    let order = sub.global_order().map_err(Clone::clone)?;
    let globals: Vec<_> = sub.globals_view().collect();
    let mut env = param_env.child();
    for &k in order {
        let g = &globals[k];
        let path = format!("{path_prefix}globals/{}", g.name());
        let val = abs_eval(g.expr(), &env, ninputs, &path, sink).map_err(|source| {
            EvaluateSheetError::Global {
                name: g.name().to_string(),
                source,
            }
        })?;
        env.set(g.name(), val);
    }
    analyze_rows(sub, &env, ninputs, path_prefix, sink)
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
    let input_index: BTreeMap<&str, usize> = inputs
        .iter()
        .enumerate()
        .map(|(k, (n, _, _))| (n.as_str(), k))
        .collect();

    let mut report = LintReport::new();
    let mut may_fail = false;
    let mut sink = Sink {
        report: &mut report,
        enabled: true,
        may_fail: &mut may_fail,
    };

    // Appended override names enter the environment before globals
    // evaluate (a global's formula may read them).
    let mut env = Env::root();
    for (name, iv, _) in &inputs {
        if !global_names.contains(&name.as_str()) {
            let idx = input_index[name.as_str()];
            env.set(name, AbsValue::input(*iv, idx, ninputs));
        }
    }

    // Globals in the engine's dependency order under the range names
    // (an override can cut a cycle), with its error precedence. The
    // appended names are already in the environment, so only declared
    // globals are walked.
    let names: Vec<&str> = ranges.iter().map(|(n, _)| n.as_str()).collect();
    let override_plan = plan.override_plan(&names);
    let order = override_plan.global_order().map_err(Clone::clone)?;

    for &k in order.iter().filter(|&&k| k < globals.len()) {
        let g = &globals[k];
        let name = g.name();
        let path = format!("globals/{name}");
        let val = if let Some(&idx) = input_index.get(name) {
            if !overridden.contains_key(name) {
                // A constant-formula input: the concrete engine still
                // evaluates the formula, so its diagnostics (dead
                // branches, …) still apply — only the value is taken
                // from the input identity.
                abs_eval(g.expr(), &env, ninputs, &path, &mut sink).map_err(|source| {
                    EvaluateSheetError::Global {
                        name: name.to_string(),
                        source,
                    }
                })?;
            }
            AbsValue::input(inputs[idx].1, idx, ninputs)
        } else {
            abs_eval(g.expr(), &env, ninputs, &path, &mut sink).map_err(|source| {
                EvaluateSheetError::Global {
                    name: name.to_string(),
                    source,
                }
            })?
        };
        env.set(name, val);
    }

    let level = analyze_rows(plan, &env, ninputs, "", &mut sink)?;

    // Constant-foldable rows are only worth flagging when something
    // actually varies — under pure point inputs every row is trivially
    // constant.
    let any_range = inputs.iter().any(|(_, iv, _)| !iv.is_point());
    if any_range {
        for r in &level.rows {
            if r.constant && !r.dead {
                sink.push(
                    Diagnostic::warning(
                        codes::CONSTANT_FOLDABLE_ROW,
                        format!("rows/{}/power", r.name),
                        "row power is a single provable value over the analyzed ranges",
                    )
                    .with_suggestion("fold the row into a direct-power entry"),
                );
            }
        }
    }

    let monotone = inputs
        .iter()
        .enumerate()
        .filter_map(|(k, (name, _, _))| {
            let dir = match level.total.mono[k] {
                Mono::Inc => Direction::Increasing,
                Mono::Dec => Direction::Decreasing,
                Mono::Const => Direction::Constant,
                Mono::Unknown => return None,
            };
            Some(MonotoneInput {
                name: name.clone(),
                direction: dir,
            })
        })
        .collect();

    Ok(SheetBounds {
        name: plan.plan_name().to_string(),
        inputs: inputs
            .into_iter()
            .map(|(name, iv, dim)| InputBound {
                name,
                range: iv,
                dim: dim.known(),
            })
            .collect(),
        rows: level.rows,
        total_power: level.total.iv,
        monotone,
        diagnostics: report,
        may_fail,
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
