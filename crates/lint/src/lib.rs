//! `powerplay-lint` — static semantic analysis for PowerPlay sheets and
//! library models.
//!
//! The evaluator (`powerplay-sheet`) tells you a sheet is broken by
//! failing; this crate tells you *before* you evaluate, with structured
//! [`Diagnostic`]s that carry a code, a severity, a slash-path locating
//! the offending expression, and often a suggestion. Three passes run
//! over every sheet:
//!
//! 1. **Name analysis** — a back end of the engine's lowering walk
//!    ([`lint_sheet`]): each trap the walk meets is a diagnostic, and the
//!    walk goes on past it, so one run reports every error.
//! 2. **Unit-dimension inference** — dimensions (V, A, F, Hz, s, W, m²)
//!    propagate from naming conventions and declarations through the
//!    expression AST; adding a power to a capacitance is an error,
//!    comparing across dimensions is a warning.
//! 3. **Syntactic checks** — dead globals/bindings, shadowing, forward
//!    references, and plausibility keyed by element class: negative
//!    constants in physical slots, `swing > vdd`, clocked templates at a
//!    constant 0 Hz, converter efficiencies outside (0, 1], constant
//!    subexpressions folding to non-finite values.
//!
//! The contract that makes the linter trustworthy: **a sheet with zero
//! `Error`-severity diagnostics evaluates without structural errors**
//! (the property tests in this crate enforce it). Warnings and infos
//! are advisory.
//!
//! Reports render as plain text ([`LintReport::render_text`]), HTML
//! ([`LintReport::render_html`]), and JSON ([`LintReport::to_json`] /
//! [`LintReport::from_json`] round-trip through `powerplay-json`).

mod diag;
mod dims;
mod element;
mod obs;
mod sheet_analysis;

pub use diag::{codes, Diagnostic, LintReport, Severity};
pub use dims::{convention_dim, infer_dims, DimInfo};
pub use element::{lint_element, lint_registry};
pub use sheet_analysis::lint_sheet;

use powerplay_expr::{EvalError, BUILTIN_FUNCTIONS};
use powerplay_library::EvaluateElementError;
use powerplay_sheet::{EvaluateSheetError, Formula};

/// Writes into `out`, in place of what it held, the path diagnostics
/// give `formula` inside the sub-sheet rows `nest`, outermost first:
/// `rows/<row>/` per level, then `globals/<name>`,
/// `rows/<row>/bindings/<param>` or `rows/<row>/model/<slot>`, where a
/// slot is named as in the JSON model format (`cap_partial/swing`).
pub fn formula_path(out: &mut String, nest: &[impl AsRef<str>], formula: Formula<'_>) {
    out.clear();
    for row in nest {
        out.extend(["rows/", row.as_ref(), "/"]);
    }
    match formula {
        Formula::Global(name) => out.extend(["globals/", name]),
        Formula::Binding { row, param } => out.extend(["rows/", row, "/bindings/", param]),
        Formula::Model { row, formula } => {
            out.extend(["rows/", row, "/model/", slot_name(formula)])
        }
    }
}

/// The JSON model format's name for the element formula the engine
/// calls `formula`.
pub(crate) fn slot_name(formula: &str) -> &str {
    match formula {
        "cap_partial" => "cap_partial/cap",
        "cap_partial swing" => "cap_partial/swing",
        other => other,
    }
}

/// The sub-sheet rows an error is nested in, outermost first, and the
/// error inside them.
pub(crate) fn unnest(mut err: &EvaluateSheetError) -> (Vec<&str>, &EvaluateSheetError) {
    let mut nest = Vec::new();
    while let EvaluateSheetError::Nested { row, source } = err {
        nest.push(row.as_str());
        err = source;
    }
    (nest, err)
}

/// Converts a runtime evaluation failure into the equivalent
/// [`Diagnostic`], so API layers can answer with the same structured
/// shape (code + path) whether a problem was caught statically or at
/// evaluation time.
pub fn diagnostic_for_play_error(err: &EvaluateSheetError) -> Diagnostic {
    let (nest, err) = unnest(err);
    let prefix: String = nest.iter().flat_map(|row| ["rows/", row, "/"]).collect();
    let path = |formula| {
        let mut path = String::new();
        formula_path(&mut path, &nest, formula);
        path
    };
    match err {
        EvaluateSheetError::UnknownElement { row, element } => Diagnostic::error(
            codes::UNKNOWN_ELEMENT,
            format!("{prefix}rows/{row}"),
            format!("no element `{element}` in the library"),
        )
        .with_suggestion("check the registry path (namespace/name) or upload the model first"),
        EvaluateSheetError::CircularGlobals(names) => Diagnostic::error(
            codes::CIRCULAR_GLOBALS,
            format!(
                "{prefix}globals/{}",
                names.first().map_or("", String::as_str)
            ),
            match &names[..] {
                [name] => format!("global `{name}` refers to itself"),
                _ => format!("global definitions form a cycle: {}", names.join(" -> ")),
            },
        ),
        EvaluateSheetError::CircularRows(names) => Diagnostic::error(
            codes::CIRCULAR_ROWS,
            format!("{prefix}rows/{}", names.first().map_or("", String::as_str)),
            format!("row dependencies form a cycle: {}", names.join(" -> ")),
        ),
        EvaluateSheetError::DuplicateRowIdent(ident) => Diagnostic::error(
            codes::DUPLICATE_ROW_IDENT,
            format!("{prefix}rows"),
            format!("two rows fold to the same identifier `{ident}`"),
        ),
        EvaluateSheetError::Global { name, source } => {
            eval_error_diag(source, path(Formula::Global(name)))
        }
        EvaluateSheetError::Binding { row, param, source } => {
            eval_error_diag(source, path(Formula::Binding { row, param }))
        }
        EvaluateSheetError::Element { row, source } => match source {
            EvaluateElementError::Eval { formula, source } => {
                eval_error_diag(source, path(Formula::Model { row, formula }))
            }
            EvaluateElementError::MissingOperatingPoint(var) => Diagnostic::error(
                codes::MISSING_OPERATING_POINT,
                format!("{prefix}rows/{row}"),
                format!("element model requires `{var}` in scope"),
            ),
            EvaluateElementError::BadValue { formula, value } => {
                let (code, what) = match value.is_finite() {
                    true => (codes::NEGATIVE_CONSTANT_MODEL, "negative physical"),
                    false => (codes::NON_FINITE_CONSTANT, "non-finite"),
                };
                let message = format!("`{formula}` produced {what} value {value}");
                Diagnostic::error(code, path(Formula::Model { row, formula }), message)
            }
        },
        EvaluateSheetError::Nested { .. } => unreachable!("unnested above"),
    }
}

/// The diagnostic for a formula that fails on a name, a function or an
/// arity, at `path`.
fn eval_error_diag(source: &EvalError, path: String) -> Diagnostic {
    match source {
        EvalError::UnknownVariable(name) => Diagnostic::error(
            codes::UNBOUND_VARIABLE,
            path,
            format!("nothing in scope defines `{name}`"),
        ),
        EvalError::UnknownFunction(name) => {
            let builtins: Vec<&str> = BUILTIN_FUNCTIONS.iter().map(|(n, _)| *n).collect();
            let message = format!("unknown function `{name}`");
            Diagnostic::error(codes::UNKNOWN_FUNCTION, path, message)
                .with_suggestion(format!("builtins: {}", builtins.join(", ")))
        }
        EvalError::WrongArity {
            function,
            expected,
            found,
        } => Diagnostic::error(
            codes::WRONG_ARITY,
            path,
            format!(
                "`{function}` takes {expected} argument{}, found {found}",
                if *expected == 1 { "" } else { "s" }
            ),
        ),
    }
}

#[cfg(test)]
mod play_error_tests {
    use super::*;

    #[test]
    fn nested_errors_get_prefixed_paths() {
        let err = EvaluateSheetError::Nested {
            row: "Custom Hardware".to_owned(),
            source: Box::new(EvaluateSheetError::Global {
                name: "vdd".to_owned(),
                source: powerplay_expr::EvalError::UnknownVariable("vcore".to_owned()),
            }),
        };
        let d = diagnostic_for_play_error(&err);
        assert_eq!(d.code, codes::UNBOUND_VARIABLE);
        assert_eq!(d.path, "rows/Custom Hardware/globals/vdd");
    }

    #[test]
    fn bad_value_splits_on_finiteness() {
        let neg = EvaluateSheetError::Element {
            row: "X".to_owned(),
            source: EvaluateElementError::BadValue {
                formula: "cap_full",
                value: -1.0,
            },
        };
        assert_eq!(
            diagnostic_for_play_error(&neg).code,
            codes::NEGATIVE_CONSTANT_MODEL
        );
        let inf = EvaluateSheetError::Element {
            row: "X".to_owned(),
            source: EvaluateElementError::BadValue {
                formula: "power_direct",
                value: f64::INFINITY,
            },
        };
        assert_eq!(
            diagnostic_for_play_error(&inf).code,
            codes::NON_FINITE_CONSTANT
        );
    }
}
