//! Static analysis of a single library element's model.

use std::collections::BTreeSet;

use powerplay_expr::Expr;
use powerplay_library::{ElementClass, LibraryElement};
use powerplay_units::dim::Dim;

use crate::diag::{codes, Diagnostic, LintReport};
use crate::dims::{check_constant_folds, infer_dims, DimInfo};

/// The model formula slots with their expected result dimension.
///
/// Path segments are the `ElementModel` field names, so diagnostics line
/// up with the JSON model format.
pub(crate) fn slots(element: &LibraryElement) -> Vec<(&'static str, &Expr, Dim)> {
    let m = element.model();
    let mut out = Vec::new();
    if let Some(e) = &m.cap_full {
        out.push(("cap_full", e, Dim::FARAD));
    }
    if let Some((cap, swing)) = &m.cap_partial {
        out.push(("cap_partial/cap", cap, Dim::FARAD));
        out.push(("cap_partial/swing", swing, Dim::VOLT));
    }
    if let Some(e) = &m.static_current {
        out.push(("static_current", e, Dim::AMPERE));
    }
    if let Some(e) = &m.power_direct {
        out.push(("power_direct", e, Dim::WATT));
    }
    if let Some(e) = &m.area {
        out.push(("area", e, Dim::SQ_METRE));
    }
    if let Some(e) = &m.delay {
        out.push(("delay", e, Dim::SECOND));
    }
    out
}

/// Lints one library element in isolation, as the registry does on
/// upload: undeclared variables are [`crate::Severity::Error`]s because
/// a registry model has nothing but its parameters and `vdd`/`f` to
/// resolve against.
///
/// (Inline row models are *not* linted with this function — they
/// resolve through the whole sheet scope chain, which
/// [`crate::lint_sheet`] models.)
pub fn lint_element(element: &LibraryElement) -> LintReport {
    let metrics = crate::obs::lint_metrics();
    metrics.reports_total.inc();
    let _timer = metrics.element_pass_seconds.start_timer();
    let mut out = LintReport::new();
    let declared: BTreeSet<&str> = element.params().iter().map(|p| p.name.as_str()).collect();

    // E013: variables no parameter declares. Reported per slot so the
    // path pins down the offending formula.
    for (slot, expr, _) in slots(element) {
        let path = format!("model/{slot}");
        for var in expr.free_variables() {
            if var != "vdd" && var != "f" && !declared.contains(var.as_str()) {
                out.push(
                    Diagnostic::error(
                        codes::UNDECLARED_MODEL_VARIABLE,
                        &path,
                        format!("model references `{var}`, which is not a declared parameter"),
                    )
                    .with_suggestion(format!(
                        "declare `{var}` as a parameter with a default, or rename it to one of: {}",
                        declared_list(element)
                    )),
                );
            }
        }
    }

    // W113: parameters nothing reads.
    let used: BTreeSet<String> = slots(element)
        .iter()
        .flat_map(|(_, e, _)| e.free_variables())
        .collect();
    for p in element.params() {
        if !used.contains(&p.name) {
            out.push(
                Diagnostic::warning(
                    codes::DEAD_PARAM,
                    format!("params/{}", p.name),
                    format!("parameter `{}` is never read by any model formula", p.name),
                )
                .with_suggestion("remove the parameter or reference it in a formula"),
            );
        }
    }

    // Per-slot expression checks: dimension inference against the slot's
    // expected dimension, and constant-folding plausibility.
    let lookup = |name: &str| -> DimInfo {
        match name {
            "vdd" => DimInfo::Known(Dim::VOLT),
            "f" => DimInfo::Known(Dim::HERTZ),
            // Parameters are untyped: `bits` is a count, `c_pad` is
            // farads — the author knows, the checker assumes nothing.
            _ => DimInfo::Any,
        }
    };
    for (slot, expr, expected) in slots(element) {
        check_slot(expr, &format!("model/{slot}"), expected, &lookup, &mut out);
    }

    // W109: converter efficiency defaults outside (0, 1].
    if element.class() == ElementClass::Converter {
        if let Some(eta) = element.params().iter().find(|p| p.name == "eta") {
            if !(eta.default > 0.0 && eta.default <= 1.0) {
                out.push(Diagnostic::warning(
                    codes::ETA_OUT_OF_RANGE,
                    "params/eta",
                    format!(
                        "converter efficiency defaults to {}, outside (0, 1]",
                        eta.default
                    ),
                ));
            }
        }
    }

    out
}

/// The checks of one model formula at `path` against the dimension its
/// slot holds (W104), its constant folds (E011) and a negative constant
/// (E012); `lookup` gives the dimension of each name it reads.
pub(crate) fn check_slot(
    expr: &Expr,
    path: &str,
    expected: Dim,
    lookup: &dyn Fn(&str) -> DimInfo,
    out: &mut LintReport,
) {
    if let Some(d) = infer_dims(expr, path, lookup, out).known() {
        if d != expected {
            out.push(Diagnostic::warning(
                codes::RESULT_DIM,
                path,
                format!("formula has dimension {d}, but this slot holds {expected}"),
            ));
        }
    }
    check_constant_folds(expr, path, out);
    if let Some(v) = expr.constant_value().filter(|v| v.is_finite() && *v < 0.0) {
        out.push(Diagnostic::error(
            codes::NEGATIVE_CONSTANT_MODEL,
            path,
            format!("formula always evaluates to {v}; physical values must be >= 0"),
        ));
    }
}

fn declared_list(element: &LibraryElement) -> String {
    let names: Vec<&str> = element
        .params()
        .iter()
        .map(|p| p.name.as_str())
        .chain(["vdd", "f"])
        .collect();
    names.join(", ")
}

/// Lints every element of a registry, each report prefixed with the
/// element's registry path (`elements/<name>/…`).
pub fn lint_registry(registry: &powerplay_library::Registry) -> LintReport {
    let mut out = LintReport::new();
    for element in registry.iter() {
        out.merge(lint_element(element).prefixed(&format!("elements/{}/", element.name())));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use powerplay_library::builtin::ucb_library;
    use powerplay_library::{ElementModel, ParamDecl};

    fn element(params: Vec<ParamDecl>, model: ElementModel) -> LibraryElement {
        LibraryElement::new("test/e", ElementClass::Computation, "", params, model)
    }

    #[test]
    fn undeclared_variable_is_an_error_with_slot_path() {
        let e = element(
            vec![ParamDecl::new("bits", 8.0, "")],
            ElementModel {
                cap_full: Some(Expr::parse("bits * c_unit").unwrap()),
                area: Some(Expr::parse("mystery * 1e-12").unwrap()),
                ..ElementModel::default()
            },
        );
        let report = lint_element(&e);
        assert!(report.has_errors());
        let undeclared: Vec<_> = report
            .diagnostics()
            .iter()
            .filter(|d| d.code == codes::UNDECLARED_MODEL_VARIABLE)
            .collect();
        assert_eq!(undeclared.len(), 2);
        assert_eq!(undeclared[0].path, "model/cap_full");
        assert!(undeclared[0].message.contains("c_unit"));
        assert_eq!(undeclared[1].path, "model/area");
        assert!(undeclared[1].message.contains("mystery"));
    }

    #[test]
    fn dead_param_warns() {
        let e = element(
            vec![
                ParamDecl::new("bits", 8.0, ""),
                ParamDecl::new("unused", 1.0, ""),
            ],
            ElementModel {
                cap_full: Some(Expr::parse("bits * 100f").unwrap()),
                ..ElementModel::default()
            },
        );
        let report = lint_element(&e);
        assert!(!report.has_errors());
        assert!(report
            .diagnostics()
            .iter()
            .any(|d| d.code == codes::DEAD_PARAM && d.path == "params/unused"));
    }

    #[test]
    fn negative_constant_model_is_an_error() {
        let e = element(
            vec![],
            ElementModel {
                cap_full: Some(Expr::parse("0 - 5f").unwrap()),
                ..ElementModel::default()
            },
        );
        let report = lint_element(&e);
        assert!(report
            .diagnostics()
            .iter()
            .any(|d| d.code == codes::NEGATIVE_CONSTANT_MODEL));
    }

    #[test]
    fn non_finite_constant_model_is_an_error() {
        let e = element(
            vec![],
            ElementModel {
                power_direct: Some(Expr::parse("1 / 0").unwrap()),
                ..ElementModel::default()
            },
        );
        let report = lint_element(&e);
        assert!(report
            .diagnostics()
            .iter()
            .any(|d| d.code == codes::NON_FINITE_CONSTANT));
    }

    #[test]
    fn result_dim_conflict_warns() {
        // A power formula that is dimensionally a capacitance.
        let e = element(
            vec![ParamDecl::new("c_load", 1e-12, "")],
            ElementModel {
                power_direct: Some(Expr::parse("vdd * vdd * f * 1f * 2").unwrap()),
                ..ElementModel::default()
            },
        );
        let report = lint_element(&e);
        // V*V*Hz with polymorphic factors is V^2*Hz, not W.
        assert!(report
            .diagnostics()
            .iter()
            .any(|d| d.code == codes::RESULT_DIM && d.path == "model/power_direct"));
        assert!(!report.has_errors());
    }

    #[test]
    fn builtin_library_has_no_errors() {
        let report = lint_registry(&ucb_library());
        let errors: Vec<_> = report
            .diagnostics()
            .iter()
            .filter(|d| d.severity == crate::Severity::Error)
            .collect();
        assert!(errors.is_empty(), "{errors:?}");
    }

    #[test]
    fn eta_default_out_of_range_warns() {
        let e = LibraryElement::new(
            "test/dcdc",
            ElementClass::Converter,
            "",
            vec![
                ParamDecl::new("p_load", 1.0, ""),
                ParamDecl::new("eta", 1.3, ""),
            ],
            ElementModel {
                power_direct: Some(Expr::parse("p_load / eta - p_load").unwrap()),
                ..ElementModel::default()
            },
        );
        let report = lint_element(&e);
        assert!(report
            .diagnostics()
            .iter()
            .any(|d| d.code == codes::ETA_OUT_OF_RANGE));
    }
}
