//! The soundness contract: every concrete play whose inputs lie inside
//! the declared ranges lands inside the statically proven intervals.
//!
//! Random sheets (random formulas over the ranged globals, random
//! library rows) are analyzed once, then played at random points
//! sampled from the same ranges. A play that succeeds must land inside
//! the bounds; a play that fails must have been predicted (`may_fail`
//! or an analysis error).

use proptest::prelude::*;

use powerplay_analysis::{analyze_with_ranges, Interval, SheetBounds};
use powerplay_expr::Expr;
use powerplay_library::builtin::ucb_library;
use powerplay_library::{ElementClass, ElementModel, LibraryElement, ParamDecl, Registry};
use powerplay_sheet::{CompiledSheet, EvaluateSheetError, Sheet};

const VDD_RANGE: (f64, f64) = (0.9, 3.3);
const F_RANGE: (f64, f64) = (1e5, 1e7);

/// A random formula over `vdd`, `f` (scaled to O(1) via `f / 1e6`),
/// and literals — rendered as source text so it goes through the same
/// parser the engine uses.
fn formula(depth: u32) -> BoxedStrategy<String> {
    let atom = prop_oneof![
        Just("vdd".to_string()),
        Just("(f / 1e6)".to_string()),
        (0.1f64..4.0).prop_map(|k| format!("{k:.3}")),
        (-2.0f64..2.0).prop_map(|k| format!("({k:.3})")),
    ];
    if depth == 0 {
        return atom.boxed();
    }
    let sub = formula(depth - 1);
    prop_oneof![
        atom,
        (sub.clone(), sub.clone()).prop_map(|(a, b)| format!("({a} + {b})")),
        (sub.clone(), sub.clone()).prop_map(|(a, b)| format!("({a} - {b})")),
        (sub.clone(), sub.clone()).prop_map(|(a, b)| format!("({a} * {b})")),
        (sub.clone(), sub.clone()).prop_map(|(a, b)| format!("({a} / {b})")),
        (sub.clone(), sub.clone()).prop_map(|(a, b)| format!("min({a}, {b})")),
        (sub.clone(), sub.clone()).prop_map(|(a, b)| format!("max({a}, {b})")),
        sub.clone().prop_map(|a| format!("sqrt(abs({a}))")),
        sub.clone().prop_map(|a| format!("abs({a})")),
        sub.clone().prop_map(|a| format!("({a} ^ 2)")),
        (sub.clone(), sub.clone(), sub.clone())
            .prop_map(|(c, t, e)| format!("if({c} > 1, {t}, {e})")),
    ]
    .boxed()
}

/// Library rows to sample from (all parameterless here; parameters are
/// exercised through the custom element below).
const UCB_ROWS: [&str; 5] = [
    "ucb/multiplier",
    "ucb/sram",
    "ucb/register",
    "ucb/ctrl_pla",
    "ucb/rom",
];

/// A registry with one extra element whose model formulas read a
/// caller-supplied parameter directly — the hook that lets random
/// formulas reach `cap_full`/`power_direct` evaluation.
fn registry_with_probe() -> Registry {
    let mut registry = ucb_library();
    let model = ElementModel {
        cap_full: Some(Expr::parse("knob * 1e-12").unwrap()),
        power_direct: Some(Expr::parse("bias * 1e-3").unwrap()),
        ..ElementModel::default()
    };
    registry.insert(LibraryElement::new(
        "test/probe",
        ElementClass::Computation,
        "soundness probe: cap and direct power from parameters",
        vec![
            ParamDecl::new("knob", 1.0, "switched cap scale, pF"),
            ParamDecl::new("bias", 0.5, "direct power, mW"),
        ],
        model,
    ));
    registry
}

/// Asserts one concrete play against the proven bounds.
fn check_play(
    plan: &CompiledSheet,
    bounds: &Result<SheetBounds, EvaluateSheetError>,
    vdd: f64,
    f: f64,
) {
    let played = plan.play_with(&[("vdd", vdd), ("f", f)]);
    match (played, bounds) {
        (Ok(report), Ok(bounds)) => {
            let total = report.total_power().value();
            prop_assert!(
                bounds.total_power.contains(total),
                "total {total} outside proven [{}, {}] (nan={}) at vdd={vdd}, f={f}",
                bounds.total_power.lo,
                bounds.total_power.hi,
                bounds.total_power.nan,
            );
            for (row_report, row_bounds) in report.rows().iter().zip(&bounds.rows) {
                let p = row_report.power().value();
                prop_assert!(
                    row_bounds.power.contains(p),
                    "row `{}` power {p} outside proven [{}, {}] at vdd={vdd}, f={f}",
                    row_bounds.name,
                    row_bounds.power.lo,
                    row_bounds.power.hi,
                );
            }
        }
        (Ok(_), Err(err)) => {
            panic!("analysis rejected a playable sheet: {err}");
        }
        (Err(_), Ok(bounds)) => {
            prop_assert!(
                bounds.may_fail,
                "a play failed but the analysis claimed no play can (vdd={vdd}, f={f})"
            );
        }
        (Err(_), Err(_)) => {}
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random library rows, ranged supply and rate: plays stay inside
    /// the proven intervals across the whole box.
    #[test]
    fn library_rows_within_bounds(
        rows in prop::collection::vec(0usize..UCB_ROWS.len(), 1..4),
        samples in prop::collection::vec(
            ((VDD_RANGE.0)..VDD_RANGE.1, (F_RANGE.0)..F_RANGE.1),
            4..5,
        ),
    ) {
        let registry = ucb_library();
        let mut sheet = Sheet::new("random-library");
        sheet.set_global_value("vdd", 1.5);
        sheet.set_global_value("f", 2e6);
        for (i, pick) in rows.iter().enumerate() {
            sheet.add_element_row(&format!("Row{i}"), UCB_ROWS[*pick], []).unwrap();
        }
        let plan = CompiledSheet::compile(&sheet, &registry);
        let ranges = vec![
            ("vdd".to_string(), Interval::new(VDD_RANGE.0, VDD_RANGE.1)),
            ("f".to_string(), Interval::new(F_RANGE.0, F_RANGE.1)),
        ];
        let bounds = analyze_with_ranges(&plan, &ranges);
        for (vdd, f) in samples {
            check_play(&plan, &bounds, vdd, f);
        }
    }

    /// Random formulas reach the model through a probe element's
    /// parameters; negative/NaN excursions must be predicted, in-range
    /// plays must stay inside the intervals.
    #[test]
    fn random_formulas_within_bounds(
        knob in formula(3),
        bias in formula(2),
        derived in formula(3),
        samples in prop::collection::vec(
            ((VDD_RANGE.0)..VDD_RANGE.1, (F_RANGE.0)..F_RANGE.1),
            4..5,
        ),
    ) {
        let registry = registry_with_probe();
        let mut sheet = Sheet::new("random-formulas");
        sheet.set_global_value("vdd", 1.5);
        sheet.set_global_value("f", 2e6);
        sheet.set_global("g_mix", &derived).unwrap();
        sheet
            .add_element_row(
                "Probe",
                "test/probe",
                [("knob", knob.as_str()), ("bias", bias.as_str())],
            )
            .unwrap();
        sheet.add_element_row("Anchor", "ucb/register", []).unwrap();
        let plan = CompiledSheet::compile(&sheet, &registry);
        let ranges = vec![
            ("vdd".to_string(), Interval::new(VDD_RANGE.0, VDD_RANGE.1)),
            ("f".to_string(), Interval::new(F_RANGE.0, F_RANGE.1)),
        ];
        let bounds = analyze_with_ranges(&plan, &ranges);
        for (vdd, f) in samples {
            check_play(&plan, &bounds, vdd, f);
        }
    }

    /// Point analysis (no ranges) brackets the plain play exactly.
    #[test]
    fn point_analysis_brackets_the_declared_play(
        rows in prop::collection::vec(0usize..UCB_ROWS.len(), 1..4),
        vdd in (VDD_RANGE.0)..VDD_RANGE.1,
    ) {
        let registry = ucb_library();
        let mut sheet = Sheet::new("point");
        sheet.set_global_value("vdd", vdd);
        sheet.set_global_value("f", 2e6);
        for (i, pick) in rows.iter().enumerate() {
            sheet.add_element_row(&format!("Row{i}"), UCB_ROWS[*pick], []).unwrap();
        }
        let plan = CompiledSheet::compile(&sheet, &registry);
        let bounds = powerplay_analysis::analyze(&plan).unwrap();
        let report = plan.play().unwrap();
        let total = report.total_power().value();
        prop_assert!(bounds.total_power.contains(total));
        // Supply scaling is the paper's first-class knob: the analyzer
        // must prove total power rises with vdd at the operating point.
        prop_assert!(
            bounds
                .monotone
                .iter()
                .any(|m| m.name == "vdd"),
            "no monotone verdict for vdd"
        );
    }
}

/// Deterministic diagnostics: each new code fires on its canonical
/// trigger.
mod diagnostics {
    use super::*;
    use powerplay_lint::codes;

    fn codes_of(bounds: &SheetBounds) -> Vec<&str> {
        bounds
            .diagnostics
            .diagnostics()
            .iter()
            .map(|d| d.code.as_str())
            .collect()
    }

    #[test]
    fn possible_div_zero_fires_w114() {
        let registry = ucb_library();
        let mut sheet = Sheet::new("divzero");
        sheet.set_global_value("vdd", 1.5);
        sheet.set_global_value("f", 2e6);
        sheet.set_global("scale", "1 / (vdd - 2)").unwrap();
        sheet.add_element_row("Core", "ucb/register", []).unwrap();
        let plan = CompiledSheet::compile(&sheet, &registry);
        let ranges = vec![("vdd".to_string(), Interval::new(1.0, 3.0))];
        let bounds = analyze_with_ranges(&plan, &ranges).unwrap();
        assert!(codes_of(&bounds).contains(&codes::POSSIBLE_DIV_ZERO));
    }

    #[test]
    fn dead_branch_fires_w116_and_dead_row_w117() {
        let registry = registry_with_probe();
        let mut sheet = Sheet::new("deadcode");
        sheet.set_global_value("vdd", 1.5);
        sheet.set_global_value("f", 2e6);
        sheet.set_global("sel", "if(2 > 1, 1, 0)").unwrap();
        sheet
            .add_element_row("Idle", "test/probe", [("knob", "0"), ("bias", "0")])
            .unwrap();
        let plan = CompiledSheet::compile(&sheet, &registry);
        let bounds = powerplay_analysis::analyze(&plan).unwrap();
        let codes = codes_of(&bounds);
        assert!(
            codes.contains(&codes::DEAD_BRANCH),
            "missing W116 in {codes:?}"
        );
        assert!(
            codes.contains(&codes::DEAD_ROW),
            "missing W117 in {codes:?}"
        );
        assert!(bounds.rows[0].dead);
    }

    #[test]
    fn provably_negative_model_value_fires_e015() {
        let registry = registry_with_probe();
        let mut sheet = Sheet::new("negative");
        sheet.set_global_value("vdd", 1.5);
        sheet.set_global_value("f", 2e6);
        sheet
            .add_element_row("Bad", "test/probe", [("knob", "1"), ("bias", "-3")])
            .unwrap();
        let plan = CompiledSheet::compile(&sheet, &registry);
        let bounds = powerplay_analysis::analyze(&plan).unwrap();
        assert!(codes_of(&bounds).contains(&codes::PROVABLY_NEGATIVE_VALUE));
        assert!(bounds.has_errors());
        assert!(bounds.may_fail);
        // The concrete play indeed fails.
        assert!(plan.play().is_err());
    }

    #[test]
    fn provably_nan_model_value_fires_e016() {
        let registry = registry_with_probe();
        let mut sheet = Sheet::new("nan");
        sheet.set_global_value("vdd", 1.5);
        sheet.set_global_value("f", 2e6);
        sheet
            .add_element_row(
                "Bad",
                "test/probe",
                [("knob", "sqrt(0 - 1)"), ("bias", "1")],
            )
            .unwrap();
        let plan = CompiledSheet::compile(&sheet, &registry);
        let bounds = powerplay_analysis::analyze(&plan).unwrap();
        assert!(codes_of(&bounds).contains(&codes::PROVABLY_NAN_VALUE));
        assert!(plan.play().is_err());
    }

    #[test]
    fn nan_reachable_fires_w115_without_condemning_the_row() {
        let registry = registry_with_probe();
        let mut sheet = Sheet::new("maybe-nan");
        sheet.set_global_value("vdd", 1.5);
        sheet.set_global_value("f", 2e6);
        sheet
            .add_element_row(
                "Edgy",
                "test/probe",
                [("knob", "sqrt(vdd - 2)"), ("bias", "1")],
            )
            .unwrap();
        let plan = CompiledSheet::compile(&sheet, &registry);
        let ranges = vec![("vdd".to_string(), Interval::new(1.0, 3.0))];
        let bounds = analyze_with_ranges(&plan, &ranges).unwrap();
        assert!(codes_of(&bounds).contains(&codes::NAN_REACHABLE));
        assert!(bounds.may_fail);
        assert!(!bounds.has_errors());
        // In-range plays on the good side still land inside the bounds.
        let report = plan.play_with(&[("vdd", 3.0)]).unwrap();
        assert!(bounds.total_power.contains(report.total_power().value()));
    }

    #[test]
    fn a_binding_diagnostic_carries_the_lint_path_of_the_binding() {
        let registry = ucb_library();
        let mut sheet = Sheet::new("binding");
        sheet.set_global_value("vdd", 1.5);
        sheet.set_global_value("f", 2e6);
        sheet
            .add_element_row("Reg", "ucb/register", [("x", "sqrt(vdd - 2)")])
            .unwrap();
        let plan = CompiledSheet::compile(&sheet, &registry);
        let ranges = vec![("vdd".to_string(), Interval::new(1.0, 3.3))];
        let bounds = analyze_with_ranges(&plan, &ranges).unwrap();
        let found = bounds.diagnostics.diagnostics().iter();
        let w115 = found
            .filter(|d| d.code == codes::NAN_REACHABLE)
            .collect::<Vec<_>>();
        assert_eq!(w115.len(), 1, "{:?}", codes_of(&bounds));
        assert_eq!(w115[0].path, "rows/Reg/bindings/x");
    }

    #[test]
    fn constant_foldable_row_fires_w118_under_ranges() {
        let registry = registry_with_probe();
        let mut sheet = Sheet::new("foldable");
        sheet.set_global_value("vdd", 1.5);
        sheet.set_global_value("f", 2e6);
        // The probe row's power ignores both ranged inputs.
        sheet
            .add_element_row("Fixed", "test/probe", [("knob", "0"), ("bias", "2")])
            .unwrap();
        sheet.add_element_row("Live", "ucb/register", []).unwrap();
        let plan = CompiledSheet::compile(&sheet, &registry);
        let ranges = vec![("vdd".to_string(), Interval::new(1.0, 3.0))];
        let bounds = analyze_with_ranges(&plan, &ranges).unwrap();
        assert!(codes_of(&bounds).contains(&codes::CONSTANT_FOLDABLE_ROW));
        assert!(bounds.rows[0].constant);
        assert!(!bounds.rows[1].constant);
    }

    #[test]
    fn monotone_directions_over_ranges() {
        let registry = ucb_library();
        let mut sheet = Sheet::new("monotone");
        sheet.set_global_value("vdd", 1.5);
        sheet.set_global_value("f", 2e6);
        sheet.add_element_row("Core", "ucb/multiplier", []).unwrap();
        let plan = CompiledSheet::compile(&sheet, &registry);
        let ranges = vec![
            ("vdd".to_string(), Interval::new(1.0, 3.3)),
            ("f".to_string(), Interval::new(1e5, 1e7)),
        ];
        let bounds = analyze_with_ranges(&plan, &ranges).unwrap();
        for name in ["vdd", "f"] {
            let dir = bounds
                .monotone
                .iter()
                .find(|m| m.name == name)
                .unwrap_or_else(|| panic!("no direction proven for {name}"));
            assert_eq!(
                dir.direction,
                powerplay_analysis::Direction::Increasing,
                "{name} should raise power"
            );
        }
    }
}
