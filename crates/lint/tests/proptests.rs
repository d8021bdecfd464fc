//! Property tests for the linter: total robustness (never panics on
//! arbitrary sheets, defective or not) and the headline soundness
//! guarantee — a sheet with zero `Error` diagnostics always plays
//! without a structural error.

use proptest::prelude::*;

use powerplay_library::builtin::ucb_library;
use powerplay_library::{EvaluateElementError, Registry};
use powerplay_lint::{codes, lint_sheet, LintReport};
use powerplay_sheet::{CompiledSheet, EvaluateSheetError, Row, RowModel, Sheet};

/// Lints `sheet` compiled against `registry`.
fn lint(sheet: &Sheet, registry: &Registry) -> LintReport {
    lint_sheet(&CompiledSheet::compile(sheet, registry))
}

/// A row of a generated design: an element path with its integer
/// parameters, and the divider of `f` it is clocked at.
type RowSpec<'a> = ((&'a str, Vec<(&'a str, u32)>), u32);

/// A design at `vdd` and `f` with one row per spec, `Row 0` first.
fn design(rows: Vec<RowSpec<'_>>, vdd: f64, f: f64) -> Sheet {
    let mut sheet = Sheet::new("random");
    sheet.set_global_value("vdd", vdd);
    sheet.set_global_value("f", f);
    for (i, ((path, params), divider)) in rows.into_iter().enumerate() {
        let mut row = Row::new(format!("Row {i}"), RowModel::Element(path.to_owned()));
        for (param, value) in params {
            row.bind(param, &value.to_string()).unwrap();
        }
        row.bind("f", &format!("f / {divider}")).unwrap();
        sheet.add_row(row);
    }
    sheet
}

/// A random small design over a handful of builtin elements, mirroring
/// the sheet engine's own property harness.
fn arb_clean_sheet() -> impl Strategy<Value = Sheet> {
    let element = prop_oneof![
        Just(("ucb/multiplier", vec![("bw_a", 4u32), ("bw_b", 8)])),
        Just(("ucb/register", vec![("bits", 16)])),
        Just(("ucb/sram", vec![("words", 512), ("bits", 8)])),
        Just(("ucb/ctrl_rom", vec![("n_i", 6), ("n_o", 12)])),
        Just(("ucb/ripple_adder", vec![("bits", 24)])),
    ];
    (
        prop::collection::vec((element, 1u32..32), 1..6),
        1.0f64..4.0,
        1e5f64..1e7,
    )
        .prop_map(|(rows, vdd, f)| design(rows, vdd, f))
}

/// Injects one of a catalogue of defects the linter's passes cover:
/// name errors, structural cycles, dimension mismatches, and merely
/// suspicious (warning-level) constructs. `0` leaves the sheet intact.
fn inject_defect(sheet: &mut Sheet, defect: u32) {
    match defect {
        1 => {
            // Circular globals (E006).
            sheet.set_global("a", "b + 1").unwrap();
            sheet.set_global("b", "a * 2").unwrap();
        }
        2 => {
            // Unknown element path (E004).
            sheet
                .add_element_row("Ghost", "nowhere/nothing", [])
                .unwrap();
        }
        3 => {
            // Two rows folding to the same ident (E005).
            sheet
                .add_element_row("Twin Row", "ucb/register", [])
                .unwrap();
            sheet
                .add_element_row("twin-row", "ucb/register", [])
                .unwrap();
        }
        4 => {
            // Circular row power references (E007).
            sheet
                .add_element_row("Loop A", "ucb/dcdc", [("p_load", "P_loop_b")])
                .unwrap();
            sheet
                .add_element_row("Loop B", "ucb/dcdc", [("p_load", "P_loop_a")])
                .unwrap();
        }
        5 => {
            // Unbound variable in a binding (E001).
            sheet
                .add_element_row("Converter", "ucb/dcdc", [("p_load", "mystery_var")])
                .unwrap();
        }
        6 => {
            // Power added to a capacitance (E010) plus a `P_` reference
            // to `Row 0`, which every generated sheet has.
            sheet.set_global("c_load", "100f").unwrap();
            sheet
                .add_element_row("Pads", "ucb/pads", [("c_pad", "P_row_0 + c_load")])
                .unwrap();
        }
        7 => {
            // Unknown function in a global (E002) — dead, but globals
            // are still evaluated at play time.
            sheet.set_global("g_bad", "frobnicate(3)").unwrap();
        }
        8 => {
            // Warning-level constructs only: a dead global (W105) and a
            // forward reference (I202) — the sheet must stay playable.
            sheet.set_global("scratch", "42").unwrap();
            sheet
                .add_element_row("Early", "ucb/dcdc", [("p_load", "P_late")])
                .unwrap();
            sheet.add_element_row("Late", "ucb/register", []).unwrap();
        }
        _ => {}
    }
}

fn lib() -> Registry {
    ucb_library()
}

/// The error each class 1–7 of [`inject_defect`] raises.
const DEFECT_CODES: [(u32, &str); 7] = [
    (1, codes::CIRCULAR_GLOBALS),
    (2, codes::UNKNOWN_ELEMENT),
    (3, codes::DUPLICATE_ROW_IDENT),
    (4, codes::CIRCULAR_ROWS),
    (5, codes::UNBOUND_VARIABLE),
    (6, codes::DIM_MISMATCH),
    (7, codes::UNKNOWN_FUNCTION),
];

/// Lint reports every error of a sheet, not only the one a play meets
/// first: for each pair of defect classes injected into one sheet, both
/// classes' codes.
#[test]
fn lint_reports_both_of_two_injected_errors() {
    let registry = lib();
    for (k, &(a, code_a)) in DEFECT_CODES.iter().enumerate() {
        for &(b, code_b) in &DEFECT_CODES[k + 1..] {
            let mut sheet = design(
                vec![
                    (("ucb/register", vec![("bits", 16)]), 4),
                    (("ucb/sram", vec![("words", 512), ("bits", 8)]), 2),
                ],
                1.5,
                2e6,
            );
            inject_defect(&mut sheet, a);
            inject_defect(&mut sheet, b);
            let report = lint(&sheet, &registry);
            for code in [code_a, code_b] {
                assert!(
                    report.diagnostics().iter().any(|d| d.code == code),
                    "defects {a} and {b}: no {code}\n{}",
                    report.render_text()
                );
            }
        }
    }
}

/// A play failure is *structural* when static analysis is expected to
/// predict it. The only exemption is a bad physical value: whether a
/// model formula folds negative can depend on runtime magnitudes no
/// static pass can know.
fn is_structural(err: &EvaluateSheetError) -> bool {
    match err {
        EvaluateSheetError::Element {
            source: EvaluateElementError::BadValue { .. },
            ..
        } => false,
        EvaluateSheetError::Nested { source, .. } => is_structural(source),
        _ => true,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The linter terminates without panicking on arbitrary sheets,
    /// defective or not, and its renderers accept whatever it found.
    #[test]
    fn lint_never_panics(sheet in arb_clean_sheet(), defect in 0u32..9) {
        let mut sheet = sheet;
        inject_defect(&mut sheet, defect);
        let report = lint(&sheet, &lib());
        // Exercise every renderer on the arbitrary report.
        let _ = report.render_text();
        let _ = report.render_html();
        let _ = report.summary();
        prop_assert!(report.len() >= report.count(powerplay_lint::Severity::Error));
    }

    /// The report survives a round trip through the JSON wire format.
    #[test]
    fn report_json_round_trips(sheet in arb_clean_sheet(), defect in 0u32..9) {
        let mut sheet = sheet;
        inject_defect(&mut sheet, defect);
        let report = lint(&sheet, &lib());
        let text = report.to_json().to_pretty();
        let parsed = powerplay_json::Json::parse(&text).unwrap();
        prop_assert_eq!(LintReport::from_json(&parsed).unwrap(), report);
    }

    /// Soundness: zero `Error` diagnostics implies the sheet plays
    /// without a structural error. (Warnings and infos make no such
    /// promise, and runtime-value errors are exempt by design.)
    #[test]
    fn error_free_sheets_play(sheet in arb_clean_sheet(), defect in 0u32..9) {
        let mut sheet = sheet;
        inject_defect(&mut sheet, defect);
        let registry = lib();
        let report = lint(&sheet, &registry);
        if !report.has_errors() {
            match sheet.play(&registry) {
                Ok(_) => {}
                Err(err) => prop_assert!(
                    !is_structural(&err),
                    "lint-clean sheet failed structurally: {err:?}\nreport:\n{}",
                    report.render_text()
                ),
            }
        }
    }

    /// Completeness on the injected catalogue: every *structural* play
    /// failure is predicted by at least one `Error` diagnostic.
    #[test]
    fn structural_failures_are_predicted(sheet in arb_clean_sheet(), defect in 0u32..9) {
        let mut sheet = sheet;
        inject_defect(&mut sheet, defect);
        let registry = lib();
        if let Err(err) = sheet.play(&registry) {
            if is_structural(&err) {
                let report = lint(&sheet, &registry);
                prop_assert!(
                    report.has_errors(),
                    "play failed with {err:?} but lint found no errors:\n{}",
                    report.render_text()
                );
            }
        }
    }
}
