//! Property tests for the sheet engine: evaluation-order invariance,
//! persistence fidelity, and macro-lumping equivalence.

use powerplay_expr::{Expr, Scope};
use powerplay_library::builtin::ucb_library;
use powerplay_library::{ElementClass, ElementModel, LibraryElement, ParamDecl, Registry};
use powerplay_sheet::{BatchKernel, CompiledSheet, Row, RowKindView, RowModel, Sheet};
use proptest::prelude::*;

/// A random small design over a handful of builtin elements, with
/// per-row rate dividers so rows exercise distinct operating points.
fn arb_sheet() -> impl Strategy<Value = Sheet> {
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
        .prop_map(|(rows, vdd, f)| {
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
        })
}

fn lib() -> Registry {
    ucb_library()
}

/// Random global overrides: existing globals (`vdd`, `f`), a name that
/// usually does not exist yet (`x_new`, exercising the append path), and
/// `a` (which, on defective sheets below, dissolves a global cycle).
fn arb_overrides() -> impl Strategy<Value = Vec<(String, f64)>> {
    prop::collection::vec(
        (
            prop_oneof![
                Just("vdd".to_owned()),
                Just("f".to_owned()),
                Just("x_new".to_owned()),
                Just("a".to_owned()),
            ],
            0.5f64..5.0,
        ),
        0..4,
    )
}

/// Applies `overrides` the reference way: clone, `set_global_value` each
/// pair in order, play.
fn clone_mutate_play(
    sheet: &Sheet,
    registry: &Registry,
    overrides: &[(String, f64)],
) -> Result<powerplay_sheet::SheetReport, powerplay_sheet::EvaluateSheetError> {
    let mut mutated = sheet.clone();
    for (name, value) in overrides {
        mutated.set_global_value(name.clone(), *value);
    }
    mutated.play(registry)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Total power equals the sum of row powers, always.
    #[test]
    fn total_is_sum_of_rows(sheet in arb_sheet()) {
        let report = sheet.play(&lib()).unwrap();
        let sum: f64 = report.rows().iter().map(|r| r.power().value()).sum();
        prop_assert!((sum - report.total_power().value()).abs() <= 1e-12 * sum.max(1e-12));
    }

    /// Reversing row order never changes any row's result (dependency
    /// resolution, not listing order, drives evaluation).
    #[test]
    fn row_order_is_irrelevant(sheet in arb_sheet()) {
        let forward = sheet.play(&lib()).unwrap();
        let mut reversed_sheet = Sheet::new("reversed");
        for (name, expr) in sheet.globals() {
            reversed_sheet.set_global(name.clone(), &expr.to_string()).unwrap();
        }
        let mut rows: Vec<Row> = sheet.rows().to_vec();
        rows.reverse();
        for row in rows {
            reversed_sheet.add_row(row);
        }
        let backward = reversed_sheet.play(&lib()).unwrap();
        prop_assert!(
            (forward.total_power().value() - backward.total_power().value()).abs()
                <= 1e-12 * forward.total_power().value().max(1e-12)
        );
        for row in forward.rows() {
            let twin = backward.row(row.name()).expect("same rows");
            prop_assert_eq!(twin.power(), row.power());
        }
    }

    /// JSON persistence is semantically lossless.
    #[test]
    fn json_roundtrip_preserves_power(sheet in arb_sheet()) {
        let decoded = Sheet::from_json(&sheet.to_json()).unwrap();
        let a = sheet.play(&lib()).unwrap();
        let b = decoded.play(&lib()).unwrap();
        prop_assert_eq!(a.total_power(), b.total_power());
    }

    /// A lumped macro reproduces its source design at any operating point.
    #[test]
    fn macro_lumping_is_exact(sheet in arb_sheet(), vdd in 0.9f64..4.5, f in 1e4f64..2e7) {
        let library = lib();
        let lumped = sheet.to_macro("macros/x", &library).unwrap();

        let mut scope = Scope::new();
        scope.set("vdd", vdd);
        scope.set("f", f);

        // Source design with vdd/f supplied externally.
        let mut bare = sheet.clone();
        let keep: Vec<(String, String)> = bare
            .globals()
            .iter()
            .filter(|(n, _)| n != "vdd" && n != "f")
            .map(|(n, e)| (n.clone(), e.to_string()))
            .collect();
        let mut stripped = Sheet::new(bare.name().to_owned());
        for (n, src) in keep {
            stripped.set_global(n, &src).unwrap();
        }
        for row in bare.rows_mut() {
            stripped.add_row(row.clone());
        }
        let direct = CompiledSheet::compile(&stripped, &library)
            .play_with(&[("vdd", vdd), ("f", f)])
            .unwrap()
            .total_power()
            .value();
        let via_macro = lumped.evaluate(&scope).unwrap().power.value();
        prop_assert!(
            (direct - via_macro).abs() <= 1e-9 * direct.max(1e-12),
            "direct {direct} vs macro {via_macro}"
        );
    }

    /// Replaying a compiled plan with overrides is indistinguishable —
    /// report for report, error for error — from cloning the sheet,
    /// mutating the globals, and pressing Play.
    #[test]
    fn compiled_play_with_equals_clone_mutate_play(
        sheet in arb_sheet(),
        overrides in arb_overrides(),
    ) {
        let library = lib();
        let plan = CompiledSheet::compile(&sheet, &library);
        let ov: Vec<(&str, f64)> = overrides.iter().map(|(n, v)| (n.as_str(), *v)).collect();
        prop_assert_eq!(plan.play_with(&ov), clone_mutate_play(&sheet, &library, &overrides));
        prop_assert_eq!(plan.play(), sheet.play(&library));
    }

    /// The equivalence holds on defective sheets too: circular globals,
    /// unknown elements, duplicate idents, and circular row powers all
    /// surface the exact same error from the compiled plan as from the
    /// engine — with and without overrides (overriding `a` can dissolve
    /// the global cycle, and both paths must agree on that as well).
    #[test]
    fn compiled_errors_match_engine_errors(
        sheet in arb_sheet(),
        defect in 0u32..4,
        overrides in arb_overrides(),
    ) {
        let library = lib();
        let mut broken = sheet.clone();
        match defect {
            0 => {
                // Circular globals.
                broken.set_global("a", "b + 1").unwrap();
                broken.set_global("b", "a * 2").unwrap();
            }
            1 => {
                // Unknown element path.
                broken.add_element_row("Ghost", "nowhere/nothing", []).unwrap();
            }
            2 => {
                // Two rows folding to the same ident.
                broken.add_element_row("Twin Row", "ucb/register", []).unwrap();
                broken.add_element_row("twin-row", "ucb/register", []).unwrap();
            }
            _ => {
                // Circular row power references.
                broken
                    .add_element_row("Loop A", "ucb/dcdc", [("p_load", "P_loop_b")])
                    .unwrap();
                broken
                    .add_element_row("Loop B", "ucb/dcdc", [("p_load", "P_loop_a")])
                    .unwrap();
            }
        }
        let plan = CompiledSheet::compile(&broken, &library);
        let ov: Vec<(&str, f64)> = overrides.iter().map(|(n, v)| (n.as_str(), *v)).collect();
        prop_assert_eq!(plan.play_with(&ov), clone_mutate_play(&broken, &library, &overrides));
        prop_assert_eq!(plan.play(), broken.play(&library));
    }

    /// The bytecode replay engine is bit-for-bit the scope-chain tree
    /// walker — report for report — for random designs with a nested
    /// sub-sheet row, a `P_` power chain, and random override sets.
    /// (`Sheet::play` and `play_with` dispatch to bytecode when a
    /// program exists, so the tree walker must be invoked explicitly.)
    #[test]
    fn bytecode_replay_matches_tree_walker(
        sheet in arb_sheet(),
        sub in arb_sheet(),
        overrides in arb_overrides(),
    ) {
        let library = lib();
        let mut sheet = sheet;
        sheet.add_subsheet_row("Subsystem", sub);
        sheet
            .add_element_row("Chained Conv", "ucb/dcdc", [("p_load", "P_row_0 * 1.25")])
            .unwrap();
        let plan = CompiledSheet::compile(&sheet, &library);
        // A program must have been lowered, or this test compares the
        // tree walker against itself.
        prop_assert!(plan.disassemble().starts_with("program:"));
        let ov: Vec<(&str, f64)> = overrides.iter().map(|(n, v)| (n.as_str(), *v)).collect();
        prop_assert_eq!(plan.play_with(&ov), plan.play_with_tree(&ov));
    }

    /// Every error class materializes from the bytecode traps exactly
    /// as the tree walker reports it: unknown variables, wrong arity,
    /// unknown functions, non-finite physical values, circular row
    /// powers, and errors buried inside sub-sheets. Overriding `ghost`
    /// appends a global that *resolves* the unknown-variable defects —
    /// the program lowered for that name set must then agree with the
    /// tree walker on the now-successful report as well.
    #[test]
    fn bytecode_errors_match_tree_walker(
        sheet in arb_sheet(),
        defect in 0u32..6,
        overrides in prop::collection::vec(
            (
                prop_oneof![
                    Just("vdd".to_owned()),
                    Just("f".to_owned()),
                    Just("ghost".to_owned()),
                ],
                0.5f64..5.0,
            ),
            0..3,
        ),
    ) {
        let library = lib();
        let mut broken = sheet;
        match defect {
            0 => {
                // Unknown variable in a binding formula.
                broken
                    .add_element_row("Ghost Var", "ucb/register", [("bits", "ghost * 2")])
                    .unwrap();
            }
            1 => {
                // Wrong arity for a builtin.
                broken
                    .add_element_row("Bad Arity", "ucb/register", [("bits", "min(4)")])
                    .unwrap();
            }
            2 => {
                // Unknown function.
                broken
                    .add_element_row("Bad Func", "ucb/register", [("bits", "mystery(4)")])
                    .unwrap();
            }
            3 => {
                // Negative switched capacitance: the element rejects the
                // non-physical value at evaluation time.
                broken
                    .add_element_row("Bad Wire", "ucb/wire", [("length_mm", "-5")])
                    .unwrap();
            }
            4 => {
                // Circular row powers (structural: no program is
                // lowered, and both paths report the cycle).
                broken
                    .add_element_row("Loop A", "ucb/dcdc", [("p_load", "P_loop_b")])
                    .unwrap();
                broken
                    .add_element_row("Loop B", "ucb/dcdc", [("p_load", "P_loop_a")])
                    .unwrap();
            }
            _ => {
                // Unknown variable two levels down.
                let mut inner = Sheet::new("inner");
                inner
                    .add_element_row("Deep Ghost", "ucb/register", [("bits", "ghost + 1")])
                    .unwrap();
                broken.add_subsheet_row("Subsystem", inner);
            }
        }
        let plan = CompiledSheet::compile(&broken, &library);
        let ov: Vec<(&str, f64)> = overrides.iter().map(|(n, v)| (n.as_str(), *v)).collect();
        prop_assert_eq!(plan.play_with(&ov), plan.play_with_tree(&ov));
    }

    /// The batched sweep kernel answers every point bit-for-bit as the
    /// tree walker would — totals, compared by their bits, and errors —
    /// chunk by chunk and end to end through the what-if pipeline.
    /// Each case sweeps every pair of a defect class above (or none) and
    /// a swept name: declared globals (`vdd`, `f`) and appended names
    /// (`ghost`, which resolves the unknown-variable defects, and the
    /// unreferenced `x_new`). A converter whose load reads `f` but no
    /// `vdd` stays outside a `vdd` sweep's slice with a baseline, and its
    /// power is computed at run time (a constant load would fold to a
    /// constant), so the lane total reads the register its baseline play
    /// wrote. An inline element reads `vdd` and `f` only through the
    /// EQ 1 template, and a second converter's load reads the first
    /// row's `P_`, so slices cross rows through both.
    #[test]
    fn batched_sweep_matches_tree_walker_per_point(
        sheet in arb_sheet(),
        values in prop::collection::vec(0.5f64..4.0, 1..20),
    ) {
        let library = lib();
        let mut sheet = sheet;
        sheet
            .add_element_row("Rate Conv", "ucb/dcdc", [("p_load", "f / 4e7")])
            .unwrap();
        sheet.add_row(Row::new("Template Only", RowModel::Inline(template_only_element())));
        sheet
            .add_element_row("Chained Conv", "ucb/dcdc", [("p_load", "P_row_0 * 1.25")])
            .unwrap();
        for defect in 0u32..14 {
            let plan = CompiledSheet::compile(&with_defect(sheet.clone(), defect), &library);
            for name in ["vdd", "f", "ghost", "x_new"] {
                let tree: Vec<_> = values
                    .iter()
                    .map(|&v| {
                        plan.play_with_tree(&[(name, v)])
                            .map(|report| report.total_power().value().to_bits())
                    })
                    .collect();

                let override_plan = plan.override_plan(&[name]);
                let mut kernel = plan.batch_kernel(&override_plan);
                let points: Vec<[f64; 1]> = values.iter().map(|&v| [v]).collect();
                let batched: Vec<_> = points
                    .chunks(BatchKernel::WIDTH)
                    .flat_map(|chunk| kernel.replay_chunk(chunk))
                    .map(|total| total.map(|p| p.value().to_bits()))
                    .collect();
                prop_assert_eq!(&batched, &tree, "defect {}, sweeping {}", defect, name);

                // The sweep answers every total, or the first error in
                // input order.
                let expected: Result<Vec<_>, _> = values
                    .iter()
                    .zip(tree)
                    .map(|(&v, played)| played.map(|total| (v, total)))
                    .collect();
                let swept = powerplay_sheet::whatif::sweep_compiled(&plan, name, &values)
                    .map(|curve| curve.into_iter().map(|(v, p)| (v, p.value().to_bits())).collect());
                prop_assert_eq!(swept, expected, "defect {}, sweeping {}", defect, name);
            }
        }
    }

    /// Doubling the global rate doubles dynamic power for rate-derived
    /// rows (the engine threads `f` correctly through bindings).
    #[test]
    fn rate_linearity_through_bindings(sheet in arb_sheet()) {
        let base = sheet.play(&lib()).unwrap().total_power().value();
        let mut faster = sheet.clone();
        let f0 = sheet.play(&lib()).unwrap().global("f").unwrap();
        faster.set_global_value("f", 2.0 * f0);
        let doubled = faster.play(&lib()).unwrap().total_power().value();
        prop_assert!((doubled / base - 2.0).abs() < 1e-9);
    }
}

/// `sheet` with one injected defect (0: none): every class the parity
/// tests above inject, global, structural and value-level, a derived
/// global, and globals that fail on a name.
fn with_defect(sheet: Sheet, defect: u32) -> Sheet {
    let mut broken = sheet;
    match defect {
        0 => {}
        1 => {
            broken.set_global("a", "b + 1").unwrap();
            broken.set_global("b", "a * 2").unwrap();
        }
        2 => {
            broken
                .add_element_row("Ghost", "nowhere/nothing", [])
                .unwrap();
        }
        3 => {
            broken
                .add_element_row("Twin Row", "ucb/register", [])
                .unwrap();
            broken
                .add_element_row("twin-row", "ucb/register", [])
                .unwrap();
        }
        4 => {
            broken
                .add_element_row("Loop A", "ucb/dcdc", [("p_load", "P_loop_b")])
                .unwrap();
            broken
                .add_element_row("Loop B", "ucb/dcdc", [("p_load", "P_loop_a")])
                .unwrap();
        }
        5 => {
            broken
                .add_element_row("Ghost Var", "ucb/register", [("bits", "ghost * 2")])
                .unwrap();
        }
        6 => {
            broken
                .add_element_row("Bad Arity", "ucb/register", [("bits", "min(4)")])
                .unwrap();
        }
        7 => {
            broken
                .add_element_row("Bad Func", "ucb/register", [("bits", "mystery(4)")])
                .unwrap();
        }
        8 => {
            broken
                .add_element_row("Bad Wire", "ucb/wire", [("length_mm", "-5")])
                .unwrap();
        }
        9 => {
            broken.set_global("k", "min(4)").unwrap();
        }
        10 => {
            // A derived global: a sweep of `f` changes it through the
            // prologue's code.
            broken.set_global("f_rf", "f / 4").unwrap();
            broken
                .add_element_row("Derived", "ucb/register", [("f", "f_rf")])
                .unwrap();
        }
        11 => {
            // A global that reads a missing name; the `ghost` sweep
            // appends it and resolves the global.
            broken.set_global("g", "ghost * 2").unwrap();
            broken
                .add_element_row("Reads G", "ucb/register", [("bits", "g")])
                .unwrap();
        }
        12 => {
            broken.set_global("h", "mystery(2)").unwrap();
        }
        _ => {
            let mut inner = Sheet::new("inner");
            inner
                .add_element_row("Deep Ghost", "ucb/register", [("bits", "ghost + 1")])
                .unwrap();
            broken.add_subsheet_row("Subsystem", inner);
        }
    }
    broken
}

/// An inline element whose formulas never name `vdd` or `f`, so it
/// reads both only through the EQ 1 template.
fn template_only_element() -> LibraryElement {
    LibraryElement::new(
        "inline/template_only",
        ElementClass::Computation,
        "Reads vdd and f only through EQ 1.",
        vec![ParamDecl::new("bits", 8.0, "bit-width")],
        ElementModel {
            cap_full: Some(Expr::parse("bits * 1p").unwrap()),
            static_current: Some(Expr::parse("1u").unwrap()),
            ..ElementModel::default()
        },
    )
}

/// A three-row sheet where the `duty` global feeds exactly one row,
/// whose power feeds a converter.
fn chained_sheet() -> Sheet {
    let mut sheet = Sheet::new("chained");
    sheet.set_global_value("vdd", 1.5);
    sheet.set_global_value("f", 1e6);
    sheet.set_global_value("duty", 0.5);
    sheet
        .add_element_row("Load", "ucb/register", [("bits", "16")])
        .unwrap();
    sheet
        .add_element_row("Amp", "ucb/dcdc", [("p_load", "duty * 2")])
        .unwrap();
    sheet
        .add_element_row("Conv", "ucb/dcdc", [("p_load", "P_amp + P_load")])
        .unwrap();
    sheet
}

#[test]
fn sub_sheet_plan_plays_through_its_own_program() {
    let library = lib();
    let mut inner = Sheet::new("inner");
    inner.set_global_value("scale", 2.0);
    inner
        .add_element_row(
            "Core",
            "ucb/multiplier",
            [("bw_a", "8"), ("bw_b", "scale * 4")],
        )
        .unwrap();
    let mut outer = chained_sheet();
    outer.add_subsheet_row("Sub", inner);
    let plan = CompiledSheet::compile(&outer, &library);
    let rows = plan.rows_view().unwrap();
    let sub = rows
        .iter()
        .find_map(|row| match row.kind() {
            RowKindView::SubSheet(sub) => Some(sub),
            _ => None,
        })
        .expect("a sub-sheet row");

    // On its own the sub-sheet has no operating point (an error), and
    // with one appended it plays; both through programs it lowers on
    // demand, both as the tree walker answers.
    assert!(sub.play().is_err());
    assert_eq!(sub.play(), sub.play_with_tree(&[]));
    let point = [("vdd", 1.5), ("f", 2e6)];
    assert!(sub.play_with(&point).is_ok());
    assert_eq!(sub.play_with(&point), sub.play_with_tree(&point));
    assert!(sub.disassemble().starts_with("program:"));
}
