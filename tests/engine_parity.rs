//! One evaluator in production: every play, sweep, Monte-Carlo trial,
//! sensitivity probe and appended-global play runs the sheet's register
//! program, and on every shipped design each of them must equal the
//! scope-chain tree walker (`CompiledSheet::play_with_tree`), the
//! oracle, bit for bit. Totals are compared by their bits, because f64
//! `==` cannot tell +0.0 from −0.0. So must every study over a row that
//! reads `vdd` and `f` only through the EQ 1 template, which no formula
//! of the row names. The analyzer must order globals exactly as the
//! engine does, so both report the same error first, and a bound-pruned
//! sweep must play exactly what an unconstrained sweep plays.
//!
//! A plan compiled from the previous revision's plan must answer as a
//! fresh compile of the edited sheet does, listing for listing and bit
//! for bit, over seeded edit sequences.
//!
//! The ignored tests are timing gates, meaningful only in release:
//! `cargo test --release --test engine_parity -- --ignored`.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use powerplay_analysis::{
    analyze, analyze_with_ranges, sweep_constrained, Direction, Interval, PointOutcome,
    PowerConstraint,
};
use powerplay_expr::Expr;
use powerplay_json::Json;
use powerplay_library::builtin::ucb_library;
use powerplay_library::{ElementClass, ElementModel, LibraryElement, ParamDecl, Registry};
use powerplay_sheet::{
    whatif, CompiledSheet, EvaluateSheetError, Row, RowKindView, RowModel, Sheet, SheetReport,
};
use powerplay_units::{Power, Voltage};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const DESIGNS: &[&str] = &["infopad", "luminance_direct_lut", "luminance_grouped_lut"];

fn load_sheet(name: &str) -> Sheet {
    let path = format!(
        "{}/examples/designs/{name}.json",
        env!("CARGO_MANIFEST_DIR")
    );
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    let json = Json::parse(&text).unwrap_or_else(|e| panic!("parse {name}: {e}"));
    Sheet::from_json(&json).unwrap_or_else(|e| panic!("decode {name}: {e}"))
}

fn load_plan(name: &str) -> CompiledSheet {
    CompiledSheet::compile(&load_sheet(name), &ucb_library())
}

/// A play's total by its bits, or its error.
fn total_bits(played: Result<SheetReport, EvaluateSheetError>) -> Result<u64, EvaluateSheetError> {
    played.map(|report| report.total_power().value().to_bits())
}

fn bits(total: Power) -> u64 {
    total.value().to_bits()
}

#[test]
fn play_matches_the_tree_walker() {
    for name in DESIGNS {
        let plan = load_plan(name);
        let played = plan.play();
        assert!(played.is_ok(), "{name}: {played:?}");
        assert_eq!(played, plan.play_with_tree(&[]), "{name}");
    }
}

#[test]
fn vdd_sweep_matches_the_tree_walker_per_point() {
    // 64 points fill eight chunks; 1, 7, 9 and 17 leave a short final
    // chunk whose spare lanes repeat its last point.
    for len in [64u32, 1, 7, 9, 17] {
        let values: Vec<f64> = (0..len).map(|i| 1.0 + 0.05 * f64::from(i)).collect();
        for name in DESIGNS {
            let plan = load_plan(name);
            let curve = whatif::sweep_compiled(&plan, "vdd", &values)
                .unwrap_or_else(|e| panic!("{name}: sweep failed: {e}"));
            assert_eq!(curve.len(), values.len(), "{name}");
            for (value, total) in curve {
                assert_eq!(
                    Ok(bits(total)),
                    total_bits(plan.play_with_tree(&[("vdd", value)])),
                    "{name} at vdd = {value} in a {len}-point sweep"
                );
            }
        }
    }
}

/// The instruction lines of a `disassemble()` listing, without their
/// program counters, and the instruction count its header states.
fn listing_code(listing: &str) -> (usize, Vec<&str>) {
    let header = listing.lines().next().expect("a header line");
    let count = header
        .strip_prefix("program: ")
        .and_then(|rest| rest.split(' ').next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("bad header {header:?}"));
    let code = listing
        .lines()
        .skip_while(|line| *line != "code:")
        .skip(1)
        .map(|line| line.trim_start().split_once("  ").expect("pc, then code").1)
        .collect();
    (count, code)
}

#[test]
fn programs_compute_each_value_once() {
    for name in DESIGNS {
        let listing = load_plan(name).disassemble();
        let (count, code) = listing_code(&listing);
        assert_eq!(count, code.len(), "{name}");
        // A pure instruction reads `rD = op(operands)`; its right-hand
        // side names the operation and every operand register.
        let mut seen = std::collections::BTreeSet::new();
        for line in &code {
            if let Some((_, value)) = line.split_once(" = ") {
                assert!(seen.insert(value), "{name}: `{value}` computed twice");
            }
            // A constant operand lists as `rN=value`.
            if let Some(rest) = line.strip_prefix("check ") {
                let operand = rest.split(' ').next().expect("an operand");
                assert!(!operand.contains('='), "{name}: `{line}` checks a constant");
            }
        }
        assert!(!seen.is_empty(), "{name}: no pure instruction listed");
    }
    let (count, _) = listing_code(&load_plan("infopad").disassemble());
    assert!(count <= 138, "InfoPad lowers to {count} instructions");
}

/// A report's row powers and total, by their bits.
fn report_bits(
    played: Result<SheetReport, EvaluateSheetError>,
) -> Result<Vec<u64>, EvaluateSheetError> {
    played.map(|report| {
        let mut out: Vec<u64> = report.rows().iter().map(|row| bits(row.power())).collect();
        out.push(bits(report.total_power()));
        out
    })
}

#[test]
fn a_dirty_row_reads_the_values_a_clean_row_computed() {
    // Both rows compute `(vdd - vt)^2`, so the program computes it once,
    // in the first row's span. Only the second row reads `k`: a sweep of
    // `k` runs a slice of the second row's code, which reads that value
    // from the baseline's registers.
    let mut sheet = Sheet::new("shared");
    for (global, value) in [("vdd", "1.5"), ("vt", "0.4"), ("k", "2"), ("f", "2MHz")] {
        sheet.set_global(global, value).unwrap();
    }
    sheet
        .add_element_row("A", "ucb/register", [("bits", "8 * (vdd - vt)^2")])
        .unwrap();
    let pows = |sheet: &Sheet| {
        let listing = CompiledSheet::compile(sheet, &ucb_library()).disassemble();
        listing.matches("Pow(").count()
    };
    let alone = pows(&sheet);
    sheet
        .add_element_row("B", "ucb/register", [("bits", "k + 4 * (vdd - vt)^2")])
        .unwrap();
    assert_eq!(pows(&sheet), alone, "the second row adds no `Pow`");
    let plan = CompiledSheet::compile(&sheet, &ucb_library());

    let values: Vec<f64> = (0..11).map(|i| 1.0 + f64::from(i)).collect();
    let curve = whatif::sweep_compiled(&plan, "k", &values).unwrap();
    for (value, total) in curve {
        assert_eq!(
            Ok(bits(total)),
            total_bits(plan.play_with_tree(&[("k", value)])),
            "k = {value}"
        );
    }
}

#[test]
fn play_that_appends_a_global_matches_the_tree_walker() {
    for name in DESIGNS {
        let plan = load_plan(name);
        let overrides = [("vdd", 2.5), ("x_new", 3.0)];
        let played = plan.play_with(&overrides);
        assert_eq!(
            played.as_ref().ok().and_then(|r| r.global("x_new")),
            Some(3.0),
            "{name}: {played:?}"
        );
        assert_eq!(played, plan.play_with_tree(&overrides), "{name}");
    }
}

/// Central differences of `play_with_tree` totals, computed as
/// `whatif::sensitivities_compiled` computes them from its own totals:
/// ±1% of each nonzero global. Keyed by global, by their bits.
fn tree_sensitivities(plan: &CompiledSheet) -> BTreeMap<String, u64> {
    let base = plan.play_with_tree(&[]).unwrap();
    let p0 = base.total_power().value();
    let total = |name: &str, x: f64| {
        let played = plan.play_with_tree(&[(name, x)]);
        played.unwrap().total_power().value()
    };
    base.globals()
        .iter()
        .filter(|(_, value)| *value != 0.0 && p0 != 0.0)
        .map(|(name, value)| {
            let h = 0.01 * value;
            let dp_dx = (total(name, value + h) - total(name, value - h)) / (2.0 * h);
            (name.clone(), (dp_dx * value / p0).to_bits())
        })
        .collect()
}

fn sensitivity_bits(plan: &CompiledSheet) -> BTreeMap<String, u64> {
    let sens = whatif::sensitivities_compiled(plan).unwrap();
    sens.into_iter()
        .map(|(name, s)| (name, s.to_bits()))
        .collect()
}

#[test]
fn sensitivities_match_central_differences_of_the_tree_walker() {
    for name in DESIGNS {
        let plan = load_plan(name);
        assert_eq!(sensitivity_bits(&plan), tree_sensitivities(&plan), "{name}");
    }
}

#[test]
fn analyzer_reports_the_global_error_a_play_reports() {
    // A cycle (b, c) declared before a self-reference (a): the engine
    // reports the self-reference first, and so must the analyzer when a
    // range override is in play.
    let mut sheet = Sheet::new("precedence");
    sheet.set_global("b", "c + 1").unwrap();
    sheet.set_global("c", "b + 1").unwrap();
    sheet.set_global("a", "a * 2").unwrap();
    sheet.set_global("d", "1.0").unwrap();
    sheet.set_global("vdd", "1.5").unwrap();
    sheet.set_global("f", "2MHz").unwrap();
    sheet
        .add_element_row("Reg", "ucb/register", [("bits", "16")])
        .unwrap();
    let plan = CompiledSheet::compile(&sheet, &ucb_library());

    let played = plan.play_with(&[("d", 1.0)]).unwrap_err();
    assert_eq!(played.to_string(), "circular global definitions: a");
    let analyzed =
        analyze_with_ranges(&plan, &[("d".to_owned(), Interval::new(0.5, 2.0))]).unwrap_err();
    assert_eq!(analyzed, played);
}

#[test]
fn analyzer_reports_the_row_error_a_play_reports() {
    // With no `vdd` in scope, the play fails first on the unknown name in
    // `cap_full`, before the template asks for an operating point.
    let mut sheet = Sheet::new("row-error");
    sheet.set_global("f", "2MHz").unwrap();
    let element = inline_element(
        "inline/bad",
        vec![],
        ElementModel {
            cap_full: Some(Expr::parse("mystery * 1e-12").unwrap()),
            ..ElementModel::default()
        },
    );
    sheet.add_row(Row::new("Bad", RowModel::Inline(element)));
    let plan = CompiledSheet::compile(&sheet, &ucb_library());

    let played = plan.play().unwrap_err();
    assert_eq!(
        played.to_string(),
        "row `Bad`: error in `cap_full` formula: unknown variable `mystery`"
    );
    assert_eq!(analyze(&plan).unwrap_err(), played);
}

#[test]
fn area_references_carry_the_area_monotonicity() {
    // X's power is constant but its area falls as `vdd` rises; Y burns
    // ten times X's area, so the total falls with `vdd` too.
    let mut sheet = Sheet::new("area-coupling");
    sheet.set_global("vdd", "2").unwrap();
    let x = inline_element(
        "inline/x",
        vec![
            ParamDecl::new("p", 0.0, "power"),
            ParamDecl::new("a", 0.0, "area"),
        ],
        ElementModel {
            power_direct: Some(Expr::parse("p").unwrap()),
            area: Some(Expr::parse("a").unwrap()),
            ..ElementModel::default()
        },
    );
    let row = sheet.add_row(Row::new("X", RowModel::Inline(x)));
    row.bind("p", "1").unwrap();
    row.bind("a", "4 - vdd").unwrap();
    let y = inline_element(
        "inline/y",
        vec![ParamDecl::new("load", 0.0, "power")],
        ElementModel {
            power_direct: Some(Expr::parse("load").unwrap()),
            ..ElementModel::default()
        },
    );
    let row = sheet.add_row(Row::new("Y", RowModel::Inline(y)));
    row.bind("load", "A_x * 10").unwrap();
    let plan = CompiledSheet::compile(&sheet, &ucb_library());

    let total = |vdd: f64| plan.play_with(&[("vdd", vdd)]).unwrap().total_power();
    assert_eq!(total(1.0), Power::new(31.0));
    assert_eq!(total(3.0), Power::new(11.0));
    let bounds =
        analyze_with_ranges(&plan, &[("vdd".to_owned(), Interval::new(1.0, 3.0))]).unwrap();
    let vdd = bounds.monotone.iter().find(|m| m.name == "vdd").unwrap();
    assert_eq!(vdd.direction, Direction::Decreasing);
    for v in [1.0, 2.0, 3.0] {
        assert!(bounds.total_power.contains(total(v).value()));
    }
}

/// An inline computation element with `params` and `model`.
fn inline_element(name: &str, params: Vec<ParamDecl>, model: ElementModel) -> LibraryElement {
    LibraryElement::new(name, ElementClass::Computation, "Inline.", params, model)
}

#[test]
fn constrained_sweep_prunes_soundly_and_plays_bit_identically() {
    // 64 supply points under a budget that keeps only the decoder's
    // low-power half, so the analyzer can prove the upper segments out
    // without replaying them.
    let plan = load_plan("luminance_grouped_lut");
    let points: Vec<f64> = (0..64).map(|i| 1.0 + 0.036 * f64::from(i)).collect();
    let budget = plan.play_with(&[("vdd", 2.0)]).unwrap().total_power();
    let constraint = PowerConstraint::at_most(budget.value());

    let sweep = sweep_constrained(&plan, "vdd", &points, &constraint).unwrap();
    let full = whatif::sweep_compiled(&plan, "vdd", &points).unwrap();
    assert_eq!(sweep.outcomes.len(), full.len());
    assert!(
        sweep.pruned * 10 >= points.len(),
        "expected >= 10% of {} points pruned, got {}",
        points.len(),
        sweep.pruned
    );
    for ((value, outcome), (full_value, full_total)) in sweep.outcomes.iter().zip(&full) {
        assert_eq!(value, full_value);
        let concrete = full_total.value();
        match outcome {
            PointOutcome::Played(total) => {
                assert_eq!(bits(*total), bits(*full_total), "vdd = {value}");
            }
            PointOutcome::Pruned(proof) => {
                assert!(
                    !constraint.admits(concrete),
                    "pruned vdd = {value} admits {concrete} W"
                );
                assert!(
                    proof.contains(concrete),
                    "proof {proof:?} misses {concrete} W at vdd = {value}"
                );
            }
        }
    }
}

/// Asserts that `monte_carlo` over `globals` samples exactly the
/// tree walker's totals: its draw, replayed, is one factor per present
/// global per trial from one seeded stream, and a name that is not a
/// global draws nothing.
fn assert_monte_carlo_matches_the_tree_walker(
    sheet: &Sheet,
    registry: &Registry,
    globals: &[&str],
) {
    let (rel, trials, seed) = (0.2, 100, 1996);
    let plan = CompiledSheet::compile(sheet, registry);
    let name = sheet.name();
    let base = plan.play().unwrap_or_else(|e| panic!("{name}: {e}"));
    let present: Vec<(&str, f64)> = globals
        .iter()
        .filter_map(|g| base.global(g).map(|value| (*g, value)))
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut expected: Vec<f64> = (0..trials)
        .map(|_| {
            let overrides: Vec<(&str, f64)> = present
                .iter()
                .map(|&(global, value)| {
                    let factor: f64 = rng.gen_range(1.0 - rel..1.0 + rel);
                    (global, value * factor)
                })
                .collect();
            let played = plan.play_with_tree(&overrides);
            played
                .unwrap_or_else(|e| panic!("{name}: {e}"))
                .total_power()
                .value()
        })
        .collect();
    expected.sort_by(f64::total_cmp);

    let mc = whatif::monte_carlo(sheet, registry, globals, rel, trials, seed)
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    let got: Vec<u64> = mc.samples.iter().map(|p| p.to_bits()).collect();
    let want: Vec<u64> = expected.iter().map(|p| p.to_bits()).collect();
    assert_eq!(got, want, "{name}");
}

#[test]
fn monte_carlo_matches_the_tree_walker_per_trial() {
    // `vdd` listed twice draws twice, and its later draw wins.
    let globals = ["vdd", "f", "radio_duty", "absent", "vdd"];
    for name in DESIGNS {
        assert_monte_carlo_matches_the_tree_walker(&load_sheet(name), &ucb_library(), &globals);
    }
}

/// `vdd` = 1.5 and `f` = 2 MHz, an inline element whose formulas never
/// name `vdd` or `f` (`cap_full = bits * 1p`, `static_current = 1u`, no
/// delay), so it reads both only through the EQ 1 template, and a
/// `ucb/multiplier` beside it.
fn template_only_sheet() -> Sheet {
    let mut sheet = Sheet::new("template-only");
    sheet.set_global("vdd", "1.5").unwrap();
    sheet.set_global("f", "2MHz").unwrap();
    let element = LibraryElement::new(
        "inline/template_only",
        ElementClass::Computation,
        "Reads vdd and f only through EQ 1.",
        vec![ParamDecl::new("bits", 8.0, "bit-width")],
        ElementModel {
            cap_full: Some(Expr::parse("bits * 1p").unwrap()),
            static_current: Some(Expr::parse("1u").unwrap()),
            ..ElementModel::default()
        },
    );
    sheet.add_row(Row::new("Inline", RowModel::Inline(element)));
    sheet.add_element_row("Mult", "ucb/multiplier", []).unwrap();
    sheet
}

#[test]
fn sweeps_reach_rows_that_read_vdd_only_through_the_template() {
    let plan = CompiledSheet::compile(&template_only_sheet(), &ucb_library());
    for (global, values) in [("vdd", [1.0, 2.0, 3.0]), ("f", [1e6, 2e6, 4e6])] {
        let curve = whatif::sweep_compiled(&plan, global, &values).unwrap();
        for (value, total) in curve {
            assert_eq!(
                Ok(bits(total)),
                total_bits(plan.play_with_tree(&[(global, value)])),
                "{global} = {value}"
            );
        }
    }

    // A bound-pruned sweep plays the survivors through the same kernel.
    let points: Vec<f64> = (0..16).map(|i| 1.0 + 0.125 * f64::from(i)).collect();
    let budget = plan.play_with_tree(&[("vdd", 2.0)]).unwrap().total_power();
    let constraint = PowerConstraint::at_most(budget.value());
    let sweep = sweep_constrained(&plan, "vdd", &points, &constraint).unwrap();
    assert!(sweep.played > 0, "nothing played");
    for (value, outcome) in &sweep.outcomes {
        let tree = plan
            .play_with_tree(&[("vdd", *value)])
            .unwrap()
            .total_power();
        match outcome {
            PointOutcome::Played(total) => assert_eq!(bits(*total), bits(tree), "vdd = {value}"),
            PointOutcome::Pruned(proof) => {
                assert!(!constraint.admits(tree.value()), "vdd = {value}");
                assert!(proof.contains(tree.value()), "vdd = {value}");
            }
        }
    }
}

#[test]
fn monte_carlo_reaches_rows_that_read_vdd_only_through_the_template() {
    assert_monte_carlo_matches_the_tree_walker(&template_only_sheet(), &ucb_library(), &["vdd"]);
}

#[test]
fn sensitivities_and_min_vdd_reach_rows_that_read_vdd_only_through_the_template() {
    let sheet = template_only_sheet();
    let registry = ucb_library();
    let plan = CompiledSheet::compile(&sheet, &registry);
    assert_eq!(sensitivity_bits(&plan), tree_sensitivities(&plan));

    let (vdd, report) =
        whatif::min_vdd_meeting_timing(&sheet, &registry, Voltage::new(0.75), Voltage::new(3.3))
            .unwrap()
            .expect("2 MHz timing is reachable");
    assert_eq!(
        report_bits(Ok(report)),
        report_bits(plan.play_with_tree(&[("vdd", vdd.value())])),
        "at vdd = {vdd}"
    );
}

/// `vdd` = 1.5 and `f` = 2 MHz, the derived `f_rf = f / 4` bound as a
/// register's `f`, and the alias `v_io = vdd` bound as a multiplier's
/// `vdd`: rows that read a swept global only through another global.
fn derived_globals_sheet() -> Sheet {
    let mut sheet = Sheet::new("derived");
    for (global, formula) in [
        ("vdd", "1.5"),
        ("f", "2MHz"),
        ("f_rf", "f / 4"),
        ("v_io", "vdd"),
    ] {
        sheet.set_global(global, formula).unwrap();
    }
    sheet
        .add_element_row("Reg", "ucb/register", [("f", "f_rf")])
        .unwrap();
    sheet
        .add_element_row("IO", "ucb/multiplier", [("vdd", "v_io")])
        .unwrap();
    sheet
}

#[test]
fn studies_reach_rows_through_derived_globals() {
    let sheet = derived_globals_sheet();
    let registry = ucb_library();
    let plan = CompiledSheet::compile(&sheet, &registry);
    for (global, values) in [("f", [1e6, 2e6, 4e6, 8e6]), ("vdd", [1.0, 1.5, 2.5, 3.3])] {
        let curve = whatif::sweep_compiled(&plan, global, &values).unwrap();
        for (value, total) in curve {
            assert_eq!(
                Ok(bits(total)),
                total_bits(plan.play_with_tree(&[(global, value)])),
                "{global} = {value}"
            );
        }
    }
    assert_monte_carlo_matches_the_tree_walker(&sheet, &registry, &["vdd", "f"]);
    assert_eq!(sensitivity_bits(&plan), tree_sensitivities(&plan));
}

#[test]
fn empty_sub_sheet_totals_as_the_tree_walker_does() {
    // An empty sub-sheet totals −0.0 in the report, so `1 / P_s` is
    // −inf and the wire's capacitance goes negative. The program must
    // fold from the same identity and fail the same way.
    let mut sheet = Sheet::new("empty-sub");
    sheet.set_global("vdd", "1.5").unwrap();
    sheet.set_global("f", "2MHz").unwrap();
    sheet.add_subsheet_row("S", Sheet::new("nothing"));
    sheet
        .add_element_row("W", "ucb/wire", [("length_mm", "min(1, 1/P_s)")])
        .unwrap();
    let plan = CompiledSheet::compile(&sheet, &ucb_library());

    let tree = plan.play_with_tree(&[]);
    let err = tree.clone().expect_err("the oracle rejects the wire");
    assert!(err.to_string().contains("cap_full"), "{err}");
    assert_eq!(plan.play(), tree);
    let swept = whatif::sweep_compiled(&plan, "vdd", &[1.5]).map(|curve| bits(curve[0].1));
    assert_eq!(swept, total_bits(tree));

    // Without the wire the sheet plays, and its total is −0.0 both ways.
    let mut lone = Sheet::new("lone-sub");
    lone.set_global("vdd", "1.5").unwrap();
    lone.add_subsheet_row("S", Sheet::new("nothing"));
    let plan = CompiledSheet::compile(&lone, &ucb_library());
    let want = total_bits(plan.play_with_tree(&[]));
    assert_eq!(want, Ok((-0.0f64).to_bits()));
    assert_eq!(total_bits(plan.play()), want);
    let swept = whatif::sweep_compiled(&plan, "vdd", &[1.5]).map(|curve| bits(curve[0].1));
    assert_eq!(swept, want);
}

#[test]
fn analyzer_bounds_an_empty_sub_sheet_total_at_negative_zero() {
    // The analyzer folds totals from the engine's identity, so an empty
    // sub-sheet is bounded at exactly the −0.0 every play totals.
    let mut lone = Sheet::new("lone-sub");
    lone.set_global("vdd", "1.5").unwrap();
    lone.add_subsheet_row("S", Sheet::new("nothing"));
    let plan = CompiledSheet::compile(&lone, &ucb_library());
    let played = plan.play().unwrap().total_power();
    assert_eq!(bits(played), (-0.0f64).to_bits());
    let bounds = analyze(&plan).unwrap();
    let total = bounds.total_power;
    assert_eq!(
        (total.lo.to_bits(), total.hi.to_bits()),
        (bits(played), bits(played)),
        "{total:?}"
    );

    // Beside a wire whose length reads `1/P_s`, the denominator's range
    // is that same −0.0. Interval division by a zero-width interval at
    // zero stays conservative, so the wire keeps a finite bound.
    let mut wired = lone;
    wired.set_global("f", "2MHz").unwrap();
    wired
        .add_element_row("W", "ucb/wire", [("length_mm", "min(1, 1/P_s)")])
        .unwrap();
    let bounds = analyze(&CompiledSheet::compile(&wired, &ucb_library())).unwrap();
    let notes = bounds.diagnostics.render_text();
    assert!(
        notes.contains("W114") && notes.contains("(range [-0, -0])"),
        "{notes}"
    );
    let wire = &bounds.rows[1].power;
    assert_eq!(wire.lo, 0.0, "{wire:?}");
    assert!(wire.hi > 0.0 && wire.hi.is_finite(), "{wire:?}");
}

#[test]
fn an_empty_sub_sheet_row_prints_a_zero_share() {
    let mut sheet = Sheet::new("shares");
    sheet.set_global("vdd", "1.5").unwrap();
    sheet.set_global("f", "2MHz").unwrap();
    sheet.add_subsheet_row("S", Sheet::new("nothing"));
    sheet
        .add_element_row("Reg", "ucb/register", [("bits", "16")])
        .unwrap();
    let report = CompiledSheet::compile(&sheet, &ucb_library())
        .play()
        .unwrap();
    assert_eq!(bits(report.rows()[0].power()), (-0.0f64).to_bits());
    let table = report.to_string();
    let line = table
        .lines()
        .find(|line| line.starts_with(">S "))
        .unwrap_or_else(|| panic!("no sub-sheet line in\n{table}"));
    assert!(line.ends_with(" 0.0%"), "{line}");
    assert!(!table.contains("-0.0%"), "{table}");
}

/// A design of sub-sheet tiles: copies of the shipped designs whose
/// rows read the top-level `vdd`, `f` and `radio_duty`, as the
/// benchmark's tiled designs do.
fn tiled_sheet() -> Sheet {
    let mut sheet = Sheet::new("tiled");
    sheet.set_global("vdd", "1.5").unwrap();
    sheet.set_global("f", "2MHz").unwrap();
    sheet.set_global("radio_duty", "0.5").unwrap();
    for (t, name) in DESIGNS.iter().cycle().take(6).enumerate() {
        let mut json = load_sheet(name).to_json();
        json.set("globals", Json::array([]));
        let tile = Sheet::from_json(&json).unwrap();
        sheet.add_subsheet_row(&format!("T{t} {name}"), tile);
    }
    sheet
}

/// The sub-sheet plans of a compiled sheet's top-level rows, by row: a
/// row shared with another plan holds the very same sub-plan.
fn sub_plans(plan: &CompiledSheet) -> Vec<Option<&CompiledSheet>> {
    plan.rows_view()
        .iter()
        .map(|row| match row.kind() {
            RowKindView::SubSheet(sub) => Some(sub),
            _ => None,
        })
        .collect()
}

/// How many top-level sub-sheet rows `plan` shares with `prev`.
fn shared_sub_sheets(plan: &CompiledSheet, prev: &CompiledSheet) -> usize {
    let prev_subs = sub_plans(prev);
    sub_plans(plan)
        .into_iter()
        .flatten()
        .filter(|sub| prev_subs.iter().flatten().any(|p| std::ptr::eq(*p, *sub)))
        .count()
}

/// A sweep's totals by their bits, or its error.
fn sweep_bits(plan: &CompiledSheet, values: &[f64]) -> Result<Vec<u64>, EvaluateSheetError> {
    whatif::sweep_compiled(plan, "vdd", values)
        .map(|curve| curve.into_iter().map(|(_, total)| bits(total)).collect())
}

/// `reused`, compiled from an earlier plan, answers exactly as `fresh`,
/// a fresh compile of the same sheet: the same listing, plays (one of
/// them appending a name) and 16-point `vdd` sweep by bits, and the
/// tree walker's answers.
fn assert_same_answers(reused: &CompiledSheet, fresh: &CompiledSheet, what: &str) {
    assert_eq!(reused.disassemble(), fresh.disassemble(), "{what}");
    let played = reused.play();
    assert_eq!(
        report_bits(played.clone()),
        report_bits(fresh.play()),
        "{what}"
    );
    assert_eq!(played, fresh.play(), "{what}");
    assert_eq!(
        report_bits(played),
        report_bits(reused.play_with_tree(&[])),
        "{what}"
    );
    for overrides in [&[("vdd", 2.5)][..], &[("vdd", 2.5), ("x_new", 3.0)]] {
        let played = reused.play_with(overrides);
        assert_eq!(
            report_bits(played.clone()),
            report_bits(fresh.play_with(overrides)),
            "{what} with {overrides:?}"
        );
        assert_eq!(
            played,
            fresh.play_with(overrides),
            "{what} with {overrides:?}"
        );
        assert_eq!(
            report_bits(played),
            report_bits(reused.play_with_tree(overrides)),
            "{what} with {overrides:?}"
        );
    }
    let values: Vec<f64> = (0..16).map(|i| 1.0 + 0.1 * f64::from(i)).collect();
    assert_eq!(
        sweep_bits(reused, &values),
        sweep_bits(fresh, &values),
        "{what}"
    );
}

/// The top-level rows, or the rows of a random sub-sheet row when
/// `inside` and there is one.
fn pick_rows<'a>(sheet: &'a mut Sheet, rng: &mut StdRng, inside: bool) -> &'a mut [Row] {
    let subs: Vec<usize> = (0..sheet.rows().len())
        .filter(|&i| matches!(sheet.rows()[i].model(), RowModel::SubSheet(_)))
        .collect();
    if !inside || subs.is_empty() {
        return sheet.rows_mut();
    }
    let i = subs[rng.gen_range(0..subs.len())];
    match sheet.rows_mut()[i].model_mut() {
        RowModel::SubSheet(sub) => sub.rows_mut(),
        _ => unreachable!("picked a sub-sheet row"),
    }
}

/// The sheet with the `key` list (`rows` or `globals`) of its JSON
/// document edited by `f`: rows and globals have no rename in the API.
fn edit_json(sheet: &Sheet, key: &str, f: impl FnOnce(&mut [Json])) -> Sheet {
    let mut json = sheet.to_json();
    let mut items = json.get(key).and_then(Json::as_array).unwrap().to_vec();
    f(&mut items);
    json.set(key, Json::Array(items));
    Sheet::from_json(&json).unwrap()
}

/// One seeded edit of `sheet`, described for the failure message.
fn random_edit(sheet: &mut Sheet, rng: &mut StdRng) -> String {
    const ELEMENTS: &[(&str, &str)] = &[
        ("ucb/register", "bits"),
        ("ucb/multiplier", "bw_a"),
        ("ucb/sram", "words"),
        ("ucb/dcdc", "p_load"),
    ];
    let n = sheet.rows().len();
    let number = |rng: &mut StdRng| match rng.gen_range(0..8) {
        0 => "0".to_owned(),
        1 => "-1".to_owned(),
        _ => format!("{}", rng.gen_range(1..64)),
    };
    match rng.gen_range(0..11) {
        // A numeric binding, at the top level or inside a sub-sheet.
        kind @ (0 | 1) => {
            let value = number(rng);
            let rows = pick_rows(sheet, rng, kind == 1);
            let with: Vec<usize> = (0..rows.len())
                .filter(|&i| !rows[i].bindings().is_empty())
                .collect();
            if with.is_empty() {
                return "no binding to change".to_owned();
            }
            let row = &mut rows[with[rng.gen_range(0..with.len())]];
            let param = row.bindings()[rng.gen_range(0..row.bindings().len())]
                .0
                .clone();
            row.bind(param.as_str(), &value).unwrap();
            format!("bind {}.{param} = {value}", row.name())
        }
        // A global formula.
        2 => {
            let names: Vec<String> = sheet.globals().iter().map(|(g, _)| g.clone()).collect();
            let name = names[rng.gen_range(0..names.len())].clone();
            let formula = match rng.gen_range(0..3) {
                0 => format!("{}", 1.0 + f64::from(rng.gen_range(0..30)) / 10.0),
                1 => format!("{} * 1.1", names[rng.gen_range(0..names.len())]),
                _ => "x_new + 1".to_owned(),
            };
            sheet.set_global(name.as_str(), &formula).unwrap();
            format!("global {name} = {formula}")
        }
        // A new row.
        3 => {
            let (element, param) = ELEMENTS[rng.gen_range(0..ELEMENTS.len())];
            let name = format!("New {}", rng.gen_range(0..1000));
            let value = number(rng);
            sheet
                .add_element_row(&name, element, [(param, value.as_str())])
                .unwrap();
            format!("add {name} ({element})")
        }
        4 if n > 1 => {
            let name = sheet.rows()[rng.gen_range(0..n)].name().to_owned();
            sheet.remove_row(&name);
            format!("remove {name}")
        }
        5 if n > 1 => {
            let (i, j) = (rng.gen_range(0..n), rng.gen_range(0..n));
            sheet.rows_mut().swap(i, j);
            format!("swap rows {i} and {j}")
        }
        6 if n > 0 => {
            let i = rng.gen_range(0..n);
            let name = format!("Renamed {}", rng.gen_range(0..1000));
            *sheet = edit_json(sheet, "rows", |rows| {
                rows[i].set("name", Json::from(name.as_str()));
            });
            format!("rename row {i} to {name}")
        }
        // A new `P_` reference, sometimes closing a cycle.
        7 if n > 1 => {
            let (i, j) = (rng.gen_range(0..n), rng.gen_range(0..n));
            let ident = |sheet: &Sheet, k: usize| sheet.rows()[k].ident();
            let (to_j, to_i) = (ident(sheet, j), ident(sheet, i));
            sheet.rows_mut()[i]
                .bind("p_load", &format!("P_{to_j} * 0.1"))
                .unwrap();
            if rng.gen_range(0..2) == 0 {
                sheet.rows_mut()[j]
                    .bind("p_load", &format!("P_{to_i} * 0.1"))
                    .unwrap();
                return format!("P_ cycle between rows {i} and {j}");
            }
            format!("row {i} reads P_{to_j}")
        }
        // An element path the registry does not know.
        8 => {
            let rows = pick_rows(sheet, rng, true);
            let k = rng.gen_range(0..rows.len().max(1));
            match rows.get_mut(k).map(Row::model_mut) {
                Some(model @ RowModel::Element(_)) => {
                    *model = RowModel::Element("ucb/no_such_element".to_owned());
                    format!("row {k} names an unknown element")
                }
                _ => "no element row to break".to_owned(),
            }
        }
        // A global renamed away: lookups that found it now miss.
        9 => {
            let g = rng.gen_range(0..sheet.globals().len());
            let old = sheet.globals()[g].0.clone();
            *sheet = edit_json(sheet, "globals", |globals| {
                globals[g].set("name", Json::from(format!("{old}_old").as_str()));
            });
            format!("rename global {old} away")
        }
        _ => {
            let name = format!("g{}", rng.gen_range(0..3));
            sheet.set_global(name.as_str(), "2").unwrap();
            format!("add global {name}")
        }
    }
}

/// Plays a seeded edit sequence on `sheet`, compiling each revision
/// from the previous revision's plan, and checks every revision against
/// a fresh compile.
fn check_edit_sequence(mut sheet: Sheet, seed: u64, edits: usize) {
    let library = ucb_library();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut prev = CompiledSheet::compile(&sheet, &library);
    let mut log = Vec::new();
    for _ in 0..edits {
        log.push(random_edit(&mut sheet, &mut rng));
        let what = format!("{} after {log:?} (seed {seed})", sheet.name());
        let reused = CompiledSheet::compile_from(Some(&prev), &sheet, &library);
        let fresh = CompiledSheet::compile(&sheet, &library);
        assert_same_answers(&reused, &fresh, &what);
        prev = reused;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn compiles_from_the_previous_revision_answer_as_fresh_compiles(seed in any::<u64>()) {
        for name in DESIGNS {
            check_edit_sequence(load_sheet(name), seed, 8);
        }
        check_edit_sequence(tiled_sheet(), seed, 8);
    }
}

#[test]
fn a_leaf_edit_shares_every_other_tile() {
    let library = ucb_library();
    let sheet = tiled_sheet();
    let prev = CompiledSheet::compile(&sheet, &library);
    let mut edited = sheet.clone();
    let RowModel::SubSheet(tile) = edited.rows_mut()[2].model_mut() else {
        panic!("tiles are sub-sheets");
    };
    tile.rows_mut()[0].bind("words", "1024").unwrap();
    let reused = CompiledSheet::compile_from(Some(&prev), &edited, &library);
    assert_eq!(shared_sub_sheets(&reused, &prev), 5);
    assert_same_answers(
        &reused,
        &CompiledSheet::compile(&edited, &library),
        "leaf edit",
    );

    // A global formula is not part of any row: every tile is shared.
    let mut edited = sheet.clone();
    edited.set_global("vdd", "1.2").unwrap();
    let reused = CompiledSheet::compile_from(Some(&prev), &edited, &library);
    assert_eq!(shared_sub_sheets(&reused, &prev), 6);
    assert_same_answers(
        &reused,
        &CompiledSheet::compile(&edited, &library),
        "global edit",
    );
}

#[test]
fn a_plan_of_another_registry_generation_shares_nothing() {
    let library = ucb_library();
    let sheet = tiled_sheet();
    let prev = CompiledSheet::compile(&sheet, &library);
    let mut extended = library.clone();
    extended.insert(LibraryElement::new(
        "custom/probe",
        ElementClass::Computation,
        "",
        vec![],
        ElementModel::default(),
    ));
    assert_ne!(extended.generation(), library.generation());
    let reused = CompiledSheet::compile_from(Some(&prev), &sheet, &extended);
    assert_eq!(shared_sub_sheets(&reused, &prev), 0);
    assert_same_answers(
        &reused,
        &CompiledSheet::compile(&sheet, &extended),
        "another generation",
    );
}

#[test]
fn a_signed_zero_edit_recompiles_its_row() {
    // `0.0 == -0.0`, but `1 / g` is +inf for one and -inf for the other,
    // and the failing check reports which.
    let mut inner = Sheet::new("inner");
    inner.set_global_value("g", 0.0);
    inner
        .add_element_row("W", "ucb/wire", [("length_mm", "1 / g")])
        .unwrap();
    let mut sheet = Sheet::new("signed");
    sheet.set_global("vdd", "1.5").unwrap();
    sheet.set_global("f", "2MHz").unwrap();
    sheet.add_subsheet_row("S", inner.clone());
    let library = ucb_library();
    let prev = CompiledSheet::compile(&sheet, &library);
    inner.set_global_value("g", -0.0);
    let mut edited = Sheet::new("signed");
    edited.set_global("vdd", "1.5").unwrap();
    edited.set_global("f", "2MHz").unwrap();
    edited.add_subsheet_row("S", inner);
    let reused = CompiledSheet::compile_from(Some(&prev), &edited, &library);
    assert_eq!(shared_sub_sheets(&reused, &prev), 0);
    assert_ne!(reused.play(), prev.play());
    assert_same_answers(
        &reused,
        &CompiledSheet::compile(&edited, &library),
        "signed zero",
    );
}

/// Calls `play` in a loop for 300 ms, after a 30 ms warm-up, and
/// returns calls per second.
fn plays_per_sec(mut play: impl FnMut()) -> f64 {
    let budget = Duration::from_millis(300);
    let warmup = Instant::now();
    while warmup.elapsed() < budget / 10 {
        play();
    }
    let start = Instant::now();
    let mut plays = 0u32;
    while start.elapsed() < budget {
        play();
        plays += 1;
    }
    f64::from(plays) / start.elapsed().as_secs_f64()
}

#[test]
#[ignore = "timing gate; run in release with --ignored"]
fn bytecode_plays_at_least_as_fast_as_the_tree_walker() {
    let plan = load_plan("infopad");
    let overrides = [("vdd", 1.1)];
    let tree = plays_per_sec(|| {
        std::hint::black_box(plan.play_with_tree(&overrides).unwrap().total_power());
    });
    let bytecode = plays_per_sec(|| {
        std::hint::black_box(plan.play_with(&overrides).unwrap().total_power());
    });
    println!("InfoPad plays/s: tree walk {tree:.0}, bytecode {bytecode:.0}");
    assert!(
        bytecode >= tree,
        "bytecode replay ({bytecode:.0}/s) slower than the tree walker ({tree:.0}/s)"
    );
}

#[test]
#[ignore = "timing gate; run in release with --ignored"]
fn batched_sweep_outpaces_scalar_plays() {
    let values: Vec<f64> = (0..64).map(|i| 1.0 + 0.05 * f64::from(i)).collect();
    let points = values.len() as f64;
    for name in DESIGNS {
        let plan = load_plan(name);
        let scalar = points
            * plays_per_sec(|| {
                for &vdd in &values {
                    std::hint::black_box(plan.play_with(&[("vdd", vdd)]).unwrap().total_power());
                }
            });
        let batched = points
            * plays_per_sec(|| {
                std::hint::black_box(whatif::sweep_compiled(&plan, "vdd", &values).unwrap());
            });
        println!("{name} points/s: scalar plays {scalar:.0}, batched sweep {batched:.0}");
        assert!(
            batched >= scalar,
            "{name}: batched sweep ({batched:.0} points/s) slower than scalar plays ({scalar:.0}/s)"
        );
    }
}
