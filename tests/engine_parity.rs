//! One evaluator in production: every play, sweep, appended-global play
//! and delta replay runs the sheet's register program, and on every
//! shipped design each of them must equal the scope-chain tree walker
//! (`CompiledSheet::play_with_tree`), the oracle, bit for bit. The
//! analyzer must order globals exactly as the engine does, so both
//! report the same error first.

use powerplay_analysis::{analyze_with_ranges, Interval};
use powerplay_json::Json;
use powerplay_library::builtin::ucb_library;
use powerplay_sheet::{whatif, CompiledSheet, ReplayState, Sheet};

const DESIGNS: &[&str] = &["infopad", "luminance_direct_lut", "luminance_grouped_lut"];

fn load_plan(name: &str) -> CompiledSheet {
    let path = format!(
        "{}/examples/designs/{name}.json",
        env!("CARGO_MANIFEST_DIR")
    );
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    let json = Json::parse(&text).unwrap_or_else(|e| panic!("parse {name}: {e}"));
    let sheet = Sheet::from_json(&json).unwrap_or_else(|e| panic!("decode {name}: {e}"));
    CompiledSheet::compile(&sheet, &ucb_library())
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
    let values: Vec<f64> = (0..16).map(|i| 0.9 + 0.16 * f64::from(i)).collect();
    for name in DESIGNS {
        let plan = load_plan(name);
        let curve = whatif::sweep_compiled(&plan, "vdd", &values)
            .unwrap_or_else(|e| panic!("{name}: sweep failed: {e}"));
        assert_eq!(curve.len(), values.len(), "{name}");
        for (value, report) in curve {
            assert_eq!(
                Ok(report),
                plan.play_with_tree(&[("vdd", value)]),
                "{name} at vdd = {value}"
            );
        }
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

#[test]
fn delta_replay_sequence_matches_the_tree_walker() {
    for name in DESIGNS {
        let plan = load_plan(name);
        let base = plan.play().unwrap_or_else(|e| panic!("{name}: {e}"));
        // Nudge each declared global in turn, repeat the point (a memo
        // hit), then append a global (its own program) and return to
        // the base program.
        let mut sequence: Vec<Vec<(&str, f64)>> = vec![Vec::new()];
        for (global, value) in base.globals() {
            sequence.push(vec![(global.as_str(), value * 1.25)]);
            sequence.push(vec![(global.as_str(), value * 1.25)]);
        }
        sequence.push(vec![("x_new", 1.0)]);
        sequence.push(Vec::new());

        let mut state = ReplayState::new();
        for overrides in &sequence {
            assert_eq!(
                plan.replay_delta(&mut state, overrides),
                plan.play_with_tree(overrides),
                "{name} with {overrides:?}"
            );
        }
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
