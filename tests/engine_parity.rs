//! One evaluator in production: every play, sweep, Monte-Carlo trial,
//! appended-global play and delta replay runs the sheet's register
//! program, and on every shipped design each of them must equal the
//! scope-chain tree walker (`CompiledSheet::play_with_tree`), the
//! oracle, bit for bit. Totals are compared by their bits, because f64
//! `==` cannot tell +0.0 from −0.0. The analyzer must order globals
//! exactly as the engine does, so both report the same error first, and
//! a bound-pruned sweep must play exactly what an unconstrained sweep
//! plays.
//!
//! The ignored tests are timing gates, meaningful only in release:
//! `cargo test --release --test engine_parity -- --ignored`.

use std::time::{Duration, Instant};

use powerplay_analysis::{
    analyze_with_ranges, sweep_constrained, Interval, PointOutcome, PowerConstraint,
};
use powerplay_json::Json;
use powerplay_library::builtin::ucb_library;
use powerplay_sheet::{whatif, CompiledSheet, EvaluateSheetError, ReplayState, Sheet, SheetReport};
use powerplay_units::Power;
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
    let values: Vec<f64> = (0..64).map(|i| 1.0 + 0.05 * f64::from(i)).collect();
    for name in DESIGNS {
        let plan = load_plan(name);
        let curve = whatif::sweep_compiled(&plan, "vdd", &values)
            .unwrap_or_else(|e| panic!("{name}: sweep failed: {e}"));
        assert_eq!(curve.len(), values.len(), "{name}");
        for (value, total) in curve {
            assert_eq!(
                Ok(bits(total)),
                total_bits(plan.play_with_tree(&[("vdd", value)])),
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

#[test]
fn monte_carlo_matches_the_tree_walker_per_trial() {
    // `monte_carlo`'s draw, replayed: one factor per present global per
    // trial from one seeded stream; `absent` is not a global and draws
    // nothing.
    let (rel, trials, seed) = (0.2, 100, 1996);
    let globals = ["vdd", "f", "radio_duty", "absent"];
    let registry = ucb_library();
    for name in DESIGNS {
        let sheet = load_sheet(name);
        let plan = CompiledSheet::compile(&sheet, &registry);
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

        let mc = whatif::monte_carlo(&sheet, &registry, &globals, rel, trials, seed)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let got: Vec<u64> = mc.samples.iter().map(|p| p.to_bits()).collect();
        let want: Vec<u64> = expected.iter().map(|p| p.to_bits()).collect();
        assert_eq!(got, want, "{name}");
    }
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
