//! Every shipped example design must analyze cleanly: zero
//! error-severity diagnostics, finite proven bounds, and bounds that
//! bracket both a live play and the design's recorded reference total
//! power.

use powerplay_analysis::{analyze, analyze_with_ranges, Interval};
use powerplay_json::Json;
use powerplay_library::builtin::ucb_library;
use powerplay_sheet::{CompiledSheet, Sheet};

const DESIGNS: &[&str] = &["infopad", "luminance_direct_lut", "luminance_grouped_lut"];

fn repo_path(rel: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(rel)
}

fn load_plan(name: &str) -> CompiledSheet {
    let path = repo_path(&format!("examples/designs/{name}.json"));
    let text =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    let json = Json::parse(&text).unwrap_or_else(|e| panic!("parse {name}: {e}"));
    let sheet = Sheet::from_json(&json).unwrap_or_else(|e| panic!("decode {name}: {e}"));
    CompiledSheet::compile(&sheet, &ucb_library())
}

/// Each design's total power in watts, in shortest round-trip form, so a
/// model regression shows up as a bit-level diff against a live play.
fn reference_power(name: &str) -> f64 {
    match name {
        "infopad" => 10.900274049578124,
        "luminance_direct_lut" => 0.0007068071250000001,
        "luminance_grouped_lut" => 0.00013901737500000003,
        _ => panic!("no reference power for {name}"),
    }
}

#[test]
fn example_designs_analyze_clean_with_finite_bounds() {
    for name in DESIGNS {
        let plan = load_plan(name);
        let bounds = analyze(&plan).unwrap_or_else(|e| panic!("{name}: analysis failed: {e}"));
        assert!(
            !bounds.has_errors(),
            "{name}: analysis reported errors:\n{}",
            bounds.diagnostics.render_text()
        );
        assert!(!bounds.may_fail, "{name}: analysis marked may_fail");
        assert!(
            bounds.total_power.is_finite(),
            "{name}: total power bound not finite: {:?}",
            bounds.total_power
        );
        assert!(
            !bounds.total_power.nan,
            "{name}: NaN reachable in total power"
        );
        for row in &bounds.rows {
            assert!(
                row.power.is_finite() && !row.power.nan,
                "{name}/{}: row power bound not finite: {:?}",
                row.name,
                row.power
            );
        }
    }
}

#[test]
fn bounds_bracket_live_play_and_recorded_reference() {
    for name in DESIGNS {
        let plan = load_plan(name);
        let bounds = analyze(&plan).unwrap_or_else(|e| panic!("{name}: analysis failed: {e}"));
        let live = plan
            .play()
            .unwrap_or_else(|e| panic!("{name}: play failed: {e}"))
            .total_power()
            .value();
        assert!(
            bounds.total_power.contains(live),
            "{name}: live total {live} outside proven {:?}",
            bounds.total_power
        );
        let reference = reference_power(name);
        assert!(
            bounds.total_power.contains(reference),
            "{name}: recorded reference {reference} outside proven {:?}",
            bounds.total_power
        );
        // The reference must match a live play bit for bit.
        assert_eq!(
            live, reference,
            "{name}: recorded reference drifted from live play"
        );
    }
}

#[test]
fn vdd_ranged_bounds_bracket_sampled_plays() {
    for name in DESIGNS {
        let plan = load_plan(name);
        let ranges = vec![("vdd".to_string(), Interval::new(1.0, 3.3))];
        let bounds = analyze_with_ranges(&plan, &ranges)
            .unwrap_or_else(|e| panic!("{name}: ranged analysis failed: {e}"));
        assert!(
            !bounds.has_errors(),
            "{name}: ranged analysis reported errors:\n{}",
            bounds.diagnostics.render_text()
        );
        for vdd in [1.0, 1.5, 2.2, 3.3] {
            let report = plan
                .play_with(&[("vdd", vdd)])
                .unwrap_or_else(|e| panic!("{name}: play at vdd={vdd} failed: {e}"));
            let total = report.total_power().value();
            assert!(
                bounds.total_power.contains(total),
                "{name}: play at vdd={vdd} gave {total}, outside {:?}",
                bounds.total_power
            );
        }
    }
}
