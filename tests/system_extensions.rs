//! System-level extensions beyond the paper's figures but inside its
//! program: battery-life budgeting for the portable terminal and the
//! architecture-driven voltage-scaling (parallelism) trade that motivated
//! the low-power chipset in the first place.

use powerplay::designs::infopad;
use powerplay::designs::luminance::{sheet, LuminanceArch};
use powerplay::{whatif, PowerPlay, Sheet};
use powerplay_models::battery::Battery;
use powerplay_models::scaling::{DelayScaling, ParallelismTradeoff};
use powerplay_units::{Capacitance, Frequency, Time, Voltage};

#[test]
fn infopad_battery_life_budget() {
    // Close the loop the paper opens: the InfoPad's ~10.9 W budget on an
    // InfoPad-era 30 Wh pack runs < 3 hours, and hitting a 4-hour target
    // means shaving ~30% of system power.
    let pp = PowerPlay::new();
    let system_power = pp.play(&infopad::sheet()).unwrap().total_power();
    let pack = Battery::new_wh(30.0).with_discharge_efficiency(0.9);

    let runtime_h = pack.runtime(system_power).value() / 3600.0;
    assert!((2.0..3.0).contains(&runtime_h), "runtime {runtime_h:.2} h");

    let budget = pack.power_budget(Time::new(4.0 * 3600.0));
    assert!(budget < system_power);
    let required_saving = 1.0 - budget / system_power;
    assert!(
        (0.2..0.5).contains(&required_saving),
        "required saving {required_saving:.2}"
    );
}

#[test]
fn display_dominates_battery_sensitivity() {
    // Halving the display power buys more runtime than eliminating the
    // custom hardware entirely — "a great deal of effort ... on a part of
    // the system that consumes only a small percentage".
    let pp = PowerPlay::new();
    let pack = Battery::new_wh(30.0);
    let base = pp.play(&infopad::sheet()).unwrap();

    let mut dimmer = infopad::sheet();
    dimmer
        .row_mut("Display LCDs")
        .unwrap()
        .bind("p_panel", "1.115")
        .unwrap();
    let dim_power = pp.play(&dimmer).unwrap().total_power();

    let mut no_custom = infopad::sheet();
    no_custom.remove_row("Custom Hardware").unwrap();
    // The converter row references P_custom_hardware; rebind the load.
    no_custom
        .row_mut("Voltage Converters")
        .unwrap()
        .bind(
            "p_load",
            "P_radio_subsystem + P_display_lcds + P_processor_subsystem \
             + P_support_electronics + P_other_io_devices",
        )
        .unwrap();
    let no_custom_power = pp.play(&no_custom).unwrap().total_power();

    let base_rt = pack.runtime(base.total_power()).value();
    let dim_rt = pack.runtime(dim_power).value();
    let no_custom_rt = pack.runtime(no_custom_power).value();
    assert!(dim_rt > base_rt * 1.2, "dimming must buy >20% runtime");
    assert!(
        no_custom_rt - base_rt < base_rt * 0.001,
        "removing the chipset buys almost nothing"
    );
}

#[test]
fn parallelism_tradeoff_on_the_decoder_datapath() {
    // The Chandrakasan play behind the 1.5 V luminance chip: relax
    // per-unit timing with parallel units, drop the supply quadratically.
    let pp = PowerPlay::new();
    let report = pp.play(&sheet(LuminanceArch::GroupedLut)).unwrap();
    // Effective per-operation capacitance of the whole decoder at the
    // global rate (total energy per pixel cycle).
    let cap = Capacitance::new(report.total_power().value() / (1.5 * 1.5 * 2e6));

    let trade = ParallelismTradeoff {
        delay: DelayScaling::cmos_1_2um(),
        cap_per_op: cap,
        overhead_per_way: 0.25,
        vdd_max: Voltage::new(5.0),
    };

    // At a demanding aggregate rate (say a 4x-resolution display,
    // 32 MHz), serial needs a high supply while modest parallelism wins.
    let target = Frequency::new(32e6);
    let serial = trade.power_at(1, target).expect("feasible at 5 V");
    let (best_n, best_power) = trade.optimal(8, target).unwrap();
    assert!(best_n >= 2, "parallelism must pay at 32 MHz");
    assert!(
        serial / best_power > 1.5,
        "expected >1.5x saving, got {:.2}x",
        serial / best_power
    );

    // At the paper's own 2 MHz rate the supply is already near the
    // floor, so parallelism only adds overhead.
    let (n_easy, _) = trade.optimal(8, Frequency::new(2e6)).unwrap();
    assert_eq!(n_easy, 1);
}

#[test]
fn voltage_scaling_and_battery_compose() {
    // End-to-end: scale the decoder's supply to the timing floor, then
    // ask what that does to a (hypothetical) decoder-only budget.
    let pp = PowerPlay::new();
    let decoder = sheet(LuminanceArch::GroupedLut);
    let (p_nominal, p_scaled, vdd) =
        whatif::voltage_scaling_gain(&decoder, pp.registry(), Voltage::new(1.5))
            .unwrap()
            .expect("2 MHz reachable");
    assert!(vdd.value() < 1.0);
    assert!(p_scaled.value() < p_nominal.value() * 0.5);

    let coin_cell = Battery::new_wh(0.9); // ~CR2477
    let before = coin_cell.runtime(p_nominal).value();
    let after = coin_cell.runtime(p_scaled).value();
    assert!(after / before > 2.0);
    // A sub-50-uW decoder runs for years on a coin cell.
    assert!(after > 2.0 * 365.0 * 24.0 * 3600.0, "runtime {after} s");
}

#[test]
fn battery_power_budget_is_reachable_by_design_changes() {
    // Use the sweep machinery to find a display setting that meets a
    // 3.5-hour target (the 4-hour target of
    // `infopad_battery_life_budget` needs deeper cuts than the display
    // alone can provide — itself an informative budgeting result).
    let pp = PowerPlay::new();
    let pack = Battery::new_wh(30.0).with_discharge_efficiency(0.9);
    let budget = pack.power_budget(Time::new(3.5 * 3600.0));

    let mut candidate = None;
    for p_panel in [2.23, 1.8, 1.4, 1.0, 0.7] {
        let mut variant = infopad::sheet();
        variant
            .row_mut("Display LCDs")
            .unwrap()
            .bind("p_panel", &p_panel.to_string())
            .unwrap();
        let power = pp.play(&variant).unwrap().total_power();
        if power <= budget {
            candidate = Some((p_panel, power));
            break;
        }
    }
    let (p_panel, power) = candidate.expect("some display setting meets the budget");
    assert!(p_panel < 2.23);
    assert!(power <= budget);
}

/// One register row at an absurd supply: its switched energy overflows
/// to infinity, so the play succeeds with a non-finite total.
fn overflowing_register(f: &str) -> Sheet {
    let mut sheet = Sheet::new("overflow");
    sheet.set_global("vdd", "1e200").unwrap();
    sheet.set_global("f", f).unwrap();
    sheet
        .add_element_row("Reg", "ucb/register", [("bits", "16")])
        .unwrap();
    sheet
}

#[test]
fn sensitivities_of_an_infinite_total_do_not_panic() {
    let pp = PowerPlay::new();
    let sheet = overflowing_register("2MHz");
    let total = pp.play(&sheet).unwrap().total_power().value();
    assert_eq!(total, f64::INFINITY);
    // inf - inf: both sensitivities are NaN, and ranking them must not
    // panic.
    let sens = whatif::sensitivities(&sheet, pp.registry()).unwrap();
    assert_eq!(sens.len(), 2);
    assert!(sens.iter().all(|(_, s)| s.is_nan()), "{sens:?}");
}

#[test]
fn monte_carlo_over_nan_totals_does_not_panic() {
    let pp = PowerPlay::new();
    let sheet = overflowing_register("0");
    // Infinite energy at zero rate: every total is NaN.
    let total = pp.play(&sheet).unwrap().total_power().value();
    assert!(total.is_nan());
    let mc = whatif::monte_carlo(&sheet, pp.registry(), &["vdd"], 0.1, 16, 7).unwrap();
    assert_eq!(mc.samples.len(), 16);
    assert!(mc.samples.iter().all(|p| p.is_nan()));
}
