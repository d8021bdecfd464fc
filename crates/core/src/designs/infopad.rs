//! The InfoPad portable multimedia terminal (paper Figure 5).
//!
//! The system-level case study: seven subsystems spanning digital custom
//! hardware, an RF radio, LCD panels, an embedded processor, analog
//! support electronics and commodity I/O, fed through 80%-efficient DC-DC
//! converters whose dissipation is a formula over the other rows' powers
//! (EQ 19 intermodel interaction). The measured total in Figure 5 is
//! ≈ 10.9 W; the subsystem values here are calibrated to reproduce that
//! breakdown (see `EXPERIMENTS.md`).

use powerplay_library::Registry;
use powerplay_sheet::{CompiledSheet, Sheet};

use super::luminance::{self, LuminanceArch};

/// Builds the full InfoPad system sheet.
///
/// The "Custom Hardware" row is a *sub-sheet* containing the luminance
/// decoder of Figure 3 (hyperlinked in the web view, exactly as the paper
/// describes: "the luminance chip discussed earlier is a subcircuit of
/// the custom hardware subsection"), plus its chrominance companions and
/// a video controller.
///
/// ```
/// use powerplay::designs::infopad;
/// use powerplay::PowerPlay;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let pp = PowerPlay::new();
/// let report = pp.play(&infopad::sheet())?;
/// let total = report.total_power().value();
/// assert!((9.0..12.0).contains(&total), "InfoPad totals ~10.9 W");
/// # Ok(())
/// # }
/// ```
pub fn sheet() -> Sheet {
    let mut system = Sheet::new("InfoPad System");
    system.set_global("vdd", "1.5").expect("literal parses");
    system.set_global("f", "2MHz").expect("literal parses");
    // Transmit duty cycle as a system knob: turning it reaches exactly
    // the radio row (and the converters fed by it), so a sweep of it
    // runs a small slice of the program.
    // (Deliberately not named `duty_tx` — a global shadowed by an
    // element parameter default would never reach the model.)
    system
        .set_global("radio_duty", "0.5")
        .expect("literal parses");

    // --- Custom Hardware: the low-power chipset, as nested sub-designs.
    let mut custom = Sheet::new("Custom Hardware");
    {
        // The luminance decoder of Figure 3 (its own vdd/f come from the
        // sub-sheet globals we strip so the system's apply).
        let mut luminance_sub = luminance::sheet(LuminanceArch::GroupedLut);
        let keep: Vec<(String, String)> = luminance_sub
            .globals()
            .iter()
            .filter(|(n, _)| n != "vdd" && n != "f")
            .map(|(n, e)| (n.clone(), e.to_string()))
            .collect();
        let mut stripped = Sheet::new("Luminance Chip");
        for (n, src) in keep {
            stripped.set_global(n, &src).expect("reparse");
        }
        for row in luminance_sub.rows_mut() {
            stripped.add_row(row.clone());
        }
        custom.add_subsheet_row("Luminance Chip", stripped.clone());
        // Two chrominance channels decode at half resolution: half the
        // pixel rate of the luminance chip.
        let mut chroma = stripped;
        custom
            .add_subsheet_row("Chrominance Chips", {
                let mut s = Sheet::new("Chrominance Chips");
                for row in chroma.rows_mut() {
                    s.add_row(row.clone());
                }
                s
            })
            .bind("f", "f / 2")
            .expect("binding parses");
        custom
            .add_element_row(
                "Video Controller",
                "ucb/ctrl_rom",
                [("n_i", "8"), ("n_o", "16")],
            )
            .expect("bindings parse");
    }
    system.add_subsheet_row("Custom Hardware", custom);

    // --- Radio subsystem: TX/RX duty-cycled transceiver.
    system
        .add_element_row(
            "Radio Subsystem",
            "ucb/radio",
            [("p_tx", "3.0"), ("p_rx", "0.7"), ("duty_tx", "radio_duty")],
        )
        .expect("bindings parse");

    // --- Display: two LCD panels, power from measurement.
    system
        .add_element_row(
            "Display LCDs",
            "ucb/lcd_display",
            [("p_panel", "2.23"), ("n_panels", "2")],
        )
        .expect("bindings parse");

    // --- Embedded processor subsystem (EQ 11 duty-cycle model).
    system
        .add_element_row(
            "Processor Subsystem",
            "ucb/processor_avg",
            [("p_avg", "1.72"), ("duty", "0.5")],
        )
        .expect("bindings parse");

    // --- Support electronics: analog/glue, data-sheet numbers.
    system
        .add_element_row("Support Electronics", "ucb/io_device", [("p_avg", "0.75")])
        .expect("bindings parse");

    // --- Other I/O devices (pen, speech codec, speaker).
    system
        .add_element_row("Other IO Devices", "ucb/io_device", [("p_avg", "0.80")])
        .expect("bindings parse");

    // --- Voltage converters: EQ 19 over the connected modules' powers.
    system
        .add_element_row(
            "Voltage Converters",
            "ucb/dcdc",
            [
                (
                    "p_load",
                    "P_custom_hardware + P_radio_subsystem + P_display_lcds \
                     + P_processor_subsystem + P_support_electronics \
                     + P_other_io_devices",
                ),
                ("eta", "0.8"),
            ],
        )
        .expect("bindings parse");

    system
}

/// The InfoPad system, compiled against `registry` — the sweep and
/// Monte-Carlo workloads replay this plan instead of re-deriving the
/// whole hierarchy (nested sub-sheets included) per point.
pub fn compiled(registry: &Registry) -> CompiledSheet {
    CompiledSheet::compile(&sheet(), registry)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PowerPlay;

    #[test]
    fn total_matches_figure5() {
        let pp = PowerPlay::new();
        let report = pp.play(&sheet()).unwrap();
        let total = report.total_power().value();
        assert!(
            (10.0..11.5).contains(&total),
            "expected ~10.9 W, got {total:.2} W"
        );
    }

    #[test]
    fn converters_dissipate_a_quarter_of_the_load() {
        // eta = 0.8 -> P_diss = load/4; converter row must equal exactly
        // 20% of the system total (diss = total - load, load = 0.8 total).
        let pp = PowerPlay::new();
        let report = pp.play(&sheet()).unwrap();
        let conv = report.row("Voltage Converters").unwrap().power().value();
        let total = report.total_power().value();
        let load = total - conv;
        assert!((conv - load * 0.25).abs() < 1e-9);
    }

    #[test]
    fn display_dominates_the_breakdown() {
        // The classic InfoPad result: the display path, not computation,
        // is the major consumer.
        let pp = PowerPlay::new();
        let report = pp.play(&sheet()).unwrap();
        let breakdown = report.breakdown();
        assert_eq!(breakdown[0].0, "Display LCDs");
        // Custom hardware is a negligible slice (the low-power chipset).
        let custom = report.row("Custom Hardware").unwrap().power().value();
        assert!(
            custom < 0.01 * report.total_power().value(),
            "custom hardware should be <1% of the system"
        );
    }

    #[test]
    fn custom_hardware_drills_down_to_the_luminance_chip() {
        let pp = PowerPlay::new();
        let report = pp.play(&sheet()).unwrap();
        let custom = report.row("Custom Hardware").unwrap();
        let sub = custom.sub_report().expect("custom hardware is a sub-sheet");
        let luminance = sub.row("Luminance Chip").expect("nested row");
        // The Figure 3 decoder runs at the system's globals: ~150 uW.
        let uw = luminance.power().value() * 1e6;
        assert!((100.0..200.0).contains(&uw), "luminance at {uw:.0} uW");
        // And the chrominance row decodes at half rate -> less power.
        let chroma = sub.row("Chrominance Chips").unwrap();
        assert!(chroma.power() < luminance.power());
    }

    #[test]
    fn compiled_replay_matches_full_play() {
        // The acceptance sheet for the compiled engine: replaying the
        // plan (with and without overrides) is bit-identical to the
        // clone-mutate-play path through the full hierarchy.
        let pp = PowerPlay::new();
        let plan = compiled(pp.registry());
        assert_eq!(plan.play().unwrap(), pp.play(&sheet()).unwrap());
        let mut hot = sheet();
        hot.set_global_value("vdd", 3.0);
        assert_eq!(
            plan.play_with(&[("vdd", 3.0)]).unwrap(),
            pp.play(&hot).unwrap()
        );
    }

    #[test]
    fn radio_duty_sweep_matches_play_with() {
        // The knob that reaches only the radio row and the converters
        // fed by its power: a sweep of it runs that slice of the
        // program, and every total is a full play's, bit for bit.
        let pp = PowerPlay::new();
        let plan = compiled(pp.registry());
        let values = [0.1, 0.25, 0.5, 0.9];
        let curve = powerplay_sheet::whatif::sweep_compiled(&plan, "radio_duty", &values).unwrap();
        for (duty, total) in curve {
            let played = plan.play_with(&[("radio_duty", duty)]).unwrap();
            assert_eq!(
                total.value().to_bits(),
                played.total_power().value().to_bits(),
                "radio_duty = {duty}"
            );
        }
    }

    #[test]
    fn mixed_supply_subsystems_coexist() {
        // Changing the digital supply reprices the custom hardware but
        // leaves data-sheet rows (LCD, radio, IO) untouched.
        let pp = PowerPlay::new();
        let base = pp.play(&sheet()).unwrap();
        let mut hot = sheet();
        hot.set_global("vdd", "3.0").unwrap();
        let scaled = pp.play(&hot).unwrap();
        let lcd_base = base.row("Display LCDs").unwrap().power();
        let lcd_scaled = scaled.row("Display LCDs").unwrap().power();
        assert_eq!(lcd_base, lcd_scaled);
        let custom_base = base.row("Custom Hardware").unwrap().power();
        let custom_scaled = scaled.row("Custom Hardware").unwrap().power();
        assert!((custom_scaled / custom_base - 4.0).abs() < 1e-9);
    }
}
