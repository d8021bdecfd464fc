//! Quickstart: estimate a small datapath in a few lines.
//!
//! Builds a design sheet the way the paper's user would through the
//! browser — pick library elements, set parameters, press *Play* — and
//! prints the Figure 2-style spreadsheet, then turns the vdd knob and
//! prints the Figure 4 multiplier excerpt across bit-widths.
//!
//! Run with: `cargo run --example quickstart`

use powerplay::designs::luminance::{self, LuminanceArch};
use powerplay::{whatif, PowerPlay, Scope, Sheet};
use powerplay_units::format;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let pp = PowerPlay::new();

    // A design from scratch: an 8x8 MAC at 1.5 V / 2 MHz.
    let mut mac = Sheet::new("Multiply-Accumulate");
    mac.set_global("vdd", "1.5")?;
    mac.set_global("f", "2MHz")?;
    mac.add_element_row(
        "Multiplier",
        "ucb/multiplier",
        [("bw_a", "8"), ("bw_b", "8")],
    )?;
    mac.add_element_row("Accumulator", "ucb/ripple_adder", [("bits", "16")])?;
    mac.add_element_row("Result Register", "ucb/register", [("bits", "16")])?;
    println!("{}", pp.play(&mac)?);

    // What-if: the supply knob (quadratic) and the rate knob (linear).
    println!("vdd sweep:");
    for (vdd, total) in whatif::sweep_global(&mac, pp.registry(), "vdd", &[1.1, 1.5, 2.5, 3.3])? {
        println!("  vdd = {vdd:>4} V -> {total}");
    }

    // Figure 4: the multiplier form's result excerpt, both input classes.
    println!("\nFigure 4 multiplier at 1.5 V / 2 MHz:");
    println!(
        "{:<10} {:<14} {:>16} {:>14}",
        "bitwidths", "inputs", "C switched", "power"
    );
    for (element, label) in [
        ("ucb/multiplier", "uncorrelated"),
        ("ucb/multiplier_correlated", "correlated"),
    ] {
        let mult = pp.registry().get(element).expect("builtin element");
        for bw in [4u32, 8, 12, 16, 24, 32] {
            let mut scope = Scope::new();
            scope.set("vdd", 1.5);
            scope.set("f", 2e6);
            scope.set("bw_a", f64::from(bw));
            scope.set("bw_b", f64::from(bw));
            let eval = mult.evaluate(&scope)?;
            let energy = eval.energy_per_op.expect("capacitive model");
            println!(
                "{:<10} {:<14} {:>16} {:>14}",
                format!("{bw}x{bw}"),
                label,
                format::eng(energy.value() / (1.5 * 1.5), "F"),
                eval.power.to_string(),
            );
        }
    }
    println!("(paper: C_T = bitwidthA * bitwidthB * 253 fF for uncorrelated inputs)");

    // The paper's own example ships with the crate:
    let decoder = luminance::sheet(LuminanceArch::GroupedLut);
    println!("\n{}", pp.play(&decoder)?);
    Ok(())
}
