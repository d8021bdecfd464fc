//! Design-space exploration: supply sweeps, timing-constrained voltage
//! scaling, architecture-driven voltage scaling by parallelism, macro
//! lumping and re-use — the "spreadsheet playground" workflows of the
//! paper, driven programmatically.
//!
//! Run with: `cargo run --example explore`

use powerplay::designs::luminance::{self, LuminanceArch};
use powerplay::{whatif, Capacitance, Frequency, PowerPlay, Row, RowModel, Sheet, Voltage};
use powerplay_models::scaling::{DelayScaling, ParallelismTradeoff};

fn bar(width_units: f64) -> String {
    "#".repeat(width_units.round().max(0.0) as usize)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut pp = PowerPlay::new();
    let decoder = luminance::sheet(LuminanceArch::GroupedLut);

    // --- Supply sweep (EQ 1: quadratic for this full-rail design).
    println!("power vs supply for the Figure 3 decoder:");
    let vdds: Vec<f64> = (0..10).map(|i| 1.0 + 0.25 * i as f64).collect();
    let curve = whatif::sweep_global(&decoder, pp.registry(), "vdd", &vdds)?;
    for (vdd, total) in &curve {
        let uw = total.value() * 1e6;
        println!("  {vdd:>5.2} V | {:<40} {uw:7.1} uW", bar(uw / 15.0));
    }

    // --- Timing-constrained minimum supply (the low-power play).
    match whatif::min_vdd_meeting_timing(
        &decoder,
        pp.registry(),
        Voltage::new(0.75),
        Voltage::new(3.3),
    )? {
        Some((vdd, report)) => println!(
            "\nlowest supply meeting 2 MHz timing: {:.2} V -> {}",
            vdd.value(),
            report.total_power(),
        ),
        None => println!("\ntiming unreachable in the allowed supply range"),
    }

    // --- Sensitivities: which knob matters?
    println!("\nsensitivities (relative):");
    for (name, s) in whatif::sensitivities(&decoder, pp.registry())? {
        println!("  {name:<6} {s:+.3}");
    }

    // --- Parallelism at fixed throughput: replicate the decoder
    // datapath, relax each unit's timing, drop the supply.
    let trade = ParallelismTradeoff {
        delay: DelayScaling::cmos_1_2um(),
        cap_per_op: Capacitance::new(pp.play(&decoder)?.total_power().value() / (1.5 * 1.5 * 2e6)),
        overhead_per_way: 0.25,
        vdd_max: Voltage::new(5.0),
    };
    for (label, f) in [
        ("2 MHz (paper rate)", 2e6),
        ("32 MHz (4x-res display)", 32e6),
    ] {
        let f = Frequency::new(f);
        println!("\npower vs parallelism at {label}:");
        println!("{:>3} {:>10} {:>14}", "N", "vdd", "power");
        for n in 1..=8u32 {
            match (trade.supply_for(n, f), trade.power_at(n, f)) {
                (Some(vdd), Some(p)) => {
                    println!("{n:>3} {:>9.2}V {:>14}", vdd.value(), p.to_string())
                }
                _ => println!("{n:>3} {:>10} {:>14}", "-", "infeasible"),
            }
        }
        if let Some((n, p)) = trade.optimal(8, f) {
            println!("optimum: N = {n} at {p}");
        }
    }

    // --- Macro lumping and re-use: four decoder channels in a new system.
    let lumped = pp.lump(&decoder, "macros/luminance_decoder")?.clone();
    println!("\nlumped macro: {}", lumped.doc());
    let mut multi = Sheet::new("Four-channel decoder array");
    multi.set_global("vdd", "1.5")?;
    multi.set_global("f", "2MHz")?;
    for ch in 0..4 {
        multi.add_row(Row::new(
            format!("Channel {ch}"),
            RowModel::Inline(lumped.clone()),
        ));
    }
    let report = pp.play(&multi)?;
    println!("{report}");
    Ok(())
}
