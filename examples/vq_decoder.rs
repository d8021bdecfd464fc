//! The paper's architectural case study (Figures 1–3): compare the two
//! luminance-decoder organizations with the spreadsheet, then check the
//! estimates against the cycle-level simulator that stands in for the
//! measured silicon, on video of varying correlation.
//!
//! Run with: `cargo run --example vq_decoder`

use powerplay::accuracy::Comparison;
use powerplay::backannotate::backannotate_activity;
use powerplay::designs::luminance::{self, LuminanceArch};
use powerplay::PowerPlay;
use powerplay_sheet::compare;
use powerplay_vqsim::{simulate, Architecture, SimConfig, VideoSource};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let pp = PowerPlay::new();

    // --- Spreadsheet estimates (what the 1996 user saw in Netscape).
    let fig1 = pp.play(&luminance::sheet(LuminanceArch::DirectLut))?;
    let fig3 = pp.play(&luminance::sheet(LuminanceArch::GroupedLut))?;
    println!("{fig1}");
    println!("{fig3}");
    let ratio = fig1.total_power() / fig3.total_power();
    println!(
        "architecture comparison: {} vs {}  ->  {:.1}x improvement (paper: ~5x)\n",
        fig1.total_power(),
        fig3.total_power(),
        ratio,
    );

    // --- Cycle-level "measurement" on correlated synthetic video.
    let video = VideoSource::synthetic(42, 8);
    println!(
        "synthetic video: {} frames, mean |delta code| = {:.1}\n",
        video.frame_count(),
        video.code_smoothness(),
    );
    for (name, arch, estimate) in [
        ("Figure 1", Architecture::DirectLut, fig1.total_power()),
        ("Figure 3", Architecture::GroupedLut, fig3.total_power()),
    ] {
        let sim = simulate(arch, &video, SimConfig::paper());
        println!("{sim}");
        let comparison = Comparison::new(estimate, sim.total_power());
        println!("{name}: {comparison}\n");
    }
    println!(
        "paper's own figures for the built chip: estimated ~150 uW, measured ~100 uW (1.5x)\n"
    );

    // --- The gap is data correlation, not calibration: it must track
    // the content's statistics.
    println!("content dependence (Figure 1 architecture):");
    for (label, content) in [
        ("uniform noise", VideoSource::noise(9, 3)),
        ("natural video", VideoSource::synthetic(9, 3)),
        ("static screen", VideoSource::static_scene(9, 3)),
    ] {
        let measured = simulate(Architecture::DirectLut, &content, SimConfig::paper());
        println!(
            "  {label:<14} mean |dcode| {:>5.1}  simulated {:>10}  estimate/sim {:>5.2}x",
            content.code_smoothness(),
            measured.total_power().to_string(),
            fig1.total_power() / measured.total_power(),
        );
    }
    println!();

    // --- Side-by-side architecture comparison table.
    println!("{}", compare::Comparison::new(&fig1, &fig3));

    // --- Back-annotation: fold the simulator's measured activity into
    // the spreadsheet ("these values should be back-annotated to the
    // design to give more accurate results").
    let sim = simulate(Architecture::DirectLut, &video, SimConfig::paper());
    let mut annotated = luminance::sheet(LuminanceArch::DirectLut);
    let applied = backannotate_activity(
        &mut annotated,
        &sim,
        pp.registry(),
        &[
            ("Read Bank", "read bank"),
            ("Write Bank", "write bank"),
            ("Look Up Table", "LUT 4096x6"),
            ("Output Register", "output register"),
        ],
    )?;
    println!("back-annotated activities:");
    for (row, alpha) in &applied {
        println!("  {row:<18} alpha = {alpha:.3}");
    }
    let refined = pp.play(&annotated)?;
    println!(
        "Figure 1 estimate refined: {} -> {} (simulated: {})",
        fig1.total_power(),
        refined.total_power(),
        sim.total_power(),
    );
    Ok(())
}
