//! A compiled plan plays its un-overridden baseline once: every later
//! sweep kernel and sensitivity probe seeds its lanes from the register
//! image the plan keeps, so a repeated study executes only the slice of
//! the program its globals reach.
//!
//! The file holds a single test because it reads the process-wide
//! `powerplay_sheet_bytecode_instrs_total` counter, which any other test
//! in the same process would move.

use powerplay_json::Json;
use powerplay_library::builtin::ucb_library;
use powerplay_sheet::{whatif, CompiledSheet, Sheet};

fn load_plan(name: &str) -> CompiledSheet {
    let path = format!(
        "{}/examples/designs/{name}.json",
        env!("CARGO_MANIFEST_DIR")
    );
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    let sheet = Sheet::from_json(&Json::parse(&text).unwrap()).unwrap();
    CompiledSheet::compile(&sheet, &ucb_library())
}

fn instrs_executed() -> u64 {
    powerplay_telemetry::global()
        .snapshot()
        .counter("powerplay_sheet_bytecode_instrs_total")
        .unwrap_or(0)
}

#[test]
fn repeated_studies_replay_no_baseline() {
    // Sensitivities: one full play for the report's globals, then two
    // lanes of each global's slice (InfoPad: `vdd` 112, `f` 70,
    // `radio_duty` 15 instructions of 125).
    for (name, expected) in [
        ("infopad", 125 + 2 * (112 + 70 + 15)),
        ("luminance_direct_lut", 141),
        ("luminance_grouped_lut", 207),
    ] {
        let plan = load_plan(name);
        whatif::sensitivities_compiled(&plan).unwrap();
        let before = instrs_executed();
        whatif::sensitivities_compiled(&plan).unwrap();
        assert_eq!(instrs_executed() - before, expected, "{name}");
    }

    // A 64-point `vdd` sweep: eight chunks of eight lanes of the
    // 112-instruction slice, and no baseline play.
    let plan = load_plan("infopad");
    let values: Vec<f64> = (0..64).map(|i| 1.0 + 0.03 * f64::from(i)).collect();
    whatif::sweep_compiled(&plan, "vdd", &values).unwrap();
    let before = instrs_executed();
    whatif::sweep_compiled(&plan, "vdd", &values).unwrap();
    assert_eq!(instrs_executed() - before, 7_168);
}
