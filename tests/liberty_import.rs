//! End-to-end Liberty ingestion: the gscl45nm-style fixture imports,
//! every cell maps (or is skipped with a specific W119), the imported
//! elements drive a design through `play` and `analyze`, the CLI
//! honours the lint/analyze exit-code contract, malformed sources from
//! the wild keep their diagnostics, and a re-import over the v1 API
//! leaves the same registry live as a restart does.

use std::process::Command;

use powerplay::{ucb_library, PowerPlay, Sheet};
use powerplay_json::Json;
use powerplay_lint::codes;
use powerplay_sheet::whatif;
use powerplay_web::app::PowerPlayApp;
use powerplay_web::http::{Method, Request, Response, Status};

const FIXTURE: &str = include_str!("fixtures/gscl45nm_mini.lib");

// Two malformed sources from liberty-db's demo, verbatim: a stray `*`
// after the library group, and a library preceded only by comments.
const TEMPLATE_ERR1: &str = r#"
    library (/home/jzzhou/project/liberate_demo/LIBRARY/debug_liberate_INV0_hspice) {
    comment : "www";
    }
    *"#;
const TEMPLATE_ERR2: &str = r#"/*
SPDX-FileCopyrightText: 2022 Thomas Kramer <code@tkramer.ch>
SPDX-FileCopyrightText: 2011 W. Rhett Davis, and Harun Demircioglu, North Carolina State University
SPDX-FileCopyrightText: 2008 W. Rhett Davis, Michael Bucher, and Sunil Basavarajaiah, North Carolina State University (ncsu_basekit subtree), James Stine, and Ivan Castellanos, and Oklahoma State University (osu_soc subtree)


SPDX-FileCopyrightText: 2007 W. Rhett Davis, Paul Franzon, Michael Bucher, and Sunil Basavarajaiah, North Carolina State University

SPDX-License-Identifier: Apache-2.0
*/

/*
    Test liberty file for the liberty parser.
    This is copied from the FreePDK45 but stripped down to save space.
*/
        
/*
    delay model :       typ
    check model :       typ
    power model :       typ
    capacitance model : typ
    other model :       typ
*/
library(gscl45nm) {}
    "#;

fn fixture_path(name: &str) -> String {
    format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn fixture_imports_with_every_cell_accounted_for() {
    let import = powerplay_liberty::import_str(FIXTURE, "gscl45nm_mini.lib");
    assert!(!import.report.has_errors(), "{:?}", import.report);
    assert_eq!(import.library, "gscl45nm_mini");
    assert_eq!(import.cells_parsed, 11);
    // FILL1 carries no power data; every other cell maps.
    assert_eq!(import.cells_mapped, 10);
    assert_eq!(import.elements.len(), 10);

    // The one unmapped cell has its specific W119.
    let w119: Vec<_> = import
        .report
        .diagnostics()
        .iter()
        .filter(|d| d.code == codes::UNMAPPABLE_CONSTRUCT_SKIPPED)
        .collect();
    assert_eq!(w119.len(), 1, "{w119:?}");
    assert_eq!(w119[0].path, "cells/FILL1");

    // Tables were hull-collapsed and reported (one I203 per table, plus
    // the state-dependent leakage collapses).
    let i203 = import
        .report
        .diagnostics()
        .iter()
        .filter(|d| d.code == codes::TABLE_COLLAPSED)
        .count();
    assert!(i203 >= 20, "expected many I203 collapse notes, got {i203}");

    // The sequential cells landed in the Storage class.
    let dff = import
        .elements
        .iter()
        .find(|e| e.name() == "gscl45nm_mini/DFFPOSX1")
        .expect("DFF mapped");
    assert_eq!(dff.class(), powerplay_library::ElementClass::Storage);
    let inv = import
        .elements
        .iter()
        .find(|e| e.name() == "gscl45nm_mini/INVX1")
        .expect("INV mapped");
    assert_eq!(inv.class(), powerplay_library::ElementClass::Computation);
    // Provenance rides in the documentation string.
    assert!(inv.doc().contains(&format!("{:016x}", import.source_hash)));
}

/// The fixture's cells in a registry, and a toy datapath slice out of
/// three of them.
fn imported_slice() -> (PowerPlay, Sheet) {
    let import = powerplay_liberty::import_str(FIXTURE, "gscl45nm_mini.lib");
    let mut pp = PowerPlay::new();
    for element in import.elements {
        pp.registry_mut().insert(element);
    }
    let mut sheet = Sheet::new("slice");
    sheet.set_global("vdd", "1.1").unwrap();
    sheet.set_global("f", "500e6").unwrap();
    sheet
        .add_element_row("inv", "gscl45nm_mini/INVX1", [("activity", "0.2")])
        .unwrap();
    sheet
        .add_element_row("nand", "gscl45nm_mini/NAND2X1", [("activity", "0.15")])
        .unwrap();
    sheet
        .add_element_row("dff", "gscl45nm_mini/DFFPOSX1", [("activity", "1.0")])
        .unwrap();
    (pp, sheet)
}

#[test]
fn imported_elements_drive_play_and_analyze() {
    let (pp, sheet) = imported_slice();
    let report = pp.play(&sheet).expect("imported design plays");
    let total = report.total_power().value();
    assert!(
        total.is_finite() && total > 0.0,
        "implausible total {total}"
    );
    // Sanity: three 45nm-ish gates at 500 MHz land in microwatts to
    // milliwatts, not kilowatts.
    assert!(total < 1e-2, "implausibly large total {total} W");

    let plan = pp.compile(&sheet);
    let bounds = powerplay_analysis::analyze(&plan).expect("analysis runs");
    assert!(!bounds.has_errors());
    assert!(
        bounds.total_power.is_finite(),
        "bounds must be finite: [{}, {}]",
        bounds.total_power.lo,
        bounds.total_power.hi
    );
    assert!(
        bounds.total_power.lo <= total && total <= bounds.total_power.hi,
        "{total} outside proven [{}, {}]",
        bounds.total_power.lo,
        bounds.total_power.hi
    );
}

#[test]
fn a_vdd_sweep_and_its_sensitivity_reach_imported_cells() {
    // Imported cells read `vdd` only through the EQ 1 template: their
    // formulas are `activity * C` and a constant leakage current.
    let (pp, sheet) = imported_slice();
    let plan = pp.compile(&sheet);
    let tree_total = |vdd: f64| {
        let played = plan.play_with_tree(&[("vdd", vdd)]);
        played.expect("the oracle plays").total_power().value()
    };
    let curve = whatif::sweep_compiled(&plan, "vdd", &[0.9, 1.0, 1.1, 1.2]).expect("sweep runs");
    for pair in curve.windows(2) {
        assert!(pair[1].1 > pair[0].1, "power falls as vdd rises: {curve:?}");
    }
    for (vdd, total) in &curve {
        assert_eq!(
            total.value().to_bits(),
            tree_total(*vdd).to_bits(),
            "vdd = {vdd}"
        );
    }

    let sens = whatif::sensitivities_compiled(&plan).expect("sensitivities run");
    let s_vdd = sens
        .iter()
        .find(|(name, _)| name == "vdd")
        .expect("S_vdd")
        .1;
    let (vdd, h) = (1.1, 0.01 * 1.1);
    let expected = (tree_total(vdd + h) - tree_total(vdd - h)) / (2.0 * h) * vdd / tree_total(vdd);
    assert_eq!(
        s_vdd.to_bits(),
        expected.to_bits(),
        "S_vdd {s_vdd} vs {expected}"
    );
}

#[test]
fn cli_import_lib_maps_the_fixture_cleanly() {
    let out = Command::new(env!("CARGO_BIN_EXE_powerplay-cli"))
        .args(["import-lib", &fixture_path("gscl45nm_mini.lib"), "--json"])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "import-lib failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let parsed = Json::parse(&String::from_utf8_lossy(&out.stdout)).expect("pure JSON stdout");
    assert_eq!(parsed["library"].as_str(), Some("gscl45nm_mini"));
    assert_eq!(parsed["cells_parsed"].as_f64(), Some(11.0));
    assert_eq!(parsed["cells_mapped"].as_f64(), Some(10.0));
    assert_eq!(parsed["report"]["errors"].as_f64(), Some(0.0));
    assert_eq!(parsed["source_hash"].as_str().map(str::len), Some(16));

    // --out writes the element JSON, loadable as a registry fragment.
    let models =
        std::env::temp_dir().join(format!("powerplay-libtest-{}.json", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_powerplay-cli"))
        .args([
            "import-lib",
            &fixture_path("gscl45nm_mini.lib"),
            "--out",
            models.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let text = std::fs::read_to_string(&models).unwrap();
    let elements = Json::parse(&text).unwrap();
    assert_eq!(elements.as_array().map(<[Json]>::len), Some(10));
    let _ = std::fs::remove_file(&models);
}

#[test]
fn cli_import_lib_fails_with_e017_on_broken_source() {
    let out = Command::new(env!("CARGO_BIN_EXE_powerplay-cli"))
        .args(["import-lib", &fixture_path("broken.lib"), "--json"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1), "findings exit code");
    let parsed = Json::parse(&String::from_utf8_lossy(&out.stdout)).expect("pure JSON stdout");
    let diags = parsed["report"]["diagnostics"].as_array().unwrap();
    assert_eq!(diags[0]["code"].as_str(), Some("E017"));
    // The diagnostic pinpoints the failure: file, line, column.
    let path = diags[0]["path"].as_str().unwrap();
    assert!(
        path.contains("broken.lib:") && path.matches(':').count() >= 2,
        "E017 path must carry file:line:col, got `{path}`"
    );

    // Usage errors are exit 2, distinct from findings.
    let usage = Command::new(env!("CARGO_BIN_EXE_powerplay-cli"))
        .args(["import-lib"])
        .output()
        .expect("binary runs");
    assert_eq!(usage.status.code(), Some(2));
}

/// Imports `source` through the CLI from a temporary file and returns
/// its exit code.
fn cli_import_exit_code(tag: &str, source: &str) -> Option<i32> {
    let path = std::env::temp_dir().join(format!("powerplay-{tag}-{}.lib", std::process::id()));
    std::fs::write(&path, source).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_powerplay-cli"))
        .args(["import-lib", path.to_str().unwrap()])
        .output()
        .expect("binary runs");
    let _ = std::fs::remove_file(&path);
    out.status.code()
}

#[test]
fn stray_token_after_the_library_group_is_a_positioned_e017() {
    let import = powerplay_liberty::import_str(TEMPLATE_ERR1, "err1.lib");
    let diags = import.report.diagnostics();
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].code, codes::UNPARSABLE_LIBRARY);
    assert_eq!(diags[0].path, "err1.lib:5:5");
    assert!(
        diags[0]
            .message
            .ends_with("expected end of input after top-level group, found `*`"),
        "{}",
        diags[0].message
    );
    assert_eq!(import.cells_parsed, 0);
    assert_eq!(cli_import_exit_code("err1", TEMPLATE_ERR1), Some(1));
}

#[test]
fn comment_only_preamble_imports_an_empty_library() {
    let import = powerplay_liberty::import_str(TEMPLATE_ERR2, "err2.lib");
    assert!(
        import.report.diagnostics().is_empty(),
        "{:?}",
        import.report
    );
    assert_eq!(import.library, "gscl45nm");
    assert_eq!(import.cells_parsed, 0);
    assert!(import.elements.is_empty());
    assert_eq!(cli_import_exit_code("err2", TEMPLATE_ERR2), Some(0));
}

/// Liberty source of library `re_demo` with one leakage-only cell per
/// name.
fn re_demo(cells: &[&str]) -> Vec<u8> {
    let cells: String = cells
        .iter()
        .map(|cell| {
            format!(
                "    cell ({cell}) {{\n        cell_leakage_power : 1.0;\n        \
                 pin (A) {{ direction : input; capacitance : 0.001; }}\n    }}\n"
            )
        })
        .collect();
    format!("library (re_demo) {{\n    leakage_power_unit : \"1nW\";\n{cells}}}\n").into_bytes()
}

#[test]
fn reimport_that_drops_a_cell_unregisters_it_as_a_restart_does() {
    let dir = std::env::temp_dir().join(format!("powerplay-reimport-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let import = |app: &PowerPlayApp, cells: &[&str]| {
        let mut req = Request::new(Method::Post, "/api/v1/libraries");
        req.set_body(re_demo(cells), "text/plain");
        let created = app.handle(&req);
        assert_eq!(created.status(), Status::Created, "{}", created.body_text());
    };
    let element = |app: &PowerPlayApp, cell: &str| -> Status {
        let path = format!("/api/v1/elements/re_demo/{cell}");
        app.handle(&Request::new(Method::Get, &path)).status()
    };
    let play = |app: &PowerPlayApp| -> Response {
        let path = "/api/v1/designs/u/uses_invb/play";
        app.handle(&Request::new(Method::Post, path))
    };

    let app = PowerPlayApp::new(ucb_library(), dir.clone());
    let mut sheet = Sheet::new("uses_invb");
    sheet.set_global("vdd", "1.1").unwrap();
    sheet.set_global("f", "1e9").unwrap();
    sheet.add_element_row("inv", "re_demo/INVB", []).unwrap();
    app.store()
        .save("u", "uses_invb", std::sync::Arc::new(sheet), None)
        .unwrap();
    import(&app, &["INVA", "INVB"]);
    assert_eq!(element(&app, "INVB"), Status::Ok);
    let played = play(&app);
    assert_eq!(played.status(), Status::Ok, "{}", played.body_text());

    // The re-import drops INVB: it must be gone now, not at restart.
    import(&app, &["INVA"]);
    assert_eq!(element(&app, "INVA"), Status::Ok);
    assert_eq!(element(&app, "INVB"), Status::NotFound);
    let live = play(&app);
    assert_ne!(live.status(), Status::Ok, "{}", live.body_text());

    drop(app);
    let reopened = PowerPlayApp::new(ucb_library(), dir.clone());
    assert_eq!(element(&reopened, "INVA"), Status::Ok);
    assert_eq!(element(&reopened, "INVB"), Status::NotFound);
    let restarted = play(&reopened);
    assert_eq!(
        (restarted.status(), restarted.body_text()),
        (live.status(), live.body_text())
    );
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);
}
