//! Every `revision` event reports the committed sheet as a fresh compile
//! plays it. The app compiles each revision from the cached plan of the
//! one before, sharing the rows an edit left alone; seeded PUTs through
//! `PowerPlayApp::handle` must still push, revision by revision, exactly
//! the totals a fresh compile of the stored sheet gives.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use powerplay_json::Json;
use powerplay_library::builtin::ucb_library;
use powerplay_sheet::{CompiledSheet, RowModel, Sheet};
use powerplay_web::app::PowerPlayApp;
use powerplay_web::http::{Method, Request};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Copies of the shipped designs as sub-sheet tiles that read the
/// top-level globals.
fn tiled_sheet() -> Sheet {
    let mut sheet = Sheet::new("tiled");
    sheet.set_global("vdd", "1.5").unwrap();
    sheet.set_global("f", "2MHz").unwrap();
    sheet.set_global("radio_duty", "0.5").unwrap();
    let designs = ["infopad", "luminance_direct_lut", "luminance_grouped_lut"];
    for (t, name) in designs.iter().cycle().take(6).enumerate() {
        let path = format!(
            "{}/examples/designs/{name}.json",
            env!("CARGO_MANIFEST_DIR")
        );
        let mut json = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        json.set("globals", Json::array([]));
        sheet.add_subsheet_row(&format!("T{t} {name}"), Sheet::from_json(&json).unwrap());
    }
    sheet
}

/// Three edits in four change one binding inside one tile; the fourth
/// changes a global formula.
fn edit(sheet: &mut Sheet, rng: &mut StdRng) {
    if rng.gen_range(0..4) == 0 {
        let vdd = format!("{}", 1.0 + f64::from(rng.gen_range(0..20)) / 10.0);
        sheet.set_global("vdd", &vdd).unwrap();
        return;
    }
    let tiles = sheet.rows().len();
    let RowModel::SubSheet(tile) = sheet.rows_mut()[rng.gen_range(0..tiles)].model_mut() else {
        panic!("tiles are sub-sheets");
    };
    let rows = tile.rows_mut();
    let with: Vec<usize> = (0..rows.len())
        .filter(|&i| !rows[i].bindings().is_empty())
        .collect();
    let row = &mut rows[with[rng.gen_range(0..with.len())]];
    let param = row.bindings()[rng.gen_range(0..row.bindings().len())]
        .0
        .clone();
    row.bind(param.as_str(), &format!("{}", rng.gen_range(1..64)))
        .unwrap();
}

fn put(app: &PowerPlayApp, sheet: &Sheet) -> u64 {
    let mut req = Request::new(Method::Put, "/api/v1/designs/u/d");
    req.set_header("If-Match", "*");
    req.set_body(sheet.to_json().to_string().into_bytes(), "application/json");
    let response = app.handle(&req);
    assert!(response.status().code() < 300, "{}", response.body_text());
    Json::parse(&response.body_text()).unwrap()["rev"]
        .as_f64()
        .unwrap() as u64
}

/// The next `(event, id, data)` off an SSE stream, skipping hints and
/// heartbeats.
fn read_event(reader: &mut BufReader<TcpStream>) -> (String, Option<u64>, String) {
    let (mut id, mut event, mut data) = (None, String::new(), String::new());
    let mut line = String::new();
    loop {
        line.clear();
        assert!(reader.read_line(&mut line).unwrap() > 0, "stream closed");
        let trimmed = line.trim_end_matches(['\r', '\n']);
        if trimmed.is_empty() {
            if !event.is_empty() {
                return (event, id, data);
            }
        } else if let Some(value) = trimmed.strip_prefix("id:") {
            id = value.trim().parse().ok();
        } else if let Some(value) = trimmed.strip_prefix("event:") {
            event = value.trim().to_owned();
        } else if let Some(value) = trimmed.strip_prefix("data:") {
            data.push_str(value.trim_start());
        }
    }
}

/// The event report a fresh compile of `sheet` gives, in the event's
/// JSON shape: numbers print in their shortest round-trip form, so equal
/// text is equal bits.
fn fresh_report(sheet: &Sheet) -> String {
    let report = CompiledSheet::compile(sheet, &ucb_library())
        .play()
        .unwrap();
    let rows: Json = report
        .rows()
        .iter()
        .map(|r| {
            Json::object([
                ("name", Json::from(r.name())),
                ("power_w", Json::from(r.power().value())),
            ])
        })
        .collect();
    Json::object([
        ("total_w", Json::from(report.total_power().value())),
        ("rows", rows),
    ])
    .to_string()
}

#[test]
fn every_revision_event_reports_what_a_fresh_compile_plays() {
    let dir = std::env::temp_dir().join(format!("powerplay-revreports-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let app = PowerPlayApp::new(ucb_library(), dir);
    let server = app.serve("127.0.0.1:0").unwrap();

    let mut sheet = tiled_sheet();
    assert_eq!(put(&app, &sheet), 1);
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    stream
        .write_all(b"GET /api/v1/designs/u/d/events HTTP/1.1\r\nAccept: text/event-stream\r\n\r\n")
        .unwrap();
    let mut reader = BufReader::new(stream);
    let (event, id, _) = read_event(&mut reader);
    assert_eq!((event.as_str(), id), ("snapshot", Some(1)));

    let reused = || {
        powerplay_telemetry::global()
            .snapshot()
            .counter("powerplay_sheet_fragments_total{outcome=\"reused\"}")
            .unwrap_or(0)
    };
    let reused_before = reused();
    let mut rng = StdRng::seed_from_u64(21);
    for _ in 0..12 {
        edit(&mut sheet, &mut rng);
        let rev = put(&app, &sheet);
        let (event, id, data) = read_event(&mut reader);
        assert_eq!((event.as_str(), id), ("revision", Some(rev)));
        let committed = app.store().load_rev("u", "d", rev).unwrap().unwrap();
        assert_eq!(*committed, sheet);
        let report = Json::parse(&data).unwrap()["report"].to_string();
        assert_eq!(report, fresh_report(&committed), "revision {rev}");
    }
    // Each edit changes at most one of the six tiles: the other five,
    // at least, were linked from the previous revision's fragments.
    assert!(
        reused() - reused_before >= 12 * 5,
        "{}",
        reused() - reused_before
    );
    server.shutdown();
}
