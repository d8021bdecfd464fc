//! Launch the PowerPlay web application — the paper's actual deliverable:
//! a spreadsheet power-exploration tool served over HTTP to any browser.
//!
//! Run with: `cargo run --example webserver [addr]` (default
//! `127.0.0.1:8096`), then open the printed URL. Pass `--demo` to run a
//! scripted three-minute-workflow session against the server instead
//! (build the luminance design through HTTP forms and fetch the remote
//! library), which is also what the integration tests exercise.

use powerplay::designs::luminance::{self, LuminanceArch};
use powerplay::ucb_library;
use powerplay_web::app::PowerPlayApp;
use powerplay_web::http::{http_get, http_post, urlencoded::encode_pairs};
use powerplay_web::remote;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let demo = args.iter().any(|a| a == "--demo");
    let addr = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "127.0.0.1:8096".to_owned());

    let data_dir = std::env::temp_dir().join("powerplay-www");
    let app = PowerPlayApp::new(ucb_library(), data_dir);

    // Pre-load the paper's reference design so the menu is not empty.
    app.store().save(
        "guest",
        "luminance",
        std::sync::Arc::new(luminance::sheet(LuminanceArch::GroupedLut)),
        None,
    )?;

    let server = app.serve(&addr)?;
    let base = format!("http://{}", server.addr());
    println!("PowerPlay is serving at {base}");
    println!("log in as any user; design `luminance` is preloaded for `guest`.");

    if !demo {
        server.join();
        return Ok(());
    }

    // --- Scripted session: the paper's "whole process ... in less than
    // three minutes" workflow, over the wire.
    println!("\n[demo] 1. identify ourselves");
    let r = http_post(
        &format!("{base}/login"),
        encode_pairs([("user", "demo")]).as_bytes(),
        "application/x-www-form-urlencoded",
    )?;
    println!("  -> {}", r.header("location").unwrap_or("?"));

    println!("[demo] 2. evaluate an 8x8 multiplier (Figure 4 form)");
    let r = http_post(
        &format!("{base}/element/eval"),
        encode_pairs([
            ("user", "demo"),
            ("element", "ucb/multiplier"),
            ("vdd", "1.5"),
            ("f", "2e6"),
            ("p_bw_a", "8"),
            ("p_bw_b", "8"),
        ])
        .as_bytes(),
        "application/x-www-form-urlencoded",
    )?;
    let body = r.body_text();
    let power_line = body
        .lines()
        .find(|l| l.contains("Power"))
        .unwrap_or("power not found");
    println!("  -> {}", &power_line[..power_line.len().min(120)]);

    println!("[demo] 3. compose the luminance design through forms");
    http_post(
        &format!("{base}/design/new"),
        encode_pairs([("user", "demo"), ("name", "lum")]).as_bytes(),
        "application/x-www-form-urlencoded",
    )?;
    for (row, element, params) in [
        (
            "Read Bank",
            "ucb/sram",
            vec![("p_words", "2048"), ("p_bits", "8"), ("p_f", "f / 16")],
        ),
        (
            "Write Bank",
            "ucb/sram",
            vec![("p_words", "2048"), ("p_bits", "8"), ("p_f", "f / 32")],
        ),
        (
            "Look Up Table",
            "ucb/sram",
            vec![("p_words", "1024"), ("p_bits", "24"), ("p_f", "f / 4")],
        ),
        ("Output Register", "ucb/register", vec![("p_bits", "6")]),
    ] {
        let mut form = vec![
            ("user", "demo"),
            ("design", "lum"),
            ("row_name", row),
            ("element", element),
        ];
        form.extend(params);
        http_post(
            &format!("{base}/design/add_row"),
            encode_pairs(form).as_bytes(),
            "application/x-www-form-urlencoded",
        )?;
    }

    println!("[demo] 4. PLAY: fetch the computed spreadsheet");
    let page = http_get(&format!("{base}/design?user=demo&name=lum"))?;
    for line in ["Look Up Table", "TOTAL"] {
        println!(
            "  page contains `{line}`: {}",
            page.body_text().contains(line)
        );
    }

    println!("[demo] 5. remote model access: fetch this site's library over HTTP");
    let fetched = remote::fetch_library(&base)?;
    println!("  -> {} models fetched", fetched.len());

    println!("[demo] done; shutting down");
    server.shutdown();
    Ok(())
}
