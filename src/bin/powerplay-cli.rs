//! `powerplay-cli` — the command-line companion to the web application.
//!
//! The 1996 tool was browser-only; a modern release ships a CLI for
//! scripting the same workflows: browse the library, evaluate an element,
//! play a design file, sweep a global, lump a macro, serve the web app,
//! or fetch a remote site's library.
//!
//! ```text
//! powerplay-cli library [--class <class>]
//! powerplay-cli doc <element>
//! powerplay-cli eval <element> [name=value ...]        (vdd/f included)
//! powerplay-cli play <design.json>
//! powerplay-cli sweep <design.json> <global> <v1,v2,...>
//! powerplay-cli lump <design.json> <macro-name>
//! powerplay-cli serve [addr]
//! powerplay-cli fetch <http://site>
//! ```

use std::process::ExitCode;

use powerplay::{ucb_library, Expr, PowerPlay, Scope, Sheet};
use powerplay_json::Json;

/// The static-analysis verbs (`lint`, `analyze`) share a three-way
/// exit contract: 0 clean, 1 findings or failure, 2 usage error. The
/// other verbs keep the classic 0/1 split, with bad invocations also
/// reporting 2.
enum CliError {
    /// The invocation itself was malformed — exit code 2.
    Usage(String),
    /// The command ran and failed (bad input file, lint errors,
    /// analysis errors, I/O) — exit code 1.
    Failure(String),
}

impl From<String> for CliError {
    fn from(message: String) -> CliError {
        // Bare `usage:` strings come from arg-pattern mismatches.
        if message.starts_with("usage:") || message.contains("needs a") {
            CliError::Usage(message)
        } else {
            CliError::Failure(message)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Failure(message)) => {
            eprintln!("error: {message}");
            ExitCode::from(1)
        }
        Err(CliError::Usage(message)) => {
            eprintln!("error: {message}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String]) -> Result<(), CliError> {
    let mut it = args.iter().map(String::as_str);
    match it.next() {
        None | Some("help") | Some("--help") => {
            print!("{}", USAGE);
            Ok(())
        }
        Some("library") => cmd_library(&args[1..]).map_err(CliError::from),
        Some("doc") => cmd_doc(&args[1..]).map_err(CliError::from),
        Some("eval") => cmd_eval(&args[1..]).map_err(CliError::from),
        Some("play") => cmd_play(&args[1..]).map_err(CliError::from),
        Some("profile") => cmd_profile(&args[1..]).map_err(CliError::from),
        Some("lint") => cmd_lint(&args[1..]),
        Some("analyze") => cmd_analyze(&args[1..]),
        Some("import-lib") => cmd_import_lib(&args[1..]),
        Some("sweep") => cmd_sweep(&args[1..]).map_err(CliError::from),
        Some("lump") => cmd_lump(&args[1..]).map_err(CliError::from),
        Some("compare") => cmd_compare(&args[1..]).map_err(CliError::from),
        Some("sens") => cmd_sens(&args[1..]).map_err(CliError::from),
        Some("mc") => cmd_mc(&args[1..]).map_err(CliError::from),
        Some("serve") => cmd_serve(&args[1..]).map_err(CliError::from),
        Some("designs") => cmd_designs(&args[1..]).map_err(CliError::from),
        Some("fetch") => cmd_fetch(&args[1..]).map_err(CliError::from),
        Some("watch") => cmd_watch(&args[1..]).map_err(CliError::from),
        Some(other) => Err(CliError::Usage(format!(
            "unknown command `{other}` (try `help`)"
        ))),
    }
}

const USAGE: &str = "\
powerplay-cli — early power exploration (PowerPlay, DAC 1996)

USAGE:
  powerplay-cli library [--class <class>]   list library elements
  powerplay-cli doc <element>               show an element's model
  powerplay-cli eval <element> [k=v ...]    evaluate (vdd=1.5 f=2e6 defaults)
  powerplay-cli play <design.json>          evaluate a design file
  powerplay-cli profile <design.json> [--disasm]
                                            play once, print the span tree;
                                            with --disasm, print the compiled
                                            bytecode program (slots, constants,
                                            per-row code spans) instead
  powerplay-cli lint <design.json> [--json] [--allow CODE,..]  static analysis
  powerplay-cli analyze <design.json> [--json] [--range NAME=LO:HI ...]
                                            prove power bounds by abstract
                                            interpretation; ranges widen the
                                            named globals to intervals
  powerplay-cli import-lib <file.lib> [--json] [--out <models.json>]
                                            parse a Liberty cell library and
                                            lower every cell to an EQ-1 power
                                            model; --out writes the element
                                            JSON for later registration
  powerplay-cli sweep <design.json> <global> <v1,v2,...>
  powerplay-cli lump <design.json> <name>   lump a design into a macro (JSON)
  powerplay-cli compare <a.json> <b.json>    side-by-side design comparison
  powerplay-cli sens <design.json>          sensitivity of power to each global
  powerplay-cli mc <design.json> <rel> <trials> <globals,...>  Monte-Carlo spread
  powerplay-cli serve [addr] [--seed-demo] [--data-dir <dir>]
                     [--workers <n>] [--queue <n>] [--max-conns <n>]
                     [--read-timeout-ms <ms>] [--write-timeout-ms <ms>]
                                            run the web application
  powerplay-cli designs [--data-dir <dir>] [<user> [<design>]]
                                            inspect the durable design store
                                            (also lists imported libraries)
  powerplay-cli fetch <http://site>         fetch a remote library (JSON)
  powerplay-cli watch <http://site> <user> <design>
                                            follow a design's live event
                                            stream (SSE), printing each
                                            event as it arrives

EXIT CODES (lint, analyze, import-lib):
  0  clean — no error-severity findings
  1  findings or failure — lint/analysis errors, unreadable design
  2  usage — malformed invocation
";

fn cmd_library(args: &[String]) -> Result<(), String> {
    let lib = ucb_library();
    let class_filter = match args {
        [] => None,
        [flag, class] if flag == "--class" => Some(
            powerplay_library::ElementClass::from_id(class)
                .ok_or_else(|| format!("unknown class `{class}`"))?,
        ),
        _ => return Err("usage: library [--class <class>]".into()),
    };
    for element in lib.iter() {
        if class_filter.is_none_or(|c| element.class() == c) {
            println!(
                "{:<28} {:<13} {}",
                element.name(),
                element.class(),
                element.doc()
            );
        }
    }
    Ok(())
}

fn cmd_doc(args: &[String]) -> Result<(), String> {
    let [name] = args else {
        return Err("usage: doc <element>".into());
    };
    let lib = ucb_library();
    let element = lib
        .get(name)
        .ok_or_else(|| format!("no element `{name}` in the built-in library"))?;
    println!("{} ({})", element.name(), element.class());
    println!("{}\n", element.doc());
    println!("parameters:");
    for p in element.params() {
        println!("  {:<12} default {:<12} {}", p.name, p.default, p.doc);
    }
    println!("{}", element.to_json().to_pretty());
    Ok(())
}

fn parse_bindings(args: &[String]) -> Result<Scope<'static>, String> {
    let mut scope = Scope::new();
    scope.set("vdd", 1.5);
    scope.set("f", 2e6);
    for arg in args {
        let (name, formula) = arg
            .split_once('=')
            .ok_or_else(|| format!("expected name=value, got `{arg}`"))?;
        let value = Expr::parse(formula)
            .map_err(|e| format!("`{arg}`: {e}"))?
            .eval(&scope)
            .map_err(|e| format!("`{arg}`: {e}"))?;
        scope.set(name, value);
    }
    Ok(scope)
}

fn cmd_eval(args: &[String]) -> Result<(), String> {
    let [name, rest @ ..] = args else {
        return Err("usage: eval <element> [name=value ...]".into());
    };
    let lib = ucb_library();
    let element = lib
        .get(name)
        .ok_or_else(|| format!("no element `{name}`"))?;
    let parent = parse_bindings(rest)?;
    let scope = element.default_scope(&parent);
    // Re-apply explicit bindings so they shadow defaults.
    let mut scope = scope;
    for arg in rest {
        if let Some((n, _)) = arg.split_once('=') {
            if let Some(v) = parent.get(n) {
                scope.set(n, v);
            }
        }
    }
    let eval = element.evaluate(&scope).map_err(|e| e.to_string())?;
    println!("power     {}", eval.power);
    if let Some(e) = eval.energy_per_op {
        println!("energy/op {e}");
    }
    if let Some(a) = eval.area {
        println!("area      {:.4} mm2", a.value() * 1e6);
    }
    if let Some(d) = eval.delay {
        println!("delay     {d}");
    }
    Ok(())
}

fn load_design(path: &str) -> Result<Sheet, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let json = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    Sheet::from_json(&json).map_err(|e| format!("{path}: {e}"))
}

fn cmd_play(args: &[String]) -> Result<(), String> {
    let [path] = args else {
        return Err("usage: play <design.json>".into());
    };
    let pp = PowerPlay::new();
    let report = pp.play(&load_design(path)?).map_err(|e| e.to_string())?;
    print!("{report}");
    Ok(())
}

fn cmd_profile(args: &[String]) -> Result<(), String> {
    let mut path: Option<&str> = None;
    let mut disasm = false;
    for arg in args {
        match arg.as_str() {
            "--disasm" => disasm = true,
            _ if path.is_none() => path = Some(arg),
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    let path = path.ok_or_else(|| "usage: profile <design.json> [--disasm]".to_string())?;
    let pp = PowerPlay::new();
    let sheet = load_design(path)?;
    if disasm {
        // The lowered register program the replay engine actually runs:
        // named slots, folded constants, and each row's [start, end)
        // code span — the "what did my sheet compile to" view.
        let plan = powerplay_sheet::CompiledSheet::compile(&sheet, pp.registry());
        print!("{}", plan.disassemble());
        return Ok(());
    }
    let (result, tree) =
        powerplay_telemetry::profile::capture(&format!("play {path}"), || pp.play(&sheet));
    let report = result.map_err(|e| e.to_string())?;
    print!("{}", tree.render());
    println!();
    println!("spans captured: {}", tree.span_count());
    println!("total power:    {}", report.total_power());
    Ok(())
}

fn cmd_lint(args: &[String]) -> Result<(), CliError> {
    let mut path: Option<&str> = None;
    let mut as_json = false;
    let mut allow: Vec<String> = Vec::new();
    let mut it = args.iter().map(String::as_str);
    while let Some(arg) = it.next() {
        match arg {
            "--json" => as_json = true,
            "--allow" => {
                let codes = it.next().ok_or_else(|| {
                    CliError::Usage("--allow needs a code list (e.g. W105,I201)".to_string())
                })?;
                allow.extend(codes.split(',').map(|c| c.trim().to_owned()));
            }
            _ if path.is_none() => path = Some(arg),
            other => return Err(CliError::Usage(format!("unexpected argument `{other}`"))),
        }
    }
    let path = path.ok_or_else(|| {
        CliError::Usage("usage: lint <design.json> [--json] [--allow CODE,..]".to_string())
    })?;
    let pp = PowerPlay::new();
    let sheet = load_design(path).map_err(CliError::Failure)?;
    let allow: Vec<&str> = allow.iter().map(String::as_str).collect();
    let report = powerplay_lint::lint_sheet(&pp.compile(&sheet)).allow(&allow);
    if as_json {
        // Machine-readable: keep stdout pure JSON.
        println!("{}", report.to_json().to_pretty());
    } else {
        print!("{}", report.render_text());
    }
    if report.has_errors() {
        return Err(CliError::Failure(format!(
            "{path}: {} lint error(s)",
            report.count(powerplay_lint::Severity::Error)
        )));
    }
    Ok(())
}

/// `analyze <design.json> [--json] [--range NAME=LO:HI ...]` — abstract
/// interpretation over the compiled plan: proven power bounds, per-row
/// intervals, monotone inputs, and the new E015/E016/W114–W118
/// diagnostics. Shares `lint`'s exit contract: 0 clean, 1 errors, 2
/// usage.
fn cmd_analyze(args: &[String]) -> Result<(), CliError> {
    let mut path: Option<&str> = None;
    let mut as_json = false;
    let mut ranges: Vec<(String, powerplay_analysis::Interval)> = Vec::new();
    let mut it = args.iter().map(String::as_str);
    while let Some(arg) = it.next() {
        match arg {
            "--json" => as_json = true,
            "--range" => {
                let spec = it
                    .next()
                    .ok_or_else(|| CliError::Usage("--range needs NAME=LO:HI".to_string()))?;
                ranges.push(parse_range(spec).map_err(CliError::Usage)?);
            }
            _ if path.is_none() => path = Some(arg),
            other => return Err(CliError::Usage(format!("unexpected argument `{other}`"))),
        }
    }
    let path = path.ok_or_else(|| {
        CliError::Usage(
            "usage: analyze <design.json> [--json] [--range NAME=LO:HI ...]".to_string(),
        )
    })?;
    let pp = PowerPlay::new();
    let sheet = load_design(path).map_err(CliError::Failure)?;
    let plan = powerplay_sheet::CompiledSheet::compile(&sheet, pp.registry());
    let bounds = powerplay_analysis::analyze_with_ranges(&plan, &ranges)
        .map_err(|e| CliError::Failure(format!("{path}: {e}")))?;
    if as_json {
        // Machine-readable: keep stdout pure JSON.
        println!("{}", bounds.to_json().to_pretty());
    } else {
        print!("{}", bounds.render_text());
    }
    if bounds.has_errors() {
        return Err(CliError::Failure(format!(
            "{path}: {} analysis error(s)",
            bounds.diagnostics.count(powerplay_lint::Severity::Error)
        )));
    }
    Ok(())
}

/// `import-lib <file.lib> [--json] [--out <models.json>]` — parse a
/// Liberty cell library, lower every cell to an EQ-1 element (see
/// `crates/liberty`), and report the E017/W119/W120/I203 findings.
/// Shares `lint`'s exit contract: 0 clean import, 1 errors or an
/// unreadable file, 2 usage.
fn cmd_import_lib(args: &[String]) -> Result<(), CliError> {
    let mut path: Option<&str> = None;
    let mut as_json = false;
    let mut out: Option<&str> = None;
    let mut it = args.iter().map(String::as_str);
    while let Some(arg) = it.next() {
        match arg {
            "--json" => as_json = true,
            "--out" => {
                out = Some(
                    it.next()
                        .ok_or_else(|| CliError::Usage("--out needs a path".to_string()))?,
                );
            }
            _ if path.is_none() => path = Some(arg),
            other => return Err(CliError::Usage(format!("unexpected argument `{other}`"))),
        }
    }
    let path = path.ok_or_else(|| {
        CliError::Usage("usage: import-lib <file.lib> [--json] [--out <models.json>]".to_string())
    })?;
    let text =
        std::fs::read_to_string(path).map_err(|e| CliError::Failure(format!("{path}: {e}")))?;
    let import = powerplay_liberty::import_str(&text, path);
    if let Some(out) = out {
        let models: Json = import.elements.iter().map(|e| e.to_json()).collect();
        std::fs::write(out, models.to_pretty())
            .map_err(|e| CliError::Failure(format!("{out}: {e}")))?;
    }
    if as_json {
        // Machine-readable: keep stdout pure JSON.
        let summary = Json::object([
            ("library", Json::from(import.library.as_str())),
            (
                "source_hash",
                Json::from(format!("{:016x}", import.source_hash)),
            ),
            ("cells_parsed", Json::from(import.cells_parsed as f64)),
            ("cells_mapped", Json::from(import.cells_mapped as f64)),
            (
                "elements",
                import
                    .elements
                    .iter()
                    .map(|e| Json::from(e.name()))
                    .collect(),
            ),
            ("report", import.report.to_json()),
        ]);
        println!("{}", summary.to_pretty());
    } else {
        print!("{}", import.report.render_text());
        println!(
            "library `{}`: {} of {} cell(s) mapped (source hash {:016x})",
            import.library, import.cells_mapped, import.cells_parsed, import.source_hash
        );
        for element in &import.elements {
            println!("  {:<28} {}", element.name(), element.doc());
        }
    }
    if import.report.has_errors() {
        return Err(CliError::Failure(format!(
            "{path}: {} import error(s)",
            import.report.count(powerplay_lint::Severity::Error)
        )));
    }
    Ok(())
}

/// Parses a `NAME=LO:HI` range spec (`LO`/`HI` are plain numbers; a
/// single `NAME=V` pins the global to a point).
fn parse_range(spec: &str) -> Result<(String, powerplay_analysis::Interval), String> {
    let (name, rest) = spec
        .split_once('=')
        .ok_or_else(|| format!("--range expects NAME=LO:HI, got `{spec}`"))?;
    let (lo, hi) = match rest.split_once(':') {
        Some((lo, hi)) => (lo, hi),
        None => (rest, rest),
    };
    let lo: f64 = lo
        .trim()
        .parse()
        .map_err(|_| format!("--range `{spec}`: bad number `{lo}`"))?;
    let hi: f64 = hi
        .trim()
        .parse()
        .map_err(|_| format!("--range `{spec}`: bad number `{hi}`"))?;
    if lo.is_nan() || hi.is_nan() || lo > hi {
        return Err(format!("--range `{spec}`: LO must be <= HI"));
    }
    Ok((name.to_owned(), powerplay_analysis::Interval::new(lo, hi)))
}

fn cmd_sweep(args: &[String]) -> Result<(), String> {
    let [path, global, values] = args else {
        return Err("usage: sweep <design.json> <global> <v1,v2,...>".into());
    };
    let points: Vec<f64> = values
        .split(',')
        .map(|v| v.trim().parse().map_err(|_| format!("bad value `{v}`")))
        .collect::<Result<_, _>>()?;
    let pp = PowerPlay::new();
    let sheet = load_design(path)?;
    let curve = powerplay::whatif::sweep_global(&sheet, pp.registry(), global, &points)
        .map_err(|e| e.to_string())?;
    println!("{global:>12} {:>14}", "total power");
    for (value, total) in curve {
        println!("{value:>12} {:>14}", total.to_string());
    }
    Ok(())
}

fn cmd_lump(args: &[String]) -> Result<(), String> {
    let [path, name] = args else {
        return Err("usage: lump <design.json> <macro-name>".into());
    };
    let pp = PowerPlay::new();
    let sheet = load_design(path)?;
    let lumped = sheet
        .to_macro(name.clone(), pp.registry())
        .map_err(|e| e.to_string())?;
    println!("{}", lumped.to_json().to_pretty());
    Ok(())
}

fn cmd_compare(args: &[String]) -> Result<(), String> {
    let [a, b] = args else {
        return Err("usage: compare <a.json> <b.json>".into());
    };
    let pp = PowerPlay::new();
    let ra = pp.play(&load_design(a)?).map_err(|e| e.to_string())?;
    let rb = pp.play(&load_design(b)?).map_err(|e| e.to_string())?;
    let cmp = powerplay_sheet::compare::Comparison::new(&ra, &rb);
    print!("{cmp}");
    println!(
        "improvement (baseline/alternative): {:.2}x",
        cmp.improvement()
    );
    Ok(())
}

fn cmd_sens(args: &[String]) -> Result<(), String> {
    let [path] = args else {
        return Err("usage: sens <design.json>".into());
    };
    let pp = PowerPlay::new();
    let sheet = load_design(path)?;
    let sens =
        powerplay::whatif::sensitivities(&sheet, pp.registry()).map_err(|e| e.to_string())?;
    println!("{:<16} {:>12}", "global", "S = (dP/P)/(dx/x)");
    for (name, s) in sens {
        println!("{name:<16} {s:>12.3}");
    }
    Ok(())
}

fn cmd_mc(args: &[String]) -> Result<(), String> {
    let [path, rel, trials, globals] = args else {
        return Err("usage: mc <design.json> <rel> <trials> <g1,g2,...>".into());
    };
    let rel: f64 = rel.parse().map_err(|_| format!("bad rel `{rel}`"))?;
    let trials: usize = trials
        .parse()
        .map_err(|_| format!("bad trials `{trials}`"))?;
    let names: Vec<&str> = globals.split(',').map(str::trim).collect();
    let pp = PowerPlay::new();
    let sheet = load_design(path)?;
    let mc = powerplay::whatif::monte_carlo(&sheet, pp.registry(), &names, rel, trials, 1996)
        .map_err(|e| e.to_string())?;
    println!(
        "trials {trials}, +/-{:.0}% on {}",
        rel * 100.0,
        names.join(", ")
    );
    for q in [0.1, 0.5, 0.9] {
        println!("p{:<3} {}", (q * 100.0) as u32, mc.quantile(q));
    }
    println!("p90/p10 spread: {:.2}x", mc.spread());
    Ok(())
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let mut addr = "127.0.0.1:8096".to_owned();
    let mut seed_demo = false;
    let mut data_dir = std::env::temp_dir().join("powerplay-cli-www");
    let mut config = powerplay_web::http::ServerConfig::default();
    fn flag_value<T: std::str::FromStr>(
        it: &mut std::slice::Iter<'_, String>,
        flag: &str,
    ) -> Result<T, String> {
        it.next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .parse()
            .map_err(|_| format!("{flag} needs a number"))
    }
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--seed-demo" => seed_demo = true,
            "--data-dir" => {
                data_dir = it.next().ok_or("--data-dir needs a path")?.into();
            }
            "--workers" => config.workers = flag_value(&mut it, "--workers")?,
            "--queue" => config.queue_capacity = flag_value(&mut it, "--queue")?,
            "--max-conns" => config.max_connections = flag_value(&mut it, "--max-conns")?,
            "--read-timeout-ms" => {
                config.read_timeout =
                    std::time::Duration::from_millis(flag_value(&mut it, "--read-timeout-ms")?);
            }
            "--write-timeout-ms" => {
                config.write_timeout =
                    std::time::Duration::from_millis(flag_value(&mut it, "--write-timeout-ms")?);
            }
            other => addr = other.to_owned(),
        }
    }
    let app = powerplay_web::app::PowerPlayApp::new(ucb_library(), data_dir);
    if seed_demo {
        // The paper's worked examples, saved for user `demo` so smoke
        // tests (and first-time visitors) have designs to play with.
        for (name, text) in [
            (
                "infopad",
                include_str!("../../examples/designs/infopad.json"),
            ),
            (
                "luminance",
                include_str!("../../examples/designs/luminance_direct_lut.json"),
            ),
        ] {
            let json = Json::parse(text).map_err(|e| format!("demo design {name}: {e}"))?;
            let sheet = Sheet::from_json(&json).map_err(|e| format!("demo design {name}: {e}"))?;
            let rev = app
                .store()
                .save("demo", name, std::sync::Arc::new(sheet), None)
                .map_err(|e| e.to_string())?;
            println!("seeded design `{name}` for user `demo` (rev {rev})");
        }
    }
    let server = app.serve_with(&addr, config).map_err(|e| e.to_string())?;
    println!("PowerPlay serving at http://{}", server.addr());
    server.join();
    Ok(())
}

/// `designs [--data-dir <dir>] [<user> [<design>]]` — inspect the
/// durable store directly: users, their designs (current revision and
/// retained history depth), or one design's revision list.
fn cmd_designs(args: &[String]) -> Result<(), String> {
    let mut data_dir = std::env::temp_dir().join("powerplay-cli-www");
    let mut positional: Vec<&str> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--data-dir" => {
                data_dir = it.next().ok_or("--data-dir needs a path")?.into();
            }
            other => positional.push(other),
        }
    }
    let store = powerplay_store::DesignStore::open(data_dir).map_err(|e| e.to_string())?;
    match positional.as_slice() {
        [] => {
            let users = store.users().map_err(|e| e.to_string())?;
            if users.is_empty() {
                eprintln!("no users in {}", store.root().display());
            }
            for user in &users {
                // Reserved shards (imported libraries) get their own
                // section below, not a row in the user listing.
                if user.starts_with('_') {
                    continue;
                }
                let designs = store.list(user).map_err(|e| e.to_string())?;
                println!("{:<24} {} design(s)", user, designs.len());
            }
            let libraries = store
                .list_docs(powerplay_web::app::LIBRARY_SHARD)
                .map_err(|e| e.to_string())?;
            if !libraries.is_empty() {
                println!("imported libraries:");
                for lib in libraries {
                    let Some((rev, manifest)) = store
                        .load_doc(powerplay_web::app::LIBRARY_SHARD, &lib.name)
                        .map_err(|e| e.to_string())?
                    else {
                        continue;
                    };
                    println!(
                        "  {:<24} rev {:<4} {:>4} cell(s)  source hash {}",
                        lib.name,
                        rev,
                        manifest["cells_mapped"].as_f64().unwrap_or(0.0),
                        manifest["source_hash"].as_str().unwrap_or("-"),
                    );
                }
            }
        }
        [user] => {
            for d in store.list(user).map_err(|e| e.to_string())? {
                println!(
                    "{:<32} rev {:<6} {} revision(s) kept",
                    d.name, d.rev, d.revisions
                );
            }
        }
        [user, design] => {
            let revs = store
                .revisions(user, design)
                .map_err(|e| e.to_string())?
                .ok_or_else(|| format!("no design `{design}` for user `{user}`"))?;
            for (i, rev) in revs.iter().enumerate() {
                let marker = if i == 0 { "  (current)" } else { "" };
                println!("rev {rev}{marker}");
            }
        }
        _ => return Err("usage: designs [--data-dir <dir>] [<user> [<design>]]".into()),
    }
    Ok(())
}

fn cmd_fetch(args: &[String]) -> Result<(), String> {
    let [base] = args else {
        return Err("usage: fetch <http://site>".into());
    };
    let registry = powerplay_web::remote::fetch_library(base).map_err(|e| e.to_string())?;
    eprintln!("fetched {} models from {base}", registry.len());
    println!("{}", registry.to_json().to_pretty());
    Ok(())
}

/// `watch <http://site> <user> <design>` — follow a design's live SSE
/// stream, one line per event. The shared HTTP client can't be used
/// here: it reads exactly one delimited response, while an event stream
/// stays open indefinitely, so this speaks the wire format directly.
fn cmd_watch(args: &[String]) -> Result<(), String> {
    use std::io::{BufRead, BufReader, Write};

    let [base, user, design] = args else {
        return Err("usage: watch <http://site> <user> <design>".into());
    };
    let rest = base
        .trim_end_matches('/')
        .strip_prefix("http://")
        .ok_or_else(|| format!("unsupported url `{base}` (need http://host[:port])"))?;
    let host_port = if rest.contains(':') {
        rest.to_owned()
    } else {
        format!("{rest}:80")
    };
    let encode = powerplay_web::http::urlencoded::encode;
    let path = format!("/api/v1/designs/{}/{}/events", encode(user), encode(design));

    let mut stream = std::net::TcpStream::connect(&host_port)
        .map_err(|e| format!("connect {host_port}: {e}"))?;
    stream
        .write_all(
            format!(
                "GET {path} HTTP/1.1\r\nHost: {host_port}\r\nAccept: text/event-stream\r\n\r\n"
            )
            .as_bytes(),
        )
        .map_err(|e| e.to_string())?;

    let mut reader = BufReader::new(stream);
    // Status line + headers; the stream has no Content-Length, events
    // follow until the server says `bye` or the connection drops.
    let mut line = String::new();
    reader.read_line(&mut line).map_err(|e| e.to_string())?;
    let status = line.split_whitespace().nth(1).unwrap_or("");
    if status != "200" {
        return Err(format!("server answered {}", line.trim()));
    }
    while {
        line.clear();
        reader.read_line(&mut line).map_err(|e| e.to_string())?;
        !matches!(line.as_str(), "\r\n" | "\n" | "")
    } {}
    eprintln!("watching {user}/{design} at {base} (ctrl-c to stop)");

    // SSE framing: accumulate `id`/`event`/`data` fields until a blank
    // line dispatches the event; `:` lines are heartbeat comments.
    let (mut id, mut event, mut data) = (String::new(), String::new(), String::new());
    loop {
        line.clear();
        if reader.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
            eprintln!("server closed the stream");
            return Ok(());
        }
        let trimmed = line.trim_end_matches(['\r', '\n']);
        if trimmed.is_empty() {
            if !event.is_empty() {
                let tag = if id.is_empty() {
                    event.clone()
                } else {
                    format!("{event} #{id}")
                };
                println!("{tag:<16} {data}");
                if event == "bye" {
                    return Ok(());
                }
            }
            id.clear();
            event.clear();
            data.clear();
        } else if let Some(value) = trimmed.strip_prefix("id:") {
            id = value.trim().to_owned();
        } else if let Some(value) = trimmed.strip_prefix("event:") {
            event = value.trim().to_owned();
        } else if let Some(value) = trimmed.strip_prefix("data:") {
            if !data.is_empty() {
                data.push('\n');
            }
            data.push_str(value.trim_start());
        }
        // Anything else (retry hints, `:hb` comments) is ignored.
    }
}
