//! The edit-to-estimate benchmark for PowerPlay.
//!
//! ```text
//! python3 perfbench/run.py \
//!     --workload <edit_to_event|play_sweep|import_then_play> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the root of a checkout; `run.py` builds this binary so that
//! the same sources give the same binary in any checkout, then runs it
//! with the same arguments. Each run boots the real
//! `PowerPlayApp` on the epoll reactor over a store it seeds itself,
//! drives one seeded closed-loop workload over loopback through
//! `/api/v1` only, checks every answer, and prints one JSON line last:
//! the end-to-end metrics with `--trace 0`, the per-layer trace with
//! `--trace 1`. See `perfbench/README.md`.

mod bench;
mod check;
mod edit;
mod gen;
mod import;
mod jsonread;
mod playsweep;
mod rng;
mod trace;
mod wire;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use powerplay_json::Json;
use powerplay_store::DesignStore;

use bench::{mean, median, ms, quantile, Instance, Samples, Workload};
use trace::{Delta, Tele, Tracer};
use wire::Conn;

/// Runs `f`, returning its value and its wall time in ms.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, ms(start.elapsed()))
}

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// CPU time (user plus system, every thread) this process has used, in
/// seconds. It counts from the process's creation, across `exec`.
fn cpu_seconds() -> f64 {
    let mut t = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `t` is a valid, writable `struct timespec`.
    let ret = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut t) };
    assert_eq!(ret, 0, "the process CPU clock is always available");
    t.sec as f64 + t.nsec as f64 * 1e-9
}

/// When this program started, by the wall clock and by the process's
/// CPU clock (which also holds what ran in the process before `exec`).
#[derive(Clone, Copy)]
struct Started {
    wall: Instant,
    cpu: f64,
}

impl Started {
    fn now() -> Started {
        Started {
            wall: Instant::now(),
            cpu: cpu_seconds(),
        }
    }

    /// CPU and wall seconds since the start.
    fn elapsed(&self) -> (f64, f64) {
        (cpu_seconds() - self.cpu, self.wall.elapsed().as_secs_f64())
    }
}

const USAGE: &str = "usage: perfbench --workload <edit_to_event|play_sweep|import_then_play> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Untraced runs set up this many times and report the median: once
/// from process start, then after each but the last of as many equal
/// slices of the timed loop, in a fresh child process. The set-ups so
/// spread over the whole run, as the operations do.
const SETUPS: u32 = 6;

/// The flag that makes a child process set up once and exit.
const SETUP_ONLY: &str = "--setup-only";

/// Where runs keep their stores, traces and run records.
const OUT_DIR: &str = ".perfbench";

/// Every per-layer metric, in report order, with its unit.
const PER_LAYER: [(&str, &str); 36] = [
    ("op.untraced_ms", "ms"),
    ("http.transport_ms", "ms"),
    ("http.parse_ms", "ms"),
    ("http.write_ms", "ms"),
    ("app.handle_ms", "ms"),
    ("app.self_ms", "ms"),
    ("json.parse_ms", "ms"),
    ("json.body_kb", "KiB"),
    ("json.encode_ms", "ms"),
    ("sheet.decode_ms", "ms"),
    ("sheet.compile_ms", "ms"),
    ("sheet.compiles_per_op", "count"),
    ("sheet.replay_ms", "ms"),
    ("sheet.rows_per_op", "count"),
    ("sheet.instrs_per_op", "count"),
    ("sheet.delta_dirty_rows", "count"),
    ("sheet.delta_fallback_ratio", "ratio"),
    ("whatif.sweep_ms", "ms"),
    ("whatif.points_per_op", "count"),
    ("whatif.memo_hit_ratio", "ratio"),
    ("cache.hit_ratio", "ratio"),
    ("cache.evictions_per_op", "count"),
    ("store.commit_ms", "ms"),
    ("store.commits_per_op", "count"),
    ("store.wal_kb_per_commit", "KiB"),
    ("store.compactions_per_op", "count"),
    ("store.recovery_ms", "ms"),
    ("events.lag_ms", "ms"),
    ("events.published_per_op", "count"),
    ("events.dropped", "count"),
    ("liberty.import_ms", "ms"),
    ("liberty.cells_per_op", "count"),
    ("lint.run_ms", "ms"),
    ("analysis.run_ms", "ms"),
    ("residual_ms", "ms"),
    ("trace_overhead_ms", "ms"),
];

struct Opts {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    setup_only: bool,
}

fn parse_args() -> Result<Opts, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let at = args
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        args.get(at + 1)
            .cloned()
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    if !["edit_to_event", "play_sweep", "import_then_play"].contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`"));
    }
    let num = |v: String, flag: &str| {
        v.parse::<u64>()
            .map_err(|_| format!("{flag} takes a whole number"))
    };
    let seed = num(get("--seed")?, "--seed")?;
    let seconds = num(get("--seconds")?, "--seconds")?.max(1);
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
    };
    Ok(Opts {
        workload,
        seed,
        seconds,
        trace,
        setup_only: args.iter().any(|a| a == SETUP_ONLY),
    })
}

fn make(workload: &str, seed: u64) -> Box<dyn Workload> {
    match workload {
        "edit_to_event" => Box::new(edit::EditToEvent::new(seed)),
        "play_sweep" => Box::new(playsweep::PlaySweep::new(seed)),
        _ => Box::new(import::ImportThenPlay::new(seed)),
    }
}

/// The generated inputs' sizes, for the run record.
fn input_sizes(workload: &str, seed: u64) -> Json {
    match workload {
        "edit_to_event" => {
            let w = edit::EditToEvent::new(seed);
            Json::object([
                ("design_rows", Json::from(w.rows())),
                ("body_bytes", Json::from(w.body_bytes())),
            ])
        }
        "play_sweep" => {
            let w = playsweep::PlaySweep::new(seed);
            Json::object([
                ("designs", Json::from(w.design_count())),
                (
                    "tiled_rows",
                    w.tiled_rows().into_iter().map(Json::from).collect(),
                ),
                ("sweep_points", Json::from(gen::SWEEP_POINTS)),
            ])
        }
        _ => {
            let w = import::ImportThenPlay::new(seed);
            Json::object([
                ("cells", Json::from(import::CELLS)),
                ("library_bytes", Json::from(w.library_bytes())),
                ("designs", Json::from(import::DESIGNS)),
                ("design_rows", Json::from(w.design_rows())),
            ])
        }
    }
}

fn main() -> ExitCode {
    let started = Started::now();
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("perfbench: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = if opts.setup_only {
        setup_only(&opts, started)
    } else {
        run(&opts, started)
    };
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// Seeds a fresh store directory through the app, restarts the app on
/// it and brings every touched design to answer once.
fn setup(
    opts: &Opts,
    recovery_ms: &mut Option<f64>,
) -> Result<(Box<dyn Workload>, Instance), String> {
    let mut wl = make(&opts.workload, opts.seed);
    let dir = Path::new(OUT_DIR).join(format!(
        "store-{}-{}-{}",
        opts.workload,
        opts.seed,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    bench::seed(&dir, &wl.seed_requests())?;
    if opts.trace {
        // Recovery from outside: open the seeded directory and load
        // everything the workload touches, as the restart will.
        let store_ms = timed(|| -> Result<(), String> {
            let store = DesignStore::open(&dir).map_err(|e| e.to_string())?;
            for (user, name, doc) in wl.touched() {
                let found = if doc {
                    store
                        .load_doc(&user, &name)
                        .map_err(|e| e.to_string())?
                        .is_some()
                } else {
                    store
                        .load(&user, &name)
                        .map_err(|e| e.to_string())?
                        .is_some()
                };
                if !found {
                    return Err(format!("seeded `{user}/{name}` is missing"));
                }
            }
            Ok(())
        });
        store_ms.0?;
        *recovery_ms = Some(store_ms.1);
    }
    let inst = bench::boot(&dir)?;
    wl.warm(inst.server.addr())?;
    Ok((wl, inst))
}

/// Stops the server, then the workload's client threads; returns the
/// store directory.
fn stop(wl: &mut dyn Workload, inst: Instance) -> PathBuf {
    let dir = inst.dir.clone();
    inst.stop();
    wl.close();
    dir
}

/// Stops the run, lets a background compaction settle, then runs the
/// whole-run checks on the store directory and removes it.
fn finish(mut wl: Box<dyn Workload>, inst: Instance) -> Result<(), String> {
    let dir = stop(wl.as_mut(), inst);
    std::thread::sleep(Duration::from_millis(100));
    let verdict = wl.verify(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    verdict
}

/// One set-up in this fresh process, torn down again: its CPU and wall
/// seconds since the program started, for the parent run.
fn setup_only(opts: &Opts, started: Started) -> Result<String, String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("create {OUT_DIR}: {e}"))?;
    let (mut wl, inst) = setup(opts, &mut None)?;
    let (cpu, wall) = started.elapsed();
    let _ = std::fs::remove_dir_all(stop(wl.as_mut(), inst));
    Ok(format!("{cpu} {wall}"))
}

/// Sets up once more in a child process while the live instance idles;
/// returns the child's set-up CPU and wall seconds.
fn setup_in_child(opts: &Opts) -> Result<(f64, f64), String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", &opts.workload])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", "1", "--trace", "0", SETUP_ONLY])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("set-up child: {e}"))?;
    if !out.status.success() {
        return Err(format!("set-up child exited with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let times: Vec<f64> = text
        .split_whitespace()
        .filter_map(|t| t.parse().ok())
        .collect();
    match times[..] {
        [cpu, wall] => Ok((cpu, wall)),
        _ => Err(format!("set-up child printed `{}`", text.trim())),
    }
}

fn run(opts: &Opts, started: Started) -> Result<String, String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("create {OUT_DIR}: {e}"))?;
    let span = Duration::from_secs(opts.seconds);
    let mut wire = Samples::default();
    let mut record = BTreeMap::new();
    let metrics: Vec<(&str, f64, &str)>;
    let (attempted, failed, verdict);
    if !opts.trace {
        let (mut wl, inst) = setup(opts, &mut None)?;
        let mut setups = vec![started.elapsed()];
        let mut conn = Conn::open(inst.server.addr()).map_err(|e| format!("connect: {e}"))?;
        for k in 1..=SETUPS {
            bench::run_wire(
                wl.as_mut(),
                &mut conn,
                Instant::now() + span / SETUPS,
                &mut wire,
            );
            if k < SETUPS {
                setups.push(setup_in_child(opts)?);
            }
        }
        let rss = bench::peak_rss_mb();
        drop(conn);
        verdict = finish(wl, inst);
        attempted = wire.attempted;
        failed = wire.failed;
        let setup_cpu: Vec<f64> = setups.iter().map(|s| s.0).collect();
        metrics = vec![
            ("setup_s", median(&setup_cpu), "s"),
            ("op_mean_ms", mean(&wire.op_ms), "ms"),
            ("first_mean_ms", mean(&wire.first_ms), "ms"),
            ("peak_rss_mb", rss, "MiB"),
        ];
        record.insert(
            "setup_cpu_s_each",
            setup_cpu.iter().map(|&s| Json::from(s)).collect(),
        );
        record.insert(
            "setup_wall_s_each",
            setups.iter().map(|s| Json::from(s.1)).collect(),
        );
        // Quantiles, recorded with their sample counts but not gated:
        // the latencies are bimodal on a shared host (see the README),
        // and a quantile jumps between the modes as their mix moves.
        record.insert("quantiles", quantiles(&wire));
        let dump = Json::object([
            ("at_s", wire.at_s.iter().map(|&v| Json::from(v)).collect()),
            ("op_ms", wire.op_ms.iter().map(|&v| Json::from(v)).collect()),
            (
                "first_ms",
                wire.first_ms.iter().map(|&v| Json::from(v)).collect(),
            ),
        ]);
        let _ = std::fs::write(
            Path::new(OUT_DIR).join(format!("samples-{}-{}.json", opts.workload, opts.seed)),
            dump.to_string(),
        );
    } else {
        let mut recovery_ms = None;
        let (mut wl, inst) = setup(opts, &mut recovery_ms)?;
        let mut conn = Conn::open(inst.server.addr()).map_err(|e| format!("connect: {e}"))?;
        // Phase A: the untraced closed loop, for the wire p50 and the
        // per-operation counts. Phase B: the same operation stream
        // in-process, alternating untraced and traced operations.
        let half = span / 2;
        let before = Tele::read();
        bench::run_wire(wl.as_mut(), &mut conn, Instant::now() + half, &mut wire);
        let after = Tele::read();
        let mut tracer = Tracer::default();
        trace::run(wl.as_mut(), &inst.app, Instant::now() + half, &mut tracer);
        drop(conn);
        verdict = finish(wl, inst);
        attempted = wire.attempted + tracer.attempted;
        failed = wire.failed + tracer.failed;
        wire.errors.extend(tracer.errors.iter().cloned());
        let trace_path =
            Path::new(OUT_DIR).join(format!("trace-{}-{}.jsonl", opts.workload, opts.seed));
        tracer
            .write(&trace_path)
            .map_err(|e| format!("write {}: {e}", trace_path.display()))?;
        metrics = layer_metrics(
            &wire,
            &tracer,
            &Delta(&before, &after),
            recovery_ms.unwrap_or(0.0),
        );
        record.insert("traced_ops", Json::from(tracer.traced.len()));
        record.insert("untraced_inproc_ops", Json::from(tracer.bare_ms.len()));
        record.insert("trace_file", Json::from(trace_path.display().to_string()));
    }

    let mut failed = failed;
    if let Err(msg) = &verdict {
        failed += 1;
        wire.errors.push(format!("check: {msg}"));
    }
    for e in &wire.errors {
        eprintln!("perfbench: {e}");
    }
    let correct = failed == 0;
    let metrics_json = Json::Object(
        metrics
            .iter()
            .map(|(name, value, unit)| {
                (
                    (*name).to_owned(),
                    Json::object([("value", Json::from(*value)), ("unit", Json::from(*unit))]),
                )
            })
            .collect(),
    );
    record.insert("op_samples", Json::from(wire.op_ms.len()));
    record.insert("first_samples", Json::from(wire.first_ms.len()));
    write_record(
        opts,
        &record,
        &metrics_json,
        attempted,
        failed,
        &wire.errors,
    );
    Ok(Json::object([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::from(attempted.max(1) as f64)),
        ("failed", Json::from(failed as f64)),
        ("metrics", metrics_json),
    ])
    .to_string())
}

/// p50, p90 and p99 of both latencies, each with the number of samples
/// beyond it.
fn quantiles(wire: &Samples) -> Json {
    let tail = |v: &[f64], q: f64| {
        let at = quantile(v, q);
        Json::object([
            ("value_ms", Json::from(at)),
            (
                "samples_beyond",
                Json::from(v.iter().filter(|&&x| x > at).count()),
            ),
        ])
    };
    Json::object([
        ("op_p50_ms", tail(&wire.op_ms, 0.5)),
        ("op_p90_ms", tail(&wire.op_ms, 0.9)),
        ("op_p99_ms", tail(&wire.op_ms, 0.99)),
        ("first_p50_ms", tail(&wire.first_ms, 0.5)),
        ("first_p90_ms", tail(&wire.first_ms, 0.9)),
        ("first_p99_ms", tail(&wire.first_ms, 0.99)),
    ])
}

/// The per-layer metrics of a traced run. Times are medians over traced
/// operations; counts are phase-A telemetry deltas per operation.
fn layer_metrics(
    wire: &Samples,
    tr: &Tracer,
    d: &Delta<'_>,
    recovery_ms: f64,
) -> Vec<(&'static str, f64, &'static str)> {
    let ops = wire.op_ms.len().max(1) as f64;
    let per_op = |v: f64| v / ops;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let p50 = |layer: &str| trace::layer_p50(tr, layer);

    let untraced = median(&wire.op_ms);
    let bare = median(&tr.bare_ms);
    let transport = untraced - bare;
    let (parse, write) = (p50("http.parse"), p50("http.write"));
    let app_self = trace::app_self_p50(tr);
    let children: f64 = trace::CHILDREN.iter().map(|c| p50(c)).sum();
    let residual = untraced - (transport + parse + write + app_self + children);

    let hits = d.counter("powerplay_web_plan_cache_hits_total");
    let misses = d.counter("powerplay_web_plan_cache_misses_total");
    let memo_hits = d.counter("powerplay_whatif_memo_hits_total");
    let memo_misses = d.counter("powerplay_whatif_memo_misses_total");
    let values: BTreeMap<&str, f64> = BTreeMap::from([
        ("op.untraced_ms", untraced),
        ("http.transport_ms", transport),
        ("http.parse_ms", parse),
        ("http.write_ms", write),
        ("app.handle_ms", p50("app.handle")),
        ("app.self_ms", app_self),
        ("json.parse_ms", p50("json.parse")),
        ("json.body_kb", p50("json.body_kb")),
        ("json.encode_ms", p50("json.encode")),
        ("sheet.decode_ms", p50("sheet.decode")),
        ("sheet.compile_ms", p50("sheet.compile")),
        (
            "sheet.compiles_per_op",
            per_op(d.count("powerplay_sheet_compile_seconds")),
        ),
        ("sheet.replay_ms", p50("sheet.replay")),
        (
            "sheet.rows_per_op",
            per_op(d.counter("powerplay_sheet_rows_evaluated_total")),
        ),
        (
            "sheet.instrs_per_op",
            per_op(d.counter("powerplay_sheet_bytecode_instrs_total")),
        ),
        (
            "sheet.delta_dirty_rows",
            ratio(
                d.sum("powerplay_sheet_delta_dirty_rows"),
                d.count("powerplay_sheet_delta_dirty_rows"),
            ),
        ),
        (
            "sheet.delta_fallback_ratio",
            ratio(
                d.counter("powerplay_sheet_delta_fallbacks_total"),
                d.counter("powerplay_sheet_delta_replays_total"),
            ),
        ),
        ("whatif.sweep_ms", p50("whatif.sweep")),
        (
            "whatif.points_per_op",
            per_op(d.counter("powerplay_whatif_points_total")),
        ),
        (
            "whatif.memo_hit_ratio",
            ratio(memo_hits, memo_hits + memo_misses),
        ),
        ("cache.hit_ratio", ratio(hits, hits + misses)),
        (
            "cache.evictions_per_op",
            per_op(d.counter("powerplay_web_plan_cache_evictions_total")),
        ),
        ("store.commit_ms", p50("store.commit")),
        (
            "store.commits_per_op",
            per_op(d.counter("powerplay_store_commits_total")),
        ),
        (
            "store.wal_kb_per_commit",
            trace::present_p50(tr, "store.wal_kb"),
        ),
        (
            "store.compactions_per_op",
            per_op(d.counter("powerplay_store_compactions_total")),
        ),
        ("store.recovery_ms", recovery_ms),
        ("events.lag_ms", p50("events.lag")),
        (
            "events.published_per_op",
            per_op(d.counter("powerplay_events_published_total")),
        ),
        (
            "events.dropped",
            d.counter("powerplay_events_dropped_total"),
        ),
        ("liberty.import_ms", p50("liberty.import")),
        (
            "liberty.cells_per_op",
            per_op(d.counter("powerplay_liberty_cells_mapped_total")),
        ),
        ("lint.run_ms", p50("lint.run")),
        ("analysis.run_ms", p50("analysis.run")),
        ("residual_ms", residual),
        ("trace_overhead_ms", trace::present_p50(tr, "inproc") - bare),
    ]);
    PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, values[name], unit))
        .collect()
}

/// Filesystem type of the mount holding `path`, from mountinfo.
fn filesystem_of(path: &Path) -> String {
    let Ok(path) = std::fs::canonicalize(path) else {
        return "unknown".into();
    };
    let Ok(info) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".into();
    };
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        let fields: Vec<&str> = line.split(' ').collect();
        let (Some(mount), Some(sep)) = (fields.get(4), fields.iter().position(|f| *f == "-"))
        else {
            continue;
        };
        let Some(fstype) = fields.get(sep + 1) else {
            continue;
        };
        if path.starts_with(mount) && best.as_ref().is_none_or(|(len, _)| mount.len() > *len) {
            best = Some((mount.len(), (*fstype).to_owned()));
        }
    }
    best.map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

/// A fixed CPU loop owned by the benchmark, timed as context for the
/// host's speed during the run. Never used to scale a metric.
fn host_speed_probe_ms() -> f64 {
    timed(|| {
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for i in 0..20_000_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x = x.wrapping_add(i);
        }
        std::hint::black_box(x)
    })
    .1
}

fn write_record(
    opts: &Opts,
    extra: &BTreeMap<&str, Json>,
    metrics: &Json,
    attempted: u64,
    failed: u64,
    errors: &[String],
) {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut record = Json::object([
        ("workload", Json::from(opts.workload.as_str())),
        ("seed", Json::from(opts.seed as f64)),
        ("seconds", Json::from(opts.seconds as f64)),
        ("trace", Json::Bool(opts.trace)),
        (
            "host",
            Json::object([
                ("nproc", Json::from(nproc)),
                ("rustc", Json::from(env!("PERFBENCH_RUSTC"))),
                (
                    "git_rev",
                    Json::from(
                        std::env::var("PERFBENCH_GIT_REV").unwrap_or_else(|_| "none".into()),
                    ),
                ),
                ("store_fs", Json::from(filesystem_of(Path::new(OUT_DIR)))),
                ("speed_probe_ms", Json::from(host_speed_probe_ms())),
            ]),
        ),
        ("inputs", input_sizes(&opts.workload, opts.seed)),
        ("attempted", Json::from(attempted as f64)),
        ("failed", Json::from(failed as f64)),
        (
            "fail_ratio",
            Json::from(failed as f64 / attempted.max(1) as f64),
        ),
        (
            "errors",
            errors.iter().map(|e| Json::from(e.as_str())).collect(),
        ),
        ("metrics", metrics.clone()),
    ]);
    for (k, v) in extra {
        record.set(k, v.clone());
    }
    let path: PathBuf = Path::new(OUT_DIR).join(format!(
        "run-{}-seed{}-trace{}.json",
        opts.workload,
        opts.seed,
        u8::from(opts.trace)
    ));
    if let Err(e) = std::fs::write(&path, record.to_pretty()) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    } else {
        eprintln!("perfbench: run record in {}", path.display());
    }
}
