//! The traced run: the same operations replayed in-process, each layer
//! timed from outside — by calling its public functions on the same
//! inputs, and by reading the counters and histogram count/sum the
//! program already exports (never bucket quantiles, so a change of
//! histogram layout leaves every number here unchanged).

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use powerplay_json::Json;
use powerplay_web::app::PowerPlayApp;
use powerplay_web::http::Request;

use crate::bench::{median, ms, Op, Workload};
use crate::jsonread;
use crate::timed;
use crate::wire::Answer;

/// A point-in-time reading of the global telemetry registry.
pub struct Tele {
    counters: HashMap<String, u64>,
    gauges: HashMap<String, i64>,
    hists: HashMap<String, (u64, f64)>,
}

/// Whether a rendered series name belongs to `family` (any labels).
fn of_family(series: &str, family: &str) -> bool {
    series == family || (series.starts_with(family) && series[family.len()..].starts_with('{'))
}

impl Tele {
    pub fn read() -> Tele {
        let snap = powerplay_telemetry::global().snapshot();
        Tele {
            counters: snap.counters.into_iter().collect(),
            gauges: snap.gauges.into_iter().collect(),
            hists: snap
                .histograms
                .into_iter()
                .map(|h| (h.name, (h.count, h.sum_seconds)))
                .collect(),
        }
    }

    fn counter(&self, family: &str) -> f64 {
        self.counters
            .iter()
            .filter(|(k, _)| of_family(k, family))
            .map(|(_, v)| *v as f64)
            .sum()
    }

    fn gauge(&self, family: &str) -> f64 {
        self.gauges
            .iter()
            .filter(|(k, _)| of_family(k, family))
            .map(|(_, v)| *v as f64)
            .sum()
    }

    /// Summed `(count, sum)` over the family's series; the sum is in
    /// seconds for latency histograms and in units for value ones.
    fn hist(&self, family: &str) -> (f64, f64) {
        self.hists
            .iter()
            .filter(|(k, _)| of_family(k, family))
            .fold((0.0, 0.0), |(c, s), (_, (n, sum))| (c + *n as f64, s + sum))
    }
}

/// Differences between two readings.
pub struct Delta<'a>(pub &'a Tele, pub &'a Tele);

impl Delta<'_> {
    pub fn counter(&self, family: &str) -> f64 {
        self.1.counter(family) - self.0.counter(family)
    }
    pub fn gauge(&self, family: &str) -> f64 {
        self.1.gauge(family) - self.0.gauge(family)
    }
    pub fn count(&self, family: &str) -> f64 {
        self.1.hist(family).0 - self.0.hist(family).0
    }
    pub fn sum(&self, family: &str) -> f64 {
        self.1.hist(family).1 - self.0.hist(family).1
    }
    pub fn sum_ms(&self, family: &str) -> f64 {
        self.sum(family) * 1e3
    }
}

/// Time to encode a JSON answer again with the program's encoder, after
/// reading it with the benchmark's own reader.
pub fn encode_ms(text: &str) -> f64 {
    match jsonread::parse(text) {
        Ok(json) => timed(|| json.to_string()).1,
        Err(_) => 0.0,
    }
}

/// Layers whose per-operation time the handler contains, attributed
/// from telemetry deltas or from calls made outside the handler. Their
/// sum is subtracted from `app.handle` to give `app.self`.
pub const CHILDREN: [&str; 10] = [
    "json.parse",
    "json.encode",
    "sheet.decode",
    "sheet.compile",
    "sheet.replay",
    "whatif.sweep",
    "store.commit",
    "liberty.import",
    "lint.run",
    "analysis.run",
];

/// One recorded span. Telemetry-attributed children have a duration
/// but no timestamps.
struct Span {
    op: u64,
    name: &'static str,
    parent: Option<&'static str>,
    start_ns: Option<u64>,
    dur_ns: u64,
}

#[derive(Default)]
pub struct Tracer {
    t0: Option<Instant>,
    spans: Vec<Span>,
    /// Per traced operation: layer → ms.
    pub traced: Vec<BTreeMap<&'static str, f64>>,
    /// Per untraced in-process operation: parse + handle + write, ms.
    pub bare_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Tracer {
    fn span(
        &mut self,
        op: u64,
        name: &'static str,
        parent: Option<&'static str>,
        start: Option<Instant>,
        dur_ms: f64,
    ) {
        let t0 = *self.t0.get_or_insert_with(Instant::now);
        self.spans.push(Span {
            op,
            name,
            parent,
            start_ns: start.map(|s| s.saturating_duration_since(t0).as_nanos() as u64),
            dur_ns: (dur_ms * 1e6).max(0.0) as u64,
        });
    }

    /// Writes the spans as JSON lines.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let line = Json::object([
                ("op", Json::from(s.op as f64)),
                ("name", Json::from(s.name)),
                ("parent", s.parent.map_or(Json::Null, Json::from)),
                (
                    "start_ns",
                    s.start_ns.map_or(Json::Null, |n| Json::from(n as f64)),
                ),
                (
                    "end_ns",
                    s.start_ns
                        .map_or(Json::Null, |n| Json::from((n + s.dur_ns) as f64)),
                ),
                ("dur_ns", Json::from(s.dur_ns as f64)),
            ]);
            writeln!(out, "{line}")?;
        }
        out.flush()
    }
}

/// Runs operations in-process until `deadline`, alternating untraced
/// ones (for the tracing overhead) with traced ones.
pub fn run(wl: &mut dyn Workload, app: &PowerPlayApp, deadline: Instant, tr: &mut Tracer) {
    tr.t0.get_or_insert_with(Instant::now);
    let mut n: u64 = 0;
    while Instant::now() < deadline {
        let op = wl.next_op();
        n += 1;
        tr.attempted += 1;
        if let Err(msg) = one(wl, app, &op, n, n.is_multiple_of(2), tr) {
            tr.failed += 1;
            if tr.errors.len() < 8 {
                tr.errors.push(msg);
            }
        }
    }
}

fn one(
    wl: &mut dyn Workload,
    app: &PowerPlayApp,
    op: &Op,
    id: u64,
    traced: bool,
    tr: &mut Tracer,
) -> Result<(), String> {
    let mut layers: BTreeMap<&'static str, f64> = BTreeMap::new();
    let add = |layers: &mut BTreeMap<&'static str, f64>, k: &'static str, v: f64| {
        *layers.entry(k).or_insert(0.0) += v;
    };
    let mut responses = Vec::with_capacity(op.calls.len());
    let mut inproc = 0.0;
    let op_start = Instant::now();
    for call in &op.calls {
        let before = traced.then(Tele::read);
        let t0 = Instant::now();
        let (request, _) = Request::parse_prefix(&call.req.bytes)
            .map_err(|e| e.to_string())?
            .ok_or("incomplete request bytes")?;
        let t1 = Instant::now();
        let response = app.handle(&request);
        let t2 = Instant::now();
        let mut sink = Vec::with_capacity(response.body().len() + 256);
        response
            .write_to(&mut sink, true)
            .map_err(|e| e.to_string())?;
        let t3 = Instant::now();
        inproc += ms(t3 - t0);
        if let Some(before) = before {
            let after = Tele::read();
            let d = Delta(&before, &after);
            let (parse, handle, write) = (ms(t1 - t0), ms(t2 - t1), ms(t3 - t2));
            add(&mut layers, "http.parse", parse);
            add(&mut layers, "app.handle", handle);
            add(&mut layers, "http.write", write);
            tr.span(id, "http.parse", Some("op"), Some(t0), parse);
            tr.span(id, "app.handle", Some("op"), Some(t1), handle);
            tr.span(id, "http.write", Some("op"), Some(t2), write);
            let attributed = [
                ("sheet.compile", d.sum_ms("powerplay_sheet_compile_seconds")),
                (
                    "sheet.replay",
                    d.sum_ms("powerplay_sheet_replay_seconds")
                        + d.sum_ms("powerplay_sheet_delta_replay_seconds"),
                ),
                ("store.commit", d.sum_ms("powerplay_store_commit_seconds")),
                (
                    "liberty.import",
                    d.sum_ms("powerplay_liberty_import_seconds"),
                ),
                ("lint.run", d.sum_ms("powerplay_lint_pass_seconds")),
                ("analysis.run", d.sum_ms("powerplay_analysis_seconds")),
                ("events.lag", d.sum_ms("powerplay_events_lag_seconds")),
            ];
            for (name, v) in attributed {
                if v > 0.0 {
                    add(&mut layers, name, v);
                    tr.span(id, name, Some("app.handle"), None, v);
                }
            }
            let commits = d.counter("powerplay_store_commits_total");
            let wal = d.gauge("powerplay_store_wal_bytes");
            if commits > 0.0 && wal > 0.0 {
                add(&mut layers, "store.wal_kb", wal / 1024.0);
            }
            if let Some(body) = json_body(&call.req) {
                add(&mut layers, "json.body_kb", body as f64 / 1024.0);
            }
        }
        responses.push(response);
    }
    if traced {
        tr.span(id, "op", None, Some(op_start), ms(op_start.elapsed()));
    }
    let event = match op.await_rev {
        Some(rev) => Some(wl.await_event(rev)?),
        None => None,
    };
    if traced {
        for (call, response) in op.calls.iter().zip(&responses) {
            for (name, v) in wl.outside(call, response, event.as_ref()) {
                add(&mut layers, name, v);
                tr.span(id, name, Some("app.handle"), None, v);
            }
        }
        layers.insert("inproc", inproc);
        tr.traced.push(layers);
    } else {
        tr.bare_ms.push(inproc);
    }
    let answers: Vec<Answer> = responses
        .iter()
        .map(|r| Answer {
            status: r.status().code(),
            etag: r.header("etag").map(str::to_owned),
            body: r.body().to_vec(),
        })
        .collect();
    wl.record(op, &answers, event.as_ref())
}

/// Length of a JSON request body, if the request carries one.
fn json_body(req: &crate::wire::Req) -> Option<usize> {
    let head = std::str::from_utf8(&req.bytes[..req.body_at]).ok()?;
    (head.contains("application/json") && !req.body().is_empty()).then(|| req.body().len())
}

/// Median over traced operations of one layer's per-operation time
/// (0 where the layer never ran).
pub fn layer_p50(tr: &Tracer, layer: &str) -> f64 {
    let v: Vec<f64> = tr
        .traced
        .iter()
        .map(|l| l.get(layer).copied().unwrap_or(0.0))
        .collect();
    median(&v)
}

/// `app.self` per traced operation: handler time not attributed to any
/// child layer.
pub fn app_self_p50(tr: &Tracer) -> f64 {
    let v: Vec<f64> = tr
        .traced
        .iter()
        .map(|l| {
            let children: f64 = CHILDREN.iter().filter_map(|c| l.get(c)).sum();
            l.get("app.handle").copied().unwrap_or(0.0) - children
        })
        .collect();
    median(&v)
}

/// Median of a per-operation quantity over operations where it occurred
/// (0 if it never did).
pub fn present_p50(tr: &Tracer, layer: &str) -> f64 {
    let v: Vec<f64> = tr
        .traced
        .iter()
        .filter_map(|l| l.get(layer).copied())
        .collect();
    median(&v)
}
