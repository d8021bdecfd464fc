//! Shared machinery: the workload interface, booting the real app on
//! the epoll reactor over a seeded store, the closed-loop wire driver,
//! and the small statistics the report needs.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use powerplay_library::builtin::ucb_library;
use powerplay_web::app::PowerPlayApp;
use powerplay_web::http::{Request, Response, ServerHandle};

use crate::wire::{Answer, Conn, Req};

/// What one API call is, for the checks and the traced run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    Put,
    Play,
    Sweep,
    Import,
    Analyze,
    Lint,
}

pub struct Call {
    pub kind: Kind,
    /// Index of the design the call touches, in the workload's list.
    pub design: usize,
    pub req: Req,
}

/// One timed operation: calls sent back to back on one connection.
/// With `await_rev`, the operation ends when the subscriber reads the
/// `revision` event with that id instead of at the last answer.
pub struct Op {
    pub calls: Vec<Call>,
    pub await_rev: Option<u64>,
}

/// An event as the subscriber thread read it.
pub struct Seen {
    pub id: Option<u64>,
    pub kind: String,
    pub data: String,
    pub at: Instant,
}

pub trait Workload {
    /// Requests that seed the store, sent in-process to a first app
    /// instance over a fresh directory.
    fn seed_requests(&self) -> Vec<Req>;

    /// `(user, name, is_document)` of everything the workload reads.
    fn touched(&self) -> Vec<(String, String, bool)>;

    /// Brings every design the workload touches to answer once over the
    /// wire (and, for the editor, opens the subscriber).
    fn warm(&mut self, addr: std::net::SocketAddr) -> Result<(), String>;

    fn next_op(&mut self) -> Op;

    /// Waits for the subscriber to read the `revision` event `rev`.
    fn await_event(&mut self, _rev: u64) -> Result<Seen, String> {
        Err("this workload has no event stream".into())
    }

    /// Runs after an operation's timed window closed: cheap checks now,
    /// compact records for the checks after the run.
    fn record(&mut self, op: &Op, answers: &[Answer], event: Option<&Seen>) -> Result<(), String>;

    /// The checks that need the whole run: references, ordering, and
    /// what a reopened store returns. Runs after the server stopped.
    fn verify(&mut self, dir: &Path) -> Result<(), String>;

    /// Work the traced run times outside the handler for one call, by
    /// calling the layer's public functions on the same inputs.
    fn outside(
        &mut self,
        call: &Call,
        response: &Response,
        event: Option<&Seen>,
    ) -> Vec<(&'static str, f64)>;

    /// Stops client threads after the server shut down.
    fn close(&mut self) {}
}

/// A running instance: the store directory and the app on the reactor.
pub struct Instance {
    pub dir: PathBuf,
    pub app: Arc<PowerPlayApp>,
    pub server: ServerHandle,
}

/// Sends `reqs` to a first app instance over `dir`, in-process.
pub fn seed(dir: &Path, reqs: &[Req]) -> Result<(), String> {
    let app = PowerPlayApp::new(ucb_library(), dir.to_path_buf());
    for r in reqs {
        let response = handle(&app, r)?;
        let code = response.status().code();
        if !(200..300).contains(&code) {
            return Err(format!(
                "seeding request answered {code}: {}",
                response.body_text()
            ));
        }
    }
    Ok(())
}

/// Parses the exact request bytes and hands them to the app.
pub fn handle(app: &PowerPlayApp, r: &Req) -> Result<Response, String> {
    let (request, _) = Request::parse_prefix(&r.bytes)
        .map_err(|e| format!("request did not parse: {e}"))?
        .ok_or("request bytes are incomplete")?;
    Ok(app.handle(&request))
}

/// Restarts the app over a seeded directory — WAL and snapshot
/// recovery plus the `_libraries` replay — and serves it on loopback.
pub fn boot(dir: &Path) -> Result<Instance, String> {
    let app = PowerPlayApp::new(ucb_library(), dir.to_path_buf());
    let server = app
        .serve("127.0.0.1:0")
        .map_err(|e| format!("bind loopback: {e}"))?;
    Ok(Instance {
        dir: dir.to_path_buf(),
        app,
        server,
    })
}

impl Instance {
    pub fn stop(self) {
        self.server.shutdown();
        drop(self.app);
    }
}

/// Latencies of the operations of one closed-loop phase, in ms.
#[derive(Default)]
pub struct Samples {
    pub op_ms: Vec<f64>,
    pub first_ms: Vec<f64>,
    /// Start of each operation, seconds after the first one.
    pub at_s: Vec<f64>,
    origin: Option<Instant>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Samples {
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(msg);
        }
    }
}

/// Drives the workload's closed loop over `conn` until `deadline`,
/// adding to `out`.
pub fn run_wire(wl: &mut dyn Workload, conn: &mut Conn, deadline: Instant, out: &mut Samples) {
    let origin = *out.origin.get_or_insert_with(Instant::now);
    while Instant::now() < deadline {
        let op = wl.next_op();
        out.attempted += 1;
        let start = Instant::now();
        let mut first = None;
        let mut answers = Vec::with_capacity(op.calls.len());
        let mut broken = None;
        for call in &op.calls {
            match conn.call(&call.req) {
                Ok(answer) => {
                    first.get_or_insert_with(Instant::now);
                    answers.push(answer);
                }
                Err(e) => {
                    broken = Some(format!("{:?} call: {e}", call.kind));
                    break;
                }
            }
        }
        let mut end = Instant::now();
        if let Some(msg) = broken {
            out.fail(msg);
            return;
        }
        let event = match op.await_rev {
            Some(rev) => match wl.await_event(rev) {
                Ok(seen) => {
                    end = seen.at;
                    Some(seen)
                }
                Err(msg) => {
                    out.fail(msg);
                    return;
                }
            },
            None => None,
        };
        out.at_s.push((start - origin).as_secs_f64());
        out.op_ms.push(ms(end - start));
        out.first_ms
            .push(ms(first.expect("at least one call") - start));
        if let Err(msg) = wl.record(&op, &answers, event.as_ref()) {
            out.fail(msg);
        }
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Linear-interpolation quantile of unsorted samples (`q` in [0, 1]).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Peak resident memory of this process (VmHWM), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs `check` over contiguous chunks of `0..n` on one scoped thread
/// per core; the first error wins. For the whole-run checks, which are
/// independent per operation.
pub fn par_check(
    n: usize,
    check: impl Fn(std::ops::Range<usize>) -> Result<(), String> + Sync,
) -> Result<(), String> {
    let threads = std::thread::available_parallelism()
        .map_or(1, |t| t.get())
        .max(1);
    let chunk = n.div_ceil(threads).max(1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n)
            .step_by(chunk)
            .map(|start| {
                let check = &check;
                scope.spawn(move || check(start..(start + chunk).min(n)))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("check thread panicked".into()))
            })
            .collect::<Result<Vec<()>, String>>()
            .map(|_| ())
    })
}
