//! `edit_to_event`: one editor PUTs the whole design with one seeded
//! change and `If-Match`; a second connection holds the design's
//! `events` stream. An operation ends when the subscriber reads the
//! `revision` event of the PUT's revision.

use std::path::Path;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use powerplay_json::Json;
use powerplay_library::builtin::ucb_library;
use powerplay_sheet::Sheet;
use powerplay_store::DesignStore;
use powerplay_web::http::Response;

use crate::bench::{self, Call, Kind, Op, Seen, Workload};
use crate::check;
use crate::gen::{self, Design, Edit, EditGen};
use crate::jsonread;
use crate::timed;
use crate::wire::{Answer, Conn, Req};

pub const USER: &str = "bench";
pub const NAME: &str = "edited";
/// Tiles taken from InfoPad and the two luminance designs.
pub const TILES: [usize; 3] = [4, 3, 3];
/// Revisions committed while seeding, so recovery replays a history.
const SEEDED_REVS: u64 = 16;

pub struct EditToEvent {
    /// The design as seeded (revision `SEEDED_REVS`).
    seeded: Design,
    /// Its seeding bodies, one per seeded revision.
    seed_bodies: Vec<String>,
    design: Design,
    edits: EditGen,
    rev: u64,
    /// Every edit sent, with the revision it should mint.
    sent: Vec<(u64, Edit)>,
    /// Fingerprints of the reports the `revision` events carried.
    reports: Vec<(u64, u64)>,
    events: Option<Receiver<Seen>>,
    subscriber: Option<JoinHandle<()>>,
}

impl EditToEvent {
    pub fn new(seed: u64) -> EditToEvent {
        let mut design = gen::tiled_design(seed, NAME, TILES);
        let mut history = EditGen::new(seed ^ 0x5eed);
        let mut seed_bodies = vec![design.body()];
        for _ in 1..SEEDED_REVS {
            let edit = history.next(&design);
            gen::apply_edit(&mut design, &edit);
            seed_bodies.push(design.body());
        }
        EditToEvent {
            seeded: design.clone(),
            seed_bodies,
            design,
            edits: EditGen::new(seed),
            rev: SEEDED_REVS,
            sent: Vec::new(),
            reports: Vec::new(),
            events: None,
            subscriber: None,
        }
    }

    pub fn rows(&self) -> usize {
        self.design.rows
    }

    pub fn body_bytes(&self) -> usize {
        self.seed_bodies[0].len()
    }

    fn path() -> String {
        format!("/api/v1/designs/{USER}/{NAME}")
    }

    fn put(body: &str, rev: Option<u64>) -> Req {
        let tag = rev.map(|r| format!("\"{r}\""));
        let mut headers = vec![("Content-Type", "application/json")];
        if let Some(tag) = &tag {
            headers.push(("If-Match", tag.as_str()));
        }
        Req::new("PUT", &Self::path(), &headers, body.as_bytes())
    }
}

impl Workload for EditToEvent {
    fn seed_requests(&self) -> Vec<Req> {
        self.seed_bodies
            .iter()
            .enumerate()
            .map(|(i, body)| Self::put(body, (i > 0).then_some(i as u64)))
            .collect()
    }

    fn touched(&self) -> Vec<(String, String, bool)> {
        vec![(USER.to_owned(), NAME.to_owned(), false)]
    }

    fn warm(&mut self, addr: std::net::SocketAddr) -> Result<(), String> {
        let conn = Conn::open(addr).map_err(|e| format!("connect: {e}"))?;
        let req = Req::new("GET", &format!("{}/events", Self::path()), &[], b"");
        let mut stream = conn.into_events(&req).map_err(|e| format!("events: {e}"))?;
        // The snapshot prologue is the design answering once: the server
        // compiled and played the seeded revision for it.
        let first = stream
            .next()
            .map_err(|e| format!("events: {e}"))?
            .ok_or("events stream ended before its snapshot")?;
        if first.kind != "snapshot" || first.id != Some(self.rev) {
            return Err(format!(
                "events prologue was `{}` id {:?}, expected snapshot {}",
                first.kind, first.id, self.rev
            ));
        }
        let (tx, rx) = channel();
        self.subscriber = Some(std::thread::spawn(move || {
            while let Ok(Some(event)) = stream.next() {
                let seen = Seen {
                    id: event.id,
                    kind: event.kind,
                    data: event.data,
                    at: Instant::now(),
                };
                if tx.send(seen).is_err() {
                    break;
                }
            }
        }));
        self.events = Some(rx);
        Ok(())
    }

    fn next_op(&mut self) -> Op {
        let edit = self.edits.next(&self.design);
        gen::apply_edit(&mut self.design, &edit);
        let req = Self::put(&self.design.body(), Some(self.rev));
        self.rev += 1;
        self.sent.push((self.rev, edit));
        Op {
            calls: vec![Call {
                kind: Kind::Put,
                design: 0,
                req,
            }],
            await_rev: Some(self.rev),
        }
    }

    fn await_event(&mut self, rev: u64) -> Result<Seen, String> {
        let rx = self.events.as_ref().ok_or("no subscriber")?;
        match rx.recv_timeout(Duration::from_secs(20)) {
            Ok(seen) if seen.kind == "revision" && seen.id == Some(rev) => Ok(seen),
            Ok(seen) => Err(format!(
                "expected revision event {rev}, read `{}` id {:?}",
                seen.kind, seen.id
            )),
            Err(RecvTimeoutError::Timeout) => Err(format!("revision event {rev} never arrived")),
            Err(RecvTimeoutError::Disconnected) => Err("event stream closed".into()),
        }
    }

    fn record(&mut self, op: &Op, answers: &[Answer], event: Option<&Seen>) -> Result<(), String> {
        let rev = op.await_rev.expect("edits await their event");
        let ack = &answers[0];
        let etag = format!("\"{rev}\"");
        if ack.status != 200 || ack.etag.as_deref() != Some(etag.as_str()) {
            return Err(format!(
                "PUT for revision {rev} answered {} with ETag {:?}: {}",
                ack.status,
                ack.etag,
                ack.text()
            ));
        }
        let event = event.ok_or("edit without its event")?;
        let data = jsonread::parse(&event.data).map_err(|e| format!("event data: {e}"))?;
        if data["rev"].as_f64() != Some(rev as f64)
            || data["etag"].as_str() != Some(etag.as_str())
            || data["name"].as_str() != Some(NAME)
        {
            return Err(format!(
                "revision event {rev} carries the wrong revision or ETag"
            ));
        }
        self.reports
            .push((rev, check::answer_print(&data["report"])?));
        Ok(())
    }

    fn verify(&mut self, dir: &Path) -> Result<(), String> {
        // Every sent edit has its report, in revision order.
        if self.reports.len() != self.sent.len() {
            return Err(format!(
                "{} edits sent, {} revision events checked",
                self.sent.len(),
                self.reports.len()
            ));
        }
        for ((rev, _), (seen_rev, _)) in self.sent.iter().zip(&self.reports) {
            if rev != seen_rev {
                return Err(format!(
                    "revision {seen_rev} reported where {rev} was expected"
                ));
            }
        }
        bench::par_check(self.sent.len(), |range| {
            let registry = ucb_library();
            let mut design = self.seeded.clone();
            for (_, edit) in &self.sent[..range.start] {
                gen::apply_edit(&mut design, edit);
            }
            for i in range {
                let (rev, edit) = &self.sent[i];
                gen::apply_edit(&mut design, edit);
                let plan = check::compile(&design.json, &registry)?;
                let reference = check::play(&plan, &[])?;
                if check::reference_print(&reference) != self.reports[i].1 {
                    return Err(format!(
                        "revision {rev} event: report differs from the reference"
                    ));
                }
            }
            Ok(())
        })?;
        let mut design = self.seeded.clone();
        for (_, edit) in &self.sent {
            gen::apply_edit(&mut design, edit);
        }

        // A reopened store returns the last acknowledged revision.
        let store = DesignStore::open(dir).map_err(|e| format!("reopen: {e}"))?;
        let (rev, sheet) = store
            .load(USER, NAME)
            .map_err(|e| format!("reopen load: {e}"))?
            .ok_or("reopened store lost the design")?;
        let want = Sheet::from_json(&design.json).map_err(|e| e.to_string())?;
        if rev != self.rev || sheet.to_json() != want.to_json() {
            return Err(format!(
                "reopened store holds revision {rev}, last acknowledged {}",
                self.rev
            ));
        }
        Ok(())
    }

    fn outside(
        &mut self,
        call: &Call,
        response: &Response,
        event: Option<&Seen>,
    ) -> Vec<(&'static str, f64)> {
        let text = std::str::from_utf8(call.req.body()).expect("generated bodies are UTF-8");
        let (json, parse_ms) = timed(|| Json::parse(text).expect("generated body parses"));
        let (sheet, decode_ms) = timed(|| Sheet::from_json(&json).expect("generated body decodes"));
        // The store encodes the committed sheet into its WAL record, the
        // change hook encodes the event, the handler its answer.
        let (_, wal_ms) = timed(|| sheet.to_json().to_string());
        let mut encode_ms = wal_ms + crate::trace::encode_ms(&response.body_text());
        if let Some(event) = event {
            encode_ms += crate::trace::encode_ms(&event.data);
        }
        vec![
            ("json.parse", parse_ms),
            ("sheet.decode", decode_ms),
            ("json.encode", encode_ms),
        ]
    }

    fn close(&mut self) {
        self.events = None;
        if let Some(handle) = self.subscriber.take() {
            let _ = handle.join();
        }
    }
}
