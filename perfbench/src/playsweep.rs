//! `play_sweep`: one keep-alive connection alternates `POST .../play`
//! and a 64-point `vdd` `POST .../sweep` over a fixed set of stored
//! designs — the paper's three plus tiled ones — that fits the plan
//! cache. An operation is one play followed by one sweep of the same
//! design; its first answer is the play.

use std::collections::HashMap;
use std::path::Path;

use powerplay_json::Json;
use powerplay_library::builtin::ucb_library;
use powerplay_sheet::{whatif, CompiledSheet};
use powerplay_store::DesignStore;
use powerplay_web::http::Response;

use crate::bench::{Call, Kind, Op, Seen, Workload};
use crate::check;
use crate::gen::{self, SweepGen, PAPER, PAPER_TOTALS_W};
use crate::jsonread;
use crate::rng::Rng;
use crate::timed;
use crate::wire::{Answer, Conn, Req};

pub const USER: &str = "bench";
/// Tile mixes of the generated designs (InfoPad, direct, grouped);
/// each lands near 220 rows.
pub const TILED: [[usize; 3]; 9] = [
    [8, 4, 4],
    [7, 6, 5],
    [8, 5, 3],
    [9, 1, 2],
    [7, 4, 6],
    [8, 3, 4],
    [9, 2, 1],
    [7, 5, 5],
    [8, 6, 2],
];

struct Stored {
    name: String,
    json: Json,
    rows: usize,
}

pub struct PlaySweep {
    designs: Vec<Stored>,
    sweeps: Vec<SweepGen>,
    rng: Rng,
    order: Vec<usize>,
    /// The first play answer of each design (read while warming), which
    /// the checks verify; later answers must repeat it byte for byte.
    first_play: Vec<Vec<u8>>,
    seed: u64,
    /// Design and fingerprint of the answered totals of every sweep;
    /// the checks regenerate the requested values from the seed.
    sweep_log: Vec<(usize, u64)>,
    /// The traced run's own plans, for timing the sweep kernel outside
    /// the handler.
    plans: HashMap<usize, CompiledSheet>,
}

impl PlaySweep {
    pub fn new(seed: u64) -> PlaySweep {
        let mut designs: Vec<Stored> = (0..3)
            .map(|i| {
                let json = gen::paper_design(i);
                Stored {
                    name: PAPER[i].0.replace('_', "-"),
                    rows: 0,
                    json,
                }
            })
            .collect();
        for (i, tiles) in TILED.iter().enumerate() {
            let d = gen::tiled_design(seed, &format!("tiled-{i}"), *tiles);
            designs.push(Stored {
                name: d.name,
                json: d.json,
                rows: d.rows,
            });
        }
        let sweeps = designs
            .iter()
            .map(|d| SweepGen::new(seed, &d.name))
            .collect();
        PlaySweep {
            designs,
            sweeps,
            rng: Rng::fork(seed, "play order"),
            order: Vec::new(),
            first_play: Vec::new(),
            seed,
            sweep_log: Vec::new(),
            plans: HashMap::new(),
        }
    }

    pub fn design_count(&self) -> usize {
        self.designs.len()
    }

    pub fn tiled_rows(&self) -> Vec<usize> {
        self.designs[3..].iter().map(|d| d.rows).collect()
    }

    fn path(&self, design: usize, tail: &str) -> String {
        format!("/api/v1/designs/{USER}/{}{tail}", self.designs[design].name)
    }

    fn play(&self, design: usize) -> Req {
        Req::new("POST", &self.path(design, "/play"), &[], b"")
    }
}

impl Workload for PlaySweep {
    fn seed_requests(&self) -> Vec<Req> {
        (0..self.designs.len())
            .map(|i| {
                let body = self.designs[i].json.to_string();
                Req::new(
                    "PUT",
                    &self.path(i, ""),
                    &[("Content-Type", "application/json")],
                    body.as_bytes(),
                )
            })
            .collect()
    }

    fn touched(&self) -> Vec<(String, String, bool)> {
        self.designs
            .iter()
            .map(|d| (USER.to_owned(), d.name.clone(), false))
            .collect()
    }

    fn warm(&mut self, addr: std::net::SocketAddr) -> Result<(), String> {
        let mut conn = Conn::open(addr).map_err(|e| format!("connect: {e}"))?;
        for i in 0..self.designs.len() {
            let answer = conn
                .call(&self.play(i))
                .map_err(|e| format!("warm play: {e}"))?;
            if !answer.ok() {
                return Err(format!(
                    "warm play answered {}: {}",
                    answer.status,
                    answer.text()
                ));
            }
            self.first_play.push(answer.body);
        }
        Ok(())
    }

    fn next_op(&mut self) -> Op {
        // Every design equally often: a fresh shuffled round each time
        // the previous one is used up.
        if self.order.is_empty() {
            self.order = (0..self.designs.len()).collect();
            self.rng.shuffle(&mut self.order);
        }
        let design = self.order.pop().expect("refilled above");
        let values = self.sweeps[design].next();
        let body = Json::object([
            ("global", Json::from("vdd")),
            ("values", values.iter().map(|&v| Json::from(v)).collect()),
        ])
        .to_string();
        let sweep = Req::new(
            "POST",
            &self.path(design, "/sweep"),
            &[("Content-Type", "application/json")],
            body.as_bytes(),
        );
        Op {
            calls: vec![
                Call {
                    kind: Kind::Play,
                    design,
                    req: self.play(design),
                },
                Call {
                    kind: Kind::Sweep,
                    design,
                    req: sweep,
                },
            ],
            await_rev: None,
        }
    }

    fn record(&mut self, op: &Op, answers: &[Answer], _event: Option<&Seen>) -> Result<(), String> {
        let design = op.calls[0].design;
        let (play, sweep) = (&answers[0], &answers[1]);
        if !play.ok() || !sweep.ok() {
            return Err(format!(
                "play/sweep answered {}/{}: {}{}",
                play.status,
                sweep.status,
                play.text(),
                sweep.text()
            ));
        }
        if play.body != self.first_play[design] {
            return Err(format!(
                "play of `{}` changed between requests",
                self.designs[design].name
            ));
        }
        let json = jsonread::parse(sweep.text()).map_err(|e| format!("sweep answer: {e}"))?;
        let series = json["series"]
            .as_array()
            .ok_or("sweep answer without series")?;
        let values: Vec<f64> = series.iter().filter_map(|p| p["value"].as_f64()).collect();
        let totals: Vec<f64> = series
            .iter()
            .filter_map(|p| p["total_w"].as_f64())
            .collect();
        let body = std::str::from_utf8(op.calls[1].req.body()).expect("generated body");
        let asked = jsonread::parse(body).map_err(|e| e.to_string())?;
        let asked: Vec<f64> = asked["values"]
            .as_array()
            .map(|v| v.iter().filter_map(Json::as_f64).collect())
            .unwrap_or_default();
        if values.len() != asked.len() || totals.len() != asked.len() || values != asked {
            return Err("sweep answer does not cover the requested points in order".into());
        }
        let mut print = check::Fingerprint::new();
        totals.iter().for_each(|&t| print.value(t));
        self.sweep_log.push((design, print.finish()));
        Ok(())
    }

    fn verify(&mut self, dir: &Path) -> Result<(), String> {
        let registry = ucb_library();
        let mut plans = Vec::new();
        for (i, d) in self.designs.iter().enumerate() {
            let plan = check::compile(&d.json, &registry)?;
            let reference = check::play(&plan, &[])?;
            let text = std::str::from_utf8(&self.first_play[i]).map_err(|e| e.to_string())?;
            let answer = jsonread::parse(text)?;
            check::same_report(
                &format!("play of `{}`", d.name),
                &reference,
                &answer["report"],
            )?;
            if answer["rev"].as_f64() != Some(1.0) {
                return Err(format!(
                    "play of `{}` answered from a wrong revision",
                    d.name
                ));
            }
            if i < 3 {
                check::same_total(
                    &format!("paper design `{}`", d.name),
                    reference.total_power().value(),
                    PAPER_TOTALS_W[i],
                )?;
            }
            plans.push(plan);
        }
        // Regenerate the run's sweeps from the seed, in order.
        let mut replay = PlaySweep::new(self.seed);
        let mut memo: HashMap<(usize, u64), f64> = HashMap::new();
        for &(design, got) in &self.sweep_log {
            let op = replay.next_op();
            let body = std::str::from_utf8(op.calls[1].req.body()).expect("generated body");
            let asked = jsonread::parse(body)?;
            let mut print = check::Fingerprint::new();
            for v in asked["values"]
                .as_array()
                .ok_or("sweep body without values")?
            {
                let v = v.as_f64().ok_or("sweep value is not a number")?;
                let want = match memo.get(&(design, v.to_bits())) {
                    Some(w) => *w,
                    None => {
                        let w = check::play(&plans[design], &[("vdd", v)])?
                            .total_power()
                            .value();
                        memo.insert((design, v.to_bits()), w);
                        w
                    }
                };
                print.value(want);
            }
            if print.finish() != got {
                return Err(format!(
                    "a sweep of `{}` differs from the reference plays",
                    self.designs[design].name
                ));
            }
        }
        // Read-only traffic: the reopened store still holds revision 1.
        let store = DesignStore::open(dir).map_err(|e| format!("reopen: {e}"))?;
        for d in &self.designs {
            let rev = store
                .current_rev(USER, &d.name)
                .map_err(|e| e.to_string())?;
            if rev != 1 {
                return Err(format!(
                    "reopened store holds `{}` at revision {rev}",
                    d.name
                ));
            }
        }
        Ok(())
    }

    fn outside(
        &mut self,
        call: &Call,
        response: &Response,
        _event: Option<&Seen>,
    ) -> Vec<(&'static str, f64)> {
        let mut out = vec![(
            "json.encode",
            crate::trace::encode_ms(&response.body_text()),
        )];
        if call.kind == Kind::Sweep {
            let body = std::str::from_utf8(call.req.body()).expect("generated body");
            let (json, parse_ms) = timed(|| Json::parse(body).expect("generated body parses"));
            let values: Vec<f64> = json["values"]
                .as_array()
                .map(|v| v.iter().filter_map(Json::as_f64).collect())
                .unwrap_or_default();
            let design = call.design;
            let json = &self.designs[design].json;
            let plan = self.plans.entry(design).or_insert_with(|| {
                check::compile(json, &ucb_library()).expect("generated design decodes")
            });
            let (_, sweep_ms) = timed(|| whatif::sweep_compiled(plan, "vdd", &values).is_ok());
            out.push(("json.parse", parse_ms));
            out.push(("whatif.sweep", sweep_ms));
        }
        out
    }
}
