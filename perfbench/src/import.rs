//! `import_then_play`: one connection re-imports a seeded Liberty
//! library under the same name with perturbed values, then refreshes
//! every dependent design with `play`, `analyze` and `lint`. Each import
//! is a new document revision and bumps the registry generation, so
//! every refresh compiles, analyzes and lints from cold.

use std::path::Path;

use powerplay_json::Json;
use powerplay_library::builtin::ucb_library;
use powerplay_store::DesignStore;
use powerplay_web::app::LIBRARY_SHARD;
use powerplay_web::http::Response;

use crate::bench::{self, Call, Kind, Op, Seen, Workload};
use crate::check;
use crate::gen::{self, Design, LIB_NAME};
use crate::jsonread;
use crate::rng::Rng;
use crate::timed;
use crate::wire::{Answer, Conn, Req};

pub const USER: &str = "bench";
/// Mappable cells per import (plus one powerless filler).
pub const CELLS: usize = 40;
/// Dependent designs, each `BLOCKS` sub-sheets of `PER_BLOCK` cells.
pub const DESIGNS: usize = 8;
pub const BLOCKS: usize = 10;
pub const PER_BLOCK: usize = 12;

/// What one refresh answered, for the checks after the run.
struct Refresh {
    rev: u64,
    source_hash: String,
    totals: Vec<f64>,
    bounds: Vec<(f64, f64)>,
}

pub struct ImportThenPlay {
    seed: u64,
    lib_rng: Rng,
    designs: Vec<Design>,
    seed_text: String,
    rev: u64,
    refreshes: Vec<Refresh>,
}

impl ImportThenPlay {
    pub fn new(seed: u64) -> ImportThenPlay {
        let mut lib_rng = Rng::fork(seed, "liberty");
        let seed_text = gen::liberty(&mut lib_rng, CELLS);
        let cells = gen::cell_names(CELLS);
        let designs = (0..DESIGNS)
            .map(|i| gen::cell_design(seed, &format!("cells-{i}"), &cells, BLOCKS, PER_BLOCK))
            .collect();
        ImportThenPlay {
            seed,
            lib_rng,
            designs,
            seed_text,
            rev: 1,
            refreshes: Vec::new(),
        }
    }

    pub fn design_rows(&self) -> usize {
        self.designs[0].rows
    }

    pub fn library_bytes(&self) -> usize {
        self.seed_text.len()
    }

    fn path(&self, design: usize, tail: &str) -> String {
        format!("/api/v1/designs/{USER}/{}{tail}", self.designs[design].name)
    }

    fn import(text: &str) -> Req {
        Req::new(
            "POST",
            "/api/v1/libraries",
            &[("Content-Type", "text/plain")],
            text.as_bytes(),
        )
    }
}

fn number(json: &Json, what: &str) -> Result<f64, String> {
    json.as_f64()
        .ok_or_else(|| format!("{what} is not a number"))
}

impl Workload for ImportThenPlay {
    fn seed_requests(&self) -> Vec<Req> {
        let mut reqs = vec![Self::import(&self.seed_text)];
        for (i, d) in self.designs.iter().enumerate() {
            reqs.push(Req::new(
                "PUT",
                &self.path(i, ""),
                &[("Content-Type", "application/json")],
                d.body().as_bytes(),
            ));
        }
        reqs
    }

    fn touched(&self) -> Vec<(String, String, bool)> {
        let mut out = vec![(LIBRARY_SHARD.to_owned(), LIB_NAME.to_owned(), true)];
        out.extend(
            self.designs
                .iter()
                .map(|d| (USER.to_owned(), d.name.clone(), false)),
        );
        out
    }

    fn warm(&mut self, addr: std::net::SocketAddr) -> Result<(), String> {
        let mut conn = Conn::open(addr).map_err(|e| format!("connect: {e}"))?;
        for i in 0..self.designs.len() {
            let req = Req::new("POST", &self.path(i, "/play"), &[], b"");
            let answer = conn.call(&req).map_err(|e| format!("warm play: {e}"))?;
            if !answer.ok() {
                return Err(format!(
                    "warm play answered {}: {}",
                    answer.status,
                    answer.text()
                ));
            }
        }
        Ok(())
    }

    fn next_op(&mut self) -> Op {
        let text = gen::liberty(&mut self.lib_rng, CELLS);
        let mut calls = vec![Call {
            kind: Kind::Import,
            design: 0,
            req: Self::import(&text),
        }];
        for i in 0..self.designs.len() {
            for (kind, tail) in [
                (Kind::Play, "/play"),
                (Kind::Analyze, "/analyze"),
                (Kind::Lint, "/lint"),
            ] {
                calls.push(Call {
                    kind,
                    design: i,
                    req: Req::new("POST", &self.path(i, tail), &[], b""),
                });
            }
        }
        Op {
            calls,
            await_rev: None,
        }
    }

    fn record(&mut self, op: &Op, answers: &[Answer], _event: Option<&Seen>) -> Result<(), String> {
        if let Some(bad) = answers.iter().find(|a| !a.ok()) {
            return Err(format!(
                "refresh call answered {}: {}",
                bad.status,
                bad.text()
            ));
        }
        let import = jsonread::parse(answers[0].text())?;
        self.rev += 1;
        if answers[0].status != 201
            || import["rev"].as_f64() != Some(self.rev as f64)
            || import["cells_parsed"].as_f64() != Some((CELLS + 1) as f64)
            || import["cells_mapped"].as_f64() != Some(CELLS as f64)
        {
            return Err(format!(
                "import answered {} with rev {:?}, {:?} parsed and {:?} mapped cells",
                answers[0].status,
                import["rev"].as_f64(),
                import["cells_parsed"].as_f64(),
                import["cells_mapped"].as_f64()
            ));
        }
        let mut refresh = Refresh {
            rev: self.rev,
            source_hash: import["source_hash"].as_str().unwrap_or("").to_owned(),
            totals: Vec::new(),
            bounds: Vec::new(),
        };
        for (call, answer) in op.calls.iter().zip(answers).skip(1) {
            let json = jsonread::parse(answer.text())?;
            match call.kind {
                Kind::Play => refresh
                    .totals
                    .push(number(&json["report"]["total_w"], "play total")?),
                Kind::Analyze => {
                    let total = &json["bounds"]["total_power"];
                    refresh.bounds.push((
                        number(&total["lo"], "bound lo")?,
                        number(&total["hi"], "bound hi")?,
                    ));
                }
                Kind::Lint => {
                    if json["lint"]["errors"].as_f64() != Some(0.0) {
                        return Err(format!(
                            "lint of `{}` reports errors: {}",
                            self.designs[call.design].name,
                            answer.text()
                        ));
                    }
                }
                _ => unreachable!("refreshes only play, analyze and lint"),
            }
        }
        self.refreshes.push(refresh);
        Ok(())
    }

    fn verify(&mut self, dir: &Path) -> Result<(), String> {
        bench::par_check(self.refreshes.len(), |range| {
            // Regenerate the imported texts from the seed, in order.
            let mut rng = Rng::fork(self.seed, "liberty");
            let _seeded = gen::liberty(&mut rng, CELLS);
            for _ in 0..range.start {
                gen::liberty(&mut rng, CELLS);
            }
            for r in &self.refreshes[range] {
                let text = gen::liberty(&mut rng, CELLS);
                // The reference registry: the built-in library plus this
                // import's cells, lowered afresh from the same text.
                let mut registry = ucb_library();
                let import = powerplay_liberty::import_str(&text, "api");
                if format!("{:016x}", import.source_hash) != r.source_hash {
                    return Err(format!("import {} answered a different source hash", r.rev));
                }
                for element in import.elements {
                    registry.insert(element);
                }
                for (i, d) in self.designs.iter().enumerate() {
                    let plan = check::compile(&d.json, &registry)?;
                    let want = check::play(&plan, &[])?.total_power().value();
                    let what = format!("`{}` after import {}", d.name, r.rev);
                    check::same_total(&what, r.totals[i], want)?;
                    let (lo, hi) = r.bounds[i];
                    if !(lo <= want && want <= hi) {
                        return Err(format!("{what}: bounds [{lo}, {hi}] miss the total {want}"));
                    }
                }
            }
            Ok(())
        })?;
        // A reopened store returns the last acknowledged import.
        let store = DesignStore::open(dir).map_err(|e| format!("reopen: {e}"))?;
        let (rev, body) = store
            .load_doc(LIBRARY_SHARD, LIB_NAME)
            .map_err(|e| format!("reopen load: {e}"))?
            .ok_or("reopened store lost the library")?;
        let last = self.refreshes.last().map_or(1, |r| r.rev);
        let hash = self.refreshes.last().map(|r| r.source_hash.as_str());
        if rev != last || (hash.is_some() && body["source_hash"].as_str() != hash) {
            return Err(format!(
                "reopened store holds library revision {rev}, last acknowledged {last}"
            ));
        }
        Ok(())
    }

    fn outside(
        &mut self,
        call: &Call,
        response: &Response,
        _event: Option<&Seen>,
    ) -> Vec<(&'static str, f64)> {
        let mut encode_ms = crate::trace::encode_ms(&response.body_text());
        if call.kind == Kind::Import {
            // The manifest the store encodes into its WAL record, rebuilt
            // from the same text the way the handler builds it.
            let text = std::str::from_utf8(call.req.body()).expect("generated text");
            let import = powerplay_liberty::import_str(text, "api");
            let manifest = Json::object([
                ("name", Json::from(import.library.as_str())),
                (
                    "source_hash",
                    Json::from(format!("{:016x}", import.source_hash)),
                ),
                ("cells_parsed", Json::from(import.cells_parsed as f64)),
                ("cells_mapped", Json::from(import.cells_mapped as f64)),
                (
                    "elements",
                    import.elements.iter().map(|e| e.to_json()).collect(),
                ),
            ]);
            encode_ms += timed(|| manifest.to_string()).1;
        }
        vec![("json.encode", encode_ms)]
    }
}
