//! The versioned JSON API: `/api/v1/`, the application's one HTTP API.
//!
//! It is a *resource* router — designs are addressed as
//! `/api/v1/designs/{user}/{name}`, the model library as
//! `/api/v1/library` and `/api/v1/elements/{name}` (the cross-site fetch
//! of paper Figures 6–7, see [`crate::remote`]), and the durable store's
//! revision number is the HTTP validator:
//!
//! * `GET` answers with `ETag: "{rev}"` and honours `If-None-Match`
//!   (a `304` costs one store lookup — no JSON serialization, no
//!   hashing, no recompilation);
//! * `PUT` requires `If-Match: "{rev}"` (or `*` to force); a stale tag
//!   is a `409 Conflict`, a missing one on an existing design is a
//!   `428 Precondition Required` — optimistic concurrency end to end;
//! * `GET .../revisions` lists the bounded history and
//!   `POST .../rollback` restores any revision in it (as a *new*
//!   revision, so history stays append-only);
//! * `POST .../play|sweep|sensitivities|lint|analyze` run the engine
//!   (or the abstract interpreter) against the stored design through
//!   the shared compiled-plan cache; `analyze` bodies are cached beside
//!   the plan, so an unchanged design answers without re-analyzing;
//! * `POST /api/v1/libraries` accepts a raw Liberty (`.lib`) source,
//!   lowers every cell to an EQ-1 element (see `crates/liberty`),
//!   persists the import as a revisioned store document, and registers
//!   the elements — imports survive restarts like saved designs.
//!   Parse failures answer 400 with the E017 report in `diagnostics`.
//!
//! Every v1 error is the uniform envelope
//! `{"error": {"code", "message", "diagnostics"?}}` — machine-readable
//! `code`, human-readable `message`, structured detail where it exists
//! (lint reports for evaluation failures, `expected`/`actual` revisions
//! for conflicts).

use std::collections::HashSet;
use std::sync::Arc;

use powerplay_json::Json;
use powerplay_sheet::Sheet;
use powerplay_store::StoreError;

use crate::app::{PowerPlayApp, LIBRARY_SHARD};
use crate::cache::PlanCache;
use crate::events::sse_frame;
use crate::http::{Method, Request, Response, Status};

/// Routes one `/api/v1/...` request. Called from `PowerPlayApp::route`
/// after authorization; always answers (unknown resources get a 404
/// envelope, never a fall-through to the page router).
pub(crate) fn respond(app: &PowerPlayApp, req: &Request) -> Response {
    let rest = req.path().strip_prefix("/api/v1").unwrap_or("");
    let segments: Vec<&str> = rest.split('/').filter(|s| !s.is_empty()).collect();
    let result = match segments.as_slice() {
        // `GET /api/v1` — the machine-readable route index.
        [] => match req.method() {
            Method::Get => Ok(route_index()),
            _ => Err(method_not_allowed("GET")),
        },
        ["stats"] => match req.method() {
            Method::Get => Ok(stats_get()),
            _ => Err(method_not_allowed("GET")),
        },
        ["sensitivities"] => match req.method() {
            Method::Post => sensitivities_body_post(app, req),
            _ => Err(method_not_allowed("POST")),
        },
        ["models"] => match req.method() {
            Method::Post => models_post(app, req),
            _ => Err(method_not_allowed("POST")),
        },
        ["library"] => match req.method() {
            Method::Get => Ok(Response::json(app.registry.read().to_json().to_string())),
            _ => Err(method_not_allowed("GET")),
        },
        ["libraries"] => match req.method() {
            Method::Get => libraries_list(app),
            Method::Post => libraries_post(app, req),
            _ => Err(method_not_allowed("GET, POST")),
        },
        ["libraries", name] => match req.method() {
            Method::Get => library_get(app, name),
            _ => Err(method_not_allowed("GET")),
        },
        // Element names contain `/` (e.g. `ucb/sram`), so the element
        // resource swallows all remaining segments.
        ["elements", name @ ..] if !name.is_empty() => match req.method() {
            Method::Get => element_get(app, &name.join("/")),
            _ => Err(method_not_allowed("GET")),
        },
        ["designs", user] => match req.method() {
            Method::Get => designs_list(app, user),
            _ => Err(method_not_allowed("GET")),
        },
        ["designs", user, name] => match req.method() {
            Method::Get => design_get(app, req, user, name),
            Method::Put => design_put(app, req, user, name),
            Method::Delete => design_delete(app, user, name),
            _ => Err(method_not_allowed("GET, PUT, DELETE")),
        },
        ["designs", user, name, "revisions"] => match req.method() {
            Method::Get => revisions_get(app, user, name),
            _ => Err(method_not_allowed("GET")),
        },
        ["designs", user, name, "events"] => match req.method() {
            Method::Get => events_get(app, req, user, name),
            _ => Err(method_not_allowed("GET")),
        },
        ["designs", user, name, "rollback"] => match req.method() {
            Method::Post => rollback_post(app, req, user, name),
            _ => Err(method_not_allowed("POST")),
        },
        ["designs", user, name, "play"] => match req.method() {
            Method::Post => play_post(app, user, name),
            _ => Err(method_not_allowed("POST")),
        },
        ["designs", user, name, "sweep"] => match req.method() {
            Method::Post => sweep_post(app, req, user, name),
            _ => Err(method_not_allowed("POST")),
        },
        ["designs", user, name, "sensitivities"] => match req.method() {
            Method::Post => sensitivities_post(app, user, name),
            _ => Err(method_not_allowed("POST")),
        },
        ["designs", user, name, "lint"] => match req.method() {
            Method::Post => lint_post(app, user, name),
            _ => Err(method_not_allowed("POST")),
        },
        ["designs", user, name, "analyze"] => match req.method() {
            Method::Post => analyze_post(app, user, name),
            _ => Err(method_not_allowed("POST")),
        },
        _ => Err(envelope(
            Status::NotFound,
            "not_found",
            "no such API v1 resource",
            None,
        )),
    };
    result.unwrap_or_else(|error| error)
}

// --- the error envelope ---------------------------------------------------

/// Builds the uniform v1 error response:
/// `{"error": {"code", "message", "diagnostics"?}}`.
fn envelope(status: Status, code: &str, message: &str, diagnostics: Option<Json>) -> Response {
    let mut fields = vec![("code", Json::from(code)), ("message", Json::from(message))];
    if let Some(diagnostics) = diagnostics {
        fields.push(("diagnostics", diagnostics));
    }
    Response::json_with_status(
        status,
        Json::object([("error", Json::object(fields))]).to_string(),
    )
}

fn method_not_allowed(allow: &str) -> Response {
    let mut response = envelope(
        Status::MethodNotAllowed,
        "method_not_allowed",
        &format!("this resource supports: {allow}"),
        None,
    );
    response.set_header("Allow", allow);
    response
}

/// Maps a [`StoreError`] onto the envelope. Conflicts carry the
/// expected/actual revisions as diagnostics so a client can recover
/// (refetch, rebase, retry with the fresh tag) without parsing prose.
fn store_error(err: StoreError) -> Response {
    match err {
        StoreError::InvalidUsername(user) => envelope(
            Status::BadRequest,
            "invalid_name",
            &format!("invalid username `{user}` (want [a-zA-Z0-9_-], at most 32 chars)"),
            None,
        ),
        StoreError::InvalidDesignName(name) => envelope(
            Status::BadRequest,
            "invalid_name",
            &format!("invalid design name `{name}` (want [a-zA-Z0-9_-], at most 32 chars)"),
            None,
        ),
        StoreError::Conflict {
            design,
            expected,
            actual,
        } => envelope(
            Status::Conflict,
            "conflict",
            &format!(
                "design `{design}` is at revision {actual}, not {expected}; \
                 refetch and retry with If-Match: \"{actual}\""
            ),
            Some(Json::object([
                ("expected", Json::from(expected as f64)),
                ("actual", Json::from(actual as f64)),
            ])),
        ),
        StoreError::NotFound { design } => envelope(
            Status::NotFound,
            "not_found",
            &format!("no design `{design}`"),
            None,
        ),
        StoreError::UnknownRevision { design, rev } => envelope(
            Status::NotFound,
            "unknown_revision",
            &format!("design `{design}` has no revision {rev} in its retained history"),
            None,
        ),
        StoreError::Io(err) => envelope(
            Status::InternalServerError,
            "storage",
            &format!("storage failure: {err}"),
            None,
        ),
        StoreError::Corrupt(msg) => envelope(
            Status::InternalServerError,
            "corrupt",
            &format!("storage corruption: {msg}"),
            None,
        ),
    }
}

/// Evaluation failures answer 400 with the lint-report shape the static
/// analyzer uses, inside the envelope's `diagnostics`.
fn play_error(err: &powerplay_sheet::EvaluateSheetError) -> Response {
    let report: powerplay_lint::LintReport =
        std::iter::once(powerplay_lint::diagnostic_for_play_error(err)).collect();
    envelope(
        Status::BadRequest,
        "evaluation_failed",
        "the design failed to evaluate",
        Some(report.to_json()),
    )
}

// --- shared plumbing ------------------------------------------------------

/// The strong validator a stored revision renders as.
fn rev_etag(rev: u64) -> String {
    format!("\"{rev}\"")
}

/// A `304 Not Modified` if the request's `If-None-Match` matches the
/// ETag the response would carry.
fn not_modified(req: &Request, etag: &str) -> Option<Response> {
    (req.header("if-none-match") == Some(etag)).then(|| {
        let mut response = Response::new(Status::NotModified);
        response.set_header("ETag", etag);
        response
    })
}

/// Whether `/api/v1/elements/{name}` can address an element called
/// `name`. The router drops empty path segments, so a registered name
/// must be non-empty `/`-separated segments (`ucb/sram`, not `x/` or
/// `a//b`).
pub(crate) fn addressable_element_name(name: &str) -> bool {
    name.split('/').all(|segment| !segment.is_empty())
}

fn load(
    app: &PowerPlayApp,
    user: &str,
    name: &str,
) -> Result<(u64, std::sync::Arc<Sheet>), Response> {
    match app.store.load(user, name) {
        Ok(Some((rev, sheet))) => Ok((rev, sheet)),
        Ok(None) => Err(envelope(
            Status::NotFound,
            "not_found",
            &format!("no design `{name}` for user `{user}`"),
            None,
        )),
        Err(err) => Err(store_error(err)),
    }
}

fn body_json(req: &Request) -> Result<Json, Response> {
    let text = std::str::from_utf8(req.body()).map_err(|_| {
        envelope(
            Status::BadRequest,
            "invalid_body",
            "body must be UTF-8 JSON",
            None,
        )
    })?;
    Json::parse(text)
        .map_err(|e| envelope(Status::BadRequest, "invalid_body", &e.to_string(), None))
}

/// Parses an `If-Match` revision tag: `"3"` (the canonical strong form)
/// or a bare `3`.
fn parse_if_match(tag: &str) -> Option<u64> {
    let tag = tag.trim();
    let tag = tag
        .strip_prefix('"')
        .and_then(|t| t.strip_suffix('"'))
        .unwrap_or(tag);
    tag.parse().ok()
}

/// Answers from the per-`(revision, registry-generation)` body cache,
/// building and storing the serialized body on a miss. Correct for any
/// resource that is pure in the stored content at `rev` and the
/// library registry — `analyze` and the imported-library detail both
/// qualify, so they share this helper (and the cache's LRU accounting).
fn cached_or_build(
    app: &PowerPlayApp,
    key: u64,
    build: impl FnOnce() -> Result<String, Response>,
) -> Result<Response, Response> {
    if let Some(body) = app.plan_cache.cached_analysis(key) {
        return Ok(Response::json(body.as_str().to_owned()));
    }
    let body = build()?;
    app.plan_cache
        .store_analysis(key, std::sync::Arc::new(body.clone()));
    Ok(Response::json(body))
}

fn report_json(report: &powerplay_sheet::SheetReport) -> Json {
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
}

// --- design resources -----------------------------------------------------

fn element_get(app: &PowerPlayApp, name: &str) -> Result<Response, Response> {
    let registry = app.registry.read();
    match registry.get(name) {
        Some(element) => Ok(Response::json(element.to_json().to_string())),
        None => Err(envelope(
            Status::NotFound,
            "not_found",
            &format!("unknown element `{name}`"),
            None,
        )),
    }
}

fn designs_list(app: &PowerPlayApp, user: &str) -> Result<Response, Response> {
    let designs: Json = app
        .store
        .list(user)
        .map_err(store_error)?
        .into_iter()
        .map(|d| {
            Json::object([
                ("name", Json::from(d.name)),
                ("rev", Json::from(d.rev as f64)),
                ("revisions", Json::from(d.revisions)),
            ])
        })
        .collect();
    Ok(Response::json(
        Json::object([("user", Json::from(user)), ("designs", designs)]).to_string(),
    ))
}

fn design_get(
    app: &PowerPlayApp,
    req: &Request,
    user: &str,
    name: &str,
) -> Result<Response, Response> {
    let (rev, sheet) = load(app, user, name)?;
    let etag = rev_etag(rev);
    if let Some(not_modified) = not_modified(req, &etag) {
        return Ok(not_modified);
    }
    let revisions = app
        .store
        .revisions(user, name)
        .map_err(store_error)?
        .map_or(0, |revs| revs.len());
    let mut response = Response::json(
        Json::object([
            ("user", Json::from(user)),
            ("name", Json::from(name)),
            ("rev", Json::from(rev as f64)),
            ("revisions", Json::from(revisions)),
            ("design", sheet.to_json()),
        ])
        .to_string(),
    );
    response.set_header("ETag", &etag);
    Ok(response)
}

fn design_put(
    app: &PowerPlayApp,
    req: &Request,
    user: &str,
    name: &str,
) -> Result<Response, Response> {
    let json = body_json(req)?;
    let sheet = Sheet::from_json(&json)
        .map_err(|e| envelope(Status::BadRequest, "invalid_body", &e.to_string(), None))?;
    let current = app.store.current_rev(user, name).map_err(store_error)?;
    let expected = match req.header("if-match") {
        // No validator: creating is fine (expected revision 0 = "must
        // not exist yet"), but blind overwrites of live designs are
        // exactly the lost-update the revision scheme exists to stop.
        None if current > 0 => {
            return Err(envelope(
                Status::PreconditionRequired,
                "precondition_required",
                &format!(
                    "design `{name}` exists at revision {current}; \
                     send If-Match: \"{current}\" to update it (or If-Match: * to force)"
                ),
                None,
            ));
        }
        None => Some(0),
        Some("*") => None,
        Some(tag) => Some(parse_if_match(tag).ok_or_else(|| {
            envelope(
                Status::BadRequest,
                "invalid_if_match",
                &format!("cannot parse If-Match `{tag}` as a revision tag"),
                None,
            )
        })?),
    };
    let rev = app
        .store
        .save(user, name, Arc::new(sheet), expected)
        .map_err(|err| conflict_event(app, user, name, err))
        .map_err(store_error)?;
    let status = if current == 0 {
        Status::Created
    } else {
        Status::Ok
    };
    let mut response = Response::json_with_status(
        status,
        Json::object([
            ("user", Json::from(user)),
            ("name", Json::from(name)),
            ("rev", Json::from(rev as f64)),
        ])
        .to_string(),
    );
    response.set_header("ETag", &rev_etag(rev));
    Ok(response)
}

fn design_delete(app: &PowerPlayApp, user: &str, name: &str) -> Result<Response, Response> {
    match app.store.delete(user, name) {
        Ok(true) => Ok(Response::json(
            Json::object([("deleted", Json::from(true))]).to_string(),
        )),
        Ok(false) => Err(envelope(
            Status::NotFound,
            "not_found",
            &format!("no design `{name}` for user `{user}`"),
            None,
        )),
        Err(err) => Err(store_error(err)),
    }
}

fn revisions_get(app: &PowerPlayApp, user: &str, name: &str) -> Result<Response, Response> {
    let (revs, floor) = app
        .store
        .revision_history(user, name)
        .map_err(store_error)?
        .ok_or_else(|| {
            envelope(
                Status::NotFound,
                "not_found",
                &format!("no design `{name}` for user `{user}`"),
                None,
            )
        })?;
    let current = revs.first().copied().unwrap_or(0);
    Ok(Response::json(
        Json::object([
            ("user", Json::from(user)),
            ("name", Json::from(name)),
            ("current", Json::from(current as f64)),
            // The floor lets clients tell truncation from short
            // history: revisions `floor` and below once existed but are
            // no longer retained (0 = nothing was ever lost).
            ("floor", Json::from(floor as f64)),
            (
                "revisions",
                revs.into_iter().map(|r| r as f64).collect::<Json>(),
            ),
        ])
        .to_string(),
    ))
}

fn rollback_post(
    app: &PowerPlayApp,
    req: &Request,
    user: &str,
    name: &str,
) -> Result<Response, Response> {
    let json = body_json(req)?;
    let rev = json
        .get("rev")
        .and_then(Json::as_f64)
        .filter(|r| r.fract() == 0.0 && *r >= 1.0)
        .ok_or_else(|| {
            envelope(
                Status::BadRequest,
                "invalid_body",
                "body must be {\"rev\": <revision to restore>}",
                None,
            )
        })? as u64;
    let expected = match req.header("if-match") {
        None | Some("*") => None,
        Some(tag) => Some(parse_if_match(tag).ok_or_else(|| {
            envelope(
                Status::BadRequest,
                "invalid_if_match",
                &format!("cannot parse If-Match `{tag}` as a revision tag"),
                None,
            )
        })?),
    };
    let new_rev = app
        .store
        .rollback(user, name, rev, expected)
        .map_err(|err| conflict_event(app, user, name, err))
        .map_err(store_error)?;
    let mut response = Response::json(
        Json::object([
            ("user", Json::from(user)),
            ("name", Json::from(name)),
            ("rev", Json::from(new_rev as f64)),
            ("restored", Json::from(rev as f64)),
        ])
        .to_string(),
    );
    response.set_header("ETag", &rev_etag(new_rev));
    Ok(response)
}

// --- event streams --------------------------------------------------------

/// Passes a [`StoreError`] through, publishing a transient `conflict`
/// event on the design's topic when it is a revision conflict — the
/// collaborator whose PUT just lost learns immediately, and so does
/// everyone else watching the design.
fn conflict_event(app: &PowerPlayApp, user: &str, name: &str, err: StoreError) -> StoreError {
    if let StoreError::Conflict {
        expected, actual, ..
    } = &err
    {
        let data = Json::object([
            ("user", Json::from(user)),
            ("name", Json::from(name)),
            ("expected", Json::from(*expected as f64)),
            ("actual", Json::from(*actual as f64)),
        ]);
        app.events
            .publish_transient(user, name, sse_frame("conflict", None, &data.to_string()));
    }
    err
}

/// The event payload shared by `snapshot` and replayed `revision`
/// frames: the design identity, its validator, and the evaluated
/// report (`null` when the design does not evaluate).
fn event_data(app: &PowerPlayApp, user: &str, name: &str, rev: u64, sheet: &Sheet) -> Json {
    let plan = app.stored_plan(user, name, rev, sheet);
    let report = plan.play().map(|r| report_json(&r)).unwrap_or(Json::Null);
    Json::object([
        ("user", Json::from(user)),
        ("name", Json::from(name)),
        ("rev", Json::from(rev as f64)),
        ("author", Json::from(user)),
        ("etag", Json::from(rev_etag(rev))),
        ("report", report),
    ])
}

/// `GET /api/v1/designs/{user}/{name}/events` — a Server-Sent Events
/// stream of the design's life: a `snapshot` (or, resuming via
/// `Last-Event-ID`, the missed `revision`s) as the prologue, then live
/// `revision` / `conflict` / `deleted` events as collaborators work,
/// `:hb` heartbeats while they don't, and a final `bye` when the server
/// drains. Event ids are revision numbers, so `Last-Event-ID` resume is
/// exact while the bounded history retains the gap; beyond it the
/// stream resyncs with a fresh `snapshot`.
fn events_get(
    app: &PowerPlayApp,
    req: &Request,
    user: &str,
    name: &str,
) -> Result<Response, Response> {
    let (current, sheet) = load(app, user, name)?;
    let last: Option<u64> = req
        .header("last-event-id")
        .and_then(|v| v.trim().parse().ok());

    // EventSource reconnect hint, then the prologue frames. `current`
    // is the highest revision the prologue covers; the stream-open
    // callback below subscribes with that watermark and the hub's ring
    // replays anything committed while this response was in flight.
    let mut prologue = b"retry: 2000\n\n".to_vec();
    let replayable = last.is_some_and(|l| l <= current);
    if replayable {
        let last = last.expect("replayable implies present");
        let (revs, floor) = app
            .store
            .revision_history(user, name)
            .map_err(store_error)?
            .unwrap_or((Vec::new(), 0));
        if last < floor {
            // Part of the gap fell out of the bounded history; exact
            // replay is impossible, so resync from the snapshot.
            let data = event_data(app, user, name, current, &sheet);
            let snapshot = with_design(data, &sheet);
            prologue.extend_from_slice(&sse_frame("snapshot", Some(current), &snapshot));
        } else {
            for rev in revs.into_iter().rev().filter(|r| *r > last) {
                let Some(stored) = app.store.load_rev(user, name, rev).map_err(store_error)? else {
                    continue;
                };
                let data = event_data(app, user, name, rev, &stored);
                prologue.extend_from_slice(&sse_frame("revision", Some(rev), &data.to_string()));
            }
        }
    } else {
        // No resume point (or one from a deleted-and-recreated
        // lineage): late joiners start from a full snapshot.
        let data = event_data(app, user, name, current, &sheet);
        let snapshot = with_design(data, &sheet);
        prologue.extend_from_slice(&sse_frame("snapshot", Some(current), &snapshot));
    }

    let hub = Arc::clone(app.events());
    let (user, name) = (user.to_owned(), name.to_owned());
    Ok(Response::event_stream(prologue, move |handle| {
        hub.subscribe(&user, &name, current, handle);
    }))
}

/// Extends an event payload with the full design document (snapshots
/// carry the sheet so a joiner needs no second fetch).
fn with_design(mut data: Json, sheet: &Sheet) -> String {
    data.set("design", sheet.to_json());
    data.to_string()
}

// --- engine resources -----------------------------------------------------

fn play_post(app: &PowerPlayApp, user: &str, name: &str) -> Result<Response, Response> {
    let (rev, sheet) = load(app, user, name)?;
    let plan = app.stored_plan(user, name, rev, &sheet);
    let report = plan.play().map_err(|e| play_error(&e))?;
    Ok(Response::json(
        Json::object([
            ("rev", Json::from(rev as f64)),
            ("report", report_json(&report)),
        ])
        .to_string(),
    ))
}

fn sweep_post(
    app: &PowerPlayApp,
    req: &Request,
    user: &str,
    name: &str,
) -> Result<Response, Response> {
    let json = body_json(req)?;
    let bad_body = || {
        envelope(
            Status::BadRequest,
            "invalid_body",
            "body must be {\"global\": <name>, \"values\": [<numbers>]}",
            None,
        )
    };
    let global = json
        .get("global")
        .and_then(Json::as_str)
        .ok_or_else(bad_body)?;
    let values: Vec<f64> = json
        .get("values")
        .and_then(Json::as_array)
        .ok_or_else(bad_body)?
        .iter()
        .map(|v| v.as_f64().ok_or_else(bad_body))
        .collect::<Result<_, _>>()?;
    let (rev, sheet) = load(app, user, name)?;
    let plan = app.stored_plan(user, name, rev, &sheet);
    let curve = powerplay_sheet::whatif::sweep_compiled(&plan, global, &values)
        .map_err(|e| play_error(&e))?;
    let series: Json = curve
        .into_iter()
        .map(|(value, total)| {
            Json::object([
                ("value", Json::from(value)),
                ("total_w", Json::from(total.value())),
            ])
        })
        .collect();
    Ok(Response::json(
        Json::object([
            ("rev", Json::from(rev as f64)),
            ("global", Json::from(global)),
            ("series", series),
        ])
        .to_string(),
    ))
}

fn sensitivities_post(app: &PowerPlayApp, user: &str, name: &str) -> Result<Response, Response> {
    let (rev, sheet) = load(app, user, name)?;
    let plan = app.stored_plan(user, name, rev, &sheet);
    let sens =
        powerplay_sheet::whatif::sensitivities_compiled(&plan).map_err(|e| play_error(&e))?;
    let ranking: Json = sens
        .into_iter()
        .map(|(global, s)| {
            Json::object([
                ("global", Json::from(global)),
                ("sensitivity", Json::from(s)),
            ])
        })
        .collect();
    Ok(Response::json(
        Json::object([("rev", Json::from(rev as f64)), ("sensitivities", ranking)]).to_string(),
    ))
}

fn lint_post(app: &PowerPlayApp, user: &str, name: &str) -> Result<Response, Response> {
    let (rev, sheet) = load(app, user, name)?;
    let report = powerplay_lint::lint_sheet(&sheet, &app.registry.read());
    Ok(Response::json(
        Json::object([("rev", Json::from(rev as f64)), ("lint", report.to_json())]).to_string(),
    ))
}

/// `POST .../analyze` — abstract interpretation over the compiled plan:
/// proven bounds, monotone inputs, and the E015/E016/W114–W118
/// diagnostics. The analysis is pure in the plan, so the serialized
/// body is cached beside the compiled plan and an unchanged design
/// answers without re-analyzing.
fn analyze_post(app: &PowerPlayApp, user: &str, name: &str) -> Result<Response, Response> {
    let (rev, sheet) = load(app, user, name)?;
    let key = app.stored_key(user, name, rev);
    cached_or_build(app, key, || {
        let plan = app.stored_plan(user, name, rev, &sheet);
        let bounds = powerplay_analysis::analyze(&plan).map_err(|e| play_error(&e))?;
        Ok(Json::object([
            ("rev", Json::from(rev as f64)),
            ("bounds", bounds.to_json()),
        ])
        .to_string())
    })
}

// --- surface cleanup: index, stats, body-shape engines, model upload ------

/// Every v1 route, one entry per method, for the machine-readable
/// index. Path templates use `{placeholder}` segments.
const V1_ROUTES: &[(&str, &str)] = &[
    ("GET", "/api/v1"),
    ("GET", "/api/v1/stats"),
    ("POST", "/api/v1/sensitivities"),
    ("POST", "/api/v1/models"),
    ("GET", "/api/v1/library"),
    ("GET", "/api/v1/libraries"),
    ("POST", "/api/v1/libraries"),
    ("GET", "/api/v1/libraries/{name}"),
    ("GET", "/api/v1/elements/{name}"),
    ("GET", "/api/v1/designs/{user}"),
    ("GET", "/api/v1/designs/{user}/{name}"),
    ("PUT", "/api/v1/designs/{user}/{name}"),
    ("DELETE", "/api/v1/designs/{user}/{name}"),
    ("GET", "/api/v1/designs/{user}/{name}/revisions"),
    ("GET", "/api/v1/designs/{user}/{name}/events"),
    ("POST", "/api/v1/designs/{user}/{name}/rollback"),
    ("POST", "/api/v1/designs/{user}/{name}/play"),
    ("POST", "/api/v1/designs/{user}/{name}/sweep"),
    ("POST", "/api/v1/designs/{user}/{name}/sensitivities"),
    ("POST", "/api/v1/designs/{user}/{name}/lint"),
    ("POST", "/api/v1/designs/{user}/{name}/analyze"),
];

/// `GET /api/v1` — the route index, so clients can discover the
/// surface without prose.
fn route_index() -> Response {
    let routes: Json = V1_ROUTES
        .iter()
        .map(|(method, path)| {
            Json::object([("method", Json::from(*method)), ("path", Json::from(*path))])
        })
        .collect();
    Response::json(Json::object([("version", Json::from("v1")), ("routes", routes)]).to_string())
}

/// `GET /api/v1/stats` — the telemetry snapshot as JSON: the
/// machine-readable sibling of the human `/stats` panel (which stays on
/// the page router). Quantiles are the same log2-bucket estimates the
/// panel shows.
fn stats_get() -> Response {
    let snap = powerplay_telemetry::global().snapshot();
    let counters: Json = snap
        .counters
        .iter()
        .map(|(name, v)| {
            Json::object([
                ("name", Json::from(name.as_str())),
                ("value", Json::from(*v as f64)),
            ])
        })
        .collect();
    let gauges: Json = snap
        .gauges
        .iter()
        .map(|(name, v)| {
            Json::object([
                ("name", Json::from(name.as_str())),
                ("value", Json::from(*v as f64)),
            ])
        })
        .collect();
    let quantile = |h: &powerplay_telemetry::HistogramSnapshot, q: f64| {
        h.quantile_seconds(q)
            .filter(|v| v.is_finite())
            .map_or(Json::Null, Json::from)
    };
    let histograms: Json = snap
        .histograms
        .iter()
        .map(|h| {
            Json::object([
                ("name", Json::from(h.name.as_str())),
                ("count", Json::from(h.count as f64)),
                ("sum_seconds", Json::from(h.sum_seconds)),
                ("p50_seconds", quantile(h, 0.5)),
                ("p90_seconds", quantile(h, 0.9)),
                ("p99_seconds", quantile(h, 0.99)),
            ])
        })
        .collect();
    Response::json(
        Json::object([
            ("counters", counters),
            ("gauges", gauges),
            ("histograms", histograms),
        ])
        .to_string(),
    )
}

/// `POST /api/v1/sensitivities` with a sheet JSON document as the body
/// — the what-if ranking for an *unsaved* design (editor integrations,
/// CI). The compiled plan is cached by the hash of the canonicalized
/// sheet JSON, so formatting differences do not fragment the cache.
fn sensitivities_body_post(app: &PowerPlayApp, req: &Request) -> Result<Response, Response> {
    let json = body_json(req)?;
    let sheet = Sheet::from_json(&json)
        .map_err(|e| envelope(Status::BadRequest, "invalid_body", &e.to_string(), None))?;
    let key = PlanCache::key(
        &sheet.to_json().to_string(),
        app.registry.read().generation(),
    );
    let plan = app.plan_for(key, None, &sheet);
    let sens =
        powerplay_sheet::whatif::sensitivities_compiled(&plan).map_err(|e| play_error(&e))?;
    let ranking: Json = sens
        .into_iter()
        .map(|(global, s)| {
            Json::object([
                ("global", Json::from(global)),
                ("sensitivity", Json::from(s)),
            ])
        })
        .collect();
    Ok(Response::json(
        Json::object([("sensitivities", ranking)]).to_string(),
    ))
}

/// `POST /api/v1/models` with a JSON model document — the v1 successor
/// of the HTML `/model/new` form: name, class, parameter declarations,
/// and the model formulas, linted before registration exactly like the
/// form path. Answers 201 with the registered element.
fn models_post(app: &PowerPlayApp, req: &Request) -> Result<Response, Response> {
    use powerplay_library::{ElementClass, ElementModel, LibraryElement, ParamDecl};

    let json = body_json(req)?;
    let bad = |msg: &str| envelope(Status::BadRequest, "invalid_body", msg, None);
    let name = json
        .get("name")
        .and_then(Json::as_str)
        .filter(|n| addressable_element_name(n))
        .ok_or_else(|| bad("`name` is required, as non-empty `/`-separated segments"))?;
    let class_id = json.get("class").and_then(Json::as_str).unwrap_or("");
    let class = ElementClass::from_id(class_id)
        .ok_or_else(|| bad(&format!("unknown class `{class_id}`")))?;
    let doc = json
        .get("doc")
        .and_then(Json::as_str)
        .unwrap_or("")
        .to_owned();

    let mut params = Vec::new();
    if let Some(items) = json.get("params").and_then(Json::as_array) {
        for item in items {
            let pname = item
                .get("name")
                .and_then(Json::as_str)
                .filter(|n| !n.is_empty())
                .ok_or_else(|| bad("each parameter needs a `name`"))?;
            let default = item
                .get("default")
                .and_then(Json::as_f64)
                .ok_or_else(|| bad(&format!("parameter `{pname}` needs a numeric `default`")))?;
            let pdoc = item.get("doc").and_then(Json::as_str).unwrap_or("");
            params.push(ParamDecl::new(pname, default, pdoc));
        }
    }

    let model_json = json.get("model");
    let formula = |field: &str| -> Result<Option<powerplay_expr::Expr>, Response> {
        match model_json
            .and_then(|m| m.get(field))
            .and_then(Json::as_str)
            .filter(|s| !s.trim().is_empty())
        {
            None => Ok(None),
            Some(src) => powerplay_expr::Expr::parse(src)
                .map(Some)
                .map_err(|e| bad(&format!("formula `{field}`: {e}"))),
        }
    };
    let cap_partial = match (formula("cap_partial")?, formula("swing")?) {
        (Some(c), Some(s)) => Some((c, s)),
        (None, None) => None,
        _ => return Err(bad("cap_partial and swing must be given together")),
    };
    let model = ElementModel {
        cap_full: formula("cap_full")?,
        cap_partial,
        static_current: formula("static_current")?,
        power_direct: formula("power_direct")?,
        area: formula("area")?,
        delay: formula("delay")?,
    };

    let element = LibraryElement::new(name.to_owned(), class, doc, params, model);
    let report = powerplay_lint::lint_element(&element);
    if report.has_errors() {
        return Err(envelope(
            Status::BadRequest,
            "invalid_model",
            "the model failed lint",
            Some(report.to_json()),
        ));
    }
    let body = element.to_json().to_string();
    app.registry.write().insert(element);
    let mut response = Response::json_with_status(Status::Created, body);
    response.set_header("Location", &format!("/api/v1/elements/{name}"));
    Ok(response)
}

// --- imported libraries ---------------------------------------------------

/// A Liberty library name reduced to the store's document-name charset
/// (`[a-zA-Z0-9_-]`, at most 32 chars); real library names are rarely
/// that tame (`gscl45nm.db`, vendor dots and pluses).
fn library_doc_name(library: &str) -> String {
    let mut name: String = library
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == '-' {
                c
            } else {
                '_'
            }
        })
        .take(32)
        .collect();
    if name.is_empty() {
        name.push_str("library");
    }
    name
}

/// `GET /api/v1/libraries` — every imported library with its revision,
/// provenance hash, and cell counts.
fn libraries_list(app: &PowerPlayApp) -> Result<Response, Response> {
    let docs = app.store.list_docs(LIBRARY_SHARD).map_err(store_error)?;
    let mut items = Vec::new();
    for doc in docs {
        let Some((rev, body)) = app
            .store
            .load_doc(LIBRARY_SHARD, &doc.name)
            .map_err(store_error)?
        else {
            continue;
        };
        items.push(Json::object([
            ("name", Json::from(doc.name.as_str())),
            ("library", body["name"].clone()),
            ("rev", Json::from(rev as f64)),
            ("source_hash", body["source_hash"].clone()),
            ("cells_parsed", body["cells_parsed"].clone()),
            ("cells_mapped", body["cells_mapped"].clone()),
        ]));
    }
    Ok(Response::json(
        Json::object([("libraries", items.into_iter().collect::<Json>())]).to_string(),
    ))
}

/// `GET /api/v1/libraries/{name}` — one import's manifest: provenance,
/// cell counts, and the registered element names. Pure in `(rev,
/// generation)`, so the body shares the analyze cache.
fn library_get(app: &PowerPlayApp, name: &str) -> Result<Response, Response> {
    let Some((rev, body)) = app
        .store
        .load_doc(LIBRARY_SHARD, name)
        .map_err(store_error)?
    else {
        return Err(envelope(
            Status::NotFound,
            "not_found",
            &format!("no imported library `{name}`"),
            None,
        ));
    };
    let key = app.stored_key(LIBRARY_SHARD, name, rev);
    cached_or_build(app, key, || {
        let elements: Json = body["elements"]
            .as_array()
            .map(|items| items.iter().map(|e| e["name"].clone()).collect())
            .unwrap_or_default();
        Ok(Json::object([
            ("name", Json::from(name)),
            ("library", body["name"].clone()),
            ("rev", Json::from(rev as f64)),
            ("source_hash", body["source_hash"].clone()),
            ("cells_parsed", body["cells_parsed"].clone()),
            ("cells_mapped", body["cells_mapped"].clone()),
            ("elements", elements),
        ])
        .to_string())
    })
}

/// `POST /api/v1/libraries` with a raw Liberty (`.lib`) source body —
/// the real-world front door: parse, lower every cell to an EQ-1
/// element, persist the import as a revisioned document under the
/// reserved `_libraries` shard, and register the elements (which bumps
/// the registry generation, invalidating cached plans). A re-import
/// replaces the previous one: elements its manifest listed that the
/// new import lacks leave the registry, as they would on restart. (A
/// library named after a builtin namespace such as `ucb` is not
/// handled: dropping a cell that shadowed a builtin removes the cell
/// live, while a restart brings the builtin back.) The diagnostic
/// report rides along in the success body; E017 failures answer 400
/// with the report in `diagnostics`.
fn libraries_post(app: &PowerPlayApp, req: &Request) -> Result<Response, Response> {
    let text = std::str::from_utf8(req.body()).map_err(|_| {
        envelope(
            Status::BadRequest,
            "invalid_body",
            "body must be a UTF-8 Liberty (.lib) source",
            None,
        )
    })?;
    let import = powerplay_liberty::import_str(text, "api");
    if import.report.has_errors() {
        return Err(envelope(
            Status::BadRequest,
            "unparsable_library",
            "the Liberty source did not import",
            Some(import.report.to_json()),
        ));
    }
    let doc_name = library_doc_name(&import.library);
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
    // Re-importing the same library name supersedes the previous
    // import as a new document revision (history stays append-only).
    let previous = app
        .store
        .load_doc(LIBRARY_SHARD, &doc_name)
        .map_err(store_error)?;
    let rev = app
        .store
        .save_doc(LIBRARY_SHARD, &doc_name, &manifest, None)
        .map_err(store_error)?;
    let element_names: Json = import
        .elements
        .iter()
        .map(|e| Json::from(e.name()))
        .collect();
    {
        let mut registry = app.registry.write();
        if let Some((_, previous)) = previous {
            let kept: HashSet<&str> = import.elements.iter().map(|e| e.name()).collect();
            let dropped = previous["elements"]
                .as_array()
                .unwrap_or_default()
                .iter()
                .filter_map(|e| e["name"].as_str())
                .filter(|name| !kept.contains(name));
            for name in dropped {
                registry.remove(name);
            }
        }
        for element in import.elements {
            registry.insert(element);
        }
    }
    let mut response = Response::json_with_status(
        Status::Created,
        Json::object([
            ("name", Json::from(doc_name.as_str())),
            ("library", Json::from(import.library.as_str())),
            ("rev", Json::from(rev as f64)),
            (
                "source_hash",
                Json::from(format!("{:016x}", import.source_hash)),
            ),
            ("cells_parsed", Json::from(import.cells_parsed as f64)),
            ("cells_mapped", Json::from(import.cells_mapped as f64)),
            ("elements", element_names),
            ("report", import.report.to_json()),
        ])
        .to_string(),
    );
    response.set_header("ETag", &rev_etag(rev));
    Ok(response)
}

#[cfg(test)]
mod tests {
    use super::*;
    use powerplay_library::builtin::ucb_library;
    use std::sync::Arc;

    fn app(tag: &str) -> Arc<PowerPlayApp> {
        let dir = std::env::temp_dir().join(format!("powerplay-v1-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        PowerPlayApp::new(ucb_library(), dir)
    }

    fn sheet_json() -> String {
        let mut sheet = Sheet::new("d");
        sheet.set_global("vdd", "1.5").unwrap();
        sheet.set_global("f", "2e6").unwrap();
        sheet
            .add_element_row("R", "ucb/register", [("bits", "16")])
            .unwrap();
        sheet.to_json().to_string()
    }

    fn put(app: &PowerPlayApp, path: &str, body: &str, if_match: Option<&str>) -> Response {
        let mut req = Request::new(Method::Put, path);
        req.set_body(body.as_bytes().to_vec(), "application/json");
        if let Some(tag) = if_match {
            req.set_header("If-Match", tag);
        }
        app.handle(&req)
    }

    fn post(app: &PowerPlayApp, path: &str, body: &str) -> Response {
        let mut req = Request::new(Method::Post, path);
        req.set_body(body.as_bytes().to_vec(), "application/json");
        app.handle(&req)
    }

    fn get(app: &PowerPlayApp, path: &str) -> Response {
        app.handle(&Request::new(Method::Get, path))
    }

    fn error_code(response: &Response) -> String {
        let parsed = Json::parse(&response.body_text()).expect("envelope is JSON");
        parsed["error"]["code"]
            .as_str()
            .expect("error.code present")
            .to_owned()
    }

    #[test]
    fn put_creates_then_requires_if_match() {
        let app = app("putflow");
        let body = sheet_json();

        // First PUT without a validator creates revision 1.
        let created = put(&app, "/api/v1/designs/a/d", &body, None);
        assert_eq!(created.status(), Status::Created, "{}", created.body_text());
        assert_eq!(created.header("etag"), Some("\"1\""));

        // A second blind PUT is refused: the design now exists.
        let blind = put(&app, "/api/v1/designs/a/d", &body, None);
        assert_eq!(blind.status(), Status::PreconditionRequired);
        assert_eq!(error_code(&blind), "precondition_required");

        // With the current tag it succeeds and bumps the revision.
        let updated = put(&app, "/api/v1/designs/a/d", &body, Some("\"1\""));
        assert_eq!(updated.status(), Status::Ok, "{}", updated.body_text());
        assert_eq!(updated.header("etag"), Some("\"2\""));

        // A stale tag is a structured 409 with both revisions.
        let stale = put(&app, "/api/v1/designs/a/d", &body, Some("\"1\""));
        assert_eq!(stale.status(), Status::Conflict);
        assert_eq!(error_code(&stale), "conflict");
        let parsed = Json::parse(&stale.body_text()).unwrap();
        assert_eq!(
            parsed["error"]["diagnostics"]["expected"].as_f64(),
            Some(1.0)
        );
        assert_eq!(parsed["error"]["diagnostics"]["actual"].as_f64(), Some(2.0));

        // `*` forces through regardless.
        let forced = put(&app, "/api/v1/designs/a/d", &body, Some("*"));
        assert_eq!(forced.status(), Status::Ok);
        assert_eq!(forced.header("etag"), Some("\"3\""));

        // A garbage validator is a clean 400.
        let garbage = put(&app, "/api/v1/designs/a/d", &body, Some("latest"));
        assert_eq!(garbage.status(), Status::BadRequest);
        assert_eq!(error_code(&garbage), "invalid_if_match");
    }

    #[test]
    fn get_serves_revision_etags_and_304() {
        let app = app("getrev");
        put(&app, "/api/v1/designs/a/d", &sheet_json(), None);
        let first = get(&app, "/api/v1/designs/a/d");
        assert_eq!(first.status(), Status::Ok);
        assert_eq!(first.header("etag"), Some("\"1\""));
        let parsed = Json::parse(&first.body_text()).unwrap();
        assert_eq!(parsed["rev"].as_f64(), Some(1.0));
        assert_eq!(parsed["design"]["name"].as_str(), Some("d"));

        let mut conditional = Request::new(Method::Get, "/api/v1/designs/a/d");
        conditional.set_header("If-None-Match", "\"1\"");
        let not_modified = app.handle(&conditional);
        assert_eq!(not_modified.status(), Status::NotModified);
        assert_eq!(not_modified.header("etag"), Some("\"1\""));
        assert!(not_modified.body().is_empty());

        // A new revision invalidates the tag.
        put(&app, "/api/v1/designs/a/d", &sheet_json(), Some("\"1\""));
        let refreshed = app.handle(&conditional);
        assert_eq!(refreshed.status(), Status::Ok);
        assert_eq!(refreshed.header("etag"), Some("\"2\""));
    }

    #[test]
    fn revisions_rollback_and_delete() {
        let app = app("history");
        let mut sheet = Sheet::new("d");
        sheet.set_global("vdd", "1.5").unwrap();
        sheet.set_global("f", "2e6").unwrap();
        put(
            &app,
            "/api/v1/designs/a/d",
            &sheet.to_json().to_string(),
            None,
        );
        sheet.set_global("vdd", "3.3").unwrap();
        put(
            &app,
            "/api/v1/designs/a/d",
            &sheet.to_json().to_string(),
            Some("\"1\""),
        );

        let listed = get(&app, "/api/v1/designs/a/d/revisions");
        assert_eq!(listed.status(), Status::Ok);
        let parsed = Json::parse(&listed.body_text()).unwrap();
        assert_eq!(parsed["current"].as_f64(), Some(2.0));
        let revs: Vec<f64> = parsed["revisions"]
            .as_array()
            .unwrap()
            .iter()
            .map(|r| r.as_f64().unwrap())
            .collect();
        assert_eq!(revs, vec![2.0, 1.0]);

        // Rolling back to revision 1 mints revision 3 with 1's content.
        let rolled = post(&app, "/api/v1/designs/a/d/rollback", "{\"rev\": 1}");
        assert_eq!(rolled.status(), Status::Ok, "{}", rolled.body_text());
        assert_eq!(rolled.header("etag"), Some("\"3\""));
        let restored = get(&app, "/api/v1/designs/a/d");
        let parsed = Json::parse(&restored.body_text()).unwrap();
        let vdd = parsed["design"]["globals"]
            .as_array()
            .unwrap()
            .iter()
            .find(|g| g["name"].as_str() == Some("vdd"))
            .expect("vdd global present");
        assert_eq!(vdd["formula"].as_str(), Some("1.5"));

        // An unretained revision is a structured 404.
        let missing = post(&app, "/api/v1/designs/a/d/rollback", "{\"rev\": 99}");
        assert_eq!(missing.status(), Status::NotFound);
        assert_eq!(error_code(&missing), "unknown_revision");

        // The designs listing shows the history depth.
        let designs = get(&app, "/api/v1/designs/a");
        let parsed = Json::parse(&designs.body_text()).unwrap();
        let entry = &parsed["designs"].as_array().unwrap()[0];
        assert_eq!(entry["name"].as_str(), Some("d"));
        assert_eq!(entry["rev"].as_f64(), Some(3.0));
        assert_eq!(entry["revisions"].as_f64(), Some(3.0));

        // Delete, then everything 404s with the envelope.
        let mut del = Request::new(Method::Delete, "/api/v1/designs/a/d");
        let deleted = app.handle(&del);
        assert_eq!(deleted.status(), Status::Ok);
        del = Request::new(Method::Delete, "/api/v1/designs/a/d");
        let gone = app.handle(&del);
        assert_eq!(gone.status(), Status::NotFound);
        assert_eq!(error_code(&gone), "not_found");
        assert_eq!(error_code(&get(&app, "/api/v1/designs/a/d")), "not_found");
    }

    #[test]
    fn engine_endpoints_share_the_stored_design() {
        let app = app("engine");
        put(&app, "/api/v1/designs/a/d", &sheet_json(), None);

        let played = post(&app, "/api/v1/designs/a/d/play", "");
        assert_eq!(played.status(), Status::Ok, "{}", played.body_text());
        let parsed = Json::parse(&played.body_text()).unwrap();
        assert!(parsed["report"]["total_w"].as_f64().unwrap() > 0.0);
        let rows = parsed["report"]["rows"].as_array().unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0]["name"].as_str(), Some("R"));

        let swept = post(
            &app,
            "/api/v1/designs/a/d/sweep",
            "{\"global\": \"vdd\", \"values\": [1.0, 2.0]}",
        );
        assert_eq!(swept.status(), Status::Ok, "{}", swept.body_text());
        let parsed = Json::parse(&swept.body_text()).unwrap();
        assert_eq!(parsed["series"].as_array().unwrap().len(), 2);

        let ranked = post(&app, "/api/v1/designs/a/d/sensitivities", "");
        assert_eq!(ranked.status(), Status::Ok, "{}", ranked.body_text());

        let linted = post(&app, "/api/v1/designs/a/d/lint", "");
        assert_eq!(linted.status(), Status::Ok, "{}", linted.body_text());

        let analyzed = post(&app, "/api/v1/designs/a/d/analyze", "");
        assert_eq!(analyzed.status(), Status::Ok, "{}", analyzed.body_text());
        let parsed = Json::parse(&analyzed.body_text()).unwrap();
        let total = &parsed["bounds"]["total_power"];
        let lo = total["lo"].as_f64().expect("lo");
        let hi = total["hi"].as_f64().expect("hi");
        assert!(lo > 0.0 && hi >= lo, "bad bounds [{lo}, {hi}]");
        assert_eq!(total["nan_possible"].as_bool(), Some(false));
        // The concrete play must land inside the proven interval.
        let played = Json::parse(&post(&app, "/api/v1/designs/a/d/play", "").body_text()).unwrap();
        let total_w = played["report"]["total_w"].as_f64().unwrap();
        assert!(
            lo <= total_w && total_w <= hi,
            "{total_w} not in [{lo}, {hi}]"
        );
        // A repeat answers from the cached analysis body, bit-identical.
        let again = post(&app, "/api/v1/designs/a/d/analyze", "");
        assert_eq!(again.body_text(), analyzed.body_text());

        // Bad sweep bodies get the envelope, not a panic or a bare 400.
        let bad = post(&app, "/api/v1/designs/a/d/sweep", "{\"global\": \"vdd\"}");
        assert_eq!(bad.status(), Status::BadRequest);
        assert_eq!(error_code(&bad), "invalid_body");

        // A full-rail multiplier: power is quadratic in vdd, so the sweep
        // quadruples from 1 V to 2 V and vdd (S = 2) outranks f (S = 1).
        let mut mult = Sheet::new("m");
        mult.set_global("vdd", "1.5").unwrap();
        mult.set_global("f", "2e6").unwrap();
        mult.add_element_row("M", "ucb/multiplier", []).unwrap();
        put(
            &app,
            "/api/v1/designs/a/m",
            &mult.to_json().to_string(),
            None,
        );
        let swept = post(
            &app,
            "/api/v1/designs/a/m/sweep",
            "{\"global\": \"vdd\", \"values\": [1.0, 2.0]}",
        );
        let parsed = Json::parse(&swept.body_text()).unwrap();
        let series = parsed["series"].as_array().unwrap();
        let ratio = series[1]["total_w"].as_f64().unwrap() / series[0]["total_w"].as_f64().unwrap();
        assert!((ratio - 4.0).abs() < 1e-9, "not quadratic in vdd: {ratio}");
        let ranked = post(&app, "/api/v1/designs/a/m/sensitivities", "");
        let parsed = Json::parse(&ranked.body_text()).unwrap();
        let top = &parsed["sensitivities"][0];
        assert_eq!(top["global"].as_str(), Some("vdd"));
        assert!((top["sensitivity"].as_f64().unwrap() - 2.0).abs() < 1e-3);

        // A converter loaded by a row that does not exist: lint names the
        // dangling reference (E008) and play/sweep fail with the unbound
        // name (E001), each at the binding that holds it.
        let mut broken = Sheet::new("b");
        broken.set_global("vdd", "1.5").unwrap();
        broken.set_global("f", "2e6").unwrap();
        for row in ["G", "DC"] {
            broken
                .add_element_row(row, "ucb/dcdc", [("p_load", "P_missing_row")])
                .unwrap();
        }
        put(
            &app,
            "/api/v1/designs/a/b",
            &broken.to_json().to_string(),
            None,
        );
        let linted = post(&app, "/api/v1/designs/a/b/lint", "");
        assert_eq!(linted.status(), Status::Ok, "{}", linted.body_text());
        let parsed = Json::parse(&linted.body_text()).unwrap();
        assert!(parsed["lint"]["diagnostics"]
            .as_array()
            .unwrap()
            .iter()
            .any(|d| d["code"].as_str() == Some("E008")
                && d["path"].as_str() == Some("rows/DC/bindings/p_load")));
        for (path, body) in [
            ("/api/v1/designs/a/b/play", ""),
            (
                "/api/v1/designs/a/b/sweep",
                "{\"global\": \"vdd\", \"values\": [1.0, 2.0]}",
            ),
        ] {
            let failed = post(&app, path, body);
            assert_eq!(failed.status(), Status::BadRequest, "{path}");
            assert_eq!(error_code(&failed), "evaluation_failed");
            let parsed = Json::parse(&failed.body_text()).unwrap();
            let first = &parsed["error"]["diagnostics"]["diagnostics"][0];
            assert_eq!(first["code"].as_str(), Some("E001"), "{path}");
            assert_eq!(first["path"].as_str(), Some("rows/G/bindings/p_load"));
        }
    }

    #[test]
    fn unknown_resources_and_methods_use_the_envelope() {
        let app = app("envelope");
        let missing = get(&app, "/api/v1/nonsense");
        assert_eq!(missing.status(), Status::NotFound);
        assert_eq!(error_code(&missing), "not_found");

        let library = get(&app, "/api/v1/library");
        assert_eq!(library.status(), Status::Ok);
        assert_eq!(library.header("content-type"), Some("application/json"));
        let parsed = Json::parse(&library.body_text()).unwrap();
        assert!(parsed.as_array().unwrap().len() > 20);
        let wrong = post(&app, "/api/v1/library", "");
        assert_eq!(wrong.status(), Status::MethodNotAllowed);
        assert_eq!(wrong.header("allow"), Some("GET"));
        assert_eq!(error_code(&wrong), "method_not_allowed");

        let element = get(&app, "/api/v1/elements/ucb/register");
        assert_eq!(element.status(), Status::Ok);
        let parsed = Json::parse(&element.body_text()).unwrap();
        assert_eq!(parsed["name"].as_str(), Some("ucb/register"));
        let unknown = get(&app, "/api/v1/elements/ucb/flux-capacitor");
        assert_eq!(unknown.status(), Status::NotFound);
        assert_eq!(error_code(&unknown), "not_found");

        // Path traversal in names is refused by the store's validator.
        let bad = put(&app, "/api/v1/designs/..%2F..%2Fetc/d", &sheet_json(), None);
        assert!(
            bad.status() == Status::BadRequest || bad.status() == Status::NotFound,
            "traversal must not reach the filesystem: {:?}",
            bad.status()
        );
    }

    /// A small but real Liberty source: units, a template, a cell with
    /// internal power and leakage.
    const LIB_SRC: &str = r#"library (api_demo) {
        voltage_unit : "1V";
        leakage_power_unit : "1nW";
        capacitive_load_unit (1, pf);
        nom_voltage : 1.1;
        lu_table_template (e2) {
            variable_1 : input_net_transition;
            index_1 ("0.1, 0.5");
        }
        cell (INVX1) {
            area : 1.2;
            cell_leakage_power : 2.0;
            pin (A) { direction : input; capacitance : 0.004; }
            pin (Y) {
                direction : output;
                internal_power () {
                    related_pin : "A";
                    rise_power (e2) { values ("0.010, 0.014"); }
                    fall_power (e2) { values ("0.012, 0.016"); }
                }
            }
        }
    }"#;

    #[test]
    fn library_import_registers_persists_and_lists() {
        let dir =
            std::env::temp_dir().join(format!("powerplay-v1-libimport-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let app1 = PowerPlayApp::new(ucb_library(), dir.clone());

        let created = post(&app1, "/api/v1/libraries", LIB_SRC);
        assert_eq!(created.status(), Status::Created, "{}", created.body_text());
        assert_eq!(created.header("etag"), Some("\"1\""));
        let parsed = Json::parse(&created.body_text()).unwrap();
        assert_eq!(parsed["library"].as_str(), Some("api_demo"));
        assert_eq!(parsed["cells_parsed"].as_f64(), Some(1.0));
        assert_eq!(parsed["cells_mapped"].as_f64(), Some(1.0));
        assert_eq!(
            parsed["elements"].as_array().unwrap()[0].as_str(),
            Some("api_demo/INVX1")
        );

        // The element answers on the element resource and the library
        // listing immediately.
        let element = get(&app1, "/api/v1/elements/api_demo/INVX1");
        assert_eq!(element.status(), Status::Ok, "{}", element.body_text());
        let listed = get(&app1, "/api/v1/libraries");
        let parsed = Json::parse(&listed.body_text()).unwrap();
        let entry = &parsed["libraries"].as_array().unwrap()[0];
        assert_eq!(entry["library"].as_str(), Some("api_demo"));
        assert_eq!(entry["cells_mapped"].as_f64(), Some(1.0));

        // The detail view carries provenance and element names, and a
        // repeat answers bit-identically from the cached body.
        let detail = get(&app1, "/api/v1/libraries/api_demo");
        assert_eq!(detail.status(), Status::Ok, "{}", detail.body_text());
        let parsed = Json::parse(&detail.body_text()).unwrap();
        assert_eq!(parsed["source_hash"].as_str().map(str::len), Some(16));
        assert_eq!(
            parsed["elements"].as_array().unwrap()[0].as_str(),
            Some("api_demo/INVX1")
        );
        let again = get(&app1, "/api/v1/libraries/api_demo");
        assert_eq!(again.body_text(), detail.body_text());

        // A design can drive the imported cell end to end.
        let mut sheet = Sheet::new("d");
        sheet.set_global("vdd", "1.1").unwrap();
        sheet.set_global("f", "1e9").unwrap();
        sheet
            .add_element_row("inv", "api_demo/INVX1", [("activity", "0.5")])
            .unwrap();
        put(
            &app1,
            "/api/v1/designs/a/d",
            &sheet.to_json().to_string(),
            None,
        );
        let played = post(&app1, "/api/v1/designs/a/d/play", "");
        assert_eq!(played.status(), Status::Ok, "{}", played.body_text());
        let parsed = Json::parse(&played.body_text()).unwrap();
        assert!(parsed["report"]["total_w"].as_f64().unwrap() > 0.0);

        // Restart: a fresh app over the same data directory reloads the
        // import from the store and the element still resolves.
        drop(app1);
        let app2 = PowerPlayApp::new(ucb_library(), dir);
        let element = get(&app2, "/api/v1/elements/api_demo/INVX1");
        assert_eq!(
            element.status(),
            Status::Ok,
            "import must survive restart: {}",
            element.body_text()
        );
        let played = post(&app2, "/api/v1/designs/a/d/play", "");
        assert_eq!(played.status(), Status::Ok, "{}", played.body_text());
    }

    #[test]
    fn malformed_library_answers_400_with_e017_diagnostics() {
        let app = app("libbad");
        let bad = post(&app, "/api/v1/libraries", "library (broken) {\n  cell (X {");
        assert_eq!(bad.status(), Status::BadRequest);
        assert_eq!(error_code(&bad), "unparsable_library");
        let parsed = Json::parse(&bad.body_text()).unwrap();
        let diags = parsed["error"]["diagnostics"]["diagnostics"]
            .as_array()
            .expect("report diagnostics present");
        assert_eq!(diags[0]["code"].as_str(), Some("E017"));
        // Nothing was persisted or registered.
        let listed = get(&app, "/api/v1/libraries");
        let parsed = Json::parse(&listed.body_text()).unwrap();
        assert!(parsed["libraries"].as_array().unwrap().is_empty());
        let missing = get(&app, "/api/v1/libraries/broken");
        assert_eq!(missing.status(), Status::NotFound);
    }

    #[test]
    fn revisions_report_the_history_floor() {
        let app = app("floor");
        let body = sheet_json();
        put(&app, "/api/v1/designs/a/d", &body, None);
        put(&app, "/api/v1/designs/a/d", &body, Some("\"1\""));

        // Full history retained: the floor is zero.
        let listed = Json::parse(&get(&app, "/api/v1/designs/a/d/revisions").body_text()).unwrap();
        assert_eq!(listed["floor"].as_f64(), Some(0.0));

        // Delete, recreate: the new lineage starts past the erased
        // revisions, and the floor records what can never be rolled
        // back to.
        app.handle(&Request::new(Method::Delete, "/api/v1/designs/a/d"));
        let recreated = put(&app, "/api/v1/designs/a/d", &body, None);
        assert_eq!(recreated.header("etag"), Some("\"3\""));
        let listed = Json::parse(&get(&app, "/api/v1/designs/a/d/revisions").body_text()).unwrap();
        assert_eq!(listed["current"].as_f64(), Some(3.0));
        assert_eq!(listed["floor"].as_f64(), Some(2.0));
        let revs: Vec<f64> = listed["revisions"]
            .as_array()
            .unwrap()
            .iter()
            .map(|r| r.as_f64().unwrap())
            .collect();
        assert_eq!(revs, vec![3.0]);
    }

    #[test]
    fn route_index_lists_every_v1_route() {
        let app = app("index");
        let index = get(&app, "/api/v1");
        assert_eq!(index.status(), Status::Ok);
        let parsed = Json::parse(&index.body_text()).unwrap();
        assert_eq!(parsed["version"].as_str(), Some("v1"));
        let routes = parsed["routes"].as_array().unwrap();
        assert_eq!(routes.len(), V1_ROUTES.len());
        assert!(routes.iter().any(|r| r["method"].as_str() == Some("GET")
            && r["path"].as_str() == Some("/api/v1/designs/{user}/{name}/events")));
        // Every entry is a bare `{method, path}` inside the v1 namespace.
        for route in routes {
            assert_eq!(route.as_object().map(|o| o.len()), Some(2), "{route}");
            assert!(route["path"].as_str().unwrap().starts_with("/api/v1"));
        }
    }

    #[test]
    fn stats_resource_serializes_the_telemetry_snapshot() {
        let app = app("stats");
        put(&app, "/api/v1/designs/a/d", &sheet_json(), None);
        let stats = get(&app, "/api/v1/stats");
        assert_eq!(stats.status(), Status::Ok);
        let parsed = Json::parse(&stats.body_text()).unwrap();
        assert!(!parsed["counters"].as_array().unwrap().is_empty());
        assert!(parsed["histograms"].as_array().is_some());
    }

    #[test]
    fn sensitivities_accepts_a_sheet_body() {
        let app = app("sensbody");
        let ranked = post(&app, "/api/v1/sensitivities", &sheet_json());
        assert_eq!(ranked.status(), Status::Ok, "{}", ranked.body_text());
        let parsed = Json::parse(&ranked.body_text()).unwrap();
        let ranking = parsed["sensitivities"].as_array().unwrap();
        assert!(!ranking.is_empty());
        assert!(ranking[0]["global"].as_str().is_some());
        assert!(ranking[0]["sensitivity"].as_f64().is_some());

        let bad = post(&app, "/api/v1/sensitivities", "{\"not\": \"a sheet\"}");
        assert_eq!(bad.status(), Status::BadRequest);
        assert_eq!(error_code(&bad), "invalid_body");
    }

    #[test]
    fn model_upload_registers_a_usable_element() {
        let app = app("models");
        let model = r#"{
            "name": "custom/alu16",
            "class": "computation",
            "doc": "uploaded via the v1 API",
            "params": [{"name": "bits", "default": 16, "doc": "word width"}],
            "model": {"cap_full": "bits * 0.4e-12", "static_current": "1e-9"}
        }"#;
        let created = post(&app, "/api/v1/models", model);
        assert_eq!(created.status(), Status::Created, "{}", created.body_text());
        assert_eq!(
            created.header("location"),
            Some("/api/v1/elements/custom/alu16")
        );
        // The element answers on the element resource and drives a
        // design end to end.
        let element = get(&app, "/api/v1/elements/custom/alu16");
        assert_eq!(element.status(), Status::Ok);
        let mut sheet = Sheet::new("d");
        sheet.set_global("vdd", "1.5").unwrap();
        sheet.set_global("f", "2e6").unwrap();
        sheet
            .add_element_row("alu", "custom/alu16", [("bits", "32")])
            .unwrap();
        put(
            &app,
            "/api/v1/designs/a/d",
            &sheet.to_json().to_string(),
            None,
        );
        let played = post(&app, "/api/v1/designs/a/d/play", "");
        assert_eq!(played.status(), Status::Ok, "{}", played.body_text());

        // A model with a broken formula is refused with a clean 400.
        let bad = post(
            &app,
            "/api/v1/models",
            r#"{"name": "custom/bad", "class": "computation", "model": {"cap_full": "((("}}"#,
        );
        assert_eq!(bad.status(), Status::BadRequest);
        assert_eq!(error_code(&bad), "invalid_body");
        assert_eq!(
            get(&app, "/api/v1/elements/custom/bad").status(),
            Status::NotFound
        );

        // Names with empty segments could never be fetched back from
        // the element route, so they are refused at registration.
        for name in ["", "x/", "/x", "a//b"] {
            let body = format!(
                r#"{{"name": "{name}", "class": "computation", "model": {{"cap_full": "1e-12"}}}}"#
            );
            let refused = post(&app, "/api/v1/models", &body);
            assert_eq!(refused.status(), Status::BadRequest, "{name:?}");
            assert_eq!(error_code(&refused), "invalid_body");
        }
        assert!(app.registry.read().get("x/").is_none());
    }

    #[test]
    fn event_stream_prologue_carries_snapshot_or_replay() {
        let app = app("events");
        let body = sheet_json();
        put(&app, "/api/v1/designs/a/d", &body, None);
        put(&app, "/api/v1/designs/a/d", &body, Some("\"1\""));

        // A fresh subscriber gets a snapshot of the current revision.
        let stream = get(&app, "/api/v1/designs/a/d/events");
        assert_eq!(stream.status(), Status::Ok);
        assert_eq!(stream.header("content-type"), Some("text/event-stream"));
        let prologue = String::from_utf8(stream.body().to_vec()).unwrap();
        assert!(prologue.starts_with("retry: 2000\n\n"), "{prologue}");
        assert!(prologue.contains("event: snapshot\n"), "{prologue}");
        assert!(prologue.contains("id: 2\n"), "{prologue}");

        // A resume from revision 1 replays exactly the missed revision.
        let mut resume = Request::new(Method::Get, "/api/v1/designs/a/d/events");
        resume.set_header("Last-Event-ID", "1");
        let stream = app.handle(&resume);
        let prologue = String::from_utf8(stream.body().to_vec()).unwrap();
        assert!(prologue.contains("event: revision\n"), "{prologue}");
        assert!(prologue.contains("id: 2\n"), "{prologue}");
        assert!(!prologue.contains("event: snapshot\n"), "{prologue}");

        // A resume already at the head replays nothing.
        let mut current = Request::new(Method::Get, "/api/v1/designs/a/d/events");
        current.set_header("Last-Event-ID", "2");
        let stream = app.handle(&current);
        let prologue = String::from_utf8(stream.body().to_vec()).unwrap();
        assert!(!prologue.contains("event:"), "{prologue}");

        // A resume from a revision ahead of this lineage (stale id from
        // a deleted ancestor) resyncs with a snapshot.
        let mut stale = Request::new(Method::Get, "/api/v1/designs/a/d/events");
        stale.set_header("Last-Event-ID", "99");
        let stream = app.handle(&stale);
        let prologue = String::from_utf8(stream.body().to_vec()).unwrap();
        assert!(prologue.contains("event: snapshot\n"), "{prologue}");

        // An unknown design refuses the stream with the envelope.
        let missing = get(&app, "/api/v1/designs/a/nope/events");
        assert_eq!(missing.status(), Status::NotFound);
        assert_eq!(error_code(&missing), "not_found");
    }
}
