//! Plan-cache accounting for the v1 API, proved with the cache's own
//! miss counter:
//!
//! - a repeated play of an unchanged design reuses the compiled plan;
//! - a conditional GET of the design answers `304 Not Modified` from
//!   the store revision alone, without compiling, serializing or
//!   hashing the design;
//! - a library edit bumps the registry generation, so the next play
//!   compiles the design exactly once more.
//!
//! This lives alone in its own integration binary because the cache
//! counters are process-global; a single `#[test]` makes the
//! no-growth assertions race-free.

use powerplay::{ucb_library, Sheet};
use powerplay_web::app::PowerPlayApp;
use powerplay_web::http::{Method, Request, Response, Status};

fn prom_value(exposition: &str, series: &str) -> f64 {
    exposition
        .lines()
        .find(|l| l.starts_with(series) && !l.starts_with('#'))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.0)
}

#[test]
fn conditional_gets_neither_recompile_nor_rehash() {
    let dir = std::env::temp_dir().join(format!("powerplay-revetag-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let app = PowerPlayApp::new(ucb_library(), dir);

    let mut sheet = Sheet::new("d");
    sheet.set_global("vdd", "1.5").unwrap();
    sheet.set_global("f", "2e6").unwrap();
    sheet
        .add_element_row("R", "ucb/register", [("bits", "16")])
        .unwrap();
    app.store().save("a", "d", &sheet, None).unwrap();

    let misses = || {
        let exposition = app
            .handle(&Request::new(Method::Get, "/metrics"))
            .body_text();
        prom_value(&exposition, "powerplay_web_plan_cache_misses_total")
    };
    let play = || -> Response {
        let played = app.handle(&Request::new(Method::Post, "/api/v1/designs/a/d/play"));
        assert_eq!(played.status(), Status::Ok, "{}", played.body_text());
        played
    };

    // The first play compiles once (one miss); a repeat reuses the plan.
    let first = play();
    let baseline = misses();
    assert!(baseline >= 1.0);
    assert_eq!(play().body_text(), first.body_text());
    assert_eq!(misses(), baseline, "a repeated play must not recompile");

    // The design resource is tagged with its store revision, and
    // conditional GETs revalidate from it without touching the cache.
    let v1 = app.handle(&Request::new(Method::Get, "/api/v1/designs/a/d"));
    assert_eq!(v1.status(), Status::Ok);
    assert_eq!(v1.header("etag"), Some("\"1\""));
    for _ in 0..3 {
        let mut conditional = Request::new(Method::Get, "/api/v1/designs/a/d");
        conditional.set_header("If-None-Match", "\"1\"");
        let r = app.handle(&conditional);
        assert_eq!(r.status(), Status::NotModified);
        assert!(r.body().is_empty());
    }
    assert_eq!(misses(), baseline, "a 304 must not recompile the design");

    // Registering a model bumps the registry generation (the new model
    // could shadow one the design uses), so the next play compiles the
    // unchanged design exactly once more, and the one after hits again.
    let generation = app.registry().read().generation();
    let mut model = Request::new(Method::Post, "/api/v1/models");
    model.set_body(
        br#"{"name": "carol/bump", "class": "computation", "model": {"cap_full": "10f"}}"#.to_vec(),
        "application/json",
    );
    assert_eq!(app.handle(&model).status(), Status::Created);
    assert!(app.registry().read().generation() > generation);
    play();
    assert_eq!(misses(), baseline + 1.0, "a new generation compiles once");
    play();
    assert_eq!(misses(), baseline + 1.0);

    // A new revision invalidates the tag.
    app.store().save("a", "d", &sheet, None).unwrap();
    let v1 = app.handle(&Request::new(Method::Get, "/api/v1/designs/a/d"));
    assert_eq!(v1.header("etag"), Some("\"2\""));
}
