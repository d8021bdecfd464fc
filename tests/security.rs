//! The paper's protection section: "Proprietary designs can be protected
//! in a number of ways. PowerPlay can provide password-restricted access
//! plus WWW programs enable file access to be restricted to specific
//! machines. For full security, a private version of PowerPlay may be
//! run within a company's firewalls."

use std::io::{BufReader, Write};
use std::net::TcpStream;

use powerplay::ucb_library;
use powerplay_expr::{Expr, MAX_DEPTH};
use powerplay_json::Json;
use powerplay_sheet::Sheet;
use powerplay_web::app::PowerPlayApp;
use powerplay_web::http::{
    http_get, http_get_basic_auth, read_response, ClientError, Method, Request, Response, Server,
    Status,
};
use powerplay_web::remote;

fn data_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("powerplay-sec-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn password_protected_instance_rejects_anonymous_requests() {
    let app = PowerPlayApp::with_password_protection(
        ucb_library(),
        data_dir("basic"),
        vec![("lidsky".into(), "infopad".into())],
    );
    let server = app.serve("127.0.0.1:0").unwrap();
    let base = format!("http://{}", server.addr());

    // Anonymous: 401 with the browser challenge header.
    let denied = http_get(&format!("{base}/library?user=x")).unwrap();
    assert_eq!(denied.status(), Status::Unauthorized);
    assert!(denied
        .header("www-authenticate")
        .is_some_and(|h| h.contains("Basic")));

    // Wrong password: still 401.
    let wrong = http_get_basic_auth(&format!("{base}/library?user=x"), "lidsky", "guess").unwrap();
    assert_eq!(wrong.status(), Status::Unauthorized);

    // Correct credentials: full access, including the JSON API.
    let ok = http_get_basic_auth(&format!("{base}/library?user=x"), "lidsky", "infopad").unwrap();
    assert_eq!(ok.status(), Status::Ok);
    assert!(ok.body_text().contains("ucb/multiplier"));
    let api = http_get_basic_auth(&format!("{base}/api/v1/library"), "lidsky", "infopad").unwrap();
    assert_eq!(api.status(), Status::Ok);
}

#[test]
fn protected_library_is_not_remotely_fetchable_without_credentials() {
    // The remote-access path honours the protection: an unauthenticated
    // merge fails with the server's status, leaking nothing.
    let app = PowerPlayApp::with_password_protection(
        ucb_library(),
        data_dir("remote"),
        vec![("corp".into(), "s3cret".into())],
    );
    let server = app.serve("127.0.0.1:0").unwrap();
    let err = remote::fetch_library(&format!("http://{}", server.addr())).unwrap_err();
    assert!(matches!(err, remote::FetchError::Status(401)), "{err}");
}

#[test]
fn open_instances_remain_open() {
    // Regression guard: apps without credentials keep the public-site
    // behaviour.
    let app = PowerPlayApp::new(ucb_library(), data_dir("open"));
    let server = app.serve("127.0.0.1:0").unwrap();
    let base = format!("http://{}", server.addr());
    assert_eq!(
        http_get(&format!("{base}/library?user=anyone"))
            .unwrap()
            .status(),
        Status::Ok
    );
}

#[test]
fn machine_filter_drops_unlisted_clients() {
    // A filter that rejects everyone: connections are closed before any
    // HTTP exchange, so the client sees a transport error, not a page.
    let server =
        Server::bind_filtered("127.0.0.1:0", |_peer| false, |_req| Response::html("never"))
            .unwrap()
            .start();
    let err = http_get(&format!("http://{}/x", server.addr())).unwrap_err();
    assert!(
        matches!(err, ClientError::Io(_) | ClientError::BadResponse(_)),
        "{err}"
    );

    // And one that allows loopback works normally.
    let open = Server::bind_filtered(
        "127.0.0.1:0",
        |peer| peer.ip().is_loopback(),
        |_req| Response::html("served"),
    )
    .unwrap()
    .start();
    let ok = http_get(&format!("http://{}/x", open.addr())).unwrap();
    assert_eq!(ok.body_text(), "served");
}

#[test]
fn help_page_is_served() {
    let app = PowerPlayApp::new(ucb_library(), data_dir("help"));
    let server = app.serve("127.0.0.1:0").unwrap();
    let page = http_get(&format!("http://{}/help", server.addr())).unwrap();
    assert_eq!(page.status(), Status::Ok);
    let body = page.body_text();
    assert!(body.contains("Tutorial"));
    assert!(body.contains("P_other_row"));
    assert!(body.contains("Defining models"));
}

/// A design whose one global is `1+1+…+1` with `terms` terms.
fn deep_design(terms: usize) -> String {
    let formula = vec!["1"; terms].join("+");
    format!(r#"{{"name":"deep","globals":[{{"name":"x","formula":"{formula}"}}],"rows":[]}}"#)
}

#[test]
fn an_over_deep_formula_is_refused_and_the_server_serves_on() {
    let app = PowerPlayApp::new(ucb_library(), data_dir("deep"));
    let server = app.serve("127.0.0.1:0").unwrap();
    let mut conn = BufReader::new(TcpStream::connect(server.addr()).unwrap());
    let mut send = |method: &str, path: &str, body: &str| {
        let head = format!(
            "{method} {path} HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        let stream = conn.get_mut();
        stream.write_all(head.as_bytes()).unwrap();
        stream.write_all(body.as_bytes()).unwrap();
        read_response(&mut conn).unwrap()
    };

    // The 257th `+` of the global nests one level too deep.
    let refused = send("POST", "/api/v1/sensitivities", &deep_design(20_000));
    assert_eq!(refused.status(), Status::BadRequest);
    assert!(
        refused.body_text().contains("at offset 513"),
        "{}",
        refused.body_text()
    );
    assert_eq!(send("GET", "/api/v1", "").status(), Status::Ok);

    let put = send("PUT", "/api/v1/designs/u/deep", &deep_design(6_000));
    assert_eq!(put.status(), Status::BadRequest);
    let stored = send("GET", "/api/v1/designs/u/deep", "");
    assert_eq!(stored.status(), Status::NotFound);
}

#[test]
fn formula_parsing_is_bounded_on_a_small_stack() {
    // Each of these would recurse once per level without the cap.
    let deep = std::thread::Builder::new()
        .stack_size(256 * 1024)
        .spawn(|| {
            let n = 100_000;
            for src in [
                format!("{}1{}", "(".repeat(n), ")".repeat(n)),
                format!("{}1", "-".repeat(n)),
                vec!["2"; n].join("^"),
                vec!["1"; n].join("+"),
            ] {
                assert!(Expr::parse(&src).is_err(), "{}…", &src[..8]);
            }
            let at_cap = format!("{}1{}", "(".repeat(256), ")".repeat(256));
            Expr::parse(&at_cap).is_ok() && Expr::parse(&vec!["1"; 257].join("+")).is_ok()
        })
        .unwrap();
    assert!(deep.join().unwrap(), "a 256-deep formula parses");
}

#[test]
fn a_formula_at_the_depth_cap_survives_storage_and_a_restart() {
    // Stored and sent designs print each `+` of the sum in parentheses.
    let design = deep_design(MAX_DEPTH + 1);
    let sheet = Sheet::from_json(&Json::parse(&design).unwrap()).unwrap();
    let printed = sheet.to_json().to_string();
    assert!(printed.contains(&"(".repeat(MAX_DEPTH)), "{printed}");
    assert_eq!(
        Sheet::from_json(&Json::parse(&printed).unwrap()).unwrap(),
        sheet
    );

    let dir = data_dir("at-cap");
    let send = |app: &PowerPlayApp, method: Method, path: &str, body: Option<&str>| {
        let mut req = Request::new(method, path);
        if let Some(body) = body {
            req.set_body(body.as_bytes().to_vec(), "application/json");
        }
        app.handle(&req)
    };
    let app = PowerPlayApp::new(ucb_library(), dir.clone());
    let other = r#"{"name":"other","globals":[{"name":"vdd","formula":"1.5"}],"rows":[]}"#;
    for (name, body) in [("deep", design.as_str()), ("other", other)] {
        let path = format!("/api/v1/designs/u/{name}");
        let put = send(&app, Method::Put, &path, Some(body));
        assert_eq!(put.status(), Status::Created, "{}", put.body_text());
    }
    // What a GET answers, a PUT takes back.
    let got = send(&app, Method::Get, "/api/v1/designs/u/deep", None);
    assert_eq!(got.status(), Status::Ok);
    let design = Json::parse(&got.body_text()).unwrap()["design"].to_string();
    let mut put = Request::new(Method::Put, "/api/v1/designs/u/deep");
    put.set_body(design.into_bytes(), "application/json");
    put.set_header("If-Match", "\"1\"");
    let put = app.handle(&put);
    assert_eq!(put.status(), Status::Ok, "{}", put.body_text());
    drop(app);

    // Recovery rereads the printed formula from the log.
    let reopened = PowerPlayApp::new(ucb_library(), dir.clone());
    let played = send(&reopened, Method::Post, "/api/v1/designs/u/deep/play", None);
    assert_eq!(played.status(), Status::Ok, "{}", played.body_text());
    let other = send(&reopened, Method::Get, "/api/v1/designs/u/other", None);
    assert_eq!(other.status(), Status::Ok, "{}", other.body_text());
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);
}
