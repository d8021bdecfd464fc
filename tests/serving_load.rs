//! Load gate for the readiness reactor. The real socket server answers
//! the v1 play route (`POST /api/v1/designs/demo/infopad/play`) with the
//! paper's InfoPad system under two load shapes:
//!
//! - sequential: one client, a fresh TCP connection per request
//!   (`Connection: close`), the worst case for the accept path;
//! - concurrent: 128 keep-alive connections, each pipelining batches of
//!   8 plays, the load shape the reactor exists for.
//!
//! Every play hits the cached compiled plan, so a request pays HTTP, a
//! plan-cache hit, one replay and the report's serialisation. The
//! concurrent shape must serve requests, lose or fail none of them, and
//! reach at least twice the sequential rate.
//!
//! The gate depends on timing, so it is ignored by default. Run it in
//! release: `cargo test --release --test serving_load -- --ignored`.

use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use powerplay::Sheet;
use powerplay_json::Json;
use powerplay_web::app::PowerPlayApp;
use powerplay_web::http::{read_response, Response, ServerConfig, Status};

const CLIENTS: usize = 128;
const PIPELINE_DEPTH: usize = 8;
const SEQUENTIAL: Duration = Duration::from_millis(1500);
const CONCURRENT: Duration = Duration::from_secs(2);
const PLAY: &str = "/api/v1/designs/demo/infopad/play";

fn is_play(response: &Response) -> bool {
    response.status() == Status::Ok && response.body_text().contains("total_w")
}

/// Requests per second of one client opening a fresh connection per
/// request, after a warm-up of a tenth of the window.
fn sequential_rate(addr: SocketAddr) -> f64 {
    let request = format!("POST {PLAY} HTTP/1.1\r\nContent-Length: 0\r\nConnection: close\r\n\r\n");
    let play = || {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(request.as_bytes()).expect("send");
        let response = read_response(&mut BufReader::new(stream)).expect("response");
        assert!(is_play(&response), "sequential play failed: {response:?}");
    };
    let warmup = Instant::now();
    while warmup.elapsed() < SEQUENTIAL / 10 {
        play();
    }
    let start = Instant::now();
    let mut requests = 0u32;
    while start.elapsed() < SEQUENTIAL {
        play();
        requests += 1;
    }
    f64::from(requests) / start.elapsed().as_secs_f64()
}

/// `CLIENTS` keep-alive connections, each writing batches of
/// `PIPELINE_DEPTH` pipelined plays and reading every response back, so
/// a lost or out-of-order response counts as an error, not as silence.
/// Returns (requests, errors, requests per second).
fn concurrent_load(addr: SocketAddr) -> (u64, u64, f64) {
    let stop = Arc::new(AtomicBool::new(false));
    let batch =
        format!("POST {PLAY} HTTP/1.1\r\nContent-Length: 0\r\nConnection: keep-alive\r\n\r\n")
            .repeat(PIPELINE_DEPTH);
    let clients: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let stop = Arc::clone(&stop);
            let batch = batch.clone();
            std::thread::spawn(move || {
                let stream = TcpStream::connect(addr).expect("connect");
                stream.set_nodelay(true).expect("nodelay");
                let mut writer = stream.try_clone().expect("clone");
                let mut reader = BufReader::new(stream);
                let (mut requests, mut errors) = (0u64, 0u64);
                while !stop.load(Ordering::Relaxed) {
                    if writer.write_all(batch.as_bytes()).is_err() {
                        errors += PIPELINE_DEPTH as u64;
                        break;
                    }
                    for _ in 0..PIPELINE_DEPTH {
                        if !read_response(&mut reader).is_ok_and(|r| is_play(&r)) {
                            errors += 1;
                        }
                        requests += 1;
                    }
                }
                (requests, errors)
            })
        })
        .collect();

    let start = Instant::now();
    std::thread::sleep(CONCURRENT);
    stop.store(true, Ordering::Relaxed);
    let (mut requests, mut errors) = (0u64, 0u64);
    for client in clients {
        let (r, e) = client.join().expect("client thread");
        requests += r;
        errors += e;
    }
    (
        requests,
        errors,
        requests as f64 / start.elapsed().as_secs_f64(),
    )
}

#[test]
#[ignore = "timing gate; run in release with --ignored"]
fn concurrent_keep_alive_load_doubles_sequential_with_no_errors() {
    let dir = std::env::temp_dir().join(format!("powerplay-load-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let app = PowerPlayApp::new(powerplay::ucb_library(), dir.clone());
    let path = format!(
        "{}/examples/designs/infopad.json",
        env!("CARGO_MANIFEST_DIR")
    );
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    let sheet = Sheet::from_json(&Json::parse(&text).expect("parse")).expect("decode");
    app.store()
        .save("demo", "infopad", Arc::new(sheet), None)
        .expect("seed");

    // Shed thresholds sized for the load shape: 128 connections with 8
    // requests in flight each must never see a 503.
    let server = app
        .serve_with(
            "127.0.0.1:0",
            ServerConfig {
                queue_capacity: 2 * CLIENTS * PIPELINE_DEPTH,
                max_connections: 4 * CLIENTS,
                ..ServerConfig::default()
            },
        )
        .expect("bind");
    let sequential = sequential_rate(server.addr());
    let (requests, errors, concurrent) = concurrent_load(server.addr());
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    // Clients and server share the host's CPUs, so the count is part of
    // the result.
    let cpus = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    println!(
        "{cpus} cpus: sequential {sequential:.0} req/s; concurrent {concurrent:.0} req/s, \
         {errors} errors of {requests}"
    );
    assert!(requests > 0, "the concurrent load served nothing");
    assert_eq!(errors, 0, "lost or erroneous responses under load");
    assert!(
        concurrent >= 2.0 * sequential,
        "concurrent {concurrent:.0} req/s is under twice sequential {sequential:.0} req/s"
    );
}
