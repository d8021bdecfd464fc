//! A small HTTP/1.1 client for cross-site model access (paper Figure 7:
//! "the key is using … scripts at Universal Resource Locators to handle
//! information transfer on demand").
//!
//! Requests are sent keep-alive and completed connections park in a
//! small per-host pool (two slots), so repeated calls against the same
//! site — the remote-fetch cache warming a sweep, a CLI polling a
//! design — skip the TCP handshake. A pooled connection can go stale
//! (the server closed it, or its port was reused); the first request
//! over a reused connection therefore retries once on a fresh socket
//! before reporting an error.

use std::collections::{BTreeMap, HashMap};
use std::error::Error;
use std::fmt;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::{Mutex, OnceLock};
use std::time::Duration;

use powerplay_telemetry::Counter;

use super::request::{Method, Request};
use super::response::{Response, Status};

/// Keep-alive connections parked per `host:port`.
const POOL_SLOTS_PER_HOST: usize = 2;

/// A parked connection: the `BufReader` must survive with the socket,
/// because bytes of the next response may already sit in its buffer.
type PooledConn = BufReader<TcpStream>;

fn pool() -> &'static Mutex<HashMap<String, Vec<PooledConn>>> {
    static POOL: OnceLock<Mutex<HashMap<String, Vec<PooledConn>>>> = OnceLock::new();
    POOL.get_or_init(Mutex::default)
}

fn reused_total() -> &'static Counter {
    static REUSED: OnceLock<Counter> = OnceLock::new();
    REUSED.get_or_init(|| {
        powerplay_telemetry::global().counter(
            "powerplay_http_client_reused_total",
            "Client requests served over a reused pooled keep-alive connection",
        )
    })
}

fn pool_checkout(host_port: &str) -> Option<PooledConn> {
    pool()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .get_mut(host_port)?
        .pop()
}

/// Parks a connection for reuse if the exchange left it clean: the
/// response was `Content-Length`-delimited (so the stream position is
/// exactly at the next response boundary) and the server did not ask to
/// close.
fn pool_checkin(host_port: &str, conn: PooledConn, response: &Response) {
    let delimited = response.header("content-length").is_some();
    let close = response
        .header("connection")
        .is_some_and(|v| v.eq_ignore_ascii_case("close"));
    if !delimited || close {
        return;
    }
    let mut pool = pool().lock().unwrap_or_else(|e| e.into_inner());
    let slots = pool.entry(host_port.to_owned()).or_default();
    if slots.len() < POOL_SLOTS_PER_HOST {
        slots.push(conn);
    }
}

/// Error produced by the HTTP client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientError {
    /// The URL was not of the supported `http://host[:port]/path` form.
    BadUrl(String),
    /// Connecting or transferring failed.
    Io(String),
    /// The server's response was malformed.
    BadResponse(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::BadUrl(url) => write!(f, "unsupported url `{url}`"),
            ClientError::Io(e) => write!(f, "connection failed: {e}"),
            ClientError::BadResponse(what) => write!(f, "malformed response: {what}"),
        }
    }
}

impl Error for ClientError {}

/// Issues a `GET` and returns the response.
///
/// # Errors
///
/// Returns [`ClientError`] on bad URLs, connection failure, or malformed
/// responses.
///
/// ```no_run
/// let response = powerplay_web::http::http_get("http://127.0.0.1:8096/api/v1/library")?;
/// assert!(response.body_text().starts_with('['));
/// # Ok::<(), powerplay_web::http::ClientError>(())
/// ```
pub fn http_get(url: &str) -> Result<Response, ClientError> {
    send(url, Method::Get, None, None, None)
}

/// Issues a `GET` with HTTP Basic credentials (for password-protected
/// PowerPlay instances — "PowerPlay can provide password-restricted
/// access").
///
/// # Errors
///
/// Same as [`http_get`].
pub fn http_get_basic_auth(url: &str, user: &str, password: &str) -> Result<Response, ClientError> {
    send(url, Method::Get, None, Some((user, password)), None)
}

/// Issues a `POST` with the given body and content type.
///
/// # Errors
///
/// Same as [`http_get`].
pub fn http_post(url: &str, body: &[u8], content_type: &str) -> Result<Response, ClientError> {
    send(url, Method::Post, Some((body, content_type)), None, None)
}

/// Issues a `PUT` with the given body, content type, and optional
/// `If-Match` revision guard (v1 design resources).
///
/// # Errors
///
/// Same as [`http_get`].
pub fn http_put(
    url: &str,
    body: &[u8],
    content_type: &str,
    if_match: Option<&str>,
) -> Result<Response, ClientError> {
    send(url, Method::Put, Some((body, content_type)), None, if_match)
}

/// Issues a `DELETE`.
///
/// # Errors
///
/// Same as [`http_get`].
pub fn http_delete(url: &str) -> Result<Response, ClientError> {
    send(url, Method::Delete, None, None, None)
}

fn send(
    url: &str,
    method: Method,
    body: Option<(&[u8], &str)>,
    basic_auth: Option<(&str, &str)>,
    if_match: Option<&str>,
) -> Result<Response, ClientError> {
    let (host_port, path_and_query) = split_url(url)?;
    let mut request = Request::new(method, path_and_query);
    if let Some((bytes, content_type)) = body {
        request.set_body(bytes.to_vec(), content_type);
    }
    if let Some((user, password)) = basic_auth {
        let token = crate::http::base64::encode(format!("{user}:{password}").as_bytes());
        request.set_header("authorization", &format!("Basic {token}"));
    }
    if let Some(rev) = if_match {
        request.set_header("if-match", rev);
    }

    let bytes = request.to_bytes(&host_port, true);
    // A parked connection first; any failure on it means stale, not
    // fatal — retry once on a fresh socket.
    if let Some(conn) = pool_checkout(&host_port) {
        if let Ok(response) = exchange(conn, &host_port, &bytes) {
            reused_total().inc();
            return Ok(response);
        }
    }
    let stream = TcpStream::connect(&host_port).map_err(|e| ClientError::Io(e.to_string()))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(|e| ClientError::Io(e.to_string()))?;
    exchange(BufReader::new(stream), &host_port, &bytes)
}

/// Writes one serialized request, reads one response, and parks the
/// connection back in the pool when it stayed clean.
fn exchange(mut conn: PooledConn, host_port: &str, bytes: &[u8]) -> Result<Response, ClientError> {
    conn.get_mut()
        .write_all(bytes)
        .map_err(|e| ClientError::Io(e.to_string()))?;
    let response = read_response(&mut conn)?;
    pool_checkin(host_port, conn, &response);
    Ok(response)
}

/// Splits `http://host[:port]/path?query` into `(host:port, /path?query)`.
fn split_url(url: &str) -> Result<(String, &str), ClientError> {
    let rest = url
        .strip_prefix("http://")
        .ok_or_else(|| ClientError::BadUrl(url.to_owned()))?;
    let (authority, path) = match rest.find('/') {
        Some(idx) => (&rest[..idx], &rest[idx..]),
        None => (rest, "/"),
    };
    if authority.is_empty() {
        return Err(ClientError::BadUrl(url.to_owned()));
    }
    let host_port = if authority.contains(':') {
        authority.to_owned()
    } else {
        format!("{authority}:80")
    };
    Ok((host_port, path))
}

/// Reads one HTTP/1.1 response off `reader` — status line, headers,
/// then a `Content-Length` body (or read-to-EOF without one). Public so
/// raw-socket tests and the load test can parse responses without
/// hand-rolled readers.
///
/// # Errors
///
/// Returns [`ClientError`] on I/O failure or a malformed response.
pub fn read_response<R: BufRead>(reader: &mut R) -> Result<Response, ClientError> {
    let mut status_line = String::new();
    reader
        .read_line(&mut status_line)
        .map_err(|e| ClientError::Io(e.to_string()))?;
    let mut parts = status_line.split_whitespace();
    let version = parts.next().unwrap_or_default();
    if !version.starts_with("HTTP/1.") {
        return Err(ClientError::BadResponse(format!(
            "bad status line `{}`",
            status_line.trim()
        )));
    }
    let code: u16 = parts
        .next()
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| ClientError::BadResponse("missing status code".into()))?;
    let status = match code {
        200 => Status::Ok,
        201 => Status::Created,
        302 => Status::Found,
        304 => Status::NotModified,
        400 => Status::BadRequest,
        401 => Status::Unauthorized,
        404 => Status::NotFound,
        405 => Status::MethodNotAllowed,
        408 => Status::RequestTimeout,
        409 => Status::Conflict,
        410 => Status::Gone,
        413 => Status::PayloadTooLarge,
        428 => Status::PreconditionRequired,
        431 => Status::RequestHeaderFieldsTooLarge,
        503 => Status::ServiceUnavailable,
        _ => Status::InternalServerError,
    };

    let mut headers = BTreeMap::new();
    loop {
        let mut line = String::new();
        let n = reader
            .read_line(&mut line)
            .map_err(|e| ClientError::Io(e.to_string()))?;
        if n == 0 {
            return Err(ClientError::BadResponse("truncated headers".into()));
        }
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            headers.insert(name.trim().to_ascii_lowercase(), value.trim().to_owned());
        }
    }

    let body = match headers.get("content-length") {
        Some(len) => {
            let len: usize = len
                .parse()
                .map_err(|_| ClientError::BadResponse("bad content-length".into()))?;
            let mut body = vec![0u8; len];
            reader
                .read_exact(&mut body)
                .map_err(|e| ClientError::Io(e.to_string()))?;
            body
        }
        None => {
            let mut body = Vec::new();
            reader
                .read_to_end(&mut body)
                .map_err(|e| ClientError::Io(e.to_string()))?;
            body
        }
    };
    Ok(Response::from_parts(status, headers, body))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn url_splitting() {
        assert_eq!(
            split_url("http://example.org/a/b?c=1").unwrap(),
            ("example.org:80".to_owned(), "/a/b?c=1")
        );
        assert_eq!(
            split_url("http://127.0.0.1:8096").unwrap(),
            ("127.0.0.1:8096".to_owned(), "/")
        );
        assert!(split_url("https://secure.example.org/").is_err());
        assert!(split_url("ftp://example.org/").is_err());
        assert!(split_url("http:///nohost").is_err());
    }

    #[test]
    fn parses_response_without_content_length() {
        let raw = "HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\n\r\nhello";
        let r = read_response(&mut BufReader::new(raw.as_bytes())).unwrap();
        assert_eq!(r.status(), Status::Ok);
        assert_eq!(r.body_text(), "hello");
    }

    #[test]
    fn parses_response_with_content_length() {
        let raw = "HTTP/1.1 404 Not Found\r\ncontent-length: 4\r\n\r\nnope extra";
        let r = read_response(&mut BufReader::new(raw.as_bytes())).unwrap();
        assert_eq!(r.status(), Status::NotFound);
        assert_eq!(r.body_text(), "nope");
    }

    #[test]
    fn rejects_garbage_responses() {
        assert!(read_response(&mut BufReader::new(&b"SMTP hello\r\n"[..])).is_err());
        assert!(read_response(&mut BufReader::new(&b"HTTP/1.1\r\n\r\n"[..])).is_err());
    }

    #[test]
    fn connection_refused_is_io_error() {
        // Port 1 on localhost is almost certainly closed.
        let err = http_get("http://127.0.0.1:1/").unwrap_err();
        assert!(matches!(err, ClientError::Io(_)));
    }
}
