//! The benchmark's own HTTP/1.1 client: one blocking keep-alive
//! connection per client thread, requests pre-rendered to bytes (the
//! traced run parses the very same bytes), and a Server-Sent Events
//! reader for the design's `events` stream.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One request, rendered once and sent as-is.
#[derive(Clone)]
pub struct Req {
    pub bytes: Vec<u8>,
    /// Where the body starts in `bytes` (its length if there is none).
    pub body_at: usize,
}

impl Req {
    pub fn new(method: &str, path: &str, headers: &[(&str, &str)], body: &[u8]) -> Req {
        let mut head = format!("{method} {path} HTTP/1.1\r\nHost: bench\r\n");
        for (name, value) in headers {
            head.push_str(&format!("{name}: {value}\r\n"));
        }
        if !body.is_empty() || method == "POST" || method == "PUT" {
            head.push_str(&format!("Content-Length: {}\r\n", body.len()));
        }
        head.push_str("\r\n");
        let mut bytes = head.into_bytes();
        let body_at = bytes.len();
        bytes.extend_from_slice(body);
        Req { bytes, body_at }
    }

    pub fn body(&self) -> &[u8] {
        &self.bytes[self.body_at..]
    }
}

/// A parsed response: status, the `ETag` if any, and the body.
pub struct Answer {
    pub status: u16,
    pub etag: Option<String>,
    pub body: Vec<u8>,
}

impl Answer {
    pub fn ok(&self) -> bool {
        (200..300).contains(&self.status)
    }

    pub fn text(&self) -> &str {
        std::str::from_utf8(&self.body).unwrap_or("")
    }
}

pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Conn {
            reader: BufReader::with_capacity(64 * 1024, stream.try_clone()?),
            writer: stream,
        })
    }

    pub fn send(&mut self, req: &Req) -> std::io::Result<()> {
        self.writer.write_all(&req.bytes)
    }

    pub fn recv(&mut self) -> std::io::Result<Answer> {
        let (status, headers) = read_head(&mut self.reader)?;
        let len = header(&headers, "content-length")
            .and_then(|v| v.parse::<usize>().ok())
            .ok_or_else(|| bad("response without Content-Length"))?;
        let mut body = vec![0; len];
        self.reader.read_exact(&mut body)?;
        Ok(Answer {
            status,
            etag: header(&headers, "etag").map(str::to_owned),
            body,
        })
    }

    pub fn call(&mut self, req: &Req) -> std::io::Result<Answer> {
        self.send(req)?;
        self.recv()
    }

    /// Turns this connection into an event-stream reader: sends the
    /// `GET .../events` request and reads the response head.
    pub fn into_events(mut self, req: &Req) -> std::io::Result<Events> {
        self.send(req)?;
        let (status, _) = read_head(&mut self.reader)?;
        if status != 200 {
            return Err(bad(&format!("events stream answered {status}")));
        }
        Ok(Events {
            reader: self.reader,
            _writer: self.writer,
        })
    }
}

fn bad(msg: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_owned())
}

fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v.as_str())
}

fn read_head(reader: &mut BufReader<TcpStream>) -> std::io::Result<(u16, Vec<(String, String)>)> {
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(bad("connection closed"));
    }
    let status = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    let mut headers = Vec::new();
    loop {
        line.clear();
        reader.read_line(&mut line)?;
        let trimmed = line.trim_end();
        if trimmed.is_empty() {
            break;
        }
        if let Some((name, value)) = trimmed.split_once(':') {
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_owned()));
        }
    }
    Ok((status, headers))
}

/// One Server-Sent Event.
pub struct Event {
    pub id: Option<u64>,
    pub kind: String,
    pub data: String,
}

pub struct Events {
    reader: BufReader<TcpStream>,
    _writer: TcpStream,
}

impl Events {
    /// The next event, skipping `:` comments (heartbeats) and the
    /// `retry:` hint. `Ok(None)` at end of stream.
    pub fn next(&mut self) -> std::io::Result<Option<Event>> {
        let mut event = Event {
            id: None,
            kind: String::new(),
            data: String::new(),
        };
        let mut line = String::new();
        let mut any = false;
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Ok(None);
            }
            let l = line.trim_end_matches(['\n', '\r']);
            if l.is_empty() {
                if any && !event.kind.is_empty() {
                    return Ok(Some(event));
                }
                any = false;
                continue;
            }
            if l.starts_with(':') {
                continue;
            }
            any = true;
            if let Some(v) = l.strip_prefix("id: ") {
                event.id = v.parse().ok();
            } else if let Some(v) = l.strip_prefix("event: ") {
                event.kind = v.to_owned();
            } else if let Some(v) = l.strip_prefix("data: ") {
                if !event.data.is_empty() {
                    event.data.push('\n');
                }
                event.data.push_str(v);
            }
        }
    }
}
