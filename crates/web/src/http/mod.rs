//! A minimal HTTP/1.1 implementation on `std::net`.
//!
//! Scope: exactly what a 1996 CGI-style tool needs — `GET`/`POST`,
//! `Content-Length` bodies, keep-alive, URL-encoded forms — implemented
//! defensively (size limits, timeouts) because [`remote`](crate::remote)
//! accepts connections from other sites.
//!
//! Serving runs on a readiness reactor (`server`): a single epoll
//! event loop multiplexes every connection (keep-alive, pipelining,
//! deadlines) while a small worker pool evaluates sheets. The syscall
//! surface is vendored in `sys` — no async runtime crates.

pub mod base64;

mod client;
mod conn;
mod reactor;
mod request;
mod response;
mod server;
mod stream;
mod sys;
pub mod urlencoded;
mod wheel;

pub use client::{
    http_delete, http_get, http_get_basic_auth, http_post, http_put, read_response, ClientError,
};
pub use request::{Method, ParseRequestError, Request};
pub use response::{Response, Status};
pub use server::{Server, ServerConfig, ServerHandle};
pub use stream::StreamHandle;

/// Canonical `Train-Case` for a header name stored lowercased:
/// `content-length` → `Content-Length`, `etag` → `Etag`. Both the
/// request builder and the response serializer emit this casing, so a
/// strict peer sees conventional headers while our own lookups stay
/// case-insensitive.
pub(crate) fn canonical_header_case(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    let mut upper_next = true;
    for c in name.chars() {
        if c == '-' {
            out.push('-');
            upper_next = true;
        } else if upper_next {
            out.extend(c.to_uppercase());
            upper_next = false;
        } else {
            out.extend(c.to_lowercase());
        }
    }
    out
}

#[cfg(test)]
mod header_case_tests {
    use super::canonical_header_case;

    #[test]
    fn train_cases_each_dash_segment() {
        assert_eq!(canonical_header_case("content-length"), "Content-Length");
        assert_eq!(canonical_header_case("etag"), "Etag");
        assert_eq!(canonical_header_case("x-powered-by"), "X-Powered-By");
        assert_eq!(canonical_header_case("CONNECTION"), "Connection");
        assert_eq!(canonical_header_case(""), "");
    }
}
