//! The World Wide Web front end of PowerPlay.
//!
//! "As the World Wide Web has become the de facto standard for
//! information gathering, it is the most natural choice for a design
//! exploration environment." The 1996 tool was HTML pages plus Perl CGI
//! scripts behind an HTTP daemon; this crate rebuilds that stack from
//! scratch on `std::net` (no web framework):
//!
//! * [`http`] — a small, correct HTTP/1.1 server (an epoll readiness
//!   reactor feeding a bounded worker pool, with keep-alive and
//!   pipelining) and client, plus URL/form codecs;
//! * [`html`] — escaping-safe HTML generation for the menu, library
//!   browser, element input form (paper Figure 4) and design spreadsheet
//!   (Figures 2/5) pages;
//! * [`app`] — the PowerPlay application itself: user sessions over the
//!   durable design store (`powerplay-store`), the spreadsheet UI with
//!   hyperlinked sub-sheets and a *Play* button, and runtime model
//!   authoring;
//! * [`api_v1`] — the JSON API, one resource router under `/api/v1`;
//! * [`remote`] — cross-site model access (paper Figures 6–7): libraries
//!   served at one site are fetched and merged into another's registry
//!   over HTTP;
//! * [`agent`] — the *Design Agent*, a dependency-driven flow manager
//!   that translates a request for data into an ordered sequence of tool
//!   invocations.
//!
//! ```no_run
//! use powerplay_library::builtin::ucb_library;
//! use powerplay_web::app::PowerPlayApp;
//!
//! # fn main() -> std::io::Result<()> {
//! let app = PowerPlayApp::new(ucb_library(), std::env::temp_dir().join("powerplay"));
//! let server = app.serve("127.0.0.1:8096")?;
//! println!("PowerPlay at http://{}", server.addr());
//! server.join();
//! # Ok(())
//! # }
//! ```

pub mod agent;
pub mod api_v1;
pub mod app;
pub mod cache;
pub mod events;
pub mod html;
pub mod http;
pub mod remote;
