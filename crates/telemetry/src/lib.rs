//! `powerplay-telemetry` — measurement from inside the running system.
//!
//! The paper's pitch is *instant* what-if recomputation served over the
//! web; serving that at scale is impossible to tune or trust without
//! numbers from the live serving path, not just offline benchmark runs.
//! This crate is the plumbing every other layer reports through:
//!
//! * [`Counter`], [`Gauge`], [`Histogram`] — lock-free instruments.
//!   Updates are single relaxed atomic operations; histograms bucket
//!   latencies by log2 of nanoseconds, so `observe` is a shift, a
//!   `leading_zeros`, and three `fetch_add`s. No locks anywhere on the
//!   hot path.
//! * [`Registry`] — named handles. Registration (a lock-guarded map
//!   insert) happens once per process per metric; after that the handle
//!   is an `Arc` clone and updates never touch the registry again.
//!   [`global()`] is the process-wide instance every layer shares.
//! * [`profile`] — lightweight RAII spans forming a tree. When no
//!   capture is active a span is one thread-local flag read; under
//!   [`profile::capture`] it records wall time into a [`profile::ProfileNode`]
//!   tree (the CLI's `profile` verb prints it).
//! * [`TelemetrySnapshot`] — a point-in-time copy of every registered
//!   series, with bucket-bound quantile estimates for histograms.
//! * [`Registry::prometheus`] — the text exposition format
//!   (version 0.0.4) behind the web app's `GET /metrics`.
//!
//! The whole pipeline can be switched off with [`set_enabled`]; a
//! disabled instrument is a single relaxed load. The overhead budget is
//! <5% on compiled replay with telemetry *enabled* (see DESIGN.md §9);
//! disabling exists for measuring the instrumentation itself, not for
//! making it affordable.

mod metrics;
pub mod profile;
mod registry;
mod snapshot;

pub use metrics::{enabled, set_enabled, Counter, Gauge, Histogram, HistogramUnit, Timer, BUCKETS};
pub use registry::{global, Registry};
pub use snapshot::{HistogramSnapshot, TelemetrySnapshot};
