//! # sigcomp-serve
//!
//! A dependency-free concurrent simulation server: the significance-
//! compression models behind a long-running HTTP/1.1 + JSON service, so the
//! paper's energy/CPI numbers are an always-on queryable resource instead of
//! a batch CLI run.
//!
//! Everything is `std`-only, in the same spirit as the rest of the
//! workspace: an incremental HTTP request parser ([`http`], over the
//! framing rules shared with the fabric client), a
//! hand-rolled JSON parser ([`json`]), and a nonblocking event-loop
//! front door ([`reactor`]) — a fixed worker pool driving per-connection
//! state machines over `set_nonblocking` sockets, with HTTP/1.1
//! keep-alive, pipelining, per-connection read/write deadlines, and an
//! accept-gate connection cap that sheds overload with a fast `503`.
//!
//! The heart of the crate is the **batching scheduler** ([`batch`]):
//! concurrent connections enqueue jobs into one shared bounded queue; a
//! dispatcher drains it into batches, deduplicates identical configurations
//! by their content hash ([`sigcomp_explore::dedup_jobs`]), answers
//! repeats from a bounded in-memory memo and the shared on-disk
//! [`sigcomp_explore::ResultCache`], and places only the unique residue on
//! the configured [`sigcomp_explore::ExecBackend`] — the same pluggable
//! execution layer behind `repro sweep`, so the server can run its batches
//! on the in-process work-stealing pool or fan them out across sharded
//! `repro worker` subprocesses. A thousand clients asking for overlapping
//! configurations cost one simulation each, and every response is
//! bit-identical to a direct run (all counters are exact integers).
//!
//! # Example
//!
//! ```
//! use sigcomp_serve::{ServeConfig, Server};
//!
//! let server = Server::bind(ServeConfig {
//!     addr: "127.0.0.1:0".into(), // port 0: pick a free port
//!     ..ServeConfig::default()
//! })
//! .expect("bind")
//! .spawn();
//! println!("serving on http://{}", server.addr());
//! // POST {"workload": "rawcaudio"} to /simulate, then:
//! server.shutdown();
//! ```
//!
//! The CLI entry point is `repro serve` (see `sigcomp-bench`); an
//! end-to-end exercise lives in the workspace's `examples/load_gen.rs`.

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![warn(rust_2018_idioms)]

pub mod api;
pub mod batch;
pub mod http;
pub mod json;
pub mod metrics;
pub mod reactor;
pub mod registry;
pub mod server;

pub use batch::{BatchConfig, BatchedResult, Batcher, SubmitError, DEFAULT_MEMO_CAPACITY};
pub use http::{HttpError, Request, RequestParser, Response};
pub use json::{Json, NumError};
pub use metrics::ServerMetrics;
pub use reactor::{Completion, Handler, Reactor, ReactorConfig};
pub use registry::{SweepRegistry, SweepState};
pub use server::{ServeConfig, Server, ServerHandle};
