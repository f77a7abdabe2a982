#![warn(missing_docs)]

//! The FlowDroid analysis service: a long-running daemon that accepts
//! analysis jobs over a line-delimited JSON protocol (TCP or Unix
//! socket), runs them on a bounded worker pool, and shares one
//! persistent summary cache across jobs so repeated analyses start
//! warm.
//!
//! Layers:
//!
//! * [`json`] — a minimal std-only JSON value (no external deps);
//! * [`proto`] — the request/response wire types: [`AnalyzeRequest`]
//!   with [`Priority`] lanes, cache namespaces and opt-in streaming;
//! * [`daemon`] — the server: accept loop, three-lane priority queue
//!   with admission control (bounded depth, `rejected` backpressure
//!   replies), worker pool, a job table of live jobs plus the last
//!   few finished ones with per-job [`flowdroid_core::AbortHandle`]s
//!   (deadline, cancel, budget) and result slots, and a
//!   per-connection frame relay for streamed jobs;
//! * [`external`] — serving external apps: the `--allow-apps`
//!   path-policy sandbox ([`AppPolicy`]) and the on-disk app-dir /
//!   `.rpk` loader, with typed `denied` replies for paths outside the
//!   sandbox;
//! * [`client`] — a blocking client used by the `flowdroid client`
//!   subcommand, the benchmark driver and the smoke tests.
//!
//! See DESIGN.md §10/§14 and docs/PROTOCOL.md for the architecture and
//! the full wire contract.

pub mod client;
pub mod daemon;
pub mod external;
pub mod json;
pub mod net;
pub mod proto;

pub use client::{AnalyzeOptions, AnalyzeOutcome, Client, Submitted};
pub use daemon::{Daemon, DaemonOptions, DEFAULT_QUEUE_CAP};
pub use external::{load_external_job, AppPolicy, PolicyError};
pub use json::Json;
pub use net::Listen;
pub use proto::{AnalyzeRequest, JobResult, Priority, Request};
