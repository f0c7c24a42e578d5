//! # flexcl-serve
//!
//! DSE-as-a-service: a long-running batch estimation server over the
//! `flexcl-core` sweep engine, built for hostile traffic.
//!
//! A request is OpenCL source + NDRange + a [`SweepGrid`] preset; the
//! answer is the sweep digest (point counts, best configuration, best
//! cycle count) — bit-identical to an offline
//! [`flexcl_core::explore_space_cached`] call over the same inputs. Around that
//! core the crate layers the service-robustness mechanisms the engine
//! itself cannot provide:
//!
//! - **Deadlines** — every request runs under a
//!   [`flexcl_core::CancelToken`]; expiry stops the sweep at the next
//!   chunk-claim boundary with a typed `deadline` rejection.
//! - **Admission control** — a bounded queue sheds excess arrivals with
//!   a typed `overloaded` rejection and a retry-after hint; under
//!   pressure short of shedding, requests degrade down the
//!   `ultra → fine → standard` grid ladder, recorded per-response.
//! - **Crash-safe persistence** — results land in a checksummed,
//!   atomically-written, LRU-sharded disk cache
//!   ([`cache::PersistentCache`]) that quarantines corruption instead of
//!   serving or dying on it.
//! - **Fault isolation** — per-request injected panics, fuel exhaustion
//!   and cache corruption (testhook deployments) are contained to the
//!   poisoned request.
//!
//! Transports: newline-delimited JSON on stdin/stdout and length-prefixed
//! frames over TCP ([`net`]). The `serve` binary fronts both.
//!
//! [`SweepGrid`]: flexcl_core::config::SweepGrid

#![warn(missing_docs)]

pub mod cache;
pub mod json;
pub mod net;
pub mod protocol;
pub mod server;
pub mod workload;

pub use protocol::{Request, Response, SweepSummary};
pub use server::{CounterSnapshot, Server, ServerConfig};
