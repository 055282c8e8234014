//! # aqp-serving
//!
//! A concurrent query-serving front-end for the dynamic-sample-selection
//! AQP system — the operational half of the paper's middleware story.
//! The samplers answer one query well; this crate keeps a *fleet* of
//! clients answered under load, on time, without falling over:
//!
//! * [`protocol`] — a zero-dependency wire protocol: 4-byte big-endian
//!   length-prefixed JSON frames over TCP, with degradation surfaced at
//!   the wire level (serving tier, partial flags, deadline-limited
//!   markers, explicit `shed` responses with retry hints);
//! * [`cache`] — a semantic answer cache: canonicalized-plan keys,
//!   CI-aware reuse (a cached answer serves a request only at
//!   equal-or-tighter error/confidence bounds), single-flight execution
//!   of concurrent misses, LRU + TTL eviction, and epoch-bump
//!   invalidation on table rebuild — hits bypass admission and the
//!   morsel pool entirely;
//! * [`admission`] — per-contract-class admission control (interactive
//!   vs batch): bounded queues, concurrency caps, and deterministic load
//!   shedding with `Retry-After` hints once the queue is full;
//! * [`server`] — the TCP server: one thread per connection multiplexed
//!   over the shared morsel pool, per-query deadlines propagated into
//!   the executor as cooperative [`aqp_query::CancelToken`]s, deadline
//!   pressure converted into degradation-ladder pressure (fall to a
//!   cheaper [`aqp_core::ServingTier`] rather than miss the deadline),
//!   and graceful shutdown (SIGTERM/ctrl-c drains in-flight requests,
//!   rejects new ones);
//! * [`client`] — a well-behaved client with bounded retry, exponential
//!   backoff and jitter on `shed` responses and connection errors, and
//!   per-session retry/shed statistics;
//! * [`shadow`] — the shadow accuracy auditor: a background thread that
//!   re-executes a sampled fraction of sampled-tier answers on the exact
//!   rung (bypassing admission entirely) and records realized error vs
//!   the promised CI as `aqp_shadow_*` metrics;
//! * [`throughput`] — an EWMA scan-throughput estimator that converts a
//!   deadline's remaining time into the row budget the degradation
//!   ladder understands;
//! * [`fault`] — deterministic serving-fault injection (accept-time
//!   connection drops, mid-response write stalls, slow-client reads,
//!   execution stalls), planned per server through
//!   [`ServerConfig::faults`].
//!
//! The invariant the whole crate is built around: **every admitted
//! request gets exactly one terminal response** — an answer, a `shed`,
//! a `timeout`, or an `error` — and a deadline-bounded query is served
//! a degraded-tier answer in preference to blowing its deadline.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod admission;
pub mod cache;
pub mod client;
pub mod fault;
pub mod protocol;
pub mod server;
pub mod shadow;
pub mod throughput;

pub use admission::{AdmissionConfig, AdmissionController, AdmitOutcome, ClassLimits};
pub use cache::{CacheConfig, CacheDecision, FlightGuard, PlanKey, SemanticCache};
pub use client::{Client, ClientError, ClientStats, RetryPolicy};
pub use fault::ServingFault;
pub use protocol::{ContractClass, Request, Response, WireAnswer};
pub use server::{Server, ServerConfig, ServerReport, ShutdownHandle};
pub use shadow::{ShadowAuditor, ShadowConfig};
pub use throughput::Throughput;
