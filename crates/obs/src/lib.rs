//! `miv-obs` — the unified observability layer for the memory integrity
//! verification workspace.
//!
//! Every other crate in the workspace measures *something* — cache hits,
//! bus bytes, hash-unit occupancy — but before this crate each subsystem
//! kept its own ad-hoc counter struct with no common export path. This
//! crate provides the shared vocabulary:
//!
//! * [`metrics`] — a [`Registry`] of named monotonic [`Counter`]s,
//!   [`Gauge`]s and log2-bucketed [`Histogram`]s (with p50/p90/p99
//!   estimation). Handles are enum-gated: a disabled handle is a `None`
//!   and every operation on it is a single branch, so instrumented hot
//!   paths cost nothing when telemetry is off.
//! * [`events`] — a bounded ring buffer of typed simulation events
//!   ([`SimEvent`]): L2 misses, tree-walk start/termination with the
//!   depth reached, hash-unit enqueue/dequeue with queue latency,
//!   write-backs and integrity violations.
//!
//! Handles are deliberately `Rc`-based — recording is a cell write with
//! no atomics — so a registry or event ring never crosses a thread
//! boundary. Parallel aggregation instead goes through the snapshot
//! types ([`MetricsSnapshot`], [`EventTraceSnapshot`]), which are plain
//! owned data: each worker snapshots its recorders, sends the snapshots
//! back, and the aggregator folds them in with [`Registry::absorb`] /
//! [`EventTrace::absorb`]. Absorbing in a fixed order makes the merged
//! result deterministic at any worker count.
//! * [`spans`] — hierarchical cycle-attribution spans ([`SpanTracer`])
//!   keyed on simulated cycles, with the same disabled-is-a-branch hot
//!   path and the same plain-data snapshot merge ([`ProfileSnapshot`])
//!   so profiled sweeps stay deterministic at any worker count.
//! * [`json`] — a hand-rolled JSON value type, emitter and parser so the
//!   workspace stays buildable offline with zero external dependencies.
//! * [`rng`] — a small deterministic xoshiro256++ PRNG used by the trace
//!   generators and the randomized property tests.
//!
//! The crate deliberately depends on nothing (not even other `miv-*`
//! crates) so every layer of the stack can use it.

#![forbid(unsafe_code)]

pub mod events;
pub mod json;
pub mod metrics;
pub mod rng;
pub mod spans;

pub use events::{EventRecord, EventSink, EventTrace, EventTraceSnapshot, LineClass, SimEvent};
pub use json::JsonValue;
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, MetricsSnapshot, Registry};
pub use rng::Rng;
pub use spans::{ProfileSnapshot, SpanGuard, SpanSnapshot, SpanTracer};
