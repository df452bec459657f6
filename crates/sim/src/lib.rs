//! Full-system simulator and experiment harness for the HPCA'03
//! evaluation.
//!
//! Wires the substrate crates into the paper's Table 1 machine:
//!
//! ```text
//!  TraceGenerator ─▶ Core (4-wide OoO, 128 RUU, 64 LSQ)
//!                      │ loads/stores
//!                      ▼
//!                    L1 D-cache (64 KB, 2-way, 32 B)
//!                      │ misses / write-backs
//!                      ▼
//!                    L2Controller = unified L2 (4-way) + hash-tree
//!                      │            checker (scheme, hash unit, buffers)
//!                      ▼
//!                    memory bus (200 MHz × 8 B) + DRAM (80 cycles)
//! ```
//!
//! [`experiments`] regenerates every table and figure of §6; the
//! `figures` binary prints them (`cargo run -p miv-sim --release --bin
//! figures -- all`).

#![forbid(unsafe_code)]

pub mod attack;
pub mod cli;
pub mod config;
pub mod experiments;
pub mod hierarchy;
pub mod profile;
pub mod report;
pub mod serve;
pub mod store;
pub mod sweep;
pub mod system;
pub mod telemetry;

pub use config::SystemConfig;
pub use hierarchy::Hierarchy;
pub use sweep::{RunOutcome, RunRequest, SweepRunner, Workload};
pub use system::{RunResult, System};
pub use telemetry::{Sample, Telemetry, TelemetrySnapshot};
