//! A trace-driven out-of-order superscalar core timing model.
//!
//! Models the paper's processor (Table 1): 4-wide fetch/issue/commit, a
//! 128-entry register-update unit (instruction window), a 64-entry
//! load/store queue, non-blocking loads, and in-order commit. The paper
//! uses SimpleScalar executing Alpha SPEC binaries; we reproduce its
//! *timing* behaviour with an instruction-interval scheduling model driven
//! by synthetic traces (see `miv-trace`), which captures the three effects
//! the evaluation depends on:
//!
//! 1. **Window-limited memory-level parallelism** — independent misses
//!    overlap until the 128-entry window or the LSQ fills; dependent
//!    (pointer-chasing) loads serialize.
//! 2. **In-order commit** — a long-latency load at the window head stalls
//!    retirement, which is how memory latency becomes lost IPC.
//! 3. **Speculative execution past unverified data** (§5.8) — loads
//!    complete when *data* arrives, while integrity checking continues in
//!    the background; only crypto-barrier instructions wait for the
//!    verification horizon.
//!
//! The model is a single forward pass over the trace: for each
//! instruction it computes an issue slot (width- and window-constrained),
//! a completion time (from the [`MemoryPort`] for memory operations), and
//! an in-order commit slot. It is deterministic and runs at tens of
//! millions of instructions per second, which is what makes regenerating
//! every figure of the paper tractable.
//!
//! # Examples
//!
//! ```
//! use miv_cpu::{Core, CoreConfig, FixedLatencyPort, TraceInst};
//!
//! // A core attached to a perfect 10-cycle memory.
//! let mut core = Core::new(CoreConfig::default(), FixedLatencyPort::new(10));
//! let trace = (0..1000).map(|i| {
//!     if i % 4 == 0 { TraceInst::load(i * 64) } else { TraceInst::compute() }
//! });
//! let stats = core.run(trace);
//! assert_eq!(stats.instructions, 1000);
//! assert!(stats.ipc() > 1.0);
//! ```

#![forbid(unsafe_code)]

mod core_model;
mod inst;
mod port;

pub use core_model::{Core, CoreConfig, CoreStats};
pub use inst::{LoadDep, TraceInst, TraceOp};
pub use port::{FixedLatencyPort, MemoryPort};

/// A simulation timestamp in core clock cycles.
pub type Cycle = u64;
