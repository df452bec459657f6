//! Main-memory timing models: DRAM latency plus the shared memory bus.
//!
//! The paper's machine (Table 1) has a 200 MHz, 8-byte-wide memory bus —
//! **1.6 GB/s** of data bandwidth at the 1 GHz core clock — shared by
//! *everything* that touches main memory: L2 fills, L2 write-backs, and
//! all hash-tree traffic. DRAM returns the first chunk of a block after
//! **80 cycles**. Separate address and data buses are modelled, matching
//! the paper's note that its SimpleScalar port "implemented separate
//! address and data buses".
//!
//! The bandwidth-sharing behaviour is what produces the paper's
//! *bandwidth pollution* results (Figure 5) and the naive scheme's up-to-10×
//! slowdowns: every L2 miss in the naive scheme drags `log_m N` extra
//! blocks over this same bus.
//!
//! # Examples
//!
//! ```
//! use miv_mem::{MemoryBus, MemoryBusConfig, TrafficClass};
//!
//! let mut bus = MemoryBus::new(MemoryBusConfig::default());
//! // An unloaded 64-byte read: 80-cycle DRAM + 40-cycle transfer.
//! let done = bus.read(0, 64, TrafficClass::DataRead);
//! assert_eq!(done.complete, 120);
//! ```

#![forbid(unsafe_code)]

mod bus;
mod observe;
pub mod schedule;
mod stats;

pub use bus::{BusTiming, MemoryBus, MemoryBusConfig};
pub use observe::BusObserver;
pub use schedule::IntervalSchedule;
pub use stats::{BusStats, TrafficClass};

/// A simulation timestamp in core clock cycles.
pub type Cycle = u64;
