//! Set-associative cache models for the memory integrity simulator.
//!
//! The paper's machine (Table 1) has split 64 KB 2-way L1 I/D caches with
//! 32-byte lines and a unified L2 (256 KB–4 MB, 4-way, 64- or 128-byte
//! lines). The *chash* scheme stores hash-tree chunks **in the L2** along
//! with program data, so the L2 model tags every line with a
//! [`LineKind`] (data vs hash) and keeps separate statistics — this is
//! what lets the harness reproduce Figure 4 (cache pollution) and the
//! occupancy analyses.
//!
//! The cache is a pure state machine: `lookup` / `fill` / `invalidate`
//! mutate tag state and statistics but carry no timing. Timing (hit
//! latencies, bus occupancy, verification) is composed around it by
//! `miv-sim`.
//!
//! # Examples
//!
//! ```
//! use miv_cache::{Cache, CacheConfig, LineKind};
//!
//! let mut l2 = Cache::new(CacheConfig::l2(1 << 20, 64));
//! assert!(l2.lookup(0x4000, LineKind::Data, false).is_miss());
//! l2.fill(0x4000, LineKind::Data, false);
//! assert!(l2.lookup(0x4000, LineKind::Data, false).is_hit());
//! ```

#![forbid(unsafe_code)]

mod config;
mod observe;
mod policy;
mod set_assoc;
mod stats;

pub use config::{CacheConfig, GeometryError};
pub use observe::{CacheObserver, KindCounters};
pub use policy::ReplacementPolicy;
pub use set_assoc::{Cache, Eviction, LookupResult};
pub use stats::{CacheStats, KindStats, LineKind};
