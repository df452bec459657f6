//! Hash-tree memory integrity verification — the core of the HPCA'03
//! reproduction.
//!
//! This crate implements the paper's contribution:
//!
//! * [`layout`] — the §5.5 linear chunk layout of an almost-balanced
//!   m-ary hash tree over a contiguous physical segment.
//! * [`engine`] — the **functional** engine ([`VerifiedMemory`]): real
//!   bytes, real MD5/SHA-1 digests or incremental MACs, real detection of
//!   tampering by a physical [`Adversary`].
//! * [`timing`] — the **cycle-level** checker ([`timing::L2Controller`]):
//!   the L2 cache with integrated tree machinery, read/write hash
//!   buffers, background verification, and the four schemes the paper
//!   evaluates ([`Scheme::Naive`], [`Scheme::CHash`], [`Scheme::MHash`],
//!   [`Scheme::IHash`]) plus the unprotected [`Scheme::Base`].
//! * [`storage`] — untrusted memory and the attacker model (bit flips,
//!   relocation, replay).
//!
//! # Quick start
//!
//! ```
//! use miv_core::{MemoryBuilder, TamperKind};
//!
//! let mut mem = MemoryBuilder::new().data_bytes(32 * 1024).build();
//! mem.write(0, b"launch code: 0000").unwrap();
//! mem.flush().unwrap();
//! mem.clear_cache().unwrap();
//!
//! // Physical attack on external RAM:
//! let phys = mem.layout().data_phys_addr(13);
//! mem.adversary().tamper(phys, TamperKind::BitFlip { bit: 0 });
//!
//! let err = mem.read_vec(0, 17).unwrap_err();
//! println!("detected: {err}");
//! ```

#![forbid(unsafe_code)]

pub mod adversary;
pub mod engine;
pub mod error;
pub mod hash_unit;
pub mod layout;
pub mod observe;
pub mod storage;
pub mod timing;
pub mod trusted_cache;

pub use adversary::{parent_slot_addr, timestamp_byte_addr, Adversary, Snapshot, TamperKind};
pub use engine::{EngineStats, MemoryBuilder, Protection, VerifiedMemory};
pub use error::{ConfigError, IntegrityError};
pub use layout::{ParentRef, TreeLayout};
pub use observe::HashUnitObserver;
pub use storage::UntrustedMemory;
pub use timing::{
    CheckerConfig, CheckerEvent, CheckerStats, L2Controller, Scheme, TamperDetection,
};
