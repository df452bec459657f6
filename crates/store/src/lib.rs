//! Persistent verified block store for the HPCA'03 reproduction.
//!
//! The in-memory engine ([`miv_core`]) proves integrity across a bus;
//! this crate carries the same guarantee across a *power cycle*. Hash
//! tree pages live in an untrusted block file behind a small trusted
//! page cache, writes journal before they commit, and the root commit
//! is atomic: a shadow superblock pair plus a monotone generation
//! counter in trusted [`RootStore`] storage means a crash at **any**
//! device step recovers byte-exactly to either the old or the new
//! committed state — never a torn one. The crash-point matrix test and
//! `mivsim store fsck` enumerate every such step and prove it.
//!
//! Layering:
//!
//! * [`medium`] — the untrusted device seam: memory, file, and the
//!   deterministic crash injector.
//! * [`format`] — superblock/journal/trusted-root encodings and the
//!   block file's region map.
//! * [`store`] — [`BlockStore`]: the verified cache, write-back
//!   journaling, the commit protocol, recovery, and fsck.
//!
//! # Example
//!
//! ```
//! use miv_hash::Md5Hasher;
//! use miv_store::{BlockStore, MemMedium, MemRootStore, StoreConfig};
//!
//! let medium = MemMedium::new();
//! let roots = MemRootStore::new();
//! let mut store = BlockStore::create(
//!     medium.clone(), roots.clone(), StoreConfig::small(), Box::new(Md5Hasher),
//! ).unwrap();
//! store.write(0, b"survives power loss").unwrap();
//! store.commit().unwrap();
//! drop(store); // power off
//!
//! let (mut store, report) =
//!     BlockStore::open(medium, roots, Box::new(Md5Hasher), 16).unwrap();
//! assert_eq!(report.generation, 2);
//! assert_eq!(store.read_vec(0, 19).unwrap(), b"survives power loss");
//! ```

#![forbid(unsafe_code)]

pub mod error;
pub mod format;
pub mod medium;
pub mod store;

pub use error::{FormatError, StoreError};
pub use format::{
    JournalEntry, StoreGeometry, Superblock, TrustedRoot, JOURNAL_MAGIC, ROOT_MAGIC,
    SUPERBLOCK_MAGIC, SUPER_SLOT_BYTES,
};
pub use medium::{CrashMedium, FileMedium, MemMedium, StoreMedium};
pub use store::{
    BlockStore, FileRootStore, FsckReport, MemRootStore, RecoveryReport, RootStore, StoreConfig,
    StoreStats,
};
