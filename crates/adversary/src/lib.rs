//! Scripted adversary campaigns against the memory integrity checker.
//!
//! The HPCA'03 threat model (§3) gives the adversary full control over
//! untrusted off-chip memory: it may flip bits, replace blocks, relocate
//! them (splice), roll them back to previously valid contents (replay),
//! and corrupt the stored tree metadata itself. This crate turns that
//! threat model into an executable test battery:
//!
//! * [`AttackClass`] — the taxonomy of physical attacks, from a single
//!   data bit-flip up to swapping two children of the secure root and
//!   flipping §5.4 incremental-MAC timestamp bits, plus a no-injection
//!   control for false-alarm accounting.
//! * [`Trigger`] — *when* an injection lands: at a simulation cycle,
//!   after the target block's *k*-th touch, or at a seeded per-access
//!   probability. All three are deterministic given the cell seed.
//! * [`run_cell`] — one scheme × attack × trial simulation driving both
//!   halves of the checker: the cycle-level [`L2Controller`] (taint
//!   tracking gives detection *cycles*) and the functional
//!   [`VerifiedMemory`] (real digests give detection ground truth),
//!   with an end-of-run audit so cache-masked corruption is still
//!   accounted.
//! * [`CampaignSpec`] / [`CampaignReport`] — the full scheme × attack
//!   grid and its fold into a detection-coverage matrix plus per-scheme
//!   latency percentiles, exported as the `miv-attack-v1` JSON schema
//!   and as `attack.*` metrics through the `miv-obs` registry.
//! * [`offline`] — the powered-off complement: bench mutations of the
//!   persistent block store's untrusted image (data/tree page flips,
//!   superblock flips, stale-image splices) that must be caught when
//!   the store is reopened against its trusted root.
//!
//! Cells are plain-data configs and independent of each other, so an
//! executor may run them in any order or on any number of threads; the
//! report folds outcomes by grid position, not arrival order, which is
//! what makes `mivsim attack --jobs N` byte-identical for every `N`.
//!
//! [`L2Controller`]: miv_core::L2Controller
//! [`VerifiedMemory`]: miv_core::VerifiedMemory

#![forbid(unsafe_code)]

pub mod attack;
pub mod campaign;
pub mod cell;
pub mod offline;

pub use attack::{AttackClass, Trigger};
pub use campaign::{cell_seed, percentile, CampaignReport, CampaignSpec, LatencyStats, MatrixCell};
pub use cell::{
    run_cell, run_cell_traced, CellConfig, CellOutcome, Detection, Detector, Injection,
};
pub use offline::{
    run_offline_cell, DetectPhase, OfflineAttack, OfflineCell, OfflineMatrixCell, OfflineOutcome,
    OfflineReport, OfflineSpec,
};
