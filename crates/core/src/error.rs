//! Integrity-violation and configuration errors.

use std::fmt;

use miv_cache::GeometryError;

use crate::timing::Scheme;

/// Raised by the fallible constructors ([`TreeLayout::try_new`],
/// [`L2Controller::try_new`], [`MemoryBuilder::try_build`],
/// `miv_sim::SystemConfig::try_hpca03` and `miv_sim::System::try_new`) when a requested geometry or workload
/// cannot produce a working engine.
///
/// The panicking constructors are thin `.expect("documented
/// invariant")` wrappers over the `try_*` forms, so library callers
/// with hard-coded geometries keep the terse API while anything that
/// parses a user-supplied spec (the `mivsim` subcommands, shard specs)
/// routes through the `Result` path and reports a proper error.
///
/// [`TreeLayout::try_new`]: crate::layout::TreeLayout::try_new
/// [`L2Controller::try_new`]: crate::timing::L2Controller::try_new
/// [`MemoryBuilder::try_build`]: crate::engine::MemoryBuilder::try_build
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// The protected data segment is zero bytes.
    EmptySegment,
    /// A chunk or block size is not a power of two.
    NotPowerOfTwo {
        /// Which size was malformed (`"chunk"` or `"block"`).
        what: &'static str,
        /// The offending byte count.
        bytes: u64,
    },
    /// The chunk size is not a whole positive multiple of the block
    /// size.
    ChunkNotBlockMultiple {
        /// Chunk size in bytes.
        chunk_bytes: u32,
        /// Block size in bytes.
        block_bytes: u32,
    },
    /// The chunk is too small to hold at least two child digests.
    ArityTooSmall {
        /// Chunk size in bytes.
        chunk_bytes: u32,
    },
    /// A single-block-chunk scheme (`naive`/`chash`) was given a chunk
    /// that is not exactly one cache line.
    ChunkLineMismatch {
        /// The scheme being configured.
        scheme: Scheme,
        /// Chunk size in bytes.
        chunk_bytes: u32,
        /// L2 line size in bytes.
        line_bytes: u32,
    },
    /// A multi-block-chunk scheme (`mhash`/`ihash`) was given a chunk
    /// that does not span several whole cache lines (the `ProfileSpec`
    /// subtlety: these schemes need `chunk_bytes = 2 * line_bytes` or
    /// more).
    SingleBlockChunk {
        /// The scheme being configured.
        scheme: Scheme,
        /// Chunk size in bytes.
        chunk_bytes: u32,
        /// L2 line size in bytes.
        line_bytes: u32,
    },
    /// The trusted cache cannot guarantee forward progress of
    /// write-back cascades for this layout.
    CacheTooSmall {
        /// Requested capacity in blocks.
        blocks: usize,
        /// Minimum capacity the layout needs.
        min_blocks: usize,
    },
    /// The incremental MAC's per-slot timestamp field is 8 bits, so a
    /// chunk may span at most 8 blocks.
    MacChunkTooWide {
        /// Requested blocks per chunk.
        blocks_per_chunk: u32,
    },
    /// A size parameter that must be positive was zero.
    ZeroSize {
        /// Which size was zero (`"block"`, `"capacity"`, …).
        what: &'static str,
    },
    /// The L2 cache geometry is malformed.
    CacheGeometry(GeometryError),
    /// A workload profile is malformed; the message names the parameter.
    InvalidProfile(String),
    /// A workload's working set does not fit the protected segment.
    WorkingSetTooLarge {
        /// Working set in bytes.
        working_set: u64,
        /// Protected segment in bytes.
        protected_bytes: u64,
    },
}

impl From<GeometryError> for ConfigError {
    fn from(e: GeometryError) -> Self {
        ConfigError::CacheGeometry(e)
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::EmptySegment => write!(f, "cannot protect an empty segment"),
            ConfigError::NotPowerOfTwo { what, bytes } => {
                write!(f, "{what} size must be a power of two, got {bytes}")
            }
            ConfigError::ChunkNotBlockMultiple {
                chunk_bytes,
                block_bytes,
            } => write!(
                f,
                "chunk must be a whole number of blocks ({chunk_bytes} B chunk, \
                 {block_bytes} B block)"
            ),
            ConfigError::ArityTooSmall { chunk_bytes } => write!(
                f,
                "chunk of {chunk_bytes} B is too small: arity must be at least 2"
            ),
            ConfigError::ChunkLineMismatch {
                scheme,
                chunk_bytes,
                line_bytes,
            } => write!(
                f,
                "{scheme} uses one cache block per chunk: chunk must equal the \
                 {line_bytes} B line, got {chunk_bytes} B"
            ),
            ConfigError::SingleBlockChunk {
                scheme,
                chunk_bytes,
                line_bytes,
            } => write!(
                f,
                "{scheme} needs a chunk spanning several whole {line_bytes} B blocks, \
                 got {chunk_bytes} B (use chunk_bytes = 2 * line_bytes or more)"
            ),
            ConfigError::CacheTooSmall { blocks, min_blocks } => write!(
                f,
                "trusted cache of {blocks} blocks is too small: this layout needs at \
                 least {min_blocks}"
            ),
            ConfigError::MacChunkTooWide { blocks_per_chunk } => write!(
                f,
                "incremental MAC supports at most 8 blocks per chunk (8 timestamp bits \
                 per slot), got {blocks_per_chunk}"
            ),
            ConfigError::ZeroSize { what } => {
                write!(f, "{what} size must be positive, got 0")
            }
            ConfigError::CacheGeometry(e) => write!(f, "L2 geometry: {e}"),
            ConfigError::InvalidProfile(msg) => write!(f, "invalid workload profile: {msg}"),
            ConfigError::WorkingSetTooLarge {
                working_set,
                protected_bytes,
            } => write!(
                f,
                "working set of {working_set} B is larger than the {protected_bytes} B \
                 protected segment"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Raised when a chunk's contents do not match the hash (or MAC) stored
/// in its parent — the memory-tampering exception of §5.8.
///
/// The paper's processor destroys the program's keys and aborts on this
/// exception; mirroring that, the functional engine poisons itself after
/// reporting one (all further operations fail).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntegrityError {
    chunk: u64,
    addr: u64,
    scheme: &'static str,
    cycle: Option<u64>,
}

impl IntegrityError {
    pub(crate) fn new(chunk: u64, addr: u64, scheme: &'static str) -> Self {
        IntegrityError {
            chunk,
            addr,
            scheme,
            cycle: None,
        }
    }

    /// Stamps the access cycle (or operation index) at which the
    /// violation was detected — the raw material for detection-latency
    /// measurement. Functional-engine errors carry no cycle by default;
    /// harnesses that know *when* the failing access ran attach it here.
    pub fn with_cycle(mut self, cycle: u64) -> Self {
        self.cycle = Some(cycle);
        self
    }

    /// The chunk whose verification failed.
    pub fn chunk(&self) -> u64 {
        self.chunk
    }

    /// The chunk's physical base address.
    pub fn addr(&self) -> u64 {
        self.addr
    }

    /// The verification scheme that detected the violation.
    pub fn scheme(&self) -> &'static str {
        self.scheme
    }

    /// The access cycle at detection, when known.
    pub fn cycle(&self) -> Option<u64> {
        self.cycle
    }
}

impl fmt::Display for IntegrityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "memory integrity violation in chunk {} at address {:#x} ({} check failed)",
            self.chunk, self.addr, self.scheme
        )?;
        if let Some(cycle) = self.cycle {
            write!(f, " at cycle {cycle}")?;
        }
        Ok(())
    }
}

impl std::error::Error for IntegrityError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_accessors() {
        let e = IntegrityError::new(7, 0x1c0, "hash-tree");
        assert_eq!(e.chunk(), 7);
        assert_eq!(e.addr(), 0x1c0);
        assert_eq!(e.scheme(), "hash-tree");
        let msg = e.to_string();
        assert!(msg.contains("chunk 7"));
        assert!(msg.contains("0x1c0"));
        // Error trait object usable.
        let boxed: Box<dyn std::error::Error> = Box::new(e);
        assert!(!boxed.to_string().is_empty());
    }

    #[test]
    fn cycle_is_optional_and_extends_display() {
        let bare = IntegrityError::new(3, 0x80, "mac");
        assert_eq!(bare.cycle(), None);
        assert!(!bare.to_string().contains("cycle"));
        let stamped = bare.clone().with_cycle(12_345);
        assert_eq!(stamped.cycle(), Some(12_345));
        assert!(stamped.to_string().ends_with("at cycle 12345"));
        // Stamping does not disturb the original accessors.
        assert_eq!(stamped.chunk(), bare.chunk());
        assert_eq!(stamped.addr(), bare.addr());
        assert_eq!(stamped.scheme(), bare.scheme());
    }
}
