//! The functional memory-integrity engine: real bytes, real digests,
//! real tamper detection.
//!
//! [`VerifiedMemory`] implements the paper's integrated cache/hash-tree
//! algorithms (§5.3–§5.4) over an [`UntrustedMemory`] the adversary
//! controls, with a [`TrustedCache`] standing in for the on-chip L2:
//!
//! * `ReadAndCheck` — cached data is trusted and returned directly; an
//!   uncached access fetches the chunk's memory image, verifies it against
//!   the hash in the (trusted or recursively verified) parent, and caches
//!   the blocks.
//! * `Write` — write-allocate; whole-block overwrites skip the fetch and
//!   check (§5.3's optimization).
//! * `Write-Back` — on dirty eviction the chunk's new image is hashed and
//!   the parent slot updated through a normal `Write`; with
//!   [`Protection::IncrementalMac`] only the evicted block is touched and
//!   the parent MAC is updated in O(1) with its one-bit timestamp flipped
//!   (§5.4).
//!
//! The engine maintains the paper's central invariant — *a chunk's slot in
//! its (possibly cached) parent always matches the chunk's image in
//! untrusted memory* — and poisons itself on the first detected violation,
//! mirroring the processor destroying the program's keys.
//!
//! Timing is out of scope here: this layer exists so tests, examples and
//! attacks can exercise the *algorithms*; `timing::L2Controller` drives the
//! same layout arithmetic under the cycle-level simulator.

use miv_hash::digest::{ChunkHasher, Digest, Md5Hasher, DIGEST_BYTES};
use miv_hash::narrow::{Mac120, XorMac120, NARROW_MAC_BYTES};
use miv_obs::{EventSink, Histogram, Registry, SimEvent};

use crate::error::{ConfigError, IntegrityError};
use crate::layout::{ParentRef, TreeLayout};
use crate::storage::{Adversary, UntrustedMemory};
use crate::trusted_cache::TrustedCache;

/// Which integrity mechanism protects chunks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Protection {
    /// Collision-resistant hash per chunk (the *naive*/*chash*/*mhash*
    /// schemes — they differ only in timing, not in what is stored).
    #[default]
    HashTree,
    /// Incremental 120-bit XOR-MAC with one-bit per-block timestamps (the
    /// *ihash* scheme, §5.4).
    IncrementalMac,
}

/// Functional operation counters.
///
/// These are *algorithmic* counts (how many chunk verifications, block
/// transfers, MAC updates the scheme performed), which is what the
/// correctness tests and the scheme-comparison examples reason about; the
/// cycle-level costs live in the timing simulator.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Chunk verifications performed (hash or MAC compares).
    pub chunk_verifications: u64,
    /// Chunk digests computed (hash scheme).
    pub hash_computations: u64,
    /// O(1) MAC updates performed (ihash scheme).
    pub mac_updates: u64,
    /// Blocks read from untrusted memory on checked paths.
    pub block_reads: u64,
    /// Blocks read from untrusted memory *without* checking (ihash
    /// write-back step 2).
    pub unchecked_block_reads: u64,
    /// Blocks written to untrusted memory.
    pub block_writes: u64,
    /// Write-back operations (dirty evictions serviced).
    pub writebacks: u64,
    /// Write allocations that skipped the fetch+check because the whole
    /// block was overwritten (§5.3 optimization).
    pub alloc_no_fetch: u64,
    /// Chunk checks satisfied by the verified-path memoization (the chunk
    /// was already verified in the current quiescent epoch, so no digest
    /// was recomputed).
    pub memo_hits: u64,
    /// Write-backs retired through the batched multi-lane flush path.
    pub batched_writebacks: u64,
}

impl EngineStats {
    /// Accumulates `other` into `self`. Merging is commutative and
    /// associative, so per-segment stats sum to the whole-run totals.
    pub fn merge(&mut self, other: &EngineStats) {
        self.chunk_verifications += other.chunk_verifications;
        self.hash_computations += other.hash_computations;
        self.mac_updates += other.mac_updates;
        self.block_reads += other.block_reads;
        self.unchecked_block_reads += other.unchecked_block_reads;
        self.block_writes += other.block_writes;
        self.writebacks += other.writebacks;
        self.alloc_no_fetch += other.alloc_no_fetch;
        self.memo_hits += other.memo_hits;
        self.batched_writebacks += other.batched_writebacks;
    }

    /// The component-wise difference `self - earlier`.
    pub fn delta(&self, earlier: &EngineStats) -> EngineStats {
        EngineStats {
            chunk_verifications: self.chunk_verifications - earlier.chunk_verifications,
            hash_computations: self.hash_computations - earlier.hash_computations,
            mac_updates: self.mac_updates - earlier.mac_updates,
            block_reads: self.block_reads - earlier.block_reads,
            unchecked_block_reads: self.unchecked_block_reads - earlier.unchecked_block_reads,
            block_writes: self.block_writes - earlier.block_writes,
            writebacks: self.writebacks - earlier.writebacks,
            alloc_no_fetch: self.alloc_no_fetch - earlier.alloc_no_fetch,
            memo_hits: self.memo_hits - earlier.memo_hits,
            batched_writebacks: self.batched_writebacks - earlier.batched_writebacks,
        }
    }
}

/// Builder for [`VerifiedMemory`].
///
/// # Examples
///
/// ```
/// use miv_core::{MemoryBuilder, Protection};
///
/// let mem = MemoryBuilder::new()
///     .data_bytes(128 * 1024)
///     .chunk_bytes(128)
///     .block_bytes(64) // two blocks per chunk: the mhash geometry
///     .protection(Protection::IncrementalMac)
///     .cache_blocks(512)
///     .build();
/// assert_eq!(mem.layout().blocks_per_chunk(), 2);
/// ```
#[derive(Debug)]
pub struct MemoryBuilder {
    data_bytes: u64,
    chunk_bytes: u32,
    block_bytes: u32,
    protection: Protection,
    hasher: Box<dyn ChunkHasher + Send + Sync>,
    key: [u8; 16],
    cache_blocks: usize,
    initial_data: Option<Vec<u8>>,
    build_jobs: usize,
}

impl Default for MemoryBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl MemoryBuilder {
    /// A builder with the paper's defaults: 64 KiB of data, 64-byte
    /// chunks and blocks (4-ary tree), MD5, a 256-block trusted cache.
    pub fn new() -> Self {
        MemoryBuilder {
            data_bytes: 64 * 1024,
            chunk_bytes: 64,
            block_bytes: 64,
            protection: Protection::HashTree,
            hasher: Box::new(Md5Hasher),
            key: *b"miv default key!",
            cache_blocks: 256,
            initial_data: None,
            build_jobs: 1,
        }
    }

    /// Worker threads for the bulk tree build in [`build`](Self::build)
    /// (default 1). The built tree — secure roots and every interior
    /// slot — is byte-identical at any value; this only changes how the
    /// per-level hashing is fanned out.
    pub fn build_jobs(mut self, jobs: usize) -> Self {
        self.build_jobs = jobs;
        self
    }

    /// Size of the protected data segment in bytes.
    pub fn data_bytes(mut self, bytes: u64) -> Self {
        self.data_bytes = bytes;
        self
    }

    /// Chunk size (the hashing unit).
    pub fn chunk_bytes(mut self, bytes: u32) -> Self {
        self.chunk_bytes = bytes;
        self
    }

    /// Cache-block size; must divide the chunk size.
    pub fn block_bytes(mut self, bytes: u32) -> Self {
        self.block_bytes = bytes;
        self
    }

    /// Integrity mechanism (hash tree or incremental MAC).
    pub fn protection(mut self, protection: Protection) -> Self {
        self.protection = protection;
        self
    }

    /// Hash function for [`Protection::HashTree`] (default MD5).
    pub fn hasher(mut self, hasher: Box<dyn ChunkHasher + Send + Sync>) -> Self {
        self.hasher = hasher;
        self
    }

    /// The processor secret keying the MAC scheme.
    pub fn key(mut self, key: [u8; 16]) -> Self {
        self.key = key;
        self
    }

    /// Trusted-cache capacity in blocks.
    pub fn cache_blocks(mut self, blocks: usize) -> Self {
        self.cache_blocks = blocks;
        self
    }

    /// Initial contents of the data segment (zero-filled / truncated to
    /// `data_bytes`).
    pub fn initial_data(mut self, data: Vec<u8>) -> Self {
        self.initial_data = Some(data);
        self
    }

    /// Builds the memory, constructing the tree bottom-up over the initial
    /// contents (the efficient equivalent of the §5.6.2 initialization; see
    /// [`VerifiedMemory::initialize_via_touch`] for the literal procedure).
    ///
    /// # Panics
    ///
    /// Panics on inconsistent geometry (see [`TreeLayout::new`]) or if the
    /// cache is too small to guarantee forward progress of write-back
    /// cascades. Fallible callers (anything validating a user-supplied
    /// spec) use [`try_build`](Self::try_build) instead.
    pub fn build(self) -> VerifiedMemory {
        self.try_build().expect("documented invariant")
    }

    /// Validates the builder's geometry without constructing the engine
    /// (no segment allocation, no tree build): the cheap pre-flight
    /// check for user-supplied specs dispatched to worker threads.
    pub fn validate(&self) -> std::result::Result<(), ConfigError> {
        let layout = TreeLayout::try_new(self.data_bytes, self.chunk_bytes, self.block_bytes)?;
        let min_cache = Self::min_cache_blocks(&layout);
        if self.cache_blocks < min_cache {
            return Err(ConfigError::CacheTooSmall {
                blocks: self.cache_blocks,
                min_blocks: min_cache,
            });
        }
        if self.protection == Protection::IncrementalMac && layout.blocks_per_chunk() > 8 {
            return Err(ConfigError::MacChunkTooWide {
                blocks_per_chunk: layout.blocks_per_chunk(),
            });
        }
        Ok(())
    }

    /// The fallible form of [`build`](Self::build): returns a
    /// [`ConfigError`] instead of panicking on inconsistent geometry or
    /// an undersized trusted cache.
    pub fn try_build(self) -> std::result::Result<VerifiedMemory, ConfigError> {
        self.validate()?;
        let layout = TreeLayout::try_new(self.data_bytes, self.chunk_bytes, self.block_bytes)?;
        let layout_chunks = layout.total_chunks() as usize;
        let mut mem = UntrustedMemory::new(layout.physical_bytes());
        if let Some(data) = &self.initial_data {
            let base = layout.data_phys_addr(0);
            let len = (data.len() as u64).min(layout.data_bytes()) as usize;
            mem.write(base, &data[..len]);
        }

        let mut engine = VerifiedMemory {
            cache: TrustedCache::try_new(self.cache_blocks, layout.block_bytes() as usize)?,
            secure: vec![
                [0u8; DIGEST_BYTES];
                layout
                    .arity()
                    .min(layout.total_chunks().try_into().unwrap_or(u32::MAX))
                    as usize
            ],
            protection: match self.protection {
                Protection::HashTree => ProtImpl::Hash(self.hasher),
                Protection::IncrementalMac => ProtImpl::Mac(XorMac120::new(self.key)),
            },
            layout,
            mem,
            exceptions_enabled: true,
            poisoned: false,
            stats: EngineStats::default(),
            verify_depth: Histogram::disabled(),
            events: EventSink::disabled(),
            walk_cur: 0,
            walk_peak: 0,
            memoize: true,
            flush_batch_lanes: miv_hash::BATCH_LANES,
            epoch: 1,
            verified_at: vec![0; layout_chunks],
            masked: std::collections::BTreeSet::new(),
        };
        engine.rebuild_tree(self.build_jobs.max(1));
        Ok(engine)
    }

    /// Minimum trusted-cache capacity for a layout: enough headroom that a
    /// verification walk plus a write-back cascade (each of which pins up
    /// to one chunk's blocks and one parent slot block per tree level)
    /// always finds an evictable victim.
    fn min_cache_blocks(layout: &TreeLayout) -> usize {
        let levels = layout.levels() as usize + 3;
        levels * (2 * layout.blocks_per_chunk() as usize + 2)
    }
}

/// The integrity mechanism implementation.
enum ProtImpl {
    Hash(Box<dyn ChunkHasher + Send + Sync>),
    Mac(XorMac120),
}

impl std::fmt::Debug for ProtImpl {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtImpl::Hash(h) => write!(f, "HashTree({})", h.name()),
            ProtImpl::Mac(_) => write!(f, "IncrementalMac(xor-mac-120)"),
        }
    }
}

impl ProtImpl {
    fn scheme_name(&self) -> &'static str {
        match self {
            ProtImpl::Hash(_) => "hash-tree",
            ProtImpl::Mac(_) => "incremental-mac",
        }
    }
}

/// A verified external memory: the paper's integrated cache + hash-tree
/// machinery, functionally complete.
///
/// # Examples
///
/// ```
/// use miv_core::{MemoryBuilder, TamperKind};
///
/// let mut mem = MemoryBuilder::new().data_bytes(16 * 1024).build();
/// mem.write(0x200, b"result = 42").unwrap();
/// mem.flush().unwrap();
///
/// // The adversary rewrites the value in external RAM...
/// let phys = mem.layout().data_phys_addr(0x200);
/// mem.adversary().tamper(phys, TamperKind::Replace { data: b"result = 43".to_vec() });
///
/// // ...and the next read detects it (the block is no longer cached
/// // after the flush pushed it out to memory — force a cold read):
/// mem.clear_cache().unwrap();
/// assert!(mem.read_vec(0x200, 11).is_err());
/// ```
#[derive(Debug)]
pub struct VerifiedMemory {
    layout: TreeLayout,
    mem: UntrustedMemory,
    cache: TrustedCache,
    /// Slot values for the top-level chunks (on-chip secure memory).
    secure: Vec<[u8; DIGEST_BYTES]>,
    protection: ProtImpl,
    /// §5.6.2: when disabled, checks run but mismatches do not raise.
    exceptions_enabled: bool,
    poisoned: bool,
    stats: EngineStats,
    /// Telemetry: chunks verified per outermost check (walk depth).
    verify_depth: Histogram,
    /// Telemetry: integrity-violation events, timestamped by the
    /// verification's operation index.
    events: EventSink,
    /// Current `read_and_check_chunk` recursion depth.
    walk_cur: u32,
    /// Peak recursion depth since the outermost call began.
    walk_peak: u32,
    /// Verified-path memoization switch.
    memoize: bool,
    /// Lane count for the batched flush (1 = scalar write-backs only).
    flush_batch_lanes: usize,
    /// Current quiescent epoch. Bumped whenever untrusted state may have
    /// changed behind the engine's back (adversary access, cache
    /// clear), which invalidates every memo stamp at once.
    epoch: u64,
    /// Per-chunk memo stamp: the epoch in which the chunk's memory image
    /// was last known to match its parent slot (0 = never).
    verified_at: Vec<u64>,
    /// Clean cached blocks that were resident at an epoch boundary: each
    /// may mask a tamper until it is written back or dropped. Empty in
    /// adversary-free runs, so the hot path pays one `is_empty` branch.
    masked: std::collections::BTreeSet<u64>,
}

type Result<T> = std::result::Result<T, IntegrityError>;

impl VerifiedMemory {
    // ------------------------------------------------------------------
    // Public API
    // ------------------------------------------------------------------

    /// Fallible construction from a configured [`MemoryBuilder`]: the
    /// `Result` twin of [`MemoryBuilder::build`], for callers holding a
    /// user-supplied spec (`mivsim serve` builds every shard's engine
    /// through this on its worker thread).
    pub fn try_new(builder: MemoryBuilder) -> std::result::Result<Self, ConfigError> {
        builder.try_build()
    }

    /// The tree layout.
    pub fn layout(&self) -> &TreeLayout {
        &self.layout
    }

    /// Functional operation counters.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Resets the operation counters.
    pub fn reset_stats(&mut self) {
        self.stats = EngineStats::default();
    }

    /// Attaches telemetry: an `engine.verify_depth` histogram (chunks
    /// verified per outermost check) and [`SimEvent::IntegrityViolation`]
    /// events, timestamped by verification operation index.
    pub fn attach_observability(&mut self, registry: &Registry, events: EventSink) {
        self.verify_depth = registry.histogram("engine.verify_depth");
        self.events = events;
    }

    /// Trusted-cache hit/miss counters `(hits, misses)`.
    pub fn cache_counters(&self) -> (u64, u64) {
        (self.cache.hits(), self.cache.misses())
    }

    /// The on-chip secure root slots.
    pub fn secure_root(&self) -> &[[u8; DIGEST_BYTES]] {
        &self.secure
    }

    /// Attacker's view of the untrusted memory.
    ///
    /// Handing out the adversary ends the current quiescent epoch: every
    /// verified-path memo stamp is invalidated, so the next access to any
    /// chunk re-verifies from the (trusted or secure) root downward. This
    /// is what makes memoization sound — a chunk skips re-hashing only
    /// while nothing outside the engine could have touched memory.
    pub fn adversary(&mut self) -> Adversary<'_> {
        self.end_epoch();
        Adversary::new(&mut self.mem)
    }

    /// Enables or disables verified-path memoization.
    ///
    /// With memoization on (the default), a chunk whose memory image was
    /// verified — or rewritten by the engine itself, which re-establishes
    /// the invariant — earlier in the current quiescent epoch skips the
    /// digest recomputation and the ancestor walk on later checks: the
    /// functional mirror of the paper's "a cached (trusted) node acts as
    /// a local root" rule, with the epoch standing in for residency.
    /// Results are byte-identical either way; only the work differs.
    pub fn set_memoization(&mut self, on: bool) {
        self.memoize = on;
    }

    /// Whether verified-path memoization is enabled.
    pub fn memoization(&self) -> bool {
        self.memoize
    }

    /// Sets the lane count for the batched flush: dirty chunks whose
    /// blocks and parent slot are all resident are hashed in groups of up
    /// to `lanes` through the multi-lane digest and flipped together.
    /// `1` restores the scalar per-chunk write-back path (clamped up from
    /// 0).
    pub fn set_flush_batch_lanes(&mut self, lanes: usize) {
        self.flush_batch_lanes = lanes.max(1);
    }

    /// Ends the current quiescent epoch, invalidating every memo stamp.
    ///
    /// Also snapshots the clean cached blocks: from this point on, each
    /// of them may *mask* a tamper (the cache copy hides whatever the
    /// adversary wrote under it), so a chunk re-stamped while one of its
    /// masked blocks is resident loses the stamp the moment that block
    /// leaves the cache — exactly when the unmemoized engine would start
    /// seeing (and detecting) the corrupted memory bytes.
    fn end_epoch(&mut self) {
        self.epoch += 1;
        let clean = self
            .cache
            .iter_blocks()
            .filter(|&(_, dirty)| !dirty)
            .map(|(a, _)| a);
        self.masked.extend(clean);
    }

    /// Removes `block` from the cache; if it was a masked clean copy, the
    /// removal may expose tampered memory, so its chunk's memo stamp is
    /// dropped.
    fn forget_block(&mut self, block: u64) {
        self.cache.remove(block);
        if !self.masked.is_empty() && self.masked.remove(&block) {
            let chunk = self.layout.chunk_of_addr(block);
            self.verified_at[chunk as usize] = 0;
        }
    }

    /// Marks `chunk` as verified in the current epoch.
    fn stamp_verified(&mut self, chunk: u64) {
        self.verified_at[chunk as usize] = self.epoch;
    }

    /// Whether `chunk` still holds a current-epoch verification stamp.
    fn memo_valid(&self, chunk: u64) -> bool {
        self.memoize && self.verified_at[chunk as usize] == self.epoch
    }

    /// Enables or disables integrity exceptions (§5.6.2 initialization
    /// runs with them off).
    pub fn set_exceptions_enabled(&mut self, enabled: bool) {
        self.exceptions_enabled = enabled;
    }

    /// Reads `buf.len()` bytes from data address `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`IntegrityError`] if any chunk on the verification path
    /// has been tampered with, or if a violation was previously detected
    /// (the engine is poisoned).
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the data segment.
    pub fn read(&mut self, addr: u64, buf: &mut [u8]) -> Result<()> {
        self.check_poisoned()?;
        let mut pos = 0usize;
        while pos < buf.len() {
            let a = addr + pos as u64;
            let phys = self.layout.data_phys_addr(a);
            let block = self.block_addr(phys);
            let offset = (phys - block) as usize;
            let take = (self.layout.block_bytes() as usize - offset).min(buf.len() - pos);
            if let Some(data) = self.cache.get(block) {
                buf[pos..pos + take].copy_from_slice(&data[offset..offset + take]);
            } else {
                let chunk = self.layout.chunk_of_addr(phys);
                let image = self.poison_on_err(|e| e.read_and_check_chunk(chunk))?;
                let in_chunk = (block - self.layout.chunk_addr(chunk)) as usize;
                buf[pos..pos + take]
                    .copy_from_slice(&image[in_chunk + offset..in_chunk + offset + take]);
                self.insert_uncached_blocks(chunk, &image)?;
            }
            pos += take;
        }
        Ok(())
    }

    /// Reads `len` bytes from data address `addr` into a new vector.
    ///
    /// # Errors
    ///
    /// See [`read`](Self::read).
    pub fn read_vec(&mut self, addr: u64, len: usize) -> Result<Vec<u8>> {
        let mut buf = vec![0u8; len];
        self.read(addr, &mut buf)?;
        Ok(buf)
    }

    /// Writes `data` at data address `addr` (write-allocate).
    ///
    /// # Errors
    ///
    /// Returns [`IntegrityError`] if a verification on the allocate path
    /// fails.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the data segment.
    pub fn write(&mut self, addr: u64, data: &[u8]) -> Result<()> {
        self.check_poisoned()?;
        let mut pos = 0usize;
        while pos < data.len() {
            let a = addr + pos as u64;
            let phys = self.layout.data_phys_addr(a);
            let block = self.block_addr(phys);
            let offset = (phys - block) as usize;
            let block_len = self.layout.block_bytes() as usize;
            let take = (block_len - offset).min(data.len() - pos);
            if let Some(cached) = self.cache.get_mut(block) {
                cached[offset..offset + take].copy_from_slice(&data[pos..pos + take]);
            } else if offset == 0 && take == block_len {
                // §5.3: a whole-block overwrite allocates without fetching
                // or checking the old contents.
                self.stats.alloc_no_fetch += 1;
                self.cache.insert(block, &data[pos..pos + take], true);
                self.enforce_capacity()?;
            } else {
                let chunk = self.layout.chunk_of_addr(phys);
                let image = self.poison_on_err(|e| e.read_and_check_chunk(chunk))?;
                self.insert_uncached_blocks(chunk, &image)?;
                let cached = self.cache.get_mut(block).expect("just inserted");
                cached[offset..offset + take].copy_from_slice(&data[pos..pos + take]);
            }
            pos += take;
        }
        Ok(())
    }

    /// Writes back every dirty block, leaving the cache clean.
    ///
    /// # Errors
    ///
    /// Returns [`IntegrityError`] if a verification performed during a
    /// write-back fails.
    pub fn flush(&mut self) -> Result<()> {
        self.check_poisoned()?;
        loop {
            let dirty = self.cache.dirty_blocks();
            if dirty.is_empty() {
                return Ok(());
            }
            // Fully-resident dirty chunks flip through the multi-lane
            // batched path; whatever remains (partially cached chunks,
            // re-dirtied parents, the MAC scheme) takes the scalar
            // write-back below. The outer loop re-scans until the cascade
            // of parent-slot updates settles.
            self.flush_batched(&dirty);
            for block in dirty {
                if self.cache.dirty(block) == Some(true) {
                    self.poison_on_err(|e| e.write_back_block(block))?;
                }
            }
        }
    }

    /// Retires eligible dirty chunks through the multi-lane batched
    /// write-back: a chunk qualifies when all of its blocks and its parent
    /// slot block are already resident, so its new image can be assembled
    /// and flipped without any fetch, verification or eviction — which is
    /// what lets several chunks be hashed together via
    /// [`ChunkHasher::digest_batch`]. Chunks that are parents of other
    /// eligible chunks are deferred (their slot blocks are about to be
    /// re-dirtied by the children's flips) and picked up by the caller's
    /// scalar sweep or the next flush pass. Produces exactly the final
    /// memory, slot and cache state the scalar path would.
    fn flush_batched(&mut self, dirty: &[u64]) {
        if self.flush_batch_lanes < 2 || !matches!(self.protection, ProtImpl::Hash(_)) {
            return;
        }
        let chunks: std::collections::BTreeSet<u64> = dirty
            .iter()
            .map(|&b| self.layout.chunk_of_addr(b))
            .collect();
        // Prefetch: a fully-resident dirty chunk whose slot block is not
        // cached would fall to the scalar path only to fetch that slot
        // there (whole-line writes allocate without fetching, so this is
        // the common flush shape). Pull the slot blocks in first — the
        // same `ensure_slot_resident` + capacity trim the scalar
        // write-back performs — then compute eligibility, since the
        // fetches and evictions may reshape the cache. A verification
        // error during prefetch just leaves everything to the scalar
        // sweep, which re-encounters and reports it.
        for &chunk in &chunks {
            let blocks_resident = (0..self.layout.blocks_per_chunk())
                .all(|j| self.cache.contains(self.block_addr_of(chunk, j)));
            let slot_missing = match self.layout.parent(chunk) {
                ParentRef::Secure { .. } => false,
                ParentRef::Chunk {
                    chunk: parent,
                    index,
                } => !self.cache.contains(self.slot_block(parent, index).0),
            };
            if blocks_resident
                && slot_missing
                && (self.ensure_slot_resident(chunk).is_err() || self.enforce_capacity().is_err())
            {
                return;
            }
        }
        let eligible: Vec<u64> = chunks
            .into_iter()
            .filter(|&chunk| {
                let blocks_resident = (0..self.layout.blocks_per_chunk())
                    .all(|j| self.cache.contains(self.block_addr_of(chunk, j)));
                let slot_resident = match self.layout.parent(chunk) {
                    ParentRef::Secure { .. } => true,
                    ParentRef::Chunk {
                        chunk: parent,
                        index,
                    } => self.cache.contains(self.slot_block(parent, index).0),
                };
                blocks_resident && slot_resident
            })
            .collect();
        let member_parents: std::collections::BTreeSet<u64> = eligible
            .iter()
            .filter_map(|&chunk| match self.layout.parent(chunk) {
                ParentRef::Chunk { chunk: parent, .. } => Some(parent),
                ParentRef::Secure { .. } => None,
            })
            .collect();
        let members: Vec<u64> = eligible
            .into_iter()
            .filter(|chunk| !member_parents.contains(chunk))
            .collect();

        let block_len = self.layout.block_bytes() as usize;
        for group in members.chunks(self.flush_batch_lanes) {
            // Assemble every member's new image from the (fully resident)
            // cache, then hash the group in one multi-lane pass.
            let images: Vec<Vec<u8>> = group
                .iter()
                .map(|&chunk| {
                    let mut image = vec![0u8; self.layout.chunk_bytes() as usize];
                    for j in 0..self.layout.blocks_per_chunk() {
                        let block = self.block_addr_of(chunk, j);
                        let data = self.cache.peek(block).expect("eligible chunk resident");
                        image[j as usize * block_len..(j as usize + 1) * block_len]
                            .copy_from_slice(data);
                    }
                    image
                })
                .collect();
            let digests: Vec<Digest> = {
                let ProtImpl::Hash(hasher) = &self.protection else {
                    unreachable!("batched flush is hash-scheme only")
                };
                let refs: Vec<&[u8]> = images.iter().map(|v| &v[..]).collect();
                hasher.digest_batch(&refs)
            };
            self.stats.hash_computations += group.len() as u64;
            // Atomic flip per member, exactly as in the scalar write-back:
            // dirty blocks to memory, blocks marked clean, new hash into
            // the (resident) parent slot.
            for (i, &chunk) in group.iter().enumerate() {
                for j in 0..self.layout.blocks_per_chunk() {
                    let block = self.block_addr_of(chunk, j);
                    if self.cache.dirty(block) == Some(true) {
                        self.stats.block_writes += 1;
                        self.mem.write(
                            block,
                            &images[i][j as usize * block_len..(j as usize + 1) * block_len],
                        );
                        self.cache.mark_clean(block);
                        self.masked.remove(&block);
                    }
                }
                self.write_slot_resident(chunk, digests[i].into_bytes());
                self.stamp_verified(chunk);
                self.stats.writebacks += 1;
                self.stats.batched_writebacks += 1;
            }
            self.paranoid_check(format_args!("flush_batched group at {:#x}", group[0]));
        }
    }

    /// Flushes and then empties the trusted cache entirely — the state a
    /// context switch or cache-flush instruction leaves behind. Subsequent
    /// reads are cold and must verify from memory.
    ///
    /// # Errors
    ///
    /// See [`flush`](Self::flush).
    pub fn clear_cache(&mut self) -> Result<()> {
        self.flush()?;
        let blocks: Vec<u64> = self.cache.iter_blocks().map(|(a, _)| a).collect();
        for b in blocks {
            self.forget_block(b);
        }
        // A wholesale cache clear is a trust boundary (context switch,
        // cache-flush instruction): the "local roots" the memo stamps
        // stand in for are gone, so subsequent reads must re-verify from
        // the secure root, exactly as the unmemoized engine would.
        self.end_epoch();
        Ok(())
    }

    /// Audits the whole tree: verifies every chunk's memory image against
    /// its (trusted or verified) slot.
    ///
    /// # Errors
    ///
    /// Returns the first [`IntegrityError`] encountered.
    pub fn verify_all(&mut self) -> Result<()> {
        self.check_poisoned()?;
        // An audit must actually re-check every chunk, so bypass the
        // verified-path memoization for its duration.
        let saved = self.memoize;
        self.memoize = false;
        let mut result = Ok(());
        for chunk in 0..self.layout.total_chunks() {
            if let Err(e) = self.poison_on_err(|e| e.read_and_check_chunk(chunk).map(|_| ())) {
                result = Err(e);
                break;
            }
        }
        self.memoize = saved;
        result
    }

    /// Runs the literal §5.6.2 initialization procedure: exceptions off,
    /// touch every data chunk, flush, exceptions on. Used to demonstrate
    /// equivalence with the builder's bottom-up construction.
    ///
    /// # Errors
    ///
    /// Propagates verification errors (none should occur with exceptions
    /// disabled).
    pub fn initialize_via_touch(&mut self) -> Result<()> {
        // Step 1: hashing on for writes, exceptions off.
        self.set_exceptions_enabled(false);
        // Step 2: touch (write) each data chunk.
        let chunk_len = self.layout.chunk_bytes() as usize;
        let data_bytes = self.layout.data_bytes();
        let mut addr = 0u64;
        while addr < data_bytes {
            let take = chunk_len.min((data_bytes - addr) as usize);
            let current = self.read_vec(addr, take)?;
            self.write(addr, &current)?;
            addr += chunk_len as u64;
        }
        // Step 3: flush the cache, forcing write-backs up the tree.
        self.flush()?;
        // Step 4: re-enable integrity exceptions.
        self.set_exceptions_enabled(true);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Core algorithms (§5.3 / §5.4)
    // ------------------------------------------------------------------

    /// `ReadAndCheckChunk`: returns the chunk's verified **memory image**
    /// (clean cached blocks are read from the cache; everything else from
    /// untrusted memory), checking it against the slot in the parent.
    ///
    /// Runs in two phases to mirror the hardware's atomic compare. Phase 1
    /// performs all cache-perturbing work — recursively making the parent
    /// slot's block resident, which may evict lines and cascade
    /// write-backs (including of this very chunk, which is fine: its
    /// memory image and slot move *together*). Phase 2 then gathers the
    /// image and compares it against the (pinned-resident) slot with no
    /// cache activity in between, so nothing can move under the compare.
    fn read_and_check_chunk(&mut self, chunk: u64) -> Result<Vec<u8>> {
        self.walk_cur += 1;
        self.walk_peak = self.walk_peak.max(self.walk_cur);
        let result = self.read_and_check_chunk_inner(chunk);
        self.walk_cur -= 1;
        if self.walk_cur == 0 {
            self.verify_depth.record(self.walk_peak as u64);
            self.walk_peak = 0;
        }
        result
    }

    fn read_and_check_chunk_inner(&mut self, chunk: u64) -> Result<Vec<u8>> {
        // Memoized fast path: the chunk was verified (or coherently
        // rewritten by the engine) earlier in this quiescent epoch, so
        // its memory image still matches its parent slot — return the
        // image without re-hashing or walking the ancestor path. Only
        // the work changes: the bytes handed back are the same ones the
        // full check would approve, because every way untrusted state
        // can change behind the engine's back ends the epoch.
        if self.memo_valid(chunk) {
            self.stats.memo_hits += 1;
            return Ok(self.gather_memory_image(chunk));
        }
        // Phase 1: all fetches, fills, evictions and cascaded write-backs.
        let slot_loc = self.ensure_slot_resident(chunk)?;
        if let Some((block, _)) = slot_loc {
            self.cache.pin(block);
        }
        // Phase 2: atomic gather + compare.
        let image = self.gather_memory_image(chunk);
        let slot = match slot_loc {
            None => {
                let ParentRef::Secure { index } = self.layout.parent(chunk) else {
                    unreachable!("slot_loc is None only for secure slots")
                };
                self.secure[index as usize]
            }
            Some((block, offset)) => {
                let data = self.cache.peek(block).expect("slot block pinned resident");
                let mut out = [0u8; DIGEST_BYTES];
                out.copy_from_slice(&data[offset..offset + DIGEST_BYTES]);
                out
            }
        };
        if let Some((block, _)) = slot_loc {
            self.cache.unpin(block);
        }
        self.verify_chunk_image(chunk, &image, slot)?;
        Ok(image)
    }

    /// Assembles the chunk's memory image.
    fn gather_memory_image(&mut self, chunk: u64) -> Vec<u8> {
        let block_len = self.layout.block_bytes() as usize;
        let mut image = vec![0u8; self.layout.chunk_bytes() as usize];
        for j in 0..self.layout.blocks_per_chunk() {
            let block = self.block_addr_of(chunk, j);
            let dst = &mut image[j as usize * block_len..(j as usize + 1) * block_len];
            match self.cache.lookup(block) {
                // A clean cached block equals its memory image.
                Some((data, false)) => {
                    dst.copy_from_slice(data);
                }
                // Dirty or absent: the *memory* copy is what the parent
                // slot covers.
                _ => {
                    self.stats.block_reads += 1;
                    self.mem.read(block, dst);
                }
            }
        }
        image
    }

    /// Checks a chunk image against its parent slot value.
    fn verify_chunk_image(
        &mut self,
        chunk: u64,
        image: &[u8],
        slot: [u8; DIGEST_BYTES],
    ) -> Result<()> {
        self.stats.chunk_verifications += 1;
        let ok = match &self.protection {
            ProtImpl::Hash(hasher) => {
                self.stats.hash_computations += 1;
                let computed = hasher.digest(image);
                Digest::from_bytes(slot) == computed
            }
            ProtImpl::Mac(mac) => {
                let (tag, ts) = parse_mac_slot(&slot);
                let block_len = self.layout.block_bytes() as usize;
                mac.verify(
                    tag,
                    image
                        .chunks_exact(block_len)
                        .enumerate()
                        .map(|(j, b)| (b, ts >> j & 1 == 1)),
                )
            }
        };
        if ok {
            // Stamp only on a *passing* check: under §5.6.2 (exceptions
            // disabled) a mismatch returns Ok below without the chunk
            // actually being trustworthy.
            self.stamp_verified(chunk);
        }
        if !ok && self.exceptions_enabled {
            self.events.record(
                self.stats.chunk_verifications,
                SimEvent::IntegrityViolation {
                    addr: self.layout.chunk_addr(chunk),
                    chunk,
                    scheme: self.protection.scheme_name(),
                },
            );
            return Err(IntegrityError::new(
                chunk,
                self.layout.chunk_addr(chunk),
                self.protection.scheme_name(),
            ));
        }
        Ok(())
    }

    /// Ensures the block holding `chunk`'s slot is resident (verifying the
    /// parent on the way in) and returns `(block, offset)`; secure-memory
    /// slots return `None`.
    fn ensure_slot_resident(&mut self, chunk: u64) -> Result<Option<(u64, usize)>> {
        match self.layout.parent(chunk) {
            ParentRef::Secure { .. } => Ok(None),
            ParentRef::Chunk {
                chunk: parent,
                index,
            } => {
                let (block, offset) = self.slot_block(parent, index);
                if !self.cache.contains(block) {
                    let image = self.read_and_check_chunk(parent)?;
                    self.insert_uncached_blocks_unenforced(parent, &image);
                }
                Ok(Some((block, offset)))
            }
        }
    }

    /// Writes a chunk's slot through the parent `Write` operation: secure
    /// memory directly, or the resident parent block (marking it dirty).
    ///
    /// The caller must have pinned the slot block via
    /// [`ensure_slot_resident`](Self::ensure_slot_resident) so no fetch is
    /// needed here — this keeps the write-back's final step atomic.
    fn write_slot_resident(&mut self, chunk: u64, value: [u8; DIGEST_BYTES]) {
        match self.layout.parent(chunk) {
            ParentRef::Secure { index } => self.secure[index as usize] = value,
            ParentRef::Chunk {
                chunk: parent,
                index,
            } => {
                let (block, offset) = self.slot_block(parent, index);
                let data = self
                    .cache
                    .get_mut(block)
                    .expect("slot block pinned resident by caller");
                data[offset..offset + DIGEST_BYTES].copy_from_slice(&value);
            }
        }
    }

    /// `Write-Back` for the block at `victim` (which must be dirty),
    /// dispatching on the protection scheme. The block is left resident
    /// and clean; the caller may then remove it.
    fn write_back_block(&mut self, victim: u64) -> Result<()> {
        debug_assert_eq!(self.cache.dirty(victim), Some(true));
        self.stats.writebacks += 1;
        let r = match &self.protection {
            ProtImpl::Hash(_) => self.write_back_chunk_hash(victim),
            ProtImpl::Mac(_) => self.write_back_block_mac(victim),
        };
        self.paranoid_check(format_args!("write_back_block({victim:#x})"));
        r
    }

    /// Paranoid mode (set MIV_PARANOID=1): audit the whole-tree invariant
    /// after a state-changing step. Used by stress tests.
    #[expect(
        clippy::panic,
        reason = "MIV_PARANOID is an opt-in stress-audit mode; aborting at the first broken invariant is its contract"
    )]
    fn paranoid_check(&mut self, what: std::fmt::Arguments<'_>) {
        static PARANOID: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
        if *PARANOID.get_or_init(|| std::env::var_os("MIV_PARANOID").is_some()) {
            if let Err(e) = self.audit_invariant() {
                panic!("after {what}: {e}");
            }
        }
    }

    /// §5.3 Write-Back: the whole chunk is re-hashed; all its dirty blocks
    /// go to memory together.
    fn write_back_chunk_hash(&mut self, victim: u64) -> Result<()> {
        let chunk = self.layout.chunk_of_addr(victim);
        let block_len = self.layout.block_bytes() as usize;

        // Pin the chunk's cached blocks: no re-entrant eviction may write
        // this chunk back while we are mid-update.
        let pinned: Vec<u64> = (0..self.layout.blocks_per_chunk())
            .map(|j| self.block_addr_of(chunk, j))
            .filter(|b| self.cache.contains(*b))
            .collect();
        for &b in &pinned {
            self.cache.pin(b);
        }
        let result = (|| -> Result<()> {
            // Make the parent slot block resident and pin it, so the final
            // hash store cannot miss.
            let slot_loc = self.ensure_slot_resident(chunk)?;
            if let Some((slot_block, _)) = slot_loc {
                self.cache.pin(slot_block);
            }
            let inner = (|| -> Result<()> {
                // Gather the chunk's *new* image: cached blocks (clean or
                // dirty) as cached; missing blocks from the verified old
                // memory image.
                let old_image = if pinned.len() < self.layout.blocks_per_chunk() as usize {
                    Some(self.read_and_check_chunk(chunk)?)
                } else {
                    None
                };
                let mut new_image = vec![0u8; self.layout.chunk_bytes() as usize];
                let mut dirty_blocks = Vec::new();
                for j in 0..self.layout.blocks_per_chunk() {
                    let block = self.block_addr_of(chunk, j);
                    let dst = &mut new_image[j as usize * block_len..(j as usize + 1) * block_len];
                    if let Some((data, dirty)) = self.cache.lookup(block) {
                        dst.copy_from_slice(data);
                        if dirty {
                            dirty_blocks.push((block, j));
                        }
                    } else {
                        let img = old_image.as_ref().expect("missing blocks were gathered");
                        dst.copy_from_slice(
                            &img[j as usize * block_len..(j as usize + 1) * block_len],
                        );
                    }
                }

                // Atomic flip: write dirty blocks to memory, mark the
                // chunk's blocks clean, store the new hash in the parent.
                let ProtImpl::Hash(hasher) = &self.protection else {
                    unreachable!()
                };
                self.stats.hash_computations += 1;
                let digest = hasher.digest(&new_image);
                for &(block, j) in &dirty_blocks {
                    self.stats.block_writes += 1;
                    self.mem.write(
                        block,
                        &new_image[j as usize * block_len..(j as usize + 1) * block_len],
                    );
                    self.cache.mark_clean(block);
                    // Freshly synced to memory: the cache copy no longer
                    // masks anything.
                    self.masked.remove(&block);
                }
                self.write_slot_resident(chunk, digest.into_bytes());
                // The image and slot were flipped together, so the chunk
                // is coherent for the rest of the epoch.
                self.stamp_verified(chunk);
                Ok(())
            })();
            if let Some((slot_block, _)) = slot_loc {
                self.cache.unpin(slot_block);
            }
            inner
        })();
        for &b in &pinned {
            self.cache.unpin(b);
        }
        result?;
        self.enforce_capacity()
    }

    /// §5.4 Write-Back with the incremental MAC: only the evicted block is
    /// written; the old value is read from memory *unchecked* and the MAC
    /// updated in O(1), flipping the block's one-bit timestamp.
    fn write_back_block_mac(&mut self, victim: u64) -> Result<()> {
        let chunk = self.layout.chunk_of_addr(victim);
        let block_len = self.layout.block_bytes() as usize;
        let j = u32::try_from((victim - self.layout.chunk_addr(chunk)) / block_len as u64)
            .expect("block index within chunk");

        self.cache.pin(victim);
        let result = (|| -> Result<()> {
            // Step 1: read the parent MAC through the trusted path and pin
            // its block.
            let slot_loc = self.ensure_slot_resident(chunk)?;
            if let Some((slot_block, _)) = slot_loc {
                self.cache.pin(slot_block);
            }
            let inner = {
                let slot = match slot_loc {
                    None => {
                        let ParentRef::Secure { index } = self.layout.parent(chunk) else {
                            unreachable!()
                        };
                        self.secure[index as usize]
                    }
                    Some((block, offset)) => {
                        let data = self.cache.peek(block).expect("pinned resident");
                        let mut out = [0u8; DIGEST_BYTES];
                        out.copy_from_slice(&data[offset..offset + DIGEST_BYTES]);
                        out
                    }
                };
                let (tag, ts) = parse_mac_slot(&slot);

                // Step 2: the old block value, read directly and unchecked.
                self.stats.unchecked_block_reads += 1;
                let old = self.mem.region(victim, block_len);

                // Step 3: O(1) MAC update with the timestamp flip.
                let new = self.cache.peek(victim).expect("victim pinned");
                let old_ts = ts >> j & 1 == 1;
                let new_ts = !old_ts;
                let ProtImpl::Mac(mac) = &self.protection else {
                    unreachable!()
                };
                self.stats.mac_updates += 1;
                let new_tag = mac.update(tag, j as u64, (old, old_ts), (new, new_ts));

                // Step 4: flip both sides together.
                self.stats.block_writes += 1;
                self.mem.write(victim, new);
                self.cache.mark_clean(victim);
                self.masked.remove(&victim);
                // No memo stamp here: unlike the hash write-back, the
                // O(1) MAC update never re-derives the slot from the
                // whole image, so it *preserves* an existing stamp (which
                // needs no action) but cannot establish a fresh one.
                self.write_slot_resident(chunk, build_mac_slot(new_tag, ts ^ (1 << j)));
                Ok(())
            };
            if let Some((slot_block, _)) = slot_loc {
                self.cache.unpin(slot_block);
            }
            inner
        })();
        self.cache.unpin(victim);
        result?;
        self.enforce_capacity()
    }

    // ------------------------------------------------------------------
    // Cache plumbing
    // ------------------------------------------------------------------

    /// Inserts a verified chunk image's uncached blocks as clean lines,
    /// then trims the cache back to capacity.
    fn insert_uncached_blocks(&mut self, chunk: u64, image: &[u8]) -> Result<()> {
        self.insert_uncached_blocks_unenforced(chunk, image);
        self.enforce_capacity()
    }

    fn insert_uncached_blocks_unenforced(&mut self, chunk: u64, image: &[u8]) {
        let block_len = self.layout.block_bytes() as usize;
        for j in 0..self.layout.blocks_per_chunk() {
            let block = self.block_addr_of(chunk, j);
            if !self.cache.contains(block) {
                let data = &image[j as usize * block_len..(j as usize + 1) * block_len];
                self.cache.insert(block, data, false);
            }
        }
    }

    /// Evicts LRU blocks (writing dirty ones back) until the cache is
    /// within capacity.
    fn enforce_capacity(&mut self) -> Result<()> {
        while self.cache.over_capacity() {
            let victim = self
                .cache
                .victim()
                .expect("trusted cache too small: all blocks pinned (enforced at build)");
            if self.cache.dirty(victim) == Some(true) {
                self.write_back_block(victim)?;
            }
            // Only drop the victim if it is (still) clean: a nested
            // write-back may have re-dirtied it by storing a child's slot
            // into it, and removing it then would lose that update. A
            // re-dirtied victim stays resident and the loop re-selects;
            // each write-back strictly decreases the summed tree depth of
            // dirty blocks, so this terminates.
            if self.cache.dirty(victim) == Some(false) {
                self.forget_block(victim);
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Small helpers
    // ------------------------------------------------------------------

    fn block_addr(&self, phys: u64) -> u64 {
        phys & !(self.layout.block_bytes() as u64 - 1)
    }

    fn block_addr_of(&self, chunk: u64, j: u32) -> u64 {
        self.layout.chunk_addr(chunk) + j as u64 * self.layout.block_bytes() as u64
    }

    /// The `(block address, offset within block)` of slot `index` in
    /// `parent`.
    fn slot_block(&self, parent: u64, index: u32) -> (u64, usize) {
        let byte = self.layout.chunk_addr(parent) + self.layout.slot_offset(index) as u64;
        let block = self.block_addr(byte);
        (block, (byte - block) as usize)
    }

    fn check_poisoned(&self) -> Result<()> {
        if self.poisoned {
            Err(IntegrityError::new(
                u64::MAX,
                0,
                self.protection.scheme_name(),
            ))
        } else {
            Ok(())
        }
    }

    fn poison_on_err<T>(&mut self, f: impl FnOnce(&mut Self) -> Result<T>) -> Result<T> {
        match f(self) {
            Ok(v) => Ok(v),
            Err(e) => {
                self.poisoned = true;
                Err(e)
            }
        }
    }

    /// Ground-truth invariant audit, bypassing the engine's own machinery:
    /// for every chunk, the *current* slot value (cached parent block if
    /// resident, else memory, else secure root) must equal the digest/MAC
    /// of the chunk's **memory** image. Debug/test aid only — does not
    /// perturb the cache.
    #[doc(hidden)]
    pub fn audit_invariant(&mut self) -> std::result::Result<(), String> {
        let block_len = self.layout.block_bytes() as usize;
        for chunk in 0..self.layout.total_chunks() {
            let image = self.mem.read_vec(
                self.layout.chunk_addr(chunk),
                self.layout.chunk_bytes() as usize,
            );
            let slot: [u8; DIGEST_BYTES] = match self.layout.parent(chunk) {
                ParentRef::Secure { index } => self.secure[index as usize],
                ParentRef::Chunk {
                    chunk: parent,
                    index,
                } => {
                    let (block, offset) = self.slot_block(parent, index);
                    let mut out = [0u8; DIGEST_BYTES];
                    match self.cache.peek(block) {
                        Some(data) => out.copy_from_slice(&data[offset..offset + DIGEST_BYTES]),
                        None => {
                            let addr = self.layout.chunk_addr(parent)
                                + self.layout.slot_offset(index) as u64;
                            let bytes = self.mem.read_vec(addr, DIGEST_BYTES);
                            out.copy_from_slice(&bytes);
                        }
                    }
                    out
                }
            };
            let ok = match &self.protection {
                ProtImpl::Hash(h) => h.digest(&image).into_bytes() == slot,
                ProtImpl::Mac(mac) => {
                    let (tag, ts) = parse_mac_slot(&slot);
                    mac.verify(
                        tag,
                        image
                            .chunks_exact(block_len)
                            .enumerate()
                            .map(|(j, b)| (b, ts >> j & 1 == 1)),
                    )
                }
            };
            if !ok {
                return Err(format!("invariant broken at chunk {chunk}"));
            }
        }
        Ok(())
    }

    /// Rebuilds the entire tree bottom-up from the current memory contents
    /// (builder initialization) as a level-by-level bulk build: each
    /// level's chunk images are hashed through
    /// [`ChunkHasher::digest_batch`] and, with `jobs > 1`, fanned over
    /// scoped worker threads on contiguous subranges merged back in
    /// chunk order.
    ///
    /// Determinism: the serial reference
    /// ([`rebuild_tree_serial`](Self::rebuild_tree_serial)) visits
    /// chunks in reverse index order, so every chunk is hashed after all
    /// of its children (children have strictly higher indices). Levels
    /// partition the index space into contiguous ranges
    /// ([`TreeLayout::level_ranges`]) and a chunk's children live
    /// exactly one level deeper, so processing levels deepest-first
    /// hashes every chunk image in the same state the serial walk saw
    /// it; within a level each write targets a distinct parent slot one
    /// level up, so the resulting tree state — secure roots and every
    /// interior slot — is byte-identical at any `jobs`.
    fn rebuild_tree(&mut self, jobs: usize) {
        let chunk_len = self.layout.chunk_bytes() as usize;
        let block_len = self.layout.block_bytes() as usize;
        for range in self.layout.level_ranges().iter().rev() {
            // A level is one contiguous physical region (chunk_addr is
            // linear in the index), so chunk images are zero-copy
            // slices of it; slot writes land one level up, outside the
            // borrowed region.
            let count = (range.end - range.start) as usize;
            let level = self
                .mem
                .region(self.layout.chunk_addr(range.start), count * chunk_len);
            let slots: Vec<[u8; DIGEST_BYTES]> = match &self.protection {
                ProtImpl::Hash(hasher) => hash_level(&**hasher, level, chunk_len, jobs),
                ProtImpl::Mac(mac) => level
                    .chunks_exact(chunk_len)
                    .map(|image| {
                        let tag = mac.mac_blocks(image.chunks_exact(block_len).map(|b| (b, false)));
                        build_mac_slot(tag, 0)
                    })
                    .collect(),
            };
            for (slot, chunk) in slots.into_iter().zip(range.clone()) {
                match self.layout.parent(chunk) {
                    ParentRef::Secure { index } => self.secure[index as usize] = slot,
                    ParentRef::Chunk {
                        chunk: parent,
                        index,
                    } => {
                        let addr =
                            self.layout.chunk_addr(parent) + self.layout.slot_offset(index) as u64;
                        self.mem.write(addr, &slot);
                    }
                }
            }
        }
    }

    /// The pre-bulk reference build: one scalar `digest` per chunk in
    /// reverse index order. Kept as the ground truth the bulk build is
    /// pinned against (byte-identical output) and as the bench baseline
    /// for the `bulk_build_ratio` gate.
    #[doc(hidden)]
    pub fn rebuild_tree_serial(&mut self) {
        let block_len = self.layout.block_bytes() as usize;
        for chunk in (0..self.layout.total_chunks()).rev() {
            let image = self.mem.read_vec(
                self.layout.chunk_addr(chunk),
                self.layout.chunk_bytes() as usize,
            );
            let slot = match &self.protection {
                ProtImpl::Hash(hasher) => hasher.digest(&image).into_bytes(),
                ProtImpl::Mac(mac) => {
                    let tag = mac.mac_blocks(image.chunks_exact(block_len).map(|b| (b, false)));
                    build_mac_slot(tag, 0)
                }
            };
            match self.layout.parent(chunk) {
                ParentRef::Secure { index } => self.secure[index as usize] = slot,
                ParentRef::Chunk {
                    chunk: parent,
                    index,
                } => {
                    let addr =
                        self.layout.chunk_addr(parent) + self.layout.slot_offset(index) as u64;
                    self.mem.write(addr, &slot);
                }
            }
        }
    }

    /// Re-runs the bulk tree build over the current memory contents;
    /// test/bench aid (the build is idempotent on an intact tree).
    #[doc(hidden)]
    pub fn rebuild_tree_bulk(&mut self, jobs: usize) {
        self.rebuild_tree(jobs.max(1));
    }
}

/// Hashes one level's chunk images into slot values: contiguous
/// subranges go to scoped worker threads (plain image slices in,
/// digests out — nothing but `Send + Sync` borrows cross the boundary)
/// and the per-worker results are concatenated in spawn order, which is
/// chunk order.
fn hash_level(
    hasher: &(dyn ChunkHasher + Send + Sync),
    level: &[u8],
    chunk_len: usize,
    jobs: usize,
) -> Vec<[u8; DIGEST_BYTES]> {
    let count = level.len() / chunk_len;
    let workers = jobs.max(1).min(count);
    if workers <= 1 {
        let refs: Vec<&[u8]> = level.chunks_exact(chunk_len).collect();
        return hasher
            .digest_batch(&refs)
            .into_iter()
            .map(Digest::into_bytes)
            .collect();
    }
    let span = count.div_ceil(workers);
    let mut out = Vec::with_capacity(count);
    std::thread::scope(|scope| {
        let handles: Vec<_> = level
            .chunks(span * chunk_len)
            .map(|part| {
                scope.spawn(move || {
                    let refs: Vec<&[u8]> = part.chunks_exact(chunk_len).collect();
                    hasher.digest_batch(&refs)
                })
            })
            .collect();
        for handle in handles {
            let digests = handle.join().expect("bulk-build worker panicked");
            out.extend(digests.into_iter().map(Digest::into_bytes));
        }
    });
    out
}

/// Splits a 16-byte slot into `(120-bit MAC, timestamp bits)`.
fn parse_mac_slot(slot: &[u8; DIGEST_BYTES]) -> (Mac120, u8) {
    let mut tag = [0u8; NARROW_MAC_BYTES];
    tag.copy_from_slice(&slot[..NARROW_MAC_BYTES]);
    (tag, slot[NARROW_MAC_BYTES])
}

/// Packs a `(120-bit MAC, timestamp bits)` pair into a 16-byte slot.
fn build_mac_slot(tag: Mac120, ts: u8) -> [u8; DIGEST_BYTES] {
    let mut slot = [0u8; DIGEST_BYTES];
    slot[..NARROW_MAC_BYTES].copy_from_slice(&tag);
    slot[NARROW_MAC_BYTES] = ts;
    slot
}
