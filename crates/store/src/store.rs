//! The verified block store proper.
//!
//! [`BlockStore`] maps the HPCA'03 hash tree onto an untrusted block
//! device ([`StoreMedium`]) and fronts it with a small *trusted* page
//! cache — the persistent analogue of the paper's trusted on-chip
//! cache. Pages double as tree chunks: hash pages hold children's
//! digests, data pages hold user bytes, and the only state believed
//! unconditionally is the [`TrustedRoot`] in the [`RootStore`]
//! (modeling on-chip NVRAM).
//!
//! # Commit protocol
//!
//! Mutations accumulate in the cache; evicted dirty pages go to the
//! write-back **journal**, stamped with the *next* generation, and an
//! overlay map remembers which journal slot shadows which page. The
//! main region is never touched between commits, so the on-disk image
//! for the committed generation stays intact while an epoch is open.
//! [`commit`](BlockStore::commit) then:
//!
//! 1. flushes every dirty cached page to the journal (hashing each one
//!    up its path, so the in-memory roots now describe the new state),
//! 2. syncs, writes the **inactive** superblock slot with
//!    `generation + 1` and the new roots digest, syncs again,
//! 3. saves the new [`TrustedRoot`] — **the commit point** —
//! 4. copies journal payloads into the main region and resets the
//!    journal.
//!
//! A crash before step 3 leaves the trusted root at the old generation:
//! the old superblock slot, old main region, and old-generation journal
//! prefix are all still on disk, so [`open`](BlockStore::open) recovers
//! the old state and counts the new-generation frames as orphans. A
//! crash after step 3 leaves the new trusted root: the new slot
//! verifies and the journal replay (step 4 redone) reconstructs the new
//! state. There is no window in which neither state is recoverable.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::path::PathBuf;
// miv-analyze: allow(rc-not-sent, reason="MemRootStore clones share one cell so the trusted root survives a simulated crash; root stores live and die on one worker, never crossing the sweep boundary")
use std::rc::Rc;

use miv_core::trusted_cache::TrustedCache;
use miv_core::ParentRef;
use miv_hash::digest::DIGEST_BYTES;
use miv_hash::ChunkHasher;

use crate::error::{FormatError, StoreError};
use crate::format::{JournalEntry, StoreGeometry, Superblock, TrustedRoot};
use crate::medium::StoreMedium;

/// Geometry and cache sizing for [`BlockStore::create`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreConfig {
    /// Protected data capacity in bytes.
    pub data_bytes: u64,
    /// Page size in bytes (power of two, ≥ 64 with 16-byte digests).
    pub page_bytes: u32,
    /// Trusted cache capacity in pages.
    pub cache_pages: usize,
    /// Journal slots; `0` picks an automatic size from the cache and
    /// tree depth.
    pub journal_slots: u32,
}

impl StoreConfig {
    /// A small default geometry used by examples and quick benches.
    pub fn small() -> Self {
        StoreConfig {
            data_bytes: 16 * 1024,
            page_bytes: 128,
            cache_pages: 16,
            journal_slots: 0,
        }
    }

    /// Pre-flights the geometry without touching a medium: the same
    /// checks [`BlockStore::create`] runs, so campaign drivers can
    /// reject a bad spec before fanning work out to a pool.
    pub fn validate(&self) -> Result<(), StoreError> {
        validate(self).map(|_| ())
    }
}

/// Trusted non-volatile storage for the [`TrustedRoot`].
///
/// This is the store's axiom: saves are assumed atomic and reads
/// faithful, exactly as the paper assumes the on-chip root register is
/// inside the trust boundary. Everything else — superblocks, journal,
/// pages — is verified against what this returns.
pub trait RootStore {
    /// Loads the last saved root.
    fn load(&self) -> Result<TrustedRoot, StoreError>;
    /// Durably replaces the root (the commit point).
    fn save(&mut self, root: &TrustedRoot) -> Result<(), StoreError>;
}

/// An in-memory [`RootStore`]; clones share one cell, so a test can
/// keep the trusted root across a simulated crash of the store.
#[derive(Debug, Clone, Default)]
pub struct MemRootStore {
    blob: Rc<RefCell<Option<Vec<u8>>>>,
}

impl MemRootStore {
    /// An empty root store (loads fail until the first save).
    pub fn new() -> Self {
        MemRootStore::default()
    }
}

impl RootStore for MemRootStore {
    fn load(&self) -> Result<TrustedRoot, StoreError> {
        match self.blob.borrow().as_deref() {
            Some(bytes) => Ok(TrustedRoot::from_bytes(bytes)?),
            None => Err(StoreError::Format(FormatError::Truncated {
                what: "trusted root",
                needed: 40,
                got: 0,
            })),
        }
    }

    fn save(&mut self, root: &TrustedRoot) -> Result<(), StoreError> {
        *self.blob.borrow_mut() = Some(root.to_bytes());
        Ok(())
    }
}

/// A [`RootStore`] backed by a file.
///
/// The root file sits *inside* the trust boundary by assumption (the
/// paper's on-chip registers); its write is taken as atomic. Keeping it
/// beside the block file is fine for simulation — the offline-tamper
/// campaign only ever mutates the block file.
#[derive(Debug)]
pub struct FileRootStore {
    path: PathBuf,
}

impl FileRootStore {
    /// Uses `path` as the trusted root blob.
    pub fn new(path: PathBuf) -> Self {
        FileRootStore { path }
    }
}

impl RootStore for FileRootStore {
    fn load(&self) -> Result<TrustedRoot, StoreError> {
        let bytes = std::fs::read(&self.path)?;
        Ok(TrustedRoot::from_bytes(&bytes)?)
    }

    fn save(&mut self, root: &TrustedRoot) -> Result<(), StoreError> {
        Ok(std::fs::write(&self.path, root.to_bytes())?)
    }
}

/// Device and cache counters, cheap to copy out.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Page-sized reads issued to the medium.
    pub device_reads: u64,
    /// Writes issued to the medium (pages, journal frames, superblocks).
    pub device_writes: u64,
    /// Bytes read from the medium.
    pub read_bytes: u64,
    /// Bytes written to the medium.
    pub write_bytes: u64,
    /// Sync barriers issued.
    pub syncs: u64,
    /// Page requests served from the trusted cache.
    pub cache_hits: u64,
    /// Page requests that had to load and verify from the medium.
    pub cache_misses: u64,
    /// Pages hashed (loads and write-backs).
    pub pages_hashed: u64,
    /// Pages whose digest was checked against the verified path.
    pub pages_verified: u64,
    /// Journal frames appended.
    pub journal_appends: u64,
    /// Commits performed (explicit and automatic).
    pub commits: u64,
    /// Commits triggered by the journal-pressure threshold.
    pub auto_commits: u64,
    /// Journal frames replayed during the last open.
    pub replayed_entries: u64,
}

/// What [`BlockStore::open`] found and did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// The committed generation recovered.
    pub generation: u64,
    /// Which superblock slot carried it.
    pub slot: usize,
    /// Journal frames replayed into the main region.
    pub replayed_entries: u64,
    /// Well-formed frames from a *newer*, uncommitted generation —
    /// work in flight when the crash hit, correctly discarded.
    pub orphaned_entries: u64,
}

/// What a full [`BlockStore::verify_all`] walk found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FsckReport {
    /// The recovery that opening performed.
    pub recovery: RecoveryReport,
    /// Tree pages verified against the trusted root (all of them).
    pub verified_pages: u64,
}

/// The verified block store. See the module docs for the protocol.
#[derive(Debug)]
pub struct BlockStore<M: StoreMedium, R: RootStore> {
    medium: M,
    root_store: R,
    geom: StoreGeometry,
    hasher: Box<dyn ChunkHasher>,
    /// The trusted page cache, keyed by each page's address in the tree
    /// layout (see [`key`](Self::key)).
    cache: TrustedCache,
    /// page → journal slot holding its newest payload this epoch.
    overlay: BTreeMap<u64, u32>,
    journal_used: u32,
    journal_reserve: u32,
    committed_generation: u64,
    roots: Vec<[u8; DIGEST_BYTES]>,
    poisoned: bool,
    stats: StoreStats,
}

fn auto_reserve(cache_pages: usize, levels: u32) -> u32 {
    // Worst case per flushed page: the page itself plus one write-back
    // per tree level above it; +8 slack for the commit's own traffic.
    (cache_pages as u32) * (levels + 1) + 8
}

fn validate(config: &StoreConfig) -> Result<(StoreGeometry, u32), StoreError> {
    let probe = StoreGeometry::new(config.data_bytes, config.page_bytes, 0)?;
    let levels = probe.layout().levels();
    let min_pages = 2 * (levels as usize + 2);
    if config.cache_pages < min_pages {
        return Err(StoreError::Config(miv_core::ConfigError::CacheTooSmall {
            blocks: config.cache_pages,
            min_blocks: min_pages,
        }));
    }
    let reserve = auto_reserve(config.cache_pages, levels);
    let slots = if config.journal_slots == 0 {
        2 * reserve
    } else if config.journal_slots < reserve + config.cache_pages as u32 {
        return Err(StoreError::Config(miv_core::ConfigError::CacheTooSmall {
            blocks: config.journal_slots as usize,
            min_blocks: (reserve + config.cache_pages as u32) as usize,
        }));
    } else {
        config.journal_slots
    };
    let geom = StoreGeometry::new(config.data_bytes, config.page_bytes, slots)?;
    Ok((geom, reserve))
}

impl<M: StoreMedium, R: RootStore> BlockStore<M, R> {
    /// Formats `medium` as a fresh store: zeroed data, a consistent
    /// hash tree over it, generation 1 committed and saved to
    /// `root_store`.
    pub fn create(
        mut medium: M,
        mut root_store: R,
        config: StoreConfig,
        hasher: Box<dyn ChunkHasher>,
    ) -> Result<Self, StoreError> {
        let (geom, reserve) = validate(&config)?;
        let layout = *geom.layout();
        let page_bytes = geom.page_bytes() as usize;
        let arity = layout.arity() as u64;

        // Build the zeroed tree bottom-up in memory: walk chunks from
        // the highest number down so every chunk's digest is ready
        // before its parent consumes it.
        let total = layout.total_chunks();
        let mut pages: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
        let mut digests: BTreeMap<u64, [u8; DIGEST_BYTES]> = BTreeMap::new();
        let zero_leaf = vec![0u8; page_bytes];
        let zero_digest = hasher.digest(&zero_leaf).into_bytes();
        for chunk in (0..total).rev() {
            if layout.is_data_chunk(chunk) {
                digests.insert(chunk, zero_digest);
                continue;
            }
            let mut page = vec![0u8; page_bytes];
            for child in layout.children(chunk) {
                let at = layout.slot_offset((child % arity) as u32) as usize;
                let d = digests
                    .get(&child)
                    .expect("documented invariant: children numbered above parent");
                page[at..at + DIGEST_BYTES].copy_from_slice(d);
            }
            digests.insert(chunk, hasher.digest(&page).into_bytes());
            pages.insert(chunk, page);
        }
        let roots: Vec<[u8; DIGEST_BYTES]> = (0..arity.min(total)).map(|c| digests[&c]).collect();

        // Lay the image down: zero journal region, hash pages, zero
        // data pages, then the generation-1 superblock in its slot.
        let total_bytes = geom.total_bytes();
        let mut image = vec![0u8; usize::try_from(total_bytes).expect("documented invariant")];
        for (chunk, page) in &pages {
            let at = usize::try_from(geom.page_offset(*chunk)).expect("documented invariant");
            image[at..at + page_bytes].copy_from_slice(page);
        }
        let root = TrustedRoot {
            generation: 1,
            data_bytes: config.data_bytes,
            page_bytes: geom.page_bytes(),
            journal_slots: geom.journal_slots(),
            roots: roots.clone(),
        };
        let sb = Superblock {
            generation: 1,
            data_bytes: config.data_bytes,
            page_bytes: geom.page_bytes(),
            journal_slots: geom.journal_slots(),
            journal_len: 0,
            roots_digest: root.roots_digest(hasher.as_ref()),
        };
        let slot = StoreGeometry::slot_for(1);
        let at = usize::try_from(geom.slot_offset(slot)).expect("documented invariant");
        image[at..at + 128].copy_from_slice(&sb.encode(hasher.as_ref()));

        medium.write_at(0, &image)?;
        medium.sync()?;
        root_store.save(&root)?;

        let mut store = BlockStore {
            medium,
            root_store,
            geom,
            hasher,
            cache: TrustedCache::try_new(config.cache_pages, page_bytes)
                .map_err(StoreError::Config)?,
            overlay: BTreeMap::new(),
            journal_used: 0,
            journal_reserve: reserve,
            committed_generation: 1,
            roots,
            poisoned: false,
            stats: StoreStats::default(),
        };
        store.stats.device_writes += 1;
        store.stats.write_bytes += total_bytes;
        store.stats.syncs += 1;
        Ok(store)
    }

    /// Opens an existing store, recovering to the trusted root's
    /// generation: picks the matching superblock slot, replays its
    /// committed journal prefix, and discards orphaned frames.
    pub fn open(
        mut medium: M,
        root_store: R,
        hasher: Box<dyn ChunkHasher>,
        cache_pages: usize,
    ) -> Result<(Self, RecoveryReport), StoreError> {
        let root = root_store.load()?;
        let config = StoreConfig {
            data_bytes: root.data_bytes,
            page_bytes: root.page_bytes,
            cache_pages,
            journal_slots: root.journal_slots,
        };
        let (geom, reserve) = validate(&config)?;
        let mut stats = StoreStats::default();

        // Find the superblock slot that matches the trusted root. The
        // trusted generation pins exactly one slot; the other may hold
        // anything (an older commit, a torn write, an orphaned newer
        // commit whose root save never happened).
        let slot = StoreGeometry::slot_for(root.generation);
        let mut slot_buf = [0u8; 128];
        medium.read_at(geom.slot_offset(slot), &mut slot_buf)?;
        stats.device_reads += 1;
        stats.read_bytes += 128;
        let expected_digest = root.roots_digest(hasher.as_ref());
        let sb = match Superblock::decode(&slot_buf, hasher.as_ref()) {
            Ok(sb)
                if sb.generation == root.generation
                    && sb.roots_digest == expected_digest
                    && sb.data_bytes == root.data_bytes
                    && sb.page_bytes == root.page_bytes
                    && sb.journal_slots == root.journal_slots =>
            {
                sb
            }
            _ => {
                return Err(StoreError::NoMatchingRoot {
                    trusted_generation: root.generation,
                })
            }
        };

        // Replay the committed journal prefix into the main region
        // (idempotent: rerunning after a crash mid-replay is safe
        // because each frame is a whole-page overwrite). A prefix slot
        // may legitimately hold something else: once a commit's fold
        // completes, the next epoch reuses the journal from slot 0, so
        // a valid frame with a *newer* generation — or a torn one —
        // proves the fold already ran and replay is unnecessary. Such
        // frames are skipped, not errors; if the slot was instead
        // tampered with, the payload it would have carried is still
        // checked by tree verification against the trusted roots
        // (checksums only triage — the tree authenticates).
        let frame_bytes =
            usize::try_from(JournalEntry::frame_bytes(geom.page_bytes())).expect("frame fits");
        let mut frame = vec![0u8; frame_bytes];
        let mut replayed = 0u64;
        for idx in 0..sb.journal_len.min(geom.journal_slots()) {
            medium.read_at(geom.journal_offset(idx), &mut frame)?;
            stats.device_reads += 1;
            stats.read_bytes += frame.len() as u64;
            let entry = match JournalEntry::decode(&frame, geom.page_bytes(), hasher.as_ref()) {
                Ok(e) if e.generation == root.generation => e,
                _ => continue,
            };
            if entry.page >= geom.layout().total_chunks() {
                continue;
            }
            medium.write_at(geom.page_offset(entry.page), &entry.payload)?;
            stats.device_writes += 1;
            stats.write_bytes += entry.payload.len() as u64;
            replayed += 1;
        }

        // Orphan scan: valid frames anywhere in the journal carrying a
        // *newer* generation are in-flight work a crash abandoned.
        // They are informational only.
        let mut orphaned = 0u64;
        for idx in 0..geom.journal_slots() {
            if medium
                .read_at(geom.journal_offset(idx), &mut frame)
                .is_err()
            {
                break;
            }
            stats.device_reads += 1;
            stats.read_bytes += frame.len() as u64;
            match JournalEntry::decode(&frame, geom.page_bytes(), hasher.as_ref()) {
                Ok(e) if e.generation > root.generation => orphaned += 1,
                _ => {}
            }
        }
        if replayed > 0 {
            medium.sync()?;
            stats.syncs += 1;
        }
        stats.replayed_entries = replayed;

        let report = RecoveryReport {
            generation: root.generation,
            slot,
            replayed_entries: replayed,
            orphaned_entries: orphaned,
        };
        let cache = TrustedCache::try_new(cache_pages, geom.page_bytes() as usize)
            .map_err(StoreError::Config)?;
        let store = BlockStore {
            medium,
            root_store,
            geom,
            hasher,
            cache,
            overlay: BTreeMap::new(),
            journal_used: 0,
            journal_reserve: reserve,
            committed_generation: root.generation,
            roots: root.roots,
            poisoned: false,
            stats,
        };
        Ok((store, report))
    }

    /// The store's geometry.
    pub fn geometry(&self) -> &StoreGeometry {
        &self.geom
    }

    /// The underlying medium (e.g. to read a crash injector's step
    /// counter).
    pub fn medium(&self) -> &M {
        &self.medium
    }

    /// The last committed generation.
    pub fn generation(&self) -> u64 {
        self.committed_generation
    }

    /// Counters so far.
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// Pages currently cached.
    pub fn cached_pages(&self) -> usize {
        self.cache.len()
    }

    /// Journal slots consumed in the open epoch.
    pub fn journal_used(&self) -> u32 {
        self.journal_used
    }

    fn guard(&self) -> Result<(), StoreError> {
        if self.poisoned {
            return Err(StoreError::Poisoned);
        }
        Ok(())
    }

    fn poison_on<T>(&mut self, r: Result<T, StoreError>) -> Result<T, StoreError> {
        if r.is_err() {
            self.poisoned = true;
        }
        r
    }

    /// Reads `len` bytes at data address `addr`, verifying every page
    /// touched against the trusted root.
    pub fn read_vec(&mut self, addr: u64, len: usize) -> Result<Vec<u8>, StoreError> {
        self.guard()?;
        let r = self.read_inner(addr, len);
        self.poison_on(r)
    }

    fn read_inner(&mut self, addr: u64, len: usize) -> Result<Vec<u8>, StoreError> {
        let mut out = Vec::with_capacity(len);
        let page_bytes = self.geom.page_bytes() as u64;
        let mut at = addr;
        let end = addr + len as u64;
        while at < end {
            let chunk = self.geom.layout().data_chunk_for(at);
            let in_page = (at % page_bytes) as usize;
            let take = ((page_bytes - at % page_bytes) as usize).min((end - at) as usize);
            self.ensure_page(chunk)?;
            let page = self
                .cache
                .peek(self.key(chunk))
                .expect("documented invariant: ensure_page caches the page");
            out.extend_from_slice(&page[in_page..in_page + take]);
            at += take as u64;
            self.enforce_capacity()?;
        }
        Ok(out)
    }

    /// Writes `data` at data address `addr` through the verified cache.
    /// May auto-commit first if the journal is near its reserve.
    pub fn write(&mut self, addr: u64, data: &[u8]) -> Result<(), StoreError> {
        self.guard()?;
        if self.journal_used + self.journal_reserve >= self.geom.journal_slots() {
            let r = self.commit_inner();
            self.poison_on(r)?;
            self.stats.auto_commits += 1;
        }
        let r = self.write_inner(addr, data);
        self.poison_on(r)
    }

    fn write_inner(&mut self, addr: u64, data: &[u8]) -> Result<(), StoreError> {
        let page_bytes = self.geom.page_bytes() as u64;
        let mut at = addr;
        let mut taken = 0usize;
        while taken < data.len() {
            let chunk = self.geom.layout().data_chunk_for(at);
            let in_page = (at % page_bytes) as usize;
            let take = ((page_bytes - at % page_bytes) as usize).min(data.len() - taken);
            self.ensure_page(chunk)?;
            let key = self.key(chunk);
            let page = self
                .cache
                .get_mut(key)
                .expect("documented invariant: ensure_page caches the page");
            page[in_page..in_page + take].copy_from_slice(&data[taken..taken + take]);
            at += take as u64;
            taken += take;
            self.enforce_capacity()?;
        }
        Ok(())
    }

    /// The cache key of `page`: its block-aligned address in the tree
    /// layout, as [`TrustedCache`] expects.
    fn key(&self, page: u64) -> u64 {
        self.geom.layout().chunk_addr(page)
    }

    /// The page a cache key names.
    fn page_of(&self, key: u64) -> u64 {
        self.geom.layout().chunk_of_addr(key)
    }

    /// Loads `page` into the cache if absent, verifying it against its
    /// parent's digest on the way in.
    fn ensure_page(&mut self, page: u64) -> Result<(), StoreError> {
        self.ensure_page_pinned(page)?;
        self.unpin(page);
        Ok(())
    }

    /// Like [`ensure_page`](Self::ensure_page) but returns with the
    /// page pinned, so nested capacity enforcement (which can run
    /// arbitrary write-back cascades) cannot evict it before the caller
    /// uses it. The caller must unpin.
    fn ensure_page_pinned(&mut self, page: u64) -> Result<(), StoreError> {
        let key = self.key(page);
        if self.cache.get(key).is_some() {
            self.stats.cache_hits += 1;
            self.cache.pin(key);
            return Ok(());
        }
        self.stats.cache_misses += 1;

        // Load the newest persisted payload: the epoch's journal
        // overlay shadows the main region.
        let page_bytes = self.geom.page_bytes() as usize;
        let mut data = vec![0u8; page_bytes];
        let offset = match self.overlay.get(&page) {
            Some(&idx) => self.geom.journal_offset(idx) + 20,
            None => self.geom.page_offset(page),
        };
        self.medium.read_at(offset, &mut data)?;
        self.stats.device_reads += 1;
        self.stats.read_bytes += page_bytes as u64;

        // Resolve the expected digest from the verified path above.
        let expected = match self.geom.layout().parent(page) {
            ParentRef::Secure { index } => self.roots[index as usize],
            ParentRef::Chunk { chunk, index } => {
                self.ensure_page_pinned(chunk)?;
                let parent = self
                    .cache
                    .peek(self.key(chunk))
                    .expect("documented invariant: pinned page stays cached");
                let at = self.geom.layout().slot_offset(index) as usize;
                let mut d = [0u8; DIGEST_BYTES];
                d.copy_from_slice(&parent[at..at + DIGEST_BYTES]);
                self.unpin(chunk);
                d
            }
        };
        self.stats.pages_hashed += 1;
        self.stats.pages_verified += 1;
        let actual = self.hasher.digest(&data).into_bytes();
        if actual != expected {
            return Err(StoreError::Integrity { page });
        }

        self.cache.insert(key, &data, false);
        self.cache.pin(key);
        // Capacity is NOT enforced here: this runs inside write-back
        // cascades that hold pins up the ancestor chain, and evicting
        // mid-cascade could leave no unpinned victim. The public
        // read/write paths (and commit) enforce capacity afterwards,
        // when no pins are held; the cache may transiently exceed its
        // budget by one ancestor chain.
        Ok(())
    }

    /// Pins `page` if it is cached; a no-op otherwise.
    fn pin(&mut self, page: u64) {
        let key = self.key(page);
        if self.cache.contains(key) {
            self.cache.pin(key);
        }
    }

    /// Unpins `page` if it is cached and pinned; a no-op otherwise, so
    /// no error path can reach the cache's panicking `unpin`.
    fn unpin(&mut self, page: u64) {
        let key = self.key(page);
        if self.cache.is_pinned(key) {
            self.cache.unpin(key);
        }
    }

    /// Writes a dirty page's payload to the journal and propagates its
    /// fresh digest into the parent (dirtying it) or the in-memory
    /// roots. The page stays cached, now clean.
    fn write_back(&mut self, page: u64) -> Result<(), StoreError> {
        self.pin(page);
        let r = self.write_back_inner(page);
        self.unpin(page);
        r
    }

    fn write_back_inner(&mut self, page: u64) -> Result<(), StoreError> {
        // Make the parent resident and pinned *before* publishing the
        // child, so the verified path stays intact throughout.
        let parent = self.geom.layout().parent(page);
        if let ParentRef::Chunk { chunk, .. } = parent {
            self.ensure_page_pinned(chunk)?;
        }
        let key = self.key(page);
        let result = (|| {
            let payload = self
                .cache
                .peek(key)
                .expect("documented invariant: caller holds the page")
                .to_vec();
            self.stats.pages_hashed += 1;
            let digest = self.hasher.digest(&payload).into_bytes();

            if self.journal_used >= self.geom.journal_slots() {
                return Err(StoreError::JournalFull);
            }
            let idx = self.journal_used;
            let frame = JournalEntry {
                generation: self.committed_generation + 1,
                page,
                payload,
            }
            .encode(self.hasher.as_ref());
            self.medium
                .write_at(self.geom.journal_offset(idx), &frame)?;
            self.stats.device_writes += 1;
            self.stats.write_bytes += frame.len() as u64;
            self.stats.journal_appends += 1;
            self.journal_used = idx + 1;
            self.overlay.insert(page, idx);
            self.cache.mark_clean(key);

            match parent {
                ParentRef::Secure { index } => {
                    self.roots[index as usize] = digest;
                }
                ParentRef::Chunk { chunk, index } => {
                    let at = self.geom.layout().slot_offset(index) as usize;
                    let parent_key = self.key(chunk);
                    let p = self
                        .cache
                        .get_mut(parent_key)
                        .expect("documented invariant: parent pinned above");
                    p[at..at + DIGEST_BYTES].copy_from_slice(&digest);
                }
            }
            Ok(())
        })();
        if let ParentRef::Chunk { chunk, .. } = parent {
            self.unpin(chunk);
        }
        result
    }

    fn enforce_capacity(&mut self) -> Result<(), StoreError> {
        while self.cache.over_capacity() {
            let key = self
                .cache
                .victim()
                .expect("documented invariant: cache floor leaves an unpinned page");
            if self.cache.dirty(key) == Some(true) {
                self.write_back(self.page_of(key))?;
            }
            self.cache.remove(key);
        }
        Ok(())
    }

    /// Durably commits everything written so far; on return the
    /// trusted root names the new generation. See the module docs for
    /// the crash-safety argument.
    pub fn commit(&mut self) -> Result<(), StoreError> {
        self.guard()?;
        let r = self.commit_inner();
        self.poison_on(r)
    }

    fn commit_inner(&mut self) -> Result<(), StoreError> {
        // Flush dirty pages to the journal, always taking the
        // highest-numbered one: its write-back only dirties pages
        // numbered *below* it, so each page flushes at most once.
        while let Some(&key) = self.cache.dirty_blocks().last() {
            self.write_back(self.page_of(key))?;
        }
        self.enforce_capacity()?;
        self.medium.sync()?;
        self.stats.syncs += 1;

        // Publish the new generation in the inactive slot.
        let generation = self.committed_generation + 1;
        let root = TrustedRoot {
            generation,
            data_bytes: self.geom.layout().data_bytes(),
            page_bytes: self.geom.page_bytes(),
            journal_slots: self.geom.journal_slots(),
            roots: self.roots.clone(),
        };
        let sb = Superblock {
            generation,
            data_bytes: root.data_bytes,
            page_bytes: root.page_bytes,
            journal_slots: root.journal_slots,
            journal_len: self.journal_used,
            roots_digest: root.roots_digest(self.hasher.as_ref()),
        };
        let slot = StoreGeometry::slot_for(generation);
        let encoded = sb.encode(self.hasher.as_ref());
        self.medium
            .write_at(self.geom.slot_offset(slot), &encoded)?;
        self.stats.device_writes += 1;
        self.stats.write_bytes += encoded.len() as u64;
        self.medium.sync()?;
        self.stats.syncs += 1;

        // THE COMMIT POINT: once the trusted root holds the new
        // generation, open() recovers the new state; before it, the old.
        self.root_store.save(&root)?;

        // Fold the journal into the main region (redone by open() if we
        // die here) and reset for the next epoch.
        let page_bytes = self.geom.page_bytes() as usize;
        let mut payload = vec![0u8; page_bytes];
        let pages: Vec<(u64, u32)> = self.overlay.iter().map(|(p, i)| (*p, *i)).collect();
        for (page, idx) in pages {
            self.medium
                .read_at(self.geom.journal_offset(idx) + 20, &mut payload)?;
            self.medium
                .write_at(self.geom.page_offset(page), &payload)?;
            self.stats.device_reads += 1;
            self.stats.read_bytes += page_bytes as u64;
            self.stats.device_writes += 1;
            self.stats.write_bytes += page_bytes as u64;
        }
        self.medium.sync()?;
        self.stats.syncs += 1;
        self.overlay.clear();
        self.journal_used = 0;
        self.committed_generation = generation;
        self.stats.commits += 1;
        Ok(())
    }

    /// Walks the whole tree, verifying every page against the trusted
    /// root. Returns the number of pages verified.
    pub fn verify_all(&mut self) -> Result<u64, StoreError> {
        self.guard()?;
        let r = self.verify_all_inner();
        self.poison_on(r)
    }

    fn verify_all_inner(&mut self) -> Result<u64, StoreError> {
        let layout = *self.geom.layout();
        let page_bytes = self.geom.page_bytes() as usize;
        // Memoize hash-page contents so each page is read exactly once;
        // the walk descends in chunk order, so a parent's bytes are
        // already verified (and memoized) before any child needs them.
        let mut hash_pages: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
        let mut verified = 0u64;
        let mut data = vec![0u8; page_bytes];
        for page in 0..layout.total_chunks() {
            let buf: &[u8] = if layout.is_hash_chunk(page) {
                self.medium
                    .read_at(self.geom.page_offset(page), &mut data)?;
                hash_pages.insert(page, data.clone());
                hash_pages
                    .get(&page)
                    .expect("documented invariant: just inserted")
            } else {
                self.medium
                    .read_at(self.geom.page_offset(page), &mut data)?;
                &data
            };
            self.stats.device_reads += 1;
            self.stats.read_bytes += page_bytes as u64;
            let expected = match layout.parent(page) {
                ParentRef::Secure { index } => self.roots[index as usize],
                ParentRef::Chunk { chunk, index } => {
                    let parent = hash_pages
                        .get(&chunk)
                        .expect("documented invariant: parents precede children");
                    let at = layout.slot_offset(index) as usize;
                    let mut d = [0u8; DIGEST_BYTES];
                    d.copy_from_slice(&parent[at..at + DIGEST_BYTES]);
                    d
                }
            };
            self.stats.pages_hashed += 1;
            self.stats.pages_verified += 1;
            if self.hasher.digest(buf).into_bytes() != expected {
                return Err(StoreError::Integrity { page });
            }
            verified += 1;
        }
        Ok(verified)
    }

    /// Opens and fully verifies a store: recovery plus a complete tree
    /// walk. This is `mivsim store fsck`'s engine.
    pub fn fsck(
        medium: M,
        root_store: R,
        hasher: Box<dyn ChunkHasher>,
        cache_pages: usize,
    ) -> Result<FsckReport, StoreError> {
        let (mut store, recovery) = Self::open(medium, root_store, hasher, cache_pages)?;
        let verified_pages = store.verify_all()?;
        Ok(FsckReport {
            recovery,
            verified_pages,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::medium::MemMedium;
    use miv_hash::Md5Hasher;

    fn fresh(
        config: StoreConfig,
    ) -> (BlockStore<MemMedium, MemRootStore>, MemMedium, MemRootStore) {
        let medium = MemMedium::new();
        let roots = MemRootStore::new();
        let store =
            BlockStore::create(medium.clone(), roots.clone(), config, Box::new(Md5Hasher)).unwrap();
        (store, medium, roots)
    }

    #[test]
    fn create_then_reopen_verifies_clean() {
        let (store, medium, roots) = fresh(StoreConfig::small());
        drop(store);
        let report = BlockStore::fsck(medium, roots, Box::new(Md5Hasher), 16).unwrap();
        assert_eq!(report.recovery.generation, 1);
        assert_eq!(report.recovery.replayed_entries, 0);
        assert_eq!(report.recovery.orphaned_entries, 0);
        assert!(report.verified_pages > 0);
    }

    #[test]
    fn write_commit_reopen_reads_back() {
        let (mut store, medium, roots) = fresh(StoreConfig::small());
        store.write(100, b"the committed payload").unwrap();
        store.write(8000, &[0xC3; 700]).unwrap();
        store.commit().unwrap();
        assert_eq!(store.generation(), 2);
        drop(store);

        let (mut store, report) = BlockStore::open(medium, roots, Box::new(Md5Hasher), 16).unwrap();
        assert_eq!(report.generation, 2);
        assert_eq!(store.read_vec(100, 21).unwrap(), b"the committed payload");
        assert_eq!(store.read_vec(8000, 700).unwrap(), vec![0xC3; 700]);
        assert_eq!(store.read_vec(121, 8).unwrap(), vec![0u8; 8]);
        assert!(store.verify_all().is_ok());
    }

    #[test]
    fn uncommitted_writes_roll_back_on_reopen() {
        let (mut store, medium, roots) = fresh(StoreConfig::small());
        store.write(0, b"durable").unwrap();
        store.commit().unwrap();
        store.write(0, b"ephemer").unwrap();
        // No commit; the epoch dies with the store.
        drop(store);
        let (mut store, report) = BlockStore::open(medium, roots, Box::new(Md5Hasher), 16).unwrap();
        assert_eq!(report.generation, 2);
        assert_eq!(store.read_vec(0, 7).unwrap(), b"durable");
    }

    #[test]
    fn cache_stays_bounded_and_deterministic() {
        let mut config = StoreConfig::small();
        config.cache_pages = 10;
        let (mut store, _m, _r) = fresh(config);
        for i in 0..200u64 {
            let addr = (i * 977) % (16 * 1024 - 64);
            store.write(addr, &[i as u8; 64]).unwrap();
        }
        assert!(store.cached_pages() <= 10);
        store.commit().unwrap();
        assert!(store.verify_all().is_ok());
        let stats = store.stats();
        assert!(stats.cache_hits > 0 && stats.cache_misses > 0);
        assert!(stats.journal_appends > 0);
    }

    #[test]
    fn auto_commit_fires_under_journal_pressure() {
        let config = StoreConfig {
            data_bytes: 64 * 1024,
            page_bytes: 128,
            cache_pages: 12,
            journal_slots: 0,
        };
        let (mut store, _m, _r) = fresh(config);
        for i in 0..3000u64 {
            let addr = (i * 6151) % (64 * 1024 - 32);
            store.write(addr, &[(i % 251) as u8; 32]).unwrap();
        }
        store.commit().unwrap();
        assert!(store.stats().auto_commits > 0, "journal pressure never hit");
        assert!(store.verify_all().is_ok());
    }

    #[test]
    fn online_bit_flip_is_detected_on_read() {
        let (mut store, medium, roots) = fresh(StoreConfig::small());
        store.write(500, &[0xEE; 100]).unwrap();
        store.commit().unwrap();
        // Flip a byte in a page the committed journal does NOT shadow
        // (address 8192 was never written): open()'s redo replay would
        // heal a flip on a journaled page, by design.
        let chunk = store.geometry().layout().data_chunk_for(8192);
        let offset = store.geometry().page_offset(chunk) + 17;
        drop(store);
        medium.flip(offset, 0x10);
        let (mut store, _) = BlockStore::open(medium, roots, Box::new(Md5Hasher), 16).unwrap();
        let err = store.read_vec(8192, 4).unwrap_err();
        assert!(matches!(err, StoreError::Integrity { .. }), "{err}");
        // The store is poisoned afterwards.
        assert!(matches!(
            store.read_vec(0, 1).unwrap_err(),
            StoreError::Poisoned
        ));
    }

    #[test]
    fn journaled_page_flip_is_healed_by_replay() {
        // The committed journal is a redo log: a flip on a main-region
        // page the journal still shadows is overwritten at open. The
        // recovered state verifies and the data is intact — masked, not
        // missed.
        let (mut store, medium, roots) = fresh(StoreConfig::small());
        store.write(500, &[0xEE; 100]).unwrap();
        store.commit().unwrap();
        let chunk = store.geometry().layout().data_chunk_for(500);
        let offset = store.geometry().page_offset(chunk) + (500 % 128);
        drop(store);
        medium.flip(offset, 0x10);
        let (mut store, report) = BlockStore::open(medium, roots, Box::new(Md5Hasher), 16).unwrap();
        assert!(report.replayed_entries > 0);
        assert_eq!(store.read_vec(500, 4).unwrap(), vec![0xEE; 4]);
        assert!(store.verify_all().is_ok());
    }

    #[test]
    fn too_small_cache_is_rejected() {
        let medium = MemMedium::new();
        let roots = MemRootStore::new();
        let config = StoreConfig {
            cache_pages: 2,
            ..StoreConfig::small()
        };
        let err = BlockStore::create(medium, roots, config, Box::new(Md5Hasher)).unwrap_err();
        assert!(matches!(err, StoreError::Config(_)), "{err}");
    }
}
