//! The cycle-level integrity checker integrated with the L2 cache.
//!
//! This is the timing side of the paper's contribution: an
//! [`L2Controller`] owns the unified L2 (`miv-cache`), the shared memory
//! bus (`miv-mem`), the pipelined hash unit (`miv-hash::engine`) and the
//! 16-entry read/write hash buffers, and services L1 misses under one of
//! five schemes:
//!
//! | scheme | behaviour |
//! |--------|-----------|
//! | [`Scheme::Base`]  | no verification — the baseline processor |
//! | [`Scheme::Naive`] | tree machinery between L2 and DRAM; every miss walks and fetches the full path to the root from memory; hashes are never cached |
//! | [`Scheme::CHash`] | hash chunks live in the L2; a cached hash is trusted and terminates the walk (§5.3, one block per chunk) |
//! | [`Scheme::MHash`] | chunks span several cache blocks (§5.3 extended) |
//! | [`Scheme::IHash`] | like `MHash`, but write-backs use the O(1) incremental MAC update (§5.4) |
//!
//! Reads are **speculative** (§5.8): data is returned to the core the
//! moment it arrives from the bus; hashing and parent checks proceed in
//! the background, occupying a read-buffer entry until they complete. The
//! controller exposes the *verification horizon* — the cycle by which all
//! issued checks finish — which crypto-barrier instructions wait for.
//! The `block_on_verify` option disables speculation (an ablation).

use std::collections::BTreeSet;

use miv_cache::{
    Cache, CacheConfig, CacheObserver, CacheStats, Eviction, LineKind, ReplacementPolicy,
};
use miv_hash::engine::HashEngineConfig;
use miv_obs::{EventSink, Histogram, LineClass, Registry, SimEvent, SpanTracer};

use crate::hash_unit::HashEngine;
use crate::observe::HashUnitObserver;
use miv_mem::{BusObserver, BusTiming, MemoryBus, MemoryBusConfig, TrafficClass};

use crate::error::ConfigError;
use crate::layout::{ParentRef, TreeLayout};

/// A simulation timestamp in core clock cycles.
pub type Cycle = u64;

/// The verification scheme the controller runs.
// miv-analyze: exhaustive
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// No memory verification (baseline).
    Base,
    /// Uncached hash tree between L2 and memory.
    Naive,
    /// Cached hash tree, one cache block per chunk.
    CHash,
    /// Cached hash tree, multiple cache blocks per chunk.
    MHash,
    /// Cached incremental-MAC tree, multiple blocks per chunk.
    IHash,
}

impl Scheme {
    /// All schemes in presentation order.
    pub const ALL: [Scheme; 5] = [
        Scheme::Base,
        Scheme::Naive,
        Scheme::CHash,
        Scheme::MHash,
        Scheme::IHash,
    ];

    /// Short label used in tables (matches the paper's names).
    pub fn label(&self) -> &'static str {
        match self {
            Scheme::Base => "base",
            Scheme::Naive => "naive",
            Scheme::CHash => "chash",
            Scheme::MHash => "mhash",
            Scheme::IHash => "ihash",
        }
    }

    /// Whether the scheme verifies memory at all.
    pub fn verifies(&self) -> bool {
        !matches!(self, Scheme::Base)
    }
}

impl std::fmt::Display for Scheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Configuration of the integrity checker.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CheckerConfig {
    /// Verification scheme.
    pub scheme: Scheme,
    /// Size of the protected data segment in bytes (sets the tree depth).
    pub protected_bytes: u64,
    /// Chunk size (the hashing unit); must equal the L2 line size for
    /// `CHash`/`Naive` and be a multiple of it for `MHash`/`IHash`.
    pub chunk_bytes: u32,
    /// Hash-unit latency/throughput (Table 1: 160 cycles, 3.2 GB/s).
    pub hash: HashEngineConfig,
    /// Read- and write-buffer entries (Table 1: 16 each).
    pub buffer_entries: u32,
    /// L2 hit latency in cycles (Table 1: 10).
    pub l2_latency: u64,
    /// Ablation: stall the core until verification completes instead of
    /// returning data speculatively (§5.8 off).
    pub block_on_verify: bool,
    /// §5.3 optimization: whole-line overwrites allocate without fetching
    /// or checking.
    pub write_allocate_no_fetch: bool,
    /// L2 replacement policy (the paper assumes LRU; `ablation_replacement`
    /// sweeps the alternatives).
    pub l2_policy: ReplacementPolicy,
}

impl CheckerConfig {
    /// Table 1 defaults for a given scheme and 64-byte L2 lines:
    /// 256 MB protected segment, 16-entry buffers, 10-cycle L2.
    pub fn hpca03(scheme: Scheme) -> Self {
        CheckerConfig {
            scheme,
            protected_bytes: 256 << 20,
            chunk_bytes: 64,
            hash: HashEngineConfig::default(),
            buffer_entries: 16,
            l2_latency: 10,
            block_on_verify: false,
            write_allocate_no_fetch: true,
            l2_policy: ReplacementPolicy::Lru,
        }
    }
}

/// Checker activity counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckerStats {
    /// Data blocks fetched from memory for demand misses.
    pub data_fetches: u64,
    /// Hash-chunk blocks fetched from memory.
    pub hash_fetches: u64,
    /// Extra data blocks fetched because a chunk spans several lines
    /// (`MHash`/`IHash`) or for unchecked old-value reads (`IHash`
    /// write-back).
    pub extra_data_fetches: u64,
    /// Chunk verifications scheduled on the hash unit.
    pub verifications: u64,
    /// Dirty-line write-backs serviced.
    pub writebacks: u64,
    /// Write allocations that skipped fetch + check (§5.3).
    pub alloc_no_fetch: u64,
    /// Cycles demand fetches waited for a read-buffer entry.
    pub read_buffer_wait: u64,
    /// Cycles write-backs waited for a write-buffer entry.
    pub write_buffer_wait: u64,
    /// Summed service latency of demand misses (request at the L2 to data
    /// available), for average-miss-latency reporting.
    pub miss_latency: u64,
    /// Number of misses timed into [`miss_latency`](Self::miss_latency).
    pub misses_timed: u64,
}

impl CheckerStats {
    /// Accumulates `other` into `self`. Merging is commutative and
    /// associative, so per-segment stats sum to the whole-run totals.
    pub fn merge(&mut self, other: &CheckerStats) {
        self.data_fetches += other.data_fetches;
        self.hash_fetches += other.hash_fetches;
        self.extra_data_fetches += other.extra_data_fetches;
        self.verifications += other.verifications;
        self.writebacks += other.writebacks;
        self.alloc_no_fetch += other.alloc_no_fetch;
        self.read_buffer_wait += other.read_buffer_wait;
        self.write_buffer_wait += other.write_buffer_wait;
        self.miss_latency += other.miss_latency;
        self.misses_timed += other.misses_timed;
    }

    /// The component-wise difference `self - earlier`, for interval
    /// sampling over cumulative counters.
    pub fn delta(&self, earlier: &CheckerStats) -> CheckerStats {
        CheckerStats {
            data_fetches: self.data_fetches - earlier.data_fetches,
            hash_fetches: self.hash_fetches - earlier.hash_fetches,
            extra_data_fetches: self.extra_data_fetches - earlier.extra_data_fetches,
            verifications: self.verifications - earlier.verifications,
            writebacks: self.writebacks - earlier.writebacks,
            alloc_no_fetch: self.alloc_no_fetch - earlier.alloc_no_fetch,
            read_buffer_wait: self.read_buffer_wait - earlier.read_buffer_wait,
            write_buffer_wait: self.write_buffer_wait - earlier.write_buffer_wait,
            miss_latency: self.miss_latency - earlier.miss_latency,
            misses_timed: self.misses_timed - earlier.misses_timed,
        }
    }

    /// Total memory block loads attributable to verification, i.e. loads
    /// beyond the demand data fetches (the Figure 5a numerator).
    pub fn extra_loads(&self) -> u64 {
        self.hash_fetches + self.extra_data_fetches
    }

    /// Average demand-miss service latency in cycles.
    pub fn avg_miss_latency(&self) -> f64 {
        if self.misses_timed == 0 {
            0.0
        } else {
            self.miss_latency as f64 / self.misses_timed as f64
        }
    }
}

/// One event in the checker's optional probe log (for timelines like the
/// paper's Figure 2 datapath walk-through).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckerEvent {
    /// A demand data block was requested from memory.
    DemandFetch {
        /// Physical block address.
        addr: u64,
        /// Cycle the block arrives.
        arrives: Cycle,
    },
    /// A hash-chunk block was requested from memory.
    HashFetch {
        /// Physical block address.
        addr: u64,
        /// Cycle the block arrives.
        arrives: Cycle,
    },
    /// A chunk's digest was scheduled on the hash unit.
    HashScheduled {
        /// Chunk number.
        chunk: u64,
        /// Cycle the digest is ready.
        done: Cycle,
    },
    /// A chunk's verification (hash + parent compare) completed.
    VerifyComplete {
        /// Chunk number.
        chunk: u64,
        /// Completion cycle.
        done: Cycle,
    },
    /// A dirty line's write-back was serviced.
    WriteBack {
        /// Physical block address.
        addr: u64,
        /// Cycle all its effects (data write + hash update) are done.
        done: Cycle,
    },
}

/// One tampering detection recorded by the timing checker: a background
/// verification that covered an adversary-corrupted memory block (or a
/// chunk whose incremental MAC was poisoned by an unchecked old-value
/// read, §5.4) and therefore fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TamperDetection {
    /// Cycle the failing verification completed — when the exception of
    /// §5.8 would be raised.
    pub cycle: Cycle,
    /// Chunk whose check failed.
    pub chunk: u64,
    /// Physical block address implicated.
    pub addr: u64,
}

/// A pool of buffer entries, each held until a completion time.
///
/// `acquire` *reserves* a slot immediately (marking it busy forever until
/// `occupy` sets the real release time), so nested acquisitions — a miss
/// acquiring an entry, then its recursive parent fetch acquiring another
/// before the first is released — see a consistent occupancy count.
#[derive(Debug, Clone)]
struct BufferPool {
    /// Release time per slot; `Cycle::MAX` marks a reserved slot whose
    /// completion is not yet known.
    slots: Vec<Cycle>,
}

/// Token for a reserved buffer slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SlotId(usize);

/// Core-latency decomposition of one serviced miss, handed back by the
/// per-scheme miss paths so [`L2Controller::access`] can attribute every
/// cycle of `ready - now` to exactly one leaf span (the conservation
/// invariant asserted by `miv-sim`'s profiler tests).
#[derive(Debug, Clone, Copy)]
struct MissShape {
    /// Whether this miss ran the verification machinery (classifies the
    /// access as a verified miss rather than a clean one).
    verified: bool,
    /// Bus timing of the demand-block fetch; `None` when the miss needed
    /// no memory read (write-allocate-no-fetch).
    demand: Option<BusTiming>,
    /// Cycle the full chunk image had arrived (equals the demand
    /// completion when no sibling blocks were gathered).
    chunk_arrival: Cycle,
    /// Cycle the demand data was accepted into the read buffer and
    /// returned to the core (speculative return point).
    data_ready: Cycle,
}

impl MissShape {
    /// A miss serviced entirely inside the L2 (no memory traffic).
    fn local(verified: bool, t0: Cycle) -> Self {
        MissShape {
            verified,
            demand: None,
            chunk_arrival: t0,
            data_ready: t0,
        }
    }
}

impl BufferPool {
    fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "buffer needs at least one entry");
        BufferPool {
            slots: vec![0; capacity],
        }
    }

    /// Reserves the earliest-free slot for a request arriving at `now`;
    /// returns the cycle the slot is usable and its token. Pair with
    /// [`occupy`](Self::occupy).
    fn acquire(&mut self, now: Cycle) -> (Cycle, SlotId) {
        let (idx, release) = self
            .slots
            .iter()
            .copied()
            .enumerate()
            .min_by_key(|(_, r)| *r)
            .expect("capacity >= 1");
        assert_ne!(
            release,
            Cycle::MAX,
            "all buffer entries reserved by in-flight operations"
        );
        self.slots[idx] = Cycle::MAX;
        (now.max(release), SlotId(idx))
    }

    /// Books the reserved slot until `until`.
    fn occupy(&mut self, slot: SlotId, until: Cycle) {
        debug_assert_eq!(self.slots[slot.0], Cycle::MAX, "slot not reserved");
        self.slots[slot.0] = until;
    }
}

/// The unified L2 plus integrated hash-tree machinery.
///
/// # Examples
///
/// ```
/// use miv_cache::CacheConfig;
/// use miv_core::timing::{CheckerConfig, L2Controller, Scheme};
/// use miv_mem::MemoryBusConfig;
///
/// let mut ctl = L2Controller::new(
///     CheckerConfig::hpca03(Scheme::CHash),
///     CacheConfig::l2(1 << 20, 64),
///     MemoryBusConfig::default(),
/// );
/// // A cold read misses, fetches the block and starts verifying.
/// let ready = ctl.access(0, 0x4000, false, false);
/// assert!(ready > 0);
/// assert!(ctl.verification_horizon() >= ready);
/// ```
#[derive(Debug)]
pub struct L2Controller {
    config: CheckerConfig,
    layout: Option<TreeLayout>,
    l2: Cache,
    bus: MemoryBus,
    engine: HashEngine,
    read_buf: BufferPool,
    write_buf: BufferPool,
    verify_horizon: Cycle,
    stats: CheckerStats,
    /// Dirty evictions awaiting write-back, processed iteratively (a
    /// write-back's fills may evict further dirty lines; queueing instead
    /// of recursing bounds the stack while the depth-potential argument
    /// bounds the queue).
    pending: Vec<(Cycle, Eviction)>,
    /// Optional event log (enabled by [`enable_probe`](Self::enable_probe)).
    probe: Option<Vec<CheckerEvent>>,
    /// Adversary-corrupted memory blocks not yet overwritten by a
    /// write-back (the timing model carries no bytes, so tampering is
    /// tracked as taint; membership-only use keeps runs deterministic).
    tainted: BTreeSet<u64>,
    /// Chunks whose incremental MAC was updated from a tainted old value
    /// (the §5.4 unchecked read): every later full check of them fails.
    mac_inconsistent: BTreeSet<u64>,
    /// Tamper detections recorded so far, in recording order.
    detections: Vec<TamperDetection>,
    /// Telemetry: uncached tree levels walked per demand-miss check.
    walk_depth: Histogram,
    /// Telemetry: typed event stream (misses, walks, write-backs).
    events: EventSink,
    /// Telemetry: per-access-class service-latency histograms
    /// (`checker.latency.{hit,clean_miss,verified_miss,flush}`).
    lat_hit: Histogram,
    lat_clean_miss: Histogram,
    lat_verified_miss: Histogram,
    lat_flush: Histogram,
    /// Cycle-attribution tracer (disabled unless a profiler attaches).
    spans: SpanTracer,
    /// Core-visible cycles serviced so far: Σ `ready - now` per access
    /// plus Σ `done - now` per quiesce. The span profiler attributes
    /// exactly these cycles under its access-class roots.
    profiled_cycles: Cycle,
}

impl L2Controller {
    /// Builds a controller.
    ///
    /// # Panics
    ///
    /// Panics if the chunk geometry is inconsistent with the scheme or
    /// the L2 line size. Fallible callers (anything validating a
    /// user-supplied spec) use [`try_new`](Self::try_new) instead.
    pub fn new(config: CheckerConfig, l2: CacheConfig, bus: MemoryBusConfig) -> Self {
        Self::try_new(config, l2, bus).expect("documented invariant")
    }

    /// The fallible form of [`new`](Self::new): returns a
    /// [`ConfigError`] instead of panicking when the chunk geometry is
    /// inconsistent with the scheme or the L2 line size. This is the
    /// construction path for user-supplied specs (`mivsim serve` shard
    /// specs, `mivsim profile` geometry).
    pub fn try_new(
        config: CheckerConfig,
        l2: CacheConfig,
        bus: MemoryBusConfig,
    ) -> Result<Self, ConfigError> {
        let layout = if config.scheme.verifies() {
            let line = l2.line_bytes;
            match config.scheme {
                Scheme::Naive | Scheme::CHash => {
                    if config.chunk_bytes != line {
                        return Err(ConfigError::ChunkLineMismatch {
                            scheme: config.scheme,
                            chunk_bytes: config.chunk_bytes,
                            line_bytes: line,
                        });
                    }
                }
                Scheme::MHash | Scheme::IHash => {
                    if config.chunk_bytes <= line || !config.chunk_bytes.is_multiple_of(line) {
                        return Err(ConfigError::SingleBlockChunk {
                            scheme: config.scheme,
                            chunk_bytes: config.chunk_bytes,
                            line_bytes: line,
                        });
                    }
                }
                Scheme::Base => unreachable!("Base never verifies"),
            }
            Some(TreeLayout::try_new(
                config.protected_bytes,
                config.chunk_bytes,
                line,
            )?)
        } else {
            None
        };
        Ok(L2Controller {
            l2: Cache::with_policy(l2, config.l2_policy),
            bus: MemoryBus::new(bus),
            engine: HashEngine::new(config.hash),
            read_buf: BufferPool::new(config.buffer_entries as usize),
            write_buf: BufferPool::new(config.buffer_entries as usize),
            verify_horizon: 0,
            stats: CheckerStats::default(),
            pending: Vec::new(),
            probe: None,
            tainted: BTreeSet::new(),
            mac_inconsistent: BTreeSet::new(),
            detections: Vec::new(),
            walk_depth: Histogram::disabled(),
            events: EventSink::disabled(),
            lat_hit: Histogram::disabled(),
            lat_clean_miss: Histogram::disabled(),
            lat_verified_miss: Histogram::disabled(),
            lat_flush: Histogram::disabled(),
            spans: SpanTracer::disabled(),
            profiled_cycles: 0,
            config,
            layout,
        })
    }

    /// Attaches telemetry to every component the controller owns: L2
    /// counters under `l2.*`, bus counters under `bus.*`, hash-unit
    /// metrics under `hash_unit.*`, a `checker.walk_depth` histogram, and
    /// typed events (L2 misses, tree walks, hash-queue activity,
    /// write-backs) into `events`.
    pub fn attach_observability(&mut self, registry: &Registry, events: EventSink) {
        self.l2
            .set_observer(CacheObserver::for_registry(registry, "l2"));
        self.bus
            .set_observer(BusObserver::for_registry(registry, "bus"));
        self.engine.set_observer(HashUnitObserver::for_registry(
            registry,
            "hash_unit",
            events.clone(),
        ));
        self.walk_depth = registry.histogram("checker.walk_depth");
        self.lat_hit = registry.histogram("checker.latency.hit");
        self.lat_clean_miss = registry.histogram("checker.latency.clean_miss");
        self.lat_verified_miss = registry.histogram("checker.latency.verified_miss");
        self.lat_flush = registry.histogram("checker.latency.flush");
        self.events = events;
    }

    /// Attaches a cycle-attribution tracer. Every serviced access then
    /// attributes its full core-visible latency to leaf spans under an
    /// access-class root (`hit` / `clean_miss` / `verified_miss` /
    /// `flush`), and resource occupancy (hash-unit busy windows, bus
    /// transfers) is booked under `background;*` — those windows overlap
    /// the accesses they serve, so they form a separate accounting
    /// domain cross-checked against [`HashUnitStats::busy_cycles`] and
    /// [`bus_busy_through`](Self::bus_busy_through).
    ///
    /// [`HashUnitStats::busy_cycles`]: crate::hash_unit::HashUnitStats::busy_cycles
    pub fn attach_spans(&mut self, spans: &SpanTracer) {
        self.spans = spans.clone();
    }

    /// Core-visible cycles serviced so far: the sum over every
    /// [`access`](Self::access) of `ready - now`, plus every
    /// [`quiesce`](Self::quiesce)'s `done - now`. An attached span
    /// tracer attributes exactly these cycles under its access-class
    /// roots (the profiler's conservation invariant). Cumulative for the
    /// controller's lifetime — deliberately *not* cleared by
    /// [`reset_stats`](Self::reset_stats), matching the tracer, which is
    /// never reset either.
    pub fn total_cycles(&self) -> Cycle {
        self.profiled_cycles
    }

    /// Starts recording [`CheckerEvent`]s (clears any previous log).
    ///
    /// Intended for walk-throughs and tests; the log grows with every
    /// event, so keep probed runs short.
    pub fn enable_probe(&mut self) {
        self.probe = Some(Vec::new());
    }

    /// Stops recording and returns the captured events.
    pub fn take_probe(&mut self) -> Vec<CheckerEvent> {
        self.probe.take().unwrap_or_default()
    }

    fn emit(&mut self, event: CheckerEvent) {
        if let Some(log) = &mut self.probe {
            log.push(event);
        }
    }

    /// The tree layout (`None` for [`Scheme::Base`]).
    pub fn layout(&self) -> Option<&TreeLayout> {
        self.layout.as_ref()
    }

    /// The checker configuration.
    pub fn config(&self) -> &CheckerConfig {
        &self.config
    }

    /// L2 cache statistics (data/hash split).
    pub fn l2_stats(&self) -> &CacheStats {
        self.l2.stats()
    }

    /// The L2 geometry.
    pub fn l2_config(&self) -> &CacheConfig {
        self.l2.config()
    }

    /// L2 occupancy `(data lines, hash lines)`.
    pub fn l2_occupancy(&self) -> (u64, u64) {
        self.l2.occupancy()
    }

    /// Memory-bus statistics.
    pub fn bus_stats(&self) -> &miv_mem::BusStats {
        self.bus.stats()
    }

    /// Bus-busy cycles that have elapsed by cycle `t` (a transfer
    /// straddling `t` counts only up to `t`). Deltas between successive
    /// queries never exceed the wall-clock cycles between them, giving
    /// exact per-interval bus utilization.
    pub fn bus_busy_through(&self, t: Cycle) -> u64 {
        self.bus.busy_cycles_through(t)
    }

    /// Hash-unit statistics.
    pub fn engine_stats(&self) -> crate::hash_unit::HashUnitStats {
        self.engine.stats()
    }

    /// Checker activity counters.
    pub fn stats(&self) -> CheckerStats {
        self.stats
    }

    /// The cycle by which every verification issued so far completes.
    pub fn verification_horizon(&self) -> Cycle {
        self.verify_horizon
    }

    /// Marks `len` bytes of untrusted memory at physical address `phys`
    /// as adversary-corrupted — the injection hook between the checker
    /// and memory. Every block overlapping the range carries taint until
    /// the checker itself overwrites it; a verification that covers a
    /// tainted block records a [`TamperDetection`] (and an
    /// `integrity_violation` event) at its completion cycle.
    ///
    /// [`Scheme::Base`] never verifies, so it never detects.
    pub fn inject_tamper(&mut self, phys: u64, len: u64) {
        let line = self.line_bytes();
        let first = phys & !(line - 1);
        let last = (phys + len.max(1) - 1) & !(line - 1);
        let mut b = first;
        loop {
            self.tainted.insert(b);
            if b == last {
                break;
            }
            b += line;
        }
    }

    /// Tamper detections recorded so far, in recording order.
    pub fn tamper_detections(&self) -> &[TamperDetection] {
        &self.detections
    }

    /// The detection with the earliest completion cycle, if any.
    pub fn first_detection(&self) -> Option<TamperDetection> {
        self.detections.iter().copied().min_by_key(|d| d.cycle)
    }

    /// Writes every dirty L2 line back through the scheme's verified
    /// write-back path and drops the whole cache — the timing-side
    /// counterpart of [`VerifiedMemory::clear_cache`] (a context switch
    /// or cache-flush instruction). Returns the cycle by which the flush
    /// traffic has been issued and verified.
    ///
    /// Clean tainted lines are simply dropped: the corruption stays in
    /// memory and is caught (and timed) by the next fetch. Dirty lines
    /// go through the normal write-back machinery first, which checks
    /// old content *before* overwriting it, so taint under a dirty line
    /// is detected rather than silently healed.
    ///
    /// [`VerifiedMemory::clear_cache`]: crate::engine::VerifiedMemory::clear_cache
    pub fn quiesce(&mut self, now: Cycle) -> Cycle {
        for ev in self.l2.flush() {
            if ev.dirty {
                self.pending.push((now, ev));
            }
        }
        self.drain_writebacks();
        let done = self.verify_horizon.max(now);
        self.profiled_cycles += done - now;
        self.lat_flush.record(done - now);
        if self.spans.is_enabled() {
            let _root = self.spans.span("flush");
            let _leaf = self.spans.span("verify_drain");
            self.spans.attribute(done - now);
        }
        done
    }

    /// Clears all statistics for warm-up/measurement separation. Cache
    /// contents, buffer reservations, and the bus/hash-unit pipelines are
    /// all preserved: background traffic booked before the reset still
    /// contends with later requests, so a run split around a
    /// `reset_stats` times identically to an uninterrupted one — only the
    /// counters restart.
    pub fn reset_stats(&mut self) {
        self.l2.reset_stats();
        self.bus.reset_stats();
        self.engine.reset_stats();
        self.stats = CheckerStats::default();
    }

    /// Services an L1 miss for program-data address `addr` at `now`.
    ///
    /// Returns the cycle the data is available to the core (speculative:
    /// verification may still be in flight — see
    /// [`verification_horizon`](Self::verification_horizon)).
    ///
    /// # Panics
    ///
    /// Panics if `addr` lies outside the protected segment.
    pub fn access(&mut self, now: Cycle, addr: u64, write: bool, full_line: bool) -> Cycle {
        let phys = self.phys_addr(addr);
        let t0 = now + self.config.l2_latency;
        // Let the arbiters prune intervals that ended before `now`. This
        // is not a safe bound: the core does not issue accesses in time
        // order. A dependent load issues at its producer's completion
        // time and an L1 victim write-back at the fill's ready time, so
        // a later access can carry an earlier `now` and find a pruned
        // interval's slot free. The prune cadence is therefore part of
        // the model (see `IntervalSchedule::advance_low_water`).
        self.bus.advance_low_water(now);
        self.engine.advance_low_water(now);
        if self.l2.lookup(phys, LineKind::Data, write).is_hit() {
            self.profiled_cycles += t0 - now;
            self.lat_hit.record(t0 - now);
            if self.spans.is_enabled() {
                let _root = self.spans.span("hit");
                let _leaf = self.spans.span("l2_lookup");
                self.spans.attribute(t0 - now);
            }
            return t0;
        }
        self.events.record(
            now,
            SimEvent::L2Miss {
                class: LineClass::Data,
                write,
                addr: phys,
            },
        );
        let (ready, shape) = match self.config.scheme {
            Scheme::Base => self.miss_base(t0, phys, write, full_line),
            Scheme::Naive => self.miss_naive(t0, phys, write, full_line),
            Scheme::CHash | Scheme::MHash | Scheme::IHash => {
                self.miss_cached_tree(t0, phys, write, full_line)
            }
        };
        self.stats.miss_latency += ready - now;
        self.stats.misses_timed += 1;
        self.profile_miss(now, t0, ready, &shape);
        self.drain_writebacks();
        ready
    }

    /// Records a miss's service latency into its class histogram and —
    /// when a tracer is attached — attributes every cycle of
    /// `ready - now` to exactly one leaf span. The decomposition
    /// telescopes: L2 lookup, then (when a demand fetch went to memory)
    /// DRAM access, bus queueing and the transfer itself, then sibling
    /// gathering for multi-block chunks, the read-buffer wait, and
    /// finally the verify stall (nonzero only under `block_on_verify`).
    fn profile_miss(&mut self, now: Cycle, t0: Cycle, ready: Cycle, shape: &MissShape) {
        let total = ready - now;
        self.profiled_cycles += total;
        if shape.verified {
            self.lat_verified_miss.record(total);
        } else {
            self.lat_clean_miss.record(total);
        }
        if !self.spans.is_enabled() {
            return;
        }
        let _root = self.spans.span(if shape.verified {
            "verified_miss"
        } else {
            "clean_miss"
        });
        {
            let _leaf = self.spans.span("l2_lookup");
            self.spans.attribute(t0 - now);
        }
        if let Some(demand) = &shape.demand {
            let _fetch = self.spans.span("demand_fetch");
            let dram_ready = t0 + self.bus.config().dram_latency;
            {
                let _leaf = self.spans.span("dram");
                self.spans.attribute(dram_ready - t0);
            }
            {
                let _leaf = self.spans.span("bus_queue");
                self.spans.attribute(demand.start - dram_ready);
            }
            {
                let _leaf = self.spans.span("bus_transfer");
                self.spans.attribute(demand.complete - demand.start);
            }
            {
                let _leaf = self.spans.span("chunk_gather");
                self.spans.attribute(shape.chunk_arrival - demand.complete);
            }
        }
        {
            let _leaf = self.spans.span("read_buffer_wait");
            self.spans.attribute(shape.data_ready - shape.chunk_arrival);
        }
        if ready > shape.data_ready {
            let _leaf = self.spans.span("verify_stall");
            self.spans.attribute(ready - shape.data_ready);
        }
    }

    /// Processes queued dirty evictions until none remain. Write-backs may
    /// fill parent lines and evict further dirty lines; each iteration
    /// strictly decreases the summed tree depth of dirty lines, so the
    /// queue drains.
    fn drain_writebacks(&mut self) {
        while let Some((t, ev)) = self.pending.pop() {
            self.stats.writebacks += 1;
            self.events.record(
                t,
                SimEvent::WriteBack {
                    class: line_class(ev.kind),
                    addr: ev.addr,
                },
            );
            match self.config.scheme {
                Scheme::Base => {
                    self.bus_write(t, class_for(ev.kind, false));
                    self.clear_taint(ev.addr);
                }
                Scheme::Naive => self.writeback_naive(t, ev.addr),
                Scheme::CHash | Scheme::MHash | Scheme::IHash => self.writeback_cached_tree(t, ev),
            }
        }
    }

    /// Maps a data address into the physical (hash + data) segment.
    fn phys_addr(&self, addr: u64) -> u64 {
        match &self.layout {
            Some(layout) => layout.data_phys_addr(addr),
            None => addr,
        }
    }

    // ------------------------------------------------------------------
    // Base scheme
    // ------------------------------------------------------------------

    fn miss_base(
        &mut self,
        t0: Cycle,
        phys: u64,
        write: bool,
        full_line: bool,
    ) -> (Cycle, MissShape) {
        if write && full_line && self.config.write_allocate_no_fetch {
            self.stats.alloc_no_fetch += 1;
            self.fill_and_handle_eviction(t0, phys, LineKind::Data, true);
            return (t0, MissShape::local(false, t0));
        }
        self.stats.data_fetches += 1;
        let timing = self.bus_read(t0, TrafficClass::DataRead);
        self.fill_and_handle_eviction(timing.complete, phys, LineKind::Data, write);
        (
            timing.complete,
            MissShape {
                verified: false,
                demand: Some(timing),
                chunk_arrival: timing.complete,
                data_ready: timing.complete,
            },
        )
    }

    // ------------------------------------------------------------------
    // Naive scheme: full path walked in memory on every miss
    // ------------------------------------------------------------------

    fn miss_naive(
        &mut self,
        t0: Cycle,
        phys: u64,
        write: bool,
        full_line: bool,
    ) -> (Cycle, MissShape) {
        let layout = *self.layout.as_ref().expect("naive has a layout");
        let chunk = layout.chunk_of_addr(phys);
        if write && full_line && self.config.write_allocate_no_fetch {
            // The whole chunk (== block here) is overwritten: no fetch, no
            // check (§5.3). The write-back will update the tree.
            self.stats.alloc_no_fetch += 1;
            self.fill_and_handle_eviction(t0, phys, LineKind::Data, true);
            return (t0, MissShape::local(false, t0));
        }

        // Demand block: the memory read is issued immediately; the hash
        // read buffer holds the block once it *arrives*, so a full buffer
        // delays acceptance of the data (§6.4: "checking the integrity of
        // data hurts memory latency only when read/write buffers are
        // full"), not the issue of the request.
        self.stats.data_fetches += 1;
        let data = self.bus_read(t0, TrafficClass::DataRead);
        self.emit(CheckerEvent::DemandFetch {
            addr: phys,
            arrives: data.complete,
        });
        let (vstart, slot) = self.acquire_read_buf(data.complete);

        // Hash path: every ancestor chunk is loaded from memory and the
        // whole chain hashed — log_m(N) extra reads per miss.
        self.events.record(vstart, SimEvent::WalkStart { chunk });
        let mut depth = 0u32;
        let mut level_arrival = vstart;
        let mut verify_done = self.schedule_chunk_hash(vstart, layout.chunk_bytes(), "verify");
        self.stats.verifications += 1;
        let mut covered = vec![self.block_addr(phys)];
        for ancestor in layout.path_to_root(chunk) {
            depth += 1;
            self.stats.hash_fetches += self.blocks_per_chunk();
            let mut chunk_arrival = level_arrival;
            for j in 0..self.blocks_per_chunk() {
                covered.push(layout.chunk_addr(ancestor) + j * self.line_bytes());
                let t = self.bus_read(t0, TrafficClass::HashRead);
                chunk_arrival = chunk_arrival.max(t.complete);
            }
            self.stats.verifications += 1;
            let h = self.schedule_chunk_hash(chunk_arrival, layout.chunk_bytes(), "verify");
            verify_done = verify_done.max(h);
            level_arrival = chunk_arrival;
        }
        self.walk_depth.record(depth as u64);
        self.events.record(
            verify_done,
            SimEvent::WalkEnd {
                chunk,
                depth,
                reached_root: true,
            },
        );
        // The naive walk re-reads the demand block and every ancestor
        // from memory, so corruption anywhere on the path fails here.
        self.verify_tamper(verify_done, chunk, &covered);
        self.read_buf.occupy(slot, verify_done);
        self.note_verification(verify_done);

        let data_ready = data.complete.max(vstart);
        self.fill_and_handle_eviction(data_ready, phys, LineKind::Data, write);
        let shape = MissShape {
            verified: true,
            demand: Some(data),
            chunk_arrival: data.complete,
            data_ready,
        };
        if self.config.block_on_verify {
            (verify_done, shape)
        } else {
            (data_ready, shape)
        }
    }

    /// Naive write-back: read-modify-write every ancestor chunk.
    fn writeback_naive(&mut self, t: Cycle, phys: u64) {
        let layout = *self.layout.as_ref().expect("naive has a layout");
        let chunk = layout.chunk_of_addr(phys);
        let (start, slot) = self.acquire_write_buf(t);
        // New hash of the written chunk.
        let mut prev_hash_done = self.schedule_chunk_hash(start, layout.chunk_bytes(), "writeback");
        let data_written = self.bus_write(start, TrafficClass::DataWrite);
        let block = self.block_addr(phys);
        self.clear_taint(block);
        let mut done = data_written.complete.max(prev_hash_done);
        for ancestor in layout.path_to_root(chunk) {
            // Fetch the ancestor, splice in the child's new hash, verify
            // the old content, write it back.
            self.stats.hash_fetches += self.blocks_per_chunk();
            let mut arrival = start;
            let mut blocks = Vec::new();
            for j in 0..self.blocks_per_chunk() {
                blocks.push(layout.chunk_addr(ancestor) + j * self.line_bytes());
                let t = self.bus_read(start, TrafficClass::HashRead);
                arrival = arrival.max(t.complete);
            }
            self.stats.verifications += 1;
            let verified = self.schedule_chunk_hash(arrival, layout.chunk_bytes(), "verify");
            // The old ancestor content is checked before the rewrite, so
            // taint on it is detected *before* the write-back heals it.
            self.verify_tamper(verified, ancestor, &blocks);
            for &b in &blocks {
                self.clear_taint(b);
            }
            let rehash = self.schedule_chunk_hash(
                verified.max(prev_hash_done),
                layout.chunk_bytes(),
                "writeback",
            );
            let wb = self.bus_write(rehash, TrafficClass::HashWrite);
            prev_hash_done = rehash;
            done = done.max(wb.complete).max(rehash);
        }
        self.write_buf.occupy(slot, done);
        self.note_verification(done);
    }

    // ------------------------------------------------------------------
    // Cached-tree schemes (chash / mhash / ihash)
    // ------------------------------------------------------------------

    fn miss_cached_tree(
        &mut self,
        t0: Cycle,
        phys: u64,
        write: bool,
        full_line: bool,
    ) -> (Cycle, MissShape) {
        let layout = *self.layout.as_ref().expect("scheme has a layout");
        if write
            && full_line
            && self.config.write_allocate_no_fetch
            && layout.blocks_per_chunk() == 1
        {
            // Whole-chunk overwrite: allocate dirty, no fetch, no check.
            self.stats.alloc_no_fetch += 1;
            self.fill_and_handle_eviction(t0, phys, LineKind::Data, true);
            return (t0, MissShape::local(false, t0));
        }
        let chunk = layout.chunk_of_addr(phys);
        let block = self.block_addr(phys);

        if write && full_line && self.config.write_allocate_no_fetch {
            // Multi-block chunk: the target block is fully overwritten, so
            // it allocates dirty without a fetch; the chunk check happens
            // at write-back when the full image is assembled.
            self.stats.alloc_no_fetch += 1;
            self.fill_and_handle_eviction(t0, phys, LineKind::Data, true);
            return (t0, MissShape::local(false, t0));
        }

        // ReadAndCheckChunk: fetch the demand block plus any chunk blocks
        // not resident (clean blocks can be served from the cache; dirty
        // blocks must be re-read from memory for the check). Memory reads
        // issue immediately; the read buffer holds the chunk from arrival
        // until its hash completes, so a full buffer delays acceptance of
        // the arriving data, not the issue of the request.
        let mut demand_arrival = t0;
        let mut demand_timing = None;
        let mut chunk_arrival = t0;
        let mut gathered = Vec::new();
        for j in 0..layout.blocks_per_chunk() {
            let b = layout.chunk_addr(chunk) + j as u64 * self.line_bytes();
            let resident_clean = self.l2.dirty(b) == Some(false);
            if b == block || !resident_clean {
                gathered.push(b);
                let class = if b == block {
                    self.stats.data_fetches += 1;
                    TrafficClass::DataRead
                } else {
                    self.stats.extra_data_fetches += 1;
                    TrafficClass::DataRead
                };
                let t = self.bus_read(t0, class);
                if b == block {
                    demand_arrival = t.complete;
                    demand_timing = Some(t);
                    self.emit(CheckerEvent::DemandFetch {
                        addr: b,
                        arrives: t.complete,
                    });
                }
                chunk_arrival = chunk_arrival.max(t.complete);
            }
        }
        let (vstart, slot) = self.acquire_read_buf(chunk_arrival);
        let data_ready = demand_arrival.max(vstart);

        // Fill the demand block (dirty if write) and the chunk's other
        // absent blocks (clean).
        self.fill_and_handle_eviction(data_ready, block, LineKind::Data, write);
        for j in 0..layout.blocks_per_chunk() {
            let b = layout.chunk_addr(chunk) + j as u64 * self.line_bytes();
            if b != block && !self.l2.contains(b) {
                self.fill_and_handle_eviction(vstart.max(chunk_arrival), b, LineKind::Data, false);
            }
        }

        // Background verification: hash the chunk and compare against the
        // (cached or fetched) parent slot. The buffer entry holds the
        // block while it is hashed; the parent fetch acquires its own
        // entries, so the slot is released at hash completion.
        self.stats.verifications += 1;
        let hash_done = self.schedule_chunk_hash(vstart, layout.chunk_bytes(), "verify");
        self.emit(CheckerEvent::HashScheduled {
            chunk,
            done: hash_done,
        });
        self.read_buf.occupy(slot, hash_done);
        self.events.record(vstart, SimEvent::WalkStart { chunk });
        let (parent_at, depth, reached_root) = self.fetch_slot(vstart, chunk, false);
        let verify_done = hash_done.max(parent_at);
        self.walk_depth.record(depth as u64);
        self.events.record(
            verify_done,
            SimEvent::WalkEnd {
                chunk,
                depth,
                reached_root,
            },
        );
        self.emit(CheckerEvent::VerifyComplete {
            chunk,
            done: verify_done,
        });
        // Only the blocks actually read from memory can expose taint;
        // resident-clean blocks are served from the (trusted) cache and
        // their corrupted memory copies wait for a later refetch.
        self.verify_tamper(verify_done, chunk, &gathered);
        self.note_verification(verify_done);

        let shape = MissShape {
            verified: true,
            demand: demand_timing,
            chunk_arrival,
            data_ready,
        };
        if self.config.block_on_verify {
            (verify_done, shape)
        } else {
            (data_ready, shape)
        }
    }

    /// Makes chunk `chunk`'s slot available, returning `(ready, depth,
    /// reached_root)`: the cycle it can be compared (a root register read,
    /// an L2 hash-line hit, or a recursive fetch of the parent chunk,
    /// which verifies in the background), the number of uncached tree
    /// levels the walk fetched, and whether it climbed to the secure root.
    ///
    /// With `for_update` the slot line is dirtied (a write-back storing a
    /// new hash).
    fn fetch_slot(&mut self, t: Cycle, chunk: u64, for_update: bool) -> (Cycle, u32, bool) {
        let layout = *self.layout.as_ref().expect("scheme has a layout");
        match layout.parent(chunk) {
            ParentRef::Secure { .. } => (t, 0, true), // root register: immediate
            ParentRef::Chunk {
                chunk: parent,
                index,
            } => {
                let slot_byte = layout.chunk_addr(parent) + layout.slot_offset(index) as u64;
                let slot_block = self.block_addr(slot_byte);
                if self
                    .l2
                    .lookup(slot_block, LineKind::Hash, for_update)
                    .is_hit()
                {
                    return (t + self.config.l2_latency, 0, false);
                }
                // Miss: fetch the parent chunk's blocks from memory, fill
                // them as hash lines, verify the parent in the background.
                let mut arrival = t;
                let mut slot_arrival = t;
                let mut gathered = Vec::new();
                for j in 0..layout.blocks_per_chunk() {
                    let b = layout.chunk_addr(parent) + j as u64 * self.line_bytes();
                    let resident_clean = self.l2.dirty(b) == Some(false);
                    if b == slot_block || !resident_clean {
                        gathered.push(b);
                        self.stats.hash_fetches += 1;
                        let bt = self.bus_read(t, TrafficClass::HashRead);
                        self.emit(CheckerEvent::HashFetch {
                            addr: b,
                            arrives: bt.complete,
                        });
                        if b == slot_block {
                            slot_arrival = bt.complete;
                        }
                        arrival = arrival.max(bt.complete);
                    }
                }
                let (vstart, slot) = self.acquire_read_buf(arrival);
                let slot_ready = slot_arrival.max(vstart);
                self.fill_and_handle_eviction(slot_ready, slot_block, LineKind::Hash, for_update);
                for j in 0..layout.blocks_per_chunk() {
                    let b = layout.chunk_addr(parent) + j as u64 * self.line_bytes();
                    if b != slot_block && !self.l2.contains(b) {
                        self.fill_and_handle_eviction(vstart, b, LineKind::Hash, false);
                    }
                }
                // Verify the parent chunk itself (recursing toward the
                // root until a cached node or the root register is found).
                self.stats.verifications += 1;
                let hash_done = self.schedule_chunk_hash(vstart, layout.chunk_bytes(), "verify");
                self.emit(CheckerEvent::HashScheduled {
                    chunk: parent,
                    done: hash_done,
                });
                self.read_buf.occupy(slot, hash_done);
                let (grand, depth, reached_root) = self.fetch_slot(vstart, parent, false);
                let verify_done = hash_done.max(grand);
                self.emit(CheckerEvent::VerifyComplete {
                    chunk: parent,
                    done: verify_done,
                });
                // Corrupted hash-chunk blocks (metadata attacks) fail the
                // parent's own verification here.
                self.verify_tamper(verify_done, parent, &gathered);
                self.note_verification(verify_done);
                (slot_ready, depth + 1, reached_root)
            }
        }
    }

    /// Write-back for the cached-tree schemes.
    fn writeback_cached_tree(&mut self, t: Cycle, ev: Eviction) {
        let layout = *self.layout.as_ref().expect("scheme has a layout");
        let chunk = layout.chunk_of_addr(ev.addr);
        let (start, slot) = self.acquire_write_buf(t);

        if self.config.scheme == Scheme::IHash {
            // §5.4: read the parent MAC (checked), read the old block
            // value (unchecked), two PRF computations + PRP update, write
            // the block, store the new MAC.
            let (slot_at, _, _) = self.fetch_slot(start, chunk, true);
            self.stats.extra_data_fetches += 1;
            let old = self.bus_read(start, class_for(ev.kind, true));
            // The old-value read is *unchecked* (the scheme's whole
            // advantage): a tainted old value silently poisons the
            // incremental MAC update, so the corruption migrates from the
            // block to the chunk's MAC and every later full check fails.
            if self.tainted.remove(&ev.addr) {
                self.mac_inconsistent.insert(chunk);
            }
            // h(old) and h(new): two independent block-sized hashes,
            // issued as one multi-lane batch (timing-identical to a fused
            // 2-block hash; accounted as two ops).
            let upd = self.schedule_hash_batch(
                old.complete.max(slot_at),
                &[self.line_bytes(), self.line_bytes()],
                "mac_update",
            );
            let wb = self.bus_write(upd, class_for(ev.kind, false));
            let done = wb.complete.max(upd);
            self.write_buf.occupy(slot, done);
            self.emit(CheckerEvent::WriteBack {
                addr: ev.addr,
                done,
            });
            self.note_verification(done);
            return;
        }

        // chash / mhash: assemble the chunk (fetch + check any blocks not
        // resident), write the dirty blocks, hash the new image, store it
        // in the parent through a normal Write.
        let mut arrival = start;
        let mut fetched = 0u64;
        let mut gathered = Vec::new();
        for j in 0..layout.blocks_per_chunk() {
            let b = layout.chunk_addr(chunk) + j as u64 * self.line_bytes();
            if b != ev.addr && !self.l2.contains(b) {
                self.stats.extra_data_fetches += 1;
                fetched += 1;
                gathered.push(b);
                let bt = self.bus_read(start, class_for(ev.kind, true));
                arrival = arrival.max(bt.complete);
            }
        }
        if fetched > 0 {
            // The gathered old image must itself be verified (§5.3).
            self.stats.verifications += 1;
            let h = self.schedule_chunk_hash(arrival, layout.chunk_bytes(), "verify");
            let (p, _, _) = self.fetch_slot(arrival, chunk, false);
            let checked = h.max(p);
            self.verify_tamper(checked, chunk, &gathered);
            self.note_verification(checked);
        }
        // Gathered blocks are sealed into the new chunk hash as read, and
        // the evicted block overwrites its memory copy: any remaining
        // taint on either is no longer observable through this chunk.
        for &b in &gathered {
            self.clear_taint(b);
        }
        self.clear_taint(ev.addr);

        // Write the evicted (dirty) block; sibling dirty blocks stay
        // cached and are written on their own evictions — the hardware
        // marks them clean, but the timing effect of grouping is minor and
        // per-block write-back keeps the cache model simple.
        let hash_done = self.schedule_chunk_hash(arrival, layout.chunk_bytes(), "writeback");
        let wb = self.bus_write(arrival, class_for(ev.kind, false));
        self.write_buf.occupy(slot, wb.complete.max(hash_done));
        let (slot_at, _, _) = self.fetch_slot(hash_done, chunk, true);
        let done = wb.complete.max(hash_done).max(slot_at);
        self.emit(CheckerEvent::WriteBack {
            addr: ev.addr,
            done,
        });
        self.note_verification(done);
    }

    // ------------------------------------------------------------------
    // Shared plumbing
    // ------------------------------------------------------------------

    /// Fills a line; a dirty eviction is queued for write-back (drained
    /// iteratively by [`drain_writebacks`](Self::drain_writebacks)).
    fn fill_and_handle_eviction(&mut self, t: Cycle, addr: u64, kind: LineKind, dirty: bool) {
        if self.l2.contains(addr) {
            // Concurrent background activity already brought it in.
            if dirty {
                self.l2.mark_dirty(addr);
            }
            return;
        }
        if let Some(ev) = self.l2.fill(addr, kind, dirty) {
            if ev.dirty {
                self.pending.push((t, ev));
            }
        }
    }

    /// Issues a line-sized bus read, booking its bus occupancy
    /// (`complete - start`) under the `background;bus;<class>` resource
    /// span. The sum over those spans equals the bus's busy cycles — the
    /// profiler's resource-domain cross-check.
    fn bus_read(&mut self, t: Cycle, class: TrafficClass) -> BusTiming {
        let timing = self.bus.read(t, self.line_bytes(), class);
        self.spans.attribute_path(
            &["background", "bus", traffic_label(class)],
            timing.complete - timing.start,
        );
        timing
    }

    /// Issues a line-sized bus write; same resource accounting as
    /// [`bus_read`](Self::bus_read).
    fn bus_write(&mut self, t: Cycle, class: TrafficClass) -> BusTiming {
        let timing = self.bus.write(t, self.line_bytes(), class);
        self.spans.attribute_path(
            &["background", "bus", traffic_label(class)],
            timing.complete - timing.start,
        );
        timing
    }

    /// Schedules a chunk hash, booking the hash unit's occupancy delta
    /// under `background;hash_unit;<ctx>` (`ctx` names why the digest is
    /// computed: demand `verify`, write-back rehash, incremental MAC
    /// update). Those spans sum to [`HashUnitStats::busy_cycles`].
    ///
    /// [`HashUnitStats::busy_cycles`]: crate::hash_unit::HashUnitStats::busy_cycles
    fn schedule_chunk_hash(&mut self, t: Cycle, chunk_bytes: u32, ctx: &'static str) -> Cycle {
        let before = self.engine.stats().busy_cycles;
        let done = self.engine.schedule(t, chunk_bytes as u64);
        self.spans.attribute_path(
            &["background", "hash_unit", ctx],
            self.engine.stats().busy_cycles - before,
        );
        done
    }

    /// Batched variant of [`schedule_chunk_hash`](Self::schedule_chunk_hash).
    fn schedule_hash_batch(&mut self, t: Cycle, blocks: &[u64], ctx: &'static str) -> Cycle {
        let before = self.engine.stats().busy_cycles;
        let done = self.engine.schedule_batch(t, blocks);
        self.spans.attribute_path(
            &["background", "hash_unit", ctx],
            self.engine.stats().busy_cycles - before,
        );
        done
    }

    fn acquire_read_buf(&mut self, t: Cycle) -> (Cycle, SlotId) {
        let (start, slot) = self.read_buf.acquire(t);
        self.stats.read_buffer_wait += start - t;
        (start, slot)
    }

    fn acquire_write_buf(&mut self, t: Cycle) -> (Cycle, SlotId) {
        let (start, slot) = self.write_buf.acquire(t);
        self.stats.write_buffer_wait += start - t;
        (start, slot)
    }

    fn note_verification(&mut self, done: Cycle) {
        self.verify_horizon = self.verify_horizon.max(done);
    }

    /// Flags a verification of `chunk` completing at `at` that covered
    /// the given memory `blocks`: if any of them carries taint — or the
    /// chunk's MAC is inconsistent from a poisoned incremental update —
    /// the check fails against the corrupted bytes and the detection is
    /// recorded. Taint is *not* cleared here: the corruption stays in
    /// memory and keeps failing until a write-back overwrites it.
    fn verify_tamper(&mut self, at: Cycle, chunk: u64, blocks: &[u64]) {
        let hit = blocks.iter().copied().find(|b| self.tainted.contains(b));
        if hit.is_none() && !self.mac_inconsistent.contains(&chunk) {
            return;
        }
        let addr = hit.unwrap_or_else(|| self.layout.map_or(0, |l| l.chunk_addr(chunk)));
        self.detections.push(TamperDetection {
            cycle: at,
            chunk,
            addr,
        });
        self.events.record(
            at,
            SimEvent::IntegrityViolation {
                addr,
                chunk,
                scheme: self.config.scheme.label(),
            },
        );
    }

    /// The checker overwrote `block` in memory: any taint it carried is
    /// gone (healed without detection if no check consumed it first).
    fn clear_taint(&mut self, block: u64) {
        self.tainted.remove(&block);
    }

    fn line_bytes(&self) -> u64 {
        self.l2.config().line_bytes as u64
    }

    fn blocks_per_chunk(&self) -> u64 {
        self.layout
            .as_ref()
            .map(|l| l.blocks_per_chunk() as u64)
            .unwrap_or(1)
    }

    fn block_addr(&self, phys: u64) -> u64 {
        phys & !(self.line_bytes() - 1)
    }
}

fn line_class(kind: LineKind) -> LineClass {
    match kind {
        LineKind::Data => LineClass::Data,
        LineKind::Hash => LineClass::Hash,
    }
}

/// Stable span-path label for a bus traffic class.
fn traffic_label(class: TrafficClass) -> &'static str {
    match class {
        TrafficClass::DataRead => "data_read",
        TrafficClass::DataWrite => "data_write",
        TrafficClass::HashRead => "hash_read",
        TrafficClass::HashWrite => "hash_write",
    }
}

fn class_for(kind: LineKind, read: bool) -> TrafficClass {
    match (kind, read) {
        (LineKind::Data, true) => TrafficClass::DataRead,
        (LineKind::Data, false) => TrafficClass::DataWrite,
        (LineKind::Hash, true) => TrafficClass::HashRead,
        (LineKind::Hash, false) => TrafficClass::HashWrite,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn controller(scheme: Scheme, l2_kb: u64, line: u32) -> L2Controller {
        let mut cfg = CheckerConfig::hpca03(scheme);
        cfg.chunk_bytes = match scheme {
            Scheme::MHash | Scheme::IHash => line * 2,
            _ => line,
        };
        cfg.protected_bytes = 16 << 20; // keep trees small for tests
        L2Controller::new(
            cfg,
            CacheConfig::l2(l2_kb << 10, line),
            MemoryBusConfig::default(),
        )
    }

    #[test]
    fn base_hit_after_fill() {
        let mut c = controller(Scheme::Base, 256, 64);
        let miss = c.access(0, 0x1000, false, false);
        assert!(miss >= 120, "cold miss goes to memory: {miss}");
        let hit = c.access(miss, 0x1000, false, false);
        assert_eq!(hit, miss + 10);
        assert_eq!(c.l2_stats().data.read_misses, 1);
        assert_eq!(c.l2_stats().data.read_hits, 1);
    }

    #[test]
    fn base_never_verifies() {
        let mut c = controller(Scheme::Base, 256, 64);
        for i in 0..100u64 {
            c.access(i * 10, i * 64, i % 3 == 0, false);
        }
        assert_eq!(c.verification_horizon(), 0);
        assert_eq!(c.stats().verifications, 0);
        assert_eq!(c.bus_stats().hash_bytes(), 0);
    }

    #[test]
    fn naive_walks_full_path_every_miss() {
        let mut c = controller(Scheme::Naive, 256, 64);
        let depth = c.layout().unwrap().levels() as u64;
        assert!(depth >= 5, "test tree deep enough: {depth}");
        c.access(0, 0, false, false);
        // One data fetch plus `depth` hash-chunk fetches.
        assert_eq!(c.stats().data_fetches, 1);
        assert_eq!(c.stats().hash_fetches, depth);
        // A second miss to a *different* chunk repeats the whole walk.
        c.access(10_000, 1 << 16, false, false);
        assert_eq!(c.stats().hash_fetches, 2 * depth);
    }

    #[test]
    fn chash_amortizes_hash_fetches() {
        let mut c = controller(Scheme::CHash, 1024, 64);
        // Stream sequentially: siblings share parents, which stay cached.
        let mut now = 0;
        for i in 0..512u64 {
            now = c.access(now, i * 64, false, false);
        }
        let s = c.stats();
        assert_eq!(s.data_fetches, 512);
        assert!(
            s.hash_fetches < 512 / 2,
            "hash caching must amortize: {} hash fetches for 512 misses",
            s.hash_fetches
        );
        // Naive for comparison explodes.
        let mut n = controller(Scheme::Naive, 1024, 64);
        let mut tn = 0;
        for i in 0..512u64 {
            tn = n.access(tn, i * 64, false, false);
        }
        assert!(n.stats().hash_fetches > 10 * s.hash_fetches);
        assert!(tn > now, "naive takes longer: {tn} vs {now}");
    }

    #[test]
    fn speculative_return_beats_blocking() {
        let run = |block_on_verify: bool| {
            let mut cfg = CheckerConfig::hpca03(Scheme::CHash);
            cfg.protected_bytes = 16 << 20;
            cfg.block_on_verify = block_on_verify;
            let mut c = L2Controller::new(
                cfg,
                CacheConfig::l2(256 << 10, 64),
                MemoryBusConfig::default(),
            );
            let mut now = 0;
            for i in 0..100u64 {
                now = c.access(now, i * 64 * 57, false, false);
            }
            now
        };
        assert!(run(false) < run(true), "speculation must help");
    }

    #[test]
    fn verification_horizon_advances() {
        let mut c = controller(Scheme::CHash, 256, 64);
        let ready = c.access(0, 0, false, false);
        let horizon = c.verification_horizon();
        assert!(horizon >= ready, "hash check completes after data returns");
        assert!(horizon >= ready + 100, "hash latency is 160 cycles");
    }

    #[test]
    fn hash_lines_pollute_l2() {
        let mut c = controller(Scheme::CHash, 256, 64);
        let mut now = 0;
        for i in 0..1000u64 {
            now = c.access(now, (i * 64 * 131) % (8 << 20), false, false);
        }
        let (data, hash) = c.l2_occupancy();
        assert!(hash > 0, "hash lines must occupy L2");
        assert!(data > 0);
    }

    #[test]
    fn write_allocate_no_fetch_skips_memory() {
        let mut c = controller(Scheme::CHash, 256, 64);
        let t = c.access(0, 0, true, true);
        assert_eq!(t, 10, "no memory access for a full-line overwrite");
        assert_eq!(c.stats().alloc_no_fetch, 1);
        assert_eq!(c.stats().data_fetches, 0);
        // Without the optimization the store fetches and checks.
        let mut cfg = CheckerConfig::hpca03(Scheme::CHash);
        cfg.protected_bytes = 16 << 20;
        cfg.write_allocate_no_fetch = false;
        let mut c2 = L2Controller::new(
            cfg,
            CacheConfig::l2(256 << 10, 64),
            MemoryBusConfig::default(),
        );
        let t2 = c2.access(0, 0, true, true);
        assert!(t2 > 100);
        assert_eq!(c2.stats().data_fetches, 1);
    }

    #[test]
    fn dirty_eviction_triggers_writeback() {
        let mut c = controller(Scheme::CHash, 256, 64);
        // Dirty many conflicting lines to force dirty evictions.
        let mut now = 0;
        for i in 0..5000u64 {
            now = c.access(now, (i * 64 * 4099) % (8 << 20), true, true);
        }
        assert!(c.stats().writebacks > 0);
        assert!(c.bus_stats().bytes_for(TrafficClass::DataWrite) > 0);
    }

    #[test]
    fn mhash_fetches_whole_chunk() {
        let mut c = controller(Scheme::MHash, 1024, 64);
        assert_eq!(c.layout().unwrap().blocks_per_chunk(), 2);
        c.access(0, 0, false, false);
        let s = c.stats();
        assert_eq!(s.data_fetches, 1);
        assert_eq!(
            s.extra_data_fetches, 1,
            "sibling block fetched for the check"
        );
        // The sibling is now cached: accessing it hits.
        let hit = c.access(1000, 64, false, false);
        assert_eq!(hit, 1010);
    }

    #[test]
    fn mhash_reduces_overhead_vs_chash() {
        let c64 = TreeLayout::new(256 << 20, 64, 64);
        let m64 = TreeLayout::new(256 << 20, 128, 64);
        assert!(m64.overhead() < c64.overhead());
    }

    #[test]
    fn ihash_writeback_fetches_less_than_mhash() {
        // With 4-block chunks and a thrashing write pattern, a dirty
        // block's siblings are usually evicted (clean, older in LRU) by
        // the time it is written back: mhash must re-fetch and re-check
        // up to three blocks, ihash reads exactly one old value
        // unchecked (§5.4's advantage).
        let run = |scheme: Scheme| {
            let mut cfg = CheckerConfig::hpca03(scheme);
            cfg.chunk_bytes = 256; // 4 blocks per chunk
            cfg.protected_bytes = 16 << 20;
            let mut c = L2Controller::new(
                cfg,
                CacheConfig::l2(256 << 10, 64),
                MemoryBusConfig::default(),
            );
            let mut now = 0;
            for i in 0..6000u64 {
                now = c.access(now, (i * 256 * 1021) % (8 << 20), true, false);
            }
            (c.stats().writebacks, c.stats().extra_data_fetches)
        };
        let (wb_m, extra_m) = run(Scheme::MHash);
        let (wb_i, extra_i) = run(Scheme::IHash);
        assert!(
            wb_m > 100 && wb_i > 100,
            "write-backs occurred: {wb_m}, {wb_i}"
        );
        // Both schemes fetch 3 sibling blocks on the read path; the
        // difference is the write-back path, where ihash's single
        // unchecked read beats mhash's multi-block gather.
        assert!(
            extra_i < extra_m,
            "ihash must fetch fewer extra blocks: {extra_i} vs {extra_m}"
        );
    }

    #[test]
    fn buffer_pool_limits_inflight() {
        let mut pool = BufferPool::new(2);
        let (t1, s1) = pool.acquire(10);
        assert_eq!(t1, 10);
        pool.occupy(s1, 100);
        let (t2, s2) = pool.acquire(10);
        assert_eq!(t2, 10);
        pool.occupy(s2, 200);
        // Third request waits for the earliest release (100).
        let (t3, s3) = pool.acquire(10);
        assert_eq!(t3, 100);
        pool.occupy(s3, 150);
        let (t4, _s4) = pool.acquire(10);
        assert_eq!(t4, 150);
    }

    #[test]
    fn buffer_pool_reservation_visible_to_nested_acquire() {
        // A nested acquire before the outer occupy must still see the
        // outer reservation (capacity 1 serializes via the occupy time).
        let mut pool = BufferPool::new(1);
        let (t1, s1) = pool.acquire(5);
        assert_eq!(t1, 5);
        pool.occupy(s1, 500);
        let (t2, s2) = pool.acquire(7);
        assert_eq!(t2, 500);
        pool.occupy(s2, 600);
    }

    #[test]
    #[should_panic(expected = "all buffer entries reserved")]
    fn buffer_pool_rejects_unbounded_nesting() {
        let mut pool = BufferPool::new(1);
        let _ = pool.acquire(0);
        let _ = pool.acquire(0); // nested acquire before occupy
    }

    #[test]
    fn tiny_buffers_hurt() {
        // Closed loop: each access issues when the previous data arrived.
        // Verification completes ~160 cycles after data, so with a single
        // buffer entry every miss additionally waits for the previous
        // check to finish; with 16 entries it never does (Figure 7's
        // saturation behaviour).
        let run = |entries: u32| {
            let mut cfg = CheckerConfig::hpca03(Scheme::CHash);
            cfg.protected_bytes = 16 << 20;
            cfg.buffer_entries = entries;
            let mut c = L2Controller::new(
                cfg,
                CacheConfig::l2(256 << 10, 64),
                MemoryBusConfig::default(),
            );
            let mut now = 0;
            for i in 0..500u64 {
                now = c.access(now, (i * 64 * 769) % (8 << 20), false, false);
            }
            (now, c.stats().read_buffer_wait)
        };
        let (t1, w1) = run(1);
        let (t16, w16) = run(16);
        assert!(w1 > w16, "1-entry buffer must wait more: {w1} vs {w16}");
        assert!(t1 > t16, "1-entry buffer must be slower: {t1} vs {t16}");
    }

    #[test]
    fn chash_geometry_enforced() {
        let mut cfg = CheckerConfig::hpca03(Scheme::CHash);
        cfg.chunk_bytes = 128;
        let err = L2Controller::try_new(
            cfg,
            CacheConfig::l2(1 << 20, 64),
            MemoryBusConfig::default(),
        )
        .expect_err("chash requires one cache block per chunk");
        assert_eq!(
            err,
            crate::error::ConfigError::ChunkLineMismatch {
                scheme: Scheme::CHash,
                chunk_bytes: 128,
                line_bytes: 64,
            }
        );
    }

    #[test]
    fn tainted_block_detected_when_verified() {
        for scheme in [Scheme::Naive, Scheme::CHash, Scheme::MHash, Scheme::IHash] {
            let mut c = controller(scheme, 256, 64);
            let layout = *c.layout().unwrap();
            let phys = layout.data_phys_addr(0x4000);
            c.inject_tamper(phys, 1);
            let ready = c.access(0, 0x4000, false, false);
            assert!(ready > 0);
            let det = c.first_detection().unwrap_or_else(|| {
                panic!("{scheme} must detect a tainted demand block");
            });
            assert_eq!(det.chunk, layout.chunk_of_addr(phys));
            assert_eq!(det.addr, phys & !63);
            assert!(
                det.cycle <= c.verification_horizon(),
                "detection is a completed verification"
            );
        }
    }

    #[test]
    fn tainted_hash_node_detected_by_parent_check() {
        let mut c = controller(Scheme::CHash, 256, 64);
        let layout = *c.layout().unwrap();
        let leaf = layout.data_chunk_for(0x4000);
        let slot = crate::adversary::parent_slot_addr(&layout, leaf).expect("leaf has a slot");
        c.inject_tamper(slot, 1);
        c.access(0, 0x4000, false, false);
        let det = c.first_detection().expect("metadata corruption detected");
        assert!(
            layout.is_hash_chunk(det.chunk),
            "the failing check is on a hash chunk (got chunk {})",
            det.chunk
        );
    }

    #[test]
    fn base_never_detects_tamper() {
        let mut c = controller(Scheme::Base, 256, 64);
        c.inject_tamper(0x4000, 64);
        c.access(0, 0x4000, false, false);
        assert!(c.first_detection().is_none());
        assert!(c.tamper_detections().is_empty());
    }

    #[test]
    fn full_overwrite_heals_taint_without_detection() {
        let mut c = controller(Scheme::CHash, 8, 64);
        let layout = *c.layout().unwrap();
        let phys = layout.data_phys_addr(0x1000);
        c.inject_tamper(phys, 64);
        // Whole-line overwrite allocates dirty without a fetch or check;
        // its eventual write-back replaces the corrupted memory bytes.
        let mut now = c.access(0, 0x1000, true, true);
        for i in 0..2000u64 {
            now = c.access(now, (0x2000 + i * 64 * 131) % (4 << 20), false, false);
        }
        // The dirty line is long evicted; re-reading verifies cleanly.
        c.access(now, 0x1000, false, false);
        assert!(c.first_detection().is_none(), "healed taint never fires");
    }

    #[test]
    fn ihash_unchecked_old_read_poisons_the_mac() {
        let mut cfg = CheckerConfig::hpca03(Scheme::IHash);
        cfg.chunk_bytes = 128;
        cfg.protected_bytes = 16 << 20;
        let mut c = L2Controller::new(
            cfg,
            CacheConfig::l2(8 << 10, 64),
            MemoryBusConfig::default(),
        );
        let layout = *c.layout().unwrap();
        let phys = layout.data_phys_addr(0);
        // Dirty the block, corrupt its memory copy, thrash until the
        // dirty line is evicted: the write-back reads the tainted old
        // value *unchecked* and poisons the incremental MAC.
        let mut now = c.access(0, 0, true, false);
        c.inject_tamper(phys, 1);
        let before = c.tamper_detections().len();
        for i in 1..2000u64 {
            // Thrash a region well away from chunk 0 so the only check of
            // the poisoned chunk is the explicit re-read below.
            now = c.access(now, 0x10_0000 + (i * 64 * 4099) % (4 << 20), true, false);
        }
        // Re-reading the chunk runs a full check against the bad MAC.
        c.access(now, 0, false, false);
        let after = c.tamper_detections();
        assert!(after.len() > before, "poisoned MAC must eventually fail");
        let det = after.last().unwrap();
        assert_eq!(det.chunk, layout.chunk_of_addr(phys));
    }

    #[test]
    fn quiesce_drops_residency_so_the_next_access_checks_memory() {
        let mut c = controller(Scheme::CHash, 256, 64);
        let layout = *c.layout().unwrap();
        let phys = layout.data_phys_addr(0x4000);
        // Warm the line, then corrupt its memory copy: hits are served
        // from the (valid) resident line, so nothing fires.
        let mut now = c.access(0, 0x4000, false, false);
        c.inject_tamper(phys, 1);
        now = c.access(now, 0x4000, false, false);
        assert!(c.first_detection().is_none(), "resident hits mask taint");
        // Quiescing drops the clean line without healing the memory;
        // the re-fetch must verify the tainted bytes and fire.
        now = c.quiesce(now);
        assert_eq!(c.l2_occupancy(), (0, 0), "quiesce empties the L2");
        c.access(now, 0x4000, false, false);
        let det = c.first_detection().expect("refetch detects");
        assert_eq!(det.addr, phys & !63);
    }

    #[test]
    fn quiesce_writes_dirty_lines_back_and_detects_under_them() {
        // A dirty line whose *sibling* (same chunk, mhash) is corrupted
        // in memory: the quiesce write-back gathers the sibling, checks
        // the old chunk content, and fires before overwriting anything.
        let mut cfg = CheckerConfig::hpca03(Scheme::MHash);
        cfg.chunk_bytes = 128;
        cfg.protected_bytes = 16 << 20;
        let mut c = L2Controller::new(
            cfg,
            CacheConfig::l2(8 << 10, 64),
            MemoryBusConfig::default(),
        );
        let layout = *c.layout().unwrap();
        let now = c.access(0, 0x8000, true, false);
        let sibling = layout.data_phys_addr(0x8000) ^ 64;
        c.inject_tamper(sibling, 1);
        let done = c.quiesce(now);
        assert!(done >= now);
        assert!(
            c.first_detection().is_some(),
            "dirty write-back must check the tainted sibling first"
        );
        // The write-back walk may re-cache hash lines it fetched, but no
        // data line survives a quiesce.
        assert_eq!(c.l2_occupancy().0, 0);
    }

    #[test]
    fn scheme_labels() {
        assert_eq!(Scheme::CHash.label(), "chash");
        assert_eq!(Scheme::Base.to_string(), "base");
        assert!(!Scheme::Base.verifies());
        assert!(Scheme::IHash.verifies());
        assert_eq!(Scheme::ALL.len(), 5);
    }

    #[test]
    fn span_attribution_conserves_core_cycles() {
        // Every simulated core-visible cycle lands in exactly one leaf
        // span: the sum under the four access-class roots equals the
        // controller's total, for every scheme, with and without the
        // block-on-verify ablation. The background resource domains
        // reconcile against the component stats independently.
        for scheme in Scheme::ALL {
            for block_on_verify in [false, true] {
                let mut cfg = CheckerConfig::hpca03(scheme);
                cfg.chunk_bytes = match scheme {
                    Scheme::MHash | Scheme::IHash => 128,
                    _ => 64,
                };
                cfg.protected_bytes = 16 << 20;
                cfg.block_on_verify = block_on_verify;
                let mut c = L2Controller::new(
                    cfg,
                    CacheConfig::l2(256 << 10, 64),
                    MemoryBusConfig::default(),
                );
                let spans = SpanTracer::enabled();
                c.attach_spans(&spans);
                let mut now = 0;
                for i in 0..3000u64 {
                    let addr = (i * 64 * 769) % (8 << 20);
                    now = c.access(now, addr, i % 3 == 0, i % 6 == 0);
                    if i % 500 == 499 {
                        now = c.quiesce(now);
                    }
                }
                let snap = spans.snapshot();
                let under = |prefix: &[&str]| {
                    snap.spans
                        .iter()
                        .filter(|s| {
                            s.path.len() >= prefix.len()
                                && s.path.iter().zip(prefix).all(|(a, b)| a == b)
                        })
                        .map(|s| s.cycles)
                        .sum::<u64>()
                };
                let attributed = under(&["hit"])
                    + under(&["clean_miss"])
                    + under(&["verified_miss"])
                    + under(&["flush"]);
                assert_eq!(
                    attributed,
                    c.total_cycles(),
                    "conservation for {scheme} block_on_verify={block_on_verify}"
                );
                assert!(c.total_cycles() > 0);
                if scheme.verifies() {
                    assert!(under(&["verified_miss"]) > 0, "{scheme} verifies misses");
                } else {
                    assert_eq!(under(&["verified_miss"]), 0);
                }
                // Resource domains: hash-unit spans sum to the engine's
                // busy cycles; bus spans sum to the bus's total busy time.
                assert_eq!(
                    under(&["background", "hash_unit"]),
                    c.engine_stats().busy_cycles,
                    "{scheme} hash-unit occupancy"
                );
                assert_eq!(
                    under(&["background", "bus"]),
                    c.bus_busy_through(u64::MAX / 2),
                    "{scheme} bus occupancy"
                );
            }
        }
    }

    #[test]
    fn total_cycles_accumulates_without_spans() {
        // The conservation anchor is maintained even when no tracer is
        // attached (the profiler can attach late or never).
        let mut c = controller(Scheme::CHash, 256, 64);
        let mut now = 0;
        let mut expect = 0;
        for i in 0..50u64 {
            let ready = c.access(now, i * 64 * 57, false, false);
            expect += ready - now;
            now = ready;
        }
        let done = c.quiesce(now);
        expect += done - now;
        assert_eq!(c.total_cycles(), expect);
    }
}
