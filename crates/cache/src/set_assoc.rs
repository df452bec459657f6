//! The set-associative cache state machine.

use crate::config::CacheConfig;
use crate::observe::CacheObserver;
use crate::policy::ReplacementPolicy;
use crate::stats::{CacheStats, LineKind};

/// One tag-array entry.
#[derive(Debug, Clone, Copy)]
struct Line {
    /// Line-aligned address (tag); meaningless when `!valid`.
    tag: u64,
    kind: LineKind,
    valid: bool,
    dirty: bool,
    /// Monotonic LRU stamp; larger = more recently used.
    lru: u64,
}

impl Line {
    fn empty() -> Self {
        Line {
            tag: 0,
            kind: LineKind::Data,
            valid: false,
            dirty: false,
            lru: 0,
        }
    }
}

/// A line evicted by [`Cache::fill`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Eviction {
    /// Line-aligned address of the victim.
    pub addr: u64,
    /// What the victim held.
    pub kind: LineKind,
    /// Whether the victim was dirty (needs a write-back).
    pub dirty: bool,
}

/// Outcome of a [`Cache::lookup`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LookupResult {
    /// The line was present; LRU updated, dirty bit set if a write.
    Hit,
    /// The line was absent. The cache state is unchanged; call
    /// [`Cache::fill`] once the data arrives.
    Miss,
}

impl LookupResult {
    /// Returns `true` for [`LookupResult::Hit`].
    pub fn is_hit(&self) -> bool {
        matches!(self, LookupResult::Hit)
    }

    /// Returns `true` for [`LookupResult::Miss`].
    pub fn is_miss(&self) -> bool {
        matches!(self, LookupResult::Miss)
    }
}

/// A set-associative, write-back, write-allocate cache model with true-LRU
/// replacement and per-kind (data/hash) statistics.
///
/// The model is timing-free: it answers "hit or miss", tracks dirty state
/// and produces victims; the surrounding simulator assigns latencies.
///
/// # Examples
///
/// ```
/// use miv_cache::{Cache, CacheConfig, LineKind};
///
/// let mut c = Cache::new(CacheConfig::new(256, 2, 64)); // 2 sets × 2 ways
/// c.fill(0x000, LineKind::Data, false);
/// c.fill(0x100, LineKind::Data, false); // same set as 0x000
/// c.fill(0x200, LineKind::Hash, true);  // evicts LRU of that set
/// let v = c.fill(0x300, LineKind::Data, false).unwrap();
/// assert_eq!(v.addr, 0x100);
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    policy: ReplacementPolicy,
    /// Every way of every set, set-major: set `s` is
    /// `lines[s * assoc..(s + 1) * assoc]`.
    lines: Vec<Line>,
    assoc: usize,
    /// `log2(line_bytes)`: the set index is `(addr >> line_shift) &
    /// set_mask` (all geometry is powers of two).
    line_shift: u32,
    set_mask: u64,
    /// Valid data and hash lines, kept current by `fill`, `invalidate`
    /// and `flush` so [`occupancy`](Cache::occupancy) is O(1).
    valid_data: u64,
    valid_hash: u64,
    clock: u64,
    /// Xorshift state for [`ReplacementPolicy::Random`].
    rng_state: u64,
    stats: CacheStats,
    obs: CacheObserver,
}

impl Cache {
    /// Creates an empty LRU cache with the given geometry.
    pub fn new(config: CacheConfig) -> Self {
        Self::with_policy(config, ReplacementPolicy::Lru)
    }

    /// Creates an empty cache with an explicit replacement policy.
    pub fn with_policy(config: CacheConfig, policy: ReplacementPolicy) -> Self {
        Cache {
            config,
            policy,
            lines: vec![Line::empty(); config.lines() as usize],
            assoc: config.assoc as usize,
            line_shift: config.line_bytes.trailing_zeros(),
            set_mask: config.sets() - 1,
            valid_data: 0,
            valid_hash: 0,
            clock: 0,
            rng_state: 0x9e37_79b9_7f4a_7c15,
            stats: CacheStats::default(),
            obs: CacheObserver::default(),
        }
    }

    /// Attaches registry-backed telemetry counters. The default observer
    /// is disabled and free; see [`CacheObserver::for_registry`].
    pub fn set_observer(&mut self, obs: CacheObserver) {
        self.obs = obs;
    }

    /// The replacement policy in effect.
    pub fn policy(&self) -> ReplacementPolicy {
        self.policy
    }

    /// The cache geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Index of the first way of the set holding `addr`.
    fn set_base(&self, addr: u64) -> usize {
        ((addr >> self.line_shift) & self.set_mask) as usize * self.assoc
    }

    /// The ways of the set holding `addr`.
    fn set(&self, addr: u64) -> &[Line] {
        let base = self.set_base(addr);
        &self.lines[base..base + self.assoc]
    }

    /// The resident line for `addr`, if any.
    fn find_mut(&mut self, addr: u64) -> Option<&mut Line> {
        let tag = self.config.tag(addr);
        let base = self.set_base(addr);
        self.lines[base..base + self.assoc]
            .iter_mut()
            .find(|l| l.valid && l.tag == tag)
    }

    /// The occupancy counter for lines of `kind`.
    fn valid_count(&mut self, kind: LineKind) -> &mut u64 {
        match kind {
            LineKind::Data => &mut self.valid_data,
            LineKind::Hash => &mut self.valid_hash,
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Clears statistics (but not cache contents), e.g. after warm-up.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Looks up `addr`, counting the access against `kind`.
    ///
    /// On a hit the LRU state is refreshed and, if `write`, the line is
    /// marked dirty. On a miss nothing changes; the caller fetches the
    /// line and calls [`fill`](Cache::fill).
    pub fn lookup(&mut self, addr: u64, kind: LineKind, write: bool) -> LookupResult {
        self.clock += 1;
        let tag = self.config.tag(addr);
        let base = self.set_base(addr);
        let clock = self.clock;
        let stats = self.stats.kind_mut(kind);
        let counters = self.obs.kind(kind);
        let refresh = self.policy == ReplacementPolicy::Lru;
        for line in &mut self.lines[base..base + self.assoc] {
            if line.valid && line.tag == tag {
                if refresh {
                    line.lru = clock;
                }
                if write {
                    line.dirty = true;
                    stats.write_hits += 1;
                    counters.write_hits.inc();
                } else {
                    stats.read_hits += 1;
                    counters.read_hits.inc();
                }
                return LookupResult::Hit;
            }
        }
        if write {
            stats.write_misses += 1;
            counters.write_misses.inc();
        } else {
            stats.read_misses += 1;
            counters.read_misses.inc();
        }
        LookupResult::Miss
    }

    /// Checks for presence without perturbing LRU or statistics.
    pub fn contains(&self, addr: u64) -> bool {
        let tag = self.config.tag(addr);
        self.set(addr).iter().any(|l| l.valid && l.tag == tag)
    }

    /// Returns the dirty bit of a resident line, or `None` if absent.
    pub fn dirty(&self, addr: u64) -> Option<bool> {
        let tag = self.config.tag(addr);
        self.set(addr)
            .iter()
            .find(|l| l.valid && l.tag == tag)
            .map(|l| l.dirty)
    }

    /// Inserts the line for `addr`, returning the eviction it displaced
    /// (if any). Does not touch hit/miss counters — pair it with a prior
    /// [`lookup`](Cache::lookup).
    ///
    /// # Panics
    ///
    /// Panics if the line is already resident (double fill indicates a
    /// controller bug).
    pub fn fill(&mut self, addr: u64, kind: LineKind, dirty: bool) -> Option<Eviction> {
        self.clock += 1;
        let tag = self.config.tag(addr);
        let base = self.set_base(addr);
        let set = &self.lines[base..base + self.assoc];
        assert!(
            !set.iter().any(|l| l.valid && l.tag == tag),
            "fill of already-resident line {tag:#x}"
        );
        // Prefer an invalid way; otherwise pick a victim per policy
        // (under FIFO the stamp is insertion time — lookups don't refresh
        // it — so min-stamp doubles as oldest-inserted).
        let way = match set.iter().position(|l| !l.valid) {
            Some(w) => w,
            None => match self.policy {
                ReplacementPolicy::Lru | ReplacementPolicy::Fifo => {
                    let (w, _) = set
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, l)| l.lru)
                        .expect("associativity >= 1");
                    w
                }
                ReplacementPolicy::Random => {
                    // Deterministic xorshift64*.
                    self.rng_state ^= self.rng_state << 13;
                    self.rng_state ^= self.rng_state >> 7;
                    self.rng_state ^= self.rng_state << 17;
                    (self.rng_state % self.config.assoc as u64) as usize
                }
            },
        };
        let victim = {
            let old = self.lines[base + way];
            if old.valid {
                *self.valid_count(old.kind) -= 1;
                let vstats = self.stats.kind_mut(old.kind);
                let vcounters = self.obs.kind(old.kind);
                vstats.evictions += 1;
                vcounters.evictions.inc();
                if old.dirty {
                    vstats.dirty_evictions += 1;
                    vcounters.dirty_evictions.inc();
                }
                Some(Eviction {
                    addr: old.tag,
                    kind: old.kind,
                    dirty: old.dirty,
                })
            } else {
                None
            }
        };
        *self.valid_count(kind) += 1;
        self.lines[base + way] = Line {
            tag,
            kind,
            valid: true,
            dirty,
            lru: self.clock,
        };
        victim
    }

    /// Marks a resident line clean (after its write-back completes).
    ///
    /// Returns `true` if the line was present.
    pub fn mark_clean(&mut self, addr: u64) -> bool {
        self.find_mut(addr).map(|l| l.dirty = false).is_some()
    }

    /// Marks a resident line dirty without counting an access (used when a
    /// background hash store updates a cached chunk).
    ///
    /// Returns `true` if the line was present.
    pub fn mark_dirty(&mut self, addr: u64) -> bool {
        self.find_mut(addr).map(|l| l.dirty = true).is_some()
    }

    /// Removes the line for `addr`, returning its eviction record.
    pub fn invalidate(&mut self, addr: u64) -> Option<Eviction> {
        let line = self.find_mut(addr)?;
        line.valid = false;
        let evicted = Eviction {
            addr: line.tag,
            kind: line.kind,
            dirty: line.dirty,
        };
        *self.valid_count(evicted.kind) -= 1;
        Some(evicted)
    }

    /// Drains every valid line, clearing the cache; dirty lines are
    /// returned first-set-first. Models the initialization cache flush
    /// (§5.6.2).
    pub fn flush(&mut self) -> Vec<Eviction> {
        let mut out = Vec::new();
        for line in &mut self.lines {
            if line.valid {
                out.push(Eviction {
                    addr: line.tag,
                    kind: line.kind,
                    dirty: line.dirty,
                });
                line.valid = false;
                line.dirty = false;
            }
        }
        self.valid_data = 0;
        self.valid_hash = 0;
        out
    }

    /// Number of valid lines of each kind `(data, hash)` — the occupancy
    /// split used in pollution analyses.
    pub fn occupancy(&self) -> (u64, u64) {
        (self.valid_data, self.valid_hash)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        // 2 sets, 2 ways, 64-B lines.
        Cache::new(CacheConfig::new(256, 2, 64))
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = small();
        assert!(c.lookup(0x40, LineKind::Data, false).is_miss());
        assert!(c.fill(0x40, LineKind::Data, false).is_none());
        assert!(c.lookup(0x40, LineKind::Data, false).is_hit());
        assert!(
            c.lookup(0x7f, LineKind::Data, false).is_hit(),
            "same line, different offset"
        );
        assert_eq!(c.stats().data.read_hits, 2);
        assert_eq!(c.stats().data.read_misses, 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = small();
        // Set 0 holds lines 0x000 and 0x100 (stride = sets*line = 128).
        c.fill(0x000, LineKind::Data, false);
        c.fill(0x100, LineKind::Data, false);
        // Touch 0x000 so 0x100 becomes LRU.
        assert!(c.lookup(0x000, LineKind::Data, false).is_hit());
        let v = c.fill(0x200, LineKind::Data, false).unwrap();
        assert_eq!(v.addr, 0x100);
        assert!(c.contains(0x000));
        assert!(!c.contains(0x100));
    }

    #[test]
    fn dirty_eviction_reported() {
        let mut c = small();
        c.fill(0x000, LineKind::Data, false);
        c.fill(0x100, LineKind::Data, false);
        // Write-hit 0x000: now dirty and MRU; 0x100 is LRU.
        assert!(c.lookup(0x000, LineKind::Data, true).is_hit());
        assert_eq!(c.dirty(0x000), Some(true));
        let v = c.fill(0x200, LineKind::Data, false).unwrap();
        assert_eq!(v.addr, 0x100);
        assert!(!v.dirty);
        let v2 = c.fill(0x300, LineKind::Data, false).unwrap();
        assert_eq!(v2.addr, 0x000);
        assert!(v2.dirty);
        assert_eq!(c.stats().data.dirty_evictions, 1);
        assert_eq!(c.stats().data.evictions, 2);
    }

    #[test]
    fn write_miss_counts_and_fill_dirty() {
        let mut c = small();
        assert!(c.lookup(0x40, LineKind::Data, true).is_miss());
        c.fill(0x40, LineKind::Data, true);
        assert_eq!(c.dirty(0x40), Some(true));
        assert_eq!(c.stats().data.write_misses, 1);
    }

    #[test]
    fn kinds_are_tracked_separately() {
        let mut c = small();
        c.lookup(0x40, LineKind::Hash, false);
        c.fill(0x40, LineKind::Hash, false);
        c.lookup(0x40, LineKind::Hash, false);
        assert_eq!(c.stats().hash.read_hits, 1);
        assert_eq!(c.stats().hash.read_misses, 1);
        assert_eq!(c.stats().data.accesses(), 0);
        assert_eq!(c.occupancy(), (0, 1));
    }

    #[test]
    fn mark_clean_and_dirty() {
        let mut c = small();
        c.fill(0x40, LineKind::Data, true);
        assert!(c.mark_clean(0x40));
        assert_eq!(c.dirty(0x40), Some(false));
        assert!(c.mark_dirty(0x40));
        assert_eq!(c.dirty(0x40), Some(true));
        assert!(!c.mark_clean(0xdead00));
        assert!(!c.mark_dirty(0xdead00));
        assert_eq!(c.dirty(0xdead00), None);
    }

    #[test]
    fn invalidate_removes() {
        let mut c = small();
        c.fill(0x40, LineKind::Data, true);
        let e = c.invalidate(0x40).unwrap();
        assert!(e.dirty);
        assert!(!c.contains(0x40));
        assert!(c.invalidate(0x40).is_none());
    }

    #[test]
    fn flush_drains_everything() {
        let mut c = small();
        c.fill(0x000, LineKind::Data, true);
        c.fill(0x040, LineKind::Hash, false);
        c.fill(0x100, LineKind::Data, false);
        let drained = c.flush();
        assert_eq!(drained.len(), 3);
        assert_eq!(c.occupancy(), (0, 0));
        assert!(!c.contains(0x000));
        assert_eq!(drained.iter().filter(|e| e.dirty).count(), 1);
    }

    #[test]
    fn fifo_ignores_touches() {
        let mut c = Cache::with_policy(
            CacheConfig::new(256, 2, 64),
            crate::policy::ReplacementPolicy::Fifo,
        );
        c.fill(0x000, LineKind::Data, false);
        c.fill(0x100, LineKind::Data, false);
        // Touch the older line: under LRU this would save it; FIFO evicts
        // it anyway (oldest insertion).
        assert!(c.lookup(0x000, LineKind::Data, false).is_hit());
        let v = c.fill(0x200, LineKind::Data, false).unwrap();
        assert_eq!(v.addr, 0x000);
        assert_eq!(c.policy(), crate::policy::ReplacementPolicy::Fifo);
    }

    #[test]
    fn random_policy_is_deterministic_and_valid() {
        let run = || {
            let mut c = Cache::with_policy(
                CacheConfig::new(256, 2, 64),
                crate::policy::ReplacementPolicy::Random,
            );
            let mut victims = Vec::new();
            for i in 0..32u64 {
                if let Some(v) = c.fill(i * 64, LineKind::Data, false) {
                    victims.push(v.addr);
                }
            }
            victims
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same seed, same victims");
        assert!(!a.is_empty());
        let (d, h) = {
            let mut c = Cache::with_policy(
                CacheConfig::new(256, 2, 64),
                crate::policy::ReplacementPolicy::Random,
            );
            for i in 0..64u64 {
                c.fill(i * 64, LineKind::Data, false);
            }
            c.occupancy()
        };
        assert_eq!(d + h, 4, "never exceeds capacity");
    }

    #[test]
    #[should_panic(expected = "already-resident")]
    fn double_fill_panics() {
        let mut c = small();
        c.fill(0x40, LineKind::Data, false);
        c.fill(0x40, LineKind::Data, false);
    }

    #[test]
    fn occupancy_never_exceeds_capacity() {
        let mut c = small();
        for i in 0..64u64 {
            let addr = i * 64;
            if !c.contains(addr) {
                c.fill(addr, LineKind::Data, false);
            }
        }
        let (d, h) = c.occupancy();
        assert_eq!(d + h, 4, "4 lines total capacity");
    }
}
