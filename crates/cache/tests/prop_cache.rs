//! Randomized property tests for the set-associative cache model,
//! driven by the workspace's deterministic PRNG (`miv_obs::rng`).
//!
//! These check structural invariants under arbitrary operation sequences:
//! no duplicate resident lines, capacity bounds per set, LRU correctness
//! against a reference model, stats bookkeeping, and stats merging.

use std::collections::VecDeque;

use miv_cache::{Cache, CacheConfig, CacheStats, KindStats, LineKind, ReplacementPolicy};
use miv_obs::rng::Rng;

/// A reference cache: per-set VecDeque of (tag, dirty), front = LRU.
struct RefCache {
    config: CacheConfig,
    sets: Vec<VecDeque<(u64, bool)>>,
}

impl RefCache {
    fn new(config: CacheConfig) -> Self {
        RefCache {
            config,
            sets: (0..config.sets()).map(|_| VecDeque::new()).collect(),
        }
    }

    fn lookup(&mut self, addr: u64, write: bool) -> bool {
        let tag = self.config.tag(addr);
        let set = &mut self.sets[self.config.set_index(addr) as usize];
        if let Some(pos) = set.iter().position(|(t, _)| *t == tag) {
            let (t, d) = set.remove(pos).expect("position came from this set");
            set.push_back((t, d || write));
            true
        } else {
            false
        }
    }

    fn fill(&mut self, addr: u64, dirty: bool) -> Option<u64> {
        let tag = self.config.tag(addr);
        let assoc = self.config.assoc as usize;
        let set = &mut self.sets[self.config.set_index(addr) as usize];
        let victim = if set.len() == assoc {
            set.pop_front().map(|(t, _)| t)
        } else {
            None
        };
        set.push_back((tag, dirty));
        victim
    }

    fn contains(&self, addr: u64) -> bool {
        let tag = self.config.tag(addr);
        self.sets[self.config.set_index(addr) as usize]
            .iter()
            .any(|(t, _)| *t == tag)
    }

    fn dirty(&self, addr: u64) -> Option<bool> {
        let tag = self.config.tag(addr);
        self.sets[self.config.set_index(addr) as usize]
            .iter()
            .find(|(t, _)| *t == tag)
            .map(|(_, d)| *d)
    }
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Access { addr: u64, write: bool },
    Invalidate { addr: u64 },
    MarkClean { addr: u64 },
}

/// Confine addresses to 16 lines' worth of space spread over a tiny
/// cache so sets collide heavily.
fn random_op(rng: &mut Rng) -> Op {
    let line = rng.gen_range_u64(0, 16);
    let addr = line * 64 + (line % 7);
    match rng.pick_weighted(&[4, 1, 1]) {
        0 => Op::Access {
            addr,
            write: rng.gen_bool(0.5),
        },
        1 => Op::Invalidate { addr },
        _ => Op::MarkClean { addr },
    }
}

/// The cache model agrees with a simple LRU reference on residency and
/// dirty state under arbitrary access/invalidate/clean sequences.
#[test]
fn matches_reference_lru() {
    let mut rng = Rng::seed_from_u64(0xcafe);
    for _case in 0..64 {
        let config = CacheConfig::new(256, 2, 64); // 2 sets × 2 ways
        let mut sut = Cache::new(config);
        let mut reference = RefCache::new(config);
        let ops = rng.gen_range_usize(1, 400);

        for _ in 0..ops {
            match random_op(&mut rng) {
                Op::Access { addr, write } => {
                    let hit = sut.lookup(addr, LineKind::Data, write).is_hit();
                    let ref_hit = reference.lookup(addr, write);
                    assert_eq!(hit, ref_hit, "hit mismatch at {addr:#x}");
                    if !hit {
                        let victim = sut.fill(addr, LineKind::Data, write);
                        let ref_victim = reference.fill(addr, write);
                        assert_eq!(victim.map(|v| v.addr), ref_victim);
                    }
                }
                Op::Invalidate { addr } => {
                    let got = sut.invalidate(addr).is_some();
                    let tag = config.tag(addr);
                    let set = &mut reference.sets[config.set_index(addr) as usize];
                    let expect = set
                        .iter()
                        .position(|(t, _)| *t == tag)
                        .map(|p| set.remove(p));
                    assert_eq!(got, expect.is_some());
                }
                Op::MarkClean { addr } => {
                    let got = sut.mark_clean(addr);
                    let tag = config.tag(addr);
                    let set = &mut reference.sets[config.set_index(addr) as usize];
                    let mut found = false;
                    for entry in set.iter_mut() {
                        if entry.0 == tag {
                            entry.1 = false;
                            found = true;
                        }
                    }
                    assert_eq!(got, found);
                }
            }
            // Residency & dirty state agree for every address in range.
            for line in 0..16u64 {
                let addr = line * 64;
                assert_eq!(sut.contains(addr), reference.contains(addr));
                assert_eq!(sut.dirty(addr), reference.dirty(addr));
            }
        }
    }
}

/// Hits + misses equals total accesses, and occupancy is bounded by
/// capacity.
#[test]
fn stats_and_occupancy_invariants() {
    let mut rng = Rng::seed_from_u64(0xbeef);
    for _case in 0..64 {
        let config = CacheConfig::new(512, 4, 32); // 4 sets × 4 ways, 32-B lines
        let mut c = Cache::new(config);
        let n = rng.gen_range_usize(1, 300);
        for _ in 0..n {
            let line = rng.gen_range_u64(0, 64);
            let write = rng.gen_bool(0.5);
            let addr = line * 32;
            let kind = if line.is_multiple_of(3) {
                LineKind::Hash
            } else {
                LineKind::Data
            };
            if c.lookup(addr, kind, write).is_miss() {
                c.fill(addr, kind, write);
            }
        }
        let s = *c.stats();
        assert_eq!(s.total_accesses(), n as u64);
        assert_eq!(s.data.hits() + s.data.misses(), s.data.accesses());
        assert_eq!(s.hash.hits() + s.hash.misses(), s.hash.accesses());
        let (d, h) = c.occupancy();
        assert!(d + h <= config.lines());
        // Fills = misses; evictions can't exceed fills.
        assert!(s.data.evictions + s.hash.evictions <= s.total_misses());
        assert!(s.data.dirty_evictions <= s.data.evictions);
        assert!(s.hash.dirty_evictions <= s.hash.evictions);
    }
}

/// After a flush the cache is empty and every previously-dirty line was
/// reported dirty.
#[test]
fn flush_reports_all_dirty_lines() {
    let mut rng = Rng::seed_from_u64(0xf00d);
    for _case in 0..64 {
        let config = CacheConfig::new(1024, 2, 64);
        let mut c = Cache::new(config);
        let mut dirty_now = std::collections::BTreeMap::new();
        let n = rng.gen_range_usize(1, 100);
        for _ in 0..n {
            let line = rng.gen_range_u64(0, 32);
            let write = rng.gen_bool(0.5);
            let addr = line * 64;
            if c.lookup(addr, LineKind::Data, write).is_miss() {
                if let Some(v) = c.fill(addr, LineKind::Data, write) {
                    dirty_now.remove(&v.addr);
                }
            }
            let e = dirty_now.entry(config.tag(addr)).or_insert(false);
            *e = *e || write;
        }
        let drained = c.flush();
        assert_eq!(drained.len(), dirty_now.len());
        for ev in drained {
            assert_eq!(ev.dirty, dirty_now[&ev.addr], "line {:#x}", ev.addr);
        }
        assert_eq!(c.occupancy(), (0, 0));
    }
}

/// Valid lines of each kind found by scanning every way: flushing a
/// clone drains exactly the valid lines, independent of the counters
/// behind [`Cache::occupancy`].
fn scanned_occupancy(c: &Cache) -> (u64, u64) {
    let drained = c.clone().flush();
    let hash = drained.iter().filter(|e| e.kind == LineKind::Hash).count() as u64;
    (drained.len() as u64 - hash, hash)
}

/// The O(1) occupancy counters equal a full scan after every step of
/// random lookup/fill, direct fill, invalidate and flush sequences,
/// under every replacement policy.
#[test]
fn occupancy_counters_match_full_scan() {
    let mut rng = Rng::seed_from_u64(0x0cc0);
    for policy in ReplacementPolicy::ALL {
        for _case in 0..32 {
            let config = CacheConfig::new(512, 4, 32); // 4 sets × 4 ways
            let mut c = Cache::with_policy(config, policy);
            let n = rng.gen_range_usize(1, 400);
            for _ in 0..n {
                let addr = rng.gen_range_u64(0, 64) * 32;
                let kind = if rng.gen_bool(0.3) {
                    LineKind::Hash
                } else {
                    LineKind::Data
                };
                match rng.gen_range_usize(0, 100) {
                    0..=59 => {
                        let write = rng.gen_bool(0.4);
                        if c.lookup(addr, kind, write).is_miss() {
                            c.fill(addr, kind, write);
                        }
                    }
                    60..=74 => {
                        if !c.contains(addr) {
                            c.fill(addr, kind, rng.gen_bool(0.5));
                        }
                    }
                    75..=97 => {
                        c.invalidate(addr);
                    }
                    _ => {
                        c.flush();
                    }
                }
                assert_eq!(c.occupancy(), scanned_occupancy(&c), "{policy}");
            }
        }
    }
}

fn random_kind_stats(rng: &mut Rng) -> KindStats {
    KindStats {
        read_hits: rng.gen_range_u64(0, 1000),
        read_misses: rng.gen_range_u64(0, 1000),
        write_hits: rng.gen_range_u64(0, 1000),
        write_misses: rng.gen_range_u64(0, 1000),
        evictions: rng.gen_range_u64(0, 1000),
        dirty_evictions: rng.gen_range_u64(0, 1000),
    }
}

/// `KindStats::merge` is associative and commutative, with the default
/// value as identity — so any segmentation of a run sums identically.
#[test]
fn kind_stats_merge_is_associative() {
    let mut rng = Rng::seed_from_u64(0x57a7);
    for _case in 0..200 {
        let a = random_kind_stats(&mut rng);
        let b = random_kind_stats(&mut rng);
        let c = random_kind_stats(&mut rng);

        // (a + b) + c
        let mut left = a;
        left.merge(&b);
        left.merge(&c);
        // a + (b + c)
        let mut bc = b;
        bc.merge(&c);
        let mut right = a;
        right.merge(&bc);
        assert_eq!(left, right);

        // Commutativity.
        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ab, ba);

        // Identity.
        let mut with_zero = a;
        with_zero.merge(&KindStats::default());
        assert_eq!(with_zero, a);

        // delta inverts merge.
        let mut sum = a;
        sum.merge(&b);
        assert_eq!(sum.delta(&a), b);
    }
}

/// Splitting a run's `CacheStats` at arbitrary points and merging the
/// segments reproduces the uninterrupted totals.
#[test]
fn segmented_cache_stats_sum_to_whole() {
    let mut rng = Rng::seed_from_u64(0x5e6);
    for _case in 0..32 {
        let config = CacheConfig::new(512, 4, 32);
        let mut c = Cache::new(config);
        let n = rng.gen_range_usize(10, 300);
        let cut = rng.gen_range_usize(1, n);
        let mut merged = CacheStats::default();
        let mut before_cut = CacheStats::default();
        for i in 0..n {
            if i == cut {
                before_cut = *c.stats();
                merged.merge(&before_cut);
            }
            let line = rng.gen_range_u64(0, 64);
            let kind = if line.is_multiple_of(3) {
                LineKind::Hash
            } else {
                LineKind::Data
            };
            let addr = line * 32;
            if c.lookup(addr, kind, rng.gen_bool(0.4)).is_miss() {
                c.fill(addr, kind, false);
            }
        }
        let whole = *c.stats();
        merged.merge(&whole.delta(&before_cut));
        assert_eq!(merged, whole);
    }
}
