//! Differential test: the slab-backed [`TrustedCache`] against the
//! `HashMap` + `BTreeMap` implementation it replaced, whose code is kept
//! here verbatim (renamed, comments dropped) as the reference. The
//! functional engine and the block store stay byte-identical only if
//! every return value — above all the victim order — is the same, so
//! after each of ~100k fixed-seed operations the two caches must agree
//! on the value returned, `victim()`, `len`, the hit and miss counters
//! and the sorted dirty set.
#![expect(
    clippy::disallowed_types,
    reason = "the reference cache is kept verbatim, HashMap index included"
)]

use std::collections::{BTreeMap, HashMap};

use miv_core::trusted_cache::TrustedCache;
use miv_core::ConfigError;
use miv_obs::rng::Rng;

/// The stamp-indexed cache the slab replaced: same code, renamed.
#[derive(Debug, Clone)]
struct RefCache {
    capacity: usize,
    block_bytes: usize,
    entries: HashMap<u64, Entry>,
    lru: BTreeMap<u64, u64>,
    clock: u64,
    hits: u64,
    misses: u64,
}

#[derive(Debug, Clone)]
struct Entry {
    data: Vec<u8>,
    dirty: bool,
    stamp: u64,
    pins: u32,
}

impl RefCache {
    fn try_new(capacity: usize, block_bytes: usize) -> Result<Self, ConfigError> {
        if capacity < 1 {
            return Err(ConfigError::CacheTooSmall {
                blocks: capacity,
                min_blocks: 1,
            });
        }
        if block_bytes < 1 {
            return Err(ConfigError::ZeroSize { what: "block" });
        }
        Ok(RefCache {
            capacity,
            block_bytes,
            entries: HashMap::with_capacity(capacity + 4),
            lru: BTreeMap::new(),
            clock: 0,
            hits: 0,
            misses: 0,
        })
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn hits(&self) -> u64 {
        self.hits
    }

    fn misses(&self) -> u64 {
        self.misses
    }

    fn contains(&self, addr: u64) -> bool {
        self.entries.contains_key(&addr)
    }

    fn dirty(&self, addr: u64) -> Option<bool> {
        self.entries.get(&addr).map(|e| e.dirty)
    }

    fn get(&mut self, addr: u64) -> Option<&[u8]> {
        if self.entries.contains_key(&addr) {
            self.hits += 1;
            self.touch(addr);
            self.entries.get(&addr).map(|e| e.data.as_slice())
        } else {
            self.misses += 1;
            None
        }
    }

    fn peek(&self, addr: u64) -> Option<&[u8]> {
        self.entries.get(&addr).map(|e| e.data.as_slice())
    }

    fn get_mut(&mut self, addr: u64) -> Option<&mut [u8]> {
        if self.entries.contains_key(&addr) {
            self.hits += 1;
            self.touch(addr);
            let e = self.entries.get_mut(&addr).expect("present");
            e.dirty = true;
            Some(e.data.as_mut_slice())
        } else {
            self.misses += 1;
            None
        }
    }

    fn insert(&mut self, addr: u64, data: Vec<u8>, dirty: bool) {
        assert_eq!(data.len(), self.block_bytes, "block size mismatch");
        assert!(
            !self.entries.contains_key(&addr),
            "block {addr:#x} already cached"
        );
        self.clock += 1;
        self.lru.insert(self.clock, addr);
        self.entries.insert(
            addr,
            Entry {
                data,
                dirty,
                stamp: self.clock,
                pins: 0,
            },
        );
    }

    fn mark_clean(&mut self, addr: u64) -> bool {
        match self.entries.get_mut(&addr) {
            Some(e) => {
                e.dirty = false;
                true
            }
            None => false,
        }
    }

    fn mark_dirty(&mut self, addr: u64) -> bool {
        match self.entries.get_mut(&addr) {
            Some(e) => {
                e.dirty = true;
                true
            }
            None => false,
        }
    }

    fn remove(&mut self, addr: u64) -> Option<(Vec<u8>, bool)> {
        if let Some(e) = self.entries.get(&addr) {
            assert_eq!(e.pins, 0, "removing pinned block {addr:#x}");
        }
        self.entries.remove(&addr).map(|e| {
            self.lru.remove(&e.stamp);
            (e.data, e.dirty)
        })
    }

    fn needs_eviction(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    fn over_capacity(&self) -> bool {
        self.entries.len() > self.capacity
    }

    fn victim(&self) -> Option<u64> {
        self.lru
            .values()
            .copied()
            .find(|addr| self.entries[addr].pins == 0)
    }

    fn pin(&mut self, addr: u64) {
        self.entries
            .get_mut(&addr)
            .expect("pinning absent block")
            .pins += 1;
    }

    fn unpin(&mut self, addr: u64) {
        let e = self.entries.get_mut(&addr).expect("unpinning absent block");
        assert!(e.pins > 0, "unpinning unpinned block {addr:#x}");
        e.pins -= 1;
    }

    fn iter_blocks(&self) -> impl Iterator<Item = (u64, bool)> + '_ {
        self.entries.iter().map(|(a, e)| (*a, e.dirty))
    }

    fn dirty_blocks(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .entries
            .iter()
            .filter(|(_, e)| e.dirty)
            .map(|(a, _)| *a)
            .collect();
        v.sort_unstable();
        v
    }

    fn touch(&mut self, addr: u64) {
        self.clock += 1;
        let e = self.entries.get_mut(&addr).expect("present");
        self.lru.remove(&e.stamp);
        e.stamp = self.clock;
        self.lru.insert(self.clock, addr);
    }
}

/// Both caches plus the pin counts the driver needs to issue only legal
/// `unpin` and `remove` calls.
struct Pair {
    new: TrustedCache,
    reference: RefCache,
    pins: BTreeMap<u64, u32>,
    block_bytes: usize,
}

impl Pair {
    fn new(capacity: usize, block_bytes: usize) -> Self {
        Pair {
            new: TrustedCache::try_new(capacity, block_bytes).expect("valid geometry"),
            reference: RefCache::try_new(capacity, block_bytes).expect("valid geometry"),
            pins: BTreeMap::new(),
            block_bytes,
        }
    }

    fn pinned(&self, addr: u64) -> bool {
        self.pins.get(&addr).is_some_and(|&n| n > 0)
    }

    fn insert(&mut self, rng: &mut Rng, addr: u64) {
        let mut data = vec![0u8; self.block_bytes];
        rng.fill_bytes(&mut data);
        let dirty = rng.gen_bool(0.3);
        self.new.insert(addr, &data, dirty);
        self.reference.insert(addr, data, dirty);
    }

    fn remove(&mut self, addr: u64) {
        let bytes = self.new.peek(addr).map(<[u8]>::to_vec);
        let got = self.new.remove(addr);
        let want = self.reference.remove(addr);
        assert_eq!(got, want.as_ref().map(|w| w.1), "remove({addr:#x})");
        assert_eq!(bytes, want.map(|w| w.0), "bytes removed at {addr:#x}");
        self.pins.remove(&addr);
    }

    /// Drains the overshoot the way the engine does: victim, remove.
    fn drain(&mut self) {
        while self.reference.over_capacity() {
            let v = self.new.victim();
            assert_eq!(v, self.reference.victim(), "victim while draining");
            match v {
                Some(addr) => self.remove(addr),
                None => break,
            }
        }
    }

    fn check(&self, step: usize) {
        let (n, r) = (&self.new, &self.reference);
        assert_eq!(n.victim(), r.victim(), "victim after step {step}");
        assert_eq!(n.len(), r.len(), "len after step {step}");
        assert_eq!(n.is_empty(), r.is_empty(), "is_empty after step {step}");
        assert_eq!(n.hits(), r.hits(), "hits after step {step}");
        assert_eq!(n.misses(), r.misses(), "misses after step {step}");
        assert_eq!(
            n.dirty_blocks(),
            r.dirty_blocks(),
            "dirty set after step {step}"
        );
        assert_eq!(n.needs_eviction(), r.needs_eviction(), "step {step}");
        assert_eq!(n.over_capacity(), r.over_capacity(), "step {step}");
    }

    fn check_contents(&self) {
        let mut got: Vec<(u64, bool)> = self.new.iter_blocks().collect();
        let mut want: Vec<(u64, bool)> = self.reference.iter_blocks().collect();
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want, "resident set");
        for (addr, dirty) in want {
            let bytes = self.reference.peek(addr).expect("resident");
            assert_eq!(self.new.lookup(addr), Some((bytes, dirty)));
        }
    }
}

/// Runs `ops` random operations on a cache of `capacity` blocks of
/// `block_bytes`, over a pool of `2 * capacity + 3` block addresses
/// spaced `stride` blocks apart.
fn run(seed: u64, capacity: usize, block_bytes: usize, stride: u64, ops: usize) {
    let mut rng = Rng::seed_from_u64(seed);
    let mut pair = Pair::new(capacity, block_bytes);
    let pool = 2 * capacity as u64 + 3;
    let base = rng.gen_range_u64(0, 1 << 20) * block_bytes as u64;
    let addr_of = |k: u64| base + k * stride * block_bytes as u64;
    for step in 0..ops {
        let addr = addr_of(rng.gen_range_u64(0, pool));
        match rng.pick_weighted(&[22, 18, 10, 8, 6, 5, 5, 8, 7, 5, 4, 2]) {
            // Insert, overshooting capacity; drain now and then only, so
            // the cache often sits above capacity like mid-cascade.
            0 => {
                if !pair.reference.contains(addr) {
                    pair.insert(&mut rng, addr);
                }
                if rng.gen_bool(0.5) {
                    pair.drain();
                }
            }
            1 => {
                let got = pair.new.get(addr).map(<[u8]>::to_vec);
                let want = pair.reference.get(addr).map(<[u8]>::to_vec);
                assert_eq!(got, want, "get({addr:#x}) at step {step}");
            }
            2 => {
                let at = rng.gen_range_usize(0, block_bytes);
                let byte = rng.gen_u8();
                let got = pair.new.get_mut(addr).map(|b| {
                    b[at] = byte;
                    b.to_vec()
                });
                let want = pair.reference.get_mut(addr).map(|b| {
                    b[at] = byte;
                    b.to_vec()
                });
                assert_eq!(got, want, "get_mut({addr:#x}) at step {step}");
            }
            3 => {
                let want = pair
                    .reference
                    .peek(addr)
                    .map(|b| (b, pair.reference.dirty(addr).expect("resident")));
                assert_eq!(pair.new.lookup(addr), want, "lookup at step {step}");
                assert_eq!(pair.new.peek(addr), pair.reference.peek(addr));
                assert_eq!(pair.new.dirty(addr), pair.reference.dirty(addr));
                assert_eq!(pair.new.contains(addr), pair.reference.contains(addr));
            }
            4 => assert_eq!(
                pair.new.mark_clean(addr),
                pair.reference.mark_clean(addr),
                "mark_clean at step {step}"
            ),
            5 => assert_eq!(
                pair.new.mark_dirty(addr),
                pair.reference.mark_dirty(addr),
                "mark_dirty at step {step}"
            ),
            // Nested pins: a block may be pinned several times over.
            6 => {
                if pair.reference.contains(addr) {
                    pair.new.pin(addr);
                    pair.reference.pin(addr);
                    *pair.pins.entry(addr).or_insert(0) += 1;
                    assert!(pair.new.is_pinned(addr));
                }
            }
            7 => {
                if pair.pinned(addr) {
                    pair.new.unpin(addr);
                    pair.reference.unpin(addr);
                    *pair.pins.get_mut(&addr).expect("pinned") -= 1;
                }
                assert_eq!(pair.new.is_pinned(addr), pair.pinned(addr));
            }
            // Remove, including absent blocks; removed addresses come
            // back through later inserts.
            8 => {
                if !pair.pinned(addr) {
                    pair.remove(addr);
                }
            }
            // The engine's eviction loop: victim, remove, until within
            // capacity or everything left is pinned.
            9 => pair.drain(),
            10 => {
                while let Some(addr) = pair.reference.victim() {
                    assert_eq!(pair.new.victim(), Some(addr));
                    if rng.gen_bool(0.3) {
                        break;
                    }
                    pair.remove(addr);
                }
            }
            // Release every pin so the victim walk sees long runs of
            // unpinned blocks again.
            _ => {
                let pinned: Vec<(u64, u32)> = pair.pins.iter().map(|(&a, &n)| (a, n)).collect();
                for (addr, n) in pinned {
                    for _ in 0..n {
                        pair.new.unpin(addr);
                        pair.reference.unpin(addr);
                    }
                }
                pair.pins.clear();
            }
        }
        pair.check(step);
        if step % 64 == 0 {
            pair.check_contents();
        }
    }
    pair.check_contents();
}

#[test]
fn matches_reference_with_a_single_block() {
    run(0x7ca_c4e1, 1, 64, 1, 10_000);
}

#[test]
fn matches_reference_on_dense_blocks() {
    run(0x7ca_c4e2, 8, 64, 1, 40_000);
}

#[test]
fn matches_reference_on_strided_odd_sized_blocks() {
    run(0x7ca_c4e3, 32, 48, 64, 40_000);
}

#[test]
fn matches_reference_on_page_sized_blocks() {
    run(0x7ca_c4e4, 16, 4096, 3, 10_000);
}

#[test]
fn rejects_the_same_geometry() {
    for (capacity, block_bytes) in [(0, 64), (4, 0), (0, 0), (1, 1)] {
        assert_eq!(
            format!("{:?}", TrustedCache::try_new(capacity, block_bytes).err()),
            format!("{:?}", RefCache::try_new(capacity, block_bytes).err()),
        );
    }
}
