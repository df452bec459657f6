//! The trusted on-chip cache used by the functional verification engine
//! and the persistent block store.
//!
//! In the paper's *chash* family, tree machinery is merged with the L2:
//! anything resident in this cache is **trusted** — it was verified on the
//! way in (or produced on-chip) and physical attackers cannot reach it. A
//! cached tree node therefore acts as the root of a smaller subtree.
//!
//! Unlike the timing model in `miv-cache`, this cache carries real bytes.
//! It is fully associative with true-LRU replacement (the functional
//! engine cares about *what* is cached, not about set conflicts — those
//! belong to the timing model) and supports **pinning**: blocks involved
//! in an in-progress write-back cascade cannot be chosen as victims,
//! which is how the engine keeps multi-step updates atomic with respect
//! to re-entrant evictions.
//!
//! Storage is a slab: a slot array threaded by an intrusive doubly-linked
//! recency list, a free list of vacated slots, and every block's bytes in
//! one contiguous buffer (slot `i` at `i * block_bytes`). A hashed index
//! maps a block address to its slot; it is only ever looked up, and both
//! iterators walk the slot array, so iteration order never depends on
//! hashing.

use std::hash::{BuildHasher, Hasher};

use crate::error::ConfigError;

#[expect(
    clippy::disallowed_types,
    reason = "lookup-only index from block address to slot; iter_blocks and dirty_blocks walk the slot array, never this map"
)]
type SlotIndex = std::collections::HashMap<u64, u32, BlockHash>;

/// End-of-list marker for the recency links.
const NIL: u32 = u32::MAX;

/// A block-granular trusted cache holding real data.
///
/// Keys are block-aligned physical addresses.
///
/// # Examples
///
/// ```
/// use miv_core::trusted_cache::TrustedCache;
///
/// let mut c = TrustedCache::new(2, 64);
/// c.insert(0, &[1u8; 64], false);
/// c.insert(64, &[2u8; 64], true);
/// assert!(c.needs_eviction());          // at capacity
/// assert_eq!(c.victim(), Some(0));      // 0 is least recently used
/// assert_eq!(c.lookup(64), Some((&[2u8; 64][..], true)));
/// ```
#[derive(Debug, Clone)]
pub struct TrustedCache {
    capacity: usize,
    block_bytes: usize,
    index: SlotIndex,
    slots: Vec<Slot>,
    /// Block bytes, slot `i` at `i * block_bytes`.
    data: Vec<u8>,
    /// Vacated slots, reused before the slab grows.
    free: Vec<u32>,
    /// Least-recently-touched resident slot (where `victim` starts).
    lru: u32,
    /// Most-recently-touched resident slot.
    mru: u32,
    hits: u64,
    misses: u64,
}

#[derive(Debug, Clone)]
struct Slot {
    addr: u64,
    /// Whether the slot holds a block (vacated slots sit on the free list).
    live: bool,
    dirty: bool,
    pins: u32,
    /// Neighbour toward the LRU end.
    prev: u32,
    /// Neighbour toward the MRU end.
    next: u32,
}

impl TrustedCache {
    /// Creates a cache holding up to `capacity` blocks of `block_bytes`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` or `block_bytes` is zero;
    /// [`try_new`](Self::try_new) is the fallible form.
    pub fn new(capacity: usize, block_bytes: usize) -> Self {
        Self::try_new(capacity, block_bytes)
            .expect("documented invariant: positive capacity and block size")
    }

    /// Fallible form of [`new`](Self::new), for callers building from a
    /// user-supplied spec.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::CacheTooSmall`] when `capacity` is zero
    /// and [`ConfigError::ZeroSize`] when `block_bytes` is zero.
    pub fn try_new(capacity: usize, block_bytes: usize) -> Result<Self, ConfigError> {
        if capacity < 1 {
            return Err(ConfigError::CacheTooSmall {
                blocks: capacity,
                min_blocks: 1,
            });
        }
        if block_bytes < 1 {
            return Err(ConfigError::ZeroSize { what: "block" });
        }
        let hasher = BlockHash {
            shift: block_bytes.ilog2(),
        };
        Ok(TrustedCache {
            capacity,
            block_bytes,
            index: SlotIndex::with_capacity_and_hasher(capacity + 4, hasher),
            slots: Vec::with_capacity(capacity + 4),
            data: Vec::new(),
            free: Vec::new(),
            lru: NIL,
            mru: NIL,
            hits: 0,
            misses: 0,
        })
    }

    /// Capacity in blocks.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of resident blocks.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Returns `true` if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Lookup hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookup misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Whether `addr` is resident (no LRU side effect, not counted).
    pub fn contains(&self, addr: u64) -> bool {
        self.index.contains_key(&addr)
    }

    /// The dirty bit of a resident block.
    pub fn dirty(&self, addr: u64) -> Option<bool> {
        self.slot_of(addr).map(|s| self.slots[s as usize].dirty)
    }

    /// A resident block's bytes and dirty bit, without counters or LRU
    /// effects.
    pub fn lookup(&self, addr: u64) -> Option<(&[u8], bool)> {
        self.slot_of(addr)
            .map(|s| (self.bytes(s), self.slots[s as usize].dirty))
    }

    /// Reads a resident block, refreshing LRU and counting a hit/miss.
    pub fn get(&mut self, addr: u64) -> Option<&[u8]> {
        match self.slot_of(addr) {
            Some(s) => {
                self.hits += 1;
                self.touch(s);
                Some(self.bytes(s))
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Reads a resident block without counters or LRU effects.
    pub fn peek(&self, addr: u64) -> Option<&[u8]> {
        self.slot_of(addr).map(|s| self.bytes(s))
    }

    /// Mutably accesses a resident block, marking it dirty and refreshing
    /// LRU; counts a hit/miss.
    pub fn get_mut(&mut self, addr: u64) -> Option<&mut [u8]> {
        match self.slot_of(addr) {
            Some(s) => {
                self.hits += 1;
                self.touch(s);
                self.slots[s as usize].dirty = true;
                let at = s as usize * self.block_bytes;
                Some(&mut self.data[at..at + self.block_bytes])
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Inserts a copy of a block (must not already be resident) as the
    /// most recently used. The cache may exceed capacity transiently;
    /// callers drain it with [`victim`](Self::victim)/[`remove`](Self::remove).
    ///
    /// # Panics
    ///
    /// Panics if the block is already resident or `data` has the wrong
    /// length.
    pub fn insert(&mut self, addr: u64, data: &[u8], dirty: bool) {
        assert_eq!(data.len(), self.block_bytes, "block size mismatch");
        let slot = Slot {
            addr,
            live: true,
            dirty,
            pins: 0,
            prev: NIL,
            next: NIL,
        };
        let s = match self.free.pop() {
            Some(s) => {
                let at = s as usize * self.block_bytes;
                self.data[at..at + self.block_bytes].copy_from_slice(data);
                self.slots[s as usize] = slot;
                s
            }
            None => {
                let s = u32::try_from(self.slots.len())
                    .ok()
                    .filter(|&s| s != NIL)
                    .expect("documented invariant: slot count fits u32");
                self.data.extend_from_slice(data);
                self.slots.push(slot);
                s
            }
        };
        let previous = self.index.insert(addr, s);
        assert!(previous.is_none(), "block {addr:#x} already cached");
        self.push_mru(s);
    }

    /// Marks a resident block clean. Returns `true` if present.
    pub fn mark_clean(&mut self, addr: u64) -> bool {
        self.set_dirty(addr, false)
    }

    /// Marks a resident block dirty without LRU/counter effects.
    pub fn mark_dirty(&mut self, addr: u64) -> bool {
        self.set_dirty(addr, true)
    }

    /// Removes a block, returning its dirty bit.
    ///
    /// # Panics
    ///
    /// Panics if the block is pinned.
    pub fn remove(&mut self, addr: u64) -> Option<bool> {
        let s = self.index.remove(&addr)?;
        let slot = &mut self.slots[s as usize];
        assert_eq!(slot.pins, 0, "removing pinned block {addr:#x}");
        slot.live = false;
        let dirty = slot.dirty;
        self.unlink(s);
        self.free.push(s);
        Some(dirty)
    }

    /// Whether the cache is at or above capacity.
    pub fn needs_eviction(&self) -> bool {
        self.len() >= self.capacity
    }

    /// Whether the cache is strictly above capacity (insertions during a
    /// pinned cascade may overshoot by a bounded amount).
    pub fn over_capacity(&self) -> bool {
        self.len() > self.capacity
    }

    /// The least-recently-used unpinned block, if any.
    pub fn victim(&self) -> Option<u64> {
        let mut s = self.lru;
        while s != NIL {
            let slot = &self.slots[s as usize];
            if slot.pins == 0 {
                return Some(slot.addr);
            }
            s = slot.next;
        }
        None
    }

    /// Pins a resident block (nestable).
    ///
    /// # Panics
    ///
    /// Panics if the block is not resident.
    pub fn pin(&mut self, addr: u64) {
        let s = self.slot_of(addr).expect("pinning absent block");
        self.slots[s as usize].pins += 1;
    }

    /// Unpins a resident block.
    ///
    /// # Panics
    ///
    /// Panics if the block is not resident or not pinned.
    pub fn unpin(&mut self, addr: u64) {
        let s = self.slot_of(addr).expect("unpinning absent block");
        let slot = &mut self.slots[s as usize];
        assert!(slot.pins > 0, "unpinning unpinned block {addr:#x}");
        slot.pins -= 1;
    }

    /// Whether `addr` is resident and pinned at least once.
    pub fn is_pinned(&self, addr: u64) -> bool {
        self.slot_of(addr)
            .is_some_and(|s| self.slots[s as usize].pins > 0)
    }

    /// Iterates over `(addr, dirty)` of all resident blocks in slot
    /// order (deterministic, but not address or recency order).
    pub fn iter_blocks(&self) -> impl Iterator<Item = (u64, bool)> + '_ {
        self.slots
            .iter()
            .filter(|s| s.live)
            .map(|s| (s.addr, s.dirty))
    }

    /// Addresses of all dirty blocks, ascending.
    pub fn dirty_blocks(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .iter_blocks()
            .filter(|&(_, dirty)| dirty)
            .map(|(addr, _)| addr)
            .collect();
        v.sort_unstable();
        v
    }

    fn slot_of(&self, addr: u64) -> Option<u32> {
        self.index.get(&addr).copied()
    }

    fn bytes(&self, s: u32) -> &[u8] {
        let at = s as usize * self.block_bytes;
        &self.data[at..at + self.block_bytes]
    }

    fn set_dirty(&mut self, addr: u64, dirty: bool) -> bool {
        match self.slot_of(addr) {
            Some(s) => {
                self.slots[s as usize].dirty = dirty;
                true
            }
            None => false,
        }
    }

    /// Moves slot `s` to the MRU end of the recency list.
    fn touch(&mut self, s: u32) {
        if self.mru != s {
            self.unlink(s);
            self.push_mru(s);
        }
    }

    /// Detaches slot `s` from the recency list.
    fn unlink(&mut self, s: u32) {
        let Slot { prev, next, .. } = self.slots[s as usize];
        match prev {
            NIL => self.lru = next,
            p => self.slots[p as usize].next = next,
        }
        match next {
            NIL => self.mru = prev,
            n => self.slots[n as usize].prev = prev,
        }
    }

    /// Appends the detached slot `s` at the MRU end.
    fn push_mru(&mut self, s: u32) {
        let slot = &mut self.slots[s as usize];
        slot.prev = self.mru;
        slot.next = NIL;
        match self.mru {
            NIL => self.lru = s,
            m => self.slots[m as usize].next = s,
        }
        self.mru = s;
    }
}

/// Multiplier of the index hash: 2^64 divided by the golden ratio, odd.
const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;

/// Builds [`BlockHasher`]s for the slot index.
#[derive(Debug, Clone, Copy)]
struct BlockHash {
    /// `log2(block_bytes)`, rounded down: the address bits that never
    /// vary between block-aligned keys.
    shift: u32,
}

impl BuildHasher for BlockHash {
    type Hasher = BlockHasher;

    fn build_hasher(&self) -> BlockHasher {
        BlockHasher {
            shift: self.shift,
            hash: 0,
        }
    }
}

/// Multiplicative hash of the block number `addr >> shift`, with the
/// high half folded into the low bits the table indexes by. Block
/// numbers of resident blocks are distinct, so their products are too;
/// the index never holds more keys than resident blocks, so an unlucky
/// key set costs longer probes, never unbounded work, and a keyed hash
/// such as SipHash would only slow every lookup.
#[derive(Debug)]
struct BlockHasher {
    shift: u32,
    hash: u64,
}

impl Hasher for BlockHasher {
    fn write_u64(&mut self, addr: u64) {
        let h = (addr >> self.shift).wrapping_mul(GOLDEN);
        self.hash = h ^ (h >> 32);
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.hash = (self.hash ^ u64::from(b)).wrapping_mul(GOLDEN);
        }
    }

    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(n: u64) -> Vec<u8> {
        vec![n as u8; 64]
    }

    #[test]
    fn try_new_rejects_zero_geometry() {
        assert!(matches!(
            TrustedCache::try_new(0, 64),
            Err(ConfigError::CacheTooSmall {
                blocks: 0,
                min_blocks: 1
            })
        ));
        assert!(matches!(
            TrustedCache::try_new(4, 0),
            Err(ConfigError::ZeroSize { what: "block" })
        ));
        assert!(TrustedCache::try_new(4, 64).is_ok());
    }

    #[test]
    fn insert_get_roundtrip() {
        let mut c = TrustedCache::new(4, 64);
        c.insert(0, &filled(1), false);
        assert_eq!(c.get(0).unwrap()[0], 1);
        assert!(c.get(64).is_none());
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn get_mut_dirties() {
        let mut c = TrustedCache::new(4, 64);
        c.insert(0, &filled(0), false);
        c.get_mut(0).unwrap()[5] = 9;
        assert_eq!(c.dirty(0), Some(true));
        assert_eq!(c.peek(0).unwrap()[5], 9);
        assert_eq!(c.dirty_blocks(), vec![0]);
    }

    #[test]
    fn lru_victim_order() {
        let mut c = TrustedCache::new(3, 64);
        c.insert(0, &filled(0), false);
        c.insert(64, &filled(1), false);
        c.insert(128, &filled(2), false);
        assert!(c.needs_eviction());
        assert_eq!(c.victim(), Some(0));
        c.get(0); // refresh
        assert_eq!(c.victim(), Some(64));
    }

    #[test]
    fn pinned_blocks_are_not_victims() {
        let mut c = TrustedCache::new(2, 64);
        c.insert(0, &filled(0), false);
        c.insert(64, &filled(1), false);
        c.pin(0);
        assert_eq!(c.victim(), Some(64));
        c.pin(64);
        assert_eq!(c.victim(), None);
        c.unpin(0);
        assert_eq!(c.victim(), Some(0));
        c.unpin(64);
    }

    #[test]
    fn pins_nest() {
        let mut c = TrustedCache::new(2, 64);
        c.insert(0, &filled(0), false);
        c.pin(0);
        c.pin(0);
        c.unpin(0);
        assert_eq!(c.victim(), None, "still pinned once");
        c.unpin(0);
        assert_eq!(c.victim(), Some(0));
    }

    #[test]
    #[should_panic(expected = "removing pinned")]
    fn remove_pinned_panics() {
        let mut c = TrustedCache::new(2, 64);
        c.insert(0, &filled(0), false);
        c.pin(0);
        c.remove(0);
    }

    #[test]
    fn remove_returns_dirty_bit() {
        let mut c = TrustedCache::new(2, 64);
        c.insert(0, &filled(7), true);
        c.insert(64, &filled(8), false);
        assert_eq!(c.remove(0), Some(true));
        assert_eq!(c.remove(64), Some(false));
        assert!(c.remove(0).is_none());
        assert!(c.is_empty());
    }

    #[test]
    fn lookup_returns_bytes_and_dirty_without_touching() {
        let mut c = TrustedCache::new(4, 64);
        c.insert(0, &filled(3), false);
        c.insert(64, &filled(4), true);
        assert_eq!(c.lookup(0), Some((&filled(3)[..], false)));
        assert_eq!(c.lookup(64), Some((&filled(4)[..], true)));
        assert_eq!(c.lookup(128), None);
        // Neither lookup nor peek, dirty, contains or mark_* moves a block
        // in recency order; nor are they counted.
        c.peek(0);
        c.dirty(0);
        c.mark_dirty(0);
        assert!(c.contains(0));
        assert_eq!(c.victim(), Some(0));
        assert_eq!((c.hits(), c.misses()), (0, 0));
    }

    #[test]
    fn vacated_slots_are_reused_with_fresh_bytes() {
        let mut c = TrustedCache::new(2, 64);
        c.insert(0, &filled(1), true);
        c.insert(64, &filled(2), false);
        assert_eq!(c.remove(0), Some(true));
        c.insert(128, &filled(3), false);
        assert_eq!(c.lookup(128), Some((&filled(3)[..], false)));
        assert_eq!(c.peek(64), Some(&filled(2)[..]));
        assert_eq!(c.victim(), Some(64));
        let mut blocks: Vec<_> = c.iter_blocks().collect();
        blocks.sort_unstable();
        assert_eq!(blocks, vec![(64, false), (128, false)]);
    }

    #[test]
    fn clean_dirty_transitions() {
        let mut c = TrustedCache::new(2, 64);
        c.insert(0, &filled(0), true);
        assert!(c.mark_clean(0));
        assert_eq!(c.dirty(0), Some(false));
        assert!(c.mark_dirty(0));
        assert_eq!(c.dirty(0), Some(true));
        assert!(!c.mark_clean(999));
    }

    #[test]
    fn over_capacity_is_transient_state() {
        let mut c = TrustedCache::new(2, 64);
        c.insert(0, &filled(0), false);
        c.insert(64, &filled(1), false);
        c.insert(128, &filled(2), false); // overshoot allowed
        assert!(c.over_capacity());
        let v = c.victim().unwrap();
        c.remove(v);
        assert!(!c.over_capacity());
    }

    #[test]
    #[should_panic(expected = "already cached")]
    fn double_insert_panics() {
        let mut c = TrustedCache::new(2, 64);
        c.insert(0, &filled(0), false);
        c.insert(0, &filled(0), false);
    }

    #[test]
    #[should_panic(expected = "block size mismatch")]
    fn wrong_size_rejected() {
        let mut c = TrustedCache::new(2, 64);
        c.insert(0, &[0u8; 32], false);
    }
}
