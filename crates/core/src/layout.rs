//! The hash-tree memory layout (§5.5, "Simplified Memory Organization").
//!
//! The protected memory is one contiguous segment divided into equal-sized
//! **chunks** — the unit hashes are computed over. Chunks are numbered
//! from zero; a chunk's number times the chunk size is its address. The
//! tree structure is implicit in the numbering:
//!
//! * `parent(i) = i / m − 1` (integer division); a negative result means
//!   the chunk's hash lives in on-chip **secure memory**;
//! * the remainder `i mod m` is the index of the chunk's hash within its
//!   parent chunk;
//! * chunk `p`'s children are `m(p+1) … m(p+1)+m−1`.
//!
//! With `T` total chunks this makes chunks `[0, H)` hash chunks and
//! `[H, T)` data chunks (the leaves, which are contiguous as the paper
//! notes), where `H = (T−1) / m`. The tree is an almost-balanced m-ary
//! tree; the arity is the chunk size divided by the 16-byte digest size,
//! so 64-byte chunks give a 4-ary tree in which hashes cost 1/3 of the
//! data size, stored as ≈ H/D ≈ 1/(m−1) extra chunks.
//!
//! A chunk may span several **cache blocks** (`blocks_per_chunk` > 1 for
//! the *mhash*/*ihash* schemes); the layout exposes both granularities.

use std::fmt;

use miv_hash::digest::DIGEST_BYTES;

use crate::error::ConfigError;

/// Where a chunk's hash is stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ParentRef {
    /// In on-chip secure memory, at the given digest slot (top-level
    /// chunks `0 … m−1`).
    Secure {
        /// Digest slot within secure memory.
        index: u32,
    },
    /// In another chunk of untrusted memory.
    Chunk {
        /// The parent chunk's number.
        chunk: u64,
        /// Digest slot within the parent chunk.
        index: u32,
    },
}

/// The static geometry of a protected memory segment and its hash tree.
///
/// # Examples
///
/// ```
/// use miv_core::layout::{ParentRef, TreeLayout};
///
/// // 4 KiB of data, 64-byte chunks, one block per chunk: a 4-ary tree.
/// let l = TreeLayout::new(4096, 64, 64);
/// assert_eq!(l.arity(), 4);
/// assert_eq!(l.data_chunks(), 64);
/// let leaf = l.data_chunk_for(0);
/// assert!(l.is_data_chunk(leaf));
/// match l.parent(leaf) {
///     ParentRef::Chunk { chunk, .. } => assert!(l.is_hash_chunk(chunk)),
///     ParentRef::Secure { .. } => unreachable!("tree has internal levels"),
/// }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeLayout {
    chunk_bytes: u32,
    block_bytes: u32,
    arity: u32,
    total_chunks: u64,
    hash_chunks: u64,
    data_bytes: u64,
}

impl TreeLayout {
    /// Builds the layout protecting `data_bytes` of program data.
    ///
    /// `chunk_bytes` is the hashing unit; `block_bytes` the cache-block
    /// size. One chunk spans `chunk_bytes / block_bytes` blocks (the
    /// *chash* scheme uses 1, *mhash*/*ihash* use 2 or more).
    ///
    /// # Panics
    ///
    /// Panics if the sizes are not powers of two, if `block_bytes` does
    /// not divide `chunk_bytes`, if the arity would be less than 2, or if
    /// `data_bytes` is zero. Fallible callers (anything validating a
    /// user-supplied spec) use [`try_new`](Self::try_new) instead.
    pub fn new(data_bytes: u64, chunk_bytes: u32, block_bytes: u32) -> Self {
        Self::try_new(data_bytes, chunk_bytes, block_bytes).expect("documented invariant")
    }

    /// The fallible form of [`new`](Self::new): returns a
    /// [`ConfigError`] instead of panicking on inconsistent geometry.
    pub fn try_new(
        data_bytes: u64,
        chunk_bytes: u32,
        block_bytes: u32,
    ) -> Result<Self, ConfigError> {
        if data_bytes == 0 {
            return Err(ConfigError::EmptySegment);
        }
        if !chunk_bytes.is_power_of_two() {
            return Err(ConfigError::NotPowerOfTwo {
                what: "chunk",
                bytes: chunk_bytes as u64,
            });
        }
        if !block_bytes.is_power_of_two() {
            return Err(ConfigError::NotPowerOfTwo {
                what: "block",
                bytes: block_bytes as u64,
            });
        }
        if !chunk_bytes.is_multiple_of(block_bytes) || chunk_bytes < block_bytes {
            return Err(ConfigError::ChunkNotBlockMultiple {
                chunk_bytes,
                block_bytes,
            });
        }
        let arity = chunk_bytes / DIGEST_BYTES as u32;
        if arity < 2 {
            return Err(ConfigError::ArityTooSmall { chunk_bytes });
        }

        let data_chunks = data_bytes.div_ceil(chunk_bytes as u64);
        let m = arity as u64;
        // Smallest T with T − (T−1)/m ≥ D (monotone, so iterate).
        let mut total = data_chunks;
        loop {
            let hash = (total - 1) / m;
            if total - hash >= data_chunks {
                break;
            }
            total = data_chunks + hash;
        }
        let hash_chunks = (total - 1) / m;
        Ok(TreeLayout {
            chunk_bytes,
            block_bytes,
            arity,
            total_chunks: total,
            hash_chunks,
            data_bytes,
        })
    }

    /// Chunk size in bytes (the hashing unit).
    pub fn chunk_bytes(&self) -> u32 {
        self.chunk_bytes
    }

    /// Cache-block size in bytes.
    pub fn block_bytes(&self) -> u32 {
        self.block_bytes
    }

    /// Blocks per chunk (1 for *chash*, ≥ 2 for *mhash*/*ihash*).
    pub fn blocks_per_chunk(&self) -> u32 {
        self.chunk_bytes / self.block_bytes
    }

    /// Tree arity `m` (digests per chunk).
    pub fn arity(&self) -> u32 {
        self.arity
    }

    /// Number of protected data bytes requested.
    pub fn data_bytes(&self) -> u64 {
        self.data_bytes
    }

    /// Total chunks in the physical segment (hash + data).
    pub fn total_chunks(&self) -> u64 {
        self.total_chunks
    }

    /// Number of hash chunks (`[0, H)`).
    pub fn hash_chunks(&self) -> u64 {
        self.hash_chunks
    }

    /// Number of data chunks (the leaves, `[H, T)`).
    pub fn data_chunks(&self) -> u64 {
        self.total_chunks - self.hash_chunks
    }

    /// Size of the whole physical segment in bytes.
    pub fn physical_bytes(&self) -> u64 {
        self.total_chunks * self.chunk_bytes as u64
    }

    /// Memory overhead of the tree: hash bytes per data byte.
    pub fn overhead(&self) -> f64 {
        self.hash_chunks as f64 / self.data_chunks() as f64
    }

    /// Returns `true` if `chunk` holds hashes.
    pub fn is_hash_chunk(&self, chunk: u64) -> bool {
        chunk < self.hash_chunks
    }

    /// Returns `true` if `chunk` holds program data.
    pub fn is_data_chunk(&self, chunk: u64) -> bool {
        chunk >= self.hash_chunks && chunk < self.total_chunks
    }

    /// Where `chunk`'s hash is stored (§5.5 parent rule).
    ///
    /// # Panics
    ///
    /// Panics if `chunk` is out of range.
    pub fn parent(&self, chunk: u64) -> ParentRef {
        assert!(chunk < self.total_chunks, "chunk {chunk} out of range");
        let m = self.arity as u64;
        let index = u32::try_from(chunk % m).expect("index < arity");
        if chunk < m {
            ParentRef::Secure { index }
        } else {
            ParentRef::Chunk {
                chunk: chunk / m - 1,
                index,
            }
        }
    }

    /// The children of `chunk` (empty for leaves).
    ///
    /// # Panics
    ///
    /// Panics if `chunk` is out of range.
    pub fn children(&self, chunk: u64) -> std::ops::Range<u64> {
        assert!(chunk < self.total_chunks, "chunk {chunk} out of range");
        let m = self.arity as u64;
        let first = m * (chunk + 1);
        let last = (first + m).min(self.total_chunks);
        first.min(self.total_chunks)..last
    }

    /// Number of tree levels between `chunk` and secure memory: 0 for a
    /// top-level chunk (hash directly in secure memory).
    pub fn depth(&self, chunk: u64) -> u32 {
        let mut depth = 0;
        let mut c = chunk;
        while let ParentRef::Chunk { chunk: p, .. } = self.parent(c) {
            c = p;
            depth += 1;
        }
        depth
    }

    /// Depth of the deepest data chunk — the worst-case number of hash
    /// reads per access in the naive scheme is `levels() + 1`.
    pub fn levels(&self) -> u32 {
        self.depth(self.total_chunks - 1)
    }

    /// The tree's levels as contiguous chunk-index ranges, top (depth 0,
    /// starting at chunk 0) to bottom.
    ///
    /// The implicit heap numbering makes each level contiguous: level 0
    /// is `[0, m)` and the children of a range `[s, e)` are
    /// `[m·(s+1), m·(e+1))`, clipped to the segment. Every chunk appears
    /// in exactly one range, so walking the ranges bottom-up visits all
    /// children strictly before their parents — the schedule the bulk
    /// tree build parallelizes over.
    ///
    /// # Examples
    ///
    /// ```
    /// use miv_core::TreeLayout;
    ///
    /// let layout = TreeLayout::new(16 << 10, 64, 64);
    /// let levels = layout.level_ranges();
    /// assert_eq!(levels[0].start, 0);
    /// assert_eq!(levels.last().unwrap().end, layout.total_chunks());
    /// let covered: u64 = levels.iter().map(|r| r.end - r.start).sum();
    /// assert_eq!(covered, layout.total_chunks());
    /// ```
    pub fn level_ranges(&self) -> Vec<std::ops::Range<u64>> {
        let m = self.arity as u64;
        let mut levels = Vec::new();
        let mut start = 0u64;
        let mut end = m.min(self.total_chunks);
        while start < end {
            levels.push(start..end);
            start = (m * (start + 1)).min(self.total_chunks);
            end = (m * (end + 1)).min(self.total_chunks);
        }
        levels
    }

    /// Physical address of a chunk.
    pub fn chunk_addr(&self, chunk: u64) -> u64 {
        chunk * self.chunk_bytes as u64
    }

    /// Chunk containing physical address `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is outside the physical segment.
    pub fn chunk_of_addr(&self, addr: u64) -> u64 {
        let chunk = addr / self.chunk_bytes as u64;
        assert!(chunk < self.total_chunks, "address {addr:#x} out of range");
        chunk
    }

    /// The leaf chunk holding program-data address `addr` (data addresses
    /// run `0 … data_bytes`).
    ///
    /// # Panics
    ///
    /// Panics if `addr` is at or beyond `data_bytes`.
    pub fn data_chunk_for(&self, addr: u64) -> u64 {
        assert!(
            addr < self.data_bytes,
            "data address {addr:#x} out of range"
        );
        self.hash_chunks + addr / self.chunk_bytes as u64
    }

    /// Physical address of program-data address `addr`.
    pub fn data_phys_addr(&self, addr: u64) -> u64 {
        assert!(
            addr < self.data_bytes,
            "data address {addr:#x} out of range"
        );
        self.hash_chunks * self.chunk_bytes as u64 + addr
    }

    /// Byte offset of the hash slot `index` within a chunk.
    pub fn slot_offset(&self, index: u32) -> u32 {
        assert!(index < self.arity, "slot index out of range");
        index * DIGEST_BYTES as u32
    }

    /// The chain of `(chunk, slot)` hash locations from `chunk` up to (and
    /// excluding) secure memory, leaf-to-root order; the final entry's
    /// parent is secure memory.
    pub fn path_to_root(&self, chunk: u64) -> Vec<u64> {
        let mut path = Vec::new();
        let mut c = chunk;
        while let ParentRef::Chunk { chunk: p, .. } = self.parent(c) {
            path.push(p);
            c = p;
        }
        path
    }
}

impl fmt::Display for TreeLayout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}-ary tree: {} data chunks + {} hash chunks ({} B chunks, {} blocks/chunk, {} levels)",
            self.arity,
            self.data_chunks(),
            self.hash_chunks,
            self.chunk_bytes,
            self.blocks_per_chunk(),
            self.levels() + 1,
        )
    }
}

/// Renders a small tree as ASCII art (Figure 1 stand-in).
///
/// Intended for layouts with at most a few dozen chunks; larger trees are
/// summarized.
pub fn render_tree(layout: &TreeLayout) -> String {
    let mut out = String::new();
    out.push_str(&format!("{layout}\n"));
    out.push_str(&format!(
        "secure root: {} digests on chip\n",
        layout
            .arity()
            .min(layout.total_chunks().try_into().unwrap_or(u32::MAX))
    ));
    if layout.total_chunks() > 64 {
        out.push_str("(tree too large to draw; showing counts only)\n");
        return out;
    }
    // Breadth-first levels from the top-level chunks.
    let mut level: Vec<u64> = (0..layout.total_chunks().min(layout.arity() as u64)).collect();
    let mut indent = 0;
    while !level.is_empty() {
        let mut next = Vec::new();
        let labels: Vec<String> = level
            .iter()
            .map(|&c| {
                let kind = if layout.is_hash_chunk(c) { 'H' } else { 'D' };
                next.extend(layout.children(c));
                format!("{kind}{c}")
            })
            .collect();
        out.push_str(&format!("{}{}\n", "  ".repeat(indent), labels.join(" ")));
        level = next;
        indent += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_tree_all_top_level() {
        // D=4, m=4: all four chunks are top-level leaves whose hashes fit
        // in secure memory — no hash chunks at all.
        let l = TreeLayout::new(4 * 64, 64, 64);
        assert_eq!(l.arity(), 4);
        assert_eq!(l.data_chunks(), 4);
        assert_eq!(l.total_chunks(), 4);
        assert_eq!(l.hash_chunks(), 0);
        for c in 0..4 {
            assert!(l.is_data_chunk(c));
            assert_eq!(l.parent(c), ParentRef::Secure { index: c as u32 });
        }
    }

    #[test]
    fn tiny_tree_structure() {
        // D=5, m=4: T=6, H=1. Chunk 0 is internal with children {4, 5};
        // chunks 1–3 are top-level leaves.
        let l = TreeLayout::new(5 * 64, 64, 64);
        assert_eq!(l.data_chunks(), 5);
        assert_eq!(l.total_chunks(), 6);
        assert_eq!(l.hash_chunks(), 1);
        assert!(l.is_hash_chunk(0));
        for c in 1..6 {
            assert!(l.is_data_chunk(c));
        }
        assert_eq!(l.parent(0), ParentRef::Secure { index: 0 });
        assert_eq!(l.parent(3), ParentRef::Secure { index: 3 });
        assert_eq!(l.parent(4), ParentRef::Chunk { chunk: 0, index: 0 });
        assert_eq!(l.parent(5), ParentRef::Chunk { chunk: 0, index: 1 });
        assert_eq!(l.children(0), 4..6);
        assert_eq!(l.children(4), 6..6);
    }

    #[test]
    fn parent_child_roundtrip() {
        let l = TreeLayout::new(1 << 20, 64, 64);
        for chunk in 0..l.total_chunks() {
            for child in l.children(chunk) {
                assert_eq!(
                    l.parent(child),
                    ParentRef::Chunk {
                        chunk,
                        index: (child % l.arity() as u64) as u32
                    },
                    "child {child} of {chunk}"
                );
            }
        }
    }

    #[test]
    fn every_chunk_has_exactly_one_hash_location() {
        let l = TreeLayout::new(64 * 1024, 64, 64);
        let mut seen = std::collections::BTreeSet::new();
        for chunk in 0..l.total_chunks() {
            let key = match l.parent(chunk) {
                ParentRef::Secure { index } => (u64::MAX, index),
                ParentRef::Chunk { chunk, index } => {
                    assert!(l.is_hash_chunk(chunk), "parents must be hash chunks");
                    (chunk, index)
                }
            };
            assert!(seen.insert(key), "hash slot {key:?} reused");
        }
    }

    #[test]
    fn hash_chunks_are_exactly_the_internal_nodes() {
        for data_chunks in [1u64, 2, 3, 4, 5, 16, 17, 63, 64, 65, 1000] {
            let l = TreeLayout::new(data_chunks * 64, 64, 64);
            for chunk in 0..l.total_chunks() {
                let has_children = !l.children(chunk).is_empty();
                assert_eq!(
                    has_children,
                    l.is_hash_chunk(chunk),
                    "chunk {chunk} of {} (D={data_chunks})",
                    l.total_chunks()
                );
            }
            assert!(l.data_chunks() >= data_chunks);
        }
    }

    #[test]
    fn overhead_is_about_one_over_m_minus_one() {
        let l = TreeLayout::new(16 << 20, 64, 64); // 4-ary
        let want = 1.0 / 3.0;
        assert!(
            (l.overhead() - want).abs() < 0.01,
            "overhead {}",
            l.overhead()
        );
        let l8 = TreeLayout::new(16 << 20, 128, 128); // 8-ary
        assert!((l8.overhead() - 1.0 / 7.0).abs() < 0.01);
    }

    #[test]
    fn paper_quote_quarter_of_memory_for_4ary() {
        // "For a 4-ary tree, one quarter of memory is used by hashes":
        // hash chunks / total chunks ≈ 1/4.
        let l = TreeLayout::new(64 << 20, 64, 64);
        let frac = l.hash_chunks() as f64 / l.total_chunks() as f64;
        assert!((frac - 0.25).abs() < 0.01, "fraction {frac}");
    }

    #[test]
    fn depth_and_levels() {
        // 4-ary over 64 data chunks: top level 4 chunks, needs 64 leaves:
        // depth grows logarithmically.
        let l = TreeLayout::new(64 * 64, 64, 64);
        assert!(l.levels() >= 2);
        assert_eq!(l.depth(0), 0);
        // Deeper chunks never have smaller depth than their parents.
        for chunk in 0..l.total_chunks() {
            if let ParentRef::Chunk { chunk: p, .. } = l.parent(chunk) {
                assert_eq!(l.depth(chunk), l.depth(p) + 1);
            }
        }
    }

    #[test]
    fn tree_depth_for_table1_sized_memory() {
        // The paper says ~13 extra reads per miss for its configuration
        // (1 MB L2, 64-B chunks). That corresponds to a protected segment
        // of about 256 MB: depth ≈ log4(chunks).
        let l = TreeLayout::new(256 << 20, 64, 64);
        let levels = l.levels() + 1;
        assert!((11..=14).contains(&levels), "levels = {levels}");
    }

    #[test]
    fn data_addr_mapping() {
        let l = TreeLayout::new(4096, 64, 64);
        let first = l.data_chunk_for(0);
        assert_eq!(first, l.hash_chunks());
        assert_eq!(l.data_chunk_for(63), first);
        assert_eq!(l.data_chunk_for(64), first + 1);
        assert_eq!(l.data_phys_addr(0), l.chunk_addr(first));
        assert_eq!(
            l.chunk_of_addr(l.data_phys_addr(100)),
            l.data_chunk_for(100)
        );
    }

    #[test]
    fn blocks_per_chunk_geometry() {
        let l = TreeLayout::new(1 << 16, 128, 64);
        assert_eq!(l.blocks_per_chunk(), 2);
        assert_eq!(l.arity(), 8);
        let l2 = TreeLayout::new(1 << 16, 64, 64);
        assert_eq!(l2.blocks_per_chunk(), 1);
    }

    #[test]
    fn slot_offsets() {
        let l = TreeLayout::new(4096, 64, 64);
        assert_eq!(l.slot_offset(0), 0);
        assert_eq!(l.slot_offset(3), 48);
    }

    #[test]
    #[should_panic(expected = "slot index out of range")]
    fn slot_offset_bounds() {
        let l = TreeLayout::new(4096, 64, 64);
        l.slot_offset(4);
    }

    #[test]
    fn path_to_root_is_strictly_decreasing() {
        let l = TreeLayout::new(1 << 20, 64, 64);
        let leaf = l.total_chunks() - 1;
        let path = l.path_to_root(leaf);
        assert_eq!(path.len() as u32, l.depth(leaf));
        let mut prev = leaf;
        for &p in &path {
            assert!(p < prev);
            assert!(l.is_hash_chunk(p));
            prev = p;
        }
    }

    #[test]
    fn render_small_tree() {
        let l = TreeLayout::new(16 * 64, 64, 64);
        let art = render_tree(&l);
        assert!(art.contains("secure root"));
        assert!(art.contains("H0") || art.contains("D"));
        let big = TreeLayout::new(1 << 20, 64, 64);
        assert!(render_tree(&big).contains("too large"));
    }

    #[test]
    fn zero_data_rejected() {
        assert_eq!(
            TreeLayout::try_new(0, 64, 64),
            Err(ConfigError::EmptySegment)
        );
    }

    #[test]
    fn tiny_chunk_rejected() {
        assert_eq!(
            TreeLayout::try_new(4096, 16, 16),
            Err(ConfigError::ArityTooSmall { chunk_bytes: 16 })
        );
    }

    #[test]
    #[should_panic(expected = "documented invariant")]
    fn panicking_constructor_is_a_thin_wrapper() {
        let _ = TreeLayout::new(0, 64, 64);
    }

    #[test]
    fn single_chunk_segment() {
        let l = TreeLayout::new(10, 64, 64);
        assert_eq!(l.total_chunks(), 1);
        assert_eq!(l.hash_chunks(), 0);
        assert_eq!(l.parent(0), ParentRef::Secure { index: 0 });
        assert_eq!(l.levels(), 0);
    }
}
