//! On-disk formats and geometry of the verified block store.
//!
//! The block file has three regions, all untrusted:
//!
//! ```text
//! [ superblock slot 0 | superblock slot 1 ]   2 × 128 B
//! [ journal slot 0 | journal slot 1 | ... ]   journal_slots × (36 + page_bytes) B
//! [ main region: hash pages ++ data pages ]   layout.physical_bytes() B
//! ```
//!
//! The main region is the [`TreeLayout`] chunk array verbatim: hash
//! pages first, data pages after, one page per chunk. The only trusted
//! state is the [`TrustedRoot`] blob kept *outside* this file (modeling
//! the processor's on-chip non-volatile root registers): a generation
//! counter plus the root-level digests. The superblock slots are
//! shadow-paged — a commit always writes the *inactive* slot — and a
//! slot is only believed if its self-checksum passes **and** its
//! generation and root digest match the trusted root. A stale but
//! internally consistent image therefore fails at open: its slots carry
//! an older generation than the trusted root demands.

use miv_core::{ConfigError, TreeLayout};
use miv_hash::digest::DIGEST_BYTES;
use miv_hash::ChunkHasher;

use crate::error::FormatError;

/// Magic opening each superblock slot.
pub const SUPERBLOCK_MAGIC: [u8; 8] = *b"MIVSBLK1";
/// Magic opening the trusted-root blob.
pub const ROOT_MAGIC: [u8; 8] = *b"MIVROOT1";
/// Magic opening each journal entry.
pub const JOURNAL_MAGIC: [u8; 4] = *b"MIVJ";
/// Fixed size of one superblock slot; two slots open the file.
pub const SUPER_SLOT_BYTES: u64 = 128;

const SUPER_CHECKED_BYTES: usize = 112;
const JOURNAL_HEADER_BYTES: u64 = 4 + 8 + 8;

/// One superblock slot, decoded.
///
/// Everything here is *untrusted* until cross-checked against the
/// [`TrustedRoot`]; the embedded self-digest only rejects torn or
/// bit-flipped slots, it does not authenticate them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Superblock {
    /// Commit generation this slot describes.
    pub generation: u64,
    /// Protected data bytes (the tree's leaf capacity).
    pub data_bytes: u64,
    /// Page size in bytes (= tree chunk size).
    pub page_bytes: u32,
    /// Number of journal slots reserved between superblocks and main.
    pub journal_slots: u32,
    /// Journal entries that were live at this commit and must be
    /// replayed over the main region on open.
    pub journal_len: u32,
    /// Digest over the concatenated root-level digests at this commit.
    pub roots_digest: [u8; DIGEST_BYTES],
}

impl Superblock {
    /// Encodes into one fixed 128-byte slot, checksummed with `hasher`.
    pub fn encode(&self, hasher: &dyn ChunkHasher) -> [u8; SUPER_SLOT_BYTES as usize] {
        let mut slot = [0u8; SUPER_SLOT_BYTES as usize];
        slot[0..8].copy_from_slice(&SUPERBLOCK_MAGIC);
        slot[8..16].copy_from_slice(&self.generation.to_le_bytes());
        slot[16..24].copy_from_slice(&self.data_bytes.to_le_bytes());
        slot[24..28].copy_from_slice(&self.page_bytes.to_le_bytes());
        slot[28..32].copy_from_slice(&self.journal_slots.to_le_bytes());
        slot[32..36].copy_from_slice(&self.journal_len.to_le_bytes());
        // [36..40) pad, [40..56) roots digest, [56..112) pad: every
        // byte below the checksum is covered by it, so any offline flip
        // anywhere in the slot is caught at decode.
        slot[40..56].copy_from_slice(&self.roots_digest);
        let digest = hasher.digest(&slot[..SUPER_CHECKED_BYTES]).into_bytes();
        slot[SUPER_CHECKED_BYTES..].copy_from_slice(&digest);
        slot
    }

    /// Decodes and self-checks one slot.
    pub fn decode(slot: &[u8], hasher: &dyn ChunkHasher) -> Result<Self, FormatError> {
        if slot.len() < SUPER_SLOT_BYTES as usize {
            return Err(FormatError::Truncated {
                what: "superblock",
                needed: SUPER_SLOT_BYTES,
                got: slot.len() as u64,
            });
        }
        if slot[0..8] != SUPERBLOCK_MAGIC {
            return Err(FormatError::BadMagic { what: "superblock" });
        }
        let digest = hasher.digest(&slot[..SUPER_CHECKED_BYTES]).into_bytes();
        if slot[SUPER_CHECKED_BYTES..SUPER_SLOT_BYTES as usize] != digest {
            return Err(FormatError::ChecksumMismatch { what: "superblock" });
        }
        let mut roots_digest = [0u8; DIGEST_BYTES];
        roots_digest.copy_from_slice(&slot[40..56]);
        Ok(Superblock {
            generation: le_u64(&slot[8..16]),
            data_bytes: le_u64(&slot[16..24]),
            page_bytes: le_u32(&slot[24..28]),
            journal_slots: le_u32(&slot[28..32]),
            journal_len: le_u32(&slot[32..36]),
            roots_digest,
        })
    }
}

/// The store's only trusted state, held outside the block file.
///
/// Models the secure processor's on-chip non-volatile root storage: a
/// monotone commit generation plus the root-level digests (the tree
/// slots the engine pins in the trusted cache). Everything in the block
/// file is verified against this on open.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrustedRoot {
    /// Last committed generation.
    pub generation: u64,
    /// Protected data bytes.
    pub data_bytes: u64,
    /// Page size in bytes.
    pub page_bytes: u32,
    /// Journal slots in the block file.
    pub journal_slots: u32,
    /// Root-level digests, one per chunk directly under the secure root.
    pub roots: Vec<[u8; DIGEST_BYTES]>,
}

impl TrustedRoot {
    /// Serializes the blob (magic, fields, digest count, digests).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(40 + self.roots.len() * DIGEST_BYTES);
        out.extend_from_slice(&ROOT_MAGIC);
        out.extend_from_slice(&self.generation.to_le_bytes());
        out.extend_from_slice(&self.data_bytes.to_le_bytes());
        out.extend_from_slice(&self.page_bytes.to_le_bytes());
        out.extend_from_slice(&self.journal_slots.to_le_bytes());
        out.extend_from_slice(&(self.roots.len() as u64).to_le_bytes());
        for root in &self.roots {
            out.extend_from_slice(root);
        }
        out
    }

    /// Parses a blob produced by [`to_bytes`](Self::to_bytes).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, FormatError> {
        if bytes.len() < 40 {
            return Err(FormatError::Truncated {
                what: "trusted root",
                needed: 40,
                got: bytes.len() as u64,
            });
        }
        if bytes[0..8] != ROOT_MAGIC {
            return Err(FormatError::BadMagic {
                what: "trusted root",
            });
        }
        let count = le_u64(&bytes[32..40]);
        let body = count
            .checked_mul(DIGEST_BYTES as u64)
            .and_then(|b| b.checked_add(40))
            .ok_or(FormatError::FieldRange {
                what: "trusted root count",
                value: count,
            })?;
        if bytes.len() as u64 != body {
            return Err(FormatError::LengthMismatch {
                what: "trusted root body",
                expected: body,
                got: bytes.len() as u64,
            });
        }
        let count = usize::try_from(count).map_err(|_| FormatError::FieldRange {
            what: "trusted root count",
            value: count,
        })?;
        let mut roots = Vec::with_capacity(count);
        for i in 0..count {
            let at = 40 + i * DIGEST_BYTES;
            let mut root = [0u8; DIGEST_BYTES];
            root.copy_from_slice(&bytes[at..at + DIGEST_BYTES]);
            roots.push(root);
        }
        Ok(TrustedRoot {
            generation: le_u64(&bytes[8..16]),
            data_bytes: le_u64(&bytes[16..24]),
            page_bytes: le_u32(&bytes[24..28]),
            journal_slots: le_u32(&bytes[28..32]),
            roots,
        })
    }

    /// Digest over the concatenated roots, as stored in the superblock.
    pub fn roots_digest(&self, hasher: &dyn ChunkHasher) -> [u8; DIGEST_BYTES] {
        let mut cat = Vec::with_capacity(self.roots.len() * DIGEST_BYTES);
        for root in &self.roots {
            cat.extend_from_slice(root);
        }
        hasher.digest(&cat).into_bytes()
    }
}

/// One write-back journal frame.
///
/// Evicted dirty pages land here before the commit copies them into the
/// main region; the generation stamp lets recovery distinguish entries
/// the last commit published (replay them) from entries of an
/// uncommitted epoch (orphans — ignore them).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalEntry {
    /// The commit generation this entry belongs to.
    pub generation: u64,
    /// The tree chunk (page) number the payload replaces.
    pub page: u64,
    /// Full page contents, exactly `page_bytes` long.
    pub payload: Vec<u8>,
}

impl JournalEntry {
    /// Frame size for a given page size.
    pub fn frame_bytes(page_bytes: u32) -> u64 {
        JOURNAL_HEADER_BYTES + u64::from(page_bytes) + DIGEST_BYTES as u64
    }

    /// Encodes the frame: magic, generation, page, payload, digest over
    /// `(generation || page || payload)`.
    pub fn encode(&self, hasher: &dyn ChunkHasher) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.payload.len() + 36);
        out.extend_from_slice(&JOURNAL_MAGIC);
        out.extend_from_slice(&self.generation.to_le_bytes());
        out.extend_from_slice(&self.page.to_le_bytes());
        out.extend_from_slice(&self.payload);
        let digest = hasher.digest(&out[4..]).into_bytes();
        out.extend_from_slice(&digest);
        out
    }

    /// Decodes and self-checks one frame of `page_bytes` payload.
    pub fn decode(
        frame: &[u8],
        page_bytes: u32,
        hasher: &dyn ChunkHasher,
    ) -> Result<Self, FormatError> {
        let need = Self::frame_bytes(page_bytes);
        if (frame.len() as u64) < need {
            return Err(FormatError::Truncated {
                what: "journal entry",
                needed: need,
                got: frame.len() as u64,
            });
        }
        if frame[0..4] != JOURNAL_MAGIC {
            return Err(FormatError::BadMagic {
                what: "journal entry",
            });
        }
        let payload_end = 20 + page_bytes as usize;
        let digest = hasher.digest(&frame[4..payload_end]).into_bytes();
        if frame[payload_end..payload_end + DIGEST_BYTES] != digest {
            return Err(FormatError::ChecksumMismatch {
                what: "journal entry",
            });
        }
        Ok(JournalEntry {
            generation: le_u64(&frame[4..12]),
            page: le_u64(&frame[12..20]),
            payload: frame[20..payload_end].to_vec(),
        })
    }
}

/// The block file's region map: a [`TreeLayout`] plus the journal and
/// superblock regions in front of it.
#[derive(Debug, Clone)]
pub struct StoreGeometry {
    layout: TreeLayout,
    journal_slots: u32,
}

impl StoreGeometry {
    /// Builds the geometry, validating the tree shape. Pages double as
    /// tree chunks, so `page_bytes` must satisfy the layout's arity
    /// floor (at least 64 bytes with 16-byte digests).
    pub fn new(data_bytes: u64, page_bytes: u32, journal_slots: u32) -> Result<Self, ConfigError> {
        let layout = TreeLayout::try_new(data_bytes, page_bytes, page_bytes)?;
        Ok(StoreGeometry {
            layout,
            journal_slots,
        })
    }

    /// The underlying hash-tree layout (pages are its chunks).
    pub fn layout(&self) -> &TreeLayout {
        &self.layout
    }

    /// Page size in bytes.
    pub fn page_bytes(&self) -> u32 {
        self.layout.chunk_bytes()
    }

    /// Number of journal slots.
    pub fn journal_slots(&self) -> u32 {
        self.journal_slots
    }

    /// File offset of superblock slot `slot` (0 or 1).
    pub fn slot_offset(&self, slot: usize) -> u64 {
        slot as u64 * SUPER_SLOT_BYTES
    }

    /// Which superblock slot generation `generation` lives in. Commits
    /// alternate slots, so the slot for `generation + 1` is never the
    /// slot holding the current trusted generation — a torn superblock
    /// write cannot destroy the committed one.
    pub fn slot_for(generation: u64) -> usize {
        (generation % 2) as usize
    }

    /// File offset of journal slot `idx`.
    pub fn journal_offset(&self, idx: u32) -> u64 {
        2 * SUPER_SLOT_BYTES + u64::from(idx) * JournalEntry::frame_bytes(self.page_bytes())
    }

    /// File offset where the main (tree chunk) region begins.
    pub fn main_offset(&self) -> u64 {
        self.journal_offset(self.journal_slots)
    }

    /// File offset of tree page (chunk) `page` in the main region.
    pub fn page_offset(&self, page: u64) -> u64 {
        self.main_offset() + self.layout.chunk_addr(page)
    }

    /// Total block-file size.
    pub fn total_bytes(&self) -> u64 {
        self.main_offset() + self.layout.physical_bytes()
    }
}

fn le_u64(bytes: &[u8]) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&bytes[..8]);
    u64::from_le_bytes(b)
}

fn le_u32(bytes: &[u8]) -> u32 {
    let mut b = [0u8; 4];
    b.copy_from_slice(&bytes[..4]);
    u32::from_le_bytes(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use miv_hash::Md5Hasher;

    fn sb() -> Superblock {
        Superblock {
            generation: 7,
            data_bytes: 16 * 1024,
            page_bytes: 128,
            journal_slots: 40,
            journal_len: 3,
            roots_digest: [0xAB; DIGEST_BYTES],
        }
    }

    #[test]
    fn superblock_roundtrip_and_flip_detection() {
        let hasher = Md5Hasher;
        let slot = sb().encode(&hasher);
        assert_eq!(Superblock::decode(&slot, &hasher).unwrap(), sb());
        // Any single-byte flip anywhere in the slot is caught.
        for at in [0usize, 9, 33, 38, 47, 100, 120] {
            let mut bad = slot;
            bad[at] ^= 0x40;
            assert!(
                Superblock::decode(&bad, &hasher).is_err(),
                "flip at {at} must be detected"
            );
        }
        assert!(matches!(
            Superblock::decode(&slot[..64], &hasher),
            Err(FormatError::Truncated { .. })
        ));
    }

    #[test]
    fn trusted_root_roundtrip_and_rejection() {
        let root = TrustedRoot {
            generation: 9,
            data_bytes: 4096,
            page_bytes: 128,
            journal_slots: 16,
            roots: vec![[1; DIGEST_BYTES], [2; DIGEST_BYTES]],
        };
        let bytes = root.to_bytes();
        assert_eq!(TrustedRoot::from_bytes(&bytes).unwrap(), root);

        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert!(matches!(
            TrustedRoot::from_bytes(&bad_magic),
            Err(FormatError::BadMagic { .. })
        ));
        assert!(matches!(
            TrustedRoot::from_bytes(&bytes[..bytes.len() - 1]),
            Err(FormatError::LengthMismatch { .. })
        ));
        assert!(matches!(
            TrustedRoot::from_bytes(&bytes[..16]),
            Err(FormatError::Truncated { .. })
        ));

        let digest = root.roots_digest(&Md5Hasher);
        assert_ne!(digest, [0; DIGEST_BYTES]);
    }

    #[test]
    fn journal_entry_roundtrip_and_corruption() {
        let hasher = Md5Hasher;
        let entry = JournalEntry {
            generation: 4,
            page: 17,
            payload: vec![0x5A; 128],
        };
        let frame = entry.encode(&hasher);
        assert_eq!(frame.len() as u64, JournalEntry::frame_bytes(128));
        assert_eq!(JournalEntry::decode(&frame, 128, &hasher).unwrap(), entry);

        let mut bad = frame.clone();
        bad[25] ^= 0x01; // payload byte
        assert!(matches!(
            JournalEntry::decode(&bad, 128, &hasher),
            Err(FormatError::ChecksumMismatch { .. })
        ));
        let mut bad = frame.clone();
        bad[5] ^= 0x01; // generation byte
        assert!(JournalEntry::decode(&bad, 128, &hasher).is_err());
        // An all-zero slot (never written) fails on magic.
        let zero = vec![0u8; frame.len()];
        assert!(matches!(
            JournalEntry::decode(&zero, 128, &hasher),
            Err(FormatError::BadMagic { .. })
        ));
    }

    #[test]
    fn geometry_regions_do_not_overlap() {
        let geom = StoreGeometry::new(4096, 128, 10).unwrap();
        assert_eq!(geom.slot_offset(0), 0);
        assert_eq!(geom.slot_offset(1), 128);
        assert_eq!(geom.journal_offset(0), 256);
        let frame = JournalEntry::frame_bytes(128);
        assert_eq!(geom.journal_offset(10), 256 + 10 * frame);
        assert_eq!(geom.main_offset(), geom.journal_offset(10));
        assert_eq!(geom.page_offset(0), geom.main_offset());
        assert_eq!(
            geom.total_bytes(),
            geom.main_offset() + geom.layout().physical_bytes()
        );
        assert_eq!(StoreGeometry::slot_for(1), 1);
        assert_eq!(StoreGeometry::slot_for(2), 0);
    }
}
