//! The incremental XOR-MAC with one-bit timestamps (§5.4).
//!
//! The *ihash* scheme replaces a chunk's hash with a MAC that can be
//! updated when a single cache block changes, without reading the other
//! blocks of the chunk. Following Bellare, Guérin and Rogaway's XOR-MAC:
//!
//! ```text
//! M_k(m_1, …, m_n) = E_k( h_k(1, m_1, b_1) ⊕ … ⊕ h_k(n, m_n, b_n) )
//! ```
//!
//! where `h_k` is a keyed PRF over `(block index, block data, timestamp
//! bit)` and `E_k` is an invertible pseudo-random permutation. Given a MAC
//! value, a single block change is applied by decrypting, XOR-ing out the
//! old `h_k` term, XOR-ing in the new one, and re-encrypting.
//!
//! The paper's one-bit **timestamp** per block defeats the two replay
//! attacks of §5.4: because the bit flips on every write-back, the
//! adversary can no longer arrange for an old `h_k` term to cancel a new
//! one. [`XorMac`] stores the bit as part of the PRF input; the tree core
//! stores the current bit next to the MAC in the parent chunk.
//!
//! # Examples
//!
//! ```
//! use miv_hash::XorMac;
//!
//! let mac = XorMac::new([3u8; 16]);
//! let blocks: [&[u8]; 2] = [b"block zero data!", b"block one data!!"];
//! let ts = [false, false];
//! let tag = mac.mac_blocks(blocks.iter().copied().zip(ts.iter().copied()));
//!
//! // O(1) update of block 1, flipping its timestamp:
//! let tag2 = mac.update(tag, 1, (blocks[1], false), (b"block one v2!!!!", true));
//! let expect = mac.mac_blocks([(&b"block zero data!"[..], false),
//!                              (&b"block one v2!!!!"[..], true)]);
//! assert_eq!(tag2, expect);
//! ```

use crate::digest::Digest;
use crate::prf::BlockPrf;
use crate::prp::BlockPrp;
use crate::xtea::Prp128;

/// Domain-separation tag mixed into every PRF call.
const DOMAIN: [u8; 8] = *b"miv-xmac";

/// An incremental XOR-MAC over the blocks of a chunk.
///
/// Generic over the outer permutation `E_k`: the default is the
/// XTEA-based [`Prp128`]; [`XorMac::with_aes`] selects AES-128.
///
/// Cloneable; all methods are `&self`.
#[derive(Debug, Clone)]
pub struct XorMac<P = Prp128> {
    prf: BlockPrf,
    prp: P,
}

/// Derives the (domain-separated) PRP key from the MAC key.
fn prp_key_of(key: [u8; 16]) -> [u8; 16] {
    let mut prp_key = key;
    for (i, b) in prp_key.iter_mut().enumerate() {
        *b ^= 0xc3u8.rotate_left(i as u32);
    }
    prp_key
}

impl XorMac<Prp128> {
    /// Creates a MAC instance from a 128-bit key, with the default
    /// XTEA-based permutation.
    ///
    /// The same key is used (with domain separation) for the per-block PRF
    /// and for the outer permutation.
    pub fn new(key: [u8; 16]) -> Self {
        XorMac {
            prf: BlockPrf::new(key, DOMAIN),
            prp: Prp128::new(prp_key_of(key)),
        }
    }
}

impl XorMac<crate::aes::Aes128> {
    /// Creates a MAC instance whose outer permutation is AES-128.
    pub fn with_aes(key: [u8; 16]) -> Self {
        XorMac {
            prf: BlockPrf::new(key, DOMAIN),
            prp: crate::aes::Aes128::new(prp_key_of(key)),
        }
    }
}

impl<P: BlockPrp> XorMac<P> {
    /// Creates a MAC instance over an explicit permutation.
    pub fn with_cipher(key: [u8; 16], prp: P) -> Self {
        XorMac {
            prf: BlockPrf::new(key, DOMAIN),
            prp,
        }
    }

    /// The keyed PRF `h_k(index, block, timestamp)`.
    ///
    /// Implemented as `MD5(key ‖ domain ‖ index LE ‖ timestamp ‖ block)`; the
    /// key-prefixed construction is adequate as a PRF for fixed-length
    /// inputs (all blocks of a chunk have the same size).
    pub fn block_prf(&self, index: u64, block: &[u8], timestamp: bool) -> Digest {
        self.prf.digest(index, block, timestamp)
    }

    /// Computes the MAC over a chunk's blocks from scratch.
    ///
    /// `blocks` yields `(block data, timestamp bit)` pairs in block order.
    /// All blocks of a chunk must be present; the order defines the index
    /// fed to the PRF.
    pub fn mac_blocks<'a, I>(&self, blocks: I) -> Digest
    where
        I: IntoIterator<Item = (&'a [u8], bool)>,
    {
        let acc = self.prf.xor_sum(blocks);
        Digest::from_bytes(self.prp.encrypt_block(acc.into_bytes()))
    }

    /// Applies a single-block change to an existing MAC in O(1).
    ///
    /// `old` is the block's previous `(data, timestamp)`, `new` its
    /// replacement. This is the write-back fast path of the *ihash* scheme:
    /// the other blocks of the chunk are not needed.
    #[must_use]
    pub fn update(
        &self,
        mac: Digest,
        index: u64,
        old: (&[u8], bool),
        new: (&[u8], bool),
    ) -> Digest {
        let mut inner = Digest::from_bytes(self.prp.decrypt_block(mac.into_bytes()));
        inner ^= self.prf.delta(index, old, new);
        Digest::from_bytes(self.prp.encrypt_block(inner.into_bytes()))
    }

    /// Verifies that `mac` matches the given blocks.
    pub fn verify<'a, I>(&self, mac: Digest, blocks: I) -> bool
    where
        I: IntoIterator<Item = (&'a [u8], bool)>,
    {
        self.mac_blocks(blocks) == mac
    }
}

/// The per-block metadata stored beside a MAC in the parent chunk: the
/// one-bit timestamps of each block (§5.4).
///
/// A compact bitset over up to 64 blocks per chunk (far beyond the paper's
/// 2–4 blocks per chunk).
///
/// # Examples
///
/// ```
/// use miv_hash::xormac::Timestamps;
///
/// let mut ts = Timestamps::new(4);
/// assert!(!ts.get(2));
/// ts.flip(2);
/// assert!(ts.get(2));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub struct Timestamps {
    bits: u64,
    len: u8,
}

impl Timestamps {
    /// Creates `len` timestamp bits, all zero.
    ///
    /// # Panics
    ///
    /// Panics if `len > 64`.
    pub fn new(len: usize) -> Self {
        assert!(len <= 64, "at most 64 blocks per chunk supported");
        Timestamps {
            bits: 0,
            len: len as u8,
        }
    }

    /// Number of timestamp bits.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Returns `true` if there are no timestamp bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads bit `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len`.
    pub fn get(&self, index: usize) -> bool {
        assert!(index < self.len(), "timestamp index out of range");
        (self.bits >> index) & 1 == 1
    }

    /// Flips bit `index` (the write-back action) and returns its new value.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len`.
    pub fn flip(&mut self, index: usize) -> bool {
        assert!(index < self.len(), "timestamp index out of range");
        self.bits ^= 1 << index;
        self.get(index)
    }

    /// Iterates over the bits in index order.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blocks(n: usize, stamp: u8) -> Vec<Vec<u8>> {
        (0..n).map(|i| vec![stamp ^ i as u8; 64]).collect()
    }

    #[test]
    fn incremental_update_matches_recompute() {
        let mac = XorMac::new([0x11u8; 16]);
        let data = blocks(4, 0xaa);
        let mut ts = Timestamps::new(4);
        let tag = mac.mac_blocks(data.iter().map(|b| b.as_slice()).zip(ts.iter()));

        // Rewrite block 2, flipping its timestamp.
        let new_block = vec![0x77u8; 64];
        let old_ts = ts.get(2);
        let new_ts = ts.flip(2);
        let updated = mac.update(tag, 2, (&data[2], old_ts), (&new_block, new_ts));

        let mut data2 = data.clone();
        data2[2] = new_block;
        let recomputed = mac.mac_blocks(data2.iter().map(|b| b.as_slice()).zip(ts.iter()));
        assert_eq!(updated, recomputed);
    }

    #[test]
    fn update_then_revert_restores_tag() {
        let mac = XorMac::new([0x42u8; 16]);
        let data = blocks(2, 0x01);
        let tag = mac.mac_blocks(data.iter().map(|b| (b.as_slice(), false)));
        let new = vec![9u8; 64];
        let t1 = mac.update(tag, 0, (&data[0], false), (&new, true));
        let t2 = mac.update(t1, 0, (&new, true), (&data[0], false));
        assert_eq!(t2, tag);
        assert_ne!(t1, tag);
    }

    #[test]
    fn timestamp_bit_changes_mac() {
        let mac = XorMac::new([7u8; 16]);
        let data = blocks(2, 0);
        let a = mac.mac_blocks(data.iter().map(|b| (b.as_slice(), false)));
        let b = mac.mac_blocks(
            data.iter()
                .enumerate()
                .map(|(i, blk)| (blk.as_slice(), i == 0)),
        );
        assert_ne!(a, b, "flipping a timestamp must change the MAC");
    }

    #[test]
    fn verify_accepts_and_rejects() {
        let mac = XorMac::new([3u8; 16]);
        let data = blocks(3, 0x10);
        let tag = mac.mac_blocks(data.iter().map(|b| (b.as_slice(), false)));
        assert!(mac.verify(tag, data.iter().map(|b| (b.as_slice(), false))));
        let mut tampered = data.clone();
        tampered[1][5] ^= 1;
        assert!(!mac.verify(tag, tampered.iter().map(|b| (b.as_slice(), false))));
    }

    /// The §5.4 attack the timestamps defeat: with the bit flipping on
    /// every write-back, a stale block no longer verifies even when the
    /// adversary predicted the new value correctly.
    #[test]
    fn replay_with_stale_block_is_rejected() {
        let mac = XorMac::new([0x99u8; 16]);
        let old = vec![1u8; 64];
        let new = vec![2u8; 64];
        let sibling = vec![3u8; 64];
        // Initial chunk {old, sibling}, timestamps {0, 0}.
        let tag0 = mac.mac_blocks([(old.as_slice(), false), (sibling.as_slice(), false)]);
        // Legitimate write-back of block 0 flips its timestamp.
        let tag1 = mac.update(tag0, 0, (&old, false), (&new, true));
        // Adversary replays the *old* data for block 0. Without timestamps
        // this could be arranged to cancel; with them it never verifies.
        assert!(!mac.verify(tag1, [(old.as_slice(), false), (sibling.as_slice(), false)]));
        assert!(!mac.verify(tag1, [(old.as_slice(), true), (sibling.as_slice(), false)]));
        // The genuine state verifies.
        assert!(mac.verify(tag1, [(new.as_slice(), true), (sibling.as_slice(), false)]));
    }

    #[test]
    fn aes_variant_has_the_same_algebra() {
        let mac = XorMac::with_aes([0x31u8; 16]);
        let data = blocks(3, 0x42);
        let mut ts = Timestamps::new(3);
        let tag = mac.mac_blocks(data.iter().map(|b| b.as_slice()).zip(ts.iter()));
        let new_block = vec![0x55u8; 64];
        let old_ts = ts.get(1);
        let new_ts = ts.flip(1);
        let upd = mac.update(tag, 1, (&data[1], old_ts), (&new_block, new_ts));
        let mut data2 = data.clone();
        data2[1] = new_block;
        let want = mac.mac_blocks(data2.iter().map(|b| b.as_slice()).zip(ts.iter()));
        assert_eq!(upd, want);
        // ...and it differs from the XTEA variant's tags.
        let xtea = XorMac::new([0x31u8; 16]);
        assert_ne!(
            tag,
            xtea.mac_blocks(data.iter().map(|b| b.as_slice()).zip([false, false, false]))
        );
    }

    #[test]
    fn keys_separate_tags() {
        let a = XorMac::new([1u8; 16]);
        let b = XorMac::new([2u8; 16]);
        let data = blocks(2, 0x55);
        let ta = a.mac_blocks(data.iter().map(|blk| (blk.as_slice(), false)));
        let tb = b.mac_blocks(data.iter().map(|blk| (blk.as_slice(), false)));
        assert_ne!(ta, tb);
    }

    #[test]
    fn timestamps_bitset() {
        let mut ts = Timestamps::new(8);
        assert_eq!(ts.len(), 8);
        assert!(!ts.is_empty());
        assert!(Timestamps::new(0).is_empty());
        for i in 0..8 {
            assert!(!ts.get(i));
        }
        assert!(ts.flip(3));
        assert!(ts.get(3));
        assert!(!ts.flip(3));
        let collected: Vec<bool> = ts.iter().collect();
        assert_eq!(collected, vec![false; 8]);
    }

    #[test]
    #[should_panic(expected = "timestamp index out of range")]
    fn timestamps_bounds_checked() {
        let ts = Timestamps::new(2);
        ts.get(2);
    }
}
