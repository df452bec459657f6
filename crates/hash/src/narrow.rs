//! A 120-bit PRP and XOR-MAC for the *ihash* scheme's parent slots.
//!
//! The paper stores "a one-bit timestamp for each cache block along with
//! the MAC in the parent chunk" (§5.4) without spelling out the bit
//! layout. We keep the tree geometry untouched — every parent slot stays
//! 16 bytes, so the arity is unchanged — by narrowing the MAC to
//! **120 bits** and packing up to eight timestamp bits into the slot's
//! final byte:
//!
//! ```text
//! slot[0..15] = 120-bit incremental XOR-MAC
//! slot[15]    = timestamp bits (block i of the chunk → bit i)
//! ```
//!
//! The XOR-MAC algebra (decrypt → XOR old term out → XOR new term in →
//! encrypt) must hold *exactly*, so truncating a 128-bit MAC is not an
//! option; instead [`Prp120`] is a dedicated 120-bit permutation — a
//! four-round balanced Feistel over two 60-bit halves with XTEA-based
//! round PRFs — and [`XorMac120`] runs the Bellare–Guérin–Rogaway
//! construction natively in the 120-bit space.

use crate::digest::Digest;
use crate::prf::BlockPrf;
use crate::xtea::Xtea;

/// Width of the narrow MAC in bytes (120 bits).
pub const NARROW_MAC_BYTES: usize = 15;

/// A 120-bit MAC value.
pub type Mac120 = [u8; NARROW_MAC_BYTES];

const MASK60: u64 = (1 << 60) - 1;

/// A 120-bit pseudo-random permutation (balanced Feistel over 60-bit
/// halves, four rounds, XTEA round PRFs).
///
/// # Examples
///
/// ```
/// use miv_hash::narrow::Prp120;
///
/// let prp = Prp120::new([1u8; 16]);
/// let x = [7u8; 15];
/// assert_eq!(prp.decrypt(prp.encrypt(x)), x);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Prp120 {
    rounds: [Xtea; 4],
}

impl Prp120 {
    /// Derives the four round ciphers from a 128-bit master key.
    pub fn new(key: [u8; 16]) -> Self {
        let make = |round: u8| {
            let mut k = key;
            for (i, byte) in k.iter_mut().enumerate() {
                *byte = byte
                    .wrapping_mul(2 * round + 1)
                    .wrapping_add(0x3b ^ round)
                    .rotate_left(((i + round as usize) % 8) as u32);
            }
            Xtea::new(k)
        };
        Prp120 {
            rounds: [make(1), make(2), make(3), make(4)],
        }
    }

    /// The 60-bit round PRF.
    fn prf(cipher: &Xtea, half: u64, round: u32) -> u64 {
        let ct = cipher.encrypt_block([
            (half as u32) ^ round,
            ((half >> 32) as u32) ^ round.rotate_left(13),
        ]);
        (((ct[1] as u64) << 32) | ct[0] as u64) & MASK60
    }

    /// Encrypts a 120-bit value.
    pub fn encrypt(&self, block: Mac120) -> Mac120 {
        let (mut left, mut right) = unpack(block);
        for (i, cipher) in self.rounds.iter().enumerate() {
            let f = Self::prf(cipher, right, i as u32);
            let new_right = left ^ f;
            left = right;
            right = new_right;
        }
        pack(left, right)
    }

    /// Decrypts a 120-bit value.
    pub fn decrypt(&self, block: Mac120) -> Mac120 {
        let (mut left, mut right) = unpack(block);
        for (i, cipher) in self.rounds.iter().enumerate().rev() {
            let f = Self::prf(cipher, left, i as u32);
            let new_left = right ^ f;
            right = left;
            left = new_left;
        }
        pack(left, right)
    }
}

/// Splits 15 bytes into two 60-bit halves.
fn unpack(block: Mac120) -> (u64, u64) {
    let mut lo = [0u8; 8];
    lo.copy_from_slice(&block[0..8]);
    let mut hi = [0u8; 8];
    hi[..7].copy_from_slice(&block[8..15]);
    let lo = u64::from_le_bytes(lo);
    let hi = u64::from_le_bytes(hi);
    // 64 + 56 bits → left = low 60, right = remaining 60.
    let left = lo & MASK60;
    let right = (lo >> 60) | (hi << 4) & MASK60;
    (left, right & MASK60)
}

/// Packs two 60-bit halves into 15 bytes.
fn pack(left: u64, right: u64) -> Mac120 {
    let lo = (left & MASK60) | (right << 60);
    let hi = right >> 4;
    let mut out = [0u8; NARROW_MAC_BYTES];
    out[0..8].copy_from_slice(&lo.to_le_bytes());
    out[8..15].copy_from_slice(&hi.to_le_bytes()[..7]);
    out
}

/// The 120-bit incremental XOR-MAC with one-bit timestamps.
///
/// Mirrors [`XorMac`](crate::XorMac) but natively 120 bits wide so a MAC
/// plus eight timestamp bits fit in a 16-byte tree slot.
///
/// # Examples
///
/// ```
/// use miv_hash::narrow::XorMac120;
///
/// let mac = XorMac120::new([9u8; 16]);
/// let blocks: [&[u8]; 2] = [&[1u8; 64], &[2u8; 64]];
/// let tag = mac.mac_blocks(blocks.iter().copied().zip([false, false]));
/// let tag2 = mac.update(tag, 1, (blocks[1], false), (&[3u8; 64], true));
/// assert_eq!(
///     tag2,
///     mac.mac_blocks([(&[1u8; 64][..], false), (&[3u8; 64][..], true)]),
/// );
/// ```
#[derive(Debug, Clone, Copy)]
pub struct XorMac120 {
    prf: BlockPrf,
    prp: Prp120,
}

impl XorMac120 {
    /// Creates a MAC instance from a 128-bit key.
    pub fn new(key: [u8; 16]) -> Self {
        let mut prp_key = key;
        for (i, b) in prp_key.iter_mut().enumerate() {
            *b ^= 0xa7u8.rotate_left((i % 8) as u32);
        }
        XorMac120 {
            prf: BlockPrf::new(key, *b"miv-x120"),
            prp: Prp120::new(prp_key),
        }
    }

    /// The keyed PRF `h_k(index, block, timestamp)`, 120 bits wide: the
    /// first 15 bytes of [`XorMac::block_prf`](crate::XorMac::block_prf)'s
    /// construction under the domain tag `miv-x120`.
    pub fn block_prf(&self, index: u64, block: &[u8], timestamp: bool) -> Mac120 {
        narrow(self.prf.digest(index, block, timestamp))
    }

    /// Computes the MAC over a chunk's blocks from scratch.
    pub fn mac_blocks<'a, I>(&self, blocks: I) -> Mac120
    where
        I: IntoIterator<Item = (&'a [u8], bool)>,
    {
        self.prp.encrypt(narrow(self.prf.xor_sum(blocks)))
    }

    /// Applies a single-block change to an existing MAC in O(1).
    #[must_use]
    pub fn update(
        &self,
        mac: Mac120,
        index: u64,
        old: (&[u8], bool),
        new: (&[u8], bool),
    ) -> Mac120 {
        let mut inner = self.prp.decrypt(mac);
        xor_into(&mut inner, &narrow(self.prf.delta(index, old, new)));
        self.prp.encrypt(inner)
    }

    /// Verifies `mac` against the given blocks.
    pub fn verify<'a, I>(&self, mac: Mac120, blocks: I) -> bool
    where
        I: IntoIterator<Item = (&'a [u8], bool)>,
    {
        self.mac_blocks(blocks) == mac
    }
}

/// The first 120 bits of a PRF digest. Truncation commutes with XOR, so
/// a sum of full digests narrows to the sum of the narrowed terms.
fn narrow(full: Digest) -> Mac120 {
    let mut out = [0u8; NARROW_MAC_BYTES];
    out.copy_from_slice(&full.as_bytes()[..NARROW_MAC_BYTES]);
    out
}

fn xor_into(acc: &mut Mac120, term: &Mac120) {
    for (a, t) in acc.iter_mut().zip(term.iter()) {
        *a ^= t;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prp_roundtrip_and_permutation() {
        let prp = Prp120::new(*b"narrow-prp-key!!");
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..512u32 {
            let mut block = [0u8; 15];
            block[0..4].copy_from_slice(&i.to_le_bytes());
            block[11..15].copy_from_slice(&(i ^ 0xdead_beef).to_le_bytes());
            let ct = prp.encrypt(block);
            assert_eq!(prp.decrypt(ct), block, "roundtrip {i}");
            assert!(seen.insert(ct), "collision at {i}");
        }
    }

    #[test]
    fn pack_unpack_roundtrip() {
        for i in 0..200u64 {
            let mut block = [0u8; 15];
            block[0..8].copy_from_slice(&(i.wrapping_mul(0x9e3779b97f4a7c15)).to_le_bytes());
            block[8..15].copy_from_slice(&(i.wrapping_mul(0xc2b2ae3d27d4eb4f)).to_le_bytes()[..7]);
            let (l, r) = unpack(block);
            assert!(l <= MASK60 && r <= MASK60);
            assert_eq!(pack(l, r), block, "i={i}");
        }
    }

    #[test]
    fn prp_diffuses() {
        let prp = Prp120::new([0x5au8; 16]);
        let a = prp.encrypt([0u8; 15]);
        let mut flipped = [0u8; 15];
        flipped[0] = 1;
        let b = prp.encrypt(flipped);
        let bits: u32 = a
            .iter()
            .zip(b.iter())
            .map(|(x, y)| (x ^ y).count_ones())
            .sum();
        assert!(bits >= 30, "only {bits} bits differ");
    }

    #[test]
    fn incremental_update_matches_recompute() {
        let mac = XorMac120::new([0x21u8; 16]);
        let b0 = [0x10u8; 64];
        let b1 = vec![0x20u8; 64];
        let b2 = [0x30u8; 64];
        let tag = mac.mac_blocks([(&b0[..], false), (&b1[..], true), (&b2[..], false)]);
        let nb1 = vec![0x99u8; 64];
        let upd = mac.update(tag, 1, (&b1, true), (&nb1, false));
        let want = mac.mac_blocks([(&b0[..], false), (&nb1[..], false), (&b2[..], false)]);
        assert_eq!(upd, want);
    }

    #[test]
    fn timestamp_defeats_replay() {
        let mac = XorMac120::new([0x44u8; 16]);
        let old = vec![1u8; 32];
        let new = vec![2u8; 32];
        let tag0 = mac.mac_blocks([(&old[..], false)]);
        let tag1 = mac.update(tag0, 0, (&old, false), (&new, true));
        assert!(!mac.verify(tag1, [(&old[..], false)]));
        assert!(!mac.verify(tag1, [(&old[..], true)]));
        assert!(mac.verify(tag1, [(&new[..], true)]));
    }

    #[test]
    fn verify_rejects_tamper() {
        let mac = XorMac120::new([8u8; 16]);
        let blocks: Vec<Vec<u8>> = (0..4).map(|i| vec![i as u8; 64]).collect();
        let tag = mac.mac_blocks(blocks.iter().map(|b| (b.as_slice(), false)));
        assert!(mac.verify(tag, blocks.iter().map(|b| (b.as_slice(), false))));
        let mut bad = blocks.clone();
        bad[3][0] ^= 0x80;
        assert!(!mac.verify(tag, bad.iter().map(|b| (b.as_slice(), false))));
    }
}
