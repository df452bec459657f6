//! The keyed block PRF both XOR-MACs are built on.
//!
//! `h_k(index, block, timestamp) = MD5(key ‖ domain ‖ index LE ‖ timestamp ‖ block)`,
//! where `domain` is an 8-byte tag that separates [`XorMac`](crate::XorMac)
//! from [`XorMac120`](crate::narrow::XorMac120). The input is staged in
//! one stack buffer and hashed with one-shot [`md5`]; a MAC over several
//! blocks hashes its equal-length PRF inputs two at a time through
//! [`md5_multi`]. Blocks too long for the buffer are streamed.

use crate::digest::Digest;
use crate::md5::{md5, md5_multi, Md5};

/// Bytes ahead of the block: key, domain tag, index and timestamp.
const PREFIX: usize = 16 + 8 + 8 + 1;

/// Staging buffer size: holds the PRF input of blocks up to 159 bytes,
/// which covers the 64- and 128-byte cache blocks the trees use.
const STAGE: usize = 192;

/// A keyed, domain-separated block PRF.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BlockPrf {
    key: [u8; 16],
    domain: [u8; 8],
}

impl BlockPrf {
    pub(crate) fn new(key: [u8; 16], domain: [u8; 8]) -> Self {
        BlockPrf { key, domain }
    }

    /// The PRF input in a stack buffer, or `None` if it does not fit.
    fn staged(&self, index: u64, block: &[u8], timestamp: bool) -> Option<[u8; STAGE]> {
        if block.len() > STAGE - PREFIX {
            return None;
        }
        let mut buf = [0u8; STAGE];
        buf[..16].copy_from_slice(&self.key);
        buf[16..24].copy_from_slice(&self.domain);
        buf[24..32].copy_from_slice(&index.to_le_bytes());
        buf[32] = timestamp as u8;
        buf[PREFIX..PREFIX + block.len()].copy_from_slice(block);
        Some(buf)
    }

    /// `h_k(index, block, timestamp)`.
    pub(crate) fn digest(&self, index: u64, block: &[u8], timestamp: bool) -> Digest {
        if let Some(buf) = self.staged(index, block, timestamp) {
            return md5(&buf[..PREFIX + block.len()]);
        }
        let mut ctx = Md5::new();
        ctx.update(&self.key);
        ctx.update(&self.domain);
        ctx.update(&index.to_le_bytes());
        ctx.update(&[timestamp as u8]);
        ctx.update(block);
        ctx.finalize()
    }

    /// `h_k(a) ⊕ h_k(b)`, hashing both inputs side by side when they are
    /// the same length and fit the staging buffer.
    fn pair_xor(&self, a: (u64, &[u8], bool), b: (u64, &[u8], bool)) -> Digest {
        if a.1.len() == b.1.len() {
            if let (Some(x), Some(y)) = (self.staged(a.0, a.1, a.2), self.staged(b.0, b.1, b.2)) {
                let len = PREFIX + a.1.len();
                let [dx, dy] = md5_multi(&[&x[..len], &y[..len]]);
                return dx ^ dy;
            }
        }
        self.digest(a.0, a.1, a.2) ^ self.digest(b.0, b.1, b.2)
    }

    /// XOR of `h_k(i, block_i, ts_i)` over the blocks of a chunk, where
    /// `i` is the block's position in `blocks`.
    pub(crate) fn xor_sum<'a, I>(&self, blocks: I) -> Digest
    where
        I: IntoIterator<Item = (&'a [u8], bool)>,
    {
        let mut acc = Digest::ZERO;
        let mut blocks = blocks.into_iter().zip(0u64..);
        while let Some(((a, ts_a), i)) = blocks.next() {
            acc ^= match blocks.next() {
                Some(((b, ts_b), j)) => self.pair_xor((i, a, ts_a), (j, b, ts_b)),
                None => self.digest(i, a, ts_a),
            };
        }
        acc
    }

    /// `h_k(index, old) ⊕ h_k(index, new)`: the term a single-block
    /// update XORs into a MAC's inner value.
    pub(crate) fn delta(&self, index: u64, old: (&[u8], bool), new: (&[u8], bool)) -> Digest {
        self.pair_xor((index, old.0, old.1), (index, new.0, new.1))
    }
}
