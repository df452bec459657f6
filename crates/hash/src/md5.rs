//! The MD5 message-digest algorithm (RFC 1321).
//!
//! MD5 is the hash the paper's hardware unit implements (§6.2): a 512-bit
//! block is digested into 128 bits through 64 rounds of simple 32-bit
//! operations. This module provides a streaming [`Md5`] context, the
//! one-shot [`md5`] function (which compresses full blocks straight from
//! the input slice, no staging copy), and the multi-lane [`md5_multi`]
//! (N independent equal-length messages interleaved through one pass of
//! the round function, so the lanes' per-round dependency chains overlap
//! — instruction-level parallelism a single message cannot expose).
//!
//! # Security
//!
//! MD5 is broken for collision resistance. It is implemented here because
//! the paper evaluates it; see the crate-level documentation.

use crate::digest::Digest;

/// Round constants: `floor(2^32 * abs(sin(i+1)))`.
const K: [u32; 64] = [
    0xd76aa478, 0xe8c7b756, 0x242070db, 0xc1bdceee, 0xf57c0faf, 0x4787c62a, 0xa8304613, 0xfd469501,
    0x698098d8, 0x8b44f7af, 0xffff5bb1, 0x895cd7be, 0x6b901122, 0xfd987193, 0xa679438e, 0x49b40821,
    0xf61e2562, 0xc040b340, 0x265e5a51, 0xe9b6c7aa, 0xd62f105d, 0x02441453, 0xd8a1e681, 0xe7d3fbc8,
    0x21e1cde6, 0xc33707d6, 0xf4d50d87, 0x455a14ed, 0xa9e3e905, 0xfcefa3f8, 0x676f02d9, 0x8d2a4c8a,
    0xfffa3942, 0x8771f681, 0x6d9d6122, 0xfde5380c, 0xa4beea44, 0x4bdecfa9, 0xf6bb4b60, 0xbebfbc70,
    0x289b7ec6, 0xeaa127fa, 0xd4ef3085, 0x04881d05, 0xd9d4d039, 0xe6db99e5, 0x1fa27cf8, 0xc4ac5665,
    0xf4292244, 0x432aff97, 0xab9423a7, 0xfc93a039, 0x655b59c3, 0x8f0ccc92, 0xffeff47d, 0x85845dd1,
    0x6fa87e4f, 0xfe2ce6e0, 0xa3014314, 0x4e0811a1, 0xf7537e82, 0xbd3af235, 0x2ad7d2bb, 0xeb86d391,
];

/// Initial state A/B/C/D.
const INIT: [u32; 4] = [0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476];

/// A streaming MD5 context.
///
/// Feed data with [`update`](Md5::update), then call
/// [`finalize`](Md5::finalize) to obtain the 128-bit [`Digest`].
///
/// # Examples
///
/// ```
/// use miv_hash::md5::Md5;
///
/// let mut ctx = Md5::new();
/// ctx.update(b"hello ");
/// ctx.update(b"world");
/// assert_eq!(ctx.finalize().to_hex(), "5eb63bbbe01eeed093cb22bb8f5acdc3");
/// ```
#[derive(Debug, Clone)]
pub struct Md5 {
    state: [u32; 4],
    /// Total message length in bytes, modulo 2^64.
    len: u64,
    buf: [u8; 64],
    buf_len: usize,
}

impl Default for Md5 {
    fn default() -> Self {
        Self::new()
    }
}

impl Md5 {
    /// Creates a fresh MD5 context.
    pub fn new() -> Self {
        Md5 {
            state: INIT,
            len: 0,
            buf: [0u8; 64],
            buf_len: 0,
        }
    }

    /// Absorbs `data` into the digest state.
    pub fn update(&mut self, data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        let mut data = data;
        // Fill a partially-filled buffer first.
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == 64 {
                let block = self.buf;
                self.compress(&block);
                self.buf_len = 0;
            }
        }
        // Whole blocks straight from the input — no staging copy.
        while data.len() >= 64 {
            let (block, rest) = data.split_at(64);
            compress(&mut self.state, block.try_into().expect("64-byte split"));
            data = rest;
        }
        // Stash the tail.
        if !data.is_empty() {
            self.buf[..data.len()].copy_from_slice(data);
            self.buf_len = data.len();
        }
    }

    /// Completes the digest, consuming the context.
    pub fn finalize(self) -> Digest {
        let mut state = self.state;
        finish(&mut state, &self.buf[..self.buf_len], self.len);
        state_digest(&state)
    }

    /// One 512-bit compression step.
    fn compress(&mut self, block: &[u8; 64]) {
        compress(&mut self.state, block);
    }
}

/// Serializes an MD5 state into the little-endian 128-bit digest.
fn state_digest(state: &[u32; 4]) -> Digest {
    let mut out = [0u8; 16];
    for (i, word) in state.iter().enumerate() {
        out[i * 4..i * 4 + 4].copy_from_slice(&word.to_le_bytes());
    }
    Digest::from_bytes(out)
}

/// One 512-bit compression step on a bare state.
fn compress(state: &mut [u32; 4], block: &[u8; 64]) {
    let mut lanes = [*state];
    compress_multi(&mut lanes, &[block]);
    *state = lanes[0];
}

/// One MD5 step on every lane: `a = b + ((a + f(b, c, d) + K[i] + m[g]) <<< s)`.
///
/// The caller rotates the roles of the four state words instead of
/// moving them, so a step is a single assignment.
macro_rules! step {
    ($m:ident, $f:ident, $a:ident, $b:ident, $c:ident, $d:ident, $i:expr, $g:expr, $s:expr) => {
        for l in 0..$a.len() {
            $a[l] = $b[l].wrapping_add(
                $a[l]
                    .wrapping_add($f($b[l], $c[l], $d[l]))
                    .wrapping_add(K[$i])
                    .wrapping_add($m[l][$g])
                    .rotate_left($s),
            );
        }
    };
}

/// Round 1 mixing function `(b ∧ c) ∨ (¬b ∧ d)`, as the equal `d ⊕ (b ∧ (c ⊕ d))`.
#[inline(always)]
fn f(b: u32, c: u32, d: u32) -> u32 {
    d ^ (b & (c ^ d))
}

/// Round 2 mixing function `(b ∧ d) ∨ (c ∧ ¬d)`, as the equal `c ⊕ (d ∧ (b ⊕ c))`.
#[inline(always)]
fn g(b: u32, c: u32, d: u32) -> u32 {
    c ^ (d & (b ^ c))
}

/// Round 3 mixing function.
#[inline(always)]
fn h(b: u32, c: u32, d: u32) -> u32 {
    b ^ c ^ d
}

/// Round 4 mixing function.
#[inline(always)]
fn i(b: u32, c: u32, d: u32) -> u32 {
    c ^ (b | !d)
}

/// One 512-bit compression step across `N` independent lanes.
///
/// The 64 steps are written out with constant message indices and
/// rotations, and each step runs across all lanes, so the lanes' serial
/// dependency chains (four adds and a rotate per step each) overlap in
/// the pipeline; with `N = 1` this is the scalar routine.
fn compress_multi<const N: usize>(states: &mut [[u32; 4]; N], blocks: &[&[u8; 64]; N]) {
    let mut m = [[0u32; 16]; N];
    for (lane, block) in blocks.iter().enumerate() {
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            m[lane][i] = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
    }
    let mut a: [u32; N] = std::array::from_fn(|l| states[l][0]);
    let mut b: [u32; N] = std::array::from_fn(|l| states[l][1]);
    let mut c: [u32; N] = std::array::from_fn(|l| states[l][2]);
    let mut d: [u32; N] = std::array::from_fn(|l| states[l][3]);

    step!(m, f, a, b, c, d, 0, 0, 7);
    step!(m, f, d, a, b, c, 1, 1, 12);
    step!(m, f, c, d, a, b, 2, 2, 17);
    step!(m, f, b, c, d, a, 3, 3, 22);
    step!(m, f, a, b, c, d, 4, 4, 7);
    step!(m, f, d, a, b, c, 5, 5, 12);
    step!(m, f, c, d, a, b, 6, 6, 17);
    step!(m, f, b, c, d, a, 7, 7, 22);
    step!(m, f, a, b, c, d, 8, 8, 7);
    step!(m, f, d, a, b, c, 9, 9, 12);
    step!(m, f, c, d, a, b, 10, 10, 17);
    step!(m, f, b, c, d, a, 11, 11, 22);
    step!(m, f, a, b, c, d, 12, 12, 7);
    step!(m, f, d, a, b, c, 13, 13, 12);
    step!(m, f, c, d, a, b, 14, 14, 17);
    step!(m, f, b, c, d, a, 15, 15, 22);

    step!(m, g, a, b, c, d, 16, 1, 5);
    step!(m, g, d, a, b, c, 17, 6, 9);
    step!(m, g, c, d, a, b, 18, 11, 14);
    step!(m, g, b, c, d, a, 19, 0, 20);
    step!(m, g, a, b, c, d, 20, 5, 5);
    step!(m, g, d, a, b, c, 21, 10, 9);
    step!(m, g, c, d, a, b, 22, 15, 14);
    step!(m, g, b, c, d, a, 23, 4, 20);
    step!(m, g, a, b, c, d, 24, 9, 5);
    step!(m, g, d, a, b, c, 25, 14, 9);
    step!(m, g, c, d, a, b, 26, 3, 14);
    step!(m, g, b, c, d, a, 27, 8, 20);
    step!(m, g, a, b, c, d, 28, 13, 5);
    step!(m, g, d, a, b, c, 29, 2, 9);
    step!(m, g, c, d, a, b, 30, 7, 14);
    step!(m, g, b, c, d, a, 31, 12, 20);

    step!(m, h, a, b, c, d, 32, 5, 4);
    step!(m, h, d, a, b, c, 33, 8, 11);
    step!(m, h, c, d, a, b, 34, 11, 16);
    step!(m, h, b, c, d, a, 35, 14, 23);
    step!(m, h, a, b, c, d, 36, 1, 4);
    step!(m, h, d, a, b, c, 37, 4, 11);
    step!(m, h, c, d, a, b, 38, 7, 16);
    step!(m, h, b, c, d, a, 39, 10, 23);
    step!(m, h, a, b, c, d, 40, 13, 4);
    step!(m, h, d, a, b, c, 41, 0, 11);
    step!(m, h, c, d, a, b, 42, 3, 16);
    step!(m, h, b, c, d, a, 43, 6, 23);
    step!(m, h, a, b, c, d, 44, 9, 4);
    step!(m, h, d, a, b, c, 45, 12, 11);
    step!(m, h, c, d, a, b, 46, 15, 16);
    step!(m, h, b, c, d, a, 47, 2, 23);

    step!(m, i, a, b, c, d, 48, 0, 6);
    step!(m, i, d, a, b, c, 49, 7, 10);
    step!(m, i, c, d, a, b, 50, 14, 15);
    step!(m, i, b, c, d, a, 51, 5, 21);
    step!(m, i, a, b, c, d, 52, 12, 6);
    step!(m, i, d, a, b, c, 53, 3, 10);
    step!(m, i, c, d, a, b, 54, 10, 15);
    step!(m, i, b, c, d, a, 55, 1, 21);
    step!(m, i, a, b, c, d, 56, 8, 6);
    step!(m, i, d, a, b, c, 57, 15, 10);
    step!(m, i, c, d, a, b, 58, 6, 15);
    step!(m, i, b, c, d, a, 59, 13, 21);
    step!(m, i, a, b, c, d, 60, 4, 6);
    step!(m, i, d, a, b, c, 61, 11, 10);
    step!(m, i, c, d, a, b, 62, 2, 15);
    step!(m, i, b, c, d, a, 63, 9, 21);

    for l in 0..N {
        states[l][0] = states[l][0].wrapping_add(a[l]);
        states[l][1] = states[l][1].wrapping_add(b[l]);
        states[l][2] = states[l][2].wrapping_add(c[l]);
        states[l][3] = states[l][3].wrapping_add(d[l]);
    }
}

/// Merkle–Damgård padding layout shared by MD5 and SHA-1: returns the
/// number of tail blocks (1 or 2) and the two staged 64-byte blocks with
/// the `0x80` marker placed after `rem` remainder bytes. The caller
/// writes the 8-byte length word (LE for MD5, BE for SHA-1).
pub(crate) fn pad_tail(rem: &[u8]) -> (usize, [u8; 128]) {
    debug_assert!(rem.len() < 64);
    let mut tail = [0u8; 128];
    tail[..rem.len()].copy_from_slice(rem);
    tail[rem.len()] = 0x80;
    let blocks = if rem.len() >= 56 { 2 } else { 1 };
    (blocks, tail)
}

/// Compresses the padded tail of a message: `rem` is what is left after
/// its last full block and `len` the whole message's length in bytes.
fn finish(state: &mut [u32; 4], rem: &[u8], len: u64) {
    let (tail_blocks, mut tail) = pad_tail(rem);
    let bit_len = len.wrapping_mul(8);
    tail[tail_blocks * 64 - 8..tail_blocks * 64].copy_from_slice(&bit_len.to_le_bytes());
    for t in 0..tail_blocks {
        compress(state, tail[t * 64..t * 64 + 64].try_into().expect("64"));
    }
}

/// Computes the MD5 digest of `data` in one shot.
///
/// Full blocks are compressed directly from `data` (no staging buffer);
/// only the final padded block(s) are staged.
///
/// # Examples
///
/// ```
/// use miv_hash::md5::md5;
///
/// assert_eq!(md5(b"").to_hex(), "d41d8cd98f00b204e9800998ecf8427e");
/// ```
pub fn md5(data: &[u8]) -> Digest {
    let mut state = INIT;
    let mut blocks = data.chunks_exact(64);
    for block in blocks.by_ref() {
        compress(&mut state, block.try_into().expect("64-byte chunk"));
    }
    finish(&mut state, blocks.remainder(), data.len() as u64);
    state_digest(&state)
}

/// Digests `N` equal-length messages through the interleaved multi-lane
/// compression, returning one digest per lane.
///
/// Equal lengths keep every lane on the same block schedule (including
/// the padding blocks), which is exactly the shape the integrity tree's
/// batched flush produces: same-geometry chunk images. For mixed-length
/// batches use [`ChunkHasher::digest_batch`](crate::ChunkHasher), which
/// buckets messages by length so equal-length messages share a lane
/// group wherever they sit in the batch.
///
/// # Panics
///
/// Panics if the messages are not all the same length.
///
/// # Examples
///
/// ```
/// use miv_hash::md5::{md5, md5_multi};
///
/// let out = md5_multi(&[b"aaaa", b"bbbb", b"cccc", b"dddd"]);
/// assert_eq!(out[2], md5(b"cccc"));
/// ```
pub fn md5_multi<const N: usize>(msgs: &[&[u8]; N]) -> [Digest; N] {
    let len = msgs[0].len();
    assert!(
        msgs.iter().all(|m| m.len() == len),
        "md5_multi lanes must be equal length"
    );
    let mut states = [INIT; N];
    let full = len / 64;
    for blk in 0..full {
        let blocks: [&[u8; 64]; N] =
            std::array::from_fn(|l| msgs[l][blk * 64..blk * 64 + 64].try_into().expect("64"));
        compress_multi(&mut states, &blocks);
    }
    let bit_len = (len as u64).wrapping_mul(8);
    let mut tails = [[0u8; 128]; N];
    let mut tail_blocks = 1;
    for (lane, tail) in tails.iter_mut().enumerate() {
        let (blocks, mut staged) = pad_tail(&msgs[lane][full * 64..]);
        staged[blocks * 64 - 8..blocks * 64].copy_from_slice(&bit_len.to_le_bytes());
        *tail = staged;
        tail_blocks = blocks;
    }
    for t in 0..tail_blocks {
        let blocks: [&[u8; 64]; N] =
            std::array::from_fn(|l| tails[l][t * 64..t * 64 + 64].try_into().expect("64"));
        compress_multi(&mut states, &blocks);
    }
    std::array::from_fn(|l| state_digest(&states[l]))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// RFC 1321 appendix A.5 test suite.
    #[test]
    fn rfc1321_vectors() {
        let cases: &[(&[u8], &str)] = &[
            (b"", "d41d8cd98f00b204e9800998ecf8427e"),
            (b"a", "0cc175b9c0f1b6a831c399e269772661"),
            (b"abc", "900150983cd24fb0d6963f7d28e17f72"),
            (b"message digest", "f96b697d7cb7938d525a2f31aaf161d0"),
            (
                b"abcdefghijklmnopqrstuvwxyz",
                "c3fcd3d76192e4007dfb496cca67e13b",
            ),
            (
                b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
                "d174ab98d277d9f5a5611c2c9f419d9f",
            ),
            (
                b"12345678901234567890123456789012345678901234567890123456789012345678901234567890",
                "57edf4a22be3c955ac49da2e2107b67a",
            ),
        ];
        for (input, want) in cases {
            assert_eq!(md5(input).to_hex(), *want, "md5({:?})", input);
        }
    }

    #[test]
    fn streaming_matches_oneshot_at_all_split_points() {
        let data: Vec<u8> = (0..200u16).map(|i| (i * 7 + 3) as u8).collect();
        let want = md5(&data);
        for split in 0..data.len() {
            let mut ctx = Md5::new();
            ctx.update(&data[..split]);
            ctx.update(&data[split..]);
            assert_eq!(ctx.finalize(), want, "split at {split}");
        }
    }

    #[test]
    fn block_boundary_lengths() {
        // Lengths straddling padding boundaries (55/56/57, 63/64/65, 119/120).
        for len in [0usize, 1, 55, 56, 57, 63, 64, 65, 119, 120, 127, 128, 129] {
            let data = vec![0xabu8; len];
            let d1 = md5(&data);
            let mut ctx = Md5::new();
            for byte in &data {
                ctx.update(std::slice::from_ref(byte));
            }
            assert_eq!(ctx.finalize(), d1, "len {len}");
        }
    }

    #[test]
    fn distinct_inputs_distinct_digests() {
        let a = md5(b"chunk-0");
        let b = md5(b"chunk-1");
        assert_ne!(a, b);
    }

    #[test]
    fn million_a() {
        // Classic extended vector: one million repetitions of "a".
        let mut ctx = Md5::new();
        let block = [b'a'; 1000];
        for _ in 0..1000 {
            ctx.update(&block);
        }
        assert_eq!(ctx.finalize().to_hex(), "7707d6ae4e027c70eea2a935c2296f21");
    }

    #[test]
    fn multi_lane_matches_scalar_across_padding_boundaries() {
        // Lengths on both sides of every padding layout: 0 (empty), short
        // tail, 55/56/57 (one vs two tail blocks), exact block multiples,
        // and multi-block messages.
        for len in [0usize, 1, 7, 55, 56, 57, 63, 64, 65, 119, 120, 128, 200] {
            let msgs: Vec<Vec<u8>> = (0..4u8)
                .map(|lane| (0..len).map(|i| (i as u8).wrapping_mul(lane + 3)).collect())
                .collect();
            let refs: [&[u8]; 4] = std::array::from_fn(|l| &msgs[l][..]);
            let got = md5_multi(&refs);
            for lane in 0..4 {
                assert_eq!(got[lane], md5(&msgs[lane]), "len {len} lane {lane}");
            }
        }
    }

    #[test]
    fn multi_lane_other_widths() {
        let m = b"The quick brown fox jumps over the lazy dog";
        assert_eq!(md5_multi(&[&m[..]]), [md5(m)]);
        let eight: [&[u8]; 8] = [&m[..]; 8];
        for d in md5_multi(&eight) {
            assert_eq!(d, md5(m));
        }
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn multi_lane_rejects_ragged_input() {
        md5_multi(&[&b"aa"[..], &b"bbb"[..]]);
    }
}
