//! The SHA-1 secure hash algorithm (RFC 3174 / FIPS 180-1).
//!
//! SHA-1 is the paper's alternative hash unit (§6.2): a 512-bit block is
//! digested into 160 bits over 80 rounds. The integrity tree uses 128-bit
//! digests (Table 1, "hash length 128 bits"), so
//! [`Sha1Hasher`](crate::digest::Sha1Hasher) truncates the output; the raw
//! 20-byte digest is available from [`Sha1::finalize`].
//!
//! # Security
//!
//! SHA-1 is broken for collision resistance. It is implemented here because
//! the paper evaluates it; see the crate-level documentation.

/// Initial state H0..H4.
const INIT: [u32; 5] = [0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476, 0xc3d2e1f0];

/// A streaming SHA-1 context.
///
/// # Examples
///
/// ```
/// use miv_hash::sha1::Sha1;
///
/// let mut ctx = Sha1::new();
/// ctx.update(b"abc");
/// assert_eq!(
///     Sha1::to_hex(&ctx.finalize()),
///     "a9993e364706816aba3e25717850c26c9cd0d89d",
/// );
/// ```
#[derive(Debug, Clone)]
pub struct Sha1 {
    state: [u32; 5],
    len: u64,
    buf: [u8; 64],
    buf_len: usize,
}

impl Default for Sha1 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha1 {
    /// Creates a fresh SHA-1 context.
    pub fn new() -> Self {
        Sha1 {
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
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == 64 {
                compress(&mut self.state, &{ self.buf });
                self.buf_len = 0;
            }
        }
        while data.len() >= 64 {
            let (block, rest) = data.split_at(64);
            compress(&mut self.state, block.try_into().expect("64-byte split"));
            data = rest;
        }
        if !data.is_empty() {
            self.buf[..data.len()].copy_from_slice(data);
            self.buf_len = data.len();
        }
    }

    /// Completes the digest, returning the full 20-byte value.
    pub fn finalize(mut self) -> [u8; 20] {
        let bit_len = self.len.wrapping_mul(8);
        self.update(&[0x80]);
        while self.buf_len != 56 {
            self.update(&[0]);
        }
        self.buf[56..64].copy_from_slice(&bit_len.to_be_bytes());
        compress(&mut self.state, &{ self.buf });

        state_digest(&self.state)
    }

    /// Renders a 20-byte digest as lowercase hex.
    pub fn to_hex(digest: &[u8; 20]) -> String {
        digest.iter().map(|b| format!("{b:02x}")).collect()
    }
}

/// Serializes a SHA-1 state into the big-endian 160-bit digest.
fn state_digest(state: &[u32; 5]) -> [u8; 20] {
    let mut out = [0u8; 20];
    for (i, word) in state.iter().enumerate() {
        out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// One 512-bit compression step on a bare state.
fn compress(state: &mut [u32; 5], block: &[u8; 64]) {
    let mut lanes = [*state];
    compress_multi(&mut lanes, &[block]);
    *state = lanes[0];
}

/// One 512-bit compression step across `N` independent lanes (see
/// [`md5`](crate::md5) for the interleaving rationale).
fn compress_multi<const N: usize>(states: &mut [[u32; 5]; N], blocks: &[&[u8; 64]; N]) {
    let mut w = [[0u32; 80]; N];
    for (lane, block) in blocks.iter().enumerate() {
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[lane][i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for i in 16..80 {
            w[lane][i] = (w[lane][i - 3] ^ w[lane][i - 8] ^ w[lane][i - 14] ^ w[lane][i - 16])
                .rotate_left(1);
        }
    }
    let mut a: [u32; N] = std::array::from_fn(|l| states[l][0]);
    let mut b: [u32; N] = std::array::from_fn(|l| states[l][1]);
    let mut c: [u32; N] = std::array::from_fn(|l| states[l][2]);
    let mut d: [u32; N] = std::array::from_fn(|l| states[l][3]);
    let mut e: [u32; N] = std::array::from_fn(|l| states[l][4]);
    // The round counter selects k/f AND indexes every lane's schedule;
    // an enumerate over one lane's `w` would misread the lockstep shape.
    #[expect(
        clippy::needless_range_loop,
        reason = "the round counter indexes every lane's schedule in lockstep"
    )]
    for i in 0..80 {
        let k: u32 = match i / 20 {
            0 => 0x5a827999,
            1 => 0x6ed9eba1,
            2 => 0x8f1bbcdc,
            _ => 0xca62c1d6,
        };
        for l in 0..N {
            let f = match i / 20 {
                0 => (b[l] & c[l]) | (!b[l] & d[l]),
                2 => (b[l] & c[l]) | (b[l] & d[l]) | (c[l] & d[l]),
                _ => b[l] ^ c[l] ^ d[l],
            };
            let tmp = a[l]
                .rotate_left(5)
                .wrapping_add(f)
                .wrapping_add(e[l])
                .wrapping_add(k)
                .wrapping_add(w[l][i]);
            e[l] = d[l];
            d[l] = c[l];
            c[l] = b[l].rotate_left(30);
            b[l] = a[l];
            a[l] = tmp;
        }
    }
    for l in 0..N {
        states[l][0] = states[l][0].wrapping_add(a[l]);
        states[l][1] = states[l][1].wrapping_add(b[l]);
        states[l][2] = states[l][2].wrapping_add(c[l]);
        states[l][3] = states[l][3].wrapping_add(d[l]);
        states[l][4] = states[l][4].wrapping_add(e[l]);
    }
}

/// Computes the SHA-1 digest of `data` in one shot.
///
/// Full blocks are compressed directly from `data` (no staging buffer);
/// only the final padded block(s) are staged.
///
/// # Examples
///
/// ```
/// use miv_hash::sha1::{sha1, Sha1};
///
/// let d = sha1(b"");
/// assert_eq!(Sha1::to_hex(&d), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
/// ```
pub fn sha1(data: &[u8]) -> [u8; 20] {
    let mut state = INIT;
    let mut blocks = data.chunks_exact(64);
    for block in blocks.by_ref() {
        compress(&mut state, block.try_into().expect("64-byte chunk"));
    }
    let (tail_blocks, mut tail) = crate::md5::pad_tail(blocks.remainder());
    let bit_len = (data.len() as u64).wrapping_mul(8);
    tail[tail_blocks * 64 - 8..tail_blocks * 64].copy_from_slice(&bit_len.to_be_bytes());
    for t in 0..tail_blocks {
        compress(
            &mut state,
            tail[t * 64..t * 64 + 64].try_into().expect("64"),
        );
    }
    state_digest(&state)
}

/// Digests `N` equal-length messages through the interleaved multi-lane
/// compression, returning one 20-byte digest per lane.
///
/// # Panics
///
/// Panics if the messages are not all the same length.
///
/// # Examples
///
/// ```
/// use miv_hash::sha1::{sha1, sha1_multi};
///
/// let out = sha1_multi(&[b"aaaa", b"bbbb", b"cccc", b"dddd"]);
/// assert_eq!(out[1], sha1(b"bbbb"));
/// ```
pub fn sha1_multi<const N: usize>(msgs: &[&[u8]; N]) -> [[u8; 20]; N] {
    let len = msgs[0].len();
    assert!(
        msgs.iter().all(|m| m.len() == len),
        "sha1_multi lanes must be equal length"
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
        let (blocks, mut staged) = crate::md5::pad_tail(&msgs[lane][full * 64..]);
        staged[blocks * 64 - 8..blocks * 64].copy_from_slice(&bit_len.to_be_bytes());
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

    /// RFC 3174 / FIPS 180-1 test vectors.
    #[test]
    fn fips_vectors() {
        let cases: &[(&[u8], &str)] = &[
            (b"", "da39a3ee5e6b4b0d3255bfef95601890afd80709"),
            (b"abc", "a9993e364706816aba3e25717850c26c9cd0d89d"),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "84983e441c3bd26ebaae4aa1f95129e5e54670f1",
            ),
            (
                b"The quick brown fox jumps over the lazy dog",
                "2fd4e1c67a2d28fced849ee1bb76e7391b93eb12",
            ),
        ];
        for (input, want) in cases {
            assert_eq!(Sha1::to_hex(&sha1(input)), *want, "sha1({:?})", input);
        }
    }

    #[test]
    fn million_a() {
        let mut ctx = Sha1::new();
        let block = [b'a'; 1000];
        for _ in 0..1000 {
            ctx.update(&block);
        }
        assert_eq!(
            Sha1::to_hex(&ctx.finalize()),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f"
        );
    }

    #[test]
    fn streaming_matches_oneshot_at_all_split_points() {
        let data: Vec<u8> = (0..150u16).map(|i| (i * 13 + 1) as u8).collect();
        let want = sha1(&data);
        for split in 0..data.len() {
            let mut ctx = Sha1::new();
            ctx.update(&data[..split]);
            ctx.update(&data[split..]);
            assert_eq!(ctx.finalize(), want, "split at {split}");
        }
    }

    #[test]
    fn multi_lane_matches_scalar_across_padding_boundaries() {
        for len in [0usize, 1, 7, 55, 56, 57, 63, 64, 65, 119, 120, 128, 200] {
            let msgs: Vec<Vec<u8>> = (0..4u8)
                .map(|lane| (0..len).map(|i| (i as u8).wrapping_mul(lane + 5)).collect())
                .collect();
            let refs: [&[u8]; 4] = std::array::from_fn(|l| &msgs[l][..]);
            let got = sha1_multi(&refs);
            for lane in 0..4 {
                assert_eq!(got[lane], sha1(&msgs[lane]), "len {len} lane {lane}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn multi_lane_rejects_ragged_input() {
        sha1_multi(&[&b"aa"[..], &b"bbb"[..]]);
    }

    #[test]
    fn padding_boundary_lengths() {
        for len in [55usize, 56, 57, 63, 64, 65] {
            let data = vec![0x5au8; len];
            let one = sha1(&data);
            let mut ctx = Sha1::new();
            for b in &data {
                ctx.update(std::slice::from_ref(b));
            }
            assert_eq!(ctx.finalize(), one, "len {len}");
        }
    }
}
