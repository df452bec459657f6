//! The SHA-256 secure hash algorithm (FIPS 180-4).
//!
//! SHA-256 is the modern default hash in every contemporary integrity
//! system, and the natural third hash unit next to the paper's MD5 and
//! SHA-1 (§6.2). A 512-bit block is digested into 256 bits over 64
//! rounds. The integrity tree uses 128-bit digests (Table 1, "hash
//! length 128 bits"), so [`Sha256Hasher`](crate::digest::Sha256Hasher)
//! truncates the output; the raw 32-byte digest is available from
//! [`Sha256::finalize`].

/// Initial state H0..H7 (fractional parts of the square roots of the
/// first eight primes).
const INIT: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Round constants K0..K63 (fractional parts of the cube roots of the
/// first 64 primes).
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// A streaming SHA-256 context.
///
/// # Examples
///
/// ```
/// use miv_hash::sha256::Sha256;
///
/// let mut ctx = Sha256::new();
/// ctx.update(b"abc");
/// assert_eq!(
///     Sha256::to_hex(&ctx.finalize()),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
/// );
/// ```
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    len: u64,
    buf: [u8; 64],
    buf_len: usize,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh SHA-256 context.
    pub fn new() -> Self {
        Sha256 {
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

    /// Completes the digest, returning the full 32-byte value.
    pub fn finalize(mut self) -> [u8; 32] {
        let bit_len = self.len.wrapping_mul(8);
        self.update(&[0x80]);
        while self.buf_len != 56 {
            self.update(&[0]);
        }
        self.buf[56..64].copy_from_slice(&bit_len.to_be_bytes());
        compress(&mut self.state, &{ self.buf });

        state_digest(&self.state)
    }

    /// Renders a 32-byte digest as lowercase hex.
    pub fn to_hex(digest: &[u8; 32]) -> String {
        digest.iter().map(|b| format!("{b:02x}")).collect()
    }
}

/// Serializes a SHA-256 state into the big-endian 256-bit digest.
fn state_digest(state: &[u32; 8]) -> [u8; 32] {
    let mut out = [0u8; 32];
    for (i, word) in state.iter().enumerate() {
        out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// One 512-bit compression step on a bare state.
fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut lanes = [*state];
    compress_multi(&mut lanes, &[block]);
    *state = lanes[0];
}

/// One 512-bit compression step across `N` independent lanes (see
/// [`md5`](crate::md5) for the interleaving rationale). SHA-256 keeps
/// eight state words live per lane — twice MD5's four — so its
/// profitable lane count is narrower; the per-algorithm
/// [`batch_lanes`](crate::ChunkHasher::batch_lanes) widths track that.
fn compress_multi<const N: usize>(states: &mut [[u32; 8]; N], blocks: &[&[u8; 64]; N]) {
    let mut w = [[0u32; 64]; N];
    for (lane, block) in blocks.iter().enumerate() {
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[lane][i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for i in 16..64 {
            let s0 = w[lane][i - 15].rotate_right(7)
                ^ w[lane][i - 15].rotate_right(18)
                ^ (w[lane][i - 15] >> 3);
            let s1 = w[lane][i - 2].rotate_right(17)
                ^ w[lane][i - 2].rotate_right(19)
                ^ (w[lane][i - 2] >> 10);
            w[lane][i] = w[lane][i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[lane][i - 7])
                .wrapping_add(s1);
        }
    }
    let mut a: [u32; N] = std::array::from_fn(|l| states[l][0]);
    let mut b: [u32; N] = std::array::from_fn(|l| states[l][1]);
    let mut c: [u32; N] = std::array::from_fn(|l| states[l][2]);
    let mut d: [u32; N] = std::array::from_fn(|l| states[l][3]);
    let mut e: [u32; N] = std::array::from_fn(|l| states[l][4]);
    let mut f: [u32; N] = std::array::from_fn(|l| states[l][5]);
    let mut g: [u32; N] = std::array::from_fn(|l| states[l][6]);
    let mut h: [u32; N] = std::array::from_fn(|l| states[l][7]);
    for i in 0..64 {
        for l in 0..N {
            let s1 = e[l].rotate_right(6) ^ e[l].rotate_right(11) ^ e[l].rotate_right(25);
            let ch = (e[l] & f[l]) ^ (!e[l] & g[l]);
            let t1 = h[l]
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[l][i]);
            let s0 = a[l].rotate_right(2) ^ a[l].rotate_right(13) ^ a[l].rotate_right(22);
            let maj = (a[l] & b[l]) ^ (a[l] & c[l]) ^ (b[l] & c[l]);
            let t2 = s0.wrapping_add(maj);
            h[l] = g[l];
            g[l] = f[l];
            f[l] = e[l];
            e[l] = d[l].wrapping_add(t1);
            d[l] = c[l];
            c[l] = b[l];
            b[l] = a[l];
            a[l] = t1.wrapping_add(t2);
        }
    }
    for l in 0..N {
        states[l][0] = states[l][0].wrapping_add(a[l]);
        states[l][1] = states[l][1].wrapping_add(b[l]);
        states[l][2] = states[l][2].wrapping_add(c[l]);
        states[l][3] = states[l][3].wrapping_add(d[l]);
        states[l][4] = states[l][4].wrapping_add(e[l]);
        states[l][5] = states[l][5].wrapping_add(f[l]);
        states[l][6] = states[l][6].wrapping_add(g[l]);
        states[l][7] = states[l][7].wrapping_add(h[l]);
    }
}

/// Computes the SHA-256 digest of `data` in one shot.
///
/// Full blocks are compressed directly from `data` (no staging buffer);
/// only the final padded block(s) are staged.
///
/// # Examples
///
/// ```
/// use miv_hash::sha256::{sha256, Sha256};
///
/// let d = sha256(b"");
/// assert_eq!(
///     Sha256::to_hex(&d),
///     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
/// );
/// ```
pub fn sha256(data: &[u8]) -> [u8; 32] {
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
/// compression, returning one 32-byte digest per lane.
///
/// # Panics
///
/// Panics if the messages are not all the same length.
///
/// # Examples
///
/// ```
/// use miv_hash::sha256::{sha256, sha256_multi};
///
/// let out = sha256_multi(&[b"aaaa", b"bbbb"]);
/// assert_eq!(out[1], sha256(b"bbbb"));
/// ```
pub fn sha256_multi<const N: usize>(msgs: &[&[u8]; N]) -> [[u8; 32]; N] {
    let len = msgs[0].len();
    assert!(
        msgs.iter().all(|m| m.len() == len),
        "sha256_multi lanes must be equal length"
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

    /// FIPS 180-4 / NIST test vectors.
    #[test]
    fn nist_vectors() {
        let cases: &[(&[u8], &str)] = &[
            (
                b"",
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                b"abc",
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            ),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
            (
                b"The quick brown fox jumps over the lazy dog",
                "d7a8fbb307d7809469ca9abcb0082e4f8d5651e46d3cdb762d02d0bf37c9e592",
            ),
        ];
        for (input, want) in cases {
            assert_eq!(Sha256::to_hex(&sha256(input)), *want, "sha256({:?})", input);
        }
    }

    #[test]
    fn million_a() {
        let mut ctx = Sha256::new();
        let block = [b'a'; 1000];
        for _ in 0..1000 {
            ctx.update(&block);
        }
        assert_eq!(
            Sha256::to_hex(&ctx.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn streaming_matches_oneshot_at_all_split_points() {
        let data: Vec<u8> = (0..150u16).map(|i| (i * 13 + 1) as u8).collect();
        let want = sha256(&data);
        for split in 0..data.len() {
            let mut ctx = Sha256::new();
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
            let got = sha256_multi(&refs);
            for lane in 0..4 {
                assert_eq!(got[lane], sha256(&msgs[lane]), "len {len} lane {lane}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn multi_lane_rejects_ragged_input() {
        sha256_multi(&[&b"aa"[..], &b"bbb"[..]]);
    }

    #[test]
    fn padding_boundary_lengths() {
        for len in [55usize, 56, 57, 63, 64, 65] {
            let data = vec![0x5au8; len];
            let one = sha256(&data);
            let mut ctx = Sha256::new();
            for b in &data {
                ctx.update(std::slice::from_ref(b));
            }
            assert_eq!(ctx.finalize(), one, "len {len}");
        }
    }
}
