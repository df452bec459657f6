//! The XTEA block cipher and a 128-bit Feistel PRP built from it.
//!
//! The incremental XOR-MAC (§5.4) needs an invertible keyed permutation
//! `E_k` over the 128-bit digest space. The paper does not pin down a
//! cipher; we build one from **XTEA** (Needham & Wheeler, 1997), a tiny
//! 64-bit-block cipher with a 128-bit key, lifted to a 128-bit block via a
//! four-round Luby–Rackoff (balanced Feistel) construction. Four Feistel
//! rounds over a PRF yield a strong pseudo-random permutation, which is all
//! the MAC algebra requires.
//!
//! # Examples
//!
//! ```
//! use miv_hash::xtea::{Prp128, Xtea};
//!
//! let prp = Prp128::new([7u8; 16]);
//! let pt = [0x42u8; 16];
//! let ct = prp.encrypt(pt);
//! assert_ne!(ct, pt);
//! assert_eq!(prp.decrypt(ct), pt);
//! ```

/// Number of XTEA Feistel cycles (64 rounds).
const XTEA_ROUNDS: u32 = 32;
/// The XTEA key-schedule constant (derived from the golden ratio).
const DELTA: u32 = 0x9e3779b9;

/// The XTEA block cipher: 64-bit block, 128-bit key, 64 rounds.
///
/// # Examples
///
/// ```
/// use miv_hash::xtea::Xtea;
///
/// let key = [0u8; 16];
/// let cipher = Xtea::new(key);
/// let ct = cipher.encrypt_block([0x0123_4567, 0x89ab_cdef]);
/// assert_eq!(cipher.decrypt_block(ct), [0x0123_4567, 0x89ab_cdef]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Xtea {
    key: [u32; 4],
}

impl Xtea {
    /// Creates a cipher from a 128-bit key (big-endian word order).
    pub fn new(key: [u8; 16]) -> Self {
        let mut k = [0u32; 4];
        for (i, chunk) in key.chunks_exact(4).enumerate() {
            k[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        Xtea { key: k }
    }

    /// Encrypts one 64-bit block given as two 32-bit words `[v0, v1]`.
    pub fn encrypt_block(&self, block: [u32; 2]) -> [u32; 2] {
        let [mut v0, mut v1] = block;
        let mut sum = 0u32;
        for _ in 0..XTEA_ROUNDS {
            v0 = v0.wrapping_add(
                (((v1 << 4) ^ (v1 >> 5)).wrapping_add(v1))
                    ^ (sum.wrapping_add(self.key[(sum & 3) as usize])),
            );
            sum = sum.wrapping_add(DELTA);
            v1 = v1.wrapping_add(
                (((v0 << 4) ^ (v0 >> 5)).wrapping_add(v0))
                    ^ (sum.wrapping_add(self.key[((sum >> 11) & 3) as usize])),
            );
        }
        [v0, v1]
    }

    /// Decrypts one 64-bit block.
    pub fn decrypt_block(&self, block: [u32; 2]) -> [u32; 2] {
        let [mut v0, mut v1] = block;
        let mut sum = DELTA.wrapping_mul(XTEA_ROUNDS);
        for _ in 0..XTEA_ROUNDS {
            v1 = v1.wrapping_sub(
                (((v0 << 4) ^ (v0 >> 5)).wrapping_add(v0))
                    ^ (sum.wrapping_add(self.key[((sum >> 11) & 3) as usize])),
            );
            sum = sum.wrapping_sub(DELTA);
            v0 = v0.wrapping_sub(
                (((v1 << 4) ^ (v1 >> 5)).wrapping_add(v1))
                    ^ (sum.wrapping_add(self.key[(sum & 3) as usize])),
            );
        }
        [v0, v1]
    }
}

/// A 128-bit pseudo-random permutation: four-round balanced Feistel over
/// XTEA-keyed round functions.
///
/// Round `i` (0–3) computes the 64-bit PRF
/// `R_i(x) = XTEA_{k_i}(x_0 ⊕ i, x_1 ⊕ (i <<< 16))`, one XTEA encryption
/// of the half `x = (x_0, x_1)` with both 32-bit words tweaked by the round
/// number, and XORs it into the other half. The round keys `k_i` are
/// independent, derived from the master key.
///
/// # Examples
///
/// ```
/// use miv_hash::xtea::Prp128;
///
/// let prp = Prp128::new(*b"0123456789abcdef");
/// let x = [9u8; 16];
/// assert_eq!(prp.decrypt(prp.encrypt(x)), x);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Prp128 {
    rounds: [Xtea; 4],
}

impl Prp128 {
    /// Derives the four round ciphers from a 128-bit master key.
    pub fn new(key: [u8; 16]) -> Self {
        // Round keys: master key with a per-round tweak mixed into every
        // byte, then one self-encryption pass to decorrelate.
        let make = |round: u8| {
            let mut k = key;
            for (i, byte) in k.iter_mut().enumerate() {
                *byte = byte
                    .wrapping_add(round.wrapping_mul(0x9d))
                    .rotate_left((i % 8) as u32)
                    ^ round;
            }
            Xtea::new(k)
        };
        Prp128 {
            rounds: [make(1), make(2), make(3), make(4)],
        }
    }

    /// Encrypts a 128-bit value.
    pub fn encrypt(&self, block: [u8; 16]) -> [u8; 16] {
        let (mut left, mut right) = split(block);
        for (i, cipher) in self.rounds.iter().enumerate() {
            let f = round_prf(cipher, right, i as u32);
            let new_right = [left[0] ^ f[0], left[1] ^ f[1]];
            left = right;
            right = new_right;
        }
        join(left, right)
    }

    /// Decrypts a 128-bit value.
    pub fn decrypt(&self, block: [u8; 16]) -> [u8; 16] {
        let (mut left, mut right) = split(block);
        for (i, cipher) in self.rounds.iter().enumerate().rev() {
            let f = round_prf(cipher, left, i as u32);
            let new_left = [right[0] ^ f[0], right[1] ^ f[1]];
            right = left;
            left = new_left;
        }
        join(left, right)
    }
}

/// The 64-bit PRF used inside each Feistel round.
fn round_prf(cipher: &Xtea, half: [u32; 2], round: u32) -> [u32; 2] {
    cipher.encrypt_block([half[0] ^ round, half[1] ^ round.rotate_left(16)])
}

fn split(block: [u8; 16]) -> ([u32; 2], [u32; 2]) {
    let w = |i: usize| u32::from_be_bytes([block[i], block[i + 1], block[i + 2], block[i + 3]]);
    ([w(0), w(4)], [w(8), w(12)])
}

fn join(left: [u32; 2], right: [u32; 2]) -> [u8; 16] {
    let mut out = [0u8; 16];
    out[0..4].copy_from_slice(&left[0].to_be_bytes());
    out[4..8].copy_from_slice(&left[1].to_be_bytes());
    out[8..12].copy_from_slice(&right[0].to_be_bytes());
    out[12..16].copy_from_slice(&right[1].to_be_bytes());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Known-answer vector for XTEA with 64 rounds (widely published).
    #[test]
    fn xtea_known_answer() {
        // Key = 000102030405060708090a0b0c0d0e0f, PT = 4142434445464748.
        let key: [u8; 16] = [
            0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d,
            0x0e, 0x0f,
        ];
        let cipher = Xtea::new(key);
        let pt = [0x41424344u32, 0x45464748];
        let ct = cipher.encrypt_block(pt);
        assert_eq!(ct, [0x497df3d0, 0x72612cb5]);
        assert_eq!(cipher.decrypt_block(ct), pt);
    }

    #[test]
    fn xtea_zero_key_roundtrip() {
        let cipher = Xtea::new([0u8; 16]);
        for v in [
            [0u32, 0],
            [1, 0],
            [0, 1],
            [u32::MAX, u32::MAX],
            [0xdead, 0xbeef],
        ] {
            assert_eq!(cipher.decrypt_block(cipher.encrypt_block(v)), v);
        }
    }

    #[test]
    fn prp_roundtrip_many() {
        let prp = Prp128::new(*b"a 128-bit key!!!");
        for i in 0..256u32 {
            let mut block = [0u8; 16];
            block[0..4].copy_from_slice(&i.to_be_bytes());
            block[12..16].copy_from_slice(&(i.wrapping_mul(2654435761)).to_be_bytes());
            assert_eq!(prp.decrypt(prp.encrypt(block)), block);
        }
    }

    #[test]
    fn prp_is_key_dependent() {
        let a = Prp128::new([1u8; 16]);
        let b = Prp128::new([2u8; 16]);
        let pt = [0x33u8; 16];
        assert_ne!(a.encrypt(pt), b.encrypt(pt));
    }

    #[test]
    fn prp_diffuses_single_bit() {
        let prp = Prp128::new([5u8; 16]);
        let base = prp.encrypt([0u8; 16]);
        let mut flipped = [0u8; 16];
        flipped[15] = 1;
        let other = prp.encrypt(flipped);
        let differing: u32 = base
            .iter()
            .zip(other.iter())
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        // Expect roughly half the 128 bits to flip; demand at least a quarter.
        assert!(differing >= 32, "only {differing} bits differ");
    }

    #[test]
    fn prp_is_a_permutation_on_a_sample() {
        // Distinct inputs must map to distinct outputs.
        let prp = Prp128::new([9u8; 16]);
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..512u16 {
            let mut block = [0u8; 16];
            block[0] = (i >> 8) as u8;
            block[1] = i as u8;
            assert!(seen.insert(prp.encrypt(block)), "collision at {i}");
        }
    }
}
