//! Known-answer pins for the MD5 kernel and the XOR-MAC block PRFs.
//!
//! Every stored hash-tree slot and MAC depends on these exact bytes: the
//! MD5 compression, its padding, and the PRF input layout
//! `key ‖ domain ‖ index LE ‖ timestamp ‖ block` that both XOR-MACs hash.
//! Each group folds its outputs with FNV-1a (which does not depend on the
//! code under test) and compares the fold with a recorded value, so any
//! change to a rotation, a message index, the staging layout or the
//! pairing of PRFs shows up here. The plain MD5 values (the three hex
//! digests and the `md5 0..=600` fold) also agree with an independent MD5
//! implementation over the same `pattern` bytes.

use miv_hash::md5::{md5, md5_multi, Md5};
use miv_hash::narrow::XorMac120;
use miv_hash::XorMac;

/// FNV-1a over a stream of byte strings.
struct Fold(u64);

impl Fold {
    fn new() -> Self {
        Fold(0xcbf2_9ce4_8422_2325)
    }

    fn add(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Deterministic test bytes; distinct `salt`s give distinct streams.
fn pattern(len: usize, salt: u64) -> Vec<u8> {
    let mut x = salt.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x2545_f491_4f6c_dd1d;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 24) as u8
        })
        .collect()
}

fn check(group: &str, got: u64, want: u64) {
    assert_eq!(
        got, want,
        "{group}: fold {got:#018x}, recorded {want:#018x}"
    );
}

#[test]
fn md5_lengths_0_to_600() {
    let mut fold = Fold::new();
    for len in 0..=600 {
        fold.add(md5(&pattern(len, len as u64)).as_bytes());
    }
    check("md5 0..=600", fold.0, 0x892a_053a_d8c9_64b0);
    assert_eq!(md5(&[]).to_hex(), "d41d8cd98f00b204e9800998ecf8427e");
    assert_eq!(
        md5(&pattern(97, 97)).to_hex(),
        "e8ddba38ff5b0876912b5f59a0b71e9c"
    );
    assert_eq!(
        md5(&pattern(4096, 4096)).to_hex(),
        "fd832360be7ff133a7bafadfb894d218"
    );
}

#[test]
fn md5_multi_one_two_and_four_lanes() {
    let mut fold = Fold::new();
    for len in 0..=200 {
        let msgs: Vec<Vec<u8>> = (0..4)
            .map(|l| pattern(len, 1000 * l + len as u64))
            .collect();
        let one = md5_multi::<1>(&[&msgs[0]]);
        let two = md5_multi::<2>(&[&msgs[0], &msgs[1]]);
        let four = md5_multi::<4>(&[&msgs[0], &msgs[1], &msgs[2], &msgs[3]]);
        for d in one.iter().chain(&two).chain(&four) {
            fold.add(d.as_bytes());
        }
    }
    check("md5_multi 1/2/4 lanes", fold.0, 0xbe57_478d_b4ad_cf91);
}

#[test]
fn streaming_md5_at_every_split_point() {
    let data = pattern(300, 7);
    let want = md5(&data).to_hex();
    assert_eq!(want, "dbcb22e89a2e272f656fae3ee619a659");
    for split in 0..=data.len() {
        let mut ctx = Md5::new();
        ctx.update(&data[..split]);
        ctx.update(&data[split..]);
        assert_eq!(ctx.finalize().to_hex(), want, "split at {split}");
        let mut ctx = Md5::new();
        ctx.update(&data[..split / 2]);
        ctx.update(&data[split / 2..split]);
        ctx.update(&data[split..]);
        assert_eq!(
            ctx.finalize().to_hex(),
            want,
            "splits at {} and {split}",
            split / 2
        );
    }
    // Every tail length the padding sees, fed in uneven pieces.
    let mut fold = Fold::new();
    for len in 0..=130 {
        let data = pattern(len, 500 + len as u64);
        let mut ctx = Md5::new();
        for piece in data.chunks(7) {
            ctx.update(piece);
        }
        fold.add(ctx.finalize().as_bytes());
    }
    check("streaming md5 0..=130", fold.0, 0x1c09_5522_79c7_fb0c);
}

/// The PRF calls both MACs must agree on, for one block length.
struct Case {
    /// Blocks of the chunk, all `len` bytes long.
    blocks: Vec<Vec<u8>>,
    /// Timestamp bit of each block.
    ts: Vec<bool>,
    /// Replacement for each block, one byte longer every third block so
    /// some updates hash an unequal-length old/new pair.
    new: Vec<Vec<u8>>,
    /// A chunk whose blocks alternate between `len` and `len + 1` bytes,
    /// so `mac_blocks` meets unequal-length neighbours.
    ragged: Vec<Vec<u8>>,
}

impl Case {
    fn new(len: usize) -> Self {
        let blocks: Vec<Vec<u8>> = (0..5)
            .map(|i| pattern(len, (len * 10 + i) as u64))
            .collect();
        let ts = (0..5).map(|i| (len + i).is_multiple_of(3)).collect();
        let new = (0..5)
            .map(|i| pattern(len + usize::from(i % 3 == 2), (len * 10 + i + 5) as u64))
            .collect();
        let ragged = (0..5)
            .map(|i| pattern(len + (i % 2), (len * 10 + i + 50) as u64))
            .collect();
        Case {
            blocks,
            ts,
            new,
            ragged,
        }
    }

    /// The first `n` blocks with their timestamps.
    fn chunk(&self, n: usize) -> impl Iterator<Item = (&[u8], bool)> {
        self.blocks[..n]
            .iter()
            .map(Vec::as_slice)
            .zip(self.ts.iter().copied())
    }

    fn ragged(&self) -> impl Iterator<Item = (&[u8], bool)> {
        self.ragged
            .iter()
            .map(Vec::as_slice)
            .zip(self.ts.iter().copied())
    }
}

/// Block lengths 16..=200 B: below, at and above the PRF staging buffer.
const BLOCK_LENS: std::ops::RangeInclusive<usize> = 16..=200;

/// Chunk sizes 1..=5: odd counts leave the last PRF unpaired.
const CHUNK_BLOCKS: std::ops::RangeInclusive<usize> = 1..=5;

#[test]
fn xormac_prf_mac_and_update() {
    let mut fold = Fold::new();
    for len in BLOCK_LENS {
        let key = [len as u8; 16];
        let mac = XorMac::new(key);
        let case = Case::new(len);
        for (index, block) in [0u64, 1, 7, (1 << 40) + 3].into_iter().zip(&case.blocks) {
            fold.add(mac.block_prf(index, block, false).as_bytes());
            fold.add(mac.block_prf(index, block, true).as_bytes());
        }
        for n in CHUNK_BLOCKS {
            let tag = mac.mac_blocks(case.chunk(n));
            fold.add(tag.as_bytes());
            for j in 0..n {
                let old = (case.blocks[j].as_slice(), case.ts[j]);
                let upd = mac.update(tag, j as u64, old, (&case.new[j], !case.ts[j]));
                fold.add(upd.as_bytes());
            }
        }
        fold.add(mac.mac_blocks(case.ragged()).as_bytes());
    }
    check("XorMac", fold.0, 0x98bc_3742_5bae_29ca);

    // The AES-128 outer permutation shares the PRF.
    let mac = XorMac::with_aes([0x5a; 16]);
    let case = Case::new(64);
    let tag = mac.mac_blocks(case.chunk(3));
    let upd = mac.update(tag, 1, (&case.blocks[1], case.ts[1]), (&case.new[1], true));
    assert_eq!(tag.to_hex(), "8cc616859f1b8869f1b9c8cc9dada3db");
    assert_eq!(upd.to_hex(), "0e94d81c3e1890ae2832cf31c51fb8a8");
}

#[test]
fn xormac120_prf_mac_and_update() {
    let mut fold = Fold::new();
    for len in BLOCK_LENS {
        let key = [!(len as u8); 16];
        let mac = XorMac120::new(key);
        let case = Case::new(len);
        for (index, block) in [0u64, 1, 7, (1 << 40) + 3].into_iter().zip(&case.blocks) {
            fold.add(&mac.block_prf(index, block, false));
            fold.add(&mac.block_prf(index, block, true));
        }
        for n in CHUNK_BLOCKS {
            let tag = mac.mac_blocks(case.chunk(n));
            fold.add(&tag);
            for j in 0..n {
                let old = (case.blocks[j].as_slice(), case.ts[j]);
                let upd = mac.update(tag, j as u64, old, (&case.new[j], !case.ts[j]));
                fold.add(&upd);
            }
        }
        fold.add(&mac.mac_blocks(case.ragged()));
    }
    check("XorMac120", fold.0, 0x2ff4_44b1_7cb4_694b);
}
