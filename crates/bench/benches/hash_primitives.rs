//! Software throughput of the cryptographic primitives.
//!
//! The paper's hash unit digests one 64-byte block per 20 cycles
//! (3.2 GB/s) with a 160-cycle latency; these benchmarks measure what the
//! same operations cost this software implementation, and the relative
//! cost of the incremental XOR-MAC update versus a full chunk re-hash —
//! the trade the *ihash* scheme exploits.

use std::hint::black_box;

use miv_bench::Harness;
use miv_hash::digest::{ChunkHasher, Md5Hasher, Sha1Hasher, Sha256Hasher};
use miv_hash::md5::md5_multi;
use miv_hash::narrow::XorMac120;
use miv_hash::xtea::{Prp128, Xtea};
use miv_hash::XorMac;

fn main() {
    let mut h = Harness::from_args();

    let chunk = [0xa5u8; 64];
    h.bench_bytes("digest_64B_chunk/md5", 64, || {
        Md5Hasher.digest(black_box(&chunk))
    });
    h.bench_bytes("digest_64B_chunk/sha1_128", 64, || {
        Sha1Hasher.digest(black_box(&chunk))
    });
    h.bench_bytes("digest_64B_chunk/sha256_128", 64, || {
        Sha256Hasher.digest(black_box(&chunk))
    });
    // One XOR-MAC PRF input: 33-byte key/domain/index/timestamp prefix
    // plus a 64-byte block.
    let prf_input = [0x5au8; 97];
    h.bench_bytes("digest_97B_prf_input/md5", 97, || {
        Md5Hasher.digest(black_box(&prf_input))
    });
    h.bench_bytes("digest_97B_prf_input/md5_2lane", 2 * 97, || {
        md5_multi(&[black_box(&prf_input[..]), black_box(&prf_input[..])])
    });
    let page = [0x3cu8; 4096];
    h.bench_bytes("digest_4KB_page/md5", 4096, || {
        Md5Hasher.digest(black_box(&page))
    });
    let big = [0x3cu8; 512];
    h.bench_bytes("digest_512B_chunk/md5", 512, || {
        Md5Hasher.digest(black_box(&big))
    });
    h.bench_bytes("digest_512B_chunk/sha256_128", 512, || {
        Sha256Hasher.digest(black_box(&big))
    });

    let xtea = Xtea::new([7u8; 16]);
    let prp = Prp128::new([7u8; 16]);
    h.bench("xtea_block", || xtea.encrypt_block(black_box([1u32, 2])));
    h.bench("prp128_encrypt", || prp.encrypt(black_box([9u8; 16])));

    let mac = XorMac::new([3u8; 16]);
    let mac120 = XorMac120::new([3u8; 16]);
    let blocks: Vec<Vec<u8>> = (0..4).map(|i| vec![i as u8; 64]).collect();
    let tag = mac.mac_blocks(blocks.iter().map(|b| (b.as_slice(), false)));
    let tag120 = mac120.mac_blocks(blocks.iter().map(|b| (b.as_slice(), false)));
    let new_block = vec![0xffu8; 64];

    // Two PRFs, the work of one incremental update before its two PRP
    // calls.
    h.bench("xormac_prf/two_64B_blocks", || {
        (
            mac120.block_prf(2, black_box(&blocks[2]), false),
            mac120.block_prf(2, black_box(&new_block), true),
        )
    });

    // Full 4-block MAC from scratch vs a single-block incremental update:
    // the §5.4 asymmetry.
    h.bench("xormac_4x64B/mac_from_scratch", || {
        mac.mac_blocks(blocks.iter().map(|blk| (black_box(blk.as_slice()), false)))
    });
    h.bench("xormac_4x64B/incremental_update", || {
        mac.update(black_box(tag), 2, (&blocks[2], false), (&new_block, true))
    });
    h.bench("xormac_4x64B/narrow_mac_from_scratch", || {
        mac120.mac_blocks(blocks.iter().map(|blk| (black_box(blk.as_slice()), false)))
    });
    h.bench("xormac_4x64B/narrow_incremental_update", || {
        mac120.update(
            black_box(tag120),
            2,
            (&blocks[2], false),
            (&new_block, true),
        )
    });

    h.finish();
}
