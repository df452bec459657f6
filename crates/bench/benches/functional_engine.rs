//! Throughput of the functional `VerifiedMemory` engine.
//!
//! Measures what verified byte-moving costs in software: cached reads,
//! cold (verify-on-fetch) reads, writes with and without the §5.3
//! whole-block optimization, and flushes under the hash-tree vs the
//! incremental-MAC protections.

use std::hint::black_box;

use miv_bench::Harness;
use miv_core::{MemoryBuilder, Protection, VerifiedMemory};

fn hash_mem() -> VerifiedMemory {
    MemoryBuilder::new()
        .data_bytes(256 << 10)
        .cache_blocks(1024)
        .build()
}

fn mac_mem() -> VerifiedMemory {
    MemoryBuilder::new()
        .data_bytes(256 << 10)
        .chunk_bytes(128)
        .block_bytes(64)
        .protection(Protection::IncrementalMac)
        .cache_blocks(1024)
        .build()
}

fn dirty(mut mem: VerifiedMemory) -> VerifiedMemory {
    for i in 0..64u64 {
        mem.write(i * 4096, &[i as u8; 64])
            .expect("write inside the data segment");
    }
    mem
}

fn main() {
    let mut h = Harness::from_args();

    let mut mem = hash_mem();
    mem.read_vec(0, 64).expect("verified read");
    h.bench_bytes("verified_reads/cached_hit", 64, move || {
        mem.read_vec(black_box(0), 64).expect("verified read")
    });
    h.bench_with_setup(
        "verified_reads/cold_verified",
        || {
            let mut mem = hash_mem();
            mem.clear_cache().expect("flush of untampered memory");
            mem
        },
        |mut mem| mem.read_vec(black_box(4096), 64).expect("verified read"),
    );

    let full = [7u8; 64];
    h.bench_with_setup(
        "verified_writes/whole_block_no_fetch",
        hash_mem,
        move |mut mem| mem.write(black_box(8192), &full).expect("verified write"),
    );
    h.bench_with_setup(
        "verified_writes/partial_block_fetch_and_check",
        hash_mem,
        move |mut mem| {
            mem.write(black_box(8192 + 8), &full[..8])
                .expect("verified write")
        },
    );

    h.bench_with_setup(
        "flush_64_dirty_blocks/hash_tree",
        || dirty(hash_mem()),
        |mut mem| mem.flush().expect("flush of untampered memory"),
    );
    h.bench_with_setup(
        "flush_64_dirty_blocks/incremental_mac",
        || dirty(mac_mem()),
        |mut mem| mem.flush().expect("flush of untampered memory"),
    );

    h.finish();
}
