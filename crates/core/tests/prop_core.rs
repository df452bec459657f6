//! Randomized property tests: layout arithmetic, engine-vs-shadow-memory
//! equivalence, and universal tamper detection, driven by the
//! workspace's deterministic PRNG (`miv_obs::rng`).

use miv_core::layout::{ParentRef, TreeLayout};
use miv_core::{EngineStats, MemoryBuilder, Protection, TamperKind, VerifiedMemory};
use miv_obs::rng::Rng;

/// Every child found via `children` names its parent via `parent`,
/// for arbitrary segment sizes and both chunk geometries.
#[test]
fn layout_parent_children_roundtrip() {
    let mut rng = Rng::seed_from_u64(0x1a01);
    for _case in 0..48 {
        let data_chunks = rng.gen_range_u64(1, 5000);
        let (chunk, block) = [(64u32, 64u32), (128, 64), (128, 128)][rng.gen_range_usize(0, 3)];
        let l = TreeLayout::new(data_chunks * chunk as u64, chunk, block);
        assert!(l.data_chunks() >= data_chunks);
        for c in 0..l.total_chunks() {
            for child in l.children(c) {
                assert_eq!(
                    l.parent(child),
                    ParentRef::Chunk {
                        chunk: c,
                        index: (child % l.arity() as u64) as u32
                    }
                );
            }
        }
    }
}

/// Hash-slot assignments are injective: no two chunks share a slot.
#[test]
fn layout_slots_unique() {
    let mut rng = Rng::seed_from_u64(0x1a02);
    for _case in 0..48 {
        let data_chunks = rng.gen_range_u64(1, 3000);
        let l = TreeLayout::new(data_chunks * 64, 64, 64);
        let mut seen = std::collections::BTreeSet::new();
        for c in 0..l.total_chunks() {
            let key = match l.parent(c) {
                ParentRef::Secure { index } => (u64::MAX, index),
                ParentRef::Chunk { chunk, index } => (chunk, index),
            };
            assert!(seen.insert(key));
        }
        // And every parent referenced is a hash chunk.
        for c in 0..l.total_chunks() {
            if let ParentRef::Chunk { chunk, .. } = l.parent(c) {
                assert!(l.is_hash_chunk(chunk));
            }
        }
    }
}

/// Depth is log-bounded: at most ceil(log_m(total)) + 1.
#[test]
fn layout_depth_is_logarithmic() {
    let mut rng = Rng::seed_from_u64(0x1a03);
    for _case in 0..64 {
        let data_chunks = rng.gen_range_u64(1, 100_000);
        let l = TreeLayout::new(data_chunks * 64, 64, 64);
        let m = l.arity() as f64;
        let bound = (l.total_chunks() as f64).log(m).ceil() as u32 + 1;
        assert!(l.levels() <= bound, "{} > {}", l.levels(), bound);
    }
}

/// Operations for the engine-vs-shadow test.
#[derive(Debug, Clone, Copy)]
enum Op {
    Write { addr: u64, len: usize, fill: u8 },
    Read { addr: u64, len: usize },
    Flush,
    ClearCache,
}

fn random_op(rng: &mut Rng, data_bytes: u64) -> Op {
    let addr = rng.gen_range_u64(0, data_bytes - 64);
    match rng.pick_weighted(&[4, 3, 1, 1]) {
        0 => Op::Write {
            addr,
            len: rng.gen_range_usize(1, 64),
            fill: rng.gen_u8(),
        },
        1 => Op::Read {
            addr,
            len: rng.gen_range_usize(1, 64),
        },
        2 => Op::Flush,
        _ => Op::ClearCache,
    }
}

fn build_memory(data_bytes: u64, mac: bool) -> VerifiedMemory {
    if mac {
        MemoryBuilder::new()
            .data_bytes(data_bytes)
            .chunk_bytes(128)
            .block_bytes(64)
            .protection(Protection::IncrementalMac)
            .cache_blocks(48)
            .build()
    } else {
        MemoryBuilder::new()
            .data_bytes(data_bytes)
            .cache_blocks(40)
            .build()
    }
}

/// The verified memory behaves exactly like a flat byte array under
/// arbitrary op sequences (no adversary): reads always match a shadow
/// model and nothing ever raises.
#[test]
fn engine_matches_shadow_memory() {
    let mut rng = Rng::seed_from_u64(0xe5e1);
    for case in 0..64 {
        let data_bytes = 4096u64;
        let mut mem = build_memory(data_bytes, case % 2 == 0);
        let mut shadow = vec![0u8; data_bytes as usize];
        let n = rng.gen_range_usize(1, 120);
        for _ in 0..n {
            match random_op(&mut rng, data_bytes) {
                Op::Write { addr, len, fill } => {
                    let data = vec![fill; len];
                    mem.write(addr, &data).unwrap();
                    shadow[addr as usize..addr as usize + len].copy_from_slice(&data);
                }
                Op::Read { addr, len } => {
                    let got = mem.read_vec(addr, len).unwrap();
                    assert_eq!(&got[..], &shadow[addr as usize..addr as usize + len]);
                }
                Op::Flush => mem.flush().unwrap(),
                Op::ClearCache => mem.clear_cache().unwrap(),
            }
        }
        mem.flush().unwrap();
        mem.verify_all().unwrap();
        assert_eq!(mem.read_vec(0, data_bytes as usize).unwrap(), shadow);
    }
}

/// Flipping ANY single bit anywhere in the physical segment (data or
/// hash chunks alike) is detected by a full audit.
#[test]
fn any_single_bit_flip_is_detected() {
    let mut rng = Rng::seed_from_u64(0xb17f);
    for case in 0..48 {
        let mut mem = build_memory(2048, case % 2 == 0);
        // Put nonzero content in and push everything to memory.
        for addr in (0..2048).step_by(64) {
            mem.write(addr, &[(addr % 251) as u8; 64]).unwrap();
        }
        mem.clear_cache().unwrap();
        let total = mem.layout().total_chunks() * mem.layout().chunk_bytes() as u64;
        let target = rng.gen_range_u64(0, total);
        let bit = rng.gen_range_u64(0, 8) as u8;
        mem.adversary().tamper(target, TamperKind::BitFlip { bit });
        assert!(
            mem.verify_all().is_err(),
            "flip of bit {bit} at {target:#x} (of {total:#x}) went undetected"
        );
    }
}

/// Replay of any chunk-aligned stale snapshot is detected after the
/// chunk has been legitimately rewritten.
#[test]
fn replay_of_any_chunk_is_detected() {
    let mut rng = Rng::seed_from_u64(0x4e91);
    for _case in 0..48 {
        let mut mem = MemoryBuilder::new()
            .data_bytes(2048)
            .cache_blocks(40)
            .build();
        for addr in (0..2048).step_by(64) {
            mem.write(addr, &[1u8; 64]).unwrap();
        }
        mem.flush().unwrap();
        // Snapshot one data chunk.
        let data_chunks = mem.layout().data_chunks();
        let which = rng.gen_range_u64(0, data_chunks);
        let data_addr = which * 64;
        let phys = mem.layout().data_phys_addr(data_addr);
        let snap = mem.adversary().snapshot(phys, 64);
        // Legitimate update, then replay.
        mem.write(data_addr, &[2u8; 64]).unwrap();
        mem.flush().unwrap();
        mem.clear_cache().unwrap();
        mem.adversary().replay(&snap);
        assert!(mem.read_vec(data_addr, 64).is_err());
    }
}

/// The five paper geometries at the functional-engine level: the
/// hash-tree chunk/block shapes the timing schemes use, plus the
/// incremental-MAC configuration.
fn five_geometries(data_bytes: u64) -> Vec<VerifiedMemory> {
    let tree = |chunk: u32, block: u32, cache: usize| {
        MemoryBuilder::new()
            .data_bytes(data_bytes)
            .chunk_bytes(chunk)
            .block_bytes(block)
            .protection(Protection::HashTree)
            .cache_blocks(cache)
            .build()
    };
    vec![
        tree(64, 64, 40),   // naive/chash shape, small cache
        tree(64, 64, 256),  // chash shape, roomy cache
        tree(128, 64, 48),  // mhash shape: wide chunks, narrow blocks
        tree(128, 128, 32), // whole-chunk blocks
        MemoryBuilder::new()
            .data_bytes(data_bytes)
            .chunk_bytes(128)
            .block_bytes(64)
            .protection(Protection::IncrementalMac)
            .cache_blocks(48)
            .build(), // ihash
    ]
}

/// Memoized + batched-flush operation is byte-identical to the
/// unmemoized, scalar-flush engine under arbitrary op interleavings, on
/// every scheme geometry: the fast paths are pure optimizations.
#[test]
fn memoized_engine_matches_unmemoized() {
    let mut rng = Rng::seed_from_u64(0x3e30);
    for case in 0..40 {
        let data_bytes = 4096u64;
        let which = case % five_geometries(data_bytes).len();
        let mut fast = five_geometries(data_bytes).swap_remove(which);
        let mut slow = five_geometries(data_bytes).swap_remove(which);
        slow.set_memoization(false);
        slow.set_flush_batch_lanes(1);
        assert!(fast.memoization());

        let n = rng.gen_range_usize(20, 150);
        for _ in 0..n {
            match random_op(&mut rng, data_bytes) {
                Op::Write { addr, len, fill } => {
                    let data = vec![fill; len];
                    fast.write(addr, &data).unwrap();
                    slow.write(addr, &data).unwrap();
                }
                Op::Read { addr, len } => {
                    assert_eq!(
                        fast.read_vec(addr, len).unwrap(),
                        slow.read_vec(addr, len).unwrap()
                    );
                }
                Op::Flush => {
                    fast.flush().unwrap();
                    slow.flush().unwrap();
                }
                Op::ClearCache => {
                    fast.clear_cache().unwrap();
                    slow.clear_cache().unwrap();
                }
            }
        }
        fast.flush().unwrap();
        slow.flush().unwrap();
        fast.verify_all().unwrap();
        slow.verify_all().unwrap();
        assert_eq!(
            fast.read_vec(0, data_bytes as usize).unwrap(),
            slow.read_vec(0, data_bytes as usize).unwrap()
        );
        // The memoized engine never hashes more than the scalar one.
        assert!(fast.stats().hash_computations <= slow.stats().hash_computations);
    }
}

/// The memo fast path actually fires on repeated-access workloads, and
/// disabling it restores per-access verification.
#[test]
fn memoization_elides_repeat_verifications() {
    let run = |memoize: bool| {
        let mut mem = MemoryBuilder::new()
            .data_bytes(4096)
            .cache_blocks(20)
            .build();
        mem.set_memoization(memoize);
        for addr in (0..4096).step_by(64) {
            mem.write(addr, &[0xab; 64]).unwrap();
        }
        mem.flush().unwrap();
        mem.clear_cache().unwrap();
        // Re-read everything twice: the tiny cache forces re-fetches.
        for _ in 0..2 {
            for addr in (0..4096).step_by(64) {
                mem.read_vec(addr, 64).unwrap();
            }
        }
        mem.stats()
    };
    let on = run(true);
    let off = run(false);
    assert!(on.memo_hits > 0, "memo path never fired");
    assert_eq!(off.memo_hits, 0);
    assert!(
        on.chunk_verifications < off.chunk_verifications,
        "memoization must elide verifications: {} vs {}",
        on.chunk_verifications,
        off.chunk_verifications
    );
}

fn random_engine_stats(rng: &mut Rng) -> EngineStats {
    EngineStats {
        chunk_verifications: rng.gen_range_u64(0, 1000),
        hash_computations: rng.gen_range_u64(0, 1000),
        mac_updates: rng.gen_range_u64(0, 1000),
        block_reads: rng.gen_range_u64(0, 1000),
        unchecked_block_reads: rng.gen_range_u64(0, 1000),
        block_writes: rng.gen_range_u64(0, 1000),
        writebacks: rng.gen_range_u64(0, 1000),
        alloc_no_fetch: rng.gen_range_u64(0, 1000),
        memo_hits: rng.gen_range_u64(0, 1000),
        batched_writebacks: rng.gen_range_u64(0, 1000),
    }
}

/// `EngineStats::merge` is associative and commutative with the default
/// as identity, and `delta` inverts it — so any segmentation of a run
/// sums identically.
#[test]
fn engine_stats_merge_is_associative() {
    let mut rng = Rng::seed_from_u64(0xe57a);
    for _case in 0..200 {
        let a = random_engine_stats(&mut rng);
        let b = random_engine_stats(&mut rng);
        let c = random_engine_stats(&mut rng);

        let mut left = a;
        left.merge(&b);
        left.merge(&c);
        let mut bc = b;
        bc.merge(&c);
        let mut right = a;
        right.merge(&bc);
        assert_eq!(left, right);

        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ab, ba);

        let mut with_zero = a;
        with_zero.merge(&EngineStats::default());
        assert_eq!(with_zero, a);

        let mut sum = a;
        sum.merge(&b);
        assert_eq!(sum.delta(&a), b);
    }
}

/// Segmenting a run at `reset_stats` boundaries and merging the
/// per-segment stats reproduces an uninterrupted run's totals.
#[test]
fn engine_stats_segments_sum_to_whole() {
    let mut rng = Rng::seed_from_u64(0x5e95);
    for _case in 0..16 {
        let data_bytes = 4096u64;
        let n = rng.gen_range_usize(10, 80);
        let cut = rng.gen_range_usize(1, n);
        let ops: Vec<Op> = (0..n).map(|_| random_op(&mut rng, data_bytes)).collect();

        let apply = |mem: &mut VerifiedMemory, op: Op| match op {
            Op::Write { addr, len, fill } => mem.write(addr, &vec![fill; len]).unwrap(),
            Op::Read { addr, len } => {
                mem.read_vec(addr, len).unwrap();
            }
            Op::Flush => mem.flush().unwrap(),
            Op::ClearCache => mem.clear_cache().unwrap(),
        };

        let mut whole = build_memory(data_bytes, false);
        for &op in &ops {
            apply(&mut whole, op);
        }

        let mut segmented = build_memory(data_bytes, false);
        let mut merged = EngineStats::default();
        for (i, &op) in ops.iter().enumerate() {
            if i == cut {
                merged.merge(&segmented.stats());
                segmented.reset_stats();
            }
            apply(&mut segmented, op);
        }
        merged.merge(&segmented.stats());
        assert_eq!(merged, whole.stats());
    }
}
