//! Verification hot-path throughput, with a committed baseline.
//!
//! The workload the paper cares about: a working set larger than the
//! trusted cache, so every access misses and fetches through the
//! verifier. Without memoization each fetch re-hashes the full ancestor
//! path; with generation-stamped memoization a chunk already verified in
//! the current quiescent epoch skips straight to the bytes. The bench
//! measures both paths on the same geometry plus the batched flush and
//! multi-lane digest primitives, and gates the memoization speedup
//! against `BENCH_hotpath.json` at the repo root.
//!
//! Modes (plain `fn main()`, `harness = false`):
//!
//! * `cargo bench -p miv-bench --bench verify_hot_path` — full table.
//! * `-- --quick` — shorter timing windows (CI).
//! * `-- --json PATH` — also write a `miv-bench-hotpath-v1` JSON report.
//! * `-- --check PATH` — compare against a baseline JSON and exit
//!   non-zero when a gated ratio regresses by more than the tolerance
//!   (`--tolerance PCT`, default 20). Ratios of two same-machine
//!   measurements are gated, not raw wall-clock numbers, so the gate is
//!   meaningful on hardware other than the one that made the baseline.
//!
//! Relative `--json` and `--check` paths resolve against the workspace
//! root, so `-- --check BENCH_hotpath.json` works from `cargo bench`
//! (which runs the binary in `crates/bench`) and from the root alike.

use std::hint::black_box;
use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

use miv_bench::Harness;
use miv_core::{MemoryBuilder, Protection, VerifiedMemory};
use miv_hash::{ChunkHasher, Md5Hasher, Sha1Hasher, Sha256Hasher};
use miv_obs::json::JsonValue;

/// Bytes in the repeated-access working set (larger than the cache, so
/// every pass misses and re-fetches through the verifier).
const WORKING_SET: u64 = 64 << 10;
/// Data segment backing the tree.
const DATA_BYTES: u64 = 256 << 10;
/// Trusted cache blocks — small enough that the working set thrashes.
const CACHE_BLOCKS: usize = 64;
const LINE: u64 = 64;

fn engine(memoize: bool) -> VerifiedMemory {
    let mut mem = MemoryBuilder::new()
        .data_bytes(DATA_BYTES)
        .cache_blocks(CACHE_BLOCKS)
        .build();
    mem.set_memoization(memoize);
    mem
}

/// Engine with a cache roomy enough that dirty blocks and their slot
/// blocks stay resident: the flush cases then compare the batched
/// multi-lane digest path against scalar re-hashing, rather than
/// measuring slot-miss fetch traffic (which batching does not change).
fn roomy_engine(flush_lanes: usize) -> VerifiedMemory {
    let mut mem = MemoryBuilder::new()
        .data_bytes(DATA_BYTES)
        .cache_blocks(1024)
        .build();
    mem.set_flush_batch_lanes(flush_lanes);
    mem
}

fn mac_engine() -> VerifiedMemory {
    MemoryBuilder::new()
        .data_bytes(DATA_BYTES)
        .chunk_bytes(128)
        .block_bytes(64)
        .protection(Protection::IncrementalMac)
        .cache_blocks(CACHE_BLOCKS)
        .build()
}

/// One full pass of verified reads over the working set.
fn read_pass(mem: &mut VerifiedMemory, buf: &mut [u8]) {
    let mut addr = 0u64;
    while addr < WORKING_SET {
        mem.read(addr, buf)
            .expect("verified read of untampered memory");
        addr += LINE;
    }
}

/// Dirty `n` blocks spread across distinct chunks.
fn dirty_blocks(mem: &mut VerifiedMemory, n: u64) {
    for i in 0..n {
        mem.write(i * LINE, &[i as u8; LINE as usize])
            .expect("write inside the data segment");
    }
}

fn mbps_of(h: &Harness, name: &str) -> f64 {
    h.results()
        .iter()
        .find(|m| m.name == name)
        .and_then(|m| m.mbps)
        .unwrap_or(0.0)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let flag_value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let json_out = flag_value("--json").map(|p| root.join(p));
    let check = flag_value("--check").map(|p| root.join(p));
    let tolerance_pct: f64 = flag_value("--tolerance")
        .map(|v| v.parse().expect("--tolerance takes a number"))
        .unwrap_or(20.0);

    // The name filter is the first non-flag argument that is not the
    // value of a value-taking flag.
    let filter = args
        .iter()
        .enumerate()
        .filter(|(i, a)| {
            let is_flag_value =
                *i > 0 && matches!(args[i - 1].as_str(), "--json" | "--check" | "--tolerance");
            !(a.starts_with('-') || is_flag_value)
        })
        .map(|(_, a)| a.clone())
        .next();
    let mut h = Harness::with_filter(filter);
    if quick {
        h.set_target(Duration::from_millis(40));
    }

    let mut buf = [0u8; LINE as usize];

    // Headline pair: the same thrashing read workload with and without
    // verified-path memoization. Warm one pass first so the memoized
    // engine is inside an epoch (nothing has invalidated it).
    let mut memo = engine(true);
    read_pass(&mut memo, &mut buf);
    h.bench_bytes("hot_path/verify_reads_memoized", WORKING_SET, || {
        read_pass(&mut memo, &mut buf);
    });
    let mut plain = engine(false);
    read_pass(&mut plain, &mut buf);
    h.bench_bytes("hot_path/verify_reads_unmemoized", WORKING_SET, || {
        read_pass(&mut plain, &mut buf);
    });

    // Repeated-access MAC path for reference (O(1) per update already).
    let mut mac = mac_engine();
    read_pass(&mut mac, &mut buf);
    h.bench_bytes("hot_path/verify_reads_incremental_mac", WORKING_SET, || {
        read_pass(&mut mac, &mut buf);
    });

    // Flush with the multi-lane batched digest vs the scalar path.
    const DIRTY: u64 = 128;
    h.bench_with_setup(
        "hot_path/flush_batched",
        || {
            let mut mem = roomy_engine(miv_hash::BATCH_LANES);
            dirty_blocks(&mut mem, DIRTY);
            mem
        },
        |mut mem| mem.flush().expect("flush of untampered memory"),
    );
    h.bench_with_setup(
        "hot_path/flush_scalar",
        || {
            let mut mem = roomy_engine(1);
            dirty_blocks(&mut mem, DIRTY);
            mem
        },
        |mut mem| mem.flush().expect("flush of untampered memory"),
    );

    // Raw primitive: four chunk-sized messages (64 B data + covered
    // layout slots ≈ 64 B) through `digest_batch` vs one at a time.
    // `digest_batch` interleaves `BATCH_LANES` = 2 messages per pass, so
    // the `*_4lane` cases run two 2-lane passes; their names are the gate
    // keys in BENCH_hotpath.json.
    let msg = [[0xA5u8; 64]; 4];
    let md5 = Md5Hasher;
    let sha1 = Sha1Hasher;
    h.bench_bytes("digest_batch/md5_4lane", 4 * 64, || {
        let m: Vec<&[u8]> = msg.iter().map(|m| &m[..]).collect();
        black_box(md5.digest_batch(&m));
    });
    h.bench_bytes("digest_batch/md5_serial", 4 * 64, || {
        for m in &msg {
            black_box(md5.digest(m));
        }
    });
    h.bench_bytes("digest_batch/sha1_4lane", 4 * 64, || {
        let m: Vec<&[u8]> = msg.iter().map(|m| &m[..]).collect();
        black_box(sha1.digest_batch(&m));
    });
    h.bench_bytes("digest_batch/sha1_serial", 4 * 64, || {
        for m in &msg {
            black_box(sha1.digest(m));
        }
    });
    // Lane-width scaling probe: 2-wide interleaving (register pressure
    // rises with width; the sweet spot is micro-architecture dependent).
    h.bench_bytes("digest_batch/md5_2lane", 4 * 64, || {
        black_box(miv_hash::md5::md5_multi(&[&msg[0][..], &msg[1][..]]));
        black_box(miv_hash::md5::md5_multi(&[&msg[2][..], &msg[3][..]]));
    });
    h.bench_bytes("digest_batch/sha1_2lane", 4 * 64, || {
        black_box(miv_hash::sha1::sha1_multi(&[&msg[0][..], &msg[1][..]]));
        black_box(miv_hash::sha1::sha1_multi(&[&msg[2][..], &msg[3][..]]));
    });
    // SHA-256 runs its batches 2-wide (64 rounds and a bigger state
    // mean 4-wide spills on common cores).
    let sha256 = Sha256Hasher;
    h.bench_bytes("digest_batch/sha256_2lane", 4 * 64, || {
        let m: Vec<&[u8]> = msg.iter().map(|m| &m[..]).collect();
        black_box(sha256.digest_batch(&m));
    });
    h.bench_bytes("digest_batch/sha256_serial", 4 * 64, || {
        for m in &msg {
            black_box(sha256.digest(m));
        }
    });

    // Full tree build: the level-by-level bulk path (lane-batched
    // digest_batch, one worker) vs the scalar chunk-at-a-time walk, on
    // one engine. A segment big enough that per-level worker spawns
    // amortize; the jobs=4 case is reported but not gated — worker
    // speedup depends on the host's core count.
    const BUILD_BYTES: u64 = 4 << 20;
    let mut build = MemoryBuilder::new()
        .data_bytes(BUILD_BYTES)
        .cache_blocks(CACHE_BLOCKS)
        .build();
    h.bench_bytes("tree_build/bulk_1job", BUILD_BYTES, || {
        build.rebuild_tree_bulk(1);
    });
    h.bench_bytes("tree_build/serial_scalar", BUILD_BYTES, || {
        build.rebuild_tree_serial();
    });
    h.bench_bytes("tree_build/bulk_4jobs", BUILD_BYTES, || {
        build.rebuild_tree_bulk(4);
    });

    h.finish();

    let memo_mbps = mbps_of(&h, "hot_path/verify_reads_memoized");
    let plain_mbps = mbps_of(&h, "hot_path/verify_reads_unmemoized");
    let speedup = if plain_mbps > 0.0 {
        memo_mbps / plain_mbps
    } else {
        0.0
    };
    let ratio_of = |num: &str, den: &str| {
        let num = mbps_of(&h, num);
        let den = mbps_of(&h, den);
        if den > 0.0 {
            num / den
        } else {
            0.0
        }
    };
    let md5_ratio = ratio_of("digest_batch/md5_4lane", "digest_batch/md5_serial");
    let sha256_ratio = ratio_of("digest_batch/sha256_2lane", "digest_batch/sha256_serial");
    let bulk_ratio = ratio_of("tree_build/bulk_1job", "tree_build/serial_scalar");
    let bulk_parallel = ratio_of("tree_build/bulk_4jobs", "tree_build/bulk_1job");
    println!(
        "memoization speedup: {speedup:.2}x  (md5 4-lane ratio: {md5_ratio:.2}x, \
         sha256 2-lane ratio: {sha256_ratio:.2}x, bulk build: {bulk_ratio:.2}x, \
         4-job build: {bulk_parallel:.2}x)"
    );

    let mut report = JsonValue::obj();
    report
        .push("schema", "miv-bench-hotpath-v1")
        .push("verify_reads_memoized_mbps", memo_mbps)
        .push("verify_reads_unmemoized_mbps", plain_mbps)
        .push("memoization_speedup", speedup)
        .push("md5_4lane_ratio", md5_ratio)
        .push("sha256_lane_ratio", sha256_ratio)
        .push("bulk_build_ratio", bulk_ratio)
        .push("bulk_build_parallel_speedup", bulk_parallel);
    if let Some(path) = json_out {
        let text = format!("{}\n", report.render_pretty());
        std::fs::write(&path, text).expect("write --json report");
        println!("wrote {}", path.display());
    }

    if let Some(path) = check {
        let text = std::fs::read_to_string(&path).expect("read --check baseline");
        let baseline = JsonValue::parse(&text).expect("parse baseline JSON");
        // Gate machine-independent ratios, not raw wall-clock numbers.
        let floor = 1.0 - tolerance_pct / 100.0;
        let mut ok = true;
        for (name, measured) in [
            ("memoization_speedup", speedup),
            ("md5_4lane_ratio", md5_ratio),
            ("sha256_lane_ratio", sha256_ratio),
            ("bulk_build_ratio", bulk_ratio),
        ] {
            let Some(committed) = baseline.get(name).and_then(JsonValue::as_f64) else {
                eprintln!("bench-gate: baseline {} has no `{name}`", path.display());
                return ExitCode::FAILURE;
            };
            let verdict = if measured >= committed * floor {
                "ok"
            } else {
                ok = false;
                "REGRESSED"
            };
            println!(
                "gate {name}: measured {measured:.2} vs baseline {committed:.2} \
                 (floor {:.2}) — {verdict}",
                committed * floor
            );
        }
        if !ok {
            eprintln!("bench-gate: hot-path regression exceeds {tolerance_pct}% tolerance");
            return ExitCode::FAILURE;
        }
        println!("bench-gate: within {tolerance_pct}% of baseline");
    }
    ExitCode::SUCCESS
}
