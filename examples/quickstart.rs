//! Quickstart: verified external memory in a few lines.
//!
//! Builds a hash-tree-protected memory, runs a program-like workload over
//! it, then lets a physical attacker corrupt RAM and shows the very next
//! read raising the integrity exception.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use miv::core::{MemoryBuilder, TamperKind};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1 MiB of protected data, 64-byte chunks → a 4-ary Merkle tree with
    // only the root held on-chip.
    let mut mem = MemoryBuilder::new()
        .data_bytes(1 << 20)
        .cache_blocks(1024)
        .build();
    println!("layout: {}", mem.layout());
    println!(
        "secure on-chip state: {} x 128-bit root digests",
        mem.secure_root().len()
    );

    // Ordinary program activity: write, read back, flush to RAM.
    mem.write(0x4000, b"account balance: 1000 credits")?;
    mem.flush()?;
    let back = mem.read_vec(0x4000, 29)?;
    println!("read back: {:?}", String::from_utf8_lossy(&back));

    let stats = mem.stats();
    println!(
        "engine activity: {} verifications, {} hashes, {} block reads, {} block writes",
        stats.chunk_verifications, stats.hash_computations, stats.block_reads, stats.block_writes
    );

    // The attacker strikes: a single flipped bit in external RAM.
    mem.clear_cache()?;
    let phys = mem.layout().data_phys_addr(0x4000 + 17);
    mem.adversary().tamper(phys, TamperKind::BitFlip { bit: 5 });
    println!("\nadversary flips one bit of the balance in external RAM...");

    match mem.read_vec(0x4000, 29) {
        Ok(data) => unreachable!("tampering went undetected: {data:?}"),
        Err(err) => println!("integrity exception: {err}"),
    }
    println!("the processor aborts the task; its signing key is never used again.");
    Ok(())
}
