//! Trusted state on untrusted storage: hibernate, restore, and reject
//! tampering and rollbacks.
//!
//! The related work the paper builds on (trusted databases on untrusted
//! storage) treats a disk exactly like the paper treats RAM: bulk data
//! lives outside the trust boundary and only the tree root must be kept
//! safe. The `miv-store` verified block store keeps its hash-tree pages
//! on the untrusted device and only a generation counter plus the root
//! digests in trusted storage. This example hibernates a store (commit,
//! power off, reopen), then shows the attacks the trusted root defeats:
//! an offline bit flip on the powered-off disk, and a rollback of the
//! whole disk to an earlier, internally consistent image. (Crash
//! recovery has its own end-to-end check: `mivsim store fsck`.)
//!
//! ```text
//! cargo run --example persistence
//! ```

use miv::hash::digest::Md5Hasher;
use miv::store::{BlockStore, MemMedium, MemRootStore, RootStore, StoreConfig, StoreError};

const CONFIG: StoreConfig = StoreConfig {
    data_bytes: 16 * 1024,
    page_bytes: 128,
    cache_pages: 16,
    journal_slots: 0, // sized automatically
};

/// A data address no write below touches, so its page is never
/// shadowed by the redo journal (a flip on a journaled page is healed by
/// replay at open rather than detected).
const COLD_ADDR: u64 = 0x3000;

fn main() -> Result<(), StoreError> {
    let disk = MemMedium::new(); // untrusted: the attacker may rewrite it
    let nvram = MemRootStore::new(); // trusted: on-chip NVRAM, a TPM...

    // A running machine with application state, committed and powered
    // off: the pages stay on disk, only the root leaves the device.
    let mut store = BlockStore::create(disk.clone(), nvram.clone(), CONFIG, Box::new(Md5Hasher))?;
    store.write(0x200, b"savings = 5000 credits")?;
    store.commit()?;
    let geometry = store.geometry().clone();
    println!(
        "hibernated {} KiB to untrusted storage at generation {}; {} root digests stay trusted",
        geometry.total_bytes() / 1024,
        store.generation(),
        nvram.load()?.roots.len()
    );
    drop(store);

    // Power back on: the image verifies against the root and the state
    // is live again. The attacker keeps a copy of this image for later.
    let stale_image = disk.snapshot();
    let mut store = reopen(&disk, &nvram)?;
    store.verify_all()?;
    println!(
        "restored: {:?}",
        String::from_utf8_lossy(&store.read_vec(0x200, 22)?)
    );
    drop(store);

    // Attack 1: one bit of a data page is flipped on the powered-off
    // disk. The image still opens — its superblock is intact — but the
    // tree walk against the trusted root rejects the page.
    let honest_image = disk.snapshot();
    let offset = geometry.main_offset() + geometry.layout().data_phys_addr(COLD_ADDR);
    disk.flip(offset, 0x01);
    match reopen(&disk, &nvram).and_then(|mut store| store.verify_all()) {
        Ok(_) => unreachable!("a tampered image must not verify"),
        Err(err) => println!("tampered image rejected: {err}"),
    }
    disk.restore(&honest_image);

    // Attack 2: rollback. The machine runs on (spends the savings) and
    // commits again; the attacker then puts the OLD image back, byte
    // for byte, hoping for a refund. Only the trusted generation counter
    // can tell the two self-consistent images apart — and it does.
    let mut store = reopen(&disk, &nvram)?;
    store.write(0x200, b"savings =    0 credits")?;
    store.commit()?;
    drop(store);
    disk.restore(&stale_image);
    match reopen(&disk, &nvram) {
        Ok(_) => unreachable!("a rolled-back image must not open"),
        Err(err) => println!("rollback to the old image rejected: {err}"),
    }
    println!("only the image matching the trusted root is accepted.");
    Ok(())
}

/// Reopens the store after a power cycle.
fn reopen(
    disk: &MemMedium,
    nvram: &MemRootStore,
) -> Result<BlockStore<MemMedium, MemRootStore>, StoreError> {
    let (store, _recovery) = BlockStore::open(
        disk.clone(),
        nvram.clone(),
        Box::new(Md5Hasher),
        CONFIG.cache_pages,
    )?;
    Ok(store)
}
