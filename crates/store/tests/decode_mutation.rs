//! Seeded mutation probe of every persistent format the block store
//! parses, and of `BlockStore::open` over a mutated device image.
//!
//! The adversary owns the block file, so every byte a decoder reads is
//! attacker-chosen. The format checksums are unkeyed hashes the
//! adversary can recompute, so mutated superblocks and journal frames
//! are re-checksummed before decoding: the decoders must stay total on
//! inputs that pass their own integrity triage. The contract under test:
//!
//! * every decode returns `Ok` or a typed `FormatError`, never panics;
//! * `BlockStore::open` on a mutated image either fails, or opens and
//!   answers every read with the committed bytes or an integrity error.
//!
//! Seeds and budgets are fixed, so a failure reproduces exactly.

use std::panic::{catch_unwind, AssertUnwindSafe};

use miv_hash::digest::DIGEST_BYTES;
use miv_hash::{ChunkHasher, Md5Hasher};
use miv_obs::Rng;
use miv_store::{
    BlockStore, JournalEntry, MemMedium, MemRootStore, StoreConfig, StoreError, Superblock,
    TrustedRoot, SUPER_SLOT_BYTES,
};

/// Mutations per decode target.
const MUTATIONS: u32 = 5_000;
/// Mutated images opened by the device probe.
const IMAGES: u32 = 2_000;
/// Bytes of a superblock slot covered by its trailing checksum.
const SUPER_CHECKED: usize = SUPER_SLOT_BYTES as usize - DIGEST_BYTES;
/// End of a journal frame's checksummed span (magic, generation, page,
/// payload); the digest follows.
const FRAME_CHECKED: usize = 20 + PAGE_BYTES as usize;
/// Fixed header of the trusted-root blob; the digest count is its last
/// word.
const ROOT_HEADER: usize = 40;
const PAGE_BYTES: u32 = 128;

/// Values that tend to sit on a parser's boundaries.
const INTERESTING: [u64; 10] = [
    0,
    1,
    2,
    127,
    128,
    u32::MAX as u64,
    1 << 32,
    u64::MAX / DIGEST_BYTES as u64,
    // Count × digest size wraps to exactly zero.
    1 << 60,
    u64::MAX,
];

/// Applies one to three stacked structural mutations: bit flips, byte
/// overwrites, an interesting little-endian word, truncation, or
/// extension.
fn mutate(rng: &mut Rng, bytes: &mut Vec<u8>) {
    for _ in 0..rng.gen_range_u64(1, 4) {
        match rng.gen_range_u64(0, 6) {
            0 | 1 if !bytes.is_empty() => {
                for _ in 0..rng.gen_range_u64(1, 5) {
                    let at = rng.gen_range_usize(0, bytes.len());
                    bytes[at] ^= rng.gen_range_u64(1, 256) as u8;
                }
            }
            // Field-sized words at 4-byte alignment: every header field
            // of all three formats starts on one.
            2 | 3 if bytes.len() >= 8 => {
                let width = if rng.gen_bool(0.5) { 4 } else { 8 };
                let at = rng.gen_range_usize(0, (bytes.len() - width) / 4 + 1) * 4;
                let value = if rng.gen_bool(0.5) {
                    INTERESTING[rng.gen_range_usize(0, INTERESTING.len())]
                } else {
                    rng.next_u64()
                };
                bytes[at..at + width].copy_from_slice(&value.to_le_bytes()[..width]);
            }
            4 => bytes.truncate(rng.gen_range_usize(0, bytes.len() + 1)),
            _ => {
                let start = bytes.len();
                bytes.resize(start + rng.gen_range_usize(1, 65), 0);
                rng.fill_bytes(&mut bytes[start..]);
            }
        }
    }
}

/// Mutates `valid` [`MUTATIONS`] times; `forge` then plays the
/// adversary on each mutant (re-checksums it, fixes up a length) and
/// `decode` parses it, returning whether it decoded. A panic fails the
/// test naming the mutant. At least a quarter of the mutants must get
/// past the format's triage, so the probe reaches the field parsers.
fn probe(
    target: &str,
    seed: u64,
    valid: &[u8],
    mut forge: impl FnMut(&mut Rng, &mut Vec<u8>),
    decode: impl Fn(&[u8]) -> bool,
) {
    let mut rng = Rng::seed_from_u64(seed);
    let mut decoded = 0u32;
    for i in 0..MUTATIONS {
        let mut input = valid.to_vec();
        mutate(&mut rng, &mut input);
        forge(&mut rng, &mut input);
        let outcome = catch_unwind(AssertUnwindSafe(|| decode(&input)));
        assert!(
            outcome.is_ok(),
            "{target} mutation {i} panicked on input {input:02x?}"
        );
        decoded += u32::from(outcome.unwrap_or(false));
    }
    assert!(
        decoded > MUTATIONS / 4,
        "{target}: only {decoded} mutants decoded"
    );
}

/// Recomputes a superblock slot's checksum in place.
fn reseal_slot(slot: &mut [u8]) {
    let digest = Md5Hasher.digest(&slot[..SUPER_CHECKED]).into_bytes();
    slot[SUPER_CHECKED..SUPER_SLOT_BYTES as usize].copy_from_slice(&digest);
}

/// Recomputes a journal frame's checksum in place.
fn reseal_frame(frame: &mut [u8]) {
    let digest = Md5Hasher.digest(&frame[4..FRAME_CHECKED]).into_bytes();
    frame[FRAME_CHECKED..FRAME_CHECKED + DIGEST_BYTES].copy_from_slice(&digest);
}

#[test]
fn superblock_decode_is_total_on_resealed_mutations() {
    let valid = Superblock {
        generation: 5,
        data_bytes: 16 * 1024,
        page_bytes: PAGE_BYTES,
        journal_slots: 48,
        journal_len: 7,
        roots_digest: [0x5A; DIGEST_BYTES],
    }
    .encode(&Md5Hasher);
    probe(
        "superblock",
        0x5B10_C0DE,
        &valid,
        |_, slot| {
            if slot.len() >= SUPER_SLOT_BYTES as usize {
                reseal_slot(slot);
            }
        },
        |slot| match Superblock::decode(slot, &Md5Hasher) {
            Ok(sb) => {
                // Whatever decodes re-encodes to the same fields.
                assert_eq!(
                    Superblock::decode(&sb.encode(&Md5Hasher), &Md5Hasher),
                    Ok(sb)
                );
                true
            }
            Err(_) => false,
        },
    );
}

#[test]
fn journal_decode_is_total_on_resealed_mutations() {
    let valid = JournalEntry {
        generation: 9,
        page: 42,
        payload: (0..PAGE_BYTES).map(|b| b as u8).collect(),
    }
    .encode(&Md5Hasher);
    probe(
        "journal entry",
        0x0123_F4A3,
        &valid,
        |rng, frame| {
            if rng.gen_bool(0.75) && frame.len() >= FRAME_CHECKED + DIGEST_BYTES {
                reseal_frame(frame);
            }
        },
        |frame| match JournalEntry::decode(frame, PAGE_BYTES, &Md5Hasher) {
            Ok(entry) => {
                assert_eq!(entry.payload.len(), PAGE_BYTES as usize);
                true
            }
            Err(_) => false,
        },
    );
}

#[test]
fn trusted_root_decode_is_total_on_mutated_blobs() {
    let valid = TrustedRoot {
        generation: 3,
        data_bytes: 16 * 1024,
        page_bytes: PAGE_BYTES,
        journal_slots: 48,
        roots: (0..8u8).map(|r| [r; DIGEST_BYTES]).collect(),
    }
    .to_bytes();
    probe(
        "trusted root",
        0x7A57_0007,
        &valid,
        |rng, blob| {
            if rng.gen_bool(0.25) && blob.len() >= ROOT_HEADER {
                // A declared digest count, with the blob resized to the
                // body length it implies under wrapping arithmetic.
                let count = INTERESTING[rng.gen_range_usize(0, INTERESTING.len())];
                blob[ROOT_HEADER - 8..ROOT_HEADER].copy_from_slice(&count.to_le_bytes());
                let body = count.wrapping_mul(DIGEST_BYTES as u64).wrapping_add(40);
                if body <= 4096 {
                    blob.resize(body as usize, 0xA5);
                }
            }
        },
        |blob| match TrustedRoot::from_bytes(blob) {
            Ok(root) => {
                // Every byte of the blob is a field: decoding inverts.
                assert_eq!(root.to_bytes(), blob);
                true
            }
            Err(_) => false,
        },
    );
}

#[test]
fn open_on_mutated_image_fails_or_serves_committed_bytes() {
    let config = StoreConfig {
        data_bytes: 8 * 1024,
        page_bytes: PAGE_BYTES,
        cache_pages: 12,
        journal_slots: 0,
    };
    let medium = MemMedium::new();
    let roots = MemRootStore::new();
    let open = || {
        BlockStore::open(
            medium.clone(),
            roots.clone(),
            Box::new(Md5Hasher),
            config.cache_pages,
        )
    };
    let mut rng = Rng::seed_from_u64(0x0BE1_1D0C);

    // At least two committed generations, so the image carries a
    // committed journal prefix, both superblock slots, and pages the
    // journal does and does not shadow.
    let mut store = BlockStore::create(medium.clone(), roots.clone(), config, Box::new(Md5Hasher))
        .expect("valid geometry");
    for _ in 0..2 {
        for _ in 0..120 {
            let mut buf = vec![0u8; rng.gen_range_usize(1, 64)];
            rng.fill_bytes(&mut buf);
            let addr = rng.gen_range_u64(0, config.data_bytes - buf.len() as u64);
            store.write(addr, &buf).expect("honest write");
        }
        store.commit().expect("honest commit");
    }
    let geom = store.geometry().clone();
    drop(store);
    let honest = medium.snapshot();
    let committed = open()
        .expect("honest image opens")
        .0
        .read_vec(0, config.data_bytes as usize)
        .expect("honest image verifies");

    let offset = |at: u64| usize::try_from(at).expect("offset fits");
    let regions = [
        (0, geom.journal_offset(0)),
        (geom.journal_offset(0), geom.main_offset()),
        (geom.main_offset(), geom.total_bytes()),
    ];
    let page = PAGE_BYTES as usize;
    let (mut rejected, mut detected) = (0u32, 0u32);
    for i in 0..IMAGES {
        let mut image = honest.clone();
        let (lo, hi) = regions[rng.gen_range_usize(0, regions.len())];
        for _ in 0..rng.gen_range_u64(1, 5) {
            image[offset(rng.gen_range_u64(lo, hi))] ^= rng.gen_range_u64(1, 256) as u8;
        }
        if rng.gen_bool(0.5) {
            for slot in 0..2 {
                reseal_slot(&mut image[offset(geom.slot_offset(slot))..]);
            }
            for idx in 0..geom.journal_slots() {
                reseal_frame(&mut image[offset(geom.journal_offset(idx))..]);
            }
        }
        medium.restore(&image);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let Ok((mut store, _)) = open() else {
                rejected += 1;
                return;
            };
            let mut failed = false;
            for at in (0..committed.len()).step_by(page) {
                match store.read_vec(at as u64, page) {
                    Ok(bytes) => assert_eq!(bytes, committed[at..at + page], "wrong bytes at {at}"),
                    Err(StoreError::Integrity { .. }) if !failed => failed = true,
                    Err(StoreError::Poisoned) if failed => {}
                    Err(e) => panic!("unexpected read error {e}"),
                }
            }
            detected += u32::from(failed);
        }));
        assert!(outcome.is_ok(), "mutated image {i} broke the contract");
    }
    // Most mutants are caught; the rest land in bytes that recovery
    // overwrites or never reads (pads, uncommitted journal slots).
    assert!(
        rejected + detected > IMAGES / 2,
        "only {rejected} rejected at open and {detected} at read"
    );
}
