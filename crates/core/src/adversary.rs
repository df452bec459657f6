//! The shared adversary surface: tampering actions against untrusted
//! memory and layout-aware targeting of hash-tree metadata.
//!
//! This is the attack vocabulary every layer shares — the functional
//! engine's tests and the `miv-adversary` campaign crate all speak
//! [`TamperKind`]. The §3 threat model says everything off-chip is
//! attacker-controlled, so the [`Adversary`] view gives raw read/write
//! access to an [`UntrustedMemory`] with no verification in the way;
//! the taxonomy enumerates the paper's canonical attacks:
//!
//! * [`TamperKind::BitFlip`] — corrupt a stored value in place;
//! * [`TamperKind::Replace`] — overwrite with attacker-chosen bytes;
//! * [`TamperKind::CopyFrom`] — the relocation/splice attack (§4.4)
//!   defeated by position-binding every chunk;
//! * [`TamperKind::Rollback`] — restore a previously captured value,
//!   i.e. the replay/freshness attack (§4.4) defeated by the tree's
//!   root and by the §5.4 timestamps;
//! * [`TamperKind::HashNode`] — corrupt tree *metadata* rather than
//!   data, which the recursive parent check still catches.
//!
//! The [`parent_slot_addr`]/[`timestamp_byte_addr`] helpers resolve
//! where in untrusted memory a chunk's hash (or its §5.4 timestamp
//! bits) actually lives, so attacks on metadata need no hand-rolled
//! layout arithmetic.

use crate::layout::{ParentRef, TreeLayout};
use crate::storage::UntrustedMemory;
use miv_hash::narrow::NARROW_MAC_BYTES;

/// A saved copy of a memory region, for replay attacks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    addr: u64,
    data: Vec<u8>,
}

impl Snapshot {
    /// Captures a snapshot from raw parts (normally produced by
    /// [`Adversary::snapshot`]).
    pub fn new(addr: u64, data: Vec<u8>) -> Self {
        Snapshot { addr, data }
    }

    /// The region's starting address.
    pub fn addr(&self) -> u64 {
        self.addr
    }

    /// The saved bytes.
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// The replay action restoring this snapshot's bytes, to be applied
    /// at [`addr`](Self::addr).
    pub fn to_rollback(&self) -> TamperKind {
        TamperKind::Rollback {
            data: self.data.clone(),
        }
    }
}

/// A single tampering action.
// miv-analyze: exhaustive
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TamperKind {
    /// Flip one bit of the byte at the target address.
    BitFlip {
        /// Bit position 0–7.
        bit: u8,
    },
    /// Overwrite with attacker-chosen bytes.
    Replace {
        /// Replacement data.
        data: Vec<u8>,
    },
    /// Copy bytes from another (attacker-chosen) address — the relocation
    /// attack XOM defeats by hashing the address, and the tree defeats by
    /// position-binding every chunk.
    CopyFrom {
        /// Source address.
        src: u64,
        /// Number of bytes.
        len: usize,
    },
    /// Restore previously captured bytes — the replay/freshness attack
    /// (§4.4). The bytes were valid once; the tree's root (or the §5.4
    /// timestamps) has moved on, so restoring them is a violation.
    Rollback {
        /// The stale bytes to restore.
        data: Vec<u8>,
    },
    /// Flip one bit of tree *metadata* — a stored hash or MAC rather
    /// than program data. Behaves like [`TamperKind::BitFlip`] at the
    /// byte level; the distinct variant lets harnesses label and target
    /// attacks on the tree itself (resolve the address with
    /// [`parent_slot_addr`]).
    HashNode {
        /// Bit position 0–7.
        bit: u8,
    },
}

/// Attacker's-eye view of an [`UntrustedMemory`].
///
/// The adversary sees and modifies raw bytes without going through any
/// verification. Obtain one from the functional engine's
/// `adversary()` accessor.
#[derive(Debug)]
pub struct Adversary<'a> {
    mem: &'a mut UntrustedMemory,
}

impl<'a> Adversary<'a> {
    /// Wraps a memory in an adversary view.
    pub fn new(mem: &'a mut UntrustedMemory) -> Self {
        Adversary { mem }
    }

    /// Observes raw memory (the adversary can always read the bus).
    pub fn observe(&mut self, addr: u64, len: usize) -> Vec<u8> {
        self.mem.read_vec(addr, len)
    }

    /// Applies a tampering action at `addr`.
    pub fn tamper(&mut self, addr: u64, kind: TamperKind) {
        match kind {
            TamperKind::BitFlip { bit } | TamperKind::HashNode { bit } => {
                assert!(bit < 8, "bit index out of range");
                let mut byte = [0u8];
                self.mem.read(addr, &mut byte);
                byte[0] ^= 1 << bit;
                self.mem.write(addr, &byte);
            }
            TamperKind::Replace { data } | TamperKind::Rollback { data } => {
                self.mem.write(addr, &data)
            }
            TamperKind::CopyFrom { src, len } => {
                let data = self.mem.read_vec(src, len);
                self.mem.write(addr, &data);
            }
        }
    }

    /// Records a region for a later replay.
    pub fn snapshot(&mut self, addr: u64, len: usize) -> Snapshot {
        Snapshot {
            addr,
            data: self.mem.read_vec(addr, len),
        }
    }

    /// Restores a previously-saved region — the replay attack, routed
    /// through [`TamperKind::Rollback`].
    pub fn replay(&mut self, snapshot: &Snapshot) {
        self.tamper(snapshot.addr, snapshot.to_rollback());
    }
}

/// The untrusted-memory address of the slot holding `chunk`'s hash (or
/// MAC) in its parent chunk, or `None` when the parent is the on-chip
/// secure root and therefore out of the adversary's reach.
pub fn parent_slot_addr(layout: &TreeLayout, chunk: u64) -> Option<u64> {
    match layout.parent(chunk) {
        ParentRef::Secure { .. } => None,
        ParentRef::Chunk {
            chunk: parent,
            index,
        } => Some(layout.chunk_addr(parent) + layout.slot_offset(index) as u64),
    }
}

/// The untrusted-memory address of the §5.4 timestamp-bit byte in
/// `chunk`'s parent slot (only meaningful under the incremental-MAC
/// scheme, where the final slot byte carries one timestamp bit per
/// block). `None` when the slot lives in secure memory.
pub fn timestamp_byte_addr(layout: &TreeLayout, chunk: u64) -> Option<u64> {
    parent_slot_addr(layout, chunk).map(|slot| slot + NARROW_MAC_BYTES as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_flip() {
        let mut mem = UntrustedMemory::new(64);
        mem.write(5, &[0b1010_1010]);
        let mut adv = Adversary::new(&mut mem);
        adv.tamper(5, TamperKind::BitFlip { bit: 0 });
        assert_eq!(adv.observe(5, 1), vec![0b1010_1011]);
        // HashNode is the same byte-level action with a metadata label.
        adv.tamper(5, TamperKind::HashNode { bit: 0 });
        assert_eq!(adv.observe(5, 1), vec![0b1010_1010]);
    }

    #[test]
    fn replace_and_copy() {
        let mut mem = UntrustedMemory::new(64);
        mem.write(0, b"AAAA");
        mem.write(32, b"BBBB");
        let mut adv = Adversary::new(&mut mem);
        adv.tamper(0, TamperKind::CopyFrom { src: 32, len: 4 });
        assert_eq!(adv.observe(0, 4), b"BBBB");
        adv.tamper(
            0,
            TamperKind::Replace {
                data: b"CC".to_vec(),
            },
        );
        assert_eq!(adv.observe(0, 4), b"CCBB");
    }

    #[test]
    fn snapshot_replay_roundtrip() {
        let mut mem = UntrustedMemory::new(64);
        mem.write(8, b"old!");
        let snap = {
            let mut adv = Adversary::new(&mut mem);
            adv.snapshot(8, 4)
        };
        mem.write(8, b"new!");
        let mut adv = Adversary::new(&mut mem);
        adv.replay(&snap);
        assert_eq!(adv.observe(8, 4), b"old!");
        assert_eq!(snap.addr(), 8);
        assert_eq!(snap.data(), b"old!");
    }

    #[test]
    fn rollback_is_the_replay_primitive() {
        let mut mem = UntrustedMemory::new(64);
        mem.write(16, b"v1");
        let stale = Snapshot::new(16, b"v1".to_vec());
        mem.write(16, b"v2");
        let mut adv = Adversary::new(&mut mem);
        adv.tamper(16, stale.to_rollback());
        assert_eq!(adv.observe(16, 2), b"v1");
    }

    #[test]
    fn slot_addresses_resolve_through_the_layout() {
        // 4 KiB / 64-byte chunks: a 4-ary tree with internal levels.
        let layout = TreeLayout::new(4096, 64, 64);
        let leaf = layout.data_chunk_for(0);
        let slot = parent_slot_addr(&layout, leaf).expect("leaf parent is a hash chunk");
        let ParentRef::Chunk { chunk, index } = layout.parent(leaf) else {
            panic!("leaf parent must be in memory");
        };
        assert_eq!(
            slot,
            layout.chunk_addr(chunk) + layout.slot_offset(index) as u64
        );
        assert_eq!(timestamp_byte_addr(&layout, leaf), Some(slot + 15));
        // Top-level chunks hash into secure memory: unreachable.
        assert_eq!(parent_slot_addr(&layout, 0), None);
    }
}
