//! Cryptographic primitives and hash-unit timing models for memory
//! integrity verification.
//!
//! This crate provides everything the HPCA'03 hash-tree schemes need from
//! the "crypto substrate":
//!
//! * [`md5`] — the MD5 message digest (RFC 1321), the hash the paper's
//!   hardware unit implements; one-shot digests compress full blocks
//!   straight from the input, and [`md5::md5_multi`] interleaves up to
//!   [`BATCH_LANES`] independent messages per pass for ILP.
//! * [`sha1`] — SHA-1 (RFC 3174), the paper's alternative hash, with the
//!   same one-shot and multi-lane ([`sha1::sha1_multi`]) paths.
//! * [`sha256`] — SHA-256 (FIPS 180-4), the modern default hash, again
//!   with one-shot and multi-lane ([`sha256::sha256_multi`]) paths;
//!   [`HashAlgo`] selects between the three units at the CLI.
//! * [`xtea`] — the XTEA block cipher, used to build a 128-bit
//!   pseudo-random permutation for the incremental MAC.
//! * [`aes`] — AES-128 (FIPS-197), the standards-grade alternative
//!   permutation (see [`prp`]).
//! * [`xormac`] — the incremental XOR-MAC of Bellare, Guérin and Rogaway
//!   with the paper's one-bit timestamps (§5.4), supporting O(1)
//!   single-block updates.
//! * [`engine`] — parameters of the pipelined hashing unit (160-cycle
//!   latency, configurable throughput; Table 1). The schedulable
//!   cycle-level resource lives in `miv-core::hash_unit`.
//! * [`digest`] — the 128-bit [`Digest`] value and the
//!   [`ChunkHasher`] trait that the integrity-tree
//!   core is generic over.
//!
//! # Security
//!
//! MD5 and SHA-1 are implemented because the paper evaluates them; both
//! are **cryptographically broken** for collision resistance today. This
//! crate is a research artifact for architecture simulation — do not use
//! it to protect real data.
//!
//! # Examples
//!
//! ```
//! use miv_hash::md5::md5;
//!
//! let d = md5(b"abc");
//! assert_eq!(d.to_hex(), "900150983cd24fb0d6963f7d28e17f72");
//! ```

#![forbid(unsafe_code)]

pub mod aes;
pub mod digest;
pub mod engine;
pub mod md5;
pub mod narrow;
mod prf;
pub mod prp;
pub mod sha1;
pub mod sha256;
pub mod xormac;
pub mod xtea;

pub use digest::{ChunkHasher, Digest, HashAlgo, Md5Hasher, Sha1Hasher, Sha256Hasher, BATCH_LANES};
pub use engine::{HashEngineConfig, Throughput};
pub use xormac::XorMac;
