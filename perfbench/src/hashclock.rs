//! A counting and timing `ChunkHasher` shim, handed to the libraries
//! through their public hasher parameters (`MemoryBuilder::hasher`,
//! `BlockStore::create`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use miv_hash::{ChunkHasher, Digest};

use crate::util::nanos;

/// Calls, bytes and host nanoseconds spent inside the wrapped hasher.
/// Relaxed atomics: these are statistics that publish no other data.
#[derive(Debug, Default)]
pub struct HashClock {
    calls: AtomicU64,
    bytes: AtomicU64,
    ns: AtomicU64,
}

impl HashClock {
    /// `(calls, bytes, ns)` so far.
    pub fn snapshot(&self) -> (u64, u64, u64) {
        (
            self.calls.load(Ordering::Relaxed),
            self.bytes.load(Ordering::Relaxed),
            self.ns.load(Ordering::Relaxed),
        )
    }

    fn record(&self, bytes: usize, since: Instant) {
        let ns = nanos(since.elapsed());
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
        self.ns.fetch_add(ns, Ordering::Relaxed);
    }
}

/// Forwards every call to `inner` and records it in a [`HashClock`].
#[derive(Debug)]
pub struct TimedHasher<H> {
    inner: H,
    clock: Arc<HashClock>,
}

impl<H> TimedHasher<H> {
    pub fn new(inner: H, clock: Arc<HashClock>) -> Self {
        TimedHasher { inner, clock }
    }
}

impl<H: ChunkHasher> ChunkHasher for TimedHasher<H> {
    fn digest(&self, data: &[u8]) -> Digest {
        let start = Instant::now();
        let d = self.inner.digest(data);
        self.clock.record(data.len(), start);
        d
    }

    fn digest_batch(&self, msgs: &[&[u8]]) -> Vec<Digest> {
        let start = Instant::now();
        let d = self.inner.digest_batch(msgs);
        self.clock.record(msgs.iter().map(|m| m.len()).sum(), start);
        d
    }

    fn batch_lanes(&self) -> usize {
        self.inner.batch_lanes()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}
