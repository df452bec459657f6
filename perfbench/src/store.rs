//! `store-rw`: the persistent block store (`BlockStore`) on an in-memory
//! medium and root store (no disk noise): 8 MB of 4 KB pages, a 256-page
//! cache, a uniform random 70/30 mix of 512 B reads and writes, and a
//! commit every 1000 requests, timed inside the request that triggers it.

use std::io;
use std::sync::Arc;
use std::time::{Duration, Instant};

use miv_hash::Md5Hasher;
use miv_store::{
    BlockStore, MemMedium, MemRootStore, StoreConfig, StoreError, StoreMedium, StoreStats,
};

use crate::hashclock::{HashClock, TimedHasher};
use crate::report::{metric, Clock, Metric, Report};
use crate::util::{
    kops, median, nanos, op_stream, percentile, ratio, Budget, Calibration, Op, RoundLatencies,
    SplitMix, Stream, Timings,
};

const CONFIG: StoreConfig = StoreConfig {
    data_bytes: 8 << 20,
    page_bytes: 4096,
    cache_pages: 256,
    journal_slots: 0,
};
const REQ_BYTES: usize = 512;
const WRITE_PCT: u64 = 30;
const COMMIT_EVERY: usize = 1000;
/// Requests per round.
const OPS: usize = 40_000;

/// `MemMedium` with a timing shim on every device call (a plain
/// pass-through in untraced passes).
#[derive(Debug)]
struct TimedMedium {
    inner: MemMedium,
    traced: bool,
    ns: u64,
}

impl TimedMedium {
    fn timed<T>(&mut self, f: impl FnOnce(&mut MemMedium) -> T) -> T {
        if !self.traced {
            return f(&mut self.inner);
        }
        let start = Instant::now();
        let r = f(&mut self.inner);
        self.ns += nanos(start.elapsed());
        r
    }
}

impl StoreMedium for TimedMedium {
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        self.timed(|m| m.read_at(offset, buf))
    }

    fn write_at(&mut self, offset: u64, data: &[u8]) -> io::Result<()> {
        self.timed(|m| m.write_at(offset, data))
    }

    fn sync(&mut self) -> io::Result<()> {
        self.timed(|m| m.sync())
    }

    fn len(&mut self) -> io::Result<u64> {
        self.timed(|m| m.len())
    }
}

type Store = BlockStore<TimedMedium, MemRootStore>;

struct Pass {
    /// Set-up time and request latencies (see [`Timings`]).
    setup_s: f64,
    latency: Timings,
    commit_ns: Vec<u64>,
    /// Store counters over the requests only.
    stats: StoreStats,
    medium_ns: u64,
    /// Hasher calls, bytes and time during the requests (traced pass).
    hash: (u64, u64, u64),
    attempted: u64,
    failed: u64,
}

/// One request; a commit, when due, runs inside it.
fn request(
    store: &mut Store,
    op: Op,
    buf: &[u8],
    commit: bool,
    commit_ns: &mut Vec<u64>,
) -> Result<Option<Vec<u8>>, StoreError> {
    let out = if op.write {
        store.write(op.addr, buf)?;
        None
    } else {
        Some(store.read_vec(op.addr, REQ_BYTES)?)
    };
    if commit {
        let start = Instant::now();
        store.commit()?;
        commit_ns.push(nanos(start.elapsed()));
    }
    Ok(out)
}

fn pass(
    ops: &[Op],
    seed: u64,
    clock: Option<&Arc<HashClock>>,
    cal: &mut Calibration,
) -> Result<Pass, String> {
    let device = MemMedium::new();
    let medium = TimedMedium {
        inner: device.clone(),
        traced: clock.is_some(),
        ns: 0,
    };
    let roots = MemRootStore::new();
    let hasher: Box<dyn miv_hash::ChunkHasher> = match clock {
        Some(c) => Box::new(TimedHasher::new(Md5Hasher, c.clone())),
        None => Box::new(Md5Hasher),
    };
    let k = cal.scale();
    let start = Instant::now();
    let created = BlockStore::create(medium, roots.clone(), CONFIG, hasher);
    let setup_s = start.elapsed().as_secs_f64() * k;
    let mut store = created.map_err(|e| format!("store geometry rejected: {e}"))?;

    let mut shadow = vec![0u8; CONFIG.data_bytes as usize];
    let mut payload = SplitMix::new(seed, Stream::Payload);
    let mut buf = [0u8; REQ_BYTES];
    let mut latency = Timings::with_capacity(ops.len());
    let mut commit_ns = Vec::new();
    let mut failed = 0;
    let stats0 = store.stats();
    let medium0 = store.medium().ns;
    let hash0 = clock.map(|c| c.snapshot()).unwrap_or_default();
    for (i, &op) in ops.iter().enumerate() {
        if op.write {
            payload.fill(&mut buf);
        }
        let commit = (i + 1) % COMMIT_EVERY == 0;
        let r = latency.time(cal, || {
            request(&mut store, op, &buf, commit, &mut commit_ns)
        });
        let at = op.addr as usize;
        match r {
            Ok(None) => shadow[at..at + REQ_BYTES].copy_from_slice(&buf),
            Ok(Some(read)) if read[..] == shadow[at..at + REQ_BYTES] => {}
            _ => failed += 1,
        }
    }
    let hash1 = clock.map(|c| c.snapshot()).unwrap_or_default();
    let stats = store.stats();
    let medium_ns = store.medium().ns - medium0;
    let probe_missed = !tamper_probe_detected(store, &device, roots, seed);
    Ok(Pass {
        setup_s,
        latency,
        commit_ns,
        stats: delta(&stats, &stats0),
        medium_ns,
        hash: (hash1.0 - hash0.0, hash1.1 - hash0.1, hash1.2 - hash0.2),
        attempted: ops.len() as u64 + 1,
        failed: failed + u64::from(probe_missed),
    })
}

fn delta(a: &StoreStats, b: &StoreStats) -> StoreStats {
    StoreStats {
        device_reads: a.device_reads - b.device_reads,
        device_writes: a.device_writes - b.device_writes,
        read_bytes: a.read_bytes - b.read_bytes,
        write_bytes: a.write_bytes - b.write_bytes,
        syncs: a.syncs - b.syncs,
        cache_hits: a.cache_hits - b.cache_hits,
        cache_misses: a.cache_misses - b.cache_misses,
        pages_hashed: a.pages_hashed - b.pages_hashed,
        pages_verified: a.pages_verified - b.pages_verified,
        journal_appends: a.journal_appends - b.journal_appends,
        commits: a.commits - b.commits,
        auto_commits: a.auto_commits - b.auto_commits,
        replayed_entries: a.replayed_entries,
    }
}

/// Commits twice (the second leaves no journal frames for recovery to
/// replay over the flipped page), closes the store, flips one bit of a
/// data page on the device, reopens from the trusted root and reads the
/// page: opening or the read must fail.
fn tamper_probe_detected(
    mut store: Store,
    device: &MemMedium,
    roots: MemRootStore,
    seed: u64,
) -> bool {
    if store.commit().is_err() || store.commit().is_err() {
        return false;
    }
    let mut rng = SplitMix::new(seed, Stream::Probe);
    let addr = rng.below(CONFIG.data_bytes);
    let geom = store.geometry().clone();
    drop(store);
    let offset = geom.page_offset(geom.layout().data_chunk_for(addr)) + addr % 4096;
    device.flip(offset, 1 << rng.below(8));
    let medium = TimedMedium {
        inner: device.clone(),
        traced: false,
        ns: 0,
    };
    match BlockStore::open(medium, roots, Box::new(Md5Hasher), CONFIG.cache_pages) {
        Ok((mut store, _)) => store.read_vec(addr, 1).is_err(),
        Err(_) => true,
    }
}

pub fn run(seed: u64, budget: Duration, trace: bool) -> Result<Report, String> {
    let ops = op_stream(seed, OPS, CONFIG.data_bytes, REQ_BYTES as u64, WRITE_PCT);
    let clock = Arc::new(HashClock::default());
    let mut cal = Calibration::new();
    let mut budget = Budget::new(budget);
    let mut report = Report::default();
    let mut setups = Vec::new();
    let mut first: Option<StoreStats> = None;
    let mut latency = RoundLatencies::default();
    let mut round_unscaled = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    let mut untraced_ns = 0;

    while budget.another() {
        let p = pass(&ops, seed, None, &mut cal)?;
        setups.push(p.setup_s);
        report.attempted += p.attempted;
        report.failed += p.failed;
        round_unscaled.push(kops(ops.len(), p.latency.raw_ns));
        match first {
            None => first = Some(p.stats),
            Some(f) if f == p.stats => {}
            Some(_) => return Err("store counters differ between rounds".into()),
        }
        if trace {
            let t = pass(&ops, seed, Some(&clock), &mut cal)?;
            if Some(t.stats) != first {
                return Err("traced store pass does not reproduce the untraced counters".into());
            }
            report.attempted += t.attempted;
            report.failed += t.failed;
            untraced_ns += p.latency.raw_ns;
            traced.push(t);
        }
        latency.push(&p.latency);
    }
    report.rounds = budget.rounds();
    let s = first.expect("at least one round ran");
    let sum = latency.summary(1.0);
    let amplification = ratio(s.read_bytes + s.write_bytes, (OPS * REQ_BYTES) as u64);
    report.end_to_end = vec![
        metric("setup_s", median(&setups), "s", Clock::Host),
        metric("peak_rss_mb", budget.peak_rss_mb()?, "MB", Clock::Host),
        metric("throughput", sum.throughput_k, "k/s", Clock::Host),
        metric("op_p50_us", sum.p50_us, "us", Clock::Host),
        metric("op_p99_us", sum.p99_us, "us", Clock::Host),
    ];
    report.detail = vec![
        metric(
            "throughput.unscaled",
            median(&round_unscaled),
            "k/s",
            Clock::Host,
        ),
        metric("traffic_amplification", amplification, "B/B", Clock::Count),
    ];
    if trace {
        report.per_layer = per_layer(&s, &traced, untraced_ns);
    }
    Ok(report)
}

fn per_layer(s: &StoreStats, traced: &[Pass], untraced_ns: u64) -> Vec<Metric> {
    let ops: u64 = traced
        .iter()
        .map(|p| p.latency.scaled_ns.len() as u64)
        .sum();
    let op_ns: u64 = traced.iter().map(|p| p.latency.raw_ns).sum();
    let medium_ns: u64 = traced.iter().map(|p| p.medium_ns).sum();
    let hash_calls: u64 = traced.iter().map(|p| p.hash.0).sum();
    let hash_ns: u64 = traced.iter().map(|p| p.hash.2).sum();
    let mut commits: Vec<u64> = traced
        .iter()
        .flat_map(|p| p.commit_ns.iter().copied())
        .collect();
    // Work counts repeat exactly from pass to pass: report one pass's.
    let (calls_once, bytes_once, _) = traced[0].hash;
    let per_op = |n: u64| ratio(n, OPS as u64);
    vec![
        metric(
            "store.self_ns_per_op",
            ratio(op_ns.saturating_sub(medium_ns + hash_ns), ops),
            "ns",
            Clock::Host,
        ),
        metric("medium.ns_per_op", ratio(medium_ns, ops), "ns", Clock::Host),
        metric(
            "store.commit_us",
            percentile(&mut commits, 50.0) / 1000.0,
            "us",
            Clock::Host,
        ),
        metric(
            "hash.self_ns_per_call.store",
            ratio(hash_ns, hash_calls),
            "ns",
            Clock::Host,
        ),
        metric(
            "hash.calls_per_op.store",
            per_op(calls_once),
            "count",
            Clock::Count,
        ),
        metric(
            "hash.bytes_per_op.store",
            per_op(bytes_once),
            "B",
            Clock::Count,
        ),
        metric(
            "store.cache_hit_rate",
            ratio(s.cache_hits, s.cache_hits + s.cache_misses),
            "ratio",
            Clock::Count,
        ),
        metric(
            "store.device_reads_per_op",
            per_op(s.device_reads),
            "count",
            Clock::Count,
        ),
        metric(
            "store.pages_hashed_per_op",
            per_op(s.pages_hashed),
            "count",
            Clock::Count,
        ),
        metric(
            "store.journal_appends_per_op",
            per_op(s.journal_appends),
            "count",
            Clock::Count,
        ),
        metric(
            "tracing.overhead",
            ratio(op_ns, untraced_ns) - 1.0,
            "ratio",
            Clock::Host,
        ),
    ]
}
