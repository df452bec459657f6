//! `verify-rw`: the functional engine (`VerifiedMemory`) under a uniform
//! random 70/30 mix of 64 B reads and writes over 16 MB, sent in turn to
//! a hash tree and to an incremental-MAC tree. The working set is 64x
//! the trusted cache, so most requests walk the tree.

use std::sync::Arc;
use std::time::{Duration, Instant};

use miv_core::{EngineStats, MemoryBuilder, Protection, TamperKind, VerifiedMemory};
use miv_hash::Md5Hasher;

use crate::hashclock::{HashClock, TimedHasher};
use crate::report::{metric, Clock, Metric, Report};
use crate::util::{
    geomean, kops, median, op_stream, ratio, Budget, Calibration, Op, RoundLatencies, SplitMix,
    Stream, Timings,
};

const DATA_BYTES: u64 = 16 << 20;
/// 4096 blocks = 256 KB of trusted cache.
const CACHE_BLOCKS: usize = 4096;
const REQ_BYTES: usize = 64;
const WRITE_PCT: u64 = 30;
/// Requests per engine per round.
const OPS: usize = 60_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Engine {
    Tree,
    Mac,
}

impl Engine {
    const ALL: [Engine; 2] = [Engine::Tree, Engine::Mac];

    fn label(self) -> &'static str {
        match self {
            Engine::Tree => "tree",
            Engine::Mac => "mac",
        }
    }

    fn builder(self, data: Vec<u8>) -> MemoryBuilder {
        let b = MemoryBuilder::new()
            .data_bytes(DATA_BYTES)
            .cache_blocks(CACHE_BLOCKS)
            .block_bytes(64)
            .initial_data(data);
        match self {
            Engine::Tree => b.chunk_bytes(64).protection(Protection::HashTree),
            Engine::Mac => b.chunk_bytes(128).protection(Protection::IncrementalMac),
        }
    }
}

/// What one pass of the request stream through one engine measured.
struct Pass {
    /// Set-up time and request latencies (see [`Timings`]).
    setup_s: f64,
    latency: Timings,
    /// Engine counters and trusted-cache (hits, misses) over the
    /// requests only (not the build, not the probe).
    stats: EngineStats,
    cache: (u64, u64),
    attempted: u64,
    failed: u64,
    /// Hasher calls, bytes and time during the requests (traced pass).
    hash: (u64, u64, u64),
}

fn pass(
    engine: Engine,
    data: &[u8],
    ops: &[Op],
    seed: u64,
    clock: Option<&Arc<HashClock>>,
    cal: &mut Calibration,
) -> Result<Pass, String> {
    let mut builder = engine.builder(data.to_vec());
    if let Some(clock) = clock {
        builder = builder.hasher(Box::new(TimedHasher::new(Md5Hasher, clock.clone())));
    }
    let k = cal.scale();
    let start = Instant::now();
    let built = builder.try_build();
    let setup_s = start.elapsed().as_secs_f64() * k;
    let mut mem = built.map_err(|e| format!("{} geometry rejected: {e}", engine.label()))?;
    let mut shadow = data.to_vec();
    let mut payload = SplitMix::new(seed, Stream::Payload);
    let mut buf = [0u8; REQ_BYTES];
    let mut latency = Timings::with_capacity(ops.len());
    let mut failed = 0;
    let stats0 = mem.stats();
    let cache0 = mem.cache_counters();
    let hash0 = clock.map(|c| c.snapshot()).unwrap_or_default();
    for op in ops {
        if op.write {
            payload.fill(&mut buf);
        }
        let r = latency.time(cal, || {
            if op.write {
                mem.write(op.addr, &buf)
            } else {
                mem.read(op.addr, &mut buf)
            }
        });
        let shadowed = &mut shadow[op.addr as usize..op.addr as usize + REQ_BYTES];
        match r {
            Ok(()) if op.write => shadowed.copy_from_slice(&buf),
            Ok(()) if buf[..] == shadowed[..] => {}
            _ => failed += 1,
        }
    }
    let hash1 = clock.map(|c| c.snapshot()).unwrap_or_default();
    let stats = mem.stats().delta(&stats0);
    let cache = mem.cache_counters();
    let cache = (cache.0 - cache0.0, cache.1 - cache0.1);
    let probe_missed = !tamper_probe_detected(&mut mem, seed);
    Ok(Pass {
        setup_s,
        latency,
        stats,
        cache,
        attempted: ops.len() as u64 + 1,
        failed: failed + u64::from(probe_missed),
        hash: (hash1.0 - hash0.0, hash1.1 - hash0.1, hash1.2 - hash0.2),
    })
}

/// Writes everything back, empties the trusted cache, flips one data bit
/// in untrusted memory and reads it: the read must fail.
fn tamper_probe_detected(mem: &mut VerifiedMemory, seed: u64) -> bool {
    if mem.flush().is_err() || mem.clear_cache().is_err() {
        return false;
    }
    let mut rng = SplitMix::new(seed, Stream::Probe);
    let addr = rng.below(DATA_BYTES);
    let bit = rng.below(8) as u8;
    let phys = mem.layout().data_phys_addr(addr);
    mem.adversary().tamper(phys, TamperKind::BitFlip { bit });
    let mut byte = [0u8; 1];
    mem.read(addr, &mut byte).is_err()
}

pub fn run(seed: u64, budget: Duration, trace: bool) -> Result<Report, String> {
    let mut data = vec![0u8; DATA_BYTES as usize];
    SplitMix::new(seed, Stream::Image).fill(&mut data);
    let ops = op_stream(seed, OPS, DATA_BYTES, REQ_BYTES as u64, WRITE_PCT);
    let clock = Arc::new(HashClock::default());
    let mut cal = Calibration::new();
    let mut budget = Budget::new(budget);
    let mut report = Report::default();
    let mut setups = Vec::new();
    let mut first: Vec<(EngineStats, (u64, u64))> = Vec::new();
    let mut latency = [RoundLatencies::default(), RoundLatencies::default()];
    let mut round_unscaled: Vec<Vec<f64>> = vec![Vec::new(); 2];
    let mut traced: Vec<Vec<Pass>> = vec![Vec::new(), Vec::new()];
    let mut untraced_ns = [0u64; 2];

    while budget.another() {
        let mut setup = 0.0;
        for (i, &engine) in Engine::ALL.iter().enumerate() {
            let p = pass(engine, &data, &ops, seed, None, &mut cal)?;
            setup += p.setup_s;
            report.attempted += p.attempted;
            report.failed += p.failed;
            round_unscaled[i].push(kops(ops.len(), p.latency.raw_ns));
            match first.get(i) {
                None => first.push((p.stats, p.cache)),
                Some(f) if *f == (p.stats, p.cache) => {}
                Some(_) => {
                    return Err(format!("{} counters differ between rounds", engine.label()))
                }
            }
            if trace {
                let t = pass(engine, &data, &ops, seed, Some(&clock), &mut cal)?;
                if (t.stats, t.cache) != first[i] {
                    return Err(format!(
                        "traced {} pass does not reproduce the untraced counters",
                        engine.label()
                    ));
                }
                report.attempted += t.attempted;
                report.failed += t.failed;
                untraced_ns[i] += p.latency.raw_ns;
                traced[i].push(t);
            }
            latency[i].push(&p.latency);
        }
        setups.push(setup);
    }
    report.rounds = budget.rounds();

    let mut kops = Vec::new();
    let mut p50 = Vec::new();
    let mut p99 = Vec::new();
    let mut amplification = Vec::new();
    let unscaled: Vec<f64> = round_unscaled.iter().map(|r| median(r)).collect();
    for (i, &engine) in Engine::ALL.iter().enumerate() {
        let e = engine.label();
        let sum = latency[i].summary(1.0);
        let (k, lat50, lat99) = (sum.throughput_k, sum.p50_us, sum.p99_us);
        let s = first[i].0;
        let moved = (s.block_reads + s.unchecked_block_reads + s.block_writes) * 64;
        let amp = ratio(moved, (OPS * REQ_BYTES) as u64);
        kops.push(k);
        p50.push(lat50);
        p99.push(lat99);
        amplification.push(amp);
        report.detail.extend([
            metric(format!("kops.{e}"), k, "k/s", Clock::Host),
            metric(format!("op_p50_us.{e}"), lat50, "us", Clock::Host),
            metric(format!("op_p99_us.{e}"), lat99, "us", Clock::Host),
            metric(
                format!("traffic_amplification.{e}"),
                amp,
                "B/B",
                Clock::Count,
            ),
        ]);
    }
    report.end_to_end = vec![
        metric("setup_s", median(&setups), "s", Clock::Host),
        metric("peak_rss_mb", budget.peak_rss_mb()?, "MB", Clock::Host),
        metric("throughput", geomean(&kops), "k/s", Clock::Host),
        metric("op_p50_us", geomean(&p50), "us", Clock::Host),
        metric("op_p99_us", geomean(&p99), "us", Clock::Host),
    ];
    report.detail.extend([
        metric(
            "throughput.unscaled",
            geomean(&unscaled),
            "k/s",
            Clock::Host,
        ),
        metric(
            "traffic_amplification",
            geomean(&amplification),
            "B/B",
            Clock::Count,
        ),
    ]);
    if trace {
        report.per_layer = per_layer(&first, &traced, &untraced_ns);
    }
    Ok(report)
}

fn per_layer(
    first: &[(EngineStats, (u64, u64))],
    traced: &[Vec<Pass>],
    untraced_ns: &[u64; 2],
) -> Vec<Metric> {
    let mut m = Vec::new();
    let mut traced_ns = 0;
    for (i, &engine) in Engine::ALL.iter().enumerate() {
        let e = engine.label();
        let passes = &traced[i];
        let ops: u64 = passes
            .iter()
            .map(|p| p.latency.scaled_ns.len() as u64)
            .sum();
        let op_ns: u64 = passes.iter().map(|p| p.latency.raw_ns).sum();
        let hash_calls: u64 = passes.iter().map(|p| p.hash.0).sum();
        let hash_ns: u64 = passes.iter().map(|p| p.hash.2).sum();
        // Work counts repeat exactly from pass to pass: report one pass's.
        let (calls_once, bytes_once, _) = passes[0].hash;
        traced_ns += op_ns;
        let (s, (hits, misses)) = first[i];
        let per_op = |n: u64| ratio(n, OPS as u64);
        if engine == Engine::Tree {
            m.extend([
                metric(
                    "hash.self_ns_per_call.tree",
                    ratio(hash_ns, hash_calls),
                    "ns",
                    Clock::Host,
                ),
                metric(
                    "hash.calls_per_op.tree",
                    per_op(calls_once),
                    "count",
                    Clock::Count,
                ),
                metric(
                    "hash.bytes_per_op.tree",
                    per_op(bytes_once),
                    "B",
                    Clock::Count,
                ),
            ]);
        } else {
            m.push(metric(
                "engine.mac_updates_per_op.mac",
                per_op(s.mac_updates),
                "count",
                Clock::Count,
            ));
        }
        m.extend([
            metric(
                format!("engine.self_ns_per_op.{e}"),
                ratio(op_ns.saturating_sub(hash_ns), ops),
                "ns",
                Clock::Host,
            ),
            metric(
                format!("engine.block_reads_per_op.{e}"),
                per_op(s.block_reads + s.unchecked_block_reads),
                "count",
                Clock::Count,
            ),
            metric(
                format!("engine.writebacks_per_op.{e}"),
                per_op(s.writebacks),
                "count",
                Clock::Count,
            ),
            metric(
                format!("engine.memo_hit_ratio.{e}"),
                ratio(s.memo_hits, s.memo_hits + s.chunk_verifications),
                "ratio",
                Clock::Count,
            ),
            metric(
                format!("tcache.hit_rate.{e}"),
                ratio(hits, hits + misses),
                "ratio",
                Clock::Count,
            ),
        ]);
    }
    m.push(metric(
        "tracing.overhead",
        ratio(traced_ns, untraced_ns.iter().sum()) - 1.0,
        "ratio",
        Clock::Host,
    ));
    m
}
