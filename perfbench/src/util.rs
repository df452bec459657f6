//! Seeded input generation, order statistics and process probes shared
//! by every workload.

use std::time::{Duration, Instant};

/// The independent input streams drawn from one workload seed.
#[derive(Debug, Clone, Copy)]
pub enum Stream {
    Requests = 1,
    Payload = 2,
    Probe = 3,
    Image = 4,
    Trace = 5,
    Calibration = 6,
}

/// SplitMix64: the benchmark's own input generator, so workload inputs
/// depend only on `--seed` and never on a library's PRNG.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator for one named input stream of a workload seed.
    pub fn new(seed: u64, stream: Stream) -> Self {
        let mut g = SplitMix(seed ^ (stream as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        g.next_u64();
        g
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; the bias is below 2^-40 for
    /// every `n` used here).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    pub fn fill(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }
}

/// One request of a closed-loop read/write stream.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    pub addr: u64,
    pub write: bool,
}

/// `count` requests of `len` bytes at `len`-aligned addresses spread
/// uniformly over `span` bytes, `write_pct` percent of them writes.
pub fn op_stream(seed: u64, count: usize, span: u64, len: u64, write_pct: u64) -> Vec<Op> {
    let mut rng = SplitMix::new(seed, Stream::Requests);
    (0..count)
        .map(|_| Op {
            addr: rng.below(span / len) * len,
            write: rng.below(100) < write_pct,
        })
        .collect()
}

pub fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of `samples` (sorted in place), in the
/// samples' own unit.
pub fn percentile(samples: &mut [u64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable();
    let rank = ((p / 100.0) * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1] as f64
}

pub fn geomean(values: &[f64]) -> f64 {
    let logs: f64 = values.iter().map(|v| v.ln()).sum();
    (logs / values.len() as f64).exp()
}

/// Thousands of operations per second for `ops` operations in `ns`.
pub fn kops(ops: usize, ns: u64) -> f64 {
    ops as f64 / (ns as f64 / 1e9) / 1000.0
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The process's resident-set high-water mark in MiB (Linux `VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Host times of a sequence of timed operations: each scaled to the
/// nominal speed (see [`Calibration`]), plus their unscaled wall-time sum.
#[derive(Debug)]
pub struct Timings {
    pub scaled_ns: Vec<u64>,
    pub raw_ns: u64,
}

impl Timings {
    pub fn with_capacity(n: usize) -> Self {
        Timings {
            scaled_ns: Vec::with_capacity(n),
            raw_ns: 0,
        }
    }

    /// Runs `f` as one timed operation.
    pub fn time<T>(&mut self, cal: &mut Calibration, f: impl FnOnce() -> T) -> T {
        let k = cal.scale();
        let start = Instant::now();
        let r = f();
        let ns = nanos(start.elapsed());
        self.raw_ns += ns;
        self.scaled_ns.push((ns as f64 * k) as u64);
        r
    }
}

/// Scaled latencies of the same operations in every round. Each round
/// repeats the same operations on the same state, so the median of one
/// operation over the rounds drops the host's one-off stalls and keeps
/// the work's own cost, tail included.
#[derive(Debug, Default)]
pub struct RoundLatencies(Vec<Vec<u64>>);

/// Throughput and latency of one operation stream.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    /// Thousands of work units per second over the per-operation medians.
    pub throughput_k: f64,
    pub p50_us: f64,
    pub p99_us: f64,
}

impl RoundLatencies {
    pub fn push(&mut self, round: &Timings) {
        self.0.push(round.scaled_ns.clone());
    }

    /// Summarises the per-operation medians; each operation does
    /// `units_per_op` units of work.
    pub fn summary(&self, units_per_op: f64) -> Summary {
        let ops = self.0.first().map_or(0, Vec::len);
        let mut per_op: Vec<u64> = (0..ops)
            .map(|j| {
                let times: Vec<f64> = self.0.iter().map(|r| r[j] as f64).collect();
                median(&times) as u64
            })
            .collect();
        let total_ns: u64 = per_op.iter().sum();
        Summary {
            throughput_k: kops(ops, total_ns) * units_per_op,
            p50_us: percentile(&mut per_op, 50.0) / 1000.0,
            p99_us: percentile(&mut per_op, 99.0) / 1000.0,
        }
    }
}

/// Decides whether another fixed-size round fits in the time budget.
/// Every workload runs at least [`MIN_ROUNDS`] rounds, so the
/// round-to-round determinism check always has two rounds to compare.
#[derive(Debug)]
pub struct Budget {
    start: Instant,
    budget: Duration,
    rounds: usize,
    first_round_rss: Option<Result<f64, String>>,
}

const MIN_ROUNDS: usize = 2;

impl Budget {
    pub fn new(budget: Duration) -> Self {
        Budget {
            start: Instant::now(),
            budget,
            rounds: 0,
            first_round_rss: None,
        }
    }

    /// Whether to start another round: yes until [`MIN_ROUNDS`] are done,
    /// then only while the mean round so far still fits.
    pub fn another(&mut self) -> bool {
        if self.rounds == 1 && self.first_round_rss.is_none() {
            self.first_round_rss = Some(peak_rss_mb());
        }
        let spent = self.start.elapsed();
        let go = self.rounds < MIN_ROUNDS || spent + spent / self.rounds as u32 <= self.budget;
        if go {
            self.rounds += 1;
        }
        go
    }

    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// The resident-set high-water mark in MiB at the end of the first
    /// round: the workload's footprint, read before the benchmark's own
    /// sample buffers grow with however many rounds the time allows.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        self.first_round_rss
            .clone()
            .unwrap_or(Err("no round completed".into()))
    }
}

/// Host-speed calibration. The shared host this benchmark runs on
/// changes speed by ±20% over seconds, and the simulator slows with it.
/// Every host time is therefore scaled by how fast a fixed reference
/// loop ran around it. The loop is benchmark-local code shaped like the
/// simulator's hot path — a 4-way LRU tag array, 128 KB, over a random
/// address stream that mostly hits — so a change to the libraries never
/// moves it. (A variant that missed to DRAM on a fifth of its steps
/// tracked the simulator worse.) It is re-run at most every
/// [`CALIBRATION_EVERY`], and the factor averages the last
/// [`CALIBRATION_WINDOW`] runs.
#[derive(Debug)]
pub struct Calibration {
    tags: Vec<u64>,
    rng: SplitMix,
    measured_at: Instant,
    recent: Vec<f64>,
    next_slot: usize,
}

/// Reference-loop speed that scaled times are expressed at, in ns per
/// step: about the median on the 2-core x86-64 container where the
/// benchmark was defined, so scaled times read close to wall time there.
pub const NOMINAL_NS_PER_STEP: f64 = 6.5;
const CALIBRATION_STEPS: usize = 10_000;
const CALIBRATION_EVERY: Duration = Duration::from_millis(20);
const CALIBRATION_WINDOW: usize = 8;

impl Calibration {
    pub fn new() -> Self {
        let mut c = Calibration {
            tags: vec![u64::MAX; 1 << 14],
            rng: SplitMix::new(0, Stream::Calibration),
            measured_at: Instant::now(),
            recent: Vec::with_capacity(CALIBRATION_WINDOW),
            next_slot: 0,
        };
        for _ in 0..CALIBRATION_WINDOW {
            c.measure();
        }
        c
    }

    fn measure(&mut self) {
        let sets = self.tags.len() / 4;
        let start = Instant::now();
        let mut hits = 0u64;
        for _ in 0..CALIBRATION_STEPS {
            let r = self.rng.next_u64();
            // 99% of accesses to a 128 KB hot set, 1% over 16 MB.
            let addr = if !r.is_multiple_of(100) {
                (r >> 8) % (128 << 10)
            } else {
                (r >> 8) % (16 << 20)
            };
            let line = addr >> 6;
            let set = (line as usize) % sets;
            let ways = &mut self.tags[set * 4..set * 4 + 4];
            if let Some(p) = ways.iter().position(|&t| t == line) {
                ways[..=p].rotate_right(1);
                hits += 1;
            } else {
                ways.rotate_right(1);
                ways[0] = line;
            }
        }
        std::hint::black_box(hits);
        self.measured_at = Instant::now();
        let ns = nanos(self.measured_at - start) as f64 / CALIBRATION_STEPS as f64;
        if self.recent.len() < CALIBRATION_WINDOW {
            self.recent.push(ns);
        } else {
            self.recent[self.next_slot] = ns;
        }
        self.next_slot = (self.next_slot + 1) % CALIBRATION_WINDOW;
    }

    /// Re-runs the reference loop if the last run is stale, and returns
    /// the factor that converts host time measured next into time at
    /// the nominal speed.
    pub fn scale(&mut self) -> f64 {
        if self.measured_at.elapsed() >= CALIBRATION_EVERY {
            self.measure();
        }
        let mean = self.recent.iter().sum::<f64>() / self.recent.len() as f64;
        NOMINAL_NS_PER_STEP / mean
    }
}
