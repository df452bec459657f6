//! Benchmark harness and shared helpers.
//!
//! The workspace builds offline, so instead of an external benchmark
//! framework the crate ships a small `std::time`-based [`Harness`]: each
//! `benches/` target is a plain `fn main()` (`harness = false`) that
//! registers closures and prints a throughput table. The benchmarks:
//!
//! * `hash_primitives` — MD5 / SHA-1 / XOR-MAC software throughput (the
//!   quantities Table 1's hardware hash unit abstracts).
//! * `figures` — one benchmark per evaluation figure, each running a
//!   scaled-down version of the corresponding simulator sweep.
//! * `ablations` — the design-choice studies called out in `DESIGN.md`:
//!   hash caching, chunk geometry, incremental MAC, write-allocate
//!   optimization, speculative verification.
//! * `functional_engine` — byte-moving throughput of the functional
//!   `VerifiedMemory` engine.
//! * `obs_overhead` — cost of the `miv-obs` recording handles, enabled
//!   versus disabled, standalone and inside a full simulation.
//!
//! Run with `cargo bench -p miv-bench`; pass a substring to run a subset
//! (`cargo bench -p miv-bench --bench figures -- fig4`).

#![forbid(unsafe_code)]

use std::time::{Duration, Instant};

use miv_core::timing::Scheme;
use miv_sim::report::{f2, Table};
use miv_sim::{RunResult, System, SystemConfig};
use miv_trace::Benchmark;

/// Instructions for bench-sized simulator runs (small but non-trivial).
pub const BENCH_WARMUP: u64 = 5_000;
/// Measured instructions for bench-sized simulator runs.
pub const BENCH_MEASURE: u64 = 40_000;

/// Runs one bench-sized simulation.
pub fn bench_run(scheme: Scheme, l2_bytes: u64, line: u32, bench: Benchmark) -> RunResult {
    let cfg = SystemConfig::hpca03(scheme, l2_bytes, line);
    System::for_benchmark(cfg, bench, 42).run(BENCH_WARMUP, BENCH_MEASURE)
}

/// One finished benchmark row.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Benchmark name (`group/case`).
    pub name: String,
    /// Iterations measured (after calibration).
    pub iters: u64,
    /// Mean wall-clock nanoseconds per iteration.
    pub ns_per_iter: f64,
    /// Throughput in MB/s when the routine moves a known byte count.
    pub mbps: Option<f64>,
}

/// A minimal wall-clock benchmark harness.
///
/// Batched routines are calibrated by doubling the batch size until one
/// batch takes at least ~2 ms, then the best of three batches is
/// reported, so sub-microsecond operations are still resolvable with a
/// plain [`Instant`].
///
/// # Examples
///
/// ```
/// let mut h = miv_bench::Harness::with_filter(None);
/// let mut acc = 0u64;
/// h.bench("wrapping_add", || acc = acc.wrapping_add(3));
/// assert_eq!(h.results().len(), 1);
/// ```
#[derive(Debug)]
pub struct Harness {
    filter: Option<String>,
    target: Duration,
    results: Vec<Measurement>,
}

impl Harness {
    /// Builds a harness filtering by the first non-flag CLI argument
    /// (`cargo bench -- <substring>`).
    pub fn from_args() -> Self {
        Harness::with_filter(std::env::args().skip(1).find(|a| !a.starts_with('-')))
    }

    /// Builds a harness with an explicit name filter.
    pub fn with_filter(filter: Option<String>) -> Self {
        Harness {
            filter,
            target: Duration::from_millis(200),
            results: Vec::new(),
        }
    }

    /// Sets the per-benchmark time budget (default 200 ms). Quick/CI
    /// modes shrink it; the calibration floor still guarantees a
    /// timeable batch.
    pub fn set_target(&mut self, target: Duration) {
        self.target = target;
    }

    fn skip(&self, name: &str) -> bool {
        self.filter.as_deref().is_some_and(|f| !name.contains(f))
    }

    /// Benchmarks `f`, batching iterations inside one timing window.
    pub fn bench<R>(&mut self, name: &str, f: impl FnMut() -> R) {
        self.bench_inner(name, None, f);
    }

    /// Like [`bench`](Self::bench), reporting MB/s for a routine that
    /// processes `bytes` per iteration.
    pub fn bench_bytes<R>(&mut self, name: &str, bytes: u64, f: impl FnMut() -> R) {
        self.bench_inner(name, Some(bytes), f);
    }

    #[expect(
        clippy::disallowed_methods,
        reason = "the bench Harness exists to measure real time; sim/core never link it"
    )]
    fn bench_inner<R>(&mut self, name: &str, bytes: Option<u64>, mut f: impl FnMut() -> R) {
        if self.skip(name) {
            return;
        }
        // Calibrate: double the batch until it is long enough to time.
        let mut batch = 1u64;
        let floor = Duration::from_millis(2);
        loop {
            let t0 = Instant::now();
            for _ in 0..batch {
                std::hint::black_box(f());
            }
            if t0.elapsed() >= floor || batch >= 1 << 30 {
                break;
            }
            batch *= 2;
        }
        // Measure: best of up to three batches within the time budget.
        let rounds = 3;
        let mut best = f64::INFINITY;
        let deadline = Instant::now() + self.target;
        for round in 0..rounds {
            let t0 = Instant::now();
            for _ in 0..batch {
                std::hint::black_box(f());
            }
            let per = t0.elapsed().as_nanos() as f64 / batch as f64;
            best = best.min(per);
            if round + 1 < rounds && Instant::now() >= deadline {
                break;
            }
        }
        self.push(name, batch, best, bytes);
    }

    /// Benchmarks `routine` with a fresh `setup()` value per iteration;
    /// only `routine` is timed. Intended for routines that are
    /// milliseconds long (whole simulation runs), so each iteration is
    /// timed individually and the best one is reported — the same
    /// best-of convention as the batched path, which keeps allocator and
    /// scheduler noise out of A/B comparisons.
    #[expect(
        clippy::disallowed_methods,
        reason = "the bench Harness exists to measure real time; sim/core never link it"
    )]
    pub fn bench_with_setup<S, R>(
        &mut self,
        name: &str,
        mut setup: impl FnMut() -> S,
        mut routine: impl FnMut(S) -> R,
    ) {
        if self.skip(name) {
            return;
        }
        let mut iters = 0u64;
        let mut best = f64::INFINITY;
        let mut spent = Duration::ZERO;
        while iters < 3 || (spent < self.target && iters < 1000) {
            let input = setup();
            let t0 = Instant::now();
            std::hint::black_box(routine(input));
            let dt = t0.elapsed();
            best = best.min(dt.as_nanos() as f64);
            spent += dt;
            iters += 1;
        }
        self.push(name, iters, best, None);
    }

    fn push(&mut self, name: &str, iters: u64, ns_per_iter: f64, bytes: Option<u64>) {
        let mbps = bytes.map(|b| b as f64 * 1e9 / ns_per_iter / 1e6);
        self.results.push(Measurement {
            name: name.to_string(),
            iters,
            ns_per_iter,
            mbps,
        });
    }

    /// Measurements recorded so far.
    pub fn results(&self) -> &[Measurement] {
        &self.results
    }

    /// Prints the result table.
    pub fn finish(&self) {
        let mut t = Table::new(vec![
            "benchmark".into(),
            "iters".into(),
            "ns/iter".into(),
            "MB/s".into(),
        ]);
        for m in &self.results {
            t.row(vec![
                m.name.clone(),
                m.iters.to_string(),
                f2(m.ns_per_iter),
                m.mbps.map_or_else(|| "-".into(), f2),
            ]);
        }
        print!("{}", t.render());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_run_smoke() {
        let r = bench_run(Scheme::CHash, 256 << 10, 64, Benchmark::Gzip);
        assert!(r.ipc > 0.0);
        assert_eq!(r.instructions, BENCH_MEASURE);
    }

    #[test]
    fn harness_measures_and_filters() {
        let mut h = Harness::with_filter(Some("keep".into()));
        h.target = Duration::from_millis(5);
        let mut acc = 0u64;
        h.bench("keep_this", || acc = acc.wrapping_add(1));
        h.bench("drop_this", || acc = acc.wrapping_add(1));
        h.bench_with_setup("also_dropped", || 1u64, |x| x + 1);
        assert_eq!(h.results().len(), 1);
        let m = &h.results()[0];
        assert_eq!(m.name, "keep_this");
        assert!(m.ns_per_iter > 0.0);
        assert!(m.iters >= 1);
    }

    #[test]
    fn harness_reports_throughput() {
        let mut h = Harness::with_filter(None);
        h.target = Duration::from_millis(5);
        let buf = vec![1u8; 4096];
        h.bench_bytes("sum_4k", 4096, || {
            buf.iter().map(|&b| b as u64).sum::<u64>()
        });
        let m = &h.results()[0];
        assert!(m.mbps.unwrap() > 0.0);
    }
}
