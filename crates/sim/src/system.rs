//! The assembled machine and measurement runs.

use miv_core::ConfigError;
use miv_cpu::Core;
use miv_obs::JsonValue;
use miv_trace::{Profile, TraceGenerator};

use crate::config::SystemConfig;
use crate::hierarchy::Hierarchy;
use crate::telemetry::{Sample, Telemetry};

/// Measured results of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Scheme label (`base`, `naive`, `chash`, `mhash`, `ihash`).
    pub scheme: String,
    /// Workload name.
    pub benchmark: String,
    /// Instructions measured (after warm-up).
    pub instructions: u64,
    /// Cycles elapsed in the measurement window.
    pub cycles: u64,
    /// Instructions per cycle — the paper's headline metric.
    pub ipc: f64,
    /// L2 miss rate for program data accesses (Figure 4).
    pub l2_data_miss_rate: f64,
    /// Demand L2 data misses.
    pub l2_data_misses: u64,
    /// L2 hit rate for hash-line accesses (1.0 when the scheme never
    /// touches hashes).
    pub hash_hit_rate: f64,
    /// Memory blocks loaded beyond demand fetches, per L2 data miss
    /// (Figure 5a).
    pub extra_loads_per_miss: f64,
    /// Total bytes moved on the memory bus.
    pub bus_bytes: u64,
    /// Bytes moved for hash-tree traffic.
    pub hash_bytes: u64,
    /// Memory-bus data bandwidth used, in GB/s at the 1 GHz clock.
    pub bandwidth_gbps: f64,
    /// Fraction of L2 lines holding hashes at the end of the run.
    pub l2_hash_occupancy: f64,
    /// Cycles demand fetches waited for a read-buffer entry.
    pub read_buffer_wait: u64,
}

impl RunResult {
    /// Slowdown of this run relative to a baseline IPC.
    pub fn slowdown_vs(&self, base_ipc: f64) -> f64 {
        if self.ipc == 0.0 {
            f64::INFINITY
        } else {
            base_ipc / self.ipc
        }
    }

    /// Normalized IPC relative to a baseline (1.0 = no overhead).
    pub fn normalized_ipc(&self, base_ipc: f64) -> f64 {
        if base_ipc == 0.0 {
            0.0
        } else {
            self.ipc / base_ipc
        }
    }

    /// JSON form with one field per metric, in declaration order.
    pub fn to_json(&self) -> JsonValue {
        let mut o = JsonValue::obj();
        o.push("scheme", self.scheme.as_str());
        o.push("benchmark", self.benchmark.as_str());
        o.push("instructions", self.instructions);
        o.push("cycles", self.cycles);
        o.push("ipc", self.ipc);
        o.push("l2_data_miss_rate", self.l2_data_miss_rate);
        o.push("l2_data_misses", self.l2_data_misses);
        o.push("hash_hit_rate", self.hash_hit_rate);
        o.push("extra_loads_per_miss", self.extra_loads_per_miss);
        o.push("bus_bytes", self.bus_bytes);
        o.push("hash_bytes", self.hash_bytes);
        o.push("bandwidth_gbps", self.bandwidth_gbps);
        o.push("l2_hash_occupancy", self.l2_hash_occupancy);
        o.push("read_buffer_wait", self.read_buffer_wait);
        o
    }
}

/// A configured machine attached to one workload.
///
/// # Examples
///
/// ```
/// use miv_core::Scheme;
/// use miv_sim::{System, SystemConfig};
/// use miv_trace::Benchmark;
///
/// let cfg = SystemConfig::hpca03(Scheme::CHash, 256 << 10, 64);
/// let mut sys = System::for_benchmark(cfg, Benchmark::Gzip, 1);
/// let result = sys.run(10_000, 50_000);
/// assert!(result.ipc > 0.0);
/// ```
#[derive(Debug)]
pub struct System {
    core: Core<Hierarchy>,
    trace: TraceGenerator,
    benchmark: String,
    scheme: String,
    prewarm_span: u64,
    prewarmed: bool,
}

impl System {
    /// Builds a machine running the given profile.
    ///
    /// # Panics
    ///
    /// Panics where [`try_new`](Self::try_new) returns an error, e.g. if
    /// the profile's working set exceeds the checker's protected
    /// segment.
    pub fn new(config: SystemConfig, profile: Profile, seed: u64) -> Self {
        Self::try_new(config, profile, seed).expect("documented invariant")
    }

    /// The fallible form of [`new`](Self::new), for user-supplied
    /// specs: a malformed profile, a working set larger than the
    /// protected segment or a checker geometry that cannot work is a
    /// [`ConfigError`], not a panic.
    pub fn try_new(config: SystemConfig, profile: Profile, seed: u64) -> Result<Self, ConfigError> {
        profile
            .try_validate()
            .map_err(ConfigError::InvalidProfile)?;
        if profile.working_set > config.checker.protected_bytes {
            return Err(ConfigError::WorkingSetTooLarge {
                working_set: profile.working_set,
                protected_bytes: config.checker.protected_bytes,
            });
        }
        let hierarchy = Hierarchy::try_new(&config)?;
        Ok(System {
            core: Core::new(config.core, hierarchy),
            trace: TraceGenerator::new(profile, seed),
            benchmark: profile.name.to_string(),
            scheme: config.checker.scheme.label().to_string(),
            // The capacity-interesting (mid) region is what must be
            // resident for steady state; the far region never fits.
            prewarm_span: profile.mid_set,
            prewarmed: false,
        })
    }

    /// Functional cache warm-up: touches the tail of the working set once
    /// so capacity behaviour (rather than compulsory misses over the slow
    /// stochastic coverage of the footprint) governs the measurement
    /// window. Bounded to a few multiples of the L2 so huge streaming
    /// footprints stay cheap. Timing state and statistics are discarded
    /// by the warm-up reset in [`run`](Self::run).
    fn prewarm(&mut self) {
        use miv_cpu::MemoryPort;
        let hierarchy = self.core.port_mut();
        let line = hierarchy.l1().config().line_bytes as u64;
        let l2_bytes = hierarchy.l2_capacity_bytes();
        let span = self.prewarm_span.min(4 * l2_bytes);
        let mut addr = 0;
        while addr < span {
            hierarchy.load(0, addr);
            addr += line;
        }
    }

    /// Builds a machine running one of the paper's benchmarks.
    pub fn for_benchmark(config: SystemConfig, benchmark: miv_trace::Benchmark, seed: u64) -> Self {
        Self::new(config, benchmark.profile(), seed)
    }

    /// Attaches a metrics registry and event stream to every level of
    /// the machine (L1, L2, bus, hash unit, checker). Observation is
    /// behaviour-neutral: timing and the built-in statistics do not
    /// change when telemetry is attached.
    pub fn attach_telemetry(&mut self, telemetry: &Telemetry) {
        self.core
            .port_mut()
            .attach_observability(telemetry.registry(), telemetry.events().sink());
    }

    /// Runs `warmup` instructions (statistics discarded), then `measure`
    /// instructions, returning the measured results.
    pub fn run(&mut self, warmup: u64, measure: u64) -> RunResult {
        self.run_sampled(warmup, measure, measure).0
    }

    /// Like [`run`](Self::run), but additionally snapshots the machine
    /// every `interval` committed instructions, returning the
    /// per-interval time series (IPC, L2 data/hash hit rates, bus
    /// utilization) alongside the run totals. An `interval` of zero is
    /// treated as `measure` (a single sample covering the whole window).
    pub fn run_sampled(
        &mut self,
        warmup: u64,
        measure: u64,
        interval: u64,
    ) -> (RunResult, Vec<Sample>) {
        if !self.prewarmed {
            self.prewarm();
            self.prewarmed = true;
        }
        if warmup > 0 {
            let trace = &mut self.trace;
            self.core.run(trace.take(warmup as usize));
        }
        self.core.port_mut().reset_stats();
        let interval = if interval == 0 { measure } else { interval };
        let mut samples = Vec::new();
        let mut instructions = 0u64;
        let mut cycles = 0u64;
        let mut prev_l2 = *self.core.port().l2().l2_stats();
        let mut prev_busy = {
            let now = self.core.now();
            self.core.port().l2().bus_busy_through(now)
        };
        while instructions < measure {
            let step = interval.min(measure - instructions);
            let trace = &mut self.trace;
            let stats = self.core.run(trace.take(step as usize));
            instructions += stats.instructions;
            cycles += stats.cycles;
            let l2 = *self.core.port().l2().l2_stats();
            let dl2 = l2.delta(&prev_l2);
            // Bus occupancy attributed to the wall-clock window just
            // elapsed: a transfer straddling the boundary is split across
            // the two intervals, so the ratio is exact and never exceeds
            // 1.0 — no clamping. (Summing bookings at issue time would
            // overshoot, because the arbiter books background
            // verification transfers ahead of core time.)
            let busy = {
                let now = self.core.now();
                self.core.port().l2().bus_busy_through(now)
            };
            let hit_rate = |k: miv_cache::KindStats| {
                if k.accesses() == 0 {
                    1.0
                } else {
                    k.hits() as f64 / k.accesses() as f64
                }
            };
            samples.push(Sample {
                instructions,
                cycles,
                ipc: stats.ipc(),
                l2_data_hit_rate: hit_rate(dl2.data),
                l2_hash_hit_rate: hit_rate(dl2.hash),
                bus_utilization: if stats.cycles == 0 {
                    0.0
                } else {
                    (busy - prev_busy) as f64 / stats.cycles as f64
                },
            });
            prev_l2 = l2;
            prev_busy = busy;
        }
        (self.result(instructions, cycles), samples)
    }

    /// Assembles the run totals from the hierarchy's cumulative
    /// statistics (since the post-warm-up reset).
    fn result(&self, instructions: u64, cycles: u64) -> RunResult {
        let hierarchy = self.core.port();
        let l2 = hierarchy.l2().l2_stats();
        let checker = hierarchy.l2().stats();
        let bus = hierarchy.l2().bus_stats();
        let (occ_data, occ_hash) = hierarchy.l2().l2_occupancy();

        let data_misses = l2.data.misses();
        let extra = checker.extra_loads();
        RunResult {
            scheme: self.scheme.clone(),
            benchmark: self.benchmark.clone(),
            instructions,
            cycles,
            ipc: if cycles == 0 {
                0.0
            } else {
                instructions as f64 / cycles as f64
            },
            l2_data_miss_rate: l2.data.miss_rate(),
            l2_data_misses: data_misses,
            hash_hit_rate: if l2.hash.accesses() == 0 {
                1.0
            } else {
                l2.hash.hits() as f64 / l2.hash.accesses() as f64
            },
            extra_loads_per_miss: if data_misses == 0 {
                0.0
            } else {
                extra as f64 / data_misses as f64
            },
            bus_bytes: bus.total_bytes(),
            hash_bytes: bus.hash_bytes(),
            bandwidth_gbps: if cycles == 0 {
                0.0
            } else {
                bus.total_bytes() as f64 / cycles as f64
            },
            l2_hash_occupancy: if occ_data + occ_hash == 0 {
                0.0
            } else {
                occ_hash as f64 / (occ_data + occ_hash) as f64
            },
            read_buffer_wait: checker.read_buffer_wait,
        }
    }

    /// The underlying hierarchy (for detailed statistics).
    pub fn hierarchy(&self) -> &Hierarchy {
        self.core.port()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use miv_core::timing::Scheme;
    use miv_trace::Benchmark;

    fn quick(scheme: Scheme, bench: Benchmark) -> RunResult {
        let mut cfg = SystemConfig::hpca03(scheme, 256 << 10, 64);
        cfg.checker.protected_bytes = 128 << 20;
        System::for_benchmark(cfg, bench, 7).run(5_000, 40_000)
    }

    #[test]
    fn base_runs_and_produces_sane_ipc() {
        let r = quick(Scheme::Base, Benchmark::Gzip);
        assert_eq!(r.scheme, "base");
        assert_eq!(r.benchmark, "gzip");
        assert_eq!(r.instructions, 40_000);
        assert!(r.ipc > 0.1 && r.ipc <= 4.0, "ipc = {}", r.ipc);
        assert_eq!(r.hash_bytes, 0);
        assert_eq!(r.extra_loads_per_miss, 0.0);
    }

    #[test]
    fn chash_slower_than_base_but_faster_than_naive() {
        let base = quick(Scheme::Base, Benchmark::Swim);
        let chash = quick(Scheme::CHash, Benchmark::Swim);
        let naive = quick(Scheme::Naive, Benchmark::Swim);
        assert!(
            chash.ipc <= base.ipc * 1.02,
            "{} vs {}",
            chash.ipc,
            base.ipc
        );
        assert!(naive.ipc < chash.ipc, "{} vs {}", naive.ipc, chash.ipc);
        assert!(
            naive.extra_loads_per_miss > chash.extra_loads_per_miss,
            "{} vs {}",
            naive.extra_loads_per_miss,
            chash.extra_loads_per_miss
        );
    }

    #[test]
    fn hash_occupancy_only_for_caching_schemes() {
        let chash = quick(Scheme::CHash, Benchmark::Twolf);
        assert!(chash.l2_hash_occupancy > 0.0);
        let naive = quick(Scheme::Naive, Benchmark::Twolf);
        assert_eq!(naive.l2_hash_occupancy, 0.0);
    }

    #[test]
    fn derived_metrics() {
        let r = quick(Scheme::Base, Benchmark::Gcc);
        assert!((r.normalized_ipc(r.ipc) - 1.0).abs() < 1e-12);
        assert!((r.slowdown_vs(r.ipc) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sampled_run_matches_totals_and_yields_series() {
        let mut cfg = SystemConfig::hpca03(Scheme::CHash, 256 << 10, 64);
        cfg.checker.protected_bytes = 128 << 20;
        let mut sys = System::for_benchmark(cfg, Benchmark::Swim, 7);
        let (r, samples) = sys.run_sampled(5_000, 40_000, 10_000);
        assert_eq!(samples.len(), 4);
        assert_eq!(samples.last().unwrap().instructions, r.instructions);
        assert_eq!(samples.last().unwrap().cycles, r.cycles);
        for pair in samples.windows(2) {
            assert!(pair[1].instructions > pair[0].instructions);
            assert!(pair[1].cycles > pair[0].cycles);
        }
        for s in &samples {
            assert!(s.ipc > 0.0 && s.ipc <= 4.0);
            assert!((0.0..=1.0).contains(&s.l2_data_hit_rate));
            assert!((0.0..=1.0).contains(&s.l2_hash_hit_rate));
            assert!((0.0..=1.0).contains(&s.bus_utilization));
        }
        // Identical machine, single-chunk run: totals must agree exactly
        // (sampling is observation, not perturbation).
        let mut cfg = SystemConfig::hpca03(Scheme::CHash, 256 << 10, 64);
        cfg.checker.protected_bytes = 128 << 20;
        let whole = System::for_benchmark(cfg, Benchmark::Swim, 7).run(5_000, 40_000);
        assert_eq!(whole.instructions, r.instructions);
        assert_eq!(whole.cycles, r.cycles);
        assert_eq!(whole.bus_bytes, r.bus_bytes);
    }

    #[test]
    fn telemetry_is_behaviour_neutral_and_mirrors_l1() {
        let build = || {
            let mut cfg = SystemConfig::hpca03(Scheme::CHash, 256 << 10, 64);
            cfg.checker.protected_bytes = 128 << 20;
            System::for_benchmark(cfg, Benchmark::Gcc, 3)
        };
        let plain = {
            let mut s = build();
            s.run(2_000, 0);
            s.run(0, 20_000)
        };
        let mut observed = build();
        let telemetry = crate::Telemetry::new();
        observed.attach_telemetry(&telemetry);
        observed.run(2_000, 0);
        // Mirror the warm-up stats reset so the registry covers exactly
        // the measurement window.
        telemetry.registry().reset();
        let r = observed.run(0, 20_000);
        assert_eq!(r.cycles, plain.cycles);
        assert_eq!(r.bus_bytes, plain.bus_bytes);
        let snap = telemetry.registry().snapshot();
        let l1 = observed.hierarchy().l1().stats().data;
        assert_eq!(snap.counters["l1.data.read_hits"], l1.read_hits);
        assert_eq!(snap.counters["l1.data.read_misses"], l1.read_misses);
        assert_eq!(snap.counters["l1.data.write_hits"], l1.write_hits);
        assert!(
            telemetry.events().recorded() > 0,
            "l2 misses must produce events"
        );
    }

    #[test]
    fn registry_snapshot_and_reset_sum_to_uninterrupted_run() {
        let build = || {
            let mut cfg = SystemConfig::hpca03(Scheme::CHash, 256 << 10, 64);
            cfg.checker.protected_bytes = 128 << 20;
            let mut sys = System::for_benchmark(cfg, Benchmark::Twolf, 11);
            let telemetry = crate::Telemetry::new();
            sys.attach_telemetry(&telemetry);
            (sys, telemetry)
        };
        let (mut sys, telemetry) = build();
        sys.run(2_000, 12_000);
        sys.run(0, 18_000);
        let whole = telemetry.registry().snapshot();
        // Interrupted: snapshot + reset between the segments, then merge.
        let (mut sys, telemetry) = build();
        sys.run(2_000, 12_000);
        let mut merged = telemetry.registry().snapshot();
        telemetry.registry().reset();
        sys.run(0, 18_000);
        merged.merge(&telemetry.registry().snapshot());
        assert_eq!(merged, whole);
    }

    #[test]
    fn split_run_matches_unsplit_run() {
        let build = || {
            let mut cfg = SystemConfig::hpca03(Scheme::CHash, 256 << 10, 64);
            cfg.checker.protected_bytes = 128 << 20;
            System::for_benchmark(cfg, Benchmark::Swim, 7)
        };
        let whole = build().run(5_000, 30_000);
        // Splitting the measurement window across two `run` calls inserts
        // a `reset_stats` at the seam; it must not perturb timing —
        // in-flight bus/hash bookings survive the reset.
        let mut sys = build();
        let a = sys.run(5_000, 12_000);
        let b = sys.run(0, 18_000);
        assert_eq!(a.instructions + b.instructions, whole.instructions);
        assert_eq!(
            a.cycles + b.cycles,
            whole.cycles,
            "mid-run reset_stats must not perturb timing"
        );
        assert_eq!(a.bus_bytes + b.bus_bytes, whole.bus_bytes);
    }

    #[test]
    #[should_panic(expected = "WorkingSetTooLarge")]
    fn oversized_working_set_rejected() {
        let mut cfg = SystemConfig::hpca03(Scheme::CHash, 256 << 10, 64);
        cfg.checker.protected_bytes = 1 << 20;
        let mcf = Benchmark::Mcf.profile();
        let err = System::try_new(cfg, mcf, 1).unwrap_err();
        assert!(
            matches!(err, ConfigError::WorkingSetTooLarge { .. }),
            "{err}"
        );
        // An 8-byte chunk holds no two 16-byte digests.
        let tiny = SystemConfig::hpca03(Scheme::CHash, 256 << 10, 8);
        let err = System::try_new(tiny, mcf, 1).unwrap_err();
        assert!(matches!(err, ConfigError::ArityTooSmall { .. }), "{err}");
        let _ = System::for_benchmark(cfg, Benchmark::Mcf, 1);
    }
}
