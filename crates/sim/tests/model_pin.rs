//! Pins the timing model's output to recorded values.
//!
//! Every `cmp` job in CI compares two runs of the same build, so a change
//! that shifts the modelled timing deterministically passes all of them.
//! This test closes that gap: for each scheme on mcf and on gzip it makes
//! a short run on a small L2 and asserts the cycle count, bus bytes,
//! hash-unit busy cycles, L2 data and hash hits, and bus busy time at the
//! core's final cycle exactly. A change to the cache, bus or hash-unit
//! model must either leave these values alone or update them here and
//! explain why in EXPERIMENTS.md. The runs are too short for the
//! schedules to prune after the prewarm; the steady-state prune cadence
//! is pinned by `miv-mem`'s `schedule_differential` test.

use miv_core::Scheme;
use miv_cpu::{Core, MemoryPort};
use miv_sim::{Hierarchy, System, SystemConfig};
use miv_trace::{Benchmark, TraceGenerator};

const L2_BYTES: u64 = 256 << 10;
const L2_LINE: u32 = 64;
const SEED: u64 = 1;
const WARMUP: u64 = 5_000;
const MEASURE: u64 = 40_000;

/// The pinned observables of one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Pin {
    cycles: u64,
    bus_bytes: u64,
    hash_busy_cycles: u64,
    l2_data_hits: u64,
    l2_hash_hits: u64,
    bus_busy_through_now: u64,
}

/// Values recorded for `(benchmark, scheme)`, schemes in `Scheme::ALL`
/// order. Columns: cycles, bus bytes, hash-unit busy cycles, L2 data
/// hits, L2 hash hits, bus busy cycles through the final core cycle.
const EXPECTED: &[(Benchmark, [Pin; 5])] = &[
    (
        Benchmark::Mcf,
        [
            pin_of(87_639, 83_648, 0, 1742, 0, 716_400), // base
            pin_of(575_472, 920_768, 287_740, 1742, 0, 7_880_424), // naive
            pin_of(122_576, 162_240, 50_700, 1711, 1367, 993_400), // chash
            pin_of(114_974, 160_064, 50_560, 2289, 775, 867_024), // mhash
            pin_of(115_258, 160_448, 50_360, 2289, 770, 867_264), // ihash
        ],
    ),
    (
        Benchmark::Gzip,
        [
            pin_of(42_183, 58_112, 0, 1551, 0, 453_480), // base
            pin_of(400_695, 639_232, 199_760, 1551, 0, 4_987_884), // naive
            pin_of(55_885, 80_896, 25_280, 1510, 949, 610_360), // chash
            pin_of(48_045, 66_432, 20_760, 2002, 457, 522_064), // mhash
            pin_of(48_045, 66_432, 20_760, 2002, 457, 522_064), // ihash
        ],
    ),
];

const fn pin_of(
    cycles: u64,
    bus_bytes: u64,
    hash_busy_cycles: u64,
    l2_data_hits: u64,
    l2_hash_hits: u64,
    bus_busy_through_now: u64,
) -> Pin {
    Pin {
        cycles,
        bus_bytes,
        hash_busy_cycles,
        l2_data_hits,
        l2_hash_hits,
        bus_busy_through_now,
    }
}

/// Runs `scheme` on `benchmark` the way [`System::run`] does — prewarm,
/// warm-up, statistics reset, measurement — but on a bare core, so the
/// final core cycle is available for the bus busy-time query.
fn pin(scheme: Scheme, benchmark: Benchmark) -> Pin {
    let cfg = SystemConfig::hpca03(scheme, L2_BYTES, L2_LINE);
    let profile = benchmark.profile();
    let mut core = Core::new(cfg.core, Hierarchy::new(&cfg));
    let mut trace = TraceGenerator::new(profile, SEED);
    // System's functional prewarm: one load per L1 line over the mid
    // region, capped at four L2 capacities, all issued at cycle 0.
    let hierarchy = core.port_mut();
    let line = hierarchy.l1().config().line_bytes as u64;
    let span = profile.mid_set.min(4 * hierarchy.l2_capacity_bytes());
    let mut addr = 0;
    while addr < span {
        hierarchy.load(0, addr);
        addr += line;
    }
    core.run(trace.by_ref().take(WARMUP as usize));
    core.port_mut().reset_stats();
    let stats = core.run(trace.by_ref().take(MEASURE as usize));
    let l2 = core.port().l2();
    let pin = Pin {
        cycles: stats.cycles,
        bus_bytes: l2.bus_stats().total_bytes(),
        hash_busy_cycles: l2.engine_stats().busy_cycles,
        l2_data_hits: l2.l2_stats().data.hits(),
        l2_hash_hits: l2.l2_stats().hash.hits(),
        bus_busy_through_now: l2.bus_busy_through(core.now()),
    };
    // The bare core reproduces System exactly, so the pin covers the
    // System path too.
    let result = System::for_benchmark(cfg, benchmark, SEED).run(WARMUP, MEASURE);
    assert_eq!(
        (result.cycles, result.bus_bytes),
        (pin.cycles, pin.bus_bytes),
        "{scheme} on {benchmark}: bare core diverged from System"
    );
    pin
}

#[test]
fn timing_model_matches_recorded_values() {
    let actual: Vec<(Benchmark, [Pin; 5])> = [Benchmark::Mcf, Benchmark::Gzip]
        .into_iter()
        .map(|b| (b, Scheme::ALL.map(|s| pin(s, b))))
        .collect();
    assert_eq!(actual, EXPECTED, "actual values:\n{actual:#?}");
}
