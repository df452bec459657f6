//! A miniature performance study using the cycle-level simulator.
//!
//! Runs three representative workloads under every verification scheme on
//! the Table 1 machine with a 1 MB L2, printing IPC, miss rates and bus
//! traffic — the same methodology as the full `figures` harness
//! (`cargo run -p miv-sim --release --bin figures -- all`), in miniature.
//!
//! ```text
//! cargo run --release --example performance_study
//! ```

use miv::core::Scheme;
use miv::obs::json::JsonValue;
use miv::sim::report::{f2, f3, pct, Table};
use miv::sim::{System, SystemConfig, Telemetry};
use miv::trace::Benchmark;

fn main() {
    let warmup = 30_000;
    let measure = 200_000;
    let benches = [Benchmark::Gzip, Benchmark::Mcf, Benchmark::Swim];

    println!("Table 1 machine, 1 MB 4-way L2, 64-B lines");
    println!("{warmup} warm-up + {measure} measured instructions per run\n");

    for bench in benches {
        let mut t = Table::new(vec![
            "scheme".into(),
            "IPC".into(),
            "vs base".into(),
            "L2 data miss".into(),
            "extra loads/miss".into(),
            "bus MB".into(),
            "hash MB".into(),
        ]);
        let mut base_ipc = 0.0;
        for scheme in Scheme::ALL {
            let cfg = SystemConfig::hpca03(scheme, 1 << 20, 64);
            let r = System::for_benchmark(cfg, bench, 42).run(warmup, measure);
            if scheme == Scheme::Base {
                base_ipc = r.ipc;
            }
            t.row(vec![
                scheme.label().into(),
                f3(r.ipc),
                pct(r.normalized_ipc(base_ipc)),
                pct(r.l2_data_miss_rate),
                f2(r.extra_loads_per_miss),
                f2(r.bus_bytes as f64 / 1e6),
                f2(r.hash_bytes as f64 / 1e6),
            ]);
        }
        println!("== {bench} ==\n{}", t.render());
    }

    println!(
        "note: chash tracks base closely; naive pays the full log-depth walk\n\
         on every miss and its bandwidth never recovers with cache size."
    );

    // One instrumented run: attach the telemetry layer, sample every 50k
    // instructions, and print the miv-metrics-v1 document the `mivsim`
    // binary writes with `--metrics-out`.
    println!("\n== telemetry: chash on swim, sampled every 50k instructions ==");
    let cfg = SystemConfig::hpca03(Scheme::CHash, 1 << 20, 64);
    let mut sys = System::for_benchmark(cfg, Benchmark::Swim, 42);
    let telemetry = Telemetry::new();
    sys.attach_telemetry(&telemetry);
    let (result, samples) = sys.run_sampled(warmup, measure, 50_000);
    let doc = telemetry.metrics_document(&result, &samples);

    let hist = |name: &str| doc.get("histograms").and_then(|h| h.get(name));
    // Every histogram summary carries count, mean and percentiles.
    let field = |h: &JsonValue, key: &str| h.get(key).expect("summary field").render();
    if let Some(walk) = hist("checker.walk_depth") {
        println!(
            "tree walk depth:  p50 {} p90 {} p99 {} over {} misses",
            field(walk, "p50"),
            field(walk, "p90"),
            field(walk, "p99"),
            field(walk, "count"),
        );
    }
    if let Some(wait) = hist("hash_unit.queue_wait") {
        println!(
            "hash queue wait:  mean {} cycles over {} ops",
            field(wait, "mean"),
            field(wait, "count"),
        );
    }
    println!("full document:\n{}", doc.render_pretty());
}
