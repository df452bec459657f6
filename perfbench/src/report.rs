//! The metric catalogue (mirrored by `BENCHMARK.json`) and the result
//! printer.

use std::fmt::Write as _;

/// Which clock or counter a number comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Wall time of the simulator on the host.
    Host,
    /// Simulated 1 GHz cycles, or a statistic of the modelled machine.
    Model,
    /// An exact work count; repeats exactly for a given seed.
    Count,
}

impl Clock {
    fn label(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::Model => "model",
            Clock::Count => "count",
        }
    }
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub clock: Clock,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str, clock: Clock) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
        clock,
    }
}

/// End-to-end metrics: every workload reports every one of them.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput", "k/s"),
    ("op_p50_us", "us"),
    ("op_p99_us", "us"),
];

pub const SCHEMES: [&str; 5] = ["base", "naive", "chash", "mhash", "ihash"];

/// Per-layer metrics of the traced run, in `BENCHMARK.json` order. A
/// workload that bypasses a layer reports its metrics as 0.
pub fn per_layer_catalogue() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: &str, unit: &'static str| out.push((name.to_string(), unit));
    add("trace.ns_per_instr", "ns");
    add("cpu.self_ns_per_instr", "ns");
    add("cpu.port_calls_per_instr", "count");
    add("l1.self_ns_per_access", "ns");
    add("l1.miss_rate", "ratio");
    add("l2ctl.accesses_per_kinstr", "count");
    let per_scheme: [(&str, &'static str); 9] = [
        ("l2ctl.self_ns_per_access", "ns"),
        ("l2.data_miss_rate", "ratio"),
        ("l2.hash_hit_rate", "ratio"),
        ("checker.extra_loads_per_miss", "count"),
        ("checker.verifications_per_kinstr", "count"),
        ("checker.read_buffer_wait_per_miss", "cycles"),
        ("bus.bytes_per_instr", "B"),
        ("bus.hash_bytes_per_instr", "B"),
        ("hash_unit.wait_cycles_per_op", "cycles"),
    ];
    for (base, unit) in per_scheme {
        for s in SCHEMES {
            add(&format!("{base}.{s}"), unit);
        }
    }
    for s in ["chash", "mhash", "ihash"] {
        add(&format!("ipc_norm.{s}"), "ratio");
    }
    add("sim.prewarm_s", "s");
    add("sim.warmup_s", "s");
    for user in ["tree", "store"] {
        add(&format!("hash.self_ns_per_call.{user}"), "ns");
        add(&format!("hash.calls_per_op.{user}"), "count");
        add(&format!("hash.bytes_per_op.{user}"), "B");
    }
    for e in ["tree", "mac"] {
        add(&format!("engine.self_ns_per_op.{e}"), "ns");
        add(&format!("engine.block_reads_per_op.{e}"), "count");
        add(&format!("engine.writebacks_per_op.{e}"), "count");
        add(&format!("engine.memo_hit_ratio.{e}"), "ratio");
        add(&format!("tcache.hit_rate.{e}"), "ratio");
    }
    add("engine.mac_updates_per_op.mac", "count");
    add("store.self_ns_per_op", "ns");
    add("medium.ns_per_op", "ns");
    add("store.commit_us", "us");
    add("store.cache_hit_rate", "ratio");
    add("store.device_reads_per_op", "count");
    add("store.pages_hashed_per_op", "count");
    add("store.journal_appends_per_op", "count");
    add("tracing.overhead", "ratio");
    out
}

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Report {
    pub rounds: usize,
    pub attempted: u64,
    pub failed: u64,
    /// The gated end-to-end metrics (tracing off).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics of the traced run (empty without `--trace 1`).
    pub per_layer: Vec<Metric>,
    /// Per-variant end-to-end breakdown (per scheme or engine), printed
    /// for the reader but not part of the result object.
    pub detail: Vec<Metric>,
}

impl Report {
    /// Prints every metric as a labelled line, then the result object as
    /// the last line of standard output.
    pub fn print(&self, workload: &str, seed: u64, trace: bool) -> Result<(), String> {
        let gated = if trace {
            self.complete_per_layer()?
        } else {
            self.complete_end_to_end()?
        };
        let mut text = format!(
            "workload {workload}  seed {seed}  rounds {}  trace {}\n",
            self.rounds, trace as u8
        );
        let show = |text: &mut String, m: &Metric| {
            let _ = writeln!(
                text,
                "  {:<38} {:>16.6} {:<6} {}",
                m.name,
                m.value,
                m.unit,
                m.clock.label()
            );
        };
        for m in self.detail.iter().chain(self.end_to_end.iter()) {
            show(&mut text, m);
        }
        if trace {
            text.push_str("per-layer (traced run):\n");
            for m in &gated {
                show(&mut text, m);
            }
        }
        let _ = writeln!(
            text,
            "failed {} of {} operations attempted ({:.4}%)",
            self.failed,
            self.attempted,
            100.0 * self.failed as f64 / self.attempted.max(1) as f64
        );
        print!("{text}");
        let mut json = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted,
            self.failed
        );
        for (i, m) in gated.iter().enumerate() {
            if i > 0 {
                json.push_str(", ");
            }
            let _ = write!(
                json,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        json.push_str("}}");
        println!("{json}");
        Ok(())
    }

    fn complete_end_to_end(&self) -> Result<Vec<Metric>, String> {
        END_TO_END
            .iter()
            .map(|(name, unit)| {
                let m = self
                    .end_to_end
                    .iter()
                    .find(|m| m.name == *name)
                    .ok_or(format!("end-to-end metric {name} not measured"))?;
                if m.unit != *unit || !m.value.is_finite() || m.value <= 0.0 {
                    return Err(format!("end-to-end metric {name} = {} {}", m.value, m.unit));
                }
                Ok(m.clone())
            })
            .collect()
    }

    fn complete_per_layer(&self) -> Result<Vec<Metric>, String> {
        let catalogue = per_layer_catalogue();
        if let Some(m) = self
            .per_layer
            .iter()
            .find(|m| !catalogue.iter().any(|(n, u)| *n == m.name && *u == m.unit))
        {
            return Err(format!(
                "per-layer metric {} ({}) not in the catalogue",
                m.name, m.unit
            ));
        }
        catalogue
            .into_iter()
            .map(|(name, unit)| {
                let m = match self.per_layer.iter().find(|m| m.name == name) {
                    Some(m) => m.clone(),
                    // The workload bypasses this layer: no work, no time.
                    None => metric(name, 0.0, unit, Clock::Count),
                };
                if m.value.is_finite() {
                    Ok(m)
                } else {
                    Err(format!("per-layer metric {} is not finite", m.name))
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` must list exactly this catalogue, with the same
    /// units.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let spec =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json beside the benchmark directory");
        let entries = spec.matches("\"unit\"").count();
        let names: Vec<(String, &str)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .chain(per_layer_catalogue())
            .collect();
        assert_eq!(entries, names.len(), "metric count");
        for (name, unit) in names {
            let needle = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(spec.contains(&needle), "missing {needle}");
        }
    }
}
