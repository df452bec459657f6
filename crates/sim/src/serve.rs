//! Sharded multi-tenant integrity serving: N independent engine shards
//! on a worker pool behind a deterministic request scheduler.
//!
//! The paper's checker verifies one address space for one caller; this
//! module is the request-serving layer over it, in the spirit of
//! scalable cloud-disk integrity services. A [`ServeSpec`] describes a
//! fleet of tenants; [`ServeSpec::shards`] — the scheduler — expands it
//! into one plain-data [`ShardSpec`] per tenant, each carrying a
//! splitmix-derived seed so the per-tenant request streams are
//! unrelated but fully determined by the master seed. The worker pool
//! (the generic [`SweepRunner::run_tasks`] engine) fans the shard tasks
//! out; outcomes land in tenant order, so the report and the
//! `miv-serve-v1` JSON are byte-identical at any `--jobs` count.
//!
//! # The `Send` boundary
//!
//! Engine state is deliberately `Rc`-cheap and non-`Send`: a built
//! shard (a [`VerifiedMemory`] + [`L2Controller`] pair with attached
//! miv-obs recorders) can never cross a thread. The serving layer
//! extends the parallel-sweep pattern to whole engines: shards are
//! **constructed on their worker** from the plain-data [`ShardSpec`],
//! record into a private per-shard [`Telemetry`], and only plain
//! [`TelemetrySnapshot`] data crosses back inside the [`ShardOutcome`].
//! A compile-time `assert_send` check at the bottom of this module pins
//! the boundary; the `rc-not-sent` analyze rule enforces that no `Rc`
//! type ever appears in this file's task signatures.
//!
//! # Integrity probes
//!
//! A multi-tenant service must prove per-tenant isolation of
//! *detection*, not just of data: by default every shard ends its
//! stream with a tamper probe (quiesce, flip one bit of the tenant's
//! physical memory behind the engine's back, re-read) and reports
//! whether and how fast the corruption was caught. Probing or tampering
//! one tenant cannot perturb another tenant's output — streams share
//! nothing but the spec — which `serve_determinism` tests pin down.
//!
//! # Examples
//!
//! ```
//! use miv_sim::serve::{render_serve, run_serve, ServeSpec};
//! use miv_sim::SweepRunner;
//!
//! let mut spec = ServeSpec::quick(42);
//! spec.requests = 200; // doctest-sized
//! let outcomes = run_serve(&spec, &SweepRunner::new(2)).unwrap();
//! assert_eq!(outcomes.len(), spec.shards as usize);
//! assert!(outcomes.iter().all(|o| o.probe.is_some()));
//! let report = render_serve(&spec, &outcomes);
//! assert!(report.contains("tenant-0"));
//! ```

use miv_cache::CacheConfig;
use miv_core::engine::{MemoryBuilder, Protection, VerifiedMemory};
use miv_core::timing::{CheckerConfig, L2Controller};
use miv_core::{ConfigError, Scheme, TamperKind};
use miv_hash::HashAlgo;
use miv_mem::MemoryBusConfig;
use miv_obs::{HistogramSnapshot, JsonValue, Rng};

use crate::report::{f2, Table};
use crate::sweep::SweepRunner;
use crate::telemetry::{Telemetry, TelemetrySnapshot};

/// The modelled core clock: one cycle is one nanosecond, matching the
/// bandwidth accounting used across the workspace (`bandwidth_gbps` =
/// bytes/cycle). Throughput figures are *simulated* ops/sec at this
/// clock — a pure function of the spec, never of the host — so serve
/// reports stay byte-identical at any worker count.
pub const CORE_CLOCK_HZ: u64 = 1_000_000_000;

/// Request classes a tenant stream mixes, in report order.
pub const REQUEST_CLASSES: [&str; 3] = ["read", "write", "flush"];

/// Which tenants end their stream with a tamper probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TamperPolicy {
    /// Every tenant gets a probe (the default; the CI gate requires
    /// every probe detected).
    EveryTenant,
    /// Only this tenant index is probed — the isolation experiment: all
    /// other tenants' outputs must be byte-identical to [`Off`].
    ///
    /// [`Off`]: TamperPolicy::Off
    Tenant(u32),
    /// No probes.
    Off,
}

impl TamperPolicy {
    fn probes(&self, tenant: u32) -> bool {
        match self {
            TamperPolicy::EveryTenant => true,
            TamperPolicy::Tenant(t) => *t == tenant,
            TamperPolicy::Off => false,
        }
    }
}

/// Everything the serving layer needs: plain data, fully determining
/// the report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeSpec {
    /// Master seed; every shard derives its own streams from it.
    pub seed: u64,
    /// Tenant (shard) count.
    pub shards: u32,
    /// Requests per tenant stream.
    pub requests: u64,
    /// Protected data segment per tenant, in bytes.
    pub data_bytes: u64,
    /// Per-shard L2 capacity in bytes (also sizes the functional
    /// trusted cache).
    pub l2_bytes: u64,
    /// L2 line / tree block size in bytes.
    pub line_bytes: u32,
    /// Span of each tenant's access stream in bytes (clamped to the
    /// data segment).
    pub working_set: u64,
    /// Store fraction of the stream, in percent.
    pub write_pct: u32,
    /// Flush fraction of the stream, in percent (a flush request drains
    /// both engine halves).
    pub flush_pct: u32,
    /// Which tenants get an end-of-stream tamper probe.
    pub tamper: TamperPolicy,
    /// Hash unit for every tenant's functional engine.
    pub hash: HashAlgo,
}

impl ServeSpec {
    /// A CI-sized service: 4 tenants, short streams, probes on.
    pub fn quick(seed: u64) -> Self {
        ServeSpec {
            seed,
            shards: 4,
            requests: 2_000,
            data_bytes: 128 << 10,
            l2_bytes: 32 << 10,
            line_bytes: 64,
            working_set: 96 << 10,
            write_pct: 30,
            flush_pct: 1,
            tamper: TamperPolicy::EveryTenant,
            hash: HashAlgo::Md5,
        }
    }

    /// The full service: 8 tenants, longer streams over a larger
    /// footprint.
    pub fn full(seed: u64) -> Self {
        ServeSpec {
            seed,
            shards: 8,
            requests: 20_000,
            data_bytes: 512 << 10,
            l2_bytes: 64 << 10,
            line_bytes: 64,
            working_set: 384 << 10,
            write_pct: 30,
            flush_pct: 1,
            tamper: TamperPolicy::EveryTenant,
            hash: HashAlgo::Md5,
        }
    }

    /// The request scheduler: expands the spec into one plain-data
    /// [`ShardSpec`] task per tenant, in tenant order. Tenants cycle
    /// through the verifying schemes (chash, mhash, ihash, naive) and
    /// each gets a splitmix-derived seed, so neighbouring tenants run
    /// unrelated streams while the whole fleet stays a pure function of
    /// the master seed.
    pub fn shards(&self) -> Vec<ShardSpec> {
        (0..self.shards)
            .map(|tenant| ShardSpec {
                tenant,
                scheme: SHARD_SCHEMES[tenant as usize % SHARD_SCHEMES.len()],
                seed: shard_seed(self.seed, tenant),
                data_bytes: self.data_bytes,
                l2_bytes: self.l2_bytes,
                line_bytes: self.line_bytes,
                working_set: self.working_set,
                requests: self.requests,
                write_pct: self.write_pct,
                flush_pct: self.flush_pct,
                tamper: self.tamper.probes(tenant),
                hash: self.hash,
            })
            .collect()
    }

    /// Validates every shard the scheduler would dispatch, without
    /// building any engine. This is the CLI's pre-flight: a bad
    /// geometry comes back as a [`ConfigError`] instead of a worker
    /// panic.
    pub fn validate(&self) -> Result<(), ConfigError> {
        for shard in self.shards() {
            shard.validate()?;
        }
        Ok(())
    }
}

/// Schemes tenants cycle through (`base` verifies nothing, so it can
/// never serve an integrity tenant).
pub const SHARD_SCHEMES: [Scheme; 4] = [Scheme::CHash, Scheme::MHash, Scheme::IHash, Scheme::Naive];

/// Derives a well-mixed per-tenant seed from the master seed
/// (splitmix64-style finalizer, so neighbouring tenants get unrelated
/// streams).
pub fn shard_seed(seed: u64, tenant: u32) -> u64 {
    let mut z = seed
        .wrapping_add((tenant as u64) << 32)
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One shard task: everything a worker needs to build and drive one
/// tenant's engines. Plain data (`Send` — asserted at compile time
/// below), independent of every other shard, fully determining its
/// [`ShardOutcome`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardSpec {
    /// Tenant index (labelled `tenant-N` in reports).
    pub tenant: u32,
    /// Verification scheme this tenant runs.
    pub scheme: Scheme,
    /// Seed for this tenant's request and probe streams.
    pub seed: u64,
    /// Protected data segment in bytes.
    pub data_bytes: u64,
    /// L2 capacity in bytes.
    pub l2_bytes: u64,
    /// L2 line / tree block size in bytes.
    pub line_bytes: u32,
    /// Span of the access stream in bytes.
    pub working_set: u64,
    /// Requests in the stream.
    pub requests: u64,
    /// Store fraction, in percent.
    pub write_pct: u32,
    /// Flush fraction, in percent.
    pub flush_pct: u32,
    /// Whether the stream ends with a tamper probe.
    pub tamper: bool,
    /// Hash unit for the functional engine.
    pub hash: HashAlgo,
}

impl ShardSpec {
    /// The tenant's display label.
    pub fn label(&self) -> String {
        format!("tenant-{}", self.tenant)
    }

    /// Chunk size for the scheme: one block for `naive`/`chash`, two
    /// for the multi-block schemes (the `ProfileSpec` geometry
    /// subtlety, here routed through the fallible constructors).
    pub fn chunk_bytes(&self) -> u32 {
        match self.scheme {
            Scheme::MHash | Scheme::IHash => self.line_bytes * 2,
            Scheme::Base | Scheme::Naive | Scheme::CHash => self.line_bytes,
        }
    }

    fn checker_config(&self) -> CheckerConfig {
        let mut checker = CheckerConfig::hpca03(self.scheme);
        checker.protected_bytes = self.data_bytes;
        checker.chunk_bytes = self.chunk_bytes();
        checker
    }

    fn memory_builder(&self) -> MemoryBuilder {
        MemoryBuilder::new()
            .data_bytes(self.data_bytes)
            .chunk_bytes(self.chunk_bytes())
            .block_bytes(self.line_bytes)
            .protection(match self.scheme {
                Scheme::IHash => Protection::IncrementalMac,
                Scheme::Base | Scheme::Naive | Scheme::CHash | Scheme::MHash => {
                    Protection::HashTree
                }
            })
            .hasher(self.hash.hasher())
            .cache_blocks((self.l2_bytes / self.line_bytes as u64) as usize)
    }

    /// Checks that both engine halves can be built from this spec —
    /// through the fallible constructors, without allocating the data
    /// segment or building the tree.
    pub fn validate(&self) -> Result<(), ConfigError> {
        L2Controller::try_new(
            self.checker_config(),
            CacheConfig::try_l2(self.l2_bytes, self.line_bytes)?,
            MemoryBusConfig::default(),
        )?;
        self.memory_builder().validate()
    }
}

/// The end-of-stream tamper probe's verdict for one tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TamperProbe {
    /// Whether any detector caught the corruption.
    pub detected: bool,
    /// Which detector fired first (`timing`, `functional`, or `none`).
    pub detector: &'static str,
    /// Cycles from injection to detection (0 when undetected).
    pub latency: u64,
}

/// The measured result of one shard: plain data, crossing back from
/// the worker in the outcome slot.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardOutcome {
    /// Tenant index.
    pub tenant: u32,
    /// Scheme the tenant ran.
    pub scheme: Scheme,
    /// Read requests served.
    pub reads: u64,
    /// Write requests served.
    pub writes: u64,
    /// Flush requests served.
    pub flushes: u64,
    /// Simulated core cycles to serve and drain the stream (excludes
    /// the probe).
    pub cycles: u64,
    /// The shard's private telemetry recording: `serve.latency.*`
    /// histograms, engine/L2/bus counters. Absorbed in tenant order by
    /// the fold, which makes the merged document identical at any
    /// worker count.
    pub telemetry: TelemetrySnapshot,
    /// The tamper probe's verdict, when the spec requested one.
    pub probe: Option<TamperProbe>,
}

impl ShardOutcome {
    /// Total requests served.
    pub fn ops(&self) -> u64 {
        self.reads + self.writes + self.flushes
    }

    /// Simulated throughput at [`CORE_CLOCK_HZ`], in ops/sec.
    pub fn ops_per_sec(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.ops() as f64 * CORE_CLOCK_HZ as f64 / self.cycles as f64
    }

    /// This shard's latency histogram for a request class, when the
    /// class occurred.
    pub fn latency(&self, class: &str) -> Option<&HistogramSnapshot> {
        self.telemetry
            .metrics
            .histograms
            .get(&format!("serve.latency.{class}"))
    }
}

/// Builds and drives one tenant's shard on the calling thread — in the
/// pool, that is the worker the shard lives and dies on. The engines
/// and their recorders never leave this stack frame; only the
/// plain-data outcome returns.
pub fn run_shard(spec: &ShardSpec) -> ShardOutcome {
    // Construction on the worker, through the fallible path: the
    // scheduler validated every spec before dispatch.
    let mut ctl = L2Controller::try_new(
        spec.checker_config(),
        CacheConfig::l2(spec.l2_bytes, spec.line_bytes),
        MemoryBusConfig::default(),
    )
    .expect("shard spec validated before dispatch");
    let mut init_rng = Rng::seed_from_u64(spec.seed ^ 0x007E_4A11);
    let mut init = vec![0u8; spec.data_bytes as usize];
    init_rng.fill_bytes(&mut init);
    let mut vm = VerifiedMemory::try_new(spec.memory_builder().initial_data(init))
        .expect("shard spec validated before dispatch");

    let telemetry = Telemetry::with_event_capacity(4096);
    ctl.attach_observability(telemetry.registry(), telemetry.events().sink());
    vm.attach_observability(telemetry.registry(), telemetry.events().sink());
    let lat_read = telemetry.registry().histogram("serve.latency.read");
    let lat_write = telemetry.registry().histogram("serve.latency.write");
    let lat_flush = telemetry.registry().histogram("serve.latency.flush");

    let line = spec.line_bytes as u64;
    let blocks = (spec.working_set.min(spec.data_bytes) / line).max(1);
    let mut rng = Rng::seed_from_u64(spec.seed);
    let mut buf = vec![0u8; spec.line_bytes as usize];
    let mut wbuf = vec![0u8; spec.line_bytes as usize - 16];

    let mut outcome = ShardOutcome {
        tenant: spec.tenant,
        scheme: spec.scheme,
        reads: 0,
        writes: 0,
        flushes: 0,
        cycles: 0,
        telemetry: TelemetrySnapshot::default(),
        probe: None,
    };

    let mut now: u64 = 0;
    for _ in 0..spec.requests {
        let roll = rng.gen_range_u64(0, 100);
        if roll < spec.flush_pct as u64 {
            // Flush: drain both halves — write-backs, background
            // verifications, the lot.
            let done = ctl.quiesce(now);
            lat_flush.record(done - now);
            now = done;
            vm.flush().expect("tamper-free stream verifies");
            outcome.flushes += 1;
            continue;
        }
        let write = roll < (spec.flush_pct + spec.write_pct) as u64;
        let addr = rng.gen_range_u64(0, blocks) * line;
        let ready = ctl.access(now, addr, write, false);
        if write {
            // Partial-line stores: the engine must fetch and check the
            // old block (a full-line store would silently heal tampered
            // memory via the §5.3 alloc-no-fetch path).
            rng.fill_bytes(&mut wbuf);
            vm.write(addr + 8, &wbuf)
                .expect("tamper-free stream verifies");
            lat_write.record(ready - now);
            outcome.writes += 1;
        } else {
            vm.read(addr, &mut buf)
                .expect("tamper-free stream verifies");
            lat_read.record(ready - now);
            outcome.reads += 1;
        }
        now = ready;
    }
    // Final drain so every booked transfer lands inside the measured
    // window; the probe runs after the clock stops.
    now = ctl.quiesce(now);
    outcome.cycles = now;

    if spec.tamper {
        outcome.probe = Some(run_probe(spec, &mut ctl, &mut vm, now, blocks));
    }

    outcome.telemetry = telemetry.snapshot();
    outcome
}

/// The per-tenant tamper probe: quiesce both halves, flip one bit of
/// this tenant's physical memory behind the engines' backs, then
/// re-read the block and report which detector caught it and how fast.
fn run_probe(
    spec: &ShardSpec,
    ctl: &mut L2Controller,
    vm: &mut VerifiedMemory,
    mut now: u64,
    blocks: u64,
) -> TamperProbe {
    let line = spec.line_bytes as u64;
    let mut rng = Rng::seed_from_u64(spec.seed ^ 0xA77A_C4ED);
    let target = rng.gen_range_u64(0, blocks) * line;

    // A tamper under a valid cached copy is invisible by construction:
    // drop every on-chip copy first so the flip lands on the image the
    // next fetch actually reads.
    vm.clear_cache().expect("pre-probe cache drop verifies");
    now = ctl.quiesce(now);
    let inject_cycle = now;

    let phys = vm.layout().data_phys_addr(target) + rng.gen_range_u64(0, line);
    let bit = rng.gen_u8() % 8;
    vm.adversary().tamper(phys, TamperKind::BitFlip { bit });
    ctl.inject_tamper(phys, 1);

    // Touch the corrupted block and drain so the background
    // verification completes.
    now = ctl.access(now, target, false, false);
    now = ctl.quiesce(now);

    // Timing-preferred merge (same stance as the adversary campaign):
    // the cycle-level checker knows when the failing check completes in
    // the modelled hardware; the functional engine stands in when the
    // taint machinery missed.
    let timing = ctl.first_detection().map(|d| TamperProbe {
        detected: true,
        detector: "timing",
        latency: d.cycle.saturating_sub(inject_cycle),
    });
    let mut buf = vec![0u8; spec.line_bytes as usize];
    let functional = vm.read(target, &mut buf).err().map(|_| TamperProbe {
        detected: true,
        detector: "functional",
        latency: now.saturating_sub(inject_cycle),
    });
    timing.or(functional).unwrap_or(TamperProbe {
        detected: false,
        detector: "none",
        latency: 0,
    })
}

/// Validates the whole fleet, fans the shard tasks over `runner`'s
/// worker pool, and returns the outcomes in tenant order —
/// byte-identical downstream output at any worker count.
pub fn run_serve(spec: &ServeSpec, runner: &SweepRunner) -> Result<Vec<ShardOutcome>, ConfigError> {
    let shards = spec.shards();
    for shard in &shards {
        shard.validate()?;
    }
    Ok(runner.run_tasks(&shards, run_shard))
}

/// Folds every shard's telemetry snapshot into one recorder, in tenant
/// order — the merged registry a sequential service sharing one
/// recorder would have produced.
pub fn fold_telemetry(outcomes: &[ShardOutcome]) -> Telemetry {
    let telemetry = Telemetry::new();
    for outcome in outcomes {
        telemetry.absorb(&outcome.telemetry);
    }
    telemetry
}

/// Aggregate service figures derived from a fleet's outcomes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceSummary {
    /// Total requests served across tenants.
    pub ops: u64,
    /// Service makespan in simulated cycles: the slowest shard's drain
    /// time (shards serve concurrently).
    pub makespan_cycles: u64,
    /// Aggregate simulated throughput at [`CORE_CLOCK_HZ`].
    pub ops_per_sec: f64,
    /// Tamper probes requested.
    pub probes: u64,
    /// Tamper probes detected.
    pub probes_detected: u64,
}

impl ServiceSummary {
    /// Derives the summary from the fleet's outcomes.
    pub fn from_outcomes(outcomes: &[ShardOutcome]) -> Self {
        let ops: u64 = outcomes.iter().map(ShardOutcome::ops).sum();
        let makespan = outcomes.iter().map(|o| o.cycles).max().unwrap_or(0);
        let probes = outcomes.iter().filter(|o| o.probe.is_some()).count() as u64;
        let detected = outcomes
            .iter()
            .filter(|o| o.probe.is_some_and(|p| p.detected))
            .count() as u64;
        ServiceSummary {
            ops,
            makespan_cycles: makespan,
            ops_per_sec: if makespan == 0 {
                0.0
            } else {
                ops as f64 * CORE_CLOCK_HZ as f64 / makespan as f64
            },
            probes,
            probes_detected: detected,
        }
    }

    /// Whether every requested probe was detected (the CI gate).
    pub fn clean(&self) -> bool {
        self.probes == self.probes_detected
    }
}

/// Renders the text report: the per-tenant table, the aggregate
/// throughput line, the merged per-class latency table, and the
/// integrity verdict.
pub fn render_serve(spec: &ServeSpec, outcomes: &[ShardOutcome]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "integrity service: {} shards × {} requests, seed {}, {} KiB/tenant (L2 {} KiB)\n\n",
        spec.shards,
        spec.requests,
        spec.seed,
        spec.data_bytes >> 10,
        spec.l2_bytes >> 10,
    ));

    let mut t = Table::new(vec![
        "tenant".into(),
        "scheme".into(),
        "reads".into(),
        "writes".into(),
        "flushes".into(),
        "cycles".into(),
        "Mops/s".into(),
        "probe".into(),
    ]);
    for o in outcomes {
        t.row(vec![
            format!("tenant-{}", o.tenant),
            o.scheme.label().into(),
            o.reads.to_string(),
            o.writes.to_string(),
            o.flushes.to_string(),
            o.cycles.to_string(),
            f2(o.ops_per_sec() / 1e6),
            match o.probe {
                Some(p) if p.detected => format!("{} @{}cy", p.detector, p.latency),
                Some(_) => "MISSED".into(),
                None => "-".into(),
            },
        ]);
    }
    out.push_str(&t.render());

    let summary = ServiceSummary::from_outcomes(outcomes);
    out.push_str(&format!(
        "\naggregate: {} ops in {} cycles makespan -> {} M ops/s at 1 GHz\n",
        summary.ops,
        summary.makespan_cycles,
        f2(summary.ops_per_sec / 1e6),
    ));

    out.push_str("\nrequest latency by class, all tenants (cycles):\n");
    let fold = fold_telemetry(outcomes);
    let merged = fold.registry().snapshot();
    let mut lt = Table::new(vec![
        "class".into(),
        "count".into(),
        "p50".into(),
        "p90".into(),
        "p99".into(),
        "max".into(),
        "mean".into(),
    ]);
    for class in REQUEST_CLASSES {
        let Some(hist) = merged.histograms.get(&format!("serve.latency.{class}")) else {
            continue;
        };
        if hist.count == 0 {
            continue;
        }
        lt.row(vec![
            class.into(),
            hist.count.to_string(),
            format!("{:.0}", hist.quantile(0.50)),
            format!("{:.0}", hist.quantile(0.90)),
            format!("{:.0}", hist.quantile(0.99)),
            hist.max.to_string(),
            f2(hist.mean()),
        ]);
    }
    out.push_str(&lt.render());

    if summary.probes > 0 {
        out.push_str(&format!(
            "\nintegrity: {}/{} tenant probes detected{}\n",
            summary.probes_detected,
            summary.probes,
            if summary.clean() { "" } else { " — FAILED" },
        ));
    }
    out
}

/// The `miv-serve-v1` JSON document: spec echo, per-shard figures with
/// per-class latency quantiles, the aggregate summary, and the
/// integrity verdict. Byte-identical across runs and worker counts.
pub fn serve_document(spec: &ServeSpec, outcomes: &[ShardOutcome]) -> JsonValue {
    let mut doc = JsonValue::obj();
    doc.push("schema", "miv-serve-v1");
    doc.push("seed", spec.seed);
    doc.push("shards", spec.shards as u64);
    doc.push("requests_per_shard", spec.requests);
    doc.push("data_bytes", spec.data_bytes);
    doc.push("l2_bytes", spec.l2_bytes);
    doc.push("hash", spec.hash.label());
    doc.push("core_clock_hz", CORE_CLOCK_HZ);

    let shards: Vec<JsonValue> = outcomes
        .iter()
        .map(|o| {
            let mut s = JsonValue::obj();
            s.push("tenant", format!("tenant-{}", o.tenant));
            s.push("scheme", o.scheme.label());
            s.push("reads", o.reads);
            s.push("writes", o.writes);
            s.push("flushes", o.flushes);
            s.push("cycles", o.cycles);
            s.push("ops_per_sec", o.ops_per_sec());
            let mut latency = JsonValue::obj();
            for class in REQUEST_CLASSES {
                if let Some(hist) = o.latency(class) {
                    latency.push(class, hist.to_json());
                }
            }
            s.push("latency", latency);
            s.push(
                "probe",
                match o.probe {
                    Some(p) => {
                        let mut probe = JsonValue::obj();
                        probe.push("detected", p.detected);
                        probe.push("detector", p.detector);
                        probe.push("latency_cycles", p.latency);
                        probe
                    }
                    None => JsonValue::Null,
                },
            );
            s
        })
        .collect();
    doc.push("shards", shards);

    let summary = ServiceSummary::from_outcomes(outcomes);
    let mut agg = JsonValue::obj();
    agg.push("ops", summary.ops);
    agg.push("makespan_cycles", summary.makespan_cycles);
    agg.push("ops_per_sec", summary.ops_per_sec);
    doc.push("aggregate", agg);

    let mut integrity = JsonValue::obj();
    integrity.push("probes", summary.probes);
    integrity.push("detected", summary.probes_detected);
    integrity.push("clean", summary.clean());
    doc.push("integrity", integrity);
    doc
}

// Compile-time proof of the worker-pool boundary: shard tasks cross
// *into* workers as plain `Send + Sync` data and results cross *back*
// as plain `Send` data — never as live engines or recorder handles.
// If a non-`Send` handle (an `Rc`-based miv-obs recorder, an engine
// half) ever leaks into these types, this stops compiling.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    fn assert_sync<T: Sync>() {}
    assert_send::<ShardSpec>();
    assert_sync::<ShardSpec>();
    assert_send::<ShardOutcome>();
    assert_send::<TamperProbe>();
    assert_send::<ServeSpec>();
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheduler_expands_in_tenant_order_with_distinct_seeds() {
        let spec = ServeSpec::quick(42);
        let shards = spec.shards();
        assert_eq!(shards.len(), 4);
        for (i, s) in shards.iter().enumerate() {
            assert_eq!(s.tenant as usize, i);
            assert!(s.scheme.verifies());
        }
        let mut seeds: Vec<u64> = shards.iter().map(|s| s.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), shards.len(), "tenant seeds must be distinct");
        // Different master seeds give different fleets.
        assert_ne!(ServeSpec::quick(7).shards()[0].seed, shards[0].seed);
    }

    #[test]
    fn spec_validation_reports_geometry_errors() {
        let mut spec = ServeSpec::quick(42);
        spec.data_bytes = 0;
        assert_eq!(spec.validate(), Err(ConfigError::EmptySegment));
        let mut spec = ServeSpec::quick(42);
        spec.l2_bytes = 256; // trusted cache of 4 blocks cannot make progress
        assert!(matches!(
            spec.validate(),
            Err(ConfigError::CacheTooSmall { .. })
        ));
        assert!(ServeSpec::quick(42).validate().is_ok());
    }

    #[test]
    fn one_shard_serves_and_detects() {
        let mut spec = ServeSpec::quick(11);
        spec.shards = 1;
        spec.requests = 400;
        let outcomes = run_serve(&spec, &SweepRunner::new(1)).unwrap();
        assert_eq!(outcomes.len(), 1);
        let o = &outcomes[0];
        assert_eq!(o.ops(), spec.requests);
        assert!(o.cycles > 0);
        assert!(o.reads > 0 && o.writes > 0);
        let probe = o.probe.expect("probe requested");
        assert!(probe.detected, "bit flip must be caught");
        assert!(o.latency("read").is_some_and(|h| h.count == o.reads));
    }

    #[test]
    fn tamper_policy_scopes_probes() {
        assert!(TamperPolicy::EveryTenant.probes(3));
        assert!(TamperPolicy::Tenant(2).probes(2));
        assert!(!TamperPolicy::Tenant(2).probes(1));
        assert!(!TamperPolicy::Off.probes(0));
    }

    #[test]
    fn summary_aggregates_and_gates() {
        let mut spec = ServeSpec::quick(5);
        spec.shards = 2;
        spec.requests = 300;
        let outcomes = run_serve(&spec, &SweepRunner::new(2)).unwrap();
        let summary = ServiceSummary::from_outcomes(&outcomes);
        assert_eq!(summary.ops, 600);
        assert_eq!(
            summary.makespan_cycles,
            outcomes.iter().map(|o| o.cycles).max().unwrap()
        );
        assert_eq!(summary.probes, 2);
        assert!(summary.clean());
        let doc = serve_document(&spec, &outcomes).render_pretty();
        assert!(doc.contains("miv-serve-v1"));
        assert!(doc.contains("tenant-1"));
    }
}
