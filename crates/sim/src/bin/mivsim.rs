//! General-purpose simulator front end: run any scheme/machine/workload
//! combination, record traces, replay trace files, export JSON metrics
//! and event traces.
//!
//! ```text
//! # one run, text output
//! mivsim run --scheme chash --l2 1M --bench swim --measure 500000
//!
//! # the command defaults to `run` (and the workload to gzip), so a
//! # telemetry-capturing run is just:
//! mivsim --scheme chash --metrics-out m.json --trace-events e.jsonl
//!
//! # sweep all schemes over one workload, JSON to stdout
//! mivsim sweep --bench mcf --l2 256K --json
//!
//! # scripted adversary campaign: coverage matrix + detection latency
//! mivsim attack --quick --seed 7 --jobs 2 --metrics-out attack.json
//!
//! # record 1M instructions of a benchmark trace to a file, then replay it
//! mivsim record --bench gzip --count 1000000 --out gzip.trc
//! mivsim run --scheme naive --trace gzip.trc
//! ```

use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::process::ExitCode;

use miv_adversary::{CampaignSpec, OfflineSpec};
use miv_core::timing::Scheme;
use miv_hash::{HashAlgo, Throughput};
use miv_obs::JsonValue;
use miv_sim::attack::{
    attack_document, attack_events_jsonl, render_offline_report, render_report, run_campaign,
    run_offline_campaign,
};
use miv_sim::cli::{
    parse_bench, parse_custom_profile, parse_policy, parse_scheme, parse_size, CommonOpts,
};
use miv_sim::profile::{
    folded_output, profile_document, render_profile, run_drift_check, run_profile, ProfileSpec,
};
use miv_sim::report::{f2, f3, pct, Table};
use miv_sim::serve::{
    fold_telemetry, render_serve, run_serve, serve_document, ServeSpec, ServiceSummary,
    TamperPolicy,
};
use miv_sim::store::{
    default_store_dir, render_fsck, render_soak, render_store_bench, run_fsck, run_soak,
    run_store_bench, store_bench_document, store_fsck_document, store_soak_document, StoreSpec,
};
use miv_sim::telemetry::Sample;
use miv_sim::{RunRequest, RunResult, SweepRunner, System, SystemConfig, Telemetry, Workload};
use miv_trace::{Benchmark, Profile};

const USAGE: &str = "\
usage: mivsim [command] [options]

commands (default: run):
  run      simulate one configuration
  sweep    simulate every scheme on one configuration
  attack   run the scripted adversary campaign (coverage + latency)
  profile  cycle-attribution profile: per-class latency percentiles and
           span trees for every scheme (plus campaign detect spans)
  serve    sharded multi-tenant integrity service: one engine shard per
           tenant on a worker pool, ops/sec + per-class latency report
  store    persistent verified block store: `store bench` (page × cache
           grid, modeled latency histograms), `store soak` (open/write/
           commit/reopen/verify treadmill), `store fsck` (crash-point
           matrix: recover a committed root at every device step)
  record   write a synthetic benchmark trace to a file

options:
  --scheme base|naive|chash|mhash|ihash   (run; default chash)
  --bench gcc|gzip|mcf|twolf|vortex|vpr|applu|art|swim  (default gzip)
  --custom SPEC           synthetic workload, e.g. ws=8M,hot=64K,mem=0.4,run=512
  --trace FILE            replay a recorded trace instead of --bench
  --l2 SIZE               L2 capacity, e.g. 256K, 1M, 4M (default 1M)
  --line 64|128           L2 line size (default 64)
  --warmup N / --measure N / --seed N
  --hash-gbps F           hash unit throughput (default 3.2)
  --hash md5|sha1|sha256  (attack/serve/store) hash unit for the
                          functional engines (default md5; the timing
                          model is unchanged, so latency tables stay
                          comparable across units)
  --buffers N             read/write buffer entries (default 16)
  --policy lru|fifo|random             L2 replacement policy
  --jobs N                sweep worker threads (0 or omitted: one per core;
                          --trace replays always run sequentially)
  --protected SIZE        protected segment size (default 256M)
  --block-on-verify       disable speculative use of unverified data
  --no-write-alloc-opt    disable the whole-line overwrite optimization
  --count N / --out FILE  (record)
  --shards N              (serve) tenant count (default: quick 4, full 8)
  --requests N            (serve) requests per tenant stream
  --tamper all|off|N      (serve) end-of-stream tamper probes: every
                          tenant, none, or tenant N only (default all)
  --dir PATH              (store) scratch directory for the bench/soak
                          store files (default: under the OS temp dir,
                          removed afterwards; never part of the report)
  --ops N                 (store) operations per bench cell / soak round
  --quick                 (attack) CI-sized campaign: 2 trials/cell,
                          2500 accesses (default: 5 trials, 20000),
                          plus a CI-sized offline-tamper campaign
                          (profile) short stream + quick campaign
                          (serve) CI-sized service: 4 tenants, short
                          streams
                          (store) CI-sized grid, streams and soak
  --folded FILE           (profile) write flamegraph folded stacks
  --drift-check           (profile) rerun the campaign over derived
                          seeds; exit nonzero if any detection metric
                          drifts outside the stated tolerance
  --json                  emit results as JSON instead of a table
                          (attack: miv-attack-v1; profile: miv-profile-v1;
                          serve: miv-serve-v1; store: miv-store-v1)
  --metrics-out PATH      write a miv-metrics-v1 JSON summary (registry
                          counters, histograms with quantiles, samples)
  --trace-events PATH     write the simulation event stream as JSONL
  --sample-interval N     instructions per time-series sample
                          (default 50000; 0 = one sample for the run)";

#[derive(Debug)]
struct Options {
    command: String,
    scheme: Scheme,
    bench: Option<Benchmark>,
    custom: Option<Profile>,
    trace: Option<String>,
    l2: u64,
    line: u32,
    warmup: u64,
    measure: u64,
    hash_gbps: f64,
    hash: HashAlgo,
    buffers: u32,
    policy: miv_cache::ReplacementPolicy,
    protected: u64,
    block_on_verify: bool,
    write_alloc_opt: bool,
    count: u64,
    out: Option<String>,
    folded: Option<String>,
    drift_check: bool,
    sample_interval: u64,
    shards: Option<u32>,
    requests: Option<u64>,
    tamper: TamperPolicy,
    // `store` subcommand: positional mode (bench|soak|fsck), scratch
    // directory and stream-length override.
    store_mode: Option<String>,
    dir: Option<String>,
    ops: Option<u64>,
    // Whether --l2 / --line were given explicitly: serve has its own
    // spec-sized defaults, so only an explicit flag overrides them.
    l2_set: bool,
    line_set: bool,
    /// The cross-subcommand flags (`--quick`, `--seed`, `--jobs`,
    /// `--json`, `--metrics-out`, `--trace-events`), parsed by the
    /// shared [`CommonOpts`] parser.
    common: CommonOpts,
}

impl Options {
    fn parse(args: &[String]) -> Result<Options, String> {
        let first = args.first().ok_or(USAGE.to_string())?;
        // `mivsim --scheme chash ...` means `mivsim run --scheme chash ...`.
        let (command, rest) = if first.starts_with('-') {
            ("run".to_string(), args)
        } else {
            (first.clone(), &args[1..])
        };
        let mut o = Options {
            command,
            scheme: Scheme::CHash,
            bench: None,
            custom: None,
            trace: None,
            l2: 1 << 20,
            line: 64,
            warmup: 50_000,
            measure: 500_000,
            hash_gbps: 3.2,
            hash: HashAlgo::Md5,
            buffers: 16,
            policy: miv_cache::ReplacementPolicy::Lru,
            protected: 256 << 20,
            block_on_verify: false,
            write_alloc_opt: true,
            count: 1_000_000,
            out: None,
            folded: None,
            drift_check: false,
            sample_interval: 50_000,
            shards: None,
            requests: None,
            tamper: TamperPolicy::EveryTenant,
            store_mode: None,
            dir: None,
            ops: None,
            l2_set: false,
            line_set: false,
            common: CommonOpts::new(),
        };
        let mut it = rest.iter();
        while let Some(arg) = it.next() {
            let mut value = |name: &str| {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("{name} needs a value"))
            };
            match arg.as_str() {
                "--scheme" => {
                    let v = value("--scheme")?;
                    o.scheme = parse_scheme(&v).ok_or_else(|| format!("unknown scheme {v}"))?;
                }
                "--bench" => {
                    let v = value("--bench")?;
                    o.bench =
                        Some(parse_bench(&v).ok_or_else(|| format!("unknown benchmark {v}"))?);
                }
                "--custom" => {
                    let v = value("--custom")?;
                    o.custom = Some(parse_custom_profile(&v)?);
                }
                "--trace" => o.trace = Some(value("--trace")?),
                "--l2" => {
                    let v = value("--l2")?;
                    o.l2 = parse_size(&v).ok_or_else(|| format!("bad size {v}"))?;
                    o.l2_set = true;
                }
                "--line" => {
                    o.line = value("--line")?.parse().map_err(|_| "bad --line")?;
                    o.line_set = true;
                }
                "--warmup" => o.warmup = value("--warmup")?.parse().map_err(|_| "bad --warmup")?,
                "--measure" => {
                    o.measure = value("--measure")?.parse().map_err(|_| "bad --measure")?
                }
                "--hash-gbps" => {
                    o.hash_gbps = value("--hash-gbps")?
                        .parse()
                        .map_err(|_| "bad --hash-gbps")?
                }
                "--hash" => {
                    let v = value("--hash")?;
                    o.hash = HashAlgo::parse(&v).ok_or_else(|| format!("unknown hash {v}"))?;
                }
                "--buffers" => {
                    o.buffers = value("--buffers")?.parse().map_err(|_| "bad --buffers")?
                }
                "--policy" => {
                    let v = value("--policy")?;
                    o.policy = parse_policy(&v).ok_or_else(|| format!("unknown policy {v}"))?;
                }
                "--protected" => {
                    let v = value("--protected")?;
                    o.protected = parse_size(&v).ok_or_else(|| format!("bad size {v}"))?;
                }
                "--block-on-verify" => o.block_on_verify = true,
                "--no-write-alloc-opt" => o.write_alloc_opt = false,
                "--count" => o.count = value("--count")?.parse().map_err(|_| "bad --count")?,
                "--out" => o.out = Some(value("--out")?),
                "--folded" => o.folded = Some(value("--folded")?),
                "--drift-check" => o.drift_check = true,
                "--sample-interval" => {
                    o.sample_interval = value("--sample-interval")?
                        .parse()
                        .map_err(|_| "bad --sample-interval")?
                }
                "--shards" => {
                    o.shards = Some(value("--shards")?.parse().map_err(|_| "bad --shards")?)
                }
                "--requests" => {
                    o.requests = Some(value("--requests")?.parse().map_err(|_| "bad --requests")?)
                }
                "--tamper" => {
                    o.tamper = match value("--tamper")?.as_str() {
                        "all" => TamperPolicy::EveryTenant,
                        "off" | "none" => TamperPolicy::Off,
                        v => TamperPolicy::Tenant(
                            v.parse().map_err(|_| format!("bad --tamper {v}"))?,
                        ),
                    }
                }
                "--dir" => o.dir = Some(value("--dir")?),
                "--ops" => o.ops = Some(value("--ops")?.parse().map_err(|_| "bad --ops")?),
                "--help" | "-h" => return Err(USAGE.to_string()),
                other => {
                    // `store` takes one positional mode: `mivsim store fsck`.
                    if o.command == "store" && o.store_mode.is_none() && !other.starts_with('-') {
                        o.store_mode = Some(other.to_string());
                    } else if !o.common.accept(other, &mut value)? {
                        return Err(format!("unknown option {other}\n{USAGE}"));
                    }
                }
            }
        }
        // `run`/`sweep` default to the gzip benchmark so that a bare
        // `mivsim --metrics-out m.json` works out of the box.
        if matches!(o.command.as_str(), "run" | "sweep")
            && o.bench.is_none()
            && o.custom.is_none()
            && o.trace.is_none()
        {
            o.bench = Some(Benchmark::Gzip);
        }
        Ok(o)
    }

    /// The machine for one scheme; a malformed `--l2`/`--line` is an
    /// error, not a panic.
    fn system_config(&self, scheme: Scheme) -> Result<SystemConfig, String> {
        let mut cfg = SystemConfig::try_hpca03(scheme, self.l2, self.line)
            .map_err(|e| e.to_string())?
            .with_hash_throughput(Throughput::gbps(self.hash_gbps))
            .with_buffer_entries(self.buffers);
        cfg.checker.block_on_verify = self.block_on_verify;
        cfg.checker.write_allocate_no_fetch = self.write_alloc_opt;
        cfg.checker.l2_policy = self.policy;
        cfg.checker.protected_bytes = self.protected;
        Ok(cfg)
    }

    /// Runs one scheme on the selected workload, recording into
    /// `telemetry` when provided.
    fn run_one(
        &self,
        scheme: Scheme,
        telemetry: Option<&Telemetry>,
    ) -> Result<(RunResult, Vec<Sample>), String> {
        if let Some(path) = &self.trace {
            let file = File::open(path).map_err(|e| format!("{path}: {e}"))?;
            let reader = miv_trace::file::read_trace(BufReader::new(file))
                .map_err(|e| format!("{path}: {e}"))?;
            let insts: Result<Vec<_>, _> = reader.collect();
            let insts = insts.map_err(|e| format!("{path}: {e}"))?;
            miv_trace::file::check_addresses(&insts, self.protected)
                .map_err(|e| format!("{path}: {e}"))?;
            // Replay through a custom profile-free system: reuse System by
            // constructing a profile wrapper is not possible for raw
            // traces, so drive the core directly (one sample for the run).
            let cfg = self.system_config(scheme)?;
            let mut hierarchy = miv_sim::Hierarchy::try_new(&cfg).map_err(|e| e.to_string())?;
            if let Some(t) = telemetry {
                hierarchy.attach_observability(t.registry(), t.events().sink());
            }
            let mut core = miv_cpu::Core::new(cfg.core, hierarchy);
            let warm = (self.warmup as usize).min(insts.len());
            core.run(insts[..warm].iter().copied());
            core.port_mut().reset_stats();
            let busy0 = {
                let now = core.now();
                core.port().l2().bus_busy_through(now)
            };
            let stats = core.run(insts[warm..].iter().copied());
            let busy = {
                let now = core.now();
                core.port().l2().bus_busy_through(now) - busy0
            };
            let l2 = core.port().l2().l2_stats();
            let bus = core.port().l2().bus_stats();
            let checker = core.port().l2().stats();
            let hash_hit_rate = if l2.hash.accesses() == 0 {
                1.0
            } else {
                l2.hash.hits() as f64 / l2.hash.accesses() as f64
            };
            let result = RunResult {
                scheme: scheme.label().into(),
                benchmark: path.clone(),
                instructions: stats.instructions,
                cycles: stats.cycles,
                ipc: stats.ipc(),
                l2_data_miss_rate: l2.data.miss_rate(),
                l2_data_misses: l2.data.misses(),
                hash_hit_rate,
                extra_loads_per_miss: if l2.data.misses() == 0 {
                    0.0
                } else {
                    checker.extra_loads() as f64 / l2.data.misses() as f64
                },
                bus_bytes: bus.total_bytes(),
                hash_bytes: bus.hash_bytes(),
                bandwidth_gbps: if stats.cycles == 0 {
                    0.0
                } else {
                    bus.total_bytes() as f64 / stats.cycles as f64
                },
                l2_hash_occupancy: 0.0,
                read_buffer_wait: checker.read_buffer_wait,
            };
            let samples = vec![Sample {
                instructions: stats.instructions,
                cycles: stats.cycles,
                ipc: stats.ipc(),
                l2_data_hit_rate: 1.0 - l2.data.miss_rate(),
                l2_hash_hit_rate: hash_hit_rate,
                bus_utilization: if stats.cycles == 0 {
                    0.0
                } else {
                    busy as f64 / stats.cycles as f64
                },
            }];
            Ok((result, samples))
        } else {
            let profile = match self.custom {
                Some(profile) => profile,
                None => self
                    .bench
                    .ok_or("need --bench, --custom or --trace")?
                    .profile(),
            };
            let mut sys = System::try_new(self.system_config(scheme)?, profile, self.common.seed)
                .map_err(|e| e.to_string())?;
            if let Some(t) = telemetry {
                sys.attach_telemetry(t);
            }
            Ok(sys.run_sampled(self.warmup, self.measure, self.sample_interval))
        }
    }

    /// Writes the metrics summary and/or event trace files, if requested.
    fn write_telemetry(
        &self,
        telemetry: &Telemetry,
        run: Option<&RunResult>,
        samples: &[Sample],
    ) -> Result<(), String> {
        if let Some(path) = &self.common.metrics_out {
            let doc = match run {
                Some(r) => telemetry.metrics_document(r, samples),
                None => telemetry.aggregate_document(),
            };
            std::fs::write(path, doc.render_pretty()).map_err(|e| format!("{path}: {e}"))?;
            eprintln!("wrote {path}");
        }
        if let Some(path) = &self.common.trace_events {
            std::fs::write(path, telemetry.events_jsonl()).map_err(|e| format!("{path}: {e}"))?;
            eprintln!(
                "wrote {path} ({} events, {} dropped)",
                telemetry.events().records().len(),
                telemetry.events().dropped()
            );
        }
        Ok(())
    }

    fn wants_telemetry(&self) -> bool {
        self.common.metrics_out.is_some() || self.common.trace_events.is_some()
    }
}

fn print_results(results: &[RunResult], json: bool) {
    if json {
        let doc = JsonValue::Array(results.iter().map(RunResult::to_json).collect());
        println!("{}", doc.render_pretty());
        return;
    }
    let mut t = Table::new(vec![
        "scheme".into(),
        "workload".into(),
        "IPC".into(),
        "L2 miss".into(),
        "hash hit".into(),
        "extra/miss".into(),
        "bus MB".into(),
        "GB/s".into(),
    ]);
    for r in results {
        t.row(vec![
            r.scheme.clone(),
            r.benchmark.clone(),
            f3(r.ipc),
            pct(r.l2_data_miss_rate),
            pct(r.hash_hit_rate),
            f2(r.extra_loads_per_miss),
            f2(r.bus_bytes as f64 / 1e6),
            f2(r.bandwidth_gbps),
        ]);
    }
    print!("{}", t.render());
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match Options::parse(&args) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let outcome = match opts.command.as_str() {
        "run" => {
            let telemetry = opts.wants_telemetry().then(Telemetry::new);
            opts.run_one(opts.scheme, telemetry.as_ref())
                .and_then(|(r, samples)| {
                    print_results(std::slice::from_ref(&r), opts.common.json);
                    match &telemetry {
                        Some(t) => opts.write_telemetry(t, Some(&r), &samples),
                        None => Ok(()),
                    }
                })
        }
        "sweep" => (|| {
            // One aggregate document across the five schemes: counters
            // sum, so the summary carries no single-run section.
            let telemetry = opts.wants_telemetry().then(Telemetry::new);
            let results = if opts.trace.is_some() {
                // Trace replay drives the core directly and shares the
                // recorders, so it stays sequential regardless of --jobs.
                let mut results = Vec::new();
                for scheme in Scheme::ALL {
                    let (r, _) = opts.run_one(scheme, telemetry.as_ref())?;
                    results.push(r);
                }
                results
            } else {
                let workload: Workload = match opts.custom {
                    Some(profile) => profile.into(),
                    None => opts
                        .bench
                        .ok_or("need --bench, --custom or --trace")?
                        .into(),
                };
                let mut requests = Vec::new();
                for scheme in Scheme::ALL {
                    let config = opts.system_config(scheme)?;
                    // Pre-flight through the fallible constructor: a bad
                    // spec is a CLI error, not a worker panic.
                    System::try_new(config, workload.profile(), opts.common.seed)
                        .map_err(|e| e.to_string())?;
                    requests.push(
                        RunRequest::new(
                            config,
                            workload,
                            opts.warmup,
                            opts.measure,
                            opts.common.seed,
                        )
                        .with_sample_interval(opts.sample_interval),
                    );
                }
                let mut runner = SweepRunner::new(opts.common.jobs);
                if let Some(t) = &telemetry {
                    runner = runner.capture_telemetry(t.events().capacity());
                }
                let mut results = Vec::new();
                for outcome in runner.run(&requests) {
                    if let (Some(t), Some(snap)) = (&telemetry, &outcome.telemetry) {
                        t.absorb(snap);
                    }
                    results.push(outcome.result);
                }
                results
            };
            print_results(&results, opts.common.json);
            match &telemetry {
                Some(t) => opts.write_telemetry(t, None, &[]),
                None => Ok(()),
            }
        })(),
        "attack" => (|| {
            let mut spec = if opts.common.quick {
                CampaignSpec::quick(opts.common.seed)
            } else {
                CampaignSpec::full(opts.common.seed)
            };
            spec.capture_events = opts.common.trace_events.is_some();
            spec.hash = opts.hash;
            let mut off_spec = if opts.common.quick {
                OfflineSpec::quick(opts.common.seed)
            } else {
                OfflineSpec::full(opts.common.seed)
            };
            off_spec.hash = opts.hash;
            // Pre-flight through the fallible constructors: a bad
            // geometry is a CLI error, not a worker panic.
            spec.validate()
                .map_err(|e| format!("invalid attack configuration: {e}"))?;
            let runner = SweepRunner::new(opts.common.jobs);
            let (outcomes, report) = run_campaign(&spec, &runner);
            let offline = run_offline_campaign(&off_spec, &runner);
            if opts.common.json {
                println!(
                    "{}",
                    attack_document(&spec, &report, &off_spec, &offline).render_pretty()
                );
            } else {
                print!("{}", render_report(&spec, &report));
                println!();
                print!("{}", render_offline_report(&off_spec, &offline));
            }
            if let Some(path) = &opts.common.metrics_out {
                let doc = attack_document(&spec, &report, &off_spec, &offline);
                std::fs::write(path, doc.render_pretty()).map_err(|e| format!("{path}: {e}"))?;
                eprintln!("wrote {path}");
            }
            if let Some(path) = &opts.common.trace_events {
                std::fs::write(path, attack_events_jsonl(&outcomes))
                    .map_err(|e| format!("{path}: {e}"))?;
                eprintln!("wrote {path}");
            }
            if report.clean() && offline.clean() {
                Ok(())
            } else {
                Err(format!(
                    "campaign failed: online {} missed / {} false alarms, \
                     offline {} missed / {} false alarms",
                    report.missed_expected,
                    report.false_alarms,
                    offline.missed_expected,
                    offline.false_alarms
                ))
            }
        })(),
        "store" => (|| {
            let mut spec = if opts.common.quick {
                StoreSpec::quick(opts.common.seed)
            } else {
                StoreSpec::full(opts.common.seed)
            };
            if let Some(ops) = opts.ops {
                spec.ops = ops;
            }
            spec.hash = opts.hash;
            // Pre-flight through the fallible geometry checks: a bad
            // grid is a CLI error, not a mid-campaign failure.
            spec.validate()
                .map_err(|e| format!("invalid store configuration: {e}"))?;
            let dir = opts
                .dir
                .clone()
                .map(std::path::PathBuf::from)
                .unwrap_or_else(default_store_dir);
            let mode = opts.store_mode.as_deref().unwrap_or("bench");
            let runner = SweepRunner::new(opts.common.jobs);
            let (text, doc, verdict) = match mode {
                "bench" => {
                    let outcomes = run_store_bench(&spec, &runner, &dir)?;
                    (
                        render_store_bench(&spec, &outcomes),
                        store_bench_document(&spec, &outcomes),
                        Ok(()),
                    )
                }
                "soak" => {
                    let report = run_soak(&spec, &dir)?;
                    let verdict = if report.clean() {
                        Ok(())
                    } else {
                        Err(format!(
                            "soak failed: {} reads disagreed with the model",
                            report.mismatches
                        ))
                    };
                    (
                        render_soak(&spec, &report),
                        store_soak_document(&spec, &report),
                        verdict,
                    )
                }
                "fsck" => {
                    let report = run_fsck(&spec, &runner)?;
                    let verdict = if report.clean() {
                        Ok(())
                    } else {
                        Err(format!(
                            "fsck failed: {} torn crash points (of {})",
                            report.torn.len(),
                            report.points
                        ))
                    };
                    (
                        render_fsck(&spec, &report),
                        store_fsck_document(&spec, &report),
                        verdict,
                    )
                }
                other => return Err(format!("unknown store mode {other}\n{USAGE}")),
            };
            if opts.common.json {
                println!("{}", doc.render_pretty());
            } else {
                print!("{text}");
            }
            if let Some(path) = &opts.common.metrics_out {
                std::fs::write(path, doc.render_pretty()).map_err(|e| format!("{path}: {e}"))?;
                eprintln!("wrote {path}");
            }
            verdict
        })(),
        "profile" => (|| {
            let spec = if opts.common.quick {
                ProfileSpec::quick(opts.common.seed)
            } else {
                ProfileSpec::full(opts.common.seed)
            };
            spec.validate()
                .map_err(|e| format!("invalid profile configuration: {e}"))?;
            let runner = SweepRunner::new(opts.common.jobs);
            if opts.drift_check {
                let report = run_drift_check(&spec, &runner)?;
                print!("{report}");
                return Ok(());
            }
            let profiles = run_profile(&spec, &runner);
            if opts.common.json {
                println!("{}", profile_document(&spec, &profiles).render_pretty());
            } else {
                print!("{}", render_profile(&spec, &profiles));
            }
            if let Some(path) = &opts.common.metrics_out {
                let doc = profile_document(&spec, &profiles);
                std::fs::write(path, doc.render_pretty()).map_err(|e| format!("{path}: {e}"))?;
                eprintln!("wrote {path}");
            }
            if let Some(path) = &opts.folded {
                std::fs::write(path, folded_output(&profiles))
                    .map_err(|e| format!("{path}: {e}"))?;
                eprintln!("wrote {path}");
            }
            Ok(())
        })(),
        "serve" => (|| {
            let mut spec = if opts.common.quick {
                ServeSpec::quick(opts.common.seed)
            } else {
                ServeSpec::full(opts.common.seed)
            };
            if let Some(shards) = opts.shards {
                spec.shards = shards;
            }
            if let Some(requests) = opts.requests {
                spec.requests = requests;
            }
            if opts.l2_set {
                spec.l2_bytes = opts.l2;
            }
            if opts.line_set {
                spec.line_bytes = opts.line;
            }
            spec.tamper = opts.tamper;
            spec.hash = opts.hash;
            // Pre-flight through the fallible constructors: a bad
            // geometry is a CLI error, not a worker panic.
            spec.validate()
                .map_err(|e| format!("invalid serve configuration: {e}"))?;
            let runner = SweepRunner::new(opts.common.jobs);
            let outcomes = run_serve(&spec, &runner)
                .map_err(|e| format!("invalid serve configuration: {e}"))?;
            if opts.common.json {
                println!("{}", serve_document(&spec, &outcomes).render_pretty());
            } else {
                print!("{}", render_serve(&spec, &outcomes));
            }
            if let Some(path) = &opts.common.metrics_out {
                let doc = serve_document(&spec, &outcomes);
                std::fs::write(path, doc.render_pretty()).map_err(|e| format!("{path}: {e}"))?;
                eprintln!("wrote {path}");
            }
            if let Some(path) = &opts.common.trace_events {
                let fold = fold_telemetry(&outcomes);
                std::fs::write(path, fold.events_jsonl()).map_err(|e| format!("{path}: {e}"))?;
                eprintln!("wrote {path}");
            }
            let summary = ServiceSummary::from_outcomes(&outcomes);
            if summary.clean() {
                Ok(())
            } else {
                Err(format!(
                    "serve failed: {} of {} tamper probes missed",
                    summary.probes - summary.probes_detected,
                    summary.probes
                ))
            }
        })(),
        "record" => (|| {
            let bench = opts.bench.ok_or("record needs --bench")?;
            let path = opts.out.clone().ok_or("record needs --out FILE")?;
            let file = File::create(&path).map_err(|e| format!("{path}: {e}"))?;
            let trace = bench.trace(opts.common.seed).take(opts.count as usize);
            let n = miv_trace::file::write_trace(BufWriter::new(file), trace)
                .map_err(|e| format!("{path}: {e}"))?;
            let _: Profile = bench.profile();
            eprintln!("wrote {n} records to {path}");
            Ok(())
        })(),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
