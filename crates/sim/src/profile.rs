//! Cycle-attribution profiler: where do a verifying memory system's
//! cycles actually go?
//!
//! `mivsim profile` answers that with two passes over every scheme, both
//! fanned out on [`SweepRunner::run_tasks`] and both deterministic at
//! any worker count:
//!
//! 1. **Workload pass** — a seeded synthetic access stream (the same
//!    seed for every scheme, so the streams are comparable) drives an
//!    [`L2Controller`] directly with a [`SpanTracer`] attached. The
//!    controller books every core-visible cycle under exactly one leaf
//!    of the access-class roots (`hit` / `clean_miss` / `verified_miss`
//!    / `flush`), records per-class latency histograms, and accounts
//!    bus and hash-unit occupancy under the `background` root. The
//!    attribution is conservative: the leaves sum exactly to the
//!    controller's total core-visible cycles
//!    ([`SchemeProfile::attributed_cycles`] `==`
//!    [`SchemeProfile::total_cycles`]).
//! 2. **Detection pass** — the scheme's cells of a quick adversary
//!    campaign run with tracers attached
//!    ([`run_cell_traced`](miv_adversary::run_cell_traced)), and their
//!    `detect;<detector>` spans (cycles = injection-to-detection
//!    latency) merge into the scheme's profile. Only the `detect`
//!    subtree is kept from campaign cells — their access-stream cycles
//!    belong to different controllers and would break the workload
//!    pass's conservation invariant.
//!
//! The results export as a latency table plus per-scheme attribution
//! trees ([`render_profile`]), a byte-stable `miv-profile-v1` JSON
//! document ([`profile_document`]), and flamegraph folded stacks
//! ([`folded_output`]).
//!
//! [`run_drift_check`] reruns the deterministic campaign over several
//! derived seeds and fails if detection behaviour drifts: any missed
//! expected detection, any false alarm, a detection count that varies
//! with the seed, or a per-scheme median latency outside
//! [`DRIFT_TOLERANCE_PCT`] of the cross-epoch median.

use miv_adversary::{cell_seed, run_cell_traced, CampaignSpec};
use miv_cache::CacheConfig;
use miv_core::timing::{CheckerConfig, L2Controller};
use miv_core::{ConfigError, Scheme};
use miv_mem::MemoryBusConfig;
use miv_obs::{
    EventSink, HistogramSnapshot, JsonValue, ProfileSnapshot, Registry, Rng, SpanTracer,
};

use crate::attack::run_campaign;
use crate::report::{f2, Table};
use crate::sweep::SweepRunner;

/// The access classes of the workload pass, in report order. Each is a
/// top-level span root and a `checker.latency.*` histogram.
pub const ACCESS_CLASSES: [&str; 4] = ["hit", "clean_miss", "verified_miss", "flush"];

/// Maximum multiplicative deviation of a scheme's per-epoch p50
/// detection latency from its cross-epoch median before
/// [`run_drift_check`] fails: every epoch's p50 must lie in
/// `[median / F, median * F]`.
///
/// Detection latency is dominated by when the post-injection stream
/// next touches the corrupted chunk, so it is seed-dependent by
/// design; the measured spread across disjoint seeds on the quick
/// campaign is up to ~6x. The factor carries a ~3x margin over that —
/// it tolerates seed noise while still tripping on order-of-magnitude
/// regressions (a detection path that became instant, or one stalled
/// behind a serialization bug).
pub const DRIFT_LATENCY_FACTOR: f64 = 16.0;

/// Everything the profiler needs: plain data, fully determining the
/// output document.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileSpec {
    /// Seed for the workload stream (shared by every scheme) and the
    /// campaign of the detection pass.
    pub seed: u64,
    /// Accesses in the workload pass, per scheme.
    pub accesses: u64,
    /// Issue a full flush + verification drain every this many accesses
    /// (`0` = only the final one), so the `flush` class is populated.
    pub quiesce_every: u64,
    /// Span of the synthetic access stream in bytes.
    pub working_set: u64,
    /// L2 capacity in bytes.
    pub l2_bytes: u64,
    /// L2 line / tree block size in bytes.
    pub line_bytes: u32,
    /// Protected data segment size in bytes.
    pub protected_bytes: u64,
    /// Store fraction of the stream, in percent.
    pub write_ratio_pct: u32,
    /// The campaign whose cells feed the detection pass.
    pub campaign: CampaignSpec,
    /// Epochs for [`run_drift_check`].
    pub drift_epochs: u32,
}

impl ProfileSpec {
    /// A CI-sized profile: a short stream, the quick campaign, three
    /// drift epochs.
    pub fn quick(seed: u64) -> Self {
        ProfileSpec {
            seed,
            accesses: 6_000,
            quiesce_every: 1_000,
            working_set: 128 << 10,
            l2_bytes: 32 << 10,
            line_bytes: 64,
            protected_bytes: 256 << 10,
            write_ratio_pct: 30,
            campaign: CampaignSpec::quick(seed),
            drift_epochs: 3,
        }
    }

    /// The full profile: a longer stream over a larger footprint for
    /// stable percentiles, the full campaign, five drift epochs.
    pub fn full(seed: u64) -> Self {
        ProfileSpec {
            seed,
            accesses: 60_000,
            quiesce_every: 5_000,
            working_set: 512 << 10,
            l2_bytes: 64 << 10,
            line_bytes: 64,
            protected_bytes: 1 << 20,
            write_ratio_pct: 30,
            campaign: CampaignSpec::full(seed),
            drift_epochs: 5,
        }
    }

    /// The cycle-level checker configuration the workload pass builds
    /// for `scheme` — multi-block chunks for the schemes that hash
    /// several cache lines per tree node (same shaping as the
    /// campaign's cells).
    fn checker_config(&self, scheme: Scheme) -> CheckerConfig {
        let mut checker = CheckerConfig::hpca03(scheme);
        checker.protected_bytes = self.protected_bytes;
        checker.chunk_bytes = match scheme {
            Scheme::MHash | Scheme::IHash => self.line_bytes * 2,
            Scheme::Base | Scheme::Naive | Scheme::CHash => self.line_bytes,
        };
        checker
    }

    /// Checks that every profiled scheme's checker can be built from
    /// this spec, through the fallible constructor — the CLI's
    /// pre-flight, so a bad geometry comes back as a [`ConfigError`]
    /// instead of a mid-profile panic.
    pub fn validate(&self) -> Result<(), ConfigError> {
        for &scheme in &Scheme::ALL {
            L2Controller::try_new(
                self.checker_config(scheme),
                CacheConfig::try_l2(self.l2_bytes, self.line_bytes)?,
                MemoryBusConfig::default(),
            )?;
        }
        Ok(())
    }
}

/// One scheme's profile: span tree, conservation totals and per-class
/// latency histograms. Plain data (`Send`), so the per-scheme tasks
/// ride the sweep worker pool.
#[derive(Debug, Clone, PartialEq)]
pub struct SchemeProfile {
    /// The scheme.
    pub scheme: Scheme,
    /// The controller's total core-visible cycles over the workload
    /// pass (see [`L2Controller::total_cycles`]).
    pub total_cycles: u64,
    /// The merged span tree: workload access classes, `background`
    /// occupancy, and the campaign's `detect` subtree.
    pub spans: ProfileSnapshot,
    /// `(class, histogram)` per access class, in [`ACCESS_CLASSES`]
    /// order.
    pub latency: Vec<(String, HistogramSnapshot)>,
}

impl SchemeProfile {
    /// Cycles attributed under the four access-class roots. Equals
    /// [`total_cycles`](Self::total_cycles) exactly — the conservation
    /// invariant the profiler's tests enforce.
    pub fn attributed_cycles(&self) -> u64 {
        ACCESS_CLASSES
            .iter()
            .map(|class| self.spans.cycles_under(class))
            .sum()
    }
}

/// Runs the workload pass for one scheme.
fn profile_scheme(spec: &ProfileSpec, scheme: Scheme) -> SchemeProfile {
    let mut ctl = L2Controller::try_new(
        spec.checker_config(scheme),
        CacheConfig::l2(spec.l2_bytes, spec.line_bytes),
        MemoryBusConfig::default(),
    )
    .expect("profile spec validated before dispatch");
    let spans = SpanTracer::enabled();
    ctl.attach_spans(&spans);
    let registry = Registry::new();
    ctl.attach_observability(&registry, EventSink::disabled());

    // The same seed for every scheme: identical address/write streams
    // make the per-scheme trees directly comparable.
    let mut rng = Rng::seed_from_u64(spec.seed);
    let line = spec.line_bytes as u64;
    let blocks = (spec.working_set / line).max(1);
    let mut now: u64 = 0;
    for i in 0..spec.accesses {
        let addr = rng.gen_range_u64(0, blocks) * line;
        let write = rng.gen_bool(spec.write_ratio_pct as f64 / 100.0);
        now = ctl.access(now, addr, write, false);
        if spec.quiesce_every > 0 && (i + 1) % spec.quiesce_every == 0 {
            now = ctl.quiesce(now);
        }
    }
    ctl.quiesce(now);

    let metrics = registry.snapshot();
    let latency = ACCESS_CLASSES
        .iter()
        .map(|class| {
            let hist = metrics
                .histograms
                .get(&format!("checker.latency.{class}"))
                .cloned()
                .unwrap_or_default();
            (class.to_string(), hist)
        })
        .collect();
    SchemeProfile {
        scheme,
        total_cycles: ctl.total_cycles(),
        spans: spans.snapshot(),
        latency,
    }
}

/// Runs both passes over every scheme on `runner`'s worker pool and
/// returns the per-scheme profiles in [`Scheme::ALL`] order. Pure
/// function of the spec: byte-identical at any worker count.
pub fn run_profile(spec: &ProfileSpec, runner: &SweepRunner) -> Vec<SchemeProfile> {
    let mut profiles: Vec<SchemeProfile> =
        runner.run_tasks(&Scheme::ALL, |&scheme| profile_scheme(spec, scheme));

    // Detection pass: each campaign cell runs with its own tracer and
    // returns a plain snapshot; only the `detect` subtree merges in
    // (cell access-stream cycles belong to different controllers and
    // would break the workload pass's conservation invariant).
    let cells = spec.campaign.cells();
    let traced = runner.run_tasks(&cells, |cfg| {
        let spans = SpanTracer::enabled();
        run_cell_traced(cfg, &spans);
        (cfg.scheme, spans.snapshot())
    });
    for (scheme, snap) in traced {
        let detect_only = ProfileSnapshot {
            spans: snap
                .spans
                .into_iter()
                .filter(|s| s.path.first().is_some_and(|n| n == "detect"))
                .collect(),
        };
        if let Some(profile) = profiles.iter_mut().find(|p| p.scheme == scheme) {
            profile.spans.merge(&detect_only);
        }
    }
    profiles
}

/// The `miv-profile-v1` JSON document: per-scheme conservation totals,
/// per-class latency histograms with quantiles, and the sorted span
/// array. Byte-identical across runs and worker counts.
pub fn profile_document(spec: &ProfileSpec, profiles: &[SchemeProfile]) -> JsonValue {
    let mut doc = JsonValue::obj();
    doc.push("schema", "miv-profile-v1");
    doc.push("seed", spec.seed);
    doc.push("accesses", spec.accesses);
    doc.push("working_set", spec.working_set);
    doc.push("l2_bytes", spec.l2_bytes);
    let schemes: Vec<JsonValue> = profiles
        .iter()
        .map(|p| {
            let mut o = JsonValue::obj();
            o.push("scheme", p.scheme.label());
            o.push("total_cycles", p.total_cycles);
            o.push("attributed_cycles", p.attributed_cycles());
            let mut latency = JsonValue::obj();
            for (class, hist) in &p.latency {
                latency.push(class, hist.to_json());
            }
            o.push("latency", latency);
            o.push("spans", p.spans.to_json());
            o
        })
        .collect();
    doc.push("schemes", schemes);
    doc
}

/// Flamegraph folded stacks across every scheme: each span line is
/// prefixed with its scheme label, so one file holds the whole grid
/// (`chash;verified_miss;demand_fetch;dram 51200`).
pub fn folded_output(profiles: &[SchemeProfile]) -> String {
    let mut out = String::new();
    for p in profiles {
        for line in p.spans.to_folded().lines() {
            out.push_str(p.scheme.label());
            out.push(';');
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

/// Renders the text report: the per-class latency table (p50/p90/p99
/// from the log2 histograms) followed by one attribution tree per
/// scheme with the conservation totals in its header.
pub fn render_profile(spec: &ProfileSpec, profiles: &[SchemeProfile]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "cycle-attribution profile: seed {}, {} accesses/scheme over {} KiB (L2 {} KiB), \
         quiesce every {}\n\n",
        spec.seed,
        spec.accesses,
        spec.working_set >> 10,
        spec.l2_bytes >> 10,
        spec.quiesce_every,
    ));

    out.push_str("access latency by class (cycles):\n");
    let mut t = Table::new(vec![
        "scheme".into(),
        "class".into(),
        "count".into(),
        "p50".into(),
        "p90".into(),
        "p99".into(),
        "max".into(),
        "mean".into(),
    ]);
    for p in profiles {
        for (class, hist) in &p.latency {
            if hist.count == 0 {
                continue;
            }
            t.row(vec![
                p.scheme.label().into(),
                class.clone(),
                hist.count.to_string(),
                format!("{:.0}", hist.quantile(0.50)),
                format!("{:.0}", hist.quantile(0.90)),
                format!("{:.0}", hist.quantile(0.99)),
                hist.max.to_string(),
                f2(hist.mean()),
            ]);
        }
    }
    out.push_str(&t.render());

    for p in profiles {
        out.push_str(&format!(
            "\ncycle attribution — {} ({} core cycles, {} attributed):\n",
            p.scheme.label(),
            p.total_cycles,
            p.attributed_cycles(),
        ));
        out.push_str(&p.spans.render_tree());
    }
    out
}

/// Runs `spec.drift_epochs` deterministic campaign epochs over derived
/// seeds and checks that detection behaviour holds still. Returns the
/// per-epoch report on success; an explanation of the drift on failure.
///
/// Hard invariants (the campaign grid determines them, so any change is
/// a regression, not noise): zero missed expected detections, zero
/// false alarms, and a detection count identical in every epoch.
/// Latency invariant: every scheme's per-epoch p50 stays within a
/// factor of [`DRIFT_LATENCY_FACTOR`] of its cross-epoch median.
pub fn run_drift_check(spec: &ProfileSpec, runner: &SweepRunner) -> Result<String, String> {
    let epochs = spec.drift_epochs.max(2);
    let mut out = String::new();
    out.push_str(&format!(
        "telemetry drift check: {} epochs, base seed {}, tolerance {:.0}x on per-scheme p50 \
         detection latency (hard invariants: no misses, no false alarms, constant detections)\n\n",
        epochs, spec.seed, DRIFT_LATENCY_FACTOR,
    ));

    let mut reports = Vec::new();
    let mut t = Table::new(vec![
        "epoch".into(),
        "seed".into(),
        "detected".into(),
        "missed".into(),
        "false".into(),
    ]);
    for epoch in 0..epochs {
        let mut campaign = spec.campaign.clone();
        campaign.seed = cell_seed(spec.seed, epoch as usize, 0, 0);
        let (_, report) = run_campaign(&campaign, runner);
        t.row(vec![
            epoch.to_string(),
            campaign.seed.to_string(),
            report.detected.to_string(),
            report.missed_expected.to_string(),
            report.false_alarms.to_string(),
        ]);
        reports.push(report);
    }
    out.push_str(&t.render());

    let mut failures = Vec::new();
    for (epoch, report) in reports.iter().enumerate() {
        if report.missed_expected > 0 {
            failures.push(format!(
                "epoch {epoch}: {} expected detections missed",
                report.missed_expected
            ));
        }
        if report.false_alarms > 0 {
            failures.push(format!(
                "epoch {epoch}: {} false alarms",
                report.false_alarms
            ));
        }
    }
    let detected0 = reports[0].detected;
    for (epoch, report) in reports.iter().enumerate().skip(1) {
        if report.detected != detected0 {
            failures.push(format!(
                "epoch {epoch}: detected {} injections, epoch 0 detected {detected0} \
                 (the grid determines this count — it must not vary with the seed)",
                report.detected
            ));
        }
    }

    out.push_str("\nper-scheme p50 detection latency across epochs:\n");
    let mut lat = Table::new(vec![
        "scheme".into(),
        "p50 range".into(),
        "median".into(),
        "max drift".into(),
    ]);
    for &scheme in &spec.campaign.schemes {
        let p50s: Vec<u64> = reports
            .iter()
            .flat_map(|r| r.latency.iter().filter(|s| s.scheme == scheme))
            .filter(|s| s.detections > 0)
            .map(|s| s.p50)
            .collect();
        if p50s.is_empty() {
            continue;
        }
        let mut sorted = p50s.clone();
        sorted.sort_unstable();
        let median = sorted[sorted.len() / 2].max(1);
        let factor = p50s
            .iter()
            .map(|&p| {
                let (p, m) = (p.max(1) as f64, median as f64);
                (p / m).max(m / p)
            })
            .fold(1.0f64, f64::max);
        lat.row(vec![
            scheme.label().into(),
            format!(
                "{}..{}",
                sorted.first().copied().unwrap_or(0),
                sorted.last().copied().unwrap_or(0)
            ),
            median.to_string(),
            format!("{factor:.1}x"),
        ]);
        if factor > DRIFT_LATENCY_FACTOR {
            failures.push(format!(
                "{}: p50 drifted {factor:.1}x from the cross-epoch median {median} \
                 (tolerance {DRIFT_LATENCY_FACTOR:.0}x)",
                scheme.label()
            ));
        }
    }
    out.push_str(&lat.render());

    if failures.is_empty() {
        out.push_str("\nverdict: STABLE\n");
        Ok(out)
    } else {
        out.push_str("\nverdict: DRIFT\n");
        Err(format!("{out}\n{}", failures.join("\n")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_pass_conserves_cycles_for_every_scheme() {
        let spec = ProfileSpec::quick(7);
        for &scheme in &Scheme::ALL {
            let p = profile_scheme(&spec, scheme);
            assert!(p.total_cycles > 0, "{scheme} ran");
            assert_eq!(
                p.attributed_cycles(),
                p.total_cycles,
                "{scheme}: access-class leaves must sum to the controller total"
            );
            let verified = p.spans.cycles_under("verified_miss");
            if scheme.verifies() {
                assert!(verified > 0, "{scheme} verifies misses");
            } else {
                assert_eq!(verified, 0, "{scheme} never verifies");
            }
        }
    }

    #[test]
    fn detection_pass_adds_detect_spans_without_breaking_conservation() {
        let mut spec = ProfileSpec::quick(7);
        spec.campaign.trials = 1;
        spec.campaign.accesses = 800;
        spec.campaign.data_bytes = 128 << 10;
        spec.campaign.l2_bytes = 16 << 10;
        spec.campaign.working_set = 64 << 10;
        let profiles = run_profile(&spec, &SweepRunner::new(2));
        assert_eq!(profiles.len(), Scheme::ALL.len());
        for p in &profiles {
            assert_eq!(p.attributed_cycles(), p.total_cycles, "{}", p.scheme);
            if p.scheme.verifies() {
                assert!(
                    p.spans.cycles_under("detect") > 0,
                    "{} campaign cells detect injections",
                    p.scheme
                );
            }
        }
        let folded = folded_output(&profiles);
        assert!(folded.lines().all(|l| l.split(' ').count() == 2));
        assert!(folded.contains("chash;detect;"));
    }

    #[test]
    fn drift_check_quick_is_stable() {
        let mut spec = ProfileSpec::quick(11);
        spec.drift_epochs = 2;
        spec.campaign.trials = 1;
        spec.campaign.accesses = 800;
        spec.campaign.data_bytes = 128 << 10;
        spec.campaign.l2_bytes = 16 << 10;
        spec.campaign.working_set = 64 << 10;
        let report = run_drift_check(&spec, &SweepRunner::new(2)).expect("stable");
        assert!(report.contains("STABLE"));
        assert!(report.contains("tolerance"));
    }
}
