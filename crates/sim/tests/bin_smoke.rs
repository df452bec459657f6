//! End-to-end smoke tests of the command-line binaries (`figures`,
//! `mivsim`, `calibrate` compile targets), exercising argument parsing,
//! trace record/replay and JSON export through real processes.

use std::process::Command;

fn run(bin: &str, args: &[&str]) -> (bool, String, String) {
    let out = Command::new(bin).args(args).output().expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn figures_table1() {
    let (ok, stdout, _) = run(env!("CARGO_BIN_EXE_figures"), &["table1"]);
    assert!(ok);
    assert!(stdout.contains("1 GHz"));
    assert!(stdout.contains("3.2 GB/s"));
}

#[test]
fn figures_diagrams() {
    let (ok, stdout, _) = run(env!("CARGO_BIN_EXE_figures"), &["fig1", "fig2"]);
    assert!(ok);
    assert!(stdout.contains("secure root"));
    assert!(stdout.contains("READ BUFFER"));
}

#[test]
fn figures_rejects_unknown_artifact() {
    let (ok, _, stderr) = run(env!("CARGO_BIN_EXE_figures"), &["fig99"]);
    assert!(!ok);
    assert!(stderr.contains("unknown artifact"));
}

#[test]
fn figures_quick_fig4_runs_and_aggregates_metrics() {
    let dir = std::env::temp_dir().join("miv_bin_smoke_figures");
    std::fs::create_dir_all(&dir).unwrap();
    let metrics = dir.join("figures.json");
    let (ok, stdout, _) = run(
        env!("CARGO_BIN_EXE_figures"),
        &[
            "--warmup",
            "2000",
            "--measure",
            "8000",
            "--metrics-out",
            metrics.to_str().unwrap(),
            "fig4",
        ],
    );
    assert!(ok);
    assert!(stdout.contains("chash-256K"));
    assert!(stdout.contains("mcf"));
    // The aggregate document spans every run of the sweep: no single-run
    // section, but counters from all schemes and L2 sizes.
    let doc = miv_obs::JsonValue::parse(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
    assert_eq!(doc.get("schema").unwrap().as_str(), Some("miv-metrics-v1"));
    assert!(matches!(doc.get("run"), Some(miv_obs::JsonValue::Null)));
    assert!(
        doc.get("counters")
            .unwrap()
            .get("l2.data.read_misses")
            .unwrap()
            .as_u64()
            .unwrap()
            > 0
    );
    std::fs::remove_file(metrics).ok();
}

#[test]
fn figures_stdout_is_byte_identical_across_job_counts() {
    let args = |jobs: &'static str| {
        [
            "--warmup",
            "2000",
            "--measure",
            "8000",
            "--jobs",
            jobs,
            "--only",
            "fig5",
            "claims",
        ]
    };
    let (ok1, stdout1, _) = run(env!("CARGO_BIN_EXE_figures"), &args("1"));
    let (ok4, stdout4, _) = run(env!("CARGO_BIN_EXE_figures"), &args("4"));
    assert!(ok1 && ok4);
    assert!(stdout1.contains("== fig5"));
    assert!(stdout1.contains("== claims"));
    assert_eq!(stdout1, stdout4, "output must not depend on --jobs");
}

#[test]
fn mivsim_parallel_sweep_matches_sequential() {
    let exe = env!("CARGO_BIN_EXE_mivsim");
    let args = |jobs: &'static str| {
        [
            "sweep",
            "--bench",
            "gzip",
            "--l2",
            "256K",
            "--warmup",
            "2000",
            "--measure",
            "10000",
            "--jobs",
            jobs,
            "--json",
        ]
    };
    let (ok1, stdout1, _) = run(exe, &args("1"));
    let (ok4, stdout4, _) = run(exe, &args("4"));
    assert!(ok1 && ok4);
    assert_eq!(stdout1, stdout4);
    // One result object per scheme, in Scheme::ALL order.
    for scheme in ["base", "naive", "chash", "mhash", "ihash"] {
        assert!(
            stdout1.contains(&format!("\"{scheme}\"")),
            "{scheme} missing"
        );
    }
}

#[test]
fn mivsim_metrics_and_trace_events_export() {
    let exe = env!("CARGO_BIN_EXE_mivsim");
    let dir = std::env::temp_dir().join("miv_bin_smoke_metrics");
    std::fs::create_dir_all(&dir).unwrap();
    let metrics = dir.join("m.json");
    let events = dir.join("e.jsonl");

    // Flag-first invocation: the command defaults to `run` and the
    // workload to gzip, as in the documented
    // `mivsim --scheme chash --metrics-out m.json --trace-events e.jsonl`.
    let (ok, _, stderr) = run(
        exe,
        &[
            "--scheme",
            "chash",
            "--l2",
            "256K",
            "--warmup",
            "2000",
            "--measure",
            "20000",
            "--sample-interval",
            "5000",
            "--metrics-out",
            metrics.to_str().unwrap(),
            "--trace-events",
            events.to_str().unwrap(),
        ],
    );
    assert!(ok, "{stderr}");

    let doc = miv_obs::JsonValue::parse(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
    assert_eq!(doc.get("schema").unwrap().as_str(), Some("miv-metrics-v1"));
    assert_eq!(
        doc.get("run").unwrap().get("scheme").unwrap().as_str(),
        Some("chash")
    );
    // Per-line-kind L2 hit rates.
    for kind in ["data", "hash"] {
        let k = doc.get("l2").unwrap().get(kind).unwrap();
        assert!(
            k.get("accesses").unwrap().as_u64().unwrap() > 0,
            "no {kind} accesses"
        );
        let rate = k.get("hit_rate").unwrap().as_f64().unwrap();
        assert!((0.0..=1.0).contains(&rate));
    }
    // Tree-walk-depth and hash-queue-latency histograms with quantiles.
    let hists = doc.get("histograms").unwrap();
    for name in [
        "checker.walk_depth",
        "hash_unit.queue_wait",
        "bus.wait_cycles",
    ] {
        let h = hists
            .get(name)
            .unwrap_or_else(|| panic!("missing histogram {name}"));
        assert!(
            h.get("count").unwrap().as_u64().unwrap() > 0,
            "{name} empty"
        );
        for q in ["p50", "p90", "p99", "mean"] {
            assert!(h.get(q).is_some(), "{name} missing {q}");
        }
    }
    // Interval time series: 20k instructions at 5k per sample.
    let samples = doc.get("samples").unwrap().as_array().unwrap();
    assert!(
        samples.len() >= 2,
        "want >=2 samples, got {}",
        samples.len()
    );
    assert!(samples[0]
        .get("l2_hash_hit_rate")
        .unwrap()
        .as_f64()
        .is_some());

    // Event stream: JSONL, one object with a type tag per line.
    let jsonl = std::fs::read_to_string(&events).unwrap();
    assert!(!jsonl.trim().is_empty(), "no events recorded");
    for line in jsonl.lines().take(50) {
        let ev = miv_obs::JsonValue::parse(line).unwrap();
        assert!(ev.get("type").unwrap().as_str().is_some());
        assert!(ev.get("cycle").unwrap().as_u64().is_some());
    }
    std::fs::remove_file(metrics).ok();
    std::fs::remove_file(events).ok();
}

#[test]
fn mivsim_run_and_sweep() {
    let exe = env!("CARGO_BIN_EXE_mivsim");
    let (ok, stdout, _) = run(
        exe,
        &[
            "run",
            "--scheme",
            "chash",
            "--bench",
            "gzip",
            "--l2",
            "256K",
            "--warmup",
            "2000",
            "--measure",
            "10000",
        ],
    );
    assert!(ok, "{stdout}");
    assert!(stdout.contains("chash"));
    assert!(stdout.contains("gzip"));

    let (ok, stdout, _) = run(
        exe,
        &[
            "run",
            "--bench",
            "gzip",
            "--warmup",
            "1000",
            "--measure",
            "5000",
            "--json",
        ],
    );
    assert!(ok);
    assert!(
        stdout.trim_start().starts_with('['),
        "JSON output: {stdout}"
    );
    assert!(stdout.contains("\"ipc\""));
}

#[test]
fn mivsim_rejects_bad_args() {
    let exe = env!("CARGO_BIN_EXE_mivsim");
    let (ok, _, stderr) = run(exe, &["run", "--scheme", "bogus"]);
    assert!(!ok);
    assert!(stderr.contains("unknown scheme"));
    let (ok, _, stderr) = run(exe, &["run", "--no-such-flag"]);
    assert!(!ok);
    assert!(stderr.contains("unknown option"));
    // Not an option: trace replays are bounded by --protected alone.
    let (ok, _, stderr) = run(exe, &["run", "--working-set", "640K"]);
    assert!(!ok);
    assert!(stderr.contains("unknown option --working-set"), "{stderr}");
    let (ok, _, _) = run(exe, &[]);
    assert!(!ok);
    // Bad geometry is a message and exit 1, never a panic.
    for (args, message) in [
        (
            &["--l2", "3K"][..],
            "cache size must be a power of two, got 3072",
        ),
        (&["--l2", "1"][..], "too small for 4 ways of 64 B lines"),
        (
            &["--protected", "0"][..],
            "larger than the 0 B protected segment",
        ),
        (
            &["--custom", "ws=1G,mid=1G,hot=1G"][..],
            "working set of 1073741824 B is larger than the 268435456 B protected segment",
        ),
        (
            &["sweep", "--protected", "0"][..],
            "larger than the 0 B protected",
        ),
        (
            &["serve", "--quick", "--l2", "3K"][..],
            "must be a power of two",
        ),
    ] {
        let out = Command::new(exe).args(args).output().expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains(message), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

#[test]
fn mivsim_record_and_replay() {
    let exe = env!("CARGO_BIN_EXE_mivsim");
    let dir = std::env::temp_dir().join("miv_bin_smoke");
    std::fs::create_dir_all(&dir).unwrap();
    let trc = dir.join("smoke.trc");
    let trc_str = trc.to_str().unwrap();

    let (ok, _, stderr) = run(
        exe,
        &[
            "record", "--bench", "vpr", "--count", "30000", "--seed", "9", "--out", trc_str,
        ],
    );
    assert!(ok, "{stderr}");
    assert!(stderr.contains("wrote 30000 records"));

    let (ok, stdout, stderr) = run(
        exe,
        &[
            "run", "--scheme", "naive", "--trace", trc_str, "--warmup", "5000",
        ],
    );
    assert!(ok, "{stderr}");
    assert!(stdout.contains("naive"));
    assert!(stdout.contains("smoke.trc"));
    std::fs::remove_file(trc).ok();
}

#[test]
fn mivsim_rejects_trace_addresses_outside_the_protected_segment() {
    // Three records: a compute, a load at 1 TB, a crypto barrier. The
    // load once reached the timing model and panicked it.
    let mut bytes = b"MIVTRC01".to_vec();
    bytes.extend_from_slice(&3u64.to_le_bytes());
    bytes.extend_from_slice(&[0x00, 1]);
    bytes.push(0x01);
    bytes.extend_from_slice(&(1u64 << 40).to_le_bytes());
    bytes.push(0);
    bytes.push(0x03);
    let dir = std::env::temp_dir().join("miv_bin_smoke_bad_trace");
    std::fs::create_dir_all(&dir).unwrap();
    let trc = dir.join("bad.trc");
    std::fs::write(&trc, &bytes).unwrap();
    let trc_str = trc.to_str().unwrap();

    for scheme in ["base", "naive", "chash", "mhash", "ihash"] {
        let out = Command::new(env!("CARGO_BIN_EXE_mivsim"))
            .args(["run", "--scheme", scheme, "--trace", trc_str])
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{scheme}: {stderr}");
        assert!(
            stderr.contains(&format!(
                "{trc_str}: record 1: address 0x10000000000 outside the 268435456 B protected segment"
            )),
            "{scheme}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{scheme}: {stderr}");
    }
    std::fs::remove_file(trc).ok();
}
