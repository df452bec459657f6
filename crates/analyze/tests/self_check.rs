//! The analyzer must pass on the workspace that ships it — including
//! its own sources — and its reports must be deterministic.
//!
//! Also drives the compiled `analyze` binary against the negative
//! fixtures under `tests/fixtures/`: trees that *must* fail with a
//! specific rule, proving the cross-file rules actually fire (a rule
//! that never fires is indistinguishable from a no-op).
//!
//! The compiler-enforced invariants (root `clippy.toml` plus
//! `[workspace.lints]`) are checked here only structurally: every
//! package opts in, and the `neg_lints` fire fixture carries the same
//! lint table. CI runs clippy on that fixture and expects each lint to
//! fire.

use std::path::Path;
use std::process::Command;

use miv_analyze::{analyze_workspace, find_rule, findings_json, sarif_json};

fn workspace_root() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..")
}

fn fixture_root(name: &str) -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join(name)
}

#[test]
fn workspace_is_clean() {
    let report = analyze_workspace(&workspace_root()).expect("analyze workspace");
    assert!(
        report.findings.is_empty(),
        "workspace has unsuppressed findings:\n{:#?}",
        report.findings
    );
    assert!(
        report.files_scanned > 80,
        "expected the whole workspace, scanned {}",
        report.files_scanned
    );
    // The item model actually modeled the tree, not just walked it.
    assert!(
        report.counts.items > 1000,
        "expected thousands of modeled items, got {}",
        report.counts.items
    );
    assert!(report.counts.enums > 10, "enum census looks empty");
    assert!(report.counts.matches > 50, "match census looks empty");
    // Every suppression that shipped carries a justification.
    assert!(report.suppressed.iter().all(|s| !s.reason.is_empty()));
    // And every analyzer allow site survived the unused-suppression
    // audit (a stale allow would have surfaced as a finding above);
    // the remaining inventory entries are reasoned `#[expect]`s, which
    // rustc audits.
    let directives = report
        .allow_sites
        .iter()
        .filter(|a| find_rule(&a.rule).is_some())
        .count();
    assert_eq!(report.suppressed.len(), directives);
    assert!(report.allow_sites.iter().all(|a| !a.reason.is_empty()));
}

/// A manifest's `[<prefix>.*]` tables, headers renamed to `[lints.*]`.
fn lint_tables(manifest: &str, prefix: &str) -> String {
    let header = format!("[{prefix}.");
    let lines: Vec<String> = manifest
        .lines()
        .skip_while(|l| !l.starts_with(&header))
        .take_while(|l| !l.starts_with('[') || l.starts_with(&header))
        .map(|l| l.replacen(&header, "[lints.", 1))
        .collect();
    lines.join("\n").trim_end().to_string()
}

#[test]
fn every_package_opts_into_the_workspace_lint_table() {
    let root = workspace_root();
    let mut manifests = vec![root.join("Cargo.toml")];
    for entry in std::fs::read_dir(root.join("crates")).expect("read crates/") {
        manifests.push(entry.expect("crates/ entry").path().join("Cargo.toml"));
    }
    assert!(manifests.len() > 10, "found only {manifests:?}");
    for manifest in manifests {
        let text = std::fs::read_to_string(&manifest).expect("read manifest");
        assert!(
            text.contains("\n[lints]\nworkspace = true\n"),
            "{} does not opt into [workspace.lints]",
            manifest.display()
        );
    }
    // The fire fixture CI lints must carry the very same table.
    let want = lint_tables(
        &std::fs::read_to_string(root.join("Cargo.toml")).expect("root"),
        "workspace.lints",
    );
    assert!(
        want.contains("unsafe_code") && want.contains("disallowed_methods"),
        "{want}"
    );
    let fixture = std::fs::read_to_string(fixture_root("neg_lints").join("Cargo.toml"))
        .expect("neg_lints manifest");
    assert_eq!(
        lint_tables(&fixture, "lints"),
        want,
        "neg_lints [lints] drifted"
    );
}

#[test]
fn findings_json_is_deterministic() {
    let root = workspace_root();
    let a = findings_json(&analyze_workspace(&root).expect("first pass")).render_pretty();
    let b = findings_json(&analyze_workspace(&root).expect("second pass")).render_pretty();
    assert_eq!(a, b, "findings JSON must be byte-identical across runs");
    assert!(a.contains("\"schema\""), "report carries its schema tag");
    assert!(a.contains("miv-findings-v2"));
    assert!(a.contains("\"suppression_inventory\""));
    assert!(a.contains("\"family\""));
}

#[test]
fn sarif_is_deterministic_and_well_formed() {
    let root = workspace_root();
    let a = sarif_json(&analyze_workspace(&root).expect("first pass")).render_pretty();
    let b = sarif_json(&analyze_workspace(&root).expect("second pass")).render_pretty();
    assert_eq!(a, b, "SARIF must be byte-identical across runs");
    assert!(a.contains("\"version\": \"2.1.0\""));
    assert!(a.contains("\"miv-analyze\""));
    assert!(
        a.contains("exhaustive-variant-match"),
        "rules metadata present"
    );
}

#[test]
fn suppressions_baseline_matches_committed_file() {
    let report = analyze_workspace(&workspace_root()).expect("analyze workspace");
    let committed =
        std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("suppressions.txt"))
            .expect("crates/analyze/suppressions.txt is committed");
    assert_eq!(
        report.suppressions_baseline(),
        committed,
        "suppression baseline drifted: rerun `analyze --workspace --suppressions \
         crates/analyze/suppressions.txt` and review the diff"
    );
}

#[test]
fn list_rules_is_sorted_with_family_column() {
    let out = Command::new(env!("CARGO_BIN_EXE_analyze"))
        .arg("--list-rules")
        .output()
        .expect("run analyze --list-rules");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    let ids: Vec<&str> = stdout
        .lines()
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    assert_eq!(ids.len(), 8, "catalogue changed: {ids:?}");
    let mut sorted = ids.clone();
    sorted.sort_unstable();
    assert_eq!(ids, sorted, "--list-rules must print in id order");
    for new_rule in [
        "exhaustive-variant-match",
        "fallible-constructor-pairing",
        "plumbed-enum",
        "unused-suppression",
    ] {
        assert!(ids.contains(&new_rule), "missing {new_rule}");
    }
    // Every line carries the family column.
    for line in stdout.lines() {
        assert!(
            line.contains("structural") || line.contains("token"),
            "no family column in: {line}"
        );
    }
}

#[test]
fn explain_prints_rule_card() {
    let out = Command::new(env!("CARGO_BIN_EXE_analyze"))
        .args(["--explain", "exhaustive-variant-match"])
        .output()
        .expect("run analyze --explain");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    assert!(stdout.contains("rule:      exhaustive-variant-match"));
    assert!(stdout.contains("family:    structural"));
    assert!(stdout.contains("fires on:"));
    // Unknown rules are a usage error, not a crash.
    let bad = Command::new(env!("CARGO_BIN_EXE_analyze"))
        .args(["--explain", "no-such-rule"])
        .output()
        .expect("run analyze --explain bad");
    assert_eq!(bad.status.code(), Some(2));
}

/// Runs the binary over a fixture tree; returns (exit code, stdout).
fn run_on_fixture(name: &str) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_analyze"))
        .arg("--root")
        .arg(fixture_root(name))
        .output()
        .expect("run analyze on fixture");
    (
        out.status.code().expect("exit code"),
        String::from_utf8(out.stdout).expect("utf-8"),
    )
}

#[test]
fn neg_wildcard_fixture_fails_exhaustive_variant_match() {
    let (code, stdout) = run_on_fixture("neg_wildcard");
    assert_eq!(code, 1, "wildcard over a tagged enum must fail:\n{stdout}");
    assert!(
        stdout.contains("[exhaustive-variant-match]"),
        "wrong rule fired:\n{stdout}"
    );
    assert!(stdout.contains("FixtureAlgo"), "names the enum:\n{stdout}");
}

#[test]
fn neg_missing_try_fixture_fails_constructor_pairing() {
    let (code, stdout) = run_on_fixture("neg_missing_try");
    assert_eq!(
        code, 1,
        "panicking new without try_new must fail:\n{stdout}"
    );
    assert!(
        stdout.contains("[fallible-constructor-pairing]"),
        "wrong rule fired:\n{stdout}"
    );
    assert!(
        stdout.contains("Unit::new"),
        "names the constructor:\n{stdout}"
    );
}
