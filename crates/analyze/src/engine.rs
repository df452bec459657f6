//! The analysis driver: builds per-file models and the workspace
//! index, runs the catalogue, applies suppression directives, audits
//! the suppressions themselves, inventories them together with the
//! compiler-lint `#[expect]` waivers, and renders the `miv-findings-v2`
//! report.
//!
//! Analysis is two-pass: pass 1 lexes every file, builds its
//! [`FileModel`] and folds it into the [`WorkspaceIndex`]; pass 2 runs
//! every rule over every file with the complete index in view. That is
//! what lets `plumbed-enum` ask "does `campaign.rs` reference
//! `Scheme::ALL`?" while checking `timing.rs`.

use std::collections::BTreeSet;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use miv_obs::json::JsonValue;

use crate::model::{FileModel, ItemCounts, WorkspaceIndex};
use crate::rules::{find_rule, RawFinding, RuleCtx, CATALOGUE};
use crate::scan::{FileContext, SourceFile};

/// Pseudo-rule id for directive and model hygiene: malformed
/// `allow(...)` forms, unknown rule ids, unattached `exhaustive` tags
/// and brace-balance failures are findings themselves (and cannot be
/// suppressed — fix the file).
pub const DIRECTIVE_RULE: &str = "directive";

/// Rule id the engine emits for allows that shield nothing. Lives in
/// the catalogue for listing/explaining, but the enforcement is here —
/// it needs the waiver bookkeeping.
pub const UNUSED_SUPPRESSION_RULE: &str = "unused-suppression";

/// One reportable violation.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule id that fired.
    pub rule: String,
    /// Workspace-relative path (`/` separators).
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
    /// What is wrong.
    pub message: String,
    /// The trimmed source line, for context in reports.
    pub snippet: String,
}

/// A finding that an `allow(rule, reason="...")` directive waived.
#[derive(Debug, Clone)]
pub struct Suppressed {
    /// Rule id that would have fired.
    pub rule: String,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line of the suppressed finding.
    pub line: usize,
    /// The directive's justification.
    pub reason: String,
}

/// One waiver site — the suppression *inventory* entry: an analyzer
/// `allow(...)` directive (one entry however many findings it shields)
/// or one lint of a compiler `#[expect(lint, reason = "...")]`. The
/// committed `suppressions.txt` baseline is rendered from these.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct AllowSite {
    /// Workspace-relative path.
    pub path: String,
    /// The analyzer rule id or compiler lint path being waived.
    pub rule: String,
    /// The justification.
    pub reason: String,
    /// 1-based line of the directive or attribute.
    pub line: usize,
}

/// Result of checking one file.
#[derive(Debug, Default)]
pub struct FileReport {
    /// Unsuppressed findings, sorted by (line, col, rule).
    pub findings: Vec<Finding>,
    /// Suppressed findings, same order.
    pub suppressed: Vec<Suppressed>,
    /// Every valid allow directive and `#[expect]` lint in the file.
    pub allow_sites: Vec<AllowSite>,
}

/// Runs the whole catalogue over one in-memory source file, with a
/// single-file index (cross-file rules see only this file; the
/// workspace driver uses [`analyze_sources`] for the full view).
pub fn check_source(ctx: &FileContext, src: &str) -> FileReport {
    let file = SourceFile::new(src);
    let model = FileModel::build(&file);
    let mut index = WorkspaceIndex::default();
    index.absorb_file(&ctx.rel_path, &file, &model);
    check_file(ctx, &file, &model, &index)
}

/// Runs the catalogue over one prepared file against a (possibly
/// workspace-wide) index.
fn check_file(
    ctx: &FileContext,
    file: &SourceFile,
    model: &FileModel,
    index: &WorkspaceIndex,
) -> FileReport {
    let src = file.src;
    let mut report = FileReport::default();

    for bad in &file.bad_directives {
        report.findings.push(Finding {
            rule: DIRECTIVE_RULE.to_string(),
            path: ctx.rel_path.clone(),
            line: bad.line,
            col: 1,
            message: format!("malformed miv-analyze directive: {}", bad.message),
            snippet: line_snippet(src, bad.line),
        });
    }
    for allow in &file.allows {
        if find_rule(&allow.rule).is_none() {
            report.findings.push(Finding {
                rule: DIRECTIVE_RULE.to_string(),
                path: ctx.rel_path.clone(),
                line: allow.line,
                col: 1,
                message: format!("allow() names unknown rule `{}`", allow.rule),
                snippet: line_snippet(src, allow.line),
            });
        }
    }
    // Brace-balance failures are unsuppressible model-hygiene findings:
    // past the first one, item spans and #[cfg(test)] skip regions are
    // unreliable (the PR 5 fragility made them silently extend to EOF).
    for &pos in &model.brace_errors {
        let (line, col) = file.line_col(pos);
        report.findings.push(Finding {
            rule: DIRECTIVE_RULE.to_string(),
            path: ctx.rel_path.clone(),
            line,
            col,
            message: "brace matching failed here: structural checks and #[cfg(test)] span \
                      detection are unreliable for this file until it parses"
                .to_string(),
            snippet: line_snippet(src, line),
        });
    }
    for &pos in &model.unattached_tags {
        let (line, col) = file.line_col(pos);
        report.findings.push(Finding {
            rule: DIRECTIVE_RULE.to_string(),
            path: ctx.rel_path.clone(),
            line,
            col,
            message: "`miv-analyze: exhaustive` tag attaches to no enum".to_string(),
            snippet: line_snippet(src, line),
        });
    }

    let mut allow_used = vec![false; file.allows.len()];
    for rule in CATALOGUE {
        let mut raw: Vec<RawFinding> = Vec::new();
        let rctx = RuleCtx {
            file: ctx,
            src: file,
            model,
            index,
        };
        (rule.check)(&rctx, &mut raw);
        for r in raw {
            let (line, col) = file.line_col(r.pos);
            let waiver = file
                .allows
                .iter()
                .position(|a| a.rule == rule.id && (a.line == line || a.line + 1 == line));
            match waiver {
                Some(ai) => {
                    allow_used[ai] = true;
                    report.suppressed.push(Suppressed {
                        rule: rule.id.to_string(),
                        path: ctx.rel_path.clone(),
                        line,
                        reason: file.allows[ai].reason.clone(),
                    });
                }
                None => report.findings.push(Finding {
                    rule: rule.id.to_string(),
                    path: ctx.rel_path.clone(),
                    line,
                    col,
                    message: r.message,
                    snippet: line_snippet(src, line),
                }),
            }
        }
    }

    // The suppression audit: a valid allow that shielded nothing is a
    // finding at its own line, unsuppressible by construction (no
    // waiver search runs for it — delete the directive instead).
    for (ai, allow) in file.allows.iter().enumerate() {
        if find_rule(&allow.rule).is_none() {
            continue; // already a directive finding above
        }
        report.allow_sites.push(AllowSite {
            path: ctx.rel_path.clone(),
            rule: allow.rule.clone(),
            reason: allow.reason.clone(),
            line: allow.line,
        });
        if !allow_used[ai] {
            report.findings.push(Finding {
                rule: UNUSED_SUPPRESSION_RULE.to_string(),
                path: ctx.rel_path.clone(),
                line: allow.line,
                col: 1,
                message: format!(
                    "allow({}) shields no finding of that rule; delete the stale directive",
                    allow.rule
                ),
                snippet: line_snippet(src, allow.line),
            });
        }
    }

    for expect in &file.expects {
        for lint in &expect.lints {
            report.allow_sites.push(AllowSite {
                path: ctx.rel_path.clone(),
                rule: lint.clone(),
                reason: expect.reason.clone(),
                line: expect.line,
            });
        }
    }

    report
        .findings
        .sort_by(|a, b| (a.line, a.col, &a.rule).cmp(&(b.line, b.col, &b.rule)));
    report
        .suppressed
        .sort_by(|a, b| (a.line, &a.rule).cmp(&(b.line, &b.rule)));
    report
}

fn line_snippet(src: &str, line: usize) -> String {
    src.lines()
        .nth(line.saturating_sub(1))
        .unwrap_or("")
        .trim()
        .to_string()
}

/// The aggregated result of analyzing a workspace tree.
#[derive(Debug, Default)]
pub struct WorkspaceReport {
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// All unsuppressed findings, sorted by (path, line, col, rule).
    pub findings: Vec<Finding>,
    /// All suppressed findings, same order.
    pub suppressed: Vec<Suppressed>,
    /// Every valid allow directive and `#[expect]` lint, sorted by
    /// (path, rule, reason, line) — the suppression inventory.
    pub allow_sites: Vec<AllowSite>,
    /// Aggregated item-model counts across the workspace.
    pub counts: ItemCounts,
}

impl WorkspaceReport {
    /// Whether the tree is clean (no unsuppressed findings).
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Renders the committed `suppressions.txt` baseline: one line per
    /// distinct waiver, `path<TAB>rule-or-lint<TAB>reason`, sorted and
    /// line-number-free so unrelated edits never churn it.
    pub fn suppressions_baseline(&self) -> String {
        let lines: BTreeSet<String> = self
            .allow_sites
            .iter()
            .map(|a| format!("{}\t{}\t{}", a.path, a.rule, a.reason))
            .collect();
        let mut out = String::new();
        for l in lines {
            out.push_str(&l);
            out.push('\n');
        }
        out
    }
}

/// Walks `root` and returns every `.rs` file as a sorted list of
/// workspace-relative paths (`/` separators), skipping `target/`,
/// VCS metadata, hidden directories and `fixtures/` trees (test
/// corpora deliberately contain forbidden patterns) — so the report
/// order is deterministic by construction.
pub fn collect_rs_files(root: &Path) -> io::Result<Vec<String>> {
    let mut out = Vec::new();
    walk(root, root, &mut out)?;
    out.sort();
    Ok(out)
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<String>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .collect::<io::Result<Vec<_>>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        if path.is_dir() {
            if name == "target" || name == "fixtures" || name.starts_with('.') {
                continue;
            }
            walk(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy().into_owned())
                .collect::<Vec<_>>()
                .join("/");
            out.push(rel);
        }
    }
    Ok(())
}

/// Analyzes a set of in-memory sources as one workspace: builds every
/// model and the shared index (pass 1), then checks every file against
/// it (pass 2). `sources` is `(rel_path, text)` pairs; order does not
/// affect the result beyond the already-sorted report.
pub fn analyze_sources(sources: &[(String, String)]) -> WorkspaceReport {
    // Pass 1: lex, model, index.
    let mut prepared: Vec<(FileContext, SourceFile, FileModel)> = Vec::new();
    let mut index = WorkspaceIndex::default();
    for (rel, text) in sources {
        let ctx = FileContext::from_rel_path(rel);
        let file = SourceFile::new(text);
        let model = FileModel::build(&file);
        index.absorb_file(rel, &file, &model);
        prepared.push((ctx, file, model));
    }

    // Pass 2: rules with the full index in view.
    let mut report = WorkspaceReport {
        counts: index.counts,
        ..WorkspaceReport::default()
    };
    for (ctx, file, model) in &prepared {
        let file_report = check_file(ctx, file, model, &index);
        report.findings.extend(file_report.findings);
        report.suppressed.extend(file_report.suppressed);
        report.allow_sites.extend(file_report.allow_sites);
        report.files_scanned += 1;
    }
    report
        .findings
        .sort_by(|a, b| (&a.path, a.line, a.col, &a.rule).cmp(&(&b.path, b.line, b.col, &b.rule)));
    report
        .suppressed
        .sort_by(|a, b| (&a.path, a.line, &a.rule).cmp(&(&b.path, b.line, &b.rule)));
    report.allow_sites.sort_by(|a, b| {
        (&a.path, &a.rule, &a.reason, a.line).cmp(&(&b.path, &b.rule, &b.reason, b.line))
    });
    report
}

/// Analyzes every `.rs` file under `root` with the full catalogue.
pub fn analyze_workspace(root: &Path) -> io::Result<WorkspaceReport> {
    let mut sources = Vec::new();
    for rel in collect_rs_files(root)? {
        let text = fs::read_to_string(root.join(&rel))?;
        sources.push((rel, text));
    }
    Ok(analyze_sources(&sources))
}

/// Ascends from `start` to the nearest directory whose `Cargo.toml`
/// declares `[workspace]`.
pub fn discover_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d.to_path_buf());
            }
        }
        dir = d.parent();
    }
    None
}

/// Renders the `miv-findings-v2` JSON report. Field order and array
/// order are fixed, rules are sorted by id, and no timestamps or
/// absolute paths are included, so two runs over the same tree are
/// byte-identical.
pub fn findings_json(report: &WorkspaceReport) -> JsonValue {
    let mut root = JsonValue::obj();
    root.push("schema", "miv-findings-v2");
    root.push("files_scanned", report.files_scanned as u64);
    root.push("clean", report.is_clean());

    let mut sorted: Vec<&crate::rules::Rule> = CATALOGUE.iter().collect();
    sorted.sort_by_key(|r| r.id);
    let mut rules = Vec::new();
    for rule in sorted {
        let mut r = JsonValue::obj();
        r.push("id", rule.id);
        r.push("family", rule.family.label());
        r.push("summary", rule.summary);
        rules.push(r);
    }
    root.push("rules", JsonValue::Array(rules));

    let mut findings = Vec::new();
    for f in &report.findings {
        let mut j = JsonValue::obj();
        j.push("rule", f.rule.as_str());
        j.push("path", f.path.as_str());
        j.push("line", f.line as u64);
        j.push("col", f.col as u64);
        j.push("message", f.message.as_str());
        j.push("snippet", f.snippet.as_str());
        findings.push(j);
    }
    root.push("findings", JsonValue::Array(findings));

    let mut suppressed = Vec::new();
    for s in &report.suppressed {
        let mut j = JsonValue::obj();
        j.push("rule", s.rule.as_str());
        j.push("path", s.path.as_str());
        j.push("line", s.line as u64);
        j.push("reason", s.reason.as_str());
        suppressed.push(j);
    }
    root.push("suppressed", JsonValue::Array(suppressed));

    let mut inventory = Vec::new();
    for a in &report.allow_sites {
        let mut j = JsonValue::obj();
        j.push("path", a.path.as_str());
        j.push("rule", a.rule.as_str());
        j.push("reason", a.reason.as_str());
        j.push("line", a.line as u64);
        inventory.push(j);
    }
    root.push("suppression_inventory", JsonValue::Array(inventory));

    let mut items = JsonValue::obj();
    items.push("files", report.counts.files as u64);
    items.push("items", report.counts.items as u64);
    items.push("mods", report.counts.mods as u64);
    items.push("fns", report.counts.fns as u64);
    items.push("impls", report.counts.impls as u64);
    items.push("enums", report.counts.enums as u64);
    items.push("enum_variants", report.counts.enum_variants as u64);
    items.push("matches", report.counts.matches as u64);
    root.push("items", items);
    root
}
