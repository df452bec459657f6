//! `miv-analyze` — workspace-native static analysis for the miv
//! reproduction.
//!
//! The workspace's strongest guarantees — byte-identical output at any
//! `--jobs` count, adversary-campaign soundness, and split-run timing
//! equivalence — are dynamic properties protected by end-to-end CI
//! gates. Those gates tell you *that* a PR broke determinism, hours
//! after the fact; they do not tell you *where*, and they cannot stop
//! the classes of bug that only fire on specific inputs. This crate
//! turns the project's documented invariants (INVARIANTS.md) into a
//! machine-checked catalogue that runs in milliseconds.
//!
//! Invariants the compiler can state are not here. The root
//! `clippy.toml` and `[workspace.lints]`, which every member opts into,
//! forbid wall clocks (`disallowed_methods`, `disallowed_types`),
//! hash-ordered containers (`disallowed_types`), library panics
//! (`clippy::{unwrap_used, panic, todo, unimplemented}`), `unsafe`
//! (`unsafe_code`) and undocumented public items (`missing_docs`), and
//! CI runs clippy with `-D warnings`. This crate keeps the rules clippy
//! cannot express:
//!
//! * a hand-rolled, comment- and string-literal-aware Rust
//!   [`lexer`] (lossless: token spans reproduce the file byte for
//!   byte, property-tested over every `.rs` file in the workspace),
//! * a [`scan`] layer that classifies files (lib / bin / test),
//!   detects `#[cfg(test)]` item spans, parses suppression directives
//!   and collects `#[expect(lint, reason = "...")]` waivers,
//! * a [`model`] layer that builds a brace-balanced item tree per file
//!   (modules, fns, impls, enums with variant lists, `match`
//!   expressions with arm heads) and a workspace-wide index — the
//!   substrate for cross-file structural rules,
//! * a [`rules`] catalogue of project-specific invariants: token rules
//!   (reset methods must not clear interval schedules, no `std::rc`
//!   across the worker pool, balanced spans, no truncating casts in
//!   address arithmetic) and structural rules (exhaustive dispatch over
//!   tagged enums, fallible-constructor pairing, enum plumbing into
//!   dispatch tables, suppression audit),
//! * an [`engine`] that runs two passes (model + index, then rules),
//!   applies and audits suppressions, inventories them with the
//!   `#[expect]` waivers, and renders the deterministic
//!   `miv-findings-v2` JSON report,
//! * a [`sarif`] emitter so CI can annotate pull requests.
//!
//! # Running
//!
//! ```text
//! cargo run -p miv-analyze --release -- --workspace [--json out.json]
//! ```
//!
//! The binary exits non-zero on any unsuppressed finding.
//!
//! # Suppressing a finding
//!
//! Justification is mandatory; a directive without a reason is itself
//! a finding:
//!
//! ```text
//! // miv-analyze: allow(rc-not-sent, reason="crossed as a plain-data snapshot")
//! use std::rc::Rc;
//! ```
//!
//! The directive waives the named rule on its own line and the line
//! below it. A directive that shields nothing is itself a finding
//! (`unused-suppression`). Compiler lints are waived with
//! `#[expect(lint, reason = "...")]` instead; rustc fails a stale one
//! as `unfulfilled_lint_expectations`. `--suppressions` lists both
//! kinds, so CI can diff every waiver against the committed baseline.
//!
//! # Tagging an enum as exhaustive
//!
//! ```text
//! // miv-analyze: exhaustive
//! pub enum TamperKind { ... }
//! ```
//!
//! Every `match` whose arms dispatch on a tagged enum must then name
//! all of its variants — wildcard `_` arms fire — so adding a variant
//! breaks every dispatch site loudly at analysis time and compile time.

#![forbid(unsafe_code)]

pub mod engine;
pub mod lexer;
pub mod model;
pub mod rules;
pub mod sarif;
pub mod scan;

pub use engine::{
    analyze_sources, analyze_workspace, check_source, collect_rs_files, discover_workspace_root,
    findings_json, AllowSite, FileReport, Finding, Suppressed, WorkspaceReport,
};
pub use lexer::{lex, Token, TokenKind};
pub use model::{FileModel, Item, ItemCounts, ItemKind, WorkspaceIndex};
pub use rules::{find_rule, Rule, RuleCtx, RuleFamily, CATALOGUE, PLUMB_MANIFEST};
pub use sarif::sarif_json;
pub use scan::{FileContext, FileKind, SourceFile};
