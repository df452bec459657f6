//! The rule catalogue: every project invariant the analyzer enforces.
//!
//! Each rule encodes a *real* past or latent footgun from this
//! workspace's history (see INVARIANTS.md for the mapping from prose
//! subtlety to rule id). Invariants the compiler can state — wall
//! clocks, hash-ordered containers, library panics, `unsafe`, docs —
//! live in `clippy.toml` and `[workspace.lints]` instead; only the
//! project-specific ones are here. Rules come in two families:
//!
//! * **token** rules work on the significant-token stream of a
//!   [`SourceFile`] — comments, doc examples and string literals can
//!   never trigger them,
//! * **structural** rules work on the [`FileModel`] item tree and the
//!   cross-file [`WorkspaceIndex`] — they see enums with their variant
//!   lists, `match` arms, impl blocks and constructor pairings.
//!
//! Rules scope themselves by [`FileKind`] and crate id. Suppression is
//! per-line via `// miv-analyze: allow(rule-id, reason="...")` with a
//! mandatory justification; an allow that shields nothing is itself a
//! finding (`unused-suppression`).

use std::collections::BTreeSet;

use crate::lexer::TokenKind;
use crate::model::{FileModel, Item, ItemKind, WorkspaceIndex};
use crate::scan::{FileContext, FileKind, SourceFile};

/// A raw finding before suppression and line/col resolution: a byte
/// offset into the file plus a message.
#[derive(Debug)]
pub struct RawFinding {
    /// Byte offset the finding anchors to.
    pub pos: usize,
    /// Human-readable description of the violation.
    pub message: String,
}

/// Which machinery a rule runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuleFamily {
    /// Flat significant-token patterns (the PR 5 engine).
    Token,
    /// Item-model / workspace-index queries (the PR 10 engine).
    Structural,
}

impl RuleFamily {
    /// Stable label for `--list-rules` and the findings JSON.
    pub fn label(self) -> &'static str {
        match self {
            RuleFamily::Token => "token",
            RuleFamily::Structural => "structural",
        }
    }
}

/// Everything a rule's checker can see: the file under test plus the
/// structural model and the workspace-wide index.
pub struct RuleCtx<'a> {
    /// Path classification of the file under test.
    pub file: &'a FileContext,
    /// The lexed file (significant-token views, test spans, allows).
    pub src: &'a SourceFile<'a>,
    /// The file's item model.
    pub model: &'a FileModel,
    /// The cross-file index (a single-file index in `check_source`).
    pub index: &'a WorkspaceIndex,
}

/// One rule: id, family, documentation, and the checker itself.
pub struct Rule {
    /// Stable kebab-case id, used in directives and the findings JSON.
    pub id: &'static str,
    /// Token or structural engine.
    pub family: RuleFamily,
    /// One-line summary shown by `--list-rules` and embedded in the
    /// findings report.
    pub summary: &'static str,
    /// Longer rationale printed by `--explain`.
    pub doc: &'static str,
    /// A minimal firing example printed by `--explain`.
    pub fixture: &'static str,
    /// The INVARIANTS.md row the rule mechanizes.
    pub invariant: &'static str,
    /// The checker: pushes raw findings for one file.
    pub check: fn(&RuleCtx, &mut Vec<RawFinding>),
}

/// The full catalogue, in the order findings are reported.
pub const CATALOGUE: &[Rule] = &[
    Rule {
        id: "no-truncating-cast",
        family: RuleFamily::Token,
        summary: "`as u8/u16/u32` narrowing is forbidden in the address/size crates (core, mem, \
                  sim, adversary) except on literals and SCREAMING_CASE constants; use \
                  try_into/checked helpers (the parse_size overflow class)",
        doc: "The PR-2 parse_size bug was exactly this shape: a u64 address quietly folded \
              into a smaller type and wrapped. In the address/size crates, `as u8/u16/u32` on \
              anything but a literal or SCREAMING_CASE constant (where the value is in view) \
              must go through try_into/checked conversion.",
        fixture: "pub fn lo(addr: u64) -> u32 { addr as u32 }",
        invariant: "Address and size arithmetic never silently truncates",
        check: check_no_truncating_cast,
    },
    Rule {
        id: "reset-preserves-schedules",
        family: RuleFamily::Token,
        summary: "a reset* method must not .clear() a schedule field: booked bus/hash-unit \
                  transfers would be forgotten and split runs would diverge from unsplit runs",
        doc: "The PR-4 bug as a rule: `L2Controller::reset_stats` once cleared the bus \
              IntervalSchedule, forgetting booked background-verification transfers, so a \
              split run timed differently from an unsplit run. Any `fn reset*` that calls \
              `.clear()` on a field whose name contains `sched` fires.",
        fixture: "fn reset_stats(&mut self) { self.bus_schedule.clear(); }",
        invariant: "Split runs and unsplit runs produce identical timing",
        check: check_reset_preserves_schedules,
    },
    Rule {
        id: "rc-not-sent",
        family: RuleFamily::Token,
        summary: "std::rc is non-Send and breaks the parallel sweep unless crossed as a \
                  plain-data snapshot; justify every use against the snapshot-absorb pattern. \
                  In the serving layer (serve*.rs) the bar is stricter: no Rc/RefCell ident at \
                  all, so no aliased handle can leak into a shard task signature",
        doc: "std::rc types are non-Send; the parallel sweep crosses telemetry between \
              threads as plain-data snapshots instead. Any Rc must either live behind that \
              pattern (justified allow) or not exist. The serving layer gets a stricter \
              boundary: in a serve*.rs file any Rc/RefCell ident fires, including uses the \
              path check cannot see (`Rc::new` after `use std::rc::Rc`).",
        fixture: "use std::rc::Rc;\nfn f() -> Rc<u8> { Rc::new(1) }",
        invariant: "Everything crossing the worker pool is plain Send data",
        check: check_rc_not_sent,
    },
    Rule {
        id: "span-balance",
        family: RuleFamily::Token,
        summary: "span_enter/span_exit are forbidden outside miv-obs: an unbalanced manual \
                  span (early return, ?) silently re-parents later attribution; use the RAII \
                  SpanTracer::span guard",
        doc: "A `span_enter` whose `span_exit` is skipped by an early return or a `?` \
              silently re-parents every later attribution in the run. The RAII guard from \
              `SpanTracer::span` cannot unbalance, so it is the only sanctioned form in \
              instrumented code; manual bracketing stays inside the tracer's own crate.",
        fixture: "fn f(t: &mut SpanTracer) { t.span_enter(\"x\"); }",
        invariant: "Cycle attribution spans are always balanced",
        check: check_span_balance,
    },
    Rule {
        id: "exhaustive-variant-match",
        family: RuleFamily::Structural,
        summary: "a match over an enum tagged `// miv-analyze: exhaustive` must name every \
                  variant; wildcard `_` (or binding) arms fire — adding a variant must break \
                  every dispatch site loudly",
        doc: "The schemes, tamper kinds, attack classes and hash algorithms are closed \
              vocabularies: the paper's coverage claims quantify over all of them. A wildcard \
              arm in a dispatch over one of these enums means a future variant silently falls \
              into the default — exactly how taxonomy coverage shrinks without any test \
              failing. Tag the enum with `// miv-analyze: exhaustive` and every match over it \
              (matches whose arm heads name the enum's variants) must name each variant \
              explicitly; rustc then turns every future variant addition into a compile error \
              at every dispatch site. Arms the model cannot interpret (tuple bindings, \
              payload-only patterns) make the match opaque and exempt — the rule never \
              guesses.",
        fixture: "// miv-analyze: exhaustive\npub enum Algo { A, B }\n\
                  fn f(a: Algo) -> u8 { match a { Algo::A => 1, _ => 0 } }",
        invariant: "Every scheme covers the full tamper taxonomy; closed enums dispatch \
                    exhaustively",
        check: check_exhaustive_variant_match,
    },
    Rule {
        id: "fallible-constructor-pairing",
        family: RuleFamily::Structural,
        summary: "a pub fn new in core/mem/store that can panic must have a try_new sibling, \
                  and a new with a try_new sibling must be a thin .expect(\"documented \
                  invariant\") wrapper",
        doc: "Workers build engines from config; a constructor that panics on a bad config \
              kills the whole sweep instead of reporting one failed point. In the core, mem \
              and store crates every `pub fn new` that contains a panic path (assert!, \
              unwrap, expect, panic!, unreachable!) must be paired with a `try_new` returning \
              Result, and the `new` itself must be nothing but a thin \
              `Self::try_new(..).expect(\"documented invariant\")` forwarding wrapper — one \
              panic site, one message, one place to audit.",
        fixture: "impl Cache {\n    pub fn new(n: usize) -> Self { assert!(n > 0); /* .. */ }\n}",
        invariant: "No panicking constructor without a try_ sibling",
        check: check_fallible_constructor_pairing,
    },
    Rule {
        id: "plumbed-enum",
        family: RuleFamily::Structural,
        summary: "adding a variant to a plumbed enum (HashAlgo, Scheme, AttackClass) without \
                  touching its carrier const and dispatch tables fires — driven by the plumb! \
                  manifest",
        doc: "ROADMAP: every new scheme must slot into `mivsim attack` and detect the full \
              taxonomy, and every new hash algorithm must appear in the figures. The plumb! \
              manifest in rules.rs declares, per enum: the carrier const (ALL) that must name \
              every variant, the dispatch files that must iterate `Enum::ALL`, and the \
              variant-site files that must name every variant explicitly. Adding a variant \
              without re-plumbing fires on the defining file; dispatching through the carrier \
              is what makes a new variant flow to campaigns and figures automatically.",
        fixture: "// in the defining file of a manifest enum:\n\
                  pub enum HashAlgo { Md5, Sha1, Sha256, Blake3 } // Blake3 not in ALL",
        invariant: "New enum variants reach the attack campaigns and figures automatically",
        check: check_plumbed_enum,
    },
    Rule {
        id: "unused-suppression",
        family: RuleFamily::Structural,
        summary: "an allow(rule, reason=..) whose scope shields no finding of that rule is \
                  itself a finding — keeps the justified-suppression budget honest",
        doc: "Suppressions are a budget, not a convenience: each one documents a reviewed \
              exception. When the code under an allow changes so the rule no longer fires, \
              the stale directive keeps shielding the lines around it and its reason rots. \
              The engine tracks which allows actually waived a finding; any allow naming a \
              valid rule that shields nothing becomes a finding at the directive's own line. \
              Unsuppressible by design — delete the directive.",
        fixture: "// miv-analyze: allow(span-balance, reason=\"stale\")\nfn f() {}",
        invariant: "Every committed suppression shields a real finding and is baselined",
        check: check_unused_suppression,
    },
];

/// Looks a rule up by id (used to validate directives).
pub fn find_rule(id: &str) -> Option<&'static Rule> {
    CATALOGUE.iter().find(|r| r.id == id)
}

fn code_kinds(kind: FileKind) -> bool {
    matches!(kind, FileKind::Lib | FileKind::Bin)
}

const CAST_SCOPED_CRATES: &[&str] = &["core", "mem", "sim", "adversary"];
const NARROW_TARGETS: &[&str] = &["u8", "u16", "u32"];

/// Rule 1: no silent narrowing casts in address/size arithmetic.
fn check_no_truncating_cast(c: &RuleCtx, out: &mut Vec<RawFinding>) {
    let (ctx, f) = (c.file, c.src);
    if ctx.kind != FileKind::Lib || !CAST_SCOPED_CRATES.contains(&ctx.crate_id.as_str()) {
        return;
    }
    for k in 1..f.sig_len() {
        if f.sig_text(k) != "as" || !NARROW_TARGETS.contains(&f.sig_text(k + 1)) {
            continue;
        }
        let pos = f.sig_start(k);
        if f.in_test_span(pos) {
            continue;
        }
        let prev = f.sig_text(k - 1);
        let prev_kind = f.sig_kind(k - 1);
        let literal = prev_kind == Some(TokenKind::Number) || prev == "true" || prev == "false";
        let screaming = prev_kind == Some(TokenKind::Ident)
            && prev.len() > 1
            && prev.chars().any(|c| c.is_ascii_uppercase())
            && prev
                .chars()
                .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_');
        if literal || screaming {
            continue;
        }
        out.push(RawFinding {
            pos,
            message: format!(
                "narrowing `as {}` on a non-literal value; use try_into/checked conversion",
                f.sig_text(k + 1)
            ),
        });
    }
}

/// Rule 2: a `reset*` method must not clear a schedule.
fn check_reset_preserves_schedules(c: &RuleCtx, out: &mut Vec<RawFinding>) {
    let (ctx, f) = (c.file, c.src);
    if ctx.kind != FileKind::Lib {
        return;
    }
    let mut k = 0;
    while k + 1 < f.sig_len() {
        if f.sig_text(k) != "fn" || !f.sig_text(k + 1).contains("reset") {
            k += 1;
            continue;
        }
        if f.in_test_span(f.sig_start(k)) {
            k += 1;
            continue;
        }
        // Find the body: first `{` after the signature.
        let mut open = k + 2;
        while open < f.sig_len() && f.sig_text(open) != "{" && f.sig_text(open) != ";" {
            open += 1;
        }
        if f.sig_text(open) != "{" {
            k = open + 1;
            continue;
        }
        let close = f.matching_brace(open);
        for j in open..close {
            let ident = f.sig_text(j);
            if f.sig_kind(j) != Some(TokenKind::Ident) || !ident.to_lowercase().contains("sched") {
                continue;
            }
            // A `.clear(` within the next few tokens of the schedule
            // field catches `self.sched.clear()` and
            // `self.sched.inner.clear()` alike.
            for m in j + 1..(j + 5).min(close) {
                if f.sig_text(m) == "clear" && f.sig_text(m - 1) == "." && f.sig_text(m + 1) == "("
                {
                    out.push(RawFinding {
                        pos: f.sig_start(j),
                        message: format!(
                            "reset method `{}` clears schedule field `{ident}`: booked \
                             transfers would be forgotten (split-run divergence)",
                            f.sig_text(k + 1)
                        ),
                    });
                    break;
                }
            }
        }
        k = close + 1;
    }
}

/// Rule 3: `std::rc` types are non-Send; stricter in the serving layer.
fn check_rc_not_sent(c: &RuleCtx, out: &mut Vec<RawFinding>) {
    let (ctx, f) = (c.file, c.src);
    if !code_kinds(ctx.kind) {
        return;
    }
    let serving_layer = ctx
        .rel_path
        .rsplit('/')
        .next()
        .is_some_and(|name| name.starts_with("serve") && name.ends_with(".rs"));
    for k in 0..f.sig_len() {
        if f.sig_kind(k) != Some(TokenKind::Ident) {
            continue;
        }
        let t = f.sig_text(k);
        let path_use = t == "rc" && f.match_seq(k + 1, &[":", ":"]);
        let serve_handle = serving_layer && (t == "Rc" || t == "RefCell");
        if !path_use && !serve_handle {
            continue;
        }
        let pos = f.sig_start(k);
        if f.in_test_span(pos) {
            continue;
        }
        let message = if path_use {
            "std::rc type in non-test code: non-Send, breaks the parallel sweep unless \
             crossed as a plain-data snapshot"
                .to_string()
        } else {
            format!(
                "`{t}` in the serving layer: shard tasks must cross the worker pool as \
                 plain Send data, never as Rc-family handles"
            )
        };
        out.push(RawFinding { pos, message });
    }
}

/// Rule 4: manual span bracketing stays inside the tracer's own crate.
fn check_span_balance(c: &RuleCtx, out: &mut Vec<RawFinding>) {
    let (ctx, f) = (c.file, c.src);
    if !code_kinds(ctx.kind) || ctx.crate_id == "obs" {
        return;
    }
    for k in 0..f.sig_len() {
        let t = f.sig_text(k);
        if t != "span_enter" && t != "span_exit" {
            continue;
        }
        if f.sig_kind(k) != Some(TokenKind::Ident) {
            continue;
        }
        let pos = f.sig_start(k);
        if f.in_test_span(pos) {
            continue;
        }
        out.push(RawFinding {
            pos,
            message: format!(
                "manual `{t}` outside miv-obs: unbalanced spans skew cycle attribution; use \
                 the RAII SpanTracer::span guard"
            ),
        });
    }
}

/// Rule 5: matches over `exhaustive`-tagged enums name every variant.
fn check_exhaustive_variant_match(c: &RuleCtx, out: &mut Vec<RawFinding>) {
    let (ctx, f) = (c.file, c.src);
    if !code_kinds(ctx.kind) {
        return;
    }
    'matches: for m in &c.model.matches {
        if f.in_test_span(m.pos) {
            continue;
        }
        // Resolve each arm alternative to (enum_name, variant) where
        // possible; `Self` goes through the enclosing impl.
        let resolve = |head: &str| -> Option<String> {
            if head == "Self" {
                m.enclosing_impl.clone()
            } else {
                Some(head.to_string())
            }
        };
        // The target: the first arm head that names a *tagged* enum.
        let mut target: Option<String> = None;
        for arm in &m.arms {
            for (head, _) in arm.head_paths() {
                if let Some(name) = resolve(&head) {
                    if c.index.enum_named(&name).is_some_and(|e| e.exhaustive) {
                        target = Some(name);
                        break;
                    }
                }
            }
            if target.is_some() {
                break;
            }
        }
        let Some(enum_name) = target else {
            continue;
        };
        let info = c
            .index
            .enum_named(&enum_name)
            .expect("target came from the index");
        let all_variants: BTreeSet<&str> = info.variants.iter().map(String::as_str).collect();

        let mut named: BTreeSet<String> = BTreeSet::new();
        let mut wildcard_arm: Option<usize> = None;
        for arm in &m.arms {
            if arm.is_wildcard() {
                wildcard_arm = Some(arm.pos);
                continue;
            }
            let paths = arm.head_paths();
            if paths.is_empty() {
                // A structured pattern the model cannot interpret
                // (tuple binding, literal, payload-only): the whole
                // match is opaque — never guess.
                continue 'matches;
            }
            for (head, variant) in paths {
                match resolve(&head) {
                    Some(name) if name == enum_name => {
                        if all_variants.contains(variant.as_str()) {
                            named.insert(variant);
                        } else {
                            // Names the enum but not a variant
                            // (associated const pattern): opaque.
                            continue 'matches;
                        }
                    }
                    _ => continue 'matches, // mixed-enum match: opaque
                }
            }
        }
        if let Some(pos) = wildcard_arm {
            out.push(RawFinding {
                pos,
                message: format!(
                    "wildcard arm in match over exhaustive enum `{enum_name}`: name every \
                     variant so adding one breaks this dispatch loudly"
                ),
            });
            continue;
        }
        let missing: Vec<&str> = info
            .variants
            .iter()
            .map(String::as_str)
            .filter(|v| !named.contains(*v))
            .collect();
        if !missing.is_empty() {
            out.push(RawFinding {
                pos: m.pos,
                message: format!(
                    "match over exhaustive enum `{enum_name}` does not name variant(s) {}",
                    missing.join(", ")
                ),
            });
        }
    }
}

const CTOR_SCOPED_CRATES: &[&str] = &["core", "mem", "store"];
const PANIC_MACROS: &[&str] = &[
    "panic",
    "assert",
    "assert_eq",
    "assert_ne",
    "unreachable",
    "todo",
    "unimplemented",
];

/// Rule 6: panicking `pub fn new` constructors pair with `try_new`.
fn check_fallible_constructor_pairing(c: &RuleCtx, out: &mut Vec<RawFinding>) {
    let (ctx, f) = (c.file, c.src);
    if ctx.kind != FileKind::Lib || !CTOR_SCOPED_CRATES.contains(&ctx.crate_id.as_str()) {
        return;
    }
    for imp in c.model.impls() {
        if imp.test_gated || f.in_test_span(imp.head) {
            continue;
        }
        let new_fn = imp
            .children
            .iter()
            .find(|i| i.kind == ItemKind::Fn && i.name == "new" && i.is_pub);
        let Some(new_fn) = new_fn else {
            continue;
        };
        if new_fn.test_gated || f.in_test_span(new_fn.head) {
            continue;
        }
        let has_try = imp
            .children
            .iter()
            .any(|i| i.kind == ItemKind::Fn && i.name == "try_new");
        let Some((body_start, body_end)) = new_fn.body_sig else {
            continue;
        };
        if has_try {
            let mut calls_try = false;
            let mut calls_expect = false;
            for k in body_start..body_end {
                match f.sig_text(k) {
                    "try_new" => calls_try = true,
                    "expect" => calls_expect = true,
                    _ => {}
                }
            }
            if !calls_try || !calls_expect {
                out.push(RawFinding {
                    pos: new_fn.head,
                    message: format!(
                        "`{}::new` has a try_new sibling but is not a thin \
                         try_new(..).expect(\"documented invariant\") wrapper",
                        imp.name
                    ),
                });
            }
            continue;
        }
        if let Some(tok) = first_panic_token(f, body_start, body_end) {
            out.push(RawFinding {
                pos: new_fn.head,
                message: format!(
                    "`{}::new` can panic ({tok}) and has no try_new sibling; add \
                     try_new -> Result and make new a thin .expect wrapper",
                    imp.name
                ),
            });
        }
    }
}

/// The first panic-capable token in a significant range, or None.
/// `debug_assert*` is exempt (stripped in release, the paper's
/// measurement mode).
fn first_panic_token(f: &SourceFile, start: usize, end: usize) -> Option<String> {
    for k in start..end {
        let t = f.sig_text(k);
        if PANIC_MACROS.contains(&t) && f.sig_text(k + 1) == "!" {
            return Some(format!("{t}!"));
        }
        if (t == "unwrap" || t == "expect") && k > 0 && f.sig_text(k - 1) == "." {
            return Some(format!(".{t}()"));
        }
        // Slice indexing panics too, but `[` is far too noisy to flag;
        // the rule targets explicit validation panics.
    }
    None
}

/// One entry of the plumb manifest: an enum whose variants must flow
/// through a carrier const into declared dispatch files.
pub struct PlumbEntry {
    /// The enum's name as defined in its file.
    pub enum_name: &'static str,
    /// The carrier const (e.g. `ALL`) in the defining file that must
    /// name every variant.
    pub carrier: &'static str,
    /// Workspace-relative files that must reference `Enum::CARRIER`
    /// (iterating the carrier is what auto-plumbs future variants).
    pub dispatch: &'static [&'static str],
    /// Workspace-relative files that must name every variant
    /// explicitly as `Enum::Variant` (hand-maintained tables).
    pub variant_sites: &'static [&'static str],
}

/// Declares the plumb manifest. Purely declarative: each block names
/// an enum, its carrier const, the files that must dispatch through
/// the carrier, and the files that must name every variant.
macro_rules! plumb {
    ($( { $enum_name:literal via $carrier:literal,
          dispatch: [$($d:literal),* $(,)?],
          variant_sites: [$($v:literal),* $(,)?] } ),* $(,)?) => {
        &[ $( PlumbEntry {
            enum_name: $enum_name,
            carrier: $carrier,
            dispatch: &[$($d),*],
            variant_sites: &[$($v),*],
        } ),* ]
    };
}

/// The workspace's plumbed enums. Adding a variant to one of these
/// without updating its carrier and hand-maintained tables fires
/// `plumbed-enum` on the defining file.
pub const PLUMB_MANIFEST: &[PlumbEntry] = plumb![
    {
        "HashAlgo" via "ALL",
        dispatch: [
            "crates/sim/src/experiments.rs",
            "crates/adversary/src/cell.rs",
        ],
        variant_sites: []
    },
    {
        "Scheme" via "ALL",
        dispatch: [
            "crates/adversary/src/campaign.rs",
            "crates/sim/src/cli.rs",
        ],
        variant_sites: []
    },
    {
        "AttackClass" via "ALL",
        dispatch: ["crates/adversary/src/campaign.rs"],
        variant_sites: ["crates/adversary/src/cell.rs"]
    },
];

/// Rule 7: manifest enums stay plumbed into their dispatch tables.
fn check_plumbed_enum(c: &RuleCtx, out: &mut Vec<RawFinding>) {
    let (ctx, f) = (c.file, c.src);
    if ctx.kind != FileKind::Lib {
        return;
    }
    for entry in PLUMB_MANIFEST {
        let def = c
            .model
            .enums()
            .into_iter()
            .find(|e| e.name == entry.enum_name && !e.test_gated && !f.in_test_span(e.head));
        let Some(def) = def else {
            continue;
        };
        // (a) The carrier const in this file must name every variant.
        match carrier_variants(c.model, f, entry) {
            None => out.push(RawFinding {
                pos: def.head,
                message: format!(
                    "plumbed enum `{}` has no carrier const `{}` in its defining file",
                    entry.enum_name, entry.carrier
                ),
            }),
            Some(named) => {
                let missing: Vec<&str> = def
                    .variants
                    .iter()
                    .map(String::as_str)
                    .filter(|v| !named.contains(*v))
                    .collect();
                if !missing.is_empty() {
                    out.push(RawFinding {
                        pos: def.head,
                        message: format!(
                            "carrier const `{}::{}` does not name variant(s) {}",
                            entry.enum_name,
                            entry.carrier,
                            missing.join(", ")
                        ),
                    });
                }
            }
        }
        // (b) Every dispatch file references Enum::CARRIER.
        for d in entry.dispatch {
            let has = c.index.qualified.get(*d).is_some_and(|q| {
                q.contains(&(entry.enum_name.to_string(), entry.carrier.to_string()))
            });
            if !has {
                out.push(RawFinding {
                    pos: def.head,
                    message: format!(
                        "dispatch file `{d}` does not reference `{}::{}` — the {} table \
                         would miss future variants",
                        entry.enum_name, entry.carrier, entry.enum_name
                    ),
                });
            }
        }
        // (c) Variant-site files name every variant explicitly.
        for site in entry.variant_sites {
            let quals = c.index.qualified.get(*site);
            for v in &def.variants {
                let has =
                    quals.is_some_and(|q| q.contains(&(entry.enum_name.to_string(), v.clone())));
                if !has {
                    out.push(RawFinding {
                        pos: def.head,
                        message: format!(
                            "variant `{}::{v}` is not plumbed into `{site}`",
                            entry.enum_name
                        ),
                    });
                }
            }
        }
    }
}

/// The variant names a carrier const mentions (as `Enum::V` or
/// `Self::V` pairs inside the const's own span), or None when the
/// const does not exist in the file.
fn carrier_variants(
    model: &FileModel,
    f: &SourceFile,
    entry: &PlumbEntry,
) -> Option<BTreeSet<String>> {
    fn find_const<'m>(items: &'m [Item], name: &str) -> Option<&'m Item> {
        for item in items {
            if item.kind == ItemKind::Const && item.name == name {
                return Some(item);
            }
            if let Some(found) = find_const(&item.children, name) {
                return Some(found);
            }
        }
        None
    }
    let konst = find_const(&model.items, entry.carrier)?;
    let (start, end) = konst.sig_range;
    let mut named = BTreeSet::new();
    for k in start..end.min(f.sig_len()) {
        let head = f.sig_text(k);
        if (head == entry.enum_name || head == "Self")
            && f.sig_text(k + 1) == ":"
            && f.sig_text(k + 2) == ":"
            && f.sig_kind(k + 3) == Some(TokenKind::Ident)
        {
            named.insert(f.sig_text(k + 3).to_string());
        }
    }
    Some(named)
}

/// Rule 8: `unused-suppression` is enforced by the engine itself
/// (it needs the waiver bookkeeping that lives there), so the
/// catalogue checker is a no-op — the entry exists so the rule is
/// listable, explainable, and a valid directive target for tooling.
fn check_unused_suppression(_c: &RuleCtx, _out: &mut Vec<RawFinding>) {}
