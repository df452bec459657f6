//! Regression tests for the rule engine: for every rule in the
//! catalogue, one fixture proving it fires and one proving a justified
//! `allow(rule, reason="...")` suppresses it — plus scope negatives
//! (test code, out-of-scope crates) and directive hygiene.

use miv_analyze::{analyze_sources, check_source, FileContext, FileReport, CATALOGUE};

const LIB: &str = "crates/sim/src/fixture.rs";
const CORE_LIB: &str = "crates/core/src/fixture.rs";

fn check(rel_path: &str, src: &str) -> FileReport {
    check_source(&FileContext::from_rel_path(rel_path), src)
}

fn fired(report: &FileReport) -> Vec<String> {
    report.findings.iter().map(|f| f.rule.clone()).collect()
}

/// Prepends an allow directive for `rule` to `line` and asserts the
/// fixture flips from firing to suppressed-with-reason.
fn assert_fires_and_suppresses(rel_path: &str, rule: &str, src: &str) {
    let report = check(rel_path, src);
    assert!(
        fired(&report).contains(&rule.to_string()),
        "{rule} should fire on {src:?}, got {:?}",
        report.findings
    );

    // Same source with a directive above every line: here we rebuild
    // the fixture with the allow comment attached to each line, which
    // must suppress every finding of this rule.
    let allowed: String = src
        .lines()
        .map(|l| format!("// miv-analyze: allow({rule}, reason=\"fixture\")\n{l}\n"))
        .collect();
    let report = check(rel_path, &allowed);
    assert!(
        !fired(&report).contains(&rule.to_string()),
        "{rule} should be suppressed in {allowed:?}, got {:?}",
        report.findings
    );
    assert!(
        report.suppressed.iter().any(|s| s.rule == rule),
        "{rule} suppression should be recorded"
    );
    assert!(
        report.suppressed.iter().all(|s| !s.reason.is_empty()),
        "suppressions carry their justification"
    );
}

#[test]
fn no_truncating_cast_fires_and_suppresses() {
    assert_fires_and_suppresses(
        CORE_LIB,
        "no-truncating-cast",
        "fn f(x: u64) -> u32 { x as u32 }",
    );
    assert_fires_and_suppresses(
        CORE_LIB,
        "no-truncating-cast",
        "fn f(x: u64) -> u8 { (x % m()) as u8 }",
    );
}

#[test]
fn no_truncating_cast_scope_negatives() {
    // Literals and SCREAMING_CASE constants are in view — exempt.
    let r = check(CORE_LIB, "fn f() -> u32 { 64 as u32 }");
    assert!(fired(&r).is_empty());
    let r = check(CORE_LIB, "fn f() -> u32 { DIGEST_BYTES as u32 }");
    assert!(fired(&r).is_empty());
    // Widening is not narrowing.
    let r = check(CORE_LIB, "fn f(x: u32) -> u64 { x as u64 }");
    assert!(fired(&r).is_empty());
    // Out-of-scope crates (no address arithmetic) are exempt.
    let r = check(
        "crates/hash/src/fixture.rs",
        "fn f(x: u64) -> u32 { x as u32 }",
    );
    assert!(fired(&r).is_empty());
}

#[test]
fn reset_preserves_schedules_fires_and_suppresses() {
    assert_fires_and_suppresses(
        LIB,
        "reset-preserves-schedules",
        "impl C { fn reset_stats(&mut self) { self.bus_schedule.clear(); } }",
    );
    assert_fires_and_suppresses(
        LIB,
        "reset-preserves-schedules",
        "impl C { fn reset(&mut self) { self.sched.inner.clear(); } }",
    );
}

#[test]
fn reset_preserves_schedules_scope_negatives() {
    // Clearing non-schedule state in a reset is fine.
    let r = check(
        LIB,
        "impl C { fn reset_stats(&mut self) { self.counters.clear(); } }",
    );
    assert!(fired(&r).is_empty());
    // Clearing a schedule outside a reset method is fine (quiesce etc).
    let r = check(
        LIB,
        "impl C { fn rebuild(&mut self) { self.bus_schedule.clear(); } }",
    );
    assert!(fired(&r).is_empty());
    // Reading a schedule in a reset is fine.
    let r = check(
        LIB,
        "impl C { fn reset_stats(&mut self) { let n = self.bus_schedule.len(); } }",
    );
    assert!(fired(&r).is_empty());
}

#[test]
fn rc_not_sent_fires_and_suppresses() {
    assert_fires_and_suppresses(LIB, "rc-not-sent", "use std::rc::Rc;");
    assert_fires_and_suppresses(
        LIB,
        "rc-not-sent",
        "fn f() { let x = std::rc::Rc::new(1); }",
    );
}

#[test]
fn rc_not_sent_scope_negatives() {
    let r = check(LIB, "use std::sync::Arc;\n");
    assert!(fired(&r).is_empty());
    let r = check("crates/sim/tests/fixture.rs", "use std::rc::Rc;\n");
    assert!(fired(&r).is_empty());
}

const SERVE_LIB: &str = "crates/sim/src/serve.rs";

#[test]
fn rc_not_sent_serving_layer_fires_and_suppresses() {
    // In serve*.rs the bare `Rc`/`RefCell` idents fire even without an
    // `rc::` path in sight — the aliased-handle case the base rule
    // cannot see.
    assert_fires_and_suppresses(SERVE_LIB, "rc-not-sent", "fn f(shard: Rc<Shard>) {}");
    assert_fires_and_suppresses(
        SERVE_LIB,
        "rc-not-sent",
        "struct Task { state: RefCell<State> }",
    );
    assert_fires_and_suppresses(
        "crates/sim/src/serve_pool.rs",
        "rc-not-sent",
        "fn spawn() { let h = Rc::new(Pool::new()); }",
    );
}

#[test]
fn rc_not_sent_serving_layer_scope_negatives() {
    // The stricter check is path-scoped: a bare `Rc` ident elsewhere
    // (e.g. in a doc string or an unrelated type name) stays legal.
    let r = check(LIB, "fn f(shard: Rc<Shard>) {}\n");
    assert!(fired(&r).is_empty());
    // Plain Send data in the serving layer is fine.
    let r = check(
        SERVE_LIB,
        "fn f(spec: ShardSpec) -> ShardOutcome { run(spec) }\n",
    );
    assert!(fired(&r).is_empty());
    // Serving-layer test spans keep the usual exemption.
    let r = check(
        SERVE_LIB,
        "#[cfg(test)]\nmod tests {\n    fn t() { let x = Rc::new(1); }\n}\n",
    );
    assert!(fired(&r).is_empty());
}

#[test]
fn span_balance_fires_and_suppresses() {
    assert_fires_and_suppresses(
        LIB,
        "span-balance",
        "fn f(t: &SpanTracer) { t.span_enter(\"x\"); work(); t.span_exit(); }",
    );
    assert_fires_and_suppresses(
        LIB,
        "span-balance",
        "fn f(t: &SpanTracer) { t.span_exit(); }",
    );
}

#[test]
fn span_balance_scope_negatives() {
    // The RAII guard is the sanctioned form.
    let r = check(LIB, "fn f(t: &SpanTracer) { let _g = t.span(\"x\"); }");
    assert!(fired(&r).is_empty());
    // miv-obs defines the manual form; it may reference it freely.
    let r = check(
        "crates/obs/src/spans.rs",
        "pub fn span_enter(&self, name: &str) {}\n",
    );
    assert!(fired(&r).is_empty());
    // Test code may bracket manually.
    let r = check(
        "crates/sim/tests/fixture.rs",
        "fn t(s: &SpanTracer) { s.span_enter(\"x\"); }",
    );
    assert!(fired(&r).is_empty());
    let r = check(
        LIB,
        "#[cfg(test)]\nmod tests { fn t(s: &SpanTracer) { s.span_enter(\"x\"); } }",
    );
    assert!(fired(&r).is_empty());
    // Mentions in docs and strings are not code.
    let r = check(LIB, "/// span_enter is forbidden here\nfn doc() {}\n");
    assert!(fired(&r).is_empty());
}

#[test]
fn directive_hygiene() {
    // Reason-less allow: itself a finding.
    let r = check(LIB, "// miv-analyze: allow(rc-not-sent)\n");
    assert_eq!(fired(&r), ["directive"]);
    // Empty reason: rejected.
    let r = check(LIB, "// miv-analyze: allow(rc-not-sent, reason=\"\")\n");
    assert_eq!(fired(&r), ["directive"]);
    // Unknown rule id: rejected.
    let r = check(LIB, "// miv-analyze: allow(no-such-rule, reason=\"x\")\n");
    assert_eq!(fired(&r), ["directive"]);
    // A malformed directive does not suppress the finding it precedes.
    let r = check(
        LIB,
        "// miv-analyze: allow(rc-not-sent)\nuse std::rc::Rc;\n",
    );
    let rules = fired(&r);
    assert!(rules.contains(&"directive".to_string()));
    assert!(rules.contains(&"rc-not-sent".to_string()));
}

const TAGGED_ENUM: &str = "\
// miv-analyze: exhaustive
enum Algo { A, B, C }
";

#[test]
fn exhaustive_variant_match_fires_and_suppresses() {
    // Wildcard arm over a tagged enum.
    assert_fires_and_suppresses(
        LIB,
        "exhaustive-variant-match",
        &format!("{TAGGED_ENUM}fn f(a: Algo) -> u8 {{ match a {{ Algo::A => 1, _ => 0 }} }}"),
    );
    // Binding ident is a wildcard too.
    assert_fires_and_suppresses(
        LIB,
        "exhaustive-variant-match",
        &format!("{TAGGED_ENUM}fn f(a: Algo) -> u8 {{ match a {{ Algo::A => 1, other => 0 }} }}"),
    );
    // Missing variant without a wildcard (non-compiling in rustc, but
    // the analyzer must still name what's absent).
    let r = check(
        LIB,
        &format!("{TAGGED_ENUM}fn f(a: Algo) -> u8 {{ match a {{ Algo::A => 1, Algo::B => 2 }} }}"),
    );
    assert!(fired(&r).contains(&"exhaustive-variant-match".to_string()));
    assert!(
        r.findings
            .iter()
            .any(|f| f.message.contains("Algo::C") || f.message.contains('C')),
        "finding names the missing variant: {:?}",
        r.findings
    );
}

#[test]
fn exhaustive_variant_match_scope_negatives() {
    // Untagged enums keep their wildcards.
    let r = check(
        LIB,
        "enum Algo { A, B }\nfn f(a: Algo) -> u8 { match a { Algo::A => 1, _ => 0 } }",
    );
    assert!(fired(&r).is_empty());
    // All variants named: clean, including or-patterns.
    let r = check(
        LIB,
        &format!(
            "{TAGGED_ENUM}fn f(a: Algo) -> u8 {{ match a {{ Algo::A | Algo::B => 1, Algo::C => 2 }} }}"
        ),
    );
    assert!(fired(&r).is_empty());
    // Payload patterns are opaque: `Some(Algo::A)` has no head path, so
    // the rule must not claim the match is about `Algo`.
    let r = check(
        LIB,
        &format!(
            "{TAGGED_ENUM}fn f(a: Option<Algo>) -> u8 {{ match a {{ Some(Algo::A) => 1, _ => 0 }} }}"
        ),
    );
    assert!(fired(&r).is_empty());
    // Test spans keep their wildcards.
    let r = check(
        LIB,
        &format!(
            "{TAGGED_ENUM}#[cfg(test)]\nmod tests {{\n  fn t(a: Algo) -> u8 {{ match a {{ Algo::A => 1, _ => 0 }} }}\n}}"
        ),
    );
    assert!(fired(&r).is_empty());
    // `Self::Variant` resolves through the enclosing impl.
    let r = check(
        LIB,
        &format!(
            "{TAGGED_ENUM}impl Algo {{ fn f(self) -> u8 {{ match self {{ Self::A => 1, _ => 0 }} }} }}"
        ),
    );
    assert!(fired(&r).contains(&"exhaustive-variant-match".to_string()));
}

const STORE_LIB: &str = "crates/store/src/fixture.rs";

#[test]
fn fallible_constructor_pairing_fires_and_suppresses() {
    // Panicking new without a try_new sibling.
    assert_fires_and_suppresses(
        STORE_LIB,
        "fallible-constructor-pairing",
        "impl Unit { pub fn new(n: usize) -> Self { assert!(n > 0); Unit { n } } }",
    );
    // try_new exists but new is not a thin wrapper over it.
    assert_fires_and_suppresses(
        STORE_LIB,
        "fallible-constructor-pairing",
        "impl Unit {\n  pub fn new(n: usize) -> Self { assert!(n > 0); Unit { n } }\n  pub fn try_new(n: usize) -> Result<Self, E> { Ok(Unit { n }) }\n}",
    );
}

#[test]
fn fallible_constructor_pairing_scope_negatives() {
    // The sanctioned thin-wrapper shape.
    let r = check(
        STORE_LIB,
        "impl Unit {\n  pub fn new(n: usize) -> Self { Self::try_new(n).expect(\"documented invariant\") }\n  pub fn try_new(n: usize) -> Result<Self, E> { Ok(Unit { n }) }\n}",
    );
    assert!(fired(&r).is_empty());
    // Infallible constructors need no sibling.
    let r = check(
        STORE_LIB,
        "impl Unit { pub fn new(n: usize) -> Self { Unit { n } } }",
    );
    assert!(fired(&r).is_empty());
    // debug_assert is stripped in release: exempt.
    let r = check(
        STORE_LIB,
        "impl Unit { pub fn new(n: usize) -> Self { debug_assert!(n > 0); Unit { n } } }",
    );
    assert!(fired(&r).is_empty());
    // Private constructors and out-of-scope crates are exempt.
    let r = check(
        STORE_LIB,
        "impl Unit { fn new(n: usize) -> Self { assert!(n > 0); Unit { n } } }",
    );
    assert!(fired(&r).is_empty());
    let r = check(
        LIB,
        "impl Unit { pub fn new(n: usize) -> Self { assert!(n > 0); Unit { n } } }",
    );
    assert!(fired(&r).is_empty());
    // Test-gated impls are exempt.
    let r = check(
        STORE_LIB,
        "#[cfg(test)]\nmod tests {\n  impl Unit { pub fn new(n: usize) -> Self { assert!(n > 0); Unit { n } } }\n}",
    );
    assert!(fired(&r).is_empty());
}

/// A minimal plumbed workspace: the manifest's `HashAlgo` entry wants a
/// carrier `ALL` in the defining file and `HashAlgo::ALL` references in
/// both dispatch files.
fn plumb_sources(carrier: &str, experiments: &str, cell: &str) -> Vec<(String, String)> {
    vec![
        (
            "crates/hash/src/digest.rs".to_string(),
            format!("enum HashAlgo {{ Md5, Sha1 }}\nimpl HashAlgo {{ {carrier} }}\n"),
        ),
        (
            "crates/sim/src/experiments.rs".to_string(),
            experiments.to_string(),
        ),
        ("crates/adversary/src/cell.rs".to_string(), cell.to_string()),
    ]
}

#[test]
fn plumbed_enum_cross_file_checks() {
    let full_carrier = "pub const ALL: [HashAlgo; 2] = [HashAlgo::Md5, HashAlgo::Sha1];";
    let dispatch = "fn sweep() { for a in HashAlgo::ALL { run(a); } }";
    // Fully plumbed: clean.
    let r = analyze_sources(&plumb_sources(full_carrier, dispatch, dispatch));
    assert!(r.findings.is_empty(), "clean plumb fired: {:?}", r.findings);
    // Carrier misses a variant: fires on the defining file.
    let r = analyze_sources(&plumb_sources(
        "pub const ALL: [HashAlgo; 1] = [HashAlgo::Md5];",
        dispatch,
        dispatch,
    ));
    assert!(r
        .findings
        .iter()
        .any(|f| f.rule == "plumbed-enum" && f.message.contains("Sha1")));
    // No carrier at all.
    let r = analyze_sources(&plumb_sources("", dispatch, dispatch));
    assert!(r
        .findings
        .iter()
        .any(|f| f.rule == "plumbed-enum" && f.message.contains("no carrier const")));
    // A dispatch file that stops referencing the carrier.
    let r = analyze_sources(&plumb_sources(full_carrier, "fn sweep() {}", dispatch));
    assert!(r
        .findings
        .iter()
        .any(|f| f.rule == "plumbed-enum" && f.message.contains("experiments.rs")));
}

#[test]
fn unused_suppression_fires_and_is_unsuppressible() {
    // An allow shielding nothing is itself a finding...
    let r = check(
        LIB,
        "// miv-analyze: allow(rc-not-sent, reason=\"stale\")\nfn f() {}\n",
    );
    assert_eq!(fired(&r), ["unused-suppression"]);
    assert!(r.suppressed.is_empty());
    // ...and allowing unused-suppression does not silence the audit.
    let r = check(
        LIB,
        "// miv-analyze: allow(unused-suppression, reason=\"nope\")\n\
         // miv-analyze: allow(rc-not-sent, reason=\"stale\")\nfn f() {}\n",
    );
    assert!(fired(&r).contains(&"unused-suppression".to_string()));
    // A live allow is not unused.
    let r = check(
        LIB,
        "// miv-analyze: allow(rc-not-sent, reason=\"fixture\")\nuse std::rc::Rc;\n",
    );
    assert!(!fired(&r).contains(&"unused-suppression".to_string()));
}

#[test]
fn unbalanced_braces_are_a_directive_finding() {
    // Regression for the in_test_span fragility: a file whose braces do
    // not balance must say so loudly instead of silently mis-scoping
    // every span-sensitive rule.
    let r = check(LIB, "fn f() { if x { g(); }\n");
    assert!(
        r.findings
            .iter()
            .any(|f| f.rule == "directive" && f.message.contains("brace")),
        "expected a brace-balance finding, got {:?}",
        r.findings
    );
    // And it is unsuppressible.
    let r = check(
        LIB,
        "// miv-analyze: allow(directive, reason=\"nope\")\nfn f() { if x { g(); }\n",
    );
    assert!(r.findings.iter().any(|f| f.rule == "directive"));
}

#[test]
fn unattached_exhaustive_tag_is_a_directive_finding() {
    // A tag with no enum after it is dead weight: flag it.
    let r = check(LIB, "// miv-analyze: exhaustive\nfn not_an_enum() {}\n");
    assert!(
        r.findings
            .iter()
            .any(|f| f.rule == "directive" && f.message.contains("exhaustive")),
        "expected an unattached-tag finding, got {:?}",
        r.findings
    );
    // A tag followed (eventually) by its enum attaches fine.
    let r = check(LIB, TAGGED_ENUM);
    assert!(fired(&r).is_empty());
}

#[test]
fn catalogue_has_eight_documented_kebab_rules() {
    assert_eq!(CATALOGUE.len(), 8, "catalogue changed size");
    let mut ids: Vec<&str> = CATALOGUE.iter().map(|r| r.id).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), CATALOGUE.len(), "duplicate rule ids");
    for r in CATALOGUE {
        assert!(r.id.chars().all(|c| c.is_ascii_lowercase() || c == '-'));
        assert!(!r.doc.is_empty() && !r.fixture.is_empty() && !r.invariant.is_empty());
    }
}

#[test]
fn manifest_names_resolve() {
    for e in miv_analyze::PLUMB_MANIFEST {
        assert!(!e.enum_name.is_empty() && !e.carrier.is_empty() && !e.dispatch.is_empty());
    }
}
