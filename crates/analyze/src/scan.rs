//! Per-file scanning context: file classification, significant-token
//! views, `#[cfg(test)]` / `#[test]` span detection, suppression
//! directives and the `#[expect(lint, reason = "...")]` inventory.
//!
//! Rules never look at raw source — they look at a [`SourceFile`],
//! which exposes only *significant* tokens (whitespace and comments
//! stripped, strings opaque) plus enough structure (test spans,
//! brace matching) to scope themselves correctly.

use crate::lexer::{lex, line_col, Token, TokenKind};

/// What kind of compilation unit a file belongs to. Decided from the
/// workspace-relative path alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Library code: everything under a crate's `src/` except `bin/`.
    /// The full rule catalogue applies.
    Lib,
    /// Binary code: `src/bin/*`, `src/main.rs`, `build.rs`.
    Bin,
    /// Tests, benches and examples (`tests/`, `benches/`,
    /// `examples/`), exempt from every rule.
    TestLike,
}

/// Everything a rule needs to know about where a file sits.
#[derive(Debug, Clone)]
pub struct FileContext {
    /// Workspace-relative path with `/` separators (stable across OSes
    /// so the findings JSON is byte-identical everywhere).
    pub rel_path: String,
    /// Library / binary / test classification.
    pub kind: FileKind,
    /// Short crate id: the directory under `crates/` (`core`, `mem`,
    /// `obs`, …) or `miv` for the facade crate at the workspace root.
    pub crate_id: String,
}

impl FileContext {
    /// Builds a context from a workspace-relative path.
    pub fn from_rel_path(rel_path: &str) -> FileContext {
        let parts: Vec<&str> = rel_path.split('/').collect();
        let kind = if parts
            .iter()
            .any(|p| *p == "tests" || *p == "benches" || *p == "examples")
        {
            FileKind::TestLike
        } else if parts.contains(&"bin")
            || parts.last() == Some(&"main.rs")
            || parts.last() == Some(&"build.rs")
        {
            FileKind::Bin
        } else {
            FileKind::Lib
        };
        let crate_id = if parts.first() == Some(&"crates") && parts.len() > 1 {
            parts[1].to_string()
        } else {
            "miv".to_string()
        };
        FileContext {
            rel_path: rel_path.to_string(),
            kind,
            crate_id,
        }
    }
}

/// A parsed `// miv-analyze: allow(rule, reason="...")` directive.
#[derive(Debug, Clone)]
pub struct Allow {
    /// The rule id being suppressed.
    pub rule: String,
    /// The mandatory human justification.
    pub reason: String,
    /// 1-based line the directive sits on.
    pub line: usize,
}

/// A `#[expect(lint, .., reason = "...")]` attribute: a compiler-lint
/// waiver. rustc audits it (a stale one fails the build as
/// `unfulfilled_lint_expectations`); the analyzer only inventories it.
#[derive(Debug, Clone)]
pub struct Expect {
    /// The lint paths waived (`clippy::panic`, `unsafe_code`, …).
    pub lints: Vec<String>,
    /// The `reason = "..."` text, whitespace-collapsed; empty when
    /// absent (clippy's `allow_attributes_without_reason` rejects that).
    pub reason: String,
    /// 1-based line of the attribute's `#`.
    pub line: usize,
}

/// A directive that did not parse (missing reason, bad syntax). These
/// are themselves findings — an unexplained suppression is exactly the
/// kind of drift the analyzer exists to stop.
#[derive(Debug, Clone)]
pub struct BadDirective {
    /// 1-based line of the broken directive.
    pub line: usize,
    /// What was wrong with it.
    pub message: String,
}

/// A lexed file plus the derived views rules scope themselves with.
pub struct SourceFile<'a> {
    /// The raw source text.
    pub src: &'a str,
    /// The full lossless token stream.
    pub tokens: Vec<Token>,
    /// Indices into `tokens` of significant tokens (not whitespace,
    /// not comments).
    pub sig: Vec<usize>,
    /// Byte ranges covered by `#[cfg(test)]` / `#[test]` items.
    pub test_spans: Vec<(usize, usize)>,
    /// Parsed suppression directives.
    pub allows: Vec<Allow>,
    /// `#[expect(..)]` / `#![expect(..)]` lint waivers, in byte order.
    pub expects: Vec<Expect>,
    /// Malformed directives.
    pub bad_directives: Vec<BadDirective>,
    /// Byte offsets of `// miv-analyze: exhaustive` tags, in order.
    /// The item model attaches each to the next `enum` definition;
    /// `exhaustive-variant-match` then requires every `match` over that
    /// enum to name every variant.
    pub exhaustive_tags: Vec<usize>,
}

impl<'a> SourceFile<'a> {
    /// Lexes and pre-scans one file.
    pub fn new(src: &'a str) -> SourceFile<'a> {
        let tokens = lex(src);
        let sig: Vec<usize> = tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| {
                !matches!(
                    t.kind,
                    TokenKind::Whitespace | TokenKind::LineComment | TokenKind::BlockComment
                )
            })
            .map(|(i, _)| i)
            .collect();
        let mut file = SourceFile {
            src,
            tokens,
            sig,
            test_spans: Vec::new(),
            allows: Vec::new(),
            expects: Vec::new(),
            bad_directives: Vec::new(),
            exhaustive_tags: Vec::new(),
        };
        file.test_spans = file.find_test_spans();
        file.parse_directives();
        file.expects = file.find_expects();
        file
    }

    /// The text of the `k`-th significant token, or `""` past the end.
    pub fn sig_text(&self, k: usize) -> &str {
        match self.sig.get(k) {
            Some(&i) => self.tokens[i].text(self.src),
            None => "",
        }
    }

    /// The kind of the `k`-th significant token.
    pub fn sig_kind(&self, k: usize) -> Option<TokenKind> {
        self.sig.get(k).map(|&i| self.tokens[i].kind)
    }

    /// Byte offset of the `k`-th significant token (or source length).
    pub fn sig_start(&self, k: usize) -> usize {
        match self.sig.get(k) {
            Some(&i) => self.tokens[i].start,
            None => self.src.len(),
        }
    }

    /// Byte offset one past the `k`-th significant token (or source
    /// length past the end) — item spans end here.
    pub fn token_end(&self, k: usize) -> usize {
        match self.sig.get(k) {
            Some(&i) => self.tokens[i].end,
            None => self.src.len(),
        }
    }

    /// Number of significant tokens.
    pub fn sig_len(&self) -> usize {
        self.sig.len()
    }

    /// Whether the significant tokens starting at `k` spell out `pat`
    /// (each element compared against one token's text).
    pub fn match_seq(&self, k: usize, pat: &[&str]) -> bool {
        pat.iter()
            .enumerate()
            .all(|(j, want)| self.sig_text(k + j) == *want)
    }

    /// Whether byte offset `pos` falls inside a test item.
    pub fn in_test_span(&self, pos: usize) -> bool {
        self.test_spans.iter().any(|&(s, e)| pos >= s && pos < e)
    }

    /// 1-based (line, col) of a byte offset.
    pub fn line_col(&self, pos: usize) -> (usize, usize) {
        line_col(self.src, pos)
    }

    /// Finds the significant-token index of the brace matching the `{`
    /// at significant index `open` (which must be a `{`). Returns the
    /// index one past the file if unbalanced.
    pub fn matching_brace(&self, open: usize) -> usize {
        let mut depth = 0usize;
        let mut k = open;
        while k < self.sig.len() {
            match self.sig_text(k) {
                "{" => depth += 1,
                "}" => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        return k;
                    }
                }
                _ => {}
            }
            k += 1;
        }
        self.sig.len()
    }

    /// Scans for `#[cfg(test)]` / `#[test]` attributes and records the
    /// byte span of the item each one gates (through the item's closing
    /// brace, or its `;` for brace-less items).
    fn find_test_spans(&self) -> Vec<(usize, usize)> {
        let mut spans = Vec::new();
        let mut k = 0;
        while k + 1 < self.sig.len() {
            if self.sig_text(k) == "#" && self.sig_text(k + 1) == "[" {
                let attr_start_byte = self.sig_start(k);
                // Find the matching `]`, tracking bracket depth.
                let mut depth = 0usize;
                let mut j = k + 1;
                while j < self.sig.len() {
                    match self.sig_text(j) {
                        "[" => depth += 1,
                        "]" => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
                let attr_idents: Vec<&str> = (k + 2..j)
                    .filter(|&m| self.sig_kind(m) == Some(TokenKind::Ident))
                    .map(|m| self.sig_text(m))
                    .collect();
                let is_test_attr = attr_idents.contains(&"test")
                    && (attr_idents.contains(&"cfg") || attr_idents == ["test"]);
                if is_test_attr {
                    if let Some(end_byte) = self.item_end_after(j + 1) {
                        spans.push((attr_start_byte, end_byte));
                    }
                    // Continue scanning after the gated item so nested
                    // attributes inside it are not double-counted.
                    k = j + 1;
                    continue;
                }
                k = j + 1;
                continue;
            }
            k += 1;
        }
        spans
    }

    /// The end byte of the item starting at significant index `k`
    /// (skipping any further attributes): through the matching `}` of
    /// its first `{`, or through a `;` if one comes first.
    fn item_end_after(&self, mut k: usize) -> Option<usize> {
        // Skip stacked attributes (#[...] #[...] item).
        while self.sig_text(k) == "#" && self.sig_text(k + 1) == "[" {
            let mut depth = 0usize;
            let mut j = k + 1;
            while j < self.sig.len() {
                match self.sig_text(j) {
                    "[" => depth += 1,
                    "]" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            k = j + 1;
        }
        let mut j = k;
        while j < self.sig.len() {
            match self.sig_text(j) {
                "{" => {
                    let close = self.matching_brace(j);
                    return Some(match self.sig.get(close) {
                        Some(&i) => self.tokens[i].end,
                        None => self.src.len(),
                    });
                }
                ";" => {
                    return Some(self.sig_start(j) + 1);
                }
                _ => {}
            }
            j += 1;
        }
        Some(self.src.len())
    }

    /// Collects every `#[expect(..)]` and `#![expect(..)]` attribute:
    /// the comma-separated lint paths and the `reason = "..."` text.
    fn find_expects(&self) -> Vec<Expect> {
        let mut out = Vec::new();
        for k in 0..self.sig.len() {
            let open = if self.match_seq(k, &["#", "[", "expect", "("]) {
                k + 3
            } else if self.match_seq(k, &["#", "!", "[", "expect", "("]) {
                k + 4
            } else {
                continue;
            };
            // Split the arguments at top-level commas; a string literal
            // is one token, so commas inside the reason stay put.
            let mut args = vec![String::new()];
            let mut j = open + 1;
            while j < self.sig.len() && self.sig_text(j) != ")" {
                match self.sig_text(j) {
                    "," => args.push(String::new()),
                    t => args.last_mut().expect("starts non-empty").push_str(t),
                }
                j += 1;
            }
            let mut expect = Expect {
                lints: Vec::new(),
                reason: String::new(),
                line: self.line_col(self.sig_start(k)).0,
            };
            for arg in args {
                match arg.strip_prefix("reason=") {
                    Some(lit) => {
                        let text = lit.trim_matches('"').replace("\\\n", " ");
                        expect.reason = text.split_whitespace().collect::<Vec<_>>().join(" ");
                    }
                    None if !arg.is_empty() => expect.lints.push(arg),
                    None => {}
                }
            }
            out.push(expect);
        }
        out
    }

    /// Parses `miv-analyze: allow(rule, reason="...")` directives out
    /// of every *plain* comment token. Doc comments are skipped: they
    /// describe the directive syntax (as this crate's own docs do)
    /// rather than invoke it.
    fn parse_directives(&mut self) {
        const MARKER: &str = "miv-analyze:";
        for t in &self.tokens {
            if !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment) {
                continue;
            }
            let text = t.text(self.src);
            let is_doc = text.starts_with("///")
                || text.starts_with("//!")
                || text.starts_with("/**")
                || text.starts_with("/*!");
            if is_doc {
                continue;
            }
            let Some(at) = text.find(MARKER) else {
                continue;
            };
            let (line, _) = line_col(self.src, t.start);
            let rest = text[at + MARKER.len()..].trim_start();
            let rest_trimmed = rest.trim_end().trim_end_matches("*/").trim_end();
            if rest_trimmed == "exhaustive" {
                self.exhaustive_tags.push(t.start);
                continue;
            }
            match parse_allow(rest) {
                Ok((rule, reason)) => self.allows.push(Allow { rule, reason, line }),
                Err(message) => self.bad_directives.push(BadDirective { line, message }),
            }
        }
    }
}

/// Parses the body after `miv-analyze:`, expecting
/// `allow(rule-id, reason="non-empty text")`.
fn parse_allow(rest: &str) -> Result<(String, String), String> {
    let body = rest.strip_prefix("allow(").ok_or_else(|| {
        "expected `allow(rule-id, reason=\"...\")` after `miv-analyze:`".to_string()
    })?;
    let comma = body
        .find(',')
        .ok_or_else(|| "missing `, reason=\"...\"` — justification is mandatory".to_string())?;
    let rule = body[..comma].trim();
    if rule.is_empty() {
        return Err("empty rule id".to_string());
    }
    let after = body[comma + 1..].trim_start();
    let reason_body = after
        .strip_prefix("reason=\"")
        .ok_or_else(|| "expected `reason=\"...\"` — justification is mandatory".to_string())?;
    let close = reason_body
        .find('"')
        .ok_or_else(|| "unterminated reason string".to_string())?;
    let reason = reason_body[..close].trim();
    if reason.is_empty() {
        return Err("empty reason — justification is mandatory".to_string());
    }
    if !reason_body[close + 1..].trim_start().starts_with(')') {
        return Err("expected `)` after the reason string".to_string());
    }
    Ok((rule.to_string(), reason.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classifies_paths() {
        let c = FileContext::from_rel_path("crates/core/src/engine.rs");
        assert_eq!(c.kind, FileKind::Lib);
        assert_eq!(c.crate_id, "core");

        let c = FileContext::from_rel_path("crates/sim/src/bin/mivsim.rs");
        assert_eq!(c.kind, FileKind::Bin);

        let c = FileContext::from_rel_path("crates/core/tests/prop_core.rs");
        assert_eq!(c.kind, FileKind::TestLike);

        let c = FileContext::from_rel_path("src/lib.rs");
        assert_eq!(c.crate_id, "miv");

        let c = FileContext::from_rel_path("examples/quickstart.rs");
        assert_eq!(c.kind, FileKind::TestLike);
    }

    #[test]
    fn finds_cfg_test_spans() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn after() {}\n";
        let f = SourceFile::new(src);
        assert_eq!(f.test_spans.len(), 1);
        let live_pos = src.find("live").unwrap();
        let t_pos = src.find("fn t").unwrap();
        let after_pos = src.find("after").unwrap();
        assert!(!f.in_test_span(live_pos));
        assert!(f.in_test_span(t_pos));
        assert!(!f.in_test_span(after_pos));
    }

    #[test]
    fn parses_allow_directive() {
        let src = "// miv-analyze: allow(rc-not-sent, reason=\"snapshot absorb\")\nfn f() {}\n";
        let f = SourceFile::new(src);
        assert_eq!(f.allows.len(), 1);
        assert_eq!(f.allows[0].rule, "rc-not-sent");
        assert_eq!(f.allows[0].reason, "snapshot absorb");
        assert_eq!(f.allows[0].line, 1);
        assert!(f.bad_directives.is_empty());
    }

    #[test]
    fn rejects_reasonless_directive() {
        let src = "// miv-analyze: allow(rc-not-sent)\n";
        let f = SourceFile::new(src);
        assert!(f.allows.is_empty());
        assert_eq!(f.bad_directives.len(), 1);
    }

    #[test]
    fn finds_expect_attributes() {
        let src = "#![expect(unsafe_code, reason = \"alloc shim\")]\n\
                   #[expect(\n    clippy::panic,\n    clippy::todo,\n    reason = \"a \\\n     b\"\n)]\n\
                   fn f() {}\n\
                   // #[expect(clippy::panic, reason = \"in a comment\")]\n\
                   fn g() -> &'static str { \"#[expect(x, reason = \\\"y\\\")]\" }\n";
        let f = SourceFile::new(src);
        assert_eq!(f.expects.len(), 2, "{:?}", f.expects);
        assert_eq!(f.expects[0].lints, ["unsafe_code"]);
        assert_eq!(f.expects[0].reason, "alloc shim");
        assert_eq!(f.expects[0].line, 1);
        assert_eq!(f.expects[1].lints, ["clippy::panic", "clippy::todo"]);
        assert_eq!(f.expects[1].reason, "a b");
        assert_eq!(f.expects[1].line, 2);
    }
}
