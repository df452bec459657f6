//! The item-model layer: a brace-balanced structural pass over the
//! lossless token stream.
//!
//! The token-stream rules of PR 5 see a flat sequence of significant
//! tokens; they cannot answer questions like "does this `match` name
//! every variant of `HashAlgo`?" or "does `TrustedCache` have a
//! `try_new` sibling for its panicking `new`?". This module builds just
//! enough structure to answer them without becoming a parser (see
//! DESIGN.md decision 12: the workspace is offline, so `syn` is not an
//! option, and a full grammar is not needed):
//!
//! * a per-file **item tree** ([`FileModel::items`]): modules, `fn`s,
//!   `impl` blocks, `struct`s and `enum`s (with their variant lists),
//!   each with its byte span, significant-token range and body range —
//!   spans partition the file's top level (property-tested over every
//!   workspace source),
//! * every **`match` expression** with its arm heads
//!   ([`FileModel::matches`]), the raw material of the
//!   `exhaustive-variant-match` rule,
//! * explicit **brace-error reporting** ([`FileModel::brace_errors`]):
//!   an unbalanced brace no longer silently extends a `#[cfg(test)]`
//!   skip region to end of file (the PR 5 fragility) — it becomes an
//!   unsuppressible `directive`-class finding,
//! * a workspace-level [`WorkspaceIndex`]: enum name → variants,
//!   file → qualified `A::B` path pairs and item counts — the
//!   substrate of every cross-file rule.
//!
//! The model is byte-deterministic: it is a pure function of the source
//! text, holds no maps with randomized iteration order, and is built in
//! file order.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::TokenKind;
use crate::scan::SourceFile;

/// What kind of item a model node is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ItemKind {
    /// `mod name { ... }` or `mod name;`.
    Mod,
    /// `fn name(...) { ... }` (or a body-less trait method).
    Fn,
    /// `struct` / `union` definition.
    Struct,
    /// `enum` definition; [`Item::variants`] holds the variant names.
    Enum,
    /// `trait` definition.
    Trait,
    /// `impl` block; [`Item::name`] is the (last path segment of the)
    /// implemented type.
    Impl,
    /// `type` alias.
    TypeAlias,
    /// `const` or `static` item.
    Const,
    /// `use` declaration or `extern crate`.
    Use,
    /// `macro_rules!` definition or a top-level macro invocation.
    Macro,
    /// An inner attribute (`#![...]`) or anything else the model
    /// absorbs conservatively (stray semicolons, unknown forms).
    Other,
}

/// One node of the item tree.
#[derive(Debug, Clone)]
pub struct Item {
    /// What the item is.
    pub kind: ItemKind,
    /// The item's name (`""` for impls without a resolvable target,
    /// inner attributes and other anonymous forms).
    pub name: String,
    /// Byte offset of the item's first token (its first attribute, or
    /// its first keyword when unattributed).
    pub start: usize,
    /// Byte offset one past the item's last token (`}` or `;`).
    pub end: usize,
    /// Byte offset of the defining keyword (`fn`, `enum`, …) — a more
    /// precise finding anchor than `start`.
    pub head: usize,
    /// Whether the item is `pub` (plain `pub` only; `pub(crate)` and
    /// friends count as private, matching the doc-comment rule).
    pub is_pub: bool,
    /// Whether the item is gated by `#[cfg(test)]` / `#[test]` (its own
    /// attributes only; enclosing-module gating is resolved through
    /// [`SourceFile::in_test_span`]).
    pub test_gated: bool,
    /// For enums: the variant names, in declaration order.
    pub variants: Vec<String>,
    /// For enums: whether a `// miv-analyze: exhaustive` tag attaches
    /// to this enum.
    pub exhaustive_tag: bool,
    /// Nested items (modules and impl blocks recurse; function bodies
    /// do not contribute to the item tree).
    pub children: Vec<Item>,
    /// Significant-token index range `[start, end)` of the whole item.
    pub sig_range: (usize, usize),
    /// Significant-token index range of the body *between* the braces
    /// (`{` and `}` excluded), when the item has a braced body.
    pub body_sig: Option<(usize, usize)>,
}

/// One parsed arm head of a `match` expression.
#[derive(Debug, Clone)]
pub struct Arm {
    /// Byte offset of the arm's first pattern token.
    pub pos: usize,
    /// The pattern's significant tokens (guard excluded).
    pub pattern: Vec<String>,
    /// Whether an `if` guard follows the pattern.
    pub has_guard: bool,
}

impl Arm {
    /// Whether the arm is a wildcard: `_`, or a single lowercase
    /// binding ident (`other => ...`), either of which swallows every
    /// remaining variant.
    pub fn is_wildcard(&self) -> bool {
        match self.pattern.as_slice() {
            [one] => {
                one == "_"
                    || one
                        .chars()
                        .next()
                        .is_some_and(|c| c.is_ascii_lowercase() || c == '_')
            }
            _ => false,
        }
    }

    /// The qualified path `A::B` at the *head* of each top-level `|`
    /// alternative of the pattern (after skipping reference/tuple
    /// sigils `&`, `(`, `mut`). Payload patterns like
    /// `Some(HashAlgo::Md5)` yield nothing — the head is `Some`, not a
    /// qualified path — so the exhaustiveness rule never mis-attributes
    /// a wrapper match to the payload enum.
    pub fn head_paths(&self) -> Vec<(String, String)> {
        let mut out = Vec::new();
        for alt in self.pattern.split(|t| t == "|") {
            let mut k = 0;
            while k < alt.len() && matches!(alt[k].as_str(), "&" | "(" | "mut" | "ref" | "box") {
                k += 1;
            }
            if k + 3 < alt.len() + 1
                && alt.get(k + 1).map(String::as_str) == Some(":")
                && alt.get(k + 2).map(String::as_str) == Some(":")
            {
                if let Some(seg) = alt.get(k + 3) {
                    out.push((alt[k].clone(), seg.clone()));
                }
            }
        }
        out
    }
}

/// One `match` expression.
#[derive(Debug, Clone)]
pub struct MatchExpr {
    /// Byte offset of the `match` keyword.
    pub pos: usize,
    /// The parsed arm heads.
    pub arms: Vec<Arm>,
    /// The implemented type of the lexically enclosing `impl` block,
    /// used to resolve `Self::Variant` arm patterns.
    pub enclosing_impl: Option<String>,
}

/// Aggregated item counts, reported in the v2 JSON so reviewers can
/// see coverage drift (a model that suddenly sees half as many items
/// is itself a regression signal).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ItemCounts {
    /// Files contributing to the counts.
    pub files: usize,
    /// All model nodes, nested included.
    pub items: usize,
    /// `mod` items.
    pub mods: usize,
    /// `fn` items.
    pub fns: usize,
    /// `impl` blocks.
    pub impls: usize,
    /// `enum` definitions.
    pub enums: usize,
    /// Enum variants across all enums.
    pub enum_variants: usize,
    /// `match` expressions.
    pub matches: usize,
}

impl ItemCounts {
    /// Accumulates `other` into `self`.
    pub fn absorb(&mut self, other: &ItemCounts) {
        self.files += other.files;
        self.items += other.items;
        self.mods += other.mods;
        self.fns += other.fns;
        self.impls += other.impls;
        self.enums += other.enums;
        self.enum_variants += other.enum_variants;
        self.matches += other.matches;
    }
}

/// The structural model of one file.
#[derive(Debug, Clone, Default)]
pub struct FileModel {
    /// Top-level items, in byte order. Spans are non-overlapping and
    /// cover every significant token of the file.
    pub items: Vec<Item>,
    /// Every `match` expression in the file, in byte order.
    pub matches: Vec<MatchExpr>,
    /// Byte offsets where brace matching failed: a `}` with no open
    /// brace, or a `{` still open at end of file. Non-empty means item
    /// spans and test-span detection are unreliable — the engine turns
    /// each entry into an unsuppressible `directive`-class finding.
    pub brace_errors: Vec<usize>,
    /// Byte offsets of `// miv-analyze: exhaustive` tags that no enum
    /// follows (also a `directive`-class finding).
    pub unattached_tags: Vec<usize>,
    /// Per-file item counts.
    pub counts: ItemCounts,
}

impl FileModel {
    /// Builds the model for one lexed file.
    pub fn build(f: &SourceFile) -> FileModel {
        let mut model = FileModel::default();
        check_brace_balance(f, &mut model.brace_errors);
        let mut p = Parser { f };
        let mut k = 0;
        model.items = p.parse_items(&mut k, f.sig_len());
        attach_exhaustive_tags(f, &mut model);
        model.matches = find_matches(f, &model.items);
        model.counts = count_items(&model);
        model
    }

    /// Every enum item in the model, nested modules included.
    pub fn enums(&self) -> Vec<&Item> {
        let mut out = Vec::new();
        collect_kind(&self.items, ItemKind::Enum, &mut out);
        out
    }

    /// Every impl block in the model, nested modules included.
    pub fn impls(&self) -> Vec<&Item> {
        let mut out = Vec::new();
        collect_kind(&self.items, ItemKind::Impl, &mut out);
        out
    }
}

fn collect_kind<'m>(items: &'m [Item], kind: ItemKind, out: &mut Vec<&'m Item>) {
    for item in items {
        if item.kind == kind {
            out.push(item);
        }
        collect_kind(&item.children, kind, out);
    }
}

fn count_items(model: &FileModel) -> ItemCounts {
    fn walk(items: &[Item], c: &mut ItemCounts) {
        for item in items {
            c.items += 1;
            match item.kind {
                ItemKind::Mod => c.mods += 1,
                ItemKind::Fn => c.fns += 1,
                ItemKind::Impl => c.impls += 1,
                ItemKind::Enum => {
                    c.enums += 1;
                    c.enum_variants += item.variants.len();
                }
                _ => {}
            }
            walk(&item.children, c);
        }
    }
    let mut c = ItemCounts {
        files: 1,
        matches: model.matches.len(),
        ..ItemCounts::default()
    };
    walk(&model.items, &mut c);
    c
}

/// Whole-file brace balance over significant tokens. The lexer already
/// keeps braces in strings, chars and comments out of the significant
/// stream, so any imbalance here is a real structural problem.
fn check_brace_balance(f: &SourceFile, errors: &mut Vec<usize>) {
    let mut stack = Vec::new();
    for k in 0..f.sig_len() {
        match f.sig_text(k) {
            "{" => stack.push(f.sig_start(k)),
            // The guard pops the matching opener; only an unmatched `}`
            // reaches the arm body.
            "}" if stack.pop().is_none() => errors.push(f.sig_start(k)),
            _ => {}
        }
    }
    errors.extend(stack);
    errors.sort_unstable();
}

/// Attaches each `// miv-analyze: exhaustive` tag to the next enum
/// (by byte order) in the item tree.
fn attach_exhaustive_tags(f: &SourceFile, model: &mut FileModel) {
    fn first_enum_after(items: &mut [Item], pos: usize) -> Option<&mut Item> {
        let mut best: Option<&mut Item> = None;
        for item in items.iter_mut() {
            if item.kind == ItemKind::Enum && item.start >= pos {
                match &best {
                    Some(b) if b.start <= item.start => {}
                    _ => best = Some(item),
                }
                continue;
            }
            if let Some(found) = first_enum_after(&mut item.children, pos) {
                match &best {
                    Some(b) if b.start <= found.start => {}
                    _ => best = Some(found),
                }
            }
        }
        best
    }
    for &pos in &f.exhaustive_tags {
        match first_enum_after(&mut model.items, pos) {
            Some(e) => e.exhaustive_tag = true,
            None => model.unattached_tags.push(pos),
        }
    }
}

struct Parser<'a, 'b> {
    f: &'a SourceFile<'b>,
}

/// The shared prefix of one parsed item — anchors and flags read while
/// consuming attributes, visibility and modifiers, before the defining
/// keyword dispatches to a `finish_*` method.
struct ItemHead {
    sig_start: usize,
    start: usize,
    head: usize,
    is_pub: bool,
    test_gated: bool,
}

const ITEM_KEYWORDS: &[&str] = &[
    "mod",
    "fn",
    "struct",
    "enum",
    "union",
    "trait",
    "impl",
    "type",
    "const",
    "static",
    "use",
    "extern",
    "macro_rules",
];

impl<'a, 'b> Parser<'a, 'b> {
    /// Parses items from significant index `*k` until `end` (exclusive)
    /// or an unmatched `}` (which the caller owns). Advances `*k`.
    fn parse_items(&mut self, k: &mut usize, end: usize) -> Vec<Item> {
        let f = self.f;
        let mut items = Vec::new();
        while *k < end {
            if f.sig_text(*k) == "}" {
                // The caller's closing brace (or, at top level, an
                // extra `}` already recorded by the balance check).
                break;
            }
            let item = self.parse_one_item(k, end);
            items.push(item);
        }
        items
    }

    /// Parses one item starting at `*k`, absorbing conservatively when
    /// the form is unknown. Always advances `*k`.
    fn parse_one_item(&mut self, k: &mut usize, end: usize) -> Item {
        let f = self.f;
        let sig_start = *k;
        let start = f.sig_start(*k);
        let mut test_gated = false;

        // Inner attribute `#![...]`: its own pseudo-item, so the item
        // spans still partition the file.
        if f.sig_text(*k) == "#" && f.sig_text(*k + 1) == "!" && f.sig_text(*k + 2) == "[" {
            let close = self.skip_bracketed(*k + 2, end);
            let item_end = f.token_end(close);
            *k = (close + 1).min(end);
            return Item {
                kind: ItemKind::Other,
                name: String::new(),
                start,
                end: item_end,
                head: start,
                is_pub: false,
                test_gated: false,
                variants: Vec::new(),
                exhaustive_tag: false,
                children: Vec::new(),
                sig_range: (sig_start, *k),
                body_sig: None,
            };
        }

        // Outer attributes.
        while f.sig_text(*k) == "#" && f.sig_text(*k + 1) == "[" {
            let close = self.skip_bracketed(*k + 1, end);
            let idents: Vec<&str> = (*k + 2..close)
                .filter(|&m| f.sig_kind(m) == Some(TokenKind::Ident))
                .map(|m| f.sig_text(m))
                .collect();
            if idents.contains(&"test") && (idents.contains(&"cfg") || idents == ["test"]) {
                test_gated = true;
            }
            *k = (close + 1).min(end);
        }

        // Visibility.
        let mut is_pub = false;
        if f.sig_text(*k) == "pub" {
            is_pub = true;
            *k += 1;
            if f.sig_text(*k) == "(" {
                is_pub = false; // pub(crate)/pub(super): private API
                *k = (self.skip_parenthesized(*k, end) + 1).min(end);
            }
        }

        // Modifiers before the defining keyword.
        while matches!(f.sig_text(*k), "default" | "unsafe" | "async")
            || (f.sig_text(*k) == "const" && matches!(f.sig_text(*k + 1), "fn" | "unsafe"))
            || (f.sig_text(*k) == "extern" && f.sig_kind(*k + 1) == Some(TokenKind::Str))
        {
            if f.sig_text(*k) == "extern" {
                *k += 2; // extern "C" fn ...
            } else {
                *k += 1;
            }
        }

        let kw = f.sig_text(*k).to_string();
        let head = f.sig_start(*k);
        if !ITEM_KEYWORDS.contains(&kw.as_str()) {
            // Unknown form (stray semicolon, macro invocation, code in
            // a malformed region): absorb to the next `;` or balanced
            // `}` at depth 0, or a single token as a last resort.
            return self.absorb_other(k, end, sig_start, start, kw);
        }
        *k += 1;

        let h = ItemHead {
            sig_start,
            start,
            head,
            is_pub,
            test_gated,
        };
        match kw.as_str() {
            "mod" => self.finish_mod(k, end, h),
            "fn" => self.finish_fn(k, end, h),
            "enum" => self.finish_enum(k, end, h),
            "impl" => self.finish_impl(k, end, sig_start, start, head, test_gated),
            "struct" | "union" | "trait" => {
                let name = self.ident_at(*k);
                let kind = if kw == "trait" {
                    ItemKind::Trait
                } else {
                    ItemKind::Struct
                };
                let (end_byte, body_sig) = self.skip_to_item_end(k, end);
                Item {
                    kind,
                    name,
                    start,
                    end: end_byte,
                    head,
                    is_pub,
                    test_gated,
                    variants: Vec::new(),
                    exhaustive_tag: false,
                    children: Vec::new(),
                    sig_range: (sig_start, *k),
                    body_sig,
                }
            }
            "macro_rules" => {
                // macro_rules ! name { ... }
                let name = if f.sig_text(*k) == "!" {
                    self.ident_at(*k + 1)
                } else {
                    String::new()
                };
                let (end_byte, body_sig) = self.skip_to_item_end(k, end);
                Item {
                    kind: ItemKind::Macro,
                    name,
                    start,
                    end: end_byte,
                    head,
                    is_pub,
                    test_gated,
                    variants: Vec::new(),
                    exhaustive_tag: false,
                    children: Vec::new(),
                    sig_range: (sig_start, *k),
                    body_sig,
                }
            }
            _ => {
                // type / const / static / use / extern crate.
                let kind = match kw.as_str() {
                    "type" => ItemKind::TypeAlias,
                    "const" | "static" => ItemKind::Const,
                    _ => ItemKind::Use,
                };
                let name = self.ident_at(*k);
                let (end_byte, body_sig) = self.skip_to_item_end(k, end);
                Item {
                    kind,
                    name,
                    start,
                    end: end_byte,
                    head,
                    is_pub,
                    test_gated,
                    variants: Vec::new(),
                    exhaustive_tag: false,
                    children: Vec::new(),
                    sig_range: (sig_start, *k),
                    body_sig,
                }
            }
        }
    }

    fn finish_mod(&mut self, k: &mut usize, end: usize, h: ItemHead) -> Item {
        let f = self.f;
        let name = self.ident_at(*k);
        // Scan to `{` (inline module) or `;` (out-of-line module).
        let mut children = Vec::new();
        let mut end_byte = f.src.len();
        let mut body_sig = None;
        while *k < end {
            match f.sig_text(*k) {
                ";" => {
                    end_byte = f.token_end(*k);
                    *k += 1;
                    break;
                }
                "{" => {
                    let body_start = *k + 1;
                    *k += 1;
                    children = self.parse_items(k, end);
                    // The recursion stops at our closing brace.
                    body_sig = Some((body_start, *k));
                    if f.sig_text(*k) == "}" {
                        end_byte = f.token_end(*k);
                        *k += 1;
                    } else {
                        end_byte = f.src.len();
                    }
                    break;
                }
                _ => *k += 1,
            }
        }
        Item {
            kind: ItemKind::Mod,
            name,
            start: h.start,
            end: end_byte,
            head: h.head,
            is_pub: h.is_pub,
            test_gated: h.test_gated,
            variants: Vec::new(),
            exhaustive_tag: false,
            children,
            sig_range: (h.sig_start, *k),
            body_sig,
        }
    }

    fn finish_fn(&mut self, k: &mut usize, end: usize, h: ItemHead) -> Item {
        let name = self.ident_at(*k);
        let (end_byte, body_sig) = self.skip_to_item_end(k, end);
        Item {
            kind: ItemKind::Fn,
            name,
            start: h.start,
            end: end_byte,
            head: h.head,
            is_pub: h.is_pub,
            test_gated: h.test_gated,
            variants: Vec::new(),
            exhaustive_tag: false,
            children: Vec::new(),
            sig_range: (h.sig_start, *k),
            body_sig,
        }
    }

    fn finish_enum(&mut self, k: &mut usize, end: usize, h: ItemHead) -> Item {
        let f = self.f;
        let name = self.ident_at(*k);
        // Scan to the variant block `{` (skipping generics, which hold
        // no braces), then parse variant names at depth 1.
        let mut variants = Vec::new();
        let mut end_byte = f.src.len();
        let mut body_sig = None;
        while *k < end {
            match f.sig_text(*k) {
                ";" => {
                    // `enum Never;` is not legal Rust, but absorb it.
                    end_byte = f.token_end(*k);
                    *k += 1;
                    return Item {
                        kind: ItemKind::Enum,
                        name,
                        start: h.start,
                        end: end_byte,
                        head: h.head,
                        is_pub: h.is_pub,
                        test_gated: h.test_gated,
                        variants,
                        exhaustive_tag: false,
                        children: Vec::new(),
                        sig_range: (h.sig_start, *k),
                        body_sig,
                    };
                }
                "{" => break,
                _ => *k += 1,
            }
        }
        if f.sig_text(*k) == "{" {
            let open = *k;
            let close = self.matching_brace_or_end(open);
            body_sig = Some((open + 1, close));
            let mut m = open + 1;
            while m < close {
                // Skip variant attributes.
                while self.f.sig_text(m) == "#" && self.f.sig_text(m + 1) == "[" {
                    m = (self.skip_bracketed(m + 1, close) + 1).min(close);
                }
                if m >= close {
                    break;
                }
                if self.f.sig_kind(m) == Some(TokenKind::Ident) {
                    variants.push(self.f.sig_text(m).to_string());
                }
                // Skip the payload / discriminant to the `,` at depth 0
                // relative to the variant block.
                let mut depth = 0usize;
                while m < close {
                    match self.f.sig_text(m) {
                        "(" | "[" | "{" => depth += 1,
                        ")" | "]" | "}" => depth = depth.saturating_sub(1),
                        "," if depth == 0 => {
                            m += 1;
                            break;
                        }
                        _ => {}
                    }
                    m += 1;
                }
            }
            end_byte = f.token_end(close);
            *k = (close + 1).min(end);
        }
        Item {
            kind: ItemKind::Enum,
            name,
            start: h.start,
            end: end_byte,
            head: h.head,
            is_pub: h.is_pub,
            test_gated: h.test_gated,
            variants,
            exhaustive_tag: false,
            children: Vec::new(),
            sig_range: (h.sig_start, *k),
            body_sig,
        }
    }

    fn finish_impl(
        &mut self,
        k: &mut usize,
        end: usize,
        sig_start: usize,
        start: usize,
        head: usize,
        test_gated: bool,
    ) -> Item {
        let f = self.f;
        // The implemented type: the last path-segment ident before the
        // body `{` — after `for` when present (`impl Trait for Type`).
        let mut name = String::new();
        let mut after_for = false;
        let mut scan = *k;
        while scan < end {
            match f.sig_text(scan) {
                "{" => break,
                "for" => {
                    after_for = true;
                    name.clear();
                    scan += 1;
                }
                "where" => break,
                t => {
                    if f.sig_kind(scan) == Some(TokenKind::Ident) && t != "dyn" {
                        name = t.to_string();
                    }
                    scan += 1;
                }
            }
        }
        let _ = after_for;
        // Find the body brace and recurse for associated items.
        while *k < end && f.sig_text(*k) != "{" && f.sig_text(*k) != ";" {
            *k += 1;
        }
        let mut children = Vec::new();
        let mut end_byte = f.src.len();
        let mut body_sig = None;
        if f.sig_text(*k) == "{" {
            let body_start = *k + 1;
            *k += 1;
            children = self.parse_items(k, end);
            body_sig = Some((body_start, *k));
            if f.sig_text(*k) == "}" {
                end_byte = f.token_end(*k);
                *k += 1;
            }
        } else if f.sig_text(*k) == ";" {
            end_byte = f.token_end(*k);
            *k += 1;
        }
        Item {
            kind: ItemKind::Impl,
            name,
            start,
            end: end_byte,
            head,
            is_pub: false,
            test_gated,
            variants: Vec::new(),
            exhaustive_tag: false,
            children,
            sig_range: (sig_start, *k),
            body_sig,
        }
    }

    /// Absorbs an unknown construct: to a `;` at depth 0, through a
    /// balanced `{...}` block (macro invocation bodies), or one token.
    fn absorb_other(
        &mut self,
        k: &mut usize,
        end: usize,
        sig_start: usize,
        start: usize,
        _first: String,
    ) -> Item {
        let f = self.f;
        let head = start;
        let mut depth = 0usize;
        let mut end_byte = f.token_end(*k);
        while *k < end {
            match f.sig_text(*k) {
                "(" | "[" => depth += 1,
                ")" | "]" => depth = depth.saturating_sub(1),
                "{" => {
                    let close = self.matching_brace_or_end(*k);
                    if depth == 0 {
                        // A block at depth 0 ends the construct
                        // (macro_name! { ... }).
                        end_byte = f.token_end(close);
                        *k = (close + 1).min(end);
                        // A trailing `;` belongs to it.
                        if f.sig_text(*k) == ";" {
                            end_byte = f.token_end(*k);
                            *k += 1;
                        }
                        return self.other_item(sig_start, *k, start, end_byte, head);
                    }
                    *k = close;
                }
                ";" if depth == 0 => {
                    end_byte = f.token_end(*k);
                    *k += 1;
                    return self.other_item(sig_start, *k, start, end_byte, head);
                }
                "}" if depth == 0 => {
                    // The caller's closing brace: stop before it.
                    return self.other_item(sig_start, *k, start, end_byte, head);
                }
                _ => {}
            }
            end_byte = f.token_end(*k);
            *k += 1;
        }
        self.other_item(sig_start, *k, start, end_byte, head)
    }

    fn other_item(
        &self,
        sig_start: usize,
        sig_end: usize,
        start: usize,
        end: usize,
        head: usize,
    ) -> Item {
        Item {
            kind: ItemKind::Other,
            name: String::new(),
            start,
            end,
            head,
            is_pub: false,
            test_gated: false,
            variants: Vec::new(),
            exhaustive_tag: false,
            children: Vec::new(),
            sig_range: (sig_start, sig_end),
            body_sig: None,
        }
    }

    /// The ident at `k`, or `""`.
    fn ident_at(&self, k: usize) -> String {
        if self.f.sig_kind(k) == Some(TokenKind::Ident) {
            self.f.sig_text(k).to_string()
        } else {
            String::new()
        }
    }

    /// Given `k` at a `[`, returns the index of the matching `]`
    /// (or `end` when unbalanced).
    fn skip_bracketed(&self, open: usize, end: usize) -> usize {
        let f = self.f;
        let mut depth = 0usize;
        let mut j = open;
        while j < end {
            match f.sig_text(j) {
                "[" => depth += 1,
                "]" => {
                    depth -= 1;
                    if depth == 0 {
                        return j;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        end
    }

    /// Given `k` at a `(`, returns the index of the matching `)`.
    fn skip_parenthesized(&self, open: usize, end: usize) -> usize {
        let f = self.f;
        let mut depth = 0usize;
        let mut j = open;
        while j < end {
            match f.sig_text(j) {
                "(" => depth += 1,
                ")" => {
                    depth -= 1;
                    if depth == 0 {
                        return j;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        end
    }

    /// Matching `}` for the `{` at `open`, or the last significant
    /// index when unbalanced (never past the stream).
    fn matching_brace_or_end(&self, open: usize) -> usize {
        let close = self.f.matching_brace(open);
        close.min(self.f.sig_len().saturating_sub(1))
    }

    /// Advances `*k` to one past the end of an item whose header starts
    /// at `*k`: through the matching `}` of the first `{` at
    /// parenthesis/bracket depth 0, or through a `;` at depth 0 —
    /// whichever comes first. Braced initializers inside `const` items
    /// are crossed because `{` bumps the depth. Returns the end byte
    /// and the body's significant range when a braced body was found.
    fn skip_to_item_end(&mut self, k: &mut usize, end: usize) -> (usize, Option<(usize, usize)>) {
        let f = self.f;
        let mut depth = 0usize;
        while *k < end {
            match f.sig_text(*k) {
                "(" | "[" => depth += 1,
                ")" | "]" => depth = depth.saturating_sub(1),
                "{" => {
                    if depth == 0 {
                        let open = *k;
                        let close = self.matching_brace_or_end(open);
                        let end_byte = f.token_end(close);
                        *k = (close + 1).min(end);
                        // `struct S { .. }` has no trailing `;`; a
                        // const with a braced initializer does — take
                        // it if adjacent.
                        if f.sig_text(*k) == ";" {
                            let semi_end = f.token_end(*k);
                            *k += 1;
                            return (semi_end, Some((open + 1, close)));
                        }
                        return (end_byte, Some((open + 1, close)));
                    }
                    // Inside parens/brackets: a closure body or a
                    // struct literal; cross it wholesale.
                    *k = self.matching_brace_or_end(*k);
                }
                ";" if depth == 0 => {
                    let end_byte = f.token_end(*k);
                    *k += 1;
                    return (end_byte, None);
                }
                _ => {}
            }
            *k += 1;
        }
        (f.src.len(), None)
    }
}

/// Scans the whole significant stream for `match` expressions and
/// parses each one's arm heads. Enclosing impls are resolved from the
/// item tree by byte containment.
fn find_matches(f: &SourceFile, items: &[Item]) -> Vec<MatchExpr> {
    let mut out = Vec::new();
    for k in 0..f.sig_len() {
        if f.sig_text(k) != "match" || f.sig_kind(k) != Some(TokenKind::Ident) {
            continue;
        }
        let pos = f.sig_start(k);
        let Some((arms_open, arms_close)) = find_arms_block(f, k) else {
            continue;
        };
        let arms = parse_arms(f, arms_open, arms_close);
        out.push(MatchExpr {
            pos,
            arms,
            enclosing_impl: enclosing_impl_name(items, pos),
        });
    }
    out
}

fn enclosing_impl_name(items: &[Item], pos: usize) -> Option<String> {
    for item in items {
        if pos < item.start || pos >= item.end {
            continue;
        }
        if let Some(inner) = enclosing_impl_name(&item.children, pos) {
            return Some(inner);
        }
        if item.kind == ItemKind::Impl && !item.name.is_empty() {
            return Some(item.name.clone());
        }
    }
    None
}

/// From the `match` keyword at `k`, finds the arms block: the first `{`
/// at parenthesis/bracket depth 0 (struct literals are not legal in
/// scrutinee position, so this is the arms brace), and its match.
fn find_arms_block(f: &SourceFile, k: usize) -> Option<(usize, usize)> {
    let mut depth = 0usize;
    let mut j = k + 1;
    while j < f.sig_len() {
        match f.sig_text(j) {
            "(" | "[" => depth += 1,
            ")" | "]" => {
                if depth == 0 {
                    return None; // `match` inside a macro fragment
                }
                depth -= 1;
            }
            "{" => {
                if depth == 0 {
                    let close = f.matching_brace(j);
                    if close >= f.sig_len() {
                        return None; // unbalanced: reported separately
                    }
                    return Some((j, close));
                }
                // A block inside the scrutinee's parens: skip it.
                let close = f.matching_brace(j);
                if close >= f.sig_len() {
                    return None;
                }
                j = close;
            }
            ";" | "}" => return None,
            _ => {}
        }
        j += 1;
    }
    None
}

fn parse_arms(f: &SourceFile, open: usize, close: usize) -> Vec<Arm> {
    let mut arms = Vec::new();
    let mut j = open + 1;
    while j < close {
        // Leading `|` of an or-pattern is part of the same arm.
        if f.sig_text(j) == "|" {
            j += 1;
            continue;
        }
        let pos = f.sig_start(j);
        let mut pattern = Vec::new();
        let mut has_guard = false;
        let mut depth = 0usize;
        // Pattern (and guard) tokens up to `=>` at depth 0.
        while j < close {
            let t = f.sig_text(j);
            match t {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth = depth.saturating_sub(1),
                "=" if depth == 0 && f.sig_text(j + 1) == ">" => {
                    j += 2;
                    break;
                }
                "if" if depth == 0 => {
                    has_guard = true;
                }
                _ => {}
            }
            if !has_guard {
                pattern.push(t.to_string());
            }
            j += 1;
        }
        if pattern.is_empty() && !has_guard {
            break; // trailing tokens before `}`: done
        }
        arms.push(Arm {
            pos,
            pattern,
            has_guard,
        });
        // Arm body: a block, or an expression up to `,` at depth 0.
        if f.sig_text(j) == "{" {
            let body_close = f.matching_brace(j);
            j = (body_close + 1).min(close);
            if f.sig_text(j) == "," {
                j += 1;
            }
            continue;
        }
        let mut depth = 0usize;
        while j < close {
            match f.sig_text(j) {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth = depth.saturating_sub(1),
                "," if depth == 0 => {
                    j += 1;
                    break;
                }
                _ => {}
            }
            j += 1;
        }
    }
    arms
}

/// An enum definition recorded in the workspace index.
#[derive(Debug, Clone)]
pub struct EnumInfo {
    /// Variant names in declaration order.
    pub variants: Vec<String>,
    /// Whether a `// miv-analyze: exhaustive` tag attaches to it.
    pub exhaustive: bool,
}

/// The workspace-level index: everything the cross-file rules consult.
/// All maps are BTree-ordered, so iteration — and therefore every
/// report derived from the index — is deterministic.
#[derive(Debug, Default)]
pub struct WorkspaceIndex {
    /// Enum name → definitions (a name can legitimately recur across
    /// files; rules that need a unique target prefer the tagged one).
    pub enums: BTreeMap<String, Vec<EnumInfo>>,
    /// File → every qualified `A::B` token pair in the file (test
    /// spans included: coverage tables may live in test modules).
    pub qualified: BTreeMap<String, BTreeSet<(String, String)>>,
    /// Aggregated item counts.
    pub counts: ItemCounts,
}

impl WorkspaceIndex {
    /// Folds one file's model into the index.
    pub fn absorb_file(&mut self, rel_path: &str, f: &SourceFile, model: &FileModel) {
        self.counts.absorb(&model.counts);

        fn walk(idx: &mut WorkspaceIndex, items: &[Item]) {
            for item in items {
                if item.kind == ItemKind::Enum {
                    idx.enums
                        .entry(item.name.clone())
                        .or_default()
                        .push(EnumInfo {
                            variants: item.variants.clone(),
                            exhaustive: item.exhaustive_tag,
                        });
                }
                walk(idx, &item.children);
            }
        }
        walk(self, &model.items);

        let quals = self.qualified.entry(rel_path.to_string()).or_default();
        for k in 0..f.sig_len() {
            if f.sig_kind(k) == Some(TokenKind::Ident)
                && f.sig_text(k + 1) == ":"
                && f.sig_text(k + 2) == ":"
                && f.sig_kind(k + 3) == Some(TokenKind::Ident)
            {
                quals.insert((f.sig_text(k).to_string(), f.sig_text(k + 3).to_string()));
            }
        }
    }

    /// The unique definition of a tagged enum by name: the tagged one
    /// when exactly one definition carries the tag, else the first in
    /// file order.
    pub fn enum_named(&self, name: &str) -> Option<&EnumInfo> {
        let defs = self.enums.get(name)?;
        defs.iter().find(|d| d.exhaustive).or_else(|| defs.first())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::SourceFile;

    fn model_of(src: &str) -> FileModel {
        FileModel::build(&SourceFile::new(src))
    }

    #[test]
    fn items_partition_top_level() {
        let src = "#![allow(dead_code)]\nuse std::fmt;\n\npub struct S { a: u8 }\n\
                   impl S { fn f(&self) -> u8 { self.a } }\nconst C: [u8; 2] = [1, 2];\n";
        let m = model_of(src);
        assert!(m.brace_errors.is_empty());
        let spans: Vec<(usize, usize)> = m.items.iter().map(|i| (i.start, i.end)).collect();
        for w in spans.windows(2) {
            assert!(w[0].1 <= w[1].0, "item spans overlap: {w:?}");
        }
        assert_eq!(m.items.len(), 5);
        assert_eq!(m.items[2].kind, ItemKind::Struct);
        assert_eq!(m.items[3].kind, ItemKind::Impl);
        assert_eq!(m.items[3].children.len(), 1);
        assert_eq!(m.items[3].children[0].name, "f");
    }

    #[test]
    fn enum_variants_extracted() {
        let src = "pub enum E { A, B(u8), C { x: u64 }, D = 4 }\n";
        let m = model_of(src);
        let enums = m.enums();
        assert_eq!(enums.len(), 1);
        assert_eq!(enums[0].variants, ["A", "B", "C", "D"]);
    }

    #[test]
    fn match_arms_parsed() {
        let src = "fn f(e: E) -> u8 { match e { E::A => 1, E::B(x) if x > 2 => x, _ => 0 } }\n";
        let m = model_of(src);
        assert_eq!(m.matches.len(), 1);
        let arms = &m.matches[0].arms;
        assert_eq!(arms.len(), 3);
        assert_eq!(arms[0].head_paths(), [("E".to_string(), "A".to_string())]);
        assert!(arms[1].has_guard);
        assert!(arms[2].is_wildcard());
    }

    #[test]
    fn self_resolves_through_impl() {
        let src = "impl E { fn go(&self) -> u8 { match self { Self::A => 1, Self::B => 2 } } }\n";
        let m = model_of(src);
        assert_eq!(m.matches.len(), 1);
        assert_eq!(m.matches[0].enclosing_impl.as_deref(), Some("E"));
    }

    #[test]
    fn brace_errors_reported() {
        let src = "fn f() { if x { }\n"; // one `{` never closes
        let m = model_of(src);
        assert_eq!(m.brace_errors.len(), 1);

        let src = "fn f() { }\n}\n"; // stray closing brace
        let m = model_of(src);
        assert_eq!(m.brace_errors.len(), 1);
    }

    #[test]
    fn exhaustive_tag_attaches_to_next_enum() {
        let src = "// miv-analyze: exhaustive\n#[derive(Debug)]\npub enum E { A, B }\n";
        let m = model_of(src);
        assert!(m.enums()[0].exhaustive_tag);
        assert!(m.unattached_tags.is_empty());

        let src = "// miv-analyze: exhaustive\nfn no_enum_here() {}\n";
        let m = model_of(src);
        assert_eq!(m.unattached_tags.len(), 1);
    }
}
