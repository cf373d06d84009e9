//! The lint engine: five per-file passes over the token stream.
//!
//! Rules are keyed by repo-relative path (forward slashes):
//!
//! * **determinism** — applies to library code of the eight deterministic
//!   crates (`crates/{types,graph,adversary,faults,net,core,sim,analysis}/src/`).
//!   Bans keyed-hash collections, wall-clock reads, and thread-identity
//!   reads; `#[cfg(test)]` items are exempt, as are `adn-bench` and the
//!   root `tests/` harnesses (property oracles legitimately diff bitsets
//!   against `std` hash sets there).
//! * **unsafety** — applies everywhere. `unsafe` is only legal in the
//!   allowlist, each `unsafe` block/impl needs an adjacent `// SAFETY:`
//!   note, and every crate root must carry `#![forbid(unsafe_code)]`.
//! * **no-alloc** / **no-panic** — apply inside `// audit: no-alloc`
//!   regions (the annotation binds to the next braced block). What a
//!   region's callees allocate is `tests/alloc_free.rs`'s to measure.
//! * **threading** — `std::thread`/`std::sync`, as inline paths or inside
//!   `use std::{…}` groups, are confined to adn-sim's `pool.rs` within the
//!   same eight crates. (Which crate may name which is cargo's to enforce:
//!   a crate cannot use an undeclared dependency, and cycles are rejected.)
//!
//! Suppressions: `// audit: allow(<lint>) — <justification>` silences
//! `<lint>` on the comment's own line and the next code line. A missing
//! justification or unknown lint is itself a finding (lint name
//! `annotation`) and suppresses nothing.

use crate::lexer::{self, Comment, Lexed, Tok, TokKind};
use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

/// The suppressible lints. (`annotation` findings — malformed audit
/// comments — are deliberately not suppressible.)
pub const LINTS: [&str; 5] = [
    "determinism",
    "unsafety",
    "no-alloc",
    "no-panic",
    "threading",
];

/// Library source of the deterministic stack: the scope of the
/// determinism and threading lints.
const DETERMINISM_SCOPES: [&str; 8] = [
    "crates/types/src/",
    "crates/graph/src/",
    "crates/adversary/src/",
    "crates/faults/src/",
    "crates/net/src/",
    "crates/core/src/",
    "crates/sim/src/",
    "crates/analysis/src/",
];

/// The only file allowed to contain `unsafe` at all: the counting global
/// allocator of the allocation pin.
const UNSAFE_ALLOWLIST: [&str; 1] = ["tests/alloc_free.rs"];

/// Whether `rel` is a library crate root — each must declare
/// `#![forbid(unsafe_code)]`.
fn is_crate_root(rel: &str) -> bool {
    let member = rel
        .strip_prefix("crates/")
        .and_then(|r| r.strip_suffix("/src/lib.rs"));
    rel == "src/lib.rs" || member.is_some_and(|name| !name.contains('/'))
}

/// The one file that owns threading: the `TrialPool` (across-trial
/// parallelism) and the scoped fan-out of a sharded round's delivery.
/// `std::thread` and `std::sync` in any other library-crate file is a
/// threading finding.
const THREADING_ALLOWLIST: [&str; 1] = ["crates/sim/src/pool.rs"];

/// One finding, rendered as `file:line: lint-name: message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    pub file: String,
    pub line: u32,
    pub lint: &'static str,
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.file, self.line, self.lint, self.message
        )
    }
}

fn diag(file: &str, line: u32, lint: &'static str, message: String) -> Diagnostic {
    Diagnostic {
        file: file.to_string(),
        line,
        lint,
        message,
    }
}

/// Audits one file's source. `rel` is the repo-relative path with `/`
/// separators; it selects which rules apply. Output is sorted by line.
pub fn audit_source(rel: &str, src: &str) -> Vec<Diagnostic> {
    let lexed = lexer::lex(src);
    let test_spans = cfg_test_spans(src, &lexed.toks);
    let ann = collect_annotations(rel, src, &lexed);
    let library = DETERMINISM_SCOPES.iter().any(|pre| rel.starts_with(pre));
    let mut diags = ann.errors.clone();
    if library {
        determinism_pass(rel, src, &lexed.toks, &test_spans, &mut diags);
    }
    unsafety_pass(rel, src, &lexed, &mut diags);
    crate_root_pass(rel, src, &lexed.toks, &mut diags);
    for &region in &ann.no_alloc_regions {
        region_pass(rel, src, &lexed.toks, region, &mut diags);
    }
    if library && !THREADING_ALLOWLIST.contains(&rel) {
        threading_pass(rel, src, &lexed.toks, &test_spans, &mut diags);
    }
    // The sort is stable, so same-line findings keep pass order
    // (annotation errors first).
    diags.retain(|d| !ann.suppressed(d.lint, d.line));
    diags.sort_by_key(|d| d.line);
    diags
}

/// Audits a set of `(repo-relative path, source)` files, each on its own;
/// output is sorted by `(file, line)` and byte-deterministic for a given
/// input set.
pub fn audit_files(files: &[(String, String)]) -> Vec<Diagnostic> {
    let mut diags: Vec<Diagnostic> = files
        .iter()
        .flat_map(|(rel, src)| audit_source(rel, src))
        .collect();
    diags.sort_by(|a, b| (a.file.as_str(), a.line).cmp(&(b.file.as_str(), b.line)));
    diags
}

/// Audits the workspace rooted at `root`: crates are discovered from the
/// root `Cargo.toml` `members` list (plus the root package's own `src/`,
/// `tests/`, `examples/`, and `benches/` directories), and files are
/// walked in sorted path order so the findings output is byte-identical
/// across platforms and filesystems.
pub fn audit_workspace(root: &Path) -> io::Result<Vec<Diagnostic>> {
    let mut files = Vec::new();
    let manifest = fs::read_to_string(root.join("Cargo.toml"))?;
    let mut dirs = workspace_members(&manifest);
    dirs.extend(
        ["src", "tests", "examples", "benches"]
            .iter()
            .map(|d| d.to_string()),
    );
    dirs.sort();
    dirs.dedup();
    for dir in &dirs {
        let path = root.join(dir);
        if path.is_dir() {
            collect_rs_files(root, &path, &mut files)?;
        }
    }
    files.sort();
    files.dedup();
    let mut loaded = Vec::with_capacity(files.len());
    for rel in files {
        let src = fs::read_to_string(root.join(&rel))?;
        loaded.push((rel, src));
    }
    Ok(audit_files(&loaded))
}

/// Extracts the `members = […]` entries from a workspace manifest.
/// A deliberately small parser: the manifest is in-repo and plain.
fn workspace_members(manifest: &str) -> Vec<String> {
    let Some(start) = manifest.find("members") else {
        return Vec::new();
    };
    let Some(open) = manifest[start..].find('[') else {
        return Vec::new();
    };
    let Some(close) = manifest[start + open..].find(']') else {
        return Vec::new();
    };
    let body = &manifest[start + open + 1..start + open + close];
    body.split(',')
        .map(|s| s.trim().trim_matches('"').to_string())
        .filter(|s| !s.is_empty() && s != ".")
        .collect()
}

fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<String>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == ".git" {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .expect("walked path is under root")
                .to_string_lossy()
                .replace('\\', "/");
            out.push(rel);
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Annotations: `// audit: no-alloc` regions and `// audit: allow(...)`.

struct Annotations {
    /// Token index ranges `(open_brace, close_brace)` of no-alloc regions.
    no_alloc_regions: Vec<(usize, usize)>,
    /// `(lint, line)` pairs a well-formed allow comment suppresses.
    allows: Vec<(String, u32)>,
    /// Malformed audit comments — always reported, never suppressible.
    errors: Vec<Diagnostic>,
}

impl Annotations {
    fn suppressed(&self, lint: &str, line: u32) -> bool {
        self.allows.iter().any(|(l, ln)| l == lint && *ln == line)
    }
}

fn collect_annotations(rel: &str, src: &str, lexed: &Lexed) -> Annotations {
    let mut out = Annotations {
        no_alloc_regions: Vec::new(),
        allows: Vec::new(),
        errors: Vec::new(),
    };
    for c in &lexed.comments {
        let text = c.text(src).trim();
        let Some(rest) = text.strip_prefix("audit:") else {
            continue;
        };
        let rest = rest.trim();
        if rest == "no-alloc" {
            match bind_region(&lexed.toks, c) {
                Ok(region) => out.no_alloc_regions.push(region),
                Err(msg) => out
                    .errors
                    .push(diag(rel, c.first_line, "annotation", msg.to_string())),
            }
        } else if let Some(arg) = rest.strip_prefix("allow(") {
            let Some(close) = arg.find(')') else {
                out.errors.push(diag(
                    rel,
                    c.first_line,
                    "annotation",
                    "unclosed `audit: allow(` directive".to_string(),
                ));
                continue;
            };
            let lint = arg[..close].trim();
            let justification = arg[close + 1..].trim_start_matches(|ch: char| {
                ch.is_whitespace() || matches!(ch, '-' | '—' | '–' | ':')
            });
            if !LINTS.contains(&lint) {
                out.errors.push(diag(
                    rel,
                    c.first_line,
                    "annotation",
                    format!(
                        "`audit: allow({lint})` names an unknown lint (known: {})",
                        LINTS.join(", ")
                    ),
                ));
            } else if justification.trim().is_empty() {
                out.errors.push(diag(
                    rel,
                    c.first_line,
                    "annotation",
                    format!("`audit: allow({lint})` requires a trailing justification (`— why`)"),
                ));
            } else {
                out.allows.push((lint.to_string(), c.first_line));
                if let Some(next) = lexed.toks.iter().find(|t| t.line > c.last_line) {
                    out.allows.push((lint.to_string(), next.line));
                }
            }
        } else {
            out.errors.push(diag(
                rel,
                c.first_line,
                "annotation",
                format!("unrecognized audit directive `{rest}` (expected `no-alloc` or `allow(<lint>) — why`)"),
            ));
        }
    }
    out
}

/// Binds a `no-alloc` annotation to the next braced block: the first `{`
/// after the comment, matched to its closing `}`. A `;` outside any
/// parens/brackets before that `{` means the annotation precedes a
/// non-block item — an error.
fn bind_region(toks: &[Tok], c: &Comment) -> Result<(usize, usize), &'static str> {
    let start = toks
        .iter()
        .position(|t| t.line > c.last_line || (t.line == c.last_line && t.start >= c.end))
        .ok_or("`audit: no-alloc` is not followed by any code")?;
    let mut wrap = 0i32;
    let mut open = None;
    for (i, t) in toks.iter().enumerate().skip(start) {
        match t.kind {
            TokKind::Punct(b'(') | TokKind::Punct(b'[') => wrap += 1,
            TokKind::Punct(b')') | TokKind::Punct(b']') => wrap -= 1,
            TokKind::Punct(b'{') => {
                open = Some(i);
                break;
            }
            TokKind::Punct(b';') if wrap == 0 => {
                return Err("`audit: no-alloc` must precede a braced block, found `;` first");
            }
            _ => {}
        }
    }
    let open = open.ok_or("`audit: no-alloc` is not followed by a braced block")?;
    let mut braces = 0i32;
    for (i, t) in toks.iter().enumerate().skip(open) {
        match t.kind {
            TokKind::Punct(b'{') => braces += 1,
            TokKind::Punct(b'}') => {
                braces -= 1;
                if braces == 0 {
                    return Ok((open, i));
                }
            }
            _ => {}
        }
    }
    // Unbalanced file (the compiler will reject it); audit to EOF anyway.
    Ok((open, toks.len() - 1))
}

// ---------------------------------------------------------------------------
// `#[cfg(test)]` exemption spans.

/// Line spans covered by `#[cfg(test)]` items. Heuristic: an outer
/// attribute whose tokens include the idents `cfg` and `test` but not
/// `not` (so `#[cfg(not(test))]` is *not* exempt), extended over the
/// following item (to the matching `}` of its first brace, or to a `;`
/// outside all delimiters).
fn cfg_test_spans(src: &str, toks: &[Tok]) -> Vec<(u32, u32)> {
    let mut spans = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_punct(b'#') && toks.get(i + 1).is_some_and(|t| t.is_punct(b'[')) {
            let close = match_square(toks, i + 1);
            let (mut has_cfg, mut has_test, mut has_not) = (false, false, false);
            for t in &toks[i + 2..close.min(toks.len())] {
                if t.kind == TokKind::Ident {
                    match t.text(src) {
                        "cfg" => has_cfg = true,
                        "test" => has_test = true,
                        "not" => has_not = true,
                        _ => {}
                    }
                }
            }
            if has_cfg && has_test && !has_not {
                let end_line = item_end_line(toks, close + 1);
                spans.push((toks[i].line, end_line));
            }
            i = close + 1;
        } else {
            i += 1;
        }
    }
    spans
}

fn in_spans(spans: &[(u32, u32)], line: u32) -> bool {
    spans.iter().any(|&(a, b)| a <= line && line <= b)
}

/// Index of the `]` matching the `[` at `open_idx` (or `toks.len()` if
/// the file ends first).
fn match_square(toks: &[Tok], open_idx: usize) -> usize {
    let mut depth = 0i32;
    for (i, t) in toks.iter().enumerate().skip(open_idx) {
        match t.kind {
            TokKind::Punct(b'[') => depth += 1,
            TokKind::Punct(b']') => {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
            _ => {}
        }
    }
    toks.len()
}

/// Last line of the item starting at token `i` (after its attributes).
fn item_end_line(toks: &[Tok], mut i: usize) -> u32 {
    while i < toks.len()
        && toks[i].is_punct(b'#')
        && toks.get(i + 1).is_some_and(|t| t.is_punct(b'['))
    {
        i = match_square(toks, i + 1) + 1;
    }
    let mut wrap = 0i32;
    let mut braces = 0i32;
    let mut entered = false;
    while i < toks.len() {
        match toks[i].kind {
            TokKind::Punct(b'(') | TokKind::Punct(b'[') => wrap += 1,
            TokKind::Punct(b')') | TokKind::Punct(b']') => wrap -= 1,
            TokKind::Punct(b'{') => {
                braces += 1;
                entered = true;
            }
            TokKind::Punct(b'}') => {
                braces -= 1;
                if entered && braces == 0 {
                    return toks[i].line;
                }
            }
            TokKind::Punct(b';') if !entered && wrap == 0 => return toks[i].line,
            _ => {}
        }
        i += 1;
    }
    toks.last().map_or(1, |t| t.line)
}

// ---------------------------------------------------------------------------
// Pass 1: determinism.

fn determinism_pass(
    rel: &str,
    src: &str,
    toks: &[Tok],
    test_spans: &[(u32, u32)],
    diags: &mut Vec<Diagnostic>,
) {
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || in_spans(test_spans, t.line) {
            continue;
        }
        let word = t.text(src);
        let msg = match word {
            "HashMap" | "HashSet" => Some(format!(
                "`{word}` iteration order is nondeterministic; use BTreeMap/BTreeSet or a dense index"
            )),
            "RandomState" => Some(
                "`RandomState` seeds from the OS; deterministic code must use the in-repo SplitMix64"
                    .to_string(),
            ),
            "SystemTime" => Some(
                "wall-clock reads are only allowed in adn-bench and #[cfg(test)] code".to_string(),
            ),
            "ThreadId" => Some("thread identity is nondeterministic across runs".to_string()),
            "Instant" if path_seg(toks, src, i, "now") => Some(
                "`Instant::now` is wall-clock; only adn-bench and #[cfg(test)] code may read it"
                    .to_string(),
            ),
            "thread" if path_seg(toks, src, i, "current") => {
                Some("`thread::current` (thread identity) is nondeterministic".to_string())
            }
            _ => None,
        };
        if let Some(message) = msg {
            diags.push(diag(rel, t.line, "determinism", message));
        }
    }
}

/// Whether token `i` is followed by `:: <seg>`.
fn path_seg(toks: &[Tok], src: &str, i: usize, seg: &str) -> bool {
    toks.get(i + 1).is_some_and(|t| t.is_punct(b':'))
        && toks.get(i + 2).is_some_and(|t| t.is_punct(b':'))
        && toks.get(i + 3).is_some_and(|t| t.is_ident(src, seg))
}

// ---------------------------------------------------------------------------
// Pass 2: unsafety.

fn unsafety_pass(rel: &str, src: &str, lexed: &Lexed, diags: &mut Vec<Diagnostic>) {
    let allowed = UNSAFE_ALLOWLIST.contains(&rel);
    for (i, t) in lexed.toks.iter().enumerate() {
        if !t.is_ident(src, "unsafe") {
            continue;
        }
        if !allowed {
            diags.push(diag(
                rel,
                t.line,
                "unsafety",
                format!(
                    "`unsafe` outside the audit allowlist ({})",
                    UNSAFE_ALLOWLIST.join(", ")
                ),
            ));
            continue;
        }
        // `unsafe fn` declarations are exempt: the operations inside sit
        // in their own unsafe blocks, and those carry the SAFETY notes.
        if lexed.toks.get(i + 1).is_some_and(|n| n.is_ident(src, "fn")) {
            continue;
        }
        if !has_safety_comment(src, &lexed.comments, t) {
            diags.push(diag(
                rel,
                t.line,
                "unsafety",
                "`unsafe` block/impl must be immediately preceded by a `// SAFETY:` comment"
                    .to_string(),
            ));
        }
    }
}

/// Whether an `unsafe` token at `tok` has a `SAFETY:` comment adjacent to
/// it: either on the same line before it, or in the contiguous comment
/// block ending on the previous line.
fn has_safety_comment(src: &str, comments: &[Comment], tok: &Tok) -> bool {
    if comments
        .iter()
        .any(|c| c.last_line == tok.line && c.end <= tok.start && c.text(src).contains("SAFETY:"))
    {
        return true;
    }
    let mut line = tok.line.saturating_sub(1);
    while line > 0 {
        let Some(c) = comments.iter().find(|c| c.last_line == line) else {
            return false;
        };
        if c.text(src).contains("SAFETY:") {
            return true;
        }
        if c.first_line <= 1 {
            return false;
        }
        line = c.first_line - 1;
    }
    false
}

// ---------------------------------------------------------------------------
// Pass 3: crate-root unsafety attributes.

fn crate_root_pass(rel: &str, src: &str, toks: &[Tok], diags: &mut Vec<Diagnostic>) {
    if !is_crate_root(rel) {
        return;
    }
    let mut i = 0;
    while i + 2 < toks.len() {
        if toks[i].is_punct(b'#') && toks[i + 1].is_punct(b'!') && toks[i + 2].is_punct(b'[') {
            let close = match_square(toks, i + 2);
            let inner = &toks[i + 3..close.min(toks.len())];
            if inner.iter().any(|t| t.is_ident(src, "forbid"))
                && inner.iter().any(|t| t.is_ident(src, "unsafe_code"))
            {
                return;
            }
            i = close + 1;
        } else {
            i += 1;
        }
    }
    diags.push(diag(
        rel,
        1,
        "unsafety",
        "crate root must declare `#![forbid(unsafe_code)]`".to_string(),
    ));
}

// ---------------------------------------------------------------------------
// Passes 4+5: no-alloc / no-panic inside annotated regions.

/// Classifies the token at `i` as a banned construct: `(lint, display
/// name)`. Slice indexing and `assert!` stay allowed — they are the plane
/// idiom.
fn classify_banned(toks: &[Tok], src: &str, i: usize) -> Option<(&'static str, &'static str)> {
    let t = &toks[i];
    if t.kind != TokKind::Ident {
        return None;
    }
    let bang = toks.get(i + 1).is_some_and(|n| n.is_punct(b'!'));
    Some(match t.text(src) {
        "collect" => ("no-alloc", "collect"),
        "to_vec" => ("no-alloc", "to_vec"),
        "clone" => ("no-alloc", "clone"),
        "vec" if bang => ("no-alloc", "vec!"),
        "format" if bang => ("no-alloc", "format!"),
        "Vec" if path_seg(toks, src, i, "new") => ("no-alloc", "Vec::new"),
        "Box" if path_seg(toks, src, i, "new") => ("no-alloc", "Box::new"),
        "String" if path_seg(toks, src, i, "from") => ("no-alloc", "String::from"),
        "unwrap" => ("no-panic", "unwrap"),
        "expect" => ("no-panic", "expect"),
        "panic" if bang => ("no-panic", "panic!"),
        _ => return None,
    })
}

fn region_pass(
    rel: &str,
    src: &str,
    toks: &[Tok],
    (open, close): (usize, usize),
    diags: &mut Vec<Diagnostic>,
) {
    for i in open..=close.min(toks.len().saturating_sub(1)) {
        let Some((lint, c)) = classify_banned(toks, src, i) else {
            continue;
        };
        let message = match (lint, c) {
            ("no-alloc", _) => format!("`{c}` allocates inside a `// audit: no-alloc` region"),
            (_, "panic!") => "`panic!` inside a `// audit: no-alloc` region".to_string(),
            _ => format!(
                "`{c}` may panic inside a `// audit: no-alloc` region; handle the case or `audit: allow(no-panic)` it with a justification"
            ),
        };
        diags.push(diag(rel, toks[i].line, lint, message));
    }
}

// ---------------------------------------------------------------------------
// Pass 6: threading — `std::thread`/`std::sync` outside the pool file.

fn threading_pass(
    rel: &str,
    src: &str,
    toks: &[Tok],
    test_spans: &[(u32, u32)],
    diags: &mut Vec<Diagnostic>,
) {
    let module = |t: &Tok| {
        if t.is_ident(src, "thread") {
            Some("std::thread")
        } else if t.is_ident(src, "sync") {
            Some("std::sync")
        } else {
            None
        }
    };
    let mut found: Vec<(u32, &'static str)> = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if !t.is_ident(src, "std") || in_spans(test_spans, t.line) {
            continue;
        }
        let (Some(c1), Some(c2), Some(next)) = (toks.get(i + 1), toks.get(i + 2), toks.get(i + 3))
        else {
            continue;
        };
        if !(c1.is_punct(b':') && c2.is_punct(b':')) {
            continue;
        }
        if let Some(what) = module(next) {
            // `std::sync::Mutex`, `use std::thread;`, `std::thread::scope(`.
            found.push((next.line, what));
        } else if next.is_punct(b'{') {
            // `use std::{collections::BTreeMap, sync::{Arc, Mutex}};` — the
            // heads of the group's top-level paths.
            let mut depth = 0i32;
            for (j, g) in toks.iter().enumerate().skip(i + 3) {
                match g.kind {
                    TokKind::Punct(b'{') => depth += 1,
                    TokKind::Punct(b'}') => depth -= 1,
                    _ => {}
                }
                if depth == 0 {
                    break;
                }
                let head = toks[j - 1].is_punct(b'{') || toks[j - 1].is_punct(b',');
                if let Some(what) = module(g).filter(|_| head && depth == 1) {
                    found.push((g.line, what));
                }
            }
        }
    }
    // One finding per (line, module), however often the line names it.
    found.sort();
    found.dedup();
    for (line, what) in found {
        diags.push(diag(
            rel,
            line,
            "threading",
            format!(
                "`{what}` is confined to {} (the TrialPool and the shard fan-out)",
                THREADING_ALLOWLIST.join(" and ")
            ),
        ));
    }
}
