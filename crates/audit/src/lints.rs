//! The lint engine: per-file invariant passes plus the workspace-level
//! graph passes.
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
//!   regions (the annotation binds to the next braced block) and inside
//!   the bodies of `// audit: no-alloc-fn` contract functions.
//! * **alloc-reach** / **panic-reach** — the interprocedural extension:
//!   every function transitively reachable from a region through the
//!   workspace call graph (see [`crate::graph`]) is scanned for the same
//!   banned constructs. Functions carrying a `no-alloc-fn` contract are
//!   trusted at their call sites and checked at their own definitions.
//! * **layering** — `use adn_*` statements must respect the crate DAG
//!   (types → graph/net/faults → adversary/core → sim → bench, with
//!   analysis and audit dependency-free), and `std::thread`/`std::sync`
//!   are confined to adn-sim's `pool.rs`.
//!
//! Suppressions: `// audit: allow(<lint>) — <justification>` silences
//! `<lint>` on the comment's own line and the next code line. A missing
//! justification or unknown lint is itself a finding (lint name
//! `annotation`) and suppresses nothing.

use crate::graph::{self, BannedKind, GraphFile};
use crate::lexer::{self, Comment, Lexed, Tok, TokKind};
use crate::parse::{self, FileAst};
use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

/// The suppressible lints. (`annotation` findings — malformed audit
/// comments — are deliberately not suppressible.)
pub const LINTS: [&str; 7] = [
    "determinism",
    "unsafety",
    "no-alloc",
    "no-panic",
    "alloc-reach",
    "panic-reach",
    "layering",
];

/// Library source of the deterministic stack: the determinism lint's
/// scope and the symbol graph's scope.
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

/// The normative crate DAG, as `(source prefix, allowed adn_* deps)`.
/// A `use adn_x::…` in a file under a listed prefix must name an allowed
/// dep. `crates/bench`, `tests/`, and `examples/` may use everything and
/// are not listed.
const LAYERING: [(&str, &[&str]); 11] = [
    ("crates/types/src/", &[]),
    ("crates/graph/src/", &["adn_types"]),
    ("crates/faults/src/", &["adn_types"]),
    ("crates/net/src/", &["adn_types", "adn_graph"]),
    ("crates/adversary/src/", &["adn_types", "adn_graph"]),
    ("crates/core/src/", &["adn_types", "adn_graph"]),
    ("crates/analysis/src/", &[]),
    (
        "crates/sim/src/",
        &[
            "adn_types",
            "adn_graph",
            "adn_adversary",
            "adn_faults",
            "adn_net",
            "adn_core",
        ],
    ),
    ("crates/audit/src/", &[]),
    (
        "crates/bench/src/",
        &[
            "adn_types",
            "adn_graph",
            "adn_adversary",
            "adn_faults",
            "adn_net",
            "adn_core",
            "adn_sim",
            "adn_analysis",
        ],
    ),
    (
        "src/",
        &[
            "adn_types",
            "adn_graph",
            "adn_adversary",
            "adn_faults",
            "adn_net",
            "adn_core",
            "adn_sim",
            "adn_analysis",
        ],
    ),
];

/// The one file that owns threading: the `TrialPool` (across-trial
/// parallelism) and the scoped fan-out of a sharded round's delivery.
/// `std::thread` and `std::sync` in any other library-crate file is a
/// layering finding.
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

/// Audits one file's source in isolation. `rel` is the repo-relative
/// path with `/` separators; it selects which rules apply. Workspace
/// passes (the call graph) see only this one file — cross-file edges
/// need [`audit_files`] or [`audit_workspace`].
pub fn audit_source(rel: &str, src: &str) -> Vec<Diagnostic> {
    audit_files(&[(rel.to_string(), src.to_string())])
}

/// Audits a set of files as one workspace: every per-file pass, then the
/// symbol-graph passes over the library-crate subset. Files must be
/// `(repo-relative path, source)` pairs; output is sorted by
/// `(file, line)` and byte-deterministic for a given input set. A
/// `crates/<dir>/Cargo.toml` entry is not audited itself: its `adn-*`
/// `[dependencies]` bound which crates a call from `<dir>` can widen to
/// (a crate without one widens everywhere).
pub fn audit_files(files: &[(String, String)]) -> Vec<Diagnostic> {
    let is_manifest = |rel: &str| rel.ends_with("Cargo.toml");
    let deps = crate_deps(files.iter().filter(|(rel, _)| is_manifest(rel)));
    let files: Vec<&(String, String)> = files.iter().filter(|(rel, _)| !is_manifest(rel)).collect();
    struct Prep {
        lexed: Lexed,
        test_spans: Vec<(u32, u32)>,
        ann: Annotations,
        ast: FileAst,
    }
    let mut preps = Vec::with_capacity(files.len());
    for (rel, src) in &files {
        let lexed = lexer::lex(src);
        let test_spans = cfg_test_spans(src, &lexed.toks);
        let ann = collect_annotations(rel, src, &lexed);
        let ast = parse::parse(src, &lexed, &test_spans);
        preps.push(Prep {
            lexed,
            test_spans,
            ann,
            ast,
        });
    }

    let mut diags = Vec::new();
    for ((rel, src), p) in files.iter().zip(&preps) {
        diags.extend(p.ann.errors.iter().cloned());
        if DETERMINISM_SCOPES.iter().any(|pre| rel.starts_with(pre)) {
            determinism_pass(rel, src, &p.lexed.toks, &p.test_spans, &mut diags);
        }
        unsafety_pass(rel, src, &p.lexed, &mut diags);
        crate_root_pass(rel, src, &p.lexed.toks, &mut diags);
        for &region in p.ann.no_alloc_regions.iter().chain(&p.ann.contract_regions) {
            region_pass(rel, src, &p.lexed.toks, region, &mut diags);
        }
        layering_pass(
            rel,
            src,
            p.ast.uses.as_slice(),
            &p.lexed.toks,
            &p.test_spans,
            &mut diags,
        );
    }

    // Workspace passes over the library-crate subset.
    let mut gfiles = Vec::new();
    for ((rel, src), p) in files.iter().zip(&preps) {
        let Some(crate_dir) = rel
            .strip_prefix("crates/")
            .and_then(|r| r.split('/').next())
        else {
            continue;
        };
        if !DETERMINISM_SCOPES.iter().any(|pre| rel.starts_with(pre)) {
            continue;
        }
        gfiles.push(GraphFile {
            rel,
            src,
            lexed: &p.lexed,
            ast: &p.ast,
            crate_name: format!("adn_{crate_dir}"),
            no_alloc_regions: &p.ann.no_alloc_regions,
            contract_regions: &p.ann.contract_regions,
        });
    }
    for finding in graph::reach_pass(&gfiles, &deps) {
        let lint = match finding.kind {
            BannedKind::Alloc => "alloc-reach",
            BannedKind::Panic => "panic-reach",
        };
        diags.push(diag(&finding.file, finding.line, lint, finding.message));
    }

    // Suppressions, then the deterministic output order. The sort is
    // stable, so same-line findings keep pass order (annotation errors
    // first, graph findings last).
    let ann_by_file: BTreeMap<&str, &Annotations> = files
        .iter()
        .zip(&preps)
        .map(|((rel, _), p)| (rel.as_str(), &p.ann))
        .collect();
    diags.retain(|d| {
        ann_by_file
            .get(d.file.as_str())
            .is_none_or(|ann| !ann.suppressed(d.lint, d.line))
    });
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
        if path.join("Cargo.toml").is_file() {
            files.push(format!("{dir}/Cargo.toml"));
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

/// Reads the `crates/<dir>/Cargo.toml` manifests among `manifests` into
/// `adn_<dir>` → every `adn_*` crate it depends on, transitively
/// (`[dependencies]` only: dev-dependencies never reach library code).
fn crate_deps<'a>(manifests: impl Iterator<Item = &'a (String, String)>) -> graph::CrateDeps {
    let mut deps = graph::CrateDeps::new();
    for (rel, manifest) in manifests {
        let Some(dir) = rel
            .strip_prefix("crates/")
            .and_then(|r| r.strip_suffix("/Cargo.toml"))
        else {
            continue;
        };
        let section = manifest
            .split("\n[")
            .find_map(|s| s.strip_prefix("dependencies]"))
            .unwrap_or("");
        let direct = section
            .lines()
            .filter_map(|l| l.trim().split(['.', ' ', '=']).next())
            .filter(|key| key.starts_with("adn-"))
            .map(|key| key.replace('-', "_"));
        deps.insert(format!("adn_{dir}"), direct.collect());
    }
    // Transitive closure; the crate graph is tiny.
    loop {
        let mut grown = false;
        for name in deps.keys().cloned().collect::<Vec<_>>() {
            let reach: Vec<String> = deps[&name]
                .iter()
                .filter_map(|d| deps.get(d))
                .flatten()
                .cloned()
                .collect();
            let own = deps.get_mut(&name).expect("key just listed");
            for r in reach {
                grown |= own.insert(r);
            }
        }
        if !grown {
            return deps;
        }
    }
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

/// Renders diagnostics as a machine-readable JSON report (the CLI's
/// `--json` mode). Schema: `{"findings": [{"file", "line", "lint",
/// "message"}], "count": N}`.
pub fn json_report(diags: &[Diagnostic]) -> String {
    let mut out = String::from("{\"findings\":[");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"file\":\"{}\",\"line\":{},\"lint\":\"{}\",\"message\":\"{}\"}}",
            json_escape(&d.file),
            d.line,
            d.lint,
            json_escape(&d.message)
        ));
    }
    out.push_str(&format!("],\"count\":{}}}", diags.len()));
    out
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Annotations: `// audit: no-alloc` / `// audit: no-alloc-fn` regions and
// `// audit: allow(...)`.

struct Annotations {
    /// Token index ranges `(open_brace, close_brace)` of no-alloc block
    /// regions.
    no_alloc_regions: Vec<(usize, usize)>,
    /// Body ranges of `// audit: no-alloc-fn` contract functions.
    contract_regions: Vec<(usize, usize)>,
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
        contract_regions: Vec::new(),
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
            match bind_region(src, &lexed.toks, c, false) {
                Ok(region) => out.no_alloc_regions.push(region),
                Err(msg) => out
                    .errors
                    .push(diag(rel, c.first_line, "annotation", msg.to_string())),
            }
        } else if rest == "no-alloc-fn" {
            match bind_region(src, &lexed.toks, c, true) {
                Ok(region) => out.contract_regions.push(region),
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
                format!("unrecognized audit directive `{rest}` (expected `no-alloc`, `no-alloc-fn`, or `allow(<lint>) — why`)"),
            ));
        }
    }
    out
}

/// Binds a `no-alloc`/`no-alloc-fn` annotation to the next braced block:
/// the first `{` after the comment, matched to its closing `}`. A `;`
/// outside any parens/brackets before that `{` means the annotation
/// precedes a non-block item — an error. With `require_fn`, an ident
/// `fn` must additionally appear before the brace (the contract form
/// binds to a function definition, not an arbitrary block).
fn bind_region(
    src: &str,
    toks: &[Tok],
    c: &Comment,
    require_fn: bool,
) -> Result<(usize, usize), String> {
    let which = if require_fn {
        "no-alloc-fn"
    } else {
        "no-alloc"
    };
    let start = toks
        .iter()
        .position(|t| t.line > c.last_line || (t.line == c.last_line && t.start >= c.end))
        .ok_or_else(|| format!("`audit: {which}` is not followed by any code"))?;
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
                return Err(format!(
                    "`audit: {which}` must precede a braced block, found `;` first"
                ));
            }
            _ => {}
        }
    }
    let open = open.ok_or_else(|| format!("`audit: {which}` is not followed by a braced block"))?;
    if require_fn && !toks[start..open].iter().any(|t| t.is_ident(src, "fn")) {
        return Err(
            "`audit: no-alloc-fn` must precede a function definition (no `fn` before the block)"
                .to_string(),
        );
    }
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
    let exempt = |line: u32| test_spans.iter().any(|&(a, b)| a <= line && line <= b);
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || exempt(t.line) {
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
// Passes 4+5: no-alloc / no-panic inside annotated regions (both the
// block form and `no-alloc-fn` contract bodies).

fn region_pass(
    rel: &str,
    src: &str,
    toks: &[Tok],
    (open, close): (usize, usize),
    diags: &mut Vec<Diagnostic>,
) {
    if toks.is_empty() {
        return;
    }
    for i in open..=close.min(toks.len() - 1) {
        let Some(b) = graph::classify_banned(toks, src, i) else {
            continue;
        };
        match (b.kind, b.construct) {
            (BannedKind::Alloc, c) => diags.push(diag(
                rel,
                b.line,
                "no-alloc",
                format!("`{c}` allocates inside a `// audit: no-alloc` region"),
            )),
            (BannedKind::Panic, "panic!") => diags.push(diag(
                rel,
                b.line,
                "no-panic",
                "`panic!` inside a `// audit: no-alloc` region".to_string(),
            )),
            (BannedKind::Panic, c) => diags.push(diag(
                rel,
                b.line,
                "no-panic",
                format!(
                    "`{c}` may panic inside a `// audit: no-alloc` region; handle the case or `audit: allow(no-panic)` it with a justification"
                ),
            )),
        }
    }
}

// ---------------------------------------------------------------------------
// Pass 6: layering — the crate DAG and the threading allowlist.

fn layering_pass(
    rel: &str,
    src: &str,
    uses: &[parse::UseItem],
    toks: &[Tok],
    test_spans: &[(u32, u32)],
    diags: &mut Vec<Diagnostic>,
) {
    let exempt = |line: u32| test_spans.iter().any(|&(a, b)| a <= line && line <= b);
    // A crate's own bins/tests may always use their own lib by name.
    let own = rel
        .strip_prefix("crates/")
        .and_then(|r| r.split('/').next())
        .map(|dir| format!("adn_{dir}"));
    let scope = LAYERING.iter().find(|(pre, _)| rel.starts_with(pre));
    if let Some((_, allowed)) = scope {
        // One finding per (line, crate), however many leaves the use
        // tree flattens to.
        let mut seen: std::collections::BTreeSet<(u32, &str)> = std::collections::BTreeSet::new();
        for u in uses {
            let Some(first) = u.segs.first() else {
                continue;
            };
            if !first.starts_with("adn_") || exempt(u.line) {
                continue;
            }
            if own.as_deref() == Some(first.as_str()) {
                continue;
            }
            if !allowed.contains(&first.as_str()) && seen.insert((u.line, first.as_str())) {
                diags.push(diag(
                    rel,
                    u.line,
                    "layering",
                    format!(
                        "`use {first}` inverts the crate DAG (allowed here: {}); the layering is types → graph/net/faults → adversary/core → sim → bench",
                        if allowed.is_empty() {
                            "none".to_string()
                        } else {
                            allowed.join(", ")
                        }
                    ),
                ));
            }
        }
    }

    // Threading confinement: library crates only, minus the pool file.
    if !DETERMINISM_SCOPES.iter().any(|pre| rel.starts_with(pre))
        || THREADING_ALLOWLIST.contains(&rel)
    {
        return;
    }
    // One finding per (line, module): a use tree with several leaves —
    // or a `use` whose tokens the inline scan also sees — flags once.
    let mut flagged: std::collections::BTreeSet<(u32, &str)> = std::collections::BTreeSet::new();
    let mut pending: Vec<(u32, &'static str)> = Vec::new();
    for u in uses {
        if u.segs.len() >= 2 && u.segs[0] == "std" && !exempt(u.line) {
            match u.segs[1].as_str() {
                "thread" => pending.push((u.line, "std::thread")),
                "sync" => pending.push((u.line, "std::sync")),
                _ => {}
            }
        }
    }
    // Inline qualified paths (`std::sync::Mutex::new(…)`) that bypass a
    // `use` statement.
    for (i, t) in toks.iter().enumerate() {
        if t.is_ident(src, "std") && !exempt(t.line) {
            if path_seg(toks, src, i, "thread") {
                pending.push((t.line, "std::thread"));
            } else if path_seg(toks, src, i, "sync") {
                pending.push((t.line, "std::sync"));
            }
        }
    }
    pending.sort();
    for (line, what) in pending {
        if flagged.insert((line, what)) {
            diags.push(diag(
                rel,
                line,
                "layering",
                format!(
                    "`{what}` is confined to {} (the TrialPool and the shard fan-out)",
                    THREADING_ALLOWLIST.join(" and ")
                ),
            ));
        }
    }
}
