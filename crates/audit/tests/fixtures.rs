//! Per-lint fixtures for the audit engine: one true positive and one
//! true negative per lint, the suppression grammar in both its accepted
//! and rejected forms, and a self-run over the live workspace asserting
//! zero findings at HEAD.
//!
//! Every fixture lives in a raw string, which the audit's own lexer
//! turns into a single literal token — so this file is safe under the
//! self-audit even though the snippets contain every banned construct.

use adn_audit::{audit_source, Diagnostic};

/// Renders findings as `line: lint: message` for compact exact-match
/// assertions (the file column is the fixture path, identical per test).
fn lines(diags: &[Diagnostic]) -> Vec<String> {
    diags
        .iter()
        .map(|d| format!("{}: {}: {}", d.line, d.lint, d.message))
        .collect()
}

// ---------------------------------------------------------------------------
// determinism

#[test]
fn determinism_positive_hash_collections_and_clocks() {
    let src = r#"
use std::collections::HashMap;
fn f() {
    let m: HashMap<u32, u32> = HashMap::new();
    let t = std::time::Instant::now();
}
"#;
    let diags = audit_source("crates/core/src/fake.rs", src);
    assert_eq!(
        lines(&diags),
        vec![
            "2: determinism: `HashMap` iteration order is nondeterministic; use BTreeMap/BTreeSet or a dense index",
            "4: determinism: `HashMap` iteration order is nondeterministic; use BTreeMap/BTreeSet or a dense index",
            "4: determinism: `HashMap` iteration order is nondeterministic; use BTreeMap/BTreeSet or a dense index",
            "5: determinism: `Instant::now` is wall-clock; only adn-bench and #[cfg(test)] code may read it",
        ]
    );
}

#[test]
fn determinism_negative_btree_and_out_of_scope() {
    // BTree collections and an `Instant` that is never `now()`-read are fine.
    let clean = r#"
use std::collections::BTreeMap;
fn f(t: std::time::Instant) -> BTreeMap<u32, u32> { BTreeMap::new() }
"#;
    assert!(audit_source("crates/core/src/fake.rs", clean).is_empty());

    // The same banned source is out of scope in adn-bench and in the
    // root test harnesses.
    let banned = "fn f() { let t = std::time::Instant::now(); }";
    assert!(audit_source("crates/bench/src/fake.rs", banned).is_empty());
    assert!(audit_source("tests/fake.rs", banned).is_empty());
}

#[test]
fn determinism_exempts_cfg_test_items() {
    let src = r#"
fn prod() {}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;
    #[test]
    fn uses_hash() {
        let s: HashSet<u32> = HashSet::new();
    }
}
"#;
    assert!(audit_source("crates/types/src/fake.rs", src).is_empty());
}

#[test]
fn determinism_does_not_exempt_cfg_not_test() {
    let src = r#"
#[cfg(not(test))]
fn prod() {
    let t = std::time::SystemTime::now();
}
"#;
    let diags = audit_source("crates/types/src/fake.rs", src);
    assert_eq!(
        lines(&diags),
        vec![
            "4: determinism: wall-clock reads are only allowed in adn-bench and #[cfg(test)] code"
        ]
    );
}

#[test]
fn determinism_ignores_strings_and_comments() {
    let src = r##"
// HashMap in a comment is fine.
fn f() -> &'static str {
    let s = "HashMap::new()";
    let r = r#"SystemTime and RandomState in a raw string"#;
    s
}
"##;
    assert!(audit_source("crates/core/src/fake.rs", src).is_empty());
}

#[test]
fn determinism_suppressed_with_justification() {
    let src = r#"
fn f() {
    // audit: allow(determinism) — diagnostic-only counter, value never branches
    let t = std::time::Instant::now();
}
"#;
    assert!(audit_source("crates/core/src/fake.rs", src).is_empty());
}

#[test]
fn determinism_suppressed_without_justification_is_an_error() {
    let src = r#"
fn f() {
    // audit: allow(determinism)
    let t = std::time::Instant::now();
}
"#;
    let diags = audit_source("crates/core/src/fake.rs", src);
    assert_eq!(
        lines(&diags),
        vec![
            "3: annotation: `audit: allow(determinism)` requires a trailing justification (`— why`)",
            "4: determinism: `Instant::now` is wall-clock; only adn-bench and #[cfg(test)] code may read it",
        ],
        "a bare allow must both be reported and suppress nothing"
    );
}

// ---------------------------------------------------------------------------
// unsafety

#[test]
fn unsafety_positive_outside_allowlist() {
    let src = r#"
fn f(p: *const u32) -> u32 {
    unsafe { *p }
}
"#;
    let diags = audit_source("crates/graph/src/fake.rs", src);
    assert_eq!(
        lines(&diags),
        vec!["3: unsafety: `unsafe` outside the audit allowlist (tests/alloc_free.rs)"]
    );
}

#[test]
fn unsafety_allowlisted_file_requires_safety_comment() {
    // Same snippet, audited as the allowlisted allocation pin: the
    // location is legal but the missing SAFETY note is not.
    let bare = r#"
fn f(p: *const u32) -> u32 {
    unsafe { *p }
}
"#;
    let diags = audit_source("tests/alloc_free.rs", bare);
    assert_eq!(
        lines(&diags),
        vec!["3: unsafety: `unsafe` block/impl must be immediately preceded by a `// SAFETY:` comment"]
    );

    let documented = r#"
fn f(p: *const u32) -> u32 {
    // SAFETY: callers pass a pointer derived from a live &u32.
    unsafe { *p }
}
"#;
    assert!(audit_source("tests/alloc_free.rs", documented).is_empty());
}

#[test]
fn unsafety_multiline_safety_block_counts() {
    let src = r#"
struct J(*const u32);
// SAFETY: the pointee is Sync and outlives every use —
// publication and retirement both happen under the run borrow.
unsafe impl Send for J {}
"#;
    assert!(audit_source("tests/alloc_free.rs", src).is_empty());
}

#[test]
fn unsafety_unsafe_fn_declaration_is_exempt() {
    // The declaration itself needs no SAFETY note — the blocks inside do.
    let src = r#"
unsafe fn g(p: *const u32) -> u32 {
    // SAFETY: g's contract requires p valid for reads.
    unsafe { *p }
}
"#;
    assert!(audit_source("tests/alloc_free.rs", src).is_empty());
}

#[test]
fn unsafety_crate_root_attribute_required() {
    let missing = "//! A crate.\npub fn f() {}\n";
    let diags = audit_source("crates/types/src/lib.rs", missing);
    assert_eq!(
        lines(&diags),
        vec!["1: unsafety: crate root must declare `#![forbid(unsafe_code)]`"]
    );
    let present = "//! A crate.\n#![forbid(unsafe_code)]\npub fn f() {}\n";
    assert!(audit_source("crates/types/src/lib.rs", present).is_empty());

    // adn-sim is held to the same attribute as every other crate: the
    // weaker one it carried while it hosted `unsafe` no longer passes.
    let sim_weaker = "//! The sim crate.\n#![deny(unsafe_op_in_unsafe_fn)]\n";
    let diags = audit_source("crates/sim/src/lib.rs", sim_weaker);
    assert_eq!(
        lines(&diags),
        vec!["1: unsafety: crate root must declare `#![forbid(unsafe_code)]`"]
    );
}

#[test]
fn unsafety_suppression_grammar() {
    let with = r#"
fn f(p: *const u32) -> u32 {
    // audit: allow(unsafety) — vetted intrinsic shim, tracked for promotion into the allowlist
    unsafe { *p }
}
"#;
    assert!(audit_source("crates/graph/src/fake.rs", with).is_empty());

    let without = r#"
fn f(p: *const u32) -> u32 {
    // audit: allow(unsafety)
    unsafe { *p }
}
"#;
    let diags = audit_source("crates/graph/src/fake.rs", without);
    assert_eq!(
        diags.len(),
        2,
        "annotation error plus the unsuppressed finding: {diags:?}"
    );
    assert_eq!(diags[0].lint, "annotation");
    assert_eq!(diags[1].lint, "unsafety");
}

// ---------------------------------------------------------------------------
// no-alloc / no-panic

#[test]
fn no_alloc_positive_all_banned_constructs() {
    let src = r#"
// audit: no-alloc
fn hot(xs: &[u32]) {
    let a: Vec<u32> = Vec::new();
    let b = vec![1u32];
    let c = xs.to_vec();
    let d: Vec<u32> = xs.iter().copied().collect();
    let e = a.clone();
    let f = Box::new(1u32);
    let g = format!("x");
    let h = String::from("y");
}
"#;
    let diags = audit_source("crates/graph/src/fake.rs", src);
    let found: Vec<(u32, &str)> = diags.iter().map(|d| (d.line, d.lint)).collect();
    assert_eq!(
        found,
        vec![
            (4, "no-alloc"),
            (5, "no-alloc"),
            (6, "no-alloc"),
            (7, "no-alloc"),
            (8, "no-alloc"),
            (9, "no-alloc"),
            (10, "no-alloc"),
            (11, "no-alloc"),
        ]
    );
}

#[test]
fn no_alloc_negative_arena_idiom() {
    // The capacity-reuse idiom the planes actually use: clear + push +
    // extend_from_slice + mem::take + sort + slice indexing, all allowed.
    let src = r#"
// audit: no-alloc
fn hot(scratch: &mut Vec<u32>, xs: &[u32]) -> u32 {
    scratch.clear();
    scratch.extend_from_slice(xs);
    scratch.push(7);
    scratch.sort_unstable();
    let staged = std::mem::take(scratch);
    *scratch = staged;
    assert!(!scratch.is_empty(), "refilled above");
    scratch[0]
}
"#;
    assert!(audit_source("crates/graph/src/fake.rs", src).is_empty());
}

#[test]
fn no_alloc_region_is_bounded() {
    // The same constructs outside the annotated block are not findings.
    let src = r#"
// audit: no-alloc
fn hot(xs: &[u32]) -> u32 { xs[0] }

fn setup(xs: &[u32]) -> Vec<u32> {
    let mut v = xs.to_vec();
    v.clone()
}
"#;
    assert!(audit_source("crates/graph/src/fake.rs", src).is_empty());
}

#[test]
fn no_panic_positive_and_slice_indexing_allowed() {
    let src = r#"
// audit: no-alloc
fn hot(xs: &[u32], o: Option<u32>) -> u32 {
    let a = o.unwrap();
    let b = o.expect("present");
    if xs.is_empty() {
        panic!("empty");
    }
    xs[0] + a + b
}
"#;
    let diags = audit_source("crates/graph/src/fake.rs", src);
    let found: Vec<(u32, &str)> = diags.iter().map(|d| (d.line, d.lint)).collect();
    assert_eq!(
        found,
        vec![(4, "no-panic"), (5, "no-panic"), (7, "no-panic")]
    );
}

#[test]
fn no_panic_unwrap_or_variants_are_not_unwrap() {
    let src = r#"
// audit: no-alloc
fn hot(o: Option<u32>) -> u32 {
    o.unwrap_or(0) + o.unwrap_or_else(|| 1) + o.unwrap_or_default()
}
"#;
    assert!(audit_source("crates/graph/src/fake.rs", src).is_empty());
}

#[test]
fn no_panic_suppressed_with_justification() {
    let src = r#"
// audit: no-alloc
fn hot(o: Option<u32>) -> u32 {
    // audit: allow(no-panic) — slot is populated by construction in new()
    o.expect("populated")
}
"#;
    assert!(audit_source("crates/sim/src/fake.rs", src).is_empty());
}

#[test]
fn no_panic_suppressed_without_justification_is_an_error() {
    let src = r#"
// audit: no-alloc
fn hot(o: Option<u32>) -> u32 {
    // audit: allow(no-panic)
    o.expect("populated")
}
"#;
    let diags = audit_source("crates/sim/src/fake.rs", src);
    assert_eq!(diags.len(), 2, "{diags:?}");
    assert_eq!((diags[0].line, diags[0].lint), (4, "annotation"));
    assert_eq!((diags[1].line, diags[1].lint), (5, "no-panic"));
}

// ---------------------------------------------------------------------------
// annotation grammar

#[test]
fn annotation_unknown_lint_is_an_error() {
    let src = r#"
fn f() {
    // audit: allow(no-such-lint) — misspelled
    let x = 1;
}
"#;
    let diags = audit_source("crates/core/src/fake.rs", src);
    assert_eq!(
        lines(&diags),
        vec![
            "3: annotation: `audit: allow(no-such-lint)` names an unknown lint (known: determinism, unsafety, no-alloc, no-panic, alloc-reach, panic-reach, layering)"
        ]
    );
}

#[test]
fn annotation_no_alloc_must_precede_a_block() {
    let src = r#"
// audit: no-alloc
use std::collections::BTreeMap;
fn f() {}
"#;
    let diags = audit_source("crates/core/src/fake.rs", src);
    assert_eq!(
        lines(&diags),
        vec!["2: annotation: `audit: no-alloc` must precede a braced block, found `;` first"]
    );
}

#[test]
fn annotation_unrecognized_directive_is_an_error() {
    let src = "// audit: no-allocs\nfn f() {}\n";
    let diags = audit_source("crates/core/src/fake.rs", src);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].lint, "annotation");
}

// ---------------------------------------------------------------------------
// diagnostics format and the live workspace

#[test]
fn diagnostic_display_is_file_line_lint_message() {
    let diags = audit_source("crates/net/src/fake.rs", "fn f() { unsafe {} }\n");
    assert_eq!(diags.len(), 1);
    assert_eq!(
        diags[0].to_string(),
        "crates/net/src/fake.rs:1: unsafety: `unsafe` outside the audit allowlist (tests/alloc_free.rs)"
    );
}

#[test]
fn workspace_is_clean_at_head() {
    let root = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
    let diags = adn_audit::audit_workspace(root).expect("workspace walk");
    assert!(
        diags.is_empty(),
        "the audit must run clean at HEAD; findings:\n{}",
        diags
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

// ---------------------------------------------------------------------------
// alloc-reach / panic-reach: the interprocedural extension

#[test]
fn alloc_reach_positive_direct_call() {
    let src = r#"
fn helper(xs: &[u32]) -> Vec<u32> {
    xs.iter().copied().collect()
}
fn drive(xs: &[u32]) {
    // audit: no-alloc
    {
        helper(xs);
    }
}
"#;
    let diags = audit_source("crates/core/src/fake.rs", src);
    assert_eq!(
        lines(&diags),
        vec![
            "3: alloc-reach: `collect` allocates in `helper`, reachable from the `// audit: no-alloc` region at crates/core/src/fake.rs:7"
        ]
    );
}

#[test]
fn alloc_reach_positive_transitive_chain() {
    let src = r#"
fn a() { b(); }
fn b() { let v = vec![1]; }
fn drive() {
    // audit: no-alloc
    {
        a();
    }
}
"#;
    let diags = audit_source("crates/core/src/fake.rs", src);
    assert_eq!(
        lines(&diags),
        vec![
            "3: alloc-reach: `vec!` allocates in `b`, reachable from the `// audit: no-alloc` region at crates/core/src/fake.rs:6 via `a` → `b`"
        ]
    );
}

#[test]
fn alloc_reach_positive_trait_dispatch_widening() {
    // `f.fill()` has no receiver type, so it widens to every known
    // method of that name — including `A`'s allocating impl.
    let src = r#"
pub trait Filler {
    fn fill(&mut self);
}
pub struct A;
impl Filler for A {
    fn fill(&mut self) {
        let v = vec![1];
    }
}
fn drive(f: &mut dyn Filler) {
    // audit: no-alloc
    {
        f.fill();
    }
}
"#;
    let diags = audit_source("crates/core/src/fake.rs", src);
    assert_eq!(
        lines(&diags),
        vec![
            "8: alloc-reach: `vec!` allocates in `fill`, reachable from the `// audit: no-alloc` region at crates/core/src/fake.rs:13"
        ]
    );
}

#[test]
fn alloc_reach_negative_clean_callee_and_out_of_scope() {
    // A clean transitive chain produces nothing.
    let clean = r#"
fn helper(x: &mut u32) { *x += 1; }
fn drive(x: &mut u32) {
    // audit: no-alloc
    {
        helper(x);
    }
}
"#;
    assert!(audit_source("crates/core/src/fake.rs", clean).is_empty());

    // Allocation outside any region, never called from one: fine.
    let cold = "fn cold() -> Vec<u32> { vec![1] }\n";
    assert!(audit_source("crates/core/src/fake.rs", cold).is_empty());
}

#[test]
fn alloc_reach_suppressed_with_justification() {
    let src = r#"
fn helper() {
    // audit: allow(alloc-reach) — one-time lazy init, not steady state
    let v = vec![1];
}
fn drive() {
    // audit: no-alloc
    {
        helper();
    }
}
"#;
    assert!(audit_source("crates/core/src/fake.rs", src).is_empty());
}

#[test]
fn panic_reach_positive_and_chain() {
    let src = r#"
fn pick(xs: &[u32]) -> u32 {
    *xs.iter().max().expect("non-empty")
}
fn drive(xs: &[u32]) {
    // audit: no-alloc
    {
        pick(xs);
    }
}
"#;
    let diags = audit_source("crates/core/src/fake.rs", src);
    assert_eq!(
        lines(&diags),
        vec![
            "3: panic-reach: `expect` may panic in `pick`, reachable from the `// audit: no-alloc` region at crates/core/src/fake.rs:7"
        ]
    );
}

#[test]
fn panic_reach_panic_macro_verb() {
    let src = r#"
fn boom() { panic!("no"); }
fn drive() {
    // audit: no-alloc
    {
        boom();
    }
}
"#;
    let diags = audit_source("crates/core/src/fake.rs", src);
    assert_eq!(
        lines(&diags),
        vec![
            "2: panic-reach: `panic!` panics in `boom`, reachable from the `// audit: no-alloc` region at crates/core/src/fake.rs:5"
        ]
    );
}

// ---------------------------------------------------------------------------
// the `no-alloc-fn` contract annotation

#[test]
fn no_alloc_fn_contract_violation_is_checked_at_definition() {
    let src = r#"
// audit: no-alloc-fn
fn hot() {
    let v = vec![1];
}
"#;
    let diags = audit_source("crates/core/src/fake.rs", src);
    assert_eq!(
        lines(&diags),
        vec!["4: no-alloc: `vec!` allocates inside a `// audit: no-alloc` region"]
    );
}

#[test]
fn no_alloc_fn_contract_is_trusted_at_call_sites_and_rooted_itself() {
    // The region trusts `hot` (no re-derivation through its body), but
    // `hot` is a reach root of its own: the helper it calls is flagged
    // against the contract, not against the region.
    let src = r#"
fn helper() {
    let v = vec![1];
}
// audit: no-alloc-fn
fn hot() {
    helper();
}
fn drive() {
    // audit: no-alloc
    {
        hot();
    }
}
"#;
    let diags = audit_source("crates/core/src/fake.rs", src);
    assert_eq!(
        lines(&diags),
        vec![
            "3: alloc-reach: `vec!` allocates in `helper`, reachable from the `// audit: no-alloc-fn` contract on `hot` at crates/core/src/fake.rs:6"
        ]
    );
}

#[test]
fn no_alloc_fn_must_precede_a_fn() {
    let src = r#"
// audit: no-alloc-fn
struct S {
    x: u32,
}
"#;
    let diags = audit_source("crates/core/src/fake.rs", src);
    assert_eq!(
        lines(&diags),
        vec![
            "2: annotation: `audit: no-alloc-fn` must precede a function definition (no `fn` before the block)"
        ]
    );
}

// ---------------------------------------------------------------------------
// layering

#[test]
fn layering_positive_dag_inversion() {
    let src = "use adn_sim::Engine;\nfn f() {}\n";
    let diags = audit_source("crates/graph/src/fake.rs", src);
    assert_eq!(
        lines(&diags),
        vec![
            "1: layering: `use adn_sim` inverts the crate DAG (allowed here: adn_types); the layering is types → graph/net/faults → adversary/core → sim → bench"
        ]
    );
}

#[test]
fn layering_negative_allowed_edges_and_self_use() {
    // sim may use its six upstream crates.
    let src = "use adn_core::Algorithm;\nuse adn_types::NodeId;\nfn f() {}\n";
    assert!(audit_source("crates/sim/src/fake.rs", src).is_empty());
    // A crate's own bins may use their own lib by name.
    let bin = "use adn_bench::Table;\nfn main() {}\n";
    assert!(audit_source("crates/bench/src/bin/fake.rs", bin).is_empty());
}

#[test]
fn layering_positive_std_sync_confinement() {
    let src = "use std::sync::Mutex;\nfn f() {}\n";
    let diags = audit_source("crates/core/src/fake.rs", src);
    assert_eq!(
        lines(&diags),
        vec![
            "1: layering: `std::sync` is confined to crates/sim/src/pool.rs (the TrialPool and the shard fan-out)"
        ]
    );
}

#[test]
fn layering_negative_pool_files_and_inline_paths_flagged_once() {
    // The pool file owns threading.
    let src = "use std::sync::Mutex;\nuse std::thread;\nfn f() {}\n";
    assert!(audit_source("crates/sim/src/pool.rs", src).is_empty());
    // An inline qualified path is caught even without a `use`, once.
    let inline = "fn f() { let m = std::sync::Mutex::new(0u32); }\n";
    let diags = audit_source("crates/net/src/fake.rs", inline);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].lint, "layering");
}

#[test]
fn layering_suppressed_with_justification() {
    let src = "// audit: allow(layering) — lock-free lazy init, not threading\nuse std::sync::OnceLock;\nfn f() {}\n";
    assert!(audit_source("crates/net/src/fake.rs", src).is_empty());
}

// ---------------------------------------------------------------------------
// workspace pipeline: cross-file reach, output determinism, --json shape

#[test]
fn reach_crosses_files_within_a_crate() {
    let files = vec![
        (
            "crates/core/src/a.rs".to_string(),
            "fn helper() { let v = vec![1]; }\n".to_string(),
        ),
        (
            "crates/core/src/b.rs".to_string(),
            "fn drive() {\n    // audit: no-alloc\n    {\n        helper();\n    }\n}\n"
                .to_string(),
        ),
    ];
    let diags = adn_audit::audit_files(&files);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].file, "crates/core/src/a.rs");
    assert_eq!(diags[0].lint, "alloc-reach");
}

/// The `row` finding: a no-alloc region in `adn-core` calls `.row()`, and
/// the only method of that name collects into a `Vec` in `callee_crate`.
fn row_widening(callee_crate: &str, manifests: &[(&str, &str)]) -> Vec<Diagnostic> {
    let mut files = vec![
        (
            "crates/core/src/plane.rs".to_string(),
            "fn reset(cols: &mut Cols) {\n    // audit: no-alloc\n    {\n        cols.row(0);\n    }\n}\n"
                .to_string(),
        ),
        (
            format!("crates/{callee_crate}/src/table.rs"),
            "impl Table {\n    fn row(&mut self, v: usize) { self.rows = self.cells.iter().collect(); }\n}\n"
                .to_string(),
        ),
    ];
    for (dir, deps) in manifests {
        let deps: String = deps
            .split_whitespace()
            .map(|d| format!("{d}.workspace = true\n"))
            .collect();
        files.push((
            format!("crates/{dir}/Cargo.toml"),
            format!("[package]\nname = \"adn-{dir}\"\n\n[dependencies]\n{deps}\n[dev-dependencies]\nadn-analysis.workspace = true\n"),
        ));
    }
    adn_audit::audit_files(&files)
}

#[test]
fn method_widening_stops_at_crates_the_caller_cannot_link() {
    let manifests = [("core", "adn-types adn-graph"), ("graph", "adn-types")];
    // Same method name in a non-dependency (a dev-dependency even): silent.
    assert!(row_widening("analysis", &manifests).is_empty());
    // In a dependency, direct or transitive: reported, in the callee.
    for callee in ["graph", "types"] {
        let diags = row_widening(callee, &[("core", "adn-graph"), ("graph", "adn-types")]);
        assert_eq!(diags.len(), 1, "{callee}: {diags:?}");
        assert_eq!(diags[0].file, format!("crates/{callee}/src/table.rs"));
        assert_eq!(diags[0].lint, "alloc-reach");
    }
    // Without the caller's manifest nothing bounds the widening.
    assert_eq!(row_widening("analysis", &[]).len(), 1);
    assert_eq!(row_widening("analysis", &[("graph", "")]).len(), 1);
}

#[test]
fn output_is_byte_identical_across_runs() {
    let render = |diags: &[Diagnostic]| {
        diags
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    };

    // The live workspace, twice (clean at HEAD, but the walk itself must
    // be stable).
    let root = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
    let a = adn_audit::audit_workspace(root).expect("workspace walk");
    let b = adn_audit::audit_workspace(root).expect("workspace walk");
    assert_eq!(render(&a), render(&b));

    // A finding-rich in-memory workspace, twice, with the files handed
    // over in non-sorted order: same bytes, sorted by (file, line).
    let files = vec![
        (
            "crates/graph/src/z.rs".to_string(),
            "use adn_sim::Engine;\nfn f() {\n    let m: std::collections::HashMap<u32, u32> = unreachable!();\n}\n"
                .to_string(),
        ),
        (
            "crates/core/src/a.rs".to_string(),
            "fn helper() -> u32 { [1u32].to_vec().len() as u32 }\nfn drive() {\n    // audit: no-alloc\n    {\n        helper();\n    }\n}\n"
                .to_string(),
        ),
    ];
    let x = adn_audit::audit_files(&files);
    let y = adn_audit::audit_files(&files);
    assert!(!x.is_empty());
    assert_eq!(render(&x), render(&y));
    let keys: Vec<(String, u32)> = x.iter().map(|d| (d.file.clone(), d.line)).collect();
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(
        keys, sorted,
        "findings must come out sorted by (file, line)"
    );
}

#[test]
fn json_report_shape() {
    let diags = audit_source("crates/net/src/fake.rs", "fn f() { unsafe {} }\n");
    let json = adn_audit::json_report(&diags);
    assert!(json.starts_with("{\"findings\":["), "{json}");
    assert!(
        json.contains("\"file\":\"crates/net/src/fake.rs\""),
        "{json}"
    );
    assert!(json.contains("\"line\":1"), "{json}");
    assert!(json.contains("\"lint\":\"unsafety\""), "{json}");
    assert!(json.ends_with(",\"count\":1}"), "{json}");
    assert_eq!(adn_audit::json_report(&[]), "{\"findings\":[],\"count\":0}");
}
