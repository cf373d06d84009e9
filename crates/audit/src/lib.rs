//! `adn-audit` — a dependency-free static-analysis pass for this
//! workspace's determinism, allocation, layering, and unsafety
//! invariants.
//!
//! The reproduction's correctness story rests on three *dynamic*
//! guarantees: byte-identical `run_all` output, zero steady-state
//! allocations (pinned by the counting allocator in
//! `tests/alloc_free.rs`), and no `unsafe` in any crate.
//! Dynamic checks only catch what a test run executes; this crate
//! enforces the same contracts *statically*, over every source file,
//! with seven lints:
//!
//! | lint          | scope                              | bans |
//! |---------------|------------------------------------|------|
//! | `determinism` | `crates/{types,graph,adversary,faults,net,core,sim,analysis}/src/` | `HashMap`/`HashSet`, `RandomState`, `Instant::now`, `SystemTime`, thread-identity reads (exempt under `#[cfg(test)]`) |
//! | `unsafety`    | everywhere                         | `unsafe` outside the allowlist; `unsafe` blocks/impls without an adjacent `// SAFETY:` note; crate roots missing `#![forbid(unsafe_code)]` |
//! | `no-alloc`    | `// audit: no-alloc` regions and `// audit: no-alloc-fn` bodies | `Vec::new`, `vec![`, `to_vec`, `collect`, `clone`, `Box::new`, `format!`, `String::from` |
//! | `no-panic`    | same regions                       | `unwrap`, `expect`, `panic!` (slice indexing stays allowed — it is the plane idiom) |
//! | `alloc-reach` | fns transitively reachable from a region via the call graph | the `no-alloc` construct set, reported with the call chain |
//! | `panic-reach` | same reachability                  | the `no-panic` construct set, reported with the call chain |
//! | `layering`    | library crates                     | `use adn_*` edges that invert the crate DAG; `std::thread`/`std::sync` outside adn-sim's `pool.rs` |
//!
//! Annotation grammar (in comments, so the source stays plain Rust):
//!
//! * `// audit: no-alloc` — marks the next braced block as a hot-path
//!   region subject to the `no-alloc` and `no-panic` lints.
//! * `// audit: no-alloc-fn` — marks the next **function** as an
//!   alloc/panic-free contract: its body is checked like a region, and
//!   callers inside audited regions may trust it without re-deriving its
//!   obligations (the reach pass stops at contract boundaries).
//! * `// audit: allow(<lint>) — <justification>` — suppresses `<lint>`
//!   on its own line and the next code line. The justification is
//!   mandatory; an allow without one (or naming an unknown lint) is
//!   itself reported under the `annotation` lint and suppresses nothing.
//!
//! The first four lints are statements about token sequences, attribute
//! spans, or comment adjacency, so the lexer alone carries them. The
//! graph lints additionally need *items*: [`parse`](crate::lexer) feeds
//! a dependency-free recursive-descent item parser (`parse.rs`) that
//! extracts fn items, impl blocks, traits, `use` trees, and call sites;
//! `graph.rs` assembles those into per-crate symbol tables and a
//! conservative call graph (crate-local resolution, trait-dispatch
//! widening — see its module docs for the exact rules). The tool stays
//! self-auditing: it walks its own sources, where banned names appear
//! only inside string literals and comments, which never produce code
//! tokens.

#![forbid(unsafe_code)]

mod graph;
pub mod lexer;
mod lints;
mod parse;

pub use lints::{audit_files, audit_source, audit_workspace, json_report, Diagnostic, LINTS};
