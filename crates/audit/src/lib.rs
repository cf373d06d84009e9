//! `adn-audit` — a dependency-free static-analysis pass for this
//! workspace's determinism, allocation, threading, and unsafety
//! invariants.
//!
//! The reproduction's correctness story rests on three *dynamic*
//! guarantees: byte-identical `run_all` output, zero steady-state
//! allocations (pinned by the counting allocator in
//! `tests/alloc_free.rs`), and no `unsafe` in any crate.
//! Dynamic checks only catch what a test run executes; this crate
//! enforces the same contracts *statically*, over every source file,
//! with five lints:
//!
//! | lint          | scope                              | bans |
//! |---------------|------------------------------------|------|
//! | `determinism` | `crates/{types,graph,adversary,faults,net,core,sim,analysis}/src/` | `HashMap`/`HashSet`, `RandomState`, `Instant::now`, `SystemTime`, thread-identity reads (exempt under `#[cfg(test)]`) |
//! | `unsafety`    | everywhere                         | `unsafe` outside the allowlist; `unsafe` blocks/impls without an adjacent `// SAFETY:` note; crate roots missing `#![forbid(unsafe_code)]` |
//! | `no-alloc`    | `// audit: no-alloc` regions       | `Vec::new`, `vec![`, `to_vec`, `collect`, `clone`, `Box::new`, `format!`, `String::from` |
//! | `no-panic`    | same regions                       | `unwrap`, `expect`, `panic!` (slice indexing stays allowed — it is the plane idiom) |
//! | `threading`   | the same eight crates              | `std::thread`/`std::sync` (inline or in a `use std::{…}` group) outside adn-sim's `pool.rs` (exempt under `#[cfg(test)]`) |
//!
//! Annotation grammar (in comments, so the source stays plain Rust):
//!
//! * `// audit: no-alloc` — marks the next braced block (a function body
//!   or a bare block) as a hot-path region subject to the `no-alloc` and
//!   `no-panic` lints.
//! * `// audit: allow(<lint>) — <justification>` — suppresses `<lint>`
//!   on its own line and the next code line. The justification is
//!   mandatory; an allow without one (or naming an unknown lint) is
//!   itself reported under the `annotation` lint and suppresses nothing.
//!
//! Every lint is a statement about token sequences, attribute spans, or
//! comment adjacency within one file, so the [`lexer`] alone carries
//! them. What the audit leaves to others: what a region's *callees*
//! allocate is measured exactly by `tests/alloc_free.rs`'s counting
//! allocator, and which crate may depend on which is cargo's to enforce.
//! The tool stays self-auditing: it walks its own sources, where banned
//! names appear only inside string literals and comments, which never
//! produce code tokens.

#![forbid(unsafe_code)]

pub mod lexer;
mod lints;

pub use lints::{audit_files, audit_source, audit_workspace, Diagnostic, LINTS};
