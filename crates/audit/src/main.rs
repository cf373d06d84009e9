//! CLI for the workspace static-analysis pass.
//!
//! ```text
//! cargo run --release -p adn-audit -- --workspace [--github]
//! ```
//!
//! Prints one `file:line: lint-name: message` diagnostic per finding and
//! exits 1 if there are any (2 on usage or I/O errors). The workspace
//! root is this crate's grandparent directory, resolved at compile time,
//! so the binary works from any current directory. Crates are discovered
//! from the root `Cargo.toml` members list and walked in sorted path
//! order, so the output is byte-identical across runs, platforms, and
//! filesystems. `--github` prints GitHub Actions workflow annotations
//! (`::error file=…,line=…::…`) instead, so CI failures show inline on
//! the PR.

use std::path::Path;
use std::process::ExitCode;

fn usage() {
    eprintln!("usage: adn-audit --workspace [--github]");
    eprintln!("  --workspace   audit every .rs file under the workspace root");
    eprintln!("  --github      emit findings as GitHub Actions annotations");
}

fn main() -> ExitCode {
    let root = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
    let mut workspace = false;
    let mut github = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--workspace" => workspace = true,
            "--github" => github = true,
            "--help" | "-h" => {
                usage();
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("adn-audit: unknown argument `{other}`");
                usage();
                return ExitCode::from(2);
            }
        }
    }
    if !workspace {
        usage();
        return ExitCode::from(2);
    }
    match adn_audit::audit_workspace(root) {
        Err(err) => {
            eprintln!("adn-audit: {err}");
            ExitCode::from(2)
        }
        Ok(diags) => {
            for d in &diags {
                if github {
                    // `::error` annotation values must stay on one line;
                    // messages never contain newlines, but escape anyway.
                    let msg = format!("{}: {}", d.lint, d.message).replace('\n', "%0A");
                    println!("::error file={},line={}::{}", d.file, d.line, msg);
                } else {
                    println!("{d}");
                }
            }
            if diags.is_empty() {
                eprintln!("adn-audit: workspace clean ({})", root.display());
                ExitCode::SUCCESS
            } else {
                eprintln!("adn-audit: {} finding(s)", diags.len());
                ExitCode::FAILURE
            }
        }
    }
}
