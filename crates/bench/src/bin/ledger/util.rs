//! Seed derivation, the outcome digest, and the environment stamp.

use std::process::Command;

use adn_types::rng::SplitMix64;

use crate::json::Json;

/// Derives one input seed from the run's `--seed` and a path of tags
/// (workload, cell, operation, purpose). `--seed` is the only randomness
/// input: every adversary, strategy, input vector and crash draw is seeded
/// through here, so the same `--seed` always gives the same inputs.
pub fn derive(seed: u64, tags: &[u64]) -> u64 {
    let mut x = seed ^ 0x6C65_6467_6572_0001; // "ledger"
    for &t in tags {
        x = mix(x ^ t.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    }
    mix(x)
}

/// One SplitMix64 step from `z`.
fn mix(z: u64) -> u64 {
    SplitMix64::new(z).next_u64()
}

/// FNV-1a-64 over the observable results of a workload's first
/// operations: what a change to the program must not move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    pub fn u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }

    pub fn value(self) -> u64 {
        self.0
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Where and on what a number was measured. Stamped on every output so a
/// recorded number never travels without its core count and toolchain
/// (the old `BENCH_*.json` files' unstated "1-core box" confound).
pub fn env_stamp() -> Json {
    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    Json::obj([
        ("cores", Json::Num(cores as f64)),
        (
            "git_rev",
            Json::str(command_line("git", &["rev-parse", "--short", "HEAD"])),
        ),
        ("rustc", Json::str(command_line("rustc", &["-V"]))),
        ("os", Json::str(std::env::consts::OS)),
        ("arch", Json::str(std::env::consts::ARCH)),
    ])
}

/// First stdout line of a helper command, `"unknown"` when it cannot run
/// (a benchmark checkout is not a git repository). `output` waits for the
/// child, so no process outlives the call.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derive_separates_tags_and_seeds() {
        let a = derive(1, &[1, 2, 3]);
        assert_eq!(a, derive(1, &[1, 2, 3]));
        assert_ne!(a, derive(2, &[1, 2, 3]));
        assert_ne!(a, derive(1, &[1, 3, 2]));
        assert_ne!(a, derive(1, &[1, 2]));
        assert_ne!(derive(0, &[]), 0);
    }

    #[test]
    fn digest_is_fnv1a_64() {
        // FNV-1a-64 of eight zero bytes.
        let mut d = Digest::default();
        d.u64(0);
        assert_eq!(d.hex(), "a8c7f832281a39c5");
        let mut e = Digest::default();
        e.f64(1.5);
        e.u64(7);
        let mut f = Digest::default();
        f.u64(7);
        f.f64(1.5);
        assert_ne!(e, f, "order matters");
        assert_eq!(Digest::default().hex(), "cbf29ce484222325");
    }

    #[test]
    fn env_stamp_names_cores_and_toolchain() {
        let env = env_stamp();
        assert!(env.get("cores").and_then(Json::as_f64).unwrap() >= 1.0);
        assert!(env.get("rustc").and_then(Json::as_str).is_some());
        assert!(env.get("git_rev").and_then(Json::as_str).is_some());
    }
}
