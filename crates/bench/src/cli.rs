//! Tiny dependency-free CLI parsing for the `scenario` binary: adversary
//! spec strings, fault lists, and key-value flags.

use adn_adversary::AdversarySpec;

/// Parses an adversary spec string.
///
/// Grammar (colon-separated arguments):
///
/// * `complete`, `silence`, `partition`, `theorem10`, `figure1`,
///   `omit-lowest`, `omit-highest`, `omit-round-robin`, `dac-threshold`,
///   `dbac-threshold`
/// * `rotating:<d>`, `adaptive:<d>`, `alternating:<period>`,
///   `random:<p>`, `spread:<T>:<d>`, `staggered:<d>:<groups>`,
///   `partition-at:<split>`, `eventually:<round>`,
///   `isolate:<victim>:<from>:<len>`
///
/// `d`, `T`, `period`, `groups` and `split` must be at least 1 and `p`
/// in `[0, 1]` — what the constructors assert.
///
/// # Errors
///
/// Returns a human-readable message for unknown names or malformed
/// arguments.
pub fn parse_spec(s: &str) -> Result<AdversarySpec, String> {
    let mut parts = s.split(':');
    let head = parts.next().unwrap_or_default();
    let args: Vec<&str> = parts.collect();
    let want = |k: usize| -> Result<(), String> {
        if args.len() == k {
            Ok(())
        } else {
            Err(format!(
                "{head} expects {k} argument(s), got {}",
                args.len()
            ))
        }
    };
    let num = |i: usize| -> Result<usize, String> {
        args[i]
            .parse::<usize>()
            .map_err(|_| format!("{head}: argument {:?} is not an integer", args[i]))
    };
    // The constructors assert these bounds; reject them here instead.
    let positive = |i: usize, name: &str| -> Result<usize, String> {
        match num(i)? {
            0 => Err(format!("{head}: {name} must be at least 1, got 0")),
            v => Ok(v),
        }
    };
    match head {
        "complete" => want(0).map(|()| AdversarySpec::Complete),
        "silence" => want(0).map(|()| AdversarySpec::Silence),
        "partition" => want(0).map(|()| AdversarySpec::PartitionHalves),
        "theorem10" => want(0).map(|()| AdversarySpec::Theorem10),
        "figure1" => want(0).map(|()| AdversarySpec::Figure1),
        "omit-lowest" => want(0).map(|()| AdversarySpec::OmitLowest),
        "omit-highest" => want(0).map(|()| AdversarySpec::OmitHighest),
        "omit-round-robin" => want(0).map(|()| AdversarySpec::OmitRoundRobin),
        "dac-threshold" => want(0).map(|()| AdversarySpec::DacThreshold),
        "dbac-threshold" => want(0).map(|()| AdversarySpec::DbacThreshold),
        "rotating" => {
            want(1)?;
            Ok(AdversarySpec::Rotating {
                d: positive(0, "d")?,
            })
        }
        "adaptive" => {
            want(1)?;
            Ok(AdversarySpec::AdaptiveClosest {
                d: positive(0, "d")?,
            })
        }
        "alternating" => {
            want(1)?;
            Ok(AdversarySpec::AlternatingComplete {
                period: positive(0, "period")?,
            })
        }
        "random" => {
            want(1)?;
            let p: f64 = args[0]
                .parse()
                .map_err(|_| format!("random: {:?} is not a float", args[0]))?;
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("random: p must be in [0, 1], got {p}"));
            }
            Ok(AdversarySpec::Random { p })
        }
        "spread" => {
            want(2)?;
            Ok(AdversarySpec::Spread {
                t: positive(0, "T")?,
                d: positive(1, "d")?,
            })
        }
        "staggered" => {
            want(2)?;
            Ok(AdversarySpec::Staggered {
                d: positive(0, "d")?,
                groups: positive(1, "groups")?,
            })
        }
        "partition-at" => {
            want(1)?;
            Ok(AdversarySpec::PartitionAt {
                split: positive(0, "split")?,
            })
        }
        "eventually" => {
            want(1)?;
            Ok(AdversarySpec::EventuallyStable {
                round: num(0)? as u64,
            })
        }
        "isolate" => {
            want(3)?;
            Ok(AdversarySpec::IsolateOne {
                victim: num(0)?,
                from: num(1)? as u64,
                duration: num(2)? as u64,
            })
        }
        other => Err(format!("unknown adversary {other:?}")),
    }
}

/// A parsed `--flag value` command line.
#[derive(Debug, Default)]
pub struct Flags {
    pairs: Vec<(String, String)>,
}

impl Flags {
    /// Parses `--key value` pairs from an argument iterator.
    ///
    /// # Errors
    ///
    /// Returns a message for a dangling flag or a token that is not a
    /// `--flag`.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Flags, String> {
        let mut pairs = Vec::new();
        let mut it = args.into_iter();
        while let Some(key) = it.next() {
            let Some(name) = key.strip_prefix("--") else {
                return Err(format!("expected --flag, got {key:?}"));
            };
            let Some(value) = it.next() else {
                return Err(format!("--{name} is missing its value"));
            };
            pairs.push((name.to_string(), value));
        }
        Ok(Flags { pairs })
    }

    /// The raw value of a flag, last occurrence wins.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.pairs
            .iter()
            .rev()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Parses a flag into any `FromStr` type, with a default.
    ///
    /// # Errors
    ///
    /// Returns a message if the value does not parse.
    pub fn get_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name}: cannot parse {v:?}")),
        }
    }

    /// All values of a repeatable flag, in order.
    pub fn get_all(&self, name: &str) -> Vec<&str> {
        self.pairs
            .iter()
            .filter(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ZERO_ARG_SPECS: [&str; 10] = [
        "complete",
        "silence",
        "partition",
        "theorem10",
        "figure1",
        "omit-lowest",
        "omit-highest",
        "omit-round-robin",
        "dac-threshold",
        "dbac-threshold",
    ];

    fn arg_specs() -> [(&'static str, AdversarySpec); 9] {
        [
            ("rotating:4", AdversarySpec::Rotating { d: 4 }),
            ("adaptive:4", AdversarySpec::AdaptiveClosest { d: 4 }),
            (
                "alternating:2",
                AdversarySpec::AlternatingComplete { period: 2 },
            ),
            ("spread:3:5", AdversarySpec::Spread { t: 3, d: 5 }),
            (
                "staggered:8:3",
                AdversarySpec::Staggered { d: 8, groups: 3 },
            ),
            ("random:0.5", AdversarySpec::Random { p: 0.5 }),
            ("partition-at:3", AdversarySpec::PartitionAt { split: 3 }),
            ("eventually:6", AdversarySpec::EventuallyStable { round: 6 }),
            (
                "isolate:2:1:5",
                AdversarySpec::IsolateOne {
                    victim: 2,
                    from: 1,
                    duration: 5,
                },
            ),
        ]
    }

    #[test]
    fn parse_all_zero_arg_specs() {
        for s in ZERO_ARG_SPECS {
            assert!(parse_spec(s).is_ok(), "{s}");
        }
    }

    #[test]
    fn parse_arg_specs() {
        for (s, spec) in arg_specs() {
            assert_eq!(parse_spec(s).unwrap(), spec, "{s}");
        }
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!(parse_spec("rotating").is_err());
        assert!(parse_spec("rotating:x").is_err());
        assert!(parse_spec("spread:1").is_err());
        assert!(parse_spec("isolate:2:1").is_err());
        assert!(parse_spec("wat:1").is_err());
        assert!(parse_spec("complete:1").is_err());
    }

    #[test]
    fn parse_rejects_what_build_would_panic_on() {
        for (s, bound) in [
            ("rotating:0", "d must be at least 1"),
            ("adaptive:0", "d must be at least 1"),
            ("spread:0:3", "T must be at least 1"),
            ("spread:3:0", "d must be at least 1"),
            ("staggered:0:2", "d must be at least 1"),
            ("staggered:4:0", "groups must be at least 1"),
            ("alternating:0", "period must be at least 1"),
            ("partition-at:0", "split must be at least 1"),
            ("random:1.5", "p must be in [0, 1]"),
            ("random:nan", "p must be in [0, 1]"),
        ] {
            let err = parse_spec(s).expect_err(s);
            assert!(err.contains(bound), "{s}: {err}");
        }
    }

    #[test]
    fn accepted_specs_build() {
        let accepted = ZERO_ARG_SPECS
            .map(|s| parse_spec(s).unwrap())
            .into_iter()
            .chain(arg_specs().map(|(_, spec)| spec));
        for spec in accepted {
            // The two specs whose bounds depend on n (checked by the
            // scenario binary): a 3-node fixture, and two groups of
            // ⌊(n+3f)/2⌋ that must overlap — an even n at f = 0.
            let n = match spec {
                AdversarySpec::Figure1 => 3,
                AdversarySpec::Theorem10 => 10,
                _ => 9,
            };
            assert!(!spec.build(n, 0, 1).name().is_empty(), "{spec}");
        }
    }

    #[test]
    fn flags_basics() {
        let f = Flags::parse(
            [
                "--n",
                "9",
                "--byz",
                "two-faced",
                "--byz",
                "silent",
                "--n",
                "11",
            ]
            .map(String::from),
        )
        .unwrap();
        assert_eq!(f.get("n"), Some("11"), "last occurrence wins");
        assert_eq!(f.get_all("byz"), vec!["two-faced", "silent"]);
        assert_eq!(f.get_or("n", 0usize).unwrap(), 11);
        assert_eq!(f.get_or("missing", 7usize).unwrap(), 7);
        assert!(f.get_or::<usize>("byz", 0).is_err());
    }

    #[test]
    fn flags_reject_malformed() {
        assert!(Flags::parse(["n".to_string()]).is_err());
        assert!(Flags::parse(["--n".to_string()]).is_err());
    }
}
