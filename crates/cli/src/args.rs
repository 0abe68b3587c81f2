//! Minimal `--key value` argument parsing (no external dependencies).

use std::collections::BTreeMap;

/// Flags `main` reads for every command, before and after dispatch.
const GLOBAL_FLAGS: [&str; 2] = ["threads", "metrics-out"];

/// Parsed `--key value` pairs.
#[derive(Debug, Default)]
pub struct Args {
    values: BTreeMap<String, String>,
}

impl Args {
    /// Parses the remaining command-line tokens. Every token must be a
    /// `--key` followed by a value.
    pub fn parse(mut raw: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut values = BTreeMap::new();
        while let Some(token) = raw.next() {
            let key = token
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --flag, got '{token}'"))?;
            if key.is_empty() {
                return Err("empty flag name".into());
            }
            let value = raw
                .next()
                .ok_or_else(|| format!("--{key} is missing its value"))?;
            if values.insert(key.to_string(), value).is_some() {
                return Err(format!("--{key} given twice"));
            }
        }
        Ok(Args { values })
    }

    /// Rejects any flag that is neither in `flags` — the ones the calling
    /// command reads — nor global, so a typo or a flag meant for another
    /// command is an error instead of being silently ignored.
    pub fn allow_only(&self, flags: &[&str]) -> Result<(), String> {
        match self
            .values
            .keys()
            .find(|key| !flags.contains(&key.as_str()) && !GLOBAL_FLAGS.contains(&key.as_str()))
        {
            Some(key) => Err(format!("unknown flag --{key} for this command")),
            None => Ok(()),
        }
    }

    /// The raw value of `key`, if present.
    pub fn get(&self, key: &str) -> Option<&String> {
        self.values.get(key)
    }

    /// The value of a mandatory flag.
    pub fn require(&self, key: &str) -> Result<String, String> {
        self.get(key)
            .cloned()
            .ok_or_else(|| format!("--{key} is required"))
    }

    /// An optional `usize` flag with a default.
    pub fn usize(&self, key: &str, default: usize) -> Result<usize, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key} expects an integer, got '{v}'")),
        }
    }

    /// An optional `u64` flag with a default.
    pub fn u64(&self, key: &str, default: u64) -> Result<u64, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key} expects an integer, got '{v}'")),
        }
    }

    /// An optional `f64` flag with a default.
    pub fn f64(&self, key: &str, default: f64) -> Result<f64, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key} expects a number, got '{v}'")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Result<Args, String> {
        Args::parse(tokens.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_key_value_pairs() {
        let args = parse(&["--n", "100", "--out", "x.fvecs"]).unwrap();
        assert_eq!(args.usize("n", 0).unwrap(), 100);
        assert_eq!(args.require("out").unwrap(), "x.fvecs");
        assert_eq!(args.usize("dim", 128).unwrap(), 128);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse(&["n", "100"]).is_err(), "missing --");
        assert!(parse(&["--n"]).is_err(), "missing value");
        assert!(parse(&["--n", "1", "--n", "2"]).is_err(), "duplicate");
        assert!(parse(&["--", "1"]).is_err(), "empty flag");
    }

    #[test]
    fn flags_a_command_does_not_read_are_rejected_by_name() {
        let args = parse(&["--n", "1", "--nprob", "8", "--threads", "2"]).unwrap();
        assert!(
            args.allow_only(&["n", "nprob"]).is_ok(),
            "global flags pass"
        );
        let err = args.allow_only(&["n", "nprobe"]).unwrap_err();
        assert!(err.contains("--nprob "), "names the flag: {err}");
    }

    #[test]
    fn type_errors_are_reported() {
        let args = parse(&["--n", "abc", "--keep", "0.5"]).unwrap();
        assert!(args.usize("n", 0).is_err());
        assert_eq!(args.f64("keep", 0.0).unwrap(), 0.5);
        assert!(args.require("missing").is_err());
    }
}
