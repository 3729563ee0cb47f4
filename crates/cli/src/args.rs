//! Flag parsing utilities (no external dependencies).

use std::collections::BTreeMap;

use seqio_simcore::SimDuration;

/// Parsed command line: positional subcommand plus `--key value` /
/// `--switch` flags.
#[derive(Debug, Clone, Default)]
pub struct Args {
    flags: BTreeMap<String, String>,
    switches: Vec<String>,
}

impl Args {
    /// Parses everything after the subcommand.
    ///
    /// # Errors
    ///
    /// Returns a message on a malformed flag (missing `--`, or a value
    /// flag at the end of the line if it looks like it needed one).
    pub fn parse<I: IntoIterator<Item = String>>(items: I) -> Result<Args, String> {
        let mut out = Args::default();
        let mut it = items.into_iter().peekable();
        while let Some(item) = it.next() {
            let Some(name) = item.strip_prefix("--") else {
                return Err(format!("expected a --flag, found {item:?}"));
            };
            if name.is_empty() {
                return Err("empty flag name".into());
            }
            // `--key=value` or `--key value` or bare switch.
            if let Some((k, v)) = name.split_once('=') {
                out.flags.insert(k.to_string(), v.to_string());
            } else if it.peek().map(|n| !n.starts_with("--")).unwrap_or(false) {
                let v = it.next().expect("peeked");
                out.flags.insert(name.to_string(), v);
            } else {
                out.switches.push(name.to_string());
            }
        }
        Ok(out)
    }

    /// String value of `key`, if present.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.flags.get(key).map(String::as_str)
    }

    /// `true` if the bare switch was given.
    pub fn switch(&self, key: &str) -> bool {
        self.switches.iter().any(|s| s == key)
    }

    /// Integer flag with default.
    ///
    /// # Errors
    ///
    /// Returns a message if the value does not parse.
    pub fn u64_or(&self, key: &str, default: u64) -> Result<u64, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key}: expected an integer, got {v:?}")),
        }
    }

    /// Size flag (`64K`, `4M`, `1G`, plain bytes) with default.
    ///
    /// # Errors
    ///
    /// Returns a message if the value does not parse.
    pub fn size_or(&self, key: &str, default: u64) -> Result<u64, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => parse_size(v).map_err(|e| format!("--{key}: {e}")),
        }
    }

    /// Duration flag (`8s`, `500ms`, `2m`) with default.
    ///
    /// # Errors
    ///
    /// Returns a message if the value does not parse.
    pub fn duration_or(&self, key: &str, default: SimDuration) -> Result<SimDuration, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => seqio_simcore::parse_duration(v).map_err(|e| format!("--{key}: {e}")),
        }
    }

    /// All unknown flags (for typo detection).
    pub fn unknown_flags<'a>(&'a self, known: &[&str]) -> Vec<&'a str> {
        self.flags
            .keys()
            .map(String::as_str)
            .chain(self.switches.iter().map(String::as_str))
            .filter(|k| !known.contains(k))
            .collect()
    }
}

/// Parses `64K` / `4M` / `1G` / `512` into bytes (binary units).
///
/// # Errors
///
/// Returns a message on unknown suffixes or non-numeric input.
pub fn parse_size(s: &str) -> Result<u64, String> {
    let t = s.trim();
    let (num, mult) = match t.chars().last() {
        Some('K' | 'k') => (&t[..t.len() - 1], 1024u64),
        Some('M' | 'm') => (&t[..t.len() - 1], 1024 * 1024),
        Some('G' | 'g') => (&t[..t.len() - 1], 1024 * 1024 * 1024),
        Some('B' | 'b') => (&t[..t.len() - 1], 1),
        _ => (t, 1),
    };
    let n: f64 = num.parse().map_err(|_| format!("bad size {s:?}"))?;
    if !(n >= 0.0 && n.is_finite()) {
        return Err(format!("bad size {s:?}"));
    }
    Ok((n * mult as f64).round() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_flags_switches_and_equals() {
        let a = Args::parse(["--streams", "30", "--writes", "--request=64K"].map(String::from))
            .unwrap();
        assert_eq!(a.get("streams"), Some("30"));
        assert_eq!(a.get("request"), Some("64K"));
        assert!(a.switch("writes"));
        assert!(!a.switch("reads"));
    }

    #[test]
    fn rejects_non_flags() {
        assert!(Args::parse(["streams".to_string()]).is_err());
        assert!(Args::parse(["--".to_string()]).is_err());
    }

    #[test]
    fn sizes() {
        assert_eq!(parse_size("512").unwrap(), 512);
        assert_eq!(parse_size("64K").unwrap(), 64 * 1024);
        assert_eq!(parse_size("4m").unwrap(), 4 * 1024 * 1024);
        assert_eq!(parse_size("1G").unwrap(), 1 << 30);
        assert_eq!(parse_size("1.5M").unwrap(), 3 * 512 * 1024);
        assert!(parse_size("x").is_err());
        assert!(parse_size("-4K").is_err());
    }

    #[test]
    fn defaults_and_errors() {
        let a = Args::parse(["--n".to_string(), "abc".to_string()]).unwrap();
        assert!(a.u64_or("n", 1).is_err());
        assert_eq!(a.u64_or("missing", 7).unwrap(), 7);
        assert_eq!(a.size_or("missing", 42).unwrap(), 42);
    }

    #[test]
    fn unknown_flag_detection() {
        let a = Args::parse(["--streams", "3", "--tpyo", "--x=1"].map(String::from)).unwrap();
        let unknown = a.unknown_flags(&["streams"]);
        assert!(unknown.contains(&"tpyo"));
        assert!(unknown.contains(&"x"));
        assert!(!unknown.contains(&"streams"));
    }
}
