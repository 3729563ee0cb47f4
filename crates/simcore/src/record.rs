//! Shared text-record grammar: `;`-separated clauses of `kind:key=value,...`
//! pairs, the deterministic hand-rolled format used by the CLI `--faults`
//! spec and the scenario trace files.
//!
//! The grammar is deliberately tiny — no quoting, no escapes — so that a
//! serialized record round-trips bit-identically through
//! serialize → parse → serialize, and every parse error can name the
//! offending token and the clause it sits in rather than echoing the whole
//! input back.
//!
//! # Examples
//!
//! ```
//! use seqio_simcore::{ClauseFields, SimDuration};
//!
//! let mut f = ClauseFields::parse("demo", "tick", "at=5ms,count=3").unwrap();
//! assert_eq!(f.duration_or("at", SimDuration::ZERO).unwrap(), SimDuration::from_millis(5));
//! assert_eq!(f.u64_field("count", "a count").unwrap(), 3);
//! f.finish().unwrap(); // no unknown fields left
//! ```

use crate::error::SeqioError;
use crate::time::SimDuration;

/// `key=value` field list for one spec clause. Every error names the
/// offending token and the clause it sits in, never the whole spec.
#[derive(Debug)]
pub struct ClauseFields {
    component: &'static str,
    kind: String,
    pairs: Vec<(String, String)>,
}

impl ClauseFields {
    /// Splits `rest` (the text after `kind:`) into `key=value` pairs.
    ///
    /// # Errors
    ///
    /// Returns a plain reason string (for the caller to wrap into its
    /// component error) when a field is not of the form `key=value`.
    pub fn parse(component: &'static str, kind: &str, rest: &str) -> Result<ClauseFields, String> {
        let mut pairs = Vec::new();
        for pair in rest.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (k, v) = pair
                .split_once('=')
                .ok_or_else(|| format!("field `{pair}` in `{kind}` clause is not `key=value`"))?;
            pairs.push((k.trim().to_string(), v.trim().to_string()));
        }
        Ok(ClauseFields { component, kind: kind.to_string(), pairs })
    }

    /// Wraps `reason` into this component's error, naming the clause.
    pub fn fail(&self, reason: String) -> SeqioError {
        SeqioError::Component {
            component: self.component,
            reason: format!("{reason} in `{}` clause", self.kind),
        }
    }

    /// Removes and returns `key`'s value, if present.
    pub fn take(&mut self, key: &str) -> Option<String> {
        let i = self.pairs.iter().position(|(k, _)| k == key)?;
        Some(self.pairs.remove(i).1)
    }

    /// Removes and returns `key`'s value.
    ///
    /// # Errors
    ///
    /// Names the missing field and its clause.
    pub fn required(&mut self, key: &str) -> Result<String, SeqioError> {
        self.take(key).ok_or_else(|| SeqioError::Component {
            component: self.component,
            reason: format!("`{}` clause is missing required field `{key}`", self.kind),
        })
    }

    /// Parses `key` as a `usize`, describing the expected value as `what`
    /// (e.g. `"a disk index"`) on failure.
    ///
    /// # Errors
    ///
    /// Names the offending `key=value` token.
    pub fn usize_field(&mut self, key: &str, what: &str) -> Result<usize, SeqioError> {
        let v = self.required(key)?;
        v.parse().map_err(|_| self.fail(format!("`{key}={v}` is not {what}")))
    }

    /// Parses `key` as a `u64`, describing the expected value as `what`
    /// (e.g. `"a block count"`) on failure.
    ///
    /// # Errors
    ///
    /// Names the offending `key=value` token.
    pub fn u64_field(&mut self, key: &str, what: &str) -> Result<u64, SeqioError> {
        let v = self.required(key)?;
        v.parse().map_err(|_| self.fail(format!("`{key}={v}` is not {what}")))
    }

    /// Parses `key` as an `f64`.
    ///
    /// # Errors
    ///
    /// Names the offending `key=value` token.
    pub fn float(&mut self, key: &str) -> Result<f64, SeqioError> {
        let v = self.required(key)?;
        v.parse().map_err(|_| self.fail(format!("`{key}={v}` is not a number")))
    }

    /// Parses `key` as a duration, or returns `default` when absent.
    ///
    /// # Errors
    ///
    /// Names the offending `key=value` token.
    pub fn duration_or(
        &mut self,
        key: &str,
        default: SimDuration,
    ) -> Result<SimDuration, SeqioError> {
        match self.take(key) {
            Some(v) => {
                parse_duration(&v).map_err(|reason| self.fail(format!("`{key}={v}`: {reason}")))
            }
            None => Ok(default),
        }
    }

    /// Parses `key` as a duration when present.
    ///
    /// # Errors
    ///
    /// Names the offending `key=value` token.
    pub fn optional_duration(&mut self, key: &str) -> Result<Option<SimDuration>, SeqioError> {
        match self.take(key) {
            Some(v) => parse_duration(&v)
                .map(Some)
                .map_err(|reason| self.fail(format!("`{key}={v}`: {reason}"))),
            None => Ok(None),
        }
    }

    /// Rejects any field the clause handler did not consume, naming it.
    ///
    /// # Errors
    ///
    /// Names the first unknown field and its clause.
    pub fn finish(self) -> Result<(), SeqioError> {
        match self.pairs.first() {
            None => Ok(()),
            Some((k, _)) => {
                let reason = format!("unknown field `{k}`");
                Err(self.fail(reason))
            }
        }
    }
}

/// Parses a duration with an `ns`/`us`/`ms`/`s`/`m` (minutes) suffix; a
/// bare number is seconds.
///
/// # Errors
///
/// Returns a reason string naming the offending token.
pub fn parse_duration(s: &str) -> Result<SimDuration, String> {
    let s = s.trim();
    let (num, nanos_per_unit) = if let Some(n) = s.strip_suffix("ns") {
        (n, 1.0)
    } else if let Some(n) = s.strip_suffix("us") {
        (n, 1e3)
    } else if let Some(n) = s.strip_suffix("ms") {
        (n, 1e6)
    } else if let Some(n) = s.strip_suffix('s') {
        (n, 1e9)
    } else if let Some(n) = s.strip_suffix('m') {
        (n, 60e9)
    } else {
        (s, 1e9)
    };
    let v: f64 = num
        .trim()
        .parse()
        .map_err(|_| format!("`{s}` is not a duration (expected e.g. `500us`, `5ms`, `2s`)"))?;
    if !v.is_finite() || v < 0.0 {
        return Err(format!("duration `{s}` must be non-negative"));
    }
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    Ok(SimDuration::from_nanos((v * nanos_per_unit).round() as u64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_round_trip_and_reject_unknown() {
        let mut f = ClauseFields::parse("demo", "op", "a=1, b = two ,c=3.5").unwrap();
        assert_eq!(f.u64_field("a", "a count").unwrap(), 1);
        assert_eq!(f.take("b").as_deref(), Some("two"));
        assert!((f.float("c").unwrap() - 3.5).abs() < 1e-12);
        f.finish().unwrap();

        let mut f = ClauseFields::parse("demo", "op", "a=1,stray=9").unwrap();
        let _ = f.take("a");
        let e = f.finish().unwrap_err().to_string();
        assert!(e.contains("unknown field `stray`"), "{e}");
        assert!(e.contains("`op` clause"), "{e}");
    }

    #[test]
    fn errors_carry_the_component_name() {
        let mut f = ClauseFields::parse("scenario", "inject", "disk=zero").unwrap();
        let e = f.usize_field("disk", "a disk index").unwrap_err().to_string();
        assert!(e.contains("scenario"), "{e}");
        assert!(e.contains("`disk=zero`"), "{e}");
    }

    #[test]
    fn not_key_value_is_reported() {
        let e = ClauseFields::parse("demo", "op", "a=1,b 2").unwrap_err();
        assert!(e.contains("`b 2`"), "{e}");
        assert!(e.contains("`op` clause"), "{e}");
    }
}
