//! Tail attribution: *where* do the slowest sessions spend their time?
//!
//! A p99.9 number says the tail is slow; attribution says why. Over a
//! set of correlated [`SessionTrace`]s, [`TailAttribution::compute`]
//! selects the sessions inside a latency percentile band (p99–p100 by
//! default), decomposes each one's latency into the additive buckets of
//! [`SessionTrace::decompose`] — arrival wait, the seven span phases,
//! the inter-request gap — and reports:
//!
//! * the **phase-share table**: each bucket's share of all tail time,
//!   summing to exactly 100%;
//! * **dominant-phase counts**: for each tail session, the single bucket
//!   that consumed most of its latency — the histogram an operator scans
//!   first ("the tail is 70% disk-wait sessions");
//! * **worst offenders**: the slowest few sessions verbatim, with their
//!   node paths, as entry points for trace-level digging.
//!
//! Everything is a pure function of the traces: deterministic, no
//! clock, no sampling.

use std::fmt::Write as _;

use seqio_cluster::percentile;
use seqio_simcore::SimDuration;

use crate::correlate::{bucket_names, SessionTrace, BUCKETS};
use crate::json::escape;

/// One bucket's share of the tail's total attributed time.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseShare {
    /// Bucket name (see [`bucket_names`]).
    pub name: &'static str,
    /// Share of all tail time, in percent. Shares sum to 100.
    pub share_pct: f64,
    /// Absolute time in the bucket summed over tail sessions, ms.
    pub total_ms: f64,
}

/// One worst-offender session from the tail.
#[derive(Debug, Clone, PartialEq)]
pub struct TailExemplar {
    /// Global session id.
    pub session: usize,
    /// End-to-end latency in milliseconds.
    pub latency_ms: f64,
    /// The bucket that consumed most of this session's latency.
    pub dominant: &'static str,
    /// Nodes the session visited (more than one = migrated).
    pub node_path: Vec<usize>,
}

/// Attribution of a latency percentile band over completed sessions.
#[derive(Debug, Clone, PartialEq)]
pub struct TailAttribution {
    /// Lower percentile bound of the band, in `[0, 1]`.
    pub lo: f64,
    /// Upper percentile bound of the band, in `[0, 1]`.
    pub hi: f64,
    /// Completed sessions the percentiles were computed over.
    pub completed: usize,
    /// Sessions inside the band.
    pub tail_sessions: usize,
    /// The band's entry latency (the `lo` percentile), ms.
    pub threshold_ms: f64,
    /// Per-bucket shares, in [`bucket_names`] order; `share_pct` sums
    /// to exactly 100.
    pub shares: Vec<PhaseShare>,
    /// `(bucket, sessions)` counts of each tail session's dominant
    /// bucket, descending; buckets dominating no session are omitted.
    pub dominant: Vec<(&'static str, usize)>,
    /// The slowest sessions in the band, worst first (at most five).
    pub exemplars: Vec<TailExemplar>,
}

impl TailAttribution {
    /// Attributes the `[lo, hi]` latency percentile band (e.g.
    /// `(0.999, 1.0)` for "the p99.9 tail"). Returns `None` when no
    /// session completed. `lo`/`hi` are clamped into `[0, 1]`; an
    /// inverted band yields the `lo` percentile alone.
    pub fn compute(traces: &[SessionTrace], lo: f64, hi: f64) -> Option<TailAttribution> {
        let mut completed: Vec<(SimDuration, &SessionTrace)> =
            traces.iter().filter_map(|t| t.latency().map(|l| (l, t))).collect();
        if completed.is_empty() {
            return None;
        }
        completed.sort_by_key(|(l, t)| (*l, t.session));
        let sorted: Vec<SimDuration> = completed.iter().map(|(l, _)| *l).collect();
        let floor = percentile(&sorted, lo).expect("non-empty");
        let ceil = percentile(&sorted, hi.max(lo)).expect("non-empty");
        let tail: Vec<&(SimDuration, &SessionTrace)> =
            completed.iter().filter(|(l, _)| *l >= floor && *l <= ceil).collect();

        let names = bucket_names();
        let mut totals = [SimDuration::ZERO; BUCKETS];
        let mut dominant_counts = [0usize; BUCKETS];
        let mut exemplars: Vec<TailExemplar> = Vec::new();
        for (latency, trace) in tail.iter().copied() {
            let parts = trace.decompose().expect("tail traces completed");
            let mut dom = 0;
            for (b, d) in parts.iter().enumerate() {
                totals[b] = totals[b].saturating_add(*d);
                if *d > parts[dom] {
                    dom = b;
                }
            }
            dominant_counts[dom] += 1;
            exemplars.push(TailExemplar {
                session: trace.session,
                latency_ms: latency.as_millis_f64(),
                dominant: names[dom],
                node_path: trace.node_path.clone(),
            });
        }
        exemplars.sort_by(|a, b| {
            b.latency_ms.partial_cmp(&a.latency_ms).unwrap().then(a.session.cmp(&b.session))
        });
        exemplars.truncate(5);

        let grand: f64 = totals.iter().map(|d| d.as_millis_f64()).sum();
        let shares: Vec<PhaseShare> = names
            .iter()
            .zip(totals)
            .enumerate()
            .map(|(b, (&name, total))| {
                // A zero-latency tail has nothing to attribute; park the
                // whole 100% in the gap bucket so shares stay a
                // distribution.
                let share_pct = if grand > 0.0 {
                    total.as_millis_f64() / grand * 100.0
                } else if b == BUCKETS - 1 {
                    100.0
                } else {
                    0.0
                };
                PhaseShare { name, share_pct, total_ms: total.as_millis_f64() }
            })
            .collect();
        let mut dominant: Vec<(&'static str, usize)> = names
            .iter()
            .zip(dominant_counts)
            .filter(|(_, c)| *c > 0)
            .map(|(&n, c)| (n, c))
            .collect();
        dominant.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));

        Some(TailAttribution {
            lo: lo.clamp(0.0, 1.0),
            hi: hi.clamp(lo.clamp(0.0, 1.0), 1.0),
            completed: completed.len(),
            tail_sessions: tail.len(),
            threshold_ms: floor.as_millis_f64(),
            shares,
            dominant,
            exemplars,
        })
    }

    /// Renders the attribution as an aligned text table.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "tail band p{:.4}..p{:.4}: {} of {} completed sessions, entry latency {:.3} ms",
            self.lo * 100.0,
            self.hi * 100.0,
            self.tail_sessions,
            self.completed,
            self.threshold_ms
        );
        let _ = writeln!(out, "{:<20} {:>9} {:>14}", "bucket", "share", "tail total");
        for s in &self.shares {
            let _ = writeln!(out, "{:<20} {:>8.2}% {:>11.3} ms", s.name, s.share_pct, s.total_ms);
        }
        let _ = writeln!(out, "dominant buckets:");
        for (name, count) in &self.dominant {
            let _ = writeln!(out, "  {name:<18} {count} sessions");
        }
        let _ = writeln!(out, "worst offenders:");
        for e in &self.exemplars {
            let _ = writeln!(
                out,
                "  session {:>6}  {:>10.3} ms  dominant {:<18} nodes {:?}",
                e.session, e.latency_ms, e.dominant, e.node_path
            );
        }
        out
    }

    /// Renders the attribution as one JSON object (the `tail_probe.json`
    /// artifact format).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        let _ = write!(
            out,
            "\"lo\":{},\"hi\":{},\"completed\":{},\"tail_sessions\":{},\"threshold_ms\":{}",
            self.lo, self.hi, self.completed, self.tail_sessions, self.threshold_ms
        );
        out.push_str(",\"shares\":[");
        for (i, s) in self.shares.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"bucket\":\"{}\",\"share_pct\":{},\"total_ms\":{}}}",
                escape(s.name),
                s.share_pct,
                s.total_ms
            );
        }
        out.push_str("],\"dominant\":[");
        for (i, (name, count)) in self.dominant.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"bucket\":\"{}\",\"sessions\":{count}}}", escape(name));
        }
        out.push_str("],\"exemplars\":[");
        for (i, e) in self.exemplars.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"session\":{},\"latency_ms\":{},\"dominant\":\"{}\",\"nodes\":{:?}}}",
                e.session,
                e.latency_ms,
                escape(e.dominant),
                e.node_path
            );
        }
        out.push_str("]}");
        out
    }

    /// Sum of all shares, in percent — exactly 100 up to float rounding.
    pub fn share_sum_pct(&self) -> f64 {
        self.shares.iter().map(|s| s.share_pct).sum()
    }
}

/// Parses a percentile band spec like `p99.9`, `99.9` or `0.999` into
/// the `lo` fraction for [`TailAttribution::compute`].
///
/// # Errors
///
/// Rejects non-numeric input and values outside `(0, 100]`.
pub fn parse_percentile(spec: &str) -> Result<f64, String> {
    let raw = spec.trim().trim_start_matches(['p', 'P']);
    let v: f64 = raw.parse().map_err(|_| format!("bad percentile {spec:?}"))?;
    let frac = if v <= 1.0 { v } else { v / 100.0 };
    if !(frac > 0.0 && frac <= 1.0) {
        return Err(format!("percentile {spec:?} outside (0, 100]"));
    }
    Ok(frac)
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqio_node::SpanRecord;
    use seqio_simcore::{SimTime, SpanPhase};

    /// A one-span session arriving at `arrive_us` whose single request
    /// waits in `disk_us` of disk time and delivers at `done_us`.
    fn trace(id: usize, arrive_us: u64, enq_us: u64, disk_us: u64, done_us: u64) -> SessionTrace {
        let mut stamps = [None; SpanPhase::COUNT];
        stamps[SpanPhase::Enqueued.index()] = Some(SimTime::from_nanos(enq_us * 1000));
        stamps[SpanPhase::DiskComplete.index()] =
            Some(SimTime::from_nanos((enq_us + disk_us) * 1000));
        stamps[SpanPhase::Delivered.index()] = Some(SimTime::from_nanos(done_us * 1000));
        SessionTrace {
            session: id,
            arrival: SimTime::from_nanos(arrive_us * 1000),
            title: None,
            requests: Some(1),
            node_path: vec![0],
            spans: vec![crate::correlate::TraceSpan {
                node: 0,
                record: SpanRecord {
                    stream: id,
                    disk: 0,
                    lba: 0,
                    blocks: 16,
                    from_memory: false,
                    retries: 0,
                    timed_out: false,
                    stamps,
                },
            }],
        }
    }

    #[test]
    fn shares_sum_to_100_and_name_the_culprit() {
        // 99 fast sessions dominated by disk time, one huge straggler
        // dominated by arrival wait.
        let mut traces: Vec<SessionTrace> =
            (0..99).map(|i| trace(i, 0, 10, 500 + i as u64, 600 + i as u64)).collect();
        traces.push(trace(99, 0, 90_000, 500, 91_000));
        let att = TailAttribution::compute(&traces, 0.99, 1.0).unwrap();
        assert_eq!(att.completed, 100);
        assert!(att.tail_sessions >= 1 && att.tail_sessions <= 2);
        assert!((att.share_sum_pct() - 100.0).abs() < 1e-9);
        assert_eq!(att.dominant[0].0, "arrival_wait");
        assert_eq!(att.exemplars[0].session, 99);
        // The whole distribution attributes too, still summing to 100.
        let all = TailAttribution::compute(&traces, 0.0, 1.0).unwrap();
        assert_eq!(all.tail_sessions, 100);
        assert!((all.share_sum_pct() - 100.0).abs() < 1e-9);
        assert_eq!(all.dominant[0].0, "disk_complete");
    }

    #[test]
    fn empty_and_degenerate_inputs_are_total() {
        assert_eq!(TailAttribution::compute(&[], 0.999, 1.0), None);
        // A single zero-latency session: shares park in the gap bucket.
        let t = trace(0, 0, 0, 0, 0);
        let att = TailAttribution::compute(&[t], 0.999, 1.0).unwrap();
        assert_eq!(att.tail_sessions, 1);
        assert!((att.share_sum_pct() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn json_rendering_parses_back() {
        let traces: Vec<SessionTrace> =
            (0..10).map(|i| trace(i, 0, 10, 400 + 40 * i as u64, 600 + 40 * i as u64)).collect();
        let att = TailAttribution::compute(&traces, 0.9, 1.0).unwrap();
        let v = crate::json::parse(&att.to_json()).unwrap();
        assert_eq!(v.get("completed").unwrap().as_usize(), Some(10));
        assert_eq!(v.get("shares").unwrap().as_arr().unwrap().len(), BUCKETS);
        assert!(att.to_table().contains("worst offenders"));
    }

    #[test]
    fn percentile_specs_parse() {
        assert!((parse_percentile("p99.9").unwrap() - 0.999).abs() < 1e-12);
        assert!((parse_percentile("99.9").unwrap() - 0.999).abs() < 1e-12);
        assert_eq!(parse_percentile("0.999").unwrap(), 0.999);
        assert_eq!(parse_percentile("1").unwrap(), 1.0);
        assert!(parse_percentile("0").is_err());
        assert!(parse_percentile("101").is_err());
        assert!(parse_percentile("tail").is_err());
    }
}
