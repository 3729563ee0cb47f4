//! Request-lifecycle spans: the one per-request record.
//!
//! When span recording is enabled (see
//! [`ObsConfig`](seqio_simcore::ObsConfig) and
//! [`ExperimentBuilder::observe`](crate::ExperimentBuilder::observe)), the
//! engine records one [`SpanRecord`] per client request completed inside
//! the measured window. Each span carries up to eight phase timestamps
//! ([`SpanPhase`]) plus the controller's fault-path annotations (retries,
//! deadline overrun). The final `network_delivered` phase is stamped only
//! by the client front-end tier (`seqio-client`); storage-node runs leave
//! it unset and older span CSVs without its column still parse.
//!
//! Phases a request skips (a direct-path request is never classified; a
//! memory hit never waits on a disk) contribute zero duration, so
//! [`SpanRecord::phase_durations`] always sums exactly to the end-to-end
//! latency — the property the `report --phases` breakdown relies on.
//!
//! A span CSV is also the open-loop replay input: [`spans_from_csv`] feeds
//! [`Experiment::replay`](crate::Experiment::replay), which re-sends each
//! request at its enqueue stamp.

use std::fmt::Write as _;

use seqio_simcore::{LatencyHistogram, SimDuration, SimTime, SpanPhase};

/// One completed client request with per-phase timestamps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// Stream index within the experiment.
    pub stream: usize,
    /// Target disk.
    pub disk: usize,
    /// First block.
    pub lba: u64,
    /// Length in blocks.
    pub blocks: u64,
    /// Whether the buffered set served it without new disk I/O.
    pub from_memory: bool,
    /// Retries the serving disk fetch went through (fault path).
    pub retries: u32,
    /// Whether the serving fetch overran the controller deadline.
    pub timed_out: bool,
    /// Phase timestamps, indexed by [`SpanPhase::index`]; `None` when the
    /// request skipped the phase.
    pub stamps: [Option<SimTime>; SpanPhase::COUNT],
}

impl SpanRecord {
    /// The timestamp of one phase, if the request visited it.
    pub fn stamp(&self, phase: SpanPhase) -> Option<SimTime> {
        self.stamps[phase.index()]
    }

    /// When the client sent the request.
    pub fn enqueued(&self) -> SimTime {
        self.stamps[SpanPhase::Enqueued.index()].expect("spans always carry an enqueue stamp")
    }

    /// When the response reached the client.
    pub fn delivered(&self) -> SimTime {
        self.stamps[SpanPhase::Delivered.index()].expect("finished spans carry a delivery stamp")
    }

    /// End-to-end latency: the final (maximal) stamp minus the enqueue.
    /// Without a `network_delivered` stamp this is delivery minus enqueue,
    /// exactly as before the front-end tier existed.
    pub fn total(&self) -> SimDuration {
        let end = self.stamps.iter().flatten().copied().fold(self.delivered(), SimTime::max);
        end.duration_since(self.enqueued())
    }

    /// Time attributed to each phase, in [`SpanPhase::ALL`] order.
    ///
    /// Phase `i`'s duration is the time from the latest earlier stamp to
    /// phase `i`'s stamp; skipped phases get zero. By construction the
    /// durations sum exactly to [`total`](Self::total) (delivery is always
    /// the final, maximal stamp).
    pub fn phase_durations(&self) -> [SimDuration; SpanPhase::COUNT] {
        let mut out = [SimDuration::ZERO; SpanPhase::COUNT];
        let mut prev = self.enqueued();
        for (i, slot) in self.stamps.iter().enumerate().skip(1) {
            if let Some(at) = *slot {
                out[i] = at.saturating_duration_since(prev);
                prev = prev.max(at);
            }
        }
        out
    }
}

/// Renders spans as CSV (with header). Skipped phases are empty fields.
pub fn spans_to_csv(spans: &[SpanRecord]) -> String {
    let mut out = String::from("stream,disk,lba,blocks,from_memory,retries,timed_out");
    for p in SpanPhase::ALL {
        let _ = write!(out, ",{}_ns", p.name());
    }
    out.push('\n');
    for s in spans {
        let _ = write!(
            out,
            "{},{},{},{},{},{},{}",
            s.stream, s.disk, s.lba, s.blocks, s.from_memory, s.retries, s.timed_out
        );
        for stamp in s.stamps {
            match stamp {
                Some(at) => {
                    let _ = write!(out, ",{}", at.as_nanos());
                }
                None => out.push(','),
            }
        }
        out.push('\n');
    }
    out
}

/// Parses the CSV produced by [`spans_to_csv`] back into records.
///
/// # Errors
///
/// Returns a message naming the first malformed line.
pub fn spans_from_csv(csv: &str) -> Result<Vec<SpanRecord>, String> {
    let n_fields = 7 + SpanPhase::COUNT;
    // Span CSVs written before the network_delivered phase existed carry
    // one phase column fewer; accept them, leaving the final stamp unset.
    let n_fields_legacy = n_fields - 1;
    let mut out = Vec::new();
    for (i, line) in csv.lines().enumerate() {
        if i == 0 && line.starts_with("stream,") {
            continue; // header
        }
        if line.trim().is_empty() {
            continue;
        }
        let f: Vec<&str> = line.split(',').collect();
        if f.len() != n_fields && f.len() != n_fields_legacy {
            return Err(format!("line {}: expected {n_fields} fields, got {}", i + 1, f.len()));
        }
        let parse_u64 = |s: &str, what: &str| -> Result<u64, String> {
            s.parse().map_err(|_| format!("line {}: bad {what} {s:?}", i + 1))
        };
        let parse_bool = |s: &str, what: &str| -> Result<bool, String> {
            match s.trim() {
                "true" => Ok(true),
                "false" => Ok(false),
                other => Err(format!("line {}: bad {what} {other:?}", i + 1)),
            }
        };
        let mut stamps = [None; SpanPhase::COUNT];
        for (k, p) in SpanPhase::ALL.iter().enumerate().take(f.len() - 7) {
            let cell = f[7 + k].trim();
            if !cell.is_empty() {
                stamps[k] = Some(SimTime::from_nanos(parse_u64(cell, p.name())?));
            }
        }
        if stamps[SpanPhase::Enqueued.index()].is_none()
            || stamps[SpanPhase::Delivered.index()].is_none()
        {
            return Err(format!("line {}: span lacks enqueue/delivery stamps", i + 1));
        }
        // A delivery stamped before the enqueue would make every
        // downstream duration computation panic; reject it here instead.
        if stamps[SpanPhase::Delivered.index()] < stamps[SpanPhase::Enqueued.index()] {
            return Err(format!("line {}: delivery precedes enqueue", i + 1));
        }
        out.push(SpanRecord {
            stream: parse_u64(f[0], "stream")? as usize,
            disk: parse_u64(f[1], "disk")? as usize,
            lba: parse_u64(f[2], "lba")?,
            blocks: parse_u64(f[3], "blocks")?,
            from_memory: parse_bool(f[4], "from_memory")?,
            retries: parse_u64(f[5], "retries")? as u32,
            timed_out: parse_bool(f[6], "timed_out")?,
            stamps,
        });
    }
    Ok(out)
}

/// Per-phase latency distributions aggregated over a set of spans.
#[derive(Debug, Clone)]
pub struct PhaseBreakdown {
    /// One histogram per [`SpanPhase`], in [`SpanPhase::ALL`] order.
    pub phases: [LatencyHistogram; SpanPhase::COUNT],
    /// End-to-end latency distribution over the same spans.
    pub total: LatencyHistogram,
}

impl PhaseBreakdown {
    /// Aggregates the given spans.
    pub fn from_spans(spans: &[SpanRecord]) -> Self {
        let mut phases: [LatencyHistogram; SpanPhase::COUNT] = Default::default();
        let mut total = LatencyHistogram::new();
        for s in spans {
            for (h, d) in phases.iter_mut().zip(s.phase_durations()) {
                h.record(d);
            }
            total.record(s.total());
        }
        PhaseBreakdown { phases, total }
    }

    /// Sum of the per-phase exact means, in milliseconds. Equals the
    /// end-to-end mean up to integer-division error (< 1 ns per phase).
    pub fn sum_of_phase_means_ms(&self) -> f64 {
        self.phases.iter().map(|h| h.mean().as_millis_f64()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_nanos(us * 1_000)
    }

    fn span(stamp_us: [Option<u64>; SpanPhase::COUNT]) -> SpanRecord {
        let mut stamps = [None; SpanPhase::COUNT];
        for (k, s) in stamp_us.iter().enumerate() {
            stamps[k] = s.map(t);
        }
        SpanRecord {
            stream: 1,
            disk: 0,
            lba: 4096,
            blocks: 128,
            from_memory: true,
            retries: 0,
            timed_out: false,
            stamps,
        }
    }

    #[test]
    fn durations_sum_to_total_with_all_phases() {
        let s = span([
            Some(0),
            Some(10),
            Some(20),
            Some(30),
            Some(100),
            Some(100),
            Some(130),
            Some(180),
        ]);
        let d = s.phase_durations();
        assert_eq!(d[SpanPhase::Classified.index()], SimDuration::from_micros(10));
        assert_eq!(d[SpanPhase::DiskComplete.index()], SimDuration::from_micros(70));
        assert_eq!(d[SpanPhase::Staged.index()], SimDuration::ZERO);
        assert_eq!(d[SpanPhase::NetworkDelivered.index()], SimDuration::from_micros(50));
        assert_eq!(s.total(), SimDuration::from_micros(180));
        assert_eq!(d.iter().copied().sum::<SimDuration>(), s.total());
    }

    #[test]
    fn durations_sum_to_total_with_skipped_phases() {
        // Direct path without a front-end tier: no classification, no
        // admission, no staging, no network hop.
        let s = span([Some(0), None, None, Some(15), Some(95), None, Some(120), None]);
        let d = s.phase_durations();
        assert_eq!(d[SpanPhase::Classified.index()], SimDuration::ZERO);
        assert_eq!(d[SpanPhase::DiskIssued.index()], SimDuration::from_micros(15));
        assert_eq!(d[SpanPhase::DiskComplete.index()], SimDuration::from_micros(80));
        assert_eq!(d[SpanPhase::Delivered.index()], SimDuration::from_micros(25));
        assert_eq!(d[SpanPhase::NetworkDelivered.index()], SimDuration::ZERO);
        assert_eq!(s.total(), SimDuration::from_micros(120));
        assert_eq!(d.iter().copied().sum::<SimDuration>(), s.total());
    }

    #[test]
    fn out_of_order_stamps_still_sum_exactly() {
        // A re-announced DiskIssued stamped after DiskComplete must not
        // produce negative or double-counted time.
        let s = span([Some(0), Some(5), Some(50), Some(40), Some(45), Some(45), Some(60), None]);
        let d = s.phase_durations();
        assert_eq!(d.iter().copied().sum::<SimDuration>(), s.total());
    }

    #[test]
    fn csv_round_trips() {
        let spans = vec![
            span([
                Some(0),
                Some(10),
                Some(20),
                Some(30),
                Some(100),
                Some(100),
                Some(130),
                Some(175),
            ]),
            span([Some(5), None, None, Some(15), Some(95), None, Some(120), None]),
        ];
        let csv = spans_to_csv(&spans);
        assert!(csv.starts_with("stream,disk,lba,blocks,from_memory,retries,timed_out,enqueued_ns"));
        assert!(csv.lines().next().unwrap().ends_with("network_delivered_ns"));
        let parsed = spans_from_csv(&csv).unwrap();
        assert_eq!(parsed, spans);
    }

    #[test]
    fn csv_accepts_legacy_files_without_network_column() {
        // A file written before the network_delivered phase existed: seven
        // phase columns. The final stamp parses as "never visited".
        let legacy = "0,0,4096,128,true,0,false,0,,,,,,130";
        let parsed = spans_from_csv(legacy).unwrap();
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].stamp(SpanPhase::NetworkDelivered), None);
        assert_eq!(parsed[0].total(), SimDuration::from_nanos(130));
    }

    #[test]
    fn csv_rejects_malformed_lines() {
        assert!(spans_from_csv("1,2,3").is_err());
        // Missing delivery stamp.
        let line = "0,0,0,128,true,0,false,0,,,,,,";
        let err = spans_from_csv(line).unwrap_err();
        assert!(err.contains("line 1"), "{err}");
        // Garbage bool.
        let line = "0,0,0,128,TRUE,0,false,0,,,,,,100";
        assert!(spans_from_csv(line).is_err());
    }

    #[test]
    fn breakdown_phase_means_sum_to_total_mean() {
        let spans: Vec<SpanRecord> = (0..100)
            .map(|k| {
                span([
                    Some(k),
                    Some(k + 3),
                    Some(k + 7),
                    Some(k + 9),
                    Some(k + 91),
                    Some(k + 91),
                    Some(k + 117),
                    Some(k + 141),
                ])
            })
            .collect();
        let b = PhaseBreakdown::from_spans(&spans);
        let total_ms = b.total.mean().as_millis_f64();
        assert!((b.sum_of_phase_means_ms() - total_ms).abs() < 1e-5);
        assert_eq!(b.total.count(), 100);
    }
}
