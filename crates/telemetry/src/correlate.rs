//! Cross-tier trace correlation: one end-to-end record per session.
//!
//! The layers below each observe a fragment of a session's life. The
//! client tier knows arrival instants and titles; the cluster driver
//! knows placement and every mid-run migration; each storage node records
//! phase-stamped [`SpanRecord`]s keyed by *local* stream slot. None of
//! them holds the whole story — and none needs to: the cluster result
//! already carries the final local-slot → global-id map
//! ([`ClusterResult::node_stream_ids`]) and the migration log, so the
//! join is a pure post-run computation that perturbs nothing.
//!
//! [`correlate`] performs that join. Each [`SessionTrace`] carries the
//! session's arrival, the node path it took (initial placement plus every
//! migration hop), and its spans from *all* nodes it visited, merged in
//! enqueue order. Session-level latency decomposes exactly into
//! `arrival_wait + per-phase time + gap` (see
//! [`SessionTrace::decompose`]) — the additive form tail attribution
//! needs.
//!
//! Traces serialize to JSON Lines ([`traces_to_jsonl`]) and parse back
//! ([`traces_from_jsonl`]), so `seqio report --correlate` and
//! `--attribute` work from files alone.

use std::fmt::Write as _;

use seqio_client::SessionSpec;
use seqio_cluster::ClusterResult;
use seqio_node::SpanRecord;
use seqio_simcore::{SimDuration, SimTime, SpanPhase};

use crate::json::{self, Json};

/// One span with the node that recorded it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceSpan {
    /// The node whose engine stamped this span.
    pub node: usize,
    /// The phase-stamped record, with its node-local stream index.
    pub record: SpanRecord,
}

/// The correlated end-to-end record of one session.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionTrace {
    /// Global session id (equals the global stream id).
    pub session: usize,
    /// Arrival instant; `t = 0` for closed-loop populations.
    pub arrival: SimTime,
    /// Catalogue title, when the client tier generated the session.
    pub title: Option<usize>,
    /// Requests the session was admitted to issue, when known. Without
    /// it a trace cannot distinguish "completed" from "abandoned".
    pub requests: Option<u64>,
    /// Nodes visited in order: initial placement, then one entry per
    /// migration hop.
    pub node_path: Vec<usize>,
    /// All spans the session's requests produced, across every node on
    /// the path, in enqueue order.
    pub spans: Vec<TraceSpan>,
}

/// The additive decomposition of one completed session's latency, in the
/// order [`bucket_names`] reports: arrival wait, the seven non-trivial
/// span phases, and the inter-request gap.
pub const BUCKETS: usize = 1 + (SpanPhase::COUNT - 1) + 1;

/// Human-readable bucket names, index-aligned with
/// [`SessionTrace::decompose`].
pub fn bucket_names() -> [&'static str; BUCKETS] {
    let mut names = ["arrival_wait"; BUCKETS];
    for (i, p) in SpanPhase::ALL.iter().enumerate().skip(1) {
        names[i] = p.name();
    }
    names[BUCKETS - 1] = "gap";
    names
}

impl SessionTrace {
    /// The instant the session's final byte reached its consumer: the
    /// maximal stamp of the last span. `None` until the session's full
    /// request budget produced spans — an abandoned or still-running
    /// session has no completion. Without a known budget the last
    /// recorded span is taken as final.
    pub fn completed(&self) -> Option<SimTime> {
        if let Some(budget) = self.requests {
            if (self.spans.len() as u64) < budget {
                return None;
            }
        }
        self.spans.iter().flat_map(|s| s.record.stamps.iter().flatten()).copied().max()
    }

    /// End-to-end session latency, arrival to completion.
    pub fn latency(&self) -> Option<SimDuration> {
        self.completed().map(|t| t.saturating_duration_since(self.arrival))
    }

    /// Time between the session's arrival and its first request hitting
    /// a storage node — injection and queueing ahead of service.
    pub fn arrival_wait(&self) -> Option<SimDuration> {
        self.spans.first().map(|s| s.record.enqueued().saturating_duration_since(self.arrival))
    }

    /// Per-phase time summed over every span of the session, in
    /// [`SpanPhase::ALL`] order (the `Enqueued` entry is always zero).
    /// Sums saturate at [`SimDuration::MAX`], which only stamps near the
    /// end of the clock reach.
    pub fn phase_totals(&self) -> [SimDuration; SpanPhase::COUNT] {
        let mut out = [SimDuration::ZERO; SpanPhase::COUNT];
        for s in &self.spans {
            for (acc, d) in out.iter_mut().zip(s.record.phase_durations()) {
                *acc = acc.saturating_add(d);
            }
        }
        out
    }

    /// Splits the session's latency into [`BUCKETS`] additive parts:
    /// arrival wait, the seven non-trivial phases, and the gap (time
    /// between requests — client pacing plus anything the phase stamps
    /// do not cover). The parts sum to [`latency`](Self::latency)
    /// whenever requests do not overlap in time; with overlap the gap
    /// saturates at zero and the parts over-cover the wall latency.
    /// `None` for sessions that never completed.
    pub fn decompose(&self) -> Option<[SimDuration; BUCKETS]> {
        let latency = self.latency()?;
        let mut out = [SimDuration::ZERO; BUCKETS];
        out[0] = self.arrival_wait()?;
        let phases = self.phase_totals();
        out[1..SpanPhase::COUNT].copy_from_slice(&phases[1..]);
        let covered = out.iter().fold(SimDuration::ZERO, |acc, &d| acc.saturating_add(d));
        out[BUCKETS - 1] = latency.saturating_sub(covered);
        Some(out)
    }
}

/// Joins a cluster result with the client tier's session schedule into
/// one trace per session. Requires span recording to have been enabled
/// on the run; nodes without spans contribute nothing. Works on
/// migrated sessions: spans recorded on every node along the path land
/// in the same trace, ordered by enqueue instant.
pub fn correlate(result: &ClusterResult, sessions: &[SessionSpec]) -> Vec<SessionTrace> {
    correlate_with(result, |g| {
        sessions.get(g).map(|s| (s.arrival, Some(s.title), Some(s.requests))).unwrap_or((
            SimTime::ZERO,
            None,
            None,
        ))
    })
}

/// [`correlate`] for runs without a client tier: every stream is a
/// session arriving at `t = 0` with no title and an unknown request
/// budget (the last recorded span reads as final).
pub fn correlate_cluster(result: &ClusterResult) -> Vec<SessionTrace> {
    correlate_with(result, |_| (SimTime::ZERO, None, None))
}

fn correlate_with(
    result: &ClusterResult,
    info: impl Fn(usize) -> (SimTime, Option<usize>, Option<u64>),
) -> Vec<SessionTrace> {
    let mut traces: Vec<SessionTrace> = result
        .assignment
        .iter()
        .enumerate()
        .map(|(g, &node)| {
            let (arrival, title, requests) = info(g);
            SessionTrace {
                session: g,
                arrival,
                title,
                requests,
                node_path: vec![node],
                spans: Vec::new(),
            }
        })
        .collect();
    for m in &result.migrations {
        if let Some(t) = traces.get_mut(m.stream) {
            t.node_path.push(m.to);
        }
    }
    for outcome in &result.nodes {
        let Some(r) = &outcome.result else { continue };
        let Some(spans) = &r.spans else { continue };
        let ids = &result.node_stream_ids[outcome.node];
        for s in spans {
            if let Some(&g) = ids.get(s.stream) {
                if let Some(t) = traces.get_mut(g) {
                    t.spans.push(TraceSpan { node: outcome.node, record: *s });
                }
            }
        }
    }
    for t in &mut traces {
        t.spans.sort_by_key(|s| (s.record.enqueued(), s.node, s.record.lba));
    }
    traces
}

/// Renders traces as JSON Lines: one object per session, span stamps as
/// an eight-entry array of nanosecond timestamps (`null` = phase
/// skipped).
pub fn traces_to_jsonl(traces: &[SessionTrace]) -> String {
    let mut out = String::new();
    for t in traces {
        let _ = write!(out, "{{\"session\":{},\"arrival_ns\":{}", t.session, t.arrival.as_nanos());
        match t.title {
            Some(title) => {
                let _ = write!(out, ",\"title\":{title}");
            }
            None => out.push_str(",\"title\":null"),
        }
        match t.requests {
            Some(n) => {
                let _ = write!(out, ",\"requests\":{n}");
            }
            None => out.push_str(",\"requests\":null"),
        }
        out.push_str(",\"nodes\":[");
        for (i, n) in t.node_path.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{n}");
        }
        out.push_str("],\"spans\":[");
        for (i, s) in t.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let r = &s.record;
            let _ = write!(
                out,
                "{{\"node\":{},\"stream\":{},\"disk\":{},\"lba\":{},\"blocks\":{},\
                 \"from_memory\":{},\"retries\":{},\"timed_out\":{},\"stamps\":[",
                s.node, r.stream, r.disk, r.lba, r.blocks, r.from_memory, r.retries, r.timed_out
            );
            for (k, stamp) in r.stamps.iter().enumerate() {
                if k > 0 {
                    out.push(',');
                }
                match stamp {
                    Some(at) => {
                        let _ = write!(out, "{}", at.as_nanos());
                    }
                    None => out.push_str("null"),
                }
            }
            out.push_str("]}");
        }
        out.push_str("]}\n");
    }
    out
}

/// Parses the JSON Lines written by [`traces_to_jsonl`].
///
/// # Errors
///
/// Returns a message naming the first malformed line.
pub fn traces_from_jsonl(text: &str) -> Result<Vec<SessionTrace>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        out.push(
            trace_from_json(&json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?)
                .map_err(|e| format!("line {}: {e}", i + 1))?,
        );
    }
    Ok(out)
}

fn trace_from_json(v: &Json) -> Result<SessionTrace, String> {
    let field = |key: &str| v.get(key).ok_or_else(|| format!("missing field {key:?}"));
    let opt_usize = |key: &str| -> Result<Option<usize>, String> {
        let f = field(key)?;
        if f.is_null() {
            Ok(None)
        } else {
            f.as_usize().map(Some).ok_or_else(|| format!("bad {key}"))
        }
    };
    let mut spans = Vec::new();
    for s in field("spans")?.as_arr().ok_or("spans is not an array")? {
        spans.push(span_from_json(s)?);
    }
    Ok(SessionTrace {
        session: field("session")?.as_usize().ok_or("bad session")?,
        arrival: SimTime::from_nanos(field("arrival_ns")?.as_u64().ok_or("bad arrival_ns")?),
        title: opt_usize("title")?,
        requests: opt_usize("requests")?.map(|n| n as u64),
        node_path: field("nodes")?
            .as_arr()
            .ok_or("nodes is not an array")?
            .iter()
            .map(|n| n.as_usize().ok_or_else(|| "bad node id".to_string()))
            .collect::<Result<_, _>>()?,
        spans,
    })
}

fn span_from_json(v: &Json) -> Result<TraceSpan, String> {
    let field = |key: &str| v.get(key).ok_or_else(|| format!("missing span field {key:?}"));
    let stamps_json = field("stamps")?.as_arr().ok_or("stamps is not an array")?;
    if stamps_json.len() != SpanPhase::COUNT {
        return Err(format!("expected {} stamps, got {}", SpanPhase::COUNT, stamps_json.len()));
    }
    let mut stamps = [None; SpanPhase::COUNT];
    for (slot, s) in stamps.iter_mut().zip(stamps_json) {
        if !s.is_null() {
            *slot = Some(SimTime::from_nanos(s.as_u64().ok_or("bad stamp")?));
        }
    }
    if stamps[SpanPhase::Enqueued.index()].is_none() {
        return Err("span lacks an enqueue stamp".into());
    }
    if stamps[SpanPhase::Delivered.index()].is_none() {
        return Err("span lacks a delivery stamp".into());
    }
    Ok(TraceSpan {
        node: field("node")?.as_usize().ok_or("bad node")?,
        record: SpanRecord {
            stream: field("stream")?.as_usize().ok_or("bad stream")?,
            disk: field("disk")?.as_usize().ok_or("bad disk")?,
            lba: field("lba")?.as_u64().ok_or("bad lba")?,
            blocks: field("blocks")?.as_u64().ok_or("bad blocks")?,
            from_memory: field("from_memory")?.as_bool().ok_or("bad from_memory")?,
            retries: field("retries")?.as_u64().ok_or("bad retries")? as u32,
            timed_out: field("timed_out")?.as_bool().ok_or("bad timed_out")?,
            stamps,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_nanos(us * 1_000)
    }

    fn span(node: usize, enq_us: u64, done_us: u64) -> TraceSpan {
        let mut stamps = [None; SpanPhase::COUNT];
        stamps[SpanPhase::Enqueued.index()] = Some(t(enq_us));
        stamps[SpanPhase::DiskComplete.index()] = Some(t(enq_us + (done_us - enq_us) / 2));
        stamps[SpanPhase::Delivered.index()] = Some(t(done_us));
        TraceSpan {
            node,
            record: SpanRecord {
                stream: 0,
                disk: 0,
                lba: 128,
                blocks: 16,
                from_memory: false,
                retries: 0,
                timed_out: false,
                stamps,
            },
        }
    }

    fn trace() -> SessionTrace {
        SessionTrace {
            session: 3,
            arrival: t(50),
            title: Some(7),
            requests: Some(2),
            node_path: vec![0, 1],
            spans: vec![span(0, 100, 200), span(1, 450, 700)],
        }
    }

    #[test]
    fn decomposition_is_additive() {
        let tr = trace();
        assert_eq!(tr.completed(), Some(t(700)));
        assert_eq!(tr.latency(), Some(SimDuration::from_micros(650)));
        assert_eq!(tr.arrival_wait(), Some(SimDuration::from_micros(50)));
        let parts = tr.decompose().unwrap();
        let sum: SimDuration = parts.iter().copied().sum();
        assert_eq!(sum, tr.latency().unwrap());
        // The inter-request gap (200us -> 450us) lands in the last bucket.
        assert_eq!(parts[BUCKETS - 1], SimDuration::from_micros(250));
        assert_eq!(bucket_names()[0], "arrival_wait");
        assert_eq!(bucket_names()[BUCKETS - 1], "gap");
    }

    #[test]
    fn stamps_at_the_end_of_the_clock_saturate() {
        // Both requests deliver at the last representable instant, as a
        // hostile trace file can claim: the per-phase sums saturate
        // instead of overflowing.
        let mut tr = trace();
        for s in &mut tr.spans {
            s.record.stamps[SpanPhase::Delivered.index()] = Some(SimTime::MAX);
        }
        assert_eq!(tr.phase_totals()[SpanPhase::Delivered.index()], SimDuration::MAX);
        let parts = tr.decompose().unwrap();
        assert_eq!(parts[BUCKETS - 1], SimDuration::ZERO, "nothing left for the gap");
        let tail = crate::TailAttribution::compute(&[tr.clone(), tr], 0.99, 1.0).unwrap();
        assert!((tail.share_sum_pct() - 100.0).abs() < 1e-6);
    }

    #[test]
    fn incomplete_sessions_have_no_latency() {
        let mut tr = trace();
        tr.requests = Some(3); // one span short of the budget
        assert_eq!(tr.completed(), None);
        assert_eq!(tr.decompose(), None);
        tr.requests = None; // unknown budget: last span reads as final
        assert_eq!(tr.completed(), Some(t(700)));
    }

    #[test]
    fn jsonl_round_trips_exactly() {
        let traces = vec![
            trace(),
            SessionTrace {
                session: 9,
                arrival: SimTime::ZERO,
                title: None,
                requests: None,
                node_path: vec![2],
                spans: Vec::new(),
            },
        ];
        let jsonl = traces_to_jsonl(&traces);
        assert_eq!(jsonl.lines().count(), 2);
        let parsed = traces_from_jsonl(&jsonl).unwrap();
        assert_eq!(parsed, traces);
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        assert!(traces_from_jsonl("{\"session\":0}").is_err());
        assert!(traces_from_jsonl("not json").is_err());
        // A span without a delivery stamp cannot be attributed.
        let mut tr = trace();
        tr.spans[0].record.stamps[SpanPhase::Delivered.index()] = None;
        let jsonl = traces_to_jsonl(&[tr]);
        assert!(traces_from_jsonl(&jsonl).is_err());
    }
}
