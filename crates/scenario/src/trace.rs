//! Replayable scenario trace files.
//!
//! A trace is a deterministic, line-oriented text record of every stream
//! injection and retirement a scenario performs against a set of storage
//! nodes. The grammar is the shared clause format from
//! [`seqio_simcore::ClauseFields`] — one `kind:key=value,...` clause per
//! line, `#` comments, no quoting — so a trace round-trips bit-identically
//! through serialize → parse → serialize and every parse error names the
//! offending token and its clause.
//!
//! ```text
//! # seqio scenario trace v1
//! meta:name=steady,nodes=1
//! inject:at=0,node=0,stream=0,disk=0,start=0,blocks=128,requests=400,pattern=seq
//! inject:at=0,node=0,stream=1,disk=1,start=8192,blocks=128,requests=400,pattern=near:0.1:64
//! retire:at=1500000000,node=0,stream=1
//! ```
//!
//! Timestamps are integer nanoseconds (`at=1500000000`), never floats, so
//! replaying a recorded trace reproduces the original run bit-for-bit.

use std::collections::HashSet;

use seqio_disk::Lba;
use seqio_simcore::{ClauseFields, SeqioError, SimTime};
use seqio_workload::{Pattern, StreamSpec};

/// The header comment emitted at the top of every serialized trace.
pub const TRACE_HEADER: &str = "# seqio scenario trace v1";

/// What a trace operation does to its stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceOpKind {
    /// Start a new stream on the node.
    Inject {
        /// Node-local destination disk.
        disk: usize,
        /// Starting block.
        start: Lba,
        /// Request size in blocks.
        blocks: u64,
        /// Number of requests the stream issues.
        requests: u64,
        /// Access pattern.
        pattern: Pattern,
    },
    /// Retire the stream: it issues nothing further (an in-flight request
    /// still completes and counts).
    Retire,
}

/// One timestamped operation against one node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceOp {
    /// When the operation fires.
    pub at: SimTime,
    /// Target node (index into the scenario's node set).
    pub node: usize,
    /// Trace-level stream id, unique per node. Slot numbers on the node
    /// itself are assigned at injection time; the id here is the trace's
    /// own name for the stream so a retire can find its inject.
    pub stream: usize,
    /// The operation.
    pub kind: TraceOpKind,
}

impl TraceOp {
    fn kind_rank(&self) -> u8 {
        match self.kind {
            TraceOpKind::Inject { .. } => 0,
            TraceOpKind::Retire => 1,
        }
    }

    /// Total ordering used by [`ScenarioTrace::sort`]: time, then node,
    /// then stream, with an inject sorting before a same-instant retire.
    fn sort_key(&self) -> (SimTime, usize, usize, u8) {
        (self.at, self.node, self.stream, self.kind_rank())
    }

    /// The stream spec an inject op materializes. `None` for retires.
    pub fn spec(&self) -> Option<StreamSpec> {
        match self.kind {
            TraceOpKind::Inject { disk, start, blocks, requests, pattern } => Some(StreamSpec {
                disk,
                start,
                request_blocks: blocks,
                num_requests: requests,
                pattern,
            }),
            TraceOpKind::Retire => None,
        }
    }
}

/// A named, validated sequence of [`TraceOp`]s against `nodes` storage
/// nodes.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioTrace {
    /// Scenario name (no commas, semicolons, `=` or newlines — it travels
    /// inside a clause field).
    pub name: String,
    /// How many nodes the trace addresses.
    pub nodes: usize,
    /// The operations, kept in canonical `(at, node, stream,
    /// inject-before-retire)` order.
    pub ops: Vec<TraceOp>,
}

fn scenario_err(reason: String) -> SeqioError {
    SeqioError::Component { component: "scenario", reason }
}

impl ScenarioTrace {
    /// An empty trace.
    pub fn new(name: &str, nodes: usize) -> ScenarioTrace {
        ScenarioTrace { name: name.to_string(), nodes, ops: Vec::new() }
    }

    /// Sorts the operations into canonical order (stable, so equal keys —
    /// which [`validate`](Self::validate) rejects anyway — keep insertion
    /// order).
    pub fn sort(&mut self) {
        self.ops.sort_by_key(TraceOp::sort_key);
    }

    /// Checks the trace is well-formed: name is clause-safe, ops are in
    /// canonical order, every stream id is injected exactly once with a
    /// valid spec, and retired at most once after its injection.
    ///
    /// # Errors
    ///
    /// Names the first offending operation.
    pub fn validate(&self) -> Result<(), SeqioError> {
        if self.name.contains([',', ';', '=', '\n', ':']) || self.name.is_empty() {
            return Err(scenario_err(format!(
                "scenario name `{}` must be non-empty and contain no `,;=:` or newlines",
                self.name
            )));
        }
        if self.nodes == 0 {
            return Err(scenario_err("trace must address at least one node".into()));
        }
        // `(node, stream)` pairs seen so far; sized by the ops, never by
        // the declared node count.
        let mut injected: HashSet<(usize, usize)> = HashSet::new();
        let mut retired: HashSet<(usize, usize)> = HashSet::new();
        for (i, op) in self.ops.iter().enumerate() {
            if op.node >= self.nodes {
                return Err(scenario_err(format!(
                    "op {i} targets node {} but the trace declares nodes={}",
                    op.node, self.nodes
                )));
            }
            if i > 0 && self.ops[i - 1].sort_key() >= op.sort_key() {
                return Err(scenario_err(format!(
                    "op {i} is out of order (traces are sorted by time, node, stream)"
                )));
            }
            match op.kind {
                TraceOpKind::Inject { .. } => {
                    if !injected.insert((op.node, op.stream)) {
                        return Err(scenario_err(format!(
                            "stream {} on node {} is injected twice",
                            op.stream, op.node
                        )));
                    }
                    let spec = op.spec().expect("inject op has a spec");
                    spec.validate().map_err(|r| {
                        scenario_err(format!("stream {} on node {}: {r}", op.stream, op.node))
                    })?;
                }
                TraceOpKind::Retire => {
                    if !injected.contains(&(op.node, op.stream)) {
                        return Err(scenario_err(format!(
                            "stream {} on node {} is retired before it is injected",
                            op.stream, op.node
                        )));
                    }
                    if !retired.insert((op.node, op.stream)) {
                        return Err(scenario_err(format!(
                            "stream {} on node {} is retired twice",
                            op.stream, op.node
                        )));
                    }
                }
            }
        }
        Ok(())
    }

    /// Serializes the trace to the deterministic text format.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(TRACE_HEADER);
        out.push('\n');
        out.push_str(&format!("meta:name={},nodes={}\n", self.name, self.nodes));
        for op in &self.ops {
            match op.kind {
                TraceOpKind::Inject { disk, start, blocks, requests, pattern } => {
                    out.push_str(&format!(
                        "inject:at={},node={},stream={},disk={},start={},blocks={},requests={},pattern={}\n",
                        op.at.as_nanos(),
                        op.node,
                        op.stream,
                        disk,
                        start,
                        blocks,
                        requests,
                        pattern_to_text(pattern),
                    ));
                }
                TraceOpKind::Retire => {
                    out.push_str(&format!(
                        "retire:at={},node={},stream={}\n",
                        op.at.as_nanos(),
                        op.node,
                        op.stream
                    ));
                }
            }
        }
        out
    }

    /// Parses a trace from its text form and validates it.
    ///
    /// # Errors
    ///
    /// Names the offending token, its clause, and the line it sits on.
    pub fn from_text(text: &str) -> Result<ScenarioTrace, SeqioError> {
        let mut trace = ScenarioTrace::new("unnamed", 1);
        let mut saw_meta = false;
        for (line_no, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (kind, rest) = line.split_once(':').ok_or_else(|| {
                scenario_err(format!(
                    "line {}: `{line}` is not a `kind:key=value,...` clause",
                    line_no + 1
                ))
            })?;
            let kind = kind.trim();
            let mut f = ClauseFields::parse("scenario", kind, rest)
                .map_err(|r| at_line(line_no + 1, scenario_err(r)))?;
            match kind {
                "meta" => {
                    if saw_meta {
                        return Err(scenario_err(format!(
                            "line {}: duplicate `meta` clause",
                            line_no + 1
                        )));
                    }
                    saw_meta = true;
                    trace.name = f.required("name").map_err(|e| at_line(line_no + 1, e))?;
                    trace.nodes = f
                        .usize_field("nodes", "a node count")
                        .map_err(|e| at_line(line_no + 1, e))?;
                    f.finish().map_err(|e| at_line(line_no + 1, e))?;
                }
                "inject" => {
                    let op = parse_inject(&mut f).map_err(|e| at_line(line_no + 1, e))?;
                    f.finish().map_err(|e| at_line(line_no + 1, e))?;
                    trace.ops.push(op);
                }
                "retire" => {
                    let op = parse_retire(&mut f).map_err(|e| at_line(line_no + 1, e))?;
                    f.finish().map_err(|e| at_line(line_no + 1, e))?;
                    trace.ops.push(op);
                }
                other => {
                    return Err(scenario_err(format!(
                        "line {}: unknown clause kind `{other}` (expected `meta`, `inject` or `retire`)",
                        line_no + 1
                    )));
                }
            }
        }
        trace.validate()?;
        Ok(trace)
    }
}

fn at_line(line_no: usize, e: SeqioError) -> SeqioError {
    match e {
        SeqioError::Component { component, reason } => {
            SeqioError::Component { component, reason: format!("line {line_no}: {reason}") }
        }
        other => other,
    }
}

fn parse_inject(f: &mut ClauseFields) -> Result<TraceOp, SeqioError> {
    let at = SimTime::from_nanos(f.u64_field("at", "a timestamp in nanoseconds")?);
    let node = f.usize_field("node", "a node index")?;
    let stream = f.usize_field("stream", "a stream id")?;
    let disk = f.usize_field("disk", "a disk index")?;
    let start = f.u64_field("start", "a block address")?;
    let blocks = f.u64_field("blocks", "a block count")?;
    let requests = f.u64_field("requests", "a request count")?;
    let raw = f.required("pattern")?;
    let pattern = pattern_from_text(&raw).map_err(|r| f.fail(format!("`pattern={raw}`: {r}")))?;
    Ok(TraceOp {
        at,
        node,
        stream,
        kind: TraceOpKind::Inject { disk, start, blocks, requests, pattern },
    })
}

fn parse_retire(f: &mut ClauseFields) -> Result<TraceOp, SeqioError> {
    let at = SimTime::from_nanos(f.u64_field("at", "a timestamp in nanoseconds")?);
    let node = f.usize_field("node", "a node index")?;
    let stream = f.usize_field("stream", "a stream id")?;
    Ok(TraceOp { at, node, stream, kind: TraceOpKind::Retire })
}

/// Serializes a [`Pattern`] as `seq`, `near:P:J` or `random:SPAN`. The
/// skip probability uses Rust's shortest-round-trip float formatting, so
/// parsing the text recovers the exact bits.
pub fn pattern_to_text(p: Pattern) -> String {
    match p {
        Pattern::Sequential => "seq".to_string(),
        Pattern::NearSequential { p, jitter_blocks } => format!("near:{p}:{jitter_blocks}"),
        Pattern::Random { span_blocks } => format!("random:{span_blocks}"),
    }
}

/// Parses the [`pattern_to_text`] form.
///
/// # Errors
///
/// Returns a reason string naming the offending token.
pub fn pattern_from_text(s: &str) -> Result<Pattern, String> {
    let s = s.trim();
    if s == "seq" {
        return Ok(Pattern::Sequential);
    }
    if let Some(rest) = s.strip_prefix("near:") {
        let (p, jitter) =
            rest.split_once(':').ok_or_else(|| format!("`{s}` is not `near:P:JITTER_BLOCKS`"))?;
        let p: f64 = p.parse().map_err(|_| format!("`{p}` is not a probability"))?;
        if !(0.0..=1.0).contains(&p) {
            return Err(format!("skip probability `{p}` is outside [0, 1]"));
        }
        let jitter_blocks =
            jitter.parse().map_err(|_| format!("`{jitter}` is not a block count"))?;
        return Ok(Pattern::NearSequential { p, jitter_blocks });
    }
    if let Some(span) = s.strip_prefix("random:") {
        let span_blocks = span.parse().map_err(|_| format!("`{span}` is not a block count"))?;
        return Ok(Pattern::Random { span_blocks });
    }
    Err(format!("`{s}` is not a pattern (expected `seq`, `near:P:J` or `random:SPAN`)"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ScenarioTrace {
        let mut t = ScenarioTrace::new("sample", 2);
        t.ops.push(TraceOp {
            at: SimTime::ZERO,
            node: 0,
            stream: 0,
            kind: TraceOpKind::Inject {
                disk: 0,
                start: 0,
                blocks: 128,
                requests: 400,
                pattern: Pattern::Sequential,
            },
        });
        t.ops.push(TraceOp {
            at: SimTime::ZERO,
            node: 1,
            stream: 0,
            kind: TraceOpKind::Inject {
                disk: 1,
                start: 8192,
                blocks: 64,
                requests: 200,
                pattern: Pattern::NearSequential { p: 0.1, jitter_blocks: 64 },
            },
        });
        t.ops.push(TraceOp {
            at: SimTime::from_nanos(1_500_000_000),
            node: 1,
            stream: 0,
            kind: TraceOpKind::Retire,
        });
        t.sort();
        t
    }

    #[test]
    fn text_round_trips_bit_identically() {
        let t = sample();
        t.validate().unwrap();
        let text = t.to_text();
        let back = ScenarioTrace::from_text(&text).unwrap();
        assert_eq!(back, t);
        assert_eq!(back.to_text(), text);
    }

    #[test]
    fn patterns_round_trip() {
        for p in [
            Pattern::Sequential,
            Pattern::NearSequential { p: 0.017, jitter_blocks: 3 },
            Pattern::NearSequential { p: 1.0 / 3.0, jitter_blocks: 1 },
            Pattern::Random { span_blocks: 1 << 20 },
        ] {
            assert_eq!(pattern_from_text(&pattern_to_text(p)).unwrap(), p);
        }
    }

    #[test]
    fn errors_name_the_offending_token() {
        let cases = [
            ("inject:at=soon,node=0,stream=0", "`at=soon`"),
            ("retire:at=1,node=0,stream=zero", "`stream=zero`"),
            ("retire:at=1,node=0", "missing required field `stream`"),
            ("retire:at=1,node=0,stream=0,bogus=1", "unknown field `bogus`"),
            ("meta:name=x,nodes=many", "`nodes=many`"),
            ("warp:at=1", "unknown clause kind `warp`"),
            ("inject at=1", "not a `kind:key=value,...` clause"),
            (
                "inject:at=1,node=0,stream=0,disk=0,start=0,blocks=4,requests=9,pattern=zigzag",
                "`zigzag` is not a pattern",
            ),
        ];
        for (line, needle) in cases {
            // A broken meta clause stands alone; other clauses get a
            // valid meta line first.
            let (text, line_no) = if line.starts_with("meta:") {
                (format!("{line}\n"), "line 1")
            } else {
                (format!("meta:name=t,nodes=1\n{line}\n"), "line 2")
            };
            let e = ScenarioTrace::from_text(&text).unwrap_err().to_string();
            assert!(e.contains(needle), "input `{line}`: error `{e}` lacks `{needle}`");
            assert!(e.contains(line_no), "input `{line}`: error `{e}` lacks the line number");
        }
    }

    #[test]
    fn validate_rejects_protocol_violations() {
        // Retire before inject.
        let mut t = ScenarioTrace::new("bad", 1);
        t.ops.push(TraceOp { at: SimTime::ZERO, node: 0, stream: 7, kind: TraceOpKind::Retire });
        let e = t.validate().unwrap_err().to_string();
        assert!(e.contains("retired before it is injected"), "{e}");

        // Double inject.
        let mut t = sample();
        let dup = t.ops[0];
        t.ops.push(TraceOp { at: SimTime::from_nanos(9_999_999_999), ..dup });
        let e = t.validate().unwrap_err().to_string();
        assert!(e.contains("injected twice"), "{e}");

        // Out of order (the first op stays valid, so the ordering check
        // is what trips).
        let mut t = sample();
        t.ops.swap(0, 1);
        let e = t.validate().unwrap_err().to_string();
        assert!(e.contains("out of order"), "{e}");

        // Node out of range.
        let mut t = sample();
        t.nodes = 1;
        let e = t.validate().unwrap_err().to_string();
        assert!(e.contains("declares nodes=1"), "{e}");
    }

    #[test]
    fn a_huge_declared_node_count_is_not_allocated() {
        // The declared count only bounds the ops' node indices: nothing is
        // sized by it, so neither line overflows a capacity or stalls on a
        // multi-gigabyte allocation before returning.
        for line in ["meta:name=x,nodes=18446744073709551615", "meta:name=x,nodes=50000000"] {
            let started = std::time::Instant::now();
            let t = ScenarioTrace::from_text(&format!("{line}\n")).unwrap();
            let elapsed = started.elapsed();
            assert_eq!(format!("meta:name=x,nodes={}", t.nodes), line);
            assert!(elapsed < std::time::Duration::from_secs(1), "`{line}` took {elapsed:?}");
        }
    }
}
