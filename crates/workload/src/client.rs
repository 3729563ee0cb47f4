//! Client emulation.
//!
//! The paper's harness emulates streams from separate client machines: each
//! client "issues requests from all streams it emulates as soon as it
//! receives a response, never exceeding the maximum number of outstanding
//! I/Os" (one per stream in every experiment). [`ClientSet`] reproduces that
//! closed-loop behaviour; the storage-node engine asks it what to send next.

use seqio_disk::Lba;
use seqio_simcore::SimRng;

use crate::stream::{StreamSpec, StreamState};

/// Identifier of a stream within a [`ClientSet`].
pub type StreamIdx = usize;

/// A request the client set wants submitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientRequest {
    /// Which stream issued it.
    pub stream: StreamIdx,
    /// Destination disk.
    pub disk: usize,
    /// First block.
    pub lba: Lba,
    /// Length in blocks.
    pub blocks: u64,
}

/// Closed-loop generator over a set of streams, each with at most one
/// request in flight.
#[derive(Debug)]
pub struct ClientSet {
    streams: Vec<StreamState>,
    /// Requests in flight per stream: 0 or 1.
    outstanding: Vec<u32>,
    completed: Vec<u64>,
    disk_blocks: Lba,
}

impl ClientSet {
    /// Builds a client set over disks of `disk_blocks` blocks each, with
    /// one in-flight request per stream (the paper's setting throughout).
    /// `specs` may be empty: an open-session node starts with no streams
    /// and adopts them mid-run via [`inject_stream`](Self::inject_stream).
    ///
    /// # Panics
    ///
    /// Panics if any spec is invalid.
    pub fn new(specs: Vec<StreamSpec>, disk_blocks: Lba, rng: &mut SimRng) -> Self {
        let streams: Vec<StreamState> = specs
            .into_iter()
            .enumerate()
            .map(|(i, s)| StreamState::new(s, disk_blocks, rng.fork(i as u64)))
            .collect();
        let n = streams.len();
        let (outstanding, completed) = (vec![0; n], vec![0; n]);
        ClientSet { streams, outstanding, completed, disk_blocks }
    }

    /// Number of streams.
    pub fn len(&self) -> usize {
        self.streams.len()
    }

    /// `true` if there are no streams (an open-session node before its
    /// first arrival).
    pub fn is_empty(&self) -> bool {
        self.streams.is_empty()
    }

    /// Initial burst: every stream sends its first request.
    pub fn initial_requests(&mut self) -> Vec<ClientRequest> {
        let mut out = Vec::new();
        for s in 0..self.streams.len() {
            if let Some(r) = self.try_issue(s) {
                out.push(r);
            }
        }
        out
    }

    /// Called when a request from `stream` completes; returns the follow-up
    /// request, if the stream has one.
    ///
    /// # Panics
    ///
    /// Panics if `stream` has nothing outstanding (double completion).
    pub fn on_complete(&mut self, stream: StreamIdx) -> Option<ClientRequest> {
        assert!(self.outstanding[stream] > 0, "completion without outstanding request");
        self.outstanding[stream] -= 1;
        self.completed[stream] += 1;
        self.try_issue(stream)
    }

    fn try_issue(&mut self, s: StreamIdx) -> Option<ClientRequest> {
        if self.outstanding[s] > 0 {
            return None;
        }
        let (lba, blocks) = self.streams[s].next_request()?;
        self.outstanding[s] += 1;
        Some(ClientRequest { stream: s, disk: self.streams[s].spec().disk, lba, blocks })
    }

    /// Requests completed by `stream` so far.
    pub fn completed(&self, stream: StreamIdx) -> u64 {
        self.completed[stream]
    }

    /// The static description of `stream`.
    pub fn stream_spec(&self, stream: StreamIdx) -> &StreamSpec {
        self.streams[stream].spec()
    }

    /// `true` while `stream` still has requests to issue.
    pub fn stream_live(&self, stream: StreamIdx) -> bool {
        !self.streams[stream].exhausted()
    }

    /// Streams that still have requests to issue.
    pub fn live_count(&self) -> usize {
        self.streams.iter().filter(|s| !s.exhausted()).count()
    }

    /// Retires `stream` for migration: splits off its unissued tail (see
    /// [`StreamState::split_remainder`]) and exhausts the local generator,
    /// so the stream issues nothing further here. A request already in
    /// flight still completes — and is counted — on this client set.
    /// Returns `None` when the stream has nothing left to migrate.
    pub fn retire_stream(&mut self, stream: StreamIdx) -> Option<StreamSpec> {
        self.streams[stream].split_remainder()
    }

    /// Adopts a migrated stream: appends a fresh generator for `spec`
    /// (typically a [`retire_stream`](Self::retire_stream) remainder from
    /// another node) seeded by `rng`, and returns its local index. The new
    /// stream issues nothing until [`kickoff`](Self::kickoff) is called.
    ///
    /// # Panics
    ///
    /// Panics if the spec is invalid.
    pub fn inject_stream(&mut self, spec: StreamSpec, rng: SimRng) -> StreamIdx {
        self.streams.push(StreamState::new(spec, self.disk_blocks, rng));
        self.outstanding.push(0);
        self.completed.push(0);
        self.streams.len() - 1
    }

    /// Issues the first request of an injected stream (closed-loop restart
    /// after migration). Returns `None` if the stream is exhausted or
    /// already has a request in flight.
    pub fn kickoff(&mut self, stream: StreamIdx) -> Option<ClientRequest> {
        self.try_issue(stream)
    }

    /// Total requests still in flight.
    pub fn total_outstanding(&self) -> u64 {
        self.outstanding.iter().map(|&o| o as u64).sum()
    }

    /// `true` once every stream is exhausted and nothing is in flight.
    pub fn finished(&self) -> bool {
        self.total_outstanding() == 0 && self.streams.iter().all(|s| s.exhausted())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(n_streams: usize, reqs: u64) -> ClientSet {
        let specs = (0..n_streams)
            .map(|i| StreamSpec::sequential(0, i as u64 * 1_000_000, 128, reqs))
            .collect();
        let mut rng = SimRng::seed_from(3);
        ClientSet::new(specs, Lba::MAX, &mut rng)
    }

    #[test]
    fn initial_burst_fills_windows() {
        let mut c = set(5, 10);
        let burst = c.initial_requests();
        assert_eq!(burst.len(), 5);
        assert_eq!(c.total_outstanding(), 5);
        // Each stream contributed exactly one request at its own offset.
        for (i, r) in burst.iter().enumerate() {
            assert_eq!(r.stream, i);
            assert_eq!(r.lba, i as u64 * 1_000_000);
        }
    }

    #[test]
    fn closed_loop_window_respected() {
        let mut c = set(2, 100);
        let burst = c.initial_requests();
        assert_eq!(burst.len(), 2);
        // A stream with a request in flight sends nothing more.
        assert!(c.kickoff(0).is_none());
        // Completing one opens exactly one slot.
        let next = c.on_complete(0).expect("more requests remain");
        assert_eq!(next.stream, 0);
        assert_eq!(c.total_outstanding(), 2);
    }

    #[test]
    fn streams_drain_to_finished() {
        let mut c = set(3, 4);
        let mut inflight: Vec<ClientRequest> = c.initial_requests();
        let mut served = 0;
        while let Some(r) = inflight.pop() {
            served += 1;
            if let Some(next) = c.on_complete(r.stream) {
                inflight.push(next);
            }
        }
        assert_eq!(served, 12);
        assert!(c.finished());
        for s in 0..3 {
            assert_eq!(c.completed(s), 4);
        }
    }

    #[test]
    fn requests_within_a_stream_are_sequential() {
        let mut c = set(1, 5);
        let mut last_end = None;
        let mut r = c.initial_requests().pop().unwrap();
        loop {
            if let Some(e) = last_end {
                assert_eq!(r.lba, e);
            }
            last_end = Some(r.lba + r.blocks);
            match c.on_complete(r.stream) {
                Some(next) => r = next,
                None => break,
            }
        }
        assert!(c.finished());
    }

    #[test]
    fn retire_and_inject_conserve_the_workload() {
        // Two client sets model a source and a target node.
        let mut src = set(2, 10);
        let mut dst = set(1, 10);
        let mut inflight = src.initial_requests();
        assert_eq!(inflight.len(), 2);
        // Complete one request on stream 0, leaving 1 in flight + 8 unissued.
        let r = inflight.remove(0);
        let refill = src.on_complete(r.stream).unwrap();
        assert_eq!(refill.stream, 0);

        let rem = src.retire_stream(0).expect("8 requests left to migrate");
        assert_eq!(rem.num_requests, 8);
        assert!(!src.stream_live(0), "donor stream is exhausted in place");
        assert_eq!(src.live_count(), 1);
        // The in-flight request still completes at the source, then stops.
        assert!(src.on_complete(0).is_none());
        assert_eq!(src.completed(0), 2);

        // The target adopts the remainder and restarts the closed loop.
        let slot = dst.inject_stream(rem, SimRng::seed_from(9));
        assert_eq!(slot, 1);
        assert!(dst.stream_live(slot));
        let first = dst.kickoff(slot).expect("injected stream issues");
        assert_eq!(first.stream, slot);
        assert_eq!(first.lba, rem.start);
        // One request in flight: a second kickoff is refused until completion.
        assert!(dst.kickoff(slot).is_none());
        // Drain the migrated stream: exactly the 8 migrated requests run.
        let mut served = 1;
        while dst.on_complete(slot).is_some() {
            served += 1;
        }
        assert_eq!(served, 8);
        assert_eq!(dst.completed(slot), 8);
    }

    #[test]
    fn retire_exhausted_stream_is_none() {
        let mut c = set(1, 1);
        let _ = c.initial_requests();
        assert!(c.retire_stream(0).is_none(), "no unissued requests left");
    }

    #[test]
    #[should_panic(expected = "completion without outstanding")]
    fn double_completion_panics() {
        let mut c = set(1, 5);
        let _ = c.initial_requests();
        let _ = c.on_complete(0);
        // Stream 0 has one outstanding again (refilled); drain it twice.
        let _ = c.on_complete(0);
        let _ = c.on_complete(0);
        let _ = c.on_complete(0);
        let _ = c.on_complete(0);
        let _ = c.on_complete(0); // exhausted: nothing outstanding now
        let _ = c.on_complete(0);
    }
}
