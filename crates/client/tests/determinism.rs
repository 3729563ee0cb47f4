//! Worker-count invariance and the link overlay.
//!
//! The contracts the front-end tier must keep:
//!
//! 1. an open-loop run with arrivals and a finite link enabled is
//!    bit-identical at every worker count (nodes advance independently;
//!    the link overlay is a single-threaded pass over a deterministic
//!    order);
//! 2. the link never touches storage outputs: it only delays delivery,
//!    stamping each completed session's final span.

use seqio_client::{ArrivalConfig, ClientExperiment, LinkConfig, RateModulation};
use seqio_cluster::{ClusterResult, SessionSlo};
use seqio_node::Experiment;
use seqio_simcore::{ObsConfig, SimDuration, SpanPhase};

fn open_template() -> Experiment {
    Experiment::builder().warmup(SimDuration::ZERO).duration(SimDuration::from_secs(8)).build()
}

fn arrivals() -> ArrivalConfig {
    ArrivalConfig {
        rate_per_sec: 120.0,
        modulation: RateModulation::Bursty {
            period: SimDuration::from_secs(2),
            duty: 0.25,
            on_factor: 4.0,
        },
        titles: 96,
        zipf_exponent: 0.9,
        requests_per_session: 3,
        session_lifetime: Some(SimDuration::from_secs(4)),
    }
}

fn fingerprint(r: &ClusterResult) -> (Vec<u64>, u64, u64, u64, u64, Option<SessionSlo>) {
    (
        r.per_stream_mbs.iter().map(|m| m.to_bits()).collect(),
        r.bytes_delivered,
        r.requests_completed,
        r.events_simulated,
        r.window.as_nanos(),
        r.slo.clone(),
    )
}

#[test]
fn open_loop_is_bit_identical_at_any_worker_count() {
    let run_with = |jobs: usize| {
        ClientExperiment::builder()
            .template(open_template())
            .nodes(3)
            .base_seed(11)
            .jobs(jobs)
            .arrivals(arrivals())
            .link(LinkConfig { capacity_bps: 40.0 * 1024.0 * 1024.0, ..LinkConfig::default() })
            .run()
            .unwrap()
    };
    let one = run_with(1);
    assert!(one.slo.is_some(), "the workload must complete sessions");
    for jobs in [2, 3, 7] {
        let other = run_with(jobs);
        assert_eq!(
            fingerprint(&one),
            fingerprint(&other),
            "SEQIO_JOBS={jobs} diverged from the single-worker run"
        );
        // Per-node detail must match too, spans included.
        for (a, b) in one.nodes.iter().zip(&other.nodes) {
            let (ra, rb) = (a.result.as_ref().unwrap(), b.result.as_ref().unwrap());
            assert_eq!(ra.stream_done_at, rb.stream_done_at);
            assert_eq!(ra.per_stream_bytes, rb.per_stream_bytes);
        }
    }
}

#[test]
fn lifetime_bound_abandons_sessions_without_breaking_determinism() {
    let mut cfg = arrivals();
    cfg.session_lifetime = Some(SimDuration::from_millis(120));
    let run = || {
        ClientExperiment::builder()
            .template(open_template())
            .nodes(2)
            .base_seed(5)
            .arrivals(cfg.clone())
            .run()
            .unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(fingerprint(&a), fingerprint(&b));
    let slo = a.slo.expect("some sessions still complete inside 120 ms");
    assert!(
        slo.completed < slo.sessions,
        "a tight lifetime must abandon some sessions ({} of {})",
        slo.completed,
        slo.sessions
    );
    // Every measured latency fits under the lifetime bound plus the
    // final request's in-flight remainder — sanity-check the ceiling.
    assert!(slo.max_ms < 1_000.0, "abandoned sessions leaked into the SLO: {}", slo.max_ms);
}

#[test]
fn finite_link_stamps_the_network_phase_and_stretches_the_tail() {
    let template = Experiment::builder()
        .warmup(SimDuration::ZERO)
        .duration(SimDuration::from_secs(4))
        .observe(ObsConfig::new().with_spans())
        .build();
    let run = |link: LinkConfig| {
        ClientExperiment::builder()
            .template(template.clone())
            .nodes(2)
            .base_seed(3)
            .arrivals(ArrivalConfig { rate_per_sec: 20.0, titles: 16, ..ArrivalConfig::default() })
            .link(link)
            .run()
            .unwrap()
    };
    let free = run(LinkConfig::default());
    // 2 MiB/s shared by 20 sessions/s of 256 KiB responses: a visible
    // network tail.
    let choked = run(LinkConfig { capacity_bps: 2.0 * 1024.0 * 1024.0, ..LinkConfig::default() });
    let (f, c) = (free.slo.unwrap(), choked.slo.unwrap());
    assert!(c.completed > 20, "only {} sessions completed", c.completed);
    assert_eq!(f.completed, c.completed);
    assert!(c.p99_ms > f.p99_ms, "a choked link must stretch the tail");
    // Storage-side outputs are untouched by link configuration.
    assert_eq!(free.bytes_delivered, choked.bytes_delivered);
    assert_eq!(free.events_simulated, choked.events_simulated);

    // Each completed session's final request gained exactly one
    // network_delivered stamp, at or after storage delivered it.
    let mut stamped = 0u64;
    for (a, b) in free.nodes.iter().zip(&choked.nodes) {
        let (ra, rb) = (a.result.as_ref().unwrap(), b.result.as_ref().unwrap());
        assert_eq!(ra.stream_done_at, rb.stream_done_at);
        let mut per_session = vec![0usize; rb.stream_done_at.len()];
        for s in rb.spans.as_ref().unwrap() {
            let Some(net) = s.stamp(SpanPhase::NetworkDelivered) else { continue };
            assert_eq!(Some(s.delivered()), rb.stream_done_at[s.stream], "not a final request");
            assert!(net >= s.delivered());
            assert!(s.total() >= s.delivered().duration_since(s.enqueued()));
            per_session[s.stream] += 1;
        }
        for (slot, done) in rb.stream_done_at.iter().enumerate() {
            assert_eq!(per_session[slot], usize::from(done.is_some()), "session slot {slot}");
        }
        stamped += per_session.iter().sum::<usize>() as u64;
        assert!(
            ra.spans
                .as_ref()
                .unwrap()
                .iter()
                .all(|s| s.stamp(SpanPhase::NetworkDelivered).is_none()),
            "an unconstrained link stamps nothing"
        );
    }
    assert_eq!(stamped, c.completed, "one network stamp per completed session");
}

#[test]
fn open_loop_rejects_incompatible_templates() {
    let mut template = open_template();
    template.faults = Some(seqio_simcore::FaultPlan::new().read_errors(0, 0.01));
    let err = ClientExperiment::builder().template(template).run().unwrap_err();
    assert!(err.to_string().contains("fault"), "unexpected error: {err}");

    let bad_link = ClientExperiment::builder()
        .link(LinkConfig { capacity_bps: 0.0, ..LinkConfig::default() })
        .run()
        .unwrap_err();
    assert!(bad_link.to_string().contains("capacity"));
}
