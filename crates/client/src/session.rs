//! Session pre-generation: the deterministic user population.
//!
//! The open-loop driver materializes the whole session schedule before
//! any node advances: arrival instants from the [`ArrivalProcess`], title
//! choices from the [`ZipfSampler`], and a fixed title → (node, disk,
//! extent) placement. Pre-generation keeps the schedule a pure function
//! of the configuration and one dedicated RNG stream, so per-node
//! execution can fan out across workers without any cross-node RNG
//! coupling — the foundation of the bit-identical-at-any-`SEQIO_JOBS`
//! guarantee.

use seqio_disk::Lba;
use seqio_simcore::{SeqioError, SimDuration, SimRng, SimTime};

use crate::arrivals::{check_titles, ArrivalProcess, RateModulation, ZipfSampler};

/// Open-loop session workload parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrivalConfig {
    /// Base session arrival rate, sessions per second (cluster-wide).
    pub rate_per_sec: f64,
    /// Rate modulation on top of the base rate.
    pub modulation: RateModulation,
    /// Catalogue size: sessions pick one of this many titles (at most
    /// [`MAX_TITLES`](crate::MAX_TITLES)).
    pub titles: usize,
    /// Zipf popularity exponent over the catalogue (0 = uniform).
    pub zipf_exponent: f64,
    /// Sequential requests each session issues before it ends.
    pub requests_per_session: u64,
    /// Viewing-time bound: a session still live this long after its
    /// arrival is abandoned (retired from its node, excluded from the
    /// latency distribution). `None` lets every session run to
    /// completion.
    pub session_lifetime: Option<SimDuration>,
}

impl Default for ArrivalConfig {
    /// 100 sessions/s, constant rate, 1024-title catalogue at the classic
    /// VoD exponent 0.8, 4 requests per session, unbounded lifetime.
    fn default() -> Self {
        ArrivalConfig {
            rate_per_sec: 100.0,
            modulation: RateModulation::Constant,
            titles: 1024,
            zipf_exponent: 0.8,
            requests_per_session: 4,
            session_lifetime: None,
        }
    }
}

impl ArrivalConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint.
    pub fn validate(&self) -> Result<(), SeqioError> {
        if !self.rate_per_sec.is_finite() || self.rate_per_sec <= 0.0 {
            return Err(SeqioError::Experiment(format!(
                "arrival rate must be positive and finite, got {}",
                self.rate_per_sec
            )));
        }
        self.modulation.validate()?;
        check_titles(self.titles)?;
        if !self.zipf_exponent.is_finite() || self.zipf_exponent < 0.0 {
            return Err(SeqioError::Experiment(format!(
                "Zipf exponent must be finite and non-negative, got {}",
                self.zipf_exponent
            )));
        }
        if self.requests_per_session == 0 {
            return Err(SeqioError::Experiment("sessions must issue at least one request".into()));
        }
        if self.session_lifetime == Some(SimDuration::ZERO) {
            return Err(SeqioError::Experiment("session lifetime must be positive".into()));
        }
        Ok(())
    }
}

/// One pre-generated session: a user who arrives at `arrival` and
/// sequentially reads `requests` requests of the title's extent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionSpec {
    /// Global session id, dense in arrival order.
    pub id: usize,
    /// Arrival instant (simulated).
    pub arrival: SimTime,
    /// Catalogue rank the session watches.
    pub title: usize,
    /// Storage node holding the title.
    pub node: usize,
    /// Disk on that node holding the title.
    pub disk: usize,
    /// First block of the title's extent.
    pub start: Lba,
    /// Sequential requests the session issues.
    pub requests: u64,
}

/// Lays one title onto the cluster: titles round-robin over nodes, then
/// over each node's disks, then over fixed-size extents on the disk, so
/// popular (low-rank) titles spread across nodes while every session of
/// one title hits the same extent — the hot-set locality a VoD workload
/// exhibits.
fn place_title(
    title: usize,
    nodes: usize,
    disks_per_node: usize,
    extent_blocks: u64,
    usable_blocks: u64,
) -> (usize, usize, Lba) {
    let node = title % nodes;
    let disk = (title / nodes) % disks_per_node;
    let slot_count = (usable_blocks / extent_blocks).max(1);
    let slot = (title / (nodes * disks_per_node)) as u64 % slot_count;
    (node, disk, slot * extent_blocks)
}

/// Materializes the full session schedule in arrival order.
///
/// `seed` names the dedicated session RNG stream (already derived away
/// from every storage seed by the caller); `horizon` bounds arrivals;
/// `usable_blocks` is one disk's capacity in blocks and bounds title
/// extents.
///
/// # Errors
///
/// Rejects invalid configurations, a title extent larger than the disk,
/// and a zero node/disk count.
pub fn generate_sessions(
    cfg: &ArrivalConfig,
    nodes: usize,
    disks_per_node: usize,
    request_blocks: u64,
    usable_blocks: u64,
    horizon: SimDuration,
    seed: u64,
) -> Result<Vec<SessionSpec>, SeqioError> {
    cfg.validate()?;
    if nodes == 0 || disks_per_node == 0 {
        return Err(SeqioError::Experiment("need at least one node and one disk".into()));
    }
    let extent_blocks = cfg
        .requests_per_session
        .checked_mul(request_blocks)
        .filter(|&b| b <= usable_blocks)
        .ok_or_else(|| {
            SeqioError::Experiment(format!(
                "a session extent of {} requests x {request_blocks} blocks does not fit \
                 a {usable_blocks}-block disk",
                cfg.requests_per_session
            ))
        })?;
    let mut rng = SimRng::seed_from(seed);
    let mut arrivals = ArrivalProcess::new(cfg.rate_per_sec, cfg.modulation, horizon, rng.fork(1))?;
    let zipf = ZipfSampler::new(cfg.titles, cfg.zipf_exponent)?;
    let mut title_rng = rng.fork(2);
    let mut out = Vec::new();
    while let Some(arrival) = arrivals.next_arrival() {
        let title = zipf.sample(&mut title_rng);
        let (node, disk, start) =
            place_title(title, nodes, disks_per_node, extent_blocks, usable_blocks);
        out.push(SessionSpec {
            id: out.len(),
            arrival,
            title,
            node,
            disk,
            start,
            requests: cfg.requests_per_session,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ArrivalConfig {
        ArrivalConfig { rate_per_sec: 200.0, titles: 64, ..ArrivalConfig::default() }
    }

    #[test]
    fn generation_is_a_pure_function_of_the_seed() {
        let a =
            generate_sessions(&cfg(), 4, 2, 128, 1 << 24, SimDuration::from_secs(5), 9).unwrap();
        let b =
            generate_sessions(&cfg(), 4, 2, 128, 1 << 24, SimDuration::from_secs(5), 9).unwrap();
        assert_eq!(a, b);
        let c =
            generate_sessions(&cfg(), 4, 2, 128, 1 << 24, SimDuration::from_secs(5), 10).unwrap();
        assert_ne!(a, c, "a different seed draws a different schedule");
        assert!(!a.is_empty());
    }

    #[test]
    fn sessions_are_dense_ordered_and_in_bounds() {
        let sessions =
            generate_sessions(&cfg(), 3, 4, 128, 1 << 24, SimDuration::from_secs(5), 1).unwrap();
        let mut last = SimTime::ZERO;
        for (i, s) in sessions.iter().enumerate() {
            assert_eq!(s.id, i);
            assert!(s.arrival >= last);
            assert!(s.node < 3 && s.disk < 4);
            assert!(s.title < 64);
            assert!(s.start + s.requests * 128 <= 1 << 24, "extent inside the disk");
            last = s.arrival;
        }
    }

    #[test]
    fn one_title_always_lands_on_one_extent() {
        let sessions =
            generate_sessions(&cfg(), 2, 2, 128, 1 << 24, SimDuration::from_secs(10), 3).unwrap();
        let mut homes = std::collections::HashMap::new();
        for s in &sessions {
            let home = homes.entry(s.title).or_insert((s.node, s.disk, s.start));
            assert_eq!(*home, (s.node, s.disk, s.start), "title placement is static");
        }
        assert!(homes.len() > 10, "popular catalogue gets broad coverage");
    }

    #[test]
    fn oversized_extents_are_rejected() {
        let mut c = cfg();
        c.requests_per_session = 1 << 40;
        let err =
            generate_sessions(&c, 1, 1, 128, 1 << 24, SimDuration::from_secs(1), 1).unwrap_err();
        assert!(err.to_string().contains("does not fit"));
    }
}
