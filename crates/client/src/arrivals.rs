//! Open-loop arrival and popularity generators.
//!
//! Session arrivals follow a Poisson process whose instantaneous rate may
//! be modulated (bursty on/off phases, a diurnal sinusoid). Arrivals are
//! drawn by Lewis–Shedler thinning: candidate points come from a
//! homogeneous process at the peak rate and are accepted with probability
//! `rate(t) / peak`, which realizes the exact inhomogeneous process
//! without any per-interval integration. Stream popularity follows a Zipf
//! law over a fixed title catalogue, the standard model for video-on-
//! demand request mixes.
//!
//! Both generators draw from a dedicated [`SimRng`] stream that the
//! driver derives independently of every storage-side RNG (rotational
//! phases, fault injection, per-stream jitter), so enabling the client
//! front-end cannot perturb the storage simulation's randomness.

use seqio_simcore::{SeqioError, SimDuration, SimRng, SimTime};

/// Time-of-day modulation applied on top of the base arrival rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RateModulation {
    /// A homogeneous Poisson process at the base rate.
    Constant,
    /// On/off bursts: within each `period`, the first `duty` fraction
    /// runs at `on_factor` times the base rate, the remainder at the
    /// base rate (flash-crowd arrivals).
    Bursty {
        /// Length of one on/off cycle.
        period: SimDuration,
        /// Fraction of the period spent in the burst, in `(0, 1]`.
        duty: f64,
        /// Rate multiplier during the burst (≥ 1).
        on_factor: f64,
    },
    /// A sinusoidal daily cycle: `rate(t) = base * (1 + depth *
    /// sin(2πt / period))`, `depth` in `[0, 1)`.
    Diurnal {
        /// Length of one full cycle.
        period: SimDuration,
        /// Relative swing around the base rate, in `[0, 1)`.
        depth: f64,
    },
}

impl RateModulation {
    /// Validates the modulation parameters.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint.
    pub fn validate(&self) -> Result<(), SeqioError> {
        match *self {
            RateModulation::Constant => Ok(()),
            RateModulation::Bursty { period, duty, on_factor } => {
                if period == SimDuration::ZERO {
                    return Err(SeqioError::Experiment("burst period must be positive".into()));
                }
                if !(duty > 0.0 && duty <= 1.0) {
                    return Err(SeqioError::Experiment(format!(
                        "burst duty must be in (0, 1], got {duty}"
                    )));
                }
                if !on_factor.is_finite() || on_factor < 1.0 {
                    return Err(SeqioError::Experiment(format!(
                        "burst on_factor must be a finite value >= 1, got {on_factor}"
                    )));
                }
                Ok(())
            }
            RateModulation::Diurnal { period, depth } => {
                if period == SimDuration::ZERO {
                    return Err(SeqioError::Experiment("diurnal period must be positive".into()));
                }
                if !(0.0..1.0).contains(&depth) {
                    return Err(SeqioError::Experiment(format!(
                        "diurnal depth must be in [0, 1), got {depth}"
                    )));
                }
                Ok(())
            }
        }
    }

    /// Rate multiplier at `t` seconds (relative to the base rate).
    fn factor_at(&self, t_secs: f64) -> f64 {
        match *self {
            RateModulation::Constant => 1.0,
            RateModulation::Bursty { period, duty, on_factor } => {
                let p = period.as_secs_f64();
                if (t_secs % p) < duty * p {
                    on_factor
                } else {
                    1.0
                }
            }
            RateModulation::Diurnal { period, depth } => {
                let p = period.as_secs_f64();
                1.0 + depth * (2.0 * std::f64::consts::PI * t_secs / p).sin()
            }
        }
    }

    /// The largest rate multiplier over all time (the thinning envelope).
    fn peak_factor(&self) -> f64 {
        match *self {
            RateModulation::Constant => 1.0,
            RateModulation::Bursty { on_factor, .. } => on_factor.max(1.0),
            RateModulation::Diurnal { depth, .. } => 1.0 + depth,
        }
    }
}

/// An open-loop (possibly inhomogeneous) Poisson arrival process over a
/// finite horizon, realized by Lewis–Shedler thinning.
#[derive(Debug)]
pub struct ArrivalProcess {
    base_rate: f64,
    modulation: RateModulation,
    horizon_secs: f64,
    t_secs: f64,
    rng: SimRng,
}

impl ArrivalProcess {
    /// Builds the process: `base_rate` sessions per second modulated by
    /// `modulation`, generating arrivals in `[0, horizon)`, drawn from
    /// `rng`.
    ///
    /// # Errors
    ///
    /// Rejects a non-positive or non-finite base rate, a zero horizon,
    /// and invalid modulation parameters.
    pub fn new(
        base_rate: f64,
        modulation: RateModulation,
        horizon: SimDuration,
        rng: SimRng,
    ) -> Result<Self, SeqioError> {
        if !base_rate.is_finite() || base_rate <= 0.0 {
            return Err(SeqioError::Experiment(format!(
                "arrival rate must be positive and finite, got {base_rate}"
            )));
        }
        if horizon == SimDuration::ZERO {
            return Err(SeqioError::Experiment("arrival horizon must be positive".into()));
        }
        modulation.validate()?;
        Ok(ArrivalProcess {
            base_rate,
            modulation,
            horizon_secs: horizon.as_secs_f64(),
            t_secs: 0.0,
            rng,
        })
    }

    /// Draws the next arrival instant, or `None` once the horizon is
    /// reached. Instants are strictly non-decreasing.
    pub fn next_arrival(&mut self) -> Option<SimTime> {
        let peak = self.base_rate * self.modulation.peak_factor();
        loop {
            self.t_secs += self.rng.exponential(1.0 / peak);
            if self.t_secs >= self.horizon_secs {
                return None;
            }
            let accept = self.modulation.factor_at(self.t_secs) / self.modulation.peak_factor();
            if accept >= 1.0 || self.rng.unit() < accept {
                return Some(SimTime::ZERO + SimDuration::from_secs_f64(self.t_secs));
            }
        }
    }
}

/// The most titles one catalogue may hold. [`ZipfSampler`] keeps one
/// cumulative weight per title, so a larger catalogue would ask for its
/// whole table up front; the scenario generator's largest catalogue
/// (16 titles per disk on [`MAX_NODES`](seqio_node::driver::MAX_NODES)
/// sixty-disk nodes) stays below it.
pub const MAX_TITLES: usize = 1 << 24;

/// Refuses an empty catalogue and one above [`MAX_TITLES`].
pub(crate) fn check_titles(titles: usize) -> Result<(), SeqioError> {
    if titles == 0 {
        return Err(SeqioError::Experiment("need at least one title".into()));
    }
    if titles > MAX_TITLES {
        return Err(SeqioError::Experiment(format!(
            "titles: {titles} is more than the {MAX_TITLES} one catalogue may hold"
        )));
    }
    Ok(())
}

/// A Zipf-distributed sampler over a catalogue of `n` titles: title `k`
/// (0-based rank) is drawn with probability proportional to
/// `(k + 1)^-exponent`. Sampling is O(log n) via a binary search over the
/// precomputed cumulative weights.
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    cumulative: Vec<f64>,
}

impl ZipfSampler {
    /// Builds the sampler for `titles` ranks at the given exponent
    /// (`0.0` = uniform; classic video-on-demand fits use `0.7..=1.1`).
    ///
    /// # Errors
    ///
    /// Rejects an empty catalogue, one above [`MAX_TITLES`] and a negative
    /// or non-finite exponent.
    pub fn new(titles: usize, exponent: f64) -> Result<Self, SeqioError> {
        check_titles(titles)?;
        if !exponent.is_finite() || exponent < 0.0 {
            return Err(SeqioError::Experiment(format!(
                "Zipf exponent must be finite and non-negative, got {exponent}"
            )));
        }
        let mut cumulative = Vec::with_capacity(titles);
        let mut total = 0.0;
        for k in 0..titles {
            total += ((k + 1) as f64).powf(-exponent);
            cumulative.push(total);
        }
        Ok(ZipfSampler { cumulative })
    }

    /// Number of titles in the catalogue.
    pub fn titles(&self) -> usize {
        self.cumulative.len()
    }

    /// Draws one title rank in `0..titles()`.
    pub fn sample(&self, rng: &mut SimRng) -> usize {
        let total = *self.cumulative.last().expect("catalogue is non-empty");
        let u = rng.unit() * total;
        self.cumulative.partition_point(|&c| c <= u).min(self.cumulative.len() - 1)
    }

    /// The modelled probability of title rank `k`.
    pub fn probability(&self, k: usize) -> f64 {
        let total = *self.cumulative.last().expect("catalogue is non-empty");
        let lo = if k == 0 { 0.0 } else { self.cumulative[k - 1] };
        (self.cumulative[k] - lo) / total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::seed_from(42)
    }

    #[test]
    fn constant_process_stays_inside_the_horizon_in_order() {
        let mut p =
            ArrivalProcess::new(100.0, RateModulation::Constant, SimDuration::from_secs(10), rng())
                .unwrap();
        let mut last = SimTime::ZERO;
        let mut n = 0u64;
        while let Some(t) = p.next_arrival() {
            assert!(t >= last, "arrivals are non-decreasing");
            assert!(t < SimTime::ZERO + SimDuration::from_secs(10));
            last = t;
            n += 1;
        }
        // Mean 1000 arrivals, sd ~32: a 6-sigma band is [810, 1190].
        assert!((810..1190).contains(&n), "expected ~1000 arrivals, got {n}");
    }

    #[test]
    fn bursty_modulation_concentrates_arrivals_in_the_burst() {
        let m = RateModulation::Bursty {
            period: SimDuration::from_secs(10),
            duty: 0.2,
            on_factor: 8.0,
        };
        let mut p = ArrivalProcess::new(50.0, m, SimDuration::from_secs(100), rng()).unwrap();
        let (mut on, mut off) = (0u64, 0u64);
        while let Some(t) = p.next_arrival() {
            let phase = t.duration_since(SimTime::ZERO).as_secs_f64() % 10.0;
            if phase < 2.0 {
                on += 1;
            } else {
                off += 1;
            }
        }
        // Rates are 400/s for 20 s and 50/s for 80 s: 8000 vs 4000.
        assert!(on > off, "burst window should dominate: on={on} off={off}");
        let ratio = on as f64 / off as f64;
        assert!((1.5..2.7).contains(&ratio), "expected on/off ~2, got {ratio}");
    }

    #[test]
    fn diurnal_modulation_follows_the_sinusoid() {
        let m = RateModulation::Diurnal { period: SimDuration::from_secs(100), depth: 0.9 };
        let mut p = ArrivalProcess::new(100.0, m, SimDuration::from_secs(100), rng()).unwrap();
        let (mut first_half, mut second_half) = (0u64, 0u64);
        while let Some(t) = p.next_arrival() {
            if t < SimTime::ZERO + SimDuration::from_secs(50) {
                first_half += 1;
            } else {
                second_half += 1;
            }
        }
        // sin is positive over the first half-period, negative after.
        assert!(
            first_half > 2 * second_half,
            "peak half should dominate: {first_half} vs {second_half}"
        );
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        let h = SimDuration::from_secs(1);
        assert!(ArrivalProcess::new(0.0, RateModulation::Constant, h, rng()).is_err());
        assert!(ArrivalProcess::new(f64::INFINITY, RateModulation::Constant, h, rng()).is_err());
        assert!(
            ArrivalProcess::new(1.0, RateModulation::Constant, SimDuration::ZERO, rng()).is_err()
        );
        let bad_duty = RateModulation::Bursty { period: h, duty: 0.0, on_factor: 2.0 };
        assert!(ArrivalProcess::new(1.0, bad_duty, h, rng()).is_err());
        let bad_factor = RateModulation::Bursty { period: h, duty: 0.5, on_factor: 0.5 };
        assert!(ArrivalProcess::new(1.0, bad_factor, h, rng()).is_err());
        let bad_depth = RateModulation::Diurnal { period: h, depth: 1.0 };
        assert!(ArrivalProcess::new(1.0, bad_depth, h, rng()).is_err());
        assert!(ZipfSampler::new(0, 1.0).is_err());
        assert!(ZipfSampler::new(10, -1.0).is_err());
        assert!(ZipfSampler::new(10, f64::NAN).is_err());
    }

    #[test]
    fn catalogues_above_the_bound_are_refused_before_allocating() {
        for titles in [MAX_TITLES + 1, usize::MAX] {
            let config = crate::ArrivalConfig { titles, ..crate::ArrivalConfig::default() };
            for err in [ZipfSampler::new(titles, 0.8).unwrap_err(), config.validate().unwrap_err()]
            {
                assert!(err.to_string().contains(&format!("titles: {titles}")), "{err}");
            }
        }
    }

    #[test]
    fn zipf_ranks_decay_and_cover_the_catalogue() {
        let z = ZipfSampler::new(100, 1.0).unwrap();
        let mut rng = rng();
        let mut counts = vec![0u64; 100];
        for _ in 0..100_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        // Rank 0 is the most popular; its modelled share is 1/H(100).
        assert!(counts[0] > counts[10] && counts[10] > counts[50]);
        let p0 = z.probability(0);
        let observed = counts[0] as f64 / 100_000.0;
        assert!((observed - p0).abs() < 0.01, "rank-0 share {observed} vs model {p0}");
        // Probabilities sum to 1.
        let total: f64 = (0..100).map(|k| z.probability(k)).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_exponent_is_uniform() {
        let z = ZipfSampler::new(4, 0.0).unwrap();
        for k in 0..4 {
            assert!((z.probability(k) - 0.25).abs() < 1e-12);
        }
    }
}
