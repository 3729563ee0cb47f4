//! The knobs every simulating subcommand shares.
//!
//! `run`, `sweep` and `cluster run` all accept the same fault /
//! observability / worker flags, parsed once into a [`CommonArgs`] so the
//! grammar, defaults and error messages cannot drift between subcommands.

use seqio_node::{MetricSeries, ObsConfig, SpanRecord};
use seqio_simcore::{FaultPlan, SimDuration};

use crate::args::Args;

/// Flags shared by `run`, `sweep` and `cluster run`.
pub const COMMON_FLAGS: &[&str] =
    &["faults", "trace-out", "metrics-out", "sample-interval", "jobs"];

/// Parsed values of the [`COMMON_FLAGS`].
#[derive(Debug, Clone)]
pub struct CommonArgs {
    /// `--faults SPEC`, already parsed and validated. Where it lands is
    /// the subcommand's business: the single node, every sweep point, or
    /// `--fault-node` of a cluster.
    pub faults: Option<FaultPlan>,
    /// `--trace-out FILE`: record request-lifecycle spans and write the
    /// span CSV here.
    pub trace_out: Option<String>,
    /// `--metrics-out FILE`: sample a metric time series and write the
    /// CSV here.
    pub metrics_out: Option<String>,
    /// `--sample-interval DUR` metric sampling period (default 10 ms).
    pub sample_interval: SimDuration,
    /// `--jobs N` worker override (sweep points or cluster nodes).
    pub jobs: Option<usize>,
}

impl CommonArgs {
    /// Parses the shared flags out of an argument list.
    ///
    /// # Errors
    ///
    /// Returns a usage message naming the offending flag (and, for
    /// `--faults`, the offending token of the spec).
    pub fn from_args(args: &Args) -> Result<CommonArgs, String> {
        let faults = match args.get("faults") {
            Some(spec) => Some(FaultPlan::parse(spec).map_err(|e| format!("--faults: {e}"))?),
            None => None,
        };
        let jobs = match args.get("jobs") {
            Some(j) => Some(j.parse().map_err(|_| format!("--jobs: bad integer {j:?}"))?),
            None => None,
        };
        Ok(CommonArgs {
            faults,
            trace_out: args.get("trace-out").map(String::from),
            metrics_out: args.get("metrics-out").map(String::from),
            sample_interval: args.duration_or("sample-interval", SimDuration::from_millis(10))?,
            jobs,
        })
    }

    /// The observability configuration the output flags imply (`None`
    /// when nothing is recorded).
    pub fn obs(&self) -> Option<ObsConfig> {
        let spans = self.trace_out.is_some();
        let metrics = self.metrics_out.is_some();
        if !spans && !metrics {
            return None;
        }
        let mut cfg = ObsConfig::new().sample_every(self.sample_interval);
        if spans {
            cfg = cfg.with_spans();
        }
        if metrics {
            cfg = cfg.with_metrics();
        }
        Some(cfg)
    }

    /// Writes whatever the output flags asked for from the recordings at
    /// hand, printing one summary line per file.
    ///
    /// # Errors
    ///
    /// Returns a message naming the flag and the I/O failure.
    pub fn write_outputs(
        &self,
        spans: Option<&Vec<SpanRecord>>,
        metrics: Option<&MetricSeries>,
    ) -> Result<(), String> {
        if let Some(path) = &self.trace_out {
            let spans = spans.expect("span recording was enabled");
            std::fs::write(path, seqio_node::span::spans_to_csv(spans))
                .map_err(|e| format!("--trace-out {path}: {e}"))?;
            println!("spans:           {} spans -> {path}", spans.len());
        }
        if let Some(path) = &self.metrics_out {
            let series = metrics.expect("metric sampling was enabled");
            std::fs::write(path, series.to_csv())
                .map_err(|e| format!("--metrics-out {path}: {e}"))?;
            println!(
                "metrics:         {} samples x {} series (every {}) -> {path}",
                series.len(),
                series.names().len(),
                series.interval()
            );
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(items: &[&str]) -> Args {
        Args::parse(items.iter().map(|s| s.to_string())).unwrap()
    }

    #[test]
    fn defaults_are_quiet() {
        let c = CommonArgs::from_args(&args(&[])).unwrap();
        assert!(c.faults.is_none() && c.jobs.is_none());
        assert!(c.trace_out.is_none() && c.metrics_out.is_none());
        assert_eq!(c.sample_interval, SimDuration::from_millis(10));
        assert!(c.obs().is_none());
    }

    #[test]
    fn output_flags_imply_recording() {
        let c = CommonArgs::from_args(&args(&["--trace-out", "s.csv"])).unwrap();
        let obs = c.obs().unwrap();
        assert!(obs.spans && !obs.metrics);
        let c =
            CommonArgs::from_args(&args(&["--metrics-out", "m.csv", "--sample-interval", "2ms"]))
                .unwrap();
        let obs = c.obs().unwrap();
        assert!(!obs.spans && obs.metrics);
        assert_eq!(obs.sample_interval, SimDuration::from_millis(2));
    }

    #[test]
    fn fault_errors_surface_the_token() {
        let err =
            CommonArgs::from_args(&args(&["--faults", "errors:disk=zero,rate=0.5"])).unwrap_err();
        assert!(err.starts_with("--faults:"), "{err}");
        assert!(err.contains("`disk=zero`"), "{err}");
        let err = CommonArgs::from_args(&args(&["--jobs", "many"])).unwrap_err();
        assert!(err.contains("--jobs"), "{err}");
    }
}
