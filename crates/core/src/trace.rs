//! Registry-level `--trace` plumbing: the one place the harness side of
//! the suite touches the cache simulator.
//!
//! Kernel adapters (and the kernel crates underneath them) only ever see
//! the [`MemTrace`] contract from `rtr-trace`; this module owns the
//! backend choice. Every runnable binary (`rtr` and the `exp_*` bench
//! binaries) gets identical wiring by building a [`TraceSession`] from
//! the shared `--trace`/`--vldp` options and handing its sink to the
//! kernel.

use rtr_harness::{Args, OptionSpec};
use rtr_trace::{BufferedTrace, MemTrace, NullTrace};

use crate::KernelError;

/// The cache report type surfaced on [`crate::KernelReport`].
pub type CacheReport = rtr_archsim::HierarchyReport;

/// The shared `--trace` CLI option.
pub fn trace_option() -> OptionSpec {
    OptionSpec {
        name: "trace",
        help: "Feed the kernel's memory-access stream to the cache simulator (flag)",
    }
}

/// The shared `--vldp` CLI option.
pub fn vldp_option() -> OptionSpec {
    OptionSpec {
        name: "vldp",
        help: "Attach a VLDP prefetcher of this degree to the traced hierarchy (0 = off)",
    }
}

/// One kernel run's tracing state: either a configured cache simulator
/// (`--trace`) or the zero-cost [`NullTrace`].
///
/// The simulator is held behind a [`BufferedTrace`] on the kernel
/// thread, so the `&mut dyn MemTrace` the kernel emits into pays one
/// virtual dispatch per buffer (4096 ops) instead of one per access; the
/// flush lands in `MemorySim::process_batch`, the monomorphic fast path.
/// [`finish`](TraceSession::finish) drains the buffer tail, so reports
/// are identical to an unbuffered run's.
///
/// # Example
///
/// ```
/// use rtr_core::TraceSession;
/// use rtr_harness::Args;
///
/// let args = Args::parse_tokens(&["--trace"]).unwrap();
/// let mut session = TraceSession::from_args(&args).unwrap();
/// session.sink().read(0x40);
/// let report = session.finish().expect("--trace attaches the simulator");
/// assert_eq!(report.accesses, 1);
/// ```
#[derive(Debug)]
pub struct TraceSession {
    sim: Option<BufferedTrace<rtr_archsim::MemorySim>>,
    null: NullTrace,
}

impl TraceSession {
    /// Builds the session from the shared `--trace`/`--vldp` options.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::Cli`] when `--vldp` is malformed.
    pub fn from_args(args: &Args) -> Result<Self, KernelError> {
        let degree = args.get_usize("vldp", 0)?;
        Ok(if args.get_flag("trace") {
            Self::enabled(degree)
        } else {
            Self::disabled()
        })
    }

    /// An untraced session (no simulator), for callers without CLI args.
    pub fn disabled() -> Self {
        TraceSession {
            sim: None,
            null: NullTrace,
        }
    }

    /// A traced session with the paper's i3-8109U hierarchy, optionally
    /// with a VLDP prefetcher attached (degree 0 = off).
    pub fn enabled(vldp_degree: usize) -> Self {
        let sim = rtr_archsim::MemorySim::i3_8109u();
        let sim = if vldp_degree > 0 {
            sim.with_vldp(vldp_degree)
        } else {
            sim
        };
        TraceSession {
            sim: Some(BufferedTrace::new(sim)),
            null: NullTrace,
        }
    }

    /// The sink to hand to the kernel: the buffered simulator when
    /// tracing, the do-nothing sink otherwise.
    pub fn sink(&mut self) -> &mut dyn MemTrace {
        match &mut self.sim {
            Some(sim) => sim,
            None => &mut self.null,
        }
    }

    /// Consumes the session into the cache report (`None` when
    /// untraced), flushing any ops still buffered.
    pub fn finish(self) -> Option<CacheReport> {
        self.sim.map(|buffered| buffered.into_inner().report())
    }
}

/// Renders a traced run's cache statistics into metric rows — the shared
/// tail of every kernel's report table.
pub fn push_cache_metrics(metrics: &mut Vec<(String, String)>, report: &CacheReport) {
    metrics.push(("traced accesses".into(), report.accesses.to_string()));
    metrics.push((
        "traced write ratio".into(),
        format!("{:.1}%", report.write_ratio() * 100.0),
    ));
    for (name, level) in ["L1D", "L2", "LLC"].iter().zip(report.levels.iter()) {
        metrics.push((
            format!("{name} miss ratio"),
            format!("{:.1}%", level.miss_ratio() * 100.0),
        ));
    }
    metrics.push((
        "memory access ratio".into(),
        format!("{:.2}%", report.memory_access_ratio() * 100.0),
    ));
    metrics.push((
        "memory writebacks".into(),
        report.memory_writebacks.to_string(),
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(argv: &[&str]) -> Args {
        Args::parse_tokens(argv).unwrap()
    }

    #[test]
    fn untraced_session_uses_null_sink_and_yields_no_report() {
        let mut session = TraceSession::from_args(&args(&[])).unwrap();
        assert!(!session.sink().enabled());
        session.sink().read(0);
        assert!(session.finish().is_none());
    }

    #[test]
    fn traced_session_counts_accesses() {
        let mut session = TraceSession::from_args(&args(&["--trace"])).unwrap();
        assert!(session.sink().enabled());
        session.sink().read(0);
        session.sink().write(64);
        let report = session.finish().unwrap();
        assert_eq!(report.accesses, 2);
        assert_eq!(report.writes, 1);
        assert!(report.prefetch.is_none());
    }

    #[test]
    fn vldp_flag_attaches_prefetcher() {
        let mut session = TraceSession::from_args(&args(&["--trace", "--vldp", "2"])).unwrap();
        for i in 0..64u64 {
            session.sink().read(i * 64);
        }
        let report = session.finish().unwrap();
        assert!(report.prefetch.is_some());
    }

    #[test]
    fn vldp_without_trace_is_untraced() {
        let session = TraceSession::from_args(&args(&["--vldp", "2"])).unwrap();
        assert!(session.finish().is_none());
    }

    #[test]
    fn cache_metric_rows_cover_all_levels() {
        let mut session = TraceSession::enabled(0);
        session.sink().read(0);
        let report = session.finish().unwrap();
        let mut metrics = Vec::new();
        push_cache_metrics(&mut metrics, &report);
        let labels: Vec<&str> = metrics.iter().map(|(l, _)| l.as_str()).collect();
        for expected in [
            "traced accesses",
            "traced write ratio",
            "L1D miss ratio",
            "L2 miss ratio",
            "LLC miss ratio",
            "memory access ratio",
            "memory writebacks",
        ] {
            assert!(labels.contains(&expected), "missing row {expected}");
        }
    }
}
