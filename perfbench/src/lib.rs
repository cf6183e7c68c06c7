//! The repository benchmark: three workloads that together cover every
//! layer of the workspace, each checked instance by instance.
//!
//! * [`sim_tables`] — the simulator loop behind Tables 1 and 2;
//! * [`live_burst`] — one-shot live `tears` runs over channels;
//! * [`service_uds`] — a long closed-loop service run over Unix sockets.
//!
//! A run does a fixed amount of work sized from `--seconds` (so the
//! paper's cost measures are deterministic for a seed) and reports either
//! the end-to-end metrics or, traced, the per-layer metrics. See
//! `perfbench/README.md` for the metric definitions.

use std::time::{Duration, Instant};

pub mod layers;
pub mod live_burst;
pub mod report;
pub mod service_uds;
pub mod sim_tables;
pub mod stats;
pub mod trace;

use report::Report;

/// Where traced runs write their spans, relative to the repository root.
pub const TRACE_DIR: &str = "perfbench/out";

/// How one run is parameterised.
#[derive(Debug, Clone, Copy)]
pub struct RunSpec {
    /// Workload seed: every input derives from it.
    pub seed: u64,
    /// Nominal measuring time; sizes the fixed work of the run.
    pub seconds: f64,
    /// Report per-layer metrics from a traced pass instead of end-to-end
    /// metrics.
    pub trace: bool,
}

impl RunSpec {
    /// The number of instances a pass runs when one instance nominally
    /// takes `instance_s` on the reference box. A traced run makes two
    /// passes (untraced, then traced) over the same instances, each half
    /// as long.
    pub fn instances(&self, instance_s: f64) -> usize {
        let seconds = if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        };
        ((seconds / instance_s).round() as usize).max(1)
    }
}

/// Wall-clock budget of one process: no new instance starts after it, so a
/// badly regressed program still ends well inside the harness's time
/// limit. Instances not started count as failed.
pub const BUDGET: Duration = Duration::from_secs(140);

/// The process start, for [`over_budget`].
pub fn started() -> Instant {
    static START: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    *START.get_or_init(Instant::now)
}

/// True once the process has run longer than [`BUDGET`].
pub fn over_budget() -> bool {
    started().elapsed() > BUDGET
}

/// What one run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// The metrics.
    pub report: Report,
    /// Instances attempted (trials, gossip runs or epochs).
    pub attempted: u64,
    /// Instances that failed: false checker verdict, decode error, runtime
    /// error, stall, or not started within the budget.
    pub failed: u64,
    /// Failures that are not the `tears` majority-gathering miss the paper
    /// allows with small probability, and traced-versus-untraced
    /// mismatches. Any entry makes the run incorrect.
    pub problems: Vec<String>,
}

/// Per-instance samples of one untraced pass, reduced to the end-to-end
/// metrics by [`EndToEnd::report`].
#[derive(Debug, Default)]
pub struct EndToEnd {
    /// Wall time of the pass.
    pub wall_s: f64,
    /// Set-up samples.
    pub setups_s: Vec<f64>,
    /// Instances completed.
    pub completed: usize,
    /// Latency samples: one per completed instance (one per round on
    /// `sim-tables`).
    pub latencies_s: Vec<f64>,
    /// Independent latency samples for the tail, when instances come in
    /// groups that share one latency (`service-uds` waves); otherwise the
    /// tail is taken over `latencies_s`.
    pub tail_samples_s: Option<Vec<f64>>,
    /// Messages (frames) of each completed instance.
    pub messages: Vec<f64>,
    /// Completion time of each completed instance in `d + δ` units.
    pub time_dd: Vec<f64>,
    /// Encoded bytes of each completed instance (runtime workloads only).
    pub wire_bytes: Vec<f64>,
    /// Instances attempted.
    pub attempted: u64,
    /// Instances failed.
    pub failed: u64,
}

impl EndToEnd {
    /// Fills `report` with every end-to-end metric, plus the workload's own
    /// name for its instance rate (`trials_per_s`, `epochs_per_s`).
    pub fn report(&self, report: &mut Report, rate_name: Option<&str>) {
        let done = self.completed;
        let rate = done as f64 / self.wall_s.max(1e-9);
        let latencies = self.latencies_s.len();
        report.set(
            "setup_s",
            "s",
            stats::median(&self.setups_s),
            self.setups_s.len(),
        );
        report.set("instances_per_s", "1/s", rate, done);
        if let Some(name) = rate_name {
            report.set(name, "1/s", rate, done);
        }
        let frames: f64 = self.messages.iter().sum();
        report.set("frames_per_s", "1/s", frames / self.wall_s.max(1e-9), done);
        report.set(
            "latency_p50_s",
            "s",
            stats::median(&self.latencies_s),
            latencies,
        );
        let tail_samples = self.tail_samples_s.as_ref().unwrap_or(&self.latencies_s);
        let (pct, tail) = stats::tail(tail_samples);
        report.set_noted(
            "latency_tail_s",
            "s",
            tail,
            tail_samples.len(),
            &format!(
                "p{pct:.2}: {} samples beyond",
                stats::TAIL_BEYOND.min(tail_samples.len().saturating_sub(1))
            ),
        );
        report.set("peak_rss_mib", "MiB", report::peak_rss_mib(), 1);
        report.set(
            "failed_ratio",
            "ratio",
            self.failed as f64 / self.attempted.max(1) as f64,
            self.attempted as usize,
        );
        report.set(
            "messages_per_instance",
            "count",
            stats::mean(&self.messages),
            done,
        );
        report.set(
            "time_dd",
            "d_delta",
            stats::median(&self.time_dd),
            self.time_dd.len(),
        );
        if !self.wire_bytes.is_empty() {
            report.set(
                "wire_bytes_per_instance",
                "B",
                stats::mean(&self.wire_bytes),
                self.wire_bytes.len(),
            );
        }
    }
}

/// Writes a traced run's spans to `TRACE_DIR/<workload>.jsonl`; a failure
/// to write is reported and does not fail the run.
pub fn write_trace(trace: &trace::Trace, workload: &str) {
    let path = std::path::Path::new(TRACE_DIR).join(format!("{workload}.jsonl"));
    if let Err(e) = trace.write_jsonl(&path) {
        eprintln!("cannot write {}: {e}", path.display());
    }
}

/// The delay bound `d` of lockstep pacing: lockstep runs count time in
/// units of `d + 1` ticks.
pub fn lockstep_d(pacing: &agossip_runtime::Pacing) -> u64 {
    match *pacing {
        agossip_runtime::Pacing::Lockstep { d, .. } => d,
        agossip_runtime::Pacing::FreeRunning { .. } => 1,
    }
}

/// Seconds between two instants.
pub fn secs(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64()
}
