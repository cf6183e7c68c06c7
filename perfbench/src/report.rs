//! Named metrics, the human-readable report and the one-line JSON result.

use std::fmt::Write as _;

/// The end-to-end metrics of the JSON result (`--trace 0`), with units.
/// Every workload reports every one of them; `BENCHMARK.json` lists the
/// same names.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("instances_per_s", "1/s"),
    ("frames_per_s", "1/s"),
    ("latency_p50_s", "s"),
    ("latency_tail_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("messages_per_instance", "count"),
    ("time_dd", "d_delta"),
];

/// The per-layer metrics of the JSON result (`--trace 1`), with units. A
/// layer a workload does not exercise reports 0. Times and counts are per
/// instance unless the name says otherwise (`_p50`, `_ratio`, `_ns` per
/// frame, `transport.open_s` per open call).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sweep.busy_ratio", "ratio"),
    ("sweep.trial_s.ears", "s"),
    ("sweep.trial_s.sears", "s"),
    ("sweep.trial_s.tears", "s"),
    ("sweep.trial_s.cr_ears", "s"),
    ("sim.self_s", "s"),
    ("sim.steps", "count"),
    ("sim.messages", "count"),
    ("sim.in_flight_peak", "count"),
    ("sim.wire_units", "count"),
    ("adversary.plan_s", "s"),
    ("adversary.delay_s", "s"),
    ("adversary.delay_calls", "count"),
    ("consensus.rounds", "count"),
    ("consensus.messages", "count"),
    ("engine.deliver_s", "s"),
    ("engine.local_step_s", "s"),
    ("engine.deliveries", "count"),
    ("engine.batches", "count"),
    ("engine.frames_per_batch", "count"),
    ("engine.useful_ratio", "ratio"),
    ("rumor.dense_share", "ratio"),
    ("rumor.final_len_p50", "count"),
    ("codec.encode_ns", "ns"),
    ("codec.decode_ns", "ns"),
    ("codec.view_ns", "ns"),
    ("codec.bytes_per_frame", "B"),
    ("transport.open_s", "s"),
    ("transport.send_s", "s"),
    ("transport.poll_s", "s"),
    ("transport.flush_s", "s"),
    ("transport.frames", "count"),
    ("transport.bytes", "B"),
    ("transport.polls", "count"),
    ("transport.poll_hit_ratio", "ratio"),
    ("transport.lost", "count"),
    ("reactor.residual_s", "s"),
    ("process.cpu_util", "ratio"),
    ("driver.ticks", "count"),
    ("epoch.engines_built", "count"),
    ("epoch.engines_dropped", "count"),
    ("epoch.stale_drops", "count"),
    ("epoch.max_open", "count"),
    ("epoch.settle_ticks_p50", "ticks"),
    ("epoch.finalize_lag_ticks_p50", "ticks"),
    ("checker.s_per_instance", "s"),
    ("trace.overhead", "ratio"),
    ("trace.coverage", "ratio"),
];

/// One reported value.
#[derive(Debug, Clone)]
struct Entry {
    name: String,
    unit: String,
    value: f64,
    samples: usize,
    note: String,
}

/// The metrics of one run, in the order they were set.
#[derive(Debug, Clone, Default)]
pub struct Report {
    entries: Vec<Entry>,
}

impl Report {
    /// Sets `name` (replacing an earlier value) from `samples` samples.
    pub fn set(&mut self, name: &str, unit: &str, value: f64, samples: usize) {
        self.entries.retain(|e| e.name != name);
        self.entries.push(Entry {
            name: name.to_string(),
            unit: unit.to_string(),
            value: if value.is_finite() { value } else { 0.0 },
            samples,
            note: String::new(),
        });
    }

    /// Sets `name` with a note shown in the human report.
    pub fn set_noted(&mut self, name: &str, unit: &str, value: f64, samples: usize, note: &str) {
        self.set(name, unit, value, samples);
        if let Some(e) = self.entries.last_mut() {
            e.note = note.to_string();
        }
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries
            .iter()
            .find(|e| e.name == name)
            .map(|e| e.value)
    }

    /// One line per metric: name, value, unit, sample count and note.
    pub fn human(&self) -> String {
        let mut out = String::new();
        for e in &self.entries {
            let _ = write!(
                out,
                "  {:<30} {:>16.6} {:<8} n={}",
                e.name, e.value, e.unit, e.samples
            );
            if !e.note.is_empty() {
                let _ = write!(out, "  ({})", e.note);
            }
            out.push('\n');
        }
        out
    }

    /// The one-line JSON result. With `traced` it carries every
    /// [`PER_LAYER`] metric (0 for layers the workload does not exercise);
    /// otherwise every [`END_TO_END`] metric, all of which must be set.
    pub fn json_line(
        &self,
        traced: bool,
        correct: bool,
        attempted: u64,
        failed: u64,
    ) -> Result<String, String> {
        let names = if traced { PER_LAYER } else { END_TO_END };
        let mut metrics = Vec::with_capacity(names.len());
        for &(name, unit) in names {
            let value = match self.get(name) {
                Some(v) => v,
                None if traced => 0.0,
                None => return Err(format!("end-to-end metric {name} was not measured")),
            };
            metrics.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            ));
        }
        Ok(format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            metrics.join(", ")
        ))
    }
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives.
fn json_number(v: f64) -> String {
    let v = if v.is_finite() { v } else { 0.0 };
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') {
        s
    } else {
        format!("{s}.0")
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// CPU seconds (user + system) this process has used, from
/// `/proc/self/stat` (clock ticks at the kernel's fixed `USER_HZ` of 100).
pub fn process_cpu_s() -> f64 {
    const USER_HZ: f64 = 100.0;
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|stat| {
            // Fields after the parenthesised command name; utime and stime
            // are fields 14 and 15 of the whole line.
            let rest = stat.rsplit_once(')')?.1;
            let fields: Vec<&str> = rest.split_whitespace().collect();
            let utime: f64 = fields.get(11)?.parse().ok()?;
            let stime: f64 = fields.get(12)?.parse().ok()?;
            Some((utime + stime) / USER_HZ)
        })
        .unwrap_or(0.0)
}

/// The hardware and toolchain the run measured on, one `key: value` per
/// line.
pub fn fingerprint() -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|k| k.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string());
    format!(
        "  cores: {cores}\n  cpu: {cpu}\n  rustc: {}\n  kernel: {kernel}\n",
        env!("PERFBENCH_RUSTC")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_lists_exactly_the_end_to_end_metrics() {
        let mut report = Report::default();
        for (i, &(name, unit)) in END_TO_END.iter().enumerate() {
            report.set(name, unit, 1.5 + i as f64, 3);
        }
        report.set("failed_ratio", "ratio", 0.0, 3);
        let line = report.json_line(false, true, 3, 0).unwrap();
        for &(name, _) in END_TO_END {
            assert!(line.contains(&format!("\"{name}\"")), "{line}");
        }
        assert!(!line.contains("failed_ratio"));
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
    }

    #[test]
    fn missing_end_to_end_metric_is_an_error_but_missing_layer_is_zero() {
        let report = Report::default();
        assert!(report.json_line(false, true, 1, 0).is_err());
        let line = report.json_line(true, true, 1, 0).unwrap();
        assert!(line.contains("\"sweep.busy_ratio\": {\"value\": 0.0, \"unit\": \"ratio\"}"));
    }

    #[test]
    fn non_finite_values_never_reach_the_json() {
        let mut report = Report::default();
        report.set("setup_s", "s", f64::NAN, 1);
        assert_eq!(report.get("setup_s"), Some(0.0));
        assert_eq!(json_number(2.0), "2.0");
        assert_eq!(json_number(0.125), "0.125");
    }
}
