//! `live-burst`: one-shot live gossip runs, back to back.
//!
//! Each instance is one [`run_live`] call of scaled `tears`
//! ([`live_scale_config`]: a = 2 + 1.5·log₂n, d = 6, 16 staggered crashes)
//! at n = 1024 under lockstep pacing, over the channel transport, on 2
//! reactor threads, with a fresh seed derived from the benchmark seed. The
//! loop is closed with one instance in flight.

use std::cell::Cell;
use std::sync::Arc;
use std::time::Instant;

use agossip_analysis::experiments::live::{live_scale_config, live_scale_params};
use agossip_core::{check_gossip, GossipCtx, GossipSpec, Tears, TearsMessage};
use agossip_runtime::{run_live, ChannelTransport, LiveReport, RuntimeError};
use agossip_sim::rng::{splitmix64, trial_seed};
use agossip_sim::ProcessId;

use crate::layers::{codec_metrics, engine_metrics, reactor_metrics, transport_metrics};
use crate::report::process_cpu_s;
use crate::trace::{rumor_digest, Capture, Probed, Trace, TracedTransport};
use crate::{lockstep_d, over_budget, secs, stats, EndToEnd, Outcome, RunSpec};

/// System size.
pub const N: usize = 1024;
/// Reactor threads.
pub const REACTORS: usize = 2;
/// Nominal wall time of one instance on the reference box.
pub const INSTANCE_S: f64 = 0.34;

/// The seed of instance `i` of a run with benchmark seed `seed`.
pub fn instance_seed(seed: u64, i: usize) -> u64 {
    trial_seed(splitmix64(seed ^ 0x11FE_B025), i as u64)
}

/// What one instance produced, and the measurements around it.
#[derive(Debug)]
pub struct LiveRun {
    /// `run_live` call to return.
    pub latency_s: f64,
    /// Call to the last engine built (transport open plus construction).
    pub setup_s: f64,
    /// The checker's run time.
    pub check_s: f64,
    /// The runtime's report, or its error.
    pub report: Result<LiveReport, RuntimeError>,
    /// Whether the checker accepted the run with no decode error.
    pub ok: bool,
    /// Whether the only failure was a `tears` majority-gathering miss.
    pub gathering_miss: bool,
    /// Order-independent digest of the final rumor sets.
    pub digest: u64,
}

impl LiveRun {
    /// The deterministic outputs a traced run must reproduce: ticks,
    /// messages, bytes and the final-set digest.
    pub fn fingerprint(&self) -> Option<(u64, u64, u64, u64)> {
        self.report
            .as_ref()
            .ok()
            .map(|r| (r.ticks, r.messages_sent, r.bytes_sent, self.digest))
    }
}

/// A traced instance: the trace, the instance id, the message sample.
pub type Tracing<'a> = (&'a Arc<Trace>, u64, &'a Arc<Capture<TearsMessage>>);

/// Runs one instance at size `n` with `seed`.
pub fn run_instance(n: usize, seed: u64, trace: Option<Tracing<'_>>) -> LiveRun {
    let config = live_scale_config(n, REACTORS, seed);
    let params = live_scale_params(n);
    let start = Instant::now();
    let built = Cell::new(start);
    let report = match trace {
        None => run_live(&config, &ChannelTransport, |ctx| {
            let engine = Tears::with_params(ctx, params);
            built.set(Instant::now());
            engine
        }),
        Some((trace, instance, capture)) => {
            let transport = TracedTransport::new(ChannelTransport, trace, instance);
            run_live(&config, &transport, |ctx| {
                let engine = Tears::with_params(ctx, params);
                let engine = Probed::traced(engine, trace, instance, Some(Arc::clone(capture)));
                built.set(Instant::now());
                engine
            })
        }
    };
    let end = Instant::now();
    if let Some((trace, instance, _)) = trace {
        trace.root(instance, start, end);
    }
    let mut run = LiveRun {
        latency_s: secs(start, end),
        setup_s: secs(start, built.get()),
        check_s: 0.0,
        ok: false,
        gathering_miss: false,
        digest: 0,
        report,
    };
    if let Ok(report) = &run.report {
        let initial: Vec<_> = ProcessId::all(config.n)
            .map(|pid| GossipCtx::new(pid, config.n, config.f, config.seed).rumor)
            .collect();
        let t = Instant::now();
        let check = check_gossip(
            GossipSpec::Majority,
            &report.final_rumors,
            &initial,
            &report.correct,
            report.quiescent,
        );
        run.check_s = t.elapsed().as_secs_f64();
        run.ok = check.all_ok() && report.decode_errors == 0;
        run.gathering_miss = !check.gathering_ok
            && check.validity_ok
            && check.quiescence_ok
            && report.decode_errors == 0;
        run.digest = report
            .final_rumors
            .iter()
            .enumerate()
            .fold(0u64, |h, (i, set)| {
                h.wrapping_add(rumor_digest(ProcessId(i), set))
            });
    }
    run
}

/// Runs `count` instances back to back; `None` marks one not started
/// within the budget.
fn pass(
    seed: u64,
    count: usize,
    trace: Option<(&Arc<Trace>, &Arc<Capture<TearsMessage>>)>,
) -> (Vec<Option<LiveRun>>, f64) {
    let start = Instant::now();
    let runs = (0..count)
        .map(|i| {
            if over_budget() {
                return None;
            }
            let tracing = trace.map(|(t, c)| (t, i as u64, c));
            Some(run_instance(N, instance_seed(seed, i), tracing))
        })
        .collect();
    (runs, start.elapsed().as_secs_f64())
}

/// Runs the workload.
pub fn run(spec: &RunSpec) -> Outcome {
    let count = spec.instances(INSTANCE_S);
    let mut out = Outcome::default();
    let cpu0 = process_cpu_s();
    let (runs, wall_s) = pass(spec.seed, count, None);
    let cpu_s = process_cpu_s() - cpu0;

    let d = lockstep_d(&live_scale_config(N, REACTORS, 0).pacing);
    let mut e2e = EndToEnd {
        wall_s,
        ..EndToEnd::default()
    };
    for (i, run) in runs.iter().enumerate() {
        e2e.attempted += 1;
        let Some(run) = run else {
            e2e.failed += 1;
            out.problems
                .push(format!("instance {i} not started within the budget"));
            continue;
        };
        if !run.ok {
            e2e.failed += 1;
            if !run.gathering_miss {
                out.problems.push(match &run.report {
                    Err(e) => format!("instance {i}: {e}"),
                    Ok(_) => format!("instance {i} failed validity or had decode errors"),
                });
            }
        }
        e2e.completed += 1;
        e2e.latencies_s.push(run.latency_s);
        e2e.setups_s.push(run.setup_s);
        if let Ok(report) = &run.report {
            e2e.messages.push(report.messages_sent as f64);
            e2e.wire_bytes.push(report.bytes_sent as f64);
            e2e.time_dd.push(report.ticks as f64 / (d + 1) as f64);
        }
    }
    out.attempted = e2e.attempted;
    out.failed = e2e.failed;
    if !spec.trace {
        e2e.report(&mut out.report, None);
        return out;
    }

    let r = &mut out.report;
    r.set(
        "process.cpu_util",
        "ratio",
        cpu_s / (REACTORS as f64 * wall_s),
        1,
    );
    let trace = Trace::new();
    let capture = Capture::new(4096, 7);
    let (traced, traced_wall_s) = pass(spec.seed, count, Some((&trace, &capture)));
    for (i, (a, b)) in runs.iter().zip(&traced).enumerate() {
        let (a, b) = (
            a.as_ref().and_then(LiveRun::fingerprint),
            b.as_ref().and_then(LiveRun::fingerprint),
        );
        if a != b {
            out.problems.push(format!(
                "traced instance {i} differs from its untraced run: {a:?} vs {b:?}"
            ));
        }
    }
    let traced: Vec<&LiveRun> = traced.iter().flatten().collect();
    let n = traced.len();
    let per = |x: f64| x / n.max(1) as f64;
    let ticks: f64 = traced
        .iter()
        .filter_map(|t| t.report.as_ref().ok())
        .map(|r| r.ticks as f64)
        .sum();
    r.set("driver.ticks", "count", per(ticks), n);
    engine_metrics(r, &trace, n);
    transport_metrics(r, &trace, n);
    codec_metrics(r, &capture.take());
    let checks: Vec<f64> = traced.iter().map(|t| t.check_s).collect();
    r.set("checker.s_per_instance", "s", stats::mean(&checks), n);
    let reactor_s = reactor_metrics(r, &trace, n);
    r.set("trace.overhead", "ratio", traced_wall_s / wall_s - 1.0, 2);
    // Covered: the reactor threads' spans (engine, transport and residual
    // self times) plus set-up and the checker on the calling thread.
    let main_s: f64 = traced.iter().map(|t| t.setup_s + t.check_s).sum();
    r.set(
        "trace.coverage",
        "ratio",
        (reactor_s + main_s) / (REACTORS as f64 * traced_wall_s),
        n,
    );
    crate::write_trace(&trace, "live-burst");
    out
}
