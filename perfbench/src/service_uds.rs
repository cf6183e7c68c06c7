//! `service-uds`: long lockstep service runs with a closed loop.
//!
//! Scaled `tears` in every epoch at n = 64, 32 epochs in flight, window
//! 36, majority-checked, on 2 reactor threads, over Unix-domain sockets:
//! the runtime's own mesh of n·(n−1) stream sockets on the host, not a real
//! link. The epochs of a run are split over [`RUNS`] service runs so set-up
//! is sampled several times.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use agossip_analysis::experiments::live::live_scale_params;
use agossip_analysis::experiments::service::live_service_config;
use agossip_core::epoch::epoch_payload;
use agossip_core::{
    check_gossip, epoch_initial_rumors, GossipSpec, LoopMode, RumorSet, Tears, TearsMessage,
};
use agossip_runtime::{run_service, ServiceReport, SocketTransport, Transport};
use agossip_sim::rng::{splitmix64, trial_seed};
use agossip_sim::ProcessId;

use crate::layers::{codec_metrics, engine_metrics, reactor_metrics, transport_metrics};
use crate::report::process_cpu_s;
use crate::trace::{Capture, EpochClocks, Probed, Trace, TracedTransport};
use crate::{lockstep_d, over_budget, secs, stats, EndToEnd, Outcome, RunSpec};

/// System size.
pub const N: usize = 64;
/// Reactor threads.
pub const REACTORS: usize = 2;
/// Closed-loop depth: epochs in flight.
pub const IN_FLIGHT: usize = 32;
/// Service runs per pass (set-up samples).
pub const RUNS: usize = 6;
/// Nominal wall time of one epoch on the reference box.
pub const EPOCH_S: f64 = 1.0 / 57.0;

/// The master seed of service run `run` for benchmark seed `seed`.
pub fn run_seed(seed: u64, run: usize) -> u64 {
    trial_seed(splitmix64(seed ^ 0x05EC_70D5), run as u64)
}

/// The deterministic outputs of a service run: ticks, messages, bytes,
/// steps per process, `(opened, settled, finalized, ok)` per epoch and the
/// final-set digest.
pub type RunFingerprint = (u64, u64, u64, Vec<u64>, Vec<(u64, u64, u64, bool)>, u64);

/// What one service run produced, and the measurements around it.
#[derive(Debug)]
pub struct ServiceRun {
    /// `run_service` call to the first engine built: socket mesh plus muxes.
    pub setup_s: f64,
    /// `run_service` call to return.
    pub wall_s: f64,
    /// Wall latency of each epoch, indexed by epoch: first engine built to
    /// last engine dropped.
    pub latencies_s: Vec<Option<f64>>,
    /// The runtime's report, or its error as text.
    pub report: Result<ServiceReport, String>,
    /// Folded final rumor sets of every epoch (when requested).
    pub digest: u64,
}

impl ServiceRun {
    /// The deterministic outputs a traced run must reproduce.
    pub fn fingerprint(&self) -> Option<RunFingerprint> {
        self.report.as_ref().ok().map(|r| {
            let epochs = r
                .epochs
                .iter()
                .map(|e| (e.opened_at, e.settled_at, e.finalized_at, e.check.all_ok()))
                .collect();
            (
                r.ticks,
                r.messages_sent,
                r.bytes_sent,
                r.steps.clone(),
                epochs,
                self.digest,
            )
        })
    }
}

/// A traced run: the trace, the instance id, the message sample.
pub type Tracing<'a> = (&'a Arc<Trace>, u64, &'a Arc<Capture<TearsMessage>>);

/// One service run of `epochs` epochs at size `n` over `transport`; with
/// `digest`, the final rumor set of every engine is folded into the
/// result's digest.
pub fn run_once<T: Transport>(
    transport: T,
    n: usize,
    seed: u64,
    epochs: u64,
    digest: bool,
    trace: Option<Tracing<'_>>,
) -> ServiceRun {
    let config = live_service_config(
        n,
        REACTORS,
        seed,
        epochs,
        LoopMode::Closed {
            in_flight: IN_FLIGHT,
        },
    );
    let params = live_scale_params(n);
    // Which epoch an engine belongs to, from the rumor payload its context
    // carries.
    let epoch_of: Arc<HashMap<u64, usize>> = Arc::new(
        (0..epochs as usize)
            .flat_map(|e| (0..n).map(move |p| (epoch_payload(seed, e as u64, ProcessId(p)), e)))
            .collect(),
    );
    let start = Instant::now();
    let clocks = EpochClocks::new(start, epochs as usize, digest);
    let tracing = trace.map(|(t, i, c)| (Arc::clone(t), i, Arc::clone(c)));
    let make = {
        let clocks = Arc::clone(&clocks);
        move |ctx: agossip_core::GossipCtx| {
            let epoch = epoch_of
                .get(&ctx.rumor.payload)
                .copied()
                .unwrap_or(usize::MAX);
            let engine = Tears::with_params(ctx, params);
            let engine = match &tracing {
                None => Probed::untraced(engine),
                Some((trace, instance, capture)) => {
                    Probed::traced(engine, trace, *instance, Some(Arc::clone(capture)))
                }
            };
            engine.in_epoch(&clocks, epoch)
        }
    };
    let report = match trace {
        None => run_service(&config, &transport, make),
        Some((trace, instance, _)) => run_service(
            &config,
            &TracedTransport::new(transport, trace, instance),
            make,
        ),
    };
    let end = Instant::now();
    if let Some((trace, instance, _)) = trace {
        trace.root(instance, start, end);
    }
    ServiceRun {
        setup_s: clocks.first_build_ns().map_or(0.0, |ns| ns as f64 * 1e-9),
        wall_s: secs(start, end),
        latencies_s: clocks.latencies_s(),
        report: report.map_err(|e| e.to_string()),
        digest: clocks.digest(),
    }
}

/// The epochs of each of the [`RUNS`] runs of a pass.
fn split(total: usize) -> Vec<u64> {
    (0..RUNS)
        .map(|i| ((total + i) / RUNS).max(1) as u64)
        .collect()
}

/// One pass: the runs back to back; `None` marks a run not started within
/// the budget.
fn pass(
    seed: u64,
    epochs: &[u64],
    digest: bool,
    trace: Option<(&Arc<Trace>, &Arc<Capture<TearsMessage>>)>,
) -> (Vec<Option<ServiceRun>>, f64) {
    let transport = SocketTransport::uds();
    let start = Instant::now();
    let runs = epochs
        .iter()
        .enumerate()
        .map(|(i, &e)| {
            if over_budget() {
                return None;
            }
            let tracing = trace.map(|(t, c)| (t, i as u64, c));
            Some(run_once(
                transport,
                N,
                run_seed(seed, i),
                e,
                digest,
                tracing,
            ))
        })
        .collect();
    (runs, start.elapsed().as_secs_f64())
}

/// Runs the workload.
pub fn run(spec: &RunSpec) -> Outcome {
    let epochs = split(spec.instances(EPOCH_S));
    let mut out = Outcome::default();
    let cpu0 = process_cpu_s();
    let (runs, wall_s) = pass(spec.seed, &epochs, spec.trace, None);
    let cpu_s = process_cpu_s() - cpu0;

    let closed = LoopMode::Closed {
        in_flight: IN_FLIGHT,
    };
    let d = lockstep_d(&live_service_config(N, REACTORS, 0, 1, closed).live.pacing);
    let mut e2e = EndToEnd {
        wall_s,
        ..EndToEnd::default()
    };
    for (i, (run, &want)) in runs.iter().zip(&epochs).enumerate() {
        e2e.attempted += want;
        let Some(run) = run else {
            e2e.failed += want;
            out.problems
                .push(format!("run {i} not started within the budget"));
            continue;
        };
        e2e.setups_s.push(run.setup_s);
        let report = match &run.report {
            Ok(report) if report.decode_errors == 0 => report,
            Ok(_) => {
                e2e.failed += want;
                out.problems.push(format!("run {i} had decode errors"));
                continue;
            }
            Err(e) => {
                e2e.failed += want;
                out.problems.push(format!("run {i}: {e}"));
                continue;
            }
        };
        let finalized = report.epochs.len() as u64;
        if finalized < want {
            e2e.failed += want - finalized;
            out.problems
                .push(format!("run {i} finalized {finalized} of {want} epochs"));
        }
        for epoch in &report.epochs {
            if !epoch.check.all_ok() {
                e2e.failed += 1;
                if !epoch.check.validity_ok {
                    out.problems
                        .push(format!("run {i} epoch {} failed validity", epoch.epoch));
                }
            }
            e2e.time_dd
                .push(epoch.settle_latency() as f64 / (d + 1) as f64);
        }
        e2e.completed += report.epochs.len();
        // The first IN_FLIGHT epochs are admitted together at tick 0 and
        // pay the socket mesh's lazy connects: set-up, not steady state.
        let measured = || {
            report
                .epochs
                .iter()
                .filter(|e| e.epoch >= IN_FLIGHT as u64)
                .filter_map(|e| {
                    let latency = run.latencies_s.get(e.epoch as usize).copied().flatten()?;
                    Some((e.opened_at, latency))
                })
        };
        e2e.latencies_s
            .extend(measured().map(|(_, latency)| latency));
        // Epochs admitted at the same tick form a wave: the closed loop
        // refills every slot a finalized wave frees at once, and a wave's
        // epochs settle and are harvested together, so they share one
        // latency. The tail counts waves, the independent samples.
        let mut waves: Vec<(u64, Vec<f64>)> = Vec::new();
        for (opened_at, latency) in measured() {
            match waves.last_mut() {
                Some((tick, wave)) if *tick == opened_at => wave.push(latency),
                _ => waves.push((opened_at, vec![latency])),
            }
        }
        e2e.tail_samples_s
            .get_or_insert_with(Vec::new)
            .extend(waves.iter().map(|(_, wave)| stats::median(wave)));
        let per_epoch = 1.0 / report.epochs.len().max(1) as f64;
        for _ in &report.epochs {
            e2e.messages.push(report.messages_sent as f64 * per_epoch);
            e2e.wire_bytes.push(report.bytes_sent as f64 * per_epoch);
        }
    }
    out.attempted = e2e.attempted;
    out.failed = e2e.failed;
    if !spec.trace {
        e2e.report(&mut out.report, Some("epochs_per_s"));
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
    let capture = Capture::new(4096, 31);
    let (traced, traced_wall_s) = pass(spec.seed, &epochs, true, Some((&trace, &capture)));
    for (i, (a, b)) in runs.iter().zip(&traced).enumerate() {
        let a = a.as_ref().and_then(ServiceRun::fingerprint);
        let b = b.as_ref().and_then(ServiceRun::fingerprint);
        if a != b {
            out.problems
                .push(format!("traced run {i} differs from its untraced run"));
        }
    }
    let traced: Vec<&ServiceRun> = traced.iter().flatten().collect();
    let reports: Vec<&ServiceReport> = traced
        .iter()
        .filter_map(|t| t.report.as_ref().ok())
        .collect();
    let n_epochs: usize = reports.iter().map(|rep| rep.epochs.len()).sum();
    let per = |x: f64| x / n_epochs.max(1) as f64;
    let ticks: u64 = reports.iter().map(|rep| rep.ticks).sum();
    r.set("driver.ticks", "count", per(ticks as f64), n_epochs);
    r.set(
        "epoch.engines_built",
        "count",
        per(trace.engines_built() as f64),
        n_epochs,
    );
    let engines = trace.engines();
    r.set(
        "epoch.engines_dropped",
        "count",
        per(engines.dropped as f64),
        n_epochs,
    );
    let stale: u64 = reports.iter().map(|rep| rep.stale_drops).sum();
    r.set("epoch.stale_drops", "count", per(stale as f64), n_epochs);
    let max_open = reports.iter().map(|rep| rep.max_open).max().unwrap_or(0);
    r.set("epoch.max_open", "count", max_open as f64, reports.len());
    let settle: Vec<f64> = reports
        .iter()
        .flat_map(|rep| rep.epochs.iter().map(|e| e.settle_latency() as f64))
        .collect();
    r.set(
        "epoch.settle_ticks_p50",
        "ticks",
        stats::median(&settle),
        settle.len(),
    );
    let lag: Vec<f64> = reports
        .iter()
        .flat_map(|rep| {
            rep.epochs
                .iter()
                .map(|e| e.finalized_at.saturating_sub(e.settled_at) as f64)
        })
        .collect();
    r.set(
        "epoch.finalize_lag_ticks_p50",
        "ticks",
        stats::median(&lag),
        lag.len(),
    );
    engine_metrics(r, &trace, n_epochs);
    transport_metrics(r, &trace, n_epochs);
    codec_metrics(r, &capture.take());
    r.set(
        "checker.s_per_instance",
        "s",
        full_slate_check_s(spec.seed),
        1,
    );
    let reactor_s = reactor_metrics(r, &trace, n_epochs);
    r.set("trace.overhead", "ratio", traced_wall_s / wall_s - 1.0, 2);
    let setup_s: f64 = traced.iter().map(|t| t.setup_s).sum();
    r.set(
        "trace.coverage",
        "ratio",
        (reactor_s + setup_s) / (REACTORS as f64 * traced_wall_s),
        traced.len(),
    );
    crate::write_trace(&trace, "service-uds");
    out
}

/// The per-epoch checker's run time, measured outside the run on a full
/// slate (every process holding every rumor of the epoch): the runtime
/// checks epochs inside its driver, where no wrapper can time them.
fn full_slate_check_s(seed: u64) -> f64 {
    let samples: Vec<f64> = (0..64u64)
        .map(|epoch| {
            let initial = epoch_initial_rumors(seed, epoch, N);
            let mut full = RumorSet::new();
            for &rumor in &initial {
                full.insert(rumor);
            }
            let sets = vec![full; N];
            let correct = vec![true; N];
            let t = Instant::now();
            let check = check_gossip(GossipSpec::Majority, &sets, &initial, &correct, true);
            let s = t.elapsed().as_secs_f64();
            assert!(check.all_ok());
            s
        })
        .collect();
    stats::median(&samples)
}
