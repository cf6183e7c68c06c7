//! The live scenario: the gossip protocols running as a real system.
//!
//! Every other driver in this module measures the protocols inside the
//! discrete-event simulator. This one runs them through
//! [`agossip_runtime::run_live`]: `n` concurrent OS threads per trial,
//! every message byte-encoded through [`agossip_core::codec`] and carried
//! by a real transport, crash injection killing live processes mid-run.
//!
//! Trials use the deterministic lockstep pacing over the in-process channel
//! transport — outcomes are bit-identical per seed, so the scenario slots
//! into the sweep engine's determinism contract like any simulator-backed
//! scenario (worker count never changes a row). The loopback TCP / UDS
//! transports exercise the same event loop and are covered by the runtime's
//! own tests and the `live_gossip` example; they are kept out of the sweep
//! default because binding hundreds of listeners per grid is kernel-state
//! heavy, not because anything about the measurement differs.

use agossip_core::{
    check_gossip, Ears, GossipCtx, GossipEngine, GossipSpec, Rumor, Tears, TearsParams, Trivial,
    WireCodec, WireDecodeView,
};
use agossip_runtime::{run_live, ChannelTransport, LiveConfig, LiveReport, Pacing};
use agossip_sim::{ProcessId, SimError, SimResult};

use crate::experiments::common::{ExperimentScale, GossipProtocolKind};
use crate::experiments::scale::{scale_a_target, tears_params_for_a};
use crate::report::{fmt_f64, Table};
use crate::stats::Summary;
use crate::sweep::TrialPool;

/// One `(protocol, n)` row of the live sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct LiveRow {
    /// Protocol name.
    pub protocol: &'static str,
    /// System size.
    pub n: usize,
    /// Failure budget (also the number of injected crashes).
    pub f: usize,
    /// Trials aggregated.
    pub trials: usize,
    /// Fraction of trials whose post-run correctness check passed.
    pub success_rate: f64,
    /// Lockstep ticks to completion.
    pub ticks: Summary,
    /// Point-to-point messages (encoded frames) sent.
    pub messages: Summary,
    /// Encoded payload bytes sent.
    pub bytes: Summary,
}

/// The protocols the live sweep runs. `sears`/`sync` are deliberately not
/// default rows: they add nothing transport-wise over `ears`, and live
/// trials are much more expensive than simulated ones.
pub fn live_protocols() -> Vec<GossipProtocolKind> {
    vec![
        GossipProtocolKind::Trivial,
        GossipProtocolKind::Ears,
        GossipProtocolKind::Tears,
    ]
}

/// The deterministic crash schedule of a live trial: the `f` highest
/// process ids crash, staggered one local step apart (victim `n−1−i` after
/// `i` steps) — mirroring the staggered-crash schedules of the simulator's
/// policy adversaries.
pub fn live_crashes(n: usize, f: usize) -> Vec<(ProcessId, u64)> {
    (0..f).map(|i| (ProcessId(n - 1 - i), i as u64)).collect()
}

/// The live-run configuration of one trial.
pub fn live_config(scale: &ExperimentScale, n: usize, trial: usize) -> LiveConfig {
    let f = scale.f_for(n);
    LiveConfig {
        n,
        f,
        seed: scale.seed_for(n, trial),
        crashes: live_crashes(n, f),
        // `d` is passed through unclamped: a zero delay bound is a
        // misconfiguration, and `LiveConfig::validate` reports it as a typed
        // error — the same stance the simulator takes (PR 2 removed its
        // silent `.max(1)` delay clamp for exactly this reason).
        pacing: Pacing::Lockstep {
            d: scale.d,
            max_ticks: 1 << 20,
        },
        reactors: n,
    }
}

fn initial_rumors(n: usize, f: usize, seed: u64) -> Vec<Rumor> {
    ProcessId::all(n)
        .map(|pid| GossipCtx::new(pid, n, f, seed).rumor)
        .collect()
}

/// Runs one live trial of `kind` and returns the report plus its checker
/// verdict.
pub fn run_live_trial(
    kind: GossipProtocolKind,
    config: &LiveConfig,
) -> SimResult<(LiveReport, bool)> {
    fn go<G>(
        config: &LiveConfig,
        make: impl Fn(GossipCtx) -> G,
        spec: agossip_core::GossipSpec,
    ) -> SimResult<(LiveReport, bool)>
    where
        G: GossipEngine + Send,
        G::Msg: WireCodec + WireDecodeView + PartialEq,
    {
        let report =
            run_live(config, &ChannelTransport, make).map_err(|e| SimError::InvalidConfig {
                reason: format!("live run failed: {e}"),
            })?;
        let check = check_gossip(
            spec,
            &report.final_rumors,
            &initial_rumors(config.n, config.f, config.seed),
            &report.correct,
            report.quiescent,
        );
        let ok = check.all_ok() && report.decode_errors == 0;
        Ok((report, ok))
    }
    match kind {
        GossipProtocolKind::Trivial => go(config, Trivial::new, kind.spec()),
        GossipProtocolKind::Ears => go(config, Ears::new, kind.spec()),
        GossipProtocolKind::Tears => go(config, Tears::new, kind.spec()),
        other => Err(SimError::InvalidConfig {
            reason: format!("protocol {} is not part of the live sweep", other.name()),
        }),
    }
}

/// Runs the live sweep on `pool`: the whole `(protocol, n, trial)` grid is
/// flattened so every worker stays busy. Each trial spawns `n` OS threads
/// of its own, so wide pools multiply thread counts — the scenario's
/// default scale keeps the grid small.
pub fn live_rows(pool: &TrialPool, scale: &ExperimentScale) -> SimResult<Vec<LiveRow>> {
    let grid: Vec<(GossipProtocolKind, usize)> = live_protocols()
        .into_iter()
        .flat_map(|kind| scale.n_values.iter().map(move |&n| (kind, n)))
        .collect();
    let trials = scale.trials.max(1);
    let jobs = grid.len() * trials;
    let results: Vec<SimResult<(LiveReport, bool)>> = pool.run(jobs, |job| {
        let (kind, n) = grid[job / trials];
        let trial = job % trials;
        run_live_trial(kind, &live_config(scale, n, trial))
    });

    let mut rows = Vec::with_capacity(grid.len());
    let mut results = results.into_iter();
    for (kind, n) in grid {
        let mut ticks = Vec::with_capacity(trials);
        let mut messages = Vec::with_capacity(trials);
        let mut bytes = Vec::with_capacity(trials);
        let mut successes = 0usize;
        for _ in 0..trials {
            let (report, ok) = results.next().expect("one result per job")?;
            ticks.push(report.ticks as f64);
            messages.push(report.messages_sent as f64);
            bytes.push(report.bytes_sent as f64);
            successes += ok as usize;
        }
        rows.push(LiveRow {
            protocol: kind.name(),
            n,
            f: scale.f_for(n),
            trials,
            success_rate: successes as f64 / trials as f64,
            ticks: Summary::of(&ticks),
            messages: Summary::of(&messages),
            bytes: Summary::of(&bytes),
        });
    }
    Ok(rows)
}

// ---------------------------------------------------------------------------
// live_scale — thousands of live processes on a handful of reactor threads
// ---------------------------------------------------------------------------

/// One row of the `live_scale` scenario: a checker-verified lockstep `tears`
/// run at system size `n`, all processes multiplexed onto `reactors` event
/// loops ([`LiveConfig::reactors`]).
#[derive(Debug, Clone, PartialEq)]
pub struct LiveScaleRow {
    /// System size.
    pub n: usize,
    /// Crash budget (all `f` crashes are injected, staggered across the
    /// first local steps).
    pub f: usize,
    /// Reactor threads the `n` processes were multiplexed onto.
    pub reactors: usize,
    /// Lockstep ticks to quiescence.
    pub ticks: u64,
    /// Point-to-point messages (encoded frames) sent.
    pub messages: u64,
    /// Encoded payload bytes sent.
    pub bytes: u64,
    /// Wall-clock seconds of the run (the runtime's own clock).
    pub wall_secs: f64,
    /// Frames through the transport per wall-clock second.
    pub messages_per_sec: f64,
    /// Encoded payload bytes through the transport per wall-clock second.
    pub bytes_per_sec: f64,
    /// Whether the majority-gossip checker accepted the run (and no frame
    /// failed to decode).
    pub ok: bool,
}

/// The `tears` parameters of a `live_scale` trial: the same logarithmic
/// neighbourhood target the simulator's `scale` scenario is calibrated to
/// (`a = 2 + 1.5·log₂n`), applied at *every* size. The sim-side crossover
/// keeps paper-faithful `Θ(√n·log n)` constants below `n = 2048`, but a live
/// run pays per-byte codec cost on every message, so the quadratic default
/// grid is unaffordable well below the crossover.
pub fn live_scale_params(n: usize) -> TearsParams {
    tears_params_for_a(n, scale_a_target(n))
}

/// The crash budget of a `live_scale` trial: 16 crashes once `n` is large
/// enough to spare them (`f < n/2` is a `tears` requirement; `n/8` keeps
/// small smoke sizes valid).
pub fn live_scale_f(n: usize) -> usize {
    16.min(n / 8)
}

/// The live-run configuration of a `live_scale` trial: lockstep pacing over
/// `reactors` reactor threads, with the [`live_scale_f`] highest pids
/// crash-injected, staggered across the first four local steps (a scaled
/// `tears` run quiesces within a handful of ticks, so a wider stagger would
/// leave late crashes unfired).
///
/// The delay bound is `d = 6`, matching the simulator's scale grid: the
/// logarithmic [`live_scale_params`] neighbourhood only reaches majority
/// coverage when first-level deliveries spread over several ticks, so the
/// second-level triggers fire in waves that compound each other's gathered
/// rumors (see `experiments/scale.rs`). With the default `d = 2` the
/// `n = 512` point fails gathering on some seeds.
pub fn live_scale_config(n: usize, reactors: usize, seed: u64) -> LiveConfig {
    let f = live_scale_f(n);
    let crashes = (0..f)
        .map(|i| (ProcessId(n - 1 - i), (i % 4) as u64))
        .collect();
    let mut config = LiveConfig::lockstep(n, f, seed)
        .with_crashes(crashes)
        .on_reactors(reactors);
    config.pacing = Pacing::Lockstep {
        d: 6,
        max_ticks: 1 << 20,
    };
    config
}

/// Runs one `live_scale` trial: scaled `tears` at size `n` over the channel
/// transport on `reactors` reactor threads, verified by the majority-gossip
/// checker.
pub fn run_live_scale_trial(n: usize, reactors: usize, seed: u64) -> SimResult<LiveScaleRow> {
    let config = live_scale_config(n, reactors, seed);
    let params = live_scale_params(n);
    let report = run_live(&config, &ChannelTransport, move |ctx| {
        Tears::with_params(ctx, params)
    })
    .map_err(|e| SimError::InvalidConfig {
        reason: format!("live_scale run failed: {e}"),
    })?;
    let check = check_gossip(
        GossipSpec::Majority,
        &report.final_rumors,
        &initial_rumors(config.n, config.f, config.seed),
        &report.correct,
        report.quiescent,
    );
    let ok = check.all_ok() && report.decode_errors == 0;
    let wall_secs = report.elapsed.as_secs_f64();
    let per_sec = |count: u64| {
        if wall_secs > 0.0 {
            count as f64 / wall_secs
        } else {
            0.0
        }
    };
    Ok(LiveScaleRow {
        n,
        f: config.f,
        reactors,
        ticks: report.ticks,
        messages: report.messages_sent,
        bytes: report.bytes_sent,
        wall_secs,
        messages_per_sec: per_sec(report.messages_sent),
        bytes_per_sec: per_sec(report.bytes_sent),
        ok,
    })
}

/// Runs the `live_scale` scenario: one trial per size, serial — each trial
/// is already internally concurrent (its reactor threads saturate the box),
/// so sharding trials across a worker pool would only fight them for cores.
pub fn live_scale_rows(
    n_values: &[usize],
    reactors: usize,
    seed: u64,
) -> SimResult<Vec<LiveScaleRow>> {
    n_values
        .iter()
        .map(|&n| run_live_scale_trial(n, reactors, seed))
        .collect()
}

/// Renders the `live_scale` rows.
pub fn live_scale_to_table(rows: &[LiveScaleRow]) -> Table {
    let mut table = Table::new(
        "Live scale — lockstep tears on reactor threads (measured)",
        &[
            "n", "f", "reactors", "ticks", "messages", "bytes", "msgs/s", "bytes/s", "ok",
        ],
    );
    for row in rows {
        table.push_row(vec![
            row.n.to_string(),
            row.f.to_string(),
            row.reactors.to_string(),
            row.ticks.to_string(),
            row.messages.to_string(),
            row.bytes.to_string(),
            fmt_f64(row.messages_per_sec),
            fmt_f64(row.bytes_per_sec),
            if row.ok { "yes" } else { "NO" }.to_string(),
        ]);
    }
    table
}

/// Renders the live rows.
pub fn live_to_table(rows: &[LiveRow]) -> Table {
    let mut table = Table::new(
        "Live runtime — lockstep gossip over the byte codec (measured)",
        &[
            "protocol",
            "n",
            "f",
            "ticks",
            "messages",
            "bytes",
            "bytes/msg",
            "ok",
        ],
    );
    for row in rows {
        let bytes_per_msg = if row.messages.mean > 0.0 {
            row.bytes.mean / row.messages.mean
        } else {
            0.0
        };
        table.push_row(vec![
            row.protocol.to_string(),
            row.n.to_string(),
            row.f.to_string(),
            fmt_f64(row.ticks.mean),
            fmt_f64(row.messages.mean),
            fmt_f64(row.bytes.mean),
            fmt_f64(bytes_per_msg),
            format!("{:.0}%", row.success_rate * 100.0),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExperimentScale {
        ExperimentScale {
            n_values: vec![8],
            trials: 2,
            failure_fraction: 0.2,
            d: 2,
            delta: 1,
            seed: 42,
            idle_fast_forward: false,
        }
    }

    #[test]
    fn live_sweep_rows_are_worker_count_independent() {
        let scale = tiny();
        let serial = live_rows(&TrialPool::serial(), &scale).unwrap();
        let sharded = live_rows(&TrialPool::new(2), &scale).unwrap();
        assert_eq!(serial, sharded);
        assert_eq!(serial.len(), live_protocols().len());
        for row in &serial {
            assert_eq!(row.success_rate, 1.0, "{row:?}");
            assert!(row.bytes.mean > 0.0);
            assert!(row.ticks.mean > 0.0);
        }
    }

    #[test]
    fn crash_schedule_respects_the_budget() {
        let crashes = live_crashes(16, 3);
        assert_eq!(
            crashes,
            vec![(ProcessId(15), 0), (ProcessId(14), 1), (ProcessId(13), 2),]
        );
        assert!(live_crashes(16, 0).is_empty());
    }

    #[test]
    fn non_live_protocols_are_rejected() {
        let config = live_config(&tiny(), 8, 0);
        assert!(run_live_trial(GossipProtocolKind::SyncEpidemic, &config).is_err());
    }

    #[test]
    fn live_scale_trial_is_checker_verified_and_deterministic() {
        let a = run_live_scale_trial(128, 4, 7).unwrap();
        assert!(a.ok, "{a:?}");
        assert_eq!(a.f, 16);
        assert_eq!(a.reactors, 4);
        assert!(a.messages > 0 && a.bytes > a.messages);
        // Wall-clock rates vary run to run; the execution itself must not.
        let b = run_live_scale_trial(128, 4, 7).unwrap();
        assert_eq!(
            (a.ticks, a.messages, a.bytes),
            (b.ticks, b.messages, b.bytes)
        );
    }

    #[test]
    fn live_scale_crash_budget_respects_small_sizes() {
        assert_eq!(live_scale_f(4096), 16);
        assert_eq!(live_scale_f(512), 16);
        assert_eq!(live_scale_f(64), 8);
        let config = live_scale_config(64, 2, 3);
        assert_eq!(config.crashes.len(), 8);
        assert!(config.crashes.iter().all(|&(_, step)| step < 4));
    }
}
