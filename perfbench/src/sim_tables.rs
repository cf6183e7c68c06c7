//! `sim-tables`: the simulator loop researchers run to regenerate Tables 1
//! and 2.
//!
//! Each round runs one trial each of `tears`, `CR-ears`, `sears` (ε = ½)
//! and `ears` at n = 128, f = 32, d = δ = 2 under the fair oblivious
//! adversary, with trial seeds derived from the benchmark seed through the
//! sweep's own [`ScenarioSpec::config_for`]. Trials are sharded on a
//! 2-worker [`TrialPool`]. The codec and the runtime are never touched.

use std::cell::Cell;
use std::sync::Arc;
use std::time::Instant;

use agossip_analysis::experiments::GossipProtocolKind;
use agossip_analysis::sweep::{AdversarySpec, ScenarioSpec, TrialPool, TrialProtocol, TrialReport};
use agossip_consensus::{run_consensus, ConsensusProtocol};
use agossip_core::{
    check_gossip, run_gossip, Ears, GossipCtx, GossipEngine, GossipSpec, Sears, SearsParams, Tears,
};
use agossip_sim::rng::splitmix64;
use agossip_sim::{FairObliviousAdversary, ProcessId, SimConfig, SimResult, StopReason};

use crate::layers::engine_metrics;
use crate::trace::{Acc, Layer, Probed, Trace, TracedAdversary};
use crate::{over_budget, secs, stats, EndToEnd, Outcome, RunSpec};

/// System size; the failure budget is a quarter of it (f = 32).
pub const N: usize = 128;
/// Delivery and scheduling bounds.
pub const D: u64 = 2;
/// Pool workers.
pub const WORKERS: usize = 2;
/// Nominal wall time of one round on the reference box (2 workers).
pub const ROUND_S: f64 = 5.0;

/// The protocols of one round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Proto {
    /// Spamming epidemic gossip, ε = ½.
    Sears,
    /// Two-hop majority gossip.
    Tears,
    /// Canetti–Rabin consensus over epidemic gossip.
    CrEars,
    /// Epidemic gossip.
    Ears,
}

/// One round, longest trial first, so the two workers of a round end
/// close together.
pub const ROUND: [Proto; 4] = [Proto::Sears, Proto::Tears, Proto::CrEars, Proto::Ears];

impl Proto {
    /// Metric-name suffix.
    pub fn name(self) -> &'static str {
        match self {
            Proto::Tears => "tears",
            Proto::CrEars => "cr_ears",
            Proto::Sears => "sears",
            Proto::Ears => "ears",
        }
    }

    fn protocol(self) -> TrialProtocol {
        match self {
            Proto::Tears => TrialProtocol::Gossip(GossipProtocolKind::Tears),
            Proto::CrEars => TrialProtocol::Consensus(ConsensusProtocol::CrEars),
            Proto::Sears => TrialProtocol::Gossip(GossipProtocolKind::Sears { epsilon: 0.5 }),
            Proto::Ears => TrialProtocol::Gossip(GossipProtocolKind::Ears),
        }
    }

    /// The sweep spec of this protocol's trials at size `n` for benchmark
    /// seed `seed`.
    pub fn spec(self, n: usize, seed: u64, rounds: usize) -> ScenarioSpec {
        ScenarioSpec {
            protocol: self.protocol(),
            n,
            f: n / 4,
            d: D,
            delta: D,
            adversary: AdversarySpec::FairOblivious,
            base_seed: splitmix64(seed ^ splitmix64(self as u64 + 1)),
            trials: rounds,
            idle_fast_forward: false,
        }
    }
}

/// One trial's result and the measurements taken around it.
#[derive(Debug, Clone)]
pub struct TrialRun {
    /// The protocol.
    pub proto: Proto,
    /// The sweep's uniform trial report.
    pub report: TrialReport,
    /// Wall time of the trial.
    pub wall_s: f64,
    /// From the trial's start to its last engine built (gossip trials).
    pub setup_s: Option<f64>,
    /// Simulator steps executed.
    pub steps: u64,
    /// Traced runs: adversary decisions and peak messages in flight.
    pub adversary: Option<(Acc, Acc, usize)>,
    /// Traced gossip runs: time to re-run the checker on the final sets.
    pub check_s: Option<f64>,
}

/// Runs trial `round` of `proto` at size `n`, traced as instance
/// `instance` when `trace` is given.
pub fn run_trial(
    proto: Proto,
    n: usize,
    seed: u64,
    round: usize,
    trace: Option<(&Arc<Trace>, u64)>,
) -> SimResult<TrialRun> {
    let config = proto.spec(n, seed, round + 1).config_for(round);
    let start = Instant::now();
    let mut run = match proto {
        Proto::Tears => gossip(proto, &config, GossipSpec::Majority, Tears::new, trace),
        Proto::Sears => gossip(proto, &config, GossipSpec::Full, sears_half, trace),
        Proto::Ears => gossip(proto, &config, GossipSpec::Full, Ears::new, trace),
        Proto::CrEars => consensus(&config, trace),
    }?;
    let end = Instant::now();
    run.wall_s = secs(start, end);
    if let Some((trace, instance)) = trace {
        trace.root(instance, start, end);
    }
    Ok(run)
}

fn sears_half(ctx: GossipCtx) -> Sears {
    Sears::with_params(ctx, SearsParams::with_epsilon(0.5))
}

/// A gossip trial; its wall time is filled in by [`run_trial`].
fn gossip<G, F>(
    proto: Proto,
    config: &SimConfig,
    spec: GossipSpec,
    make: F,
    trace: Option<(&Arc<Trace>, u64)>,
) -> SimResult<TrialRun>
where
    G: GossipEngine,
    F: Fn(GossipCtx) -> G,
{
    let start = Instant::now();
    let built = Cell::new(start);
    let adversary = FairObliviousAdversary::new(config.d, config.delta, config.seed);
    let (report, traced) = match trace {
        None => {
            let mut adversary = adversary;
            let report = run_gossip(config, spec, &mut adversary, |ctx| {
                let engine = make(ctx);
                built.set(Instant::now());
                engine
            })?;
            (report, None)
        }
        Some((trace, instance)) => {
            let mut adversary = TracedAdversary::new(adversary, trace);
            let report = run_gossip(config, spec, &mut adversary, |ctx| {
                let engine = Probed::traced(make(ctx), trace, instance, None);
                built.set(Instant::now());
                engine
            })?;
            (report, Some(adversary))
        }
    };
    let check_s = traced.as_ref().map(|_| {
        let initial: Vec<_> = ProcessId::all(config.n)
            .map(|pid| GossipCtx::new(pid, config.n, config.f, config.seed).rumor)
            .collect();
        let correct = vec![true; config.n];
        let quiescent = report.stop_reason == StopReason::Quiescent;
        let t = Instant::now();
        let check = check_gossip(spec, &report.final_rumors, &initial, &correct, quiescent);
        let check_s = t.elapsed().as_secs_f64();
        debug_assert_eq!(check, report.check);
        check_s
    });
    Ok(TrialRun {
        proto,
        report: TrialReport {
            ok: report.check.all_ok(),
            time_steps: report.time_steps(),
            normalized_time: report.normalized_time,
            messages: report.messages(),
            wire_units: report.rumor_units_sent,
            rounds: 0,
        },
        wall_s: 0.0,
        setup_s: Some(secs(start, built.get())),
        steps: report.metrics.elapsed_steps,
        adversary: traced.map(|a| (a.plan, a.delay, a.in_flight_peak)),
        check_s,
    })
}

/// A `CR-ears` trial; its wall time is filled in by [`run_trial`].
fn consensus(config: &SimConfig, trace: Option<(&Arc<Trace>, u64)>) -> SimResult<TrialRun> {
    let inputs: Vec<u64> = (0..config.n).map(|i| (i % 2) as u64).collect();
    let adversary = FairObliviousAdversary::new(config.d, config.delta, config.seed);
    let (report, traced) = match trace {
        None => {
            let mut adversary = adversary;
            let report = run_consensus(config, ConsensusProtocol::CrEars, &inputs, &mut adversary)?;
            (report, None)
        }
        Some((trace, _)) => {
            let mut adversary = TracedAdversary::new(adversary, trace);
            let report = run_consensus(config, ConsensusProtocol::CrEars, &inputs, &mut adversary)?;
            (report, Some(adversary))
        }
    };
    Ok(TrialRun {
        proto: Proto::CrEars,
        report: TrialReport {
            ok: report.check.all_ok(),
            time_steps: report.time_steps(),
            normalized_time: report.normalized_time,
            messages: report.messages(),
            wire_units: 0,
            rounds: report.max_rounds,
        },
        wall_s: 0.0,
        setup_s: None,
        steps: report.metrics.elapsed_steps,
        adversary: traced.map(|a| (a.plan, a.delay, a.in_flight_peak)),
        check_s: None,
    })
}

/// One pass: `rounds` rounds, each sharded on the pool as one batch.
/// Returns every trial in round-major order (`None` marks a trial that
/// errored or was not started within the budget), the wall time of each
/// round, and the wall time of the pass.
fn pass(
    seed: u64,
    rounds: usize,
    trace: Option<&Arc<Trace>>,
) -> (Vec<Option<TrialRun>>, Vec<f64>, f64) {
    let pool = TrialPool::new(WORKERS);
    let start = Instant::now();
    let mut runs = Vec::with_capacity(rounds * ROUND.len());
    let mut round_walls = Vec::with_capacity(rounds);
    for round in 0..rounds {
        let round_start = Instant::now();
        runs.extend(pool.run(ROUND.len(), |p| {
            if over_budget() {
                return None;
            }
            let instance = (round * ROUND.len() + p) as u64;
            run_trial(ROUND[p], N, seed, round, trace.map(|t| (t, instance))).ok()
        }));
        round_walls.push(round_start.elapsed().as_secs_f64());
    }
    (runs, round_walls, start.elapsed().as_secs_f64())
}

/// Runs the workload.
pub fn run(spec: &RunSpec) -> Outcome {
    let rounds = spec.instances(ROUND_S);
    let mut out = Outcome::default();
    let cpu0 = crate::report::process_cpu_s();
    let (runs, round_walls, wall_s) = pass(spec.seed, rounds, None);
    let cpu_s = crate::report::process_cpu_s() - cpu0;

    let mut e2e = EndToEnd {
        wall_s,
        ..EndToEnd::default()
    };
    for (i, run) in runs.iter().enumerate() {
        e2e.attempted += 1;
        let Some(run) = run else {
            e2e.failed += 1;
            out.problems
                .push(format!("trial {i} errored or was not started"));
            continue;
        };
        if !run.report.ok {
            e2e.failed += 1;
            if run.proto != Proto::Tears {
                out.problems.push(format!(
                    "{} trial {} failed its check",
                    run.proto.name(),
                    i / ROUND.len()
                ));
            }
        }
        e2e.setups_s.extend(run.setup_s);
        e2e.messages.push(run.report.messages as f64);
        e2e.time_dd.extend(run.report.normalized_time);
    }
    // A round's latency is the pool's wall time for its four trials: the
    // time to regenerate one row of each table. Per-trial times mix four
    // protocols whose costs differ several-fold, so their percentiles
    // would fall between protocols.
    e2e.latencies_s = round_walls;
    e2e.completed = runs.iter().flatten().count();
    out.attempted = e2e.attempted;
    out.failed = e2e.failed;
    if !spec.trace {
        e2e.report(&mut out.report, Some("trials_per_s"));
        return out;
    }

    let r = &mut out.report;
    r.set(
        "process.cpu_util",
        "ratio",
        cpu_s / (WORKERS as f64 * wall_s),
        1,
    );
    let trace = Trace::new();
    let (traced, _, traced_wall_s) = pass(spec.seed, rounds, Some(&trace));
    for (i, (a, b)) in runs.iter().zip(&traced).enumerate() {
        let same = match (a, b) {
            (Some(a), Some(b)) => a.report == b.report,
            (None, None) => true,
            _ => false,
        };
        if !same {
            out.problems
                .push(format!("traced trial {i} differs from its untraced run"));
        }
    }
    let traced: Vec<(usize, &TrialRun)> = traced
        .iter()
        .enumerate()
        .filter_map(|(i, t)| t.as_ref().map(|t| (i, t)))
        .collect();
    let busy_s: f64 = traced.iter().map(|(_, t)| t.wall_s).sum();
    r.set(
        "sweep.busy_ratio",
        "ratio",
        busy_s / (WORKERS as f64 * traced_wall_s),
        traced.len(),
    );
    for proto in ROUND {
        let walls: Vec<f64> = traced
            .iter()
            .filter(|(_, t)| t.proto == proto)
            .map(|(_, t)| t.wall_s)
            .collect();
        r.set(
            &format!("sweep.trial_s.{}", proto.name()),
            "s",
            stats::median(&walls),
            walls.len(),
        );
    }

    let spans = trace.spans();
    let engine_ns = |instance: usize| -> u64 {
        spans
            .iter()
            .filter(|s| s.instance == instance as u64)
            .filter(|s| matches!(s.layer, Layer::EngineDeliver | Layer::EngineStep))
            .map(|s| s.acc.busy_ns)
            .sum()
    };
    let gossip: Vec<&(usize, &TrialRun)> = traced
        .iter()
        .filter(|(_, t)| t.proto != Proto::CrEars)
        .collect();
    let sim_self: Vec<f64> = gossip
        .iter()
        .map(|(i, t)| {
            let (plan, delay, _) = t.adversary.unwrap_or((Acc::EMPTY, Acc::EMPTY, 0));
            let span_ns = (t.wall_s * 1e9) as u64;
            let check_ns = (t.check_s.unwrap_or(0.0) * 1e9) as u64;
            let children = [engine_ns(*i), plan.busy_ns, delay.busy_ns, check_ns];
            stats::self_ns(span_ns, &children) as f64 * 1e-9
        })
        .collect();
    r.set("sim.self_s", "s", stats::mean(&sim_self), sim_self.len());
    let per_trial = |f: &dyn Fn(&TrialRun) -> f64| -> f64 {
        stats::mean(&traced.iter().map(|(_, t)| f(t)).collect::<Vec<_>>())
    };
    let n = traced.len();
    r.set("sim.steps", "count", per_trial(&|t| t.steps as f64), n);
    r.set(
        "sim.messages",
        "count",
        per_trial(&|t| t.report.messages as f64),
        n,
    );
    let adv = |t: &TrialRun| t.adversary.unwrap_or((Acc::EMPTY, Acc::EMPTY, 0));
    r.set(
        "sim.in_flight_peak",
        "count",
        per_trial(&|t| adv(t).2 as f64),
        n,
    );
    let wire: Vec<f64> = gossip
        .iter()
        .map(|(_, t)| t.report.wire_units as f64)
        .collect();
    r.set("sim.wire_units", "count", stats::mean(&wire), wire.len());
    r.set(
        "adversary.plan_s",
        "s",
        per_trial(&|t| adv(t).0.busy_ns as f64 * 1e-9),
        n,
    );
    r.set(
        "adversary.delay_s",
        "s",
        per_trial(&|t| adv(t).1.busy_ns as f64 * 1e-9),
        n,
    );
    r.set(
        "adversary.delay_calls",
        "count",
        per_trial(&|t| adv(t).1.calls as f64),
        n,
    );
    let cr: Vec<&TrialRun> = traced
        .iter()
        .filter(|(_, t)| t.proto == Proto::CrEars)
        .map(|(_, t)| *t)
        .collect();
    let cr_mean =
        |f: &dyn Fn(&TrialRun) -> f64| stats::mean(&cr.iter().map(|t| f(t)).collect::<Vec<_>>());
    r.set(
        "consensus.rounds",
        "count",
        cr_mean(&|t| t.report.rounds as f64),
        cr.len(),
    );
    r.set(
        "consensus.messages",
        "count",
        cr_mean(&|t| t.report.messages as f64),
        cr.len(),
    );
    engine_metrics(r, &trace, gossip.len());
    let checks: Vec<f64> = gossip.iter().filter_map(|(_, t)| t.check_s).collect();
    r.set(
        "checker.s_per_instance",
        "s",
        stats::mean(&checks),
        checks.len(),
    );
    r.set("trace.overhead", "ratio", traced_wall_s / wall_s - 1.0, 2);
    // Every layer's self time summed is each trial's whole wall time: the
    // sim loop's self time plus the engine and adversary spans inside it.
    r.set(
        "trace.coverage",
        "ratio",
        busy_s / (WORKERS as f64 * traced_wall_s),
        n,
    );
    crate::write_trace(&trace, "sim-tables");
    out
}
