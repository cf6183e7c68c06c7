//! End-to-end gossip execution driver.
//!
//! Glues together a protocol factory, the simulator, an adversary, and the
//! correctness checker, and returns everything the experiment harnesses need:
//! the metrics (message and time complexity of the execution) and the
//! correctness verdict.

use agossip_sim::{
    Adversary, Metrics, ProcessId, SimConfig, SimError, SimResult, Simulation, StopReason,
};

use crate::adapter::SimGossip;
use crate::checker::{check_gossip, CheckReport, GossipSpec};
use crate::engine::{GossipCtx, GossipEngine};
use crate::rumor::{Rumor, RumorSet};

/// The result of one gossip execution.
#[derive(Debug, Clone)]
pub struct GossipReport {
    /// Execution metrics: message counts, time, observed `d`/`δ`.
    pub metrics: Metrics,
    /// Correctness verdict.
    pub check: CheckReport,
    /// Why the run loop stopped.
    pub stop_reason: StopReason,
    /// Completion time in multiples of `d + δ` (None if never quiescent).
    pub normalized_time: Option<f64>,
    /// Total wire units sent by all processes (see [`crate::wire`]); a proxy
    /// for the paper's open "bit complexity" question.
    pub rumor_units_sent: u64,
    /// Final rumor sets, one per process (useful for debugging and for the
    /// consensus layer's tests).
    pub final_rumors: Vec<RumorSet>,
}

impl GossipReport {
    /// Total point-to-point messages sent in the execution.
    pub fn messages(&self) -> u64 {
        self.metrics.messages_sent
    }

    /// Completion time in raw time steps (None if never quiescent).
    pub fn time_steps(&self) -> Option<u64> {
        self.metrics.quiescence_time.map(|t| t.as_u64())
    }
}

/// Runs one gossip execution.
///
/// * `config` — system size, failure budget, `(d, δ)` bounds, seed;
/// * `spec` — which gossip variant to check at the end;
/// * `adversary` — schedules, crashes and delays (it must respect `config.f`);
/// * `make` — protocol factory invoked once per process.
///
/// Returns an error if the configuration is invalid. An execution that
/// exceeds `config.max_steps` without becoming quiescent is reported, not
/// returned as an error: its stop reason is [`StopReason::StepLimit`] and its
/// check fails.
pub fn run_gossip<G, A, F>(
    config: &SimConfig,
    spec: GossipSpec,
    adversary: &mut A,
    make: F,
) -> SimResult<GossipReport>
where
    G: GossipEngine,
    A: Adversary,
    F: Fn(GossipCtx) -> G,
{
    config.validate()?;
    let initial: Vec<Rumor> = ProcessId::all(config.n)
        .map(|pid| GossipCtx::new(pid, config.n, config.f, config.seed).rumor)
        .collect();

    let processes: Vec<SimGossip<G>> = ProcessId::all(config.n)
        .map(|pid| SimGossip::new(make(GossipCtx::new(pid, config.n, config.f, config.seed))))
        .collect();

    let mut sim = Simulation::new(config.clone(), processes)?;
    let stop_reason = match sim.run_with(adversary) {
        Ok(outcome) => outcome.reason,
        // Surface a non-quiescent execution as a failed check rather than
        // an error: the experiment harnesses want to observe it.
        Err(SimError::StepLimitExceeded { .. }) => StopReason::StepLimit,
        Err(e) => return Err(e),
    };
    let correct: Vec<bool> = sim.statuses().iter().map(|s| s.is_alive()).collect();
    let final_rumors: Vec<RumorSet> = sim
        .processes()
        .iter()
        .map(|p| p.engine().rumors().clone())
        .collect();
    let quiescent = stop_reason == StopReason::Quiescent;
    let check = check_gossip(spec, &final_rumors, &initial, &correct, quiescent);
    let rumor_units_sent = sim.processes().iter().map(|p| p.units_sent()).sum();
    let metrics = sim.metrics().clone();
    // A run cut at the step limit never completed.
    let normalized_time = match stop_reason {
        StopReason::StepLimit => None,
        _ => metrics.normalized_time(config.d, config.delta),
    };
    Ok(GossipReport {
        metrics,
        check,
        stop_reason,
        normalized_time,
        final_rumors,
        rumor_units_sent,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ears::Ears;
    use crate::sears::Sears;
    use crate::sync_epidemic::SyncEpidemic;
    use crate::tears::Tears;
    use crate::trivial::Trivial;
    use agossip_sim::FairObliviousAdversary;

    fn config(n: usize, f: usize, d: u64, delta: u64, seed: u64) -> SimConfig {
        SimConfig::new(n, f)
            .with_d(d)
            .with_delta(delta)
            .with_seed(seed)
    }

    #[test]
    fn trivial_gossip_completes_without_failures() {
        let cfg = config(16, 0, 1, 1, 1);
        let mut adv = FairObliviousAdversary::new(1, 1, 1);
        let report = run_gossip(&cfg, GossipSpec::Full, &mut adv, Trivial::new).unwrap();
        assert!(report.check.all_ok(), "{:?}", report.check);
        assert_eq!(report.messages(), 16 * 15);
        assert!(report.normalized_time.is_some());
    }

    #[test]
    fn ears_gossip_completes_without_failures() {
        let cfg = config(16, 0, 1, 1, 2);
        let mut adv = FairObliviousAdversary::new(1, 1, 2);
        let report = run_gossip(&cfg, GossipSpec::Full, &mut adv, Ears::new).unwrap();
        assert!(report.check.all_ok(), "{:?}", report.check);
        // EARS should use far fewer than n² messages even at n = 16? Not
        // necessarily at this small size, but it must at least terminate and
        // be correct. Check the message count is positive and bounded by the
        // step limit implied maximum.
        assert!(report.messages() > 0);
    }

    #[test]
    fn ears_gossip_with_delays_and_crashes() {
        let n = 16;
        let cfg = config(n, 4, 3, 2, 3);
        let crashes = (0..4).map(|i| {
            (
                agossip_sim::TimeStep(5 + i as u64 * 3),
                ProcessId(n - 1 - i),
            )
        });
        let mut adv = FairObliviousAdversary::new(3, 2, 3).with_crashes(crashes);
        let report = run_gossip(&cfg, GossipSpec::Full, &mut adv, Ears::new).unwrap();
        assert!(report.check.all_ok(), "{:?}", report.check);
    }

    #[test]
    fn sears_gossip_completes() {
        let cfg = config(32, 8, 2, 1, 4);
        let mut adv = FairObliviousAdversary::new(2, 1, 4);
        let report = run_gossip(&cfg, GossipSpec::Full, &mut adv, Sears::new).unwrap();
        assert!(report.check.all_ok(), "{:?}", report.check);
    }

    #[test]
    fn tears_achieves_majority_gossip() {
        let cfg = config(64, 0, 1, 1, 5);
        let mut adv = FairObliviousAdversary::new(1, 1, 5);
        let report = run_gossip(&cfg, GossipSpec::Majority, &mut adv, Tears::new).unwrap();
        assert!(report.check.all_ok(), "{:?}", report.check);
    }

    #[test]
    fn sync_epidemic_completes_in_logarithmic_steps() {
        let n = 64;
        let cfg = config(n, 0, 1, 1, 6);
        let mut adv = FairObliviousAdversary::new(1, 1, 6);
        let report = run_gossip(&cfg, GossipSpec::Full, &mut adv, SyncEpidemic::new).unwrap();
        assert!(report.check.all_ok(), "{:?}", report.check);
        let steps = report.time_steps().unwrap();
        assert!(
            steps <= 8 * (n as f64).log2().ceil() as u64 + 16,
            "sync baseline should finish in O(log n) rounds, took {steps}"
        );
    }

    #[test]
    fn idle_fast_forward_skips_quiet_windows_and_stays_correct() {
        // Trivial floods once and goes quiescent; with a large delivery bound
        // and few messages the run is mostly idle waiting, which fast-forward
        // jumps over without changing the outcome's correctness.
        let n = 4;
        let d = 40;
        let cfg = config(n, 0, d, 2, 9).with_idle_fast_forward(true);
        let mut adv = FairObliviousAdversary::new(d, 2, 9);
        let report = run_gossip(&cfg, GossipSpec::Full, &mut adv, Trivial::new).unwrap();
        assert!(report.check.all_ok(), "{:?}", report.check);
        assert_eq!(report.messages(), (n * (n - 1)) as u64);
        assert!(
            report.metrics.idle_steps_skipped > 0,
            "a d = 40 trivial flood must contain skippable idle windows"
        );
        // The clock still adds up: executed steps + skipped steps cover the
        // whole run up to quiescence.
        let q = report.time_steps().unwrap();
        assert!(report.metrics.elapsed_steps + report.metrics.idle_steps_skipped > q);
    }

    #[test]
    fn reports_are_deterministic_for_a_seed() {
        let cfg = config(24, 6, 2, 2, 77);
        let mut adv1 = FairObliviousAdversary::new(2, 2, 77);
        let mut adv2 = FairObliviousAdversary::new(2, 2, 77);
        let r1 = run_gossip(&cfg, GossipSpec::Full, &mut adv1, Ears::new).unwrap();
        let r2 = run_gossip(&cfg, GossipSpec::Full, &mut adv2, Ears::new).unwrap();
        assert_eq!(r1.messages(), r2.messages());
        assert_eq!(r1.time_steps(), r2.time_steps());
    }

    #[test]
    fn step_limit_is_reported_as_non_quiescent_check() {
        // An absurdly small step limit forces a StepLimit outcome.
        let cfg = config(16, 0, 1, 1, 8).with_max_steps(3);
        let mut adv = FairObliviousAdversary::new(1, 1, 8);
        let report = run_gossip(&cfg, GossipSpec::Full, &mut adv, Ears::new).unwrap();
        assert_eq!(report.stop_reason, StopReason::StepLimit);
        assert!(!report.check.quiescence_ok);
        assert!(report.normalized_time.is_none());
    }
}
