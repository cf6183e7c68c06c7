//! Golden-digest determinism pin for the live *service* runtime, alongside
//! the one-shot pin in `live_determinism.rs`: a closed-loop multi-epoch
//! lockstep run with staggered crashes is folded into a single `u64` digest
//! covering every observable of the report — each epoch's full lifecycle
//! (admission, settle, finalize steps and its checker verdict), the
//! per-process step counts, and the global wire counters. The digest must
//! reproduce the pinned constant exactly on every reactor count, from one
//! thread per process (`reactors = n`) down to one — multiplexing the
//! processes (and their concurrently open epochs) onto 1, 2 or 8 reactor
//! threads may not perturb a single bit of the outcome.
//!
//! This is the acceptance pin for the service mode's determinism story: the
//! admission frontier is a pure function republished between tick barriers,
//! the per-epoch engines derive everything from `epoch_seed`, and stale
//! frames cannot occur under lockstep — so the whole epoch pipeline is as
//! reproducible as a single one-shot run.
//!
//! If a deliberate change to the service driver shifts the execution (new
//! admission schedule, different harvest timing), the failure message
//! prints the new digest — re-pin the constant. An *unintentional* shift is
//! a determinism regression.

use agossip_core::{GossipSpec, LoopMode, Tears};
use agossip_runtime::{run_service, ChannelTransport, LiveConfig, ServiceConfig, ServiceReport};
use agossip_sim::rng::splitmix64;
use agossip_sim::ProcessId;

/// The digest every reactor count must reproduce for the pinned
/// configuration below. Captured from a one-thread-per-process run.
const GOLDEN_DIGEST: u64 = 0x4BBC_9B56_BFEE_079F;

fn fold(h: u64, x: u64) -> u64 {
    splitmix64(h ^ x)
}

/// Canonical digest of a service report: every epoch lifecycle in epoch
/// order, then per-process step counts, then the global counters. Any
/// bit-level divergence between two runs changes the digest with
/// overwhelming probability. (`elapsed` and the transport label are the
/// only fields excluded — one is wall-clock, the other is static.)
fn digest(report: &ServiceReport) -> u64 {
    let mut h = 0x5E41_2008u64; // domain tag: PODC'08 service digest
    h = fold(h, report.epochs.len() as u64);
    for e in &report.epochs {
        h = fold(h, e.epoch);
        h = fold(h, e.opened_at);
        h = fold(h, e.settled_at);
        h = fold(h, e.finalized_at);
        h = fold(h, u64::from(e.check.all_ok()));
    }
    for &steps in &report.steps {
        h = fold(h, steps);
    }
    h = fold(h, report.messages_sent);
    h = fold(h, report.messages_delivered);
    h = fold(h, report.bytes_sent);
    h = fold(h, report.decode_errors);
    h = fold(h, report.stale_drops);
    h = fold(h, report.max_open);
    h = fold(h, report.ticks);
    h = fold(h, u64::from(report.quiescent));
    h
}

/// The pinned configuration: `n = 48`, 6 epochs through a 4-slot window at
/// 3 in flight (so epochs genuinely overlap), 6 crashes among the highest
/// pids staggered across the first epochs' lifetime, majority-checked
/// `tears` — the same engine family the service baseline and smoke runs
/// drive, at a size cheap enough for tier-1.
fn pinned_config() -> ServiceConfig {
    let crashes: Vec<(ProcessId, u64)> = (0..6)
        .map(|i| (ProcessId(47 - i), (4 + 3 * i) as u64))
        .collect();
    let live = LiveConfig::lockstep(48, 6, 0x5E41_2008).with_crashes(crashes);
    ServiceConfig::new(live, 6)
        .with_window(4)
        .with_mode(LoopMode::Closed { in_flight: 3 })
        .with_spec(GossipSpec::Majority)
}

fn pinned_run(reactors: usize) -> ServiceReport {
    let mut config = pinned_config();
    config.live.reactors = reactors;
    let report = run_service(&config, &ChannelTransport, Tears::new).expect("pinned service run");
    assert!(
        report.quiescent,
        "run on {reactors} reactors did not finalize"
    );
    assert!(
        report.all_ok(),
        "run on {reactors} reactors failed an epoch check"
    );
    assert_eq!(report.decode_errors, 0, "{reactors} reactors");
    assert_eq!(
        report.stale_drops, 0,
        "lockstep service must not race frames"
    );
    assert!(report.max_open >= 2, "the pin must exercise epoch overlap");
    report
}

#[test]
fn closed_loop_n48_with_crashes_digest_is_pinned_across_threadings() {
    // `n` reactors is one thread per process.
    for reactors in [48, 1, 2, 8] {
        let d = digest(&pinned_run(reactors));
        assert_eq!(
            d, GOLDEN_DIGEST,
            "service digest on {reactors} reactors diverged from the pin \
             (got {d:#018x}); if the service driver changed deliberately, re-pin"
        );
    }
}

/// Repeating the run on the same reactor count reproduces the digest too —
/// determinism across repeats, not just across reactor counts.
#[test]
fn closed_loop_n48_digest_is_stable_across_repeats() {
    let first = digest(&pinned_run(8));
    let second = digest(&pinned_run(8));
    assert_eq!(first, second);
    assert_eq!(first, GOLDEN_DIGEST);
}
