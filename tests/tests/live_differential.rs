//! Differential tests between the live runtime and the discrete-event
//! simulator, expressed through the shared [`agossip_xtests::live_harness`]:
//! the set of rumors learned by every correct process in a live run must
//! satisfy exactly the same correctness checker that judges simulated
//! executions — same verdicts, and (for full gossip) the same final rumor
//! sets.
//!
//! Because every case goes through `live_vs_sim`, the whole matrix —
//! channel/TCP/UDS × lockstep/free-running — runs both on one thread per
//! process and on a few multiplexing reactors by iterating
//! [`live_harness::reactor_counts`]: every acceptance case covers both
//! for free.

use agossip_core::{Ears, GossipSpec, Tears};
use agossip_runtime::{run_live, ChannelTransport, LiveConfig, Pacing};
use agossip_sim::ProcessId;
use agossip_xtests::live_harness::{
    assert_bit_identical, live_vs_sim, reactor_counts, DiffConfig, SimSide, TransportKind,
};

/// The live runtime and the simulator, running the same protocol from the
/// same seed, must both produce executions the correctness checker accepts —
/// and for full gossip without crashes, the *same* final rumor sets: every
/// correct process ends holding every rumor, in both substrates. Holds under
/// every reactor count.
#[test]
fn live_and_simulated_ears_agree_with_the_checker() {
    for reactors in reactor_counts(16) {
        let live = LiveConfig {
            pacing: Pacing::Lockstep {
                d: 2,
                max_ticks: 1 << 20,
            },
            ..LiveConfig::lockstep(16, 4, 77)
        }
        .on_reactors(reactors);
        let case = DiffConfig {
            live,
            transport: TransportKind::Channel,
            spec: GossipSpec::Full,
            sim: Some(SimSide { d: 2, delta: 2 }),
        };
        let verdict = live_vs_sim(&case, Ears::new).unwrap();
        verdict.assert_checker_verified();
        // Full gossip, no crashes: both substrates converge on identical
        // rumor sets at every process.
        verdict.assert_rumor_sets_match_sim();
    }
}

/// Majority gossip differential: the checker that judges simulated `tears`
/// runs accepts the live runs too, on every reactor count.
#[test]
fn live_and_simulated_tears_agree_with_the_checker() {
    for reactors in reactor_counts(24) {
        let live = LiveConfig::lockstep(24, 0, 5).on_reactors(reactors);
        let case = DiffConfig {
            live,
            transport: TransportKind::Channel,
            spec: GossipSpec::Majority,
            sim: Some(SimSide { d: 2, delta: 2 }),
        };
        let verdict = live_vs_sim(&case, Tears::new).unwrap();
        verdict.assert_checker_verified();
    }
}

fn n32_crash_config(seed: u64) -> LiveConfig {
    LiveConfig::lockstep(32, 4, seed).with_crashes(vec![
        (ProcessId(31), 0),
        (ProcessId(30), 2),
        (ProcessId(29), 7),
        (ProcessId(28), 19),
    ])
}

fn assert_checker_verified(transport: TransportKind, config: &LiveConfig) {
    let case = DiffConfig::live_only(config.clone(), transport);
    live_vs_sim(&case, Ears::new)
        .unwrap()
        .assert_checker_verified();
}

/// The acceptance criterion, channel half: an `n = 32` lockstep run with
/// staggered crashes is bit-identical across repeats of the same seed —
/// and across reactor counts, from one thread per process down to one.
#[test]
fn channel_lockstep_n32_with_crashes_is_bit_identical() {
    let config = n32_crash_config(2008);
    let a = run_live(&config, &ChannelTransport, Ears::new).unwrap();
    let b = run_live(&config, &ChannelTransport, Ears::new).unwrap();
    assert_bit_identical("repeat", &a, &b);
    assert!(a.quiescent);
    for reactors in [1usize, 4] {
        let on_reactors = config.clone().on_reactors(reactors);
        let c = run_live(&on_reactors, &ChannelTransport, Ears::new).unwrap();
        assert_bit_identical(&format!("reactors={reactors}"), &a, &c);
    }
    assert_checker_verified(TransportKind::Channel, &config);
}

/// The acceptance criterion, TCP half: a live loopback-TCP run at `n = 32`
/// with crashes completes with every correct process holding the
/// checker-verified rumor set — on one thread per process and on two reactors.
#[test]
fn tcp_n32_with_crashes_is_checker_verified() {
    for reactors in reactor_counts(32) {
        let config = n32_crash_config(2009).on_reactors(reactors);
        assert_checker_verified(TransportKind::Tcp, &config);
    }
}

/// Same over Unix-domain sockets.
#[cfg(unix)]
#[test]
fn uds_n32_with_crashes_is_checker_verified() {
    for reactors in reactor_counts(32) {
        let config = n32_crash_config(2010).on_reactors(reactors);
        assert_checker_verified(TransportKind::Uds, &config);
    }
}

/// Free-running pacing (real scheduling nondeterminism) still yields
/// checker-verified executions over TCP, on one thread per process and on
/// two reactors.
#[test]
fn free_running_tcp_is_checker_verified() {
    for reactors in reactor_counts(8) {
        let config = LiveConfig::free_running(8, 2, 11).on_reactors(reactors);
        assert_checker_verified(TransportKind::Tcp, &config);
    }
}

/// CI's `live_smoke` job: the reactor differential at `n = 512` on two
/// reactor threads — 512 live processes multiplexed onto 2 event loops,
/// running scale-calibrated `tears` with the full 16-crash schedule, judged
/// by the same checker as a simulator run at the same timing bounds.
///
/// Ignored by default: the run is release-scale (~7 s debug is fine, but
/// the sim side at n = 512 adds more); the CI job runs it with
/// `--release -- --ignored`.
#[test]
#[ignore = "release-scale smoke; CI's live_smoke job runs it with --release -- --ignored"]
fn reactor_differential_n512_on_two_threads() {
    use agossip_analysis::experiments::live::{live_scale_config, live_scale_params};
    use agossip_core::Tears;

    let live = live_scale_config(512, 2, 2008);
    assert_eq!(live.reactors, 2);
    let params = live_scale_params(512);
    let case = DiffConfig {
        live,
        transport: TransportKind::Channel,
        spec: GossipSpec::Majority,
        sim: Some(SimSide { d: 6, delta: 3 }),
    };
    let verdict = live_vs_sim(&case, move |ctx| Tears::with_params(ctx, params)).unwrap();
    verdict.assert_checker_verified();
}

/// Free-running reactor runs with staggered crashes stay checker-verified
/// over channels — a crash deregisters its slot while the reactor hosting
/// it runs on.
#[test]
fn free_running_reactor_crashes_deregister_cleanly() {
    let config = LiveConfig::free_running(16, 4, 13)
        .with_crashes(vec![
            (ProcessId(15), 0),
            (ProcessId(14), 2),
            (ProcessId(13), 5),
        ])
        .on_reactors(3);
    assert_eq!(config.reactors, 3);
    assert_checker_verified(TransportKind::Channel, &config);
}
