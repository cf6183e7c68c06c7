//! Golden-digest determinism pin for the live lockstep runtime, alongside
//! the simulator pins in `seed_equivalence.rs`: a lockstep `n = 256` run
//! with staggered crashes is folded into a single `u64` digest covering
//! every observable of the report — per-process rumor sets, step counts,
//! correctness flags, and the global wire counters. The digest must
//! reproduce the pinned constant exactly on every reactor count, from one
//! thread per process (`reactors = n`) down to one — multiplexing 256
//! processes onto 1, 2 or 8 reactor threads may not perturb a single bit
//! of the outcome.
//!
//! The protocol is `tears` with the scale-calibrated neighbourhood size
//! (the same parameterisation the `live_scale` scenario runs): its
//! multi-rumor second-level messages exercise large frames and heavy
//! fan-out without `ears`'s `O(n²)`-entry informed-list payloads, which
//! would make an `n = 256` live run too slow for tier-1.
//!
//! If a deliberate change to the runtime shifts the execution (new RNG
//! stream, different delivery order), the failure message prints the new
//! digest — re-pin the constant. An *unintentional* shift is a determinism
//! regression.

use agossip_analysis::experiments::scale::{scale_a_target, tears_params_for_a};
use agossip_core::Tears;
use agossip_runtime::{run_live, ChannelTransport, LiveConfig, LiveReport};
use agossip_sim::rng::splitmix64;
use agossip_sim::ProcessId;

/// The digest every reactor count must reproduce for the pinned
/// configuration below. Captured from a one-thread-per-process run.
const GOLDEN_DIGEST: u64 = 0xCDBC_B8D8_ECD7_BD89;

fn fold(h: u64, x: u64) -> u64 {
    splitmix64(h ^ x)
}

/// Canonical digest of a live report: every per-process observable in pid
/// order (rumor sets serialised as sorted `(origin, payload)` pairs), then
/// the global counters. Any bit-level divergence between two runs changes
/// the digest with overwhelming probability.
fn digest(report: &LiveReport) -> u64 {
    let mut h = 0xA605_2008u64; // domain tag: PODC'08 live digest
    for (pid, rumors) in report.final_rumors.iter().enumerate() {
        h = fold(h, pid as u64);
        h = fold(h, report.steps[pid]);
        h = fold(h, u64::from(report.correct[pid]));
        let mut entries: Vec<(u64, u64)> = rumors
            .iter()
            .map(|r| (r.origin.index() as u64, r.payload))
            .collect();
        entries.sort_unstable();
        h = fold(h, entries.len() as u64);
        for (origin, payload) in entries {
            h = fold(h, origin);
            h = fold(h, payload);
        }
    }
    h = fold(h, report.messages_sent);
    h = fold(h, report.messages_delivered);
    h = fold(h, report.bytes_sent);
    h = fold(h, report.decode_errors);
    h = fold(h, report.ticks);
    h = fold(h, u64::from(report.quiescent));
    h
}

/// The pinned configuration: `n = 256`, 16 crashes among the highest pids
/// staggered across the first four local steps (the run quiesces in a
/// handful of ticks, so a wider stagger would leave late crashes unfired),
/// lockstep pacing.
fn pinned_config() -> LiveConfig {
    let crashes: Vec<(ProcessId, u64)> = (0..16)
        .map(|i| (ProcessId(255 - i), (i % 4) as u64))
        .collect();
    LiveConfig::lockstep(256, 16, 0xD1CE_2008).with_crashes(crashes)
}

fn pinned_run(reactors: usize) -> LiveReport {
    let config = pinned_config().on_reactors(reactors);
    let params = tears_params_for_a(config.n, scale_a_target(config.n));
    let report = run_live(&config, &ChannelTransport, move |ctx| {
        Tears::with_params(ctx, params)
    })
    .unwrap();
    assert!(
        report.quiescent,
        "run on {reactors} reactors did not quiesce"
    );
    assert_eq!(report.decode_errors, 0, "{reactors} reactors");
    report
}

#[test]
fn lockstep_n256_with_crashes_digest_is_pinned_across_threadings() {
    // `n` reactors is one thread per process.
    for reactors in [256, 1, 2, 8] {
        let d = digest(&pinned_run(reactors));
        assert_eq!(
            d, GOLDEN_DIGEST,
            "digest on {reactors} reactors diverged from the pin \
             (got {d:#018x}); if the runtime changed deliberately, re-pin"
        );
    }
}

/// Repeating the run on the same reactor count reproduces the digest too —
/// determinism across repeats, not just across reactor counts.
#[test]
fn lockstep_n256_digest_is_stable_across_repeats() {
    let first = digest(&pinned_run(8));
    let second = digest(&pinned_run(8));
    assert_eq!(first, second);
    assert_eq!(first, GOLDEN_DIGEST);
}
