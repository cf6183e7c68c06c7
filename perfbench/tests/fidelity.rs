//! The traced runs must measure the same program as the untraced ones:
//! wrapping the engines, transports and adversaries may add time, never
//! change an outcome.

use agossip_analysis::experiments::live::live_scale_params;
use agossip_analysis::experiments::service::live_service_config;
use agossip_core::{LoopMode, Tears};
use agossip_perfbench::report::{END_TO_END, PER_LAYER};
use agossip_perfbench::sim_tables::{run_trial, ROUND};
use agossip_perfbench::trace::{Capture, Layer, Trace};
use agossip_perfbench::{live_burst, service_uds};
use agossip_runtime::{run_service, SocketTransport};

#[test]
fn traced_sim_trials_match_untraced_and_the_sweep() {
    let n = 24;
    for proto in ROUND {
        for round in 0..2 {
            let seed = 0xF1DE;
            let untraced = run_trial(proto, n, seed, round, None).unwrap();
            let trace = Trace::new();
            let traced = run_trial(proto, n, seed, round, Some((&trace, 0))).unwrap();
            assert_eq!(untraced.report, traced.report, "{proto:?} round {round}");
            // The benchmark's own trial path is the sweep's.
            let sweep = proto.spec(n, seed, round + 1).run_trial(round).unwrap();
            assert_eq!(untraced.report, sweep, "{proto:?} round {round}");
            assert!(traced.adversary.is_some());
            if proto.name() != "cr_ears" {
                assert!(trace.layer_total(Layer::EngineDeliver).1 > 0);
            }
        }
    }
}

#[test]
fn traced_live_run_matches_untraced() {
    let seed = 0x11FE;
    let untraced = live_burst::run_instance(64, seed, None);
    let trace = Trace::new();
    let capture = Capture::new(64, 1);
    let traced = live_burst::run_instance(64, seed, Some((&trace, 0, &capture)));
    assert!(untraced.ok && traced.ok);
    let fingerprint = untraced.fingerprint().unwrap();
    assert_eq!(Some(fingerprint), traced.fingerprint());
    assert!(fingerprint.0 > 0 && fingerprint.1 > 0 && fingerprint.2 > 0);
    // Every frame went through the traced endpoints, every body was
    // delivered through the traced engines.
    let report = traced.report.as_ref().unwrap();
    assert_eq!(trace.transport().frames, report.messages_sent);
    assert_eq!(trace.engines().deliveries, report.messages_delivered);
    assert!(!capture.take().is_empty());
}

#[test]
fn traced_service_run_matches_untraced() {
    let (n, seed, epochs) = (16, 0x5EC7, 12);
    let untraced = service_uds::run_once(SocketTransport::uds(), n, seed, epochs, true, None);
    let trace = Trace::new();
    let capture = Capture::new(64, 1);
    let traced = service_uds::run_once(
        SocketTransport::uds(),
        n,
        seed,
        epochs,
        true,
        Some((&trace, 0, &capture)),
    );
    let fingerprint = untraced.fingerprint().expect("untraced run succeeded");
    assert_eq!(Some(fingerprint.clone()), traced.fingerprint());
    assert_ne!(fingerprint.5, 0, "final sets were folded into the digest");
    assert_eq!(untraced.latencies_s.len(), epochs as usize);
    assert!(untraced.latencies_s.iter().all(Option::is_some));
    assert_eq!(trace.engines_built(), epochs * n as u64);
    assert_eq!(trace.engines().dropped, epochs * n as u64);

    // The lifecycle wrapper of the untraced run changes nothing either:
    // a bare run of the same configuration reports the same outcome.
    let config = live_service_config(
        n,
        service_uds::REACTORS,
        seed,
        epochs,
        LoopMode::Closed {
            in_flight: service_uds::IN_FLIGHT,
        },
    );
    let params = live_scale_params(n);
    let bare = run_service(&config, &SocketTransport::uds(), move |ctx| {
        Tears::with_params(ctx, params)
    })
    .unwrap();
    let ours = untraced.report.as_ref().unwrap();
    assert_eq!(
        (bare.ticks, bare.messages_sent, bare.bytes_sent, &bare.steps),
        (ours.ticks, ours.messages_sent, ours.bytes_sent, &ours.steps)
    );
    let epochs_of = |r: &agossip_runtime::ServiceReport| -> Vec<(u64, u64, u64, bool)> {
        r.epochs
            .iter()
            .map(|e| (e.opened_at, e.settled_at, e.finalized_at, e.check.all_ok()))
            .collect()
    };
    assert_eq!(epochs_of(&bare), epochs_of(ours));
}

/// `BENCHMARK.json` at the repository root lists exactly the metrics the
/// binary reports.
#[test]
fn benchmark_json_lists_the_reported_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let section = |key: &str| -> String {
        let start = json.find(&format!("\"{key}\"")).expect(key);
        let rest = &json[start..];
        let end = rest.find(']').expect("array end");
        rest[..end].to_string()
    };
    for (key, metrics) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let listed = section(key);
        assert_eq!(
            listed.matches("\"name\"").count(),
            metrics.len(),
            "{key} lists a different number of metrics"
        );
        for (name, unit) in metrics {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(listed.contains(&entry), "{key} lacks {entry}");
        }
    }
}
