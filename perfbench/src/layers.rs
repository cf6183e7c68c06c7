//! Per-layer reductions of a traced pass, shared by the workloads.

use std::collections::HashMap;
use std::time::Instant;

use agossip_core::{WireCodec, WireDecodeView};

use crate::report::Report;
use crate::stats;
use crate::trace::{Layer, SpanRec, Trace};

/// The engine and rumor-set metrics of a traced pass, per instance.
pub fn engine_metrics(r: &mut Report, trace: &Trace, instances: usize) {
    let per = |x: f64| x / instances.max(1) as f64;
    let (deliver_ns, _) = trace.layer_total(Layer::EngineDeliver);
    let (step_ns, _) = trace.layer_total(Layer::EngineStep);
    let totals = trace.engines();
    r.set(
        "engine.deliver_s",
        "s",
        per(deliver_ns as f64 * 1e-9),
        instances,
    );
    r.set(
        "engine.local_step_s",
        "s",
        per(step_ns as f64 * 1e-9),
        instances,
    );
    r.set(
        "engine.deliveries",
        "count",
        per(totals.deliveries as f64),
        instances,
    );
    r.set(
        "engine.batches",
        "count",
        per(totals.batches as f64),
        instances,
    );
    r.set(
        "engine.frames_per_batch",
        "count",
        totals.deliveries as f64 / totals.batches.max(1) as f64,
        totals.batches as usize,
    );
    r.set(
        "engine.useful_ratio",
        "ratio",
        totals.useful as f64 / totals.batches.max(1) as f64,
        totals.batches as usize,
    );
    let sets = totals.final_lens.len();
    r.set(
        "rumor.dense_share",
        "ratio",
        totals.final_dense as f64 / sets.max(1) as f64,
        sets,
    );
    r.set(
        "rumor.final_len_p50",
        "count",
        stats::median(&totals.final_lens),
        sets,
    );
}

/// Reactor-thread time, one `(span_ns, busy_ns)` per (instance, thread)
/// that made engine or endpoint calls: the span runs from the thread's
/// first call to its last, the busy time sums the calls.
fn reactor_threads(spans: &[SpanRec]) -> Vec<(u64, u64)> {
    let mut threads: HashMap<(u64, u32), (u64, u64, u64)> = HashMap::new();
    for s in spans.iter().filter(|s| s.layer != Layer::TransportOpen) {
        let t = threads
            .entry((s.instance, s.thread))
            .or_insert((u64::MAX, 0, 0));
        t.0 = t.0.min(s.acc.first_ns);
        t.1 = t.1.max(s.acc.last_ns);
        t.2 += s.acc.busy_ns;
    }
    threads
        .into_values()
        .map(|(first, last, busy)| (last.saturating_sub(first), busy))
        .collect()
}

/// Sets `reactor.residual_s` (reactor-thread time outside engine and
/// endpoint calls: encoding, pending heaps, the settle handshake and
/// barrier waits) per instance, and returns the summed reactor-thread
/// spans in seconds.
pub fn reactor_metrics(r: &mut Report, trace: &Trace, instances: usize) -> f64 {
    let threads = reactor_threads(&trace.spans());
    let residual_ns: u64 = threads
        .iter()
        .map(|&(span, busy)| stats::self_ns(span, &[busy]))
        .sum();
    r.set(
        "reactor.residual_s",
        "s",
        residual_ns as f64 * 1e-9 / instances.max(1) as f64,
        instances,
    );
    threads.iter().map(|&(span, _)| span as f64 * 1e-9).sum()
}

/// The transport metrics of a traced pass, per instance (`transport.open_s`
/// is the median open call).
pub fn transport_metrics(r: &mut Report, trace: &Trace, instances: usize) {
    let per = |x: f64| x / instances.max(1) as f64;
    let opens: Vec<f64> = trace
        .spans()
        .iter()
        .filter(|s| s.layer == Layer::TransportOpen)
        .map(|s| s.acc.busy_ns as f64 * 1e-9)
        .collect();
    r.set("transport.open_s", "s", stats::median(&opens), opens.len());
    let (send_ns, _) = trace.layer_total(Layer::TransportSend);
    let (poll_ns, polls) = trace.layer_total(Layer::TransportPoll);
    let (flush_ns, _) = trace.layer_total(Layer::TransportFlush);
    let totals = trace.transport();
    r.set(
        "transport.send_s",
        "s",
        per(send_ns as f64 * 1e-9),
        instances,
    );
    r.set(
        "transport.poll_s",
        "s",
        per(poll_ns as f64 * 1e-9),
        instances,
    );
    r.set(
        "transport.flush_s",
        "s",
        per(flush_ns as f64 * 1e-9),
        instances,
    );
    r.set(
        "transport.frames",
        "count",
        per(totals.frames as f64),
        instances,
    );
    r.set("transport.bytes", "B", per(totals.bytes as f64), instances);
    r.set("transport.polls", "count", per(polls as f64), instances);
    r.set(
        "transport.poll_hit_ratio",
        "ratio",
        totals.poll_hits as f64 / polls.max(1) as f64,
        polls as usize,
    );
    r.set(
        "transport.lost",
        "count",
        per(totals.lost as f64),
        instances,
    );
}

/// Replays captured messages through the codec: per-frame encode, owned
/// decode and view decode times, and the mean encoded size.
pub fn codec_metrics<M: WireCodec + WireDecodeView>(r: &mut Report, msgs: &[M]) {
    if msgs.is_empty() {
        return;
    }
    let bodies: Vec<Vec<u8>> = msgs.iter().map(WireCodec::encode).collect();
    let frames = msgs.len();
    // Enough passes over the sample for tens of milliseconds per timing.
    let reps = 8;
    let mut buf = Vec::new();
    let t = Instant::now();
    for _ in 0..reps {
        for m in msgs {
            buf.clear();
            m.encode_into(&mut buf);
            std::hint::black_box(&buf);
        }
    }
    let encode_ns = t.elapsed().as_nanos() as f64 / (reps * frames) as f64;
    let t = Instant::now();
    for _ in 0..reps {
        for b in &bodies {
            let _ = std::hint::black_box(M::decode(b));
        }
    }
    let decode_ns = t.elapsed().as_nanos() as f64 / (reps * frames) as f64;
    let t = Instant::now();
    for _ in 0..reps {
        for b in &bodies {
            let _ = std::hint::black_box(M::decode_view(b).is_ok());
        }
    }
    let view_ns = t.elapsed().as_nanos() as f64 / (reps * frames) as f64;
    let bytes: usize = bodies.iter().map(Vec::len).sum();
    r.set("codec.encode_ns", "ns", encode_ns, frames);
    r.set("codec.decode_ns", "ns", decode_ns, frames);
    r.set("codec.view_ns", "ns", view_ns, frames);
    r.set(
        "codec.bytes_per_frame",
        "B",
        bytes as f64 / frames as f64,
        frames,
    );
}
