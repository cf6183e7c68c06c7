//! Tracing from outside the program.
//!
//! Every layer is measured by timing calls into its public traits: the
//! wrappers here forward each method of [`GossipEngine`], [`Transport`] /
//! [`Endpoint`] and [`Adversary`] to the wrapped value and record the busy
//! time and call count around it. Nothing inside the workspace crates
//! changes.
//!
//! Spans are aggregated per (instance, layer, thread): a wrapper keeps its
//! own accumulators while it lives (no lock per call) and hands them to the
//! shared [`Trace`] when it drops. Each instance also has a root span,
//! recorded by the workload around the call that runs it. Everything stays
//! in memory until [`Trace::write_jsonl`] writes it out at the end of a run.

use std::cell::Cell;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use agossip_core::{EncodedFrame, GossipEngine, RumorSet, WireCodec};
use agossip_runtime::{Endpoint, RawFrame, RuntimeError, SendOutcome, Transport};
use agossip_sim::rng::splitmix64;
use agossip_sim::{Adversary, EnvelopeMeta, ProcessId, StepPlan, SystemView};

/// A layer boundary the wrappers time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `GossipEngine::deliver` and `GossipEngine::deliver_encoded`.
    EngineDeliver,
    /// `GossipEngine::local_step`.
    EngineStep,
    /// `Transport::open`.
    TransportOpen,
    /// `Endpoint::send` and `Endpoint::send_shared`.
    TransportSend,
    /// `Endpoint::poll_into`.
    TransportPoll,
    /// `Endpoint::flush`.
    TransportFlush,
}

impl Layer {
    /// The name written to the trace file.
    pub fn name(self) -> &'static str {
        match self {
            Layer::EngineDeliver => "engine.deliver",
            Layer::EngineStep => "engine.local_step",
            Layer::TransportOpen => "transport.open",
            Layer::TransportSend => "transport.send",
            Layer::TransportPoll => "transport.poll",
            Layer::TransportFlush => "transport.flush",
        }
    }
}

/// Busy time, call count and the covered interval of one aggregated span.
/// Times are nanoseconds since the trace's origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Acc {
    /// Summed duration of the calls.
    pub busy_ns: u64,
    /// Number of calls.
    pub calls: u64,
    /// Start of the first call.
    pub first_ns: u64,
    /// End of the last call.
    pub last_ns: u64,
}

impl Acc {
    /// No calls yet.
    pub const EMPTY: Acc = Acc {
        busy_ns: 0,
        calls: 0,
        first_ns: u64::MAX,
        last_ns: 0,
    };

    fn record(&mut self, start_ns: u64, end_ns: u64) {
        self.busy_ns += end_ns.saturating_sub(start_ns);
        self.calls += 1;
        self.first_ns = self.first_ns.min(start_ns);
        self.last_ns = self.last_ns.max(end_ns);
    }

    /// Runs `f`, adding its duration to this span.
    #[inline]
    pub fn time<R>(&mut self, origin: Instant, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let result = f();
        let end = Instant::now();
        self.record(since(origin, start), since(origin, end));
        result
    }
}

fn since(origin: Instant, t: Instant) -> u64 {
    u64::try_from(t.saturating_duration_since(origin).as_nanos()).unwrap_or(u64::MAX)
}

/// One aggregated layer span: every call of `layer` made by one instance on
/// one thread.
#[derive(Debug, Clone, Copy)]
pub struct SpanRec {
    /// The instance (root span) this span is a child of.
    pub instance: u64,
    /// The layer.
    pub layer: Layer,
    /// The thread that made the calls (see [`thread_index`]).
    pub thread: u32,
    /// The aggregated calls.
    pub acc: Acc,
}

/// One instance's root span.
#[derive(Debug, Clone, Copy)]
pub struct RootSpan {
    /// Instance id.
    pub instance: u64,
    /// Thread that ran the instance.
    pub thread: u32,
    /// Start, nanoseconds since the trace's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the trace's origin.
    pub end_ns: u64,
}

/// Engine counters summed over every traced engine.
#[derive(Debug, Clone, Default)]
pub struct EngineTotals {
    /// Messages delivered (owned deliveries plus encoded frames).
    pub deliveries: u64,
    /// Delivery calls: one per owned message, one per encoded batch.
    pub batches: u64,
    /// Delivery calls after which the rumor set had grown.
    pub useful: u64,
    /// Engines dropped.
    pub dropped: u64,
    /// Final rumor sets in the dense representation.
    pub final_dense: u64,
    /// Size of each final rumor set.
    pub final_lens: Vec<f64>,
}

/// Transport counters summed over every traced endpoint.
#[derive(Debug, Clone, Copy, Default)]
pub struct TransportTotals {
    /// Frames handed to the transport.
    pub frames: u64,
    /// Bytes handed to the transport (per-destination head plus body).
    pub bytes: u64,
    /// `poll_into` calls that returned at least one frame.
    pub poll_hits: u64,
    /// Frames lost: sends to an unreachable peer plus frames a flush
    /// reported lost.
    pub lost: u64,
}

/// The in-memory span store of one traced run.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    spans: Mutex<Vec<SpanRec>>,
    roots: Mutex<Vec<RootSpan>>,
    engines: Mutex<EngineTotals>,
    transport: Mutex<TransportTotals>,
    built: AtomicU64,
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Trace {
    /// An empty trace whose clock starts now.
    pub fn new() -> Arc<Trace> {
        Arc::new(Trace {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
            roots: Mutex::new(Vec::new()),
            engines: Mutex::new(EngineTotals::default()),
            transport: Mutex::new(TransportTotals::default()),
            built: AtomicU64::new(0),
        })
    }

    /// Records the root span of `instance`, run on the calling thread.
    pub fn root(&self, instance: u64, start: Instant, end: Instant) {
        lock(&self.roots).push(RootSpan {
            instance,
            thread: thread_index(),
            start_ns: since(self.origin, start),
            end_ns: since(self.origin, end),
        });
    }

    fn push(&self, instance: u64, layer: Layer, thread: u32, acc: Acc) {
        if acc.calls > 0 {
            lock(&self.spans).push(SpanRec {
                instance,
                layer,
                thread,
                acc,
            });
        }
    }

    /// Every layer span recorded so far.
    pub fn spans(&self) -> Vec<SpanRec> {
        lock(&self.spans).clone()
    }

    /// Every root span recorded so far.
    pub fn roots(&self) -> Vec<RootSpan> {
        lock(&self.roots).clone()
    }

    /// Summed busy time and calls of `layer` over all instances.
    pub fn layer_total(&self, layer: Layer) -> (u64, u64) {
        lock(&self.spans)
            .iter()
            .filter(|s| s.layer == layer)
            .fold((0, 0), |(ns, calls), s| {
                (ns + s.acc.busy_ns, calls + s.acc.calls)
            })
    }

    /// Engine counters so far.
    pub fn engines(&self) -> EngineTotals {
        lock(&self.engines).clone()
    }

    /// Transport counters so far.
    pub fn transport(&self) -> TransportTotals {
        *lock(&self.transport)
    }

    /// Engines built through [`Probed::traced`] so far.
    pub fn engines_built(&self) -> u64 {
        self.built.load(Ordering::Relaxed)
    }

    /// Writes every root and layer span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for r in self.roots() {
            writeln!(
                out,
                "{{\"span\":\"instance\",\"instance\":{},\"thread\":{},\"start_ns\":{},\"end_ns\":{}}}",
                r.instance, r.thread, r.start_ns, r.end_ns
            )?;
        }
        for s in self.spans() {
            writeln!(
                out,
                "{{\"span\":\"{}\",\"instance\":{},\"thread\":{},\"busy_ns\":{},\"calls\":{},\"first_ns\":{},\"last_ns\":{}}}",
                s.layer.name(),
                s.instance,
                s.thread,
                s.acc.busy_ns,
                s.acc.calls,
                s.acc.first_ns,
                s.acc.last_ns
            )?;
        }
        out.flush()
    }
}

static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static THREAD: Cell<u32> = const { Cell::new(u32::MAX) };
}

/// A small dense id for the calling thread, stable for its lifetime.
pub fn thread_index() -> u32 {
    THREAD.with(|t| {
        if t.get() == u32::MAX {
            t.set(NEXT_THREAD.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

/// An order-independent digest of one process's final rumor set, for the
/// traced-equals-untraced checks.
pub fn rumor_digest(pid: ProcessId, set: &RumorSet) -> u64 {
    set.iter().fold(splitmix64(pid.index() as u64), |h, r| {
        splitmix64(h ^ splitmix64(r.origin.index() as u64 ^ r.payload.rotate_left(17)))
    })
}

/// A sample of the messages engines emitted, replayed through the codec
/// after the traced run.
#[derive(Debug)]
pub struct Capture<M> {
    msgs: Mutex<Vec<M>>,
    limit: usize,
    stride: u64,
    steps: AtomicU64,
}

impl<M: Clone> Capture<M> {
    /// Keeps the first message of every `stride`-th sending local step, up
    /// to `limit` messages.
    pub fn new(limit: usize, stride: u64) -> Arc<Capture<M>> {
        Arc::new(Capture {
            msgs: Mutex::new(Vec::new()),
            limit,
            stride: stride.max(1),
            steps: AtomicU64::new(0),
        })
    }

    fn offer(&self, msg: &M) {
        if self
            .steps
            .fetch_add(1, Ordering::Relaxed)
            .is_multiple_of(self.stride)
        {
            let mut msgs = lock(&self.msgs);
            if msgs.len() < self.limit {
                msgs.push(msg.clone());
            }
        }
    }

    /// The captured messages.
    pub fn take(&self) -> Vec<M> {
        std::mem::take(&mut *lock(&self.msgs))
    }
}

/// Per-epoch wall-clock lifecycle of a service run: when an epoch's first
/// engine was built and when its last engine was dropped (its harvest).
#[derive(Debug)]
pub struct EpochClocks {
    origin: Instant,
    first_built: Vec<AtomicU64>,
    last_dropped: Vec<AtomicU64>,
    digest: Option<AtomicU64>,
}

impl EpochClocks {
    /// Clocks for `epochs` epochs; with `digest`, the final rumor set of
    /// every dropped engine is folded into [`EpochClocks::digest`].
    pub fn new(origin: Instant, epochs: usize, digest: bool) -> Arc<EpochClocks> {
        Arc::new(EpochClocks {
            origin,
            first_built: (0..epochs).map(|_| AtomicU64::new(u64::MAX)).collect(),
            last_dropped: (0..epochs).map(|_| AtomicU64::new(0)).collect(),
            digest: digest.then(|| AtomicU64::new(0)),
        })
    }

    /// The first engine construction of the whole run, if any.
    pub fn first_build_ns(&self) -> Option<u64> {
        self.first_built
            .iter()
            .map(|t| t.load(Ordering::Relaxed))
            .min()
            .filter(|&t| t != u64::MAX)
    }

    /// Wall seconds from each epoch's first engine built to its last engine
    /// dropped, indexed by epoch; `None` for an epoch missing either stamp.
    pub fn latencies_s(&self) -> Vec<Option<f64>> {
        self.first_built
            .iter()
            .zip(&self.last_dropped)
            .map(|(b, d)| {
                let (b, d) = (b.load(Ordering::Relaxed), d.load(Ordering::Relaxed));
                (b != u64::MAX && d >= b).then(|| (d - b) as f64 * 1e-9)
            })
            .collect()
    }

    /// The folded final-set digest (0 when disabled).
    pub fn digest(&self) -> u64 {
        self.digest
            .as_ref()
            .map_or(0, |d| d.load(Ordering::Relaxed))
    }

    fn built(&self, epoch: usize) {
        if let Some(t) = self.first_built.get(epoch) {
            t.fetch_min(since(self.origin, Instant::now()), Ordering::Relaxed);
        }
    }

    fn dropped(&self, epoch: usize, pid: ProcessId, set: &RumorSet) {
        if let Some(t) = self.last_dropped.get(epoch) {
            t.fetch_max(since(self.origin, Instant::now()), Ordering::Relaxed);
        }
        if let Some(d) = &self.digest {
            d.fetch_add(
                splitmix64(epoch as u64 ^ rumor_digest(pid, set)),
                Ordering::Relaxed,
            );
        }
    }
}

struct EngineProbe<M> {
    trace: Arc<Trace>,
    instance: u64,
    thread: u32,
    deliver: Acc,
    step: Acc,
    deliveries: u64,
    useful: u64,
    capture: Option<Arc<Capture<M>>>,
}

/// A [`GossipEngine`] wrapper. Traced, it times every delivery and local
/// step; with an epoch attached, it stamps the epoch's lifecycle clocks
/// when it is built and dropped. It forwards every trait method —
/// `deliver_encoded` and `msg_units` included — so the wrapped engine runs
/// exactly the code it runs unwrapped.
pub struct Probed<G: GossipEngine> {
    inner: G,
    probe: Option<Box<EngineProbe<G::Msg>>>,
    epoch: Option<(Arc<EpochClocks>, usize)>,
}

impl<G: GossipEngine> Probed<G> {
    /// An engine that only carries an epoch's lifecycle clocks.
    pub fn untraced(inner: G) -> Self {
        Probed {
            inner,
            probe: None,
            epoch: None,
        }
    }

    /// A traced engine belonging to `instance`; with `capture`, it samples
    /// its outgoing messages for the codec replay.
    pub fn traced(
        inner: G,
        trace: &Arc<Trace>,
        instance: u64,
        capture: Option<Arc<Capture<G::Msg>>>,
    ) -> Self {
        trace.built.fetch_add(1, Ordering::Relaxed);
        Probed {
            inner,
            probe: Some(Box::new(EngineProbe {
                trace: Arc::clone(trace),
                instance,
                thread: u32::MAX,
                deliver: Acc::EMPTY,
                step: Acc::EMPTY,
                deliveries: 0,
                useful: 0,
                capture,
            })),
            epoch: None,
        }
    }

    /// Attaches the lifecycle clocks of service epoch `epoch`.
    pub fn in_epoch(mut self, clocks: &Arc<EpochClocks>, epoch: usize) -> Self {
        clocks.built(epoch);
        self.epoch = Some((Arc::clone(clocks), epoch));
        self
    }

    /// Times one delivery call carrying `frames` messages.
    fn delivering<R>(&mut self, frames: usize, f: impl FnOnce(&mut G) -> R) -> R {
        let Some(probe) = self.probe.as_deref_mut() else {
            return f(&mut self.inner);
        };
        probe.thread = thread_index();
        let before = self.inner.rumors().len();
        let inner = &mut self.inner;
        let result = probe.deliver.time(probe.trace.origin, || f(inner));
        probe.deliveries += frames as u64;
        if self.inner.rumors().len() > before {
            probe.useful += 1;
        }
        result
    }
}

impl<G: GossipEngine> GossipEngine for Probed<G> {
    type Msg = G::Msg;

    fn deliver(&mut self, from: ProcessId, msg: Self::Msg) {
        self.delivering(1, |g| g.deliver(from, msg));
    }

    fn deliver_encoded<F: EncodedFrame>(&mut self, frames: &[F]) -> usize
    where
        Self::Msg: WireCodec,
    {
        self.delivering(frames.len(), |g| g.deliver_encoded(frames))
    }

    fn local_step(&mut self, out: &mut Vec<(ProcessId, Self::Msg)>) {
        let Some(probe) = self.probe.as_deref_mut() else {
            return self.inner.local_step(out);
        };
        probe.thread = thread_index();
        let before = out.len();
        let inner = &mut self.inner;
        probe
            .step
            .time(probe.trace.origin, || inner.local_step(out));
        if let (Some(capture), Some((_, msg))) = (&probe.capture, out.get(before)) {
            capture.offer(msg);
        }
    }

    fn pid(&self) -> ProcessId {
        self.inner.pid()
    }

    fn rumors(&self) -> &RumorSet {
        self.inner.rumors()
    }

    fn is_quiescent(&self) -> bool {
        self.inner.is_quiescent()
    }

    fn steps_taken(&self) -> u64 {
        self.inner.steps_taken()
    }

    fn msg_units(msg: &Self::Msg) -> u64 {
        G::msg_units(msg)
    }
}

impl<G: GossipEngine> Drop for Probed<G> {
    fn drop(&mut self) {
        if let Some((clocks, epoch)) = &self.epoch {
            clocks.dropped(*epoch, self.inner.pid(), self.inner.rumors());
        }
        let Some(probe) = self.probe.take() else {
            return;
        };
        let trace = &probe.trace;
        trace.push(
            probe.instance,
            Layer::EngineDeliver,
            probe.thread,
            probe.deliver,
        );
        trace.push(probe.instance, Layer::EngineStep, probe.thread, probe.step);
        let set = self.inner.rumors();
        let mut totals = lock(&trace.engines);
        totals.deliveries += probe.deliveries;
        totals.batches += probe.deliver.calls;
        totals.useful += probe.useful;
        totals.dropped += 1;
        totals.final_dense += u64::from(set.is_dense());
        totals.final_lens.push(set.len() as f64);
    }
}

/// A [`Transport`] whose endpoints are [`TracedEndpoint`]s; `open` itself
/// is timed as the [`Layer::TransportOpen`] span of `instance`.
#[derive(Debug)]
pub struct TracedTransport<T> {
    inner: T,
    trace: Arc<Trace>,
    instance: u64,
}

impl<T> TracedTransport<T> {
    /// Wraps `inner` for one instance.
    pub fn new(inner: T, trace: &Arc<Trace>, instance: u64) -> Self {
        TracedTransport {
            inner,
            trace: Arc::clone(trace),
            instance,
        }
    }
}

impl<T: Transport> Transport for TracedTransport<T> {
    type Endpoint = TracedEndpoint<T::Endpoint>;

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn open(&self, n: usize) -> Result<Vec<Self::Endpoint>, RuntimeError> {
        let mut acc = Acc::EMPTY;
        let endpoints = acc.time(self.trace.origin, || self.inner.open(n))?;
        self.trace
            .push(self.instance, Layer::TransportOpen, thread_index(), acc);
        Ok(endpoints
            .into_iter()
            .map(|inner| TracedEndpoint {
                inner,
                trace: Arc::clone(&self.trace),
                instance: self.instance,
                thread: u32::MAX,
                send: Acc::EMPTY,
                poll: Acc::EMPTY,
                flush: Acc::EMPTY,
                totals: TransportTotals::default(),
            })
            .collect())
    }
}

/// An [`Endpoint`] wrapper timing every call and counting frames, bytes,
/// poll hits and losses. It forwards `send_shared` to the wrapped endpoint,
/// so shared-body fast paths stay in use.
pub struct TracedEndpoint<E> {
    inner: E,
    trace: Arc<Trace>,
    instance: u64,
    thread: u32,
    send: Acc,
    poll: Acc,
    flush: Acc,
    totals: TransportTotals,
}

impl<E> TracedEndpoint<E> {
    fn sent(&mut self, bytes: usize, outcome: &Result<SendOutcome, RuntimeError>) {
        self.totals.frames += 1;
        self.totals.bytes += bytes as u64;
        if matches!(outcome, Ok(SendOutcome::Lost)) {
            self.totals.lost += 1;
        }
    }
}

impl<E: Endpoint> Endpoint for TracedEndpoint<E> {
    fn pid(&self) -> ProcessId {
        self.inner.pid()
    }

    fn send(&mut self, to: ProcessId, payload: &[u8]) -> Result<SendOutcome, RuntimeError> {
        self.thread = thread_index();
        let inner = &mut self.inner;
        let outcome = self
            .send
            .time(self.trace.origin, || inner.send(to, payload));
        self.sent(payload.len(), &outcome);
        outcome
    }

    fn send_shared(
        &mut self,
        to: ProcessId,
        head: &[u8],
        body: &Arc<[u8]>,
    ) -> Result<SendOutcome, RuntimeError> {
        self.thread = thread_index();
        let inner = &mut self.inner;
        let outcome = self
            .send
            .time(self.trace.origin, || inner.send_shared(to, head, body));
        self.sent(head.len() + body.len(), &outcome);
        outcome
    }

    fn poll_into(&mut self, out: &mut Vec<RawFrame>) -> Result<(), RuntimeError> {
        self.thread = thread_index();
        let before = out.len();
        let inner = &mut self.inner;
        let result = self.poll.time(self.trace.origin, || inner.poll_into(out));
        if out.len() > before {
            self.totals.poll_hits += 1;
        }
        result
    }

    fn flush(&mut self) -> Result<u64, RuntimeError> {
        self.thread = thread_index();
        let inner = &mut self.inner;
        let result = self.flush.time(self.trace.origin, || inner.flush());
        if let Ok(lost) = result {
            self.totals.lost += lost;
        }
        result
    }
}

impl<E> Drop for TracedEndpoint<E> {
    fn drop(&mut self) {
        let trace = &self.trace;
        trace.push(self.instance, Layer::TransportSend, self.thread, self.send);
        trace.push(self.instance, Layer::TransportPoll, self.thread, self.poll);
        trace.push(
            self.instance,
            Layer::TransportFlush,
            self.thread,
            self.flush,
        );
        let mut totals = lock(&trace.transport);
        totals.frames += self.totals.frames;
        totals.bytes += self.totals.bytes;
        totals.poll_hits += self.totals.poll_hits;
        totals.lost += self.totals.lost;
    }
}

/// An [`Adversary`] wrapper timing both decisions and tracking the peak
/// number of messages in flight it was shown.
#[derive(Debug)]
pub struct TracedAdversary<A> {
    inner: A,
    origin: Instant,
    /// `plan_step` calls.
    pub plan: Acc,
    /// `message_delay` calls.
    pub delay: Acc,
    /// Largest `SystemView::in_flight` seen.
    pub in_flight_peak: usize,
}

impl<A> TracedAdversary<A> {
    /// Wraps `inner`, timing against `trace`'s clock.
    pub fn new(inner: A, trace: &Trace) -> Self {
        TracedAdversary {
            inner,
            origin: trace.origin,
            plan: Acc::EMPTY,
            delay: Acc::EMPTY,
            in_flight_peak: 0,
        }
    }
}

impl<A: Adversary> Adversary for TracedAdversary<A> {
    fn plan_step(&mut self, view: &SystemView<'_>) -> StepPlan {
        self.in_flight_peak = self.in_flight_peak.max(view.in_flight);
        let inner = &mut self.inner;
        self.plan.time(self.origin, || inner.plan_step(view))
    }

    fn message_delay(&mut self, meta: &EnvelopeMeta, view: &SystemView<'_>) -> u64 {
        self.in_flight_peak = self.in_flight_peak.max(view.in_flight);
        let inner = &mut self.inner;
        self.delay
            .time(self.origin, || inner.message_delay(meta, view))
    }
}
