//! The event loop: every live process is a slot on a reactor thread.
//!
//! A reactor thread owns the endpoints of the processes pinned to it and
//! drives them with level-triggered readiness polling. Each iteration it
//! makes non-blocking write progress (batched flushes against each
//! connection's backpressure queue), drains whatever bytes have arrived
//! (socket endpoints reassemble frames incrementally through
//! [`crate::transport::FrameBuf`]), files each frame into the addressed
//! process's deadline-indexed pending heap, and steps the engines whose
//! turn has come. With `reactors = r`, process `p` is pinned to reactor
//! `p mod r` — a static assignment, so an endpoint never migrates across
//! threads and no per-process state needs a lock. `reactors = n` is one
//! thread per process.
//!
//! A *local step* is the paper's: deliver what is due, compute, send. It is
//! written once, as methods on `Slot` shared by both pacings (see
//! [`crate::driver::Pacing`]):
//!
//! * `Slot::flush_poll` — push queued bytes, drain the transport, and
//!   book every frame taken off it as consumed;
//! * `Slot::deliver_due` — fold the due batch into the engine through
//!   [`GossipEngine::deliver_encoded`] (one view-decode walk per body; an
//!   undecodable body is counted and dropped, never a panic);
//! * `Slot::step` — the engine's local step, each distinct outgoing
//!   message encoded once into a shared body, `Lost` sends booked.
//!
//! The pacings keep only what genuinely differs:
//!
//! * **Lockstep** — barrier-paced ticks. Each send is stamped with its
//!   delivery tick `tick + delay` (`delay` drawn in `1..=d`) and a
//!   per-sender seq; the receiver orders its pending heap by
//!   `(deliver_tick, from, seq)`, a strict total order independent of which
//!   thread polls an endpoint or in which order slots are swept. Each tick
//!   starts with a *settle* handshake: reactors drain their transports in
//!   poll-only rounds until the driver sees every sent frame consumed
//!   (`messages_sent == frames_consumed`), so a kernel transport that holds
//!   a frame past one poll cannot change the execution. With the RNG
//!   streams derived per process id, a run is **bit-identical per seed for
//!   any reactor count**. A crashed process becomes a zombie: it keeps
//!   draining its transport (preserving the settle invariant) but delivers
//!   and sends nothing.
//! * **Free-running** — deliveries wait out random wall-clock delays and
//!   steps are spaced by random pauses, both read off the run's
//!   [`crate::Clock`]; the interleaving is whatever the scheduler does. A
//!   crash *deregisters* the slot: its endpoint is dropped (peers' sends
//!   turn into message loss) while the reactor and its other slots run on.
//!
//! There is no epoll here on purpose: the workspace forbids `unsafe` and
//! vendors no FFI crates, so readiness is discovered by polling nonblocking
//! sockets. On loopback that is the same O(endpoints) sweep an epoll wakeup
//! storm degrades to.

use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::Duration;

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use agossip_core::codec::{read_varint, write_varint};
use agossip_core::{CodecError, EncodedFrame, GossipEngine, RumorSet, WireCodec, WireDecodeView};
use agossip_sim::rng::{derive_seed, RngStream};
use agossip_sim::ProcessId;

use crate::clock::{duration_to_micros, duration_to_millis, Clock};
use crate::driver::{LiveConfig, Pacing};
use crate::error::RuntimeError;
use crate::transport::{Endpoint, FrameBody, RawFrame, SendOutcome};

/// Upper bound on poll-only settle rounds per lockstep tick. On a healthy
/// transport a frame becomes readable within a round or two; this many
/// rounds without settling means frames were truly lost (which lockstep
/// transports never do by construction), and the run aborts with
/// [`RuntimeError::SettleTimeout`] instead of spinning forever.
const MAX_SETTLE_ROUNDS: u64 = 100_000;

/// How long an idle free-running reactor sleeps before its next sweep: long
/// enough not to burn a core, short next to the millisecond-scale pacing
/// bounds the configs use.
const IDLE_SWEEP_PAUSE: Duration = Duration::from_micros(100);

/// Counters shared by every reactor thread of one run.
#[derive(Debug, Default)]
pub struct RunStats {
    /// Point-to-point messages handed to the transport.
    pub messages_sent: AtomicU64,
    /// Messages decoded and delivered to an engine.
    pub messages_delivered: AtomicU64,
    /// Raw frames taken off the transport (delivered, dropped by a crashed
    /// process, or undecodable). Lockstep's settle handshake compares this
    /// against `messages_sent` to know the network is drained.
    pub frames_consumed: AtomicU64,
    /// Encoded message-*body* bytes handed to the transport (the lockstep
    /// tick/seq stamp and the stream framing overhead are not included, so
    /// the figure measures the wire codec itself and is comparable across
    /// pacings and transports).
    pub bytes_sent: AtomicU64,
    /// Frames dropped because their payload failed to decode.
    pub decode_errors: AtomicU64,
}

/// Everything the reactor threads of one run share with the driver.
pub(crate) struct SharedRun {
    pub stats: RunStats,
    pub stop: AtomicBool,
    /// Lockstep only: the driver's verdict of the current settle round
    /// (true once every sent frame has been consumed).
    pub settled: AtomicBool,
    /// Per-process "nothing pending, engine quiescent" flags.
    pub quiet: Vec<AtomicBool>,
    /// Clock of the last send/delivery, for free-running quiescence
    /// detection (milliseconds since the run's [`Clock`] epoch).
    pub last_activity_ms: AtomicU64,
    /// The run's time source. Only the free-running paths read it;
    /// lockstep time is the tick counter.
    pub clock: Arc<dyn Clock>,
    /// First error any thread hit; the driver surfaces it after join.
    pub first_error: Mutex<Option<RuntimeError>>,
}

impl SharedRun {
    pub(crate) fn new(n: usize, clock: Arc<dyn Clock>) -> Self {
        SharedRun {
            stats: RunStats::default(),
            stop: AtomicBool::new(false),
            settled: AtomicBool::new(false),
            quiet: (0..n).map(|_| AtomicBool::new(false)).collect(),
            last_activity_ms: AtomicU64::new(0),
            clock,
            first_error: Mutex::new(None),
        }
    }

    /// Time since the run started, per the run's clock.
    pub(crate) fn elapsed(&self) -> Duration {
        self.clock.now()
    }

    fn touch(&self) {
        let now = duration_to_millis(self.clock.now());
        self.last_activity_ms.store(now, Ordering::Relaxed);
    }

    pub(crate) fn since_last_activity(&self) -> Duration {
        let last = self.last_activity_ms.load(Ordering::Relaxed);
        let now = duration_to_millis(self.clock.now());
        Duration::from_millis(now.saturating_sub(last))
    }

    pub(crate) fn all_quiet(&self) -> bool {
        self.quiet.iter().all(|flag| flag.load(Ordering::Relaxed))
    }

    /// Records the first error seen; later errors are dropped.
    pub(crate) fn record_error(&self, error: RuntimeError) {
        let mut slot = self.first_error.lock();
        if slot.is_none() {
            *slot = Some(error);
        }
    }

    pub(crate) fn has_error(&self) -> bool {
        self.first_error.lock().is_some()
    }
}

/// What one process hands back when its reactor finishes.
pub(crate) struct NodeOutcome {
    pub rumors: RumorSet,
    pub steps: u64,
}

/// A still-encoded message waiting out its delivery time. Min-heap order on
/// `(due, from, seq)`: under lockstep `due` is the delivery tick and `seq`
/// the sender's stamp — a strict total order, since `(from, seq)` is
/// unique, which is what makes lockstep delivery deterministic; free-running
/// `due` is a microsecond deadline on the run clock and `seq` the arrival
/// count. The body stays encoded (and, for broadcast frames, shared) until
/// its batch is folded into the engine.
pub(crate) struct Pending {
    due: u64,
    from: ProcessId,
    seq: u64,
    body: FrameBody,
    /// Offset of the message bytes within `body` (stream-framed lockstep
    /// payloads carry the tick/seq stamp inline).
    msg_at: usize,
}

impl EncodedFrame for Pending {
    fn sender(&self) -> ProcessId {
        self.from
    }

    fn body(&self) -> &[u8] {
        self.body.as_slice().get(self.msg_at..).unwrap_or(&[])
    }
}

impl PartialEq for Pending {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl Eq for Pending {}

impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Pending {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest first.
        (other.due, other.from.index(), other.seq).cmp(&(self.due, self.from.index(), self.seq))
    }
}

/// Splits a received lockstep frame into `(deliver_tick, seq, offset of the
/// message within the frame body)`. Only the stamp varints are parsed here;
/// the message bytes stay untouched until the frame's tick comes up, where
/// [`GossipEngine::deliver_encoded`] walks them exactly once.
pub(crate) fn parse_lockstep_frame(frame: &RawFrame) -> Result<(u64, u64, usize), CodecError> {
    let head = frame.head();
    let body = frame.body();
    if head.is_empty() {
        // Stream-framed payload: the tick/seq stamp is inline in the body.
        let (deliver_tick, a) = read_varint(body)?;
        let (seq, b) = read_varint(&body[a..])?;
        Ok((deliver_tick, seq, a + b))
    } else {
        // Shared-body fast path: the head carries exactly the two varints.
        let (deliver_tick, a) = read_varint(head)?;
        let (seq, b) = read_varint(&head[a..])?;
        if a + b != head.len() {
            return Err(CodecError::TrailingBytes(head.len() - a - b));
        }
        Ok((deliver_tick, seq, 0))
    }
}

/// One process on a reactor: its engine and endpoint, its crash point and
/// RNG stream, its pending heap, and the encode-once cache of its last
/// outgoing message.
struct Slot<G: GossipEngine, E> {
    pid: ProcessId,
    engine: G,
    /// `None` once a free-running crash has deregistered the slot.
    endpoint: Option<E>,
    /// Crash after this many local steps (`None` = correct process).
    crash_after: Option<u64>,
    crashed: bool,
    rng: StdRng,
    pending: BinaryHeap<Pending>,
    body: Vec<u8>,
    shared_body: Arc<[u8]>,
    last_encoded: Option<G::Msg>,
    steps: u64,
    /// Lockstep: the stamp of the next send. Free-running: the arrival
    /// count that breaks deadline ties.
    seq: u64,
    /// Free-running: the run-clock microsecond of the next local step.
    next_step_at: u64,
}

impl<G, E> Slot<G, E>
where
    G: GossipEngine,
    G::Msg: WireCodec + WireDecodeView + PartialEq,
    E: Endpoint,
{
    fn new(pid: ProcessId, engine: G, endpoint: E, crash_after: Option<u64>, seed: u64) -> Self {
        Slot {
            pid,
            engine,
            endpoint: Some(endpoint),
            crash_after,
            crashed: false,
            rng: StdRng::seed_from_u64(derive_seed(seed, RngStream::Process(pid))),
            pending: BinaryHeap::new(),
            body: Vec::new(),
            shared_body: Arc::new([]),
            last_encoded: None,
            steps: 0,
            seq: 0,
            next_step_at: 0,
        }
    }

    fn crash_due(&self) -> bool {
        self.crash_after.is_some_and(|limit| self.steps >= limit)
    }

    /// Halts the process for good. Under lockstep the endpoint stays (a
    /// zombie that keeps draining preserves the settle invariant); a
    /// free-running crash drops it, so peers see message loss.
    fn halt(&mut self, drop_endpoint: bool) {
        self.crashed = true;
        self.pending.clear();
        if drop_endpoint {
            self.endpoint = None;
        }
    }

    /// Pushes queued outbound bytes and drains the endpoint into `frames`.
    /// Every frame taken off the transport — and every frame a flush found
    /// lost to a dead peer, like a `Lost` send — is booked as consumed.
    /// False, with the error recorded, if the transport failed.
    fn flush_poll(&mut self, frames: &mut Vec<RawFrame>, shared: &SharedRun) -> bool {
        frames.clear();
        let Some(endpoint) = self.endpoint.as_mut() else {
            return false;
        };
        let consumed = &shared.stats.frames_consumed;
        let polled = endpoint.flush().and_then(|lost| {
            consumed.fetch_add(lost, Ordering::Relaxed);
            endpoint.poll_into(frames)
        });
        consumed.fetch_add(frames.len() as u64, Ordering::Relaxed);
        polled.map_err(|e| shared.record_error(e)).is_ok()
    }

    /// Folds every pending message due by `now` (a tick, or a run-clock
    /// microsecond) into the engine as one batch. A body that fails to
    /// decode counts as a decode error and delivers nothing. True if
    /// anything was delivered.
    fn deliver_due(&mut self, now: u64, due: &mut Vec<Pending>, shared: &SharedRun) -> bool {
        due.clear();
        while self.pending.peek().is_some_and(|p| p.due <= now) {
            let Some(p) = self.pending.pop() else { break };
            due.push(p);
        }
        if due.is_empty() {
            return false;
        }
        let errors = self.engine.deliver_encoded(due.as_slice()) as u64;
        let delivered = due.len() as u64 - errors;
        let stats = &shared.stats;
        stats.decode_errors.fetch_add(errors, Ordering::Relaxed);
        stats
            .messages_delivered
            .fetch_add(delivered, Ordering::Relaxed);
        due.clear();
        delivered > 0
    }

    /// One local step, then the sends. A broadcast pushes clones of one
    /// message to many targets: the body is encoded once per distinct
    /// message into one shared buffer, and only the head is per send —
    /// under lockstep (`stamp = Some((tick, d))`) the `(tick + delay, seq)`
    /// stamp, free-running nothing. A send the transport reports `Lost`
    /// will never be polled, so it is booked as consumed. True if anything
    /// was sent.
    fn step(
        &mut self,
        stamp: Option<(u64, u64)>,
        out: &mut Vec<(ProcessId, G::Msg)>,
        head: &mut Vec<u8>,
        shared: &SharedRun,
    ) -> bool {
        let Some(endpoint) = self.endpoint.as_mut() else {
            return false;
        };
        out.clear();
        self.engine.local_step(out);
        self.steps += 1;
        let sent = !out.is_empty();
        let stats = &shared.stats;
        for (to, msg) in out.drain(..) {
            if self.last_encoded.as_ref() != Some(&msg) {
                self.body.clear();
                msg.encode_into(&mut self.body);
                self.shared_body = Arc::from(self.body.as_slice());
                self.last_encoded = Some(msg);
            }
            head.clear();
            match stamp {
                Some((tick, d)) => {
                    // `d ≥ 1` is guaranteed by `LiveConfig::validate`.
                    write_varint(head, tick + self.rng.gen_range(1..=d));
                    write_varint(head, self.seq);
                    self.seq += 1;
                }
                None => shared.touch(),
            }
            stats.messages_sent.fetch_add(1, Ordering::Relaxed);
            let bytes = self.body.len() as u64;
            stats.bytes_sent.fetch_add(bytes, Ordering::Relaxed);
            match endpoint.send_shared(to, head, &self.shared_body) {
                Ok(SendOutcome::Sent) => {}
                Ok(SendOutcome::Lost) => {
                    stats.frames_consumed.fetch_add(1, Ordering::Relaxed);
                }
                Err(e) => {
                    shared.record_error(e);
                    self.crashed = true;
                    break;
                }
            }
        }
        sent
    }

    /// Publishes whether this process is quiet: crashed, or it neither
    /// delivered nor sent this step, holds no pending frames, and its
    /// engine will not send unprompted. The delivered/sent part matters:
    /// with `d = 1` an engine can absorb a delivery without reacting (a
    /// duplicate rumor), and two such ticks must not read all-quiet while a
    /// reply is still in flight.
    fn publish_quiet(&self, active: bool, shared: &SharedRun) {
        let quiet =
            self.crashed || (!active && self.pending.is_empty() && self.engine.is_quiescent());
        shared.quiet[self.pid.index()].store(quiet, Ordering::Relaxed);
    }
}

/// One reactor thread: builds the slots of its processes (pid-ordered) and
/// runs them under the configured pacing until the driver stops the run.
fn run_reactor<G, E>(
    group: Vec<(ProcessId, G, E)>,
    config: &LiveConfig,
    shared: &SharedRun,
    barrier: &Barrier,
) -> Vec<(ProcessId, NodeOutcome)>
where
    G: GossipEngine,
    G::Msg: WireCodec + WireDecodeView + PartialEq,
    E: Endpoint,
{
    let salt = match config.pacing {
        Pacing::Lockstep { .. } => 0x11FE,
        Pacing::FreeRunning { .. } => 0xA51C,
    };
    let mut slots: Vec<Slot<G, E>> = group
        .into_iter()
        .map(|(pid, engine, endpoint)| {
            let crash_after = config.crash_after(pid);
            Slot::new(pid, engine, endpoint, crash_after, config.seed ^ salt)
        })
        .collect();
    match config.pacing {
        Pacing::Lockstep { d, .. } => run_lockstep(&mut slots, d, shared, barrier),
        Pacing::FreeRunning {
            max_delay,
            max_step_pause,
            ..
        } => run_free(&mut slots, max_delay, max_step_pause, shared),
    }
    slots
        .into_iter()
        .map(|slot| {
            let rumors = slot.engine.rumors().clone();
            (
                slot.pid,
                NodeOutcome {
                    rumors,
                    steps: slot.steps,
                },
            )
        })
        .collect()
}

/// The lockstep pacing: settle rounds, then one step of every slot in pid
/// order, then the quiet check — each phase closed by a barrier pair the
/// driver arbitrates (see [`drive_lockstep`]).
fn run_lockstep<G, E>(slots: &mut [Slot<G, E>], d: u64, shared: &SharedRun, barrier: &Barrier)
where
    G: GossipEngine,
    G::Msg: WireCodec + WireDecodeView + PartialEq,
    E: Endpoint,
{
    let mut frames = Vec::new();
    let mut due = Vec::new();
    let mut out = Vec::new();
    let mut head = Vec::new();
    let mut tick = 0u64;
    loop {
        loop {
            for slot in slots.iter_mut() {
                slot.crashed |= !slot.flush_poll(&mut frames, shared);
                if slot.crashed {
                    continue; // a zombie consumes and discards
                }
                for frame in frames.drain(..) {
                    match parse_lockstep_frame(&frame) {
                        Ok((due_tick, seq, msg_at)) => slot.pending.push(Pending {
                            due: due_tick,
                            from: frame.from,
                            seq,
                            body: frame.into_body(),
                            msg_at,
                        }),
                        Err(_) => {
                            shared.stats.decode_errors.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            }
            barrier.wait(); // driver compares sent vs consumed
            barrier.wait(); // driver has published settled/stop
            if shared.stop.load(Ordering::Relaxed) {
                return;
            }
            if shared.settled.load(Ordering::Relaxed) {
                break;
            }
        }

        for slot in slots.iter_mut() {
            let mut active = false;
            if !slot.crashed {
                active = slot.deliver_due(tick, &mut due, shared);
                if slot.crash_due() {
                    slot.halt(false);
                } else {
                    active |= slot.step(Some((tick, d)), &mut out, &mut head, shared);
                }
            }
            slot.publish_quiet(active, shared);
        }

        barrier.wait(); // driver inspects the quiet flags
        barrier.wait();
        if shared.stop.load(Ordering::Relaxed) {
            return;
        }
        tick += 1;
    }
}

/// The free-running pacing: sweep every live slot — drain into the
/// deadline heap with a random injected delay, deliver what has expired,
/// step if the slot's random pause has elapsed — and nap when a whole sweep
/// found nothing to do.
fn run_free<G, E>(
    slots: &mut [Slot<G, E>],
    max_delay: Duration,
    max_step_pause: Duration,
    shared: &SharedRun,
) where
    G: GossipEngine,
    G::Msg: WireCodec + WireDecodeView + PartialEq,
    E: Endpoint,
{
    let max_delay_us = duration_to_micros(max_delay).max(1);
    let max_pause_us = duration_to_micros(max_step_pause).max(1);
    let mut frames = Vec::new();
    let mut due = Vec::new();
    let mut out = Vec::new();
    let mut head = Vec::new();
    while !shared.stop.load(Ordering::Relaxed) {
        let mut any_active = false;
        for slot in slots.iter_mut() {
            if slot.crashed {
                continue; // deregistered: inert, the reactor unharmed
            }
            if slot.crash_due() || !slot.flush_poll(&mut frames, shared) {
                slot.halt(true);
                slot.publish_quiet(false, shared);
                continue;
            }
            let now = duration_to_micros(shared.clock.now());
            for frame in frames.drain(..) {
                let from = frame.from;
                // The free-running send path never writes a head; flatten
                // one rather than trust it.
                let body = if frame.head().is_empty() {
                    frame.into_body()
                } else {
                    FrameBody::Owned(frame.payload_to_vec())
                };
                let delay = slot.rng.gen_range(0..=max_delay_us);
                slot.pending.push(Pending {
                    due: now.saturating_add(delay),
                    from,
                    seq: slot.seq,
                    body,
                    msg_at: 0,
                });
                slot.seq += 1;
            }

            let now = duration_to_micros(shared.clock.now());
            let mut active = slot.deliver_due(now, &mut due, shared);
            if active {
                shared.touch();
            }
            if now >= slot.next_step_at {
                let pause = slot.rng.gen_range(0..=max_pause_us);
                slot.next_step_at = now.saturating_add(pause);
                active |= slot.step(None, &mut out, &mut head, shared);
                if slot.crashed {
                    slot.halt(true); // a send failed: deregister
                }
            }
            any_active |= active;
            slot.publish_quiet(active, shared);
        }
        if !any_active {
            thread::sleep(IDLE_SWEEP_PAUSE);
        }
    }
}

/// How a finished run ended.
pub(crate) struct Finished {
    /// Per-process outcomes in pid order (short if a reactor panicked — the
    /// recorded error is surfaced before they are read).
    pub outcomes: Vec<NodeOutcome>,
    /// Whether `finished` declared the run complete (vs a limit or error).
    pub quiescent: bool,
    /// Lockstep ticks executed (0 under free-running pacing).
    pub ticks: u64,
}

/// Runs `engines` over `endpoints` on `config.reactors` reactor threads
/// (clamped to `n`) under `config.pacing`, until `finished` declares the run
/// complete or a limit or error stops it.
///
/// `finished(now, shared)` is the driver's per-tick hook: under lockstep it
/// runs once per tick with every reactor parked, `now` being the tick just
/// computed; free-running it runs every few milliseconds, `now` being the
/// run clock in milliseconds. An `Err` is recorded and stops the run.
pub(crate) fn run_reactors<G, E>(
    config: &LiveConfig,
    engines: Vec<G>,
    endpoints: Vec<E>,
    shared: &SharedRun,
    finished: impl FnMut(u64, &SharedRun) -> Result<bool, RuntimeError>,
) -> Finished
where
    G: GossipEngine + Send,
    G::Msg: WireCodec + WireDecodeView + PartialEq,
    E: Endpoint,
{
    let r = config.reactors.clamp(1, config.n.max(1));
    let mut groups: Vec<Vec<(ProcessId, G, E)>> = (0..r).map(|_| Vec::new()).collect();
    for (i, (engine, endpoint)) in engines.into_iter().zip(endpoints).enumerate() {
        groups[i % r].push((ProcessId(i), engine, endpoint));
    }
    let barrier = Barrier::new(r + 1);
    thread::scope(|scope| {
        let handles: Vec<_> = groups
            .into_iter()
            .map(|group| {
                let barrier = &barrier;
                scope.spawn(move || run_reactor(group, config, shared, barrier))
            })
            .collect();
        let (quiescent, ticks) = match config.pacing {
            Pacing::Lockstep { max_ticks, .. } => {
                drive_lockstep(&barrier, shared, max_ticks, finished)
            }
            Pacing::FreeRunning { max_duration, .. } => {
                (drive_free(shared, max_duration, finished), 0)
            }
        };
        let outcomes = join_reactors(handles, config.n, shared);
        Finished {
            outcomes,
            quiescent,
            ticks,
        }
    })
}

/// The driver's side of the lockstep tick protocol, as the extra barrier
/// participant: it arbitrates the settle rounds, then runs `finished`
/// between the quiet-check barriers. Returns `(quiescent, ticks)`.
fn drive_lockstep(
    barrier: &Barrier,
    shared: &SharedRun,
    max_ticks: u64,
    mut finished: impl FnMut(u64, &SharedRun) -> Result<bool, RuntimeError>,
) -> (bool, u64) {
    let mut quiescent = false;
    let mut ticks = 0u64;
    loop {
        let mut rounds = 0u64;
        loop {
            barrier.wait(); // reactors have polled
            let sent = shared.stats.messages_sent.load(Ordering::Relaxed);
            let consumed = shared.stats.frames_consumed.load(Ordering::Relaxed);
            let settled = sent == consumed;
            shared.settled.store(settled, Ordering::Relaxed);
            rounds += 1;
            if rounds > MAX_SETTLE_ROUNDS {
                shared.record_error(RuntimeError::SettleTimeout {
                    sent,
                    consumed,
                    rounds,
                });
            }
            if shared.has_error() {
                shared.stop.store(true, Ordering::Relaxed);
            }
            let stopping = shared.stop.load(Ordering::Relaxed);
            barrier.wait(); // verdict published
            if stopping {
                return (quiescent, ticks);
            }
            if settled {
                break;
            }
            // Unsettled on a kernel transport: give the softirq path a
            // moment before the next poll round.
            thread::yield_now();
        }
        barrier.wait(); // reactors have stepped and are parked
        ticks += 1;
        match finished(ticks - 1, shared) {
            Ok(done) => quiescent = done,
            Err(error) => shared.record_error(error),
        }
        if quiescent || ticks >= max_ticks || shared.has_error() {
            shared.stop.store(true, Ordering::Relaxed);
        }
        let stopping = shared.stop.load(Ordering::Relaxed);
        barrier.wait();
        if stopping {
            return (quiescent, ticks);
        }
    }
}

/// The driver's side of a free-running run: poll `finished` on the run
/// clock until it declares the run complete, an error is recorded, or
/// `max_duration` passes, then raise the stop flag. Returns `quiescent`.
fn drive_free(
    shared: &SharedRun,
    max_duration: Duration,
    mut finished: impl FnMut(u64, &SharedRun) -> Result<bool, RuntimeError>,
) -> bool {
    let mut quiescent = false;
    loop {
        thread::sleep(Duration::from_millis(5));
        let elapsed = shared.elapsed();
        if elapsed >= max_duration || shared.has_error() {
            break;
        }
        match finished(duration_to_millis(elapsed), shared) {
            Ok(false) => {}
            Ok(true) => {
                quiescent = true;
                break;
            }
            Err(error) => {
                shared.record_error(error);
                break;
            }
        }
    }
    shared.stop.store(true, Ordering::Relaxed);
    quiescent
}

/// Joins the reactor threads and re-assembles their per-process outcomes
/// into pid order. A panicked reactor is recorded as
/// [`RuntimeError::NodePanicked`] instead of propagating.
fn join_reactors(
    handles: Vec<thread::ScopedJoinHandle<'_, Vec<(ProcessId, NodeOutcome)>>>,
    n: usize,
    shared: &SharedRun,
) -> Vec<NodeOutcome> {
    let mut by_pid: Vec<Option<NodeOutcome>> = (0..n).map(|_| None).collect();
    for handle in handles {
        match handle.join() {
            Ok(outcomes) => {
                for (pid, outcome) in outcomes {
                    by_pid[pid.index()] = Some(outcome);
                }
            }
            Err(_) => shared.record_error(RuntimeError::NodePanicked),
        }
    }
    by_pid.into_iter().flatten().collect()
}
