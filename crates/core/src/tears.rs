//! `tears` — Two-hop Epidemic Asynchronous Rumor Spreading
//! (paper Section 5, Figure 3).
//!
//! `tears` solves *majority gossip*: every correct process must receive at
//! least a majority of the rumors (not necessarily all of them). It requires
//! `f < n/2` and achieves `O(d+δ)` time with `O(n^{7/4}·log²n)` messages —
//! strictly subquadratic and, unlike `ears`/`sears`, independent of `d` and
//! `δ` — with high probability against an oblivious adversary (Theorem 12).
//!
//! The protocol uses the derived constants (Figure 3, lines 2–4)
//! `a = 4·√n·log n`, `µ = a/2`, `κ = 8·n^{1/4}·log n`, and two random
//! neighbourhoods `Π1(p)`, `Π2(p)` where every other process is included
//! independently with probability `a/n`:
//!
//! * **First hop.** In its first local step, `p` sends a *first-level*
//!   message — its own rumor with a raised flag — to every process in
//!   `Π1(p)`.
//! * **Second hop.** `p` counts the first-level messages it receives
//!   (`up_msg_cnt`). After receiving `µ−κ` of them, and again at every count
//!   `µ+j` for `−κ < j < κ`, and thereafter at every count `µ+i·κ` for
//!   positive integers `i`, it sends a *second-level* message containing all
//!   gathered rumors to every process in `Π2(p)`.
//!
//! Unlike `ears`, a process does not send in every step; whether it sends at
//! all is governed entirely by how many first-level messages have arrived.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use agossip_sim::ProcessId;

use crate::codec_view::WireDecodeView;
use crate::engine::{broadcast, EncodedFrame, GossipCtx, GossipEngine};
use crate::params::TearsParams;
use crate::rumor::RumorSet;

/// Whether a `tears` message is first-level (flag raised) or second-level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TearsFlag {
    /// First-level message, sent in the sender's first local step ("flag up").
    Up,
    /// Second-level message, triggered by the first-level message count
    /// ("flag down").
    Down,
}

/// Wire message of `tears`: the gathered rumors plus the level flag.
///
/// The rumor collection is a copy-on-write snapshot: a broadcast to the
/// `Θ(√n·log n)`-sized `Π1`/`Π2` neighbourhood clones one [`Arc`] pointer per
/// destination instead of one rumor map per destination. Receivers only ever
/// *union* a message into their own state, so the shared payload stays
/// immutable for its whole lifetime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TearsMessage {
    /// The sender's rumor collection `V` at send time (shared snapshot).
    pub rumors: Arc<RumorSet>,
    /// Message level.
    pub flag: TearsFlag,
}

/// The `tears` protocol state machine for one process.
#[derive(Debug, Clone)]
pub struct Tears {
    ctx: GossipCtx,
    params: TearsParams,
    rumors: Arc<RumorSet>,
    pi1: Vec<ProcessId>,
    pi2: Vec<ProcessId>,
    mu: u64,
    kappa: u64,
    up_msg_cnt: u64,
    first_level_sent: bool,
    pending_bcasts: u64,
    second_level_sends: u64,
    steps: u64,
}

impl Tears {
    /// Creates an instance with default parameters.
    pub fn new(ctx: GossipCtx) -> Self {
        Self::with_params(ctx, TearsParams::default())
    }

    /// Creates an instance with explicit parameters.
    pub fn with_params(ctx: GossipCtx, params: TearsParams) -> Self {
        let mut rng = StdRng::seed_from_u64(ctx.seed);
        let prob = params.membership_probability(ctx.n);
        // Figure 3, lines 6–7: every other process joins Π1 (resp. Π2)
        // independently with probability a/n. Both are reserved at the mean
        // size plus four standard deviations, so they almost never regrow.
        let peers = ctx.n.saturating_sub(1);
        let mean = prob * peers as f64;
        let expected = ((mean + 4.0 * mean.sqrt()).ceil() as usize).min(peers);
        let mut pi1 = Vec::with_capacity(expected);
        let mut pi2 = Vec::with_capacity(expected);
        for q in ProcessId::all(ctx.n) {
            if q == ctx.pid {
                continue;
            }
            if rng.gen_bool(prob) {
                pi1.push(q);
            }
            if rng.gen_bool(prob) {
                pi2.push(q);
            }
        }
        let mu = params.mu(ctx.n).round().max(1.0) as u64;
        let kappa = params.kappa(ctx.n).round().max(1.0) as u64;
        Tears {
            rumors: Arc::new(RumorSet::singleton(ctx.rumor)),
            pi1,
            pi2,
            mu,
            kappa,
            up_msg_cnt: 0,
            first_level_sent: false,
            pending_bcasts: 0,
            second_level_sends: 0,
            steps: 0,
            ctx,
            params,
        }
    }

    /// The first-hop neighbourhood `Π1(p)`.
    pub fn pi1(&self) -> &[ProcessId] {
        &self.pi1
    }

    /// The second-hop neighbourhood `Π2(p)`.
    pub fn pi2(&self) -> &[ProcessId] {
        &self.pi2
    }

    /// The trigger-window centre `µ`.
    pub fn mu(&self) -> u64 {
        self.mu
    }

    /// The trigger-window half width `κ`.
    pub fn kappa(&self) -> u64 {
        self.kappa
    }

    /// The number of first-level messages received so far.
    pub fn up_msg_count(&self) -> u64 {
        self.up_msg_cnt
    }

    /// Total number of second-level broadcast rounds performed so far.
    pub fn second_level_rounds(&self) -> u64 {
        self.second_level_sends
    }

    /// The parameters in effect.
    pub fn params(&self) -> TearsParams {
        self.params
    }

    /// Whether reaching first-level message count `count` triggers a
    /// second-level broadcast (Figure 3, lines 21–24): counts in the window
    /// `[µ−κ, µ+κ)` all trigger, and beyond the window every further multiple
    /// `µ + i·κ` (for positive integer `i`) triggers.
    pub fn is_trigger_count(&self, count: u64) -> bool {
        if count == 0 {
            return false;
        }
        let lower = self.mu.saturating_sub(self.kappa);
        if count >= lower && count < self.mu + self.kappa {
            return true;
        }
        if count > self.mu && (count - self.mu).is_multiple_of(self.kappa) {
            return true;
        }
        false
    }
}

impl GossipEngine for Tears {
    type Msg = TearsMessage;

    fn deliver(&mut self, _from: ProcessId, msg: TearsMessage) {
        // Figure 3, lines 16–19. The superset pre-check keeps the state
        // untouched (and unshared snapshots un-copied) when the message
        // brings nothing new; `make_mut` copies the set only when it is still
        // shared with in-flight snapshots.
        if !self.rumors.is_superset_of(&msg.rumors) {
            Arc::make_mut(&mut self.rumors).union(&msg.rumors);
        }
        if msg.flag == TearsFlag::Up {
            self.up_msg_cnt += 1;
            if self.is_trigger_count(self.up_msg_cnt) {
                self.pending_bcasts += 1;
            }
        }
    }

    fn deliver_encoded<F: EncodedFrame>(&mut self, frames: &[F]) -> usize {
        // Batched form of `deliver`: one borrowed-view decode walk per body,
        // counting the first-level messages (each increment still visits its
        // own trigger count) and folding the rumor sections in with at most
        // one copy-on-write of the state — the first fresh view pays the
        // `Arc` copy, every later `make_mut` sees a unique handle.
        let mut errors = 0usize;
        let mut unioning = false;
        for frame in frames {
            match TearsMessage::decode_view(frame.body()) {
                Ok(view) => {
                    if view.flag == TearsFlag::Up {
                        self.up_msg_cnt += 1;
                        if self.is_trigger_count(self.up_msg_cnt) {
                            self.pending_bcasts += 1;
                        }
                    }
                    if unioning || !self.rumors.is_superset_of_view(&view.rumors) {
                        unioning = true;
                        Arc::make_mut(&mut self.rumors).union_view(&view.rumors);
                    }
                }
                Err(_) => errors += 1,
            }
        }
        errors
    }

    fn local_step(&mut self, out: &mut Vec<(ProcessId, TearsMessage)>) {
        self.steps += 1;

        // Figure 3, lines 12–15: the first-level transmission happens once,
        // in the process's first local step, with the flag raised. The
        // snapshot is an `Arc` clone — every destination shares one payload.
        if !self.first_level_sent {
            self.first_level_sent = true;
            let msg = TearsMessage {
                rumors: Arc::clone(&self.rumors),
                flag: TearsFlag::Up,
            };
            broadcast(out, &self.pi1, msg);
        }

        // Figure 3, lines 20–27: one second-level broadcast per trigger count
        // reached since the previous step.
        while self.pending_bcasts > 0 {
            self.pending_bcasts -= 1;
            self.second_level_sends += 1;
            let msg = TearsMessage {
                rumors: Arc::clone(&self.rumors),
                flag: TearsFlag::Down,
            };
            broadcast(out, &self.pi2, msg);
        }
    }

    fn pid(&self) -> ProcessId {
        self.ctx.pid
    }

    fn rumors(&self) -> &RumorSet {
        &self.rumors
    }

    fn is_quiescent(&self) -> bool {
        self.first_level_sent && self.pending_bcasts == 0
    }

    fn steps_taken(&self) -> u64 {
        self.steps
    }

    fn msg_units(msg: &Self::Msg) -> u64 {
        crate::wire::WireSize::wire_units(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rumor::Rumor;

    fn ctx(pid: usize, n: usize, seed: u64) -> GossipCtx {
        GossipCtx::new(ProcessId(pid), n, n / 2 - 1, seed)
    }

    fn step(p: &mut Tears) -> Vec<(ProcessId, TearsMessage)> {
        let mut out = Vec::new();
        p.local_step(&mut out);
        out
    }

    fn up_msg(origin: usize) -> TearsMessage {
        TearsMessage {
            rumors: Arc::new(RumorSet::singleton(Rumor::new(
                ProcessId(origin),
                origin as u64,
            ))),
            flag: TearsFlag::Up,
        }
    }

    #[test]
    fn neighbourhood_sizes_concentrate_around_a() {
        // Lemma 8 shape: |Π1| is a binomial with mean a; for a large n it
        // should be within a few κ of a.
        let n = 2048;
        let p = Tears::new(ctx(0, n, 7));
        let a = TearsParams::default().a(n);
        let kappa = TearsParams::default().kappa(n);
        let size = p.pi1().len() as f64;
        assert!(
            (size - a).abs() < 4.0 * kappa,
            "|Π1| = {size} too far from a = {a} (κ = {kappa})"
        );
        assert!(!p.pi1().contains(&ProcessId(0)), "never includes itself");
        assert!(!p.pi2().contains(&ProcessId(0)));
    }

    #[test]
    fn first_step_sends_first_level_to_pi1_only_once() {
        let mut p = Tears::new(ctx(0, 256, 3));
        let out = step(&mut p);
        assert_eq!(out.len(), p.pi1().len());
        assert!(out.iter().all(|(_, m)| m.flag == TearsFlag::Up));
        // Second step: nothing new to send.
        let out = step(&mut p);
        assert!(out.is_empty());
        assert!(p.is_quiescent());
    }

    #[test]
    fn trigger_window_matches_paper_definition() {
        let p = Tears::new(ctx(0, 1024, 5));
        let mu = p.mu();
        let kappa = p.kappa();
        // Inside the window [µ−κ, µ+κ).
        assert!(p.is_trigger_count(mu - kappa));
        assert!(p.is_trigger_count(mu));
        assert!(p.is_trigger_count(mu + kappa - 1));
        // Just outside the window and not a multiple of κ.
        assert!(!p.is_trigger_count(mu - kappa - 1));
        assert!(!p.is_trigger_count(mu + kappa + 1));
        // Later multiples µ + iκ trigger.
        assert!(p.is_trigger_count(mu + kappa));
        assert!(p.is_trigger_count(mu + 3 * kappa));
        // Zero never triggers.
        assert!(!p.is_trigger_count(0));
    }

    #[test]
    fn second_level_broadcast_fires_when_threshold_reached() {
        // n must be large enough that µ > κ (the paper assumes n sufficiently
        // large); n = 1024 gives µ ≈ 440, κ ≈ 310.
        let n = 1024;
        let mut p = Tears::new(ctx(0, n, 11));
        // Take the first step so the first-level send is out of the way.
        step(&mut p);
        let threshold = p.mu() - p.kappa();
        // Deliver exactly threshold − 1 first-level messages: no broadcast.
        for i in 0..(threshold - 1) {
            p.deliver(ProcessId(1), up_msg((i % (n as u64 - 1)) as usize + 1));
        }
        assert!(step(&mut p).is_empty());
        // The threshold-th message triggers a broadcast to Π2.
        p.deliver(ProcessId(1), up_msg(1));
        let out = step(&mut p);
        assert_eq!(out.len(), p.pi2().len());
        assert!(out.iter().all(|(_, m)| m.flag == TearsFlag::Down));
        assert_eq!(p.second_level_rounds(), 1);
    }

    #[test]
    fn counts_only_first_level_messages() {
        let mut p = Tears::new(ctx(0, 64, 13));
        p.deliver(
            ProcessId(1),
            TearsMessage {
                rumors: Arc::new(RumorSet::singleton(Rumor::new(ProcessId(1), 1))),
                flag: TearsFlag::Down,
            },
        );
        assert_eq!(p.up_msg_count(), 0);
        p.deliver(ProcessId(2), up_msg(2));
        assert_eq!(p.up_msg_count(), 1);
    }

    #[test]
    fn rumors_accumulate_from_both_levels() {
        let mut p = Tears::new(ctx(0, 16, 17));
        p.deliver(ProcessId(1), up_msg(1));
        let mut many = RumorSet::new();
        for i in 2..6 {
            many.insert(Rumor::new(ProcessId(i), i as u64));
        }
        p.deliver(
            ProcessId(2),
            TearsMessage {
                rumors: Arc::new(many),
                flag: TearsFlag::Down,
            },
        );
        assert_eq!(p.rumors().len(), 6); // own + 1 + 4
    }

    #[test]
    fn quiescent_until_pending_broadcast_exists() {
        let n = 1024;
        let mut p = Tears::new(ctx(0, n, 19));
        step(&mut p);
        assert!(p.is_quiescent());
        let threshold = p.mu() - p.kappa();
        for i in 0..threshold {
            p.deliver(ProcessId(1), up_msg((i % (n as u64 - 1)) as usize + 1));
        }
        assert!(!p.is_quiescent(), "a pending broadcast means not quiescent");
        step(&mut p);
        assert!(p.is_quiescent());
    }

    #[test]
    fn broadcast_payloads_are_shared_not_copied() {
        let mut p = Tears::new(ctx(0, 256, 3));
        let out = step(&mut p);
        assert!(out.len() > 1);
        let first = &out[0].1.rumors;
        assert!(
            out.iter().all(|(_, m)| Arc::ptr_eq(&m.rumors, first)),
            "all destinations of one broadcast share one snapshot allocation"
        );
    }

    #[test]
    fn delivery_after_broadcast_does_not_mutate_snapshots() {
        let mut p = Tears::new(ctx(0, 64, 23));
        let out = step(&mut p);
        let snapshot = Arc::clone(&out[0].1.rumors);
        let before = snapshot.len();
        p.deliver(ProcessId(1), up_msg(1));
        assert_eq!(snapshot.len(), before, "in-flight snapshots are immutable");
        assert_eq!(p.rumors().len(), before + 1);
    }

    #[test]
    fn deterministic_under_same_seed() {
        let a = Tears::new(ctx(3, 512, 123));
        let b = Tears::new(ctx(3, 512, 123));
        assert_eq!(a.pi1(), b.pi1());
        assert_eq!(a.pi2(), b.pi2());
    }

    #[test]
    fn different_processes_get_different_neighbourhoods() {
        let a = Tears::new(ctx(0, 512, 123));
        let b = Tears::new(ctx(1, 512, 123));
        assert_ne!(a.pi1(), b.pi1());
    }
}
