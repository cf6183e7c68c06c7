//! The in-flight message buffer.
//!
//! Messages are never lost or corrupted (paper, Section 1): once sent, a
//! message stays in the network until its recipient is scheduled at or after
//! the message's delivery deadline, at which point it is handed to the
//! recipient's local step. Messages addressed to crashed processes are
//! discarded when the crash is observed.
//!
//! # Representation
//!
//! In the paper's `(d, δ)`-bounded model every delay lies in `1..=d`, or is
//! the `u64::MAX` "withheld forever" marker, so one destination's pending
//! messages share at most `d` live deadlines plus one withheld deadline.
//! Each destination therefore keeps a short deque of *deadline buckets*,
//! sorted by deadline; a bucket holds every message due at its deadline
//! together with its network-wide send sequence number, in send order.
//!
//! * [`Network::send`] appends to its deadline's bucket, found by a scan
//!   from the back of the deque (new deadlines are almost always the
//!   latest), and inserts a bucket when there is none: O(d) worst case,
//!   O(1) in practice.
//! * [`Network::earliest_deliverable_for`] reads the front bucket's
//!   deadline: O(1).
//! * [`Network::collect_deliverable`] pops every bucket whose deadline has
//!   been reached and returns *immediately* — moving nothing — when the
//!   front deadline is still in the future. A single due bucket is already
//!   in send order and moves out as it is; several due buckets are merged
//!   by sequence number.
//!
//! Delivered batches are handed out in **send order** (ascending sequence
//! number), which is exactly the order the historical `VecDeque`-scan
//! implementation produced, so executions are bit-for-bit reproducible
//! across the representations (see `tests/network_differential.rs`).
//! Drained bucket storage goes to a network-wide spare pool that new buckets
//! are taken from, so steady-state sending and collecting allocate nothing.
//!
//! # Sharding
//!
//! The destination queues are additionally grouped into *shards* of
//! [`SHARD_SIZE`] consecutive destinations. Each shard tracks its own
//! in-flight count and a lazily recomputed cache of the earliest delivery
//! deadline over its member queues, so the whole-network queries —
//! [`Network::earliest_deliverable`] (the idle fast-forward target) and
//! [`Network::all_beyond`] (quiescence under withheld messages) — cost
//! O(shards) plus one O([`SHARD_SIZE`]) rescan of front deadlines per shard
//! that changed since the last query, instead of reading all `n` queues
//! every time. At `n = 65 536` that turns a 65 536-queue scan into at most
//! 1 024 cache reads. Shards are merged in ascending shard order, which is
//! deterministic and — since `min` is order-insensitive — yields exactly
//! the value the flat scan produced, so executions stay bit-for-bit
//! identical (pinned by `tests/network_differential.rs` and the golden
//! seeds in `tests/tests/seed_equivalence.rs`).

use std::cell::Cell;
use std::collections::VecDeque;

use crate::message::Envelope;
use crate::process::ProcessId;
use crate::time::TimeStep;

/// Messages paired with their network-wide send sequence numbers, in send
/// order. The sequence number is unique per network and restores send order
/// when several buckets are delivered together.
type Messages<M> = Vec<(u64, Envelope<M>)>;

/// Every message for one destination that becomes deliverable at the same
/// time step.
#[derive(Debug, Clone)]
struct Bucket<M> {
    /// The messages become deliverable at any scheduled step of the
    /// recipient occurring at time `>= deadline`.
    deadline: TimeStep,
    messages: Messages<M>,
}

/// Destinations per scheduler shard: `1 << SHARD_SHIFT`.
const SHARD_SHIFT: usize = 6;

/// Number of consecutive destinations grouped under one shard (64): small
/// enough that a stale shard's rescan is one short pass over front
/// deadlines, large enough that the shard directory at `n = 65 536` is only
/// 1 024 entries.
pub const SHARD_SIZE: usize = 1 << SHARD_SHIFT;

/// Per-shard scheduling state: the in-flight count and the cached earliest
/// delivery deadline over the shard's member queues.
///
/// The cache uses interior mutability (`Cell`) because the whole-network
/// queries are `&self`; a shard is marked stale whenever one of its queues
/// loses messages (delivery or crash-drop) and rescanned on the next query.
/// Sends keep the cache exact directly (the minimum only decreases).
#[derive(Debug, Clone)]
struct Shard {
    in_flight: usize,
    earliest: Cell<Option<TimeStep>>,
    stale: Cell<bool>,
}

impl Shard {
    fn new() -> Self {
        Shard {
            in_flight: 0,
            earliest: Cell::new(None),
            stale: Cell::new(false),
        }
    }
}

/// The network: per destination, a deadline-sorted deque of buckets of
/// in-flight messages, grouped into shards of [`SHARD_SIZE`] destinations
/// for the whole-network queries (see the module docs).
#[derive(Debug, Clone)]
pub struct Network<M> {
    queues: Vec<VecDeque<Bucket<M>>>,
    shards: Vec<Shard>,
    in_flight: usize,
    next_seq: u64,
    /// Emptied bucket storage, kept with its capacity for the next new
    /// bucket, so steady-state sending does not allocate.
    spare: Vec<Messages<M>>,
    /// The due buckets of a collection that spans several deadlines, while
    /// they are merged into send order; empty between calls.
    due: Vec<Messages<M>>,
}

impl<M> Network<M> {
    /// Creates an empty network for a system of `n` processes.
    pub fn new(n: usize) -> Self {
        Network {
            queues: (0..n).map(|_| VecDeque::new()).collect(),
            shards: (0..n.div_ceil(SHARD_SIZE)).map(|_| Shard::new()).collect(),
            in_flight: 0,
            next_seq: 0,
            spare: Vec::new(),
            due: Vec::new(),
        }
    }

    /// Number of processes the network routes between.
    pub fn n(&self) -> usize {
        self.queues.len()
    }

    /// Accepts a message sent at `envelope.sent_at` with delivery delay
    /// `delay` (so it becomes deliverable at `sent_at + delay`).
    ///
    /// A `delay` of `u64::MAX` models a message the adversary withholds for
    /// the remainder of the execution (used by the adaptive lower-bound
    /// adversary); such messages still count as *sent* for message-complexity
    /// accounting, which is done by the caller.
    pub fn send(&mut self, envelope: Envelope<M>, delay: u64) {
        let deadline = envelope.sent_at.after(delay);
        let to = envelope.to.index();
        debug_assert!(to < self.queues.len(), "destination out of range");
        let seq = self.next_seq;
        self.next_seq += 1;
        let queue = &mut self.queues[to];
        // Deadlines grow with send time, so the bucket is almost always the
        // last one (or the one before a withheld bucket).
        let before = queue.iter().rposition(|b| b.deadline <= deadline);
        match before {
            Some(i) if queue[i].deadline == deadline => queue[i].messages.push((seq, envelope)),
            _ => {
                let mut messages = self.spare.pop().unwrap_or_default();
                messages.push((seq, envelope));
                let at = before.map_or(0, |i| i + 1);
                queue.insert(at, Bucket { deadline, messages });
            }
        }
        self.in_flight += 1;
        let shard = &mut self.shards[to >> SHARD_SHIFT];
        shard.in_flight += 1;
        if !shard.stale.get() {
            // The cache is exact; a send can only lower the minimum.
            let earliest = shard.earliest.get().map_or(deadline, |e| e.min(deadline));
            shard.earliest.set(Some(earliest));
        }
    }

    /// Removes and returns every message addressed to `to` whose delivery
    /// deadline has been reached at time `now`, in send order.
    ///
    /// Convenience wrapper around [`Self::collect_deliverable_into`] for
    /// callers that do not reuse a buffer.
    pub fn collect_deliverable(&mut self, to: ProcessId, now: TimeStep) -> Vec<Envelope<M>> {
        let mut delivered = Vec::new();
        self.collect_deliverable_into(to, now, &mut delivered);
        delivered
    }

    /// Appends every message addressed to `to` whose delivery deadline has
    /// been reached at time `now` onto `out`, in send order.
    ///
    /// When the earliest deadline for `to` is still in the future this
    /// returns without moving (or allocating) anything.
    pub fn collect_deliverable_into(
        &mut self,
        to: ProcessId,
        now: TimeStep,
        out: &mut Vec<Envelope<M>>,
    ) {
        let queue = &mut self.queues[to.index()];
        let is_due = |q: &VecDeque<Bucket<M>>| q.front().is_some_and(|b| b.deadline <= now);
        if !is_due(queue) {
            return;
        }
        let before = out.len();
        debug_assert!(self.due.is_empty());
        while is_due(queue) {
            let Some(bucket) = queue.pop_front() else {
                break;
            };
            self.due.push(bucket.messages);
        }
        if let [messages] = self.due.as_mut_slice() {
            // One deadline: the bucket is already in send order.
            out.extend(messages.drain(..).map(|(_, env)| env));
        } else {
            merge_by_seq(&mut self.due, out);
        }
        self.spare.append(&mut self.due);
        let delivered = out.len() - before;
        self.in_flight -= delivered;
        let shard = &mut self.shards[to.index() >> SHARD_SHIFT];
        shard.in_flight -= delivered;
        shard.stale.set(true);
    }

    /// Discards every message addressed to `to` (used when `to` crashes).
    /// Returns the number of messages dropped.
    pub fn drop_for(&mut self, to: ProcessId) -> usize {
        let mut dropped = 0;
        for mut bucket in self.queues[to.index()].drain(..) {
            dropped += bucket.messages.len();
            bucket.messages.clear();
            self.spare.push(bucket.messages);
        }
        self.in_flight -= dropped;
        if dropped > 0 {
            let shard = &mut self.shards[to.index() >> SHARD_SHIFT];
            shard.in_flight -= dropped;
            shard.stale.set(true);
        }
        dropped
    }

    /// Total number of messages currently in flight.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Number of messages currently queued for `to`.
    pub fn pending_for(&self, to: ProcessId) -> usize {
        self.queues[to.index()]
            .iter()
            .map(|b| b.messages.len())
            .sum()
    }

    /// Earliest time at which any message queued for `to` becomes
    /// deliverable, or `None` if the queue is empty. O(1).
    pub fn earliest_deliverable_for(&self, to: ProcessId) -> Option<TimeStep> {
        self.queues[to.index()].front().map(|b| b.deadline)
    }

    /// The cached earliest deadline of shard `s`, rescanning its member
    /// queues first if the shard changed since the last query.
    fn shard_earliest(&self, s: usize) -> Option<TimeStep> {
        let shard = &self.shards[s];
        if shard.in_flight == 0 {
            shard.earliest.set(None);
            shard.stale.set(false);
            return None;
        }
        if shard.stale.get() {
            let lo = s << SHARD_SHIFT;
            let hi = ((s + 1) << SHARD_SHIFT).min(self.queues.len());
            let earliest = self.queues[lo..hi]
                .iter()
                .filter_map(|q| q.front().map(|b| b.deadline))
                .min();
            shard.earliest.set(earliest);
            shard.stale.set(false);
        }
        shard.earliest.get()
    }

    /// Earliest time at which any in-flight message (to any destination)
    /// becomes deliverable, or `None` if the network is empty. Merges the
    /// per-shard cached deadlines in ascending shard order: O(shards) cache
    /// reads plus one member rescan per shard that changed since the last
    /// query (`min` is order-insensitive, so the result is exactly what the
    /// historical flat scan over all `n` queues produced).
    ///
    /// This is what the scheduler's idle fast-forward jumps to.
    pub fn earliest_deliverable(&self) -> Option<TimeStep> {
        (0..self.shards.len())
            .filter_map(|s| self.shard_earliest(s))
            .min()
    }

    /// True if no message is in flight to any destination.
    pub fn is_empty(&self) -> bool {
        self.in_flight == 0
    }

    /// Iterates over the messages currently queued for `to` (regardless of
    /// delivery deadline), without removing them. Iteration order is
    /// unspecified; use [`Self::clone_pending_for`] for send order.
    pub fn iter_for(&self, to: ProcessId) -> impl Iterator<Item = &Envelope<M>> {
        self.queues[to.index()]
            .iter()
            .flat_map(|b| b.messages.iter().map(|(_, env)| env))
    }

    /// Clones every message currently queued for `to`, in send order.
    pub fn clone_pending_for(&self, to: ProcessId) -> Vec<Envelope<M>>
    where
        M: Clone,
    {
        let mut pending: Vec<&(u64, Envelope<M>)> = self.queues[to.index()]
            .iter()
            .flat_map(|b| &b.messages)
            .collect();
        pending.sort_unstable_by_key(|(seq, _)| *seq);
        pending.into_iter().map(|(_, env)| env.clone()).collect()
    }

    /// True if every in-flight message has a delivery deadline of
    /// `u64::MAX`-like magnitude, i.e. has been withheld "forever" relative
    /// to `horizon`. Used by drivers that want to treat permanently withheld
    /// messages as drained. O(shards) via the per-shard deadline caches:
    /// only a shard's earliest deadline needs inspecting.
    pub fn all_beyond(&self, horizon: TimeStep) -> bool {
        (0..self.shards.len()).all(|s| self.shard_earliest(s).is_none_or(|e| e > horizon))
    }
}

/// Moves the messages of several buckets onto `out` in ascending sequence
/// number, leaving every bucket empty (with its capacity).
///
/// Each bucket is already in send order, so this is a k-way merge over the
/// deadlines that fell due since the destination's last collection — a
/// handful when it is scheduled every `δ` steps. Buckets are reversed so
/// the smallest remaining sequence number of each is its last element and
/// can be popped.
fn merge_by_seq<M>(buckets: &mut [Messages<M>], out: &mut Vec<Envelope<M>>) {
    for bucket in buckets.iter_mut() {
        bucket.reverse();
    }
    loop {
        let next = buckets
            .iter_mut()
            .filter_map(|b| Some((b.last()?.0, b)))
            .min_by_key(|(seq, _)| *seq);
        let Some((_, bucket)) = next else { break };
        if let Some((_, env)) = bucket.pop() {
            out.push(env);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(from: usize, to: usize, at: u64, payload: u32) -> Envelope<u32> {
        Envelope {
            from: ProcessId(from),
            to: ProcessId(to),
            sent_at: TimeStep(at),
            payload,
        }
    }

    #[test]
    fn delivery_respects_deadline() {
        let mut net: Network<u32> = Network::new(3);
        net.send(env(0, 1, 0, 7), 2);
        assert_eq!(net.in_flight(), 1);
        // Not deliverable before t2.
        assert!(net
            .collect_deliverable(ProcessId(1), TimeStep(1))
            .is_empty());
        assert_eq!(net.in_flight(), 1);
        let got = net.collect_deliverable(ProcessId(1), TimeStep(2));
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].payload, 7);
        assert!(net.is_empty());
    }

    #[test]
    fn delivery_is_per_destination() {
        let mut net: Network<u32> = Network::new(3);
        net.send(env(0, 1, 0, 1), 1);
        net.send(env(0, 2, 0, 2), 1);
        let got = net.collect_deliverable(ProcessId(1), TimeStep(5));
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].payload, 1);
        assert_eq!(net.pending_for(ProcessId(2)), 1);
    }

    #[test]
    fn withheld_messages_stay_in_flight() {
        let mut net: Network<u32> = Network::new(2);
        net.send(env(0, 1, 0, 9), u64::MAX);
        assert!(net
            .collect_deliverable(ProcessId(1), TimeStep(1_000_000))
            .is_empty());
        assert_eq!(net.in_flight(), 1);
        assert!(net.all_beyond(TimeStep(1_000_000)));
        assert!(!net.is_empty());
    }

    #[test]
    fn drop_for_discards_queue() {
        let mut net: Network<u32> = Network::new(2);
        net.send(env(0, 1, 0, 1), 1);
        net.send(env(0, 1, 0, 2), 1);
        assert_eq!(net.drop_for(ProcessId(1)), 2);
        assert!(net.is_empty());
        assert_eq!(net.drop_for(ProcessId(1)), 0);
    }

    #[test]
    fn earliest_deliverable_reports_minimum() {
        let mut net: Network<u32> = Network::new(2);
        assert_eq!(net.earliest_deliverable_for(ProcessId(1)), None);
        assert_eq!(net.earliest_deliverable(), None);
        net.send(env(0, 1, 0, 1), 5);
        net.send(env(0, 1, 2, 2), 1);
        assert_eq!(
            net.earliest_deliverable_for(ProcessId(1)),
            Some(TimeStep(3))
        );
        net.send(env(1, 0, 0, 3), 2);
        assert_eq!(net.earliest_deliverable(), Some(TimeStep(2)));
    }

    #[test]
    fn mixed_deadlines_partial_delivery() {
        let mut net: Network<u32> = Network::new(2);
        net.send(env(0, 1, 0, 1), 1);
        net.send(env(0, 1, 0, 2), 10);
        let got = net.collect_deliverable(ProcessId(1), TimeStep(5));
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].payload, 1);
        assert_eq!(net.pending_for(ProcessId(1)), 1);
        let got = net.collect_deliverable(ProcessId(1), TimeStep(10));
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].payload, 2);
    }

    #[test]
    fn batches_are_delivered_in_send_order() {
        // Send order 10, 20, 30 with deadlines 5, 3, 4: the whole batch is
        // due at t5 and must come out in send order, not deadline order.
        let mut net: Network<u32> = Network::new(2);
        net.send(env(0, 1, 0, 10), 5);
        net.send(env(0, 1, 0, 20), 3);
        net.send(env(0, 1, 0, 30), 4);
        let got = net.collect_deliverable(ProcessId(1), TimeStep(5));
        let payloads: Vec<u32> = got.iter().map(|e| e.payload).collect();
        assert_eq!(payloads, vec![10, 20, 30]);
    }

    #[test]
    fn clone_pending_preserves_send_order() {
        let mut net: Network<u32> = Network::new(2);
        net.send(env(0, 1, 0, 10), 9);
        net.send(env(0, 1, 0, 20), 2);
        net.send(env(0, 1, 0, 30), 5);
        let cloned = net.clone_pending_for(ProcessId(1));
        let payloads: Vec<u32> = cloned.iter().map(|e| e.payload).collect();
        assert_eq!(payloads, vec![10, 20, 30]);
        // Cloning does not disturb the queue.
        assert_eq!(net.pending_for(ProcessId(1)), 3);
    }

    #[test]
    fn future_deadline_collection_moves_nothing() {
        // Regression for the historical implementation, which popped and
        // rebuilt the whole queue even when nothing was deliverable: with the
        // earliest deadline in the future, collection must move no envelopes
        // and leave every observable unchanged.
        let mut net: Network<u32> = Network::new(2);
        net.send(env(0, 1, 0, 1), 7);
        net.send(env(0, 1, 0, 2), 7);
        net.send(env(0, 1, 0, 3), 7);
        let mut out = Vec::new();
        for now in 0..7 {
            net.collect_deliverable_into(ProcessId(1), TimeStep(now), &mut out);
            assert!(out.is_empty(), "nothing deliverable before t7");
            assert_eq!(net.in_flight(), 3);
            assert_eq!(net.pending_for(ProcessId(1)), 3);
            assert_eq!(
                net.earliest_deliverable_for(ProcessId(1)),
                Some(TimeStep(7))
            );
        }
        // The untouched queue still delivers the full batch in send order.
        net.collect_deliverable_into(ProcessId(1), TimeStep(8), &mut out);
        let payloads: Vec<u32> = out.iter().map(|e| e.payload).collect();
        assert_eq!(payloads, vec![1, 2, 3]);
    }

    #[test]
    fn shard_caches_track_sends_collections_and_drops() {
        // Destinations straddling a shard boundary, so the global queries
        // merge more than one shard's cache.
        let n = SHARD_SIZE * 2 + 3;
        let mut net: Network<u32> = Network::new(n);
        let near = ProcessId(1); // shard 0
        let far = ProcessId(SHARD_SIZE + 1); // shard 1
        let edge = ProcessId(2 * SHARD_SIZE); // shard 2 (partial)
        net.send(env(0, near.index(), 0, 1), 9);
        net.send(env(0, far.index(), 0, 2), 3);
        net.send(env(0, edge.index(), 0, 3), 5);
        assert_eq!(net.earliest_deliverable(), Some(TimeStep(3)));
        // Delivering the earliest message must advance the merged minimum
        // (the shard cache is stale after the pop and gets rescanned).
        assert_eq!(net.collect_deliverable(far, TimeStep(3)).len(), 1);
        assert_eq!(net.earliest_deliverable(), Some(TimeStep(5)));
        assert!(net.all_beyond(TimeStep(4)));
        assert!(!net.all_beyond(TimeStep(5)));
        // A crash-drop empties its shard; the remaining message wins.
        assert_eq!(net.drop_for(edge), 1);
        assert_eq!(net.earliest_deliverable(), Some(TimeStep(9)));
        assert_eq!(net.drop_for(near), 1);
        assert_eq!(net.earliest_deliverable(), None);
        assert!(net.is_empty());
        // A send after the caches went empty repopulates them exactly.
        net.send(env(0, far.index(), 10, 4), 2);
        assert_eq!(net.earliest_deliverable(), Some(TimeStep(12)));
    }

    #[test]
    fn unscheduled_destination_gets_every_due_bucket_as_one_batch() {
        // Sends at t0..t3 with delays cycling through 1..=4 leave seven
        // deadline buckets (t1..t7) whose seq ranges interleave. Collecting
        // once at t6 merges six of them into one batch in send order; only
        // the message sent at t3 with delay 4 stays behind.
        let mut net: Network<u32> = Network::new(2);
        let mut payload = 0;
        for at in 0..4 {
            for delay in [3, 1, 4, 2] {
                net.send(env(0, 1, at, payload), delay);
                payload += 1;
            }
        }
        assert_eq!(net.queues[1].len(), 7);
        let got = net.collect_deliverable(ProcessId(1), TimeStep(6));
        let payloads: Vec<u32> = got.iter().map(|e| e.payload).collect();
        assert_eq!(
            payloads,
            vec![0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 15]
        );
        assert_eq!(net.pending_for(ProcessId(1)), 1);
        assert_eq!(
            net.earliest_deliverable_for(ProcessId(1)),
            Some(TimeStep(7))
        );
        let got = net.collect_deliverable(ProcessId(1), TimeStep(7));
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].payload, 14);
        assert!(net.is_empty());
    }

    #[test]
    fn withheld_messages_stay_behind_a_due_bucket() {
        let mut net: Network<u32> = Network::new(2);
        net.send(env(0, 1, 0, 1), u64::MAX);
        net.send(env(0, 1, 0, 2), 2);
        net.send(env(0, 1, 1, 3), u64::MAX);
        net.send(env(0, 1, 1, 4), 1);
        // The withheld bucket stays last; later sends land before it.
        assert_eq!(net.queues[1].len(), 2);
        assert_eq!(
            net.earliest_deliverable_for(ProcessId(1)),
            Some(TimeStep(2))
        );
        let got = net.collect_deliverable(ProcessId(1), TimeStep(1_000));
        let payloads: Vec<u32> = got.iter().map(|e| e.payload).collect();
        assert_eq!(payloads, vec![2, 4]);
        assert_eq!(net.pending_for(ProcessId(1)), 2);
        assert_eq!(
            net.earliest_deliverable_for(ProcessId(1)),
            Some(TimeStep(u64::MAX))
        );
        assert!(net.all_beyond(TimeStep(1_000)));
    }

    #[test]
    fn drop_for_discards_every_bucket_and_recycles_the_storage() {
        let mut net: Network<u32> = Network::new(3);
        net.send(env(0, 1, 0, 1), 3);
        net.send(env(0, 1, 0, 2), 1);
        net.send(env(0, 1, 0, 3), 2);
        net.send(env(0, 1, 0, 4), u64::MAX);
        net.send(env(0, 2, 0, 5), 1);
        assert_eq!(net.queues[1].len(), 4);
        assert_eq!(net.drop_for(ProcessId(1)), 4);
        assert_eq!(net.in_flight(), 1);
        assert_eq!(net.pending_for(ProcessId(1)), 0);
        assert_eq!(net.earliest_deliverable_for(ProcessId(1)), None);
        assert_eq!(net.earliest_deliverable(), Some(TimeStep(1)));
        assert_eq!(net.spare.len(), 4);
        // New buckets draw on the recycled storage.
        net.send(env(0, 1, 1, 6), 1);
        assert_eq!(net.spare.len(), 3);
        assert_eq!(
            net.collect_deliverable(ProcessId(1), TimeStep(2))[0].payload,
            6
        );
    }

    #[test]
    fn clone_pending_keeps_send_order_across_buckets() {
        let mut net: Network<u32> = Network::new(2);
        for (payload, (at, delay)) in [(0, 2), (0, 1), (1, 1), (1, u64::MAX), (2, 1), (1, 2)]
            .into_iter()
            .enumerate()
        {
            net.send(env(0, 1, at, payload as u32), delay);
        }
        assert_eq!(net.queues[1].len(), 4);
        let cloned = net.clone_pending_for(ProcessId(1));
        let payloads: Vec<u32> = cloned.iter().map(|e| e.payload).collect();
        assert_eq!(payloads, vec![0, 1, 2, 3, 4, 5]);
        let mut iterated: Vec<u32> = net.iter_for(ProcessId(1)).map(|e| e.payload).collect();
        iterated.sort_unstable();
        assert_eq!(iterated, payloads);
        assert_eq!(net.pending_for(ProcessId(1)), 6);
    }

    #[test]
    fn collect_into_appends_without_clearing() {
        let mut net: Network<u32> = Network::new(2);
        net.send(env(0, 1, 0, 5), 1);
        let mut out = vec![env(1, 0, 0, 99)];
        net.collect_deliverable_into(ProcessId(1), TimeStep(1), &mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].payload, 99);
        assert_eq!(out[1].payload, 5);
    }
}
