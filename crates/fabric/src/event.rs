//! The event queue at the heart of the discrete-event kernel.
//!
//! Events are totally ordered by [`EventKey`] = `(time, src, seq)`: two
//! events scheduled for the same instant fire in the order their keys
//! compare, which makes every simulation run fully deterministic. The
//! `src` component exists for the *parallel* fabric engine: each shard of
//! a sharded simulation stamps the events it schedules with its own shard
//! index and a shard-local sequence number, so the interleaving of
//! same-instant events is a pure function of the model — independent of
//! which worker thread ran which shard, and independent of thread count.
//! Single-queue users never see it: [`EventQueue::schedule_at`] stamps
//! `src = 0` and a queue-local sequence, which reduces to the classic
//! `(time, seq)` FIFO-within-instant order.
//!
//! # Arena-pooled storage
//!
//! Event payloads never move through the ordering structure. Every
//! scheduled event is parked in a slab arena owned by the queue and
//! addressed by a `u32` handle; the ladder orders bare `(EventKey, u32)`
//! pairs — 32 bytes, `Copy`, no drop glue — so a sort or a refill sweep
//! shuffles handles, not payloads. Slots are recycled through a free
//! list, which keeps the steady state of a schedule/pop loop
//! allocation-free (the `alloc_regression` suite counts).
//!
//! # The ladder
//!
//! Handles are ordered by a two-tier ladder queue: a *bottom* tier holds
//! the imminent events sorted ascending behind a head cursor (dequeue
//! advances the cursor, O(1)), a *top* tier holds everything past the
//! bottom's horizon unsorted with an always-valid minimum hint. Inserts
//! into the bottom are a binary search plus a short shift — and fabric
//! events are overwhelmingly scheduled *later* than everything pending,
//! which appends them for free. When the bottom drains, one sweep moves
//! the next window of top events down and sorts them, with the window
//! width adapting to the observed event density. `pop_keyed_before` is
//! O(1) when it refuses: the bottom head / top hint answer without any
//! scan.
//!
//! The ladder is the only structure because fabric shard queues stay
//! small. On the 8×8 all-to-all (4032 flows of 4 KiB) the peak per-shard
//! population is 76 events at one executive thread and 71 at two, and
//! only 483 (t1) / 49 (t2) of its 7,960,862 inserts found more than 64
//! events pending — the band where a calendar queue would start to pay.
//! Pop order is a pure function of the keys, so the structure is
//! invisible to results; the test module diffs it against a
//! `BinaryHeap` oracle under the engine's operation mix.

use crate::time::SimTime;

/// Total order on events: time first, then the scheduling source (shard
/// index in sharded simulations, 0 otherwise), then the source-local
/// sequence number. Unique per event, so the order is total.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventKey {
    /// Absolute firing time.
    pub at: SimTime,
    /// Scheduling source (shard index); 0 for single-queue users.
    pub src: u32,
    /// Source-local sequence number; unique per `src`.
    pub seq: u64,
}

/// Slab arena of parked event payloads: `u32` handles in, payloads out.
/// Slots are `Option<E>` (taking leaves `None`) and recycle through a
/// free list, so a steady-state schedule/pop loop touches no allocator.
#[derive(Debug)]
struct Arena<E> {
    slots: Vec<Option<E>>,
    free: Vec<u32>,
}

impl<E> Arena<E> {
    fn new() -> Self {
        Arena {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Park `event`, returning its handle.
    ///
    /// Deliberate panic (reviewed): handles are u32 by layout contract
    /// with the ladder; 2^32 simultaneously-parked events means the
    /// event budget check has already failed and memory is gone —
    /// truncating the handle instead would silently alias two events.
    #[cfg_attr(lint, tcc_no_alloc, tcc_panic_ok, tcc_acquires(arena_handle))]
    fn park(&mut self, event: E) -> u32 {
        match self.free.pop() {
            Some(h) => {
                debug_assert!(self.slots[h as usize].is_none());
                self.slots[h as usize] = Some(event);
                h
            }
            None => {
                let h = u32::try_from(self.slots.len()).expect("arena capacity");
                self.slots.push(Some(event));
                h
            }
        }
    }

    /// Reclaim the payload behind `handle`; the slot returns to the free
    /// list.
    ///
    /// Deliberate panic (reviewed): an empty slot here means the ladder
    /// double-popped a handle — continuing would replay or drop an event
    /// and silently break bit-determinism, the one guarantee the whole
    /// queue exists to keep.
    #[cfg_attr(lint, tcc_no_alloc, tcc_panic_ok, tcc_releases(arena_handle))]
    fn take(&mut self, handle: u32) -> E {
        let ev = self.slots[handle as usize]
            .take()
            .expect("arena slot occupied");
        self.free.push(handle);
        ev
    }
}

/// A time-ordered queue of events of type `E`. Payloads live in the
/// queue's [`Arena`]; the [`LadderQueue`] orders `(EventKey, u32)`
/// handle pairs.
#[derive(Debug)]
pub struct EventQueue<E> {
    arena: Arena<E>,
    ladder: LadderQueue,
    next_seq: u64,
    scheduled_total: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue.
    #[must_use]
    pub fn new() -> Self {
        EventQueue {
            arena: Arena::new(),
            ladder: LadderQueue::new(),
            next_seq: 0,
            scheduled_total: 0,
        }
    }

    /// Schedule `event` to fire at absolute time `at` (source 0, local
    /// sequence — FIFO within the same instant).
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.schedule_keyed(EventKey { at, src: 0, seq }, event);
    }

    /// Schedule `event` under an explicit key. The sharded engine uses
    /// this to stamp events with `(shard, shard-local seq)` so merge
    /// order is deterministic across thread counts. Keys must be unique.
    // tcc_transfer_ok: the parked handle is owned by the ladder until a
    // pop reclaims it through `Arena::take` — held-at-exit is the point.
    #[cfg_attr(lint, tcc_no_alloc, tcc_no_panic)]
    #[cfg_attr(lint, tcc_linear(arena_handle), tcc_transfer_ok)]
    pub fn schedule_keyed(&mut self, key: EventKey, event: E) {
        self.scheduled_total += 1;
        let h = self.arena.park(event);
        self.ladder.insert(key, h);
    }

    /// Pop the earliest event, returning its firing time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_keyed().map(|(k, e)| (k.at, e))
    }

    /// Pop the earliest event together with its full key.
    #[cfg_attr(lint, tcc_linear(arena_handle))]
    pub fn pop_keyed(&mut self) -> Option<(EventKey, E)> {
        let (key, h) = self.ladder.pop()?;
        Some((key, self.arena.take(h)))
    }

    /// Pop the earliest event only if it fires strictly before `limit` —
    /// the epoch primitive of the sharded engine. A refusal is O(1): when
    /// the pending minimum already lies at or past the horizon the call
    /// returns without scanning anything.
    #[cfg_attr(lint, tcc_no_alloc, tcc_no_panic)]
    #[cfg_attr(lint, tcc_linear(arena_handle))]
    pub fn pop_keyed_before(&mut self, limit: SimTime) -> Option<(EventKey, E)> {
        let (key, h) = self.ladder.pop_before(limit)?;
        Some((key, self.arena.take(h)))
    }

    /// Time of the earliest pending event, answered from the ladder's
    /// always-valid minimum without any scan.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.ladder.peek_key().map(|k| k.at)
    }

    pub fn len(&self) -> usize {
        self.ladder.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events ever scheduled (for run statistics).
    pub fn scheduled_total(&self) -> u64 {
        self.scheduled_total
    }
}

/// Two-tier ladder queue over `(EventKey, u32)` handle pairs.
///
/// * `bottom` — every pending event with `at <= bot_end`, sorted
///   **ascending** with a head cursor: the live events are
///   `bottom[bot_head..]`, the minimum is `bottom[bot_head]`, and `pop`
///   advances the cursor (O(1), no shifting). Inserts binary-search the
///   live region; an event *later* than everything pending — the
///   dominant pattern in a fabric hot loop, where each flow schedules
///   its next hop at `now + Δ` while the rest of the window fires before
///   it — is a plain `Vec::push`. The dead prefix is compacted away once
///   it outweighs the live region, so cursor advance stays amortised
///   O(1) in both time and space.
/// * `top` — events with `at > bot_end`, unsorted, with `top_min`
///   tracking the minimum key. `top_min` is maintained on insert (one
///   compare) and re-derived during the refill sweep, so it is *always
///   valid* — the lazy min-hint that lets the epoch executive bound a
///   shard's next event time without any scan.
///
/// When `bottom` runs dry, `refill` advances `bot_end` to
/// `top_min + width`, sweeps the qualifying events down in one pass and
/// sorts them (each event is sorted exactly once on its way through the
/// bottom). `width` adapts by feedback — halved when a sweep moves more
/// than [`REFILL_HI`] events, doubled when it moves fewer than
/// [`REFILL_LO`] — which keeps sweep cost and sort depth bounded for
/// clustered *and* sparse populations without a rung hierarchy.
#[derive(Debug)]
struct LadderQueue {
    /// Imminent events, ascending; live region is `bottom[bot_head..]`.
    bottom: Vec<(EventKey, u32)>,
    /// First live index into `bottom`; everything before it was popped.
    bot_head: usize,
    /// Far events (`at > bot_end`), unsorted.
    top: Vec<(EventKey, u32)>,
    /// Minimum key in `top`; `None` iff `top` is empty. Always valid.
    top_min: Option<EventKey>,
    /// Inclusive upper bound (picoseconds) of the bottom tier's window.
    bot_end: u64,
    /// Current refill window width in picoseconds.
    width: u64,
}

/// Initial window: 2^14 ps ≈ 16 ns — the serialisation+drain band of one
/// fabric hop, so fresh queues start near the adapted state.
const INIT_LADDER_WIDTH: u64 = 1 << 14;
/// Refill sizes outside [`REFILL_LO`], [`REFILL_HI`] retune the width.
const REFILL_LO: usize = 8;
const REFILL_HI: usize = 64;
/// Width bounds: 2^6 ps .. 2^40 ps.
const MIN_WIDTH: u64 = 1 << 6;
const MAX_WIDTH: u64 = 1 << 40;
/// Live-bottom length that triggers a spill back to the top tier.
const SPILL_LEN: usize = 128;

impl LadderQueue {
    fn new() -> Self {
        LadderQueue {
            bottom: Vec::new(),
            bot_head: 0,
            top: Vec::new(),
            top_min: None,
            bot_end: 0,
            width: INIT_LADDER_WIDTH,
        }
    }

    #[cfg_attr(lint, tcc_no_alloc, tcc_no_panic)]
    fn insert(&mut self, key: EventKey, handle: u32) {
        if self.bottom.is_empty() && self.top.is_empty() {
            // Queue fully drained: re-anchor the window at the new event
            // so a workload that jumped far ahead (or back) starts clean.
            self.bot_end = key.at.0.saturating_add(self.width);
            self.bottom.push((key, handle));
            return;
        }
        if key.at.0 <= self.bot_end {
            // Ascending order, append fast path first: an event later
            // than everything live (the hot-loop common case) is a plain
            // push. Otherwise binary-search the live region; events
            // before `bottom[bot_head]` cannot exist (time flows
            // forward), so the dead prefix never needs touching.
            if self.bottom.last().is_none_or(|e| e.0 < key) {
                self.bottom.push((key, handle));
            } else {
                let live = &self.bottom[self.bot_head..];
                let idx = self.bot_head + live.partition_point(|e| e.0 < key);
                self.bottom.insert(idx, (key, handle));
            }
            // A window that swallowed the whole population degenerates
            // into a sorted vec with O(n) mid-inserts: spill the latest
            // half back to the top and pull the window in (amortised
            // O(1) — a spill of k events pays for k prior inserts). The
            // boundary must sit between *distinct* times, else a future
            // same-instant insert could land below a spilled key that
            // precedes it in the total order.
            if self.bottom.len() - self.bot_head > SPILL_LEN {
                let mut keep = self.bot_head + (self.bottom.len() - self.bot_head) / 2;
                while keep < self.bottom.len()
                    && self.bottom[keep].0.at == self.bottom[keep - 1].0.at
                {
                    keep += 1;
                }
                if keep < self.bottom.len() {
                    for &(k, h) in &self.bottom[keep..] {
                        self.top.push((k, h));
                        if self.top_min.is_none_or(|m| k < m) {
                            self.top_min = Some(k);
                        }
                    }
                    // The boundary search guarantees a strictly smaller
                    // time before `keep`, so the spilled minimum is >= 1.
                    self.bot_end = self.bottom[keep].0.at.0.saturating_sub(1);
                    self.bottom.truncate(keep);
                    self.width = (self.width / 2).max(MIN_WIDTH);
                }
            }
        } else {
            self.top.push((key, handle));
            if self.top_min.is_none_or(|m| key < m) {
                self.top_min = Some(key);
            }
        }
    }

    /// Move the next window of top events into the bottom and sort it.
    /// Called only when the bottom is dry and the top is not.
    #[cfg_attr(lint, tcc_no_alloc, tcc_no_panic)]
    fn refill(&mut self) {
        debug_assert!(self.bottom.is_empty() && !self.top.is_empty());
        debug_assert_eq!(self.bot_head, 0);
        // The hint is maintained by every push into the top; if it were
        // ever lost, re-derive it with one cold sweep rather than abort.
        let floor = match self.top_min {
            Some(m) => m,
            None => match self.top.iter().map(|&(k, _)| k).min() {
                Some(m) => m,
                None => return,
            },
        };
        self.bot_end = floor.at.0.saturating_add(self.width);
        // One sweep: qualifying events move down (swap_remove keeps the
        // sweep O(n)), the survivors' minimum is re-derived in place.
        let mut new_min: Option<EventKey> = None;
        let mut i = 0;
        while i < self.top.len() {
            let (k, h) = self.top[i];
            if k.at.0 <= self.bot_end {
                self.bottom.push((k, h));
                self.top.swap_remove(i);
            } else {
                if new_min.is_none_or(|m| k < m) {
                    new_min = Some(k);
                }
                i += 1;
            }
        }
        self.top_min = new_min;
        // Ascending: pops advance the head cursor in key order.
        self.bottom.sort_unstable();
        // Feedback width adaptation for the next sweep.
        let moved = self.bottom.len();
        if moved > REFILL_HI {
            self.width = (self.width / 2).max(MIN_WIDTH);
        } else if moved < REFILL_LO {
            self.width = self.width.saturating_mul(2).min(MAX_WIDTH);
        }
        debug_assert!(moved > 0, "window starts at the top minimum");
    }

    /// Take the live minimum and advance the cursor. The dead prefix is
    /// dropped when the live region empties (free) or when it outweighs
    /// the live region (one compaction memmove, amortised O(1) per pop).
    #[cfg_attr(lint, tcc_no_alloc, tcc_no_panic)]
    fn pop_live(&mut self) -> (EventKey, u32) {
        let e = self.bottom[self.bot_head];
        self.bot_head += 1;
        if self.bot_head == self.bottom.len() {
            self.bottom.clear();
            self.bot_head = 0;
        } else if self.bot_head >= 64 && self.bot_head * 2 >= self.bottom.len() {
            self.bottom.drain(..self.bot_head);
            self.bot_head = 0;
        }
        e
    }

    fn pop(&mut self) -> Option<(EventKey, u32)> {
        if self.bottom.is_empty() {
            if self.top.is_empty() {
                return None;
            }
            self.refill();
        }
        Some(self.pop_live())
    }

    /// Pop the minimum only if it fires strictly before `limit`. The
    /// refusal path never scans: the live head or the top hint decides
    /// in one comparison.
    #[cfg_attr(lint, tcc_no_alloc, tcc_no_panic)]
    fn pop_before(&mut self, limit: SimTime) -> Option<(EventKey, u32)> {
        if let Some(&(k, _)) = self.bottom.get(self.bot_head) {
            if k.at >= limit {
                return None;
            }
            return Some(self.pop_live());
        }
        // Bottom dry: the top hint bounds the minimum from below, so a
        // hint at/past the horizon refuses without sweeping.
        if self.top_min.is_none_or(|m| m.at >= limit) {
            return None;
        }
        self.refill();
        match self.bottom.get(self.bot_head) {
            Some(&(k, _)) if k.at < limit => Some(self.pop_live()),
            _ => None,
        }
    }

    fn peek_key(&self) -> Option<EventKey> {
        match self.bottom.get(self.bot_head) {
            Some(&(k, _)) => Some(k),
            // The top minimum IS the queue minimum when the bottom is
            // dry — no refill needed to answer a peek.
            None => self.top_min,
        }
    }

    fn len(&self) -> usize {
        (self.bottom.len() - self.bot_head) + self.top.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    #[test]
    fn orders_by_time() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime(30), "c");
        q.schedule_at(SimTime(10), "a");
        q.schedule_at(SimTime(20), "b");
        assert_eq!(q.peek_time(), Some(SimTime(10)));
        assert_eq!(q.pop(), Some((SimTime(10), "a")));
        assert_eq!(q.pop(), Some((SimTime(20), "b")));
        assert_eq!(q.pop(), Some((SimTime(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn fifo_within_same_instant() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule_at(SimTime(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((SimTime(5), i)));
        }
    }

    #[test]
    fn keyed_order_is_time_src_seq() {
        let mut q = EventQueue::new();
        let k = |at, src, seq| EventKey {
            at: SimTime(at),
            src,
            seq,
        };
        q.schedule_keyed(k(50, 1, 0), "b");
        q.schedule_keyed(k(50, 0, 7), "a");
        q.schedule_keyed(k(50, 1, 1), "c");
        q.schedule_keyed(k(40, 9, 9), "first");
        assert_eq!(q.pop_keyed().unwrap().1, "first");
        assert_eq!(q.pop_keyed().unwrap().1, "a");
        assert_eq!(q.pop_keyed().unwrap().1, "b");
        assert_eq!(q.pop_keyed().unwrap().1, "c");
    }

    #[test]
    fn near_max_keys_survive_window_arithmetic() {
        // "Never"-adjacent keys (SimTime::MAX) put the window bounds next
        // to the top of the u64 range: `bot_end = at + width` must
        // saturate rather than wrap. Mixing near-zero and near-MAX keys
        // through enough inserts to force spills and refills must still
        // drain in exact order.
        let mut q = EventQueue::new();
        for i in 0..64u64 {
            q.schedule_at(SimTime(i), i);
            q.schedule_at(SimTime(u64::MAX - i), u64::MAX - i);
        }
        let mut prev = None;
        let mut n = 0;
        while let Some((at, v)) = q.pop() {
            assert_eq!(at.picos(), v);
            if let Some(p) = prev {
                assert!(at.picos() > p, "{p} then {}", at.picos());
            }
            prev = Some(at.picos());
            n += 1;
        }
        assert_eq!(n, 128);
    }

    #[test]
    fn arena_slot_reuse_keeps_storage_bounded() {
        // Payload slots recycle through the free list: pushing and fully
        // draining 64 events per round must never grow the arena past the
        // high-water population.
        let mut q = EventQueue::new();
        for round in 0..10u64 {
            for i in 0..64u64 {
                q.schedule_at(SimTime(round * 100 + i), i);
            }
            while q.pop().is_some() {}
        }
        assert!(
            q.arena.slots.len() <= 64,
            "arena grew to {}",
            q.arena.slots.len()
        );
        assert_eq!(q.scheduled_total(), 640);
    }

    #[test]
    fn interleaved_pop_and_schedule() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime(1), 1u32);
        q.schedule_at(SimTime(3), 3);
        assert_eq!(q.pop(), Some((SimTime(1), 1)));
        q.schedule_at(SimTime(2), 2);
        assert_eq!(q.pop(), Some((SimTime(2), 2)));
        assert_eq!(q.pop(), Some((SimTime(3), 3)));
    }

    #[test]
    fn survives_refill_churn() {
        // Times spanning ns to ms so the refill width adapts both ways.
        let mut q = EventQueue::new();
        let mut expect = Vec::new();
        let mut x = 0x9E3779B97F4A7C15u64;
        for i in 0..5_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let at = x % 1_000_000_000; // 0..1 ms
            q.schedule_at(SimTime(at), i);
            expect.push((at, i));
        }
        expect.sort();
        let mut got = Vec::new();
        while let Some((t, e)) = q.pop() {
            got.push((t.0, e));
        }
        assert_eq!(got, expect);
    }

    #[test]
    fn handles_far_future_and_past_rewind() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime(1_000_000_000_000), "far"); // 1 s out
        q.schedule_at(SimTime(10), "near");
        assert_eq!(q.pop(), Some((SimTime(10), "near")));
        // After the head advanced, a push behind the far event must
        // still dequeue in order.
        q.schedule_at(SimTime(20), "behind");
        assert_eq!(q.pop(), Some((SimTime(20), "behind")));
        assert_eq!(q.pop(), Some((SimTime(1_000_000_000_000), "far")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn pop_before_respects_the_horizon() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime(10), "a");
        q.schedule_at(SimTime(20), "b");
        q.schedule_at(SimTime(30), "c");
        assert_eq!(q.pop_keyed_before(SimTime(10)), None);
        assert_eq!(q.pop_keyed_before(SimTime(21)).unwrap().1, "a");
        assert_eq!(q.pop_keyed_before(SimTime(21)).unwrap().1, "b");
        assert_eq!(q.pop_keyed_before(SimTime(21)), None);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop_keyed_before(SimTime::MAX).unwrap().1, "c");
        assert_eq!(q.pop_keyed_before(SimTime::MAX), None);
    }

    #[test]
    fn pop_before_fast_refusal_leaves_top_untouched() {
        // The ladder's whole point: a horizon below the pending minimum
        // refuses via the hint without sweeping events into the bottom.
        let mut q = EventQueue::new();
        // "near" seeds the bottom window; "far" lies past it → top tier.
        q.schedule_at(SimTime(5), "near");
        q.schedule_at(SimTime(1_000_000), "far");
        assert_eq!(q.pop().unwrap().1, "near");
        assert_eq!(q.pop_keyed_before(SimTime(100)), None);
        let l = &q.ladder;
        assert!(
            l.bottom.is_empty(),
            "refusal must not sweep the top down: {l:?}"
        );
        assert_eq!(l.top_min.map(|k| k.at), Some(SimTime(1_000_000)));
        assert_eq!(q.pop_keyed_before(SimTime::MAX).unwrap().1, "far");
    }

    #[test]
    fn dense_window_spills_to_top() {
        // A population dense enough to sit entirely inside one bottom
        // window must spill: the live region stays bounded (inserts keep
        // their short-shift cost) and the drain order is still exact.
        let mut q = EventQueue::new();
        for i in 0..512u64 {
            // All within the initial 2^14 ps window, distinct times.
            q.schedule_at(SimTime(1 + (i * 7) % 8000), i);
        }
        let l = &q.ladder;
        assert!(
            l.bottom.len() - l.bot_head <= SPILL_LEN + 1,
            "live bottom must stay capped: {} entries",
            l.bottom.len() - l.bot_head
        );
        assert!(!l.top.is_empty(), "the spill feeds the top tier");
        let mut prev = None;
        for _ in 0..512 {
            let (t, _) = q.pop().expect("512 scheduled");
            if let Some(p) = prev {
                assert!(t >= p, "spill broke the drain order");
            }
            prev = Some(t);
        }
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn peek_hint_survives_inserts() {
        // A peek reads the minimum, then inserts land both behind it
        // (take the hint over) and ahead of it (leave it alone) before
        // the pops check the order.
        let mut q = EventQueue::new();
        q.schedule_at(SimTime(500), "mid");
        assert_eq!(q.peek_time(), Some(SimTime(500)));
        q.schedule_at(SimTime(900), "late"); // keeps the hint
        q.schedule_at(SimTime(100), "early"); // takes the hint over
        assert_eq!(q.peek_time(), Some(SimTime(100)));
        q.schedule_at(SimTime(100), "early2"); // same instant, later seq
        assert_eq!(q.pop(), Some((SimTime(100), "early")));
        assert_eq!(q.pop(), Some((SimTime(100), "early2")));
        assert_eq!(q.peek_time(), Some(SimTime(500)));
        assert_eq!(q.pop(), Some((SimTime(500), "mid")));
        assert_eq!(q.pop(), Some((SimTime(900), "late")));
        assert_eq!(q.pop(), None);
        assert_eq!(q.peek_time(), None);
    }

    /// The ordering oracle: a plain binary heap over the same keys.
    #[derive(Default)]
    struct HeapOracle(BinaryHeap<Reverse<(EventKey, u64)>>);

    impl HeapOracle {
        fn push(&mut self, key: EventKey, v: u64) {
            self.0.push(Reverse((key, v)));
        }

        fn peek_time(&self) -> Option<SimTime> {
            self.0.peek().map(|Reverse((k, _))| k.at)
        }

        fn pop_before(&mut self, limit: SimTime) -> Option<(EventKey, u64)> {
            if self.peek_time()? >= limit {
                return None;
            }
            self.0.pop().map(|Reverse(kv)| kv)
        }

        fn pop(&mut self) -> Option<(EventKey, u64)> {
            self.0.pop().map(|Reverse(kv)| kv)
        }
    }

    /// Drive the ladder and the heap oracle through the engine's
    /// operation mix and require identical answers at every step:
    ///
    /// * `schedule_keyed` from several `src` values, each with its own
    ///   sequence counter, never below the last popped time (the
    ///   executive's contract) — same-instant, near, far and
    ///   near-`SimTime::MAX` delays;
    /// * dense bursts inside one window, several sources per instant,
    ///   enough to force the `SPILL_LEN` spill (asserted to have
    ///   happened) next to equal times;
    /// * `pop_keyed_before` at advancing horizons `min + L`, draining
    ///   each epoch to its refusal, plus deliberate refusals at and
    ///   below the pending minimum;
    /// * `peek_time` and `len` after every operation.
    #[test]
    fn ladder_matches_heap_oracle_on_engine_op_mix() {
        const NEVER: u64 = u64::MAX - 2_000;
        for seed in [0x2545F4914F6CDD1Du64, 0x9E3779B97F4A7C15, 7, 0xDEADBEEF] {
            let mut x = seed;
            let mut rand = move || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            };
            let mut q: EventQueue<u64> = EventQueue::new();
            let mut o = HeapOracle::default();
            let mut seqs = [0u64; 4];
            let mut now = 0u64;
            let mut spilled = false;
            let mut payload = 0u64;
            let mut schedule =
                |q: &mut EventQueue<u64>, o: &mut HeapOracle, src: usize, at: u64| {
                    let key = EventKey {
                        at: SimTime(at),
                        src: src as u32,
                        seq: seqs[src],
                    };
                    seqs[src] += 1;
                    payload += 1;
                    q.schedule_keyed(key, payload);
                    o.push(key, payload);
                };
            let check = |q: &EventQueue<u64>, o: &HeapOracle| {
                assert_eq!(q.peek_time(), o.peek_time(), "seed {seed:#x}: peek");
                assert_eq!(q.len(), o.0.len(), "seed {seed:#x}: len");
            };
            for _ in 0..4_000 {
                match rand() % 20 {
                    // Single schedule from a random source.
                    0..=8 => {
                        let src = (rand() % 4) as usize;
                        // Delays land on a 64 ps grid, as hop and drain
                        // latencies do, so distinct sources often collide
                        // on one instant.
                        let hop = |k: u64| (now / 64 + 1 + k) * 64;
                        let at = match rand() % 16 {
                            0 => now,                       // same instant
                            1 => NEVER + rand() % 1_000,    // "never"
                            2 | 3 => hop(rand() % 150_000), // far
                            _ => hop(rand() % 300),         // next hops
                        };
                        schedule(&mut q, &mut o, src, at);
                    }
                    // Dense burst: > SPILL_LEN events in one window, three
                    // sources per instant, so spills meet equal times.
                    9 => {
                        let base = now.saturating_add(rand() % 64);
                        for i in 0..(SPILL_LEN as u64 + 40) {
                            // Only a spill pulls the bottom window in.
                            let (live, end) = (!q.is_empty(), q.ladder.bot_end);
                            let src = (rand() % 4) as usize;
                            schedule(&mut q, &mut o, src, base + (i / 3) * 8);
                            spilled |= live && q.ladder.bot_end < end;
                        }
                    }
                    // Deliberate refusals at and below the minimum.
                    10 | 11 => {
                        if let Some(min) = o.peek_time() {
                            let below =
                                SimTime(min.picos() - rand() % min.picos().saturating_add(1));
                            for limit in [min, below] {
                                assert_eq!(q.pop_keyed_before(limit), None, "seed {seed:#x}");
                                assert_eq!(o.pop_before(limit), None);
                            }
                        }
                    }
                    // One epoch: drain everything below min + L. The
                    // "never" band is left to the final drain, so the
                    // clock stays finite and keeps feeding live keys.
                    _ => {
                        let Some(min) = o.peek_time() else { continue };
                        if min.picos() >= NEVER {
                            assert_eq!(q.pop_keyed_before(SimTime(NEVER)), None);
                            continue;
                        }
                        let horizon = SimTime(min.picos().saturating_add(1 + rand() % 30_000));
                        loop {
                            let got = q.pop_keyed_before(horizon);
                            assert_eq!(got, o.pop_before(horizon), "seed {seed:#x}");
                            let Some((k, _)) = got else { break };
                            now = k.at.picos();
                            check(&q, &o);
                        }
                    }
                }
                check(&q, &o);
            }
            assert!(spilled, "seed {seed:#x}: no burst exercised the spill");
            // Drain through the horizon primitive first: the never band
            // pops with its window bound saturated at the top of u64.
            loop {
                let got = q.pop_keyed_before(SimTime::MAX);
                assert_eq!(got, o.pop_before(SimTime::MAX), "seed {seed:#x}: drain");
                if got.is_none() {
                    break;
                }
                check(&q, &o);
            }
            while let Some(got) = q.pop_keyed() {
                assert_eq!(Some(got), o.pop(), "seed {seed:#x}: final drain");
            }
            assert_eq!(o.pop(), None);
        }
    }
}
