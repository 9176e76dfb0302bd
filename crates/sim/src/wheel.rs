//! Hierarchical timer wheel — the executor's timer queue.
//!
//! The seed executor kept every pending timer in one `BinaryHeap` and
//! popped them one at a time: `O(log n)` per insert and per pop, with
//! same-deadline timers (a 10k-device cluster arms *thousands* of
//! identical-deadline timers per simulated step) each paying their own
//! heap sift. This wheel replaces it with the classic hashed
//! hierarchical design (Varghese & Lauck; the Linux kernel's timer
//! wheel), adapted for discrete-event simulation:
//!
//! * [`TimerWheel::insert`] is `O(1)` for the common short-deadline
//!   case: the level is found from the bit-length of the delta and the
//!   entry is pushed onto a slot `Vec`.
//! * Same-tick timers coalesce into one slot, so
//!   [`TimerWheel::pop_batch_into`] hands the executor *every* timer of
//!   the next deadline in one call — one structure operation per simulated
//!   instant instead of one per timer.
//! * Virtual time can jump arbitrarily far, so the wheel never scans
//!   empty ticks: per-level occupancy bitmaps (one `u64` per 64-slot
//!   level) find the next occupied slot with bit arithmetic, and
//!   deadlines beyond the wheel's span live in an overflow `BTreeMap`
//!   consulted only when every level is empty.
//!
//! Firing order is bit-identical to the heap it replaces: batches come
//! out in deadline order, and entries within a batch are sorted by
//! registration sequence.

use std::collections::BTreeMap;

use crate::time::SimTime;

/// Slots per level (fixed at 64 so occupancy is one `u64` bitmap).
const SLOTS: usize = 64;
/// log2(SLOTS).
const SLOT_BITS: u32 = 6;
/// Number of wheel levels. Level `l` slots span `64^l` ticks, so six
/// levels cover `64^6` ns ≈ 68 virtual seconds from the cursor; later
/// deadlines overflow into a `BTreeMap` (rare: one entry per distinct
/// far deadline, reinserted in bulk when the wheel drains to it).
const LEVELS: usize = 6;

/// One pending timer.
#[derive(Debug)]
struct Entry<T> {
    deadline: u64,
    seq: u64,
    value: T,
}

/// A hierarchical timer wheel keyed by [`SimTime`] deadlines.
///
/// `T` is the payload fired per timer (the executor stores wakers).
pub struct TimerWheel<T> {
    /// `levels[l][s]` holds entries whose deadline maps to slot `s` of
    /// level `l` relative to the cursor.
    levels: Vec<Vec<Vec<Entry<T>>>>,
    /// Per-level occupancy bitmap: bit `s` set iff `levels[l][s]` is
    /// non-empty.
    occupancy: [u64; LEVELS],
    /// Deadlines beyond the top level's span, keyed by deadline.
    overflow: BTreeMap<u64, Vec<Entry<T>>>,
    /// The wheel's notion of "now", in ticks (nanoseconds). Only ever
    /// advanced to the earliest pending deadline (during a settle) or
    /// the deadline of a fired batch — never past a pending timer.
    cursor: u64,
    /// Total pending entries.
    len: usize,
    /// Empty-but-capacitated slot buffers recycled between fires, so a
    /// steady-state wheel stops allocating: every pop returns its
    /// drained buffer here and `place` hands one to the next slot
    /// that would otherwise allocate from scratch.
    spare: Vec<Vec<Entry<T>>>,
}

/// Cap on recycled slot buffers (a pop donates one per fire but
/// `place` only consumes one per *cold* slot, so the pool would
/// otherwise grow without bound).
const SPARE_CAP: usize = 64;

impl<T> TimerWheel<T> {
    /// An empty wheel with its cursor at the epoch.
    pub fn new() -> Self {
        TimerWheel {
            levels: (0..LEVELS)
                .map(|_| (0..SLOTS).map(|_| Vec::new()).collect())
                .collect(),
            occupancy: [0; LEVELS],
            overflow: BTreeMap::new(),
            cursor: 0,
            len: 0,
            spare: Vec::new(),
        }
    }

    /// Donates a drained slot buffer back to the recycle pool.
    fn recycle(&mut self, buf: Vec<Entry<T>>) {
        debug_assert!(buf.is_empty());
        if self.spare.len() < SPARE_CAP {
            self.spare.push(buf);
        }
    }

    /// Number of pending timers.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no timer is pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Registers a timer. `seq` orders timers that share a deadline
    /// (registration order, assigned by the caller).
    ///
    /// # Panics
    ///
    /// Panics if `deadline` is before a batch that already fired (the
    /// executor never registers timers in the past).
    pub fn insert(&mut self, deadline: SimTime, seq: u64, value: T) {
        let deadline = deadline.as_nanos();
        assert!(deadline >= self.cursor, "timer registered in the past");
        self.len += 1;
        let entry = Entry {
            deadline,
            seq,
            value,
        };
        self.place(entry);
    }

    /// Puts one entry into the level/slot (or overflow) it belongs to
    /// relative to the current cursor.
    fn place(&mut self, entry: Entry<T>) {
        let deadline = entry.deadline;
        // The entry lives at the lowest level whose *parent* slot is
        // the cursor's — i.e. the level of the highest bit where the
        // deadline and the cursor differ. Within that rotation the
        // slot index is unambiguous and still in the future.
        let diff = deadline ^ self.cursor;
        let level = if diff == 0 {
            0
        } else {
            ((63 - diff.leading_zeros()) / SLOT_BITS) as usize
        };
        if level >= LEVELS {
            self.overflow.entry(deadline).or_default().push(entry);
            return;
        }
        let slot = (deadline >> (SLOT_BITS * level as u32)) as usize & (SLOTS - 1);
        let bucket = &mut self.levels[level][slot];
        if bucket.capacity() == 0 {
            if let Some(buf) = self.spare.pop() {
                *bucket = buf;
            }
        }
        bucket.push(entry);
        self.occupancy[level] |= 1 << slot;
    }

    /// Deadline of the next pending timer, if any.
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.min_pending().map(SimTime::from_nanos)
    }

    /// Earliest pending deadline, computed *without* moving the cursor.
    ///
    /// The earliest entry lives either in level 0 (where the bitmap's
    /// lowest set bit is the exact deadline), in the earliest occupied
    /// slot of the lowest occupied level (scan that one slot), or in
    /// the overflow map. Entries in later slots, higher levels, or the
    /// overflow are all strictly later than that slot's span.
    fn min_pending(&self) -> Option<u64> {
        if self.occupancy[0] != 0 {
            let slot = self.occupancy[0].trailing_zeros() as usize;
            let base = (self.cursor >> SLOT_BITS) << SLOT_BITS;
            return Some(base + slot as u64);
        }
        for level in 1..LEVELS {
            if self.occupancy[level] == 0 {
                continue;
            }
            let shift = SLOT_BITS * level as u32;
            let cur_slot = (self.cursor >> shift) as usize & (SLOTS - 1);
            let ahead = self.occupancy[level] & (!0u64 << cur_slot);
            debug_assert!(ahead != 0, "occupied slot behind the cursor");
            let slot = ahead.trailing_zeros() as usize;
            return self.levels[level][slot].iter().map(|e| e.deadline).min();
        }
        self.overflow.keys().next().copied()
    }

    /// Removes and returns every timer of the earliest deadline, sorted
    /// by registration sequence, if that deadline is `<= limit`.
    /// Advances the wheel's cursor to the fired deadline.
    ///
    /// When nothing fires (empty, or earliest deadline past `limit`)
    /// the wheel is left untouched — in particular the cursor does not
    /// move, so timers registered later at deadlines after the caller's
    /// "now" but before the earliest pending one remain valid.
    #[cfg(test)]
    pub fn pop_batch(&mut self, limit: SimTime) -> Option<(SimTime, Vec<T>)> {
        let mut values = Vec::new();
        let deadline = self.pop_batch_into(limit, &mut values)?;
        Some((deadline, values))
    }

    /// Removes every timer of the earliest deadline if that deadline
    /// is `<= limit`, appending the fired values to `out` in
    /// registration-sequence order, and advances the cursor to the
    /// fired deadline. Returns the deadline, or `None` (wheel left
    /// fully untouched) when nothing fires. The caller owns `out` and
    /// can recycle it across its run loop, so a steady-state pop
    /// performs no allocation at all.
    ///
    /// The earliest occupied slot of the lowest occupied level holds
    /// the globally earliest wheel deadline: same-level entries in
    /// later slots start after this slot's window ends, and an entry at
    /// a higher level `m` lies outside the cursor's level-`m` window
    /// while this slot lies inside it. (Overflow keys are later still:
    /// they sit in top-level windows beyond the cursor's.) The cursor
    /// can therefore jump straight to that minimum — skipping nothing —
    /// and each displaced entry re-places exactly once, instead of
    /// cascading down one level per pass. This is what makes sparse
    /// far-apart timers (a simulated device sleeping ~100µs at ns
    /// resolution) as cheap to fire as dense near ones.
    #[expect(clippy::expect_used, reason = "occupied bit over empty slot")]
    pub fn pop_batch_into(&mut self, limit: SimTime, out: &mut Vec<T>) -> Option<SimTime> {
        let limit = limit.as_nanos();
        // Fast path: the earliest timer is already in a level-0 slot.
        // Level-0 entries lie in the cursor's current 64-tick window,
        // so the bitmap's lowest set bit *is* the next deadline.
        if self.occupancy[0] != 0 {
            let slot = self.occupancy[0].trailing_zeros() as usize;
            let deadline = ((self.cursor >> SLOT_BITS) << SLOT_BITS) + slot as u64;
            if deadline > limit {
                return None;
            }
            let batch = std::mem::take(&mut self.levels[0][slot]);
            self.occupancy[0] &= !(1u64 << slot);
            return Some(self.fire(deadline, batch, out));
        }
        if let Some(level) = (1..LEVELS).find(|l| self.occupancy[*l] != 0) {
            let shift = SLOT_BITS * level as u32;
            let cur_slot = (self.cursor >> shift) as usize & (SLOTS - 1);
            // All entries are >= cursor, so the earliest occupied slot
            // is at or after the cursor's own slot in this rotation.
            let ahead = self.occupancy[level] & (!0u64 << cur_slot);
            debug_assert!(ahead != 0, "occupied slot behind the cursor");
            let slot = ahead.trailing_zeros() as usize;
            let min = self.levels[level][slot]
                .iter()
                .map(|e| e.deadline)
                .min()
                .expect("occupied slot is non-empty");
            if min > limit {
                // Nothing fires; the wheel (cursor included) is left
                // untouched so the caller may still register timers
                // between its unadvanced "now" and `min`.
                return None;
            }
            let mut entries = std::mem::take(&mut self.levels[level][slot]);
            self.occupancy[level] &= !(1u64 << slot);
            self.cursor = min;
            // Split the slot: the minimum's entries fire right now;
            // later ones re-place relative to the jumped cursor.
            let mut batch = self.spare.pop().unwrap_or_default();
            for e in entries.drain(..) {
                if e.deadline == min {
                    batch.push(e);
                } else {
                    self.place(e);
                }
            }
            self.recycle(entries);
            return Some(self.fire(min, batch, out));
        }
        // Wheel empty: the earliest overflow key fires. Pull the rest
        // of its *top-level window* into the wheel, so overflow keys
        // stay strictly beyond the cursor's top window and the wheel
        // branches above stay authoritative about the minimum.
        let (&first, _) = self.overflow.first_key_value()?;
        if first > limit {
            return None;
        }
        let (first, batch) = self.overflow.pop_first()?;
        self.cursor = first;
        let top_shift = SLOT_BITS * LEVELS as u32;
        let window = first >> top_shift;
        while self
            .overflow
            .first_key_value()
            .is_some_and(|(&d, _)| d >> top_shift == window)
        {
            let Some((_, entries)) = self.overflow.pop_first() else {
                break;
            };
            for e in entries {
                self.place(e);
            }
        }
        Some(self.fire(first, batch, out))
    }

    /// Finalizes a popped batch: restores registration order, moves the
    /// values out, and recycles the buffer.
    fn fire(&mut self, deadline: u64, mut batch: Vec<Entry<T>>, out: &mut Vec<T>) -> SimTime {
        debug_assert!(!batch.is_empty());
        debug_assert!(batch.iter().all(|e| e.deadline == deadline));
        self.cursor = deadline;
        self.len -= batch.len();
        // Cursor jumps preserve per-slot insertion order but interleave
        // sources; sequence order is restored here, once per batch.
        batch.sort_by_key(|e| e.seq);
        out.extend(batch.drain(..).map(|e| e.value));
        self.recycle(batch);
        SimTime::from_nanos(deadline)
    }
}

impl<T> Default for TimerWheel<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> std::fmt::Debug for TimerWheel<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TimerWheel")
            .field("len", &self.len)
            .field("cursor", &self.cursor)
            .field("overflow", &self.overflow.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    /// Drains the wheel fully, returning `(deadline, values)` batches.
    fn drain(w: &mut TimerWheel<u64>) -> Vec<(u64, Vec<u64>)> {
        let mut out = Vec::new();
        while let Some((d, vs)) = w.pop_batch(SimTime::MAX) {
            out.push((d.as_nanos(), vs));
        }
        out
    }

    #[test]
    fn fires_in_deadline_then_seq_order() {
        let mut w = TimerWheel::new();
        // Deliberately interleaved deadlines across levels.
        for (i, ns) in [500u64, 3, 70_000, 3, 4096, 64, 500].iter().enumerate() {
            w.insert(t(*ns), i as u64, i as u64);
        }
        assert_eq!(w.len(), 7);
        let batches = drain(&mut w);
        assert_eq!(
            batches,
            vec![
                (3, vec![1, 3]), // same tick coalesced, seq order kept
                (64, vec![5]),
                (500, vec![0, 6]),
                (4096, vec![4]),
                (70_000, vec![2]),
            ]
        );
        assert!(w.is_empty());
    }

    #[test]
    fn ordering_across_all_levels_and_overflow() {
        // One timer per level plus two in overflow territory; they must
        // come out strictly sorted regardless of storage level.
        let mut w = TimerWheel::new();
        let deadlines = [
            1u64,
            63,
            64,
            4_095,
            4_096,
            262_143,
            262_144,
            1 << 30,
            1 << 35,
            (1 << 36) + 17, // past the 64^6 span: overflow
            u64::MAX / 2,   // deep overflow
        ];
        for (i, ns) in deadlines.iter().enumerate() {
            w.insert(t(*ns), i as u64, *ns);
        }
        let fired: Vec<u64> = drain(&mut w).into_iter().map(|(d, _)| d).collect();
        let mut sorted = deadlines.to_vec();
        sorted.sort_unstable();
        assert_eq!(fired, sorted);
    }

    #[test]
    fn same_tick_timers_coalesce_into_one_batch() {
        let mut w = TimerWheel::new();
        for seq in 0..1000u64 {
            w.insert(t(12_345), seq, seq);
        }
        let (d, vs) = w.pop_batch(SimTime::MAX).unwrap();
        assert_eq!(d, t(12_345));
        assert_eq!(vs, (0..1000).collect::<Vec<_>>());
        assert!(w.pop_batch(SimTime::MAX).is_none());
    }

    #[test]
    fn pop_batch_respects_limit() {
        let mut w = TimerWheel::new();
        w.insert(t(100), 0, 0);
        w.insert(t(200), 1, 1);
        assert!(w.pop_batch(t(99)).is_none());
        assert_eq!(w.len(), 2, "limited pop leaves timers pending");
        let (d, _) = w.pop_batch(t(100)).unwrap();
        assert_eq!(d, t(100));
        assert!(w.pop_batch(t(150)).is_none());
        assert_eq!(w.pop_batch(t(200)).unwrap().0, t(200));
    }

    #[test]
    fn next_deadline_peeks_without_firing() {
        let mut w: TimerWheel<()> = TimerWheel::new();
        assert_eq!(w.next_deadline(), None);
        w.insert(t(1 << 20), 0, ());
        w.insert(t(77), 1, ());
        assert_eq!(w.next_deadline(), Some(t(77)));
        assert_eq!(w.len(), 2);
    }

    #[test]
    fn inserts_between_pops_keep_exact_order() {
        let mut w = TimerWheel::new();
        w.insert(t(10), 0, 0);
        w.insert(t(1_000_000), 1, 1);
        assert_eq!(w.pop_batch(SimTime::MAX).unwrap().0, t(10));
        // Cursor is now at 10; a short relative sleep lands at level 0/1.
        w.insert(t(20), 2, 2);
        w.insert(t(1_000_000), 3, 3);
        assert_eq!(w.pop_batch(SimTime::MAX).unwrap(), (t(20), vec![2]));
        // The same-deadline pair merged across an intervening cascade
        // still fires as one seq-ordered batch.
        assert_eq!(
            w.pop_batch(SimTime::MAX).unwrap(),
            (t(1_000_000), vec![1, 3])
        );
    }

    #[test]
    fn randomized_against_a_sorted_reference() {
        // Seeded xorshift so the test is deterministic without rand.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut w = TimerWheel::new();
        let mut reference: Vec<(u64, u64)> = Vec::new(); // (deadline, seq)
        let mut seq = 0u64;
        let mut now = 0u64;
        for round in 0..200 {
            // Insert a burst of timers at deadlines >= now, spanning
            // every level (biased short like real sleeps).
            for _ in 0..(rng() % 8 + 1) {
                let r = rng();
                let delta = match r % 5 {
                    0 => r % 64,
                    1 => r % 4_096,
                    2 => r % 1_000_000,
                    3 => r % (1 << 30),
                    _ => r % (1 << 40),
                } + 1;
                let deadline = now + delta;
                w.insert(t(deadline), seq, seq);
                reference.push((deadline, seq));
                seq += 1;
            }
            // Pop a few batches and compare against the reference.
            for _ in 0..(rng() % 3) {
                reference.sort_unstable();
                match w.pop_batch(SimTime::MAX) {
                    Some((d, vs)) => {
                        now = d.as_nanos();
                        let expect: Vec<u64> = reference
                            .iter()
                            .take_while(|(dl, _)| *dl == now)
                            .map(|(_, s)| *s)
                            .collect();
                        assert_eq!(vs, expect, "round {round}: batch mismatch at {now}");
                        reference.drain(..expect.len());
                    }
                    None => assert!(reference.is_empty()),
                }
            }
        }
        // Drain the tail.
        reference.sort_unstable();
        let fired: Vec<u64> = drain(&mut w).into_iter().flat_map(|(_, vs)| vs).collect();
        let expect: Vec<u64> = reference.iter().map(|(_, s)| *s).collect();
        assert_eq!(fired, expect);
    }

    #[test]
    fn zero_then_max_span() {
        let mut w = TimerWheel::new();
        w.insert(t(0), 0, 0);
        assert_eq!(w.pop_batch(SimTime::MAX).unwrap(), (t(0), vec![0]));
        w.insert(SimTime::MAX, 1, 1);
        assert_eq!(w.next_deadline(), Some(SimTime::MAX));
        assert_eq!(w.pop_batch(SimTime::MAX).unwrap().0, SimTime::MAX);
    }

    #[test]
    fn far_deadline_sleeps_compose_with_near_ones() {
        // A "heartbeat" far timer must not perturb dense near timers —
        // the pattern a 10k-device sim produces constantly.
        let mut w = TimerWheel::new();
        w.insert(t(1 << 40), 0, 999);
        for ns in 1..100u64 {
            w.insert(t(ns * 1000), ns, ns);
        }
        let batches = drain(&mut w);
        assert_eq!(batches.len(), 100);
        assert_eq!(batches.last().unwrap(), &((1 << 40), vec![999]));
    }

    #[test]
    fn limited_pop_leaves_cursor_for_earlier_inserts() {
        // A bounded run must not burn the cursor toward a far pending
        // timer: the caller's clock did not advance, and it may later
        // register timers before that far deadline.
        let mut w = TimerWheel::new();
        w.insert(t(1_000_000), 0, 0);
        assert!(w.pop_batch(t(10)).is_none());
        w.insert(t(100), 1, 1); // after "now" (0), before the pending timer
        assert_eq!(w.pop_batch(t(100)).unwrap(), (t(100), vec![1]));
        assert_eq!(w.pop_batch(SimTime::MAX).unwrap(), (t(1_000_000), vec![0]));
    }

    #[test]
    #[should_panic(expected = "registered in the past")]
    fn past_insert_panics() {
        let mut w = TimerWheel::new();
        w.insert(t(100), 0, 0);
        w.pop_batch(SimTime::MAX);
        w.insert(t(50), 1, 1);
    }

    #[test]
    fn dropped_value_is_gone_after_fire() {
        // "Cancellation" in the executor is dropping the Sleep future;
        // the waker still fires but wakes nothing. At the wheel layer
        // that means values are returned exactly once and the wheel
        // holds no residue.
        let mut w = TimerWheel::new();
        let payload = std::rc::Rc::new(());
        w.insert(t(5), 0, std::rc::Rc::clone(&payload));
        assert_eq!(std::rc::Rc::strong_count(&payload), 2);
        let (_, vs) = w.pop_batch(SimTime::MAX).unwrap();
        drop(vs);
        assert_eq!(std::rc::Rc::strong_count(&payload), 1);
        assert!(w.is_empty());
    }

    #[test]
    fn cursor_jumps_do_not_skip_timers() {
        // Fire a far timer (big cursor jump through multiple levels),
        // then insert near timers and make sure nothing is lost.
        let mut w = TimerWheel::new();
        w.insert(t(10_000_000_000), 0, 0); // 10s
        assert_eq!(w.pop_batch(SimTime::MAX).unwrap().0, t(10_000_000_000));
        for (i, d) in [1u64, 2, 3].iter().enumerate() {
            w.insert(
                t(10_000_000_000) + SimDuration::from_nanos(*d),
                i as u64 + 1,
                *d,
            );
        }
        let fired: Vec<u64> = drain(&mut w).into_iter().flat_map(|(_, v)| v).collect();
        assert_eq!(fired, vec![1, 2, 3]);
    }
}
