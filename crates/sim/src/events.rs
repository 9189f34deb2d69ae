//! A deterministic time-ordered event queue for the controller loop.
//!
//! Events are keyed by a packed `u128` — time bits first, then an
//! insertion sequence number — so equal-time events pop in push order
//! and the heap never compares floats directly. The autoscale
//! controller keeps here only the redispatches it schedules as it runs
//! (retries and resumes) and merges them with its already-sorted kills
//! and arrivals, read by cursor, so the queue holds what is pending,
//! not the whole trace; the fixed fleet's sorted arrivals need no
//! queue at all. Events come out in one deterministic order,
//! independent of how many worker threads later simulate the
//! consequences. (The engines' [`Simulator`](crate::Simulator) needs
//! no queue: its resources serve in submission order, so every
//! completion time is known up front.)
//!
//! Determinism contract: for a fixed push sequence, the pop sequence
//! is fixed. Ties on time break by push order (FIFO), which is what a
//! merged multi-stream timeline needs — a retry scheduled after an
//! arrival at the same instant is observed after it.

use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Pack `(time, seq)` into one ordered `u128` key.
///
/// Non-negative finite `f64` bit patterns order identically to the
/// values themselves, so `time.to_bits()` in the high 64 bits gives
/// time-major order and `seq` in the low 64 bits gives FIFO ties.
fn pack_key(at: SimTime, seq: u64) -> u128 {
    ((at.as_secs().to_bits() as u128) << 64) | seq as u128
}

fn unpack_time(key: u128) -> SimTime {
    SimTime::from_secs(f64::from_bits((key >> 64) as u64))
}

fn unpack_seq(key: u128) -> u64 {
    key as u64
}

/// A time-ordered min-queue of payload-carrying events.
///
/// Payloads live in a slot vector; the heap holds only packed keys
/// plus slot indices, so ordering never touches the payload type and
/// `T` needs no trait bounds. Popped slots are recycled.
#[derive(Debug)]
pub struct EventQueue<T> {
    heap: BinaryHeap<Reverse<(u128, usize)>>,
    slots: Vec<Option<T>>,
    free: Vec<usize>,
    seq: u64,
    /// The timestamp of the last popped event (zero before any pop).
    now: SimTime,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// An empty queue with the clock at zero.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedule `payload` at time `at`. Panics if `at` precedes the
    /// last popped event — events in the past would break causality.
    pub fn push(&mut self, at: SimTime, payload: T) {
        assert!(
            at >= self.now,
            "event at {at} precedes the clock at {}",
            self.now
        );
        let slot = match self.free.pop() {
            Some(i) => {
                self.slots[i] = Some(payload);
                i
            }
            None => {
                self.slots.push(Some(payload));
                self.slots.len() - 1
            }
        };
        self.seq += 1;
        self.heap.push(Reverse((pack_key(at, self.seq), slot)));
    }

    /// Timestamp of the next event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse((key, _))| unpack_time(*key))
    }

    /// Pop the earliest event, advancing the clock to its timestamp.
    /// Equal-time events pop in push order.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        let Reverse((key, slot)) = self.heap.pop()?;
        let at = unpack_time(key);
        debug_assert!(unpack_seq(key) <= self.seq);
        self.now = at;
        let payload = self.slots[slot].take().expect("slot holds a pending event");
        self.free.push(slot);
        Some((at, payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(3.0), "c");
        q.push(SimTime::from_secs(1.0), "a");
        q.push(SimTime::from_secs(2.0), "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn equal_times_pop_fifo() {
        let mut q = EventQueue::new();
        for i in 0..8 {
            q.push(SimTime::from_secs(1.0), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_push_pop_recycles_slots() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(1.0), 1u32);
        q.push(SimTime::from_secs(5.0), 5);
        assert_eq!(q.pop(), Some((SimTime::from_secs(1.0), 1)));
        // Push after a pop reuses the freed slot and may be earlier
        // than already-pending events, as long as it is not earlier
        // than the clock.
        q.push(SimTime::from_secs(2.0), 2);
        q.push(SimTime::from_secs(3.0), 3);
        assert!(q.slots.len() <= 3, "freed slots are reused");
        assert_eq!(q.pop(), Some((SimTime::from_secs(2.0), 2)));
        assert_eq!(q.pop(), Some((SimTime::from_secs(3.0), 3)));
        assert_eq!(q.pop(), Some((SimTime::from_secs(5.0), 5)));
        assert!(q.pop().is_none());
        assert!(q.is_empty());
    }

    #[test]
    fn peek_does_not_advance_clock() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(4.0), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(4.0)));
        // Peeking moved nothing: an earlier event is still accepted.
        q.push(SimTime::from_secs(1.0), ());
        assert_eq!(q.pop(), Some((SimTime::from_secs(1.0), ())));
        assert_eq!(q.pop(), Some((SimTime::from_secs(4.0), ())));
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    #[should_panic(expected = "precedes the clock")]
    fn push_into_past_rejected() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(2.0), ());
        q.pop();
        q.push(SimTime::from_secs(1.0), ());
    }
}
