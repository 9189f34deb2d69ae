//! The tiered CPU KV buffer (paper §4.2).
//!
//! During Seesaw's prefill phase, finished prompts' KV caches are
//! swapped out to this host-memory buffer; the transition-minimizing
//! scheduler flips the cluster to decode only when the buffer is
//! *full*, and back to prefill only when it is *empty*. Because the
//! buffer is in OS shared memory visible to all workers, pushing
//! shards under `c_p` and pulling them under `c_d` performs KV
//! re-sharding for free (Figure 7).

use std::collections::VecDeque;

/// A prefilled sequence parked in host memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BufferedSeq {
    /// Request id.
    pub req_id: u64,
    /// Prompt tokens whose KV is buffered.
    pub tokens: usize,
    /// Tokens this sequence will generate (carried along so the
    /// decode scheduler can plan capacity).
    pub output_len: usize,
}

/// FIFO host-memory KV store with a token-capacity budget.
#[derive(Debug, Clone)]
pub struct CpuKvBuffer {
    capacity_tokens: u64,
    used_tokens: u64,
    queue: VecDeque<BufferedSeq>,
}

impl CpuKvBuffer {
    /// A buffer holding up to `capacity_tokens` tokens of KV.
    pub fn new(capacity_tokens: u64) -> Self {
        CpuKvBuffer {
            capacity_tokens,
            used_tokens: 0,
            queue: VecDeque::new(),
        }
    }

    /// Whether a sequence of `tokens` would fit right now.
    pub fn can_fit(&self, tokens: usize) -> bool {
        self.used_tokens + tokens as u64 <= self.capacity_tokens
    }

    /// Park a prefilled sequence. Returns `false` (and does nothing)
    /// if it does not fit — the transition signal.
    pub fn push(&mut self, seq: BufferedSeq) -> bool {
        if !self.can_fit(seq.tokens) {
            return false;
        }
        self.used_tokens += seq.tokens as u64;
        self.queue.push_back(seq);
        true
    }

    /// Next sequence to swap in (FIFO), removing it from the buffer.
    pub fn pop(&mut self) -> Option<BufferedSeq> {
        let seq = self.queue.pop_front()?;
        self.used_tokens -= seq.tokens as u64;
        Some(seq)
    }

    /// Peek the next sequence without removing it.
    pub fn peek(&self) -> Option<&BufferedSeq> {
        self.queue.front()
    }

    /// Buffered sequence count.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether the buffer holds no sequences.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Tokens currently buffered.
    pub fn used_tokens(&self) -> u64 {
        self.used_tokens
    }

    /// Token capacity.
    pub fn capacity_tokens(&self) -> u64 {
        self.capacity_tokens
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(id: u64, tokens: usize) -> BufferedSeq {
        BufferedSeq {
            req_id: id,
            tokens,
            output_len: 100,
        }
    }

    #[test]
    fn fifo_order_preserved() {
        let mut buf = CpuKvBuffer::new(10_000);
        for i in 0..5 {
            assert!(buf.push(seq(i, 100)));
        }
        for i in 0..5 {
            assert_eq!(buf.pop().unwrap().req_id, i);
        }
        assert!(buf.pop().is_none());
    }

    #[test]
    fn capacity_signal() {
        let mut buf = CpuKvBuffer::new(250);
        assert!(buf.push(seq(0, 100)));
        assert!(buf.push(seq(1, 100)));
        assert!(!buf.can_fit(100));
        assert!(!buf.push(seq(2, 100)), "push past capacity must fail");
        assert_eq!(buf.len(), 2);
        assert_eq!(buf.used_tokens(), 200);
        buf.pop();
        assert!(buf.push(seq(2, 100)));
    }

    #[test]
    fn token_accounting_balances() {
        let mut buf = CpuKvBuffer::new(1_000);
        buf.push(seq(0, 300));
        buf.push(seq(1, 200));
        assert_eq!(buf.used_tokens(), 500);
        buf.pop();
        assert_eq!(buf.used_tokens(), 200);
        buf.pop();
        assert_eq!(buf.used_tokens(), 0);
        assert!(buf.is_empty());
    }

    #[test]
    fn zero_capacity_is_always_full() {
        let buf = CpuKvBuffer::new(0);
        assert!(!buf.can_fit(1));
    }
}
