//! The scan-based decode bookkeeping that `Replica`'s incremental
//! state replaced: a plain `Vec<RunSeq>` in position order, every
//! sequence visited per advance and per slot-sum. The reference the
//! library's running set is checked against; it shares no code with
//! it.

#![allow(dead_code)]

use seesaw_engine::driver::RunSeq;

/// Apply `rounds` decode rounds: advance every context, and
/// `swap_remove` each finished sequence in one ascending scan
/// (re-examining the position a moved sequence lands in). Returns the
/// finished sequences in removal order.
pub fn advance(running: &mut Vec<RunSeq>, rounds: usize) -> Vec<RunSeq> {
    assert!(running.iter().all(|s| s.remaining >= rounds));
    let mut finished = Vec::new();
    let mut i = 0;
    while i < running.len() {
        running[i].ctx += rounds;
        running[i].remaining -= rounds;
        if running[i].remaining == 0 {
            finished.push(running.swap_remove(i));
        } else {
            i += 1;
        }
    }
    finished
}

/// Per micro-batch slot, the sequence count and context sum of the
/// sequences it holds: sequence `i` rides in slot `i % pp`.
pub fn slot_sums(running: &[RunSeq], pp: usize) -> Vec<(usize, usize)> {
    let mut sums = vec![(0, 0); pp];
    for (i, seq) in running.iter().enumerate() {
        let (seqs, ctx) = &mut sums[i % pp];
        *seqs += 1;
        *ctx += seq.ctx;
    }
    sums
}

/// The longest burst every sequence survives (0 when none runs),
/// capped at `cap`.
pub fn max_burst(running: &[RunSeq], cap: usize) -> usize {
    running
        .iter()
        .map(|s| s.remaining)
        .min()
        .unwrap_or(0)
        .min(cap)
}
