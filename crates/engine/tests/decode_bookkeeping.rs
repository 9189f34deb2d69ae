//! `Replica` keeps its decoding sequences incrementally: a step clock,
//! per-slot sums and a heap of end steps (`driver` module docs). The
//! reference here is the scan it replaced (`tests/support/scan.rs`), a
//! plain `Vec<RunSeq>` whose every advance visits every sequence and
//! swap-removes each retiree in one ascending pass. On random pushes,
//! advances and slot-count changes, the two must agree exactly on the
//! position order with every context and remaining count, the order
//! the retirees come out in, the per-slot sums and the longest
//! survivable burst.

#[path = "support/scan.rs"]
mod scan;

use proptest::prelude::*;
use seesaw_engine::driver::{Replica, RunSeq};

/// One step of a random run.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// A sequence `(ctx, remaining)` starts decoding.
    Push(usize, usize),
    /// Advance `eighths`/8 of the longest survivable burst (rounded
    /// down; 8 retires every sequence at the minimum).
    Advance(usize),
    /// Re-lay the replica out over this many slots.
    Slots(usize),
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    let op = (0u32..10, 1usize..4000, 1usize..40, 0usize..9, 1usize..5).prop_map(
        |(kind, ctx, remaining, eighths, pp)| match kind {
            0..=4 => Op::Push(ctx, remaining),
            // Half the advances run the longest burst, so they retire.
            5..=6 => Op::Advance(8),
            7..=8 => Op::Advance(eighths),
            _ => Op::Slots(pp),
        },
    );
    prop::collection::vec(op, 1..200)
}

/// Run `ops` on a replica and on the scan, comparing after each one.
fn check(pp: usize, ops: &[Op]) {
    let mut rep = Replica::new(0, 1 << 30, pp);
    let mut reference: Vec<RunSeq> = Vec::new();
    let mut pp = pp;
    let mut next_id = 0u64;
    for (k, &op) in ops.iter().enumerate() {
        match op {
            Op::Push(ctx, remaining) => {
                rep.kv.allocate(next_id, ctx + remaining).expect("KV fits");
                let seq = RunSeq {
                    id: next_id,
                    ctx,
                    remaining,
                };
                rep.push_running(seq);
                reference.push(seq);
                next_id += 1;
            }
            Op::Advance(eighths) => {
                let burst = scan::max_burst(&reference, usize::MAX);
                assert_eq!(rep.max_burst(usize::MAX), burst, "op {}", k);
                let rounds = burst * eighths / 8;
                let finished = rep.advance_decode(rounds).to_vec();
                assert_eq!(finished, scan::advance(&mut reference, rounds), "op {}", k);
                assert_eq!(rep.kv.num_seqs(), reference.len(), "op {}", k);
            }
            Op::Slots(n) => {
                pp = n;
                rep.reset_tails(pp);
            }
        }
        assert_eq!(rep.num_running(), reference.len(), "op {}", k);
        assert_eq!(rep.running().collect::<Vec<_>>(), reference.clone(), "op {}", k);
        let sums: Vec<(usize, usize)> = rep.slot_sums().collect();
        assert_eq!(sums, scan::slot_sums(&reference, pp), "op {}", k);
        assert_eq!(rep.max_burst(7), scan::max_burst(&reference, 7), "op {}", k);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn incremental_bookkeeping_matches_the_scan(pp in 1usize..5, ops in ops()) {
        check(pp, &ops);
    }
}

/// Four sequences in a 2-slot layout, the second and the last retiring
/// together: the last moves into the second's freed position and is
/// removed there again, so the third sequence is the one left in
/// slot 1.
#[test]
fn a_retiree_moved_into_a_freed_position_retires_there() {
    let ops = [
        Op::Push(100, 5),
        Op::Push(200, 2),
        Op::Push(300, 4),
        Op::Push(400, 2),
        Op::Advance(8),
        Op::Advance(8),
    ];
    check(2, &ops);
    let mut rep = Replica::new(0, 1 << 20, 2);
    for (id, &(ctx, remaining)) in [(100, 5), (200, 2), (300, 4), (400, 2)].iter().enumerate() {
        rep.kv.allocate(id as u64, ctx + remaining).expect("KV fits");
        rep.push_running(RunSeq {
            id: id as u64,
            ctx,
            remaining,
        });
    }
    let finished: Vec<u64> = rep.advance_decode(2).iter().map(|s| s.id).collect();
    assert_eq!(finished, [1, 3]);
    let left: Vec<u64> = rep.running().map(|s| s.id).collect();
    assert_eq!(left, [0, 2]);
    assert_eq!(rep.slot_sums().collect::<Vec<_>>(), [(1, 102), (1, 302)]);
}
