//! The live state of a finished run, read straight from its timeline:
//! the oracle for an actor's depth and work reads.

use seesaw_engine::{Depth, EngineReport};

/// The waiting/running counts of `report`'s entries that have arrived
/// by `t` and are unfinished then, and their summed remaining seconds
/// `completion_s - t`, added in timeline (request-id) order from `0.0`.
pub fn live_state(report: &EngineReport, t: f64) -> (Depth, f64) {
    let mut waiting = 0usize;
    let mut running = 0usize;
    let mut work_s = 0.0f64;
    for entry in &report.timeline {
        if entry.arrival_s > t || entry.completion_s <= t {
            continue;
        }
        if entry.first_token_s <= t {
            running += 1;
        } else {
            waiting += 1;
        }
        work_s += entry.completion_s - t;
    }
    let depth = Depth { waiting, running, queue_depth: waiting + running };
    (depth, work_s)
}
