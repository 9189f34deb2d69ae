//! `paper_figures`: the paper-reproduction catalog — every table,
//! figure and ablation at full fidelity (subsample 1), one job after
//! another on a serial runner, exactly as `all_figures 1 --jobs 1`
//! runs it.
//!
//! The catalog builds its engines inside the program and fixes its own
//! workload seed (the paper's), so this workload ignores `--seed` and
//! wraps no engine: its layers are the catalog jobs themselves.

use crate::probe::{timed, EngineProbe, Kind};
use crate::{Digest, Rep, Setup, Workload};
use seesaw_bench::figs::{self, FigureJob};
use seesaw_engine::SweepRunner;
use std::sync::Arc;

/// The catalog, ready to run.
pub struct PaperFigures {
    jobs: Vec<FigureJob>,
}

/// The catalog's job names, in run order.
pub fn job_names() -> Vec<&'static str> {
    figs::catalog(1, SweepRunner::serial())
        .into_iter()
        .map(|(name, _)| name)
        .collect()
}

impl Workload for PaperFigures {
    fn setup(_seed: u64, _probe: Option<&Arc<EngineProbe>>) -> (Self, Setup) {
        let jobs = figs::catalog(1, SweepRunner::serial());
        (PaperFigures { jobs }, Setup::default())
    }

    fn run(&self, probe: Option<&Arc<EngineProbe>>) -> Rep {
        let mut digest = Digest::default();
        let mut cells = Vec::with_capacity(self.jobs.len());
        for (name, job) in &self.jobs {
            let (out, mut cell) = timed(name.to_string(), Kind::Figure, probe, job);
            match out {
                Some(text) => {
                    cell.ok = !text.trim().is_empty();
                    // `all_figures` prints each job's output on its own
                    // line; hash the same bytes.
                    digest.write(text.as_bytes());
                    digest.write(b"\n");
                }
                None => digest.write(b"<panicked>\n"),
            }
            cells.push(cell);
        }
        Rep {
            cells,
            digest: digest.finish(),
        }
    }

    fn wrapped_matches_bare(&self, _probe: &Arc<EngineProbe>) -> Option<bool> {
        None
    }
}
