//! `chaos_day`: the `chaos` bin's default grid — three fault models ×
//! three recovery postures — on a compressed diurnal day, with
//! estimated `jsq` routing, per-day fault rates scaled to the day and
//! the default burn-rate alert.
//!
//! The rendered tables are byte-identical to
//! `chaos --day <DAY_S> --seed <seed> --jobs 1`. The `none` row replays
//! the fault-free day exactly as the `autoscale` bin does.

use crate::probe::{causal, timed, wrap, EngineProbe, Kind, Outcome};
use crate::{Digest, Rep, Setup, Workload};
use seesaw_autoscale::{score_detection, AlertRule, AutoscaleConfig, ElasticFleetReport};
use seesaw_bench::autoscale::{default_traces, ScenarioSpec, CAPACITY_PROBE_REQUESTS};
use seesaw_bench::chaos::{render_chaos, render_detection_frontier, ChaosSpec};
use seesaw_bench::serving::{default_engine_of, default_specs};
use seesaw_chaos::{ChaosController, ChaosFrontier, ChaosPoint, FaultPlan, RecoverySpec};
use seesaw_engine::{OnlineEngine, SweepRunner};
use seesaw_fleet::offline_capacity;
use seesaw_hw::ClusterSpec;
use seesaw_model::ModelConfig;
use seesaw_telemetry::Instrument;
use seesaw_workload::{Request, WorkloadGen};
use std::sync::Arc;
use std::time::Instant;

/// Length of the compressed day, seconds (twelve five-minute windows).
/// At this length the program's retained cost caches land in the same
/// capacity band for every seed tried, so peak memory is steady across
/// seeds.
pub const DAY_S: f64 = 3600.0;

/// The generated day and controller calibration of one seed.
pub struct ChaosDay {
    spec: ScenarioSpec,
    cluster: Arc<ClusterSpec>,
    model: Arc<ModelConfig>,
    config: AutoscaleConfig,
    label: String,
    trace: String,
    requests: Vec<Request>,
    faults: Vec<(String, FaultPlan)>,
    recoveries: Vec<RecoverySpec>,
}

impl ChaosDay {
    fn replica(&self, probe: Option<&Arc<EngineProbe>>) -> Box<dyn OnlineEngine> {
        wrap(
            default_engine_of(self.spec.kind, &self.cluster, &self.model),
            probe,
        )
    }

    fn controller(&self, fault: usize, recovery: usize) -> ChaosController {
        ChaosController::new(self.config, self.faults[fault].1, self.recoveries[recovery])
    }

    fn replay(
        &self,
        controller: &ChaosController,
        probe: Option<&Arc<EngineProbe>>,
        instr: &mut Instrument,
    ) -> ElasticFleetReport {
        let build = |_: usize| self.replica(probe);
        controller.run_instrumented_with(&SweepRunner::serial(), &build, &self.requests, instr)
    }
}

/// The elastic cell's conservation laws: every offered request
/// completed or failed, every attempt completed or was lost, each
/// completed id appears once, and every timeline entry is causal.
fn reconciles(report: &ElasticFleetReport, offered: usize) -> bool {
    let a = &report.availability;
    let timeline = &report.fleet.timeline;
    let mut ids: Vec<u64> = timeline.iter().map(|t| t.id).collect();
    ids.sort_unstable();
    ids.dedup();
    a.offered == offered
        && a.completed + a.failed == offered
        && a.attempts == a.completed + a.lost_attempts
        && ids.len() == timeline.len()
        && timeline.len() == a.completed
        && causal(timeline)
}

impl Workload for ChaosDay {
    fn setup(seed: u64, probe: Option<&Arc<EngineProbe>>) -> (Self, Setup) {
        let spec = ScenarioSpec {
            day_s: DAY_S,
            seed,
            ..ScenarioSpec::default()
        };
        let chaos = ChaosSpec::default();
        let (cluster, model) = default_specs();
        let gen_start = Instant::now();
        let probe_requests = WorkloadGen::sharegpt(spec.seed).generate(CAPACITY_PROBE_REQUESTS);
        let mut gen_s = gen_start.elapsed().as_secs_f64();
        let probe_start = Instant::now();
        let build = |_: usize| wrap(default_engine_of(spec.kind, &cluster, &model), probe);
        let (capacity_rps, label) = offline_capacity(&build, &probe_requests);
        let probe_s = probe_start.elapsed().as_secs_f64();
        let gen_start = Instant::now();
        let mut traces = default_traces(&spec, capacity_rps);
        gen_s += gen_start.elapsed().as_secs_f64();
        let (trace, requests) = traces.swap_remove(0);
        let config = AutoscaleConfig {
            capacity_rps,
            ..AutoscaleConfig::default()
        };
        let day = ChaosDay {
            spec,
            cluster,
            model,
            config,
            label,
            trace,
            requests,
            faults: chaos.fault_roster(spec.day_s),
            recoveries: chaos.recovery_roster(spec.peak_mult),
        };
        (day, Setup { gen_s, probe_s })
    }

    /// Traced repetitions (`probe` given) also profile the controller.
    fn run(&self, probe: Option<&Arc<EngineProbe>>) -> Rep {
        let mut cells = Vec::new();
        let mut points = Vec::new();
        for (f, (fault, plan)) in self.faults.iter().enumerate() {
            for (r, recovery) in self.recoveries.iter().enumerate() {
                let controller = self.controller(f, r);
                let mut instr = if probe.is_some() {
                    Instrument::profiling()
                } else {
                    Instrument::off()
                };
                let name = format!("{fault} / {recovery}");
                let (report, mut cell) = timed(name, Kind::Elastic, probe, || {
                    self.replay(&controller, probe, &mut instr)
                });
                cell.profile = instr.profile;
                if let Some(report) = report {
                    cell.ok &= reconciles(&report, self.requests.len());
                    let a = &report.availability;
                    cell.outcome = Outcome {
                        offered: a.offered as u64,
                        assigned: report.lifecycles.iter().map(|l| l.requests as u64).sum(),
                        completed: a.completed as u64,
                        failed: a.failed as u64,
                        dispatches: a.attempts as u64,
                    };
                    let detection =
                        score_detection(&report.alerts, &controller.schedule_for(&self.requests));
                    points.push(ChaosPoint {
                        fault: fault.clone(),
                        plan: *plan,
                        recovery: recovery.to_string(),
                        n_requests: self.requests.len(),
                        attainment: report.attainment(),
                        goodput_rps: report.goodput_rps(),
                        replica_seconds: report.replica_seconds,
                        mean_replicas: report.mean_replicas(),
                        peak_replicas: report.peak_replicas,
                        completed: a.completed,
                        failed: a.failed,
                        lost_attempts: a.lost_attempts,
                        retries: a.retries,
                        replicas_killed: a.replicas_killed,
                        retry_amplification: a.retry_amplification(),
                        unavailability_s: a.unavailability_s,
                        detection,
                        report,
                    });
                }
                cells.push(cell);
            }
        }
        let mut digest = Digest::default();
        if cells.iter().all(|c| c.ok) {
            let frontier = ChaosFrontier {
                label: self.label.clone(),
                capacity_rps: self.config.capacity_rps,
                config: self.config,
                trace: self.trace.clone(),
                faults: self.faults.iter().map(|(n, _)| n.clone()).collect(),
                recoveries: self
                    .recoveries
                    .iter()
                    .map(RecoverySpec::to_string)
                    .collect(),
                alert_rule: AlertRule::default().to_string(),
                points,
            };
            digest.write(render_chaos(&frontier).as_bytes());
            digest.write(render_detection_frontier(&frontier).as_bytes());
        }
        Rep {
            cells,
            digest: digest.finish(),
        }
    }

    /// Independent kills against reactive+replace — kills, retries and
    /// replacement spawns all fire — on bare and on wrapped replicas.
    fn wrapped_matches_bare(&self, probe: &Arc<EngineProbe>) -> Option<bool> {
        let controller = self.controller(1.min(self.faults.len() - 1), self.recoveries.len() - 1);
        let bare = self.replay(&controller, None, &mut Instrument::off());
        let wrapped = self.replay(&controller, Some(probe), &mut Instrument::off());
        Some(bare == wrapped)
    }
}
