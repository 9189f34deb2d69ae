//! Request routing policies over N replicas.
//!
//! The router sees the global request stream in arrival order and
//! assigns each request to a replica *at its arrival instant*, using
//! only information available then. Estimated policies read
//! per-replica bookkeeping of what has been dispatched, priced by
//! analytic service-time estimates ([`seesaw_engine::ServiceRates`]):
//! each replica is modeled as a virtual FIFO server that a routed
//! request occupies for its estimated service time, and requests
//! whose estimated completion has passed are drained before each
//! decision — exactly the state a production load balancer tracks
//! (outstanding requests / estimated backlog per backend). Live
//! policies instead rank replicas by state measured from their
//! engines at the arrival instant, supplied by the caller's event
//! loop. Every decision goes through the one [`Router::route`].
//!
//! All policies are deterministic: [`RouterPolicy::PowerOfTwoChoices`]
//! carries its own RNG seed, and queue-state ties break by a
//! deterministic round-robin rotor (never "always replica 0", which
//! would pile every request onto one replica whenever the estimated
//! queues drain between arrivals — light load must degenerate to
//! round-robin, not to a hot spot).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use seesaw_engine::{live_state, EngineActor};
use seesaw_workload::Request;
use std::collections::VecDeque;

/// How the fleet router picks a replica for each arriving request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RouterPolicy {
    /// Request `i` goes to replica `i mod N` — load-oblivious, the
    /// baseline every balancer is measured against.
    RoundRobin,
    /// Fewest outstanding (dispatched, not yet estimated-complete)
    /// requests wins.
    JoinShortestQueue,
    /// Sample two distinct replicas with the seeded RNG and keep the
    /// one with fewer outstanding requests — the classic
    /// "power of two choices" balancer (near-JSQ balance at O(1)
    /// inspection cost).
    PowerOfTwoChoices {
        /// RNG seed: same seed, same choices.
        seed: u64,
    },
    /// Least estimated outstanding *work* (sum of roofline-estimated
    /// service seconds still in flight) wins — JSQ weighted by
    /// request size, so one huge prompt counts for more than several
    /// small ones. The only estimated policy that uses the cost model
    /// beyond queue expiry.
    LeastEstimatedWork,
    /// JSQ over *measured* replica state: fewest actually-unfinished
    /// requests at the arrival instant, counted exactly from each
    /// replica's engine actor (see `seesaw_engine::actor`).
    JoinShortestQueueLive,
    /// Least *measured* remaining work: the replica whose in-flight
    /// requests have the least summed remaining wall-clock seconds at
    /// the arrival instant.
    LeastWorkLive,
}

impl std::fmt::Display for RouterPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouterPolicy::RoundRobin => write!(f, "round-robin"),
            RouterPolicy::JoinShortestQueue => write!(f, "jsq"),
            RouterPolicy::PowerOfTwoChoices { .. } => write!(f, "po2"),
            RouterPolicy::LeastEstimatedWork => write!(f, "least-work"),
            RouterPolicy::JoinShortestQueueLive => write!(f, "jsq-live"),
            RouterPolicy::LeastWorkLive => write!(f, "least-work-live"),
        }
    }
}

impl RouterPolicy {
    /// The four estimated-queue policies at their defaults (po2
    /// seeded with 0), in comparison-table order.
    pub fn all_default() -> Vec<RouterPolicy> {
        vec![
            RouterPolicy::RoundRobin,
            RouterPolicy::JoinShortestQueue,
            RouterPolicy::PowerOfTwoChoices { seed: 0 },
            RouterPolicy::LeastEstimatedWork,
        ]
    }

    /// The live-feedback policies, in comparison-table order.
    pub fn all_live() -> Vec<RouterPolicy> {
        vec![RouterPolicy::JoinShortestQueueLive, RouterPolicy::LeastWorkLive]
    }

    /// Every policy — the estimated four followed by the live two —
    /// for head-to-head comparison tables.
    pub fn all_with_live() -> Vec<RouterPolicy> {
        let mut all = Self::all_default();
        all.extend(Self::all_live());
        all
    }

    /// Whether decisions under this policy read *measured* replica
    /// state (live queue depth / remaining work) rather than the
    /// router's virtual-queue estimates — callers must then supply
    /// [`RouterPolicy::read_live`] per eligible replica to
    /// [`Router::route`].
    pub fn needs_live_state(&self) -> bool {
        matches!(
            self,
            RouterPolicy::JoinShortestQueueLive | RouterPolicy::LeastWorkLive
        )
    }

    /// The measured `(queue depth, remaining work seconds)` a live
    /// policy ranks a replica by at `t`, read from its actor.
    /// `jsq-live` reads only the depth — an exact in-flight count, no
    /// projection — and leaves the work unread (NaN). `least-work-live`
    /// needs the forward-looking work, which costs one projection per
    /// busy replica that received work since its last read (an idle
    /// one has no work left by definition).
    pub fn read_live<A: EngineActor + ?Sized>(&self, actor: &mut A, t: f64) -> (usize, f64) {
        // Advancing the actor to `t` first keeps the projection short.
        let depth = actor.depth_at(t).queue_depth;
        match self {
            RouterPolicy::LeastWorkLive if depth == 0 => (0, 0.0),
            RouterPolicy::LeastWorkLive => {
                let s = live_state(actor.projected(), t);
                (s.queue_depth, s.work_s)
            }
            _ => (depth, f64::NAN),
        }
    }
}

/// Typed routing failure: every replica was ineligible (dark) at the
/// arrival instant — mid-outage in a fault-injecting run. Callers
/// buffer the arrival until a replica is accepting (or count it lost
/// when none ever will be); a panic here would kill whole chaos
/// sweeps on their most interesting points.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoAcceptingReplica {
    /// Arrival time (seconds) at which routing found no accepting
    /// replica.
    pub at_s: f64,
}

impl std::fmt::Display for NoAcceptingReplica {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "no accepting replica at t={:.6}s", self.at_s)
    }
}

impl std::error::Error for NoAcceptingReplica {}

/// One replica's virtual FIFO server: requests in estimated flight.
#[derive(Debug, Default, Clone)]
struct VirtualQueue {
    /// `(estimated completion, estimated service)` per in-flight
    /// request, in dispatch order (FIFO server ⇒ completion order).
    inflight: VecDeque<(f64, f64)>,
    /// When the virtual server frees up.
    busy_until: f64,
    /// Sum of estimated service seconds still in flight.
    work: f64,
}

impl VirtualQueue {
    /// Drain requests whose estimated completion has passed `now`.
    fn advance_to(&mut self, now: f64) {
        while let Some(&(done, service)) = self.inflight.front() {
            if done > now {
                break;
            }
            self.inflight.pop_front();
            self.work = (self.work - service).max(0.0);
        }
        // Snap a drained queue to exactly 0.0: the running sum leaves
        // ~1e-17 residues (`(a+b)-a-b != 0` in f64), and the
        // round-robin tie-break compares keys *exactly* — a residue
        // would permanently exclude this replica from "empty" ties,
        // hot-spotting the residue-free ones at light load.
        if self.inflight.is_empty() {
            self.work = 0.0;
        }
    }

    /// Dispatch a request of estimated service `est` arriving at
    /// `now`; returns the estimated start time (`now` on an idle
    /// server, the end of the backlog otherwise).
    fn push(&mut self, now: f64, est: f64) -> f64 {
        let start = now.max(self.busy_until);
        let done = start + est;
        self.busy_until = done;
        self.work += est;
        self.inflight.push_back((done, est));
        start
    }
}

/// One routing decision from [`Router::route`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Routed {
    /// The chosen replica.
    pub replica: usize,
    /// Estimated queueing delay before service starts on that
    /// replica's virtual server (0.0 when it is idle). Note this is
    /// in raw roofline-estimate units; the autoscale controller's
    /// attainment signal instead comes from its capacity-calibrated
    /// fluid backlog, so this field is informational.
    pub est_wait_s: f64,
}

/// Streaming router: feed it the arrival-sorted request stream and it
/// yields a replica index per request.
#[derive(Debug)]
pub struct Router {
    policy: RouterPolicy,
    queues: Vec<VirtualQueue>,
    /// Tie-break rotor: the first replica the keyed argmin considers.
    /// Round-robin is the argmin of a constant key, so this is also
    /// its cursor.
    rr_next: usize,
    rng: Option<StdRng>,
}

impl Router {
    /// Router over `n_replicas` under `policy`.
    pub fn new(policy: RouterPolicy, n_replicas: usize) -> Self {
        assert!(n_replicas > 0, "a fleet needs at least one replica");
        let rng = match policy {
            RouterPolicy::PowerOfTwoChoices { seed } => Some(StdRng::seed_from_u64(seed)),
            _ => None,
        };
        Router {
            policy,
            queues: vec![VirtualQueue::default(); n_replicas],
            rr_next: 0,
            rng,
        }
    }

    /// Add a replica (an empty virtual queue), returning its index.
    /// Elastic fleets call this when the autoscaling controller
    /// spawns a replica mid-stream: the router is *resumable* — its
    /// queue state and tie rotor persist across the scale event.
    pub fn add_replica(&mut self) -> usize {
        self.queues.push(VirtualQueue::default());
        self.queues.len() - 1
    }

    /// Route one request (arrivals must be fed in nondecreasing
    /// order) to one of the `eligible` replicas — sorted, unique, in
    /// range: the ones currently accepting traffic (every replica of
    /// a fixed fleet; warm, not retiring ones in an elastic fleet).
    ///
    /// `live[k]` is the measured `(unfinished requests, remaining
    /// work seconds)` of replica `eligible[k]` at the arrival instant
    /// (see [`RouterPolicy::read_live`]). Live policies rank by it and
    /// panic without it; estimated policies ignore it (pass `&[]`)
    /// and rank by the virtual queues. `est_service` maps `(replica,
    /// request)` to the roofline-estimated service seconds on that
    /// replica — evaluated once, for the chosen replica, whose
    /// virtual queue then holds the request under every policy, so
    /// [`Router::queue_state`] is meaningful regardless of policy.
    ///
    /// Round-robin, JSQ, least-work and both live policies take the
    /// argmin of their key over `eligible`; exact ties resolve on the
    /// round-robin rotor (the first tied replica at or after it,
    /// cyclically), so a fleet whose queues keep draining — light
    /// load — degenerates to round-robin instead of a fixed-index hot
    /// spot. Po2 samples two distinct eligible positions with its
    /// seeded RNG.
    ///
    /// Only the virtual queues a decision reads are advanced to the
    /// arrival: every eligible one under JSQ and least-work, po2's two
    /// samples, and under every policy the chosen one before it takes
    /// the request. Other queues, ineligible or dead ones included,
    /// catch up when next read. A queue drains its expired requests
    /// front to back, one subtraction at a time, so one late advance
    /// leaves the same bits as an advance at every arrival.
    ///
    /// An empty `eligible` set — every replica dark mid-outage — is a
    /// typed [`NoAcceptingReplica`] error, not a panic: the caller
    /// decides whether to buffer, requeue, or fail the arrival.
    pub fn route(
        &mut self,
        req: &Request,
        eligible: &[usize],
        live: &[(usize, f64)],
        est_service: impl Fn(usize, &Request) -> f64,
    ) -> Result<Routed, NoAcceptingReplica> {
        let n = self.queues.len();
        if eligible.is_empty() {
            return Err(NoAcceptingReplica { at_s: req.arrival_s });
        }
        debug_assert!(
            eligible.windows(2).all(|w| w[0] < w[1]) && *eligible.last().unwrap() < n,
            "eligible set must be sorted, unique, and in range"
        );
        assert!(
            !self.policy.needs_live_state() || live.len() == eligible.len(),
            "{} ranks replicas by measured replica state: supply one live entry \
             per eligible replica",
            self.policy
        );
        let now = req.arrival_s;
        let chosen = match self.policy {
            RouterPolicy::PowerOfTwoChoices { .. } => self.po2(eligible, now),
            RouterPolicy::JoinShortestQueue | RouterPolicy::LeastEstimatedWork => {
                for &i in eligible {
                    self.queues[i].advance_to(now);
                }
                self.argmin(eligible, live)
            }
            _ => self.argmin(eligible, live),
        };
        let est = est_service(chosen, req);
        assert!(
            est.is_finite() && est > 0.0,
            "service estimate must be positive and finite, got {est}"
        );
        let queue = &mut self.queues[chosen];
        queue.advance_to(now);
        let start = queue.push(now, est);
        Ok(Routed { replica: chosen, est_wait_s: start - now })
    }

    /// Forget replica `idx`'s virtual queue (reset to empty). A
    /// fault-injecting controller calls this when the replica is
    /// killed: its in-flight work is lost, not completed, so the
    /// bookkeeping must not keep counting it — and if the index is
    /// later reused by a replacement spawn, the replacement starts
    /// with a clean queue. The rotor and RNG are untouched, so a run
    /// without kills is bit-identical whether or not this exists.
    pub fn reset_replica(&mut self, idx: usize) {
        self.queues[idx] = VirtualQueue::default();
    }

    /// Advance every virtual queue to `now`, unlike [`Router::route`],
    /// which advances only the queues it reads, and report
    /// `(in-flight requests, estimated outstanding work seconds)` per
    /// replica — the controller's end-of-window backlog snapshot.
    /// Idempotent with later routing: queues drain monotonically, so
    /// observing at `now` never changes a subsequent decision for an
    /// arrival at or after `now`.
    pub fn queue_state(&mut self, now: f64) -> Vec<(usize, f64)> {
        self.queues
            .iter_mut()
            .map(|q| {
                q.advance_to(now);
                (q.inflight.len(), q.work)
            })
            .collect()
    }

    /// The key replica `eligible[pos]` is ranked by (lower wins).
    fn key(&self, pos: usize, replica: usize, live: &[(usize, f64)]) -> f64 {
        match self.policy {
            RouterPolicy::RoundRobin => 0.0,
            RouterPolicy::JoinShortestQueue => self.queues[replica].inflight.len() as f64,
            RouterPolicy::LeastEstimatedWork => self.queues[replica].work,
            RouterPolicy::JoinShortestQueueLive => live[pos].0 as f64,
            RouterPolicy::LeastWorkLive => live[pos].1,
            RouterPolicy::PowerOfTwoChoices { .. } => unreachable!("po2 samples, it has no key"),
        }
    }

    /// The eligible replica minimizing [`Router::key`]; the tie walk
    /// starts at the rotor and skips ineligible indices.
    fn argmin(&mut self, eligible: &[usize], live: &[(usize, f64)]) -> usize {
        let n = self.queues.len();
        let min = eligible
            .iter()
            .enumerate()
            .map(|(pos, &i)| self.key(pos, i, live))
            .fold(f64::INFINITY, f64::min);
        let chosen = (0..n)
            .map(|off| (self.rr_next + off) % n)
            .find(|&i| eligible.binary_search(&i).is_ok_and(|pos| self.key(pos, i, live) == min))
            .expect("some eligible replica attains the minimum");
        self.rr_next = (chosen + 1) % n;
        chosen
    }

    /// Power of two choices: sample two distinct eligible positions
    /// and keep the one with fewer in-flight requests. The first
    /// sample wins ties — it is already uniform, so tied (e.g.
    /// drained) queues spread instead of hot-spotting a fixed index.
    fn po2(&mut self, eligible: &[usize], now: f64) -> usize {
        let k = eligible.len();
        if k == 1 {
            return eligible[0];
        }
        let rng = self.rng.as_mut().expect("po2 router has an RNG");
        let a = rng.gen_range(0..k);
        let mut b = rng.gen_range(0..k - 1);
        if b >= a {
            b += 1;
        }
        let (a, b) = (eligible[a], eligible[b]);
        self.queues[a].advance_to(now);
        self.queues[b].advance_to(now);
        if self.queues[b].inflight.len() < self.queues[a].inflight.len() {
            b
        } else {
            a
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reqs_at(gaps: &[f64]) -> Vec<Request> {
        let mut t = 0.0;
        gaps.iter()
            .enumerate()
            .map(|(i, g)| {
                t += g;
                Request::new(i as u64, 100, 10).with_arrival(t)
            })
            .collect()
    }

    const UNIT_EST: fn(usize, &Request) -> f64 = |_, _| 1.0;

    /// Route a whole stream over all `n` replicas without live state.
    fn assign(
        policy: RouterPolicy,
        n: usize,
        reqs: &[Request],
        est: impl Fn(usize, &Request) -> f64,
    ) -> Vec<usize> {
        let mut router = Router::new(policy, n);
        let all: Vec<usize> = (0..n).collect();
        reqs.iter()
            .map(|r| router.route(r, &all, &[], &est).expect("eligible").replica)
            .collect()
    }

    #[test]
    fn round_robin_cycles() {
        let reqs = reqs_at(&[0.0; 7]);
        let a = assign(RouterPolicy::RoundRobin, 3, &reqs, UNIT_EST);
        assert_eq!(a, vec![0, 1, 2, 0, 1, 2, 0]);
    }

    #[test]
    fn jsq_spreads_a_burst_then_reuses_idle_replicas() {
        // Four simultaneous arrivals over two replicas: 2 + 2.
        let burst = reqs_at(&[0.0, 0.0, 0.0, 0.0]);
        let a = assign(RouterPolicy::JoinShortestQueue, 2, &burst, UNIT_EST);
        assert_eq!(a, vec![0, 1, 0, 1]);
        // With long gaps every queue drains before each arrival:
        // ties round-robin instead of hot-spotting replica 0.
        let sparse = reqs_at(&[10.0, 10.0, 10.0]);
        let a = assign(RouterPolicy::JoinShortestQueue, 2, &sparse, UNIT_EST);
        assert_eq!(a, vec![0, 1, 0]);
    }

    #[test]
    fn least_work_accounts_request_size() {
        // Two arrivals at t=0: the second sees replica 0 holding one
        // *big* request and prefers replica 1; a third still sees
        // replica 1's small backlog as lighter than 0's big one.
        let reqs = reqs_at(&[0.0, 0.0, 0.0]);
        let sized = |_: usize, r: &Request| if r.id == 0 { 100.0 } else { 1.0 };
        let a = assign(RouterPolicy::LeastEstimatedWork, 2, &reqs, sized);
        assert_eq!(a, vec![0, 1, 1]);
        // JSQ, blind to size, would alternate.
        let b = assign(RouterPolicy::JoinShortestQueue, 2, &reqs, sized);
        assert_eq!(b, vec![0, 1, 0]);
    }

    /// Summing then subtracting estimated work leaves ~1e-17 f64
    /// residues; a drained queue must compare exactly equal to a
    /// never-used one or least-work would permanently shun it.
    #[test]
    fn least_work_drained_queues_tie_despite_fp_residue() {
        let reqs = vec![
            Request::new(0, 100, 10).with_arrival(0.0),
            Request::new(1, 100, 10).with_arrival(0.0),
            Request::new(2, 100, 10).with_arrival(0.0),
            Request::new(3, 100, 10).with_arrival(10.0),
            Request::new(4, 100, 10).with_arrival(20.0),
        ];
        // 0.1 + 0.3 - 0.1 - 0.3 != 0.0 in f64: queue 0 accumulates
        // exactly that residue across the burst.
        let est = |_: usize, r: &Request| if r.id == 1 || r.id == 2 { 0.3 } else { 0.1 };
        let a = assign(RouterPolicy::LeastEstimatedWork, 2, &reqs, est);
        assert_eq!(&a[..3], &[0, 1, 0], "burst routes by outstanding work");
        assert_ne!(
            a[3], a[4],
            "drained queues must tie and rotate, not hot-spot the residue-free replica"
        );
    }

    #[test]
    fn po2_is_seed_deterministic() {
        let reqs = reqs_at(&[0.2; 40]);
        let p = RouterPolicy::PowerOfTwoChoices { seed: 9 };
        assert_eq!(assign(p, 4, &reqs, UNIT_EST), assign(p, 4, &reqs, UNIT_EST));
        // Uses more than one replica on a long stream.
        let a = assign(p, 4, &reqs, UNIT_EST);
        assert!(a.iter().any(|&r| r != a[0]));
        // Every choice in range.
        assert!(a.iter().all(|&r| r < 4));
    }

    #[test]
    fn po2_single_replica_never_panics() {
        let reqs = reqs_at(&[0.0, 0.0]);
        let a = assign(RouterPolicy::PowerOfTwoChoices { seed: 1 }, 1, &reqs, UNIT_EST);
        assert_eq!(a, vec![0, 0]);
    }

    #[test]
    fn queue_expiry_uses_estimated_completions() {
        // One replica busy for ~2s (est 1.0 each, back to back): at
        // t=3 both completed, so JSQ sees empty queues again.
        let mut router = Router::new(RouterPolicy::JoinShortestQueue, 2);
        let r0 = Request::new(0, 100, 10).with_arrival(0.0);
        let r1 = Request::new(1, 100, 10).with_arrival(0.0);
        let r2 = Request::new(2, 100, 10).with_arrival(3.0);
        let mut route = |r| router.route(r, &[0, 1], &[], UNIT_EST).expect("eligible").replica;
        assert_eq!(route(&r0), 0);
        assert_eq!(route(&r1), 1);
        assert_eq!(route(&r2), 0, "drained queues tie; rotor returns to 0");
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn bad_estimates_rejected() {
        let reqs = reqs_at(&[0.0]);
        assign(RouterPolicy::JoinShortestQueue, 2, &reqs, |_, _| 0.0);
    }

    /// Round-robin rotates over the eligible replicas only: masked
    /// replicas are skipped, and the cursor resumes after the last
    /// pick once they return.
    #[test]
    fn round_robin_skips_ineligible_replicas() {
        let mut router = Router::new(RouterPolicy::RoundRobin, 3);
        let picks: Vec<usize> = [&[0, 2][..], &[0, 2], &[0, 2], &[0, 1, 2], &[0, 1, 2]]
            .iter()
            .enumerate()
            .map(|(id, eligible)| {
                let r = Request::new(id as u64, 1, 1).with_arrival(0.0);
                router.route(&r, eligible, &[], UNIT_EST).expect("eligible").replica
            })
            .collect();
        assert_eq!(picks, vec![0, 2, 0, 1, 2]);
    }

    /// Eligibility masks keep traffic off warming/retiring replicas,
    /// and a replica added mid-stream joins the rotation with an
    /// empty queue.
    #[test]
    fn masked_routing_and_mid_stream_add() {
        let mut router = Router::new(RouterPolicy::JoinShortestQueue, 2);
        let r0 = Request::new(0, 100, 10).with_arrival(0.0);
        let r1 = Request::new(1, 100, 10).with_arrival(0.1);
        // Only replica 1 is accepting: everything lands there.
        assert_eq!(router.route(&r0, &[1], &[], UNIT_EST).expect("eligible").replica, 1);
        assert_eq!(router.route(&r1, &[1], &[], UNIT_EST).expect("eligible").replica, 1);
        // A new replica appears with an empty queue; JSQ prefers it.
        let new = router.add_replica();
        assert_eq!(new, 2);
        let r2 = Request::new(2, 100, 10).with_arrival(0.2);
        assert_eq!(router.route(&r2, &[1, 2], &[], UNIT_EST).expect("eligible").replica, 2);
        let state = router.queue_state(0.2);
        assert_eq!(state.len(), 3);
        assert_eq!(state[0].0, 0, "masked-out replica received nothing");
        assert_eq!(state[1].0, 2);
        assert_eq!(state[2].0, 1);
    }

    /// The estimated wait reported per decision is the virtual
    /// queueing delay: zero on an idle server, backlog length
    /// otherwise.
    #[test]
    fn est_wait_tracks_backlog() {
        let mut router = Router::new(RouterPolicy::JoinShortestQueue, 1);
        let route_one = |router: &mut Router, id: u64, at: f64| {
            router
                .route(&Request::new(id, 1, 1).with_arrival(at), &[0], &[], UNIT_EST)
                .expect("eligible")
        };
        let w0 = route_one(&mut router, 0, 0.0);
        let w1 = route_one(&mut router, 1, 0.0);
        let w2 = route_one(&mut router, 2, 0.5);
        assert_eq!(w0.est_wait_s, 0.0);
        assert!((w1.est_wait_s - 1.0).abs() < 1e-12);
        assert!((w2.est_wait_s - 1.5).abs() < 1e-12, "0.5 into a 2 s backlog");
        // After the backlog drains the wait is zero again.
        let w3 = route_one(&mut router, 3, 10.0);
        assert_eq!(w3.est_wait_s, 0.0);
    }

    /// A killed replica's virtual queue resets to empty: lost work
    /// stops counting against it, and a replacement reusing the index
    /// starts clean.
    #[test]
    fn reset_replica_clears_bookkeeping() {
        let mut router = Router::new(RouterPolicy::LeastEstimatedWork, 2);
        for id in 0..4 {
            router
                .route(&Request::new(id, 1, 1).with_arrival(0.0), &[0, 1], &[], UNIT_EST)
                .expect("eligible");
        }
        let before = router.queue_state(0.0);
        assert_eq!(before[0].0, 2);
        router.reset_replica(0);
        let after = router.queue_state(0.0);
        assert_eq!(after[0], (0, 0.0), "reset queue is empty");
        assert_eq!(after[1].0, 2, "other replicas keep their state");
        // The cleared replica now wins least-work against the loaded one.
        let routed = router
            .route(&Request::new(9, 1, 1).with_arrival(0.0), &[0, 1], &[], UNIT_EST)
            .expect("eligible");
        assert_eq!(routed.replica, 0);
    }

    /// A fully-dark fleet (every replica ineligible mid-outage) is a
    /// typed error, not a panic — chaos sweeps recover from it.
    #[test]
    fn empty_eligible_set_is_typed_error() {
        let mut router = Router::new(RouterPolicy::JoinShortestQueue, 2);
        let req = Request::new(0, 1, 1).with_arrival(3.5);
        let err = router
            .route(&req, &[], &[], UNIT_EST)
            .expect_err("no accepting replica");
        assert_eq!(err, NoAcceptingReplica { at_s: 3.5 });
        assert!(err.to_string().contains("no accepting replica"));
        let mut live = Router::new(RouterPolicy::LeastWorkLive, 2);
        let err = live.route(&req, &[], &[], UNIT_EST).expect_err("no accepting replica");
        assert_eq!(err.at_s, 3.5);
        // The router is still usable afterwards.
        assert!(router.route(&req, &[0, 1], &[], UNIT_EST).is_ok());
    }

    /// Live policies pick the argmin of the *measured* key supplied
    /// per eligible replica, ignoring the virtual-queue estimates.
    #[test]
    fn live_policies_route_on_measured_state() {
        let mut router = Router::new(RouterPolicy::JoinShortestQueueLive, 3);
        let r = Request::new(0, 1, 1).with_arrival(0.0);
        // Virtual queues are all empty, but the measured depths say
        // replica 2 is least loaded.
        let routed = router
            .route(&r, &[0, 1, 2], &[(4, 9.0), (3, 1.0), (1, 5.0)], UNIT_EST)
            .expect("eligible");
        assert_eq!(routed.replica, 2);

        let mut router = Router::new(RouterPolicy::LeastWorkLive, 3);
        // Same depths — least-work-live keys on remaining seconds
        // instead and picks replica 1.
        let routed = router
            .route(&r, &[0, 1, 2], &[(4, 9.0), (3, 1.0), (1, 5.0)], UNIT_EST)
            .expect("eligible");
        assert_eq!(routed.replica, 1);
    }

    /// Measured ties rotate through the rotor exactly like estimated
    /// ties — an idle fleet degenerates to round-robin, not a hot
    /// spot on replica 0.
    #[test]
    fn live_ties_rotate() {
        let mut router = Router::new(RouterPolicy::JoinShortestQueueLive, 3);
        let idle = [(0usize, 0.0f64); 3];
        let mut picks = Vec::new();
        for id in 0..6 {
            let r = Request::new(id, 1, 1).with_arrival(id as f64 * 10.0);
            picks.push(
                router
                    .route(&r, &[0, 1, 2], &idle, UNIT_EST)
                    .expect("eligible")
                    .replica,
            );
        }
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
    }

    /// Estimated policies ignore the live values and decide from
    /// their virtual queues — misleading measurements change nothing.
    #[test]
    fn estimated_policies_ignore_live_state() {
        let reqs = reqs_at(&[0.0, 0.0, 0.3, 0.1, 2.0, 0.05]);
        for policy in RouterPolicy::all_default() {
            let all = [0usize, 1, 2];
            let mut router = Router::new(policy, 3);
            let live = [(99, 99.0), (0, 0.0), (50, 1.0)];
            let picks: Vec<usize> = reqs
                .iter()
                .map(|r| router.route(r, &all, &live, UNIT_EST).expect("eligible").replica)
                .collect();
            assert_eq!(picks, assign(policy, 3, &reqs, UNIT_EST), "{policy}");
        }
    }

    #[test]
    #[should_panic(expected = "measured replica state")]
    fn live_policy_rejects_estimated_route() {
        let reqs = reqs_at(&[0.0]);
        assign(RouterPolicy::JoinShortestQueueLive, 2, &reqs, UNIT_EST);
    }

    /// Advancing only the queues a decision reads leaves every decision
    /// and every queue's bits as advancing all of them at each arrival
    /// did: on a random stream with random eligible subsets, random
    /// service estimates and random live state, under every policy,
    /// the picks, estimated waits and final queue state are
    /// bit-identical to a router advanced in full (`queue_state`)
    /// before each decision.
    #[test]
    fn lazy_queues_match_advancing_every_queue() {
        let n = 6;
        let est = |replica: usize, r: &Request| 0.1 * (r.input_len + replica) as f64 + 0.013;
        for policy in RouterPolicy::all_with_live() {
            let mut rng = StdRng::seed_from_u64(77);
            let (mut lazy, mut eager) = (Router::new(policy, n), Router::new(policy, n));
            let mut t = 0.0;
            for id in 0..400 {
                t += rng.gen_range(0.0..0.4);
                let req = Request::new(id, 1 + id as usize % 7, 1).with_arrival(t);
                let mut eligible: Vec<usize> =
                    (0..n).filter(|_| rng.gen_range(0..3u32) > 0).collect();
                if eligible.is_empty() {
                    eligible.push(rng.gen_range(0..n));
                }
                let live: Vec<(usize, f64)> = eligible
                    .iter()
                    .map(|_| (rng.gen_range(0..4usize), rng.gen_range(0.0..2.0)))
                    .collect();
                if id == 200 {
                    lazy.reset_replica(2);
                    eager.reset_replica(2);
                }
                eager.queue_state(t);
                let a = lazy.route(&req, &eligible, &live, est).expect("eligible");
                let b = eager.route(&req, &eligible, &live, est).expect("eligible");
                assert_eq!(a.replica, b.replica, "{policy}: request {id}");
                let waits = (a.est_wait_s.to_bits(), b.est_wait_s.to_bits());
                assert_eq!(waits.0, waits.1, "{policy}: request {id}");
            }
            let bits = |state: Vec<(usize, f64)>| -> Vec<(usize, u64)> {
                state.into_iter().map(|(d, w)| (d, w.to_bits())).collect()
            };
            assert_eq!(bits(lazy.queue_state(t)), bits(eager.queue_state(t)), "{policy}");
        }
    }
}
