//! Inference requests.

/// One inference request: a prompt of `input_len` tokens that will
/// generate `output_len` tokens, available to the engine from
/// `arrival_s` seconds of simulated time.
///
/// Offline / throughput-oriented workloads (the paper's setting) have
/// no arrival process: every request carries `arrival_s == 0.0` and is
/// available at t = 0. Online serving workloads attach an arrival
/// stream (see [`crate::ArrivalDist`]); engines then only admit a
/// request once the simulated clock has reached its arrival time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Request {
    /// Unique id within a run.
    pub id: u64,
    /// Prompt length in tokens.
    pub input_len: usize,
    /// Number of tokens to generate.
    pub output_len: usize,
    /// Simulated time at which the request becomes available, seconds
    /// (0.0 = offline).
    pub arrival_s: f64,
}

impl Request {
    /// Construct an offline request (available at t = 0).
    pub fn new(id: u64, input_len: usize, output_len: usize) -> Self {
        assert!(input_len > 0, "requests need at least one prompt token");
        assert!(output_len > 0, "requests generate at least one token");
        Request {
            id,
            input_len,
            output_len,
            arrival_s: 0.0,
        }
    }

    /// The same request arriving at `arrival_s` seconds.
    pub fn with_arrival(mut self, arrival_s: f64) -> Self {
        assert!(
            arrival_s.is_finite() && arrival_s >= 0.0,
            "arrival time must be finite and non-negative, got {arrival_s}"
        );
        self.arrival_s = arrival_s;
        self
    }

    /// Final sequence length once generation completes.
    pub fn total_len(&self) -> usize {
        self.input_len + self.output_len
    }
}

/// Read-only request-metadata store keyed by id, replacing the
/// `HashMap<u64, Request>` lookups on the engines' hot paths.
///
/// Workload ids are dense and (near-)sequential — generators hand out
/// `0..n`, and autotune probes use a contiguous run below `u64::MAX`
/// — so when the id span is close to the request count the map is a
/// direct-indexed vector (O(1), no hashing); otherwise it falls back
/// to a sorted vector with binary search.
#[derive(Debug, Clone)]
pub enum RequestMap {
    /// Direct index: slot `id - base`.
    Dense {
        /// Smallest id in the set.
        base: u64,
        /// Slot per id in `[base, base + slots.len())`.
        slots: Vec<Option<Request>>,
    },
    /// Requests sorted by id, binary-searched.
    Sorted(Vec<Request>),
}

impl RequestMap {
    /// Span-to-count ratio up to which the dense representation is
    /// used (4× leaves room for modest id gaps without bloating).
    const DENSE_SLACK: u64 = 4;

    /// Build from a request set (ids must be unique).
    pub fn new(reqs: &[Request]) -> Self {
        if reqs.is_empty() {
            return RequestMap::Sorted(Vec::new());
        }
        let base = reqs.iter().map(|r| r.id).min().expect("non-empty");
        let max = reqs.iter().map(|r| r.id).max().expect("non-empty");
        // A set spanning (almost) the whole u64 range overflows the
        // span computation; such sets are sparse by definition.
        let span = (max - base).saturating_add(1);
        if span <= (reqs.len() as u64).saturating_mul(Self::DENSE_SLACK) {
            let mut slots = vec![None; span as usize];
            for r in reqs {
                let slot = &mut slots[(r.id - base) as usize];
                assert!(slot.is_none(), "duplicate request id {}", r.id);
                *slot = Some(*r);
            }
            RequestMap::Dense { base, slots }
        } else {
            let mut sorted = reqs.to_vec();
            sorted.sort_by_key(|r| r.id);
            for w in sorted.windows(2) {
                assert!(w[0].id != w[1].id, "duplicate request id {}", w[0].id);
            }
            RequestMap::Sorted(sorted)
        }
    }

    /// Add one request (its id must be new). Ids arriving in
    /// increasing order append in O(1); a dense map whose span would
    /// not cover `req.id` converts to the sorted representation.
    pub fn insert(&mut self, req: Request) {
        if let RequestMap::Dense { base, slots } = self {
            match req.id.checked_sub(*base).and_then(|i| slots.get_mut(i as usize)) {
                Some(slot) => {
                    assert!(slot.is_none(), "duplicate request id {}", req.id);
                    *slot = Some(req);
                    return;
                }
                None => *self = RequestMap::Sorted(slots.iter().flatten().copied().collect()),
            }
        }
        let RequestMap::Sorted(sorted) = self else {
            unreachable!("dense maps converted above")
        };
        if sorted.last().is_none_or(|last| last.id < req.id) {
            sorted.push(req);
            return;
        }
        match sorted.binary_search_by_key(&req.id, |r| r.id) {
            Ok(_) => panic!("duplicate request id {}", req.id),
            Err(pos) => sorted.insert(pos, req),
        }
    }

    /// Look up a request by id.
    pub fn get(&self, id: u64) -> Option<&Request> {
        match self {
            RequestMap::Dense { base, slots } => id
                .checked_sub(*base)
                .and_then(|i| slots.get(i as usize))
                .and_then(|s| s.as_ref()),
            RequestMap::Sorted(sorted) => sorted
                .binary_search_by_key(&id, |r| r.id)
                .ok()
                .map(|i| &sorted[i]),
        }
    }

    /// Look up a request that must exist (engine invariant).
    pub fn req(&self, id: u64) -> Request {
        *self
            .get(id)
            .unwrap_or_else(|| panic!("unknown request id {id}"))
    }

    /// Number of stored requests.
    pub fn len(&self) -> usize {
        match self {
            RequestMap::Dense { slots, .. } => slots.iter().flatten().count(),
            RequestMap::Sorted(sorted) => sorted.len(),
        }
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl From<&[Request]> for RequestMap {
    fn from(reqs: &[Request]) -> Self {
        Self::new(reqs)
    }
}

/// Aggregate length statistics of a request set (Figure 9 style).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LengthStats {
    /// Number of requests.
    pub count: usize,
    /// Mean input length.
    pub mean_input: f64,
    /// Mean output length.
    pub mean_output: f64,
    /// Maximum total length.
    pub max_total: usize,
    /// Total prompt tokens.
    pub total_input: u64,
    /// Total generated tokens.
    pub total_output: u64,
}

impl LengthStats {
    /// Compute stats over a slice of requests.
    pub fn of(reqs: &[Request]) -> Self {
        let count = reqs.len();
        let total_input: u64 = reqs.iter().map(|r| r.input_len as u64).sum();
        let total_output: u64 = reqs.iter().map(|r| r.output_len as u64).sum();
        LengthStats {
            count,
            mean_input: total_input as f64 / count.max(1) as f64,
            mean_output: total_output as f64 / count.max(1) as f64,
            max_total: reqs.iter().map(|r| r.total_len()).max().unwrap_or(0),
            total_input,
            total_output,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_ratio() {
        let r = Request::new(0, 3000, 300);
        assert_eq!(r.total_len(), 3300);
    }

    #[test]
    #[should_panic(expected = "at least one prompt token")]
    fn zero_input_rejected() {
        Request::new(0, 0, 10);
    }

    #[test]
    fn arrival_defaults_to_offline_and_can_be_set() {
        let r = Request::new(0, 100, 10);
        assert_eq!(r.arrival_s, 0.0);
        let r = r.with_arrival(2.5);
        assert_eq!(r.arrival_s, 2.5);
        assert_eq!(r.input_len, 100);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_arrival_rejected() {
        Request::new(0, 100, 10).with_arrival(-1.0);
    }

    #[test]
    fn request_map_dense_for_sequential_ids() {
        let reqs: Vec<Request> = (0..50).map(|i| Request::new(i, 100 + i as usize, 10)).collect();
        let map = RequestMap::new(&reqs);
        assert!(matches!(map, RequestMap::Dense { .. }));
        assert_eq!(map.len(), 50);
        for r in &reqs {
            assert_eq!(map.req(r.id), *r);
        }
        assert!(map.get(50).is_none());
    }

    #[test]
    fn request_map_dense_for_probe_style_ids_near_max() {
        // Autotune probes use u64::MAX - i.
        let reqs: Vec<Request> =
            (0..24u64).map(|i| Request::new(u64::MAX - i, 2000, 250)).collect();
        let map = RequestMap::new(&reqs);
        assert!(matches!(map, RequestMap::Dense { .. }));
        for r in &reqs {
            assert_eq!(map.req(r.id), *r);
        }
        assert!(map.get(0).is_none());
    }

    #[test]
    fn request_map_sparse_ids_fall_back_to_sorted() {
        let reqs = vec![
            Request::new(3, 10, 1),
            Request::new(1_000_000, 20, 2),
            Request::new(77, 30, 3),
        ];
        let map = RequestMap::new(&reqs);
        assert!(matches!(map, RequestMap::Sorted(_)));
        assert_eq!(map.len(), 3);
        assert_eq!(map.req(77).input_len, 30);
        assert!(map.get(78).is_none());
    }

    #[test]
    fn request_map_survives_full_span_ids() {
        // base 0 and u64::MAX in one set: the span computation must
        // not overflow; the set is sparse, so Sorted is used.
        let reqs = vec![Request::new(0, 10, 1), Request::new(u64::MAX, 20, 2)];
        let map = RequestMap::new(&reqs);
        assert!(matches!(map, RequestMap::Sorted(_)));
        assert_eq!(map.req(0).input_len, 10);
        assert_eq!(map.req(u64::MAX).input_len, 20);
        assert!(map.get(1).is_none());
    }

    #[test]
    #[should_panic(expected = "duplicate request id")]
    fn request_map_rejects_duplicate_ids() {
        let reqs = vec![Request::new(5, 10, 1), Request::new(5, 20, 2)];
        RequestMap::new(&reqs);
    }

    #[test]
    fn insert_matches_bulk_build() {
        let reqs: Vec<Request> = [5u64, 9, 2, 40, 7].iter().map(|&id| Request::new(id, 8, 2)).collect();
        let mut grown = RequestMap::new(&reqs[..2]);
        for r in &reqs[2..] {
            grown.insert(*r);
        }
        let bulk = RequestMap::new(&reqs);
        for r in &reqs {
            assert_eq!(grown.get(r.id), bulk.get(r.id));
        }
        assert_eq!(grown.len(), reqs.len());
        assert_eq!(grown.get(3), None);
    }

    #[test]
    #[should_panic(expected = "duplicate request id")]
    fn insert_rejects_duplicates() {
        let mut map = RequestMap::new(&[]);
        map.insert(Request::new(1, 8, 2));
        map.insert(Request::new(1, 8, 2));
    }

    #[test]
    fn stats_aggregate() {
        let reqs = vec![Request::new(0, 100, 50), Request::new(1, 300, 150)];
        let s = LengthStats::of(&reqs);
        assert_eq!(s.count, 2);
        assert!((s.mean_input - 200.0).abs() < 1e-12);
        assert!((s.mean_output - 100.0).abs() < 1e-12);
        assert_eq!(s.max_total, 450);
        assert_eq!(s.total_input, 400);
    }
}
