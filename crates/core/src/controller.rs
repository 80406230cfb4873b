//! The feedback controller sizing latency-critical allocations
//! (paper Listing 1 and Sec. V-C).
//!
//! Every completed request reports its end-to-end latency (including
//! queueing). Once `interval` requests have accumulated, the controller
//! computes the tail percentile and adjusts the allocation:
//!
//! - tail > 95 % of deadline → grow by `step` (10 %),
//! - tail < 85 % of deadline → shrink by `step`,
//! - tail > 110 % of deadline → **panic**: jump to a canonical safe size
//!   (one eighth of the LLC), because "even very short spikes in queueing
//!   latency frequently set the tail".

/// Tunable controller parameters, with the paper's bolded defaults
/// (Fig. 9).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControllerParams {
    /// Tail percentile to control (0.95 in the paper).
    pub percentile: f64,
    /// Requests per controller update (20).
    pub interval: usize,
    /// Grow when tail exceeds this fraction of the deadline (0.95).
    pub target_high: f64,
    /// Shrink when tail is below this fraction of the deadline (0.85).
    pub target_low: f64,
    /// Panic when tail exceeds this fraction of the deadline (1.10).
    pub panic_threshold: f64,
    /// Multiplicative step size (0.10).
    pub step: f64,
    /// Canonical safe size jumped to on panic (LLC/8 in the paper).
    pub panic_bytes: f64,
    /// Smallest allowed allocation in bytes.
    pub min_bytes: f64,
    /// Largest allowed allocation in bytes.
    pub max_bytes: f64,
}

impl ControllerParams {
    /// The paper's defaults for a given LLC capacity.
    pub fn micro2020(llc_bytes: f64) -> ControllerParams {
        ControllerParams {
            percentile: 0.95,
            interval: 20,
            target_high: 0.95,
            target_low: 0.85,
            panic_threshold: 1.10,
            step: 0.10,
            panic_bytes: llc_bytes / 8.0,
            min_bytes: 256.0 * 1024.0,
            max_bytes: llc_bytes / 4.0,
        }
    }
}

/// Per-application feedback controller state.
///
/// # Examples
///
/// ```
/// use jumanji_core::{ControllerParams, FeedbackController};
/// let params = ControllerParams::micro2020(20.0 * 1024.0 * 1024.0);
/// let mut ctrl = FeedbackController::new(params, 1_000_000.0, 2_000_000.0);
/// // 21 fast requests (one full interval): the controller reclaims space.
/// let before = ctrl.size_bytes();
/// for _ in 0..21 {
///     ctrl.on_request_complete(100_000.0);
/// }
/// assert!(ctrl.size_bytes() < before);
/// ```
#[derive(Debug, Clone)]
pub struct FeedbackController {
    params: ControllerParams,
    deadline: f64,
    size: f64,
    latencies: Vec<f64>,
    panics: u64,
    updates: u64,
    /// An adjustment has been made but not yet deployed by a
    /// reconfiguration; further non-panic adjustments are held back so the
    /// controller never compounds decisions on stale feedback.
    pending: bool,
}

impl FeedbackController {
    /// Creates a controller for an application with the given tail-latency
    /// `deadline` (any time unit, as long as request latencies use the
    /// same) and initial allocation.
    ///
    /// # Panics
    ///
    /// Panics if the deadline or initial size is not positive.
    pub fn new(params: ControllerParams, deadline: f64, initial_bytes: f64) -> FeedbackController {
        assert!(deadline > 0.0, "deadline must be positive");
        assert!(initial_bytes > 0.0, "initial size must be positive");
        FeedbackController {
            params,
            deadline,
            size: initial_bytes.clamp(params.min_bytes, params.max_bytes),
            latencies: Vec::with_capacity(params.interval + 1),
            panics: 0,
            updates: 0,
            pending: false,
        }
    }

    /// Tells the controller its latest size has been installed in the LLC
    /// (called by the OS runtime at each 100 ms reconfiguration),
    /// re-arming ordinary adjustments.
    pub fn mark_deployed(&mut self) {
        self.pending = false;
    }

    /// Current allocation target in bytes.
    pub fn size_bytes(&self) -> f64 {
        self.size
    }

    /// The controlled deadline.
    pub fn deadline(&self) -> f64 {
        self.deadline
    }

    /// How many panic boosts have fired.
    pub fn panics(&self) -> u64 {
        self.panics
    }

    /// How many controller updates have run.
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// Records a completed request (Listing 1's `RequestCompleted`).
    /// Returns the new size when an update fires, `None` otherwise.
    pub fn on_request_complete(&mut self, latency: f64) -> Option<f64> {
        self.latencies.push(latency);
        if self.latencies.len() > self.params.interval {
            let tail = percentile(&mut self.latencies, self.params.percentile);
            self.latencies.clear();
            Some(self.update(tail))
        } else {
            None
        }
    }

    /// Applies one controller update given a measured tail latency,
    /// returning the new size.
    pub fn update(&mut self, tail: f64) -> f64 {
        self.updates += 1;
        let p = self.params;
        let ratio = tail / self.deadline;
        if ratio > p.panic_threshold {
            // Panics always fire: short queueing spikes set the tail.
            self.panics += 1;
            self.size = self.size.max(p.panic_bytes);
            self.pending = true;
        } else if !self.pending {
            if ratio > p.target_high {
                self.size *= 1.0 + p.step;
                self.pending = true;
            } else if ratio < p.target_low {
                self.size *= 1.0 - p.step;
                self.pending = true;
            }
        }
        self.size = self.size.clamp(p.min_bytes, p.max_bytes);
        self.size
    }
}

/// The `getPercentile` helper of Listing 1: nearest-rank percentile, the
/// one every tail in the simulator is measured with.
///
/// Quickselect: O(n) and allocation-free, reordering `samples`
/// arbitrarily. Returns exactly the value a sort-then-index would (same
/// multiset, same rank).
///
/// # Panics
///
/// Panics if `samples` is empty or `p` is outside `(0, 1]`.
///
/// # Examples
///
/// ```
/// use jumanji_core::controller::percentile;
/// let mut lat: Vec<f64> = (1..=100).rev().map(f64::from).collect();
/// assert_eq!(percentile(&mut lat, 0.95), 95.0);
/// ```
pub fn percentile(samples: &mut [f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "need at least one sample");
    assert!(p > 0.0 && p <= 1.0, "percentile must be in (0,1]");
    let rank = (p * samples.len() as f64).ceil() as usize;
    let (_, v, _) = samples.select_nth_unstable_by(rank.saturating_sub(1), |a, b| {
        a.partial_cmp(b).expect("samples are finite")
    });
    *v
}

#[cfg(test)]
mod tests {
    use super::*;

    const MB: f64 = 1024.0 * 1024.0;

    fn params() -> ControllerParams {
        ControllerParams::micro2020(20.0 * MB)
    }

    fn ctrl(deadline: f64) -> FeedbackController {
        FeedbackController::new(params(), deadline, 2.0 * MB)
    }

    #[test]
    fn percentile_nearest_rank() {
        let mut v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&mut v, 0.95), 95.0);
        assert_eq!(percentile(&mut v, 1.0), 100.0);
        let mut w = vec![5.0];
        assert_eq!(percentile(&mut w, 0.95), 5.0);
    }

    #[test]
    fn grows_when_tail_near_deadline() {
        let mut c = ctrl(1000.0);
        let s0 = c.size_bytes();
        let s1 = c.update(990.0); // 99% of deadline: grow
        assert!((s1 - s0 * 1.1).abs() < 1.0);
    }

    #[test]
    fn shrinks_when_tail_is_low() {
        let mut c = ctrl(1000.0);
        let s0 = c.size_bytes();
        let s1 = c.update(500.0); // 50%: shrink
        assert!((s1 - s0 * 0.9).abs() < 1.0);
    }

    #[test]
    fn dead_band_holds_steady() {
        let mut c = ctrl(1000.0);
        let s0 = c.size_bytes();
        let s1 = c.update(900.0); // 90%: inside [85%, 95%]
        assert_eq!(s0, s1);
    }

    #[test]
    fn panic_boosts_to_canonical_size() {
        let mut c = ctrl(1000.0);
        // Shrink far below the panic size first.
        for _ in 0..20 {
            c.update(100.0);
            c.mark_deployed();
        }
        assert!(c.size_bytes() < params().panic_bytes);
        let s = c.update(1200.0); // 120% of deadline: panic
        assert_eq!(s, params().panic_bytes);
        assert_eq!(c.panics(), 1);
    }

    #[test]
    fn panic_never_shrinks_a_large_allocation() {
        let mut c = FeedbackController::new(params(), 1000.0, 4.0 * MB);
        let s = c.update(5000.0);
        assert_eq!(s, 4.0 * MB, "panic is a max, not an assignment");
    }

    #[test]
    fn respects_min_and_max() {
        let mut c = ctrl(1000.0);
        for _ in 0..200 {
            c.update(1.0);
            c.mark_deployed();
        }
        assert_eq!(c.size_bytes(), params().min_bytes);
        for _ in 0..200 {
            c.update(1000.0); // 100%: grow each time (no panic)
            c.mark_deployed();
        }
        assert_eq!(c.size_bytes(), params().max_bytes);
    }

    #[test]
    fn updates_fire_every_interval_plus_one() {
        let mut c = ctrl(1000.0);
        let mut fired = 0;
        for i in 0..63 {
            if c.on_request_complete(500.0 + i as f64).is_some() {
                fired += 1;
            }
        }
        assert_eq!(fired, 3);
        assert_eq!(c.updates(), 3);
    }

    #[test]
    #[should_panic(expected = "deadline must be positive")]
    fn zero_deadline_panics() {
        FeedbackController::new(params(), 0.0, MB);
    }
}
