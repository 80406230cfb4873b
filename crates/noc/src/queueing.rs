//! Analytic queueing models for shared NoC and bank-port resources.
//!
//! The epoch-based simulator needs a load-dependent latency term: when many
//! applications hammer the same bank (S-NUCA stripes everyone across every
//! bank), port utilization rises and queueing delay grows nonlinearly. We
//! use the M/D/1 waiting-time formula with a utilization cap, which captures
//! the paper's observation that contention "sets the tail" without
//! simulating every flit.

/// Expected M/D/1 waiting time, in the same unit as `service_time`.
///
/// `utilization` is the offered load ρ ∈ \[0, 1); values at or above
/// `rho_max` are clamped to keep the model finite (the detailed simulator,
/// not this formula, is used where saturation matters).
///
/// # Examples
///
/// ```
/// use nuca_noc::queueing::md1_wait;
/// assert_eq!(md1_wait(0.0, 10.0), 0.0);
/// // ρ = 0.5: W = ρ/(2(1-ρ)) · s = 0.5 · s / 1 = 5.0
/// assert!((md1_wait(0.5, 10.0) - 5.0).abs() < 1e-12);
/// assert!(md1_wait(0.99, 10.0) > md1_wait(0.9, 10.0));
/// ```
pub fn md1_wait(utilization: f64, service_time: f64) -> f64 {
    const RHO_MAX: f64 = 0.98;
    let rho = utilization.clamp(0.0, RHO_MAX);
    rho / (2.0 * (1.0 - rho)) * service_time
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wait_is_zero_at_zero_load() {
        assert_eq!(md1_wait(0.0, 4.0), 0.0);
    }

    #[test]
    fn wait_grows_superlinearly() {
        let w25 = md1_wait(0.25, 4.0);
        let w50 = md1_wait(0.50, 4.0);
        let w75 = md1_wait(0.75, 4.0);
        assert!(w50 > 2.0 * w25);
        assert!(w75 > 2.0 * w50);
    }

    #[test]
    fn saturation_is_clamped_finite() {
        let w = md1_wait(5.0, 4.0);
        assert!(w.is_finite());
        assert_eq!(w, md1_wait(1.0, 4.0));
    }

    #[test]
    fn negative_load_clamped() {
        assert_eq!(md1_wait(-0.5, 4.0), 0.0);
    }
}
