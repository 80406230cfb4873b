//! Cycle- and second-based time types.
//!
//! The simulator keeps all latencies in core clock cycles ([`Cycles`]) and
//! converts to wall-clock [`Seconds`] only at reporting boundaries (e.g.,
//! tail-latency deadlines in milliseconds).

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A duration or instant measured in core clock cycles.
///
/// # Examples
///
/// ```
/// use nuca_types::Cycles;
/// let a = Cycles(100) + Cycles(20);
/// assert_eq!(a, Cycles(120));
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Cycles(pub u64);

impl Cycles {
    /// Zero cycles.
    pub const ZERO: Cycles = Cycles(0);

    /// Returns the raw cycle count.
    #[inline]
    pub fn as_u64(self) -> u64 {
        self.0
    }

    /// Returns the cycle count as a float (for analytic models).
    #[inline]
    pub fn as_f64(self) -> f64 {
        self.0 as f64
    }

    /// Saturating subtraction: never goes below zero.
    #[inline]
    pub fn saturating_sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.saturating_sub(rhs.0))
    }
}

impl Add for Cycles {
    type Output = Cycles;
    fn add(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 + rhs.0)
    }
}

impl AddAssign for Cycles {
    fn add_assign(&mut self, rhs: Cycles) {
        self.0 += rhs.0;
    }
}

impl Sub for Cycles {
    type Output = Cycles;
    fn sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 - rhs.0)
    }
}

impl SubAssign for Cycles {
    fn sub_assign(&mut self, rhs: Cycles) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Cycles {
    type Output = Cycles;
    fn mul(self, rhs: u64) -> Cycles {
        Cycles(self.0 * rhs)
    }
}

impl Div<u64> for Cycles {
    type Output = Cycles;
    fn div(self, rhs: u64) -> Cycles {
        Cycles(self.0 / rhs)
    }
}

impl Sum for Cycles {
    fn sum<I: Iterator<Item = Cycles>>(iter: I) -> Cycles {
        Cycles(iter.map(|c| c.0).sum())
    }
}

impl fmt::Display for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} cycles", self.0)
    }
}

/// A duration measured in seconds (wall-clock).
///
/// # Examples
///
/// ```
/// use nuca_types::Seconds;
/// let ms = Seconds::from_millis(100.0);
/// assert_eq!(ms.as_f64(), 0.1);
/// assert_eq!(ms.to_cycles(2.66e9).as_u64(), 266_000_000);
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, PartialOrd)]
pub struct Seconds(pub f64);

impl Seconds {
    /// Constructs from milliseconds.
    #[inline]
    pub fn from_millis(ms: f64) -> Seconds {
        Seconds(ms * 1e-3)
    }

    /// Returns the raw value in seconds.
    #[inline]
    pub fn as_f64(self) -> f64 {
        self.0
    }

    /// Converts seconds to cycles at the given clock frequency in Hz,
    /// rounding to the nearest cycle.
    #[inline]
    pub fn to_cycles(self, freq_hz: f64) -> Cycles {
        Cycles((self.0 * freq_hz).round() as u64)
    }
}

impl Add for Seconds {
    type Output = Seconds;
    fn add(self, rhs: Seconds) -> Seconds {
        Seconds(self.0 + rhs.0)
    }
}

impl Sub for Seconds {
    type Output = Seconds;
    fn sub(self, rhs: Seconds) -> Seconds {
        Seconds(self.0 - rhs.0)
    }
}

impl fmt::Display for Seconds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1.0 {
            write!(f, "{:.3} s", self.0)
        } else if self.0 >= 1e-3 {
            write!(f, "{:.3} ms", self.0 * 1e3)
        } else {
            write!(f, "{:.3} us", self.0 * 1e6)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycles_arithmetic() {
        let mut c = Cycles(10);
        c += Cycles(5);
        assert_eq!(c, Cycles(15));
        c -= Cycles(5);
        assert_eq!(c, Cycles(10));
        assert_eq!(c * 3, Cycles(30));
        assert_eq!(c / 2, Cycles(5));
        assert_eq!(Cycles(3).saturating_sub(Cycles(5)), Cycles::ZERO);
        let total: Cycles = [Cycles(1), Cycles(2), Cycles(3)].into_iter().sum();
        assert_eq!(total, Cycles(6));
    }

    #[test]
    fn seconds_cycles_round_trip() {
        let freq = 2.66e9;
        let s = Seconds::from_millis(100.0);
        let c = s.to_cycles(freq);
        assert_eq!(c.as_u64(), 266_000_000);
        assert!((c.as_f64() / freq - 0.1).abs() < 1e-12);
    }

    #[test]
    fn display_formats_scale() {
        assert_eq!(Seconds(1.5).to_string(), "1.500 s");
        assert_eq!(Seconds::from_millis(2.0).to_string(), "2.000 ms");
        assert_eq!(Seconds(7e-6).to_string(), "7.000 us");
        assert_eq!(Cycles(9).to_string(), "9 cycles");
    }
}
