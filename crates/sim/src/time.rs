//! Virtual time.

/// A point in virtual time, in nanoseconds since iteration start.
///
/// `SimTime` is also used for durations; the arithmetic saturates on
/// subtraction so schedules can never go negative.
///
/// # Examples
///
/// ```
/// use stronghold_sim::SimTime;
///
/// let a = SimTime::from_millis(250);
/// let b = SimTime::from_secs_f64(0.75);
/// assert_eq!((a + b).as_secs_f64(), 1.0);
/// assert_eq!(a - b, SimTime::ZERO); // saturating
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SimTime(pub u64);

impl SimTime {
    /// Time zero.
    pub const ZERO: SimTime = SimTime(0);

    /// From microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// From milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// From fractional seconds (rounds to nanoseconds; negative clamps to 0).
    pub fn from_secs_f64(s: f64) -> Self {
        SimTime((s.max(0.0) * 1e9).round() as u64)
    }

    /// As fractional seconds.
    pub fn as_secs_f64(&self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// As fractional milliseconds.
    pub fn as_millis_f64(&self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Raw nanoseconds.
    pub fn as_nanos(&self) -> u64 {
        self.0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }

    /// Larger of two times.
    pub fn max(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.max(rhs.0))
    }

    /// Smaller of two times.
    pub fn min(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.min(rhs.0))
    }
}

impl std::ops::Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl std::ops::AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl std::ops::Sub for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimTime) -> SimTime {
        self.saturating_sub(rhs)
    }
}

impl std::ops::Mul<u64> for SimTime {
    type Output = SimTime;
    fn mul(self, rhs: u64) -> SimTime {
        SimTime(self.0 * rhs)
    }
}

impl std::fmt::Display for SimTime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let ms = self.as_millis_f64();
        if ms >= 1000.0 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else {
            write!(f, "{ms:.2}ms")
        }
    }
}

/// Maximum of an iterator of times (ZERO when empty).
pub fn max_time<I: IntoIterator<Item = SimTime>>(iter: I) -> SimTime {
    iter.into_iter().fold(SimTime::ZERO, SimTime::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(SimTime::from_millis(3).as_nanos(), 3_000_000);
        assert_eq!(SimTime::from_micros(5).as_nanos(), 5_000);
        assert!((SimTime::from_secs_f64(1.5).as_secs_f64() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn saturating_arithmetic() {
        let a = SimTime::from_millis(2);
        let b = SimTime::from_millis(5);
        assert_eq!(a - b, SimTime::ZERO);
        assert_eq!(b - a, SimTime::from_millis(3));
    }

    #[test]
    fn ordering_and_max() {
        let t = max_time([SimTime(4), SimTime(9), SimTime(2)]);
        assert_eq!(t, SimTime(9));
        assert_eq!(max_time(std::iter::empty()), SimTime::ZERO);
    }

    #[test]
    fn display_units() {
        assert_eq!(format!("{}", SimTime::from_millis(12)), "12.00ms");
        assert_eq!(format!("{}", SimTime::from_secs_f64(2.5)), "2.500s");
    }
}
