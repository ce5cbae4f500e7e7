//! Deterministic simulated clock shared by every device in an experiment.

use std::cell::Cell;
use std::rc::Rc;

/// A shared, monotonically increasing simulated clock (nanoseconds).
///
/// All devices attached to the same experiment clone one `SimClock`, so a
/// database engine that drives two devices (e.g. the OpenSSD data drive and
/// the PM853T log drive in the paper's setup) observes a single timeline.
/// Operations advance the clock by their modeled service time; host CPU
/// time is charged explicitly by the drivers.
///
/// The clock is a single-thread shared cell, so it is neither `Send` nor
/// `Sync`: an experiment builds and drives its whole stack on one thread
/// (experiments run side by side on threads of their own, each with its
/// own clock), and no submission pays a locked read-modify-write.
#[derive(Debug, Clone, Default)]
pub struct SimClock {
    ns: Rc<Cell<u64>>,
}

impl SimClock {
    /// A new clock starting at t = 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current simulated time in nanoseconds.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.ns.get()
    }

    /// Advance the clock by `ns` nanoseconds and return the new time.
    #[inline]
    pub fn advance(&self, ns: u64) -> u64 {
        let now = self.ns.get() + ns;
        self.ns.set(now);
        now
    }

    /// Move the clock forward to `ns` if it is currently earlier; never
    /// moves it backward. Returns the (possibly unchanged) current time.
    ///
    /// This is how multi-channel completion works: a batch submission
    /// computes each page's completion time on its unit and the clock jumps
    /// to the *max* completion time, so overlapping operations on different
    /// channels cost only the slowest one.
    #[inline]
    pub fn advance_to(&self, ns: u64) -> u64 {
        let now = self.ns.get().max(ns);
        self.ns.set(now);
        now
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_zero_and_advances() {
        let c = SimClock::new();
        assert_eq!(c.now_ns(), 0);
        assert_eq!(c.advance(10), 10);
        assert_eq!(c.advance(5), 15);
        assert_eq!(c.now_ns(), 15);
    }

    #[test]
    fn clones_share_the_timeline() {
        let a = SimClock::new();
        let b = a.clone();
        a.advance(100);
        assert_eq!(b.now_ns(), 100);
        b.advance(1);
        assert_eq!(a.now_ns(), 101);
        // A new clock is a timeline of its own.
        let c = SimClock::new();
        c.advance(7);
        assert_eq!((a.now_ns(), c.now_ns()), (101, 7));
    }

    #[test]
    fn advance_to_is_monotonic() {
        let c = SimClock::new();
        assert_eq!(c.advance_to(100), 100);
        // Moving to an earlier time is a no-op.
        assert_eq!(c.advance_to(40), 100);
        assert_eq!(c.now_ns(), 100);
        assert_eq!(c.advance_to(250), 250);
    }
}
