//! Power-loss fault injection.
//!
//! The torn-page problem motivating the paper (Section 2) arises when power
//! fails *during* a page program: the medium holds a mix of old and new
//! bits. A [`FaultHandle`] arms a countdown over NAND programs; when it
//! reaches zero, the in-flight program is torn (a prefix of the new data is
//! written, the rest remains erased) and the device goes down until
//! [`crate::NandArray::power_cycle`] is called — exactly what a crash test
//! needs to exercise recovery paths.

use std::cell::Cell;
use std::rc::Rc;

/// What the injected fault does to the in-flight program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FaultMode {
    /// Half the page gets the new content, the rest stays erased (0xFF).
    #[default]
    TornHalf,
    /// The program is lost entirely (page remains erased).
    DroppedWrite,
    /// The program completes, *then* power fails (clean crash boundary).
    AfterProgram,
}

impl FaultMode {
    /// Every mode, for exhaustive crash sweeps.
    pub const ALL: [FaultMode; 3] =
        [FaultMode::TornHalf, FaultMode::DroppedWrite, FaultMode::AfterProgram];

    /// Stable lowercase name (CLI arguments, sweep reports).
    pub fn label(self) -> &'static str {
        match self {
            FaultMode::TornHalf => "torn-half",
            FaultMode::DroppedWrite => "dropped-write",
            FaultMode::AfterProgram => "after-program",
        }
    }

    /// Inverse of [`FaultMode::label`].
    pub fn from_label(s: &str) -> Option<FaultMode> {
        FaultMode::ALL.into_iter().find(|m| m.label() == s)
    }
}

#[derive(Debug, Default)]
struct FaultState {
    /// Programs remaining before the fault fires; negative = disarmed.
    countdown: Cell<i64>,
    /// What the armed fault does.
    mode: Cell<FaultMode>,
    /// Device is down after a fault until power-cycled.
    down: Cell<bool>,
    /// Number of faults fired over the device lifetime.
    fired: Cell<u64>,
    /// Program *attempts* observed over the device lifetime (counted even
    /// while disarmed, and even for programs the fault then drops). Crash
    /// sweeps read this to enumerate the crash-point space of a workload.
    seen: Cell<u64>,
}

/// Shared handle controlling power-loss injection on one [`crate::NandArray`].
///
/// Cloning the handle shares state, so a test can keep a handle while the
/// device is owned by an FTL deep inside an engine stack. Like
/// [`crate::SimClock`] it is a single-thread shared cell, neither `Send`
/// nor `Sync`: the device's stack lives on one thread, and a program's
/// countdown takes no locked read-modify-write.
#[derive(Debug, Clone, Default)]
pub struct FaultHandle {
    state: Rc<FaultState>,
}

impl FaultHandle {
    /// A disarmed handle.
    pub fn new() -> Self {
        let h = Self::default();
        h.state.countdown.set(-1);
        h
    }

    /// Arm the fault to fire on the `n`-th *subsequent* NAND program
    /// (1 = the very next program).
    pub fn arm_after_programs(&self, n: u64, mode: FaultMode) {
        assert!(n >= 1, "countdown must be at least 1");
        self.state.mode.set(mode);
        self.state.countdown.set(n as i64);
    }

    /// Disarm any pending fault (does not bring a downed device back up).
    pub fn disarm(&self) {
        self.state.countdown.set(-1);
    }

    /// Whether the device is currently down due to a fired fault.
    pub fn is_down(&self) -> bool {
        self.state.down.get()
    }

    /// How many faults have fired on this device.
    pub fn faults_fired(&self) -> u64 {
        self.state.fired.get()
    }

    /// Program attempts observed since this handle's device was created,
    /// armed or not. A crash sweep measures a fault-free run's delta of
    /// this counter to enumerate every possible crash point; unlike
    /// `NandStats::page_programs` it also counts attempts a
    /// [`FaultMode::DroppedWrite`] fault swallowed.
    pub fn programs_seen(&self) -> u64 {
        self.state.seen.get()
    }

    /// Called by the device on each program/write. Returns `Some(mode)`
    /// when the fault fires on this operation. Public so that other device
    /// models (e.g. a conventional SSD) can share the injection mechanism.
    pub fn on_program(&self) -> Option<FaultMode> {
        let s = &*self.state;
        s.seen.set(s.seen.get() + 1);
        match s.countdown.get() {
            n if n < 0 => None,
            1 => {
                s.down.set(true);
                s.fired.set(s.fired.get() + 1);
                s.countdown.set(-1);
                Some(s.mode.get())
            }
            n => {
                s.countdown.set(n - 1);
                None
            }
        }
    }

    /// Called by the device on power-cycle.
    pub fn clear_down(&self) {
        self.state.down.set(false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn countdown_fires_exactly_once() {
        let h = FaultHandle::new();
        h.arm_after_programs(3, FaultMode::TornHalf);
        assert_eq!(h.on_program(), None);
        assert_eq!(h.on_program(), None);
        assert_eq!(h.on_program(), Some(FaultMode::TornHalf));
        assert!(h.is_down());
        assert_eq!(h.on_program(), None); // disarmed after firing
        assert_eq!(h.faults_fired(), 1);
    }

    #[test]
    fn disarm_prevents_firing() {
        let h = FaultHandle::new();
        h.arm_after_programs(1, FaultMode::DroppedWrite);
        h.disarm();
        assert_eq!(h.on_program(), None);
        assert!(!h.is_down());
    }

    #[test]
    fn mode_labels_roundtrip() {
        for mode in FaultMode::ALL {
            assert_eq!(FaultMode::from_label(mode.label()), Some(mode));
        }
        // Unknown labels must be rejected, not folded into a real mode.
        assert_eq!(FaultMode::from_label("nonsense"), None);
    }

    #[test]
    fn armed_mode_is_the_mode_that_fires() {
        for mode in FaultMode::ALL {
            let h = FaultHandle::new();
            h.arm_after_programs(1, mode);
            assert_eq!(h.on_program(), Some(mode));
            h.clear_down();
        }
    }

    #[test]
    fn programs_seen_counts_every_attempt() {
        let h = FaultHandle::new();
        assert_eq!(h.programs_seen(), 0);
        h.on_program(); // disarmed attempts still count
        h.on_program();
        h.arm_after_programs(2, FaultMode::DroppedWrite);
        h.on_program();
        h.on_program(); // fires (and would be dropped by the device)
        assert!(h.is_down());
        assert_eq!(h.programs_seen(), 4);
    }

    #[test]
    fn clones_share_state() {
        let h = FaultHandle::new();
        let h2 = h.clone();
        h.arm_after_programs(1, FaultMode::AfterProgram);
        assert_eq!(h2.on_program(), Some(FaultMode::AfterProgram));
        assert!(h.is_down());
        h2.clear_down();
        assert!(!h.is_down());
    }
}
