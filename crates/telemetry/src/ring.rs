//! Bounded ring buffer of recent device commands, for post-mortem
//! inspection (e.g. after a crash-sweep failure: what were the last N
//! commands the device saw, and did they complete?).

use crate::OpClass;

/// One completed (or failed) device command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommandEvent {
    /// Monotonic sequence number across the device's lifetime (also counts
    /// commands that were evicted from the ring).
    pub seq: u64,
    /// Command class.
    pub op: OpClass,
    /// Stream id the command was attributed to.
    pub stream: u32,
    /// First LPN touched (0 for commands without an address, e.g. flush).
    pub lpn: u64,
    /// Pages touched.
    pub pages: u64,
    /// Simulated start tick (ns).
    pub start_ns: u64,
    /// Simulated completion tick (ns).
    pub end_ns: u64,
    /// Whether the command succeeded.
    pub ok: bool,
}

/// Fixed-capacity ring of [`CommandEvent`]s; pushing past capacity evicts
/// the oldest event. Capacity 0 disables recording entirely.
#[derive(Debug, Clone, Default)]
pub struct CommandRing {
    cap: usize,
    /// Storage in rotation order; `head` is the index the next push lands at
    /// once the ring is full.
    buf: Vec<CommandEvent>,
    head: usize,
}

impl CommandRing {
    /// A ring holding at most `cap` events.
    pub fn new(cap: usize) -> Self {
        Self { cap, buf: Vec::new(), head: 0 }
    }

    /// Capacity the ring was created with.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Record one event (no-op when capacity is 0).
    pub fn push(&mut self, ev: CommandEvent) {
        if self.cap == 0 {
            return;
        }
        if self.buf.len() < self.cap {
            self.buf.push(ev);
        } else {
            self.buf[self.head] = ev;
            self.head = (self.head + 1) % self.cap;
        }
    }

    /// Retained events, oldest first.
    pub fn events(&self) -> Vec<CommandEvent> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        out
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether no events are retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(seq: u64) -> CommandEvent {
        CommandEvent {
            seq,
            op: OpClass::Read,
            stream: 0,
            lpn: seq,
            pages: 1,
            start_ns: seq * 10,
            end_ns: seq * 10 + 5,
            ok: true,
        }
    }

    #[test]
    fn zero_capacity_records_nothing() {
        let mut r = CommandRing::new(0);
        r.push(ev(1));
        assert!(r.is_empty());
    }

    #[test]
    fn under_capacity_keeps_all_in_order() {
        let mut r = CommandRing::new(4);
        for i in 0..3 {
            r.push(ev(i));
        }
        let seqs: Vec<u64> = r.events().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn over_capacity_evicts_oldest() {
        let mut r = CommandRing::new(3);
        for i in 0..10 {
            r.push(ev(i));
        }
        let seqs: Vec<u64> = r.events().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![7, 8, 9]);
        assert_eq!(r.len(), 3);
    }
}
