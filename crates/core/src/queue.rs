//! NVMe-style submission/completion queueing at the [`BlockDevice`]
//! boundary.
//!
//! The synchronous `BlockDevice` methods model a host that submits one
//! command and blocks until it completes — only pages *within* one batch
//! ever overlap across NAND channels. Queued submission breaks that
//! ceiling: the host enqueues tagged commands ([`QueuedCmd`]) up to the
//! device's queue depth, the device executes each at submission time on a
//! deferred NAND window (state eagerly, timing onto per-channel/way lanes),
//! and the host later reaps [`Completion`]s. Commands from independent
//! connections thus overlap across channels exactly as on a real NVMe
//! device, while the simulated clock advances only when the host observes
//! completions.
//!
//! [`BlockDevice`]: crate::BlockDevice

use crate::error::FtlError;
use crate::types::{Lpn, SharePair};
use share_telemetry::OpClass;

/// Tag identifying one queued command on its device. Tags are unique for
/// the device's lifetime (monotonic 32-bit counter).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CmdTag(pub u32);

impl std::fmt::Display for CmdTag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// A command enqueued on a device submission queue. It borrows what the
/// synchronous twin of each command borrows: the device executes a queued
/// command's state at submission (module doc), so the caller's pages, LPNs
/// and pairs only have to live for the `submit` call — the medium holds the
/// bytes when it returns, and the submitting connection can reuse its
/// buffers before the command completes. `PendingCmd`/[`Completion`] never
/// hold the command, only its outcome; the one buffer that crosses the
/// boundary by value is a [`QueuedCmd::ReadBatch`]'s destination, which the
/// completion hands back (DESIGN.md §8 "Buffer ownership").
#[derive(Debug, Clone)]
pub enum QueuedCmd<'a> {
    /// Read one page: a one-page [`QueuedCmd::ReadBatch`] into a fresh
    /// buffer, completing with [`CmdOutput::Pages`].
    Read { lpn: Lpn },
    /// Read a vector of pages as one submission into `buf`, which the
    /// submitter moves in: the device sizes it to exactly `lpns.len() ×
    /// page_size`, reads or zero-fills every page of it — nothing it held
    /// before shows — and hands it back as the completion's
    /// [`CmdOutput::Pages`]. A buffer with that capacity costs no heap; an
    /// empty `Vec` is one allocation. A refused submission drops it.
    ReadBatch { lpns: &'a [Lpn], buf: Vec<u8> },
    /// Write one page. The one variant that owns its payload: the benchmark
    /// package's device transcript builds it from an owned page, and the
    /// form goes with the other single-page forms when the command surface
    /// shrinks (ROADMAP item 14). No engine submits it.
    Write { lpn: Lpn, data: Vec<u8> },
    /// Write a vector of pages as one submission (prefix-durable on error,
    /// like the sync `write_batch`).
    WriteBatch { pages: &'a [(Lpn, &'a [u8])] },
    /// All-or-nothing multi-page write.
    WriteAtomic { pages: &'a [(Lpn, &'a [u8])] },
    /// Atomic SHARE batch (one log page).
    Share { pairs: &'a [SharePair] },
    /// Chunked SHARE submission (one command, sub-batch atomicity).
    ShareBatch { pairs: &'a [SharePair] },
    /// Invalidate `len` pages starting at `lpn`.
    Trim { lpn: Lpn, len: u64 },
    /// Durability barrier for everything already submitted.
    Flush,
}

impl QueuedCmd<'_> {
    /// Stable name for spans/telemetry.
    pub fn name(&self) -> &'static str {
        match self {
            QueuedCmd::Read { .. } => "q_read",
            QueuedCmd::ReadBatch { .. } => "q_read_batch",
            QueuedCmd::Write { .. } => "q_write",
            QueuedCmd::WriteBatch { .. } => "q_write_batch",
            QueuedCmd::WriteAtomic { .. } => "q_write_atomic",
            QueuedCmd::Share { .. } => "q_share",
            QueuedCmd::ShareBatch { .. } => "q_share_batch",
            QueuedCmd::Trim { .. } => "q_trim",
            QueuedCmd::Flush => "q_flush",
        }
    }

    /// What telemetry records the command as: op class and pages.
    pub(crate) fn header(&self) -> (OpClass, u64) {
        match self {
            QueuedCmd::Read { .. } => (OpClass::Read, 1),
            QueuedCmd::ReadBatch { lpns, .. } => (OpClass::ReadBatch, lpns.len() as u64),
            QueuedCmd::Write { .. } => (OpClass::Write, 1),
            QueuedCmd::WriteBatch { pages } => (OpClass::WriteBatch, pages.len() as u64),
            QueuedCmd::WriteAtomic { pages } => (OpClass::WriteAtomic, pages.len() as u64),
            QueuedCmd::Share { pairs } => (OpClass::Share, pairs.len() as u64),
            QueuedCmd::ShareBatch { pairs } => (OpClass::ShareBatch, pairs.len() as u64),
            QueuedCmd::Trim { len, .. } => (OpClass::Trim, *len),
            QueuedCmd::Flush => (OpClass::Flush, 0),
        }
    }
}

/// Data carried back by a completed command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CmdOutput {
    /// No payload (writes, trim, share, flush).
    None,
    /// Pages of read data: the read's buffer — a `ReadBatch`'s own `buf`,
    /// a fresh one for a `Read` — of `lpns.len() × page_size` bytes, the
    /// pages back to back in request order (`chunks_exact(page_size)` walks
    /// them). The reaper owns it from here on: an engine whose record spans
    /// the pages can keep it as the record, and lend it to its next
    /// `ReadBatch` once the record is done with.
    Pages(Vec<u8>),
}

impl CmdOutput {
    /// The flat page buffer of a [`CmdOutput::Pages`] completion.
    pub fn into_pages(self) -> Option<Vec<u8>> {
        match self {
            CmdOutput::Pages(p) => Some(p),
            _ => None,
        }
    }
}

/// A reaped completion: when the command was submitted, when the device
/// finished it, and its outcome. `complete_ns - submit_ns` is the
/// latency-under-load the telemetry histograms record.
#[derive(Debug, Clone)]
pub struct Completion {
    /// Tag returned by `submit`.
    pub tag: CmdTag,
    /// Simulated time at submission.
    pub submit_ns: u64,
    /// Simulated time the device finished the command.
    pub complete_ns: u64,
    /// Outcome, with read payloads on success.
    pub result: Result<CmdOutput, FtlError>,
}

impl Completion {
    /// Whether the command succeeded.
    pub fn is_ok(&self) -> bool {
        self.result.is_ok()
    }

    /// Latency the host observed (completion minus submission).
    pub fn latency_ns(&self) -> u64 {
        self.complete_ns.saturating_sub(self.submit_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_order_and_display() {
        assert!(CmdTag(1) < CmdTag(2));
        assert_eq!(CmdTag(7).to_string(), "T7");
    }

    #[test]
    fn output_accessors() {
        assert_eq!(CmdOutput::Pages(vec![2, 3]).into_pages(), Some(vec![2, 3]));
        assert_eq!(CmdOutput::None.into_pages(), None);
    }

    #[test]
    fn completion_latency_saturates() {
        let c = Completion {
            tag: CmdTag(0),
            submit_ns: 100,
            complete_ns: 250,
            result: Ok(CmdOutput::None),
        };
        assert!(c.is_ok());
        assert_eq!(c.latency_ns(), 150);
        let weird = Completion { submit_ns: 300, ..c };
        assert_eq!(weird.latency_ns(), 0);
    }

    #[test]
    fn cmd_names_are_stable() {
        assert_eq!(QueuedCmd::Read { lpn: Lpn(0) }.name(), "q_read");
        assert_eq!(QueuedCmd::Flush.name(), "q_flush");
        assert_eq!(QueuedCmd::Share { pairs: &[] }.name(), "q_share");
    }
}
