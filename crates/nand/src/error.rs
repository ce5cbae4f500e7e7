//! Error type for raw NAND operations.

use crate::geometry::{BlockId, Ppn};
use std::fmt;

/// Errors surfaced by the NAND array.
///
/// `ProgramOnDirtyPage` and `OutOfOrderProgram` indicate FTL bugs (the FTL
/// is responsible for honoring NAND constraints); `PowerLoss` is the
/// injected fault the crash-recovery tests exercise.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NandError {
    /// PPN or block id beyond the configured geometry.
    OutOfRange { what: &'static str, index: u64, limit: u64 },
    /// Attempt to program a page that has not been erased.
    ProgramOnDirtyPage(Ppn),
    /// Pages in a block must be programmed in ascending order.
    OutOfOrderProgram { ppn: Ppn, expected_index: u32 },
    /// Buffer length does not match the page size.
    BadBufferLength { got: usize, want: usize },
    /// A power-loss fault fired; the device is down until `power_cycle`.
    PowerLoss,
    /// Copyback from a page that holds nothing (an FTL bug: only
    /// programmed pages are relocated).
    CopybackFromErased(Ppn),
    /// Block erase attempted while pages are mid-operation (unused hook for
    /// future multi-plane modeling), or erase of an out-of-range block.
    EraseFailed(BlockId),
}

impl fmt::Display for NandError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NandError::OutOfRange { what, index, limit } => {
                write!(f, "{what} {index} out of range (limit {limit})")
            }
            NandError::ProgramOnDirtyPage(ppn) => {
                write!(f, "program on non-erased page {ppn}")
            }
            NandError::OutOfOrderProgram { ppn, expected_index } => write!(
                f,
                "out-of-order program of {ppn}: next programmable in-block index is {expected_index}"
            ),
            NandError::BadBufferLength { got, want } => {
                write!(f, "buffer length {got} does not match page size {want}")
            }
            NandError::PowerLoss => write!(f, "power loss: device is down"),
            NandError::CopybackFromErased(ppn) => write!(f, "copyback from erased page {ppn}"),
            NandError::EraseFailed(b) => write!(f, "erase of {b} failed"),
        }
    }
}

impl std::error::Error for NandError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_descriptive() {
        let e = NandError::OutOfRange { what: "ppn", index: 10, limit: 8 };
        assert!(e.to_string().contains("out of range"));
        assert!(NandError::ProgramOnDirtyPage(Ppn(3)).to_string().contains("P3"));
        assert!(NandError::PowerLoss.to_string().contains("power loss"));
        let o = NandError::OutOfOrderProgram { ppn: Ppn(1), expected_index: 0 };
        assert!(o.to_string().contains("out-of-order"));
    }
}
