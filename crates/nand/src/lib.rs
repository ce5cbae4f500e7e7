//! # nand-sim — NAND flash array simulator
//!
//! This crate models the raw NAND flash medium that the SHARE FTL
//! (`share-core`) manages. It stands in for the Samsung K9LCG08U1M MLC chips
//! on the first-generation OpenSSD board used by the paper
//! *"SHARE Interface in Flash Storage for Relational and NoSQL Databases"*
//! (SIGMOD 2016).
//!
//! The simulator enforces the physical constraints that make an FTL
//! necessary in the first place:
//!
//! * a page can only be programmed when its block has been erased
//!   (**erase-before-program**),
//! * pages within a block must be programmed **in order** (a NAND
//!   requirement on modern MLC parts),
//! * erase operates on whole blocks and is three orders of magnitude
//!   slower than a read.
//!
//! Every operation advances a deterministic [`SimClock`] by the configured
//! [`NandTiming`], so experiments report *simulated* elapsed time and are
//! exactly reproducible. A [`FaultHandle`] can arm a power-loss fault that
//! tears an in-flight page program — the mechanism used by the atomicity
//! tests to reproduce the torn-page problem the paper's Section 2 motivates.
//!
//! ```
//! use nand_sim::{BlockId, NandArray, NandGeometry, Ppn};
//!
//! let mut nand = NandArray::new(NandGeometry::small());
//! let page = vec![0xAB; 4096];
//! nand.program(Ppn(0), &page).unwrap();
//! // NAND forbids overwriting: the block must be erased first.
//! assert!(nand.program(Ppn(0), &page).is_err());
//! nand.erase(BlockId(0)).unwrap();
//! nand.program(Ppn(0), &page).unwrap();
//! ```

mod array;
mod clock;
mod error;
mod fault;
mod geometry;
mod image;
mod stats;

pub use array::{NandArray, PageState};
pub use clock::SimClock;
pub use error::NandError;
pub use fault::{FaultHandle, FaultMode};
pub use geometry::{BlockId, NandGeometry, NandTiming, Ppn};
pub use stats::NandStats;

/// Convenience result alias for NAND operations.
pub type Result<T> = std::result::Result<T, NandError>;
