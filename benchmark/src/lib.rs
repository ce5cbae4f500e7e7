//! # share-benchmark — the repository's two-clock benchmark
//!
//! Five fixed-op-count workloads over the unmodified crates under
//! `crates/`, measured from outside through their public functions:
//!
//! * the **simulated clock** (`SimClock`, `DeviceStats`): what the paper's
//!   claims are about; deterministic for a seed, so it must repeat exactly;
//! * the **host clock** (wall time, user CPU, allocations, RSS): what the
//!   simulator costs to run.
//!
//! See `README.md` in this directory for the workloads, the metric
//! definitions and how the layers' numbers interact.

#![warn(unsafe_op_in_unsafe_fn)]

pub mod churn;
pub mod compare;
pub mod host;
pub mod linkbench;
pub mod probe;
pub mod rep;
pub mod run;
pub mod spec;
pub mod timed;
pub mod trace;
pub mod ycsb;

/// Every allocation of the process is counted: `allocs_per_op` and
/// `alloc_kb_per_op` are end-to-end metrics.
#[global_allocator]
static ALLOC: host::CountingAlloc = host::CountingAlloc;
