//! # share-bench — experiment harness for the SHARE paper reproduction
//!
//! One binary per table/figure of the paper's evaluation (see DESIGN.md's
//! per-experiment index), built on two reusable drivers:
//!
//! * [`linkbench_driver`] — LinkBench over mini-InnoDB (Figures 5–6, Table 1)
//! * [`ycsb_driver`] — YCSB over mini-Couchbase (Figures 7–8, Table 2)
//!
//! Set `SHARE_BENCH_SCALE` (e.g. `0.2`) to shrink run sizes for smoke tests.

pub mod linkbench_driver;
#[cfg(test)]
mod tests;
pub mod table;
pub mod timing;
pub mod ycsb_driver;

pub use linkbench_driver::{run_linkbench, LinkBenchResult, LinkBenchRun};
pub use table::{f, mb, print_table, scale_from_env, scaled};
pub use ycsb_driver::{loaded_store, run_compaction, run_ycsb, YcsbResult, YcsbRun};
