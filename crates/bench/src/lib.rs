//! # share-bench — experiment harness for the SHARE paper reproduction
//!
//! One results table, [`artifacts`], renders every table and figure of the
//! paper's evaluation (see DESIGN.md's per-experiment index) into
//! `results/<stem>.txt`; the `results` binary writes the files. Two
//! reusable drivers carry the paper's workloads:
//!
//! * [`linkbench_driver`] — LinkBench over mini-InnoDB (Figures 5–6, Table 1)
//! * [`ycsb_driver`] — YCSB over mini-Couchbase (Figures 7–8, Table 2)

pub mod artifacts;
pub mod linkbench_driver;
#[cfg(test)]
mod tests;
pub mod table;
pub mod timing;
pub mod ycsb_driver;

pub use linkbench_driver::{run_linkbench, LinkBenchResult, LinkBenchRun};
pub use table::{f, mb, render_table};
pub use ycsb_driver::{loaded_store, run_compaction, run_ycsb, YcsbResult, YcsbRun};
