//! Operation counters for the NAND array.

share_telemetry::counter_table! {
    /// Cumulative NAND-level operation counters.
    ///
    /// These are the medium-side numbers behind the paper's Figure 6: the FTL
    /// adds host-side counters on top, and `copyback` programs during garbage
    /// collection are distinguished by the FTL, not here.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct NandStats {
        /// Pages read from the medium.
        pub page_reads: u64,
        /// Pages programmed to the medium.
        pub page_programs: u64,
        /// Blocks erased.
        pub block_erases: u64,
        /// Programs that were torn by an injected power loss.
        pub torn_programs: u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_subtracts_fieldwise() {
        let a = NandStats { page_reads: 10, page_programs: 20, block_erases: 3, torn_programs: 1 };
        let b = NandStats { page_reads: 4, page_programs: 5, block_erases: 1, torn_programs: 0 };
        let d = a.delta_since(&b);
        assert_eq!(d, NandStats { page_reads: 6, page_programs: 15, block_erases: 2, torn_programs: 1 });
    }
}
