//! Logical addressing types and the SHARE command payload.

use std::fmt;

pub use nand_sim::Ppn;

/// A logical page number — the address space the host sees.
///
/// The FTL maps each LPN to a physical page ([`Ppn`]) through the L2P
/// table; the SHARE command rewrites that mapping explicitly.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Lpn(pub u64);

impl Lpn {
    /// Sentinel for "no logical page" (used in reverse-mapping slots).
    pub const INVALID: Lpn = Lpn(u64::MAX);

    /// Whether this LPN is the invalid sentinel.
    #[inline]
    pub fn is_valid(self) -> bool {
        self != Self::INVALID
    }

    /// The LPN `n` pages after this one.
    #[inline]
    pub fn offset(self, n: u64) -> Lpn {
        Lpn(self.0 + n)
    }
}

impl fmt::Display for Lpn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
    }
}

/// One `(dest, src)` pair of a SHARE command.
///
/// Executing the pair remaps `dest` to the physical page currently backing
/// `src` — afterwards both logical pages *share* one physical page. This is
/// the `share(LPN1, LPN2)` of the paper's Section 3.2, with `dest = LPN1`
/// and `src = LPN2`: "FTL changes the physical address mapped to LPN1 to
/// the physical address currently mapped to LPN2".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SharePair {
    /// The logical page whose mapping is rewritten.
    pub dest: Lpn,
    /// The logical page whose current physical page becomes shared.
    pub src: Lpn,
}

impl SharePair {
    /// Construct a pair remapping `dest` onto `src`'s physical page.
    pub fn new(dest: Lpn, src: Lpn) -> Self {
        Self { dest, src }
    }

    /// Expand a ranged `share(LPN1, LPN2, length)` into per-page pairs.
    ///
    /// Mirrors the paper's `length` argument: it must be a multiple of the
    /// mapping unit (already guaranteed here by page-granular types), and
    /// the two ranges must not overlap.
    pub fn range(dest: Lpn, src: Lpn, length: u64) -> Vec<SharePair> {
        assert!(length > 0, "length must be positive");
        let overlap = dest.0 < src.0 + length && src.0 < dest.0 + length;
        assert!(!overlap, "SHARE ranges must not overlap (dest {dest}, src {src}, len {length})");
        (0..length).map(|i| SharePair::new(dest.offset(i), src.offset(i))).collect()
    }
}

impl fmt::Display for SharePair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} <- {}", self.dest, self.src)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lpn_offset_and_validity() {
        assert_eq!(Lpn(5).offset(3), Lpn(8));
        assert!(Lpn(0).is_valid());
        assert!(!Lpn::INVALID.is_valid());
    }

    #[test]
    fn range_expands_pairwise() {
        let pairs = SharePair::range(Lpn(100), Lpn(200), 3);
        assert_eq!(
            pairs,
            vec![
                SharePair::new(Lpn(100), Lpn(200)),
                SharePair::new(Lpn(101), Lpn(201)),
                SharePair::new(Lpn(102), Lpn(202)),
            ]
        );
    }

    #[test]
    #[should_panic(expected = "must not overlap")]
    fn overlapping_ranges_rejected() {
        SharePair::range(Lpn(100), Lpn(102), 4);
    }

    #[test]
    fn adjacent_ranges_are_fine() {
        // dest 100..104, src 104..108: touching but not overlapping.
        let pairs = SharePair::range(Lpn(100), Lpn(104), 4);
        assert_eq!(pairs.len(), 4);
    }

    #[test]
    fn display_is_readable() {
        assert_eq!(SharePair::new(Lpn(1), Lpn(2)).to_string(), "L1 <- L2");
    }
}
