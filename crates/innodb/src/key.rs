//! Composite clustered-index keys.
//!
//! All three LinkBench tables live in one clustered B+tree, distinguished
//! by a table tag in the key prefix — keys compare bytewise, so big-endian
//! encoding gives the right sort order and makes prefix range scans
//! (`Get_Link_List`) a contiguous leaf walk.

/// Fixed-width composite key: `[table:1][id1:8][type:4][id2:8][pad:3]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Key(pub [u8; 24]);

/// Table tags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Table {
    /// Node rows: key = (NODE, id).
    Node = 1,
    /// Link rows: key = (LINK, id1, link_type, id2).
    Link = 2,
    /// Link-count rows: key = (COUNT, id1, link_type).
    Count = 3,
}

impl Key {
    /// Smallest possible key.
    pub const MIN: Key = Key([0; 24]);
    /// Largest possible key.
    pub const MAX: Key = Key([0xFF; 24]);

    /// Generic constructor.
    pub fn new(table: Table, id1: u64, typ: u32, id2: u64) -> Self {
        let mut k = [0u8; 24];
        k[0] = table as u8;
        k[1..9].copy_from_slice(&id1.to_be_bytes());
        k[9..13].copy_from_slice(&typ.to_be_bytes());
        k[13..21].copy_from_slice(&id2.to_be_bytes());
        Key(k)
    }

    /// Node-table key.
    pub fn node(id: u64) -> Self {
        Self::new(Table::Node, id, 0, 0)
    }

    /// Link-table key.
    pub fn link(id1: u64, typ: u32, id2: u64) -> Self {
        Self::new(Table::Link, id1, typ, id2)
    }

    /// Count-table key.
    pub fn count(id1: u64, typ: u32) -> Self {
        Self::new(Table::Count, id1, typ, 0)
    }

    /// Inclusive lower bound of the (id1, type) link range.
    pub fn link_range_start(id1: u64, typ: u32) -> Self {
        Self::new(Table::Link, id1, typ, 0)
    }

    /// Exclusive upper bound of the (id1, type) link range.
    pub fn link_range_end(id1: u64, typ: u32) -> Self {
        Self::new(Table::Link, id1, typ, u64::MAX)
    }

    /// The table tag of this key.
    pub fn table_tag(&self) -> u8 {
        self.0[0]
    }

    /// When this key is the lowest key of an (id1, type) link list — what
    /// [`Key::link_range_start`] builds — the list's exclusive end. A real
    /// link to id2 = 0 is the same key, so it answers too.
    pub fn link_list_end(&self) -> Option<Key> {
        let starts = self.0[0] == Table::Link as u8 && self.0[13..].iter().all(|&b| b == 0);
        starts.then(|| {
            let mut end = *self;
            end.0[13..21].fill(0xFF); // id2 = u64::MAX, as link_range_end
            end
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_follows_components() {
        assert!(Key::node(1) < Key::node(2));
        assert!(Key::node(u64::MAX) < Key::link(0, 0, 0)); // table tag dominates
        assert!(Key::link(1, 0, 5) < Key::link(1, 1, 0)); // type before id2
        assert!(Key::link(1, 1, 5) < Key::link(2, 0, 0)); // id1 before type
    }

    #[test]
    fn link_range_bounds_cover_exactly_the_prefix() {
        let lo = Key::link_range_start(7, 3);
        let hi = Key::link_range_end(7, 3);
        assert!(lo <= Key::link(7, 3, 0));
        assert!(Key::link(7, 3, u64::MAX - 1) < hi);
        assert!(Key::link(7, 2, u64::MAX) < lo);
        assert!(hi < Key::link(8, 0, 0));
        assert!(hi < Key::link(7, 4, 0));
    }

    #[test]
    fn only_a_list_start_names_its_list_end() {
        assert_eq!(Key::link_range_start(7, 3).link_list_end(), Some(Key::link_range_end(7, 3)));
        // A link to node 0 is the list's lowest key.
        assert_eq!(Key::link(7, 3, 0).link_list_end(), Some(Key::link_range_end(7, 3)));
        assert_eq!(Key::link(7, 3, 1).link_list_end(), None);
        assert_eq!(Key::node(7).link_list_end(), None);
        assert_eq!(Key::count(7, 3).link_list_end(), None);
        assert_eq!(Key::link_range_end(7, 3).link_list_end(), None);
    }

    #[test]
    fn min_max_bracket_everything() {
        assert!(Key::MIN < Key::node(0));
        assert!(Key::link(u64::MAX, u32::MAX, u64::MAX) < Key::MAX);
    }

    #[test]
    fn table_tags() {
        assert_eq!(Key::node(1).table_tag(), 1);
        assert_eq!(Key::link(1, 2, 3).table_tag(), 2);
        assert_eq!(Key::count(1, 2).table_tag(), 3);
    }
}
