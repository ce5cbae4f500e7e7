//! # mini-innodb — a miniature InnoDB-style storage engine
//!
//! A page-based transactional storage engine reproducing the I/O protocol
//! the SHARE paper modifies in MySQL/InnoDB 5.7 (§2.1, §4.3):
//!
//! * clustered B+tree over fixed-size checksummed pages (4/8/16 KiB),
//! * buffer pool with InnoDB's midpoint LRU and clean-first batch eviction,
//! * physiological redo on a **separate log device**, grouped into
//!   mini-transactions,
//! * and the **double-write buffer** in three modes: `DwbOn` (default
//!   InnoDB: journal + in-place rewrite), `DwbOff` (fast but torn-page
//!   unsafe), and `Share` (journal once, then remap the home location with
//!   the SHARE command — the paper's contribution).
//!
//! The LinkBench-facing API (`add_node`, `add_link`, `get_link_list`, …)
//! maps one-to-one onto the ten transaction types of the paper's Table 1.
//!
//! ```
//! use mini_innodb::{standard_log_device, FlushMode, InnoDb, InnoDbConfig};
//! use share_core::{BlockDevice, Ftl, FtlConfig};
//!
//! let data = Ftl::new(FtlConfig::for_capacity(16 << 20, 0.3));
//! let log = standard_log_device(data.clock().clone());
//! let cfg = InnoDbConfig { mode: FlushMode::Share, max_pages: 2_000, ..Default::default() };
//! let mut db = InnoDb::create(data, log, cfg).unwrap();
//!
//! db.add_node(1, b"alice").unwrap();
//! db.add_node(2, b"bob").unwrap();
//! db.add_link(1, 0, 2, b"follows").unwrap();
//! assert_eq!(db.get_link_list(1, 0).unwrap().len(), 1);
//! assert_eq!(db.count_link(1, 0).unwrap(), 1);
//! ```

mod bufpool;
mod engine;
mod error;
mod key;
mod page;
mod redo;
mod tree;

pub use bufpool::{BufferPool, PoolStats};
pub use engine::{EngineStats, FlushMode, InnoDb, InnoDbConfig};
pub use error::EngineError;
pub use key::{Key, Table};
pub use page::{NodePage, PageDecodeError, ENTRY_OVERHEAD, NO_PAGE, PAGE_HEADER};
pub use redo::{standard_log_device, CheckpointMeta, RedoBody, RedoLog, RedoRecord};

/// Result alias for engine operations.
pub type Result<T> = std::result::Result<T, EngineError>;
