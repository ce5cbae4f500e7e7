//! # mini-couch — a miniature Couchbase/couchstore storage engine
//!
//! An append-only, copy-on-write document store reproducing the NoSQL side
//! of the SHARE paper (§2.2, §4.3, §5.3.2):
//!
//! * documents are appended at the file tail; a commit fsyncs every
//!   `batch_size` updates,
//! * the by-key index is an immutable (copy-on-write) B+tree whose nodes
//!   are rewritten root-to-leaf on every commit — the **wandering tree**
//!   write amplification,
//! * a commit header block ends each commit; recovery scans backward for
//!   the last intact header,
//! * **SHARE mode** remaps each update's new copy onto the old document's
//!   blocks, eliminating the index cascade entirely, and performs
//!   **zero-copy compaction** (fallocate + share) per the paper's Figure 3.
//!
//! ```
//! use mini_couch::{CouchConfig, CouchMode, CouchStore};
//! use share_core::{Ftl, FtlConfig};
//! use share_vfs::{Vfs, VfsOptions};
//!
//! let fs = Vfs::format(Ftl::new(FtlConfig::for_capacity(32 << 20, 0.3)),
//!                      VfsOptions::default()).unwrap();
//! let cfg = CouchConfig { mode: CouchMode::Share, batch_size: 4, ..Default::default() };
//! let mut store = CouchStore::create(fs, "demo.couch", cfg).unwrap();
//!
//! store.save(7, b"hello").unwrap();
//! store.commit().unwrap();
//! store.save(7, b"world").unwrap(); // same size: SHARE-remapped, no tree write
//! store.commit().unwrap();
//! assert_eq!(store.get(7).unwrap(), Some(b"world".to_vec()));
//! assert_eq!(store.stats().share_remaps, 1);
//! ```

mod compact;
mod error;
mod format;
mod store;

pub use compact::CompactionReport;
pub use error::CouchError;
pub use format::{
    decode_doc_block, decode_doc_payload, decode_header, decode_node, doc_blocks,
    doc_payload_per_block, encode_doc, encode_header, encode_node, node_capacity, DocBlock, DocPtr,
    Header, NodeEntry,
};
pub use store::{CouchConfig, CouchMode, CouchStats, CouchStore, NO_ROOT};

/// Result alias for store operations.
pub type Result<T> = std::result::Result<T, CouchError>;
