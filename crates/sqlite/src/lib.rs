//! # mini-sqlite — SQLite-style journaling over the SHARE device
//!
//! The paper's §3.3 and §7 name SQLite as the next application: "it can
//! simply turn \[rollback and write-ahead-log journaling\] off, because
//! SHARE supports transactional atomicity and durability at the storage
//! level." This crate implements a miniature SQLite **pager** — a
//! transactional key-value table over record pages — with all four commit
//! protocols so the claim can be tested and measured:
//!
//! * [`JournalMode::Rollback`] — before-image journal, then in-place writes
//! * [`JournalMode::Wal`] — after-image log, checkpointed into the database
//! * [`JournalMode::Off`] — in-place only: fast, torn pages unrecoverable
//! * [`JournalMode::Share`] — after-images staged once, SHARE-remapped into
//!   place as a single atomic batch: `Off`'s write cost, `Rollback`'s safety
//!
//! `share-bench`'s `sqlite_modes` artifact compares all four.
//!
//! ```
//! use mini_sqlite::{JournalMode, MiniSqlite, SqliteConfig};
//! use share_core::{Ftl, FtlConfig};
//!
//! let dev = Ftl::new(FtlConfig::for_capacity(32 << 20, 0.3));
//! let cfg = SqliteConfig { mode: JournalMode::Share, ..Default::default() };
//! let mut db = MiniSqlite::create(dev, cfg).unwrap();
//! db.put(1, b"first").unwrap();
//! db.put(2, b"second").unwrap();
//! db.commit().unwrap(); // one atomic SHARE batch, no journal
//! assert_eq!(db.get(1).unwrap(), Some(b"first".to_vec()));
//! ```

mod error;
mod page;
mod pager;

pub use error::SqliteError;
pub use page::{RecordPage, PAGE_HEADER, RECORD_OVERHEAD};
pub use pager::{JournalMode, MiniSqlite, SqliteConfig, SqliteStats};

/// Result alias for pager operations.
pub type Result<T> = std::result::Result<T, SqliteError>;
