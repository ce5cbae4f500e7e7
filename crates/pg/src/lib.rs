//! # mini-pg — a miniature PostgreSQL WAL engine
//!
//! Reproduces the paper's §5.3.1 pgbench side experiment: the cost of
//! PostgreSQL's `full_page_writes` torn-page protection, and how a
//! SHARE-capable device removes it. See [`MiniPg`] and [`FpwMode`].
//!
//! ```
//! use mini_pg::{FpwMode, MiniPg, PgConfig};
//! use share_core::{Ftl, FtlConfig};
//!
//! let dev = Ftl::new(FtlConfig::for_capacity(96 << 20, 0.3));
//! let cfg = PgConfig { mode: FpwMode::Share, ..Default::default() };
//! let mut pg = MiniPg::create(dev, cfg).unwrap();
//! pg.run_txn(42, 1, 0, 250).unwrap();
//! assert_eq!(pg.account_balance(42).unwrap(), 250);
//! ```

mod engine;

pub use engine::{FpwMode, MiniPg, PgConfig, PgError, PgStats};
