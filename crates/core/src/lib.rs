//! # share-core — the SHARE flash-storage interface
//!
//! Reproduction of the FTL described in *"SHARE Interface in Flash Storage
//! for Relational and NoSQL Databases"* (SIGMOD 2016): a page-mapping flash
//! translation layer that exposes an explicit **address remapping** command
//! to the host.
//!
//! ## The idea
//!
//! Databases guarantee atomic page propagation with two-phase write schemes
//! (journaling, copy-on-write): data is written once to a safe location and
//! a second time to its live location. Flash storage *already* writes
//! out-of-place and keeps a logical-to-physical mapping; `share(dest, src)`
//! lets the host turn the second write into a mapping update, eliminating
//! the doubled write entirely while keeping crash atomicity — the FTL logs
//! the batch's mapping deltas in a single atomically-programmed flash page.
//!
//! ## Quick start
//!
//! ```
//! use share_core::{BlockDevice, Ftl, FtlConfig, Lpn, SharePair};
//!
//! let mut dev = Ftl::new(FtlConfig::for_capacity(16 << 20, 0.2));
//! let page = vec![42u8; dev.page_size()];
//!
//! // Journal-style protocol: write once to the "journal" location...
//! dev.write(Lpn(1000), &page).unwrap();
//! dev.flush().unwrap();
//! // ...then atomically remap the "home" location instead of rewriting.
//! dev.share(&[SharePair::new(Lpn(0), Lpn(1000))]).unwrap();
//!
//! let mut check = vec![0u8; dev.page_size()];
//! dev.read(Lpn(0), &mut check).unwrap();
//! assert_eq!(check, page);
//! ```
//!
//! ## Modules
//!
//! * [`Ftl`] — the SHARE-capable device (mapping, delta log, GC, recovery)
//! * [`SimpleSsd`] — a conventional SSD without SHARE (log device, baseline)
//! * [`BlockDevice`] — the command-set trait engines program against
//! * [`FtlConfig`] — geometry, over-provisioning, reverse-map sizing

mod ckpt;
mod config;
mod delta;
mod device;
mod error;
mod ftl;
mod mapping;
mod pool;
mod queue;
pub mod snapshot;
mod stats;
mod types;
mod util;

pub use ckpt::{checkpoint_pages, max_snapshot_bytes, snapshot_section_pages};
pub use config::{FtlConfig, GcPolicy, Stripe, DELTA_BYTES, META_PAGE_HEADER};
pub use delta::{Delta, DeltaLog, DeltaPage};
pub use device::{BlockDevice, FlightSnapshot, SimpleSsd};
pub use error::FtlError;
pub use ftl::{Ftl, WearStats};
pub use mapping::{MappingTable, RevMap};
pub use pool::{BlockPool, BlockState, WritePoint};
pub use queue::{CmdOutput, CmdTag, Completion, QueuedCmd};
pub use snapshot::{SnapshotInfo, SnapshotTable};
pub use stats::DeviceStats;
pub use types::{Lpn, SharePair};
pub use util::{crc32c, crc32c_append, recycle_vec, FixedState};

/// Re-exported observability subsystem (see the `share-telemetry` crate):
/// latency histograms, spans, exporters.
pub use share_telemetry as telemetry;
pub use share_telemetry::{
    Layer, OpClass, Snapshot, Span, SpanId, Telemetry, TelemetryConfig, Track, Tracer,
};

/// Result alias for device operations.
pub type Result<T> = std::result::Result<T, FtlError>;
