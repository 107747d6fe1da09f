//! Persistent snapshots and checkpoint/resume for the columnar core.
//!
//! The progressive methods exist to deliver matches under a budget; in a
//! long-running deployment that means sessions pause at budget exhaustion
//! and resume later — possibly in another process. This crate is the
//! durability layer that makes that cheap: a versioned, checksummed,
//! little-endian sectioned binary format (magic `SPER`) whose sections are
//! exactly the flat arrays the columnar substrates are made of, so writing
//! is a sequence of `memcpy`-shaped column dumps and loading skips
//! re-tokenization, re-sorting and re-hashing entirely.
//!
//! Two on-disk structures are defined over the shared container:
//!
//! * [`Snapshot`] — a collection's cold-start substrates ([`sper_text::TokenInterner`],
//!   [`sper_model::ProfileCollection`], CSR [`sper_blocking::BlockCollection`],
//!   [`sper_blocking::ProfileIndex`], [`sper_blocking::BlockingGraph`],
//!   [`sper_blocking::NeighborList`]) that round-trip to **bit-identical
//!   arrays**;
//! * [`SessionCheckpoint`] — a [`sper_stream::ProgressiveSession`]'s
//!   complete transferable state (epoch state, cross-epoch dedup filter,
//!   emission cursor), such that a resumed session emits exactly the
//!   suffix an uninterrupted run would have emitted.
//!
//! Corrupted input (truncation, bad magic, wrong version, bit rot) always
//! surfaces as a typed [`StoreError`] — never a panic — with per-section
//! CRC-32s attributing damage to the section it hit.
//!
//! See DESIGN.md § "Persistence" for the format layout, the versioning
//! policy and the checkpoint-semantics argument.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod container;
mod crc32;
mod error;
mod wire;

mod checkpoint;
mod healing;
mod salvage;
mod snapshot;
pub mod substrates;

pub use checkpoint::{
    SessionCheckpoint, TAG_EMITTED, TAG_LIVE_BLOCKS, TAG_NL_RUNS, TAG_REPORTS, TAG_SESSION,
    TAG_TOMBSTONES,
};
pub use container::{
    purge_stale_tmp, tmp_path, Store, Tag, FORMAT_VERSION, MAGIC, MIN_FORMAT_VERSION,
};
pub use crc32::crc32;
pub use error::StoreError;
pub use healing::{
    prev_path, read_store_with_fallback, read_with_fallback, CheckpointOutcome, CheckpointWriter,
    OnCheckpointFailure, RetryPolicy,
};
pub use salvage::{LostSection, SalvageReport};
pub use snapshot::Snapshot;
