//! Substrate snapshots: one file holding a collection's cold-start
//! structures so a later process loads them instead of re-tokenizing and
//! re-sorting.
//!
//! A snapshot bundles one token interner (the id ⇄ string boundary every
//! keyed structure resolves through) with any subset of: the profile
//! collection, a CSR block collection, a frozen profile index, a
//! materialized blocking graph, and a neighbor list. Loading reproduces
//! each structure's arrays bit for bit (`tests/roundtrip.rs`) without
//! tokenizing or sorting anything.

use crate::container::Store;
use crate::error::StoreError;
use crate::substrates::{
    decode_blocks, decode_graph, decode_interner, decode_neighbor_list, decode_profile_index,
    decode_profiles, encode_blocks, encode_graph, encode_interner, encode_neighbor_list,
    encode_profile_index, encode_profiles, TAG_BLOCKS, TAG_GRAPH, TAG_INTERNER, TAG_NEIGHBOR_LIST,
    TAG_PROFILES, TAG_PROFILE_INDEX,
};
use sper_blocking::{BlockCollection, BlockingGraph, NeighborList, ProfileIndex};
use sper_model::ProfileCollection;
use sper_text::TokenInterner;
use std::path::Path;
use std::sync::Arc;

/// A bundle of columnar substrates sharing one interner.
///
/// ```
/// use sper_blocking::TokenBlocking;
/// use sper_model::ProfileCollectionBuilder;
/// use sper_store::Snapshot;
/// use std::sync::Arc;
///
/// let mut b = ProfileCollectionBuilder::dirty();
/// b.add_profile([("name", "carl white")]);
/// b.add_profile([("name", "karl white")]);
/// let profiles = b.build();
/// let blocks = TokenBlocking.build(&profiles);
///
/// let mut snapshot = Snapshot::new(Arc::clone(blocks.interner()));
/// snapshot.profiles = Some(profiles);
/// snapshot.blocks = Some(blocks);
/// let bytes = snapshot.to_store().expect("shared interner").to_bytes();
///
/// let back = Snapshot::from_store(
///     &sper_store::Store::from_bytes(&bytes).expect("valid store"),
/// ).expect("valid snapshot");
/// assert_eq!(back.blocks.as_ref().expect("stored").len(), 1);
/// ```
#[derive(Debug)]
pub struct Snapshot {
    /// The shared token interner (always stored).
    interner: Arc<TokenInterner>,
    /// The profile collection, when bundled.
    pub profiles: Option<ProfileCollection>,
    /// A CSR block collection, when bundled. Its keys must resolve
    /// through [`Self::interner`].
    pub blocks: Option<BlockCollection>,
    /// A frozen profile index, when bundled.
    pub profile_index: Option<ProfileIndex>,
    /// A materialized blocking graph, when bundled.
    pub graph: Option<BlockingGraph>,
    /// A neighbor list, when bundled. When it retains per-position keys,
    /// they must resolve through [`Self::interner`].
    pub neighbor_list: Option<NeighborList>,
}

impl Snapshot {
    /// An empty snapshot around the given interner.
    pub fn new(interner: Arc<TokenInterner>) -> Self {
        Self {
            interner,
            profiles: None,
            blocks: None,
            profile_index: None,
            graph: None,
            neighbor_list: None,
        }
    }

    /// The shared interner.
    pub fn interner(&self) -> &Arc<TokenInterner> {
        &self.interner
    }

    /// Serializes the snapshot into a sectioned store.
    ///
    /// # Errors
    ///
    /// [`StoreError::InternerMismatch`] when the block collection — or a
    /// key-retaining neighbor list — does not share [`Self::interner`]:
    /// its keys would resolve through the wrong vocabulary after a load.
    pub fn to_store(&self) -> Result<Store, StoreError> {
        if let Some(blocks) = &self.blocks {
            if !Arc::ptr_eq(blocks.interner(), &self.interner) {
                return Err(StoreError::InternerMismatch {
                    structure: "block collection",
                });
            }
        }
        if let Some(nl) = &self.neighbor_list {
            if nl.keys().is_some() && !Arc::ptr_eq(nl.interner(), &self.interner) {
                return Err(StoreError::InternerMismatch {
                    structure: "neighbor list",
                });
            }
        }
        let mut store = Store::new();
        store.push(TAG_INTERNER, encode_interner(&self.interner));
        if let Some(profiles) = &self.profiles {
            store.push(TAG_PROFILES, encode_profiles(profiles));
        }
        if let Some(blocks) = &self.blocks {
            store.push(TAG_BLOCKS, encode_blocks(blocks));
        }
        if let Some(index) = &self.profile_index {
            store.push(TAG_PROFILE_INDEX, encode_profile_index(index));
        }
        if let Some(graph) = &self.graph {
            store.push(TAG_GRAPH, encode_graph(graph));
        }
        if let Some(nl) = &self.neighbor_list {
            store.push(TAG_NEIGHBOR_LIST, encode_neighbor_list(nl));
        }
        Ok(store)
    }

    /// Deserializes whichever substrates the store holds.
    pub fn from_store(store: &Store) -> Result<Self, StoreError> {
        let interner = Arc::new(decode_interner(store.require(TAG_INTERNER, "INTR")?)?);
        let profiles = store.get(TAG_PROFILES).map(decode_profiles).transpose()?;
        let blocks = store
            .get(TAG_BLOCKS)
            .map(|b| decode_blocks(b, Arc::clone(&interner)))
            .transpose()?;
        let profile_index = store
            .get(TAG_PROFILE_INDEX)
            .map(decode_profile_index)
            .transpose()?;
        let graph = store.get(TAG_GRAPH).map(decode_graph).transpose()?;
        let neighbor_list = store
            .get(TAG_NEIGHBOR_LIST)
            .map(|b| decode_neighbor_list(b, Arc::clone(&interner)))
            .transpose()?;
        Ok(Self {
            interner,
            profiles,
            blocks,
            profile_index,
            graph,
            neighbor_list,
        })
    }

    /// Writes the snapshot to a file (atomically, via temp + rename).
    pub fn write_to_path(&self, path: &Path) -> Result<(), StoreError> {
        let _span = sper_obs::span!("store.snapshot_write");
        self.to_store()?.write_to_path(path)
    }

    /// Reads a snapshot file.
    pub fn read_from_path(path: &Path) -> Result<Self, StoreError> {
        let _span = sper_obs::span!("store.snapshot_read");
        Self::from_store(&Store::read_from_path(path)?)
    }

    /// The tags present in this snapshot, for reporting.
    pub fn describe(&self) -> Vec<&'static str> {
        let mut out = vec!["interner"];
        if self.profiles.is_some() {
            out.push("profiles");
        }
        if self.blocks.is_some() {
            out.push("blocks");
        }
        if self.profile_index.is_some() {
            out.push("profile-index");
        }
        if self.graph.is_some() {
            out.push("graph");
        }
        if self.neighbor_list.is_some() {
            out.push("neighbor-list");
        }
        out
    }
}
