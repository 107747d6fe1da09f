//! Section codecs for every columnar substrate.
//!
//! Each substrate serializes to exactly the flat arrays it is made of
//! (the CSR columns of PR 2), so encoding is a sequence of `memcpy`-shaped
//! array writes and decoding reassembles the structure through its
//! `from_raw_parts` / `from_parts` constructor — **after** validating
//! every invariant those constructors only debug-assert. A store file is
//! untrusted input: out-of-range ids, non-monotone offsets and duplicate
//! keys must surface as [`StoreError::Corrupt`], never as a panic or a
//! silently inconsistent structure.
//!
//! Round-trips are bit-identical: the decoded structure's raw arrays
//! equal the encoded one's element for element (property-tested in
//! `tests/roundtrip.rs`).

use crate::container::Tag;
use crate::error::StoreError;
use crate::wire::{Decoder, Encoder};
use sper_blocking::{Block, BlockCollection, BlockingGraph, NeighborList, ProfileIndex};
use sper_model::{Attribute, ErKind, Pair, ProfileCollection, ProfileCollectionBuilder, ProfileId};
use sper_text::{TokenId, TokenInterner};
use std::sync::Arc;

/// Section tag of the token interner vocabulary.
pub const TAG_INTERNER: Tag = *b"INTR";
/// Section tag of a profile collection.
pub const TAG_PROFILES: Tag = *b"PROF";
/// Section tag of a frozen CSR profile index.
pub const TAG_PROFILE_INDEX: Tag = *b"PIDX";
/// Section tag of a CSR block collection.
pub const TAG_BLOCKS: Tag = *b"BLKC";
/// Section tag of a materialized blocking graph.
pub const TAG_GRAPH: Tag = *b"GRPH";
/// Section tag of a neighbor list.
pub const TAG_NEIGHBOR_LIST: Tag = *b"NLST";

/// Encodes an interner as its id-ordered vocabulary.
pub fn encode_interner(interner: &TokenInterner) -> Vec<u8> {
    let strings = interner.strings();
    let mut e = Encoder::new();
    e.u64(strings.len() as u64);
    for s in &strings {
        e.str(s);
    }
    e.into_bytes()
}

/// Decodes an interner, preserving every id.
pub fn decode_interner(bytes: &[u8]) -> Result<TokenInterner, StoreError> {
    let mut d = Decoder::new(bytes, "INTR");
    let count = d.len()?;
    let mut strings = Vec::with_capacity(count.min(1 << 20));
    for _ in 0..count {
        strings.push(d.str()?);
    }
    d.finish()?;
    TokenInterner::from_strings(strings).map_err(|e| StoreError::Corrupt {
        section: "INTR".into(),
        detail: e.to_string(),
    })
}

/// Encodes a profile collection: kind, `|P1|`, then every profile's
/// attribute pairs in id order (sources are implied by the `P1`-first id
/// layout the collection invariants guarantee).
pub fn encode_profiles(profiles: &ProfileCollection) -> Vec<u8> {
    let mut e = Encoder::new();
    e.u8(profiles.kind().code());
    e.u64(profiles.len_first() as u64);
    e.u64(profiles.len() as u64);
    for p in profiles.iter() {
        e.u64(p.attributes.len() as u64);
        for a in &p.attributes {
            e.str(&a.name);
            e.str(&a.value);
        }
    }
    e.into_bytes()
}

/// Decodes a profile collection, re-deriving dense ids and sources.
pub fn decode_profiles(bytes: &[u8]) -> Result<ProfileCollection, StoreError> {
    let mut d = Decoder::new(bytes, "PROF");
    let kind = ErKind::from_code(d.u8()?).ok_or_else(|| d.corrupt("unknown ER-kind code"))?;
    let n_first = d.len()?;
    let count = d.len()?;
    if n_first > count {
        return Err(d.corrupt(format!("|P1| = {n_first} exceeds |P| = {count}")));
    }
    if kind == ErKind::Dirty && n_first != count {
        return Err(d.corrupt("Dirty collection with a second source"));
    }
    let mut b = match kind {
        ErKind::Dirty => ProfileCollectionBuilder::dirty(),
        ErKind::CleanClean => ProfileCollectionBuilder::clean_clean(),
    };
    for i in 0..count {
        if kind == ErKind::CleanClean && i == n_first {
            b.start_second_source();
        }
        let n_attrs = d.len()?;
        let mut attributes = Vec::with_capacity(n_attrs.min(1 << 16));
        for _ in 0..n_attrs {
            let name = d.str()?;
            let value = d.str()?;
            attributes.push(Attribute::new(name, value));
        }
        b.add_attributes(attributes);
    }
    if kind == ErKind::CleanClean && n_first == count {
        b.start_second_source();
    }
    d.finish()?;
    Ok(b.build())
}

/// Encodes a frozen CSR profile index.
pub fn encode_profile_index(index: &ProfileIndex) -> Vec<u8> {
    let (offsets, block_ids, cardinalities) = index.raw_parts();
    let mut e = Encoder::new();
    e.u64(index.total_blocks() as u64);
    e.slice_u32(offsets);
    e.slice_u32(block_ids);
    e.slice_u64(cardinalities);
    e.into_bytes()
}

/// Decodes a frozen CSR profile index, validating its invariants.
pub fn decode_profile_index(bytes: &[u8]) -> Result<ProfileIndex, StoreError> {
    let mut d = Decoder::new(bytes, "PIDX");
    let total_blocks = d.len()?;
    let offsets = d.vec_u32()?;
    let block_ids = d.vec_u32()?;
    let cardinalities = d.vec_u64()?;
    validate_csr_offsets(&d, &offsets, block_ids.len())?;
    if cardinalities.len() != total_blocks {
        return Err(d.corrupt(format!(
            "{} cardinalities for {total_blocks} blocks",
            cardinalities.len()
        )));
    }
    for w in offsets.windows(2) {
        let range = &block_ids[w[0] as usize..w[1] as usize];
        if !range.windows(2).all(|p| p[0] < p[1]) {
            return Err(d.corrupt("a profile's block list is not strictly ascending"));
        }
    }
    if block_ids.iter().any(|&b| b as usize >= total_blocks) {
        return Err(d.corrupt("block id out of range"));
    }
    d.finish()?;
    Ok(ProfileIndex::from_raw_parts(
        offsets,
        block_ids,
        cardinalities,
        total_blocks,
    ))
}

/// Encodes a CSR block collection (kind, `|P|`, then the four columns).
pub fn encode_blocks(blocks: &BlockCollection) -> Vec<u8> {
    let parts = blocks.raw_parts();
    let mut e = Encoder::new();
    e.u8(parts.kind.code());
    e.u64(parts.n_profiles as u64);
    e.slice_u32(&token_ids_as_u32(parts.keys));
    e.slice_u32(parts.offsets);
    e.slice_u32(&profile_ids_as_u32(parts.members));
    e.slice_u32(parts.n_firsts);
    e.into_bytes()
}

/// Decodes a CSR block collection against `interner` (which must resolve
/// every key id).
pub fn decode_blocks(
    bytes: &[u8],
    interner: Arc<TokenInterner>,
) -> Result<BlockCollection, StoreError> {
    let mut d = Decoder::new(bytes, "BLKC");
    let kind = ErKind::from_code(d.u8()?).ok_or_else(|| d.corrupt("unknown ER-kind code"))?;
    let n_profiles = d.len()?;
    let keys = d.vec_u32()?;
    let offsets = d.vec_u32()?;
    let members = d.vec_u32()?;
    let n_firsts = d.vec_u32()?;
    if offsets.len() != keys.len() + 1 || n_firsts.len() != keys.len() {
        return Err(d.corrupt("column lengths disagree"));
    }
    validate_csr_offsets(&d, &offsets, members.len())?;
    if keys.iter().any(|&k| k as usize >= interner.len()) {
        return Err(d.corrupt("block key not in the interner vocabulary"));
    }
    if members.iter().any(|&m| m as usize >= n_profiles) {
        return Err(d.corrupt("block member out of profile range"));
    }
    for (i, w) in offsets.windows(2).enumerate() {
        let size = w[1] - w[0];
        if n_firsts[i] > size {
            return Err(d.corrupt(format!("block {i}: |b ∩ P1| exceeds |b|")));
        }
        let members = &members[w[0] as usize..w[1] as usize];
        let (firsts, seconds) = members.split_at(n_firsts[i] as usize);
        if !firsts.windows(2).all(|p| p[0] < p[1]) || !seconds.windows(2).all(|p| p[0] < p[1]) {
            return Err(d.corrupt(format!(
                "block {i}: members not ascending within source partitions"
            )));
        }
    }
    d.finish()?;
    Ok(BlockCollection::from_raw_parts(
        kind,
        n_profiles,
        interner,
        u32_as_token_ids(keys),
        offsets,
        u32_as_profile_ids(members),
        n_firsts,
    ))
}

/// Encodes a materialized blocking graph as its weighted edge list (the
/// CSR adjacency is a pure function of the list and is rebuilt on load).
pub fn encode_graph(graph: &BlockingGraph) -> Vec<u8> {
    let mut e = Encoder::new();
    e.u64(graph.num_nodes() as u64);
    e.u64(graph.num_edges() as u64);
    for (pair, weight) in graph.edges() {
        e.u32(pair.first.0);
        e.u32(pair.second.0);
        e.f64(weight);
    }
    e.into_bytes()
}

/// Decodes a blocking graph, validating endpoints and rebuilding the
/// adjacency deterministically.
pub fn decode_graph(bytes: &[u8]) -> Result<BlockingGraph, StoreError> {
    let mut d = Decoder::new(bytes, "GRPH");
    let n_profiles = d.len()?;
    let n_edges = d.len()?;
    let mut edges: Vec<(Pair, f64)> = Vec::with_capacity(n_edges.min(1 << 20));
    for _ in 0..n_edges {
        let first = d.u32()?;
        let second = d.u32()?;
        let weight = d.f64()?;
        if first >= second {
            return Err(d.corrupt("edge endpoints not in canonical order"));
        }
        if second as usize >= n_profiles {
            return Err(d.corrupt("edge endpoint out of profile range"));
        }
        edges.push((Pair::new(ProfileId(first), ProfileId(second)), weight));
    }
    d.finish()?;
    Ok(BlockingGraph::from_edges(n_profiles, edges))
}

/// Encodes a neighbor list (the placement array plus the optional
/// per-position key column).
pub fn encode_neighbor_list(nl: &NeighborList) -> Vec<u8> {
    let mut e = Encoder::new();
    e.u64(nl.position_index().n_profiles() as u64);
    e.slice_u32(&profile_ids_as_u32(nl.as_slice()));
    match nl.keys() {
        Some(keys) => {
            e.u8(1);
            e.slice_u32(&token_ids_as_u32(keys));
        }
        None => e.u8(0),
    }
    e.into_bytes()
}

/// Decodes a neighbor list against `interner`, rebuilding the position
/// index (a pure function of the list, so round-trips are bit-identical).
pub fn decode_neighbor_list(
    bytes: &[u8],
    interner: Arc<TokenInterner>,
) -> Result<NeighborList, StoreError> {
    let mut d = Decoder::new(bytes, "NLST");
    let n_profiles = d.len()?;
    let nl = d.vec_u32()?;
    if nl.iter().any(|&p| p as usize >= n_profiles) {
        return Err(d.corrupt("placement out of profile range"));
    }
    let keys = match d.u8()? {
        0 => None,
        1 => {
            let keys = d.vec_u32()?;
            if keys.len() != nl.len() {
                return Err(d.corrupt("key column length disagrees with the list"));
            }
            if keys.iter().any(|&k| k as usize >= interner.len()) {
                return Err(d.corrupt("position key not in the interner vocabulary"));
            }
            Some(u32_as_token_ids(keys))
        }
        other => return Err(d.corrupt(format!("invalid key-presence flag {other}"))),
    };
    d.finish()?;
    Ok(NeighborList::from_raw_parts(
        u32_as_profile_ids(nl),
        keys,
        interner,
        n_profiles,
    ))
}

/// Encodes the live blocks of an incremental token-blocking substrate
/// (insertion order, singletons included).
pub(crate) fn encode_live_blocks(blocks: &[Block]) -> Vec<u8> {
    let mut e = Encoder::new();
    e.u64(blocks.len() as u64);
    for b in blocks {
        e.u32(b.key.0);
        e.u32(b.first_source().len() as u32);
        e.slice_u32(&profile_ids_as_u32(b.profiles()));
    }
    e.into_bytes()
}

/// A profile's tombstone state, as a checkpoint's `TOMB` section records
/// it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Tomb {
    /// Never retracted.
    Live,
    /// Retracted; its substrate rows may still be physically present.
    Pending,
    /// Retracted and compacted away: no substrate row may hold it.
    Compacted,
}

/// Decodes live blocks, validating the one-block-per-token invariant and
/// every member against its tombstone state in `marks` (one per profile).
pub(crate) fn decode_live_blocks(
    bytes: &[u8],
    marks: &[Tomb],
    interner: &TokenInterner,
) -> Result<Vec<Block>, StoreError> {
    let mut d = Decoder::new(bytes, "ITBK");
    let count = d.len()?;
    let mut seen_keys = vec![false; interner.len()];
    let mut blocks = Vec::with_capacity(count.min(1 << 20));
    for i in 0..count {
        let key = d.u32()?;
        if key as usize >= interner.len() {
            return Err(d.corrupt(format!("block {i}: key not in the interner vocabulary")));
        }
        if std::mem::replace(&mut seen_keys[key as usize], true) {
            return Err(d.corrupt(format!("block {i}: duplicate token key")));
        }
        let n_first = d.u32()? as usize;
        let members = d.vec_u32()?;
        if n_first > members.len() {
            return Err(d.corrupt(format!("block {i}: |b ∩ P1| exceeds |b|")));
        }
        for &m in &members {
            check_member(&d, marks, m)?;
        }
        let (firsts, seconds) = members.split_at(n_first);
        if !firsts.windows(2).all(|p| p[0] < p[1]) || !seconds.windows(2).all(|p| p[0] < p[1]) {
            return Err(d.corrupt(format!(
                "block {i}: members not ascending within source partitions"
            )));
        }
        blocks.push(Block::from_partitioned(
            TokenId(key),
            u32_as_profile_ids(members),
            n_first as u32,
        ));
    }
    d.finish()?;
    Ok(blocks)
}

/// Checks one substrate member against `marks`: a profile of the
/// collection, and not one the `TOMB` section says was compacted away.
pub(crate) fn check_member(d: &Decoder<'_>, marks: &[Tomb], m: u32) -> Result<(), StoreError> {
    match marks.get(m as usize) {
        None => Err(d.corrupt(format!("member {m} out of profile range"))),
        Some(Tomb::Compacted) => Err(d.corrupt(format!(
            "member {m} is retracted but not a pending tombstone"
        ))),
        Some(Tomb::Live | Tomb::Pending) => Ok(()),
    }
}

/// Appends the `ITBK` index segment of the live `blocks` to `out`: per
/// profile, the ascending insertion-order positions of the blocks that
/// hold it, and per block, its cardinality over its physical members. A
/// retracted profile (any mark but `Live`) lists no block, even while its
/// rows are pending. The segment is a pure function of the blocks and
/// the marks, so a save writes it and a load re-derives it to check the
/// stored bytes. One counting pass sizes it; one scatter fills it.
///
/// Layout: `|B|`, `|P| + 1`, the `u64` offsets, the entry count, the
/// `u32` block positions, `|B|`, the `u64` cardinalities.
pub(crate) fn append_live_index(out: &mut Vec<u8>, kind: ErKind, blocks: &[Block], marks: &[Tomb]) {
    let listed = |p: &&ProfileId| marks[p.index()] == Tomb::Live;
    let mut cursor = vec![0u64; marks.len()];
    for b in blocks {
        for p in b.profiles().iter().filter(listed) {
            cursor[p.index()] += 1;
        }
    }
    let entries: u64 = cursor.iter().sum();
    let put =
        |out: &mut Vec<u8>, at: usize, v: u64| out[at..at + 8].copy_from_slice(&v.to_le_bytes());
    let start = out.len();
    let offsets_at = start + 16;
    let entries_at = offsets_at + 8 * (marks.len() + 1) + 8;
    let cards_at = entries_at + 4 * entries as usize + 8;
    out.resize(cards_at + 8 * blocks.len(), 0);
    put(out, start, blocks.len() as u64);
    put(out, start + 8, marks.len() as u64 + 1);
    let mut end = 0u64;
    for (p, c) in cursor.iter_mut().enumerate() {
        let count = *c;
        *c = end;
        end += count;
        put(out, offsets_at + 8 * (p + 1), end);
    }
    put(out, entries_at - 8, entries);
    put(out, cards_at - 8, blocks.len() as u64);
    for (bid, b) in blocks.iter().enumerate() {
        for p in b.profiles().iter().filter(listed) {
            let at = entries_at + 4 * cursor[p.index()] as usize;
            out[at..at + 4].copy_from_slice(&(bid as u32).to_le_bytes());
            cursor[p.index()] += 1;
        }
        put(out, cards_at + 8 * bid, b.cardinality(kind));
    }
}

/// Shared offset-table validation for the `u32` CSR columns.
fn validate_csr_offsets(d: &Decoder<'_>, offsets: &[u32], total: usize) -> Result<(), StoreError> {
    if offsets.is_empty() || offsets[0] != 0 {
        return Err(d.corrupt("offset table must start at 0"));
    }
    if offsets.windows(2).any(|w| w[0] > w[1]) {
        return Err(d.corrupt("offsets are not monotone"));
    }
    if *offsets.last().expect("non-empty") as usize != total {
        return Err(d.corrupt("offset table disagrees with packed-array length"));
    }
    Ok(())
}

// `TokenId` / `ProfileId` are `repr(Rust)` newtypes over `u32`; the wire
// format stores the raw integers, so the boundary is one map in each
// direction (the compiler lowers these to no-ops or simple loops).

fn token_ids_as_u32(ids: &[TokenId]) -> Vec<u32> {
    ids.iter().map(|t| t.0).collect()
}

fn u32_as_token_ids(raw: Vec<u32>) -> Vec<TokenId> {
    raw.into_iter().map(TokenId).collect()
}

fn profile_ids_as_u32(ids: &[ProfileId]) -> Vec<u32> {
    ids.iter().map(|p| p.0).collect()
}

fn u32_as_profile_ids(raw: Vec<u32>) -> Vec<ProfileId> {
    raw.into_iter().map(ProfileId).collect()
}
