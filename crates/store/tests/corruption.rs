//! Corrupted-store coverage: truncation at every byte, bad magic, wrong
//! version, flipped bits, and structurally valid but semantically corrupt
//! payloads — every one must surface as a typed [`StoreError`], never a
//! panic or a silently inconsistent structure.

use proptest::prelude::*;
use sper_blocking::{
    BlockingGraph, NeighborList, Parallelism, ProfileIndex, TokenBlocking, WeightingScheme,
};
use sper_core::ProgressiveMethod;
use sper_model::{Attribute, ProfileCollectionBuilder};
use sper_store::{SessionCheckpoint, Snapshot, Store, StoreError};
use sper_stream::{ProgressiveSession, SessionConfig};
use std::sync::Arc;

/// A small but fully populated snapshot file.
fn sample_snapshot_bytes() -> Vec<u8> {
    let mut b = ProfileCollectionBuilder::dirty();
    for v in [
        "carl white ny tailor",
        "karl white ny tailor",
        "hellen white ml teacher",
        "emma white wi tailor",
    ] {
        b.add_profile([("text", v)]);
    }
    let coll = b.build();
    let mut blocks = TokenBlocking::default().build(&coll);
    blocks.sort_by_cardinality();
    let mut snapshot = Snapshot::new(Arc::clone(blocks.interner()));
    snapshot.profile_index = Some(ProfileIndex::build(&blocks));
    snapshot.graph = Some(BlockingGraph::build(
        &blocks,
        WeightingScheme::Arcs,
        Parallelism::SEQUENTIAL,
    ));
    snapshot.neighbor_list = Some(NeighborList::build(&coll, 7));
    snapshot.profiles = Some(coll);
    snapshot.blocks = Some(blocks);
    snapshot.to_store().expect("shared interner").to_bytes()
}

/// A checkpoint file of a mid-stream session.
fn sample_checkpoint_bytes() -> Vec<u8> {
    let mut session = ProgressiveSession::new(
        ProfileCollectionBuilder::dirty().build(),
        SessionConfig::exhaustive(ProgressiveMethod::Pps),
    );
    session.ingest_batch(
        ["carl white", "karl white", "emma white"].map(|v| vec![Attribute::new("t", v)]),
    );
    session.emit_epoch(Some(2));
    SessionCheckpoint::of(&session).to_store().to_bytes()
}

/// A checkpoint of a session with live mutation state: retracted rows
/// whose tombstones are still physically pending in the substrate — the
/// `TOMB` section is non-trivial.
fn mutated_checkpoint_bytes() -> Vec<u8> {
    let mut session = ProgressiveSession::new(
        ProfileCollectionBuilder::dirty().build(),
        SessionConfig::exhaustive(ProgressiveMethod::Pps)
            .with_compaction(sper_stream::CompactionPolicy::manual()),
    );
    session.ingest_batch(
        ["carl white", "karl white", "emma white", "frank black"]
            .map(|v| vec![Attribute::new("t", v)]),
    );
    session.emit_epoch(Some(2));
    session.retract(sper_model::ProfileId(1));
    session.amend(
        sper_model::ProfileId(3),
        vec![Attribute::new("t", "frank brown")],
    );
    assert!(
        session.pending_tombstones() > 0,
        "fixture must carry tombstones"
    );
    SessionCheckpoint::of(&session).to_store().to_bytes()
}

/// Decoding a snapshot from a parsed store (the full pipeline a reader
/// runs); used to prove payload-level corruption is typed too.
fn load_snapshot(bytes: &[u8]) -> Result<(), StoreError> {
    Snapshot::from_store(&Store::from_bytes(bytes)?).map(|_| ())
}

fn load_checkpoint(bytes: &[u8]) -> Result<(), StoreError> {
    SessionCheckpoint::from_store(&Store::from_bytes(bytes)?).map(|_| ())
}

#[test]
fn truncation_at_every_byte_is_typed() {
    let bytes = sample_snapshot_bytes();
    for cut in 0..bytes.len() {
        match load_snapshot(&bytes[..cut]) {
            Err(_) => {}
            Ok(()) => panic!("truncation at byte {cut} of {} went unnoticed", bytes.len()),
        }
    }
}

#[test]
fn bad_magic_is_typed() {
    let mut bytes = sample_snapshot_bytes();
    bytes[..4].copy_from_slice(b"NOPE");
    assert!(matches!(
        load_snapshot(&bytes),
        Err(StoreError::BadMagic { found }) if &found == b"NOPE"
    ));
}

#[test]
fn wrong_version_is_typed() {
    let mut bytes = sample_snapshot_bytes();
    bytes[4..8].copy_from_slice(&99u32.to_le_bytes());
    assert!(matches!(
        load_snapshot(&bytes),
        Err(StoreError::UnsupportedVersion { found: 99, .. })
    ));
}

#[test]
fn every_single_byte_flip_is_detected_or_harmless() {
    // Flip every byte of the file, one at a time. Each flip must either
    // fail with a typed error (the overwhelming majority: CRC catches
    // payload damage, the header checks catch the rest) or — never —
    // panic. A flip inside a length/crc prologue may masquerade as
    // truncation; that is fine, it is still typed.
    let bytes = sample_snapshot_bytes();
    for i in 0..bytes.len() {
        let mut corrupted = bytes.clone();
        corrupted[i] ^= 0x80;
        let _ = load_snapshot(&corrupted); // must not panic
    }
}

#[test]
fn flipped_payload_byte_is_checksum_mismatch() {
    let bytes = sample_snapshot_bytes();
    // The first section's payload starts right after the 12-byte header
    // and its 16-byte section prologue.
    let at = 12 + 16;
    let mut corrupted = bytes.clone();
    corrupted[at] ^= 0x01;
    assert!(matches!(
        load_snapshot(&corrupted),
        Err(StoreError::ChecksumMismatch { .. })
    ));
}

#[test]
fn checkpoint_corruption_is_typed() {
    let bytes = sample_checkpoint_bytes();
    assert!(load_checkpoint(&bytes).is_ok(), "clean file loads");
    for cut in 0..bytes.len() {
        assert!(load_checkpoint(&bytes[..cut]).is_err(), "cut at {cut}");
    }
    for i in 0..bytes.len() {
        let mut corrupted = bytes.clone();
        corrupted[i] ^= 0x80;
        let _ = load_checkpoint(&corrupted); // must not panic
    }
}

#[test]
fn semantically_corrupt_sections_are_typed() {
    use sper_store::substrates::{
        TAG_BLOCKS, TAG_INTERNER, TAG_NEIGHBOR_LIST, TAG_PROFILES, TAG_PROFILE_INDEX,
    };
    let assert_corrupt = |store: &Store| {
        assert!(matches!(
            Snapshot::from_store(store),
            Err(StoreError::Corrupt { .. })
        ));
    };

    // An interner with a duplicated token: id lookups would be ambiguous.
    let mut store = Store::new();
    let dup = {
        let it = sper_text::TokenInterner::new();
        it.intern("a");
        let mut bytes = sper_store::substrates::encode_interner(&it);
        // Duplicate the vocabulary entry wholesale: count 2, same string.
        bytes = {
            let mut e = Vec::new();
            e.extend_from_slice(&2u64.to_le_bytes());
            e.extend_from_slice(&1u64.to_le_bytes());
            e.push(b'a');
            e.extend_from_slice(&1u64.to_le_bytes());
            e.push(b'a');
            let _ = bytes;
            e
        };
        bytes
    };
    store.push(TAG_INTERNER, dup);
    assert_corrupt(&store);

    // A profile collection claiming more P1 profiles than it has.
    let coll = {
        let mut b = ProfileCollectionBuilder::dirty();
        b.add_profile([("t", "x")]);
        b.build()
    };
    let mut bytes = sper_store::substrates::encode_profiles(&coll);
    bytes[1..9].copy_from_slice(&9u64.to_le_bytes()); // n_first = 9 > |P| = 1
    let mut store = Store::new();
    let it = sper_text::TokenInterner::new();
    store.push(TAG_INTERNER, sper_store::substrates::encode_interner(&it));
    store.push(TAG_PROFILES, bytes);
    assert_corrupt(&store);

    // Substrates referencing ids beyond their declared ranges.
    let mut b = ProfileCollectionBuilder::dirty();
    b.add_profile([("t", "a b")]);
    b.add_profile([("t", "b c")]);
    let coll = b.build();
    let blocks = TokenBlocking::default().build(&coll);
    let nl = NeighborList::build(&coll, 1);
    let index = ProfileIndex::build(&blocks);

    // Block member out of range: bump a member id past n_profiles.
    let clean = sper_store::substrates::encode_blocks(&blocks);
    let mut store = Store::new();
    store.push(
        TAG_INTERNER,
        sper_store::substrates::encode_interner(blocks.interner()),
    );
    let mut corrupted = clean.clone();
    *corrupted.last_mut().unwrap() = 0xff; // last n_firsts entry → huge
    store.push(TAG_BLOCKS, corrupted);
    assert_corrupt(&store);

    // Profile index with non-monotone offsets.
    let mut bytes = sper_store::substrates::encode_profile_index(&index);
    // offsets begin after total_blocks(8) + len(8); make offsets[0] != 0.
    bytes[16] = 7;
    let mut store = Store::new();
    store.push(
        TAG_INTERNER,
        sper_store::substrates::encode_interner(blocks.interner()),
    );
    store.push(TAG_PROFILE_INDEX, bytes);
    assert_corrupt(&store);

    // Neighbor list with a placement out of profile range.
    let mut bytes = sper_store::substrates::encode_neighbor_list(&nl);
    bytes[0..8].copy_from_slice(&1u64.to_le_bytes()); // claim n_profiles = 1
    let mut store = Store::new();
    store.push(
        TAG_INTERNER,
        sper_store::substrates::encode_interner(nl.interner()),
    );
    store.push(TAG_NEIGHBOR_LIST, bytes);
    assert_corrupt(&store);
}

#[test]
fn tombstone_section_corruption_is_typed() {
    // The mutation-bearing checkpoint survives the same gauntlet as the
    // base fixtures: truncation at every byte and every single-byte flip
    // are typed errors (or harmless prologue reinterpretations) — never a
    // panic.
    let bytes = mutated_checkpoint_bytes();
    assert!(load_checkpoint(&bytes).is_ok(), "clean file loads");
    for cut in 0..bytes.len() {
        assert!(load_checkpoint(&bytes[..cut]).is_err(), "cut at {cut}");
    }
    for i in 0..bytes.len() {
        let mut corrupted = bytes.clone();
        corrupted[i] ^= 0x80;
        let _ = load_checkpoint(&corrupted); // must not panic
    }
}

#[test]
fn tombstone_crc_flip_is_checksum_mismatch() {
    // Flip one payload byte of the TOMB section specifically; the
    // per-section CRC must attribute the damage to it.
    let bytes = mutated_checkpoint_bytes();
    let store = Store::from_bytes(&bytes).unwrap();
    // Locate the TOMB payload in the raw file: walk the section layout.
    let mut at = 12usize;
    let mut tomb_payload: Option<(usize, usize)> = None;
    while at < bytes.len() {
        let tag = &bytes[at..at + 4];
        let len = u64::from_le_bytes(bytes[at + 4..at + 12].try_into().unwrap()) as usize;
        if tag == b"TOMB" {
            tomb_payload = Some((at + 16, len));
            break;
        }
        at += 16 + len;
    }
    let (start, len) = tomb_payload.expect("mutated checkpoint has a TOMB section");
    assert!(len > 0, "TOMB payload is non-trivial");
    assert!(store.get(*b"TOMB").is_some());
    for off in 0..len {
        let mut corrupted = bytes.clone();
        corrupted[start + off] ^= 0x01;
        match Store::from_bytes(&corrupted) {
            Err(StoreError::ChecksumMismatch { section, .. }) => {
                assert_eq!(section, "TOMB", "flip at offset {off}")
            }
            other => panic!("flip at offset {off}: {other:?}"),
        }
    }
}

#[test]
fn semantically_corrupt_tombstones_are_typed() {
    use sper_store::TAG_TOMBSTONES;
    let bytes = mutated_checkpoint_bytes();
    let clean = Store::from_bytes(&bytes).unwrap();
    let tomb = clean.get(TAG_TOMBSTONES).unwrap().to_vec();

    // Rebuild the store with one section swapped out.
    let rebuild = |tomb_bytes: Vec<u8>| -> Store {
        let mut s = Store::new();
        for tag in clean.tags() {
            if tag == TAG_TOMBSTONES {
                s.push(tag, tomb_bytes.clone());
            } else {
                s.push(tag, clean.get(tag).unwrap().to_vec());
            }
        }
        s
    };
    let assert_corrupt = |tomb_bytes: Vec<u8>, what: &str| {
        assert!(
            matches!(
                SessionCheckpoint::from_store(&rebuild(tomb_bytes)),
                Err(StoreError::Corrupt { .. })
            ),
            "{what} went unnoticed"
        );
    };

    // NaN compaction ratio.
    let mut t = tomb.clone();
    t[0..8].copy_from_slice(&f64::NAN.to_le_bytes());
    assert_corrupt(t, "NaN compaction ratio");

    // Negative compaction ratio.
    let mut t = tomb.clone();
    t[0..8].copy_from_slice(&(-1.0f64).to_le_bytes());
    assert_corrupt(t, "negative compaction ratio");

    // Retracted id out of profile range. Layout after the ratio: count
    // u64, then u32 ids.
    let mut t = tomb.clone();
    t[16..20].copy_from_slice(&u32::MAX.to_le_bytes());
    assert_corrupt(t, "retracted id out of range");

    // Ids not strictly ascending: duplicate the first retracted id.
    let n_retracted = u64::from_le_bytes(tomb[8..16].try_into().unwrap()) as usize;
    assert!(n_retracted >= 2, "fixture retracts at least two profiles");
    let first = tomb[16..20].to_vec();
    let mut t = tomb.clone();
    t[20..24].copy_from_slice(&first);
    assert_corrupt(t, "non-ascending retracted ids");

    // A pending tombstone that was never retracted: point the pending
    // list at a live profile (id 0 is never retracted by the fixture).
    let pending_at = 16 + 4 * n_retracted + 8;
    let mut t = tomb.clone();
    t[pending_at..pending_at + 4].copy_from_slice(&0u32.to_le_bytes());
    assert_corrupt(t, "pending tombstone never retracted");

    // Cross-section lie: a retracted profile that still has attributes in
    // PROF. Claim profile 0 (live, non-empty) is retracted.
    let mut t = tomb.clone();
    t[16..20].copy_from_slice(&0u32.to_le_bytes());
    // Keep ascending order: id 0 < previous first id, so this stays valid
    // structurally as long as the old first id was > 0 — it is 1, so
    // overwrite the *second* entry too, making the list [0, 3].
    assert_corrupt(t, "retracted profile still has attributes");

    // Truncated mid-list (decoder-level, inside a checksummed payload).
    let t = tomb[..tomb.len() - 2].to_vec();
    assert_corrupt(t, "short tombstone payload");

    // Trailing garbage after the pending list.
    let mut t = tomb.clone();
    t.extend_from_slice(&[0xAB, 0xCD]);
    assert_corrupt(t, "trailing bytes");
}

#[test]
fn zero_wmax_or_kmax_is_corrupt() {
    // Checkpointed before the first epoch: emitting one would already
    // panic on the zero, which is what a resumed session must never reach.
    for method in [ProgressiveMethod::GsPsn, ProgressiveMethod::Pps] {
        let mut config = SessionConfig::new(method);
        if method == ProgressiveMethod::GsPsn {
            config.config.wmax = 0;
        } else {
            config.config.kmax = 0;
        }
        let mut session =
            ProgressiveSession::new(ProfileCollectionBuilder::dirty().build(), config);
        session.ingest_batch(
            ["carl white", "karl white", "emma white"].map(|v| vec![Attribute::new("t", v)]),
        );
        let bytes = SessionCheckpoint::of(&session).to_store().to_bytes();
        assert!(
            matches!(load_checkpoint(&bytes), Err(StoreError::Corrupt { .. })),
            "{method} checkpoint with a zero parameter loaded"
        );
    }
}

#[test]
fn workflow_ratio_outside_unit_interval_is_corrupt() {
    // Checkpointed before the first epoch: emitting one would already
    // panic in `BlockPurger::new` or `BlockFilter::new`.
    for method in [ProgressiveMethod::Pbs, ProgressiveMethod::Pps] {
        for (purge, filter) in [
            (0.1, 0.0),
            (0.1, 2.0),
            (1.5, 0.8),
            (-0.2, 0.8),
            (f64::NAN, 0.8),
        ] {
            let mut config = SessionConfig::new(method);
            config.config.workflow.purge_ratio = purge;
            config.config.workflow.filter_ratio = filter;
            let mut session =
                ProgressiveSession::new(ProfileCollectionBuilder::dirty().build(), config);
            session.ingest_batch(
                ["carl white", "karl white", "emma white"].map(|v| vec![Attribute::new("t", v)]),
            );
            let bytes = SessionCheckpoint::of(&session).to_store().to_bytes();
            assert!(
                matches!(load_checkpoint(&bytes), Err(StoreError::Corrupt { .. })),
                "{method} checkpoint with purge {purge}, filter {filter} loaded"
            );
        }
    }
}

#[test]
fn missing_required_section_is_typed() {
    let store = Store::new();
    assert!(matches!(
        Snapshot::from_store(&store),
        Err(StoreError::MissingSection { section: "INTR" })
    ));
    assert!(matches!(
        SessionCheckpoint::from_store(&store),
        Err(StoreError::MissingSection { section: "SESS" })
    ));
}

proptest! {
    /// Arbitrary byte soup never panics the parser — worst case a typed
    /// error, best case an (extremely unlikely) valid empty store.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(0u8..=255, 0..256)) {
        let _ = load_snapshot(&bytes);
        let _ = load_checkpoint(&bytes);
    }

    /// Arbitrary mutations of a valid snapshot never panic and never
    /// produce an undetected *structural* lie (any successful load must
    /// at minimum have parsed all sections with matching checksums).
    #[test]
    fn mutated_snapshots_never_panic(
        at in 0usize..4096,
        xor in 1u8..=255,
    ) {
        let mut bytes = sample_snapshot_bytes();
        let at = at % bytes.len();
        bytes[at] ^= xor;
        let _ = load_snapshot(&bytes);
    }
}
