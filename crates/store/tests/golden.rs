//! Golden-file compatibility: committed `.sper` fixtures written by past
//! releases must keep loading, bit-identically, on every build — the
//! regression gate for accidental format drift. CI runs this on every
//! push.
//!
//! Two fixtures are committed:
//!
//! * `golden-v1.sper` — written by the format's first release
//!   (`FORMAT_VERSION` 1, no `TOMB` section). **Frozen**: this build
//!   writes version 2, so the file can never be regenerated — only read.
//!   Its continued loading proves the v1 migration path (absent `TOMB` ⇒
//!   no mutations) stays intact.
//! * `golden-v2.sper` — a version-2 store whose checkpoint carries live
//!   mutation state (retracted profiles with tombstones still physically
//!   pending in the substrate).
//!
//! The v1 fixture bundles a snapshot *and* a session checkpoint in one
//! store (their section tags are disjoint and their `PROF`/`INTR`
//! payloads coincide); the v2 fixture is a checkpoint-only store — its
//! mutated collection (husks, an amended row) deliberately differs from
//! what any snapshot of the base collection would hold, so the halves
//! can no longer share sections. Both are built from a fixed toy
//! collection. If the format ever needs to change again, bump
//! `FORMAT_VERSION`, teach the reader the migration, freeze the old
//! fixture, and regenerate the new one with:
//!
//! ```text
//! cargo test -p sper-store --test golden -- --ignored regenerate
//! ```

use sper_blocking::{
    BlockingGraph, NeighborList, Parallelism, ProfileIndex, TokenBlocking, WeightingScheme,
};
use sper_core::ProgressiveMethod;
use sper_model::{Attribute, ProfileCollection, ProfileCollectionBuilder, ProfileId};
use sper_store::{CheckpointOutcome, CheckpointWriter, SessionCheckpoint, Snapshot, Store};
use sper_stream::{CompactionPolicy, ProgressiveSession, SessionConfig};
use std::path::PathBuf;
use std::sync::Arc;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
}

fn golden_v1_path() -> PathBuf {
    golden_dir().join("golden-v1.sper")
}

fn golden_v2_path() -> PathBuf {
    golden_dir().join("golden-v2.sper")
}

/// The fixed collection the fixture is built from. Changing this breaks
/// the fixture by construction — regenerate if you must, and say why in
/// the commit.
fn golden_profiles() -> ProfileCollection {
    let mut b = ProfileCollectionBuilder::dirty();
    for v in [
        "carl white ny tailor",
        "karl white ny tailor",
        "hellen white ml teacher",
        "ellen white ml teacher",
        "emma white wi tailor",
        "frank black la baker",
    ] {
        b.add_profile([("text", v)]);
    }
    b.build()
}

const GOLDEN_SEED: u64 = 7;
const GOLDEN_EPOCH_BUDGET: u64 = 3;

/// Builds the exact store the frozen v1 fixture holds. No longer
/// callable as a regeneration path (this build writes format version 2);
/// retained as the executable record of how `golden-v1.sper` was made.
#[allow(dead_code)]
fn build_golden_store() -> Store {
    let coll = golden_profiles();
    let mut blocks = TokenBlocking::default().build(&coll);
    blocks.sort_by_cardinality();
    let index = ProfileIndex::build(&blocks);
    let graph = BlockingGraph::build(&blocks, WeightingScheme::Arcs, Parallelism::SEQUENTIAL);
    let nl = NeighborList::build(&coll, GOLDEN_SEED);

    let mut snapshot = Snapshot::new(Arc::clone(blocks.interner()));
    snapshot.profiles = Some(coll.clone());
    snapshot.blocks = Some(blocks);
    snapshot.profile_index = Some(index);
    snapshot.graph = Some(graph);
    snapshot.neighbor_list = Some(nl);
    let mut store = snapshot.to_store().expect("one interner");

    // A mid-stream PPS session: 2 epochs done, dedup filter non-empty.
    let mut session = ProgressiveSession::new(
        ProfileCollectionBuilder::dirty().build(),
        SessionConfig::exhaustive(ProgressiveMethod::Pps),
    );
    let rows: Vec<Vec<Attribute>> = coll.iter().map(|p| p.attributes.clone()).collect();
    session.ingest_batch(rows[..3].to_vec());
    session.emit_epoch(Some(GOLDEN_EPOCH_BUDGET));
    session.ingest_batch(rows[3..].to_vec());
    session.emit_epoch(Some(GOLDEN_EPOCH_BUDGET));
    // Append the checkpoint's sections to the same store (its tags are
    // unique within the checkpoint; the duplicated INTR/PROF payloads are
    // byte-identical to the snapshot's — both tokenize the same profiles
    // in the same order — so first-wins lookups resolve correctly).
    let ck = SessionCheckpoint::of(&session).to_store();
    for tag in ck.tags() {
        store.push(tag, ck.get(tag).expect("just listed").to_vec());
    }
    store
}

/// The session half of the v2 fixture: two epochs done, then a retract
/// and an amend under a manual compaction policy, so the checkpoint
/// carries a non-trivial `TOMB` section with *pending* tombstones (the
/// substrate still physically holds the dead rows).
fn build_golden_v2_session() -> ProgressiveSession {
    let coll = golden_profiles();
    let rows: Vec<Vec<Attribute>> = coll.iter().map(|p| p.attributes.clone()).collect();
    let mut session = ProgressiveSession::new(
        ProfileCollectionBuilder::dirty().build(),
        SessionConfig::exhaustive(ProgressiveMethod::Pps)
            .with_compaction(CompactionPolicy::manual()),
    );
    session.ingest_batch(rows[..3].to_vec());
    session.emit_epoch(Some(GOLDEN_EPOCH_BUDGET));
    session.ingest_batch(rows[3..].to_vec());
    session.retract(ProfileId(1));
    session.amend(
        ProfileId(4),
        vec![Attribute::new("text", "emma white wi taylor")],
    );
    session.emit_epoch(Some(GOLDEN_EPOCH_BUDGET));
    assert_eq!(
        session.pending_tombstones(),
        2,
        "fixture carries tombstones"
    );
    session
}

/// Regenerates the committed v2 fixture. Run explicitly (`--ignored`)
/// after a deliberate format-version bump — never as part of a normal
/// test run. The v1 fixture is frozen and cannot be regenerated by this
/// build (it writes version 2).
#[test]
#[ignore = "writes the committed fixture; run only on deliberate format changes"]
fn regenerate() {
    let path = golden_v2_path();
    std::fs::create_dir_all(path.parent().expect("has parent")).expect("mkdir");
    SessionCheckpoint::of(&build_golden_v2_session())
        .to_store()
        .write_to_path(&path)
        .expect("fixture writes");
    eprintln!("regenerated {}", path.display());
}

/// The committed fixture still parses, validates, and reproduces the
/// exact structures it was built from.
#[test]
fn golden_fixture_loads_bit_identically() {
    let path = golden_v1_path();
    let store = Store::read_from_path(&path).unwrap_or_else(|e| {
        panic!(
            "committed fixture {} failed to load: {e}\n\
             (format drift? see the module docs for the migration policy)",
            path.display()
        )
    });

    // --- Snapshot half: arrays equal a fresh build of the same inputs ---
    let snapshot = Snapshot::from_store(&store).expect("snapshot half validates");
    let coll = golden_profiles();
    let mut blocks = TokenBlocking::default().build(&coll);
    blocks.sort_by_cardinality();
    let index = ProfileIndex::build(&blocks);
    let graph = BlockingGraph::build(&blocks, WeightingScheme::Arcs, Parallelism::SEQUENTIAL);
    let nl = NeighborList::build(&coll, GOLDEN_SEED);

    let loaded = snapshot.blocks.as_ref().expect("blocks stored");
    let (a, b) = (blocks.raw_parts(), loaded.raw_parts());
    assert_eq!(a.keys, b.keys);
    assert_eq!(a.offsets, b.offsets);
    assert_eq!(a.members, b.members);
    assert_eq!(a.n_firsts, b.n_firsts);
    // Key ids resolve to the same strings through the stored interner.
    for &k in a.keys {
        assert_eq!(
            &*blocks.interner().resolve(k),
            &*snapshot.interner().resolve(k)
        );
    }
    assert_eq!(
        snapshot.profile_index.as_ref().expect("stored").raw_parts(),
        index.raw_parts()
    );
    let loaded_graph = snapshot.graph.as_ref().expect("stored");
    assert_eq!(loaded_graph.num_edges(), graph.num_edges());
    for ((pa, wa), (pb, wb)) in graph.edges().zip(loaded_graph.edges()) {
        assert_eq!(pa, pb);
        assert_eq!(wa.to_bits(), wb.to_bits());
    }
    assert_eq!(
        snapshot.neighbor_list.as_ref().expect("stored").as_slice(),
        nl.as_slice()
    );
    let stored_profiles = snapshot.profiles.as_ref().expect("stored");
    assert_eq!(stored_profiles.len(), coll.len());
    for (pa, pb) in coll.iter().zip(stored_profiles.iter()) {
        assert_eq!(pa, pb);
    }

    // --- Checkpoint half: the session resumes and finishes exactly as an
    // uninterrupted run does ---
    let restored = SessionCheckpoint::from_store(&store).expect("checkpoint half validates");
    assert_eq!(restored.state.reports.len(), 2);
    let mut resumed = restored.resume();

    let rows: Vec<Vec<Attribute>> = coll.iter().map(|p| p.attributes.clone()).collect();
    let mut baseline = ProgressiveSession::new(
        ProfileCollectionBuilder::dirty().build(),
        SessionConfig::exhaustive(ProgressiveMethod::Pps),
    );
    baseline.ingest_batch(rows[..3].to_vec());
    baseline.emit_epoch(Some(GOLDEN_EPOCH_BUDGET));
    baseline.ingest_batch(rows[3..].to_vec());
    baseline.emit_epoch(Some(GOLDEN_EPOCH_BUDGET));

    let a = resumed.emit_epoch(None);
    let b = baseline.emit_epoch(None);
    assert_eq!(
        a.comparisons
            .iter()
            .map(|c| (c.pair, c.weight))
            .collect::<Vec<_>>(),
        b.comparisons
            .iter()
            .map(|c| (c.pair, c.weight))
            .collect::<Vec<_>>(),
        "fixture-resumed session diverged from the uninterrupted run"
    );
    assert_eq!(a.report.epoch, 3);
}

/// The committed v2 fixture (mutation-bearing checkpoint) still parses,
/// restores the exact tombstone state, and resumes bit-identically to an
/// uninterrupted run — before *and* after compaction.
#[test]
fn golden_v2_fixture_loads_bit_identically() {
    let path = golden_v2_path();
    let store = Store::read_from_path(&path).unwrap_or_else(|e| {
        panic!(
            "committed fixture {} failed to load: {e}\n\
             (format drift? see the module docs for the migration policy)",
            path.display()
        )
    });
    let restored = SessionCheckpoint::from_store(&store).expect("checkpoint validates");

    // The mutation state round-trips exactly.
    assert_eq!(
        restored.state.retracted,
        vec![ProfileId(1), ProfileId(4)],
        "retracted ids drifted"
    );
    assert_eq!(
        restored.state.pending_tombstones,
        vec![ProfileId(1), ProfileId(4)],
        "pending tombstones drifted"
    );
    assert!(restored.state.compaction.tombstone_ratio.is_infinite());
    assert_eq!(restored.state.reports.len(), 2);

    // Byte-level drift gate: re-encoding the restored state reproduces
    // the committed file exactly.
    assert_eq!(
        SessionCheckpoint {
            state: restored.state.clone()
        }
        .to_store()
        .to_bytes(),
        std::fs::read(&path).expect("fixture read"),
        "re-encoded checkpoint diverged from the committed bytes"
    );

    // The resumed session continues exactly like the uninterrupted one,
    // and compaction on the fixture state changes nothing downstream.
    let mut resumed = restored.resume();
    let mut baseline = build_golden_v2_session();
    assert_eq!(resumed.compact(), baseline.pending_tombstones());
    let a = resumed.emit_epoch(None);
    let b = baseline.emit_epoch(None);
    assert_eq!(
        a.comparisons
            .iter()
            .map(|c| (c.pair, c.weight))
            .collect::<Vec<_>>(),
        b.comparisons
            .iter()
            .map(|c| (c.pair, c.weight))
            .collect::<Vec<_>>(),
        "fixture-resumed session diverged post-compaction"
    );
    assert_eq!(a.report.epoch, 3);
}

/// The v2 fixture's session, saved by a [`CheckpointWriter`] straight
/// from the live session, is the committed file byte for byte.
#[test]
fn golden_v2_session_saved_by_the_writer_is_the_fixture() {
    let dir = std::env::temp_dir().join(format!("sper-golden-writer-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    let mut writer = CheckpointWriter::new(dir.join("golden-v2.sper"));
    assert_eq!(
        writer.save(&build_golden_v2_session()).expect("save"),
        CheckpointOutcome::Saved
    );
    assert!(
        std::fs::read(writer.path()).expect("saved file")
            == std::fs::read(golden_v2_path()).expect("fixture read"),
        "the writer's file diverged from the committed fixture"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
