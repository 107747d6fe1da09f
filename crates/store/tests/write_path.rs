//! The checkpoint write path: a [`CheckpointWriter`] encodes straight
//! from the live session and streams each section to its temp file. The
//! bytes must still be exactly those of the owned encoding
//! (`SessionCheckpoint::of(..).to_store().to_bytes()`), a torn section
//! write must leave exactly the prefix that reached the disk, and every
//! save must be visible in the trace as a `store.checkpoint_write` span.

use sper_core::ProgressiveMethod;
use sper_model::{Attribute, ProfileCollection, ProfileCollectionBuilder, ProfileId};
use sper_obs::trace::{CaptureSink, FieldValue, Level, RecordKind};
use sper_store::{
    tmp_path, CheckpointOutcome, CheckpointWriter, RetryPolicy, SessionCheckpoint, StoreError,
};
use sper_stream::{CompactionPolicy, ProgressiveSession, SessionConfig};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

const STREAMABLE: [ProgressiveMethod; 6] = [
    ProgressiveMethod::SaPsn,
    ProgressiveMethod::SaPsab,
    ProgressiveMethod::LsPsn,
    ProgressiveMethod::GsPsn,
    ProgressiveMethod::Pbs,
    ProgressiveMethod::Pps,
];

/// A fresh scratch directory per call.
fn fresh_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let d = std::env::temp_dir().join(format!("sper-writepath-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn rows(values: &[&str]) -> Vec<Vec<Attribute>> {
    values
        .iter()
        .map(|v| vec![Attribute::new("text", *v)])
        .collect()
}

/// A Dirty or Clean-clean base collection and the rows streamed into it.
fn setup(clean_clean: bool) -> (ProfileCollection, Vec<Vec<Attribute>>) {
    let streamed = rows(&[
        "karl white ny tailor",
        "ellen white ml teacher",
        "frances black la baker",
        "emma white wi tailor",
        "carla white ny tailor",
        "joe green sf cook",
    ]);
    if clean_clean {
        let mut b = ProfileCollectionBuilder::clean_clean();
        b.add_profile([("text", "carl white ny tailor")]);
        b.add_profile([("text", "hellen white ml teacher")]);
        b.add_profile([("text", "frank black la baker")]);
        b.start_second_source();
        (b.build(), streamed)
    } else {
        let mut all = rows(&[
            "carl white ny tailor",
            "hellen white ml teacher",
            "frank black la baker",
        ]);
        all.extend(streamed);
        (ProfileCollectionBuilder::dirty().build(), all)
    }
}

/// The file a writer saves for `session` equals the owned encoding of
/// the same state.
fn assert_save_is_the_owned_encoding(session: &ProgressiveSession, what: &str) {
    let dir = fresh_dir("identity");
    let mut writer = CheckpointWriter::new(dir.join("ckpt.sper")).with_retry(RetryPolicy::none());
    assert_eq!(writer.save(session).unwrap(), CheckpointOutcome::Saved);
    let saved = std::fs::read(writer.path()).unwrap();
    let owned = SessionCheckpoint::of(session).to_store().to_bytes();
    assert!(saved == owned, "{what}: the live-session save diverged");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn live_session_saves_equal_the_owned_encoding() {
    let _serial = sper_obs::fault::arm_scoped("").unwrap();
    for method in STREAMABLE {
        for clean_clean in [false, true] {
            let (initial, streamed) = setup(clean_clean);
            let config =
                SessionConfig::exhaustive(method).with_compaction(CompactionPolicy::manual());
            let mut session = ProgressiveSession::new(initial, config);
            let first = session.ingest_batch(streamed[..3].to_vec());
            session.emit_epoch(Some(2));
            session.ingest_batch(streamed[3..].to_vec());
            session.retract(ProfileId(first.start + 1));
            session.amend(
                ProfileId(first.start),
                vec![Attribute::new("text", "karl white ny taylor")],
            );
            let label = format!("{method:?}, clean-clean {clean_clean}");

            assert_eq!(session.pending_tombstones(), 2);
            assert_save_is_the_owned_encoding(&session, &format!("{label}, tombstones pending"));

            assert_eq!(session.compact(), 2);
            assert_save_is_the_owned_encoding(&session, &format!("{label}, after compaction"));

            let cut = session.emit_epoch(Some(3));
            assert_eq!(cut.report.new_emissions, 3, "{label}: the budget cut");
            assert_save_is_the_owned_encoding(&session, &format!("{label}, budget-cut epoch"));
        }
    }
}

/// A small mid-stream PPS session.
fn pps_session() -> ProgressiveSession {
    let (initial, streamed) = setup(false);
    let mut session =
        ProgressiveSession::new(initial, SessionConfig::exhaustive(ProgressiveMethod::Pps));
    session.ingest_batch(streamed);
    session.emit_epoch(Some(4));
    session.retract(ProfileId(2));
    session
}

/// `store.write.section=…partial(n)` tears the section it fires on after
/// exactly n bytes of its prologue and payload: the temp file holds the
/// header, the sections before it, and those n bytes.
#[test]
fn a_torn_section_leaves_exactly_the_written_prefix() {
    let store = SessionCheckpoint::of(&pps_session()).to_store();
    let bytes = store.to_bytes();
    let section_len =
        |at: usize| 16 + u64::from_le_bytes(bytes[at + 4..at + 12].try_into().unwrap()) as usize;
    let first = section_len(12);
    let second = section_len(12 + first);
    let dir = fresh_dir("tear");
    let path = dir.join("ckpt.sper");
    // (trigger, bytes before the torn section, n): the first section,
    // then the second one, torn inside its prologue and its payload.
    let mut cases: Vec<(&str, usize, usize)> = [0, 7, 16, 17, first]
        .into_iter()
        .map(|n| ("1", 12, n))
        .collect();
    cases.extend([0, 16, 17, second - 1].map(|n| ("1in2", 12 + first, n)));
    for (trigger, before, n) in cases {
        let spec = format!("store.write.section={trigger}*partial({n})");
        let armed = sper_obs::fault::arm_scoped(&spec).unwrap();
        let err = store.write_to_path(&path).unwrap_err();
        drop(armed);
        assert!(matches!(err, StoreError::Io(_)), "{spec}: {err:?}");
        let torn = std::fs::read(tmp_path(&path)).unwrap();
        assert!(torn == bytes[..before + n], "{spec}: torn file differs");
        assert!(!path.exists(), "{spec}: the torn write committed");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every `CheckpointWriter` save is one `store.checkpoint_write` span
/// whose `bytes` field is the size of the file it committed.
#[test]
fn every_writer_save_opens_a_checkpoint_write_span() {
    let _serial = sper_obs::fault::arm_scoped("").unwrap();
    let session = pps_session();
    let dir = fresh_dir("span");
    let mut writer = CheckpointWriter::new(dir.join("ckpt.sper"));
    let capture = Arc::new(CaptureSink::new());
    sper_obs::trace::install_sink(capture.clone(), Level::Info);
    let saved = writer.save(&session);
    let resaved = writer.save_checkpoint(&SessionCheckpoint::of(&session));
    sper_obs::trace::clear_sink();
    assert_eq!(saved.unwrap(), CheckpointOutcome::Saved);
    assert_eq!(resaved.unwrap(), CheckpointOutcome::Saved);

    let file_len = std::fs::metadata(writer.path()).unwrap().len();
    let spans: Vec<_> = capture
        .records()
        .into_iter()
        .filter(|r| r.kind == RecordKind::Span && r.name == "store.checkpoint_write")
        .collect();
    assert_eq!(spans.len(), 2, "one span per save");
    for span in spans {
        let bytes = span.fields.iter().find(|(k, _)| *k == "bytes");
        assert!(
            matches!(bytes, Some((_, FieldValue::U64(n))) if *n == file_len),
            "bytes field {bytes:?}, file {file_len} bytes"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
