//! The headline robustness invariant, driven by fault schedules: under
//! **any** failpoint schedule over the persistence sites, a budgeted
//! (optionally mutated) streaming run with a `Continue`-policy
//! [`CheckpointWriter`] either completes with emissions bit-identical to
//! the unfaulted baseline, or — killed at an arbitrary epoch — resumes
//! from the rotated last-good generation and emits exactly the suffix
//! the uninterrupted run would have. Never a panic, and once a single
//! checkpoint has committed, resume-ability is never lost again.
//!
//! The grid mirrors `resume.rs`: all six streamable methods × dirty and
//! clean-clean ER × lazy (manual, tombstones ride the checkpoint) and
//! compacted (auto at every epoch) tombstone policies.

use proptest::prelude::*;
use sper_core::ProgressiveMethod;
use sper_model::{Attribute, Pair, ProfileCollection, ProfileCollectionBuilder, ProfileId};
use sper_store::{
    prev_path, tmp_path, CheckpointOutcome, CheckpointWriter, OnCheckpointFailure, RetryPolicy,
    SessionCheckpoint, StoreError,
};
use sper_stream::{CompactionPolicy, ProgressiveSession, SessionConfig};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

const STREAMABLE: [ProgressiveMethod; 6] = [
    ProgressiveMethod::SaPsn,
    ProgressiveMethod::SaPsab,
    ProgressiveMethod::LsPsn,
    ProgressiveMethod::GsPsn,
    ProgressiveMethod::Pbs,
    ProgressiveMethod::Pps,
];

type Emissions = Vec<(Pair, f64)>;

fn emissions(outcome: &sper_stream::EpochOutcome) -> Emissions {
    outcome
        .comparisons
        .iter()
        .map(|c| (c.pair, c.weight))
        .collect()
}

/// Unique scratch dir per invocation — proptest cases in one process
/// must not share checkpoint files.
fn fresh_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let d = std::env::temp_dir().join(format!("sper-faultsched-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn toy_rows(n: usize) -> Vec<Vec<Attribute>> {
    [
        "carl white ny tailor",
        "karl white ny tailor",
        "hellen white ml teacher",
        "ellen white ml teacher",
        "emma white wi tailor",
        "frank black la baker",
        "frances black la baker",
        "joe green sf cook",
    ]
    .iter()
    .cycle()
    .take(n)
    .enumerate()
    .map(|(i, v)| vec![Attribute::new("text", format!("{v} row{}", i % 5))])
    .collect()
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Er {
    Dirty,
    CleanClean,
}

/// Initial collection + streamed batches per ER kind. Both shapes give
/// four batches, so kill indices line up across the grid.
fn setup(er: Er) -> (ProfileCollection, Vec<Vec<Vec<Attribute>>>) {
    match er {
        Er::Dirty => (
            ProfileCollectionBuilder::dirty().build(),
            toy_rows(12).chunks(3).map(|c| c.to_vec()).collect(),
        ),
        Er::CleanClean => {
            let mut b = ProfileCollectionBuilder::clean_clean();
            b.add_profile([("n", "carl white ny tailor")]);
            b.add_profile([("n", "hellen white ml teacher")]);
            b.add_profile([("n", "frank black la baker")]);
            b.start_second_source();
            let rows: Vec<Vec<Attribute>> = [
                "karl white ny tailor",
                "ellen white ml teacher",
                "frances black la baker",
                "emma white wi tailor",
            ]
            .iter()
            .map(|v| vec![Attribute::new("n", *v)])
            .collect();
            (b.build(), rows.chunks(1).map(|c| c.to_vec()).collect())
        }
    }
}

/// The fixed per-batch mutation ops for dirty runs (ids follow the
/// `resume.rs` accounting: batches of 3 ingest ids 0–11, the batch-1
/// amend re-ingests id 4 as id 6). Clean-clean runs skip mutations.
fn apply_ops(session: &mut ProgressiveSession, batch: usize) {
    match batch {
        1 => {
            session.retract(ProfileId(1));
            session.amend(ProfileId(4), vec![Attribute::new("text", "amended row 4")]);
        }
        2 => {
            session.retract(ProfileId(6));
            session.retract(ProfileId(0));
        }
        3 => {
            session.amend(ProfileId(2), vec![Attribute::new("text", "amended row 2")]);
        }
        _ => {}
    }
}

/// An instant-clock writer with the `Continue` policy: faults degrade
/// checkpoints, never the run.
fn continue_writer(path: &Path) -> CheckpointWriter {
    CheckpointWriter::new(path)
        .with_retry(
            RetryPolicy::new(2, std::time::Duration::ZERO, std::time::Duration::ZERO)
                .with_sleeper(|_| {}),
        )
        .with_on_failure(OnCheckpointFailure::Continue)
}

/// The unfaulted reference: every epoch's emissions, batches then a
/// final drain, no checkpointing.
fn baseline(er: Er, config: &SessionConfig, budget: u64) -> Vec<Emissions> {
    let (initial, batches) = setup(er);
    let mut session = ProgressiveSession::new(initial, config.clone());
    let mut out = Vec::new();
    for (i, batch) in batches.iter().enumerate() {
        session.ingest_batch(batch.clone());
        if er == Er::Dirty {
            apply_ops(&mut session, i);
        }
        out.push(emissions(&session.emit_epoch(Some(budget))));
    }
    out.push(emissions(&session.emit_epoch(Some(budget))));
    out
}

/// Runs the faulted leg and the post-kill resume leg, asserting the
/// headline invariant. `spec` is armed for the faulted leg only (the
/// restarted process comes up clean); `kill` is the last batch index the
/// dying process runs. Returns how often the sites of `spec` fired in
/// the faulted leg.
fn check_schedule(
    tag: &str,
    er: Er,
    config: &SessionConfig,
    budget: u64,
    spec: &str,
    kill: usize,
) -> u64 {
    let d = fresh_dir(tag);
    let path = d.join("ckpt.sper");
    let base = baseline(er, config, budget);
    let (initial, batches) = setup(er);
    assert!(kill < batches.len());

    sper_obs::fault::arm(spec).expect("schedule parses");
    let mut session = ProgressiveSession::new(initial, config.clone());
    let mut writer = continue_writer(&path);
    let mut last_saved: Option<usize> = None;
    let mut faulted = Vec::new();
    for (i, batch) in batches.iter().take(kill + 1).enumerate() {
        session.ingest_batch(batch.clone());
        if er == Er::Dirty {
            apply_ops(&mut session, i);
        }
        faulted.push(emissions(&session.emit_epoch(Some(budget))));
        match writer.save(&session).expect("Continue policy never errors") {
            CheckpointOutcome::Saved => last_saved = Some(i),
            CheckpointOutcome::FailedContinuing => {}
        }
        if last_saved.is_some() {
            // Once one checkpoint committed, no later fault — failed
            // rotation, torn tmp, anything — may lose resume-ability.
            CheckpointWriter::resume(&path)
                .unwrap_or_else(|e| panic!("{spec:?} lost the last-good generation: {e}"));
        }
    }
    drop(session); // the kill
    let fired = spec
        .split(';')
        .filter_map(|entry| entry.split_once('='))
        .map(|(site, _)| sper_obs::fault::fired(site.trim()))
        .sum();
    sper_obs::fault::disarm();

    // Persistence faults never perturb what the live run emitted.
    assert_eq!(
        faulted.as_slice(),
        &base[..=kill],
        "{spec:?} perturbed the emission stream"
    );

    match last_saved {
        // Nothing ever committed: resume fails with a typed error (no
        // generation exists), and a from-scratch restart is the baseline
        // by construction.
        None => {
            assert!(
                CheckpointWriter::resume(&path).is_err(),
                "no save succeeded yet resume found a file"
            );
        }
        // Resume from the last good generation and re-run everything
        // after it: the suffix must be bit-identical to the baseline.
        Some(j) => {
            let (ckpt, _used_prev) = CheckpointWriter::resume(&path).expect("good generation");
            let mut resumed = ckpt.resume();
            let mut suffix = Vec::new();
            for (i, batch) in batches.iter().enumerate().skip(j + 1) {
                resumed.ingest_batch(batch.clone());
                if er == Er::Dirty {
                    apply_ops(&mut resumed, i);
                }
                suffix.push(emissions(&resumed.emit_epoch(Some(budget))));
            }
            suffix.push(emissions(&resumed.emit_epoch(Some(budget))));
            assert_eq!(
                suffix.as_slice(),
                &base[j + 1..],
                "{spec:?} resumed from epoch {} but the suffix diverged",
                j + 1
            );
        }
    }
    let _ = std::fs::remove_dir_all(&d);
    fired
}

/// Runs `spec` over every streamable method × both ER kinds × lazy and
/// eagerly-compacted tombstones, saving every epoch, and returns how
/// often its sites fired across the grid.
fn check_grid(spec: &str) -> u64 {
    let mut fired = 0;
    for method in STREAMABLE {
        for er in [Er::Dirty, Er::CleanClean] {
            for policy in [CompactionPolicy::manual(), CompactionPolicy::at_ratio(0.0)] {
                let config = SessionConfig::exhaustive(method).with_compaction(policy);
                fired += check_schedule("grid", er, &config, 3, spec, 3);
            }
        }
    }
    fired
}

/// The grid against a deliberately nasty fixed schedule mixing
/// exhausting-retries errors, rotation failures, and torn section
/// writes.
#[test]
fn every_method_er_and_tombstone_policy_survives_a_nasty_schedule() {
    let _guard = sper_obs::fault::arm_scoped("").unwrap();
    check_grid(
        "stream.checkpoint=3*err(io);store.rename=1in4*err(full);store.write.section=2*partial(7)",
    );
}

/// The grid against an armed schedule whose only site never fires: an
/// armed registry sends every site the run passes through its locked
/// slow path, and that must not change a single emission either.
#[test]
fn an_armed_schedule_that_never_fires_changes_no_emission() {
    let _guard = sper_obs::fault::arm_scoped("").unwrap();
    let fired = check_grid("stream.checkpoint=1in1000000*err(io)");
    assert_eq!(fired, 0, "the inert site fired");
}

/// A schedule that defeats every single save (first attempt + both
/// retries, every time): the run still completes unperturbed, and resume
/// correctly reports that no generation exists.
#[test]
fn total_checkpoint_outage_still_completes_the_run() {
    let _guard = sper_obs::fault::arm_scoped("").unwrap();
    let config = SessionConfig::exhaustive(ProgressiveMethod::Pps)
        .with_compaction(CompactionPolicy::manual());
    check_schedule(
        "outage",
        Er::Dirty,
        &config,
        3,
        "stream.checkpoint=err(io)",
        3,
    );
}

const SITES: [&str; 4] = [
    "store.write.section",
    "store.fsync",
    "store.rename",
    "stream.checkpoint",
];

/// Decodes one `(site, trigger, action)` draw into spec-grammar text.
fn spec_entry(site_idx: usize, trigger: u32, action: usize) -> String {
    let site = SITES[site_idx % SITES.len()];
    // 0..3 → fire the first 1–3 hits; 3..6 → fire the last 1 of every
    // 2–4-hit window (the trigger that skips early hits).
    let trigger = if trigger < 3 {
        format!("{}*", trigger + 1)
    } else {
        format!("1in{}*", trigger - 1)
    };
    let action = match action {
        0 => "err(io)".to_string(),
        1 => "err(full)".to_string(),
        n => format!("partial({})", n - 2),
    };
    format!("{site}={trigger}{action}")
}

proptest! {
    /// Arbitrary schedules over the persistence sites × method × ER kind
    /// × tombstone policy × budget × kill epoch: the headline invariant
    /// holds for all of them.
    #[test]
    fn any_fault_schedule_completes_or_resumes_bit_identically(
        entries in proptest::collection::vec((0usize..4, 0u32..6, 0usize..42), 1..4),
        method_idx in 0usize..6,
        dirty_seed in 0usize..2,
        lazy_seed in 0usize..2,
        budget in 1u64..6,
        kill_seed in 0usize..100,
    ) {
        let spec = entries
            .iter()
            .map(|&(s, t, a)| spec_entry(s, t, a))
            .collect::<Vec<_>>()
            .join(";");
        let er = if dirty_seed == 0 { Er::Dirty } else { Er::CleanClean };
        let policy = if lazy_seed == 0 {
            CompactionPolicy::manual()
        } else {
            CompactionPolicy::at_ratio(0.0)
        };
        let config =
            SessionConfig::exhaustive(STREAMABLE[method_idx]).with_compaction(policy);
        let _guard = sper_obs::fault::arm_scoped("").unwrap();
        check_schedule("prop", er, &config, budget, &spec, kill_seed % 4);
    }
}

// ---------------------------------------------------------------------
// Rotation kill points, exercised with real checkpoint files.
// ---------------------------------------------------------------------

/// A session checkpointed after `epochs` budgeted epochs — generations
/// are told apart by their report count.
fn checkpoint_after(epochs: usize) -> (ProgressiveSession, SessionCheckpoint) {
    let (initial, batches) = setup(Er::Dirty);
    let mut session =
        ProgressiveSession::new(initial, SessionConfig::exhaustive(ProgressiveMethod::Pps));
    for batch in batches.iter().take(epochs) {
        session.ingest_batch(batch.clone());
        session.emit_epoch(Some(3));
    }
    let ckpt = SessionCheckpoint::of(&session);
    (session, ckpt)
}

fn epochs_on_disk(path: &Path) -> (usize, bool) {
    let (ckpt, used_prev) = CheckpointWriter::resume(path).expect("a readable generation");
    (ckpt.state.reports.len(), used_prev)
}

/// Kill between the two renames of a rotation (`path → .prev` done,
/// `tmp → path` not): the primary is gone, but resume falls back to the
/// generation that just became `.prev`.
#[test]
fn kill_between_the_two_renames_falls_back_to_prev() {
    let _guard = sper_obs::fault::arm_scoped("").unwrap();
    let d = fresh_dir("midrot");
    let path = d.join("ckpt.sper");
    let (session1, ckpt1) = checkpoint_after(1);
    drop(session1);
    let (session2, ckpt2) = checkpoint_after(2);
    drop(session2);
    let mut writer = CheckpointWriter::new(&path).with_retry(RetryPolicy::none());
    writer.save_checkpoint(&ckpt1).unwrap();
    writer.save_checkpoint(&ckpt2).unwrap();
    assert_eq!(epochs_on_disk(&path), (2, false));

    // `1in2` fires on the *second* rename of the next rotation: the
    // demotion to `.prev` runs, the promotion of the new tmp does not.
    sper_obs::fault::arm("store.rename=1in2*err(io)").unwrap();
    let (_, ckpt3) = checkpoint_after(3);
    let err = writer.save_checkpoint(&ckpt3).unwrap_err();
    assert!(
        matches!(err, StoreError::Io(_)),
        "typed, not a panic: {err:?}"
    );
    sper_obs::fault::disarm();

    assert!(!path.exists(), "the kill landed between the renames");
    let (epochs, used_prev) = epochs_on_disk(&path);
    assert_eq!(
        (epochs, used_prev),
        (2, true),
        "resume takes the rotated last-good"
    );
    let _ = std::fs::remove_dir_all(&d);
}

/// The same mid-rotation kill, but with the default retry policy: the
/// second attempt finds the demotion already done and completes the
/// promotion — the rotation self-heals and no generation is lost.
#[test]
fn retry_completes_a_half_done_rotation() {
    let _guard = sper_obs::fault::arm_scoped("").unwrap();
    let d = fresh_dir("heal");
    let path = d.join("ckpt.sper");
    let mut writer = continue_writer(&path);
    let (_, ckpt1) = checkpoint_after(1);
    let (_, ckpt2) = checkpoint_after(2);
    writer.save_checkpoint(&ckpt1).unwrap();
    writer.save_checkpoint(&ckpt2).unwrap();

    sper_obs::fault::arm("store.rename=1in2*err(io)").unwrap();
    let (_, ckpt3) = checkpoint_after(3);
    assert_eq!(
        writer.save_checkpoint(&ckpt3).unwrap(),
        CheckpointOutcome::Saved,
        "the retry finishes the interrupted rotation"
    );
    sper_obs::fault::disarm();
    assert_eq!(epochs_on_disk(&path), (3, false));
    assert_eq!(
        epochs_on_disk(&prev_path(&path)),
        (2, false),
        ".prev kept the demoted generation"
    );
    let _ = std::fs::remove_dir_all(&d);
}

/// A torn section write dies in the tmp file: both committed generations
/// are untouched, resume does not even need the fallback, and the torn
/// tmp is purged by the open.
#[test]
fn torn_tmp_never_infects_either_generation() {
    let _guard = sper_obs::fault::arm_scoped("").unwrap();
    let d = fresh_dir("torn-tmp");
    let path = d.join("ckpt.sper");
    let mut writer = CheckpointWriter::new(&path).with_retry(RetryPolicy::none());
    let (_, ckpt1) = checkpoint_after(1);
    let (_, ckpt2) = checkpoint_after(2);
    writer.save_checkpoint(&ckpt1).unwrap();
    writer.save_checkpoint(&ckpt2).unwrap();

    sper_obs::fault::arm("store.write.section=1*partial(9)").unwrap();
    let (_, ckpt3) = checkpoint_after(3);
    assert!(writer.save_checkpoint(&ckpt3).is_err());
    sper_obs::fault::disarm();

    assert!(tmp_path(&path).exists(), "the torn write died in the tmp");
    assert_eq!(
        epochs_on_disk(&path),
        (2, false),
        "primary untouched, no fallback"
    );
    assert!(!tmp_path(&path).exists(), "open purged the torn tmp");
    assert_eq!(epochs_on_disk(&prev_path(&path)), (1, false));
    let _ = std::fs::remove_dir_all(&d);
}

/// Both generations corrupted on disk (the double-fault outside the
/// rotation's guarantees): resume is a typed container error naming the
/// primary file — never a panic.
#[test]
fn both_generations_corrupt_is_a_typed_error() {
    let _guard = sper_obs::fault::arm_scoped("").unwrap();
    let d = fresh_dir("double");
    let path = d.join("ckpt.sper");
    let mut writer = CheckpointWriter::new(&path);
    let (_, ckpt1) = checkpoint_after(1);
    let (_, ckpt2) = checkpoint_after(2);
    writer.save_checkpoint(&ckpt1).unwrap();
    writer.save_checkpoint(&ckpt2).unwrap();

    // Flip a payload byte near the end of each generation: framing still
    // parses, the section CRC does not.
    for p in [path.clone(), prev_path(&path)] {
        let mut bytes = std::fs::read(&p).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&p, &bytes).unwrap();
    }
    match CheckpointWriter::resume(&path) {
        Err(StoreError::ChecksumMismatch { .. }) => {}
        other => panic!("expected the primary's typed CRC error, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&d);
}
