//! The streaming closed loop: a `ProgressiveSession` over the first
//! source streams the second one in equal batches. Each epoch ingests a
//! batch, retracts and amends a share of its new ids, compacts or
//! checkpoints when due, and emits a budget of new comparisons. At the
//! end the session is resumed from its last checkpoint.

use crate::batch::{digest, peak_during};
use crate::stats::Digest;
use crate::trace::span;
use sper_core::{Comparison, MethodConfig, ProgressiveMethod};
use sper_model::{Attribute, ProfileCollection, ProfileCollectionBuilder, ProfileId};
use sper_store::{CheckpointOutcome, CheckpointWriter};
use sper_stream::{CompactionPolicy, ProgressiveSession, SessionConfig};
use std::path::Path;
use std::time::{Duration, Instant};

/// New comparisons an epoch may emit per profile streamed in.
pub const EPOCH_BUDGET_PER_PROFILE: u64 = 10;

/// Share of each batch's new ids retracted, and again amended.
pub const MUTATE_SHARE: f64 = 0.02;

/// Explicit compaction cadence, in epochs (the default tombstone-ratio
/// policy never fires at this churn).
pub const COMPACT_EVERY: usize = 25;

/// Checkpoint cadence, in epochs: a quarter of all epochs save, so the
/// p90 epoch falls inside the checkpointing epochs.
pub const CHECKPOINT_EVERY: usize = 4;

/// A Clean-clean twin split for streaming: `P1` is the session base and
/// `P2` arrives row by row.
pub struct StreamData {
    /// The base collection (`P1` only).
    pub base: ProfileCollection,
    /// The streamed rows (`P2`), in id order.
    pub rows: Vec<Vec<Attribute>>,
}

impl StreamData {
    /// Splits a Clean-clean collection into base and stream.
    pub fn split(profiles: &ProfileCollection) -> Self {
        let split = profiles.len_first();
        let mut b = ProfileCollectionBuilder::clean_clean();
        for p in profiles.iter().take(split) {
            b.add_attributes(p.attributes.clone());
        }
        b.start_second_source();
        Self {
            base: b.build(),
            rows: profiles
                .iter()
                .skip(split)
                .map(|p| p.attributes.clone())
                .collect(),
        }
    }

    /// Rows of batch `i` of `n` equal batches.
    fn batch(&self, i: usize, n: usize) -> &[Vec<Attribute>] {
        let len = self.rows.len();
        &self.rows[i * len / n..(i + 1) * len / n]
    }
}

/// One session's pass.
#[derive(Debug, Clone, Default)]
pub struct SessionRun {
    /// Per-epoch latency (ingest + mutations + compaction/checkpoint when
    /// due + `emit_epoch`), in milliseconds.
    pub epoch_ms: Vec<f64>,
    /// Seconds from `ProgressiveSession::new` to the end of the last
    /// streamed epoch.
    pub wall_s: f64,
    /// Seconds from `ProgressiveSession::new` to the first emitted
    /// comparison.
    pub first_emission_s: f64,
    /// Seconds from the checkpoint file to a resumed session, per resume.
    pub resume_s: Vec<f64>,
    /// Summed re-prioritization time of the streamed epochs (ms).
    pub reprioritize_ms: f64,
    /// Summed emission time of the streamed epochs (ms).
    pub emit_ms: f64,
    /// Raw comparisons the epochs produced.
    pub raw: u64,
    /// Of those, suppressed cross-epoch repeats and tombstone hits.
    pub suppressed: u64,
    /// Checkpoints that did not commit.
    pub checkpoint_failures: u64,
    /// Size of the last checkpoint file.
    pub checkpoint_bytes: u64,
    /// Digest of every comparison the session emitted, epoch by epoch.
    pub digest: u64,
    /// Operations attempted (epochs, saves, resumes, output checks).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

impl SessionRun {
    fn tally(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("FAILED: {}", what());
        }
    }
}

/// Streams `data` through a session of `method` in `batches` epochs,
/// then resumes it `resumes` times from the last checkpoint. The first
/// resumed session's next epoch must equal the uninterrupted session's.
pub fn run_session(
    method: ProgressiveMethod,
    data: &StreamData,
    config: &MethodConfig,
    batches: usize,
    seed: u64,
    dir: &Path,
    resumes: usize,
) -> SessionRun {
    let mut run = SessionRun::default();
    let mut writer = CheckpointWriter::new(dir.join(format!("{}.sper", method.name())));
    let session_config = SessionConfig {
        method,
        config: config.clone(),
        compaction: CompactionPolicy::default(),
    };
    let base = data.base.clone();
    let mut emitted = Digest::default();

    let start = Instant::now();
    let root = span("bench.session");
    let mut session = {
        let _s = span("bench.stream.open");
        ProgressiveSession::new(base, session_config)
    };
    for e in 1..=batches {
        let rows = data.batch(e - 1, batches);
        let t = Instant::now();
        let ids = {
            let _s = span("bench.stream.ingest");
            session.ingest_batch(rows.iter().cloned())
        };
        {
            let _s = span("bench.stream.mutate");
            mutate(&mut session, ids, rows, seed ^ e as u64);
        }
        if e % COMPACT_EVERY == 0 {
            let _s = span("bench.stream.compact");
            session.compact();
        }
        let out = {
            let _s = span("bench.stream.epoch");
            session.emit_epoch(Some(EPOCH_BUDGET_PER_PROFILE * rows.len() as u64))
        };
        let saved = (e % CHECKPOINT_EVERY == 0).then(|| {
            let mut s = span("bench.store.checkpoint");
            let (outcome, peak) = peak_during(|| writer.save(&session));
            s.record("peak_bytes", peak);
            outcome
        });
        run.epoch_ms.push(t.elapsed().as_secs_f64() * 1e3);

        let clean = out
            .comparisons
            .iter()
            .all(|c| !session.is_retracted(c.pair.first) && !session.is_retracted(c.pair.second));
        run.tally(clean, || {
            format!("{method} epoch {e} emitted a retracted profile")
        });
        for c in &out.comparisons {
            emitted.push(c.pair.first.0, c.pair.second.0, c.weight);
        }
        if let Some(outcome) = saved {
            let ok = matches!(outcome, Ok(CheckpointOutcome::Saved));
            run.checkpoint_failures += u64::from(!ok);
            run.tally(ok, || {
                format!("{method} checkpoint at epoch {e}: {outcome:?}")
            });
        }
    }
    run.wall_s = start.elapsed().as_secs_f64();
    drop(root);
    run.first_emission_s = session
        .first_emission_us()
        .map_or(f64::NAN, |us| us as f64 / 1e6);
    for r in session.reports() {
        run.reprioritize_ms += ms(r.init_time);
        run.emit_ms += ms(r.emission_time);
        run.raw += r.raw_emissions;
        run.suppressed += r.suppressed;
    }
    run.checkpoint_bytes = std::fs::metadata(writer.path()).map_or(0, |m| m.len());

    // The uninterrupted session's next epoch: what every resume must
    // reproduce bit for bit.
    let drain_budget = EPOCH_BUDGET_PER_PROFILE * data.batch(batches - 1, batches).len() as u64;
    let expected = digest(&session.emit_epoch(Some(drain_budget)).comparisons);
    drop(session);
    run.digest = emitted.value() ^ expected;

    for i in 0..resumes {
        let t = Instant::now();
        let read = {
            let _s = span("bench.store.resume_read");
            CheckpointWriter::resume(writer.path())
        };
        let (checkpoint, fell_back) = match read {
            Ok(ok) => ok,
            Err(e) => {
                run.tally(false, || format!("{method} resume: {e}"));
                continue;
            }
        };
        let mut resumed = {
            let _s = span("bench.store.rehydrate");
            checkpoint.resume()
        };
        run.resume_s.push(t.elapsed().as_secs_f64());
        run.tally(!fell_back, || format!("{method} resume fell back to .prev"));
        if i == 0 {
            let next: Vec<Comparison> = resumed.emit_epoch(Some(drain_budget)).comparisons;
            run.tally(digest(&next) == expected, || {
                format!("{method} resumed epoch differs from the uninterrupted one")
            });
        }
    }
    run
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Retracts [`MUTATE_SHARE`] of the batch's new ids and amends as many
/// others (dropping their last attribute), picked by a seeded shuffle.
fn mutate(
    session: &mut ProgressiveSession,
    ids: std::ops::Range<u32>,
    rows: &[Vec<Attribute>],
    seed: u64,
) {
    let n = ids.len();
    let k = ((n as f64 * MUTATE_SHARE).round() as usize)
        .max(1)
        .min(n / 2);
    let mut order: Vec<usize> = (0..n).collect();
    let mut state = seed;
    for i in 0..2 * k {
        let j = i + (splitmix64(&mut state) % (n - i) as u64) as usize;
        order.swap(i, j);
    }
    for &o in &order[..k] {
        session.retract(ProfileId(ids.start + o as u32));
    }
    for &o in &order[k..2 * k] {
        let mut attrs = rows[o].clone();
        if attrs.len() > 1 {
            attrs.pop();
        }
        session.amend(ProfileId(ids.start + o as u32), attrs);
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
