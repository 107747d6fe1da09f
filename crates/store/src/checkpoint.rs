//! Session checkpoints: persisting a [`ProgressiveSession`]'s complete
//! transferable state so a later process resumes it mid-stream.
//!
//! A checkpoint file captures a session's transferable state, encoded
//! from a [`SessionView`] — borrowed from the live session, or from an
//! owned [`SessionState`]: method + configuration, the ingested
//! collection, the live incremental substrate (blocks *or* neighbor-list
//! runs — each method maintains at most one), the cross-epoch
//! emitted-pair filter, and the epoch reports (whose length is the
//! emission cursor). Resuming rehydrates a session whose every future
//! epoch is **bit-identical** to what the uninterrupted session would
//! have emitted — the guarantee the kill/resume property test in
//! `tests/resume.rs` pins for every streamable method.
//!
//! Sections: `SESS` (method, config, counters) is required; `PROF` is
//! required; `INTR` + `ITBK` or `INTR` + `INLR` carry the substrate when
//! the state holds one; `EMIT` and `RPTS` are required (possibly empty);
//! `TOMB` (format v2) carries the mutation state — the compaction policy,
//! every retracted id, and the tombstones still physically pending in the
//! substrates. Version-1 files predate the mutation model and simply lack
//! `TOMB`; the reader treats that as "no mutations ever happened", which
//! is exactly what a v1 writer could express.
//!
//! **What is deliberately absent:** the sparse-accumulator kernel's
//! scratch state (`sper_blocking::WeightAccumulator` inside PBS/PPS, the
//! dense co-occurrence scratch inside LS-PSN/GS-PSN). The scratch is a
//! pure function of the substrates the methods sweep — dense arrays plus
//! a touched list, zeroed between profiles — so persisting it would add
//! `O(|P|)` bytes per worker to every checkpoint without changing a
//! single resumed emission. Rehydration allocates zeroed scratch and the
//! first sweep rebuilds it; `tests/resume.rs::
//! kernel_scratch_is_rebuilt_not_persisted` pins the invariant by killing
//! budgeted runs with a hot mid-schedule scratch and demanding
//! bit-identical continuations.

use crate::container::{Store, Tag};
use crate::error::StoreError;
use crate::substrates::{
    decode_incremental_index, decode_interner, decode_live_blocks, decode_profiles,
    encode_incremental_index, encode_interner, encode_live_blocks, encode_profiles, TAG_INTERNER,
    TAG_PROFILES,
};
use crate::wire::{Decoder, Encoder};
use sper_blocking::{TokenBlockingWorkflow, WeightingScheme};
use sper_core::{MethodConfig, NeighborWeighting, Parallelism, ProgressiveMethod};
use sper_model::{Pair, ProfileId};
use sper_stream::{
    CompactionPolicy, EpochReport, IncrementalNeighborList, IncrementalTokenBlocking,
    ProgressiveSession, SessionState, SessionView,
};
use sper_text::TokenId;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

/// Section tag of the session header (method, config, counters).
pub const TAG_SESSION: Tag = *b"SESS";
/// Section tag of the live token-blocking substrate.
pub const TAG_LIVE_BLOCKS: Tag = *b"ITBK";
/// Section tag of the live neighbor-list runs.
pub const TAG_NL_RUNS: Tag = *b"INLR";
/// Section tag of the emitted-pair filter.
pub const TAG_EMITTED: Tag = *b"EMIT";
/// Section tag of the per-epoch reports.
pub const TAG_REPORTS: Tag = *b"RPTS";
/// Section tag of the mutation state: compaction policy, retracted ids,
/// pending tombstones (format v2; absent in v1 files).
pub const TAG_TOMBSTONES: Tag = *b"TOMB";

/// A saved (or about-to-be-saved) session state.
///
/// ```no_run
/// use sper_core::ProgressiveMethod;
/// use sper_model::ProfileCollectionBuilder;
/// use sper_store::{CheckpointWriter, SessionCheckpoint};
/// use sper_stream::{ProgressiveSession, SessionConfig};
///
/// # fn main() -> Result<(), sper_store::StoreError> {
/// let mut session = ProgressiveSession::new(
///     ProfileCollectionBuilder::dirty().build(),
///     SessionConfig::exhaustive(ProgressiveMethod::Pps),
/// );
/// // … ingest and emit epochs, then persist at a budget boundary,
/// // encoding straight from the live session:
/// CheckpointWriter::new("run.sper").save(&session)?;
/// // … later, in a fresh process:
/// let mut resumed = SessionCheckpoint::read_from_path("run.sper".as_ref())?.resume();
/// resumed.emit_epoch(None); // exactly what the original would have emitted
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct SessionCheckpoint {
    /// The captured state.
    pub state: SessionState,
}

impl SessionCheckpoint {
    /// Captures a session's current state as an owned copy
    /// (`dehydrate`), so the checkpoint stays valid while the session
    /// keeps running — or is handed to [`resume`](Self::resume) in the
    /// same process. The copy costs as much memory as the session's
    /// collection and substrate. To save a running session, use
    /// [`CheckpointWriter::save`](crate::CheckpointWriter::save), which
    /// encodes straight from [`ProgressiveSession::view`] and copies
    /// nothing.
    pub fn of(session: &ProgressiveSession) -> Self {
        Self {
            state: session.dehydrate(),
        }
    }

    /// Rehydrates the session (consuming the checkpoint).
    pub fn resume(self) -> ProgressiveSession {
        ProgressiveSession::rehydrate(self.state)
    }

    /// Serializes the checkpoint into a sectioned store.
    pub fn to_store(&self) -> Store {
        encode_checkpoint(&self.state.view())
    }

    /// Deserializes a checkpoint from a sectioned store, validating every
    /// cross-section invariant.
    pub fn from_store(store: &Store) -> Result<Self, StoreError> {
        let mut d = Decoder::new(store.require(TAG_SESSION, "SESS")?, "SESS");
        let method = ProgressiveMethod::from_code(d.u8()?)
            .ok_or_else(|| d.corrupt("unknown method code"))?;
        if method.is_schema_based() {
            return Err(d.corrupt("PSN is schema-based; sessions cannot hold it"));
        }
        let config = decode_method_config(&mut d)?;
        let pending_ingest = d.len()?;
        let has_blocks = d.u8()? != 0;
        let has_nl = d.u8()? != 0;
        d.finish()?;
        if has_blocks && has_nl {
            return Err(StoreError::Corrupt {
                section: "SESS".into(),
                detail: "a session maintains at most one substrate".into(),
            });
        }

        let profiles = decode_profiles(store.require(TAG_PROFILES, "PROF")?)?;
        let n_profiles = profiles.len();
        if pending_ingest > n_profiles {
            return Err(StoreError::Corrupt {
                section: "SESS".into(),
                detail: format!("pending ingest {pending_ingest} exceeds |P| = {n_profiles}"),
            });
        }

        // Mutation state. A v1 file has no TOMB section: those writers
        // could not retract, so "no mutations" is exact, not a guess.
        let (compaction, retracted, pending_tombstones) = match store.get(TAG_TOMBSTONES) {
            None => (CompactionPolicy::default(), Vec::new(), Vec::new()),
            Some(bytes) => decode_tombstones(bytes, n_profiles, &profiles)?,
        };

        let mut blocks: Option<IncrementalTokenBlocking> = None;
        let mut nl: Option<IncrementalNeighborList> = None;
        if has_blocks {
            let interner = Arc::new(decode_interner(store.require(TAG_INTERNER, "INTR")?)?);
            let payload = store.require(TAG_LIVE_BLOCKS, "ITBK")?;
            let mut d = Decoder::new(payload, "ITBK");
            let live_len = d.len()?;
            let rest = &payload[8..];
            if live_len > rest.len() {
                return Err(d.corrupt("live-block segment length exceeds payload"));
            }
            let live = decode_live_blocks(&rest[..live_len], n_profiles, &interner)?;
            let index = decode_incremental_index(&rest[live_len..])?;
            if index.total_blocks() != live.len() {
                return Err(StoreError::Corrupt {
                    section: "ITBK".into(),
                    detail: format!(
                        "index covers {} blocks, {} stored",
                        index.total_blocks(),
                        live.len()
                    ),
                });
            }
            if index.n_profiles() != n_profiles {
                return Err(StoreError::Corrupt {
                    section: "ITBK".into(),
                    detail: format!(
                        "index covers {} profiles, collection has {n_profiles}",
                        index.n_profiles()
                    ),
                });
            }
            blocks = Some(IncrementalTokenBlocking::from_parts(
                profiles.kind(),
                n_profiles,
                interner,
                live,
                index,
            ));
        } else if has_nl {
            let interner = Arc::new(decode_interner(store.require(TAG_INTERNER, "INTR")?)?);
            nl = Some(decode_nl_runs(
                store.require(TAG_NL_RUNS, "INLR")?,
                n_profiles,
                interner,
            )?);
        }
        // Re-mark the tombstones on the decoded substrate: the wire
        // format stores blocks/runs as they physically are (dead rows
        // included — that is the pre-compaction truth) and the id lists
        // separately, so the marks are re-applied rather than encoded
        // per-row.
        if let Some(b) = blocks.as_mut() {
            b.restore_tombstones(retracted.iter().copied(), pending_tombstones.len());
        }
        if let Some(n) = nl.as_mut() {
            n.restore_tombstones(retracted.iter().copied(), pending_tombstones.len());
        }
        let mut dead = vec![false; n_profiles];
        for &id in &retracted {
            dead[id.index()] = true;
        }

        let mut d = Decoder::new(store.require(TAG_EMITTED, "EMIT")?, "EMIT");
        let count = d.len()?;
        let mut emitted: Vec<Pair> = Vec::with_capacity(count.min(1 << 20));
        for _ in 0..count {
            let first = d.u32()?;
            let second = d.u32()?;
            if first >= second {
                return Err(d.corrupt("pair endpoints not in canonical order"));
            }
            if second as usize >= n_profiles {
                return Err(d.corrupt("pair endpoint out of profile range"));
            }
            if dead[first as usize] || dead[second as usize] {
                // Sessions invalidate dedup entries eagerly on retract; a
                // surviving entry means the two sections disagree.
                return Err(d.corrupt("emitted pair touches a retracted profile"));
            }
            let pair = Pair::new(ProfileId(first), ProfileId(second));
            if let Some(&prev) = emitted.last() {
                if prev >= pair {
                    return Err(d.corrupt("emitted pairs not strictly ascending"));
                }
            }
            emitted.push(pair);
        }
        d.finish()?;

        let mut d = Decoder::new(store.require(TAG_REPORTS, "RPTS")?, "RPTS");
        let count = d.len()?;
        let mut reports: Vec<EpochReport> = Vec::with_capacity(count.min(1 << 16));
        for i in 0..count {
            let epoch = d.len()?;
            if epoch != i + 1 {
                return Err(d.corrupt(format!("epoch {epoch} recorded at cursor {}", i + 1)));
            }
            let ingested = d.len()?;
            let profiles_total = d.len()?;
            let raw_emissions = d.u64()?;
            let new_emissions = d.u64()?;
            let suppressed = d.u64()?;
            // Drain the two legacy timing slots; restored reports always
            // carry zeroed timings (see `encode_checkpoint`).
            let _ = d.u64()?;
            let _ = d.u64()?;
            reports.push(EpochReport {
                epoch,
                ingested,
                profiles_total,
                raw_emissions,
                new_emissions,
                suppressed,
                init_time: Duration::ZERO,
                emission_time: Duration::ZERO,
                wall_clock: Duration::ZERO,
                comparisons_per_sec: 0.0,
            });
        }
        d.finish()?;

        Ok(Self {
            state: SessionState {
                method,
                config,
                profiles,
                blocks,
                nl,
                emitted,
                pending_ingest,
                reports,
                compaction,
                retracted,
                pending_tombstones,
            },
        })
    }

    /// Writes the checkpoint to a file (atomically, via temp + rename).
    pub fn write_to_path(&self, path: &Path) -> Result<(), StoreError> {
        let mut span = sper_obs::span!("store.checkpoint_write");
        let store = self.to_store();
        span.record("bytes", store.byte_len());
        store.write_to_path(path)
    }

    /// Reads a checkpoint file.
    pub fn read_from_path(path: &Path) -> Result<Self, StoreError> {
        let _span = sper_obs::span!("store.checkpoint_read");
        Self::from_store(&Store::read_from_path(path)?)
    }
}

/// The checkpoint encoder: a session view to its sections, in file
/// order. Both [`SessionCheckpoint::to_store`] and
/// [`CheckpointWriter`](crate::CheckpointWriter) saves come through here,
/// so a file's bytes depend only on the state, never on the path that
/// wrote it.
pub(crate) fn encode_checkpoint(view: &SessionView<'_>) -> Store {
    let mut store = Store::new();

    let mut e = Encoder::new();
    e.u8(view.method.code());
    encode_method_config(&mut e, view.config);
    e.u64(view.pending_ingest as u64);
    e.u8(view.blocks.is_some() as u8);
    e.u8(view.nl.is_some() as u8);
    store.push(TAG_SESSION, e.into_bytes());

    store.push(TAG_PROFILES, encode_profiles(view.profiles));

    // Mutation state (format v2). Always written — an empty section
    // keeps the byte layout a pure function of the state, and the
    // reader's v1 fallback only triggers on files that truly predate
    // the section.
    let mut e = Encoder::new();
    e.f64(view.compaction.tombstone_ratio);
    e.u64(view.retracted.len() as u64);
    for p in view.retracted.iter() {
        e.u32(p.0);
    }
    e.u64(view.pending_tombstones.len() as u64);
    for p in view.pending_tombstones.iter() {
        e.u32(p.0);
    }
    store.push(TAG_TOMBSTONES, e.into_bytes());

    if let Some(blocks) = view.blocks {
        store.push(TAG_INTERNER, encode_interner(blocks.interner()));
        let mut e = Encoder::new();
        let live = encode_live_blocks(blocks.blocks());
        e.u64(live.len() as u64);
        let mut payload = e.into_bytes();
        payload.extend_from_slice(&live);
        payload.extend_from_slice(&encode_incremental_index(blocks.profile_index()));
        store.push(TAG_LIVE_BLOCKS, payload);
    } else if let Some(nl) = view.nl {
        store.push(TAG_INTERNER, encode_interner(nl.interner()));
        store.push(TAG_NL_RUNS, encode_nl_runs(nl));
    }

    let mut e = Encoder::new();
    e.u64(view.emitted.len() as u64);
    for p in view.emitted.iter() {
        e.u32(p.first.0);
        e.u32(p.second.0);
    }
    store.push(TAG_EMITTED, e.into_bytes());

    let mut e = Encoder::new();
    e.u64(view.reports.len() as u64);
    for r in view.reports {
        e.u64(r.epoch as u64);
        e.u64(r.ingested as u64);
        e.u64(r.profiles_total as u64);
        e.u64(r.raw_emissions);
        e.u64(r.new_emissions);
        e.u64(r.suppressed);
        // Timing state is never persisted: it describes the machine the
        // epoch ran on, not the session's resumable state. The two wire
        // slots that historically carried init/emission nanos are kept
        // (layout compatibility) but always written as zero.
        e.u64(0);
        e.u64(0);
    }
    store.push(TAG_REPORTS, e.into_bytes());

    store
}

fn encode_method_config(e: &mut Encoder, config: &MethodConfig) {
    e.u64(config.seed);
    e.u64(config.wmax as u64);
    e.u64(config.lmin as u64);
    e.u64(config.kmax as u64);
    e.u8(config.scheme.code());
    e.u8(config.neighbor_weighting.code());
    e.f64(config.workflow.purge_ratio);
    e.f64(config.workflow.filter_ratio);
    match config.max_window {
        Some(w) => {
            e.u8(1);
            e.u64(w as u64);
        }
        None => e.u8(0),
    }
    e.u64(config.threads.get() as u64);
}

fn decode_method_config(d: &mut Decoder<'_>) -> Result<MethodConfig, StoreError> {
    // Config scalars are parameters, not allocation lengths — `kmax` is
    // `usize::MAX / 2` in the exhaustive regime — so they skip the
    // plausible-length guard and only check address-space fit.
    fn scalar(d: &mut Decoder<'_>) -> Result<usize, StoreError> {
        let v = d.u64()?;
        usize::try_from(v).map_err(|_| d.corrupt(format!("parameter {v} exceeds address space")))
    }
    let seed = d.u64()?;
    let wmax = scalar(d)?;
    let lmin = scalar(d)?;
    let kmax = scalar(d)?;
    // GS-PSN and PPS refuse a zero window bound or profile cap; no writer
    // produces one, and a resumed session would panic on it.
    if wmax == 0 {
        return Err(d.corrupt("zero wmax"));
    }
    if kmax == 0 {
        return Err(d.corrupt("zero kmax"));
    }
    let scheme = WeightingScheme::from_code(d.u8()?)
        .ok_or_else(|| d.corrupt("unknown weighting-scheme code"))?;
    let neighbor_weighting = NeighborWeighting::from_code(d.u8()?)
        .ok_or_else(|| d.corrupt("unknown neighbor-weighting code"))?;
    let purge_ratio = d.f64()?;
    let filter_ratio = d.f64()?;
    // Block Purging and Block Filtering refuse a ratio outside (0, 1]
    // (NaN included); a resumed PBS or PPS session would panic on it.
    for (name, ratio) in [("purge", purge_ratio), ("filter", filter_ratio)] {
        if !(ratio > 0.0 && ratio <= 1.0) {
            return Err(d.corrupt(format!("{name} ratio {ratio} outside (0, 1]")));
        }
    }
    let max_window = match d.u8()? {
        0 => None,
        1 => Some(scalar(d)?),
        other => return Err(d.corrupt(format!("invalid max-window flag {other}"))),
    };
    let threads = Parallelism::new(scalar(d)?).map_err(|_| d.corrupt("zero worker threads"))?;
    Ok(MethodConfig {
        seed,
        wmax,
        lmin,
        kmax,
        scheme,
        neighbor_weighting,
        workflow: TokenBlockingWorkflow {
            purge_ratio,
            filter_ratio,
        },
        max_window,
        threads,
    })
}

/// Decodes the `TOMB` mutation section: compaction policy plus the two
/// canonical (strictly ascending) id lists, cross-validated against the
/// collection — a retracted profile must be a husk, and every pending
/// tombstone must be retracted.
fn decode_tombstones(
    bytes: &[u8],
    n_profiles: usize,
    profiles: &sper_model::ProfileCollection,
) -> Result<(CompactionPolicy, Vec<ProfileId>, Vec<ProfileId>), StoreError> {
    let mut d = Decoder::new(bytes, "TOMB");
    let tombstone_ratio = d.f64()?;
    // Infinity is meaningful (manual-only compaction); NaN and negatives
    // are not a policy any writer produces.
    if tombstone_ratio.is_nan() || tombstone_ratio < 0.0 {
        return Err(d.corrupt(format!("invalid compaction ratio {tombstone_ratio}")));
    }
    let ascending_ids = |d: &mut Decoder<'_>| -> Result<Vec<ProfileId>, StoreError> {
        let count = d.len()?;
        let mut ids: Vec<ProfileId> = Vec::with_capacity(count.min(1 << 20));
        for _ in 0..count {
            let id = d.u32()?;
            if id as usize >= n_profiles {
                return Err(d.corrupt(format!("tombstone id {id} out of profile range")));
            }
            if ids.last().is_some_and(|p| p.0 >= id) {
                return Err(d.corrupt("tombstone ids not strictly ascending"));
            }
            ids.push(ProfileId(id));
        }
        Ok(ids)
    };
    let retracted = ascending_ids(&mut d)?;
    let pending = ascending_ids(&mut d)?;
    d.finish()?;
    for &id in &retracted {
        if !profiles.is_husk(id) {
            return Err(StoreError::Corrupt {
                section: "TOMB".into(),
                detail: format!("retracted {id} still has attributes in PROF"),
            });
        }
    }
    for &id in &pending {
        if retracted.binary_search(&id).is_err() {
            return Err(StoreError::Corrupt {
                section: "TOMB".into(),
                detail: format!("pending tombstone {id} was never retracted"),
            });
        }
    }
    Ok((CompactionPolicy { tombstone_ratio }, retracted, pending))
}

/// Encodes the incremental neighbor list as its per-token runs, in token-id
/// order (canonical bytes for the hash-map-backed structure).
fn encode_nl_runs(nl: &IncrementalNeighborList) -> Vec<u8> {
    let mut runs: Vec<(TokenId, &[ProfileId])> = nl.runs().collect();
    runs.sort_unstable_by_key(|&(t, _)| t);
    let mut e = Encoder::new();
    e.u64(nl.seed());
    e.u64(runs.len() as u64);
    for (token, members) in runs {
        e.u32(token.0);
        e.u64(members.len() as u64);
        for p in members {
            e.u32(p.0);
        }
    }
    e.into_bytes()
}

fn decode_nl_runs(
    bytes: &[u8],
    n_profiles: usize,
    interner: Arc<sper_text::TokenInterner>,
) -> Result<IncrementalNeighborList, StoreError> {
    let mut d = Decoder::new(bytes, "INLR");
    let seed = d.u64()?;
    let count = d.len()?;
    let mut runs: Vec<(TokenId, Vec<ProfileId>)> = Vec::with_capacity(count.min(1 << 20));
    let mut prev_token: Option<u32> = None;
    for _ in 0..count {
        let token = d.u32()?;
        if token as usize >= interner.len() {
            return Err(d.corrupt("run key not in the interner vocabulary"));
        }
        if prev_token.is_some_and(|p| p >= token) {
            return Err(d.corrupt("runs not strictly ascending by token id"));
        }
        prev_token = Some(token);
        let n = d.len()?;
        let mut members = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            members.push(d.u32()?);
        }
        if !members.windows(2).all(|w| w[0] < w[1]) {
            return Err(d.corrupt("run members not strictly ascending"));
        }
        if members.iter().any(|&m| m as usize >= n_profiles) {
            return Err(d.corrupt("run member out of profile range"));
        }
        runs.push((TokenId(token), members.into_iter().map(ProfileId).collect()));
    }
    d.finish()?;
    Ok(IncrementalNeighborList::from_parts(
        seed, n_profiles, interner, runs,
    ))
}
