//! Resumable progressive-resolution sessions: `ingest → reprioritize →
//! emit` epochs over a continuously growing collection.
//!
//! A [`ProgressiveSession`] wraps any schema-agnostic progressive method.
//! Each epoch it rebuilds the method's priority state from the
//! *incrementally maintained* substrates ([`IncrementalTokenBlocking`] /
//! [`IncrementalNeighborList`]) — re-prioritization without
//! re-tokenization or index rebuilds — and emits best-first comparisons,
//! suppressing every pair already emitted in an earlier epoch.
//!
//! ## Eventual-quality guarantee
//!
//! The streaming counterpart of the paper's *Same Eventual Quality*
//! requirement (§3.1): once all profiles are ingested and the final epoch
//! is drained, the session's cumulative emission set equals the batch
//! method's emission set on the final collection — streaming changes
//! *latency*, never eventual quality. This holds exactly for
//! substrate-monotone configurations, i.e. when a comparison the method
//! emits on a prefix collection is still emitted on every extension:
//!
//! * the similarity-based methods run to exhaustion (SA-PSN, LS-PSN, and
//!   GS-PSN with `wmax ≥ |NL|`) — their eventual set is every valid pair
//!   of token-bearing profiles, which only grows under ingest;
//! * the equality-based methods (PBS, PPS) over *unpruned* token blocks
//!   with `kmax ≥ |P|` — their eventual set is the distinct block
//!   comparisons, and prefix blocks are subsets of final blocks.
//!
//! [`SessionConfig::exhaustive`] selects exactly this regime (it is the
//! configuration of the equivalence property test). With the paper's
//! pruned defaults (block purging/filtering, finite `kmax`/`wmax`) the
//! session still never emits a pair twice and still converges, but early
//! epochs may have emitted comparisons the final pruned batch run would
//! skip — pruning is not monotone under ingest.

use crate::incremental::{IncrementalNeighborList, IncrementalTokenBlocking};
use sper_blocking::{BlockFilter, BlockPurger};
use sper_core::{
    build_method, gs_psn::GsPsn, ls_psn::LsPsn, pbs::Pbs, pps::Pps, sa_psn::SaPsn, Comparison,
    MethodConfig, ProgressiveEr, ProgressiveMethod,
};
use sper_eval::{streaming_recall, StreamEpoch, StreamingRecall};
use sper_model::{Attribute, GroundTruth, Pair, ProfileCollection, ProfileId};
use std::borrow::Cow;
use std::collections::HashSet;
use std::time::{Duration, Instant};

/// When a session runs its periodic compaction pass (physically dropping
/// tombstoned rows from the incremental substrates — see
/// [`ProgressiveSession::compact`]).
///
/// Compaction is an optimization, never a correctness requirement: every
/// snapshot filters tombstones lazily, so emission is bit-identical
/// whether a compaction ran or not. The trigger only decides when to pay
/// the rebuild to reclaim memory and restore fast-path snapshots.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompactionPolicy {
    /// Compact at the start of an epoch once pending tombstones reach
    /// this fraction of the live collection. `0.0` compacts on any
    /// pending tombstone; an effectively-infinite ratio makes compaction
    /// manual-only ([`ProgressiveSession::compact`]).
    pub tombstone_ratio: f64,
}

impl CompactionPolicy {
    /// Compaction disabled — only explicit
    /// [`ProgressiveSession::compact`] calls rebuild.
    pub fn manual() -> Self {
        Self {
            tombstone_ratio: f64::INFINITY,
        }
    }

    /// Compact once `ratio` of the live collection is tombstoned.
    pub fn at_ratio(ratio: f64) -> Self {
        Self {
            tombstone_ratio: ratio,
        }
    }
}

impl Default for CompactionPolicy {
    /// Compact once a quarter of the live collection is tombstoned.
    fn default() -> Self {
        Self {
            tombstone_ratio: 0.25,
        }
    }
}

/// How a session builds and re-prioritizes its method.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// The progressive method to run (PSN is rejected: schema keys do not
    /// stream).
    pub method: ProgressiveMethod,
    /// Shared method parameters (seed, weighting, workflow, `kmax`, …).
    pub config: MethodConfig,
    /// When retract/amend tombstones are physically compacted away.
    pub compaction: CompactionPolicy,
}

impl SessionConfig {
    /// The paper-default configuration for `method`.
    pub fn new(method: ProgressiveMethod) -> Self {
        Self {
            method,
            config: MethodConfig::default(),
            compaction: CompactionPolicy::default(),
        }
    }

    /// The substrate-monotone regime under which the streaming ⇔ batch
    /// equivalence is exact (see the module docs): no block purging or
    /// filtering, effectively unbounded `kmax` and `wmax`.
    pub fn exhaustive(method: ProgressiveMethod) -> Self {
        let mut config = MethodConfig::default();
        config.workflow.purge_ratio = 1.0;
        config.workflow.filter_ratio = 1.0;
        config.kmax = usize::MAX / 2;
        config.wmax = usize::MAX / 2;
        Self {
            method,
            config,
            compaction: CompactionPolicy::default(),
        }
    }

    /// Runs the epoch re-prioritization of the advanced methods (LS-PSN,
    /// GS-PSN, PBS, PPS) on `threads` worker threads; the naïve methods
    /// (SA-PSN, SA-PSAB) have no parallel phase and ignore the knob.
    /// Emission order (and therefore every recall curve) is identical to
    /// the sequential engine at any thread count.
    pub fn with_threads(mut self, threads: sper_core::Parallelism) -> Self {
        self.config.threads = threads;
        self
    }

    /// Replaces the compaction policy.
    pub fn with_compaction(mut self, compaction: CompactionPolicy) -> Self {
        self.compaction = compaction;
        self
    }
}

/// The complete transferable state of a [`ProgressiveSession`] — what a
/// checkpoint must capture so a resumed session emits exactly the suffix
/// an uninterrupted run would have emitted.
///
/// Produced by [`ProgressiveSession::dehydrate`], consumed by
/// [`ProgressiveSession::rehydrate`]; the persistence layer (`sper-store`)
/// serializes this to the checkpoint file format. The substrate fields are
/// optional both because each method maintains only one of them and so the
/// compact "profiles-only" checkpoint stays expressible — rehydration
/// rebuilds any substrate the method needs but the state lacks, and
/// batching invariance makes the rebuilt substrate identical to the one a
/// never-interrupted session would hold.
#[derive(Debug, Clone)]
pub struct SessionState {
    /// The progressive method the session runs.
    pub method: ProgressiveMethod,
    /// Shared method parameters.
    pub config: MethodConfig,
    /// The full collection ingested so far.
    pub profiles: ProfileCollection,
    /// The live token-blocking substrate (PBS/PPS sessions).
    pub blocks: Option<IncrementalTokenBlocking>,
    /// The live Neighbor List substrate (SA-PSN/LS-PSN/GS-PSN sessions).
    pub nl: Option<IncrementalNeighborList>,
    /// Every pair emitted so far — the cross-epoch dedup filter — in
    /// ascending order.
    pub emitted: Vec<Pair>,
    /// Profiles ingested since the last epoch.
    pub pending_ingest: usize,
    /// Per-epoch reports so far (the emission cursor: `reports.len()`
    /// numbers the next epoch).
    pub reports: Vec<EpochReport>,
    /// The compaction policy in effect.
    pub compaction: CompactionPolicy,
    /// Every profile ever retracted (ascending). Ids are never recycled,
    /// so this only grows.
    pub retracted: Vec<ProfileId>,
    /// Retracted profiles whose rows are still physically present in the
    /// substrates (ascending, a subset of `retracted`) — the tombstones a
    /// future compaction will drop.
    pub pending_tombstones: Vec<ProfileId>,
}

impl SessionState {
    /// Borrows the state as a [`SessionView`] (no copy: the three sorted
    /// lists are already canonical).
    pub fn view(&self) -> SessionView<'_> {
        SessionView {
            method: self.method,
            config: &self.config,
            profiles: &self.profiles,
            blocks: self.blocks.as_ref(),
            nl: self.nl.as_ref(),
            emitted: Cow::Borrowed(&self.emitted),
            pending_ingest: self.pending_ingest,
            reports: &self.reports,
            compaction: self.compaction,
            retracted: Cow::Borrowed(&self.retracted),
            pending_tombstones: Cow::Borrowed(&self.pending_tombstones),
        }
    }
}

/// A borrowed view of a session's transferable state: the fields of
/// [`SessionState`], without the copy.
///
/// [`ProgressiveSession::view`] borrows the configuration, the
/// collection, the live substrate and the reports, and builds only the
/// three canonical sorted lists a checkpoint stores: the emitted pairs,
/// the retracted ids and the pending tombstones.
/// [`SessionState::view`] borrows all of them. A checkpoint encodes a
/// view, and [`ProgressiveSession::dehydrate`] is a view turned
/// [`into_owned`](Self::into_owned), so the canonical form is defined
/// once.
#[derive(Debug)]
pub struct SessionView<'a> {
    /// The progressive method the session runs.
    pub method: ProgressiveMethod,
    /// Shared method parameters.
    pub config: &'a MethodConfig,
    /// The full collection ingested so far.
    pub profiles: &'a ProfileCollection,
    /// The live token-blocking substrate (PBS/PPS sessions).
    pub blocks: Option<&'a IncrementalTokenBlocking>,
    /// The live Neighbor List substrate (SA-PSN/LS-PSN/GS-PSN sessions).
    pub nl: Option<&'a IncrementalNeighborList>,
    /// Every pair emitted so far, in ascending order.
    pub emitted: Cow<'a, [Pair]>,
    /// Profiles ingested since the last epoch.
    pub pending_ingest: usize,
    /// Per-epoch reports so far.
    pub reports: &'a [EpochReport],
    /// The compaction policy in effect.
    pub compaction: CompactionPolicy,
    /// Every profile ever retracted, ascending.
    pub retracted: Cow<'a, [ProfileId]>,
    /// Retracted profiles whose rows are still physically present in the
    /// substrates, ascending.
    pub pending_tombstones: Cow<'a, [ProfileId]>,
}

impl SessionView<'_> {
    /// Copies the borrowed state into an owned [`SessionState`].
    pub fn into_owned(self) -> SessionState {
        SessionState {
            method: self.method,
            config: self.config.clone(),
            profiles: self.profiles.clone(),
            blocks: self.blocks.cloned(),
            nl: self.nl.cloned(),
            emitted: self.emitted.into_owned(),
            pending_ingest: self.pending_ingest,
            reports: self.reports.to_vec(),
            compaction: self.compaction,
            retracted: self.retracted.into_owned(),
            pending_tombstones: self.pending_tombstones.into_owned(),
        }
    }
}

/// Statistics of one `ingest → reprioritize → emit` epoch.
#[derive(Debug, Clone)]
pub struct EpochReport {
    /// 1-based epoch number.
    pub epoch: usize,
    /// Profiles streamed in since the previous epoch (the session's
    /// initial base collection is not counted).
    pub ingested: usize,
    /// Collection size at the end of the epoch.
    pub profiles_total: usize,
    /// Comparisons the method produced this epoch (including suppressed
    /// repeats).
    pub raw_emissions: u64,
    /// Comparisons emitted for the first time this epoch.
    pub new_emissions: u64,
    /// Comparisons suppressed as cross-epoch repeats.
    pub suppressed: u64,
    /// Time to rebuild the method from the incremental substrates.
    pub init_time: Duration,
    /// Time spent emitting.
    pub emission_time: Duration,
    /// Total wall-clock time of the epoch (re-prioritization + emission).
    ///
    /// Timing fields are **never persisted**: a checkpoint round-trip
    /// restores them as zero (they describe the machine the epoch ran on,
    /// not the session's resumable state).
    pub wall_clock: Duration,
    /// Raw comparisons produced per second of emission time (0 when the
    /// epoch emitted nothing or too fast to time).
    pub comparisons_per_sec: f64,
}

/// The outcome of one epoch: the report plus the newly emitted
/// comparisons, best-first in the method's epoch order.
#[derive(Debug, Clone)]
pub struct EpochOutcome {
    /// Epoch statistics.
    pub report: EpochReport,
    /// The comparisons emitted for the first time this epoch.
    pub comparisons: Vec<Comparison>,
}

/// Whether `method` consumes the incremental token-blocking substrate.
/// Shared by [`ProgressiveSession::new`] and
/// [`ProgressiveSession::rehydrate`], which must agree or resumed
/// sessions would drop (or fail to rebuild) the method's substrate.
fn uses_blocks(method: ProgressiveMethod) -> bool {
    matches!(method, ProgressiveMethod::Pbs | ProgressiveMethod::Pps)
}

/// Whether `method` consumes the incremental Neighbor List substrate
/// (see [`uses_blocks`]).
fn uses_nl(method: ProgressiveMethod) -> bool {
    matches!(
        method,
        ProgressiveMethod::SaPsn | ProgressiveMethod::LsPsn | ProgressiveMethod::GsPsn
    )
}

/// A long-lived ingest-while-resolving session.
///
/// ```
/// use sper_core::ProgressiveMethod;
/// use sper_model::{Attribute, ProfileCollectionBuilder};
/// use sper_stream::{ProgressiveSession, SessionConfig};
///
/// let mut session = ProgressiveSession::new(
///     ProfileCollectionBuilder::dirty().build(),
///     SessionConfig::exhaustive(ProgressiveMethod::Pps),
/// );
/// session.ingest(vec![Attribute::new("name", "carl white ny tailor")]);
/// session.ingest(vec![Attribute::new("name", "karl white ny tailor")]);
/// let epoch = session.emit_epoch(None);
/// assert_eq!(epoch.report.new_emissions, 1, "the one valid pair");
/// // A later epoch never re-emits it.
/// assert_eq!(session.emit_epoch(None).report.new_emissions, 0);
/// ```
#[derive(Debug)]
pub struct ProgressiveSession {
    method: ProgressiveMethod,
    config: MethodConfig,
    profiles: ProfileCollection,
    blocks: Option<IncrementalTokenBlocking>,
    nl: Option<IncrementalNeighborList>,
    emitted: HashSet<Pair>,
    pending_ingest: usize,
    reports: Vec<EpochReport>,
    compaction: CompactionPolicy,
    /// Per-profile retraction marks, indexed by id (tracks
    /// `profiles.len()`).
    retracted: Vec<bool>,
    /// Count of `true` entries in `retracted`.
    n_retracted: usize,
    /// Retracted ids not yet compacted away, in retraction order
    /// (sorted when dehydrated — the set, not the order, is the state).
    pending: Vec<ProfileId>,
    /// When this process opened (or rehydrated) the session — the origin
    /// of the time-to-first-emission measure. Observational only, never
    /// persisted: a resumed session measures from the resume.
    t_origin: Instant,
    /// Microseconds from `t_origin` to the first emitted comparison of
    /// this process, once one exists.
    first_emission_us: Option<u64>,
}

impl ProgressiveSession {
    /// Opens a session over an initial collection (which may be empty —
    /// `ProfileCollectionBuilder::dirty().build()` — or a pre-loaded base;
    /// for Clean-clean tasks the base fixes `P1` and streamed profiles
    /// join `P2`).
    ///
    /// # Panics
    ///
    /// Panics for [`ProgressiveMethod::Psn`]: schema-based blocking keys
    /// are not available for streamed profiles.
    pub fn new(initial: ProfileCollection, session: SessionConfig) -> Self {
        assert!(
            !session.method.is_schema_based(),
            "PSN is schema-based; streaming sessions are schema-agnostic"
        );
        let SessionConfig {
            method,
            config,
            compaction,
        } = session;
        // Maintain only the substrate the method consumes; the fallback
        // methods (SA-PSAB's suffix forest) rebuild from the collection.
        let blocks =
            uses_blocks(method).then(|| IncrementalTokenBlocking::from_collection(&initial));
        let nl = uses_nl(method)
            .then(|| IncrementalNeighborList::from_collection(&initial, config.seed));
        let retracted = vec![false; initial.len()];
        Self {
            method,
            config,
            profiles: initial,
            blocks,
            nl,
            emitted: HashSet::new(),
            // The base collection is not "streamed in": ingest counters
            // (and throughput derived from them) start at zero.
            pending_ingest: 0,
            reports: Vec::new(),
            compaction,
            retracted,
            n_retracted: 0,
            pending: Vec::new(),
            t_origin: Instant::now(),
            first_emission_us: None,
        }
    }

    /// The method this session runs.
    pub fn method(&self) -> ProgressiveMethod {
        self.method
    }

    /// The session's configuration (method + parameters) — the
    /// save-side half of the checkpoint hooks.
    pub fn config(&self) -> SessionConfig {
        SessionConfig {
            method: self.method,
            config: self.config.clone(),
            compaction: self.compaction,
        }
    }

    /// Lends the session's complete transferable state without copying
    /// it — what a checkpoint encodes (see [`SessionView`]). Only the
    /// three canonical sorted lists are built here.
    pub fn view(&self) -> SessionView<'_> {
        let mut emitted: Vec<Pair> = self.emitted.iter().copied().collect();
        emitted.sort_unstable();
        // Tombstone state canonicalizes to sorted id lists: checkpoint
        // bytes must not depend on retraction order.
        let retracted: Vec<ProfileId> = self
            .retracted
            .iter()
            .enumerate()
            .filter(|(_, &dead)| dead)
            .map(|(i, _)| ProfileId(i as u32))
            .collect();
        let mut pending_tombstones = self.pending.clone();
        pending_tombstones.sort_unstable();
        SessionView {
            method: self.method,
            config: &self.config,
            profiles: &self.profiles,
            blocks: self.blocks.as_ref(),
            nl: self.nl.as_ref(),
            emitted: Cow::Owned(emitted),
            pending_ingest: self.pending_ingest,
            reports: &self.reports,
            compaction: self.compaction,
            retracted: Cow::Owned(retracted),
            pending_tombstones: Cow::Owned(pending_tombstones),
        }
    }

    /// Extracts the session's complete transferable state — the save hook
    /// of the checkpoint/resume cycle (see [`SessionState`]): the
    /// [`view`](Self::view), copied into owned fields.
    pub fn dehydrate(&self) -> SessionState {
        self.view().into_owned()
    }

    /// Reconstructs a session from a [`SessionState`] — the restore hook
    /// of the checkpoint/resume cycle.
    ///
    /// Every epoch the restored session emits is **bit-identical** to
    /// what the uninterrupted session would have emitted: the substrates
    /// round-trip exactly (or are rebuilt from the collection, which
    /// batching invariance makes equivalent), and the emitted-pair filter
    /// is order-insensitive.
    ///
    /// # Panics
    ///
    /// Panics for [`ProgressiveMethod::Psn`] states, like
    /// [`ProgressiveSession::new`].
    pub fn rehydrate(state: SessionState) -> Self {
        assert!(
            !state.method.is_schema_based(),
            "PSN is schema-based; streaming sessions are schema-agnostic"
        );
        let SessionState {
            method,
            config,
            profiles,
            mut blocks,
            mut nl,
            emitted,
            pending_ingest,
            reports,
            compaction,
            retracted,
            pending_tombstones,
        } = state;
        let mut dead = vec![false; profiles.len()];
        for &id in &retracted {
            assert!(
                (id.index()) < profiles.len(),
                "retracted id out of range: {id:?}"
            );
            dead[id.index()] = true;
        }
        for &id in &pending_tombstones {
            assert!(dead[id.index()], "pending tombstone was never retracted");
        }
        // Rebuild whichever substrate the method consumes but the state
        // lacks; drop any the method does not use. A substrate rebuilt
        // from the husked collection is *already compacted* — retracted
        // profiles tokenize to nothing — so it carries the all-time
        // tombstone marks but zero physically-pending rows. Lazy snapshot
        // filtering makes it emit identically to a carried-over substrate
        // that still holds the dead rows.
        if !uses_blocks(method) {
            blocks = None;
        } else if blocks.is_none() {
            let mut b = IncrementalTokenBlocking::from_collection(&profiles);
            b.restore_tombstones(retracted.iter().copied(), 0);
            blocks = Some(b);
        }
        if !uses_nl(method) {
            nl = None;
        } else if nl.is_none() {
            let mut n = IncrementalNeighborList::from_collection(&profiles, config.seed);
            n.restore_tombstones(retracted.iter().copied(), 0);
            nl = Some(n);
        }
        let n_retracted = retracted.len();
        Self {
            method,
            config,
            profiles,
            blocks,
            nl,
            emitted: emitted.into_iter().collect(),
            pending_ingest,
            reports,
            compaction,
            retracted: dead,
            n_retracted,
            pending: pending_tombstones,
            t_origin: Instant::now(),
            first_emission_us: None,
        }
    }

    /// The current collection.
    pub fn profiles(&self) -> &ProfileCollection {
        &self.profiles
    }

    /// Microseconds from session open (or resume) to the first comparison
    /// this process emitted; `None` until one exists. Time-to-first-result
    /// is the paper's headline progressive measure, so the session tracks
    /// it directly (also exported as the `session.first_emission_us`
    /// gauge).
    pub fn first_emission_us(&self) -> Option<u64> {
        self.first_emission_us
    }

    /// Pairs emitted so far, across all epochs.
    pub fn emitted(&self) -> &HashSet<Pair> {
        &self.emitted
    }

    /// Per-epoch reports so far.
    pub fn reports(&self) -> &[EpochReport] {
        &self.reports
    }

    /// Ingests one profile, updating the incremental substrates. Cost is
    /// amortized `O(|tokens| · log)` — no existing profile is touched.
    pub fn ingest(&mut self, attributes: Vec<Attribute>) -> ProfileId {
        let id = self.profiles.append_profile(attributes);
        let profile = self.profiles.get(id);
        if let Some(blocks) = self.blocks.as_mut() {
            blocks.add_profile(profile);
        }
        if let Some(nl) = self.nl.as_mut() {
            nl.add_profile(profile);
        }
        self.retracted.push(false);
        self.pending_ingest += 1;
        id
    }

    /// Ingests a batch of profiles, returning the id range.
    pub fn ingest_batch(
        &mut self,
        batch: impl IntoIterator<Item = Vec<Attribute>>,
    ) -> std::ops::Range<u32> {
        let mut span = sper_obs::span!("stream.ingest");
        let start = self.profiles.len() as u32;
        for attrs in batch {
            self.ingest(attrs);
        }
        span.record("rows", (self.profiles.len() as u32 - start) as u64);
        span.record("profiles_total", self.profiles.len());
        start..self.profiles.len() as u32
    }

    /// Retracts (deletes) a previously ingested profile.
    ///
    /// The id is *never recycled*: the collection keeps an empty husk in
    /// the slot (so every other id stays stable) and the incremental
    /// substrates mark the profile tombstoned. Snapshots filter
    /// tombstones lazily, so from this call on the session emits exactly
    /// what a session that never saw the profile would emit — the
    /// physical rows are dropped later by [`compact`](Self::compact).
    /// Cross-epoch dedup entries touching the profile are invalidated
    /// immediately.
    ///
    /// # Panics
    ///
    /// Panics if `id` was never ingested or is already retracted.
    pub fn retract(&mut self, id: ProfileId) {
        assert!(id.index() < self.profiles.len(), "retract of unknown {id}");
        assert!(!self.retracted[id.index()], "double retract of {id}");
        self.retracted[id.index()] = true;
        self.n_retracted += 1;
        self.profiles.retract_profile(id);
        if let Some(blocks) = self.blocks.as_mut() {
            blocks.retract(id);
        }
        if let Some(nl) = self.nl.as_mut() {
            nl.retract(id);
        }
        self.pending.push(id);
        // Invalidate dedup-filter entries touching the retracted profile.
        // Ids never recycle, so these pairs could never be re-emitted
        // anyway — dropping them keeps the checkpoint's emitted section
        // identical to a session that never saw the profile.
        let retracted = &self.retracted;
        self.emitted
            .retain(|p| !retracted[p.first.index()] && !retracted[p.second.index()]);
        sper_obs::count!("session.retracts");
        sper_obs::gauge!("session.tombstones_pending", self.pending.len() as i64);
    }

    /// Updates a profile by retract + re-ingest: the old id becomes a
    /// tombstone and the new attribute set receives a **fresh id** (ids
    /// are immutable handles to an ingested row, never edited in place).
    /// This makes *update ≡ delete + insert* hold by construction — the
    /// equivalence the mutation test wall pins down.
    ///
    /// For Clean-clean sessions the re-ingested profile joins the
    /// streamed source (`P2`), like any other ingest.
    ///
    /// # Panics
    ///
    /// Panics if `id` was never ingested or is already retracted.
    pub fn amend(&mut self, id: ProfileId, attributes: Vec<Attribute>) -> ProfileId {
        self.retract(id);
        let new_id = self.ingest(attributes);
        sper_obs::count!("session.amends");
        new_id
    }

    /// Whether a profile has been retracted (directly or via
    /// [`amend`](Self::amend)).
    pub fn is_retracted(&self, id: ProfileId) -> bool {
        self.retracted[id.index()]
    }

    /// Retracted ids whose rows are still physically present in the
    /// substrates.
    pub fn pending_tombstones(&self) -> usize {
        self.pending.len()
    }

    /// Physically drops tombstoned rows from the incremental substrates,
    /// rebuilding the affected CSR segments. Emission is bit-identical
    /// before and after (snapshots already filter lazily); compaction
    /// reclaims memory and restores the fast snapshot path. Returns the
    /// number of tombstones compacted away.
    ///
    /// Runs automatically at the start of an epoch once the
    /// [`CompactionPolicy`] threshold is reached; calling it manually is
    /// always safe.
    pub fn compact(&mut self) -> usize {
        if self.pending.is_empty() {
            return 0;
        }
        let mut span = sper_obs::span!("stream.compaction", pending = self.pending.len());
        let mut dropped = 0usize;
        if let Some(blocks) = self.blocks.as_mut() {
            dropped = dropped.max(blocks.compact());
        }
        if let Some(nl) = self.nl.as_mut() {
            dropped = dropped.max(nl.compact());
        }
        // Substrate-free methods (SA-PSAB) rebuild from the husked
        // collection each epoch; their tombstones are "compacted" the
        // moment they are retracted.
        dropped = dropped.max(self.pending.len());
        self.pending.clear();
        span.record("dropped", dropped as u64);
        sper_obs::count!("session.compactions");
        sper_obs::gauge!("session.tombstones_pending", 0);
        dropped
    }

    /// The epoch-start compaction trigger (see [`CompactionPolicy`]).
    fn should_compact(&self) -> bool {
        if self.pending.is_empty() {
            return false;
        }
        let live = (self.profiles.len() - self.n_retracted).max(1);
        self.pending.len() as f64 >= self.compaction.tombstone_ratio * live as f64
    }

    /// Runs one epoch: rebuilds the method's priority state from the
    /// incremental substrates (re-prioritization) and emits best-first
    /// comparisons, suppressing cross-epoch repeats, until the method is
    /// exhausted or `budget` *new* emissions have been produced.
    pub fn emit_epoch(&mut self, budget: Option<u64>) -> EpochOutcome {
        // Fault-harness entry: `delay`/`panic` schedules simulate a slow
        // or killed epoch (epochs return no Result, so error actions
        // don't apply here — see `sper_obs::fault::apply`).
        sper_obs::fault::apply("session.epoch");
        let budget = budget.unwrap_or(u64::MAX);
        // Periodic compaction runs at epoch boundaries, before the
        // snapshot: it never changes what this epoch emits (lazy
        // filtering already hides tombstones), only how fast the
        // snapshot is taken.
        if self.should_compact() {
            self.compact();
        }
        let mut span = sper_obs::span!(
            "stream.epoch",
            epoch = self.reports.len() + 1,
            method = self.method.name(),
            ingested = self.pending_ingest,
        );
        let t0 = Instant::now();
        // Snapshot the substrates first (they need `&mut self`), then
        // build the epoch method over `&self.profiles`. Each step opens its
        // own child span: `blocking.nl_snapshot`, `blocking.token_snapshot`,
        // `blocking.purge` and `blocking.filter`.
        let (nl_snapshot, block_snapshot) = {
            let mut snap_span = sper_obs::span!("blocking.epoch_snapshot");
            let nl_snapshot = self.nl.as_mut().map(|nl| nl.snapshot());
            let block_snapshot = self.blocks.as_ref().map(|b| {
                let snap = b.snapshot();
                let snap = BlockPurger::new(self.config.workflow.purge_ratio).purge(snap);
                BlockFilter::new(self.config.workflow.filter_ratio).filter(snap)
            });
            if let Some(blocks) = &block_snapshot {
                snap_span.record("blocks", blocks.len());
            }
            (nl_snapshot, block_snapshot)
        };
        // Epoch re-prioritization runs on the configured worker threads
        // (`MethodConfig::threads`); the emitted sequence is identical to
        // the sequential engine at any thread count.
        let par = self.config.threads;
        let init_span = sper_obs::span!(
            "core.method_init",
            method = self.method.name(),
            threads = par.get(),
        );
        let mut method: Box<dyn ProgressiveEr + '_> = match self.method {
            ProgressiveMethod::SaPsn => {
                let mut m = SaPsn::from_neighbor_list(&self.profiles, nl_snapshot.unwrap());
                if let Some(mw) = self.config.max_window {
                    m = m.with_max_window(mw);
                }
                Box::new(m)
            }
            ProgressiveMethod::LsPsn => Box::new(LsPsn::from_neighbor_list_par(
                &self.profiles,
                nl_snapshot.unwrap(),
                self.config.neighbor_weighting,
                par,
            )),
            ProgressiveMethod::GsPsn => Box::new(GsPsn::from_neighbor_list_par(
                &self.profiles,
                nl_snapshot.unwrap(),
                self.config.wmax,
                self.config.neighbor_weighting,
                par,
            )),
            ProgressiveMethod::Pbs => Box::new(Pbs::from_blocks_par(
                block_snapshot.unwrap(),
                self.config.scheme,
                par,
            )),
            ProgressiveMethod::Pps => Box::new(Pps::from_blocks_par(
                block_snapshot.unwrap(),
                self.config.scheme,
                self.config.kmax,
                par,
            )),
            // No incremental substrate for the suffix forest (SA-PSAB):
            // full rebuild per epoch.
            other => build_method(other, &self.profiles, &self.config, None),
        };
        drop(init_span);
        let init_time = t0.elapsed();

        let t1 = Instant::now();
        let mut emit_span = sper_obs::span!("stream.emit");
        let mut raw: u64 = 0;
        let mut suppressed: u64 = 0;
        let mut comparisons: Vec<Comparison> = Vec::new();
        while (comparisons.len() as u64) < budget {
            let Some(c) = method.next() else { break };
            raw += 1;
            // Substrate snapshots already filter tombstones; this guard
            // covers the substrate-free methods (SA-PSAB rebuilds from
            // the husked collection, whose empty rows can never pair, so
            // it is ordinarily inert) and is the last line of defense
            // for the headline invariant: a retracted profile is never
            // emitted.
            if self.retracted[c.pair.first.index()] || self.retracted[c.pair.second.index()] {
                suppressed += 1;
                continue;
            }
            if self.emitted.insert(c.pair) {
                comparisons.push(c);
            } else {
                suppressed += 1;
            }
        }
        drop(method);
        emit_span.record("raw", raw);
        emit_span.record("new", comparisons.len());
        drop(emit_span);
        let emission_time = t1.elapsed();
        let wall_clock = t0.elapsed();

        // Epoch counters feed the global metrics registry (the source of
        // the Prometheus/JSON dumps); the derived throughput rides on the
        // report itself. Both are observational only — never persisted.
        sper_obs::count!("session.epochs");
        sper_obs::count!("session.raw_emissions", raw);
        sper_obs::count!("session.new_emissions", comparisons.len() as u64);
        sper_obs::count!("session.suppressed", suppressed);
        sper_obs::observe!("session.epoch_init_us", init_time.as_secs_f64() * 1e6);
        sper_obs::observe!("session.epoch_emit_us", emission_time.as_secs_f64() * 1e6);
        // Progress gauges: the live-scrape view of "where is this
        // session right now" (epoch counters above only ever accumulate).
        if self.first_emission_us.is_none() && !comparisons.is_empty() {
            let us = u64::try_from(self.t_origin.elapsed().as_micros()).unwrap_or(u64::MAX);
            self.first_emission_us = Some(us);
            sper_obs::gauge!("session.first_emission_us", us as i64);
        }
        sper_obs::gauge!("session.epoch", self.reports.len() as i64 + 1);
        sper_obs::gauge!("session.emitted_total", self.emitted.len() as i64);
        sper_obs::gauge!("session.profiles", self.profiles.len() as i64);
        let live = (self.profiles.len() - self.n_retracted).max(1);
        sper_obs::gauge!(
            "session.tombstone_permille",
            (self.pending.len() as f64 / live as f64 * 1000.0) as i64
        );
        let comparisons_per_sec = if emission_time.as_secs_f64() > 0.0 {
            raw as f64 / emission_time.as_secs_f64()
        } else {
            0.0
        };

        let report = EpochReport {
            epoch: self.reports.len() + 1,
            ingested: std::mem::take(&mut self.pending_ingest),
            profiles_total: self.profiles.len(),
            raw_emissions: raw,
            new_emissions: comparisons.len() as u64,
            suppressed,
            init_time,
            emission_time,
            wall_clock,
            comparisons_per_sec,
        };
        span.record("raw", raw);
        span.record("new", report.new_emissions);
        span.record("suppressed", suppressed);
        self.reports.push(report.clone());
        EpochOutcome {
            report,
            comparisons,
        }
    }
}

/// Drives a full streaming run: ingest `batches` one epoch at a time
/// (emitting up to `budget_per_epoch` new comparisons after each), then
/// evaluates the cumulative emissions against `truth` as an
/// epoch-annotated recall curve.
pub fn run_streaming(
    initial: ProfileCollection,
    batches: Vec<Vec<Vec<Attribute>>>,
    session_config: SessionConfig,
    budget_per_epoch: Option<u64>,
    truth: &GroundTruth,
) -> (StreamingRecall, Vec<EpochReport>) {
    let (recall, reports) = run_streaming_with(
        initial,
        batches,
        session_config,
        budget_per_epoch,
        Some(truth),
        |_| {},
    );
    (recall.expect("truth was provided"), reports)
}

/// [`run_streaming`] with its knobs exposed: the ground truth is optional
/// (no truth → no recall curve, epochs still run) and `on_epoch` observes
/// every [`EpochOutcome`] as it completes — live progress reporting for
/// long runs (the `sper stream` CLI).
pub fn run_streaming_with(
    initial: ProfileCollection,
    batches: Vec<Vec<Vec<Attribute>>>,
    session_config: SessionConfig,
    budget_per_epoch: Option<u64>,
    truth: Option<&GroundTruth>,
    mut on_epoch: impl FnMut(&EpochOutcome),
) -> (Option<StreamingRecall>, Vec<EpochReport>) {
    let mut session = ProgressiveSession::new(initial, session_config);
    let mut epochs: Vec<StreamEpoch> = Vec::new();
    for batch in batches {
        session.ingest_batch(batch);
        let outcome = session.emit_epoch(budget_per_epoch);
        epochs.push(StreamEpoch {
            profiles_total: outcome.report.profiles_total,
            pairs: outcome.comparisons.iter().map(|c| c.pair).collect(),
        });
        on_epoch(&outcome);
    }
    let recall = truth.map(|t| streaming_recall(&epochs, t));
    (recall, session.reports.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sper_model::ProfileCollectionBuilder;

    fn toy() -> Vec<Vec<Attribute>> {
        [
            "carl white ny tailor",
            "karl white ny tailor",
            "hellen white ml teacher",
            "ellen white ml teacher",
            "emma white wi tailor",
            "frank black la baker",
        ]
        .iter()
        .map(|v| vec![Attribute::new("text", *v)])
        .collect()
    }

    fn empty_dirty() -> ProfileCollection {
        ProfileCollectionBuilder::dirty().build()
    }

    #[test]
    fn epochs_never_repeat_emissions() {
        for method in [
            ProgressiveMethod::SaPsn,
            ProgressiveMethod::LsPsn,
            ProgressiveMethod::GsPsn,
            ProgressiveMethod::Pbs,
            ProgressiveMethod::Pps,
            ProgressiveMethod::SaPsab,
        ] {
            let mut session =
                ProgressiveSession::new(empty_dirty(), SessionConfig::exhaustive(method));
            let mut seen: HashSet<Pair> = HashSet::new();
            for chunk in toy().chunks(2) {
                session.ingest_batch(chunk.to_vec());
                let outcome = session.emit_epoch(None);
                for c in &outcome.comparisons {
                    assert!(seen.insert(c.pair), "{method:?} repeated {:?}", c.pair);
                }
            }
            assert_eq!(seen.len(), session.emitted().len());
        }
    }

    #[test]
    fn budget_limits_new_emissions_per_epoch() {
        let mut session = ProgressiveSession::new(
            empty_dirty(),
            SessionConfig::exhaustive(ProgressiveMethod::Pps),
        );
        session.ingest_batch(toy());
        let outcome = session.emit_epoch(Some(3));
        assert_eq!(outcome.report.new_emissions, 3);
        assert_eq!(outcome.comparisons.len(), 3);
        // The rest arrives in the next epoch, without repeats.
        let rest = session.emit_epoch(None);
        assert!(rest.report.new_emissions > 0);
        assert_eq!(rest.report.ingested, 0, "no new profiles this epoch");
    }

    #[test]
    fn reports_track_ingest_and_epochs() {
        let mut session = ProgressiveSession::new(
            empty_dirty(),
            SessionConfig::exhaustive(ProgressiveMethod::LsPsn),
        );
        let ids = session.ingest_batch(toy().into_iter().take(4));
        assert_eq!(ids, 0..4);
        let o1 = session.emit_epoch(None);
        assert_eq!(o1.report.epoch, 1);
        assert_eq!(o1.report.ingested, 4);
        assert_eq!(o1.report.profiles_total, 4);
        session.ingest_batch(toy().into_iter().skip(4));
        let o2 = session.emit_epoch(None);
        assert_eq!(o2.report.epoch, 2);
        assert_eq!(o2.report.ingested, 2);
        assert_eq!(o2.report.profiles_total, 6);
        assert_eq!(session.reports().len(), 2);
    }

    #[test]
    fn empty_epoch_is_harmless() {
        let mut session = ProgressiveSession::new(
            empty_dirty(),
            SessionConfig::exhaustive(ProgressiveMethod::Pbs),
        );
        let outcome = session.emit_epoch(None);
        assert_eq!(outcome.report.new_emissions, 0);
        assert_eq!(outcome.comparisons.len(), 0);
    }

    #[test]
    #[should_panic(expected = "schema-based")]
    fn psn_is_rejected() {
        ProgressiveSession::new(empty_dirty(), SessionConfig::new(ProgressiveMethod::Psn));
    }

    #[test]
    fn parallel_epochs_emit_identical_sequences() {
        // Every epoch's emission sequence (pairs *and* weights, in order)
        // must be independent of the thread count.
        for method in [
            ProgressiveMethod::LsPsn,
            ProgressiveMethod::GsPsn,
            ProgressiveMethod::Pbs,
            ProgressiveMethod::Pps,
        ] {
            let run = |threads: usize| {
                let config = SessionConfig::exhaustive(method)
                    .with_threads(sper_core::Parallelism::new(threads).unwrap());
                let mut session = ProgressiveSession::new(empty_dirty(), config);
                let mut emissions: Vec<Vec<(Pair, f64)>> = Vec::new();
                for chunk in toy().chunks(2) {
                    session.ingest_batch(chunk.to_vec());
                    let outcome = session.emit_epoch(None);
                    emissions.push(
                        outcome
                            .comparisons
                            .iter()
                            .map(|c| (c.pair, c.weight))
                            .collect(),
                    );
                }
                emissions
            };
            let sequential = run(1);
            for threads in [2, 4] {
                assert_eq!(
                    run(threads),
                    sequential,
                    "{method:?} diverged at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn rehydrated_session_emits_identical_suffix() {
        // Checkpoint after epoch 1; the resumed session's remaining epochs
        // must match the uninterrupted session's bit for bit.
        for method in [
            ProgressiveMethod::SaPsn,
            ProgressiveMethod::LsPsn,
            ProgressiveMethod::GsPsn,
            ProgressiveMethod::Pbs,
            ProgressiveMethod::Pps,
            ProgressiveMethod::SaPsab,
        ] {
            let chunks: Vec<Vec<Vec<Attribute>>> = toy().chunks(2).map(|c| c.to_vec()).collect();
            let mut baseline =
                ProgressiveSession::new(empty_dirty(), SessionConfig::exhaustive(method));
            baseline.ingest_batch(chunks[0].clone());
            let first = baseline.emit_epoch(Some(2));
            let state = baseline.dehydrate();
            let mut resumed = ProgressiveSession::rehydrate(state);
            assert_eq!(resumed.emitted().len(), first.comparisons.len());
            for chunk in &chunks[1..] {
                baseline.ingest_batch(chunk.clone());
                resumed.ingest_batch(chunk.clone());
                let a = baseline.emit_epoch(Some(3));
                let b = resumed.emit_epoch(Some(3));
                let pairs = |o: &EpochOutcome| -> Vec<(Pair, f64)> {
                    o.comparisons.iter().map(|c| (c.pair, c.weight)).collect()
                };
                assert_eq!(pairs(&a), pairs(&b), "{method:?} diverged after resume");
                assert_eq!(a.report.epoch, b.report.epoch);
            }
        }
    }

    #[test]
    fn rehydrate_rebuilds_missing_substrates() {
        // A profiles-only state (substrates dropped) must rebuild to the
        // exact substrate an uninterrupted session holds — batching
        // invariance makes the two indistinguishable.
        let mut session = ProgressiveSession::new(
            empty_dirty(),
            SessionConfig::exhaustive(ProgressiveMethod::Pps),
        );
        session.ingest_batch(toy().into_iter().take(4));
        let full = session.emit_epoch(Some(1));
        let mut state = session.dehydrate();
        state.blocks = None;
        state.nl = None;
        let mut resumed = ProgressiveSession::rehydrate(state);
        let a = session.emit_epoch(None);
        let b = resumed.emit_epoch(None);
        assert_eq!(
            a.comparisons.iter().map(|c| c.pair).collect::<Vec<_>>(),
            b.comparisons.iter().map(|c| c.pair).collect::<Vec<_>>(),
        );
        assert!(full.report.new_emissions > 0);
    }

    fn emission_of(o: &EpochOutcome) -> Vec<(Pair, f64)> {
        o.comparisons.iter().map(|c| (c.pair, c.weight)).collect()
    }

    #[test]
    fn retract_before_emission_equals_never_ingested() {
        // Ingest toy() plus a trailing junk profile, retract the junk
        // before any emission: every epoch must be bit-identical to a
        // session that never saw it (survivor ids coincide because the
        // junk profile holds the last id).
        for method in [
            ProgressiveMethod::SaPsn,
            ProgressiveMethod::LsPsn,
            ProgressiveMethod::GsPsn,
            ProgressiveMethod::Pbs,
            ProgressiveMethod::Pps,
            ProgressiveMethod::SaPsab,
        ] {
            let mut mutated =
                ProgressiveSession::new(empty_dirty(), SessionConfig::exhaustive(method));
            mutated.ingest_batch(toy());
            let junk = mutated.ingest(vec![Attribute::new("text", "carl white zz tailor")]);
            mutated.retract(junk);
            let mut clean =
                ProgressiveSession::new(empty_dirty(), SessionConfig::exhaustive(method));
            clean.ingest_batch(toy());
            let a = mutated.emit_epoch(None);
            let b = clean.emit_epoch(None);
            assert_eq!(emission_of(&a), emission_of(&b), "{method:?} diverged");
            assert!(b.report.new_emissions > 0, "vacuous fixture");
        }
    }

    #[test]
    fn amend_retracts_and_assigns_a_fresh_id() {
        let mut session = ProgressiveSession::new(
            empty_dirty(),
            SessionConfig::exhaustive(ProgressiveMethod::Pps),
        );
        session.ingest_batch(toy());
        let new_id = session.amend(ProfileId(0), vec![Attribute::new("text", "carla white")]);
        assert_eq!(new_id, ProfileId(6), "amend re-ingests under a fresh id");
        assert!(session.is_retracted(ProfileId(0)));
        assert!(!session.is_retracted(new_id));
        let outcome = session.emit_epoch(None);
        for c in &outcome.comparisons {
            assert_ne!(c.pair.first, ProfileId(0), "retracted id emitted");
            assert_ne!(c.pair.second, ProfileId(0), "retracted id emitted");
        }
    }

    #[test]
    fn compaction_never_changes_the_emission_stream() {
        // Fork one mid-stream state (via dehydrate) into a session that
        // compacts eagerly and one that never compacts; their remaining
        // epochs must match bit for bit.
        for method in [ProgressiveMethod::Pps, ProgressiveMethod::SaPsn] {
            let mut base =
                ProgressiveSession::new(empty_dirty(), SessionConfig::exhaustive(method));
            base.ingest_batch(toy());
            base.emit_epoch(Some(2));
            base.retract(ProfileId(4));
            base.retract(ProfileId(5));
            let state = base.dehydrate();
            let mut eager = ProgressiveSession::rehydrate(state.clone());
            let mut lazy = ProgressiveSession::rehydrate(state);
            assert_eq!(eager.pending_tombstones(), 2);
            assert!(eager.compact() >= 2);
            assert_eq!(eager.pending_tombstones(), 0);
            for extra in ["gina white ny tailor", "paul black la baker"] {
                let attrs = vec![Attribute::new("text", extra)];
                eager.ingest(attrs.clone());
                lazy.ingest(attrs);
                let a = eager.emit_epoch(Some(3));
                let b = lazy.emit_epoch(Some(3));
                assert_eq!(emission_of(&a), emission_of(&b), "{method:?} diverged");
            }
        }
    }

    #[test]
    fn retract_invalidates_dedup_filter_entries() {
        let mut session = ProgressiveSession::new(
            empty_dirty(),
            SessionConfig::exhaustive(ProgressiveMethod::Pps),
        );
        session.ingest_batch(toy());
        session.emit_epoch(None);
        let touching_0 = session
            .emitted()
            .iter()
            .filter(|p| p.first == ProfileId(0) || p.second == ProfileId(0))
            .count();
        assert!(touching_0 > 0, "vacuous fixture");
        let before = session.emitted().len();
        session.retract(ProfileId(0));
        assert_eq!(session.emitted().len(), before - touching_0);
        assert!(session
            .emitted()
            .iter()
            .all(|p| p.first != ProfileId(0) && p.second != ProfileId(0)));
    }

    #[test]
    fn compaction_policy_gates_the_epoch_trigger() {
        // ratio 0.0 compacts on any pending tombstone at the epoch
        // boundary; manual() never does.
        let auto = SessionConfig::exhaustive(ProgressiveMethod::Pps)
            .with_compaction(CompactionPolicy::at_ratio(0.0));
        let mut session = ProgressiveSession::new(empty_dirty(), auto);
        session.ingest_batch(toy());
        session.retract(ProfileId(5));
        assert_eq!(session.pending_tombstones(), 1);
        session.emit_epoch(None);
        assert_eq!(session.pending_tombstones(), 0, "epoch start compacts");

        let manual = SessionConfig::exhaustive(ProgressiveMethod::Pps)
            .with_compaction(CompactionPolicy::manual());
        let mut session = ProgressiveSession::new(empty_dirty(), manual);
        session.ingest_batch(toy());
        session.retract(ProfileId(5));
        session.emit_epoch(None);
        assert_eq!(session.pending_tombstones(), 1, "manual policy never fires");
    }

    #[test]
    #[should_panic(expected = "double retract")]
    fn session_double_retract_panics() {
        let mut session = ProgressiveSession::new(
            empty_dirty(),
            SessionConfig::exhaustive(ProgressiveMethod::Pps),
        );
        session.ingest_batch(toy());
        session.retract(ProfileId(1));
        session.retract(ProfileId(1));
    }

    #[test]
    fn run_streaming_produces_epoch_marks() {
        let profiles = toy();
        let truth = GroundTruth::from_pairs(
            6,
            [
                Pair::new(ProfileId(0), ProfileId(1)),
                Pair::new(ProfileId(2), ProfileId(3)),
            ],
        );
        let batches: Vec<Vec<Vec<Attribute>>> = profiles.chunks(2).map(|c| c.to_vec()).collect();
        let (recall, reports) = run_streaming(
            empty_dirty(),
            batches,
            SessionConfig::exhaustive(ProgressiveMethod::Pps),
            None,
            &truth,
        );
        assert_eq!(recall.epochs.len(), 3);
        assert_eq!(reports.len(), 3);
        assert_eq!(recall.final_recall(), 1.0, "exhaustive drain finds all");
        // Matches among early-ingested profiles surface in early epochs.
        assert!(recall.recall_after_epoch(1) >= 0.5);
    }
}
