//! Self-healing persistence: retries, last-good rotation, and graceful
//! checkpoint degradation.
//!
//! The container's temp+rename write already guarantees a crash never
//! tears the destination file; this module closes the remaining gaps for
//! long-lived sessions:
//!
//! * [`RetryPolicy`] — bounded retries with decorrelated-jitter backoff
//!   for transient I/O failures, with an injected sleeper so tests run
//!   the schedule instantly. Each retry is a `store.retry` count and a
//!   Warn event.
//! * **Last-good rotation** ([`Store::write_rotated`]) — the previous
//!   file survives as `path.prev` when a new one commits, so a write
//!   that fails *mid-rotation* (or a corrupted current file discovered
//!   later) can never lose the ability to resume:
//!   [`read_store_with_fallback`] falls back to `.prev` with a Warn.
//! * [`CheckpointWriter`] — the checkpoint cadence of a streaming run,
//!   combining both of the above with an `on_failure` policy: `Abort`
//!   propagates an exhausted-retries error, `Continue` logs + counts and
//!   lets the run keep emitting (the checkpoint is a durability aid, not
//!   a correctness dependency — emission is untouched either way).
//!
//! The rotation state machine (written up in DESIGN.md § "Fault
//! injection & recovery"):
//!
//! ```text
//!   write tmp ── fsync ──► rename path → path.prev ──► rename tmp → path
//!      │                        │                          │
//!      ▼ fail/kill              ▼ fail/kill                ▼ fail/kill
//!   path intact            path.prev intact           path.prev intact
//!   (tmp purged on open)   (fallback resumes it)      (path also done
//!                                                      if rename ran)
//! ```
//!
//! At every instruction at least one complete, checksummed store exists
//! under `path` or `path.prev` — the invariant the fault-schedule
//! proptest (`store/tests/fault_schedules.rs`) drives schedules against.
//! After the final rename the directory is fsynced, so a rotation that
//! reported success also survives a power loss.

use crate::checkpoint::{encode_checkpoint, SessionCheckpoint};
use crate::container::{sync_parent_dir, tmp_path, Store};
use crate::error::StoreError;
use sper_stream::{ProgressiveSession, SessionView};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// The `.prev` sibling holding the last-good generation of `path`.
pub fn prev_path(path: &Path) -> PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_else(|| "store".into());
    name.push(".prev");
    path.with_file_name(name)
}

impl Store {
    /// Writes the store to `path`, rotating the existing file to
    /// `path.prev` instead of overwriting it. The new bytes are fsynced
    /// before either rename, so a kill at any instruction leaves at
    /// least one complete generation on disk (see the module docs for
    /// the state machine). The directory is fsynced after the final
    /// rename, so a committed rotation also survives a power loss.
    pub fn write_rotated(&self, path: &Path) -> Result<(), StoreError> {
        let tmp = tmp_path(path);
        self.write_tmp(&tmp)?;
        if path.exists() {
            sper_obs::fault::failpoint("store.rename")?;
            std::fs::rename(path, prev_path(path))?;
        }
        sper_obs::fault::failpoint("store.rename")?;
        std::fs::rename(&tmp, path)?;
        sync_parent_dir(path)
    }
}

/// Reads `path`, falling back to `path.prev` (with a Warn event and a
/// `store.prev_fallback` count) when the current generation is missing
/// or corrupt. Returns the store and whether the fallback was taken.
/// When both generations fail, the *primary* error is returned — it
/// names what is wrong with the file the caller asked for.
pub fn read_store_with_fallback(path: &Path) -> Result<(Store, bool), StoreError> {
    read_with_fallback(path, Store::from_store_parse)
}

/// The generic fallback read: `parse` maps a loaded [`Store`] to the
/// caller's structure, so semantic corruption (a section that passes its
/// CRC but decodes to garbage) also triggers the `.prev` fallback.
pub fn read_with_fallback<T>(
    path: &Path,
    parse: impl Fn(&Store) -> Result<T, StoreError>,
) -> Result<(T, bool), StoreError> {
    let primary = Store::read_from_path(path).and_then(|s| parse(&s));
    let primary_err = match primary {
        Ok(value) => return Ok((value, false)),
        Err(e) => e,
    };
    let prev = prev_path(path);
    match Store::read_from_path(&prev).and_then(|s| parse(&s)) {
        Ok(value) => {
            sper_obs::event!(
                sper_obs::Level::Warn,
                "store.prev_fallback",
                path = path.display().to_string(),
                error = primary_err.to_string()
            );
            sper_obs::count!("store.prev_fallback");
            Ok((value, true))
        }
        // Both generations unreadable: the primary's error is the one
        // that names the file the caller asked for.
        Err(_) => Err(primary_err),
    }
}

impl Store {
    /// Identity parse for [`read_with_fallback`] (the store *is* the
    /// structure). Clones the sections; fallback reads are cold paths.
    fn from_store_parse(store: &Store) -> Result<Store, StoreError> {
        let mut out = Store::new();
        for (tag, payload) in store.sections_cloned() {
            out.push(tag, payload);
        }
        Ok(out)
    }
}

/// How many times a transient write failure is retried, and how long to
/// back off between attempts.
///
/// The backoff is *decorrelated jitter*: each delay is drawn uniformly
/// from `[base, 3 × previous]`, capped — the schedule spreads retries
/// out without synchronizing every writer onto the same harmonic. The
/// RNG is a seeded xorshift so a given policy replays the same delays,
/// and the sleeper is injectable so tests execute the whole schedule in
/// microseconds.
#[derive(Clone)]
pub struct RetryPolicy {
    /// Retries after the first attempt (0 = fail fast).
    pub max_retries: u32,
    /// Lower bound of every backoff delay.
    pub base: Duration,
    /// Upper bound of every backoff delay.
    pub cap: Duration,
    seed: u64,
    sleeper: Arc<dyn Fn(Duration) + Send + Sync>,
}

impl std::fmt::Debug for RetryPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RetryPolicy")
            .field("max_retries", &self.max_retries)
            .field("base", &self.base)
            .field("cap", &self.cap)
            .finish()
    }
}

impl Default for RetryPolicy {
    /// Three retries, 10 ms base, 1 s cap — enough to ride out a busy
    /// filesystem without stalling an epoch noticeably.
    fn default() -> Self {
        Self::new(3, Duration::from_millis(10), Duration::from_secs(1))
    }
}

impl RetryPolicy {
    /// A policy with a real (`thread::sleep`) clock.
    pub fn new(max_retries: u32, base: Duration, cap: Duration) -> Self {
        Self {
            max_retries,
            base,
            cap,
            seed: 0x9E37_79B9_7F4A_7C15,
            sleeper: Arc::new(std::thread::sleep),
        }
    }

    /// No retries: every failure is final.
    pub fn none() -> Self {
        Self::new(0, Duration::ZERO, Duration::ZERO)
    }

    /// Replaces the sleeper (tests inject a recorder; production keeps
    /// `thread::sleep`).
    pub fn with_sleeper(mut self, sleeper: impl Fn(Duration) + Send + Sync + 'static) -> Self {
        self.sleeper = Arc::new(sleeper);
        self
    }

    /// Reseeds the jitter RNG (delays are deterministic per seed).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Runs `op` until it succeeds, a non-transient error occurs, or the
    /// retry budget is exhausted. Only [`StoreError::Io`] is considered
    /// transient — corruption and version errors never heal by waiting.
    /// Each retry counts `store.retry` and emits a Warn event naming
    /// `site`.
    pub fn run<T>(
        &self,
        site: &str,
        mut op: impl FnMut(u32) -> Result<T, StoreError>,
    ) -> Result<T, StoreError> {
        let mut rng = self.seed | 1;
        let mut prev = self.base;
        for attempt in 0..=self.max_retries {
            match op(attempt) {
                Ok(value) => return Ok(value),
                Err(e) if attempt < self.max_retries && is_transient(&e) => {
                    let delay = next_delay(&mut rng, self.base, self.cap, prev);
                    prev = delay;
                    sper_obs::count!("store.retry");
                    sper_obs::event!(
                        sper_obs::Level::Warn,
                        "store.retry",
                        site = site,
                        attempt = attempt as u64,
                        delay_ms = delay.as_millis() as u64,
                        error = e.to_string()
                    );
                    (self.sleeper)(delay);
                }
                Err(e) => return Err(e),
            }
        }
        unreachable!("loop returns on the final attempt");
    }
}

/// Whether waiting could plausibly fix this error.
fn is_transient(e: &StoreError) -> bool {
    matches!(e, StoreError::Io(_))
}

/// One decorrelated-jitter step: uniform in `[base, 3 × prev]`, capped.
fn next_delay(rng: &mut u64, base: Duration, cap: Duration, prev: Duration) -> Duration {
    let base_ms = base.as_millis() as u64;
    let hi = (prev.as_millis() as u64).saturating_mul(3).max(base_ms);
    let span = hi - base_ms;
    let jitter = if span == 0 {
        0
    } else {
        xorshift(rng) % (span + 1)
    };
    Duration::from_millis(base_ms + jitter).min(cap)
}

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// What to do when a checkpoint exhausts its retries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OnCheckpointFailure {
    /// Propagate the error: the run stops. The safe default for
    /// operators who would rather restart than lose resumability.
    #[default]
    Abort,
    /// Log + count and keep running: emission does not depend on the
    /// checkpoint, and the last successfully rotated generation is still
    /// on disk to resume from.
    Continue,
}

impl OnCheckpointFailure {
    /// Parses the CLI/env spelling (`abort` | `continue`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "abort" => Some(Self::Abort),
            "continue" => Some(Self::Continue),
            _ => None,
        }
    }
}

/// How one checkpoint attempt ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointOutcome {
    /// The checkpoint committed (possibly after retries).
    Saved,
    /// Retries were exhausted and the policy is
    /// [`OnCheckpointFailure::Continue`]: the run goes on, resumable
    /// from the previous good generation.
    FailedContinuing,
}

/// The self-healing checkpoint sink of a streaming run: every save goes
/// through the `stream.checkpoint` failpoint, the [`RetryPolicy`], and
/// last-good rotation, and an exhausted-retries failure is either fatal
/// or absorbed per [`OnCheckpointFailure`].
#[derive(Debug)]
pub struct CheckpointWriter {
    path: PathBuf,
    retry: RetryPolicy,
    on_failure: OnCheckpointFailure,
    saves: u64,
    failures: u64,
}

impl CheckpointWriter {
    /// A writer with the default policy (retry ×3, rotation, abort on
    /// exhaustion).
    pub fn new(path: impl Into<PathBuf>) -> Self {
        Self {
            path: path.into(),
            retry: RetryPolicy::default(),
            on_failure: OnCheckpointFailure::default(),
            saves: 0,
            failures: 0,
        }
    }

    /// Replaces the retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Sets the exhausted-retries policy.
    pub fn with_on_failure(mut self, on_failure: OnCheckpointFailure) -> Self {
        self.on_failure = on_failure;
        self
    }

    /// The checkpoint path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Checkpoints committed so far.
    pub fn saves(&self) -> u64 {
        self.saves
    }

    /// Checkpoints abandoned after exhausting retries (only nonzero
    /// under [`OnCheckpointFailure::Continue`]).
    pub fn failures(&self) -> u64 {
        self.failures
    }

    /// Saves `session`'s state, encoded straight from
    /// [`ProgressiveSession::view`]: the session is not copied.
    pub fn save(&mut self, session: &ProgressiveSession) -> Result<CheckpointOutcome, StoreError> {
        self.save_view(|| session.view())
    }

    /// Saves an already-captured checkpoint.
    pub fn save_checkpoint(
        &mut self,
        checkpoint: &SessionCheckpoint,
    ) -> Result<CheckpointOutcome, StoreError> {
        self.save_view(|| checkpoint.state.view())
    }

    /// Encodes a view once and commits it through the retry policy and
    /// rotation, under one `store.checkpoint_write` span.
    fn save_view<'a>(
        &mut self,
        view: impl FnOnce() -> SessionView<'a>,
    ) -> Result<CheckpointOutcome, StoreError> {
        let mut span = sper_obs::span!("store.checkpoint_write");
        let store = encode_checkpoint(&view());
        span.record("bytes", store.byte_len());
        let result = self.retry.run("stream.checkpoint", |_| {
            sper_obs::fault::failpoint("stream.checkpoint")?;
            store.write_rotated(&self.path)
        });
        match result {
            Ok(()) => {
                self.saves += 1;
                Ok(CheckpointOutcome::Saved)
            }
            Err(e) => {
                self.failures += 1;
                sper_obs::count!("store.checkpoint_failures");
                sper_obs::event!(
                    sper_obs::Level::Warn,
                    "store.checkpoint_failed",
                    path = self.path.display().to_string(),
                    policy = match self.on_failure {
                        OnCheckpointFailure::Abort => "abort",
                        OnCheckpointFailure::Continue => "continue",
                    },
                    error = e.to_string()
                );
                match self.on_failure {
                    OnCheckpointFailure::Abort => Err(e),
                    OnCheckpointFailure::Continue => Ok(CheckpointOutcome::FailedContinuing),
                }
            }
        }
    }

    /// Reads a checkpoint back, falling back to the rotated `.prev`
    /// generation when the current file is missing or corrupt (any
    /// layer: container framing, CRC, or section decode). Returns the
    /// checkpoint and whether the fallback was taken.
    pub fn resume(path: &Path) -> Result<(SessionCheckpoint, bool), StoreError> {
        read_with_fallback(path, SessionCheckpoint::from_store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Mutex;

    fn dir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("sper-healing-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn store_with(byte: u8) -> Store {
        let mut s = Store::new();
        s.push(*b"DATA", vec![byte; 64]);
        s
    }

    fn first_payload_byte(path: &Path) -> u8 {
        let s = Store::read_from_path(path).expect("readable generation");
        s.get(*b"DATA").expect("DATA section")[0]
    }

    /// Holds the failpoint registry's test lock with nothing armed. Every
    /// test here that writes through `write_rotated` takes it (the fault
    /// test by arming its schedule): a concurrently running write would
    /// otherwise consume the armed `store.rename` fault.
    fn unarmed() -> sper_obs::fault::Armed {
        sper_obs::fault::arm_scoped("").expect("empty spec")
    }

    #[test]
    fn rotation_keeps_the_previous_generation() {
        let _serial = unarmed();
        let d = dir("rotate");
        let path = d.join("run.sper");
        store_with(1).write_rotated(&path).unwrap();
        assert!(
            !prev_path(&path).exists(),
            "first write has nothing to rotate"
        );
        store_with(2).write_rotated(&path).unwrap();
        assert_eq!(first_payload_byte(&path), 2);
        assert_eq!(first_payload_byte(&prev_path(&path)), 1);
        store_with(3).write_rotated(&path).unwrap();
        assert_eq!(first_payload_byte(&prev_path(&path)), 2, "prev advances");
    }

    #[test]
    fn fallback_reads_prev_when_current_is_corrupt() {
        let _serial = unarmed();
        let d = dir("fallback");
        let path = d.join("run.sper");
        store_with(1).write_rotated(&path).unwrap();
        store_with(2).write_rotated(&path).unwrap();
        // Corrupt the current generation's payload.
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();

        let (store, fell_back) = read_store_with_fallback(&path).unwrap();
        assert!(fell_back);
        assert_eq!(store.get(*b"DATA").unwrap()[0], 1);
    }

    #[test]
    fn both_generations_torn_is_a_typed_error_not_a_panic() {
        let _serial = unarmed();
        let d = dir("torn");
        let path = d.join("run.sper");
        store_with(1).write_rotated(&path).unwrap();
        store_with(2).write_rotated(&path).unwrap();
        std::fs::write(&path, b"SPERgarbage").unwrap();
        std::fs::write(prev_path(&path), b"XXXXgarbage").unwrap();
        match read_store_with_fallback(&path) {
            Err(StoreError::Truncated { .. }) => {}
            other => panic!("expected the primary's typed error, got {other:?}"),
        }
    }

    #[test]
    fn retry_rides_out_transient_failures_with_jittered_backoff() {
        let delays: Arc<Mutex<Vec<Duration>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&delays);
        let policy = RetryPolicy::new(3, Duration::from_millis(10), Duration::from_secs(1))
            .with_sleeper(move |d| sink.lock().unwrap().push(d));
        let attempts = AtomicU64::new(0);
        let out = policy.run("test.site", |_| {
            if attempts.fetch_add(1, Ordering::Relaxed) < 2 {
                Err(StoreError::Io(std::io::Error::other("transient")))
            } else {
                Ok(42)
            }
        });
        assert_eq!(out.unwrap(), 42);
        assert_eq!(attempts.load(Ordering::Relaxed), 3);
        let delays = delays.lock().unwrap();
        assert_eq!(delays.len(), 2, "two failures, two backoffs");
        assert!(delays.iter().all(|d| *d >= Duration::from_millis(10)));
        assert!(delays.iter().all(|d| *d <= Duration::from_secs(1)));
    }

    #[test]
    fn retry_is_deterministic_per_seed_and_exhausts_typed() {
        let record = |seed: u64| {
            let delays: Arc<Mutex<Vec<Duration>>> = Arc::new(Mutex::new(Vec::new()));
            let sink = Arc::clone(&delays);
            let policy = RetryPolicy::new(4, Duration::from_millis(5), Duration::from_millis(500))
                .with_seed(seed)
                .with_sleeper(move |d| sink.lock().unwrap().push(d));
            let out: Result<(), _> = policy.run("test.site", |_| {
                Err(StoreError::Io(std::io::Error::other("always down")))
            });
            assert!(matches!(out, Err(StoreError::Io(_))));
            let v = delays.lock().unwrap().clone();
            v
        };
        assert_eq!(record(7), record(7), "same seed, same schedule");
        assert_ne!(record(7), record(8), "different seed, different jitter");
    }

    #[test]
    fn non_transient_errors_never_retry() {
        let calls = AtomicU64::new(0);
        let policy = RetryPolicy::default().with_sleeper(|_| panic!("must not sleep"));
        let out: Result<(), _> = policy.run("test.site", |_| {
            calls.fetch_add(1, Ordering::Relaxed);
            Err(StoreError::BadMagic { found: *b"XXXX" })
        });
        assert!(matches!(out, Err(StoreError::BadMagic { .. })));
        assert_eq!(calls.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn injected_rename_fault_fails_plain_write_but_rotation_survives_resume() {
        let d = dir("inject");
        let path = d.join("run.sper");
        store_with(1).write_rotated(&path).unwrap();
        // Kill the write between temp-write and rename: the injected
        // fault fires before the first rename of the rotation.
        let _armed = sper_obs::fault::arm_scoped("store.rename=1*err(io)").unwrap();
        let err = store_with(2).write_rotated(&path).unwrap_err();
        assert!(matches!(err, StoreError::Io(_)));
        // The uncommitted tmp is left behind…
        let tmp = tmp_path(&path);
        assert!(tmp.exists(), "failed commit leaves its tmp behind");
        // …the destination is untouched and still resumable…
        assert_eq!(first_payload_byte(&path), 1);
        // …and that open purged the stale tmp.
        assert!(!tmp.exists(), "open purges the stale tmp");
        let (_, fell_back) = read_store_with_fallback(&path).unwrap();
        assert!(!fell_back);
    }
}
