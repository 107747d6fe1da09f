//! The sectioned file container: magic, format version, and a sequence of
//! independently checksummed sections.
//!
//! ```text
//! file    = header section*
//! header  = "SPER" version:u32 section_count:u32          (12 bytes)
//! section = tag:[u8;4] payload_len:u64 crc32:u32 payload  (16-byte prologue)
//! ```
//!
//! All integers little-endian. Each section's CRC-32 covers its payload
//! only, so one flipped bit is attributed to the section it corrupts.
//! Readers gate on the supported version range
//! ([`MIN_FORMAT_VERSION`]`..=`[`FORMAT_VERSION`]): the format evolves by
//! bumping [`FORMAT_VERSION`] and teaching the new reader to migrate old
//! layouts explicitly — silent best-effort parsing of unknown versions is
//! how corruption stops being detectable. Version 2 added the `TOMB`
//! tombstone section to checkpoints; version-1 files (no mutations
//! recorded) still load.

use crate::crc32::crc32;
use crate::error::StoreError;

/// [`crc32`] with its wall time recorded into the `store.crc_us`
/// histogram when metrics are enabled — zero extra work otherwise.
fn crc32_timed(payload: &[u8]) -> u32 {
    if sper_obs::metrics::enabled() {
        let t = std::time::Instant::now();
        let c = crc32(payload);
        sper_obs::observe!("store.crc_us", t.elapsed().as_secs_f64() * 1e6);
        c
    } else {
        crc32(payload)
    }
}

/// The four-byte file magic.
pub const MAGIC: [u8; 4] = *b"SPER";

/// The store format version this build writes.
pub const FORMAT_VERSION: u32 = 2;

/// The oldest format version this build still reads. Version-1 files
/// simply lack the `TOMB` checkpoint section (they predate the mutation
/// model); every other layout is unchanged.
pub const MIN_FORMAT_VERSION: u32 = 1;

/// A section tag: four ASCII bytes naming the payload's codec.
pub type Tag = [u8; 4];

/// Renders a tag for error messages (`INTR`, or hex for non-ASCII).
pub(crate) fn tag_name(tag: Tag) -> String {
    if tag.iter().all(|b| b.is_ascii_graphic()) {
        String::from_utf8_lossy(&tag).into_owned()
    } else {
        format!("{tag:02x?}")
    }
}

/// An in-memory store: an ordered list of `(tag, payload)` sections.
///
/// This is the transport layer only — it knows nothing about substrates.
/// The codecs in [`crate::substrates`] fill and read sections; [`crate::Snapshot`]
/// and [`crate::SessionCheckpoint`] define which sections make up which
/// on-disk structure.
#[derive(Debug, Default)]
pub struct Store {
    sections: Vec<(Tag, Vec<u8>)>,
}

impl Store {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a section. Order is preserved; duplicate tags are allowed
    /// by the container (readers take the first).
    pub fn push(&mut self, tag: Tag, payload: Vec<u8>) {
        self.sections.push((tag, payload));
    }

    /// The payload of the first section with `tag`, if present.
    pub fn get(&self, tag: Tag) -> Option<&[u8]> {
        self.sections
            .iter()
            .find(|(t, _)| *t == tag)
            .map(|(_, p)| p.as_slice())
    }

    /// Like [`get`](Self::get) but a missing section is a typed error.
    pub(crate) fn require(&self, tag: Tag, name: &'static str) -> Result<&[u8], StoreError> {
        self.get(tag)
            .ok_or(StoreError::MissingSection { section: name })
    }

    /// The section tags, in file order.
    pub fn tags(&self) -> impl Iterator<Item = Tag> + '_ {
        self.sections.iter().map(|(t, _)| *t)
    }

    /// The sections as owned `(tag, payload)` pairs, in file order.
    pub(crate) fn sections_cloned(&self) -> Vec<(Tag, Vec<u8>)> {
        self.sections.clone()
    }

    /// The size of the serialized store: the 12-byte header plus each
    /// section's 16-byte prologue and payload.
    pub(crate) fn byte_len(&self) -> usize {
        12 + self
            .sections
            .iter()
            .map(|(_, p)| 16 + p.len())
            .sum::<usize>()
    }

    /// The framing of the byte layout: the 12-byte header, then each
    /// section's 16-byte prologue (tag, payload length, payload CRC-32)
    /// beside its payload. A section's CRC is computed when the iterator
    /// reaches it. [`to_bytes`](Self::to_bytes) concatenates the pieces
    /// and `write_tmp` streams them, so memory and disk share one layout.
    fn frame(&self) -> ([u8; 12], impl Iterator<Item = ([u8; 16], &[u8])> + '_) {
        let mut header = [0u8; 12];
        header[..4].copy_from_slice(&MAGIC);
        header[4..8].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
        header[8..].copy_from_slice(&(self.sections.len() as u32).to_le_bytes());
        let sections = self.sections.iter().map(|(tag, payload)| {
            let mut prologue = [0u8; 16];
            prologue[..4].copy_from_slice(tag);
            prologue[4..12].copy_from_slice(&(payload.len() as u64).to_le_bytes());
            prologue[12..].copy_from_slice(&crc32_timed(payload).to_le_bytes());
            (prologue, payload.as_slice())
        });
        (header, sections)
    }

    /// Serializes the store to its byte layout.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.byte_len());
        let (header, sections) = self.frame();
        out.extend_from_slice(&header);
        for (prologue, payload) in sections {
            out.extend_from_slice(&prologue);
            out.extend_from_slice(payload);
        }
        out
    }

    /// Parses a store from bytes, verifying magic, version and every
    /// section checksum.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, StoreError> {
        // Checked arithmetic throughout: a crafted length near
        // `u64::MAX` must be a typed error, never an overflow (wrap in
        // release, panic in debug).
        let need = |at: usize, n: usize| -> Result<(), StoreError> {
            match at.checked_add(n) {
                Some(end) if end <= bytes.len() => Ok(()),
                _ => Err(StoreError::Truncated {
                    expected: n,
                    available: bytes.len().saturating_sub(at),
                }),
            }
        };
        need(0, 12)?;
        let magic: [u8; 4] = bytes[0..4].try_into().expect("4 bytes");
        if magic != MAGIC {
            return Err(StoreError::BadMagic { found: magic });
        }
        let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
        if !(MIN_FORMAT_VERSION..=FORMAT_VERSION).contains(&version) {
            return Err(StoreError::UnsupportedVersion {
                found: version,
                supported: FORMAT_VERSION,
            });
        }
        let count = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes")) as usize;
        let mut at = 12;
        let mut sections = Vec::with_capacity(count.min(64));
        for _ in 0..count {
            need(at, 16)?;
            let tag: Tag = bytes[at..at + 4].try_into().expect("4 bytes");
            let len = u64::from_le_bytes(bytes[at + 4..at + 12].try_into().expect("8 bytes"));
            let recorded = u32::from_le_bytes(bytes[at + 12..at + 16].try_into().expect("4 bytes"));
            let len = usize::try_from(len).map_err(|_| StoreError::Truncated {
                expected: usize::MAX,
                available: bytes.len() - at - 16,
            })?;
            at += 16;
            need(at, len)?;
            let payload = &bytes[at..at + len];
            let computed = crc32_timed(payload);
            if computed != recorded {
                return Err(StoreError::ChecksumMismatch {
                    section: tag_name(tag),
                    recorded,
                    computed,
                });
            }
            sections.push((tag, payload.to_vec()));
            at += len;
        }
        if at != bytes.len() {
            return Err(StoreError::Corrupt {
                section: "container".into(),
                detail: format!("{} trailing bytes after last section", bytes.len() - at),
            });
        }
        Ok(Self { sections })
    }

    /// Writes the store to a file. The write goes through a sibling
    /// temporary file that is fsynced before the rename, and the
    /// directory is fsynced after it. A crash mid-write therefore never
    /// leaves a half-written store at `path`: until the rename the
    /// previous file is intact, and once this returns `Ok` the new one
    /// survives a power loss.
    ///
    /// Three failpoints cover the syscall boundaries
    /// (`store.write.section`, `store.fsync`, `store.rename` — see
    /// [`sper_obs::fault`]); an injected or real failure before the
    /// rename can leave a torn `.tmp` sibling, which the next
    /// [`read_from_path`](Self::read_from_path) purges.
    pub fn write_to_path(&self, path: &std::path::Path) -> Result<(), StoreError> {
        let tmp = tmp_path(path);
        self.write_tmp(&tmp)?;
        sper_obs::fault::failpoint("store.rename")?;
        std::fs::rename(&tmp, path)?;
        sync_parent_dir(path)
    }

    /// Writes the store to `tmp` (create, per-section writes, fsync)
    /// without the commit rename — shared by the plain and
    /// last-good-rotating write paths. Each section's prologue and
    /// payload go to the file as soon as its CRC is known; the file is
    /// never assembled in memory.
    pub(crate) fn write_tmp(&self, tmp: &std::path::Path) -> Result<(), StoreError> {
        use std::io::Write as _;
        let mut span = sper_obs::span!("store.write", sections = self.sections.len());
        span.record("bytes", self.byte_len());
        let mut file = std::fs::File::create(tmp)?;
        let (header, sections) = self.frame();
        file.write_all(&header)?;
        // Each section is its own syscall-shaped chunk so the
        // `store.write.section` failpoint can tear the file at a
        // realistic boundary (`partial(n)`: the first n bytes of the
        // section's prologue and payload reach the disk, then the write
        // fails).
        for (prologue, payload) in sections {
            match sper_obs::fault::evaluate("store.write.section") {
                None => {}
                Some(sper_obs::InjectedFault::Err(e)) => return Err(e.into()),
                Some(sper_obs::InjectedFault::Partial(n)) => {
                    let head = n.min(prologue.len());
                    file.write_all(&prologue[..head])?;
                    file.write_all(&payload[..(n - head).min(payload.len())])?;
                    let _ = file.sync_all();
                    return Err(std::io::Error::other(
                        "injected partial write at store.write.section",
                    )
                    .into());
                }
            }
            file.write_all(&prologue)?;
            file.write_all(payload)?;
        }
        sper_obs::fault::failpoint("store.fsync")?;
        file.sync_all()?;
        Ok(())
    }

    /// Reads and parses a store file. Opening a store directory is when
    /// garbage from killed writers gets collected: a stale `.tmp`
    /// sibling (a torn write that never reached its commit rename) is
    /// deleted with an Info event before the read.
    pub fn read_from_path(path: &std::path::Path) -> Result<Self, StoreError> {
        let _span = sper_obs::span!("store.read");
        purge_stale_tmp(path);
        sper_obs::fault::failpoint("store.read")?;
        let bytes = std::fs::read(path)?;
        Self::from_bytes(&bytes)
    }
}

/// The sibling temporary path a write to `path` goes through. Derived by
/// appending (not replacing an extension): sibling outputs like `run.v1`
/// and `run.v2` must not collide on one temp path.
pub fn tmp_path(path: &std::path::Path) -> std::path::PathBuf {
    let mut tmp_name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_else(|| "store".into());
    tmp_name.push(".tmp");
    path.with_file_name(tmp_name)
}

/// Fsyncs the directory holding `path`, so that a rename into it is
/// durable: without it, a power loss can undo a rename that has already
/// returned. A failure is a [`StoreError::Io`], which write retries
/// treat as transient.
pub(crate) fn sync_parent_dir(path: &std::path::Path) -> Result<(), StoreError> {
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => std::path::Path::new("."),
    };
    // Only Unix can open a directory as a file to fsync it.
    #[cfg(unix)]
    std::fs::File::open(dir)?.sync_all()?;
    #[cfg(not(unix))]
    let _ = dir;
    Ok(())
}

/// Deletes a stale `.tmp` sibling left by a killed writer, if present.
/// Returns whether one was purged.
pub fn purge_stale_tmp(path: &std::path::Path) -> bool {
    let tmp = tmp_path(path);
    if !tmp.exists() {
        return false;
    }
    match std::fs::remove_file(&tmp) {
        Ok(()) => {
            sper_obs::event!(
                sper_obs::Level::Info,
                "store.purged_tmp",
                path = tmp.display().to_string()
            );
            sper_obs::count!("store.purged_tmp");
            true
        }
        Err(_) => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_store_round_trips() {
        let bytes = Store::new().to_bytes();
        assert_eq!(bytes.len(), 12);
        let back = Store::from_bytes(&bytes).unwrap();
        assert_eq!(back.tags().count(), 0);
    }

    #[test]
    fn sections_round_trip_in_order() {
        let mut s = Store::new();
        s.push(*b"AAAA", vec![1, 2, 3]);
        s.push(*b"BBBB", vec![]);
        s.push(*b"AAAA", vec![9]);
        let back = Store::from_bytes(&s.to_bytes()).unwrap();
        assert_eq!(
            back.tags().collect::<Vec<_>>(),
            vec![*b"AAAA", *b"BBBB", *b"AAAA"]
        );
        assert_eq!(back.get(*b"AAAA"), Some(&[1u8, 2, 3][..]), "first wins");
        assert_eq!(back.get(*b"BBBB"), Some(&[][..]));
        assert_eq!(back.get(*b"CCCC"), None);
    }

    #[test]
    fn bad_magic() {
        let mut bytes = Store::new().to_bytes();
        bytes[0] = b'X';
        assert!(matches!(
            Store::from_bytes(&bytes),
            Err(StoreError::BadMagic { .. })
        ));
    }

    #[test]
    fn wrong_version() {
        let mut bytes = Store::new().to_bytes();
        bytes[4] = 99;
        match Store::from_bytes(&bytes) {
            Err(StoreError::UnsupportedVersion { found, supported }) => {
                assert_eq!(found, 99);
                assert_eq!(supported, FORMAT_VERSION);
            }
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
    }

    #[test]
    fn previous_format_version_still_parses() {
        let mut s = Store::new();
        s.push(*b"DATA", vec![1, 2, 3]);
        let mut bytes = s.to_bytes();
        bytes[4..8].copy_from_slice(&MIN_FORMAT_VERSION.to_le_bytes());
        let back = Store::from_bytes(&bytes).unwrap();
        assert_eq!(back.get(*b"DATA"), Some(&[1u8, 2, 3][..]));
        // …but version 0 predates the format and is rejected.
        bytes[4..8].copy_from_slice(&0u32.to_le_bytes());
        assert!(matches!(
            Store::from_bytes(&bytes),
            Err(StoreError::UnsupportedVersion { found: 0, .. })
        ));
    }

    #[test]
    fn every_truncation_point_is_typed() {
        let mut s = Store::new();
        s.push(*b"DATA", vec![5; 32]);
        let bytes = s.to_bytes();
        for cut in 0..bytes.len() {
            let err = Store::from_bytes(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, StoreError::Truncated { .. }),
                "cut at {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn crafted_huge_section_length_is_typed_not_a_panic() {
        // Regression: a section header declaring a payload length near
        // `u64::MAX` used to overflow the bounds arithmetic and panic on
        // the payload slice; it must be a typed Truncated error.
        for len in [u64::MAX, u64::MAX - 15, (usize::MAX as u64), 1 << 60] {
            let mut bytes = Vec::new();
            bytes.extend_from_slice(&MAGIC);
            bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
            bytes.extend_from_slice(&1u32.to_le_bytes());
            bytes.extend_from_slice(b"DATA");
            bytes.extend_from_slice(&len.to_le_bytes());
            bytes.extend_from_slice(&0u32.to_le_bytes());
            bytes.extend_from_slice(&[0u8; 8]); // a few payload bytes
            assert!(
                matches!(Store::from_bytes(&bytes), Err(StoreError::Truncated { .. })),
                "len {len:#x}"
            );
        }
    }

    #[cfg(unix)]
    #[test]
    fn parent_dir_sync_covers_bare_names_and_types_failures() {
        // A bare file name lives in the working directory.
        sync_parent_dir(std::path::Path::new("run.sper")).unwrap();
        // A directory that cannot be opened is an Io error, which write
        // retries treat as transient.
        let missing = std::env::temp_dir()
            .join(format!("sper-no-such-dir-{}", std::process::id()))
            .join("run.sper");
        assert!(matches!(sync_parent_dir(&missing), Err(StoreError::Io(_))));
    }

    #[test]
    fn flipped_payload_byte_is_checksum_mismatch() {
        let mut s = Store::new();
        s.push(*b"DATA", (0..64).collect());
        let clean = s.to_bytes();
        let payload_start = 12 + 16;
        for i in payload_start..clean.len() {
            let mut bytes = clean.clone();
            bytes[i] ^= 0x40;
            assert!(
                matches!(
                    Store::from_bytes(&bytes),
                    Err(StoreError::ChecksumMismatch { .. })
                ),
                "flip at byte {i} undetected"
            );
        }
    }
}
