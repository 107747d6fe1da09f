//! Salvage: recover what a corrupted `.sper` file still proves intact.
//!
//! The strict reader ([`Store::from_bytes`]) rejects a file on the first
//! defect — right for routine loads, wrong when the file in hand is the
//! only copy. Salvage walks the same sectioned layout but keeps going:
//! every section whose CRC-32 still validates is recovered; everything
//! else lands in a typed [`SalvageReport`] naming what was lost and why.
//!
//! Semantics worth being honest about (also in DESIGN.md):
//!
//! * Damage inside a section's *payload* costs exactly that section —
//!   the per-section CRC attributes it, and the declared length still
//!   frames the next section.
//! * Damage to a section's *length field* costs everything after it:
//!   the format has no resync markers, so once framing is wrong, later
//!   prologues are noise. The report says how many sections became
//!   unreachable.
//! * A header defect (magic, version) is unrecoverable: without a
//!   trusted header there is no layout to walk, and salvage returns the
//!   same typed error the strict reader would.

use crate::container::{tag_name, Store, Tag, FORMAT_VERSION, MAGIC, MIN_FORMAT_VERSION};
use crate::crc32::crc32;
use crate::error::StoreError;
use crate::snapshot::Snapshot;
use crate::substrates::{
    decode_blocks, decode_graph, decode_interner, decode_neighbor_list, decode_profile_index,
    decode_profiles, TAG_BLOCKS, TAG_GRAPH, TAG_INTERNER, TAG_NEIGHBOR_LIST, TAG_PROFILES,
    TAG_PROFILE_INDEX,
};
use sper_text::TokenInterner;
use std::sync::Arc;

/// One section salvage could not bring back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LostSection {
    /// The section's tag as text (`INTR`, …), or `<tail>` for the
    /// unreachable remainder after a framing loss.
    pub section: String,
    /// Why it was lost.
    pub reason: String,
}

/// What [`Store::salvage`] / [`Snapshot::salvage`] recovered and lost.
#[derive(Debug, Clone, Default)]
pub struct SalvageReport {
    /// Sections the header declared.
    pub declared: usize,
    /// Tags recovered intact (CRC-validated, and — for
    /// [`Snapshot::salvage`] — decoded), in file order.
    pub recovered: Vec<String>,
    /// Sections lost, with reasons, in file order.
    pub lost: Vec<LostSection>,
    /// Bytes past the last declared section (appended garbage).
    pub trailing_bytes: usize,
}

impl SalvageReport {
    /// True when nothing was lost — the file was intact after all.
    pub fn is_clean(&self) -> bool {
        self.lost.is_empty() && self.trailing_bytes == 0
    }

    /// A one-line human summary (`recovered 3/5 sections, lost INTR
    /// (checksum mismatch …), 12 trailing bytes`).
    pub fn summary(&self) -> String {
        let mut out = format!(
            "recovered {}/{} sections",
            self.recovered.len(),
            self.declared
        );
        for lost in &self.lost {
            out.push_str(&format!(", lost {} ({})", lost.section, lost.reason));
        }
        if self.trailing_bytes > 0 {
            out.push_str(&format!(", {} trailing bytes", self.trailing_bytes));
        }
        out
    }
}

impl Store {
    /// Walks a possibly-corrupted store image, recovering every section
    /// whose CRC still validates.
    ///
    /// # Errors
    ///
    /// Only header defects are fatal ([`StoreError::Truncated`] under 12
    /// bytes, [`StoreError::BadMagic`], [`StoreError::UnsupportedVersion`]):
    /// with no trusted header there is no layout to walk.
    pub fn salvage(bytes: &[u8]) -> Result<(Store, SalvageReport), StoreError> {
        if bytes.len() < 12 {
            return Err(StoreError::Truncated {
                expected: 12,
                available: bytes.len(),
            });
        }
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
        let declared = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes")) as usize;
        let mut report = SalvageReport {
            declared,
            ..SalvageReport::default()
        };
        let mut store = Store::new();
        let mut at = 12usize;
        for i in 0..declared {
            // A framing loss (truncated prologue, or a length field
            // pointing past EOF) ends the walk: without resync markers
            // every later byte is unframed noise.
            let unreachable_tail = |report: &mut SalvageReport, reason: String| {
                report.lost.push(LostSection {
                    section: format!("<section {i}>"),
                    reason,
                });
                let after = declared - i - 1;
                if after > 0 {
                    report.lost.push(LostSection {
                        section: "<tail>".into(),
                        reason: format!("{after} later sections unreachable after framing loss"),
                    });
                }
            };
            if bytes.len() - at < 16 {
                unreachable_tail(
                    &mut report,
                    format!("prologue truncated ({} of 16 bytes)", bytes.len() - at),
                );
                return Ok((store, report));
            }
            let tag: crate::container::Tag = bytes[at..at + 4].try_into().expect("4 bytes");
            let len = u64::from_le_bytes(bytes[at + 4..at + 12].try_into().expect("8 bytes"));
            let recorded = u32::from_le_bytes(bytes[at + 12..at + 16].try_into().expect("4 bytes"));
            let name = tag_name(tag);
            let payload_at = at + 16;
            let in_bounds = usize::try_from(len)
                .ok()
                .and_then(|len| payload_at.checked_add(len))
                .filter(|end| *end <= bytes.len());
            let Some(end) = in_bounds else {
                unreachable_tail(
                    &mut report,
                    format!(
                        "length field of {name} declares {len} bytes, {} available",
                        bytes.len() - payload_at
                    ),
                );
                return Ok((store, report));
            };
            let payload = &bytes[payload_at..end];
            let computed = crc32(payload);
            if computed == recorded {
                report.recovered.push(name);
                store.push(tag, payload.to_vec());
            } else {
                report.lost.push(LostSection {
                    section: name,
                    reason: format!(
                        "checksum mismatch (recorded {recorded:08x}, computed {computed:08x})"
                    ),
                });
            }
            at = end;
        }
        report.trailing_bytes = bytes.len() - at;
        Ok((store, report))
    }
}

impl Snapshot {
    /// Salvages a snapshot from a possibly-corrupted store image:
    /// container-level salvage first, then each recovered section is
    /// decoded independently — a section that passes its CRC but decodes
    /// to garbage (a defect older than the checksum) moves to the lost
    /// list instead of failing the whole load.
    ///
    /// When the interner section itself is lost, every keyed structure
    /// that resolves through it (blocks, neighbor list) is lost too, and
    /// the snapshot is rebuilt around an empty interner.
    ///
    /// # Errors
    ///
    /// Header defects only, exactly as [`Store::salvage`].
    pub fn salvage(bytes: &[u8]) -> Result<(Snapshot, SalvageReport), StoreError> {
        let (store, mut report) = Store::salvage(bytes)?;
        // Move a recovered section to lost, under its tag.
        let lose = |report: &mut SalvageReport, tag: Tag, reason: String| {
            let name = tag_name(tag);
            report.recovered.retain(|r| *r != name);
            report.lost.push(LostSection {
                section: name,
                reason,
            });
        };
        // Demote a recovered-but-undecodable section to lost.
        let demote = |report: &mut SalvageReport, tag: Tag, err: &StoreError| {
            lose(report, tag, format!("decoded to garbage: {err}"));
        };
        let interner = match store.get(TAG_INTERNER) {
            None => None,
            Some(payload) => match decode_interner(payload) {
                Ok(interner) => Some(Arc::new(interner)),
                Err(e) => {
                    demote(&mut report, TAG_INTERNER, &e);
                    None
                }
            },
        };
        let keyed = |report: &mut SalvageReport, tag: Tag| -> Option<Vec<u8>> {
            let payload = store.get(tag)?.to_vec();
            if interner.is_none() {
                let reason = "requires the lost interner to resolve its keys".into();
                lose(report, tag, reason);
                return None;
            }
            Some(payload)
        };
        let blocks_payload = keyed(&mut report, TAG_BLOCKS);
        let nl_payload = keyed(&mut report, TAG_NEIGHBOR_LIST);
        let interner_arc = interner.clone().unwrap_or_else(TokenInterner::shared);
        let mut snapshot = Snapshot::new(Arc::clone(&interner_arc));
        if let Some(payload) = store.get(TAG_PROFILES) {
            match decode_profiles(payload) {
                Ok(p) => snapshot.profiles = Some(p),
                Err(e) => demote(&mut report, TAG_PROFILES, &e),
            }
        }
        if let Some(payload) = blocks_payload {
            match decode_blocks(&payload, Arc::clone(&interner_arc)) {
                Ok(b) => snapshot.blocks = Some(b),
                Err(e) => demote(&mut report, TAG_BLOCKS, &e),
            }
        }
        if let Some(payload) = store.get(TAG_PROFILE_INDEX) {
            match decode_profile_index(payload) {
                Ok(i) => snapshot.profile_index = Some(i),
                Err(e) => demote(&mut report, TAG_PROFILE_INDEX, &e),
            }
        }
        if let Some(payload) = store.get(TAG_GRAPH) {
            match decode_graph(payload) {
                Ok(g) => snapshot.graph = Some(g),
                Err(e) => demote(&mut report, TAG_GRAPH, &e),
            }
        }
        if let Some(payload) = nl_payload {
            match decode_neighbor_list(&payload, Arc::clone(&interner_arc)) {
                Ok(nl) => snapshot.neighbor_list = Some(nl),
                Err(e) => demote(&mut report, TAG_NEIGHBOR_LIST, &e),
            }
        }
        Ok((snapshot, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn three_section_bytes() -> Vec<u8> {
        let mut s = Store::new();
        s.push(*b"AAAA", vec![1; 32]);
        s.push(*b"BBBB", vec![2; 32]);
        s.push(*b"CCCC", vec![3; 32]);
        s.to_bytes()
    }

    #[test]
    fn intact_file_salvages_clean() {
        let (store, report) = Store::salvage(&three_section_bytes()).unwrap();
        assert!(report.is_clean(), "{}", report.summary());
        assert_eq!(report.recovered, vec!["AAAA", "BBBB", "CCCC"]);
        assert_eq!(store.tags().count(), 3);
    }

    #[test]
    fn payload_corruption_costs_exactly_that_section() {
        let mut bytes = three_section_bytes();
        // Flip a byte inside BBBB's payload: 12 header + (16+32) AAAA +
        // 16 prologue puts BBBB's payload at 76.
        bytes[76 + 5] ^= 0xFF;
        let (store, report) = Store::salvage(&bytes).unwrap();
        assert_eq!(report.recovered, vec!["AAAA", "CCCC"]);
        assert_eq!(report.lost.len(), 1);
        assert_eq!(report.lost[0].section, "BBBB");
        assert!(report.lost[0].reason.contains("checksum"), "{report:?}");
        assert!(store.get(*b"BBBB").is_none());
        assert_eq!(store.get(*b"CCCC"), Some(&[3u8; 32][..]));
    }

    #[test]
    fn length_field_corruption_loses_the_tail() {
        let mut bytes = three_section_bytes();
        // Blow up BBBB's length field (prologue at 60, len at 64).
        bytes[64..72].copy_from_slice(&u64::MAX.to_le_bytes());
        let (store, report) = Store::salvage(&bytes).unwrap();
        assert_eq!(report.recovered, vec!["AAAA"]);
        assert_eq!(report.lost.len(), 2, "{report:?}");
        assert!(report.lost[0].reason.contains("length field"), "{report:?}");
        assert!(report.lost[1].section == "<tail>", "{report:?}");
        assert_eq!(store.tags().count(), 1);
    }

    #[test]
    fn truncation_recovers_the_prefix() {
        let bytes = three_section_bytes();
        // Cut mid-CCCC-payload: AAAA and BBBB survive.
        let (store, report) = Store::salvage(&bytes[..bytes.len() - 10]).unwrap();
        assert_eq!(report.recovered, vec!["AAAA", "BBBB"]);
        assert!(!report.is_clean());
        assert_eq!(store.tags().count(), 2);
    }

    #[test]
    fn header_defects_stay_typed_errors() {
        let mut bad_magic = three_section_bytes();
        bad_magic[0] = b'X';
        assert!(matches!(
            Store::salvage(&bad_magic),
            Err(StoreError::BadMagic { .. })
        ));
        let mut bad_version = three_section_bytes();
        bad_version[4..8].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            Store::salvage(&bad_version),
            Err(StoreError::UnsupportedVersion { .. })
        ));
        assert!(matches!(
            Store::salvage(&bad_version[..5]),
            Err(StoreError::Truncated { .. })
        ));
    }

    #[test]
    fn trailing_garbage_is_reported_not_fatal() {
        let mut bytes = three_section_bytes();
        bytes.extend_from_slice(b"junkjunk");
        let (_, report) = Store::salvage(&bytes).unwrap();
        assert_eq!(report.trailing_bytes, 8);
        assert_eq!(report.recovered.len(), 3);
    }

    /// A snapshot store holding the interner, profiles, blocks and a
    /// neighbor list.
    fn keyed_snapshot_store() -> Store {
        let mut b = sper_model::ProfileCollectionBuilder::dirty();
        for v in ["carl white", "karl white", "emma white tailor"] {
            b.add_profile([("text", v)]);
        }
        let coll = b.build();
        let blocks = sper_blocking::TokenBlocking.build(&coll);
        let mut snapshot = Snapshot::new(Arc::clone(blocks.interner()));
        snapshot.neighbor_list = Some(sper_blocking::NeighborList::build(&coll, 7));
        snapshot.profiles = Some(coll);
        snapshot.blocks = Some(blocks);
        snapshot.to_store().unwrap()
    }

    /// Every name the report gives is a tag `store` holds, each once, and
    /// the report accounts for every declared section.
    fn assert_names_real_tags(report: &SalvageReport, store: &Store) {
        let mut names: Vec<&str> = report.recovered.iter().map(String::as_str).collect();
        names.extend(report.lost.iter().map(|l| l.section.as_str()));
        names.sort_unstable();
        let mut tags: Vec<String> = store.tags().map(tag_name).collect();
        tags.sort_unstable();
        assert_eq!(names, tags, "{}", report.summary());
        assert_eq!(report.recovered.len() + report.lost.len(), report.declared);
    }

    #[test]
    fn lost_interner_demotes_the_keyed_sections_under_their_tags() {
        let store = keyed_snapshot_store();
        let mut bytes = store.to_bytes();
        // INTR is the first section: its payload starts after the 12-byte
        // header and its 16-byte prologue.
        bytes[28] ^= 0xFF;
        let (snapshot, report) = Snapshot::salvage(&bytes).unwrap();
        assert_names_real_tags(&report, &store);
        assert_eq!(report.recovered, vec![tag_name(TAG_PROFILES)]);
        let lost: Vec<&str> = report.lost.iter().map(|l| l.section.as_str()).collect();
        assert_eq!(lost, ["INTR", "BLKC", "NLST"], "{}", report.summary());
        assert!(snapshot.profiles.is_some());
        assert!(snapshot.blocks.is_none() && snapshot.neighbor_list.is_none());
    }

    #[test]
    fn undecodable_keyed_sections_are_lost_under_their_tags() {
        let clean = keyed_snapshot_store();
        let mut store = Store::new();
        for tag in clean.tags() {
            // CRC-valid payloads that no decoder accepts.
            let payload = if tag == TAG_BLOCKS || tag == TAG_NEIGHBOR_LIST {
                vec![1, 2, 3]
            } else {
                clean.get(tag).unwrap().to_vec()
            };
            store.push(tag, payload);
        }
        let (snapshot, report) = Snapshot::salvage(&store.to_bytes()).unwrap();
        assert_names_real_tags(&report, &store);
        assert_eq!(report.recovered, vec!["INTR", "PROF"]);
        let lost: Vec<&str> = report.lost.iter().map(|l| l.section.as_str()).collect();
        assert_eq!(lost, ["BLKC", "NLST"], "{}", report.summary());
        assert!(report
            .lost
            .iter()
            .all(|l| l.reason.starts_with("decoded to garbage")));
        assert!(snapshot.blocks.is_none() && snapshot.neighbor_list.is_none());
    }
}
