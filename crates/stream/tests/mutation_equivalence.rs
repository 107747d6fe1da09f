//! The mutation-model test wall — the headline invariant of the
//! update/delete subsystem:
//!
//! > a session that ingests profiles and later retracts some of them
//! > emits, bit for bit, what a session that **never saw** the retracted
//! > profiles emits — both while the tombstones are only lazily filtered
//! > and after a compaction physically drops them — and an update is
//! > indistinguishable from a delete followed by a re-ingest.
//!
//! "Bit for bit" is modulo the only thing that *must* differ: profile
//! ids. Ids are dense and never recycled, so retraction leaves holes; the
//! comparison maps every surviving id through the monotone bijection
//! (k-th survivor ↔ k-th profile of the never-saw-them session) and then
//! demands identical `(pair, weight)` sequences, weights compared by bit
//! pattern. Checked for all six streamable methods, both ER kinds, 1–8
//! worker threads, budgeted and unbudgeted drains, and — via proptest —
//! arbitrary collections and mutation schedules.

use proptest::prelude::*;
use sper_core::ProgressiveMethod;
use sper_model::{Attribute, ErKind, Pair, ProfileCollectionBuilder, ProfileId};
use sper_stream::{CompactionPolicy, ProgressiveSession, SessionConfig};
use std::collections::HashMap;

const STREAMABLE: [ProgressiveMethod; 6] = [
    ProgressiveMethod::SaPsn,
    ProgressiveMethod::SaPsab,
    ProgressiveMethod::LsPsn,
    ProgressiveMethod::GsPsn,
    ProgressiveMethod::Pbs,
    ProgressiveMethod::Pps,
];

/// An emission stream with bit-exact weights.
type Stream = Vec<(Pair, u64)>;

fn rows(n: usize) -> Vec<Vec<Attribute>> {
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

/// Drains a session to exhaustion in epochs of `budget` new emissions,
/// returning the concatenated stream.
fn drain(session: &mut ProgressiveSession, budget: Option<u64>) -> Stream {
    let mut out = Stream::new();
    loop {
        let outcome = session.emit_epoch(budget);
        if outcome.report.new_emissions == 0 {
            return out;
        }
        out.extend(
            outcome
                .comparisons
                .iter()
                .map(|c| (c.pair, c.weight.to_bits())),
        );
    }
}

/// The monotone survivor bijection plus a fresh session that ingested
/// only the survivors, in the same relative order. For Clean-clean
/// collections the surviving `P1` rows become the fresh session's base
/// and the surviving `P2` rows are streamed — amends always re-ingest
/// into `P2`, so sources line up by construction.
fn fresh_twin(
    mutated: &ProgressiveSession,
    config: SessionConfig,
) -> (ProgressiveSession, HashMap<ProfileId, ProfileId>) {
    let coll = mutated.profiles();
    let survives = |i: usize| !mutated.is_retracted(ProfileId(i as u32));
    let mut map: HashMap<ProfileId, ProfileId> = HashMap::new();
    match coll.kind() {
        ErKind::Dirty => {
            let mut survivors = Vec::new();
            for (i, p) in coll.iter().enumerate() {
                if survives(i) {
                    map.insert(ProfileId(i as u32), ProfileId(survivors.len() as u32));
                    survivors.push(p.attributes.clone());
                }
            }
            let mut fresh =
                ProgressiveSession::new(ProfileCollectionBuilder::dirty().build(), config);
            fresh.ingest_batch(survivors);
            (fresh, map)
        }
        ErKind::CleanClean => {
            let n1 = coll.len_first();
            let mut base = ProfileCollectionBuilder::clean_clean();
            let mut fresh_n1 = 0u32;
            for (i, p) in coll.iter().enumerate().take(n1) {
                if survives(i) {
                    map.insert(ProfileId(i as u32), ProfileId(fresh_n1));
                    fresh_n1 += 1;
                    base.add_attributes(p.attributes.clone());
                }
            }
            base.start_second_source();
            let mut streamed = Vec::new();
            for (i, p) in coll.iter().enumerate().skip(n1) {
                if survives(i) {
                    map.insert(
                        ProfileId(i as u32),
                        ProfileId(fresh_n1 + streamed.len() as u32),
                    );
                    streamed.push(p.attributes.clone());
                }
            }
            let mut fresh = ProgressiveSession::new(base.build(), config);
            fresh.ingest_batch(streamed);
            (fresh, map)
        }
    }
}

fn map_stream(stream: Stream, map: &HashMap<ProfileId, ProfileId>) -> Stream {
    stream
        .into_iter()
        .map(|(p, w)| (Pair::new(map[&p.first], map[&p.second]), w))
        .collect()
}

/// Tier (a): every mutation lands before the first emission, so the whole
/// stream must match the never-ingested twin — lazily filtered *and*
/// compacted.
fn assert_delete_equals_never_ingested(
    method: ProgressiveMethod,
    threads: usize,
    compact_first: bool,
    budget: Option<u64>,
) {
    let config = SessionConfig::exhaustive(method)
        .with_threads(sper_core::Parallelism::new(threads).unwrap())
        .with_compaction(CompactionPolicy::manual());
    let mut mutated =
        ProgressiveSession::new(ProfileCollectionBuilder::dirty().build(), config.clone());
    for chunk in rows(14).chunks(5) {
        mutated.ingest_batch(chunk.to_vec());
    }
    // ids 0..=13 ingested; the amends re-ingest as ids 14 and 15.
    mutated.retract(ProfileId(1));
    mutated.retract(ProfileId(5));
    mutated.amend(
        ProfileId(3),
        vec![Attribute::new("text", "gina white ny tailor")],
    );
    mutated.retract(ProfileId(8));
    mutated.amend(
        ProfileId(0),
        vec![Attribute::new("text", "paul black la baker")],
    );
    if compact_first {
        assert_eq!(mutated.pending_tombstones(), 5);
        assert!(mutated.compact() >= 5);
    }
    let (mut fresh, map) = fresh_twin(&mutated, config);
    let a = map_stream(drain(&mut mutated, budget), &map);
    let b = drain(&mut fresh, budget);
    assert!(!b.is_empty(), "vacuous fixture for {method:?}");
    assert_eq!(
        a, b,
        "{method:?} threads={threads} compacted={compact_first}: \
         mutated stream != never-ingested stream"
    );
}

#[test]
fn delete_equals_never_ingested_lazily_filtered() {
    for method in STREAMABLE {
        assert_delete_equals_never_ingested(method, 1, false, None);
    }
}

#[test]
fn delete_equals_never_ingested_post_compaction() {
    for method in STREAMABLE {
        assert_delete_equals_never_ingested(method, 1, true, None);
    }
}

#[test]
fn delete_equals_never_ingested_budgeted_drains() {
    for method in STREAMABLE {
        for compacted in [false, true] {
            assert_delete_equals_never_ingested(method, 1, compacted, Some(3));
        }
    }
}

#[test]
fn delete_equals_never_ingested_across_thread_counts() {
    for method in STREAMABLE {
        for threads in [2, 4, 8] {
            for compacted in [false, true] {
                assert_delete_equals_never_ingested(method, threads, compacted, Some(7));
            }
        }
    }
}

/// Tier (a) on a Clean-clean task, with retractions in both sources.
#[test]
fn clean_clean_delete_equals_never_ingested() {
    let p1 = [
        "carl white ny tailor",
        "hellen white ml teacher",
        "frank black la baker",
        "emma white wi tailor",
        "joe green sf cook",
    ];
    let p2 = [
        "karl white ny tailor",
        "ellen white ml teacher",
        "frances black la baker",
        "emma white wi taylor",
        "joseph green sf cook",
        "carla white ny tailor",
    ];
    for method in STREAMABLE {
        for compact_first in [false, true] {
            let config =
                SessionConfig::exhaustive(method).with_compaction(CompactionPolicy::manual());
            let mut base = ProfileCollectionBuilder::clean_clean();
            for v in p1 {
                base.add_profile([("text", v)]);
            }
            base.start_second_source();
            let mut mutated = ProgressiveSession::new(base.build(), config.clone());
            mutated.ingest_batch(p2.map(|v| vec![Attribute::new("text", v)]));
            // Retract from the base source and the streamed source, and
            // amend a streamed row (re-ingests into P2, id 11).
            mutated.retract(ProfileId(2));
            mutated.retract(ProfileId(7));
            mutated.amend(
                ProfileId(6),
                vec![Attribute::new("text", "eleanor white ml teacher")],
            );
            if compact_first {
                mutated.compact();
            }
            let (mut fresh, map) = fresh_twin(&mutated, config);
            let a = map_stream(drain(&mut mutated, Some(4)), &map);
            let b = drain(&mut fresh, Some(4));
            assert!(!b.is_empty(), "vacuous fixture for {method:?}");
            assert_eq!(
                a, b,
                "{method:?} (clean-clean, compacted={compact_first}) diverged"
            );
        }
    }
}

/// The API contract `update ≡ delete + re-ingest`, pinned directly: two
/// sessions fed identical prefixes, one calling `amend` and the other
/// spelling it out, stay indistinguishable — same ids, same emissions.
#[test]
fn update_equals_delete_plus_reingest() {
    for method in STREAMABLE {
        let config = SessionConfig::exhaustive(method).with_compaction(CompactionPolicy::manual());
        let build = || {
            let mut s =
                ProgressiveSession::new(ProfileCollectionBuilder::dirty().build(), config.clone());
            s.ingest_batch(rows(10));
            s.emit_epoch(Some(4));
            s
        };
        let new_text = vec![Attribute::new("text", "gina white ny tailor")];
        let mut amended = build();
        let id_a = amended.amend(ProfileId(4), new_text.clone());
        let mut spelled = build();
        spelled.retract(ProfileId(4));
        let id_b = spelled.ingest(new_text);
        assert_eq!(id_a, id_b, "{method:?}: amend picked a different id");
        assert_eq!(amended.pending_tombstones(), spelled.pending_tombstones());
        let a = drain(&mut amended, Some(3));
        let b = drain(&mut spelled, Some(3));
        assert_eq!(a, b, "{method:?}: amend != delete + re-ingest");
    }
}

/// Tier (b): mutations land *after* emissions have already happened. The
/// post-mutation drain must equal the never-ingested twin's full stream
/// with the already-emitted survivor pairs deleted — same order, same
/// bit-exact weights (the drain re-derives every weight from the
/// post-mutation substrate, which the twin's substrate matches exactly).
#[test]
fn interleaved_mutations_drain_like_a_fresh_session() {
    let all = rows(14);
    for method in STREAMABLE {
        for compact_before_drain in [false, true] {
            let config =
                SessionConfig::exhaustive(method).with_compaction(CompactionPolicy::manual());
            let mut mutated =
                ProgressiveSession::new(ProfileCollectionBuilder::dirty().build(), config.clone());
            mutated.ingest_batch(all[..8].to_vec());
            mutated.emit_epoch(Some(6));
            mutated.ingest_batch(all[8..].to_vec());
            mutated.retract(ProfileId(1));
            mutated.amend(
                ProfileId(3),
                vec![Attribute::new("text", "gina white ny tailor")],
            );
            mutated.retract(ProfileId(9));
            if compact_before_drain {
                mutated.compact();
            }
            let (mut fresh, map) = fresh_twin(&mutated, config);
            // The dedup filter holds survivor pairs only (retraction
            // invalidated the rest); map it into the twin's id space.
            let already: std::collections::HashSet<Pair> = mutated
                .emitted()
                .iter()
                .map(|p| Pair::new(map[&p.first], map[&p.second]))
                .collect();
            assert!(!already.is_empty(), "fixture emitted nothing pre-mutation");
            let expected: Stream = drain(&mut fresh, Some(5))
                .into_iter()
                .filter(|(p, _)| !already.contains(p))
                .collect();
            let actual = map_stream(drain(&mut mutated, Some(5)), &map);
            assert_eq!(
                actual, expected,
                "{method:?} (compacted={compact_before_drain}): post-mutation drain diverged"
            );
        }
    }
}

proptest! {
    /// Arbitrary collections and mutation schedules, every streamable
    /// method: pre-emission mutations are indistinguishable from never
    /// having ingested the victims, compacted or not.
    #[test]
    fn mutation_schedule_equivalence(
        values in proptest::collection::vec("[a-e ]{1,8}", 4..14),
        method_idx in 0usize..6,
        del_seeds in proptest::collection::vec(0usize..1000, 0..4),
        upd_seeds in proptest::collection::vec(0usize..1000, 0..3),
        compact_coin in 0usize..2,
        budget in 2u64..6,
    ) {
        let compact = compact_coin == 1;
        let method = STREAMABLE[method_idx];
        let config = SessionConfig::exhaustive(method)
            .with_compaction(CompactionPolicy::manual());
        let mut mutated = ProgressiveSession::new(
            ProfileCollectionBuilder::dirty().build(),
            config.clone(),
        );
        mutated.ingest_batch(
            values.iter().map(|v| vec![Attribute::new("t", v.clone())]),
        );
        // Apply the schedule, skipping ids the schedule already killed;
        // amends target the *current* collection, so they can hit rows
        // earlier amends created.
        for seed in del_seeds {
            let id = ProfileId((seed % mutated.profiles().len()) as u32);
            if !mutated.is_retracted(id) {
                mutated.retract(id);
            }
        }
        for seed in upd_seeds {
            let id = ProfileId((seed % mutated.profiles().len()) as u32);
            if !mutated.is_retracted(id) {
                mutated.amend(id, vec![Attribute::new("t", format!("e{} d", seed % 7))]);
            }
        }
        if compact {
            mutated.compact();
            prop_assert_eq!(mutated.pending_tombstones(), 0);
        }
        let (mut fresh, map) = fresh_twin(&mutated, config);
        let a = map_stream(drain(&mut mutated, Some(budget)), &map);
        let b = drain(&mut fresh, Some(budget));
        prop_assert_eq!(a, b);
    }
}
