//! The streaming counterpart of the paper's *Same Eventual Quality*
//! requirement (§3.1), as demanded by the subsystem's acceptance criteria:
//! a `ProgressiveSession` that ingests a dataset in ≥ 3 batches emits,
//! cumulatively, exactly the batch method's comparison set on the full
//! collection — same pairs, no duplicate emissions across epochs.
//!
//! Checked for LS-PSN and PPS (plus SA-PSN and PBS for coverage) on a
//! generated twin, under the substrate-monotone `SessionConfig::exhaustive`
//! regime (see `sper_stream::session` docs for why pruning configurations
//! cannot make this exact).

use sper_core::{build_method, ProgressiveMethod};
use sper_datagen::{DatasetKind, DatasetSpec};
use sper_model::{Attribute, Pair, ProfileCollection, ProfileCollectionBuilder};
use sper_stream::{ProgressiveSession, SessionConfig};
use std::collections::HashSet;

/// The batch method's full emission set on `profiles` under `config`.
fn batch_emission_set(
    method: ProgressiveMethod,
    profiles: &ProfileCollection,
    config: &SessionConfig,
) -> HashSet<Pair> {
    build_method(method, profiles, &config.config, None)
        .map(|c| c.pair)
        .collect()
}

/// Streams `profiles` into a session in `n_batches` and drains every
/// epoch, returning the cumulative emission set (asserting no pair is
/// emitted twice along the way).
fn streamed_emission_set(
    profiles: &ProfileCollection,
    config: SessionConfig,
    n_batches: usize,
) -> HashSet<Pair> {
    let mut session = ProgressiveSession::new(ProfileCollectionBuilder::dirty().build(), config);
    let all: Vec<Vec<Attribute>> = profiles.iter().map(|p| p.attributes.clone()).collect();
    let chunk = all.len().div_ceil(n_batches);
    let mut cumulative: HashSet<Pair> = HashSet::new();
    for batch in all.chunks(chunk) {
        session.ingest_batch(batch.to_vec());
        let outcome = session.emit_epoch(None);
        for c in &outcome.comparisons {
            assert!(
                cumulative.insert(c.pair),
                "duplicate emission across epochs: {:?}",
                c.pair
            );
        }
    }
    assert_eq!(session.profiles().len(), profiles.len());
    cumulative
}

fn twin() -> sper_datagen::GeneratedDataset {
    DatasetSpec::paper(DatasetKind::Restaurant)
        .with_scale(0.12)
        .generate()
}

fn assert_equivalent(method: ProgressiveMethod, n_batches: usize) {
    let data = twin();
    let config = SessionConfig::exhaustive(method);
    let batch = batch_emission_set(method, &data.profiles, &config);
    let streamed = streamed_emission_set(&data.profiles, config, n_batches);
    assert_eq!(
        streamed.len(),
        batch.len(),
        "{method:?}: cumulative streamed count differs from batch"
    );
    assert_eq!(
        streamed, batch,
        "{method:?}: streamed emission set differs from batch"
    );
}

#[test]
fn ls_psn_streaming_equals_batch_in_3_batches() {
    assert_equivalent(ProgressiveMethod::LsPsn, 3);
}

#[test]
fn ls_psn_streaming_equals_batch_in_5_batches() {
    assert_equivalent(ProgressiveMethod::LsPsn, 5);
}

#[test]
fn pps_streaming_equals_batch_in_3_batches() {
    assert_equivalent(ProgressiveMethod::Pps, 3);
}

#[test]
fn pps_streaming_equals_batch_in_7_batches() {
    assert_equivalent(ProgressiveMethod::Pps, 7);
}

#[test]
fn sa_psn_streaming_equals_batch() {
    assert_equivalent(ProgressiveMethod::SaPsn, 4);
}

#[test]
fn gs_psn_streaming_equals_batch() {
    assert_equivalent(ProgressiveMethod::GsPsn, 4);
}

#[test]
fn pbs_streaming_equals_batch() {
    assert_equivalent(ProgressiveMethod::Pbs, 4);
}

/// Clean-clean tasks: the session base fixes `P1`, streamed profiles join
/// `P2` (ids line up with the batch collection), and the cumulative
/// emission set still equals the batch method's — with every pair crossing
/// the two sources.
#[test]
fn clean_clean_p2_streaming_equals_batch() {
    let data = DatasetSpec::paper(DatasetKind::Movies)
        .with_scale(0.03)
        .generate();
    let split = data.profiles.len_first();
    for method in [ProgressiveMethod::Pps, ProgressiveMethod::LsPsn] {
        let config = SessionConfig::exhaustive(method);
        let batch = batch_emission_set(method, &data.profiles, &config);

        let mut base = ProfileCollectionBuilder::clean_clean();
        for p in data.profiles.iter().take(split) {
            base.add_attributes(p.attributes.clone());
        }
        base.start_second_source();
        let mut session = ProgressiveSession::new(base.build(), config);
        let p2: Vec<Vec<Attribute>> = data
            .profiles
            .iter()
            .skip(split)
            .map(|p| p.attributes.clone())
            .collect();
        let mut cumulative: HashSet<Pair> = HashSet::new();
        for batch_rows in p2.chunks(p2.len().div_ceil(3)) {
            session.ingest_batch(batch_rows.to_vec());
            let outcome = session.emit_epoch(None);
            for c in &outcome.comparisons {
                assert!(cumulative.insert(c.pair), "duplicate {:?}", c.pair);
                assert!(
                    (c.pair.first.0 as usize) < split && (c.pair.second.0 as usize) >= split,
                    "{method:?} emitted a same-source pair {:?}",
                    c.pair
                );
            }
        }
        assert_eq!(cumulative, batch, "{method:?}");
    }
}

/// The equivalence also holds when epochs are budgeted, as long as the
/// final epoch drains: interleaving budgets only changes *when* a pair is
/// emitted, never *whether*.
#[test]
fn budgeted_epochs_still_converge_to_batch_set() {
    let data = twin();
    let config = SessionConfig::exhaustive(ProgressiveMethod::Pps);
    let batch = batch_emission_set(ProgressiveMethod::Pps, &data.profiles, &config);

    let mut session = ProgressiveSession::new(ProfileCollectionBuilder::dirty().build(), config);
    let all: Vec<Vec<Attribute>> = data.profiles.iter().map(|p| p.attributes.clone()).collect();
    let chunk = all.len().div_ceil(4);
    let mut cumulative: HashSet<Pair> = HashSet::new();
    for batch_profiles in all.chunks(chunk) {
        session.ingest_batch(batch_profiles.to_vec());
        // Tight budget: most of each epoch's frontier stays pending.
        let outcome = session.emit_epoch(Some(25));
        cumulative.extend(outcome.comparisons.iter().map(|c| c.pair));
    }
    // Final drain.
    let outcome = session.emit_epoch(None);
    cumulative.extend(outcome.comparisons.iter().map(|c| c.pair));
    assert_eq!(cumulative, batch);
}
