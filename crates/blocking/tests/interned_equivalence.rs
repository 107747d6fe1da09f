//! Equivalence property tests: the interned/CSR pipeline is
//! observationally identical to the string-keyed seed semantics preserved
//! in [`sper_blocking::legacy`].
//!
//! Three layers are pinned down, each for Dirty and Clean-clean ER:
//!
//! 1. **Blocks** — `TokenBlocking` (interned ids, flat bucket index, CSR
//!    collection) produces the same keys, members, source partitions and
//!    key-sorted order as the seed's `HashMap<String, Vec<_>>` build, at
//!    every requested worker count.
//! 2. **Weights** — `ProfileIndex` (CSR merge kernels) reproduces the
//!    naive string-keyed weight of every scheme on every pair.
//! 3. **Neighbor List** — the rank-sorted interned build is *bit
//!    identical* to the seed's string-sorted build: same keys, same
//!    profiles at every position (the equal-key runs consume the shuffle
//!    RNG identically).
//!
//! Method-level emission equivalence lives in
//! `crates/core/tests/emission_equivalence.rs` (it needs `sper-core`).

use proptest::prelude::*;
use sper_blocking::legacy::{
    string_block_lists, string_neighbor_list, string_token_blocking, string_weight,
};
use sper_blocking::{BlockCollection, Parallelism, ProfileIndex, TokenBlocking, WeightingScheme};
use sper_model::{ProfileCollection, ProfileCollectionBuilder, ProfileId};

/// Random collections over a tiny alphabet — small vocabularies maximize
/// token collisions, which is where blocking behavior lives. Half the
/// cases are Dirty (both vecs in one source), half Clean-clean (P1 | P2).
fn any_collection() -> impl Strategy<Value = ProfileCollection> {
    (
        proptest::collection::vec("[a-e ]{1,10}", 1..13),
        proptest::collection::vec("[a-e ]{1,10}", 1..13),
        0u8..2,
    )
        .prop_map(|(p1, p2, kind)| {
            let mut b = if kind == 0 {
                ProfileCollectionBuilder::dirty()
            } else {
                ProfileCollectionBuilder::clean_clean()
            };
            for v in p1 {
                b.add_profile([("t", v)]);
            }
            if kind != 0 {
                b.start_second_source();
            }
            for v in p2 {
                b.add_profile([("t", v)]);
            }
            b.build()
        })
}

/// Asserts one interned collection equals the legacy blocks: same order,
/// same key strings, same members, same source partitions.
fn assert_blocks_equal(
    interned: &BlockCollection,
    legacy: &[sper_blocking::legacy::StringBlock],
) -> Result<(), TestCaseError> {
    prop_assert_eq!(interned.len(), legacy.len());
    for (a, b) in interned.iter().zip(legacy) {
        prop_assert_eq!(&*a.key_str(), b.key.as_str());
        prop_assert_eq!(a.profiles(), &b.members[..]);
        prop_assert_eq!(a.first_source().len() as u32, b.n_first);
    }
    Ok(())
}

proptest! {
    /// Layer 1: interned Token Blocking ≡ string-keyed Token Blocking at
    /// any requested worker count, dirty and clean-clean.
    #[test]
    fn token_blocking_matches_seed(coll in any_collection(), threads in 1usize..5) {
        let legacy = string_token_blocking(&coll);
        let par = Parallelism::new(threads).expect("threads > 0");
        let interned = TokenBlocking.par_build(&coll, par);
        assert_blocks_equal(&interned, &legacy)?;
    }

    /// Layer 2: CSR Profile-Index weights ≡ naive string-keyed weights for
    /// every scheme on every pair. (Block order is the shared key-sorted
    /// order, so block ids line up by construction.)
    #[test]
    fn weights_match_seed(coll in any_collection()) {
        let legacy = string_token_blocking(&coll);
        let lists = string_block_lists(&legacy, coll.len());
        let interned = TokenBlocking.build(&coll);
        let index = ProfileIndex::build(&interned);
        let kind = coll.kind();
        let n = coll.len() as u32;
        for i in 0..n {
            for j in (i + 1)..n {
                let (pi, pj) = (ProfileId(i), ProfileId(j));
                for scheme in WeightingScheme::ALL {
                    let expected = string_weight(&legacy, &lists, kind, pi, pj, scheme);
                    let got = index.weight(pi, pj, scheme);
                    prop_assert!(
                        (expected - got).abs() < 1e-9,
                        "{scheme} weight of ({i},{j}): interned {got} vs seed {expected}"
                    );
                }
            }
        }
    }

    /// Layer 3: the interned Neighbor List is bit-identical to the seed's
    /// string-sorted build — same key at every position, same profile at
    /// every position, for any seed.
    #[test]
    fn neighbor_list_matches_seed(coll in any_collection(), seed in 0u64..1000) {
        let (legacy_nl, legacy_keys) = string_neighbor_list(&coll, seed);
        let nl = sper_blocking::NeighborList::build_with_keys(&coll, seed, Parallelism::SEQUENTIAL);
        prop_assert_eq!(nl.len(), legacy_nl.len());
        for i in 0..nl.len() {
            prop_assert_eq!(&*nl.key_at(i).unwrap(), legacy_keys[i].as_str(), "key at {}", i);
            prop_assert_eq!(nl.profile_at(i), legacy_nl[i], "profile at {}", i);
        }
    }

    /// The CSR collection survives its own transformations: cardinality
    /// sort and comparable-retain produce the same multiset of
    /// (key, members) as the straightforward owned-block route.
    #[test]
    fn csr_transforms_preserve_contents(coll in any_collection()) {
        let mut a = TokenBlocking.build(&coll);
        let owned = a.clone().into_blocks();
        a.sort_by_cardinality();
        a.retain_comparable();
        let kind = a.kind();
        let mut expected: Vec<_> = owned
            .into_iter()
            .filter(|b| b.cardinality(kind) > 0)
            .map(|b| (b.key, b.profiles().to_vec()))
            .collect();
        let mut got: Vec<_> = a.iter().map(|b| (b.key, b.profiles().to_vec())).collect();
        expected.sort();
        got.sort();
        prop_assert_eq!(got, expected);
    }
}
