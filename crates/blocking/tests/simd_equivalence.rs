//! SIMD kernel equivalence: every vector path of the spacc engine is
//! bit-identical to the chunked scalar fallback — which is itself pinned
//! to the legacy string-keyed weights by `weighting_equivalence.rs`.
//!
//! What is pinned down:
//!
//! * **Accumulation** — [`WeightAccumulator::with_path`] sweeps with the
//!   AVX2 / SSE2 / scalar kernels touch the same neighbors in the same
//!   order with the same accumulated bits and least-common-block
//!   witnesses, and finalize to the same weight bits, for all four
//!   schemes, dirty and clean-clean.
//! * **Dispatch policy** — `SPER_NO_SIMD` forces scalar; feature flags
//!   pick the widest available unit; every path reachable on this host
//!   actually runs here (the scalar-only assertions are vacuous only on
//!   pre-AVX2 hardware, where there is no vector path to diverge).
//! * **Degenerate inputs** — empty and single-profile collections sweep
//!   on every path, and build an empty graph, without panicking.

use proptest::prelude::*;
use sper_blocking::{
    BlockingGraph, KernelPath, ProfileIndex, TokenBlocking, WeightAccumulator, WeightingScheme,
};
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

/// The kernel paths this host can execute: scalar always, plus whatever
/// the runtime dispatcher could pick. On an AVX2 host this is all three.
fn runnable_paths() -> Vec<KernelPath> {
    let mut paths = vec![KernelPath::Scalar];
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("sse2") {
            paths.push(KernelPath::Sse2);
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            paths.push(KernelPath::Avx2);
        }
    }
    paths
}

proptest! {
    /// Sweeping with each runnable kernel touches identical neighbors in
    /// identical order with identical accumulated bits and LCB witnesses,
    /// and finalizes to identical weight bits, for all four schemes on
    /// both ER kinds.
    #[test]
    fn every_kernel_path_sweeps_identically(coll in any_collection()) {
        let mut blocks = TokenBlocking::default().build(&coll);
        blocks.sort_by_cardinality();
        let index = ProfileIndex::build(&blocks);
        let n = blocks.n_profiles();
        let mut reference = WeightAccumulator::with_path(n, KernelPath::Scalar);
        for path in runnable_paths() {
            let mut acc = WeightAccumulator::with_path(n, path);
            prop_assert_eq!(acc.path(), path);
            for scheme in WeightingScheme::ALL {
                for i in 0..n as u32 {
                    let i = ProfileId(i);
                    reference.sweep(&blocks, &index, scheme, i, None);
                    acc.sweep(&blocks, &index, scheme, i, None);
                    prop_assert_eq!(
                        acc.touched(), reference.touched(),
                        "{:?} touched order diverged at {:?}", path, i
                    );
                    for &j in reference.touched() {
                        let j = ProfileId(j);
                        prop_assert_eq!(
                            acc.raw(j).to_bits(), reference.raw(j).to_bits(),
                            "{:?} accumulated bits diverged at ({:?},{:?})", path, i, j
                        );
                        prop_assert_eq!(
                            acc.least_common_block(j), reference.least_common_block(j),
                            "{:?} LCB witness diverged at ({:?},{:?})", path, i, j
                        );
                        prop_assert_eq!(
                            acc.finalize(&index, scheme, i, j).to_bits(),
                            reference.finalize(&index, scheme, i, j).to_bits()
                        );
                    }
                    reference.reset();
                    acc.reset();
                }
            }
        }
    }
}

/// The dispatch policy: `SPER_NO_SIMD` (any non-empty value except "0")
/// forces scalar regardless of hardware; otherwise the widest detected
/// unit wins; SSE2-less hosts fall back to scalar.
#[test]
fn dispatch_policy_is_pinned() {
    assert_eq!(
        KernelPath::select(Some("1"), true, true),
        KernelPath::Scalar
    );
    assert_eq!(
        KernelPath::select(Some("yes"), true, true),
        KernelPath::Scalar
    );
    assert_eq!(KernelPath::select(Some("0"), true, true), KernelPath::Avx2);
    assert_eq!(KernelPath::select(Some(""), true, true), KernelPath::Avx2);
    assert_eq!(KernelPath::select(None, true, true), KernelPath::Avx2);
    assert_eq!(KernelPath::select(None, false, true), KernelPath::Sse2);
    assert_eq!(KernelPath::select(None, false, false), KernelPath::Scalar);
    // The cached runtime choice is one of the runnable paths.
    assert!(runnable_paths().contains(&KernelPath::active()));
}

/// Sweeping on a non-reset scratch is a hard contract violation in every
/// build profile — stale sums would silently corrupt every weight.
#[test]
#[should_panic(expected = "non-reset scratch")]
fn sweep_on_dirty_scratch_panics() {
    let mut b = ProfileCollectionBuilder::dirty();
    b.add_profile([("t", "alpha beta")]);
    b.add_profile([("t", "alpha beta")]);
    let coll = b.build();
    let blocks = TokenBlocking::default().build(&coll);
    let index = ProfileIndex::build(&blocks);
    let mut acc = WeightAccumulator::new(blocks.n_profiles());
    acc.sweep(&blocks, &index, WeightingScheme::Cbs, ProfileId(0), None);
    assert!(!acc.is_empty(), "first sweep must touch profile 1");
    // No reset: the second sweep must panic, not corrupt.
    acc.sweep(&blocks, &index, WeightingScheme::Cbs, ProfileId(1), None);
}

/// Degenerate inputs take every path without panicking, whatever the
/// dispatched kernel.
#[test]
fn empty_and_single_profile_per_path() {
    let empty = ProfileCollectionBuilder::dirty().build();
    let mut one = ProfileCollectionBuilder::dirty();
    one.add_profile([("t", "lonely tokens here")]);
    let one = one.build();
    for coll in [empty, one] {
        let blocks = TokenBlocking::default().build(&coll);
        let index = ProfileIndex::build(&blocks);
        let n = blocks.n_profiles();
        for path in runnable_paths() {
            let mut acc = WeightAccumulator::with_path(n, path);
            for i in 0..n as u32 {
                acc.sweep_forward(&blocks, &index, WeightingScheme::Ecbs, ProfileId(i));
                assert!(acc.is_empty(), "no neighbors exist");
                acc.reset();
            }
        }
        for scheme in WeightingScheme::ALL {
            assert_eq!(BlockingGraph::build(&blocks, scheme).num_edges(), 0);
        }
    }
}
