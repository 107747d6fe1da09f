//! SIMD kernel equivalence: every vector path of the spacc engine is
//! bit-identical to the chunked scalar fallback — which is itself pinned
//! to the legacy string-keyed weights by `weighting_equivalence.rs`.
//!
//! What is pinned down:
//!
//! * **Accumulation** — [`WeightAccumulator::with_path`] sweeps with the
//!   AVX2 / SSE2 / scalar kernels touch the same neighbors with the same
//!   accumulated bits and least-common-block witnesses, for all four
//!   schemes, dirty and clean-clean.
//! * **Finalization** — [`FinalizeTable::weights_into`] through each
//!   kernel equals the per-edge [`FinalizeTable::weight`] reference,
//!   bitwise, including the JS zero-union clamp.
//! * **End-to-end** — `weighted_edge_list` (which dispatches through
//!   [`KernelPath::active`], i.e. the forced-scalar path under
//!   `SPER_NO_SIMD=1`) reproduces the legacy edge sequence at 1–8
//!   threads. CI runs the bench smoke twice — default and
//!   `SPER_NO_SIMD=1` — so both dispatch outcomes cross this test's
//!   in-process per-path sweep *and* a whole-binary forced-fallback run.
//! * **Drain order** — [`WeightAccumulator::drain_ascending`] emits the
//!   sorted-touched sequence on both its branches: the dense bitmap scan
//!   and the sparse sort fallback.
//! * **Dispatch policy** — `SPER_NO_SIMD` forces scalar; feature flags
//!   pick the widest available unit; every path reachable on this host
//!   actually runs here (the scalar-only assertions are vacuous only on
//!   pre-AVX2 hardware, where there is no vector path to diverge).

use proptest::prelude::*;
use sper_blocking::legacy::legacy_graph_edges;
use sper_blocking::spacc::weighted_edge_list;
use sper_blocking::{
    FinalizeTable, KernelPath, Parallelism, ProfileIndex, TokenBlocking, WeightAccumulator,
    WeightingScheme,
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
    /// Sweeping with each runnable kernel touches identical neighbor sets
    /// with identical accumulated bits and LCB witnesses, and finalizes to
    /// identical weight bits, for all four schemes on both ER kinds.
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
                    reference.sort_touched();
                    acc.sort_touched();
                    prop_assert_eq!(
                        acc.touched(), reference.touched(),
                        "{:?} touched set diverged at {:?}", path, i
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

    /// Batched finalization through each kernel equals the per-edge
    /// reference bitwise, for every scheme (the counting schemes take the
    /// copy path; JS and ECBS exercise the gather/arithmetic lanes).
    #[test]
    fn batched_finalize_matches_per_edge_on_every_path(
        terms in proptest::collection::vec(1u32..20, 2..40),
        acc_units in proptest::collection::vec(0u32..4800, 0..24),
    ) {
        // Quarter-unit grid in [0, 12): exact in f64, covers the zero
        // accumulator and fractional sums without an f64 strategy.
        let accs: Vec<f64> = acc_units.iter().map(|&u| u as f64 / 400.0).collect();
        // A synthetic index is unnecessary: drive the table through the
        // same constructor the engine uses, on real blocks, then compare
        // per-edge vs batched on synthetic (js, accs) neighborhoods.
        let mut b = ProfileCollectionBuilder::dirty();
        for t in &terms {
            b.add_profile([("t", format!("tok{} common", t % 7))]);
        }
        let coll = b.build();
        let blocks = TokenBlocking::default().build(&coll);
        let index = ProfileIndex::build(&blocks);
        let n = blocks.n_profiles();
        let i = 0u32;
        let js: Vec<u32> = (0..accs.len() as u32).map(|k| k % n.max(1) as u32).collect();
        let mut out = Vec::new();
        for scheme in WeightingScheme::ALL {
            let table = FinalizeTable::build(&index, scheme, n);
            for path in runnable_paths() {
                table.weights_into(path, i, &js, &accs, &mut out);
                prop_assert_eq!(out.len(), js.len());
                for (k, (&j, &acc)) in js.iter().zip(&accs).enumerate() {
                    prop_assert_eq!(
                        out[k].to_bits(),
                        table.weight(i, j, acc).to_bits(),
                        "{} via {:?} diverged at lane {}", scheme, path, k
                    );
                }
            }
        }
    }

    /// The full engine — `KernelPath::active` dispatch, work-stealing
    /// chunks, two-pass counting scatter — reproduces the legacy edge
    /// sequence bitwise at 1–8 threads. Under `SPER_NO_SIMD=1` this same
    /// test pins the forced-scalar dispatch end to end.
    #[test]
    fn dispatched_edge_list_matches_legacy(
        coll in any_collection(),
        threads in 1usize..9,
    ) {
        let mut blocks = TokenBlocking::default().build(&coll);
        blocks.sort_by_cardinality();
        let index = ProfileIndex::build(&blocks);
        let par = Parallelism::new(threads).expect("threads > 0");
        for scheme in WeightingScheme::ALL {
            let reference = legacy_graph_edges(&blocks, scheme);
            let kernel = weighted_edge_list(&blocks, &index, scheme, par);
            prop_assert_eq!(kernel.len(), reference.len(), "{} edge count", scheme);
            for (k, (a, b)) in kernel.iter().zip(&reference).enumerate() {
                prop_assert_eq!(a.0, b.0, "{} edge order diverged at {}", scheme, k);
                prop_assert_eq!(
                    a.1.to_bits(), b.1.to_bits(),
                    "{} weight bits diverged at {:?}", scheme, a.0
                );
            }
        }
    }

    /// `drain_ascending` visits exactly the sorted touched set with the
    /// accumulated sums and LCB witnesses, and leaves the scratch reset.
    /// Small collections keep the touched density above the bitmap
    /// threshold, so this exercises the word-scan branch (the sparse
    /// branch is pinned by `drain_sparse_branch_sorts` below).
    #[test]
    fn drain_ascending_matches_sorted_touched(coll in any_collection()) {
        let mut blocks = TokenBlocking::default().build(&coll);
        blocks.sort_by_cardinality();
        let index = ProfileIndex::build(&blocks);
        let n = blocks.n_profiles();
        let mut probe = WeightAccumulator::new(n);
        let mut drained = WeightAccumulator::new(n);
        for i in 0..n as u32 {
            let i = ProfileId(i);
            probe.sweep_forward(&blocks, &index, WeightingScheme::Cbs, i);
            drained.sweep_forward(&blocks, &index, WeightingScheme::Cbs, i);
            probe.sort_touched();
            let expected: Vec<(u32, u64, u32)> = probe
                .touched()
                .iter()
                .map(|&j| {
                    let p = ProfileId(j);
                    (j, probe.raw(p).to_bits(), probe.least_common_block(p).0)
                })
                .collect();
            let mut got = Vec::new();
            drained.drain_ascending(|j, sum, lcb| got.push((j, sum.to_bits(), lcb)));
            prop_assert_eq!(got, expected, "drain order diverged at {:?}", i);
            prop_assert!(drained.is_empty(), "drain must leave the scratch reset");
            probe.reset();
        }
    }
}

/// The sparse branch of `drain_ascending` (touched density below one bit
/// per eight mask words) sorts instead of scanning — same output order.
#[test]
fn drain_sparse_branch_sorts() {
    // 4000 profiles → 63 mask words → the sort branch engages below 7
    // touched entries. Profiles 0, 777 and 3999 share one token; everyone
    // else is singleton noise.
    let mut b = ProfileCollectionBuilder::dirty();
    for i in 0..4000u32 {
        let text = match i {
            0 | 777 | 3999 => format!("shared u{i}"),
            _ => format!("u{i}"),
        };
        b.add_profile([("t", text)]);
    }
    let coll = b.build();
    let blocks = TokenBlocking::default().build(&coll);
    let index = ProfileIndex::build(&blocks);
    let mut acc = WeightAccumulator::new(blocks.n_profiles());
    acc.sweep_forward(&blocks, &index, WeightingScheme::Cbs, ProfileId(0));
    assert_eq!(acc.touched().len(), 2, "0 sees exactly 777 and 3999");
    let mut got = Vec::new();
    acc.drain_ascending(|j, sum, _| got.push((j, sum)));
    assert_eq!(got, vec![(777, 1.0), (3999, 1.0)], "ascending id order");
    assert!(acc.is_empty());
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
                acc.drain_ascending(|_, _, _| panic!("no neighbors exist"));
            }
        }
        for scheme in WeightingScheme::ALL {
            let edges = weighted_edge_list(&blocks, &index, scheme, Parallelism::SEQUENTIAL);
            assert!(edges.is_empty());
        }
    }
}

/// `Pair` ordering invariant survives the unsafe scatter: every emitted
/// pair has `first < second` in id order (the contract downstream
/// consumers index on).
#[test]
fn scattered_pairs_keep_endpoint_order() {
    let mut b = ProfileCollectionBuilder::dirty();
    for i in 0..60u32 {
        b.add_profile([("t", format!("tok{} shared{}", i % 9, i % 4))]);
    }
    let coll = b.build();
    let mut blocks = TokenBlocking::default().build(&coll);
    blocks.sort_by_cardinality();
    let index = ProfileIndex::build(&blocks);
    for threads in [1, 3, 8] {
        let par = Parallelism::new(threads).unwrap();
        let edges = weighted_edge_list(&blocks, &index, WeightingScheme::Js, par);
        assert!(!edges.is_empty());
        for (pair, w) in &edges {
            assert!(pair.first < pair.second, "unordered pair {pair:?}");
            assert!(w.is_finite());
        }
    }
}
