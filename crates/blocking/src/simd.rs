//! Runtime-dispatched SIMD kernels for the sparse-accumulator sweep.
//!
//! The spacc hot loops ([`crate::spacc`]) are scatter/gather over a dense
//! per-profile scratch: for every valid co-occurrence `(i, j)` the sweep
//! reads `acc[j]`, tests it for first touch, and adds the block's
//! contribution. This module provides three implementations of that
//! accumulate step plus the ascending touched-scan used by edge emission:
//!
//! * **AVX2** — 4-lane `f64` gathers (`vgatherdpd`) with a branchless
//!   first-touch mask (`vcmppd` + `vmovmskpd`); the stores stay scalar
//!   because AVX2 has no scatter instruction.
//! * **SSE2** — 128-bit chunked variant: 4 ids are loaded per iteration
//!   with one `movdqu` and processed with pair-wise `f64` loads; on
//!   x86_64, SSE2 is a baseline feature, so this path always exists.
//! * **Scalar** — a chunked plain-Rust loop, the only path on
//!   non-x86_64 targets and the forced path under `SPER_NO_SIMD=1`.
//!
//! All three are **bit-identical**: each neighbor's accumulation is one
//! `f64` add per shared block applied in the same block order, lanes never
//! alias (block members are strictly increasing ids), and the first-touch
//! list is pushed in partition order lane by lane. The equivalence is
//! pinned by `tests/simd_equivalence.rs` for every scheme, ER kind, and
//! worker count.
//!
//! Dispatch happens once per process ([`KernelPath::active`]): the chosen
//! path is recorded as a `spacc.kernel_dispatch` trace event and a
//! `kernel_dispatch` gauge so every trace and metrics dump names the code
//! path that produced the run.

use std::sync::OnceLock;

/// Which accumulate-kernel implementation a sweep runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelPath {
    /// 4-lane AVX2 gather kernel (x86_64 with `avx2` detected).
    Avx2,
    /// 128-bit SSE2 chunked kernel (x86_64 baseline).
    Sse2,
    /// Chunked scalar kernel (all targets; forced by `SPER_NO_SIMD=1`).
    Scalar,
}

impl KernelPath {
    /// Short name for traces, gauges, and bench reports.
    pub fn name(self) -> &'static str {
        match self {
            KernelPath::Avx2 => "avx2",
            KernelPath::Sse2 => "sse2",
            KernelPath::Scalar => "scalar",
        }
    }

    /// Stable gauge code (`kernel_dispatch` metric): scalar 0, sse2 1,
    /// avx2 2.
    pub fn code(self) -> i64 {
        match self {
            KernelPath::Scalar => 0,
            KernelPath::Sse2 => 1,
            KernelPath::Avx2 => 2,
        }
    }

    /// Pure dispatch policy: the best path given the `SPER_NO_SIMD`
    /// override and the detected CPU features. Split out from
    /// [`Self::active`] so the policy is unit-testable without mutating
    /// process environment.
    pub fn select(no_simd_env: Option<&str>, has_avx2: bool, has_sse2: bool) -> Self {
        let forced_off = no_simd_env.is_some_and(|v| !v.is_empty() && v != "0");
        if forced_off {
            KernelPath::Scalar
        } else if has_avx2 {
            KernelPath::Avx2
        } else if has_sse2 {
            KernelPath::Sse2
        } else {
            KernelPath::Scalar
        }
    }

    /// The process-wide dispatched path: detected once, cached, and
    /// reported through `sper-obs` (one `spacc.kernel_dispatch` event at
    /// Info level plus the `kernel_dispatch` gauge) so a trace always
    /// records which kernel produced the run.
    pub fn active() -> Self {
        static ACTIVE: OnceLock<KernelPath> = OnceLock::new();
        *ACTIVE.get_or_init(|| {
            let env = std::env::var("SPER_NO_SIMD").ok();
            #[cfg(target_arch = "x86_64")]
            let path = KernelPath::select(
                env.as_deref(),
                std::arch::is_x86_feature_detected!("avx2"),
                std::arch::is_x86_feature_detected!("sse2"),
            );
            #[cfg(not(target_arch = "x86_64"))]
            let path = KernelPath::select(env.as_deref(), false, false);
            sper_obs::event!(
                sper_obs::Level::Info,
                "spacc.kernel_dispatch",
                path = path.name(),
            );
            sper_obs::metrics::global()
                .gauge("kernel_dispatch")
                .set(path.code());
            path
        })
    }

    /// Accumulates one block's `contribution` into `acc` for every id of
    /// `ids`, pushing first-touched ids onto `touched` (in `ids` order)
    /// and recording `bid` as their least-common-block witness.
    ///
    /// `ids` must be strictly increasing (block members are), so lanes
    /// never alias; every id must be `< acc.len()`.
    #[inline]
    pub(crate) fn accumulate(
        self,
        ids: &[u32],
        contribution: f64,
        bid: u32,
        acc: &mut [f64],
        lcb: &mut [u32],
        touched: &mut Vec<u32>,
    ) {
        match self {
            #[cfg(target_arch = "x86_64")]
            KernelPath::Avx2 => {
                // SAFETY: `active()`/the caller only selects Avx2 when the
                // CPU reports the feature; every id is a member of the swept
                // collection, whose profile count the sweep asserts is at
                // most `acc.len()`.
                unsafe { accumulate_avx2(ids, contribution, bid, acc, lcb, touched) }
            }
            #[cfg(target_arch = "x86_64")]
            KernelPath::Sse2 => {
                // SAFETY: SSE2 is unconditionally available on x86_64.
                unsafe { accumulate_sse2(ids, contribution, bid, acc, lcb, touched) }
            }
            #[cfg(not(target_arch = "x86_64"))]
            KernelPath::Avx2 | KernelPath::Sse2 => {
                accumulate_scalar(ids, contribution, bid, acc, lcb, touched)
            }
            KernelPath::Scalar => accumulate_scalar(ids, contribution, bid, acc, lcb, touched),
        }
    }
}

impl KernelPath {
    /// Computes JS weights for one neighborhood: `js[k]`/`accs[k]` are the
    /// drained (ascending) neighbors and accumulated shared-block counts of
    /// profile `i`, `ti = term[i]`, and `term` maps every profile to its
    /// block-list length. `out` is cleared and refilled with one weight per
    /// neighbor, each bit-identical to
    /// [`crate::weights::FinalizeTable::weight`].
    pub(crate) fn js_weights(
        self,
        ti: f64,
        term: &[f64],
        js: &[u32],
        accs: &[f64],
        out: &mut Vec<f64>,
    ) {
        debug_assert_eq!(js.len(), accs.len());
        out.clear();
        match self {
            #[cfg(target_arch = "x86_64")]
            KernelPath::Avx2 => {
                // SAFETY: Avx2 is only selected when the CPU reports the
                // feature; every neighbor id indexes `term` in-bounds (ids
                // are profile ids and `term` has one entry per profile).
                unsafe { js_weights_avx2(ti, term, js, accs, out) }
            }
            _ => js_weights_scalar(ti, term, js, accs, out),
        }
    }

    /// Computes ECBS weights for one neighborhood — same contract as
    /// [`Self::js_weights`] with `term` holding the per-profile
    /// `ln(|B|/|B_p|)` factors.
    pub(crate) fn ecbs_weights(
        self,
        ti: f64,
        term: &[f64],
        js: &[u32],
        accs: &[f64],
        out: &mut Vec<f64>,
    ) {
        debug_assert_eq!(js.len(), accs.len());
        out.clear();
        match self {
            #[cfg(target_arch = "x86_64")]
            KernelPath::Avx2 => {
                // SAFETY: same preconditions as the JS kernel above.
                unsafe { ecbs_weights_avx2(ti, term, js, accs, out) }
            }
            _ => ecbs_weights_scalar(ti, term, js, accs, out),
        }
    }
}

/// Zeroes the touched slots of `acc` — the reset hot loop. Chunked with a
/// 4-wide unroll for store-port ILP; there is no vector form because the
/// stores are a scatter, which x86_64 lacks below AVX-512 (the dense
/// alternative — zeroing whole cache lines via the drain bitmap — lives in
/// `WeightAccumulator::drain_ascending`, which fuses emission and reset).
pub(crate) fn clear_touched(touched: &[u32], acc: &mut [f64]) {
    let mut chunks = touched.chunks_exact(4);
    for c in &mut chunks {
        acc[c[0] as usize] = 0.0;
        acc[c[1] as usize] = 0.0;
        acc[c[2] as usize] = 0.0;
        acc[c[3] as usize] = 0.0;
    }
    for &j in chunks.remainder() {
        acc[j as usize] = 0.0;
    }
}

/// Scalar JS finalization — the reference the AVX2 variant must match bit
/// for bit: `union = (ti + term[j]) − acc`, weight `acc/union` clamped to
/// `0.0` when the union is non-positive.
fn js_weights_scalar(ti: f64, term: &[f64], js: &[u32], accs: &[f64], out: &mut Vec<f64>) {
    for (&j, &acc) in js.iter().zip(accs) {
        let union = ti + term[j as usize] - acc;
        out.push(if union <= 0.0 { 0.0 } else { acc / union });
    }
}

/// Scalar ECBS finalization — reference semantics `(acc · ti) · term[j]`.
fn ecbs_weights_scalar(ti: f64, term: &[f64], js: &[u32], accs: &[f64], out: &mut Vec<f64>) {
    for (&j, &acc) in js.iter().zip(accs) {
        out.push(acc * ti * term[j as usize]);
    }
}

/// AVX2 JS finalization: gathers 4 endpoint terms per iteration, forms the
/// union and quotient with packed `f64` ops in the scalar path's exact
/// association order (`(ti + tj) − acc`, then `acc / union`), and blends
/// `0.0` into non-positive-union lanes with a packed `>` compare — the
/// same lanes the scalar `union <= 0.0` test zeroes (negative zero
/// compares equal, and the terms/accumulations are finite by
/// construction, so no NaN reaches the compare).
///
/// # Safety
///
/// Caller must guarantee the CPU supports AVX2 and every id of `js` is
/// `< term.len()`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn js_weights_avx2(ti: f64, term: &[f64], js: &[u32], accs: &[f64], out: &mut Vec<f64>) {
    use std::arch::x86_64::*;
    let tiv = _mm256_set1_pd(ti);
    let zero = _mm256_setzero_pd();
    let mut staged = [0f64; 4];
    let mut k = 0;
    while k + 4 <= js.len() {
        // SAFETY: `k + 4 <= js.len()` leaves 16 readable bytes of ids and
        // 32 of accumulations; unaligned loads have no alignment demand.
        let idx = unsafe { _mm_loadu_si128(js.as_ptr().add(k) as *const __m128i) };
        // SAFETY: every id is < term.len() (caller contract); scale 8.
        let tj = unsafe { _mm256_i32gather_pd(term.as_ptr(), idx, 8) };
        // SAFETY: in-bounds per the loop guard.
        let acc = unsafe { _mm256_loadu_pd(accs.as_ptr().add(k)) };
        let union_ = _mm256_sub_pd(_mm256_add_pd(tiv, tj), acc);
        let quotient = _mm256_div_pd(acc, union_);
        // Lane is kept iff union > 0.0 — the complement of the scalar
        // `union <= 0.0 → 0.0` clamp. Division by a clamped lane is
        // discarded by the blend; no FP exception escapes (Rust runs with
        // exceptions masked).
        let keep = _mm256_cmp_pd::<_CMP_GT_OQ>(union_, zero);
        // SAFETY: `staged` is 32 writable bytes.
        unsafe { _mm256_storeu_pd(staged.as_mut_ptr(), _mm256_blendv_pd(zero, quotient, keep)) };
        out.extend_from_slice(&staged);
        k += 4;
    }
    js_weights_scalar(ti, term, &js[k..], &accs[k..], out);
}

/// AVX2 ECBS finalization: gathers 4 endpoint terms and applies the two
/// packed multiplies in the scalar association order (`(acc · ti) · tj`) —
/// `vmulpd` is exact per-lane IEEE, so the product bits equal the scalar
/// path's.
///
/// # Safety
///
/// Caller must guarantee the CPU supports AVX2 and every id of `js` is
/// `< term.len()`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn ecbs_weights_avx2(ti: f64, term: &[f64], js: &[u32], accs: &[f64], out: &mut Vec<f64>) {
    use std::arch::x86_64::*;
    let tiv = _mm256_set1_pd(ti);
    let mut staged = [0f64; 4];
    let mut k = 0;
    while k + 4 <= js.len() {
        // SAFETY: `k + 4 <= js.len()` leaves 16 readable bytes of ids and
        // 32 of accumulations.
        let idx = unsafe { _mm_loadu_si128(js.as_ptr().add(k) as *const __m128i) };
        // SAFETY: every id is < term.len() (caller contract); scale 8.
        let tj = unsafe { _mm256_i32gather_pd(term.as_ptr(), idx, 8) };
        // SAFETY: in-bounds per the loop guard.
        let acc = unsafe { _mm256_loadu_pd(accs.as_ptr().add(k)) };
        let w = _mm256_mul_pd(_mm256_mul_pd(acc, tiv), tj);
        // SAFETY: `staged` is 32 writable bytes.
        unsafe { _mm256_storeu_pd(staged.as_mut_ptr(), w) };
        out.extend_from_slice(&staged);
        k += 4;
    }
    ecbs_weights_scalar(ti, term, &js[k..], &accs[k..], out);
}

/// The chunked scalar accumulate: the reference semantics every SIMD
/// variant must reproduce bit for bit, and the only path off x86_64.
pub(crate) fn accumulate_scalar(
    ids: &[u32],
    contribution: f64,
    bid: u32,
    acc: &mut [f64],
    lcb: &mut [u32],
    touched: &mut Vec<u32>,
) {
    for &j in ids {
        let slot = &mut acc[j as usize];
        if *slot == 0.0 {
            touched.push(j);
            lcb[j as usize] = bid;
        }
        *slot += contribution;
    }
}

/// SSE2 variant: ids are pulled 4 at a time with one unaligned 128-bit
/// load; the `f64` read-modify-writes stay scalar (SSE2 has neither
/// gather nor scatter), so this is the chunked-scalar loop with vector id
/// staging — measurably identical output, and the path that keeps the
/// dispatch total on pre-AVX2 x86_64.
///
/// # Safety
///
/// Caller must guarantee every id in `ids` is `< acc.len()` (a swept
/// block's members are ids of its collection, which the scratch covers).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
unsafe fn accumulate_sse2(
    ids: &[u32],
    contribution: f64,
    bid: u32,
    acc: &mut [f64],
    lcb: &mut [u32],
    touched: &mut Vec<u32>,
) {
    use std::arch::x86_64::*;
    let mut chunks = ids.chunks_exact(4);
    let mut staged = [0u32; 4];
    for chunk in &mut chunks {
        // SAFETY: `chunks_exact(4)` guarantees 16 readable bytes; movdqu
        // has no alignment requirement.
        let lanes = unsafe { _mm_loadu_si128(chunk.as_ptr() as *const __m128i) };
        // SAFETY: `staged` is 16 writable bytes.
        unsafe { _mm_storeu_si128(staged.as_mut_ptr() as *mut __m128i, lanes) };
        for &j in &staged {
            let slot = &mut acc[j as usize];
            if *slot == 0.0 {
                touched.push(j);
                lcb[j as usize] = bid;
            }
            *slot += contribution;
        }
    }
    accumulate_scalar(chunks.remainder(), contribution, bid, acc, lcb, touched);
}

/// AVX2 variant: 4 neighbor slots are gathered per iteration
/// (`vgatherdpd`), first touches are detected branchlessly with a packed
/// compare against zero, the broadcast contribution is added across all
/// lanes, and the results are scattered back with scalar stores (AVX2 has
/// no scatter). First-touch bookkeeping walks the 4-bit movemask in lane
/// order, preserving the scalar path's touched-list order exactly.
///
/// # Safety
///
/// Caller must guarantee the CPU supports AVX2 and every id in `ids` is
/// `< acc.len()` (a swept block's members are ids of its collection,
/// which the scratch covers).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn accumulate_avx2(
    ids: &[u32],
    contribution: f64,
    bid: u32,
    acc: &mut [f64],
    lcb: &mut [u32],
    touched: &mut Vec<u32>,
) {
    use std::arch::x86_64::*;
    let base = acc.as_mut_ptr();
    let contrib = _mm256_set1_pd(contribution);
    let zero = _mm256_setzero_pd();
    let mut chunks = ids.chunks_exact(4);
    let mut sums = [0f64; 4];
    for chunk in &mut chunks {
        // SAFETY: `chunks_exact(4)` guarantees 16 readable bytes of ids.
        let idx = unsafe { _mm_loadu_si128(chunk.as_ptr() as *const __m128i) };
        // SAFETY: every id is < acc.len() (caller contract), so all four
        // gathered addresses are in-bounds; scale 8 = size_of::<f64>().
        let slots = unsafe { _mm256_i32gather_pd(base as *const f64, idx, 8) };
        // Lane k is all-ones iff acc[ids[k]] == 0.0 — the first touch.
        let first_touch = _mm256_cmp_pd::<_CMP_EQ_OQ>(slots, zero);
        let mut fresh = _mm256_movemask_pd(first_touch) as u32;
        _mm256_storeu_pd(sums.as_mut_ptr(), _mm256_add_pd(slots, contrib));
        // Scalar scatter: lanes hold distinct ids (strictly increasing
        // block members), so the 4 stores never alias the gather above.
        for (lane, &sum) in sums.iter().enumerate() {
            // SAFETY: in-bounds per the caller contract (id < acc.len(),
            // and lcb has the same length as acc).
            let j = unsafe { *chunk.get_unchecked(lane) };
            unsafe { *base.add(j as usize) = sum };
            if fresh & 1 != 0 {
                touched.push(j);
                // SAFETY: same bound as the acc store.
                unsafe { *lcb.as_mut_ptr().add(j as usize) = bid };
            }
            fresh >>= 1;
        }
    }
    accumulate_scalar(chunks.remainder(), contribution, bid, acc, lcb, touched);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_path(
        path: KernelPath,
        blocks: &[(&[u32], f64, u32)],
        n: usize,
    ) -> (Vec<f64>, Vec<u32>, Vec<u32>) {
        let mut acc = vec![0.0; n];
        let mut lcb = vec![0u32; n];
        let mut touched = Vec::new();
        for &(ids, c, bid) in blocks {
            path.accumulate(ids, c, bid, &mut acc, &mut lcb, &mut touched);
        }
        (acc, lcb, touched)
    }

    #[test]
    fn paths_agree_on_a_mixed_sweep() {
        // 11 ids exercises full chunks plus a 3-lane tail.
        let b1: Vec<u32> = vec![1, 2, 3, 5, 8, 9, 10, 12, 13, 17, 19];
        let b2: Vec<u32> = vec![2, 3, 9, 13, 19];
        let blocks: Vec<(&[u32], f64, u32)> = vec![(&b1, 0.25, 7), (&b2, 0.5, 9)];
        let reference = run_path(KernelPath::Scalar, &blocks, 24);
        let mut paths = vec![];
        #[cfg(target_arch = "x86_64")]
        {
            paths.push(KernelPath::Sse2);
            if std::arch::is_x86_feature_detected!("avx2") {
                paths.push(KernelPath::Avx2);
            }
        }
        for path in paths {
            let got = run_path(path, &blocks, 24);
            assert_eq!(got.0, reference.0, "{path:?} acc");
            assert_eq!(got.1, reference.1, "{path:?} lcb");
            assert_eq!(got.2, reference.2, "{path:?} touched order");
        }
    }

    #[test]
    fn dispatch_policy() {
        // SPER_NO_SIMD forces scalar regardless of features; "0"/"" do not.
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
    }

    #[test]
    fn names_and_codes_are_stable() {
        assert_eq!(KernelPath::Avx2.name(), "avx2");
        assert_eq!(KernelPath::Sse2.name(), "sse2");
        assert_eq!(KernelPath::Scalar.name(), "scalar");
        assert_eq!(KernelPath::Scalar.code(), 0);
        assert_eq!(KernelPath::Sse2.code(), 1);
        assert_eq!(KernelPath::Avx2.code(), 2);
    }

    #[test]
    fn active_is_cached_and_consistent() {
        assert_eq!(KernelPath::active(), KernelPath::active());
    }

    #[test]
    fn clear_touched_zeroes_exactly_the_touched_slots() {
        let mut acc = vec![1.5; 32];
        // 6 ids: one full chunk plus a 2-id tail.
        let touched = [0u32, 3, 7, 12, 21, 31];
        clear_touched(&touched, &mut acc);
        for (j, &v) in acc.iter().enumerate() {
            let expect = if touched.contains(&(j as u32)) {
                0.0
            } else {
                1.5
            };
            assert_eq!(v, expect, "slot {j}");
        }
    }

    #[test]
    fn finalize_kernels_agree_with_scalar() {
        // Terms and accumulations chosen to hit the degenerate-union clamp
        // (js[2]: union = 1.0 + 1.0 - 2.0 = 0.0) and a full chunk + tail.
        let term: Vec<f64> = vec![3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0];
        let js: Vec<u32> = vec![0, 1, 1, 4, 5, 6];
        let accs: Vec<f64> = vec![1.0, 0.5, 2.0, 3.0, 2.5, 1.5];
        let ti = 1.0;
        for (name, run) in [
            (
                "js",
                KernelPath::js_weights
                    as fn(KernelPath, f64, &[f64], &[u32], &[f64], &mut Vec<f64>),
            ),
            ("ecbs", KernelPath::ecbs_weights),
        ] {
            let mut reference = Vec::new();
            run(KernelPath::Scalar, ti, &term, &js, &accs, &mut reference);
            assert_eq!(reference.len(), js.len());
            let mut paths = vec![KernelPath::Sse2];
            #[cfg(target_arch = "x86_64")]
            if std::arch::is_x86_feature_detected!("avx2") {
                paths.push(KernelPath::Avx2);
            }
            for path in paths {
                let mut got = Vec::new();
                run(path, ti, &term, &js, &accs, &mut got);
                let bits = |v: &[f64]| v.iter().map(|w| w.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&reference), "{name} via {path:?}");
            }
        }
        // The clamp actually fired for the degenerate union.
        let mut w = Vec::new();
        KernelPath::Scalar.js_weights(ti, &term, &js, &accs, &mut w);
        assert_eq!(w[2], 0.0);
    }
}
