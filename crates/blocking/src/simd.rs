//! Runtime-dispatched SIMD kernels for the sparse-accumulator sweep.
//!
//! The spacc hot loops ([`crate::spacc`]) are scatter/gather over a dense
//! per-profile scratch: for every valid co-occurrence `(i, j)` the sweep
//! reads `acc[j]`, tests it for first touch, and adds the block's
//! contribution. This module provides three implementations of that
//! accumulate step, plus the chunked clear that resets the scratch:
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
//! pinned by `tests/simd_equivalence.rs` for every scheme and ER kind.
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

/// Zeroes the touched slots of `acc` — the reset hot loop. Chunked with a
/// 4-wide unroll for store-port ILP; there is no vector form because the
/// stores are a scatter, which x86_64 lacks below AVX-512.
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
}
