//! Meta-blocking edge-weighting schemes (§3.2, \[12\], \[20\]).
//!
//! All schemes infer the matching likelihood of a pair exclusively from the
//! blocks the two profiles share:
//!
//! * **ARCS** — Aggregate Reciprocal Comparisons: `Σ 1/‖b_k‖` over shared
//!   blocks; smaller (more distinctive) blocks contribute more. The paper's
//!   default (§7 workflow step 4).
//! * **CBS** — Common Blocks: `|B_i ∩ B_j|`.
//! * **JS** — Jaccard of block lists: `|B_i ∩ B_j| / |B_i ∪ B_j|`.
//! * **ECBS** — Enhanced CBS: `CBS · ln(|B|/|B_i|) · ln(|B|/|B_j|)`.
//!
//! Every scheme decomposes into a *per-shared-block contribution* plus a
//! *finalization*, so both the pairwise path (Profile-Index intersection,
//! used by PBS) and the accumulation path (neighborhood sweep, used by PPS)
//! produce identical weights.

/// An edge-weighting scheme of the blocking graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum WeightingScheme {
    /// Aggregate Reciprocal Comparisons Scheme (paper default).
    #[default]
    Arcs,
    /// Common Blocks Scheme.
    Cbs,
    /// Jaccard Scheme over block lists.
    Js,
    /// Enhanced Common Blocks Scheme.
    Ecbs,
}

impl WeightingScheme {
    /// All schemes, for ablation sweeps.
    pub const ALL: [WeightingScheme; 4] = [
        WeightingScheme::Arcs,
        WeightingScheme::Cbs,
        WeightingScheme::Js,
        WeightingScheme::Ecbs,
    ];

    /// Stable wire code of the scheme — the persistence format
    /// (`sper-store`) stores this byte; codes are append-only and never
    /// reassigned.
    pub fn code(self) -> u8 {
        match self {
            WeightingScheme::Arcs => 0,
            WeightingScheme::Cbs => 1,
            WeightingScheme::Js => 2,
            WeightingScheme::Ecbs => 3,
        }
    }

    /// The scheme with the given wire code, if any.
    pub fn from_code(code: u8) -> Option<Self> {
        Self::ALL.into_iter().find(|s| s.code() == code)
    }

    /// Contribution of one shared block with the given cardinality `‖b‖`.
    ///
    /// ARCS adds the reciprocal cardinality; all counting-based schemes add
    /// 1 (their accumulated value is the CBS count, refined in
    /// [`Self::finalize`]).
    #[inline]
    pub fn per_block(self, block_cardinality: u64) -> f64 {
        match self {
            WeightingScheme::Arcs => 1.0 / block_cardinality.max(1) as f64,
            _ => 1.0,
        }
    }

    /// Finalizes an accumulated per-block sum into the edge weight.
    ///
    /// * `acc` — the sum of [`Self::per_block`] contributions;
    /// * `n_blocks_i`, `n_blocks_j` — `|B_i|`, `|B_j|` (block-list lengths);
    /// * `total_blocks` — `|B|`.
    #[inline]
    pub fn finalize(
        self,
        acc: f64,
        n_blocks_i: usize,
        n_blocks_j: usize,
        total_blocks: usize,
    ) -> f64 {
        match self {
            WeightingScheme::Arcs | WeightingScheme::Cbs => acc,
            WeightingScheme::Js => {
                let union = n_blocks_i as f64 + n_blocks_j as f64 - acc;
                if union <= 0.0 {
                    0.0
                } else {
                    acc / union
                }
            }
            WeightingScheme::Ecbs => {
                let total = total_blocks.max(1) as f64;
                let li = (total / n_blocks_i.max(1) as f64).ln();
                let lj = (total / n_blocks_j.max(1) as f64).ln();
                acc * li * lj
            }
        }
    }

    /// Short name used in reports (`ARCS`, `CBS`, `JS`, `ECBS`).
    pub fn name(self) -> &'static str {
        match self {
            WeightingScheme::Arcs => "ARCS",
            WeightingScheme::Cbs => "CBS",
            WeightingScheme::Js => "JS",
            WeightingScheme::Ecbs => "ECBS",
        }
    }
}

impl std::fmt::Display for WeightingScheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Precomputed per-profile finalization terms of one scheme over one
/// substrate — the edge-emission fast path of the spacc kernel.
///
/// [`WeightingScheme::finalize`] recomputes per-endpoint terms for every
/// edge: JS re-derives both block-list lengths, ECBS additionally takes
/// **two logarithms per edge**. Over tens of millions of edges those
/// dominate the weighting hot loop, yet each term depends only on one
/// endpoint — `|P|` values in total. This table hoists them:
///
/// * **ARCS/CBS** — finalization is the identity; the table stores nothing.
/// * **JS** — `term[p] = |B_p| as f64`; the weight is
///   `acc / (term[i] + term[j] - acc)`.
/// * **ECBS** — `term[p] = ln(|B| / max(|B_p|, 1))`; the weight is
///   `acc * term[i] * term[j]`.
///
/// Every arithmetic step reproduces [`WeightingScheme::finalize`]'s exact
/// expression over the exact same inputs (`usize → f64` conversions are
/// exact for any realistic block count, and the multiply/divide order is
/// unchanged), so table-based weights are **bit-identical** to the
/// per-edge path — pinned by `tests/simd_equivalence.rs`.
#[derive(Debug, Clone)]
pub struct FinalizeTable {
    scheme: WeightingScheme,
    /// Per-profile endpoint term (empty for ARCS/CBS).
    term: Vec<f64>,
}

impl FinalizeTable {
    /// Builds the table for `scheme` over the profiles of `index`.
    pub fn build(
        index: &crate::profile_index::ProfileIndex,
        scheme: WeightingScheme,
        n_profiles: usize,
    ) -> Self {
        let term = match scheme {
            WeightingScheme::Arcs | WeightingScheme::Cbs => Vec::new(),
            WeightingScheme::Js => (0..n_profiles)
                .map(|p| index.blocks_of(sper_model::ProfileId(p as u32)).len() as f64)
                .collect(),
            WeightingScheme::Ecbs => {
                let total = index.total_blocks().max(1) as f64;
                (0..n_profiles)
                    .map(|p| {
                        let len = index.blocks_of(sper_model::ProfileId(p as u32)).len();
                        (total / len.max(1) as f64).ln()
                    })
                    .collect()
            }
        };
        Self { scheme, term }
    }

    /// The scheme this table finalizes for.
    pub fn scheme(&self) -> WeightingScheme {
        self.scheme
    }

    /// Finalizes the accumulated per-block sum `acc` of the edge `(i, j)`
    /// — bit-identical to [`WeightingScheme::finalize`] with the
    /// endpoints' block-list lengths.
    #[inline]
    pub fn weight(&self, i: u32, j: u32, acc: f64) -> f64 {
        match self.scheme {
            WeightingScheme::Arcs | WeightingScheme::Cbs => acc,
            WeightingScheme::Js => {
                let union = self.term[i as usize] + self.term[j as usize] - acc;
                if union <= 0.0 {
                    0.0
                } else {
                    acc / union
                }
            }
            WeightingScheme::Ecbs => acc * self.term[i as usize] * self.term[j as usize],
        }
    }

    /// Finalizes one whole drained neighborhood at once: `js`/`accs` are
    /// profile `i`'s neighbors and accumulated sums (parallel slices), and
    /// `out` is cleared and refilled with one weight per neighbor —
    /// bit-identical to calling [`Self::weight`] per edge, but the
    /// counting schemes' copy and the JS/ECBS arithmetic run chunked
    /// through the dispatched kernel (`path`), 4 lanes per iteration on
    /// AVX2 hosts.
    pub fn weights_into(
        &self,
        path: crate::simd::KernelPath,
        i: u32,
        js: &[u32],
        accs: &[f64],
        out: &mut Vec<f64>,
    ) {
        debug_assert_eq!(js.len(), accs.len());
        match self.scheme {
            WeightingScheme::Arcs | WeightingScheme::Cbs => {
                out.clear();
                out.extend_from_slice(accs);
            }
            WeightingScheme::Js => {
                path.js_weights(self.term[i as usize], &self.term, js, accs, out)
            }
            WeightingScheme::Ecbs => {
                path.ecbs_weights(self.term[i as usize], &self.term, js, accs, out)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arcs_per_block_is_reciprocal() {
        assert_eq!(WeightingScheme::Arcs.per_block(4), 0.25);
        assert_eq!(WeightingScheme::Arcs.per_block(1), 1.0);
        // Degenerate zero-cardinality blocks must not divide by zero.
        assert_eq!(WeightingScheme::Arcs.per_block(0), 1.0);
    }

    #[test]
    fn counting_schemes_accumulate_ones() {
        for s in [
            WeightingScheme::Cbs,
            WeightingScheme::Js,
            WeightingScheme::Ecbs,
        ] {
            assert_eq!(s.per_block(99), 1.0);
        }
    }

    #[test]
    fn js_is_jaccard() {
        // 2 shared, |Bi| = 4, |Bj| = 3 → 2 / (4 + 3 − 2) = 0.4.
        let w = WeightingScheme::Js.finalize(2.0, 4, 3, 100);
        assert!((w - 0.4).abs() < 1e-12);
    }

    #[test]
    fn ecbs_scales_cbs_by_idf() {
        let w = WeightingScheme::Ecbs.finalize(2.0, 10, 10, 100);
        let expected = 2.0 * (10.0f64).ln() * (10.0f64).ln();
        assert!((w - expected).abs() < 1e-12);
    }

    #[test]
    fn arcs_finalize_is_identity() {
        assert_eq!(WeightingScheme::Arcs.finalize(1.57, 5, 6, 7), 1.57);
    }

    #[test]
    fn js_handles_degenerate_inputs() {
        assert_eq!(WeightingScheme::Js.finalize(0.0, 0, 0, 10), 0.0);
    }

    #[test]
    fn names_roundtrip() {
        for s in WeightingScheme::ALL {
            assert_eq!(format!("{s}"), s.name());
        }
    }

    #[test]
    fn weights_into_matches_per_edge_weight() {
        use crate::fixtures::fig3_profiles;
        use crate::profile_index::ProfileIndex;
        use crate::simd::KernelPath;
        use crate::token_blocking::TokenBlocking;
        let mut blocks = TokenBlocking::default().build(&fig3_profiles());
        blocks.sort_by_cardinality();
        let index = ProfileIndex::build(&blocks);
        let n = blocks.n_profiles();
        let js: Vec<u32> = (0..n as u32).collect();
        let accs: Vec<f64> = (0..n).map(|k| 1.0 + k as f64 * 0.5).collect();
        let mut out = Vec::new();
        for scheme in WeightingScheme::ALL {
            let table = FinalizeTable::build(&index, scheme, n);
            for i in 0..n as u32 {
                table.weights_into(KernelPath::active(), i, &js, &accs, &mut out);
                assert_eq!(out.len(), js.len());
                for (k, &j) in js.iter().enumerate() {
                    assert_eq!(
                        out[k].to_bits(),
                        table.weight(i, j, accs[k]).to_bits(),
                        "{scheme} ({i}, {j})"
                    );
                }
            }
        }
    }

    #[test]
    fn finalize_table_is_bit_identical_to_finalize() {
        use crate::fixtures::fig3_profiles;
        use crate::profile_index::ProfileIndex;
        use crate::token_blocking::TokenBlocking;
        use sper_model::ProfileId;
        let mut blocks = TokenBlocking::default().build(&fig3_profiles());
        blocks.sort_by_cardinality();
        let index = ProfileIndex::build(&blocks);
        let n = blocks.n_profiles();
        for scheme in WeightingScheme::ALL {
            let table = FinalizeTable::build(&index, scheme, n);
            assert_eq!(table.scheme(), scheme);
            for i in 0..n as u32 {
                for j in 0..n as u32 {
                    for acc in [0.5, 1.0, 2.0, 3.25] {
                        let li = index.blocks_of(ProfileId(i)).len();
                        let lj = index.blocks_of(ProfileId(j)).len();
                        let reference = scheme.finalize(acc, li, lj, index.total_blocks());
                        assert_eq!(
                            table.weight(i, j, acc).to_bits(),
                            reference.to_bits(),
                            "{scheme} ({i}, {j}) acc {acc}"
                        );
                    }
                }
            }
        }
    }
}
