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
}
