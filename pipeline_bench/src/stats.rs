//! The benchmark's own arithmetic: fastest repetitions, the tail-percentile rule,
//! the emission digest and the stage-ledger remainder. Kept free of
//! engine types so the unit tests pin the arithmetic alone.

/// Smallest of `xs`; `NaN` for an empty slice.
pub fn fastest(xs: &[f64]) -> f64 {
    xs.iter().copied().reduce(f64::min).unwrap_or(f64::NAN)
}

/// Element-wise minimum of equally long sample series (one per pass of
/// the same work); truncated to the shortest series.
pub fn fastest_per_index(series: &[&[f64]]) -> Vec<f64> {
    let len = series.iter().map(|s| s.len()).min().unwrap_or(0);
    (0..len)
        .map(|i| series.iter().map(|s| s[i]).fold(f64::INFINITY, f64::min))
        .collect()
}

/// Samples strictly beyond the nearest-rank `p`-th percentile of `n`
/// samples: the rank is `ceil(p·n/100)`, everything above it is tail.
pub fn samples_beyond(n: usize, p: u32) -> usize {
    let rank = (p as usize * n).div_ceil(100);
    n - rank.min(n)
}

/// The highest whole percentile of `n` samples that still has at least
/// `min_tail` samples beyond it — the highest percentile a run may
/// report. `None` when even the median lacks such a tail.
pub fn reportable_percentile(n: usize, min_tail: usize) -> Option<u32> {
    (50..=99).rev().find(|&p| samples_beyond(n, p) >= min_tail)
}

/// Nearest-rank `p`-th percentile of `xs`.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(xs: &[f64], p: u32) -> f64 {
    assert!(!xs.is_empty(), "percentile of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p as usize * v.len()).div_ceil(100).max(1);
    v[rank - 1]
}

/// Order-sensitive FNV-1a digest of an emission sequence: each
/// comparison contributes its two profile ids and the exact bits of its
/// weight, so equal digests mean the same pairs, in the same order, with
/// bit-identical weights.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one comparison into the digest.
    pub fn push(&mut self, first: u32, second: u32, weight: f64) {
        let bytes = first
            .to_le_bytes()
            .into_iter()
            .chain(second.to_le_bytes())
            .chain(weight.to_bits().to_le_bytes());
        for b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// Wall time the layer spans of a stage do not cover: `total` minus the
/// sum of its child spans, in nanoseconds (negative when children
/// overlap or outlast the parent, which a sound ledger never shows).
pub fn ledger_remainder(total_ns: u64, parts_ns: &[u64]) -> i64 {
    total_ns as i64 - parts_ns.iter().sum::<u64>() as i64
}

/// The ledger tolerance: a remainder holds when it is non-negative and at
/// most `LEDGER_SHARE` of the stage's wall time or `LEDGER_FLOOR_NS`,
/// whichever is larger.
pub fn ledger_holds(total_ns: u64, remainder_ns: i64) -> bool {
    let tolerance = (total_ns as f64 * LEDGER_SHARE).max(LEDGER_FLOOR_NS as f64);
    remainder_ns >= 0 && remainder_ns as f64 <= tolerance
}

/// Share of a stage's wall time its layer spans may leave unattributed.
pub const LEDGER_SHARE: f64 = 0.02;

/// Absolute unattributed time always tolerated (timer and loop overhead
/// of sub-second stages).
pub const LEDGER_FLOOR_NS: u64 = 2_000_000;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fastest_of_samples_and_per_index() {
        assert_eq!(fastest(&[3.0, 1.5, 2.0]), 1.5);
        assert!(fastest(&[]).is_nan());
        let a = [5.0, 1.0, 4.0];
        let b = [2.0, 3.0, 6.0, 9.0];
        assert_eq!(fastest_per_index(&[&a, &b]), vec![2.0, 1.0, 4.0]);
        assert!(fastest_per_index(&[]).is_empty());
    }

    #[test]
    fn p90_is_the_reportable_percentile_at_100_epochs() {
        // 100 samples: p90 has exactly 10 beyond it, p91 only 9.
        assert_eq!(samples_beyond(100, 90), 10);
        assert_eq!(samples_beyond(100, 91), 9);
        assert_eq!(reportable_percentile(100, 10), Some(90));
        // More samples push the reportable percentile up, fewer down.
        assert_eq!(reportable_percentile(200, 10), Some(95));
        assert_eq!(reportable_percentile(50, 10), Some(80));
        assert_eq!(reportable_percentile(15, 10), None);
    }

    #[test]
    fn nearest_rank_percentile() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50), 50.0);
        assert_eq!(percentile(&xs, 90), 90.0);
        assert_eq!(percentile(&xs, 100), 100.0);
        assert_eq!(percentile(&[7.0], 90), 7.0);
    }

    #[test]
    fn digest_is_stable_and_order_and_bit_sensitive() {
        let seq = [(1u32, 5u32, 0.25f64), (2, 9, 0.125), (3, 4, 0.0)];
        let fold = |items: &[(u32, u32, f64)]| {
            let mut d = Digest::default();
            for &(a, b, w) in items {
                d.push(a, b, w);
            }
            d.value()
        };
        assert_eq!(fold(&seq), fold(&seq));
        let mut swapped = seq;
        swapped.swap(0, 1);
        assert_ne!(fold(&seq), fold(&swapped));
        let mut negated = seq;
        negated[2].2 = -0.0;
        assert_ne!(fold(&seq), fold(&negated), "weight bits, not values");
        assert_ne!(fold(&seq), fold(&seq[..2]));
    }

    #[test]
    fn ledger_remainder_and_tolerance() {
        assert_eq!(ledger_remainder(100, &[30, 50]), 20);
        assert_eq!(ledger_remainder(100, &[60, 50]), -10);
        // 1 s stage: 2 % = 20 ms tolerated, 21 ms not, overlap never.
        let s = 1_000_000_000;
        assert!(ledger_holds(s, 20_000_000));
        assert!(!ledger_holds(s, 21_000_000));
        assert!(!ledger_holds(s, -1));
        // Short stages fall back to the absolute floor.
        assert!(ledger_holds(10_000_000, 1_999_999));
        assert!(!ledger_holds(10_000_000, 2_000_001));
    }
}
