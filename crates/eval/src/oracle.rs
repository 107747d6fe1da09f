//! Progressive ER with a perfect, transitive oracle — the crowdsourced
//! setting the paper discusses in §2 (Vesdapunt et al., Firmani et al.).
//!
//! The paper's own methods deliberately assume *nothing* about the match
//! function; this module implements the complementary setting as an
//! extension: the "crowd" answers pair queries perfectly, answers are
//! transitive (`p1≡p2 ∧ p2≡p3 ⇒ p1≡p3`), and deducible comparisons are
//! never issued. Wrapping any progressive method with the oracle therefore
//! (a) saves queries and (b) lifts progressive recall, quantifying how much
//! the paper's non-oracle setting leaves on the table.

use crate::curve::RecallCurve;
use sper_core::ProgressiveEr;
use sper_model::{GroundTruth, UnionFind};

/// Outcome of an oracle-assisted progressive run.
#[derive(Debug, Clone)]
pub struct OracleRunResult {
    /// Method acronym.
    pub method: &'static str,
    /// Recall (including transitively deduced matches) per *issued query*.
    pub curve: RecallCurve,
    /// Emitted comparisons whose outcome was already deducible and were
    /// therefore not queried.
    pub deduced_skips: u64,
    /// Queries actually issued to the oracle.
    pub queries: u64,
    /// Queries the oracle answered positively (cluster merges). Transitive
    /// deduction shows up as `positive_queries < matches_found`.
    pub positive_queries: u64,
}

/// Runs `method` against a perfect transitive oracle until `max_queries`
/// queries have been issued (or the method is exhausted).
///
/// Emission semantics: every comparison the method produces is inspected;
/// if both endpoints are already in the same confirmed cluster, the
/// comparison is *deduced* (skipped, free). Otherwise the oracle is
/// queried; positive answers merge the clusters, and recall counts every
/// ground-truth pair already implied by the confirmed clusters.
pub fn run_with_oracle(
    mut method: Box<dyn ProgressiveEr + '_>,
    truth: &GroundTruth,
    n_profiles: usize,
    max_queries: u64,
) -> OracleRunResult {
    let name = method.method_name();
    let mut uf = UnionFind::new(n_profiles);
    // Confirmed cluster sizes drive the deduced-match count: merging
    // clusters of sizes a and b confirms a·b new pairs.
    let mut cluster_size: Vec<u64> = vec![1; n_profiles];
    let mut confirmed_pairs: u64 = 0;
    let mut queries: u64 = 0;
    let mut positive_queries: u64 = 0;
    let mut deduced_skips: u64 = 0;
    let mut match_indices: Vec<u64> = Vec::new();
    let total = truth.num_matches() as u64;

    while queries < max_queries && confirmed_pairs < total {
        let Some(c) = method.next() else { break };
        let (a, b) = (c.pair.first.index(), c.pair.second.index());
        if uf.connected(a, b) {
            deduced_skips += 1;
            continue;
        }
        queries += 1;
        if truth.is_match_pair(c.pair) {
            positive_queries += 1;
            let (ra, rb) = (uf.find(a), uf.find(b));
            let gained = cluster_size[ra] * cluster_size[rb];
            uf.union(a, b);
            let root = uf.find(a);
            cluster_size[root] = cluster_size[ra] + cluster_size[rb];
            // Each of the `gained` newly implied pairs is credited to this
            // query; the curve stores one index per found match.
            for _ in 0..gained {
                confirmed_pairs += 1;
                if confirmed_pairs <= total {
                    match_indices.push(queries);
                }
            }
        }
    }

    OracleRunResult {
        method: name,
        curve: RecallCurve::new(truth.num_matches(), queries, match_indices),
        deduced_skips,
        queries,
        positive_queries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sper_blocking::fixtures::{fig3_ground_truth, fig3_profiles};
    use sper_blocking::{TokenBlocking, WeightingScheme};
    use sper_core::pbs::Pbs;
    use sper_core::sa_psn::SaPsn;

    #[test]
    fn oracle_deduces_transitive_matches() {
        // Fig. 3 truth: {p1,p2,p3} needs only 2 queries to confirm all 3
        // pairs; the third pair is deduced.
        let profiles = fig3_profiles();
        let truth = fig3_ground_truth();
        let blocks = TokenBlocking.build(&profiles);
        let pbs = Box::new(Pbs::from_blocks(blocks, WeightingScheme::Arcs));
        let result = run_with_oracle(pbs, &truth, profiles.len(), 1_000);
        assert_eq!(result.curve.matches_found(), truth.num_matches());
        // 4 pairs confirmed with exactly 3 positive queries (2 for the
        // triple + 1 for the pair): one pair was transitively deduced.
        assert_eq!(result.positive_queries, 3);
        assert!(
            (result.positive_queries as usize) < result.curve.matches_found(),
            "transitivity must save at least one positive query"
        );
    }

    #[test]
    fn oracle_lifts_progressive_recall_of_naive_methods() {
        let profiles = fig3_profiles();
        let truth = fig3_ground_truth();
        let sa = Box::new(SaPsn::new(&profiles, 7));
        let with_oracle = run_with_oracle(sa, &truth, profiles.len(), 1_000);
        assert_eq!(with_oracle.curve.matches_found(), truth.num_matches());
        // The 3-cluster needs only 2 positive answers for its 3 pairs.
        assert!((with_oracle.positive_queries as usize) < truth.num_matches());
    }

    #[test]
    fn query_budget_respected() {
        let profiles = fig3_profiles();
        let truth = fig3_ground_truth();
        let sa = Box::new(SaPsn::new(&profiles, 7));
        let result = run_with_oracle(sa, &truth, profiles.len(), 3);
        assert!(result.queries <= 3);
    }
}
