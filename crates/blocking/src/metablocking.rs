//! Batch Meta-blocking (§3.2, \[12\], \[20\]): restructure a redundancy-positive
//! block collection into a new one with similar recall but far higher
//! precision by pruning low-weight blocking-graph edges.
//!
//! The paper's progressive methods *replace* this batch pruning with on-line
//! ordering; the batch algorithms are implemented here because (a) they are
//! the substrate the equality-based methods generalize, and (b) they give
//! the Batch-ER baseline that the *Improved Early Quality* requirement
//! (§3.1) is defined against.
//!
//! Implemented pruning schemes (the standard meta-blocking family):
//!
//! * **WEP** — Weighted Edge Pruning: keep edges above the global mean
//!   weight.
//! * **CEP** — Cardinality Edge Pruning: keep the globally top-`K` edges,
//!   `K = Σ|b|/2` by convention.
//! * **WNP** — Weighted Node Pruning: per node, keep edges above the local
//!   mean; an edge survives if either endpoint keeps it (redefined-WNP).
//! * **CNP** — Cardinality Node Pruning: per node, keep the top-`k` edges,
//!   `k = Σ|b|/|P|` by convention.
//!
//! The node-centric schemes have a **zero-materialization** route:
//! [`prune_blocks`] runs per-node sparse-accumulator sweeps
//! ([`crate::spacc`]) directly on the block collection — identical output
//! to pruning a materialized [`BlockingGraph`], at `O(|P|)` peak memory
//! instead of `O(|E|)`.

use crate::block::BlockCollection;
use crate::graph::BlockingGraph;
use crate::parallel::Parallelism;
use crate::profile_index::ProfileIndex;
use crate::spacc::WeightAccumulator;
use crate::weights::WeightingScheme;
use sper_model::{Pair, ProfileId};
use sper_text::FxHashMap;

/// Which meta-blocking pruning algorithm to apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PruningScheme {
    /// Weighted Edge Pruning: global mean-weight threshold.
    Wep,
    /// Cardinality Edge Pruning: global top-`K` edges.
    Cep {
        /// Number of edges to keep.
        k: usize,
    },
    /// Weighted Node Pruning: per-node mean threshold, union semantics.
    Wnp,
    /// Cardinality Node Pruning: per-node top-`k`, union semantics.
    Cnp {
        /// Edges kept per node.
        k: usize,
    },
}

impl PruningScheme {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            PruningScheme::Wep => "WEP",
            PruningScheme::Cep { .. } => "CEP",
            PruningScheme::Wnp => "WNP",
            PruningScheme::Cnp { .. } => "CNP",
        }
    }
}

/// Non-increasing weight, ties by ascending id — the single comparator
/// behind every pruning order (global output sort, CNP's per-node top-`k`,
/// both the graph-based and the streaming path). The graph and streaming
/// routes must tie-break identically for their equivalence to hold, so
/// there is exactly one definition.
fn weight_desc<T: Ord>(a: &(T, f64), b: &(T, f64)) -> std::cmp::Ordering {
    b.1.partial_cmp(&a.1)
        .unwrap_or(std::cmp::Ordering::Equal)
        .then_with(|| a.0.cmp(&b.0))
}

/// Applies a node-centric scheme's retention rule to one node's weighted
/// neighborhood (in adjacency enumeration order — WNP's mean is an
/// order-sensitive float sum), handing every kept `(neighbor, weight)` to
/// `keep`. The **single** definition of the WNP mean threshold and the
/// CNP top-`k` selection: the graph-based and streaming pruning routes
/// both run it, so their equivalence cannot drift.
fn select_node_edges(
    scheme: PruningScheme,
    neighborhood: &mut [(ProfileId, f64)],
    mut keep: impl FnMut(ProfileId, f64),
) {
    if neighborhood.is_empty() {
        return;
    }
    match scheme {
        PruningScheme::Wnp => {
            let mean: f64 =
                neighborhood.iter().map(|&(_, w)| w).sum::<f64>() / neighborhood.len() as f64;
            for &(other, w) in neighborhood.iter() {
                if w >= mean {
                    keep(other, w);
                }
            }
        }
        PruningScheme::Cnp { k } => {
            neighborhood.sort_by(weight_desc);
            for &(other, w) in neighborhood.iter().take(k) {
                keep(other, w);
            }
        }
        PruningScheme::Wep | PruningScheme::Cep { .. } => {
            unreachable!("edge-centric schemes have no per-node pass")
        }
    }
}

/// One node's retained edges under a node-centric scheme (WNP/CNP),
/// inserted into `keep`. `neighborhood` is a reusable per-caller buffer
/// (cleared here) so the per-node loop of [`prune`] allocates nothing.
fn keep_for_node(
    graph: &BlockingGraph,
    scheme: PruningScheme,
    node: ProfileId,
    neighborhood: &mut Vec<(ProfileId, f64)>,
    keep: &mut std::collections::HashSet<Pair>,
) {
    neighborhood.clear();
    neighborhood.extend(graph.neighbors(node));
    select_node_edges(scheme, neighborhood, |other, _| {
        keep.insert(Pair::new(node, other));
    });
}

/// Applies `scheme` to the blocking graph, returning the retained
/// comparisons sorted by non-increasing weight (ties by pair id).
pub fn prune(graph: &BlockingGraph, scheme: PruningScheme) -> Vec<(Pair, f64)> {
    let mut kept: Vec<(Pair, f64)> = match scheme {
        PruningScheme::Wep => {
            let n = graph.num_edges();
            if n == 0 {
                return Vec::new();
            }
            let mean: f64 = graph.edges().map(|(_, w)| w).sum::<f64>() / n as f64;
            graph.edges().filter(|&(_, w)| w >= mean).collect()
        }
        PruningScheme::Cep { k } => {
            let mut edges: Vec<(Pair, f64)> = graph.edges().collect();
            edges.sort_by(weight_desc);
            edges.truncate(k);
            edges
        }
        PruningScheme::Wnp | PruningScheme::Cnp { .. } => {
            let mut keep: std::collections::HashSet<Pair> = std::collections::HashSet::new();
            let mut neighborhood: Vec<(ProfileId, f64)> = Vec::new();
            for node in 0..graph.num_nodes() {
                keep_for_node(
                    graph,
                    scheme,
                    ProfileId(node as u32),
                    &mut neighborhood,
                    &mut keep,
                );
            }
            graph.edges().filter(|(p, _)| keep.contains(p)).collect()
        }
    };
    kept.sort_by(weight_desc);
    kept
}

/// One node's retained edges under a node-centric scheme, computed
/// **without a materialized graph**: the sparse-accumulator sweep produces
/// the node's full weighted neighborhood, sorted into the exact order the
/// materialized adjacency would enumerate it (so WNP's mean is the same
/// float sum bit for bit), and the kept `(pair, weight)` entries land in
/// `keep` — the weight is recorded alongside because there is no edge
/// list to look it up from later.
// Private per-node unit of `prune_blocks`; the extra parameters are the
// reusable buffers.
#[allow(clippy::too_many_arguments)]
fn keep_for_node_streaming(
    blocks: &BlockCollection,
    index: &ProfileIndex,
    weighting: WeightingScheme,
    scheme: PruningScheme,
    node: ProfileId,
    acc: &mut WeightAccumulator,
    neighborhood: &mut Vec<(ProfileId, f64)>,
    keep: &mut FxHashMap<Pair, f64>,
) {
    acc.sweep(blocks, index, weighting, node, None);
    if acc.is_empty() {
        return;
    }
    // The materialized graph stores edges block-major (first occurrence)
    // and a node's partners within one block appear in ascending id order;
    // sorting by (least common block, id) therefore reproduces the
    // adjacency enumeration order exactly.
    acc.sort_touched_by_adjacency();
    // Finalize each neighbor once, in adjacency order (the order the mean
    // must be summed in).
    neighborhood.clear();
    neighborhood.extend(acc.touched().iter().map(|&j| {
        let j = ProfileId(j);
        (j, acc.finalize(index, weighting, node, j))
    }));
    select_node_edges(scheme, neighborhood, |other, w| {
        keep.insert(Pair::new(node, other), w);
    });
    acc.reset();
}

/// Applies `scheme` to the blocking graph of `blocks` under `weighting`
/// **without materializing it**, on up to `par` workers: the node-centric
/// schemes (WNP, CNP) run per-node sparse-accumulator sweeps directly on
/// the block collection, so peak memory is `O(|P| + |kept|)` instead of
/// `O(|E|)`. The edge-centric schemes (WEP, CEP) need every edge weight at
/// once by definition and delegate to [`prune`] over a
/// [`BlockingGraph::build`] on the same workers.
///
/// Output is identical to `prune(&BlockingGraph::build(blocks, weighting,
/// par), scheme)` — same comparisons, same weights, same order — at every
/// worker count.
pub fn prune_blocks(
    blocks: &BlockCollection,
    weighting: WeightingScheme,
    scheme: PruningScheme,
    par: Parallelism,
) -> Vec<(Pair, f64)> {
    if matches!(scheme, PruningScheme::Wep | PruningScheme::Cep { .. }) {
        return prune(&BlockingGraph::build(blocks, weighting, par), scheme);
    }
    // Same break-even guard as the graph build, gated on the comparison
    // volume the sweeps distribute.
    let par = par.break_even(blocks.total_comparisons().min(usize::MAX as u64) as usize);
    let index = ProfileIndex::build(blocks);
    let n = blocks.n_profiles();
    // Work-stealing chunks: one scratch pair per worker (reused across
    // every chunk the worker claims), one keep-map per chunk. The union
    // below is order-independent, so stealing cannot change the output.
    let keep_maps = par.steal_chunks(
        n,
        crate::parallel::STEAL_MIN_CHUNK,
        || (WeightAccumulator::new(n), Vec::<(ProfileId, f64)>::new()),
        |(acc, neighborhood), range, _chunk| {
            let mut keep: FxHashMap<Pair, f64> = FxHashMap::default();
            for node in range {
                keep_for_node_streaming(
                    blocks,
                    &index,
                    weighting,
                    scheme,
                    ProfileId(node as u32),
                    acc,
                    neighborhood,
                    &mut keep,
                );
            }
            keep
        },
    );
    // An edge can be kept from both endpoints (possibly in different
    // chunks) with the same symmetric weight — the map union dedups it.
    let mut keep_maps = keep_maps.into_iter();
    let mut kept = keep_maps.next().unwrap_or_default();
    for keep in keep_maps {
        kept.extend(keep);
    }
    let mut kept: Vec<(Pair, f64)> = kept.into_iter().collect();
    kept.sort_by(weight_desc);
    kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{fig3_ground_truth, fig3_profiles};
    use crate::token_blocking::TokenBlocking;
    use crate::weights::WeightingScheme;

    fn fig3_graph() -> BlockingGraph {
        let mut blocks = TokenBlocking::default().build(&fig3_profiles());
        blocks.sort_by_cardinality();
        BlockingGraph::build(&blocks, WeightingScheme::Arcs, Parallelism::SEQUENTIAL)
    }

    #[test]
    fn wep_keeps_above_mean() {
        let g = fig3_graph();
        let kept = prune(&g, PruningScheme::Wep);
        let mean: f64 = g.edges().map(|(_, w)| w).sum::<f64>() / g.num_edges() as f64;
        assert!(!kept.is_empty() && kept.len() < g.num_edges());
        assert!(kept.iter().all(|&(_, w)| w >= mean));
        // All true matches survive WEP on Fig. 3 (their weights dominate).
        let truth = fig3_ground_truth();
        let surviving_matches = kept.iter().filter(|(p, _)| truth.is_match_pair(*p)).count();
        assert_eq!(surviving_matches, 4);
    }

    #[test]
    fn cep_keeps_exactly_k() {
        let g = fig3_graph();
        let kept = prune(&g, PruningScheme::Cep { k: 3 });
        assert_eq!(kept.len(), 3);
        // The three strongest edges of Fig. 3(c): c45, c12, then one of the
        // 0.57 edges.
        assert!(kept[0].1 > kept[1].1 && kept[1].1 > kept[2].1 - 1e-12);
    }

    #[test]
    fn wnp_union_semantics() {
        let g = fig3_graph();
        let kept = prune(&g, PruningScheme::Wnp);
        // Node pruning retains at least the strongest edge per node.
        for node in 0..g.num_nodes() as u32 {
            let node = sper_model::ProfileId(node);
            if g.degree(node) == 0 {
                continue;
            }
            let best = g
                .neighbors(node)
                .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
                .unwrap();
            let best_pair = Pair::new(node, best.0);
            assert!(
                kept.iter().any(|(p, _)| *p == best_pair),
                "node {node:?}'s best edge pruned"
            );
        }
    }

    #[test]
    fn cnp_bounds_retained_set() {
        let g = fig3_graph();
        let kept = prune(&g, PruningScheme::Cnp { k: 1 });
        // ≤ one retained edge per node (union over nodes).
        assert!(kept.len() <= g.num_nodes());
        assert!(!kept.is_empty());
    }

    #[test]
    fn output_sorted_descending() {
        let g = fig3_graph();
        for scheme in [
            PruningScheme::Wep,
            PruningScheme::Cep { k: 10 },
            PruningScheme::Wnp,
            PruningScheme::Cnp { k: 2 },
        ] {
            let kept = prune(&g, scheme);
            assert!(
                kept.windows(2).all(|w| w[0].1 >= w[1].1),
                "{} output not sorted",
                scheme.name()
            );
        }
    }

    #[test]
    fn empty_graph() {
        let g = BlockingGraph::from_edges(4, Vec::new());
        assert!(prune(&g, PruningScheme::Wep).is_empty());
        assert!(prune(&g, PruningScheme::Cep { k: 5 }).is_empty());
    }

    #[test]
    fn streaming_prune_matches_materialized_for_every_scheme() {
        // The zero-materialization path must reproduce the graph-based
        // pruning exactly: same comparisons, same weights, same order —
        // dirty and (via the raw token blocks) arbitrary block orders.
        let mut blocks = TokenBlocking::default().build(&fig3_profiles());
        for sorted in [false, true] {
            if sorted {
                blocks.sort_by_cardinality();
            }
            let g = BlockingGraph::build(&blocks, WeightingScheme::Arcs, Parallelism::SEQUENTIAL);
            for scheme in [
                PruningScheme::Wep,
                PruningScheme::Cep { k: 7 },
                PruningScheme::Wnp,
                PruningScheme::Cnp { k: 2 },
            ] {
                let reference = prune(&g, scheme);
                for threads in [1, 2, 4] {
                    let par = Parallelism::new(threads).unwrap();
                    let streamed = prune_blocks(&blocks, WeightingScheme::Arcs, scheme, par);
                    assert_eq!(
                        streamed,
                        reference,
                        "{} at {threads} (sorted {sorted})",
                        scheme.name()
                    );
                }
            }
        }
    }
}
