//! The Blocking Graph of Meta-blocking (§3.2, \[12\]).
//!
//! An undirected weighted graph whose nodes are profiles and whose edges are
//! the distinct valid comparisons of a redundancy-positive block collection,
//! weighted by a [`WeightingScheme`].
//!
//! As the paper notes, *materializing and sorting all edges is impractical
//! for large datasets*; the progressive methods therefore never materialize
//! this type — PBS and PPS derive edge weights lazily from the
//! [`ProfileIndex`] type. `BlockingGraph` is
//! provided for analysis, small-scale experiments, tests (it encodes
//! Fig. 3(c) exactly) and as the reference implementation that the lazy
//! paths are property-tested against.
//!
//! Construction runs on the sparse-accumulator kernel ([`crate::spacc`]):
//! per-profile neighborhood sweeps produce every distinct weighted edge
//! with `O(1)` amortized work per co-occurrence, and a stable counting
//! sort by least-common-block id restores the historical block-major
//! first-occurrence edge order bit for bit (the seed seen-set builder is
//! preserved as [`crate::legacy::legacy_graph_edges`] and property-tested
//! against this one).
//!
//! The adjacency is stored in CSR form (offsets + one packed edge-index
//! array) — neighborhood sweeps are sequential scans over one allocation.

use crate::block::BlockCollection;
use crate::parallel::Parallelism;
use crate::profile_index::ProfileIndex;
use crate::weights::WeightingScheme;
use sper_model::{Pair, ProfileId};

/// A materialized blocking graph.
#[derive(Debug, Clone)]
pub struct BlockingGraph {
    n_profiles: usize,
    /// Distinct valid comparisons with their weights, in unspecified order.
    edges: Vec<(Pair, f64)>,
    /// CSR adjacency: edge indices of node `p` are
    /// `adj_edges[adj_offsets[p]..adj_offsets[p+1]]`.
    adj_offsets: Vec<u32>,
    adj_edges: Vec<u32>,
}

impl BlockingGraph {
    /// Materializes the graph of `blocks` under `scheme` on up to `par`
    /// workers.
    ///
    /// Every distinct valid comparison entailed by the blocks becomes one
    /// edge; repeated co-occurrences are merged (that is what makes the
    /// blocks *redundancy-positive*: the weight grows with the number of
    /// shared blocks, it does not duplicate edges).
    ///
    /// The sweeps shard over contiguous profile ranges, each edge tagged
    /// with its least common block (the LeCoBI witness, §5.2.1); the
    /// stable counting sort by that tag restores the block-major
    /// first-occurrence order, so the graph — including its internal edge
    /// order — is identical at every worker count. The request passes the
    /// spawn break-even guard ([`Parallelism::break_even`]) on the
    /// comparison volume ‖B‖ the sweeps distribute, not on the profile
    /// count: a small dense collection can still carry millions of
    /// co-occurrences.
    pub fn build(blocks: &BlockCollection, scheme: WeightingScheme, par: Parallelism) -> Self {
        let par = par.break_even(blocks.total_comparisons().min(usize::MAX as u64) as usize);
        let mut span = sper_obs::span!(
            "blocking.graph_build",
            blocks = blocks.len(),
            threads = par.get(),
        );
        let index = ProfileIndex::build(blocks);
        // Sparse-accumulator sweeps instead of per-pair merges: no hashed
        // `seen` set, no `O(|B_i| + |B_j|)` intersection per pair — and the
        // counting sort inside restores the seed builder's edge order.
        let edges = crate::spacc::weighted_edge_list(blocks, &index, scheme, par);
        span.record("edges", edges.len());
        Self::from_edges(blocks.n_profiles(), edges)
    }

    /// Assembles a graph from pre-weighted edges. Edges must be distinct
    /// pairs.
    pub fn from_edges(n_profiles: usize, edges: Vec<(Pair, f64)>) -> Self {
        // Two counting passes build the CSR adjacency without per-node Vecs.
        let mut counts = vec![0u32; n_profiles];
        for (pair, _) in &edges {
            counts[pair.first.index()] += 1;
            counts[pair.second.index()] += 1;
        }
        let adj_offsets = crate::block::prefix_offsets(&counts);
        let mut cursor = adj_offsets.clone();
        let mut adj_edges = vec![0u32; *adj_offsets.last().unwrap() as usize];
        for (i, (pair, _)) in edges.iter().enumerate() {
            for endpoint in [pair.first, pair.second] {
                let at = &mut cursor[endpoint.index()];
                adj_edges[*at as usize] = i as u32;
                *at += 1;
            }
        }
        Self {
            n_profiles,
            edges,
            adj_offsets,
            adj_edges,
        }
    }

    /// Edge indices incident to `p`.
    #[inline]
    fn adjacency(&self, p: ProfileId) -> &[u32] {
        &self.adj_edges
            [self.adj_offsets[p.index()] as usize..self.adj_offsets[p.index() + 1] as usize]
    }

    /// `|V_B|`: number of profiles (nodes), including isolated ones.
    pub fn num_nodes(&self) -> usize {
        self.n_profiles
    }

    /// `|E_B|`: number of distinct weighted edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Iterates `(pair, weight)` edges.
    pub fn edges(&self) -> impl Iterator<Item = (Pair, f64)> + '_ {
        self.edges.iter().copied()
    }

    /// The weight of the edge between `a` and `b`, if present.
    pub fn weight_of(&self, a: ProfileId, b: ProfileId) -> Option<f64> {
        if a == b {
            return None;
        }
        let pair = Pair::new(a, b);
        self.adjacency(a)
            .iter()
            .map(|&i| &self.edges[i as usize])
            .find(|(p, _)| *p == pair)
            .map(|&(_, w)| w)
    }

    /// Degree of a node.
    pub fn degree(&self, p: ProfileId) -> usize {
        self.adjacency(p).len()
    }

    /// Iterates `(neighbor, weight)` over the node's neighborhood.
    pub fn neighbors(&self, p: ProfileId) -> impl Iterator<Item = (ProfileId, f64)> + '_ {
        self.adjacency(p).iter().map(move |&i| {
            let (pair, w) = self.edges[i as usize];
            (pair.other(p), w)
        })
    }

    /// Average incident-edge weight of a node — PPS's *duplication
    /// likelihood* (§5.2.2). Zero for isolated nodes.
    pub fn duplication_likelihood(&self, p: ProfileId) -> f64 {
        let adj = self.adjacency(p);
        if adj.is_empty() {
            return 0.0;
        }
        let sum: f64 = adj.iter().map(|&i| self.edges[i as usize].1).sum();
        sum / adj.len() as f64
    }

    /// All edges sorted by non-increasing weight (ties by pair id for
    /// determinism) — the "ideal" exhaustive comparison order the
    /// progressive methods approximate without materialization.
    pub fn sorted_edges(&self) -> Vec<(Pair, f64)> {
        let mut out = self.edges.clone();
        out.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.0.cmp(&b.0))
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::fig3_profiles;
    use crate::token_blocking::TokenBlocking;

    fn pid(i: u32) -> ProfileId {
        ProfileId(i)
    }

    fn fig3_graph() -> BlockingGraph {
        let mut blocks = TokenBlocking::default().build(&fig3_profiles());
        blocks.sort_by_cardinality();
        BlockingGraph::build(&blocks, WeightingScheme::Arcs, Parallelism::SEQUENTIAL)
    }

    #[test]
    fn fig3c_shape() {
        let g = fig3_graph();
        assert_eq!(g.num_nodes(), 6);
        // Every pair co-occurs at least in block "white" → complete graph
        // over 6 nodes: 15 edges, as drawn in Fig. 3(c).
        assert_eq!(g.num_edges(), 15);
        for p in 0..6 {
            assert_eq!(g.degree(pid(p)), 5);
        }
    }

    #[test]
    fn fig3c_weights() {
        let g = fig3_graph();
        let close = |a: f64, b: f64| (a - b).abs() < 1e-9;
        assert!(close(
            g.weight_of(pid(0), pid(1)).unwrap(),
            1.0 + 1.0 / 3.0 + 1.0 / 6.0 + 1.0 / 15.0
        ));
        assert!(close(
            g.weight_of(pid(3), pid(4)).unwrap(),
            2.0 + 1.0 / 15.0
        ));
        assert!(close(g.weight_of(pid(2), pid(3)).unwrap(), 1.0 / 15.0));
        assert_eq!(g.weight_of(pid(0), pid(0)), None);
    }

    #[test]
    fn top_edge_is_the_strongest_match() {
        let g = fig3_graph();
        let sorted = g.sorted_edges();
        // c45 (our 3-4) has weight 2.07 — the global maximum of Fig. 3(c).
        assert_eq!(sorted[0].0, Pair::new(pid(3), pid(4)));
        assert_eq!(sorted[1].0, Pair::new(pid(0), pid(1)));
        // Weights non-increasing.
        assert!(sorted.windows(2).all(|w| w[0].1 >= w[1].1));
    }

    #[test]
    fn duplication_likelihood_ranks_duplicated_profiles_high() {
        let g = fig3_graph();
        // p6 (our 5) is the only non-duplicated profile; its average
        // incident weight must be the lowest.
        let dl: Vec<f64> = (0..6).map(|i| g.duplication_likelihood(pid(i))).collect();
        let min = dl.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!((dl[5] - min).abs() < 1e-12, "p6 should rank last: {dl:?}");
    }

    #[test]
    fn neighbors_are_consistent_with_weights() {
        let g = fig3_graph();
        for (n, w) in g.neighbors(pid(0)) {
            assert_eq!(g.weight_of(pid(0), n), Some(w));
        }
    }
}
