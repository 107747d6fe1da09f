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
//! Fig. 3(c) exactly), `sper snapshot --with-graph`, and as the reference
//! implementation that the lazy paths are property-tested against.
//!
//! Construction runs on the sparse-accumulator kernel ([`crate::spacc`]):
//! per-profile forward sweeps produce every distinct weighted edge with
//! `O(1)` amortized work per co-occurrence, and a counting pass by
//! least-common-block id restores the seed builder's block-major
//! first-occurrence edge order bit for bit (the seed seen-set builder is
//! preserved as [`crate::legacy::legacy_graph_edges`] and property-tested
//! against this one).
//!
//! The adjacency is stored in CSR form (offsets + one packed edge-index
//! array) — neighborhood sweeps are sequential scans over one allocation.

use crate::block::BlockCollection;
use crate::profile_index::ProfileIndex;
use crate::spacc::WeightAccumulator;
use crate::weights::WeightingScheme;
use sper_model::{Pair, ProfileId};

/// A materialized blocking graph.
#[derive(Debug, Clone)]
pub struct BlockingGraph {
    n_profiles: usize,
    /// Distinct valid comparisons with their weights: in (least common
    /// block, pair) order when built, in the given order when assembled.
    edges: Vec<(Pair, f64)>,
    /// CSR adjacency: edge indices of node `p` are
    /// `adj_edges[adj_offsets[p]..adj_offsets[p+1]]`.
    adj_offsets: Vec<u32>,
    adj_edges: Vec<u32>,
}

impl BlockingGraph {
    /// Materializes the graph of `blocks` under `scheme`.
    ///
    /// Every distinct valid comparison entailed by the blocks becomes one
    /// edge; repeated co-occurrences are merged (that is what makes the
    /// blocks *redundancy-positive*: the weight grows with the number of
    /// shared blocks, it does not duplicate edges).
    ///
    /// Edges are stored in (least common block, pair) order: the order in
    /// which the seed builder meets them, walking the blocks in id order
    /// and each block's comparisons in pair order. Two forward sweeps over
    /// the profiles produce it: the first counts the edges of each least
    /// common block (the LeCoBI witness, §5.2.1), the second writes every
    /// edge at its block's cursor, so the peak heap holds one edge list.
    /// No sort is needed: profiles ascend, and a forward sweep touches the
    /// neighbors whose least common block is `b` all while it walks `b`,
    /// in ascending id order, so each block's edges land in pair order.
    pub fn build(blocks: &BlockCollection, scheme: WeightingScheme) -> Self {
        let mut span = sper_obs::span!("blocking.graph_build", blocks = blocks.len());
        let n = blocks.n_profiles();
        // The index and the scratch are dropped before the adjacency is
        // built next to the edge list.
        let edges = {
            let index = ProfileIndex::build(blocks);
            let mut acc = WeightAccumulator::new(n);
            let mut counts = vec![0u32; index.total_blocks()];
            for i in 0..n {
                acc.sweep_forward(blocks, &index, scheme, ProfileId(i as u32));
                for &j in acc.touched() {
                    counts[acc.least_common_block(ProfileId(j)).index()] += 1;
                }
                acc.reset();
            }
            let mut cursor = crate::block::prefix_offsets(&counts);
            let unwritten = (Pair::new(ProfileId(0), ProfileId(1)), 0.0);
            let mut edges = vec![unwritten; cursor[counts.len()] as usize];
            for i in 0..n {
                let i = ProfileId(i as u32);
                acc.sweep_forward(blocks, &index, scheme, i);
                for &j in acc.touched() {
                    let j = ProfileId(j);
                    let at = &mut cursor[acc.least_common_block(j).index()];
                    edges[*at as usize] = (Pair::new(i, j), acc.finalize(&index, scheme, i, j));
                    *at += 1;
                }
                acc.reset();
            }
            edges
        };
        span.record("edges", edges.len());
        Self::from_edges(n, edges)
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
        let mut blocks = TokenBlocking.build(&fig3_profiles());
        blocks.sort_by_cardinality();
        BlockingGraph::build(&blocks, WeightingScheme::Arcs)
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
        let mut sorted: Vec<(Pair, f64)> = g.edges().collect();
        sorted.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
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
