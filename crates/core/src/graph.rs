//! Transaction-graph metrics — the §5 related-work lens (Ron & Shamir,
//! Kondor et al., Di Francesco Maesa et al.) applied to the three chains:
//! sender→receiver degree distributions, hub concentration, and the
//! in/out-degree outliers that flag artificial behaviour.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::Hash;
use txstat_types::stats::{gini, TopK};

/// A directed transfer graph over generic node ids, kept as flat counters:
/// a merge costs what the merged-in graph holds, with no set per node to
/// clone or union.
#[derive(Debug, Clone)]
pub struct TransferGraph<N: Eq + Hash + Clone + Ord> {
    /// Edge multiplicities.
    edges: HashMap<(N, N), u64>,
    /// Weighted degrees. Their keys are exactly the edges' endpoints: a
    /// degree is bumped only with an edge of positive multiplicity, so no
    /// count is ever zero.
    out_degree: TopK<N>,
    in_degree: TopK<N>,
    /// Distinct out-neighbors per source: bumped only when an edge key
    /// enters `edges`, so it always equals that source's edge count there.
    fanout: HashMap<N, u64>,
}

impl<N: Eq + Hash + Clone + Ord> Default for TransferGraph<N> {
    fn default() -> Self {
        TransferGraph {
            edges: HashMap::new(),
            out_degree: TopK::new(),
            in_degree: TopK::new(),
            fanout: HashMap::new(),
        }
    }
}

/// Summary statistics of a transfer graph.
#[derive(Debug, Clone)]
pub struct GraphReport<N> {
    pub nodes: u64,
    pub unique_edges: u64,
    pub transfers: u64,
    /// Gini of weighted out-degrees (activity concentration; Kondor et al.
    /// found Bitcoin's wealth/activity Gini rising toward 1).
    pub out_degree_gini: f64,
    /// Top hubs by weighted in-degree (exchange-like sinks).
    pub top_sinks: Vec<(N, u64)>,
    /// Nodes whose distinct out-neighborhood exceeds 100× the median —
    /// the "unusual behaviour" outliers of Di Francesco Maesa et al.
    pub fanout_outliers: Vec<(N, u64)>,
}

impl<N: Eq + Hash + Clone + Ord> TransferGraph<N> {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one transfer (edge multiplicity +1).
    pub fn record(&mut self, from: N, to: N) {
        self.record_many(from, to, 1);
    }

    /// Record `n` transfers along one edge at once — how the columnar
    /// engine rebuilds a graph from an edge-multiplicity table. State is
    /// identical to calling [`TransferGraph::record`] `n` times.
    pub(crate) fn record_many(&mut self, from: N, to: N, n: u64) {
        if n == 0 {
            return;
        }
        self.out_degree.add(from.clone(), n);
        self.in_degree.add(to.clone(), n);
        self.add_edge((from, to), n);
    }

    /// Add `n` to one edge's multiplicity; a new edge key is one more
    /// distinct out-neighbor of its source.
    fn add_edge(&mut self, edge: (N, N), n: u64) {
        match self.edges.entry(edge) {
            Entry::Occupied(mut e) => *e.get_mut() += n,
            Entry::Vacant(e) => {
                *self.fanout.entry(e.key().0.clone()).or_insert(0) += 1;
                e.insert(n);
            }
        }
    }

    pub fn transfers(&self) -> u64 {
        self.edges.values().sum()
    }

    /// Distinct edge endpoints: every source, plus the targets that are
    /// no source.
    fn node_count(&self) -> u64 {
        let sinks_only = self
            .in_degree
            .iter()
            .filter(|(n, _)| self.out_degree.count_of(n) == 0)
            .count();
        (self.out_degree.distinct() + sinks_only) as u64
    }

    /// Weighted out-degree of a node.
    #[cfg(test)]
    pub(crate) fn out_of(&self, n: &N) -> u64 {
        self.out_degree.count_of(n)
    }

    /// Weighted in-degree of a node.
    #[cfg(test)]
    fn in_of(&self, n: &N) -> u64 {
        self.in_degree.count_of(n)
    }

    /// Distinct out-neighbors of a node.
    #[cfg(test)]
    pub(crate) fn fanout_of(&self, n: &N) -> u64 {
        self.fanout.get(n).copied().unwrap_or(0)
    }

    /// Merge another graph: edge multiplicities and degrees add, and a
    /// source's fan-out grows by the edges new to this graph (its count in
    /// `other` is not added, since an edge both graphs hold is one
    /// neighbor). Associative and commutative, so partial sweeps' graphs
    /// combine in any order.
    pub fn merge(&mut self, other: TransferGraph<N>) {
        for (e, n) in other.edges {
            self.add_edge(e, n);
        }
        self.out_degree.merge(other.out_degree);
        self.in_degree.merge(other.in_degree);
    }

    /// Compute the summary report.
    pub fn report(&self, top_k: usize) -> GraphReport<N> {
        let out_values: Vec<f64> = self.out_degree.iter().map(|(_, v)| *v as f64).collect();

        // Fan-out outliers: distinct-neighborhood size vs the median.
        let mut fanouts: Vec<u64> = self.fanout.values().copied().collect();
        fanouts.sort_unstable();
        let median = fanouts.get(fanouts.len() / 2).copied().unwrap_or(0).max(1);
        let mut fanout_outliers: Vec<(N, u64)> = self
            .fanout
            .iter()
            .filter(|(_, f)| **f > 100 * median)
            .map(|(n, f)| (n.clone(), *f))
            .collect();
        fanout_outliers.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));

        GraphReport {
            nodes: self.node_count(),
            unique_edges: self.edges.len() as u64,
            transfers: self.transfers(),
            out_degree_gini: gini(&out_values),
            top_sinks: self.in_degree.top(top_k),
            fanout_outliers,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    #[test]
    fn degrees_and_report() {
        let mut g: TransferGraph<&str> = TransferGraph::new();
        // hub receives from 3, faucet sends to 3, a↔b chatter.
        for src in ["a", "b", "c"] {
            g.record(src, "hub");
        }
        for dst in ["x", "y", "z"] {
            g.record("faucet", dst);
        }
        g.record("a", "b");
        g.record("a", "b");
        assert_eq!(g.transfers(), 8);
        assert_eq!(g.out_of(&"a"), 3);
        assert_eq!(g.in_of(&"hub"), 3);
        assert_eq!(g.fanout_of(&"faucet"), 3);
        let r = g.report(2);
        assert_eq!(r.nodes, 8);
        assert_eq!(r.unique_edges, 7);
        assert_eq!(r.top_sinks[0].0, "hub");
        assert!(r.out_degree_gini >= 0.0 && r.out_degree_gini <= 1.0);
    }

    #[test]
    fn fanout_outlier_detection() {
        let mut g: TransferGraph<u64> = TransferGraph::new();
        // 50 ordinary nodes with 1 neighbor; one airdropper with 200.
        for i in 0..50u64 {
            g.record(i, 1_000 + i);
        }
        for j in 0..200u64 {
            g.record(9_999, 2_000 + j);
        }
        let r = g.report(3);
        assert_eq!(r.fanout_outliers.len(), 1);
        assert_eq!(r.fanout_outliers[0], (9_999, 200));
    }

    #[test]
    fn empty_graph_is_safe() {
        let g: TransferGraph<u64> = TransferGraph::new();
        let r = g.report(5);
        assert_eq!(r.nodes, 0);
        assert_eq!(r.transfers, 0);
        assert_eq!(r.out_degree_gini, 0.0);
        assert!(r.top_sinks.is_empty());
    }

    proptest! {
        /// An edge multiset split at random into `k` partial graphs (the
        /// same edge repeated inside a part and across parts) merges to
        /// the one graph over all of it: the same report, and every
        /// source's fan-out is its count of distinct targets. A hub that
        /// sends to up to 400 targets, each from two parts, is a fan-out
        /// outlier in about half the cases.
        #[test]
        fn merged_parts_equal_the_one_graph(
            edges in proptest::collection::vec((0u64..40, 0u64..4, 1u64..4, 0usize..8), 1usize..160),
            hub_targets in 0u64..400,
            k in 1usize..6,
        ) {
            const HUB: u64 = 1_000;
            let mut all = edges.clone();
            for to in 0..hub_targets {
                for part in [to as usize, to as usize + 1] {
                    all.push((HUB, 100 + to, 1, part));
                }
            }
            let mut one: TransferGraph<u64> = TransferGraph::new();
            let mut parts: Vec<TransferGraph<u64>> = (0..k).map(|_| TransferGraph::new()).collect();
            for &(from, to, n, part) in &all {
                one.record_many(from, to, n);
                parts[part % k].record_many(from, to, n);
            }
            let mut merged = TransferGraph::new();
            for part in parts {
                merged.merge(part);
            }

            let distinct: BTreeSet<(u64, u64)> = all.iter().map(|&(f, t, ..)| (f, t)).collect();
            for source in (0..40).chain([HUB]) {
                let want = distinct.iter().filter(|(f, _)| *f == source).count() as u64;
                prop_assert_eq!(one.fanout_of(&source), want);
                prop_assert_eq!(merged.fanout_of(&source), want);
            }
            let (a, b) = (one.report(5), merged.report(5));
            prop_assert_eq!(a.unique_edges, distinct.len() as u64);
            prop_assert_eq!(b.unique_edges, a.unique_edges);
            prop_assert_eq!(b.nodes, a.nodes);
            prop_assert_eq!(b.transfers, a.transfers);
            prop_assert_eq!(b.fanout_outliers, a.fanout_outliers);
            prop_assert_eq!(b.top_sinks, a.top_sinks);
            prop_assert_eq!(b.out_degree_gini.to_bits(), a.out_degree_gini.to_bits());
        }
    }
}
