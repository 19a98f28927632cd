//! Transaction-graph metrics — the §5 related-work lens (Ron & Shamir,
//! Kondor et al., Di Francesco Maesa et al.) applied to the three chains:
//! sender→receiver degree distributions, hub concentration, and the
//! in/out-degree outliers that flag artificial behaviour.

use std::collections::{HashMap, HashSet};
use std::hash::Hash;
use txstat_types::stats::{gini, TopK};

/// A directed transfer graph over generic node ids.
#[derive(Debug, Clone)]
pub struct TransferGraph<N: Eq + Hash + Clone + Ord> {
    /// Edge multiplicities.
    edges: HashMap<(N, N), u64>,
    out_degree: HashMap<N, u64>,
    in_degree: HashMap<N, u64>,
    out_neighbors: HashMap<N, HashSet<N>>,
    in_neighbors: HashMap<N, HashSet<N>>,
}

impl<N: Eq + Hash + Clone + Ord> Default for TransferGraph<N> {
    fn default() -> Self {
        TransferGraph {
            edges: HashMap::new(),
            out_degree: HashMap::new(),
            in_degree: HashMap::new(),
            out_neighbors: HashMap::new(),
            in_neighbors: HashMap::new(),
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
    pub in_degree_gini: f64,
    /// Top hubs by weighted in-degree (exchange-like sinks).
    pub top_sinks: Vec<(N, u64)>,
    /// Top hubs by weighted out-degree (faucet/airdrop-like sources).
    pub top_sources: Vec<(N, u64)>,
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
    pub fn record_many(&mut self, from: N, to: N, n: u64) {
        if n == 0 {
            return;
        }
        *self.edges.entry((from.clone(), to.clone())).or_insert(0) += n;
        *self.out_degree.entry(from.clone()).or_insert(0) += n;
        *self.in_degree.entry(to.clone()).or_insert(0) += n;
        self.out_neighbors.entry(from.clone()).or_default().insert(to.clone());
        self.in_neighbors.entry(to).or_default().insert(from);
    }

    pub fn transfers(&self) -> u64 {
        self.edges.values().sum()
    }

    pub fn node_count(&self) -> u64 {
        let mut nodes: HashSet<&N> = HashSet::new();
        for (f, t) in self.edges.keys() {
            nodes.insert(f);
            nodes.insert(t);
        }
        nodes.len() as u64
    }

    /// Weighted out-degree of a node.
    pub fn out_of(&self, n: &N) -> u64 {
        self.out_degree.get(n).copied().unwrap_or(0)
    }

    /// Weighted in-degree of a node.
    pub fn into_of(&self, n: &N) -> u64 {
        self.in_degree.get(n).copied().unwrap_or(0)
    }

    /// Distinct out-neighbors of a node.
    pub fn fanout_of(&self, n: &N) -> u64 {
        self.out_neighbors.get(n).map(|s| s.len() as u64).unwrap_or(0)
    }

    /// Merge another graph: edge multiplicities and degrees add, neighbor
    /// sets union. Associative and commutative, so partial sweeps' graphs
    /// combine in any order.
    pub fn merge(&mut self, other: TransferGraph<N>) {
        for (e, n) in other.edges {
            *self.edges.entry(e).or_insert(0) += n;
        }
        for (k, n) in other.out_degree {
            *self.out_degree.entry(k).or_insert(0) += n;
        }
        for (k, n) in other.in_degree {
            *self.in_degree.entry(k).or_insert(0) += n;
        }
        for (k, s) in other.out_neighbors {
            self.out_neighbors.entry(k).or_default().extend(s);
        }
        for (k, s) in other.in_neighbors {
            self.in_neighbors.entry(k).or_default().extend(s);
        }
    }

    /// Compute the summary report.
    pub fn report(&self, top_k: usize) -> GraphReport<N> {
        let out_values: Vec<f64> = self.out_degree.values().map(|v| *v as f64).collect();
        let in_values: Vec<f64> = self.in_degree.values().map(|v| *v as f64).collect();

        let mut sinks: TopK<N> = TopK::new();
        for (n, d) in &self.in_degree {
            sinks.add(n.clone(), *d);
        }
        let mut sources: TopK<N> = TopK::new();
        for (n, d) in &self.out_degree {
            sources.add(n.clone(), *d);
        }

        // Fan-out outliers: distinct-neighborhood size vs the median.
        let mut fanouts: Vec<u64> =
            self.out_neighbors.values().map(|s| s.len() as u64).collect();
        fanouts.sort_unstable();
        let median = fanouts.get(fanouts.len() / 2).copied().unwrap_or(0).max(1);
        let mut fanout_outliers: Vec<(N, u64)> = self
            .out_neighbors
            .iter()
            .filter(|(_, s)| s.len() as u64 > 100 * median)
            .map(|(n, s)| (n.clone(), s.len() as u64))
            .collect();
        fanout_outliers.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));

        GraphReport {
            nodes: self.node_count(),
            unique_edges: self.edges.len() as u64,
            transfers: self.transfers(),
            out_degree_gini: gini(&out_values),
            in_degree_gini: gini(&in_values),
            top_sinks: sinks.top(top_k),
            top_sources: sources.top(top_k),
            fanout_outliers,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(g.into_of(&"hub"), 3);
        assert_eq!(g.fanout_of(&"faucet"), 3);
        let r = g.report(2);
        assert_eq!(r.nodes, 8);
        assert_eq!(r.unique_edges, 7);
        assert_eq!(r.top_sinks[0].0, "hub");
        assert_eq!(r.top_sources[0].0, "a");
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
}
