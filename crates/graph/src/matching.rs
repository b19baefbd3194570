//! Greedy matchings — the coarsening primitive of multilevel mapping.
//!
//! A multilevel V-cycle (VieM-style) contracts matched node pairs to
//! halve a graph per level. Two deterministic greedy variants cover the
//! two sides of the mapping problem: [`greedy_matching`] for the
//! unweighted system graph (processor pairing) and
//! [`heavy_edge_matching`] for the weighted abstract graph (cluster
//! merging, heaviest communication first, so the heaviest edges become
//! internal and vanish from the coarse cut).

use crate::ungraph::UnGraph;
use crate::{NodeId, Weight};

/// Maximal matching on an undirected graph.
///
/// Deterministic rule: scan nodes in ascending id; an unmatched node is
/// matched to its lowest-id unmatched neighbor. The result is maximal
/// (no edge has both endpoints unmatched) and each pair is reported as
/// `(u, v)` with `u < v`, in discovery order.
pub fn greedy_matching(g: &UnGraph) -> Vec<(NodeId, NodeId)> {
    let n = g.node_count();
    let mut matched = vec![false; n];
    let mut pairs = Vec::with_capacity(n / 2);
    for u in 0..n {
        if matched[u] {
            continue;
        }
        if let Some(&v) = g.neighbors(u).iter().find(|&&v| !matched[v]) {
            matched[u] = true;
            matched[v] = true;
            pairs.push((u.min(v), u.max(v)));
        }
    }
    pairs
}

/// Heavy-edge matching over an explicit weighted edge list.
///
/// Edges are considered by descending weight (ties: ascending `(u, v)`),
/// and an edge is taken when both endpoints are still unmatched — the
/// classic multilevel-coarsening heuristic that internalizes as much
/// edge weight as possible. Self-loops and duplicate orientations are
/// tolerated (normalized to `u < v`); out-of-range endpoints are the
/// caller's bug and skipped.
pub fn heavy_edge_matching(n: usize, edges: &[(NodeId, NodeId, Weight)]) -> Vec<(NodeId, NodeId)> {
    let mut sorted: Vec<(NodeId, NodeId, Weight)> = edges
        .iter()
        .filter(|&&(u, v, _)| u != v && u < n && v < n)
        .map(|&(u, v, w)| (u.min(v), u.max(v), w))
        .collect();
    if sorted
        .windows(2)
        .all(|p| (p[0].0, p[0].1) < (p[1].0, p[1].1))
    {
        // Already in ascending `(u, v)` order (a CSR walk): a stable
        // sort on weight alone yields the same order, cheaper.
        sorted.sort_by_key(|e| std::cmp::Reverse(e.2));
    } else {
        sorted.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(&b.0)).then(a.1.cmp(&b.1)));
    }
    let mut matched = vec![false; n];
    let mut pairs = Vec::with_capacity(n / 2);
    for (u, v, _) in sorted {
        if !matched[u] && !matched[v] {
            matched[u] = true;
            matched[v] = true;
            pairs.push((u, v));
        }
    }
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(n: usize) -> UnGraph {
        let mut g = UnGraph::new(n);
        for i in 1..n {
            g.add_edge(i - 1, i).unwrap();
        }
        g
    }

    fn assert_is_matching(n: usize, pairs: &[(NodeId, NodeId)]) {
        let mut seen = vec![false; n];
        for &(u, v) in pairs {
            assert!(u < v, "pairs normalized");
            assert!(!seen[u] && !seen[v], "node matched twice");
            seen[u] = true;
            seen[v] = true;
        }
    }

    #[test]
    fn greedy_matching_on_paths_pairs_neighbors() {
        let pairs = greedy_matching(&path(6));
        assert_eq!(pairs, vec![(0, 1), (2, 3), (4, 5)]);
        let pairs = greedy_matching(&path(5));
        assert_eq!(pairs, vec![(0, 1), (2, 3)]);
        assert_is_matching(5, &pairs);
    }

    #[test]
    fn greedy_matching_is_maximal() {
        // 4x4 grid.
        let mut g = UnGraph::new(16);
        for r in 0..4 {
            for c in 0..4 {
                let id = r * 4 + c;
                if c + 1 < 4 {
                    g.add_edge(id, id + 1).unwrap();
                }
                if r + 1 < 4 {
                    g.add_edge(id, id + 4).unwrap();
                }
            }
        }
        let pairs = greedy_matching(&g);
        assert_is_matching(16, &pairs);
        let mut matched = [false; 16];
        for &(u, v) in &pairs {
            matched[u] = true;
            matched[v] = true;
        }
        for (u, v) in g.edges() {
            assert!(
                matched[u] || matched[v],
                "edge ({u},{v}) violates maximality"
            );
        }
        // A grid matches perfectly under the ascending-id rule.
        assert_eq!(pairs.len(), 8);
    }

    #[test]
    fn greedy_matching_star_matches_one_pair() {
        let mut g = UnGraph::new(5);
        for leaf in 1..5 {
            g.add_edge(0, leaf).unwrap();
        }
        assert_eq!(greedy_matching(&g), vec![(0, 1)]);
    }

    #[test]
    fn greedy_matching_empty_graph() {
        assert!(greedy_matching(&UnGraph::new(4)).is_empty());
        assert!(greedy_matching(&UnGraph::new(0)).is_empty());
    }

    #[test]
    fn heavy_edge_matching_prefers_heavy_edges() {
        // Triangle 0-1 (w5), 1-2 (w9), 0-2 (w1): the w9 edge wins.
        let pairs = heavy_edge_matching(3, &[(0, 1, 5), (1, 2, 9), (0, 2, 1)]);
        assert_eq!(pairs, vec![(1, 2)]);
    }

    #[test]
    fn heavy_edge_matching_breaks_ties_by_id() {
        let pairs = heavy_edge_matching(4, &[(2, 3, 7), (0, 1, 7)]);
        assert_eq!(pairs, vec![(0, 1), (2, 3)]);
    }

    #[test]
    fn heavy_edge_matching_ignores_junk_edges() {
        let pairs = heavy_edge_matching(3, &[(1, 1, 9), (5, 0, 9), (1, 0, 2)]);
        assert_eq!(pairs, vec![(0, 1)]);
        assert_is_matching(3, &pairs);
    }

    #[test]
    fn heavy_edge_matching_ignores_input_order() {
        // Ascending `(u, v)` input takes the weight-only sort; any other
        // order takes the full-key sort. Both must pick the same pairs.
        let mut edges = Vec::new();
        for u in 0..12usize {
            for v in (u + 1)..12 {
                if (u * 7 + v * 3) % 4 != 0 {
                    edges.push((u, v, ((u * v) % 5) as Weight + 1));
                }
            }
        }
        let ascending = heavy_edge_matching(12, &edges);
        edges.reverse();
        assert_eq!(heavy_edge_matching(12, &edges), ascending);
        edges.rotate_left(5);
        assert_eq!(heavy_edge_matching(12, &edges), ascending);
        assert_is_matching(12, &ascending);
    }

    #[test]
    fn heavy_edge_matching_is_deterministic() {
        let edges = [(0, 1, 3), (1, 2, 3), (2, 3, 3), (3, 0, 3)];
        assert_eq!(
            heavy_edge_matching(4, &edges),
            heavy_edge_matching(4, &edges)
        );
    }
}
