//! All-pairs shortest paths.
//!
//! The mapping algorithm needs the paper's `shortest[ns][ns]` matrix: the
//! hop count of the shortest path between every pair of system nodes
//! (§3.4(b)). System graphs are unweighted, so breadth-first search is
//! both simpler and asymptotically better than Floyd–Warshall. The BFS
//! is bit-parallel: sources run in blocks of up to [`SOURCE_BLOCK`], one
//! bit per source, and each level is one pass over a frozen CSR
//! adjacency that ORs the neighbours' frontier words — `O(D·(ns+es))`
//! word operations per block for a graph of diameter `D`, against the
//! `O(ns·(ns+es))` queue operations of one BFS per source. We also
//! provide Floyd–Warshall for weighted digraphs because the simulator's
//! contention models route over weighted links.

use serde::{Deserialize, Serialize};

use crate::error::GraphError;
use crate::matrix::SquareMatrix;
use crate::ungraph::UnGraph;
use crate::{NodeId, Weight};

/// Sources per bit-parallel BFS block: 16 `u64` words of `seen`,
/// `front` and `next` state per node.
pub const SOURCE_BLOCK: usize = 1024;

/// Hop-count distance matrix between all node pairs of a connected graph.
///
/// Entry `(i, i)` is 0; all other entries are ≥ 1. Constructed via
/// [`DistanceMatrix::bfs_all_pairs`], which fails with
/// [`GraphError::Disconnected`] when some pair is unreachable (a mapping
/// target must be connected for the cost model to be defined).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct DistanceMatrix {
    dist: SquareMatrix<u32>,
}

impl DistanceMatrix {
    /// Compute hop counts by a bit-parallel BFS from every source.
    ///
    /// The adjacency is frozen into a CSR once; sources then run in
    /// blocks of up to [`SOURCE_BLOCK`], bit `s` of a node's words
    /// meaning "source `s` of the block". Each level is one pass over
    /// all nodes, `next[v] = OR(front[u] for u in N(v)) & !seen[v]`,
    /// and every new bit `s` at `v` writes the level into row `v`,
    /// column `s` — hop counts are symmetric, so a block fills whole
    /// row segments. A block ends when no bit changes; any entry still
    /// unreached is [`GraphError::Disconnected`].
    pub fn bfs_all_pairs(g: &UnGraph) -> Result<Self, GraphError> {
        let n = g.node_count();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::with_capacity(2 * g.edge_count());
        offsets.push(0);
        for u in 0..n {
            targets.extend_from_slice(g.neighbors(u));
            offsets.push(targets.len());
        }
        let mut dist = SquareMatrix::filled(n, u32::MAX);
        for base in (0..n).step_by(SOURCE_BLOCK) {
            let width = SOURCE_BLOCK.min(n - base);
            // Words per node, rounded up to a power of two so the sweep
            // runs on fixed-size arrays.
            match width.div_ceil(64).next_power_of_two() {
                1 => bfs_block::<1>(&offsets, &targets, base, width, &mut dist),
                2 => bfs_block::<2>(&offsets, &targets, base, width, &mut dist),
                4 => bfs_block::<4>(&offsets, &targets, base, width, &mut dist),
                8 => bfs_block::<8>(&offsets, &targets, base, width, &mut dist),
                _ => bfs_block::<16>(&offsets, &targets, base, width, &mut dist),
            }
        }
        if dist.as_slice().contains(&u32::MAX) {
            return Err(GraphError::Disconnected);
        }
        Ok(DistanceMatrix { dist })
    }

    /// Hop count between `u` and `v`.
    #[inline]
    pub fn hops(&self, u: NodeId, v: NodeId) -> u32 {
        self.dist.get(u, v)
    }

    /// Side length (number of nodes).
    #[inline]
    pub fn n(&self) -> usize {
        self.dist.n()
    }

    /// Greatest distance between any pair — the graph's diameter.
    pub fn diameter(&self) -> u32 {
        (0..self.n())
            .flat_map(|i| (0..self.n()).map(move |j| (i, j)))
            .map(|(i, j)| self.dist.get(i, j))
            .max()
            .unwrap_or(0)
    }

    /// Borrow the underlying matrix (the paper's `shortest[ns][ns]`).
    pub fn as_matrix(&self) -> &SquareMatrix<u32> {
        &self.dist
    }

    /// Rebuild from a precomputed hop matrix, validating that it is a
    /// plausible APSP artifact: zero diagonal, symmetric, no
    /// unreachable (`u32::MAX`) entries. This is the entry point for
    /// callers that cache or ship APSP matrices (e.g. a batch engine's
    /// topology cache) instead of re-running the BFS sweep.
    pub fn from_matrix(dist: SquareMatrix<u32>) -> Result<Self, GraphError> {
        let n = dist.n();
        for i in 0..n {
            if dist.get(i, i) != 0 {
                return Err(GraphError::InvalidParameter(format!(
                    "distance matrix diagonal ({i},{i}) must be 0"
                )));
            }
            for j in 0..n {
                let d = dist.get(i, j);
                if d == u32::MAX {
                    return Err(GraphError::Disconnected);
                }
                if d != dist.get(j, i) {
                    return Err(GraphError::InvalidParameter(format!(
                        "distance matrix must be symmetric; ({i},{j}) != ({j},{i})"
                    )));
                }
            }
        }
        Ok(DistanceMatrix { dist })
    }

    /// Consume `self`, returning the hop matrix (for caching/shipping).
    pub fn into_matrix(self) -> SquareMatrix<u32> {
        self.dist
    }

    /// For node `u`, the nearest node among `candidates` (smallest hop
    /// count, ties broken by lowest id). Returns `None` when `candidates`
    /// is empty. Used by the initial-assignment fallback step (c).
    pub fn nearest_of<'a, I>(&self, u: NodeId, candidates: I) -> Option<NodeId>
    where
        I: IntoIterator<Item = &'a NodeId>,
    {
        candidates
            .into_iter()
            .copied()
            .min_by_key(|&c| (self.hops(u, c), c))
    }
}

/// BFS from sources `base..base + width` at once, `W` words per node
/// (`64 * W >= width`), over the CSR adjacency `offsets`/`targets`
/// (the neighbours of `u` are `targets[offsets[u]..offsets[u + 1]]`),
/// writing each node's row segment of `dist`.
fn bfs_block<const W: usize>(
    offsets: &[usize],
    targets: &[NodeId],
    base: usize,
    width: usize,
    dist: &mut SquareMatrix<u32>,
) {
    let n = offsets.len() - 1;
    let mut seen = vec![[0u64; W]; n];
    let mut front = vec![[0u64; W]; n];
    let mut next = vec![[0u64; W]; n];
    for s in 0..width {
        let v = base + s;
        seen[v][s / 64] |= 1 << (s % 64);
        front[v][s / 64] |= 1 << (s % 64);
        dist.set(v, v, 0);
    }
    let mut level = 0;
    loop {
        level += 1;
        let mut changed = false;
        for (v, (out, seen)) in next.iter_mut().zip(&mut seen).enumerate() {
            let mut acc = [0u64; W];
            for &u in &targets[offsets[v]..offsets[v + 1]] {
                for (a, &f) in acc.iter_mut().zip(&front[u]) {
                    *a |= f;
                }
            }
            let row = &mut dist.row_mut(v)[base..base + width];
            for w in 0..W {
                let mut bits = acc[w] & !seen[w];
                seen[w] |= bits;
                acc[w] = bits;
                changed |= bits != 0;
                while bits != 0 {
                    row[w * 64 + bits.trailing_zeros() as usize] = level;
                    bits &= bits - 1;
                }
            }
            *out = acc;
        }
        if !changed {
            return;
        }
        std::mem::swap(&mut front, &mut next);
    }
}

/// Floyd–Warshall over a weighted adjacency matrix where 0 encodes "no
/// edge" (except the diagonal, which is distance 0). Returns the matrix of
/// shortest *weighted* distances, or `Err(Disconnected)` when some pair is
/// unreachable.
pub fn floyd_warshall(weights: &SquareMatrix<Weight>) -> Result<SquareMatrix<Weight>, GraphError> {
    let n = weights.n();
    const INF: Weight = Weight::MAX / 4;
    let mut d = SquareMatrix::filled(n, INF);
    for i in 0..n {
        d.set(i, i, 0);
    }
    for i in 0..n {
        for j in 0..n {
            let w = weights.get(i, j);
            if w > 0 && w < d.get(i, j) {
                d.set(i, j, w);
            }
        }
    }
    for k in 0..n {
        for i in 0..n {
            let dik = d.get(i, k);
            if dik == INF {
                continue;
            }
            for j in 0..n {
                let alt = dik + d.get(k, j);
                if alt < d.get(i, j) {
                    d.set(i, j, alt);
                }
            }
        }
    }
    if d.as_slice().iter().any(|&v| v >= INF) {
        return Err(GraphError::Disconnected);
    }
    Ok(d)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring(n: usize) -> UnGraph {
        let mut g = UnGraph::new(n);
        for i in 0..n {
            g.add_edge(i, (i + 1) % n).unwrap();
        }
        g
    }

    #[test]
    fn ring4_matches_paper_fig21b() {
        // Fig 21-b: the 4-ring's shortest path matrix has rows
        // (0 1 2 1), (1 0 1 2), (2 1 0 1), (1 2 1 0).
        let d = DistanceMatrix::bfs_all_pairs(&ring(4)).unwrap();
        let expect = [[0, 1, 2, 1], [1, 0, 1, 2], [2, 1, 0, 1], [1, 2, 1, 0]];
        for (i, row) in expect.iter().enumerate() {
            for (j, &hops) in row.iter().enumerate() {
                assert_eq!(d.hops(i, j), hops, "({i},{j})");
            }
        }
        assert_eq!(d.diameter(), 2);
    }

    #[test]
    fn from_matrix_accepts_real_apsp_and_rejects_junk() {
        let d = DistanceMatrix::bfs_all_pairs(&ring(5)).unwrap();
        let rebuilt = DistanceMatrix::from_matrix(d.clone().into_matrix()).unwrap();
        assert_eq!(rebuilt, d);

        let mut bad_diag = d.clone().into_matrix();
        bad_diag.set(1, 1, 3);
        assert!(DistanceMatrix::from_matrix(bad_diag).is_err());

        let mut asym = d.clone().into_matrix();
        asym.set(0, 1, 4);
        assert!(DistanceMatrix::from_matrix(asym).is_err());

        let unreachable = SquareMatrix::filled(2, u32::MAX);
        assert!(DistanceMatrix::from_matrix(unreachable).is_err());
    }

    #[test]
    fn disconnected_is_rejected() {
        let mut g = UnGraph::new(4);
        g.add_edge(0, 1).unwrap();
        g.add_edge(2, 3).unwrap();
        assert_eq!(
            DistanceMatrix::bfs_all_pairs(&g),
            Err(GraphError::Disconnected)
        );
    }

    #[test]
    fn distances_are_symmetric_metric() {
        let d = DistanceMatrix::bfs_all_pairs(&ring(7)).unwrap();
        for i in 0..7 {
            assert_eq!(d.hops(i, i), 0);
            for j in 0..7 {
                assert_eq!(d.hops(i, j), d.hops(j, i));
                for k in 0..7 {
                    assert!(
                        d.hops(i, j) <= d.hops(i, k) + d.hops(k, j),
                        "triangle inequality"
                    );
                }
            }
        }
    }

    #[test]
    fn nearest_of_prefers_smallest_distance_then_id() {
        let d = DistanceMatrix::bfs_all_pairs(&ring(6)).unwrap();
        // Distances from node 0 on a 6-ring: [0,1,2,3,2,1].
        assert_eq!(d.nearest_of(0, &[3, 2, 4]), Some(2));
        assert_eq!(
            d.nearest_of(0, &[1, 5]),
            Some(1),
            "tie at distance 1 broken by id"
        );
        assert_eq!(d.nearest_of(0, &[]), None);
    }

    #[test]
    fn floyd_warshall_weighted_path() {
        // 0 -2-> 1 -3-> 2, plus direct 0 -9-> 2: shortest 0->2 is 5.
        let mut m = SquareMatrix::new(3);
        m.set(0, 1, 2u64);
        m.set(1, 2, 3u64);
        m.set(0, 2, 9u64);
        m.set(1, 0, 2u64);
        m.set(2, 1, 3u64);
        m.set(2, 0, 9u64);
        let d = floyd_warshall(&m).unwrap();
        assert_eq!(d.get(0, 2), 5);
        assert_eq!(d.get(0, 0), 0);
    }

    #[test]
    fn floyd_warshall_detects_disconnection() {
        let m = SquareMatrix::new(2);
        assert_eq!(floyd_warshall(&m), Err(GraphError::Disconnected));
    }

    #[test]
    fn bfs_agrees_with_floyd_warshall_on_unweighted() {
        let g = ring(9);
        let bfs = DistanceMatrix::bfs_all_pairs(&g).unwrap();
        let m = g.to_matrix().map(|&v| v as Weight);
        let fw = floyd_warshall(&m).unwrap();
        for i in 0..9 {
            for j in 0..9 {
                assert_eq!(bfs.hops(i, j) as Weight, fw.get(i, j));
            }
        }
    }
}
