//! The bit-parallel all-pairs BFS must reproduce a plain per-source
//! BFS hop for hop: on random connected graphs whose node count sits on
//! either side of a 64-bit word and of a 1024-source block, and on every
//! topology builder. Disconnected inputs must still be rejected.

use std::collections::VecDeque;

use mimd_graph::apsp::{DistanceMatrix, SOURCE_BLOCK};
use mimd_graph::error::GraphError;
use mimd_graph::generators::random_connected;
use mimd_graph::matrix::SquareMatrix;
use mimd_graph::ungraph::UnGraph;
use mimd_topology::{
    binary_tree, chain, clustered_complete, complete, cube_connected_cycles, de_bruijn, fat_tree,
    hypercube, mesh2d, ring, star, torus2d, SystemGraph,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One queue-driven BFS per source; `None` when some pair is unreachable.
fn reference_apsp(g: &UnGraph) -> Option<SquareMatrix<u32>> {
    let n = g.node_count();
    let mut dist = SquareMatrix::filled(n, u32::MAX);
    let mut queue = VecDeque::new();
    for s in 0..n {
        dist.set(s, s, 0);
        queue.push_back(s);
        while let Some(u) = queue.pop_front() {
            let du = dist.get(s, u);
            for &v in g.neighbors(u) {
                if dist.get(s, v) == u32::MAX {
                    dist.set(s, v, du + 1);
                    queue.push_back(v);
                }
            }
        }
        if dist.row(s).contains(&u32::MAX) {
            return None;
        }
    }
    Some(dist)
}

fn assert_matches_reference(g: &UnGraph, what: &str) {
    let expected = reference_apsp(g).expect("test graphs are connected");
    let got = DistanceMatrix::bfs_all_pairs(g).unwrap();
    assert!(got.as_matrix() == &expected, "{what}: hop matrix differs");
}

#[test]
fn random_graphs_across_word_and_block_edges() {
    assert_eq!(SOURCE_BLOCK, 1024, "the sizes below straddle this block");
    let sizes = [1, 2, 63, 64, 65, 127, 1023, 1024, 1025, 1131];
    for (i, &n) in sizes.iter().enumerate() {
        // A spanning tree alone (deep, many levels), and one with a few
        // extra edges per node (shallow, wide frontiers).
        for extra in [0.0, 3.0 / n as f64] {
            let mut rng = StdRng::seed_from_u64(1000 + i as u64);
            let g = random_connected(n, extra.min(1.0), &mut rng).unwrap();
            assert_matches_reference(&g, &format!("random n={n} p={extra:.4}"));
        }
    }
}

#[test]
fn every_topology_builder_matches_the_reference() {
    let systems: Vec<SystemGraph> = vec![
        ring(3).unwrap(),
        ring(65).unwrap(),
        ring(130).unwrap(),
        chain(130).unwrap(),
        mesh2d(8, 8).unwrap(),
        mesh2d(31, 33).unwrap(),
        torus2d(16, 16).unwrap(),
        torus2d(32, 32).unwrap(),
        torus2d(33, 33).unwrap(),
        hypercube(0).unwrap(),
        hypercube(6).unwrap(),
        hypercube(10).unwrap(),
        star(64).unwrap(),
        star(1025).unwrap(),
        binary_tree(200).unwrap(),
        complete(65).unwrap(),
        fat_tree(3, 4).unwrap(),
        fat_tree(5, 4).unwrap(),
        clustered_complete(8, 8).unwrap(),
        clustered_complete(33, 32).unwrap(),
        cube_connected_cycles(3).unwrap(),
        cube_connected_cycles(7).unwrap(),
        de_bruijn(6).unwrap(),
        de_bruijn(10).unwrap(),
    ];
    for system in &systems {
        let expected = reference_apsp(system.graph()).expect("builders are connected");
        assert!(
            system.distances().as_matrix() == &expected,
            "{}: hop matrix differs",
            system.name()
        );
        assert_matches_reference(system.graph(), system.name());
    }
}

#[test]
fn disconnected_graphs_are_rejected_in_every_block() {
    // Two components inside one word; an isolated node in the second
    // block; a graph with no edges at all.
    let mut halves = UnGraph::new(130);
    for u in 1..130 {
        if u != 65 {
            halves.add_edge(u - 1, u).unwrap();
        }
    }
    let mut rng = StdRng::seed_from_u64(7);
    let tree = random_connected(1024, 0.0, &mut rng).unwrap();
    let mut straggler = UnGraph::new(1025);
    for (u, v) in tree.edges() {
        straggler.add_edge(u, v).unwrap();
    }
    for g in [halves, straggler, UnGraph::new(2)] {
        assert!(reference_apsp(&g).is_none());
        assert_eq!(
            DistanceMatrix::bfs_all_pairs(&g),
            Err(GraphError::Disconnected),
            "n = {}",
            g.node_count()
        );
    }
}
