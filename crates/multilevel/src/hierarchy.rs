//! Building the coarsening hierarchy: matched processor groups on the
//! system side, heavy-edge cluster merges on the problem side, one
//! [`Coarsening`] record per level describing the projection maps.
//!
//! The two sides have very different lifetimes. The **system side**
//! (matchings, contracted machines and their APSP matrices) depends only
//! on the topology, so it is split out as [`SystemHierarchy`]: built
//! once per machine, shared behind `Arc`s by every V-cycle and by the
//! online remapper (the batch engine caches it per topology). The
//! **problem side** (cluster merges) is per job and lives in
//! [`Hierarchy`], which pairs a problem-side chain with a prefix of a
//! system hierarchy.
//!
//! Every level keeps the paper's `na = ns` invariant: the system graph
//! is contracted along a maximal matching into `m` connected processor
//! groups, and the clustering is merged by heavy-edge matching on the
//! cluster graph until exactly `m` clusters remain. Both projections
//! conserve weight — task weight trivially (tasks never merge), cut
//! weight as `fine_cut = coarse_cut + internalized`.
//!
//! The cluster graph (the abstract graph's pairs and pair weights, kept
//! as sparse ascending rows) is built once from the task edges at the
//! finest level and then *contracted*: each coarse cluster sums its one
//! or two members' rows, and the pairs that fall inside a coarse
//! cluster are the internalized weight. No level rescans the task edges
//! or builds a dense `na × na` matrix, so a problem-side step costs
//! about the size of the cluster graph, not of the task graph.

use std::sync::Arc;

use mimd_graph::bitset::BitSet;
use mimd_graph::error::GraphError;
use mimd_graph::matching::{greedy_matching, heavy_edge_matching};
use mimd_graph::ungraph::UnGraph;
use mimd_graph::{NodeId, Weight};
use mimd_taskgraph::{ClusterId, ClusteredProblemGraph};
use mimd_topology::SystemGraph;

/// Coarsening stalls (and the hierarchy stops growing) when a step
/// shrinks the machine by less than this factor — e.g. a star topology,
/// where a matching can only ever remove one node per level.
const STALL_RATIO: f64 = 0.9;

/// One system-side contraction step: how the processors of a fine level
/// collapse into the groups of the next-coarser level.
#[derive(Clone, Debug)]
pub struct SystemCoarsening {
    /// `proc_map[s]` = coarse processor (group) containing fine
    /// processor `s`.
    pub proc_map: Vec<NodeId>,
    /// `groups[g]` = fine member processors of coarse processor `g`,
    /// ascending. Every group is a connected subgraph of the fine
    /// system (a matched pair or a singleton).
    pub groups: Vec<Vec<NodeId>>,
}

/// The topology-only half of the multilevel hierarchy: the chain of
/// contracted machines (each with its APSP matrix) and the matching
/// steps between them. Depends only on the system graph, never on the
/// job, so one instance can serve every multilevel and online job on
/// that machine. The chain is built all the way down (until one
/// processor remains or a matching stalls); each consumer uses the
/// prefix ending at [`SystemHierarchy::top_level_for`] its own target.
#[derive(Clone, Debug)]
pub struct SystemHierarchy {
    systems: Vec<Arc<SystemGraph>>,
    steps: Vec<Arc<SystemCoarsening>>,
}

impl SystemHierarchy {
    /// Contract `system` along greedy maximal matchings until one
    /// processor remains or a step stops making progress (shrinkage
    /// above [`STALL_RATIO`]).
    pub fn build(system: &SystemGraph) -> Result<SystemHierarchy, GraphError> {
        let mut systems = vec![Arc::new(system.clone())];
        let mut steps: Vec<Arc<SystemCoarsening>> = Vec::new();
        loop {
            let current = systems.last().expect("non-empty");
            let n = current.len();
            if n <= 1 {
                break;
            }
            let pairs = greedy_matching(current.graph());
            if (n - pairs.len()) as f64 > STALL_RATIO * n as f64 {
                break; // pathological topology (e.g. star): give up early
            }
            let mut partner = vec![usize::MAX; n];
            for &(a, b) in &pairs {
                partner[a] = b;
                partner[b] = a;
            }
            let mut proc_map = vec![usize::MAX; n];
            let mut groups: Vec<Vec<NodeId>> = Vec::with_capacity(n - pairs.len());
            for u in 0..n {
                if proc_map[u] != usize::MAX {
                    continue;
                }
                let gid = groups.len();
                proc_map[u] = gid;
                let mut members = vec![u];
                let p = partner[u];
                if p != usize::MAX {
                    proc_map[p] = gid;
                    members.push(p);
                    members.sort_unstable();
                }
                groups.push(members);
            }
            let m = groups.len();
            let mut contracted = UnGraph::new(m);
            for (u, v) in current.graph().edges() {
                if proc_map[u] != proc_map[v] {
                    contracted.add_edge(proc_map[u], proc_map[v])?;
                }
            }
            let coarse = SystemGraph::new(format!("{}/coarse[{m}]", system.name()), contracted)?;
            steps.push(Arc::new(SystemCoarsening { proc_map, groups }));
            systems.push(Arc::new(coarse));
        }
        Ok(SystemHierarchy { systems, steps })
    }

    /// The machines, finest first; `systems()[0]` is the original.
    pub fn systems(&self) -> &[Arc<SystemGraph>] {
        &self.systems
    }

    /// The contraction steps; `steps()[k]` goes from level `k` to
    /// `k + 1`.
    pub fn steps(&self) -> &[Arc<SystemCoarsening>] {
        &self.steps
    }

    /// The original (finest) machine.
    pub fn finest(&self) -> &Arc<SystemGraph> {
        &self.systems[0]
    }

    /// Number of levels including the finest.
    pub fn depth(&self) -> usize {
        self.systems.len()
    }

    /// The level a consumer with machine-size target `target_ns` solves
    /// directly: the first level with at most `target_ns` processors, or
    /// the coarsest available when the chain stalled earlier.
    pub fn top_level_for(&self, target_ns: usize) -> usize {
        let target = target_ns.max(1);
        self.systems
            .iter()
            .position(|s| s.len() <= target)
            .unwrap_or(self.systems.len() - 1)
    }

    /// The composed projection onto `level`: `image[s]` = the level-
    /// `level` node containing finest processor `s`. Level 0 is the
    /// identity.
    pub fn image_at(&self, level: usize) -> Vec<NodeId> {
        let mut image: Vec<NodeId> = (0..self.systems[0].len()).collect();
        for step in &self.steps[..level] {
            for slot in image.iter_mut() {
                *slot = step.proc_map[*slot];
            }
        }
        image
    }

    /// The finest-level processors of every level-`level` node — the
    /// "processor neighborhoods" the online remapper refines within.
    pub fn members_at(&self, level: usize) -> Vec<Vec<NodeId>> {
        let mut members = vec![Vec::new(); self.systems[level].len()];
        for (s, &g) in self.image_at(level).iter().enumerate() {
            members[g].push(s);
        }
        members
    }
}

/// The projection maps from one level to the next-coarser one.
#[derive(Clone, Debug)]
pub struct Coarsening {
    /// `cluster_map[c]` = coarse cluster absorbing fine cluster `c`.
    pub cluster_map: Vec<ClusterId>,
    /// Cross-cluster weight that became intra-cluster in this step.
    pub internalized_weight: Weight,
    /// The shared system-side half of this step.
    step: Arc<SystemCoarsening>,
}

impl Coarsening {
    /// `proc_map()[s]` = coarse processor (group) containing fine
    /// processor `s`.
    pub fn proc_map(&self) -> &[NodeId] {
        &self.step.proc_map
    }

    /// `groups()[g]` = fine member processors of coarse processor `g`,
    /// ascending (matched pair or singleton, always connected).
    pub fn groups(&self) -> &[Vec<NodeId>] {
        &self.step.groups
    }
}

/// One level of the hierarchy: a clustered problem graph and a system
/// graph with matching sizes (`na == ns`).
#[derive(Clone, Debug)]
pub struct Level {
    /// The (possibly coarsened) clustered problem graph.
    pub graph: ClusteredProblemGraph,
    /// The (possibly contracted) system graph, shared with the system
    /// hierarchy it came from.
    pub system: Arc<SystemGraph>,
}

/// The whole V-cycle input: `levels[0]` is the finest (original)
/// problem, `levels.last()` the top level the flat mapper solves;
/// `coarsenings[k]` maps level `k` onto level `k + 1`.
#[derive(Clone, Debug)]
pub struct Hierarchy {
    levels: Vec<Level>,
    coarsenings: Vec<Coarsening>,
}

impl Hierarchy {
    /// Coarsen `(graph, system)` until the machine has at most
    /// `target_ns` processors or a step stops making progress
    /// (shrinkage above [`STALL_RATIO`]). Requires `na == ns`; the
    /// result always contains at least the finest level. Builds a fresh
    /// [`SystemHierarchy`] — callers mapping repeatedly on one machine
    /// should build that once and use
    /// [`Hierarchy::from_system_hierarchy`].
    pub fn build(
        graph: &ClusteredProblemGraph,
        system: &SystemGraph,
        target_ns: usize,
    ) -> Result<Hierarchy, GraphError> {
        let sys = SystemHierarchy::build(system)?;
        Hierarchy::from_system_hierarchy(graph, &sys, target_ns)
    }

    /// Pair `graph` with the prefix of a prebuilt (typically cached)
    /// [`SystemHierarchy`], running only the per-job problem-side
    /// coarsening. Produces exactly the same hierarchy as
    /// [`Hierarchy::build`] on the same inputs.
    pub fn from_system_hierarchy(
        graph: &ClusteredProblemGraph,
        sys: &SystemHierarchy,
        target_ns: usize,
    ) -> Result<Hierarchy, GraphError> {
        if graph.num_clusters() != sys.finest().len() {
            return Err(GraphError::SizeMismatch {
                left: graph.num_clusters(),
                right: sys.finest().len(),
            });
        }
        let top = sys.top_level_for(target_ns);
        let mut levels = vec![Level {
            graph: graph.clone(),
            system: Arc::clone(sys.finest()),
        }];
        let mut coarsenings = Vec::with_capacity(top);
        if top > 0 {
            // Built once from the task edges, then contracted per level.
            let mut cluster_graph = ClusterGraph::new(graph);
            for k in 0..top {
                let step = &sys.steps()[k];
                let (cluster_map, internalized_weight, coarse) =
                    merge_clusters(&cluster_graph, step.groups.len());
                cluster_graph = coarse;
                let coarse_graph = levels[k].graph.coarsen(&cluster_map)?;
                coarsenings.push(Coarsening {
                    cluster_map,
                    internalized_weight,
                    step: Arc::clone(step),
                });
                levels.push(Level {
                    graph: coarse_graph,
                    system: Arc::clone(&sys.systems()[k + 1]),
                });
            }
        }
        Ok(Hierarchy {
            levels,
            coarsenings,
        })
    }

    /// All levels, finest first.
    pub fn levels(&self) -> &[Level] {
        &self.levels
    }

    /// The projection maps; `coarsenings()[k]` goes from level `k` to
    /// level `k + 1`.
    pub fn coarsenings(&self) -> &[Coarsening] {
        &self.coarsenings
    }

    /// The coarsest level (solved directly by the flat mapper).
    pub fn top(&self) -> &Level {
        self.levels.last().expect("hierarchy has >= 1 level")
    }

    /// Number of levels including the finest.
    pub fn depth(&self) -> usize {
        self.levels.len()
    }
}

/// The cluster graph of one level: for every cluster, its neighbours
/// in ascending order with the pair weight summed over both edge
/// directions — the sparse counterpart of [`AbstractGraph`]'s
/// adjacency and pair-weight matrix. Built once from the task edges at
/// the finest level, then contracted along each level's merges.
///
/// [`AbstractGraph`]: mimd_taskgraph::AbstractGraph
#[derive(Debug)]
struct ClusterGraph {
    /// Row `a` is `neighbors[offsets[a]..offsets[a + 1]]`.
    offsets: Vec<usize>,
    neighbors: Vec<ClusterId>,
    weights: Vec<Weight>,
}

/// Accumulates one row of a [`ClusterGraph`] at a time: a dense weight
/// slot per cluster and the set of clusters touched so far, read off in
/// ascending order when the row is done.
struct RowBuilder {
    weight: Vec<Weight>,
    touched: BitSet,
}

impl RowBuilder {
    fn new(na: usize) -> Self {
        RowBuilder {
            weight: vec![0; na],
            touched: BitSet::new(na),
        }
    }

    fn add(&mut self, b: ClusterId, w: Weight) {
        self.touched.insert(b);
        self.weight[b] += w;
    }

    /// Append the accumulated row to `graph` and reset for the next one.
    fn finish_row(&mut self, graph: &mut ClusterGraph) {
        for b in self.touched.iter() {
            graph.neighbors.push(b);
            graph.weights.push(self.weight[b]);
            self.weight[b] = 0;
        }
        self.touched.clear();
        graph.offsets.push(graph.neighbors.len());
    }
}

impl ClusterGraph {
    fn empty(na: usize) -> Self {
        let mut offsets = Vec::with_capacity(na + 1);
        offsets.push(0);
        ClusterGraph {
            offsets,
            neighbors: Vec::new(),
            weights: Vec::new(),
        }
    }

    /// Collapse the cross-cluster task edges of `graph`, one cluster at
    /// a time over its members' successors and predecessors.
    fn new(graph: &ClusteredProblemGraph) -> Self {
        let na = graph.num_clusters();
        let problem = graph.problem();
        let mut out = ClusterGraph::empty(na);
        let mut row = RowBuilder::new(na);
        for a in 0..na {
            for &t in graph.clustering().members(a) {
                for &(u, w) in problem.successors(t).iter().chain(problem.predecessors(t)) {
                    let b = graph.cluster_of(u);
                    if b != a {
                        row.add(b, w);
                    }
                }
            }
            row.finish_row(&mut out);
        }
        out
    }

    fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Neighbours of `a` (ascending) zipped with their pair weights.
    fn row(&self, a: ClusterId) -> impl Iterator<Item = (ClusterId, Weight)> + '_ {
        let span = self.offsets[a]..self.offsets[a + 1];
        self.neighbors[span.clone()]
            .iter()
            .copied()
            .zip(self.weights[span].iter().copied())
    }

    /// Every pair once as `(a, b, weight)` with `a < b`, in ascending
    /// `(a, b)` order.
    fn edges(&self) -> Vec<(NodeId, NodeId, Weight)> {
        (0..self.len())
            .flat_map(|a| {
                self.row(a)
                    .filter(move |&(b, _)| a < b)
                    .map(move |(b, w)| (a, b, w))
            })
            .collect()
    }

    /// The cluster graph after merging along `cluster_map` (onto `m`
    /// clusters), and the pair weight that fell inside a merged cluster.
    fn contract(&self, cluster_map: &[ClusterId], m: usize) -> (ClusterGraph, Weight) {
        let mut members = vec![[usize::MAX; 2]; m];
        for (a, &c) in cluster_map.iter().enumerate() {
            let slot = usize::from(members[c][0] != usize::MAX);
            members[c][slot] = a;
        }
        let mut out = ClusterGraph::empty(m);
        let mut row = RowBuilder::new(m);
        let mut inside: Weight = 0;
        for (c, pair) in members.iter().enumerate() {
            for &a in pair.iter().filter(|&&a| a != usize::MAX) {
                for (b, w) in self.row(a) {
                    match cluster_map[b] {
                        cb if cb == c => inside += w,
                        cb => row.add(cb, w),
                    }
                }
            }
            row.finish_row(&mut out);
        }
        // Each inside pair was seen from both of its members.
        (out, inside / 2)
    }
}

/// The problem-side half of one coarsening step: merge clusters
/// (heaviest pair weights first) down to exactly `m`, returning the
/// projection map, the internalized cut weight and the coarse cluster
/// graph.
fn merge_clusters(graph: &ClusterGraph, m: usize) -> (Vec<ClusterId>, Weight, ClusterGraph) {
    let na = graph.len();
    let merges_needed = na - m;
    let mut chosen = heavy_edge_matching(na, &graph.edges());
    chosen.truncate(merges_needed);
    if chosen.len() < merges_needed {
        // The cluster graph ran out of edges (or is sparse): pair the
        // remaining unmerged clusters by ascending id. Merging
        // non-communicating clusters is harmless — it only zeroes edges
        // that do not exist.
        let mut merged = vec![false; na];
        for &(a, b) in &chosen {
            merged[a] = true;
            merged[b] = true;
        }
        let free: Vec<ClusterId> = (0..na).filter(|&a| !merged[a]).collect();
        for pair in free.chunks(2) {
            if chosen.len() == merges_needed {
                break;
            }
            if let [a, b] = *pair {
                chosen.push((a, b));
            }
        }
    }
    debug_assert_eq!(chosen.len(), merges_needed);
    let mut mate = vec![usize::MAX; na];
    for &(a, b) in &chosen {
        mate[a] = b;
        mate[b] = a;
    }
    let mut cluster_map = vec![usize::MAX; na];
    let mut next = 0;
    for a in 0..na {
        if cluster_map[a] != usize::MAX {
            continue;
        }
        cluster_map[a] = next;
        if mate[a] != usize::MAX {
            cluster_map[mate[a]] = next;
        }
        next += 1;
    }
    debug_assert_eq!(next, m);
    let (coarse, internalized_weight) = graph.contract(&cluster_map, m);
    (cluster_map, internalized_weight, coarse)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mimd_taskgraph::clustering::region::random_region_clustering;
    use mimd_taskgraph::{AbstractGraph, GeneratorConfig, LayeredDagGenerator};
    use mimd_topology::{clustered_complete, mesh2d, random_topology, star, torus2d};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn instance(np: usize, ns: usize, seed: u64) -> ClusteredProblemGraph {
        let mut rng = StdRng::seed_from_u64(seed);
        let gen = LayeredDagGenerator::new(GeneratorConfig {
            tasks: np,
            ..GeneratorConfig::default()
        })
        .unwrap();
        let problem = gen.generate(&mut rng);
        let clustering = random_region_clustering(&problem, ns, &mut rng).unwrap();
        ClusteredProblemGraph::new(problem, clustering).unwrap()
    }

    #[test]
    fn hierarchy_halves_meshes_down_to_the_target() {
        let system = mesh2d(8, 8).unwrap();
        let graph = instance(128, 64, 1);
        let h = Hierarchy::build(&graph, &system, 8).unwrap();
        assert!(h.top().system.len() <= 8);
        assert!(h.depth() >= 3, "64 -> <=8 takes at least 3 halvings");
        // Sizes match at every level, and each step halves (mesh
        // matchings are near-perfect).
        for level in h.levels() {
            assert_eq!(level.graph.num_clusters(), level.system.len());
        }
        for pair in h.levels().windows(2) {
            assert!(pair[1].system.len() >= pair[0].system.len() / 2);
            assert!(pair[1].system.len() < pair[0].system.len());
        }
        assert_eq!(h.coarsenings().len(), h.depth() - 1);
    }

    #[test]
    fn projections_conserve_weight() {
        let system = torus2d(6, 6).unwrap();
        let graph = instance(90, 36, 7);
        let h = Hierarchy::build(&graph, &system, 4).unwrap();
        for (k, coarsening) in h.coarsenings().iter().enumerate() {
            let fine = &h.levels()[k];
            let coarse = &h.levels()[k + 1];
            // Task weight: same problem graph, so trivially conserved.
            assert_eq!(
                fine.graph.problem().sequential_time(),
                coarse.graph.problem().sequential_time()
            );
            // Cut weight: fine cut = coarse cut + internalized.
            assert_eq!(
                fine.graph.total_cut_weight(),
                coarse.graph.total_cut_weight() + coarsening.internalized_weight
            );
            // Groups partition the fine machine.
            let total: usize = coarsening.groups().iter().map(Vec::len).sum();
            assert_eq!(total, fine.system.len());
            // Group members are mutually reachable in <= 1 hop (matched
            // pair or singleton) — connected processor groups.
            for (g, members) in coarsening.groups().iter().enumerate() {
                assert!(members.len() <= 2);
                for &s in members {
                    assert_eq!(coarsening.proc_map()[s], g);
                }
                if let [a, b] = members[..] {
                    assert!(fine.system.adjacent(a, b));
                }
            }
        }
    }

    #[test]
    fn star_coarsening_stalls_instead_of_degenerating() {
        let system = star(32).unwrap();
        let graph = instance(64, 32, 3);
        let h = Hierarchy::build(&graph, &system, 4).unwrap();
        // A star matches exactly one pair per level (ratio 31/32 > 0.9),
        // so the hierarchy gives up immediately.
        assert_eq!(h.depth(), 1);
        assert_eq!(h.top().system.len(), 32);
    }

    #[test]
    fn size_mismatch_rejected() {
        let system = mesh2d(4, 4).unwrap();
        let graph = instance(40, 8, 1);
        assert!(Hierarchy::build(&graph, &system, 4).is_err());
    }

    #[test]
    fn cached_system_hierarchy_reproduces_a_fresh_build() {
        let system = torus2d(8, 8).unwrap();
        let sys = SystemHierarchy::build(&system).unwrap();
        // The chain goes all the way down; each consumer's prefix ends
        // at the first level small enough for its target.
        assert_eq!(sys.finest().len(), 64);
        assert!(sys.systems().last().unwrap().len() <= 2);
        for target in [1, 4, 8, 32, 64, 1000] {
            let top = sys.top_level_for(target);
            assert!(sys.systems()[top].len() <= target.max(1) || top == sys.depth() - 1);
            let graph = instance(128, 64, 9);
            let fresh = Hierarchy::build(&graph, &system, target).unwrap();
            let cached = Hierarchy::from_system_hierarchy(&graph, &sys, target).unwrap();
            assert_eq!(fresh.depth(), cached.depth(), "target {target}");
            for (a, b) in fresh.levels().iter().zip(cached.levels()) {
                assert_eq!(a.graph, b.graph);
                assert_eq!(a.system.graph(), b.system.graph());
                assert_eq!(a.system.distances(), b.system.distances());
            }
            for (a, b) in fresh.coarsenings().iter().zip(cached.coarsenings()) {
                assert_eq!(a.cluster_map, b.cluster_map);
                assert_eq!(a.internalized_weight, b.internalized_weight);
                assert_eq!(a.proc_map(), b.proc_map());
                assert_eq!(a.groups(), b.groups());
            }
        }
    }

    #[test]
    fn images_and_members_compose_the_proc_maps() {
        let system = mesh2d(4, 4).unwrap();
        let sys = SystemHierarchy::build(&system).unwrap();
        assert_eq!(sys.image_at(0), (0..16).collect::<Vec<_>>());
        for level in 0..sys.depth() {
            let image = sys.image_at(level);
            let members = sys.members_at(level);
            assert_eq!(members.len(), sys.systems()[level].len());
            // Every finest processor appears in exactly the member list
            // of its image.
            for (s, &g) in image.iter().enumerate() {
                assert!(members[g].contains(&s));
            }
            let total: usize = members.iter().map(Vec::len).sum();
            assert_eq!(total, 16);
        }
    }

    /// One coarsening step computed the dense way, from the fine model
    /// alone: the abstract graph's pair-weight matrix feeds the heavy-edge
    /// matching, the cut weight is rescanned over every task edge, and the
    /// coarse graph is the re-clustered problem. The last field tells
    /// whether the matching fell short and the ascending-id pairing ran.
    fn merge_clusters_dense(
        graph: &ClusteredProblemGraph,
        m: usize,
    ) -> (Vec<ClusterId>, Weight, ClusteredProblemGraph, bool) {
        let na = graph.num_clusters();
        let merges_needed = na - m;
        let abstract_graph = AbstractGraph::new(graph);
        let weighted_edges: Vec<(NodeId, NodeId, Weight)> = abstract_graph
            .adjacency()
            .edges()
            .map(|(a, b)| (a, b, abstract_graph.pair_weight(a, b)))
            .collect();
        let mut chosen = heavy_edge_matching(na, &weighted_edges);
        chosen.truncate(merges_needed);
        let fell_back = chosen.len() < merges_needed;
        if fell_back {
            let mut merged = vec![false; na];
            for &(a, b) in &chosen {
                merged[a] = true;
                merged[b] = true;
            }
            let free: Vec<ClusterId> = (0..na).filter(|&a| !merged[a]).collect();
            for pair in free.chunks(2) {
                if chosen.len() == merges_needed {
                    break;
                }
                if let [a, b] = *pair {
                    chosen.push((a, b));
                }
            }
        }
        let mut mate = vec![usize::MAX; na];
        for &(a, b) in &chosen {
            mate[a] = b;
            mate[b] = a;
        }
        let mut cluster_map = vec![usize::MAX; na];
        let mut next = 0;
        for a in 0..na {
            if cluster_map[a] != usize::MAX {
                continue;
            }
            cluster_map[a] = next;
            if mate[a] != usize::MAX {
                cluster_map[mate[a]] = next;
            }
            next += 1;
        }
        let internalized_weight = graph
            .cross_edges()
            .filter(|&(u, v, _)| {
                cluster_map[graph.cluster_of(u)] == cluster_map[graph.cluster_of(v)]
            })
            .map(|(_, _, w)| w)
            .sum();
        let coarse_graph = graph.coarsen(&cluster_map).unwrap();
        (cluster_map, internalized_weight, coarse_graph, fell_back)
    }

    /// The cluster graph must list exactly the abstract graph's pairs,
    /// ascending, with its pair weights.
    fn assert_cluster_graph_is_abstract_graph(cg: &ClusterGraph, graph: &ClusteredProblemGraph) {
        let abstract_graph = AbstractGraph::new(graph);
        assert_eq!(cg.len(), abstract_graph.len());
        for a in 0..cg.len() {
            let row: Vec<(ClusterId, Weight)> = cg.row(a).collect();
            let dense: Vec<(ClusterId, Weight)> = abstract_graph
                .neighbors(a)
                .iter()
                .map(|&b| (b, abstract_graph.pair_weight(a, b)))
                .collect();
            assert_eq!(row, dense, "cluster {a}");
        }
    }

    /// Coarsen `graph` on `system` both ways and compare every level;
    /// returns whether any level reached the ascending-id fallback.
    fn assert_sparse_matches_dense(graph: &ClusteredProblemGraph, system: &SystemGraph) -> bool {
        let h = Hierarchy::build(graph, system, 1).unwrap();
        let mut cg = ClusterGraph::new(graph);
        let mut fell_back = false;
        for (k, coarsening) in h.coarsenings().iter().enumerate() {
            let fine = &h.levels()[k].graph;
            let coarse = &h.levels()[k + 1].graph;
            assert_cluster_graph_is_abstract_graph(&cg, fine);
            let (map, internalized, dense_coarse, fallback) =
                merge_clusters_dense(fine, coarse.num_clusters());
            assert_eq!(coarsening.cluster_map, map, "level {k}");
            assert_eq!(coarsening.internalized_weight, internalized, "level {k}");
            assert_eq!(coarse, &dense_coarse, "level {k}");
            fell_back |= fallback;
            cg = merge_clusters(&cg, coarse.num_clusters()).2;
        }
        fell_back
    }

    #[test]
    fn sparse_coarsening_matches_the_dense_merge() {
        let mut rng = StdRng::seed_from_u64(5);
        let machines = [
            mesh2d(8, 8).unwrap(),
            mesh2d(5, 7).unwrap(),
            torus2d(6, 6).unwrap(),
            torus2d(8, 16).unwrap(),
            random_topology(64, 0.05, &mut rng).unwrap(),
            random_topology(100, 0.02, &mut rng).unwrap(),
            clustered_complete(4, 8).unwrap(),
            clustered_complete(6, 6).unwrap(),
        ];
        for (i, system) in machines.iter().enumerate() {
            for (seed, tasks_per_proc) in [(1, 2), (2, 3), (3, 5)] {
                let ns = system.len();
                let graph = instance(ns * tasks_per_proc, ns, 100 * i as u64 + seed);
                assert_sparse_matches_dense(&graph, system);
            }
        }
    }

    #[test]
    fn sparse_merge_matches_on_a_stalled_star() {
        // A star's hierarchy stops at level 0, so merge its clusters
        // directly, at several targets.
        let system = star(32).unwrap();
        let graph = instance(96, 32, 4);
        assert_eq!(Hierarchy::build(&graph, &system, 4).unwrap().depth(), 1);
        let cg = ClusterGraph::new(&graph);
        assert_cluster_graph_is_abstract_graph(&cg, &graph);
        for m in [31, 24, 16] {
            let (map, internalized, coarse_cg) = merge_clusters(&cg, m);
            let (dense_map, dense_internalized, dense_coarse, _) = merge_clusters_dense(&graph, m);
            assert_eq!(map, dense_map, "m = {m}");
            assert_eq!(internalized, dense_internalized, "m = {m}");
            assert_cluster_graph_is_abstract_graph(&coarse_cg, &dense_coarse);
        }
    }

    #[test]
    fn sparse_coarsening_matches_through_the_fallback_pairing() {
        // The benchmark's 2048-task job on torus:32x32 with seed 12345:
        // level 0's heavy-edge matching finds fewer merges than the 512
        // it needs, so the ascending-id pairing completes it.
        let system = torus2d(32, 32).unwrap();
        let mut rng = StdRng::seed_from_u64(12345);
        let gen = LayeredDagGenerator::new(GeneratorConfig {
            tasks: 2048,
            avg_width: 16,
            locality_window: Some(1),
            ..GeneratorConfig::default()
        })
        .unwrap();
        let problem = gen.generate(&mut rng);
        let clustering = random_region_clustering(&problem, 1024, &mut rng).unwrap();
        let graph = ClusteredProblemGraph::new(problem, clustering).unwrap();
        assert!(assert_sparse_matches_dense(&graph, &system));
    }
}
