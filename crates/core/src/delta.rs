//! Incremental (delta) evaluation of assignment changes — the
//! refinement hot path.
//!
//! Every refinement loop in the repo asks the same question thousands of
//! times: *what would the total time be if these clusters moved?*
//! Answering it with [`evaluate_assignment`](crate::evaluate_assignment)
//! costs a from-scratch schedule plus an assignment clone per
//! candidate. [`DeltaEvaluator`] instead compiles an **evaluation plan**
//! once per attach and keeps the committed schedule alive between
//! candidates.
//!
//! The plan indexes every task by its topological position and stores
//! flat arrays: a predecessor CSR (source position, cross-cluster weight
//! with intra-cluster edges stored as 0, source cluster), the cluster
//! and size of each position, a successor CSR, a cluster → positions
//! CSR (ascending, so each slice starts at the cluster's first
//! position) and the sink positions. A candidate is priced by one of
//! two arms over a staged copy of the end times:
//!
//! - the **sweep** recomputes every position from the first one a moved
//!   cluster owns to the end of the order — a dense pass with no
//!   bookkeeping per task;
//! - the **walk** marks the moved clusters' tasks and their successors
//!   in a dirty bitset and visits set bits in position order, skipping
//!   clean 64-task words and marking successors only when an end time
//!   actually shifted, so its cost follows the disturbed cone.
//!
//! The arm is fixed by the candidate: the walk runs when the moved
//! clusters seed fewer tasks (their own tasks plus each one's
//! successors, counted per edge) than the suffix the sweep would
//! recompute holds, the sweep otherwise. Full and per-group
//! re-placements seed many times the suffix and sweep; swaps and small
//! regions seed a fraction of it and walk. Measured on layered DAGs of
//! 512–4096 tasks, the walk wins below about 0.7 seeds per suffix
//! position and loses by 1.3–1.5× at 4 and more. The makespan is the
//! largest sink end: every task has size ≥ 1, so a non-sink ends before
//! each of its successors does.
//!
//! Exactness contract: every staged total equals
//! `evaluate_assignment(graph, system, candidate, model)?.total()`
//! **bit for bit** (property-tested in `tests/delta.rs` for both models
//! and both arms, pins on and off). The serialized model's greedy list
//! schedule reorders globally under any move, so it is recomputed in
//! full — but allocation-free, into workspace scratch.
//!
//! All buffers live in a caller-owned [`DeltaWorkspace`] so batch loops
//! (flat refinement, the multilevel V-cycle, online sessions) reuse one
//! workspace across attachments — zero allocation per candidate, and
//! none per level either once the buffers have grown to size.

use mimd_graph::error::GraphError;
use mimd_graph::{Time, Weight};
use mimd_taskgraph::{ClusteredProblemGraph, TaskId};
use mimd_topology::SystemGraph;

use crate::assignment::Assignment;
use crate::schedule::EvaluationModel;

/// One predecessor edge of the plan.
#[derive(Clone, Copy, Debug)]
struct PredEdge {
    /// Topological position of the source task.
    src: u32,
    /// Cluster of the source task.
    cluster: u32,
    /// Edge weight; 0 when source and target share a cluster.
    weight: Weight,
}

/// Reusable buffer bag for [`DeltaEvaluator`]. Create once, pass to
/// every [`DeltaEvaluator::attach`]; buffers are resized (never shrunk
/// below capacity) on attach and reused across candidates and
/// attachments. The plan and the end times are indexed by topological
/// position, the serialized-model scratch by task id.
#[derive(Clone, Debug, Default)]
pub struct DeltaWorkspace {
    /// Topological position per task id (plan compilation scratch).
    topo_pos: Vec<usize>,
    /// Predecessor CSR offsets (`n + 1`).
    pred_off: Vec<usize>,
    /// Predecessor edges grouped by target position.
    preds: Vec<PredEdge>,
    /// Successor CSR offsets (`n + 1`).
    succ_off: Vec<usize>,
    /// Successor positions grouped by source position.
    succs: Vec<u32>,
    /// Cluster per position.
    cluster: Vec<u32>,
    /// Execution time per position.
    size: Vec<Time>,
    /// Cluster → positions CSR offsets (`nc + 1`).
    cluster_off: Vec<usize>,
    /// Positions grouped by cluster, ascending within each cluster.
    cluster_positions: Vec<u32>,
    /// Positions of the tasks without successors.
    sinks: Vec<u32>,
    /// Committed end time per position (precedence model).
    end: Vec<Time>,
    /// Staged end time per position. Equal to `end` whenever no
    /// candidate is staged.
    staged: Vec<Time>,
    /// Walk arm: dirty bit per position.
    dirty: Vec<u64>,
    /// Walk arm: positions whose staged end differs from the committed
    /// one.
    touched: Vec<u32>,
    /// Sweep arm: first position of the staged suffix.
    sweep_from: Option<usize>,
    /// Undo log of `(cluster, old_processor)` for staged moves; also the
    /// seed list for both arms.
    undo_moves: Vec<(usize, usize)>,
    /// Serialized-model scratch: scheduled flag per task.
    ser_scheduled: Vec<bool>,
    /// Serialized-model scratch: unfinished predecessor count per task.
    ser_remaining: Vec<usize>,
    /// Serialized-model scratch: data-ready time per task.
    ser_ready: Vec<Time>,
    /// Serialized-model scratch: processor-free time per cluster.
    ser_free: Vec<Time>,
}

impl DeltaWorkspace {
    /// An empty workspace; buffers grow on first
    /// [`DeltaEvaluator::attach`].
    pub fn new() -> Self {
        DeltaWorkspace::default()
    }

    /// Compile the evaluation plan of `graph` (precedence model).
    fn compile(&mut self, graph: &ClusteredProblemGraph) {
        let problem = graph.problem();
        let topo = problem.topo_order();
        let n = problem.len();
        let nc = graph.num_clusters();
        let index = |x: usize| u32::try_from(x).expect("task count fits the plan's u32 indices");

        self.topo_pos.clear();
        self.topo_pos.resize(n, 0);
        for (pos, &t) in topo.iter().enumerate() {
            self.topo_pos[t] = pos;
        }
        self.pred_off.clear();
        self.preds.clear();
        self.succ_off.clear();
        self.succs.clear();
        self.cluster.clear();
        self.size.clear();
        self.sinks.clear();
        self.pred_off.push(0);
        self.succ_off.push(0);
        for (pos, &t) in topo.iter().enumerate() {
            let ct = graph.cluster_of(t);
            for &(u, w) in problem.predecessors(t) {
                let cu = graph.cluster_of(u);
                self.preds.push(PredEdge {
                    src: index(self.topo_pos[u]),
                    cluster: index(cu),
                    weight: if cu == ct { 0 } else { w },
                });
            }
            self.pred_off.push(self.preds.len());
            let succs = problem.successors(t);
            self.succs
                .extend(succs.iter().map(|&(v, _)| index(self.topo_pos[v])));
            self.succ_off.push(self.succs.len());
            if succs.is_empty() {
                self.sinks.push(index(pos));
            }
            self.cluster.push(index(ct));
            self.size.push(problem.size(t));
        }

        // Counting sort of positions by cluster keeps each slice
        // ascending.
        self.cluster_off.clear();
        self.cluster_off.resize(nc + 1, 0);
        for &c in &self.cluster {
            self.cluster_off[c as usize + 1] += 1;
        }
        for c in 0..nc {
            self.cluster_off[c + 1] += self.cluster_off[c];
        }
        self.cluster_positions.clear();
        self.cluster_positions.resize(n, 0);
        // `topo_pos` is free again: reuse it as the per-cluster cursor.
        self.topo_pos.clear();
        self.topo_pos.extend_from_slice(&self.cluster_off[..nc]);
        for pos in 0..n {
            let c = self.cluster[pos] as usize;
            self.cluster_positions[self.topo_pos[c]] = index(pos);
            self.topo_pos[c] += 1;
        }

        self.end.clear();
        self.end.resize(n, 0);
        self.staged.clear();
        self.staged.resize(n, 0);
        self.dirty.clear();
        self.dirty.resize(n.div_ceil(64), 0);
    }

    /// Positions owned by cluster `c`, ascending.
    #[inline]
    fn positions_of(&self, c: usize) -> &[u32] {
        &self.cluster_positions[self.cluster_off[c]..self.cluster_off[c + 1]]
    }

    /// Successor positions of position `p`.
    #[inline]
    fn succs_of(&self, p: usize) -> &[u32] {
        &self.succs[self.succ_off[p]..self.succ_off[p + 1]]
    }

    /// End time of position `p` given the staged ends of every earlier
    /// position.
    #[inline]
    fn staged_end_of(&self, p: usize, system: &SystemGraph, sys_of: &[usize]) -> Time {
        let here = sys_of[self.cluster[p] as usize];
        let mut s: Time = 0;
        for e in &self.preds[self.pred_off[p]..self.pred_off[p + 1]] {
            let mut arrive = self.staged[e.src as usize];
            if e.weight != 0 {
                arrive += e.weight * Time::from(system.hops(sys_of[e.cluster as usize], here));
            }
            s = s.max(arrive);
        }
        s + self.size[p]
    }

    /// Sweep arm: recompute every staged end from position `from` on.
    fn sweep(&mut self, from: usize, system: &SystemGraph, sys_of: &[usize]) {
        for p in from..self.staged.len() {
            self.staged[p] = self.staged_end_of(p, system, sys_of);
        }
    }

    #[inline]
    fn mark(&mut self, p: usize) {
        self.dirty[p / 64] |= 1 << (p % 64);
    }

    /// Mark every successor of `p`; returns the highest dirty word
    /// touched (0 for a sink).
    #[inline]
    fn mark_succs(&mut self, p: usize) -> usize {
        let mut hi = 0;
        for j in self.succ_off[p]..self.succ_off[p + 1] {
            let q = self.succs[j] as usize;
            self.mark(q);
            hi = hi.max(q / 64);
        }
        hi
    }

    /// Walk arm: seed the moved clusters' tasks and their successors,
    /// then visit dirty positions in order, recording each shifted end
    /// in `touched`. Successors sit at later positions, so every
    /// position is visited at most once.
    fn walk(&mut self, system: &SystemGraph, sys_of: &[usize]) {
        let mut lo = usize::MAX;
        let mut hi = 0;
        for i in 0..self.undo_moves.len() {
            let c = self.undo_moves[i].0;
            for k in self.cluster_off[c]..self.cluster_off[c + 1] {
                let p = self.cluster_positions[k] as usize;
                self.mark(p);
                lo = lo.min(p / 64);
                hi = hi.max(p / 64).max(self.mark_succs(p));
            }
        }
        let mut word = lo;
        while word <= hi {
            let bits = self.dirty[word];
            if bits == 0 {
                word += 1;
                continue;
            }
            self.dirty[word] = bits & (bits - 1);
            let p = word * 64 + bits.trailing_zeros() as usize;
            let e = self.staged_end_of(p, system, sys_of);
            if e != self.staged[p] {
                self.staged[p] = e;
                self.touched.push(p as u32);
                hi = hi.max(self.mark_succs(p));
            }
        }
    }

    /// The staged makespan: the largest sink end.
    #[inline]
    fn staged_makespan(&self) -> Time {
        self.sinks
            .iter()
            .map(|&p| self.staged[p as usize])
            .max()
            .unwrap_or(0)
    }
}

/// Incremental evaluator over one `(graph, system, model)` triple.
///
/// Owns the committed assignment and schedule; candidates are *staged*
/// (moves applied, staged ends recomputed, total read) and then either
/// [`commit`](DeltaEvaluator::commit)ted — the candidate becomes the new
/// committed state — or [`discard`](DeltaEvaluator::discard)ed, copying
/// the committed ends back over the staged ones and undoing the moves.
/// The `peek_*` / `apply_*` conveniences wrap the stage–decide cycle for
/// one-shot callers.
pub struct DeltaEvaluator<'a, 'w> {
    graph: &'a ClusteredProblemGraph,
    system: &'a SystemGraph,
    model: EvaluationModel,
    ws: &'w mut DeltaWorkspace,
    assignment: Assignment,
    total: Time,
    staged: Option<Time>,
}

impl<'a, 'w> DeltaEvaluator<'a, 'w> {
    /// Attach `ws` to an instance, compile its evaluation plan and
    /// build the committed schedule of `start`. Validation (and the
    /// error cases) are identical to
    /// [`evaluate_assignment`](crate::evaluate_assignment).
    pub fn attach(
        ws: &'w mut DeltaWorkspace,
        graph: &'a ClusteredProblemGraph,
        system: &'a SystemGraph,
        model: EvaluationModel,
        start: &Assignment,
    ) -> Result<Self, GraphError> {
        if graph.num_clusters() != system.len() {
            return Err(GraphError::SizeMismatch {
                left: graph.num_clusters(),
                right: system.len(),
            });
        }
        if start.len() != system.len() {
            return Err(GraphError::SizeMismatch {
                left: start.len(),
                right: system.len(),
            });
        }
        ws.undo_moves.clear();
        ws.touched.clear();
        ws.sweep_from = None;
        let mut evaluator = DeltaEvaluator {
            graph,
            system,
            model,
            ws,
            assignment: start.clone(),
            total: 0,
            staged: None,
        };
        evaluator.total = match model {
            EvaluationModel::Precedence => {
                let ws = &mut *evaluator.ws;
                ws.compile(graph);
                ws.sweep(0, system, start.sys_of_vec());
                ws.end.copy_from_slice(&ws.staged);
                ws.staged_makespan()
            }
            EvaluationModel::Serialized => evaluator.eval_serialized(),
        };
        Ok(evaluator)
    }

    /// The committed total time.
    #[inline]
    pub fn total(&self) -> Time {
        self.total
    }

    /// The committed assignment.
    #[inline]
    pub fn assignment(&self) -> &Assignment {
        &self.assignment
    }

    /// The evaluation model.
    #[inline]
    pub fn model(&self) -> EvaluationModel {
        self.model
    }

    /// `true` while a candidate is staged (awaiting commit/discard).
    #[inline]
    pub fn is_staged(&self) -> bool {
        self.staged.is_some()
    }

    /// Move cluster `a` to processor `s` if that is an actual change,
    /// recording the undo entry.
    #[inline]
    fn push_move(&mut self, a: usize, s: usize) {
        let old = self.assignment.sys_of(a);
        if old != s {
            self.ws.undo_moves.push((a, old));
            self.assignment.place(a, s);
        }
    }

    /// Stage the same re-placement as
    /// [`Assignment::place_subset`](crate::Assignment::place_subset):
    /// `clusters[i]` goes to `processors[perm[i]]`. Returns the
    /// candidate's total time; the evaluator stays staged until
    /// [`commit`](DeltaEvaluator::commit) or
    /// [`discard`](DeltaEvaluator::discard).
    pub fn stage_place(
        &mut self,
        clusters: &[usize],
        processors: &[usize],
        perm: &[usize],
    ) -> Time {
        assert!(self.staged.is_none(), "previous candidate still staged");
        assert_eq!(clusters.len(), processors.len(), "subset sizes must match");
        assert_eq!(clusters.len(), perm.len(), "permutation size must match");
        for (i, &a) in clusters.iter().enumerate() {
            self.push_move(a, processors[perm[i]]);
        }
        self.eval_staged()
    }

    /// Stage a full candidate assignment (diffed against the committed
    /// one — only actual moves cost anything). `candidate` must have the
    /// committed assignment's length.
    pub fn stage_candidate(&mut self, candidate: &Assignment) -> Time {
        assert!(self.staged.is_none(), "previous candidate still staged");
        assert_eq!(candidate.len(), self.assignment.len(), "candidate size");
        for a in 0..candidate.len() {
            self.push_move(a, candidate.sys_of(a));
        }
        self.eval_staged()
    }

    /// Stage the pairwise exchange of clusters `a` and `b`.
    pub fn stage_swap(&mut self, a: usize, b: usize) -> Time {
        assert!(self.staged.is_none(), "previous candidate still staged");
        let (sa, sb) = (self.assignment.sys_of(a), self.assignment.sys_of(b));
        self.push_move(a, sb);
        self.push_move(b, sa);
        self.eval_staged()
    }

    /// Evaluate the staged moves: sweep or walk for precedence,
    /// allocation-free full recompute for serialized.
    fn eval_staged(&mut self) -> Time {
        let total = match self.model {
            EvaluationModel::Precedence => self.eval_precedence(),
            EvaluationModel::Serialized => self.eval_serialized(),
        };
        self.staged = Some(total);
        total
    }

    /// Price the staged moves on the precedence model with the arm the
    /// seed count picks (see the module docs).
    fn eval_precedence(&mut self) -> Time {
        let ws = &mut *self.ws;
        let mut first = ws.staged.len();
        for &(c, _) in &ws.undo_moves {
            if let Some(&p) = ws.positions_of(c).first() {
                first = first.min(p as usize);
            }
        }
        let suffix = ws.staged.len() - first;
        if suffix == 0 {
            // Nothing moved, or only clusters without tasks.
            return self.total;
        }
        let mut seeds = 0;
        'count: for &(c, _) in &ws.undo_moves {
            for &p in ws.positions_of(c) {
                seeds += 1 + ws.succs_of(p as usize).len();
                if seeds >= suffix {
                    break 'count;
                }
            }
        }
        let sys_of = self.assignment.sys_of_vec();
        if seeds >= suffix {
            ws.sweep(first, self.system, sys_of);
            ws.sweep_from = Some(first);
        } else {
            ws.walk(self.system, sys_of);
            if ws.touched.is_empty() {
                return self.total;
            }
        }
        ws.staged_makespan()
    }

    /// Allocation-free recompute of the serialized (greedy list
    /// scheduling) total — the algorithm of `Schedule::serialized`
    /// verbatim, against workspace scratch instead of fresh vectors.
    fn eval_serialized(&mut self) -> Time {
        let ws = &mut *self.ws;
        let graph = self.graph;
        let system = self.system;
        let assignment = &self.assignment;
        let problem = graph.problem();
        let n = problem.len();
        ws.ser_scheduled.clear();
        ws.ser_scheduled.resize(n, false);
        ws.ser_ready.clear();
        ws.ser_ready.resize(n, 0);
        ws.ser_free.clear();
        ws.ser_free.resize(graph.num_clusters(), 0);
        ws.ser_remaining.clear();
        ws.ser_remaining
            .extend((0..n).map(|t| problem.predecessors(t).len()));
        let mut total: Time = 0;
        for _ in 0..n {
            let mut best: Option<(Time, TaskId)> = None;
            for t in 0..n {
                if ws.ser_scheduled[t] || ws.ser_remaining[t] > 0 {
                    continue;
                }
                let feasible = ws.ser_ready[t].max(ws.ser_free[graph.cluster_of(t)]);
                if best.is_none_or(|(bt, bid)| (feasible, t) < (bt, bid)) {
                    best = Some((feasible, t));
                }
            }
            let (s, t) = best.expect("DAG always has a ready task");
            ws.ser_scheduled[t] = true;
            let e = s + problem.size(t);
            ws.ser_free[graph.cluster_of(t)] = e;
            total = total.max(e);
            for &(v, w) in problem.successors(t) {
                ws.ser_remaining[v] -= 1;
                ws.ser_ready[v] = ws.ser_ready[v].max(e + comm(graph, system, assignment, t, v, w));
            }
        }
        total
    }

    /// Accept the staged candidate: its staged ends become the
    /// committed ones.
    pub fn commit(&mut self) {
        let total = self.staged.take().expect("no candidate staged");
        let ws = &mut *self.ws;
        match ws.sweep_from.take() {
            Some(from) => ws.end[from..].copy_from_slice(&ws.staged[from..]),
            None => {
                for &p in &ws.touched {
                    ws.end[p as usize] = ws.staged[p as usize];
                }
            }
        }
        ws.touched.clear();
        ws.undo_moves.clear();
        self.total = total;
    }

    /// Reject the staged candidate: the committed ends are copied back
    /// over the staged ones and the moves undone (`O(staged work)`,
    /// like the evaluation itself).
    pub fn discard(&mut self) {
        assert!(self.staged.take().is_some(), "no candidate staged");
        let ws = &mut *self.ws;
        match ws.sweep_from.take() {
            Some(from) => ws.staged[from..].copy_from_slice(&ws.end[from..]),
            None => {
                for &p in &ws.touched {
                    ws.staged[p as usize] = ws.end[p as usize];
                }
            }
        }
        ws.touched.clear();
        while let Some((a, old)) = ws.undo_moves.pop() {
            self.assignment.place(a, old);
        }
    }

    /// Evaluate a [`place_subset`](crate::Assignment::place_subset)-style
    /// re-placement without keeping it.
    pub fn peek_place(&mut self, clusters: &[usize], processors: &[usize], perm: &[usize]) -> Time {
        let total = self.stage_place(clusters, processors, perm);
        self.discard();
        total
    }

    /// Evaluate a full candidate assignment without keeping it.
    pub fn peek_candidate(&mut self, candidate: &Assignment) -> Time {
        let total = self.stage_candidate(candidate);
        self.discard();
        total
    }

    /// Evaluate a pairwise exchange without keeping it.
    pub fn peek_swap(&mut self, a: usize, b: usize) -> Time {
        let total = self.stage_swap(a, b);
        self.discard();
        total
    }

    /// Evaluate and keep a re-placement.
    pub fn apply_place(
        &mut self,
        clusters: &[usize],
        processors: &[usize],
        perm: &[usize],
    ) -> Time {
        let total = self.stage_place(clusters, processors, perm);
        self.commit();
        total
    }

    /// Evaluate and keep a full candidate assignment.
    pub fn apply_candidate(&mut self, candidate: &Assignment) -> Time {
        let total = self.stage_candidate(candidate);
        self.commit();
        total
    }

    /// Evaluate and keep a pairwise exchange.
    pub fn apply_swap(&mut self, a: usize, b: usize) -> Time {
        let total = self.stage_swap(a, b);
        self.commit();
        total
    }
}

/// The per-edge communication cost under `assignment`: `w × hops`
/// between the hosting processors, 0 within a cluster. `w` is the
/// problem edge weight straight from the adjacency list, so no weight
/// lookup is needed; every evaluator in the crate prices edges with
/// this function.
#[inline]
pub(crate) fn comm(
    graph: &ClusteredProblemGraph,
    system: &SystemGraph,
    assignment: &Assignment,
    u: TaskId,
    t: TaskId,
    w: Weight,
) -> Time {
    let (cu, ct) = (graph.cluster_of(u), graph.cluster_of(t));
    if cu == ct || w == 0 {
        0
    } else {
        w * Time::from(system.hops(assignment.sys_of(cu), assignment.sys_of(ct)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate::evaluate_assignment;
    use crate::shuffle::fisher_yates;
    use mimd_taskgraph::paper;
    use mimd_topology::ring;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn worked() -> (ClusteredProblemGraph, SystemGraph) {
        (paper::worked_example(), ring(4).unwrap())
    }

    fn full_total(
        g: &ClusteredProblemGraph,
        sys: &SystemGraph,
        a: &Assignment,
        model: EvaluationModel,
    ) -> Time {
        evaluate_assignment(g, sys, a, model).unwrap().total()
    }

    #[test]
    fn attach_matches_full_evaluation() {
        let (g, sys) = worked();
        for model in [EvaluationModel::Precedence, EvaluationModel::Serialized] {
            let mut ws = DeltaWorkspace::new();
            let a = Assignment::identity(4);
            let ev = DeltaEvaluator::attach(&mut ws, &g, &sys, model, &a).unwrap();
            assert_eq!(ev.total(), full_total(&g, &sys, &a, model));
            assert_eq!(ev.assignment(), &a);
            assert_eq!(ev.model(), model);
        }
    }

    #[test]
    fn swaps_match_full_evaluation_and_roll_back() {
        let (g, sys) = worked();
        for model in [EvaluationModel::Precedence, EvaluationModel::Serialized] {
            let mut ws = DeltaWorkspace::new();
            let a = Assignment::identity(4);
            let mut ev = DeltaEvaluator::attach(&mut ws, &g, &sys, model, &a).unwrap();
            let committed = ev.total();
            for x in 0..4 {
                for y in 0..4 {
                    if x == y {
                        continue;
                    }
                    let mut swapped = a.clone();
                    swapped.swap_clusters(x, y);
                    assert_eq!(
                        ev.peek_swap(x, y),
                        full_total(&g, &sys, &swapped, model),
                        "{model:?} swap {x}<->{y}"
                    );
                    // Rollback restored the committed state.
                    assert_eq!(ev.total(), committed);
                    assert_eq!(ev.assignment(), &a);
                    assert_eq!(ev.peek_candidate(&a), committed);
                }
            }
        }
    }

    #[test]
    fn apply_commits_and_further_deltas_stack() {
        let (g, sys) = worked();
        let mut ws = DeltaWorkspace::new();
        let mut current = Assignment::identity(4);
        let mut ev =
            DeltaEvaluator::attach(&mut ws, &g, &sys, EvaluationModel::Precedence, &current)
                .unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..50 {
            let candidate = Assignment::random(4, &mut rng);
            let total = ev.apply_candidate(&candidate);
            current = candidate;
            assert_eq!(
                total,
                full_total(&g, &sys, &current, EvaluationModel::Precedence)
            );
            assert_eq!(ev.assignment(), &current);
            assert_eq!(ev.total(), total);
        }
    }

    #[test]
    fn stage_place_matches_place_subset() {
        let (g, sys) = worked();
        let mut ws = DeltaWorkspace::new();
        let base = Assignment::from_sys_of(vec![3, 2, 1, 0]).unwrap();
        let mut ev =
            DeltaEvaluator::attach(&mut ws, &g, &sys, EvaluationModel::Precedence, &base).unwrap();
        let clusters = [0, 2, 3];
        let processors = [3, 1, 0];
        let mut rng = StdRng::seed_from_u64(9);
        let mut perm: Vec<usize> = (0..3).collect();
        for _ in 0..30 {
            fisher_yates(&mut perm, &mut rng);
            let mut reference = base.clone();
            reference.place_subset(&clusters, &processors, &perm);
            assert_eq!(
                ev.peek_place(&clusters, &processors, &perm),
                full_total(&g, &sys, &reference, EvaluationModel::Precedence)
            );
            assert_eq!(ev.assignment(), &base);
        }
    }

    #[test]
    fn validation_matches_evaluate_assignment() {
        let (g, _) = worked();
        let sys5 = ring(5).unwrap();
        let mut ws = DeltaWorkspace::new();
        assert!(matches!(
            DeltaEvaluator::attach(
                &mut ws,
                &g,
                &sys5,
                EvaluationModel::Precedence,
                &Assignment::identity(5)
            ),
            Err(GraphError::SizeMismatch { .. })
        ));
        let sys4 = ring(4).unwrap();
        assert!(DeltaEvaluator::attach(
            &mut ws,
            &g,
            &sys4,
            EvaluationModel::Precedence,
            &Assignment::identity(5)
        )
        .is_err());
    }

    #[test]
    fn workspace_reuse_across_instances() {
        let (g, sys) = worked();
        let mut ws = DeltaWorkspace::new();
        {
            let mut ev = DeltaEvaluator::attach(
                &mut ws,
                &g,
                &sys,
                EvaluationModel::Serialized,
                &Assignment::identity(4),
            )
            .unwrap();
            ev.apply_swap(0, 3);
        }
        // Re-attach with stale buffers: totals still exact.
        let a = Assignment::from_sys_of(vec![1, 0, 3, 2]).unwrap();
        let ev =
            DeltaEvaluator::attach(&mut ws, &g, &sys, EvaluationModel::Precedence, &a).unwrap();
        assert_eq!(
            ev.total(),
            full_total(&g, &sys, &a, EvaluationModel::Precedence)
        );
    }

    #[test]
    #[should_panic(expected = "still staged")]
    fn double_stage_panics() {
        let (g, sys) = worked();
        let mut ws = DeltaWorkspace::new();
        let mut ev = DeltaEvaluator::attach(
            &mut ws,
            &g,
            &sys,
            EvaluationModel::Precedence,
            &Assignment::identity(4),
        )
        .unwrap();
        ev.stage_swap(0, 1);
        ev.stage_swap(1, 2);
    }
}
