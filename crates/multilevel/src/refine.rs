//! Group-local refinement during uncoarsening — the paper's §4.3.3
//! randomized re-placement restricted to each processor group.
//!
//! After prolonging a coarse assignment, every cluster already sits on
//! a processor of the group its coarse host expanded into; what is left
//! to decide is the *arrangement within each group*. Because clusters
//! never leave their group, the per-group permutations of one candidate
//! are independent of each other — a candidate is just the incumbent
//! with a fresh random permutation inside every multi-member group.
//! Candidates are drawn in fixed-size batches from the incumbent:
//! the whole batch is generated first (sequentially, so the random
//! stream is fixed), evaluated under the analytic model — in parallel
//! via [`mimd_core::parallel::deterministic_map`] when `threads > 1` —
//! and the best strictly-improving candidate (ties to the earliest)
//! becomes the new incumbent. The batch, not the thread count, is the
//! unit of acceptance, so the outcome is byte-identical for any
//! `threads`; with `batch = 1` the loop is exactly the classic
//! sequential accept-any-improvement smoother. Refinement stops early
//! the moment the level's ideal-graph lower bound is reached
//! (Theorem 3). The budget is a fixed number of candidate evaluations
//! per level, so refinement work grows with the hierarchy depth
//! (`O(log ns)` levels), not with `ns`.

use rand::Rng;

use mimd_core::delta::{DeltaEvaluator, DeltaWorkspace};
use mimd_core::evaluate::evaluate_total;
use mimd_core::parallel::deterministic_map;
use mimd_core::schedule::EvaluationModel;
use mimd_core::shuffle::fisher_yates;
use mimd_core::Assignment;
use mimd_graph::error::GraphError;
use mimd_graph::{NodeId, Time};
use mimd_taskgraph::ClusteredProblemGraph;
use mimd_telemetry::Recorder;
use mimd_topology::SystemGraph;

/// Objective and budget of a group-local refinement pass.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LocalRefineConfig {
    /// The level's ideal-graph lower bound (early-stop target).
    pub lower_bound: Time,
    /// Maximum number of candidates (one full-assignment evaluation
    /// each).
    pub rounds: usize,
    /// Candidates generated per batch (the unit of acceptance); 1
    /// reproduces the sequential accept-any-improvement loop.
    pub batch: usize,
    /// Worker threads evaluating a batch (<= 1 = inline). Never changes
    /// the result, only the wall-clock.
    pub threads: usize,
    /// The evaluation model (paper: precedence).
    pub model: EvaluationModel,
}

/// What a group-local refinement pass did.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LocalRefineOutcome {
    /// The best assignment found.
    pub assignment: Assignment,
    /// Its total time under the configured model.
    pub total: Time,
    /// Candidates actually evaluated (≤ the configured budget).
    pub rounds_used: usize,
    /// Batches that improved the incumbent.
    pub improvements: usize,
    /// `true` iff the level's lower bound was reached (provably optimal
    /// at this level).
    pub reached_lower_bound: bool,
}

/// Refine `start` by randomly re-arranging clusters within each
/// processor group for up to `config.rounds` candidate evaluations.
pub fn refine_within_groups(
    graph: &ClusteredProblemGraph,
    system: &SystemGraph,
    groups: &[Vec<NodeId>],
    start: &Assignment,
    config: &LocalRefineConfig,
    rng: &mut impl Rng,
) -> Result<LocalRefineOutcome, GraphError> {
    let mut ws = DeltaWorkspace::new();
    refine_within_groups_with(
        graph,
        system,
        groups,
        start,
        config,
        &Recorder::disabled(),
        &mut ws,
        rng,
    )
}

/// [`refine_within_groups`] with a caller-owned [`DeltaWorkspace`]
/// (reused across V-cycle levels) and a telemetry recorder.
#[allow(clippy::too_many_arguments)]
pub fn refine_within_groups_with(
    graph: &ClusteredProblemGraph,
    system: &SystemGraph,
    groups: &[Vec<NodeId>],
    start: &Assignment,
    config: &LocalRefineConfig,
    recorder: &Recorder,
    ws: &mut DeltaWorkspace,
    rng: &mut impl Rng,
) -> Result<LocalRefineOutcome, GraphError> {
    // Plain total-time objective: the penalized-cost generalization in
    // `mimd-online` passes its own scorer through the same core.
    refine_batched_with(
        graph,
        system,
        groups,
        start,
        config,
        |_, total| u128::from(total),
        recorder,
        ws,
        rng,
    )
}

/// The shared batch-synchronous smoother core: the acceptance loop of
/// [`refine_within_groups`] parameterized by a cost function
/// `score(candidate, total) -> cost` (lower is better; ties within a
/// batch go to the earliest candidate). The random stream, the batch
/// accounting and the early stop (on the *total* reaching
/// `lower_bound`) are identical for every scorer, so determinism-
/// critical logic exists exactly once — `mimd-online`'s migration-
/// penalized refiner reuses this instead of duplicating the loop.
pub fn refine_batched<S>(
    graph: &ClusteredProblemGraph,
    system: &SystemGraph,
    groups: &[Vec<NodeId>],
    start: &Assignment,
    config: &LocalRefineConfig,
    score: S,
    rng: &mut impl Rng,
) -> Result<LocalRefineOutcome, GraphError>
where
    S: Fn(&Assignment, Time) -> u128 + Sync,
{
    let mut ws = DeltaWorkspace::new();
    refine_batched_with(
        graph,
        system,
        groups,
        start,
        config,
        score,
        &Recorder::disabled(),
        &mut ws,
        rng,
    )
}

/// [`refine_batched`] with a caller-owned [`DeltaWorkspace`] and
/// telemetry recorder (`refine.candidates` / `refine.accepted`
/// counters, batched once per call). When `threads <= 1` candidates are
/// priced by the incremental [`DeltaEvaluator`] — a sweep of the
/// disturbed suffix or a walk of the disturbed cone per candidate, with
/// zero allocation — while `threads > 1` keeps the parallel full
/// evaluations. Both arms
/// produce bit-identical totals (the delta evaluator's contract), so
/// the outcome stays invariant under the thread count.
#[allow(clippy::too_many_arguments)]
pub fn refine_batched_with<S>(
    graph: &ClusteredProblemGraph,
    system: &SystemGraph,
    groups: &[Vec<NodeId>],
    start: &Assignment,
    config: &LocalRefineConfig,
    score: S,
    recorder: &Recorder,
    ws: &mut DeltaWorkspace,
    rng: &mut impl Rng,
) -> Result<LocalRefineOutcome, GraphError>
where
    S: Fn(&Assignment, Time) -> u128 + Sync,
{
    let LocalRefineConfig {
        lower_bound,
        rounds,
        batch,
        threads,
        model,
    } = *config;
    let batch = batch.max(1);
    let mut evaluator = if threads <= 1 {
        Some(DeltaEvaluator::attach(ws, graph, system, model, start)?)
    } else {
        None
    };
    let mut best = start.clone();
    let mut best_total = match &evaluator {
        Some(ev) => ev.total(),
        None => evaluate_total(graph, system, &best, model)?,
    };
    let mut best_cost = score(&best, best_total);
    recorder.gain_run_start("local.refine", best_total);
    let mut outcome = LocalRefineOutcome {
        assignment: best.clone(),
        total: best_total,
        rounds_used: 0,
        improvements: 0,
        reached_lower_bound: best_total == lower_bound,
    };
    if outcome.reached_lower_bound {
        return Ok(outcome);
    }
    let multi: Vec<&Vec<NodeId>> = groups.iter().filter(|g| g.len() >= 2).collect();
    if multi.is_empty() {
        return Ok(outcome);
    }

    let mut clusters = Vec::new();
    let mut perm = Vec::new();
    while outcome.rounds_used < rounds {
        // Generate the whole batch from the incumbent first; the random
        // stream consumed here is independent of how the batch is later
        // evaluated.
        let width = batch.min(rounds - outcome.rounds_used);
        let mut candidates = Vec::with_capacity(width);
        for _ in 0..width {
            let mut candidate = best.clone();
            for group in &multi {
                clusters.clear();
                clusters.extend(group.iter().map(|&s| best.cluster_of(s)));
                perm.clear();
                perm.extend(0..group.len());
                fisher_yates(&mut perm, rng);
                candidate.place_subset(&clusters, group, &perm);
            }
            candidates.push(candidate);
        }
        outcome.rounds_used += width;

        let scored: Vec<Result<(Time, u128), GraphError>> = match evaluator.as_mut() {
            Some(ev) => candidates
                .iter()
                .map(|candidate| {
                    let total = ev.peek_candidate(candidate);
                    Ok((total, score(candidate, total)))
                })
                .collect(),
            None => deterministic_map(width, threads, |i| {
                let total = evaluate_total(graph, system, &candidates[i], model)?;
                Ok((total, score(&candidates[i], total)))
            }),
        };
        let mut winner: Option<(Time, u128, usize)> = None;
        for (i, result) in scored.into_iter().enumerate() {
            let (total, cost) = result?;
            if cost < best_cost && winner.is_none_or(|(_, c, _)| cost < c) {
                winner = Some((total, cost, i));
            }
        }
        if let Some((total, cost, i)) = winner {
            if let Some(ev) = evaluator.as_mut() {
                ev.apply_candidate(&candidates[i]);
            }
            best = candidates.swap_remove(i);
            recorder.gain("local.refine", best_total as i64 - total as i64, total);
            best_total = total;
            best_cost = cost;
            outcome.improvements += 1;
            if total == lower_bound {
                outcome.reached_lower_bound = true;
                break;
            }
        }
    }
    if outcome.rounds_used > 0 {
        recorder.add("refine.candidates", outcome.rounds_used as u64);
    }
    if outcome.improvements > 0 {
        recorder.add("refine.accepted", outcome.improvements as u64);
    }
    outcome.assignment = best;
    outcome.total = best_total;
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mimd_taskgraph::paper;
    use mimd_topology::ring;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn config(lower_bound: Time, rounds: usize) -> LocalRefineConfig {
        LocalRefineConfig {
            lower_bound,
            rounds,
            batch: 1,
            threads: 1,
            model: EvaluationModel::Precedence,
        }
    }

    #[test]
    fn finds_the_worked_example_optimum_within_one_group() {
        let graph = paper::worked_example();
        let system = ring(4).unwrap();
        // One group covering the whole ring: equivalent to the paper's
        // unrestricted refinement.
        let groups = vec![vec![0, 1, 2, 3]];
        let start = Assignment::identity(4);
        let mut rng = StdRng::seed_from_u64(1);
        let out = refine_within_groups(
            &graph,
            &system,
            &groups,
            &start,
            &config(paper::WORKED_LOWER_BOUND, 100),
            &mut rng,
        )
        .unwrap();
        assert!(out.reached_lower_bound, "total {}", out.total);
        assert_eq!(out.total, paper::WORKED_LOWER_BOUND);
        assert!(out.rounds_used <= 100);
    }

    #[test]
    fn clusters_never_leave_their_group() {
        let graph = paper::worked_example();
        let system = ring(4).unwrap();
        let groups = vec![vec![0, 1], vec![2, 3]];
        let start = Assignment::identity(4);
        let mut rng = StdRng::seed_from_u64(2);
        let out = refine_within_groups(&graph, &system, &groups, &start, &config(0, 50), &mut rng)
            .unwrap();
        // Clusters 0,1 started in group {0,1}; they must still be there.
        for c in 0..2 {
            assert!(out.assignment.sys_of(c) < 2, "cluster {c} escaped");
        }
        for c in 2..4 {
            assert!(out.assignment.sys_of(c) >= 2, "cluster {c} escaped");
        }
    }

    #[test]
    fn singleton_groups_are_a_noop() {
        let graph = paper::worked_example();
        let system = ring(4).unwrap();
        let groups = vec![vec![0], vec![1], vec![2], vec![3]];
        let start = Assignment::identity(4);
        let mut rng = StdRng::seed_from_u64(3);
        let out = refine_within_groups(&graph, &system, &groups, &start, &config(0, 50), &mut rng)
            .unwrap();
        assert_eq!(out.rounds_used, 0);
        assert_eq!(out.assignment, start);
    }

    #[test]
    fn never_worse_than_start_and_deterministic() {
        let graph = paper::worked_example();
        let system = ring(4).unwrap();
        let groups = vec![vec![0, 2], vec![1, 3]];
        let run = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let start = Assignment::from_sys_of(vec![3, 2, 1, 0]).unwrap();
            refine_within_groups(&graph, &system, &groups, &start, &config(0, 20), &mut rng)
                .unwrap()
        };
        let a = run(9);
        let b = run(9);
        assert_eq!(a, b, "same seed, same outcome");
        let start_total = evaluate_total(
            &graph,
            &system,
            &Assignment::from_sys_of(vec![3, 2, 1, 0]).unwrap(),
            EvaluationModel::Precedence,
        )
        .unwrap();
        assert!(a.total <= start_total);
    }

    #[test]
    fn batched_refinement_is_thread_count_invariant() {
        let graph = paper::worked_example();
        let system = ring(4).unwrap();
        let groups = vec![vec![0, 1, 2, 3]];
        let run = |batch: usize, threads: usize| {
            let mut rng = StdRng::seed_from_u64(11);
            let start = Assignment::from_sys_of(vec![3, 2, 1, 0]).unwrap();
            refine_within_groups(
                &graph,
                &system,
                &groups,
                &start,
                &LocalRefineConfig {
                    lower_bound: 0,
                    rounds: 24,
                    batch,
                    threads,
                    model: EvaluationModel::Precedence,
                },
                &mut rng,
            )
            .unwrap()
        };
        for batch in [1, 3, 4, 24] {
            let reference = run(batch, 1);
            assert_eq!(reference.rounds_used, 24);
            for threads in [2, 4, 8] {
                assert_eq!(
                    run(batch, threads),
                    reference,
                    "batch {batch} threads {threads}"
                );
            }
        }
        // The budget is respected even when it is not a batch multiple.
        let mut rng = StdRng::seed_from_u64(5);
        let start = Assignment::identity(4);
        let out = refine_within_groups(
            &graph,
            &system,
            &groups,
            &start,
            &LocalRefineConfig {
                lower_bound: 0,
                rounds: 10,
                batch: 4,
                threads: 2,
                model: EvaluationModel::Precedence,
            },
            &mut rng,
        )
        .unwrap();
        assert_eq!(out.rounds_used, 10);
    }
}
