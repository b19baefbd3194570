//! Property tests for the incremental evaluation engine: on a replayed
//! refinement run, every candidate the [`DeltaEvaluator`] prices must
//! equal `evaluate_assignment` on the materialized candidate —
//! bit-for-bit, under both models, with and without pins — and the
//! [`GainTable`] must stay equal to a from-scratch rebuild after every
//! accepted swap.
//!
//! The evaluator prices a candidate with a dense sweep when the moved
//! clusters seed at least the suffix it would recompute, and with a
//! dirty-bitset walk otherwise. Small instances rarely reach the walk,
//! so dedicated cases drive each arm: full and per-group shuffles of a
//! dense 512-task DAG (sweep), single swaps on a wide locality-windowed
//! DAG (walk), and an interleaving of both whose commits and discards
//! cross arms.

use proptest::prelude::*;

use mimd_core::delta::{DeltaEvaluator, DeltaWorkspace};
use mimd_core::evaluate::evaluate_assignment;
use mimd_core::gain::GainTable;
use mimd_core::schedule::EvaluationModel;
use mimd_core::{fisher_yates, Assignment};
use mimd_taskgraph::clustering::random::random_clustering;
use mimd_taskgraph::clustering::region::random_region_clustering;
use mimd_taskgraph::{ClusteredProblemGraph, GeneratorConfig, LayeredDagGenerator};
use mimd_topology::{hypercube, ring, torus2d, SystemGraph};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn topology(index: usize, ns_hint: usize) -> SystemGraph {
    match index % 3 {
        0 => ring(ns_hint.max(3)).unwrap(),
        1 => hypercube(3).unwrap(),
        _ => torus2d(3, 3).unwrap(),
    }
}

fn instance(ns: usize, extra: usize, seed: u64) -> ClusteredProblemGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let gen = LayeredDagGenerator::new(GeneratorConfig {
        tasks: ns + extra,
        ..GeneratorConfig::default()
    })
    .unwrap();
    let problem = gen.generate(&mut rng);
    let clustering = random_clustering(&problem, ns, &mut rng).unwrap();
    ClusteredProblemGraph::new(problem, clustering).unwrap()
}

/// A layered DAG of `tasks` tasks region-clustered onto `ns` clusters.
/// `window = None` gives the dense default generator (long skip edges,
/// so a move disturbs most of the graph); a narrow window on wide
/// layers gives small cones.
fn layered(
    ns: usize,
    tasks: usize,
    avg_width: usize,
    window: Option<usize>,
    seed: u64,
) -> ClusteredProblemGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let gen = LayeredDagGenerator::new(GeneratorConfig {
        tasks,
        avg_width,
        locality_window: window,
        ..GeneratorConfig::default()
    })
    .unwrap();
    let problem = gen.generate(&mut rng);
    let clustering = random_region_clustering(&problem, ns, &mut rng).unwrap();
    ClusteredProblemGraph::new(problem, clustering).unwrap()
}

fn model_of(ix: usize) -> EvaluationModel {
    if ix == 0 {
        EvaluationModel::Precedence
    } else {
        EvaluationModel::Serialized
    }
}

/// Clusters refinement may move: every third one is pinned when
/// `with_pins` is set.
fn movable_clusters(ns: usize, with_pins: bool) -> Vec<usize> {
    (0..ns).filter(|c| !with_pins || c % 3 != 0).collect()
}

/// `base` with each run of `group` consecutive movable clusters
/// shuffled over the processors the run occupies (the V-cycle's
/// group-local candidate shape).
fn group_shuffle(
    base: &Assignment,
    movable: &[usize],
    group: usize,
    rng: &mut StdRng,
) -> Assignment {
    let mut candidate = base.clone();
    for chunk in movable.chunks(group) {
        let processors: Vec<usize> = chunk.iter().map(|&c| base.sys_of(c)).collect();
        let mut perm: Vec<usize> = (0..chunk.len()).collect();
        fisher_yates(&mut perm, rng);
        candidate.place_subset(chunk, &processors, &perm);
    }
    candidate
}

/// Two distinct movable clusters.
fn swap_pair(movable: &[usize], rng: &mut StdRng) -> (usize, usize) {
    let i = rng.gen_range(0..movable.len());
    let j = (i + 1 + rng.gen_range(0..movable.len() - 1)) % movable.len();
    (movable[i], movable[j])
}

fn full_total(
    graph: &ClusteredProblemGraph,
    system: &SystemGraph,
    assignment: &Assignment,
    model: EvaluationModel,
) -> u64 {
    evaluate_assignment(graph, system, assignment, model)
        .unwrap()
        .total()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Replay a refinement-shaped run — alternating random subset
    /// re-placements and pairwise swaps, greedily accepting improvements
    /// so the committed base keeps moving — and check every staged
    /// candidate and every committed state against the full evaluator.
    #[test]
    fn delta_totals_match_full_evaluation_on_every_candidate(
        topo in 0usize..3,
        extra in 8usize..64,
        seed in 0u64..1_000_000,
        model_ix in 0usize..2,
        with_pins in 0usize..2,
    ) {
        let system = topology(topo, 6);
        let ns = system.len();
        let graph = instance(ns, extra, seed);
        let model = model_of(model_ix);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xBEEF);
        let start = Assignment::random(ns, &mut rng);

        // Pins shrink the movable pool the way `refine` would.
        let movable = movable_clusters(ns, with_pins == 1);
        prop_assert!(movable.len() >= 2);
        let free_sys: Vec<usize> = movable.iter().map(|&c| start.sys_of(c)).collect();

        let mut ws = DeltaWorkspace::new();
        let mut evaluator =
            DeltaEvaluator::attach(&mut ws, &graph, &system, model, &start).unwrap();
        prop_assert_eq!(evaluator.total(), full_total(&graph, &system, &start, model));

        let mut perm: Vec<usize> = (0..movable.len()).collect();
        let mut best = evaluator.total();
        for round in 0..15 {
            let (staged_total, expected) = if round % 2 == 0 {
                // Subset re-placement, exactly like the flat refine loop.
                fisher_yates(&mut perm, &mut rng);
                let mut expected = evaluator.assignment().clone();
                expected.place_subset(&movable, &free_sys, &perm);
                (evaluator.stage_place(&movable, &free_sys, &perm), expected)
            } else {
                // Pairwise swap between two movable clusters.
                let a = movable[rng.gen_range(0..movable.len())];
                let mut b = movable[rng.gen_range(0..movable.len())];
                if a == b {
                    b = movable[(movable.iter().position(|&c| c == a).unwrap() + 1)
                        % movable.len()];
                }
                let mut expected = evaluator.assignment().clone();
                expected.swap_clusters(a, b);
                (evaluator.stage_swap(a, b), expected)
            };
            // The staged total must equal a from-scratch evaluation of
            // the staged placement.
            prop_assert_eq!(staged_total, full_total(&graph, &system, &expected, model));

            if staged_total < best {
                evaluator.commit();
                best = staged_total;
                prop_assert_eq!(evaluator.assignment(), &expected);
            } else {
                evaluator.discard();
            }
            // Commit or rollback, the evaluator's committed state stays
            // exact.
            prop_assert_eq!(
                evaluator.total(),
                full_total(&graph, &system, evaluator.assignment(), model)
            );
        }
    }

    /// After any sequence of accepted swaps, the incrementally repaired
    /// gain table equals a from-scratch rebuild, its boundary predicate
    /// holds, and `swap_gain` predicts the external-cost drop exactly.
    #[test]
    fn gain_table_matches_rebuild_after_accepted_swaps(
        topo in 0usize..3,
        extra in 8usize..48,
        seed in 0u64..1_000_000,
        swaps in 1usize..12,
    ) {
        let system = topology(topo, 5);
        let ns = system.len();
        let graph = instance(ns, extra, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xF00D);
        let mut assignment = Assignment::random(ns, &mut rng);
        let pinned: Vec<bool> = (0..ns).map(|c| c % 4 == 0).collect();
        let mut table = GainTable::new(&graph, &system, &assignment, &pinned);

        for _ in 0..swaps {
            let a = rng.gen_range(0..ns);
            let b = (a + 1 + rng.gen_range(0..ns - 1)) % ns;
            let ext_before: i64 = (0..ns).map(|c| table.ext(c) as i64).sum();
            let gain = table.swap_gain(a, b, &assignment, &system);

            assignment.swap_clusters(a, b);
            table.apply_swap(a, b, &assignment, &system);

            let fresh = GainTable::new(&graph, &system, &assignment, &pinned);
            let ext_after: i64 = (0..ns).map(|c| fresh.ext(c) as i64).sum();
            #[allow(clippy::needless_range_loop)]
            for c in 0..ns {
                prop_assert_eq!(table.ext(c), fresh.ext(c), "ext[{}] diverged", c);
                prop_assert_eq!(
                    table.boundary().contains(c),
                    fresh.boundary().contains(c),
                    "boundary[{}] diverged",
                    c
                );
                prop_assert_eq!(table.movable().contains(c), !pinned[c]);
                if table.boundary().contains(c) {
                    prop_assert!(table.movable().contains(c));
                }
            }
            // ext sums count each cross edge at both endpoints, so the
            // predicted drop appears twice.
            prop_assert_eq!(ext_before - ext_after, 2 * gain);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Sweep arm: full re-placements of every movable cluster and
    /// per-group shuffles on a dense 512-task DAG seed far more tasks
    /// than any suffix holds.
    #[test]
    fn sweep_arm_matches_full_evaluation(
        seed in 0u64..1_000_000,
        model_ix in 0usize..2,
        with_pins in 0usize..2,
    ) {
        let system = torus2d(4, 4).unwrap();
        let ns = system.len();
        let graph = layered(ns, 512, 16, None, seed);
        let model = model_of(model_ix);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
        let start = Assignment::random(ns, &mut rng);
        let movable = movable_clusters(ns, with_pins == 1);
        let free_sys: Vec<usize> = movable.iter().map(|&c| start.sys_of(c)).collect();

        let mut ws = DeltaWorkspace::new();
        let mut evaluator = DeltaEvaluator::attach(&mut ws, &graph, &system, model, &start).unwrap();
        prop_assert_eq!(evaluator.total(), full_total(&graph, &system, &start, model));
        let mut perm: Vec<usize> = (0..movable.len()).collect();
        for round in 0..8 {
            let expected = if round % 2 == 0 {
                fisher_yates(&mut perm, &mut rng);
                let mut expected = evaluator.assignment().clone();
                expected.place_subset(&movable, &free_sys, &perm);
                let staged = evaluator.stage_place(&movable, &free_sys, &perm);
                prop_assert_eq!(staged, full_total(&graph, &system, &expected, model));
                expected
            } else {
                let expected = group_shuffle(evaluator.assignment(), &movable, 4, &mut rng);
                let staged = evaluator.stage_candidate(&expected);
                prop_assert_eq!(staged, full_total(&graph, &system, &expected, model));
                expected
            };
            if round % 3 == 0 {
                evaluator.commit();
                prop_assert_eq!(evaluator.assignment(), &expected);
            } else {
                evaluator.discard();
            }
            prop_assert_eq!(
                evaluator.total(),
                full_total(&graph, &system, evaluator.assignment(), model)
            );
        }
    }

    /// Walk arm: single swaps on a wide, locality-windowed DAG seed a
    /// small share of the graph, so their cones are walked.
    #[test]
    fn walk_arm_matches_full_evaluation(
        seed in 0u64..1_000_000,
        model_ix in 0usize..2,
        with_pins in 0usize..2,
    ) {
        let system = torus2d(8, 8).unwrap();
        let ns = system.len();
        let graph = layered(ns, 512, 32, Some(4), seed);
        let model = model_of(model_ix);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xCAFE);
        let start = Assignment::random(ns, &mut rng);
        let movable = movable_clusters(ns, with_pins == 1);

        let mut ws = DeltaWorkspace::new();
        let mut evaluator = DeltaEvaluator::attach(&mut ws, &graph, &system, model, &start).unwrap();
        let mut best = evaluator.total();
        for _ in 0..40 {
            let (a, b) = swap_pair(&movable, &mut rng);
            let mut expected = evaluator.assignment().clone();
            expected.swap_clusters(a, b);
            let staged = evaluator.stage_swap(a, b);
            prop_assert_eq!(staged, full_total(&graph, &system, &expected, model));
            if staged <= best {
                evaluator.commit();
                best = staged;
            } else {
                evaluator.discard();
            }
            prop_assert_eq!(
                evaluator.total(),
                full_total(&graph, &system, evaluator.assignment(), model)
            );
        }
    }

    /// Both arms on one evaluator: swaps (walk) interleaved with full
    /// and group shuffles (sweep), each committed or discarded at
    /// random, so a staged buffer one arm left stale would corrupt the
    /// next candidate of the other.
    #[test]
    fn interleaved_arms_stay_exact(
        seed in 0u64..1_000_000,
        model_ix in 0usize..2,
        with_pins in 0usize..2,
    ) {
        let system = torus2d(8, 8).unwrap();
        let ns = system.len();
        let graph = layered(ns, 512, 32, Some(4), seed);
        let model = model_of(model_ix);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xD1CE);
        let start = Assignment::random(ns, &mut rng);
        let movable = movable_clusters(ns, with_pins == 1);
        let free_sys: Vec<usize> = movable.iter().map(|&c| start.sys_of(c)).collect();

        let mut ws = DeltaWorkspace::new();
        let mut evaluator = DeltaEvaluator::attach(&mut ws, &graph, &system, model, &start).unwrap();
        let mut perm: Vec<usize> = (0..movable.len()).collect();
        for _ in 0..30 {
            let expected = match rng.gen_range(0..4) {
                0 => {
                    fisher_yates(&mut perm, &mut rng);
                    let mut expected = evaluator.assignment().clone();
                    expected.place_subset(&movable, &free_sys, &perm);
                    let staged = evaluator.stage_place(&movable, &free_sys, &perm);
                    prop_assert_eq!(staged, full_total(&graph, &system, &expected, model));
                    expected
                }
                1 => {
                    let expected = group_shuffle(evaluator.assignment(), &movable, 8, &mut rng);
                    let staged = evaluator.stage_candidate(&expected);
                    prop_assert_eq!(staged, full_total(&graph, &system, &expected, model));
                    expected
                }
                _ => {
                    let (a, b) = swap_pair(&movable, &mut rng);
                    let mut expected = evaluator.assignment().clone();
                    expected.swap_clusters(a, b);
                    let staged = evaluator.stage_swap(a, b);
                    prop_assert_eq!(staged, full_total(&graph, &system, &expected, model));
                    expected
                }
            };
            if rng.gen_range(0..2) == 0 {
                evaluator.commit();
                prop_assert_eq!(evaluator.assignment(), &expected);
            } else {
                evaluator.discard();
            }
            prop_assert_eq!(
                evaluator.total(),
                full_total(&graph, &system, evaluator.assignment(), model)
            );
        }
    }
}
