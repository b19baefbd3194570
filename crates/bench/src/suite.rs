//! Declarative benchmark suites.
//!
//! A [`BenchSuite`] is a named list of [`Scenario`]s plus a default
//! repetition count. Scenarios are pure serde data — the whole suite
//! serializes, and its [`fingerprint`](BenchSuite::fingerprint) is a
//! hash of that serialization, so two reports are comparable exactly
//! when they measured the same workload definitions.

use serde::{Deserialize, Serialize};

use mimd_engine::{AlgorithmSpec, JobSpec, TopologySpec, WorkloadSpec};

use crate::report::fnv64_hex;

/// What one scenario exercises.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum ScenarioKind {
    /// One engine job through
    /// [`MappingService::map_job`](mimd_service::MappingService::map_job)
    /// — the flat paper pipeline, the multilevel V-cycle, or any other
    /// registry algorithm, selected by the spec.
    Job {
        /// The job to run (carries its own seed).
        job: JobSpec,
    },
    /// A synthetic churn trace replayed through the incremental
    /// remapper
    /// ([`MappingService::replay`](mimd_service::MappingService::replay)).
    Replay {
        /// Tasks in the generated layered DAG.
        tasks: usize,
        /// Target machine (its size is the cluster count).
        topology: TopologySpec,
        /// Churn events to generate and apply.
        events: usize,
        /// Churn regime name (`arrivals`, `drift` or `mixed`).
        regime: String,
        /// `true` forces a full V-cycle per event (the from-scratch
        /// baseline the incremental path is measured against).
        scratch: bool,
        /// Seed for generation, the initial mapping and every event.
        seed: u64,
    },
    /// A [`MappingService`](mimd_service::MappingService) request
    /// stream: the given one-shot jobs, then a full session
    /// (open / apply × events / close) and a final stats request —
    /// the mixed traffic shape `mimd serve` sees.
    ServiceStream {
        /// `map_once` jobs served before the session traffic.
        jobs: Vec<JobSpec>,
        /// Tasks in the session's generated workload.
        session_tasks: usize,
        /// The session's machine.
        session_topology: TopologySpec,
        /// Churn events applied to the session.
        session_events: usize,
        /// Seed for the session workload, trace and mapping.
        seed: u64,
    },
    /// The concurrent server under load: `mimd loadgen` driving
    /// `sessions` open/apply/close sessions over `connections`
    /// connections against an in-process
    /// [`Server`](mimd_server::Server) on a Unix socket with `shards`
    /// worker shards — the `mimd serve --listen` throughput number.
    ServiceLoad {
        /// Concurrent sessions to drive.
        sessions: usize,
        /// Client connections the sessions are spread over.
        connections: usize,
        /// Worker shards the server runs.
        shards: usize,
        /// Per-shard queue depth; sized so nothing is rejected —
        /// admission churn would make the repetition nondeterministic.
        queue_depth: usize,
        /// Tasks in the shared session workload.
        tasks: usize,
        /// Every session's machine.
        topology: TopologySpec,
        /// Churn events each session applies.
        events: usize,
        /// Seed for the shared trace; session `i` opens with
        /// `seed + i`.
        seed: u64,
    },
}

/// One named scenario of a suite.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Suite-unique name (the compare key).
    pub name: String,
    /// What to run.
    pub kind: ScenarioKind,
}

impl Scenario {
    /// The report's `kind` label: `job:<algorithm>`, `replay`,
    /// `service_stream` or `service_load`.
    pub fn kind_label(&self) -> String {
        match &self.kind {
            ScenarioKind::Job { job } => format!("job:{}", job.algorithm.name()),
            ScenarioKind::Replay { .. } => "replay".to_string(),
            ScenarioKind::ServiceStream { .. } => "service_stream".to_string(),
            ScenarioKind::ServiceLoad { .. } => "service_load".to_string(),
        }
    }
}

/// A named list of scenarios plus the default repetition count.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct BenchSuite {
    /// Suite name (`quick`, `full`, or a harness name).
    pub name: String,
    /// Default min-of-k repetitions (`mimd bench --reps` overrides).
    pub reps: usize,
    /// The scenarios, in run order.
    pub scenarios: Vec<Scenario>,
}

impl BenchSuite {
    /// Hash of the serialized scenario definitions (name, reps and
    /// every parameter): reports fingerprint the workload they
    /// measured, and the compare gate refuses to cross fingerprints.
    pub fn fingerprint(&self) -> String {
        let bytes = serde_json::to_string(self).expect("BenchSuite serializes");
        fnv64_hex(bytes.as_bytes())
    }
}

fn job(
    id: &str,
    workload: WorkloadSpec,
    topology: TopologySpec,
    algorithm: AlgorithmSpec,
    seed: u64,
) -> JobSpec {
    JobSpec {
        id: Some(id.to_string()),
        workload,
        clustering: None,
        topology,
        topology_seed: None,
        algorithm,
        seed,
    }
}

fn paper() -> AlgorithmSpec {
    AlgorithmSpec::Paper {
        refine_iterations: None,
        exchange_pool: 0,
    }
}

fn multilevel() -> AlgorithmSpec {
    AlgorithmSpec::Multilevel {
        direct_threshold: None,
        refine_rounds: None,
        refine_batch: None,
        refine_threads: None,
    }
}

/// The `quick` suite: one scenario per kind, sized to finish in
/// seconds — the CI `bench-gate` workload.
fn quick_suite() -> BenchSuite {
    BenchSuite {
        name: "quick".into(),
        reps: 3,
        scenarios: vec![
            Scenario {
                name: "flat_paper_mesh6x6".into(),
                kind: ScenarioKind::Job {
                    job: job(
                        "flat_paper_mesh6x6",
                        WorkloadSpec::PaperRegime { tasks: 96 },
                        TopologySpec::Mesh { rows: 6, cols: 6 },
                        paper(),
                        42,
                    ),
                },
            },
            Scenario {
                name: "multilevel_torus8x8".into(),
                kind: ScenarioKind::Job {
                    job: job(
                        "multilevel_torus8x8",
                        WorkloadSpec::Layered {
                            tasks: 256,
                            width: None,
                        },
                        TopologySpec::Torus { rows: 8, cols: 8 },
                        multilevel(),
                        42,
                    ),
                },
            },
            Scenario {
                name: "replay_mixed_torus8x8".into(),
                kind: ScenarioKind::Replay {
                    tasks: 128,
                    topology: TopologySpec::Torus { rows: 8, cols: 8 },
                    events: 40,
                    regime: "mixed".into(),
                    scratch: false,
                    seed: 7,
                },
            },
            Scenario {
                name: "serve_mixed_ring8".into(),
                kind: ScenarioKind::ServiceStream {
                    jobs: vec![
                        job(
                            "fft_hypercube",
                            WorkloadSpec::Fft { log2n: 4 },
                            TopologySpec::Hypercube { dim: 3 },
                            paper(),
                            1,
                        ),
                        job(
                            "ge_hypercube",
                            WorkloadSpec::GaussianElimination { n: 8 },
                            TopologySpec::Hypercube { dim: 3 },
                            AlgorithmSpec::Random { k: 16 },
                            2,
                        ),
                        job(
                            "paper_ring",
                            WorkloadSpec::PaperRegime { tasks: 64 },
                            TopologySpec::Ring { n: 8 },
                            paper(),
                            3,
                        ),
                    ],
                    session_tasks: 64,
                    session_topology: TopologySpec::Ring { n: 8 },
                    session_events: 12,
                    seed: 11,
                },
            },
            Scenario {
                name: "serve_load_ring8".into(),
                kind: ScenarioKind::ServiceLoad {
                    sessions: 64,
                    connections: 8,
                    shards: 4,
                    // Far above sessions × (events + 2): zero
                    // admission rejects, so the repetition outcome is
                    // deterministic.
                    queue_depth: 1024,
                    tasks: 64,
                    topology: TopologySpec::Ring { n: 8 },
                    events: 6,
                    seed: 11,
                },
            },
        ],
    }
}

/// The `full` suite: wider sizes, both churn regimes and the scratch
/// baseline — the local deep-measurement workload.
fn full_suite() -> BenchSuite {
    let mut suite = quick_suite();
    suite.name = "full".into();
    suite.reps = 5;
    suite.scenarios.extend([
        Scenario {
            name: "flat_exchange_mesh8x8".into(),
            kind: ScenarioKind::Job {
                job: job(
                    "flat_exchange_mesh8x8",
                    WorkloadSpec::PaperRegime { tasks: 160 },
                    TopologySpec::Mesh { rows: 8, cols: 8 },
                    AlgorithmSpec::Paper {
                        refine_iterations: None,
                        exchange_pool: 64,
                    },
                    42,
                ),
            },
        },
        Scenario {
            name: "multilevel_torus16x16".into(),
            kind: ScenarioKind::Job {
                job: job(
                    "multilevel_torus16x16",
                    WorkloadSpec::Layered {
                        tasks: 512,
                        width: None,
                    },
                    TopologySpec::Torus { rows: 16, cols: 16 },
                    multilevel(),
                    42,
                ),
            },
        },
        Scenario {
            name: "multilevel_clusters8x16".into(),
            kind: ScenarioKind::Job {
                job: job(
                    "multilevel_clusters8x16",
                    WorkloadSpec::Layered {
                        tasks: 384,
                        width: None,
                    },
                    TopologySpec::ClusteredComplete {
                        groups: 8,
                        group_size: 16,
                    },
                    multilevel(),
                    42,
                ),
            },
        },
        Scenario {
            // The benchmark's critical job (also pinned in the CLI
            // goldens): a fresh random machine, so APSP, the system
            // hierarchy and the cluster-graph coarsening all run.
            name: "multilevel_random1024".into(),
            kind: ScenarioKind::Job {
                job: JobSpec {
                    topology_seed: Some(1024),
                    ..job(
                        "multilevel_random1024",
                        WorkloadSpec::Layered {
                            tasks: 2048,
                            width: None,
                        },
                        TopologySpec::Random { n: 1024, p: 0.004 },
                        multilevel(),
                        18,
                    )
                },
            },
        },
        Scenario {
            name: "replay_arrivals_torus8x8".into(),
            kind: ScenarioKind::Replay {
                tasks: 128,
                topology: TopologySpec::Torus { rows: 8, cols: 8 },
                events: 80,
                regime: "arrivals".into(),
                scratch: false,
                seed: 7,
            },
        },
        Scenario {
            name: "replay_scratch_torus8x8".into(),
            kind: ScenarioKind::Replay {
                tasks: 128,
                topology: TopologySpec::Torus { rows: 8, cols: 8 },
                events: 40,
                regime: "mixed".into(),
                scratch: true,
                seed: 7,
            },
        },
    ]);
    suite
}

/// Every built-in suite.
pub fn suites() -> Vec<BenchSuite> {
    vec![quick_suite(), full_suite()]
}

/// Look up a built-in suite by name.
pub fn suite_by_name(name: &str) -> Result<BenchSuite, String> {
    suites()
        .into_iter()
        .find(|s| s.name == name)
        .ok_or_else(|| {
            let names: Vec<String> = suites().into_iter().map(|s| s.name).collect();
            format!("unknown suite '{name}' (available: {})", names.join(", "))
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_suites_cover_every_scenario_kind() {
        let quick = suite_by_name("quick").unwrap();
        let kinds: Vec<String> = quick.scenarios.iter().map(Scenario::kind_label).collect();
        for kind in [
            "job:paper",
            "job:multilevel",
            "replay",
            "service_stream",
            "service_load",
        ] {
            assert!(kinds.iter().any(|k| k == kind), "quick misses {kind}");
        }
        assert!(suite_by_name("full").unwrap().scenarios.len() > quick.scenarios.len());
        assert!(suite_by_name("nope").is_err());
    }

    #[test]
    fn scenario_names_are_suite_unique() {
        for suite in suites() {
            let mut names: Vec<&str> = suite.scenarios.iter().map(|s| s.name.as_str()).collect();
            let total = names.len();
            names.sort_unstable();
            names.dedup();
            assert_eq!(
                names.len(),
                total,
                "duplicate scenario name in {}",
                suite.name
            );
        }
    }

    #[test]
    fn fingerprint_tracks_the_definition() {
        let a = suite_by_name("quick").unwrap();
        let mut b = a.clone();
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_ne!(
            a.fingerprint(),
            suite_by_name("full").unwrap().fingerprint()
        );
        if let ScenarioKind::Replay { events, .. } = &mut b.scenarios[2].kind {
            *events += 1;
        } else {
            panic!("expected replay at index 2");
        }
        assert_ne!(
            a.fingerprint(),
            b.fingerprint(),
            "parameters change the print"
        );
    }

    #[test]
    fn suites_serialize_for_fingerprinting() {
        for suite in suites() {
            let json = serde_json::to_string(&suite).unwrap();
            let back: BenchSuite = serde_json::from_str(&json).unwrap();
            assert_eq!(back, suite);
        }
    }
}
