//! The traced re-execution of a run's served requests.
//!
//! A plan is JSONL. A `scope` item starts fresh topology caches (one
//! `mimd batch` process, or one `mimd serve`), pre-building the
//! topologies the run warmed up before its timed phase. A `job` item is
//! one line of a `mimd batch` input with its served result line; a
//! `request` item is one protocol line sent to `mimd serve` with its
//! served response line.
//!
//! Each item runs twice. First untraced, through the program's own entry
//! point (`execute_job`, `MappingService::handle_reserved`); then
//! decomposed, calling each layer's public function in the order the
//! program does, with a span around each call. Both must print exactly
//! the served line.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Deserialize;

use mimd_core::{
    initial_assignment, refine_with, Assignment, CriticalAnalysis, DeltaWorkspace, IdealSchedule,
    MapperConfig, RefineConfig, RefineOutcome,
};
use mimd_engine::{
    execute_job, AlgorithmSpec, JobResult, JobSpec, TopologyArtifacts, TopologyCache, TopologySpec,
};
use mimd_multilevel::{MultilevelConfig, MultilevelMapper, SystemHierarchy};
use mimd_online::{DynamicWorkload, IncrementalMapper, OnlineSession, TraceHeader};
use mimd_service::{
    ErrorCode, MappingService, Request, Response, ServiceConfig, ServiceError, SessionConfig,
};
use mimd_taskgraph::{AbstractGraph, ClusteredProblemGraph};
use mimd_telemetry::Recorder;

use crate::spans::Tracer;

#[derive(Deserialize)]
struct WarmTopology {
    topology: TopologySpec,
    topology_seed: Option<u64>,
}

#[derive(Deserialize)]
struct PlanItem {
    /// `scope`, `job` or `request`.
    kind: String,
    /// Trace id shared by every span of this item.
    trace: Option<String>,
    /// Topologies a `scope` pre-builds.
    warm: Option<Vec<WarmTopology>>,
    /// Position of a `job` in its batch.
    index: Option<usize>,
    /// The session id the server reserved for an `open_session`.
    reserve: Option<u64>,
    line: Option<String>,
    served: Option<String>,
}

/// One program process's worth of state, mirrored twice.
struct Scope {
    /// The untraced side: the program's own service (batch jobs use its
    /// topology cache through `execute_job`).
    service: MappingService,
    /// The traced side's cache and live sessions.
    cache: TopologyCache,
    sessions: BTreeMap<u64, (OnlineSession, usize)>,
}

impl Scope {
    fn new(warm: &[WarmTopology]) -> Result<Scope, String> {
        let scope = Scope {
            service: MappingService::new(ServiceConfig::default()),
            cache: TopologyCache::new(),
            sessions: BTreeMap::new(),
        };
        for w in warm {
            for cache in [scope.service.cache(), &scope.cache] {
                let artifacts = cache
                    .get_or_build(&w.topology, w.topology_seed.unwrap_or(0))
                    .map_err(|e| format!("warm-up topology: {e}"))?;
                cache
                    .system_hierarchy(&artifacts)
                    .map_err(|e| format!("warm-up hierarchy: {e}"))?;
            }
        }
        Ok(scope)
    }
}

pub fn run_plan(plan: &str, spans_out: &str) -> Result<(), String> {
    let file = std::fs::File::open(plan).map_err(|e| format!("{plan}: {e}"))?;
    let mut tr = Tracer::new();
    let mut scope: Option<Scope> = None;
    let mut items = 0usize;
    for (lineno, line) in BufReader::new(file).lines().enumerate() {
        let line = line.map_err(|e| e.to_string())?;
        if line.trim().is_empty() {
            continue;
        }
        let item: PlanItem =
            serde_json::from_str(&line).map_err(|e| format!("plan line {}: {e}", lineno + 1))?;
        if item.kind == "scope" {
            scope = Some(Scope::new(item.warm.as_deref().unwrap_or(&[]))?);
            continue;
        }
        let scope = scope.as_mut().ok_or("plan item before any scope")?;
        let trace = item.trace.clone().unwrap_or_else(|| items.to_string());
        let sent = item.line.as_deref().ok_or("plan item without a line")?;
        let served = item
            .served
            .as_deref()
            .ok_or("plan item without a served line")?;
        tr.set_trace(&trace);
        // Alternate which side runs first, so warm caches and allocator
        // state favour neither in the overhead share.
        let mut untraced = String::new();
        let mut traced = String::new();
        for side in [items % 2, 1 - items % 2] {
            match (side, item.kind.as_str()) {
                (0, "job") => {
                    let index = item.index.ok_or("job item without an index")?;
                    let start = Instant::now();
                    untraced = untraced_job(scope, sent, index)?;
                    tr.record("untraced.request", start, Instant::now());
                }
                (_, "job") => {
                    let index = item.index.ok_or("job item without an index")?;
                    traced = traced_batch_job(&mut tr, scope, sent, index)?;
                }
                (0, "request") => {
                    let start = Instant::now();
                    let request = Request::from_json_line(sent)
                        .map_err(|e| format!("{trace}: decode: {e}"))?;
                    untraced = scope
                        .service
                        .handle_reserved(request, item.reserve)
                        .to_json_line();
                    tr.record("untraced.request", start, Instant::now());
                }
                (_, "request") => {
                    traced = traced_request(&mut tr, scope, sent, item.reserve)?;
                }
                (_, other) => return Err(format!("unknown plan item kind '{other}'")),
            }
        }
        for (side, got) in [("untraced", &untraced), ("traced", &traced)] {
            if got != served {
                return Err(format!(
                    "{trace}: the {side} in-process run differs from the served output\n  \
                     served:     {served}\n  in-process: {got}"
                ));
            }
        }
        items += 1;
    }
    tr.write(spans_out)?;
    println!("{{\"items\":{items}}}");
    Ok(())
}

fn untraced_job(scope: &Scope, line: &str, index: usize) -> Result<String, String> {
    let spec: JobSpec = serde_json::from_str(line).map_err(|e| format!("job line: {e}"))?;
    Ok(execute_job(&spec, index, scope.service.cache()).to_json_line())
}

/// One line of a `mimd batch` input: parse, run, print.
fn traced_batch_job(
    tr: &mut Tracer,
    scope: &Scope,
    line: &str,
    index: usize,
) -> Result<String, String> {
    let root = tr.begin("batch.request");
    let spec: JobSpec = tr
        .time("engine.decode", || serde_json::from_str(line))
        .map_err(|e| format!("job line: {e}"))?;
    let result = traced_job(tr, &spec, index, &scope.cache);
    let text = tr.time("engine.encode", || result.to_json_line());
    tr.end(root);
    Ok(text)
}

/// One protocol line through the service's dispatch, decomposed.
fn traced_request(
    tr: &mut Tracer,
    scope: &mut Scope,
    line: &str,
    reserve: Option<u64>,
) -> Result<String, String> {
    let root = tr.begin("service.request");
    let request = tr
        .time("service.decode", || Request::from_json_line(line))
        .map_err(|e| format!("decode: {e}"))?;
    tr.label(root, request.op_name());
    let response = match request {
        Request::OpenSession {
            header,
            seed,
            config,
        } => {
            let id = reserve.ok_or("open_session without a reserved id")?;
            let (session, response) = traced_open(
                tr,
                &scope.cache,
                &header,
                seed,
                config.unwrap_or_default(),
                id,
            )?;
            scope.sessions.insert(id, (session, 0));
            response
        }
        Request::Apply { session, event } => {
            let (live, events) = scope
                .sessions
                .get_mut(&session)
                .ok_or_else(|| format!("apply to unknown session {session}"))?;
            let span = tr.begin("online.apply");
            let record = live.apply(&event);
            tr.end(span);
            tr.label(span, &record.action);
            *events += 1;
            Response::Applied {
                session,
                record,
                assignment: live.assignment().sys_of_vec().to_vec(),
            }
        }
        Request::CloseSession { session } => {
            let (_, events) = scope
                .sessions
                .remove(&session)
                .ok_or_else(|| format!("close of unknown session {session}"))?;
            Response::SessionClosed { session, events }
        }
        Request::MapOnce { job } => {
            let result = traced_job(tr, &job, 0, &scope.cache);
            match &result.error {
                Some(message) => {
                    ServiceError::new(ErrorCode::InvalidJob, message.clone()).into_response()
                }
                None => Response::MapResult { result },
            }
        }
        other => return Err(format!("op '{}' is not traced", other.op_name())),
    };
    let text = tr.time("service.encode", || response.to_json_line());
    tr.end(root);
    Ok(text)
}

/// `TopologyCache::get_or_build`, named `topology.build` when it missed.
fn lookup(
    tr: &mut Tracer,
    cache: &TopologyCache,
    spec: &TopologySpec,
    seed: u64,
) -> Result<Arc<TopologyArtifacts>, String> {
    let misses = cache.stats().misses;
    let span = tr.begin("engine.cache_lookup");
    let artifacts = cache.get_or_build(spec, seed);
    tr.end(span);
    if cache.stats().misses > misses {
        tr.rename(span, "topology.build");
    }
    artifacts.map_err(|e| format!("topology: {e}"))
}

/// `TopologyCache::system_hierarchy`, named `multilevel.hierarchy` when
/// it had to build.
fn hierarchy(
    tr: &mut Tracer,
    cache: &TopologyCache,
    artifacts: &TopologyArtifacts,
) -> Result<Arc<SystemHierarchy>, String> {
    let misses = cache.stats().hierarchy_misses;
    let span = tr.begin("engine.hierarchy_lookup");
    let hierarchy = cache.system_hierarchy(artifacts);
    tr.end(span);
    if cache.stats().hierarchy_misses > misses {
        tr.rename(span, "multilevel.hierarchy");
    }
    hierarchy.map_err(|e| format!("hierarchy: {e}"))
}

/// The service's `open_session`, call by call.
fn traced_open(
    tr: &mut Tracer,
    cache: &TopologyCache,
    header: &TraceHeader,
    seed: u64,
    config: SessionConfig,
    id: u64,
) -> Result<(OnlineSession, Response), String> {
    let artifacts = lookup(tr, cache, &header.topology, header.topology_seed())?;
    let hierarchy = hierarchy(tr, cache, &artifacts)?;
    let workload = tr
        .time("taskgraph.snapshot", || {
            DynamicWorkload::from_snapshot(&header.snapshot)
        })
        .map_err(|e| format!("snapshot: {e}"))?;
    let (session, record) = tr
        .time("online.begin", || {
            IncrementalMapper::with_config(config.resolve()).begin(workload, hierarchy, seed)
        })
        .map_err(|e| format!("begin: {e}"))?;
    let assignment = session.assignment().sys_of_vec().to_vec();
    Ok((
        session,
        Response::SessionOpened {
            session: id,
            record,
            assignment,
        },
    ))
}

/// The engine's `execute_job`, call by call, under an `engine.job` span.
fn traced_job(tr: &mut Tracer, spec: &JobSpec, index: usize, cache: &TopologyCache) -> JobResult {
    let root = tr.begin("engine.job");
    let result = match traced_try_execute(tr, spec, cache) {
        Ok(mut result) => {
            result.index = index;
            if result.id.is_empty() {
                result.id = index.to_string();
            }
            result
        }
        Err(message) => JobResult::failed(spec, index, message),
    };
    tr.end(root);
    result
}

fn traced_try_execute(
    tr: &mut Tracer,
    spec: &JobSpec,
    cache: &TopologyCache,
) -> Result<JobResult, String> {
    let artifacts = lookup(tr, cache, &spec.topology, spec.topology_seed())?;
    let system = &artifacts.system;
    let ns = system.len();
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let problem = tr
        .time("taskgraph.workload", || spec.workload.build(&mut rng))
        .map_err(|e| format!("workload: {e}"))?;
    if problem.len() < ns {
        return Err(format!(
            "workload has {} tasks but the machine has {ns} processors; need np >= ns",
            problem.len()
        ));
    }
    let np = problem.len();
    let clustering = tr
        .time("taskgraph.clustering", || {
            spec.clustering().build(&problem, ns, &mut rng)
        })
        .map_err(|e| format!("clustering: {e}"))?;
    let graph = tr
        .time("taskgraph.instance", || {
            ClusteredProblemGraph::new(problem, clustering)
        })
        .map_err(|e| format!("instance: {e}"))?;
    let lower_bound = tr.time("core.bound", || IdealSchedule::derive(&graph).lower_bound());

    let (assignment, total, evaluations) = match spec.algorithm {
        AlgorithmSpec::Paper {
            refine_iterations,
            exchange_pool,
        } => {
            let config = MapperConfig {
                refine_iterations,
                exchange_pool,
                ..MapperConfig::default()
            };
            traced_paper(tr, &graph, &artifacts, &config, &mut rng)?
        }
        AlgorithmSpec::Multilevel {
            direct_threshold,
            refine_rounds,
            refine_batch,
            refine_threads,
        } => {
            let defaults = MultilevelConfig::default();
            let config = MultilevelConfig {
                direct_threshold: direct_threshold.unwrap_or(defaults.direct_threshold),
                refine_rounds: refine_rounds.unwrap_or(defaults.refine_rounds),
                refine_batch: refine_batch.unwrap_or(defaults.refine_batch),
                refine_threads: refine_threads.unwrap_or(defaults.refine_threads),
                mapper: defaults.mapper,
            };
            let shared = if ns > config.direct_threshold {
                Some(hierarchy(tr, cache, &artifacts)?)
            } else {
                None
            };
            let recorder = Recorder::enabled();
            let mapper = MultilevelMapper::with_config(config).with_recorder(recorder.clone());
            let span = tr.begin("multilevel.vcycle");
            let result = match &shared {
                Some(h) if h.finest().len() == ns => mapper.map_with_hierarchy(&graph, h, &mut rng),
                _ => mapper.map(&graph, system, &mut rng),
            };
            tr.end(span);
            let result = result.map_err(|e| format!("multilevel: {e}"))?;
            let snapshot = recorder.snapshot();
            for phase in ["coarsen", "initial_map", "refine", "prolong"] {
                let ns_sum = snapshot
                    .histograms
                    .get(&format!("vcycle.{phase}"))
                    .map_or(0, |h| h.sum_ns);
                tr.attr(span, &format!("{phase}_ns"), ns_sum as f64);
            }
            tr.attr(span, "levels", result.levels as f64);
            tr.attr(span, "evaluations", result.evaluations as f64);
            (result.assignment, result.total_time, result.evaluations)
        }
        _ => {
            return Err(format!(
                "algorithm '{}' is not traced",
                spec.algorithm.name()
            ))
        }
    };

    Ok(JobResult {
        id: spec.id.clone().unwrap_or_default(),
        index: 0,
        workload: spec.workload.label(),
        topology: system.name().to_string(),
        algorithm: spec.algorithm.name().to_string(),
        seed: spec.seed,
        np,
        ns,
        lower_bound,
        total_time: total,
        percent_over_lower_bound: if lower_bound > 0 {
            100.0 * total as f64 / lower_bound as f64
        } else {
            0.0
        },
        optimal: total == lower_bound,
        evaluations,
        assignment: assignment.sys_of_vec().to_vec(),
        error: None,
    })
}

/// `Mapper::map`, call by call: the ideal schedule, critical analysis
/// and greedy placement, then the pinned refinement and its unpinned
/// fallback.
fn traced_paper(
    tr: &mut Tracer,
    graph: &ClusteredProblemGraph,
    artifacts: &TopologyArtifacts,
    config: &MapperConfig,
    rng: &mut StdRng,
) -> Result<(Assignment, u64, usize), String> {
    let system = &artifacts.system;
    let ideal = tr.time("core.bound", || IdealSchedule::derive(graph));
    let init = tr
        .time("core.initial", || {
            let critical = CriticalAnalysis::analyze(graph, &ideal, config.criticality);
            let abstract_graph = AbstractGraph::new(graph);
            initial_assignment(graph, &abstract_graph, &critical, system)
        })
        .map_err(|e| format!("paper: {e}"))?;
    let refine_config = RefineConfig {
        iterations: config.refine_iterations.unwrap_or(system.len()),
        model: config.model,
        respect_pins: config.respect_pins,
        exchange_pool: config.exchange_pool,
    };
    let recorder = Recorder::enabled();
    let span = tr.begin("core.refine");
    let mut ws = DeltaWorkspace::new();
    let outcome = (|| {
        let mut outcome = refine_with(
            graph,
            system,
            &init.assignment,
            &init.critical,
            ideal.lower_bound(),
            &refine_config,
            &recorder,
            &mut ws,
            rng,
        )?;
        if config.unpinned_fallback && !outcome.reached_lower_bound {
            let free_config = RefineConfig {
                respect_pins: false,
                ..refine_config
            };
            let second = refine_with(
                graph,
                system,
                &outcome.assignment,
                &init.critical,
                ideal.lower_bound(),
                &free_config,
                &recorder,
                &mut ws,
                rng,
            )?;
            if second.total < outcome.total {
                outcome = RefineOutcome {
                    initial_total: outcome.initial_total,
                    iterations_used: outcome.iterations_used + second.iterations_used,
                    improvements: outcome.improvements + second.improvements,
                    ..second
                };
            } else {
                outcome.iterations_used += second.iterations_used;
            }
        }
        Ok::<_, mimd_graph::error::GraphError>(outcome)
    })();
    tr.end(span);
    let outcome = outcome.map_err(|e| format!("paper: {e}"))?;
    let counters = recorder.snapshot();
    tr.attr(
        span,
        "candidates",
        counters.counter("refine.candidates") as f64,
    );
    tr.attr(span, "accepted", counters.counter("refine.accepted") as f64);
    Ok((outcome.assignment, outcome.total, outcome.iterations_used))
}
