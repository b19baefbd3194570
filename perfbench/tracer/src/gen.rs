//! Seeded session inputs and the served-versus-in-process session check.

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use serde::{Deserialize, Serialize};

use mimd_engine::{ClusteringSpec, TopologyCache, TopologySpec, WorkloadSpec};
use mimd_multilevel::SystemHierarchy;
use mimd_online::{DynamicWorkload, IncrementalMapper, TraceEvent, TraceHeader};
use mimd_service::{Request, Response, SessionConfig};
use mimd_taskgraph::workloads::{churn_trace, ChurnRegime};
use mimd_taskgraph::ClusteredProblemGraph;

/// The machine every session maps onto.
pub const SESSION_TOPOLOGY: TopologySpec = TopologySpec::Torus { rows: 8, cols: 8 };

/// What every session of one run looks like; `seed` is the run seed.
pub struct SessionShape {
    pub seed: u64,
    pub tasks: usize,
    pub events: usize,
}

/// One generated session: its initial instance, churn and open seed.
pub struct SessionInput {
    pub base: ClusteredProblemGraph,
    pub events: Vec<TraceEvent>,
    pub open_seed: u64,
}

/// The per-session seed: splitmix64 of the run seed and session index.
fn session_seed(seed: u64, k: u64) -> u64 {
    let mut z = seed ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Session `k` of a run: a layered workload, region-clustered onto the
/// 8×8 torus, with `events` mixed-regime churn events.
pub fn session_input(shape: &SessionShape, k: u64) -> Result<SessionInput, String> {
    let mut rng = StdRng::seed_from_u64(session_seed(shape.seed, k));
    let problem = WorkloadSpec::Layered {
        tasks: shape.tasks,
        width: None,
    }
    .build(&mut rng)
    .map_err(|e| format!("workload: {e}"))?;
    let clustering = ClusteringSpec::Region
        .build(&problem, SESSION_TOPOLOGY.node_count(), &mut rng)
        .map_err(|e| format!("clustering: {e}"))?;
    let base = ClusteredProblemGraph::new(problem, clustering).map_err(|e| e.to_string())?;
    let events = churn_trace(&base, shape.events, ChurnRegime::Mixed, &mut rng);
    Ok(SessionInput {
        base,
        events,
        open_seed: rng.next_u64(),
    })
}

/// One line of the `gen-sessions` output.
#[derive(Serialize)]
struct SessionLine {
    k: u64,
    /// The `open_session` request line, ready to send.
    open: String,
    /// Each event as compact JSON, for the client's `apply` lines.
    events: Vec<String>,
}

pub fn write_sessions(shape: &SessionShape, count: u64, out: &str) -> Result<(), String> {
    let file = std::fs::File::create(out).map_err(|e| format!("{out}: {e}"))?;
    let mut w = BufWriter::new(file);
    for k in 0..count {
        let input = session_input(shape, k)?;
        let open = Request::OpenSession {
            header: TraceHeader {
                topology: SESSION_TOPOLOGY,
                topology_seed: None,
                snapshot: DynamicWorkload::from_clustered(&input.base).snapshot(),
            },
            seed: input.open_seed,
            config: None,
        };
        let line = SessionLine {
            k,
            open: open.to_json_line(),
            events: input
                .events
                .iter()
                .map(|e| serde_json::to_string(e).expect("TraceEvent serializes"))
                .collect(),
        };
        let text = serde_json::to_string(&line).map_err(|e| e.to_string())?;
        writeln!(w, "{text}").map_err(|e| e.to_string())?;
    }
    w.flush().map_err(|e| e.to_string())
}

/// One served session, as the client matched it: the response lines in
/// request order (open, every apply, close).
#[derive(Deserialize)]
struct ServedSession {
    k: u64,
    session: u64,
    responses: Vec<String>,
}

/// The response lines an in-process run of session `k` produces.
fn expected_lines(
    shape: &SessionShape,
    k: u64,
    id: u64,
    hierarchy: &Arc<SystemHierarchy>,
) -> Result<Vec<String>, String> {
    let input = session_input(shape, k)?;
    let (mut session, record) = IncrementalMapper::with_config(SessionConfig::default().resolve())
        .begin(
            DynamicWorkload::from_clustered(&input.base),
            Arc::clone(hierarchy),
            input.open_seed,
        )
        .map_err(|e| format!("session {k}: begin: {e}"))?;
    let mut lines = vec![Response::SessionOpened {
        session: id,
        record,
        assignment: session.assignment().sys_of_vec().to_vec(),
    }
    .to_json_line()];
    for event in &input.events {
        let record = session.apply(event);
        lines.push(
            Response::Applied {
                session: id,
                record,
                assignment: session.assignment().sys_of_vec().to_vec(),
            }
            .to_json_line(),
        );
    }
    lines.push(
        Response::SessionClosed {
            session: id,
            events: input.events.len(),
        }
        .to_json_line(),
    );
    Ok(lines)
}

/// Replay every served session in-process and compare line for line.
/// Prints the number of sessions and records checked.
pub fn check_sessions(shape: &SessionShape, served: &str, threads: usize) -> Result<(), String> {
    let file = std::fs::File::open(served).map_err(|e| format!("{served}: {e}"))?;
    let mut sessions = Vec::new();
    for line in BufReader::new(file).lines() {
        let line = line.map_err(|e| e.to_string())?;
        if line.trim().is_empty() {
            continue;
        }
        let s: ServedSession = serde_json::from_str(&line).map_err(|e| e.to_string())?;
        sessions.push(s);
    }
    let cache = TopologyCache::new();
    let artifacts = cache
        .get_or_build(&SESSION_TOPOLOGY, 0)
        .map_err(|e| e.to_string())?;
    let hierarchy = cache
        .system_hierarchy(&artifacts)
        .map_err(|e| e.to_string())?;
    let threads = threads.max(1);
    let results: Vec<Result<usize, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let sessions = &sessions;
                let hierarchy = &hierarchy;
                scope.spawn(move || {
                    let mut records = 0usize;
                    for s in sessions.iter().skip(t).step_by(threads) {
                        let want = expected_lines(shape, s.k, s.session, hierarchy)?;
                        if want.len() != s.responses.len() {
                            return Err(format!(
                                "session {} (k={}): {} responses, expected {}",
                                s.session,
                                s.k,
                                s.responses.len(),
                                want.len()
                            ));
                        }
                        for (i, (w, got)) in want.iter().zip(&s.responses).enumerate() {
                            if w != got {
                                return Err(format!(
                                    "session {} (k={}) response {i} differs from the \
                                     in-process run:\n  served:     {got}\n  in-process: {w}",
                                    s.session, s.k
                                ));
                            }
                        }
                        records += want.len() - 1;
                    }
                    Ok(records)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("check thread panicked".into()))
            })
            .collect()
    });
    let mut records = 0;
    for r in results {
        records += r?;
    }
    println!("{{\"sessions\":{},\"records\":{records}}}", sessions.len());
    Ok(())
}
