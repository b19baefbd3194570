//! The concurrent server: accept loop, per-connection reader threads,
//! shard routing, admission control and graceful drain.
//!
//! Each connection gets one reader thread that frames and decodes
//! JSONL requests exactly like the stdin serve loop (blank lines and
//! `#`-comments skipped, malformed lines answered with `BadRequest`
//! and counted). Decoded requests route to shards:
//!
//! * `OpenSession` — the reader *reserves* the session id at intake
//!   ([`MappingService::reserve_session_id`]), so ids stay 1, 2, 3, …
//!   in intake order and the shard (`id % shards`) is known before the
//!   open is handled;
//! * `Apply` / `CloseSession` — `session % shards`, i.e. the same
//!   shard as the open, so per-session FIFO order is a queue property,
//!   not a locking discipline;
//! * `MapOnce` — round-robin across shards (stateless, any shard);
//! * `Catalog` / `Stats` — answered inline on the reader thread so
//!   introspection stays responsive when every shard queue is deep.
//!
//! Admission: a full (or draining) shard queue rejects the request
//! with [`ErrorCode::Overloaded`](mimd_service::ErrorCode::Overloaded)
//! written straight back on the connection — the request is never
//! handled, and the client should back off and retry.
//!
//! Drain: the run loop polls a stop flag (no signal handlers — the CLI
//! trips it on stdin EOF). On stop it closes the listener, drains the
//! shard pool (queued work finishes, responses flush), shuts the
//! connection sockets to unblock parked readers, joins them, and
//! returns a [`ServerSummary`] with per-connection malformed-line
//! accounting.

use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use mimd_service::{ErrorCode, MappingService, Request, Response, ServerGaugeSource, ServiceError};

use crate::shard::{EnqueueError, ShardPool, ShardSender};
use crate::transport::{ListenAddr, Listener, Stream};

/// How often the accept loop polls for new connections and checks the
/// stop flag.
const ACCEPT_POLL: Duration = Duration::from_millis(5);

/// Concurrency knobs for [`Server`] (the `mimd serve --listen` flags).
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Worker shards (`--shards`); sessions hash to `id % shards`.
    pub shards: usize,
    /// Bounded per-shard queue depth (`--queue-depth`); a full queue
    /// answers `Overloaded`.
    pub queue_depth: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            shards: 4,
            queue_depth: 256,
        }
    }
}

/// Per-connection accounting surfaced in the drain summary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConnectionSummary {
    /// Connection id (1, 2, 3, … in accept order).
    pub conn: u64,
    /// Requests read off this connection (including malformed lines).
    pub requests: u64,
    /// Lines that failed to parse as a request.
    pub malformed_lines: u64,
}

/// What one server run did, returned after the drain completes.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ServerSummary {
    /// Connections accepted over the lifetime of the run.
    pub connections: u64,
    /// Requests read across all connections (including malformed and
    /// rejected ones).
    pub requests: u64,
    /// Requests rejected at admission with `Overloaded`.
    pub rejected: u64,
    /// Per-connection accounting, in connection-id order.
    pub per_connection: Vec<ConnectionSummary>,
}

impl ServerSummary {
    /// Total malformed lines across all connections.
    pub fn malformed_lines(&self) -> u64 {
        self.per_connection.iter().map(|c| c.malformed_lines).sum()
    }
}

/// One unit of shard work: a decoded request plus where its response
/// goes.
struct Job {
    request: Request,
    reserved: Option<u64>,
    writer: Arc<Mutex<Stream>>,
}

/// State shared between the accept loop, reader threads and shard
/// workers.
struct Shared {
    service: Arc<MappingService>,
    gauges: Arc<ServerGaugeSource>,
    /// Live connection streams, for shutdown at drain (reader threads
    /// parked in `read` need the socket closed under them).
    live: Mutex<BTreeMap<u64, Stream>>,
    /// Per-connection accounting, kept after the connection closes.
    accounting: Mutex<BTreeMap<u64, (u64, u64)>>,
    requests: AtomicU64,
    rejected: AtomicU64,
    round_robin: AtomicUsize,
}

impl Shared {
    fn record_line(&self, conn: u64, malformed: bool) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        let mut accounting = lock(&self.accounting);
        let entry = accounting.entry(conn).or_insert((0, 0));
        entry.0 += 1;
        if malformed {
            entry.1 += 1;
        }
    }
}

fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Write one response line and flush. Errors are ignored: the client
/// may already be gone, and a dead connection must not take the shard
/// worker down with it.
fn write_response(writer: &Mutex<Stream>, response: &Response) {
    let mut stream = lock(writer);
    let _ = writeln!(stream, "{}", response.to_json_line());
    let _ = stream.flush();
}

/// A bound, not-yet-running server. [`Server::run`] blocks until the
/// stop flag trips; [`Server::spawn`] runs it on its own thread.
pub struct Server {
    listener: Listener,
    config: ServerConfig,
    shared: Arc<Shared>,
}

impl Server {
    /// Bind `addr` and prepare to serve `service`. Nothing runs until
    /// [`Server::run`] / [`Server::spawn`].
    pub fn bind(
        service: Arc<MappingService>,
        addr: &ListenAddr,
        config: ServerConfig,
    ) -> io::Result<Server> {
        let listener = addr.bind()?;
        let gauges = service.server_gauges();
        Ok(Server {
            listener,
            config,
            shared: Arc::new(Shared {
                service,
                gauges,
                live: Mutex::new(BTreeMap::new()),
                accounting: Mutex::new(BTreeMap::new()),
                requests: AtomicU64::new(0),
                rejected: AtomicU64::new(0),
                round_robin: AtomicUsize::new(0),
            }),
        })
    }

    /// The address actually bound (resolves TCP port 0).
    pub fn local_display(&self) -> String {
        self.listener.local_display()
    }

    /// Accept and serve until `stop` is set, then drain: stop
    /// accepting, finish queued work, close connections, join readers.
    pub fn run(self, stop: Arc<AtomicBool>) -> io::Result<ServerSummary> {
        let Server {
            listener,
            config,
            shared,
        } = self;
        listener.set_nonblocking(true)?;

        let pool: ShardPool<Job> = {
            let shared = Arc::clone(&shared);
            ShardPool::new(
                config.shards,
                config.queue_depth,
                move |_shard, job: Job| {
                    shared.gauges.dequeued_inflight();
                    let response = shared.service.handle_reserved(job.request, job.reserved);
                    write_response(&job.writer, &response);
                    shared.gauges.inflight_done();
                },
            )
        };
        let sender = pool.sender();

        let mut readers: Vec<JoinHandle<()>> = Vec::new();
        let mut connections: u64 = 0;
        while !stop.load(Ordering::Relaxed) {
            match listener.accept() {
                Ok(stream) => {
                    connections += 1;
                    let conn = connections;
                    match stream.try_clone() {
                        Ok(handle) => {
                            lock(&shared.live).insert(conn, handle);
                        }
                        Err(_) => continue, // connection already dead
                    }
                    let shared = Arc::clone(&shared);
                    let sender = sender.clone();
                    readers.push(std::thread::spawn(move || {
                        serve_connection(conn, stream, &shared, &sender);
                        lock(&shared.live).remove(&conn);
                    }));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(ACCEPT_POLL);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => {
                    listener.cleanup();
                    return Err(e);
                }
            }
        }

        // Drain: queued work finishes and its responses flush before
        // any socket is closed; new intake is rejected as Draining.
        pool.join();
        for (_, stream) in lock(&shared.live).iter() {
            let _ = stream.shutdown();
        }
        for reader in readers {
            let _ = reader.join();
        }
        listener.cleanup();

        let accounting = lock(&shared.accounting);
        Ok(ServerSummary {
            connections,
            requests: shared.requests.load(Ordering::Relaxed),
            rejected: shared.rejected.load(Ordering::Relaxed),
            per_connection: accounting
                .iter()
                .map(|(&conn, &(requests, malformed_lines))| ConnectionSummary {
                    conn,
                    requests,
                    malformed_lines,
                })
                .collect(),
        })
    }

    /// Run on a background thread; the returned handle stops and joins
    /// it.
    pub fn spawn(self) -> ServerHandle {
        let stop = Arc::new(AtomicBool::new(false));
        let addr = self.local_display();
        let flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || self.run(flag));
        ServerHandle { stop, thread, addr }
    }
}

/// Handle to a [`Server::spawn`]ed server: its bound address, and a
/// stop-and-join.
pub struct ServerHandle {
    stop: Arc<AtomicBool>,
    thread: JoinHandle<io::Result<ServerSummary>>,
    addr: String,
}

impl ServerHandle {
    /// The address clients connect to (resolves TCP port 0).
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Trip the stop flag, drain, and return the summary.
    pub fn stop(self) -> io::Result<ServerSummary> {
        self.stop.store(true, Ordering::Relaxed);
        self.thread
            .join()
            .unwrap_or_else(|_| Err(io::Error::other("server thread panicked")))
    }
}

/// The per-connection reader loop: frame, decode, route.
fn serve_connection(conn: u64, stream: Stream, shared: &Shared, sender: &ShardSender<Job>) {
    shared.gauges.connection_opened();
    let writer = match stream.try_clone() {
        Ok(clone) => Arc::new(Mutex::new(clone)),
        Err(_) => {
            shared.gauges.connection_closed();
            return;
        }
    };
    let reader = BufReader::new(stream);
    for (lineno, line) in reader.lines().enumerate() {
        let Ok(line) = line else { break };
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        match Request::from_json_line(trimmed) {
            Ok(request) => {
                shared.record_line(conn, false);
                route(request, shared, sender, &writer);
            }
            Err(e) => {
                shared.record_line(conn, true);
                shared.service.note_malformed_line_conn(conn);
                let response =
                    ServiceError::new(ErrorCode::BadRequest, format!("line {}: {e}", lineno + 1))
                        .into_response();
                write_response(&writer, &response);
            }
        }
    }
    shared.gauges.connection_closed();
}

/// Offer `item` to `shard`, keeping the queue-depth gauge exact: the
/// request is counted before the shard worker can see (and uncount)
/// it, and the count is rolled back when the shard rejects it.
fn admit<T>(
    sender: &ShardSender<T>,
    gauges: &ServerGaugeSource,
    shard: usize,
    item: T,
) -> Result<(), EnqueueError> {
    gauges.enqueued();
    sender
        .try_enqueue(shard, item)
        .inspect_err(|_| gauges.enqueue_rejected())
}

/// Route one decoded request: inline, or onto its shard queue.
fn route(
    request: Request,
    shared: &Shared,
    sender: &ShardSender<Job>,
    writer: &Arc<Mutex<Stream>>,
) {
    // Introspection answers inline on the reader thread — responsive
    // even when every shard queue is deep.
    if matches!(request, Request::Catalog | Request::Stats) {
        let response = shared.service.handle(request);
        write_response(writer, &response);
        return;
    }
    let (shard, reserved) = match &request {
        Request::OpenSession { .. } => {
            // Reserve at intake: deterministic ids in intake order, and
            // later requests for this session hash to the same shard.
            let id = shared.service.reserve_session_id();
            (id as usize, Some(id))
        }
        Request::Apply { session, .. } | Request::CloseSession { session } => {
            (*session as usize, None)
        }
        // MapOnce (and anything stateless): round-robin.
        _ => (shared.round_robin.fetch_add(1, Ordering::Relaxed), None),
    };
    let job = Job {
        request,
        reserved,
        writer: Arc::clone(writer),
    };
    match admit(sender, &shared.gauges, shard, job) {
        Ok(()) => {}
        Err(reason) => {
            shared.rejected.fetch_add(1, Ordering::Relaxed);
            shared.service.note_overloaded();
            let detail = match reason {
                EnqueueError::Full { shard, depth } => {
                    format!("shard {shard} queue full ({depth} deep); back off and retry")
                }
                EnqueueError::Draining => "server draining; request rejected".to_string(),
            };
            let response = ServiceError::new(ErrorCode::Overloaded, detail).into_response();
            write_response(writer, &response);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    #[test]
    fn rejected_admissions_leave_the_queue_depth_unchanged() {
        let gauges = Arc::new(ServerGaugeSource::default());
        let (release, gate) = mpsc::channel::<()>();
        let gate = Mutex::new(gate);
        let worker_gauges = Arc::clone(&gauges);
        // One shard, one queue slot; the handler holds each item until
        // released.
        let pool = ShardPool::new(1, 1, move |_, _item: u32| {
            worker_gauges.dequeued_inflight();
            lock(&gate).recv().unwrap();
            worker_gauges.inflight_done();
        });
        let sender = pool.sender();
        admit(&sender, &gauges, 0, 1).unwrap();
        while gauges.snapshot().inflight == 0 {
            std::thread::yield_now();
        }
        admit(&sender, &gauges, 0, 2).unwrap();
        assert_eq!(gauges.snapshot().queue_depth, 1);
        assert_eq!(
            admit(&sender, &gauges, 0, 3),
            Err(EnqueueError::Full { shard: 0, depth: 1 })
        );
        assert_eq!(gauges.snapshot().queue_depth, 1);
        pool.shutdown();
        assert_eq!(admit(&sender, &gauges, 0, 4), Err(EnqueueError::Draining));
        assert_eq!(gauges.snapshot().queue_depth, 1);
        release.send(()).unwrap();
        release.send(()).unwrap();
        pool.join();
        let settled = gauges.snapshot();
        assert_eq!((settled.queue_depth, settled.inflight), (0, 0));
    }
}
