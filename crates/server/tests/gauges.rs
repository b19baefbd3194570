//! The `stats` gauges stay exact under load: a one-shard server drains
//! a burst of pipelined requests while another connection polls
//! `stats`, and the queue depth it reports never exceeds what can be
//! queued (it used to wrap below zero when a worker picked a request up
//! before the reader had counted it).

use std::io::{BufRead, BufReader, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use mimd_server::{ListenAddr, Server, ServerConfig};
use mimd_service::{MappingService, Request, Response};

const SENT: usize = 2000;
const QUEUE_DEPTH: usize = 64;

#[test]
fn queue_depth_stays_bounded_while_a_shard_drains() {
    let addr = ListenAddr::Unix(
        std::env::temp_dir().join(format!("mimd-gauges-{}.sock", std::process::id())),
    );
    let server = Server::bind(
        Arc::new(MappingService::default()),
        &addr,
        ServerConfig {
            shards: 1,
            queue_depth: QUEUE_DEPTH,
        },
    )
    .unwrap();
    let handle = server.spawn();

    let stop = Arc::new(AtomicBool::new(false));
    let poller = {
        let addr = addr.clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let stream = addr.connect().unwrap();
            let mut writer = stream.try_clone().unwrap();
            let mut reader = BufReader::new(stream);
            let stats = Request::Stats.to_json_line();
            let (mut polls, mut deepest) = (0usize, 0usize);
            // Poll at least once, then until the burst is answered.
            while polls == 0 || !stop.load(Ordering::Relaxed) {
                writeln!(writer, "{stats}").unwrap();
                writer.flush().unwrap();
                let mut line = String::new();
                reader.read_line(&mut line).unwrap();
                let Response::Stats { stats } = Response::from_json_line(line.trim_end()).unwrap()
                else {
                    panic!("stats request answered {line}");
                };
                deepest = deepest.max(stats.server.queue_depth);
                polls += 1;
            }
            (polls, deepest)
        })
    };

    // Pipeline a burst of cheap requests (closing an unknown session),
    // then read every answer back.
    let stream = addr.connect().unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let close = Request::CloseSession { session: 7 }.to_json_line();
    let burst = std::thread::spawn(move || {
        for _ in 0..SENT {
            writeln!(writer, "{close}").unwrap();
        }
        writer.flush().unwrap();
        writer
    });
    for _ in 0..SENT {
        let mut line = String::new();
        assert!(reader.read_line(&mut line).unwrap() > 0);
    }
    let mut writer = burst.join().unwrap();
    stop.store(true, Ordering::Relaxed);
    // Every request is answered, so none is still counted as queued.
    writeln!(writer, "{}", Request::Stats.to_json_line()).unwrap();
    writer.flush().unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let Response::Stats { stats } = Response::from_json_line(line.trim_end()).unwrap() else {
        panic!("stats request answered {line}");
    };
    assert_eq!(stats.server.queue_depth, 0);
    let (polls, deepest) = poller.join().unwrap();
    drop((writer, reader));
    let summary = handle.stop().unwrap();

    assert!(polls > 0);
    // At most a full queue plus the one request the reader is offering.
    assert!(deepest <= QUEUE_DEPTH + 1, "queue depth read {deepest}");
    assert!(deepest <= SENT);
    assert_eq!(summary.requests as usize, SENT + polls + 1);
}
