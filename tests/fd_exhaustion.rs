//! Regression test for the accept path under file-descriptor exhaustion:
//! when `accept(2)` fails with EMFILE the server must pause accepting
//! (rather than spin), keep serving every established connection, and
//! resume accepting as soon as a descriptor frees up.
//!
//! The test lowers this process's own RLIMIT_NOFILE soft limit, so it is
//! the only test in this binary (integration tests in one file share a
//! process; a parallel test could race the limit). The original limit is
//! restored by a drop guard even on panic.
#![cfg(target_os = "linux")]

use gdprbench_repro::connectors::GdprClient;
use gdprbench_repro::drivers::{build_connector, ConnectorSpec};
use gdprbench_repro::gdpr_server::{sys, GdprServer, ServerConfig};
use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// Count descriptors currently open in this process.
fn open_fds() -> u64 {
    // The read_dir handle itself holds one fd while iterating.
    std::fs::read_dir("/proc/self/fd").unwrap().count() as u64 - 1
}

/// Restores the original RLIMIT_NOFILE even if the test panics mid-way.
struct LimitGuard {
    soft: u64,
    hard: u64,
}

impl Drop for LimitGuard {
    fn drop(&mut self) {
        let _ = sys::set_nofile_limit(self.soft, self.hard);
    }
}

#[test]
fn emfile_pauses_accepts_but_established_connections_keep_serving() {
    let engine = build_connector(&ConnectorSpec::new("redis")).unwrap();
    // Two loops: the established clients alternate between them, so the
    // one dropped below lives on loop 1 and its close frees a descriptor
    // that loop 0 (the acceptor) only notices at its next tick.
    let config = ServerConfig {
        workers: 2,
        encrypt: None,
        ..Default::default()
    };
    let server = GdprServer::bind(std::sync::Arc::clone(&engine), "127.0.0.1:0", config).unwrap();
    let addr = server.local_addr().to_string();

    // Established population that must survive the exhaustion window.
    let established: Vec<GdprClient> = (0..4)
        .map(|i| {
            let client = GdprClient::connect_with(&addr, None)
                .unwrap_or_else(|e| panic!("connect #{i}: {e}"));
            assert_eq!(client.ping(b"pre").unwrap(), b"pre");
            client
        })
        .collect();
    let accepted_before = server.stats().connections_accepted.load(Ordering::Relaxed);

    let (soft, hard) = sys::nofile_limit().unwrap();
    let _guard = LimitGuard { soft, hard };

    // Leave exactly one descriptor of headroom: the client-side connect
    // below consumes it, so the server's accept(2) must fail with EMFILE.
    let used = open_fds();
    sys::set_nofile_limit(used + 1, hard).unwrap();

    // The TCP handshake completes into the listen backlog regardless; the
    // server just cannot accept it while out of descriptors.
    let mut starved = TcpStream::connect(&addr).expect("backlog connect");
    starved.write_all(&[0, 0, 0, 0]).unwrap();

    // Give the event loop time to hit EMFILE and enter the paused state,
    // then prove every established connection still serves — repeatedly,
    // so a spinning or wedged accept loop would show up as latency or
    // dropped connections here.
    std::thread::sleep(Duration::from_millis(100));
    for round in 0..5 {
        for (i, client) in established.iter().enumerate() {
            let msg = format!("r{round}c{i}");
            let echo = client
                .ping(msg.as_bytes())
                .unwrap_or_else(|e| panic!("connection #{i} died during exhaustion: {e}"));
            assert_eq!(echo, msg.as_bytes());
        }
    }
    assert_eq!(
        server.stats().connections_accepted.load(Ordering::Relaxed),
        accepted_before,
        "server accepted a connection while out of descriptors"
    );

    // Free descriptors: the starved probe (1 fd) and one established
    // client (its fd now, plus the server-side fd once its loop observes
    // EOF and closes its conn — which force-resumes accepting at once on
    // loop 0, and at loop 0's next tick when another loop owned it).
    drop(starved);
    let mut established = established;
    drop(established.pop());

    // Accepting must resume without a restart: a fresh client gets
    // through once the loop reaps the closed connections.
    let deadline = Instant::now() + Duration::from_secs(5);
    let revived = loop {
        match GdprClient::connect_with(&addr, None) {
            Ok(client) => break client,
            Err(e) => {
                assert!(
                    Instant::now() < deadline,
                    "accepts never resumed after descriptors freed: {e}"
                );
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    };
    assert_eq!(revived.ping(b"revived").unwrap(), b"revived");
    for (i, client) in established.iter().enumerate() {
        assert_eq!(client.ping(b"post").unwrap(), b"post", "connection #{i}");
    }

    drop(_guard);
    server.shutdown();
}
