//! Pipelined multi-client stress over loopback TCP: many connections, each
//! keeping many requests in flight, against one served sharded engine.
//! Every response must answer exactly the request it was issued for — no
//! reordering within a connection (the client verifies the echoed `seq`
//! and this test verifies the payloads) and no crossing between
//! connections (each thread's records carry a thread tag that must never
//! surface on another thread's point reads).

use gdprbench_repro::connectors::{GdprClient, ShardedRedisConnector};
use gdprbench_repro::gdpr_core::record::{Metadata, PersonalRecord};
use gdprbench_repro::gdpr_core::{EngineHandle, GdprError, GdprQuery, GdprResponse, Session};
use gdprbench_repro::gdpr_server::{GdprServer, ServerConfig};
use std::sync::Arc;
use std::time::Duration;

fn record(key: &str, user: &str, data: String) -> PersonalRecord {
    PersonalRecord::new(
        key,
        data,
        Metadata::new(user, vec!["ads".to_string()], Duration::from_secs(3600)),
    )
}

fn serve_sharded(shards: usize) -> (GdprServer, String) {
    let clock = clock::wall();
    let stores = (0..shards)
        .map(|_| {
            gdprbench_repro::kvstore::KvStore::open_with_clock(
                gdprbench_repro::kvstore::KvConfig::default(),
                clock.clone(),
            )
            .unwrap()
        })
        .collect();
    let engine: EngineHandle =
        Arc::new(ShardedRedisConnector::with_metadata_index(stores).unwrap());
    let server = GdprServer::bind(
        engine,
        "127.0.0.1:0",
        ServerConfig {
            workers: 4,
            ..Default::default()
        },
    )
    .unwrap();
    let addr = server.local_addr().to_string();
    (server, addr)
}

/// Four client connections, each pipelining creates then reads in large
/// bursts, while fan-out queries run concurrently: every pipelined
/// response must line up 1:1 with its request, and point reads must only
/// ever return the issuing thread's own payloads.
#[test]
fn pipelined_multi_client_responses_never_reorder_or_cross() {
    let (server, addr) = serve_sharded(8);
    let threads = 4usize;
    let batches = 6usize;
    let batch_size = 25usize;

    std::thread::scope(|scope| {
        for t in 0..threads {
            let addr = addr.clone();
            scope.spawn(move || {
                let client = GdprClient::connect(&addr).unwrap();
                let controller = Session::controller();
                for b in 0..batches {
                    // Burst a batch of creates; every single response must
                    // be Created, in order.
                    let creates: Vec<(Session, GdprQuery)> = (0..batch_size)
                        .map(|i| {
                            let key = format!("t{t}-b{b}-i{i}");
                            (
                                controller.clone(),
                                GdprQuery::CreateRecord(record(
                                    &key,
                                    &format!("user-{t}"),
                                    format!("payload:{key}"),
                                )),
                            )
                        })
                        .collect();
                    for (i, result) in client.pipeline(&creates).unwrap().into_iter().enumerate() {
                        assert_eq!(
                            result.unwrap(),
                            GdprResponse::Created,
                            "thread {t} batch {b} item {i}"
                        );
                    }

                    // Burst point reads of this thread's own keys plus a
                    // fan-out and a guaranteed miss, interleaved: response
                    // i must answer request i, with this thread's payload.
                    let mut queries: Vec<(Session, GdprQuery)> = (0..batch_size)
                        .map(|i| {
                            (
                                Session::processor("ads"),
                                GdprQuery::ReadDataByKey(format!("t{t}-b{b}-i{i}")),
                            )
                        })
                        .collect();
                    queries.push((
                        Session::customer(format!("user-{t}")),
                        GdprQuery::ReadDataByUser(format!("user-{t}")),
                    ));
                    queries.push((
                        Session::processor("ads"),
                        GdprQuery::ReadDataByKey(format!("missing-t{t}-b{b}")),
                    ));
                    let results = client.pipeline(&queries).unwrap();
                    assert_eq!(results.len(), queries.len());
                    for (i, result) in results.iter().take(batch_size).enumerate() {
                        let key = format!("t{t}-b{b}-i{i}");
                        match result {
                            Ok(GdprResponse::Data(pairs)) => {
                                assert_eq!(pairs.len(), 1);
                                let (got_key, got_data) = pairs.iter().next().unwrap();
                                assert_eq!(got_key, key, "reordered response on t{t}");
                                assert_eq!(
                                    got_data,
                                    format!("payload:{key}"),
                                    "cross-connection payload on t{t}"
                                );
                            }
                            other => panic!("thread {t}: expected data for {key}, got {other:?}"),
                        }
                    }
                    // The fan-out returns exactly this thread's records so
                    // far — user-{t} is written by thread t only.
                    match &results[batch_size] {
                        Ok(GdprResponse::Data(pairs)) => {
                            assert_eq!(pairs.len(), (b + 1) * batch_size, "thread {t}");
                            assert!(
                                pairs.iter().all(|(k, _)| k.starts_with(&format!("t{t}-"))),
                                "thread {t} saw another connection's records"
                            );
                        }
                        other => panic!("thread {t}: expected fan-out data, got {other:?}"),
                    }
                    // And the guaranteed miss is a NotFound in exactly the
                    // last slot.
                    assert!(
                        matches!(results[batch_size + 1], Err(GdprError::NotFound(_))),
                        "thread {t}: miss answered out of order"
                    );
                }
            });
        }
    });

    // Every record from every connection landed exactly once.
    let probe = GdprClient::connect(&addr).unwrap();
    assert_eq!(
        probe.record_count().unwrap(),
        threads * batches * batch_size
    );
    let stats = probe.conn_stats().unwrap();
    assert_eq!(stats.server_connections as usize, threads + 1);
    server.shutdown();
}

/// A single connection pipelining 300 ops deep: the loop runs a wake's
/// burst as several `MAX_BATCH` batches, back to back, and the responses
/// must come out neither dropped nor reordered.
#[test]
fn deep_pipeline_split_into_batches_stays_ordered() {
    let (server, addr) = serve_sharded(2);
    let client = GdprClient::connect(&addr).unwrap();
    let controller = Session::controller();
    let n = 300usize;
    let creates: Vec<(Session, GdprQuery)> = (0..n)
        .map(|i| {
            (
                controller.clone(),
                GdprQuery::CreateRecord(record(&format!("k{i}"), "neo", format!("d{i}"))),
            )
        })
        .collect();
    let results = client.pipeline(&creates).unwrap();
    assert!(results
        .into_iter()
        .all(|r| r.unwrap() == GdprResponse::Created));
    let reads: Vec<(Session, GdprQuery)> = (0..n)
        .map(|i| {
            (
                Session::processor("ads"),
                GdprQuery::ReadDataByKey(format!("k{i}")),
            )
        })
        .collect();
    for (i, result) in client.pipeline(&reads).unwrap().into_iter().enumerate() {
        match result.unwrap() {
            GdprResponse::Data(pairs) => {
                assert_eq!(pairs.iter().next().unwrap().1, format!("d{i}"))
            }
            other => panic!("expected data, got {other:?}"),
        }
    }
    server.shutdown();
}
