//! Integration suite for `armada serve`: the daemon's coalescing,
//! deadline, load-shedding, retry, and tiered-cache behavior over a real
//! TCP loopback, driven through the same client helper the CLI uses.

use std::sync::Arc;
use std::time::{Duration, Instant};

use armada::fault::{ServerFate, ServerPlan};
use armada::proto::{Request, Response, VerifyRequest};
use armada::serve::{client_request, Gate, ServeConfig, Server, ServerHandle};
use armada::verify::store::CertStore;
use armada::verify::tier::{MemTier, TieredStore};
use armada::Pipeline;

const TINY: &str = r#"
    level Impl {
        var x: uint32;
        void main() { x := 2; print(x); }
    }
    level Spec {
        var x: uint32;
        void main() { x := *; print(x); }
    }
    proof P { refinement Impl Spec nondet_weakening }
"#;

fn scratch(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("armada-serve-it-{tag}-{}", std::process::id()))
}

fn tiered(tag: &str) -> TieredStore {
    TieredStore::disk(CertStore::open(scratch(tag))).with_mem(MemTier::with_capacity(16))
}

fn start(config: ServeConfig) -> ServerHandle {
    Server::start(config).expect("daemon starts on an ephemeral port")
}

fn verify_request(source: &str, deadline_ms: u64) -> Request {
    Request::Verify(VerifyRequest {
        source: Some(source.to_string()),
        path: None,
        name: Some("inline".to_string()),
        deadline_ms: Some(deadline_ms),
        jobs: Some(1),
    })
}

fn cleanup(tag: &str) {
    let _ = std::fs::remove_dir_all(scratch(tag));
}

#[test]
fn cold_then_warm_requests_match_a_direct_run_and_hit_the_mem_tier() {
    let handle = start(ServeConfig::new(tiered("coldwarm")));
    let addr = handle.addr().to_string();
    let timeout = Duration::from_secs(60);

    let direct = Pipeline::from_source(TINY)
        .expect("subject parses")
        .run()
        .expect("direct run succeeds")
        .to_string();
    let normalize = |render: &str| {
        render
            .replace(" (cert cache hit)", "")
            .replace(" (cert cache miss)", "")
            .replace(" (from cert store)", "")
    };

    let mut renders = Vec::new();
    let mut digests = Vec::new();
    for _ in 0..2 {
        match client_request(&addr, &verify_request(TINY, 30_000), timeout) {
            Ok(Response::Result {
                exit_code,
                verified,
                render,
                witness,
                ..
            }) => {
                assert_eq!(exit_code, 0);
                assert!(verified);
                renders.push(render);
                digests.push(witness);
            }
            other => panic!("want a verify result, got {other:?}"),
        }
    }
    assert_eq!(normalize(&renders[0]), normalize(&direct));
    assert_eq!(normalize(&renders[0]), normalize(&renders[1]));
    // The witness digest rides every result frame, and the warm hit serves
    // the very certificate the cold run persisted.
    assert_eq!(digests[0].len(), 16, "witness digest missing: {digests:?}");
    assert_eq!(digests[0], digests[1]);
    assert!(
        renders[1].contains("cache hit"),
        "second request must be served from the cache: {}",
        renders[1]
    );
    let counters = handle.counters();
    assert!(
        counters.get("cache.mem_hits") >= 1,
        "warm request must hit the in-memory tier: {counters:?}"
    );
    handle.shutdown().expect("clean shutdown");
    cleanup("coldwarm");
}

#[test]
fn eight_cold_clients_coalesce_onto_one_verification_with_identical_bytes() {
    const CLIENTS: usize = 8;
    let gate = Gate::held();
    let mut config = ServeConfig::new(tiered("herd"));
    config.gate = Some(gate.clone());
    let handle = start(config);
    let addr = handle.addr().to_string();
    let timeout = Duration::from_secs(60);

    let responses: Vec<Response> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let addr = addr.clone();
                scope.spawn(move || {
                    client_request(&addr, &verify_request(TINY, 30_000), timeout)
                        .expect("request succeeds")
                })
            })
            .collect();
        // The gate keeps the leader's verification parked until the whole
        // herd is registered, so coalescing is forced, not timing luck.
        let give_up = Instant::now() + Duration::from_secs(10);
        while handle.stats().waiters() < CLIENTS as u64 {
            assert!(Instant::now() < give_up, "herd never piled up");
            std::thread::sleep(Duration::from_millis(5));
        }
        gate.release();
        clients.into_iter().map(|c| c.join().unwrap()).collect()
    });

    assert_eq!(
        handle.stats().verifications(),
        1,
        "eight identical cold requests must cost exactly one verification"
    );
    let mut renders = Vec::new();
    let mut digests = Vec::new();
    let mut leaders = 0usize;
    for response in &responses {
        match response {
            Response::Result {
                exit_code,
                verified,
                render,
                coalesced,
                witness,
            } => {
                assert_eq!(*exit_code, 0);
                assert!(*verified);
                renders.push(render.clone());
                digests.push(witness.clone());
                if !coalesced {
                    leaders += 1;
                }
            }
            other => panic!("want a verify result, got {other:?}"),
        }
    }
    assert_eq!(leaders, 1, "exactly one request leads the herd");
    assert!(
        renders.windows(2).all(|w| w[0] == w[1]),
        "all eight reports must be byte-identical"
    );
    // Every member of the storm rides the leader's run, so every frame
    // carries the same (non-empty) witness digest.
    assert_eq!(digests[0].len(), 16, "witness digest missing: {digests:?}");
    assert!(
        digests.windows(2).all(|w| w[0] == w[1]),
        "storm frames must carry one witness digest: {digests:?}"
    );
    assert_eq!(handle.stats().coalesced(), (CLIENTS - 1) as u64);
    handle.shutdown().expect("clean shutdown");
    cleanup("herd");
}

#[test]
fn a_full_admission_queue_sheds_with_a_structured_overloaded_response() {
    let gate = Gate::held();
    let mut config = ServeConfig::new(tiered("shed"));
    config.workers = 1;
    config.queue_depth = 1;
    config.gate = Some(gate.clone());
    config.retry_after = Duration::from_millis(125);
    let handle = start(config);
    let addr = handle.addr().to_string();
    let timeout = Duration::from_secs(60);

    // Distinct sources (distinct coalescing keys) fill the worker and the
    // one-slot queue; the next distinct request must shed. An admitted
    // request blocks its client until answered, so the queue-fillers run
    // in their own threads and only the expected-shed request is
    // synchronous.
    let variant = |n: usize| TINY.replace("x := 2", &format!("x := {n}"));
    std::thread::scope(|scope| {
        let fillers: Vec<_> = (0..2)
            .map(|n| {
                let addr = addr.clone();
                let source = variant(n);
                // A filler can race the worker's dequeue of its
                // predecessor and shed; it retries until admitted.
                scope.spawn(move || loop {
                    match client_request(&addr, &verify_request(&source, 30_000), timeout) {
                        Ok(Response::Overloaded { .. }) => {
                            std::thread::sleep(Duration::from_millis(10));
                        }
                        other => return other,
                    }
                })
            })
            .collect();
        // Request 0 occupies the gated worker, request 1 the queue slot.
        let give_up = Instant::now() + Duration::from_secs(10);
        while handle.stats().waiters() < 2 {
            assert!(Instant::now() < give_up, "queue fillers never admitted");
            std::thread::sleep(Duration::from_millis(5));
        }
        match client_request(&addr, &verify_request(&variant(2), 30_000), timeout)
            .expect("shed request gets a structured response")
        {
            Response::Overloaded { retry_after_ms } => assert_eq!(retry_after_ms, 125),
            other => panic!("want overloaded, got {other:?}"),
        }
        gate.release();
        for filler in fillers {
            let response = filler
                .join()
                .expect("filler client joins")
                .expect("filler request succeeds");
            assert!(
                matches!(response, Response::Result { exit_code: 0, .. }),
                "queued request must complete once the gate opens: {response:?}"
            );
        }
    });
    assert!(handle.stats().sheds() >= 1);
    handle.shutdown().expect("clean shutdown");
    cleanup("shed");
}

#[test]
fn accept_jitter_yields_a_structured_answer_within_the_grace_window() {
    let mut config = ServeConfig::new(tiered("jitter"));
    config.plan = ServerPlan::new().with_fate(ServerFate::AcceptJitter, 0);
    config.grace = Duration::from_secs(5);
    let handle = start(config);
    let addr = handle.addr().to_string();

    let start_at = Instant::now();
    let response = client_request(
        &addr,
        &verify_request(TINY, 30_000),
        Duration::from_secs(60),
    )
    .expect("jittered request still gets a structured response");
    let elapsed = start_at.elapsed();
    // The injected jitter collapses the deadline to zero, so the answer —
    // a budget-degraded result or a structured deadline response — must
    // arrive within the grace window, never hang toward the 30s deadline.
    assert!(
        elapsed < Duration::from_secs(15),
        "jittered request took {elapsed:?}"
    );
    match response {
        Response::Result { exit_code, .. } => assert!(exit_code <= 4),
        Response::Deadline { deadline_ms } => assert_eq!(deadline_ms, 0),
        other => panic!("want result or deadline, got {other:?}"),
    }
    handle.shutdown().expect("clean shutdown");
    cleanup("jitter");
}

#[test]
fn a_killed_worker_is_retried_and_the_request_still_verifies() {
    let mut config = ServeConfig::new(tiered("kill"));
    config.plan = ServerPlan::new().with_fate(ServerFate::WorkerKill, 0);
    let handle = start(config);
    let addr = handle.addr().to_string();

    match client_request(
        &addr,
        &verify_request(TINY, 30_000),
        Duration::from_secs(60),
    ) {
        Ok(Response::Result {
            exit_code,
            verified,
            ..
        }) => {
            assert_eq!(exit_code, 0, "retry must recover the killed attempt");
            assert!(verified);
        }
        other => panic!("want a verify result, got {other:?}"),
    }
    assert!(
        handle.stats().retries() >= 1,
        "the killed attempt must be counted as a retry"
    );
    handle.shutdown().expect("clean shutdown");
    cleanup("kill");
}

#[test]
fn a_corrupt_tier2_entry_under_a_live_reader_is_rejected_not_served() {
    let mut config = ServeConfig::new(tiered("corrupt"));
    config.plan = ServerPlan::new().with_fate(ServerFate::Tier2Corrupt, 1);
    let handle = start(config);
    let addr = handle.addr().to_string();
    let timeout = Duration::from_secs(60);

    let mut renders = Vec::new();
    for _ in 0..2 {
        match client_request(&addr, &verify_request(TINY, 30_000), timeout) {
            Ok(Response::Result {
                exit_code, render, ..
            }) => {
                assert_eq!(exit_code, 0);
                renders.push(render);
            }
            other => panic!("want a verify result, got {other:?}"),
        }
    }
    // The corrupted warm read must recompute, not serve mangled bytes:
    // verdict lines agree modulo cache-disposition annotations.
    let normalize = |render: &str| {
        render
            .replace(" (cert cache hit)", "")
            .replace(" (cert cache miss)", "")
            .replace(" (from cert store)", "")
    };
    assert_eq!(normalize(&renders[0]), normalize(&renders[1]));
    handle.shutdown().expect("clean shutdown");
    cleanup("corrupt");
}

/// A tier-2 record whose *witness* is corrupted — with the checksum
/// recomputed over the damaged payload, so the store's checksum line is
/// valid and only the witness's structural validation stands in the way —
/// must be rejected on load, audited, and recomputed. The daemon never
/// serves the forged certificate.
#[test]
fn a_corrupted_witness_on_disk_is_recomputed_and_audited_never_served() {
    // Disk-only tier: no mem tier to satisfy the warm request before the
    // corrupted record is read back from disk.
    let store = TieredStore::disk(CertStore::open(scratch("witness-rot")));
    let handle = start(ServeConfig::new(store));
    let addr = handle.addr().to_string();
    let timeout = Duration::from_secs(60);

    let ask = || match client_request(&addr, &verify_request(TINY, 30_000), timeout) {
        Ok(Response::Result {
            exit_code, witness, ..
        }) => {
            assert_eq!(exit_code, 0);
            witness
        }
        other => panic!("want a verify result, got {other:?}"),
    };
    let cold_digest = ask();
    assert_eq!(cold_digest.len(), 16);

    // Rot the persisted record's witness digest, then *re-checksum* the
    // payload so the only remaining defense is the witness validation.
    let dir = scratch("witness-rot");
    let cert_path = std::fs::read_dir(&dir)
        .expect("store directory exists")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|x| x == "cert"))
        .expect("cold run persisted a record");
    let record = std::fs::read_to_string(&cert_path).expect("record readable");
    let mutated: String = record
        .lines()
        .map(|line| match line.strip_prefix("witness digest ") {
            Some(hex) => {
                let flipped = if hex.starts_with('0') { "1" } else { "0" };
                format!("witness digest {flipped}{}\n", &hex[1..])
            }
            None => format!("{line}\n"),
        })
        .collect();
    assert_ne!(mutated, record, "mutation must land");
    let (payload, _) = mutated
        .strip_suffix('\n')
        .and_then(|r| r.rsplit_once('\n'))
        .expect("record has a checksum line");
    let payload = format!("{payload}\n");
    let checksum = armada::recheck::record_checksum(&payload);
    let rotted = format!("{payload}checksum {checksum:016x}\n");
    // The resealed record passes the checksum; only the witness's own
    // sealed digest rejects it.
    assert!(
        matches!(
            armada::recheck::recheck_record(&rotted, None),
            Err(armada::recheck::RecheckError::DigestMismatch { .. })
        ),
        "the rotted record must pass the checksum and fail the witness digest"
    );
    std::fs::write(&cert_path, rotted).expect("rot lands");

    let warm_digest = ask();
    assert_eq!(
        warm_digest, cold_digest,
        "recompute must re-emit the genuine witness"
    );
    assert_eq!(
        handle.stats().verifications(),
        2,
        "the corrupted record must force a second verification"
    );
    assert!(
        handle.counters().get("cache.disk_corrupt") >= 1,
        "the rejected record must be audited: {:?}",
        handle.counters()
    );
    handle.shutdown().expect("clean shutdown");
    cleanup("witness-rot");
}

#[test]
fn stats_and_shutdown_round_trip_through_the_wire_protocol() {
    let handle = start(ServeConfig::new(tiered("stats")));
    let addr = handle.addr().to_string();
    let timeout = Duration::from_secs(10);

    client_request(
        &addr,
        &verify_request(TINY, 30_000),
        Duration::from_secs(60),
    )
    .expect("verify succeeds");
    match client_request(&addr, &Request::Stats, timeout) {
        Ok(Response::Stats { counters }) => {
            let get = |name: &str| {
                counters
                    .iter()
                    .find(|(k, _)| k == name)
                    .map(|(_, v)| *v)
                    .unwrap_or_else(|| panic!("missing counter `{name}` in {counters:?}"))
            };
            assert_eq!(get("serve.requests"), 1);
            assert_eq!(get("serve.verifications"), 1);
            assert_eq!(get("cache.misses"), 1);
        }
        other => panic!("want stats, got {other:?}"),
    }
    match client_request(&addr, &Request::Shutdown, timeout) {
        Ok(Response::Ok) => {}
        other => panic!("want ok, got {other:?}"),
    }
    handle.join();
    // A fresh daemon on the same store proves shutdown released the port
    // machinery cleanly and the disk tier survived.
    let handle = start(ServeConfig::new(tiered("stats")));
    let addr = handle.addr().to_string();
    match client_request(
        &addr,
        &verify_request(TINY, 30_000),
        Duration::from_secs(60),
    ) {
        Ok(Response::Result { render, .. }) => {
            assert!(
                render.contains("cache hit"),
                "restarted daemon must reuse the disk tier: {render}"
            );
        }
        other => panic!("want a verify result, got {other:?}"),
    }
    handle.shutdown().expect("clean shutdown");
    cleanup("stats");
}

#[test]
fn malformed_frames_get_a_structured_error_and_are_counted() {
    use std::io::{Read, Write};

    let handle = start(ServeConfig::new(tiered("proto")));
    let addr = handle.addr();

    // A syntactically valid frame carrying an unknown request kind.
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    let body = br#"{"kind": "dance"}"#;
    let mut frame = (body.len() as u32).to_be_bytes().to_vec();
    frame.extend_from_slice(body);
    stream.write_all(&frame).expect("send");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let mut len = [0u8; 4];
    stream.read_exact(&mut len).expect("length prefix");
    let mut payload = vec![0u8; u32::from_be_bytes(len) as usize];
    stream.read_exact(&mut payload).expect("payload");
    let text = String::from_utf8(payload).expect("utf-8 response");
    assert!(
        text.contains("error"),
        "unknown request kind must yield a structured error: {text}"
    );
    drop(stream);

    let give_up = Instant::now() + Duration::from_secs(10);
    while handle.stats().protocol_errors() < 1 {
        assert!(Instant::now() < give_up, "protocol error never counted");
        std::thread::sleep(Duration::from_millis(5));
    }
    handle.shutdown().expect("clean shutdown");
    cleanup("proto");
}

#[test]
fn requests_differing_only_in_jobs_share_one_coalesced_run() {
    let gate = Gate::held();
    let mut config = ServeConfig::new(tiered("jobskey"));
    config.gate = Some(gate.clone());
    let handle = start(config);
    let addr = handle.addr().to_string();
    let timeout = Duration::from_secs(60);

    // The coalescing key excludes jobs (renders are byte-identical for any
    // job count — the repo's determinism invariant), so a jobs=4 request
    // may ride a jobs=1 run.
    let responses: Vec<Response> = std::thread::scope(|scope| {
        let clients: Vec<_> = [1usize, 4]
            .into_iter()
            .map(|jobs| {
                let addr = addr.clone();
                scope.spawn(move || {
                    let request = Request::Verify(VerifyRequest {
                        source: Some(TINY.to_string()),
                        path: None,
                        name: None,
                        deadline_ms: Some(30_000),
                        jobs: Some(jobs),
                    });
                    client_request(&addr, &request, timeout).expect("request succeeds")
                })
            })
            .collect();
        let give_up = Instant::now() + Duration::from_secs(10);
        while handle.stats().waiters() < 2 {
            assert!(Instant::now() < give_up, "second request never coalesced");
            std::thread::sleep(Duration::from_millis(5));
        }
        gate.release();
        clients.into_iter().map(|c| c.join().unwrap()).collect()
    });
    assert_eq!(handle.stats().verifications(), 1);
    let renders: Vec<&String> = responses
        .iter()
        .map(|r| match r {
            Response::Result { render, .. } => render,
            other => panic!("want a verify result, got {other:?}"),
        })
        .collect();
    assert_eq!(renders[0], renders[1]);
    handle.shutdown().expect("clean shutdown");
    cleanup("jobskey");
}

#[test]
fn gate_type_is_shareable_across_threads() {
    // Compile-time contract: the gate handle the daemon hands to tests is
    // an Arc and clones cheaply into client threads.
    fn assert_send_sync<T: Send + Sync>(_: &T) {}
    let gate: Arc<Gate> = Gate::open();
    assert_send_sync(&gate);
}
