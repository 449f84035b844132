//! `armada serve`: a fault-tolerant verification daemon.
//!
//! The daemon accepts concurrent verify requests over the length-prefixed
//! JSON protocol ([`crate::proto`]) and runs each through the standard
//! [`Pipeline`](crate::Pipeline), in front of one *shared* certificate
//! hierarchy ([`TieredStore`]): an in-memory LRU tier backed by the
//! crash-safe disk store, so repeat requests are answered from memory,
//! restarts from disk, and cold requests by one bounded verification.
//!
//! Robustness machinery, in request order:
//!
//! * **Load shedding.** Admission is a bounded queue; when it is full the
//!   request is *rejected immediately* with a structured `overloaded`
//!   response carrying `retry_after_ms` — never queued into unbounded
//!   memory, never a dropped connection.
//! * **Herd coalescing.** Requests are keyed by a [`CertKey`] computed
//!   over the whole module source and the bounds (`jobs` and deadlines
//!   are excluded because they never change results). The cert store
//!   keys each recipe's level pair instead, so two sources that differ
//!   only in a comment run separately here and share every cert there. N
//!   concurrent requests for one key cost one verification: the first
//!   becomes the *leader* and enqueues a job, the rest register as waiters
//!   and receive the leader's report — byte-identical, flagged
//!   `coalesced`.
//! * **Deadlines.** Every request gets a wall-clock deadline (its own or
//!   the daemon default) that is threaded into the pipeline's cooperative
//!   deadline ([`Bounds::deadline`]) *and* enforced waiter-side: a waiter
//!   that has not received a result by deadline + grace responds with a
//!   structured `deadline` response and disconnects, unconditionally — a
//!   wedged worker can never hang a client past the grace window. The
//!   verification itself may still finish in the background and populate
//!   the cache for the retry.
//! * **Retries.** A worker that panics outside the pipeline's own
//!   isolation (or is killed by an injected [`ServerFate::WorkerKill`])
//!   is retried immediately, a bounded number of times. Verification is
//!   deterministic, so waiting between attempts buys nothing, and a retry
//!   can only reproduce the fault-free verdict.
//! * **Fault injection.** A [`ServerPlan`] pins [`ServerFate`]s to request
//!   admission ordinals, driving the daemon-level taxonomy (worker kills,
//!   tier-2 corruption under a live reader, accept-path deadline jitter,
//!   same-key storms) for `armada fuzz --serve`.
//!
//! The module is deliberately std-only: `TcpListener` + scoped worker
//! threads + `mpsc`, no async runtime, matching the repo's hermetic-build
//! policy.

use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use armada_runtime::CounterSet;
use armada_verify::store::{CertKey, ReadFault};
use armada_verify::tier::TieredStore;
use armada_verify::SimConfig;

use crate::fault::{ServerFate, ServerPlan};
use crate::proto::{read_frame, write_frame, Request, Response, VerifyRequest};
use crate::Pipeline;

/// Configuration for one daemon instance.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Verification worker threads.
    pub workers: usize,
    /// Admission queue depth; a full queue sheds with `overloaded`.
    pub queue_depth: usize,
    /// Deadline applied to requests that do not carry their own.
    pub default_deadline: Duration,
    /// Grace window past the deadline before a waiter gives up with a
    /// structured `deadline` response.
    pub grace: Duration,
    /// Bounded retries for a killed worker (attempts = retries + 1).
    pub retries: usize,
    /// The `retry_after_ms` advice in `overloaded` responses.
    pub retry_after: Duration,
    /// The shared certificate hierarchy every request verifies against.
    pub store: TieredStore,
    /// Baseline bounds for every request (jobs/deadline overridden
    /// per-request).
    pub sim: SimConfig,
    /// Emit cache/serve counter warnings to stderr.
    pub telemetry: bool,
    /// Server-level fault injection (fuzzing only).
    pub plan: ServerPlan,
    /// Test hook: workers block on this gate before verifying, so tests
    /// can deterministically pile up waiters behind one in-flight run.
    pub gate: Option<Arc<Gate>>,
}

impl ServeConfig {
    /// Defaults on an ephemeral localhost port with the given store.
    pub fn new(store: TieredStore) -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_depth: 8,
            default_deadline: Duration::from_secs(30),
            grace: Duration::from_secs(5),
            retries: 2,
            retry_after: Duration::from_millis(50),
            store,
            sim: SimConfig::default(),
            telemetry: false,
            plan: ServerPlan::new(),
            gate: None,
        }
    }
}

/// A held-until-released barrier (test hook; see [`ServeConfig::gate`]).
#[derive(Debug, Default)]
pub struct Gate {
    held: Mutex<bool>,
    released: Condvar,
}

impl Gate {
    /// A gate workers will block on until [`Gate::release`].
    pub fn held() -> Arc<Gate> {
        Arc::new(Gate {
            held: Mutex::new(true),
            released: Condvar::new(),
        })
    }

    /// An open gate ([`Gate::wait`] returns immediately until
    /// [`Gate::hold`]).
    pub fn open() -> Arc<Gate> {
        Arc::new(Gate::default())
    }

    /// Closes the gate again: workers dequeuing after this block until the
    /// next [`Gate::release`].
    pub fn hold(&self) {
        *self.held.lock().expect("gate lock") = true;
    }

    /// Opens the gate (idempotent); blocked workers proceed.
    pub fn release(&self) {
        let mut held = self.held.lock().expect("gate lock");
        *held = false;
        self.released.notify_all();
    }

    fn wait(&self) {
        let mut held = self.held.lock().expect("gate lock");
        while *held {
            held = self.released.wait(held).expect("gate lock");
        }
    }
}

/// Monotonic daemon counters, shared with in-process tests and rendered
/// through the telemetry layer for `stats` requests.
#[derive(Debug, Default)]
pub struct ServeStats {
    requests: AtomicU64,
    verifications: AtomicU64,
    waiters: AtomicU64,
    coalesced: AtomicU64,
    sheds: AtomicU64,
    retries: AtomicU64,
    deadline_timeouts: AtomicU64,
    protocol_errors: AtomicU64,
}

impl ServeStats {
    /// Verify requests admitted (the admission-ordinal source).
    pub fn requests(&self) -> u64 {
        self.requests.load(Ordering::SeqCst)
    }

    /// Underlying pipeline runs actually started. Only coalescing keeps
    /// this below `requests`: a request answered from the cert store still
    /// runs the pipeline, whose recipes then load their certs.
    pub fn verifications(&self) -> u64 {
        self.verifications.load(Ordering::SeqCst)
    }

    /// Waiters registered on in-flight runs, leaders included.
    pub fn waiters(&self) -> u64 {
        self.waiters.load(Ordering::SeqCst)
    }

    /// Requests that rode another request's run (waiters minus leaders).
    pub fn coalesced(&self) -> u64 {
        self.coalesced.load(Ordering::SeqCst)
    }

    /// Requests shed with `overloaded`.
    pub fn sheds(&self) -> u64 {
        self.sheds.load(Ordering::SeqCst)
    }

    /// Worker attempts retried after a kill.
    pub fn retries(&self) -> u64 {
        self.retries.load(Ordering::SeqCst)
    }

    /// Waiters that gave up with a structured `deadline` response.
    pub fn deadline_timeouts(&self) -> u64 {
        self.deadline_timeouts.load(Ordering::SeqCst)
    }

    /// Connections with unreadable or malformed requests.
    pub fn protocol_errors(&self) -> u64 {
        self.protocol_errors.load(Ordering::SeqCst)
    }

    /// The counters as a [`CounterSet`] (the `stats` response payload,
    /// merged with the store's cache counters by the daemon).
    pub fn counters(&self) -> CounterSet {
        let mut set = CounterSet::new();
        set.add("serve.requests", self.requests());
        set.add("serve.verifications", self.verifications());
        set.add("serve.waiters", self.waiters());
        set.add("serve.coalesced", self.coalesced());
        set.add("serve.sheds", self.sheds());
        set.add("serve.retries", self.retries());
        set.add("serve.deadline_timeouts", self.deadline_timeouts());
        set.add("serve.protocol_errors", self.protocol_errors());
        set
    }
}

/// What one verification produced, delivered to every waiter of its key.
#[derive(Debug)]
struct Outcome {
    exit_code: u8,
    verified: bool,
    render: String,
    /// Combined witness digest of the run's certificates (empty when the
    /// run produced none). Coalesced waiters share the leader's `Outcome`
    /// by `Arc`, so every frame of a storm carries the same digest by
    /// construction.
    witness: String,
}

/// One queued verification job (the leader's request).
struct Job {
    coalesce_key: String,
    source: String,
    sim: SimConfig,
    ordinal: usize,
}

struct InFlight {
    waiters: Vec<mpsc::Sender<Arc<Outcome>>>,
}

/// State shared by the accept loop, connection handlers, and workers.
struct Shared {
    stats: ServeStats,
    inflight: Mutex<HashMap<String, InFlight>>,
    stop: AtomicBool,
    config: ServeConfig,
}

/// A running daemon. Dropping the handle does *not* stop the daemon; use
/// [`ServerHandle::shutdown`] (or a `shutdown` request) then
/// [`ServerHandle::join`].
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves `:0` to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live daemon counters (in-process observers only; remote clients use
    /// a `stats` request).
    pub fn stats(&self) -> &ServeStats {
        &self.shared.stats
    }

    /// Serve + cache counters, merged.
    pub fn counters(&self) -> CounterSet {
        let mut set = self.shared.stats.counters();
        set.merge(&self.shared.config.store.counters());
        set
    }

    /// Requests shutdown over the wire and waits for the daemon to drain.
    ///
    /// # Errors
    ///
    /// Returns the client-side failure; the daemon may still be running.
    pub fn shutdown(mut self) -> Result<(), String> {
        client_request(
            &self.addr.to_string(),
            &Request::Shutdown,
            Duration::from_secs(10),
        )?;
        self.join_inner();
        Ok(())
    }

    /// Waits for the daemon to exit (something else must trigger
    /// shutdown).
    pub fn join(mut self) {
        self.join_inner();
    }

    fn join_inner(&mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }
}

/// A running daemon's entry point.
pub struct Server;

impl Server {
    /// Binds and starts the daemon; returns once the listener is live.
    ///
    /// # Errors
    ///
    /// Returns the bind error.
    pub fn start(config: ServeConfig) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let (job_tx, job_rx) = mpsc::sync_channel::<Job>(config.queue_depth.max(1));
        let job_rx = Arc::new(Mutex::new(job_rx));
        let workers = config.workers.max(1);
        let shared = Arc::new(Shared {
            stats: ServeStats::default(),
            inflight: Mutex::new(HashMap::new()),
            stop: AtomicBool::new(false),
            config,
        });

        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                let mut worker_handles = Vec::new();
                for _ in 0..workers {
                    let shared = Arc::clone(&shared);
                    let job_rx = Arc::clone(&job_rx);
                    worker_handles.push(std::thread::spawn(move || worker_loop(&shared, &job_rx)));
                }
                let mut handler_handles: Vec<JoinHandle<()>> = Vec::new();
                for stream in listener.incoming() {
                    if shared.stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    handler_handles.retain(|h| !h.is_finished());
                    let shared = Arc::clone(&shared);
                    let job_tx = job_tx.clone();
                    handler_handles.push(std::thread::spawn(move || {
                        handle_connection(stream, &shared, &job_tx);
                    }));
                }
                drop(listener);
                for handler in handler_handles {
                    let _ = handler.join();
                }
                // Workers exit once every sender is gone and the queue has
                // drained — all handlers joined above, so this is the last.
                drop(job_tx);
                for worker in worker_handles {
                    let _ = worker.join();
                }
            })
        };
        Ok(ServerHandle {
            addr,
            shared,
            accept: Some(accept),
        })
    }
}

/// What admission decided for one verify request.
enum Admission {
    /// Wait for the outcome (leader or coalesced waiter).
    Wait {
        rx: Receiver<Arc<Outcome>>,
        coalesced: bool,
    },
    /// The queue was full; shed.
    Shed,
    /// The daemon is draining; no new work.
    Down,
}

fn handle_connection(mut stream: TcpStream, shared: &Shared, job_tx: &SyncSender<Job>) {
    // A silent or trickling client must not pin this handler forever.
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    let frame = match read_frame(&mut stream) {
        Ok(frame) => frame,
        Err(_) => {
            // Includes the shutdown wake-up's empty connection.
            shared.stats.protocol_errors.fetch_add(1, Ordering::SeqCst);
            return;
        }
    };
    let request = match Request::decode(&frame) {
        Ok(request) => request,
        Err(message) => {
            shared.stats.protocol_errors.fetch_add(1, Ordering::SeqCst);
            respond(&mut stream, &Response::Error { message });
            return;
        }
    };
    match request {
        Request::Stats => {
            let mut set = shared.stats.counters();
            set.merge(&shared.config.store.counters());
            let counters = set
                .entries()
                .iter()
                .map(|(k, v)| (k.to_string(), *v))
                .collect();
            respond(&mut stream, &Response::Stats { counters });
        }
        Request::Shutdown => {
            shared.stop.store(true, Ordering::SeqCst);
            respond(&mut stream, &Response::Ok);
            // Wake the accept loop so it observes the stop flag.
            let _ = TcpStream::connect(("127.0.0.1", local_port(stream))); // best-effort
        }
        Request::Verify(request) => handle_verify(stream, shared, job_tx, request),
    }
}

fn local_port(stream: TcpStream) -> u16 {
    stream.local_addr().map(|a| a.port()).unwrap_or(0)
}

fn handle_verify(
    mut stream: TcpStream,
    shared: &Shared,
    job_tx: &SyncSender<Job>,
    request: VerifyRequest,
) {
    let config = &shared.config;
    let source = match (&request.source, &request.path) {
        (Some(source), _) => source.clone(),
        (None, Some(path)) => match std::fs::read_to_string(PathBuf::from(path)) {
            Ok(source) => source,
            Err(e) => {
                respond(
                    &mut stream,
                    &Response::Error {
                        message: format!("cannot read `{path}`: {e}"),
                    },
                );
                return;
            }
        },
        (None, None) => unreachable!("decode enforces exactly one of source/path"),
    };

    let ordinal = shared.stats.requests.fetch_add(1, Ordering::SeqCst) as usize;
    let jittered = config.plan.has(ServerFate::AcceptJitter, ordinal);
    let deadline = if jittered {
        // Adverse jitter on the accept path: the request's deadline has
        // already passed by the time it is admitted.
        Duration::ZERO
    } else {
        request
            .deadline_ms
            .map(Duration::from_millis)
            .unwrap_or(config.default_deadline)
    };
    let deadline_ms = deadline.as_millis() as u64;
    let give_up_at = Instant::now() + deadline + config.grace;

    let mut sim = config.sim.clone();
    sim.bounds = sim
        .bounds
        .with_jobs(request.jobs.unwrap_or(1))
        .with_deadline(deadline);
    // The coalescing key is a cert-store key over the whole module source
    // with the level pair left empty: it must cover the run's whole
    // report, not one recipe's cert, which is keyed per level pair. Jobs
    // and deadline are excluded by construction, so requests differing
    // only in those coalesce. A jittered request must NOT join
    // (or lead) a herd: its collapsed deadline would leak a degraded
    // verdict to clean waiters, so it runs under a private key.
    let coalesce_key = if jittered {
        format!(
            "jitter:{ordinal}:{}",
            CertKey::compute(&source, "", "", &sim).as_hex()
        )
    } else {
        CertKey::compute(&source, "", "", &sim).as_hex()
    };
    // Checkpoints are per-verification state: scope the configured base
    // dir by the coalescing key, so concurrent requests for different
    // modules never share (or tear) each other's manifests while a retry
    // of the same request resumes its own.
    if let Some(spec) = &mut sim.checkpoint {
        spec.dir = spec.dir.join(format!(
            "rq-{:016x}",
            armada_runtime::hash::fnv1a_64(coalesce_key.as_bytes())
        ));
    }

    let admission = {
        let (tx, rx) = mpsc::channel();
        let mut inflight = shared.inflight.lock().expect("inflight lock");
        match inflight.get_mut(&coalesce_key) {
            Some(entry) => {
                entry.waiters.push(tx);
                shared.stats.waiters.fetch_add(1, Ordering::SeqCst);
                shared.stats.coalesced.fetch_add(1, Ordering::SeqCst);
                Admission::Wait {
                    rx,
                    coalesced: true,
                }
            }
            None => {
                let job = Job {
                    coalesce_key: coalesce_key.clone(),
                    source,
                    sim,
                    ordinal,
                };
                // try_send under the map lock: an entry must never be
                // visible for coalescing unless its job is actually queued.
                match job_tx.try_send(job) {
                    Ok(()) => {
                        inflight.insert(coalesce_key, InFlight { waiters: vec![tx] });
                        shared.stats.waiters.fetch_add(1, Ordering::SeqCst);
                        Admission::Wait {
                            rx,
                            coalesced: false,
                        }
                    }
                    Err(TrySendError::Full(_)) => Admission::Shed,
                    Err(TrySendError::Disconnected(_)) => Admission::Down,
                }
            }
        }
    };

    match admission {
        Admission::Shed => {
            shared.stats.sheds.fetch_add(1, Ordering::SeqCst);
            respond(
                &mut stream,
                &Response::Overloaded {
                    retry_after_ms: config.retry_after.as_millis() as u64,
                },
            );
        }
        Admission::Down => {
            respond(
                &mut stream,
                &Response::Error {
                    message: "daemon is shutting down".to_string(),
                },
            );
        }
        Admission::Wait { rx, coalesced } => {
            let timeout = give_up_at.saturating_duration_since(Instant::now());
            match rx.recv_timeout(timeout) {
                Ok(outcome) => respond(
                    &mut stream,
                    &Response::Result {
                        exit_code: outcome.exit_code,
                        verified: outcome.verified,
                        render: outcome.render.clone(),
                        coalesced,
                        witness: outcome.witness.clone(),
                    },
                ),
                Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => {
                    // The no-hang contract: a structured response within
                    // deadline + grace, whatever the worker is doing. The
                    // run may still finish and warm the cache.
                    shared
                        .stats
                        .deadline_timeouts
                        .fetch_add(1, Ordering::SeqCst);
                    respond(&mut stream, &Response::Deadline { deadline_ms });
                }
            }
        }
    }
}

fn respond(stream: &mut TcpStream, response: &Response) {
    // The client may already be gone; a failed reply is not a daemon error.
    let _ = write_frame(stream, &response.encode());
}

fn worker_loop(shared: &Shared, job_rx: &Mutex<Receiver<Job>>) {
    loop {
        // Hold the receiver lock only for the dequeue, so workers drain the
        // queue concurrently.
        let job = match job_rx.lock().expect("job queue lock").recv() {
            Ok(job) => job,
            Err(_) => return, // every sender gone: drained, shut down
        };
        if let Some(gate) = &shared.config.gate {
            gate.wait();
        }
        shared.stats.verifications.fetch_add(1, Ordering::SeqCst);
        let outcome = Arc::new(run_job(shared, &job));
        let waiters = shared
            .inflight
            .lock()
            .expect("inflight lock")
            .remove(&job.coalesce_key)
            .map(|entry| entry.waiters)
            .unwrap_or_default();
        for waiter in waiters {
            // A waiter that already gave up (deadline) has dropped its
            // receiver; that is its loss, not an error.
            let _ = waiter.send(Arc::clone(&outcome));
        }
    }
}

fn run_job(shared: &Shared, job: &Job) -> Outcome {
    let config = &shared.config;
    let kill = config.plan.has(ServerFate::WorkerKill, job.ordinal);
    // Per-request fault view: a corrupt tier-2 fate poisons only this
    // request's reads; the shared store underneath stays pristine.
    let store = if config.plan.has(ServerFate::Tier2Corrupt, job.ordinal) {
        let mut shim = config.store.shim();
        shim.read = Some(ReadFault::Corrupt);
        config.store.clone().with_faults(shim)
    } else {
        config.store.clone()
    };

    let mut last_panic = String::new();
    for attempt in 0..=config.retries {
        let run = catch_unwind(AssertUnwindSafe(|| {
            if kill && attempt == 0 {
                panic!("injected fault: server worker killed mid-request");
            }
            let pipeline = Pipeline::from_source(&job.source)?
                .with_sim_config(job.sim.clone())
                .with_tiered_store(store.clone());
            pipeline.run()
        }));
        match run {
            Ok(Ok(report)) => {
                if config.telemetry && report.corrupt_loads > 0 {
                    eprintln!(
                        "armada serve: warning: {} corrupt cert record(s) rejected and recomputed (request #{})",
                        report.corrupt_loads, job.ordinal
                    );
                }
                return Outcome {
                    exit_code: report.worst_status().exit_code(),
                    verified: report.verified(),
                    render: report.to_string(),
                    witness: report.witness_digest().unwrap_or_default(),
                };
            }
            Ok(Err(e)) => {
                // Front-end / infrastructure errors are deterministic;
                // retrying cannot help.
                return Outcome {
                    exit_code: 2,
                    verified: false,
                    render: format!("error: {e}\n"),
                    witness: String::new(),
                };
            }
            Err(payload) => {
                last_panic = crate::panic_text(&*payload);
                if attempt < config.retries {
                    shared.stats.retries.fetch_add(1, Ordering::SeqCst);
                }
            }
        }
    }
    Outcome {
        exit_code: 4,
        verified: false,
        render: format!(
            "NOT VERIFIED\nserve: worker crashed on all {} attempt(s): {last_panic}\n",
            config.retries + 1
        ),
        witness: String::new(),
    }
}

/// One request/response exchange with a daemon at `addr`.
///
/// `timeout` bounds connect and read; for verify requests pass at least the
/// request's deadline plus the daemon's grace window (the daemon guarantees
/// a structured response within that).
///
/// # Errors
///
/// Returns a human-readable message for connect/IO/decode failures.
pub fn client_request(
    addr: &str,
    request: &Request,
    timeout: Duration,
) -> Result<Response, String> {
    let target: SocketAddr = addr
        .to_socket_addrs()
        .map_err(|e| format!("cannot resolve `{addr}`: {e}"))?
        .next()
        .ok_or_else(|| format!("`{addr}` resolves to nothing"))?;
    let mut stream = TcpStream::connect_timeout(&target, timeout)
        .map_err(|e| format!("cannot connect to `{addr}`: {e}"))?;
    stream
        .set_read_timeout(Some(timeout))
        .map_err(|e| format!("cannot set timeout: {e}"))?;
    write_frame(&mut stream, &request.encode()).map_err(|e| format!("send failed: {e}"))?;
    let frame = read_frame(&mut stream).map_err(|e| format!("receive failed: {e}"))?;
    Response::decode(&frame)
}
