//! The solve-service daemon: accept loop, admission control, request
//! lifecycle, chaos injection, and graceful drain.
//!
//! One daemon owns one shared [`WorkerPool`]; every concurrent pooled
//! solve runs on threads *leased* from it, so tenant count and thread
//! count are decoupled — the paper's block-asynchronous tolerance for
//! uneven per-worker progress is what makes multiplexing unrelated
//! systems onto one pool numerically safe. The robustness surface:
//!
//! * **Admission control** — at most `max_inflight` requests admitted at
//!   once; beyond that the daemon sheds load with a structured
//!   [`Response::Overloaded`] carrying a `retry_after_ms` hint derived
//!   from an EWMA of recent solve wall-times. A pooled request that
//!   cannot obtain its lease within `admission_timeout_ms` is shed the
//!   same way. Requests larger than `max_rows`, or whose `tol` is not
//!   finite and > 0, are rejected with a typed [`Response::Failed`]
//!   (retrying cannot help those).
//! * **Deadlines and cancellation** — each request gets a
//!   [`CancelToken`] (deadline from `deadline_ms`, cancel from a
//!   `cancel` frame on any connection). A pooled solve's monitor loop
//!   polls it and raises the ordinary Release stop flag, so an expired
//!   request frees its leased shards within one monitor poll; a sim
//!   solve polls it between chunks.
//! * **Fault isolation** — a panicking request (poisoned sweep under
//!   `--chaos`, validation assert, anything) is contained: pool workers
//!   wrap job slices in `catch_unwind`, and the connection thread wraps
//!   the whole request in `catch_unwind`, converting the unwind into a
//!   typed [`Response::Failed`] frame. The daemon never dies with a
//!   tenant.
//! * **Graceful drain** — [`Daemon::shutdown`] stops accepting, lets
//!   in-flight solves finish (or cancels them after the grace period, at
//!   which point they deadline out within one monitor poll), joins every
//!   connection thread, flushes metrics, and joins every pool worker,
//!   returning the counts as a [`DrainReport`] — the structural
//!   zero-leaked-threads accounting.

use crate::cache::{solve_key, Begin, CachedSolve, SolveCache};
use crate::wire::{read_frame, write_frame, MatrixSpec, Mode, Request, Response, SolveSpec};
use abr_core::async_block::AsyncJacobiKernel;
use abr_core::{
    fingerprint_matrix, fingerprint_vec, AsyncBlockSolver, ExecutorKind, ScheduleKind,
    SolveOptions, SolveResult,
};
use abr_exp::metrics::{JsonlFileSink, MetricsSink, NullSink, RunMetrics};
use abr_gpu::kernel::AllowAll;
use abr_gpu::{
    CancelCause, CancelToken, FaultPlan, RunOutcome, RunSession, SimOptions, ThreadedOptions,
    WorkerPool,
};
use abr_sparse::{gen, CsrMatrix, RowPartition};
use abr_sync::{Ordering, SyncBool};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Per-request chaos-injection probabilities (`--chaos`).
#[derive(Debug, Clone, Copy)]
pub struct ChaosConfig {
    /// Probability a given pooled worker is killed mid-request.
    pub p_kill: f64,
    /// Probability a given pooled worker hangs mid-request.
    pub p_hang: f64,
    /// Probability a given pooled worker's sweep is poisoned (panics).
    pub p_poison: f64,
    /// Recovery-(t_r) adoption delay handed to the fault plan.
    pub recovery: usize,
    /// Chaos RNG seed (per-request streams derive from it).
    pub seed: u64,
}

impl ChaosConfig {
    /// Parses the `--chaos KILL,HANG,POISON` flag value.
    pub fn parse(s: &str) -> Result<ChaosConfig, String> {
        let parts: Vec<&str> = s.split(',').collect();
        if parts.len() != 3 {
            return Err(format!("--chaos wants KILL,HANG,POISON probabilities, got `{s}`"));
        }
        let p = |t: &str| -> Result<f64, String> {
            let v: f64 = t.trim().parse().map_err(|_| format!("bad probability `{t}`"))?;
            if !(0.0..=1.0).contains(&v) {
                return Err(format!("probability `{t}` outside [0,1]"));
            }
            Ok(v)
        };
        Ok(ChaosConfig {
            p_kill: p(parts[0])?,
            p_hang: p(parts[1])?,
            p_poison: p(parts[2])?,
            recovery: 10,
            seed: 0xc4a05,
        })
    }
}

/// Daemon tuning. `Default` is sized for tests: a small pool on an
/// ephemeral localhost port.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Shared worker-pool size.
    pub workers: usize,
    /// Admission bound: max requests admitted (queued-for-lease or
    /// solving) at once; beyond it, load is shed.
    pub max_inflight: usize,
    /// How long a pooled request may wait for its lease before being
    /// shed with `Overloaded`.
    pub admission_timeout_ms: u64,
    /// Hard per-system row cap; larger requests get a typed rejection.
    pub max_rows: usize,
    /// Chaos injection, when the daemon runs with `--chaos`.
    pub chaos: Option<ChaosConfig>,
    /// Per-request JSONL metrics stream (line-buffered, tailable).
    pub metrics_path: Option<PathBuf>,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            max_inflight: 8,
            admission_timeout_ms: 500,
            max_rows: 1 << 20,
            chaos: None,
            metrics_path: None,
        }
    }
}

/// Lifecycle counters, snapshotted into the [`DrainReport`].
#[derive(Debug, Default, Clone)]
pub struct ServiceCounters {
    /// Requests past admission control.
    pub admitted: u64,
    /// Solves answered `done`.
    pub completed: u64,
    /// Requests shed with `overloaded`.
    pub shed: u64,
    /// Requests ended by client cancellation.
    pub cancelled: u64,
    /// Requests ended by deadline expiry.
    pub deadline_exceeded: u64,
    /// Requests answered `failed`.
    pub failed: u64,
    /// Direct cache hits.
    pub cache_hits: u64,
    /// Requests coalesced onto an in-flight identical solve.
    pub coalesced: u64,
    /// Cached results dropped to hold the cache's bounds.
    pub evicted: u64,
}

/// What [`Daemon::shutdown`] observed while draining.
#[derive(Debug)]
pub struct DrainReport {
    /// Pool worker threads joined (must equal the configured pool size
    /// the first time; 0 on repeat drains).
    pub workers_joined: usize,
    /// Connection threads joined.
    pub connections_joined: usize,
    /// Final lifecycle counters.
    pub counters: ServiceCounters,
}

struct Shared {
    cfg: DaemonConfig,
    addr: SocketAddr,
    pool: WorkerPool,
    shutdown: SyncBool,
    inflight: Mutex<usize>,
    ewma_ms: Mutex<f64>,
    registry: Mutex<HashMap<u64, Arc<CancelToken>>>,
    cache: SolveCache,
    metrics: Mutex<Box<dyn MetricsSink + Send>>,
    counters: Mutex<ServiceCounters>,
    chaos_counter: Mutex<u64>,
    conns: Mutex<ConnThreads>,
}

/// A running solve-service daemon. Dropping it without calling
/// [`shutdown`](Self::shutdown) leaks the accept thread — always drain.
pub struct Daemon {
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Binds, spawns the accept loop, and returns the running daemon.
    pub fn start(cfg: DaemonConfig) -> io::Result<Daemon> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let metrics: Box<dyn MetricsSink + Send> = match &cfg.metrics_path {
            Some(p) => Box::new(JsonlFileSink::create(p)?),
            None => Box::new(NullSink),
        };
        let workers = cfg.workers.max(1);
        let shared = Arc::new(Shared {
            addr,
            pool: WorkerPool::new(workers),
            shutdown: SyncBool::new(false),
            inflight: Mutex::new(0),
            ewma_ms: Mutex::new(50.0),
            registry: Mutex::new(HashMap::new()),
            cache: SolveCache::new(),
            metrics: Mutex::new(metrics),
            counters: Mutex::new(ServiceCounters::default()),
            chaos_counter: Mutex::new(0),
            conns: Mutex::default(),
            cfg,
        });
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::Builder::new()
            .name("abr-accept".into())
            .spawn(move || accept_loop(listener, accept_shared))?;
        Ok(Daemon { shared, accept: Some(accept) })
    }

    /// The bound address (connect clients here).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Whether a `shutdown` frame (or [`begin_shutdown`](Self::begin_shutdown))
    /// has initiated drain.
    pub fn shutdown_requested(&self) -> bool {
        // sync: Acquire pairs with `begin_shutdown`'s Release store.
        self.shared.shutdown.load(Ordering::Acquire)
    }

    /// Snapshot of the lifecycle counters.
    pub fn counters(&self) -> ServiceCounters {
        self.shared.counters()
    }

    /// Connection-thread handles the daemon still holds: its open
    /// connections, plus finished ones not yet reaped by the next accept.
    pub fn live_connection_handles(&self) -> usize {
        self.shared.conns.lock().live.len()
    }

    /// Stops accepting new connections (idempotent; does not join).
    pub fn begin_shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Graceful drain: stop accepting, give in-flight solves `grace` to
    /// finish, then cancel the stragglers (they stop within one monitor
    /// poll), join every connection thread, flush metrics, and join
    /// every pool worker.
    pub fn shutdown(mut self, grace: Duration) -> DrainReport {
        self.shared.begin_shutdown();
        if let Some(h) = self.accept.take() {
            h.join().expect("accept loop must not panic");
        }
        let conns = std::mem::take(&mut *self.shared.conns.lock());
        // Grace window: wait for the cancel registry (live solves) to
        // empty on its own before forcing the stragglers out.
        let t0 = Instant::now();
        while t0.elapsed() < grace {
            if self.shared.registry.lock().is_empty() {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        for token in self.shared.registry.lock().values() {
            token.cancel();
        }
        let connections_joined = conns.joined + conns.live.len();
        for c in conns.live {
            let _ = c.join(); // a panicked conn thread already sent Failed
        }
        self.shared.metrics.lock().flush();
        let workers_joined = self.shared.pool.drain();
        DrainReport {
            workers_joined,
            connections_joined,
            counters: self.shared.counters(),
        }
    }
}

impl Shared {
    fn begin_shutdown(&self) {
        // sync: Release publishes everything written before the drain
        // decision to the accept loop's and conn threads' Acquire loads.
        self.shutdown.store(true, Ordering::Release);
        // Wake the (blocking) accept call so it observes the flag.
        let _ = TcpStream::connect(self.addr);
    }

    fn shutting_down(&self) -> bool {
        // sync: Acquire pairs with `begin_shutdown`'s Release store.
        self.shutdown.load(Ordering::Acquire)
    }

    fn retry_hint_ms(&self) -> u64 {
        (self.ewma_ms.lock().max(10.0)) as u64
    }

    fn observe_solve_ms(&self, ms: f64) {
        let mut e = self.ewma_ms.lock();
        *e = 0.7 * *e + 0.3 * ms;
    }

    fn counters(&self) -> ServiceCounters {
        let mut c = self.counters.lock().clone();
        c.evicted = self.cache.evicted();
        c
    }

    fn count(&self, f: impl FnOnce(&mut ServiceCounters)) {
        f(&mut self.counters.lock());
    }

    /// Samples a per-request fault plan from the chaos config. Worker 0
    /// is always spared so a fully-faulted request can still converge
    /// through recovery instead of stalling.
    fn sample_chaos(&self, workers: usize) -> Option<FaultPlan> {
        let chaos = self.cfg.chaos.as_ref()?;
        let stream = {
            let mut ctr = self.chaos_counter.lock();
            *ctr += 1;
            *ctr
        };
        let mut state = chaos.seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut unit = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut plan = FaultPlan::new().with_recovery(chaos.recovery);
        let mut any = false;
        for w in 1..workers {
            let r = unit();
            let at_round = 3 + 2 * w;
            if r < chaos.p_kill {
                plan = plan.kill(w, at_round);
                any = true;
            } else if r < chaos.p_kill + chaos.p_hang {
                plan = plan.hang(w, at_round);
                any = true;
            } else if r < chaos.p_kill + chaos.p_hang + chaos.p_poison {
                plan = plan.poison(w, at_round);
                any = true;
            }
        }
        any.then_some(plan)
    }
}

/// Connection threads the accept loop has spawned: the handles not yet
/// joined, plus how many finished ones it has joined.
#[derive(Default)]
struct ConnThreads {
    live: Vec<JoinHandle<()>>,
    joined: usize,
}

impl ConnThreads {
    /// Joins every finished connection thread, so a long-lived daemon
    /// holds handles only for its open connections.
    fn reap(&mut self) {
        for h in self.live.extract_if(.., |h| h.is_finished()) {
            let _ = h.join(); // a panicked conn thread already sent Failed
            self.joined += 1;
        }
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.shutting_down() {
            break;
        }
        shared.conns.lock().reap();
        let Ok(stream) = stream else { continue };
        let conn_shared = Arc::clone(&shared);
        match std::thread::Builder::new()
            .name("abr-conn".into())
            .spawn(move || handle_conn(stream, &conn_shared))
        {
            Ok(h) => shared.conns.lock().live.push(h),
            Err(e) => eprintln!("abr-serve: could not spawn connection thread: {e}"),
        }
    }
}

/// Reads one frame, polling the shutdown flag while the connection is
/// idle. Returns `Ok(None)` on peer close *or* daemon drain.
///
/// The idle wait reads the first header byte with a short timeout so a
/// drained daemon's connection threads exit promptly; once any byte of a
/// frame has arrived, the rest is read blocking (a frame mid-flight is
/// never abandoned to a poll tick).
fn read_frame_idle(stream: &mut TcpStream, shared: &Shared) -> io::Result<Option<String>> {
    let mut first = [0u8; 1];
    loop {
        if shared.shutting_down() {
            return Ok(None);
        }
        match stream.read(&mut first) {
            Ok(0) => return Ok(None), // clean EOF
            Ok(_) => break,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut =>
            {
                continue
            }
            Err(e) => return Err(e),
        }
    }
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    let frame = read_frame(&mut (&first[..]).chain(&mut *stream));
    stream.set_read_timeout(Some(Duration::from_millis(50)))?;
    frame
}

fn handle_conn(mut stream: TcpStream, shared: &Shared) {
    let _ = stream.set_nodelay(true);
    if stream.set_read_timeout(Some(Duration::from_millis(50))).is_err() {
        return;
    }
    loop {
        let payload = match read_frame_idle(&mut stream, shared) {
            Ok(Some(p)) => p,
            Ok(None) => return,
            Err(_) => return,
        };
        let response = match Request::parse(&payload) {
            Err(e) => Response::Failed { id: 0, error: format!("bad request: {e}") },
            Ok(Request::Ping) => Response::Pong,
            Ok(Request::Shutdown) => {
                // Flag first, ack second: a client that has seen the ack
                // must be able to observe the daemon as draining.
                shared.begin_shutdown();
                let _ = write_frame(&mut stream, &Response::ShuttingDown.render());
                return;
            }
            Ok(Request::Cancel { id }) => {
                if let Some(token) = shared.registry.lock().get(&id) {
                    token.cancel();
                }
                Response::Ok
            }
            Ok(Request::Solve(spec)) => {
                if shared.shutting_down() {
                    Response::ShuttingDown
                } else {
                    let id = spec.id;
                    // Fault isolation: any panic inside the request —
                    // validation assert, poisoned sweep surfacing through
                    // the solve, anything — becomes this request's typed
                    // error frame, never the daemon's death.
                    std::panic::catch_unwind(AssertUnwindSafe(|| solve_request(shared, spec)))
                        .unwrap_or_else(|p| {
                            shared.count(|c| c.failed += 1);
                            Response::Failed { id, error: format!("panic: {}", panic_msg(&p)) }
                        })
                }
            }
        };
        if write_frame(&mut stream, &response.render()).is_err() {
            return;
        }
    }
}

fn panic_msg(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).into()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".into()
    }
}

/// Decrements the inflight count on scope exit (including unwinds).
struct AdmissionSlot<'a>(&'a Shared);

impl Drop for AdmissionSlot<'_> {
    fn drop(&mut self) {
        *self.0.inflight.lock() -= 1;
    }
}

/// Deregisters the request's cancel token on scope exit.
struct Registered<'a>(&'a Shared, u64);

impl Drop for Registered<'_> {
    fn drop(&mut self) {
        self.0.registry.lock().remove(&self.1);
    }
}

fn solve_request(shared: &Shared, spec: SolveSpec) -> Response {
    let id = spec.id;

    // -- Validation (typed failures; retrying cannot help) --------------
    let (a, rhs) = match load_system(&spec, shared.cfg.max_rows) {
        Ok(system) => system,
        Err(error) => {
            shared.count(|c| c.failed += 1);
            return Response::Failed { id, error };
        }
    };
    let n = a.n_rows();

    // -- Admission (bounded; shed with a retry hint) ---------------------
    let _slot = {
        let mut inflight = shared.inflight.lock();
        if *inflight >= shared.cfg.max_inflight {
            drop(inflight);
            shared.count(|c| c.shed += 1);
            return Response::Overloaded { id, retry_after_ms: shared.retry_hint_ms() };
        }
        *inflight += 1;
        AdmissionSlot(shared)
    };
    shared.count(|c| c.admitted += 1);

    // -- Request-scoped cancellation / deadline --------------------------
    let token = Arc::new(match spec.deadline_ms {
        Some(ms) => CancelToken::with_deadline(Instant::now() + Duration::from_millis(ms)),
        None => CancelToken::new(),
    });
    shared.registry.lock().insert(id, Arc::clone(&token));
    let _registered = Registered(shared, id);

    // -- Chaos + cache resolution ---------------------------------------
    let workers = spec.workers.clamp(1, shared.pool.n_workers());
    let chaos = match spec.mode {
        Mode::Pooled => shared.sample_chaos(workers),
        Mode::Sim => None,
    };
    let x0 = vec![0.0; n];
    let use_cache = spec.cache && chaos.is_none();
    let lead = if use_cache {
        let key = solve_key(
            fingerprint_matrix(&a),
            fingerprint_vec(&rhs),
            fingerprint_vec(&x0),
            spec.tol,
            spec.local_iters.max(1),
            spec.block.max(1),
            spec.mode,
            spec.seed,
        );
        match shared.cache.begin(key, Some(&token)) {
            Begin::Ready(r, coalesced) => {
                shared.count(|c| {
                    c.completed += 1;
                    if coalesced {
                        c.coalesced += 1;
                    } else {
                        c.cache_hits += 1;
                    }
                });
                return Response::Done {
                    id,
                    x: r.x.clone(),
                    iterations: r.iterations,
                    converged: true,
                    final_residual: r.final_residual,
                    cached: !coalesced,
                    coalesced,
                    chaos: false,
                };
            }
            Begin::Aborted(cause) => return abort_response(shared, id, 0, cause),
            Begin::Lead(guard) => Some(guard),
        }
    } else {
        None
    };

    // -- Solve -----------------------------------------------------------
    let t0 = Instant::now();
    let outcome = run_solve(shared, &spec, &a, &rhs, &x0, workers, &token, chaos.as_ref());
    let (resp, publish) = match outcome {
        Err(e) => {
            shared.count(|c| c.failed += 1);
            (Response::Failed { id, error: e }, None)
        }
        Ok(Solved::Interrupted(cause, iterations)) => {
            (abort_response(shared, id, iterations, cause), None)
        }
        Ok(Solved::Shed) => {
            shared.count(|c| c.shed += 1);
            (Response::Overloaded { id, retry_after_ms: shared.retry_hint_ms() }, None)
        }
        Ok(Solved::Finished { result, checks }) => {
            shared.observe_solve_ms(t0.elapsed().as_secs_f64() * 1e3);
            shared.count(|c| c.completed += 1);
            record_metrics(shared, &spec, &result, checks);
            let publish = (result.converged && chaos.is_none()).then(|| CachedSolve {
                x: result.x.clone(),
                iterations: result.iterations,
                final_residual: result.final_residual,
            });
            (
                Response::Done {
                    id,
                    iterations: result.iterations,
                    converged: result.converged,
                    final_residual: result.final_residual,
                    x: result.x,
                    cached: false,
                    coalesced: false,
                    chaos: chaos.is_some(),
                },
                publish,
            )
        }
    };
    if let (Some(guard), Some(result)) = (lead, publish) {
        guard.publish(result);
    } // a guard dropped without publishing releases any coalesced waiters
    resp
}

/// Checks the request's tolerance and builds its system and right-hand
/// side; every error is a validation failure that retrying cannot fix.
/// A solve stops on its tolerance, so one that is not finite and > 0
/// would run the whole `max_iters` budget.
fn load_system(spec: &SolveSpec, max_rows: usize) -> Result<(CsrMatrix, Vec<f64>), String> {
    if !(spec.tol.is_finite() && spec.tol > 0.0) {
        return Err(format!("tol must be finite and > 0, got {}", spec.tol));
    }
    let n = spec.matrix.n_rows();
    if n == 0 {
        return Err("empty system".into());
    }
    if n > max_rows {
        return Err(format!(
            "admission: system of {n} rows exceeds this daemon's max_rows {max_rows}"
        ));
    }
    let a = match &spec.matrix {
        MatrixSpec::Lap2d { g } => gen::laplacian_2d_5pt(*g),
        MatrixSpec::Csr { n_rows, n_cols, row_ptr, col_idx, values } => CsrMatrix::from_raw(
            *n_rows,
            *n_cols,
            row_ptr.clone(),
            col_idx.clone(),
            values.clone(),
        )
        .map_err(|e| format!("bad matrix: {e}"))?,
    };
    if a.n_rows() != a.n_cols() {
        return Err(format!("system must be square, got {} x {}", a.n_rows(), a.n_cols()));
    }
    let rhs = match &spec.rhs {
        Some(r) if r.len() == n => r.clone(),
        Some(r) => return Err(format!("rhs length {} does not match {n} rows", r.len())),
        None => a.mul_vec(&vec![1.0; n]).map_err(|e| format!("default rhs: {e}"))?,
    };
    Ok((a, rhs))
}

fn abort_response(shared: &Shared, id: u64, iterations: usize, cause: CancelCause) -> Response {
    match cause {
        CancelCause::Cancelled => {
            shared.count(|c| c.cancelled += 1);
            Response::Cancelled { id, iterations }
        }
        CancelCause::DeadlineExceeded => {
            shared.count(|c| c.deadline_exceeded += 1);
            Response::DeadlineExceeded { id, iterations }
        }
    }
}

enum Solved {
    /// The solve ran to its end, with its residual checks.
    Finished { result: SolveResult, checks: Vec<(usize, f64)> },
    Interrupted(CancelCause, usize),
    /// Admitted but could not obtain a lease in time — shed after all.
    Shed,
}

#[allow(clippy::too_many_arguments)] // the request's full environment
fn run_solve(
    shared: &Shared,
    spec: &SolveSpec,
    a: &CsrMatrix,
    rhs: &[f64],
    x0: &[f64],
    workers: usize,
    token: &CancelToken,
    chaos: Option<&FaultPlan>,
) -> Result<Solved, String> {
    let n = a.n_rows();
    let block = spec.block.clamp(1, n);
    let partition = RowPartition::uniform(n, block).map_err(|e| e.to_string())?;
    let opts = SolveOptions::to_tolerance(spec.tol, spec.max_iters.max(1));
    let (executor, pool) = match spec.mode {
        // The simulator runs on this connection thread and polls the
        // token between chunks.
        Mode::Sim => (
            ExecutorKind::Sim(SimOptions {
                seed: spec.seed ^ 0x9e37_79b9_7f4a_7c15,
                ..SimOptions::default()
            }),
            None,
        ),
        Mode::Pooled => {
            // Lease admission: bounded wait in short slices so the token
            // stays responsive while queued.
            let admission_deadline = Instant::now()
                + Duration::from_millis(shared.cfg.admission_timeout_ms.max(1));
            let lease = loop {
                if let Some(cause) = token.should_stop() {
                    return Ok(Solved::Interrupted(cause, 0));
                }
                if let Some(l) = shared.pool.lease_timeout(workers, Duration::from_millis(10))
                {
                    break l;
                }
                if Instant::now() >= admission_deadline {
                    return Ok(Solved::Shed);
                }
            };
            let threads = ThreadedOptions { n_workers: workers, snapshot_rounds: false };
            (ExecutorKind::Threaded(threads), Some((&shared.pool, lease)))
        }
    };
    let local_iters = spec.local_iters.max(1);
    let kernel =
        AsyncJacobiKernel::new(a, rhs, &partition, local_iters, 1.0).map_err(|e| e.to_string())?;
    let solver = AsyncBlockSolver {
        local_iters,
        schedule: ScheduleKind::Recurring { seed: spec.seed },
        executor,
        damping: 1.0,
        local_sweep: Default::default(),
    };
    let session = RunSession { faults: chaos, cancel: Some(token), pool, ..RunSession::default() };
    let solved = solver
        .solve_session(a, rhs, x0, &kernel, &opts, &AllowAll, None, session)
        .map_err(|e| e.to_string())?;
    let iterations = solved.result.iterations;
    Ok(match solved.report.outcome {
        RunOutcome::Cancelled => Solved::Interrupted(CancelCause::Cancelled, iterations),
        RunOutcome::DeadlineExceeded => {
            Solved::Interrupted(CancelCause::DeadlineExceeded, iterations)
        }
        _ => Solved::Finished { result: solved.result, checks: solved.checks },
    })
}

fn record_metrics(
    shared: &Shared,
    spec: &SolveSpec,
    result: &SolveResult,
    residuals: Vec<(usize, f64)>,
) {
    let matrix = match &spec.matrix {
        MatrixSpec::Lap2d { g } => format!("lap2d-g{g}"),
        MatrixSpec::Csr { n_rows, .. } => format!("csr-{n_rows}"),
    };
    let method = match spec.mode {
        Mode::Sim => format!("sim-async-({})", spec.local_iters.max(1)),
        Mode::Pooled => format!("pooled-async-({})", spec.local_iters.max(1)),
    };
    let record = RunMetrics {
        experiment: "service".into(),
        matrix,
        method,
        iterations: result.iterations,
        converged: result.converged,
        final_residual: result.final_residual,
        residuals,
        fault: result.fault.clone(),
        ..RunMetrics::default()
    };
    let mut sink = shared.metrics.lock();
    sink.record(&record);
    sink.flush();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Client, Response, SolveSpec};

    #[test]
    fn a_panic_under_the_counters_lock_does_not_fail_later_requests() {
        let daemon = Daemon::start(DaemonConfig { workers: 1, ..DaemonConfig::default() }).unwrap();
        let shared = Arc::clone(&daemon.shared);
        let holder = std::thread::spawn(move || {
            shared.count(|_| panic!("panic while holding the counters lock"))
        });
        assert!(holder.join().is_err(), "the holder thread must have panicked");

        let reply = Client::new(daemon.addr()).solve_once(&SolveSpec::lap2d(1, 8)).unwrap();
        assert!(matches!(reply, Response::Done { converged: true, .. }), "got {reply:?}");
        let report = daemon.shutdown(Duration::from_secs(5));
        assert_eq!(report.counters.completed, 1);
        assert_eq!(report.counters.failed, 0);
    }
}
