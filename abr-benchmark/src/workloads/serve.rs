//! `serve_repeat` and `serve_ingest`: closed-loop load on an in-process
//! `abr-serve` daemon (2 pool workers, `max_inflight` 4) from 2 client
//! threads, each on one persistent connection.
//!
//! * `serve_repeat` — Lap2d g = 40 (a few bytes of matrix on the wire),
//!   tol 1e-6, in the daemon's default `sim` mode: the seeded simulated
//!   solve on the connection thread. A quarter of the requests repeat
//!   one of four hot right-hand sides the daemon solved during set-up, so
//!   they hit the result cache; the rest carry a fresh seeded right-hand
//!   side and re-solve a matrix the daemon has already seen. Pooled
//!   solves of this system are not used: about one in a thousand stops
//!   on a monitor snapshot below tol and returns an iterate just above
//!   it, so runs of the same inputs would not fail alike.
//! * `serve_ingest` — every request is a distinct explicit CSR system
//!   (random, diagonally dominant, n = 20,000, ~180k nonzeros, a ~5 MB
//!   frame), tol 1e-8, pooled with a 1-worker lease. The frame is
//!   rendered once at set-up; each request splices a unique value into
//!   one diagonal entry, so every fingerprint differs, nothing hits the
//!   cache, and the client spends no time generating systems.
//!
//! Connections stay open for the whole run: one connection per request
//! exhausts the daemon's connection threads long before a run ends,
//! because the accept loop keeps every finished connection's handle
//! until shutdown.

use super::{loop_done, set_up, Cfg, SplitMix};
use crate::api::{self, CsrMatrix, Daemon, MatrixSpec, Mode, SolveSpec};
use crate::gate::{self, Failure, Tally};
use crate::metrics::{LayerAcc, Outcome};
use crate::trace::Tracer;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

const CLIENTS: usize = 2;
const POOL_WORKERS: usize = 2;
const MAX_INFLIGHT: usize = 4;

/// Which traffic mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Repeated-matrix traffic, a quarter of it cache hits.
    Repeat,
    /// Distinct ~5 MB explicit systems, no cache hits.
    Ingest,
}

/// A request stream: frames, and the systems they ask to solve.
trait Traffic: Sync {
    /// The frame for request `i` of `client`.
    fn frame(&self, client: usize, i: u64) -> String;
    /// Name of the span around [`frame`](Self::frame).
    fn frame_span(&self) -> &'static str;
    /// The system request `i` of `client` asked to solve; `local` is the
    /// client's own copy of [`matrix`](Self::matrix).
    fn system<'s>(
        &'s self,
        local: &'s mut CsrMatrix,
        client: usize,
        i: u64,
    ) -> (&'s CsrMatrix, Vec<f64>);
    /// The matrix every request shares or is derived from.
    fn matrix(&self) -> &CsrMatrix;
    /// Requested tolerance.
    fn tol(&self) -> f64;
    /// Frames the daemon answers during set-up.
    fn warmup(&self) -> Vec<String>;
    /// Row-partition block size the requests ask for.
    fn block(&self) -> usize;
    /// Requests of each client kept for the traced replay.
    fn replay_keep(&self) -> usize;
}

fn spec(
    id: u64,
    matrix: MatrixSpec,
    rhs: Option<Vec<f64>>,
    tol: f64,
    block: usize,
    mode: Mode,
    seed: u64,
) -> SolveSpec {
    SolveSpec {
        id,
        matrix,
        rhs,
        tol,
        max_iters: 20_000,
        local_iters: 5,
        block,
        mode,
        workers: 1,
        deadline_ms: None,
        seed,
        cache: true,
    }
}

/// Request id of request `i` of `client` (client `CLIENTS` is set-up).
fn request_id(client: usize, i: u64) -> u64 {
    1_000_000_000 + client as u64 * 100_000_000 + i
}

struct RepeatTraffic {
    g: usize,
    a: CsrMatrix,
    hot: Vec<Vec<f64>>,
    seed: u64,
}

const HOT_EVERY: u64 = 4;
const HOT_RHS: usize = 4;

impl RepeatTraffic {
    fn new(g: usize, seed: u64) -> RepeatTraffic {
        let a = api::lap2d(g);
        let n = a.n_rows();
        let hot = (0..HOT_RHS)
            .map(|k| SplitMix::new(seed, 1 << 20 | k as u64).vec(n, -1.0, 1.0))
            .collect();
        RepeatTraffic { g, a, hot, seed }
    }

    /// Every `HOT_EVERY`-th request of a client repeats a hot
    /// right-hand side (which one is seeded); the rest are fresh. A fixed
    /// pattern keeps the hit share at 25% for every seed.
    fn rhs(&self, client: usize, i: u64) -> Vec<f64> {
        let mut rng = SplitMix::new(self.seed, (client as u64) << 32 | i);
        if i % HOT_EVERY == HOT_EVERY - 1 {
            self.hot[(rng.next_u64() % HOT_RHS as u64) as usize].clone()
        } else {
            rng.vec(self.a.n_rows(), -1.0, 1.0)
        }
    }

    fn render(&self, id: u64, rhs: Vec<f64>) -> String {
        let matrix = MatrixSpec::Lap2d { g: self.g };
        let spec = spec(
            id,
            matrix,
            Some(rhs),
            1e-6,
            self.block(),
            Mode::Sim,
            self.seed,
        );
        api::render_request(&spec)
    }
}

impl Traffic for RepeatTraffic {
    fn frame(&self, client: usize, i: u64) -> String {
        self.render(request_id(client, i), self.rhs(client, i))
    }
    fn frame_span(&self) -> &'static str {
        "service.wire.request_render"
    }
    fn system<'s>(
        &'s self,
        _: &'s mut CsrMatrix,
        client: usize,
        i: u64,
    ) -> (&'s CsrMatrix, Vec<f64>) {
        (&self.a, self.rhs(client, i))
    }
    fn matrix(&self) -> &CsrMatrix {
        &self.a
    }
    fn tol(&self) -> f64 {
        1e-6
    }
    fn warmup(&self) -> Vec<String> {
        let id = |k| request_id(CLIENTS, k as u64);
        self.hot
            .iter()
            .enumerate()
            .map(|(k, b)| self.render(id(k), b.clone()))
            .collect()
    }
    fn block(&self) -> usize {
        8
    }
    fn replay_keep(&self) -> usize {
        12
    }
}

struct IngestTraffic {
    a: CsrMatrix,
    template: String,
    /// Byte range of the id digits in `template`.
    id_at: (usize, usize),
    /// Byte range of the spliced diagonal value in `template`.
    diag_at: (usize, usize),
    /// Index of that diagonal entry in the CSR values.
    diag_idx: usize,
}

impl IngestTraffic {
    fn new(n: usize, seed: u64) -> Result<IngestTraffic, String> {
        let a = api::random_system(n, 8, seed);
        let matrix = MatrixSpec::Csr {
            n_rows: n,
            n_cols: n,
            row_ptr: a.row_ptr().to_vec(),
            col_idx: a.col_idx().to_vec(),
            values: a.values().to_vec(),
        };
        let placeholder = request_id(0, 0);
        let spec = spec(placeholder, matrix, None, 1e-8, 448, Mode::Pooled, seed);
        let template = api::render_request(&spec);
        let id_key = format!("\"id\":{placeholder}");
        let id_start = template
            .find(&id_key)
            .ok_or("id not in the rendered frame")?
            + 5;
        let diag_idx = a.col_idx()[..a.row_ptr()[1]]
            .iter()
            .position(|&c| c == 0)
            .ok_or("row 0 has no diagonal")?;
        let values_at = template
            .find("\"values\":[")
            .ok_or("values not in the rendered frame")?
            + 10;
        let mut start = values_at;
        for _ in 0..diag_idx {
            start += template[start..].find(',').ok_or("short values array")? + 1;
        }
        let end = start
            + template[start..]
                .find([',', ']'])
                .ok_or("unterminated values")?;
        if template[start..end].parse::<f64>().ok() != Some(a.values()[diag_idx]) {
            return Err("spliced value does not match the matrix".into());
        }
        Ok(IngestTraffic {
            a,
            id_at: (id_start, id_start + placeholder.to_string().len()),
            diag_at: (start, end),
            diag_idx,
            template,
        })
    }

    /// The unique diagonal value request `i` of `client` carries.
    fn diag(&self, client: usize, i: u64) -> f64 {
        self.a.values()[self.diag_idx] + request_id(client, i) as f64 * 1e-12
    }
}

impl Traffic for IngestTraffic {
    fn frame(&self, client: usize, i: u64) -> String {
        let t = &self.template;
        let value = api::Json::Num(self.diag(client, i)).render();
        let mut s = String::with_capacity(t.len() + 32);
        s.push_str(&t[..self.id_at.0]);
        s.push_str(&request_id(client, i).to_string());
        s.push_str(&t[self.id_at.1..self.diag_at.0]);
        s.push_str(&value);
        s.push_str(&t[self.diag_at.1..]);
        s
    }
    fn frame_span(&self) -> &'static str {
        "bench.request_splice"
    }
    fn system<'s>(
        &'s self,
        local: &'s mut CsrMatrix,
        client: usize,
        i: u64,
    ) -> (&'s CsrMatrix, Vec<f64>) {
        local.values_mut()[self.diag_idx] = self.diag(client, i);
        let b = api::mul_vec(local, &vec![1.0; local.n_rows()]).expect("square system");
        (local, b)
    }
    fn matrix(&self) -> &CsrMatrix {
        &self.a
    }
    fn tol(&self) -> f64 {
        1e-8
    }
    fn warmup(&self) -> Vec<String> {
        vec![self.frame(CLIENTS, 0)]
    }
    fn block(&self) -> usize {
        448
    }
    fn replay_keep(&self) -> usize {
        2
    }
}

/// A daemon that is drained when dropped.
struct Server(Option<Daemon>);

impl Server {
    fn daemon(&self) -> &Daemon {
        self.0.as_ref().expect("running until dropped")
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(d) = self.0.take() {
            api::stop_daemon(d);
        }
    }
}

fn connect(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let s = TcpStream::connect(addr)?;
    s.set_nodelay(true)?;
    Ok(s)
}

/// What one client thread saw.
#[derive(Default)]
struct ClientOut {
    latencies_ms: Vec<f64>,
    hit_ms: Vec<f64>,
    miss_ms: Vec<f64>,
    tally: Tally,
    frames: Vec<String>,
}

fn client_loop(
    traffic: &dyn Traffic,
    addr: SocketAddr,
    client: usize,
    cfg: &Cfg,
    tracer: &mut Tracer,
    start: Instant,
) -> ClientOut {
    let mut out = ClientOut::default();
    let mut local = traffic.matrix().clone();
    let mut buf = Vec::new();
    let mut stream = connect(addr);
    let keep = if tracer.enabled() {
        traffic.replay_keep()
    } else {
        0
    };
    let mut i = 0u64;
    while !loop_done(cfg, 5, i, start) {
        let op = (client as u64) << 32 | i;
        let t0 = Instant::now();
        tracer.open("bench.op", op);
        let frame = tracer.time(traffic.frame_span(), op, || traffic.frame(client, i));
        let reply = match &mut stream {
            Ok(s) => tracer
                .time("service.daemon.roundtrip", op, || api::roundtrip(s, &frame))
                .ok(),
            Err(_) => None,
        };
        let parsed = match reply {
            Some(p) => tracer
                .time("service.wire.response_parse", op, || {
                    api::parse_response(&p)
                })
                .map_err(|_| Failure::Transport),
            None => Err(Failure::Transport),
        };
        tracer.close();
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        if parsed.is_err() {
            stream = connect(addr);
        }
        let (a, b) = traffic.system(&mut local, client, i);
        let served = tracer.time("bench.recheck", op, || {
            gate::check_reply(&mut out.tally, &mut buf, a, &b, traffic.tol(), parsed)
        });
        out.latencies_ms.push(ms);
        match served {
            Some(true) => out.hit_ms.push(ms),
            Some(false) => out.miss_ms.push(ms),
            None => {}
        }
        if out.frames.len() < keep {
            out.frames.push(frame);
        }
        i += 1;
    }
    out
}

struct State {
    server: Server,
    traffic: Box<dyn Traffic>,
}

fn build(kind: Kind, cfg: &Cfg) -> Result<State, String> {
    let server = Server(Some(
        api::start_daemon(POOL_WORKERS, MAX_INFLIGHT).map_err(|e| format!("daemon: {e}"))?,
    ));
    let traffic: Box<dyn Traffic> = match kind {
        Kind::Repeat => Box::new(RepeatTraffic::new(
            if cfg.smoke { 16 } else { 40 },
            cfg.seed,
        )),
        Kind::Ingest => Box::new(IngestTraffic::new(
            if cfg.smoke { 2_000 } else { 20_000 },
            cfg.seed,
        )?),
    };
    let mut stream = connect(server.daemon().addr()).map_err(|e| format!("connect: {e}"))?;
    for frame in traffic.warmup() {
        let reply = api::roundtrip(&mut stream, &frame).map_err(|e| format!("warm-up: {e}"))?;
        match api::parse_response(&reply)? {
            api::Response::Done { .. } => {}
            other => return Err(format!("warm-up request answered {other:?}")),
        }
    }
    Ok(State { server, traffic })
}

pub fn run(kind: Kind, cfg: &Cfg, tracer: &mut Tracer) -> Result<Outcome, String> {
    let (state, setup_s) = set_up(cfg, || build(kind, cfg))?;
    let daemon = state.server.daemon();
    let traffic = state.traffic.as_ref();
    let before = daemon.counters();
    let start = Instant::now();
    let outs: Vec<(ClientOut, Tracer)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let mut t = tracer.for_thread(c as u32 + 1);
                let addr = daemon.addr();
                scope.spawn(move || (client_loop(traffic, addr, c, cfg, &mut t, start), t))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let timed_s = start.elapsed().as_secs_f64();
    let after = daemon.counters();

    let mut o = Outcome {
        setup_s,
        timed_s,
        tail_q: 0.9,
        ..Outcome::default()
    };
    let mut frames = Vec::new();
    for (out, t) in outs {
        tracer.absorb(t);
        o.latencies_ms.extend(out.latencies_ms);
        o.layers.hit_latency_ms.extend(out.hit_ms);
        o.layers.miss_latency_ms.extend(out.miss_ms);
        o.tally.merge(&out.tally);
        frames.extend(out.frames);
    }
    let hits = after.cache_hits - before.cache_hits;
    let completed = after.completed - before.completed;
    o.notes.push(format!(
        "daemon: {completed} completed, {hits} cache hits, {} coalesced, {} shed, {} failed",
        after.coalesced - before.coalesced,
        after.shed - before.shed,
        after.failed - before.failed
    ));
    if tracer.enabled() {
        o.layers.cache_hits = hits as f64;
        o.layers.completed = completed as f64;
        o.layers.shed = (after.shed - before.shed) as f64;
        o.layers.sent = o.tally.attempted as f64;
        replay(&frames, traffic, cfg, tracer, &mut o.layers)?;
    }
    Ok(o)
}

/// Prices the daemon's stages by replaying the kept frames through the
/// calls the daemon makes, then probes the kernel and the fused reduce
/// on the workload's matrix.
fn replay(
    frames: &[String],
    traffic: &dyn Traffic,
    cfg: &Cfg,
    tracer: &mut Tracer,
    acc: &mut LayerAcc,
) -> Result<(), String> {
    let pool = api::worker_pool(POOL_WORKERS);
    let replayed: Result<Vec<_>, String> = frames
        .iter()
        .enumerate()
        .map(|(j, frame)| {
            let op = 1 << 48 | j as u64;
            tracer.open("bench.replay", op);
            let r = api::replay_request(frame, &pool, tracer, op);
            tracer.close();
            r
        })
        .collect();
    api::stop_pool(pool);
    for r in replayed? {
        acc.parsed_bytes += r.frame_bytes as f64;
        acc.compiled_nnz += r.nnz as f64;
        acc.fingerprinted_nnz += r.nnz as f64;
        acc.fingerprinted_elems += r.vec_elems as f64;
        acc.rounds.push(("request".into(), r.iterations as f64));
        acc.runs.extend(r.run);
    }
    let a = traffic.matrix();
    let b = api::mul_vec(a, &vec![1.0; a.n_rows()])?;
    let p = api::partition(a.n_rows(), traffic.block())?;
    let budget = Duration::from_millis(if cfg.smoke { 2 } else { 100 });
    acc.kernel
        .push(api::probe_kernel(a, &b, &p, 5, None, budget)?);
    acc.fused_reduce_ns.push(api::probe_fused_reduce(p.len()));
    Ok(())
}
