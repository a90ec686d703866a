//! The wire protocol: length-prefixed JSON frames and their typed
//! request/response forms.
//!
//! Every frame is a 4-byte **big-endian** payload length followed by
//! exactly that many bytes of UTF-8 JSON (one object per frame). The
//! length prefix makes framing independent of JSON content — no
//! delimiter scanning, no partial-parse states — and bounds allocation
//! up front: a prefix larger than [`MAX_FRAME`] is rejected before any
//! payload is read, so a malformed or hostile client cannot balloon the
//! daemon. See DESIGN.md §10 for the frame table.

use crate::json::{num_arr, obj, usize_arr, Value};
use std::io::{self, Read, Write};

/// Hard ceiling on a frame payload (64 MiB): large enough for a
/// several-million-nonzero CSR matrix in JSON, small enough that a bad
/// length prefix cannot trigger a giant allocation.
pub const MAX_FRAME: usize = 64 << 20;

/// Writes one frame (length prefix + payload).
pub fn write_frame(w: &mut impl Write, payload: &str) -> io::Result<()> {
    let bytes = payload.as_bytes();
    if bytes.len() > MAX_FRAME {
        return Err(io::Error::new(io::ErrorKind::InvalidInput, "frame too large"));
    }
    w.write_all(&(bytes.len() as u32).to_be_bytes())?;
    w.write_all(bytes)?;
    w.flush()
}

/// Reads one frame. Returns `Ok(None)` on clean EOF at a frame boundary
/// (the peer closed between requests — not an error).
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<String>> {
    let mut len_buf = [0u8; 4];
    match r.read_exact(&mut len_buf) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds cap {MAX_FRAME}"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    String::from_utf8(payload)
        .map(Some)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "frame is not UTF-8"))
}

/// How a request's system reaches the daemon.
#[derive(Debug, Clone, PartialEq)]
pub enum MatrixSpec {
    /// The workspace generator's 2D 5-point Laplacian on a `g` x `g`
    /// grid — a few bytes on the wire instead of a serialized matrix,
    /// and reproducible client-side for bit-identity checks.
    Lap2d {
        /// Grid side length (the system has `g*g` rows).
        g: usize,
    },
    /// An explicit CSR triplet (arbitrary ingested systems).
    Csr {
        /// Row count.
        n_rows: usize,
        /// Column count.
        n_cols: usize,
        /// CSR row pointers (`n_rows + 1` entries).
        row_ptr: Vec<usize>,
        /// CSR column indices.
        col_idx: Vec<usize>,
        /// CSR values.
        values: Vec<f64>,
    },
}

impl MatrixSpec {
    /// Row count of the described system.
    pub fn n_rows(&self) -> usize {
        match self {
            MatrixSpec::Lap2d { g } => g * g,
            MatrixSpec::Csr { n_rows, .. } => *n_rows,
        }
    }

    fn to_value(&self) -> Value {
        match self {
            MatrixSpec::Lap2d { g } => obj(vec![
                ("gen", Value::Str("lap2d".into())),
                ("g", Value::Num(*g as f64)),
            ]),
            MatrixSpec::Csr { n_rows, n_cols, row_ptr, col_idx, values } => obj(vec![
                ("n_rows", Value::Num(*n_rows as f64)),
                ("n_cols", Value::Num(*n_cols as f64)),
                ("row_ptr", usize_arr(row_ptr)),
                ("col_idx", usize_arr(col_idx)),
                ("values", num_arr(values)),
            ]),
        }
    }

    fn from_value(v: &Value) -> Result<MatrixSpec, String> {
        if let Some(kind) = v.get("gen").and_then(Value::as_str) {
            return match kind {
                "lap2d" => {
                    let g = v
                        .get("g")
                        .and_then(Value::as_u64)
                        .ok_or("lap2d needs integer `g`")? as usize;
                    Ok(MatrixSpec::Lap2d { g })
                }
                other => Err(format!("unknown generator `{other}`")),
            };
        }
        let field = |k: &str| v.get(k).ok_or_else(|| format!("matrix missing `{k}`"));
        Ok(MatrixSpec::Csr {
            n_rows: field("n_rows")?.as_u64().ok_or("bad n_rows")? as usize,
            n_cols: field("n_cols")?.as_u64().ok_or("bad n_cols")? as usize,
            row_ptr: field("row_ptr")?.as_usize_vec().ok_or("bad row_ptr")?,
            col_idx: field("col_idx")?.as_usize_vec().ok_or("bad col_idx")?,
            values: field("values")?.as_f64_vec().ok_or("bad values")?,
        })
    }
}

/// Which execution fabric serves the request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Seeded discrete-event simulation on the connection thread —
    /// deterministic, so a cached or repeated solve is bit-identical. A
    /// deadline or cancel stops it at its next residual check, every ten
    /// global iterations.
    Sim,
    /// Real threads leased from the daemon's shared worker pool —
    /// nondeterministic interleaving, converges to tolerance. A deadline
    /// or cancel stops it within one monitor poll.
    Pooled,
}

impl Mode {
    fn as_str(self) -> &'static str {
        match self {
            Mode::Sim => "sim",
            Mode::Pooled => "pooled",
        }
    }

    fn parse(s: &str) -> Result<Mode, String> {
        match s {
            "sim" => Ok(Mode::Sim),
            "pooled" => Ok(Mode::Pooled),
            other => Err(format!("unknown mode `{other}`")),
        }
    }
}

/// One solve request.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveSpec {
    /// Client-chosen request id; the handle for `cancel` and the echo
    /// key in every reply.
    pub id: u64,
    /// The system matrix.
    pub matrix: MatrixSpec,
    /// Right-hand side; `None` means `b = A·1` (exact solution = ones).
    pub rhs: Option<Vec<f64>>,
    /// Relative-residual stopping tolerance.
    pub tol: f64,
    /// Global iteration budget.
    pub max_iters: usize,
    /// Inner sweeps per block update (the paper's `k` in async-(k)).
    pub local_iters: usize,
    /// Row-partition block size.
    pub block: usize,
    /// Execution fabric.
    pub mode: Mode,
    /// Requested lease size for [`Mode::Pooled`] (clamped to the pool).
    pub workers: usize,
    /// Per-request deadline, milliseconds from admission.
    pub deadline_ms: Option<u64>,
    /// RNG seed for [`Mode::Sim`] scheduling.
    pub seed: u64,
    /// Whether the daemon may serve/populate its result cache.
    pub cache: bool,
}

impl SolveSpec {
    /// A small, fully-defaulted spec for tests and examples.
    pub fn lap2d(id: u64, g: usize) -> SolveSpec {
        SolveSpec {
            id,
            matrix: MatrixSpec::Lap2d { g },
            rhs: None,
            tol: 1e-9,
            max_iters: 20_000,
            local_iters: 5,
            block: 8,
            mode: Mode::Sim,
            workers: 2,
            deadline_ms: None,
            seed: 42,
            cache: true,
        }
    }
}

/// A client → daemon frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Run a solve.
    Solve(SolveSpec),
    /// Cancel the in-flight solve with this id (from any connection).
    Cancel {
        /// The id the solve was submitted under.
        id: u64,
    },
    /// Liveness probe.
    Ping,
    /// Begin graceful drain (the SIGTERM-style frame).
    Shutdown,
}

impl Request {
    /// Renders the frame payload.
    pub fn render(&self) -> String {
        match self {
            Request::Ping => obj(vec![("type", Value::Str("ping".into()))]).render(),
            Request::Shutdown => obj(vec![("type", Value::Str("shutdown".into()))]).render(),
            Request::Cancel { id } => obj(vec![
                ("type", Value::Str("cancel".into())),
                ("id", Value::Num(*id as f64)),
            ])
            .render(),
            Request::Solve(s) => {
                let mut fields = vec![
                    ("type", Value::Str("solve".into())),
                    ("id", Value::Num(s.id as f64)),
                    ("matrix", s.matrix.to_value()),
                    ("tol", Value::Num(s.tol)),
                    ("max_iters", Value::Num(s.max_iters as f64)),
                    ("local_iters", Value::Num(s.local_iters as f64)),
                    ("block", Value::Num(s.block as f64)),
                    ("mode", Value::Str(s.mode.as_str().into())),
                    ("workers", Value::Num(s.workers as f64)),
                    ("seed", Value::Num(s.seed as f64)),
                    ("cache", Value::Bool(s.cache)),
                ];
                if let Some(rhs) = &s.rhs {
                    fields.push(("rhs", num_arr(rhs)));
                }
                if let Some(d) = s.deadline_ms {
                    fields.push(("deadline_ms", Value::Num(d as f64)));
                }
                obj(fields).render()
            }
        }
    }

    /// Parses a frame payload.
    pub fn parse(payload: &str) -> Result<Request, String> {
        let v = Value::parse(payload)?;
        let ty = v.get("type").and_then(Value::as_str).ok_or("frame missing `type`")?;
        match ty {
            "ping" => Ok(Request::Ping),
            "shutdown" => Ok(Request::Shutdown),
            "cancel" => Ok(Request::Cancel {
                id: v.get("id").and_then(Value::as_u64).ok_or("cancel needs `id`")?,
            }),
            "solve" => {
                let num = |k: &str| v.get(k).and_then(Value::as_u64);
                Ok(Request::Solve(SolveSpec {
                    id: num("id").ok_or("solve needs `id`")?,
                    matrix: MatrixSpec::from_value(
                        v.get("matrix").ok_or("solve needs `matrix`")?,
                    )?,
                    rhs: match v.get("rhs") {
                        Some(r) => Some(r.as_f64_vec().ok_or("bad rhs")?),
                        None => None,
                    },
                    tol: v.get("tol").and_then(Value::as_f64).ok_or("solve needs `tol`")?,
                    max_iters: num("max_iters").ok_or("solve needs `max_iters`")? as usize,
                    local_iters: num("local_iters").unwrap_or(1) as usize,
                    block: num("block").ok_or("solve needs `block`")? as usize,
                    mode: Mode::parse(
                        v.get("mode").and_then(Value::as_str).unwrap_or("sim"),
                    )?,
                    workers: num("workers").unwrap_or(1) as usize,
                    deadline_ms: num("deadline_ms"),
                    seed: num("seed").unwrap_or(0),
                    cache: v.get("cache").and_then(Value::as_bool).unwrap_or(true),
                }))
            }
            other => Err(format!("unknown request type `{other}`")),
        }
    }
}

/// A daemon → client frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The solve finished.
    Done {
        /// Echoed request id.
        id: u64,
        /// Solution vector.
        x: Vec<f64>,
        /// Iterations performed.
        iterations: usize,
        /// Whether the tolerance was reached.
        converged: bool,
        /// Final relative residual.
        final_residual: f64,
        /// Served from the result cache without solving.
        cached: bool,
        /// Coalesced onto an identical in-flight solve (single-flight).
        coalesced: bool,
        /// Chaos faults were injected into this request (`--chaos`).
        chaos: bool,
    },
    /// Shed by admission control; retry after the hinted delay.
    Overloaded {
        /// Echoed request id.
        id: u64,
        /// Backoff hint from the daemon's recent-solve-time estimate.
        retry_after_ms: u64,
    },
    /// Client cancellation observed mid-solve.
    Cancelled {
        /// Echoed request id.
        id: u64,
        /// Partial global iterations at the stop.
        iterations: usize,
    },
    /// The per-request deadline expired mid-solve.
    DeadlineExceeded {
        /// Echoed request id.
        id: u64,
        /// Partial global iterations at the stop.
        iterations: usize,
    },
    /// The request failed (validation, non-convergence, contained
    /// panic); the daemon itself is fine.
    Failed {
        /// Echoed request id.
        id: u64,
        /// Human-readable cause.
        error: String,
    },
    /// Acknowledgement for `cancel`.
    Ok,
    /// Reply to `ping`.
    Pong,
    /// The daemon is draining and accepts no new solves.
    ShuttingDown,
}

impl Response {
    /// Renders the frame payload.
    pub fn render(&self) -> String {
        let tagged = |t: &str, rest: Vec<(&str, Value)>| {
            let mut fields = vec![("type", Value::Str(t.into()))];
            fields.extend(rest);
            obj(fields).render()
        };
        match self {
            Response::Ok => tagged("ok", vec![]),
            Response::Pong => tagged("pong", vec![]),
            Response::ShuttingDown => tagged("shutting_down", vec![]),
            Response::Overloaded { id, retry_after_ms } => tagged(
                "overloaded",
                vec![
                    ("id", Value::Num(*id as f64)),
                    ("retry_after_ms", Value::Num(*retry_after_ms as f64)),
                ],
            ),
            Response::Cancelled { id, iterations } => tagged(
                "cancelled",
                vec![
                    ("id", Value::Num(*id as f64)),
                    ("iterations", Value::Num(*iterations as f64)),
                ],
            ),
            Response::DeadlineExceeded { id, iterations } => tagged(
                "deadline_exceeded",
                vec![
                    ("id", Value::Num(*id as f64)),
                    ("iterations", Value::Num(*iterations as f64)),
                ],
            ),
            Response::Failed { id, error } => tagged(
                "failed",
                vec![("id", Value::Num(*id as f64)), ("error", Value::Str(error.clone()))],
            ),
            Response::Done { id, x, iterations, converged, final_residual, cached, coalesced, chaos } => {
                tagged(
                    "done",
                    vec![
                        ("id", Value::Num(*id as f64)),
                        ("iterations", Value::Num(*iterations as f64)),
                        ("converged", Value::Bool(*converged)),
                        ("final_residual", Value::Num(*final_residual)),
                        ("cached", Value::Bool(*cached)),
                        ("coalesced", Value::Bool(*coalesced)),
                        ("chaos", Value::Bool(*chaos)),
                        ("x", num_arr(x)),
                    ],
                )
            }
        }
    }

    /// Parses a frame payload.
    pub fn parse(payload: &str) -> Result<Response, String> {
        let v = Value::parse(payload)?;
        let ty = v.get("type").and_then(Value::as_str).ok_or("frame missing `type`")?;
        let id = || v.get("id").and_then(Value::as_u64).ok_or("missing `id`");
        let iters =
            || v.get("iterations").and_then(Value::as_u64).map(|u| u as usize).ok_or("missing `iterations`");
        match ty {
            "ok" => Ok(Response::Ok),
            "pong" => Ok(Response::Pong),
            "shutting_down" => Ok(Response::ShuttingDown),
            "overloaded" => Ok(Response::Overloaded {
                id: id()?,
                retry_after_ms: v
                    .get("retry_after_ms")
                    .and_then(Value::as_u64)
                    .ok_or("overloaded needs `retry_after_ms`")?,
            }),
            "cancelled" => Ok(Response::Cancelled { id: id()?, iterations: iters()? }),
            "deadline_exceeded" => {
                Ok(Response::DeadlineExceeded { id: id()?, iterations: iters()? })
            }
            "failed" => Ok(Response::Failed {
                id: id()?,
                error: v
                    .get("error")
                    .and_then(Value::as_str)
                    .ok_or("failed needs `error`")?
                    .to_string(),
            }),
            "done" => Ok(Response::Done {
                id: id()?,
                iterations: iters()?,
                converged: v.get("converged").and_then(Value::as_bool).ok_or("missing `converged`")?,
                final_residual: v
                    .get("final_residual")
                    .and_then(Value::as_f64)
                    .unwrap_or(f64::NAN),
                cached: v.get("cached").and_then(Value::as_bool).unwrap_or(false),
                coalesced: v.get("coalesced").and_then(Value::as_bool).unwrap_or(false),
                chaos: v.get("chaos").and_then(Value::as_bool).unwrap_or(false),
                x: v.get("x").and_then(Value::as_f64_vec).ok_or("missing `x`")?,
            }),
            other => Err(format!("unknown response type `{other}`")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_through_a_byte_stream() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "hello").unwrap();
        write_frame(&mut buf, "{\"a\":1}").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), "hello");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), "{\"a\":1}");
        assert_eq!(read_frame(&mut r).unwrap(), None, "clean EOF is Ok(None)");
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_be_bytes());
        buf.extend_from_slice(b"whatever");
        assert!(read_frame(&mut &buf[..]).unwrap_err().to_string().contains("exceeds cap"));
    }

    #[test]
    fn requests_round_trip() {
        let mut spec = SolveSpec::lap2d(7, 8);
        spec.rhs = Some(vec![1.0, -2.5]);
        spec.deadline_ms = Some(250);
        spec.mode = Mode::Pooled;
        for req in [
            Request::Solve(spec),
            Request::Cancel { id: 9 },
            Request::Ping,
            Request::Shutdown,
        ] {
            assert_eq!(Request::parse(&req.render()).unwrap(), req, "{req:?}");
        }
    }

    #[test]
    fn responses_round_trip() {
        for resp in [
            Response::Done {
                id: 3,
                x: vec![1.0, 0.1 + 0.2],
                iterations: 120,
                converged: true,
                final_residual: 3.2e-10,
                cached: true,
                coalesced: false,
                chaos: false,
            },
            Response::Overloaded { id: 4, retry_after_ms: 35 },
            Response::Cancelled { id: 5, iterations: 17 },
            Response::DeadlineExceeded { id: 6, iterations: 90 },
            Response::Failed { id: 7, error: "bad \"matrix\"".into() },
            Response::Ok,
            Response::Pong,
            Response::ShuttingDown,
        ] {
            assert_eq!(Response::parse(&resp.render()).unwrap(), resp, "{resp:?}");
        }
    }

    #[test]
    fn explicit_csr_matrices_survive_the_wire() {
        let m = MatrixSpec::Csr {
            n_rows: 2,
            n_cols: 2,
            row_ptr: vec![0, 1, 2],
            col_idx: vec![0, 1],
            values: vec![4.0, 4.0],
        };
        let req = Request::Solve(SolveSpec { matrix: m, ..SolveSpec::lap2d(1, 2) });
        assert_eq!(Request::parse(&req.render()).unwrap(), req);
    }

    /// A solve frame exercising every field, explicit CSR included. The
    /// counts have two digits, so one flipped byte can make them negative.
    fn solve_frame() -> String {
        let matrix = MatrixSpec::Csr {
            n_rows: 12,
            n_cols: 12,
            row_ptr: (0..=12).collect(),
            col_idx: (0..12).collect(),
            values: vec![4.0; 12],
        };
        let spec = SolveSpec {
            matrix,
            rhs: Some(vec![-2.5; 12]),
            deadline_ms: Some(250),
            ..SolveSpec::lap2d(17, 2)
        };
        Request::Solve(spec).render()
    }

    #[test]
    fn every_truncated_solve_frame_is_an_error() {
        let frame = solve_frame();
        assert!(Request::parse(&frame).is_ok());
        for end in 0..frame.len() {
            assert!(Request::parse(&frame[..end]).is_err(), "accepted {:?}", &frame[..end]);
        }
    }

    #[test]
    fn every_single_byte_mutation_of_a_solve_frame_parses_without_panicking() {
        let frame = solve_frame().into_bytes();
        for i in 0..frame.len() {
            for byte in 0..=u8::MAX {
                let mut bytes = frame.clone();
                bytes[i] = byte;
                // `read_frame` rejects non-UTF-8 payloads before they parse.
                if let Ok(text) = std::str::from_utf8(&bytes) {
                    let _ = Request::parse(text);
                }
            }
        }
    }
}
