//! The correctness gate: the harness re-checks every answer with the
//! exact residual and counts every failure class against the attempts.
//!
//! A failure is an answer the user cannot use: the recheck above the
//! tolerance, `converged == false`, a typed `failed`/`cancelled`/
//! `deadline_exceeded` reply, an `overloaded` reply, or a transport
//! error. A *false claim* is worse: an answer that says it converged
//! while the recheck disagrees. Failures are counted; a false claim makes
//! the run's output incorrect.

use crate::api::{relative_residual, CsrMatrix, Response};

/// Why one attempt failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Failure {
    /// The harness's own residual recheck is above the tolerance.
    ResidualAboveTol = 0,
    /// The program reported `converged == false`.
    NotConverged = 1,
    /// A typed `failed`, `cancelled` or `deadline_exceeded` reply.
    Typed = 2,
    /// An `overloaded` reply.
    Overloaded = 3,
    /// The connection failed or the reply did not parse.
    Transport = 4,
}

const CLASS_NAMES: [&str; 5] = [
    "residual_above_tol",
    "not_converged",
    "typed_failure",
    "overloaded",
    "transport",
];

/// Attempts, failures by class, and false convergence claims.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Tally {
    /// Solves or requests attempted.
    pub attempted: u64,
    /// Attempts that failed, any class.
    pub failed: u64,
    /// Answers that claimed convergence while the recheck disagreed.
    pub false_claims: u64,
    /// Failures per [`Failure`] class.
    pub by_class: [u64; 5],
}

impl Tally {
    /// Counts one attempt.
    pub fn record(&mut self, outcome: Result<(), Failure>) {
        self.attempted += 1;
        if let Err(f) = outcome {
            self.failed += 1;
            self.by_class[f as usize] += 1;
        }
    }

    /// Adds another tally's counts.
    pub fn merge(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.false_claims += other.false_claims;
        for (a, b) in self.by_class.iter_mut().zip(other.by_class) {
            *a += b;
        }
    }

    /// Share of attempts that succeeded.
    pub fn success_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            (self.attempted - self.failed) as f64 / self.attempted as f64
        }
    }

    /// One line: attempts, failures by class, false claims.
    pub fn summary(&self) -> String {
        let classes: Vec<String> = CLASS_NAMES
            .iter()
            .zip(self.by_class)
            .map(|(n, c)| format!("{n}={c}"))
            .collect();
        format!(
            "attempted={} failed={} ({}) false_claims={}",
            self.attempted,
            self.failed,
            classes.join(" "),
            self.false_claims
        )
    }
}

/// Re-checks one answer `x` to `A x = b` that did (`claimed`) or did not
/// claim convergence to `tol`, and counts it.
pub fn check_answer(
    tally: &mut Tally,
    buf: &mut Vec<f64>,
    a: &CsrMatrix,
    b: &[f64],
    x: &[f64],
    tol: f64,
    claimed: bool,
) {
    let rr = if x.len() == a.n_rows() {
        relative_residual(buf, a, b, x)
    } else {
        f64::INFINITY
    };
    let within = rr <= tol;
    if claimed && !within {
        tally.false_claims += 1;
    }
    tally.record(if !claimed {
        Err(Failure::NotConverged)
    } else if !within {
        Err(Failure::ResidualAboveTol)
    } else {
        Ok(())
    });
}

/// Classifies and counts one service reply to a solve of `A x = b`.
/// Returns whether a successful reply was served from the result cache.
pub fn check_reply(
    tally: &mut Tally,
    buf: &mut Vec<f64>,
    a: &CsrMatrix,
    b: &[f64],
    tol: f64,
    reply: Result<Response, Failure>,
) -> Option<bool> {
    match reply {
        Ok(Response::Done {
            x,
            converged,
            cached,
            ..
        }) => {
            let before = tally.failed;
            check_answer(tally, buf, a, b, &x, tol, converged);
            (tally.failed == before).then_some(cached)
        }
        Ok(Response::Overloaded { .. }) => {
            tally.record(Err(Failure::Overloaded));
            None
        }
        Ok(_) => {
            tally.record(Err(Failure::Typed));
            None
        }
        Err(f) => {
            tally.record(Err(f));
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{lap2d, mul_vec};

    fn system() -> (CsrMatrix, Vec<f64>, Vec<f64>) {
        let a = lap2d(6);
        let x = vec![1.0; 36];
        let b = mul_vec(&a, &x).unwrap();
        (a, b, x)
    }

    #[test]
    fn a_corrupted_answer_is_counted_as_a_failure_and_a_false_claim() {
        let (a, b, mut x) = system();
        let mut t = Tally::default();
        let mut buf = Vec::new();
        check_answer(&mut t, &mut buf, &a, &b, &x, 1e-10, true);
        assert_eq!((t.attempted, t.failed, t.false_claims), (1, 0, 0));
        x[7] += 1e-3;
        check_answer(&mut t, &mut buf, &a, &b, &x, 1e-10, true);
        assert_eq!((t.attempted, t.failed, t.false_claims), (2, 1, 1));
        assert_eq!(t.by_class[Failure::ResidualAboveTol as usize], 1);
        check_answer(&mut t, &mut buf, &a, &b, &x[..3], 1e-10, true);
        assert_eq!(t.failed, 2, "a truncated answer fails too");
    }

    #[test]
    fn an_honest_non_converged_answer_fails_without_a_false_claim() {
        let (a, b, x) = system();
        let mut t = Tally::default();
        check_answer(&mut t, &mut Vec::new(), &a, &b, &x, 1e-10, false);
        assert_eq!((t.failed, t.false_claims), (1, 0));
        assert_eq!(t.by_class[Failure::NotConverged as usize], 1);
    }

    #[test]
    fn every_reply_class_is_counted() {
        let (a, b, x) = system();
        let mut t = Tally::default();
        let mut buf = Vec::new();
        let done = |cached| Response::Done {
            id: 1,
            x: x.clone(),
            iterations: 3,
            converged: true,
            final_residual: 0.0,
            cached,
            coalesced: false,
            chaos: false,
        };
        assert_eq!(
            check_reply(&mut t, &mut buf, &a, &b, 1e-10, Ok(done(true))),
            Some(true)
        );
        assert_eq!(
            check_reply(&mut t, &mut buf, &a, &b, 1e-10, Ok(done(false))),
            Some(false)
        );
        let overloaded = Response::Overloaded {
            id: 1,
            retry_after_ms: 5,
        };
        assert_eq!(
            check_reply(&mut t, &mut buf, &a, &b, 1e-10, Ok(overloaded)),
            None
        );
        let failed = Response::Failed {
            id: 1,
            error: "x".into(),
        };
        assert_eq!(
            check_reply(&mut t, &mut buf, &a, &b, 1e-10, Ok(failed)),
            None
        );
        assert_eq!(
            check_reply(&mut t, &mut buf, &a, &b, 1e-10, Err(Failure::Transport)),
            None
        );
        assert_eq!((t.attempted, t.failed), (5, 3));
        assert_eq!(t.by_class, [0, 0, 1, 1, 1]);
        assert!((t.success_share() - 0.4).abs() < 1e-12);
    }
}
