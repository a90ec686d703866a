//! End-to-end soak tests for the solve-service daemon: many concurrent
//! tenants multiplexed onto one shared worker pool, exercising the full
//! robustness surface — admission shedding, deadlines, cancellation,
//! chaos faults, the result cache, and graceful drain with structural
//! zero-leaked-thread accounting.
//!
//! Determinism notes: sim-mode requests are bit-identical to a local
//! single-tenant solve (same seeds, same schedule), so the soak can
//! assert exact equality across the wire. Interrupt paths use
//! `tol = 1e-30` (unreachable) so the solve *cannot* end on its own —
//! only the cancel token (deadline or cancel frame) can stop it, which
//! makes the expected response type deterministic.

use abr_core::{AsyncBlockSolver, ExecutorKind, ScheduleKind, SolveOptions};
use abr_gpu::SimOptions;
use abr_service::wire::{read_frame, write_frame};
use abr_service::{
    ChaosConfig, Client, Daemon, DaemonConfig, MatrixSpec, Mode, Request, Response,
    RetryPolicy, SolveSpec,
};
use abr_sparse::{gen, RowPartition};
use std::net::TcpStream;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Replicates the daemon's sim-mode solve locally: the single-tenant
/// reference a multiplexed request must match bit-for-bit.
fn local_sim_solve(spec: &SolveSpec) -> (Vec<f64>, usize) {
    let a = match &spec.matrix {
        MatrixSpec::Lap2d { g } => gen::laplacian_2d_5pt(*g),
        MatrixSpec::Csr { .. } => unreachable!("tests use generated systems"),
    };
    let n = a.n_rows();
    let rhs = match &spec.rhs {
        Some(r) => r.clone(),
        None => a.mul_vec(&vec![1.0; n]).unwrap(),
    };
    let x0 = vec![0.0; n];
    let partition = RowPartition::uniform(n, spec.block.clamp(1, n)).unwrap();
    let opts = SolveOptions::to_tolerance(spec.tol, spec.max_iters.max(1));
    let solver = AsyncBlockSolver {
        local_iters: spec.local_iters.max(1),
        schedule: ScheduleKind::Recurring { seed: spec.seed },
        executor: ExecutorKind::Sim(SimOptions {
            seed: spec.seed ^ 0x9e37_79b9_7f4a_7c15,
            ..SimOptions::default()
        }),
        damping: 1.0,
        local_sweep: Default::default(),
    };
    let r = solver.solve(&a, &rhs, &x0, &partition, &opts).unwrap();
    (r.x, r.iterations)
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn sim_spec(id: u64, g: usize, seed: u64, k: usize) -> SolveSpec {
    SolveSpec {
        seed,
        local_iters: k,
        ..SolveSpec::lap2d(id, g)
    }
}

/// A pooled request that can never converge (`tol = 1e-30`): only its
/// cancel token — deadline or cancel frame — can end it.
fn unconvergeable(id: u64, g: usize, deadline_ms: u64) -> SolveSpec {
    SolveSpec {
        mode: Mode::Pooled,
        workers: 1,
        tol: 1e-30,
        max_iters: 100_000_000,
        deadline_ms: Some(deadline_ms),
        cache: false,
        ..SolveSpec::lap2d(id, g)
    }
}

/// The acceptance soak: 8 concurrent tenants of mixed size and mode —
/// sim tenants checked bit-identical against their single-tenant solve,
/// pooled tenants to tolerance, one chaos-faulted, one cancelled, one
/// deadline-bound — all on ONE daemon with ONE 3-thread pool; then a
/// deterministic saturation phase asserting shed + retry_after_ms; then
/// post-interrupt pool health and drain accounting.
#[test]
fn soak_eight_concurrent_tenants_on_one_pool() {
    // Chaos kills every non-zero worker of any multi-worker pooled
    // request; single-worker pooled requests are structurally unfaultable
    // (worker 0 is always spared), which makes "the one chaos tenant"
    // deterministic: it is exactly the workers=3 request.
    let daemon = Daemon::start(DaemonConfig {
        workers: 3,
        max_inflight: 8,
        admission_timeout_ms: 2_000,
        max_rows: 1_000,
        chaos: Some(ChaosConfig {
            p_kill: 1.0,
            p_hang: 0.0,
            p_poison: 0.0,
            recovery: 10,
            seed: 0xc4a05,
        }),
        ..DaemonConfig::default()
    })
    .unwrap();
    let addr = daemon.addr();

    // Phase 0: liveness + typed rejection (retrying cannot help an
    // oversized system, so it must NOT be Overloaded).
    assert_eq!(Client::new(addr).ping().unwrap(), Response::Pong);
    match Client::new(addr).solve_once(&SolveSpec::lap2d(90, 40)).unwrap() {
        Response::Failed { id, error } => {
            assert_eq!(id, 90);
            assert!(error.contains("max_rows"), "typed admission error, got {error}");
        }
        other => panic!("1600 rows over a 1000-row cap must be a typed Failed, got {other:?}"),
    }

    // Phase 1: the 8-tenant concurrent wave.
    let sims = [sim_spec(1, 8, 42, 5), sim_spec(2, 10, 7, 1), sim_spec(3, 12, 9, 5)];
    let pooled_small = SolveSpec {
        mode: Mode::Pooled,
        workers: 1,
        tol: 1e-8,
        cache: false,
        ..SolveSpec::lap2d(4, 8)
    };
    let pooled_mid = SolveSpec { id: 5, matrix: MatrixSpec::Lap2d { g: 10 }, ..pooled_small.clone() };
    let chaos_tenant = SolveSpec {
        mode: Mode::Pooled,
        workers: 3,
        tol: 1e-8,
        cache: false,
        ..SolveSpec::lap2d(6, 8)
    };
    let cancel_tenant = unconvergeable(7, 16, 5_000); // deadline is a backstop; cancel lands first
    let deadline_tenant = unconvergeable(8, 16, 150);

    std::thread::scope(|s| {
        let sim_handles: Vec<_> = sims
            .iter()
            .map(|spec| s.spawn(move || Client::new(addr).solve_once(spec).unwrap()))
            .collect();
        let h4 = s.spawn(|| Client::new(addr).solve_once(&pooled_small).unwrap());
        let h5 = s.spawn(|| Client::new(addr).solve_once(&pooled_mid).unwrap());
        let h6 = s.spawn(|| Client::new(addr).solve_once(&chaos_tenant).unwrap());
        let h8 = s.spawn(|| Client::new(addr).solve_once(&deadline_tenant).unwrap());
        let (tx, rx) = mpsc::channel();
        let cancel_spec = &cancel_tenant;
        s.spawn(move || tx.send(Client::new(addr).solve_once(cancel_spec)).unwrap());

        // Cancel tenant 7 from a *different* connection. The cancel frame
        // may race the solve's registration, so resend until the solve
        // answers; cancellation is idempotent.
        let canceller = Client::new(addr);
        let resp7 = {
            let mut tries = 0;
            loop {
                match rx.recv_timeout(Duration::from_millis(50)) {
                    Ok(r) => break r.unwrap(),
                    Err(mpsc::RecvTimeoutError::Timeout) => {
                        tries += 1;
                        assert!(tries < 100, "cancel never landed");
                        let _ = canceller.cancel(7).unwrap();
                    }
                    Err(e) => panic!("cancel tenant channel died: {e}"),
                }
            }
        };
        match resp7 {
            Response::Cancelled { id, iterations } => {
                assert_eq!(id, 7);
                assert!(iterations < cancel_tenant.max_iters, "must be a partial stop");
            }
            other => panic!("tenant 7 must end Cancelled, got {other:?}"),
        }

        // Every sim tenant: bit-identical to its single-tenant solve.
        for (spec, h) in sims.iter().zip(sim_handles) {
            let (x_ref, iters_ref) = local_sim_solve(spec);
            match h.join().unwrap() {
                Response::Done { id, x, iterations, converged, chaos, .. } => {
                    assert_eq!(id, spec.id);
                    assert!(converged, "sim tenant {id} must converge");
                    assert!(!chaos, "sim tenants are never chaos-faulted");
                    assert_eq!(iterations, iters_ref, "tenant {id} iteration count");
                    assert_eq!(
                        bits(&x),
                        bits(&x_ref),
                        "tenant {id}: multiplexed solve must be bit-identical to its \
                         single-tenant solve"
                    );
                }
                other => panic!("sim tenant {} must finish, got {other:?}", spec.id),
            }
        }

        // Pooled single-worker tenants: to tolerance, unfaulted.
        for (spec, h) in [(&pooled_small, h4), (&pooled_mid, h5)] {
            match h.join().unwrap() {
                Response::Done { id, converged, final_residual, chaos, .. } => {
                    assert_eq!(id, spec.id);
                    assert!(!chaos, "single-worker pooled tenants are unfaultable");
                    assert!(converged && final_residual <= spec.tol, "tenant {id} to tolerance");
                }
                other => panic!("pooled tenant {} must finish, got {other:?}", spec.id),
            }
        }

        // The chaos tenant: workers 1 and 2 are killed mid-solve. The
        // outage is contained — recovery adopts the orphaned shards and
        // the request is answered with a typed frame flagged `chaos`,
        // the daemon and its pool unharmed. (An orphan's backlog replays
        // *after* the survivor drains its own budget — §4.5 budget
        // semantics — so a tight tolerance is not guaranteed under a
        // mid-solve kill; containment, not convergence, is the contract.)
        match h6.join().unwrap() {
            Response::Done { id, iterations, chaos, .. } => {
                assert_eq!(id, 6);
                assert!(chaos, "the workers=3 tenant must have been chaos-faulted");
                assert!(iterations > 0, "the faulted solve still made progress");
            }
            other => panic!("chaos tenant must get a typed answer, got {other:?}"),
        }

        // The deadline tenant: its 150ms budget expires while the solve
        // is either leased or queued; either way the typed answer is
        // DeadlineExceeded, never a hang or a generic failure.
        match h8.join().unwrap() {
            Response::DeadlineExceeded { id, .. } => assert_eq!(id, 8),
            other => panic!("tenant 8 must end DeadlineExceeded, got {other:?}"),
        }
    });

    // Phase 2: deterministic saturation. Eight unconvergeable blockers
    // fill every admission slot (three leased, five queued-for-lease —
    // queued requests count against the bound too); a ninth request must
    // be shed with a structured retry hint.
    let admitted_before = daemon.counters().admitted;
    std::thread::scope(|s| {
        let blockers: Vec<_> = (100..108)
            .map(|id| {
                let spec = unconvergeable(id, 12, 800);
                s.spawn(move || Client::new(addr).solve_once(&spec).unwrap())
            })
            .collect();

        let t0 = Instant::now();
        while daemon.counters().admitted - admitted_before < 8 {
            assert!(t0.elapsed() < Duration::from_secs(5), "blockers never all admitted");
            std::thread::sleep(Duration::from_millis(2));
        }
        match Client::new(addr).solve_once(&sim_spec(200, 4, 1, 5)).unwrap() {
            Response::Overloaded { id, retry_after_ms } => {
                assert_eq!(id, 200);
                assert!(retry_after_ms >= 10, "shed must carry a usable retry hint");
            }
            other => panic!("request into a full daemon must be shed, got {other:?}"),
        }

        // The client retry loop rides the hint: backoff past the
        // blockers' deadlines and the same request is admitted.
        let mut retrier = Client::with_policy(
            addr,
            RetryPolicy {
                max_retries: 12,
                base_backoff_ms: 30,
                max_backoff_ms: 250,
                jitter_seed: 11,
            },
        );
        match retrier.solve(&sim_spec(201, 4, 1, 5)).unwrap() {
            Response::Done { id, converged, .. } => {
                assert_eq!(id, 201);
                assert!(converged);
            }
            other => panic!("retry must outlive the overload, got {other:?}"),
        }

        for h in blockers {
            match h.join().unwrap() {
                Response::DeadlineExceeded { .. } => {}
                other => panic!("blockers can only end by deadline, got {other:?}"),
            }
        }
    });

    // Phase 3: the interrupted tenants must have freed their leases —
    // the pool serves fresh requests at the fault-free tolerance again.
    // Three concurrent single-worker requests (structurally unfaultable:
    // worker 0 is always spared and chaos only samples workers 1..n)
    // sweep every pool slot back into service.
    let health: Vec<SolveSpec> = (300..303)
        .map(|id| SolveSpec {
            mode: Mode::Pooled,
            workers: 1,
            tol: 1e-8,
            cache: false,
            ..SolveSpec::lap2d(id, 10)
        })
        .collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = health
            .iter()
            .map(|spec| s.spawn(move || Client::new(addr).solve_once(spec).unwrap()))
            .collect();
        for (spec, h) in health.iter().zip(handles) {
            match h.join().unwrap() {
                Response::Done { id, converged, final_residual, chaos, .. } => {
                    assert_eq!(id, spec.id);
                    assert!(!chaos);
                    assert!(
                        converged && final_residual <= spec.tol,
                        "post-interrupt pool must solve at the fault-free tolerance"
                    );
                }
                other => panic!("post-interrupt solve must converge, got {other:?}"),
            }
        }
    });

    // Cache check: re-issuing tenant 1's exact system under a new id is
    // served from the cache, bit-identical.
    let (x_ref, _) = local_sim_solve(&sims[0]);
    match Client::new(addr).solve_once(&SolveSpec { id: 400, ..sims[0].clone() }).unwrap() {
        Response::Done { cached, x, .. } => {
            assert!(cached, "identical re-issue must be a cache hit");
            assert_eq!(bits(&x), bits(&x_ref), "cached result must be bit-identical");
        }
        other => panic!("cache re-issue must finish, got {other:?}"),
    }

    // Drain: structural zero-leaked-threads accounting. Every pool
    // worker joins (exactly the configured 3) and every connection
    // thread joins.
    let counters = daemon.counters();
    assert!(counters.shed >= 1, "the saturation probe was shed");
    assert_eq!(counters.cancelled, 1, "exactly tenant 7 was cancelled");
    assert_eq!(counters.deadline_exceeded, 9, "tenant 8 plus the 8 blockers");
    assert!(counters.completed >= 10, "all surviving tenants answered: {counters:?}");
    assert!(counters.cache_hits >= 1);
    assert!(counters.failed >= 1, "the oversized request failed typed");
    let report = daemon.shutdown(Duration::from_secs(5));
    assert_eq!(report.workers_joined, 3, "every pool worker must be joined at drain");
    assert!(report.connections_joined > 0);
}

/// Satellite 3 end-to-end: a deadline expiring mid-solve yields a
/// DeadlineExceeded with *partial* iterations, the leased shards come
/// back, and the same pool then converges a normal request. Drain is
/// triggered by the wire `shutdown` frame (the SIGTERM path).
#[test]
fn deadline_expires_mid_solve_and_pool_recovers() {
    let daemon = Daemon::start(DaemonConfig { workers: 2, ..DaemonConfig::default() }).unwrap();
    let addr = daemon.addr();

    // Uncontended 2-worker lease: the solve is definitely *running* (not
    // queued) when the 150ms deadline fires, so the partial iteration
    // count must be positive.
    let doomed = SolveSpec { workers: 2, ..unconvergeable(1, 16, 150) };
    let t0 = Instant::now();
    match Client::new(addr).solve_once(&doomed).unwrap() {
        Response::DeadlineExceeded { id, iterations } => {
            assert_eq!(id, 1);
            assert!(iterations > 0, "deadline fired mid-solve: partial progress expected");
            assert!(iterations < doomed.max_iters);
        }
        other => panic!("unconvergeable solve must deadline out, got {other:?}"),
    }
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "the deadline must actually bound the request"
    );

    // Shards released: a fresh full-pool solve on the same daemon.
    let healthy = SolveSpec {
        mode: Mode::Pooled,
        workers: 2,
        tol: 1e-8,
        cache: false,
        ..SolveSpec::lap2d(2, 10)
    };
    match Client::new(addr).solve_once(&healthy).unwrap() {
        Response::Done { converged, final_residual, .. } => {
            assert!(converged && final_residual <= healthy.tol);
        }
        other => panic!("post-deadline solve must converge, got {other:?}"),
    }

    assert_eq!(Client::new(addr).shutdown_daemon().unwrap(), Response::ShuttingDown);
    assert!(daemon.shutdown_requested(), "the shutdown frame begins the drain");
    let report = daemon.shutdown(Duration::from_secs(5));
    assert_eq!(report.workers_joined, 2);
    assert_eq!(report.counters.deadline_exceeded, 1);
}

/// A sim request that cannot converge (`tol = 1e-30`) within its
/// 200,000-iteration budget: only its cancel token can end it early.
fn endless_sim(id: u64, deadline_ms: Option<u64>) -> SolveSpec {
    SolveSpec {
        tol: 1e-30,
        max_iters: 200_000,
        deadline_ms,
        cache: false,
        ..SolveSpec::lap2d(id, 16)
    }
}

/// A sim solve polls its token between chunks: a 150 ms deadline ends it
/// `DeadlineExceeded` with partial progress well inside two seconds, and
/// a `cancel` frame from another connection ends a second one
/// `Cancelled`.
#[test]
fn sim_requests_honour_deadline_and_cancel() {
    let daemon = Daemon::start(DaemonConfig { workers: 1, ..DaemonConfig::default() }).unwrap();
    let addr = daemon.addr();

    let doomed = endless_sim(1, Some(150));
    let t0 = Instant::now();
    match Client::new(addr).solve_once(&doomed).unwrap() {
        Response::DeadlineExceeded { id, iterations } => {
            assert_eq!(id, 1);
            assert!(iterations > 0, "deadline fired mid-solve: partial progress expected");
            assert!(iterations < doomed.max_iters, "must be a partial stop: {iterations}");
        }
        other => panic!("the sim solve must deadline out, got {other:?}"),
    }
    let waited = t0.elapsed();
    assert!(waited < Duration::from_secs(2), "the deadline must bound a sim solve: {waited:?}");

    // The cancel frame may race the solve's registration, so resend
    // until the solve answers; cancellation is idempotent.
    let cancelled = endless_sim(2, None);
    let (tx, rx) = mpsc::channel();
    std::thread::scope(|s| {
        let spec = &cancelled;
        s.spawn(move || tx.send(Client::new(addr).solve_once(spec)).unwrap());
        let canceller = Client::new(addr);
        let mut tries = 0;
        let reply = loop {
            match rx.recv_timeout(Duration::from_millis(50)) {
                Ok(r) => break r.unwrap(),
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    tries += 1;
                    assert!(tries < 100, "cancel never landed");
                    let _ = canceller.cancel(2).unwrap();
                }
                Err(e) => panic!("cancelled solve's channel died: {e}"),
            }
        };
        match reply {
            Response::Cancelled { id, iterations } => {
                assert_eq!(id, 2);
                assert!(iterations < cancelled.max_iters, "must be a partial stop: {iterations}");
            }
            other => panic!("the sim solve must end Cancelled, got {other:?}"),
        }
    });

    let report = daemon.shutdown(Duration::from_secs(5));
    assert_eq!(report.counters.deadline_exceeded, 1, "{:?}", report.counters);
    assert_eq!(report.counters.cancelled, 1, "{:?}", report.counters);
    assert_eq!(report.counters.completed, 0, "{:?}", report.counters);
}

/// The result cache end-to-end: repeat solves hit, concurrent identical
/// solves single-flight (exactly one of N identical requests computes;
/// the rest coalesce or hit), `cache: false` bypasses, and every path
/// returns bit-identical bits.
#[test]
fn cache_hits_and_single_flight_coalescing() {
    let daemon = Daemon::start(DaemonConfig { workers: 2, ..DaemonConfig::default() }).unwrap();
    let addr = daemon.addr();

    let spec = sim_spec(1, 8, 5, 5);
    let (x_ref, _) = local_sim_solve(&spec);
    match Client::new(addr).solve_once(&spec).unwrap() {
        Response::Done { cached, coalesced, x, .. } => {
            assert!(!cached && !coalesced, "first solve computes");
            assert_eq!(bits(&x), bits(&x_ref));
        }
        other => panic!("{other:?}"),
    }
    match Client::new(addr).solve_once(&SolveSpec { id: 2, ..spec.clone() }).unwrap() {
        Response::Done { cached, x, .. } => {
            assert!(cached, "identical repeat must hit");
            assert_eq!(bits(&x), bits(&x_ref));
        }
        other => panic!("{other:?}"),
    }

    // Single flight: of three concurrent identical requests, exactly one
    // computes — the other two are answered from its result (coalesced
    // while in flight, or a hit if they arrive after it publishes).
    let before = daemon.counters();
    let big = sim_spec(10, 24, 13, 1);
    let xs: Vec<Vec<u64>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..3)
            .map(|i| {
                let spec = SolveSpec { id: 10 + i, ..big.clone() };
                s.spawn(move || match Client::new(addr).solve_once(&spec).unwrap() {
                    Response::Done { x, converged, .. } => {
                        assert!(converged);
                        bits(&x)
                    }
                    other => panic!("identical request must finish, got {other:?}"),
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert!(xs.iter().all(|x| *x == xs[0]), "single-flighted answers must be identical");
    let after = daemon.counters();
    assert_eq!(
        (after.cache_hits + after.coalesced) - (before.cache_hits + before.coalesced),
        2,
        "exactly one of three identical requests computes"
    );

    // Opting out of the cache recomputes (still bit-identical, since the
    // sim is deterministic).
    match Client::new(addr)
        .solve_once(&SolveSpec { id: 20, cache: false, ..spec.clone() })
        .unwrap()
    {
        Response::Done { cached, coalesced, x, .. } => {
            assert!(!cached && !coalesced, "cache:false must bypass");
            assert_eq!(bits(&x), bits(&x_ref));
        }
        other => panic!("{other:?}"),
    }

    let report = daemon.shutdown(Duration::from_secs(5));
    assert_eq!(report.workers_joined, 2);
}

/// Satellite 2's chaos soak: with `--chaos`-style fault injection raging
/// (kill + hang + poison sampled per request), every non-faulted request
/// is still answered correctly — sim requests bit-identical, pooled
/// single-worker requests to tolerance — every faultable request gets a
/// typed answer (never a hang, never a daemon death), and the drain
/// still accounts for every thread.
#[test]
fn chaos_soak_answers_every_nonfaulted_request_correctly() {
    // p_kill + p_hang + p_poison = 1.0: every multi-worker pooled
    // request is guaranteed at least one injected fault.
    let daemon = Daemon::start(DaemonConfig {
        workers: 3,
        max_inflight: 16,
        admission_timeout_ms: 8_000,
        chaos: Some(ChaosConfig {
            p_kill: 0.5,
            p_hang: 0.25,
            p_poison: 0.25,
            recovery: 10,
            seed: 0xabc,
        }),
        ..DaemonConfig::default()
    })
    .unwrap();
    let addr = daemon.addr();

    let sims: Vec<SolveSpec> = [(1u64, 8usize, 3u64), (2, 10, 5), (3, 12, 7), (4, 8, 11)]
        .iter()
        .map(|&(id, g, seed)| sim_spec(id, g, seed, 5))
        .collect();
    let safe_pooled: Vec<SolveSpec> = [(5u64, 8usize), (6, 10), (7, 12), (8, 14)]
        .iter()
        .map(|&(id, g)| SolveSpec {
            mode: Mode::Pooled,
            workers: 1,
            tol: 1e-8,
            cache: false,
            ..SolveSpec::lap2d(id, g)
        })
        .collect();
    // Faultable: a poisoned worker's blocks are never reassigned (a
    // panic is not a death — §4.5 semantics), so a poisoned request may
    // legitimately not converge; the deadline backstop bounds it and a
    // typed answer is still required.
    let faultable: Vec<SolveSpec> = (9u64..13)
        .map(|id| SolveSpec {
            mode: Mode::Pooled,
            workers: 3,
            tol: 1e-6,
            max_iters: 3_000,
            deadline_ms: Some(2_500),
            cache: false,
            ..SolveSpec::lap2d(id, 10)
        })
        .collect();

    std::thread::scope(|s| {
        let sim_handles: Vec<_> = sims
            .iter()
            .map(|spec| s.spawn(move || Client::new(addr).solve_once(spec).unwrap()))
            .collect();
        let safe_handles: Vec<_> = safe_pooled
            .iter()
            .map(|spec| s.spawn(move || Client::new(addr).solve_once(spec).unwrap()))
            .collect();
        let faultable_handles: Vec<_> = faultable
            .iter()
            .map(|spec| s.spawn(move || Client::new(addr).solve_once(spec).unwrap()))
            .collect();

        for (spec, h) in sims.iter().zip(sim_handles) {
            let (x_ref, _) = local_sim_solve(spec);
            match h.join().unwrap() {
                Response::Done { id, x, converged, chaos, .. } => {
                    assert_eq!(id, spec.id);
                    assert!(converged && !chaos);
                    assert_eq!(bits(&x), bits(&x_ref), "sim tenant {id} under chaos");
                }
                other => panic!("sim tenant {} under chaos: {other:?}", spec.id),
            }
        }
        for (spec, h) in safe_pooled.iter().zip(safe_handles) {
            match h.join().unwrap() {
                Response::Done { id, converged, final_residual, chaos, .. } => {
                    assert_eq!(id, spec.id);
                    assert!(!chaos, "worker 0 is spared: single-worker requests unfaultable");
                    assert!(converged && final_residual <= spec.tol, "tenant {id}");
                }
                other => panic!("unfaulted pooled tenant {}: {other:?}", spec.id),
            }
        }
        for (spec, h) in faultable.iter().zip(faultable_handles) {
            match h.join().unwrap() {
                // A faulted solve may converge (kill/hang + recovery),
                // exhaust its budget degraded (poison), or hit its
                // deadline backstop — all typed, none fatal.
                Response::Done { id, .. } | Response::DeadlineExceeded { id, .. } => {
                    assert_eq!(id, spec.id)
                }
                other => panic!("faultable tenant {} must get a typed answer: {other:?}", spec.id),
            }
        }
    });

    let counters = daemon.counters();
    assert_eq!(counters.failed, 0, "chaos must never surface as a request failure");
    let report = daemon.shutdown(Duration::from_secs(10));
    assert_eq!(report.workers_joined, 3, "no pool thread may be lost to chaos");
}

/// The accept loop joins finished connection threads as it goes: a daemon
/// answering thousands of one-shot connections holds handles only for
/// the few still open, and the drain still counts every connection.
#[test]
fn finished_connection_threads_are_reaped() {
    let daemon = Daemon::start(DaemonConfig { workers: 1, ..DaemonConfig::default() }).unwrap();
    let client = Client::new(daemon.addr());
    let mut most = 0;
    for i in 0..2_000 {
        assert!(matches!(client.ping().unwrap(), Response::Pong), "ping {i}");
        most = most.max(daemon.live_connection_handles());
    }
    assert!(most <= 64, "live connection handles peaked at {most}");
    let report = daemon.shutdown(Duration::from_secs(5));
    assert_eq!(report.connections_joined, 2_000, "drain accounting stays exact");
}

/// A megabyte of `[` is a parse error, not a stack overflow: the sender
/// gets a typed `failed` frame on the same connection, and the daemon
/// keeps serving.
#[test]
fn deeply_nested_frame_fails_typed_and_the_daemon_survives() {
    let daemon = Daemon::start(DaemonConfig { workers: 1, ..DaemonConfig::default() }).unwrap();
    let mut stream = TcpStream::connect(daemon.addr()).unwrap();
    write_frame(&mut stream, &"[".repeat(1 << 20)).unwrap();
    let reply = read_frame(&mut stream).unwrap().expect("the daemon must answer");
    match Response::parse(&reply).unwrap() {
        Response::Failed { error, .. } => assert!(error.contains("nesting"), "{error}"),
        other => panic!("expected a typed failure, got {other:?}"),
    }
    write_frame(&mut stream, &Request::Ping.render()).unwrap();
    let pong = read_frame(&mut stream).unwrap().expect("the connection stays open");
    assert!(matches!(Response::parse(&pong).unwrap(), Response::Pong));

    let spec = sim_spec(1, 8, 5, 5);
    let (x_ref, _) = local_sim_solve(&spec);
    match Client::new(daemon.addr()).solve_once(&spec).unwrap() {
        Response::Done { x, converged, .. } => {
            assert!(converged);
            assert_eq!(bits(&x), bits(&x_ref));
        }
        other => panic!("{other:?}"),
    }
    let report = daemon.shutdown(Duration::from_secs(5));
    assert_eq!(report.counters.completed, 1);
}

/// A tolerance no solve can meet would run the whole budget: a sim solve
/// of `max_iters` 10^15 would size its dispatch lists for every round and
/// abort the daemon. It fails typed instead, and the daemon keeps serving.
#[test]
fn a_tolerance_no_solve_can_meet_fails_typed_and_the_daemon_survives() {
    let daemon = Daemon::start(DaemonConfig { workers: 1, ..DaemonConfig::default() }).unwrap();
    let client = Client::new(daemon.addr());
    let hostile = SolveSpec { tol: 0.0, max_iters: 1_000_000_000_000_000, ..sim_spec(1, 8, 5, 5) };
    match client.solve_once(&hostile).unwrap() {
        Response::Failed { id, error } => {
            assert_eq!(id, 1);
            assert!(error.contains("tol"), "{error}");
        }
        other => panic!("expected a typed failure, got {other:?}"),
    }
    match client.solve_once(&sim_spec(2, 8, 5, 5)).unwrap() {
        Response::Done { converged, .. } => assert!(converged),
        other => panic!("the daemon must keep serving, got {other:?}"),
    }
    let report = daemon.shutdown(Duration::from_secs(5));
    assert_eq!((report.counters.failed, report.counters.completed), (1, 1));
}
