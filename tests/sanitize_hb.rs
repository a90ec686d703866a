//! Mutation tests for the happens-before sanitizer on **real threads**
//! (`--features sanitize`).
//!
//! `tests/model_hb.rs` proves the shadow catches deleted publication
//! edges under the explorer's virtual threads; this suite proves the
//! same instrumentation works wired into the production atomics, with
//! OS threads and real memory. The shapes are the same three protocol
//! mutations (Relaxed-ed residual publish, Relaxed-ed stop flag,
//! skipped halo copy), plus a Relaxed-ed block hand-off between two
//! `store_range` commits — detection is deterministic because each reader
//! *spins until it observes* the flag or epoch, and the facade fires
//! release-side hooks before the real operation and acquire-side hooks
//! after it: a load that observed a release implies the release hook
//! already ran.
//!
//! The final test runs a real persistent-executor solve inside a
//! sanitizer session: the full data plane (component commits under the
//! in-flight flag, scratch claims, fused residual publishes) must come
//! out race-clean.
#![cfg(feature = "sanitize")]

use block_async_relax::core::{AsyncBlockSolver, ExecutorKind, SolveOptions};
use block_async_relax::gpu::{AtomicF64Vec, CommStrategy, HaloExchange, ResidualSlots, ThreadedOptions};
use block_async_relax::sparse::gen::laplacian_2d_5pt;
use block_async_relax::sparse::RowPartition;
use block_async_relax::sync::hb;
use block_async_relax::sync::{Ordering, SyncBool, SyncU64, SyncUsize};
use std::sync::Arc;
use std::thread;

/// The `ResidualSlots::publish`/`reduce` shape on real threads; the
/// epoch-bump ordering is the mutation point.
fn residual_publish_shape(publish_ord: Ordering) -> Vec<hb::Race> {
    let (_, races) = hb::session(|| {
        let val = Arc::new(SyncU64::new(0));
        let epoch = Arc::new(SyncUsize::new(0));
        let (v2, e2) = (Arc::clone(&val), Arc::clone(&epoch));
        let w = thread::spawn(move || {
            hb::on_data_write(hb::id_of(&*v2), hb::Access::WriteExcl);
            // sync: Relaxed value store; the epoch bump below is the
            // publication edge (when the audited ordering is Release).
            v2.store(2.5f64.to_bits(), Ordering::Relaxed);
            // sync: test fixture — the ordering under audit.
            e2.fetch_add(1, publish_ord);
        });
        // sync: Acquire pairs with the publish bump when it is Release;
        // spinning until the epoch is visible makes detection of the
        // mutated variant deterministic.
        while epoch.load(Ordering::Acquire) == 0 {
            thread::yield_now();
        }
        hb::on_data_read(hb::id_of(&*val), hb::Access::ReadPublished);
        // sync: Relaxed value read behind the epoch edge.
        let _ = val.load(Ordering::Relaxed);
        w.join().unwrap();
    });
    races
}

/// Two workers committing one block's components in turn through
/// `AtomicF64Vec::store_range`, the executor's commit path, with the
/// block handed over through a flag as the in-flight flag hands it over;
/// the hand-off ordering is the mutation point.
fn block_commit_shape(handoff: Ordering) -> Vec<hb::Race> {
    let (_, races) = hb::session(|| {
        let x = Arc::new(AtomicF64Vec::from_slice(&[0.0; 8]));
        let flag = Arc::new(SyncBool::new(false));
        let (x2, f2) = (Arc::clone(&x), Arc::clone(&flag));
        let w = thread::spawn(move || {
            x2.store_range(2, &[1.0, 2.0, 3.0]);
            // sync: test fixture — the hand-off ordering under audit.
            f2.store(true, handoff);
        });
        // sync: Acquire pairs with the hand-off when it is Release;
        // spinning until the flag is visible makes detection of the
        // mutated variant deterministic.
        while !flag.load(Ordering::Acquire) {
            thread::yield_now();
        }
        x.store_range(2, &[4.0, 5.0, 6.0]);
        w.join().unwrap();
    });
    races
}

/// The stop-watermark shape on real threads; the flag pairing is the
/// mutation point.
fn stop_watermark_shape(store_ord: Ordering, load_ord: Ordering) -> Vec<hb::Race> {
    let (_, races) = hb::session(|| {
        let rec = Arc::new(SyncUsize::new(0));
        let stop = Arc::new(SyncBool::new(false));
        let (r2, s2) = (Arc::clone(&rec), Arc::clone(&stop));
        let w = thread::spawn(move || {
            // sync: test fixture — the ordering under audit.
            while !s2.load(load_ord) {
                thread::yield_now();
            }
            hb::on_data_read(hb::id_of(&*r2), hb::Access::ReadPublished);
            // sync: Relaxed payload read, ordered by the flag's edge
            // when the audited pair is Release/Acquire.
            let _ = r2.load(Ordering::Relaxed);
        });
        hb::on_data_write(hb::id_of(&*rec), hb::Access::WriteExcl);
        // sync: Relaxed payload store, published by the flag store below.
        rec.store(7, Ordering::Relaxed);
        // sync: test fixture — the ordering under audit.
        stop.store(true, store_ord);
        w.join().unwrap();
    });
    races
}

/// The halo elect → copy → stamp shape on real threads; the copy is the
/// mutation point.
fn halo_refresh_shape(skip_copy: bool) -> Vec<hb::Race> {
    let (_, races) = hb::session(|| {
        let epoch = Arc::new(SyncUsize::new(0));
        let stage = Arc::new(SyncU64::new(0));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let (e, s) = (Arc::clone(&epoch), Arc::clone(&stage));
                thread::spawn(move || {
                    // sync: election needs RMW atomicity only, as in halo.rs.
                    if e.fetch_max(1, Ordering::Relaxed) < 1 {
                        let region = hb::id_of(&*s);
                        hb::on_elect(region);
                        if !skip_copy {
                            hb::on_data_write(hb::id_of(&*s), hb::Access::WriteRacy);
                            // sync: racy stage copy, mixed-epoch reads allowed.
                            s.store(42, Ordering::Relaxed);
                            hb::on_copy(region);
                        }
                        hb::on_stamp(region);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    });
    races
}

#[test]
fn release_publish_is_race_clean() {
    // sync: the shipped publication edge — Release epoch bump.
    let races = residual_publish_shape(Ordering::Release);
    assert!(races.is_empty(), "clean publish flagged: {races:?}");
}

#[test]
fn relaxed_publish_mutation_is_caught() {
    // sync: deliberate mutation — the publication edge deleted.
    let races = residual_publish_shape(Ordering::Relaxed);
    assert!(!races.is_empty(), "mutated publish not caught");
    assert!(races.iter().all(|r| r.kind == hb::RaceKind::UnsyncedPublishedRead));
}

#[test]
fn release_acquire_stop_flag_is_race_clean() {
    // sync: the shipped pairing — Release store / Acquire loads.
    let races = stop_watermark_shape(Ordering::Release, Ordering::Acquire);
    assert!(races.is_empty(), "clean stop flag flagged: {races:?}");
}

#[test]
fn relaxed_stop_flag_mutation_is_caught() {
    // sync: deliberate mutation — the all-Relaxed flag under audit.
    let races = stop_watermark_shape(Ordering::Relaxed, Ordering::Relaxed);
    assert!(!races.is_empty(), "mutated stop flag not caught");
    assert!(races.iter().all(|r| r.kind == hb::RaceKind::UnsyncedPublishedRead));
}

#[test]
fn released_block_handoff_is_race_clean() {
    // sync: the audited correct hand-off — Release store, Acquire spin.
    let races = block_commit_shape(Ordering::Release);
    assert!(races.is_empty(), "Release hand-off flagged: {races:?}");
}

#[test]
fn relaxed_block_handoff_mutation_is_caught() {
    // sync: deliberate mutation — a Relaxed hand-off orders nothing.
    let races = block_commit_shape(Ordering::Relaxed);
    assert!(!races.is_empty(), "two unordered range commits went unreported");
}

#[test]
fn halo_refresh_with_copy_is_race_clean() {
    let races = halo_refresh_shape(false);
    assert!(races.is_empty(), "clean refresh flagged: {races:?}");
}

#[test]
fn skipped_halo_copy_mutation_is_caught() {
    let races = halo_refresh_shape(true);
    assert!(!races.is_empty(), "skipped copy not caught");
    assert!(races.iter().all(|r| r.kind == hb::RaceKind::StampWithoutCopy));
}

/// The real `ResidualSlots` protocol on real threads: concurrent
/// publishers against a reducing monitor, race-clean.
#[test]
fn real_residual_slots_are_race_clean() {
    let (_, races) = hb::session(|| {
        let mut slots = ResidualSlots::new();
        slots.reset(4);
        let slots = Arc::new(slots);
        let handles: Vec<_> = (0..2)
            .map(|w| {
                let s2 = Arc::clone(&slots);
                thread::spawn(move || {
                    for round in 0..50 {
                        s2.publish(2 * w, round as f64);
                        s2.publish(2 * w + 1, round as f64);
                    }
                })
            })
            .collect();
        loop {
            if slots.reduce().is_some() {
                break;
            }
            thread::yield_now();
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(slots.reduce().is_some());
    });
    assert!(races.is_empty(), "real ResidualSlots flagged: {races:?}");
}

/// The real `HaloExchange` on real threads: per-device election races,
/// concurrent copies and stamps, race-clean.
#[test]
fn real_halo_exchange_is_race_clean() {
    let (_, races) = hb::session(|| {
        let x0: Vec<f64> = (0..16).map(|i| i as f64).collect();
        let live = Arc::new(AtomicF64Vec::from_slice(&x0));
        let h = Arc::new(
            HaloExchange::for_strategy(CommStrategy::Amc, &[0, 8, 16], &x0, 2).unwrap(),
        );
        let handles: Vec<_> = (0..4)
            .map(|w| {
                let (h2, l2) = (Arc::clone(&h), Arc::clone(&live));
                thread::spawn(move || {
                    let d = w % 2;
                    for round in 1..20 {
                        h2.maybe_refresh(d, round, &l2, round);
                    }
                })
            })
            .collect();
        for hd in handles {
            hd.join().unwrap();
        }
        assert!(h.refreshes() > 0);
    });
    assert!(races.is_empty(), "real HaloExchange flagged: {races:?}");
}

/// A full persistent-executor solve inside a sanitizer session: block
/// commits under the in-flight flag, scratch claims, fused residual
/// publishes and the stop protocol all run race-clean end to end.
#[test]
fn persistent_solve_is_race_clean() {
    let a = laplacian_2d_5pt(8); // 64 rows: small enough for full (unsampled) tracking
    let n = a.n_rows();
    let b = a.mul_vec(&vec![1.0; n]).expect("square");
    let x0 = vec![0.0; n];
    let p = RowPartition::uniform(n, 8).expect("partition");
    let opts = SolveOptions { max_iters: 5_000, tol: 1e-8, record_history: false, check_every: 5 };
    let solver = AsyncBlockSolver {
        executor: ExecutorKind::Threaded(ThreadedOptions { n_workers: 3, snapshot_rounds: false }),
        ..AsyncBlockSolver::async_k(3)
    };
    let (result, races) = hb::session(|| solver.solve(&a, &b, &x0, &p, &opts).expect("solve"));
    assert!(result.converged, "solve did not converge under the sanitizer");
    assert!(races.is_empty(), "persistent solve flagged: {races:?}");
}
