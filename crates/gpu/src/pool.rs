//! The worker pool every persistent run executes on, plus the
//! request-scoped [`CancelToken`] that stops one run without touching its
//! neighbours.
//!
//! [`crate::PersistentExecutor::run_session`] dispatches its worker body
//! onto a [`WorkerPool`] lease, always. A daemon multiplexing many
//! concurrent solves keeps one long-lived pool; a library call without a
//! pool gets a transient one for the length of the run. Either way:
//!
//! * **Spawn once, serve many.** `n` OS threads are spawned at pool
//!   construction and parked on a condvar. Each solve *leases* a slice of
//!   them ([`WorkerPool::try_lease`]) and hands the lease a job; the
//!   workers run the job to completion and return to the pool.
//! * **Leases are the admission-control primitive.** `try_lease(n)` is a
//!   non-blocking reservation against the idle count — a daemon that
//!   cannot get a lease *knows* it is saturated and can shed the request
//!   with a structured rejection instead of queueing unbounded work.
//! * **Jobs are borrowed, not `'static`.** A solve's worker body borrows
//!   the whole solve-local workspace from the dispatcher's stack. The
//!   pool erases that lifetime internally (`ErasedFn`) and re-imposes
//!   it structurally: `PendingJob` blocks until every leased worker has
//!   finished the job — in `wait` *and* in `Drop` — so the borrow can
//!   never end while a worker still holds the pointer. `PendingJob` is
//!   deliberately crate-private: the only way to reach `dispatch` is
//!   through `run_session`, which always waits before returning.
//! * **A panicking job never kills a pool thread.** Each worker runs its
//!   job slice under `catch_unwind`; the panic is counted on the job and
//!   reported to the waiter, and the thread goes back to the pool.
//!   `run_session` turns a non-zero count into a panic of its own on the
//!   calling thread, which is the per-request fault-isolation floor the
//!   daemon builds on.
//! * **A dropped pool is drained.** Dropping a [`WorkerPool`] joins its
//!   threads like [`WorkerPool::drain`], so a transient pool leaves no
//!   thread behind on any exit path.

use abr_sync::{Ordering, SyncBool, SyncUsize};
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A lifetime-erased `&(dyn Fn(usize) + Sync)`.
///
/// SAFETY: the pointee is `Sync` (shared calls from many workers are the
/// contract) and the pointer is only dereferenced between `dispatch` and
/// the completion of the job's last worker — a window [`PendingJob`]
/// keeps inside the original borrow by blocking in `wait`/`Drop`.
struct ErasedFn(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync`, so sharing the pointer across the pool
// threads is sound; validity is bounded by the `PendingJob` wait protocol
// described on `ErasedFn`.
unsafe impl Send for ErasedFn {}
// SAFETY: as above — `&dyn Fn(usize) + Sync` is shareable by definition.
unsafe impl Sync for ErasedFn {}

/// One dispatched job: `n` workers each call `f(index)` exactly once for
/// a distinct `index` in `0..n`.
struct JobInner {
    f: ErasedFn,
    /// Publication flag: the dispatcher's Release store hands every
    /// pre-dispatch write (the prepared solve workspace) to the workers'
    /// Acquire loads through the audited facade, so the happens-before
    /// sanitizer sees the edge the queue mutex would otherwise hide.
    go: SyncBool,
    /// Worker slices still running (or not yet started).
    remaining: SyncUsize,
    /// Worker slices that unwound out of `f` and were caught.
    panics: SyncUsize,
}

struct PoolState {
    /// Workers neither running a job slice nor reserved by a lease.
    free: usize,
    /// Pending job slices: any idle worker may take any token.
    tokens: VecDeque<(Arc<JobInner>, usize)>,
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Workers park here waiting for tokens (or shutdown).
    work_cv: Condvar,
    /// Dispatchers park here waiting for a job's `remaining` to hit 0.
    done_cv: Condvar,
    /// Leasers park here waiting for `free` capacity.
    idle_cv: Condvar,
}

/// A persistent pool of `n` named OS worker threads serving leased jobs.
/// See the module docs for the lifecycle contract.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    handles: Mutex<Vec<JoinHandle<()>>>,
    n_workers: usize,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("n_workers", &self.n_workers)
            .field("idle", &self.idle())
            .finish()
    }
}

/// A reservation of `n` pool workers. Obtained from
/// [`WorkerPool::try_lease`] / [`WorkerPool::lease_timeout`]; consumed by
/// `run_session`. Dropping an unused lease returns the capacity to the
/// pool.
pub struct Lease<'p> {
    pool: &'p WorkerPool,
    n: usize,
    /// Still holds capacity (not yet consumed by a dispatch).
    armed: bool,
}

impl Lease<'_> {
    /// Number of workers reserved.
    pub fn n(&self) -> usize {
        self.n
    }
}

impl std::fmt::Debug for Lease<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Lease").field("n", &self.n).finish()
    }
}

impl Drop for Lease<'_> {
    fn drop(&mut self) {
        if self.armed {
            let mut st = self.pool.shared.state.lock().unwrap();
            st.free += self.n;
            drop(st);
            self.pool.shared.idle_cv.notify_all();
        }
    }
}

/// A dispatched job in flight. `wait` (and `Drop`, as a backstop) blocks
/// until every leased worker has finished its slice — the structural
/// guarantee that makes the lifetime erasure in [`ErasedFn`] sound.
pub(crate) struct PendingJob<'p> {
    pool: &'p WorkerPool,
    job: Arc<JobInner>,
    collected: bool,
}

impl PendingJob<'_> {
    /// Blocks until the job is fully finished; returns how many worker
    /// slices unwound out of the job body (caught panics).
    pub(crate) fn wait(mut self) -> usize {
        self.wait_inner()
    }

    fn wait_inner(&mut self) -> usize {
        if !self.collected {
            let mut st = self.pool.shared.state.lock().unwrap();
            // sync: Acquire pairs with each worker's Release decrement —
            // `remaining == 0` observed here proves every worker's writes
            // made through the job body are visible to the dispatcher,
            // the pooled analogue of the thread-scope join edge the
            // executor's post-join reads rely on.
            while self.job.remaining.load(Ordering::Acquire) != 0 {
                st = self.pool.shared.done_cv.wait(st).unwrap();
            }
            drop(st);
            self.collected = true;
        }
        // sync: post-completion read, ordered by the Acquire above.
        self.job.panics.load(Ordering::Relaxed)
    }
}

impl Drop for PendingJob<'_> {
    fn drop(&mut self) {
        self.wait_inner();
    }
}

impl WorkerPool {
    /// Spawns a pool of `n` (≥ 1) named, parked worker threads.
    pub fn new(n: usize) -> WorkerPool {
        let n = n.max(1);
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                free: n,
                tokens: VecDeque::new(),
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            idle_cv: Condvar::new(),
        });
        let handles = (0..n)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("abr-pool-{i}"))
                    .spawn(move || worker_main(&shared))
                    .expect("spawning a pool worker thread")
            })
            .collect();
        WorkerPool { shared, handles: Mutex::new(handles), n_workers: n }
    }

    /// Total worker threads in the pool.
    pub fn n_workers(&self) -> usize {
        self.n_workers
    }

    /// Workers currently idle and unreserved — an advisory saturation
    /// probe for admission metrics (racy by nature; leases are the only
    /// authoritative reservation).
    pub fn idle(&self) -> usize {
        self.shared.state.lock().unwrap().free
    }

    /// Non-blocking reservation of `n` workers. `None` when fewer than
    /// `n` are idle (or the pool is shutting down) — the caller's cue to
    /// queue or shed.
    pub fn try_lease(&self, n: usize) -> Option<Lease<'_>> {
        let n = n.max(1);
        let mut st = self.shared.state.lock().unwrap();
        if st.shutdown || st.free < n {
            return None;
        }
        st.free -= n;
        drop(st);
        Some(Lease { pool: self, n, armed: true })
    }

    /// Blocking reservation: waits up to `timeout` for `n` workers to be
    /// idle. `None` on timeout or shutdown.
    pub fn lease_timeout(&self, n: usize, timeout: Duration) -> Option<Lease<'_>> {
        let n = n.max(1);
        let deadline = Instant::now() + timeout;
        let mut st = self.shared.state.lock().unwrap();
        loop {
            if st.shutdown {
                return None;
            }
            if st.free >= n {
                st.free -= n;
                drop(st);
                return Some(Lease { pool: self, n, armed: true });
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return None;
            }
            let (guard, res) = self.shared.idle_cv.wait_timeout(st, left).unwrap();
            st = guard;
            if res.timed_out() && st.free < n {
                return None;
            }
        }
    }

    /// Hands the leased workers a job: each of the `lease.n()` workers
    /// calls `f(index)` once with a distinct `index` in `0..lease.n()`.
    /// Crate-private on purpose — see the module docs for why the
    /// returned [`PendingJob`] must be awaited inside `f`'s borrow, which
    /// `run_session` guarantees structurally.
    pub(crate) fn dispatch<'p>(
        &'p self,
        mut lease: Lease<'p>,
        f: &(dyn Fn(usize) + Sync),
    ) -> PendingJob<'p> {
        let n = lease.n;
        // Lifetime erasure of the job body: the pointer is only
        // dereferenced by pool workers between this dispatch and the
        // moment the job's `remaining` count hits zero, and the returned
        // `PendingJob` blocks until that moment in both `wait` and
        // `Drop` — so every dereference happens inside `f`'s original
        // borrow. `PendingJob` never escapes the crate, and the one call
        // site (`PersistentExecutor::run_session`) waits before its
        // borrowed locals go out of scope.
        // SAFETY: per the above, the `PendingJob` wait bounds every
        // dereference of the erased pointer inside `f`'s borrow.
        let f_static: *const (dyn Fn(usize) + Sync + 'static) =
            unsafe { std::mem::transmute(f as *const (dyn Fn(usize) + Sync)) };
        let job = Arc::new(JobInner {
            f: ErasedFn(f_static),
            go: SyncBool::new(false),
            remaining: SyncUsize::new(n),
            panics: SyncUsize::new(0),
        });
        // sync: Release publishes every pre-dispatch write of the
        // dispatcher (the prepared workspace the job body borrows) to the
        // workers' Acquire load of `go` — the facade-visible edge for the
        // hb sanitizer; the queue mutex provides the same edge for the
        // hardware.
        job.go.store(true, Ordering::Release);
        {
            let mut st = self.shared.state.lock().unwrap();
            assert!(!st.shutdown, "dispatch on a pool that is shutting down");
            for idx in 0..n {
                st.tokens.push_back((Arc::clone(&job), idx));
            }
        }
        self.shared.work_cv.notify_all();
        lease.armed = false;
        PendingJob { pool: self, job, collected: false }
    }

    /// Graceful teardown: workers finish any queued job slices, then
    /// exit; every thread is joined. Returns the number of threads
    /// joined — the structural "zero leaked threads" accounting a drain
    /// test asserts against.
    pub fn shutdown(self) -> usize {
        self.drain()
    }

    /// [`shutdown`](Self::shutdown) through a shared reference, for
    /// owners that hold the pool behind an `Arc` (the service daemon).
    /// Idempotent: a second call joins nothing and returns 0. New
    /// `dispatch` calls after drain panic; `try_lease` returns `None`.
    pub fn drain(&self) -> usize {
        let joined = self.join_workers();
        assert!(
            joined.iter().all(Result::is_ok),
            "pool worker must not die outside catch_unwind"
        );
        joined.len()
    }

    /// Flags shutdown, wakes every parked thread and joins the workers,
    /// returning each join result. Never panics, so `Drop` can call it.
    fn join_workers(&self) -> Vec<std::thread::Result<()>> {
        // Setting the flag leaves the state valid whatever a poisoning
        // panic interrupted, so a poisoned lock is recovered.
        self.shared.state.lock().unwrap_or_else(PoisonError::into_inner).shutdown = true;
        self.shared.work_cv.notify_all();
        self.shared.idle_cv.notify_all();
        let handles: Vec<_> =
            self.handles.lock().unwrap_or_else(PoisonError::into_inner).drain(..).collect();
        handles.into_iter().map(JoinHandle::join).collect()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.join_workers();
    }
}

fn worker_main(shared: &PoolShared) {
    loop {
        let token = {
            let mut st = shared.state.lock().unwrap();
            loop {
                if let Some(tok) = st.tokens.pop_front() {
                    break Some(tok);
                }
                if st.shutdown {
                    break None;
                }
                st = shared.work_cv.wait(st).unwrap();
            }
        };
        let Some((job, idx)) = token else { return };
        // sync: Acquire pairs with the dispatcher's Release store of `go`
        // — from here on the worker sees every pre-dispatch write the job
        // body is about to read. Always already true; the loop is the
        // idiomatic pairing site, not a real spin.
        while !job.go.load(Ordering::Acquire) {
            std::hint::spin_loop();
        }
        // SAFETY: dereference inside the dispatch/completion window — the
        // dispatcher's `PendingJob` cannot unblock (and the pointee's
        // borrow cannot end) until the `remaining` decrement below.
        let f = unsafe { &*job.f.0 };
        // A panicking job slice is the *request's* failure, never the
        // pool's: count it and put the thread back to work.
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(idx)));
        if res.is_err() {
            // sync: tallied before the Release decrement below, which
            // orders it for the waiter's post-completion read.
            job.panics.fetch_add(1, Ordering::Relaxed);
        }
        // sync: Release pairs with the waiter's Acquire in
        // `PendingJob::wait` — the pooled analogue of the scope-join
        // edge: `remaining == 0` proves this worker's job-body writes
        // (and its panic tally) are visible to the dispatcher.
        job.remaining.fetch_sub(1, Ordering::Release);
        {
            let mut st = shared.state.lock().unwrap();
            st.free += 1;
            drop(st);
            shared.done_cv.notify_all();
            shared.idle_cv.notify_all();
        }
    }
}

/// Why a [`CancelToken`] asked a run to stop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelCause {
    /// Explicit client cancellation ([`CancelToken::cancel`]).
    Cancelled,
    /// The token's deadline passed.
    DeadlineExceeded,
}

/// A request-scoped stop handle: an explicit cancel flag plus an optional
/// deadline, polled by the executor's concurrent monitor once per poll
/// and translated into the run's existing Release/Acquire stop flag — so
/// an expired or cancelled request frees its leased workers within one
/// monitor poll, without any new signalling path into the workers.
#[derive(Debug, Default)]
pub struct CancelToken {
    flag: SyncBool,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A token with no deadline.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// A token that fires [`CancelCause::DeadlineExceeded`] at `deadline`.
    pub fn with_deadline(deadline: Instant) -> CancelToken {
        CancelToken { flag: SyncBool::new(false), deadline: Some(deadline) }
    }

    /// Requests cancellation. Safe to call from any thread, any number of
    /// times; the run stops within one monitor poll.
    pub fn cancel(&self) {
        // sync: Release pairs with `is_cancelled`'s Acquire — anything
        // the cancelling thread wrote before cancelling (e.g. its reason
        // bookkeeping) is visible to the monitor that acts on the flag.
        self.flag.store(true, Ordering::Release);
    }

    /// Whether `cancel` has been called.
    pub fn is_cancelled(&self) -> bool {
        // sync: Acquire pairs with `cancel`'s Release store.
        self.flag.load(Ordering::Acquire)
    }

    /// The deadline, if any.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// The monitor's poll: `Some(cause)` once the token wants the run
    /// stopped. Explicit cancellation wins over a simultaneously-expired
    /// deadline.
    pub fn should_stop(&self) -> Option<CancelCause> {
        if self.is_cancelled() {
            return Some(CancelCause::Cancelled);
        }
        match self.deadline {
            Some(d) if Instant::now() >= d => Some(CancelCause::DeadlineExceeded),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lease_accounting_and_dispatch_round_trip() {
        let pool = WorkerPool::new(4);
        assert_eq!(pool.idle(), 4);
        let lease = pool.try_lease(3).expect("3 of 4 idle");
        assert_eq!(pool.idle(), 1);
        assert!(pool.try_lease(2).is_none(), "only 1 unreserved worker left");

        let hits = SyncUsize::new(0);
        let seen = [SyncBool::new(false), SyncBool::new(false), SyncBool::new(false)];
        let body = |i: usize| {
            // sync: test tallies, read after the job's completion edge.
            seen[i].store(true, Ordering::Relaxed);
            // sync: same — tallied under the job's completion edge.
            hits.fetch_add(1, Ordering::Relaxed);
        };
        let pending = pool.dispatch(lease, &body);
        assert_eq!(pending.wait(), 0, "no panics");
        // sync: post-wait reads, ordered by the job completion Acquire.
        assert_eq!(hits.load(Ordering::Relaxed), 3);
        // sync: post-wait read, same completion edge as above.
        assert!(seen.iter().all(|s| s.load(Ordering::Relaxed)), "each index called once");
        assert_eq!(pool.idle(), 4, "workers returned to the pool");
        assert_eq!(pool.shutdown(), 4);
    }

    #[test]
    fn dropped_lease_returns_capacity() {
        let pool = WorkerPool::new(2);
        drop(pool.try_lease(2).unwrap());
        assert_eq!(pool.idle(), 2);
        assert_eq!(pool.shutdown(), 2);
    }

    #[test]
    fn panicking_job_is_counted_and_pool_survives() {
        let pool = WorkerPool::new(2);
        let lease = pool.try_lease(2).unwrap();
        let body = |i: usize| {
            if i == 0 {
                panic!("injected: slice 0 dies");
            }
        };
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // quiet the expected panic
        let panics = pool.dispatch(lease, &body).wait();
        std::panic::set_hook(prev);
        assert_eq!(panics, 1);
        // The pool still works after a panicked job.
        let lease = pool.try_lease(2).expect("both workers back");
        let ok = SyncUsize::new(0);
        let body = |_i: usize| {
            // sync: test tally, read after the completion edge.
            ok.fetch_add(1, Ordering::Relaxed);
        };
        assert_eq!(pool.dispatch(lease, &body).wait(), 0);
        // sync: post-wait read (see above).
        assert_eq!(ok.load(Ordering::Relaxed), 2);
        assert_eq!(pool.shutdown(), 2);
    }

    #[test]
    fn lease_timeout_waits_for_release() {
        let pool = WorkerPool::new(1);
        let lease = pool.try_lease(1).unwrap();
        assert!(pool.lease_timeout(1, Duration::from_millis(10)).is_none());
        std::thread::scope(|s| {
            s.spawn(|| {
                std::thread::sleep(Duration::from_millis(20));
                drop(lease);
            });
            let got = pool.lease_timeout(1, Duration::from_secs(5));
            assert!(got.is_some(), "lease must arrive once released");
        });
        assert_eq!(pool.shutdown(), 1);
    }

    #[test]
    fn cancel_token_causes() {
        let t = CancelToken::new();
        assert!(t.should_stop().is_none());
        t.cancel();
        assert_eq!(t.should_stop(), Some(CancelCause::Cancelled));

        let expired = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        assert_eq!(expired.should_stop(), Some(CancelCause::DeadlineExceeded));
        let future = CancelToken::with_deadline(Instant::now() + Duration::from_secs(60));
        assert!(future.should_stop().is_none());
        // Explicit cancel outranks a pending deadline.
        future.cancel();
        assert_eq!(future.should_stop(), Some(CancelCause::Cancelled));
    }
}
