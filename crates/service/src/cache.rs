//! The solve-result cache with single-flight coalescing.
//!
//! Keyed on the full solve identity — matrix fingerprint, rhs
//! fingerprint, tolerance bits, scheme (k, block size, mode, seed) — so
//! two requests share a slot only when their solves would be
//! interchangeable. Two behaviours fall out of one small state machine:
//!
//! * **Cache hit**: a completed result is returned without solving.
//! * **Single-flight**: while a solve for a key is in flight, identical
//!   requests *wait on it* instead of duplicating the work; when the
//!   leader publishes, every waiter gets the same result (marked
//!   `coalesced`). If the leader fails or is cancelled without
//!   publishing, the slot is cleared and one waiter promotes itself to
//!   leader — a dead leader never wedges the key.
//!
//! Waiters poll their own [`CancelToken`] between condvar timeouts, so a
//! coalesced request still honors its deadline and cancellation.
//!
//! Completed results are bounded (see [`SolveCache`]) by an entry cap and
//! a byte budget, least recently used first out. Eviction only ever
//! drops completed entries; waiters receive the leader's result through
//! its in-flight slot, so they get it even when the cache does not keep
//! it.

use crate::wire::Mode;
use abr_core::Fnv1a;
use abr_gpu::{CancelCause, CancelToken};
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Condvar, OnceLock, PoisonError};
use std::time::Duration;

/// The cached outcome of one converged solve.
#[derive(Debug, Clone)]
pub struct CachedSolve {
    /// Solution vector.
    pub x: Vec<f64>,
    /// Iterations the original solve took.
    pub iterations: usize,
    /// Final relative residual of the original solve.
    pub final_residual: f64,
}

/// Builds the cache key from the solve identity components.
#[allow(clippy::too_many_arguments)] // the key IS the full identity
pub fn solve_key(
    matrix_fp: u64,
    rhs_fp: u64,
    x0_fp: u64,
    tol: f64,
    local_iters: usize,
    block: usize,
    mode: Mode,
    seed: u64,
) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64(matrix_fp)
        .write_u64(rhs_fp)
        .write_u64(x0_fp)
        .write_f64(tol)
        .write_usize(local_iters)
        .write_usize(block)
        .write_u64(match mode {
            Mode::Sim => 0,
            Mode::Pooled => 1,
        })
        // Scheduling seed matters only where it changes the result
        // (deterministic sim); pooled runs are nondeterministic anyway.
        .write_u64(match mode {
            Mode::Sim => seed,
            Mode::Pooled => 0,
        });
    h.finish()
}

/// Byte budget of the cache.
pub const DEFAULT_CACHE_BYTES: usize = 256 << 20;

/// Most completed results the cache holds at once.
pub const MAX_ENTRIES: usize = 64;

/// One in-flight solve: the leader's result lands here for every waiter,
/// whether or not the cache then keeps it.
#[derive(Default)]
struct Flight {
    result: OnceLock<Arc<CachedSolve>>,
}

enum Slot {
    InFlight(Arc<Flight>),
    Ready(Entry),
}

struct Entry {
    result: Arc<CachedSolve>,
    bytes: usize,
    /// The entry's key in the recency order.
    stamp: u64,
}

/// The cache state under its one lock.
#[derive(Default)]
struct Inner {
    slots: HashMap<u64, Slot>,
    /// Recency stamp to key of every ready entry, least recent first.
    lru: BTreeMap<u64, u64>,
    clock: u64,
    /// Bytes held by ready entries.
    bytes: usize,
    evicted: u64,
}

impl Inner {
    fn next_stamp(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Stores a published result as the most recent entry, then evicts
    /// the least recent ones down to the bounds. A result larger than the
    /// whole budget is not kept.
    fn admit(&mut self, key: u64, result: Arc<CachedSolve>, budget: usize) {
        let bytes = entry_bytes(&result);
        if bytes > budget {
            self.slots.remove(&key);
            self.evicted += 1;
            return;
        }
        let stamp = self.next_stamp();
        self.slots.insert(key, Slot::Ready(Entry { result, bytes, stamp }));
        self.lru.insert(stamp, key);
        self.bytes += bytes;
        // The newcomer is the most recent entry and fits the budget
        // alone, so it is never the victim.
        while self.lru.len() > MAX_ENTRIES || self.bytes > budget {
            let Some((_, victim)) = self.lru.pop_first() else { break };
            if let Some(Slot::Ready(e)) = self.slots.remove(&victim) {
                self.bytes -= e.bytes;
            }
            self.evicted += 1;
        }
    }

    /// A direct hit: makes the entry the most recent.
    fn touch(&mut self, key: u64) {
        let stamp = self.next_stamp();
        let Some(Slot::Ready(e)) = self.slots.get_mut(&key) else { return };
        self.lru.remove(&std::mem::replace(&mut e.stamp, stamp));
        self.lru.insert(stamp, key);
    }
}

/// Heap bytes one cached result holds.
fn entry_bytes(r: &CachedSolve) -> usize {
    std::mem::size_of::<CachedSolve>() + r.x.len() * std::mem::size_of::<f64>()
}

/// What [`SolveCache::begin`] resolved to.
pub enum Begin<'a> {
    /// This request leads: solve, then [`LeadGuard::publish`] (or drop
    /// the guard on failure to release waiters).
    Lead(LeadGuard<'a>),
    /// A result was available (immediately — `coalesced == false` — or
    /// after waiting on an in-flight leader — `coalesced == true`).
    Ready(Arc<CachedSolve>, bool),
    /// The request's own token fired while waiting on a leader.
    Aborted(CancelCause),
}

/// The single-flight solve-result cache: an LRU of at most
/// [`MAX_ENTRIES`] results within [`DEFAULT_CACHE_BYTES`].
pub struct SolveCache {
    inner: Mutex<Inner>,
    ready: Condvar,
    budget: usize,
}

impl Default for SolveCache {
    fn default() -> Self {
        SolveCache::new()
    }
}

impl SolveCache {
    /// A fresh, empty cache.
    pub fn new() -> SolveCache {
        SolveCache::with_budget(DEFAULT_CACHE_BYTES)
    }

    fn with_budget(budget: usize) -> SolveCache {
        SolveCache { inner: Mutex::default(), ready: Condvar::new(), budget }
    }

    /// Number of completed entries (tests/metrics).
    pub fn len(&self) -> usize {
        self.inner.lock().lru.len()
    }

    /// Whether the cache holds no completed entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes held by completed entries.
    pub fn bytes(&self) -> usize {
        self.inner.lock().bytes
    }

    /// Results dropped to hold the bounds, including those too large to
    /// keep at all.
    pub fn evicted(&self) -> u64 {
        self.inner.lock().evicted
    }

    /// Resolves a key: immediate hit, wait-and-coalesce, or leadership.
    pub fn begin(&self, key: u64, cancel: Option<&CancelToken>) -> Begin<'_> {
        let mut inner = self.inner.lock();
        let mut waiting_on: Option<Arc<Flight>> = None;
        loop {
            if let Some(r) = waiting_on.as_ref().and_then(|f| f.result.get()) {
                return Begin::Ready(Arc::clone(r), true);
            }
            match inner.slots.get(&key) {
                None => {
                    let flight = Arc::new(Flight::default());
                    inner.slots.insert(key, Slot::InFlight(Arc::clone(&flight)));
                    return Begin::Lead(LeadGuard { cache: self, key, flight, published: false });
                }
                Some(Slot::Ready(e)) => {
                    let r = Arc::clone(&e.result);
                    if waiting_on.is_none() {
                        inner.touch(key);
                    }
                    return Begin::Ready(r, waiting_on.is_some());
                }
                Some(Slot::InFlight(flight)) => {
                    if let Some(why) = cancel.and_then(CancelToken::should_stop) {
                        return Begin::Aborted(why);
                    }
                    waiting_on = Some(Arc::clone(flight));
                    // Short slices so a waiter notices its own deadline
                    // promptly even if the leader runs long.
                    let (guard, _timeout) = self
                        .ready
                        .wait_timeout(inner, Duration::from_millis(20))
                        .unwrap_or_else(PoisonError::into_inner);
                    inner = guard;
                }
            }
        }
    }
}

/// Leadership over one in-flight cache key. Publishing hands the result
/// to every waiter and stores it (within the bounds); dropping without
/// publishing clears the slot so a waiter can take over — either way the
/// key cannot wedge.
pub struct LeadGuard<'a> {
    cache: &'a SolveCache,
    key: u64,
    flight: Arc<Flight>,
    published: bool,
}

impl LeadGuard<'_> {
    /// Publishes the leader's result to every waiter and future hit.
    pub fn publish(mut self, result: CachedSolve) {
        let result = Arc::new(result);
        let _ = self.flight.result.set(Arc::clone(&result));
        let mut inner = self.cache.inner.lock();
        inner.admit(self.key, result, self.cache.budget);
        self.published = true;
        drop(inner);
        self.cache.ready.notify_all();
    }
}

impl Drop for LeadGuard<'_> {
    fn drop(&mut self) {
        if self.published {
            return;
        }
        let mut inner = self.cache.inner.lock();
        inner.slots.remove(&self.key);
        drop(inner);
        self.cache.ready.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    fn sample() -> CachedSolve {
        CachedSolve { x: vec![1.0, 2.0], iterations: 10, final_residual: 1e-10 }
    }

    #[test]
    fn first_caller_leads_then_hits_are_served() {
        let cache = SolveCache::new();
        let lead = match cache.begin(7, None) {
            Begin::Lead(g) => g,
            _ => panic!("first caller must lead"),
        };
        lead.publish(sample());
        match cache.begin(7, None) {
            Begin::Ready(r, coalesced) => {
                assert_eq!(r.x, vec![1.0, 2.0]);
                assert!(!coalesced, "direct hit, no wait");
            }
            _ => panic!("second caller must hit"),
        }
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn waiters_coalesce_onto_the_leader() {
        let cache = SolveCache::new();
        let lead = match cache.begin(3, None) {
            Begin::Lead(g) => g,
            _ => panic!(),
        };
        std::thread::scope(|s| {
            let waiter = s.spawn(|| match cache.begin(3, None) {
                Begin::Ready(r, coalesced) => {
                    assert!(coalesced, "waiter must be marked coalesced");
                    r.iterations
                }
                _ => panic!("waiter must receive the leader's result"),
            });
            std::thread::sleep(Duration::from_millis(30));
            lead.publish(sample());
            assert_eq!(waiter.join().unwrap(), 10);
        });
    }

    #[test]
    fn failed_leader_promotes_a_waiter() {
        let cache = SolveCache::new();
        let lead = match cache.begin(5, None) {
            Begin::Lead(g) => g,
            _ => panic!(),
        };
        std::thread::scope(|s| {
            let waiter = s.spawn(|| match cache.begin(5, None) {
                Begin::Lead(g) => {
                    g.publish(sample());
                    true
                }
                _ => false,
            });
            std::thread::sleep(Duration::from_millis(30));
            drop(lead); // leader dies without publishing
            assert!(waiter.join().unwrap(), "waiter must inherit leadership");
        });
        assert_eq!(cache.len(), 1, "the promoted waiter's publish stuck");
    }

    #[test]
    fn waiting_respects_the_requests_own_deadline() {
        let cache = SolveCache::new();
        let _lead = match cache.begin(9, None) {
            Begin::Lead(g) => g,
            _ => panic!(),
        };
        let token = CancelToken::with_deadline(Instant::now() + Duration::from_millis(40));
        let t0 = Instant::now();
        match cache.begin(9, Some(&token)) {
            Begin::Aborted(CancelCause::DeadlineExceeded) => {}
            _ => panic!("waiter must abort on its own deadline"),
        }
        assert!(t0.elapsed() < Duration::from_secs(2), "abort must be prompt");
    }

    /// Leads `key` and publishes `x`.
    fn publish(cache: &SolveCache, key: u64, x: Vec<f64>) {
        match cache.begin(key, None) {
            Begin::Lead(g) => g.publish(CachedSolve { x, iterations: 1, final_residual: 0.0 }),
            _ => panic!("key {key} must be new"),
        }
    }

    fn is_direct_hit(cache: &SolveCache, key: u64) -> bool {
        matches!(cache.begin(key, None), Begin::Ready(_, false))
    }

    #[test]
    fn one_time_publishes_never_exceed_the_entry_cap() {
        let cache = SolveCache::new();
        for key in 0..1_000 {
            publish(&cache, key, vec![key as f64; 4]);
            assert!(cache.len() <= MAX_ENTRIES, "{} entries after {key}", cache.len());
        }
        assert_eq!(cache.len(), MAX_ENTRIES);
        assert_eq!(cache.evicted(), 1_000 - MAX_ENTRIES as u64);
        // The newest survive, the oldest are gone.
        assert!(is_direct_hit(&cache, 999));
        assert!(matches!(cache.begin(0, None), Begin::Lead(_)));
    }

    #[test]
    fn a_hit_makes_the_entry_the_last_to_go() {
        let cache = SolveCache::new();
        for key in 0..MAX_ENTRIES as u64 {
            publish(&cache, key, vec![1.0; 4]);
        }
        assert!(is_direct_hit(&cache, 0));
        publish(&cache, 1_000, vec![1.0; 4]);
        assert!(is_direct_hit(&cache, 0), "the hit entry stays");
        assert!(matches!(cache.begin(1, None), Begin::Lead(_)), "the least recent went");
    }

    #[test]
    fn a_key_hit_every_16_requests_survives_one_time_traffic() {
        let cache = SolveCache::new();
        publish(&cache, 7, vec![7.0; 4]);
        for key in 1_000..2_000 {
            publish(&cache, key, vec![1.0; 4]);
            if key % 16 == 0 {
                match cache.begin(7, None) {
                    Begin::Ready(r, false) => assert_eq!(r.x, vec![7.0; 4]),
                    _ => panic!("the repeated key must survive the one-time traffic"),
                }
            }
        }
        assert_eq!(cache.len(), MAX_ENTRIES);
    }

    #[test]
    fn the_byte_budget_holds() {
        let per_entry = entry_bytes(&sample_of(100));
        let cache = SolveCache::with_budget(10 * per_entry);
        for key in 0..200 {
            publish(&cache, key, vec![0.5; 100]);
            if key % 3 == 0 {
                assert!(is_direct_hit(&cache, key), "a fresh result is kept");
            }
            assert!(cache.bytes() <= 10 * per_entry, "over budget after {key}");
        }
        assert_eq!(cache.len(), 10);
        assert_eq!(cache.bytes(), 10 * per_entry);
        assert!(is_direct_hit(&cache, 198), "the newest hit entry is kept");
    }

    fn sample_of(n: usize) -> CachedSolve {
        CachedSolve { x: vec![0.0; n], iterations: 1, final_residual: 0.0 }
    }

    #[test]
    fn an_oversized_result_is_not_kept_but_still_reaches_waiters() {
        let cache = SolveCache::with_budget(entry_bytes(&sample_of(8)));
        let lead = match cache.begin(4, None) {
            Begin::Lead(g) => g,
            _ => panic!(),
        };
        std::thread::scope(|s| {
            let waiter = s.spawn(|| match cache.begin(4, None) {
                Begin::Ready(r, true) => r.x.len(),
                _ => panic!("the waiter must coalesce onto the leader"),
            });
            std::thread::sleep(Duration::from_millis(30));
            lead.publish(sample_of(9));
            assert_eq!(waiter.join().unwrap(), 9);
        });
        assert_eq!((cache.len(), cache.bytes(), cache.evicted()), (0, 0, 1));
        assert!(matches!(cache.begin(4, None), Begin::Lead(_)), "not kept");
    }

    #[test]
    fn key_distinguishes_every_identity_component() {
        let base = solve_key(1, 2, 3, 1e-9, 5, 16, Mode::Sim, 42);
        assert_ne!(base, solve_key(9, 2, 3, 1e-9, 5, 16, Mode::Sim, 42));
        assert_ne!(base, solve_key(1, 9, 3, 1e-9, 5, 16, Mode::Sim, 42));
        assert_ne!(base, solve_key(1, 2, 9, 1e-9, 5, 16, Mode::Sim, 42));
        assert_ne!(base, solve_key(1, 2, 3, 1e-8, 5, 16, Mode::Sim, 42));
        assert_ne!(base, solve_key(1, 2, 3, 1e-9, 1, 16, Mode::Sim, 42));
        assert_ne!(base, solve_key(1, 2, 3, 1e-9, 5, 32, Mode::Sim, 42));
        assert_ne!(base, solve_key(1, 2, 3, 1e-9, 5, 16, Mode::Pooled, 42));
        assert_ne!(base, solve_key(1, 2, 3, 1e-9, 5, 16, Mode::Sim, 43));
        // Pooled runs are seed-insensitive by design.
        assert_eq!(
            solve_key(1, 2, 3, 1e-9, 5, 16, Mode::Pooled, 1),
            solve_key(1, 2, 3, 1e-9, 5, 16, Mode::Pooled, 2),
        );
    }
}
