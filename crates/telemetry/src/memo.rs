//! A bounded, singleflight memo of a pure function.
//!
//! Every cache in the Accordion stack memoizes a pure function: a
//! population is a function of its `(topology, seed, count)`, a quality
//! front of its benchmark, a correlation factorization of its site
//! plan, a timing context of its supply, a served response of its
//! request bytes. [`Memo`] is the one implementation they share:
//!
//! * values are handed out as `Arc`s, so an evicted entry stays alive
//!   for as long as a caller holds it;
//! * a miss is **singleflight**: concurrent callers for the same key
//!   wait on one `Arc<OnceLock<_>>` cell while the first computes, and
//!   the map lock is never held across the computation, so distinct
//!   keys compute concurrently. A computation that panics leaves its
//!   cell empty; one waiter then computes in its place, so nobody hangs;
//! * an `Err` from the computation reaches the concurrent waiters but
//!   is never memoized — the next call computes again;
//! * at most `cap` keys are resident, evicted least-recently-used;
//! * a poisoned map lock is recovered explicitly: the map holds only
//!   re-derivable values, so the state a panic left behind is sound.
//!
//! Each memo reports `{name}.hits`, `{name}.misses` and
//! `{name}.evictions` counters and a `{name}.entries` gauge in the
//! [global registry](crate::registry::global), registered when the memo
//! is built. Memos sharing a name (one per server, one per optimizer
//! evaluator) add into the same series. [`Memo::stats`] gives the
//! per-instance counts.
//!
//! # Example
//!
//! ```
//! use accordion_telemetry::memo::Memo;
//!
//! let squares: Memo<u64, u64> = Memo::new("example.squares", 2);
//! assert_eq!(*squares.get_or_insert_with(3, || 9), 9);
//! assert_eq!(*squares.get_or_insert_with(3, || unreachable!()), 9);
//! assert_eq!(squares.stats().hits, 1);
//! ```

use crate::registry::{self, Counter, Gauge};
use std::collections::HashMap;
use std::convert::Infallible;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// The slot one key's callers meet in: empty while the value is being
/// computed, then the published outcome.
type Cell<V, E> = Arc<OnceLock<Result<Arc<V>, E>>>;

struct Slot<V, E> {
    cell: Cell<V, E>,
    last_used: u64,
}

struct Lru<K, V, E> {
    slots: HashMap<K, Slot<V, E>>,
    /// Logical clock stamped on every use; the smallest stamp is the
    /// least recently used key.
    clock: u64,
}

/// Per-instance lookup counts (the registry series aggregate across
/// every memo sharing a name).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Lookups answered without running the computation.
    pub hits: u64,
    /// Lookups that ran the computation.
    pub misses: u64,
    /// Keys dropped to stay within the capacity.
    pub evictions: u64,
}

/// A bounded LRU memo of a pure function `K → Result<V, E>`. See the
/// [module docs](self) for its guarantees.
pub struct Memo<K, V, E = Infallible> {
    cap: usize,
    lru: Mutex<Lru<K, V, E>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    hits_total: &'static Counter,
    misses_total: &'static Counter,
    evictions_total: &'static Counter,
    entries: &'static Gauge,
}

impl<K: Hash + Eq, V, E: Clone> Memo<K, V, E> {
    /// An empty memo holding at most `cap` keys, reporting under
    /// `name`. The four metrics are registered here, so they appear on
    /// `/metrics` before the first lookup.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero.
    pub fn new(name: &str, cap: usize) -> Self {
        assert!(cap > 0, "memo {name} needs a capacity of at least 1");
        let reg = registry::global();
        Self {
            cap,
            lru: Mutex::new(Lru {
                slots: HashMap::new(),
                clock: 0,
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            hits_total: reg.counter(&format!("{name}.hits")),
            misses_total: reg.counter(&format!("{name}.misses")),
            evictions_total: reg.counter(&format!("{name}.evictions")),
            entries: reg.gauge(&format!("{name}.entries")),
        }
    }

    /// The value for `key`, running `compute` only if no value is
    /// resident or in flight. The flag is `true` when this call did
    /// not run `compute` (a resident hit, or a join onto another
    /// caller's computation).
    ///
    /// An `Err` is returned to this call and to every caller that
    /// joined it, then forgotten.
    pub fn fetch(
        &self,
        key: K,
        compute: impl FnOnce() -> Result<V, E>,
    ) -> (Result<Arc<V>, E>, bool) {
        let cell = self.cell(key);
        let mut ran = false;
        let out = cell
            .get_or_init(|| {
                ran = true;
                self.misses.fetch_add(1, Ordering::Relaxed);
                self.misses_total.inc();
                compute().map(Arc::new)
            })
            .clone();
        if !ran {
            self.hits.fetch_add(1, Ordering::Relaxed);
            self.hits_total.inc();
        } else if out.is_err() {
            self.forget(&cell);
        }
        (out, !ran)
    }

    /// Number of resident keys (in-flight ones included).
    pub fn len(&self) -> usize {
        self.lock().slots.len()
    }

    /// `true` when no key is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Most keys resident at once.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// This instance's hit, miss and eviction counts so far.
    pub fn stats(&self) -> MemoStats {
        MemoStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Lru<K, V, E>> {
        self.lru.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The cell for `key`, refreshed to most-recently-used; a new empty
    /// cell (evicting the least-recently-used key at capacity) if the
    /// key is not resident.
    fn cell(&self, key: K) -> Cell<V, E> {
        let mut lru = self.lock();
        lru.clock += 1;
        let now = lru.clock;
        if let Some(slot) = lru.slots.get_mut(&key) {
            slot.last_used = now;
            return slot.cell.clone();
        }
        if lru.slots.len() >= self.cap {
            // A linear scan: it runs only on a miss, which is about to
            // pay for a computation anyway. Stamps are unique, so
            // exactly one key goes.
            let oldest = lru.slots.values().map(|s| s.last_used).min();
            lru.slots.retain(|_, s| Some(s.last_used) != oldest);
            self.evictions.fetch_add(1, Ordering::Relaxed);
            self.evictions_total.inc();
            self.entries.add(-1.0);
        }
        let cell = Cell::default();
        lru.slots.insert(
            key,
            Slot {
                cell: cell.clone(),
                last_used: now,
            },
        );
        self.entries.add(1.0);
        cell
    }

    /// Drops the key whose cell is `cell`, if it is still resident.
    fn forget(&self, cell: &Cell<V, E>) {
        let mut lru = self.lock();
        let before = lru.slots.len();
        lru.slots.retain(|_, s| !Arc::ptr_eq(&s.cell, cell));
        self.entries.add(-((before - lru.slots.len()) as f64));
    }
}

impl<K: Hash + Eq, V> Memo<K, V> {
    /// The value for `key`, running the infallible `compute` only if
    /// no value is resident or in flight.
    pub fn get_or_insert_with(&self, key: K, compute: impl FnOnce() -> V) -> Arc<V> {
        match self.fetch(key, || Ok(compute())).0 {
            Ok(v) => v,
            Err(never) => match never {},
        }
    }
}

impl<K, V, E> Drop for Memo<K, V, E> {
    fn drop(&mut self) {
        let lru = self.lru.get_mut().unwrap_or_else(PoisonError::into_inner);
        self.entries.add(-(lru.slots.len() as f64));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    /// Blocks until `n` lookups have reached the map — the way a test
    /// holds a computation open until its joiners hold the same cell.
    fn await_lookups<K, V, E>(memo: &Memo<K, V, E>, n: u64) {
        while memo.lru.lock().unwrap().clock < n {
            thread::yield_now();
        }
    }

    #[test]
    fn concurrent_callers_for_one_key_compute_once() {
        let memo: Memo<u32, u64> = Memo::new("test.memo.singleflight", 4);
        let runs = AtomicU64::new(0);
        let values: Vec<u64> = thread::scope(|s| {
            let handles: Vec<_> = (0..32)
                .map(|_| {
                    s.spawn(|| {
                        *memo.get_or_insert_with(7, || {
                            runs.fetch_add(1, Ordering::SeqCst);
                            // Every caller holds the empty cell before
                            // the value is published.
                            await_lookups(&memo, 32);
                            49
                        })
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(values.iter().all(|&v| v == 49));
        assert_eq!(runs.load(Ordering::SeqCst), 1);
        let stats = memo.stats();
        assert_eq!((stats.hits, stats.misses), (31, 1));
    }

    #[test]
    fn a_hit_refreshes_its_key_and_the_oldest_key_is_evicted() {
        let memo: Memo<u32, u32> = Memo::new("test.memo.lru", 2);
        let first = memo.get_or_insert_with(1, || 10);
        memo.get_or_insert_with(2, || 20);
        // Touch 1, so 2 is now the least recently used.
        assert!(Arc::ptr_eq(&first, &memo.get_or_insert_with(1, || 0)));
        memo.get_or_insert_with(3, || 30);
        assert_eq!(memo.stats().evictions, 1);
        assert!(Arc::ptr_eq(&first, &memo.get_or_insert_with(1, || 0)));
        assert_eq!(*memo.get_or_insert_with(2, || 21), 21, "2 was evicted");
    }

    #[test]
    fn distinct_keys_past_capacity_evict_the_excess() {
        let memo: Memo<u32, u32> = Memo::new("test.memo.bound", 5);
        for k in 0..5 + 3 {
            memo.get_or_insert_with(k, || k);
        }
        assert_eq!(memo.len(), memo.capacity());
        assert_eq!(memo.stats().evictions, 3);
        assert_eq!(memo.stats().misses, 8);
    }

    #[test]
    fn errors_reach_joiners_and_are_not_memoized() {
        let memo: Memo<u32, u32, String> = Memo::new("test.memo.errors", 4);
        let (leader, joiner) = thread::scope(|s| {
            let leader = s.spawn(|| {
                memo.fetch(1, || {
                    await_lookups(&memo, 2);
                    Err("boom".to_string())
                })
            });
            await_lookups(&memo, 1);
            let joiner = memo.fetch(1, || Ok(99));
            (leader.join().unwrap(), joiner)
        });
        assert_eq!(leader, (Err("boom".to_string()), false));
        assert_eq!(joiner, (Err("boom".to_string()), true));
        assert!(memo.is_empty(), "an error is never resident");
        let (next, hit) = memo.fetch(1, || Ok(5));
        assert_eq!((next.map(|v| *v), hit), (Ok(5), false));
    }

    #[test]
    fn a_panicking_compute_leaves_no_hung_joiner_or_poisoned_lock() {
        let memo: Memo<u32, u32> = Memo::new("test.memo.panic", 4);
        let (leader, joiner) = thread::scope(|s| {
            let leader = s.spawn(|| {
                memo.get_or_insert_with(1, || {
                    await_lookups(&memo, 2);
                    panic!("compute failed")
                })
            });
            await_lookups(&memo, 1);
            // Holds the leader's cell; once the leader unwinds it
            // computes in the leader's place.
            let joiner = *memo.get_or_insert_with(1, || 11);
            (leader.join(), joiner)
        });
        assert!(leader.is_err(), "the leader's panic reaches the leader");
        assert_eq!(joiner, 11);
        assert!(!memo.lru.is_poisoned());
        assert_eq!(*memo.get_or_insert_with(1, || 0), 11);
        assert_eq!(*memo.get_or_insert_with(2, || 22), 22);
    }

    #[test]
    fn metrics_are_registered_up_front_and_track_entries() {
        let reg = registry::global();
        {
            let memo: Memo<u32, u32> = Memo::new("test.memo.metrics", 2);
            assert_eq!(reg.counter("test.memo.metrics.hits").get(), 0);
            for k in 0..3 {
                memo.get_or_insert_with(k, || k);
            }
            memo.get_or_insert_with(2, || 0);
            assert_eq!(reg.counter("test.memo.metrics.hits").get(), 1);
            assert_eq!(reg.counter("test.memo.metrics.misses").get(), 3);
            assert_eq!(reg.counter("test.memo.metrics.evictions").get(), 1);
            assert_eq!(reg.gauge("test.memo.metrics.entries").get(), 2.0);
        }
        assert_eq!(reg.gauge("test.memo.metrics.entries").get(), 0.0);
    }
}
