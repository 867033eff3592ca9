//! The thread-safe, memoizing artifact store.
//!
//! A sweep fans (workload × model × config) points out over worker
//! threads; many points share a compile key (the same schedule measured
//! under several machine configurations, engines or penalties), and every
//! model of one workload shares a training profile.  The cache memoizes
//! both levels — compiled artifacts keyed by the full request, edge
//! profiles keyed by the training program — each behind one mutex.
//!
//! # Concurrency discipline
//!
//! Lookups are **single-flight**: the first thread to miss a key installs
//! a pending marker and compiles with the lock released; concurrent
//! requests for the same key park on the memo's condvar until the
//! artifact lands, rather than compiling a duplicate.  One condvar serves
//! every key of a memo, so a completion wakes the waiters on other keys
//! too; each re-checks its own key and parks again while it is pending.
//! This keeps the hit/miss counters deterministic — a sweep with N
//! distinct points records exactly N misses at *any* `--jobs` count —
//! which CI relies on.  A failed compile removes the marker and wakes the
//! waiters, who retry (and re-fail) themselves; so does a compile that
//! panics, so a scheduler bug fails each request that reaches it instead
//! of parking every later lookup of the key forever.
//!
//! The lock guards only a map probe or insert, never a compile, so one
//! lock per memo waits well under a microsecond on average even under
//! `--jobs 4` (DESIGN §11.3).  Nothing is evicted: a cache lives as long
//! as its owner (one sweep, one fuzz case, one server).

use crate::CompiledArtifact;
use psb_scalar::EdgeProfile;
use psb_telemetry::Telemetry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

#[derive(Debug)]
enum Slot<V> {
    /// A thread is compiling this key; wait on the memo's condvar.
    Pending,
    /// The finished value.
    Ready(V),
}

/// A single-flight memo table: one map behind one mutex, one condvar
/// signalled whenever a slot leaves `Pending`.
#[derive(Debug)]
struct SingleFlight<V> {
    map: Mutex<HashMap<u64, Slot<V>>>,
    ready: Condvar,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Host-only histogram of the time spent acquiring `map`.
    lock_wait: &'static str,
    /// Host-only histogram of the time spent parked behind another
    /// thread's compute of the same key.
    flight_wait: &'static str,
}

impl<V: Clone> SingleFlight<V> {
    fn new(lock_wait: &'static str, flight_wait: &'static str) -> SingleFlight<V> {
        SingleFlight {
            map: Mutex::new(HashMap::new()),
            ready: Condvar::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            lock_wait,
            flight_wait,
        }
    }

    fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Finished values currently held (pending computes excluded).
    fn entries(&self) -> u64 {
        let map = self.map.lock().expect("cache memo poisoned");
        map.values()
            .filter(|slot| matches!(slot, Slot::Ready(_)))
            .count() as u64
    }

    /// Locks the map, recording how long that took.
    fn lock<T: Telemetry>(&self, tel: &T) -> MutexGuard<'_, HashMap<u64, Slot<V>>> {
        let start = tel.now_ns();
        let map = self.map.lock().expect("cache memo poisoned");
        tel.observe_host(self.lock_wait, tel.now_ns().saturating_sub(start));
        map
    }

    /// Returns the memoized value for `key`, or runs `compute` exactly
    /// once per key across all threads (modulo failures).
    ///
    /// Contention telemetry goes through the host-only channels: how
    /// long this thread waited for the mutex (`lock_wait`) and, when it
    /// found a `Pending` marker, how long it parked on the condvar behind
    /// another thread's compile (`flight_wait`).  Both are
    /// scheduling-dependent by nature, so a deterministic-mode recorder
    /// drops them; a `NullTelemetry` carrier compiles all of this to the
    /// bare lock operations.
    fn get_or_compute<E, T: Telemetry>(
        &self,
        key: u64,
        tel: &T,
        compute: impl FnOnce() -> Result<V, E>,
    ) -> Result<V, E> {
        let mut map = self.lock(tel);
        let mut wait_start = None;
        let found = loop {
            match map.get(&key) {
                Some(Slot::Ready(v)) => break Some(v.clone()),
                // Any key's completion wakes this wait, so re-check.
                Some(Slot::Pending) => {
                    wait_start.get_or_insert_with(|| tel.now_ns());
                    map = self.ready.wait(map).expect("cache memo poisoned");
                }
                None => break None,
            }
        };
        if let Some(start) = wait_start {
            // Parked behind another thread's compile of this key, which
            // either landed or failed (then this thread retries).
            tel.observe_host(self.flight_wait, tel.now_ns().saturating_sub(start));
        }
        if let Some(v) = found {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(v);
        }
        map.insert(key, Slot::Pending);
        self.misses.fetch_add(1, Ordering::Relaxed);
        drop(map);

        let unwinding = ReleaseOnUnwind { memo: self, key };
        let result = compute();
        std::mem::forget(unwinding);

        let mut map = self.lock(tel);
        match &result {
            Ok(v) => map.insert(key, Slot::Ready(v.clone())),
            Err(_) => map.remove(&key),
        };
        self.ready.notify_all();
        result
    }
}

/// Armed while a miss computes: if `compute` unwinds, the drop removes
/// the key's `Pending` marker and wakes the waiters, as a failed compute
/// does, so they retry instead of parking on a marker nobody resolves.
/// The normal return path disarms it with `mem::forget`.
struct ReleaseOnUnwind<'a, V> {
    memo: &'a SingleFlight<V>,
    key: u64,
}

impl<V> Drop for ReleaseOnUnwind<'_, V> {
    fn drop(&mut self) {
        // The lock is not held across `compute`, so this unwind did not
        // poison it.  Another thread's poisoning is tolerated: panicking
        // here, while unwinding, would abort the process.
        let mut map = self.memo.map.lock().unwrap_or_else(PoisonError::into_inner);
        map.remove(&self.key);
        self.memo.ready.notify_all();
    }
}

/// A training profile memo entry: the profile plus what producing it
/// cost, so cache-served compiles report the original stage timing.
#[derive(Clone, Debug)]
pub(crate) struct ProfileEntry {
    /// The recorded edge profile, shared by every artifact compiled
    /// from it.
    pub profile: Arc<EdgeProfile>,
    /// Wall seconds of the scalar training run (rounded).
    pub seconds: f64,
    /// Dynamic branches the run recorded.
    pub branches: u64,
}

/// Thread-safe memoizing store for [`CompiledArtifact`]s and training
/// profiles, shared by all workers of a sweep.
#[derive(Debug)]
pub struct ArtifactCache {
    artifacts: SingleFlight<Arc<CompiledArtifact>>,
    profiles: SingleFlight<Arc<ProfileEntry>>,
}

impl ArtifactCache {
    /// An empty cache.  It never evicts: it holds every artifact it
    /// compiles for as long as it lives.
    pub fn new() -> ArtifactCache {
        ArtifactCache {
            artifacts: SingleFlight::new(
                "cache.artifact.lock_wait_ns",
                "cache.artifact.singleflight_wait_ns",
            ),
            profiles: SingleFlight::new(
                "cache.profile.lock_wait_ns",
                "cache.profile.singleflight_wait_ns",
            ),
        }
    }

    /// Snapshot of the hit/miss/entry counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.artifacts.hits(),
            misses: self.artifacts.misses(),
            entries: self.artifacts.entries(),
            profile_hits: self.profiles.hits(),
            profile_misses: self.profiles.misses(),
        }
    }

    pub(crate) fn artifact<E, T: Telemetry>(
        &self,
        key: u64,
        tel: &T,
        compute: impl FnOnce() -> Result<Arc<CompiledArtifact>, E>,
    ) -> Result<Arc<CompiledArtifact>, E> {
        self.artifacts.get_or_compute(key, tel, compute)
    }

    pub(crate) fn profile<E, T: Telemetry>(
        &self,
        key: u64,
        tel: &T,
        compute: impl FnOnce() -> Result<Arc<ProfileEntry>, E>,
    ) -> Result<Arc<ProfileEntry>, E> {
        self.profiles.get_or_compute(key, tel, compute)
    }
}

impl Default for ArtifactCache {
    fn default() -> ArtifactCache {
        ArtifactCache::new()
    }
}

/// Counter snapshot surfaced by `repro compile` / the bench cache check
/// (rendered to JSON by the eval crate, like an `ObsReport`).
///
/// With single-flight lookups, `misses` equals the number of *distinct*
/// compile requests regardless of thread count — the deterministic
/// property CI asserts on.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CacheStats {
    /// Artifact requests served from the cache.
    pub hits: u64,
    /// Artifact requests that compiled (one per distinct key).
    pub misses: u64,
    /// Artifacts currently resident.
    pub entries: u64,
    /// Training-profile stage requests served from the memo.
    pub profile_hits: u64,
    /// Training-profile stage requests that ran the scalar machine.
    pub profile_misses: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use psb_telemetry::{NullTelemetry, Recorder};
    use std::sync::mpsc;
    use std::time::Duration;

    fn memo<V: Clone>() -> SingleFlight<V> {
        SingleFlight::new(
            "cache.artifact.lock_wait_ns",
            "cache.artifact.singleflight_wait_ns",
        )
    }

    fn get<V: Clone, E>(
        sf: &SingleFlight<V>,
        key: u64,
        compute: impl FnOnce() -> Result<V, E>,
    ) -> Result<V, E> {
        sf.get_or_compute(key, &NullTelemetry, compute)
    }

    #[test]
    fn single_flight_computes_each_key_once() {
        let sf: SingleFlight<u64> = memo();
        let computed = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for key in 0..16u64 {
                        let v = get::<_, ()>(&sf, key, || {
                            computed.fetch_add(1, Ordering::Relaxed);
                            // Widen the race window so waiters really
                            // do find a Pending marker.
                            std::thread::sleep(Duration::from_millis(1));
                            Ok(key * 10)
                        })
                        .unwrap();
                        assert_eq!(v, key * 10);
                    }
                });
            }
        });
        assert_eq!(computed.load(Ordering::Relaxed), 16, "duplicate compute");
        assert_eq!(sf.misses(), 16);
        assert_eq!(sf.hits(), 8 * 16 - 16);
        assert_eq!(sf.entries(), 16);
    }

    #[test]
    fn failures_release_the_pending_marker() {
        let sf: SingleFlight<u64> = memo();
        assert_eq!(get(&sf, 7, || Err::<u64, &str>("boom")), Err("boom"));
        // The key is retryable, not wedged.
        assert_eq!(get::<_, &str>(&sf, 7, || Ok(42)), Ok(42));
        assert_eq!(get::<_, &str>(&sf, 7, || Ok(0)), Ok(42));
    }

    #[test]
    fn a_panicking_compute_releases_the_pending_marker() {
        let sf: Arc<SingleFlight<u64>> = Arc::new(memo());
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            get::<_, ()>(&sf, 5, || panic!("compute panicked"))
        }));
        assert!(caught.is_err(), "the panic reaches the caller");
        // A stranded marker would park this lookup forever, so it runs on
        // its own thread, joined only once it has answered in time.
        let (tx, rx) = mpsc::channel();
        let sf2 = Arc::clone(&sf);
        let lookup = std::thread::spawn(move || {
            let mut reran = 0;
            let v = get::<_, ()>(&sf2, 5, || {
                reran += 1;
                Ok(42)
            });
            tx.send((v, reran)).expect("the test is waiting");
        });
        let (v, reran) = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("second lookup parked behind the panicked compute's marker");
        lookup.join().expect("lookup thread");
        assert_eq!(v, Ok(42));
        assert_eq!(reran, 1, "the second lookup runs compute again");
        assert_eq!(sf.misses(), 2);
    }

    #[test]
    fn a_waiter_woken_by_another_key_parks_again() {
        let sf: Arc<SingleFlight<u64>> = Arc::new(memo());
        let computed = Arc::new(AtomicU64::new(0));
        // Thread A computes key 1 and holds it pending until released.
        let (started_tx, started_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let a = {
            let (sf, computed) = (Arc::clone(&sf), Arc::clone(&computed));
            std::thread::spawn(move || {
                get::<_, ()>(&sf, 1, || {
                    computed.fetch_add(1, Ordering::Relaxed);
                    started_tx.send(()).expect("the test is waiting");
                    // A dropped sender (the test failed) releases too.
                    let _ = release_rx.recv();
                    Ok(10)
                })
            })
        };
        started_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("thread A starts computing key 1");
        // Thread W looks key 1 up and parks behind A's marker.  A lost
        // wakeup would park it forever, so it answers through a channel.
        let (tx, rx) = mpsc::channel();
        let w = {
            let (sf, computed) = (Arc::clone(&sf), Arc::clone(&computed));
            std::thread::spawn(move || {
                let v = get::<_, ()>(&sf, 1, || {
                    computed.fetch_add(1, Ordering::Relaxed);
                    Ok(0)
                });
                tx.send(v).expect("the test is waiting");
            })
        };
        // Widen the window for W to park, then complete key 2: its
        // notify_all wakes W, which finds key 1 still pending.
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(get::<_, ()>(&sf, 2, || Ok(20)), Ok(20));
        assert!(
            rx.recv_timeout(Duration::from_millis(50)).is_err(),
            "W answered before key 1 landed"
        );
        release_tx.send(()).expect("thread A is computing");
        let v = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("W missed key 1's wakeup");
        w.join().expect("thread W");
        assert_eq!(a.join().expect("thread A"), Ok(10));
        assert_eq!(v, Ok(10), "W returns A's value");
        assert_eq!(computed.load(Ordering::Relaxed), 1, "key 1 computed once");
        assert_eq!((sf.misses(), sf.hits()), (2, 1));
    }

    #[test]
    fn contended_waits_reach_host_telemetry_only() {
        let rec = Recorder::new(false);
        let sf: SingleFlight<u64> = memo();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let v = sf
                        .get_or_compute::<(), _>(9, &rec, || {
                            std::thread::sleep(Duration::from_millis(5));
                            Ok(90)
                        })
                        .unwrap();
                    assert_eq!(v, 90);
                });
            }
        });
        let rep = rec.report();
        // Lock waits are observed on every acquisition; single-flight
        // waits only by threads that really parked behind the Pending
        // marker (0 to 3 of the losers, depending on scheduling).
        let lock = rep
            .histograms
            .iter()
            .find(|(n, _)| n == "cache.artifact.lock_wait_ns")
            .expect("lock-wait histogram");
        assert!(lock.1.count >= 4);
        if let Some(flight) = rep
            .histograms
            .iter()
            .find(|(n, _)| n == "cache.artifact.singleflight_wait_ns")
        {
            assert!(flight.1.count <= 3);
        }
        // In deterministic mode the same workload records nothing.
        let det = Recorder::new(true);
        let sf2: SingleFlight<u64> = memo();
        sf2.get_or_compute::<(), _>(9, &det, || Ok(1)).unwrap();
        assert!(det.report().histograms.is_empty());
    }
}
