//! The thread-safe, memoizing artifact store.
//!
//! A sweep fans (workload × model × config) points out over worker
//! threads; many points share a compile key (the same schedule measured
//! under several machine configurations, engines or penalties), and every
//! model of one workload shares a training profile.  The cache memoizes
//! both levels — compiled artifacts keyed by the full request, edge
//! profiles keyed by the training program — behind sharded mutexes.
//!
//! # Concurrency discipline
//!
//! Lookups are **single-flight**: the first thread to miss a key installs
//! a pending marker and compiles with the shard unlocked; concurrent
//! requests for the same key block on the shard's condvar until the
//! artifact lands, rather than compiling a duplicate.  This keeps the
//! hit/miss counters deterministic — a sweep with N distinct points
//! records exactly N misses at *any* `--jobs` count — which CI relies on.
//! A failed compile removes the marker and wakes the waiters, who retry
//! (and re-fail) themselves; so does a compile that panics, so a
//! scheduler bug fails each request that reaches it instead of parking
//! every later lookup of the key forever.
//!
//! Eviction is FIFO per shard, only used by bounded caches (the fuzz
//! harness caps its cache so million-case sweeps stay in memory); the
//! experiment drivers use unbounded caches whose lifetime is one sweep.

use crate::CompiledArtifact;
use psb_scalar::EdgeProfile;
use psb_telemetry::Telemetry;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};

/// Shard count; keys are avalanched, so low bits select uniformly.
pub const SHARD_COUNT: usize = 8;
const SHARDS: usize = SHARD_COUNT;

/// Per-shard telemetry histogram names, fixed at compile time so the
/// hot path never allocates a metric name.  The array type pins the
/// literal count to [`SHARD_COUNT`].
macro_rules! shard_names {
    ($prefix:literal) => {
        [
            concat!($prefix, "0"),
            concat!($prefix, "1"),
            concat!($prefix, "2"),
            concat!($prefix, "3"),
            concat!($prefix, "4"),
            concat!($prefix, "5"),
            concat!($prefix, "6"),
            concat!($prefix, "7"),
        ]
    };
}

static ARTIFACT_LOCK_WAIT: [&str; SHARDS] = shard_names!("cache.artifact.lock_wait_ns.shard");
static ARTIFACT_FLIGHT_WAIT: [&str; SHARDS] =
    shard_names!("cache.artifact.singleflight_wait_ns.shard");
static PROFILE_LOCK_WAIT: [&str; SHARDS] = shard_names!("cache.profile.lock_wait_ns.shard");
static PROFILE_FLIGHT_WAIT: [&str; SHARDS] =
    shard_names!("cache.profile.singleflight_wait_ns.shard");

#[derive(Debug)]
enum Slot<V> {
    /// A thread is compiling this key; wait on the shard condvar.
    Pending,
    /// The finished value.
    Ready(V),
}

#[derive(Debug)]
struct ShardState<V> {
    map: HashMap<u64, Slot<V>>,
    /// Ready keys in completion order (FIFO eviction victims).
    order: VecDeque<u64>,
}

#[derive(Debug)]
struct Shard<V> {
    state: Mutex<ShardState<V>>,
    ready: Condvar,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

/// A sharded, single-flight memo table.
#[derive(Debug)]
struct SingleFlight<V> {
    shards: Vec<Shard<V>>,
    /// Per-shard capacity (`None` = unbounded).
    shard_capacity: Option<usize>,
}

impl<V: Clone> SingleFlight<V> {
    fn new(capacity: Option<usize>) -> SingleFlight<V> {
        SingleFlight {
            shards: (0..SHARDS)
                .map(|_| Shard {
                    state: Mutex::new(ShardState {
                        map: HashMap::new(),
                        order: VecDeque::new(),
                    }),
                    ready: Condvar::new(),
                    hits: AtomicU64::new(0),
                    misses: AtomicU64::new(0),
                    evictions: AtomicU64::new(0),
                })
                .collect(),
            shard_capacity: capacity.map(|c| c.div_ceil(SHARDS).max(1)),
        }
    }

    /// Per-shard counter snapshot (shard index = array index).
    fn shard_stats(&self) -> [ShardStats; SHARDS] {
        let mut out = [ShardStats::default(); SHARDS];
        for (stats, shard) in out.iter_mut().zip(&self.shards) {
            *stats = ShardStats {
                hits: shard.hits.load(Ordering::Relaxed),
                misses: shard.misses.load(Ordering::Relaxed),
                evictions: shard.evictions.load(Ordering::Relaxed),
                entries: shard
                    .state
                    .lock()
                    .expect("cache shard poisoned")
                    .order
                    .len() as u64,
            };
        }
        out
    }

    fn hits(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.hits.load(Ordering::Relaxed))
            .sum()
    }

    fn misses(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.misses.load(Ordering::Relaxed))
            .sum()
    }

    fn evictions(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.evictions.load(Ordering::Relaxed))
            .sum()
    }

    fn entries(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.state.lock().expect("cache shard poisoned").order.len() as u64)
            .sum()
    }

    /// Returns the memoized value for `key`, or runs `compute` exactly
    /// once per key across all threads (modulo failures and eviction).
    ///
    /// Contention telemetry goes through the host-only channels: how
    /// long this thread waited for the shard mutex (`lock_wait`) and,
    /// when it found a `Pending` marker, how long it parked on the
    /// condvar behind another thread's compile (`flight_wait`).  Both
    /// are scheduling-dependent by nature, so a deterministic-mode
    /// recorder drops them; a `NullTelemetry` carrier compiles all of
    /// this to the bare lock operations.
    fn get_or_compute<E, T: Telemetry>(
        &self,
        key: u64,
        tel: &T,
        lock_wait: &[&'static str; SHARDS],
        flight_wait: &[&'static str; SHARDS],
        compute: impl FnOnce() -> Result<V, E>,
    ) -> Result<V, E> {
        let idx = key as usize % SHARDS;
        let shard = &self.shards[idx];
        let lock_start = tel.now_ns();
        let mut st = shard.state.lock().expect("cache shard poisoned");
        tel.observe_host(lock_wait[idx], tel.now_ns().saturating_sub(lock_start));
        let mut wait_start = None;
        loop {
            match st.map.get(&key) {
                Some(Slot::Ready(v)) => {
                    if let Some(start) = wait_start {
                        tel.observe_host(flight_wait[idx], tel.now_ns().saturating_sub(start));
                    }
                    shard.hits.fetch_add(1, Ordering::Relaxed);
                    return Ok(v.clone());
                }
                Some(Slot::Pending) => {
                    wait_start.get_or_insert_with(|| tel.now_ns());
                    st = shard.ready.wait(st).expect("cache shard poisoned");
                }
                None => break,
            }
        }
        if let Some(start) = wait_start {
            // Waited behind a compile that failed; this thread retries.
            tel.observe_host(flight_wait[idx], tel.now_ns().saturating_sub(start));
        }
        st.map.insert(key, Slot::Pending);
        shard.misses.fetch_add(1, Ordering::Relaxed);
        drop(st);

        let unwinding = ReleaseOnUnwind { shard, key };
        let result = compute();
        std::mem::forget(unwinding);

        let lock_start = tel.now_ns();
        let mut st = shard.state.lock().expect("cache shard poisoned");
        tel.observe_host(lock_wait[idx], tel.now_ns().saturating_sub(lock_start));
        match result {
            Ok(v) => {
                st.map.insert(key, Slot::Ready(v.clone()));
                st.order.push_back(key);
                if let Some(cap) = self.shard_capacity {
                    // The key just pushed is never the front while another
                    // entry exists, so the insert itself survives.
                    while st.order.len() > cap {
                        let oldest = st.order.pop_front().expect("len > cap >= 1");
                        if st.map.remove(&oldest).is_some() {
                            shard.evictions.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                shard.ready.notify_all();
                Ok(v)
            }
            Err(e) => {
                st.map.remove(&key);
                shard.ready.notify_all();
                Err(e)
            }
        }
    }
}

/// Armed while a miss computes: if `compute` unwinds, the drop removes
/// the key's `Pending` marker and wakes the waiters, as a failed compute
/// does, so they retry instead of parking on a marker nobody resolves.
/// The normal return path disarms it with `mem::forget`.
struct ReleaseOnUnwind<'a, V> {
    shard: &'a Shard<V>,
    key: u64,
}

impl<V> Drop for ReleaseOnUnwind<'_, V> {
    fn drop(&mut self) {
        // The lock is not held across `compute`, so this unwind did not
        // poison it.  Another thread's poisoning is tolerated: panicking
        // here, while unwinding, would abort the process.
        let mut st = self
            .shard
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        st.map.remove(&self.key);
        self.shard.ready.notify_all();
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
    /// An unbounded cache (the experiment drivers: one sweep, one cache).
    pub fn new() -> ArtifactCache {
        ArtifactCache {
            artifacts: SingleFlight::new(None),
            profiles: SingleFlight::new(None),
        }
    }

    /// A cache holding at most ~`capacity` artifacts (FIFO eviction), for
    /// open-ended consumers like the fuzz harness.
    pub fn with_capacity(capacity: usize) -> ArtifactCache {
        ArtifactCache {
            artifacts: SingleFlight::new(Some(capacity)),
            profiles: SingleFlight::new(Some(capacity)),
        }
    }

    /// Snapshot of the hit/miss/eviction counters, with the artifact
    /// side's per-shard breakdown.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.artifacts.hits(),
            misses: self.artifacts.misses(),
            evictions: self.artifacts.evictions(),
            entries: self.artifacts.entries(),
            profile_hits: self.profiles.hits(),
            profile_misses: self.profiles.misses(),
            shards: self.artifacts.shard_stats(),
        }
    }

    pub(crate) fn artifact<E, T: Telemetry>(
        &self,
        key: u64,
        tel: &T,
        compute: impl FnOnce() -> Result<Arc<CompiledArtifact>, E>,
    ) -> Result<Arc<CompiledArtifact>, E> {
        self.artifacts.get_or_compute(
            key,
            tel,
            &ARTIFACT_LOCK_WAIT,
            &ARTIFACT_FLIGHT_WAIT,
            compute,
        )
    }

    pub(crate) fn profile<E, T: Telemetry>(
        &self,
        key: u64,
        tel: &T,
        compute: impl FnOnce() -> Result<Arc<ProfileEntry>, E>,
    ) -> Result<Arc<ProfileEntry>, E> {
        self.profiles
            .get_or_compute(key, tel, &PROFILE_LOCK_WAIT, &PROFILE_FLIGHT_WAIT, compute)
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
/// With single-flight lookups and no eviction pressure, `misses` equals
/// the number of *distinct* compile requests regardless of thread count —
/// the deterministic property CI asserts on.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CacheStats {
    /// Artifact requests served from the cache.
    pub hits: u64,
    /// Artifact requests that compiled (one per distinct key).
    pub misses: u64,
    /// Artifacts evicted by a bounded cache's FIFO.
    pub evictions: u64,
    /// Artifacts currently resident.
    pub entries: u64,
    /// Training-profile stage requests served from the memo.
    pub profile_hits: u64,
    /// Training-profile stage requests that ran the scalar machine.
    pub profile_misses: u64,
    /// The artifact side's counters broken down by shard (index =
    /// shard number).  Which shard a key lands in is a stable function
    /// of the key, so this breakdown is as jobs-deterministic as the
    /// totals.
    pub shards: [ShardStats; SHARD_COUNT],
}

/// One shard's slice of the artifact cache counters.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ShardStats {
    /// Requests this shard served from its map.
    pub hits: u64,
    /// Requests this shard compiled.
    pub misses: u64,
    /// Entries this shard's FIFO evicted.
    pub evictions: u64,
    /// Entries currently resident in this shard.
    pub entries: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use psb_telemetry::{NullTelemetry, Recorder};

    fn get<V: Clone, E>(
        sf: &SingleFlight<V>,
        key: u64,
        compute: impl FnOnce() -> Result<V, E>,
    ) -> Result<V, E> {
        sf.get_or_compute(
            key,
            &NullTelemetry,
            &ARTIFACT_LOCK_WAIT,
            &ARTIFACT_FLIGHT_WAIT,
            compute,
        )
    }

    #[test]
    fn single_flight_computes_each_key_once() {
        let sf: SingleFlight<u64> = SingleFlight::new(None);
        let computed = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for key in 0..16u64 {
                        let v = get::<_, ()>(&sf, key, || {
                            computed.fetch_add(1, Ordering::Relaxed);
                            // Widen the race window so waiters really
                            // do find a Pending marker.
                            std::thread::sleep(std::time::Duration::from_millis(1));
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
        // Shard counters sum to the totals and attribute by key.
        let shards = sf.shard_stats();
        assert_eq!(shards.iter().map(|s| s.misses).sum::<u64>(), 16);
        assert_eq!(shards.iter().map(|s| s.entries).sum::<u64>(), 16);
        assert_eq!(shards[3].misses, 2, "keys 3 and 11 land in shard 3");
    }

    #[test]
    fn failures_release_the_pending_marker() {
        let sf: SingleFlight<u64> = SingleFlight::new(None);
        assert_eq!(get(&sf, 7, || Err::<u64, &str>("boom")), Err("boom"));
        // The key is retryable, not wedged.
        assert_eq!(get::<_, &str>(&sf, 7, || Ok(42)), Ok(42));
        assert_eq!(get::<_, &str>(&sf, 7, || Ok(0)), Ok(42));
    }

    #[test]
    fn a_panicking_compute_releases_the_pending_marker() {
        let sf: Arc<SingleFlight<u64>> = Arc::new(SingleFlight::new(None));
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            get::<_, ()>(&sf, 5, || panic!("compute panicked"))
        }));
        assert!(caught.is_err(), "the panic reaches the caller");
        // A stranded marker would park this lookup forever, so it runs on
        // its own thread, joined only once it has answered in time.
        let (tx, rx) = std::sync::mpsc::channel();
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
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("second lookup parked behind the panicked compute's marker");
        lookup.join().expect("lookup thread");
        assert_eq!(v, Ok(42));
        assert_eq!(reran, 1, "the second lookup runs compute again");
        assert_eq!(sf.misses(), 2);
    }

    #[test]
    fn bounded_cache_evicts_fifo() {
        let sf: SingleFlight<u64> = SingleFlight::new(Some(SHARDS));
        // Shard capacity is 1: a second distinct key in one shard evicts
        // the first.  Keys k and k + SHARDS land in the same shard.
        get::<_, ()>(&sf, 3, || Ok(1)).unwrap();
        get::<_, ()>(&sf, 3 + SHARDS as u64, || Ok(2)).unwrap();
        assert_eq!(sf.evictions(), 1);
        // The evicted key recomputes.
        get::<_, ()>(&sf, 3, || Ok(10)).unwrap();
        assert_eq!(sf.misses(), 3);
        assert_eq!(sf.entries(), 1);
        // Both evictions (key 3 by key 11, then key 11 by the refilled
        // key 3) happened in shard 3.
        assert_eq!(sf.shard_stats()[3].evictions, 2);
        assert_eq!(sf.evictions(), 2);
    }

    #[test]
    fn contended_waits_reach_host_telemetry_only() {
        let rec = Recorder::new(false);
        let sf: SingleFlight<u64> = SingleFlight::new(None);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let v = sf
                        .get_or_compute::<(), _>(
                            9,
                            &rec,
                            &ARTIFACT_LOCK_WAIT,
                            &ARTIFACT_FLIGHT_WAIT,
                            || {
                                std::thread::sleep(std::time::Duration::from_millis(5));
                                Ok(90)
                            },
                        )
                        .unwrap();
                    assert_eq!(v, 90);
                });
            }
        });
        let rep = rec.report();
        // Key 9 -> shard 1.  Lock waits are observed on every
        // acquisition; single-flight waits only by threads that really
        // parked behind the Pending marker (0 to 3 of the losers,
        // depending on scheduling).
        let lock = rep
            .histograms
            .iter()
            .find(|(n, _)| n == "cache.artifact.lock_wait_ns.shard1")
            .expect("lock-wait histogram");
        assert!(lock.1.count >= 4);
        if let Some(flight) = rep
            .histograms
            .iter()
            .find(|(n, _)| n == "cache.artifact.singleflight_wait_ns.shard1")
        {
            assert!(flight.1.count <= 3);
        }
        // In deterministic mode the same workload records nothing.
        let det = Recorder::new(true);
        let sf2: SingleFlight<u64> = SingleFlight::new(None);
        sf2.get_or_compute::<(), _>(9, &det, &ARTIFACT_LOCK_WAIT, &ARTIFACT_FLIGHT_WAIT, || {
            Ok(1)
        })
        .unwrap();
        assert!(det.report().histograms.is_empty());
    }
}
