//! Integration tests of the persistent artifact store: round-trip
//! fidelity, validation-on-load of corrupted/truncated files (typed
//! errors, never panics, always recoverable by recompiling), and the
//! cross-store (simulated cross-process) fill path.

use psb_compile::{
    compile_stored, decode_artifact, encode_artifact, ArtifactCache, ArtifactSource,
    CompileRequest, DiskStore, ProfileSource, StoreError, STORE_VERSION,
};
use psb_scalar::ScalarConfig;
use psb_sched::{Model, SchedConfig};
use psb_telemetry::NullTelemetry;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// A fresh per-test scratch directory (std-only; no tempfile crate).
fn scratch(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "psb_store_test_{}_{}_{tag}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

struct Fixture {
    train: psb_workloads::Workload,
    eval: psb_workloads::Workload,
    sched: SchedConfig,
}

impl Fixture {
    fn new(model: Model) -> Fixture {
        Fixture {
            train: psb_workloads::by_name("grep", 7, 96).expect("grep exists"),
            eval: psb_workloads::by_name("grep", 11, 96).expect("grep exists"),
            sched: SchedConfig::new(model),
        }
    }

    fn request(&self) -> CompileRequest<'_> {
        CompileRequest {
            program: &self.eval.program,
            profile: ProfileSource::Train {
                program: &self.train.program,
                config: ScalarConfig::default(),
            },
            sched: self.sched.clone(),
        }
    }
}

#[test]
fn artifact_round_trips_through_the_store() {
    let fx = Fixture::new(Model::RegionPred);
    let dir = scratch("roundtrip");

    // First process: compile fresh, persisting into the store.
    let store = DiskStore::open(&dir).expect("open store");
    let cache = ArtifactCache::new();
    let (fresh, source) =
        compile_stored(&fx.request(), &cache, Some(&store), &NullTelemetry).expect("compile");
    assert_eq!(source, ArtifactSource::Compiled);
    assert_eq!(
        store.stats().writes,
        1,
        "the fresh compile must persist its artifact"
    );
    assert!(store.path_for(fx.request().key()).exists());

    // "Second process": new store handle, new memory cache — the load
    // must come from disk and reproduce the artifact bit-for-bit where
    // it matters (hash, program, profile, derived stats).
    let store2 = DiskStore::open(&dir).expect("reopen store");
    let cache2 = ArtifactCache::new();
    let (loaded, source2) =
        compile_stored(&fx.request(), &cache2, Some(&store2), &NullTelemetry).expect("load");
    assert_eq!(source2, ArtifactSource::Disk);
    assert_eq!(store2.stats().hits, 1);
    assert_eq!(store2.stats().writes, 0, "a disk hit must not re-save");
    assert_eq!(loaded.content_hash, fresh.content_hash);
    assert_eq!(loaded.request_key, fresh.request_key);
    assert_eq!(loaded.program, fresh.program);
    assert_eq!(loaded.sched_stats, fresh.sched_stats);
    assert_eq!(loaded.stats.words, fresh.stats.words);
    assert_eq!(loaded.stats.slots, fresh.stats.slots);
    assert_eq!(loaded.stats.profile_branches, fresh.stats.profile_branches);
    // Stage timings are zeroed on load: no compile work happened.
    assert_eq!(loaded.stats.profile_seconds, 0.0);
    assert_eq!(loaded.stats.schedule_seconds, 0.0);
    assert_eq!(loaded.stats.decode_seconds, 0.0);

    // Third lookup on the same handle: the memory cache answers.
    let (_, source3) =
        compile_stored(&fx.request(), &cache2, Some(&store2), &NullTelemetry).expect("memory");
    assert_eq!(source3, ArtifactSource::Memory);
    assert_eq!(store2.stats().hits, 1, "memory hit must not touch disk");
}

#[test]
fn encode_decode_is_the_identity_on_the_interesting_fields() {
    let fx = Fixture::new(Model::TracePred);
    let cache = ArtifactCache::new();
    let (art, _) = compile_stored(&fx.request(), &cache, None, &NullTelemetry).expect("compile");
    let bytes = encode_artifact(&art);
    let decoded = decode_artifact(&bytes, fx.request().key(), &fx.sched).expect("decode");
    assert_eq!(decoded.content_hash, art.content_hash);
    assert_eq!(decoded.program, art.program);
    assert_eq!(decoded.profile, art.profile);
    assert_eq!(decoded.sched_stats, art.sched_stats);
}

/// Each corruption mode yields its typed error — and in every case the
/// store-backed compile path recovers by recompiling and overwriting
/// the bad file, never panicking.
#[test]
fn corrupted_files_give_typed_errors_and_recompile_heals() {
    let fx = Fixture::new(Model::Squash);
    let dir = scratch("corrupt");
    let store = DiskStore::open(&dir).expect("open store");
    let cache = ArtifactCache::new();
    let (fresh, _) =
        compile_stored(&fx.request(), &cache, Some(&store), &NullTelemetry).expect("compile");
    let path = store.path_for(fx.request().key());
    let good = std::fs::read(&path).expect("artifact file");

    // Build (corruption, expected-error-predicate) pairs.
    type Pred = fn(&StoreError) -> bool;
    let cases: Vec<(&str, Vec<u8>, Pred)> = vec![
        (
            "bad magic",
            {
                let mut b = good.clone();
                b[0] = b'Q';
                b
            },
            |e| matches!(e, StoreError::Magic),
        ),
        (
            "future version",
            {
                let mut b = good.clone();
                b[4..8].copy_from_slice(&(STORE_VERSION + 1).to_le_bytes());
                b
            },
            |e| matches!(e, StoreError::Version(v) if *v == STORE_VERSION + 1),
        ),
        (
            "flipped key",
            {
                let mut b = good.clone();
                b[8] ^= 0xff;
                b
            },
            |e| matches!(e, StoreError::KeyMismatch { .. }),
        ),
        (
            "flipped payload byte",
            {
                // Header is 32 bytes (magic+version+key+hash+len), trailer 8
                // (checksum); flip a bit in the middle of the payload.
                let mut b = good.clone();
                let mid = 32 + (b.len() - 40) / 2;
                b[mid] ^= 0x01;
                b
            },
            |e| matches!(e, StoreError::Checksum { .. }),
        ),
        (
            "stored hash flipped",
            {
                // Checksum still verifies (payload untouched); the recomputed
                // content hash disagrees with the stored header field.
                let mut b = good.clone();
                b[16] ^= 0xff;
                b
            },
            |e| matches!(e, StoreError::ContentHash { .. }),
        ),
        (
            "truncated mid-payload",
            good[..good.len() / 2].to_vec(),
            |e| matches!(e, StoreError::Truncated { .. }),
        ),
        ("empty file", Vec::new(), |e| {
            matches!(e, StoreError::Truncated { offset: 0 })
        }),
    ];

    for (what, bytes, expected) in cases {
        // The decoder reports the typed error...
        let err = decode_artifact(&bytes, fx.request().key(), &fx.sched).expect_err(what);
        assert!(expected(&err), "{what}: got {err:?} ({err})");

        // ...and the full store path degrades to a recompile that heals
        // the file in place.
        std::fs::write(&path, &bytes).expect("plant corruption");
        let store = DiskStore::open(&dir).expect("reopen");
        let cache = ArtifactCache::new(); // cold memory cache each time
        let (art, source) = compile_stored(&fx.request(), &cache, Some(&store), &NullTelemetry)
            .unwrap_or_else(|e| panic!("{what}: store path must recover, got {e}"));
        assert_eq!(source, ArtifactSource::Compiled, "{what}");
        assert_eq!(art.content_hash, fresh.content_hash, "{what}");
        assert_eq!(store.stats().errors, 1, "{what}: error must be counted");
        assert_eq!(store.stats().writes, 1, "{what}: recompile must re-save");
        // The healed file now loads cleanly.
        assert_eq!(
            decode_artifact(
                &std::fs::read(&path).expect("healed file"),
                fx.request().key(),
                &fx.sched
            )
            .expect("healed artifact decodes")
            .content_hash,
            fresh.content_hash,
            "{what}"
        );
    }
}

#[test]
fn a_different_requests_file_is_rejected_as_key_mismatch() {
    let fx_a = Fixture::new(Model::RegionPred);
    let fx_b = Fixture::new(Model::Trace);
    let dir = scratch("xkey");
    let store = DiskStore::open(&dir).expect("open store");
    let cache = ArtifactCache::new();
    compile_stored(&fx_a.request(), &cache, Some(&store), &NullTelemetry).expect("compile");
    // Cross-link model A's artifact under model B's name (what a buggy
    // sync or manual copy would produce).
    let bytes = std::fs::read(store.path_for(fx_a.request().key())).expect("file");
    std::fs::write(store.path_for(fx_b.request().key()), &bytes).expect("cross-link");
    let err = decode_artifact(&bytes, fx_b.request().key(), &fx_b.sched).expect_err("key mismatch");
    assert!(matches!(err, StoreError::KeyMismatch { .. }), "{err:?}");
    // The store path still serves the right artifact for B (recompiled).
    let cache_b = ArtifactCache::new();
    let (art_b, source) =
        compile_stored(&fx_b.request(), &cache_b, Some(&store), &NullTelemetry).expect("recover");
    assert_eq!(source, ArtifactSource::Compiled);
    let (art_a, _) =
        compile_stored(&fx_a.request(), &cache_b, Some(&store), &NullTelemetry).expect("a");
    assert_ne!(art_b.content_hash, art_a.content_hash);
}

#[test]
fn size_capped_store_evicts_oldest_artifacts() {
    let dir = scratch("evict");
    let fixtures = [
        Fixture::new(Model::RegionPred),
        Fixture::new(Model::TracePred),
        Fixture::new(Model::Squash),
    ];
    // Fill an unbounded store with three distinct artifacts.
    let store = DiskStore::open(&dir).expect("open store");
    let mut arts = Vec::new();
    for fx in &fixtures {
        let cache = ArtifactCache::new();
        let (art, _) =
            compile_stored(&fx.request(), &cache, Some(&store), &NullTelemetry).expect("compile");
        arts.push(art);
    }
    let paths: Vec<PathBuf> = fixtures
        .iter()
        .map(|fx| store.path_for(fx.request().key()))
        .collect();
    assert!(paths.iter().all(|p| p.exists()));
    // Backdate the first two so eviction order is not at the mercy of
    // filesystem timestamp granularity.
    for (i, path) in paths[..2].iter().enumerate() {
        let f = std::fs::File::options()
            .write(true)
            .open(path)
            .expect("open");
        let when =
            std::time::SystemTime::UNIX_EPOCH + std::time::Duration::from_secs(10 * (i as u64 + 1));
        f.set_times(std::fs::FileTimes::new().set_modified(when))
            .expect("backdate");
    }

    // Reopen capped at exactly the newest artifact's size: the next
    // save must evict both older files (oldest first) and keep its own.
    let cap = std::fs::metadata(&paths[2]).expect("md").len();
    let capped = DiskStore::open_with_limit(&dir, Some(cap)).expect("reopen capped");
    capped.save(&arts[2], &NullTelemetry).expect("resave");
    assert!(!paths[0].exists(), "oldest artifact must be evicted");
    assert!(!paths[1].exists(), "second-oldest artifact must be evicted");
    assert!(
        paths[2].exists(),
        "the just-written artifact is never evicted"
    );
    assert_eq!(capped.stats().evictions, 2);

    // The survivor still loads cleanly, and a hit refreshes its mtime
    // (LRU, not FIFO): the file's mtime moves forward on load.
    let before = std::fs::metadata(&paths[2])
        .expect("md")
        .modified()
        .expect("mtime");
    let f = std::fs::File::options()
        .write(true)
        .open(&paths[2])
        .expect("open");
    f.set_times(
        std::fs::FileTimes::new()
            .set_modified(std::time::SystemTime::UNIX_EPOCH + std::time::Duration::from_secs(30)),
    )
    .expect("backdate survivor");
    let loaded = capped
        .load(
            fixtures[2].request().key(),
            &fixtures[2].sched,
            &NullTelemetry,
        )
        .expect("load")
        .expect("hit");
    assert_eq!(loaded.content_hash, arts[2].content_hash);
    let after = std::fs::metadata(&paths[2])
        .expect("md")
        .modified()
        .expect("mtime");
    assert!(after >= before, "a hit must refresh the file's mtime");
}

#[test]
fn stats_distinguish_misses_from_errors() {
    let fx = Fixture::new(Model::Boost);
    let dir = scratch("stats");
    let store = DiskStore::open(&dir).expect("open store");
    // Clean miss: no file at all.
    assert!(store
        .load(fx.request().key(), &fx.sched, &NullTelemetry)
        .expect("miss is not an error")
        .is_none());
    assert_eq!(store.stats().misses, 1);
    assert_eq!(store.stats().errors, 0);
    // Error: a file exists but is garbage.
    std::fs::write(store.path_for(fx.request().key()), b"not an artifact").expect("plant");
    let err = store
        .load(fx.request().key(), &fx.sched, &NullTelemetry)
        .expect_err("garbage must be a typed error");
    assert!(matches!(err, StoreError::Magic), "{err:?}");
    let stats = store.stats();
    assert_eq!((stats.misses, stats.errors, stats.hits), (1, 1, 0));
}
