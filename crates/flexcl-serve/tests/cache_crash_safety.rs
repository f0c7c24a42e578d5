//! Crash-safety of the persistent result cache: the three failure
//! stories a long-running server must survive.
//!
//! 1. **Bit rot / torn writes** — a payload damaged on disk (simulated
//!    by `corrupt_entry_for_test`) is detected by checksum on the next
//!    read or at startup, quarantined for post-mortem, and served as a
//!    miss; garbage is never returned and startup never fails.
//! 2. **Crash mid-write** — the write path is temp-file + fsync +
//!    atomic rename, so a crash leaves either the complete old state or
//!    the complete new state plus possibly an orphaned `.tmp-*` file,
//!    which reopen removes.
//! 3. **Unbounded corpus** — the per-shard LRU cap evicts cold entries,
//!    so a serving process's cache memory and disk stay bounded.
//!
//! The server writes results behind its answers, from one writer thread;
//! shutdown drains that writer, so every answered miss is on disk after.
//!
//! The end-to-end story — a `corrupt-cache` fault request damaging its
//! own fresh entry, and the *next* identical request recomputing through
//! quarantine instead of serving garbage — runs against a real `Server`.

use flexcl_serve::cache::{PersistentCache, SHARDS};
use flexcl_serve::protocol::Response;
use flexcl_serve::server::ServerConfig;
use flexcl_serve::Server;
use std::fs;
use std::path::PathBuf;

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("flexcl-crash-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&d);
    d
}

#[test]
fn corruption_is_quarantined_on_read_not_served() {
    let dir = tmpdir("read");
    let (c, _) = PersistentCache::open(&dir, 8).expect("open");
    c.put((7, 7), (70, 70), b"precious").expect("put");
    assert!(c.corrupt_entry_for_test((7, 7)), "entry must exist to corrupt");

    assert_eq!(c.get((7, 7)), None, "corrupt entries are a miss, never garbage");
    assert_eq!(c.stats.quarantined.load(std::sync::atomic::Ordering::Relaxed), 1);
    let quarantined = fs::read_dir(dir.join("quarantine")).expect("dir").count();
    assert_eq!(quarantined, 1, "the damaged record is kept for post-mortem");

    // The slot is reusable: a rewrite serves again.
    c.put((7, 7), (70, 70), b"rewritten").expect("put");
    assert_eq!(c.get((7, 7)).as_deref(), Some(&b"rewritten"[..]));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn startup_scan_quarantines_corruption_and_cleans_torn_writes() {
    let dir = tmpdir("startup");
    {
        let (c, _) = PersistentCache::open(&dir, 8).expect("open");
        c.put((1, 1), (10, 10), b"good").expect("put");
        c.put((2, 2), (20, 20), b"doomed").expect("put");
        c.corrupt_entry_for_test((2, 2));
    }
    // Simulate a crash mid-write: an orphaned temp file and a stray
    // half-record that was never renamed into a valid name.
    fs::write(dir.join("shard_00").join(".tmp-99"), b"half a reco").expect("write tmp");
    fs::write(dir.join("shard_03").join("nonsense.fc"), b"not a record").expect("write junk");

    let (c, report) = PersistentCache::open(&dir, 8).expect("reopen never fails on corruption");
    assert_eq!(report.loaded, 1, "only the intact entry is indexed");
    assert_eq!(report.quarantined, 2, "damaged + junk records quarantined");
    assert_eq!(report.cleaned_tmp, 1);
    assert_eq!(c.get((1, 1)).as_deref(), Some(&b"good"[..]));
    assert_eq!(c.get((2, 2)), None);
    assert!(!dir.join("shard_00").join(".tmp-99").exists());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn atomic_write_replaces_entries_without_a_torn_window() {
    let dir = tmpdir("atomic");
    let (c, _) = PersistentCache::open(&dir, 8).expect("open");
    c.put((5, 5), (50, 50), b"v1").expect("put");
    c.put((5, 5), (50, 50), b"v2-longer-than-v1").expect("overwrite");
    assert_eq!(c.get((5, 5)).as_deref(), Some(&b"v2-longer-than-v1"[..]));
    // No temp litter after successful writes.
    for s in 0..SHARDS {
        let shard = dir.join(format!("shard_{s:02x}"));
        for e in fs::read_dir(&shard).expect("dir") {
            let name = e.expect("entry").file_name();
            assert!(!name.to_string_lossy().starts_with(".tmp-"), "leftover temp {name:?}");
        }
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn corpus_stays_bounded_by_the_lru_cap() {
    let dir = tmpdir("bound");
    let cap = 4;
    let (c, _) = PersistentCache::open(&dir, cap).expect("open");
    // 10× the cap, spread across all shards.
    for i in 0..(SHARDS as u64 * cap as u64 * 10) {
        c.put((i, i), (i % 7, i % 7), format!("payload-{i}").as_bytes()).expect("put");
    }
    assert!(c.len() <= SHARDS * cap, "{} entries exceed the bound", c.len());
    // Disk matches the index bound too.
    let on_disk: usize = (0..SHARDS)
        .map(|s| fs::read_dir(dir.join(format!("shard_{s:02x}"))).expect("dir").count())
        .sum();
    assert!(on_disk <= SHARDS * cap);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_corrupting_request_cannot_poison_the_next_identical_request() {
    let dir = tmpdir("e2e");
    let (server, _) = Server::start(ServerConfig {
        workers: 1,
        cache_dir: Some(dir.clone()),
        enable_testhooks: true,
        ..ServerConfig::default()
    })
    .expect("start");

    const SRC: &str = "__kernel void vadd(__global float* a, __global float* b, \
                        __global float* c) { int i = get_global_id(0); c[i] = a[i] + b[i]; }";
    let src_json = SRC.replace('"', "\\\"");
    let attack =
        format!(r#"{{"id":"attack","src":"{src_json}","global":4096,"fault":"corrupt-cache"}}"#);
    let clean = format!(r#"{{"id":"clean","src":"{src_json}","global":4096}}"#);

    // The attacker computes fine, then damages its own persisted entry.
    let r1 = server.handle_frame(&attack);
    let Response::Ok { summary: s1, .. } = &r1 else { panic!("{}", r1.to_json()) };

    // The victim re-requests the same content: checksum catches the
    // damage, the entry is quarantined, and the answer is *recomputed* —
    // identical to the attacker's honest answer, served as a miss.
    let r2 = server.handle_frame(&clean);
    let Response::Ok { summary: s2, cache, .. } = &r2 else { panic!("{}", r2.to_json()) };
    assert_eq!(format!("{cache:?}"), "Miss", "corrupt entry must not serve as a hit");
    assert_eq!(s1, s2);

    // Third time: the recompute re-persisted a good entry, so now it hits.
    let r3 = server.handle_frame(&clean);
    let Response::Ok { summary: s3, cache, .. } = &r3 else { panic!("{}", r3.to_json()) };
    assert_eq!(format!("{cache:?}"), "Hit");
    assert_eq!(s2, s3);

    let cache_stats = server.cache().expect("cache");
    assert_eq!(cache_stats.stats.quarantined.load(std::sync::atomic::Ordering::Relaxed), 1);
    server.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn write_behind_results_are_durable_once_the_server_shuts_down() {
    let dir = tmpdir("behind");
    let start = || {
        Server::start(ServerConfig {
            workers: 2,
            cache_dir: Some(dir.clone()),
            ..ServerConfig::default()
        })
        .expect("start")
    };
    const SRC: &str = "__kernel void vadd(__global float* a, __global float* b, \
                        __global float* c) { int i = get_global_id(0); c[i] = a[i] + b[i]; }";
    let src_json = SRC.replace('"', "\\\"");
    let frame = |g: u32| format!(r#"{{"id":"g{g}","src":"{src_json}","global":{g}}}"#);
    let sizes = [1024, 2048, 4096];

    // Each answer goes out before its write lands; a repeat still hits,
    // from the pending write or from disk.
    let (server, _) = start();
    let mut first = Vec::new();
    for g in sizes {
        let r = server.handle_frame(&frame(g));
        let Response::Ok { summary, cache, .. } = &r else { panic!("{}", r.to_json()) };
        assert_eq!(format!("{cache:?}"), "Miss");
        first.push(summary.clone());
        let again = server.handle_frame(&frame(g));
        let Response::Ok { summary, cache, .. } = &again else { panic!("{}", again.to_json()) };
        assert_eq!(format!("{cache:?}"), "Hit");
        assert_eq!(summary, first.last().expect("first answer"));
    }
    let counters = server.shutdown();
    assert_eq!(counters.persist_dropped, 0);

    // Shutdown drained the writer: every result is on disk, intact.
    let (cache, report) = PersistentCache::open(&dir, 64).expect("reopen");
    assert_eq!(report.loaded, sizes.len());
    assert_eq!(report.quarantined, 0);
    drop(cache);

    // A fresh server answers each from disk.
    let (server, _) = start();
    for (g, want) in sizes.into_iter().zip(&first) {
        let r = server.handle_frame(&frame(g));
        let Response::Ok { summary, cache, .. } = &r else { panic!("{}", r.to_json()) };
        assert_eq!(format!("{cache:?}"), "Hit");
        assert_eq!(summary, want);
    }
    server.shutdown();
    let _ = fs::remove_dir_all(&dir);
}
