//! Crash-safe persistent result cache: checksummed, atomically written,
//! LRU-sharded.
//!
//! The in-memory 64-entry analysis cache in `flexcl-core` dies with the
//! process; a serving deployment wants warm answers to survive restarts
//! and crashes. This cache generalizes it to disk with three invariants:
//!
//! 1. **Atomic visibility** — an entry is written to a temp file in its
//!    shard directory, fsynced, then renamed into place. Same-directory
//!    rename is atomic on POSIX, so a reader (or a post-crash reopen)
//!    sees either the whole entry or no entry, never a torn one.
//! 2. **Checksummed reads** — every entry carries a CRC32 of its
//!    payload in a fixed header. A record that fails validation — torn
//!    header, bad magic, length mismatch, checksum mismatch — is
//!    *quarantined* (moved to `quarantine/` for post-mortem) and treated
//!    as a miss, never served and never allowed to fail startup.
//! 3. **Bounded footprint** — entries hash-shard across 16 directories;
//!    each shard keeps an in-memory LRU index capped at a fixed entry
//!    count, evicting the coldest file on overflow. Payloads live only
//!    on disk, so server memory stays bounded by the index, not the
//!    corpus.
//!
//! Since FCACHEv2 every record also carries the request's *family*
//! fingerprint — the kernel/platform/workload content hash without the
//! grid or objective knobs. The cache keeps a refcounted in-memory index
//! of resident families, so a full-key miss can still be classified as a
//! *near miss* ([`PersistentCache::family_present`]): some variant of
//! this kernel was served before, and the per-family `KernelAnalysis` is
//! worth looking for in the serve-scoped analysis cache before
//! recomputing from scratch.

use std::collections::HashMap;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Number of shard directories (and LRU locks).
pub const SHARDS: usize = 16;

/// Entry header magic; bump the suffix on any format change so stale
/// caches quarantine instead of misparse. v2 added the family
/// fingerprint to the header.
const MAGIC: &str = "FCACHEv2";

/// A 128-bit content fingerprint, as produced by
/// [`crate::server::request_fingerprint`] (full keys) and
/// [`crate::server::request_family_fingerprint`] (family keys).
pub type Key = (u64, u64);

/// What [`PersistentCache::open`] found on disk.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpenReport {
    /// Valid entries indexed for serving.
    pub loaded: usize,
    /// Corrupt records moved to `quarantine/`.
    pub quarantined: usize,
    /// Orphaned temp files (a crash mid-write) removed.
    pub cleaned_tmp: usize,
}

/// Running cache traffic counters (relaxed atomics; exact under quiesce).
#[derive(Debug, Default)]
pub struct CacheStats {
    /// Lookups served from disk.
    pub hits: AtomicU64,
    /// Lookups that missed (including quarantined-on-read).
    pub misses: AtomicU64,
    /// Entries evicted by the per-shard LRU cap.
    pub evictions: AtomicU64,
    /// Corrupt records quarantined at open or on read.
    pub quarantined: AtomicU64,
}

struct Shard {
    /// Key → (last-use tick, family fingerprint). Payloads stay on disk.
    index: HashMap<Key, (u64, Key)>,
}

/// The disk-persisted result cache. All methods take `&self`; shards
/// lock independently, so concurrent workers only contend when they hash
/// to the same shard.
pub struct PersistentCache {
    root: PathBuf,
    cap_per_shard: usize,
    shards: Vec<Mutex<Shard>>,
    /// Family fingerprint → resident entry count, across all shards.
    /// Locked strictly *inside* a shard lock (or alone), never around
    /// one, so the two-level locking cannot deadlock.
    families: Mutex<HashMap<Key, usize>>,
    clock: AtomicU64,
    /// Traffic counters.
    pub stats: CacheStats,
}

fn shard_of(key: Key) -> usize {
    // Take the modulo in u64: `key.0 as usize` would drop the high 32 bits
    // on 32-bit targets, silently remapping every entry to a different
    // shard than a 64-bit writer chose for the same key.
    (key.0 % SHARDS as u64) as usize
}

fn entry_name(key: Key) -> String {
    format!("{:016x}{:016x}.fc", key.0, key.1)
}

fn parse_entry_name(name: &str) -> Option<Key> {
    let hex = name.strip_suffix(".fc")?;
    if hex.len() != 32 {
        return None;
    }
    let a = u64::from_str_radix(&hex[..16], 16).ok()?;
    let b = u64::from_str_radix(&hex[16..], 16).ok()?;
    Some((a, b))
}

/// CRC-32 (IEEE 802.3), bitwise implementation — the corpus entries are
/// small and the loop is not on the serving hot path (hits read one
/// file).
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc: u32 = !0;
    for &b in data {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// The record checksum covers the family token *and* the payload, so
/// header damage is caught exactly like payload damage.
fn record_crc(family_hex: &str, payload: &[u8]) -> u32 {
    let mut data = Vec::with_capacity(family_hex.len() + payload.len());
    data.extend_from_slice(family_hex.as_bytes());
    data.extend_from_slice(payload);
    crc32(&data)
}

/// Encodes `payload` into the on-disk record format. The family
/// fingerprint rides in the header as one 32-hex-digit token.
fn encode(payload: &[u8], family: Key) -> Vec<u8> {
    let fam = format!("{:016x}{:016x}", family.0, family.1);
    let mut rec =
        format!("{MAGIC} {:08x} {} {fam}\n", record_crc(&fam, payload), payload.len()).into_bytes();
    rec.extend_from_slice(payload);
    rec
}

/// Decodes and validates a record; `None` means corrupt (which includes
/// any pre-v2 record — stale formats quarantine by design).
fn decode(record: &[u8]) -> Option<(Vec<u8>, Key)> {
    let nl = record.iter().position(|&b| b == b'\n')?;
    let header = std::str::from_utf8(&record[..nl]).ok()?;
    let mut parts = header.split(' ');
    if parts.next()? != MAGIC {
        return None;
    }
    let crc = u32::from_str_radix(parts.next()?, 16).ok()?;
    let len: usize = parts.next()?.parse().ok()?;
    let fam = parts.next()?;
    if fam.len() != 32 || parts.next().is_some() {
        return None;
    }
    let family =
        (u64::from_str_radix(&fam[..16], 16).ok()?, u64::from_str_radix(&fam[16..], 16).ok()?);
    let payload = &record[nl + 1..];
    if payload.len() != len || record_crc(fam, payload) != crc {
        return None;
    }
    Some((payload.to_vec(), family))
}

impl PersistentCache {
    /// Opens (creating if absent) a cache rooted at `root`, scanning
    /// every shard: valid entries are indexed, corrupt records are moved
    /// to `root/quarantine/`, and temp files orphaned by a crash
    /// mid-write are deleted. Corruption is never fatal — the report
    /// says what was found.
    ///
    /// # Errors
    ///
    /// Only genuine I/O failures (permissions, full disk) — never
    /// corrupt content.
    pub fn open(root: &Path, cap_per_shard: usize) -> io::Result<(PersistentCache, OpenReport)> {
        let cache = PersistentCache {
            root: root.to_path_buf(),
            cap_per_shard: cap_per_shard.max(1),
            shards: (0..SHARDS).map(|_| Mutex::new(Shard { index: HashMap::new() })).collect(),
            families: Mutex::new(HashMap::new()),
            clock: AtomicU64::new(1),
            stats: CacheStats::default(),
        };
        fs::create_dir_all(cache.quarantine_dir())?;
        let mut report = OpenReport::default();
        for s in 0..SHARDS {
            let dir = cache.shard_dir(s);
            fs::create_dir_all(&dir)?;
            let mut shard = cache.shards[s].lock().unwrap_or_else(|e| e.into_inner());
            for entry in fs::read_dir(&dir)? {
                let entry = entry?;
                let name = entry.file_name().to_string_lossy().into_owned();
                let path = entry.path();
                if name.starts_with(".tmp-") {
                    fs::remove_file(&path)?;
                    report.cleaned_tmp += 1;
                    continue;
                }
                let valid = parse_entry_name(&name).filter(|&k| shard_of(k) == s).and_then(|k| {
                    let rec = fs::read(&path).ok()?;
                    decode(&rec).map(|(_, family)| (k, family))
                });
                match valid {
                    Some((key, family)) => {
                        let tick = cache.clock.fetch_add(1, Ordering::Relaxed);
                        shard.index.insert(key, (tick, family));
                        cache.family_retain(family);
                        report.loaded += 1;
                    }
                    None => {
                        cache.quarantine(&path)?;
                        report.quarantined += 1;
                    }
                }
            }
            // Respect the cap even for a corpus written by a larger
            // configuration.
            while shard.index.len() > cache.cap_per_shard {
                if let Some(path) = cache.evict_coldest(s, &mut shard) {
                    let _ = fs::remove_file(path);
                }
                cache.stats.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        cache.stats.quarantined.store(report.quarantined as u64, Ordering::Relaxed);
        Ok((cache, report))
    }

    fn shard_dir(&self, s: usize) -> PathBuf {
        self.root.join(format!("shard_{s:02x}"))
    }

    fn quarantine_dir(&self) -> PathBuf {
        self.root.join("quarantine")
    }

    fn entry_path(&self, key: Key) -> PathBuf {
        self.shard_dir(shard_of(key)).join(entry_name(key))
    }

    fn quarantine(&self, path: &Path) -> io::Result<()> {
        let name = path.file_name().map(|n| n.to_string_lossy().into_owned());
        let dest = self.quarantine_dir().join(name.unwrap_or_else(|| "unknown".into()));
        // A same-named earlier quarantine is replaced; rename within one
        // filesystem never partially applies.
        fs::rename(path, dest)
    }

    /// Bumps the resident count of `family`.
    fn family_retain(&self, family: Key) {
        let mut fams = self.families.lock().unwrap_or_else(|e| e.into_inner());
        *fams.entry(family).or_insert(0) += 1;
    }

    /// Drops one resident count of `family`, unindexing it at zero.
    fn family_release(&self, family: Key) {
        let mut fams = self.families.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(n) = fams.get_mut(&family) {
            *n -= 1;
            if *n == 0 {
                fams.remove(&family);
            }
        }
    }

    /// True when some resident entry was stored under `family` — a miss
    /// on the full key with a present family is a *near miss*: the
    /// kernel's per-family analyses are likely warm in the analysis
    /// cache even though this exact grid/objective was never served.
    pub fn family_present(&self, family: Key) -> bool {
        self.families.lock().unwrap_or_else(|e| e.into_inner()).contains_key(&family)
    }

    /// Unindexes the shard's coldest entry and returns the path of its
    /// record, which the caller deletes.
    fn evict_coldest(&self, s: usize, shard: &mut Shard) -> Option<PathBuf> {
        let (&key, _) = shard.index.iter().min_by_key(|(_, &(tick, _))| tick)?;
        if let Some((_, family)) = shard.index.remove(&key) {
            self.family_release(family);
        }
        Some(self.shard_dir(s).join(entry_name(key)))
    }

    /// Looks `key` up, verifying the record checksum on every read. A
    /// record that went corrupt since it was indexed is quarantined and
    /// reported as a miss.
    pub fn get(&self, key: Key) -> Option<Vec<u8>> {
        let s = shard_of(key);
        let mut shard = self.shards[s].lock().unwrap_or_else(|e| e.into_inner());
        if !shard.index.contains_key(&key) {
            self.stats.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let path = self.entry_path(key);
        let payload = fs::read(&path).ok().and_then(|rec| decode(&rec));
        match payload {
            Some((p, family)) => {
                let tick = self.clock.fetch_add(1, Ordering::Relaxed);
                shard.index.insert(key, (tick, family));
                self.stats.hits.fetch_add(1, Ordering::Relaxed);
                Some(p)
            }
            None => {
                if let Some((_, family)) = shard.index.remove(&key) {
                    self.family_release(family);
                }
                let _ = self.quarantine(&path);
                self.stats.quarantined.fetch_add(1, Ordering::Relaxed);
                self.stats.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts `payload` under `key`, tagged with its `family`
    /// fingerprint: temp file in the shard directory, fsync, atomic
    /// rename. Evicts the shard's coldest entry past the cap.
    ///
    /// # Errors
    ///
    /// I/O failures; on error no partially-written entry is visible.
    pub fn put(&self, key: Key, family: Key, payload: &[u8]) -> io::Result<()> {
        let s = shard_of(key);
        let dir = self.shard_dir(s);
        let tick = self.clock.fetch_add(1, Ordering::Relaxed);
        let tmp = dir.join(format!(".tmp-{tick}"));
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(&encode(payload, family))?;
            f.sync_all()?;
        }
        let dest = dir.join(entry_name(key));
        if let Err(e) = fs::rename(&tmp, &dest) {
            let _ = fs::remove_file(&tmp);
            return Err(e);
        }
        let mut evicted = Vec::new();
        {
            let mut shard = self.shards[s].lock().unwrap_or_else(|e| e.into_inner());
            if let Some((_, old_family)) = shard.index.insert(key, (tick, family)) {
                self.family_release(old_family);
            }
            self.family_retain(family);
            while shard.index.len() > self.cap_per_shard {
                evicted.extend(self.evict_coldest(s, &mut shard));
                self.stats.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        // Evicted records are already unindexed, so no reader opens them;
        // an unlink can wait on the filesystem journal, and the shard's
        // readers must not wait with it.
        for path in evicted {
            let _ = fs::remove_file(path);
        }
        Ok(())
    }

    /// Entries currently indexed across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).index.len()).sum()
    }

    /// True when no entries are indexed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Flips one payload byte of `key`'s on-disk record *in place*,
    /// bypassing the atomic write path. Returns whether an entry was
    /// corrupted. Fault injection only: this simulates bit rot /
    /// torn-write damage so tests can prove the checksum path
    /// quarantines instead of serving garbage.
    #[doc(hidden)]
    pub fn corrupt_entry_for_test(&self, key: Key) -> bool {
        let path = self.entry_path(key);
        let Ok(mut rec) = fs::read(&path) else { return false };
        let Some(nl) = rec.iter().position(|&b| b == b'\n') else { return false };
        if nl + 1 >= rec.len() {
            return false;
        }
        rec[nl + 1] ^= 0x41;
        let Ok(mut f) = fs::File::create(&path) else { return false };
        f.write_all(&rec).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("flexcl-cache-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn crc32_matches_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    const FAM: Key = (0xAA, 0xBB);

    #[test]
    fn record_codec_rejects_damage() {
        let rec = encode(b"hello", FAM);
        assert_eq!(decode(&rec), Some((b"hello".to_vec(), FAM)));
        for i in 0..rec.len() {
            let mut bad = rec.clone();
            bad[i] ^= 1;
            assert_ne!(decode(&bad).map(|(p, _)| p).as_deref(), Some(&b"hello"[..]), "byte {i}");
        }
        assert_eq!(decode(b""), None);
        // Pre-v2 records (no family token) quarantine rather than parse.
        assert_eq!(decode(b"FCACHEv1 deadbeef 5\nhello"), None);
        assert_eq!(decode(b"FCACHEv2 3610a686 5\nhello"), None);
    }

    #[test]
    fn put_get_survive_reopen_and_family_index_rebuilds() {
        let dir = tmpdir("reopen");
        let (c, report) = PersistentCache::open(&dir, 8).expect("open");
        assert_eq!(report, OpenReport::default());
        c.put((1, 2), FAM, b"alpha").expect("put");
        c.put((3, 4), (0xCC, 0xDD), b"beta").expect("put");
        assert_eq!(c.get((1, 2)).as_deref(), Some(&b"alpha"[..]));
        assert!(c.family_present(FAM) && c.family_present((0xCC, 0xDD)));
        assert!(!c.family_present((0, 0)));
        drop(c);

        let (c, report) = PersistentCache::open(&dir, 8).expect("reopen");
        assert_eq!(report.loaded, 2);
        assert_eq!(report.quarantined, 0);
        assert_eq!(c.get((3, 4)).as_deref(), Some(&b"beta"[..]));
        // The family index is rebuilt from the record headers.
        assert!(c.family_present(FAM) && c.family_present((0xCC, 0xDD)));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn lru_evicts_coldest_within_shard() {
        let dir = tmpdir("lru");
        let (c, _) = PersistentCache::open(&dir, 2).expect("open");
        // All three keys land in shard 0 (key.0 % 16 == 0).
        c.put((0, 1), FAM, b"one").expect("put");
        c.put((16, 2), (0xCC, 0xDD), b"two").expect("put");
        assert!(c.get((0, 1)).is_some()); // warm "one"
        c.put((32, 3), FAM, b"three").expect("put"); // evicts coldest = "two"
        assert_eq!(c.len(), 2);
        assert!(c.get((16, 2)).is_none());
        assert!(c.get((0, 1)).is_some() && c.get((32, 3)).is_some());
        assert_eq!(c.stats.evictions.load(Ordering::Relaxed), 1);
        // Evicting "two" dropped the last entry of its family; FAM still
        // has two residents.
        assert!(!c.family_present((0xCC, 0xDD)));
        assert!(c.family_present(FAM));
        let _ = fs::remove_dir_all(&dir);
    }
}
