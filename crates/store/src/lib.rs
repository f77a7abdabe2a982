#![warn(missing_docs)]

//! Tiered, pluggable persistence for summary blobs.
//!
//! The summary cache (`flowdroid-summaries`) speaks *decoded* stores;
//! this crate speaks *opaque blobs* keyed by `(namespace,
//! context_hash)` and stacks storage tiers behind one
//! [`SummaryBackend`] trait:
//!
//! 1. [`MemoryTier`] — a byte-bounded in-process LRU, so re-opening a
//!    released store costs no I/O;
//! 2. [`LocalDirTier`] — one `summaries-<context>.fdss` file per
//!    namespace and configuration context under the cache directory
//!    (see [`local_store_file`]);
//! 3. [`ChunkTier`] — a content-addressed chunk store (FNV-1a64-keyed
//!    chunks plus per-key manifests). Chunks are immutable and
//!    self-verifying, so the directory can be rsynced / shared between
//!    hosts and is ready to back a remote tier.
//!
//! [`TieredStore`] stacks the tiers: loads try each tier in order and
//! *promote* the first valid blob into the tiers above it; stores
//! write through every tier. Blob validity is the caller's call (a
//! `validate` closure), because only the caller can decode the blob
//! and check its configuration fingerprint — an invalid blob in one
//! tier is counted as that tier's miss and the search continues
//! below. Per-tier hit/miss/write/promotion counters are kept by the
//! stack and surface in daemon `stats` and `BENCH_solver.json`.

use std::collections::HashMap;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// FNV-1a 64-bit hash (same parameters as the `summaries.fdss` wire
/// checksum, re-stated here so this crate stays dependency-free).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Identifies one blob in a backend: which client namespace it belongs
/// to and the configuration fingerprint it was computed under.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct BlobKey {
    /// Per-client cache namespace (`""` is the shared default).
    pub namespace: String,
    /// Configuration fingerprint of the summaries in the blob.
    pub context_hash: u64,
}

impl BlobKey {
    /// Convenience constructor.
    pub fn new(namespace: &str, context_hash: u64) -> Self {
        BlobKey { namespace: namespace.to_string(), context_hash }
    }
}

/// Cumulative counters for one tier in a [`TieredStore`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TierStats {
    /// Loads answered by this tier with a valid blob.
    pub hits: u64,
    /// Loads this tier could not answer (absent or invalid blob).
    pub misses: u64,
    /// Write-through stores into this tier.
    pub writes: u64,
    /// Blobs copied up into this tier after a lower tier hit.
    pub promotions: u64,
}

/// One pluggable storage tier. Implementations store opaque blobs; they
/// never interpret the bytes (validity is checked by the caller).
pub trait SummaryBackend: Send + Sync {
    /// Short stable tier name (`"memory"`, `"local"`, `"chunk"`, …).
    fn tier_name(&self) -> &'static str;
    /// Loads the blob for `key`, or `Ok(None)` if absent. A corrupt
    /// entry (failed self-check) is reported as absent, not an error:
    /// a damaged tier must degrade to a cold cache, not fail analyses.
    fn load(&self, key: &BlobKey) -> io::Result<Option<Vec<u8>>>;
    /// Stores (replaces) the blob for `key`.
    fn store(&self, key: &BlobKey, bytes: &[u8]) -> io::Result<()>;
    /// Drops every blob held by this tier, where that makes sense
    /// (the memory tier); persistent tiers may ignore it.
    fn clear(&self) {}
}

// ================= memory tier =================

/// Byte-bounded in-process LRU over encoded blobs.
pub struct MemoryTier {
    cap_bytes: usize,
    inner: Mutex<MemInner>,
}

#[derive(Default)]
struct MemInner {
    map: HashMap<BlobKey, (Vec<u8>, u64)>,
    tick: u64,
    bytes: usize,
}

impl MemoryTier {
    /// Creates a tier holding at most `cap_bytes` of blob payload.
    pub fn new(cap_bytes: usize) -> Self {
        MemoryTier { cap_bytes: cap_bytes.max(1), inner: Mutex::new(MemInner::default()) }
    }

    /// Number of resident blobs.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().map.len()
    }

    /// Whether the tier holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn evict_to_cap(inner: &mut MemInner, cap: usize) {
        while inner.bytes > cap && !inner.map.is_empty() {
            // Smallest tick = least recently used. The map is tiny (one
            // blob per open namespace), so a scan beats bookkeeping.
            let victim = inner
                .map
                .iter()
                .min_by_key(|(_, (_, tick))| *tick)
                .map(|(k, _)| k.clone())
                .expect("non-empty map has a minimum");
            if let Some((bytes, _)) = inner.map.remove(&victim) {
                inner.bytes -= bytes.len();
            }
        }
    }
}

impl SummaryBackend for MemoryTier {
    fn tier_name(&self) -> &'static str {
        "memory"
    }

    fn load(&self, key: &BlobKey) -> io::Result<Option<Vec<u8>>> {
        let mut inner = self.inner.lock().unwrap();
        inner.tick += 1;
        let tick = inner.tick;
        Ok(inner.map.get_mut(key).map(|(bytes, t)| {
            *t = tick;
            bytes.clone()
        }))
    }

    fn store(&self, key: &BlobKey, bytes: &[u8]) -> io::Result<()> {
        let mut inner = self.inner.lock().unwrap();
        inner.tick += 1;
        let tick = inner.tick;
        if let Some((old, _)) = inner.map.remove(key) {
            inner.bytes -= old.len();
        }
        inner.bytes += bytes.len();
        inner.map.insert(key.clone(), (bytes.to_vec(), tick));
        Self::evict_to_cap(&mut inner, self.cap_bytes);
        Ok(())
    }

    fn clear(&self) {
        let mut inner = self.inner.lock().unwrap();
        inner.map.clear();
        inner.bytes = 0;
    }
}

// ================= local directory tier =================

/// Maps a namespace to a filesystem-safe directory component. The
/// default namespace maps to the root itself (the pre-namespace
/// layout); anything unusual is disambiguated with a hash so two
/// namespaces can never collide on one path.
fn namespace_component(ns: &str) -> Option<String> {
    if ns.is_empty() {
        return None;
    }
    let clean: String = ns
        .chars()
        .take(64)
        .map(|c| if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-') { c } else { '_' })
        .collect();
    // No dot-dot runs and no leading/trailing dots: the component must
    // never look like a relative path escape.
    let clean = clean.replace("..", "__").trim_matches('.').to_string();
    if clean == ns {
        Some(format!("ns-{clean}"))
    } else {
        Some(format!("ns-{clean}-{:016x}", fnv1a64(ns.as_bytes())))
    }
}

/// The directory a [`LocalDirTier`] rooted at `root` keeps the blobs
/// of namespace `ns` in (the default namespace uses `root` itself).
pub fn local_store_dir(root: &Path, ns: &str) -> PathBuf {
    match namespace_component(ns) {
        None => root.to_path_buf(),
        Some(c) => root.join(c),
    }
}

/// The file a [`LocalDirTier`] rooted at `root` keeps the blob for
/// `(ns, context_hash)` in: `summaries-<context hash>.fdss` inside
/// [`local_store_dir`]. Keying the file by context as well as namespace
/// keeps the stores of different configurations in one namespace from
/// overwriting each other.
pub fn local_store_file(root: &Path, ns: &str, context_hash: u64) -> PathBuf {
    local_store_dir(root, ns).join(format!("summaries-{context_hash:016x}.fdss"))
}

/// One `summaries-<context>.fdss` file per namespace and context under
/// a root directory.
pub struct LocalDirTier {
    root: PathBuf,
}

impl LocalDirTier {
    /// Creates a tier rooted at `root` (created lazily on first store).
    pub fn new(root: &Path) -> Self {
        LocalDirTier { root: root.to_path_buf() }
    }

    fn path_for(&self, key: &BlobKey) -> PathBuf {
        local_store_file(&self.root, &key.namespace, key.context_hash)
    }
}

impl SummaryBackend for LocalDirTier {
    fn tier_name(&self) -> &'static str {
        "local"
    }

    fn load(&self, key: &BlobKey) -> io::Result<Option<Vec<u8>>> {
        match std::fs::read(self.path_for(key)) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    fn store(&self, key: &BlobKey, bytes: &[u8]) -> io::Result<()> {
        let path = self.path_for(key);
        let dir = path.parent().expect("store path has a parent");
        std::fs::create_dir_all(dir)?;
        // Atomic replace: readers only ever see a complete file.
        let name = path.file_name().expect("store file name").to_string_lossy();
        let tmp = dir.join(format!("{name}.tmp.{}", std::process::id()));
        std::fs::write(&tmp, bytes)?;
        std::fs::rename(&tmp, &path)
    }
}

// ================= content-addressed chunk tier =================

/// Size blobs are split into before content addressing. Small enough
/// that an incremental flush re-uploads only changed chunks, large
/// enough that manifests stay short.
pub const CHUNK_SIZE: usize = 4096;

const MANIFEST_MAGIC: &str = "flowdroid-chunks v1";

/// Content-addressed chunk store: `chunks/<fnv1a64>` hold immutable,
/// self-verifying chunk payloads shared across namespaces and
/// configurations; `manifests/<namespace>-<context>` name the chunk
/// sequence of one blob. The layout is replication-friendly (chunks
/// never change, manifests are swapped atomically), which is what a
/// remote tier would sync.
pub struct ChunkTier {
    root: PathBuf,
}

impl ChunkTier {
    /// Creates a tier rooted at `root` (created lazily on first store).
    pub fn new(root: &Path) -> Self {
        ChunkTier { root: root.to_path_buf() }
    }

    fn manifest_path(&self, key: &BlobKey) -> PathBuf {
        let ns = namespace_component(&key.namespace).unwrap_or_else(|| "default".to_string());
        self.root.join("manifests").join(format!("{ns}-{:016x}", key.context_hash))
    }

    fn chunk_path(&self, hash: u64) -> PathBuf {
        self.root.join("chunks").join(format!("{hash:016x}"))
    }
}

impl SummaryBackend for ChunkTier {
    fn tier_name(&self) -> &'static str {
        "chunk"
    }

    fn load(&self, key: &BlobKey) -> io::Result<Option<Vec<u8>>> {
        let manifest = match std::fs::read_to_string(self.manifest_path(key)) {
            Ok(text) => text,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        };
        let mut lines = manifest.lines();
        if lines.next() != Some(MANIFEST_MAGIC) {
            return Ok(None); // unknown manifest format: treat as absent
        }
        let Some(total) = lines
            .next()
            .and_then(|l| l.strip_prefix("len "))
            .and_then(|n| n.parse::<usize>().ok())
        else {
            return Ok(None);
        };
        let mut blob = Vec::with_capacity(total);
        for line in lines {
            let Ok(hash) = u64::from_str_radix(line, 16) else { return Ok(None) };
            let chunk = match std::fs::read(self.chunk_path(hash)) {
                Ok(c) => c,
                Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
                Err(e) => return Err(e),
            };
            // Chunks are self-verifying: the name *is* the content hash.
            if fnv1a64(&chunk) != hash {
                return Ok(None);
            }
            blob.extend_from_slice(&chunk);
        }
        if blob.len() != total {
            return Ok(None);
        }
        Ok(Some(blob))
    }

    fn store(&self, key: &BlobKey, bytes: &[u8]) -> io::Result<()> {
        let chunk_dir = self.root.join("chunks");
        std::fs::create_dir_all(&chunk_dir)?;
        let mut manifest = format!("{MANIFEST_MAGIC}\nlen {}\n", bytes.len());
        for chunk in bytes.chunks(CHUNK_SIZE) {
            let hash = fnv1a64(chunk);
            let path = self.chunk_path(hash);
            // Content-addressed: an existing chunk already holds these
            // exact bytes, so re-flushing an unchanged store writes
            // nothing but the manifest.
            if !path.exists() {
                let tmp = chunk_dir.join(format!("{hash:016x}.tmp.{}", std::process::id()));
                std::fs::write(&tmp, chunk)?;
                std::fs::rename(&tmp, &path)?;
            }
            manifest.push_str(&format!("{hash:016x}\n"));
        }
        let mpath = self.manifest_path(key);
        let mdir = mpath.parent().expect("manifest path has a parent");
        std::fs::create_dir_all(mdir)?;
        let tmp = mdir.join(format!(
            "{}.tmp.{}",
            mpath.file_name().expect("manifest file name").to_string_lossy(),
            std::process::id()
        ));
        std::fs::write(&tmp, manifest)?;
        std::fs::rename(&tmp, &mpath)
    }
}

// ================= the tiered stack =================

struct Tier {
    backend: Arc<dyn SummaryBackend>,
    hits: AtomicU64,
    misses: AtomicU64,
    writes: AtomicU64,
    promotions: AtomicU64,
}

/// A stack of [`SummaryBackend`] tiers: loads search top-down with
/// promotion, stores write through every tier.
pub struct TieredStore {
    tiers: Vec<Tier>,
}

impl fmt::Debug for TieredStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names: Vec<_> = self.tiers.iter().map(|t| t.backend.tier_name()).collect();
        f.debug_struct("TieredStore").field("tiers", &names).finish()
    }
}

/// One row of [`TieredStore::stats`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TierStatsNamed {
    /// The tier's name, top of the stack first.
    pub name: &'static str,
    /// Its cumulative counters.
    pub stats: TierStats,
}

impl TieredStore {
    /// Stacks `backends`, first entry fastest / searched first.
    pub fn new(backends: Vec<Arc<dyn SummaryBackend>>) -> Self {
        TieredStore {
            tiers: backends
                .into_iter()
                .map(|backend| Tier {
                    backend,
                    hits: AtomicU64::new(0),
                    misses: AtomicU64::new(0),
                    writes: AtomicU64::new(0),
                    promotions: AtomicU64::new(0),
                })
                .collect(),
        }
    }

    /// The standard three-tier stack rooted at a cache directory:
    /// memory LRU (`mem_cap_bytes`) over local store files over the
    /// content-addressed chunk store in `<root>/chunks`.
    pub fn standard(root: &Path, mem_cap_bytes: usize) -> Self {
        TieredStore::new(vec![
            Arc::new(MemoryTier::new(mem_cap_bytes)),
            Arc::new(LocalDirTier::new(root)),
            Arc::new(ChunkTier::new(root)),
        ])
    }

    /// Loads the first blob for `key` that `validate` accepts, trying
    /// tiers top-down. The winning blob is promoted (copied) into every
    /// tier above the one that held it. Returns the blob and the name
    /// of the tier that answered. I/O errors in one tier degrade to a
    /// miss in that tier.
    pub fn load(
        &self,
        key: &BlobKey,
        validate: &dyn Fn(&[u8]) -> bool,
    ) -> Option<(Vec<u8>, &'static str)> {
        for (i, tier) in self.tiers.iter().enumerate() {
            let blob = tier.backend.load(key).ok().flatten().filter(|b| validate(b));
            match blob {
                Some(bytes) => {
                    tier.hits.fetch_add(1, Ordering::Relaxed);
                    for upper in &self.tiers[..i] {
                        if upper.backend.store(key, &bytes).is_ok() {
                            upper.promotions.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    return Some((bytes, tier.backend.tier_name()));
                }
                None => {
                    tier.misses.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        None
    }

    /// Writes `bytes` through every tier. All tiers are attempted; the
    /// first error (if any) is returned.
    pub fn store(&self, key: &BlobKey, bytes: &[u8]) -> io::Result<()> {
        let mut first_err = None;
        for tier in &self.tiers {
            match tier.backend.store(key, bytes) {
                Ok(()) => {
                    tier.writes.fetch_add(1, Ordering::Relaxed);
                }
                Err(e) => {
                    if first_err.is_none() {
                        first_err = Some(e);
                    }
                }
            }
        }
        match first_err {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }

    /// Clears every tier that supports clearing (in practice: drops the
    /// memory tier so the next load falls through to disk).
    pub fn clear_memory(&self) {
        for tier in &self.tiers {
            tier.backend.clear();
        }
    }

    /// Per-tier counters, top of the stack first.
    pub fn stats(&self) -> Vec<TierStatsNamed> {
        self.tiers
            .iter()
            .map(|t| TierStatsNamed {
                name: t.backend.tier_name(),
                stats: TierStats {
                    hits: t.hits.load(Ordering::Relaxed),
                    misses: t.misses.load(Ordering::Relaxed),
                    writes: t.writes.load(Ordering::Relaxed),
                    promotions: t.promotions.load(Ordering::Relaxed),
                },
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fdstore-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn memory_tier_is_an_lru() {
        let mem = MemoryTier::new(10);
        let (a, b, c) =
            (BlobKey::new("a", 1), BlobKey::new("b", 1), BlobKey::new("c", 1));
        mem.store(&a, &[1; 4]).unwrap();
        mem.store(&b, &[2; 4]).unwrap();
        // Touch `a` so `b` is now the least recently used.
        assert!(mem.load(&a).unwrap().is_some());
        mem.store(&c, &[3; 4]).unwrap();
        assert!(mem.load(&b).unwrap().is_none(), "LRU entry evicted");
        assert!(mem.load(&a).unwrap().is_some());
        assert!(mem.load(&c).unwrap().is_some());
        mem.clear();
        assert!(mem.is_empty());
    }

    #[test]
    fn local_tier_round_trips_and_isolates_namespaces() {
        let root = temp_root("local");
        let tier = LocalDirTier::new(&root);
        let k_default = BlobKey::new("", 7);
        let k_tenant = BlobKey::new("tenant-a", 7);
        tier.store(&k_default, b"default blob").unwrap();
        tier.store(&k_tenant, b"tenant blob").unwrap();
        // The default namespace keeps its files in the root itself.
        assert!(local_store_file(&root, "", 7).is_file());
        assert_eq!(local_store_file(&root, "", 7).parent(), Some(root.as_path()));
        assert_eq!(tier.load(&k_default).unwrap().unwrap(), b"default blob");
        assert_eq!(tier.load(&k_tenant).unwrap().unwrap(), b"tenant blob");
        assert!(tier.load(&BlobKey::new("tenant-b", 7)).unwrap().is_none());
        // A second context in the same namespace gets a file of its own.
        tier.store(&BlobKey::new("", 8), b"other context").unwrap();
        assert_eq!(tier.load(&k_default).unwrap().unwrap(), b"default blob");
        assert_eq!(tier.load(&BlobKey::new("", 8)).unwrap().unwrap(), b"other context");
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn hostile_namespaces_cannot_escape_the_root() {
        let root = temp_root("hostile");
        for ns in ["../../etc", "a/b", "..", ".hidden.", "x\0y"] {
            let dir = local_store_dir(&root, ns);
            assert!(
                dir.starts_with(&root) && dir != root,
                "namespace {ns:?} must map inside the root, got {dir:?}"
            );
            assert!(
                !dir.to_string_lossy().contains(".."),
                "namespace {ns:?} must not keep dot-dot components"
            );
        }
        // Distinct hostile namespaces stay distinct after sanitizing.
        assert_ne!(local_store_dir(&root, "a/b"), local_store_dir(&root, "a_b"));
    }

    #[test]
    fn chunk_tier_round_trips_multi_chunk_blobs() {
        let root = temp_root("chunk");
        let tier = ChunkTier::new(&root);
        let key = BlobKey::new("ns", 42);
        let blob: Vec<u8> = (0..CHUNK_SIZE * 2 + 100).map(|i| (i % 251) as u8).collect();
        tier.store(&key, &blob).unwrap();
        assert_eq!(tier.load(&key).unwrap().unwrap(), blob);
        // Other keys are absent; identical chunks are shared on disk.
        assert!(tier.load(&BlobKey::new("ns", 43)).unwrap().is_none());
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn chunk_corruption_degrades_to_absent() {
        let root = temp_root("chunkcorrupt");
        let tier = ChunkTier::new(&root);
        let key = BlobKey::new("", 1);
        tier.store(&key, b"some summary bytes").unwrap();
        // Flip a byte in every chunk file: loads must report absent.
        for entry in std::fs::read_dir(root.join("chunks")).unwrap().flatten() {
            let mut bytes = std::fs::read(entry.path()).unwrap();
            bytes[0] ^= 0x40;
            std::fs::write(entry.path(), bytes).unwrap();
        }
        assert!(tier.load(&key).unwrap().is_none());
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn tiered_load_promotes_and_counts_per_tier() {
        let root = temp_root("tiered");
        let stack = TieredStore::standard(&root, 1 << 20);
        let key = BlobKey::new("", 9);
        let accept = |_: &[u8]| true;
        assert!(stack.load(&key, &accept).is_none(), "cold stack misses everywhere");

        stack.store(&key, b"blob v1").unwrap();
        assert_eq!(stack.load(&key, &accept).unwrap(), (b"blob v1".to_vec(), "memory"));

        stack.clear_memory();
        assert_eq!(stack.load(&key, &accept).unwrap(), (b"blob v1".to_vec(), "local"));
        // The local hit was promoted: memory answers again.
        assert_eq!(stack.load(&key, &accept).unwrap(), (b"blob v1".to_vec(), "memory"));

        stack.clear_memory();
        std::fs::remove_file(local_store_file(&root, "", 9)).unwrap();
        assert_eq!(stack.load(&key, &accept).unwrap(), (b"blob v1".to_vec(), "chunk"));
        // Promotion restored the upper tiers.
        assert!(local_store_file(&root, "", 9).is_file());
        assert_eq!(stack.load(&key, &accept).unwrap(), (b"blob v1".to_vec(), "memory"));

        let stats = stack.stats();
        let by_name: HashMap<_, _> = stats.iter().map(|t| (t.name, t.stats)).collect();
        assert!(by_name["memory"].hits >= 2);
        assert_eq!(by_name["local"].hits, 1);
        assert_eq!(by_name["chunk"].hits, 1);
        assert!(by_name["local"].promotions >= 1);
        assert!(by_name["chunk"].misses >= 1);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn rejected_blobs_fall_through_to_lower_tiers() {
        let root = temp_root("validate");
        let stack = TieredStore::standard(&root, 1 << 20);
        let key = BlobKey::new("", 5);
        stack.store(&key, b"stale").unwrap();
        // The caller's validation rejects every copy: the load misses.
        assert!(stack.load(&key, &|b: &[u8]| b != b"stale").is_none());
        let stats = stack.stats();
        assert!(stats.iter().all(|t| t.stats.hits == 0));
        std::fs::remove_dir_all(&root).unwrap();
    }
}
