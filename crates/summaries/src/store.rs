//! The summary store: in-memory tables, disk persistence, and the
//! process-wide shared registry with its visible/fresh split.

use crate::wire::{fnv1a64, Reader, Writer, MAGIC, VERSION};
use crate::{SymFact, SymSummary};
use flowdroid_store::{local_store_file, BlobKey, TierStatsNamed, TieredStore};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock, RwLock};

/// An error loading a store file.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file does not start with the `FDSS` magic.
    BadMagic,
    /// The file's format version is not understood.
    BadVersion(u32),
    /// The file is structurally invalid (truncated, bad tags, checksum
    /// mismatch, …).
    Corrupt(&'static str),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "summary store I/O error: {e}"),
            StoreError::BadMagic => write!(f, "summary store: not a FDSS file"),
            StoreError::BadVersion(v) => write!(f, "summary store: unsupported version {v}"),
            StoreError::Corrupt(what) => write!(f, "summary store corrupt: {what}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// All persisted summaries of one method, under one body fingerprint.
///
/// The entries are a `Vec` sorted by entry fact, with exactly the
/// capacity it holds: a method has only a few entries, and a B-tree
/// node per method cost several times the summaries themselves in a
/// long-running daemon.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MethodSummaries {
    /// Transitive body fingerprint the summaries were computed under.
    pub body_hash: u64,
    /// `(entry fact, end summaries)`, strictly ascending by entry fact.
    entries: Vec<(SymFact, Vec<SymSummary>)>,
}

impl MethodSummaries {
    /// Iterates `(entry fact, end summaries)` in entry-fact order.
    pub fn entries(&self) -> impl Iterator<Item = (&SymFact, &[SymSummary])> {
        self.entries.iter().map(|(entry, exits)| (entry, exits.as_slice()))
    }

    /// Number of entry facts with stored summaries.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// The end summaries stored for `entry`.
    pub(crate) fn get(&self, entry: &SymFact) -> Option<&[SymSummary]> {
        self.entries
            .binary_search_by(|(f, _)| f.cmp(entry))
            .ok()
            .map(|i| self.entries[i].1.as_slice())
    }

    /// Adds `exits` under `entry`, keeping exits sorted, deduped and
    /// exactly sized.
    fn insert(&mut self, entry: SymFact, mut exits: Vec<SymSummary>) {
        let slot = match self.entries.binary_search_by(|(f, _)| f.cmp(&entry)) {
            Ok(i) => {
                let slot = &mut self.entries[i].1;
                slot.append(&mut exits);
                slot
            }
            Err(i) => {
                self.entries.reserve_exact(1);
                self.entries.insert(i, (entry, exits));
                &mut self.entries[i].1
            }
        };
        slot.sort();
        slot.dedup();
        slot.shrink_to_fit();
    }
}

/// Result of a store lookup.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Lookup {
    /// Summaries exist for this `(method, body hash, entry fact)`.
    Hit(Vec<SymSummary>),
    /// The method is present but under a *different* body hash — its
    /// code (or something it transitively calls) changed.
    Stale,
    /// Nothing stored for this method/entry.
    Miss,
}

/// An in-memory summary store: deterministic (signature-ordered)
/// tables keyed by method signature, plus the configuration fingerprint
/// the summaries were computed under.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SummaryStore {
    /// Fingerprint of the analysis configuration (sources, sinks,
    /// wrapper rules, solver options). Summaries are only meaningful
    /// under the configuration that produced them.
    pub context_hash: u64,
    methods: BTreeMap<String, MethodSummaries>,
}

impl SummaryStore {
    /// Creates an empty store for `context_hash`.
    pub fn new(context_hash: u64) -> Self {
        SummaryStore { context_hash, methods: BTreeMap::new() }
    }

    /// Number of methods with stored summaries.
    pub fn method_count(&self) -> usize {
        self.methods.len()
    }

    /// Total number of `(entry fact → summaries)` entries.
    pub fn entry_count(&self) -> usize {
        self.methods.values().map(MethodSummaries::len).sum()
    }

    /// Returns `true` if nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.methods.is_empty()
    }

    /// Iterates `(signature, summaries)` in signature order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &MethodSummaries)> {
        self.methods.iter()
    }

    /// The summaries stored for method `sig`, under whatever body hash.
    pub fn get(&self, sig: &str) -> Option<&MethodSummaries> {
        self.methods.get(sig)
    }

    /// Records summaries for `(sig, body_hash, entry)`. A differing
    /// stored body hash means the method changed: all its old entries
    /// are dropped first. Exit summaries are kept sorted and deduped so
    /// the store contents — and the file bytes — are canonical.
    pub fn insert(&mut self, sig: &str, body_hash: u64, entry: SymFact, exits: Vec<SymSummary>) {
        let m = self.methods.entry(sig.to_owned()).or_default();
        if m.body_hash != body_hash {
            m.entries = Vec::new();
            m.body_hash = body_hash;
        }
        m.insert(entry, exits);
    }

    /// Whether `(sig, body_hash, entry)` has stored summaries.
    pub(crate) fn contains(&self, sig: &str, body_hash: u64, entry: &SymFact) -> bool {
        self.methods
            .get(sig)
            .is_some_and(|m| m.body_hash == body_hash && m.get(entry).is_some())
    }

    /// Looks up the summaries for `(sig, body_hash, entry)`.
    pub fn lookup(&self, sig: &str, body_hash: u64, entry: &SymFact) -> Lookup {
        match self.methods.get(sig) {
            None => Lookup::Miss,
            Some(m) if m.body_hash != body_hash => Lookup::Stale,
            Some(m) => match m.get(entry) {
                Some(exits) => Lookup::Hit(exits.to_vec()),
                None => Lookup::Miss,
            },
        }
    }

    /// Merges all of `other`'s entries into `self` (other's body hashes
    /// win on conflict — they are newer).
    pub fn merge(&mut self, other: SummaryStore) {
        for (sig, ms) in other.methods {
            for (entry, exits) in ms.entries {
                self.insert(&sig, ms.body_hash, entry, exits);
            }
        }
    }

    /// Serializes the store to its wire format (including checksum).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.buf.extend_from_slice(&MAGIC);
        w.u32(VERSION);
        w.u64(self.context_hash);
        w.u64(self.methods.len() as u64);
        for (sig, ms) in &self.methods {
            w.str(sig);
            w.u64(ms.body_hash);
            w.u32(u32::try_from(ms.entries.len()).expect("too many entries"));
            for (entry, exits) in &ms.entries {
                w.fact(entry);
                w.u32(u32::try_from(exits.len()).expect("too many exits"));
                for s in exits {
                    w.u32(s.exit_idx);
                    w.fact(&s.fact);
                }
            }
        }
        let checksum = fnv1a64(&w.buf);
        w.u64(checksum);
        w.buf
    }

    /// Deserializes a store from its wire format.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] on bad magic, unknown version, truncation
    /// or checksum mismatch. Never panics on malformed input.
    pub fn from_bytes(bytes: &[u8]) -> Result<SummaryStore, StoreError> {
        let mut r = Reader::new(bytes);
        if r.remaining() < MAGIC.len() + 4 + 8 + 8 + 8 {
            return Err(StoreError::Corrupt("file too short"));
        }
        let mut magic = [0u8; 4];
        for slot in &mut magic {
            *slot = r.u8()?;
        }
        if magic != MAGIC {
            return Err(StoreError::BadMagic);
        }
        let version = r.u32()?;
        if version != VERSION {
            return Err(StoreError::BadVersion(version));
        }
        // Verify the trailing checksum before trusting any counts.
        let body_len = bytes.len() - 8;
        let stored = u64::from_le_bytes(
            bytes[body_len..].try_into().expect("checksum slice is 8 bytes"),
        );
        if fnv1a64(&bytes[..body_len]) != stored {
            return Err(StoreError::Corrupt("checksum mismatch"));
        }
        let context_hash = r.u64()?;
        let method_count = r.u64()?;
        let mut store = SummaryStore::new(context_hash);
        for _ in 0..method_count {
            if r.pos() >= body_len {
                return Err(StoreError::Corrupt("method table overruns checksum"));
            }
            let sig = r.str()?;
            let body_hash = r.u64()?;
            let entry_count = r.count(5)?;
            let mut entries: Vec<(SymFact, Vec<SymSummary>)> = Vec::with_capacity(entry_count);
            for _ in 0..entry_count {
                let entry = r.fact()?;
                // The writer emits entries in strictly ascending order;
                // anything else is not a file this crate wrote.
                if entries.last().is_some_and(|(prev, _)| *prev >= entry) {
                    return Err(StoreError::Corrupt("entry facts out of order"));
                }
                let exit_count = r.count(5)?;
                let mut exits = Vec::with_capacity(exit_count);
                for _ in 0..exit_count {
                    exits.push(r.summary()?);
                }
                entries.push((entry, exits));
            }
            if store.methods.insert(sig, MethodSummaries { body_hash, entries }).is_some() {
                return Err(StoreError::Corrupt("duplicate method signature"));
            }
        }
        if r.remaining() != 8 {
            return Err(StoreError::Corrupt("trailing bytes after method table"));
        }
        Ok(store)
    }
}

/// A process-shared store with a *visible / fresh* split.
///
/// Lookups read only the `visible` half (what was on disk when the
/// store was opened, plus anything promoted by a flush). Newly computed
/// summaries are recorded into the `fresh` half and become visible —
/// and persistent — only after [`flush_dir`]. A run therefore never
/// consumes its own discoveries, keeping cold runs bit-identical to
/// uncached runs. A flush with nothing staged neither re-encodes the
/// store nor writes any tier.
#[derive(Debug)]
pub struct SharedStore {
    dir: PathBuf,
    /// Per-client namespace inside the cache directory (`""` shares
    /// the historical single-store layout).
    namespace: String,
    /// The tier stack this store loads from and flushes through.
    tiered: Arc<TieredStore>,
    visible: RwLock<SummaryStore>,
    fresh: Mutex<SummaryStore>,
    /// Which tier answered the open (`"memory"` / `"local"` /
    /// `"chunk"`), or `None` if the store started cold.
    loaded_from: Option<&'static str>,
    /// Whether an existing store file failed to load (corrupt,
    /// truncated or wrong version); the cache then starts cold instead
    /// of failing the analysis.
    load_error: Option<String>,
}

impl SharedStore {
    /// The cache directory this store persists to.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The cache namespace this store belongs to.
    pub fn namespace(&self) -> &str {
        &self.namespace
    }

    /// Name of the tier that satisfied the open, if any.
    pub fn loaded_from(&self) -> Option<&'static str> {
        self.loaded_from
    }

    /// The load failure message, if the on-disk file was unusable.
    pub fn load_error(&self) -> Option<&str> {
        self.load_error.as_deref()
    }

    /// Looks up `(sig, body_hash, entry)` among the *visible*
    /// summaries.
    pub fn lookup(&self, sig: &str, body_hash: u64, entry: &SymFact) -> Lookup {
        self.visible.read().unwrap().lookup(sig, body_hash, entry)
    }

    /// Number of visible methods.
    pub fn visible_methods(&self) -> usize {
        self.visible.read().unwrap().method_count()
    }

    /// Number of entries recorded but not yet flushed.
    pub fn fresh_entries(&self) -> usize {
        self.fresh.lock().unwrap().entry_count()
    }

    /// Runs `f` over the visible store (read-locked).
    pub fn with_visible<R>(&self, f: impl FnOnce(&SummaryStore) -> R) -> R {
        f(&self.visible.read().unwrap())
    }

    /// Records freshly computed summaries (not visible until flushed).
    /// Entries already visible with the same body hash are skipped —
    /// they came *from* the store.
    pub fn record(&self, sig: &str, body_hash: u64, entry: SymFact, exits: Vec<SymSummary>) {
        if self.visible.read().unwrap().contains(sig, body_hash, &entry) {
            return;
        }
        self.fresh.lock().unwrap().insert(sig, body_hash, entry, exits);
    }

    /// Promotes fresh summaries into the visible half and persists the
    /// merged store through every tier (memory LRU, local file,
    /// content-addressed chunk store). With nothing staged the store is
    /// unchanged, so nothing is encoded or written. Returns the number
    /// of visible methods after the merge.
    ///
    /// # Errors
    ///
    /// Returns the first I/O error from writing a tier.
    pub fn flush(&self) -> io::Result<usize> {
        let mut visible = self.visible.write().unwrap();
        let mut fresh = self.fresh.lock().unwrap();
        let staged = std::mem::replace(&mut *fresh, SummaryStore::new(visible.context_hash));
        if !staged.is_empty() {
            visible.merge(staged);
            let key = BlobKey::new(&self.namespace, visible.context_hash);
            self.tiered.store(&key, &visible.to_bytes())?;
        }
        Ok(visible.method_count())
    }
}

type Registry = Mutex<HashMap<(PathBuf, String, u64), Arc<SharedStore>>>;

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Default byte budget of the in-memory blob tier (per cache
/// directory).
const MEMORY_TIER_CAP: usize = 64 << 20;

type TieredRegistry = Mutex<HashMap<PathBuf, Arc<TieredStore>>>;

fn tiered_registry() -> &'static TieredRegistry {
    static TIERED: OnceLock<TieredRegistry> = OnceLock::new();
    TIERED.get_or_init(|| Mutex::new(HashMap::new()))
}

/// The tier stack persisting cache directory `dir` (one per directory,
/// shared by every namespace and context).
pub fn tiered_store(dir: &Path) -> Arc<TieredStore> {
    let mut reg = tiered_registry().lock().unwrap();
    Arc::clone(
        reg.entry(dir.to_path_buf())
            .or_insert_with(|| Arc::new(TieredStore::standard(dir, MEMORY_TIER_CAP))),
    )
}

/// Opens (or returns the already-open) shared store for `dir` under
/// the default namespace. See [`open_shared_ns`].
pub fn open_shared(dir: &Path, context_hash: u64) -> Arc<SharedStore> {
    open_shared_ns(dir, "", context_hash)
}

/// Opens (or returns the already-open) shared store for `dir` under
/// namespace `ns` and `context_hash`. On a registry miss the blob is
/// fetched through the tier stack (memory LRU → local file →
/// content-addressed chunks) and decoded once per `(directory,
/// namespace, context)` triple; a missing blob starts cold, and a
/// corrupt or incompatible local file is *rejected cleanly* — the
/// store starts cold and remembers the reason (see
/// [`SharedStore::load_error`]). A blob written under a different
/// `context_hash` is treated as absent. Namespaces never observe each
/// other's summaries.
pub fn open_shared_ns(dir: &Path, ns: &str, context_hash: u64) -> Arc<SharedStore> {
    let key = (dir.to_path_buf(), ns.to_string(), context_hash);
    let mut reg = registry().lock().unwrap();
    if let Some(existing) = reg.get(&key) {
        return Arc::clone(existing);
    }
    let tiered = tiered_store(dir);
    let blob_key = BlobKey::new(ns, context_hash);
    let valid = |bytes: &[u8]| {
        SummaryStore::from_bytes(bytes).map(|s| s.context_hash == context_hash).unwrap_or(false)
    };
    let (loaded, loaded_from) = match tiered.load(&blob_key, &valid) {
        Some((bytes, tier)) => (
            SummaryStore::from_bytes(&bytes).expect("validated blob decodes"),
            Some(tier),
        ),
        None => (SummaryStore::new(context_hash), None),
    };
    // If every tier missed but a local store file exists, surface why
    // it was unusable (corruption diagnostics; a context mismatch is
    // not an error).
    let load_error = if loaded_from.is_none() {
        match std::fs::read(local_store_file(dir, ns, context_hash)) {
            Ok(bytes) => SummaryStore::from_bytes(&bytes).err().map(|e| e.to_string()),
            Err(e) if e.kind() == io::ErrorKind::NotFound => None,
            Err(e) => Some(StoreError::Io(e).to_string()),
        }
    } else {
        None
    };
    let shared = Arc::new(SharedStore {
        dir: dir.to_path_buf(),
        namespace: ns.to_string(),
        tiered,
        visible: RwLock::new(loaded),
        fresh: Mutex::new(SummaryStore::new(context_hash)),
        loaded_from,
        load_error,
    });
    reg.insert(key, Arc::clone(&shared));
    shared
}

/// Flushes every open shared store rooted at `dir` (all namespaces):
/// fresh summaries become visible to later sessions in this process
/// and are persisted through every tier.
///
/// # Errors
///
/// Returns the first I/O error encountered.
pub fn flush_dir(dir: &Path) -> io::Result<()> {
    let stores: Vec<Arc<SharedStore>> = {
        let reg = registry().lock().unwrap();
        reg.iter()
            .filter(|((d, _, _), _)| d == dir)
            .map(|(_, s)| Arc::clone(s))
            .collect()
    };
    for s in stores {
        s.flush()?;
    }
    Ok(())
}

/// Flushes and then *releases* every idle shared store rooted at `dir`
/// (idle = no session holds it). Later opens re-fetch the blob through
/// the tier stack — normally straight from the memory LRU — instead of
/// pinning every decoded store for the life of the process. Returns
/// the number of stores released.
///
/// # Errors
///
/// Returns the first I/O error from flushing.
pub fn release_dir(dir: &Path) -> io::Result<usize> {
    flush_dir(dir)?;
    let mut reg = registry().lock().unwrap();
    let before = reg.len();
    // Holding the registry lock, a strong count of 1 means only the
    // registry itself still references the store.
    reg.retain(|(d, _, _), s| d != dir || Arc::strong_count(s) > 1);
    Ok(before - reg.len())
}

/// Drops the in-memory blob tier for `dir` so the next open falls
/// through to the local-file tier (used by load tests and cache
/// maintenance; persisted tiers are untouched).
pub fn clear_memory_tier(dir: &Path) {
    tiered_store(dir).clear_memory();
}

/// Per-tier hit/miss/write counters for the stack rooted at `dir`.
pub fn tier_stats(dir: &Path) -> Vec<TierStatsNamed> {
    tiered_store(dir).stats()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SymAp, SymBase, SymField};

    fn fact(slot: u32) -> SymFact {
        SymFact::Taint {
            ap: SymAp {
                base: SymBase::Local(slot),
                fields: vec![SymField { class: "C".into(), name: "f".into() }],
                truncated: false,
            },
            active: true,
            activation: None,
        }
    }

    fn sample() -> SummaryStore {
        let mut s = SummaryStore::new(42);
        s.insert(
            "<A: void m()>",
            7,
            SymFact::Zero,
            vec![SymSummary { exit_idx: 3, fact: fact(0) }],
        );
        s.insert(
            "<A: void m()>",
            7,
            fact(1),
            vec![
                SymSummary { exit_idx: 3, fact: fact(1) },
                SymSummary { exit_idx: 3, fact: fact(2) },
            ],
        );
        s.insert("<B: int g(int)>", 9, fact(0), vec![]);
        s
    }

    #[test]
    fn store_round_trips() {
        let s = sample();
        let bytes = s.to_bytes();
        let back = SummaryStore::from_bytes(&bytes).unwrap();
        assert_eq!(back, s);
        // Canonical: re-encoding produces identical bytes.
        assert_eq!(back.to_bytes(), bytes);
    }

    #[test]
    fn lookup_semantics() {
        let s = sample();
        assert!(matches!(s.lookup("<A: void m()>", 7, &SymFact::Zero), Lookup::Hit(_)));
        assert_eq!(s.lookup("<A: void m()>", 8, &SymFact::Zero), Lookup::Stale);
        assert_eq!(s.lookup("<A: void m()>", 7, &fact(9)), Lookup::Miss);
        assert_eq!(s.lookup("<Z: void z()>", 7, &SymFact::Zero), Lookup::Miss);
    }

    #[test]
    fn new_body_hash_drops_old_entries() {
        let mut s = sample();
        s.insert("<A: void m()>", 8, SymFact::Zero, vec![]);
        assert_eq!(s.lookup("<A: void m()>", 7, &fact(1)), Lookup::Stale);
        assert!(matches!(s.lookup("<A: void m()>", 8, &SymFact::Zero), Lookup::Hit(_)));
    }

    #[test]
    fn truncated_file_rejected() {
        let bytes = sample().to_bytes();
        for cut in 0..bytes.len() {
            assert!(
                SummaryStore::from_bytes(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes must not decode"
            );
        }
    }

    #[test]
    fn corrupted_file_rejected() {
        let bytes = sample().to_bytes();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            assert!(
                SummaryStore::from_bytes(&bad).is_err(),
                "flipping byte {i} must fail the checksum"
            );
        }
    }

    #[test]
    fn entries_stay_sorted_and_exactly_sized() {
        let mut s = SummaryStore::new(1);
        for slot in [5, 1, 3, 1, 0, 4] {
            let exits = vec![SymSummary { exit_idx: slot, fact: fact(slot) }];
            s.insert("<A: void m()>", 7, fact(slot), exits);
        }
        s.insert("<A: void m()>", 7, fact(1), vec![SymSummary { exit_idx: 0, fact: fact(2) }]);
        let m = s.get("<A: void m()>").unwrap();
        assert_eq!(m.entries.capacity(), m.len());
        assert!(m.entries.windows(2).all(|w| w[0].0 < w[1].0));
        assert!(m.entries.iter().all(|(_, exits)| exits.capacity() == exits.len()));
        assert_eq!(m.get(&fact(1)).unwrap().len(), 2, "exits of a repeated entry merge");
    }

    #[test]
    fn out_of_order_entries_are_rejected() {
        // A method whose two entries are written in descending order,
        // behind a valid checksum: not a file the writer produces.
        let mut w = Writer::new();
        w.buf.extend_from_slice(&MAGIC);
        w.u32(VERSION);
        w.u64(1);
        w.u64(1);
        w.str("<A: void m()>");
        w.u64(7);
        w.u32(2);
        for slot in [2, 1] {
            w.fact(&fact(slot));
            w.u32(0);
        }
        let checksum = fnv1a64(&w.buf);
        w.u64(checksum);
        assert!(matches!(
            SummaryStore::from_bytes(&w.buf),
            Err(StoreError::Corrupt("entry facts out of order"))
        ));
    }

    #[test]
    fn shared_store_hides_fresh_until_flush() {
        let dir = std::env::temp_dir().join(format!("fdss-shared-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let shared = open_shared(&dir, 1);
        assert!(shared.load_error().is_none());
        shared.record("<A: void m()>", 7, SymFact::Zero, vec![]);
        assert_eq!(shared.lookup("<A: void m()>", 7, &SymFact::Zero), Lookup::Miss);
        flush_dir(&dir).unwrap();
        assert!(matches!(shared.lookup("<A: void m()>", 7, &SymFact::Zero), Lookup::Hit(_)));
        // A later open of the same (dir, context) sees the same store.
        let again = open_shared(&dir, 1);
        assert!(matches!(again.lookup("<A: void m()>", 7, &SymFact::Zero), Lookup::Hit(_)));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_store_file_starts_cold() {
        let dir = std::env::temp_dir().join(format!("fdss-corrupt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(local_store_file(&dir, "", 2), b"not a store").unwrap();
        let shared = open_shared(&dir, 2);
        assert!(shared.load_error().is_some());
        assert_eq!(shared.visible_methods(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
