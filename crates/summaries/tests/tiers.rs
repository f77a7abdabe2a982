//! Tier-stack behaviour of the shared summary store: opens replay the
//! first valid blob any tier holds (memory LRU → local file →
//! content-addressed chunks), releases let later opens hit the tiers
//! instead of the decoded-store registry, per-client namespaces never
//! observe each other's summaries, the contexts of one namespace keep
//! separate local files, and a flush with nothing staged writes nothing.

use flowdroid_summaries::{
    clear_memory_tier, flush_dir, local_store_dir, local_store_file, open_shared_ns,
    release_dir, tier_stats, Lookup, SymFact,
};
use std::path::PathBuf;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fdss-tiers-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn hits(dir: &PathBuf, tier: &str) -> u64 {
    tier_stats(dir)
        .iter()
        .find(|t| t.name == tier)
        .map(|t| t.stats.hits)
        .unwrap_or(0)
}

#[test]
fn reopen_walks_down_the_tiers_and_promotes_back() {
    let dir = temp_dir("walk");
    let ctx = 77;

    // Cold open: nothing anywhere; record + flush populates all tiers.
    let store = open_shared_ns(&dir, "", ctx);
    assert_eq!(store.loaded_from(), None);
    store.record("<A: void m()>", 9, SymFact::Zero, vec![]);
    drop(store);
    assert_eq!(release_dir(&dir).unwrap(), 1, "idle store is released");

    // Re-open: the registry entry is gone, the memory tier answers.
    let store = open_shared_ns(&dir, "", ctx);
    assert_eq!(store.loaded_from(), Some("memory"));
    assert!(matches!(store.lookup("<A: void m()>", 9, &SymFact::Zero), Lookup::Hit(_)));
    drop(store);
    release_dir(&dir).unwrap();

    // Drop the memory tier: the local store file answers.
    clear_memory_tier(&dir);
    let store = open_shared_ns(&dir, "", ctx);
    assert_eq!(store.loaded_from(), Some("local"));
    assert!(matches!(store.lookup("<A: void m()>", 9, &SymFact::Zero), Lookup::Hit(_)));
    drop(store);
    release_dir(&dir).unwrap();

    // Drop memory *and* the local file: only the chunk store is left —
    // and the hit is promoted back into the upper tiers.
    clear_memory_tier(&dir);
    std::fs::remove_file(local_store_file(&dir, "", ctx)).unwrap();
    let store = open_shared_ns(&dir, "", ctx);
    assert_eq!(store.loaded_from(), Some("chunk"));
    assert!(matches!(store.lookup("<A: void m()>", 9, &SymFact::Zero), Lookup::Hit(_)));
    assert!(local_store_file(&dir, "", ctx).is_file(), "chunk hit restores the local file");

    assert!(hits(&dir, "memory") >= 1);
    assert!(hits(&dir, "local") >= 1);
    assert!(hits(&dir, "chunk") >= 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn namespaces_are_isolated_within_one_directory() {
    let dir = temp_dir("ns");
    let ctx = 11;

    let a = open_shared_ns(&dir, "tenant-a", ctx);
    a.record("<A: void m()>", 5, SymFact::Zero, vec![]);
    drop(a);
    release_dir(&dir).unwrap();

    // Same app, same context, different namespace: no cross-hits.
    let b = open_shared_ns(&dir, "tenant-b", ctx);
    assert_eq!(b.loaded_from(), None, "tenant-b starts cold");
    assert_eq!(b.lookup("<A: void m()>", 5, &SymFact::Zero), Lookup::Miss);

    // tenant-a's summaries are still there, in its own store file.
    let a = open_shared_ns(&dir, "tenant-a", ctx);
    assert!(a.loaded_from().is_some());
    assert!(matches!(a.lookup("<A: void m()>", 5, &SymFact::Zero), Lookup::Hit(_)));
    assert!(local_store_file(&dir, "tenant-a", ctx).is_file());
    assert_ne!(local_store_dir(&dir, "tenant-a"), local_store_dir(&dir, "tenant-b"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn busy_stores_survive_release() {
    let dir = temp_dir("busy");
    let held = open_shared_ns(&dir, "", 3);
    held.record("<B: void n()>", 1, SymFact::Zero, vec![]);
    // A session still holds the Arc: release must keep it registered.
    assert_eq!(release_dir(&dir).unwrap(), 0);
    let again = open_shared_ns(&dir, "", 3);
    assert!(std::sync::Arc::ptr_eq(&held, &again), "same registered store");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn contexts_of_one_namespace_keep_separate_local_files() {
    let dir = temp_dir("contexts");
    for ctx in [21, 22] {
        let store = open_shared_ns(&dir, "tenant", ctx);
        store.record("<C: void c()>", ctx, SymFact::Zero, vec![]);
    }
    release_dir(&dir).unwrap();
    assert_ne!(local_store_file(&dir, "tenant", 21), local_store_file(&dir, "tenant", 22));

    // With the memory tier gone, each context must come back from its
    // own local file, not from a file the other context overwrote.
    clear_memory_tier(&dir);
    for ctx in [21, 22] {
        let store = open_shared_ns(&dir, "tenant", ctx);
        assert_eq!(store.loaded_from(), Some("local"), "context {ctx}");
        assert!(matches!(store.lookup("<C: void c()>", ctx, &SymFact::Zero), Lookup::Hit(_)));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn flushing_with_nothing_staged_writes_no_tier() {
    let dir = temp_dir("clean-flush");
    let writes = |dir: &PathBuf| -> Vec<u64> {
        tier_stats(dir).iter().map(|t| t.stats.writes).collect()
    };

    // A cold store with nothing recorded: flushing writes nothing.
    let store = open_shared_ns(&dir, "", 5);
    flush_dir(&dir).unwrap();
    assert_eq!(writes(&dir), vec![0, 0, 0]);

    // A staged summary is written through every tier once...
    store.record("<D: void d()>", 1, SymFact::Zero, vec![]);
    flush_dir(&dir).unwrap();
    let after_dirty = writes(&dir);
    assert_eq!(after_dirty, vec![1, 1, 1]);

    // ...and neither a repeat flush nor re-recording a visible summary
    // writes anything again.
    flush_dir(&dir).unwrap();
    store.record("<D: void d()>", 1, SymFact::Zero, vec![]);
    flush_dir(&dir).unwrap();
    assert_eq!(writes(&dir), after_dirty);
    let _ = std::fs::remove_dir_all(&dir);
}
