#![warn(missing_docs)]

//! Persistent on-disk store for IFDS end summaries.
//!
//! The taint solvers spend most of their time re-deriving end summaries
//! — `(callee, entry fact) → {(exit statement, exit fact)}` — for
//! platform stubs and library code that are byte-identical across every
//! app in a corpus. This crate persists those summaries between
//! processes so a later run can *apply* a callee's summaries instead of
//! re-tabulating its body.
//!
//! Arena ids (method ids, field ids, symbols, interned fact ids) are
//! assigned in load order and differ between processes, so everything
//! here is **symbolic**: methods are full signature strings, fields are
//! `(class name, field name)` pairs, facts are [`SymFact`] values that
//! the consumer re-interns into its own arenas on load
//! (`flowdroid-core` owns the `Fact ↔ SymFact` conversion). Local
//! variables are stored by raw slot index, which is safe because
//! summaries are only applied when the method's **body fingerprint**
//! matches (`flowdroid_ir::body_fingerprint` extended transitively by
//! the consumer), and equal fingerprints imply identical local tables.
//!
//! The on-disk format (one `summaries-<context>.fdss` file per cache
//! directory, namespace and configuration context) is versioned and
//! checksummed; see [`wire`] for the exact layout. Corrupted,
//! truncated or incompatible files are rejected with a clean
//! [`StoreError`], never a panic — a bad cache degrades to a cold one.
//!
//! Persistence goes through the tier stack in `flowdroid-store`
//! (in-memory LRU → local store files → content-addressed chunk
//! store): opens replay the first valid blob any tier holds, flushes
//! of stores with staged summaries write through all of them, and
//! per-client *cache namespaces* key disjoint stores inside one cache
//! directory (see [`open_shared_ns`], [`release_dir`], [`tier_stats`]).
//!
//! [`SharedStore`] layers a process-wide *visible / fresh* split on
//! top: lookups only see summaries loaded from disk (or explicitly
//! promoted), while newly recorded summaries accumulate in a side
//! buffer until [`flush_dir`] merges and persists them. This keeps a
//! cold run bit-identical to an uncached run — its own discoveries are
//! never applied to itself — which is what makes cold-vs-warm
//! determinism testable.

mod store;
pub mod wire;

pub use flowdroid_store::{local_store_dir, local_store_file, TierStats, TierStatsNamed};
pub use store::{
    clear_memory_tier, flush_dir, open_shared, open_shared_ns, release_dir, tier_stats,
    tiered_store, Lookup, MethodSummaries, SharedStore, StoreError, SummaryStore,
};

/// A field reference by value: declaring class name + field name.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SymField {
    /// Fully qualified declaring class name.
    pub class: String,
    /// Field name.
    pub name: String,
}

/// The root of a symbolic access path.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SymBase {
    /// A local variable slot (stable under an equal body fingerprint).
    Local(u32),
    /// A static field.
    Static(SymField),
}

/// A symbolic access path: base plus field chain.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SymAp {
    /// The root.
    pub base: SymBase,
    /// The field chain.
    pub fields: Vec<SymField>,
    /// Whether fields were dropped due to the length bound.
    pub truncated: bool,
}

/// A statement reference by value: method signature + statement index.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SymStmt {
    /// Full signature of the containing method.
    pub method: String,
    /// Statement index within that method's body.
    pub idx: u32,
}

/// A symbolic taint fact.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SymFact {
    /// The IFDS zero fact.
    Zero,
    /// A (possibly inactive) taint on an access path.
    Taint {
        /// The tainted access path.
        ap: SymAp,
        /// Whether the taint is active.
        active: bool,
        /// Activation statement for inactive (alias-derived) taints.
        activation: Option<SymStmt>,
    },
}

/// One end summary: an exit statement (by index within the summarized
/// method) and the fact holding there.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SymSummary {
    /// Exit statement index within the summarized method.
    pub exit_idx: u32,
    /// Fact holding at that exit.
    pub fact: SymFact,
}
