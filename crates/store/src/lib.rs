//! # modsyn-store
//!
//! An incremental, content-addressed synthesis store. The modular flow of
//! the paper decomposes one synthesis run into independent per-module
//! CSC solves; this crate caches those solves by the *content* of the
//! module — the exact quotient state graph plus every solver-relevant
//! option — so that re-synthesising a lightly edited STG only pays for the
//! modules the edit actually touched.
//!
//! Three pieces:
//!
//! * **The store** ([`SynthStore`]) — two content-addressed namespaces
//!   (module solves and whole-run synthesis records) built on persistent,
//!   structurally-shared [`ChunkedMap`]s. Snapshots are O(chunks) to take,
//!   immutable, and diffable ([`Snapshot::diff`]), giving the daemon a
//!   cheap timeline of how the store evolved.
//! * **Provenance** ([`Provenance`]) — every inserted state signal records
//!   which module forced it, which CSC conflict pairs it resolves, and the
//!   clause-family breakdown of the winning formula, so `GET /explain` and
//!   `modsyn --explain` can answer "why does `csc0` exist?".
//! * **Edits** ([`pulse_edit`], [`rename_edit`]) — seeded single-edit STG
//!   perturbations used by the incremental benchmarks and smoke tests.
//!
//! ## Keying discipline
//!
//! Module keys ([`module_key`]) hash the **exact rendering** of the
//! quotient graph ([`graph_key_text`]) — storage order, not canonical
//! order. SAT solvers are not relabelling-equivariant: an isomorphic but
//! renumbered quotient can produce a different (equally valid) model, which
//! would break the store's central guarantee that an incremental result is
//! byte-identical to from-scratch resynthesis. Equal key text means the
//! solver sees an indistinguishable problem, so replaying the cached
//! solution is exactly what a fresh solve would have produced.

pub mod chunk;
pub mod durable;
pub mod edit;
pub mod provenance;
pub mod snapshot;
pub mod store;
pub mod wal;

pub use chunk::{ChunkedMap, MapDiff, CHUNK_COUNT};
pub use durable::{
    write_atomic, DurableConfig, DurableStore, RecoveryReport, SNAP_FILE, SNAP_PREV_FILE, WAL_FILE,
};
pub use edit::{pulse_edit, rebuild, rename_edit};
pub use provenance::{ClauseFamilies, ModuleEntry, Provenance, StoredFormula, SynthRecord};
pub use snapshot::{
    restore_into, snapshot_doc, snapshot_from_json, SnapshotData, SNAPSHOT_VERSION,
};
pub use store::{
    graph_key_text, module_key, Snapshot, SnapshotMeta, StoreDiff, StoreLink, StoreSession,
    SynthStore,
};
pub use wal::{encode_frame, scan_bytes, scan_wal, StoreMutation, Wal, WalScan, WAL_HEADER};

// Re-exported so store consumers can derive digests without a direct
// modsyn-stg dependency.
pub use modsyn_stg::{fnv1a64, stg_digest};
