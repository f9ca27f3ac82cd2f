//! # specmt-store — content-addressed artifact store
//!
//! Every product of the specmt pipeline — generated traces, profile
//! results, spawn tables, baselines, full [`SimResult`]s — is a pure
//! function of an enumerable set of inputs: the workload program and its
//! generator parameters, the config subset the stage reads, the spawn
//! scheme's identity, and the stage's own code revision. This crate keys
//! each artifact by a stable 128-bit structural fingerprint of that *input
//! closure* and memoizes it on disk, so a warm `specmt bench all` after a
//! no-op change serves every grid cell from the store, and a localized
//! change (one `SimConfig` field, one `ProfileConfig` default) re-computes
//! only the stages that read it.
//!
//! The pieces:
//!
//! * [`Fingerprint`] / [`FingerprintHasher`] — stable, domain-separated
//!   structural hashing (SipHash-2-4 core; never `DefaultHasher`, whose
//!   algorithm may change between Rust releases).
//! * [`KeyBuilder`] / [`StageKey`] — a stage's key as named components
//!   (upstream stage key, config subset, scheme identity, code rev), each
//!   digested separately so a miss can be *explained* by diffing
//!   breakdowns, not just observed.
//! * [`Store`] / [`StoreHandle`] — the on-disk store: five typed
//!   [`Namespace`]s in one append-only log of checksummed records, one
//!   `write` per put, safe under concurrent `--jobs N` populations and
//!   other processes, and per-namespace hit/miss/store/invalidation
//!   counters surfaced as [`specmt_obs::Metrics`].
//!
//! Configuration is resolved **once** into a [`StoreConfig`]
//! ([`StoreConfig::from_env`] reads `SPECMT_CACHE` / `SPECMT_CACHE_DIR`);
//! handles are passed explicitly, and the process-wide default lives in
//! [`Store::default_handle`].
//!
//! ## Trust model
//!
//! Entries are addressed by the fingerprint of their inputs, so a *stale*
//! entry is unreachable by construction — the key changes. Corruption is
//! handled twice: a log record whose checksum fails is skipped, and
//! payloads that fail structural validation (trace manifests are
//! additionally checked against the workload's checksum by the pipeline)
//! are parse-rejected; either is a miss, regenerated and appended again.
//! The checksum detects damage, not tampering (it is not a MAC); the
//! store directory is trusted the way `target/` is.
//!
//! [`SimResult`]: https://docs.rs/specmt-sim

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fingerprint;
mod key;
mod store;

pub use fingerprint::{Fingerprint, FingerprintHasher, StoreKey};
pub use key::{BreakdownDoc, KeyBuilder, KeyComponent, StageKey};
pub use store::{
    InvalidationRecord, LastRun, Namespace, NamespaceUsage, Store, StoreConfig, StoreHandle,
    NAMESPACES,
};
