//! The on-disk store: typed namespaces, atomic writes, counters.
//!
//! ## Layout
//!
//! ```text
//! <dir>/
//!   <namespace>/  <name>.<key>.json + <name>.<key>.key.json
//!   last-run.json                   (counters + invalidation records)
//! ```
//!
//! Every namespace (`trace`, `profile`, `spawn-table`, `analysis`,
//! `simresult`) uses this one layout: a payload and its key sidecar.
//! Files of any other shape, such as the `<name>.<key>.smtr` trace
//! entries older builds wrote, are never read or listed as entries or
//! siblings; [`Store::clear`] removes them with the rest.
//!
//! `<name>` is a human-readable logical name (`gcc-tiny`,
//! `gcc-tiny-heuristics`); `<key>` is the 32-hex-digit composite digest of
//! the entry's input closure ([`crate::StageKey`]). Reads are lock-free:
//! an entry is a plain file whose name *is* its key, committed by a
//! `rename(2)` from a pid-and-sequence-suffixed temp file, so readers never
//! observe a torn entry and concurrent writers of the same key converge on
//! identical bytes.
//!
//! ## Invalidation audit trail
//!
//! On a miss, the store looks for sibling entries with the same logical
//! name. Finding one means the artifact was computed before under different
//! inputs — an *invalidation*, not a cold start — so the per-namespace
//! invalidation counter ticks and the `.key.json` sidecars are diffed to
//! name exactly which key components changed (e.g. `["sim-config"]`).
//! Siblings this very handle wrote don't count: a sweep accumulating many
//! configurations under one logical name within a single run is expected
//! growth, not stale state, so only entries inherited from a *previous*
//! run can be invalidated. (Each invalidated name is counted once per
//! handle — the first sweep point to discover it.)

use std::collections::HashSet;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use specmt_obs::{CounterSnapshot, Metrics};

use crate::key::{BreakdownDoc, StageKey};

/// The artifact families the store distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Namespace {
    /// The trace stage (the figure harness stores a small manifest here,
    /// not the trace itself).
    Trace,
    /// Profile-stage analysis results (§3.1 selection, `ProfileResult`).
    Profile,
    /// Spawn tables produced by a registered scheme.
    SpawnTable,
    /// Auxiliary analysis artifacts (e.g. single-threaded baselines).
    Analysis,
    /// Full simulation results (one per grid cell).
    SimResult,
}

/// Every namespace, in display order.
pub const NAMESPACES: [Namespace; 5] = [
    Namespace::Trace,
    Namespace::Profile,
    Namespace::SpawnTable,
    Namespace::Analysis,
    Namespace::SimResult,
];

impl Namespace {
    /// The namespace's directory name under the store root.
    pub fn dir_name(self) -> &'static str {
        match self {
            Namespace::Trace => "trace",
            Namespace::Profile => "profile",
            Namespace::SpawnTable => "spawn-table",
            Namespace::Analysis => "analysis",
            Namespace::SimResult => "simresult",
        }
    }

    /// Whether a put should delete same-name entries under other keys.
    ///
    /// Trace/profile/analysis artifacts have exactly one live version per
    /// logical name (the pipeline's current inputs), so a new key
    /// supersedes the old entry. Spawn tables and sim results legitimately
    /// keep many keys per name — parameter sweeps revisit several configs
    /// of the same cell within one run — so they only ever accumulate
    /// (until `specmt cache clear`).
    fn supersedes(self) -> bool {
        matches!(
            self,
            Namespace::Trace | Namespace::Profile | Namespace::Analysis
        )
    }

    fn hits_counter(self) -> &'static str {
        match self {
            Namespace::Trace => "store_trace_hits",
            Namespace::Profile => "store_profile_hits",
            Namespace::SpawnTable => "store_spawn_table_hits",
            Namespace::Analysis => "store_analysis_hits",
            Namespace::SimResult => "store_simresult_hits",
        }
    }

    fn misses_counter(self) -> &'static str {
        match self {
            Namespace::Trace => "store_trace_misses",
            Namespace::Profile => "store_profile_misses",
            Namespace::SpawnTable => "store_spawn_table_misses",
            Namespace::Analysis => "store_analysis_misses",
            Namespace::SimResult => "store_simresult_misses",
        }
    }

    fn stores_counter(self) -> &'static str {
        match self {
            Namespace::Trace => "store_trace_stores",
            Namespace::Profile => "store_profile_stores",
            Namespace::SpawnTable => "store_spawn_table_stores",
            Namespace::Analysis => "store_analysis_stores",
            Namespace::SimResult => "store_simresult_stores",
        }
    }

    fn invalidations_counter(self) -> &'static str {
        match self {
            Namespace::Trace => "store_trace_invalidations",
            Namespace::Profile => "store_profile_invalidations",
            Namespace::SpawnTable => "store_spawn_table_invalidations",
            Namespace::Analysis => "store_analysis_invalidations",
            Namespace::SimResult => "store_simresult_invalidations",
        }
    }
}

/// Where (and whether) the store lives, resolved once at startup.
///
/// The `SPECMT_CACHE` / `SPECMT_CACHE_DIR` environment variables are inputs
/// to [`StoreConfig::from_env`] only — nothing re-reads them afterwards, so
/// tests and tools configure stores explicitly instead of mutating process
/// env (which is racy under parallel test threads).
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Whether gets/puts touch disk at all.
    pub enabled: bool,
    /// The store root directory.
    pub dir: PathBuf,
}

impl StoreConfig {
    /// The default on-disk location: `target/specmt-cache` relative to the
    /// working directory.
    pub fn default_dir() -> PathBuf {
        PathBuf::from("target/specmt-cache")
    }

    /// Resolves the configuration from the environment, once:
    /// `SPECMT_CACHE=off|0|false` disables the store, `SPECMT_CACHE_DIR`
    /// relocates it.
    pub fn from_env() -> StoreConfig {
        let enabled = !matches!(
            std::env::var("SPECMT_CACHE").as_deref(),
            Ok("off") | Ok("0") | Ok("false")
        );
        let dir = match std::env::var("SPECMT_CACHE_DIR") {
            Ok(d) if !d.is_empty() => PathBuf::from(d),
            _ => StoreConfig::default_dir(),
        };
        StoreConfig { enabled, dir }
    }

    /// A disabled store: every get misses, every put is a no-op.
    pub fn disabled() -> StoreConfig {
        StoreConfig {
            enabled: false,
            dir: StoreConfig::default_dir(),
        }
    }

    /// An enabled store rooted at `dir`.
    pub fn at(dir: impl Into<PathBuf>) -> StoreConfig {
        StoreConfig {
            enabled: true,
            dir: dir.into(),
        }
    }
}

/// Why a key missed: the sibling entries' differing key components.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvalidationRecord {
    /// The namespace directory name.
    pub namespace: String,
    /// The logical entry name that re-keyed.
    pub name: String,
    /// The stage whose key missed.
    pub stage: String,
    /// Key components that differ from the nearest sibling entry.
    pub changed: Vec<String>,
}

serde::impl_serde_struct!(InvalidationRecord {
    namespace,
    name,
    stage,
    changed,
});

/// Per-namespace hit/miss/store/invalidation counters plus the recorded
/// invalidation diffs, snapshotted into a [`specmt_obs::Metrics`].
#[derive(Debug, Default)]
struct Counters {
    hits: [AtomicU64; 5],
    misses: [AtomicU64; 5],
    stores: [AtomicU64; 5],
    invalidations: [AtomicU64; 5],
}

fn ns_index(ns: Namespace) -> usize {
    match ns {
        Namespace::Trace => 0,
        Namespace::Profile => 1,
        Namespace::SpawnTable => 2,
        Namespace::Analysis => 3,
        Namespace::SimResult => 4,
    }
}

/// A shared handle to one store; cheap to clone, safe to use from any
/// thread ([`Store`]'s state is atomics plus immutable config).
pub type StoreHandle = Arc<Store>;

/// The content-addressed artifact store.
pub struct Store {
    config: StoreConfig,
    counters: Counters,
    invalidations: Mutex<Vec<InvalidationRecord>>,
    /// `(namespace index, logical name)` pairs this handle has written or
    /// already counted an invalidation for. A miss under such a name is a
    /// sweep accumulating entries, not a new invalidation (see module doc).
    /// A name joins the set *before* its first entry becomes visible, so a
    /// concurrent miss that sees the entry also sees the name.
    session_writes: Mutex<HashSet<(usize, String)>>,
}

/// Disk usage of one namespace, from [`Store::usage`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NamespaceUsage {
    /// The namespace directory name.
    pub namespace: String,
    /// Committed entries (payload files, excluding sidecars and temps).
    pub entries: u64,
    /// Total bytes including sidecars.
    pub bytes: u64,
}

serde::impl_serde_struct!(NamespaceUsage { namespace, entries, bytes });

impl Store {
    /// Opens a store with `config`, sweeping temp files abandoned by
    /// crashed writers (see `Store::sweep_stale_tmp`).
    pub fn open(config: StoreConfig) -> StoreHandle {
        let store = Store {
            config,
            counters: Counters::default(),
            invalidations: Mutex::new(Vec::new()),
            session_writes: Mutex::new(HashSet::new()),
        };
        if store.config.enabled {
            for ns in NAMESPACES {
                store.sweep_stale_tmp(&store.ns_dir(ns));
            }
        }
        Arc::new(store)
    }

    /// A store that never touches disk.
    pub fn disabled() -> StoreHandle {
        Store::open(StoreConfig::disabled())
    }

    /// The process-wide default store, resolved from the environment
    /// exactly once (first use wins; later env mutations are ignored by
    /// design — pass an explicit handle to use a different store).
    pub fn default_handle() -> &'static StoreHandle {
        static DEFAULT: OnceLock<StoreHandle> = OnceLock::new();
        DEFAULT.get_or_init(|| Store::open(StoreConfig::from_env()))
    }

    /// The resolved configuration.
    pub fn config(&self) -> &StoreConfig {
        &self.config
    }

    /// Whether gets/puts touch disk.
    pub fn enabled(&self) -> bool {
        self.config.enabled
    }

    fn ns_dir(&self, ns: Namespace) -> PathBuf {
        self.config.dir.join(ns.dir_name())
    }

    fn entry_path(&self, ns: Namespace, name: &str, key: &StageKey) -> PathBuf {
        self.ns_dir(ns)
            .join(format!("{name}.{}.json", key.key.hex()))
    }

    fn sidecar_path(&self, ns: Namespace, name: &str, key_hex: &str) -> PathBuf {
        self.ns_dir(ns).join(format!("{name}.{key_hex}.key.json"))
    }

    /// Reads the entry for `key`, or `None` on a miss (absent, unreadable —
    /// indistinguishable by design; corrupt payloads are the caller's to
    /// reject, after which regeneration overwrites the entry in place).
    ///
    /// A miss with same-name siblings inherited from a prior run is
    /// counted as an invalidation and the sibling sidecars are diffed to
    /// record which key components changed (siblings this handle wrote
    /// itself are sweep growth, not stale state).
    pub fn get_bytes(&self, ns: Namespace, name: &str, key: &StageKey) -> Option<Vec<u8>> {
        if !self.config.enabled {
            return None;
        }
        let path = self.entry_path(ns, name, key);
        match fs::read(&path) {
            Ok(bytes) => {
                self.counters.hits[ns_index(ns)].fetch_add(1, Ordering::Relaxed);
                Some(bytes)
            }
            Err(_) => {
                self.counters.misses[ns_index(ns)].fetch_add(1, Ordering::Relaxed);
                self.record_invalidation(ns, name, key);
                None
            }
        }
    }

    /// As [`Store::get_bytes`], deserializing JSON payloads. A payload
    /// that fails to parse (truncation, corruption) is a miss.
    pub fn get_json<T: serde::Deserialize>(
        &self,
        ns: Namespace,
        name: &str,
        key: &StageKey,
    ) -> Option<T> {
        let bytes = self.get_bytes(ns, name, key)?;
        serde_json::from_slice(&bytes).ok()
    }

    /// Writes `bytes` under `key` atomically (temp file + rename), plus a
    /// `.key.json` sidecar holding the key's component breakdown.
    /// Best-effort: I/O failure leaves the store cold, never torn.
    pub fn put_bytes(&self, ns: Namespace, name: &str, key: &StageKey, bytes: &[u8]) {
        if !self.config.enabled {
            return;
        }
        let dir = self.ns_dir(ns);
        if fs::create_dir_all(&dir).is_err() {
            return;
        }
        // Claim the name before the entry becomes visible: a concurrent
        // miss under the same name that lists this entry as a sibling must
        // find the name already claimed (see `record_invalidation`).
        if let Ok(mut writes) = self.session_writes.lock() {
            writes.insert((ns_index(ns), name.to_owned()));
        }
        let entry = self.entry_path(ns, name, key);
        if !write_atomic(&entry, bytes) {
            return;
        }
        if let Ok(sidecar_json) = serde_json::to_string_pretty(&key.to_doc()) {
            let sidecar = self.sidecar_path(ns, name, &key.key.hex());
            write_atomic(&sidecar, sidecar_json.as_bytes());
        }
        self.counters.stores[ns_index(ns)].fetch_add(1, Ordering::Relaxed);
        if ns.supersedes() {
            self.remove_siblings(ns, name, &key.key.hex());
        }
    }

    /// As [`Store::put_bytes`] for JSON payloads.
    pub fn put_json<T: serde::Serialize>(&self, ns: Namespace, name: &str, key: &StageKey, v: &T) {
        if !self.config.enabled {
            return;
        }
        if let Ok(bytes) = serde_json::to_vec(v) {
            self.put_bytes(ns, name, key, &bytes);
        }
    }

    /// Same-name entries stored under other keys: `(key hex, payload path)`.
    fn siblings(&self, ns: Namespace, name: &str, except_hex: &str) -> Vec<(String, PathBuf)> {
        let mut out = Vec::new();
        let Ok(entries) = fs::read_dir(self.ns_dir(ns)) else {
            return out;
        };
        for entry in entries.flatten() {
            let file_name = entry.file_name();
            let Some(file_name) = file_name.to_str() else {
                continue;
            };
            let Some(hex) = entry_key_hex(file_name, name) else {
                continue;
            };
            if hex != except_hex {
                out.push((hex.to_owned(), entry.path()));
            }
        }
        out
    }

    /// Deletes same-name entries (payload + sidecar) under other keys.
    fn remove_siblings(&self, ns: Namespace, name: &str, keep_hex: &str) {
        for (hex, path) in self.siblings(ns, name, keep_hex) {
            let _ = fs::remove_file(path);
            let _ = fs::remove_file(self.sidecar_path(ns, name, &hex));
        }
    }

    /// On a miss with siblings present: count an invalidation and diff the
    /// newest sibling sidecars against `key` to name what changed.
    fn record_invalidation(&self, ns: Namespace, name: &str, key: &StageKey) {
        let slot = (ns_index(ns), name.to_owned());
        if self
            .session_writes
            .lock()
            .map(|w| w.contains(&slot))
            .unwrap_or(false)
        {
            // This handle wrote the siblings itself (a sweep accumulating
            // entries under one name) — not stale state from a prior run.
            return;
        }
        let mut sibs = self.siblings(ns, name, &key.key.hex());
        if sibs.is_empty() {
            return;
        }
        // Claim the name only now, after listing: a sibling another thread
        // of this handle made visible meanwhile had its name claimed first,
        // so the claim fails and the listing is not mistaken for a prior
        // run's. A successful claim also counts each name once.
        if !self
            .session_writes
            .lock()
            .map(|mut w| w.insert(slot))
            .unwrap_or(false)
        {
            return;
        }
        self.counters.invalidations[ns_index(ns)].fetch_add(1, Ordering::Relaxed);
        // Newest few siblings only: a long-lived simresult namespace can
        // hold dozens of configs per cell, and the nearest ancestor is
        // almost always recent.
        sibs.sort_by_key(|(_, path)| {
            std::cmp::Reverse(
                fs::metadata(path)
                    .and_then(|m| m.modified())
                    .ok()
                    .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok()),
            )
        });
        let changed = sibs
            .iter()
            .take(8)
            .filter_map(|(hex, _)| {
                let text = fs::read_to_string(self.sidecar_path(ns, name, hex)).ok()?;
                let doc: BreakdownDoc = serde_json::from_str(&text).ok()?;
                Some(key.diff(&doc))
            })
            .min_by_key(Vec::len)
            .unwrap_or_default();
        if let Ok(mut records) = self.invalidations.lock() {
            records.push(InvalidationRecord {
                namespace: ns.dir_name().to_owned(),
                name: name.to_owned(),
                stage: key.stage.to_owned(),
                changed,
            });
        }
    }

    /// The invalidation records accumulated so far.
    pub fn invalidation_records(&self) -> Vec<InvalidationRecord> {
        self.invalidations
            .lock()
            .map(|r| r.clone())
            .unwrap_or_default()
    }

    /// Counter value accessors, mainly for tests and the CLI.
    pub fn hits(&self, ns: Namespace) -> u64 {
        self.counters.hits[ns_index(ns)].load(Ordering::Relaxed)
    }

    /// Misses recorded for `ns`.
    pub fn misses(&self, ns: Namespace) -> u64 {
        self.counters.misses[ns_index(ns)].load(Ordering::Relaxed)
    }

    /// Puts recorded for `ns`.
    pub fn stores(&self, ns: Namespace) -> u64 {
        self.counters.stores[ns_index(ns)].load(Ordering::Relaxed)
    }

    /// Misses for `ns` that found same-name siblings from a prior run
    /// (one per invalidated name — see [`Store::get_bytes`]).
    pub fn invalidations(&self, ns: Namespace) -> u64 {
        self.counters.invalidations[ns_index(ns)].load(Ordering::Relaxed)
    }

    /// Snapshots every counter into an obs [`Metrics`], the same shape the
    /// simulator's own metrics flow through (`specmt bench --json` embeds
    /// it, `specmt cache stats` reads it back).
    pub fn metrics(&self) -> Metrics {
        let mut counters = Vec::new();
        for ns in NAMESPACES {
            let i = ns_index(ns);
            for (name, cell) in [
                (ns.hits_counter(), &self.counters.hits[i]),
                (ns.misses_counter(), &self.counters.misses[i]),
                (ns.stores_counter(), &self.counters.stores[i]),
                (ns.invalidations_counter(), &self.counters.invalidations[i]),
            ] {
                counters.push(CounterSnapshot {
                    name: name.to_owned(),
                    value: cell.load(Ordering::Relaxed),
                });
            }
        }
        Metrics {
            counters,
            histograms: Vec::new(),
        }
    }

    /// Persists this run's counters and invalidation records to
    /// `<dir>/last-run.json` for `specmt cache stats`.
    pub fn persist_last_run(&self) {
        if !self.config.enabled {
            return;
        }
        let doc = LastRun {
            schema: "specmt-store-stats/v1".to_owned(),
            metrics: self.metrics(),
            invalidations: self.invalidation_records(),
        };
        if fs::create_dir_all(&self.config.dir).is_err() {
            return;
        }
        if let Ok(json) = serde_json::to_string_pretty(&doc) {
            write_atomic(&self.config.dir.join("last-run.json"), json.as_bytes());
        }
    }

    /// Reads the stats persisted by the previous run, if any.
    pub fn load_last_run(&self) -> Option<LastRun> {
        let text = fs::read_to_string(self.config.dir.join("last-run.json")).ok()?;
        serde_json::from_str(&text).ok()
    }

    /// Disk usage per namespace.
    pub fn usage(&self) -> Vec<NamespaceUsage> {
        NAMESPACES
            .iter()
            .map(|&ns| {
                let mut u = NamespaceUsage {
                    namespace: ns.dir_name().to_owned(),
                    ..NamespaceUsage::default()
                };
                if let Ok(entries) = fs::read_dir(self.ns_dir(ns)) {
                    for entry in entries.flatten() {
                        let len = entry.metadata().map(|m| m.len()).unwrap_or(0);
                        u.bytes += len;
                        let name = entry.file_name();
                        let is_payload = name
                            .to_str()
                            .is_some_and(|n| n.ends_with(".json") && !n.ends_with(".key.json"));
                        if is_payload {
                            u.entries += 1;
                        }
                    }
                }
                u
            })
            .collect()
    }

    /// Removes every entry and the last-run stats, keeping the root.
    pub fn clear(&self) -> std::io::Result<()> {
        for ns in NAMESPACES {
            let dir = self.ns_dir(ns);
            if dir.is_dir() {
                fs::remove_dir_all(&dir)?;
            }
        }
        let stats = self.config.dir.join("last-run.json");
        if stats.exists() {
            fs::remove_file(stats)?;
        }
        Ok(())
    }

    /// Removes temp files abandoned by crashed writers in `dir`. The
    /// temp + rename protocol makes torn *entries* impossible, but a
    /// process killed mid-write leaks its `.tmp<pid>-<seq>` files; this
    /// sweep collects them without touching committed entries or the temp
    /// files of still-running writers.
    fn sweep_stale_tmp(&self, dir: &Path) {
        let Ok(entries) = fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else {
                continue;
            };
            if tmp_pid(name).is_some_and(|pid| tmp_is_stale(pid, &entry.path())) {
                let _ = fs::remove_file(entry.path());
            }
        }
    }
}

impl std::fmt::Debug for Store {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Store")
            .field("enabled", &self.config.enabled)
            .field("dir", &self.config.dir)
            .finish()
    }
}

/// The `last-run.json` document: this run's counters and invalidations.
#[derive(Debug, Clone)]
pub struct LastRun {
    /// Schema tag, `"specmt-store-stats/v1"`.
    pub schema: String,
    /// The counter snapshot.
    pub metrics: Metrics,
    /// Why each invalidated entry re-keyed.
    pub invalidations: Vec<InvalidationRecord>,
}

serde::impl_serde_struct!(LastRun {
    schema,
    metrics,
    invalidations,
});

/// The key hex of a committed payload named `<name>.<32 hex>.json`, if
/// `file_name` is one for this logical `name`.
fn entry_key_hex<'a>(file_name: &'a str, name: &str) -> Option<&'a str> {
    let rest = file_name.strip_prefix(name)?.strip_prefix('.')?;
    let hex = rest.strip_suffix(".json")?;
    (hex.len() == 32 && hex.bytes().all(|b| b.is_ascii_hexdigit())).then_some(hex)
}

/// Writes `bytes` to `path` via a pid-and-sequence-suffixed temp file and
/// an atomic rename, so readers never see a torn entry and concurrent
/// writers (parallel suite load, `--jobs N` grids) cannot clobber each
/// other's temp files — even two threads of one process writing the same
/// entry. Returns `false` (after cleaning up) on any I/O failure.
fn write_atomic(path: &Path, bytes: &[u8]) -> bool {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let mut tmp_name = path.file_name().unwrap_or_default().to_owned();
    tmp_name.push(format!(".tmp{}-{seq}", std::process::id()));
    let tmp = path.with_file_name(tmp_name);
    if fs::write(&tmp, bytes).is_ok() && fs::rename(&tmp, path).is_ok() {
        return true;
    }
    let _ = fs::remove_file(&tmp);
    false
}

/// The pid of a writer's temp file (`….tmp<pid>` or `….tmp<pid>-<seq>`),
/// if `name` is one. Accepts the bare-pid form PR 5 wrote so a store
/// upgrade still sweeps older leftovers.
fn tmp_pid(name: &str) -> Option<u32> {
    let (_, suffix) = name.rsplit_once(".tmp")?;
    let pid = suffix.split('-').next().unwrap_or(suffix);
    pid.parse().ok()
}

/// Whether a temp file belongs to a crashed writer. The owning process
/// still running (checked via `/proc` where it exists) keeps its file;
/// where liveness cannot be checked, only files over an hour old count as
/// abandoned.
fn tmp_is_stale(pid: u32, path: &Path) -> bool {
    if pid == std::process::id() {
        return false;
    }
    if Path::new("/proc").is_dir() {
        return !Path::new(&format!("/proc/{pid}")).exists();
    }
    fs::metadata(path)
        .and_then(|m| m.modified())
        .ok()
        .and_then(|t| t.elapsed().ok())
        .is_some_and(|age| age.as_secs() > 3600)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::KeyBuilder;

    /// A scratch directory unique to one test, removed on drop.
    struct Scratch(PathBuf);

    impl Scratch {
        fn new(tag: &str) -> Scratch {
            let dir = std::env::temp_dir()
                .join(format!("specmt-store-test-{}-{tag}", std::process::id()));
            let _ = fs::remove_dir_all(&dir);
            fs::create_dir_all(&dir).expect("create scratch dir");
            Scratch(dir)
        }

        fn store(&self) -> StoreHandle {
            Store::open(StoreConfig::at(&self.0))
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    fn k(stage: &'static str, x: u64) -> StageKey {
        KeyBuilder::new(stage).component("x", &x).finish()
    }

    #[test]
    fn bytes_round_trip_and_counters() {
        let scratch = Scratch::new("roundtrip");
        let store = scratch.store();
        let key = k("trace", 1);
        assert_eq!(store.get_bytes(Namespace::Trace, "a-tiny", &key), None);
        store.put_bytes(Namespace::Trace, "a-tiny", &key, b"payload");
        assert_eq!(
            store.get_bytes(Namespace::Trace, "a-tiny", &key).as_deref(),
            Some(&b"payload"[..])
        );
        assert_eq!(store.hits(Namespace::Trace), 1);
        assert_eq!(store.misses(Namespace::Trace), 1);
        assert_eq!(store.stores(Namespace::Trace), 1);
        // First miss had no siblings: a cold start, not an invalidation.
        assert_eq!(store.invalidations(Namespace::Trace), 0);
    }

    #[test]
    fn disabled_store_touches_nothing() {
        let scratch = Scratch::new("disabled");
        let store = Store::open(StoreConfig {
            enabled: false,
            dir: scratch.0.clone(),
        });
        let key = k("trace", 1);
        store.put_bytes(Namespace::Trace, "a", &key, b"x");
        assert_eq!(store.get_bytes(Namespace::Trace, "a", &key), None);
        assert!(fs::read_dir(&scratch.0).expect("scratch").next().is_none());
        assert_eq!(store.misses(Namespace::Trace), 0, "disabled: no counting");
    }

    #[test]
    fn miss_with_sibling_counts_invalidation_and_names_component() {
        let scratch = Scratch::new("invalidation");
        let store = scratch.store();
        let old = KeyBuilder::new("simulate")
            .component("trace-key", &7u64)
            .component("sim-config", &1u64)
            .finish();
        store.put_json(Namespace::SimResult, "a-tiny", &old, &42u64);
        let new = KeyBuilder::new("simulate")
            .component("trace-key", &7u64)
            .component("sim-config", &2u64)
            .finish();
        // The handle that wrote `old` treats the new key as sweep growth —
        // invalidation only fires for siblings inherited from a prior run.
        assert_eq!(store.get_json::<u64>(Namespace::SimResult, "a-tiny", &new), None);
        assert_eq!(store.invalidations(Namespace::SimResult), 0);
        let store = scratch.store();
        assert_eq!(store.get_json::<u64>(Namespace::SimResult, "a-tiny", &new), None);
        assert_eq!(store.invalidations(Namespace::SimResult), 1);
        let records = store.invalidation_records();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].changed, vec!["sim-config".to_owned()]);
        assert_eq!(records[0].stage, "simulate");
        // A different *name* in the same namespace is a cold start.
        let other = k("simulate", 3);
        assert_eq!(store.get_json::<u64>(Namespace::SimResult, "b-tiny", &other), None);
        assert_eq!(store.invalidations(Namespace::SimResult), 1);
    }

    #[test]
    fn concurrent_sweep_under_one_name_is_not_an_invalidation() {
        // One thread puts many keys under a name in a fresh store while
        // another misses on other keys under that name: every sibling the
        // second thread can see was written by this handle, so none of its
        // misses is an invalidation. The race sits at a name's first put,
        // so each round starts both threads together on a fresh name.
        const ROUNDS: u64 = 40;
        let scratch = Scratch::new("sweep-race");
        let store = scratch.store();
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            s.spawn(|| {
                for round in 0..ROUNDS {
                    let name = format!("r{round}-tiny");
                    start.wait();
                    for x in 0..8 {
                        store.put_json(Namespace::SimResult, &name, &k("simulate", x), &x);
                    }
                }
            });
            s.spawn(|| {
                for round in 0..ROUNDS {
                    let name = format!("r{round}-tiny");
                    start.wait();
                    for x in 1000..1016 {
                        let key = k("simulate", x);
                        assert_eq!(
                            store.get_json::<u64>(Namespace::SimResult, &name, &key),
                            None
                        );
                    }
                }
            });
        });
        assert_eq!(store.stores(Namespace::SimResult), ROUNDS * 8);
        assert_eq!(store.misses(Namespace::SimResult), ROUNDS * 16);
        assert_eq!(store.invalidations(Namespace::SimResult), 0);
        assert!(store.invalidation_records().is_empty());
    }

    #[test]
    fn supersede_removes_old_keys_only_in_unique_namespaces() {
        let scratch = Scratch::new("supersede");
        let store = scratch.store();
        let k1 = k("trace", 1);
        let k2 = k("trace", 2);
        store.put_bytes(Namespace::Trace, "a-tiny", &k1, b"old");
        store.put_bytes(Namespace::Trace, "a-tiny", &k2, b"new");
        assert_eq!(store.get_bytes(Namespace::Trace, "a-tiny", &k1), None);
        assert!(store.get_bytes(Namespace::Trace, "a-tiny", &k2).is_some());
        // SimResult accumulates: sweeps keep many configs per cell.
        let s1 = k("simulate", 1);
        let s2 = k("simulate", 2);
        store.put_json(Namespace::SimResult, "a-tiny", &s1, &1u64);
        store.put_json(Namespace::SimResult, "a-tiny", &s2, &2u64);
        assert_eq!(store.get_json::<u64>(Namespace::SimResult, "a-tiny", &s1), Some(1));
        assert_eq!(store.get_json::<u64>(Namespace::SimResult, "a-tiny", &s2), Some(2));
    }

    #[test]
    fn corrupt_json_payload_is_a_miss() {
        let scratch = Scratch::new("corrupt");
        let store = scratch.store();
        let key = k("profile", 1);
        store.put_json(Namespace::Profile, "a-tiny", &key, &7u64);
        fs::write(
            scratch.0.join("profile").join(format!("a-tiny.{}.json", key.key.hex())),
            b"{ not json",
        )
        .expect("corrupt entry");
        assert_eq!(store.get_json::<u64>(Namespace::Profile, "a-tiny", &key), None);
    }

    #[test]
    fn usage_and_clear() {
        let scratch = Scratch::new("usage");
        let store = scratch.store();
        for (i, name) in ["a-tiny", "b-tiny", "c-tiny"].iter().enumerate() {
            let key = k("simulate", i as u64);
            store.put_bytes(Namespace::SimResult, name, &key, &vec![0u8; 1000]);
        }
        let usage = store.usage();
        let sim = usage.iter().find(|u| u.namespace == "simresult").expect("ns");
        assert_eq!(sim.entries, 3);
        assert!(sim.bytes >= 3000);

        store.clear().expect("clear");
        assert!(store.usage().iter().all(|u| u.entries == 0 && u.bytes == 0));
    }

    #[test]
    fn old_smtr_trace_entries_are_inert() {
        let scratch = Scratch::new("old-smtr");
        let trace_dir = scratch.0.join("trace");
        fs::create_dir_all(&trace_dir).expect("ns dir");
        let old = k("trace", 1);
        let hex = old.key.hex();
        let sidecar = serde_json::to_string_pretty(&old.to_doc()).expect("sidecar");
        fs::write(trace_dir.join(format!("a-tiny.{hex}.smtr")), b"SMTR").expect("plant");
        fs::write(trace_dir.join(format!("a-tiny.{hex}.key.json")), sidecar).expect("plant");

        let store = scratch.store();
        let new = k("trace", 2);
        assert_eq!(store.get_bytes(Namespace::Trace, "a-tiny", &new), None);
        assert_eq!(store.invalidations(Namespace::Trace), 0);
        assert!(store.invalidation_records().is_empty());
        let usage = store.usage();
        let trace = usage.iter().find(|u| u.namespace == "trace").expect("ns");
        assert_eq!(trace.entries, 0);
        assert!(trace.bytes > 0);

        store.clear().expect("clear");
        assert!(!trace_dir.exists());
    }

    #[test]
    fn tmp_pid_parses_both_suffix_forms() {
        assert_eq!(tmp_pid("a.json.tmp1234"), Some(1234));
        assert_eq!(tmp_pid("a.json.tmp1234-9"), Some(1234));
        assert_eq!(tmp_pid("a.json.tmp7-0"), Some(7));
        assert_eq!(tmp_pid("a.json"), None);
        assert_eq!(tmp_pid("a.json.tmp"), None);
        assert_eq!(tmp_pid("a.json.tmpnotapid"), None);
    }

    #[test]
    fn open_sweeps_orphans_and_spares_live_files() {
        let scratch = Scratch::new("sweep");
        let trace_dir = scratch.0.join("trace");
        fs::create_dir_all(&trace_dir).expect("ns dir");
        // An orphan from a "crashed" writer: no such pid can exist (the
        // kernel's pid space ends far below u32::MAX).
        let orphan = trace_dir.join(format!("a.json.tmp{}-3", u32::MAX));
        // A temp file owned by this very process: a live writer mid-put.
        let live_tmp = trace_dir.join(format!("a.json.tmp{}-0", std::process::id()));
        // A committed entry, which must never be touched.
        let entry = trace_dir.join("a.0123.json");
        for f in [&orphan, &live_tmp, &entry] {
            fs::write(f, b"payload").expect("plant file");
        }

        let _ = scratch.store();

        assert!(!orphan.exists(), "orphaned temp file must be swept");
        assert!(live_tmp.exists(), "a live writer's temp file must survive");
        assert!(entry.exists(), "committed entries must survive");
    }

    #[test]
    fn metrics_snapshot_has_all_counters() {
        let scratch = Scratch::new("metrics");
        let store = scratch.store();
        let key = k("trace", 1);
        store.put_bytes(Namespace::Trace, "a-tiny", &key, b"x");
        let _ = store.get_bytes(Namespace::Trace, "a-tiny", &key);
        let m = store.metrics();
        assert_eq!(m.counters.len(), 20);
        assert_eq!(m.counter("store_trace_hits"), 1);
        assert_eq!(m.counter("store_trace_stores"), 1);
        assert_eq!(m.counter("store_simresult_misses"), 0);
    }

    #[test]
    fn last_run_persists_and_reloads() {
        let scratch = Scratch::new("lastrun");
        let store = scratch.store();
        let key = k("trace", 1);
        store.put_bytes(Namespace::Trace, "a-tiny", &key, b"x");
        let _ = store.get_bytes(Namespace::Trace, "a-tiny", &key);
        store.persist_last_run();
        let reopened = Store::open(StoreConfig::at(&scratch.0));
        let last = reopened.load_last_run().expect("stats present");
        assert_eq!(last.schema, "specmt-store-stats/v1");
        assert_eq!(last.metrics.counter("store_trace_hits"), 1);
    }
}
