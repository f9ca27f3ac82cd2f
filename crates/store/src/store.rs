//! The on-disk store: typed namespaces in one append-only log, counters.
//!
//! ## Layout
//!
//! ```text
//! <dir>/
//!   store.log       (every entry of every namespace, one record each)
//!   last-run.json   (counters + invalidation records)
//! ```
//!
//! Each put appends one framed, checksummed record in a single `write`
//! on an `O_APPEND` handle:
//!
//! ```text
//! "SMTL" | body length (u32 LE) | checksum of body (16 bytes) | body
//! body = namespace (u8) | key (16 bytes) | name length (u16 LE) | name
//!        | breakdown length (u32 LE) | breakdown JSON | payload
//! ```
//!
//! `<name>` is a human-readable logical name (`gcc-tiny`,
//! `gcc-tiny-heuristics`); the key is the composite digest of the entry's
//! input closure ([`crate::StageKey`]) and the breakdown its per-component
//! digests ([`crate::BreakdownDoc`]). A handle indexes the log once at open
//! and, on a miss, reads only the tail appended since, so entries other
//! handles and processes wrote stay visible. The last record for a key
//! wins; in the namespaces that keep one version per name (see
//! `Namespace::supersedes`) the last record for a name also retires the
//! name's other keys. The log only grows, until [`Store::clear`].
//!
//! Processes share the log without locks. A record still being appended
//! (or torn by a crashed writer) is left for a later refresh until a valid
//! record follows it; a record whose checksum fails is skipped by scanning
//! for the next valid one, and its entry is a miss that regeneration
//! re-appends. Files of the flat layout older builds wrote
//! (`<namespace>/<name>.<key>.json`, `.key.json` sidecars, `.smtr` trace
//! images) are never read or counted; [`Store::clear`] removes them.
//!
//! ## Invalidation audit trail
//!
//! On a miss, the store looks for entries with the same logical name under
//! other keys. Finding one means the artifact was computed before under
//! different inputs — an *invalidation*, not a cold start — so the
//! per-namespace invalidation counter ticks and the newest such record's
//! breakdown is diffed to name exactly which key components changed (e.g.
//! `["sim-config"]`). Siblings this very handle wrote don't count: a sweep
//! accumulating many configurations under one logical name within a single
//! run is expected growth, not stale state, so only entries inherited from
//! a *previous* run can be invalidated. (Each invalidated name is counted
//! once per handle — the first sweep point to discover it.)

use std::collections::{HashMap, HashSet};
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use specmt_obs::{CounterSnapshot, Metrics};

use crate::fingerprint::{FingerprintHasher, StoreKey};
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

    /// Whether a put's record retires same-name entries under other keys.
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

    /// The metrics counter name for one of this namespace's counter
    /// kinds: `store_<dir name, '-' as '_'>_<kind>`.
    fn counter_name(self, kind: &str) -> String {
        format!("store_{}_{kind}", self.dir_name().replace('-', "_"))
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
/// thread ([`Store`]'s state is atomics and mutexes plus immutable config).
pub type StoreHandle = Arc<Store>;

/// The content-addressed artifact store.
pub struct Store {
    config: StoreConfig,
    counters: Counters,
    invalidations: Mutex<Vec<InvalidationRecord>>,
    /// `(namespace index, logical name)` pairs this handle has written or
    /// already counted an invalidation for. A miss under such a name is a
    /// sweep accumulating entries, not a new invalidation (see module doc).
    /// A name joins the set *before* its first record is appended, so a
    /// concurrent miss that sees the record also sees the name.
    session_writes: Mutex<HashSet<(usize, String)>>,
    /// This handle's view of the log.
    index: Mutex<Index>,
    /// The log opened for appending, on the first put.
    writer: Mutex<Option<File>>,
}

/// Disk usage of one namespace, from [`Store::usage`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NamespaceUsage {
    /// The namespace directory name.
    pub namespace: String,
    /// Live entries: the latest record of each key not superseded.
    pub entries: u64,
    /// Payload bytes of the live entries (record framing, names and key
    /// breakdowns excluded).
    pub bytes: u64,
}

serde::impl_serde_struct!(NamespaceUsage {
    namespace,
    entries,
    bytes
});

impl Store {
    /// Opens a store with `config` and indexes its log, if there is one.
    pub fn open(config: StoreConfig) -> StoreHandle {
        let store = Store {
            config,
            counters: Counters::default(),
            invalidations: Mutex::new(Vec::new()),
            session_writes: Mutex::new(HashSet::new()),
            index: Mutex::new(Index::default()),
            writer: Mutex::new(None),
        };
        if store.config.enabled {
            if let Ok(mut index) = store.index.lock() {
                index.refresh(&store.log_path());
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

    fn log_path(&self) -> PathBuf {
        self.config.dir.join(LOG_FILE)
    }

    /// Reads the entry for `key`, or `None` on a miss (absent, unreadable,
    /// failed checksum — indistinguishable by design; corrupt payloads are
    /// the caller's to reject, after which regeneration appends a record
    /// that replaces the entry).
    ///
    /// A key the index lacks first refreshes the index from the log's new
    /// tail, so puts by other handles and processes are found. A miss with
    /// same-name siblings inherited from a prior run is counted as an
    /// invalidation and the newest sibling's breakdown is diffed to record
    /// which key components changed (siblings this handle wrote itself are
    /// sweep growth, not stale state).
    pub fn get_bytes(&self, ns: Namespace, name: &str, key: &StageKey) -> Option<Vec<u8>> {
        if !self.config.enabled {
            return None;
        }
        let found = self.index.lock().ok().and_then(|mut index| {
            let slot = (ns_index(ns), name);
            index.payload(slot, key.key).or_else(|| {
                index.refresh(&self.log_path());
                index.payload(slot, key.key)
            })
        });
        match found {
            Some(bytes) => {
                self.counters.hits[ns_index(ns)].fetch_add(1, Ordering::Relaxed);
                Some(bytes)
            }
            None => {
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

    /// Appends `bytes` under `key` as one log record carrying the key's
    /// component breakdown. Best-effort: an I/O failure leaves the store
    /// cold, and a torn record is skipped by every reader.
    pub fn put_bytes(&self, ns: Namespace, name: &str, key: &StageKey, bytes: &[u8]) {
        if !self.config.enabled {
            return;
        }
        let Some(record) = encode_record(ns, name, key, bytes) else {
            return;
        };
        // Claim the name before the record becomes visible: a concurrent
        // miss under the same name that indexes this record as a sibling
        // must find the name already claimed (see `record_invalidation`).
        if let Ok(mut writes) = self.session_writes.lock() {
            writes.insert((ns_index(ns), name.to_owned()));
        }
        // Forget the indexed entries this record replaces before it is
        // appended, so this handle's next miss reads the new record back
        // instead of serving a stale (perhaps rejected) payload.
        if let Ok(mut index) = self.index.lock() {
            index.forget((ns_index(ns), name), key.key, ns.supersedes());
        }
        let written = self.writer.lock().is_ok_and(|mut writer| {
            if writer.is_none() {
                *writer = self.open_writer();
            }
            // One `write`, so appends from other threads and processes do
            // not interleave with it on a local file system; a short one
            // leaves a torn record, which every reader skips.
            writer
                .as_mut()
                .is_some_and(|log| log.write(&record).is_ok_and(|n| n == record.len()))
        });
        if written {
            self.counters.stores[ns_index(ns)].fetch_add(1, Ordering::Relaxed);
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

    /// The log opened for appending, creating the store directory and the
    /// log as needed.
    fn open_writer(&self) -> Option<File> {
        fs::create_dir_all(&self.config.dir).ok()?;
        OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.log_path())
            .ok()
    }

    /// On a miss with siblings present: count an invalidation and diff the
    /// newest sibling's breakdown against `key` to name what changed.
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
        // The index was refreshed by the miss that brought us here.
        let newest = self.index.lock().ok().and_then(|mut index| {
            let sibling = index.newest_sibling((slot.0, name), key.key)?;
            Some(index.breakdown(sibling))
        });
        let Some(breakdown) = newest else {
            return;
        };
        // Claim the name only now, after looking: a sibling another thread
        // of this handle appended meanwhile had its name claimed first, so
        // the claim fails and the sibling is not mistaken for a prior
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
        let changed = breakdown.map(|doc| key.diff(&doc)).unwrap_or_default();
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
            for (kind, cell) in [
                ("hits", &self.counters.hits[i]),
                ("misses", &self.counters.misses[i]),
                ("stores", &self.counters.stores[i]),
                ("invalidations", &self.counters.invalidations[i]),
            ] {
                counters.push(CounterSnapshot {
                    name: ns.counter_name(kind),
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

    /// Live entries and their payload bytes per namespace, after reading
    /// the log's new tail.
    pub fn usage(&self) -> Vec<NamespaceUsage> {
        let mut usage: Vec<NamespaceUsage> = NAMESPACES
            .iter()
            .map(|ns| NamespaceUsage {
                namespace: ns.dir_name().to_owned(),
                ..NamespaceUsage::default()
            })
            .collect();
        if !self.config.enabled {
            return usage;
        }
        if let Ok(mut index) = self.index.lock() {
            index.refresh(&self.log_path());
            for (u, names) in usage.iter_mut().zip(&index.entries) {
                for loc in names.values().flatten() {
                    u.entries += 1;
                    u.bytes += u64::from(loc.len - loc.payload);
                }
            }
        }
        usage
    }

    /// Removes the log, the last-run stats and any namespace directories
    /// of the flat layout older builds wrote, keeping the root.
    pub fn clear(&self) -> std::io::Result<()> {
        // Forget the removed log, so later puts start a new one.
        if let Ok(mut writer) = self.writer.lock() {
            *writer = None;
        }
        if let Ok(mut index) = self.index.lock() {
            *index = Index::default();
        }
        for ns in NAMESPACES {
            let dir = self.config.dir.join(ns.dir_name());
            if dir.is_dir() {
                fs::remove_dir_all(&dir)?;
            }
        }
        for file in [LOG_FILE, "last-run.json"] {
            let path = self.config.dir.join(file);
            if path.exists() {
                fs::remove_file(path)?;
            }
        }
        Ok(())
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

/// The log's file name under the store root.
const LOG_FILE: &str = "store.log";
/// The first bytes of every record, which a resync scans for.
const MAGIC: &[u8; 4] = b"SMTL";
/// Magic, body length and checksum.
const HEADER: usize = 4 + 4 + 16;

/// Where one live entry's record sits in the log.
#[derive(Clone, Copy)]
struct Loc {
    key: StoreKey,
    /// Offset of the record's body in the log.
    body: u64,
    /// Length of the body.
    len: u32,
    /// Offset of the payload within the body.
    payload: u32,
}

/// One handle's view of the log: the live entries of every record read.
#[derive(Default)]
struct Index {
    /// The log opened for reading (`None` until there is a log).
    reader: Option<File>,
    /// Bytes of the log indexed so far; the next refresh reads from here.
    indexed: u64,
    /// Live entries per namespace and logical name, oldest record first.
    entries: [HashMap<String, Vec<Loc>>; NAMESPACES.len()],
}

impl Index {
    /// Indexes every record appended since the last refresh.
    fn refresh(&mut self, path: &Path) {
        if self.reader.is_none() {
            self.reader = File::open(path).ok();
        }
        let Some(file) = self.reader.as_mut() else {
            return;
        };
        let Ok(len) = file.metadata().map(|m| m.len()) else {
            return;
        };
        if len == self.indexed {
            return;
        }
        if len < self.indexed {
            // Truncated underneath us: what was indexed may be gone.
            self.entries = Default::default();
            self.indexed = 0;
        }
        let Ok(new) = usize::try_from(len - self.indexed) else {
            return;
        };
        let mut tail = vec![0; new];
        let start = file.seek(SeekFrom::Start(self.indexed));
        if start.is_err() || file.read_exact(&mut tail).is_err() {
            return;
        }
        let base = self.indexed;
        let consumed = scan(&tail, |at, rec| {
            let locs = self.entries[rec.ns].entry(rec.name.to_owned()).or_default();
            if NAMESPACES[rec.ns].supersedes() {
                locs.clear();
            } else {
                locs.retain(|l| l.key != rec.key);
            }
            locs.push(Loc {
                key: rec.key,
                body: base + (at + HEADER) as u64,
                len: rec.len,
                payload: rec.payload,
            });
        });
        self.indexed += consumed as u64;
    }

    /// The newest entry under `name` with a key other than `key`.
    fn newest_sibling(&self, (ns, name): (usize, &str), key: StoreKey) -> Option<Loc> {
        self.entries[ns]
            .get(name)?
            .iter()
            .rev()
            .find(|l| l.key != key)
            .copied()
    }

    /// Drops the entry for `key` under `name`, or all of `name`'s entries.
    fn forget(&mut self, (ns, name): (usize, &str), key: StoreKey, whole_name: bool) {
        if let Some(locs) = self.entries[ns].get_mut(name) {
            locs.retain(|l| !whole_name && l.key != key);
        }
    }

    /// Reads `len` bytes of the log at `at`.
    fn read(&mut self, at: u64, len: u32) -> Option<Vec<u8>> {
        let file = self.reader.as_mut()?;
        let mut buf = vec![0; usize::try_from(len).ok()?];
        file.seek(SeekFrom::Start(at)).ok()?;
        file.read_exact(&mut buf).ok()?;
        Some(buf)
    }

    /// The payload of the indexed entry for `key` under `slot`.
    fn payload(&mut self, (ns, name): (usize, &str), key: StoreKey) -> Option<Vec<u8>> {
        let loc = *self.entries[ns].get(name)?.iter().find(|l| l.key == key)?;
        self.read(loc.body + u64::from(loc.payload), loc.len - loc.payload)
    }

    /// The key breakdown recorded with `loc`.
    fn breakdown(&mut self, loc: Loc) -> Option<BreakdownDoc> {
        let head = self.read(loc.body, loc.payload)?;
        serde_json::from_slice(decode_body(&head)?.breakdown).ok()
    }
}

/// One record's body, decoded in place.
struct Record<'a> {
    ns: usize,
    key: StoreKey,
    name: &'a str,
    breakdown: &'a [u8],
    /// Body length.
    len: u32,
    /// Offset of the payload within the body.
    payload: u32,
}

/// Frames one record: header, then the body laid out as the module doc
/// shows. `None` if a field outgrows its length prefix.
fn encode_record(ns: Namespace, name: &str, key: &StageKey, payload: &[u8]) -> Option<Vec<u8>> {
    let breakdown = serde_json::to_vec(&key.to_doc()).ok()?;
    let name_len = u16::try_from(name.len()).ok()?;
    let breakdown_len = u32::try_from(breakdown.len()).ok()?;
    let mut rec = Vec::with_capacity(HEADER + 64 + name.len() + breakdown.len() + payload.len());
    rec.extend_from_slice(MAGIC);
    rec.resize(HEADER, 0);
    rec.push(ns_index(ns) as u8);
    rec.extend_from_slice(&key.key.0.to_le_bytes());
    rec.extend_from_slice(&name_len.to_le_bytes());
    rec.extend_from_slice(name.as_bytes());
    rec.extend_from_slice(&breakdown_len.to_le_bytes());
    rec.extend_from_slice(&breakdown);
    rec.extend_from_slice(payload);
    let body_len = u32::try_from(rec.len() - HEADER).ok()?;
    let sum = checksum(&rec[HEADER..]);
    rec[4..8].copy_from_slice(&body_len.to_le_bytes());
    rec[8..HEADER].copy_from_slice(&sum);
    Some(rec)
}

fn checksum(body: &[u8]) -> [u8; 16] {
    let mut h = FingerprintHasher::new();
    h.struct_tag("specmt-store-record/v1");
    h.bytes(body);
    h.finish().0.to_le_bytes()
}

/// Decodes a body, or a prefix of one that ends where the payload starts.
fn decode_body(body: &[u8]) -> Option<Record<'_>> {
    let mut rest = body;
    let mut take = |n: usize| -> Option<&[u8]> {
        let (head, tail) = rest.split_at_checked(n)?;
        rest = tail;
        Some(head)
    };
    let ns = usize::from(take(1)?[0]);
    let key = StoreKey(u128::from_le_bytes(take(16)?.try_into().ok()?));
    let name_len = u16::from_le_bytes(take(2)?.try_into().ok()?);
    let name = std::str::from_utf8(take(usize::from(name_len))?).ok()?;
    let breakdown_len = u32::from_le_bytes(take(4)?.try_into().ok()?);
    let breakdown = take(usize::try_from(breakdown_len).ok()?)?;
    (ns < NAMESPACES.len()).then_some(())?;
    Some(Record {
        ns,
        key,
        name,
        breakdown,
        len: u32::try_from(body.len()).ok()?,
        payload: u32::try_from(body.len() - rest.len()).ok()?,
    })
}

/// What lies at one offset of a log buffer.
enum Check<'a> {
    /// A whole record, ending at the given offset.
    Valid(Record<'a>, usize),
    /// The start of a record not yet wholly in the buffer (or nothing).
    Incomplete,
    /// No record starts here.
    Bad,
}

fn check(buf: &[u8], at: usize) -> Check<'_> {
    let rest = &buf[at..];
    let Some((header, body)) = rest.split_at_checked(HEADER) else {
        return if MAGIC.starts_with(&rest[..rest.len().min(MAGIC.len())]) {
            Check::Incomplete
        } else {
            Check::Bad
        };
    };
    if &header[..4] != MAGIC {
        return Check::Bad;
    }
    let len = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
    let Some(body) = usize::try_from(len).ok().and_then(|len| body.get(..len)) else {
        return Check::Incomplete;
    };
    if checksum(body) != header[8..] {
        return Check::Bad;
    }
    match decode_body(body) {
        Some(rec) => Check::Valid(rec, at + HEADER + body.len()),
        None => Check::Bad,
    }
}

/// Calls `on_record(offset, record)` for each valid record in `buf`, in
/// order, and returns how many bytes are settled: everything before the
/// first offset where a record may still complete once more is appended.
///
/// A record that fails its checksum or never completes (a torn write) is
/// skipped when a valid record follows it; an incomplete one with nothing
/// valid after it is waited for.
fn scan<'a>(buf: &'a [u8], mut on_record: impl FnMut(usize, Record<'a>)) -> usize {
    let mut at = 0;
    loop {
        if let Check::Valid(rec, end) = check(buf, at) {
            on_record(at, rec);
            at = end;
            continue;
        }
        let mut wait = None;
        let mut next = None;
        for q in at..=buf.len() {
            match check(buf, q) {
                Check::Valid(..) => {
                    next = Some(q);
                    break;
                }
                Check::Incomplete => {
                    wait.get_or_insert(q);
                }
                Check::Bad => {}
            }
        }
        match next {
            Some(q) => at = q,
            // `check` at the end of the buffer is always `Incomplete`.
            None => return wait.unwrap_or(buf.len()),
        }
    }
}

/// Writes `bytes` to `path` via a pid-and-sequence-suffixed temp file and
/// an atomic rename, so a reader of `last-run.json` never sees it torn and
/// concurrent runs cannot clobber each other's temp files. Returns `false`
/// (after cleaning up) on any I/O failure.
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
        assert_eq!(
            store.get_json::<u64>(Namespace::SimResult, "a-tiny", &new),
            None
        );
        assert_eq!(store.invalidations(Namespace::SimResult), 0);
        let store = scratch.store();
        assert_eq!(
            store.get_json::<u64>(Namespace::SimResult, "a-tiny", &new),
            None
        );
        assert_eq!(store.invalidations(Namespace::SimResult), 1);
        let records = store.invalidation_records();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].changed, vec!["sim-config".to_owned()]);
        assert_eq!(records[0].stage, "simulate");
        // A different *name* in the same namespace is a cold start.
        let other = k("simulate", 3);
        assert_eq!(
            store.get_json::<u64>(Namespace::SimResult, "b-tiny", &other),
            None
        );
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
        assert_eq!(
            store.get_json::<u64>(Namespace::SimResult, "a-tiny", &s1),
            Some(1)
        );
        assert_eq!(
            store.get_json::<u64>(Namespace::SimResult, "a-tiny", &s2),
            Some(2)
        );
    }

    #[test]
    fn corrupt_json_payload_is_a_miss() {
        let scratch = Scratch::new("corrupt");
        let store = scratch.store();
        let key = k("profile", 1);
        store.put_json(Namespace::Profile, "a-tiny", &key, &7u64);
        store.put_bytes(Namespace::Profile, "a-tiny", &key, b"{ not json");
        assert_eq!(
            store.get_json::<u64>(Namespace::Profile, "a-tiny", &key),
            None
        );
        // Regeneration appends a record that replaces the corrupt one, for
        // this handle and a fresh one alike.
        store.put_json(Namespace::Profile, "a-tiny", &key, &7u64);
        assert_eq!(
            store.get_json::<u64>(Namespace::Profile, "a-tiny", &key),
            Some(7)
        );
        assert_eq!(
            scratch
                .store()
                .get_json::<u64>(Namespace::Profile, "a-tiny", &key),
            Some(7)
        );
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
        let sim = usage
            .iter()
            .find(|u| u.namespace == "simresult")
            .expect("ns");
        assert_eq!(sim.entries, 3);
        assert!(sim.bytes >= 3000);

        store.clear().expect("clear");
        assert!(store.usage().iter().all(|u| u.entries == 0 && u.bytes == 0));
    }

    #[test]
    fn old_smtr_trace_entries_are_inert() {
        // A store an older build filled: flat `<ns>/<name>.<key>.json`
        // entries with `.key.json` sidecars, and `.smtr` trace images.
        let scratch = Scratch::new("old-smtr");
        let trace_dir = scratch.0.join("trace");
        fs::create_dir_all(&trace_dir).expect("ns dir");
        let old = k("trace", 1);
        let hex = old.key.hex();
        let sidecar = serde_json::to_string_pretty(&old.to_doc()).expect("sidecar");
        fs::write(trace_dir.join(format!("a-tiny.{hex}.smtr")), b"SMTR").expect("plant");
        fs::write(trace_dir.join(format!("a-tiny.{hex}.json")), b"{}").expect("plant");
        fs::write(trace_dir.join(format!("a-tiny.{hex}.key.json")), sidecar).expect("plant");

        let store = scratch.store();
        assert_eq!(store.get_bytes(Namespace::Trace, "a-tiny", &old), None);
        let new = k("trace", 2);
        assert_eq!(store.get_bytes(Namespace::Trace, "a-tiny", &new), None);
        assert_eq!(store.invalidations(Namespace::Trace), 0);
        assert!(store.invalidation_records().is_empty());
        assert!(store.usage().iter().all(|u| u.entries == 0 && u.bytes == 0));

        store.put_bytes(Namespace::Trace, "a-tiny", &new, b"x");
        store.clear().expect("clear");
        assert!(!trace_dir.exists());
        assert!(fs::read_dir(&scratch.0).expect("root").next().is_none());
    }

    /// The log's length in bytes.
    fn log_len(scratch: &Scratch) -> u64 {
        fs::metadata(scratch.0.join(LOG_FILE)).expect("log").len()
    }

    #[test]
    fn torn_tail_misses_and_later_puts_stay_readable() {
        let scratch = Scratch::new("torn");
        let store = scratch.store();
        store.put_bytes(Namespace::SimResult, "a-tiny", &k("simulate", 1), b"first");
        let whole = log_len(&scratch);
        store.put_bytes(
            Namespace::SimResult,
            "a-tiny",
            &k("simulate", 2),
            &[7u8; 200],
        );
        // A crash mid-append: the second record loses its last 50 bytes.
        let log = OpenOptions::new()
            .write(true)
            .open(scratch.0.join(LOG_FILE))
            .expect("log");
        log.set_len(log_len(&scratch) - 50).expect("truncate");

        let get =
            |store: &Store, x| store.get_bytes(Namespace::SimResult, "a-tiny", &k("simulate", x));
        let store = scratch.store();
        assert_eq!(get(&store, 1).as_deref(), Some(&b"first"[..]));
        assert_eq!(get(&store, 2), None, "the torn record misses");
        assert!(log_len(&scratch) > whole, "the torn bytes stay in the log");
        // A later put lands after the torn bytes and is found past them.
        store.put_bytes(Namespace::SimResult, "a-tiny", &k("simulate", 3), b"third");
        let fresh = scratch.store();
        assert_eq!(get(&fresh, 3).as_deref(), Some(&b"third"[..]));
        assert_eq!(get(&fresh, 1).as_deref(), Some(&b"first"[..]));
        assert_eq!(get(&fresh, 2), None);
        // The regenerated entry is readable too.
        fresh.put_bytes(Namespace::SimResult, "a-tiny", &k("simulate", 2), b"second");
        assert_eq!(get(&scratch.store(), 2).as_deref(), Some(&b"second"[..]));
    }

    #[test]
    fn corrupt_record_in_the_middle_is_skipped() {
        let scratch = Scratch::new("mid-corrupt");
        let store = scratch.store();
        store.put_bytes(Namespace::SimResult, "a-tiny", &k("simulate", 1), b"first");
        store.put_bytes(Namespace::SimResult, "a-tiny", &k("simulate", 2), b"second");
        let third_at = log_len(&scratch) as usize;
        store.put_bytes(Namespace::SimResult, "b-tiny", &k("simulate", 3), b"third");
        // Flip the last payload byte of the middle record.
        let mut bytes = fs::read(scratch.0.join(LOG_FILE)).expect("log");
        bytes[third_at - 1] ^= 0xff;
        fs::write(scratch.0.join(LOG_FILE), &bytes).expect("corrupt");

        let store = scratch.store();
        let get = |name, x| store.get_bytes(Namespace::SimResult, name, &k("simulate", x));
        assert_eq!(get("a-tiny", 1).as_deref(), Some(&b"first"[..]));
        assert_eq!(get("a-tiny", 2), None, "a failed checksum is a miss");
        assert_eq!(get("b-tiny", 3).as_deref(), Some(&b"third"[..]));
        assert_eq!(store.hits(Namespace::SimResult), 2);
        assert_eq!(store.misses(Namespace::SimResult), 1);
    }

    #[test]
    fn a_second_handle_sees_the_first_handles_put_on_its_next_miss() {
        let scratch = Scratch::new("two-handles");
        let first = scratch.store();
        let second = scratch.store();
        let key = k("simulate", 1);
        assert_eq!(second.get_bytes(Namespace::SimResult, "a-tiny", &key), None);
        first.put_bytes(Namespace::SimResult, "a-tiny", &key, b"shared");
        assert_eq!(
            second
                .get_bytes(Namespace::SimResult, "a-tiny", &key)
                .as_deref(),
            Some(&b"shared"[..])
        );
        assert_eq!(second.hits(Namespace::SimResult), 1);
        assert_eq!(second.misses(Namespace::SimResult), 1);
        let usage = second.usage();
        let sim = usage
            .iter()
            .find(|u| u.namespace == "simresult")
            .expect("ns");
        assert_eq!((sim.entries, sim.bytes), (1, 6));
    }

    #[test]
    fn supersede_survives_a_reopen() {
        let scratch = Scratch::new("supersede-reopen");
        let store = scratch.store();
        store.put_bytes(Namespace::Trace, "a-tiny", &k("trace", 1), b"old");
        store.put_bytes(Namespace::Trace, "a-tiny", &k("trace", 2), b"new");
        store.put_json(Namespace::SimResult, "a-tiny", &k("simulate", 1), &1u64);
        store.put_json(Namespace::SimResult, "a-tiny", &k("simulate", 2), &2u64);

        let store = scratch.store();
        assert_eq!(
            store.get_bytes(Namespace::Trace, "a-tiny", &k("trace", 1)),
            None
        );
        assert_eq!(
            store
                .get_bytes(Namespace::Trace, "a-tiny", &k("trace", 2))
                .as_deref(),
            Some(&b"new"[..])
        );
        let usage = store.usage();
        let count = |ns: &str| {
            usage
                .iter()
                .find(|u| u.namespace == ns)
                .expect("ns")
                .entries
        };
        assert_eq!(count("trace"), 1, "the superseded key is not live");
        assert_eq!(count("simresult"), 2, "sim results accumulate");
    }

    #[test]
    fn invalidation_diff_names_the_latest_siblings_components() {
        let scratch = Scratch::new("latest-sibling");
        let key = |trace: u64, config: u64| {
            KeyBuilder::new("simulate")
                .component("trace-key", &trace)
                .component("sim-config", &config)
                .finish()
        };
        let store = scratch.store();
        // An older sibling differing only in the configuration, then the
        // newest one differing in both components.
        store.put_json(Namespace::SimResult, "a-tiny", &key(7, 1), &1u64);
        store.put_json(Namespace::SimResult, "a-tiny", &key(8, 1), &2u64);

        let store = scratch.store();
        assert_eq!(
            store.get_json::<u64>(Namespace::SimResult, "a-tiny", &key(7, 2)),
            None
        );
        let records = store.invalidation_records();
        assert_eq!(records.len(), 1);
        assert_eq!(
            records[0].changed,
            vec!["trace-key".to_owned(), "sim-config".to_owned()]
        );
    }

    #[test]
    fn scan_waits_for_a_partial_record_and_settles_garbage() {
        let key = k("simulate", 1);
        let rec = encode_record(Namespace::SimResult, "a", &key, b"payload").expect("record");
        let count = |buf: &[u8]| {
            let mut n = 0;
            (scan(buf, |_, _| n += 1), n)
        };
        assert_eq!(count(&rec), (rec.len(), 1));
        // A record still being appended is waited for, not skipped.
        for cut in [1, 3, HEADER, rec.len() - 1] {
            assert_eq!(count(&rec[..cut]), (0, 0), "cut at {cut}");
        }
        // Garbage with no record start in it is settled.
        assert_eq!(count(b"garbage"), (7, 0));
        let mut buf = b"junk".to_vec();
        buf.extend_from_slice(&rec);
        assert_eq!(count(&buf), (buf.len(), 1));
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

    /// `--json`, `last-run.json` and CI's suffix filters read these names.
    #[test]
    fn counter_names_are_pinned() {
        let names: Vec<String> = Scratch::new("names")
            .store()
            .metrics()
            .counters
            .into_iter()
            .map(|c| c.name)
            .collect();
        let want = [
            "store_trace_hits",
            "store_trace_misses",
            "store_trace_stores",
            "store_trace_invalidations",
            "store_profile_hits",
            "store_profile_misses",
            "store_profile_stores",
            "store_profile_invalidations",
            "store_spawn_table_hits",
            "store_spawn_table_misses",
            "store_spawn_table_stores",
            "store_spawn_table_invalidations",
            "store_analysis_hits",
            "store_analysis_misses",
            "store_analysis_stores",
            "store_analysis_invalidations",
            "store_simresult_hits",
            "store_simresult_misses",
            "store_simresult_stores",
            "store_simresult_invalidations",
        ];
        assert_eq!(names, want);
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
