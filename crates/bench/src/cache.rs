//! Stage keys and store plumbing for the trace → simulate pipeline.
//!
//! The pipeline is a chain of pure functions; this module names each
//! stage's *input closure* and turns it into a [`StageKey`] for the
//! content-addressed store (`specmt-store`):
//!
//! | stage      | namespace    | key components                                             |
//! |------------|--------------|------------------------------------------------------------|
//! | `trace`    | `trace`      | program JSON, step budget, checksum, trace code-rev        |
//! | `profile`  | `profile`    | trace key, `ProfileConfig`, analysis + spawn code-revs     |
//! | `table`    | `spawn-table`| trace key, scheme identity, `SchemeParams`, spawn code-rev |
//! | `baseline` | `analysis`   | trace key, single-threaded `SimConfig`, sim code-rev       |
//! | `simulate` | `simresult`  | trace key, `SpawnTable` content, `SimConfig`, sim code-rev |
//!
//! Because every downstream key *chains* the upstream stage's key, a
//! workload change invalidates everything derived from its trace, while a
//! `SimConfig` change re-keys only the simulate stage — profile results and
//! spawn tables keep hitting. Analysis parameters (`ProfileConfig`,
//! `SchemeParams`) are hashed into the keys directly, so a parameter change
//! misses without any version bump; semantic changes to a stage's code are
//! declared by bumping that crate's `CODE_REV` constant.
//!
//! The simulate key fingerprints the spawn table's *content*, not its
//! provenance, so ad-hoc tables (ablation sweeps, custom schemes, merged
//! tables) address results correctly.
//!
//! ## One store path
//!
//! Only this module and [`BenchCtx`](crate::BenchCtx) address the store.
//! The trace stage goes through `bench_via_store`; every JSON stage
//! (profile, tables, baseline, simulate) goes through one read-through
//! helper: look the key up, compute on a miss, write the result. Figures,
//! including the cross-input ones that evaluate on the reference input,
//! reach the store only through a `BenchCtx`.
//!
//! ## Trust model
//!
//! Stale entries are unreachable by construction (the key is the content
//! address of the inputs). Corrupt entries are parse-and-reject, at load.
//!
//! The trace stage stores no trace. A trace is a pure function of the
//! program and step budget its key fingerprints, so its entry is a
//! manifest of about 50 bytes, `{records, checksum}`, written only after
//! a generation whose final `r10` matched the workload's checksum. A hit
//! is proof that this generation succeeds: its bench generates the trace
//! when the trace is first used (so a run served entirely from the store
//! never builds trace columns), reserving `records` records so the
//! columns carry no growth slack. A manifest is accepted only if it
//! parses, names the workload's checksum and counts between 1 and the
//! step budget records; the count is otherwise only a capacity hint, so
//! no stored bytes can change the trace or make its generation fail.
//!
//! JSON stages' payloads must parse. Any rejected entry falls through to
//! recomputation, which overwrites it in place. Every stage's payload is
//! JSON, so each namespace stores `<name>.<key>.json`; `.smtr` files an
//! older build left in `trace/` are never read, counted as entries or as
//! invalidations, and `specmt cache clear` removes them.

use specmt_sim::SimConfig;
use specmt_spawn::{ProfileConfig, SchemeParams, SpawnTable};
use specmt_store::{KeyBuilder, Namespace, StageKey, Store};
use specmt_workloads::Workload;

use crate::benchmark::check_checksum;
use crate::{Bench, BenchError, HarnessError};

/// The trace stage's key: everything that determines the generated trace.
/// `None` if the program cannot be serialized (the store is skipped, the
/// pipeline still runs).
pub fn trace_stage(workload: &Workload) -> Option<StageKey> {
    let program_json = serde_json::to_vec(&workload.program).ok()?;
    Some(
        KeyBuilder::new("trace")
            .component("program", program_json.as_slice())
            .component("step-budget", &workload.step_budget)
            .component("checksum", &workload.expected_checksum)
            .code_rev(specmt_trace::CODE_REV)
            .finish(),
    )
}

/// The profile stage's key: the trace it read plus the `ProfileConfig`
/// subset that §3.1 selection actually consumes.
pub fn profile_stage(trace_key: &StageKey, config: &ProfileConfig) -> StageKey {
    KeyBuilder::new("profile")
        .chain("trace-key", trace_key)
        .component("profile-config", config)
        .component("analysis-code-rev", &specmt_analysis::CODE_REV)
        .component("spawn-code-rev", &specmt_spawn::CODE_REV)
        .finish()
}

/// A spawn-table entry's key: the trace, the scheme's self-declared cache
/// identity (see `SpawnScheme::cache_identity`), and the selection
/// parameters.
pub fn table_stage(trace_key: &StageKey, identity: &str, params: &SchemeParams) -> StageKey {
    KeyBuilder::new("table")
        .chain("trace-key", trace_key)
        .component("scheme-identity", identity)
        .component("scheme-params", params)
        .component("spawn-code-rev", &specmt_spawn::CODE_REV)
        .finish()
}

/// The single-threaded baseline's key (an `analysis`-namespace artifact).
pub fn baseline_stage(trace_key: &StageKey) -> StageKey {
    KeyBuilder::new("baseline")
        .chain("trace-key", trace_key)
        .component("sim-config", &SimConfig::single_threaded())
        .code_rev(specmt_sim::CODE_REV)
        .finish()
}

/// A simulation result's key: the trace, the spawn table's *content* and
/// the full effective configuration.
pub fn sim_stage(trace_key: &StageKey, table: &SpawnTable, config: &SimConfig) -> StageKey {
    KeyBuilder::new("simulate")
        .chain("trace-key", trace_key)
        .component("spawn-table", table)
        .component("sim-config", config)
        .code_rev(specmt_sim::CODE_REV)
        .finish()
}

/// The baseline document stored in the `analysis` namespace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BaselineDoc {
    /// Single-threaded cycles of the workload's trace.
    pub(crate) cycles: u64,
}

serde::impl_serde_struct!(BaselineDoc { cycles });

/// The trace stage's store entry: what a generation under the trace key
/// produced, in place of the trace itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TraceManifest {
    /// The trace's record count (a column-capacity hint).
    pub(crate) records: u64,
    /// The trace's final `r10`, checked against the workload's checksum
    /// before the manifest was written.
    pub(crate) checksum: u64,
}

serde::impl_serde_struct!(TraceManifest { records, checksum });

/// The read-through path of every JSON stage: serve `key`'s entry from
/// `store` when it parses, otherwise run `compute` and store its result.
/// A `None` key (unkeyable input, fault-injected run) bypasses the store.
pub(crate) fn read_through<T>(
    store: &Store,
    ns: Namespace,
    label: &str,
    key: Option<&StageKey>,
    compute: impl FnOnce() -> Result<T, HarnessError>,
) -> Result<T, HarnessError>
where
    T: serde::Serialize + serde::Deserialize,
{
    let Some(key) = key else {
        return compute();
    };
    if let Some(v) = store.get_json(ns, label, key) {
        return Ok(v);
    }
    let v = compute()?;
    store.put_json(ns, label, key, &v);
    Ok(v)
}

/// Builds a [`Bench`] for `workload`, consulting `store`'s trace namespace
/// under the logical name `label` before generating. Returns the bench and
/// its trace stage key (`None` when the workload is unkeyable).
///
/// A hit returns a bench that generates its trace on first use; the
/// manifest must name the workload's checksum and a record count the step
/// budget allows, or it is rejected. A miss (or a rejected entry)
/// generates the trace now, checks its checksum and only then writes the
/// manifest.
///
/// # Errors
///
/// As [`Bench::from_workload`], plus [`BenchError::ChecksumMismatch`] when
/// the generated trace does not leave the workload's checksum (nothing is
/// stored then).
pub(crate) fn bench_via_store(
    store: &Store,
    workload: Workload,
    label: &str,
) -> Result<(Bench, Option<StageKey>), BenchError> {
    let Some(tkey) = trace_stage(&workload) else {
        return Ok((Bench::from_workload(workload)?, None));
    };
    if let Some(m) = store.get_json::<TraceManifest>(Namespace::Trace, label, &tkey) {
        if m.checksum == workload.expected_checksum
            && (1..=workload.step_budget).contains(&m.records)
        {
            return Ok((Bench::from_manifest(workload, m.records), Some(tkey)));
        }
    }
    let bench = Bench::from_workload(workload)?;
    let trace = bench.trace();
    let checksum = trace.final_reg(specmt_isa::Reg::R10);
    check_checksum(bench.workload(), checksum)?;
    let manifest = TraceManifest {
        records: trace.len() as u64,
        checksum,
    };
    store.put_json(Namespace::Trace, label, &tkey, &manifest);
    Ok((bench, Some(tkey)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use specmt_workloads::Scale;

    fn workload() -> Workload {
        specmt_workloads::by_name("li", Scale::Tiny).expect("suite workload")
    }

    fn scratch_store(tag: &str) -> (std::path::PathBuf, specmt_store::StoreHandle) {
        let dir = std::env::temp_dir().join(format!("specmt-cache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Store::open(specmt_store::StoreConfig::at(&dir));
        (dir, store)
    }

    #[test]
    fn warm_loads_generate_the_trace_on_first_use() {
        let (dir, store) = scratch_store("lazy-trace");
        let (cold, _) = bench_via_store(&store, workload(), "li-tiny").expect("cold load");
        assert!(cold.has_trace(), "a cold load generates the trace");

        let (warm, key) = bench_via_store(&store, workload(), "li-tiny").expect("warm load");
        assert_eq!(store.hits(Namespace::Trace), 1);
        assert_eq!(
            store.stores(Namespace::Trace),
            1,
            "a valid manifest is not rewritten"
        );
        assert!(key.is_some());
        assert!(!warm.has_trace(), "a warm load must not generate the trace");
        assert!(format!("{warm:?}").contains("not generated"));

        let (cold, warm) = (cold.trace(), warm.trace());
        assert_eq!(warm.records_vec(), cold.records_vec());
        assert_eq!(warm.program(), cold.program());
        for r in specmt_isa::Reg::all() {
            assert_eq!(warm.final_reg(r), cold.final_reg(r), "{r:?}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_checksum_mismatch_stores_nothing() {
        let mut altered = workload();
        altered.expected_checksum ^= 1;
        assert!(
            Bench::from_workload(altered.clone()).is_ok(),
            "generation itself does not check the checksum"
        );
        let (dir, store) = scratch_store("mismatch");
        for _ in 0..2 {
            let err = bench_via_store(&store, altered.clone(), "li-tiny").unwrap_err();
            assert!(matches!(err, BenchError::ChecksumMismatch { .. }), "{err}");
        }
        assert_eq!(store.hits(Namespace::Trace), 0);
        assert_eq!(store.misses(Namespace::Trace), 2);
        assert_eq!(store.stores(Namespace::Trace), 0, "nothing is stored");
        assert!(!dir.join(Namespace::Trace.dir_name()).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trace_key_is_stable_and_workload_sensitive() {
        let a = trace_stage(&workload()).expect("keyable");
        let b = trace_stage(&workload()).expect("keyable");
        assert_eq!(a.key, b.key);
        let other = specmt_workloads::by_name("go", Scale::Tiny).expect("suite workload");
        assert_ne!(a.key, trace_stage(&other).expect("keyable").key);
    }

    #[test]
    fn downstream_stages_chain_the_trace_key() {
        let t = trace_stage(&workload()).expect("keyable");
        let other = specmt_workloads::by_name("go", Scale::Tiny).expect("suite workload");
        let t2 = trace_stage(&other).expect("keyable");
        let cfg = ProfileConfig::default();
        assert_ne!(profile_stage(&t, &cfg).key, profile_stage(&t2, &cfg).key);
        assert_ne!(baseline_stage(&t).key, baseline_stage(&t2).key);
    }

    #[test]
    fn sim_key_separates_configs_tables_and_stage() {
        let t = trace_stage(&workload()).expect("keyable");
        let empty = SpawnTable::empty();
        let base = sim_stage(&t, &empty, &SimConfig::paper(4));
        assert_ne!(base.key, sim_stage(&t, &empty, &SimConfig::paper(8)).key);
        // The baseline stage and an equivalent simulate-stage key must not
        // collide (same inputs, different stage name).
        assert_ne!(
            baseline_stage(&t).key,
            sim_stage(&t, &empty, &SimConfig::single_threaded()).key
        );
    }
}
