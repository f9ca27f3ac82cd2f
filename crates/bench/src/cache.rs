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
//! address of the inputs). Corrupt entries are parse-and-reject, at load:
//! a stored trace image is scanned end to end by [`CheckedImage::check`]
//! (every check the decoder makes, with the program header compared byte
//! for byte against the workload's program) and its final `r10` must be
//! the workload's checksum; JSON payloads must parse. Any failure falls
//! through to regeneration, which overwrites the entry. A checked image is
//! decoded only when its bench's trace is first used, so a run served
//! entirely from the store never builds trace columns. Traces handed in
//! already decoded are validated by [`Bench::from_cached`].

use std::sync::Arc;

use specmt_sim::SimConfig;
use specmt_spawn::{ProfileConfig, SchemeParams, SpawnTable};
use specmt_store::{KeyBuilder, Namespace, StageKey, Store};
use specmt_trace::CheckedImage;
use specmt_workloads::Workload;

use crate::{Bench, BenchError, HarnessError};

/// The trace stage's key: everything that determines the generated trace.
/// `None` if the program cannot be serialized (the store is skipped, the
/// pipeline still runs).
pub fn trace_stage(workload: &Workload) -> Option<StageKey> {
    let program_json = serde_json::to_vec(&workload.program).ok()?;
    Some(trace_key(workload, &program_json))
}

/// [`trace_stage`] for an already serialized program.
fn trace_key(workload: &Workload, program_json: &[u8]) -> StageKey {
    KeyBuilder::new("trace")
        .component("program", program_json)
        .component("step-budget", &workload.step_budget)
        .component("checksum", &workload.expected_checksum)
        .code_rev(specmt_trace::CODE_REV)
        .finish()
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
/// A stored trace is never trusted: the whole image is checked against the
/// workload's program ([`CheckedImage::check`]) and must reproduce the
/// workload's checksum, here at load; any failure regenerates and
/// overwrites the entry. A passing image is decoded only when the bench's
/// trace is first used.
///
/// # Errors
///
/// As [`Bench::from_workload`].
pub(crate) fn bench_via_store(
    store: &Store,
    workload: Workload,
    label: &str,
) -> Result<(Bench, Option<StageKey>), BenchError> {
    let Ok(program_json) = serde_json::to_vec(&workload.program) else {
        return Ok((Bench::from_workload(workload)?, None));
    };
    let tkey = trace_key(&workload, &program_json);
    if let Some(bytes) = store.get_bytes(Namespace::Trace, label, &tkey) {
        let program = Arc::new(workload.program.clone());
        if let Ok(image) = CheckedImage::check(bytes, program, &program_json) {
            if let Ok(bench) = Bench::from_image(workload.clone(), image) {
                return Ok((bench, Some(tkey)));
            }
        }
    }
    // Generation does not need the header; free it (up to ~0.4 MB at
    // medium) before the trace columns grow.
    drop(program_json);
    let bench = Bench::from_workload(workload)?;
    let mut trace_bytes = Vec::new();
    if bench.trace().write_to(&mut trace_bytes).is_ok() {
        store.put_bytes(Namespace::Trace, label, &tkey, &trace_bytes);
    }
    Ok((bench, Some(tkey)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use specmt_workloads::Scale;

    fn workload() -> Workload {
        specmt_workloads::by_name("li", Scale::Tiny).expect("suite workload")
    }

    #[test]
    fn warm_trace_loads_decode_on_first_use() {
        let dir =
            std::env::temp_dir().join(format!("specmt-cache-lazy-trace-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Store::open(specmt_store::StoreConfig::at(&dir));
        let (cold, _) = bench_via_store(&store, workload(), "li-tiny").expect("cold load");
        assert!(
            cold.is_decoded(),
            "a generated trace is decoded from the start"
        );

        let (warm, key) = bench_via_store(&store, workload(), "li-tiny").expect("warm load");
        assert_eq!(store.hits(Namespace::Trace), 1);
        assert_eq!(
            store.stores(Namespace::Trace),
            1,
            "a valid image is not rewritten"
        );
        assert!(key.is_some());
        assert!(!warm.is_decoded(), "a warm load must not decode the trace");
        assert!(format!("{warm:?}").contains("not decoded"));

        assert_eq!(warm.trace().records_vec(), cold.trace().records_vec());
        assert_eq!(warm.trace().program(), cold.trace().program());
        assert!(warm.is_decoded());
        assert!(format!("{warm:?}").contains(&format!("trace_len: {}", cold.trace().len())));
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
