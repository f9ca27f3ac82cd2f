//! Differential test: observation is free, behaviourally.
//!
//! The observability layer promises that turning metrics/event collection
//! on never changes what the simulator computes — only what it records.
//! This pins that promise two ways, next to `figure_golden.rs` in spirit:
//!
//! * the **full figure registry** (paper figures and extras) at tiny scale
//!   produces bit-identical rendered tables and JSON with observation
//!   forced on via [`Harness::set_observe`], and
//! * every suite workload's raw [`SimResult`] is bit-identical across the
//!   three run modes (plain, `observe = true` with the metrics snapshot
//!   stripped, and `run_with_sink`), including under an active fault plan
//!   whose RNG draws would expose any divergence in the instrumented
//!   paths, and under an adaptive (`scoreboard`) table whose gates and
//!   demotions exercise the remaining event kinds.
//!
//! Two more pins cover the metrics snapshot itself: the built-in snapshot
//! must equal a [`MetricsRegistry`] fold of the streamed events, and every
//! snapshot must match `tests/golden/metrics_tiny.json` byte for byte. To
//! regenerate that golden after an *intentional* metrics change:
//!
//! ```text
//! SPECMT_REGEN_METRICS_GOLDEN=1 cargo test --release --test metrics_differential
//! ```
//!
//! (The regeneration run rewrites the golden and then fails, so a stale
//! golden can never be committed by accident.)

use std::collections::BTreeMap;

use specmt::bench::{figures, Harness};
use specmt::obs::{EventLog, EventSink, Metrics, MetricsRegistry};
use specmt::predict::ValuePredictorKind;
use specmt::sim::{FaultPlan, SimConfig, SimResult, Simulator};
use specmt::spawn::{SchemeParams, SchemeRegistry};
use specmt::store::Store;
use specmt::trace::Trace;
use specmt::workloads::Scale;

/// `(id, rendered block, JSON)` for every attempted figure definition.
fn registry_output(h: &Harness) -> (Vec<String>, Vec<(String, String)>) {
    let defs: Vec<&figures::FigureDef> = figures::registry().iter().collect();
    let outcome = figures::run_defs(h, &defs, false);
    assert!(
        outcome.errors.is_empty(),
        "registry must build cleanly at tiny scale: {:?}",
        outcome
            .errors
            .iter()
            .map(|(id, e)| format!("{id}: {e}"))
            .collect::<Vec<_>>()
    );
    let summary = outcome
        .summary
        .iter()
        .map(|v| serde_json::to_string(v).expect("summary entry serialises"))
        .collect();
    let blocks = outcome
        .figures
        .iter()
        .map(|f| (f.id.clone(), f.render_block()))
        .collect();
    (summary, blocks)
}

#[test]
fn figure_registry_is_bit_identical_with_observation_on() {
    // Run against a disabled store so this test neither depends on nor
    // pollutes shared state (same discipline as figure_golden.rs).
    let h =
        Harness::load_at_with(Scale::Tiny, Store::disabled()).expect("suite loads at tiny scale");

    let (summary_off, blocks_off) = registry_output(&h);
    h.set_observe(true);
    let (summary_on, blocks_on) = registry_output(&h);

    assert_eq!(
        blocks_off.len(),
        blocks_on.len(),
        "observation changed the number of figures built"
    );
    for ((id, off), (id_on, on)) in blocks_off.iter().zip(&blocks_on) {
        assert_eq!(id, id_on, "observation reordered the registry");
        assert_eq!(off, on, "{id}: rendered table changed with observation on");
    }
    assert_eq!(
        summary_off, summary_on,
        "figure JSON changed with observation on"
    );
}

/// Strips the metrics snapshot (the one field allowed to differ) and
/// asserts it was actually populated first.
fn stripped(label: &str, mut r: SimResult) -> SimResult {
    assert!(
        r.metrics.is_some(),
        "{label}: observe = true produced no metrics snapshot"
    );
    r.metrics = None;
    r
}

// Tests in this workspace run with the package dir (crates/core) as CWD.
const METRICS_GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/golden/metrics_tiny.json"
);
const METRICS_GOLDEN: &str = include_str!("golden/metrics_tiny.json");

/// `(label, scheme, config)` for every run-mode cell. The fault plan has
/// every hook hot: any extra or missing RNG draw on the instrumented paths
/// shifts the whole downstream sequence. The `scoreboard` table gates
/// spawns and demotes pairs, so its snapshots carry the `SpawnGated` and
/// `PairDemoted` counters the other two never touch.
fn run_mode_configs() -> Vec<(&'static str, &'static str, SimConfig)> {
    let plan = FaultPlan {
        seed: 0xfeed_f00d,
        squash_rate: 0.15,
        drop_spawn_rate: 0.15,
        corrupt_value_rate: 0.25,
        cache_jitter: 4,
        remove_pair_rate: 0.05,
    };
    vec![
        ("paper16", "profile", SimConfig::paper(16)),
        (
            "paper8+faults+stride",
            "profile",
            SimConfig::paper(8)
                .with_faults(plan)
                .with_value_predictor(ValuePredictorKind::Stride),
        ),
        (
            "paper8+stride/scoreboard",
            "scoreboard",
            SimConfig::paper(8).with_value_predictor(ValuePredictorKind::Stride),
        ),
    ]
}

/// The observed metrics snapshot of every tiny suite workload under every
/// run-mode configuration, keyed `workload/config`.
fn observed_snapshots() -> BTreeMap<String, Metrics> {
    let registry = SchemeRegistry::builtin();
    let params = SchemeParams::default();
    let mut out = BTreeMap::new();
    for w in specmt::workloads::suite(Scale::Tiny) {
        let trace = Trace::generate(w.program.clone(), w.step_budget).expect("suite trace");
        for (cfg_name, scheme, cfg) in run_mode_configs() {
            let label = format!("{}/{cfg_name}", w.name);
            let table = registry
                .select(scheme, &trace, &params)
                .expect("scheme selects");
            let r = Simulator::with_table(&trace, cfg.with_observe(true), &table)
                .run()
                .unwrap_or_else(|e| panic!("{label}: {e}"));
            out.insert(
                label.clone(),
                r.metrics.unwrap_or_else(|| panic!("{label}: no metrics")),
            );
        }
    }
    out
}

#[test]
fn metrics_snapshots_match_golden() {
    let snapshots = observed_snapshots();
    // The vendored serde has no map impls, so the golden is stored as a
    // sorted list of (label, metrics) pairs.
    let pairs: Vec<(String, Metrics)> = snapshots.into_iter().collect();
    let json = serde_json::to_string_pretty(&pairs).expect("snapshots serialise") + "\n";
    if std::env::var_os("SPECMT_REGEN_METRICS_GOLDEN").is_some() {
        std::fs::write(METRICS_GOLDEN_PATH, json).expect("golden written");
        panic!("regenerated {METRICS_GOLDEN_PATH}; rerun without SPECMT_REGEN_METRICS_GOLDEN");
    }
    let golden: Vec<(String, Metrics)> =
        serde_json::from_str(METRICS_GOLDEN).expect("golden parses");
    assert_eq!(
        golden.len(),
        pairs.len(),
        "golden and run cover the same cells"
    );
    for ((want_label, want), (label, got)) in golden.iter().zip(&pairs) {
        assert_eq!(want_label, label, "golden and run disagree on cell order");
        assert_eq!(
            want, got,
            "{label}: metrics snapshot diverged from the golden"
        );
    }
    assert_eq!(
        json, METRICS_GOLDEN,
        "metrics JSON differs from the golden byte for byte"
    );
    // The golden is only a pin on every counter if every counter occurs.
    let seen = |name: &str| pairs.iter().any(|(_, m)| m.counter(name) > 0);
    for name in [
        "spawns_gated",
        "pairs_demoted",
        "fault_jitter_cycles",
        "threads_squashed",
    ] {
        assert!(seen(name), "no golden cell ever touched {name}");
    }
}

#[test]
fn sim_results_are_bit_identical_across_run_modes() {
    let registry = SchemeRegistry::builtin();
    let params = SchemeParams::default();
    let mut per_workload: BTreeMap<&'static str, u64> = BTreeMap::new();
    for w in specmt::workloads::suite(Scale::Tiny) {
        let trace = Trace::generate(w.program.clone(), w.step_budget).expect("suite trace");
        for (cfg_name, scheme, cfg) in &run_mode_configs() {
            let label = format!("{}/{cfg_name}", w.name);
            let table = registry
                .select(scheme, &trace, &params)
                .expect("scheme selects");
            let plain = Simulator::with_table(&trace, cfg.clone(), &table)
                .run()
                .expect("plain run");

            let observed = Simulator::with_table(&trace, cfg.clone().with_observe(true), &table)
                .run()
                .expect("observed run");

            let mut log = EventLog::new();
            let sunk = Simulator::with_table(&trace, cfg.clone(), &table)
                .run_with_sink(&mut log)
                .expect("sink run");
            assert_eq!(plain, sunk, "{label}: streaming events changed the result");
            assert!(!log.is_empty(), "{label}: sink run emitted nothing");

            // The built-in snapshot is exactly a fold of the event stream.
            let mut fold = MetricsRegistry::new();
            for event in log.events() {
                fold.record(event);
            }
            assert_eq!(
                observed.metrics.as_ref(),
                Some(&fold.snapshot()),
                "{label}: built-in metrics differ from a fold of the sink's events"
            );
            assert_eq!(
                plain,
                stripped(&label, observed),
                "{label}: observe = true changed the result"
            );
            per_workload.insert(w.name, plain.cycles);
        }
    }
    assert_eq!(per_workload.len(), 8, "all suite workloads covered");
}
