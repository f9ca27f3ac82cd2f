//! Conservation-law suite: the event stream emitted by the engine must
//! balance, for every workload under every registered spawning scheme, and
//! must keep balancing when the fault injector is tearing threads down.
//!
//! The laws (checked by [`specmt::obs::audit`] plus
//! [`AuditReport::verify`] against the run's own `SimResult` totals):
//!
//! * `spawned == committed + squashed + in_flight_at_end`, with
//!   `in_flight_at_end == 0` for a completed run,
//! * squash reasons partition the squashes
//!   (`control + fault == squashed`),
//! * per-thread committed sizes sum to the committed instruction count,
//!   which equals the sequential trace length,
//! * and the stream's totals equal the simulator's ad-hoc counters
//!   (spawns, commits, squashes, violations) exactly.
//!
//! The same run's [`Metrics`] snapshot is cross-checked against both the
//! audit report and the `SimResult`, so the three accounting systems —
//! engine counters, event stream, metrics registry — can only drift
//! together, which the trace-length check rules out.

use std::sync::OnceLock;

use specmt::obs::{audit, AuditReport, EventLog, Metrics};
use specmt::predict::ValuePredictorKind;
use specmt::sim::{FaultPlan, SimConfig, SimResult, Simulator};
use specmt::spawn::{SchemeParams, SchemeRegistry, SpawnTable, BUILTIN_SCHEME_NAMES};
use specmt::trace::Trace;
use specmt::workloads::Scale;

/// One workload with a spawn table per registered scheme, built once and
/// shared by every test in this binary.
struct Case {
    name: &'static str,
    trace: Trace,
    tables: Vec<(&'static str, SpawnTable)>,
}

fn cases() -> &'static [Case] {
    static CASES: OnceLock<Vec<Case>> = OnceLock::new();
    CASES.get_or_init(|| {
        let registry = SchemeRegistry::builtin();
        let params = SchemeParams::default();
        specmt::workloads::suite(Scale::Tiny)
            .into_iter()
            .map(|w| {
                let trace = Trace::generate(w.program.clone(), w.step_budget).expect("suite trace");
                let tables = BUILTIN_SCHEME_NAMES
                    .iter()
                    .map(|&scheme| {
                        let table = registry
                            .select(scheme, &trace, &params)
                            .unwrap_or_else(|e| panic!("{}/{scheme}: {e}", w.name));
                        (scheme, table)
                    })
                    .collect();
                Case {
                    name: w.name,
                    trace,
                    tables,
                }
            })
            .collect()
    })
}

/// Runs one observed simulation and applies every conservation law; returns
/// the audit report and result for any further scenario-specific checks.
fn check(
    label: &str,
    trace: &Trace,
    cfg: SimConfig,
    table: &SpawnTable,
) -> (AuditReport, SimResult) {
    let mut log = EventLog::new();
    let r = Simulator::with_table(trace, cfg.with_observe(true), table)
        .run_with_sink(&mut log)
        .unwrap_or_else(|e| panic!("{label}: simulation failed: {e}"));
    let report = audit(log.events()).unwrap_or_else(|e| panic!("{label}: {e}"));

    // Law 1: every spawned thread retired, and the lifecycle balances.
    assert_eq!(report.in_flight_at_end, 0, "{label}: threads leaked");
    assert_eq!(
        report.committed + report.squashed + report.in_flight_at_end,
        report.spawned,
        "{label}: spawned != committed + squashed + in-flight"
    );

    // Law 2: squash reasons partition the squashes.
    assert_eq!(
        report.squashed_control + report.squashed_fault,
        report.squashed,
        "{label}: squash reasons do not partition"
    );

    // Law 3: committed window sizes tile the sequential trace.
    assert_eq!(
        report.committed_size_sum,
        trace.len() as u64,
        "{label}: committed sizes do not sum to the trace length"
    );

    // Laws 4..: the stream reproduces the simulator's own totals.
    report
        .verify(&r.observed_totals())
        .unwrap_or_else(|e| panic!("{label}: {e}"));

    // The metrics registry is a third, independent accounting of the same
    // stream; it must agree with both.
    let m = r
        .metrics
        .clone()
        .unwrap_or_else(|| panic!("{label}: observe=true lost metrics"));
    check_metrics(label, &m, &report, &r);

    (report, r)
}

fn check_metrics(label: &str, m: &Metrics, report: &AuditReport, r: &SimResult) {
    assert_eq!(
        m.counter("threads_spawned"),
        report.spawned,
        "{label}: metrics spawned"
    );
    assert_eq!(
        m.counter("speculative_spawns"),
        r.threads_spawned,
        "{label}: metrics speculative spawns"
    );
    assert_eq!(
        m.counter("threads_committed"),
        r.threads_committed,
        "{label}: metrics commits"
    );
    assert_eq!(
        m.counter("threads_squashed"),
        r.threads_squashed,
        "{label}: metrics squashes"
    );
    assert_eq!(
        m.counter("squashed_control_misspeculation") + m.counter("squashed_injected_fault"),
        m.counter("threads_squashed"),
        "{label}: metrics squash reasons do not partition"
    );
    assert_eq!(
        m.counter("violations"),
        r.violations,
        "{label}: metrics violations"
    );
    assert_eq!(
        m.counter("cache_hits"),
        r.cache_hits,
        "{label}: metrics cache hits"
    );
    assert_eq!(
        m.counter("cache_misses"),
        r.cache_misses,
        "{label}: metrics cache misses"
    );
    assert_eq!(
        m.counter("threads_in_flight"),
        0,
        "{label}: metrics in-flight at end"
    );
    assert_eq!(
        m.counter("fault_forced_squashes"),
        r.fault_forced_squashes,
        "{label}: metrics forced squashes"
    );
    assert_eq!(
        m.counter("fault_jitter_cycles"),
        r.fault_jitter_cycles,
        "{label}: metrics jitter cycles"
    );
    assert_eq!(
        m.counter("spawns_gated"),
        r.spawns_gated,
        "{label}: metrics gated spawns"
    );
    assert_eq!(
        m.counter("pairs_demoted"),
        r.pairs_demoted,
        "{label}: metrics demoted pairs"
    );
    assert_eq!(
        m.counter("gated_low_confidence") + m.counter("gated_demoted"),
        m.counter("spawns_gated"),
        "{label}: gate reasons do not partition the gated spawns"
    );

    let sizes = m
        .histogram("thread_size")
        .unwrap_or_else(|| panic!("{label}: no size histogram"));
    assert_eq!(
        sizes.count, r.threads_committed,
        "{label}: size histogram count"
    );
    assert_eq!(
        sizes.sum, r.committed_instructions,
        "{label}: size histogram sum"
    );
    assert_eq!(
        sizes.buckets, r.thread_size_histogram,
        "{label}: size histogram buckets diverge from SimResult's"
    );
    let lat = m
        .histogram("spawn_to_commit_cycles")
        .unwrap_or_else(|| panic!("{label}: no latency histogram"));
    assert_eq!(
        lat.count, r.threads_committed,
        "{label}: latency histogram count"
    );
    assert_eq!(
        lat.sum, r.thread_lifetime_cycles,
        "{label}: spawn-to-commit cycles diverge from thread_lifetime_cycles"
    );
}

#[test]
fn every_workload_and_scheme_conserves() {
    let mut speculative_runs = 0u64;
    for case in cases() {
        for (scheme, table) in &case.tables {
            let label = format!("{}/{scheme}", case.name);
            let (report, _) = check(&label, &case.trace, SimConfig::paper(16), table);
            assert_eq!(
                report.spawned,
                report.speculative_spawned + 1,
                "{label}: one root"
            );
            speculative_runs += u64::from(report.speculative_spawned > 0);
        }
    }
    // The suite exercises real speculation, not 72 single-threaded runs.
    assert!(
        speculative_runs > 20,
        "only {speculative_runs} runs ever spawned"
    );
}

/// splitmix64, used only to derive plan parameters from a master seed
/// (same discipline as `tests/chaos_faults.rs`).
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn unit(state: &mut u64) -> f64 {
    (mix(state) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

fn random_plan(state: &mut u64) -> FaultPlan {
    FaultPlan {
        seed: mix(state),
        squash_rate: unit(state) * 0.3,
        drop_spawn_rate: unit(state) * 0.3,
        corrupt_value_rate: unit(state) * 0.5,
        cache_jitter: mix(state) % 8,
        remove_pair_rate: unit(state) * 0.1,
    }
}

/// The adaptive schemes add two event kinds, and both come with laws:
/// every `SpawnGated` is one declined spawn (so gated <= declined, and the
/// stream's count equals the engine's counter exactly), and `PairDemoted`
/// events match the scoreboard's final demotion count (the engine audits
/// its own scoreboard; here the *stream* must agree with the counter the
/// auditor verified). Ten seeded fault storms keep the squash pressure
/// high enough that both gates actually fire.
#[test]
fn adaptive_gates_conserve_under_ten_fault_plans() {
    let cases = cases();
    let adaptive: Vec<(&Case, &(&'static str, SpawnTable))> = cases
        .iter()
        .flat_map(|c| {
            c.tables
                .iter()
                .filter(|(s, _)| *s == "scoreboard" || *s == "conf-gated")
                .map(move |t| (c, t))
        })
        .collect();
    assert_eq!(
        adaptive.len(),
        2 * cases.len(),
        "both adaptive schemes built per workload"
    );

    let mut state = 0xada9_71ce_u64;
    let mut any_gated = false;
    let mut any_demoted = false;
    for i in 0..10usize {
        let plan = random_plan(&mut state);
        let (case, (scheme, table)) = &adaptive[(i * 3) % adaptive.len()];
        let label = format!("{}/{scheme} under {plan:?}", case.name);
        let mut cfg = SimConfig::paper(8).with_faults(plan);
        if i % 2 == 1 {
            cfg = cfg.with_value_predictor(ValuePredictorKind::Stride);
        }
        let (report, r) = check(&label, &case.trace, cfg, table);

        // Every SpawnGated is exactly one declined spawn: the stream count
        // matches the engine's gate counter (check() already verified
        // that), and gated spawns are a subset of the declines.
        assert_eq!(
            report.spawns_gated, r.spawns_gated,
            "{label}: stream vs gate counter"
        );
        assert!(
            r.spawns_gated <= r.spawns_declined,
            "{label}: {} gated spawns but only {} declines",
            r.spawns_gated,
            r.spawns_declined
        );

        // PairDemoted events match the scoreboard's final state: the
        // engine's own audit pins `pairs_demoted` to the scoreboard's
        // demotion count, and `verify` pinned the stream to the counter —
        // assert the endpoints directly for a readable failure.
        assert_eq!(
            report.pairs_demoted, r.pairs_demoted,
            "{label}: stream vs scoreboard"
        );
        if *scheme == "conf-gated" {
            assert_eq!(
                r.pairs_demoted, 0,
                "{label}: gate-only scheme demoted a pair"
            );
        }

        any_gated |= r.spawns_gated > 0;
        any_demoted |= r.pairs_demoted > 0;
    }
    assert!(
        any_gated,
        "no storm ever gated a spawn; the gate laws are vacuous"
    );
    assert!(
        any_demoted,
        "no storm ever demoted a pair; the scoreboard laws are vacuous"
    );
}

#[test]
fn conservation_survives_twenty_five_fault_plans() {
    let cases = cases();
    let mut state = 0x0b5e_7a11_u64;
    let mut any_fault_fired = false;
    let mut any_forced_squash = false;
    for i in 0..25usize {
        let plan = random_plan(&mut state);
        let case = &cases[i % cases.len()];
        let (scheme, table) = &case.tables[i % case.tables.len()];
        let label = format!("{}/{scheme} under {plan:?}", case.name);
        let mut cfg = SimConfig::paper(8).with_faults(plan);
        if i % 2 == 1 {
            // A realistic predictor gives corrupt_value_rate something to
            // corrupt (perfect prediction bypasses the corruptible path).
            cfg = cfg.with_value_predictor(ValuePredictorKind::Stride);
        }
        let (report, r) = check(&label, &case.trace, cfg, table);
        let m = r.metrics.as_ref().expect("observed run has metrics");
        // Every FaultInjected event is one of the five kinds, and the four
        // kinds `SimResult` counts directly must match its counters (jitter
        // events have no SimResult counter; the metrics registry's count of
        // them closes the partition).
        assert_eq!(
            report.faults_injected,
            r.fault_dropped_spawns
                + r.fault_forced_squashes
                + r.fault_corrupted_values
                + r.fault_forced_removals
                + m.counter("fault_cache_jitters"),
            "{label}: fault events diverge from fault counters"
        );
        any_fault_fired |= report.faults_injected > 0;
        any_forced_squash |= report.squashed_fault > 0;
    }
    assert!(
        any_fault_fired,
        "no plan injected anything -- the storm is a no-op"
    );
    assert!(
        any_forced_squash,
        "no plan ever forced a squash; reason partition untested"
    );
}
