//! Seeded chaos suite: the simulator's hard invariants must survive any
//! valid fault plan on any workload.
//!
//! Every suite workload is run under a storm of randomly-drawn (but fully
//! deterministic) [`FaultPlan`]s. Whatever the injector drops, squashes,
//! corrupts or delays, the simulation must return `Ok` — the engine's own
//! post-run audit enforces the window-partition, commit-completeness and
//! unit-accounting invariants — and the committed stream must equal the
//! sequential trace. The storm runs through `run_with_sink`, so every run
//! additionally streams its lifecycle events and the independent
//! event-stream auditor ([`specmt::obs::audit`]) re-derives and verifies
//! the engine's totals from the events alone. The same seed must also
//! reproduce the same result, bit for bit.

use specmt::obs::{audit, EventLog};
use specmt::predict::ValuePredictorKind;
use specmt::sim::{FaultPlan, RemovalPolicy, SimConfig, Simulator};
use specmt::spawn::{profile_pairs, ProfileConfig, SpawnTable};
use specmt::trace::Trace;
use specmt::workloads::Scale;

/// Plans drawn per workload; 8 workloads x 13 plans = 104 total (>= 100).
const PLANS_PER_WORKLOAD: u64 = 13;

/// splitmix64, used only to derive plan parameters from a master seed.
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

/// A random-but-valid plan: every rate in [0, cap], jitter in 0..=7.
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

/// A config that exercises the fault hooks broadly: a realistic predictor
/// (so value corruption has something to corrupt) on odd plans and a
/// removal policy (so forced removals interact with the alone-cycle
/// tally) on every third one.
fn config_for(plan_index: u64, plan: FaultPlan) -> SimConfig {
    let mut cfg = SimConfig::paper(8).with_faults(plan);
    if plan_index % 2 == 1 {
        cfg = cfg.with_value_predictor(ValuePredictorKind::Stride);
    }
    if plan_index.is_multiple_of(3) {
        cfg = cfg.with_removal(RemovalPolicy {
            alone_cycles: 50,
            occurrences: 1,
        });
    }
    cfg
}

fn suite_traces() -> Vec<(&'static str, Trace, SpawnTable)> {
    specmt::workloads::suite(Scale::Tiny)
        .into_iter()
        .map(|w| {
            let trace = Trace::generate(w.program.clone(), w.step_budget).expect("suite trace");
            let table = profile_pairs(&trace, &ProfileConfig::default()).table;
            (w.name, trace, table)
        })
        .collect()
}

#[test]
fn invariants_survive_one_hundred_fault_storms() {
    let mut state = 0x000c_5a05_u64;
    let mut total_plans = 0u64;
    let mut any_fault_fired = false;
    for (name, trace, table) in &suite_traces() {
        for i in 0..PLANS_PER_WORKLOAD {
            let plan = random_plan(&mut state);
            total_plans += 1;
            let cfg = config_for(i, plan);
            let mut log = EventLog::new();
            let r = Simulator::with_table(trace, cfg, table)
                .run_with_sink(&mut log)
                .unwrap_or_else(|e| panic!("{name} under {plan:?}: {e}"));
            assert_eq!(
                r.committed_instructions,
                trace.len() as u64,
                "{name} under {plan:?}: committed stream != sequential trace"
            );
            assert_eq!(
                r.threads_committed + r.threads_squashed,
                r.threads_spawned + 1,
                "{name} under {plan:?}: thread accounting leak"
            );
            // The event stream must independently reproduce those totals.
            let report =
                audit(log.events()).unwrap_or_else(|e| panic!("{name} under {plan:?}: {e}"));
            report
                .verify(&r.observed_totals())
                .unwrap_or_else(|e| panic!("{name} under {plan:?}: {e}"));
            any_fault_fired |= r.fault_dropped_spawns
                + r.fault_forced_squashes
                + r.fault_corrupted_values
                + r.fault_jitter_cycles
                + r.fault_forced_removals
                > 0;
        }
    }
    assert!(total_plans >= 100, "only {total_plans} plans drawn");
    assert!(
        any_fault_fired,
        "no plan injected anything -- the storm is a no-op"
    );
}

#[test]
fn same_seed_reproduces_identical_results() {
    let mut state = 0xdead_beef_u64;
    for (name, trace, table) in &suite_traces() {
        for i in 0..2 {
            let plan = random_plan(&mut state);
            let cfg = config_for(i + 1, plan); // odd index: stride predictor
            let a = Simulator::with_table(trace, cfg.clone(), table)
                .run()
                .expect("simulation");
            let b = Simulator::with_table(trace, cfg, table)
                .run()
                .expect("simulation");
            assert_eq!(a, b, "{name} under {plan:?}: same seed, different result");
        }
    }
}

#[test]
fn different_seeds_usually_differ() {
    // Not an invariant, but a sanity check that the injector actually does
    // something: on a workload with spawns, two disjoint seeds with heavy
    // rates should not produce the same timing.
    let (_, trace, table) = &suite_traces()[0];
    let heavy = |seed| FaultPlan {
        seed,
        squash_rate: 0.25,
        drop_spawn_rate: 0.25,
        cache_jitter: 5,
        ..FaultPlan::default()
    };
    let run = |plan| {
        Simulator::with_table(trace, SimConfig::paper(8).with_faults(plan), table)
            .run()
            .expect("simulation")
    };
    let a = run(heavy(1));
    let b = run(heavy(2));
    assert_ne!(
        (a.cycles, a.fault_jitter_cycles),
        (b.cycles, b.fault_jitter_cycles)
    );
}

#[test]
fn faultless_plan_changes_nothing() {
    let (_, trace, table) = &suite_traces()[0];
    let plain = Simulator::with_table(trace, SimConfig::paper(8), table)
        .run()
        .expect("simulation");
    let with_inactive = Simulator::with_table(
        trace,
        SimConfig::paper(8).with_faults(FaultPlan::with_seed(7)),
        table,
    )
    .run()
    .expect("simulation");
    assert_eq!(plain, with_inactive);
}
