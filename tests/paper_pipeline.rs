//! End-to-end integration tests across all crates: the complete paper
//! pipeline (workload → trace → profile → spawn table → simulation) on
//! every benchmark of the synthetic suite.

use specmt::isa::Reg;
use specmt::predict::ValuePredictorKind;
use specmt::sim::{RemovalPolicy, SimConfig, Simulator};
use specmt::spawn::{HeuristicSet, PairOrigin, ProfileConfig};
use specmt::workloads::{Scale, SUITE_NAMES};
use specmt::Bench;

/// Every workload's emulated checksum must match its Rust reference — the
/// emulator and the workload generators validate each other.
#[test]
fn all_workload_checksums_match_references() {
    for bench in Bench::suite(Scale::Tiny).expect("suite traces") {
        assert_eq!(
            bench.trace().final_reg(Reg::R10),
            bench.workload().expected_checksum,
            "{} checksum mismatch",
            bench.name()
        );
    }
}

/// Profile-selected pairs respect the configured thresholds on every
/// benchmark.
#[test]
fn selected_pairs_respect_thresholds() {
    let config = ProfileConfig::default();
    for bench in Bench::suite(Scale::Small).expect("suite traces") {
        let result = bench.profile_table(&config);
        for pair in result.table.iter() {
            assert!(
                (0.0..=1.0).contains(&pair.prob),
                "{}: prob {} out of range",
                bench.name(),
                pair.prob
            );
            match pair.origin {
                PairOrigin::Profile => {
                    assert!(
                        pair.prob >= config.min_prob,
                        "{}: pair {}->{} prob {}",
                        bench.name(),
                        pair.sp,
                        pair.cqip,
                        pair.prob
                    );
                    assert!(pair.avg_dist >= config.min_distance);
                    if let Some(max) = config.max_distance {
                        assert!(pair.avg_dist <= max);
                    }
                }
                PairOrigin::ReturnPair => {
                    assert!(pair.avg_dist >= config.min_distance);
                    assert_eq!(pair.cqip, pair.sp.next(), "return point follows the call");
                }
                _ => panic!("profile selection produced a heuristic pair"),
            }
        }
    }
}

/// The core correctness invariant: however aggressive the speculation
/// policies, every simulation commits exactly the sequential trace.
#[test]
fn committed_instructions_always_equal_the_trace() {
    for bench in Bench::suite(Scale::Tiny).expect("suite traces") {
        let profile = bench.profile_table(&ProfileConfig::default());
        let heur = bench.heuristic_table(HeuristicSet::all());
        let configs = vec![
            SimConfig::single_threaded(),
            SimConfig::paper(4),
            SimConfig::paper(16),
            SimConfig::paper(16).with_value_predictor(ValuePredictorKind::Stride),
            SimConfig::paper(16).with_value_predictor(ValuePredictorKind::None),
            SimConfig::paper(8)
                .with_removal(RemovalPolicy::aggressive())
                .with_init_overhead(8),
            {
                let mut c = SimConfig::paper(8);
                c.min_observed_size = Some(32);
                c.reassign = true;
                c
            },
        ];
        for cfg in configs {
            for table in [&profile.table, &heur] {
                let r = bench.run(cfg.clone(), table).expect("simulation");
                assert_eq!(
                    r.committed_instructions,
                    bench.trace().len() as u64,
                    "{} under {:?}",
                    bench.name(),
                    cfg
                );
                assert!(r.cycles > 0);
            }
        }
    }
}

/// Speculation with the profile policy never loses to the sequential
/// baseline under ideal assumptions on this suite.
#[test]
fn ideal_speculation_is_never_slower() {
    for bench in Bench::suite(Scale::Small).expect("suite traces") {
        let profile = bench.profile_table(&ProfileConfig::default());
        let r = bench
            .run(SimConfig::paper(16), &profile.table)
            .expect("simulation");
        let speedup = bench.speedup(&r).expect("baseline simulation");
        assert!(
            speedup >= 0.99,
            "{}: ideal speculative run slower than baseline ({speedup:.2})",
            bench.name()
        );
    }
}

/// An empty spawn table behaves exactly like the single-threaded baseline,
/// whatever the unit count.
#[test]
fn no_pairs_means_single_threaded_timing() {
    let bench = Bench::load("go", Scale::Tiny).expect("traces");
    let base = Simulator::new(bench.trace(), SimConfig::single_threaded())
        .run()
        .expect("simulation");
    for tus in [2usize, 4, 16] {
        let r = Simulator::new(bench.trace(), SimConfig::paper(tus))
            .run()
            .expect("simulation");
        assert_eq!(r.cycles, base.cycles);
        assert_eq!(r.threads_committed, 1);
    }
}

/// Perfect value prediction dominates the stride predictor, which dominates
/// no prediction, across the suite (ideal information can only help).
#[test]
fn value_prediction_quality_orders_speedups() {
    for name in ["ijpeg", "li", "compress"] {
        let bench = Bench::load(name, Scale::Small).expect("traces");
        let table = bench.profile_table(&ProfileConfig::default()).table;
        let cycles = |kind| {
            bench
                .run(SimConfig::paper(8).with_value_predictor(kind), &table)
                .expect("simulation")
                .cycles
        };
        let perfect = cycles(ValuePredictorKind::Perfect);
        let stride = cycles(ValuePredictorKind::Stride);
        let none = cycles(ValuePredictorKind::None);
        assert!(
            perfect <= stride,
            "{name}: perfect {perfect} > stride {stride}"
        );
        assert!(
            stride <= none + none / 10,
            "{name}: stride {stride} much worse than none {none}"
        );
    }
}

/// The figure harness runs end to end at tiny scale.
#[test]
fn suite_names_are_loadable() {
    for name in SUITE_NAMES {
        let bench = Bench::load(name, Scale::Tiny).expect("traces");
        assert_eq!(bench.name(), name);
        assert!(bench.trace().len() > 1_000, "{name} trace too short");
    }
}

/// Thread-unit scaling is monotone (more units never hurt) for the regular
/// benchmark under ideal assumptions.
#[test]
fn unit_scaling_is_monotone_for_ijpeg() {
    let bench = Bench::load("ijpeg", Scale::Small).expect("traces");
    let table = bench.profile_table(&ProfileConfig::default()).table;
    let mut last = u64::MAX;
    for tus in [1usize, 2, 4, 8, 16] {
        let r = bench
            .run(SimConfig::paper(tus), &table)
            .expect("simulation");
        assert!(
            r.cycles <= last,
            "ijpeg slowed down going to {tus} units: {} > {last}",
            r.cycles
        );
        last = r.cycles;
    }
}
