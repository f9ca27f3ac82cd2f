//! Property-based tests for the store's stage keys: over *arbitrary*
//! configurations,
//!
//! * fingerprints are deterministic (same inputs, same 128-bit key),
//! * perturbing any fingerprinted field of a stage input re-keys that
//!   stage, and
//! * stages that do not read the perturbed input keep their keys
//!   bit-for-bit — the invariant that makes invalidation *incremental*
//!   rather than whole-pipeline.
//!
//! The exhaustive one-field-at-a-time sweep lives in
//! `crates/bench/tests/key_sensitivity.rs`; this file drives the same
//! invariant with randomly drawn values and randomly chosen fields.

use proptest::prelude::*;

use specmt::bench::cache;
use specmt::sim::SimConfig;
use specmt::spawn::{OrderCriterion, ProfileConfig, SchemeParams};
use specmt::store::{Fingerprint, KeyBuilder, StageKey};

/// An arbitrary (synthetic) trace-stage key: the root of every chain.
fn trace_key_strategy() -> impl Strategy<Value = StageKey> {
    (any::<u64>(), any::<u64>(), 1u64..1_000_000).prop_map(|(a, b, budget)| {
        KeyBuilder::new("trace")
            .component(
                "program",
                [a.to_le_bytes(), b.to_le_bytes()].concat().as_slice(),
            )
            .component("step-budget", &budget)
            .component("checksum", &(a ^ b))
            .code_rev(1)
            .finish()
    })
}

fn profile_config_strategy() -> impl Strategy<Value = ProfileConfig> {
    (
        (
            0.0f64..1.0,
            1.0f64..512.0,
            prop::option::of(32.0f64..4096.0),
            0.0f64..1.0,
        ),
        0usize..3,
    )
        .prop_map(
            |((min_prob, min_distance, max_distance, coverage), crit)| ProfileConfig {
                min_prob,
                min_distance,
                max_distance,
                coverage,
                criterion: [
                    OrderCriterion::MaxDistance,
                    OrderCriterion::Independent,
                    OrderCriterion::Predictable,
                ][crit],
            },
        )
}

fn sim_config_strategy() -> impl Strategy<Value = SimConfig> {
    (1usize..32, 1u64..64, 1u64..64).prop_map(|(units, init_overhead, forward_latency)| {
        let mut cfg = SimConfig::paper(units);
        cfg.init_overhead = init_overhead;
        cfg.forward_latency = forward_latency;
        cfg
    })
}

proptest! {
    #[test]
    fn fingerprints_are_deterministic(cfg in profile_config_strategy(), t in trace_key_strategy()) {
        prop_assert_eq!(cfg.digest(), cfg.digest());
        let a = cache::profile_stage(&t, &cfg);
        let b = cache::profile_stage(&t, &cfg);
        prop_assert_eq!(a.key, b.key);
        // The component breakdown is deterministic too (it feeds the
        // invalidation diffs).
        prop_assert_eq!(a.components.len(), b.components.len());
        for (x, y) in a.components.iter().zip(&b.components) {
            prop_assert_eq!(x.name, y.name);
            prop_assert_eq!(x.digest, y.digest);
        }
    }

    #[test]
    fn profile_field_perturbations_rekey_profile_only(
        cfg in profile_config_strategy(),
        t in trace_key_strategy(),
        field in 0usize..5,
    ) {
        let mut other = cfg.clone();
        match field {
            0 => other.min_prob = (other.min_prob + 0.125) % 1.0,
            1 => other.min_distance += 1.0,
            2 => other.max_distance = match other.max_distance {
                Some(d) => Some(d + 1.0),
                None => Some(64.0),
            },
            3 => other.coverage = (other.coverage + 0.125) % 1.0,
            _ => other.criterion = match other.criterion {
                OrderCriterion::MaxDistance => OrderCriterion::Independent,
                OrderCriterion::Independent => OrderCriterion::Predictable,
                OrderCriterion::Predictable => OrderCriterion::MaxDistance,
            },
        }
        // The perturbed stage re-keys...
        prop_assert!(
            cache::profile_stage(&t, &cfg).key != cache::profile_stage(&t, &other).key,
            "perturbing field {field} did not re-key the profile stage"
        );
        // ...and the stages that do not read ProfileConfig keep their keys.
        prop_assert_eq!(cache::baseline_stage(&t).key, cache::baseline_stage(&t).key);
        let params = SchemeParams::default();
        prop_assert_eq!(
            cache::table_stage(&t, "builtin/heuristics", &params).key,
            cache::table_stage(&t, "builtin/heuristics", &params).key
        );
    }

    #[test]
    fn sim_config_rekeys_simulate_but_not_profile(
        a in sim_config_strategy(),
        b in sim_config_strategy(),
        cfg in profile_config_strategy(),
        t in trace_key_strategy(),
    ) {
        let table = specmt::spawn::SpawnTable::empty();
        let ka = cache::sim_stage(&t, &table, &a);
        let kb = cache::sim_stage(&t, &table, &b);
        // Distinct fingerprints iff distinct keys (no collisions observed,
        // no spurious separations).
        prop_assert_eq!(a.digest() == b.digest(), ka.key == kb.key);
        // The profile stage is independent of either simulator config.
        prop_assert_eq!(
            cache::profile_stage(&t, &cfg).key,
            cache::profile_stage(&t, &cfg).key
        );
    }

    #[test]
    fn distinct_trace_keys_chain_into_distinct_downstream_keys(
        t1 in trace_key_strategy(),
        t2 in trace_key_strategy(),
        cfg in profile_config_strategy(),
    ) {
        if t1.key == t2.key {
            // Colliding synthetic roots carry no information; skip the case.
            return Ok(());
        }
        prop_assert!(
            cache::profile_stage(&t1, &cfg).key != cache::profile_stage(&t2, &cfg).key,
            "distinct trace keys must chain into distinct profile keys"
        );
        prop_assert!(
            cache::baseline_stage(&t1).key != cache::baseline_stage(&t2).key,
            "distinct trace keys must chain into distinct baseline keys"
        );
    }
}
