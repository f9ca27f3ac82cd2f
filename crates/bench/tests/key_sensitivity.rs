//! Key-sensitivity sweep: perturbing any fingerprinted field of any stage
//! input must produce a distinct stage key, and must leave the keys of
//! stages that do not read that field untouched. This pins down the store's
//! central invariant — a key is the content address of its stage's full
//! input closure, no more and no less.

use std::collections::HashSet;

use specmt_bench::cache;
use specmt_predict::ValuePredictorKind;
use specmt_sim::{FaultPlan, RemovalPolicy, SimConfig};
use specmt_spawn::{
    AdaptivePolicy,
    HeuristicSet, MemSliceConfig, OrderCriterion, ProfileConfig, SchemeParams, SpawnTable,
};
use specmt_store::{Fingerprint, StageKey};
use specmt_workloads::Scale;

fn trace_key() -> StageKey {
    let w = specmt_workloads::by_name("go", Scale::Tiny).expect("suite workload");
    cache::trace_stage(&w).expect("keyable workload")
}

/// Asserts every digest in the batch is distinct and remembers them.
fn all_distinct<T: Fingerprint>(label: &str, variants: &[T]) {
    let mut seen = HashSet::new();
    for (i, v) in variants.iter().enumerate() {
        assert!(
            seen.insert(v.digest().hex()),
            "{label}: variant {i} collides with an earlier one"
        );
    }
}

#[test]
fn every_profile_config_field_is_keyed() {
    let base = ProfileConfig::default();
    let variants = vec![
        base.clone(),
        ProfileConfig { min_prob: base.min_prob + 0.01, ..base.clone() },
        ProfileConfig { min_distance: base.min_distance + 1.0, ..base.clone() },
        ProfileConfig { max_distance: base.max_distance.map(|d| d + 1.0), ..base.clone() },
        ProfileConfig { max_distance: None, ..base.clone() },
        ProfileConfig { coverage: base.coverage / 2.0, ..base.clone() },
        ProfileConfig { criterion: OrderCriterion::Independent, ..base.clone() },
        ProfileConfig { criterion: OrderCriterion::Predictable, ..base.clone() },
        ProfileConfig { include_return_pairs: !base.include_return_pairs, ..base.clone() },
        ProfileConfig { dep_samples: base.dep_samples + 1, ..base.clone() },
        ProfileConfig { max_score_window: base.max_score_window + 1, ..base.clone() },
    ];
    all_distinct("ProfileConfig", &variants);

    // Each variant re-keys the profile stage...
    let t = trace_key();
    let keys: HashSet<String> = variants
        .iter()
        .map(|cfg| cache::profile_stage(&t, cfg).key.hex())
        .collect();
    assert_eq!(keys.len(), variants.len());
    // ...while the upstream trace stage is oblivious by construction
    // (ProfileConfig is simply not part of its closure).
    assert_eq!(trace_key().key, t.key);
}

#[test]
fn every_sim_config_field_is_keyed() {
    let base = SimConfig::paper(4);
    let mut variants = vec![base.clone()];
    macro_rules! variant {
        ($($mutation:tt)*) => {{
            let mut v = base.clone();
            v.$($mutation)*;
            variants.push(v);
        }};
    }
    variant!(thread_units += 1);
    variant!(fetch_width += 1);
    variant!(issue_width += 1);
    variant!(rob_entries += 1);
    variant!(phys_regs += 1);
    variant!(mispredict_penalty += 1);
    variant!(gshare_bits += 1);
    variant!(cache.size_bytes *= 2);
    variant!(cache.ways += 1);
    variant!(cache.block_bytes *= 2);
    variant!(cache.hit_latency += 1);
    variant!(cache.miss_latency += 1);
    variant!(cache.mshrs += 1);
    variant!(predictor_budget += 1);
    variant!(init_overhead += 1);
    variant!(forward_latency += 1);
    variant!(squash_penalty += 1);
    variant!(reassign = !base.reassign);
    variant!(min_observed_size = Some(32));
    variant!(observe = !base.observe);
    variant!(faults = Some(FaultPlan::with_seed(7)));
    variant!(removal = Some(RemovalPolicy {
        alone_cycles: 50,
        occurrences: 1,
        reinstate_after: None,
        max_companions: 0,
    }));
    variant!(removal = Some(RemovalPolicy {
        alone_cycles: 50,
        occurrences: 1,
        reinstate_after: Some(1000),
        max_companions: 0,
    }));
    variant!(removal = Some(RemovalPolicy {
        alone_cycles: 50,
        occurrences: 1,
        reinstate_after: None,
        max_companions: 2,
    }));
    for kind in [
        ValuePredictorKind::Perfect,
        ValuePredictorKind::LastValue,
        ValuePredictorKind::Fcm,
        ValuePredictorKind::Hybrid,
        ValuePredictorKind::None,
    ] {
        if kind != base.value_predictor {
            variant!(value_predictor = kind);
        }
    }
    all_distinct("SimConfig", &variants);

    // A SimConfig perturbation re-keys the simulate and baseline stages
    // only: profile and table keys do not embed it.
    let t = trace_key();
    let table = SpawnTable::empty();
    let keys: HashSet<String> = variants
        .iter()
        .map(|cfg| cache::sim_stage(&t, &table, cfg).key.hex())
        .collect();
    assert_eq!(keys.len(), variants.len());
    let p = cache::profile_stage(&t, &ProfileConfig::default());
    let tab = cache::table_stage(&t, "builtin/profile", &SchemeParams::default());
    assert_eq!(p.key, cache::profile_stage(&t, &ProfileConfig::default()).key);
    assert_eq!(
        tab.key,
        cache::table_stage(&t, "builtin/profile", &SchemeParams::default()).key
    );
}

#[test]
fn scheme_params_and_identity_key_the_table_stage() {
    let t = trace_key();
    let base = SchemeParams::default();
    let mut keys = HashSet::new();
    let mut insert = |params: &SchemeParams, identity: &str| {
        assert!(
            keys.insert(cache::table_stage(&t, identity, params).key.hex()),
            "table key collision for identity `{identity}`"
        );
    };
    insert(&base, "builtin/profile");
    insert(&base, "builtin/heuristics");
    insert(&base, "builtin/memslice");
    let memslice = MemSliceConfig::default();
    insert(
        &SchemeParams {
            memslice: MemSliceConfig { target_size: memslice.target_size + 1.0, ..memslice },
            ..base.clone()
        },
        "builtin/memslice",
    );
    insert(
        &SchemeParams {
            memslice: MemSliceConfig { tolerance: memslice.tolerance + 0.1, ..memslice },
            ..base.clone()
        },
        "builtin/memslice",
    );
    insert(
        &SchemeParams {
            memslice: MemSliceConfig { min_prob: memslice.min_prob / 2.0, ..memslice },
            ..base.clone()
        },
        "builtin/memslice",
    );
    insert(
        &SchemeParams {
            memslice: MemSliceConfig { min_occurrences: memslice.min_occurrences + 1, ..memslice },
            ..base.clone()
        },
        "builtin/memslice",
    );
    insert(
        &SchemeParams {
            profile: ProfileConfig { min_prob: 0.5, ..ProfileConfig::default() },
            ..base
        },
        "builtin/profile",
    );
}

/// Changing an adaptive gate threshold must invalidate exactly the spawn
/// table and simulate entries: the wrapper schemes bake the threshold into
/// the identity string the table stage is keyed under, and the attached
/// [`AdaptivePolicy`] extends the table fingerprint the sim stage hashes —
/// while the trace and profile stages, which never read gate parameters,
/// keep their keys bit-for-bit.
#[test]
fn adaptive_gate_thresholds_re_key_table_and_sim_stages_only() {
    let t = trace_key();
    let params = SchemeParams::default();
    let profile_cfg = ProfileConfig::default();
    let profile_before = cache::profile_stage(&t, &profile_cfg).key;

    // A threshold bump is a different identity, hence a different table key.
    let identities = [
        "builtin/profile",
        "scoreboard[t=2]/builtin/profile",
        "scoreboard[t=3]/builtin/profile",
        "conf-gated[t=3]/builtin/profile",
        "conf-gated[t=6]/builtin/profile",
    ];
    let table_keys: HashSet<String> = identities
        .iter()
        .map(|id| cache::table_stage(&t, id, &params).key.hex())
        .collect();
    assert_eq!(table_keys.len(), identities.len(), "gate thresholds must re-key the table stage");

    // The policy rides the table into the sim stage's closure.
    let base = SpawnTable::empty();
    let policies = [
        None,
        Some(AdaptivePolicy { demote_threshold: Some(2), confidence_threshold: None }),
        Some(AdaptivePolicy { demote_threshold: Some(3), confidence_threshold: None }),
        Some(AdaptivePolicy { demote_threshold: None, confidence_threshold: Some(3) }),
        Some(AdaptivePolicy { demote_threshold: None, confidence_threshold: Some(6) }),
    ];
    let cfg = SimConfig::paper(4);
    let sim_keys: HashSet<String> = policies
        .iter()
        .map(|p| {
            let table = match p {
                None => base.clone(),
                Some(policy) => base.clone().with_adaptive(*policy),
            };
            cache::sim_stage(&t, &table, &cfg).key.hex()
        })
        .collect();
    assert_eq!(sim_keys.len(), policies.len(), "gate thresholds must re-key the sim stage");

    // Stages upstream of the gate parameters are oblivious to all of it.
    assert_eq!(trace_key().key, t.key);
    assert_eq!(cache::profile_stage(&t, &profile_cfg).key, profile_before);
}

#[test]
fn heuristic_set_members_are_keyed() {
    let all = HeuristicSet::all();
    let variants = [
        all,
        HeuristicSet { loop_iteration: false, ..all },
        HeuristicSet { loop_continuation: false, ..all },
        HeuristicSet { subroutine_continuation: false, ..all },
    ];
    all_distinct("HeuristicSet", &variants);
}

#[test]
fn spawn_table_content_is_keyed() {
    use specmt_isa::Pc;
    use specmt_spawn::{PairOrigin, SpawnPair};

    let mk = |sp: u32, cqip: u32, score: f64, origin| SpawnPair {
        sp: Pc(sp),
        cqip: Pc(cqip),
        prob: 0.97,
        avg_dist: 40.0,
        score,
        origin,
    };
    let variants = [
        SpawnTable::empty(),
        SpawnTable::from_pairs(vec![mk(1, 9, 1.0, PairOrigin::Profile)]),
        SpawnTable::from_pairs(vec![mk(1, 9, 2.0, PairOrigin::Profile)]),
        SpawnTable::from_pairs(vec![mk(1, 9, 1.0, PairOrigin::ReturnPair)]),
        SpawnTable::from_pairs(vec![mk(2, 9, 1.0, PairOrigin::Profile)]),
        SpawnTable::from_pairs(vec![
            mk(1, 9, 1.0, PairOrigin::Profile),
            mk(2, 9, 1.0, PairOrigin::Profile),
        ]),
    ];
    all_distinct("SpawnTable", &variants);
}

#[test]
fn fault_plan_fields_are_keyed() {
    let base = FaultPlan::with_seed(1);
    let variants = [
        base,
        FaultPlan { seed: 2, ..base },
        FaultPlan { squash_rate: 0.1, ..base },
        FaultPlan { drop_spawn_rate: 0.1, ..base },
        FaultPlan { corrupt_value_rate: 0.1, ..base },
        FaultPlan { cache_jitter: 3, ..base },
        FaultPlan { remove_pair_rate: 0.1, ..base },
    ];
    all_distinct("FaultPlan", &variants);
}

/// The simulator's stage keys are pinned to literal values: a change that
/// keeps `specmt_sim::CODE_REV` and every keyed input unchanged must keep
/// existing store entries valid, so these digests may only move together
/// with a deliberate code-revision or fingerprint change.
#[test]
fn sim_stage_keys_are_pinned() {
    assert_eq!(specmt_sim::CODE_REV, 3);
    let t = trace_key();
    assert_eq!(
        cache::baseline_stage(&t).key.hex(),
        "9433cd3f7d96bf051cff9cc8a82a9477"
    );
    assert_eq!(
        cache::sim_stage(&t, &SpawnTable::empty(), &SimConfig::paper(16))
            .key
            .hex(),
        "8ea8935addb44ab0af3fb97ca0dd35c6"
    );
}
