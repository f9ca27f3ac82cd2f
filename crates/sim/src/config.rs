//! Simulator configuration.

use specmt_predict::ValuePredictorKind;
use specmt_store::{Fingerprint, FingerprintHasher};

use crate::{FaultPlan, SimError};

/// The §4.2 dynamic spawning-pair removal mechanism: a pair is cancelled
/// once its threads have executed *alone* for longer than a threshold, a
/// configurable number of times.
///
/// A thread is alone from its init (and its predecessor's commit) until
/// its first successor spawns, and removal is permanent. The two variants
/// §4.2 mentions only in passing, reinstating removed pairs (footnote 1)
/// and counting a thread as alone "with just a few threads", are not
/// modelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RemovalPolicy {
    /// Cycles a thread must execute alone to count one occurrence
    /// (Figure 5a evaluates 50 and 200).
    pub alone_cycles: u64,
    /// Occurrences before the pair is removed (Figure 5b evaluates 1, 8 and
    /// 16; 1 removes on first sight).
    pub occurrences: u32,
}

impl RemovalPolicy {
    /// The paper's most aggressive scheme: remove on the first 50-cycle
    /// solo.
    pub fn aggressive() -> RemovalPolicy {
        RemovalPolicy {
            alone_cycles: 50,
            occurrences: 1,
        }
    }

    /// The paper's best-overall scheme: remove on the first 200-cycle solo.
    pub fn relaxed() -> RemovalPolicy {
        RemovalPolicy {
            alone_cycles: 200,
            occurrences: 1,
        }
    }
}

// The fixed §4.1 machine: every thread unit is the same 4-wide
// out-of-order core, and no experiment in the paper varies it.

/// Instructions fetched per cycle, up to the first taken branch (§4.1).
pub const FETCH_WIDTH: u32 = 4;
/// Issue width per thread unit (§4.1).
pub const ISSUE_WIDTH: usize = 4;
/// Reorder-buffer entries per thread unit (§4.1).
pub const ROB_ENTRIES: usize = 64;
/// Physical registers per thread unit (§4.1): in-flight register-writing
/// instructions are limited to `PHYS_REGS - NUM_REGS` rename registers.
pub const PHYS_REGS: usize = 64;
/// Branch misprediction redirect penalty beyond resolution, in cycles.
/// §4.1 gives none; this is the model's choice.
pub const MISPREDICT_PENALTY: u64 = 3;
/// gshare global-history bits (§4.1).
pub const GSHARE_BITS: u32 = 10;
/// Refetch penalty after a memory-dependence violation squash, in cycles.
/// §4.1 gives none; this is the model's choice.
pub const SQUASH_PENALTY: u64 = 5;
/// L1 data cache capacity per thread unit, in bytes (§4.1: 32 KB).
pub const L1_SIZE_BYTES: usize = 32 * 1024;
/// L1 data cache associativity (§4.1).
pub const L1_WAYS: usize = 2;
/// L1 data cache block size, in bytes (§4.1).
pub const L1_BLOCK_BYTES: usize = 32;
/// L1 data cache hit latency, in cycles (§4.1).
pub const L1_HIT_LATENCY: u64 = 3;
/// L1 data cache miss latency, in cycles (§4.1).
pub const L1_MISS_LATENCY: u64 = 8;
/// Outstanding L1 misses (MSHRs) per thread unit (§4.1).
pub const L1_MSHRS: usize = 4;

/// Most thread units a [`SimConfig`] may ask for: the engine tracks free
/// units in one `u64` mask. The paper evaluates at most 16, the ablation
/// sweep at most 32.
pub const MAX_THREAD_UNITS: usize = 64;

const _: () = assert!(FETCH_WIDTH >= 1 && ISSUE_WIDTH >= 1 && ROB_ENTRIES >= 1);
const _: () = assert!(
    PHYS_REGS > specmt_isa::NUM_REGS,
    "the rename pool must reach beyond the architectural registers"
);
const _: () = assert!(GSHARE_BITS >= 1 && GSHARE_BITS <= 20);
const _: () = assert!(
    L1_WAYS >= 1 && L1_MSHRS >= 1 && L1_SIZE_BYTES >= L1_WAYS * L1_BLOCK_BYTES,
    "the cache must hold at least one set"
);
const _: () = assert!(
    L1_BLOCK_BYTES.is_power_of_two()
        && (L1_SIZE_BYTES / (L1_WAYS * L1_BLOCK_BYTES)).is_power_of_two(),
    "blocks and sets index with shifts and masks"
);

/// Full simulator configuration.
///
/// [`SimConfig::paper`] reproduces §4.1 with a given thread-unit count;
/// [`SimConfig::single_threaded`] is the sequential baseline every speed-up
/// in the paper is measured against.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Number of thread units (1 disables speculation entirely; at most
    /// [`MAX_THREAD_UNITS`]).
    pub thread_units: usize,
    /// Live-in value predictor.
    pub value_predictor: ValuePredictorKind,
    /// Value predictor storage budget in bytes (the paper uses 16 KB).
    pub predictor_budget: usize,
    /// Thread initialisation overhead charged to every spawned thread
    /// (§4.3.2 evaluates 8 cycles).
    pub init_overhead: u64,
    /// Latency of forwarding a register or memory value between thread
    /// units (3 cycles in the paper).
    pub forward_latency: u64,
    /// Dynamic spawning-pair removal (§4.2), or `None` to never remove.
    pub removal: Option<RemovalPolicy>,
    /// The reassign policy (Figure 6): on a blocked or removed best CQIP,
    /// fall back to the next-ranked candidate for the same spawning point.
    pub reassign: bool,
    /// Remove pairs whose committed threads are smaller than this
    /// (Figure 7b enforces 32).
    pub min_observed_size: Option<u32>,
    /// Deterministic fault injection for chaos testing (`None` = a faultless
    /// machine, the default).
    pub faults: Option<FaultPlan>,
    /// Aggregate a [`Metrics`](specmt_obs::Metrics) snapshot from the run's
    /// event stream onto `SimResult::metrics`. Off by default; observation
    /// never changes the simulated timing or statistics (a tested
    /// invariant).
    pub observe: bool,
}

impl Fingerprint for RemovalPolicy {
    fn fingerprint(&self, h: &mut FingerprintHasher) {
        h.struct_tag("RemovalPolicy");
        h.u64(self.alone_cycles);
        h.u64(u64::from(self.occurrences));
    }
}

/// The fingerprint covers every field that can alter simulated timing or
/// statistics — including `observe`, because the metrics snapshot rides on
/// the `SimResult` an entry stores, and `faults`, so chaos runs can never
/// alias a faultless entry — and the fixed machine constants, in the order
/// they were hashed when they were settable fields, so an edit to any of
/// them re-keys every result. The value-predictor kind is hashed as a stable
/// name (it is a foreign type, so it cannot implement [`Fingerprint`]
/// itself).
impl Fingerprint for SimConfig {
    fn fingerprint(&self, h: &mut FingerprintHasher) {
        // No `..`: a new field fails to compile until it is keyed here.
        let SimConfig {
            thread_units,
            value_predictor,
            predictor_budget,
            init_overhead,
            forward_latency,
            removal,
            reassign,
            min_observed_size,
            faults,
            observe,
        } = self;
        h.struct_tag("SimConfig");
        h.u64(*thread_units as u64);
        h.u64(u64::from(FETCH_WIDTH));
        h.u64(ISSUE_WIDTH as u64);
        h.u64(ROB_ENTRIES as u64);
        h.u64(PHYS_REGS as u64);
        h.u64(MISPREDICT_PENALTY);
        h.u64(u64::from(GSHARE_BITS));
        h.struct_tag("CacheConfig");
        h.u64(L1_SIZE_BYTES as u64);
        h.u64(L1_WAYS as u64);
        h.u64(L1_BLOCK_BYTES as u64);
        h.u64(L1_HIT_LATENCY);
        h.u64(L1_MISS_LATENCY);
        h.u64(L1_MSHRS as u64);
        h.str(match value_predictor {
            ValuePredictorKind::Perfect => "perfect",
            ValuePredictorKind::LastValue => "last-value",
            ValuePredictorKind::Stride => "stride",
            ValuePredictorKind::Fcm => "fcm",
            ValuePredictorKind::Hybrid => "hybrid",
            ValuePredictorKind::None => "none",
        });
        h.u64(*predictor_budget as u64);
        h.u64(*init_overhead);
        h.u64(*forward_latency);
        h.u64(SQUASH_PENALTY);
        removal.fingerprint(h);
        h.bool(*reassign);
        min_observed_size.fingerprint(h);
        faults.fingerprint(h);
        h.bool(*observe);
    }
}

impl SimConfig {
    /// The paper's §4.1 configuration with `thread_units` units, perfect
    /// value prediction, no init overhead and no removal — the Figure 3
    /// baseline setup. The rest of the machine is fixed: see
    /// [`FETCH_WIDTH`] and the constants beside it.
    pub fn paper(thread_units: usize) -> SimConfig {
        SimConfig {
            thread_units,
            value_predictor: ValuePredictorKind::Perfect,
            predictor_budget: specmt_predict::PAPER_BUDGET_BYTES,
            init_overhead: 0,
            forward_latency: 3,
            removal: None,
            reassign: false,
            min_observed_size: None,
            faults: None,
            observe: false,
        }
    }

    /// The sequential baseline: one thread unit, no speculation.
    pub fn single_threaded() -> SimConfig {
        SimConfig::paper(1)
    }

    /// Returns the configuration with a different value predictor.
    pub fn with_value_predictor(mut self, kind: ValuePredictorKind) -> SimConfig {
        self.value_predictor = kind;
        self
    }

    /// Returns the configuration with a thread-initialisation overhead.
    pub fn with_init_overhead(mut self, cycles: u64) -> SimConfig {
        self.init_overhead = cycles;
        self
    }

    /// Returns the configuration with a removal policy.
    pub fn with_removal(mut self, policy: RemovalPolicy) -> SimConfig {
        self.removal = Some(policy);
        self
    }

    /// Returns the configuration with a fault-injection plan.
    pub fn with_faults(mut self, plan: FaultPlan) -> SimConfig {
        self.faults = Some(plan);
        self
    }

    /// Returns the configuration with metrics aggregation on or off.
    pub fn with_observe(mut self, on: bool) -> SimConfig {
        self.observe = on;
        self
    }

    /// Returns the configuration with a sequence of [`ConfigDelta`]s
    /// applied in order.
    pub fn with_deltas(mut self, deltas: &[ConfigDelta]) -> SimConfig {
        for d in deltas {
            d.apply(&mut self);
        }
        self
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for zero thread units or more than
    /// [`MAX_THREAD_UNITS`], and [`SimError::InvalidFaultPlan`] for an
    /// out-of-range fault rate.
    pub fn validate(&self) -> Result<(), SimError> {
        if !(1..=MAX_THREAD_UNITS).contains(&self.thread_units) {
            return Err(SimError::invalid_config(format!(
                "need 1 to {MAX_THREAD_UNITS} thread units, got {}",
                self.thread_units
            )));
        }
        if let Some(plan) = &self.faults {
            plan.validate()?;
        }
        Ok(())
    }
}

/// One declarative modification to a [`SimConfig`].
///
/// Experiments are naturally described as a base configuration plus small
/// per-column deltas ("the paper machine, but with a stride predictor and an
/// 8-cycle init overhead"); this type makes that delta a value the bench
/// layer's experiment specs can store, compare and replay, instead of a
/// closure.
///
/// # Examples
///
/// ```
/// use specmt_sim::{ConfigDelta, RemovalPolicy, SimConfig};
///
/// let cfg = SimConfig::paper(16).with_deltas(&[
///     ConfigDelta::InitOverhead(8),
///     ConfigDelta::Removal(Some(RemovalPolicy::relaxed())),
///     ConfigDelta::MinObservedSize(Some(32)),
/// ]);
/// assert_eq!(cfg.init_overhead, 8);
/// assert_eq!(cfg.min_observed_size, Some(32));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum ConfigDelta {
    /// Set the thread-unit count.
    ThreadUnits(usize),
    /// Set the live-in value predictor.
    ValuePredictor(ValuePredictorKind),
    /// Set the value-predictor storage budget, in bytes.
    PredictorBudget(usize),
    /// Set the thread-initialisation overhead, in cycles.
    InitOverhead(u64),
    /// Set the inter-unit forward latency, in cycles.
    ForwardLatency(u64),
    /// Set (or clear) the dynamic pair-removal policy.
    Removal(Option<RemovalPolicy>),
    /// Enable or disable the reassign policy.
    Reassign(bool),
    /// Set (or clear) the minimum observed thread size.
    MinObservedSize(Option<u32>),
    /// Enable or disable event/metrics observation.
    Observe(bool),
}

impl ConfigDelta {
    /// Applies this delta to `config` in place.
    pub fn apply(&self, config: &mut SimConfig) {
        match *self {
            ConfigDelta::ThreadUnits(n) => config.thread_units = n,
            ConfigDelta::ValuePredictor(kind) => config.value_predictor = kind,
            ConfigDelta::PredictorBudget(bytes) => config.predictor_budget = bytes,
            ConfigDelta::InitOverhead(cycles) => config.init_overhead = cycles,
            ConfigDelta::ForwardLatency(cycles) => config.forward_latency = cycles,
            ConfigDelta::Removal(policy) => config.removal = policy,
            ConfigDelta::Reassign(on) => config.reassign = on,
            ConfigDelta::MinObservedSize(size) => config.min_observed_size = size,
            ConfigDelta::Observe(on) => config.observe = on,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_matches_section_4_1() {
        let c = SimConfig::paper(16);
        assert_eq!(c.thread_units, 16);
        assert_eq!((FETCH_WIDTH, ISSUE_WIDTH, ROB_ENTRIES), (4, 4, 64));
        assert_eq!((PHYS_REGS, GSHARE_BITS), (64, 10));
        let l1 = (L1_SIZE_BYTES, L1_WAYS, L1_BLOCK_BYTES);
        assert_eq!(l1, (32 * 1024, 2, 32));
        assert_eq!((L1_HIT_LATENCY, L1_MISS_LATENCY, L1_MSHRS), (3, 8, 4));
        assert_eq!(c.forward_latency, 3);
        assert_eq!(c.predictor_budget, 16 * 1024);
        c.validate().unwrap();
    }

    #[test]
    fn builders_compose() {
        let c = SimConfig::paper(4)
            .with_value_predictor(ValuePredictorKind::Stride)
            .with_init_overhead(8)
            .with_removal(RemovalPolicy::aggressive());
        assert_eq!(c.value_predictor, ValuePredictorKind::Stride);
        assert_eq!(c.init_overhead, 8);
        assert_eq!(c.removal.unwrap().alone_cycles, 50);
    }

    #[test]
    fn deltas_apply_in_order() {
        let cfg = SimConfig::paper(16).with_deltas(&[
            ConfigDelta::ThreadUnits(4),
            ConfigDelta::ValuePredictor(ValuePredictorKind::Stride),
            ConfigDelta::InitOverhead(8),
            ConfigDelta::InitOverhead(4), // later deltas win
            ConfigDelta::Removal(Some(RemovalPolicy::aggressive())),
            ConfigDelta::Removal(None),
            ConfigDelta::Reassign(true),
            ConfigDelta::ForwardLatency(6),
            ConfigDelta::PredictorBudget(1024),
            ConfigDelta::MinObservedSize(Some(32)),
            ConfigDelta::Observe(true),
        ]);
        assert_eq!(cfg.thread_units, 4);
        assert_eq!(cfg.value_predictor, ValuePredictorKind::Stride);
        assert_eq!(cfg.init_overhead, 4);
        assert_eq!(cfg.removal, None);
        assert!(cfg.reassign);
        assert_eq!(cfg.forward_latency, 6);
        assert_eq!(cfg.predictor_budget, 1024);
        assert_eq!(cfg.min_observed_size, Some(32));
        assert!(cfg.observe);
    }

    #[test]
    fn empty_delta_list_is_identity() {
        let base = SimConfig::paper(16);
        let same = base.clone().with_deltas(&[]);
        assert_eq!(same.thread_units, base.thread_units);
        assert_eq!(same.value_predictor, base.value_predictor);
        assert_eq!(same.init_overhead, base.init_overhead);
    }

    #[test]
    fn zero_units_invalid() {
        // And one past the engine's 64-bit free-unit mask.
        for n in [0, MAX_THREAD_UNITS + 1] {
            let err = SimConfig::paper(n).validate().unwrap_err();
            assert!(
                err.to_string().contains(&format!("thread units, got {n}")),
                "{err}"
            );
        }
    }

    #[test]
    fn bad_fault_plan_fails_validation() {
        let mut c = SimConfig::paper(4);
        c.faults = Some(crate::FaultPlan {
            squash_rate: 3.0,
            ..crate::FaultPlan::default()
        });
        assert!(matches!(
            c.validate(),
            Err(SimError::InvalidFaultPlan { .. })
        ));
    }
}
