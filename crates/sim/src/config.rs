//! Simulator configuration.

use specmt_predict::ValuePredictorKind;
use specmt_store::{Fingerprint, FingerprintHasher};

use crate::{FaultPlan, SimError};

/// First-level data cache parameters (per thread unit).
///
/// Defaults are the paper's: 32 KB, 2-way, 32-byte blocks, 3-cycle hits,
/// 8-cycle misses, up to 4 outstanding misses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Associativity.
    pub ways: usize,
    /// Block size in bytes.
    pub block_bytes: usize,
    /// Hit latency in cycles.
    pub hit_latency: u64,
    /// Miss latency in cycles.
    pub miss_latency: u64,
    /// Maximum outstanding misses (MSHRs).
    pub mshrs: usize,
}

impl Default for CacheConfig {
    fn default() -> CacheConfig {
        CacheConfig {
            size_bytes: 32 * 1024,
            ways: 2,
            block_bytes: 32,
            hit_latency: 3,
            miss_latency: 8,
            mshrs: 4,
        }
    }
}

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

/// Full simulator configuration.
///
/// [`SimConfig::paper`] reproduces §4.1 with a given thread-unit count;
/// [`SimConfig::single_threaded`] is the sequential baseline every speed-up
/// in the paper is measured against.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Number of thread units (1 disables speculation entirely).
    pub thread_units: usize,
    /// Instructions fetched per cycle (up to the first taken branch).
    pub fetch_width: u32,
    /// Issue width per thread unit.
    pub issue_width: usize,
    /// Reorder-buffer entries per thread unit.
    pub rob_entries: usize,
    /// Physical registers per thread unit (§4.1 lists 64): in-flight
    /// register-writing instructions are limited to
    /// `phys_regs - NUM_REGS` rename registers.
    pub phys_regs: usize,
    /// Branch misprediction redirect penalty beyond resolution, in cycles.
    pub mispredict_penalty: u64,
    /// gshare history bits (the paper uses 10).
    pub gshare_bits: u32,
    /// L1 data cache configuration.
    pub cache: CacheConfig,
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
    /// Refetch penalty after a memory-dependence violation squash.
    pub squash_penalty: u64,
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

impl Fingerprint for CacheConfig {
    fn fingerprint(&self, h: &mut FingerprintHasher) {
        h.struct_tag("CacheConfig");
        h.u64(self.size_bytes as u64);
        h.u64(self.ways as u64);
        h.u64(self.block_bytes as u64);
        h.u64(self.hit_latency);
        h.u64(self.miss_latency);
        h.u64(self.mshrs as u64);
    }
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
/// alias a faultless entry. The value-predictor kind is hashed as a stable
/// name (it is a foreign type, so it cannot implement [`Fingerprint`]
/// itself).
impl Fingerprint for SimConfig {
    fn fingerprint(&self, h: &mut FingerprintHasher) {
        h.struct_tag("SimConfig");
        h.u64(self.thread_units as u64);
        h.u64(u64::from(self.fetch_width));
        h.u64(self.issue_width as u64);
        h.u64(self.rob_entries as u64);
        h.u64(self.phys_regs as u64);
        h.u64(self.mispredict_penalty);
        h.u64(u64::from(self.gshare_bits));
        self.cache.fingerprint(h);
        h.str(match self.value_predictor {
            ValuePredictorKind::Perfect => "perfect",
            ValuePredictorKind::LastValue => "last-value",
            ValuePredictorKind::Stride => "stride",
            ValuePredictorKind::Fcm => "fcm",
            ValuePredictorKind::Hybrid => "hybrid",
            ValuePredictorKind::None => "none",
        });
        h.u64(self.predictor_budget as u64);
        h.u64(self.init_overhead);
        h.u64(self.forward_latency);
        h.u64(self.squash_penalty);
        self.removal.fingerprint(h);
        h.bool(self.reassign);
        self.min_observed_size.fingerprint(h);
        self.faults.fingerprint(h);
        h.bool(self.observe);
    }
}

impl SimConfig {
    /// The paper's §4.1 configuration with `thread_units` units, perfect
    /// value prediction, no init overhead and no removal — the Figure 3
    /// baseline setup.
    pub fn paper(thread_units: usize) -> SimConfig {
        SimConfig {
            thread_units,
            fetch_width: 4,
            issue_width: 4,
            rob_entries: 64,
            phys_regs: 64,
            mispredict_penalty: 3,
            gshare_bits: 10,
            cache: CacheConfig::default(),
            value_predictor: ValuePredictorKind::Perfect,
            predictor_budget: specmt_predict::PAPER_BUDGET_BYTES,
            init_overhead: 0,
            forward_latency: 3,
            squash_penalty: 5,
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
    /// Returns [`SimError::InvalidConfig`] if any width or size is zero (or
    /// the rename pool cannot cover the architectural file), and
    /// [`SimError::InvalidFaultPlan`] for an out-of-range fault rate.
    pub fn validate(&self) -> Result<(), SimError> {
        let bad = SimError::invalid_config;
        if self.thread_units < 1 {
            return Err(bad("need at least one thread unit"));
        }
        if self.fetch_width < 1 {
            return Err(bad("fetch width must be positive"));
        }
        if self.issue_width < 1 {
            return Err(bad("issue width must be positive"));
        }
        if self.rob_entries < 1 {
            return Err(bad("rob must hold at least one entry"));
        }
        if self.phys_regs <= specmt_isa::NUM_REGS {
            return Err(SimError::invalid_config(format!(
                "{} physical registers cannot rename beyond the {} architectural ones",
                self.phys_regs,
                specmt_isa::NUM_REGS
            )));
        }
        if self.cache.ways < 1 || self.cache.block_bytes < 8 {
            return Err(bad("cache needs >= 1 way and >= 8-byte blocks"));
        }
        if self.cache.size_bytes < self.cache.ways * self.cache.block_bytes {
            return Err(bad("cache must hold at least one set"));
        }
        if self.cache.mshrs < 1 {
            return Err(bad("cache needs at least one MSHR"));
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
        assert_eq!(c.fetch_width, 4);
        assert_eq!(c.issue_width, 4);
        assert_eq!(c.rob_entries, 64);
        assert_eq!(c.phys_regs, 64);
        assert_eq!(c.gshare_bits, 10);
        assert_eq!(c.cache.size_bytes, 32 * 1024);
        assert_eq!(c.cache.ways, 2);
        assert_eq!(c.cache.block_bytes, 32);
        assert_eq!(c.cache.hit_latency, 3);
        assert_eq!(c.cache.miss_latency, 8);
        assert_eq!(c.cache.mshrs, 4);
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
        let mut c = SimConfig::paper(4);
        c.thread_units = 0;
        let err = c.validate().unwrap_err();
        assert!(err.to_string().contains("thread unit"), "{err}");
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
