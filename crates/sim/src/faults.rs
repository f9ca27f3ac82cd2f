//! Deterministic fault injection for chaos testing.
//!
//! A [`FaultPlan`] describes a seeded, reproducible storm of hardware
//! misbehaviour for one simulation run: spontaneous thread squashes, dropped
//! spawns, value-predictor corruption, cache-latency jitter and forced
//! spawning-pair removals. Every fault decision is drawn from a single
//! splitmix64 stream owned by the engine, so the same plan over the same
//! trace produces bit-identical results — the crash (or, rather, the
//! *absence* of one) is always replayable from the seed.
//!
//! Faults only perturb *timing and policy* decisions, never the committed
//! architectural stream: a squashed child simply never detaches its window,
//! a corrupted prediction costs a forwarding stall, jitter delays a load.
//! The engine's post-run audit (see [`SimError`](crate::SimError)) therefore
//! must still hold under any plan; the chaos suite exercises exactly that.

use crate::SimError;

/// A seeded fault-injection plan.
///
/// All rates are probabilities in `[0, 1]` applied per opportunity; `0`
/// disables the corresponding fault. The default plan injects nothing.
///
/// # Examples
///
/// ```
/// use specmt_sim::FaultPlan;
///
/// let plan = FaultPlan::parse("seed=7,squash=0.05,jitter=4")?;
/// assert_eq!(plan.seed, 7);
/// assert_eq!(plan.cache_jitter, 4);
/// assert!(plan.is_active());
/// # Ok::<(), specmt_sim::SimError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultPlan {
    /// Seed of the fault stream; same seed, same faults.
    pub seed: u64,
    /// Probability that a successful spawn is spontaneously squashed (the
    /// child burns its unit until the spawner joins, like a control
    /// misspeculation).
    pub squash_rate: f64,
    /// Probability that a spawn opportunity is dropped outright before any
    /// candidate is considered.
    pub drop_spawn_rate: f64,
    /// Probability that a realistic value-predictor guess is corrupted
    /// before it is compared against the architectural value.
    pub corrupt_value_rate: f64,
    /// Maximum extra cycles added to each load's cache latency (a uniform
    /// draw in `0..=cache_jitter`; 0 disables jitter).
    pub cache_jitter: u64,
    /// Probability that a retiring thread's pair is forcibly removed, as if
    /// a dynamic policy had condemned it.
    pub remove_pair_rate: f64,
}

serde::impl_serde_struct!(FaultPlan {
    seed,
    squash_rate,
    drop_spawn_rate,
    corrupt_value_rate,
    cache_jitter,
    remove_pair_rate,
});

impl specmt_store::Fingerprint for FaultPlan {
    fn fingerprint(&self, h: &mut specmt_store::FingerprintHasher) {
        h.struct_tag("FaultPlan");
        h.u64(self.seed);
        h.f64(self.squash_rate);
        h.f64(self.drop_spawn_rate);
        h.f64(self.corrupt_value_rate);
        h.u64(self.cache_jitter);
        h.f64(self.remove_pair_rate);
    }
}

impl FaultPlan {
    /// An inactive plan carrying only a seed (useful as a parse/merge base).
    pub fn with_seed(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Whether any fault can actually fire.
    pub fn is_active(&self) -> bool {
        self.squash_rate > 0.0
            || self.drop_spawn_rate > 0.0
            || self.corrupt_value_rate > 0.0
            || self.cache_jitter > 0
            || self.remove_pair_rate > 0.0
    }

    /// Checks every rate is a probability.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidFaultPlan`] for a rate outside `[0, 1]`
    /// or a non-finite rate.
    pub fn validate(&self) -> Result<(), SimError> {
        for (name, rate) in [
            ("squash", self.squash_rate),
            ("drop", self.drop_spawn_rate),
            ("corrupt", self.corrupt_value_rate),
            ("remove", self.remove_pair_rate),
        ] {
            if !rate.is_finite() || !(0.0..=1.0).contains(&rate) {
                return Err(SimError::invalid_fault_plan(format!(
                    "rate `{name}` is {rate}, expected a probability in [0, 1]"
                )));
            }
        }
        Ok(())
    }

    /// Parses the CLI spec format: comma-separated `key=value` entries with
    /// keys `seed`, `squash`, `drop`, `corrupt`, `jitter` and `remove`, e.g.
    /// `seed=42,squash=0.01,drop=0.02,corrupt=0.1,jitter=3,remove=0.005`.
    /// Omitted keys stay at their inactive defaults.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidFaultPlan`] for malformed entries, unknown
    /// keys, unparsable numbers or out-of-range rates.
    pub fn parse(spec: &str) -> Result<FaultPlan, SimError> {
        let mut plan = FaultPlan::default();
        for entry in spec.split(',') {
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            let Some((key, value)) = entry.split_once('=') else {
                return Err(SimError::invalid_fault_plan(format!(
                    "entry `{entry}` is not key=value"
                )));
            };
            let (key, value) = (key.trim(), value.trim());
            let rate = |v: &str| {
                v.parse::<f64>()
                    .map_err(|_| SimError::invalid_fault_plan(format!("`{key}={v}`: not a number")))
            };
            match key {
                "seed" => {
                    plan.seed = value.parse().map_err(|_| {
                        SimError::invalid_fault_plan(format!(
                            "`seed={value}`: not an unsigned integer"
                        ))
                    })?;
                }
                "jitter" => {
                    plan.cache_jitter = value.parse().map_err(|_| {
                        SimError::invalid_fault_plan(format!(
                            "`jitter={value}`: not an unsigned integer"
                        ))
                    })?;
                }
                "squash" => plan.squash_rate = rate(value)?,
                "drop" => plan.drop_spawn_rate = rate(value)?,
                "corrupt" => plan.corrupt_value_rate = rate(value)?,
                "remove" => plan.remove_pair_rate = rate(value)?,
                other => {
                    return Err(SimError::invalid_fault_plan(format!(
                        "unknown key `{other}` (expected seed, squash, drop, corrupt, jitter \
                         or remove)"
                    )));
                }
            }
        }
        plan.validate()?;
        Ok(plan)
    }
}

/// The engine's fault decision stream: a splitmix64 generator drawing every
/// roll in a fixed order, so runs are reproducible from the plan alone.
#[derive(Debug, Clone)]
pub(crate) struct FaultInjector {
    plan: FaultPlan,
    state: u64,
}

impl FaultInjector {
    pub(crate) fn new(plan: FaultPlan) -> FaultInjector {
        FaultInjector {
            plan,
            // Decorrelate nearby seeds before the first draw.
            state: plan.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x5851_f42d_4c95_7f2d,
        }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// One Bernoulli draw. A zero rate consumes no randomness so inactive
    /// fault classes never perturb the stream of active ones.
    fn roll(&mut self, rate: f64) -> bool {
        if rate <= 0.0 {
            return false;
        }
        let unit = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        unit < rate
    }

    pub(crate) fn roll_drop_spawn(&mut self) -> bool {
        let r = self.plan.drop_spawn_rate;
        self.roll(r)
    }

    pub(crate) fn roll_squash(&mut self) -> bool {
        let r = self.plan.squash_rate;
        self.roll(r)
    }

    pub(crate) fn roll_corrupt_value(&mut self) -> bool {
        let r = self.plan.corrupt_value_rate;
        self.roll(r)
    }

    pub(crate) fn roll_remove_pair(&mut self) -> bool {
        let r = self.plan.remove_pair_rate;
        self.roll(r)
    }

    /// Extra load latency in `0..=cache_jitter` (0 when jitter is off).
    pub(crate) fn jitter(&mut self) -> u64 {
        if self.plan.cache_jitter == 0 {
            return 0;
        }
        self.next_u64() % (self.plan.cache_jitter + 1)
    }

    /// A non-zero delta used to corrupt a predicted value.
    pub(crate) fn corruption(&mut self) -> u64 {
        self.next_u64() | 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_inactive_and_valid() {
        let p = FaultPlan::default();
        assert!(!p.is_active());
        p.validate().unwrap();
    }

    #[test]
    fn parse_full_spec() {
        let p =
            FaultPlan::parse("seed=42, squash=0.01,drop=0.02,corrupt=0.1,jitter=3,remove=0.005")
                .unwrap();
        assert_eq!(p.seed, 42);
        assert_eq!(p.squash_rate, 0.01);
        assert_eq!(p.drop_spawn_rate, 0.02);
        assert_eq!(p.corrupt_value_rate, 0.1);
        assert_eq!(p.cache_jitter, 3);
        assert_eq!(p.remove_pair_rate, 0.005);
        assert!(p.is_active());
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in [
            "seed",
            "seed=abc",
            "squash=2.0",
            "squash=-0.1",
            "squash=NaN",
            "wibble=1",
            "jitter=-3",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "`{bad}` should not parse");
        }
    }

    #[test]
    fn parse_empty_is_inactive() {
        let p = FaultPlan::parse("").unwrap();
        assert!(!p.is_active());
    }

    #[test]
    fn injector_is_deterministic() {
        let plan = FaultPlan {
            seed: 9,
            squash_rate: 0.5,
            cache_jitter: 7,
            ..FaultPlan::default()
        };
        let mut a = FaultInjector::new(plan);
        let mut b = FaultInjector::new(plan);
        for _ in 0..1000 {
            assert_eq!(a.roll_squash(), b.roll_squash());
            assert_eq!(a.jitter(), b.jitter());
        }
    }

    #[test]
    fn rates_are_roughly_honoured() {
        let plan = FaultPlan {
            seed: 1,
            drop_spawn_rate: 0.25,
            ..FaultPlan::default()
        };
        let mut inj = FaultInjector::new(plan);
        let hits = (0..10_000).filter(|_| inj.roll_drop_spawn()).count();
        assert!((2000..3000).contains(&hits), "{hits}");
    }

    #[test]
    fn jitter_stays_in_range() {
        let mut inj = FaultInjector::new(FaultPlan {
            seed: 3,
            cache_jitter: 5,
            ..FaultPlan::default()
        });
        for _ in 0..1000 {
            assert!(inj.jitter() <= 5);
        }
    }

    #[test]
    fn zero_rates_consume_no_randomness() {
        let active = FaultPlan {
            seed: 4,
            squash_rate: 0.5,
            ..FaultPlan::default()
        };
        let mut a = FaultInjector::new(active);
        let mut b = FaultInjector::new(active);
        // Interleaving disabled rolls must not shift the active stream.
        let seq_a: Vec<bool> = (0..100).map(|_| a.roll_squash()).collect();
        let seq_b: Vec<bool> = (0..100)
            .map(|_| {
                let _ = b.roll_drop_spawn();
                let _ = b.roll_remove_pair();
                b.roll_squash()
            })
            .collect();
        assert_eq!(seq_a, seq_b);
    }
}
