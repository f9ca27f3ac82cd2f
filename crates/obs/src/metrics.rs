//! Fixed-slot counters and histograms aggregated from the event stream.

use crate::{Event, EventSink, FaultKind, GateReason, SquashReason};

/// Running state of one histogram: count/sum/min/max plus power-of-two
/// buckets (`buckets[i]` counts observations in `[2^i, 2^(i+1))`, with 0
/// clamped into bucket 0 — the same bucketing `SimResult` uses for thread
/// sizes).
#[derive(Debug, Clone, Default, PartialEq)]
struct Histogram {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: Vec<u64>,
}

impl Histogram {
    fn observe(&mut self, value: u64) {
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum += value;
        let bucket = (63 - value.max(1).leading_zeros()) as usize;
        if self.buckets.len() <= bucket {
            self.buckets.resize(bucket + 1, 0);
        }
        self.buckets[bucket] += 1;
    }

    fn snapshot(&self, name: &str) -> HistogramSnapshot {
        HistogramSnapshot {
            name: name.to_string(),
            count: self.count,
            sum: self.sum,
            min: self.min,
            max: self.max,
            buckets: self.buckets.clone(),
        }
    }
}

/// Number of counter slots in a [`MetricsRegistry`].
const SLOTS: usize = 20;

/// One counter slot of a [`MetricsRegistry`]: the discriminant indexes the
/// registry's counter array and its bit in the touched mask.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    ThreadsSpawned,
    SpeculativeSpawns,
    ThreadsSquashed,
    ThreadsCommitted,
    Violations,
    CacheHits,
    CacheMisses,
    SpawnsGated,
    PairsDemoted,
    FaultsInjected,
    FaultJitterCycles,
    SquashedControlMisspeculation,
    SquashedInjectedFault,
    GatedLowConfidence,
    GatedDemoted,
    FaultDroppedSpawns,
    FaultForcedSquashes,
    FaultCorruptedValues,
    FaultCacheJitters,
    FaultForcedRemovals,
}

impl Slot {
    /// Every slot, in discriminant order.
    const ALL: [Slot; SLOTS] = [
        Slot::ThreadsSpawned,
        Slot::SpeculativeSpawns,
        Slot::ThreadsSquashed,
        Slot::ThreadsCommitted,
        Slot::Violations,
        Slot::CacheHits,
        Slot::CacheMisses,
        Slot::SpawnsGated,
        Slot::PairsDemoted,
        Slot::FaultsInjected,
        Slot::FaultJitterCycles,
        Slot::SquashedControlMisspeculation,
        Slot::SquashedInjectedFault,
        Slot::GatedLowConfidence,
        Slot::GatedDemoted,
        Slot::FaultDroppedSpawns,
        Slot::FaultForcedSquashes,
        Slot::FaultCorruptedValues,
        Slot::FaultCacheJitters,
        Slot::FaultForcedRemovals,
    ];

    /// The slot counting squashes for `reason`.
    fn squashed(reason: SquashReason) -> Slot {
        match reason {
            SquashReason::ControlMisspeculation => Slot::SquashedControlMisspeculation,
            SquashReason::InjectedFault => Slot::SquashedInjectedFault,
        }
    }

    /// The slot counting gated spawns for `reason`.
    fn gated(reason: GateReason) -> Slot {
        match reason {
            GateReason::LowConfidence => Slot::GatedLowConfidence,
            GateReason::Demoted => Slot::GatedDemoted,
        }
    }

    /// The slot counting injected faults of `kind`.
    fn fault(kind: FaultKind) -> Slot {
        match kind {
            FaultKind::DroppedSpawn => Slot::FaultDroppedSpawns,
            FaultKind::ForcedSquash => Slot::FaultForcedSquashes,
            FaultKind::CorruptedValue => Slot::FaultCorruptedValues,
            FaultKind::CacheJitter { .. } => Slot::FaultCacheJitters,
            FaultKind::ForcedRemoval => Slot::FaultForcedRemovals,
        }
    }

    /// The counter name the slot is snapshotted under. Reason and fault
    /// slots take theirs from the `counter()` of the kind they count.
    fn name(self) -> &'static str {
        match self {
            Slot::ThreadsSpawned => "threads_spawned",
            Slot::SpeculativeSpawns => "speculative_spawns",
            Slot::ThreadsSquashed => "threads_squashed",
            Slot::ThreadsCommitted => "threads_committed",
            Slot::Violations => "violations",
            Slot::CacheHits => "cache_hits",
            Slot::CacheMisses => "cache_misses",
            Slot::SpawnsGated => "spawns_gated",
            Slot::PairsDemoted => "pairs_demoted",
            Slot::FaultsInjected => "faults_injected",
            Slot::FaultJitterCycles => "fault_jitter_cycles",
            Slot::SquashedControlMisspeculation => SquashReason::ControlMisspeculation.counter(),
            Slot::SquashedInjectedFault => SquashReason::InjectedFault.counter(),
            Slot::GatedLowConfidence => GateReason::LowConfidence.counter(),
            Slot::GatedDemoted => GateReason::Demoted.counter(),
            Slot::FaultDroppedSpawns => FaultKind::DroppedSpawn.counter(),
            Slot::FaultForcedSquashes => FaultKind::ForcedSquash.counter(),
            Slot::FaultCorruptedValues => FaultKind::CorruptedValue.counter(),
            Slot::FaultCacheJitters => FaultKind::CacheJitter { cycles: 0 }.counter(),
            Slot::FaultForcedRemovals => FaultKind::ForcedRemoval.counter(),
        }
    }
}

/// A registry of fixed counter slots and histograms that doubles as an
/// [`EventSink`]: feed it the engine's event stream (directly, or by
/// setting `SimConfig::observe`) and it aggregates the standard metric set
/// — thread lifecycle counts, squash reasons, fault counts, cache hit/miss,
/// threads-in-flight peak, and thread-size / spawn-to-commit-latency
/// histograms.
///
/// Every counter is a slot of one fixed array, so recording an event is a
/// few array increments with no lookup and no allocation. A bitmask
/// remembers which slots were ever touched:
/// [`snapshot`](MetricsRegistry::snapshot) emits only those (plus the two
/// in-flight counters), and each histogram only once it has observed a
/// value, so a snapshot lists exactly the metrics the run produced.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: [u64; SLOTS],
    /// Bit `i` is set once slot `i` has been added to.
    touched: u32,
    thread_size: Histogram,
    spawn_to_commit_cycles: Histogram,
    in_flight: u64,
    in_flight_peak: u64,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    #[inline]
    fn add(&mut self, slot: Slot, delta: u64) {
        self.counters[slot as usize] += delta;
        self.touched |= 1 << slot as u32;
    }

    /// Freeze the registry into an owned, serialisable snapshot.
    ///
    /// Two bookkeeping counters are materialised at snapshot time:
    /// `threads_in_flight` (threads spawned but not yet retired — zero for
    /// any run that drained) and `threads_in_flight_peak`.
    pub fn snapshot(&self) -> Metrics {
        let mut counters: Vec<CounterSnapshot> = Slot::ALL
            .iter()
            .filter(|&&slot| self.touched & (1 << slot as u32) != 0)
            .map(|&slot| CounterSnapshot {
                name: slot.name().to_string(),
                value: self.counters[slot as usize],
            })
            .collect();
        counters.push(CounterSnapshot {
            name: "threads_in_flight".to_string(),
            value: self.in_flight,
        });
        counters.push(CounterSnapshot {
            name: "threads_in_flight_peak".to_string(),
            value: self.in_flight_peak,
        });
        counters.sort_by(|a, b| a.name.cmp(&b.name));
        // Listed in name order; both are observed on every commit.
        let histograms = [
            ("spawn_to_commit_cycles", &self.spawn_to_commit_cycles),
            ("thread_size", &self.thread_size),
        ]
        .into_iter()
        .filter(|(_, h)| h.count > 0)
        .map(|(name, h)| h.snapshot(name))
        .collect();
        Metrics {
            counters,
            histograms,
        }
    }
}

impl EventSink for MetricsRegistry {
    #[inline]
    fn record(&mut self, event: &Event) {
        match *event {
            Event::ThreadSpawned { speculative, .. } => {
                self.add(Slot::ThreadsSpawned, 1);
                if speculative {
                    self.add(Slot::SpeculativeSpawns, 1);
                }
                self.in_flight += 1;
                self.in_flight_peak = self.in_flight_peak.max(self.in_flight);
            }
            Event::ThreadSquashed { reason, .. } => {
                self.add(Slot::ThreadsSquashed, 1);
                self.add(Slot::squashed(reason), 1);
                self.in_flight = self.in_flight.saturating_sub(1);
            }
            Event::ThreadCommitted {
                cycle,
                spawn_cycle,
                size,
                ..
            } => {
                self.add(Slot::ThreadsCommitted, 1);
                self.thread_size.observe(size);
                self.spawn_to_commit_cycles
                    .observe(cycle.saturating_sub(spawn_cycle));
                self.in_flight = self.in_flight.saturating_sub(1);
            }
            Event::ViolationDetected { .. } => self.add(Slot::Violations, 1),
            Event::CacheAccess { hit, .. } => {
                self.add(
                    if hit {
                        Slot::CacheHits
                    } else {
                        Slot::CacheMisses
                    },
                    1,
                );
            }
            Event::SpawnGated { reason, .. } => {
                self.add(Slot::SpawnsGated, 1);
                self.add(Slot::gated(reason), 1);
            }
            Event::PairDemoted { .. } => self.add(Slot::PairsDemoted, 1),
            Event::FaultInjected { kind, .. } => {
                self.add(Slot::FaultsInjected, 1);
                self.add(Slot::fault(kind), 1);
                if let FaultKind::CacheJitter { cycles } = kind {
                    self.add(Slot::FaultJitterCycles, cycles);
                }
            }
        }
    }
}

/// One counter in a [`Metrics`] snapshot.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CounterSnapshot {
    /// Counter name (snake_case, stable across versions).
    pub name: String,
    /// Accumulated value.
    pub value: u64,
}

serde::impl_serde_struct!(CounterSnapshot { name, value });

/// One histogram in a [`Metrics`] snapshot.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HistogramSnapshot {
    /// Histogram name (snake_case, stable across versions).
    pub name: String,
    /// Number of observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Smallest observed value (zero when empty).
    pub min: u64,
    /// Largest observed value (zero when empty).
    pub max: u64,
    /// Power-of-two buckets: `buckets[i]` counts values in
    /// `[2^i, 2^(i+1))`, with 0 clamped into bucket 0.
    pub buckets: Vec<u64>,
}

serde::impl_serde_struct!(HistogramSnapshot {
    name,
    count,
    sum,
    min,
    max,
    buckets
});

impl HistogramSnapshot {
    /// Mean observed value, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// A frozen, serialisable snapshot of a [`MetricsRegistry`]. Carried on
/// `SimResult::metrics` when `SimConfig::observe` is set.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics {
    /// All counters, sorted by name.
    pub counters: Vec<CounterSnapshot>,
    /// All histograms, sorted by name.
    pub histograms: Vec<HistogramSnapshot>,
}

serde::impl_serde_struct!(Metrics {
    counters,
    histograms
});

impl Metrics {
    /// Value of a counter (zero if absent from the snapshot).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map_or(0, |c| c.value)
    }

    /// Look up a histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_powers_of_two() {
        let mut h = Histogram::default();
        for v in [0, 1, 2, 3, 4, 7, 8, 1024] {
            h.observe(v);
        }
        assert_eq!(h.count, 8);
        assert_eq!(h.sum, 1049);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 1024);
        // 0 and 1 -> bucket 0; 2,3 -> bucket 1; 4,7 -> bucket 2; 8 -> 3; 1024 -> 10.
        assert_eq!(h.buckets[0], 2);
        assert_eq!(h.buckets[1], 2);
        assert_eq!(h.buckets[2], 2);
        assert_eq!(h.buckets[3], 1);
        assert_eq!(h.buckets[10], 1);
        assert_eq!(h.buckets.iter().sum::<u64>(), h.count);
    }

    #[test]
    fn registry_folds_lifecycle_events() {
        let mut reg = MetricsRegistry::new();
        reg.record(&Event::ThreadSpawned {
            thread: 0,
            unit: 0,
            cycle: 0,
            speculative: false,
        });
        reg.record(&Event::ThreadSpawned {
            thread: 1,
            unit: 1,
            cycle: 4,
            speculative: true,
        });
        reg.record(&Event::ThreadSpawned {
            thread: 2,
            unit: 2,
            cycle: 6,
            speculative: true,
        });
        reg.record(&Event::ThreadSquashed {
            thread: 2,
            unit: 2,
            cycle: 9,
            reason: SquashReason::ControlMisspeculation,
        });
        reg.record(&Event::ThreadCommitted {
            thread: 0,
            unit: 0,
            cycle: 20,
            spawn_cycle: 0,
            size: 32,
        });
        reg.record(&Event::ThreadCommitted {
            thread: 1,
            unit: 1,
            cycle: 30,
            spawn_cycle: 4,
            size: 16,
        });
        reg.record(&Event::CacheAccess {
            thread: 0,
            unit: 0,
            cycle: 3,
            hit: true,
        });
        reg.record(&Event::CacheAccess {
            thread: 0,
            unit: 0,
            cycle: 5,
            hit: false,
        });
        reg.record(&Event::FaultInjected {
            thread: 1,
            unit: 1,
            cycle: 5,
            kind: FaultKind::CacheJitter { cycles: 4 },
        });
        reg.record(&Event::SpawnGated {
            thread: 0,
            unit: 0,
            cycle: 7,
            reason: GateReason::LowConfidence,
        });
        reg.record(&Event::SpawnGated {
            thread: 0,
            unit: 0,
            cycle: 8,
            reason: GateReason::Demoted,
        });
        reg.record(&Event::PairDemoted {
            thread: 2,
            unit: 2,
            cycle: 9,
            sp: 3,
            cqip: 8,
        });

        let m = reg.snapshot();
        assert_eq!(m.counter("threads_spawned"), 3);
        assert_eq!(m.counter("speculative_spawns"), 2);
        assert_eq!(m.counter("threads_committed"), 2);
        assert_eq!(m.counter("threads_squashed"), 1);
        assert_eq!(m.counter("squashed_control_misspeculation"), 1);
        assert_eq!(m.counter("cache_hits"), 1);
        assert_eq!(m.counter("cache_misses"), 1);
        assert_eq!(m.counter("faults_injected"), 1);
        assert_eq!(m.counter("fault_cache_jitters"), 1);
        assert_eq!(m.counter("fault_jitter_cycles"), 4);
        assert_eq!(m.counter("spawns_gated"), 2);
        assert_eq!(m.counter("gated_low_confidence"), 1);
        assert_eq!(m.counter("gated_demoted"), 1);
        assert_eq!(m.counter("pairs_demoted"), 1);
        assert_eq!(m.counter("threads_in_flight"), 0);
        assert_eq!(m.counter("threads_in_flight_peak"), 3);
        let sizes = m.histogram("thread_size").expect("histogram");
        assert_eq!(sizes.count, 2);
        assert_eq!(sizes.sum, 48);
        let lat = m.histogram("spawn_to_commit_cycles").expect("histogram");
        assert_eq!(lat.count, 2);
        assert_eq!(lat.sum, 46); // 20 + 26
        assert!((lat.mean() - 23.0).abs() < 1e-12);
    }

    #[test]
    fn snapshot_lists_only_what_the_run_produced() {
        let names = |m: &Metrics| {
            m.counters
                .iter()
                .map(|c| c.name.clone())
                .collect::<Vec<_>>()
        };
        let mut reg = MetricsRegistry::new();
        let empty = reg.snapshot();
        assert_eq!(
            names(&empty),
            ["threads_in_flight", "threads_in_flight_peak"]
        );
        assert!(empty.histograms.is_empty());

        reg.record(&Event::ThreadSpawned {
            thread: 0,
            unit: 0,
            cycle: 0,
            speculative: false,
        });
        reg.record(&Event::CacheAccess {
            thread: 0,
            unit: 0,
            cycle: 1,
            hit: false,
        });
        let m = reg.snapshot();
        // Never-touched counters (speculative_spawns, cache_hits, ...) stay
        // absent, and no histogram exists before the first commit.
        assert_eq!(
            names(&m),
            [
                "cache_misses",
                "threads_in_flight",
                "threads_in_flight_peak",
                "threads_spawned"
            ]
        );
        assert!(m.histograms.is_empty());

        reg.record(&Event::FaultInjected {
            thread: 0,
            unit: 0,
            cycle: 2,
            kind: FaultKind::CorruptedValue,
        });
        assert!(!names(&reg.snapshot()).contains(&"fault_jitter_cycles".to_string()));
        reg.record(&Event::FaultInjected {
            thread: 0,
            unit: 0,
            cycle: 3,
            kind: FaultKind::CacheJitter { cycles: 0 },
        });
        let m = reg.snapshot();
        assert!(
            names(&m).contains(&"fault_jitter_cycles".to_string()),
            "touched at zero"
        );
        assert_eq!(m.counter("fault_jitter_cycles"), 0);

        reg.record(&Event::ThreadCommitted {
            thread: 0,
            unit: 0,
            cycle: 9,
            spawn_cycle: 0,
            size: 4,
        });
        let m = reg.snapshot();
        let hist: Vec<&str> = m.histograms.iter().map(|h| h.name.as_str()).collect();
        assert_eq!(hist, ["spawn_to_commit_cycles", "thread_size"]);
        let mut sorted = names(&m);
        sorted.sort();
        assert_eq!(names(&m), sorted, "counters are sorted by name");
    }

    #[test]
    fn slot_names_match_the_event_kinds() {
        for reason in SquashReason::ALL {
            assert_eq!(Slot::squashed(reason).name(), reason.counter());
        }
        for reason in GateReason::ALL {
            assert_eq!(Slot::gated(reason).name(), reason.counter());
        }
        let faults = [
            FaultKind::DroppedSpawn,
            FaultKind::ForcedSquash,
            FaultKind::CorruptedValue,
            FaultKind::CacheJitter { cycles: 7 },
            FaultKind::ForcedRemoval,
        ];
        for kind in faults {
            assert_eq!(Slot::fault(kind).name(), kind.counter());
        }
        // Every slot sits at its own index with its own name.
        for (i, slot) in Slot::ALL.iter().enumerate() {
            assert_eq!(*slot as usize, i);
        }
        let mut names: Vec<&str> = Slot::ALL.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), SLOTS);
        assert!(SLOTS <= u32::BITS as usize, "touched mask holds every slot");
    }

    #[test]
    fn snapshot_round_trips_through_serde() {
        let mut reg = MetricsRegistry::new();
        reg.record(&Event::ThreadSpawned {
            thread: 0,
            unit: 0,
            cycle: 0,
            speculative: false,
        });
        reg.record(&Event::ThreadCommitted {
            thread: 0,
            unit: 0,
            cycle: 11,
            spawn_cycle: 0,
            size: 5,
        });
        let m = reg.snapshot();
        let s = serde_json::to_string(&m).expect("serialize");
        let back: Metrics = serde_json::from_str(&s).expect("deserialize");
        assert_eq!(m, back);
    }
}
