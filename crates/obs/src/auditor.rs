//! Event-stream auditor: replays a run's events through a per-thread state
//! machine and checks the conservation laws that end-of-run totals cannot
//! express on their own.

use std::collections::{BTreeMap, BTreeSet};

use crate::{Event, SquashReason};

/// A malformed event stream or a violated conservation law.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuditError {
    /// The stream itself is inconsistent (e.g. a squash for a thread that
    /// was never spawned, or two terminal events for one thread).
    Stream {
        /// What went wrong, with the offending thread id and cycle.
        detail: String,
    },
    /// A conservation law failed when checked against expected totals.
    Conservation {
        /// Which law, with both sides of the failed equality.
        detail: String,
    },
}

impl std::fmt::Display for AuditError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AuditError::Stream { detail } => write!(f, "malformed event stream: {detail}"),
            AuditError::Conservation { detail } => {
                write!(f, "conservation law violated: {detail}")
            }
        }
    }
}

impl std::error::Error for AuditError {}

fn stream_err(detail: String) -> AuditError {
    AuditError::Stream { detail }
}

/// What an [`audit`] of a well-formed stream found.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AuditReport {
    /// Threads spawned, root included.
    pub spawned: u64,
    /// Speculative spawns only (what `SimResult::threads_spawned` counts).
    pub speculative_spawned: u64,
    /// Threads that committed their window.
    pub committed: u64,
    /// Threads squashed, for any reason.
    pub squashed: u64,
    /// Squashes attributed to control misspeculation.
    pub squashed_control: u64,
    /// Squashes attributed to an injected fault.
    pub squashed_fault: u64,
    /// Threads spawned but never retired by the end of the stream. Always
    /// zero for a completed simulator run.
    pub in_flight_at_end: u64,
    /// Sum of committed window sizes — must equal the committed
    /// instruction count.
    pub committed_size_sum: u64,
    /// Memory-ordering violations observed.
    pub violations: u64,
    /// Faults the injector fired.
    pub faults_injected: u64,
    /// Cache accesses observed (hits + misses).
    pub cache_accesses: u64,
    /// Spawn attempts declined by an adaptive gate (confidence or
    /// scoreboard demotion). Each corresponds to exactly one declined
    /// spawn, so this is a lower bound on `SimResult::spawns_declined`.
    pub spawns_gated: u64,
    /// Spawning pairs permanently demoted by the scoreboard. At most one
    /// per distinct (SP, CQIP) pair — duplicates are a stream error.
    pub pairs_demoted: u64,
}

/// End-of-run totals (from `SimResult`) that a stream audit must
/// reproduce. Build one with `SimResult::observed_totals()`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExpectedTotals {
    /// `SimResult::threads_spawned` (speculative spawns; root excluded).
    pub threads_spawned: u64,
    /// `SimResult::threads_committed` (root included).
    pub threads_committed: u64,
    /// `SimResult::threads_squashed`.
    pub threads_squashed: u64,
    /// `SimResult::violations`.
    pub violations: u64,
    /// `SimResult::committed_instructions`.
    pub committed_instructions: u64,
    /// `SimResult::spawns_gated`.
    pub spawns_gated: u64,
    /// `SimResult::pairs_demoted`.
    pub pairs_demoted: u64,
}

impl AuditReport {
    /// Check the cross-source conservation laws: the event stream must
    /// reproduce the simulator's own totals exactly, every spawned thread
    /// must have retired, and squash reasons must partition squashes.
    pub fn verify(&self, expected: &ExpectedTotals) -> Result<(), AuditError> {
        let law = |name: &str, got: u64, want: u64| {
            if got == want {
                Ok(())
            } else {
                Err(AuditError::Conservation {
                    detail: format!("{name}: event stream says {got}, totals say {want}"),
                })
            }
        };
        if self.in_flight_at_end != 0 {
            return Err(AuditError::Conservation {
                detail: format!(
                    "{} threads still in flight at end of a completed run",
                    self.in_flight_at_end
                ),
            });
        }
        if self.squashed_control + self.squashed_fault != self.squashed {
            return Err(AuditError::Conservation {
                detail: format!(
                    "squash reasons do not partition squashes: {} + {} != {}",
                    self.squashed_control, self.squashed_fault, self.squashed
                ),
            });
        }
        law(
            "speculative spawns",
            self.speculative_spawned,
            expected.threads_spawned,
        )?;
        law(
            "committed threads",
            self.committed,
            expected.threads_committed,
        )?;
        law("squashed threads", self.squashed, expected.threads_squashed)?;
        law("violations", self.violations, expected.violations)?;
        law("gated spawns", self.spawns_gated, expected.spawns_gated)?;
        law("demoted pairs", self.pairs_demoted, expected.pairs_demoted)?;
        law(
            "committed instructions",
            self.committed_size_sum,
            expected.committed_instructions,
        )
    }
}

enum State {
    Live { spawn_cycle: u64 },
    Done,
}

/// Replay an event stream through a per-thread state machine.
///
/// Checks, per thread: exactly one spawn, at most one terminal event
/// (commit or squash), terminal cycle never before the spawn cycle, and no
/// events for unknown threads. Checks, across the stream: committed +
/// squashed + in-flight equals spawned (this holds by construction of the
/// state machine, but is asserted anyway as a defence against future
/// editing of this function).
pub fn audit(events: &[Event]) -> Result<AuditReport, AuditError> {
    let mut threads: BTreeMap<u64, State> = BTreeMap::new();
    let mut demoted_pairs: BTreeSet<(u32, u32)> = BTreeSet::new();
    let mut report = AuditReport::default();

    let live_spawn =
        |threads: &BTreeMap<u64, State>, thread: u64, what: &str, cycle: u64| match threads
            .get(&thread)
        {
            Some(State::Live { spawn_cycle }) => Ok(*spawn_cycle),
            Some(State::Done) => Err(stream_err(format!(
                "{what} at cycle {cycle} for thread {thread}, which already retired"
            ))),
            None => Err(stream_err(format!(
                "{what} at cycle {cycle} for thread {thread}, which was never spawned"
            ))),
        };

    for ev in events {
        match *ev {
            Event::ThreadSpawned {
                thread,
                cycle,
                speculative,
                ..
            } => {
                if threads
                    .insert(thread, State::Live { spawn_cycle: cycle })
                    .is_some()
                {
                    return Err(stream_err(format!(
                        "thread {thread} spawned twice (second at cycle {cycle})"
                    )));
                }
                report.spawned += 1;
                if speculative {
                    report.speculative_spawned += 1;
                }
            }
            Event::ThreadSquashed {
                thread,
                cycle,
                reason,
                ..
            } => {
                let spawn_cycle = live_spawn(&threads, thread, "squash", cycle)?;
                if cycle < spawn_cycle {
                    return Err(stream_err(format!(
                        "thread {thread} squashed at cycle {cycle}, before its spawn at {spawn_cycle}"
                    )));
                }
                threads.insert(thread, State::Done);
                report.squashed += 1;
                match reason {
                    SquashReason::ControlMisspeculation => report.squashed_control += 1,
                    SquashReason::InjectedFault => report.squashed_fault += 1,
                }
            }
            Event::ThreadCommitted {
                thread,
                cycle,
                spawn_cycle,
                size,
                ..
            } => {
                let spawned_at = live_spawn(&threads, thread, "commit", cycle)?;
                if spawn_cycle != spawned_at {
                    return Err(stream_err(format!(
                        "thread {thread} commit claims spawn cycle {spawn_cycle}, stream says {spawned_at}"
                    )));
                }
                if cycle < spawned_at {
                    return Err(stream_err(format!(
                        "thread {thread} committed at cycle {cycle}, before its spawn at {spawned_at}"
                    )));
                }
                threads.insert(thread, State::Done);
                report.committed += 1;
                report.committed_size_sum += size;
            }
            Event::ViolationDetected { thread, cycle, .. } => {
                live_spawn(&threads, thread, "violation", cycle)?;
                report.violations += 1;
            }
            Event::CacheAccess { thread, cycle, .. } => {
                live_spawn(&threads, thread, "cache access", cycle)?;
                report.cache_accesses += 1;
            }
            Event::SpawnGated { thread, cycle, .. } => {
                // The gate declines a spawn *attempt*, so the referenced
                // thread is the would-be spawner and must still be live.
                live_spawn(&threads, thread, "gated spawn", cycle)?;
                report.spawns_gated += 1;
            }
            Event::PairDemoted {
                sp, cqip, cycle, ..
            } => {
                // Demotion is permanent, so a pair may be demoted at most
                // once per run. The referencing thread is the squashed
                // child, which has already retired (like forced-squash
                // faults), so no lifecycle check applies.
                if !demoted_pairs.insert((sp, cqip)) {
                    return Err(stream_err(format!(
                        "pair ({sp}, {cqip}) demoted twice (second at cycle {cycle})"
                    )));
                }
                report.pairs_demoted += 1;
            }
            Event::FaultInjected { .. } => {
                // Dropped-spawn faults reference the *spawner*, which may be
                // any live thread; forced squashes reference the child that
                // was just spawned. Neither changes lifecycle state.
                report.faults_injected += 1;
            }
        }
    }

    report.in_flight_at_end = threads
        .values()
        .filter(|s| matches!(s, State::Live { .. }))
        .count() as u64;
    if report.committed + report.squashed + report.in_flight_at_end != report.spawned {
        return Err(AuditError::Conservation {
            detail: format!(
                "committed {} + squashed {} + in-flight {} != spawned {}",
                report.committed, report.squashed, report.in_flight_at_end, report.spawned
            ),
        });
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GateReason;

    fn spawn(thread: u64, cycle: u64, speculative: bool) -> Event {
        Event::ThreadSpawned {
            thread,
            unit: thread as u32,
            cycle,
            speculative,
        }
    }

    #[test]
    fn well_formed_stream_balances() {
        let events = vec![
            spawn(0, 0, false),
            spawn(1, 3, true),
            spawn(2, 5, true),
            Event::ViolationDetected {
                thread: 1,
                unit: 1,
                cycle: 8,
            },
            Event::ThreadCommitted {
                thread: 0,
                unit: 0,
                cycle: 10,
                spawn_cycle: 0,
                size: 20,
            },
            Event::ThreadSquashed {
                thread: 2,
                unit: 2,
                cycle: 10,
                reason: SquashReason::ControlMisspeculation,
            },
            Event::ThreadCommitted {
                thread: 1,
                unit: 1,
                cycle: 14,
                spawn_cycle: 3,
                size: 11,
            },
        ];
        let report = audit(&events).expect("audit");
        assert_eq!(report.spawned, 3);
        assert_eq!(report.speculative_spawned, 2);
        assert_eq!(report.committed, 2);
        assert_eq!(report.squashed, 1);
        assert_eq!(report.squashed_control, 1);
        assert_eq!(report.in_flight_at_end, 0);
        assert_eq!(report.committed_size_sum, 31);
        assert_eq!(report.violations, 1);
        report
            .verify(&ExpectedTotals {
                threads_spawned: 2,
                threads_committed: 2,
                threads_squashed: 1,
                violations: 1,
                committed_instructions: 31,
                spawns_gated: 0,
                pairs_demoted: 0,
            })
            .expect("laws hold");
    }

    #[test]
    fn double_terminal_is_rejected() {
        let events = vec![
            spawn(0, 0, false),
            Event::ThreadCommitted {
                thread: 0,
                unit: 0,
                cycle: 5,
                spawn_cycle: 0,
                size: 4,
            },
            Event::ThreadSquashed {
                thread: 0,
                unit: 0,
                cycle: 6,
                reason: SquashReason::InjectedFault,
            },
        ];
        assert!(matches!(audit(&events), Err(AuditError::Stream { .. })));
    }

    #[test]
    fn unknown_thread_is_rejected() {
        let events = vec![Event::ThreadSquashed {
            thread: 9,
            unit: 0,
            cycle: 1,
            reason: SquashReason::InjectedFault,
        }];
        assert!(matches!(audit(&events), Err(AuditError::Stream { .. })));
    }

    #[test]
    fn retirement_before_spawn_is_rejected() {
        let events = vec![
            spawn(0, 10, false),
            Event::ThreadCommitted {
                thread: 0,
                unit: 0,
                cycle: 4,
                spawn_cycle: 10,
                size: 1,
            },
        ];
        assert!(matches!(audit(&events), Err(AuditError::Stream { .. })));
    }

    #[test]
    fn in_flight_threads_fail_verification() {
        let events = vec![spawn(0, 0, false), spawn(1, 2, true)];
        let report = audit(&events).expect("stream is well-formed");
        assert_eq!(report.in_flight_at_end, 2);
        let err = report
            .verify(&ExpectedTotals::default())
            .expect_err("must fail");
        assert!(matches!(err, AuditError::Conservation { .. }));
    }

    #[test]
    fn mismatched_totals_fail_verification() {
        let events = vec![
            spawn(0, 0, false),
            Event::ThreadCommitted {
                thread: 0,
                unit: 0,
                cycle: 9,
                spawn_cycle: 0,
                size: 7,
            },
        ];
        let report = audit(&events).expect("audit");
        let err = report
            .verify(&ExpectedTotals {
                threads_spawned: 0,
                threads_committed: 1,
                threads_squashed: 0,
                violations: 0,
                committed_instructions: 99,
                spawns_gated: 0,
                pairs_demoted: 0,
            })
            .expect_err("size sum is wrong");
        assert!(matches!(err, AuditError::Conservation { .. }));
    }

    #[test]
    fn gated_spawns_and_demotions_are_tallied() {
        let events = vec![
            spawn(0, 0, false),
            spawn(1, 3, true),
            Event::SpawnGated {
                thread: 0,
                unit: 0,
                cycle: 5,
                reason: GateReason::LowConfidence,
            },
            Event::ThreadSquashed {
                thread: 1,
                unit: 1,
                cycle: 8,
                reason: SquashReason::ControlMisspeculation,
            },
            Event::PairDemoted {
                thread: 1,
                unit: 1,
                cycle: 8,
                sp: 4,
                cqip: 9,
            },
            Event::SpawnGated {
                thread: 0,
                unit: 0,
                cycle: 9,
                reason: GateReason::Demoted,
            },
            Event::ThreadCommitted {
                thread: 0,
                unit: 0,
                cycle: 12,
                spawn_cycle: 0,
                size: 6,
            },
        ];
        let report = audit(&events).expect("audit");
        assert_eq!(report.spawns_gated, 2);
        assert_eq!(report.pairs_demoted, 1);
        report
            .verify(&ExpectedTotals {
                threads_spawned: 1,
                threads_committed: 1,
                threads_squashed: 1,
                violations: 0,
                committed_instructions: 6,
                spawns_gated: 2,
                pairs_demoted: 1,
            })
            .expect("laws hold");
    }

    #[test]
    fn gated_spawn_by_a_retired_thread_is_rejected() {
        let events = vec![
            spawn(0, 0, false),
            Event::ThreadCommitted {
                thread: 0,
                unit: 0,
                cycle: 4,
                spawn_cycle: 0,
                size: 3,
            },
            Event::SpawnGated {
                thread: 0,
                unit: 0,
                cycle: 5,
                reason: GateReason::Demoted,
            },
        ];
        assert!(matches!(audit(&events), Err(AuditError::Stream { .. })));
    }

    #[test]
    fn double_demotion_of_one_pair_is_rejected() {
        let events = vec![
            spawn(0, 0, false),
            Event::PairDemoted {
                thread: 7,
                unit: 1,
                cycle: 3,
                sp: 4,
                cqip: 9,
            },
            Event::PairDemoted {
                thread: 8,
                unit: 2,
                cycle: 6,
                sp: 4,
                cqip: 9,
            },
        ];
        assert!(matches!(audit(&events), Err(AuditError::Stream { .. })));
    }
}
