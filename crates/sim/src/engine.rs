//! The trace-driven simulation engine.
//!
//! # Model
//!
//! The sequential dynamic trace is the oracle. Every committed thread owns a
//! contiguous *window* of the trace; windows are created by spawns (a window
//! starts at the next dynamic occurrence of the pair's CQIP) and always
//! partition the trace exactly, so policies change timing, never results.
//!
//! Threads are processed in speculation (= program) order. Because every
//! data dependence points backwards in the trace, one forward pass computes
//! per-instruction completion times with full knowledge of producer timing,
//! while per-thread-unit state (gshare, L1 cache, functional units) is
//! reused in the same order real hardware would observe.
//!
//! Deliberate simplifications, kept because they preserve the paper's
//! trends (see DESIGN.md §6):
//!
//! * A memory-dependence violation delays and restarts the offending
//!   thread at the violating load (selective squash) rather than rolling
//!   back the whole unit.
//! * Mispredicted live-ins stall their consumers until the producer
//!   forwards the value, modelling the revalidation cost as dependence
//!   stalls.
//! * Spawns the hardware would discover to be doomed (their CQIP never
//!   recurs) occupy a thread unit until their spawner commits, then squash.
//!
//! # Layout
//!
//! The hot state lives in flat arenas / structure-of-arrays with dense
//! index handles (DESIGN.md §13): per-pair runtime counters in a
//! [`PairArena`] addressed by `PairId` (interned once, in sorted key
//! order), spawn candidates in a CSR offset+value table, per-thread-unit
//! issue ports and functional units in fixed-size arrays, and
//! per-static-instruction facts predecoded into a [`PreInst`] table so the
//! cycle loop never interrogates the `Inst` enum. Timing state is bounded
//! by registers and memory records: no table has an entry per record. The
//! machine itself is the fixed §4.1 core (see [`FETCH_WIDTH`] and its
//! siblings), so widths and ring sizes are constants.

use specmt_isa::{FuClass, Pc};
use specmt_obs::{Event, EventSink, FaultKind, GateReason, MetricsRegistry, SquashReason};
use specmt_predict::{Gshare, PredKey, SpawnConfidence, ValuePredictor, ValuePredictorKind};
use specmt_spawn::{AdaptiveState, SpawnTable};
use specmt_trace::{DepGraph, Trace, NO_PRODUCER};
use std::sync::Arc;

use crate::config::{
    FETCH_WIDTH, GSHARE_BITS, ISSUE_WIDTH, L1_BLOCK_BYTES, MISPREDICT_PENALTY, PHYS_REGS,
    ROB_ENTRIES, SQUASH_PENALTY,
};
use crate::faults::FaultInjector;
use crate::occurrences::CqipOccurrences;
use crate::{L1Cache, SimConfig, SimError, SimResult};

/// Dense handle into the [`PairArena`] columns.
type PairId = u32;

/// Per-static-instruction facts, predecoded once so the per-dynamic-
/// instruction loop reads one flat table entry instead of interrogating
/// the `Inst` enum (`dst`/`srcs`/`fu_class`/`is_*` calls per instruction).
#[derive(Debug, Clone, Copy)]
struct PreInst {
    flags: u8,
    /// Source register index per operand slot; an absent operand reads
    /// the hardwired zero register, whose last writer is always
    /// `NO_PRODUCER`.
    src: [u8; 2],
    /// Destination slot in the register tables: the destination
    /// register's index, or [`NO_REG_SLOT`], which no operand reads, when
    /// the instruction writes no register (or only the zero register).
    dst: u8,
    /// The first and last functional unit of the instruction's class, as
    /// indices into a thread unit's unit array (equal for a one-unit
    /// class): the issue step picks between the two with one compare.
    fu_first: u8,
    fu_last: u8,
    /// Occupancy increment per issue on that unit: 1 for pipelined
    /// classes, the full latency for non-pipelined ones.
    fu_incr: u8,
    /// Result latency of the class.
    latency: u8,
    /// Where a taken record continues: the static target of a branch,
    /// jump or call (unused otherwise; a return's is dynamic).
    target: u32,
}

/// Register-table slots: the architectural registers, then slots no
/// operand reads, rounded up to a power of two so a destination slot
/// reduced modulo it (a mask) needs no bounds check.
const REG_SLOTS: usize = 2 * specmt_isa::NUM_REGS;
/// The destination slot of an instruction that writes no register: its
/// writes land where no source operand looks, so the zero register keeps
/// `NO_PRODUCER` and completion time 0 without a select.
const NO_REG_SLOT: u8 = specmt_isa::NUM_REGS as u8;

const F_WRITES_REG: u8 = 1;
const F_LOAD: u8 = 1 << 1;
const F_STORE: u8 = 1 << 2;
const F_COND_BRANCH: u8 = 1 << 3;
/// Control flow that is not a conditional branch (jump/call/ret).
const F_CONTROL: u8 = 1 << 4;
/// The pc is a spawning point *and* the config has units to spawn into.
const F_SPAWN: u8 = 1 << 5;
/// A return: its record continues at the trace's next return target.
const F_RET: u8 = 1 << 6;
/// A spawning point whose candidates can no longer spawn (see
/// `Engine::remove_pair`): where the fast-decline check applies, every
/// attempt here is a single decline.
const F_DECLINES: u8 = 1 << 7;

/// SoA arena of per-pair dynamic state, indexed by [`PairId`].
///
/// Ids are interned once at engine construction in sorted `(sp, cqip)`
/// order — exactly the iteration order of the `BTreeMap<(u32, u32),
/// PairRuntime>` this replaces — so every scan over the arena (the
/// minimum-size removal pick in particular) keeps its deterministic visit
/// order by construction.
#[derive(Debug, Default)]
struct PairArena {
    /// Sorted, deduplicated `(sp, cqip)` keys: the interning table.
    keys: Vec<(u32, u32)>,
    removed: Vec<bool>,
    alone_count: Vec<u32>,
    size_samples: Vec<u32>,
    size_sum: Vec<u64>,
    /// Samples that were squashed spawns (size zero).
    size_zeros: Vec<u32>,
    /// Every pair that is undersized (see [`PairArena::undersized`]),
    /// plus pairs that stopped being so since the last pick. Only a new
    /// sample can make a pair undersized, so a pair joins when one is
    /// charged to it, and the pick drops those that no longer qualify.
    suspects: Vec<PairId>,
    /// Whether each pair is in `suspects`.
    suspected: Vec<bool>,
}

impl PairArena {
    fn new(table: &SpawnTable) -> PairArena {
        let mut keys: Vec<(u32, u32)> = table.iter().map(|p| (p.sp.0, p.cqip.0)).collect();
        keys.sort_unstable();
        keys.dedup();
        let n = keys.len();
        PairArena {
            keys,
            removed: vec![false; n],
            alone_count: vec![0; n],
            size_samples: vec![0; n],
            size_sum: vec![0; n],
            size_zeros: vec![0; n],
            suspects: Vec::new(),
            suspected: vec![false; n],
        }
    }

    fn id_of(&self, key: (u32, u32)) -> Option<PairId> {
        self.keys.binary_search(&key).ok().map(|i| i as PairId)
    }

    /// Charges a committed thread of `size` instructions to pair `i`
    /// under the minimum-size policy's threshold `min`.
    fn sample_commit(&mut self, i: usize, size: u64, min: u32) {
        self.size_samples[i] += 1;
        self.size_sum[i] += size;
        self.suspect(i, min);
    }

    /// Charges a squashed child to pair `i` as a zero-size thread.
    fn sample_squash(&mut self, i: usize, min: u32) {
        self.size_samples[i] += 1;
        self.size_zeros[i] += 1;
        self.suspect(i, min);
    }

    /// Adds pair `i` to the suspects if it is undersized.
    fn suspect(&mut self, i: usize, min: u32) {
        if !self.suspected[i] && self.undersized(i, min) {
            self.suspected[i] = true;
            self.suspects.push(i as PairId);
        }
    }

    /// Whether pair `i` is a removal candidate: still active, with enough
    /// samples, and an average thread size below `min`.
    fn undersized(&self, i: usize, min: u32) -> bool {
        !self.removed[i]
            && self.size_samples[i] >= MIN_SIZE_SAMPLES
            && self.size_sum[i] < u64::from(min) * u64::from(self.size_samples[i])
    }

    /// Whether pair `i` is guiltier than pair `b`. Pairs whose spawns get
    /// squashed (doomed fraction) are the offenders; short committed
    /// threads are often their victims. So the higher zero ratio wins,
    /// then the smaller average size, then the larger key: a strict total
    /// order, so the guiltiest pair does not depend on visit order.
    fn guiltier(&self, i: usize, b: usize) -> bool {
        let ratio = |n: u32, j: usize| f64::from(n) / f64::from(self.size_samples[j]);
        let mean = |j: usize| self.size_sum[j] as f64 / f64::from(self.size_samples[j]);
        ratio(self.size_zeros[i], i)
            .total_cmp(&ratio(self.size_zeros[b], b))
            .then(mean(b).total_cmp(&mean(i)))
            .then(self.keys[i].cmp(&self.keys[b]))
            .is_gt()
    }

    /// The guiltiest undersized pair, if any; drops the suspects that are
    /// no longer undersized.
    fn pick_undersized(&mut self, min: u32) -> Option<usize> {
        let mut suspects = std::mem::take(&mut self.suspects);
        suspects.retain(|&p| {
            let keep = self.undersized(p as usize, min);
            self.suspected[p as usize] = keep;
            keep
        });
        let mut worst: Option<usize> = None;
        for &p in &suspects {
            let p = p as usize;
            if worst.is_none_or(|b| self.guiltier(p, b)) {
                worst = Some(p);
            }
        }
        self.suspects = suspects;
        worst
    }

    /// Resets every pair's size statistics, so the pairs are re-measured
    /// under a new pair mix (and none is a suspect any more).
    fn reset_samples(&mut self) {
        self.size_samples.fill(0);
        self.size_sum.fill(0);
        self.size_zeros.fill(0);
        for &p in &self.suspects {
            self.suspected[p as usize] = false;
        }
        self.suspects.clear();
    }
}

/// A spawned-but-doomed thread: its CQIP never recurs, so it burns a thread
/// unit until its spawner joins and the mismatch is discovered.
#[derive(Debug, Clone, Copy)]
struct DoomedChild {
    /// Per-run thread id (for the event stream).
    id: u64,
    tu: usize,
    spawn_time: u64,
    /// Dense CQIP index of the pair's CQIP (for the busy-count column).
    cd: u32,
    /// The pair that created it, charged with a zero-size thread by the
    /// minimum-size policy.
    pair: PairId,
    /// Whether the fault injector, not control misspeculation, doomed it.
    fault: bool,
}

/// An active thread awaiting processing.
#[derive(Debug)]
struct PendingThread {
    /// Per-run thread id (root = 0; for the event stream).
    id: u64,
    /// First dynamic instruction of the window.
    start: usize,
    /// Cycle the spawn fired.
    spawn_time: u64,
    /// Cycle the thread may fetch its first instruction
    /// (`spawn_time + 1 + init_overhead`).
    init_done: u64,
    /// Assigned thread unit.
    tu: usize,
    /// The pair that spawned it (`None` for the root).
    pair: Option<PairId>,
    /// Dense CQIP index of the window's starting CQIP (`u32::MAX` for the
    /// root, whose start is not a spawned CQIP and never blocks one).
    cd: u32,
}

/// Committed threads observed per pair before the minimum-size policy
/// judges the pair's *average* size. Interleaved spawning legitimately cuts
/// individual threads short (paper Figure 7a), so single observations would
/// remove every pair.
const MIN_SIZE_SAMPLES: u32 = 8;

/// Functional units per thread unit (§4.1: nine). Every class fields one
/// or two, so the issue step picks a unit with a single compare.
const FU_TOTAL: usize = {
    let mut total = 0;
    let mut i = 0;
    while i < FuClass::ALL.len() {
        let units = FuClass::ALL[i].units();
        assert!(
            units == 1 || units == 2,
            "the unit pick compares at most two"
        );
        total += units;
        i += 1;
    }
    total
};

/// Slots of a thread unit's functional-unit array: [`FU_TOTAL`] rounded up
/// to a power of two, so a predecoded unit index reduced modulo it (a
/// mask) indexes without a bounds check.
const FU_SLOTS: usize = FU_TOTAL.next_power_of_two();

/// Rename registers per thread unit: the physical registers beyond the
/// architectural file bound the in-flight register writers.
const RENAME_REGS: usize = PHYS_REGS - specmt_isa::NUM_REGS;

const _: () = assert!(
    ISSUE_WIDTH == 4,
    "the issue-port tournament is unrolled for four ports"
);

/// The trace-driven Clustered Speculative Multithreaded Processor model.
///
/// Construct with [`Simulator::new`] (no spawning — the superscalar
/// baseline) or [`Simulator::with_table`], then call [`Simulator::run`].
/// See the crate docs for an end-to-end example.
#[derive(Debug)]
pub struct Simulator<'a> {
    trace: &'a Trace,
    deps: Arc<DepGraph>,
    config: SimConfig,
    table: SpawnTable,
}

impl<'a> Simulator<'a> {
    /// A simulator with no spawning pairs: execution is single-threaded
    /// regardless of the unit count.
    pub fn new(trace: &'a Trace, config: SimConfig) -> Simulator<'a> {
        Simulator::with_table(trace, config, &SpawnTable::empty())
    }

    /// A simulator driven by the given spawn table (cloned: tables are
    /// small relative to traces). The run reads the trace's dependence
    /// graph ([`Trace::deps`]), which is built once per trace and shared by
    /// every run over it.
    pub fn with_table(trace: &'a Trace, config: SimConfig, table: &SpawnTable) -> Simulator<'a> {
        Simulator {
            trace,
            deps: Arc::clone(trace.deps()),
            config,
            table: table.clone(),
        }
    }

    /// Runs the simulation to completion and returns aggregate statistics.
    ///
    /// The configuration (including any fault plan) is validated first, and
    /// the engine audits its hard invariants after the last commit: the
    /// committed windows must partition the trace exactly, every thread unit
    /// must be free, and the thread statistics must balance. Fault injection
    /// perturbs timing and policy only, so the audit holds under any valid
    /// [`FaultPlan`](crate::FaultPlan).
    ///
    /// If [`SimConfig::observe`] is set, the returned
    /// [`SimResult::metrics`] carries a [`Metrics`](specmt_obs::Metrics)
    /// snapshot aggregated from the run's event stream.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] / [`SimError::InvalidFaultPlan`]
    /// without simulating, or an audit variant ([`SimError::TracePartition`],
    /// [`SimError::CommitMismatch`], [`SimError::ThreadUnitLeak`],
    /// [`SimError::StatsConservation`], [`SimError::BrokenInvariant`]) if the
    /// model's correctness invariants do not survive the run.
    pub fn run(self) -> Result<SimResult, SimError> {
        self.config.validate()?;
        Engine::new(self, None).run()
    }

    /// As [`Simulator::run`], additionally streaming every lifecycle
    /// [`Event`] into `sink` as it happens. Timing and results are
    /// bit-identical to an unobserved run: emission never feeds back into
    /// the model (a tested invariant).
    ///
    /// # Errors
    ///
    /// Exactly as [`Simulator::run`].
    pub fn run_with_sink(self, sink: &mut dyn EventSink) -> Result<SimResult, SimError> {
        self.config.validate()?;
        Engine::new(self, Some(sink)).run()
    }
}

/// Per-window execution state threaded through [`Engine::step`]: the
/// window loop's locals, hoisted into one struct so the step can be a
/// separate (always-inlined) function.
struct WinState {
    /// Register writers fetched so far in this window: the next writer's
    /// slot in the rename ring, modulo its size.
    writers: usize,
    last_commit: u64,
    fetch_cycle: u64,
    /// Fetch slots consumed in the cycle `fetch_cycle`.
    slots: u32,
    /// Window-local copies of this unit's port and FU availability: nothing
    /// else touched inside the window (spawns, caches, predictors) reads
    /// them, and locals keep the per-instruction tournaments in registers
    /// instead of memory. Written back by `finish_window`.
    ports: [u64; ISSUE_WIDTH],
    fus: [u64; FU_SLOTS],
    /// Window end: the start of the next more-speculative thread (or the
    /// trace end). Only a spawn can move it.
    end: usize,
}

struct Engine<'a, 's> {
    trace: &'a Trace,
    deps: Arc<DepGraph>,
    cfg: SimConfig,
    /// Predecoded per-static-pc instruction facts.
    pre: Vec<PreInst>,
    /// Spawn-candidate CSR: candidates of static pc `p` occupy
    /// `cand_pair[cand_offsets[p]..cand_offsets[p + 1]]`, in the spawn
    /// table's rank order (score-descending, the pick order).
    cand_offsets: Vec<u32>,
    /// Interned pair id per candidate.
    cand_pair: Vec<PairId>,
    /// Dense CQIP index (into the occurrence oracle) per candidate.
    cand_cqip: Vec<u32>,
    /// Per-pair dynamic state, indexed by `PairId`.
    pairs: PairArena,
    /// Where each dense CQIP next occurs after a spawn point.
    occurrences: CqipOccurrences<'a>,
    /// Active (chained or doomed-this-window) thread count per dense CQIP,
    /// replacing a chain scan on every spawn attempt.
    cqip_active: Vec<u32>,
    /// Completion time of each memory record processed so far, indexed by
    /// its rank among the trace's loads and stores: a load finds its
    /// producing store's time at that store's `Trace::mem_rank`. Only the
    /// stores' entries are ever read. Stored as `u32`: completion times
    /// are far below 2^32 for any trace the step budget admits (a debug
    /// assertion guards the narrowing).
    mem_done: Vec<u32>,
    // --- Hot per-thread-unit columns, scanned every cycle ---------------
    tu_free_at: Vec<u64>,
    /// Bitmask of non-busy units (bit `i` set ⟺ unit `i` is free; a
    /// machine has at most `MAX_THREAD_UNITS` = 64): free-unit searches
    /// iterate set bits instead of scanning every unit. Updated by
    /// `tu_claim`/`tu_release`.
    tu_free_mask: u64,
    /// Number of non-busy units, and the minimum `tu_free_at` over them
    /// (`u64::MAX` when none): a spawn attempt that cannot possibly find a
    /// unit declines on two compares without leaving the cycle loop.
    tu_free_count: usize,
    tu_min_free: u64,
    /// Whether that two-compare decline is exact: fault injection draws
    /// RNG per attempt and the adaptive gates emit and count their own
    /// declines, so either disables the shortcut.
    fast_decline: bool,
    /// Next-free cycle per issue port, per thread unit.
    ports: Vec<[u64; ISSUE_WIDTH]>,
    /// Next-free cycle per functional unit, per thread unit: an
    /// instruction's units are `fu_free[u][pi.fu_first..=pi.fu_last]`
    /// (slots past `FU_TOTAL` are never used).
    fu_free: Vec<[u64; FU_SLOTS]>,
    // --- Cold per-thread-unit state (touched per branch / memory op) ----
    gshares: Vec<Gshare>,
    /// Per-unit branch-confidence estimators, updated alongside the
    /// gshares but only when the confidence gate is active.
    confs: Vec<SpawnConfidence>,
    /// Runtime pair scoreboard (the `scoreboard` adaptive scheme); `None`
    /// unless the spawn table's policy sets a demote threshold.
    scoreboard: Option<AdaptiveState>,
    /// Confidence-gate threshold (the `conf-gated` adaptive scheme); zero
    /// disables the gate entirely.
    conf_threshold: u32,
    caches: Vec<L1Cache>,
    predictor: Option<Box<dyn ValuePredictor>>,
    /// Active speculative threads in program order (excluding the one being
    /// processed).
    chain: std::collections::VecDeque<PendingThread>,
    // --- Reusable scratch (hoisted out of the cycle loop) ---------------
    /// ROB commit ring: slot `i % ROB_ENTRIES` holds the commit time of
    /// the window's `i`-th record, which the record `ROB_ENTRIES` later
    /// waits for. Zeroed when a window that uses it starts, so a record
    /// with no such predecessor reads 0 and never stalls.
    rob_ring: [u64; ROB_ENTRIES],
    /// Rename-register commit ring, indexed the same way by the window's
    /// register writers.
    writer_ring: [u64; RENAME_REGS],
    /// Doomed children of the window being processed.
    doomed: Vec<DoomedChild>,
    /// Live-in readiness memo: cached time per architectural register,
    /// gated by the `live_in_valid` bitmask. Persistent scratch — a window
    /// resets only the mask (one store), never the value array, so stale
    /// values are present but unreadable.
    live_in_vals: [u64; specmt_isa::NUM_REGS],
    live_in_valid: u64,
    /// Buffered store-touch addresses, flushed to the unit's cache as a
    /// run before the next load and at window end.
    touch_run: Vec<u64>,
    faults: Option<FaultInjector>,
    result: SimResult,
    /// External event consumer (from [`Simulator::run_with_sink`]).
    sink: Option<&'s mut dyn EventSink>,
    /// Built-in metrics aggregation (from [`SimConfig::observe`]).
    metrics: Option<MetricsRegistry>,
    /// Cached `sink.is_some() || metrics.is_some()`: the single branch the
    /// disabled path pays per emission site.
    observing: bool,
    /// Next per-run thread id (root took 0).
    next_thread_id: u64,
    /// The pc of the next record to process, and the rank of the next
    /// return among the trace's return targets: the pc cursor, derived as
    /// the trace derives it (the next instruction, a taken record's static
    /// target, or a return's target). Windows partition the trace in
    /// order, so it only ever advances.
    pc_next: u32,
    ret_next: usize,
    /// Rank of the next load or store among the trace's memory records:
    /// the one cursor into the sparse address and memory-producer columns.
    /// Windows partition the trace in order, so it only ever advances.
    mem_next: usize,
    /// Last writer of each architectural register among the records
    /// processed so far (`NO_PRODUCER` before the first write; the zero
    /// register's entry never changes). For the same in-order reason, its
    /// entries are exactly the register producers of the next record.
    /// Slots from `NO_REG_SLOT` on are write-only.
    reg_writer: [u32; REG_SLOTS],
    /// Completion time of each register's last writer, updated beside
    /// `reg_writer`: a register operand's readiness. A register never
    /// written (the zero register included) reads 0, which never binds.
    reg_done: [u64; REG_SLOTS],
}

impl<'a, 's> Engine<'a, 's> {
    fn new(sim: Simulator<'a>, sink: Option<&'s mut dyn EventSink>) -> Engine<'a, 's> {
        let Simulator {
            trace,
            deps,
            config: cfg,
            table,
        } = sim;
        let program = trace.program();
        let program_len = program.len();

        // Functional-unit layout, identical for every thread unit: each
        // class's units sit side by side, in `FuClass::ALL` order.
        let mut fu_first = [0u8; FuClass::ALL.len()];
        let mut next = 0u8;
        for c in FuClass::ALL {
            fu_first[c.index()] = next;
            next += c.units() as u8;
        }

        // Predecode every static instruction.
        let mut pre: Vec<PreInst> = Vec::with_capacity(program_len);
        for inst in program.insts() {
            let mut flags = 0u8;
            if inst.dst().is_some_and(|d| !d.is_zero()) {
                flags |= F_WRITES_REG;
            }
            if inst.is_load() {
                flags |= F_LOAD;
            }
            if inst.is_store() {
                flags |= F_STORE;
            }
            if inst.is_cond_branch() {
                flags |= F_COND_BRANCH;
            } else if inst.is_control() {
                flags |= F_CONTROL;
            }
            if inst.is_ret() {
                flags |= F_RET;
            }
            let mut src = [0u8; 2];
            for (s, r) in inst.srcs().into_iter().enumerate() {
                if let Some(r) = r {
                    src[s] = r.index() as u8;
                }
            }
            let class = inst.fu_class();
            let first = fu_first[class.index()];
            pre.push(PreInst {
                flags,
                src,
                dst: inst
                    .dst()
                    .filter(|d| !d.is_zero())
                    .map_or(NO_REG_SLOT, |d| d.index() as u8),
                fu_first: first,
                fu_last: first + class.units() as u8 - 1,
                fu_incr: if class.pipelined() {
                    1
                } else {
                    class.latency() as u8
                },
                latency: class.latency() as u8,
                target: inst.control_target().map_or(0, |t| t.0),
            });
        }

        // Intern the pairs and flatten the per-pc candidate lists into a
        // CSR, resolving each candidate's pair id and dense CQIP index once.
        let pairs = PairArena::new(&table);
        // The online spawning policy rides on the table; either half being
        // active disables the fast-decline shortcut (a gated decline must
        // be counted and emitted, and demotion state can change on any
        // retire).
        let adaptive = table.adaptive().copied().unwrap_or_default();
        let scoreboard = adaptive
            .demote_threshold
            .map(|thr| AdaptiveState::new(pairs.keys.len(), thr));
        let mut cqip_pcs: Vec<u32> = table.iter().map(|p| p.cqip.0).collect();
        cqip_pcs.sort_unstable();
        cqip_pcs.dedup();
        let spawn_enabled = cfg.thread_units > 1;
        let mut cand_offsets = vec![0u32; program_len + 1];
        let mut cand_pair: Vec<PairId> = Vec::new();
        let mut cand_cqip: Vec<u32> = Vec::new();
        for pc in 0..program_len {
            for cand in table.candidates(Pc(pc as u32)) {
                // Both lookups succeed by construction (the arena and the
                // dense CQIP table were built from this same table).
                let (Some(pid), Ok(cd)) = (
                    pairs.id_of((cand.sp.0, cand.cqip.0)),
                    cqip_pcs.binary_search(&cand.cqip.0),
                ) else {
                    continue;
                };
                cand_pair.push(pid);
                cand_cqip.push(cd as u32);
            }
            cand_offsets[pc + 1] = cand_pair.len() as u32;
            if spawn_enabled && cand_offsets[pc + 1] > cand_offsets[pc] {
                pre[pc].flags |= F_SPAWN;
            }
        }

        let occurrences = CqipOccurrences::new(trace, &cqip_pcs);

        let n_tus = cfg.thread_units;
        // Proven bounds for the compact cache tag store: each dynamic
        // instruction makes at most one access or touch on one unit.
        let max_block = deps.max_addr() / L1_BLOCK_BYTES as u64;
        let max_accesses = trace.len() as u64 + 1;
        let predictor = cfg.value_predictor.build(cfg.predictor_budget);
        let faults = cfg.faults.filter(|p| p.is_active()).map(FaultInjector::new);
        let metrics = cfg.observe.then(MetricsRegistry::new);
        let observing = sink.is_some() || metrics.is_some();
        Engine {
            mem_done: vec![0; trace.mem_addrs().len()],
            pre,
            cand_offsets,
            cand_pair,
            cand_cqip,
            pairs,
            cqip_active: vec![0; cqip_pcs.len()],
            occurrences,
            tu_free_at: vec![0; n_tus],
            tu_free_mask: u64::MAX >> (64 - n_tus),
            tu_free_count: n_tus,
            tu_min_free: 0,
            fast_decline: faults.is_none() && !adaptive.is_active(),
            ports: vec![[0; ISSUE_WIDTH]; n_tus],
            fu_free: vec![[0; FU_SLOTS]; n_tus],
            gshares: (0..n_tus).map(|_| Gshare::new(GSHARE_BITS)).collect(),
            confs: vec![SpawnConfidence::new(); n_tus],
            scoreboard,
            conf_threshold: u32::from(adaptive.confidence_threshold.unwrap_or(0)),
            caches: (0..n_tus)
                .map(|_| L1Cache::new_bounded(max_block, max_accesses))
                .collect(),
            predictor,
            chain: std::collections::VecDeque::new(),
            rob_ring: [0; ROB_ENTRIES],
            writer_ring: [0; RENAME_REGS],
            doomed: Vec::new(),
            live_in_vals: [0; specmt_isa::NUM_REGS],
            live_in_valid: 0,
            touch_run: Vec::new(),
            faults,
            result: SimResult::default(),
            sink,
            metrics,
            observing,
            next_thread_id: 1,
            pc_next: trace.pcs().next().map_or(0, |pc| pc.0),
            ret_next: 0,
            mem_next: 0,
            reg_writer: [NO_PRODUCER; REG_SLOTS],
            reg_done: [0; REG_SLOTS],
            trace,
            deps,
            cfg,
        }
    }

    /// Marks a unit free at `free_at`, folding it into the free-unit
    /// summary used by the spawn fast-decline check.
    #[inline]
    fn tu_release(&mut self, tu: usize, free_at: u64) {
        self.tu_free_mask |= 1 << tu;
        self.tu_free_at[tu] = free_at;
        self.tu_free_count += 1;
        self.tu_min_free = self.tu_min_free.min(free_at);
    }

    /// Marks a unit busy and repairs the free-unit summary (a rescan only
    /// when the claimed unit may have carried the minimum).
    #[inline]
    fn tu_claim(&mut self, tu: usize) {
        self.tu_free_mask &= !(1 << tu);
        self.tu_free_count -= 1;
        if self.tu_free_at[tu] <= self.tu_min_free {
            let mut m = u64::MAX;
            let mut bits = self.tu_free_mask;
            while bits != 0 {
                m = m.min(self.tu_free_at[bits.trailing_zeros() as usize]);
                bits &= bits - 1;
            }
            self.tu_min_free = m;
        }
    }

    /// Lowest-numbered unit that is free no later than cycle `f`.
    #[inline]
    fn tu_find_free(&self, f: u64) -> Option<usize> {
        let mut bits = self.tu_free_mask;
        while bits != 0 {
            let i = bits.trailing_zeros() as usize;
            if self.tu_free_at[i] <= f {
                return Some(i);
            }
            bits &= bits - 1;
        }
        None
    }

    /// Fan one event out to the metrics registry and the external sink.
    /// Callers gate on `self.observing` so the disabled path never
    /// constructs the event.
    #[inline(never)]
    fn emit(&mut self, event: Event) {
        if let Some(m) = self.metrics.as_mut() {
            m.record(&event);
        }
        if let Some(s) = self.sink.as_mut() {
            s.record(&event);
        }
    }

    /// Freeze the metrics registry (if any) into the result.
    fn finish_metrics(&mut self) {
        if let Some(m) = self.metrics.take() {
            self.result.metrics = Some(m.snapshot());
        }
    }

    fn run(mut self) -> Result<SimResult, SimError> {
        let n = self.trace.len();
        if n == 0 {
            self.finish_metrics();
            return Ok(self.result);
        }
        self.tu_claim(0);
        if self.observing {
            self.emit(Event::ThreadSpawned {
                thread: 0,
                unit: 0,
                cycle: 0,
                speculative: false,
            });
        }
        let mut next = Some(PendingThread {
            id: 0,
            start: 0,
            spawn_time: 0,
            init_done: 0,
            tu: 0,
            pair: None,
            cd: u32::MAX,
        });
        let mut prev_commit = 0u64;
        let mut processed_end = 0usize;

        while let Some(t) = next.take() {
            if t.start != processed_end {
                return Err(SimError::broken(format!(
                    "window starts at {} but the previous window ended at {processed_end}",
                    t.start
                )));
            }
            let (end, exec_done) = self.process_window(&t);
            let doomed = std::mem::take(&mut self.doomed);
            processed_end = end;
            let pred_commit = prev_commit;
            let commit_time = exec_done.max(prev_commit);
            prev_commit = commit_time;

            // Retire: free the unit, squash doomed children. A doomed
            // child's order violation is discovered when its spawner
            // *joins* (reaches the start of a different thread), so its
            // unit frees at the spawner's execution end, not its commit.
            self.tu_release(t.tu, commit_time);
            for d in &doomed {
                self.tu_release(d.tu, exec_done.max(d.spawn_time));
                self.cqip_active[d.cd as usize] -= 1;
                self.result.threads_squashed += 1;
            }
            if self.observing {
                for d in &doomed {
                    self.emit(Event::ThreadSquashed {
                        thread: d.id,
                        unit: d.tu as u32,
                        cycle: exec_done.max(d.spawn_time),
                        reason: if d.fault {
                            SquashReason::InjectedFault
                        } else {
                            SquashReason::ControlMisspeculation
                        },
                    });
                }
            }
            // Scoreboard feedback: every squash heats its pair's counter,
            // in the deterministic retire order of the doomed list.
            for d in &doomed {
                let newly = self
                    .scoreboard
                    .as_mut()
                    .is_some_and(|sb| sb.record_squash(d.pair as usize));
                if newly {
                    self.result.pairs_demoted += 1;
                    if self.observing {
                        let (sp, cqip) = self.pairs.keys[d.pair as usize];
                        self.emit(Event::PairDemoted {
                            thread: d.id,
                            unit: d.tu as u32,
                            cycle: exec_done.max(d.spawn_time),
                            sp,
                            cqip,
                        });
                    }
                }
            }

            let window_len = (end - t.start) as u64;
            self.result.record_thread_size(window_len);
            self.result.threads_committed += 1;
            self.result.committed_instructions += window_len;
            self.result.thread_size_sum += window_len;
            self.result.thread_lifetime_cycles += commit_time - t.spawn_time;
            self.result.cycles = commit_time;
            if self.observing {
                self.emit(Event::ThreadCommitted {
                    thread: t.id,
                    unit: t.tu as u32,
                    cycle: commit_time,
                    spawn_cycle: t.spawn_time,
                    size: window_len,
                });
            }
            // Scoreboard feedback: a commit cools the pair's counter
            // (applied after this window's squashes, so a pair whose
            // children both squash and commit trends by the net balance).
            if let Some(pid) = t.pair {
                if let Some(sb) = self.scoreboard.as_mut() {
                    sb.record_commit(pid as usize);
                }
            }

            self.apply_dynamic_policies(&t, &doomed, exec_done, window_len, pred_commit);
            // Hand the (cleared-on-entry) buffer back for the next window.
            self.doomed = doomed;

            if let Some(head) = self.chain.pop_front() {
                // The thread now being processed no longer blocks spawns
                // at its CQIP (matching the old chain-membership check).
                self.cqip_active[head.cd as usize] -= 1;
                next = Some(head);
            }
        }

        self.audit(n, processed_end)?;
        for cache in &self.caches {
            let (h, m) = cache.stats();
            self.result.cache_hits += h;
            self.result.cache_misses += m;
        }
        self.finish_metrics();
        Ok(self.result)
    }

    /// The post-run invariant audit: committed windows partition the trace,
    /// the committed stream equals the sequential trace, no thread unit
    /// leaks, and the thread statistics balance.
    fn audit(&self, n: usize, processed_end: usize) -> Result<(), SimError> {
        if processed_end != n {
            return Err(SimError::TracePartition {
                expected: n,
                processed: processed_end,
            });
        }
        if self.result.committed_instructions != n as u64 {
            return Err(SimError::CommitMismatch {
                expected: n as u64,
                committed: self.result.committed_instructions,
            });
        }
        if self.result.thread_size_sum != self.result.committed_instructions {
            return Err(SimError::StatsConservation {
                reason: format!(
                    "thread sizes sum to {} but {} instructions committed",
                    self.result.thread_size_sum, self.result.committed_instructions
                ),
            });
        }
        let busy = !self.tu_free_mask & (u64::MAX >> (64 - self.tu_free_at.len()));
        if busy != 0 {
            return Err(SimError::ThreadUnitLeak {
                unit: busy.trailing_zeros() as usize,
            });
        }
        // Every successful spawn either committed or squashed; the root
        // thread committed without a spawn.
        let accounted = self.result.threads_committed + self.result.threads_squashed;
        if accounted != self.result.threads_spawned + 1 {
            return Err(SimError::StatsConservation {
                reason: format!(
                    "{} spawned but {} committed + {} squashed",
                    self.result.threads_spawned,
                    self.result.threads_committed,
                    self.result.threads_squashed
                ),
            });
        }
        if self.result.value_hits > self.result.value_predictions
            || self.result.branch_hits > self.result.branch_predictions
        {
            return Err(SimError::StatsConservation {
                reason: "predictor hits exceed predictions".to_owned(),
            });
        }
        if self.result.spawns_gated > self.result.spawns_declined {
            return Err(SimError::StatsConservation {
                reason: format!(
                    "{} gated spawns exceed {} declined spawns",
                    self.result.spawns_gated, self.result.spawns_declined
                ),
            });
        }
        if self.result.pairs_demoted != self.scoreboard.as_ref().map_or(0, AdaptiveState::demotions)
        {
            return Err(SimError::StatsConservation {
                reason: format!(
                    "{} demotions counted but the scoreboard recorded {}",
                    self.result.pairs_demoted,
                    self.scoreboard.as_ref().map_or(0, AdaptiveState::demotions)
                ),
            });
        }
        Ok(())
    }

    /// Processes one thread's window, one dynamic instruction at a time;
    /// returns `(end, exec_done)` and leaves the window's doomed children
    /// in `self.doomed`.
    ///
    /// Three facts hold for a whole window, so the record loop is
    /// monomorphized over them ([`Engine::window`]) and the instance is
    /// picked here, once: whether events are observed, whether the ROB
    /// and rename rings can fill, and whether every live-in is a perfectly
    /// predicted constant.
    fn process_window(&mut self, t: &PendingThread) -> (usize, u64) {
        debug_assert_eq!(self.mem_next, self.trace.mem_rank(t.start));
        debug_assert_eq!(Pc(self.pc_next), self.trace.pc_at(t.start));
        debug_assert_eq!(self.ret_next, self.trace.ret_rank(t.start));
        let mut st = self.win_state(t);
        // Both hazard rings start empty; a window shorter than both can
        // never fill either, so its records skip the ring bookkeeping
        // entirely. The window can only shrink after this is computed, so
        // the bound stays valid. Under MIN32 most windows of the medium
        // suite are at least this long (DESIGN.md §13).
        let rings = st.end - t.start >= ROB_ENTRIES.min(RENAME_REGS);
        if rings {
            self.rob_ring = [0; ROB_ENTRIES];
            self.writer_ring = [0; RENAME_REGS];
        }
        // A perfectly predicted live-in of a spawned thread is available
        // the moment the thread is initialised, unconditionally: the whole
        // live-in path collapses to that constant (no stats, no RNG, so
        // skipping the predictor is exact).
        let perfect = t.pair.is_some() && self.cfg.value_predictor == ValuePredictorKind::Perfect;
        let end = match (self.observing, rings, perfect) {
            (false, false, false) => self.window::<false, false, false>(t, &mut st),
            (false, false, true) => self.window::<false, false, true>(t, &mut st),
            (false, true, false) => self.window::<false, true, false>(t, &mut st),
            (false, true, true) => self.window::<false, true, true>(t, &mut st),
            (true, false, false) => self.window::<true, false, false>(t, &mut st),
            (true, false, true) => self.window::<true, false, true>(t, &mut st),
            (true, true, false) => self.window::<true, true, false>(t, &mut st),
            (true, true, true) => self.window::<true, true, true>(t, &mut st),
        };
        self.finish_window(t, &st);
        (end, st.last_commit)
    }

    /// The record loop of one window under one [`Engine::step`] instance;
    /// returns the window's end.
    #[inline(never)]
    fn window<const OBSERVE: bool, const RINGS: bool, const PERFECT: bool>(
        &mut self,
        t: &PendingThread,
        st: &mut WinState,
    ) -> usize {
        let mut k = t.start;
        // The pc cursor, kept local while the window runs.
        let mut pc = self.pc_next;
        // `st.end` is re-read per instruction: a spawn can shrink it.
        while k < st.end {
            pc = self.step::<OBSERVE, RINGS, PERFECT>(t, k, pc, st);
            k += 1;
        }
        self.pc_next = pc;
        k
    }

    /// Initial per-window state for thread `t`, including window-local
    /// copies of the unit's port/FU availability (written back by
    /// [`Engine::finish_window`]).
    fn win_state(&mut self, t: &PendingThread) -> WinState {
        self.doomed.clear();
        self.touch_run.clear();
        // Live-in memo reset: one mask store (the value array persists).
        self.live_in_valid = 0;
        WinState {
            writers: 0,
            last_commit: t.init_done,
            fetch_cycle: t.init_done,
            slots: 0,
            ports: self.ports[t.tu],
            fus: self.fu_free[t.tu],
            // The window ends at the next more-speculative thread's start
            // (or the trace end); only a spawn can move it (and only
            // inward).
            end: self.chain.front().map_or(self.trace.len(), |c| c.start),
        }
    }

    /// Writes the window-local port/FU availability copies back and
    /// flushes trailing store touches (stores after the last load of the
    /// window still become resident); the epilogue of `process_window`.
    fn finish_window(&mut self, t: &PendingThread, st: &WinState) {
        self.ports[t.tu] = st.ports;
        self.fu_free[t.tu] = st.fus;
        if !self.touch_run.is_empty() {
            self.caches[t.tu].touch_run(&mut self.touch_run);
        }
    }

    /// Processes dynamic instruction `k`, at `pc`, in one pass through
    /// fetch hazards, spawn, operand readiness, issue, memory, write-back
    /// and control-flow redirect, which also yields the next record's pc.
    ///
    /// The one engine step, compiled once per combination of three
    /// per-window facts so none of them is tested per record: `OBSERVE`
    /// (events are emitted), `RINGS` (the window is long enough for the
    /// ROB or rename ring to fill) and `PERFECT` (a spawned thread under
    /// perfect value prediction, whose live-ins are all ready at
    /// `init_done`).
    ///
    /// `inline(always)`: it runs once per dynamic instruction; out of line
    /// it pays a ~250-line function's call/spill traffic on the hottest
    /// path in the simulator.
    #[allow(clippy::too_many_lines)]
    #[inline(always)]
    fn step<const OBSERVE: bool, const RINGS: bool, const PERFECT: bool>(
        &mut self,
        t: &PendingThread,
        k: usize,
        pc: u32,
        st: &mut WinState,
    ) -> u32 {
        let trace = self.trace;
        let pi = self.pre[pc as usize];

        // --- Fetch ---------------------------------------------------
        // A record waits for the one `ROB_ENTRIES` before it in the window
        // to commit, and a register writer for the writer `RENAME_REGS`
        // before it; the rings read 0 (no stall) until they wrap. Stall
        // checks select with cmov: whether the structural hazard bites is
        // data-dependent and defeats the branch predictor.
        let writes_reg = pi.flags & F_WRITES_REG != 0;
        if RINGS {
            let rob = self.rob_ring[(k - t.start) % ROB_ENTRIES];
            let writer = self.writer_ring[st.writers % RENAME_REGS];
            let oldest = rob.max(if writes_reg { writer } else { 0 });
            let stall = oldest > st.fetch_cycle;
            st.fetch_cycle = if stall { oldest } else { st.fetch_cycle };
            st.slots = if stall { 0 } else { st.slots };
        }
        if st.slots == FETCH_WIDTH {
            st.fetch_cycle += 1;
            st.slots = 0;
        }
        let f = st.fetch_cycle;
        st.slots += 1;

        // --- Spawn ---------------------------------------------------
        if pi.flags & F_SPAWN != 0 {
            if self.fast_decline
                && (pi.flags & F_DECLINES != 0 || self.tu_free_count == 0 || f < self.tu_min_free)
            {
                // No candidate can spawn, or no unit can accept a thread
                // at `f`: every path through the full attempt ends in
                // this same single decline with no other state change.
                self.result.spawns_declined += 1;
            } else {
                if let Some(d) = self.try_spawn(t, k, pc, f) {
                    self.doomed.push(d);
                }
                // A successful spawn may have chained a nearer
                // successor.
                st.end = self.chain.front().map_or(trace.len(), |c| c.start);
            }
        }

        // --- Operand readiness --------------------------------------
        // Register indices are below `NUM_REGS` by construction; reducing
        // them modulo it anyway (a mask) lets the compiler drop the bounds
        // checks.
        let r0 = usize::from(pi.src[0]) % specmt_isa::NUM_REGS;
        let r1 = usize::from(pi.src[1]) % specmt_isa::NUM_REGS;
        let (p0, p1) = (self.reg_writer[r0], self.reg_writer[r1]);
        let (c0, c1) = (self.reg_done[r0], self.reg_done[r1]);
        // Only then is `k` its destination's writer.
        let dst = usize::from(pi.dst) % REG_SLOTS;
        self.reg_writer[dst] = k as u32;
        let a0 = self.operand::<PERFECT>(t, r0, p0, c0);
        let a1 = self.operand::<PERFECT>(t, r1, p1, c1);
        let ready = (f + 1).max(a0).max(a1);

        // --- Issue: a port, then a functional unit -------------------
        // Tournament min over the four ports: three cmov selects instead
        // of a scan, the earliest index winning ties.
        let ports = &mut st.ports;
        let (i0, v0) = if ports[1] < ports[0] {
            (1, ports[1])
        } else {
            (0, ports[0])
        };
        let (i1, v1) = if ports[3] < ports[2] {
            (3, ports[3])
        } else {
            (2, ports[2])
        };
        let (port, pv) = if v1 < v0 { (i1, v1) } else { (i0, v0) };
        let t1 = ready.max(pv);
        ports[port] = t1 + 1;
        // Every class fields one or two units (`FU_TOTAL`): pick the later
        // one only if it frees strictly earlier, with a single compare.
        let fus = &mut st.fus;
        let first = usize::from(pi.fu_first) % FU_SLOTS;
        let last = usize::from(pi.fu_last) % FU_SLOTS;
        let unit = if fus[last] < fus[first] { last } else { first };
        let t2 = t1.max(fus[unit]);
        fus[unit] = t2 + u64::from(pi.fu_incr);
        let mut done = t2 + u64::from(pi.latency);

        // --- Memory --------------------------------------------------
        if pi.flags & F_LOAD != 0 {
            done = self.load::<OBSERVE>(t, done, t2, st);
        } else if pi.flags & F_STORE != 0 {
            let m = self.mem_next;
            self.mem_next += 1;
            self.touch_run.push(trace.mem_addrs()[m]);
            done = t2 + 1;
            debug_assert!(done <= u64::from(u32::MAX));
            self.mem_done[m] = done as u32;
        }

        self.reg_done[dst] = done;
        st.last_commit = st.last_commit.max(done);
        if RINGS {
            self.rob_ring[(k - t.start) % ROB_ENTRIES] = st.last_commit;
            if writes_reg {
                self.writer_ring[st.writers % RENAME_REGS] = st.last_commit;
                st.writers += 1;
            }
        }

        // --- Control-flow redirects and the next pc ------------------
        let mut next = pc + 1;
        if pi.flags & F_COND_BRANCH != 0 {
            self.result.branch_predictions += 1;
            let taken = trace.taken_at(k);
            next = if taken { pi.target } else { next };
            let pred = self.gshares[t.tu].predict_update(Pc(pc), taken);
            // Redirect selection in cmovs: prediction outcomes are the
            // canonical unpredictable branch.
            let hit = pred == taken;
            self.result.branch_hits += u64::from(hit);
            if self.conf_threshold > 0 {
                self.confs[t.tu].record(hit);
            }
            let redirect = if hit {
                if taken {
                    f + 1
                } else {
                    st.fetch_cycle
                }
            } else {
                done + MISPREDICT_PENALTY
            };
            st.fetch_cycle = st.fetch_cycle.max(redirect);
            st.slots = if hit && !taken { st.slots } else { 0 };
        } else if pi.flags & F_CONTROL != 0 {
            st.fetch_cycle = st.fetch_cycle.max(f + 1);
            st.slots = 0;
            // Jumps, calls and returns always redirect; a return that
            // ends the trace has no target and no successor to read one.
            next = if pi.flags & F_RET == 0 {
                pi.target
            } else {
                let to = trace.ret_targets().get(self.ret_next).copied();
                self.ret_next += 1;
                to.unwrap_or(0)
            };
        }
        next
    }

    /// The memory stage of a load issued at `t2` whose address is ready at
    /// `addr_ready`: the cache access, store-to-load forwarding and
    /// violation detection; returns when its value is available. Out of
    /// line: it keeps the step's common path short.
    #[inline(never)]
    fn load<const OBSERVE: bool>(
        &mut self,
        t: &PendingThread,
        addr_ready: u64,
        t2: u64,
        st: &mut WinState,
    ) -> u64 {
        let trace = self.trace;
        let m = self.mem_next;
        self.mem_next += 1;
        if !self.touch_run.is_empty() {
            self.caches[t.tu].touch_run(&mut self.touch_run);
        }
        let misses_before = if OBSERVE {
            self.caches[t.tu].stats().1
        } else {
            0
        };
        let mut data = self.caches[t.tu].access(trace.mem_addrs()[m], addr_ready);
        let cache_hit = !OBSERVE || self.caches[t.tu].stats().1 == misses_before;
        let jitter = self.faults.as_mut().map_or(0, |fi| fi.jitter());
        if jitter > 0 {
            self.result.fault_jitter_cycles += jitter;
            data += jitter;
            if OBSERVE {
                self.emit(Event::FaultInjected {
                    thread: t.id,
                    unit: t.tu as u32,
                    cycle: addr_ready,
                    kind: FaultKind::CacheJitter { cycles: jitter },
                });
            }
        }
        let mp = self.deps.mem_producers()[m];
        if mp != NO_PRODUCER {
            let mp = mp as usize;
            let stored = u64::from(self.mem_done[trace.mem_rank(mp)]);
            if mp >= t.start {
                // Same-thread store-to-load forwarding.
                data = data.max(stored);
            } else if stored > t2 {
                // Violation: the producing store in an earlier
                // thread executes after this load issued. Squash
                // and restart here.
                self.result.violations += 1;
                let restart = stored + self.cfg.forward_latency + SQUASH_PENALTY;
                data = data.max(restart);
                st.fetch_cycle = restart;
                st.slots = 0;
                if OBSERVE {
                    self.emit(Event::ViolationDetected {
                        thread: t.id,
                        unit: t.tu as u32,
                        cycle: t2,
                    });
                }
            } else {
                // Cross-thread forward out of the versioning cache.
                data = data.max(stored + self.cfg.forward_latency);
            }
        }
        if OBSERVE {
            self.emit(Event::CacheAccess {
                thread: t.id,
                unit: t.tu as u32,
                cycle: data,
                hit: cache_hit,
            });
        }
        data
    }

    /// Readiness of a source operand of the window's thread `t`: register
    /// `r`, last written by record `p` (`NO_PRODUCER` if never), which
    /// completed at `produced`. A producer inside the window (or none)
    /// gives `produced`; a live-in is the perfect predictor's constant,
    /// the memo, or the out-of-line [`Engine::live_in_time`].
    #[inline(always)]
    fn operand<const PERFECT: bool>(
        &mut self,
        t: &PendingThread,
        r: usize,
        p: u32,
        produced: u64,
    ) -> u64 {
        // `NO_PRODUCER` is above every window start, and a register never
        // written completed at 0.
        if p as usize >= t.start {
            produced
        } else if PERFECT {
            t.init_done
        } else if self.live_in_valid & (1 << r) != 0 {
            self.live_in_vals[r]
        } else {
            self.live_in_time(t, r, p as usize, produced)
        }
    }

    /// Availability time of a live-in register value whose producer `p`
    /// lies before the thread's window and completed at `produced`; `p`
    /// itself only names the value a predictor must guess. The caller has
    /// found no memoized time for `reg_idx`; this one is memoized.
    #[inline(never)]
    fn live_in_time(&mut self, t: &PendingThread, reg_idx: usize, p: usize, produced: u64) -> u64 {
        let forwarded = produced + self.cfg.forward_latency;
        let avail = match t.pair {
            // The root thread (no spawn): values flow in program order.
            None => t.init_done.max(forwarded),
            // Every live-in of a spawned thread goes through the value
            // predictor, as in the paper — including values the spawner had
            // already computed (loop invariants, base pointers); those are
            // the predictor's easy hits and part of its reported accuracy.
            Some(pid) => match self.cfg.value_predictor {
                ValuePredictorKind::Perfect => t.init_done,
                ValuePredictorKind::None => t.init_done.max(forwarded),
                _ => match self.predictor.as_mut() {
                    // Defensive: a table-backed kind always builds one.
                    None => t.init_done.max(forwarded),
                    Some(predictor) => {
                        let (sp_pc, cqip_pc) = self.pairs.keys[pid as usize];
                        let key = PredKey {
                            sp_pc,
                            cqip_pc,
                            reg: reg_idx as u8,
                        };
                        let actual = if p < self.trace.len() {
                            self.trace.result_at(p)
                        } else {
                            0
                        };
                        let mut guess = predictor.predict_and_train(key, actual);
                        let corrupted = self
                            .faults
                            .as_mut()
                            .is_some_and(FaultInjector::roll_corrupt_value);
                        if corrupted {
                            let delta = self.faults.as_mut().map_or(0, FaultInjector::corruption);
                            guess = guess.wrapping_add(delta);
                            self.result.fault_corrupted_values += 1;
                            if self.observing {
                                self.emit(Event::FaultInjected {
                                    thread: t.id,
                                    unit: t.tu as u32,
                                    cycle: t.init_done,
                                    kind: FaultKind::CorruptedValue,
                                });
                            }
                        }
                        self.result.value_predictions += 1;
                        if guess == actual {
                            self.result.value_hits += 1;
                            t.init_done
                        } else {
                            t.init_done.max(forwarded)
                        }
                    }
                },
            },
        };
        self.live_in_vals[reg_idx] = avail;
        self.live_in_valid |= 1 << reg_idx;
        avail
    }

    /// Attempts a spawn at dynamic index `k` (an SP occurrence whose static
    /// pc is `pc`) at cycle `f`. Returns a doomed child to record, if the
    /// spawn was a control misspeculation. Reads `self.doomed` for the
    /// window's already-doomed children (CQIP conflict checks).
    #[inline(never)]
    fn try_spawn(&mut self, t: &PendingThread, k: usize, pc: u32, f: u64) -> Option<DoomedChild> {
        // Confidence gate: a unit mispredicting its recent branches is
        // somewhere control-unstable, so the spawn attempt itself is
        // suppressed — before any candidate (or fault roll) is considered,
        // exactly as the hardware would kill the spawn at fetch.
        if self.conf_threshold > 0 && self.confs[t.tu].level() < self.conf_threshold {
            self.result.spawns_declined += 1;
            self.result.spawns_gated += 1;
            if self.observing {
                self.emit(Event::SpawnGated {
                    thread: t.id,
                    unit: t.tu as u32,
                    cycle: f,
                    reason: GateReason::LowConfidence,
                });
            }
            return None;
        }
        // Chaos: the spawn opportunity is silently lost (a flaky spawn
        // unit), before any candidate is even considered.
        let spawn_dropped = self
            .faults
            .as_mut()
            .is_some_and(FaultInjector::roll_drop_spawn);
        if spawn_dropped {
            self.result.fault_dropped_spawns += 1;
            self.result.spawns_declined += 1;
            if self.observing {
                self.emit(Event::FaultInjected {
                    thread: t.id,
                    unit: t.tu as u32,
                    cycle: f,
                    kind: FaultKind::DroppedSpawn,
                });
            }
            return None;
        }
        let c0 = self.cand_offsets[pc as usize] as usize;
        let c1 = self.cand_offsets[pc as usize + 1] as usize;
        for ci in c0..c1 {
            let pid = self.cand_pair[ci] as usize;
            if self.pairs.removed[pid] {
                if self.cfg.reassign {
                    continue;
                }
                self.result.spawns_declined += 1;
                return None;
            }
            // Scoreboard demotion: a runtime blacklist fed by squashes,
            // consulted like removal but permanent and with its own
            // accounting (the gate is the sole decider for this decline).
            if self
                .scoreboard
                .as_ref()
                .is_some_and(|sb| sb.is_demoted(pid))
            {
                if self.cfg.reassign {
                    continue;
                }
                self.result.spawns_declined += 1;
                self.result.spawns_gated += 1;
                if self.observing {
                    self.emit(Event::SpawnGated {
                        thread: t.id,
                        unit: t.tu as u32,
                        cycle: f,
                        reason: GateReason::Demoted,
                    });
                }
                return None;
            }
            // Hardware check: a more speculative thread already started at
            // this CQIP (counts cover the chain and this window's doomed).
            let cd = self.cand_cqip[ci] as usize;
            if self.cqip_active[cd] > 0 {
                if self.cfg.reassign {
                    continue;
                }
                self.result.spawns_declined += 1;
                return None;
            }
            // A free thread unit at spawn time.
            let Some(tu) = self.tu_find_free(f) else {
                self.result.spawns_declined += 1;
                return None;
            };
            self.tu_claim(tu);
            self.result.threads_spawned += 1;
            if let Some(sb) = self.scoreboard.as_mut() {
                sb.record_spawn(pid);
            }
            let id = self.next_thread_id;
            self.next_thread_id += 1;
            if self.observing {
                self.emit(Event::ThreadSpawned {
                    thread: id,
                    unit: tu as u32,
                    cycle: f,
                    speculative: true,
                });
            }
            // Chaos: a spontaneous squash kills the child right after the
            // unit was claimed — it burns the unit until its spawner joins,
            // exactly like a control misspeculation, so the committed
            // stream is untouched.
            let forced_squash = self.faults.as_mut().is_some_and(FaultInjector::roll_squash);
            if forced_squash {
                self.result.fault_forced_squashes += 1;
                if self.observing {
                    self.emit(Event::FaultInjected {
                        thread: id,
                        unit: tu as u32,
                        cycle: f,
                        kind: FaultKind::ForcedSquash,
                    });
                }
                self.cqip_active[cd] += 1;
                return Some(DoomedChild {
                    id,
                    tu,
                    spawn_time: f,
                    cd: cd as u32,
                    pair: pid as PairId,
                    fault: true,
                });
            }
            // Oracle: where does this CQIP next occur? The spawn is a
            // control misspeculation unless the CQIP recurs before the
            // spawner's current immediate successor: hardware discovers
            // the mismatch when the spawner joins a different thread
            // first (e.g. spawning "one more iteration" exactly when the
            // loop exits).
            let bound = self.chain.front().map(|c| c.start);
            let next = self.occurrences.next_after(cd, k, bound);
            match next {
                None => {
                    // Control misspeculation: squashed when we join.
                    self.cqip_active[cd] += 1;
                    return Some(DoomedChild {
                        id,
                        tu,
                        spawn_time: f,
                        cd: cd as u32,
                        pair: pid as PairId,
                        fault: false,
                    });
                }
                Some(j) => {
                    let child = PendingThread {
                        id,
                        start: j as usize,
                        spawn_time: f,
                        init_done: f + 1 + self.cfg.init_overhead,
                        tu,
                        pair: Some(pid as PairId),
                        cd: cd as u32,
                    };
                    let pos = self.chain.partition_point(|c| c.start < child.start);
                    debug_assert!(
                        self.chain.get(pos).is_none_or(|c| c.start != child.start),
                        "two threads cannot share a start"
                    );
                    self.cqip_active[cd] += 1;
                    self.chain.insert(pos, child);
                    return None;
                }
            }
        }
        self.result.spawns_declined += 1;
        None
    }

    /// Removes every pair whose observed average thread size (squashed
    /// children count as zero) fell below the configured minimum, resetting
    /// the survivors' statistics so they are re-measured under the new pair
    /// mix.
    fn check_min_size_removals(&mut self, min: u32) {
        // Remove at most the single worst offender per sweep: sizes are a
        // property of the whole pair mix (interleaved spawning shortens
        // everybody), so survivors must be re-measured before judging them.
        // Only the pairs this retire charged can have become undersized,
        // so the pick visits the suspects, not every pair.
        if let Some(i) = self.pairs.pick_undersized(min) {
            self.remove_pair(i);
            self.pairs.reset_samples();
            self.result.pairs_removed += 1;
        }
    }

    /// Removes pair `pid` for good. Once no candidate of its spawning
    /// point can spawn (the first is removed, which declines the attempt,
    /// or, under reassignment, every one is), the point is marked
    /// `F_DECLINES`.
    fn remove_pair(&mut self, pid: usize) {
        self.pairs.removed[pid] = true;
        let sp = self.pairs.keys[pid].0 as usize;
        let (Some(&c0), Some(&c1)) = (self.cand_offsets.get(sp), self.cand_offsets.get(sp + 1))
        else {
            return;
        };
        let removed = |ci: u32| self.pairs.removed[self.cand_pair[ci as usize] as usize];
        let declines = if self.cfg.reassign {
            (c0..c1).all(removed)
        } else {
            c0 < c1 && removed(c0)
        };
        if declines {
            self.pre[sp].flags |= F_DECLINES;
        }
    }

    /// The §4.2 removal mechanisms, applied when a thread retires.
    fn apply_dynamic_policies(
        &mut self,
        t: &PendingThread,
        doomed: &[DoomedChild],
        exec_done: u64,
        window_len: u64,
        pred_commit: u64,
    ) {
        let Some(pid) = t.pair else {
            // The root thread has no pair, but its doomed children still
            // count for the minimum-size policy.
            if let Some(min) = self.cfg.min_observed_size {
                for d in doomed {
                    self.pairs.sample_squash(d.pair as usize, min);
                }
                self.check_min_size_removals(min);
            }
            return;
        };
        let pid = pid as usize;

        // Chaos: condemn the retiring thread's pair as if a dynamic policy
        // had removed it.
        let forced_removal = self
            .faults
            .as_mut()
            .is_some_and(FaultInjector::roll_remove_pair);
        if forced_removal && !self.pairs.removed[pid] {
            self.remove_pair(pid);
            self.result.pairs_removed += 1;
            self.result.fault_forced_removals += 1;
            if self.observing {
                self.emit(Event::FaultInjected {
                    thread: t.id,
                    unit: t.tu as u32,
                    cycle: exec_done,
                    kind: FaultKind::ForcedRemoval,
                });
            }
        }

        if let Some(min) = self.cfg.min_observed_size {
            // Squashed children are the ultimate undersized thread: charge
            // them to their pair as zero-size observations.
            for d in doomed {
                self.pairs.sample_squash(d.pair as usize, min);
            }
            self.pairs.sample_commit(pid, window_len, min);
            self.check_min_size_removals(min);
        }

        if let Some(policy) = self.cfg.removal {
            // Time this thread spent as the only active thread: from its
            // init *and* the commit of its predecessor (earlier threads
            // still running mean it is not alone) until its first successor
            // spawned.
            let alone_start = t.init_done.max(pred_commit);
            let alone_end = self
                .chain
                .iter()
                .map(|c| c.spawn_time)
                .chain(doomed.iter().map(|d| d.spawn_time))
                .fold(exec_done, u64::min);
            if alone_end > alone_start
                && alone_end - alone_start > policy.alone_cycles
                && !self.pairs.removed[pid]
            {
                self.pairs.alone_count[pid] += 1;
                if self.pairs.alone_count[pid] >= policy.occurrences {
                    self.remove_pair(pid);
                    self.result.pairs_removed += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use specmt_isa::{Pc, ProgramBuilder, Reg};
    use specmt_spawn::{PairOrigin, SpawnPair};

    fn pair(sp: u32, cqip: u32) -> SpawnPair {
        SpawnPair {
            sp: Pc(sp),
            cqip: Pc(cqip),
            prob: 1.0,
            avg_dist: 40.0,
            score: 1.0,
            origin: PairOrigin::Profile,
        }
    }

    /// A loop whose iterations are fully independent except the induction
    /// variable (distinct memory blocks per iteration).
    fn independent_loop(n: i64) -> Trace {
        let mut b = ProgramBuilder::new();
        let top = b.fresh_label("top");
        b.li(Reg::R14, 0x10000);
        b.li(Reg::R1, 0);
        b.li(Reg::R2, n);
        b.bind(top);
        b.shli(Reg::R3, Reg::R1, 6);
        b.add(Reg::R3, Reg::R14, Reg::R3);
        for i in 0..8 {
            b.ld(Reg::R4, Reg::R3, i * 8);
            b.muli(Reg::R4, Reg::R4, 3);
            b.addi(Reg::R4, Reg::R4, 1);
            b.st(Reg::R4, Reg::R3, i * 8);
        }
        b.addi(Reg::R1, Reg::R1, 1);
        b.blt(Reg::R1, Reg::R2, top);
        b.halt();
        Trace::generate(b.build().unwrap(), 1_000_000).unwrap()
    }

    #[test]
    fn single_threaded_baseline_is_sane() {
        let trace = independent_loop(50);
        let r = Simulator::new(&trace, SimConfig::single_threaded())
            .run()
            .expect("simulation");
        assert_eq!(r.committed_instructions, trace.len() as u64);
        assert_eq!(r.threads_committed, 1);
        let ipc = r.ipc();
        assert!(ipc > 0.3 && ipc <= 4.0, "ipc {ipc}");
        assert_eq!(r.threads_spawned, 0);
        assert_eq!(r.violations, 0);
    }

    #[test]
    fn loop_iteration_spawning_speeds_up() {
        let trace = independent_loop(200);
        let baseline = Simulator::new(&trace, SimConfig::single_threaded())
            .run()
            .expect("simulation");
        // Self pair at the loop head (@3).
        let table = SpawnTable::from_pairs(vec![pair(3, 3)]);
        let spec = Simulator::with_table(&trace, SimConfig::paper(8), &table)
            .run()
            .expect("simulation");
        assert_eq!(spec.committed_instructions, trace.len() as u64);
        assert!(spec.threads_spawned > 100);
        assert!(
            spec.cycles * 2 < baseline.cycles,
            "speculative {} vs baseline {}",
            spec.cycles,
            baseline.cycles
        );
        assert!(spec.avg_active_threads() > 2.0);
    }

    #[test]
    fn empty_table_matches_single_threaded_cycles() {
        let trace = independent_loop(30);
        let a = Simulator::new(&trace, SimConfig::single_threaded())
            .run()
            .expect("simulation");
        let b = Simulator::new(&trace, SimConfig::paper(16))
            .run()
            .expect("simulation");
        assert_eq!(a.cycles, b.cycles);
    }

    #[test]
    fn more_thread_units_never_slow_down_this_loop() {
        let trace = independent_loop(100);
        let table = SpawnTable::from_pairs(vec![pair(3, 3)]);
        let c4 = Simulator::with_table(&trace, SimConfig::paper(4), &table)
            .run()
            .expect("simulation");
        let c16 = Simulator::with_table(&trace, SimConfig::paper(16), &table)
            .run()
            .expect("simulation");
        assert!(c16.cycles <= c4.cycles);
    }

    #[test]
    fn sixty_four_units_run_and_sixty_five_are_rejected() {
        // 64 units fill the free-unit mask exactly; 65 fail validation
        // before any engine state is built.
        let trace = independent_loop(200);
        let table = SpawnTable::from_pairs(vec![pair(3, 3)]);
        let c16 = Simulator::with_table(&trace, SimConfig::paper(16), &table)
            .run()
            .expect("simulation");
        let c64 = Simulator::with_table(&trace, SimConfig::paper(64), &table)
            .run()
            .expect("simulation");
        assert_eq!(c64.committed_instructions, trace.len() as u64);
        assert!(c64.cycles <= c16.cycles);
        // Over 32 threads in flight on average: the high half of the mask
        // is claimed and released, not just carried.
        assert!(
            c64.avg_active_threads() > 32.0,
            "{}",
            c64.avg_active_threads()
        );
        let err = Simulator::with_table(&trace, SimConfig::paper(65), &table)
            .run()
            .unwrap_err();
        assert!(matches!(err, SimError::InvalidConfig { .. }), "{err}");
    }

    #[test]
    fn doomed_spawn_squashes_at_join() {
        // The SP fires on every iteration, but the CQIP (@0, the entry)
        // never executes again: every spawn is a control misspeculation.
        let trace = independent_loop(20);
        let table = SpawnTable::from_pairs(vec![pair(3, 0)]);
        let r = Simulator::with_table(&trace, SimConfig::paper(4), &table)
            .run()
            .expect("simulation");
        assert!(r.threads_spawned >= 1);
        assert_eq!(r.threads_squashed, r.threads_spawned);
        assert_eq!(r.committed_instructions, trace.len() as u64);
    }

    #[test]
    fn value_prediction_modes_order_sensibly() {
        let trace = independent_loop(200);
        let table = SpawnTable::from_pairs(vec![pair(3, 3)]);
        let run = |kind| {
            Simulator::with_table(
                &trace,
                SimConfig::paper(8).with_value_predictor(kind),
                &table,
            )
            .run()
            .expect("simulation")
        };
        let perfect = run(ValuePredictorKind::Perfect);
        let stride = run(ValuePredictorKind::Stride);
        let none = run(ValuePredictorKind::None);
        // The induction variable strides; the stride predictor should be
        // close to perfect, and `none` must be the slowest.
        assert!(perfect.cycles <= stride.cycles);
        assert!(stride.cycles <= none.cycles);
        assert!(stride.value_predictions > 0);
        // Declined spawns leave gaps in the live-in sequence, so even a
        // pure induction variable lands around the paper's ~70 % accuracy.
        assert!(
            stride.value_hit_ratio() > 0.6,
            "{}",
            stride.value_hit_ratio()
        );
    }

    #[test]
    fn serial_memory_chain_triggers_violations_or_stalls() {
        // Each iteration reads the location the previous iteration wrote:
        // cross-thread memory dependences on every spawn.
        let mut b = ProgramBuilder::new();
        let top = b.fresh_label("top");
        b.li(Reg::R14, 0x10000);
        b.li(Reg::R1, 0);
        b.li(Reg::R2, 100);
        b.bind(top);
        b.ld(Reg::R4, Reg::R14, 0);
        for _ in 0..20 {
            b.muli(Reg::R4, Reg::R4, 3);
        }
        b.st(Reg::R4, Reg::R14, 0);
        b.addi(Reg::R1, Reg::R1, 1);
        b.blt(Reg::R1, Reg::R2, top);
        b.halt();
        let trace = Trace::generate(b.build().unwrap(), 100_000).unwrap();
        let table = SpawnTable::from_pairs(vec![pair(3, 3)]);
        let r = Simulator::with_table(&trace, SimConfig::paper(8), &table)
            .run()
            .expect("simulation");
        assert!(r.violations > 0, "expected memory violations");
        assert_eq!(r.committed_instructions, trace.len() as u64);
        // The serial chain caps the benefit.
        let baseline = Simulator::new(&trace, SimConfig::single_threaded())
            .run()
            .expect("simulation");
        assert!(r.cycles * 3 > baseline.cycles);
    }

    #[test]
    fn init_overhead_costs_cycles() {
        let trace = independent_loop(100);
        let table = SpawnTable::from_pairs(vec![pair(3, 3)]);
        let free = Simulator::with_table(&trace, SimConfig::paper(8), &table)
            .run()
            .expect("simulation");
        let taxed =
            Simulator::with_table(&trace, SimConfig::paper(8).with_init_overhead(8), &table)
                .run()
                .expect("simulation");
        assert!(taxed.cycles > free.cycles);
    }

    #[test]
    fn removal_policy_cancels_imbalanced_pairs() {
        // A pair spanning the whole loop: its thread runs alone for ages.
        let mut b = ProgramBuilder::new();
        let top = b.fresh_label("top");
        b.li(Reg::R1, 0); // @0
        b.li(Reg::R2, 40); // @1
        b.bind(top);
        for _ in 0..30 {
            b.addi(Reg::R3, Reg::R3, 1);
        }
        b.addi(Reg::R1, Reg::R1, 1);
        b.blt(Reg::R1, Reg::R2, top);
        b.halt(); // @33
        let trace = Trace::generate(b.build().unwrap(), 100_000).unwrap();
        // Spawn the loop exit from the entry: the child waits alone-ish...
        // then the parent (running the whole loop) is the long pole. Use a
        // self-pair with a huge serial chain instead: each child depends on
        // its predecessor through r3, running alone while waiting.
        let table = SpawnTable::from_pairs(vec![pair(2, 2)]);
        let cfg = SimConfig::paper(4)
            .with_value_predictor(ValuePredictorKind::None)
            .with_removal(crate::RemovalPolicy {
                alone_cycles: 10,
                occurrences: 1,
            });
        let r = Simulator::with_table(&trace, cfg, &table)
            .run()
            .expect("simulation");
        assert!(r.pairs_removed >= 1, "pair should be removed: {r:?}");
    }

    #[test]
    fn min_observed_size_removes_small_threads() {
        let trace = independent_loop(100);
        let table = SpawnTable::from_pairs(vec![pair(3, 3)]);
        let mut cfg = SimConfig::paper(8);
        cfg.min_observed_size = Some(100); // iterations are ~36 instructions
        let r = Simulator::with_table(&trace, cfg, &table)
            .run()
            .expect("simulation");
        assert_eq!(r.pairs_removed, 1);
        // After removal, spawning stops.
        let unlimited = Simulator::with_table(&trace, SimConfig::paper(8), &table)
            .run()
            .expect("simulation");
        assert!(r.threads_spawned < unlimited.threads_spawned);
    }

    #[test]
    fn branch_predictor_tables_persist_across_threads() {
        let trace = independent_loop(300);
        let table = SpawnTable::from_pairs(vec![pair(3, 3)]);
        let r = Simulator::with_table(&trace, SimConfig::paper(4), &table)
            .run()
            .expect("simulation");
        // The loop branch is overwhelmingly taken; persistent gshare state
        // should predict it well despite thread switches.
        assert!(r.branch_hit_ratio() > 0.8, "{}", r.branch_hit_ratio());
    }

    /// Straight-line independent code mixing integer, load/store and FP
    /// work, whose functional units could issue six per cycle.
    fn mixed_straight_line(n: usize) -> Trace {
        let mut b = ProgramBuilder::new();
        for i in 0..n {
            let r = Reg::new(1 + (i % 8) as u8).unwrap();
            match i % 3 {
                0 => b.addi(r, Reg::ZERO, 1),
                1 => b.st(Reg::ZERO, Reg::ZERO, 8 * i as i64),
                _ => b.fadd(r, Reg::ZERO, Reg::ZERO),
            };
        }
        b.halt();
        Trace::generate(b.build().unwrap(), 10_000).unwrap()
    }

    /// Fetch delivers `FETCH_WIDTH` instructions per cycle: straight-line
    /// code whose functional units could go faster runs at that rate, and
    /// a spawning point `k` instructions in is reached, and fires, at cycle
    /// `k / FETCH_WIDTH`.
    #[test]
    fn fetch_width_bounds_straight_line_code() {
        let trace = mixed_straight_line(400);
        let n = trace.len() as u64;
        let cycles = single_threaded_cycles(&trace);
        let floor = n / u64::from(FETCH_WIDTH);
        assert!(
            cycles >= floor && cycles <= floor + 8,
            "{cycles} cycles for {n}"
        );

        let table = SpawnTable::from_pairs(vec![pair(200, 300)]);
        let mut log = specmt_obs::EventLog::new();
        Simulator::with_table(&trace, SimConfig::paper(2), &table)
            .run_with_sink(&mut log)
            .expect("simulation");
        let spawned: Vec<u64> = log
            .events()
            .iter()
            .filter_map(|e| match *e {
                Event::ThreadSpawned {
                    cycle,
                    speculative: true,
                    ..
                } => Some(cycle),
                _ => None,
            })
            .collect();
        assert_eq!(spawned, [200 / u64::from(FETCH_WIDTH)]);
    }

    /// Dependent FP divides (17 cycles each) at the head of
    /// [`divides_then`]'s program, at trace indices `1..=DIVIDES`.
    const DIVIDES: usize = 3;

    /// An `li`, a chain of [`DIVIDES`] dependent FP divides, `n` independent
    /// instructions built by `filler`, and a `halt`.
    fn divides_then(n: usize, filler: impl Fn(&mut ProgramBuilder, usize)) -> Trace {
        let mut b = ProgramBuilder::new();
        b.li(Reg::R1, 3);
        for _ in 0..DIVIDES {
            b.fdiv(Reg::R1, Reg::R1, Reg::R1);
        }
        for i in 0..n {
            filler(&mut b, i);
        }
        b.halt();
        Trace::generate(b.build().unwrap(), 10_000).unwrap()
    }

    fn single_threaded_cycles(trace: &Trace) -> u64 {
        Simulator::new(trace, SimConfig::single_threaded())
            .run()
            .expect("simulation")
            .cycles
    }

    /// §4.1's 64 physical registers leave 32 rename registers: a register
    /// writer cannot fetch until the writer 32 before it commits. Behind a
    /// long divide chain, more writers than the pool (but fewer
    /// instructions than the ROB) queue, and those past the pool wait for
    /// the chain instead of finishing under its shadow.
    #[test]
    fn physical_registers_throttle_renaming() {
        let n = 56;
        let trace = divides_then(n, |b, i| {
            b.addi(Reg::new(2 + (i % 8) as u8).unwrap(), Reg::ZERO, 1);
        });
        assert!(trace.len() < ROB_ENTRIES);
        let head = single_threaded_cycles(&divides_then(0, |_, _| {}));
        // Writers are the `li`, the divides and the adds; the one at index
        // `DIVIDES + RENAME_REGS` waits for the last divide. The adds from
        // there on issue after it, two per cycle (two simple integer units).
        let writers = 1 + DIVIDES + n;
        let tail = (writers - (DIVIDES + RENAME_REGS)) as u64 / 2;
        let cycles = single_threaded_cycles(&trace);
        assert!(
            cycles >= head + tail,
            "{cycles} cycles vs chain {head} + tail {tail}"
        );
    }

    /// The 64-entry ROB bounds how far fetch runs ahead of commit: stores
    /// (which write no register, so renaming never binds) behind a long
    /// divide chain fill it, and those past it wait for the chain to commit.
    #[test]
    fn rob_pressure_slows_execution() {
        let trace = divides_then(100, |b, i| {
            b.st(Reg::ZERO, Reg::ZERO, 8 * i as i64);
        });
        let head = single_threaded_cycles(&divides_then(0, |_, _| {}));
        // The instruction at index `DIVIDES + ROB_ENTRIES` waits for the
        // last divide; the stores from there on (all but the `halt`) issue
        // after it, two per cycle (two load/store units).
        let tail = (trace.len() - (DIVIDES + ROB_ENTRIES) - 1) as u64 / 2;
        let cycles = single_threaded_cycles(&trace);
        assert!(
            cycles >= head + tail,
            "{cycles} cycles vs chain {head} + tail {tail}"
        );
    }

    /// The init overhead delays the first fetch of every spawned thread;
    /// with one spawn the cycle delta is bounded by the overhead itself.
    #[test]
    fn init_overhead_is_charged_to_the_spawned_thread() {
        let trace = independent_loop(2);
        let table = SpawnTable::from_pairs(vec![pair(3, 3)]);
        let base = Simulator::with_table(&trace, SimConfig::paper(2), &table)
            .run()
            .expect("simulation");
        let taxed =
            Simulator::with_table(&trace, SimConfig::paper(2).with_init_overhead(40), &table)
                .run()
                .expect("simulation");
        assert!(taxed.cycles >= base.cycles);
        assert!(
            taxed.cycles <= base.cycles + 40 * (base.threads_spawned + 1),
            "overhead over-charged: {} vs {}",
            taxed.cycles,
            base.cycles
        );
    }

    /// Spawns are declined while another active thread already starts at
    /// the same CQIP pc, so at most one next-iteration thread per pc is in
    /// flight per spawner generation.
    #[test]
    fn cqip_conflicts_decline_spawns() {
        let trace = independent_loop(50);
        let table = SpawnTable::from_pairs(vec![pair(3, 3)]);
        let r = Simulator::with_table(&trace, SimConfig::paper(16), &table)
            .run()
            .expect("simulation");
        assert!(r.spawns_declined > 0, "{r:?}");
        // Committed thread count can never exceed iterations + 1.
        assert!(r.threads_committed <= 51);
    }

    /// Reassign falls back to the second-ranked CQIP once the first is
    /// blocked, so it spawns at least as often as the base policy.
    #[test]
    fn reassign_spawns_at_least_as_often() {
        let trace = independent_loop(100);
        let table = SpawnTable::from_pairs(vec![pair(3, 3), pair(3, 41)]);
        let base = Simulator::with_table(&trace, SimConfig::paper(8), &table)
            .run()
            .expect("simulation");
        let mut cfg = SimConfig::paper(8);
        cfg.reassign = true;
        let re = Simulator::with_table(&trace, cfg, &table)
            .run()
            .expect("simulation");
        assert!(re.threads_spawned >= base.threads_spawned);
        assert_eq!(re.committed_instructions, trace.len() as u64);
    }

    /// Cache locality matters: a scattered access pattern costs more cycles
    /// than a sequential one of identical instruction mix.
    #[test]
    fn cache_misses_cost_cycles() {
        let build = |stride: i64| {
            let mut b = ProgramBuilder::new();
            let top = b.fresh_label("top");
            b.li(Reg::R14, 0x100000);
            b.li(Reg::R1, 0);
            b.li(Reg::R2, 400);
            b.bind(top);
            b.muli(Reg::R3, Reg::R1, stride);
            b.add(Reg::R3, Reg::R14, Reg::R3);
            b.ld(Reg::R4, Reg::R3, 0);
            b.add(Reg::R5, Reg::R5, Reg::R4);
            b.addi(Reg::R1, Reg::R1, 1);
            b.blt(Reg::R1, Reg::R2, top);
            b.halt();
            Trace::generate(b.build().unwrap(), 100_000).unwrap()
        };
        let dense = Simulator::new(&build(8), SimConfig::single_threaded())
            .run()
            .expect("simulation");
        // 4 KiB stride: every access a fresh block, conflict misses galore.
        let sparse = Simulator::new(&build(4096), SimConfig::single_threaded())
            .run()
            .expect("simulation");
        // Dense: one miss per four accesses (8B stride in 32B blocks).
        // Sparse: every access misses (4 KiB stride cycles few sets).
        assert!(sparse.cache_misses > dense.cache_misses * 3);
        assert!(sparse.cycles > dense.cycles);
    }

    /// Thread lifetimes can never start before their spawner's init and the
    /// aggregate active-thread average stays within the unit count.
    #[test]
    fn active_threads_bounded_by_units() {
        let trace = independent_loop(200);
        let table = SpawnTable::from_pairs(vec![pair(3, 3)]);
        for tus in [2usize, 4, 8] {
            let r = Simulator::with_table(&trace, SimConfig::paper(tus), &table)
                .run()
                .expect("simulation");
            let act = r.avg_active_threads();
            assert!(act <= tus as f64 + 1e-9, "{act} > {tus}");
            assert!(act >= 1.0);
        }
    }

    /// A squash-every-time pair is demoted after exactly `threshold`
    /// squashes and never spawns again, with every later attempt counted
    /// (and emitted) as gated.
    #[test]
    fn scoreboard_demotes_squash_heavy_pairs() {
        use specmt_spawn::AdaptivePolicy;
        let trace = independent_loop(40);
        // pair(3, 3) retires a window per iteration; pair(5, 0)'s CQIP
        // never recurs, so its child squashes at every one of those
        // retires — the squash-heavy pair the scoreboard exists to kill.
        let plain = SpawnTable::from_pairs(vec![pair(3, 3), pair(5, 0)]);
        let policy = AdaptivePolicy {
            demote_threshold: Some(2),
            confidence_threshold: None,
        };
        let table = plain.clone().with_adaptive(policy);
        let base = Simulator::with_table(&trace, SimConfig::paper(4), &plain)
            .run()
            .expect("simulation");
        let r = Simulator::with_table(&trace, SimConfig::paper(4), &table)
            .run()
            .expect("simulation");
        assert!(base.threads_squashed > 4, "{base:?}");
        assert_eq!(r.pairs_demoted, 1);
        assert!(r.spawns_gated > 0);
        assert!(r.threads_squashed < base.threads_squashed, "{r:?}");
        assert_eq!(r.committed_instructions, trace.len() as u64);
    }

    /// A policy whose gate threshold is zero (and no demote threshold) is
    /// inactive: the run is bit-identical to the bare table, fast-decline
    /// shortcut included.
    #[test]
    fn inactive_policy_is_bit_identical_to_no_policy() {
        use specmt_spawn::AdaptivePolicy;
        let trace = independent_loop(100);
        let plain = SpawnTable::from_pairs(vec![pair(3, 3)]);
        let gated = plain.clone().with_adaptive(AdaptivePolicy {
            demote_threshold: None,
            confidence_threshold: Some(0),
        });
        let a = Simulator::with_table(&trace, SimConfig::paper(8), &plain)
            .run()
            .expect("simulation");
        let b = Simulator::with_table(&trace, SimConfig::paper(8), &gated)
            .run()
            .expect("simulation");
        assert_eq!(a, b);
    }

    /// The strictest confidence gate (level 8 of 8) suppresses spawns
    /// whenever any of the unit's last eight branches mispredicted, yet
    /// never perturbs the committed stream.
    #[test]
    fn confidence_gate_declines_after_mispredicts() {
        use specmt_spawn::AdaptivePolicy;
        let trace = independent_loop(100);
        let table = SpawnTable::from_pairs(vec![pair(3, 3)]).with_adaptive(AdaptivePolicy {
            demote_threshold: None,
            confidence_threshold: Some(8),
        });
        let r = Simulator::with_table(&trace, SimConfig::paper(8), &table)
            .run()
            .expect("simulation");
        assert!(r.spawns_gated > 0, "{r:?}");
        assert!(r.spawns_gated <= r.spawns_declined);
        assert!(r.threads_spawned > 0, "the gate must reopen once confident");
        assert_eq!(r.committed_instructions, trace.len() as u64);
    }

    /// The minimum-size pick as a scan of every pair, in id order, with
    /// the guilt order spelled out: the reference for the suspect list.
    fn full_scan_pick(a: &PairArena, min: u32) -> Option<usize> {
        let mut worst: Option<usize> = None;
        for i in 0..a.keys.len() {
            if a.removed[i]
                || a.size_samples[i] < MIN_SIZE_SAMPLES
                || a.size_sum[i] >= u64::from(min) * u64::from(a.size_samples[i])
            {
                continue;
            }
            let better = match worst {
                None => true,
                Some(b) => {
                    let zi = a.size_zeros[i] as f64 / a.size_samples[i] as f64;
                    let zb = a.size_zeros[b] as f64 / a.size_samples[b] as f64;
                    let si = a.size_sum[i] as f64 / a.size_samples[i] as f64;
                    let sb = a.size_sum[b] as f64 / a.size_samples[b] as f64;
                    zi.total_cmp(&zb)
                        .then(sb.total_cmp(&si))
                        .then(a.keys[i].cmp(&a.keys[b]))
                        .is_gt()
                }
            };
            if better {
                worst = Some(i);
            }
        }
        worst
    }

    proptest! {
        /// The incremental minimum-size pick equals a scan of every pair
        /// after each retire of a random sequence of committed sizes,
        /// squashes and removals by other policies, with the engine's
        /// removal and reset applied whenever a pair is picked.
        #[test]
        fn min_size_pick_matches_a_full_scan(
            n in 1u32..10,
            min in 1u32..48,
            retires in proptest::collection::vec(
                proptest::collection::vec((0u32..10, 0u8..8, 1u64..80), 0..6),
                1..150,
            ),
        ) {
            let pairs: Vec<SpawnPair> = (0..n).map(|i| pair(i, i + 1)).collect();
            let mut arena = PairArena::new(&SpawnTable::from_pairs(pairs));
            let mut picks = 0;
            for retire in &retires {
                for &(p, event, size) in retire {
                    let i = (p % n) as usize;
                    match event {
                        0..=2 => arena.sample_squash(i, min),
                        3..=6 => arena.sample_commit(i, size, min),
                        _ => arena.removed[i] = true,
                    }
                }
                let expected = full_scan_pick(&arena, min);
                prop_assert_eq!(arena.pick_undersized(min), expected);
                if let Some(i) = expected {
                    arena.removed[i] = true;
                    arena.reset_samples();
                    picks += 1;
                }
                for (i, &s) in arena.suspected.iter().enumerate() {
                    prop_assert_eq!(s, arena.suspects.contains(&(i as PairId)));
                }
            }
            prop_assert!(picks <= n);
        }

        /// Pair interning assigns ids in exactly the order the replaced
        /// `BTreeMap<(u32, u32), PairRuntime>` iterated: ascending by
        /// `(sp, cqip)` key, with duplicates collapsed.
        #[test]
        fn pair_interning_matches_btreemap_order(
            raw in proptest::collection::vec((0u32..500, 0u32..500), 0..64)
        ) {
            let pairs: Vec<SpawnPair> =
                raw.iter().map(|&(sp, cqip)| pair(sp, cqip)).collect();
            let table = SpawnTable::from_pairs(pairs);
            let arena = PairArena::new(&table);
            let reference: std::collections::BTreeMap<(u32, u32), ()> =
                table.iter().map(|p| ((p.sp.0, p.cqip.0), ())).collect();
            let keys: Vec<(u32, u32)> = reference.into_keys().collect();
            prop_assert_eq!(&arena.keys, &keys);
            for (i, &k) in keys.iter().enumerate() {
                prop_assert_eq!(arena.id_of(k), Some(i as PairId));
            }
        }
    }
}
