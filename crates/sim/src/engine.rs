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
//! order), spawn candidates and CQIP occurrences in CSR offset+value
//! tables, per-thread-unit issue ports and functional units in flat
//! columns, and per-static-instruction facts predecoded into a [`PreInst`]
//! table so the cycle loop never interrogates the `Inst` enum.

use specmt_isa::{FuClass, Pc};
use specmt_obs::{Event, EventSink, FaultKind, GateReason, MetricsRegistry, SquashReason};
use specmt_predict::{Gshare, PredKey, SpawnConfidence, ValuePredictor, ValuePredictorKind};
use specmt_spawn::{AdaptiveState, SpawnTable};
use specmt_trace::{DepGraph, Trace, NO_PRODUCER};
use std::sync::Arc;

use crate::cache::min_index;
use crate::faults::FaultInjector;
use crate::{L1Cache, SimConfig, SimError, SimResult};

/// Dense handle into the [`PairArena`] columns.
type PairId = u32;

/// Per-static-instruction facts, predecoded once so the per-dynamic-
/// instruction loop reads one flat table entry instead of interrogating
/// the `Inst` enum (`dst`/`srcs`/`fu_class`/`is_*` calls per instruction).
#[derive(Debug, Clone, Copy)]
struct PreInst {
    flags: u8,
    /// Source register index per operand slot (`NO_SRC` = absent or the
    /// hardwired zero register, which never has a producer).
    src: [u8; 2],
    /// Functional-unit class index (into the `fu_*` layout tables).
    class: u8,
    /// Result latency of that class.
    latency: u8,
}

const F_WRITES_REG: u8 = 1;
const F_LOAD: u8 = 1 << 1;
const F_STORE: u8 = 1 << 2;
const F_COND_BRANCH: u8 = 1 << 3;
/// Control flow that is not a conditional branch (jump/call/ret).
const F_CONTROL: u8 = 1 << 4;
/// The pc is a spawning point *and* the config has units to spawn into.
const F_SPAWN: u8 = 1 << 5;
const NO_SRC: u8 = u8::MAX;

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
    /// Cycle of the most recent removal (for reinstatement).
    removed_at: Vec<u64>,
    alone_count: Vec<u32>,
    size_samples: Vec<u32>,
    size_sum: Vec<u64>,
    /// Samples that were squashed spawns (size zero).
    size_zeros: Vec<u32>,
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
            removed_at: vec![0; n],
            alone_count: vec![0; n],
            size_samples: vec![0; n],
            size_sum: vec![0; n],
            size_zeros: vec![0; n],
        }
    }

    fn id_of(&self, key: (u32, u32)) -> Option<PairId> {
        self.keys.binary_search(&key).ok().map(|i| i as PairId)
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

/// Number of functional-unit classes (the `fu_*` layout tables are fixed
/// arrays of this size).
const NUM_FU_CLASSES: usize = FuClass::ALL.len();

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
    /// small relative to traces).
    pub fn with_table(trace: &'a Trace, config: SimConfig, table: &SpawnTable) -> Simulator<'a> {
        Simulator::with_deps(trace, Arc::new(DepGraph::build(trace)), config, table)
    }

    /// As [`Simulator::with_table`], reusing a prebuilt dependence graph.
    ///
    /// The graph is a pure function of the trace, so callers running many
    /// configurations or tables over one trace (parameter sweeps, the
    /// figure builders) build it once and share it instead of paying the
    /// full-trace analysis on every run.
    ///
    /// The graph MUST have been built from `trace`; a mismatched graph
    /// makes the run meaningless (producer indices point at the wrong
    /// instructions) and will typically fail the engine's post-run audit.
    pub fn with_deps(
        trace: &'a Trace,
        deps: Arc<DepGraph>,
        config: SimConfig,
        table: &SpawnTable,
    ) -> Simulator<'a> {
        Simulator {
            trace,
            deps,
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
struct WinState<'a> {
    /// The trace's static-pc column, hoisted once per window: reads through
    /// a window-local field cannot alias the `&mut self` calls inside the
    /// step (spawns, caches), so the per-instruction loads stay hoisted.
    pcs: &'a [u32],
    /// Config-derived loop constants, hoisted for the same reason.
    rob: usize,
    renames: usize,
    issue_width: usize,
    fetch_width: u32,
    rob_i: usize,
    rob_full: bool,
    writer_i: usize,
    writer_full: bool,
    last_commit: u64,
    fetch_cycle: u64,
    /// Fetch slots consumed in the cycle `fetch_cycle`.
    slots: u32,
    /// Whether the ROB / rename-ring structural hazards can bite at all:
    /// false when the window is shorter than both rings (they reset empty
    /// each window and can then never fill), eliding every ring store and
    /// full-check. The window can only shrink after this is computed, so
    /// the bound stays valid.
    rings: bool,
    /// Constant live-in readiness when the perfect value predictor makes
    /// every out-of-window producer equivalent (`Some(init_done)`).
    live_const: Option<u64>,
    /// Whether the unrolled 4-wide issue tournament applies (issue width 4,
    /// every FU class fielding at most two units).
    fast_units: bool,
    /// Base of this unit's issue-port / FU slices in the flat columns.
    pbase: usize,
    fbase_tu: usize,
    /// Window-local copies of this unit's port and FU availability columns
    /// for the common geometry: nothing else touched inside the window
    /// (spawns, caches, predictors) reads them, and locals keep the
    /// per-instruction tournaments in registers instead of memory. Written
    /// back by `finish_window`.
    ports4: [u64; 4],
    fu16: [u64; 16],
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
    /// Dense CQIP index (into the occurrence CSR) per candidate.
    cand_cqip: Vec<u32>,
    /// Per-pair dynamic state, indexed by `PairId`.
    pairs: PairArena,
    /// CQIP occurrence CSR: the dynamic indices where dense CQIP `c`
    /// occurs are `occ_values[occ_offsets[c]..occ_offsets[c + 1]]`,
    /// ascending (built in one trace pass at construction).
    occ_offsets: Vec<u32>,
    occ_values: Vec<u32>,
    /// Per-CQIP cursor into `occ_values`: the first occurrence not yet
    /// known to be at or before the current spawn point. Spawn attempts
    /// arrive at globally non-decreasing dynamic indices (windows are
    /// processed in program order), so each cursor only ever advances —
    /// the whole run's next-occurrence searches cost one amortised pass.
    occ_cursor: Vec<u32>,
    /// Active (chained or doomed-this-window) thread count per dense CQIP,
    /// replacing a chain scan on every spawn attempt.
    cqip_active: Vec<u32>,
    /// Completion time of every dynamic instruction processed so far.
    ///
    /// Stored as `u32`: this is the hottest randomly-indexed table
    /// (producer lookups jump arbitrarily far back), so halving it doubles
    /// the fraction that stays cache-resident. Completion times are far
    /// below 2^32 for any trace the step budget admits (a debug assertion
    /// guards the narrowing).
    complete: Vec<u32>,
    // --- Hot per-thread-unit columns, scanned every cycle ---------------
    tu_busy: Vec<bool>,
    tu_free_at: Vec<u64>,
    /// Bitmask of non-busy units (bit `i` ⟺ `!tu_busy[i]`), valid only
    /// when the machine has at most 64 units: free-unit searches iterate
    /// set bits instead of scanning every unit. Kept in sync with
    /// `tu_busy` by `tu_claim`/`tu_release`.
    tu_free_mask: u64,
    /// Number of non-busy units, and the minimum `tu_free_at` over them
    /// (`u64::MAX` when none): a spawn attempt that cannot possibly find a
    /// unit declines on two compares without leaving the cycle loop.
    tu_free_count: usize,
    tu_min_free: u64,
    /// Whether that two-compare decline is exact: fault injection draws
    /// RNG per attempt and pair reinstatement can mutate state on any
    /// attempt, so either disables the shortcut.
    fast_decline: bool,
    /// Next-free cycle per issue port: unit `u`'s ports are
    /// `ports[u * issue_width..][..issue_width]`.
    ports: Vec<u64>,
    /// Next-free cycle per functional unit: unit `u`'s class-`c` FUs are
    /// `fu_free[u * fu_total + fu_offset[c]..][..fu_count[c]]`.
    fu_free: Vec<u64>,
    fu_offset: [usize; NUM_FU_CLASSES],
    fu_count: [usize; NUM_FU_CLASSES],
    /// Occupancy increment per issue: 1 for pipelined classes, the full
    /// latency for non-pipelined ones.
    fu_incr: [u64; NUM_FU_CLASSES],
    fu_total: usize,
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
    /// ROB commit ring; entries are only read at positions already written
    /// this window (`local_i >= rob`), so it is never re-zeroed.
    rob_ring: Vec<u64>,
    /// Rename-register commit ring; same never-re-zeroed argument.
    writer_ring: Vec<u64>,
    /// Doomed children of the window being processed.
    doomed: Vec<DoomedChild>,
    /// Live-in readiness memo: cached time per architectural register,
    /// gated by the `live_in_valid` bitmask. Persistent scratch — a window
    /// resets only the mask (one store), never the value array, so stale
    /// values are present but unreadable.
    live_in_vals: [u64; specmt_isa::NUM_REGS],
    live_in_valid: u64,
    /// Successor spawn times, collected per retire by the removal policy.
    succ_spawns: Vec<u64>,
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
            let mut src = [NO_SRC; 2];
            for (s, r) in inst.srcs().into_iter().enumerate() {
                if let Some(r) = r {
                    if !r.is_zero() {
                        src[s] = r.index() as u8;
                    }
                }
            }
            let class = inst.fu_class();
            pre.push(PreInst {
                flags,
                src,
                class: class.index() as u8,
                latency: class.latency() as u8,
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

        // CQIP occurrence CSR: one scan of the trace collects the (dense
        // CQIP, dynamic index) hits into a compact list — typically a small
        // fraction of the trace — and a counting sort over that list builds
        // the offsets and per-CQIP ascending values.
        let mut occ_offsets = vec![0u32; cqip_pcs.len() + 1];
        let mut occ_values: Vec<u32> = Vec::new();
        if !cqip_pcs.is_empty() {
            let mut dense = vec![u32::MAX; program_len];
            for (i, &pc) in cqip_pcs.iter().enumerate() {
                // A table may name a CQIP pc beyond the program; it simply
                // never occurs, so its occurrence range stays empty.
                if let Some(d) = dense.get_mut(pc as usize) {
                    *d = i as u32;
                }
            }
            let mut hits: Vec<(u32, u32)> = Vec::new();
            for (k, &pc) in trace.pcs().iter().enumerate() {
                let d = dense[pc as usize];
                if d != u32::MAX {
                    hits.push((d, k as u32));
                }
            }
            for &(d, _) in &hits {
                occ_offsets[d as usize + 1] += 1;
            }
            for i in 1..occ_offsets.len() {
                occ_offsets[i] += occ_offsets[i - 1];
            }
            occ_values = vec![0u32; hits.len()];
            let mut cursor = occ_offsets.clone();
            for &(d, k) in &hits {
                occ_values[cursor[d as usize] as usize] = k;
                cursor[d as usize] += 1;
            }
        }

        // Functional-unit layout: identical for every thread unit.
        let mut fu_offset = [0usize; NUM_FU_CLASSES];
        let mut fu_count = [0usize; NUM_FU_CLASSES];
        let mut fu_incr = [0u64; NUM_FU_CLASSES];
        let mut fu_total = 0usize;
        for c in FuClass::ALL {
            let i = c.index();
            fu_offset[i] = fu_total;
            fu_count[i] = c.units();
            fu_incr[i] = if c.pipelined() { 1 } else { c.latency() };
            fu_total += c.units();
        }

        let n_tus = cfg.thread_units;
        // Proven bounds for the compact cache tag store: each dynamic
        // instruction makes at most one access or touch on one unit.
        let max_block = deps.max_addr() / cfg.cache.block_bytes.max(1) as u64;
        let max_accesses = trace.len() as u64 + 1;
        let predictor = cfg.value_predictor.build(cfg.predictor_budget);
        let faults = cfg
            .faults
            .filter(|p| p.is_active())
            .map(FaultInjector::new);
        let metrics = cfg.observe.then(MetricsRegistry::new);
        let observing = sink.is_some() || metrics.is_some();
        let rob_ring = vec![0u64; cfg.rob_entries];
        let writer_ring = vec![0u64; cfg.phys_regs.saturating_sub(specmt_isa::NUM_REGS)];
        Engine {
            complete: vec![0; trace.len()],
            pre,
            cand_offsets,
            cand_pair,
            cand_cqip,
            pairs,
            occ_cursor: occ_offsets[..occ_offsets.len() - 1].to_vec(),
            cqip_active: vec![0; occ_offsets.len() - 1],
            occ_offsets,
            occ_values,
            tu_busy: vec![false; n_tus],
            tu_free_at: vec![0; n_tus],
            tu_free_mask: if n_tus >= 64 {
                u64::MAX
            } else {
                (1u64 << n_tus) - 1
            },
            tu_free_count: n_tus,
            tu_min_free: 0,
            fast_decline: faults.is_none()
                && cfg.removal.and_then(|p| p.reinstate_after).is_none()
                && !adaptive.is_active(),
            ports: vec![0; n_tus * cfg.issue_width],
            fu_free: vec![0; n_tus * fu_total],
            fu_offset,
            fu_count,
            fu_incr,
            fu_total,
            gshares: (0..n_tus).map(|_| Gshare::new(cfg.gshare_bits)).collect(),
            confs: vec![SpawnConfidence::new(); n_tus],
            scoreboard,
            conf_threshold: u32::from(adaptive.confidence_threshold.unwrap_or(0)),
            caches: (0..n_tus)
                .map(|_| L1Cache::new_bounded(cfg.cache, max_block, max_accesses))
                .collect(),
            predictor,
            chain: std::collections::VecDeque::new(),
            rob_ring,
            writer_ring,
            doomed: Vec::new(),
            live_in_vals: [0; specmt_isa::NUM_REGS],
            live_in_valid: 0,
            succ_spawns: Vec::new(),
            touch_run: Vec::new(),
            faults,
            result: SimResult::default(),
            sink,
            metrics,
            observing,
            next_thread_id: 1,
            trace,
            deps,
            cfg,
        }
    }

    /// Marks a unit free at `free_at`, folding it into the free-unit
    /// summary used by the spawn fast-decline check.
    #[inline]
    fn tu_release(&mut self, tu: usize, free_at: u64) {
        self.tu_busy[tu] = false;
        if tu < 64 {
            self.tu_free_mask |= 1 << tu;
        }
        self.tu_free_at[tu] = free_at;
        self.tu_free_count += 1;
        self.tu_min_free = self.tu_min_free.min(free_at);
    }

    /// Marks a unit busy and repairs the free-unit summary (a rescan only
    /// when the claimed unit may have carried the minimum).
    #[inline]
    fn tu_claim(&mut self, tu: usize) {
        self.tu_busy[tu] = true;
        if tu < 64 {
            self.tu_free_mask &= !(1 << tu);
        }
        self.tu_free_count -= 1;
        if self.tu_free_at[tu] <= self.tu_min_free {
            let mut m = u64::MAX;
            if self.tu_busy.len() <= 64 {
                let mut bits = self.tu_free_mask;
                while bits != 0 {
                    m = m.min(self.tu_free_at[bits.trailing_zeros() as usize]);
                    bits &= bits - 1;
                }
            } else {
                for i in 0..self.tu_busy.len() {
                    if !self.tu_busy[i] {
                        m = m.min(self.tu_free_at[i]);
                    }
                }
            }
            self.tu_min_free = m;
        }
    }

    /// Lowest-numbered unit that is free no later than cycle `f`, exactly
    /// the unit a linear scan of `tu_busy`/`tu_free_at` would pick.
    #[inline]
    fn tu_find_free(&self, f: u64) -> Option<usize> {
        if self.tu_busy.len() <= 64 {
            let mut bits = self.tu_free_mask;
            while bits != 0 {
                let i = bits.trailing_zeros() as usize;
                if self.tu_free_at[i] <= f {
                    return Some(i);
                }
                bits &= bits - 1;
            }
            None
        } else {
            (0..self.tu_busy.len()).find(|&i| !self.tu_busy[i] && self.tu_free_at[i] <= f)
        }
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
        if let Some(unit) = self.tu_busy.iter().position(|&b| b) {
            return Err(SimError::ThreadUnitLeak { unit });
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
    fn process_window(&mut self, t: &PendingThread) -> (usize, u64) {
        let mut st = self.win_state(t);
        let mut k = t.start;
        // `st.end` is re-read per instruction: a spawn can shrink it.
        while k < st.end {
            self.step(t, k, &mut st);
            k += 1;
        }
        self.finish_window(t, &st);
        (k, st.last_commit)
    }

    /// Initial per-window state for thread `t`, including window-local
    /// copies of the unit's port/FU availability columns for the common
    /// geometry (written back by [`Engine::finish_window`]).
    fn win_state(&mut self, t: &PendingThread) -> WinState<'a> {
        let issue_width = self.cfg.issue_width;
        let pbase = t.tu * issue_width;
        let fbase_tu = t.tu * self.fu_total;
        let fast_units =
            issue_width == 4 && self.fu_total <= 16 && self.fu_count.iter().all(|&c| c <= 2);
        // A perfectly predicted live-in of a spawned thread is available the
        // moment the thread is initialised, unconditionally: the whole
        // live-in path collapses to this per-window constant (no stats, no
        // RNG, so skipping the call is exact).
        let live_const = match (t.pair.is_some(), self.cfg.value_predictor) {
            (true, ValuePredictorKind::Perfect) => Some(t.init_done),
            _ => None,
        };
        self.doomed.clear();
        self.touch_run.clear();
        // Live-in memo reset: one mask store (the value array persists).
        self.live_in_valid = 0;
        // The window ends at the next more-speculative thread's start
        // (or the trace end); only a spawn can move it (and only inward).
        let end = self.chain.front().map_or(self.trace.len(), |c| c.start);
        // Both hazard rings start empty; a window too short to wrap either
        // can never trigger a structural stall, so its slots skip the ring
        // bookkeeping entirely (the suite's windows average ~a dozen slots
        // against a 64-entry ROB).
        let rings = end - t.start >= self.cfg.rob_entries.min(self.writer_ring.len());
        let mut ports4 = [0u64; 4];
        let mut fu16 = [0u64; 16];
        if fast_units {
            ports4.copy_from_slice(&self.ports[pbase..pbase + 4]);
            fu16[..self.fu_total]
                .copy_from_slice(&self.fu_free[fbase_tu..fbase_tu + self.fu_total]);
        }
        WinState {
            pcs: self.trace.pcs(),
            rob: self.cfg.rob_entries,
            renames: self.writer_ring.len(),
            issue_width,
            fetch_width: self.cfg.fetch_width,
            rob_i: 0,
            rob_full: false,
            writer_i: 0,
            writer_full: false,
            last_commit: t.init_done,
            fetch_cycle: t.init_done,
            slots: 0,
            rings,
            live_const,
            fast_units,
            pbase,
            fbase_tu,
            ports4,
            fu16,
            end,
        }
    }

    /// Writes the window-local port/FU availability copies back to the flat
    /// columns and flushes trailing store touches (stores after the last
    /// load of the window still become resident); the epilogue of every
    /// `process_window` variant.
    fn finish_window(&mut self, t: &PendingThread, st: &WinState<'_>) {
        if st.fast_units {
            self.ports[st.pbase..st.pbase + 4].copy_from_slice(&st.ports4);
            self.fu_free[st.fbase_tu..st.fbase_tu + self.fu_total]
                .copy_from_slice(&st.fu16[..self.fu_total]);
        }
        if !self.touch_run.is_empty() {
            self.caches[t.tu].touch_run(&mut self.touch_run);
        }
    }

    /// Processes dynamic instruction `k` in one pass through fetch
    /// hazards, spawn, operand readiness, issue, memory, write-back and
    /// control-flow redirect.
    ///
    /// `inline(always)`: it runs once per dynamic instruction; out of line
    /// it pays a ~250-line function's call/spill traffic on the hottest
    /// path in the simulator.
    #[allow(clippy::too_many_lines)]
    #[inline(always)]
    fn step(&mut self, t: &PendingThread, k: usize, st: &mut WinState<'_>) {
        let trace = self.trace;
        let pc = st.pcs[k];
        let pi = self.pre[pc as usize];
        let rob = st.rob;
        let renames = st.renames;
        let issue_width = st.issue_width;
        let fetch_width = st.fetch_width;

        // --- Fetch ---------------------------------------------------
        // Stall checks select with cmov: whether the structural hazard
        // bites is data-dependent and defeats the branch predictor.
        let writes_reg = pi.flags & F_WRITES_REG != 0;
        if st.rings {
            if st.rob_full {
                let oldest = self.rob_ring[st.rob_i];
                let stall = oldest > st.fetch_cycle;
                st.fetch_cycle = if stall { oldest } else { st.fetch_cycle };
                st.slots = if stall { 0 } else { st.slots };
            }
            if writes_reg && st.writer_full {
                let oldest = self.writer_ring[st.writer_i];
                let stall = oldest > st.fetch_cycle;
                st.fetch_cycle = if stall { oldest } else { st.fetch_cycle };
                st.slots = if stall { 0 } else { st.slots };
            }
        }
        if st.slots == fetch_width {
            st.fetch_cycle += 1;
            st.slots = 0;
        }
        let f = st.fetch_cycle;
        st.slots += 1;

        // --- Spawn ---------------------------------------------------
        if pi.flags & F_SPAWN != 0 {
            if self.fast_decline && (self.tu_free_count == 0 || f < self.tu_min_free) {
                // No unit can accept a thread at `f`: every candidate
                // path through the full attempt ends in this same
                // single decline with no other state change.
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
        let mut ready = f + 1;
        let prods = self.deps.reg_producers(k);
        if let Some(v) = st.live_const {
            // Spawned thread under perfect prediction: every live-in is
            // available at `init_done` unconditionally, so resolution
            // collapses to selects on the producer index — no
            // data-dependent branches. The producer index is clamped so
            // the `complete` load is in-bounds even for `NO_PRODUCER`;
            // the select then discards it.
            let hi = self.complete.len() - 1;
            for &p in &prods {
                let c = u64::from(self.complete[(p as usize).min(hi)]);
                let avail = if p == NO_PRODUCER {
                    0
                } else if (p as usize) < t.start {
                    v
                } else {
                    c
                };
                ready = ready.max(avail);
            }
        } else {
            for (&r, &p) in pi.src.iter().zip(&prods) {
                if r == NO_SRC || p == NO_PRODUCER {
                    continue;
                }
                let p = p as usize;
                let avail = if p >= t.start {
                    u64::from(self.complete[p])
                } else {
                    self.live_in_time(t, r as usize, p)
                };
                ready = ready.max(avail);
            }
        }

        // --- Issue: a port, then a functional unit -------------------
        let class = pi.class as usize;
        let off = self.fu_offset[class];
        let cnt = self.fu_count[class];
        let t2 = if st.fast_units {
            // Tournament min for the 4-wide machine: three cmov
            // selects instead of a scan, earliest index winning ties
            // exactly like `min_index`, over the window-local copies.
            let ports = &mut st.ports4;
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
            let units = &mut st.fu16[off..off + cnt];
            // Every ISA class fields one or two units; pick with a
            // single compare instead of a scan.
            let unit = if cnt == 2 && units[1] < units[0] { 1 } else { 0 };
            let t2 = t1.max(units[unit]);
            units[unit] = t2 + self.fu_incr[class];
            t2
        } else {
            let ports = &mut self.ports[st.pbase..st.pbase + issue_width];
            let port = min_index(ports);
            let t1 = ready.max(ports[port]);
            ports[port] = t1 + 1;
            let units = &mut self.fu_free[st.fbase_tu + off..st.fbase_tu + off + cnt];
            let unit = if cnt == 2 && units[1] < units[0] {
                1
            } else if cnt <= 2 {
                0
            } else {
                min_index(units)
            };
            let t2 = t1.max(units[unit]);
            units[unit] = t2 + self.fu_incr[class];
            t2
        };
        let mut done = t2 + u64::from(pi.latency);

        // --- Memory --------------------------------------------------
        if pi.flags & F_LOAD != 0 {
            if !self.touch_run.is_empty() {
                self.caches[t.tu].touch_run(&mut self.touch_run);
            }
            let misses_before = if self.observing {
                self.caches[t.tu].stats().1
            } else {
                0
            };
            let mut data = self.caches[t.tu].access(trace.addr_at(k), done);
            let cache_hit = !self.observing || self.caches[t.tu].stats().1 == misses_before;
            let jitter = self.faults.as_mut().map_or(0, |fi| fi.jitter());
            if jitter > 0 {
                self.result.fault_jitter_cycles += jitter;
                data += jitter;
                if self.observing {
                    self.emit(Event::FaultInjected {
                        thread: t.id,
                        unit: t.tu as u32,
                        cycle: done,
                        kind: FaultKind::CacheJitter { cycles: jitter },
                    });
                }
            }
            let mp = self.deps.mem_producer(k);
            if mp != NO_PRODUCER {
                let mp = mp as usize;
                if mp >= t.start {
                    // Same-thread store-to-load forwarding.
                    data = data.max(u64::from(self.complete[mp]));
                } else if u64::from(self.complete[mp]) > t2 {
                    // Violation: the producing store in an earlier
                    // thread executes after this load issued. Squash
                    // and restart here.
                    self.result.violations += 1;
                    let restart = u64::from(self.complete[mp])
                        + self.cfg.forward_latency
                        + self.cfg.squash_penalty;
                    data = data.max(restart);
                    st.fetch_cycle = restart;
                    st.slots = 0;
                    if self.observing {
                        self.emit(Event::ViolationDetected {
                            thread: t.id,
                            unit: t.tu as u32,
                            cycle: t2,
                        });
                    }
                } else {
                    // Cross-thread forward out of the versioning cache.
                    data = data.max(u64::from(self.complete[mp]) + self.cfg.forward_latency);
                }
            }
            done = data;
            if self.observing {
                self.emit(Event::CacheAccess {
                    thread: t.id,
                    unit: t.tu as u32,
                    cycle: done,
                    hit: cache_hit,
                });
            }
        } else if pi.flags & F_STORE != 0 {
            self.touch_run.push(trace.addr_at(k));
            done = t2 + 1;
        }

        debug_assert!(done <= u64::from(u32::MAX));
        self.complete[k] = done as u32;
        st.last_commit = st.last_commit.max(done);
        if st.rings {
            self.rob_ring[st.rob_i] = st.last_commit;
            st.rob_i += 1;
            if st.rob_i == rob {
                st.rob_i = 0;
                st.rob_full = true;
            }
            if writes_reg {
                self.writer_ring[st.writer_i] = st.last_commit;
                st.writer_i += 1;
                if st.writer_i == renames {
                    st.writer_i = 0;
                    st.writer_full = true;
                }
            }
        }

        // --- Control-flow redirects ----------------------------------
        if pi.flags & F_COND_BRANCH != 0 {
            self.result.branch_predictions += 1;
            let taken = trace.taken_at(k);
            let pred = self.gshares[t.tu].predict_update(Pc(pc), taken);
            // Redirect selection in cmovs: prediction outcomes are the
            // canonical unpredictable branch.
            let hit = pred == taken;
            self.result.branch_hits += u64::from(hit);
            if self.conf_threshold > 0 {
                self.confs[t.tu].record(hit);
            }
            let redirect = if hit {
                if taken { f + 1 } else { st.fetch_cycle }
            } else {
                done + self.cfg.mispredict_penalty
            };
            st.fetch_cycle = st.fetch_cycle.max(redirect);
            st.slots = if hit && !taken { st.slots } else { 0 };
        } else if pi.flags & F_CONTROL != 0 {
            st.fetch_cycle = st.fetch_cycle.max(f + 1);
            st.slots = 0;
        }
    }

    /// Availability time of a live-in register value whose producer `p`
    /// lies before the thread's window.
    #[inline(never)]
    fn live_in_time(&mut self, t: &PendingThread, reg_idx: usize, p: usize) -> u64 {
        if self.live_in_valid & (1 << reg_idx) != 0 {
            return self.live_in_vals[reg_idx];
        }
        let forwarded = u64::from(self.complete[p]) + self.cfg.forward_latency;
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
                        let mut guess = predictor.predict(key);
                        predictor.train(key, actual);
                        let corrupted =
                            self.faults.as_mut().is_some_and(FaultInjector::roll_corrupt_value);
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
        let spawn_dropped = self.faults.as_mut().is_some_and(FaultInjector::roll_drop_spawn);
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
        let reinstate_period = self.cfg.removal.and_then(|p| p.reinstate_after);
        let c0 = self.cand_offsets[pc as usize] as usize;
        let c1 = self.cand_offsets[pc as usize + 1] as usize;
        for ci in c0..c1 {
            let pid = self.cand_pair[ci] as usize;
            // One arena read serves both the removal check and the
            // footnote-1 reinstatement (a removed pair may cool off and
            // come back).
            if self.pairs.removed[pid] {
                let reinstated = reinstate_period
                    .is_some_and(|period| f.saturating_sub(self.pairs.removed_at[pid]) >= period);
                if reinstated {
                    self.pairs.removed[pid] = false;
                    self.pairs.alone_count[pid] = 0;
                } else if self.cfg.reassign {
                    continue;
                } else {
                    self.result.spawns_declined += 1;
                    return None;
                }
            }
            // Scoreboard demotion: a runtime blacklist fed by squashes,
            // consulted like removal but permanent and with its own
            // accounting (the gate is the sole decider for this decline).
            if self.scoreboard.as_ref().is_some_and(|sb| sb.is_demoted(pid)) {
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
            // Oracle: where does this CQIP next occur? Spawn attempts
            // arrive at non-decreasing `k`, so the per-CQIP cursor resumes
            // where the last search for this CQIP stopped.
            let hi = self.occ_offsets[cd + 1] as usize;
            let mut cur = self.occ_cursor[cd] as usize;
            while cur < hi && self.occ_values[cur] as usize <= k {
                cur += 1;
            }
            self.occ_cursor[cd] = cur as u32;
            let next = (cur < hi).then(|| self.occ_values[cur]);
            // The spawn is a control misspeculation unless the CQIP
            // recurs before the spawner's current immediate successor:
            // hardware discovers the mismatch when the spawner joins a
            // different thread first (e.g. spawning "one more iteration"
            // exactly when the loop exits).
            let bound = self.chain.front().map(|c| c.start);
            let next = next.filter(|&j| bound.is_none_or(|b| (j as usize) < b));
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
    fn check_min_size_removals(&mut self) {
        let Some(min) = self.cfg.min_observed_size else {
            return;
        };
        // Remove at most the single worst offender per sweep: sizes are a
        // property of the whole pair mix (interleaved spawning shortens
        // everybody), so survivors must be re-measured before judging them.
        // Guilt metric: pairs whose spawns get squashed (doomed fraction)
        // are the offenders; short committed threads are often their
        // victims. Among undersized pairs, remove the most squash-prone,
        // breaking ties by smallest average size. Ids ascend in key order,
        // so the final key tie-break (which keeps the pick independent of
        // visit order) is the id comparison itself.
        let a = &self.pairs;
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
        if let Some(i) = worst {
            self.pairs.removed[i] = true;
            // Minimum-size removals are structural; keep them permanent by
            // pushing the reinstatement clock far out.
            self.pairs.removed_at[i] = u64::MAX / 2;
            self.result.pairs_removed += 1;
            self.pairs.size_samples.fill(0);
            self.pairs.size_sum.fill(0);
            self.pairs.size_zeros.fill(0);
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
            if self.cfg.min_observed_size.is_some() {
                for d in doomed {
                    self.pairs.size_samples[d.pair as usize] += 1;
                    self.pairs.size_zeros[d.pair as usize] += 1;
                }
                self.check_min_size_removals();
            }
            return;
        };
        let pid = pid as usize;

        // Chaos: condemn the retiring thread's pair as if a dynamic policy
        // had removed it.
        let forced_removal = self.faults.as_mut().is_some_and(FaultInjector::roll_remove_pair);
        if forced_removal && !self.pairs.removed[pid] {
            self.pairs.removed[pid] = true;
            self.pairs.removed_at[pid] = exec_done;
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

        if self.cfg.min_observed_size.is_some() {
            // Squashed children are the ultimate undersized thread: charge
            // them to their pair as zero-size observations.
            for d in doomed {
                self.pairs.size_samples[d.pair as usize] += 1;
                self.pairs.size_zeros[d.pair as usize] += 1;
            }
            self.pairs.size_samples[pid] += 1;
            self.pairs.size_sum[pid] += window_len;
            self.check_min_size_removals();
        }

        if let Some(policy) = self.cfg.removal {
            // Time this thread spent as the only active thread: from its
            // init *and* the commit of its predecessor (earlier threads
            // still running mean it is not alone) until its first successor
            // spawned.
            let alone_start = t.init_done.max(pred_commit);
            // "Alone" ends when enough successors have spawned: the first
            // for the strict policy, the (max_companions+1)-th for the
            // few-threads variant the paper also evaluates.
            self.succ_spawns.clear();
            self.succ_spawns.extend(self.chain.iter().map(|c| c.spawn_time));
            self.succ_spawns.extend(doomed.iter().map(|d| d.spawn_time));
            self.succ_spawns.sort_unstable();
            let alone_until = self
                .succ_spawns
                .get(policy.max_companions as usize)
                .copied()
                .unwrap_or(exec_done);
            let alone_end = alone_until.min(exec_done);
            if alone_end > alone_start
                && alone_end - alone_start > policy.alone_cycles
                && !self.pairs.removed[pid]
            {
                self.pairs.alone_count[pid] += 1;
                if self.pairs.alone_count[pid] >= policy.occurrences {
                    self.pairs.removed[pid] = true;
                    self.pairs.removed_at[pid] = alone_end;
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
        let r = Simulator::new(&trace, SimConfig::single_threaded()).run().expect("simulation");
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
        let baseline = Simulator::new(&trace, SimConfig::single_threaded()).run().expect("simulation");
        // Self pair at the loop head (@3).
        let table = SpawnTable::from_pairs(vec![pair(3, 3)]);
        let spec = Simulator::with_table(&trace, SimConfig::paper(8), &table).run().expect("simulation");
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
        let a = Simulator::new(&trace, SimConfig::single_threaded()).run().expect("simulation");
        let b = Simulator::new(&trace, SimConfig::paper(16)).run().expect("simulation");
        assert_eq!(a.cycles, b.cycles);
    }

    #[test]
    fn more_thread_units_never_slow_down_this_loop() {
        let trace = independent_loop(100);
        let table = SpawnTable::from_pairs(vec![pair(3, 3)]);
        let c4 = Simulator::with_table(&trace, SimConfig::paper(4), &table).run().expect("simulation");
        let c16 = Simulator::with_table(&trace, SimConfig::paper(16), &table).run().expect("simulation");
        assert!(c16.cycles <= c4.cycles);
    }

    #[test]
    fn doomed_spawn_squashes_at_join() {
        // The SP fires on every iteration, but the CQIP (@0, the entry)
        // never executes again: every spawn is a control misspeculation.
        let trace = independent_loop(20);
        let table = SpawnTable::from_pairs(vec![pair(3, 0)]);
        let r = Simulator::with_table(&trace, SimConfig::paper(4), &table).run().expect("simulation");
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
            .run().expect("simulation")
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
        let r = Simulator::with_table(&trace, SimConfig::paper(8), &table).run().expect("simulation");
        assert!(r.violations > 0, "expected memory violations");
        assert_eq!(r.committed_instructions, trace.len() as u64);
        // The serial chain caps the benefit.
        let baseline = Simulator::new(&trace, SimConfig::single_threaded()).run().expect("simulation");
        assert!(r.cycles * 3 > baseline.cycles);
    }

    #[test]
    fn init_overhead_costs_cycles() {
        let trace = independent_loop(100);
        let table = SpawnTable::from_pairs(vec![pair(3, 3)]);
        let free = Simulator::with_table(&trace, SimConfig::paper(8), &table).run().expect("simulation");
        let taxed =
            Simulator::with_table(&trace, SimConfig::paper(8).with_init_overhead(8), &table).run().expect("simulation");
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
                reinstate_after: None,
                max_companions: 0,
            });
        let r = Simulator::with_table(&trace, cfg, &table).run().expect("simulation");
        assert!(r.pairs_removed >= 1, "pair should be removed: {r:?}");
    }

    #[test]
    fn min_observed_size_removes_small_threads() {
        let trace = independent_loop(100);
        let table = SpawnTable::from_pairs(vec![pair(3, 3)]);
        let mut cfg = SimConfig::paper(8);
        cfg.min_observed_size = Some(100); // iterations are ~36 instructions
        let r = Simulator::with_table(&trace, cfg, &table).run().expect("simulation");
        assert_eq!(r.pairs_removed, 1);
        // After removal, spawning stops.
        let unlimited = Simulator::with_table(&trace, SimConfig::paper(8), &table).run().expect("simulation");
        assert!(r.threads_spawned < unlimited.threads_spawned);
    }

    #[test]
    fn branch_predictor_tables_persist_across_threads() {
        let trace = independent_loop(300);
        let table = SpawnTable::from_pairs(vec![pair(3, 3)]);
        let r = Simulator::with_table(&trace, SimConfig::paper(4), &table).run().expect("simulation");
        // The loop branch is overwhelmingly taken; persistent gshare state
        // should predict it well despite thread switches.
        assert!(r.branch_hit_ratio() > 0.8, "{}", r.branch_hit_ratio());
    }

    /// Straight-line independent code is fetch-bound: doubling the fetch
    /// width must cut cycles substantially.
    #[test]
    fn fetch_width_bounds_straight_line_code() {
        let mut b = ProgramBuilder::new();
        for i in 0..400 {
            // Independent adds across 8 registers.
            let r = Reg::new(1 + (i % 8) as u8).unwrap();
            b.addi(r, r, 1);
        }
        b.halt();
        let trace = Trace::generate(b.build().unwrap(), 10_000).unwrap();
        let run = |fetch: u32, issue: usize| {
            let mut cfg = SimConfig::single_threaded();
            cfg.fetch_width = fetch;
            cfg.issue_width = issue;
            Simulator::new(&trace, cfg).run().expect("simulation").cycles
        };
        let narrow = run(1, 4);
        let wide = run(4, 4);
        // Narrow is fetch-bound at 1 IPC; wide is bound by the two simple
        // integer units at ~2 IPC.
        assert!(narrow > wide * 3 / 2, "narrow {narrow} vs wide {wide}");
        assert!(wide < 260, "wide run not FU-bound: {wide}");
        // And at fetch width 1, IPC cannot exceed 1.
        assert!(narrow as usize >= trace.len());
    }

    /// The few-threads removal variant is strictly more trigger-happy than
    /// the strictly-alone policy: it can only remove at least as many
    /// pairs.
    #[test]
    fn few_threads_removal_is_at_least_as_aggressive() {
        let trace = independent_loop(300);
        let table = SpawnTable::from_pairs(vec![pair(3, 3), pair(3, 41)]);
        let base = crate::RemovalPolicy {
            alone_cycles: 5,
            occurrences: 1,
            reinstate_after: None,
            max_companions: 0,
        };
        let strict =
            Simulator::with_table(&trace, SimConfig::paper(8).with_removal(base), &table).run().expect("simulation");
        let few = Simulator::with_table(
            &trace,
            SimConfig::paper(8).with_removal(crate::RemovalPolicy {
                max_companions: 3,
                ..base
            }),
            &table,
        )
        .run().expect("simulation");
        assert!(few.pairs_removed >= strict.pairs_removed);
        assert_eq!(few.committed_instructions, trace.len() as u64);
    }

    /// §4.1's 64 physical registers are a real constraint: shrinking the
    /// rename pool below the in-flight writer count costs cycles.
    #[test]
    fn physical_registers_throttle_renaming() {
        let mut b = ProgramBuilder::new();
        for _ in 0..60 {
            b.muli(Reg::R1, Reg::R1, 3); // long-latency writers pile up
            for i in 0..7 {
                let r = Reg::new(2 + i).unwrap();
                b.addi(r, r, 1);
            }
        }
        b.halt();
        let trace = Trace::generate(b.build().unwrap(), 10_000).unwrap();
        let run = |phys: usize| {
            let mut cfg = SimConfig::single_threaded();
            cfg.phys_regs = phys;
            cfg.rob_entries = 256; // isolate the rename constraint
            Simulator::new(&trace, cfg).run().expect("simulation").cycles
        };
        assert!(run(36) > run(64), "36: {} vs 64: {}", run(36), run(64));
        assert!(run(64) >= run(256));
    }

    /// A tiny reorder buffer throttles a long-latency dependency chain's
    /// neighbours: cycles grow when the window shrinks.
    #[test]
    fn rob_pressure_slows_execution() {
        let mut b = ProgramBuilder::new();
        for _ in 0..100 {
            b.muli(Reg::R1, Reg::R1, 3); // 4-cycle serial chain
            for _ in 0..6 {
                b.addi(Reg::R2, Reg::R2, 1); // independent filler
            }
        }
        b.halt();
        let trace = Trace::generate(b.build().unwrap(), 10_000).unwrap();
        let run = |rob: usize| {
            let mut cfg = SimConfig::single_threaded();
            cfg.rob_entries = rob;
            Simulator::new(&trace, cfg).run().expect("simulation").cycles
        };
        assert!(run(4) > run(64), "rob4 {} vs rob64 {}", run(4), run(64));
    }

    /// The init overhead delays the first fetch of every spawned thread;
    /// with one spawn the cycle delta is bounded by the overhead itself.
    #[test]
    fn init_overhead_is_charged_to_the_spawned_thread() {
        let trace = independent_loop(2);
        let table = SpawnTable::from_pairs(vec![pair(3, 3)]);
        let base = Simulator::with_table(&trace, SimConfig::paper(2), &table).run().expect("simulation");
        let taxed =
            Simulator::with_table(&trace, SimConfig::paper(2).with_init_overhead(40), &table).run().expect("simulation");
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
        let r = Simulator::with_table(&trace, SimConfig::paper(16), &table).run().expect("simulation");
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
        let base = Simulator::with_table(&trace, SimConfig::paper(8), &table).run().expect("simulation");
        let mut cfg = SimConfig::paper(8);
        cfg.reassign = true;
        let re = Simulator::with_table(&trace, cfg, &table).run().expect("simulation");
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
        let dense = Simulator::new(&build(8), SimConfig::single_threaded()).run().expect("simulation");
        // 4 KiB stride: every access a fresh block, conflict misses galore.
        let sparse = Simulator::new(&build(4096), SimConfig::single_threaded()).run().expect("simulation");
        // Dense: one miss per four accesses (8B stride in 32B blocks).
        // Sparse: every access misses (4 KiB stride cycles few sets).
        assert!(sparse.cache_misses > dense.cache_misses * 3);
        assert!(sparse.cycles > dense.cycles);
    }

    /// The footnote-1 reinstatement variant: a removed pair comes back
    /// after its cooling period, so more spawns happen than with permanent
    /// removal.
    #[test]
    fn reinstatement_revives_removed_pairs() {
        let trace = independent_loop(400);
        let table = SpawnTable::from_pairs(vec![pair(3, 3)]);
        let removal = crate::RemovalPolicy {
            alone_cycles: 1, // hair-trigger: remove almost immediately
            occurrences: 1,
            reinstate_after: None,
            max_companions: 0,
        };
        let permanent =
            Simulator::with_table(&trace, SimConfig::paper(4).with_removal(removal), &table).run().expect("simulation");
        let reinstated = Simulator::with_table(
            &trace,
            SimConfig::paper(4).with_removal(crate::RemovalPolicy {
                reinstate_after: Some(100),
                ..removal
            }),
            &table,
        )
        .run().expect("simulation");
        assert!(permanent.pairs_removed >= 1);
        assert!(
            reinstated.threads_spawned > permanent.threads_spawned,
            "reinstated {} <= permanent {}",
            reinstated.threads_spawned,
            permanent.threads_spawned
        );
        assert_eq!(reinstated.committed_instructions, trace.len() as u64);
    }

    /// Thread lifetimes can never start before their spawner's init and the
    /// aggregate active-thread average stays within the unit count.
    #[test]
    fn active_threads_bounded_by_units() {
        let trace = independent_loop(200);
        let table = SpawnTable::from_pairs(vec![pair(3, 3)]);
        for tus in [2usize, 4, 8] {
            let r = Simulator::with_table(&trace, SimConfig::paper(tus), &table).run().expect("simulation");
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
        let policy =
            AdaptivePolicy { demote_threshold: Some(2), confidence_threshold: None };
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
        let gated = plain
            .clone()
            .with_adaptive(AdaptivePolicy { demote_threshold: None, confidence_threshold: Some(0) });
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

    proptest! {
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
